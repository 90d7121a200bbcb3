"""Clustering: verified pairs -> connected components (cluster ids).

Graft extension — the reference emits match pairs only
(``cli/Deduplication.java:90-108`` prints matches per file); clustering
is the union-find stage the north rule adds. Cluster id is the minimum
doc_id of the component (deterministic, order-insensitive).

One kernel, ``cluster_edges_arrays`` (vectorized hook-and-compress),
runs in two places:
- in tasks, for the dedup engine: ``stages/cluster_scale.py`` contracts
  groups of edge refs to spanning forests and merges them in one more
  task, so no edge reaches the driver;
- on the driver, for the small edge sets of the increment fold and of
  registry queries (embedding and semantic components).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from raydedup.util import arrow_block_refs


class UnionFind:
    """Path-halving union-by-attachment-to-min union-find over int64 keys."""

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        p = self.parent
        r = p.setdefault(x, x)
        while r != p[r]:
            p[r] = p[p[r]]
            r = p[r]
        # path compression
        while p[x] != r:
            p[x], x = r, p[x]
        return r

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # attach larger root under smaller -> root is the min id seen
        if ra < rb:
            self.parent[rb] = ra
        else:
            self.parent[ra] = rb

    def components(self) -> dict[int, int]:
        return {x: self.find(x) for x in list(self.parent)}


def cluster_edges_arrays(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized in-memory connected components over an edge list:
    hook-and-compress (no per-edge Python — the driver union-find loop
    was a fixed ~0.7 s at 500k docs that does not shrink with cluster
    size). Each round hooks the larger root of every edge whose ends
    still have different roots onto the smaller one, then pointer-jumps
    every node to its root; settled edges drop out. The loop has no
    round cap: a capped loop silently splits long components. Returns
    (members, roots) sorted by member; root = component-min doc id, the
    same convention as UnionFind (property-tested equivalent)."""
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    n = a.shape[0]
    ea, eb = inv[:n], inv[n:]
    # parent[x] <= x always holds, so every tree's root is its min node
    parent = np.arange(nodes.shape[0], dtype=np.int64)
    while True:
        ra, rb = parent[ea], parent[eb]
        live = ra != rb
        if not live.any():
            break
        ea, eb, ra, rb = ea[live], eb[live], ra[live], rb[live]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:  # pointer jumping: every node points at its root
            nxt = parent[parent]
            if np.array_equal(nxt, parent):
                break
            parent = nxt
    return nodes, nodes[parent]


def cluster_size_histogram(clusters: Dataset) -> pa.Table:
    """clusters(doc_id, cluster_id) -> (cluster_size, n_clusters): how
    many components have each size — the duplication-profile statistic
    (`PanakoStorageKV.java:381-467` storage stats turned onto the
    component axis).

    Scale shape: ONE cluster_id-keyed hash exchange so every component's
    rows land in the same bucket (per-bucket exact sizes via np.unique),
    each bucket emits its own (size -> count) partial, and the driver
    merges O(buckets x distinct_sizes) tiny rows — the full assignment
    table is never collected.
    """
    from raydedup.stages.exchange import hash_exchange_apply

    schema = pa.schema([("cluster_size", pa.int64()), ("n_clusters", pa.int64())])

    def bucket_hist(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return schema.empty_table()
        cids = t.column("cluster_id").to_numpy(zero_copy_only=False).astype(np.int64)
        _, per_cluster = np.unique(cids, return_counts=True)
        sizes, n = np.unique(per_cluster, return_counts=True)
        return pa.table(
            {
                "cluster_size": pa.array(sizes.astype(np.int64), pa.int64()),
                "n_clusters": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    parts = hash_exchange_apply(
        clusters.select_columns(["cluster_id"]), "cluster_id", bucket_hist
    )
    merged = parts.group_by("cluster_size").aggregate([("n_clusters", "sum")])
    merged = merged.rename_columns(["cluster_size", "n_clusters"]).cast(schema)
    return merged.sort_by("cluster_size")


def dup_rate_by_group(
    docs: Dataset, clusters: Dataset, group_col: str = "source"
) -> pa.Table:
    """Per-group duplication rate over a cluster assignment: for each
    value of ``group_col`` (source / domain / shard), how many docs and
    what fraction are NON-representative members of some cluster — the
    "which sources are copy farms" curation view over the flagship
    output (the group axis of `PanakoStorageKV.java:381-467` stats).

    Scale shape: ONE two-sided doc_id-keyed exchange joins the
    assignment to the group labels; each bucket emits per-group partial
    (n_docs, n_dup) counts via dictionary codes + bincount, and the
    driver merges O(groups x buckets) tiny partials — assignments are
    never collected. dup_rate is ONE IEEE division per group.
    """
    import pyarrow.compute as pc

    from raydedup.stages.exchange import hash_exchange_join

    schema = pa.schema(
        [
            (group_col, pa.string()),
            ("n_docs", pa.int64()),
            ("n_dup", pa.int64()),
            ("dup_rate", pa.float64()),
        ]
    )
    partial_schema = pa.schema(
        [(group_col, pa.string()), ("n_docs", pa.int64()), ("n_dup", pa.int64())]
    )

    def kern(dt: pa.Table, ct: pa.Table) -> pa.Table:
        if (
            dt.num_rows == 0
            or dt.num_columns == 0
            or ct.num_rows == 0
            or ct.num_columns == 0
        ):
            return partial_schema.empty_table()
        did = dt.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        cid = ct.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        rep = ct.column("is_representative").to_numpy(zero_copy_only=False)
        order = np.argsort(cid, kind="stable")
        cid, rep = cid[order], rep[order].astype(bool)
        pos = np.searchsorted(cid, did)
        pos[pos == cid.shape[0]] = 0
        hit = cid[pos] == did
        is_dup = np.zeros(did.shape[0], dtype=np.int64)
        is_dup[hit] = (~rep[pos[hit]]).astype(np.int64)
        grp = dt.column(group_col)
        if isinstance(grp, pa.ChunkedArray):
            grp = grp.combine_chunks()
        # null group labels count under "" (dictionary_encode emits null
        # indices -> NaN -> bincount crash otherwise)
        enc = pc.dictionary_encode(pc.fill_null(grp, ""))
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        k = len(enc.dictionary)
        n_docs = np.bincount(codes, minlength=k).astype(np.int64)
        n_dup = np.bincount(codes, weights=is_dup, minlength=k).astype(np.int64)
        return pa.table(
            {
                group_col: enc.dictionary.cast(pa.string()),
                "n_docs": pa.array(n_docs, pa.int64()),
                "n_dup": pa.array(n_dup, pa.int64()),
            }
        )

    refs = hash_exchange_join(
        docs.select_columns(["doc_id", group_col]),
        clusters.select_columns(["doc_id", "is_representative"]),
        "doc_id",
        "doc_id",
        kern,
    )
    import ray as _ray

    parts = [t for t in _ray.get(refs) if t.num_rows and t.num_columns]
    if not parts:
        return schema.empty_table()
    merged = pa.concat_tables(parts)
    agg = merged.group_by(group_col).aggregate(
        [("n_docs", "sum"), ("n_dup", "sum")]
    )
    g = agg.column(group_col)
    nd = agg.column("n_docs_sum").to_numpy(zero_copy_only=False).astype(np.int64)
    du = agg.column("n_dup_sum").to_numpy(zero_copy_only=False).astype(np.int64)
    out = pa.table(
        {
            group_col: g,
            "n_docs": pa.array(nd, pa.int64()),
            "n_dup": pa.array(du, pa.int64()),
            "dup_rate": pa.array(du / nd, pa.float64()),
        }
    ).cast(schema)
    return out.sort_by(group_col)


def select_representatives(
    docs: Dataset, clusters: Dataset, *, score_col: str = "n_chars"
) -> Dataset:
    """Re-pick each cluster's representative by a per-doc score —
    keep-the-LONGEST-copy (default: char count) instead of the
    union-find's min-id root. The curation decision that matters when
    near-dup copies differ in completeness (truncated mirrors, partial
    scrapes): the fullest copy survives. Ties break on min doc_id, so
    the choice is total and partition-invariant.

    Scale shape: one doc_id-keyed exchange joins scores onto the
    assignment, one cluster-keyed exchange picks per-cluster argmax
    (in-bucket lexsort + run-first mask) — assignments never reach the
    driver. Returns (doc_id, cluster_id, is_representative) with
    exactly one representative per cluster.
    """
    import pyarrow.compute as pc

    from raydedup.stages.exchange import (
        hash_exchange_apply,
        hash_exchange_join,
        refs_to_dataset,
    )

    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("cluster_id", pa.int64()),
            ("is_representative", pa.bool_()),
        ]
    )
    join_schema = pa.schema(
        [("doc_id", pa.int64()), ("cluster_id", pa.int64()), ("s", pa.int64())]
    )

    def score_batch(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return pa.schema([("doc_id", pa.int64()), ("s", pa.int64())]).empty_table()
        if score_col == "n_chars":
            # ALWAYS recompute from text — a stored n_chars column could
            # disagree (byte length, pre-normalization count) and the SQL
            # mirror scores by length(text) unconditionally
            s = pc.cast(pc.utf8_length(pc.fill_null(t.column("text"), "")), pa.int64())
        else:
            s = pc.cast(t.column(score_col), pa.int64())
        return pa.table({"doc_id": t.column("doc_id").cast(pa.int64()), "s": s})

    def join_kernel(ct: pa.Table, st: pa.Table) -> pa.Table:
        if ct.num_rows == 0 or ct.num_columns == 0 or st.num_rows == 0 or st.num_columns == 0:
            return join_schema.empty_table()
        ci = ct.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        cc = ct.column("cluster_id").to_numpy(zero_copy_only=False).astype(np.int64)
        si = st.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        sv = st.column("s").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(si, kind="stable")
        si, sv = si[order], sv[order]
        pos = np.searchsorted(si, ci)
        pos[pos == si.shape[0]] = 0
        hit = si[pos] == ci
        return pa.table(
            {
                "doc_id": pa.array(ci[hit], pa.int64()),
                "cluster_id": pa.array(cc[hit], pa.int64()),
                "s": pa.array(sv[pos[hit]], pa.int64()),
            }
        )

    def pick_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return out_schema.empty_table()
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        cid = t.column("cluster_id").to_numpy(zero_copy_only=False).astype(np.int64)
        s = t.column("s").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, -s, cid))
        ids, cid = ids[order], cid[order]
        first = np.empty(cid.shape[0], dtype=bool)
        first[0] = True
        first[1:] = cid[1:] != cid[:-1]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "cluster_id": pa.array(cid, pa.int64()),
                "is_representative": pa.array(first),
            }
        )

    scored = docs.map_batches(score_batch, batch_format="pyarrow")
    joined = hash_exchange_join(
        clusters.select_columns(["doc_id", "cluster_id"]),
        scored,
        "doc_id",
        "doc_id",
        join_kernel,
    )
    refs = hash_exchange_apply(joined, "cluster_id", pick_kernel, collect=False)
    return refs_to_dataset(refs, out_schema)


def largest_clusters(
    docs: Dataset, clusters: Dataset, k: int = 10, prefix_chars: int = 80
) -> pa.Table:
    """Top-k most-duplicated clusters with their representative's text
    head — the "show me the worst offenders" inspection view (the
    reference's most-matched statistics surface,
    `PanakoStorageKV.java:381-467`, on the component axis).

    Scale shape: ONE cluster-keyed exchange; each bucket emits only its
    local top-k (size, cluster) rows, the driver merges O(k x buckets)
    partials and fetches the k representatives' text with a broadcast
    id probe — never the assignment, never the corpus. Order is total:
    size DESC, cluster_id ASC.
    """
    import pyarrow.compute as pc

    from raydedup.stages.exchange import hash_exchange_apply

    schema = pa.schema(
        [
            ("cluster_id", pa.int64()),
            ("size", pa.int64()),
            ("rep_prefix", pa.string()),
        ]
    )

    def bucket_topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return pa.table(
                {"cluster_id": pa.array([], pa.int64()), "size": pa.array([], pa.int64())}
            )
        cid = t.column("cluster_id").to_numpy(zero_copy_only=False).astype(np.int64)
        u, c = np.unique(cid, return_counts=True)
        order = np.lexsort((u, -c))[:k]
        return pa.table(
            {
                "cluster_id": pa.array(u[order], pa.int64()),
                "size": pa.array(c[order].astype(np.int64), pa.int64()),
            }
        )

    parts = hash_exchange_apply(
        clusters.select_columns(["cluster_id"]), "cluster_id", bucket_topk
    )
    if parts.num_rows == 0:
        return schema.empty_table()
    cid = parts.column("cluster_id").to_numpy(zero_copy_only=False).astype(np.int64)
    sz = parts.column("size").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((cid, -sz))[:k]
    cid, sz = cid[order], sz[order]

    want = np.sort(cid)

    def probe(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"doc_id": pa.array([], pa.int64()), "rep_prefix": pa.array([], pa.string())}
        )
        if t.num_rows == 0 or "doc_id" not in t.column_names:
            return empty
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(want, ids)
        pos[pos == want.shape[0]] = 0
        mask = want[pos] == ids
        if not mask.any():
            return empty
        sub = t.filter(pa.array(mask))
        return pa.table(
            {
                "doc_id": sub.column("doc_id").cast(pa.int64()),
                "rep_prefix": pc.cast(
                    pc.utf8_slice_codeunits(
                        pc.fill_null(sub.column("text"), ""), 0, prefix_chars
                    ),
                    pa.string(),
                ),
            }
        )

    reps = arrow_block_refs(docs.map_batches(probe, batch_format="pyarrow"))
    import ray as _ray

    rep_parts = [t for t in _ray.get(list(reps)) if t.num_rows and t.num_columns > 1]
    lookup: dict[int, str] = {}
    for t in rep_parts:
        for i, p in zip(t.column("doc_id").to_pylist(), t.column("rep_prefix").to_pylist()):
            lookup[i] = p
    return pa.table(
        {
            "cluster_id": pa.array(cid, pa.int64()),
            "size": pa.array(sz, pa.int64()),
            "rep_prefix": pa.array([lookup.get(int(c), "") for c in cid], pa.string()),
        }
    ).cast(schema)


def dedup_weights(clusters: Dataset) -> Dataset:
    """Duplication-aware example weights: every doc keeps weight
    1/cluster_size, so a cluster contributes one doc's worth of loss
    mass no matter how many copies were crawled — the soft alternative
    to dropping non-representatives (used when near-dups carry signal,
    e.g. quote-heavy news). ONE cluster-keyed exchange: each bucket
    holds its clusters whole, so sizes and per-doc rows are emitted
    in-bucket; weight is ONE IEEE division per row."""
    from raydedup.stages.exchange import hash_exchange_apply, refs_to_dataset

    schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("cluster_id", pa.int64()),
            ("cluster_size", pa.int64()),
            ("weight", pa.float64()),
        ]
    )

    def kern(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return schema.empty_table()
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        cid = t.column("cluster_id").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, cid))
        ids, cid = ids[order], cid[order]
        first = np.empty(cid.shape[0], dtype=bool)
        first[0] = True
        first[1:] = cid[1:] != cid[:-1]
        starts = np.flatnonzero(first)
        runs = np.diff(starts, append=np.int64(cid.shape[0]))
        size = np.repeat(runs, runs).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "cluster_id": pa.array(cid, pa.int64()),
                "cluster_size": pa.array(size, pa.int64()),
                "weight": pa.array(1.0 / size, pa.float64()),
            }
        )

    refs = hash_exchange_apply(
        clusters.select_columns(["doc_id", "cluster_id"]), "cluster_id", kern,
        collect=False,
    )
    return refs_to_dataset(refs, schema)


def cluster_diversity(
    docs: Dataset,
    clusters: Dataset,
    *,
    min_size: int = 2,
) -> pa.Table:
    """Per-dup-cluster diversity stats: (cluster_id, n_docs, n_langs,
    n_sources, top_lang, top_lang_n) for clusters with >= ``min_size``
    members, ordered by cluster_id.

    The dedup QA view: a cluster spanning many sources is syndication /
    mirroring (expected), one spanning many LANGS is usually a false
    merge or boilerplate twin — the per-cluster complement of
    ``dup_rate_by_group``'s per-group view.

    Scale shape: exchange 1 (doc_id) attaches each member's lang/source
    to its cluster_id; exchange 2 (cluster_id) computes counts,
    distincts and the majority lang per cluster with one lexsort +
    run arithmetic per bucket. Output is O(dup clusters) — the report
    surface, collected like the other cluster reports.
    """
    import pyarrow.compute as pc

    from raydedup.stages.exchange import hash_exchange_apply, hash_exchange_join

    mem_schema = pa.schema(
        [
            ("cluster_id", pa.int64()),
            ("lang", pa.large_string()),
            ("source", pa.large_string()),
        ]
    )
    out_schema = pa.schema(
        [
            ("cluster_id", pa.int64()),
            ("n_docs", pa.int64()),
            ("n_langs", pa.int64()),
            ("n_sources", pa.int64()),
            ("top_lang", pa.large_string()),
            ("top_lang_n", pa.int64()),
        ]
    )

    def attach(dt: pa.Table, ct: pa.Table) -> pa.Table:
        if dt.num_rows == 0 or dt.num_columns == 0 or ct.num_rows == 0 or ct.num_columns == 0:
            return mem_schema.empty_table()
        did = dt.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        cid_doc = ct.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        cid = ct.column("cluster_id").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(cid_doc, kind="stable")
        cid_doc, cid = cid_doc[order], cid[order]
        pos = np.searchsorted(cid_doc, did)
        pos[pos == cid_doc.shape[0]] = 0
        hit = cid_doc[pos] == did
        if not hit.any():
            return mem_schema.empty_table()
        return pa.table(
            {
                "cluster_id": pa.array(cid[pos[hit]], pa.int64()),
                "lang": pc.cast(
                    pc.fill_null(dt.column("lang"), "").filter(pa.array(hit)),
                    pa.large_string(),
                ),
                "source": pc.cast(
                    pc.fill_null(dt.column("source"), "").filter(pa.array(hit)),
                    pa.large_string(),
                ),
            }
        )

    members = hash_exchange_join(
        docs.select_columns(["doc_id", "lang", "source"]),
        clusters.select_columns(["doc_id", "cluster_id"]),
        "doc_id",
        "doc_id",
        attach,
    )

    def stats(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return out_schema.empty_table()
        cid = t.column("cluster_id").to_numpy(zero_copy_only=False)
        lang = t.column("lang")
        src = t.column("source")
        lcode = lang.combine_chunks().dictionary_encode()
        scode = src.combine_chunks().dictionary_encode()
        li = lcode.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        si = scode.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        # cluster-major sort once by (cluster, lang-code)
        order = np.lexsort((li, cid))
        c_l, l_l = cid[order], li[order]
        newc = np.empty(c_l.shape[0], dtype=bool)
        newc[0] = True
        newc[1:] = c_l[1:] != c_l[:-1]
        cstarts = np.flatnonzero(newc)
        n_docs = np.diff(np.append(cstarts, c_l.shape[0]))
        keep = n_docs >= min_size
        # per-(cluster, lang) runs -> counts; majority = max count, tie =
        # smallest lang STRING (dictionary codes are not string-ordered,
        # so order candidates by (count DESC, string ASC) explicitly)
        newl = np.empty(c_l.shape[0], dtype=bool)
        newl[0] = True
        newl[1:] = (c_l[1:] != c_l[:-1]) | (l_l[1:] != l_l[:-1])
        lstarts = np.flatnonzero(newl)
        lcnt = np.diff(np.append(lstarts, c_l.shape[0]))
        lclu = c_l[lstarts]  # cluster of each (c, lang) run
        n_langs = np.bincount(
            np.searchsorted(c_l[cstarts], lclu), minlength=cstarts.shape[0]
        )
        # majority per cluster: sort candidate runs by
        # (cluster, -count, lang string) and take the first per cluster
        ldict = lcode.dictionary.to_numpy(zero_copy_only=False)
        lstr = ldict[l_l[lstarts]]
        morder = np.lexsort((lstr, -lcnt, lclu))
        mc, mcnt, mstr = lclu[morder], lcnt[morder], lstr[morder]
        firstm = np.empty(mc.shape[0], dtype=bool)
        firstm[0] = True
        firstm[1:] = mc[1:] != mc[:-1]
        top_lang = mstr[firstm]
        top_n = mcnt[firstm]
        # distinct sources per cluster via a second lexsort
        order2 = np.lexsort((si, cid))
        c_s, s_s = cid[order2], si[order2]
        news = np.empty(c_s.shape[0], dtype=bool)
        news[0] = True
        news[1:] = (c_s[1:] != c_s[:-1]) | (s_s[1:] != s_s[:-1])
        sclu = c_s[np.flatnonzero(news)]
        n_sources = np.bincount(
            np.searchsorted(c_l[cstarts], sclu), minlength=cstarts.shape[0]
        )
        return pa.table(
            {
                "cluster_id": pa.array(c_l[cstarts][keep], pa.int64()),
                "n_docs": pa.array(n_docs[keep].astype(np.int64), pa.int64()),
                "n_langs": pa.array(n_langs[keep].astype(np.int64), pa.int64()),
                "n_sources": pa.array(n_sources[keep].astype(np.int64), pa.int64()),
                "top_lang": pa.array(top_lang[keep], pa.large_string()),
                "top_lang_n": pa.array(top_n[keep].astype(np.int64), pa.int64()),
            }
        )

    agg = hash_exchange_apply(members, "cluster_id", stats)
    if agg.num_rows == 0:
        return out_schema.empty_table()
    idx = np.argsort(agg.column("cluster_id").to_numpy(zero_copy_only=False), kind="stable")
    return agg.take(pa.array(idx))
