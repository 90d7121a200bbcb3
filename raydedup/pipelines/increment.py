"""Incremental dedup: fold a NEW shard of pages into an existing index +
cluster assignment without re-clustering the world.

Reference analog: Panako's whole operating model is incremental — new
files are ``panako store``d into the running index and matched with
``panako query`` while every previously indexed fingerprint stays put
(``cli/Store.java:56-90``, ``cli/Query.java:60-93``); an identifier,
once assigned, never changes. The transplant keeps that contract:

  OLD cluster assignments are FROZEN. New docs are matched against the
  old index (LSH band collisions + sha256 exact path, exact-Jaccard
  verified), clustered among THEMSELVES, and each new component joins
  the old cluster of its best match (max jaccard, ties -> min
  cluster_id — the QueryResult ranking rule) or becomes a fresh
  cluster rooted at its minimal new doc id.

Semantics note (documented divergence from a full re-cluster): a new
doc that bridges two old clusters does NOT merge them — old ids are
immutable, the component takes the single best attachment. That is the
reference's behavior too (a query matching two stored songs returns
ranked matches; it never rewrites the store).

Driver memory is INCREMENT-proportional (new edges + new components);
the old index/clusters are only ever streamed or semi-join-filtered.
"""

from __future__ import annotations

import glob
import os
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd
from ray.data import Dataset

from raydedup.config import DedupConfig
from raydedup.util import to_arrow_table

_EMPTY_CROSS = pa.schema(
    [("a", pa.int64()), ("b", pa.int64()), ("jaccard", pa.float64())]
)


def cross_verified_pairs(
    old_sigs: Dataset,
    new_sigs: Dataset,
    old_docs: Dataset,
    new_docs: Dataset,
    cfg: DedupConfig,
) -> pa.Table:
    """Verified (a=new_doc, b=old_doc, jaccard) pairs across the two
    corpora: LSH band collisions restricted to cross-side runs
    (``_cross_side_pairs``), plus a sha256 exact path (identical texts
    always attach even if their band run is hot-capped), exact-Jaccard
    verified at cfg.jaccard_tau through the broadcast verify stage."""
    from raydedup.pipelines.query import _cross_side_pairs
    from raydedup.stages.candidates import band_postings
    from raydedup.stages.exchange import hash_exchange_apply
    from raydedup.stages.pair_agg import reduce_pair_table
    from raydedup.stages.verify import verify_pairs_exchange, verify_pairs_small

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            return t.append_column(
                "side", pa.array(np.full(t.num_rows, side, dtype=np.int64))
            )

        return fn

    postings = (
        band_postings(old_sigs, cfg)
        .map_batches(tag(0), batch_format="pyarrow")
        .union(band_postings(new_sigs, cfg).map_batches(tag(1), batch_format="pyarrow"))
    )
    partials = hash_exchange_apply(
        postings, "band_key", lambda t: _cross_side_pairs(t, cfg.max_band_postings)
    )

    # sha exact path: the increment is the SMALL side — broadcast its
    # (sha, doc_id) table once and hash-join inside a map over old docs
    new_sha = (
        new_docs.select_columns(["doc_id", "text_sha256"])
        .to_pandas()
        .rename(columns={"doc_id": "a"})
    )
    sha_ref = ray.put(new_sha)

    def find_exact(t: pa.Table) -> pa.Table:
        ns = ray.get(sha_ref)
        df = t.select(["doc_id", "text_sha256"]).to_pandas()
        m = df.merge(ns, on="text_sha256", how="inner")
        return pa.table(
            {
                "a": pa.array(m["a"].to_numpy(dtype=np.int64), type=pa.int64()),
                "b": pa.array(m["doc_id"].to_numpy(dtype=np.int64), type=pa.int64()),
            }
        )

    exact_ab = to_arrow_table(
        old_docs.select_columns(["doc_id", "text_sha256"]).map_batches(
            find_exact, batch_format="pyarrow"
        ),
        empty_schema=pa.schema([("a", pa.int64()), ("b", pa.int64())]),
    )

    if partials.num_rows:
        cand = reduce_pair_table(
            partials.rename_columns(["a", "b", "n_partial"]), sum_cols=["n_partial"]
        ).select(["a", "b"])
    else:
        cand = pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    cand = pa.concat_tables([cand, exact_ab])
    if cand.num_rows == 0:
        return _EMPTY_CROSS.empty_table()
    # dedupe (a, b) between the LSH and sha paths
    a = cand.column("a").to_numpy(zero_copy_only=False)
    b = cand.column("b").to_numpy(zero_copy_only=False)
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    first = np.empty(a.shape[0], dtype=bool)
    first[0] = True
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    cand = pa.table(
        {"a": pa.array(a[first], type=pa.int64()), "b": pa.array(b[first], type=pa.int64())}
    )

    pair_docs = np.union1d(np.unique(a), np.unique(b))
    old_ref = ray.put(np.unique(b))

    def keep_old(t: pa.Table) -> pa.Table:
        wanted = ray.get(old_ref)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(np.isin(ids, wanted)))

    union_docs = new_docs.select_columns(["doc_id", "text"]).union(
        old_docs.select_columns(["doc_id", "text"]).map_batches(
            keep_old, batch_format="pyarrow"
        )
    )
    # adaptive switch: broadcast lookup for small candidate-doc sets,
    # hash-partitioned exchange join for big ones
    if pair_docs.shape[0] <= cfg.verify_broadcast_max_docs:
        return to_arrow_table(
            verify_pairs_small(rd.from_arrow(cand), union_docs, cfg, pair_docs),
            empty_schema=_EMPTY_CROSS,
        )
    return verify_pairs_exchange(rd.from_arrow(cand), union_docs, cfg, pair_docs)


_EDGES = pa.schema([("a", pa.int64()), ("b", pa.int64())])


def _star_edge_table(t: pa.Table) -> pa.Table:
    if t.num_rows == 0:
        return _EDGES.empty_table()
    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    cl = t.column("cluster_id").to_numpy(zero_copy_only=False)
    dup = ids != cl
    return pa.table({"a": cl[dup], "b": ids[dup]}, schema=_EDGES)


def cluster_star_edges(clusters: Dataset) -> pa.Table:
    """(doc_id, cluster_id) assignment -> (a=cluster_id, b=doc_id) star
    edges of its non-singleton rows: one edge per duplicate doc, with
    the same connected components as the edges the assignment was
    built from (increment_assignments reads only their connectivity)."""
    edges = to_arrow_table(
        clusters.map_batches(_star_edge_table, batch_format="pyarrow"),
        empty_schema=_EDGES,
    )
    # an empty input skips the map (Ray 2.49), keeping its own schema
    return edges if edges.num_rows else _EDGES.empty_table()


def increment_assignments(
    new_ids: np.ndarray,
    nn_edges: pa.Table,
    cross: pa.Table,
    old_assign: pd.DataFrame,
) -> pd.DataFrame:
    """Pure assignment logic (driver, increment-proportional).

    new_ids: every new doc id. nn_edges: (a, b) edges among new docs —
    only their connectivity is used. cross: verified (a=new, b=old,
    jaccard) attachments.
    old_assign: (doc_id, cluster_id) for the old docs appearing in
    cross. Returns (doc_id, cluster_id, is_representative) for the NEW
    docs only — old rows are frozen and not re-emitted."""
    from raydedup.stages.cluster import cluster_edges_arrays

    new_ids = np.unique(np.asarray(new_ids, dtype=np.int64))

    # components among new docs (min-id root convention)
    if nn_edges.num_rows:
        members, roots = cluster_edges_arrays(
            nn_edges.column("a").to_numpy(zero_copy_only=False),
            nn_edges.column("b").to_numpy(zero_copy_only=False),
        )
    else:
        members = np.empty(0, dtype=np.int64)
        roots = np.empty(0, dtype=np.int64)
    root_of = new_ids.copy()
    if members.shape[0]:
        pos = np.searchsorted(members, new_ids)
        pos = np.minimum(pos, members.shape[0] - 1)
        hit = members[pos] == new_ids
        root_of = np.where(hit, roots[pos], new_ids)

    # best attachment per COMPONENT: max jaccard, ties -> min old cluster
    cluster_of_root: dict[int, int] = {}
    if cross.num_rows and len(old_assign):
        ca = cross.column("a").to_numpy(zero_copy_only=False)
        cb = cross.column("b").to_numpy(zero_copy_only=False)
        cj = cross.column("jaccard").to_numpy(zero_copy_only=False)
        # map the new side to its component root
        p = np.searchsorted(new_ids, ca)
        p = np.minimum(p, new_ids.shape[0] - 1)
        valid = new_ids[p] == ca
        ca_root = root_of[p][valid]
        cb, cj = cb[valid], cj[valid]
        # map the old side to its frozen cluster id
        oa = old_assign.sort_values("doc_id")
        o_ids = oa["doc_id"].to_numpy(dtype=np.int64)
        o_cl = oa["cluster_id"].to_numpy(dtype=np.int64)
        q = np.searchsorted(o_ids, cb)
        q = np.minimum(q, max(o_ids.shape[0] - 1, 0))
        ok = o_ids.shape[0] > 0
        found = o_ids[q] == cb if ok else np.zeros(cb.shape[0], dtype=bool)
        ca_root, cj = ca_root[found], cj[found]
        ccl = o_cl[q][found]
        if ca_root.shape[0]:
            # sort so the winner (max jaccard, min cluster) is FIRST per root
            order = np.lexsort((ccl, -cj, ca_root))
            r, j, c = ca_root[order], cj[order], ccl[order]
            keep = np.empty(r.shape[0], dtype=bool)
            keep[0] = True
            keep[1:] = r[1:] != r[:-1]
            cluster_of_root = dict(zip(r[keep].tolist(), c[keep].tolist()))

    cluster_id = np.array(
        [cluster_of_root.get(int(r), int(r)) for r in root_of], dtype=np.int64
    )
    return pd.DataFrame(
        {
            "doc_id": new_ids,
            "cluster_id": cluster_id,
            "is_representative": new_ids == cluster_id,
        }
    )


def monitor_increments(
    watch_dir: str,
    index_dir: str,
    clusters_path: str,
    cfg: DedupConfig | None = None,
    *,
    poll_interval: float = 2.0,
    max_waves: int | None = None,
    max_idle_polls: int | None = None,
    stop_file: str | None = None,
    on_wave=None,
) -> dict[str, Any]:
    """Continuous increment: the reference's long-running ``monitor``
    lifecycle (``cli/Monitor.java:90-106`` — an endless loop folding
    arriving input windows into the live store) transplanted to crawl
    deliveries. Polls ``watch_dir`` for parquet shards and folds each
    arriving WAVE through ``dedup_increment`` with frozen-base
    semantics: previously assigned ids never change, each wave's new
    docs attach by best verified match exactly as a manual
    ``increment`` verb invocation would.

    File-stability contract: a shard is folded only once its
    (size, mtime) is unchanged between two consecutive polls, so a
    file still being copied in is never half-read. Stable files are
    SYMLINKED into ``<index_dir>/monitor_staging`` (basenames
    preserved, so the store's shard keys match) and the staging dir is
    what ``build_index`` scans — already-stored shards are skipped by
    the store manifest, making every fold idempotent and the whole
    loop crash-resumable (state lives in the index manifest, not the
    monitor process).

    Stop conditions (any): ``max_waves`` folded; ``max_idle_polls``
    consecutive empty polls; ``stop_file`` exists. ``on_wave(info)``
    is called after each fold (tests/metrics hook). Returns totals.
    """
    import time as _time

    cfg = cfg or DedupConfig()
    staging = os.path.join(index_dir, "monitor_staging")
    os.makedirs(staging, exist_ok=True)
    prev_stat: dict[str, tuple[int, float]] = {}
    linked: set[str] = set()
    for p in glob.glob(os.path.join(staging, "*.parquet")):
        if os.path.exists(p):  # follows the link; prune dangling entries
            linked.add(os.path.basename(p))
        else:
            os.unlink(p)
    totals: dict[str, Any] = {"waves": 0, "new_docs": 0, "polls": 0}

    def fold() -> dict[str, Any]:
        info = dedup_increment(index_dir, clusters_path, staging, cfg)
        totals["new_docs"] += info.get("new_docs", 0)
        if on_wave is not None:
            on_wave(info)
        return info

    # catch-up fold: shards symlinked by a PREVIOUS invocation that died
    # before (or during) their fold are re-folded now — the store
    # manifest + frozen-row skip make this a no-op when everything was
    # already folded, so restartability really does live in the index
    # manifest, not in this process's memory
    if linked:
        info = fold()
        if info.get("new_docs", 0) or info.get("stored_shards", 0):
            totals["waves"] += 1

    idle = 0
    while True:
        if max_waves is not None and totals["waves"] >= max_waves:
            totals["stopped_by"] = "max_waves"
            break
        totals["polls"] += 1
        if stop_file and os.path.exists(stop_file):
            totals["stopped_by"] = "stop_file"
            break
        fresh = []
        cur_stat: dict[str, tuple[int, float]] = {}
        for p in sorted(glob.glob(os.path.join(watch_dir, "*.parquet"))):
            name = os.path.basename(p)
            try:
                st = os.stat(p)
            except FileNotFoundError:
                continue  # deleted/renamed between glob and stat
            cur_stat[name] = (st.st_size, st.st_mtime)
            if name in linked:
                continue
            if prev_stat.get(name) == cur_stat[name]:  # stable across polls
                dst = os.path.join(staging, name)
                if not os.path.lexists(dst):
                    os.symlink(os.path.abspath(p), dst)
                if os.path.exists(dst):  # source may have vanished post-stat
                    linked.add(name)
                    fresh.append(name)
                else:
                    os.unlink(dst)
        prev_stat = cur_stat
        # prune staging links whose watch file was deleted AFTER linking —
        # a dangling symlink would crash every subsequent fold's store scan
        for sp in glob.glob(os.path.join(staging, "*.parquet")):
            if not os.path.exists(sp):
                os.unlink(sp)
                linked.discard(os.path.basename(sp))
        if fresh:
            fold()
            totals["waves"] += 1
            idle = 0
            if max_waves is not None and totals["waves"] >= max_waves:
                totals["stopped_by"] = "max_waves"
                break
        else:
            idle += 1
            if max_idle_polls is not None and idle >= max_idle_polls:
                totals["stopped_by"] = "max_idle_polls"
                break
        _time.sleep(poll_interval)
    return totals


def dedup_increment(
    index_dir: str,
    clusters_path: str,
    new_pages_path: str,
    cfg: DedupConfig | None = None,
) -> dict[str, Any]:
    """Fold new pages shards into an existing index + clusters dir.

    1. snapshot the index shard list, ``build_index`` the new pages
       (resumable — already-stored shards are skipped);
    2. dedup the NEW docs among themselves (``run_dedup_scale``,
       containment off — window containment is a corpus-level pass,
       rerun it on the full store when needed);
    3. match new vs OLD (``cross_verified_pairs``);
    4. frozen-cluster assignment (``increment_assignments``), appended
       to ``clusters_path`` as one new parquet shard (atomic write).

    Returns counts + the paths. New docs whose doc_id already exists in
    the old assignment (re-crawled identical url) keep the old row and
    are not re-emitted."""
    from raydedup.pipelines.dedup_scale import run_dedup_scale
    from raydedup.pipelines.query import build_index
    from raydedup.state.checkpoint import _atomic_write_table

    cfg = cfg or DedupConfig()

    def _files(sub: str) -> set[str]:
        return set(glob.glob(os.path.join(index_dir, sub, "*.parquet")))

    before_docs, before_sigs = _files("docs"), _files("signatures")
    store_info = build_index(new_pages_path, index_dir, cfg)
    new_doc_files = sorted(_files("docs") - before_docs)
    new_sig_files = sorted(_files("signatures") - before_sigs)

    out = {
        **store_info,
        "clusters_path": clusters_path,
        "new_docs": 0,
        "attached_to_existing": 0,
        "new_clusters": 0,
    }
    if not new_doc_files:
        return out

    # prune at the read: the fold consumes only identity + content
    # columns (dedup / cross verify) and (doc_id, bands) postings
    new_docs = rd.read_parquet(
        new_doc_files, columns=["doc_id", "text", "text_sha256"]
    ).materialize()
    new_sigs = rd.read_parquet(new_sig_files, columns=["doc_id", "bands"])
    have_old = bool(before_docs)

    # new-vs-new edges: the dedup engine on the increment only
    nn_edges = cluster_star_edges(
        run_dedup_scale(new_docs, cfg, containment=False).clusters
    )

    cross = _EMPTY_CROSS.empty_table()
    old_assign = pd.DataFrame({"doc_id": [], "cluster_id": []})
    if have_old:
        old_docs = rd.read_parquet(
            sorted(before_docs), columns=["doc_id", "text", "text_sha256"]
        )
        old_sigs = rd.read_parquet(sorted(before_sigs), columns=["doc_id", "bands"])
        cross = cross_verified_pairs(old_sigs, new_sigs, old_docs, new_docs, cfg)
        if cross.num_rows:
            matched_old = np.unique(cross.column("b").to_numpy(zero_copy_only=False))
            m_ref = ray.put(matched_old)

            def keep(t: pa.Table) -> pa.Table:
                wanted = ray.get(m_ref)
                ids = t.column("doc_id").to_numpy(zero_copy_only=False)
                return t.filter(pa.array(np.isin(ids, wanted)))

            old_assign = (
                rd.read_parquet(clusters_path, columns=["doc_id", "cluster_id"])
                .map_batches(keep, batch_format="pyarrow")
                .to_pandas()
            )

    new_ids = (
        new_docs.select_columns(["doc_id"])
        .to_pandas()["doc_id"]
        .to_numpy(dtype=np.int64)
    )
    assign = increment_assignments(new_ids, nn_edges, cross, old_assign)

    # drop ids that already have a frozen row (re-crawled identical url)
    if have_old:

        @ray.remote
        def _seen_mask(path_list: list[str], ids_sorted: np.ndarray) -> np.ndarray:
            import pyarrow.parquet as pq

            hits = np.zeros(ids_sorted.shape[0], dtype=bool)
            for p in path_list:
                old = pq.read_table(p, columns=["doc_id"]).column("doc_id").to_numpy(
                    zero_copy_only=False
                )
                pos = np.minimum(
                    np.searchsorted(ids_sorted, old), ids_sorted.shape[0] - 1
                )
                hits[pos[ids_sorted[pos] == old]] = True
            return hits

        cl_files = sorted(glob.glob(os.path.join(clusters_path, "*.parquet")))
        if cl_files:
            ids_sorted = np.sort(assign["doc_id"].to_numpy(dtype=np.int64))
            seen = ray.get(_seen_mask.remote(cl_files, ids_sorted))
            dup_ids = set(ids_sorted[seen].tolist())
            if dup_ids:
                assign = assign[~assign["doc_id"].isin(dup_ids)].reset_index(drop=True)

    os.makedirs(clusters_path, exist_ok=True)
    tag = "-".join(
        os.path.splitext(os.path.basename(f))[0] for f in new_doc_files[:4]
    ) or "increment"
    out_file = os.path.join(clusters_path, f"increment-{tag}.parquet")
    _atomic_write_table(pa.Table.from_pandas(assign, preserve_index=False), out_file)

    out["new_docs"] = int(len(assign))
    out["attached_to_existing"] = int(
        (~assign["is_representative"] & ~assign["cluster_id"].isin(assign["doc_id"])).sum()
        if len(assign)
        else 0
    )
    out["new_clusters"] = int(assign["is_representative"].sum())
    out["increment_file"] = out_file
    return out
