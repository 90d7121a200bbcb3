"""End-to-end near-duplicate detection + clustering pipeline.

The graft's primary lifecycle — transplant of ``panako deduplication``
(``cli/Deduplication.java:90-108``: store the whole corpus, then monitor
every file against the index with ``avoid={self}``). Here it is one
streaming Ray Data job:

  docs -> exact dedup (sha256 groupby, ``Deduplication.java:66-88``)
       -> SignatureKernel map_batches (MinHash+SimHash; the fingerprint
          kernel, ``OlafEventPointProcessor.java`` et al.)
       -> band postings -> groupby(band_key) pair emission (the inverted
          near-hash lookup, ``PanakoStorageKV.java:293-379``)
       -> exact-Jaccard verification (``OlafStrategy.java:331-453``)
       -> union-find clustering (graft extension)
       -> (optional) containment pass over representatives
          (``OlafStrategy.java:561-573`` monitor-window analog)

Exact duplicates are collapsed *before* signatures: one representative
per sha256 group flows through LSH (at CC scale a large fraction of
pages are byte-identical — this collapses the hottest skew source), and
final clusters are re-expanded over exact members at assignment time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from raydedup.config import DedupConfig
from raydedup.stages.candidates import (
    band_postings,
    band_size_stats,
    postings_to_pairs,
    simhash_postings,
)
from raydedup.stages.cluster import assignments_table, cluster_edges_arrays
from raydedup.stages.signatures import SignatureKernel
from raydedup.stages.verify import verify_pairs, verify_pairs_small
from raydedup.util import arrow_block_refs, to_arrow_table


@dataclass
class DedupResult:
    clusters: Dataset  # (doc_id, cluster_id, is_representative)
    verified_pairs: pa.Table  # (a, b, jaccard)
    exact_edges: pa.Table  # (a=rep, b=member)
    components: dict[int, int]
    metrics: dict[str, Any] = field(default_factory=dict)


def sha_key_table(t: pa.Table) -> pa.Table:
    """(doc_id, text_sha256) -> + sha_key (big-endian int64 prefix of the
    digest) for hash-bucketing the exact-dup exchange."""
    if t.num_rows == 0 or "text_sha256" not in t.column_names:
        # Ray 2.49: 0-row blocks skip upstream map UDFs and can carry a
        # pre-identity schema — emit the typed empty keyed table.
        return pa.schema(
            [
                ("sha_key", pa.int64()),
                ("doc_id", pa.int64()),
                ("text_sha256", pa.binary()),
            ]
        ).empty_table()
    digests = t.column("text_sha256").to_pylist()
    key = (
        np.frombuffer(b"".join(digests), dtype=">i8").reshape(-1, 4)[:, 0]
        if digests
        else np.empty(0, dtype=np.int64)
    ).astype(np.int64)
    return pa.table(
        {
            "sha_key": pa.array(key, type=pa.int64()),
            "doc_id": t.column("doc_id"),
            "text_sha256": t.column("text_sha256"),
        }
    )


def sha_emit_table(t: pa.Table) -> pa.Table:
    """One sha-key bucket -> (a=group-min doc_id, b=member) edges.

    Pure NumPy: digests are viewed as 4 int64 words, groups are runs of
    the lexsorted (digest words, doc_id) order — full-digest equality,
    so sha-prefix collisions are safe."""
    n = t.num_rows
    empty = pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    if n < 2:
        return empty
    digests = t.column("text_sha256").to_pylist()
    ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    d4 = np.frombuffer(b"".join(digests), dtype=">i8").reshape(n, 4)
    order = np.lexsort((ids, d4[:, 3], d4[:, 2], d4[:, 1], d4[:, 0]))
    d4 = d4[order]
    ids = ids[order]
    b = np.empty(n, dtype=bool)
    b[0] = True
    b[1:] = (d4[1:] != d4[:-1]).any(axis=1)
    starts = np.flatnonzero(b)
    sizes = np.diff(np.append(starts, n))
    rep = np.repeat(ids[starts], sizes)  # group min (ids ascending per group)
    mask = ids != rep
    if not mask.any():
        return empty
    return pa.table(
        {
            "a": pa.array(rep[mask], type=pa.int64()),
            "b": pa.array(ids[mask], type=pa.int64()),
        }
    )


def exact_dedup_edges(docs: Dataset, num_buckets: int | None = None) -> Dataset:
    """sha256 groupby -> (a=group min doc_id, b=member) edges for groups >= 2.

    Shuffles on a coarse hash bucket of the 64-bit sha prefix (one group
    per bucket, vectorized inside); full-digest equality is resolved
    inside the bucket kernel, so sha-prefix collisions are safe. The
    sha-prefix collision *within different buckets* cannot happen (the
    bucket is a pure function of the digest).
    """
    keyed = docs.select_columns(["doc_id", "text_sha256"]).map_batches(
        sha_key_table, batch_format="pyarrow"
    )

    import ray.data as rd

    from raydedup.stages.exchange import hash_exchange_apply

    edges = hash_exchange_apply(keyed, "sha_key", sha_emit_table, num_buckets=num_buckets)
    return rd.from_arrow(edges)


_KERNELS: dict[Any, SignatureKernel] = {}


def _filter_excluded(batch: pa.Table, exclude_ref) -> pa.Table:
    """Drop exact-dup MEMBER rows (cfg.sig_skip_exact_members): their
    representative has a byte-identical text, so skipping them in the
    signature kernel changes no downstream result — the local ray.get
    resolves from plasma (zero-copy) and pipelines each task behind the
    sha exchange without a driver barrier."""
    if batch.num_rows == 0:
        return batch
    import ray

    em = ray.get(exclude_ref)
    if em.shape[0] == 0:
        return batch
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    pos = np.minimum(np.searchsorted(em, ids), em.shape[0] - 1)
    return batch.filter(pa.array(em[pos] != ids))


def _signature_fn(
    batch: pa.Table,
    cfg: DedupConfig,
    keep_shingles: bool,
    exclude_ref=None,
) -> pa.Table:
    # per-worker-process kernel cache: permutation tables + word-hash cache
    # built once per process, reused across task invocations (stateless-task
    # variant of the actor-pool pattern)
    if exclude_ref is not None:
        batch = _filter_excluded(batch, exclude_ref)
    key = (cfg, keep_shingles)
    kernel = _KERNELS.get(key)
    if kernel is None:
        kernel = _KERNELS[key] = SignatureKernel(cfg, keep_shingles=keep_shingles)
    return kernel(batch)


def compute_signatures(
    docs: Dataset,
    cfg: DedupConfig,
    keep_shingles: bool = True,
    exclude_ids_ref=None,
) -> Dataset:
    src = docs.select_columns(["doc_id", "text"])
    if exclude_ids_ref is not None:
        if cfg.signature_concurrency:
            # actor-pool path: apply the member drop as a separate
            # (cheap, row-filter-only) stage so the configured actor
            # pool and its once-per-actor state are preserved
            def _drop(t: pa.Table) -> pa.Table:
                return _filter_excluded(t, exclude_ids_ref)

            src = src.map_batches(_drop, batch_format="pyarrow")
        else:
            # stateless-task path: fuse the drop into the kernel call
            return src.map_batches(
                _signature_fn,
                batch_format="pyarrow",
                batch_size=cfg.batch_size,
                fn_kwargs={
                    "cfg": cfg,
                    "keep_shingles": keep_shingles,
                    "exclude_ref": exclude_ids_ref,
                },
            )
    if cfg.signature_concurrency:
        # explicit actor pool (ST1 analog: state loaded once per actor)
        return src.map_batches(
            SignatureKernel,
            batch_format="pyarrow",
            batch_size=cfg.batch_size,
            fn_constructor_kwargs={"cfg": cfg, "keep_shingles": keep_shingles},
            concurrency=cfg.signature_concurrency,
        )
    return src.map_batches(
        _signature_fn,
        batch_format="pyarrow",
        batch_size=cfg.batch_size,
        fn_kwargs={"cfg": cfg, "keep_shingles": keep_shingles},
    )


def run_dedup(
    docs: Dataset,
    cfg: DedupConfig | None = None,
    *,
    use_simhash: bool = False,
    containment: bool = False,
    substring: bool = False,
    collect_metrics: bool = False,
    num_partitions: int | None = None,
) -> DedupResult:
    """Full pipeline over a docs Dataset (doc_id:int64-castable, text,
    text_sha256). Returns clusters + verified pairs + metrics."""
    cfg = cfg or DedupConfig()
    t0 = time.perf_counter()
    metrics: dict[str, Any] = {}
    import ray

    if cfg.normalize:
        from raydedup.stages.textnorm import normalized_docs

        docs = normalized_docs(docs)

    # Pin the extracted docs table once (it feeds the exact pass, the
    # signature pass AND the containment pass — re-running extraction per
    # consumer triples the read) and split it into enough blocks that
    # every downstream map stage parallelizes across the cluster.
    docs = docs.materialize()
    n_docs = docs.count()
    cpus = int(ray.cluster_resources().get("CPU", 8))
    # one task wave's worth of blocks is enough — read_pages already
    # sizes its read tasks to the cluster, so the repartition (a full
    # extra copy + materialize) only runs when the input arrived badly
    # under-split (e.g. a single-file Dataset from a caller)
    target_blocks = int(min(max(cpus, 8), max(1, n_docs // 512)))
    if docs.num_blocks() < target_blocks:
        docs = docs.repartition(target_blocks).materialize()
    metrics["n_docs"] = n_docs
    metrics["t_docs_prep"] = time.perf_counter() - t0

    # --- exact dedup pre-pass (D1), concurrent with the LSH path ----------
    # The exact (sha256) exchange and the signature+LSH pipeline are
    # independent until verification. The exact pass is submitted as a
    # NON-BLOCKING raw-task chain (per-block key tasks -> hash exchange
    # with collect=False): Ray schedules it concurrently with the
    # signature kernel's execution, with no second driver thread — two
    # Ray Data executors on separate driver threads can race the core
    # worker's ObjectRef accounting (observed flaky
    # `submitted_task_ref_count > 0` crash).
    from raydedup.stages.exchange import hash_exchange_apply

    _sha_key_task = ray.remote(num_returns=1)(sha_key_table)
    docs_block_refs = list(arrow_block_refs(docs))
    keyed_refs = [_sha_key_task.remote(r) for r in docs_block_refs]
    exact_edge_refs = hash_exchange_apply(
        keyed_refs, "sha_key", sha_emit_table, collect=False
    )

    # --- signatures (M1-M5) + candidates (J1) -----------------------------
    # NOTE: exact-dup members are NOT dropped before signatures anymore —
    # identical texts produce identical signatures and collapse into the
    # same bands; the per-band doc dedup in pair emission plus the sha
    # edges keep the result identical, while removing a blocking
    # dependency on the exact pass. The signature lineage stays LAZY: its
    # only consumer is the posting exchange, so blocks stream straight
    # from kernel to split tasks without a materialize barrier.
    signatures = compute_signatures(docs, cfg, keep_shingles=False)
    postings = band_postings(signatures, cfg)
    if use_simhash:
        postings = postings.union(simhash_postings(signatures, cfg))
    if collect_metrics:
        metrics["band_stats"] = band_size_stats(postings, cfg)
    tp0 = time.perf_counter()
    candidates = postings_to_pairs(postings, cfg).materialize()
    n_candidates = candidates.count()
    metrics["candidate_pairs"] = n_candidates
    metrics["t_postings_pairs"] = time.perf_counter() - tp0

    tw = time.perf_counter()
    exact_parts = [t for t in ray.get(exact_edge_refs) if t.num_rows]
    exact_edges = (
        pa.concat_tables(exact_parts)
        if exact_parts
        else pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    )
    metrics["exact_edges"] = exact_edges.num_rows
    t1 = time.perf_counter()
    # t_exact = residual WAIT for the (concurrently scheduled) exact
    # exchange after candidates finished — ~0 when fully overlapped;
    # t_sig_candidates = wall time of the overlapped stretch.
    metrics["t_exact"] = t1 - tw
    metrics["t_sig_candidates"] = t1 - t0

    # Drop candidate pairs touching an exact-dup *member*: the member's
    # representative has a byte-identical text, hence an identical
    # signature and identical band candidates, so every dropped pair is
    # mirrored by a rep pair — connectivity is preserved while the
    # verification workload shrinks by the exact-dup share.
    exact_members_arr = np.sort(
        exact_edges.column("b").to_numpy(zero_copy_only=False)
    )

    # --- containment fingerprint scan, overlapped with verification -------
    # The fingerprint explode only needs the docs minus EXACT-dup members
    # (known now); the near-dup members found by LSH are filtered out of
    # the posting rows AFTER clustering, before the pair exchange. Same
    # result as filtering docs up front (postings are per-doc), but the
    # expensive text scan overlaps the verify stage instead of following
    # the cluster barrier.
    cont_post_refs: list = []
    if containment:
        from raydedup.stages.containment import fingerprint_postings_table

        w_c, s_c = cfg.containment_window, cfg.containment_stride
        em_ref = ray.put(exact_members_arr)

        @ray.remote
        def _fp_block(em, t: pa.Table) -> pa.Table:
            if em.shape[0]:
                ids = t.column("doc_id").to_numpy(zero_copy_only=False)
                t = t.filter(pa.array(~np.isin(ids, em)))
            return fingerprint_postings_table(t, w_c, s_c)

        # fire-and-forget per-block scan tasks: Ray interleaves them with
        # the verification stage's tasks (overlap without driver threads)
        cont_post_refs = [_fp_block.remote(em_ref, r) for r in docs_block_refs]
    if exact_members_arr.shape[0] and n_candidates:
        import ray.data as rd

        cand_tbl = to_arrow_table(candidates)
        ca = cand_tbl.column("a").to_numpy(zero_copy_only=False)
        cb = cand_tbl.column("b").to_numpy(zero_copy_only=False)
        keep = ~(np.isin(ca, exact_members_arr) | np.isin(cb, exact_members_arr))
        cand_tbl = cand_tbl.filter(pa.array(keep))
        candidates = rd.from_arrow(cand_tbl)
        n_candidates = cand_tbl.num_rows
        metrics["candidate_pairs"] = n_candidates
    # --- verification (A1-A4 analog) --------------------------------------
    if n_candidates == 0:
        verified_tbl = pa.table(
            {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
             "jaccard": pa.array([], pa.float64())}
        )
    else:
        # adaptive: small candidate-doc sets verify via broadcast lookup
        # (no shuffle); big ones via the hash-partitioned join path
        pair_tbl = to_arrow_table(candidates.select_columns(["a", "b"]))
        pair_docs = np.unique(
            np.concatenate(
                [
                    pair_tbl.column("a").to_numpy(zero_copy_only=False),
                    pair_tbl.column("b").to_numpy(zero_copy_only=False),
                ]
            )
        )
        if pair_docs.shape[0] <= cfg.verify_broadcast_max_docs:
            metrics["verify_path"] = "broadcast"
            verified_tbl = to_arrow_table(
                verify_pairs_small(candidates, docs, cfg, pair_docs)
            )
        else:
            from raydedup.stages.verify import verify_pairs_exchange

            metrics["verify_path"] = "exchange"
            verified_tbl = verify_pairs_exchange(candidates, docs, cfg, pair_docs)
    t2 = time.perf_counter()
    metrics["t_candidates_verify"] = t2 - t1
    metrics["verified_pairs"] = verified_tbl.num_rows

    # --- secondary matcher: SimHash Hamming acceptance (A5) ---------------
    # The reference's histogram fallback accepts candidates the primary
    # matcher under-scores (``OlafStrategy.java:462-541``); here a
    # candidate pair whose 64-bit SimHashes are within
    # cfg.simhash_max_hamming is accepted even when its word-shingle
    # Jaccard fails tau (e.g. token-REORDERED near-dups: bag-of-words
    # identical, shingle sets disjoint). Simhash is recomputed for the
    # candidate docs only (a parallel map over the filtered subset —
    # the signature lineage stays lazy/single-consumer).
    hamming_edges = pa.table(
        {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}
    )
    if use_simhash and n_candidates:
        from raydedup.stages.signatures import SignatureKernel, hamming64

        ids_ref2 = ray.put(np.sort(pair_docs))

        def sim_subset(t: pa.Table) -> pa.Table:
            wanted = ray.get(ids_ref2)
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            t = t.filter(pa.array(np.isin(ids, wanted)))
            kern = _KERNELS.get((cfg, False))
            if kern is None:
                kern = _KERNELS[(cfg, False)] = SignatureKernel(cfg, keep_shingles=False)
            out = kern(t.select(["doc_id", "text"]))
            return out.select(["doc_id", "simhash"])

        sim_df = (
            docs.select_columns(["doc_id", "text"])
            .map_batches(sim_subset, batch_format="pyarrow")
            .to_pandas()
        )
        sim_ids = sim_df["doc_id"].to_numpy()
        sim_vals = sim_df["simhash"].to_numpy().astype(np.uint64)
        order = np.argsort(sim_ids, kind="stable")
        sim_ids, sim_vals = sim_ids[order], sim_vals[order]
        cand_tbl2 = to_arrow_table(candidates.select_columns(["a", "b"]))
        ca2 = cand_tbl2.column("a").to_numpy(zero_copy_only=False)
        cb2 = cand_tbl2.column("b").to_numpy(zero_copy_only=False)
        av = sim_vals[np.searchsorted(sim_ids, ca2)]
        bv = sim_vals[np.searchsorted(sim_ids, cb2)]
        ham = hamming64(av, bv)
        keep = ham <= cfg.simhash_max_hamming
        hamming_edges = cand_tbl2.filter(pa.array(keep))
        metrics["simhash_accepted"] = int(keep.sum())

    # --- clustering round 1: exact + verified LSH edges -------------------
    # components as two parallel arrays (member, root=component-min id):
    # the vectorized min-label kernel and array broadcast replace the
    # per-edge Python union-find + dict broadcast (both were fixed driver
    # seconds that did not shrink with cluster size)
    base_edges = pa.concat_tables(
        [
            verified_tbl.select(["a", "b"]),
            exact_edges.select(["a", "b"]),
            hamming_edges.select(["a", "b"]),
        ]
    )
    members, roots = cluster_edges_arrays(
        base_edges.column("a").to_numpy(zero_copy_only=False),
        base_edges.column("b").to_numpy(zero_copy_only=False),
    )
    t3 = time.perf_counter()
    metrics["t_cluster"] = t3 - t2

    # --- containment pass (W1 monitor-window analog) ----------------------
    # Runs over cluster REPRESENTATIVES + unclustered docs only (the
    # SURVEY §3.3 sweep): near-dup members share ~every fingerprint with
    # their representative, so sweeping all docs floods the fingerprint
    # shuffle with redundant pair rows. Containment links found between
    # reps/singletons are merged into the components in a second
    # union-find round (transitivity re-attaches the members).
    if containment:
        from raydedup.stages.containment import containment_pairs_from_postings

        # drop posting rows of NEAR-dup members (exact members were
        # filtered before the scan): only reps + unclustered docs sweep
        non_reps = members[members != roots]
        remaining = np.sort(np.setdiff1d(non_reps, exact_members_arr))
        postings_refs = cont_post_refs
        if remaining.shape[0]:
            nr_ref = ray.put(remaining)

            @ray.remote
            def _drop_non_reps(nr, t: pa.Table) -> pa.Table:
                ids = t.column("doc_id").to_numpy(zero_copy_only=False)
                return t.filter(pa.array(~np.isin(ids, nr)))

            postings_refs = [_drop_non_reps.remote(nr_ref, r) for r in cont_post_refs]
        tc0 = time.perf_counter()
        cont = containment_pairs_from_postings(postings_refs, cfg)
        cont_schema = pa.schema(
            [("a", pa.int64()), ("b", pa.int64()),
             ("shared", pa.int64()), ("coverage", pa.float64())]
        )
        containment_tbl = to_arrow_table(cont, empty_schema=cont_schema)
        metrics["t_cont_exchange"] = time.perf_counter() - tc0
        metrics["containment_pairs"] = containment_tbl.num_rows
        if containment_tbl.num_rows:
            # round 2: star edges (root -> member) + containment links
            members, roots = cluster_edges_arrays(
                np.concatenate(
                    [roots, containment_tbl.column("a").to_numpy(zero_copy_only=False)]
                ),
                np.concatenate(
                    [members, containment_tbl.column("b").to_numpy(zero_copy_only=False)]
                ),
            )
            metrics["t_cont_recluster"] = time.perf_counter() - tc0 - metrics["t_cont_exchange"]
    metrics["t_containment"] = time.perf_counter() - t3

    # --- exact substring pass (the north rule's suffix-array analog) ------
    # Same reps+singletons sweep as the winnowed containment pass, but
    # LOSSLESS: a Rabin-Karp window-index join finds every doc whose full
    # text occurs verbatim inside another's (stages/substring.py), with a
    # bytes-level verify removing hash collisions. Links merge as
    # (outer -> inner) edges in another union-find round.
    if substring:
        from raydedup.stages.substring import substring_pairs

        ts0 = time.perf_counter()
        non_reps_s = members[members != roots]
        excluded = np.unique(np.concatenate([non_reps_s, exact_members_arr]))
        sub_docs = docs
        if excluded.shape[0]:
            ex_ref = ray.put(excluded)

            def _drop_clustered(t: pa.Table) -> pa.Table:
                if t.num_rows == 0 or t.num_columns == 0:
                    return t
                ids = t.column("doc_id").to_numpy(zero_copy_only=False)
                return t.filter(pa.array(~np.isin(ids, ray.get(ex_ref))))

            sub_docs = docs.map_batches(_drop_clustered, batch_format="pyarrow")
        sub_tbl, sub_m = substring_pairs(sub_docs, min_len=cfg.substring_min_len)
        metrics["substring_candidates"] = sub_m["candidates"]
        metrics["substring_pairs"] = sub_tbl.num_rows
        if sub_tbl.num_rows:
            members, roots = cluster_edges_arrays(
                np.concatenate(
                    [roots, sub_tbl.column("outer_id").to_numpy(zero_copy_only=False)]
                ),
                np.concatenate(
                    [members, sub_tbl.column("inner_id").to_numpy(zero_copy_only=False)]
                ),
            )
        metrics["t_substring"] = time.perf_counter() - ts0

    metrics["n_dup_docs"] = int(members.shape[0])
    metrics["n_clusters"] = int(np.unique(roots).shape[0])
    clusters = assignments_table(docs, (members, roots))
    metrics["t_total"] = time.perf_counter() - t0

    return DedupResult(
        clusters=clusters,
        verified_pairs=verified_tbl,
        exact_edges=exact_edges,
        components=dict(zip(members.tolist(), roots.tolist())),
        metrics=metrics,
    )
