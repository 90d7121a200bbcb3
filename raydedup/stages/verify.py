"""Verification: candidate pairs -> verified pairs by exact Jaccard.

Transplant of Panako's per-candidate verification chain (min-support
filter -> sort hits -> head/tail mode-of-deltaT -> slope/inlier gates ->
coverage >= 0.2; ``OlafStrategy.java:331-453``). For text the "one
coherent alignment" check collapses to exact Jaccard between the two
docs' shingle sets with threshold tau, optionally OR a SimHash Hamming
gate (the reference's histogram-fallback secondary matcher,
``OlafStrategy.java:462-541``).

One shape: two hash-exchange join rounds over packed shingle sets
(``make_attach_a`` then ``make_attach_b_verify``) — the dedup engine's
and ``verify_pairs_exchange``'s path. Matching against stored index
files (``query_index`` and the increment) scores the pairs inside one
task per stored docs file instead (``pipelines/query._verify_wave``),
with the same packed-set kernels.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from raydedup.config import DedupConfig

I64 = np.int64


def jaccard_sorted(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Jaccard of two sorted unique arrays.

    Measured (round 3): the per-PAIR numpy loop over this kernel beats
    every batch formulation tried at LSH-candidate shapes (5k pairs x
    150-600-element sets): a whole-batch (pid, value) lexsort +
    duplicate count ran 17x SLOWER (np.lexsort over 3.7M u64), a
    vectorized placement variant 4x slower, and a per-pair
    searchsorted-membership variant ~1.2x slower at both small and
    5k-element set sizes — np.intersect1d(assume_unique) is already a
    C-level concat+sort with tiny constants. Keep the loop: it is
    per-CANDIDATE (LSH-pruned), not per-row."""
    inter = np.intersect1d(a, b, assume_unique=True).shape[0]
    union = a.shape[0] + b.shape[0] - inter
    return inter / union if union else 1.0


import ray as _ray


def pack_sets(*tables: pa.Table):
    """Concat + doc_id-sort + flatten ``(doc_id, n, shingles)`` blocks
    into three flat numpy arrays (sorted ids, offsets, packed data)."""
    nonempty = [t for t in tables if t.num_rows]
    if not nonempty:
        return (
            np.empty(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.uint64),
        )
    subset = pa.concat_tables(nonempty)
    order = pa.compute.sort_indices(subset, sort_keys=[("doc_id", "ascending")])
    subset = subset.take(order).combine_chunks()
    ids_sorted = np.ascontiguousarray(
        subset.column("doc_id").to_numpy(zero_copy_only=False)
    )
    lens = subset.column("n").to_numpy(zero_copy_only=False)
    sh_col = subset.column("shingles")
    if isinstance(sh_col, pa.ChunkedArray):
        sh_col = sh_col.combine_chunks()
    flat_all = sh_col.flatten().to_numpy(zero_copy_only=False).view(np.uint64)
    offs = np.zeros(lens.shape[0] + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    return ids_sorted, offs, np.ascontiguousarray(flat_all)


# pack_sets as a task, so the bytes never visit the driver; plasma
# serves the numpy results zero-copy to every verify task
_pack_shingle_broadcast = _ray.remote(pack_sets)


def packed_shingle_table(docs_tbl: pa.Table, cfg: DedupConfig) -> pa.Table:
    """(doc_id, text) bucket -> (doc_id, shingles) where ``shingles`` is
    the doc's sorted unique shingle-hash set packed as little-endian
    uint64 bytes, computed with the VECTORIZED batch front half (Arrow
    split + dictionary hash + one global rolling pass) — never per-doc
    Python tokenization."""
    from raydedup.stages.signatures import batch_shingle_sets

    if docs_tbl.num_rows == 0:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "shingles": pa.array([], pa.large_binary())}
        )
    col = docs_tbl.column("text")
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    sets = batch_shingle_sets(arr, cfg)
    return pa.table(
        {
            "doc_id": docs_tbl.column("doc_id").cast(pa.int64()),
            "shingles": pa.array([s.tobytes() for s in sets], type=pa.large_binary()),
        }
    )


def lookup_packed(packed: pa.Table, keys: np.ndarray) -> tuple[pa.Array, np.ndarray]:
    """Gather ``packed["shingles"]`` rows by doc_id via sort + searchsorted.
    Returns (values, found_mask): a key absent from the bucket gets an
    arbitrary row and ``found[i] = False`` — callers DROP those pairs
    (a doc excluded from the shingle demand, e.g. an exact-dup member
    whose pairs are mirrored by its representative's)."""
    ids = packed.column("doc_id").to_numpy(zero_copy_only=False)
    if ids.shape[0] == 0:
        return (
            pa.nulls(keys.shape[0], packed.schema.field("shingles").type),
            np.zeros(keys.shape[0], dtype=bool),
        )
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    pos = np.clip(np.searchsorted(sorted_ids, keys), 0, ids.shape[0] - 1)
    found = sorted_ids[pos] == keys
    col = packed.column("shingles")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.take(pa.array(order[pos].astype(np.int64))), found


def _jaccard_packed(sa: list, sb: list) -> np.ndarray:
    jac = np.empty(len(sa), dtype=np.float64)
    for i in range(len(sa)):
        jac[i] = jaccard_sorted(
            np.frombuffer(sa[i], dtype=np.uint64), np.frombuffer(sb[i], dtype=np.uint64)
        )
    return jac


def make_attach_a():
    """Bucket kernel: pairs(a, b, ...) x packed(doc_id, shingles) ->
    (a, b, shingles_a) via vectorized gather."""

    def attach_a(left: pa.Table, right: pa.Table) -> pa.Table:
        if left.num_rows == 0:
            return pa.table(
                {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                 "shingles_a": pa.array([], pa.large_binary())}
            )
        a = left.column("a").to_numpy(zero_copy_only=False)
        sha, found = lookup_packed(right, a)
        out = pa.table({"a": left.column("a"), "b": left.column("b"), "shingles_a": sha})
        return out if found.all() else out.filter(pa.array(found))

    return attach_a


def make_attach_b_verify(tau: float):
    """Bucket kernel: (a, b, shingles_a) x packed(doc_id, shingles) ->
    verified (a, b, jaccard) with jaccard >= tau."""

    def attach_b_and_verify(left: pa.Table, right: pa.Table) -> pa.Table:
        if left.num_rows == 0:
            return pa.table(
                {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                 "jaccard": pa.array([], pa.float64())}
            )
        b = left.column("b").to_numpy(zero_copy_only=False)
        shb, found = lookup_packed(right, b)
        if not found.all():
            left = left.filter(pa.array(found))
            shb = shb.filter(pa.array(found))
        jac = _jaccard_packed(left.column("shingles_a").to_pylist(), shb.to_pylist())
        out = pa.table(
            {
                "a": left.column("a"),
                "b": left.column("b"),
                "jaccard": pa.array(jac, type=pa.float64()),
            }
        )
        return out.filter(pa.array(jac >= tau))

    return attach_b_and_verify


def verify_pairs_exchange(
    pairs: Dataset,
    docs: Dataset,
    cfg: DedupConfig,
    pair_doc_ids: np.ndarray,
    num_buckets: int | None = None,
) -> pa.Table:
    """Scale-path verification: two hash-exchange join rounds over the
    candidate docs' packed shingle sets.

    Docs are semi-join-filtered to ids appearing in any pair (ids
    broadcast — ids only, not payloads) and their shingle sets computed
    ONCE with the vectorized batch kernel during the filter map; the
    packed sets are split on doc_id once and the bucket refs reused by
    both join rounds (keys ``a`` and ``b`` both address doc_id buckets).
    Raw text never enters an exchange; per-pair work is a searchsorted
    gather plus one sorted-set intersection."""
    import ray

    from raydedup.stages.exchange import default_buckets, reduce_wave, split_dataset

    ids_ref = ray.put(np.sort(pair_doc_ids))

    def keep_and_shingle(t: pa.Table) -> pa.Table:
        wanted = ray.get(ids_ref)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return packed_shingle_table(t.filter(pa.array(np.isin(ids, wanted))), cfg)

    doc_packed = (
        docs.select_columns(["doc_id", "text"])
        .map_batches(keep_and_shingle, batch_format="pyarrow")
        .materialize()
    )

    if num_buckets is None:
        num_buckets = default_buckets()
    dsplit = split_dataset(doc_packed, "doc_id", num_buckets)
    psplit = split_dataset(pairs.select_columns(["a", "b"]), "a", num_buckets)
    # round 1's reduce tasks re-split their output on ``b`` in-task
    # (fused), so round 2 consumes the pieces without a split wave
    r1 = reduce_wave(psplit, make_attach_a(), num_buckets, right=dsplit, out_key="b")
    r2 = reduce_wave(r1, make_attach_b_verify(cfg.jaccard_tau), num_buckets, right=dsplit)
    parts = [t for t in ray.get(r2) if t.num_rows]
    if not parts:
        return pa.table(
            {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
             "jaccard": pa.array([], pa.float64())}
        )
    return pa.concat_tables(parts)
