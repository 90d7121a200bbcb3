"""Edit-distance (Levenshtein) pair verification — the fuzzy matcher.

The third verification family next to exact-Jaccard (`stages/verify.py`)
and SimHash-Hamming (reference analog: the fallback matcher chain,
`strategy/olaf/OlafStrategy.java:462-541`): for an already-generated
candidate pair set, compute the byte-level Levenshtein distance and a
normalized similarity ``sim = 1 - dist / max(len_a, len_b)``. Edit
distance catches small in-place edits (typo farms, template fills) that
shingle Jaccard under-scores and SimHash blurs.

Distances are computed over UTF-8 BYTES, matching DuckDB's
``levenshtein`` (byte-based, verified: naïve→naive = 2) so the oracle
is bit-comparable; the one division for ``sim`` is raw IEEE.

Scale shape: candidate pairs are output-bounded (post-LSH, post-gate);
the pair docs' texts are semi-join-filtered and broadcast ONCE as three
flat numpy arrays (sorted ids, byte offsets, utf-8 bytes) — plasma
serves numpy buffers zero-copy to every task, so no task deserializes
its own copy of the texts. Per-pair work is an O(min_len) loop of
vectorized numpy row updates (the DP row, including the insertion
prefix-min, is computed with whole-row kernels — no per-cell Python).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
from ray.data import Dataset

from raydedup.util import arrow_block_refs, cluster_cpus

I64 = np.int64

_OUT_SCHEMA = pa.schema(
    [("a", pa.int64()), ("b", pa.int64()), ("dist", pa.int64()), ("sim", pa.float64())]
)


def levenshtein_bytes(a: np.ndarray, b: np.ndarray) -> int:
    """Unit-cost Levenshtein distance between two uint8 arrays.

    Row DP with whole-row numpy kernels: substitution/deletion are
    elementwise minima over the previous row; the insertion recurrence
    ``cur[j] = min(cur[j], cur[j-1]+1)`` is the prefix-min identity
    ``min_{j'<=j}(cur[j'] + (j-j'))`` computed as
    ``minimum.accumulate(cur - j) + j``."""
    n, m = a.shape[0], b.shape[0]
    if n == 0:
        return m
    if m == 0:
        return n
    if m > n:  # iterate over the longer string, keep the row short
        a, b, n, m = b, a, m, n
    idx = np.arange(m + 1, dtype=I64)
    prev = idx.copy()
    cur = np.empty(m + 1, dtype=I64)
    for i in range(n):
        np.minimum(prev[:-1] + (b != a[i]), prev[1:] + 1, out=cur[1:])
        cur[0] = i + 1
        np.subtract(cur, idx, out=cur)
        np.minimum.accumulate(cur, out=cur)
        np.add(cur, idx, out=cur)
        prev, cur = cur, prev
    return int(prev[-1])


@ray.remote(num_returns=3)
def _pack_text_broadcast(*tables: pa.Table):
    """Concat + doc_id-sort + flatten candidate (doc_id, text) blocks
    into (sorted ids, byte offsets, utf-8 bytes). Runs as a task so the
    bytes never visit the driver."""
    nonempty = [t for t in tables if t.num_columns and t.num_rows]
    if not nonempty:
        return (
            np.empty(0, dtype=I64),
            np.zeros(1, dtype=I64),
            np.empty(0, dtype=np.uint8),
        )
    subset = pa.concat_tables(nonempty)
    order = pa.compute.sort_indices(subset, sort_keys=[("doc_id", "ascending")])
    subset = subset.take(order).combine_chunks()
    ids_sorted = np.ascontiguousarray(
        subset.column("doc_id").to_numpy(zero_copy_only=False)
    )
    texts = subset.column("text").to_numpy(zero_copy_only=False)
    bufs = [t.encode("utf-8") for t in texts]
    lens = np.fromiter((len(x) for x in bufs), dtype=I64, count=len(bufs))
    offs = np.zeros(lens.shape[0] + 1, dtype=I64)
    np.cumsum(lens, out=offs[1:])
    data = np.frombuffer(b"".join(bufs), dtype=np.uint8)
    return ids_sorted, offs, data


def fuzzy_pairs(
    pairs: Dataset,
    docs: Dataset,
    pair_doc_ids: np.ndarray,
    *,
    min_sim: float = 0.0,
) -> Dataset:
    """pairs(a, b) x docs(doc_id, text) -> (a, b, dist, sim) per pair,
    keeping ``sim >= min_sim``. Streams: output is a Dataset; the only
    materialized state is the pair docs' text broadcast (output-bounded
    candidate set — the documented assumption of this module).
    """
    ids_ref = ray.put(np.sort(np.asarray(pair_doc_ids, dtype=I64)))

    def keep_texts(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        wanted = ray.get(ids_ref)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(np.isin(ids, wanted)))
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "text": pc.cast(
                    pc.fill_null(t.column("text"), ""), pa.large_string()
                ),
            }
        )

    text_blocks = list(
        arrow_block_refs(
            docs.select_columns(["doc_id", "text"])
            .map_batches(keep_texts, batch_format="pyarrow")
        )
    )
    bids_ref, offs_ref, data_ref = _pack_text_broadcast.remote(*text_blocks)

    def score_batch(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or t.num_rows == 0:
            return _OUT_SCHEMA.empty_table()
        bids = ray.get(bids_ref)
        boffs = ray.get(offs_ref)
        bdata = ray.get(data_ref)

        def tbytes(d: int) -> np.ndarray:
            i = int(np.searchsorted(bids, d))
            return bdata[boffs[i] : boffs[i + 1]]

        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        dist = np.empty(a.shape[0], dtype=I64)
        sim = np.empty(a.shape[0], dtype=np.float64)
        for i in range(a.shape[0]):
            xa, xb = tbytes(int(a[i])), tbytes(int(b[i]))
            d = levenshtein_bytes(xa, xb)
            dist[i] = d
            denom = max(xa.shape[0], xb.shape[0])
            sim[i] = 1.0 - d / denom if denom else 1.0
        out = pa.table(
            {
                "a": pa.array(a.astype(I64), pa.int64()),
                "b": pa.array(b.astype(I64), pa.int64()),
                "dist": pa.array(dist, pa.int64()),
                "sim": pa.array(sim, pa.float64()),
            }
        )
        if min_sim > 0.0:
            out = out.filter(pa.compute.greater_equal(out.column("sim"), min_sim))
        return out

    work = pairs.select_columns(["a", "b"])
    n_rows = work.count()
    target = int(min(2 * cluster_cpus(), max(1, n_rows // 64)))
    if target > 1:
        work = work.repartition(target)
    return work.map_batches(score_batch, batch_format="pyarrow")
