"""Shared kernels of the dedup engine (pipelines/dedup_scale.py).

- exact dedup: ``sha_key_table`` keys each doc by a 64-bit prefix of its
  text digest, ``sha_emit_table`` turns one hash bucket into (group
  min, member) edges (``Deduplication.java:66-88``), and
  ``exact_dedup_edges`` runs the pair over a Dataset;
- signatures: ``_kernel`` is the per-process cached MinHash + SimHash
  kernel (``OlafEventPointProcessor.java`` et al.), ``_signature_fn``
  calls it, and ``compute_signatures`` maps that over a Dataset (one
  ``map_batches`` of stateless tasks, ``cfg.batch_size`` rows a call).
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from raydedup.config import DedupConfig
from raydedup.stages.signatures import SignatureKernel


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


def _kernel(cfg: DedupConfig, keep_shingles: bool) -> SignatureKernel:
    # per-worker-process kernel cache: permutation tables + word-hash cache
    # built once per process, reused across task invocations (stateless-task
    # variant of the actor-pool pattern)
    key = (cfg, keep_shingles)
    kernel = _KERNELS.get(key)
    if kernel is None:
        kernel = _KERNELS[key] = SignatureKernel(cfg, keep_shingles=keep_shingles)
    return kernel


def _signature_fn(batch: pa.Table, cfg: DedupConfig, keep_shingles: bool) -> pa.Table:
    return _kernel(cfg, keep_shingles)(batch)


def compute_signatures(
    docs: Dataset, cfg: DedupConfig, keep_shingles: bool = True
) -> Dataset:
    return docs.select_columns(["doc_id", "text"]).map_batches(
        _signature_fn,
        batch_format="pyarrow",
        batch_size=cfg.batch_size,
        fn_kwargs={"cfg": cfg, "keep_shingles": keep_shingles},
    )
