"""Passage-level near-dedup: the flagship MinHash-LSH pipeline run over
fixed token windows instead of whole documents, plus the scrub pass
that reassembles each document from its surviving passages.

Whole-document dedup misses templated pages that interleave one copied
passage with unique filler (the RefinedWeb / CCNet motivation for
sub-document dedup). This operator reuses two green stages end-to-end:

1. ``chunk_documents`` (stages/chunking.py) segments every doc into
   whitespace-normalized ``chunk_tokens``-token windows — row-local,
   streams.
2. Each chunk becomes a passage row ``(pid, text, text_sha256)`` with
   ``pid = doc_id * PASSAGE_CAP + chunk_id`` (a reversible composite
   key, no extra id-assignment shuffle), and the UNCHANGED flagship
   dedup engine (``run_dedup_auto``, pipelines/dedup_scale.py — exact
   sha pass + LSH candidates + exact-Jaccard verify + containment +
   connected components) clusters the passages. Reference analog: the same fingerprint/query kernel the
   reference applies to whole recordings applies to extracted segments
   (``strategy/panako/PanakoStrategy.java`` query-over-slice path,
   ``cli/Monitor.java:66-120`` windowed matching).
3. ``scrub_passages`` keeps exactly the cluster representatives (the
   component-min pid — every cluster keeps one copy, so unique passages
   always survive) and reassembles ``doc_id -> text`` by joining the
   surviving chunks in chunk order. Two hash exchanges total (pid join,
   doc_id regroup); in-bucket work is lexsort + run arithmetic +
   ``pc.binary_join`` — no per-row Python.

Scale shape: passage count is ~``total_tokens / chunk_tokens`` — larger
than the doc count but produced and consumed streaming; the dedup core
is the flagship's (bucketed posting exchanges with combiners, sharded
union-find), so no stage materializes the corpus on the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from raydedup.config import DedupConfig
from raydedup.stages.chunking import chunk_documents
from raydedup.stages.extract import sha256_of_utf8_array

I64 = np.int64

# chunk_id headroom per document: pid = doc_id * PASSAGE_CAP + chunk_id.
# 2^20 chunks/doc at 32 tokens/chunk = 33M tokens per doc before overflow;
# the guard below fails loudly rather than aliasing pids.
PASSAGE_CAP = 1 << 20

_PASSAGE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("text", pa.large_string()),
        ("text_sha256", pa.binary()),
    ]
)

_CLUSTER_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("chunk_id", pa.int64()),
        ("cluster_id", pa.int64()),
        ("is_representative", pa.bool_()),
    ]
)

_KEPT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("chunk_id", pa.int64()),
        ("text_chunk", pa.large_string()),
    ]
)

_SCRUB_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("text", pa.large_string()),
        ("n_chunks_kept", pa.int64()),
    ]
)


def _pid_batch(t: pa.Table) -> pa.Table:
    """(doc_id, chunk_id, text_chunk) -> passage docs table for the
    dedup engine: composite pid as doc_id, chunk text as text."""
    if t.num_rows == 0 or t.num_columns == 0:
        return _PASSAGE_SCHEMA.empty_table()
    ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
    cid = t.column("chunk_id").to_numpy(zero_copy_only=False).astype(I64)
    if cid.size and int(cid.max()) >= PASSAGE_CAP:
        raise ValueError(
            f"chunk_id {int(cid.max())} >= PASSAGE_CAP {PASSAGE_CAP}; "
            "raise PASSAGE_CAP or chunk_tokens"
        )
    txt = t.column("text_chunk")
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    return pa.table(
        {
            "doc_id": pa.array(ids * PASSAGE_CAP + cid, pa.int64()),
            "text": txt.cast(pa.large_string()),
            "text_sha256": sha256_of_utf8_array(txt),
        }
    )


def passage_docs(docs: Dataset, chunk_tokens: int = 32) -> Dataset:
    """docs(doc_id, text) -> passage rows shaped like a docs table
    (doc_id=pid, text, text_sha256); empty docs yield no passages."""
    return chunk_documents(docs, chunk_tokens=chunk_tokens).map_batches(
        _pid_batch, batch_format="pyarrow"
    )


def _unpack_clusters(t: pa.Table) -> pa.Table:
    if t.num_rows == 0 or t.num_columns == 0:
        return _CLUSTER_SCHEMA.empty_table()
    pid = t.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
    return pa.table(
        {
            "doc_id": pa.array(pid // PASSAGE_CAP, pa.int64()),
            "chunk_id": pa.array(pid % PASSAGE_CAP, pa.int64()),
            "cluster_id": t.column("cluster_id").cast(pa.int64()),
            "is_representative": t.column("is_representative").cast(pa.bool_()),
        }
    )


def run_passage_dedup(
    docs: Dataset,
    cfg: DedupConfig | None = None,
    *,
    chunk_tokens: int = 32,
    containment: bool = True,
) -> Dataset:
    """Flagship dedup over passages -> (doc_id, chunk_id, cluster_id,
    is_representative); cluster_id is the component-min pid."""
    from raydedup.pipelines.dedup_scale import run_dedup_auto

    passages = passage_docs(docs, chunk_tokens).materialize()
    res = run_dedup_auto(passages, cfg or DedupConfig(), containment=containment)
    if not res.metrics.get("n_docs"):
        # all-empty blocks skip map UDFs (Ray 2.49) -> force typed empty
        import ray.data as rd

        return rd.from_arrow(_CLUSTER_SCHEMA.empty_table())
    return res.clusters.map_batches(_unpack_clusters, batch_format="pyarrow")


def _keep_kernel(chunks: pa.Table, keep: pa.Table) -> pa.Table:
    """Per-pid bucket: keep chunk rows whose pid is in the keep set."""
    if (
        chunks.num_rows == 0
        or chunks.num_columns == 0
        or keep.num_rows == 0
        or keep.num_columns == 0
    ):
        return _KEPT_SCHEMA.empty_table()
    pl = chunks.column("pid").to_numpy(zero_copy_only=False).astype(I64)
    pr = np.sort(keep.column("pid").to_numpy(zero_copy_only=False).astype(I64))
    pos = np.searchsorted(pr, pl)
    pos[pos == pr.shape[0]] = 0
    mask = pr[pos] == pl
    return chunks.filter(pa.array(mask)).select(
        ["doc_id", "chunk_id", "text_chunk"]
    )


def _assemble_kernel(t: pa.Table) -> pa.Table:
    """Per-doc bucket: rejoin surviving chunks in chunk order with a
    single space (the chunker's own separator)."""
    import pyarrow.compute as pc

    if t.num_rows == 0 or t.num_columns == 0:
        return _SCRUB_SCHEMA.empty_table()
    ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
    cid = t.column("chunk_id").to_numpy(zero_copy_only=False).astype(I64)
    order = np.lexsort((cid, ids))
    ids = ids[order]
    txt = t.column("text_chunk")
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    txt = txt.cast(pa.large_string()).take(pa.array(order))
    first = np.empty(ids.shape[0], dtype=bool)
    first[0] = True
    first[1:] = ids[1:] != ids[:-1]
    starts = np.flatnonzero(first)
    offsets = np.append(starts, ids.shape[0]).astype(np.int64)
    lists = pa.LargeListArray.from_arrays(pa.array(offsets, pa.int64()), txt)
    joined = pc.binary_join(lists, pa.scalar(" ", pa.large_string()))
    return pa.table(
        {
            "doc_id": pa.array(ids[starts], pa.int64()),
            "text": joined,
            "n_chunks_kept": pa.array(np.diff(offsets), pa.int64()),
        }
    )


def _chunks_with_pid(t: pa.Table) -> pa.Table:
    if t.num_rows == 0 or t.num_columns == 0:
        return pa.schema(
            [
                ("pid", pa.int64()),
                ("doc_id", pa.int64()),
                ("chunk_id", pa.int64()),
                ("text_chunk", pa.large_string()),
            ]
        ).empty_table()
    ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
    cid = t.column("chunk_id").to_numpy(zero_copy_only=False).astype(I64)
    txt = t.column("text_chunk")
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    return pa.table(
        {
            "pid": pa.array(ids * PASSAGE_CAP + cid, pa.int64()),
            "doc_id": pa.array(ids, pa.int64()),
            "chunk_id": pa.array(cid, pa.int64()),
            "text_chunk": txt.cast(pa.large_string()),
        }
    )


def _rep_pids(t: pa.Table) -> pa.Table:
    if t.num_rows == 0 or t.num_columns == 0:
        return pa.schema([("pid", pa.int64())]).empty_table()
    rep = t.column("is_representative").to_numpy(zero_copy_only=False)
    pid = t.column("doc_id").cast(pa.int64())
    return pa.table({"pid": pid}).filter(pa.array(rep.astype(bool)))


def scrub_passages(
    docs: Dataset,
    cfg: DedupConfig | None = None,
    *,
    chunk_tokens: int = 32,
    containment: bool = True,
) -> Dataset:
    """Near-dup passage removal: dedup passages, keep only each
    cluster's representative (unique passages are their own reps, so
    they always survive), reassemble docs from the kept chunks.
    Documents whose every chunk was scrubbed are dropped. Returns
    (doc_id, text, n_chunks_kept), streaming via bucket refs."""
    from raydedup.pipelines.dedup_scale import run_dedup_auto
    from raydedup.stages.exchange import (
        hash_exchange_apply,
        hash_exchange_join,
        refs_to_dataset,
    )

    chunks = chunk_documents(docs, chunk_tokens=chunk_tokens).materialize()
    res = run_dedup_auto(
        chunks.map_batches(_pid_batch, batch_format="pyarrow").materialize(),
        cfg or DedupConfig(),
        containment=containment,
    )
    keep = res.clusters.map_batches(_rep_pids, batch_format="pyarrow")
    kept_refs = hash_exchange_join(
        chunks.map_batches(_chunks_with_pid, batch_format="pyarrow"),
        keep,
        "pid",
        "pid",
        _keep_kernel,
    )
    out_refs = hash_exchange_apply(
        kept_refs, "doc_id", _assemble_kernel, collect=False
    )
    return refs_to_dataset(out_refs, _SCRUB_SCHEMA)
