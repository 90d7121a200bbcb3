"""Line-level boilerplate dedup: find and strip lines shared across docs.

The C4/RefinedWeb-style curation pass between extraction and document
dedup: a line (newline-delimited segment, byte-exact — navigation menus,
cookie banners, copyright footers) occurring in >= ``min_docs`` distinct
documents is boilerplate; ``dedup_lines`` removes every occurrence and
``hot_lines`` lists the offenders with their distinct-doc counts.
This is the line-axis sibling of the k-gram pass in
``stages/passages.py`` (reference analog: the hot-hash tail
`strategy/panako/storage/PanakoStorageKV.java:381-467` surfaces as
statistics) with the same two-pass scale shape:

1. hash-only counting: per-batch distinct ``(line_hash, doc)`` partials
   (one lexsort, no strings leave the batch), ONE hash exchange sums
   distinct-doc counts, buckets filter ``>= min_docs``. The surviving
   hot set is the boilerplate head — small by construction, logged.
2. broadcast the sorted hot-hash array (``ray.put`` once); a stateless
   second pass drops hot lines / recovers hot strings per batch.

Empty lines are never counted or removed (they carry document
structure, not boilerplate), so the pass is whitespace-shape-preserving.
``dedup_lines`` streams: output is a Dataset, never collected.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

import ray
from ray.data import Dataset

from raydedup.hashing import hash_strings_u64
from raydedup.util import arrow_block_refs

logger = logging.getLogger(__name__)

U64 = np.uint64
I64 = np.int64

_PARTIAL_SCHEMA = pa.schema([("h", pa.int64()), ("nd_partial", pa.int64())])


def _batch_line_arrays(t: pa.Table):
    """batch -> (line values (pa.StringArray), doc index per line,
    per-doc line counts). Lines = byte-exact split on ``\\n``; an empty
    text is one empty line (Python ``"".split("\\n") == [""]``)."""
    import pyarrow.compute as pc

    col = t.column("text")
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    arr = pc.fill_null(arr, "")
    lists = pc.split_pattern(arr, "\n")
    offs = lists.offsets.to_numpy().astype(np.int64)
    vals = lists.values
    if offs[0] != 0 or len(vals) != offs[-1]:  # sliced ListArray guard
        vals = vals.slice(offs[0], offs[-1] - offs[0])
        offs = offs - offs[0]
    lens = np.diff(offs)
    doc_of = np.repeat(np.arange(lens.shape[0], dtype=np.int64), lens)
    return vals, doc_of, lens


def _count_partial(t: pa.Table) -> pa.Table:
    """Per-batch combiner: distinct-doc partial count per non-empty
    line hash (one lexsort over (hash, doc) — no per-line Python)."""
    import pyarrow.compute as pc

    vals, doc_of, _ = _batch_line_arrays(t)
    if len(vals) == 0:
        return _PARTIAL_SCHEMA.empty_table()
    keep = pc.not_equal(vals, "").to_numpy(zero_copy_only=False)
    if not keep.any():
        return _PARTIAL_SCHEMA.empty_table()
    kept = vals.filter(pa.array(keep))
    h = hash_strings_u64(kept.to_numpy(zero_copy_only=False))
    d = doc_of[keep]
    order = np.lexsort((d, h))
    hs, ds = h[order], d[order]
    new_pair = np.empty(hs.shape[0], dtype=bool)
    new_pair[0] = True
    new_pair[1:] = (hs[1:] != hs[:-1]) | (ds[1:] != ds[:-1])
    hu = hs[new_pair]
    new_h = np.empty(hu.shape[0], dtype=bool)
    new_h[0] = True
    new_h[1:] = hu[1:] != hu[:-1]
    starts = np.flatnonzero(new_h)
    cnt = np.diff(np.append(starts, hu.shape[0]))
    return pa.table(
        {
            "h": pa.array(hu[starts].view(I64), pa.int64()),
            "nd_partial": pa.array(cnt.astype(I64), pa.int64()),
        }
    )


def _hot_hash_table(docs: Dataset, min_docs: int) -> pa.Table:
    """ONE hash exchange: (h, n_docs) for lines in >= min_docs docs."""
    from raydedup.stages.exchange import hash_exchange_apply

    partials = docs.map_batches(_count_partial, batch_format="pyarrow")

    def reduce_bucket(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if t.num_rows == 0:
            return pa.table(
                {"h": pa.array([], pa.int64()), "n_docs": pa.array([], pa.int64())}
            )
        g = t.group_by("h").aggregate([("nd_partial", "sum")])
        g = g.rename_columns(["h", "n_docs"])
        return g.filter(pc.greater_equal(g.column("n_docs"), min_docs)).cast(
            pa.schema([("h", pa.int64()), ("n_docs", pa.int64())])
        )

    hot = hash_exchange_apply(partials, "h", reduce_bucket)
    logger.info("lines: %d hot lines with n_docs >= %d", hot.num_rows, min_docs)
    return hot


def hot_lines(docs: Dataset, min_docs: int = 2, limit: int | None = None) -> pa.Table:
    """docs(doc_id, text) -> (line, n_docs): every non-empty byte-exact
    line occurring in >= ``min_docs`` distinct documents, ordered
    (n_docs DESC, line ASC); ``limit`` truncates after full counting.

    The result is the boilerplate head — small by construction; it is
    collected to the driver and its size logged."""
    import pyarrow.compute as pc

    docs = docs.select_columns(["doc_id", "text"]).materialize()
    hot = _hot_hash_table(docs, min_docs)
    out_schema = pa.schema([("line", pa.large_string()), ("n_docs", pa.int64())])
    if hot.num_rows == 0:
        return out_schema.empty_table()

    hot_sorted = np.sort(hot.column("h").to_numpy(zero_copy_only=False).view(U64))
    hot_ref = ray.put(hot_sorted)

    def recover(t: pa.Table) -> pa.Table:
        hs = ray.get(hot_ref)
        vals, _, _ = _batch_line_arrays(t)
        empty = pa.table({"h": pa.array([], pa.int64()), "line": pa.array([], pa.large_string())})
        if len(vals) == 0:
            return empty
        keep = pc.not_equal(vals, "").to_numpy(zero_copy_only=False)
        if not keep.any():
            return empty
        kept = vals.filter(pa.array(keep))
        h = hash_strings_u64(kept.to_numpy(zero_copy_only=False))
        idx = np.searchsorted(hs, h)
        inhot = (idx < hs.shape[0]) & (hs[np.minimum(idx, hs.shape[0] - 1)] == h)
        pos = np.flatnonzero(inhot)
        if pos.shape[0] == 0:
            return empty
        _, first = np.unique(h[pos], return_index=True)
        pos = pos[first]
        return pa.table(
            {
                "h": pa.array(h[pos].view(I64), pa.int64()),
                "line": pc.cast(kept.take(pa.array(pos)), pa.large_string()),
            }
        )

    parts = [
        b
        for b in ray.get(arrow_block_refs(docs.map_batches(recover, batch_format="pyarrow")))
        if b.num_columns and b.num_rows
    ]
    rec = pa.concat_tables(parts)
    rh = rec.column("h").to_numpy(zero_copy_only=False).view(U64)
    rl = rec.column("line").to_numpy(zero_copy_only=False)
    _, first = np.unique(rh, return_index=True)
    smap = dict(zip(rh[first].tolist(), rl[first].tolist()))

    hh = hot.column("h").to_numpy(zero_copy_only=False).view(U64)
    nd = hot.column("n_docs").to_numpy(zero_copy_only=False)
    ls = np.array([smap[x] for x in hh.tolist()], dtype=object)
    order = np.lexsort((ls, -nd))
    if limit is not None:
        order = order[:limit]
    return pa.table(
        {
            "line": pa.array(ls[order], pa.large_string()),
            "n_docs": pa.array(nd[order], pa.int64()),
        }
    )


def dedup_lines(docs: Dataset, min_docs: int = 2) -> Dataset:
    """docs(doc_id, text) -> (doc_id, text, n_lines, n_removed):
    every occurrence of a non-empty line appearing in >= ``min_docs``
    distinct documents is removed; surviving lines are rejoined with
    ``\\n`` in original order. Streams — one counting exchange, then a
    stateless broadcast-filter pass (output is a Dataset)."""
    import pyarrow.compute as pc

    docs = docs.select_columns(["doc_id", "text"]).materialize()
    hot = _hot_hash_table(docs, min_docs)
    hot_sorted = np.sort(hot.column("h").to_numpy(zero_copy_only=False).view(U64))
    hot_ref = ray.put(hot_sorted)

    def strip(t: pa.Table) -> pa.Table:
        hs = ray.get(hot_ref)
        vals, doc_of, lens = _batch_line_arrays(t)
        n_docs = lens.shape[0]
        n_lines = lens.astype(I64)
        if len(vals) and hs.shape[0]:
            keep = pc.not_equal(vals, "").to_numpy(zero_copy_only=False)
            h = np.zeros(len(vals), dtype=U64)
            if keep.any():
                h[keep] = hash_strings_u64(
                    vals.filter(pa.array(keep)).to_numpy(zero_copy_only=False)
                )
            idx = np.searchsorted(hs, h)
            inhot = (
                keep
                & (idx < hs.shape[0])
                & (hs[np.minimum(idx, hs.shape[0] - 1)] == h)
            )
            n_removed = np.bincount(doc_of[inhot], minlength=n_docs).astype(I64)
            survive = ~inhot
            new_vals = vals.filter(pa.array(survive))
            new_lens = n_lines - n_removed
        else:
            n_removed = np.zeros(n_docs, dtype=I64)
            new_vals = vals
            new_lens = n_lines
        offs = np.zeros(n_docs + 1, dtype=np.int32)
        offs[1:] = np.cumsum(new_lens)
        lists = pa.ListArray.from_arrays(pa.array(offs, pa.int32()), new_vals)
        joined = pc.binary_join(lists, pa.scalar("\n", type=new_vals.type))
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "text": pc.cast(joined, pa.large_string()),
                "n_lines": pa.array(n_lines, pa.int64()),
                "n_removed": pa.array(n_removed, pa.int64()),
            }
        )

    return docs.map_batches(strip, batch_format="pyarrow")
