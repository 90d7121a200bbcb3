"""Hot-passage (boilerplate k-gram) detection over the whole corpus.

The corpus-statistics surface (``cli/Stats.java`` scans the index for
per-resource fingerprint counts; ``PanakoStorageKV.java:381-467``) turned
around: instead of asking "how many fingerprints does each doc have",
ask "which FINGERPRINTS occur in many docs" — the hot band keys the
dedup pipeline's ``max_band_postings`` cap drops are exactly these.
Surfacing them as readable token k-grams is the boilerplate-discovery
pass a training-data pipeline runs before dedup (nav bars, cookie
banners, license headers) so they can be stripped or allow-listed.

Scale shape (two passes, one exchange, no strings in the shuffle):

1. **Count pass**: per batch, each doc's DISTINCT shingle hashes
   (vectorized Arrow split + dictionary FNV + one global rolling pass —
   the signature stage's front half), collapsed to per-batch partial
   ``(hash, n_docs)`` counts (the combiner). ONE hash exchange on the
   64-bit shingle hash sums partials and filters ``n_docs >= min_docs``.
   Only 16-byte rows ever cross the wire; the surviving hot set is by
   definition small (it is the skew tail).
2. **Recovery pass**: the hot hash set is broadcast (``ray.put`` once,
   read per task) and a second sweep over the docs recovers the actual
   lowered token string for each hot hash (first occurrence; hash ->
   string is 1:1 barring 64-bit collisions, the same assumption every
   shingle kernel in this repo makes). String work is bounded by
   ``|hot| x k`` tokens per batch, not corpus size.

Docs with fewer than k tokens contribute nothing (no whole-text
fallback hash here — a passage must BE a k-gram), matching the SQL
oracle's ``QUALIFY lead(w, k-1) IS NOT NULL``.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

import ray
from ray.data import Dataset

from raydedup.hashing import rolling_hash_u64
from raydedup.stages.signatures import (
    _WORD_CACHE,
    batch_word_hashes,
    rolling_hash_segments,
    tokenize,
)
from raydedup.util import arrow_block_refs

logger = logging.getLogger(__name__)

U64 = np.uint64
I64 = np.int64

_OUT_SCHEMA = pa.schema([("shingle", pa.large_string()), ("n_docs", pa.int64())])


def _doc_window_segments(
    arr: pa.Array, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, pa.Array, np.ndarray, np.ndarray]:
    """ASCII fast path: one global rolling pass over the batch.

    Returns ``(h, win_start, win_stop, tokens_lower, tok_offsets,
    ascii_mask)`` where doc ``d`` (over the ASCII subset) has window
    hashes ``h[win_start[d]:win_stop[d]]`` and the window at global
    position ``p`` spans lowered tokens ``p .. p+k-1``.
    """
    import pyarrow.compute as pc

    ascii_mask = pc.string_is_ascii(arr).to_numpy(zero_copy_only=False)
    if not ascii_mask.any():
        e = np.empty(0, dtype=U64)
        z = np.zeros(1, dtype=I64)
        return e, z[:0], z[:0], pa.array([], pa.string()), z, ascii_mask
    sub = arr.filter(pa.array(ascii_mask))
    flat, offs = batch_word_hashes(sub)
    h, ws, we = rolling_hash_segments(flat, offs, k)
    # lowered token strings aligned with `flat` (same filter + lower as
    # batch_word_hashes applies before hashing)
    toks = pc.utf8_split_whitespace(sub)
    t_offs = toks.offsets.to_numpy().astype(I64)
    vals = toks.values
    if t_offs[0] != 0 or len(vals) != t_offs[-1]:
        vals = vals.slice(t_offs[0], t_offs[-1] - t_offs[0])
    keep = pc.not_equal(vals, "")
    tokens_lower = pc.ascii_lower(vals.filter(keep))
    return h, ws, we, tokens_lower, offs, ascii_mask


def _valid_window_mask(n_windows: int, ws: np.ndarray, we: np.ndarray) -> np.ndarray:
    """Boolean mask over global window positions that lie inside some
    doc's valid range (windows crossing doc boundaries are excluded)."""
    d = np.zeros(n_windows + 1, dtype=np.int32)
    np.add.at(d, ws, 1)
    np.add.at(d, we, -1)
    return np.cumsum(d[:-1]) > 0


def _count_partial(t: pa.Table, k: int) -> pa.Table:
    """(doc_id, text) batch -> (h, nd_partial): per-batch distinct-doc
    counts per shingle hash (the combiner before the exchange).

    Hash-only, as the module docstring promises: the ASCII fast path is
    ``batch_word_hashes`` + one global rolling pass + one lexsort for
    the (doc, hash) pair dedup — no token strings are materialized and
    no per-doc Python runs (strings are only touched in the recovery
    pass, and only for the surviving hot set).
    """
    import pyarrow.compute as pc

    from raydedup.stages.signatures import batch_word_hashes, rolling_hash_segments
    from raydedup.stages.textstats import _gather_valid_windows

    col = t.column("text")
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    arr = pc.fill_null(arr, "")
    parts: list[np.ndarray] = []

    ascii_mask = pc.string_is_ascii(arr).to_numpy(zero_copy_only=False)
    if ascii_mask.any():
        sub = arr.filter(pa.array(ascii_mask))
        flat, offs = batch_word_hashes(sub)
        h, ws, we = rolling_hash_segments(flat, offs, k)
        hv, doc_of = _gather_valid_windows(h, ws, we)
        if hv.shape[0]:
            order = np.lexsort((hv, doc_of))
            hs, ds_ = hv[order], doc_of[order]
            new_pair = np.empty(hs.shape[0], dtype=bool)
            new_pair[0] = True
            new_pair[1:] = (hs[1:] != hs[:-1]) | (ds_[1:] != ds_[:-1])
            parts.append(hs[new_pair])

    slow = np.flatnonzero(~ascii_mask)
    if slow.shape[0]:
        texts = arr.to_pylist()
        for d in slow:
            wh = _WORD_CACHE.hash_words(tokenize(texts[d]))
            hw = rolling_hash_u64(wh, k)
            if hw.shape[0]:
                parts.append(np.unique(hw))

    if not parts:
        return pa.table(
            {"h": pa.array([], pa.int64()), "nd_partial": pa.array([], pa.int64())}
        )
    uniq, counts = np.unique(np.concatenate(parts), return_counts=True)
    return pa.table(
        {
            "h": pa.array(uniq.view(I64), type=pa.int64()),
            "nd_partial": pa.array(counts.astype(I64), type=pa.int64()),
        }
    )


def _recover_strings(
    t: pa.Table, k: int, hot_sorted: np.ndarray
) -> tuple[np.ndarray, list[str]]:
    """Recover (hash, lowered shingle string) for hot windows in one
    batch. Returns batch-deduped parallel arrays."""
    import pyarrow.compute as pc

    col = t.column("text")
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    arr = pc.fill_null(arr, "")
    found_h: list[np.ndarray] = []
    found_s: list[str] = []

    h, ws, we, tokens_lower, _, ascii_mask = _doc_window_segments(arr, k)
    if h.shape[0]:
        valid = _valid_window_mask(h.shape[0], ws, we)
        idx = np.searchsorted(hot_sorted, h)
        inhot = (idx < hot_sorted.shape[0]) & (
            hot_sorted[np.minimum(idx, hot_sorted.shape[0] - 1)] == h
        )
        pos = np.flatnonzero(valid & inhot)
        if pos.shape[0]:
            # first occurrence per distinct hash within the batch
            _, first = np.unique(h[pos], return_index=True)
            pos = pos[first]
            found_h.append(h[pos])
            # materialize only the |hot| x k tokens actually needed
            for p in pos:
                found_s.append(" ".join(tokens_lower.slice(p, k).to_pylist()))

    slow = np.flatnonzero(~ascii_mask)
    if slow.shape[0]:
        texts = arr.to_pylist()
        for d in slow:
            words = tokenize(texts[d])  # already lowercased
            wh = _WORD_CACHE.hash_words(words)
            hw = rolling_hash_u64(wh, k)
            if hw.shape[0] == 0:
                continue
            idx = np.searchsorted(hot_sorted, hw)
            inhot = (idx < hot_sorted.shape[0]) & (
                hot_sorted[np.minimum(idx, hot_sorted.shape[0] - 1)] == hw
            )
            pos = np.flatnonzero(inhot)
            if pos.shape[0]:
                _, first = np.unique(hw[pos], return_index=True)
                pos = pos[first]
                found_h.append(hw[pos])
                for p in pos:
                    found_s.append(" ".join(words[p : p + k]))

    if not found_h:
        return np.empty(0, dtype=U64), []
    return np.concatenate(found_h), found_s


def hot_passages(
    docs: Dataset,
    min_docs: int = 3,
    k: int = 5,
    limit: int | None = None,
) -> pa.Table:
    """docs(doc_id, text) -> (shingle, n_docs): every lowered word
    ``k``-gram occurring in at least ``min_docs`` distinct documents,
    with its distinct-doc count. ``limit`` keeps the top rows by
    (n_docs DESC, shingle ASC) — exact, applied after full counting.

    The result is collected to the driver (the hot set is the skew
    tail — small by construction; size is logged).
    """
    from raydedup.stages.exchange import hash_exchange_apply

    docs = docs.select_columns(["doc_id", "text"]).materialize()

    partials = docs.map_batches(
        lambda t: _count_partial(t, k), batch_format="pyarrow"
    )

    def reduce_bucket(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if t.num_rows == 0:
            return pa.table(
                {"h": pa.array([], pa.int64()), "n_docs": pa.array([], pa.int64())}
            )
        g = t.group_by("h").aggregate([("nd_partial", "sum")])
        g = g.rename_columns(["h", "n_docs"]).cast(
            pa.schema([("h", pa.int64()), ("n_docs", pa.int64())])
        )
        return g.filter(pc.greater_equal(g.column("n_docs"), min_docs))

    hot_tbl = hash_exchange_apply(partials, "h", reduce_bucket)
    n_hot = hot_tbl.num_rows
    logger.info("hot_passages: %d shingle hashes with n_docs >= %d", n_hot, min_docs)
    if n_hot == 0:
        return _OUT_SCHEMA.empty_table()

    hot_h = hot_tbl.column("h").to_numpy(zero_copy_only=False).view(U64)
    counts = hot_tbl.column("n_docs").to_numpy(zero_copy_only=False).astype(I64)
    order = np.argsort(hot_h)
    hot_sorted, counts = hot_h[order], counts[order]
    hot_ref = ray.put(hot_sorted)

    def recover(t: pa.Table) -> pa.Table:
        hs, ss = _recover_strings(t, k, ray.get(hot_ref))
        return pa.table(
            {
                "h": pa.array(hs.view(I64), type=pa.int64()),
                "shingle": pa.array(ss, type=pa.large_string()),
            }
        )

    rec = arrow_block_refs(docs.map_batches(recover, batch_format="pyarrow"))
    parts = [b for b in ray.get(rec) if b.num_columns and b.num_rows]
    if not parts:
        return _OUT_SCHEMA.empty_table()
    rec_tbl = pa.concat_tables(parts)
    rh = rec_tbl.column("h").to_numpy(zero_copy_only=False).view(U64)
    rs = rec_tbl.column("shingle").to_numpy(zero_copy_only=False)
    _, first = np.unique(rh, return_index=True)
    rh, rs = rh[first], rs[first]

    # join recovered strings to counts (every hot hash is recovered —
    # it was counted from these same docs)
    pos = np.searchsorted(hot_sorted, rh)
    out_s = rs
    out_n = counts[pos]
    ordr = np.lexsort((out_s, -out_n))
    if limit is not None:
        ordr = ordr[:limit]
    return pa.table(
        {
            "shingle": pa.array(out_s[ordr], type=pa.large_string()),
            "n_docs": pa.array(out_n[ordr], type=pa.int64()),
        }
    )
