"""Collocation discovery: adjacent token pairs scored by lift.

The corpus-statistics surface turned onto the token-adjacency axis:
which bigrams occur together far more often than their unigram
frequencies predict (``new york``, ``cookie banner``) — the classic
collocation/phrase-mining pass a tokenizer-curation run reads.

Score = lift = (c_xy * N) / (c_x * c_y), where c_xy is the corpus
occurrence count of the adjacent pair, c_x / c_y the unigram occurrence
counts and N the total token count. Lift is the ratio form of PMI —
chosen over log-PMI deliberately: all factors stay exact int64 and the
ONE final IEEE division is bit-comparable across engines (the same
discipline as df_commonness; log() is not).

Scale shape (hash-only shuffles, strings only for the winners):

1. per-batch combiner over the signature stage's word-hash front half:
   one global rolling pass gives each valid window ``(bigram_hash,
   h1, h2)``; a lexsort collapses the batch to partial occurrence
   counts. Unigram partials come from the same flat word-hash array.
2. ONE exchange keyed on the bigram hash sums pair counts; the unigram
   counts go through their own hash exchange and are broadcast as
   packed sorted arrays (O(vocab) — same documented assumption as the
   DF broadcast in df_commonness).
3. buckets filter ``n_pair >= min_count`` (the surviving set is the hot
   head, small by construction — logged); the driver computes lift with
   exact Python ints, recovers the winners' token strings with the
   hot-passage recovery pass, and applies the final deterministic
   ordering (lift DESC, n_pair DESC, w1 ASC, w2 ASC).
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

import ray
from ray.data import Dataset

from raydedup.hashing import rolling_hash_u64
from raydedup.stages.signatures import _WORD_CACHE, batch_word_hashes, tokenize
from raydedup.util import arrow_block_refs

logger = logging.getLogger(__name__)

U64 = np.uint64
I64 = np.int64

_OUT_SCHEMA = pa.schema(
    [
        ("w1", pa.large_string()),
        ("w2", pa.large_string()),
        ("n_pair", pa.int64()),
        ("lift", pa.float64()),
    ]
)


def _batch_pair_arrays(t: pa.Table):
    """batch -> (flat_word_hashes, bigram rows (bh, h1, h2)) over all
    docs in the batch (ASCII fast path + per-doc fallback)."""
    import pyarrow.compute as pc

    from raydedup.stages.signatures import rolling_hash_segments
    from raydedup.stages.textstats import _gather_valid_windows

    col = t.column("text")
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    arr = pc.fill_null(arr, "")

    uni_parts: list[np.ndarray] = []
    bh_parts: list[np.ndarray] = []
    h1_parts: list[np.ndarray] = []
    h2_parts: list[np.ndarray] = []

    ascii_mask = pc.string_is_ascii(arr).to_numpy(zero_copy_only=False)
    if ascii_mask.any():
        sub = arr.filter(pa.array(ascii_mask))
        flat, offs = batch_word_hashes(sub)
        if flat.shape[0]:
            uni_parts.append(flat)
            h, ws, we = rolling_hash_segments(flat, offs, 2)
            hv, _ = _gather_valid_windows(h, ws, we)
            if hv.shape[0]:
                # valid window positions (same mask _gather applies)
                d = np.zeros(h.shape[0] + 1, dtype=np.int32)
                np.add.at(d, ws, 1)
                np.add.at(d, we, -1)
                pos = np.flatnonzero(np.cumsum(d[:-1]) > 0)
                bh_parts.append(h[pos])
                h1_parts.append(flat[pos])
                h2_parts.append(flat[pos + 1])

    slow = np.flatnonzero(~ascii_mask)
    if slow.shape[0]:
        texts = arr.to_pylist()
        for dd in slow:
            wh = _WORD_CACHE.hash_words(tokenize(texts[dd]))
            if wh.shape[0] == 0:
                continue
            uni_parts.append(wh)
            hw = rolling_hash_u64(wh, 2)
            if hw.shape[0]:
                bh_parts.append(hw)
                h1_parts.append(wh[:-1])
                h2_parts.append(wh[1:])

    flat_all = np.concatenate(uni_parts) if uni_parts else np.empty(0, dtype=U64)
    if bh_parts:
        return flat_all, np.concatenate(bh_parts), np.concatenate(h1_parts), np.concatenate(h2_parts)
    e = np.empty(0, dtype=U64)
    return flat_all, e, e, e


_PAIR_PARTIAL_SCHEMA = pa.schema(
    [
        ("bh", pa.int64()),
        ("h1", pa.int64()),
        ("h2", pa.int64()),
        ("cnt", pa.int64()),
    ]
)
_UNI_PARTIAL_SCHEMA = pa.schema([("h", pa.int64()), ("cnt", pa.int64())])


def _pair_partial(t: pa.Table) -> pa.Table:
    _, bh, h1, h2 = _batch_pair_arrays(t)
    if bh.shape[0] == 0:
        return _PAIR_PARTIAL_SCHEMA.empty_table()
    order = np.argsort(bh, kind="stable")
    bhs = bh[order]
    new = np.empty(bhs.shape[0], dtype=bool)
    new[0] = True
    new[1:] = bhs[1:] != bhs[:-1]
    starts = np.flatnonzero(new)
    cnt = np.diff(np.append(starts, bhs.shape[0]))
    sel = order[starts]
    return pa.table(
        {
            "bh": pa.array(bhs[starts].view(I64), pa.int64()),
            "h1": pa.array(h1[sel].view(I64), pa.int64()),
            "h2": pa.array(h2[sel].view(I64), pa.int64()),
            "cnt": pa.array(cnt.astype(I64), pa.int64()),
        }
    )


def _uni_partial(t: pa.Table) -> pa.Table:
    flat, _, _, _ = _batch_pair_arrays(t)
    if flat.shape[0] == 0:
        return _UNI_PARTIAL_SCHEMA.empty_table()
    u, c = np.unique(flat, return_counts=True)
    return pa.table(
        {
            "h": pa.array(u.view(I64), pa.int64()),
            "cnt": pa.array(c.astype(I64), pa.int64()),
        }
    )


def collocations(
    docs: Dataset,
    *,
    min_count: int = 5,
    top_k: int = 20,
) -> pa.Table:
    """docs(doc_id, text) -> top-``top_k`` (w1, w2, n_pair, lift) over
    adjacent lowered whitespace tokens with ``n_pair >= min_count``,
    ordered by (lift DESC, n_pair DESC, w1 ASC, w2 ASC).
    """
    from raydedup.stages.exchange import hash_exchange_apply

    docs = docs.select_columns(["doc_id", "text"]).materialize()

    # --- pair counts: combiner + ONE bigram-hash exchange -----------------
    pair_partials = docs.map_batches(_pair_partial, batch_format="pyarrow")

    def reduce_pairs(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if t.num_rows == 0:
            return _PAIR_PARTIAL_SCHEMA.empty_table()
        g = t.group_by("bh").aggregate(
            [("h1", "min"), ("h2", "min"), ("cnt", "sum")]
        )
        g = g.rename_columns(["bh", "h1", "h2", "cnt"]).cast(_PAIR_PARTIAL_SCHEMA)
        return g.filter(pc.greater_equal(g.column("cnt"), min_count))

    hot = hash_exchange_apply(pair_partials, "bh", reduce_pairs)
    logger.info("collocations: %d bigrams with n_pair >= %d", hot.num_rows, min_count)
    if hot.num_rows == 0:
        return _OUT_SCHEMA.empty_table()

    # --- unigram counts: combiner + hash exchange -------------------------
    uni_partials = docs.map_batches(_uni_partial, batch_format="pyarrow")

    def reduce_uni(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _UNI_PARTIAL_SCHEMA.empty_table()
        g = t.group_by("h").aggregate([("cnt", "sum")])
        return g.rename_columns(["h", "cnt"]).cast(_UNI_PARTIAL_SCHEMA)

    uni = hash_exchange_apply(uni_partials, "h", reduce_uni)
    uh = uni.column("h").to_numpy(zero_copy_only=False).view(U64)
    uc = uni.column("cnt").to_numpy(zero_copy_only=False).astype(I64)
    order = np.argsort(uh)
    uh, uc = uh[order], uc[order]
    n_total = int(uc.sum())

    # --- lift on the surviving head (exact Python ints, one division) -----
    bh = hot.column("bh").to_numpy(zero_copy_only=False).view(U64)
    h1 = hot.column("h1").to_numpy(zero_copy_only=False).view(U64)
    h2 = hot.column("h2").to_numpy(zero_copy_only=False).view(U64)
    cxy = hot.column("cnt").to_numpy(zero_copy_only=False).astype(I64)
    c1 = uc[np.searchsorted(uh, h1)]
    c2 = uc[np.searchsorted(uh, h2)]
    lift = np.array(
        [float(int(c) * n_total) / float(int(a) * int(b)) for c, a, b in zip(cxy, c1, c2)],
        dtype=np.float64,
    )

    # --- recover winner strings (hot-passage recovery pass, k=2) ----------
    from raydedup.stages.passages import _recover_strings

    hot_sorted = np.sort(bh)
    hot_ref = ray.put(hot_sorted)

    def recover(t: pa.Table) -> pa.Table:
        hs, ss = _recover_strings(t, 2, ray.get(hot_ref))
        return pa.table(
            {
                "h": pa.array(hs.view(I64), pa.int64()),
                "s": pa.array(ss, pa.large_string()),
            }
        )

    rec_parts = [
        b
        for b in ray.get(arrow_block_refs(docs.map_batches(recover, batch_format="pyarrow")))
        if b.num_columns and b.num_rows
    ]
    rec = pa.concat_tables(rec_parts)
    rh = rec.column("h").to_numpy(zero_copy_only=False).view(U64)
    rs = rec.column("s").to_numpy(zero_copy_only=False)
    _, first = np.unique(rh, return_index=True)
    rh, rs = rh[first], rs[first]
    smap = dict(zip(rh.tolist(), rs.tolist()))

    w1 = np.array([smap[x].split(" ", 1)[0] for x in bh.tolist()], dtype=object)
    w2 = np.array([smap[x].split(" ", 1)[1] for x in bh.tolist()], dtype=object)
    ordr = np.lexsort((w2, w1, -cxy, -lift))[:top_k]
    return pa.table(
        {
            "w1": pa.array(w1[ordr], pa.large_string()),
            "w2": pa.array(w2[ordr], pa.large_string()),
            "n_pair": pa.array(cxy[ordr], pa.int64()),
            "lift": pa.array(lift[ordr], pa.float64()),
        }
    )
