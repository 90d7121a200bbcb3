"""Exact substring containment join — the suffix-array substring pass.

Reference analog: Panako's matcher accepts a query that is an exact
sub-segment of a stored track — the hit's matched span is shorter than
the store side (``strategy/panako/PanakoStrategy.java:461-486`` fills
start/stop on both sides independently) — and the north rule names "a
suffix-array substring pass over cluster representatives". The
transplant: find every ordered pair (inner, outer) where inner's FULL
text occurs verbatim inside outer's text (byte-level, inner at least
``min_len`` bytes). Semantically this is probing a generalized suffix
array of the outer corpus with each inner doc; it is realized as a
distributed Rabin-Karp join — the same O(total bytes) index
cardinality a suffix array costs, built as ONE hash exchange instead
of a global sort.

Stages:

1. ``map_batches`` (pyarrow, zero-copy buffers): ONE
   ``rolling_hash_u64`` call over the batch's concatenated utf-8
   buffer gives the polynomial hash of every ``min_len``-byte window;
   windows crossing doc boundaries are masked out vectorized
   (searchsorted on the Arrow offsets) — no per-doc Python. Each doc
   emits its in-bounds window hashes deduped per doc (outer side,
   side=0) and, if it is at least ``min_len`` bytes, the hash of its
   FIRST window (inner/probe side, side=1).
2. ``hash_exchange_apply`` on the window hash: per bucket, probe ×
   window cross products by run arithmetic (one lexsort + reduceat,
   the ``emit_query_pairs`` pattern), self-pairs dropped, pairs
   deduped.
3. Verify: candidate texts are semi-join-filtered and packed into
   flat broadcast arrays by one remote task (the ``fuzzy_pairs``
   pattern); a bytes-level ``in`` check rejects 64-bit collisions.
   EXACT by construction: if inner ⊆ outer, inner's first window IS a
   window of outer, so the polynomial hashes are equal — no false
   negatives; verification removes false positives.

Scale shape: in the dedup pipeline context this runs over cluster
REPRESENTATIVES (a bounded corpus), as the north rule specifies. Index
rows ≈ total bytes — the honest suffix-array cost — flow through one
exchange with per-batch (outer, hash) dedup; the reduce side is
bounded by num_buckets; verification is candidate-bounded and streams.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd
from ray.data import Dataset

from raydedup.hashing import U64, rolling_hash_u64
from raydedup.util import arrow_block_refs

I64 = np.int64

_PAIR_SCHEMA = pa.schema(
    [("inner_id", pa.int64()), ("outer_id", pa.int64()), ("inner_len", pa.int64())]
)


def _flat_utf8(t: pa.Table, text_col: str) -> tuple[np.ndarray, np.ndarray]:
    """(offsets int64, flat uint8 data) of a batch's text column, using
    the Arrow buffers directly (zero-copy for the data plane)."""
    import pyarrow.compute as pc

    arr = t.column(text_col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if arr.null_count:
        arr = pc.fill_null(arr, "")
    if not pa.types.is_large_string(arr.type):
        arr = arr.cast(pa.large_string())
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
    n = len(arr)
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
        arr.offset : arr.offset + n + 1
    ]
    dbuf = arr.buffers()[2]
    data = (
        np.frombuffer(dbuf, dtype=np.uint8)
        if dbuf is not None
        else np.empty(0, dtype=np.uint8)
    )
    if offs[0] != 0:  # sliced array: rebase into the shared buffer
        data = data[offs[0] : offs[-1]]
        offs = offs - offs[0]
    else:
        data = data[: offs[-1]]
    return offs.astype(I64, copy=False), data


def window_params(min_len: int) -> tuple[int, int]:
    """(window size k, winnow width w) for a given ``min_len``.

    Winnowing (Schleimer/Wilkerson/Aiken 2003, the MOSS fingerprint
    selector): every window of ``w`` consecutive positions selects its
    (rightmost) minimum hash, so any stretch of ``w`` valid positions
    contains a selection, and a selection triggered by a window that
    lies fully inside the inner text is made IDENTICALLY inside any
    containing outer doc. A probe restricted to positions
    ``[w-1, L-k-w+1]`` (full ``w``-window margin on both sides) is
    therefore guaranteed to exist and to be selected in the outer doc
    for every inner of length L >= k + 3(w-1) = min_len — the join
    stays LOSSLESS while emitting ~2/(w+1) of the windows."""
    w = max(1, min(8, (int(min_len) + 2) // 3))
    return int(min_len) - 3 * (w - 1), w


def emit_window_postings(t: pa.Table, *, min_len: int, id_col: str, text_col: str) -> pa.Table:
    """(doc_id, text) batch -> union posting table (h, id, side, ilen):
    side=0 one row per DISTINCT winnow-selected in-bounds window hash
    per doc, side=1 one probe per doc >= min_len bytes — its first
    FULL-context winnow-selected window (guaranteed to exist and to be
    selected identically inside any containing doc; see window_params)."""
    out_schema = pa.schema(
        [("h", pa.int64()), ("id", pa.int64()), ("side", pa.int64()), ("ilen", pa.int64())]
    )
    if t.num_rows == 0 or t.num_columns == 0:
        return out_schema.empty_table()
    ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(I64, copy=False)
    offs, data = _flat_utf8(t, text_col)
    k, w = window_params(min_len)
    H = rolling_hash_u64(data, k)  # hash at byte position p, p in [0, N-k]
    if H.shape[0] == 0:
        return out_schema.empty_table()
    N = H.shape[0]
    pos = np.arange(N, dtype=I64)
    # doc index of each position; valid iff the window ends inside the doc
    didx = np.searchsorted(offs, pos, side="right") - 1
    valid = pos + k <= offs[didx + 1]
    # true winnowing: each trailing w-window (ending at a VALID position,
    # truncated at its doc's start) selects its rightmost-min position.
    # Vectorized argmin: iterate the w offsets keeping the best value per
    # window end; strictly-less updates keep the rightmost on ties.
    Hm = np.where(valid, H, np.uint64(0xFFFFFFFFFFFFFFFF))
    startq = offs[didx]  # first byte position of each position's doc
    best_v = Hm.copy()
    best_p = pos.copy()
    for j in range(1, w):
        left = pos[: N - j]  # candidate position q-j for window end q
        upd = (left >= startq[j:]) & (Hm[: N - j] < best_v[j:])
        best_v[j:] = np.where(upd, Hm[: N - j], best_v[j:])
        best_p[j:] = np.where(upd, left, best_p[j:])
    selected = np.zeros(N, dtype=bool)
    real = valid & (best_v != np.uint64(0xFFFFFFFFFFFFFFFF))
    selected[best_p[real]] = True
    sel_idx = np.flatnonzero(selected)
    wdoc = didx[sel_idx]
    wh = H[sel_idx]
    # dedup (doc, hash) — windows repeat heavily inside boilerplate
    order = np.lexsort((wh, wdoc))
    wdoc, wh = wdoc[order], wh[order]
    if wdoc.shape[0]:
        keep = np.empty(wdoc.shape[0], dtype=bool)
        keep[0] = True
        keep[1:] = (wdoc[1:] != wdoc[:-1]) | (wh[1:] != wh[:-1])
        wdoc, wh = wdoc[keep], wh[keep]
    lens = offs[1:] - offs[:-1]
    # probe: first selected position with a full w-window margin on BOTH
    # sides (p_rel in [w-1, L-k-w+1]) per doc of length >= min_len —
    # every window that can have selected it then lies inside the doc,
    # so a containing outer doc makes the same selection; winnowing
    # guarantees one exists in the margin range when L >= min_len
    sdoc = didx[sel_idx]
    p_rel = sel_idx - offs[sdoc]
    L_sel = lens[sdoc]
    elig = (
        (p_rel >= w - 1)
        & (p_rel <= L_sel - k - w + 1)
        & (L_sel >= int(min_len))
    )
    edoc, epos = sdoc[elig], sel_idx[elig]
    # sel_idx ascending => first eligible per doc = first occurrence
    probe_doc, first = np.unique(edoc, return_index=True)
    ph = H[epos[first]]
    h = np.concatenate([wh, ph]).view(I64)
    out_id = np.concatenate([ids[wdoc], ids[probe_doc]])
    side = np.concatenate(
        [np.zeros(wh.shape[0], dtype=I64), np.ones(ph.shape[0], dtype=I64)]
    )
    ilen = np.concatenate([np.zeros(wh.shape[0], dtype=I64), lens[probe_doc]])
    return pa.table(
        {
            "h": pa.array(h, pa.int64()),
            "id": pa.array(out_id, pa.int64()),
            "side": pa.array(side, pa.int64()),
            "ilen": pa.array(ilen, pa.int64()),
        }
    )


def _candidate_pairs_bucket(t: pa.Table) -> pa.Table:
    """Per-bucket kernel: probe (side=1) × window (side=0) cross
    products per hash run, self-pairs dropped, (inner, outer) deduped.
    Fully vectorized run arithmetic — no per-run Python."""
    if t.num_rows == 0 or t.num_columns == 0:
        return _PAIR_SCHEMA.empty_table()
    h = t.column("h").to_numpy(zero_copy_only=False)
    ids = t.column("id").to_numpy(zero_copy_only=False)
    side = t.column("side").to_numpy(zero_copy_only=False)
    ilen = t.column("ilen").to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, side, h))
    h, ids, side, ilen = h[order], ids[order], side[order], ilen[order]
    n = h.shape[0]
    nb = np.empty(n, dtype=bool)
    nb[0] = True
    np.not_equal(h[1:], h[:-1], out=nb[1:])
    starts = np.flatnonzero(nb)
    sizes = np.diff(np.append(starts, n))
    p_cnt = np.add.reduceat(side, starts)  # probes per run (side=1)
    w_cnt = sizes - p_cnt
    both = (p_cnt > 0) & (w_cnt > 0)
    if not both.any():
        return _PAIR_SCHEMA.empty_table()
    starts, p_cnt, w_cnt = starts[both], p_cnt[both], w_cnt[both]
    counts = p_cnt * w_cnt
    tot = int(counts.sum())
    off = np.concatenate(([0], np.cumsum(counts)[:-1]))
    local = np.arange(tot, dtype=I64) - np.repeat(off, counts)
    w_rep = np.repeat(w_cnt, counts)
    # windows (side=0) sort first within a run, probes after them
    p_idx = np.repeat(starts + w_cnt, counts) + local // w_rep
    w_idx = np.repeat(starts, counts) + local % w_rep
    inner, outer, plen = ids[p_idx], ids[w_idx], ilen[p_idx]
    keep = inner != outer
    inner, outer, plen = inner[keep], outer[keep], plen[keep]
    if inner.shape[0] == 0:
        return _PAIR_SCHEMA.empty_table()
    order = np.lexsort((outer, inner))
    inner, outer, plen = inner[order], outer[order], plen[order]
    uq = np.empty(inner.shape[0], dtype=bool)
    uq[0] = True
    uq[1:] = (inner[1:] != inner[:-1]) | (outer[1:] != outer[:-1])
    return pa.table(
        {
            "inner_id": pa.array(inner[uq], pa.int64()),
            "outer_id": pa.array(outer[uq], pa.int64()),
            "inner_len": pa.array(plen[uq], pa.int64()),
        }
    )


@ray.remote(num_returns=3)
def _pack_candidate_texts(*tables: pa.Table):
    """Concat + id-sort + flatten (id, text) blocks into (sorted ids,
    byte offsets, utf-8 bytes); bytes never visit the driver."""
    nonempty = [t for t in tables if t.num_columns and t.num_rows]
    if not nonempty:
        return np.empty(0, dtype=I64), np.zeros(1, dtype=I64), np.empty(0, dtype=np.uint8)
    subset = pa.concat_tables(nonempty)
    order = pa.compute.sort_indices(subset, sort_keys=[("id", "ascending")])
    subset = subset.take(order).combine_chunks()
    ids_sorted = np.ascontiguousarray(subset.column("id").to_numpy(zero_copy_only=False))
    offs, data = _flat_utf8(subset, "text")
    return ids_sorted, offs, np.ascontiguousarray(data)


def substring_pairs(
    docs: Dataset,
    *,
    min_len: int = 64,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_buckets: int | None = None,
) -> tuple[pa.Table, dict]:
    """All ordered pairs (inner_id, outer_id, inner_len) where inner's
    full text (>= min_len bytes) is a verbatim byte substring of
    outer's text. Returns (pair table sorted by (inner_id, outer_id),
    metrics)."""
    from raydedup.stages.exchange import hash_exchange_apply

    def emit(t: pa.Table) -> pa.Table:
        return emit_window_postings(t, min_len=min_len, id_col=id_col, text_col=text_col)

    postings = docs.select_columns([id_col, text_col]).map_batches(
        emit, batch_format="pyarrow"
    )
    cand = hash_exchange_apply(postings, "h", _candidate_pairs_bucket, num_buckets)
    if cand.num_rows == 0 or cand.num_columns == 0:
        return _PAIR_SCHEMA.empty_table(), {"candidates": 0, "verified": 0}
    # global pair dedup (the per-bucket dedup is within-bucket only;
    # a pair can recur across buckets via different window hashes)
    inner = cand.column("inner_id").to_numpy(zero_copy_only=False)
    outer = cand.column("outer_id").to_numpy(zero_copy_only=False)
    plen = cand.column("inner_len").to_numpy(zero_copy_only=False)
    order = np.lexsort((outer, inner))
    inner, outer, plen = inner[order], outer[order], plen[order]
    uq = np.empty(inner.shape[0], dtype=bool)
    uq[0] = True
    uq[1:] = (inner[1:] != inner[:-1]) | (outer[1:] != outer[:-1])
    inner, outer, plen = inner[uq], outer[uq], plen[uq]
    n_cand = int(inner.shape[0])

    wanted = np.unique(np.concatenate([inner, outer]))
    wanted_ref = ray.put(wanted)

    def keep_texts(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if t.num_rows == 0 or t.num_columns == 0:
            return pa.schema([("id", pa.int64()), ("text", pa.large_string())]).empty_table()
        w = ray.get(wanted_ref)
        tids = t.column(id_col).to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(np.isin(tids, w)))
        return pa.table(
            {
                "id": t.column(id_col).cast(pa.int64()),
                "text": pc.cast(pc.fill_null(t.column(text_col), ""), pa.large_string()),
            }
        )

    text_blocks = list(
        arrow_block_refs(
            docs.select_columns([id_col, text_col])
            .map_batches(keep_texts, batch_format="pyarrow")
        )
    )
    bids_ref, offs_ref, data_ref = _pack_candidate_texts.remote(*text_blocks)

    def verify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return _PAIR_SCHEMA.empty_table()
        bids = ray.get(bids_ref)
        boffs = ray.get(offs_ref)
        bdata = ray.get(data_ref)
        a = t.column("inner_id").to_numpy(zero_copy_only=False)
        b = t.column("outer_id").to_numpy(zero_copy_only=False)
        big = bdata.tobytes()
        keep = np.zeros(a.shape[0], dtype=bool)
        for i in range(a.shape[0]):
            ia = int(np.searchsorted(bids, a[i]))
            ib = int(np.searchsorted(bids, b[i]))
            sa = big[boffs[ia] : boffs[ia + 1]]
            keep[i] = big.find(sa, boffs[ib], boffs[ib + 1]) >= 0
        return t.filter(pa.array(keep))

    verified = (
        rd.from_arrow(pa.table({"inner_id": inner, "outer_id": outer, "inner_len": plen}))
        .map_batches(verify, batch_format="pyarrow")
    )
    out = pa.concat_tables(
        [t for t in ray.get(arrow_block_refs(verified)) if t.num_columns and t.num_rows]
        or [_PAIR_SCHEMA.empty_table()],
        promote_options="default",
    )
    order = pa.compute.sort_indices(
        out, sort_keys=[("inner_id", "ascending"), ("outer_id", "ascending")]
    )
    out = out.take(order)
    return out, {"candidates": n_cand, "verified": int(out.num_rows)}
