"""Matched-segment extraction: token-level longest common substring
per candidate pair.

Reference analog: Panako reports the matched SEGMENT of a hit — start
and stop time in both the query and the stored resource
(``strategy/QueryResult.java:31-73``, filled from the aligned
fingerprint span in ``PanakoStrategy.java:461-486``). The transplant's
segment is the longest verbatim run of tokens two documents share:
``lcs_tokens`` plus its start offset on both sides. This is the
"substring pass" of the north rule — run over containment/LSH
candidate pairs, never all-pairs.

Algorithm: binary search on the run length L with the O(n) prefix
rolling hash (``hashing.rolling_hash_u64``) per probe — O(n log n) per
pair and immune to the repeated-token blowup a positions-join (the SQL
oracle's diagonal-run formulation, O(#matching token position pairs))
suffers on boilerplate-heavy text. Window-hash hits are verified
against the underlying token-hash slices, so a 64-bit collision cannot
inflate the answer. Ties resolve to the smallest ``a_start``, then the
smallest ``b_start`` — the deterministic-ranking rule the rest of the
engine uses.

Distribution shape: a broadcast. The candidate docs' ORDERED
token-hash sequences are semi-join-filtered from the docs table and
packed into three flat numpy arrays (sorted ids, offsets, hashes) by
one remote task; plasma serves them zero-copy to every task, so no
task deserializes its own copy. The pair table is repartitioned across
the pool and each task gathers both sides by ``searchsorted``. The
driver holds only ObjectRefs. ``cfg.verify_broadcast_max_docs`` bounds
the docs in one broadcast: larger pair sets run in waves of pair
blocks, one broadcast each (segments are per-pair, so the waves are
independent).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd
from ray.data import Dataset

from raydedup.config import DedupConfig
from raydedup.hashing import U64, rolling_hash_u64
from raydedup.util import arrow_block_refs, cluster_cpus

@ray.remote
def _block_pair_ids(t: pa.Table) -> np.ndarray:
    """Sorted unique doc ids referenced by one pair block."""
    if t.num_rows == 0:
        return np.empty(0, dtype=np.int64)
    a = t.column("a").to_numpy(zero_copy_only=False)
    b = t.column("b").to_numpy(zero_copy_only=False)
    return np.union1d(np.unique(a), np.unique(b)).astype(np.int64)


@ray.remote
def _id_count(ids: np.ndarray) -> int:
    return int(ids.shape[0])


@ray.remote
def _pack_ids(*id_arrays: np.ndarray) -> np.ndarray:
    arrs = [a for a in id_arrays if a.shape[0]]
    return np.unique(np.concatenate(arrs)) if arrs else np.empty(0, dtype=np.int64)


_SEGMENT_SCHEMA = pa.schema(
    [
        ("a", pa.int64()),
        ("b", pa.int64()),
        ("lcs_tokens", pa.int64()),
        ("lcs_ratio", pa.float64()),
        ("a_start", pa.int64()),
        ("b_start", pa.int64()),
    ]
)


def _match_at(ha: np.ndarray, hb: np.ndarray, L: int) -> tuple[int, int] | None:
    """First (min a_start, then min b_start) common run of length L, or
    None. Hash hits are verified on the token slices."""
    wa = rolling_hash_u64(ha, L)
    wb = rolling_hash_u64(hb, L)
    common = np.intersect1d(wa, wb)
    if common.shape[0] == 0:
        return None
    for a0 in np.flatnonzero(np.isin(wa, common)).tolist():
        for b0 in np.flatnonzero(wb == wa[a0]).tolist():
            if np.array_equal(ha[a0 : a0 + L], hb[b0 : b0 + L]):
                return a0, b0
    return None  # all hits were 64-bit collisions (cosmically rare)


def token_lcs(ha: np.ndarray, hb: np.ndarray) -> tuple[int, int, int]:
    """(lcs_len, a_start, b_start) of the longest common contiguous run
    of the two token-hash sequences; (0, -1, -1) when disjoint/empty."""
    na, nb = int(ha.shape[0]), int(hb.shape[0])
    best = (0, -1, -1)
    if na == 0 or nb == 0:
        return best
    lo, hi = 0, min(na, nb)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        hit = _match_at(ha, hb, mid)
        if hit is not None:
            best = (mid, hit[0], hit[1])
            lo = mid
        else:
            hi = mid - 1
    return best


def token_sequence_table(t: pa.Table) -> pa.Table:
    """(doc_id, text) batch -> (doc_id, n, shingles) where ``shingles``
    holds the doc's ORDERED token-hash sequence (name kept so the packed
    broadcast task is shared with verification). ASCII docs take the
    vectorized Arrow front half; non-ASCII docs the per-doc path — the
    same per-doc routing as SignatureKernel, so output never depends on
    batch composition."""
    import pyarrow.compute as pc

    from raydedup.stages.signatures import (
        _WORD_CACHE,
        batch_word_hashes,
        tokenize,
    )

    col = t.column("text")
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    arr = pc.fill_null(arr, "")
    n = len(arr)
    seqs: list = [None] * n
    ascii_mask = pc.string_is_ascii(arr).to_numpy(zero_copy_only=False)
    if ascii_mask.any():
        sub = arr.filter(pa.array(ascii_mask))
        flat, offs = batch_word_hashes(sub)
        for pos, d in enumerate(np.flatnonzero(ascii_mask)):
            seqs[d] = flat[offs[pos] : offs[pos + 1]]
    for d in np.flatnonzero(~ascii_mask):
        words = tokenize(arr[int(d)].as_py())
        seqs[d] = (
            _WORD_CACHE.hash_words(words) if words else np.empty(0, dtype=U64)
        )
    lens = np.fromiter((s.shape[0] for s in seqs), dtype=np.int64, count=n)
    flat_all = np.concatenate(seqs) if n else np.empty(0, dtype=U64)
    return pa.table(
        {
            "doc_id": t.column("doc_id").cast(pa.int64()),
            "n": pa.array(lens, type=pa.int64()),
            "shingles": pa.LargeListArray.from_arrays(
                np.concatenate([[0], np.cumsum(lens)]).astype(np.int64),
                pa.array(flat_all.view(np.int64), type=pa.int64()),
            ),
        }
    )


def sequence_getter(bids: np.ndarray, boffs: np.ndarray, bdata: np.ndarray):
    """doc id -> its token-hash sequence in ``verify.pack_sets``'s three
    arrays (empty when the id is absent)."""

    def seq(d: int) -> np.ndarray:
        i = int(np.searchsorted(bids, d))
        if i >= bids.shape[0] or bids[i] != d:
            return np.empty(0, dtype=U64)
        return bdata[boffs[i] : boffs[i + 1]]

    return seq


def segment_table(a, b, seq_a, seq_b) -> pa.Table:
    """(a, b) id columns -> ``_SEGMENT_SCHEMA`` rows. ``seq_a`` and
    ``seq_b`` map an id to its token-hash sequence on that side of the
    pair, so the two sides may come from different doc sets."""
    an = a.to_numpy(zero_copy_only=False)
    bn = b.to_numpy(zero_copy_only=False)
    m = an.shape[0]
    lcs = np.zeros(m, dtype=np.int64)
    ratio = np.zeros(m, dtype=np.float64)
    astart = np.full(m, -1, dtype=np.int64)
    bstart = np.full(m, -1, dtype=np.int64)
    for i in range(m):
        ha, hb = seq_a(int(an[i])), seq_b(int(bn[i]))
        L, a0, b0 = token_lcs(ha, hb)
        lcs[i], astart[i], bstart[i] = L, a0, b0
        denom = min(ha.shape[0], hb.shape[0])
        ratio[i] = L / denom if denom else 0.0
    return pa.table(
        {
            "a": a,
            "b": b,
            "lcs_tokens": pa.array(lcs, type=pa.int64()),
            "lcs_ratio": pa.array(ratio, type=pa.float64()),
            "a_start": pa.array(astart, type=pa.int64()),
            "b_start": pa.array(bstart, type=pa.int64()),
        }
    )


def matched_segments(
    pairs: Dataset | pa.Table,
    docs: Dataset,
    cfg: DedupConfig | None = None,
) -> Dataset:
    """pairs(a, b[, ...]) x docs(doc_id, text) -> (a, b, lcs_tokens,
    lcs_ratio, a_start, b_start); ratio = lcs / min(token counts), raw
    IEEE division (oracle parity)."""
    cfg = cfg or DedupConfig()
    if isinstance(pairs, pa.Table):
        pairs = rd.from_arrow(pairs)
    pair_tbl = pairs.select_columns(["a", "b"]).materialize()

    # distributed pair-doc union: per-block unique ids in tasks, counts
    # fetched as scalars — the pair table itself never lands on the
    # driver
    pair_refs = [r for r in arrow_block_refs(pair_tbl)]
    if not pair_refs:
        return rd.from_arrow(_SEGMENT_SCHEMA.empty_table())
    id_refs = [_block_pair_ids.remote(r) for r in pair_refs]
    counts = ray.get([_id_count.remote(r) for r in id_refs])
    if sum(counts) == 0:
        return rd.from_arrow(_SEGMENT_SCHEMA.empty_table())

    # cfg.verify_broadcast_max_docs bounds each broadcast: greedy-pack
    # pair blocks into waves by their (upper-bound) unique-doc counts;
    # segments are per-pair, so waves are embarrassingly independent
    bound = max(cfg.verify_broadcast_max_docs, max(counts))
    waves: list[list[int]] = [[]]
    acc = 0
    for i, c in enumerate(counts):
        if waves[-1] and acc + c > bound:
            waves.append([])
            acc = 0
        waves[-1].append(i)
        acc += c

    docs = docs.select_columns(["doc_id", "text"])
    if len(waves) > 1:
        docs = docs.materialize()  # consumed once per wave

    from raydedup.stages.verify import _pack_shingle_broadcast

    def _wave_refs(idx: list[int]):
        ids_ref = _pack_ids.remote(*[id_refs[i] for i in idx])

        def keep_and_tokens(t: pa.Table) -> pa.Table:
            wanted = ray.get(ids_ref)
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            return token_sequence_table(
                t.filter(pa.array(np.isin(ids, wanted)))
            )

        blocks = list(
            arrow_block_refs(
                docs.map_batches(keep_and_tokens, batch_format="pyarrow")
            )
        )
        return _pack_shingle_broadcast.options(num_returns=3).remote(*blocks)

    def _make_lcs_batch(bids_ref, offs_ref, data_ref):
        def lcs_batch(t: pa.Table) -> pa.Table:
            seq = sequence_getter(ray.get(bids_ref), ray.get(offs_ref), ray.get(data_ref))
            return segment_table(t.column("a"), t.column("b"), seq, seq)

        return lcs_batch

    n_pairs = pair_tbl.count()
    target = int(min(2 * cluster_cpus(), max(1, n_pairs // 64)))

    outs: list[Dataset] = []
    for idx in waves:
        refs3 = _wave_refs(idx)
        work = rd.from_arrow_refs([pair_refs[i] for i in idx])
        if target > 1 and len(waves) == 1:
            work = work.repartition(target)
        outs.append(
            work.map_batches(_make_lcs_batch(*refs3), batch_format="pyarrow")
        )
    out = outs[0]
    for o in outs[1:]:
        out = out.union(o)
    return out
