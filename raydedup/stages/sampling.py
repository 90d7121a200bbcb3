"""Deterministic sampling operators for training-data curation.

Sampling by a keyed hash rank instead of an RNG: every row's fate is a
pure function of (key, seed), so samples are reproducible across runs,
cluster sizes, block layouts and resumes — the property checkpointed
100-TB pipelines need (a reservoir or RNG sample changes under
re-partitioning; ``splitmix64(key ^ seed)`` does not). The reference
pins every kernel to constants for exactly this reason
(``UtilsTest.java:33-43``); the graft extends the discipline to
sampling.

All three operators are single-pass ``map_batches`` with ZERO shuffle:

- ``hash_sample``: keep a row when its mixed hash falls below
  ``rate * 2^64`` — a Bernoulli(rate) sample, deterministic in the key.
- ``hash_split``: label each row train/test/... by hash range —
  disjoint, exhaustive, deterministic corpus splits.
- ``stratified_sample``: the ``k`` smallest hash ranks per stratum —
  an exact-size uniform sample per group. Per-block local top-k keeps
  the driver merge bounded by blocks x strata x k (the same
  local-topk + merge shape as ``ann.knn_cosine_bruteforce``); only the
  tiny winner id-set is broadcast back to filter the stream.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
from ray.data import Dataset

from raydedup.hashing import U64, mix64
from raydedup.util import arrow_block_refs

I64 = np.int64

DEFAULT_SAMPLE_SEED = 0x5EED_0003


def _rank(ids: np.ndarray, seed: int) -> np.ndarray:
    """u64 rank of each key: mix64(key ^ seed). Collision-free in
    practice (distinct keys -> distinct ranks at any realistic scale)."""
    return mix64(ids.astype(I64).view(U64) ^ U64(seed & 0xFFFFFFFFFFFFFFFF))


def hash_sample(
    ds: Dataset,
    rate: float,
    key_col: str = "doc_id",
    seed: int = DEFAULT_SAMPLE_SEED,
) -> Dataset:
    """Deterministic Bernoulli(rate) sample: rows whose
    ``mix64(key ^ seed)`` falls in the lowest ``rate`` fraction of the
    u64 range."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    # threshold in u64 space; rate=1.0 keeps everything
    thr = U64(min(int(rate * 2.0**64), 2**64 - 1))

    def keep(t: pa.Table) -> pa.Table:
        ids = t.column(key_col).to_numpy(zero_copy_only=False)
        r = _rank(ids, seed)
        mask = (r < thr) | (np.bool_(rate >= 1.0))
        return t.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def weighted_hash_sample(
    ds: Dataset,
    weight_col: str,
    denom: int,
    key_col: str = "doc_id",
    seed: int = DEFAULT_SAMPLE_SEED,
) -> Dataset:
    """Deterministic importance sample: row kept with probability
    ``weight/denom`` where ``weight`` is an integer column in
    [0, denom] (0 never kept, denom always kept).

    The per-row threshold is EXACT integer arithmetic —
    ``weight * (2^64 // denom)`` — so both engines compare the same
    u64 values with no float rounding anywhere (the SQL mirror is
    ``rk < w * (2^64 // denom)``; the remainder 2^64 mod denom is
    dropped identically on both sides, an under-sampling of at most
    denom/2^64). Zero shuffle, partition-invariant, same rank stream
    as hash_sample so composed samples stay consistent."""
    if denom <= 0:
        raise ValueError(f"denom must be positive, got {denom}")
    unit = U64((2**64) // denom)

    def keep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return t
        ids = t.column(key_col).to_numpy(zero_copy_only=False)
        w = t.column(weight_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if (w < 0).any() or (w > denom).any():
            raise ValueError(f"{weight_col} must lie in [0, {denom}]")
        r = _rank(ids, seed)
        # w == denom saturates to always-keep (w*unit could fall short
        # of 2^64-1 by the dropped remainder)
        mask = (r < w.view(U64) * unit) | (w == denom)
        return t.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def hash_split(
    ds: Dataset,
    fracs: dict[str, float],
    key_col: str = "doc_id",
    seed: int = DEFAULT_SAMPLE_SEED,
    label_col: str = "split",
) -> Dataset:
    """Label every row with a split name by hash range — disjoint and
    exhaustive (fracs must sum to 1 within 1e-9). Deterministic in the
    key, so re-runs and re-partitions never move a row across splits.

    Split i covers the half-open rank interval [edge_{i-1}, edge_i)
    (searchsorted side="right"): a rank exactly equal to an interior
    edge goes to the UPPER split, consistent with ``hash_sample``'s
    strict ``r < thr`` keep rule — the first split's rows are exactly
    ``hash_sample(rate=fracs[0])``'s rows at the same seed."""
    names = list(fracs)
    vals = np.array([fracs[n] for n in names], dtype=np.float64)
    if (vals < 0).any() or abs(vals.sum() - 1.0) > 1e-9:
        raise ValueError(f"fracs must be >= 0 and sum to 1, got {fracs}")
    edges = np.array(
        [min(int(c * 2.0**64), 2**64 - 1) for c in np.cumsum(vals)], dtype=U64
    )
    edges[-1] = U64(2**64 - 1)

    def label(t: pa.Table) -> pa.Table:
        ids = t.column(key_col).to_numpy(zero_copy_only=False)
        r = _rank(ids, seed)
        idx = np.searchsorted(edges, r, side="right")
        idx = np.minimum(idx, len(names) - 1)
        lab = pa.array(np.array(names, dtype=object)[idx], type=pa.string())
        return t.append_column(label_col, lab)

    return ds.map_batches(label, batch_format="pyarrow")


def _local_topk(t: pa.Table, strata_col: str, key_col: str, k: int, seed: int) -> pa.Table:
    """Per-stratum k smallest DISTINCT ranks within one block
    (vectorized). Duplicate key values inside a stratum collapse to one
    representative row — rank is a pure function of the key, so this is
    also what makes the driver merge idempotent across blocks."""
    if t.num_rows == 0:
        return t
    ids = t.column(key_col).to_numpy(zero_copy_only=False)
    strata = t.column(strata_col)
    enc = strata.combine_chunks().dictionary_encode() if isinstance(
        strata, pa.ChunkedArray
    ) else strata.dictionary_encode()
    scode = enc.indices.to_numpy(zero_copy_only=False).astype(I64)
    r = _rank(ids, seed)
    order = np.lexsort((r, scode))
    sc = scode[order]
    rs = r[order]
    first = np.empty(sc.shape[0], dtype=bool)
    first[0] = True
    # new stratum OR new rank within the stratum (equal rank == equal key)
    first[1:] = (sc[1:] != sc[:-1]) | (rs[1:] != rs[:-1])
    order, sc = order[first], sc[first]
    b = np.empty(sc.shape[0], dtype=bool)
    b[0] = True
    b[1:] = sc[1:] != sc[:-1]
    pos_in_group = np.arange(sc.shape[0]) - np.maximum.accumulate(
        np.where(b, np.arange(sc.shape[0]), 0)
    )
    return t.take(pa.array(order[pos_in_group < k]))


def stratified_sample(
    ds: Dataset,
    strata_col: str,
    k: int,
    key_col: str = "doc_id",
    seed: int = DEFAULT_SAMPLE_SEED,
) -> Dataset:
    """The ``min(k, #distinct keys)`` smallest ``mix64(key ^ seed)``
    rank KEY VALUES per ``strata_col`` group; every row carrying a
    selected (stratum, key) is returned — with a key unique per stratum
    that is exactly ``min(k, |stratum|)`` rows, and duplicate key values
    count as one rank slot (all their rows kept, deterministically).

    Pass 1 streams per-block local top-k candidates (blocks x strata x k
    rows reach the driver — bounded and tiny); the global winners'
    (stratum, key) pairs are broadcast and pass 2 filters the stream by
    membership, so the full dataset is never collected or shuffled."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")

    cand = ds.select_columns([strata_col, key_col]).map_batches(
        lambda t: _local_topk(t, strata_col, key_col, k, seed),
        batch_format="pyarrow",
    )
    blocks = [b for b in ray.get(list(arrow_block_refs(cand))) if b.num_rows]
    if not blocks:
        return ds.limit(0)
    allc = pa.concat_tables(blocks)
    winners = _local_topk(allc, strata_col, key_col, k, seed)
    # winners keyed per STRATUM: the same key value winning in stratum A
    # must not leak rows from stratum B. Membership is tested against a
    # sorted (stratum_name, key) pair list — the stratum column is
    # dictionary-encoded per batch and the per-code winner slices are
    # found by searchsorted over names, so the filter is vectorized
    # (ADVICE r3: no per-stratum Python string-equality loops).
    wst = winners.column(strata_col)
    if isinstance(wst, pa.ChunkedArray):
        wst = wst.combine_chunks()
    wnames = np.asarray(wst.to_pylist(), dtype=object)
    wid = winners.column(key_col).to_numpy(zero_copy_only=False).astype(I64)
    w_order = np.lexsort((wid, wnames))
    wnames, wid = wnames[w_order], wid[w_order]
    # per-stratum contiguous slices of the sorted winner ids
    w_name_starts = np.flatnonzero(
        np.concatenate([[True], wnames[1:] != wnames[:-1]])
    )
    w_uniq = wnames[w_name_starts]
    w_bounds = np.append(w_name_starts, wnames.shape[0])
    wmap_ref = ray.put((w_uniq, w_bounds, wid))

    def keep(t: pa.Table) -> pa.Table:
        uniq, bounds, ids_sorted = ray.get(wmap_ref)
        ids = t.column(key_col).to_numpy(zero_copy_only=False).astype(I64)
        strata = t.column(strata_col)
        enc = (
            strata.combine_chunks().dictionary_encode()
            if isinstance(strata, pa.ChunkedArray)
            else strata.dictionary_encode()
        )
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(I64)
        dvals = np.asarray(enc.dictionary.to_pylist(), dtype=object)
        # map each batch-local stratum code -> winner slice [lo, hi)
        pos = np.searchsorted(uniq, dvals)
        pos_c = np.minimum(pos, uniq.shape[0] - 1) if uniq.shape[0] else pos * 0
        known = uniq.shape[0] > 0
        found = (uniq[pos_c] == dvals) if known else np.zeros(dvals.shape[0], bool)
        lo_of = np.where(found, bounds[:-1][pos_c], 0)
        hi_of = np.where(found, bounds[1:][pos_c], 0)
        lo, hi = lo_of[codes], hi_of[codes]
        # per-row binary search of ids within its stratum's winner slice
        idx = np.empty(ids.shape[0], dtype=I64)
        for c in np.unique(codes):  # distinct strata per batch: tiny
            sel = codes == c
            idx[sel] = np.searchsorted(ids_sorted[lo_of[c] : hi_of[c]], ids[sel])
        idx = idx + lo
        mask = (idx < hi) & (ids_sorted[np.minimum(idx, max(ids_sorted.shape[0] - 1, 0))] == ids) if ids_sorted.shape[0] else np.zeros(ids.shape[0], bool)
        return t.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def temperature_sample(
    ds: Dataset,
    *,
    group_col: str = "source",
    key_col: str = "doc_id",
    scale_num: int = 1,
    scale_den: int = 1,
    seed: int = DEFAULT_SAMPLE_SEED,
) -> Dataset:
    """Source-balanced (temperature alpha=0.5) sampling: each group kept
    at rate ``min(1, scale * isqrt(n_g) / n_g)``, so a group's expected
    kept count grows like sqrt(n_g) — the standard data-mixing move
    that up-weights small sources relative to proportional sampling.

    EXACT integer arithmetic end to end: per-group u64 thresholds
    ``min(2^64-1, scale_num * isqrt(n_g) * 2^64 // (scale_den * n_g))``
    are computed with Python big ints on the driver (isqrt is exact;
    the SQL mirror reproduces it as corrected floor(sqrt) + HUGEINT
    division), then a stateless pass keeps rows with
    ``mix64(key ^ seed) < T_group`` — zero shuffle on the data path,
    partition-invariant, same rank stream as hash_sample.

    Pass 1 collects per-group counts via per-block combiners (one row
    per group per block reaches the driver — the O(#groups) assumption
    shared with ``sourceoverlap.distinct_sources``).
    """
    import math

    import pyarrow.compute as pc

    if scale_num <= 0 or scale_den <= 0:
        raise ValueError("scale_num and scale_den must be positive")

    # two passes (count, then filter) over the same lineage: pin the
    # upstream blocks once so expensive transforms don't recompute
    ds = ds.materialize()

    def part(t: pa.Table) -> pa.Table:
        g = pc.cast(pc.fill_null(t.column(group_col), ""), pa.large_string())
        agg = (
            pa.table({"g": g})
            .group_by("g")
            .aggregate([("g", "count")])
            .rename_columns(["g", "n"])
        )
        return agg

    counts: dict[str, int] = {}
    parts = ds.select_columns([group_col]).map_batches(part, batch_format="pyarrow")
    for b in parts.iter_batches(batch_format="pyarrow"):
        for g, n in zip(b.column("g").to_pylist(), b.column("n").to_pylist()):
            counts[g] = counts.get(g, 0) + int(n)

    groups = sorted(counts)
    thr = np.empty(len(groups), dtype=U64)
    for i, g in enumerate(groups):
        n_g = counts[g]
        t_g = (scale_num * math.isqrt(n_g) * 2**64) // (scale_den * n_g)
        thr[i] = U64(min(t_g, 2**64 - 1))
    lut = pa.array(groups, pa.large_string())

    def keep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return t
        g = pc.cast(pc.fill_null(t.column(group_col), ""), pa.large_string())
        code = pc.index_in(g, value_set=lut).to_numpy(zero_copy_only=False)
        ids = t.column(key_col).to_numpy(zero_copy_only=False)
        r = _rank(ids, seed)
        return t.filter(pa.array(r < thr[code]))

    return ds.map_batches(keep, batch_format="pyarrow")
