"""Containment pass: winnowed substring fingerprints over all docs.

Transplant of Panako's monitor windowing + time-stretch-robust partial
matching (``OlafStrategy.java:561-573``: chop the query into 25 s
windows with 5 s overlap, query each window against the index; coverage
gate ``percentOfSecondsWithMatches >= 0.2``, ``OlafStrategy.java:437-453``).

Text analog: every doc is fingerprinted by the *winnowed* set of its
length-w character rolling hashes (winnowing window s: the minimum hash
of every s consecutive windows — the standard winnowing guarantee says
any shared substring of length >= w + s - 1 yields at least one shared
selected fingerprint). Docs sharing fingerprints become candidate
(a, b) pairs; the per-pair shared-fingerprint count over the smaller
doc's fingerprint count is the coverage score.

Skew: a fingerprint key shared by more than ``containment_max_postings``
docs is site-wide boilerplate, not containment — it is dropped and
counted (the north-rule hot-key mechanism; the reference walks the long
duplicate chain instead, ``PanakoStorageKV.java:335-370``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ray.data import Dataset
from ray.data.aggregate import Count

from raydedup.config import DedupConfig
from raydedup.hashing import U64, rolling_hash_u64

I64 = np.int64


def _sliding_min(h: np.ndarray, s: int) -> np.ndarray:
    """Minimum of every ``s`` consecutive values — O(n) two-scan block
    algorithm (prefix mins + suffix mins per s-block) instead of the
    O(n*s) strided sliding_window_view reduction."""
    n = h.shape[0]
    m = n - s + 1
    if m <= 0:
        return np.empty(0, dtype=h.dtype)
    if s == 1:
        return h
    nb = -(-n // s)
    pad = nb * s - n
    hp = np.concatenate([h, np.full(pad, np.iinfo(h.dtype).max, dtype=h.dtype)]) if pad else h
    blocks = hp.reshape(nb, s)
    pre = np.minimum.accumulate(blocks, axis=1).reshape(-1)
    suf = np.minimum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].reshape(-1)
    return np.minimum(suf[:m], pre[s - 1 : s - 1 + m])


def winnowed_fingerprints(text: str, w: int, s: int) -> np.ndarray:
    """Sorted unique winnowed fingerprint set of a doc (uint64).

    Rolling polynomial hash of every length-``w`` char window, then the
    minimum of every ``s`` consecutive hashes (robust winnowing by value;
    ties collapse via unique). Short docs (< w chars) hash whole-text.
    """
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    if data.shape[0] == 0:
        return np.empty(0, dtype=U64)
    if data.shape[0] < w:
        return rolling_hash_u64(data, data.shape[0])  # whole-text single window
    h = rolling_hash_u64(data, w)
    if h.shape[0] <= s:
        return np.unique(h.min(keepdims=True))
    return np.unique(_sliding_min(h, s))


def fingerprint_postings_table(batch: pa.Table, w: int, s: int) -> pa.Table:
    """One batch of docs -> (fp_key, doc_id, n_fp) winnowed postings
    (module-level so raw Ray tasks can reuse it).

    Per-doc loop over numpy kernels: with the O(n) prefix rolling hash
    and the O(n) block sliding-min this measures FASTER than a
    batch-concatenated variant (11.4k vs 7.9k docs/s single-thread —
    per-doc arrays stay cache-resident and skip the global gather/
    lexsort dedup machinery a cross-doc kernel needs)."""
    if batch.num_rows == 0 or "text" not in batch.column_names:
        # Ray 2.49 empty-block schema hazard: typed empty postings
        return pa.schema(
            [("fp_key", pa.int64()), ("doc_id", pa.int64()), ("n_fp", pa.int32())]
        ).empty_table()
    texts = batch.column("text").to_pylist()
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
    sets = [winnowed_fingerprints(t or "", w, s) for t in texts]
    lens = np.fromiter((x.shape[0] for x in sets), dtype=np.int64, count=len(sets))
    keys_u64 = np.concatenate(sets) if sets else np.empty(0, U64)
    return pa.table(
        {
            "fp_key": pa.array(keys_u64.view(I64), type=pa.int64()),
            "doc_id": pa.array(np.repeat(ids, lens), type=pa.int64()),
            "n_fp": pa.array(
                np.repeat(lens.astype(np.int32), lens), type=pa.int32()
            ),
        }
    )


def fingerprint_postings(docs: Dataset, cfg: DedupConfig) -> Dataset:
    """docs -> (fp_key: int64, doc_id: int64, n_fp: int32) postings."""
    w, s = cfg.containment_window, cfg.containment_stride

    def explode(batch: pa.Table) -> pa.Table:
        return fingerprint_postings_table(batch, w, s)

    return docs.select_columns(["doc_id", "text"]).map_batches(
        explode, batch_format="pyarrow"
    )


def _emit_fp_pairs(t: pa.Table, max_postings: int) -> pa.Table:
    """Vectorized per-bucket pair emission carrying both docs' n_fp."""
    keys = t.column("fp_key").to_numpy(zero_copy_only=False)
    docs = t.column("doc_id").to_numpy(zero_copy_only=False)
    nfp = t.column("n_fp").to_numpy(zero_copy_only=False)
    # single-key sort (runs only need GROUPING by key; pair order is
    # canonicalized at gather time with min/max) — the 2-key lexsort was
    # 2x the sort traffic, and this kernel is bandwidth-bound when a
    # full task pool runs concurrently
    order = np.argsort(keys)
    keys, docs, nfp = keys[order], docs[order], nfp[order]
    n = keys.shape[0]
    empty = pa.table(
        {
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            "shared_partial": pa.array([], pa.int64()),
            "n_fp_a": pa.array([], pa.int32()),
            "n_fp_b": pa.array([], pa.int32()),
        }
    )
    if n < 2:
        return empty
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    sizes = np.diff(np.append(starts, n))
    run_mask = (sizes >= 2) & (sizes <= max_postings)
    # Vectorized by run SIZE CLASS (<= max_postings classes, each one
    # gather + one triu), instead of a Python loop over millions of tiny
    # runs — the loop was the measured bottleneck of the containment
    # exchange at 500k docs. Posting sets are unique per (doc, key), and
    # runs are doc-sorted, so no per-run unique is needed.
    out = {"a": [], "b": [], "n_fp_a": [], "n_fp_b": []}
    for sz in range(2, max_postings + 1):
        st_s = starts[run_mask & (sizes == sz)]
        if st_s.shape[0] == 0:
            continue
        gather = st_s[:, None] + np.arange(sz)[None, :]
        dm = docs[gather]  # (n_runs, sz), arbitrary order within run
        fm = nfp[gather]
        ii, jj = np.triu_indices(sz, k=1)
        di, dj = dm[:, ii].ravel(), dm[:, jj].ravel()
        fi, fj = fm[:, ii].ravel(), fm[:, jj].ravel()
        swap = di > dj
        out["a"].append(np.where(swap, dj, di))
        out["b"].append(np.where(swap, di, dj))
        out["n_fp_a"].append(np.where(swap, fj, fi))
        out["n_fp_b"].append(np.where(swap, fi, fj))
    if not out["a"]:
        return empty
    # partial (combiner) aggregation: a pair sharing m fingerprints in this
    # bucket collapses to ONE row with shared=m before the global shuffle —
    # near-dup pairs share hundreds of keys, so this cuts the exchanged
    # rows by ~the per-bucket multiplicity (pre-aggregate-then-groupby)
    a = np.concatenate(out["a"])
    b = np.concatenate(out["b"])
    fa = np.concatenate(out["n_fp_a"])
    fb = np.concatenate(out["n_fp_b"])
    if a.shape[0] == 0:
        return empty
    valid = a != b  # guard: duplicate doc postings in one run (shouldn't occur)
    if not valid.all():
        a, b, fa, fb = a[valid], b[valid], fa[valid], fb[valid]
        if a.shape[0] == 0:
            return empty
    order = np.lexsort((b, a))
    a, b, fa, fb = a[order], b[order], fa[order], fb[order]
    m = a.shape[0]
    pb = np.empty(m, dtype=bool)
    pb[0] = True
    pb[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    starts = np.flatnonzero(pb)
    shared = np.diff(np.append(starts, m))
    return pa.table(
        {
            "a": pa.array(a[starts], type=pa.int64()),
            "b": pa.array(b[starts], type=pa.int64()),
            "shared_partial": pa.array(shared.astype(np.int64), type=pa.int64()),
            "n_fp_a": pa.array(fa[starts], type=pa.int32()),
            "n_fp_b": pa.array(fb[starts], type=pa.int32()),
        }
    )


def score_containment_agg(
    t: "pa.Table", min_cov: float, min_shared: int
) -> "pa.Table":
    """Shared containment-pair scorer (ONE implementation for the base
    and scale combiners — review finding): aggregate shared-fingerprint
    partials, compute coverage = shared / min(|fp_a|, |fp_b|), and keep
    pairs clearing BOTH the ratio gate and the absolute min-shared
    floor. Returns (a, b, shared, coverage)."""
    from raydedup.stages.pair_agg import reduce_pair_table

    agg = reduce_pair_table(
        t, sum_cols=["shared_partial"], min_cols=["n_fp_a", "n_fp_b"]
    ).rename_columns(["a", "b", "shared", "n_fp_a", "n_fp_b"])
    shared = agg.column("shared").to_numpy(zero_copy_only=False).astype(np.float64)
    na = agg.column("n_fp_a").to_numpy(zero_copy_only=False).astype(np.float64)
    nb = agg.column("n_fp_b").to_numpy(zero_copy_only=False).astype(np.float64)
    cov = shared / np.maximum(np.minimum(na, nb), 1.0)
    return pa.table(
        {
            "a": agg.column("a"),
            "b": agg.column("b"),
            "shared": agg.column("shared"),
            "coverage": pa.array(cov, type=pa.float64()),
        }
    ).filter(pa.array((cov >= min_cov) & (shared >= min_shared)))


def containment_pairs(
    docs: Dataset, cfg: DedupConfig, num_buckets: int | None = None
) -> Dataset:
    """docs -> (a, b, shared, coverage) containment candidate pairs.

    coverage = shared fingerprints / min(|fp_a|, |fp_b|) — the fraction
    of the smaller doc's windows found in the other (A4
    percentOfSecondsWithMatches analog). Pairs below
    ``cfg.containment_min_coverage`` are filtered out.
    """
    return containment_pairs_from_postings(
        fingerprint_postings(docs, cfg), cfg, num_buckets
    )


def containment_pairs_from_postings(
    postings: Dataset | list, cfg: DedupConfig, num_buckets: int | None = None
) -> Dataset:
    """Pair emission + coverage scoring over pre-computed fingerprint
    postings (a Dataset or a list of block refs), so a caller can
    filter the postings before the exchange."""
    import ray
    import ray.data as rd

    from raydedup.stages.exchange import default_buckets, reduce_wave, split_dataset

    if num_buckets is None:
        num_buckets = default_buckets()
    cap = cfg.containment_max_postings
    min_cov = cfg.containment_min_coverage
    min_shared = cfg.containment_min_shared

    def combine_and_score(t: pa.Table) -> pa.Table:
        return score_containment_agg(t, min_cov, min_shared)

    # exchange 1 co-locates fp_key groups and emits partial pairs; its
    # reduce tasks RE-SPLIT the output on `a` in-task (fused), so
    # exchange 2's combine (a pair's partial rows always share `a`)
    # consumes the pieces directly — no intermediate split wave. Nothing
    # heavier than the final filtered pair list reaches the driver.
    split1 = split_dataset(postings, "fp_key", num_buckets)
    wave = reduce_wave(split1, lambda t: _emit_fp_pairs(t, cap), num_buckets, out_key="a")
    out_refs = reduce_wave(wave, combine_and_score, num_buckets)
    parts = [t for t in ray.get(out_refs) if t.num_rows]
    if not parts:
        return rd.from_arrow(ray.get(out_refs[0]))
    return rd.from_arrow(pa.concat_tables(parts))


def containment_stats(docs: Dataset, cfg: DedupConfig) -> dict:
    """Hot-fingerprint skew metrics (dropped boilerplate keys)."""
    postings = fingerprint_postings(docs, cfg)
    sizes = postings.groupby("fp_key").aggregate(Count(alias_name="n"))

    def summarize(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False)
        hot = n > cfg.containment_max_postings
        return pa.table(
            {
                "keys": pa.array([n.shape[0]], type=pa.int64()),
                "postings": pa.array([int(n.sum())], type=pa.int64()),
                "dropped_keys": pa.array([int(hot.sum())], type=pa.int64()),
                "dropped_postings": pa.array([int(n[hot].sum())], type=pa.int64()),
            }
        )

    parts = sizes.map_batches(summarize, batch_format="pyarrow").to_pandas()
    return {
        "keys": int(parts["keys"].sum()),
        "postings": int(parts["postings"].sum()),
        "dropped_keys": int(parts["dropped_keys"].sum()),
        "dropped_postings": int(parts["dropped_postings"].sum()),
    }
