"""Candidate generation: LSH band postings -> candidate pairs.

Inverts Panako's query-time near-hash range lookup
(``PanakoStorageKV.java:293-379``: cursor scan of keys in [h-2, h+2],
collect postings per hash) into a shuffle join: postings
``(band_key, doc_id)`` are grouped by band key and every group emits its
doc pairs — the LSH-banding equivalent of "two resources sharing a
near-hash". Self-matches are suppressed by canonical ``a < b`` ordering
(analog of the ``avoid`` anti-semi-join, ``Strategy.java:78-82``).

Skew (north-rule requirement; the reference has none — a hot key is
just a long duplicate chain): groups with more than
``cfg.max_band_postings`` *distinct signatures* are dropped and counted
— at 10^12 docs a band with >1000 distinct near-dup variants is
degenerate boilerplate producing O(n^2) junk pairs. The cap is applied
to distinct-signature counts, NOT raw posting counts: byte-identical
copies share every band, so a popular page with 10^5 exact copies is
ONE signature per band run and must not evict its genuine near-dup
neighbours (ADVICE r1). Within a signature group only star edges
(group-min doc -> member) are emitted — identical signatures need no
quadratic pair set for connectivity. Dropped-group counts surface in
the metrics table.

That rule is ``band_runs``. The engine (``emit_pairs_partition``), the
skew stats and the index query and increment fold
(``pipelines/query._cross_side_pairs``) all apply it, so a page stored
more times than the cap finds its near-dups through the index too.

SimHash near-hash candidates use the pigeonhole multi-table scheme:
Hamming distance <= k on 64 bits implies at least one of k+1 16-bit
blocks matches exactly, so each doc posts k+1 block keys; verification
rechecks exact Hamming distance (``util/Hamming.java:74-83`` analog).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from raydedup.config import DedupConfig

I64 = np.int64


POSTINGS_SCHEMA = pa.schema(
    [("band_key", pa.int64()), ("doc_id", pa.int64()), ("sig", pa.int64())]
)


def band_postings_table(batch: pa.Table, n_bands: int) -> pa.Table:
    """(doc_id, bands) signatures -> (band_key: int64, doc_id: int64,
    sig: int64) postings, ``n_bands`` per doc. ``sig`` is a 64-bit digest
    of the doc's full band vector: byte-identical texts share it, so pair
    emission can group a band run by signature identity (cap + star-edge
    logic). Module-level so raw Ray tasks can reuse it."""
    from raydedup.hashing import POLY_B, U64 as _U64, mix64

    n = batch.num_rows
    if n == 0:
        return POSTINGS_SCHEMA.empty_table()
    bands = batch.column("bands")
    flat = bands.combine_chunks().flatten() if isinstance(bands, pa.ChunkedArray) else bands.flatten()
    keys_u64 = flat.to_numpy(zero_copy_only=False).astype(_U64, copy=False)
    keys = keys_u64.view(I64)
    doc = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(I64, copy=False)
    # Horner fold of the doc's n_bands keys -> one digest per doc
    mat = keys_u64.reshape(n, n_bands)
    digest = np.zeros(n, dtype=_U64)
    for j in range(n_bands):
        digest = digest * POLY_B + mat[:, j]
    digest = mix64(digest).view(I64)
    return pa.table(
        {
            "band_key": pa.array(keys, type=pa.int64()),
            "doc_id": pa.array(np.repeat(doc, n_bands), type=pa.int64()),
            "sig": pa.array(np.repeat(digest, n_bands), type=pa.int64()),
        }
    )


def band_postings(signatures: Dataset, cfg: DedupConfig) -> Dataset:
    """signatures Dataset -> band postings (see band_postings_table)."""
    return signatures.select_columns(["doc_id", "bands"]).map_batches(
        band_postings_table, batch_format="pyarrow", fn_kwargs={"n_bands": cfg.n_bands}
    )


def simhash_postings_table(batch: pa.Table, max_hamming: int) -> pa.Table:
    """(doc_id, simhash) signatures -> (band_key, doc_id, sig) postings,
    one per simhash block (k+1 = 4 tables of 16 bits for Hamming <= 3),
    in the band-posting schema so both kinds share one pair exchange."""
    from raydedup.hashing import mix64

    if batch.num_rows == 0:
        return POSTINGS_SCHEMA.empty_table()
    n_blocks = max_hamming + 1
    shift = 64 // n_blocks
    sim = batch.column("simhash").to_numpy(zero_copy_only=False).view(np.uint64)
    doc = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(I64, copy=False)
    keys = np.empty(sim.shape[0] * n_blocks, dtype=I64)
    mask = np.uint64((1 << shift) - 1)
    for t in range(n_blocks):
        block = (sim >> np.uint64(t * shift)) & mask
        # fold table id into key so blocks from different tables never collide
        keys[t::n_blocks] = (block | (np.uint64(t + 1) << np.uint64(60))).view(I64)
    # signature identity for grouping: the full simhash (mixed so it
    # decorrelates from the block keys); exact copies share it
    digest = mix64(sim).view(I64)
    return pa.table(
        {
            "band_key": pa.array(keys, type=pa.int64()),
            "doc_id": pa.array(np.repeat(doc, n_blocks), type=pa.int64()),
            "sig": pa.array(np.repeat(digest, n_blocks), type=pa.int64()),
        }
    )


def simhash_postings(signatures: Dataset, cfg: DedupConfig) -> Dataset:
    """signatures Dataset -> simhash block postings (see
    simhash_postings_table)."""
    return signatures.select_columns(["doc_id", "simhash"]).map_batches(
        simhash_postings_table,
        batch_format="pyarrow",
        fn_kwargs={"max_hamming": cfg.simhash_max_hamming},
    )


class BandRuns(NamedTuple):
    """Run structure of a table of band postings (see band_runs)."""

    order: np.ndarray  # (band_key, sig) sort order of the postings
    starts: np.ndarray  # first sorted posting of each band-key run
    sizes: np.ndarray  # postings per run
    group_starts: np.ndarray  # first sorted posting of each (band_key, sig) group
    n_sigs: np.ndarray  # distinct signatures per run
    keep: np.ndarray  # runs that emit pairs


def band_runs(keys: np.ndarray, sigs: np.ndarray, max_postings: int) -> BandRuns:
    """The one hot-band rule (see the module docstring): sort postings
    by (band_key, sig); a band run emits pairs iff it has >= 2 postings
    and <= ``max_postings`` DISTINCT signatures."""
    order = np.lexsort((sigs, keys))
    keys, sigs = keys[order], sigs[order]
    n = keys.shape[0]
    boundary = np.empty(n, dtype=bool)
    boundary[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
    gb = boundary.copy()
    gb[1:] |= sigs[1:] != sigs[:-1]
    starts = np.flatnonzero(boundary)
    sizes = np.diff(np.append(starts, n))
    group_starts = np.flatnonzero(gb)
    first_group = np.cumsum(gb)[starts] - 1
    n_sigs = np.diff(np.append(first_group, group_starts.shape[0]))
    keep = (sizes >= 2) & (n_sigs <= max_postings)
    return BandRuns(order, starts, sizes, group_starts, n_sigs, keep)


def emit_pairs_partition(
    t: pa.Table,
    max_postings: int,
    *,
    recover_hot_runs: bool = False,
    hot_run_group: int = 32,
) -> pa.Table:
    """Vectorized pair emission for ONE hash partition of postings.

    Sorts the partition by (band_key, sig) and, per band-key run that
    band_runs keeps:

    - groups postings by signature digest (byte-identical texts share
      every band and hence the digest);
    - emits ``a < b`` pairs between the signature-group representatives
      (group-min doc_id) — the quadratic part is over distinct
      signatures only;
    - emits linear star edges (rep -> member) inside each signature
      group, preserving connectivity for signature-identical docs whose
      bytes differ (verification confirms them with Jaccard 1.0).

    ``recover_hot_runs`` (cfg.recover_hot_runs, SURVEY §4 salting):
    over-cap runs are RECOVERED instead of dropped — their reps split
    into consecutive ``hot_run_group``-sized sub-groups (sig order),
    full clique within each sub-group plus the run-min anchor rep
    replicated into every one, star edges kept. O(reps * group) pair
    fan-out; downstream Jaccard verification rejects false merges.

    Dropped runs are counted separately by band_size_stats()."""
    empty = pa.table(
        {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
         "n_partial": pa.array([], pa.int64())}
    )
    keys = t.column("band_key").to_numpy(zero_copy_only=False)
    if keys.shape[0] < 2:
        return empty
    # band_runs' 2-key sort: the group-min rep is computed with
    # minimum.reduceat instead of a third sort key (1/3 less sort
    # traffic — this kernel is bandwidth-bound under a full task pool)
    runs = band_runs(keys, t.column("sig").to_numpy(zero_copy_only=False), max_postings)
    docs = t.column("doc_id").to_numpy(zero_copy_only=False)[runs.order]
    n = docs.shape[0]
    # rep doc per sig group = min doc (deterministic under any input
    # order / partitioning)
    rep_docs = np.minimum.reduceat(docs, runs.group_starts)  # contiguous per key run
    rep_per_posting = np.repeat(rep_docs, np.diff(np.append(runs.group_starts, n)))
    over_mask = (runs.sizes >= 2) & ~runs.keep
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    # star edges: member postings of kept runs whose doc != group rep
    # (recovered over-cap runs keep their star edges too)
    star_runs = runs.keep | over_mask if recover_hot_runs else runs.keep
    keep_posting = np.repeat(star_runs, runs.sizes)
    star = keep_posting & (docs != rep_per_posting)
    if star.any():
        out_a.append(rep_per_posting[star])
        out_b.append(docs[star])
    # Pairs between sig-group reps, vectorized by rep-count CLASS (one
    # gather + one triu per distinct rep count) instead of a Python loop
    # over runs — same pattern as the containment exchange kernel. Reps
    # are distinct docs within a run (one posting per (band_key, doc)),
    # in sig order not doc order, so pairs are canonicalized with
    # min/max; the final combiner dedupes across classes.
    run_rep_start = np.cumsum(runs.n_sigs) - runs.n_sigs  # each run's first rep
    pair_mask = runs.keep & (runs.n_sigs >= 2)
    gs = runs.n_sigs[pair_mask]
    rs = run_rep_start[pair_mask]
    for g in np.unique(gs):
        rstarts = rs[gs == g]
        gather = rstarts[:, None] + np.arange(g)[None, :]
        dm = rep_docs[gather]  # (n_runs, g)
        ii, jj = np.triu_indices(int(g), k=1)
        di, dj = dm[:, ii].ravel(), dm[:, jj].ravel()
        out_a.append(np.minimum(di, dj))
        out_b.append(np.maximum(di, dj))
    if recover_hot_runs and over_mask.any():
        T = max(2, int(hot_run_group))
        for g, r0 in zip(runs.n_sigs[over_mask], run_rep_start[over_mask]):
            reps = rep_docs[r0 : r0 + g]
            anchor = reps.min()
            for s in range(0, int(g), T):
                sub = np.unique(np.append(reps[s : s + T], anchor))
                if sub.shape[0] < 2:
                    continue
                ii, jj = np.triu_indices(sub.shape[0], k=1)
                out_a.append(sub[ii])
                out_b.append(sub[jj])
    if not out_a:
        return empty
    # partial (combiner) aggregation before the global (a, b) shuffle: a
    # pair colliding in k bands of this bucket becomes one row with
    # n_partial=k (pre-aggregate inside map, then a small groupby)
    a = np.concatenate(out_a)
    b = np.concatenate(out_b)
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    m = a.shape[0]
    pb = np.empty(m, dtype=bool)
    pb[0] = True
    pb[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    starts = np.flatnonzero(pb)
    counts = np.diff(np.append(starts, m))
    return pa.table(
        {
            "a": pa.array(a[starts], type=pa.int64()),
            "b": pa.array(b[starts], type=pa.int64()),
            "n_partial": pa.array(counts.astype(np.int64), type=pa.int64()),
        }
    )


def candidate_pair_refs(
    postings: Dataset | list, cfg: DedupConfig, num_buckets: int | None = None
) -> list:
    """Fused two-exchange chain postings -> per-bucket candidate pair
    tables ``(a, b, n_collisions)`` as ObjectRefs (bucketed by hash(a)).

    Exchange 1 co-locates band_key groups and emits partially-aggregated
    pairs; its reduce tasks RE-SPLIT their output on ``a`` in-task
    (reduce_wave's ``out_key``), so exchange 2's combine wave consumes
    the pieces directly — no intermediate materialize or split wave
    between the two shuffles. Nothing returns to the driver. The waves
    are named ``candidates_split``, ``candidates_emit`` and
    ``candidates_combine``.

    ``postings`` is a Dataset, a list of block refs, or a wave already
    split on ``band_key`` into ``num_buckets`` buckets (split_dataset's
    shape, ``wave[i][k]``): exchange 1's reduce then consumes it as is.
    """
    from raydedup.stages.exchange import default_buckets, reduce_wave, split_dataset
    from raydedup.stages.pair_agg import reduce_pair_table

    if num_buckets is None:
        num_buckets = default_buckets()
    max_postings = cfg.max_band_postings
    thr = cfg.min_band_collisions

    def combine(t: pa.Table) -> pa.Table:
        out = reduce_pair_table(t, sum_cols=["n_partial"]).rename_columns(
            ["a", "b", "n_collisions"]
        )
        if thr > 1:
            out = out.filter(pa.compute.greater_equal(out["n_collisions"], thr))
        return out

    recover, hot_group = cfg.recover_hot_runs, cfg.hot_run_group
    presplit = isinstance(postings, list) and bool(postings) and isinstance(postings[0], list)
    split1 = (
        postings
        if presplit
        else split_dataset(postings, "band_key", num_buckets, name="candidates_split")
    )
    wave = reduce_wave(
        split1,
        lambda t: emit_pairs_partition(
            t, max_postings, recover_hot_runs=recover, hot_run_group=hot_group
        ),
        num_buckets,
        out_key="a",
        name="candidates_emit",
    )
    return reduce_wave(wave, combine, num_buckets, name="candidates_combine")


def postings_to_pairs(
    postings: Dataset, cfg: DedupConfig, num_buckets: int | None = None
) -> Dataset:
    """postings -> unique candidate pairs with per-pair collision counts
    (analog of the per-resource hit accumulator, ``OlafStrategy.java:308-329``).

    The band_key space is hash-bucketed into ``num_buckets`` coarse
    partitions (one shuffle group per bucket, vectorized pair emission
    inside — NOT one Python call per band key). num_buckets bounds
    per-task memory at scale: each task holds postings/num_buckets rows.
    The cross-bucket combine runs distributed (fused with the emission
    wave, see candidate_pair_refs); only the final pair list — small by
    construction — reaches the driver (at extreme scale callers keep the
    refs and write per-bucket Parquet instead).
    """
    import ray
    import ray.data as rd

    refs = candidate_pair_refs(postings, cfg, num_buckets)
    parts = [t for t in ray.get(refs) if t.num_rows]
    if not parts:
        return rd.from_arrow(ray.get(refs[0]))
    return rd.from_arrow(pa.concat_tables(parts))


def band_size_stats(postings: Dataset, cfg: DedupConfig) -> dict:
    """Skew metrics: group-size distribution of the posting index
    (analog of ``panako stats`` full scans, ``PanakoStorageKV.java:381-467``).

    Uses the custom hash exchange (NOT Ray's sort-based groupby — the
    measured ~2.5k rows/s/task cliff at high key cardinality) and
    band_runs, the rule emission applies: a run exceeds the cap when
    its DISTINCT-SIGNATURE count passes cfg.max_band_postings.
    With ``cfg.recover_hot_runs`` those runs are RECOVERED by emission
    (sub-group salting), so they are reported as ``recovered_*`` and
    ``dropped_*`` reads 0 — the stats always describe what emission
    actually did. ``max_group``/``hot_groups`` stay raw-posting-count
    metrics (they describe index skew, not the policy)."""
    from raydedup.stages.exchange import hash_exchange_apply

    salt, cap = cfg.salt_band_postings, cfg.max_band_postings
    recover = cfg.recover_hot_runs

    def summarize(t: pa.Table) -> pa.Table:
        runs = band_runs(
            t.column("band_key").to_numpy(zero_copy_only=False),
            t.column("sig").to_numpy(zero_copy_only=False),
            cap,
        )
        sizes = runs.sizes
        over = (sizes >= 2) & ~runs.keep
        dropped = over & (not recover)
        recovered = over & recover
        return pa.table(
            {
                "groups": pa.array([int(sizes.shape[0])], type=pa.int64()),
                "postings": pa.array([t.num_rows], type=pa.int64()),
                "max_group": pa.array([int(sizes.max(initial=0))], type=pa.int64()),
                "hot_groups": pa.array([int((sizes > salt).sum())], type=pa.int64()),
                "dropped_groups": pa.array([int(dropped.sum())], type=pa.int64()),
                "dropped_postings": pa.array([int(sizes[dropped].sum())], type=pa.int64()),
                "recovered_groups": pa.array([int(recovered.sum())], type=pa.int64()),
                "recovered_postings": pa.array([int(sizes[recovered].sum())], type=pa.int64()),
            }
        )

    parts = hash_exchange_apply(postings, "band_key", summarize).to_pandas()
    return {
        "groups": int(parts["groups"].sum()),
        "postings": int(parts["postings"].sum()),
        "max_group": int(parts["max_group"].max()) if len(parts) else 0,
        "hot_groups": int(parts["hot_groups"].sum()),
        "dropped_groups": int(parts["dropped_groups"].sum()),
        "dropped_postings": int(parts["dropped_postings"].sum()),
        "recovered_groups": int(parts["recovered_groups"].sum()),
        "recovered_postings": int(parts["recovered_postings"].sum()),
    }
