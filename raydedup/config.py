"""Frozen pipeline configuration.

Analog of the reference's typed config-key system (Panako
``util/Key.java:43-439``: 85+ keys with defaults, overridable per run).
Here it is one frozen dataclass: every stage receives the same immutable
``DedupConfig`` so a run is fully reproducible from (input, config, seed).

Fixed by the north-star spec (BASELINE.json): 5-gram shingles, 128-perm
MinHash, 16 bands x 8 rows LSH, 64-bit SimHash.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any


@dataclass(frozen=True)
class DedupConfig:
    # --- shingling (analog of fingerprint packing, OlafEventPointProcessor.java:316-370)
    shingle_k: int = 5  # tokens per word shingle
    shingle_mode: str = "word"  # "word" | "char"
    char_shingle_k: int = 9  # chars per char shingle (when shingle_mode == "char")

    # --- MinHash (analog of the 64-bit fingerprint hash, OlafFingerprint.java:154-196)
    n_perms: int = 128
    minhash_seed: int = 0x5EED_0001
    # "classic" = n_perms multiply-shift permutations (reference-faithful,
    # SQL-mirrored); "oph" = one-permutation hashing with rotation
    # densification (Shrivastava & Li, ICML 2014): one pass over the
    # shingles instead of 128 — ~10x faster signature kernel at matched
    # (n_perms, banding) layout. Same downstream banding/verify path.
    minhash_scheme: str = "classic"  # "classic" | "oph"

    # --- LSH banding (replaces the LMDB hash->postings store,
    # PanakoStorageKV.java:204-228; +/-2 near-hash range scan -> band collision)
    n_bands: int = 16
    rows_per_band: int = 8  # n_bands * rows_per_band == n_perms

    # --- SimHash (secondary near-hash family, 64 bits wide in
    # stages/signatures.py; Hamming verify via util/Hamming.java:74-83)
    simhash_max_hamming: int = 3

    # --- verification (analog of min-hit + geometric verification gates,
    # OlafStrategy.java:331-453; here: exact Jaccard >= tau)
    jaccard_tau: float = 0.80
    min_band_collisions: int = 1  # analog of MIN_HITS_UNFILTERED (Key.java:187)
    # docs per broadcast in stages/lcs.py's matched-segment pass (one
    # zero-copy plasma object, copied once per node); larger pair sets
    # run in waves of one broadcast each
    verify_broadcast_max_docs: int = 150_000

    # --- ingress normalization (M8 canonical-format surface on text;
    # stages/textnorm.py). When set, the dedup engine replaces
    # the text column with its typographically-normalized form (and
    # recompute text_sha256) BEFORE any stage, so signatures, verify
    # re-shingling, containment winnowing and the exact pass all see the
    # one canonical text. Default off: byte-faithful to the extractor.
    normalize: bool = False

    # --- skew handling (north-rule requirement; reference has none --
    # a hot LMDB key is just a long duplicate chain, PanakoStorageKV.java:335-370)
    # Hot-key policy: runs of more than max_band_postings DISTINCT
    # signatures are degenerate boilerplate -> dropped + counted, in the
    # engine, queries and folds alike (candidates.band_runs). Runs
    # between salt_band_postings and the cap are "hot": they stay
    # correct because pair emission is a vectorized kernel over a hash
    # BUCKET (~1/64th of the keyspace), so one hot run costs one numpy
    # triu, not a straggler task; the count of such runs is surfaced in
    # band_size_stats()/containment_stats() metrics.
    max_band_postings: int = 1000
    salt_band_postings: int = 200
    # Over-cap run RECOVERY (SURVEY §4's salting alternative, off by
    # default — the default policy drops+counts): instead of dropping
    # an over-cap run, split its distinct-signature reps into
    # consecutive sub-groups of ``hot_run_group`` (sig order,
    # deterministic), emit the full clique within each sub-group plus
    # the run-min anchor rep replicated into every sub-group, and keep
    # the star edges. Pair volume is O(n_reps * hot_run_group) instead
    # of O(n_reps^2); anything similar to the anchor still merges
    # globally and verification filters the rest, so recall on genuine
    # near-dup families inside hot runs is recovered at a bounded
    # fan-out cost (tests/test_candidates.py pins it).
    recover_hot_runs: bool = False
    hot_run_group: int = 32

    # --- containment / suffix pass (analog of monitor windowing,
    # OlafStrategy.java:561-573: 25 s windows, 5 s overlap)
    containment_window: int = 40  # chars per rolling-hash window
    containment_stride: int = 32  # winnowing stride on the probe side
    containment_min_coverage: float = 0.20  # analog of percentOfSecondsWithMatches >= 0.2 (Key.java:205)
    # absolute floor on SHARED winnowed fingerprints per containment
    # link. Default 1 = the pure ratio gate (the reference's rule, and
    # what every SQL oracle mirrors). Short-doc corpora need 2: a
    # ~200-char doc carries only ~5 windows, so ONE chance window
    # collision already clears the 0.2 ratio — measured at 25M docs
    # (BASELINE.md round 5: ~430 spurious cross-corpus links per 1.5M
    # singletons at min_shared=1, 0 at 2; real contained fragments
    # share every window of the fragment and are unaffected).
    containment_min_shared: int = 1
    containment_max_postings: int = 10  # fp keys shared by more docs are site-wide boilerplate -> dropped
    substring_min_len: int = 64  # exact full-substring pass: min inner-doc bytes

    # --- decontamination (graft extension; eval-set k-gram overlap)
    # eval shingle-key sets up to this size broadcast (one sorted u64
    # array in plasma, ~8 B/key -> 400 MB at the cap); larger eval sets
    # route to the posting exchange
    decon_broadcast_max_keys: int = 50_000_000

    # --- no longer routes anything: run_dedup_scale is the only dedup
    # engine at every corpus size. The field stays so existing callers
    # that override it (the benchmark's workloads) keep working.
    scale_min_docs: int = 10_000

    # --- streaming phase-1 (VERDICT r4 #3): at or above this doc count
    # run_dedup_auto asks run_dedup_scale to cache the corpus ONCE as
    # disk-backed parquet under ``stream_spill_dir`` (a streaming
    # write — blocks land on disk as their tasks finish) and read it
    # into the object store once. The engine's doc_id-keyed text split
    # is held until the run returns in both modes; the stream path
    # drops its input copy once the split and signature waves hold it,
    # where the materialize path pins the materialized corpus for the
    # whole run. Requires ``stream_spill_dir``; with the dir unset
    # (default) the engine materializes as before — re-reading from
    # disk is the right trade only when the corpus outgrows the store.
    scale_stream_min_docs: int = 5_000_000
    stream_spill_dir: str | None = None

    # --- execution
    # batch_size is the rows per map_batches call of compute_signatures
    # and b1dedup's postings, and the extract + band-key batch of the
    # phase-1 store (build_index, dedup_increment,
    # run_dedup_checkpointed; SignatureKernel.band_table). The dedup
    # engine (run_dedup_scale) and the query side of query_index ignore
    # it: they sign once per block, in raw tasks over groups of blocks.
    # Execution only: the checkpoint/index lineage hash leaves it out.
    batch_size: int = 4096

    def __post_init__(self) -> None:
        if self.n_bands * self.rows_per_band != self.n_perms:
            raise ValueError("n_bands * rows_per_band must equal n_perms")

    def with_overrides(self, **kw: Any) -> "DedupConfig":
        return replace(self, **kw)


DEFAULT_CONFIG = DedupConfig()
