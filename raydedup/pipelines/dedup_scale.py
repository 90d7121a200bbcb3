"""The dedup engine: nothing corpus-proportional on the driver.

The graft's primary lifecycle — transplant of ``panako deduplication``
(``cli/Deduplication.java:90-108``: store the whole corpus, then monitor
every file against the index with ``avoid={self}``). Every intermediate
stays as object-store refs, so the driver never holds candidate pairs,
verified edges or the component map:

  exact dedup: sha256 hash exchange -> (group min, member) edges
    (``Deduplication.java:66-88``; kernels in pipelines/dedup.py)
  band keys -> band postings -> band_key split: one split wave over the
    materialized corpus blocks, submitted without a driver wait
  postings -> exchange (refs) -> pair combine exchange (refs): the
    inverted near-hash lookup (``PanakoStorageKV.java:293-379``)
  verification: two co-partitioned exchange joins against the docs
    table, exact Jaccard (``OlafStrategy.java:331-453``)
  clustering: leaf tasks contract groups of edge refs to spanning
  forests, one merge task contracts those (stages/cluster_scale)
  assignment: docs x forest exchange join -> Dataset of refs

The stage graph is written once, in ``run_dedup_scale``; checkpointing
is a per-stage policy on it. Without a checkpoint the stages run with
no barrier and overlap; with an ExchangeCheckpoint each exchange stage
commits its per-bucket outputs to Parquet, and a resumed run loads the
committed stages instead of re-running them (the checkpointed
``run_dedup_checkpointed`` in state/checkpoint.py uses it that way).

The driver sees per-bucket row counts — bytes, independent of corpus
size. Containment sweeps cluster REPRESENTATIVES only (the SURVEY §3.3
sweep; ``OlafStrategy.java:561-573`` monitor-window analog): the round-1
component forest filters the fingerprint postings via an exchange join
(never a collected member set), and a second clustering round merges
the containment links back in. Exact-dup members are dropped from the
shingle demand by a refs-only anti-join: a member's pairs are mirrored
by its byte-identical representative's pairs, so connectivity is
preserved while member shingle payloads never enter the verification
exchanges.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd
from ray.data import Dataset

from raydedup.config import DedupConfig
from raydedup.stages.candidates import POSTINGS_SCHEMA, band_postings_table
from raydedup.stages.cluster_scale import (
    ASSIGNMENT_SCHEMA,
    assign_roots,
    cluster_edge_refs,
)
from raydedup.stages.containment import _emit_fp_pairs, fingerprint_postings_table
from raydedup.stages.exchange import reduce_wave, split_dataset
from raydedup.util import arrow_block_refs

if TYPE_CHECKING:
    from raydedup.state.checkpoint import ExchangeCheckpoint


@dataclass
class DedupScaleResult:
    clusters: Dataset
    metrics: dict[str, Any] = field(default_factory=dict)


@ray.remote
def _count_rows(t: pa.Table) -> int:
    """Rows of one stage bucket."""
    return t.num_rows


# --- module-level stage kernels of run_dedup_scale's stage graph --------


@ray.remote
def _member_table(t: pa.Table) -> pa.Table:
    """sha edge table -> exact-dup MEMBER ids (the ``b`` side)."""
    return pa.table({"m": t.column("b")})


_DOC_TEXT_SCHEMA = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])


def _doc_text(b: pa.Table) -> pa.Table:
    """A corpus block's ``doc_id,text`` projection (typed empty for a
    0-column block)."""
    if not b.num_columns:
        return _DOC_TEXT_SCHEMA.empty_table()
    return b.select(["doc_id", "text"])


def _signature_postings(cfg: DedupConfig, b: pa.Table) -> pa.Table:
    """The signature wave's split prep: one block -> its band postings.
    A block with ``text`` (a corpus block, any other columns ignored) is
    signed here, once per block, so the kernel's working set is a
    block, whatever the group size; only its band keys are computed
    (SignatureKernel.band_table). A block without ``text`` already
    holds signatures (``doc_id,bands``, the phase-1 signature parquet)
    and is used as it is."""
    from raydedup.pipelines.dedup import _kernel

    if not b.num_rows:
        return POSTINGS_SCHEMA.empty_table()
    if "text" in b.column_names:
        b = _kernel(cfg, False).band_table(_doc_text(b))
    return band_postings_table(b, cfg.n_bands)


def _signature_wave(block_refs: list, cfg: DedupConfig, num_buckets: int) -> list:
    """Submit the fused band keys -> band postings -> band_key split wave
    over corpus (or ``doc_id,bands`` signature) block refs, without
    waiting on it: one split_dataset wave whose ``prep`` signs each
    block. Returns the wave (``wave[i][k]``) for candidate_pair_refs's
    exchange-1 reduce."""
    return split_dataset(
        block_refs,
        "band_key",
        num_buckets,
        prep=functools.partial(_signature_postings, cfg),
        name="signatures",
    )


@ray.remote
def _pair_id_table(t: pa.Table) -> pa.Table:
    """candidate pair bucket -> distinct demanded doc ids."""
    ids = np.unique(
        np.concatenate(
            [
                t.column("a").to_numpy(zero_copy_only=False),
                t.column("b").to_numpy(zero_copy_only=False),
            ]
        )
        if t.num_rows
        else np.empty(0, dtype=np.int64)
    )
    return pa.table({"doc_id": pa.array(ids.astype(np.int64), type=pa.int64())})


def _drop_members(left: pa.Table, members: np.ndarray) -> pa.Table:
    """``left`` without the rows whose ``doc_id`` is in ``members``. A
    sorted probe (searchsorted), not a hash set: drop_forest_member_rows
    runs it over the containment postings, the engine's largest table."""
    if members.shape[0] == 0 or left.num_rows == 0:
        return left
    members = np.sort(members)
    ids = left.column("doc_id").to_numpy(zero_copy_only=False)
    pos = np.minimum(np.searchsorted(members, ids), members.shape[0] - 1)
    return left.filter(pa.array(members[pos] != ids))


def _drop_member_ids(left: pa.Table, right: pa.Table) -> pa.Table:
    """left = a bucket keyed by ``doc_id``, right = member ids bucket
    (column ``m``; no columns when empty): drop left rows that are
    exact-dup members."""
    if right.num_rows == 0:
        return left
    return _drop_members(left, right.column("m").to_numpy(zero_copy_only=False))


def make_drop_exact_then_explode(window: int, stride: int):
    """Containment explode kernel: drop exact-dup members (right,
    column ``m``) from a docs bucket, then winnow-explode fingerprints."""

    def drop_exact_then_explode(left: pa.Table, right: pa.Table) -> pa.Table:
        return fingerprint_postings_table(_drop_member_ids(left, right), window, stride)

    return drop_exact_then_explode


def make_filter_and_shingle(cfg: DedupConfig):
    """Demand-side shingle kernel: keep only demanded docs, compute
    their packed shingle sets once with the vectorized batch kernel."""
    from raydedup.stages.verify import packed_shingle_table

    def filter_and_shingle(ids_tbl: pa.Table, docs_tbl: pa.Table) -> pa.Table:
        wanted = np.unique(ids_tbl.column("doc_id").to_numpy(zero_copy_only=False))
        if docs_tbl.num_rows and wanted.shape[0]:
            ids = docs_tbl.column("doc_id").to_numpy(zero_copy_only=False)
            docs_tbl = docs_tbl.filter(pa.array(np.isin(ids, wanted)))
        else:
            docs_tbl = docs_tbl.slice(0, 0)
        return packed_shingle_table(docs_tbl, cfg)

    return filter_and_shingle


def drop_forest_member_rows(left: pa.Table, right: pa.Table) -> pa.Table:
    """Drop left rows (keyed by ``doc_id``) that are near-dup MEMBERS of
    the forest ``right`` (a=root, b=member, member rows have a != b)."""
    ra = right.column("a").to_numpy(zero_copy_only=False)
    rb = right.column("b").to_numpy(zero_copy_only=False)
    return _drop_members(left, rb[ra != rb])


def make_combine_containment(min_cov: float, min_shared: int = 1):
    """Containment pair combiner: aggregate shared-fingerprint partials
    and keep pairs with coverage >= ``min_cov`` AND shared >=
    ``min_shared`` (the short-doc chance-collision floor,
    cfg.containment_min_shared — same gate as stages/containment.py)."""

    from raydedup.stages.containment import score_containment_agg

    def combine_containment(t: pa.Table) -> pa.Table:
        return score_containment_agg(t, min_cov, min_shared).select(["a", "b"])

    return combine_containment


def _auto_buckets(n_docs: int) -> int:
    """Exchange width sized to the corpus: every bucket below ~3k docs
    is a task whose fixed latency outweighs its work, so small corpora
    run narrow (fewer task waves per exchange) and the width saturates
    at 64 where per-bucket memory bounding takes over."""
    return int(min(64, max(8, n_docs // 3000)))


def _auto_shards(n_docs: int) -> int:
    """Width of the clustering task DAG (leaf tasks over the edge refs):
    2 leaves below 25k docs, one more per 25k docs, at most 8 — the
    leaves contract in parallel, and the merge task's fan-in stays
    small."""
    return int(min(8, max(2, n_docs // 25_000 + 1)))


def _fingerprint_stats(t: pa.Table) -> pa.Table:
    """One docs block -> one row (n, min/max doc_id, content digest): the
    digest is a wrapping uint64 sum over docs of mix64(doc_id ^ sha
    prefix), so it is independent of row order and block layout."""
    from raydedup.hashing import mix64
    from raydedup.pipelines.dedup import sha_key_table

    k = sha_key_table(t)
    ids = k.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    sha = k.column("sha_key").to_numpy(zero_copy_only=False)
    n = ids.shape[0]
    digest = mix64((ids ^ sha).view(np.uint64)).sum(dtype=np.uint64)
    return pa.table(
        {
            "n": pa.array([n], pa.int64()),
            "lo": pa.array([ids.min() if n else 0], pa.int64()),
            "hi": pa.array([ids.max() if n else 0], pa.int64()),
            "digest": pa.array([digest.view(np.int64)], pa.int64()),
        }
    )


def _docs_fingerprint(docs: Dataset) -> dict:
    """Count, min/max doc_id and order-free content digest of ``docs``,
    from one streaming pass over its (doc_id, text_sha256) columns."""
    stats = docs.select_columns(["doc_id", "text_sha256"]).map_batches(
        _fingerprint_stats, batch_format="pyarrow"
    )
    rows = [r for t in ray.get(arrow_block_refs(stats)) for r in t.to_pylist() if r["n"]]
    if not rows:
        return {"n_docs": 0, "min_doc_id": 0, "max_doc_id": 0, "digest": 0}
    return {
        "n_docs": sum(r["n"] for r in rows),
        "min_doc_id": min(r["lo"] for r in rows),
        "max_doc_id": max(r["hi"] for r in rows),
        "digest": sum(r["digest"] % 2**64 for r in rows) % 2**64,
    }


def _spill_files(spill_dir: str) -> list[list]:
    """Sorted (file name, size) of the spilled parquet files."""
    import glob as _glob

    return [
        [os.path.basename(p), os.path.getsize(p)]
        for p in sorted(_glob.glob(os.path.join(spill_dir, "*.parquet")))
    ]


def _spill_docs_to_parquet(docs: Dataset, spill_dir: str) -> Dataset:
    """Streaming phase-1 input cache (VERDICT r4 #3): write the
    (doc_id, text, text_sha256) projection of ``docs`` to parquet under
    ``spill_dir`` ONCE — ``write_parquet`` is a streaming sink, so each
    block lands on disk as its task finishes and the input lineage is
    never materialized whole — then return a LAZY disk-backed Dataset
    over it; ``count()`` is parquet-metadata-only.

    run_dedup_scale reads the cache into the object store once (its
    shared corpus block refs), and the ``doc_id``-keyed text split made
    from those blocks is held until the run returns, as in the
    materialize path. What the stream path saves is the input copy: the
    driver drops its block refs once the split and signature waves hold
    them (``get_block_refs.cache_clear()``), while the materialize
    path's ``docs`` keeps the materialized corpus pinned until the run
    returns. A complete cache is reused as-is, which also makes the
    ad-hoc streaming path restartable at the phase-1 level.

    The completion marker records a fingerprint: the sorted spilled file
    names with their sizes, plus the count, min/max ``doc_id`` and an
    order-free content digest of the input (see _fingerprint_stats). A
    cache is reused only if its files and THIS input's fingerprint both
    match — a standing spill dir pointed at another corpus, even one of
    the same size, or at edited texts under the same ids, is rebuilt
    instead of silently deduping the old corpus. The input fingerprint
    costs one streaming pass over its (doc_id, text_sha256) columns on
    the reuse path; the build path reads it back from the cache."""
    import json
    import shutil

    import ray.data as rd

    marker = os.path.join(spill_dir, "_SPILL_COMPLETE")
    if os.path.exists(marker):
        try:
            with open(marker) as f:
                rec = json.load(f)
        except ValueError:
            rec = None
        if (
            not isinstance(rec, dict)
            or rec.get("files") != _spill_files(spill_dir)
            or rec.get("input") != _docs_fingerprint(docs)
        ):
            os.remove(marker)
    if not os.path.exists(marker):
        tmp = spill_dir.rstrip("/") + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        docs.select_columns(["doc_id", "text", "text_sha256"]).write_parquet(tmp)
        shutil.rmtree(spill_dir, ignore_errors=True)
        os.replace(tmp, spill_dir)
        files = _spill_files(spill_dir)
        fp = _docs_fingerprint(
            rd.read_parquet([os.path.join(spill_dir, n) for n, _ in files])
        )
        with open(marker, "w") as f:
            json.dump({"files": files, "input": fp}, f)
    files = [os.path.join(spill_dir, n) for n, _ in _spill_files(spill_dir)]
    return rd.read_parquet(files)


def run_dedup_scale(
    docs: Dataset,
    cfg: DedupConfig | None = None,
    *,
    containment: bool = True,
    substring: bool = False,
    num_buckets: int | None = None,
    n_shards: int | None = None,
    stream_spill_dir: str | None = None,
    ckpt: ExchangeCheckpoint | None = None,
    signatures: Dataset | None = None,
) -> DedupScaleResult:
    """Refs-only dedup of ``docs`` (doc_id, text, text_sha256): every
    stage is submitted as raw Ray tasks over object-store refs, and the
    driver waits only on the final metric counts (and, with
    ``substring``, on the substring stage's driver-side pair table).

    The phase-2 stage graph exists once; ``ckpt`` is its checkpoint
    policy. Each exchange stage (``exact``, ``candidates``, ``verified``,
    ``forest1``, ``containment``, ``substring_edges``, ``forest2``) is
    submitted as ``stage(name, thunk)``. Without a checkpoint that is
    ``thunk()``: no barrier, and the stages overlap. With an
    ExchangeCheckpoint (state/checkpoint.py) it is ``ckpt.run``: a stage
    already committed loads its buckets from disk, a computed one
    commits its buckets before the next stage starts, so a crash resumes
    from the last committed exchange. The inputs several stages share
    (corpus block refs, doc and member splits, containment explode) are
    built on first use: a resume builds only what its remaining stages
    need, and without a checkpoint each is built up front where its
    work overlaps the signature stage. Clustering is a task DAG
    (stages/cluster_scale.cluster_edge_refs, ``n_shards`` leaves):
    ``forest1`` over the exact and verified edges, then, when
    containment or substring links are on, ``forest2`` over ``forest1``
    plus those links. Under a checkpoint ``docs`` is not materialized;
    pass a Dataset that is cheap to re-read (the phase-1 parquet) or
    already materialized.

    Without a checkpoint or ``stream_spill_dir`` no Ray Data plan runs
    after ``docs.materialize()``: the materialized block refs are taken
    as they are, and the text split, the sha split and the signature
    wave project the columns they read inside their own tasks. With
    either, the input is parquet, read once as its ``doc_id, text,
    text_sha256`` projection. The signature stage is one split_dataset
    wave whose ``prep`` computes band keys only and their band
    postings, so ``cfg.batch_size`` does not shape it. ``signatures``
    (doc_id, bands; the phase-1 signature parquet) feeds that wave
    precomputed signatures instead of text; they must be signed over
    the text the run dedups, so not over raw text with
    ``cfg.normalize``. ``stream_spill_dir`` caches the input projection
    to parquet once (see _spill_docs_to_parquet).

    An input without docs returns an empty typed assignment."""
    from raydedup.pipelines.dedup import sha_emit_table, sha_key_table
    from raydedup.stages.candidates import candidate_pair_refs
    from raydedup.stages.verify import make_attach_a, make_attach_b_verify

    cfg = cfg or DedupConfig()
    t0 = time.perf_counter()
    metrics: dict[str, Any] = {}

    if cfg.normalize:
        from raydedup.stages.textnorm import normalized_docs

        docs = normalized_docs(docs)
    if stream_spill_dir is not None:
        # streaming phase-1: one pass to disk, read back once; no
        # materialized input copy stays pinned for the run (the
        # extraction/normalize lineage also runs exactly once, into the
        # cache). The text split is held until return either way.
        docs = _spill_docs_to_parquet(docs, stream_spill_dir)
        metrics["phase1_mode"] = "stream"
    elif ckpt is None:
        docs = docs.materialize()
        metrics["phase1_mode"] = "materialize"

    n_docs = docs.count()  # materialized or parquet-backed: metadata-only
    metrics["n_docs"] = n_docs
    if n_docs == 0:
        # Ray skips map UDFs on 0-row blocks, so the stage kernels would
        # see schema-less tables; with no docs there is nothing to link
        for name in ("candidate_pairs", "verified_pairs", "n_dup_docs"):
            metrics[name] = 0
        if containment:
            metrics["containment_pairs"] = 0
        if substring:
            metrics["substring_pairs"] = 0
        metrics["t_total"] = time.perf_counter() - t0
        return DedupScaleResult(
            clusters=rd.from_arrow(ASSIGNMENT_SCHEMA.empty_table()), metrics=metrics
        )
    if num_buckets is None:
        num_buckets = _auto_buckets(n_docs)
    if n_shards is None:
        n_shards = _auto_shards(n_docs)

    stage = ckpt.run if ckpt is not None else (lambda _name, thunk: thunk())
    # stamp this run's input on every exchange stage: a checkpoint taken
    # over a different corpus size (shards added since) is invalidated
    # and re-run instead of silently dropping the new docs. The
    # checkpointed wrapper passes a stronger shard-set digest already —
    # keep it; the doc-count stamp is the direct-caller belt (equal-count
    # content swaps are caught by the wrapper's digest, not this default).
    if ckpt is not None and ckpt.input_fp is None:
        ckpt.input_fp = f"n_docs={n_docs}"

    def row_count(name: str, refs: list):
        """Deferred row count of stage ``name``, resolved by calling the
        result: count tasks over its buckets, submitted now; under a
        checkpoint the manifest's n_rows (committed or loaded), so no
        bucket is fetched only to be counted."""
        if ckpt is not None:
            n = ckpt.stage_rows(name)
            return lambda: n
        futs = [_count_rows.remote(r) for r in refs]
        return lambda: int(sum(ray.get(futs)))

    # --- shared stage inputs, built on first use -------------------------
    @functools.cache
    def get_block_refs() -> list:
        # the corpus blocks feed the text split, the sha split and the
        # signature wave, whose tasks each project the columns they
        # read: a materialized corpus hands over its block refs with no
        # Ray Data plan; a parquet input (checkpoint, stream spill) is
        # read once, pruned to the columns those stages read
        if ckpt is None and stream_spill_dir is None:
            return arrow_block_refs(docs)
        return arrow_block_refs(docs.select_columns(["doc_id", "text", "text_sha256"]))

    @functools.cache
    def get_dsplit() -> list:
        return split_dataset(
            get_block_refs(), "doc_id", num_buckets, prep=_doc_text, name="docs_split"
        )

    @functools.cache
    def get_msplit() -> list:
        return split_dataset(
            [_member_table.remote(r) for r in exact_refs], "m", num_buckets,
            name="members_split",
        )

    @functools.cache
    def get_fp_expl() -> list:
        return reduce_wave(
            get_dsplit(),
            make_drop_exact_then_explode(cfg.containment_window, cfg.containment_stride),
            num_buckets,
            right=get_msplit(),
            name="containment_explode",
        )

    if ckpt is None:
        # corpus text split FIRST (async): the full-text split is the
        # pipeline's largest byte mover and depends only on the input;
        # every downstream join (shingle demand, containment explode)
        # consumes it. Launching its tasks before the signature stage
        # overlaps the text movement with signature compute instead of
        # paying for it serially after the candidate barrier.
        get_dsplit()

    # --- stage: exact sha edges (refs) --------------------------------
    # its own split wave over the corpus blocks (keyed in-task by
    # sha_key_table), not a return of the signature tasks: a checkpoint
    # commits ``exact`` as its own stage, and a resume that loads it
    # must not re-run the signature wave for it
    def _exact() -> list:
        split = split_dataset(
            get_block_refs(), "sha_key", num_buckets, prep=sha_key_table, name="exact_split"
        )
        return reduce_wave(split, sha_emit_table, num_buckets, name="exact")

    exact_refs = stage("exact", _exact)

    # --- stage: LSH candidates (refs) ---------------------------------
    # One split_dataset wave over the corpus (or signature) block refs:
    # each task computes band keys, explodes band postings and splits
    # them on band_key in-task (the split's ``prep``), so
    # exchange 1 of the fused candidate chain consumes the wave
    # directly. Nothing waits on it: every stage below is submitted
    # while signatures compute (a Ray Data map_batches would coalesce
    # small blocks into fewer tasks than CPUs, and collecting its block
    # refs would block the driver until the last one ends). Per-bucket
    # (a, b, n_collisions) tables, never collected.
    def _candidates() -> list:
        blocks = (
            get_block_refs()
            if signatures is None
            else arrow_block_refs(signatures.select_columns(["doc_id", "bands"]))
        )
        return candidate_pair_refs(
            _signature_wave(blocks, cfg, num_buckets), cfg, num_buckets
        )

    cand_refs = stage("candidates", _candidates)
    # the split and wave tasks hold the corpus blocks now; without the
    # driver's refs the store frees them as soon as the waves finish
    get_block_refs.cache_clear()
    # NOTE: counted BEFORE the exact-member drop below — the drop
    # happens implicitly at the attach joins, so the raw LSH candidate
    # volume is the meaningful refs-only metric. Count tasks are
    # submitted now but resolved only at the END: a blocking count here
    # is a full stage barrier that serializes candidates -> verify on
    # the driver.
    cand_count = row_count("candidates", cand_refs)

    # --- refs-only exact-member filter (demand-side) ------------------
    # Candidate pairs touching an exact-dup MEMBER are mirrored by the
    # member's byte-identical representative (identical signature =>
    # identical band pairs), and the sha edge reattaches the member —
    # so instead of anti-joining the (large) pair table, the members
    # are dropped from the SHINGLE DEMAND (tiny id tables, one
    # co-partitioned round): a memberless doc gets no packed-shingle
    # row, and the attach joins below drop its pairs via the lookup
    # found-mask. Connectivity is unchanged while member shingle
    # payloads never enter the verify exchanges.
    if ckpt is None:
        get_msplit()
        # containment explode, OVERLAPPED with verify + clustering: the
        # winnowing text scan only needs docs minus EXACT members (known
        # now); near-dup members found by LSH are dropped from the
        # POSTING rows after round-1 clustering (co-partitioned row
        # filter — postings inherit the doc_id bucketing from dsplit).
        # Same result as exploding after the forest (a member's removal
        # never changes another doc's fingerprints), but the expensive
        # scan runs while the verify and clustering exchanges are in
        # flight.
        if containment:
            get_fp_expl()

    # --- stage: verified edges: refs-only semi-join + packed shingles -
    # The candidate doc-id DEMAND is itself exchanged (never broadcast —
    # at 10^12 docs even the id set outgrows one machine): per-candidate-
    # bucket id tables co-partition with the docs split, each bucket
    # kernel filters its local docs to demanded ids and computes their
    # shingle sets ONCE with the vectorized batch kernel. The full text
    # corpus is split exactly ONE time (the split refs are reused by the
    # containment explode); only candidate shingle payloads move
    # through the two join rounds.
    def _verified() -> list:
        idsplit = split_dataset(
            [_pair_id_table.remote(r) for r in cand_refs], "doc_id", num_buckets,
            name="verify_ids_split",
        )
        id_refs = reduce_wave(
            idsplit, _drop_member_ids, num_buckets, right=get_msplit(),
            name="verify_drop_members",
        )
        # per-bucket packed candidate shingles, already partitioned by
        # hash(doc_id) — usable directly as the right side of both joins
        shingled_refs = reduce_wave(
            [id_refs], make_filter_and_shingle(cfg), num_buckets, right=get_dsplit(),
            name="verify_shingle",
        )
        # attach round 1 re-splits its output on ``b`` in-task (fused),
        # so round 2 consumes the pieces without a separate split wave;
        # pairs whose doc has no shingle row (exact members) drop at
        # the attach
        psplit = split_dataset(cand_refs, "a", num_buckets, name="verify_pairs_split")
        r1 = reduce_wave(
            psplit, make_attach_a(), num_buckets, right=[shingled_refs], out_key="b",
            name="verify_attach_a",
        )
        return reduce_wave(
            r1, make_attach_b_verify(cfg.jaccard_tau), num_buckets, right=[shingled_refs],
            name="verify_attach_b",
        )

    verified_refs = stage("verified", _verified)
    # deferred count (see the candidates note): no driver barrier
    # between verification and clustering submission
    ver_count = row_count("verified", verified_refs)

    # --- stage: round-1 forest: exact + verified LSH edges ------------
    # a leaf-and-merge task DAG (stages/cluster_scale), submitted
    # without a driver wait like every stage above
    forest1_refs = stage(
        "forest1", lambda: cluster_edge_refs(verified_refs + exact_refs, n_shards)
    )

    # --- stage: containment over cluster REPRESENTATIVES only ---------
    # The round-1 forest (exact + near-dup members) filters the
    # fingerprint postings via an exchange join (the representative
    # sweep): members share ~every
    # fingerprint with their representative, so sweeping them only
    # floods the pair exchange with redundant rows. The forest never
    # touches the driver.
    extra_edge_refs: list = []
    if containment:

        def _containment() -> list:
            # left = exploded postings bucket (fp_key, doc_id, n_fp),
            # partitioned by hash(doc_id) like dsplit; right = forest
            # bucket keyed on b, a doc_id, so the two co-partition: drop
            # posting rows of near-dup MEMBERS. The member-drop join
            # re-splits its output on fp_key IN-TASK (fused) — the emit
            # wave consumes the pieces without another full pass over
            # the posting table (the pipeline's biggest)
            fp_wave = reduce_wave(
                [get_fp_expl()],
                drop_forest_member_rows,
                num_buckets,
                right=split_dataset(
                    forest1_refs, "b", num_buckets, name="containment_forest_split"
                ),
                out_key="fp_key",
                name="containment_drop_members",
            )
            cont_cap = cfg.containment_max_postings
            # fused emit -> combine chain (emit wave re-splits on `a`)
            cont_wave = reduce_wave(
                fp_wave,
                lambda t: _emit_fp_pairs(t, cont_cap),
                num_buckets,
                out_key="a",
                name="containment_emit",
            )
            combine = make_combine_containment(
                cfg.containment_min_coverage, cfg.containment_min_shared
            )
            return reduce_wave(cont_wave, combine, num_buckets, name="containment_combine")

        cont_refs = stage("containment", _containment)
        cont_count = row_count("containment", cont_refs)
        extra_edge_refs += cont_refs

    # --- stage: exact substring links over representatives ------------
    # The lossless counterpart of the winnowed containment sweep
    # (stages/substring.py): round-1 near/exact members are dropped from
    # the text split via the co-partitioned forest join (the same
    # member-drop shape as the fingerprint sweep), and the Rabin-Karp
    # window-index join runs over the surviving reps + singletons.
    # Driver cost is O(substring candidate pairs) — the verified-pair
    # order, not the corpus — the one driver-side table this mode keeps.
    if substring:

        def _substring() -> list:
            from raydedup.stages.substring import substring_pairs

            rep_doc_refs = reduce_wave(
                get_dsplit(),
                drop_forest_member_rows,
                num_buckets,
                right=split_dataset(
                    forest1_refs, "b", num_buckets, name="substring_forest_split"
                ),
                name="substring_drop_members",
            )
            sub_tbl, sub_m = substring_pairs(
                rd.from_arrow_refs(rep_doc_refs), min_len=cfg.substring_min_len
            )
            metrics["substring_candidates"] = sub_m["candidates"]
            edges = pa.table(
                {
                    "a": sub_tbl.column("outer_id").cast(pa.int64()),
                    "b": sub_tbl.column("inner_id").cast(pa.int64()),
                }
            )
            return [ray.put(edges)]

        sub_refs = stage("substring_edges", _substring)
        metrics["t_substring_done"] = time.perf_counter() - t0
        sub_count = row_count("substring_edges", sub_refs)
        extra_edge_refs += sub_refs

    forest_name, forest_refs = "forest1", forest1_refs
    if containment or substring:
        # round 2: one more forest DAG over the round-1 forest plus the
        # containment/substring links (the forest's own edges re-attach
        # the members transitively); empty link tables are no-ops
        forest_name = "forest2"
        forest_refs = stage(
            "forest2", lambda: cluster_edge_refs(forest1_refs + extra_edge_refs, n_shards)
        )

    forest_count = row_count(forest_name, forest_refs)
    # --- assignment: docs x forest exchange join ---------------------
    # without a checkpoint the left side is the corpus split, already
    # partitioned on doc_id (the kernel reads only doc_id), so no docs
    # projection runs and nothing waits here; a checkpointed run splits
    # the doc_id column instead of re-reading the text
    doc_split = (
        get_dsplit()
        if ckpt is None
        else split_dataset(
            docs.select_columns(["doc_id"]), "doc_id", num_buckets, name="assign_docs_split"
        )
    )
    asg_refs = reduce_wave(
        doc_split,
        assign_roots,
        num_buckets,
        right=split_dataset(forest_refs, "b", num_buckets, name="assign_forest_split"),
        name="assign",
    )
    # resolve the deferred metric counts (their tasks ran alongside the
    # pipeline; these gets come after all real work has been submitted)
    metrics["candidate_pairs"] = cand_count()
    metrics["verified_pairs"] = ver_count()
    if containment:
        metrics["containment_pairs"] = cont_count()
    if substring:
        metrics["substring_pairs"] = sub_count()
    metrics["n_dup_docs"] = forest_count()
    clusters = rd.from_arrow_refs(asg_refs)
    metrics["t_total"] = time.perf_counter() - t0
    if ckpt is not None:
        metrics["resumed_exchanges"] = list(ckpt.loaded_stages)
    return DedupScaleResult(clusters=clusters, metrics=metrics)


def run_dedup_auto(
    docs: Dataset,
    cfg: DedupConfig | None = None,
    *,
    containment: bool = True,
    substring: bool = False,
    **scale_kw: Any,
) -> DedupScaleResult:
    """run_dedup_scale with the corpus-size policy: above
    ``cfg.scale_stream_min_docs`` a set ``cfg.stream_spill_dir`` turns on
    the streaming phase-1 path (the corpus cached once to disk, with no
    materialized input copy pinned for the run). Records ``metrics["dedup_path"] =
    "scale"``."""
    cfg = cfg or DedupConfig()
    if (
        cfg.stream_spill_dir is not None
        and "stream_spill_dir" not in scale_kw
        and docs.count() >= cfg.scale_stream_min_docs
    ):
        scale_kw = {**scale_kw, "stream_spill_dir": cfg.stream_spill_dir}
    res = run_dedup_scale(
        docs, cfg, containment=containment, substring=substring, **scale_kw
    )
    res.metrics["dedup_path"] = "scale"
    return res
