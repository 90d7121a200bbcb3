"""End-to-end corpus curation funnel: quality filter → eval-set
decontamination → dedup → deterministic sampling.

The "run everything a training-data pipeline runs" composition — each
stage is one of the engine's proven operators, chained in the order a
real curation job applies them (cheap row-local predicates first, the
shuffle last, sampling on the survivors). Every doc gets exactly one
status with FIXED precedence::

    quality < contaminated < exact_dup|near_dup < sampled_out < kept

Scale shape: stages 1–2 are row-local ``map_batches`` over the stream
(the eval key set is a packed broadcast — zero shuffle); the dedup
stage ships ONLY survivors' (doc_id, digest) through one hash exchange
(exact mode) or routes survivors through ``run_dedup_scale`` (near
mode);
sampling is again row-local. Non-survivors never enter the shuffle.

Reference analog: the `store → query → delete` lifecycle
(``cli/Store.java`` + ``cli/Deduplicate.java``) as a single funnel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd
from ray.data import Dataset

from raydedup.config import DedupConfig
from raydedup.hashing import U64, mix64
from raydedup.stages.sampling import DEFAULT_SAMPLE_SEED
from raydedup.util import arrow_block_refs

I64 = np.int64

_STATUS_SCHEMA = pa.schema([("doc_id", pa.int64()), ("status", pa.string())])


@dataclass
class CurateResult:
    statuses: Dataset  # (doc_id, status)
    metrics: dict = field(default_factory=dict)


def _quality_mask(t: pa.Table, p: "CurateParams") -> np.ndarray:
    """Row-local quality predicate — same kernels (and hence the same
    SQL mirrors) as token_counts / quality_scores."""
    from raydedup.stages.textstats import quality_score_batch, token_count_batch

    tok = token_count_batch(t.select(["text"]))
    q = quality_score_batch(t.select(["text"]))
    n_tok = tok.column("n_tokens").to_numpy(zero_copy_only=False)
    punct = q.column("punct_ratio").to_numpy(zero_copy_only=False)
    digit = q.column("digit_ratio").to_numpy(zero_copy_only=False)
    return (
        (n_tok >= p.min_tokens)
        & (n_tok <= p.max_tokens)
        & (punct <= p.max_punct_ratio)
        & (digit <= p.max_digit_ratio)
    )


@dataclass(frozen=True)
class CurateParams:
    min_tokens: int = 20
    max_tokens: int = 1_000_000
    max_punct_ratio: float = 0.10
    max_digit_ratio: float = 0.20
    sample_rate: float = 1.0
    sample_seed: int = DEFAULT_SAMPLE_SEED
    min_hits: int = 1  # contamination threshold (distinct shared shingles)
    near_dedup: bool = False

    def __post_init__(self) -> None:
        # a negative rate would WRAP in u64 threshold space and silently
        # keep ~(1 + rate) of docs — validate like hash_sample does
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {self.sample_rate}"
            )


def _sample_status(ids: np.ndarray, p: CurateParams) -> np.ndarray:
    """Boolean keep-mask of the deterministic Bernoulli sample."""
    if p.sample_rate >= 1.0:
        return np.ones(ids.shape[0], dtype=bool)
    thr = U64(min(int(p.sample_rate * 2.0**64), 2**64 - 1))
    r = mix64(ids.astype(I64).view(U64) ^ U64(p.sample_seed & 0xFFFFFFFFFFFFFFFF))
    return r < thr


def _exact_dup_mark(t: pa.Table) -> pa.Table:
    """One exchange bucket of survivor (doc_id, text_sha256): rows whose
    digest group has a smaller member become exact_dup."""
    if t.num_rows == 0:
        return _STATUS_SCHEMA.empty_table()
    ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
    # sort by (digest, doc_id) in pure numpy: the 32-byte digest as four
    # big-endian u64 lanes (same byte-view trick as sha_key_table)
    raw = (
        np.frombuffer(b"".join(t.column("text_sha256").to_pylist()), dtype=">u8")
        .reshape(-1, 4)
        .astype(np.uint64)
    )
    o = np.lexsort((ids, raw[:, 3], raw[:, 2], raw[:, 1], raw[:, 0]))
    sd = raw[o]
    run_start = np.empty(o.shape[0], dtype=bool)
    run_start[0] = True
    run_start[1:] = np.any(sd[1:] != sd[:-1], axis=1)
    dup = ~run_start
    status = np.where(dup, "exact_dup", "kept")
    return pa.table(
        {
            "doc_id": pa.array(ids[o], type=pa.int64()),
            "status": pa.array(status, type=pa.string()),
        }
    )


def curate(
    docs: Dataset,
    eval_docs: Dataset | None = None,
    cfg: DedupConfig | None = None,
    params: CurateParams | None = None,
) -> CurateResult:
    """docs(doc_id, text, text_sha256) [+ eval_docs(doc_id, text)] ->
    one (doc_id, status) row per input doc, statuses with the module's
    fixed precedence, plus a funnel-count metrics dict."""
    cfg = cfg or DedupConfig()
    p = params or CurateParams()

    keys_ref = None
    if eval_docs is not None:
        from raydedup.pipelines.decontaminate import _eval_key_blocks, _pack_eval_keys

        blocks = _eval_key_blocks(eval_docs, cfg)
        _, keys_ref = _pack_eval_keys.remote(*blocks)

    docs = docs.select_columns(["doc_id", "text", "text_sha256"]).materialize()

    def stage_a(t: pa.Table) -> pa.Table:
        """Row-local verdicts: quality then contamination; survivors
        keep their digest for the dedup exchange."""
        ok = _quality_mask(t, p)
        status = np.where(ok, "kept", "quality").astype(object)
        if keys_ref is not None and ok.any():
            from raydedup.pipelines.decontaminate import (
                _membership_counts,
                _shingle_sets,
            )

            sub = t.filter(pa.array(ok))
            sets = _shingle_sets(sub, cfg)
            _, hits = _membership_counts(sets, ray.get(keys_ref))
            contaminated = hits >= p.min_hits
            idx = np.flatnonzero(ok)
            status[idx[contaminated]] = "contaminated"
        return pa.table(
            {
                "doc_id": t.column("doc_id").cast(pa.int64()),
                "text_sha256": t.column("text_sha256"),
                "status": pa.array(status, type=pa.string()),
            }
        )

    verdicts = docs.map_batches(stage_a, batch_format="pyarrow").materialize()

    import pyarrow.compute as pc

    nonkept = verdicts.map_batches(
        lambda t: t.filter(pc.not_equal(t.column("status"), "kept")).select(
            ["doc_id", "status"]
        ),
        batch_format="pyarrow",
    )

    if p.near_dedup:
        # survivors re-join their text and run the flagship near-dup
        # pipeline; non-representatives of multi-doc clusters -> near_dup.
        # The survivor id set is a driver array (8 B/doc); for the
        # 10^12-doc tier keep it as sharded refs instead.
        from raydedup.pipelines.dedup_scale import run_dedup_scale
        from raydedup.stages.exchange import hash_exchange_apply

        kept_ids = verdicts.map_batches(
            lambda t: t.filter(pc.equal(t.column("status"), "kept")).select(["doc_id"]),
            batch_format="pyarrow",
        )
        kid = np.sort(
            np.concatenate(
                [
                    b.column("doc_id").to_numpy(zero_copy_only=False)
                    for b in ray.get(list(arrow_block_refs(kept_ids)))
                    if b.num_rows
                ]
                or [np.empty(0, dtype=I64)]
            )
        )
        kid_ref = ray.put(kid)

        def keep_docs(t: pa.Table) -> pa.Table:
            wanted = ray.get(kid_ref)
            if wanted.shape[0] == 0:
                return t.slice(0, 0)
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            pos = np.searchsorted(wanted, ids)
            pos[pos == wanted.shape[0]] = 0
            return t.filter(pa.array(wanted[pos] == ids))

        survivors = docs.map_batches(keep_docs, batch_format="pyarrow")
        res = run_dedup_scale(survivors, cfg, containment=False)

        def mark_cluster(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return _STATUS_SCHEMA.empty_table()
            ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
            cl = t.column("cluster_id").to_numpy(zero_copy_only=False).astype(I64)
            order = np.lexsort((ids, cl))
            sc, si = cl[order], ids[order]
            first = np.empty(sc.shape[0], dtype=bool)
            first[0] = True
            first[1:] = sc[1:] != sc[:-1]
            status = np.where(first, "kept", "near_dup")
            return pa.table(
                {
                    "doc_id": pa.array(si, type=pa.int64()),
                    "status": pa.array(status, type=pa.string()),
                }
            )

        marked_refs = hash_exchange_apply(
            res.clusters, "cluster_id", mark_cluster, collect=False
        )
        marked = rd.from_arrow_refs(marked_refs)
    else:
        from raydedup.pipelines.dedup import sha_key_table
        from raydedup.stages.exchange import hash_exchange_apply

        kept = verdicts.map_batches(
            lambda t: sha_key_table(
                t.filter(pc.equal(t.column("status"), "kept")).select(
                    ["doc_id", "text_sha256"]
                )
            ),
            batch_format="pyarrow",
        )
        marked_refs = hash_exchange_apply(kept, "sha_key", _exact_dup_mark, collect=False)
        marked = rd.from_arrow_refs(marked_refs)

    def sample_stage(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        status = t.column("status").to_numpy(zero_copy_only=False).astype(object)
        kept_mask = status == "kept"
        if kept_mask.any() and p.sample_rate < 1.0:
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            keep = _sample_status(ids, p)
            status[kept_mask & ~keep] = "sampled_out"
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "status": pa.array(status, type=pa.string()),
            }
        )

    statuses = marked.map_batches(sample_stage, batch_format="pyarrow").union(nonkept)

    # funnel metrics: per-block partial counts, driver sum (few statuses)
    def count_block(t: pa.Table) -> pa.Table:
        import collections

        c = collections.Counter(t.column("status").to_pylist())
        return pa.table(
            {
                "status": pa.array(list(c.keys()), type=pa.string()),
                "n": pa.array(list(c.values()), type=pa.int64()),
            }
        )

    statuses = statuses.materialize()
    metrics: dict[str, int] = {}
    counted = statuses.map_batches(count_block, batch_format="pyarrow")
    for b in ray.get(list(arrow_block_refs(counted))):
        # Ray emits schema-less empty blocks for 0-row inputs — skip them
        if b.num_rows == 0 or "status" not in b.schema.names:
            continue
        for s, n in zip(b.column("status").to_pylist(), b.column("n").to_pylist()):
            metrics[s] = metrics.get(s, 0) + int(n)
    return CurateResult(statuses=statuses, metrics=metrics)
