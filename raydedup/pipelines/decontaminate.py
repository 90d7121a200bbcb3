"""Cross-corpus decontamination: flag train docs that share word
k-gram shingles with an evaluation corpus.

The LLM-training analog of the reference's query-against-index
contract (``cli/Query.java:60-93``: stored index = the protected set,
every incoming doc is a query, any fingerprint overlap is a hit): the
eval corpus is "stored", every train doc is probed against it, and a
doc is contaminated when it shares >= ``min_hits`` distinct k-gram
shingles with ANY eval doc (the published eval-set decontamination
convention — verbatim n-gram overlap).

Two distribution shapes, auto-selected on the eval key count:

- **broadcast** (the real-world case: eval sets are MBs, train is TBs):
  eval shingle keys are unique'd per block in a distributed map, packed
  into ONE sorted u64 array by a remote task, and served zero-copy from
  plasma to every train task, which membership-tests its batch with one
  ``searchsorted``. The train side never shuffles — the pipeline
  streams at read speed, which is what makes this shape hold at 100 TB.
- **exchange** (eval too large to broadcast — above
  ``cfg.decon_broadcast_max_keys``): shingle postings of both sides are
  co-partitioned by key (``hash_exchange_join``), each bucket semi-joins
  train postings against the eval key set, and per-doc partial hit
  counts are summed in a second (tiny) exchange keyed on doc_id.

Both shapes return identical tables (tested against each other and a
naive reference). Per-doc shingle sets reuse the signature stage's
vectorized front half (``batch_shingle_sets``) — identical tokenization
and hashing to the flagship pipeline, so the SQL shingle recipe that
oracle-checks ``shingle_counts`` also oracle-checks this.

Short-doc caveat (inherited from ``batch_shingle_sets``): a doc with
fewer than ``shingle_k`` tokens contributes its whole text as a single
synthetic shingle (FNV of the raw text) rather than zero shingles.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
from ray.data import Dataset

from raydedup.config import DedupConfig
from raydedup.hashing import U64
from raydedup.util import arrow_block_refs

I64 = np.int64

_DECON_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_shingles", pa.int64()),
        ("n_contaminated", pa.int64()),
        ("contaminated", pa.int64()),
    ]
)


def _shingle_sets(t: pa.Table, cfg: DedupConfig) -> list[np.ndarray]:
    from raydedup.stages.signatures import batch_shingle_sets

    return batch_shingle_sets(t.column("text").combine_chunks(), cfg)


def _eval_key_blocks(eval_docs: Dataset, cfg: DedupConfig) -> list:
    """Distributed per-block unique eval shingle keys: (key:int64) blocks."""

    def keys_batch(t: pa.Table) -> pa.Table:
        sets = _shingle_sets(t, cfg)
        flat = (
            np.unique(np.concatenate(sets))
            if sets
            else np.empty(0, dtype=U64)
        )
        return pa.table({"key": pa.array(flat.view(I64), type=pa.int64())})

    return list(
        arrow_block_refs(
            eval_docs.select_columns(["text"])
            .map_batches(keys_batch, batch_format="pyarrow")
        )
    )


@ray.remote(num_returns=2)
def _pack_eval_keys(*blocks: pa.Table):
    """Merge per-block key sets into one sorted unique u64 array.

    Returns (n_keys, keys) as two objects so the driver can fetch the
    8-byte count to pick broadcast-vs-exchange without pulling the
    array out of plasma.
    """
    arrs = [
        b.column("key").to_numpy(zero_copy_only=False).view(U64)
        for b in blocks
        if b.num_rows
    ]
    keys = np.unique(np.concatenate(arrs)) if arrs else np.empty(0, dtype=U64)
    return int(keys.shape[0]), keys


def _membership_counts(
    sets: list[np.ndarray], keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(n_shingles, n_hits) per doc: one searchsorted over the batch's
    concatenated shingle sets instead of a per-doc probe loop."""
    n = len(sets)
    lens = np.fromiter((s.shape[0] for s in sets), dtype=I64, count=n)
    if n == 0 or int(lens.sum()) == 0:
        return lens, np.zeros(n, dtype=I64)
    flat = np.concatenate(sets)
    if keys.shape[0] == 0:
        return lens, np.zeros(n, dtype=I64)
    found = _sorted_membership(keys, flat).astype(I64)
    offsets = np.concatenate([[0], np.cumsum(lens)])
    # reduceat needs nonempty segments: empty docs get a 0 afterwards
    nz = lens > 0
    hits = np.zeros(n, dtype=I64)
    if nz.any():
        hits[nz] = np.add.reduceat(found, offsets[:-1][nz])
    return lens, hits


def _sorted_membership(keys: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Boolean mask: probes present in the sorted-unique ``keys`` array."""
    idx = np.searchsorted(keys, probes)
    valid = idx < keys.shape[0]
    out = np.zeros(probes.shape[0], dtype=bool)
    if valid.any():
        out[valid] = keys[idx[valid]] == probes[valid]
    return out


def _decon_broadcast(
    train: Dataset, keys_ref, cfg: DedupConfig, min_hits: int
) -> Dataset:
    def score(t: pa.Table) -> pa.Table:
        keys = ray.get(keys_ref)
        sets = _shingle_sets(t, cfg)
        lens, hits = _membership_counts(sets, keys)
        return pa.table(
            {
                "doc_id": t.column("doc_id").cast(pa.int64()),
                "n_shingles": pa.array(lens, type=pa.int64()),
                "n_contaminated": pa.array(hits, type=pa.int64()),
                "contaminated": pa.array(
                    (hits >= min_hits).astype(I64), type=pa.int64()
                ),
            }
        )

    return train.select_columns(["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow"
    )


def _decon_exchange(
    train: Dataset, eval_blocks: list, cfg: DedupConfig, min_hits: int
) -> Dataset:
    """Posting-exchange shape for eval sets too large to broadcast.

    The train corpus is shingled exactly ONCE: the pass emits posting
    rows (is_count=0) and one per-doc count row (is_count=1, key =
    n_shingles) in the same table, split by filter downstream — this is
    the regime where shingling dominates cost, so a second full pass
    just to recover per-doc totals would double pipeline compute."""
    import pyarrow.compute as pc

    from raydedup.stages.exchange import hash_exchange_apply, hash_exchange_join

    def train_pass(t: pa.Table) -> pa.Table:
        sets = _shingle_sets(t, cfg)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
        lens = np.fromiter((s.shape[0] for s in sets), dtype=I64, count=len(sets))
        flat = np.concatenate(sets) if sets else np.empty(0, dtype=U64)
        key = np.concatenate([flat.view(I64), lens])
        doc = np.concatenate([np.repeat(ids, lens), ids])
        tag = np.concatenate(
            [np.zeros(flat.shape[0], dtype=np.int8), np.ones(ids.shape[0], dtype=np.int8)]
        )
        return pa.table(
            {
                "key": pa.array(key, type=pa.int64()),
                "doc_id": pa.array(doc, type=pa.int64()),
                "is_count": pa.array(tag, type=pa.int8()),
            }
        )

    combined = (
        train.select_columns(["doc_id", "text"])
        .map_batches(train_pass, batch_format="pyarrow")
        .materialize()  # two consumers below; lazy would re-shingle
    )
    tpost = combined.map_batches(
        lambda t: t.filter(pc.equal(t.column("is_count"), 0)).select(
            ["key", "doc_id"]
        ),
        batch_format="pyarrow",
    )
    doc_counts = combined.map_batches(
        lambda t: t.filter(pc.equal(t.column("is_count"), 1)).select(
            ["key", "doc_id"]
        ),
        batch_format="pyarrow",
    )

    def bucket_hits(tl: pa.Table, te: pa.Table) -> pa.Table:
        if tl.num_rows == 0 or te.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "hits": pa.array([], pa.int64()),
                }
            )
        ek = np.unique(te.column("key").to_numpy(zero_copy_only=False))
        tk = tl.column("key").to_numpy(zero_copy_only=False)
        td = tl.column("doc_id").to_numpy(zero_copy_only=False)
        found = _sorted_membership(ek, tk)
        if not found.any():
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "hits": pa.array([], pa.int64()),
                }
            )
        hd = np.sort(td[found])
        b = np.empty(hd.shape[0], dtype=bool)
        b[0] = True
        b[1:] = hd[1:] != hd[:-1]
        starts = np.flatnonzero(b)
        cnt = np.diff(np.append(starts, hd.shape[0]))
        return pa.table(
            {
                "doc_id": pa.array(hd[starts], type=pa.int64()),
                "hits": pa.array(cnt.astype(I64), type=pa.int64()),
            }
        )

    partial_refs = hash_exchange_join(tpost, eval_blocks, "key", "key", bucket_hits)

    def sum_hits(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        d = t.column("doc_id").to_numpy(zero_copy_only=False)
        h = t.column("hits").to_numpy(zero_copy_only=False)
        order = np.argsort(d, kind="stable")
        d, h = d[order], h[order]
        b = np.empty(d.shape[0], dtype=bool)
        b[0] = True
        b[1:] = d[1:] != d[:-1]
        starts = np.flatnonzero(b)
        return pa.table(
            {
                "doc_id": pa.array(d[starts], type=pa.int64()),
                "hits": pa.array(np.add.reduceat(h, starts), type=pa.int64()),
            }
        )

    # per-(doc, key) postings are unique, so cross-bucket partials sum;
    # the summed hit table only holds contaminated docs -> small ->
    # broadcast back onto the per-doc shingle counts
    hits_tbl = hash_exchange_apply(partial_refs, "doc_id", sum_hits)
    hd = np.asarray(
        hits_tbl.column("doc_id").to_numpy(zero_copy_only=False), dtype=I64
    )
    hh = np.asarray(hits_tbl.column("hits").to_numpy(zero_copy_only=False), dtype=I64)
    order = np.argsort(hd, kind="stable")
    hits_ref = ray.put((hd[order], hh[order]))

    def attach(t: pa.Table) -> pa.Table:
        # (key=n_shingles, doc_id) count rows — no text, no re-shingling
        lens = t.column("key").to_numpy(zero_copy_only=False).astype(I64)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
        hdd, hhh = ray.get(hits_ref)
        hits = np.zeros(ids.shape[0], dtype=I64)
        if hdd.shape[0]:
            ok = _sorted_membership(hdd, ids)
            hits[ok] = hhh[np.searchsorted(hdd, ids[ok])]
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_shingles": pa.array(lens, type=pa.int64()),
                "n_contaminated": pa.array(hits, type=pa.int64()),
                "contaminated": pa.array(
                    (hits >= min_hits).astype(I64), type=pa.int64()
                ),
            }
        )

    return doc_counts.map_batches(attach, batch_format="pyarrow")


def decontaminate(
    train: Dataset,
    eval_docs: Dataset,
    cfg: DedupConfig | None = None,
    min_hits: int = 1,
    method: str = "auto",
) -> Dataset:
    """train(doc_id, text) x eval(doc_id, text) -> one row per TRAIN doc:
    (doc_id, n_shingles, n_contaminated, contaminated) where
    ``n_contaminated`` counts the doc's distinct shingles that occur
    anywhere in the eval corpus and ``contaminated`` is the 0/1 flag
    ``n_contaminated >= min_hits`` (int for oracle parity).

    ``method``: "auto" picks broadcast when the packed eval key count is
    <= cfg.decon_broadcast_max_keys, else the posting exchange;
    "broadcast"/"exchange" force a shape (results identical).
    """
    cfg = cfg or DedupConfig()
    if method not in ("auto", "broadcast", "exchange"):
        raise ValueError(f"unknown decontaminate method: {method!r}")
    eval_blocks = _eval_key_blocks(eval_docs, cfg)
    if method == "exchange":
        return _decon_exchange(train, eval_blocks, cfg, min_hits)
    n_ref, keys_ref = _pack_eval_keys.remote(*eval_blocks)
    if method == "auto" and ray.get(n_ref) > cfg.decon_broadcast_max_keys:
        return _decon_exchange(train, eval_blocks, cfg, min_hits)
    return _decon_broadcast(train, keys_ref, cfg, min_hits)


def decontaminate_scrub(
    train: Dataset,
    eval_docs: Dataset,
    cfg: DedupConfig | None = None,
) -> Dataset:
    """Span-level decontamination: REMOVE eval-overlapping k-gram spans
    from train docs instead of dropping the docs.

    Every train token covered by at least one word-k-gram window whose
    hash appears in the eval corpus's shingle set is deleted; the
    remaining tokens re-join with single spaces (whitespace-normalizing,
    the same convention as chunking — the scrub rewrites ``text`` and
    appends ``n_removed``). The doc-level pass (``decontaminate``)
    answers "which docs are tainted"; this one salvages the clean
    remainder — the span variant used when eval sets share boilerplate
    with otherwise-good pages.

    Scale shape: eval keys are the broadcast sorted-unique hash array
    (``ray.put`` once — eval sets are MBs against TB train, the
    documented decontaminate assumption); the train pass is stateless
    map_batches — one split + one rolling-hash pass + one searchsorted
    per batch, coverage via the diff/cumsum interval trick, string
    rebuild via LargeListArray + binary_join. Zero train-side shuffle.
    """
    import pyarrow.compute as pc

    from raydedup.stages.signatures import (
        _WORD_CACHE,
        batch_word_hashes,
        rolling_hash_segments,
        tokenize,
    )

    cfg = cfg or DedupConfig()
    k = cfg.shingle_k
    eval_blocks = _eval_key_blocks(eval_docs.select_columns(["text"]), cfg)
    _, keys_ref = _pack_eval_keys.remote(*eval_blocks)

    def scrub(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return t
        keys = ray.get(keys_ref)
        col = t.column("text")
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        arr = pc.fill_null(arr, "")
        n = len(arr)
        out_text: list = [None] * n
        out_removed = np.zeros(n, dtype=I64)
        ascii_mask = pc.string_is_ascii(arr).to_numpy(zero_copy_only=False)
        if ascii_mask.any():
            fast_idx = np.flatnonzero(ascii_mask)
            fast_arr = arr.filter(pa.array(ascii_mask))
            # lowered hashes for matching
            flat, offs = batch_word_hashes(fast_arr)
            # original-case tokens with the SAME empty-filtering layout
            toks = pc.utf8_split_whitespace(fast_arr)
            t_offs = toks.offsets.to_numpy().astype(I64)
            vals = toks.values
            if t_offs[0] != 0 or len(vals) != t_offs[-1]:
                vals = vals.slice(t_offs[0], t_offs[-1] - t_offs[0])
            keep_tok = pc.not_equal(vals, "").to_numpy(zero_copy_only=False)
            vals = vals.filter(pa.array(keep_tok))
            h, ws, we = rolling_hash_segments(flat, offs, k)
            # valid-window mask (windows inside a doc's [ws, we) range)
            nv = h.shape[0]
            cov_w = np.zeros(nv + 1, dtype=np.int32)
            np.add.at(cov_w, ws, 1)
            np.add.at(cov_w, we, -1)
            valid = np.cumsum(cov_w[:-1]) > 0
            hit = valid & _sorted_membership(keys, h)
            # token coverage: matched window at p covers tokens [p, p+k)
            cov = np.zeros(flat.shape[0] + k, dtype=np.int32)
            p = np.flatnonzero(hit)
            np.add.at(cov, p, 1)
            np.add.at(cov, p + k, -1)
            covered = np.cumsum(cov[: flat.shape[0]]) > 0
            keep = ~covered
            lens = np.diff(offs)
            kept_per_doc = np.zeros(lens.shape[0], dtype=I64)
            doc_of = np.repeat(np.arange(lens.shape[0], dtype=I64), lens)
            np.add.at(kept_per_doc, doc_of[keep], 1)
            loffs = np.zeros(lens.shape[0] + 1, dtype=I64)
            np.cumsum(kept_per_doc, out=loffs[1:])
            lst = pa.LargeListArray.from_arrays(
                pa.array(loffs, pa.int64()),
                pc.cast(vals.filter(pa.array(keep)), pa.large_string()),
            )
            joined = pc.binary_join(lst, pa.scalar(" ", pa.large_string()))
            if ascii_mask.all():
                # whole batch ASCII (the common case): zero-copy column
                t = t.set_column(
                    t.schema.get_field_index("text"),
                    "text",
                    pc.cast(joined, t.schema.field("text").type),
                )
                return t.append_column(
                    "n_removed", pa.array(lens - kept_per_doc, pa.int64())
                )
            for pos, d in enumerate(fast_idx):
                out_text[d] = joined[pos].as_py()
                out_removed[d] = int(lens[pos] - kept_per_doc[pos])
        slow_idx = np.flatnonzero(~ascii_mask)
        if slow_idx.shape[0]:
            texts = arr.to_pylist()
            for d in slow_idx:
                orig = texts[d].split()
                wh = _WORD_CACHE.hash_words(tokenize(texts[d]))
                if wh.shape[0] >= k:
                    from raydedup.hashing import rolling_hash_u64

                    hw = rolling_hash_u64(wh, k)
                    hitp = np.flatnonzero(_sorted_membership(keys, hw))
                    cov = np.zeros(wh.shape[0] + k, dtype=np.int32)
                    np.add.at(cov, hitp, 1)
                    np.add.at(cov, hitp + k, -1)
                    covered = np.cumsum(cov[: wh.shape[0]]) > 0
                else:
                    covered = np.zeros(len(orig), dtype=bool)
                kept = [w for w, c in zip(orig, covered) if not c]
                out_text[d] = " ".join(kept)
                out_removed[d] = len(orig) - len(kept)
        t = t.set_column(
            t.schema.get_field_index("text"),
            "text",
            pc.cast(
                pa.array(out_text, pa.large_string()),
                t.schema.field("text").type,
            ),
        )
        return t.append_column("n_removed", pa.array(out_removed, pa.int64()))

    return train.map_batches(scrub, batch_format="pyarrow")
