"""Per-document duplicated-n-gram fraction: for each doc, the share of
its distinct word k-gram shingles that also occur in at least
``min_docs - 1`` OTHER documents.

The corpus-level repetition signal quality pipelines gate on (a doc
whose 5-grams are mostly shared with other pages is boilerplate or a
near-copy even when no single pair crosses the dedup threshold) — the
inter-document complement of the intra-doc repetition scores in
``textstats``. Reuses the flagship signature tokenization
(``batch_word_hashes`` + ``rolling_hash_segments``, identical to the
oracle-checked shingle recipe), so the SQL 5-gram CTE mirrors it
exactly. Docs with fewer than k tokens have no k-grams and emit no row
(same convention as the SQL window recipe).

Scale shape: the fused two-exchange chain from the candidate stage —
exchange 1 co-locates shingle hashes (postings are per-doc distinct,
so a shingle's bucket row count IS its document frequency) and its
reduce tasks emit per-doc partial counts re-split in-task on the doc
key; exchange 2's combine wave sums partials and does the ONE final
IEEE division per doc. No driver materialization; per-row cost is
lexsort + run arithmetic.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray.data import Dataset

I64 = np.int64

OUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_shingles", pa.int64()),
        ("n_dup", pa.int64()),
        ("dup_frac", pa.float64()),
    ]
)


_EMPTY_POSTINGS = pa.table(
    {"sh": pa.array([], pa.int64()), "doc_id": pa.array([], pa.int64())}
)


def _posting_batches(t: pa.Table, k: int) -> pa.Table:
    """One (shingle-hash, doc_id) posting per DISTINCT shingle per doc.
    Docs with < k tokens contribute nothing. Fully vectorized for ASCII
    text (one global rolling pass + one lexsort dedup); non-ASCII rows
    take the per-doc fallback like ``batch_shingle_sets``."""
    import pyarrow.compute as pc

    from raydedup.stages.signatures import batch_word_hashes, rolling_hash_segments

    if t.num_rows == 0 or t.num_columns == 0:
        return _EMPTY_POSTINGS
    from raydedup.hashing import mix64

    texts = pc.fill_null(t.column("text").combine_chunks(), "")
    ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
    ascii_mask = pc.string_is_ascii(texts).to_numpy(zero_copy_only=False)
    sh_parts: list[np.ndarray] = []
    id_parts: list[np.ndarray] = []
    if ascii_mask.any():
        fast_arr = texts.filter(pa.array(ascii_mask))
        fast_ids = ids[ascii_mask]
        flat, offs = batch_word_hashes(fast_arr)
        h, ws, we = rolling_hash_segments(flat, offs, k)
        reps = (we - ws).astype(I64)
        did_full = np.repeat(fast_ids, reps)
        # gather h by the per-doc [ws, we) ranges without a per-doc
        # loop: global arange minus each doc's exclusive prefix, plus
        # its range start
        excl = np.concatenate([[0], np.cumsum(reps)[:-1]]).astype(I64)
        idx = (
            np.arange(did_full.shape[0], dtype=I64)
            - np.repeat(excl, reps)
            + np.repeat(ws.astype(I64), reps)
        )
        # the raw Horner rolling hash has badly-mixed LOW bits (the
        # exchange buckets on key % num_buckets -> ~5x hot buckets);
        # the bijective splitmix64 finalizer uniformizes the buckets
        # while preserving per-doc distinctness
        h_full = (
            mix64(h[idx]) if did_full.shape[0] else np.empty(0, dtype=np.uint64)
        )
        if did_full.shape[0]:
            order = np.lexsort((h_full, did_full))
            ds_, hs_ = did_full[order], h_full[order]
            keep = np.empty(ds_.shape[0], dtype=bool)
            keep[0] = True
            keep[1:] = (ds_[1:] != ds_[:-1]) | (hs_[1:] != hs_[:-1])
            sh_parts.append(hs_[keep])
            id_parts.append(ds_[keep])
    if not ascii_mask.all():
        from raydedup.config import DedupConfig
        from raydedup.stages.signatures import shingle_hashes

        cfg = DedupConfig(shingle_k=k)
        slow_idx = np.flatnonzero(~ascii_mask)
        txts = texts.to_pylist()
        for d in slow_idx:
            words = txts[d].strip().split()
            if len(words) < k:
                continue
            u = np.unique(mix64(shingle_hashes(txts[d], cfg)))
            sh_parts.append(u)
            id_parts.append(np.full(u.shape[0], ids[d], dtype=I64))
    if not sh_parts:
        return _EMPTY_POSTINGS
    return pa.table(
        {
            "sh": pa.array(np.concatenate(sh_parts).view(I64), pa.int64()),
            "doc_id": pa.array(np.concatenate(id_parts), pa.int64()),
        }
    )


def dup_ngram_fraction(
    docs: Dataset,
    k: int = 5,
    min_docs: int = 2,
    num_buckets: int | None = None,
) -> Dataset:
    """docs(doc_id, text) -> (doc_id, n_shingles, n_dup, dup_frac)."""
    from raydedup.stages.exchange import (
        default_buckets,
        reduce_wave,
        refs_to_dataset,
        split_dataset,
    )

    if num_buckets is None:
        num_buckets = default_buckets()

    postings = docs.select_columns(["doc_id", "text"]).map_batches(
        lambda t: _posting_batches(t, k), batch_format="pyarrow"
    )

    def per_shingle(t: pa.Table) -> pa.Table:
        """One shingle bucket: df per shingle by run length, then
        per-doc partial (n_shingles, n_dup)."""
        if t is None or t.num_rows == 0 or t.num_columns == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_shingles": pa.array([], pa.int64()),
                    "n_dup": pa.array([], pa.int64()),
                }
            )
        sh = t.column("sh").to_numpy(zero_copy_only=False)
        did = t.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.argsort(sh, kind="stable")
        sh_s, did_s = sh[order], did[order]
        first = np.empty(sh_s.shape[0], dtype=bool)
        first[0] = True
        first[1:] = sh_s[1:] != sh_s[:-1]
        starts = np.flatnonzero(first)
        run_len = np.diff(starts, append=I64(sh_s.shape[0]))
        df = np.repeat(run_len, run_len)  # document frequency per posting
        dup = (df >= min_docs).astype(I64)
        uniq_doc, inv = np.unique(did_s, return_inverse=True)
        n_sh = np.bincount(inv, minlength=uniq_doc.shape[0]).astype(I64)
        n_dup = np.bincount(inv, weights=dup, minlength=uniq_doc.shape[0]).astype(I64)
        return pa.table(
            {
                "doc_id": pa.array(uniq_doc, pa.int64()),
                "n_shingles": pa.array(n_sh, pa.int64()),
                "n_dup": pa.array(n_dup, pa.int64()),
            }
        )

    def combine(t: pa.Table) -> pa.Table:
        if t is None or t.num_rows == 0 or t.num_columns == 0:
            return OUT_SCHEMA.empty_table()
        did = t.column("doc_id").to_numpy(zero_copy_only=False)
        n_sh = t.column("n_shingles").to_numpy(zero_copy_only=False)
        n_dup = t.column("n_dup").to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(did, return_inverse=True)
        s_sh = np.bincount(inv, weights=n_sh, minlength=uniq.shape[0]).astype(I64)
        s_dup = np.bincount(inv, weights=n_dup, minlength=uniq.shape[0]).astype(I64)
        return pa.table(
            {
                "doc_id": pa.array(uniq, pa.int64()),
                "n_shingles": pa.array(s_sh, pa.int64()),
                "n_dup": pa.array(s_dup, pa.int64()),
                "dup_frac": pa.array(
                    s_dup.astype(np.float64) / s_sh, pa.float64()
                ),
            }
        )

    split1 = split_dataset(postings, "sh", num_buckets)
    wave = reduce_wave(split1, per_shingle, num_buckets, out_key="doc_id")
    refs = reduce_wave(wave, combine, num_buckets)
    return refs_to_dataset(refs, OUT_SCHEMA)
