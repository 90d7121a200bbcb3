"""Bloom-prefiltered cross-corpus anti-join: keep the NEW docs whose
text does not occur in a SEEN corpus.

The operational verb every recurring-crawl pipeline needs — "drop from
this month's crawl everything last month's crawl already had" — and the
canonical place a bloom filter earns its keep at 100 TB: a partitioned
anti-join moves EVERY new row through an all-to-all exchange, while the
bloom resolves the overwhelmingly-common case (unseen) locally inside
``map_batches`` with zero data movement. Reference analog: the
``hasResource`` / duplicate-resource skip on store
(``cli/Store.java:112-121``, checked per file before fingerprinting) —
here lifted to a corpus-vs-corpus set operation.

Exactness contract (the bloom is an OPTIMIZATION, never a semantics
change):

1. Seen side streams once through per-block bloom-build tasks; the
   per-block bit arrays OR-merge in a task tree (associative, so the
   merge is exact and partition-invariant). The finished filter is ONE
   plasma object, read zero-copy by every probe task — ``ray.put``
   once, never re-shipped per batch.
2. New side probes the bloom per batch: bloom-NEGATIVE rows are
   definitively unseen (no false negatives) and are emitted
   immediately — no shuffle, no second pass.
3. Bloom-POSITIVE rows ("maybes": true dups + false positives, a few
   per mille of the corpus at 10 bits/key) are resolved exactly: the
   maybe key-hash set (small) broadcasts back against the seen side,
   which ships ONLY its matching rows into a co-partitioned exchange
   where texts are compared BYTE-FOR-BYTE. A 64-bit hash collision can
   therefore only cost a few extra bytes moved, never a wrong answer.

Scale note: one bloom object covers seen corpora up to
``broadcast_max_keys`` (10 bits/key -> ~1.2 GB per 10^9 docs, a
per-node object-store read on a real cluster). Above the cap the bloom
step is skipped (every new row becomes a "maybe") and the same exact
exchange resolves the full anti-join — correctness is unchanged, only
the local-resolution shortcut is lost.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pyarrow as pa

import ray
from ray.data import Dataset

from raydedup.hashing import U64, mix64, span_hash_u64
from raydedup.stages.substring import _flat_utf8
from raydedup.util import arrow_block_refs, cluster_cpus

BITS_PER_KEY = 10
N_HASHES = 7
_H2_SALT = U64(0x9E3779B97F4A7C15)


def _text_keys(t: pa.Table, text_col: str) -> np.ndarray:
    offs, data = _flat_utf8(t, text_col)
    return span_hash_u64(offs, data)


def _bloom_n_words(n_keys: int, bits_per_key: int) -> int:
    m_bits = 1 << int(max(10, np.ceil(np.log2(max(1, n_keys) * bits_per_key))))
    return m_bits // 64


def _bloom_positions(keys: np.ndarray, n_words: int) -> tuple[np.ndarray, np.ndarray]:
    """(word index, bit mask) for all N_HASHES probes of each key,
    flattened — double hashing h1 + i*h2 with h2 forced odd."""
    mask = U64(n_words * 64 - 1)
    h1 = keys.astype(U64, copy=False)
    h2 = mix64(h1 ^ _H2_SALT) | U64(1)
    pos = (
        (h1[None, :] + np.arange(N_HASHES, dtype=U64)[:, None] * h2[None, :]) & mask
    ).ravel()
    return (pos >> U64(6)).astype(np.int64), U64(1) << (pos & U64(63))


@ray.remote
def _build_block_bloom(n_words: int, text_col: str, *blocks: pa.Table) -> np.ndarray:
    words = np.zeros(n_words, dtype=U64)
    for t in blocks:
        if t.num_rows == 0 or t.num_columns == 0:
            continue
        w_idx, bit = _bloom_positions(_text_keys(t, text_col), n_words)
        np.bitwise_or.at(words, w_idx, bit)
    return words


@ray.remote
def _or_merge(*parts: np.ndarray) -> np.ndarray:
    out = parts[0].copy()
    for p in parts[1:]:
        np.bitwise_or(out, p, out=out)
    return out


def _test_bloom(words: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Boolean mask: key MAYBE present (all N_HASHES bits set)."""
    n_words = words.shape[0]
    w_idx, bit = _bloom_positions(keys, n_words)
    hit = (words[w_idx] & bit) != 0
    return hit.reshape(N_HASHES, -1).all(axis=0)


def unseen_docs(
    new: Dataset,
    seen: Dataset,
    *,
    text_col: str = "text",
    bits_per_key: int = BITS_PER_KEY,
    broadcast_max_keys: int = 2_000_000_000,
    num_buckets: int | None = None,
) -> tuple[Dataset, dict[str, Any]]:
    """Rows of ``new`` whose ``text_col`` value appears nowhere in
    ``seen`` (byte equality). Returns (filtered Dataset with the full
    ``new`` schema, metrics)."""
    n_seen = seen.count()
    metrics: dict[str, Any] = {"n_seen": n_seen}

    words_ref = None
    if 0 < n_seen <= broadcast_max_keys:
        n_words = _bloom_n_words(n_seen, bits_per_key)
        metrics["bloom_bits"] = n_words * 64
        seen_refs = list(arrow_block_refs(seen.select_columns([text_col])))
        group = max(1, len(seen_refs) // max(1, 2 * cluster_cpus()))
        parts = [
            _build_block_bloom.remote(n_words, text_col, *seen_refs[i : i + group])
            for i in range(0, len(seen_refs), group)
        ]
        while len(parts) > 1:  # OR-merge tree, fan-in 8
            parts = [_or_merge.remote(*parts[i : i + 8]) for i in range(0, len(parts), 8)]
        words_ref = parts[0]

    def split_by_bloom(t: pa.Table) -> pa.Table:
        """Tag each new row maybe=True/False; negatives are final."""
        if t.num_rows == 0 or t.num_columns == 0:
            return t
        keys = _text_keys(t, text_col)
        if words_ref is None:
            maybe = np.ones(t.num_rows, dtype=bool) if n_seen else np.zeros(t.num_rows, dtype=bool)
        else:
            maybe = _test_bloom(ray.get(words_ref), keys)
        return t.append_column("__maybe", pa.array(maybe)).append_column(
            "__key", pa.array(keys.view(np.int64))
        )

    def _take_maybe(t: pa.Table, want: bool) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return t
        m = t.column("__maybe").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(m if want else ~m))

    tagged = new.map_batches(split_by_bloom, batch_format="pyarrow").materialize()
    keep_sure = tagged.map_batches(
        lambda t: _take_maybe(t, False), batch_format="pyarrow"
    )
    maybes = tagged.map_batches(
        lambda t: _take_maybe(t, True), batch_format="pyarrow"
    ).materialize()
    n_maybe = maybes.count()
    metrics["maybes"] = n_maybe
    if n_maybe == 0:
        out = keep_sure.map_batches(
            lambda t: t.drop_columns(["__maybe", "__key"]), batch_format="pyarrow"
        )
        metrics["false_positives"] = 0
        return out, metrics

    # exact resolution of the maybes: broadcast their (small) key set,
    # filter seen to matching rows only, then ONE co-partitioned
    # exchange comparing text bytes
    maybe_keys = np.unique(
        np.concatenate(
            [
                t.column("__key").to_numpy(zero_copy_only=False)
                for t in ray.get(arrow_block_refs(maybes))
                if t.num_rows and t.num_columns
            ]
        )
    )
    mk_ref = ray.put(maybe_keys)

    def seen_matching(t: pa.Table) -> pa.Table:
        empty = pa.schema([("__key", pa.int64()), ("__stext", pa.large_string())]).empty_table()
        if t.num_rows == 0 or t.num_columns == 0:
            return empty
        keys = _text_keys(t, text_col)
        mk = ray.get(mk_ref)
        pos = np.minimum(np.searchsorted(mk, keys.view(np.int64)), mk.shape[0] - 1)
        sel = mk[pos] == keys.view(np.int64)
        if not sel.any():
            return empty
        t = t.filter(pa.array(sel))
        import pyarrow.compute as pc

        return pa.table(
            {
                "__key": pa.array(keys.view(np.int64)[sel]),
                "__stext": pc.cast(pc.fill_null(t.column(text_col), ""), pa.large_string()),
            }
        )

    seen_keyed = seen.select_columns([text_col]).map_batches(
        seen_matching, batch_format="pyarrow"
    )

    def anti_kernel(left: pa.Table, right: pa.Table) -> pa.Table:
        """left = maybe rows, right = matching seen rows; keep left rows
        whose text equals NO right text (byte comparison)."""
        if left.num_rows == 0 or left.num_columns == 0:
            return left
        if right.num_rows == 0 or right.num_columns == 0:
            return left
        lk = left.column("__key").to_numpy(zero_copy_only=False)
        rk = right.column("__key").to_numpy(zero_copy_only=False)
        r_order = np.argsort(rk, kind="stable")
        rk_s = rk[r_order]
        lo = np.searchsorted(rk_s, lk, side="left")
        hi = np.searchsorted(rk_s, lk, side="right")
        ltext = left.column(text_col)
        if isinstance(ltext, pa.ChunkedArray):
            ltext = ltext.combine_chunks()
        rtext = right.take(pa.array(r_order)).column("__stext")
        if isinstance(rtext, pa.ChunkedArray):
            rtext = rtext.combine_chunks()
        # vectorized byte-equality over the (left row, matching-key seen
        # row) candidate pairs: run expansion + one Arrow equal kernel —
        # pair volume is bounded by design (true dups + ~per-mille bloom
        # false positives), and no per-row Python remains (ADVICE r3).
        # Null-text contract: nulls normalize to "" on BOTH sides
        # (matching _text_keys' hashing, which already keys a null as
        # the empty span), so a null-text new row IS a duplicate of a
        # seen empty/null text — the pre-r4 per-row loop kept such rows
        # (None != ""), inconsistently with its own key function
        import pyarrow.compute as pc

        keep = np.ones(left.num_rows, dtype=bool)
        cand = np.flatnonzero(hi > lo)
        if cand.shape[0]:
            counts = (hi - lo)[cand]
            total = int(counts.sum())
            l_idx = np.repeat(cand, counts)
            offs = np.concatenate([[0], np.cumsum(counts)[:-1]])
            r_idx = (
                np.arange(total, dtype=np.int64)
                - np.repeat(offs, counts)
                + np.repeat(lo[cand], counts)
            )
            eq = pc.equal(
                pc.fill_null(ltext.take(pa.array(l_idx)), ""),
                rtext.take(pa.array(r_idx)),
            )
            eqn = pc.fill_null(eq, False).to_numpy(zero_copy_only=False)
            keep[l_idx[eqn]] = False
        return left.filter(pa.array(keep))

    from raydedup.stages.exchange import hash_exchange_join

    survivor_refs = hash_exchange_join(
        maybes, seen_keyed, "__key", "__key", anti_kernel, num_buckets
    )
    survivors = [
        t for t in ray.get(survivor_refs) if t.num_rows and t.num_columns
    ]
    n_surv = int(sum(t.num_rows for t in survivors))
    metrics["false_positives"] = n_surv
    metrics["dups_dropped"] = n_maybe - n_surv

    import ray.data as rd

    drop = lambda t: t.drop_columns(["__maybe", "__key"])  # noqa: E731
    out = keep_sure.map_batches(drop, batch_format="pyarrow")
    if survivors:
        out = out.union(
            rd.from_arrow(pa.concat_tables(survivors)).map_batches(
                drop, batch_format="pyarrow"
            )
        )
    return out, metrics
