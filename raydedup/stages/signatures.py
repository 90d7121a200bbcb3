"""Signature kernel: shingles -> MinHash-128 + SimHash-64 + LSH band keys.

This is the transplant of Panako's whole fingerprint M-block
(spectral transform -> peak picking -> event-point pairing -> 64-bit
hash; ``OlafEventPointProcessor.java:166-370``,
``OlafFingerprint.java:154-196``): one batched NumPy kernel applied via
``map_batches`` over zero-copy Arrow batches. The per-doc "fingerprint
set" is the set of hashed 5-gram shingles; the compact per-doc signature
is 128 MinHash components + one 64-bit SimHash; the index keys are 16
LSH band keys (16 bands x 8 rows) replacing the LMDB ``hash ->
(resourceID, t)`` postings (``PanakoStorageKV.java:204-228``).

Everything is deterministic from (text, DedupConfig seeds): permutation
tables are generated from a fixed seed, word hashing is stable FNV
(see ``raydedup.hashing``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from raydedup.config import DedupConfig
from raydedup.hashing import (
    U64,
    FNV_OFFSET,
    FNV_PRIME,
    fnv1a64,
    hash_strings_u64,
    mix64,
    rolling_hash_u64,
)

_EMPTY_U64 = np.empty(0, dtype=U64)


def minhash_perms(cfg: DedupConfig) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) multiply-shift permutation tables, fixed by cfg.minhash_seed."""
    rng = np.random.Generator(np.random.PCG64(cfg.minhash_seed))
    a = rng.integers(1, 2**64, size=cfg.n_perms, dtype=U64) | U64(1)  # odd
    b = rng.integers(0, 2**64, size=cfg.n_perms, dtype=U64)
    return a, b


def tokenize(text: str) -> list[str]:
    """Whitespace tokenization, lowercased. Deterministic and locale-free."""
    return text.lower().split()


class _WordHashCache:
    """Per-process cache word -> uint64 FNV-1a hash (Zipf text repeats words).

    Bounded: open-vocabulary web text (URLs, random strings, typos) would
    otherwise grow long-lived workers without limit. On overflow the cache
    resets — hashes are pure functions of the word, so a reset only costs
    recomputation, never correctness."""

    __slots__ = ("cache", "max_entries")

    def __init__(self, max_entries: int = 1 << 20) -> None:
        self.cache: dict[str, int] = {}
        self.max_entries = max_entries

    def hash_words(self, words: list[str]) -> np.ndarray:
        cache = self.cache
        if len(cache) > self.max_entries:
            cache.clear()
        out = np.empty(len(words), dtype=U64)
        for i, w in enumerate(words):
            h = cache.get(w)
            if h is None:
                h = fnv1a64(w.encode("utf-8"))
                cache[w] = h
            out[i] = h
        return out


_WORD_CACHE = _WordHashCache()


def batch_word_hashes(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized front half for a batch of ASCII texts: lower + split +
    FNV word hash without any per-word Python.

    Returns (flat word-hash array, offsets) where doc ``d``'s token
    hashes are ``flat[offsets[d]:offsets[d+1]]``. Bit-identical to
    ``tokenize`` + ``_WordHashCache.hash_words`` for ASCII input: Arrow
    ``utf8_split_whitespace`` emits empty tokens at string edges which
    are filtered out, and ASCII lower/whitespace semantics match
    Python's exactly (non-ASCII callers must use the per-doc path —
    Python ``str.lower`` and Arrow ``utf8_lower`` disagree on e.g. İ).
    """
    import pyarrow.compute as pc

    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=U64), np.zeros(1, dtype=np.int64)
    # split BEFORE lowering: whitespace splitting is case-independent, so
    # lowering only the (small) token dictionary below skips a full copy
    # + re-read of the text buffer — the kernel is DRAM-bandwidth-bound
    # under a full task pool, so whole-buffer passes cost scaling
    tokens = pc.utf8_split_whitespace(arr)
    offs = tokens.offsets.to_numpy().astype(np.int64)
    vals = tokens.values
    if offs[0] != 0 or len(vals) != offs[-1]:  # sliced ListArray guard
        vals = vals.slice(offs[0], offs[-1] - offs[0])
        offs = offs - offs[0]
    keep = pc.not_equal(vals, "").to_numpy(zero_copy_only=False)
    cum = np.zeros(keep.shape[0] + 1, dtype=np.int64)
    np.cumsum(keep, out=cum[1:])
    new_offs = cum[offs]
    kept = vals.filter(pa.array(keep))
    enc = kept.dictionary_encode()
    # case variants are distinct dictionary entries here, but each hashes
    # via its lowered form — identical values to lowering the full text
    dict_words = pc.ascii_lower(enc.dictionary).to_numpy(zero_copy_only=False)
    dict_hashes = hash_strings_u64(dict_words, mixed=False)
    idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return dict_hashes[idx], new_offs


def batch_shingle_sets(arr: pa.Array, cfg: DedupConfig) -> list[np.ndarray]:
    """Per-doc sorted-unique shingle-hash sets for a batch of texts
    (shingle_front). Bit-identical to ``shingle_hashes`` per doc."""
    import pyarrow.compute as pc

    return shingle_front(pc.fill_null(arr, ""), cfg)[0]


def shingle_front(
    arr: pa.Array, cfg: DedupConfig, sets: str = "unique", toks: bool = False
) -> tuple[list, list | None]:
    """The shingle front half of batch_shingle_sets and of every
    SignatureKernel entry point, over a null-filled text array.
    ``sets``: ``"unique"`` for each doc's sorted unique shingle set,
    ``"raw"`` for its window hashes with repeats kept. ``toks``: each
    doc's (unique word hash, count) pairs for SimHash, else None."""
    import pyarrow.compute as pc

    uniq = np.unique if sets == "unique" else (lambda h: h)
    # hash each doc's words ONCE; shingles and simhash tokens both
    # derive from the same word-hash array
    n = len(arr)
    out_sets: list = [None] * n
    out_toks: list | None = [None] * n if toks else None
    char_sets = cfg.shingle_mode == "char"
    k = cfg.shingle_k
    empty_tok = (np.array([fnv1a64(b"")], dtype=U64), np.ones(1, dtype=np.int64))
    if not char_sets:
        # vectorized front half for the ASCII docs (the bulk of web
        # text); non-ASCII docs take the per-doc path below, and the
        # routing is a per-doc property so results never depend on
        # batch composition
        ascii_mask = pc.string_is_ascii(arr).to_numpy(zero_copy_only=False)
        if ascii_mask.any():
            fast_idx = np.flatnonzero(ascii_mask)
            fast_arr = arr.filter(pa.array(ascii_mask))
            flat, offs = batch_word_hashes(fast_arr)
            h, ws, we = rolling_hash_segments(flat, offs, k)
            need_text = np.flatnonzero(we - ws == 0)
            fallback_texts = {int(j): fast_arr[int(j)].as_py() for j in need_text}
            for pos, d in enumerate(fast_idx):
                hw = h[ws[pos] : we[pos]]
                if hw.shape[0] == 0:
                    t = fallback_texts[pos]
                    hw = np.array([fnv1a64(t.encode("utf-8"))], dtype=U64)
                out_sets[d] = uniq(hw)
                if toks:
                    wh = flat[offs[pos] : offs[pos + 1]]
                    out_toks[d] = np.unique(wh, return_counts=True) if wh.shape[0] else empty_tok
        slow_idx = np.flatnonzero(~ascii_mask)
    else:
        slow_idx = np.arange(n)
    if slow_idx.shape[0]:
        texts = arr.to_pylist()
        for d in slow_idx:
            t = texts[d]
            wh = None
            if toks or not char_sets:
                words = tokenize(t)
                wh = _WORD_CACHE.hash_words(words) if words else None
            if char_sets:
                out_sets[d] = shingle_hashes(t, cfg)
            else:
                hh = rolling_hash_u64(wh, k) if wh is not None else np.empty(0, U64)
                if hh.shape[0] == 0:
                    hh = np.array([fnv1a64(t.encode("utf-8"))], dtype=U64)
                out_sets[d] = uniq(hh)
            if toks:
                out_toks[d] = empty_tok if wh is None else np.unique(wh, return_counts=True)
    return out_sets, out_toks


def rolling_hash_segments(
    flat: np.ndarray, offsets: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rolling k-gram hashes of every per-doc window in ONE global pass.

    Computes the Horner rolling hash over the concatenated symbol array
    (k vectorized passes total, instead of k passes per doc), then
    exposes each doc's valid windows as a slice: doc ``d``'s window
    hashes are ``h[win_start[d]:win_stop[d]]`` (empty when the doc has
    fewer than k symbols). Bit-identical to per-doc rolling_hash_u64 —
    windows never cross a doc boundary because the slice stops k-1
    short of the doc end."""
    flat = np.asarray(flat, dtype=U64)
    n = flat.shape[0]
    nw = n - k + 1
    h = rolling_hash_u64(flat, k)  # O(n) prefix kernel (hashing.py)
    win_start = np.minimum(offsets[:-1], max(nw, 0))
    win_stop = np.maximum(offsets[1:] - k + 1, win_start)
    return h, win_start, win_stop


def shingle_hashes(text: str, cfg: DedupConfig) -> np.ndarray:
    """Sorted unique uint64 hashes of the doc's k-gram shingles.

    word mode: rolling combine over FNV word hashes; char mode: rolling
    polynomial hash over utf-8 bytes. Docs shorter than one shingle fall
    back to a single whole-text hash so every doc has a non-empty set.
    """
    if cfg.shingle_mode == "char":
        data = np.frombuffer(text.lower().encode("utf-8"), dtype=np.uint8)
        h = rolling_hash_u64(data, cfg.char_shingle_k)
    else:
        words = tokenize(text)
        wh = _WORD_CACHE.hash_words(words)
        h = rolling_hash_u64(wh, cfg.shingle_k)
    if h.shape[0] == 0:
        h = np.array([fnv1a64(text.encode("utf-8"))], dtype=U64)
    return np.unique(h)


def _token_hash_counts(text: str) -> tuple[np.ndarray, np.ndarray]:
    words = tokenize(text)
    if not words:
        return np.array([fnv1a64(b"")], dtype=U64), np.ones(1, dtype=np.int64)
    wh = _WORD_CACHE.hash_words(words)
    uniq, counts = np.unique(wh, return_counts=True)
    return uniq, counts


def minhash_batch(
    shingle_sets: list[np.ndarray], a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """(n_docs, n_perms) uint32 MinHash signatures, vectorized via reduceat.

    Concatenates all docs' shingle sets and computes permuted values in
    perm-chunks bounded to ~64 MB transient memory.
    """
    n_docs = len(shingle_sets)
    n_perms = a.shape[0]
    sig = np.empty((n_docs, n_perms), dtype=np.uint32)
    if n_docs == 0:
        return sig
    lens = np.fromiter((s.shape[0] for s in shingle_sets), dtype=np.int64, count=n_docs)
    offsets = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(lens[:-1], out=offsets[1:])
    allsh = np.concatenate(shingle_sets) if n_docs > 1 else shingle_sets[0]
    # Process doc-groups whose (shingles x 128 perms x 8 B) intermediate
    # fits in L2/L3 (~8 MB): the permuted-values matrix never touches
    # DRAM, which keeps concurrent tasks from fighting over memory
    # bandwidth (the kernel is traffic-bound, not FLOP-bound).
    # 512 KB working set: L2-resident per core, so the permuted-values
    # matrix generates no L3/DRAM traffic even with a full pool of
    # concurrent tasks (measured: 512 beats 2048 by ~1.7x single-thread
    # AND 12-way concurrent on this host)
    group_shingles = 512
    ends = np.append(offsets[1:], allsh.shape[0])
    # one permuted-values buffer for every group, written in place: a
    # group stops at the first doc that reaches group_shingles, so it
    # never holds more than that plus one doc's shingles
    buf = np.empty((group_shingles + int(lens.max()), n_perms), dtype=U64)
    d0 = 0
    while d0 < n_docs:
        d1 = d0 + 1
        base = offsets[d0]
        while d1 < n_docs and ends[d1 - 1] - base < group_shingles:
            d1 += 1
        seg = allsh[base : ends[d1 - 1]]
        vals = buf[: seg.shape[0]]
        np.multiply(seg[:, None], a[None, :], out=vals)  # u64 wraparound
        np.add(vals, b[None, :], out=vals)
        mins = np.minimum.reduceat(vals, offsets[d0:d1] - base, axis=0)
        mins >>= U64(32)
        sig[d0:d1, :] = mins
        d0 = d1
    return sig


def oph_minhash_batch(shingle_sets: list[np.ndarray], n_perms: int) -> np.ndarray:
    """(n_docs, n_perms) uint32 one-permutation-hashing signatures.

    One pass over the shingles instead of ``n_perms`` permutations
    (Shrivastava & Li, "Densifying One Permutation Hashing via Rotation",
    ICML 2014): each (already mix64-uniform) shingle hash is bucketed by
    its top log2(n_perms) bits, the slot value is the hash's low 32 bits,
    empty slots borrow from the nearest non-empty slot to the RIGHT
    (circular — rotation densification). Deterministic, vectorized
    (sort + reduceat + one suffix-min), and SQL-mirrorable. ~10x less
    arithmetic than ``minhash_batch`` at n_perms=128; downstream banding
    and exact-Jaccard verification are unchanged."""
    n_docs = len(shingle_sets)
    if n_perms & (n_perms - 1):
        raise ValueError("oph requires n_perms to be a power of two")
    sig = np.zeros((n_docs, n_perms), dtype=np.uint32)
    if n_docs == 0:
        return sig
    filled = np.zeros((n_docs, n_perms), dtype=bool)
    lens = np.fromiter((s.shape[0] for s in shingle_sets), dtype=np.int64, count=n_docs)
    allsh = (
        np.concatenate(shingle_sets) if n_docs > 1 else np.asarray(shingle_sets[0])
    ).astype(U64, copy=False)
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.uint64), lens)
    shift = 64 - int(n_perms).bit_length() + 1  # 64 - log2(n_perms)
    bins = allsh >> U64(shift)
    vals = allsh & U64(0xFFFFFFFF)
    # pack (doc*n_perms + bin) << 32 | value into ONE u64 key: after a
    # plain np.sort, each (doc, bin) group's FIRST element carries the
    # group min — no argsort, no gathers, no reduceat
    key = ((doc_idx * U64(n_perms) + bins) << U64(32)) | vals
    key.sort()
    comp_s = key >> U64(32)
    starts = np.flatnonzero(np.concatenate(([True], comp_s[1:] != comp_s[:-1])))
    slots = comp_s[starts].astype(np.int64)
    sig.reshape(-1)[slots] = (key[starts] & U64(0xFFFFFFFF)).astype(np.uint32)
    filled.reshape(-1)[slots] = True
    # rotation densification: suffix-min over the doubled slot axis finds
    # the nearest filled slot at-or-right-of each position (circular)
    k2 = 2 * n_perms
    cand = np.where(
        np.concatenate([filled, filled], axis=1), np.arange(k2)[None, :], k2
    )
    src = np.minimum.accumulate(cand[:, ::-1], axis=1)[:, ::-1][:, :n_perms] % n_perms
    return np.take_along_axis(sig, src, axis=1)


def simhash_batch(token_sets: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """(n_docs,) uint64 SimHash from (unique token hash, count) pairs.

    One unpackbits pass builds the (tokens, 64) bit matrix (little-endian
    bit order == ``(h >> j) & 1``), one weighted reduceat per doc-chunk
    sums the +/-w contributions for all 64 bit positions at once —
    instead of 64 full passes over the token array. Doc-chunked so the
    (chunk, 64) int32 working set stays cache-resident."""
    n_docs = len(token_sets)
    out = np.zeros(n_docs, dtype=U64)
    if n_docs == 0:
        return out
    lens = np.fromiter((t[0].shape[0] for t in token_sets), dtype=np.int64, count=n_docs)
    offsets = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(lens[:-1], out=offsets[1:])
    allh = np.concatenate([t[0] for t in token_sets])
    allw = np.concatenate([t[1] for t in token_sets]).astype(np.int32)
    total = allh.shape[0]
    ends = np.append(offsets[1:], total)
    chunk_tokens = 4096  # (4096 x 64) int32 = 1 MB working set
    d0 = 0
    while d0 < n_docs:
        d1 = d0 + 1
        base = offsets[d0]
        while d1 < n_docs and ends[d1 - 1] - base < chunk_tokens:
            d1 += 1
        stop = ends[d1 - 1]
        seg = allh[base:stop]
        w = allw[base:stop]
        # (S, 64) bits in little-endian bit order: bits[:, j] == (h >> j) & 1
        bits = np.unpackbits(
            seg.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        )
        contrib = (2 * bits.astype(np.int32) - 1) * w[:, None]
        sums = np.add.reduceat(contrib, offsets[d0:d1] - base, axis=0)
        out[d0:d1] = np.packbits(sums > 0, axis=1, bitorder="little").view(U64).ravel()
        d0 = d1
    return out


def band_keys(sig: np.ndarray, cfg: DedupConfig) -> np.ndarray:
    """(n_docs, n_bands) uint64 LSH band keys: FNV fold of each band's rows."""
    n_docs = sig.shape[0]
    rows = sig.reshape(n_docs, cfg.n_bands, cfg.rows_per_band).astype(U64)
    h = np.full((n_docs, cfg.n_bands), FNV_OFFSET, dtype=U64)
    for r in range(cfg.rows_per_band):
        h = (h ^ rows[:, :, r]) * FNV_PRIME
    # fold the band index in so identical row-slices in different bands differ
    h ^= np.arange(cfg.n_bands, dtype=U64)[None, :] * np.uint64(0x9E3779B97F4A7C15)
    return mix64(h)


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized popcount(a ^ b) on uint64 (ref: util/Hamming.java:74-83)."""
    x = np.atleast_1d(np.asarray(a, dtype=U64) ^ np.asarray(b, dtype=U64))
    # byte-wise popcount via unpackbits on the raw view
    v = x.view(np.uint8).reshape(x.shape[0], 8)
    return np.unpackbits(v, axis=1).sum(axis=1)


class SignatureKernel:
    """Batched kernel: docs batch -> signatures table.

    The setup (permutation tables + word-hash cache) runs once in
    ``__init__``, and pipelines/dedup._kernel keeps one kernel per
    worker process; ``__call__`` handles one Arrow batch. Input
    columns: ``doc_id`` (uint64), ``text`` (string). Output columns:
    doc_id, minhash (fixed list u32 x n_perms), simhash (u64), band
    keys (list u64 x n_bands), shingles (list u64, sorted unique),
    n_shingles (u32).

    The other entry points are the same kernel cut to what their
    callers read, each bit-identical to ``__call__``'s columns:

    - ``band_table``: (doc_id, bands). It skips SimHash and the per-doc
      shingle dedup (a minimum does not change when a shingle repeats).
      The dedup engine's signature wave and the index store use it.
    - ``band_set_table``: (doc_id, bands, shingles), the packed sorted
      unique sets from the same shingle pass, no SimHash. The query
      side of ``query_index`` and of the increment's match use it.

    ``compute_signatures`` (and so the registry rows) uses ``__call__``.
    """

    def __init__(self, cfg: DedupConfig | None = None, keep_shingles: bool = True):
        self.cfg = cfg or DedupConfig()
        self.a, self.b = minhash_perms(self.cfg)
        self.keep_shingles = keep_shingles

    @staticmethod
    def _text(batch: pa.Table) -> pa.Array:
        import pyarrow.compute as pc

        col = batch.column("text")
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        return pc.fill_null(arr, "")

    def _minhash(self, batch: pa.Table, sets: str, toks: bool) -> tuple[list, list | None, np.ndarray]:
        """(shingle sets, SimHash token pairs, MinHash matrix) of one
        batch's ``text`` (see shingle_front for ``sets`` and ``toks``)."""
        sets, toks = shingle_front(self._text(batch), self.cfg, sets, toks)
        if self.cfg.minhash_scheme == "oph":
            return sets, toks, oph_minhash_batch(sets, self.cfg.n_perms)
        return sets, toks, minhash_batch(sets, self.a, self.b)

    def _band_column(self, sig: np.ndarray) -> pa.Array:
        return pa.FixedSizeListArray.from_arrays(
            pa.array(band_keys(sig, self.cfg).reshape(-1), type=pa.uint64()),
            self.cfg.n_bands,
        )

    @staticmethod
    def _packed(sets: list) -> pa.Array:
        # packed little-endian uint64 bytes: Arrow acero joins support
        # binary payloads but not list columns; np.frombuffer restores
        # the sorted set zero-copy on the verify side
        return pa.array([s.tobytes() for s in sets], type=pa.large_binary())

    def band_table(self, batch: pa.Table) -> pa.Table:
        """docs batch -> (doc_id, bands) only."""
        sig = self._minhash(batch, "raw", False)[2]
        return pa.table(
            {"doc_id": batch.column("doc_id").cast(pa.int64()), "bands": self._band_column(sig)}
        )

    def band_set_table(self, batch: pa.Table) -> pa.Table:
        """docs batch -> (doc_id, bands, shingles) only."""
        sets, _, sig = self._minhash(batch, "unique", False)
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "bands": self._band_column(sig),
                "shingles": self._packed(sets),
            }
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        sets, toks, sig = self._minhash(batch, "unique", True)
        cols: dict[str, pa.Array] = {}
        cols["doc_id"] = batch.column("doc_id").cast(pa.int64())
        cols["minhash"] = pa.FixedSizeListArray.from_arrays(
            pa.array(sig.reshape(-1), type=pa.uint32()), cfg.n_perms
        )
        cols["simhash"] = pa.array(simhash_batch(toks), type=pa.uint64())
        cols["bands"] = self._band_column(sig)
        lens = np.fromiter((s.shape[0] for s in sets), dtype=np.int64, count=len(sets))
        if self.keep_shingles:
            cols["shingles"] = self._packed(sets)
        cols["n_shingles"] = pa.array(lens.astype(np.uint32), type=pa.uint32())
        return pa.table(cols)


def pack_b1(sig: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """b-bit minhash with b=1: keep only each permutation's LSB.

    (n_docs, n_perms<=128) uint32 signature matrix -> two u64 words per
    doc (little-endian bit order: bit i of word0 is perm i's LSB).
    Li & König 2010: at 128 perms, 1-bit storage is 32x smaller than
    the u32 matrix while the pairwise estimator (matching-bit fraction
    m relates to Jaccard via J = 2m - 1 for unrelated-baseline 1/2) is
    accurate enough for candidate scoring — the signature STORE for a
    10^12-doc index drops from ~0.5 TB/B-doc to 16 B/doc.
    """
    n_docs, n_perms = sig.shape
    if n_perms > 128:
        raise ValueError(f"pack_b1 supports <= 128 perms, got {n_perms}")
    bits = (sig & 1).astype(np.uint8)
    if n_perms < 128:
        bits = np.concatenate(
            [bits, np.zeros((n_docs, 128 - n_perms), dtype=np.uint8)], axis=1
        )
    packed = np.packbits(bits, axis=1, bitorder="little").copy().view(np.uint64)
    return packed[:, 0].copy(), packed[:, 1].copy()
