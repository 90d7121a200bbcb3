"""b-bit minhash near-dup pairs: banded LSH over 1-bit signatures.

The dedup path that runs off the 16 B/doc signature STORE
(``signatures.pack_b1``): at 10^12 docs the full u32 MinHash matrix is
~0.5 PB while the b=1 pack is 16 TB — this stage shows the cheap store
still drives candidate generation + verification end to end. Li &
König 2010: a pair agreeing on fraction ``m`` of the 128 LSBs has
estimated Jaccard ``J = 2m - 1`` (unrelated baseline 1/2), so the
Hamming acceptance ``ham <= hamming_max`` mirrors the flagship's
``jaccard >= tau`` with tau = 2(1 - ham/128) - 1.

Scale shape: ONE exchange. Each doc emits 8 postings — (16-bit band
slice + band-index salt, doc_id, b1_lo, b1_hi); the signature RIDES the
posting (32 B/row), so candidate pairs compute their exact 128-bit
Hamming distance inside the bucket with no second join. Band runs are
capped with counted drops (same discipline as the flagship candidate
stage); cross-band duplicate pairs dedup on the collected report.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from raydedup.config import DedupConfig

logger = logging.getLogger(__name__)

U64 = np.uint64
I64 = np.int64

_POST_SCHEMA = pa.schema(
    [
        ("key", pa.int64()),
        ("doc_id", pa.int64()),
        ("lo", pa.int64()),
        ("hi", pa.int64()),
    ]
)
OUT_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64()), ("hamming", pa.int64())])

N_BANDS = 8  # 8 bands x 16 bits over the 128-bit pack


def _b1_postings(t: pa.Table, cfg: DedupConfig) -> pa.Table:
    """batch(doc_id, text) -> 8 band postings per doc carrying the pack."""
    from raydedup.pipelines.dedup import _kernel
    from raydedup.stages.signatures import pack_b1

    if t.num_rows == 0 or t.num_columns == 0:
        return _POST_SCHEMA.empty_table()
    sig_t = _kernel(cfg, False)(t)
    if sig_t.num_rows == 0:
        return _POST_SCHEMA.empty_table()
    ids = sig_t.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
    col = sig_t.column("minhash")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    mat = (
        col.flatten().to_numpy(zero_copy_only=False).astype(np.uint32)
        .reshape(len(col), -1)
    )
    lo, hi = pack_b1(mat)
    keys = np.empty(ids.shape[0] * N_BANDS, dtype=U64)
    for band in range(N_BANDS):
        word = lo if band < 4 else hi
        sl = (word >> U64(16 * (band % 4))) & U64(0xFFFF)
        # salt the band index in so identical slices in different bands differ
        keys[band::N_BANDS] = sl | (U64(band) << U64(16))
    return pa.table(
        {
            "key": pa.array(keys.view(I64), pa.int64()),
            "doc_id": pa.array(np.repeat(ids, N_BANDS), pa.int64()),
            "lo": pa.array(np.repeat(lo.view(I64), N_BANDS), pa.int64()),
            "hi": pa.array(np.repeat(hi.view(I64), N_BANDS), pa.int64()),
        }
    )


def b1_neardup_pairs(
    docs: Dataset,
    cfg: DedupConfig | None = None,
    *,
    hamming_max: int = 12,
    max_run: int = 256,
) -> pa.Table:
    """docs(doc_id, text) -> (a, b, hamming) pairs with a < b whose
    1-bit signatures collide in >= 1 of 8 16-bit bands AND agree within
    ``hamming_max`` of 128 bits (default 12 ~ tau 0.8125), sorted."""
    from raydedup.stages.exchange import hash_exchange_apply
    from raydedup.stages.signatures import hamming64

    cfg = cfg or DedupConfig()
    if cfg.n_perms != 128:
        # pack_b1 zero-pads below 128 perms: padded bits always agree,
        # so the 128-bit Hamming acceptance would overestimate Jaccard
        # and the all-zero hi word would collapse bands 4-7 into giant
        # cap-dropped runs (ADVICE r3). The b=1 path is specified for
        # the 128-perm layout; reject other configs loudly.
        raise ValueError(
            f"b1_neardup_pairs requires cfg.n_perms == 128 (the Hamming "
            f"acceptance and 8x16-bit band layout assume a full 128-bit "
            f"pack), got n_perms={cfg.n_perms}"
        )

    def bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return OUT_SCHEMA.empty_table()
        key = t.column("key").to_numpy(zero_copy_only=False)
        doc = t.column("doc_id").to_numpy(zero_copy_only=False)
        lo = t.column("lo").to_numpy(zero_copy_only=False).view(U64)
        hi = t.column("hi").to_numpy(zero_copy_only=False).view(U64)
        order = np.lexsort((doc, key))
        key, doc, lo, hi = key[order], doc[order], lo[order], hi[order]
        # docs are ascending within each key run after the lexsort, so
        # the upper triangle (j2 > j1) IS the a<b pair set — no ordered
        # cross product to build and halve
        new = np.empty(key.shape[0], dtype=bool)
        new[0] = True
        new[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(new)
        runs = np.diff(np.append(starts, key.shape[0]))
        over = runs > max_run
        if over.any():
            logger.warning("b1dedup: dropped %d over-cap band runs", int(over.sum()))
        runs = np.where(over | (runs < 2), 0, runs)
        npairs = runs * (runs - 1) // 2
        total = int(npairs.sum())
        if total == 0:
            return OUT_SCHEMA.empty_table()
        r_of = np.repeat(np.arange(starts.shape[0], dtype=I64), npairs)
        excl = np.concatenate([[0], np.cumsum(npairs)[:-1]]).astype(I64)
        j = np.arange(total, dtype=I64) - excl[r_of]
        # triangular unranking: row i1 of the (r-1)-row triangle, then
        # offset within the row (exact integer isqrt via float sqrt of
        # values < 2^52 with a +-1 correction)
        r = runs[r_of]
        # pairs are enumerated as (i1, i2): j = i1*(2r - i1 - 1)/2 + (i2 - i1 - 1)
        disc = (2 * r - 1).astype(np.float64) ** 2 - 8 * j.astype(np.float64)
        i1 = ((2 * r - 1) - np.sqrt(disc)).astype(np.int64) // 2
        # float-rounding correction: nudge i1 so j lands in its row range
        base = i1 * (2 * r - i1 - 1) // 2
        lowfix = base > j
        i1[lowfix] -= 1
        base[lowfix] = i1[lowfix] * (2 * r[lowfix] - i1[lowfix] - 1) // 2
        highfix = j - base >= (r - 1 - i1)
        i1[highfix] += 1
        base[highfix] = i1[highfix] * (2 * r[highfix] - i1[highfix] - 1) // 2
        i2 = i1 + 1 + (j - base)
        ia = starts[r_of] + i1
        ib = starts[r_of] + i2
        ham = hamming64(lo[ia], lo[ib]) + hamming64(hi[ia], hi[ib])
        ok = ham <= hamming_max
        return pa.table(
            {
                "a": pa.array(doc[ia[ok]], pa.int64()),
                "b": pa.array(doc[ib[ok]], pa.int64()),
                "hamming": pa.array(ham[ok].astype(I64), pa.int64()),
            }
        )

    posts = docs.select_columns(["doc_id", "text"]).map_batches(
        lambda t: _b1_postings(t, cfg), batch_format="pyarrow", batch_size=cfg.batch_size
    )
    out = hash_exchange_apply(posts, "key", bucket)
    if out.num_rows == 0:
        return OUT_SCHEMA.empty_table()
    a = out.column("a").to_numpy(zero_copy_only=False)
    b = out.column("b").to_numpy(zero_copy_only=False)
    h = out.column("hamming").to_numpy(zero_copy_only=False)
    # cross-band duplicates: keep one row per (a, b)
    order = np.lexsort((h, b, a))
    a, b, h = a[order], b[order], h[order]
    first = np.empty(a.shape[0], dtype=bool)
    first[0] = True
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return pa.table(
        {
            "a": pa.array(a[first], pa.int64()),
            "b": pa.array(b[first], pa.int64()),
            "hamming": pa.array(h[first], pa.int64()),
        }
    )
