"""Embedding SimHash: signed-random-projection 64-bit sketches and
Hamming-banded near-dup pairs over an embedding column.

This is the EMBEDDING-space analog of the text SimHash surface
(stages/signatures.py simhash_batch; ref: Panako's 64-bit fingerprint
hashes, strategy/panako/PanakoFingerprint.java hash packing +
util/Hamming.java distance): each vector is reduced to ONE 64-bit
sketch (bit i = sign of a deterministic +/-1 random projection), so the
near-dup self-join ships 8 bytes per row through the exchange instead
of the full float vector — at 10^12 rows the float matrix never moves.

Bit-parity design (the DuckDB oracle hash-matches the full output):
- Vector components are quantized ONCE to integers, w_j =
  floor(float64(v_j) * 2^20).  float32 -> float64 is exact, the
  multiply and floor are the identical IEEE ops in numpy and DuckDB,
  and everything after is integer arithmetic — no float sum ever
  forms, so no accumulation-order hazard exists anywhere in the op.
- Projection signs come from the shared splitmix64 mirror: for bit i
  and dimension j, s_ij = +1 if the top bit of mix64(seed + i*D + j)
  is 0 else -1.  bit_i = [sum_j s_ij * w_j >= 0] (>= pins the
  all-zero vector to all-ones deterministically on both sides).
- Pair acceptance is popcount(xor) <= max_hamming on the packed
  sketches — integer only.

Scale shape: sketching is a row-local map_batches (the +/-1 matrix is
built once per process and cached); candidate generation emits one
(band, key16) row per band per vector and runs ONE hash exchange;
in-bucket pair emission is run arithmetic over a lexsort (no per-group
Python); cross-band duplicate pairs are suppressed WITHOUT a second
shuffle by the first-matching-band rule (a pair is emitted by band b
only if no band b' < b also matches — both sketches are in hand, so
the check is local).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data import Dataset

from raydedup.hashing import mix64
from raydedup.stages.ann import _batch_matrix
from raydedup.stages.exchange import hash_exchange_apply
from raydedup.stages.signatures import hamming64
from raydedup.util import arrow_block_refs

U64 = np.uint64
I64 = np.int64

#: quantization scale: w = floor(v * 2^20) keeps 20 fractional bits —
#: far below the ~2^-7 component noise that flips a projection sign.
QUANT_SCALE = float(1 << 20)

#: default projection seed (mirrored literally in the SQL oracle).
DEFAULT_SEED = 1_000_003

_SIGN_CACHE: dict[tuple[int, int, int], np.ndarray] = {}


def _sign_matrix(n_bits: int, dim: int, seed: int) -> np.ndarray:
    """(n_bits, dim) +/-1 int64 matrix from mix64(seed + i*dim + j).

    Cached per process (actor-pool / worker-reuse pattern): ~32 KB at
    64x64, built once, shared by every batch the worker sees.
    """
    key = (n_bits, dim, seed)
    m = _SIGN_CACHE.get(key)
    if m is None:
        i = np.arange(n_bits, dtype=U64)[:, None]
        j = np.arange(dim, dtype=U64)[None, :]
        u = mix64(U64(seed) + i * U64(dim) + j)
        m = np.where((u >> U64(63)) == 0, I64(1), I64(-1))
        _SIGN_CACHE[key] = m
    return m


def sketch_kernel(
    vecs: np.ndarray, *, n_bits: int = 64, seed: int = DEFAULT_SEED
) -> np.ndarray:
    """(n, dim) float -> (n,) uint64 packed sign-projection sketch."""
    if vecs.shape[0] == 0:
        return np.empty(0, dtype=U64)
    w = np.floor(vecs.astype(np.float64) * QUANT_SCALE).astype(I64)
    # |w| <= 2^20 * max|v|, dim <= a few thousand: the int64 matmul has
    # ~23 spare bits of headroom before any overflow is possible.
    acc = w @ _sign_matrix(n_bits, vecs.shape[1], seed).T  # (n, n_bits)
    bits = (acc >= 0).astype(U64) << np.arange(n_bits, dtype=U64)[None, :]
    return np.bitwise_or.reduce(bits, axis=1)


def embedding_simhash(
    embeddings: Dataset,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    seed: int = DEFAULT_SEED,
) -> Dataset:
    """Per-vector 64-bit sign-projection sketch (int64 bit-view column
    ``sketch``) — row-local, zero shuffle, streams."""

    def kernel(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.table(
                {id_col: pa.array([], pa.int64()), "sketch": pa.array([], pa.int64())}
            )
        sk = sketch_kernel(_batch_matrix(batch, vec_col), seed=seed)
        return pa.table(
            {id_col: batch.column(id_col), "sketch": pa.array(sk.view(I64))}
        )

    return embeddings.select_columns([id_col, vec_col]).map_batches(
        kernel, batch_format="pyarrow"
    )


def _pairs_in_bucket(
    t: pa.Table,
    *,
    n_bands: int,
    band_bits: int,
    max_hamming: int,
    id_col: str,
) -> pa.Table:
    """All within-key pairs of one exchange bucket, first-matching-band
    deduped and Hamming-filtered. Pure run arithmetic over a lexsort."""
    empty = pa.table(
        {
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            "hamming": pa.array([], pa.int64()),
        }
    )
    if t.num_rows == 0 or t.num_columns == 0:
        return empty
    key = t.column("bkey").to_numpy(zero_copy_only=False).astype(U64)
    ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(I64)
    sk = t.column("sketch").to_numpy(zero_copy_only=False).astype(I64).view(U64)
    order = np.lexsort((ids, key))
    key, ids, sk = key[order], ids[order], sk[order]

    n = key.shape[0]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    lens = np.diff(np.r_[starts, n])
    # element at sorted position p contributes `local(p)` pairs, one
    # with each earlier element of its run (ids ascending within the
    # run, so a < b falls out of the sort order).
    local = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
    total = int(local.sum())
    if total == 0:
        return empty
    b_pos = np.repeat(np.arange(n, dtype=np.int64), local)
    run_start = np.repeat(np.repeat(starts, lens), local)
    off = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(local)[:-1])), local
    )
    a_pos = run_start + off

    sa, sb = sk[a_pos], sk[b_pos]
    # first-matching-band rule: this bucket's band is in the key's high
    # bits; suppress the pair if any LOWER band also matches.
    band = (key[b_pos] >> U64(band_bits)).astype(np.int64)
    mask_bits = U64((1 << band_bits) - 1)
    dup = np.zeros(total, dtype=bool)
    for lower in range(n_bands - 1):
        sh = U64(lower * band_bits)
        dup |= (band > lower) & (((sa >> sh) ^ (sb >> sh)) & mask_bits == 0)
    keep = ~dup
    if max_hamming is not None:
        keep &= hamming64(sa, sb) <= max_hamming
    if not keep.any():
        return empty
    a_pos, b_pos = a_pos[keep], b_pos[keep]
    return pa.table(
        {
            "a": pa.array(ids[a_pos]),
            "b": pa.array(ids[b_pos]),
            "hamming": pa.array(hamming64(sk[a_pos], sk[b_pos]).astype(I64)),
        }
    )


def embedding_neardup_simhash(
    embeddings: Dataset,
    *,
    max_hamming: int = 3,
    n_bands: int = 4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    seed: int = DEFAULT_SEED,
    num_buckets: int | None = None,
) -> pd.DataFrame:
    """Near-dup candidate pairs (a < b, Hamming distance) via banded
    64-bit sketches: the LSH guarantee is that any pair within
    ``max_hamming`` <= n_bands - 1 bit flips shares at least one exact
    band (pigeonhole), so recall is 1.0 at the default (3, 4) config —
    the banding prunes comparisons, never the answer. Vectors are
    reduced to 8-byte sketches BEFORE the single hash exchange."""
    band_bits = 64 // n_bands
    if max_hamming >= n_bands:
        raise ValueError(
            f"max_hamming={max_hamming} needs > {max_hamming} bands for the "
            f"pigeonhole guarantee; got n_bands={n_bands}"
        )
    mask = U64((1 << band_bits) - 1)

    def bandize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.table(
                {
                    "bkey": pa.array([], pa.int64()),
                    id_col: pa.array([], pa.int64()),
                    "sketch": pa.array([], pa.int64()),
                }
            )
        sk = batch.column("sketch").to_numpy(zero_copy_only=False).astype(I64)
        u = sk.view(U64)
        n = u.shape[0]
        # bkey packs (band, band value): band in bits >= band_bits.
        bands = np.arange(n_bands, dtype=U64)[None, :]
        keys = ((u[:, None] >> (bands * U64(band_bits))) & mask) | (
            bands << U64(band_bits)
        )
        return pa.table(
            {
                "bkey": pa.array(keys.ravel().view(I64)),
                id_col: pa.array(
                    np.repeat(batch.column(id_col).to_numpy(zero_copy_only=False), n_bands)
                ),
                "sketch": pa.array(np.repeat(sk, n_bands)),
            }
        )

    banded = embedding_simhash(
        embeddings, id_col=id_col, vec_col=vec_col, seed=seed
    ).map_batches(bandize, batch_format="pyarrow")

    out = hash_exchange_apply(
        banded,
        "bkey",
        lambda t: _pairs_in_bucket(
            t,
            n_bands=n_bands,
            band_bits=band_bits,
            max_hamming=max_hamming,
            id_col=id_col,
        ),
        num_buckets=num_buckets,
    )
    df = out.to_pandas() if hasattr(out, "to_pandas") else out
    if "a" not in df.columns:
        # fully-empty input: 0-row blocks skip map_batches UDFs, so the
        # exchange's empty-collect path carries no typed schema.
        df = pd.DataFrame({"a": pd.Series(dtype="int64"),
                           "b": pd.Series(dtype="int64"),
                           "hamming": pd.Series(dtype="int64")})
    return df.sort_values(["a", "b"], kind="stable").reset_index(drop=True)


def prototype_prune(
    embeddings: Dataset,
    *,
    threshold: float = 0.2,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    label_col: str = "label",
) -> Dataset:
    """Prototypicality pruning (Sorscher et al. 2022, "Beyond neural
    scaling laws", arXiv:2206.14486): score each vector by cosine to
    its OWN cluster centroid and prune the most prototypical — the
    easy/redundant examples a data-pruned training run drops first.

    Cluster assignment is the given ``label`` column; the centroid is
    the exact order-invariant mean from :func:`label_centroids`
    (quantize-once integer sums, ONE IEEE division — the SQL mirror is
    textual). ``keep`` = cosine < threshold, i.e. the retained
    hard/diverse examples; output (vec_id, label, proto_cos, keep).

    Scale shape: the centroid table is labels x dim (the small side) —
    broadcast once via ``ray.put``; scoring is a stateless row-local
    ``map_batches`` (one gathered-row dot product per batch), zero
    shuffle beyond the centroid combiner."""
    import ray

    cent = label_centroids(embeddings, label_col=label_col, vec_col=vec_col)
    lab = cent.column("label").to_numpy(zero_copy_only=False).astype(I64)
    j = cent.column("j").to_numpy(zero_copy_only=False).astype(I64)
    cv = cent.column("centroid").to_numpy(zero_copy_only=False)
    labels = np.unique(lab)
    dim = int(j.max()) + 1 if j.shape[0] else 0
    cmat = np.zeros((labels.shape[0], dim), dtype=np.float64)
    cmat[np.searchsorted(labels, lab), j] = cv
    cnorm = np.linalg.norm(cmat, axis=1)
    bc = ray.put((labels, cmat, cnorm))

    out_schema = pa.schema(
        [("vec_id", pa.int64()), ("label", pa.int64()),
         ("proto_cos", pa.float64()), ("keep", pa.int64())]
    )

    def score(batch: pa.Table) -> pa.Table:
        import ray as _ray

        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        labs_b, cm, cn = _ray.get(bc)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(I64)
        bl = batch.column(label_col).to_numpy(zero_copy_only=False).astype(I64)
        m = _batch_matrix(batch, vec_col).astype(np.float64)
        rows = np.searchsorted(labs_b, bl)
        dots = np.einsum("ij,ij->i", m, cm[rows])
        denom = np.linalg.norm(m, axis=1) * cn[rows]
        cos = np.where(denom > 0, dots / np.where(denom > 0, denom, 1.0), 0.0)
        return pa.table(
            {
                "vec_id": pa.array(ids),
                "label": pa.array(bl),
                "proto_cos": pa.array(cos, pa.float64()),
                "keep": pa.array((cos < threshold).astype(I64)),
            }
        )

    return embeddings.select_columns([id_col, vec_col, label_col]).map_batches(
        score, batch_format="pyarrow"
    )


def label_centroids(
    embeddings, *, label_col: str = "label", vec_col: str = "embedding"
) -> "pa.Table":
    """Exact per-label mean embedding in long form (label, j, centroid).

    Float means are order-dependent, so elements are quantized ONCE
    (floor(v * 2^20), the sketch kernel's exact quantization) and summed
    as integers — per-batch partial sums (a combiner: labels x dim rows
    per batch, never the vectors) merge on the driver and a single IEEE
    division ``sum / (count * 2^20)`` is mirrored textually by the SQL
    oracle, making the result partition- and order-invariant."""
    import ray

    from raydedup.stages.ann import _batch_matrix

    def partial(t: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("label", pa.int64()), ("j", pa.int64()),
             ("s", pa.int64()), ("n", pa.int64())]
        )
        if t.num_rows == 0 or t.num_columns == 0:
            return schema.empty_table()
        labs = t.column(label_col).to_numpy(zero_copy_only=False).astype(I64)
        w = np.floor(_batch_matrix(t, vec_col) * QUANT_SCALE).astype(I64)
        order = np.argsort(labs, kind="stable")
        labs, w = labs[order], w[order]
        starts = np.flatnonzero(np.r_[True, labs[1:] != labs[:-1]])
        sums = np.add.reduceat(w, starts, axis=0)
        counts = np.diff(np.r_[starts, labs.shape[0]])
        dim = w.shape[1]
        return pa.table(
            {
                "label": np.repeat(labs[starts], dim),
                "j": np.tile(np.arange(dim, dtype=I64), starts.shape[0]),
                "s": sums.ravel(),
                "n": np.repeat(counts.astype(I64), dim),
            }
        )

    parts = [
        t
        for t in ray.get(
            arrow_block_refs(
                embeddings.select_columns([label_col, vec_col])
                .map_batches(partial, batch_format="pyarrow")
            )
        )
        if t.num_rows and t.num_columns
    ]
    if not parts:
        return pa.schema(
            [("label", pa.int64()), ("j", pa.int64()), ("centroid", pa.float64())]
        ).empty_table()
    allp = pa.concat_tables(parts)
    lab = allp.column("label").to_numpy(zero_copy_only=False)
    j = allp.column("j").to_numpy(zero_copy_only=False)
    s = allp.column("s").to_numpy(zero_copy_only=False)
    n = allp.column("n").to_numpy(zero_copy_only=False)
    order = np.lexsort((j, lab))
    lab, j, s, n = lab[order], j[order], s[order], n[order]
    starts = np.flatnonzero(np.r_[True, (lab[1:] != lab[:-1]) | (j[1:] != j[:-1])])
    S = np.add.reduceat(s, starts)
    N = np.add.reduceat(n, starts)
    centroid = S / (N * QUANT_SCALE)
    return pa.table(
        {
            "label": pa.array(lab[starts], pa.int64()),
            "j": pa.array(j[starts], pa.int64()),
            "centroid": pa.array(centroid, pa.float64()),
        }
    )
