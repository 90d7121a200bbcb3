"""Unit tests for the signature kernel (shingles / MinHash / SimHash /
band keys) — determinism + statistical behavior. Analog of the
reference's storage + fingerprint unit tests
(``OlafStorageKVTest.java:46-73``)."""

import numpy as np
import pyarrow as pa
import pytest

from raydedup.config import DedupConfig
from raydedup.stages.signatures import (
    SignatureKernel,
    band_keys,
    hamming64,
    minhash_batch,
    minhash_perms,
    shingle_hashes,
    simhash_batch,
    _token_hash_counts,
    tokenize,
)

CFG = DedupConfig()


def test_tokenize_lowercase_whitespace():
    assert tokenize("Hello  World\tfoo\nbar") == ["hello", "world", "foo", "bar"]


def test_shingle_counts():
    text = " ".join(f"w{i}" for i in range(10))
    s = shingle_hashes(text, CFG)
    assert s.shape[0] == 10 - CFG.shingle_k + 1
    assert np.all(np.diff(s.view(np.uint64).astype(object)) > 0)  # sorted unique


def test_shingles_shift_invariant():
    a = shingle_hashes("x y " + "a b c d e f g", CFG)
    b = shingle_hashes("a b c d e f g", CFG)
    # the trailing shingles of `a` coincide with `b`'s
    assert len(np.intersect1d(a, b)) == len(b)


def test_short_doc_fallback():
    s = shingle_hashes("one two", CFG)
    assert s.shape[0] == 1
    assert shingle_hashes("", CFG).shape[0] == 1


def test_minhash_jaccard_estimate():
    rng = np.random.Generator(np.random.PCG64(7))
    base = rng.integers(0, 2**63, size=500, dtype=np.uint64)
    other = base.copy()
    other[:50] = rng.integers(0, 2**63, size=50, dtype=np.uint64)  # ~0.82 true J
    sets = [np.unique(base), np.unique(other)]
    a, b = minhash_perms(CFG)
    sig = minhash_batch(sets, a, b)
    est = (sig[0] == sig[1]).mean()
    inter = np.intersect1d(sets[0], sets[1]).shape[0]
    true_j = inter / (len(sets[0]) + len(sets[1]) - inter)
    assert abs(est - true_j) < 0.12


def test_minhash_identical_sets_identical_sigs():
    s = np.unique(np.arange(100, dtype=np.uint64) * 12345)
    a, b = minhash_perms(CFG)
    sig = minhash_batch([s, s.copy()], a, b)
    np.testing.assert_array_equal(sig[0], sig[1])


def test_minhash_deterministic_across_batching():
    """Signature of a doc must not depend on which batch it lands in,
    nor on repeated shingles, and must equal the per-doc formula, also
    for docs that overrun a kernel doc-group (512 shingles)."""
    rng = np.random.Generator(np.random.PCG64(3))
    sets = [
        np.unique(rng.integers(0, 2**63, size=n, dtype=np.uint64))
        for n in (50, 700, 1, 2000, 50, 3)
    ]
    a, b = minhash_perms(CFG)
    whole = minhash_batch(sets, a, b)
    solo = np.vstack([minhash_batch([s], a, b) for s in sets])
    np.testing.assert_array_equal(whole, solo)
    ref = np.vstack(
        [((s[:, None] * a[None, :] + b[None, :]) >> np.uint64(32)).min(axis=0) for s in sets]
    ).astype(np.uint32)
    np.testing.assert_array_equal(whole, ref)
    repeated = minhash_batch([np.concatenate([s, s[::-1]]) for s in sets], a, b)
    np.testing.assert_array_equal(repeated, whole)


def test_simhash_similar_docs_close():
    t1 = "the quick brown fox jumps over the lazy dog " * 20
    t2 = t1.replace("lazy", "sleepy")
    t3 = " ".join(f"z{i}" for i in range(200))
    sim = simhash_batch([_token_hash_counts(t) for t in (t1, t2, t3)])
    d12 = hamming64(sim[:1], sim[1:2])[0]
    d13 = hamming64(sim[:1], sim[2:3])[0]
    assert d12 < d13
    assert d12 <= 16
    assert 16 <= d13 <= 48  # unrelated ~32


def test_band_keys_shape_and_band_mixing():
    rng = np.random.Generator(np.random.PCG64(11))
    sig = rng.integers(0, 2**32, size=(3, CFG.n_perms), dtype=np.uint64).astype(
        np.uint32
    )
    bk = band_keys(sig, CFG)
    assert bk.shape == (3, CFG.n_bands)
    # identical signatures -> identical keys; distinct bands -> distinct keys
    bk2 = band_keys(sig.copy(), CFG)
    np.testing.assert_array_equal(bk, bk2)
    const = np.tile(sig[0, : CFG.rows_per_band], CFG.n_bands)[None, :]
    bkc = band_keys(const.astype(np.uint32), CFG)
    assert len(set(bkc[0].tolist())) == CFG.n_bands  # band index folded in


def test_hamming64_known():
    a = np.array([0b1011], dtype=np.uint64)
    b = np.array([0b0010], dtype=np.uint64)
    assert hamming64(a, b)[0] == 2
    assert hamming64(np.uint64(0), np.uint64(2**64 - 1))[0] == 64


def test_kernel_batch_roundtrip_and_determinism():
    texts = [
        "alpha beta gamma delta epsilon zeta eta theta",
        "alpha beta gamma delta epsilon zeta eta iota",
        "completely different words entirely here now ok yes",
        "",
    ]
    batch = pa.table(
        {"doc_id": pa.array([1, 2, 3, 4], pa.int64()), "text": texts}
    )
    k = SignatureKernel(CFG)
    out = k(batch)
    assert out.column_names == [
        "doc_id",
        "minhash",
        "simhash",
        "bands",
        "shingles",
        "n_shingles",
    ]
    assert out.num_rows == 4
    out2 = SignatureKernel(CFG)(batch)
    assert out.equals(out2)
    # packed shingles decode to sorted unique uint64
    sh = np.frombuffer(out.column("shingles")[0].as_py(), dtype=np.uint64)
    assert np.all(np.diff(sh.astype(object)) > 0)


def test_pack_b1_bits_and_estimator():
    import numpy as np

    from raydedup.config import DedupConfig
    from raydedup.stages.signatures import (
        batch_shingle_sets,
        minhash_batch,
        minhash_perms,
        pack_b1,
    )
    import pyarrow as pa

    # bit layout: LSB of perm i lands at bit i of the right word
    sig = np.zeros((1, 128), dtype=np.uint32)
    sig[0, 3] = 1
    sig[0, 70] = 5
    lo, hi = pack_b1(sig)
    assert int(lo[0]) == 1 << 3
    assert int(hi[0]) == 1 << (70 - 64)

    # estimator J ~ 2m - 1 on a high-overlap pair
    texts = [
        "the quick brown fox jumps over the lazy dog again and again today",
        "the quick brown fox jumps over the lazy dog again and again tonight",
        "completely different words about other topics entirely unrelated here",
    ]
    cfg = DedupConfig()
    sets = batch_shingle_sets(pa.array(texts), cfg)
    a, b = minhash_perms(cfg)
    m = minhash_batch(sets, a, b)
    lo, hi = pack_b1(m)
    x = np.array([lo, hi], dtype=np.uint64).T
    def match_frac(i, j):
        ham = bin(int(x[i,0] ^ x[j,0])).count("1") + bin(int(x[i,1] ^ x[j,1])).count("1")
        return 1 - ham / 128
    near = 2 * match_frac(0, 1) - 1
    far = 2 * match_frac(0, 2) - 1
    assert near > 0.5          # true jaccard ~0.85
    assert far < near - 0.3    # unrelated pair clearly lower

    with pytest.raises(ValueError):
        pack_b1(np.zeros((1, 200), dtype=np.uint32))


_BAND_TEXTS = {
    "ascii": [
        "alpha beta gamma delta epsilon zeta eta theta",
        "Alpha  beta gamma delta epsilon zeta eta iota alpha beta gamma delta",
        "repeat repeat repeat repeat repeat repeat repeat repeat",
    ],
    "non_ascii": [
        "über straße naïve café déjà vu résumé jalapeño",
        "İstanbul ĞÜŞ über straße naïve café déjà vu",
        "über straße naïve café über straße naïve café",
    ],
    "short": ["one", "two words", "three short words", "four words are here"],
    "empty_null": ["", None, "   ", "a b c d e f g"],
}


@pytest.mark.parametrize(
    "overrides",
    [{}, {"shingle_mode": "char"}, {"minhash_scheme": "oph"}],
    ids=["word", "char", "oph"],
)
def test_band_table_is_bit_identical_to_kernel_bands(overrides):
    """SignatureKernel.band_table skips SimHash and the per-doc shingle
    dedup; its band keys must equal the full kernel's, on every path of
    the shared front half (ASCII fast path, per-doc non-ASCII path,
    whole-text hash of docs shorter than shingle_k, empty and null)."""
    cfg = DedupConfig(**overrides)
    k = SignatureKernel(cfg, keep_shingles=False)
    texts = [t for group in _BAND_TEXTS.values() for t in group]
    batches = [list(g) for g in _BAND_TEXTS.values()] + [texts]
    for batch_texts in batches:
        batch = pa.table(
            {
                "doc_id": pa.array(range(len(batch_texts)), pa.int64()),
                "text": pa.array(batch_texts, pa.string()),
            }
        )
        got = k.band_table(batch)
        assert got.column_names == ["doc_id", "bands"]
        want = SignatureKernel(cfg)(batch)
        assert got.column("doc_id").equals(want.column("doc_id"))
        assert got.column("bands").equals(want.column("bands"))


def _band_batches():
    texts = [t for group in _BAND_TEXTS.values() for t in group]
    for batch_texts in [list(g) for g in _BAND_TEXTS.values()] + [texts]:
        yield pa.table(
            {
                "doc_id": pa.array(range(len(batch_texts)), pa.int64()),
                "text": pa.array(batch_texts, pa.string()),
            }
        )


@pytest.mark.parametrize(
    "overrides",
    [{}, {"shingle_mode": "char"}, {"minhash_scheme": "oph"}],
    ids=["word", "char", "oph"],
)
def test_band_set_table_is_bit_identical_to_kernel(overrides):
    """SignatureKernel.band_set_table (the query side's signing) skips
    SimHash and the MinHash column; its band keys and packed sorted
    unique shingle sets must equal the full kernel's byte for byte."""
    cfg = DedupConfig(**overrides)
    k = SignatureKernel(cfg, keep_shingles=False)
    for batch in _band_batches():
        got = k.band_set_table(batch)
        assert got.column_names == ["doc_id", "bands", "shingles"]
        want = SignatureKernel(cfg)(batch)
        for col in got.column_names:
            assert got.column(col).equals(want.column(col)), col
