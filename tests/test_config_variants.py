"""Degraded/alternate-config e2e runs (the "over the air" analog:
``OlafStorageKVTest.java:128-137`` runs the same harness under altered
config). Char-shingle mode and the OPH MinHash scheme must still clear
the recall gate on the planted corpus."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from raydedup.config import DedupConfig
from raydedup.pipelines.dedup_scale import run_dedup_scale
from raydedup.sources.pages import pages_to_docs, read_pages
from raydedup.stages.extract import doc_ids_from_urls


def _recall(paths, cl, kinds=("exact", "near"), tau=0.8):
    oc = pq.read_table(paths["oracle_clusters"]).to_pandas()
    op = pq.read_table(paths["oracle_pairs"]).to_pandas()
    url2id = dict(zip(oc.url, doc_ids_from_urls(oc.url.tolist())))
    cmap = dict(zip(cl.doc_id, cl.cluster_id))
    incl = op[(op.kind.isin(kinds)) & (op.jaccard_true >= tau)]
    hits = sum(cmap[url2id[a]] == cmap[url2id[b]] for a, b in zip(incl.a_url, incl.b_url))
    bp = op[op.kind == "boilerplate-twin"]
    merges = sum(cmap[url2id[a]] == cmap[url2id[b]] for a, b in zip(bp.a_url, bp.b_url))
    return hits / max(len(incl), 1), merges


def test_char_shingle_mode(ray_session, small_corpus):
    """char 9-gram shingles instead of word 5-grams: different feature
    space, same acceptance gates (word-level jaccard_true >= 0.8 pairs
    have char-level similarity well above tau too)."""
    spec, paths = small_corpus
    docs = pages_to_docs(read_pages(paths["pages"]))
    cfg = DedupConfig(batch_size=256, shingle_mode="char", jaccard_tau=0.6)
    res = run_dedup_scale(docs, cfg, containment=False)
    cl = res.clusters.to_pandas()
    recall, merges = _recall(paths, cl)
    assert recall >= 0.99
    assert merges == 0


def test_stricter_tau_rejects_near_pairs(ray_session, small_corpus):
    """tau=0.99 keeps exact dups together but splits near-dups —
    verification threshold actually gates the output."""
    spec, paths = small_corpus
    docs = pages_to_docs(read_pages(paths["pages"]))
    res = run_dedup_scale(
        docs, DedupConfig(batch_size=256, jaccard_tau=0.999), containment=False
    )
    cl = res.clusters.to_pandas()
    recall_exact, merges = _recall(paths, cl, kinds=("exact",), tau=0.0)
    assert recall_exact == 1.0
    recall_near, _ = _recall(paths, cl, kinds=("near",), tau=0.8)
    assert recall_near < 0.7
    assert merges == 0


def test_oph_minhash_scheme_e2e(ray_session, small_corpus):
    """One-permutation hashing with rotation densification instead of the
    128-permutation classic scheme: same banding layout, same exact-
    Jaccard verification, so the planted corpus must clear the same
    recall / false-merge gates."""
    spec, paths = small_corpus
    docs = pages_to_docs(read_pages(paths["pages"]))
    cfg = DedupConfig(batch_size=256, minhash_scheme="oph")
    res = run_dedup_scale(docs, cfg, containment=False)
    cl = res.clusters.to_pandas()
    recall, merges = _recall(paths, cl)
    assert recall >= 0.99
    assert merges == 0


def test_oph_estimator_quality():
    """OPH signature agreement estimates Jaccard with accuracy comparable
    to classic at the same n_perms (the ICML'14 variance result, checked
    statistically on synthetic full-range-u64 shingle sets)."""
    from raydedup.stages.signatures import minhash_batch, minhash_perms, oph_minhash_batch

    rng = np.random.Generator(np.random.PCG64(11)) 
    base = rng.integers(0, 2**64, size=300, dtype=np.uint64)
    sets = [
        np.unique(
            np.concatenate([base, rng.integers(0, 2**64, size=100, dtype=np.uint64)])
        )
        for _ in range(200)
    ]
    true_j = np.intersect1d(sets[0], sets[1]).shape[0] / np.union1d(sets[0], sets[1]).shape[0]
    s = oph_minhash_batch(sets, 128)
    ests = [(s[0] == s[i]).mean() for i in range(1, 200)]
    assert abs(float(np.mean(ests)) - true_j) < 0.05
    # determinism + input-order insensitivity
    assert np.array_equal(s, oph_minhash_batch(sets, 128))
    shuffled = sets[0].copy()
    rng.shuffle(shuffled)
    assert np.array_equal(oph_minhash_batch([shuffled], 128), oph_minhash_batch([sets[0]], 128))


def test_char_ngram_jaccard_allpairs(ray_session):
    """Char-8-gram all-pairs Jaccard (the jaccard_char_ngrams query):
    a typo-level edit keeps char similarity high while word 5-gram
    shingles see every window around the edited word change."""
    import ray.data as rd
    import pyarrow as pa
    from raydedup.stages.bruteforce import jaccard_pairs_bruteforce

    base = "the quick brown fox jumps over the lazy dog again and again " * 4
    typo = base.replace("jumps", "jumqs")  # one in-word char edit
    other = "completely unrelated content about maritime navigation charts " * 4
    docs = rd.from_arrow(
        pa.table({"doc_id": [1, 2, 3], "text": [base, typo, other]})
    )
    cfg = DedupConfig(shingle_mode="char", char_shingle_k=8)
    df = jaccard_pairs_bruteforce(docs, cfg=cfg, min_jaccard=0.5)
    assert list(zip(df.a, df.b)) == [(1, 2)]
    assert df.jaccard.iloc[0] > 0.7
    # word 5-grams on the same pair score lower than char 8-grams
    word_df = jaccard_pairs_bruteforce(docs, cfg=DedupConfig(), min_jaccard=0.0)
    w = word_df[(word_df.a == 1) & (word_df.b == 2)].jaccard.iloc[0]
    assert w < df.jaccard.iloc[0]
