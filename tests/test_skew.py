"""Skew / pair-explosion stress tests (the north rule's explicit
requirement; the reference just walks long duplicate chains,
``PanakoStorageKV.java:335-370``)."""

import numpy as np
import pandas as pd
import pyarrow as pa

from raydedup.config import DedupConfig
from raydedup.stages.candidates import band_postings, band_size_stats, postings_to_pairs
from raydedup.stages.extract import docs_identity_batch
from raydedup.pipelines.dedup import compute_signatures
from raydedup.pipelines.dedup_scale import run_dedup_scale


def _docs_ds(rd, texts):
    t = pa.table(
        {"doc_id": pa.array(list(range(len(texts))), pa.int64()), "text": texts}
    )
    return rd.from_arrow(t).map_batches(docs_identity_batch, batch_format="pyarrow")


def test_degenerate_band_capped(ray_session):
    """2000 DISTINCT near-identical docs share most bands; with a low cap
    those bands are dropped and counted rather than emitting ~2M pairs."""
    import ray.data as rd

    base = " ".join(f"w{i}" for i in range(60))
    texts = [base + f" tail{i}" for i in range(2000)]  # 2000 distinct variants
    docs = _docs_ds(rd, texts)
    cfg = DedupConfig(batch_size=512, max_band_postings=100)
    sigs = compute_signatures(docs, cfg, keep_shingles=False).materialize()
    post = band_postings(sigs, cfg)
    stats = band_size_stats(post, cfg)
    assert stats["dropped_groups"] > 0
    assert stats["max_group"] >= 100
    pairs = postings_to_pairs(post, cfg).to_pandas()
    # all surviving groups obey the cap: no group contributes > cap^2 pairs
    assert len(pairs) < 2000 * 100


def test_exact_copies_do_not_trip_band_cap(ray_session):
    """ADVICE r1: the run-size cap counts DISTINCT signatures, so a text
    with far more byte-identical copies than max_band_postings must keep
    its near-dup edge (the copies are one signature, not 1500)."""
    import ray.data as rd

    base_words = [f"tok{i}" for i in range(64)]
    base = " ".join(base_words)
    neardup = " ".join(base_words[:60] + ["zz1", "zz2", "zz3", "zz4"])
    texts = [base] * 1500 + [neardup]
    docs = _docs_ds(rd, texts)
    cfg = DedupConfig(batch_size=512, max_band_postings=100)
    sigs = compute_signatures(docs, cfg, keep_shingles=False).materialize()
    pairs = postings_to_pairs(band_postings(sigs, cfg), cfg).to_pandas()
    # the near-dup doc (id 1500) must be a candidate against rep doc 0
    assert ((pairs["a"] == 0) & (pairs["b"] == 1500)).any()
    # and the copies connect to the rep via linear star edges, not O(n^2)
    assert len(pairs) <= 1500 + 10
    res = run_dedup_scale(docs, cfg, containment=False)
    cl = res.clusters.to_pandas()
    assert cl.cluster_id.nunique() == 1  # everything one cluster


def test_large_exact_group_stays_cheap_and_correct(ray_session):
    """A 300-copy exact group must cluster fully via sha edges without
    LSH pair explosion (members are filtered from candidates)."""
    import ray.data as rd

    base = " ".join(f"tok{i}" for i in range(80))
    uniq = [" ".join(f"u{i}_{j}" for j in range(40)) for i in range(50)]
    texts = [base] * 300 + uniq
    docs = _docs_ds(rd, texts)
    res = run_dedup_scale(docs, DedupConfig(batch_size=512), containment=False)
    cl = res.clusters.to_pandas()
    copies = cl[cl.doc_id < 300]
    assert copies.cluster_id.nunique() == 1
    # 300 copies + 50 singletons: exactly 299 forest members
    assert res.metrics["n_dup_docs"] == 299
    # candidate pairs exclude exact members -> no quadratic blowup
    assert res.metrics["candidate_pairs"] < 1000
    singles = cl[cl.doc_id >= 300]
    assert (singles.doc_id == singles.cluster_id).all()


def test_hash_exchange_join_completeness(ray_session):
    """Every (left, right) key match lands in exactly one bucket kernel."""
    import ray
    import ray.data as rd

    from raydedup.stages.exchange import hash_exchange_join

    rng = np.random.Generator(np.random.PCG64(3))
    lk = rng.integers(0, 200, size=5000, dtype=np.int64)
    rk = np.arange(200, dtype=np.int64)
    left = rd.from_arrow(
        pa.table({"k": pa.array(lk), "v": pa.array(np.arange(5000, dtype=np.int64))})
    ).repartition(5)
    right = rd.from_arrow(
        pa.table({"k2": pa.array(rk), "w": pa.array(rk * 10)})
    ).repartition(3)

    def kernel(lt: pa.Table, rt: pa.Table) -> pa.Table:
        lookup = dict(zip(rt.column("k2").to_pylist(), rt.column("w").to_pylist()))
        ks = lt.column("k").to_pylist()
        return pa.table(
            {
                "k": lt.column("k"),
                "v": lt.column("v"),
                "w": pa.array([lookup[k] for k in ks], type=pa.int64()),
            }
        )

    refs = hash_exchange_join(left, right, "k", "k2", kernel, num_buckets=16)
    parts = [t for t in ray.get(refs) if t.num_rows]
    got = pa.concat_tables(parts).to_pandas().sort_values("v").reset_index(drop=True)
    assert len(got) == 5000
    assert (got["w"] == got["k"] * 10).all()


def test_evaluate_against_oracle_helper(ray_session, small_corpus):
    from raydedup.metrics import evaluate_against_oracle
    from raydedup.sources.pages import pages_to_docs, read_pages

    spec, paths = small_corpus
    res = run_dedup_scale(
        pages_to_docs(read_pages(paths["pages"])), DedupConfig(batch_size=256), containment=True
    )
    report = evaluate_against_oracle(
        res.clusters.to_pandas(), paths["oracle_clusters"], paths["oracle_pairs"]
    )
    assert report["recall"] >= 0.99
    assert report["boilerplate_false_merges"] == 0
    assert report["broken_singletons"] == 0


def test_recover_hot_runs_restores_dropped_recall(ray_session):
    """VERDICT r3 #7 (SURVEY §4 salting): a genuine near-dup family
    whose band runs exceed the distinct-signature cap is DROPPED by the
    default policy (recall 0 on those pairs) but RECOVERED with
    cfg.recover_hot_runs — sub-group cliques + a replicated anchor rep
    keep the pair fan-out O(reps x hot_run_group) while the family
    co-clusters after verification."""
    import ray.data as rd

    base = " ".join(f"w{i}" for i in range(120))
    # 24 distinct variants, pairwise jaccard well above tau (one token
    # appended out of ~116 5-gram shingles)
    texts = [base + f" v{i}" for i in range(24)]
    uniq = [" ".join(f"u{i}_{j}" for j in range(40)) for i in range(20)]
    docs = _docs_ds(rd, texts + uniq)

    dropped_cfg = DedupConfig(batch_size=64, max_band_postings=8)
    res_off = run_dedup_scale(docs, dropped_cfg, containment=False)
    cl_off = res_off.clusters.to_pandas().set_index("doc_id").cluster_id
    # default policy: the hot runs are dropped, family stays split
    assert cl_off[range(24)].nunique() > 1

    rec_cfg = DedupConfig(
        batch_size=64, max_band_postings=8, recover_hot_runs=True, hot_run_group=4
    )
    res_on = run_dedup_scale(docs, rec_cfg, containment=False)
    cl_on = res_on.clusters.to_pandas().set_index("doc_id").cluster_id
    assert cl_on[range(24)].nunique() == 1  # full family recovered
    # bounded fan-out: nowhere near the 24^2/2 all-pairs volume per run
    assert res_on.metrics["candidate_pairs"] < 24 * 16
    # unrelated docs unaffected
    assert cl_on[range(24, 44)].nunique() == 20


def _hot_page_store(tmp_path, n_copies: int, cfg: DedupConfig):
    """One 300-word page stored ``n_copies`` times under distinct urls
    plus 200 other pages (words drawn from 3,000), in 4 pages files,
    stored with build_index. Returns (index_dir, pages_dir, the page's
    text, the doc_ids of its copies)."""
    import os

    import pyarrow.parquet as pq

    from raydedup.corpus import render_html
    from raydedup.pipelines.query import build_index
    from raydedup.stages.extract import doc_ids_from_urls

    rng = np.random.default_rng(5)
    words = np.array([f"w{i}" for i in range(3000)])
    page = " ".join(rng.choice(words, 300))
    texts = [page] * n_copies + [" ".join(rng.choice(words, 300)) for _ in range(200)]
    urls = [f"https://hot.example/{i}" for i in range(len(texts))]
    pages_dir = tmp_path / "pages"
    os.makedirs(pages_dir)
    order = rng.permutation(len(texts))
    for k, part in enumerate(np.array_split(order, 4)):
        pq.write_table(
            pa.table(
                {
                    "url": [urls[i] for i in part],
                    "html": pa.array([render_html(urls[i], texts[i]) for i in part], pa.binary()),
                    "lang": ["en"] * len(part),
                }
            ),
            str(pages_dir / f"part{k}.parquet"),
        )
    index_dir = str(tmp_path / "index")
    build_index(str(pages_dir), index_dir, cfg)
    return index_dir, str(pages_dir), page, doc_ids_from_urls(urls[:n_copies])


def _edited(page: str) -> str:
    toks = page.split()
    toks[150] = "edited"
    return " ".join(toks)


def test_index_query_finds_near_dup_of_page_stored_over_cap(ray_session, tmp_path):
    """The index applies the engine's hot-band rule: a run over
    max_band_postings POSTINGS but under it in DISTINCT signatures (a
    page stored 30 times, cap 20) still emits its pairs, so the page's
    edited copy finds top_k of the copies."""
    import ray.data as rd

    from raydedup.pipelines.query import query_index
    from raydedup.stages.extract import doc_ids_from_urls

    cfg = DedupConfig(max_band_postings=20)
    index_dir, _, page, copy_ids = _hot_page_store(tmp_path, 30, cfg)
    q_id = doc_ids_from_urls(["https://fresh.example/edited"])
    q = rd.from_arrow(pa.table({"doc_id": pa.array(q_id), "text": [_edited(page)]}))
    df = query_index(index_dir, q, cfg, top_k=10)
    assert len(df) == 10
    assert set(df.match_doc_id) <= set(copy_ids.tolist())
    assert np.allclose(df.jaccard, 0.967, atol=0.005)


def test_index_query_scores_each_stored_text_once_for_every_copy(ray_session, tmp_path):
    """The verify wave shingles and scores one representative per
    distinct stored text (text_sha256), and every byte-identical copy
    still gets its own row, url and n_collisions: a page stored 30
    times returns 30 rows, each with its own url, the exact word-5-gram
    Jaccard of the edited page against the page, and the 16 bands less
    the ones the edit changed."""
    import ray.data as rd

    from raydedup.pipelines.query import query_index
    from raydedup.stages.extract import doc_ids_from_urls

    index_dir, _, page, copy_ids = _hot_page_store(tmp_path, 30, DedupConfig())
    q_id = doc_ids_from_urls(["https://fresh.example/edited"])
    q = rd.from_arrow(pa.table({"doc_id": pa.array(q_id), "text": [_edited(page)]}))
    df = query_index(index_dir, q, DedupConfig(), top_k=50)

    def grams(t):
        w = t.lower().split()
        return {tuple(w[i : i + 5]) for i in range(len(w) - 4)}

    a, b = grams(_edited(page)), grams(page)
    assert sorted(df.match_doc_id) == sorted(copy_ids.tolist())
    assert (doc_ids_from_urls(df.match_url.tolist()) == df.match_doc_id.to_numpy()).all()
    assert (df.jaccard == len(a & b) / len(a | b)).all()
    assert df.n_collisions.nunique() == 1 and 0 < df.n_collisions[0] <= 16


def test_fold_attaches_near_dup_of_page_stored_over_cap(ray_session, tmp_path):
    """A dedup_increment fold matches through the same rule: a file
    holding only the edited copy of a page stored 30 times (cap 20)
    joins the page's cluster instead of starting a new one."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from raydedup.corpus import render_html
    from raydedup.pipelines.increment import dedup_increment
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.extract import doc_ids_from_urls

    cfg = DedupConfig(max_band_postings=20)
    index_dir, pages_dir, page, copy_ids = _hot_page_store(tmp_path, 30, cfg)
    clusters_dir = str(tmp_path / "clusters")
    res = run_dedup_scale(pages_to_docs(read_pages(pages_dir)), cfg, containment=False)
    res.clusters.write_parquet(clusters_dir)
    cl = res.clusters.to_pandas().set_index("doc_id").cluster_id
    page_cluster = cl[copy_ids[0]]
    assert (cl[copy_ids] == page_cluster).all()

    inc_dir = tmp_path / "inc"
    os.makedirs(inc_dir)
    url = "https://fresh.example/edited"
    pq.write_table(
        pa.table(
            {
                "url": [url],
                "html": pa.array([render_html(url, _edited(page))], pa.binary()),
                "lang": ["en"],
            }
        ),
        str(inc_dir / "inc.parquet"),
    )
    info = dedup_increment(index_dir, clusters_dir, str(inc_dir), cfg)
    assert info["new_docs"] == 1 and info["attached_to_existing"] == 1
    got = rd.read_parquet(clusters_dir).to_pandas().set_index("doc_id").cluster_id
    assert got[doc_ids_from_urls([url])[0]] == page_cluster
