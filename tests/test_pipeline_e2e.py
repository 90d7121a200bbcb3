"""End-to-end golden test: planted-duplicate corpus -> clusters, with
dup-pair recall >= 0.99 vs the oracle (the north-rule acceptance gate;
analog of the reference's golden matching tests,
``PanakoStrategyTest.java:40-70``: stored refs + ground-truthed query
fragments must match)."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from raydedup.config import DedupConfig
from raydedup.pipelines.dedup import run_dedup
from raydedup.sources.pages import pages_to_docs, read_pages
from raydedup.stages.extract import doc_ids_from_urls


@pytest.fixture(scope="module")
def dedup_run(ray_session, small_corpus):
    spec, paths = small_corpus
    docs = pages_to_docs(read_pages(paths["pages"]))
    cfg = DedupConfig(batch_size=256)
    res = run_dedup(docs, cfg)
    cl = res.clusters.to_pandas()
    oc = pq.read_table(paths["oracle_clusters"]).to_pandas()
    op = pq.read_table(paths["oracle_pairs"]).to_pandas()
    url2id = dict(zip(oc.url, doc_ids_from_urls(oc.url.tolist())))
    cmap = dict(zip(cl.doc_id, cl.cluster_id))
    return res, cl, oc, op, url2id, cmap


def test_all_docs_assigned(dedup_run):
    res, cl, oc, *_ = dedup_run
    assert len(cl) == len(oc)
    assert cl.doc_id.is_unique


def test_dup_pair_recall(dedup_run):
    """Recall >= 0.99 on oracle pairs at/above tau (cluster co-membership;
    boilerplate twins and sub-tau near-low pairs excluded per FIXTURES)."""
    res, cl, oc, op, url2id, cmap = dedup_run
    tau = DedupConfig().jaccard_tau
    incl = op[(op.kind.isin(["exact", "near"])) & (op.jaccard_true >= tau)]
    assert len(incl) > 50
    hits = sum(
        cmap[url2id[a]] == cmap[url2id[b]] for a, b in zip(incl.a_url, incl.b_url)
    )
    recall = hits / len(incl)
    assert recall >= 0.99, f"recall {recall:.4f} on {len(incl)} oracle pairs"


def test_no_boilerplate_false_merges(dedup_run):
    res, cl, oc, op, url2id, cmap = dedup_run
    bp = op[op.kind == "boilerplate-twin"]
    assert len(bp) > 10
    merges = sum(
        cmap[url2id[a]] == cmap[url2id[b]] for a, b in zip(bp.a_url, bp.b_url)
    )
    assert merges == 0


def test_verified_pairs_above_tau(dedup_run):
    res, *_ = dedup_run
    vp = res.verified_pairs.to_pandas()
    assert (vp.jaccard >= DedupConfig().jaccard_tau).all()


def test_uniques_stay_singletons(dedup_run):
    """True negatives: 'unique' docs must be their own cluster."""
    res, cl, oc, op, url2id, cmap = dedup_run
    uniq = oc[oc.variant == "unique"]
    wrong = sum(cmap[url2id[u]] != url2id[u] for u in uniq.url)
    assert wrong == 0


def test_actor_clustering_matches_driver(ray_session, small_corpus, dedup_run):
    """The run's edges through the scale path's forest task DAG (split
    over 6 refs, 2 leaves + a merge) give UnionFind's components."""
    res, cl, *_ = dedup_run
    import pyarrow as pa
    import ray

    from raydedup.stages.cluster import UnionFind
    from raydedup.stages.cluster_scale import cluster_edge_refs

    edges = pa.concat_tables(
        [res.verified_pairs.select(["a", "b"]), res.exact_edges.select(["a", "b"])]
    )
    uf = UnionFind()
    for a, b in zip(edges.column("a").to_pylist(), edges.column("b").to_pylist()):
        uf.union(a, b)
    want = {m: r for m, r in uf.components().items() if m != r}
    step = -(-edges.num_rows // 6)
    refs = [ray.put(edges.slice(i, step)) for i in range(0, edges.num_rows, step)]
    assert len(refs) >= 5
    (forest,) = ray.get(cluster_edge_refs(refs, n_shards=2))
    got = dict(zip(forest.column("b").to_pylist(), forest.column("a").to_pylist()))
    assert got == want
