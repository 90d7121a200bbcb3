"""End-to-end golden test: planted-duplicate corpus -> clusters, with
dup-pair recall >= 0.99 vs the oracle (the north-rule acceptance gate;
analog of the reference's golden matching tests,
``PanakoStrategyTest.java:40-70``: stored refs + ground-truthed query
fragments must match)."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from raydedup.config import DedupConfig
from raydedup.pipelines.dedup_scale import run_dedup_scale
from raydedup.sources.pages import pages_to_docs, read_pages
from raydedup.stages.extract import doc_ids_from_urls


@pytest.fixture(scope="module")
def dedup_run(ray_session, small_corpus):
    spec, paths = small_corpus
    docs = pages_to_docs(read_pages(paths["pages"]))
    cfg = DedupConfig(batch_size=256)
    res = run_dedup_scale(docs, cfg, containment=False)
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


def test_verified_pairs_above_tau(ray_session, small_corpus):
    """The engine's verify kernels (make_attach_a, then
    make_attach_b_verify) keep exactly the oracle pairs whose exact
    shingle Jaccard is >= tau, each with that Jaccard."""
    import pyarrow as pa

    from raydedup.stages.verify import (
        jaccard_sorted,
        make_attach_a,
        make_attach_b_verify,
        packed_shingle_table,
    )
    from raydedup.util import to_arrow_table

    spec, paths = small_corpus
    cfg = DedupConfig()
    docs = to_arrow_table(
        pages_to_docs(read_pages(paths["pages"])).select_columns(["doc_id", "text"])
    )
    packed = packed_shingle_table(docs, cfg)
    oc = pq.read_table(paths["oracle_clusters"]).to_pandas()
    op = pq.read_table(paths["oracle_pairs"]).to_pandas()
    url2id = dict(zip(oc.url, doc_ids_from_urls(oc.url.tolist())))
    pairs = pa.table(
        {
            "a": pa.array([url2id[u] for u in op.a_url], pa.int64()),
            "b": pa.array([url2id[u] for u in op.b_url], pa.int64()),
        }
    )
    got = make_attach_b_verify(cfg.jaccard_tau)(make_attach_a()(pairs, packed), packed)
    sets = dict(
        zip(
            packed.column("doc_id").to_pylist(),
            (np.frombuffer(x, dtype=np.uint64) for x in packed.column("shingles").to_pylist()),
        )
    )
    scored = [
        (a, b, jaccard_sorted(sets[a], sets[b]))
        for a, b in zip(pairs["a"].to_pylist(), pairs["b"].to_pylist())
    ]
    want = sorted(row for row in scored if row[2] >= cfg.jaccard_tau)
    assert 0 < len(want) < pairs.num_rows  # the oracle pairs straddle tau
    got_rows = zip(got["a"].to_pylist(), got["b"].to_pylist(), got["jaccard"].to_pylist())
    assert sorted(got_rows) == want


def test_uniques_stay_singletons(dedup_run):
    """True negatives: 'unique' docs must be their own cluster."""
    res, cl, oc, op, url2id, cmap = dedup_run
    uniq = oc[oc.variant == "unique"]
    wrong = sum(cmap[url2id[u]] != url2id[u] for u in uniq.url)
    assert wrong == 0


def test_actor_clustering_matches_driver(ray_session, small_corpus, dedup_run):
    """The corpus's planted duplicate pairs (the oracle's edges) through
    the engine's forest task DAG (split over 6 refs, 2 leaves + a merge)
    give UnionFind's components."""
    res, cl, oc, op, url2id, cmap = dedup_run
    import pyarrow as pa
    import ray

    from raydedup.stages.cluster import UnionFind
    from raydedup.stages.cluster_scale import cluster_edge_refs

    dup = op[op.kind.isin(["exact", "near", "containment"])]
    edges = pa.table(
        {
            "a": pa.array([url2id[u] for u in dup.a_url], pa.int64()),
            "b": pa.array([url2id[u] for u in dup.b_url], pa.int64()),
        }
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
