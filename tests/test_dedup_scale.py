"""The dedup engine (run_dedup_scale): oracle acceptance gates with
nothing corpus-proportional on the driver, width invariance, and
degenerate inputs."""

import pandas as pd
import pytest

from raydedup.config import DedupConfig
from raydedup.metrics import evaluate_against_oracle
from raydedup.pipelines.dedup_scale import run_dedup_scale
from raydedup.sources.pages import pages_to_docs, read_pages


@pytest.fixture(scope="module")
def both_runs(ray_session, small_corpus):
    spec, paths = small_corpus
    cfg = DedupConfig(batch_size=256)
    docs = pages_to_docs(read_pages(paths["pages"]))
    scale = run_dedup_scale(docs, cfg, containment=True, num_buckets=16, n_shards=3)
    return paths, scale


def _sorted(res):
    return res.clusters.to_pandas().sort_values("doc_id").reset_index(drop=True)


def test_scale_pipeline_oracle_gates(both_runs):
    paths, scale = both_runs
    cl = scale.clusters.to_pandas()
    rep = evaluate_against_oracle(cl, paths["oracle_clusters"], paths["oracle_pairs"])
    assert rep["recall"] >= 0.99
    assert rep["boilerplate_false_merges"] == 0
    assert rep["broken_singletons"] == 0


def test_scale_assignment_is_total_and_consistent(both_runs):
    paths, scale = both_runs
    cl = scale.clusters.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert cl.doc_id.is_unique
    # root convention: every cluster_id is itself assigned to that cluster
    roots = set(cl[cl.doc_id == cl.cluster_id].doc_id)
    assert set(cl.cluster_id).issubset(roots)
    # representative flag matches the id equality
    assert ((cl.doc_id == cl.cluster_id) == cl.is_representative).all()


def test_scale_matches_standard_on_exact_and_near(both_runs):
    """Every exact sha edge co-clusters, and containment only merges:
    each pair linked by the exact + LSH edges alone (a containment-off
    run) stays co-clustered with containment on."""
    from raydedup.pipelines.dedup import exact_dedup_edges

    paths, scale = both_runs
    s = scale.clusters.to_pandas()
    smap = dict(zip(s.doc_id, s.cluster_id))
    docs = pages_to_docs(read_pages(paths["pages"]))
    ee = exact_dedup_edges(docs).to_pandas()
    assert len(ee) > 0
    assert all(smap[a] == smap[b] for a, b in zip(ee.a, ee.b))
    near = run_dedup_scale(docs, DedupConfig(batch_size=256), containment=False)
    n = near.clusters.to_pandas()
    linked = n[n.doc_id != n.cluster_id]
    assert len(linked) > len(ee)
    assert all(smap[a] == smap[b] for a, b in zip(linked.doc_id, linked.cluster_id))
    assert near.metrics["n_dup_docs"] < scale.metrics["n_dup_docs"]


def test_scale_determinism(ray_session, small_corpus):
    spec, paths = small_corpus
    cfg = DedupConfig(batch_size=256)
    a = run_dedup_scale(
        pages_to_docs(read_pages(paths["pages"])), cfg, num_buckets=16, n_shards=3
    ).clusters.to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = run_dedup_scale(
        pages_to_docs(read_pages(paths["pages"])), cfg, num_buckets=8, n_shards=5
    ).clusters.to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_run_dedup_auto_routes_by_doc_count(both_runs, small_corpus):
    """run_dedup_auto runs the one engine whatever the doc count:
    below and above scale_min_docs (which no longer routes) it reports
    the scale path and gives the engine's frame at any width."""
    from raydedup.pipelines.dedup_scale import run_dedup_auto

    spec, paths = small_corpus
    _, scale = both_runs
    cfg = DedupConfig(batch_size=256)
    docs = pages_to_docs(read_pages(paths["pages"]))

    small = run_dedup_auto(docs, cfg, containment=True)
    assert small.metrics["dedup_path"] == "scale"
    assert small.metrics["n_docs"] == spec.n_docs
    pd.testing.assert_frame_equal(_sorted(small), _sorted(scale))

    big = run_dedup_auto(
        docs, cfg.with_overrides(scale_min_docs=1), containment=True,
        num_buckets=16, n_shards=3,
    )
    assert big.metrics["dedup_path"] == "scale"
    pd.testing.assert_frame_equal(_sorted(big), _sorted(scale))


def test_no_ray_data_plan_after_materialize(both_runs, monkeypatch):
    """On an already-materialized corpus the engine runs no Ray Data
    plan: the text split, the sha split and the signature wave take the
    materialized block refs and project their columns in-task."""
    from ray.data import Dataset

    paths, scale = both_runs
    docs = pages_to_docs(read_pages(paths["pages"])).materialize()
    calls = []
    for name in ("select_columns", "map_batches"):
        orig = getattr(Dataset, name)

        def record(self, *a, _name=name, _orig=orig, **kw):
            calls.append(_name)
            return _orig(self, *a, **kw)

        monkeypatch.setattr(Dataset, name, record)
    res = run_dedup_scale(docs, DedupConfig())
    assert calls == []
    pd.testing.assert_frame_equal(_sorted(res), _sorted(scale))


def test_stream_spill_phase1_is_cluster_identical(both_runs, tmp_path):
    """stream_spill_dir (VERDICT r4 #3): the streaming phase-1 variant
    (corpus cached once to disk-backed parquet, consumed lazily per
    stage) produces frame-identical clusters to the materialized path,
    and a second run REUSES the complete cache (marker contract)."""
    import os

    paths, scale = both_runs
    docs = pages_to_docs(read_pages(paths["pages"]))
    cfg = DedupConfig(batch_size=256)
    spill = str(tmp_path / "spill")
    got = run_dedup_scale(
        docs, cfg, containment=True, num_buckets=16, n_shards=3,
        stream_spill_dir=spill,
    )
    assert got.metrics["phase1_mode"] == "stream"
    a = got.clusters.to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = scale.clusters.to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)

    # cache reuse: parquet files untouched by a second run
    import glob

    files = sorted(glob.glob(os.path.join(spill, "*.parquet")))
    assert files and os.path.exists(os.path.join(spill, "_SPILL_COMPLETE"))
    mtimes = [os.path.getmtime(f) for f in files]
    again = run_dedup_scale(
        docs, cfg, containment=True, num_buckets=16, n_shards=3,
        stream_spill_dir=spill,
    )
    pd.testing.assert_frame_equal(
        again.clusters.to_pandas().sort_values("doc_id").reset_index(drop=True), b
    )
    assert [os.path.getmtime(f) for f in files] == mtimes


def test_run_dedup_auto_streams_above_threshold(ray_session, small_corpus, tmp_path):
    """run_dedup_auto threads cfg.stream_spill_dir into the scale path
    once the corpus crosses cfg.scale_stream_min_docs."""
    from raydedup.pipelines.dedup_scale import run_dedup_auto

    spec, paths = small_corpus
    docs = pages_to_docs(read_pages(paths["pages"]))
    spill = str(tmp_path / "autospill")
    cfg = DedupConfig(
        batch_size=256,
        scale_min_docs=1,
        scale_stream_min_docs=10,
        stream_spill_dir=spill,
    )
    res = run_dedup_auto(docs, cfg, containment=True, num_buckets=16, n_shards=3)
    assert res.metrics["dedup_path"] == "scale"
    assert res.metrics["phase1_mode"] == "stream"
    base = run_dedup_scale(
        pages_to_docs(read_pages(paths["pages"])),
        DedupConfig(batch_size=256),
        containment=True, num_buckets=16, n_shards=3,
    )
    pd.testing.assert_frame_equal(
        res.clusters.to_pandas().sort_values("doc_id").reset_index(drop=True),
        base.clusters.to_pandas().sort_values("doc_id").reset_index(drop=True),
    )


def test_scale_degenerate_inputs(ray_session):
    """0 docs, 1 doc, all-empty texts and 3 tiny texts run on the engine:
    a typed (doc_id, cluster_id, is_representative) assignment with one
    row per doc, singletons for distinct docs, and exact copies (the
    empty texts too) in one cluster."""
    import pyarrow as pa
    import ray.data as rd

    from raydedup.stages.cluster_scale import ASSIGNMENT_SCHEMA
    from raydedup.stages.extract import docs_identity_batch

    def docs_of(texts):
        t = pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
        return rd.from_arrow(t).map_batches(docs_identity_batch, batch_format="pyarrow")

    empty = run_dedup_scale(docs_of([]), DedupConfig())
    assert empty.metrics["n_docs"] == 0 and empty.metrics["n_dup_docs"] == 0
    assert empty.clusters.count() == 0
    assert empty.clusters.schema().names == ASSIGNMENT_SCHEMA.names
    assert list(empty.clusters.schema().types) == ASSIGNMENT_SCHEMA.types

    for texts, want in [
        (["just one doc"], [0]),
        (["", "", ""], [0, 0, 0]),
        (["a", "a", "b"], [0, 0, 2]),
    ]:
        res = run_dedup_scale(docs_of(texts), DedupConfig(), substring=True)
        cl = _sorted(res)
        assert cl.doc_id.tolist() == list(range(len(texts)))
        assert cl.cluster_id.tolist() == want, texts
        assert (cl.is_representative == (cl.doc_id == cl.cluster_id)).all()
        assert res.metrics["n_dup_docs"] == len(texts) - len(set(want))
