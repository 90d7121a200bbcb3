"""Checkpoint/resume tests: kill-and-resume must reproduce the clusters
of an uninterrupted run exactly (the north-rule resumability gate;
analog of the .tdb cache + `panako load` path,
``OlafStrategy.java:623-664``)."""

import glob
import json
import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

from raydedup.config import DedupConfig
from raydedup.state.checkpoint import CheckpointManager, run_dedup_checkpointed


def _pages_files(paths):
    return sorted(glob.glob(os.path.join(paths["pages"], "*.parquet")))


def _clusters_df(result) -> pd.DataFrame:
    files = sorted(glob.glob(os.path.join(result["clusters_path"], "*.parquet")))
    df = pd.concat([pq.read_table(f).to_pandas() for f in files])
    return df.sort_values("doc_id").reset_index(drop=True)


@pytest.fixture(scope="module")
def cfg():
    return DedupConfig(batch_size=256)


def test_uninterrupted_vs_killed_and_resumed(ray_session, small_corpus, tmp_path, cfg):
    spec, paths = small_corpus
    files = _pages_files(paths)
    assert len(files) >= 4

    # uninterrupted reference run
    full = run_dedup_checkpointed(files, str(tmp_path / "full"), cfg)
    assert full is not None
    ref = _clusters_df(full)
    assert len(ref) == spec.n_docs

    # killed run: only 2 shards complete, then "crash"
    kdir = str(tmp_path / "killed")
    partial = run_dedup_checkpointed(files, kdir, cfg, max_shards=2)
    assert partial is None
    manifest = json.load(open(os.path.join(kdir, "manifest.json")))
    assert sum(1 for s in manifest["shards"].values() if s["status"] == "done") == 2

    # resume: remaining shards + global stages
    resumed = run_dedup_checkpointed(files, kdir, cfg)
    assert resumed is not None
    assert resumed["metrics"]["resumed_shards"] == 2
    got = _clusters_df(resumed)
    pd.testing.assert_frame_equal(got, ref)


def test_resume_skips_completed_stages(ray_session, small_corpus, tmp_path, cfg):
    spec, paths = small_corpus
    files = _pages_files(paths)
    d = str(tmp_path / "rerun")
    first = run_dedup_checkpointed(files, d, cfg)
    m1 = json.load(open(os.path.join(d, "manifest.json")))
    # second invocation must be a no-op (same manifest timestamps)
    second = run_dedup_checkpointed(files, d, cfg)
    m2 = json.load(open(os.path.join(d, "manifest.json")))
    assert m1 == m2
    pd.testing.assert_frame_equal(_clusters_df(first), _clusters_df(second))


def test_resume_with_changed_input_set_preserves_done_shards(
    ray_session, small_corpus, tmp_path, cfg
):
    """ADVICE r1: shard parquet names must derive from the shard KEY, not
    the position in the sorted file list — interrupting a run and then
    adding an input file that sorts first must not overwrite a done
    shard's parquet while it stays marked done."""
    import shutil

    spec, paths = small_corpus
    files = _pages_files(paths)
    work = tmp_path / "inputs"
    work.mkdir()
    for f in files:
        shutil.copy(f, work / os.path.basename(f))
    cur = sorted(glob.glob(str(work / "*.parquet")))

    d = str(tmp_path / "ck")
    partial = run_dedup_checkpointed(cur, d, cfg, max_shards=2)
    assert partial is None
    docs_before = {
        os.path.basename(p): os.path.getsize(p)
        for p in glob.glob(os.path.join(d, "docs", "*.parquet"))
    }

    # an extra input that sorts BEFORE every existing shard shifts all
    # positional indices; key-derived names must be unaffected
    shutil.copy(cur[0], work / "0000_added.parquet")
    resumed = run_dedup_checkpointed(sorted(glob.glob(str(work / "*.parquet"))), d, cfg)
    assert resumed is not None
    for name, size in docs_before.items():
        p = os.path.join(d, "docs", name)
        assert os.path.exists(p) and os.path.getsize(p) == size, name

    # every input doc is present exactly once per source row
    total = sum(
        pq.read_table(p).num_rows for p in glob.glob(os.path.join(d, "docs", "*.parquet"))
    )
    src = sum(pq.read_table(f).num_rows for f in sorted(glob.glob(str(work / "*.parquet"))))
    assert total == src


def test_config_change_invalidates_lineage(tmp_path, cfg):
    mgr = CheckpointManager(str(tmp_path / "c"), cfg)
    mgr.mark_shard("x:1", shard=0)
    assert CheckpointManager(str(tmp_path / "c"), cfg).shard_done("x:1")
    other = cfg.with_overrides(jaccard_tau=0.9)
    assert not CheckpointManager(str(tmp_path / "c"), other).shard_done("x:1")


def test_config_hash_leaves_out_execution_fields(tmp_path, cfg):
    """Fields that change only how a run executes keep the lineage: a
    checkpoint (or an index) stays usable across them, while a field
    that changes a signature still invalidates it."""
    from raydedup.state.checkpoint import _config_hash

    execution = dict(
        batch_size=1024, stream_spill_dir="spill", scale_stream_min_docs=1, scale_min_docs=1
    )
    want = _config_hash(cfg)
    for k, v in execution.items():
        assert _config_hash(cfg.with_overrides(**{k: v})) == want, k
    assert _config_hash(cfg.with_overrides(**execution)) == want
    assert _config_hash(cfg.with_overrides(shingle_k=4)) != want

    mgr = CheckpointManager(str(tmp_path / "c"), cfg)
    mgr.mark_shard("x:1", shard=0)
    assert CheckpointManager(str(tmp_path / "c"), cfg.with_overrides(**execution)).shard_done("x:1")
    assert not CheckpointManager(str(tmp_path / "c"), cfg.with_overrides(shingle_k=4)).shard_done("x:1")


def test_checkpointed_scale_mode(ray_session, small_corpus, tmp_path, cfg):
    """Phase 2 runs the refs-only pipeline: clusters identical to a
    direct run_dedup_scale, single 'scale_clusters' stage in the
    manifest, re-invocation a no-op."""
    from raydedup.pipelines.dedup_scale import run_dedup_scale
    from raydedup.sources.pages import pages_to_docs, read_pages

    spec, paths = small_corpus
    files = _pages_files(paths)
    d = str(tmp_path / "scale")
    out = run_dedup_checkpointed(files, d, cfg)
    assert out is not None
    assert out["metrics"]["dedup_path"] == "scale"
    manifest = json.load(open(os.path.join(d, "manifest.json")))
    assert set(manifest["stages"]) == {"scale_clusters"}
    got = _clusters_df(out)

    direct = run_dedup_scale(
        pages_to_docs(read_pages(paths["pages"])), cfg, containment=True
    ).clusters.to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[direct.columns], direct)

    # re-invocation: no-op (stage marked done)
    again = run_dedup_checkpointed(files, d, cfg)
    m2 = json.load(open(os.path.join(d, "manifest.json")))
    assert manifest == m2
    pd.testing.assert_frame_equal(_clusters_df(again), got)


def test_exchange_checkpoint_roundtrip(ray_session, tmp_path, cfg):
    """ExchangeCheckpoint.run computes once, persists per-bucket parquet
    with manifest rows, and loads (never recomputes) on the next run;
    a config change invalidates the lineage like every other artifact."""
    import pyarrow as pa
    import ray

    from raydedup.state.checkpoint import ExchangeCheckpoint

    mgr = CheckpointManager(str(tmp_path / "x"), cfg)
    exch = ExchangeCheckpoint(mgr)
    calls = []

    def thunk():
        calls.append(1)
        return [
            ray.put(pa.table({"a": pa.array([1, 2], pa.int64())})),
            ray.put(pa.table({})),  # 0-column empty (schema-less bucket)
        ]

    exch.run("s1", thunk)
    assert calls == [1] and exch.done("s1") and exch.stage_rows("s1") == 2

    exch2 = ExchangeCheckpoint(CheckpointManager(str(tmp_path / "x"), cfg))
    refs2 = exch2.run("s1", thunk)
    assert calls == [1]  # loaded, not recomputed
    tbls = ray.get(refs2)
    assert tbls[0].column("a").to_pylist() == [1, 2]
    assert tbls[1].num_rows == 0
    assert exch2.loaded_stages == ["s1"]

    other = ExchangeCheckpoint(
        CheckpointManager(str(tmp_path / "x"), cfg.with_overrides(jaccard_tau=0.9))
    )
    assert not other.done("s1")


def test_exchange_checkpoint_input_change_invalidates(ray_session, tmp_path, cfg):
    """A done exchange stage is reused only while the run's input
    fingerprint matches the recorded one: resuming after shards were
    ADDED must re-run the stage instead of silently serving stale
    buckets (advisory r4) — including over legacy pre-fingerprint
    entries, which invalidate too."""
    import pyarrow as pa
    import ray

    from raydedup.state.checkpoint import ExchangeCheckpoint

    mgr = CheckpointManager(str(tmp_path / "fp"), cfg)
    exch = ExchangeCheckpoint(mgr)
    exch.input_fp = "n_docs=10"
    calls = []

    def thunk():
        calls.append(1)
        return [ray.put(pa.table({"a": pa.array([len(calls)], pa.int64())}))]

    exch.run("s1", thunk)
    assert calls == [1]

    # same fingerprint -> loaded, not recomputed
    e2 = ExchangeCheckpoint(CheckpointManager(str(tmp_path / "fp"), cfg))
    e2.input_fp = "n_docs=10"
    refs = e2.run("s1", thunk)
    assert calls == [1] and e2.loaded_stages == ["s1"]
    assert ray.get(refs[0]).column("a").to_pylist() == [1]

    # grown corpus -> invalidated + recomputed, new result persisted
    e3 = ExchangeCheckpoint(CheckpointManager(str(tmp_path / "fp"), cfg))
    e3.input_fp = "n_docs=12"
    refs = e3.run("s1", thunk)
    assert calls == [1, 1] and e3.invalidated_stages == ["s1"]
    assert ray.get(refs[0]).column("a").to_pylist() == [2]
    assert e3.stage_rows("s1") == 1

    # legacy entry with NO recorded fingerprint also invalidates
    legacy = ExchangeCheckpoint(CheckpointManager(str(tmp_path / "fp"), cfg))
    del legacy.mgr.manifest["exchanges"]["s1"]["input_fp"]
    legacy.input_fp = "n_docs=12"
    legacy.run("s1", thunk)
    assert calls == [1, 1, 1] and legacy.invalidated_stages == ["s1"]


def test_scale_resume_skips_finished_exchanges(
    ray_session, small_corpus, tmp_path, cfg, monkeypatch
):
    """VERDICT r3 #1: kill mid-phase-2 (right after the candidate
    exchange commits), resume, and complete WITHOUT re-running the
    finished exchanges — their kernels are poisoned during the resume,
    so any replay fails the test — with clusters identical to a direct
    uninterrupted run_dedup_scale."""
    from raydedup.pipelines.dedup_scale import run_dedup_scale
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.state.checkpoint import CheckpointKilled

    spec, paths = small_corpus
    files = _pages_files(paths)
    d = str(tmp_path / "killsc")

    with pytest.raises(CheckpointKilled):
        run_dedup_checkpointed(files, d, cfg, fail_after_stage="candidates")
    manifest = json.load(open(os.path.join(d, "manifest.json")))
    ex = manifest["exchanges"]
    assert ex["exact"]["status"] == "done"
    assert ex["candidates"]["status"] == "done"
    assert "verified" not in ex
    assert "scale_clusters" not in manifest["stages"]
    # per-bucket files + manifest rows exist for the committed stages
    import glob as _g

    n_files = len(_g.glob(os.path.join(d, "exchanges", "candidates", "*.parquet")))
    assert n_files == ex["candidates"]["n_buckets"] > 0
    assert len(ex["candidates"]["buckets"]) == n_files

    # poison the finished exchanges' kernels: resume must never call them
    import raydedup.pipelines.dedup as D
    import raydedup.pipelines.dedup_scale as DS
    import raydedup.stages.candidates as C

    def _boom(*a, **k):
        raise AssertionError("finished exchange was re-run on resume")

    monkeypatch.setattr(C, "candidate_pair_refs", _boom)
    monkeypatch.setattr(DS, "_signature_wave", _boom)
    monkeypatch.setattr(D, "sha_emit_table", _boom)
    monkeypatch.setattr(D, "sha_key_table", _boom)

    resumed = run_dedup_checkpointed(files, d, cfg)
    assert resumed is not None
    assert set(resumed["metrics"]["resumed_exchanges"]) == {"exact", "candidates"}
    m2 = json.load(open(os.path.join(d, "manifest.json")))
    for stage in ("verified", "forest1", "containment"):
        assert m2["exchanges"][stage]["status"] == "done"

    got = _clusters_df(resumed)
    monkeypatch.undo()  # the direct reference run needs the real kernels
    direct = (
        run_dedup_scale(pages_to_docs(read_pages(paths["pages"])), cfg, containment=True)
        .clusters.to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[direct.columns], direct)


PHASE2_STAGES = ("exact", "candidates", "verified", "forest1", "containment", "forest2")


@pytest.fixture(scope="module")
def checkpointed_ref(ray_session, small_corpus, tmp_path_factory, cfg):
    """Clusters of one uninterrupted checkpointed run."""
    files = _pages_files(small_corpus[1])
    return _clusters_df(
        run_dedup_checkpointed(files, str(tmp_path_factory.mktemp("ref")), cfg)
    )


@pytest.mark.parametrize("kill_at", ["forest1", "containment", "forest2"])
def test_scale_resume_after_late_stage_kill(
    ray_session, small_corpus, tmp_path, cfg, monkeypatch, checkpointed_ref, kill_at
):
    """Kill right AFTER a late phase-2 stage commits: the resume must
    load every stage up to ``kill_at`` from its bucket files (the kernels
    of those stages are poisoned, so any replay fails), re-run only the
    stages after it plus the assignment, and give clusters frame-
    identical to an uninterrupted checkpointed run."""
    import raydedup.pipelines.dedup as D
    import raydedup.pipelines.dedup_scale as DS
    import raydedup.stages.candidates as C
    import raydedup.stages.containment as CT
    from raydedup.state.checkpoint import CheckpointKilled

    files = _pages_files(small_corpus[1])
    d = str(tmp_path / "late")
    loaded = PHASE2_STAGES[: PHASE2_STAGES.index(kill_at) + 1]

    with pytest.raises(CheckpointKilled):
        run_dedup_checkpointed(files, d, cfg, fail_after_stage=kill_at)
    ex = json.load(open(os.path.join(d, "manifest.json")))["exchanges"]
    assert {k for k, v in ex.items() if v.get("status") == "done"} == set(loaded)

    # poison the kernel family of every committed stage during the resume
    poisons = {
        "exact": [(D, "sha_key_table")],
        "candidates": [(C, "candidate_pair_refs"), (DS, "_signature_wave")],
        "verified": [(DS, "make_filter_and_shingle")],
        "forest1": [],  # its kernel, cluster_edge_refs, re-runs for forest2
        "containment": [
            (DS, "make_drop_exact_then_explode"),
            (CT, "fingerprint_postings_table"),
        ],
        "forest2": [(DS, "cluster_edge_refs")],
    }

    def _boom(*a, **k):
        raise AssertionError("finished exchange was re-run on resume")

    for stage in loaded:
        for mod, name in poisons[stage]:
            monkeypatch.setattr(mod, name, _boom)

    resumed = run_dedup_checkpointed(files, d, cfg)
    assert resumed is not None
    assert set(resumed["metrics"]["resumed_exchanges"]) == set(loaded)
    monkeypatch.undo()
    pd.testing.assert_frame_equal(_clusters_df(resumed), checkpointed_ref)


def test_completed_checkpoint_reclusters_after_new_shard(
    ray_session, small_corpus, tmp_path, cfg
):
    """Review finding on the r4 advisory fix: the exchange fingerprint
    never fires once a run COMPLETED (phase 2 skips on its done
    stages), so a shard added to a finished checkpoint kept the old
    clusters. The phase-2 shard-set gate must re-cluster with the new
    docs included."""
    import shutil

    spec, paths = small_corpus
    files = _pages_files(paths)
    work = tmp_path / "in"
    work.mkdir()
    for f in files[:-1]:
        shutil.copy(f, work / os.path.basename(f))
    d = str(tmp_path / "ck")
    cur = sorted(glob.glob(str(work / "*.parquet")))
    out1 = run_dedup_checkpointed(cur, d, cfg)
    n1 = len(_clusters_df(out1))

    shutil.copy(files[-1], work / os.path.basename(files[-1]))
    cur = sorted(glob.glob(str(work / "*.parquet")))
    out2 = run_dedup_checkpointed(cur, d, cfg)
    cl2 = _clusters_df(out2)
    added = pq.read_table(files[-1]).num_rows
    assert len(cl2) == n1 + added
    # the added shard's docs must actually participate: re-running
    # from scratch over the full set must agree exactly
    d3 = str(tmp_path / "ck3")
    out3 = run_dedup_checkpointed(cur, d3, cfg)
    pd.testing.assert_frame_equal(cl2, _clusters_df(out3))


def test_exchange_invalidation_is_durable_before_recompute(ray_session, tmp_path, cfg):
    """An input-fingerprint invalidation reaches the on-disk manifest
    before the recompute runs: if the recompute crashes, the manifest
    no longer marks the stage done over its deleted bucket files."""
    import pyarrow as pa
    import ray

    from raydedup.state.checkpoint import ExchangeCheckpoint

    ck = str(tmp_path / "inv")
    exch = ExchangeCheckpoint(CheckpointManager(ck, cfg))
    exch.input_fp = "n_docs=10"
    exch.run("s1", lambda: [ray.put(pa.table({"a": pa.array([1], pa.int64())}))])

    def crash():
        raise RuntimeError("recompute died")

    e2 = ExchangeCheckpoint(CheckpointManager(ck, cfg))
    e2.input_fp = "n_docs=12"
    with pytest.raises(RuntimeError, match="recompute died"):
        e2.run("s1", crash)
    with open(os.path.join(ck, "manifest.json")) as f:
        on_disk = json.load(f)
    assert on_disk["exchanges"]["s1"].get("status") != "done"
    # a later run with the OLD fingerprint recomputes instead of reading
    # the deleted buckets
    e3 = ExchangeCheckpoint(CheckpointManager(ck, cfg))
    e3.input_fp = "n_docs=10"
    refs = e3.run("s1", lambda: [ray.put(pa.table({"a": pa.array([7], pa.int64())}))])
    assert e3.loaded_stages == [] and ray.get(refs[0]).column("a").to_pylist() == [7]


def test_checkpointed_normalize_matches_engine(ray_session, tmp_path):
    """With cfg.normalize the phase-1 signatures (signed over raw text)
    cannot feed candidates: two docs that differ only in '…' vs '...'
    and one word share no raw band, so the checkpointed run must sign
    the normalized text and cluster them like run_dedup_scale does."""
    import pyarrow as pa

    from raydedup.corpus import render_html
    from raydedup.pipelines.dedup_scale import run_dedup_scale
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.extract import doc_ids_from_urls

    words = [f"tok{i}" for i in range(30)]
    texts = [
        " ".join(w + "…" for w in words),
        " ".join(w + "..." for w in words) + " extra",
        *(" ".join(f"w{i}x{j}" for i in range(25)) for j in range(6)),
    ]
    urls = [f"https://norm.example/p/{i}" for i in range(len(texts))]
    pages = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "html": pa.array([render_html(u, t) for u, t in zip(urls, texts)], pa.binary()),
            "lang": pa.array(["en"] * len(texts), pa.string()),
        }
    )
    pages_dir = tmp_path / "pages"
    pages_dir.mkdir()
    for k in range(2):
        pq.write_table(pages.slice(4 * k, 4), str(pages_dir / f"part-{k}.parquet"))
    cfg = DedupConfig(batch_size=64, normalize=True, scale_min_docs=1)

    direct = (
        run_dedup_scale(pages_to_docs(read_pages(str(pages_dir))), cfg, containment=False)
        .clusters.to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    a, b = doc_ids_from_urls(urls[:2])
    cl = direct.set_index("doc_id")["cluster_id"]
    assert cl.loc[a] == cl.loc[b]

    out = run_dedup_checkpointed(
        _pages_files({"pages": str(pages_dir)}), str(tmp_path / "ck"), cfg,
        containment=False,
    )
    pd.testing.assert_frame_equal(_clusters_df(out)[direct.columns], direct)


@pytest.mark.parametrize("substring", [False, True], ids=["containment", "substring"])
def test_checkpoint_policy_is_cluster_identical(
    ray_session, small_corpus, tmp_path, cfg, substring
):
    """The checkpoint is a per-stage policy on one stage graph: with an
    ExchangeCheckpoint, run_dedup_scale gives the frame and the counts
    of the unchecked run, and a second run over the same directory
    loads every committed stage and gives them again."""
    from raydedup.pipelines.dedup_scale import run_dedup_scale
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.state.checkpoint import ExchangeCheckpoint

    spec, paths = small_corpus
    docs = pages_to_docs(read_pages(paths["pages"])).materialize()
    kw = dict(containment=True, substring=substring)
    keys = ["candidate_pairs", "verified_pairs", "containment_pairs", "n_dup_docs"]
    if substring:
        keys.append("substring_pairs")

    def frame(res):
        return res.clusters.to_pandas().sort_values("doc_id").reset_index(drop=True)

    ref = run_dedup_scale(docs, cfg, **kw)
    want = frame(ref)

    d = str(tmp_path / "ck")
    ck1 = ExchangeCheckpoint(CheckpointManager(d, cfg))
    first = run_dedup_scale(docs, cfg, ckpt=ck1, **kw)
    pd.testing.assert_frame_equal(frame(first), want)
    assert {k: first.metrics[k] for k in keys} == {k: ref.metrics[k] for k in keys}
    assert first.metrics["resumed_exchanges"] == []
    stages = list(ck1.mgr.manifest["exchanges"])
    assert stages[:5] == ["exact", "candidates", "verified", "forest1", "containment"]
    assert ("substring_edges" in stages) == substring

    ck2 = ExchangeCheckpoint(CheckpointManager(d, cfg))
    second = run_dedup_scale(docs, cfg, ckpt=ck2, **kw)
    assert ck2.loaded_stages == stages and ck2.invalidated_stages == []
    assert second.metrics["resumed_exchanges"] == stages
    pd.testing.assert_frame_equal(frame(second), want)
    assert {k: second.metrics[k] for k in keys} == {k: ref.metrics[k] for k in keys}


def test_checkpointed_returns_engine_counts_at_top_level(
    ray_session, small_corpus, tmp_path, cfg
):
    """run_dedup_checkpointed returns the engine counts under
    run_dedup_auto's keys, equal to that entry point's on the same
    corpus, and a re-invocation of the finished run (nothing recomputed)
    returns them again from the manifest."""
    from raydedup.pipelines.dedup_scale import run_dedup_auto
    from raydedup.sources.pages import pages_to_docs, read_pages

    spec, paths = small_corpus
    keys = ["candidate_pairs", "verified_pairs", "containment_pairs", "n_dup_docs"]
    auto = run_dedup_auto(pages_to_docs(read_pages(paths["pages"])), cfg, containment=True)
    want = {k: auto.metrics[k] for k in keys}
    assert want["verified_pairs"] > 0

    d = str(tmp_path / "ck")
    first = run_dedup_checkpointed(_pages_files(paths), d, cfg)
    assert {k: first["metrics"][k] for k in keys} == want
    again = run_dedup_checkpointed(_pages_files(paths), d, cfg)
    assert again["metrics"]["resumed_shards"] == len(_pages_files(paths))
    assert {k: again["metrics"][k] for k in keys} == want
