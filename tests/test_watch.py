"""Continuous increment (pipelines/increment.py monitor_increments):
the reference's long-running monitor lifecycle (cli/Monitor.java:90-106)
transplanted to crawl deliveries — a watch-folder loop folding arriving
shard waves with frozen-base semantics (VERDICT r3 #5)."""

import glob
import os
import shutil
import threading
import time

import pandas as pd
import pyarrow.parquet as pq
import pytest

import ray.data as rd

from raydedup.config import DedupConfig
from raydedup.pipelines.dedup_scale import run_dedup_scale
from raydedup.pipelines.increment import dedup_increment, monitor_increments
from raydedup.pipelines.query import build_index
from raydedup.sources.pages import pages_to_docs, read_pages
from raydedup.stages.extract import doc_ids_from_urls


def _clusters_df(clusters_dir):
    return (
        rd.read_parquet(clusters_dir)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


@pytest.fixture(scope="module")
def corpus_files(ray_session, small_corpus):
    spec, paths = small_corpus
    files = sorted(glob.glob(os.path.join(paths["pages"], "*.parquet")))
    assert len(files) >= 4
    return paths, files


def _fresh_base(root: str, base_shard: str, cfg: DedupConfig):
    """Index + frozen clusters over one base shard, under ``root``."""
    base_dir = os.path.join(root, "base_pages")
    os.makedirs(base_dir)
    shutil.copy(base_shard, base_dir)
    index_dir = os.path.join(root, "index")
    clusters_dir = os.path.join(root, "clusters")
    build_index(base_dir, index_dir, cfg)
    res = run_dedup_scale(pages_to_docs(read_pages(base_dir)), cfg, containment=False)
    res.clusters.write_parquet(clusters_dir)
    return index_dir, clusters_dir


def test_watch_folds_three_waves_like_sequential_increments(
    corpus_files, tmp_path
):
    """Drop 3 shard waves; the watch loop must fold each (stability
    check, staging resumable across invocations) and the final
    assignment must be FRAME-IDENTICAL to calling the increment verb
    once per wave in the same order — plus the one-shot union gates:
    planted pairs co-cluster, boilerplate twins do not, base frozen."""
    paths, files = corpus_files
    cfg = DedupConfig(batch_size=256)
    waves = files[1:4]

    index_dir, clusters_dir = _fresh_base(str(tmp_path / "w"), files[0], cfg)
    base_cl = _clusters_df(clusters_dir)

    # reference: manual increment verb once per wave into a parallel copy
    ref_index = str(tmp_path / "ref_index")
    ref_clusters = str(tmp_path / "ref_clusters")
    shutil.copytree(index_dir, ref_index)
    shutil.copytree(clusters_dir, ref_clusters)
    for i, w in enumerate(waves):
        wdir = str(tmp_path / f"ref_wave{i}")
        os.makedirs(wdir)
        shutil.copy(w, wdir)
        dedup_increment(ref_index, ref_clusters, wdir, cfg)
    ref = _clusters_df(ref_clusters)

    # watched: one monitor invocation per arriving wave (each invocation
    # rebuilds its staging state from disk — the loop is restartable)
    watch = str(tmp_path / "incoming")
    os.makedirs(watch)
    for w in waves:
        shutil.copy(w, watch)
        out = monitor_increments(
            watch, index_dir, clusters_dir, cfg,
            poll_interval=0.05, max_waves=1, max_idle_polls=50,
        )
        assert out["waves"] == 1, out
    got = _clusters_df(clusters_dir)
    pd.testing.assert_frame_equal(got, ref)

    # frozen base: the original rows never changed
    merged = got.merge(base_cl, on="doc_id", how="inner", suffixes=("", "_old"))
    assert len(merged) == len(base_cl)
    assert (merged.cluster_id == merged.cluster_id_old).all()

    # union gates (the q:dedup_increment oracle generalized to 3 waves)
    oc = pq.read_table(paths["oracle_clusters"]).to_pandas()
    op = pq.read_table(paths["oracle_pairs"]).to_pandas()
    url2id = dict(zip(oc.url, doc_ids_from_urls(oc.url.tolist())))
    cmap = dict(zip(got.doc_id, got.cluster_id))
    folded = set(got.doc_id)
    incl = op[(op.kind.isin(["exact", "near"])) & (op.jaccard_true >= 0.8)]
    pairs = [
        (url2id[a], url2id[b])
        for a, b in zip(incl.a_url, incl.b_url)
        if url2id[a] in folded and url2id[b] in folded
    ]
    assert pairs, "no planted pairs landed inside the folded shards"
    hits = sum(cmap[x] == cmap[y] for x, y in pairs)
    assert hits / len(pairs) >= 0.99
    bp = op[op.kind == "boilerplate-twin"]
    bpp = [
        (url2id[a], url2id[b])
        for a, b in zip(bp.a_url, bp.b_url)
        if url2id[a] in folded and url2id[b] in folded
    ]
    assert sum(cmap[x] == cmap[y] for x, y in bpp) == 0


def test_watch_continuous_with_midrun_arrivals(corpus_files, tmp_path):
    """ONE long-running invocation; waves arrive WHILE the loop runs
    (copied via temp name + atomic rename, like a real delivery).
    Every wave doc folds exactly once; the in-flight temp file is never
    picked up; the loop exits on idle."""
    paths, files = corpus_files
    cfg = DedupConfig(batch_size=256)
    waves = files[1:3]
    index_dir, clusters_dir = _fresh_base(str(tmp_path / "c"), files[0], cfg)
    base_cl = _clusters_df(clusters_dir)

    watch = str(tmp_path / "incoming2")
    os.makedirs(watch)

    def drop(path, delay):
        time.sleep(delay)
        tmp = os.path.join(watch, ".partial.tmp")
        shutil.copy(path, tmp)
        os.replace(tmp, os.path.join(watch, os.path.basename(path)))

    threads = [
        threading.Thread(target=drop, args=(w, 0.1 + 0.8 * i))
        for i, w in enumerate(waves)
    ]
    for t in threads:
        t.start()
    out = monitor_increments(
        watch, index_dir, clusters_dir, cfg,
        poll_interval=0.1, max_idle_polls=30,
    )
    for t in threads:
        t.join()
    assert out["stopped_by"] == "max_idle_polls"
    assert out["waves"] >= 1  # staggered arrivals may coalesce into one fold
    got = _clusters_df(clusters_dir)
    assert got.doc_id.is_unique
    new_rows = got[~got.doc_id.isin(set(base_cl.doc_id))]
    expect = sum(pq.read_metadata(f).num_rows for f in waves)
    assert len(new_rows) == expect == out["new_docs"]


def test_watch_restart_folds_staged_but_unfolded_shard(corpus_files, tmp_path):
    """Crash-restartability (review r4): a shard symlinked into staging
    by a previous invocation that died BEFORE folding it must be folded
    by the catch-up pass on restart — even when no new file ever
    arrives — and a dangling staging symlink (watch file deleted) must
    be pruned, not crash the fold."""
    paths, files = corpus_files
    cfg = DedupConfig(batch_size=256)
    index_dir, clusters_dir = _fresh_base(str(tmp_path / "r"), files[0], cfg)
    base_n = len(_clusters_df(clusters_dir))

    watch = str(tmp_path / "incoming3")
    os.makedirs(watch)
    staging = os.path.join(index_dir, "monitor_staging")
    os.makedirs(staging, exist_ok=True)
    # simulate: previous run linked the shard, then died pre-fold
    shutil.copy(files[1], watch)
    name = os.path.basename(files[1])
    os.symlink(os.path.join(watch, name), os.path.join(staging, name))
    # plus a dangling link from a watch file deleted after linking
    os.symlink(os.path.join(watch, "gone.parquet"),
               os.path.join(staging, "gone.parquet"))

    out = monitor_increments(
        watch, index_dir, clusters_dir, cfg,
        poll_interval=0.05, max_idle_polls=3,
    )
    assert out["waves"] == 1  # the catch-up fold
    assert not os.path.lexists(os.path.join(staging, "gone.parquet"))
    got = _clusters_df(clusters_dir)
    expect = pq.read_metadata(files[1]).num_rows
    assert len(got) == base_n + expect == base_n + out["new_docs"]
