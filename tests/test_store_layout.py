"""The index store holds only what its readers read: each
``signatures/`` file is ``(doc_id, bands)``. There is one layout and no
fallback path, so a store that holds an older full-column shard
(minhash, simhash, bands, n_shingles) beside band-only shards reads the
same as a band-only store in every reader: ``query_index``,
``dedup_increment``, ``cli stats`` and the checkpointed run's phase 2."""

import glob
import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from raydedup.config import DedupConfig
from raydedup.stages.signatures import SignatureKernel


def _sig_files(store: str) -> list[str]:
    return sorted(glob.glob(os.path.join(store, "signatures", "*.parquet")))


def _docs_of(sig_file: str) -> pa.Table:
    store = os.path.dirname(os.path.dirname(sig_file))
    docs = os.path.join(store, "docs", os.path.basename(sig_file))
    return pq.read_table(docs, columns=["doc_id", "text"])


def _plant_full_shard(store: str, cfg: DedupConfig) -> None:
    """Rewrite the store's first signatures file in the full-column
    format (``SignatureKernel.__call__`` without shingles) and every
    other one as band keys only."""
    kernel = SignatureKernel(cfg, keep_shingles=False)
    files = _sig_files(store)
    assert len(files) >= 2
    for i, f in enumerate(files):
        docs = _docs_of(f)
        pq.write_table(kernel(docs) if i == 0 else kernel.band_table(docs), f)
    assert pq.read_schema(files[0]).names == ["doc_id", "minhash", "simhash", "bands", "n_shingles"]


@pytest.fixture(scope="module")
def stores(ray_session, small_corpus, tmp_path_factory):
    """A band-only index of the first three pages files (``fresh``), a
    copy with one full-column shard planted (``mixed``), the fourth
    pages file as an increment, and the base clusters."""
    from raydedup.pipelines.dedup_scale import run_dedup_scale
    from raydedup.pipelines.query import build_index
    from raydedup.sources.pages import pages_to_docs, read_pages

    _, paths = small_corpus
    root = tmp_path_factory.mktemp("layout")
    files = sorted(glob.glob(os.path.join(paths["pages"], "*.parquet")))
    base, inc = root / "base_pages", root / "inc_pages"
    base.mkdir()
    inc.mkdir()
    for f in files[:-1]:
        shutil.copy(f, base)
    shutil.copy(files[-1], inc)
    cfg = DedupConfig(batch_size=256)
    fresh, mixed = str(root / "fresh"), str(root / "mixed")
    build_index(str(base), fresh, cfg)
    shutil.copytree(fresh, mixed)
    _plant_full_shard(mixed, cfg)
    clusters = str(root / "clusters")
    run_dedup_scale(pages_to_docs(read_pages(str(base))), cfg, containment=False).clusters.write_parquet(
        clusters
    )
    return cfg, files, str(base), str(inc), fresh, mixed, clusters, root


def test_build_index_stores_band_keys_only(stores):
    """One ``(doc_id, bands)`` file per input file, and the bands are
    the full kernel's."""
    cfg, _, base, _, fresh, *_ = stores
    sig_files = _sig_files(fresh)
    assert len(sig_files) == len(glob.glob(os.path.join(base, "*.parquet")))
    full = SignatureKernel(cfg)
    for f in sig_files:
        got = pq.read_table(f)
        assert got.column_names == ["doc_id", "bands"]
        want = full(_docs_of(f))
        assert got.column("doc_id").equals(want.column("doc_id"))
        assert got.column("bands").equals(want.column("bands"))


def test_mixed_store_query_frames_equal(stores):
    """query_index over the mixed store equals the band-only store's,
    with and without matched segments."""
    import ray.data as rd

    from raydedup.pipelines.query import query_index
    from raydedup.stages.extract import doc_ids_from_urls

    cfg, _, _, _, fresh, mixed, *_ = stores
    stored = pq.read_table(os.path.join(fresh, "docs"), columns=["text"]).column("text").to_pylist()
    rng = np.random.default_rng(5)
    texts = []
    for i in rng.choice(len(stored), 24, replace=False):
        toks = stored[i].split()
        if i % 2 and len(toks) > 40:
            toks[len(toks) // 2] = "edited"
        texts.append(" ".join(toks))
    texts += [" ".join(f"unseen{j}x{i}" for i in range(200)) for j in range(4)]
    urls = [f"https://q.example/{j}" for j in range(len(texts))]
    q = rd.from_arrow(
        pa.table({"doc_id": pa.array(doc_ids_from_urls(urls)), "text": pa.array(texts)})
    ).materialize()
    for seg in (False, True):
        want = query_index(fresh, q, cfg, with_segments=seg)
        assert len(want) > 0
        got = query_index(mixed, q, cfg, with_segments=seg)
        assert got.equals(want), seg


def test_mixed_store_increment_equal(stores):
    """dedup_increment folds the same assignment into either store."""
    from raydedup.pipelines.increment import dedup_increment

    cfg, _, _, inc, fresh, mixed, clusters, root = stores
    outs, frames = [], []
    for name, store in (("fresh", fresh), ("mixed", mixed)):
        idx, cl = str(root / f"inc-{name}"), str(root / f"inc-{name}-clusters")
        shutil.copytree(store, idx)
        shutil.copytree(clusters, cl)
        out = dedup_increment(idx, cl, inc, cfg)
        frames.append(pq.read_table(out["increment_file"]).to_pandas())
        outs.append({k: v for k, v in out.items() if not k.endswith(("_path", "_dir", "_file"))})
    assert outs[0] == outs[1]
    assert outs[0]["new_docs"] > 0
    pd.testing.assert_frame_equal(frames[1], frames[0])


def test_mixed_store_stats_equal(stores, capsys, monkeypatch):
    """``cli stats`` reads ``doc_id, bands`` from every shard."""
    import raydedup.cli as cli

    _, _, _, _, fresh, mixed, *_ = stores
    monkeypatch.setattr(cli, "_shutdown_ray", lambda: None)
    out = []
    for store in (fresh, mixed):
        capsys.readouterr()
        assert cli.main(["stats", store]) == 0
        out.append(json.loads(capsys.readouterr().out))
    assert out[0] == out[1]
    assert out[0]["n_signatures"] == out[0]["n_docs"] > 0


def test_mixed_store_checkpointed_clusters_equal(stores):
    """A checkpoint whose stored shards hold one full-column file
    clusters like a fresh one: phase 2 reads ``doc_id, bands``."""
    from raydedup.state.checkpoint import run_dedup_checkpointed

    cfg, files, *_, root = stores
    frames = []
    for name, plant in (("fresh", False), ("mixed", True)):
        d = str(root / f"ckpt-{name}")
        assert run_dedup_checkpointed(files, d, cfg, max_shards=len(files) - 1) is None
        if plant:
            _plant_full_shard(d, cfg)
        out = run_dedup_checkpointed(files, d, cfg)
        df = pq.read_table(out["clusters_path"]).to_pandas()
        frames.append(df.sort_values("doc_id").reset_index(drop=True))
        assert len(_sig_files(d)) == len(files)
    pd.testing.assert_frame_equal(frames[1], frames[0])
