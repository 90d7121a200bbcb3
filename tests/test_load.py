"""`panako load` analog: bulk-import another index, skipping present ids
(OlafStrategy.java:623-664, cli/Load.java)."""

from __future__ import annotations

import glob
import os

import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def rd(ray_session):
    import ray.data as rd

    return rd


def _index_doc_ids(index_dir: str) -> set[int]:
    ids: set[int] = set()
    for f in glob.glob(os.path.join(index_dir, "docs", "*.parquet")):
        ids.update(pq.read_table(f, columns=["doc_id"]).column("doc_id").to_pylist())
    return ids


@pytest.fixture(scope="module")
def two_indexes(ray_session, small_corpus, tmp_path_factory):
    """idxA <- files 0,1; idxB <- files 1,2 (file 1 overlaps)."""
    from raydedup.pipelines.query import build_index

    _, paths = small_corpus
    files = sorted(glob.glob(os.path.join(paths["pages"], "*.parquet")))
    base = tmp_path_factory.mktemp("load_idx")
    idx_a, idx_b = str(base / "a"), str(base / "b")
    build_index(files[0], idx_a)
    build_index(files[1], idx_a)
    build_index(files[1], idx_b)
    build_index(files[2], idx_b)
    return idx_a, idx_b, files


def test_load_merges_and_skips_present(rd, two_indexes):
    from raydedup.pipelines.query import load_index

    idx_a, idx_b, _ = two_indexes
    a_before = _index_doc_ids(idx_a)
    b_ids = _index_doc_ids(idx_b)
    overlap = a_before & b_ids
    new = b_ids - a_before
    assert overlap and new  # the fixture really does overlap on file 1

    out = load_index(idx_a, idx_b)
    assert out["loaded_docs"] == len(new)
    assert out["skipped_docs"] == len(overlap)
    assert out["loaded_shards"] == 2
    assert _index_doc_ids(idx_a) == a_before | b_ids

    # signature shards follow the same anti-join: no doc is fingerprinted
    # twice in the merged index
    sig_ids: list[int] = []
    for f in glob.glob(os.path.join(idx_a, "signatures", "*.parquet")):
        sig_ids.extend(
            pq.read_table(f, columns=["doc_id"]).column("doc_id").to_pylist()
        )
    assert len(sig_ids) == len(set(sig_ids)) == len(a_before | b_ids)


def test_load_is_idempotent_and_query_spans_both(rd, two_indexes):
    from raydedup.pipelines.query import load_index, query_index
    from raydedup.sources.pages import pages_to_docs

    idx_a, idx_b, files = two_indexes
    # first load (a no-op when an earlier test already loaded), so the
    # test holds when selected alone
    load_index(idx_a, idx_b)
    # second load: manifest anti-join skips every source shard
    out2 = load_index(idx_a, idx_b)
    assert out2["loaded_shards"] == 0 and out2["skipped_shards"] == 2
    assert out2["loaded_docs"] == 0

    # the merged index answers queries from BOTH corpora at jaccard 1.0
    for f in (files[0], files[2]):
        q = pages_to_docs(rd.read_parquet(f)).materialize()
        df = query_index(idx_a, q, top_k=3)
        best = df.groupby("query_doc_id")["jaccard"].max()
        assert len(best) == q.count()
        assert (best == 1.0).all()


def test_load_refuses_config_mismatch(ray_session, two_indexes, tmp_path):
    from raydedup import DedupConfig
    from raydedup.pipelines.query import build_index, load_index

    idx_a, _, files = two_indexes
    other_cfg = DedupConfig(n_perms=64, n_bands=8)
    idx_c = str(tmp_path / "c")
    build_index(files[3], idx_c, other_cfg)
    with pytest.raises(ValueError, match="config_hash"):
        load_index(idx_a, idx_c)
    # force imports anyway (the reference's trust-the-cache behavior)
    out = load_index(idx_a, idx_c, force=True)
    assert out["loaded_docs"] > 0


def test_load_missing_source_errors(ray_session, tmp_path):
    from raydedup.pipelines.query import load_index

    with pytest.raises(FileNotFoundError):
        load_index(str(tmp_path / "dst"), str(tmp_path / "nope"))
