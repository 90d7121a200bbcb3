"""Reuse gate of the scale engine's streaming phase-1 cache
(stream_spill_dir): a standing cache is served only to the corpus it
was built from, even when another corpus has the same doc count."""

import glob
import json
import os

import pandas as pd
import pyarrow as pa

from raydedup.config import DedupConfig
from raydedup.pipelines.dedup_scale import _spill_docs_to_parquet, run_dedup_scale
from raydedup.sources.pages import pages_to_docs, read_pages


def _clusters(res) -> pd.DataFrame:
    return res.clusters.to_pandas().sort_values("doc_id").reset_index(drop=True)


def test_same_count_other_corpus_rebuilds_cache(ray_session, small_corpus, tmp_path):
    from raydedup.corpus import CorpusSpec, materialize_corpus

    spec, paths = small_corpus
    other = materialize_corpus(
        str(tmp_path / "other"), CorpusSpec(n_docs=spec.n_docs, seed=spec.seed + 1), n_files=4
    )
    docs_a = pages_to_docs(read_pages(paths["pages"])).materialize()
    docs_b = pages_to_docs(read_pages(other["pages"])).materialize()
    assert docs_a.count() == docs_b.count()

    cfg = DedupConfig(batch_size=256)
    kw = dict(containment=True, num_buckets=16, n_shards=3)
    spill = str(tmp_path / "spill")
    run_dedup_scale(docs_a, cfg, stream_spill_dir=spill, **kw)
    with open(os.path.join(spill, "_SPILL_COMPLETE")) as f:
        rec_a = json.load(f)
    assert rec_a["input"]["n_docs"] == docs_a.count()
    assert [n for n, _ in rec_a["files"]] == sorted(
        os.path.basename(p) for p in glob.glob(os.path.join(spill, "*.parquet"))
    )

    got = run_dedup_scale(docs_b, cfg, stream_spill_dir=spill, **kw)
    with open(os.path.join(spill, "_SPILL_COMPLETE")) as f:
        rec_b = json.load(f)
    assert rec_b["input"] != rec_a["input"]
    want = run_dedup_scale(docs_b, cfg, **kw)
    pd.testing.assert_frame_equal(_clusters(got), _clusters(want))
    assert set(_clusters(got).doc_id) == set(docs_b.to_pandas().doc_id)


def test_edited_texts_under_same_ids_rebuild_cache(ray_session, small_corpus, tmp_path):
    """Same ids and count, one text edited (its sha changes): the
    content digest in the marker no longer matches, so the cache is
    rebuilt; a tampered cache file is rebuilt too."""
    import ray.data as rd

    from raydedup.stages.extract import sha256_of_utf8_array

    spec, paths = small_corpus
    base = pa.Table.from_pandas(
        pages_to_docs(read_pages(paths["pages"]))
        .select_columns(["doc_id", "text", "text_sha256"])
        .to_pandas(),
        preserve_index=False,
    )
    texts = base.column("text").to_pylist()
    texts[5] = texts[5] + " edited"
    text = pa.array(texts, pa.string())
    edited = pa.table(
        {"doc_id": base.column("doc_id"), "text": text, "text_sha256": sha256_of_utf8_array(text)}
    )

    spill = str(tmp_path / "spill")

    def texts_of(ds):
        return ds.to_pandas().sort_values("doc_id").text.tolist()

    first = texts_of(_spill_docs_to_parquet(rd.from_arrow(base), spill))
    marker = os.path.join(spill, "_SPILL_COMPLETE")
    mtime = os.path.getmtime(marker)
    # same input: reused as is
    assert texts_of(_spill_docs_to_parquet(rd.from_arrow(base), spill)) == first
    assert os.path.getmtime(marker) == mtime
    # edited text under the same ids: rebuilt
    want = edited.to_pandas().sort_values("doc_id").text.tolist()
    assert texts_of(_spill_docs_to_parquet(rd.from_arrow(edited), spill)) == want
    # a cache file swapped out behind the marker's back: rebuilt
    victim = sorted(glob.glob(os.path.join(spill, "*.parquet")))[0]
    os.rename(victim, victim.replace(".parquet", "-moved.parquet"))
    assert texts_of(_spill_docs_to_parquet(rd.from_arrow(edited), spill)) == want
