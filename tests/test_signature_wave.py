"""The scale engine's fused signature wave (signatures -> band postings
-> band_key split in one raw task per block group) must yield exactly
the candidate pair table of the Ray Data chain it replaced:
compute_signatures -> band_postings -> candidate_pair_refs."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from raydedup.config import DedupConfig
from raydedup.pipelines.dedup import compute_signatures
from raydedup.pipelines.dedup_scale import _signature_wave
from raydedup.sources.pages import pages_to_docs, read_pages
from raydedup.stages.candidates import band_postings, candidate_pair_refs

NB = 8


@pytest.fixture(scope="module")
def corpus(ray_session, small_corpus):
    """The planted corpus plus non-ASCII near-dup pairs (they take the
    kernel's per-doc slow path) as one (doc_id, text) table."""
    spec, paths = small_corpus
    t = pages_to_docs(read_pages(paths["pages"])).select_columns(["doc_id", "text"])
    df = t.to_pandas().sort_values("doc_id").reset_index(drop=True)
    src = df.text.iloc[:24].tolist()
    accented = [s.replace("a", "ä").replace("o", "ø") for s in src]
    edited = [s.rsplit(" ", 1)[0] + " über" for s in accented]
    extra = pd.DataFrame(
        {
            "doc_id": np.arange(48, dtype=np.int64) + (1 << 40),
            "text": accented + edited,
        }
    )
    df = pd.concat([df, extra], ignore_index=True)
    df["doc_id"] = df.doc_id.astype(np.int64)
    return pa.Table.from_pandas(df, preserve_index=False)


def _blocks(table: pa.Table, n: int) -> list[pa.Table]:
    edges = np.linspace(0, table.num_rows, n + 1).astype(int)
    return [table.slice(s, e - s) for s, e in zip(edges[:-1], edges[1:])]


def _pairs(refs) -> pd.DataFrame:
    import ray

    parts = [t for t in ray.get(refs) if t.num_rows]
    df = pa.concat_tables(parts).to_pandas() if parts else pd.DataFrame(
        {"a": [], "b": [], "n_collisions": []}
    )
    return (
        df[["a", "b", "n_collisions"]]
        .astype(np.int64)
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )


def _reference(blocks, cfg):
    import ray.data as rd

    docs = rd.from_arrow([b for b in blocks if b.num_rows])
    sigs = compute_signatures(docs, cfg, keep_shingles=False)
    return _pairs(candidate_pair_refs(band_postings(sigs, cfg), cfg, NB))


def _wave(blocks, cfg):
    import ray

    refs = [ray.put(b) for b in blocks]
    return _pairs(candidate_pair_refs(_signature_wave(refs, cfg, NB), cfg, NB))


@pytest.mark.parametrize("layout", ["many_blocks", "one_block", "empty_blocks"])
def test_wave_matches_dataset_chain(corpus, layout):
    if layout == "many_blocks":
        blocks = _blocks(corpus, 13)
    elif layout == "one_block":
        blocks = [corpus]
    else:
        # a typed 0-row block and a 0-column one (Ray 2.49 passes 0-row
        # blocks through map stages as schema-less empties)
        parts = _blocks(corpus, 4)
        blocks = [parts[0], corpus.slice(0, 0), parts[1], pa.table({}), parts[2], parts[3]]
    cfg = DedupConfig(batch_size=256)
    want = _reference(blocks, cfg)
    got = _wave(blocks, cfg)
    assert len(want) > 0
    pd.testing.assert_frame_equal(got, want)
    ids = set(want.a) | set(want.b)
    # the non-ASCII near-dup pairs made it through the slow path
    assert any(i >= (1 << 40) for i in ids)


def test_wave_of_only_empty_blocks_is_empty(ray_session):
    import ray

    cfg = DedupConfig()
    wave = _signature_wave([ray.put(pa.table({}))], cfg, NB)
    assert len(wave) == 1 and len(wave[0]) == NB
    parts = ray.get(wave[0])
    assert all(p.num_rows == 0 and p.column_names == ["band_key", "doc_id", "sig"] for p in parts)
    assert _pairs(candidate_pair_refs(wave, cfg, NB)).empty
