"""Substring-index join tests: planted containments vs a naive
quadratic reference, equal-text pairs, degenerate inputs, partition
invariance, and the posting emitter's boundary masking."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from raydedup.stages.substring import emit_window_postings, substring_pairs


def _corpus(seed: int = 7, n: int = 60) -> tuple[np.ndarray, list[str]]:
    rng = np.random.default_rng(seed)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    texts = [
        " ".join(rng.choice(words, size=int(rng.integers(20, 60))).tolist())
        for _ in range(n)
    ]
    texts[3] = texts[10][5:95]            # slice of 10 (and of 12 below)
    texts[7] = texts[10]                  # identical to 10 -> both directions
    texts[12] = "xx " + texts[3] + " yy"  # 3 inside 12
    texts[20] = "short"                   # below min_len -> never inner
    ids = np.arange(n, dtype=np.int64) * 13 + 1
    return ids, texts


def _naive(ids: np.ndarray, texts: list[str], min_len: int) -> set[tuple[int, int]]:
    out = set()
    for i in range(len(texts)):
        if len(texts[i].encode()) < min_len:
            continue
        for j in range(len(texts)):
            if i != j and texts[i] in texts[j]:
                out.add((int(ids[i]), int(ids[j])))
    return out


def _pairs(tbl: pa.Table) -> set[tuple[int, int]]:
    return set(
        zip(tbl.column("inner_id").to_pylist(), tbl.column("outer_id").to_pylist())
    )


def test_matches_naive_reference(ray_session):
    ids, texts = _corpus()
    docs = rd.from_arrow(pa.table({"doc_id": ids, "text": texts}))
    tbl, metrics = substring_pairs(docs, min_len=32)
    exp = _naive(ids, texts, 32)
    assert _pairs(tbl) == exp
    assert metrics["verified"] == len(exp)
    # inner_len is the inner doc's byte length
    by_id = dict(zip(ids.tolist(), texts))
    for inner, ilen in zip(
        tbl.column("inner_id").to_pylist(), tbl.column("inner_len").to_pylist()
    ):
        assert ilen == len(by_id[inner].encode())
    # identical texts appear in BOTH directions
    assert (int(ids[7]), int(ids[10])) in exp and (int(ids[10]), int(ids[7])) in exp


def test_partition_invariance(ray_session):
    ids, texts = _corpus(seed=11)
    tbl = pa.table({"doc_id": ids, "text": texts})
    a, _ = substring_pairs(rd.from_arrow(tbl).repartition(1), min_len=32)
    b, _ = substring_pairs(rd.from_arrow(tbl).repartition(9), min_len=32)
    assert a.equals(b)


def test_degenerate_inputs(ray_session):
    # empty texts, one tiny doc, no doc long enough to probe
    docs = rd.from_arrow(
        pa.table({"doc_id": np.array([1, 2, 3], dtype=np.int64),
                  "text": ["", "tiny", ""]})
    )
    tbl, metrics = substring_pairs(docs, min_len=32)
    assert tbl.num_rows == 0
    assert tbl.schema.names == ["inner_id", "outer_id", "inner_len"]
    assert metrics == {"candidates": 0, "verified": 0}


def test_emitter_masks_cross_doc_windows():
    # two docs back-to-back: no window may span the boundary, so every
    # emitted window hash must equal a hash computed on the doc ALONE
    from raydedup.hashing import rolling_hash_u64
    from raydedup.stages.substring import window_params

    k, _w = window_params(8)
    t = pa.table(
        {"doc_id": np.array([5, 9], dtype=np.int64),
         "text": ["a" * 10 + "b" * 10, "c" * 25]}
    )
    out = emit_window_postings(t, min_len=8, id_col="doc_id", text_col="text")
    side = np.asarray(out.column("side"))
    win = out.filter(pa.compute.equal(out.column("side"), 0))
    solo = {}
    for did, txt in [(5, "a" * 10 + "b" * 10), (9, "c" * 25)]:
        h = rolling_hash_u64(np.frombuffer(txt.encode(), dtype=np.uint8), k)
        solo[did] = set(np.unique(h).view(np.int64).tolist())
    for did, h in zip(win.column("id").to_pylist(), win.column("h").to_pylist()):
        assert h in solo[did]
    # probes: one per doc (both >= 8 bytes), each a window of its OWN doc
    probes = out.filter(pa.compute.equal(out.column("side"), 1))
    assert probes.num_rows == 2
    assert (side == 1).sum() == 2
    for did, h in zip(probes.column("id").to_pylist(), probes.column("h").to_pylist()):
        assert h in solo[did]


def test_winnowed_probe_always_hits_containing_doc():
    # THE lossless core: for inner >= min_len contained in outer, the
    # inner's probe hash must appear among the outer's winnow-selected
    # window emissions — across many random placements and paddings
    rng = np.random.default_rng(31)
    alphabet = np.frombuffer(b"abcdefgh", dtype=np.uint8)
    for trial in range(40):
        L = int(rng.integers(64, 200))
        inner = bytes(rng.choice(alphabet, L)).decode()
        pre = bytes(rng.choice(alphabet, int(rng.integers(0, 150)))).decode()
        post = bytes(rng.choice(alphabet, int(rng.integers(0, 150)))).decode()
        outer = pre + inner + post
        t = pa.table(
            {"doc_id": np.array([1, 2], dtype=np.int64), "text": [inner, outer]}
        )
        out = emit_window_postings(t, min_len=64, id_col="doc_id", text_col="text")
        probes = out.filter(
            pa.compute.and_(
                pa.compute.equal(out.column("side"), 1),
                pa.compute.equal(out.column("id"), 1),
            )
        )
        assert probes.num_rows == 1, f"trial {trial}: inner probe missing"
        ph = probes.column("h")[0].as_py()
        outer_wins = out.filter(
            pa.compute.and_(
                pa.compute.equal(out.column("side"), 0),
                pa.compute.equal(out.column("id"), 2),
            )
        ).column("h").to_pylist()
        assert ph in outer_wins, f"trial {trial}: probe not in outer's windows"


def _docs_with_sha(texts: list[str]) -> "rd.Dataset":
    import hashlib

    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": texts,
                "text_sha256": pa.array(
                    [hashlib.sha256(t.encode()).digest() for t in texts], pa.binary()
                ),
            }
        )
    )


def test_dedup_substring_flag_both_engines(ray_session):
    """substring=True merges full-substring containments into clusters,
    with the same partition at two exchange/clustering widths."""
    from raydedup import DedupConfig
    from raydedup.pipelines.dedup_scale import run_dedup_scale

    rng = np.random.default_rng(23)
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf"]
    texts = [
        " ".join(rng.choice(words, size=300).tolist()) for _ in range(70)
    ]
    texts.append(texts[3][100:300])   # 70: substring of 3
    texts.append(texts[7])            # 71: exact dup of 7
    texts.append(texts[10][30:600])   # 72: substring of 10
    docs = _docs_with_sha(texts)
    cfg = DedupConfig(batch_size=16)

    def canon(df):
        groups = df.groupby("cluster_id")["doc_id"].apply(lambda s: tuple(sorted(s)))
        return sorted(g for g in groups if len(g) > 1)

    r_base = run_dedup_scale(
        docs, cfg, containment=False, substring=True, num_buckets=3, n_shards=1
    )
    c_base = r_base.clusters.to_pandas()
    m = dict(zip(c_base.doc_id, c_base.cluster_id))
    assert m[70] == m[3] and m[71] == m[7] and m[72] == m[10]
    assert r_base.metrics["substring_pairs"] >= 2

    r_scale = run_dedup_scale(
        docs, cfg, containment=False, substring=True, num_buckets=8, n_shards=4
    )
    c_scale = r_scale.clusters.to_pandas()
    assert canon(c_base) == canon(c_scale)

    # without the flag the containments stay separate
    r_off = run_dedup_scale(docs, cfg, containment=False, substring=False)
    c_off = r_off.clusters.to_pandas()
    m_off = dict(zip(c_off.doc_id, c_off.cluster_id))
    assert m_off[70] != m_off[3] and m_off[72] != m_off[10]
    assert m_off[71] == m_off[7]  # exact dup still merged
