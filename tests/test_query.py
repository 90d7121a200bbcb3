"""query_index against a brute-force oracle: exact word-5-gram Jaccard
of every query doc against every stored doc, ranked by (jaccard desc,
match doc_id asc) and cut at top_k."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

RESULT_DTYPES = {
    "query_doc_id": "int64",
    "match_doc_id": "int64",
    "match_url": "object",
    "n_collisions": "int64",
    "jaccard": "float64",
    "rank": "int64",
}
SEGMENT_DTYPES = {
    "lcs_tokens": "int64",
    "lcs_ratio": "float64",
    "query_start_token": "int64",
    "match_start_token": "int64",
}


def _grams(text: str, k: int = 5) -> set:
    toks = text.lower().split()
    return {tuple(toks[i : i + k]) for i in range(len(toks) - k + 1)} if len(toks) >= k else {text}


def _write_pages(path: str, urls: list, texts: list) -> None:
    from raydedup.corpus import render_html

    pq.write_table(
        pa.table(
            {
                "url": urls,
                "html": [render_html(u, t) for u, t in zip(urls, texts)],
                "text": texts,
                "lang": ["en"] * len(urls),
            }
        ),
        path,
    )


def _edit(toks: list, n: int, tag: str) -> list:
    """``n`` token substitutions spread over the doc: each drops k
    shingles, so 1 and 2 edits of a 400-token doc read 0.975 / 0.951."""
    out = list(toks)
    for j, p in enumerate(np.linspace(50, len(toks) - 50, n).astype(int)):
        out[p] = f"edit{tag}x{j}"
    return out


def _queries(rd, urls: list, texts: list):
    from raydedup.stages.extract import doc_ids_from_urls

    ids = doc_ids_from_urls(urls)
    return rd.from_arrow(pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)})), ids


def _oracle(stored: pd.DataFrame, q_ids, q_texts: list, tau: float, top_k: int) -> pd.DataFrame:
    sets = [_grams(t) for t in stored.text]
    rows = []
    for qid, qt in zip(q_ids, q_texts):
        qs = _grams(qt)
        hits = []
        for mid, url, ms in zip(stored.doc_id, stored.url, sets):
            j = len(qs & ms) / len(qs | ms)
            if j >= tau:
                hits.append((-j, int(mid), url))
        for r, (nj, mid, url) in enumerate(sorted(hits)[:top_k]):
            rows.append((int(qid), mid, url, -nj, r + 1))
    df = pd.DataFrame(rows, columns=["query_doc_id", "match_doc_id", "match_url", "jaccard", "rank"])
    return df.sort_values(["query_doc_id", "rank"], kind="mergesort").reset_index(drop=True)


def _stored(index_dir: str) -> pd.DataFrame:
    return pq.read_table(os.path.join(index_dir, "docs"), columns=["doc_id", "text", "url"]).to_pandas()


def _assert_oracle(df: pd.DataFrame, oracle: pd.DataFrame, cfg) -> None:
    assert {c: str(t) for c, t in df.dtypes.items() if c in RESULT_DTYPES} == RESULT_DTYPES
    got = df.drop(columns="n_collisions")[list(oracle.columns)]
    pd.testing.assert_frame_equal(got, oracle, check_exact=False, rtol=0, atol=1e-12)
    assert ((df.n_collisions >= 1) & (df.n_collisions <= cfg.n_bands)).all()


@pytest.fixture(scope="module")
def rd(ray_session):
    import ray.data as rd

    return rd


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """40 random 400-token docs; docs 0-3 also stored as a verbatim copy
    and as 1- and 2-edit variants, over two page files."""
    rng = np.random.default_rng(17)
    base = [[f"w{i}" for i in rng.integers(0, 5000, 400)] for _ in range(40)]
    urls, texts = [], []
    for i, toks in enumerate(base):
        urls.append(f"https://stored.example/{i}")
        texts.append(" ".join(toks))
        if i < 4:
            for name, t in (("copy", toks), ("e1", _edit(toks, 1, f"s{i}")), ("e2", _edit(toks, 2, f"s{i}"))):
                urls.append(f"https://stored.example/{i}-{name}")
                texts.append(" ".join(t))
    root = tmp_path_factory.mktemp("query_oracle")
    pages = root / "pages"
    pages.mkdir()
    half = len(urls) // 2
    _write_pages(str(pages / "part-0.parquet"), urls[:half], texts[:half])
    _write_pages(str(pages / "part-1.parquet"), urls[half:], texts[half:])
    return str(pages), base, root


def _mixed_batch(base: list):
    """Doc 0 at its own url (query id == stored id), docs 1-3 verbatim
    at fresh urls (4 matches each: base, copy, e1, e2), doc 5 with one
    edit, and two unseen docs."""
    rng = np.random.default_rng(99)
    urls = ["https://stored.example/0"] + [f"https://q.example/hit{i}" for i in (1, 2, 3)]
    texts = [" ".join(base[i]) for i in (0, 1, 2, 3)]
    urls.append("https://q.example/edit5")
    texts.append(" ".join(_edit(base[5], 1, "q5")))
    for j in range(2):
        urls.append(f"https://q.example/unseen{j}")
        texts.append(" ".join(f"u{i}" for i in rng.integers(0, 5000, 400)))
    return urls, texts


def test_query_index_matches_oracle(rd, store):
    from raydedup import DedupConfig
    from raydedup.pipelines.query import build_index, query_index

    pages, base, root = store
    idx = str(root / "idx")
    build_index(pages, idx)
    cfg = DedupConfig()
    urls, texts = _mixed_batch(base)
    q, ids = _queries(rd, urls, texts)
    stored = _stored(idx)
    for top_k in (3, 10):
        df = query_index(idx, q, cfg, top_k=top_k)
        oracle = _oracle(stored, ids, texts, cfg.jaccard_tau, top_k)
        # docs 0-3 match base, copy, e1 and e2; doc 5 its source
        assert len(oracle) == 4 * min(top_k, 4) + 1
        _assert_oracle(df, oracle, cfg)

    seg = query_index(idx, q, cfg, top_k=3, with_segments=True)
    assert list(seg.columns) == list(RESULT_DTYPES) + list(SEGMENT_DTYPES)
    assert {c: str(seg[c].dtype) for c in SEGMENT_DTYPES} == SEGMENT_DTYPES
    _assert_oracle(seg.drop(columns=list(SEGMENT_DTYPES)), _oracle(stored, ids, texts, cfg.jaccard_tau, 3), cfg)
    # a verbatim match is one whole-doc run; doc 5's single edit at token
    # 50 leaves tokens 51-399 as its longest run on both sides
    full = seg[seg.jaccard == 1.0]
    assert (full.lcs_tokens == 400).all() and (full.lcs_ratio == 1.0).all()
    assert (full.query_start_token == 0).all() and (full.match_start_token == 0).all()
    edited = seg[seg.query_doc_id == ids[4]]
    assert edited[["lcs_tokens", "query_start_token", "match_start_token"]].values.tolist() == [[349, 51, 51]]


def test_query_without_candidates_is_typed_empty(rd, store):
    from raydedup.pipelines.query import build_index, query_index

    pages, base, root = store
    idx = str(root / "idx_empty")
    build_index(pages, idx)
    q, _ = _queries(rd, ["https://q.example/unseen"], [" ".join(f"u{i}" for i in range(400))])
    for with_segments, dtypes in ((False, RESULT_DTYPES), (True, RESULT_DTYPES | SEGMENT_DTYPES)):
        df = query_index(idx, q, top_k=3, with_segments=with_segments)
        assert len(df) == 0
        assert {c: str(t) for c, t in df.dtypes.items()} == dtypes
    # candidates that all fail verification give the same frame
    q, _ = _queries(rd, ["https://q.example/hit1"], [" ".join(base[1])])
    df = query_index(idx, q, top_k=3, min_jaccard=1.01, with_segments=True)
    assert len(df) == 0
    assert {c: str(t) for c, t in df.dtypes.items()} == RESULT_DTYPES | SEGMENT_DTYPES


def test_query_after_delete_and_load(rd, store, tmp_path):
    from raydedup import DedupConfig
    from raydedup.pipelines.query import build_index, delete_from_index, load_index, query_index

    pages, base, root = store
    idx = str(tmp_path / "idx")
    build_index(pages, idx)
    out = delete_from_index(idx, ["https://stored.example/1-copy", "https://stored.example/2-e1"])
    assert out["removed_docs"] == 2

    # a second index of new docs, bulk-loaded into the first
    rng = np.random.default_rng(23)
    extra = [[f"w{i}" for i in rng.integers(0, 5000, 400)] for _ in range(6)]
    extra_pages = tmp_path / "extra"
    extra_pages.mkdir()
    _write_pages(
        str(extra_pages / "part-0.parquet"),
        [f"https://extra.example/{i}" for i in range(6)],
        [" ".join(t) for t in extra],
    )
    src = str(tmp_path / "src")
    build_index(str(extra_pages), src)
    assert load_index(idx, src)["loaded_docs"] == 6

    cfg = DedupConfig()
    urls, texts = _mixed_batch(base)
    urls.append("https://q.example/extra0")
    texts.append(" ".join(_edit(extra[0], 2, "x0")))
    q, ids = _queries(rd, urls, texts)
    stored = _stored(idx)
    assert len(stored) == 40 + 12 - 2 + 6
    df = query_index(idx, q, cfg, top_k=10)
    oracle = _oracle(stored, ids, texts, cfg.jaccard_tau, 10)
    assert not oracle.match_url.isin(["https://stored.example/1-copy", "https://stored.example/2-e1"]).any()
    assert (oracle.match_url == "https://extra.example/0").sum() == 1
    _assert_oracle(df, oracle, cfg)


def test_partial_tmp_file_is_not_read(rd, store, tmp_path, capsys, monkeypatch):
    """A store write killed between its write and its rename leaves a
    partial ``shard=X.parquet.tmp`` in ``docs/`` and ``signatures/``.
    Every reader lists the same ``*.parquet`` files: the query frames
    equal the clean index's, and monitor_text and ``stats`` read it."""
    import glob
    import json

    import raydedup.cli as cli
    from raydedup import DedupConfig
    from raydedup.pipelines.query import build_index, monitor_text, query_index

    pages, base, root = store
    idx = str(tmp_path / "idx")
    build_index(pages, idx)
    cfg = DedupConfig()
    urls, texts = _mixed_batch(base)
    q, _ = _queries(rd, urls, texts)
    clean = query_index(idx, q, cfg, top_k=10)
    assert len(clean) > 0
    n_stored = len(_stored(idx))
    for sub in ("docs", "signatures"):
        src = sorted(glob.glob(os.path.join(idx, sub, "*.parquet")))[0]
        with open(src, "rb") as f:
            data = f.read()
        with open(os.path.join(idx, sub, "shard=partial.parquet.tmp"), "wb") as f:
            f.write(data[: len(data) // 2])

    pd.testing.assert_frame_equal(query_index(idx, q, cfg, top_k=10), clean)
    hits = monitor_text(idx, texts[1] + " " + " ".join(base[7]), cfg)
    assert len(hits) > 0
    monkeypatch.setattr(cli, "_shutdown_ray", lambda: None)
    capsys.readouterr()
    assert cli.main(["stats", idx]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["n_docs"] == stats["n_signatures"] == n_stored


def test_monitor_matches_winnow_oracle_without_ray_data(rd, store, tmp_path, no_ray_data_plans):
    """monitor_text runs one raw task per stored docs file and no Ray
    Data plan; its frame equals a brute-force oracle: per window, every
    stored doc whose winnowed fingerprints cover >= min_coverage of the
    window's, ordered by (window start, doc id)."""
    from raydedup import DedupConfig
    from raydedup.pipelines.query import build_index, monitor_text
    from raydedup.stages.containment import winnowed_fingerprints

    pages, base, root = store
    idx = str(tmp_path / "idx")
    build_index(pages, idx)
    cfg = DedupConfig()
    w, s = cfg.containment_window, cfg.containment_stride
    # stored docs 1 and 7 inside unseen filler: windows 200 / step 160
    rng = np.random.default_rng(5)
    filler = [f"f{i}" for i in rng.integers(0, 5000, 300)]
    tokens = filler[:150] + base[1] + filler[150:] + base[7]
    stored = _stored(idx)
    doc_fp = [winnowed_fingerprints(t, w, s) for t in stored.text]
    rows = []
    for start in range(0, len(tokens) - 200 + 160, 160):
        wf = winnowed_fingerprints(" ".join(tokens[start : start + 200]), w, s)
        for mid, url, fp in zip(stored.doc_id, stored.url, doc_fp):
            cov = np.intersect1d(wf, fp).shape[0] / max(wf.shape[0], 1)
            if cov >= cfg.containment_min_coverage:
                rows.append((start, min(start + 200, len(tokens)), int(mid), url, cov))
    oracle = pd.DataFrame(rows, columns=["win_start_token", "win_stop_token", "match_doc_id", "match_url", "coverage"])
    oracle = oracle.sort_values(["win_start_token", "match_doc_id"], kind="mergesort").reset_index(drop=True)
    assert oracle.match_url.str.endswith("/1").any() and oracle.match_url.str.endswith("/7").any()

    no_ray_data_plans()
    got = monitor_text(idx, " ".join(tokens), cfg)
    assert [str(t) for t in got.dtypes] == ["int64", "int64", "int64", "object", "float64"]
    pd.testing.assert_frame_equal(got, oracle, check_exact=False, rtol=0, atol=1e-12)
    # no window covered: the typed-empty frame, still without a plan
    empty = monitor_text(idx, " ".join(f"z{i}" for i in range(300)), cfg)
    assert len(empty) == 0 and list(empty.columns) == list(oracle.columns)
