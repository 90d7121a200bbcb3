"""Unit tests for the secondary operators: exchange primitive, textstats,
ANN, windows, multimodal plumbing, store/query lifecycle."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def rd(ray_session):
    import ray.data as rd

    return rd


# --- hash exchange primitive ------------------------------------------------


def test_hash_exchange_groups_complete(rd):
    from raydedup.stages.exchange import hash_exchange_apply

    n = 10_000
    rng = np.random.Generator(np.random.PCG64(1))
    keys = rng.integers(-500, 500, size=n, dtype=np.int64)
    vals = np.arange(n, dtype=np.int64)
    ds = rd.from_arrow(
        pa.table({"k": pa.array(keys), "v": pa.array(vals)})
    ).repartition(7)

    def per_bucket_sum(t: pa.Table) -> pa.Table:
        k = t.column("k").to_numpy(zero_copy_only=False)
        v = t.column("v").to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        k, v = k[order], v[order]
        b = np.empty(k.shape[0], dtype=bool)
        b[0] = True
        b[1:] = k[1:] != k[:-1]
        st = np.flatnonzero(b)
        return pa.table(
            {
                "k": pa.array(k[st], type=pa.int64()),
                "s": pa.array(np.add.reduceat(v, st), type=pa.int64()),
            }
        )

    got = hash_exchange_apply(ds, "k", per_bucket_sum, num_buckets=16).to_pandas()
    want = pd.DataFrame({"k": keys, "s": vals}).groupby("k", as_index=False).sum()
    got = got.sort_values("k").reset_index(drop=True)
    want = want.sort_values("k").reset_index(drop=True).astype("int64")
    pd.testing.assert_frame_equal(got.astype("int64"), want)


def test_fused_resplit_chain_matches_two_round_exchange(rd):
    """reduce_wave's re-split (``out_key``) must be equivalent to
    apply-then-split-then-reduce: a fused two-exchange chain (group by
    k1, emit rows keyed k2, combine by k2) gives the same result as the
    unfused pair of hash_exchange_apply rounds."""
    import ray

    from raydedup.stages.exchange import hash_exchange_apply, reduce_wave, split_dataset

    n = 20_000
    rng = np.random.Generator(np.random.PCG64(7))
    k1 = rng.integers(-300, 300, size=n, dtype=np.int64)
    v = rng.integers(0, 100, size=n, dtype=np.int64)
    ds = rd.from_arrow(pa.table({"k1": pa.array(k1), "v": pa.array(v)})).repartition(5)

    def emit(t: pa.Table) -> pa.Table:
        # per-k1-group partial: re-key each group onto k2 = k1 % 17
        k = t.column("k1").to_numpy(zero_copy_only=False)
        x = t.column("v").to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        k, x = k[order], x[order]
        b = np.empty(k.shape[0], dtype=bool)
        b[0] = True
        b[1:] = k[1:] != k[:-1]
        st = np.flatnonzero(b)
        return pa.table(
            {
                "k2": pa.array((k[st] % 17 + 17) % 17, type=pa.int64()),
                "p": pa.array(np.add.reduceat(x, st), type=pa.int64()),
            }
        )

    def combine(t: pa.Table) -> pa.Table:
        k = t.column("k2").to_numpy(zero_copy_only=False)
        x = t.column("p").to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        k, x = k[order], x[order]
        if k.shape[0] == 0:
            return pa.table({"k2": pa.array([], pa.int64()), "s": pa.array([], pa.int64())})
        b = np.empty(k.shape[0], dtype=bool)
        b[0] = True
        b[1:] = k[1:] != k[:-1]
        st = np.flatnonzero(b)
        return pa.table(
            {
                "k2": pa.array(k[st], type=pa.int64()),
                "s": pa.array(np.add.reduceat(x, st), type=pa.int64()),
            }
        )

    # unfused: two full exchange rounds
    partial_refs = hash_exchange_apply(ds, "k1", emit, num_buckets=8, collect=False)
    want = hash_exchange_apply(partial_refs, "k2", combine, num_buckets=8).to_pandas()

    # fused: emit wave re-splits on k2 in-task
    split1 = split_dataset(ds, "k1", 8)
    wave = reduce_wave(split1, emit, 8, out_key="k2")
    assert len(wave) == 8 and all(len(w) == 8 for w in wave)
    got_refs = reduce_wave(wave, combine, 8)
    got = pa.concat_tables([t for t in ray.get(got_refs) if t.num_rows]).to_pandas()

    got = got.sort_values("k2").reset_index(drop=True)
    want = want.sort_values("k2").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    # and against the plain-pandas oracle
    oracle = (
        pd.DataFrame({"k2": (k1 % 17 + 17) % 17, "v": v})
        .groupby("k2", as_index=False)["v"].sum()
        .rename(columns={"v": "s"})
    )
    pd.testing.assert_frame_equal(got.astype("int64"), oracle.astype("int64"))


def test_lookup_packed_found_mask(rd):
    from raydedup.stages.verify import lookup_packed

    packed = pa.table(
        {
            "doc_id": pa.array([10, 3, 7], type=pa.int64()),
            "shingles": pa.array([b"ten", b"three", b"seven"], type=pa.large_binary()),
        }
    )
    vals, found = lookup_packed(packed, np.array([3, 4, 10, 99], dtype=np.int64))
    assert found.tolist() == [True, False, True, False]
    assert vals[0].as_py() == b"three"
    assert vals[2].as_py() == b"ten"
    # empty bucket: nothing found
    vals2, found2 = lookup_packed(packed.slice(0, 0), np.array([1], dtype=np.int64))
    assert found2.tolist() == [False]


# --- textstats --------------------------------------------------------------


def test_token_counts_and_quality(rd):
    from raydedup.stages.textstats import quality_score_batch, token_count_batch

    t = pa.table(
        {"doc_id": pa.array([1, 2, 3], pa.int64()), "text": ["a b  c", "", "Hello, World! 42"]}
    )
    tc = token_count_batch(t)
    assert tc.column("n_tokens").to_pylist() == [3, 0, 3]
    q = quality_score_batch(t)
    assert q.column("punct_ratio").to_pylist()[1] == 0.0
    assert q.column("digit_ratio").to_pylist()[2] == pytest.approx(2 / 16)


def test_bpe_token_counts():
    import re

    from raydedup.stages.textstats import BPE_PRETOKEN_RE, bpe_token_count_batch

    texts = [
        "Hello, World! 42",
        "",
        "it's   don're I'll",          # contractions + interior space run
        "héllo wörld — 思考 123abc",    # non-ASCII letters, dash, CJK
        "   ",                          # whitespace-only
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": texts})
    out = bpe_token_count_batch(t)
    # independent oracle: Python re with unicode classes standing in for \p{..}
    py_pat = re.compile(
        r"'s|'t|'re|'ve|'m|'ll|'d| ?[^\W\d_]+| ?\d+| ?[^\s\w]+|\s+",
        re.UNICODE,
    )
    # the RE2 classes \p{L}/\p{N} differ from Python's [^\W\d_]/\d only on
    # exotic codepoints not present above, so counts must agree here
    expect = [len(py_pat.findall(s)) for s in texts]
    assert out.column("n_bpe_tokens").to_pylist() == expect
    assert out.column("n_bpe_tokens").to_pylist()[1] == 0
    assert BPE_PRETOKEN_RE.startswith("'s")


def test_lang_id_kernel():
    from raydedup.stages.textstats import LangIdKernel

    k = LangIdKernel()
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": [
                "the cat and the dog sat on a mat for the day it was good",
                "der hund und die katze ist ein tier mit den anderen nicht da",
                "zzz qqq www",
            ],
        }
    )
    out = k(t)
    assert out.column("lang_pred").to_pylist() == ["en", "de", "und"]


# --- ANN --------------------------------------------------------------------


def test_knn_and_ivf_agree_on_top1(rd):
    from raydedup.stages.ann import knn_cosine_bruteforce, knn_cosine_ivf

    rng = np.random.Generator(np.random.PCG64(5))
    vecs = rng.normal(size=(300, 16)).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(300), type=pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs]),
        }
    )
    ds = rd.from_arrow(t)
    q = vecs[17]
    bf = knn_cosine_bruteforce(ds, q, k=5)
    assert bf["vec_id"].iloc[0] == 17 and bf["cosine"].iloc[0] == pytest.approx(1.0)
    ivf = knn_cosine_ivf(ds, q, k=5, n_centroids=4, n_probe=4)  # all probes = exact
    pd.testing.assert_frame_equal(bf, ivf)


# --- windows ----------------------------------------------------------------


def test_tumbling_window(rd):
    from raydedup.stages.windows import tumbling_window_agg

    ts = pa.array(
        np.array([0, 10, 3600, 3660, 7200], dtype="int64") * 1_000_000
    ).cast(pa.timestamp("us"))
    t = pa.table(
        {
            "user_id": pa.array([1, 1, 1, 2, 1], pa.int64()),
            "ts": ts,
            "value": pa.array([1, 2, 3, 4, 5], pa.int64()),
        }
    )
    out = tumbling_window_agg(rd.from_arrow(t), window_s=3600).to_pandas()
    out = out.sort_values(["user_id", "window_start"]).reset_index(drop=True)
    assert out["n_events"].tolist() == [2, 1, 1, 1]
    assert out["sum_value"].tolist() == [3, 3, 5, 4]


# --- multimodal -------------------------------------------------------------


def test_media_decode_stub_deterministic(rd):
    from raydedup.stages.multimodal import decode_media, synthetic_media_table

    ds = rd.from_arrow(synthetic_media_table(24))
    out1 = decode_media(ds, concurrency=2, batch_size=8).to_pandas().sort_values("media_id")
    out2 = decode_media(ds, concurrency=2, batch_size=8).to_pandas().sort_values("media_id")
    assert out1.reset_index(drop=True).equals(out2.reset_index(drop=True))
    assert set(out1.columns) == {"media_id", "kind", "mean_rgb", "brightness", "phash"}


def test_media_real_decoder_is_stubbed():
    from raydedup.stages.multimodal import MediaDecodeKernel

    with pytest.raises(NotImplementedError):
        MediaDecodeKernel(decoder="pil")


def test_frame_sampling(rd):
    from raydedup.stages.multimodal import frame_sample, synthetic_media_table

    tbl = synthetic_media_table(12)
    ds = rd.from_arrow(tbl)
    out = frame_sample(ds, every_n=10).to_pandas()
    assert (out["frame_index"] % 10 == 0).all()
    assert out.groupby("media_id").size().ge(1).all()
    # exact per-media count: ceil(max(n_frames,1) / 10)
    nf = dict(zip(tbl.column("media_id").to_pylist(), tbl.column("n_frames").to_pylist()))
    got = out.groupby("media_id").size()
    for mid, n in nf.items():
        assert got[mid] == (max(n, 1) + 9) // 10


def test_keyframe_sampling_deterministic_and_gated(rd):
    from raydedup.hashing import hash_pair_u64
    from raydedup.stages.multimodal import keyframe_sample, synthetic_media_table

    tbl = synthetic_media_table(30)
    ds = rd.from_arrow(tbl)
    out = keyframe_sample(ds, rate=0.1).to_pandas()
    out2 = keyframe_sample(rd.from_arrow(tbl), rate=0.1).to_pandas()
    key = lambda df: df.sort_values(["media_id", "frame_index"]).reset_index(drop=True)
    assert key(out).equals(key(out2))  # partition/run invariant
    # frame 0 always keyed, every media present
    assert set(out[out.frame_index == 0].media_id) == set(tbl.column("media_id").to_pylist())
    # gate matches the scalar definition row-for-row
    import numpy as np

    thr = np.uint64(min(int(0.1 * 2.0**64), 2**64 - 1))
    m = out.media_id.to_numpy().astype(np.int64)
    f = out.frame_index.to_numpy().astype(np.int64)
    score = hash_pair_u64(m.view(np.uint64), f.view(np.uint64))
    assert ((f == 0) | (score < thr)).all()
    # rate=1.0 keeps every frame
    full = keyframe_sample(rd.from_arrow(tbl), rate=1.0).to_pandas()
    assert len(full) == sum(max(n, 1) for n in tbl.column("n_frames").to_pylist())


def test_audio_decode_features(rd):
    from raydedup.stages.multimodal import (
        AudioDecodeKernel,
        decode_audio,
        synthetic_media_table,
    )

    tbl = synthetic_media_table(24)
    out = decode_audio(rd.from_arrow(tbl), batch_size=8).to_pandas()
    assert len(out) == 24
    assert set(out.columns) == {"media_id", "duration_s", "rms", "peak", "zero_crossing_rate"}
    assert (out.duration_s > 0).all()
    assert (out.rms > 0).all() and (out.rms <= 1.0).all()
    assert (out.peak <= 1.0).all()
    assert out.zero_crossing_rate.between(0, 1).all()
    # deterministic: same payload -> same features
    out2 = decode_audio(rd.from_arrow(tbl), batch_size=8).to_pandas()
    key = lambda df: df.sort_values("media_id").reset_index(drop=True)
    assert key(out).equals(key(out2))
    # real codec names stay a loud NotImplementedError
    with pytest.raises(NotImplementedError):
        AudioDecodeKernel(decoder="soundfile")


# --- store / query lifecycle -----------------------------------------------


def test_store_then_query_roundtrip(rd, small_corpus, tmp_path):
    from raydedup.pipelines.query import build_index, query_index
    from raydedup.sources.pages import pages_to_docs

    spec, paths = small_corpus
    idx = str(tmp_path / "idx")
    out = build_index(paths["pages"], idx)
    assert out["stored_shards"] >= 4

    # querying the corpus's own first shard must match itself at 1.0
    import glob

    first = sorted(glob.glob(os.path.join(paths["pages"], "*.parquet")))[0]
    q = pages_to_docs(rd.read_parquet(first))
    df = query_index(idx, q, top_k=3)
    # every query doc must have a perfect match (itself — or an exact
    # copy of itself, which can legitimately outrank self within top-k)
    best = df.groupby("query_doc_id")["jaccard"].max()
    assert len(best) == q.count()
    assert (best == 1.0).all()
    assert (df[df.query_doc_id == df.match_doc_id]["jaccard"] == 1.0).all()

    # store is resumable: second call skips all shards
    out2 = build_index(paths["pages"], idx)
    assert out2["stored_shards"] == 0 and out2["skipped_shards"] >= 4

    # with_segments appends the QueryResult matched start/stop analog:
    # a self-match's segment is the whole doc (ratio 1.0, offset 0)
    seg = query_index(idx, q, top_k=3, with_segments=True)
    self_rows = seg[seg.query_doc_id == seg.match_doc_id]
    assert len(self_rows) > 0
    assert (self_rows.lcs_ratio == 1.0).all()
    assert (self_rows.query_start_token == 0).all()
    assert (self_rows.match_start_token == 0).all()
    # empty result keeps the segment columns (stable output schema)
    empty = query_index(idx, q, top_k=3, min_jaccard=1.01, with_segments=True)
    assert len(empty) == 0
    for c in ("lcs_tokens", "lcs_ratio", "query_start_token", "match_start_token"):
        assert c in empty.columns


def _word_jaccard(a: str, b: str, k: int = 5) -> float:
    """Exact word k-gram Jaccard, tokenized like the engine."""

    def grams(t: str) -> set:
        toks = t.lower().split()
        return {tuple(toks[i : i + k]) for i in range(len(toks) - k + 1)} if len(toks) >= k else {t}

    sa, sb = grams(a), grams(b)
    return len(sa & sb) / len(sa | sb)


def test_query_recrawl_at_stored_url_scores_its_own_text(rd, small_corpus, tmp_path):
    """A query doc re-crawled at a stored url has the stored doc's
    doc_id but edited text: every returned Jaccard must be the exact one
    between the query text and the matched stored text, not 1.0 from
    scoring one of the two texts against itself."""
    import pyarrow.parquet as pq

    from raydedup.pipelines.query import build_index, query_index
    from raydedup.stages.extract import doc_ids_from_urls

    spec, paths = small_corpus
    idx = str(tmp_path / "idx")
    build_index(paths["pages"], idx)
    stored = pq.read_table(os.path.join(idx, "docs"), columns=["doc_id", "text", "url"]).to_pandas()
    text_of = dict(zip(stored.doc_id, stored.text))
    oc = pq.read_table(paths["oracle_clusters"]).to_pandas()
    unique = stored[stored.url.isin(oc.url[oc.variant == "unique"])].head(12)

    urls, texts = [], []
    for i, (url, text) in enumerate(zip(unique.url, unique.text)):
        toks = text.split()
        # 2 or 8 substituted tokens: about 0.95 and 0.8 exact Jaccard
        for j, p in enumerate(np.linspace(10, len(toks) - 10, 2 if i % 2 else 8).astype(int)):
            toks[p] = f"recrawl{i}x{j}"
        edited = " ".join(toks)
        urls += [url, f"https://fresh.example/{i}"]
        texts += [edited, edited]
    q_ids = doc_ids_from_urls(urls)
    q_text = dict(zip(q_ids.tolist(), texts))
    q = rd.from_arrow(pa.table({"doc_id": pa.array(q_ids), "text": pa.array(texts)}))

    df = query_index(idx, q, top_k=5)
    exact = [_word_jaccard(q_text[a], text_of[b]) for a, b in zip(df.query_doc_id, df.match_doc_id)]
    assert np.allclose(df.jaccard, exact, rtol=0, atol=1e-12)
    assert (np.array(exact) >= 0.8).all()
    # the same-url re-crawls that pass tau are matched to their own stored
    # version, so the aliased pairs are in the checked rows
    assert (df.query_doc_id == df.match_doc_id).sum() >= 3


def test_monitor_finds_stored_doc_window(rd, small_corpus, tmp_path):
    """``panako monitor`` analog (OlafStrategy.java:437-453): a window
    cut from a STORED doc, embedded in unrelated text, must match that
    doc with coverage >= containment_min_coverage — computed via the
    index-side posting exchange (no driver scan of index docs)."""
    from raydedup.pipelines.query import build_index, monitor_text
    from raydedup.config import DedupConfig
    from raydedup.stages.containment import winnowed_fingerprints

    spec, paths = small_corpus
    idx = str(tmp_path / "monidx")
    build_index(paths["pages"], idx)

    import glob

    import pyarrow.parquet as pq

    docs_tbl = pq.read_table(sorted(glob.glob(os.path.join(idx, "docs", "*.parquet")))[0])
    # pick a long stored doc and cut a big slice of it
    df = docs_tbl.to_pandas()
    df["len"] = df["text"].str.len()
    victim = df.sort_values("len", ascending=False).iloc[0]
    slice_words = victim["text"].split()[:150]
    noise = " ".join(f"zz{i}q" for i in range(400))
    long_text = noise + " " + " ".join(slice_words) + " " + noise

    out = monitor_text(idx, long_text, window_tokens=150, step_tokens=100)
    assert (out["match_doc_id"] == victim["doc_id"]).any()
    hit = out[out["match_doc_id"] == victim["doc_id"]]
    assert (hit["coverage"] >= DedupConfig().containment_min_coverage).all()
    assert (hit["match_url"] == victim["url"]).all()

    # parity with the naive per-(window, doc) intersection on the hit rows
    cfg = DedupConfig()
    toks = long_text.split()
    for _, r in hit.head(3).iterrows():
        chunk = " ".join(toks[int(r.win_start_token) : int(r.win_stop_token)])
        qf = winnowed_fingerprints(chunk, cfg.containment_window, cfg.containment_stride)
        f = winnowed_fingerprints(victim["text"], cfg.containment_window, cfg.containment_stride)
        import numpy as np

        shared = np.intersect1d(qf, f, assume_unique=True).shape[0]
        assert abs(r.coverage - shared / qf.shape[0]) < 1e-12


def test_delete_from_index(rd, small_corpus, tmp_path):
    """D4 index subtraction: delete removes docs from both index tables
    and only rewrites affected shards; queries no longer match them."""
    import glob

    from raydedup.pipelines.query import build_index, delete_from_index
    from raydedup.stages.extract import doc_ids_from_urls
    import pyarrow.parquet as pq_

    spec, paths = small_corpus
    idx = str(tmp_path / "delidx")
    build_index(paths["pages"], idx)
    first = sorted(glob.glob(os.path.join(paths["pages"], "*.parquet")))[0]
    urls = pq_.read_table(first, columns=["url"]).column("url").to_pylist()[:3]
    victim_ids = set(int(x) for x in doc_ids_from_urls(urls))

    out = delete_from_index(idx, urls)
    assert out["removed_docs"] == 3
    remaining = set()
    for f in glob.glob(os.path.join(idx, "docs", "*.parquet")):
        remaining |= set(pq_.read_table(f, columns=["doc_id"]).column("doc_id").to_pylist())
    assert not (victim_ids & remaining)
    for f in glob.glob(os.path.join(idx, "signatures", "*.parquet")):
        sids = set(pq_.read_table(f, columns=["doc_id"]).column("doc_id").to_pylist())
        assert not (victim_ids & sids)
    # idempotent
    out2 = delete_from_index(idx, urls)
    assert out2["removed_docs"] == 0


def test_media_resize(rd):
    """resize_media: fixed t*t*3 uint8 thumbs, deterministic across
    runs/batching, block-mean matches a naive reference, tiny images
    take the clamp path, real codecs stay gated."""
    import numpy as np
    import pytest

    from raydedup.stages.multimodal import (
        MediaResizeKernel,
        _fake_decode,
        resize_media,
        synthetic_media_table,
    )

    ds = rd.from_arrow(synthetic_media_table(24))
    a = resize_media(ds, size=8, concurrency=2, batch_size=8).to_pandas().sort_values("media_id").reset_index(drop=True)
    b = resize_media(ds, size=8, concurrency=2, batch_size=5).to_pandas().sort_values("media_id").reset_index(drop=True)
    assert len(a) == 24
    assert all(len(x) == 8 * 8 * 3 for x in a.thumb)
    assert a.equals(b)

    # naive reference on one row
    t0 = synthetic_media_table(1)
    img = _fake_decode(
        t0.column("payload")[0].as_py(),
        t0.column("width")[0].as_py(),
        t0.column("height")[0].as_py(),
    )
    kern = MediaResizeKernel(size=4)
    got = kern._resize(img)
    h, w, _ = img.shape
    ref = np.empty((4, 4, 3))
    yb = (np.arange(5) * h) // 4
    xb = (np.arange(5) * w) // 4
    for i in range(4):
        for j in range(4):
            ref[i, j] = img[yb[i]:yb[i+1], xb[j]:xb[j+1]].astype(np.float64).reshape(-1, 3).mean(axis=0)
    np.testing.assert_array_equal(got, np.floor(ref + 0.5).astype(np.uint8))

    # tiny image clamp path
    tiny = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    out = MediaResizeKernel(size=4)._resize(tiny)
    assert out.shape == (4, 4, 3)

    with pytest.raises(NotImplementedError):
        MediaResizeKernel(decoder="pil")


def test_doc_type_batch():
    from raydedup.stages.textstats import doc_type_batch

    t = pa.table(
        {
            "doc_id": pa.array(range(5), pa.int64()),
            "text": pa.array(
                [
                    "int main() {\n  return 0;\n}\nplain line",   # 3/4 code
                    "- one\n- two\nintro line\n* three",          # 3/4 bullets
                    "ordinary prose paragraph\nanother line",     # prose
                    "",                                           # empty
                    None,                                         # null -> empty
                ],
                pa.large_string(),
            ),
        }
    )
    out = doc_type_batch(t)
    assert out.column("doc_type").to_pylist() == [
        "code", "list", "prose", "empty", "empty",
    ]
    assert out.column("n_code_lines").to_pylist()[0] == 3
    assert out.column("n_bullet_lines").to_pylist()[1] == 3
    assert out.column("n_lines").to_pylist() == [4, 4, 2, 0, 0]
