"""CLI surface tests: verb wiring + typed ``--set`` config overrides
(the analog of the reference's per-run property overrides,
``cli/Panako.java:247-268``)."""

import json
import os

import pyarrow.parquet as pq
import pytest

from raydedup.cli import _cfg_from_args, build_parser, main


@pytest.fixture(autouse=True)
def _keep_session_ray(monkeypatch):
    """main()'s finally tears down whatever Ray session exists — never
    let an in-process CLI call kill the session-scoped pytest fixture
    (tests that forgot the per-test patch poisoned any test file that
    ran after this one)."""
    monkeypatch.setattr("raydedup.cli._shutdown_ray", lambda: None)


def _ns(**kw):
    import argparse

    return argparse.Namespace(**kw)


def test_set_parses_typed_values():
    cfg = _cfg_from_args(
        _ns(set=["jaccard_tau=0.7", "n_bands=32", "rows_per_band=4", "shingle_mode=char"])
    )
    assert cfg.jaccard_tau == 0.7
    assert cfg.n_bands == 32 and cfg.rows_per_band == 4
    assert cfg.shingle_mode == "char"


def test_set_rejects_unknown_key_and_bad_syntax():
    with pytest.raises(SystemExit):
        _cfg_from_args(_ns(set=["no_such_key=1"]))
    with pytest.raises(SystemExit):
        _cfg_from_args(_ns(set=["jaccard_tau"]))


def test_set_defaults_to_plain_config():
    from raydedup.config import DedupConfig

    assert _cfg_from_args(_ns(set=None)) == DedupConfig()


def test_dedup_verb_set_changes_verified_pairs(
    ray_session, small_corpus, tmp_path, capsys, monkeypatch
):
    """`dedup --set jaccard_tau=...` must change the verified-pair count
    (a lower tau admits more near-dup pairs)."""
    import raydedup.cli as cli

    # keep the session-scoped Ray fixture alive through main()'s finally
    monkeypatch.setattr(cli, "_shutdown_ray", lambda: None)
    spec, paths = small_corpus

    def run(tau: float, ck: str) -> dict:
        rc = main(
            [
                "dedup",
                paths["pages"],
                str(tmp_path / ck),
                "--no-containment",
                "--set",
                f"jaccard_tau={tau}",
                "--set",
                "batch_size=256",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()[-1]
        return json.loads(out)

    strict = run(0.95, "ck_strict")
    loose = run(0.55, "ck_loose")
    n_strict = strict["scale_clusters"]["verified_pairs"]
    n_loose = loose["scale_clusters"]["verified_pairs"]
    assert n_loose > n_strict


def test_config_verb_prints_effective_overrides(capsys, monkeypatch):
    import raydedup.cli as cli

    # main()'s finally would tear down the session-scoped Ray fixture
    monkeypatch.setattr(cli, "_shutdown_ray", lambda: None)
    rc = main(["config", "--set", "jaccard_tau=0.7"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    kv = dict(l.split("=", 1) for l in lines if "=" in l)
    assert kv["jaccard_tau"] == "0.7"
    import dataclasses

    from raydedup.config import DedupConfig

    assert set(kv) == {f.name for f in dataclasses.fields(DedupConfig)}


def test_print_verb_matches_pipeline_kernel(tmp_path, capsys, monkeypatch):
    """`print FILE` emits the SAME minhash/bands/simhash the pipeline's
    SignatureKernel computes for that text."""
    import pyarrow as pa

    import raydedup.cli as cli

    from raydedup.config import DedupConfig
    from raydedup.stages.signatures import SignatureKernel

    monkeypatch.setattr(cli, "_shutdown_ray", lambda: None)
    text = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 3
    f = tmp_path / "doc.txt"
    f.write_text(text)
    rc = main(["print", str(f)])
    assert rc == 0
    row = json.loads(capsys.readouterr().out.strip())
    out = SignatureKernel(DedupConfig(), keep_shingles=True)(
        pa.table({"doc_id": pa.array([0], pa.int64()), "text": [text]})
    )
    assert row["minhash"] == out.column("minhash")[0].as_py()
    assert row["n_shingles"] == out.column("n_shingles")[0].as_py()
    want_bands = [f"{b:016x}" for b in out.column("bands")[0].as_py()]
    assert row["band_keys"] == want_bands
    assert int(row["simhash"], 16) == out.column("simhash")[0].as_py()


def test_print_fp_only_matches_winnowed(tmp_path, capsys, monkeypatch):
    import raydedup.cli as cli

    from raydedup.config import DedupConfig
    from raydedup.stages.containment import winnowed_fingerprints

    monkeypatch.setattr(cli, "_shutdown_ray", lambda: None)
    text = "one two three four five six seven eight nine ten " * 5
    f = tmp_path / "doc.txt"
    f.write_text(text)
    rc = main(["print", "--fp-only", str(f)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    cfg = DedupConfig()
    want = winnowed_fingerprints(
        text, cfg.containment_window, cfg.containment_stride
    )
    got = [int(l.split("\t")[1], 16) for l in lines]
    assert got == want.tolist()


def test_metadata_verb(ray_session, small_corpus, tmp_path, capsys, monkeypatch):
    """Stored url -> its docs row (sans text); unknown url -> 'is not
    indexed.' (cli/Metadata.java:55-63)."""
    import pyarrow.parquet as pq

    import raydedup.cli as cli

    monkeypatch.setattr(cli, "_shutdown_ray", lambda: None)
    spec, paths = small_corpus
    idx = str(tmp_path / "meta_idx")
    rc = main(["store", paths["pages"], idx])
    assert rc == 0
    capsys.readouterr()
    import glob as g

    one = pq.read_table(
        sorted(g.glob(os.path.join(idx, "docs", "*.parquet")))[0],
        columns=["url"],
    ).column("url")[0].as_py()
    rc = main(["metadata", idx, one, "http://nowhere.example/xyz"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    row = json.loads(out[0])
    assert row["url"] == one and "doc_id" in row and "text" not in row
    assert out[1] == "http://nowhere.example/xyz is not indexed."


def test_increment_verb_wiring():
    from raydedup.cli import cmd_increment

    p = build_parser()
    args = p.parse_args(["increment", "/tmp/idx", "/tmp/cl", "/tmp/pages"])
    assert args.fn is cmd_increment
    assert (args.index, args.clusters, args.pages) == ("/tmp/idx", "/tmp/cl", "/tmp/pages")


def test_curate_verb_end_to_end(ray_session, small_corpus, tmp_path, capsys, monkeypatch):
    """`curate` writes a (doc_id, status) parquet covering every doc and
    prints the funnel counts; thresholds tuned to the synthetic corpus
    (digit-heavy tokens)."""
    import glob

    import pyarrow.parquet as pq

    monkeypatch.setattr("raydedup.cli._init_ray", lambda: None)
    _, paths = small_corpus
    out = str(tmp_path / "curated")
    rc = main(
        [
            "curate",
            paths["pages"],
            out,
            "--max-digit-ratio",
            "1.0",
            "--min-tokens",
            "5",
            "--sample-rate",
            "0.7",
        ]
    )
    assert rc == 0
    funnel = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["funnel"]
    assert sum(funnel.values()) == 600
    assert funnel.get("exact_dup", 0) > 0 and funnel.get("sampled_out", 0) > 0
    n = sum(pq.read_table(f).num_rows for f in glob.glob(os.path.join(out, "*.parquet")))
    assert n == 600


def test_passages_verb(ray_session, small_corpus, capsys, monkeypatch):
    """`passages` prints count TAB k-gram lines, hottest first; the
    planted duplicate groups in the corpus guarantee shared 5-grams."""
    monkeypatch.setattr("raydedup.cli._init_ray", lambda: None)
    _, paths = small_corpus
    rc = main(["passages", paths["pages"], "--min-docs", "2", "--top", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert 0 < len(lines) <= 5
    counts = []
    for ln in lines:
        n, s = ln.split("\t", 1)
        counts.append(int(n))
        assert int(n) >= 2 and len(s.split(" ")) == 5
    assert counts == sorted(counts, reverse=True)


def test_search_verb(ray_session, small_corpus, capsys, monkeypatch):
    """`search` prints doc_id TAB n_matched TAB n_hits, most hits first."""
    monkeypatch.setattr("raydedup.cli._init_ray", lambda: None)
    _, paths = small_corpus
    import glob as g, pyarrow.parquet as pq

    # pick a token guaranteed present: first word of the first stored doc
    f = sorted(g.glob(os.path.join(paths["pages"], "*.parquet")))[0]
    word = pq.read_table(f, columns=["text"]).column("text").to_pylist()[0].split()[0].lower()
    rc = main(["search", paths["pages"], word, "--top", "10"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert 0 < len(lines) <= 10
    hits = [int(ln.split("\t")[2]) for ln in lines]
    assert hits == sorted(hits, reverse=True)
    assert all(int(ln.split("\t")[1]) == 1 for ln in lines)


def test_search_verb_no_matches(ray_session, small_corpus, capsys, monkeypatch):
    """Terms absent from the corpus: clean exit, no output (the all-empty
    Ray result arrives column-less — must not crash)."""
    monkeypatch.setattr("raydedup.cli._init_ray", lambda: None)
    _, paths = small_corpus
    rc = main(["search", paths["pages"], "zz-not-a-token-zz"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == ""


def test_events_verb(ray_session, capsys, monkeypatch, tmp_path):
    """`events` runs each analytics op over an events parquet."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    monkeypatch.setattr("raydedup.cli._init_ray", lambda: None)
    MIN = 60 * 1_000_000
    tbl = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4], pa.int64()),
            "ts": pa.array(np.array([0, 10 * MIN, 41 * MIN, 0], dtype="datetime64[us]")),
            "user_id": pa.array([1, 1, 1, 2], pa.int64()),
            "event_type": pa.array(["view", "click", "purchase", "view"], pa.large_string()),
            "value": pa.array([1.0, 2.0, 3.0, 4.0], pa.float64()),
        }
    )
    f = str(tmp_path / "events.parquet")
    pq.write_table(tbl, f)

    rc = main(["events", "sessions", f, "--gap", "1800"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3  # user1: 2 sessions, user2: 1

    rc = main(["events", "funnel", f])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert [l.split("\t")[2] for l in out] == ["2", "1", "1"]

    rc = main(["events", "wau", f, "--window", "1"])
    assert rc == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1

    rc = main(["events", "retention", f])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].split("\t") == ["0", "0", "2"]


def test_chunk_verb(ray_session, small_corpus, tmp_path, capsys, monkeypatch):
    """`chunk` writes token-window chunks as parquet; token totals match
    the corpus token count."""
    import glob as g

    import pyarrow.parquet as pq

    monkeypatch.setattr("raydedup.cli._init_ray", lambda: None)
    _, paths = small_corpus
    out = str(tmp_path / "chunks")
    rc = main(["chunk", paths["pages"], out, "--tokens", "64"])
    assert rc == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    files = g.glob(os.path.join(out, "*.parquet"))
    assert files and info["chunks"] == sum(pq.read_metadata(f).num_rows for f in files)
    t = pq.read_table(files[0])
    assert set(t.schema.names) == {"doc_id", "chunk_id", "text_chunk", "n_tokens"}
    assert max(t.column("n_tokens").to_pylist()) <= 64


def test_normalize_and_quality_verbs(
    ray_session, small_corpus, tmp_path, capsys, monkeypatch
):
    """`normalize` reports changed-doc counts and writes canonical docs;
    `quality` reports Gopher/C4 pass rates and writes verdicts."""
    import glob as g

    import pyarrow.parquet as pq

    monkeypatch.setattr("raydedup.cli._init_ray", lambda: None)
    _, paths = small_corpus

    rc = main(["normalize", paths["pages"]])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["docs"] > 0 and 0 <= summary["changed"] <= summary["docs"]

    out = str(tmp_path / "normed")
    rc = main(["normalize", paths["pages"], "--out", out])
    assert rc == 0
    capsys.readouterr()
    files = sorted(g.glob(os.path.join(out, "*.parquet")))
    assert files
    t = pq.read_table(files[0])
    assert {"doc_id", "text", "text_sha256"} <= set(t.column_names)

    rc = main(["quality", paths["pages"]])
    assert rc == 0
    qsum = json.loads(capsys.readouterr().out.strip())
    assert qsum["docs"] == summary["docs"]
    assert 0 <= qsum["gopher_pass"] <= qsum["docs"]
    assert 0 <= qsum["c4_doc_pass"] <= qsum["docs"]

    qout = str(tmp_path / "verdicts")
    rc = main(["quality", paths["pages"], "--out", qout])
    assert rc == 0
    capsys.readouterr()
    qfiles = sorted(g.glob(os.path.join(qout, "*.parquet")))
    assert qfiles
    qt = pq.read_table(qfiles[0])
    assert {"doc_id", "keep", "keep_doc", "n_kept", "clean_text"} <= set(
        qt.column_names
    )


def test_domains_verb(ray_session, small_corpus, tmp_path, capsys, monkeypatch):
    """`domains` prints per-host stats; `--cap` writes the capped
    (domain, doc_id, rank) parquet."""
    import glob as g

    import pyarrow.parquet as pq

    monkeypatch.setattr("raydedup.cli._init_ray", lambda: None)
    _, paths = small_corpus
    rc = main(["domains", paths["pages"], "--top", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert 1 <= len(lines) <= 5
    n_docs, total_chars, avg, host = lines[0].split("\t")
    assert int(n_docs) >= 1 and float(avg) > 0 and "." in host

    out = str(tmp_path / "capped")
    rc = main(["domains", paths["pages"], "--cap", "3", "--out", out])
    assert rc == 0
    capsys.readouterr()
    files = sorted(g.glob(os.path.join(out, "*.parquet")))
    assert files
    t = pq.read_table(files[0])
    assert {"domain", "doc_id", "rank"} <= set(t.column_names)
    import pandas as pd

    df = pq.read_table(files[0]).to_pandas()
    for f in files[1:]:
        df = pd.concat([df, pq.read_table(f).to_pandas()])
    assert df.groupby("domain").size().max() <= 3


def test_diff_verb(ray_session, small_corpus, tmp_path, capsys, monkeypatch):
    """`diff` of a pages dir against itself is all-unchanged; against a
    disjoint dir every url is added or removed."""
    monkeypatch.setattr("raydedup.cli._init_ray", lambda: None)
    _, paths = small_corpus
    rc = main(["diff", paths["pages"], paths["pages"]])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["urls"] > 0
    assert set(summary["status"]) == {"unchanged"}


def test_dupngrams_verb(ray_session, small_corpus, capsys, monkeypatch):
    """`dupngrams` ranks docs by shared-k-gram fraction; planted
    duplicates put fractions near 1 at the head."""
    monkeypatch.setattr("raydedup.cli._init_ray", lambda: None)
    _, paths = small_corpus
    rc = main(["dupngrams", paths["pages"], "--top", "10"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10
    frac0 = float(lines[0].split("\t")[0])
    assert frac0 > 0.5  # the corpus plants exact+near duplicates


def test_export_verb(ray_session, small_corpus, tmp_path, capsys, monkeypatch):
    """`export` writes hash-sharded parquet + manifest; a second run
    skips every shard."""
    import glob as g

    monkeypatch.setattr("raydedup.cli._init_ray", lambda: None)
    _, paths = small_corpus
    out = str(tmp_path / "export")
    rc = main(["export", paths["pages"], out, "--shards", "8"])
    assert rc == 0
    s1 = json.loads(capsys.readouterr().out.strip())
    assert s1["written"] == 8 and s1["rows"] == 600
    assert len(g.glob(os.path.join(out, "shard=*", "part.parquet"))) == 8
    rc = main(["export", paths["pages"], out, "--shards", "8"])
    assert rc == 0
    s2 = json.loads(capsys.readouterr().out.strip())
    assert s2["written"] == 0 and s2["skipped"] == 8 and s2["rows"] == 600


def test_scrub_verb(ray_session, small_corpus, tmp_path, capsys, monkeypatch):
    """`scrub` writes passage-scrubbed docs: total kept docs <= corpus
    size, every kept doc non-empty, and the planted exact-dup groups
    lose their duplicate passages (kept token mass < input token mass)."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    monkeypatch.setattr("raydedup.cli._init_ray", lambda: None)
    _, paths = small_corpus
    out = str(tmp_path / "scrubbed")
    rc = main(["scrub", paths["pages"], out, "--tokens", "32"])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0 < stats["docs_kept"] <= 600
    t = pa.concat_tables(
        [pq.read_table(f) for f in glob.glob(os.path.join(out, "*.parquet"))]
    )
    assert t.num_rows == stats["docs_kept"]
    import pyarrow.compute as pc

    assert pc.min(pc.utf8_length(t.column("text"))).as_py() > 0
    assert pc.min(t.column("n_chunks_kept")).as_py() >= 1


def test_shuffle_verb(ray_session, small_corpus, tmp_path, capsys, monkeypatch):
    """`shuffle` writes the (doc_id, pos, shard) training-order layout:
    pos is a permutation, shards are the contiguous k-way split."""
    import glob

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    monkeypatch.setattr("raydedup.cli._init_ray", lambda: None)
    _, paths = small_corpus
    out = str(tmp_path / "shuffled")
    rc = main(["shuffle", paths["pages"], out, "--shards", "6"])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["docs"] == 600 and stats["shards"] == 6
    t = pa.concat_tables(
        [pq.read_table(f) for f in glob.glob(os.path.join(out, "*.parquet"))]
    )
    pos = np.sort(t.column("pos").to_numpy())
    assert np.array_equal(pos, np.arange(600))
    assert sorted(np.bincount(t.column("shard").to_numpy()).tolist()) == [100] * 6


def test_report_verb(ray_session, small_corpus, capsys, monkeypatch):
    """`report` prints one JSON doc: worst offenders (planted dup groups
    surface), per-lang dup rates summing to the corpus, agreement vs
    exact-only with same_both == same_b (exact clusters are
    sub-clusters of the flagship's)."""
    monkeypatch.setattr("raydedup.cli._init_ray", lambda: None)
    _, paths = small_corpus
    rc = main(["report", paths["pages"], "--top", "5", "--set", "batch_size=256"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["n_docs"] == 600
    # one cluster of >= 2 docs per planted duplicate group (each group
    # has one ``base`` doc), and no other
    oc = pq.read_table(paths["oracle_clusters"]).to_pandas()
    assert rep["n_clusters"] == int((oc.variant == "base").sum()) == 118
    assert 0 < len(rep["largest_clusters"]) <= 5
    assert rep["largest_clusters"][0]["size"] >= 2
    assert sum(r["n_docs"] for r in rep["dup_rate_by_lang"]) == 600
    ag = rep["vs_exact_only"]
    assert ag["pairs_same_both"] == ag["pairs_same_b"] <= ag["pairs_same_a"]


def test_new_webtext_verbs(ray_session, small_corpus, tmp_path, capsys, monkeypatch):
    """overlap / hostlines / mix / stitch / normdup verbs run end-to-end
    over the pages corpus and produce sane output."""
    import raydedup.cli as cli

    monkeypatch.setattr(cli, "_shutdown_ray", lambda: None)
    _, paths = small_corpus
    pages = paths["pages"]

    assert cli.main(["mix", pages, "--scale-num", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out and all("\t" in ln for ln in out)  # host TAB kept-count

    assert cli.main(["overlap", pages, "--k", "5"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out  # >= 2 hosts in the synthetic corpus -> >= 1 pair row

    assert cli.main(["normdup", pages]) == 0
    nd = capsys.readouterr().out.strip().splitlines()
    # planted exact dups normalize equal too
    assert len(nd) >= 1

    assert cli.main(["stitch", pages, "--k", "3"]) == 0
    capsys.readouterr()

    dst = str(tmp_path / "trimmed")
    assert cli.main(["hostlines", pages, "--num", "1", "--den", "100",
                     "--min-docs", "5", "--out", dst]) == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert info["docs"] == 600


def test_b1dedup_verb(ray_session, small_corpus, capsys, monkeypatch):
    import raydedup.cli as cli

    monkeypatch.setattr(cli, "_shutdown_ray", lambda: None)
    _, paths = small_corpus
    assert cli.main(["b1dedup", paths["pages"], "--hamming-max", "16"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out, "planted dups must surface through the b1 store"
    a, b, h = out[0].split("\t")
    assert int(a) < int(b) and 0 <= int(h) <= 16


def test_curation_verbs(ray_session, small_corpus, tmp_path, capsys, monkeypatch):
    """select / classify / pplbucket over a pages dir: JSON summaries
    with coherent totals; select --out writes per-doc parquet."""
    import raydedup.cli as cli

    monkeypatch.setattr(cli, "_shutdown_ray", lambda: None)
    _, paths = small_corpus

    assert cli.main(["select", paths["pages"]]) == 0
    sel = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sel["docs"] == 600 and 0 <= sel["kept"] <= 600

    out_dir = str(tmp_path / "sel")
    assert cli.main(["select", paths["pages"], "--out", out_dir]) == 0
    wrote = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert wrote["docs"] == 600
    import glob as g

    assert g.glob(os.path.join(out_dir, "*.parquet"))

    assert cli.main(["classify", paths["pages"], "--test-mod", "4"]) == 0
    clf = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert clf["test_docs"] > 0 and 0.0 <= clf["accuracy"] <= 1.0

    assert cli.main(["pplbucket", paths["pages"], "--buckets", "4"]) == 0
    ppl = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert ppl["docs"] == 600
    assert sum(ppl["buckets"].values()) == 600
    assert set(ppl["buckets"]) <= {"1", "2", "3", "4"}


def test_embedding_verbs(ray_session, tmp_path, capsys, monkeypatch):
    """semdedup / protoprune over an embeddings parquet."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import raydedup.cli as cli

    monkeypatch.setattr(cli, "_shutdown_ray", lambda: None)
    rng = np.random.Generator(np.random.PCG64(2))
    vecs = rng.normal(size=(50, 16)).astype(np.float32)
    vecs[40:] = vecs[:10]  # planted exact semantic copies
    t = pa.table(
        {
            "vec_id": pa.array(list(range(50)), pa.int64()),
            "embedding": pa.array(
                [v.tolist() for v in vecs], pa.list_(pa.float32())
            ),
            "label": pa.array([i % 3 for i in range(50)], pa.int32()),
        }
    )
    emb = str(tmp_path / "emb.parquet")
    pq.write_table(t, emb)

    assert cli.main(["semdedup", emb, "--threshold", "0.99"]) == 0
    sd = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sd["vectors"] == 50 and sd["pruned"] >= 10  # the planted copies

    assert cli.main(["protoprune", emb]) == 0
    pp = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert pp["vectors"] == 50 and pp["kept"] + pp["pruned"] == 50


def test_embed_verb_writes_canonical_table(
    ray_session, small_corpus, tmp_path, capsys
):
    """`embed` produces the canonical (vec_id, embedding) parquet that
    `semdedup` then consumes — the text -> embedding -> semantic-dedup
    chain end to end through the CLI."""
    import glob as _glob

    import pyarrow.parquet as pq

    spec, paths = small_corpus
    pages_dir = os.path.dirname(
        sorted(_glob.glob(os.path.join(paths["pages"], "*.parquet")))[0]
    ) if os.path.isdir(paths["pages"]) else paths["pages"]
    out = str(tmp_path / "emb")
    assert main(["embed", pages_dir, "--out", out]) == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["vectors"] > 0
    t = pq.read_table(sorted(_glob.glob(os.path.join(out, "*.parquet"))))
    assert t.column_names == ["vec_id", "embedding"]
    assert t.num_rows == rep["vectors"]

    assert main(["semdedup", out, "--threshold", "0.95", "--bits", "2"]) == 0
    rep2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep2["vectors"] == rep["vectors"]
    assert rep2["pruned"] > 0  # the planted-dup corpus has semantic copies


def test_pplbucket_trigram_model_flag(ray_session, small_corpus, capsys):
    spec, paths = small_corpus
    assert main(["pplbucket", paths["pages"], "--model", "trigram"]) == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["docs"] > 0 and "buckets" in rep
