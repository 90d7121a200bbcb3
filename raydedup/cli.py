"""CLI mirroring the reference's application surface.

Verb map (Panako ``cli/*`` -> here):
  store      build Parquet index from pages        (cli/Store.java)
  query      match query pages against an index    (cli/Query.java)
  monitor    windowed containment of one long text (cli/Monitor.java)
  same       direct two-text similarity check      (cli/Same.java)
  dedup      full self-join dedup + clustering     (cli/Deduplication.java)
  increment  fold new pages into a frozen index    (cli/Store.java + Query.java)
  watch      continuous watch-folder fold loop     (cli/Monitor.java:90-106)
  config     print the configuration in use        (cli/Configuration.java)
  print      fingerprints of text files to stdout  (cli/Print.java)
  metadata   stored metadata for urls              (cli/Metadata.java)
  stats      index/corpus statistics               (cli/Stats.java)
  resolve    url -> doc_id                         (cli/Resolve.java)
  delete     remove docs (by url) from an index    (cli/Delete.java)
  clear      delete an index/checkpoint dir        (cli/Clear.java)

Curation extensions (graft surface, no Panako analog):
  select     DSIR importance weights / keep verdicts
  classify   Naive-Bayes train+score (modulo split)
  pplbucket  CCNet per-lang perplexity head/middle/tail
  semdedup   semantic dedup over an embeddings parquet
  protoprune prototypicality pruning over embeddings

Out of scope: cli/Play.java (audio playback); cli/Load.java's bulk
KV-dump load is subsumed by the resumable store manifest
(state/checkpoint.py).

Usage: python -m raydedup.cli <verb> [args...]  (run `<verb> -h` for
flags). Owns its Ray session (the driver contract in __ray_entry__
never calls ray.init; this CLI does, guarded).
"""

from __future__ import annotations

import argparse
import glob
import json
import logging
import os
import shutil
import sys


def _init_ray() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "8")),
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def _shutdown_ray() -> None:
    import ray

    if ray.is_initialized():
        ray.shutdown()


def _cfg_from_args(args: argparse.Namespace):
    """Typed config overrides from repeated ``--set key=value`` flags —
    the analog of the reference's per-run property overrides
    (``cli/Panako.java:247-268``: every ``Key`` is overridable on the
    command line). Values are cast to the dataclass field's type; an
    unknown key lists the valid ones."""
    import dataclasses

    from raydedup.config import DedupConfig

    overrides: dict[str, object] = {}
    fields = {f.name: f for f in dataclasses.fields(DedupConfig)}
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        k, v = item.split("=", 1)
        f = fields.get(k)
        if f is None:
            raise SystemExit(
                f"unknown config key {k!r}; valid keys: {', '.join(sorted(fields))}"
            )
        t = f.type if isinstance(f.type, type) else str(f.type)
        if t in (bool, "bool"):
            overrides[k] = v.lower() in ("1", "true", "yes", "on")
        elif t in (int, "int"):
            overrides[k] = int(v)
        elif t in (float, "float"):
            overrides[k] = float(v)
        else:
            overrides[k] = v
    return DedupConfig().with_overrides(**overrides)



def _input_files(path: str) -> list[str]:
    """An input path as files: the sorted ``*.parquet`` files of a
    directory, else the path itself (a file)."""
    return sorted(glob.glob(os.path.join(path, "*.parquet"))) or [path]


def _write_parquet_counted(ds, out_dir: str) -> int:
    """write_parquet + row count of exactly the files THIS call wrote.

    Counts from parquet footers (no pipeline re-execution) and
    snapshots the dir first: Ray's write_parquet never truncates an
    existing directory, so counting the whole dir would include stale
    files from earlier runs (review r4)."""
    import pyarrow.parquet as pq

    before = set(glob.glob(os.path.join(out_dir, "*.parquet")))
    ds.write_parquet(out_dir)
    return sum(
        pq.read_metadata(f).num_rows
        for f in set(glob.glob(os.path.join(out_dir, "*.parquet"))) - before
    )


def cmd_store(args: argparse.Namespace) -> int:
    _init_ray()
    from raydedup.pipelines.query import build_index

    out = build_index(args.pages, args.index, _cfg_from_args(args))
    print(json.dumps(out))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    _init_ray()
    import ray.data as rd

    from raydedup.pipelines.query import query_index
    from raydedup.sources.pages import pages_to_docs

    q = pages_to_docs(rd.read_parquet(args.pages))
    df = query_index(
        args.index,
        q,
        _cfg_from_args(args),
        top_k=args.top_k,
        with_segments=args.segments,
    )
    print(df.to_csv(index=False))
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    _init_ray()
    from raydedup.pipelines.query import monitor_text

    text = open(args.textfile, encoding="utf-8").read()
    df = monitor_text(args.index, text, _cfg_from_args(args))
    print(df.to_csv(index=False))
    return 0


def cmd_same(args: argparse.Namespace) -> int:
    from raydedup.stages.bruteforce import same_check

    a = open(args.a, encoding="utf-8").read()
    b = open(args.b, encoding="utf-8").read()
    print(json.dumps(same_check(a, b)))
    return 0


def cmd_dedup(args: argparse.Namespace) -> int:
    _init_ray()
    from raydedup.state.checkpoint import run_dedup_checkpointed

    out = run_dedup_checkpointed(
        _input_files(args.pages), args.checkpoint, _cfg_from_args(args),
        containment=not args.no_containment, substring=args.substring,
    )
    print(json.dumps({"clusters_dir": out["clusters_path"], **out["metrics"]}, default=str))
    return 0


def cmd_increment(args: argparse.Namespace) -> int:
    _init_ray()
    from raydedup.pipelines.increment import dedup_increment

    out = dedup_increment(args.index, args.clusters, args.pages, _cfg_from_args(args))
    print(json.dumps(out, default=str))
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    """Long-running watch-folder fold loop (pipelines/increment.py
    monitor_increments): per-wave fold info lines, totals at exit."""
    _init_ray()
    from raydedup.pipelines.increment import monitor_increments

    out = monitor_increments(
        args.watch_dir,
        args.index,
        args.clusters,
        _cfg_from_args(args),
        poll_interval=args.poll_interval,
        max_waves=args.max_waves,
        max_idle_polls=args.max_idle_polls,
        stop_file=args.stop_file,
        on_wave=lambda info: print(json.dumps(info, default=str), flush=True),
    )
    print(json.dumps(out, default=str))
    return 0


def cmd_warc2parquet(args: argparse.Namespace) -> int:
    """Convert WARC shard(s) (plain / .gz, Common-Crawl layouts) into
    the canonical pages parquet — after which every verb and pipeline
    consumes them natively (sources/warc.py)."""
    _init_ray()
    from raydedup.sources.warc import read_warc_pages

    n = _write_parquet_counted(read_warc_pages(args.warc, lang=args.lang), args.out)
    print(json.dumps({"pages": n, "out": args.out}))
    return 0


def cmd_curate(args: argparse.Namespace) -> int:
    """Full curation funnel over a pages dir: quality -> optional
    decontamination (--eval-pages) -> exact/near dedup -> deterministic
    sample; writes (doc_id, status) parquet + prints the funnel counts."""
    _init_ray()
    import ray.data as rd

    from raydedup.pipelines.curate import CurateParams, curate
    from raydedup.sources.pages import pages_to_docs

    docs = pages_to_docs(rd.read_parquet(args.pages))
    ev = (
        pages_to_docs(rd.read_parquet(args.eval_pages))
        if args.eval_pages
        else None
    )
    p = CurateParams(
        min_tokens=args.min_tokens,
        max_punct_ratio=args.max_punct_ratio,
        max_digit_ratio=args.max_digit_ratio,
        sample_rate=args.sample_rate,
        near_dedup=args.near,
    )
    res = curate(docs, eval_docs=ev, cfg=_cfg_from_args(args), params=p)
    res.statuses.write_parquet(args.out)
    print(json.dumps({"out": args.out, "funnel": res.metrics}))
    return 0


def cmd_config(args: argparse.Namespace) -> int:
    """Print the configuration currently in use, one ``key=value`` per
    line — the reference's ``panako config`` (``cli/Configuration.java:
    44-52``: every ``Key`` printed with its effective value). ``--set``
    overrides are applied first, so this shows exactly what a run with
    the same flags would use."""
    import dataclasses

    cfg = _cfg_from_args(args)
    print("# Configuration currently in use:")
    for k, v in sorted(dataclasses.asdict(cfg).items()):
        print(f"{k}={v}")
    return 0


def cmd_print(args: argparse.Namespace) -> int:
    """Print the fingerprints for text file(s) to stdout — the
    reference's ``panako print`` (``cli/Print.java``: per input file,
    dump the strategy's fingerprints; ``-ep`` prints only event points).
    Here: one JSON line per file with sha256, token/shingle counts, the
    MinHash signature, LSH band keys and SimHash; ``--fp-only`` prints
    only the winnowed containment fingerprints (the event-point analog),
    one per line. Pure kernels — no Ray session needed."""
    import hashlib

    import pyarrow as pa

    from raydedup.stages.containment import winnowed_fingerprints
    from raydedup.stages.signatures import SignatureKernel, tokenize

    cfg = _cfg_from_args(args)
    kernel = SignatureKernel(cfg, keep_shingles=False)
    for path in args.files:
        text = open(path, encoding="utf-8").read()
        if args.fp_only:
            fps = winnowed_fingerprints(
                text, cfg.containment_window, cfg.containment_stride
            )
            for fp in fps.tolist():
                print(f"{path}\t{fp:016x}")
            continue
        out = kernel(
            pa.table({"doc_id": pa.array([0], pa.int64()), "text": [text]})
        )
        row = {
            "file": path,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "n_tokens": len(tokenize(text)),
            "n_shingles": int(out.column("n_shingles")[0].as_py()),
            "minhash": out.column("minhash")[0].as_py(),
            "band_keys": [f"{b:016x}" for b in out.column("bands")[0].as_py()],
            "simhash": f"{out.column('simhash')[0].as_py():016x}",
        }
        print(json.dumps(row))
    return 0


def cmd_metadata(args: argparse.Namespace) -> int:
    """Print the stored metadata for url(s) — the reference's ``panako
    metadata`` (``cli/Metadata.java:55-63``: per file, print the stored
    resource metadata or '<name> is not indexed.'). Reads only the
    needed columns from the index's docs parquet; no Ray session."""
    import pyarrow.dataset as pads

    from raydedup.stages.extract import doc_ids_from_urls
    from raydedup.state.checkpoint import store_files

    if not os.path.isdir(os.path.join(args.index, "docs")):
        raise SystemExit(f"{args.index}: not an index dir (no docs/)")
    ids = doc_ids_from_urls(list(args.urls))
    dset = pads.dataset(store_files(args.index, "docs"), format="parquet")
    cols = [c for c in dset.schema.names if c != "text"]
    tbl = dset.to_table(
        columns=cols, filter=pads.field("doc_id").isin(ids.tolist())
    )
    found = {}
    for row in tbl.to_pylist():
        row["text_sha256"] = row["text_sha256"].hex()
        found[row["doc_id"]] = row
    for url, did in zip(args.urls, ids.tolist()):
        if did in found:
            print(json.dumps({"url": url, **found[did]}))
        else:
            print(f"{url} is not indexed.")
    return 0


def cmd_passages(args: argparse.Namespace) -> int:
    """Boilerplate discovery: print the word k-grams shared by at least
    --min-docs distinct documents (count TAB passage, hottest first)."""
    _init_ray()
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.passages import hot_passages

    docs = pages_to_docs(read_pages(_input_files(args.pages)))
    tbl = hot_passages(docs, min_docs=args.min_docs, k=args.k, limit=args.top)
    for s, n in zip(tbl.column("shingle").to_pylist(), tbl.column("n_docs").to_pylist()):
        print(f"{n}\t{s}")
    return 0


def cmd_lines(args: argparse.Namespace) -> int:
    """Line-level boilerplate pass: with --out, strip every line shared
    by >= --min-docs docs and write the cleaned docs as parquet; without,
    print the hot lines (count TAB line, hottest first)."""
    _init_ray()
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.lines import dedup_lines, hot_lines

    docs = pages_to_docs(read_pages(_input_files(args.pages)))
    if args.out:
        import pyarrow.parquet as pq

        n = _write_parquet_counted(dedup_lines(docs, min_docs=args.min_docs), args.out)
        print(json.dumps({"docs": n, "out": args.out}))
        return 0
    tbl = hot_lines(docs, min_docs=args.min_docs, limit=args.top)
    for s, n in zip(tbl.column("line").to_pylist(), tbl.column("n_docs").to_pylist()):
        print(f"{n}\t{s}")
    return 0


def cmd_normalize(args: argparse.Namespace) -> int:
    """Typographic normalization pass: with --out, write the docs with
    text (and sha) replaced by the canonical form; without, print a
    per-corpus summary of how many docs changed."""
    _init_ray()
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.textnorm import normalized_docs

    docs = pages_to_docs(read_pages(_input_files(args.pages)))
    out = normalized_docs(docs)
    if args.out:
        out.write_parquet(args.out)
        print(json.dumps({"docs": out.count(), "out": args.out}))
        return 0

    import pyarrow as pa
    import pyarrow.compute as pc

    from raydedup.stages.textnorm import normalize_text_column

    def delta(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return pa.table({"n": pa.array([], pa.int64()),
                             "changed": pa.array([], pa.int64())})
        norm = normalize_text_column(t.column("text"))
        ch = pc.sum(
            pc.cast(pc.invert(pc.equal(t.column("text"), norm)), pa.int64())
        ).as_py()
        return pa.table({"n": [t.num_rows], "changed": [int(ch or 0)]})

    df = docs.map_batches(delta, batch_format="pyarrow").to_pandas()
    print(json.dumps({"docs": int(df["n"].sum()), "changed": int(df["changed"].sum())}))
    return 0


def cmd_quality(args: argparse.Namespace) -> int:
    """Quality-filter rules: Gopher doc gates + C4 line cleaning. With
    --out, write per-doc verdicts + cleaned text as parquet; without,
    print a pass-rate summary."""
    _init_ray()
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.qualityfilter import (
        c4_line_filter_batch,
        gopher_rules_batch,
    )

    docs = pages_to_docs(read_pages(_input_files(args.pages)))

    import pyarrow as pa

    def both(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "keep": pa.array([], pa.int64()),
                 "keep_doc": pa.array([], pa.int64()),
                 "n_kept": pa.array([], pa.int64()),
                 "clean_text": pa.array([], pa.string())}
            )
        g = gopher_rules_batch(t)
        c = c4_line_filter_batch(t)
        return pa.table(
            {"doc_id": g.column("doc_id"), "keep": g.column("keep"),
             "keep_doc": c.column("keep_doc"), "n_kept": c.column("n_kept"),
             "clean_text": c.column("clean_text")}
        )

    out = docs.map_batches(both, batch_format="pyarrow")
    if args.out:
        out.write_parquet(args.out)
        print(json.dumps({"docs": out.count(), "out": args.out}))
        return 0
    df = out.to_pandas()
    print(
        json.dumps(
            {
                "docs": len(df),
                "gopher_pass": int(df["keep"].sum()),
                "c4_doc_pass": int(df["keep_doc"].sum()),
                "c4_lines_kept": int(df["n_kept"].sum()),
            }
        )
    )
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    """Index-free distributed grep: print doc_id TAB n_matched TAB
    n_hits for every doc whose tokens cover the query terms."""
    _init_ray()
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.search import search_terms

    docs = pages_to_docs(read_pages(_input_files(args.pages)))
    df = search_terms(docs, args.terms, mode=args.mode).to_pandas()
    if df.empty:
        # an all-empty Ray result can arrive column-less (0-row blocks
        # skip the UDF); there is nothing to print either way
        return 0
    df = df.sort_values(["n_hits", "doc_id"], ascending=[False, True])
    if args.top is not None:
        df = df.head(args.top)
    for r in df.itertuples(index=False):
        print(f"{r.doc_id}\t{r.n_matched}\t{r.n_hits}")
    return 0


def cmd_chunk(args: argparse.Namespace) -> int:
    """Chunk a pages dir into fixed-token windows and write them as
    partitioned parquet (streams end-to-end, never driver-collected)."""
    _init_ray()
    import pyarrow.parquet as pq

    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.chunking import chunk_documents

    docs = pages_to_docs(read_pages(_input_files(args.pages)))
    chunks = chunk_documents(docs, chunk_tokens=args.tokens, overlap=args.overlap)
    n = _write_parquet_counted(chunks, args.out)
    print(json.dumps({"chunks": n, "out": args.out}))
    return 0


def cmd_scrub(args: argparse.Namespace) -> int:
    """Passage-level near-dedup scrub: drop duplicated passages, keep
    each cluster's representative, reassemble docs, write parquet."""
    _init_ray()
    import pyarrow.parquet as pq

    from raydedup.config import DedupConfig
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.passagededup import scrub_passages

    docs = pages_to_docs(read_pages(_input_files(args.pages)))
    out = scrub_passages(
        docs, DedupConfig(), chunk_tokens=args.tokens, containment=not args.no_containment
    )
    n = _write_parquet_counted(out, args.out)
    print(json.dumps({"docs_kept": n, "out": args.out}))
    return 0


def cmd_shuffle(args: argparse.Namespace) -> int:
    """Deterministic global shuffle layout: write (doc_id, pos, shard)
    for a pages dir — the training-order manifest."""
    _init_ray()
    import pyarrow.parquet as pq

    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.shuffleorder import DEFAULT_SHUFFLE_SEED, shuffle_positions

    docs = pages_to_docs(read_pages(_input_files(args.pages)))
    seed = args.seed if args.seed is not None else DEFAULT_SHUFFLE_SEED
    out = shuffle_positions(docs, seed=seed, n_shards=args.shards)
    n = _write_parquet_counted(out, args.out)
    print(json.dumps({"docs": n, "shards": args.shards, "out": args.out}))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Duplication inspection report for a pages dir: run the flagship
    dedup, then print the worst-offender clusters, the per-source
    duplication rates, and the pair-level agreement vs exact-only
    dedup (how much near-dup adds) as one JSON document."""
    _init_ray()
    from raydedup.pipelines.dedup_scale import run_dedup_auto
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.agreement import assignment_agreement, exact_clusters
    from raydedup.stages.cluster import (
        cluster_size_histogram,
        dup_rate_by_group,
        largest_clusters,
    )

    docs = pages_to_docs(read_pages(_input_files(args.pages))).materialize()
    res = run_dedup_auto(docs, _cfg_from_args(args), containment=not args.no_containment)
    clusters = res.clusters
    hist = cluster_size_histogram(clusters).to_pydict()
    # clusters with >= 2 docs (singletons are not duplication)
    n_clusters = sum(
        n for size, n in zip(hist["cluster_size"], hist["n_clusters"]) if size >= 2
    )
    top = largest_clusters(docs, clusters, k=args.top).to_pylist()
    by_lang = dup_rate_by_group(docs, clusters, "lang").to_pylist()
    agree = assignment_agreement(clusters, exact_clusters(docs)).to_pylist()[0]
    print(
        json.dumps(
            {
                "n_docs": res.metrics.get("n_docs"),
                "n_clusters": n_clusters,
                "dedup_path": res.metrics.get("dedup_path"),
                "largest_clusters": top,
                "dup_rate_by_lang": by_lang,
                "vs_exact_only": agree,
            },
            default=str,
        )
    )
    return 0


def cmd_pack(args: argparse.Namespace) -> int:
    """Assign docs to greedy token-budget training sequences and write
    the (doc_id, bucket, pack_id, pack_pos, n_tokens) layout table."""
    _init_ray()
    import pyarrow.parquet as pq

    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.packing import pack_sequences

    docs = pages_to_docs(read_pages(_input_files(args.pages)))
    tbl = pack_sequences(docs, budget=args.budget, n_buckets=args.buckets)
    pq.write_table(tbl, args.out)
    n_packs = len(
        set(zip(tbl.column("bucket").to_pylist(), tbl.column("pack_id").to_pylist()))
    )
    print(json.dumps({"docs": tbl.num_rows, "packs": n_packs, "out": args.out}))
    return 0


def cmd_events(args: argparse.Namespace) -> int:
    """Event-table analytics: sessions | funnel | retention | wau over
    an events parquet file/dir."""
    _init_ray()
    import ray.data as rd

    ev = rd.read_parquet(args.events)
    if args.op == "sessions":
        from raydedup.stages.sessions import sessionize

        df = sessionize(ev, gap_s=args.gap).to_pandas()
        df = df.sort_values(["user_id", "session_id"]).head(args.top or len(df))
        for r in df.itertuples(index=False):
            print(f"{r.user_id}\t{r.session_id}\t{r.n_events}\t{r.sum_value_cents}")
    elif args.op == "funnel":
        from raydedup.stages.funnel import funnel

        tbl = funnel(ev, args.steps or ["view", "click", "purchase"])
        for s, et, n in zip(
            tbl.column("step").to_pylist(),
            tbl.column("event_type").to_pylist(),
            tbl.column("n_users").to_pylist(),
        ):
            print(f"{s}\t{et}\t{n}")
    elif args.op == "retention":
        from raydedup.stages.retention import retention

        tbl = retention(ev, period_s=args.period)
        for c, k, n in zip(
            tbl.column("cohort").to_pylist(),
            tbl.column("k").to_pylist(),
            tbl.column("n_users").to_pylist(),
        ):
            print(f"{c}\t{k}\t{n}")
    else:  # wau
        from raydedup.stages.active_users import rolling_active_users

        tbl = rolling_active_users(ev, window=args.window)
        for d, n in zip(
            tbl.column("d").to_pylist(), tbl.column("n_users").to_pylist()
        ):
            print(f"{d}\t{n}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    _init_ray()
    import ray.data as rd

    from raydedup.state.checkpoint import store_files
    from raydedup.stages.candidates import band_postings, band_size_stats

    sigs = rd.read_parquet(store_files(args.index, "signatures"), columns=["doc_id", "bands"])
    docs = rd.read_parquet(store_files(args.index, "docs"))
    cfg = _cfg_from_args(args)
    stats = {
        "n_docs": docs.count(),
        "n_signatures": sigs.count(),
        "band_index": band_size_stats(band_postings(sigs, cfg), cfg),
    }
    print(json.dumps(stats))
    return 0


def cmd_domains(args: argparse.Namespace) -> int:
    """Per-domain view of a pages dir: without --cap, print host stats
    (n_docs TAB total_chars TAB avg_chars TAB host, biggest hosts
    first); with --cap K, keep at most K docs per registered domain and
    write (domain, doc_id, rank) parquet to --out (or print the kept
    count)."""
    _init_ray()
    import pyarrow.compute as pa_c

    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.domains import cap_per_domain, domain_stats

    docs = pages_to_docs(read_pages(_input_files(args.pages)))

    def with_len(t):
        if t.num_rows == 0 or t.num_columns == 0:
            return t
        return t.append_column(
            "n_chars", pa_c.cast(pa_c.utf8_length(t.column("text")), "int64")
        )

    docs = docs.map_batches(with_len, batch_format="pyarrow")
    if args.cap is not None:
        kept = cap_per_domain(docs, k=args.cap, registered=not args.full_host)
        if args.out:
            kept.write_parquet(args.out)
            print(json.dumps({"out": args.out}))
        else:
            df = kept.to_pandas()
            n_domains = df["domain"].nunique() if len(df) else 0
            print(json.dumps({"kept_docs": len(df), "domains": n_domains}))
        return 0
    df = domain_stats(docs, registered=not args.full_host).to_pandas()
    if df.empty:
        return 0
    df = df.sort_values(["n_docs", "host"], ascending=[False, True])
    if args.top is not None:
        df = df.head(args.top)
    for r in df.itertuples(index=False):
        print(f"{r.n_docs}\t{r.total_chars}\t{r.avg_chars:.1f}\t{r.host}")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    """Crawl-snapshot diff: classify every url across two pages dirs as
    added/removed/changed/unchanged (digest = stable text hash). Prints
    per-status counts; --out writes the full (url, status, digests)
    parquet."""
    _init_ray()
    import numpy as np
    import pyarrow as pa

    from raydedup.hashing import hash_strings_u64
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.crawldiff import crawl_diff

    def side(path):
        docs = pages_to_docs(read_pages(_input_files(path)))

        def prep(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or t.num_columns == 0:
                return pa.table(
                    {
                        "url": pa.array([], pa.string()),
                        "digest": pa.array([], pa.int64()),
                    }
                )
            dig = hash_strings_u64(t.column("text").to_pylist(), mixed=True)
            return pa.table(
                {
                    "url": t.column("url"),
                    "digest": pa.array(dig.view(np.int64), pa.int64()),
                }
            )

        return docs.map_batches(prep, batch_format="pyarrow")

    if getattr(args, "content", False):
        # per-url text Jaccard between the two versions (drift report)
        from raydedup.sources.pages import pages_to_docs as p2d
        from raydedup.sources.pages import read_pages as rp
        from raydedup.stages.contentdrift import content_drift

        def docs_side(path):
            return p2d(rp(_input_files(path))).select_columns(["url", "text"])

        t = content_drift(docs_side(args.old), docs_side(args.new))
        changed = sum(1 for j in t.column("jaccard").to_pylist() if j < 1.0)
        print(
            json.dumps(
                {"urls": t.num_rows, "drifted": changed, "out": args.out}
            )
        )
        if args.out:
            import pyarrow.parquet as _pq

            os.makedirs(args.out, exist_ok=True)
            _pq.write_table(t, os.path.join(args.out, "drift.parquet"))
        return 0

    diff = crawl_diff(side(args.old), side(args.new))
    if args.out:
        diff.write_parquet(args.out)
    df = diff.to_pandas()
    counts = (
        df["status"].value_counts().to_dict() if len(df) else {}
    )
    print(json.dumps({"urls": len(df), "status": counts, "out": args.out}))
    return 0


def cmd_dupngrams(args: argparse.Namespace) -> int:
    """Inter-document repetition: print the docs whose distinct
    k-grams are most shared with other docs (dup_frac TAB n_dup TAB
    n_shingles TAB doc_id, most-duplicated first)."""
    _init_ray()
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.dupngrams import dup_ngram_fraction

    docs = pages_to_docs(read_pages(_input_files(args.pages)))
    df = dup_ngram_fraction(docs, k=args.k, min_docs=args.min_docs).to_pandas()
    if df.empty:
        return 0
    df = df.sort_values(["dup_frac", "doc_id"], ascending=[False, True])
    if args.top is not None:
        df = df.head(args.top)
    for r in df.itertuples(index=False):
        print(f"{r.dup_frac:.4f}\t{r.n_dup}\t{r.n_shingles}\t{r.doc_id}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """Resumable sharded export: write the extracted docs as hash-
    sharded, rank-shuffled parquet dirs + manifest; a re-run skips
    every shard already marked done."""
    _init_ray()
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.export import export_shards

    docs = pages_to_docs(read_pages(_input_files(args.pages)))
    print(json.dumps(export_shards(docs, args.out, n_shards=args.shards)))
    return 0


def cmd_resolve(args: argparse.Namespace) -> int:
    from raydedup.stages.extract import doc_ids_from_urls

    for url in args.urls:
        print(f"{url}\t{int(doc_ids_from_urls([url])[0])}")
    return 0


def cmd_load(args: argparse.Namespace) -> int:
    _init_ray()
    from raydedup.pipelines.query import load_index

    out = load_index(
        args.index, args.src_index, _cfg_from_args(args), force=args.force
    )
    print(json.dumps(out))
    return 0


def _docs_with_host(pages_glob: str):
    """pages parquet -> docs Dataset with a ``host`` column from url."""
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.domains import add_host

    files = _input_files(pages_glob)
    return add_host(pages_to_docs(read_pages(files)), url_col="url", out_col="host")


def cmd_overlap(args: argparse.Namespace) -> int:
    """Cross-group shingle-overlap matrix (exact pairwise Jaccard of
    each group's distinct 5-gram sets), grouped by url host."""
    _init_ray()
    from raydedup.stages.sourceoverlap import source_overlap

    t = source_overlap(_docs_with_host(args.pages), k=args.k, source_col="host")
    for r in t.to_pylist():
        print(
            f"{r['src_a']}\t{r['src_b']}\t{r['n_common']}/{r['n_a']}|{r['n_b']}"
            f"\t{r['jaccard']:.4f}"
        )
    return 0


def cmd_hostlines(args: argparse.Namespace) -> int:
    """Per-host boilerplate lines: with --out, strip lines occurring in
    >= num/den of the host's docs and write cleaned parquet; without,
    print the per-host template lines."""
    _init_ray()
    from raydedup.stages.hostlines import host_hot_lines, trim_host_lines

    docs = _docs_with_host(args.pages)
    kw = dict(group_col="host", num=args.num, den=args.den, min_docs=args.min_docs)
    if args.out:
        import pyarrow.parquet as pq

        n = _write_parquet_counted(trim_host_lines(docs, **kw), args.out)
        print(json.dumps({"docs": n, "out": args.out}))
        return 0
    t = host_hot_lines(docs, **kw)
    for r in t.to_pylist():
        print(f"{r['group']}\t{r['n_docs']}/{r['g_docs']}\t{r['line']}")
    return 0


def cmd_mix(args: argparse.Namespace) -> int:
    """Temperature (alpha=0.5) source-balanced sampling by host; prints
    per-host kept counts, or writes the sample with --out."""
    _init_ray()
    from raydedup.stages.sampling import temperature_sample

    docs = _docs_with_host(args.pages)
    samp = temperature_sample(
        docs, group_col="host", scale_num=args.scale_num, scale_den=args.scale_den
    )
    if args.out:
        import pyarrow.parquet as pq

        # count from the written files' metadata — a .count() on the
        # Dataset would re-execute the whole sampling pass
        n = _write_parquet_counted(samp, args.out)
        print(json.dumps({"docs": n, "out": args.out}))
        return 0
    df = samp.select_columns(["host"]).to_pandas()
    for host, n in df.groupby("host").size().sort_index().items():
        print(f"{host}\t{n}")
    return 0


def cmd_stitch(args: argparse.Namespace) -> int:
    """Directed page-continuation pairs: a's last k tokens == b's first
    k tokens (doc ids; resolve urls with the resolve verb)."""
    _init_ray()
    from raydedup.stages.stitch import stitch_pairs

    t = stitch_pairs(_docs_with_host(args.pages), k=args.k)
    for a, b in zip(t.column("a").to_pylist(), t.column("b").to_pylist()):
        print(f"{a}\t{b}")
    return 0


def cmd_b1dedup(args: argparse.Namespace) -> int:
    """Near-dup pairs off the 16 B/doc 1-bit signature store (banded
    Hamming LSH; cheaper store, coarser estimator than the flagship)."""
    _init_ray()
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.b1dedup import b1_neardup_pairs

    t = b1_neardup_pairs(
        pages_to_docs(read_pages(_input_files(args.pages))),
        _cfg_from_args(args),
        hamming_max=args.hamming_max,
    )
    for a, b, h in zip(
        t.column("a").to_pylist(), t.column("b").to_pylist(), t.column("hamming").to_pylist()
    ):
        print(f"{a}\t{b}\t{h}")
    return 0


def cmd_normdup(args: argparse.Namespace) -> int:
    """Exact duplicates modulo typographic normalization."""
    _init_ray()
    from raydedup.stages.textnorm import normalized_dup_pairs

    t = normalized_dup_pairs(_docs_with_host(args.pages))
    for a, b in zip(t.column("a").to_pylist(), t.column("b").to_pylist()):
        print(f"{a}\t{b}")
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    """DSIR importance-resampling weights: per-doc whole-bit target/raw
    log-ratio over a pages dir; --out writes per-doc verdicts parquet,
    else a keep-rate summary prints."""
    _init_ray()
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.dsir import dsir_weights

    out = dsir_weights(
        pages_to_docs(read_pages(_input_files(args.pages))),
        target_col=args.target_col,
        target_value=args.target_value,
    )
    if args.out:
        print(json.dumps({"docs": _write_parquet_counted(out, args.out), "out": args.out}))
        return 0
    df = out.to_pandas()
    print(
        json.dumps(
            {
                "docs": len(df),
                "kept": int(df["keep"].sum()),
                "mean_weight_bits": round(float(df["weight_bits"].mean()), 3),
            }
        )
    )
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    """Naive-Bayes train+score over a pages dir (deterministic modulo
    split); --out writes per-doc predictions, else accuracy prints."""
    _init_ray()
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.nbayes import nb_classify

    out = nb_classify(
        pages_to_docs(read_pages(_input_files(args.pages))),
        class_col=args.class_col,
        test_mod=args.test_mod,
    )
    if args.out:
        print(json.dumps({"docs": _write_parquet_counted(out, args.out), "out": args.out}))
        return 0
    df = out.to_pandas()
    acc = float(df["correct"].mean()) if len(df) else 0.0
    print(json.dumps({"test_docs": len(df), "accuracy": round(acc, 4)}))
    return 0


def cmd_pplbucket(args: argparse.Namespace) -> int:
    """CCNet perplexity partition: per-lang head/middle/tail buckets
    under the whole-bit bigram LM; --out writes per-doc rows, else the
    per-bucket doc counts print."""
    _init_ray()
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.lm import perplexity_buckets

    files = _input_files(args.pages)
    out = perplexity_buckets(
        pages_to_docs(read_pages(files)), n_buckets=args.buckets, model=args.model
    )
    if args.out:
        print(json.dumps({"docs": _write_parquet_counted(out, args.out), "out": args.out}))
        return 0
    df = out.to_pandas()
    sizes = df.groupby("ppl_bucket").size().to_dict()
    print(json.dumps({"docs": len(df), "buckets": {str(k): int(v) for k, v in sorted(sizes.items())}}))
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    """Text -> embedding production (stages/embed.py EmbedKernel): the
    frozen hashed-BoW random-projection model over a pages dir; --out
    writes the canonical (vec_id, embedding) parquet consumable by
    semdedup/embstore/protoprune, else summary stats print."""
    _init_ray()
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.embed import embed_docs

    files = _input_files(args.pages)
    out = embed_docs(
        pages_to_docs(read_pages(files)), dim=args.dim, n_buckets=args.buckets
    )
    if args.out:
        print(json.dumps({"vectors": _write_parquet_counted(out, args.out), "out": args.out}))
        return 0
    df = out.to_pandas()
    import numpy as np

    mat = np.stack(df["embedding"].to_numpy()) if len(df) else np.zeros((0, args.dim))
    print(
        json.dumps(
            {
                "vectors": len(df),
                "dim": int(mat.shape[1]) if len(df) else args.dim,
                "zero_vectors": int((~mat.any(axis=1)).sum()) if len(df) else 0,
            }
        )
    )
    return 0


def cmd_semdedup(args: argparse.Namespace) -> int:
    """SemDeDup over an embeddings parquet (vec_id, embedding):
    bucketed within-cluster cosine pruning; prints keep stats or
    writes per-vector verdicts with --out."""
    _init_ray()
    import ray.data as rd

    from raydedup.stages.semdedup import semdedup

    out = semdedup(
        rd.read_parquet(_input_files(args.embeddings)),
        threshold=args.threshold,
        n_bucket_bits=args.bits,
    )
    if args.out:
        print(json.dumps({"vectors": _write_parquet_counted(out, args.out), "out": args.out}))
        return 0
    df = out.to_pandas()
    print(
        json.dumps(
            {
                "vectors": len(df),
                "kept": int(df["keep"].sum()),
                "pruned": int((df["keep"] == 0).sum()),
            }
        )
    )
    return 0


def cmd_protoprune(args: argparse.Namespace) -> int:
    """Prototypicality pruning over an embeddings parquet (vec_id,
    embedding, label): drop vectors too close to their own label
    centroid."""
    _init_ray()
    import ray.data as rd

    from raydedup.stages.embsketch import prototype_prune

    files = _input_files(args.embeddings)
    out = prototype_prune(rd.read_parquet(files), threshold=args.threshold)
    if args.out:
        print(json.dumps({"vectors": _write_parquet_counted(out, args.out), "out": args.out}))
        return 0
    df = out.to_pandas()
    print(
        json.dumps(
            {"vectors": len(df), "kept": int(df["keep"].sum()),
             "pruned": int((df["keep"] == 0).sum())}
        )
    )
    return 0


def cmd_embstore(args: argparse.Namespace) -> int:
    """Build a persisted IVF embedding index (centroid-partitioned
    parquet + manifest) from an embeddings parquet."""
    _init_ray()
    import ray.data as rd

    from raydedup.pipelines.embindex import build_emb_index

    files = _input_files(args.embeddings)
    man = build_emb_index(
        rd.read_parquet(files), args.index, n_centroids=args.centroids
    )
    print(json.dumps({k: man[k] for k in ("n_vectors", "dim", "n_centroids")}))
    return 0


def cmd_embadd(args: argparse.Namespace) -> int:
    """Fold a new embeddings shard into an existing index (frozen
    centroids; already-present vec_ids are skipped)."""
    _init_ray()
    import ray.data as rd

    from raydedup.pipelines.embindex import add_to_emb_index

    files = _input_files(args.embeddings)
    print(json.dumps(add_to_emb_index(args.index, rd.read_parquet(files))))
    return 0


def cmd_embdelete(args: argparse.Namespace) -> int:
    """Remove vectors (by vec_id) from an embedding index."""
    _init_ray()
    from raydedup.pipelines.embindex import delete_from_emb_index

    print(json.dumps(delete_from_emb_index(args.index, [int(v) for v in args.vec_ids])))
    return 0


def cmd_embcompact(args: argparse.Namespace) -> int:
    """Merge each embedding-index partition's accumulated fold parts
    back to one file (index maintenance)."""
    _init_ray()
    from raydedup.pipelines.embindex import compact_emb_index

    print(json.dumps(compact_emb_index(args.index)))
    return 0


def cmd_embquery(args: argparse.Namespace) -> int:
    """Top-k cosine matches from a persisted embedding index; query
    vectors come from an embeddings parquet (all rows, or --limit)."""
    _init_ray()
    import numpy as np
    import pyarrow.parquet as pq

    from raydedup.pipelines.embindex import query_emb_index

    files = _input_files(args.queries)
    import pyarrow as pa

    t = pa.concat_tables([pq.read_table(f) for f in files])
    df = t.to_pandas().sort_values("vec_id")
    if args.limit:
        df = df.head(args.limit)
    if not len(df):
        print("q,vec_id,cosine,rank")
        return 0
    Q = np.stack([np.asarray(v, dtype=np.float64) for v in df["embedding"]])
    out = query_emb_index(
        args.index,
        Q,
        query_ids=df["vec_id"].to_numpy(),
        k=args.top_k,
        n_probe=None if args.probe <= 0 else args.probe,
    )
    print(out.to_csv(index=False))
    return 0


def cmd_delete(args: argparse.Namespace) -> int:
    from raydedup.pipelines.query import delete_from_index

    print(json.dumps(delete_from_index(args.index, args.urls)))
    return 0


def cmd_clear(args: argparse.Namespace) -> int:
    if os.path.exists(os.path.join(args.index, "manifest.json")):
        shutil.rmtree(args.index)
        print(f"cleared {args.index}")
        return 0
    print(f"refusing to delete {args.index}: no manifest.json (not an index dir)")
    return 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="raydedup", description=__doc__)
    sub = p.add_subparsers(dest="verb", required=True)

    s = sub.add_parser("store", help="build index from pages parquet")
    s.add_argument("pages")
    s.add_argument("index")
    s.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a DedupConfig key (repeatable)")
    s.set_defaults(fn=cmd_store)

    s = sub.add_parser("query", help="match query pages against index")
    s.add_argument("index")
    s.add_argument("pages")
    s.add_argument("--top-k", type=int, default=10)
    s.add_argument("--segments", action="store_true",
                   help="append matched-segment start/stop columns per hit")
    s.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a DedupConfig key (repeatable)")
    s.set_defaults(fn=cmd_query)

    s = sub.add_parser("monitor", help="windowed containment of a text file")
    s.add_argument("index")
    s.add_argument("textfile")
    s.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a DedupConfig key (repeatable)")
    s.set_defaults(fn=cmd_monitor)

    s = sub.add_parser("same", help="direct two-file similarity check")
    s.add_argument("a")
    s.add_argument("b")
    s.set_defaults(fn=cmd_same)

    s = sub.add_parser("dedup", help="full dedup + clustering (resumable)")
    s.add_argument("pages")
    s.add_argument("checkpoint")
    s.add_argument("--no-containment", action="store_true")
    s.add_argument("--substring", action="store_true",
                   help="also run the exact full-substring pass over "
                        "cluster representatives (suffix-array analog)")
    s.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a DedupConfig key (repeatable)")
    s.set_defaults(fn=cmd_dedup)

    s = sub.add_parser(
        "increment",
        help="fold new pages into an existing index + frozen clusters",
    )
    s.add_argument("index")
    s.add_argument("clusters")
    s.add_argument("pages")
    s.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a DedupConfig key (repeatable)")
    s.set_defaults(fn=cmd_increment)

    s = sub.add_parser(
        "watch",
        help="watch a folder and fold arriving pages shards continuously "
             "(the reference's long-running monitor loop, frozen-base folds)",
    )
    s.add_argument("watch_dir")
    s.add_argument("index")
    s.add_argument("clusters")
    s.add_argument("--poll-interval", type=float, default=2.0)
    s.add_argument("--max-waves", type=int, default=None)
    s.add_argument("--max-idle-polls", type=int, default=None)
    s.add_argument("--stop-file", default=None,
                   help="exit when this path appears")
    s.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a DedupConfig key (repeatable)")
    s.set_defaults(fn=cmd_watch)

    s = sub.add_parser(
        "warc2parquet",
        help="convert WARC shards (plain/.gz) into canonical pages parquet",
    )
    s.add_argument("warc", help="WARC file or dir of *.warc / *.warc.gz")
    s.add_argument("out")
    s.add_argument("--lang", default="", help="lang column value (default empty)")
    s.set_defaults(fn=cmd_warc2parquet)

    s = sub.add_parser("curate", help="quality/decontaminate/dedup/sample funnel")
    s.add_argument("pages")
    s.add_argument("out", help="output dir for the (doc_id, status) parquet")
    s.add_argument("--eval-pages", default=None,
                   help="pages parquet of the eval corpus to decontaminate against")
    s.add_argument("--min-tokens", type=int, default=20)
    s.add_argument("--max-punct-ratio", type=float, default=0.10)
    s.add_argument("--max-digit-ratio", type=float, default=0.20)
    s.add_argument("--sample-rate", type=float, default=1.0)
    s.add_argument("--near", action="store_true",
                   help="near-dup clustering instead of exact-only dedup")
    s.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a DedupConfig key (repeatable)")
    s.set_defaults(fn=cmd_curate)

    s = sub.add_parser(
        "load", help="import another index's docs+signatures (skip present ids)"
    )
    s.add_argument("index", help="destination index dir")
    s.add_argument("src_index", help="source index dir (docs/ + signatures/)")
    s.add_argument("--force", action="store_true",
                   help="import even when the source config hash differs")
    s.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a DedupConfig key (repeatable)")
    s.set_defaults(fn=cmd_load)

    s = sub.add_parser("config", help="print the configuration in use")
    s.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a DedupConfig key (repeatable)")
    s.set_defaults(fn=cmd_config)

    s = sub.add_parser("print", help="print fingerprints for text files")
    s.add_argument("files", nargs="+")
    s.add_argument("--fp-only", action="store_true",
                   help="print only winnowed containment fingerprints")
    s.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a DedupConfig key (repeatable)")
    s.set_defaults(fn=cmd_print)

    s = sub.add_parser("metadata", help="print stored metadata for urls")
    s.add_argument("index")
    s.add_argument("urls", nargs="+")
    s.set_defaults(fn=cmd_metadata)

    s = sub.add_parser("passages", help="hot boilerplate k-grams across a pages dir")
    s.add_argument("pages")
    s.add_argument("--min-docs", type=int, default=3)
    s.add_argument("--k", type=int, default=5)
    s.add_argument("--top", type=int, default=None)
    s.set_defaults(fn=cmd_passages)

    s = sub.add_parser("lines", help="boilerplate lines: list (default) or strip with --out")
    s.add_argument("pages")
    s.add_argument("--min-docs", type=int, default=2)
    s.add_argument("--out", default=None, help="write line-deduped docs parquet here")
    s.add_argument("--top", type=int, default=None)
    s.set_defaults(fn=cmd_lines)

    s = sub.add_parser("normalize", help="typographic text normalization (parquet out or summary)")
    s.add_argument("pages")
    s.add_argument("--out", default=None, help="write normalized docs parquet here")
    s.set_defaults(fn=cmd_normalize)

    s = sub.add_parser("quality", help="Gopher/C4 quality-filter verdicts (parquet out or summary)")
    s.add_argument("pages")
    s.add_argument("--out", default=None, help="write per-doc verdicts parquet here")
    s.set_defaults(fn=cmd_quality)

    s = sub.add_parser("search", help="docs containing the query terms (distributed grep)")
    s.add_argument("pages")
    s.add_argument("terms", nargs="+")
    s.add_argument("--mode", choices=["and", "or"], default="and")
    s.add_argument("--top", type=int, default=None)
    s.set_defaults(fn=cmd_search)

    s = sub.add_parser(
        "export", help="resumable sharded corpus export (parquet dirs + manifest)"
    )
    s.add_argument("pages")
    s.add_argument("out")
    s.add_argument("--shards", type=int, default=16)
    s.set_defaults(fn=cmd_export)

    s = sub.add_parser("domains", help="per-domain stats, or --cap K docs per domain")
    s.add_argument("pages")
    s.add_argument("--cap", type=int, default=None)
    s.add_argument("--out", default=None)
    s.add_argument("--top", type=int, default=None)
    s.add_argument(
        "--full-host", action="store_true", help="group by full host, not eTLD+1"
    )
    s.set_defaults(fn=cmd_domains)

    s = sub.add_parser("diff", help="crawl-snapshot diff between two pages dirs")
    s.add_argument("old")
    s.add_argument("new")
    s.add_argument("--out", default=None)
    s.add_argument(
        "--content",
        action="store_true",
        help="per-url text Jaccard drift instead of digest statuses",
    )
    s.set_defaults(fn=cmd_diff)

    s = sub.add_parser("dupngrams", help="per-doc duplicated-k-gram fraction")
    s.add_argument("pages")
    s.add_argument("--k", type=int, default=5)
    s.add_argument("--min-docs", type=int, default=2)
    s.add_argument("--top", type=int, default=None)
    s.set_defaults(fn=cmd_dupngrams)

    s = sub.add_parser("chunk", help="split pages into fixed-token chunks (parquet out)")
    s.add_argument("pages")
    s.add_argument("out")
    s.add_argument("--tokens", type=int, default=128)
    s.add_argument("--overlap", type=int, default=0)
    s.set_defaults(fn=cmd_chunk)

    s = sub.add_parser("scrub", help="passage-level near-dedup scrub (parquet out)")
    s.add_argument("pages")
    s.add_argument("out")
    s.add_argument("--tokens", type=int, default=32)
    s.add_argument("--no-containment", action="store_true")
    s.set_defaults(fn=cmd_scrub)

    s = sub.add_parser("report", help="duplication inspection report (worst offenders, rates)")
    s.add_argument("pages")
    s.add_argument("--top", type=int, default=10)
    s.add_argument("--no-containment", action="store_true")
    s.add_argument("--set", action="append")
    s.set_defaults(fn=cmd_report)

    s = sub.add_parser("shuffle", help="deterministic shuffle layout (doc_id,pos,shard)")
    s.add_argument("pages")
    s.add_argument("out")
    s.add_argument("--shards", type=int, default=16)
    s.add_argument("--seed", type=int, default=None)
    s.set_defaults(fn=cmd_shuffle)

    s = sub.add_parser("pack", help="greedy token-budget sequence packing (parquet out)")
    s.add_argument("pages")
    s.add_argument("out")
    s.add_argument("--budget", type=int, default=2048)
    s.add_argument("--buckets", type=int, default=64)
    s.set_defaults(fn=cmd_pack)

    s = sub.add_parser("events", help="event analytics: sessions|funnel|retention|wau")
    s.add_argument("op", choices=["sessions", "funnel", "retention", "wau"])
    s.add_argument("events", help="events parquet file or directory")
    s.add_argument("--gap", type=int, default=1800, help="session gap seconds")
    s.add_argument("--steps", nargs="+", default=None, help="funnel event types")
    s.add_argument("--period", type=int, default=7 * 86400, help="retention period seconds")
    s.add_argument("--window", type=int, default=7, help="wau window days")
    s.add_argument("--top", type=int, default=None)
    s.set_defaults(fn=cmd_events)

    s = sub.add_parser("stats", help="index statistics")
    s.add_argument("index")
    s.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a DedupConfig key (repeatable)")
    s.set_defaults(fn=cmd_stats)

    s = sub.add_parser("resolve", help="url -> doc_id")
    s.add_argument("urls", nargs="+")
    s.set_defaults(fn=cmd_resolve)

    s = sub.add_parser("overlap", help="cross-host shingle-overlap matrix")
    s.add_argument("pages")
    s.add_argument("--k", type=int, default=5)
    s.set_defaults(fn=cmd_overlap)

    s = sub.add_parser("hostlines", help="per-host boilerplate lines (report/trim)")
    s.add_argument("pages")
    s.add_argument("--out")
    s.add_argument("--num", type=int, default=1)
    s.add_argument("--den", type=int, default=2)
    s.add_argument("--min-docs", type=int, default=2, dest="min_docs")
    s.set_defaults(fn=cmd_hostlines)

    s = sub.add_parser("mix", help="temperature (sqrt) source-balanced sample by host")
    s.add_argument("pages")
    s.add_argument("--out")
    s.add_argument("--scale-num", type=int, default=1, dest="scale_num")
    s.add_argument("--scale-den", type=int, default=1, dest="scale_den")
    s.set_defaults(fn=cmd_mix)

    s = sub.add_parser("stitch", help="tail/head k-token page-continuation pairs")
    s.add_argument("pages")
    s.add_argument("--k", type=int, default=8)
    s.set_defaults(fn=cmd_stitch)

    s = sub.add_parser("normdup", help="exact duplicates modulo normalization")
    s.add_argument("pages")
    s.set_defaults(fn=cmd_normdup)

    s = sub.add_parser("b1dedup", help="near-dup pairs via 1-bit minhash store")
    s.add_argument("pages")
    s.add_argument("--hamming-max", type=int, default=12, dest="hamming_max")
    s.add_argument("--set", action="append", metavar="KEY=VALUE")
    s.set_defaults(fn=cmd_b1dedup)

    s = sub.add_parser("select", help="DSIR importance weights / keep verdicts")
    s.add_argument("pages")
    s.add_argument("--target-col", default="lang", dest="target_col")
    s.add_argument("--target-value", default="en", dest="target_value")
    s.add_argument("--out", default=None, help="write per-doc parquet here")
    s.set_defaults(fn=cmd_select)

    s = sub.add_parser("classify", help="Naive-Bayes train+score (modulo split)")
    s.add_argument("pages")
    s.add_argument("--class-col", default="lang", dest="class_col")
    s.add_argument("--test-mod", type=int, default=5, dest="test_mod")
    s.add_argument("--out", default=None, help="write per-doc predictions here")
    s.set_defaults(fn=cmd_classify)

    s = sub.add_parser("pplbucket", help="CCNet per-lang perplexity head/middle/tail")
    s.add_argument("pages")
    s.add_argument("--buckets", type=int, default=3)
    s.add_argument(
        "--model", choices=("bigram", "trigram"), default="bigram",
        help="whole-bit LM order for the score",
    )
    s.add_argument("--out", default=None, help="write per-doc buckets here")
    s.set_defaults(fn=cmd_pplbucket)

    s = sub.add_parser(
        "embed", help="produce the embeddings table from pages (hashed-BoW projection)"
    )
    s.add_argument("pages")
    s.add_argument("--out", default=None, help="write (vec_id, embedding) parquet here")
    s.add_argument("--dim", type=int, default=64)
    s.add_argument("--buckets", type=int, default=256, help="hashed vocabulary size")
    s.set_defaults(fn=cmd_embed)

    s = sub.add_parser("semdedup", help="semantic dedup over an embeddings parquet")
    s.add_argument("embeddings")
    s.add_argument("--threshold", type=float, default=0.4)
    s.add_argument("--bits", type=int, default=4, help="semantic-bucket bits")
    s.add_argument("--out", default=None, help="write per-vector verdicts here")
    s.set_defaults(fn=cmd_semdedup)

    s = sub.add_parser("protoprune", help="prototypicality pruning over embeddings")
    s.add_argument("embeddings")
    s.add_argument("--threshold", type=float, default=0.2)
    s.add_argument("--out", default=None, help="write per-vector verdicts here")
    s.set_defaults(fn=cmd_protoprune)

    s = sub.add_parser("embstore", help="build a persisted IVF embedding index")
    s.add_argument("embeddings")
    s.add_argument("index")
    s.add_argument("--centroids", type=int, default=None)
    s.set_defaults(fn=cmd_embstore)

    s = sub.add_parser("embadd", help="fold a new shard into an embedding index")
    s.add_argument("index")
    s.add_argument("embeddings")
    s.set_defaults(fn=cmd_embadd)

    s = sub.add_parser("embdelete", help="remove vectors (by id) from an embedding index")
    s.add_argument("index")
    s.add_argument("vec_ids", nargs="+")
    s.set_defaults(fn=cmd_embdelete)

    s = sub.add_parser("embcompact", help="merge an embedding index's fold parts")
    s.add_argument("index")
    s.set_defaults(fn=cmd_embcompact)

    s = sub.add_parser("embquery", help="top-k cosine matches from an embedding index")
    s.add_argument("index")
    s.add_argument("queries", help="embeddings parquet holding the query vectors")
    s.add_argument("--top-k", type=int, default=10, dest="top_k")
    s.add_argument("--probe", type=int, default=4, help="<=0 for exact full probe")
    s.add_argument("--limit", type=int, default=None, help="first N query vectors")
    s.set_defaults(fn=cmd_embquery)

    s = sub.add_parser("delete", help="remove docs (by url) from an index")
    s.add_argument("index")
    s.add_argument("urls", nargs="+")
    s.set_defaults(fn=cmd_delete)

    s = sub.add_parser("clear", help="delete an index/checkpoint dir")
    s.add_argument("index")
    s.set_defaults(fn=cmd_clear)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    finally:
        _shutdown_ray()


if __name__ == "__main__":
    raise SystemExit(main())
