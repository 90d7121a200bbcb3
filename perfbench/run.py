"""raydedup benchmark: end-to-end metrics per workload, or per-layer
metrics from a separate traced run.

    python3 perfbench/run.py --workload dedup-web --seed 1 --seconds 12 --trace 0

Workloads (``workloads.py``): ``dedup-web`` (``run_dedup_auto`` jobs on
one web corpus, routed to the scale engine) and ``index-query``
(``build_index``, then ``query_index`` batches). Load comes from this
one process and thread, as a closed loop with one operation in flight,
against a private local Ray cluster with ``num_cpus=4``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the host
fingerprint, every operation and its check. Progress lines go to
stderr. All scratch (inputs, index, Ray temp) lives under
``.perfbench/`` at the repository root and is removed at exit, except
the span file of a traced run and the marker that the checkout has had
its first run; when the checkout path is too long for Ray's socket
names, the Ray temp dir is a fresh dir in the system temp dir instead.
"""

from __future__ import annotations

import argparse
import glob
import json
import multiprocessing
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

import cluster
import inputs
import layers
from workloads import HIT_EDIT_P, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 2
QUERY_PROBE_DOCS = 100
# a run must end within 180 s; leave room for the failure record and reaping
RUN_DEADLINE_S = 170.0
# the first run in a fresh checkout meets cold caches (bytecode, the page
# cache for Ray's binaries and the package) and may take up to 900 s, so
# it gets a longer run deadline and stretched step deadlines
FIRST_RUN_DEADLINE_S = 840.0
FIRST_RUN_SLACK = 5.0
# written after a run completes; its absence marks the first run
READY_MARK = os.path.join(ROOT, ".perfbench", "ready")
# every Ray temp dir of this run, so a hang can still clean them all up
RAY_TMPS: list[str] = []
T0 = time.perf_counter()


def note(msg: str) -> None:
    """Progress on stderr, so a stopped run shows how far it got."""
    print(f"perfbench: {time.perf_counter() - T0:7.1f} s {msg}", file=sys.stderr, flush=True)


def declared(section: str, values: dict) -> dict:
    """``values`` as result metrics, in the order and with the units
    BENCHMARK.json declares for ``section``; a missing one is an error."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)[section]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def _ray_temp_dir(tag: str = "") -> str:
    """Private, short Ray temp dir: inside the checkout when the path is
    short enough for Ray's socket names, else a fresh dir in the system
    temp dir."""
    own = os.path.join(ROOT, ".perfbench", f"r{os.getpid()}{tag}")
    if len(own) <= cluster.MAX_RAY_TEMP_LEN:
        os.makedirs(own)
    else:
        own = tempfile.mkdtemp(prefix="pb")
    RAY_TMPS.append(own)
    return own


class Run:
    """Counts and metrics so far, so a hang can still be reported."""

    def __init__(self, args) -> None:
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.metrics: dict = {}
        self.context: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    def emit(self, correct: bool) -> None:
        self.context["failed_frac"] = self.failed / max(1, self.attempted)
        print(json.dumps(self.context, default=str), flush=True)
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": max(1, self.attempted),
                    "failed": self.failed,
                    "metrics": self.metrics,
                }
            ),
            flush=True,
        )

    def on_hang(self, where: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.context["hang"] = where
        self.emit(False)


def run_op(run: Run, wd, wl, kind: str, fn) -> dict:
    """One timed operation, its latency from the call until the result is
    materialized; exceptions count as failed operations."""
    wd.arm(kind, wl.op_deadline_s)
    t0 = time.perf_counter()
    try:
        n_docs, result = fn()
        error = None
    except Exception as e:  # noqa: BLE001 - any failure is a failed operation
        n_docs, result, error = 0, None, f"{type(e).__name__}: {e}"
    rec = {"kind": kind, "s": time.perf_counter() - t0, "docs": n_docs, "result": result}
    wd.disarm()
    if error:
        rec["error"] = error
    run.attempted += 1
    return rec


def grade(run: Run, wl, records: list[dict]) -> None:
    """Output checks, after the timed phase."""
    for r in records:
        result = r.pop("result")
        r["check"] = wl.check(r["kind"], result) if "error" not in r else {"ok": False}
        run.failed += not r["check"]["ok"]


def pooled_recall(records: list[dict]) -> float:
    found = sum(r["check"].get("found", 0) for r in records)
    expected = sum(r["check"].get("expected", 0) for r in records)
    return found / expected if expected else 1.0


def setup(wl, ray_tmp: str, conn=None) -> float:
    """Ray start plus one untimed warm-up operation, timed. Given ``conn``
    (in a child process) it stops the cluster again and sends the time."""
    t0 = time.perf_counter()
    cluster.start(ray_tmp)
    wl.warmup()
    dt = time.perf_counter() - t0
    if conn is not None:
        cluster.stop(ray_tmp)
        conn.send(dt)
    return dt


def setup_in_child(wl, tag: str) -> float:
    """One set-up in a fresh process, as a user's new session would be. A
    second ``ray.init`` in one process could meet ObjectRefs left over
    from the first session."""
    ray_tmp = _ray_temp_dir(tag)
    ctx = multiprocessing.get_context("spawn")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=setup, args=(wl, ray_tmp, send))
    child.start()
    try:
        return recv.recv()
    finally:
        child.join()
        cluster.reap(ray_tmp)
        shutil.rmtree(ray_tmp, ignore_errors=True)


def end_to_end(run: Run, wl, wd, seconds: float, ray_tmp: str) -> None:
    shm0 = cluster.StoreSampler.used_bytes()
    wd.arm("setup", 60 * SETUPS)
    note("setting up")
    setups = [setup_in_child(wl, f"s{i}") for i in range(SETUPS - 1)]
    setups.append(setup(wl, ray_tmp))
    wd.disarm()
    note(f"set-ups {', '.join(f'{x:.1f}' for x in setups)} s")
    run.context["setups_s"] = setups
    records: list[dict] = []
    with cluster.StoreSampler() as store:
        t_start = time.perf_counter()
        for kind, fn in wl.ops():
            if time.perf_counter() - t_start >= seconds and len(records) >= wl.min_ops:
                break
            records.append(run_op(run, wd, wl, kind, fn))
            note(f"{kind} {records[-1]['s']:.2f} s")
    run.context["timed_s"] = time.perf_counter() - t_start
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    grade(run, wl, records)
    rate = [r for r in records if r["kind"] == wl.rate_kind]
    lat = [r["s"] for r in records if r["kind"] == wl.latency_kind]
    run.metrics = declared(
        "end_to_end",
        {
            "setup_s": statistics.median(setups),
            "docs_per_s": sum(r["docs"] for r in rate) / sum(r["s"] for r in rate),
            "op_s_p50": statistics.median(lat),
            "recall": pooled_recall(records),
            "driver_rss_mib": rss_mib,
        },
    )
    # context only: the /dev/shm peak moved up to 25% between seeds
    run.context["peak_store_mib"] = (store.peak - shm0) / 2**20
    run.context["host"] = layers.host_fingerprint()
    run.context["ops"] = records
    run.context["false_merges"] = sum(r["check"].get("false_merges", 0) for r in records)
    run.context["tail"] = (
        f"not reported: {len(lat)} latency samples, a tail percentile needs >= 10 beyond it"
    )


def traced(run: Run, wl, wd, ray_tmp: str) -> None:
    import ray
    from raydedup.pipelines.dedup_scale import _auto_buckets

    wd.arm("setup", 60)
    setup(wl, ray_tmp)
    wd.disarm()
    tr = layers.Tracer()
    ops = wl.ops()
    records = []
    # untraced operations up to and including one of the latency kind
    for kind, fn in ops:
        records.append(run_op(run, wd, wl, kind, fn))
        if kind == wl.latency_kind:
            break
    untraced_s = records[-1]["s"]
    kind, fn = next(ops)
    tr.op = 1
    with tr.span("op") as op_span:
        records.append(run_op(run, wd, wl, kind, fn))
    job_s = op_span["end"] - op_span["start"]
    grade(run, wl, records)

    corpus, miss = wl.corpus, wl.miss
    wd.arm("replay", 120)
    with tr.span("replay.dedup"):
        n_docs, m = layers.replay_dedup(tr, corpus["files"], wl.cfg)
    batch = inputs.make_query_batches(
        corpus, miss, 1, QUERY_PROBE_DOCS, run.args.seed, HIT_EDIT_P, wl.cfg.shingle_k
    )[0]
    index_dir = os.path.join(wl.work, "index-replay")
    with tr.span("replay.query"):
        m.update(layers.replay_query(tr, corpus["pages"], batch, index_dir, wl.cfg))
    m.update(layers.exchange_probe(tr, m["candidates.postings"], _auto_buckets(n_docs), run.args.seed))
    wd.disarm()
    m.update(layers.kernel_probes(inputs.read_pages_table(corpus), wl.cfg))
    m.update(layers.host_fingerprint())
    cpus = ray.cluster_resources()["CPU"]
    sec = tr.seconds
    m.update(
        {
            "sources.stage_s": sec("sources.stage"),
            "framework.map_floor_s": sec("framework.map_floor"),
            "signatures.stage_s": sec("signatures.stage"),
            "signatures.efficiency": (n_docs / sec("signatures.stage"))
            / (m["signatures.kernel_docs_per_s"] * cpus),
            "candidates.stage_s": sec("candidates.stage"),
            "verify.stage_s": sec("verify.stage"),
            "containment.stage_s": sec("containment.stage"),
            "cluster.stage_s": sec("cluster.stage"),
            "index.store_s": sec("index.store"),
            "query.sig_s": sec("query.sig"),
            "query.index_scan_s": sec("query.index_scan"),
            "query.hit_s": sec("query.hit"),
            "query.miss_s": sec("query.miss"),
            "pipeline.job_s": job_s,
            "trace.overhead_frac": job_s / untraced_s - 1,
        }
    )
    layer_sum = sum(sec(n) for n in wl.layer_spans)
    m["pipeline.layer_sum_s"] = layer_sum
    m["pipeline.overlap_ratio"] = layer_sum / job_s
    engines = [r["check"].get("engine") for r in records]
    m["pipeline.scale_jobs"] = engines.count("scale")
    m["pipeline.base_jobs"] = engines.count("base")
    run.metrics = declared("per_layer", m)
    run.context["ops"] = records
    trace_dir = os.path.join(ROOT, ".perfbench", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, f"{run.args.workload}-seed{run.args.seed}-{os.getpid()}.json")
    with open(path, "w") as f:
        json.dump({"context": run.context, "spans": tr.spans}, f, default=str)
    run.context["spans_file"] = os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "raydedup")):
        print(f"perfbench: no raydedup package under {ROOT}", file=sys.stderr)
        return 2
    # Ray workers import raydedup through PYTHONPATH, whatever the cwd
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    run = Run(args)
    first = not os.path.exists(READY_MARK)
    run.context["first_run_in_checkout"] = first
    ray_tmp = _ray_temp_dir()
    work = os.path.join(ROOT, ".perfbench", f"w{os.getpid()}")
    os.makedirs(work)

    def on_hang(where: str) -> None:
        run.on_hang(where)
        for d in RAY_TMPS:
            print(cluster.log_tails(d), file=sys.stderr, flush=True)
            cluster.reap(d, grace_s=0)
        cluster.stop_tracker()
        for d in [work, *RAY_TMPS]:
            shutil.rmtree(d, ignore_errors=True)

    if first:
        wd = cluster.Watchdog(FIRST_RUN_DEADLINE_S, on_hang, slack=FIRST_RUN_SLACK)
    else:
        wd = cluster.Watchdog(RUN_DEADLINE_S, on_hang)
    # a SIGTERM (an outer timeout) takes the hang path: record, stop, exit
    signal.signal(signal.SIGTERM, lambda *_: wd.arm("SIGTERM", 0))
    note(f"{args.workload} seed {args.seed} trace {args.trace} first run {first}")
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        wd.arm("inputs", 90)
        t0 = time.perf_counter()
        wl.bind(inputs.make_corpora(work, wl.setup_inputs(), procs=cluster.NUM_CPUS))
        run.context["inputs_s"] = time.perf_counter() - t0
        wd.disarm()
        note("inputs made")
        if args.trace:
            traced(run, wl, wd, ray_tmp)
        else:
            end_to_end(run, wl, wd, args.seconds, ray_tmp)
    finally:
        wd.arm("shutdown", 60)
        cluster.stop(ray_tmp)
        cluster.stop_tracker()
        wd.disarm()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
    note("stopped")
    run.emit(run.failed == 0)
    open(READY_MARK, "w").close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
