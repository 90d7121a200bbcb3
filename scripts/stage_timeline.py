"""Per-task-function timeline of one unchecked dedup job.

    python scripts/stage_timeline.py [--n-docs 12000] [--seed 11] [--jobs 3] [--cpus 4]

Builds a ``CorpusSpec`` corpus (planted duplicates, ``--files`` parquet
files) in a temporary directory, then runs ``--jobs`` unchecked
``run_dedup_auto`` jobs on it one after another, each from the pages on
disk to the cluster assignments on the driver (the dedup-web job
shape, containment on). The earlier jobs warm the workers. For the last
job it reads ``ray.timeline()`` and prints one row per task function:

  tasks    number of tasks that ran in the job's window
  task_s   sum of their durations (each task holds one CPU, so this is
           the CPU-seconds the stage was granted)
  start_s  first task start, seconds after the job start
  end_s    last task end, seconds after the job start

Ray records task events whether or not anyone reads them, so reading
them after the job does not change the schedule being measured. Ray
Data's map tasks show up under their operator names (the extraction is
``ReadParquet->MapBatches(extract_batch)``); actor method calls are left
out.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import ray


def task_rows(events: list[dict], t0: float, t1: float) -> list[tuple]:
    """(name, tasks, task_s, start_s, end_s) per task function whose
    tasks started in [t0, t1] (epoch seconds), ordered by first start.
    A task's ``task::<name>`` event spans its argument fetch, execution
    and output store."""
    acc: dict[str, list] = defaultdict(lambda: [0, 0.0, float("inf"), 0.0])
    for e in events:
        cat = e.get("cat", "")
        if not cat.startswith("task::") or e.get("ph") != "X":
            continue
        name = cat[len("task::") :]
        if "." in name:  # actor method
            continue
        start = e["ts"] / 1e6
        if not t0 <= start <= t1:
            continue
        end = start + e["dur"] / 1e6
        row = acc[name]
        row[0] += 1
        row[1] += end - start
        row[2] = min(row[2], start - t0)
        row[3] = max(row[3], end - t0)
    return sorted(((n, *r) for n, r in acc.items()), key=lambda r: r[3])


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-docs", type=int, default=12_000)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--files", type=int, default=16)
    ap.add_argument("--jobs", type=int, default=3)
    ap.add_argument("--cpus", type=int, default=4)
    args = ap.parse_args()

    ray.init(
        num_cpus=args.cpus,
        object_store_memory=512 << 20,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        runtime_env={"env_vars": {"PYTHONPATH": ROOT}},
    )
    import logging

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from raydedup.config import DedupConfig
    from raydedup.corpus import CorpusSpec, materialize_corpus
    from raydedup.pipelines.dedup_scale import run_dedup_auto
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.util import to_arrow_table

    work = tempfile.mkdtemp(prefix="stage_timeline_")
    try:
        spec = CorpusSpec(n_docs=args.n_docs, seed=args.seed)
        pages = materialize_corpus(work, spec, n_files=args.files)["pages"]
        cfg = DedupConfig()
        for job in range(args.jobs):
            t0 = time.time()
            res = run_dedup_auto(pages_to_docs(read_pages(pages)), cfg, containment=True)
            n = to_arrow_table(res.clusters).num_rows
            t1 = time.time()
            print(f"job {job}: {t1 - t0:.2f} s, {n} docs, {res.metrics['n_dup_docs']} dup docs")
        rows = task_rows(ray.timeline(), t0, t1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        ray.shutdown()

    print(f"\nlast job: {t1 - t0:.2f} s on {args.cpus} CPUs")
    print(f"{'task function':<48} {'tasks':>6} {'task_s':>7} {'start_s':>8} {'end_s':>7}")
    for name, count, task_s, start, end in rows:
        print(f"{name[:48]:<48} {count:>6} {task_s:>7.2f} {start:>8.2f} {end:>7.2f}")
    print(f"{'all':<48} {sum(r[1] for r in rows):>6} {sum(r[2] for r in rows):>7.2f}")


if __name__ == "__main__":
    main()
