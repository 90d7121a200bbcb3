"""Per-task-name timeline of one dedup job, or of one round of the
index operations (build, query, monitor, increment fold).

    python scripts/stage_timeline.py [--mode dedup|index] [--n-docs 12000]
        [--seed 11] [--files 16] [--jobs 3] [--cpus 4]

Builds a ``CorpusSpec`` corpus (planted duplicates, ``--files`` parquet
files) in a temporary directory, then runs ``--jobs`` rounds on it one
after another; the earlier rounds warm the workers.

- ``dedup``: each round is one unchecked ``run_dedup_auto`` job, from
  the pages on disk to the cluster assignments on the driver (the
  dedup-web job shape, containment on).
- ``index``: a random 1/8 of the pages is held out of the store, as
  one more file. Each round is one ``build_index`` of the ``--files``
  stored files into a new index directory, then on it one
  ``query_index`` of a 100-doc batch (50 stored docs, each with one
  word edited, under new urls, and 50 unseen docs: the index-query job
  shape), one ``monitor_text`` of a text holding one stored doc between
  unseen words, and one ``dedup_increment`` fold of the held-out file
  against a clusters dir that holds every stored doc as a singleton.

For the last round it reads ``ray.timeline()`` and prints, per timed
call, one row per task name (a task function, or a stage name):

  tasks    number of tasks that ran in the call's window
  task_s   sum of their durations (each task holds one CPU, so this is
           the CPU-seconds the stage was granted)
  start_s  first task start, seconds after the call start
  end_s    last task end, seconds after the call start

Ray records task events whether or not anyone reads them, so reading
them after the run does not change the schedule being measured. Ray
Data's map tasks show up under their operator names (the extraction is
``ReadParquet->MapBatches(extract_batch)``); actor method calls are left
out. The exchange's split and reduce tasks (``stages/exchange.py``) show
up under the stage name the engine gives each wave (``signatures``,
``exact``, ``candidates_emit``, ``verify_attach_a``, ``assign``, ...),
not under their task function, and so do the query's and the fold's
waves (``query_sign``, ``query_stored``, ``query_candidates``,
``query_verify``); a name with a ``.`` would be taken for an actor
method, so stage names use ``_``.
"""

from __future__ import annotations

import argparse
import glob
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
    """(name, tasks, task_s, start_s, end_s) per task name whose
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


def dedup_rounds(args, pages: str, work: str):
    """Each round: one unchecked dedup job. Yields [(label, t0, t1)]."""
    from raydedup.config import DedupConfig
    from raydedup.pipelines.dedup_scale import run_dedup_auto
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.util import to_arrow_table

    cfg = DedupConfig()
    for job in range(args.jobs):
        t0 = time.time()
        res = run_dedup_auto(pages_to_docs(read_pages(pages)), cfg, containment=True)
        n = to_arrow_table(res.clusters).num_rows
        t1 = time.time()
        print(f"job {job}: {t1 - t0:.2f} s, {n} docs, {res.metrics['n_dup_docs']} dup docs")
        yield [("job", t0, t1)]


def query_batch(pages: str, seed: int):
    """100 query docs: 50 stored texts with one word edited, under new
    urls, and 50 unseen texts."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from raydedup.stages.extract import doc_ids_from_urls

    texts = pq.read_table(sorted(glob.glob(os.path.join(pages, "*.parquet"))), columns=["text"])
    texts = texts.column("text").to_pylist()
    rng = np.random.default_rng(seed)
    batch = []
    for i in rng.choice(len(texts), 50, replace=False):
        toks = texts[i].split()
        toks[len(toks) // 2] = "edited"
        batch.append(" ".join(toks))
    batch += [" ".join(f"unseen{rng.integers(1 << 30)}" for _ in range(300)) for _ in range(50)]
    urls = [f"https://query.example/{j}" for j in range(len(batch))]
    ids = doc_ids_from_urls(urls)
    return rd.from_arrow(pa.table({"doc_id": pa.array(ids), "text": pa.array(batch)})).materialize()


def singleton_clusters(index_dir: str, clusters_dir: str) -> None:
    """Every doc stored in ``index_dir`` as its own cluster, one
    clusters file per docs file."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from raydedup.state.checkpoint import store_files

    os.makedirs(clusters_dir)
    for f in store_files(index_dir, "docs"):
        ids = pq.read_table(f, columns=["doc_id"]).column("doc_id")
        pq.write_table(
            pa.table({"doc_id": ids, "cluster_id": ids, "is_representative": np.ones(len(ids), bool)}),
            os.path.join(clusters_dir, os.path.basename(f)),
        )


def index_rounds(args, pages: str, work: str):
    """Each round: one build_index into a new directory, then on it one
    query_index, one monitor_text and one dedup_increment fold of the
    held-out pages file. Yields [(label, t0, t1)] per round."""
    import numpy as np
    import pyarrow.parquet as pq

    from raydedup.config import DedupConfig
    from raydedup.pipelines.increment import dedup_increment
    from raydedup.pipelines.query import build_index, monitor_text, query_index

    cfg = DedupConfig()
    files = sorted(glob.glob(os.path.join(pages, "*.parquet")))
    table = pq.read_table(files)
    rng = np.random.default_rng(args.seed)
    perm = rng.permutation(table.num_rows)
    n_held = table.num_rows // 8
    held_out = os.path.join(work, "held_out")
    os.makedirs(held_out)
    pq.write_table(table.take(np.sort(perm[:n_held])), os.path.join(held_out, "held-out.parquet"))
    for f, rows in zip(files, np.array_split(np.sort(perm[n_held:]), len(files))):
        pq.write_table(table.take(rows), f)
    q = query_batch(pages, args.seed)
    stored = pq.read_table(files, columns=["text"])
    unseen = [f"unseen{rng.integers(1 << 30)}" for _ in range(600)]
    text = " ".join(unseen[:300] + [stored.column("text")[0].as_py()] + unseen[300:])
    for job in range(args.jobs):
        index_dir = os.path.join(work, f"index-{job}")
        clusters_dir = os.path.join(work, f"clusters-{job}")
        t0 = time.time()
        build_index(pages, index_dir, cfg)
        t1 = time.time()
        size = {
            sub: sum(os.path.getsize(f) for f in glob.glob(os.path.join(index_dir, sub, "*")))
            for sub in ("docs", "signatures")
        }
        singleton_clusters(index_dir, clusters_dir)
        t2 = time.time()
        df = query_index(index_dir, q, cfg)
        t3 = time.time()
        hits = monitor_text(index_dir, text, cfg)
        t4 = time.time()
        fold = dedup_increment(index_dir, clusters_dir, held_out, cfg)
        t5 = time.time()
        print(
            f"round {job}: build {t1 - t0:.2f} s, docs/ {size['docs'] / 1e6:.2f} MB, "
            f"signatures/ {size['signatures'] / 1e6:.2f} MB, query {t3 - t2:.3f} s, "
            f"{len(df)} rows, monitor {t4 - t3:.3f} s, {len(hits)} rows, "
            f"fold {t5 - t4:.3f} s, {fold['new_docs']} new docs, "
            f"{fold['attached_to_existing']} attached"
        )
        yield [
            ("build_index", t0, t1),
            ("query_index", t2, t3),
            ("monitor_text", t3, t4),
            ("dedup_increment", t4, t5),
        ]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("dedup", "index"), default="dedup")
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

    from raydedup.corpus import CorpusSpec, materialize_corpus

    rounds = dedup_rounds if args.mode == "dedup" else index_rounds
    work = tempfile.mkdtemp(prefix="stage_timeline_")
    try:
        spec = CorpusSpec(n_docs=args.n_docs, seed=args.seed)
        pages = materialize_corpus(work, spec, n_files=args.files)["pages"]
        windows = list(rounds(args, pages, work))[-1]
        events = ray.timeline()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        ray.shutdown()

    for label, t0, t1 in windows:
        rows = task_rows(events, t0, t1)
        print(f"\nlast {label}: {t1 - t0:.3f} s on {args.cpus} CPUs")
        print(f"{'task':<48} {'tasks':>6} {'task_s':>7} {'start_s':>8} {'end_s':>7}")
        for name, count, task_s, start, end in rows:
            print(f"{name[:48]:<48} {count:>6} {task_s:>7.3f} {start:>8.3f} {end:>7.3f}")
        print(f"{'all':<48} {sum(r[1] for r in rows):>6} {sum(r[2] for r in rows):>7.3f}")


if __name__ == "__main__":
    main()
