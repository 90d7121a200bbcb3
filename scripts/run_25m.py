"""25M-doc checkpointed dedup run under the sandbox disk budget
(VERDICT r4 #2 — push the scale ceiling past 10M).

Disk is the binding constraint (BASELINE.md round-4 sizing history:
66 GB free vs ~21 GB per 10M docs of round-4-profile text), so the
corpus is generated AND consumed in 5M-doc waves: each wave generates
one planted-oracle corpus (disjoint url prefix -> disjoint doc_ids),
runs ONLY phase 1 (per-shard extract+signature parquet into the shared
checkpoint via ``build_index`` — the same store path the resumable
wrapper uses), then DELETES the wave's pages before the next wave.
Phase 2 (the per-exchange-checkpointed scale engine) runs once over
the accumulated phase-1 parquet with a constrained object store; the
per-corpus oracles survive the page deletion and gate recall.

Modes (each a fresh process; the driver shell sequences them):
    python scripts/run_25m.py wave <i>       # gen corpus i + phase 1 + delete pages
    python scripts/run_25m.py phase2         # the big checkpointed run
    python scripts/run_25m.py phase2b        # re-run phase 2 with
                                             # containment_min_shared=2 over the
                                             # SAME phase-1 parquet (fresh ckpt
                                             # dir; the BASELINE.md comparison)
    python scripts/run_25m.py eval [cl_dir]  # recall vs every wave's oracle
                                             # (default: the phase2 clusters;
                                             # pass the phase2b dir to score it)
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

ROOT = os.environ.get("RAYDEDUP_25M_ROOT", "/tmp/raydedup_25m")
CKPT = os.path.join(ROOT, "ckpt")
N_WAVES = int(os.environ.get("RAYDEDUP_25M_WAVES", "5"))
DOCS_PER_WAVE = int(os.environ.get("RAYDEDUP_25M_DOCS_PER_WAVE", "5000000"))
N_FILES = int(os.environ.get("RAYDEDUP_25M_FILES", "32"))
STORE_BYTES = int(os.environ.get("RAYDEDUP_25M_STORE_GIB", "72")) * (1 << 30)
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def _spec(i: int):
    from raydedup.corpus import CorpusSpec

    # shorter docs than the round-4 profile (avg ~105 words ~0.7 KB)
    # so 25M docs of text fit the disk budget; all dup-structure
    # fractions keep their defaults -> same oracle mix per wave
    return CorpusSpec(
        n_docs=DOCS_PER_WAVE,
        seed=100 + i,
        url_prefix=f"c{i}-",
        min_words=30,
        max_words=180,
    )


def _cfg():
    from raydedup.config import DedupConfig

    return DedupConfig()


def _df_free() -> int:
    st = os.statvfs("/")
    return st.f_bavail * st.f_frsize


def cmd_wave(i: int) -> int:
    import ray

    done_marker = os.path.join(ROOT, f"wave{i}.done")
    if os.path.exists(done_marker):
        # pages were already consumed and deleted; the corpus cache
        # manifest would otherwise serve paths to missing files
        print(json.dumps({"wave": i, "skipped": True}), flush=True)
        return 0
    t0 = time.perf_counter()
    wave_dir = os.path.join(ROOT, f"corpus{i}")
    from raydedup.corpus import materialize_corpus

    paths = materialize_corpus(wave_dir, _spec(i), n_files=N_FILES)
    t_gen = time.perf_counter() - t0
    # unique basenames: the checkpoint shard key is basename:size, and
    # every wave's generator emits part-0000x.parquet — collisions
    # would mark wave i+1's shards spuriously done AND alias their
    # on-disk tags (silent data loss)
    pages = sorted(glob.glob(os.path.join(paths["pages"], "*.parquet")))
    renamed = []
    for p in pages:
        q = os.path.join(os.path.dirname(p), f"c{i}-{os.path.basename(p)}")
        if not os.path.basename(p).startswith(f"c{i}-"):
            os.replace(p, q)
        renamed.append(q)
    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        logging_level="ERROR", object_store_memory=16 * (1 << 30),
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from raydedup.pipelines.query import build_index

    t1 = time.perf_counter()
    info = build_index(paths["pages"], CKPT, _cfg())
    t_store = time.perf_counter() - t1
    ray.shutdown()
    shutil.rmtree(paths["pages"], ignore_errors=True)  # oracles stay
    with open(done_marker, "w") as f:
        f.write("ok")
    print(
        json.dumps(
            {
                "wave": i,
                "t_gen": round(t_gen, 1),
                "t_store": round(t_store, 1),
                **info,
                "disk_free_gib": round(_df_free() / (1 << 30), 1),
            }
        ),
        flush=True,
    )
    return 0


def cmd_phase2() -> int:
    import ray

    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        logging_level="ERROR", object_store_memory=STORE_BYTES,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from raydedup.state.checkpoint import run_dedup_checkpointed

    min_free = [_df_free()]
    stop = threading.Event()

    def sampler() -> None:
        while not stop.is_set():
            min_free[0] = min(min_free[0], _df_free())
            time.sleep(1.0)

    th = threading.Thread(target=sampler, daemon=True)
    th.start()
    t0 = time.perf_counter()
    out = run_dedup_checkpointed([], CKPT, _cfg(), containment=True)
    dt = time.perf_counter() - t0
    stop.set()
    th.join(timeout=3)
    spill_dirs = glob.glob("/tmp/ray/session_*/ray_spilled_objects*")
    spilled = sum(
        os.path.getsize(f)
        for d in spill_dirs
        for f in glob.glob(os.path.join(d, "*"))
        if os.path.isfile(f)
    )
    stages = {
        k: v
        for k, v in out["metrics"].items()
        if isinstance(v, dict) and "status" in v
    }
    print(
        json.dumps(
            {
                "phase2_wall_sec": round(dt, 1),
                "clusters_path": out["clusters_path"],
                "spilled_gib_end": round(spilled / (1 << 30), 2),
                "min_disk_free_gib": round(min_free[0] / (1 << 30), 1),
                "stage_info": {
                    k: {kk: vv for kk, vv in v.items() if kk != "buckets"}
                    for k, v in stages.items()
                },
            },
            default=str,
        ),
        flush=True,
    )
    ray.shutdown()
    return 0


def cmd_phase2b() -> int:
    """Phase 2 re-run with ``containment_min_shared=2`` (the short-doc
    chance-collision floor, round-5 finding) over the SAME phase-1
    parquet — fresh exchange-checkpoint dir, fresh cfg, no
    re-extraction; clusters land beside the first run's."""
    import ray

    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        logging_level="ERROR", object_store_memory=STORE_BYTES,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import ray.data as rd

    from raydedup.pipelines.dedup_scale import run_dedup_scale
    from raydedup.state.checkpoint import CheckpointManager, ExchangeCheckpoint

    cfg = _cfg().with_overrides(containment_min_shared=2)
    mgr = CheckpointManager(os.path.join(ROOT, "ckpt2"), cfg)
    docs = rd.read_parquet(
        sorted(glob.glob(os.path.join(CKPT, "docs", "*.parquet")))
    )
    sigs = rd.read_parquet(
        sorted(glob.glob(os.path.join(CKPT, "signatures", "*.parquet"))),
        columns=["doc_id", "bands"],
    )
    t0 = time.perf_counter()
    res = run_dedup_scale(
        docs, cfg, ckpt=ExchangeCheckpoint(mgr), containment=True, signatures=sigs,
    )
    out_dir = os.path.join(ROOT, "clusters_minshared2")
    shutil.rmtree(out_dir, ignore_errors=True)
    res.clusters.write_parquet(out_dir)
    print(
        json.dumps(
            {
                "phase2b_wall_sec": round(time.perf_counter() - t0, 1),
                "clusters_path": out_dir,
                **{k: v for k, v in res.metrics.items() if isinstance(v, (int, float))},
            }
        ),
        flush=True,
    )
    ray.shutdown()
    return 0


def cmd_eval() -> int:
    import pyarrow.parquet as pq

    from raydedup.metrics import evaluate_against_oracle

    cl_dir = sys.argv[2] if len(sys.argv) > 2 else os.path.join(CKPT, "clusters")
    cl_files = sorted(glob.glob(os.path.join(cl_dir, "*.parquet")))
    cl = pq.read_table(cl_files).to_pandas()
    print(json.dumps({"assigned_docs": int(len(cl))}), flush=True)
    for i in range(N_WAVES):
        wave_dir = os.path.join(ROOT, f"corpus{i}")
        rep = evaluate_against_oracle(
            cl,
            os.path.join(wave_dir, "oracle_clusters.parquet"),
            os.path.join(wave_dir, "oracle_pairs.parquet"),
        )
        print(
            json.dumps(
                {
                    "wave": i,
                    "recall": round(rep["recall"], 5),
                    "boilerplate_false_merges": rep["boilerplate_false_merges"],
                    "broken_singletons": rep["broken_singletons"],
                }
            ),
            flush=True,
        )
    return 0


def main() -> int:
    mode = sys.argv[1]
    if mode == "wave":
        return cmd_wave(int(sys.argv[2]))
    if mode == "phase2":
        return cmd_phase2()
    if mode == "phase2b":
        return cmd_phase2b()
    if mode == "eval":
        return cmd_eval()
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main())
