"""`ray job submit` entry point for the dedup pipeline.

On a real cluster:

    ray job submit --working-dir . -- \
        python scripts/submit_dedup.py \
        --pages s3://bucket/pages/ --checkpoint s3://bucket/ckpt/ \
        [--no-containment]

In this sandbox the same script runs against a local session
(`RAY_ADDRESS=local` is preset); `ray.init(address=...)` picks up
whatever the job environment provides. The pipeline is the resumable
checkpointed one — re-submitting after a failure skips completed
shards and stages (see raydedup/state/checkpoint.py).
"""

from __future__ import annotations

import argparse
import glob
import json
import logging
import os
import sys

# repo root on sys.path so `ray job submit --working-dir .` finds the package
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--pages", required=True, help="pages parquet dir (or one file)")
    p.add_argument("--checkpoint", required=True, help="checkpoint/output dir")
    p.add_argument("--no-containment", action="store_true")
    p.add_argument("--num-cpus", type=int, default=None, help="local-mode CPU override")
    p.add_argument(
        "--set", action="append", default=None, dest="set", metavar="KEY=VALUE",
        help="DedupConfig override (repeatable), e.g. --set jaccard_tau=0.7 "
             "--set stream_spill_dir=/data/spill — same surface as the CLI",
    )
    args = p.parse_args()

    import ray

    if not ray.is_initialized():
        kwargs = dict(include_dashboard=False, ignore_reinit_error=True, logging_level="ERROR")
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"), **kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from raydedup.cli import _cfg_from_args
    from raydedup.state.checkpoint import run_dedup_checkpointed

    files = sorted(glob.glob(os.path.join(args.pages, "*.parquet"))) or [args.pages]
    out = run_dedup_checkpointed(
        files, args.checkpoint, _cfg_from_args(args),
        containment=not args.no_containment,
    )
    print(json.dumps({"clusters_dir": out["clusters_path"], **out["metrics"]}, default=str))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
