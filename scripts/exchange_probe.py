"""Custom hash exchange vs Ray Data's shuffles on band-posting rows.

    python scripts/exchange_probe.py [--reps 3] [rows ...]   # default 192000 8000000

For each size, synthetic band postings (int64 band_key, doc_id, sig;
about two rows per key, 64 blocks) go into 32 buckets three ways, each
followed by the same per-bucket kernel (distinct keys per bucket):

  exchange      stages.exchange.hash_exchange_apply
  hash_shuffle  map_batches -> repartition(32, keys=["band_key"]) under
                ShuffleStrategy.HASH_SHUFFLE -> map_batches
  sort_shuffle  map_batches -> sort("band_key") (the comparison sort
                that groupby runs under the default strategy) -> map_batches

The two Ray Data variants chain a map stage on each side of the shuffle,
the shape the engine would use; HASH_SHUFFLE gets one aggregator actor
per CPU (``max_hash_shuffle_aggregators``, 64 by default, starts 64
worker processes on a 4-CPU host). Every rep starts from the same
blocks in the object store; one JSON line per (rows, variant, rep).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import numpy as np
import pyarrow as pa

import ray

BUCKETS = 32
BLOCKS = 64


@ray.remote
def _postings_block(seed: int, rows: int, n_keys: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    return pa.table(
        {
            "band_key": pa.array(rng.integers(0, n_keys, rows, dtype=np.int64) * 0x9E3779B97F4A7C15),
            "doc_id": pa.array(rng.integers(0, 1 << 62, rows, dtype=np.int64)),
            "sig": pa.array(rng.integers(0, 1 << 62, rows, dtype=np.int64)),
        }
    )


def _distinct_keys(t: pa.Table) -> pa.Table:
    n = np.unique(t.column("band_key").to_numpy(zero_copy_only=False)).shape[0] if t.num_rows else 0
    return pa.table({"keys": pa.array([n], pa.int64())})


def _identity(t: pa.Table) -> pa.Table:
    return t


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("rows", nargs="*", type=int, default=[192_000, 8_000_000])
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()

    ray.init(
        num_cpus=4,
        object_store_memory=2 << 30,
        include_dashboard=False,
        logging_level="ERROR",
        runtime_env={"env_vars": {"PYTHONPATH": ROOT}},
    )
    import logging

    import ray.data as rd
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    from raydedup.stages.exchange import hash_exchange_apply

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    ctx.max_hash_shuffle_aggregators = 4
    default_strategy = ctx.shuffle_strategy

    def exchange(refs):
        return int(pa.compute.sum(hash_exchange_apply(refs, "band_key", _distinct_keys, BUCKETS)["keys"]).as_py())

    def hash_shuffle(refs):
        # a Dataset keeps the context it was made under
        ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
        try:
            out = (
                rd.from_arrow_refs(refs)
                .map_batches(_identity, batch_format="pyarrow")
                .repartition(BUCKETS, keys=["band_key"])
                .map_batches(_distinct_keys, batch_format="pyarrow", batch_size=None)
            )
            return int(out.sum("keys"))
        finally:
            ctx.shuffle_strategy = default_strategy

    def sort_shuffle(refs):
        out = (
            rd.from_arrow_refs(refs)
            .map_batches(_identity, batch_format="pyarrow")
            .sort("band_key")
            .map_batches(_distinct_keys, batch_format="pyarrow", batch_size=None)
        )
        return int(out.sum("keys"))

    host = {"cpus": 4, "ray": ray.__version__, "nproc": len(os.sched_getaffinity(0))}
    print(json.dumps({"host": host}), flush=True)
    for rows in args.rows:
        per = rows // BLOCKS
        refs = [_postings_block.remote(i, per, max(1, rows // 2)) for i in range(BLOCKS)]
        ray.wait(refs, num_returns=BLOCKS)
        for rep in range(args.reps):
            for name, fn in (("exchange", exchange), ("hash_shuffle", hash_shuffle), ("sort_shuffle", sort_shuffle)):
                t0 = time.perf_counter()
                out = fn(refs)
                s = time.perf_counter() - t0
                print(json.dumps({"rows": rows, "variant": name, "rep": rep, "s": round(s, 3),
                                  "rows_per_s": round(rows / s), "out": out}), flush=True)
        del refs
    ray.shutdown()


if __name__ == "__main__":
    main()
