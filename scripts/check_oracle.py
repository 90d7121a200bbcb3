"""Local replica of the correctness gate: run every queries() entry at
sf0.01 and diff against oracle_sql() via DuckDB (row count, schema,
order-insensitive values). Usage:

    python scripts/check_oracle.py SF_DIR [QUERY ...]
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df = df[sorted(df.columns)]
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        description="Run the queries() registry on a test-data directory and "
        "diff each result against its oracle_sql() via DuckDB."
    )
    ap.add_argument("sf_dir", help="directory holding the <table>.parquet files")
    ap.add_argument("queries", nargs="*", help="query names to run (default: all)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sf_dir = args.sf_dir
    only = set(args.queries)

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = fn(sf_dir)
            if not isinstance(got, pd.DataFrame):
                got = got.to_pandas()
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        dt = time.time() - t0
        if name not in sqls:
            print(f"ok   {name}: rows={len(got)} (rows-only, {dt:.1f}s)")
            continue
        want = con.execute(sqls[name]).df()
        g, w = normalize(got), normalize(want)
        if list(g.columns) != list(w.columns):
            print(f"FAIL {name}: columns {list(g.columns)} != {list(w.columns)}")
            failures += 1
            continue
        if len(g) != len(w):
            print(f"FAIL {name}: rows {len(g)} != {len(w)}")
            failures += 1
            continue
        if not g.equals(w):
            neq = (g != w) & ~(g.isna() & w.isna())
            bad_cols = [c for c in g.columns if neq[c].any()]
            print(f"FAIL {name}: value mismatch in {bad_cols}")
            for c in bad_cols[:2]:
                idx = neq[c].idxmax()
                print(f"   e.g. row {idx} col {c}: got={g.at[idx, c]!r} want={w.at[idx, c]!r}")
            failures += 1
            continue
        print(f"ok   {name}: rows={len(g)} schema+values match ({dt:.1f}s)")
    print("FAILURES:", failures)
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
