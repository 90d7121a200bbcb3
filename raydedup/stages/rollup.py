"""Rollup aggregate: two-level grouped totals with subtotal and
grand-total rows (`GROUP BY ROLLUP` — the A6 statistics surface
(`PanakoStorageKV.java:381-467`) extended to hierarchical totals).

Scale shape: zero shuffle. Each batch collapses to (key1, key2) partial
rows — count + exact integer-cent sum — via one lexsort; the driver
merge is O(distinct group pairs), and the subtotal / grand-total levels
are derived from the merged base on the driver (no second pass over the
data). Level markers use the literal ``'ALL'`` instead of SQL ROLLUP's
NULLs so the oracle mirror is an explicit three-level UNION with no
NULL-conflation ambiguity.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
from ray.data import Dataset

from raydedup.util import arrow_block_refs

I64 = np.int64

_OUT_SCHEMA = pa.schema(
    [
        ("k1", pa.large_string()),
        ("k2", pa.large_string()),
        ("n", pa.int64()),
        ("sum_cents", pa.int64()),
    ]
)


def rollup_counts(
    ds: Dataset, key1: str, key2: str, value_col: str
) -> pa.Table:
    """ds -> (k1, k2, n, sum_cents) at three levels: (key1, key2),
    (key1, 'ALL'), ('ALL', 'ALL'). ``sum_cents`` is the exact integer
    cent-sum of ``value_col``. Sorted by (k1, k2)."""
    import pyarrow.compute as pc

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return _OUT_SCHEMA.empty_table()
        a = t.column(key1)
        b = t.column(key2)
        ca = pc.dictionary_encode(a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a)
        cb = pc.dictionary_encode(b.combine_chunks() if isinstance(b, pa.ChunkedArray) else b)
        ia = ca.indices.to_numpy(zero_copy_only=False).astype(I64)
        ib = cb.indices.to_numpy(zero_copy_only=False).astype(I64)
        v = t.column(value_col).to_numpy(zero_copy_only=False)
        cents = np.rint(v * 100).astype(I64)
        order = np.lexsort((ib, ia))
        ia, ib, cents = ia[order], ib[order], cents[order]
        first = np.empty(ia.shape[0], dtype=bool)
        first[0] = True
        first[1:] = (ia[1:] != ia[:-1]) | (ib[1:] != ib[:-1])
        starts = np.flatnonzero(first)
        n = np.diff(starts, append=I64(ia.shape[0]))
        s = np.add.reduceat(cents, starts)
        return pa.table(
            {
                "k1": pa.array(ca.dictionary.take(pa.array(ia[starts])).to_pylist(), pa.large_string()),
                "k2": pa.array(cb.dictionary.take(pa.array(ib[starts])).to_pylist(), pa.large_string()),
                "n": pa.array(n.astype(I64), pa.int64()),
                "sum_cents": pa.array(s.astype(I64), pa.int64()),
            }
        )

    parts = [
        t
        for t in ray.get(
            list(
                arrow_block_refs(
                    ds.select_columns([key1, key2, value_col])
                    .map_batches(partial, batch_format="pyarrow")
                )
            )
        )
        if t.num_rows
    ]
    if not parts:
        return _OUT_SCHEMA.empty_table()
    import pandas as pd

    base = (
        pa.concat_tables(parts, promote_options="default")
        .to_pandas()
        .groupby(["k1", "k2"], as_index=False)
        .agg(n=("n", "sum"), sum_cents=("sum_cents", "sum"))
    )
    lvl1 = base.groupby("k1", as_index=False).agg(n=("n", "sum"), sum_cents=("sum_cents", "sum"))
    lvl1["k2"] = "ALL"
    total = pd.DataFrame(
        {"k1": ["ALL"], "k2": ["ALL"], "n": [base["n"].sum()], "sum_cents": [base["sum_cents"].sum()]}
    )
    out = (
        pd.concat([base, lvl1, total], ignore_index=True)[["k1", "k2", "n", "sum_cents"]]
        .astype({"n": "int64", "sum_cents": "int64"})
        .sort_values(["k1", "k2"])
        .reset_index(drop=True)
    )
    return pa.Table.from_pandas(out, preserve_index=False).cast(_OUT_SCHEMA)
