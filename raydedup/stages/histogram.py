"""Grouped fixed-width value histograms over the events table.

The storage-statistics surface (`PanakoStorageKV.java:381-467` min /
max / avg full scans; A4's per-second coverage histogram,
`OlafStrategy.java:437-453`) extended to the distribution itself: count
events per (event_type, value bin) with fixed-width bins.

Bin identity is computed on exact integer cents and floored through ONE
double division — ``floor(cents / width_cents)`` — the identical
expression DuckDB evaluates, so bins match bit-for-bit even for
negative values (DuckDB's integer ``//`` truncates toward zero, numpy's
floors; routing through float floor sidesteps the divergence).

Scale shape: zero shuffle. Per-batch partial (type, bin) counts via one
lexsort; driver merge is O(types × occupied bins).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from raydedup.util import arrow_block_refs

I64 = np.int64

_OUT_SCHEMA = pa.schema(
    [
        ("event_type", pa.large_string()),
        ("bin", pa.int64()),
        ("lo_cents", pa.int64()),
        ("n", pa.int64()),
    ]
)


def value_histogram(events: Dataset, width_cents: int = 500) -> pa.Table:
    """events(event_type, value) -> (event_type, bin, lo_cents, n):
    count per event type and fixed-width value bin,
    ``bin = floor(round(value*100) / width_cents)``. Sorted by
    (event_type, bin)."""
    import ray

    if width_cents <= 0:
        raise ValueError("width_cents must be positive")

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return _OUT_SCHEMA.empty_table()
        import pyarrow.compute as pc

        et = t.column("event_type")
        codes = pc.dictionary_encode(
            et.combine_chunks() if isinstance(et, pa.ChunkedArray) else et
        )
        gid = codes.indices.to_numpy(zero_copy_only=False).astype(I64)
        v = t.column("value").to_numpy(zero_copy_only=False)
        cents = np.rint(v * 100).astype(I64)
        b = np.floor(cents / float(width_cents)).astype(I64)
        order = np.lexsort((b, gid))
        gid_s, b_s = gid[order], b[order]
        first = np.empty(gid_s.shape[0], dtype=bool)
        first[0] = True
        first[1:] = (gid_s[1:] != gid_s[:-1]) | (b_s[1:] != b_s[:-1])
        starts = np.flatnonzero(first)
        n = np.diff(starts, append=I64(gid_s.shape[0]))
        names = codes.dictionary.take(pa.array(gid_s[starts]))
        return pa.table(
            {
                "event_type": pa.array(names.to_pylist(), pa.large_string()),
                "bin": pa.array(b_s[starts], pa.int64()),
                "lo_cents": pa.array(b_s[starts] * int(width_cents), pa.int64()),
                "n": pa.array(n.astype(I64), pa.int64()),
            }
        )

    parts = [
        t
        for t in ray.get(
            list(
                arrow_block_refs(
                    events.select_columns(["event_type", "value"])
                    .map_batches(partial, batch_format="pyarrow")
                )
            )
        )
        if t.num_rows
    ]
    if not parts:
        return _OUT_SCHEMA.empty_table()
    allp = pa.concat_tables(parts, promote_options="default")
    import pandas as pd

    df = (
        allp.to_pandas()
        .groupby(["event_type", "bin", "lo_cents"], as_index=False)["n"]
        .sum()
        .sort_values(["event_type", "bin"])
        .reset_index(drop=True)
    )
    return pa.Table.from_pandas(df, preserve_index=False).cast(_OUT_SCHEMA)
