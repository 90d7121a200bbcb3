"""Hash-partition exchange on raw Ray tasks (custom shuffle primitive).

Ray Data's ``groupby`` co-locates keys via a comparison SORT shuffle,
and its HASH_SHUFFLE strategy is slower still. Measured with
``scripts/exchange_probe.py`` (3 reps; 4 CPUs, 15 GiB, Ray 2.49.2; int64
band-posting rows into 32 buckets, a map stage on each side of Ray
Data's shuffle, one HASH_SHUFFLE aggregator per CPU):

  rows   this exchange       sort("band_key")           HASH_SHUFFLE repartition
  192k   0.20-0.43 s         7.1-8.7 s                  23.4-25.5 s
  8M     1.6-1.9 s           8.5-13.8 s                 55-62 s
         (4.3-5.0M rows/s)   (0.58-0.94M rows/s)        (0.13-0.14M rows/s)

No variant hung. Pair emission only needs *co-location by hash bucket*,
not order — so this module implements the minimal exchange directly,
as two task functions:

- ``_split_blocks``, the map side (``split_dataset``): each task takes
  a group of blocks, maps them through an optional ``prep`` kernel (a
  projection, a key or band-posting kernel) and splits the result into
  ``num_buckets`` sub-tables (vectorized take, ``_split_table``);
- ``_reduce``, the reduce side (``reduce_wave``): each task
  concatenates one bucket's sub-tables from one side, or from a left
  and a right side, applies a vectorized kernel and, given an out key,
  re-splits the kernel's output in the same task, so a chained
  exchange needs no split wave of its own.

Two passes over the data, zero sorts, all-to-all through the object
store — the same movement a multi-node hash shuffle performs, with the
partitioning assumption (kernel sees ALL rows of its buckets and
nothing else) stated explicitly. Both waves take a ``name``: the dedup
engine and the index name each by its stage, so Ray's task events and
``scripts/stage_timeline.py`` tell the stages apart.

This is the SURVEY §2 case (c): a raw-Ray-core operator used only where
the Dataset API cannot express the semantics efficiently.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa

import ray
from ray.data import Dataset

from raydedup.util import arrow_block_refs, cluster_cpus

I64 = np.int64


def default_buckets() -> int:
    """Bucket count sized to the cluster: ~2 reduce tasks per CPU keeps
    one task wave per exchange instead of several, while still bounding
    per-task memory. Callers pass num_buckets=None to use this."""
    return int(min(64, max(16, 2 * cluster_cpus())))


def _split_table(block: pa.Table, key_col: str, num_buckets: int) -> list[pa.Table]:
    """Hash-partition one in-memory table on ``key_col`` (vectorized
    argsort + zero-copy slices)."""
    if block.num_rows == 0:
        return [block] * num_buckets
    keys = block.column(key_col).to_numpy(zero_copy_only=False)
    bucket = (keys % num_buckets + num_buckets) % num_buckets
    order = np.argsort(bucket, kind="stable")
    sorted_b = bucket[order]
    boundaries = np.searchsorted(sorted_b, np.arange(num_buckets + 1))
    taken = block.take(pa.array(order))
    return [
        taken.slice(boundaries[i], boundaries[i + 1] - boundaries[i])
        for i in range(num_buckets)
    ]


def _side(parts) -> pa.Table:
    """One side of a bucket: its non-empty parts concatenated. With none,
    the empty slice of the first part that carries a schema, else a
    0-column table. Ray's map_batches skips the UDF on 0-row input
    blocks and emits 0-COLUMN empties — those cannot seed a typed empty
    table or be handed to a kernel expecting columns."""
    nonempty = [p for p in parts if p.num_rows]
    if nonempty:
        return pa.concat_tables(nonempty)
    donor = next((p for p in parts if p.num_columns), None)
    return donor.slice(0, 0) if donor is not None else pa.table({})


@ray.remote
def _split_blocks(
    key_col: str,
    num_buckets: int,
    prep: Callable[[pa.Table], pa.Table] | None,
    *blocks: pa.Table,
) -> list[pa.Table]:
    # several input blocks per split task: the object count is
    # O(split_tasks x buckets), not O(input_blocks x buckets) — tens of
    # thousands of tiny plasma objects serialize on the raylet otherwise.
    # ``prep`` (a column projection, a key or band-posting kernel) maps
    # each non-empty block first, so the input can be whole corpus
    # blocks; a group with no rows is split as prep's empty output, so
    # its empties carry the columns the reduce kernel reads
    if prep is None:
        t = _side(blocks)
    else:
        prepped = [prep(b) for b in blocks if b.num_rows]
        t = pa.concat_tables(prepped) if prepped else prep(_side(blocks))
    return _split_table(t, key_col, num_buckets)


@ray.remote
def _reduce(
    kernel: Callable,
    n_left: int | None,
    out_key: str | None,
    num_buckets: int,
    *parts: pa.Table,
):
    """One bucket of a reduce wave. ``n_left`` None: ``kernel(side)``
    over all ``parts``, skipped when no part has a schema (0-column
    empties out; collectors filter on num_rows). Else the join
    ``kernel(parts[:n_left] side, parts[n_left:] side)``, which always
    runs (join kernels early-return on an empty side). With ``out_key``
    the output is re-split on it into ``num_buckets`` tables in the same
    task, so the next reduce wave consumes the pieces directly, with no
    split wave (and its materialize barrier) between two chained
    exchanges."""
    if n_left is None:
        side = _side(parts)
        if not side.num_columns:
            return pa.table({}) if out_key is None else [pa.table({})] * num_buckets
        out = kernel(side)
    else:
        out = kernel(_side(parts[:n_left]), _side(parts[n_left:]))
    return out if out_key is None else _split_table(out, out_key, num_buckets)


def reduce_wave(
    split: list,
    kernel: Callable,
    num_buckets: int,
    *,
    right: list | None = None,
    out_key: str | None = None,
    name: str | None = None,
) -> list:
    """Submit one reduce task per bucket over split wave(s) of
    split_dataset's shape (``split[i][k]`` = split task i's bucket k; a
    list of per-bucket refs ``refs`` is the one-row wave ``[refs]``).

    Without ``right`` each task applies ``kernel(bucket)``; with it,
    ``kernel(left_bucket, right_bucket)``. Returns per-bucket result
    refs, or with ``out_key`` the re-split output in split_dataset's
    shape (``out[k][j]`` = reduce task k's out-bucket j), feedable to
    another reduce wave. ``name`` names the tasks (their stage) in
    Ray's task events and timeline."""
    opts: dict = {} if out_key is None else {"num_returns": num_buckets}
    if name is not None:
        opts["name"] = name
    task = _reduce.options(**opts)
    n_left = None if right is None else len(split)
    rows = split if right is None else split + right
    return [
        task.remote(kernel, n_left, out_key, num_buckets, *[r[k] for r in rows])
        for k in range(num_buckets)
    ]


def block_groups(refs: list) -> list[list]:
    """Group block refs into ``min(len(refs), 2 x CPUs)`` contiguous runs,
    one per map-side task of an exchange: two tasks per CPU keep the
    wave full while bounding the object count to O(tasks x buckets)."""
    import math

    n_tasks = max(1, min(len(refs), 2 * cluster_cpus()))
    group = math.ceil(len(refs) / n_tasks)
    return [refs[i : i + group] for i in range(0, len(refs), group)]


def split_dataset(
    x: Dataset | list,
    key: str,
    num_buckets: int | None = None,
    prep: Callable[[pa.Table], pa.Table] | None = None,
    *,
    name: str | None = None,
) -> list:
    """Hash-partition a Dataset (or list of block refs) on ``key`` into
    ``num_buckets`` buckets. Returns a list of per-split-task lists of
    bucket ObjectRefs (``splits[i][k]`` = split task i's bucket k) that
    can be fed to multiple reduce rounds WITHOUT re-splitting — reuse
    this when the same table joins on the same key more than once.
    ``prep`` maps each non-empty block inside the split tasks before it
    is split (it must produce ``key``, and its typed empty output from
    an empty or 0-column block). ``name`` names the split tasks (see
    reduce_wave)."""
    if num_buckets is None:
        num_buckets = default_buckets()
    refs = arrow_block_refs(x) if isinstance(x, Dataset) else list(x)
    opts: dict = {"num_returns": num_buckets}
    if name is not None:
        opts["name"] = name
    task = _split_blocks.options(**opts)
    return [task.remote(key, num_buckets, prep, *g) for g in block_groups(refs)]


def hash_exchange_join(
    left: Dataset | list,
    right: Dataset | list,
    left_key: str,
    right_key: str,
    kernel: Callable[[pa.Table, pa.Table], pa.Table],
    num_buckets: int | None = None,
) -> list:
    """Two-sided hash exchange: co-partition ``left`` and ``right`` on
    their key columns and apply ``kernel(left_bucket, right_bucket)``
    per bucket. Returns the per-bucket result ObjectRefs (callers
    ray.get / concat as needed). The explicit partitioned hash join from
    the Ray guide, on raw tasks."""
    if num_buckets is None:
        num_buckets = default_buckets()
    lsplit = split_dataset(left, left_key, num_buckets)
    rsplit = split_dataset(right, right_key, num_buckets)
    return reduce_wave(lsplit, kernel, num_buckets, right=rsplit)


def hash_exchange_apply(
    ds: Dataset | list,
    key_col: str,
    kernel: Callable[[pa.Table], pa.Table],
    num_buckets: int | None = None,
    collect: bool = True,
):
    """Hash-partition ``ds`` on ``key_col`` into ``num_buckets`` groups
    and apply ``kernel`` to each group's full table; returns the
    concatenated (driver-side, assumed small) result.

    The kernel must be insensitive to row order within its bucket.
    num_buckets bounds reduce-task memory to ~|ds| / num_buckets rows.
    """
    if num_buckets is None:
        num_buckets = default_buckets()

    # NOTE: a streaming variant (split tasks launched per ref bundle via
    # iter_internal_ref_bundles) was measured 30-45% SLOWER end-to-end:
    # the iterator's output backpressure throttles the upstream kernel.
    # For a Dataset input, split_dataset therefore materializes the
    # producer at full width and blocks the driver until its last task
    # ends. A stage that must not block (the scale engine's signature
    # stage, pipelines/dedup_scale._signature_wave) passes block refs
    # and a ``prep`` kernel to split_dataset instead.
    out_refs = reduce_wave(split_dataset(ds, key_col, num_buckets), kernel, num_buckets)
    if not collect:
        return out_refs
    results = [t for t in ray.get(out_refs) if t.num_rows]
    if not results:
        return ray.get(out_refs[0]) if out_refs else pa.table({})
    return pa.concat_tables(results, promote_options="default")


@ray.remote
def _block_nrows(t: pa.Table) -> int:
    # 0-column blocks (the no-donor empty fallback) count as empty even
    # though concat-safe row counts could differ
    return t.num_rows if t.num_columns else 0


def refs_to_dataset(refs: list, schema: pa.Schema):
    """Per-bucket result ObjectRefs -> streaming Dataset WITHOUT pulling
    the tables to the driver: only each block's row count crosses the
    wire (a tiny int per bucket); empty buckets are dropped by ref. If
    every bucket is empty, a typed empty table built from ``schema``
    keeps the output schema stable for downstream hash comparison."""
    import ray.data as rd

    rows = ray.get([_block_nrows.remote(r) for r in refs])
    keep = [r for r, n in zip(refs, rows) if n > 0]
    if not keep:
        return rd.from_arrow(schema.empty_table())
    return rd.from_arrow_refs(keep)


def pa_schema_of(ds: Dataset, columns: list[str] | None = None) -> pa.Schema:
    """pyarrow schema of a Dataset (optionally projected to ``columns``),
    taken from metadata — does not execute the pipeline beyond schema
    resolution. Used to build typed empty fallbacks when a whole side of
    an exchange turns out to be 0 rows."""
    s = ds.schema()
    base = getattr(s, "base_schema", None)
    if not isinstance(base, pa.Schema):
        # pandas-backed datasets report numpy dtypes here, not
        # pa.DataType — map them (object/str dtypes -> string)
        def _pa_type(t):
            if isinstance(t, pa.DataType):
                return t
            try:
                return pa.from_numpy_dtype(np.dtype(t))
            except (TypeError, pa.ArrowNotImplementedError):
                return pa.string()

        base = pa.schema([(n, _pa_type(t)) for n, t in zip(s.names, s.types)])
    if columns is None:
        return base
    return pa.schema([(c, base.field(c).type) for c in columns])


def cast_columns(block: pa.Table, schema: pa.Schema) -> pa.Table:
    """Project + cast ``block`` to exactly ``schema`` (shared prep for
    the events-table exchange stages). Handles the Ray 2.49 hazard of
    0-row/0-column blocks by returning a typed empty table."""
    if block.num_rows == 0 or block.num_columns == 0:
        return schema.empty_table()
    cols = {f.name: block.column(f.name).cast(f.type) for f in schema}
    return pa.table(cols, schema=schema)
