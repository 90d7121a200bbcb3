"""Small shared helpers: the cluster's CPU count, block refs of a
Dataset, and driver-side materialization for SMALL results."""

from __future__ import annotations

import pyarrow as pa

import ray
from ray.data import Dataset


def cluster_cpus() -> int:
    """CPUs of the running Ray cluster, or 8 before ``ray.init``. Read
    on every call, never cached: a process may restart Ray with another
    CPU count."""
    if not ray.is_initialized():
        return 8
    return int(ray.cluster_resources().get("CPU", 8))


@ray.remote
def _block_to_arrow(block) -> pa.Table:
    from ray.data.block import BlockAccessor

    return BlockAccessor.for_block(block).to_arrow()


def arrow_blocks(ds: Dataset) -> list[tuple]:
    """Execute ``ds`` and return its blocks as ``(ref, num_rows)``
    pairs, each ref to an Arrow table: the contract of
    ``Dataset.to_arrow_refs()`` without its trailing ``schema()`` call.
    On a plan that is not materialized, Ray 2.49's to_arrow_refs() finds
    no cached schema after the run and re-executes the plan under
    ``limit(1)`` to get one, then cancels that probe's in-flight tasks.
    That is wasted work on every exchange input, and the cancellations
    race Ray core's task bookkeeping: the driver aborts ("Check failed:
    ... submitted_task_ref_count > 0", or "Tried to complete task that
    was not pending"). Each output bundle carries its schema and its
    blocks' row counts, so only non-Arrow (pandas) blocks need
    converting."""
    out: list = []
    for bundle in ds.iter_internal_ref_bundles():
        arrow = isinstance(bundle.schema, pa.Schema)
        out.extend(
            (r if arrow else _block_to_arrow.remote(r), m.num_rows) for r, m in bundle.blocks
        )
    return out


def arrow_block_refs(ds: Dataset) -> list:
    """The block refs of arrow_blocks(ds)."""
    return [r for r, _ in arrow_blocks(ds)]


def to_arrow_table(ds: Dataset, empty_schema: pa.Schema | None = None) -> pa.Table:
    """Materialize a (small!) Dataset into one Arrow table on the driver.

    Use only for post-aggregation results (pairs, cluster maps, metrics)
    — never on the full corpus-sized datasets. ``empty_schema`` is used
    when the dataset is empty and Ray cannot infer a schema (fully-empty
    lineages report ``schema() is None``).
    """
    tables = ray.get(arrow_block_refs(ds))
    blocks = [b for b in tables if b.num_rows > 0]
    if not blocks:
        # an empty output block still carries the schema; ds.schema()
        # would re-run the plan under limit(1) (see arrow_block_refs)
        typed = [b for b in tables if b.num_columns]
        if typed:
            return typed[0].schema.remove_metadata().empty_table()
        schema = ds.schema()  # ray.data.Schema: .names + .types (arrow DataTypes)
        if schema is None:
            if empty_schema is None:
                raise ValueError("empty dataset with no inferable schema")
            return empty_schema.empty_table()
        return pa.table({n: pa.array([], type=t) for n, t in zip(schema.names, schema.types)})
    return pa.concat_tables(blocks, promote_options="default")
