"""util.arrow_block_refs keeps Dataset.to_arrow_refs()'s contract (refs
to Arrow tables, non-Arrow blocks converted) and runs the plan once: no
trailing schema() probe that re-executes a streamed plan under limit(1)
and then cancels the probe's tasks."""

import os
import uuid

import pyarrow as pa

import ray
import ray.data as rd

from raydedup.util import arrow_block_refs, to_arrow_table


def _values(refs) -> list:
    tables = ray.get(refs)
    assert all(isinstance(t, pa.Table) for t in tables)
    return sorted(pa.concat_tables(tables).column("a").to_pylist())


def test_arrow_and_pandas_blocks(ray_session):
    t = pa.table({"a": list(range(12))})
    arrow = rd.from_arrow(t).repartition(3)
    assert _values(arrow_block_refs(arrow)) == list(range(12))
    pandas = arrow.map_batches(lambda d: d, batch_format="pandas")
    assert _values(arrow_block_refs(pandas)) == list(range(12))


def test_plan_runs_once(ray_session, tmp_path):
    marks = str(tmp_path)

    def mark(t: pa.Table) -> pa.Table:
        open(os.path.join(marks, uuid.uuid4().hex), "w").close()
        return t

    ds = (
        rd.from_arrow(pa.table({"a": list(range(40))}))
        .repartition(4)
        .map_batches(mark, batch_format="pyarrow", batch_size=None)
    )
    refs = arrow_block_refs(ds)
    assert _values(refs) == list(range(40))
    assert len(os.listdir(marks)) == len(refs) == 4


def test_empty_result_keeps_schema(ray_session):
    ds = rd.from_arrow(pa.table({"a": pa.array([1, 2], pa.int64())})).map_batches(
        lambda t: t.slice(0, 0), batch_format="pyarrow"
    )
    out = to_arrow_table(ds)
    assert out.num_rows == 0 and out.schema == pa.schema([("a", pa.int64())])
