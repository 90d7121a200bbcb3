"""Exchange robustness to Ray's empty-block passthrough: map_batches
SKIPS the UDF on 0-row input blocks and emits 0-COLUMN schema-less
empties — any filter stage upstream of an exchange produces them. The
split/reduce kernels must never hand such a table to a kernel.

The apply and join tests run each input through the plain reduce and
through the fused re-split reduce (``reduce_wave(..., out_key=...)``
feeding a second reduce wave).

Kernels are defined INSIDE the tests so cloudpickle ships them by value
(the tests package is not importable in Ray workers).
"""

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from raydedup.stages.exchange import (
    hash_exchange_apply,
    hash_exchange_join,
    reduce_wave,
    split_dataset,
)

NB = 8


def _sum_kernel_factory(col: str = "v"):
    def sum_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"key": pa.array([], pa.int64()), "s": pa.array([], pa.int64())}
            )
        k = t.column("key").to_numpy(zero_copy_only=False)
        v = t.column(col).to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        k, v = k[order], v[order]
        b = np.empty(k.shape[0], dtype=bool)
        b[0] = True
        b[1:] = k[1:] != k[:-1]
        st = np.flatnonzero(b)
        return pa.table(
            {
                "key": pa.array(k[st], type=pa.int64()),
                "s": pa.array(np.add.reduceat(v, st), type=pa.int64()),
            }
        )

    return sum_kernel


def _filtered_ds(threshold):
    """Two blocks; the filter map empties blocks whose keys exceed the
    threshold, and the NEXT map's passthrough turns them schema-less."""
    a = pa.table(
        {
            "key": pa.array([1, 1, 2], pa.int64()),
            "v": pa.array([10, 20, 30], pa.int64()),
        }
    )
    b = pa.table(
        {
            "key": pa.array([3, 3], pa.int64()),
            "v": pa.array([5, 5], pa.int64()),
        }
    )
    ds = rd.from_arrow([a, b])

    def filt(t: pa.Table) -> pa.Table:
        keys = t.column("key").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(keys < threshold))

    # second identity-ish map: Ray skips it on the emptied block and
    # emits the schema-less empty the exchange must survive
    return ds.map_batches(filt, batch_format="pyarrow").map_batches(
        lambda t: t, batch_format="pyarrow"
    )


def _collect(refs) -> pa.Table:
    parts = [t for t in ray.get(refs) if t.num_rows]
    return pa.concat_tables(parts) if parts else pa.table({})


def _apply(ds, form: str) -> pa.Table:
    """Per-key sums of ``ds``: one hash_exchange_apply, or a re-split
    reduce whose output a second reduce wave sums again."""
    if form == "plain":
        return hash_exchange_apply(ds, "key", _sum_kernel_factory())
    wave = reduce_wave(
        split_dataset(ds, "key", NB), _sum_kernel_factory(), NB, out_key="key"
    )
    assert len(wave) == NB and all(len(w) == NB for w in wave)
    return _collect(reduce_wave(wave, _sum_kernel_factory("s"), NB))


FORMS = ("plain", "resplit")


def test_apply_survives_schemaless_empty_blocks(ray_session):
    for form in FORMS:
        ds = _filtered_ds(3)  # empties the second block
        out = _apply(ds, form)
        got = dict(zip(out.column("key").to_pylist(), out.column("s").to_pylist()))
        assert got == {1: 30, 2: 30}, form


def test_apply_all_blocks_schemaless(ray_session):
    for form in FORMS:
        ds = _filtered_ds(0)  # empties everything
        out = _apply(ds, form)
        assert out.num_rows == 0, form


def test_join_survives_schemaless_side(ray_session):
    for form in FORMS:
        _check_schemaless_join(form)


def _check_schemaless_join(form: str) -> None:
    left = _filtered_ds(3)
    right = _filtered_ds(0)  # fully schema-less side

    def join_kernel(lt: pa.Table, rt: pa.Table) -> pa.Table:
        if lt.num_rows == 0 or rt.num_rows == 0:
            return pa.table({"key": pa.array([], pa.int64())})
        lk = np.unique(lt.column("key").to_numpy(zero_copy_only=False))
        rk = np.unique(rt.column("key").to_numpy(zero_copy_only=False))
        both = np.intersect1d(lk, rk)
        return pa.table({"key": pa.array(both, type=pa.int64())})

    if form == "plain":
        refs = hash_exchange_join(left, right, "key", "key", join_kernel)
    else:
        wave = reduce_wave(
            split_dataset(left, "key", NB),
            join_kernel,
            NB,
            right=split_dataset(right, "key", NB),
            out_key="key",
        )
        refs = reduce_wave(wave, lambda t: t, NB)
    rows = sum(t.num_rows for t in ray.get(refs) if t.num_columns)
    assert rows == 0, form  # no crash, empty join


@pytest.mark.parametrize("first", ["typed_empty", "no_columns"])
def test_prep_split_of_empty_group_has_prep_columns(ray_session, first):
    """A split group whose blocks are all empty is split as ``prep``'s
    empty output: in a bucket that is empty everywhere, the reduce
    kernel reads a column that only ``prep`` makes."""
    schema = pa.schema([("key", pa.int64()), ("v", pa.int64()), ("w", pa.int64())])

    def prep(t: pa.Table) -> pa.Table:
        if not t.num_columns:
            return schema.empty_table()
        return t.append_column("w", pa.compute.multiply(t.column("v"), 10))

    def kernel(t: pa.Table) -> pa.Table:
        return t.group_by("key").aggregate([("w", "sum")])

    empty = pa.table({"key": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
    blocks = [
        empty if first == "typed_empty" else pa.table({}),
        pa.table({"key": pa.array([1, 2], pa.int64()), "v": pa.array([1, 2], pa.int64())}),
        pa.table({"key": pa.array([1], pa.int64()), "v": pa.array([4], pa.int64())}),
    ]
    # one block per split group, so the first group is all empty; keys 1
    # and 2 leave most of the NB buckets empty in every group
    split = split_dataset([ray.put(b) for b in blocks], "key", NB, prep=prep)
    assert len(split) == len(blocks)
    out = _collect(reduce_wave(split, kernel, NB))
    got = dict(zip(out.column("key").to_pylist(), out.column("w_sum").to_pylist()))
    assert got == {1: 50, 2: 20}
