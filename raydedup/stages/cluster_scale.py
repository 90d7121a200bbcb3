"""Driver-light distributed clustering: edges never touch the driver.

The scale companion to ``stages/cluster.py``: edge tables stay as
object-store refs, and connected components is one task DAG the driver
submits without waiting on it. Leaf tasks run the vectorized
``cluster_edges_arrays`` kernel over contiguous groups of edge refs and
emit their spanning forests as (a=root, b=member) tables; one merge task
contracts the leaf forests into the root forest. Components of the
union of spanning forests equal components of the union of edge sets,
so the merge is exact, and its output is already collapsed (every
member points at its component-min root): no pointer jumping follows.
The final (doc_id, cluster_id) map is a Dataset of refs, never a driver
dict. Driver memory is O(edge refs); the root task holds one row per
duplicate doc (a merge tree of spanning forests is the one-partition
case of BTS load-balanced distributed union-find, PAPERS.md; the root's
measured footprint is in BASELINE.md).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

import ray

from raydedup.stages.cluster import cluster_edges_arrays
from raydedup.util import arrow_block_refs

FOREST_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64())])


@ray.remote
def _forest(*tables: pa.Table) -> pa.Table:
    """Edge tables (or child forests) -> one collapsed spanning forest
    (a=root, b=member), one row per non-root node. Only columns ``a, b``
    are read, so verified edges keep their score columns upstream."""
    parts = [t for t in tables if t.num_rows]
    if not parts:
        return FOREST_SCHEMA.empty_table()
    a = np.concatenate([t.column("a").to_numpy(zero_copy_only=False) for t in parts])
    b = np.concatenate([t.column("b").to_numpy(zero_copy_only=False) for t in parts])
    members, roots = cluster_edges_arrays(a.astype(np.int64), b.astype(np.int64))
    keep = members != roots
    return pa.table({"a": roots[keep], "b": members[keep]}, schema=FOREST_SCHEMA)


def cluster_edge_refs(edge_refs: list, n_shards: int = 8, num_buckets: int = 32) -> list:
    """Edge table refs -> ``[root forest ref]`` (a=root, b=member, one
    row per duplicate doc), submitted as a task DAG without a driver wait.

    ``n_shards`` is the tree width: at most ``n_shards`` leaf tasks each
    contract a contiguous group of edge refs, and when there are several
    leaves one merge task contracts their forests (its fan-in is at most
    ``n_shards``, so one merge level always suffices). No refs, or only
    empty ones, give a typed empty forest.

    ``num_buckets`` shapes nothing: the forest is one table. The
    parameter stays so callers that size it with the exchange width keep
    their call signature."""
    group = max(1, math.ceil(len(edge_refs) / max(1, n_shards)))
    leaves = [
        _forest.remote(*edge_refs[i : i + group])
        for i in range(0, len(edge_refs), group)
    ]
    return leaves if len(leaves) == 1 else [_forest.remote(*leaves)]


ASSIGNMENT_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("cluster_id", pa.int64()), ("is_representative", pa.bool_())]
)


def assign_roots(left: pa.Table, right: pa.Table) -> pa.Table:
    """Assignment join kernel: a bucket of docs (only ``doc_id`` is
    read) x the same bucket of the forest (a=root, b=member) ->
    (doc_id, cluster_id, is_representative); docs without a parent are
    their own cluster. Vectorized searchsorted join, no per-row dict."""
    if left.num_rows == 0:
        return ASSIGNMENT_SCHEMA.empty_table()
    ids = left.column("doc_id").to_numpy(zero_copy_only=False)
    roots = ids
    if right.num_rows:
        rb = right.column("b").to_numpy(zero_copy_only=False)
        ra = right.column("a").to_numpy(zero_copy_only=False)
        order = np.argsort(rb, kind="stable")
        rb, ra = rb[order], ra[order]
        pos = np.minimum(np.searchsorted(rb, ids), rb.shape[0] - 1)
        roots = np.where(rb[pos] == ids, ra[pos], ids)
    return pa.table(
        {"doc_id": ids, "cluster_id": roots, "is_representative": ids == roots},
        schema=ASSIGNMENT_SCHEMA,
    )


def assignments_exchange(docs, forest_refs: list, num_buckets: int = 32):
    """docs x forest -> (doc_id, cluster_id, is_representative) Dataset,
    via a left exchange join (assign_roots). No broadcast dict — works
    when the dup-doc map itself is too large for any single node."""
    import ray.data as rd

    from raydedup.stages.exchange import hash_exchange_join

    refs = hash_exchange_join(
        docs.select_columns(["doc_id"]), forest_refs, "doc_id", "b", assign_roots, num_buckets
    )
    return rd.from_arrow_refs(refs)


def connected_components(
    edges, n_shards: int = 8, num_buckets: int = 32
):
    """Generic refs-only connected components over an (a:int64, b:int64)
    edge Dataset: every DISTINCT ENDPOINT gets (node, component) where
    component = the minimum node id reachable from it (the same
    min-label convention the dedup forest uses; SQL mirror = recursive
    min-reachable-label CTE).

    This is the dedup pipeline's clustering stage exposed standalone:
    the edge refs feed cluster_edge_refs' leaf-and-merge task DAG
    (``n_shards`` leaves), and no edge reaches the driver. The node set
    is derived refs-only too: per-bucket endpoint dedup on the same
    exchange that co-partitions the assignment join."""
    from raydedup.stages.exchange import hash_exchange_apply, refs_to_dataset

    # one execution of the edge lineage; the SAME block refs feed the
    # forest DAG AND the endpoint distinct (re-using refs beats
    # re-running the Dataset twice — each lazy consumer is its own job)
    edge_refs = list(arrow_block_refs(edges.select_columns(["a", "b"])))
    forest = cluster_edge_refs(edge_refs, n_shards=n_shards)

    @ray.remote
    def _endpoints(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return pa.table({"doc_id": pa.array([], pa.int64())})
        flat = np.unique(
            np.concatenate(
                [
                    t.column("a").to_numpy(zero_copy_only=False),
                    t.column("b").to_numpy(zero_copy_only=False),
                ]
            )
        )
        return pa.table({"doc_id": pa.array(flat, type=pa.int64())})

    def uniq(t: pa.Table) -> pa.Table:
        ids = np.unique(t.column("doc_id").to_numpy(zero_copy_only=False))
        return pa.table({"doc_id": pa.array(ids, type=pa.int64())})

    ep_refs = [_endpoints.remote(r) for r in edge_refs]
    node_refs = hash_exchange_apply(ep_refs, "doc_id", uniq, num_buckets, collect=False)
    nodes = refs_to_dataset(node_refs, pa.schema([("doc_id", pa.int64())]))
    asg = assignments_exchange(nodes, forest, num_buckets)

    def rename(t: pa.Table) -> pa.Table:
        return pa.table(
            {"node": t.column("doc_id"), "component": t.column("cluster_id")}
        )

    return asg.map_batches(rename, batch_format="pyarrow")
