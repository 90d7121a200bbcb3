"""Driver-light distributed clustering: edges never touch the driver.

The scale companion to ``stages/cluster.py``: edge tables stay as
object-store refs; remote ROUTER tasks read each table and push its
edges to the union-find shard actors; contraction rounds emit spanning
forests as tables (refs); pointer-jumping exchanges collapse
cross-shard chains; the final (doc_id, cluster_id) map is a Dataset of
refs, never a driver dict. Driver memory is O(num_buckets + num_shards)
regardless of corpus size — the requirement a 10^12-doc corpus imposes
(cf. BTS load-balanced distributed union-find, PAPERS.md).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from raydedup.stages.cluster import UnionFindShard
from raydedup.util import arrow_block_refs


@ray.remote
def _route_table(shards: list, n_shards: int, *tables: pa.Table) -> int:
    """Read a GROUP of edge tables and push their edges to the owning
    shards (called as a task — edges go object store -> task -> actor,
    not through the driver; grouping keeps the task count O(cpus), not
    O(edge refs))."""
    nonempty = [t for t in tables if t.num_rows]
    if not nonempty:
        return 0
    table = pa.concat_tables(nonempty)
    a = table.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
    b = table.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    dest = (lo % n_shards + n_shards) % n_shards
    futs = []
    for s in range(n_shards):
        m = dest == s
        if m.any():
            futs.append(shards[s].add_edges.remote(lo[m], hi[m]))
    ray.get(futs)
    return int(a.shape[0])


@ray.remote
def _collapse_local(*tables: pa.Table) -> pa.Table:
    """Full pointer collapse of a forest small enough for ONE task:
    iterate parent -> grandparent over the whole table until stable.
    One worker task, zero exchange rounds — the fast path that replaces
    ~log(depth) driver-synchronized jump rounds when the contracted
    forest is only thousands of rows (the common case far below the
    scale crossover; the multi-bucket exchange path below remains the
    10^12-row route)."""
    nonempty = [t for t in tables if t.num_rows]
    if not nonempty:
        donor = next((t for t in tables if t.num_columns), None)
        return donor.slice(0, 0) if donor is not None else pa.table({})
    t = pa.concat_tables(nonempty)
    a = t.column("a").to_numpy(zero_copy_only=False).copy()
    b = t.column("b").to_numpy(zero_copy_only=False)
    order = np.argsort(b, kind="stable")
    bs = b[order]
    for _ in range(64):
        pos = np.minimum(np.searchsorted(bs, a), bs.shape[0] - 1)
        hit = bs[pos] == a
        new_a = np.where(hit, a[order][pos], a)
        if (new_a == a).all():
            break
        a = new_a
    return pa.table(
        {"a": pa.array(a, type=pa.int64()), "b": pa.array(b, type=pa.int64())}
    )


@ray.remote
def _strip_changed(t: pa.Table):
    ch = t.column("_changed")
    n = int(ch[0].as_py()) if t.num_rows else 0
    return t.drop_columns(["_changed"]), n


def _pointer_jump(
    forest_refs: list, num_buckets: int, max_rounds: int = 48, n_rows: int | None = None
) -> list:
    """Collapse parent chains (m -> p, p -> r  =>  m -> r) without the
    driver: each round exchange-joins the forest with itself on
    (parent == member). Roots are strictly decreasing, so depth shrinks
    geometrically (depth 2^rounds), so 48 rounds covers any physical
    chain; convergence = zero changed rows (a per-bucket count, the only
    thing the driver sees) exits far earlier in practice.

    ``n_rows`` (when the caller knows the forest size — bytes from the
    contraction signatures, never edges) routes small forests through
    ``_collapse_local``: one task does the whole collapse internally
    instead of paying several exchange waves of fixed latency."""
    from raydedup.stages.exchange import hash_exchange_join

    if n_rows is not None and n_rows <= 2_000_000:
        return [_collapse_local.remote(*forest_refs)]

    for _ in range(max_rounds):
        def jump(left: pa.Table, right: pa.Table) -> pa.Table:
            # left: edges keyed by parent a; right: edges keyed by member b
            # (same forest) -> replace left's parent with its grandparent.
            # Vectorized: searchsorted join on the sorted member array
            # (ADVICE r1 — no to_pylist/dict row loops in the 10^12 path)
            rb = right.column("b").to_numpy(zero_copy_only=False)
            ra = right.column("a").to_numpy(zero_copy_only=False)
            order = np.argsort(rb, kind="stable")
            rb, ra = rb[order], ra[order]
            a = left.column("a").to_numpy(zero_copy_only=False)
            if rb.shape[0] == 0 or a.shape[0] == 0:
                new_a = a
            else:
                pos = np.minimum(np.searchsorted(rb, a), rb.shape[0] - 1)
                hit = rb[pos] == a
                new_a = np.where(hit, ra[pos], a)
            n_changed = int((new_a != a).sum())
            out = pa.table(
                {
                    "a": pa.array(new_a, type=pa.int64()),
                    "b": left.column("b"),
                    "_changed": pa.array(
                        np.full(a.shape[0], n_changed, dtype=np.int64), type=pa.int64()
                    ),
                }
            )
            return out

        joined = hash_exchange_join(
            forest_refs, forest_refs, "a", "b", jump, num_buckets=num_buckets
        )
        stripped = [_strip_changed.options(num_returns=2).remote(r) for r in joined]
        forest_refs = [s[0] for s in stripped]
        changed = sum(ray.get([s[1] for s in stripped]))
        if changed == 0:
            break
    return forest_refs


@ray.remote
def _route_by_member(shards: list, n_shards: int, table: pa.Table) -> int:
    if table.num_rows == 0:
        return 0
    a = table.column("a").to_numpy(zero_copy_only=False)
    b = table.column("b").to_numpy(zero_copy_only=False)
    dest = (b % n_shards + n_shards) % n_shards
    futs = []
    for s in range(n_shards):
        m = dest == s
        if m.any():
            futs.append(shards[s].add_edges.remote(a[m], b[m]))
    ray.get(futs)
    return int(a.shape[0])


@ray.remote
def _edge_sig(table: pa.Table) -> tuple[int, int]:
    """Order-insensitive (count, xor-of-mixed-pair-hash) signature."""
    from raydedup.hashing import U64, hash_pair_u64

    if table.num_rows == 0:
        return (0, 0)
    a = table.column("a").to_numpy(zero_copy_only=False).view(U64)
    b = table.column("b").to_numpy(zero_copy_only=False).view(U64)
    h = hash_pair_u64(a, b)
    return (int(table.num_rows), int(np.bitwise_xor.reduce(h)))


def cluster_edge_refs(
    edge_refs: list,
    n_shards: int = 8,
    num_buckets: int = 32,
    max_rounds: int = 32,
    shards: list | None = None,
    kill: bool = True,
) -> list:
    """Edge table refs -> component forest refs (a=root, b=member).

    Round 0 routes raw edges by min endpoint; every later round routes
    the contracted spanning edges by MEMBER, so a member with parents in
    several shards gets them merged (multi-parent conflicts co-locate at
    shard(member)). Rounds repeat until the edge multiset is stable
    (checked with per-shard order-insensitive signatures — bytes to the
    driver, never edges); at stability every member has a unique parent
    and only cross-shard CHAINS remain, which pointer jumping collapses.

    Pass ``shards`` (and ``kill=False`` on earlier calls) to run several
    incremental rounds against the SAME shard actors: the union-find
    state persists, so a later call only routes its NEW edges instead of
    re-spawning actors and re-routing the whole forest (run_dedup_scale
    uses this for the containment-link merge round).
    """
    import math

    if shards is None:
        shards = [UnionFindShard.remote(i, n_shards) for i in range(n_shards)]
    group = max(1, math.ceil(len(edge_refs) / (4 * n_shards)))
    ray.get(
        [
            _route_table.remote(shards, n_shards, *edge_refs[i : i + group])
            for i in range(0, len(edge_refs), group)
        ]
    )
    prev_sig = None
    tables: list = []
    sig: tuple = ()
    for _ in range(max_rounds):
        tables = [s.contract_table.remote() for s in shards]
        sig = tuple(ray.get([_edge_sig.remote(t) for t in tables]))
        if sig == prev_sig:
            break
        prev_sig = sig
        ray.get([_route_by_member.remote(shards, n_shards, t) for t in tables])
    if kill:
        for s in shards:
            ray.kill(s)
    # forest size is already on the driver (the stability signatures
    # carry per-shard row counts — bytes, not edges): small forests take
    # the single-task collapse, huge ones the exchange jump rounds
    n_rows = int(sum(c for c, _ in sig)) if sig else 0
    return _pointer_jump(tables, num_buckets, n_rows=n_rows)


def assignments_exchange(docs, forest_refs: list, num_buckets: int = 32):
    """docs x forest -> (doc_id, cluster_id, is_representative) Dataset,
    via a left exchange join (docs without a parent are their own
    cluster). No broadcast dict — works when the dup-doc map itself is
    too large for any single node."""
    import ray.data as rd

    from raydedup.stages.exchange import hash_exchange_join

    def assign(left: pa.Table, right: pa.Table) -> pa.Table:
        # vectorized searchsorted join (no per-row dict lookups)
        rb = right.column("b").to_numpy(zero_copy_only=False)
        ra = right.column("a").to_numpy(zero_copy_only=False)
        order = np.argsort(rb, kind="stable")
        rb, ra = rb[order], ra[order]
        ids = left.column("doc_id").to_numpy(zero_copy_only=False)
        if rb.shape[0] == 0 or ids.shape[0] == 0:
            roots = ids
        else:
            pos = np.minimum(np.searchsorted(rb, ids), rb.shape[0] - 1)
            hit = rb[pos] == ids
            roots = np.where(hit, ra[pos], ids)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "cluster_id": pa.array(roots, type=pa.int64()),
                "is_representative": pa.array(ids == roots),
            }
        )

    refs = hash_exchange_join(
        docs.select_columns(["doc_id"]), forest_refs, "doc_id", "b", assign, num_buckets
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
    edges route to sharded union-find actors from tasks, contraction
    repeats until the spanning forest is stable, pointer-jump exchanges
    collapse cross-shard chains — driver traffic is per-shard
    signatures, never edges (stages/cluster_scale.py:134). The node set
    is derived refs-only too: per-bucket endpoint dedup on the same
    exchange that co-partitions the assignment join."""
    from raydedup.stages.exchange import hash_exchange_apply, refs_to_dataset

    # one execution of the edge lineage; the SAME block refs feed the
    # union-find routing AND the endpoint distinct (re-using refs beats
    # re-running the Dataset twice — each lazy consumer is its own job)
    edge_refs = list(arrow_block_refs(edges.select_columns(["a", "b"])))
    forest = cluster_edge_refs(edge_refs, n_shards=n_shards, num_buckets=num_buckets)

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
