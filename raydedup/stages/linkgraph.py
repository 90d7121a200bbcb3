"""Host link-graph aggregation + integer fixed-point PageRank.

The web-curation view the reference's per-resource statistics surface
(`PanakoStorageKV.java:381-467` min/max/avg rollups) cannot give: rank
hosts by their position in the crawl's link graph, so curation can
down-weight link farms and up-weight well-cited hosts. Edges arrive as
(src, dst) int64 pairs (host ids); the operator

  1. deduplicates edges and computes per-source out-degree with a
     per-batch combiner followed by ONE src-keyed exchange, and
  2. runs ``iters`` rounds of PageRank in EXACT integer arithmetic:

       r_0(v)      = scale
       contrib(u)  = r_i(u) // outdeg(u)
       r_{i+1}(v)  = (base_num*scale)//den + (damp_num * S_v)//den
                     where S_v = sum over in-edges u->v of contrib(u)

     Every operation is an order-independent int64 sum or a positive
     floor division, so the result is bit-reproducible across block
     layouts, CPU counts and engines (the DuckDB oracle mirrors the
     same recurrence with unrolled CTEs). Dangling mass (nodes with no
     out-edges) is dropped — identically on both sides.

Scale shape: below ``edge_cap`` distinct edges the aggregated graph is
collected once and iterated with np.bincount on factorized node ids
(the host graph is O(hosts), tiny next to the docs that produced it).
Above the cap, iterations run distributed: the edge split wave (keyed
by src) is built ONCE and reused every round; each round is one
co-located (edges x ranks) join emitting per-dst partial contribution
sums re-split on dst, then one (nodes x contribs) join producing the
new rank blocks — 2 exchange waves per iteration, the rank/contrib
tables are O(nodes) skinny int64 pairs and the edge payload never
moves again after the first split.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
from ray.data import Dataset

from raydedup.stages.exchange import (
    _block_nrows,
    default_buckets,
    reduce_wave,
    refs_to_dataset,
    split_dataset,
)

I64 = np.int64

_SCHEMA = pa.schema([("node", pa.int64()), ("rank", pa.int64())])
_EDGE_SCHEMA = pa.schema(
    [("src", pa.int64()), ("dst", pa.int64()), ("outdeg", pa.int64())]
)


def _unique_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (a, b) rows, lexsorted by (a, b)."""
    if a.shape[0] == 0:
        return a, b
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    keep = np.empty(a.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    keep[1:] |= b[1:] != b[:-1]
    return a[keep], b[keep]


def _dedupe_edges_batch(t: pa.Table) -> pa.Table:
    """Per-batch combiner: distinct (src, dst), self-loops dropped."""
    if t.num_rows == 0 or t.num_columns == 0:
        return _EDGE_SCHEMA.empty_table().select(["src", "dst"])
    s = t.column("src").to_numpy(zero_copy_only=False).astype(I64)
    d = t.column("dst").to_numpy(zero_copy_only=False).astype(I64)
    m = s != d
    s, d = _unique_pairs(s[m], d[m])
    return pa.table({"src": pa.array(s, pa.int64()), "dst": pa.array(d, pa.int64())})


def _edge_agg_kernel(t: pa.Table) -> pa.Table:
    """In-bucket: global distinct edges + out-degree per src."""
    if t.num_rows == 0 or t.num_columns == 0:
        return _EDGE_SCHEMA.empty_table()
    s = t.column("src").to_numpy(zero_copy_only=False).astype(I64)
    d = t.column("dst").to_numpy(zero_copy_only=False).astype(I64)
    s, d = _unique_pairs(s, d)
    # out-degree via run lengths over the lexsorted src column
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    lens = np.diff(np.r_[starts, s.shape[0]])
    deg = np.repeat(lens.astype(I64), lens)
    return pa.table(
        {
            "src": pa.array(s, pa.int64()),
            "dst": pa.array(d, pa.int64()),
            "outdeg": pa.array(deg, pa.int64()),
        }
    )


def aggregate_edges(edges: Dataset, num_buckets: int | None = None) -> list:
    """Distinct (src, dst, outdeg) as per-src-bucket refs (ONE exchange,
    per-batch combiner first). Shape: split-wave [[bucket_k ...]] with a
    single reduce row, reusable by every PageRank iteration."""
    if num_buckets is None:
        num_buckets = default_buckets()
    combined = edges.map_batches(_dedupe_edges_batch, batch_format="pyarrow")
    split = split_dataset(combined, "src", num_buckets)
    # fused reduce+resplit would re-key; edges stay keyed by src, so a
    # plain reduce per bucket suffices
    return [reduce_wave(split, _edge_agg_kernel, num_buckets)]


def _nodes_kernel(t: pa.Table) -> pa.Table:
    if t.num_rows == 0 or t.num_columns == 0:
        return pa.schema([("node", pa.int64())]).empty_table()
    n = np.unique(t.column("node").to_numpy(zero_copy_only=False).astype(I64))
    return pa.table({"node": pa.array(n, pa.int64())})


def _contrib_kernel(edges_t: pa.Table, ranks_t: pa.Table) -> pa.Table:
    """One bucket's (edges x ranks) join: per-dst partial contribution
    sums. Both sides are keyed by the same node-id modulo, so every src
    present in the bucket's edges has its rank here."""
    out_schema = pa.schema([("dst", pa.int64()), ("s", pa.int64())])
    if edges_t.num_rows == 0 or ranks_t.num_rows == 0:
        return out_schema.empty_table()
    s = edges_t.column("src").to_numpy(zero_copy_only=False).astype(I64)
    d = edges_t.column("dst").to_numpy(zero_copy_only=False).astype(I64)
    deg = edges_t.column("outdeg").to_numpy(zero_copy_only=False).astype(I64)
    rn = ranks_t.column("node").to_numpy(zero_copy_only=False).astype(I64)
    rr = ranks_t.column("rank").to_numpy(zero_copy_only=False).astype(I64)
    ro = np.argsort(rn, kind="stable")
    rn_s, rr_s = rn[ro], rr[ro]
    pos = np.searchsorted(rn_s, s)
    contrib = rr_s[pos] // deg
    # partial per-dst sums (combiner before the dst exchange)
    do = np.argsort(d, kind="stable")
    d_s, c_s = d[do], contrib[do]
    starts = np.flatnonzero(np.r_[True, d_s[1:] != d_s[:-1]])
    sums = np.add.reduceat(c_s, starts)
    return pa.table(
        {"dst": pa.array(d_s[starts], pa.int64()), "s": pa.array(sums, pa.int64())}
    )


def _make_rank_kernel(base: int, damp_num: int, damp_den: int):
    def _rank_kernel(nodes_t: pa.Table, contribs_t: pa.Table) -> pa.Table:
        if nodes_t.num_rows == 0 or nodes_t.num_columns == 0:
            return _SCHEMA.empty_table()
        n = nodes_t.column("node").to_numpy(zero_copy_only=False).astype(I64)
        n = np.sort(n)
        r = np.full(n.shape[0], base, dtype=I64)
        if contribs_t.num_rows:
            d = contribs_t.column("dst").to_numpy(zero_copy_only=False).astype(I64)
            s = contribs_t.column("s").to_numpy(zero_copy_only=False).astype(I64)
            do = np.argsort(d, kind="stable")
            d_s, s_s = d[do], s[do]
            starts = np.flatnonzero(np.r_[True, d_s[1:] != d_s[:-1]])
            tot = np.add.reduceat(s_s, starts)
            pos = np.searchsorted(n, d_s[starts])
            r[pos] += (damp_num * tot) // damp_den
        return pa.table(
            {"node": pa.array(n, pa.int64()), "rank": pa.array(r, pa.int64())}
        )

    return _rank_kernel


def pagerank(
    edges: Dataset,
    iters: int = 4,
    scale: int = 10**9,
    damp_num: int = 85,
    damp_den: int = 100,
    num_buckets: int | None = None,
    edge_cap: int = 2_000_000,
) -> Dataset:
    """Integer fixed-point PageRank over (src, dst) edges -> Dataset
    (node, rank) with rank at ``scale`` fixed-point resolution. Exact
    and partition-invariant (see module docstring)."""
    if num_buckets is None:
        num_buckets = default_buckets()
    base = (damp_den - damp_num) * scale // damp_den
    edge_wave = aggregate_edges(edges, num_buckets)
    n_edges = sum(ray.get([_block_nrows.remote(r) for r in edge_wave[0]]))
    if n_edges == 0:
        return ray.data.from_arrow(_SCHEMA.empty_table())
    if n_edges <= edge_cap:
        parts = [t for t in ray.get(edge_wave[0]) if t.num_rows]
        et = pa.concat_tables(parts)
        s = et.column("src").to_numpy(zero_copy_only=False).astype(I64)
        d = et.column("dst").to_numpy(zero_copy_only=False).astype(I64)
        deg = et.column("outdeg").to_numpy(zero_copy_only=False).astype(I64)
        nodes = np.unique(np.concatenate([s, d]))
        si = np.searchsorted(nodes, s)
        di = np.searchsorted(nodes, d)
        r = np.full(nodes.shape[0], scale, dtype=I64)
        for _ in range(iters):
            contrib = r[si] // deg
            # int64 add.at (bincount's float weights lose exactness
            # above 2^53)
            sums = np.zeros(nodes.shape[0], dtype=I64)
            np.add.at(sums, di, contrib)
            r = base + (damp_num * sums) // damp_den
        return ray.data.from_arrow(
            pa.table(
                {"node": pa.array(nodes, pa.int64()), "rank": pa.array(r, pa.int64())}
            )
        )

    # distributed path: node set = distinct(src) U distinct(dst)
    @ray.remote
    def _endpoints(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return pa.schema([("node", pa.int64())]).empty_table()
        s = t.column("src").to_numpy(zero_copy_only=False).astype(I64)
        d = t.column("dst").to_numpy(zero_copy_only=False).astype(I64)
        return pa.table({"node": pa.array(np.unique(np.concatenate([s, d])))})

    # src buckets already hold src nodes; dst endpoints need a re-key
    ep_refs = [_endpoints.remote(r) for r in edge_wave[0]]
    node_split = split_dataset(ep_refs, "node", num_buckets)
    node_refs = reduce_wave(node_split, _nodes_kernel, num_buckets)
    node_wave = [node_refs]

    @ray.remote
    def _init_ranks(nt: pa.Table, scale_: int) -> pa.Table:
        if nt.num_rows == 0 or nt.num_columns == 0:
            return _SCHEMA.empty_table()
        n = nt.column("node").to_numpy(zero_copy_only=False).astype(I64)
        return pa.table(
            {
                "node": pa.array(n, pa.int64()),
                "rank": pa.array(np.full(n.shape[0], scale_, dtype=I64), pa.int64()),
            }
        )

    rank_wave = [[_init_ranks.remote(r, scale) for r in node_refs]]
    rank_kernel = _make_rank_kernel(base, damp_num, damp_den)
    for _ in range(iters):
        contrib_wave = reduce_wave(
            edge_wave, _contrib_kernel, num_buckets, right=rank_wave, out_key="dst"
        )
        rank_refs = reduce_wave(node_wave, rank_kernel, num_buckets, right=contrib_wave)
        rank_wave = [rank_refs]
    return refs_to_dataset(rank_wave[0], _SCHEMA)
