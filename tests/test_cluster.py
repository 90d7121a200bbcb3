"""Connected-components backends: the driver kernel and the scale
path's forest task DAG must produce the components of the reference
union-find (graft extension; no reference analog — Panako emits pairs
only, ``cli/Deduplication.java:90-108``)."""

import numpy as np
import pandas as pd
import pytest

from raydedup.stages.cluster import UnionFind, cluster_edges_arrays


def _rand_edges(n_nodes=500, n_edges=800, seed=5):
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.integers(0, n_nodes, size=n_edges, dtype=np.int64)
    b = rng.integers(0, n_nodes, size=n_edges, dtype=np.int64)
    m = a != b
    return pd.DataFrame({"a": a[m], "b": b[m]})


def _canon(components: dict[int, int]) -> dict[int, int]:
    return dict(sorted(components.items()))


def test_unionfind_basic():
    uf = UnionFind()
    uf.union(1, 2)
    uf.union(2, 3)
    uf.union(10, 11)
    assert uf.find(3) == 1
    assert uf.find(11) == 10
    comp = uf.components()
    assert comp[3] == 1 and comp[2] == 1 and comp[11] == 10


def test_root_is_min_member():
    uf = UnionFind()
    uf.union(5, 9)
    uf.union(9, 2)
    uf.union(7, 2)
    assert all(r == 2 for r in (uf.find(5), uf.find(9), uf.find(7)))


def _brute_components(df: pd.DataFrame) -> dict[int, int]:
    uf = UnionFind()
    for a, b in zip(df["a"], df["b"]):
        uf.union(int(a), int(b))
    return uf.components()


def test_driver_matches_bruteforce():
    df = _rand_edges()
    members, roots = cluster_edges_arrays(
        df["a"].to_numpy(np.int64), df["b"].to_numpy(np.int64)
    )
    got = dict(zip(members.tolist(), roots.tolist()))
    assert _canon(got) == _canon(_brute_components(df))


def _forest_components(df: pd.DataFrame, n_refs: int = 5, n_shards: int = 2) -> dict:
    """Run ``df``'s edges through cluster_edge_refs split over ``n_refs``
    table refs; ``n_shards=2`` over >= 5 refs gives 2 leaf tasks with
    >= 2 refs each and a merge task. Returns {member: root} of the one
    root forest table."""
    import pyarrow as pa
    import ray

    from raydedup.stages.cluster_scale import cluster_edge_refs

    refs = [
        ray.put(pa.Table.from_pandas(df.iloc[idx], preserve_index=False))
        for idx in np.array_split(np.arange(len(df)), n_refs)
    ]
    forest = ray.get(cluster_edge_refs(refs, n_shards=n_shards))
    assert len(forest) == 1
    t = forest[0]
    assert t.schema.names == ["a", "b"]
    b = t.column("b").to_pylist()
    assert len(b) == len(set(b))  # one row per member: already collapsed
    return dict(zip(b, t.column("a").to_pylist()))


def _members(components: dict[int, int]) -> dict[int, int]:
    """Non-root rows of a component map (a forest has no root rows)."""
    return {m: r for m, r in components.items() if m != r}


def test_actor_backend_matches_driver(ray_session):
    """The forest task DAG (the scale path's backend) equals UnionFind."""
    df = _rand_edges(n_nodes=2000, n_edges=3000, seed=9)
    got = _forest_components(df)
    assert _canon(got) == _canon(_members(_brute_components(df)))


def test_actor_backend_chain_topology(ray_session):
    # worst case for contraction: one long chain whose pieces land in
    # different leaves, joined only by the merge task
    n = 500
    df = pd.DataFrame(
        {"a": np.arange(n - 1, dtype=np.int64), "b": np.arange(1, n, dtype=np.int64)}
    )
    got = _forest_components(df, n_refs=7)
    assert got == {i: 0 for i in range(1, n)}


def test_forest_dag_of_no_edges(ray_session):
    """Zero refs and all-empty refs give a typed empty (a, b) forest,
    and the assignment join then makes every doc its own cluster."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from raydedup.stages.cluster_scale import assignments_exchange, cluster_edge_refs

    empty = pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    docs = rd.from_arrow(pa.table({"doc_id": pa.array([5, 1, 9, 3], pa.int64())}))
    for refs in ([], [ray.put(empty)] * 5, [ray.put(pa.table({}))] * 3):
        forest = cluster_edge_refs(refs, n_shards=2)
        tables = ray.get(forest)
        assert len(tables) == 1 and tables[0].num_rows == 0
        assert tables[0].schema == empty.schema
        cl = assignments_exchange(docs, forest, num_buckets=4).to_pandas()
        cl = cl.sort_values("doc_id").reset_index(drop=True)
        assert cl.doc_id.tolist() == [1, 3, 5, 9]
        assert (cl.cluster_id == cl.doc_id).all() and cl.is_representative.all()


def test_vectorized_cc_matches_union_find(ray_session):
    """cluster_edges_arrays (min-label + pointer jumping) must equal the
    per-edge union-find on random edge sets, including chains, self
    loops and duplicate edges."""
    import numpy as np

    from raydedup.stages.cluster import cluster_edges_arrays

    rng = np.random.Generator(np.random.PCG64(11))
    for trial in range(20):
        n_nodes = int(rng.integers(2, 200))
        n_edges = int(rng.integers(1, 400))
        a = rng.integers(0, n_nodes, size=n_edges).astype(np.int64) * 7 + 3
        b = rng.integers(0, n_nodes, size=n_edges).astype(np.int64) * 7 + 3
        want = _brute_components(pd.DataFrame({"a": a, "b": b}))
        mem, root = cluster_edges_arrays(a, b)
        got = dict(zip(mem.tolist(), root.tolist()))
        assert got == want, f"trial {trial}"


def test_vectorized_cc_long_chain(ray_session):
    import numpy as np

    from raydedup.stages.cluster import cluster_edges_arrays

    # a 10k-node path graph: worst case for label propagation depth
    ids = np.arange(10_000, dtype=np.int64) + 5
    mem, root = cluster_edges_arrays(ids[:-1], ids[1:])
    assert np.all(root == 5)
    assert set(mem.tolist()) == set(ids.tolist())


def test_cluster_size_histogram(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from raydedup.stages.cluster import cluster_size_histogram

    # clusters: {1,2,3} -> 10, {4} -> 4, {5,6} -> 50, {7} -> 7
    cids = [10, 10, 10, 4, 50, 50, 7]
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(1, 8), pa.int64()),
                "cluster_id": pa.array(cids, pa.int64()),
            }
        )
    )
    for nb in (1, 4):
        t = cluster_size_histogram(ds.repartition(nb))
        assert t.column("cluster_size").to_pylist() == [1, 2, 3]
        assert t.column("n_clusters").to_pylist() == [2, 1, 1]


def test_dup_rate_by_group(ray_session):
    """dup_rate_by_group vs a hand-built assignment: counts and single
    IEEE-division rates per group, groups with zero dups included."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from raydedup.stages.cluster import dup_rate_by_group

    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(8), pa.int64()),
                "source": ["a", "a", "a", "b", "b", "c", "c", "c"],
            }
        )
    ).repartition(3)
    clusters = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(8), pa.int64()),
                # a: one dup of three; b: none; c: two dups of three
                "is_representative": [True, False, True, True, True, True, False, False],
            }
        )
    ).repartition(2)
    t = dup_rate_by_group(docs, clusters, "source").to_pandas()
    assert list(t.source) == ["a", "b", "c"]
    assert list(t.n_docs) == [3, 2, 3]
    assert list(t.n_dup) == [1, 0, 2]
    np.testing.assert_allclose(t.dup_rate, [1 / 3, 0.0, 2 / 3])


def test_assignment_agreement_naive(ray_session):
    """assignment_agreement vs itertools pair counting on random
    assignments; exact_clusters groups byte-identical texts only."""
    import itertools

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from raydedup.stages.agreement import assignment_agreement, exact_clusters

    rng = np.random.default_rng(11)
    n = 200
    ca = rng.integers(0, 12, n)
    cb = rng.integers(0, 9, n)
    a = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "cluster_id": pa.array(ca, pa.int64())})
    ).repartition(4)
    b = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "cluster_id": pa.array(cb, pa.int64())})
    ).repartition(3)
    t = assignment_agreement(a, b).to_pandas().iloc[0]
    sa = sb = sab = tot = 0
    for i, j in itertools.combinations(range(n), 2):
        tot += 1
        x, y = ca[i] == ca[j], cb[i] == cb[j]
        sa += x
        sb += y
        sab += x and y
    assert t.n_docs == n and t.pairs_total == tot
    assert (t.pairs_same_a, t.pairs_same_b, t.pairs_same_both) == (sa, sb, sab)
    assert t.rand_index == (sab + (tot - sa - sb + sab)) / tot

    from raydedup.stages.extract import docs_identity_batch

    docs = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(5), pa.int64()),
                  "text": ["x", "y", "x", "z", "y"]})
    ).map_batches(docs_identity_batch, batch_format="pyarrow")
    ec = (
        exact_clusters(docs).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert list(ec.cluster_id) == [0, 1, 0, 3, 1]


def test_select_representatives_longest(ray_session):
    """select_representatives: per cluster the longest text wins, ties
    break on min doc_id, exactly one rep per cluster, singletons kept."""
    import pyarrow as pa
    import ray.data as rd

    from raydedup.stages.cluster import select_representatives

    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(6), pa.int64()),
                "text": ["aa", "aaaa", "aaaa", "b", "ccc", ""],
            }
        )
    ).repartition(2)
    clusters = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(6), pa.int64()),
                # {0,1,2} one cluster, {3,4} one, {5} singleton
                "cluster_id": pa.array([0, 0, 0, 3, 3, 5], pa.int64()),
            }
        )
    ).repartition(3)
    t = (
        select_representatives(docs, clusters)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # cluster 0: docs 1 and 2 tie at len 4 -> min id 1 wins
    assert list(t.is_representative) == [False, True, False, False, True, True]
    assert t.groupby("cluster_id").is_representative.sum().tolist() == [1, 1, 1]


def test_largest_clusters(ray_session):
    """largest_clusters: exact sizes, size-desc/id-asc order, k cap,
    representative prefix fetched by broadcast probe."""
    import pyarrow as pa
    import ray.data as rd

    from raydedup.stages.cluster import largest_clusters

    # cluster 0: 3 members, cluster 3: 2, cluster 5: 1
    clusters = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(6), pa.int64()),
                "cluster_id": pa.array([0, 0, 0, 3, 3, 5], pa.int64()),
            }
        )
    ).repartition(3)
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(6), pa.int64()),
                "text": [f"doc {i} " + "x" * 100 for i in range(6)],
            }
        )
    ).repartition(2)
    t = largest_clusters(docs, clusters, k=2, prefix_chars=5).to_pandas()
    assert list(t.cluster_id) == [0, 3]
    assert list(t["size"]) == [3, 2]
    assert list(t.rep_prefix) == ["doc 0", "doc 3"]


def test_dup_rate_null_group_label(ray_session):
    """Null group labels count under '' instead of crashing the
    bincount (dictionary_encode emits null indices otherwise)."""
    import pyarrow as pa
    import ray.data as rd

    from raydedup.stages.cluster import dup_rate_by_group

    docs = rd.from_arrow(
        pa.table(
            {"doc_id": pa.array([0, 1, 2], pa.int64()),
             "lang": pa.array(["en", None, "en"])}
        )
    )
    cl = rd.from_arrow(
        pa.table(
            {"doc_id": pa.array([0, 1, 2], pa.int64()),
             "is_representative": [True, False, True]}
        )
    )
    t = dup_rate_by_group(docs, cl, "lang").to_pandas()
    assert list(t.lang) == ["", "en"]
    assert list(t.n_dup) == [1, 0]


def test_dedup_weights(ray_session):
    """dedup_weights: size and 1/size per doc, cluster loss mass sums
    to 1.0 per cluster, partition-invariant."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from raydedup.stages.cluster import dedup_weights

    cl = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(7), pa.int64()),
                "cluster_id": pa.array([0, 0, 0, 3, 3, 5, 6], pa.int64()),
            }
        )
    ).repartition(3)
    t = dedup_weights(cl).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(t.cluster_size) == [3, 3, 3, 2, 2, 1, 1]
    np.testing.assert_allclose(t.weight, 1.0 / t.cluster_size)
    mass = t.groupby("cluster_id").weight.sum()
    np.testing.assert_allclose(mass, 1.0)


def test_cluster_diversity(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from raydedup.stages.cluster import cluster_diversity

    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
                "lang": pa.array(["en", "en", "de", "en", "fr", "en"], pa.large_string()),
                "source": pa.array(["a", "b", "a", "a", "c", "a"], pa.large_string()),
            }
        )
    ).repartition(3)
    clusters = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
                # cluster 10: docs 1,2,3 (en,en,de; sources a,b,a)
                # cluster 20: docs 4,5 (en,fr; a,c); singleton 30 excluded
                "cluster_id": pa.array([10, 10, 10, 20, 20, 30], pa.int64()),
            }
        )
    ).repartition(2)
    out = cluster_diversity(docs, clusters).to_pydict()
    assert out["cluster_id"] == [10, 20]
    assert out["n_docs"] == [3, 2]
    assert out["n_langs"] == [2, 2]
    assert out["n_sources"] == [2, 2]
    assert out["top_lang"] == ["en", "en"]   # cluster 20 ties en/fr -> lang ASC
    assert out["top_lang_n"] == [2, 1]
    # partition invariance
    out2 = cluster_diversity(docs.repartition(1), clusters.repartition(1)).to_pydict()
    assert out2 == out


def test_vectorized_cc_converges_on_shuffled_chain_and_random_graph():
    """Components must not depend on id order or need a round cap: a
    long path in random id order and a random graph at the giant-
    component threshold both match the UnionFind reference."""
    from raydedup.stages.cluster import cluster_edges_arrays

    rng = np.random.Generator(np.random.PCG64(11))
    ids = rng.permutation(20_000).astype(np.int64) * 7 + 3
    mem, root = cluster_edges_arrays(ids[:-1], ids[1:])
    assert np.all(root == ids.min()) and mem.shape[0] == ids.shape[0]

    a = rng.integers(0, 20_000, 10_000).astype(np.int64)
    b = rng.integers(0, 20_000, 10_000).astype(np.int64)
    uf = UnionFind()
    for x, y in zip(a.tolist(), b.tolist()):
        uf.union(x, y)
    mem, root = cluster_edges_arrays(a, b)
    assert dict(zip(mem.tolist(), root.tolist())) == uf.components()
