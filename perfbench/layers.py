"""Traced run: spans around calls into each layer's public function.

A layer is a ``raydedup`` module. After an end-to-end operation the
same input is replayed through the layers one call at a time, each call
waited to completion, so a span's duration is that layer's self time.
The engine's own schedule is never barriered: the replay is a separate
pass. Spans stay in memory and are written when the run ends.
"""

from __future__ import annotations

import glob
import os
import subprocess
import time
from contextlib import contextmanager

import numpy as np
import pyarrow as pa

KERNEL_BATCH = 1024
KERNEL_MIN_S = 0.3


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def seconds(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


def host_probe_s() -> float:
    """Single-thread host-speed probe: six sorts of 4M doubles (the
    probe in ``bench.py``); results from hosts whose probes differ are
    not comparable."""
    x = np.random.default_rng(0).random(4_000_000)
    t0 = time.perf_counter()
    for _ in range(6):
        np.sort(x)
    return time.perf_counter() - t0


def host_fingerprint() -> dict:
    import ray

    nproc = subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout
    return {
        "host.cpus_affinity": len(os.sched_getaffinity(0)),
        "host.nproc": int(nproc.strip()),
        "host.ray_num_cpus": int(ray.cluster_resources().get("CPU", 0)),
        "host.probe_s": host_probe_s(),
    }


def _rate(fn, n_items: int) -> float:
    """Items/s of ``fn`` in this thread, repeated for >= KERNEL_MIN_S."""
    fn()  # warm caches (word-hash cache, numpy dispatch)
    reps, t0 = 0, time.perf_counter()
    while True:
        fn()
        reps += 1
        dt = time.perf_counter() - t0
        if dt >= KERNEL_MIN_S:
            return reps * n_items / dt


def kernel_probes(pages: pa.Table, cfg) -> dict:
    """Single-thread kernels in the driver, no Ray, on one batch."""
    from raydedup.stages.containment import fingerprint_postings_table
    from raydedup.stages.extract import extract_batch
    from raydedup.stages.signatures import SignatureKernel

    batch = pages.slice(0, KERNEL_BATCH).select(["url", "html", "lang"])
    n = batch.num_rows
    docs = extract_batch(batch)
    kernel = SignatureKernel(cfg, keep_shingles=False)
    w, s = cfg.containment_window, cfg.containment_stride
    return {
        "sources.extract_kernel_docs_per_s": _rate(lambda: extract_batch(batch), n),
        "signatures.kernel_docs_per_s": _rate(lambda: kernel(docs), n),
        "containment.kernel_docs_per_s": _rate(
            lambda: fingerprint_postings_table(docs, w, s), n
        ),
    }


_AB_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64())])


def _identity(t: pa.Table) -> pa.Table:
    return t


def _count(t: pa.Table) -> pa.Table:
    return pa.table({"rows": pa.array([t.num_rows], pa.int64())})


def _ab_ref(t: pa.Table):
    import ray

    return ray.put(
        pa.table({"a": t.column("a").cast(pa.int64()), "b": t.column("b").cast(pa.int64())})
    )


def replay_dedup(tr: Tracer, files: list[str], cfg) -> tuple[int, dict]:
    """The dedup layers one at a time over a job's input, with the
    exchange widths the scale engine picks for that input size; returns
    (docs, per-layer counts)."""
    import ray
    import ray.data as rd

    from raydedup.pipelines.dedup import compute_signatures, exact_dedup_edges
    from raydedup.pipelines.dedup_scale import _auto_buckets, _auto_shards
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.candidates import band_postings, band_size_stats, candidate_pair_refs
    from raydedup.stages.cluster_scale import assignments_exchange, cluster_edge_refs
    from raydedup.stages.containment import containment_pairs, fingerprint_postings
    from raydedup.stages.verify import verify_pairs_exchange
    from raydedup.util import to_arrow_table

    m: dict = {}
    with tr.span("sources.stage"):
        docs = pages_to_docs(read_pages(files)).materialize()
    n_docs = docs.count()
    nb = _auto_buckets(n_docs)
    with tr.span("framework.map_floor"):
        docs.map_batches(_identity, batch_format="pyarrow").materialize()
    with tr.span("signatures.stage"):
        sigs = compute_signatures(docs, cfg, keep_shingles=False).materialize()
    with tr.span("candidates.stage"):
        postings = band_postings(sigs, cfg).materialize()
        cand = pa.concat_tables(ray.get(candidate_pair_refs(postings, cfg, nb)))
    stats = band_size_stats(postings, cfg)
    m["candidates.postings"] = postings.count()
    m["candidates.pairs"] = cand.num_rows
    m["candidates.dropped_hot_runs"] = stats["dropped_groups"]
    with tr.span("verify.stage"):
        ids = np.unique(np.concatenate([cand.column("a").to_numpy(), cand.column("b").to_numpy()]))
        verified = verify_pairs_exchange(
            rd.from_arrow(cand.select(["a", "b"])), docs, cfg, ids, nb
        )
    m["verify.pairs_in"] = cand.num_rows
    m["verify.pairs_kept"] = verified.num_rows
    m["verify.precision"] = verified.num_rows / max(1, cand.num_rows)
    with tr.span("containment.stage"):
        cont = to_arrow_table(containment_pairs(docs, cfg, nb))
    m["containment.pairs"] = cont.num_rows
    m["containment.postings"] = fingerprint_postings(docs, cfg).count()
    with tr.span("exact.stage"):
        exact = to_arrow_table(exact_dedup_edges(docs, nb), _AB_SCHEMA)
    edges = [t for t in (verified, cont, exact) if t.num_rows]
    m["cluster.edges_in"] = sum(t.num_rows for t in edges)
    with tr.span("cluster.stage"):
        forest = cluster_edge_refs(
            [_ab_ref(t) for t in edges], n_shards=_auto_shards(n_docs), num_buckets=min(nb, 32)
        )
        assignments_exchange(docs, forest, num_buckets=min(nb, 32)).materialize()
    m["cluster.dup_docs"] = sum(t.num_rows for t in ray.get(forest))
    return n_docs, m


def exchange_probe(tr: Tracer, rows: int, num_buckets: int, seed: int) -> dict:
    """split_dataset + reduce over a skinny (key, value) int64 table with
    ``rows`` rows, in 2 x num_cpus blocks."""
    import ray

    from raydedup.stages.exchange import hash_exchange_apply

    cpus = int(ray.cluster_resources()["CPU"])
    rng = np.random.default_rng(seed)
    blocks = [
        ray.put(pa.table({"k": rng.integers(-(2**62), 2**62, len(c)), "v": c}))
        for c in np.array_split(np.arange(rows, dtype=np.int64), 2 * cpus)
    ]
    with tr.span("exchange.split_reduce") as span:
        counts = hash_exchange_apply(blocks, "k", _count, num_buckets)
    dt = span["end"] - span["start"]
    per_bucket = counts.column("rows").to_numpy()
    return {
        "exchange.split_reduce_gb_per_s": rows * 16 / dt / 1e9,
        "exchange.bucket_skew": float(per_bucket.max() / np.median(per_bucket)),
    }


def replay_query(tr: Tracer, pages_dir: str, batch: dict, index_dir: str, cfg) -> dict:
    """Store, then the query layers: signatures of the query docs, the
    index scan and the candidate band exchange, and a hit-only and a
    miss-only query."""
    import ray.data as rd

    from raydedup.pipelines.dedup import compute_signatures
    from raydedup.pipelines.query import _cross_side_pairs, build_index, query_index
    from raydedup.sources.pages import pages_to_docs
    from raydedup.stages.candidates import band_postings
    from raydedup.stages.exchange import hash_exchange_apply

    m: dict = {}
    with tr.span("index.store"):
        build_index(pages_dir, index_dir, cfg)
    files = glob.glob(os.path.join(index_dir, "**", "*"), recursive=True)
    m["index.bytes"] = sum(os.path.getsize(f) for f in files if os.path.isfile(f))
    m["index.shards"] = len(glob.glob(os.path.join(index_dir, "signatures", "*.parquet")))

    pages, n_hit = batch["pages"], batch["n_hit"]
    qdocs = pages_to_docs(rd.from_arrow(pages)).materialize()
    with tr.span("query.sig"):
        q_sigs = compute_signatures(qdocs, cfg, keep_shingles=False).materialize()
    with tr.span("query.index_scan"):
        idx_sigs = rd.read_parquet(
            os.path.join(index_dir, "signatures"), columns=["doc_id", "bands"]
        )
        idx_post = band_postings(idx_sigs, cfg).materialize()

    def side(s):
        return lambda t: t.append_column("side", pa.array(np.full(t.num_rows, s, np.int64)))

    with tr.span("query.candidates"):
        both = idx_post.map_batches(side(0), batch_format="pyarrow").union(
            band_postings(q_sigs, cfg).map_batches(side(1), batch_format="pyarrow")
        )
        partials = hash_exchange_apply(
            both, "band_key", lambda t: _cross_side_pairs(t, cfg.max_band_postings)
        )
    m["query.candidates"] = (
        len(set(zip(partials.column(0).to_pylist(), partials.column(1).to_pylist())))
        if partials.num_rows
        else 0
    )
    with tr.span("query.hit"):
        hits = query_index(index_dir, pages_to_docs(rd.from_arrow(pages.slice(0, n_hit))), cfg)
    with tr.span("query.miss"):
        query_index(index_dir, pages_to_docs(rd.from_arrow(pages.slice(n_hit))), cfg)
    m["query.hits"] = len(hits)
    return m
