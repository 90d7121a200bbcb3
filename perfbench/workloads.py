"""The workloads: their inputs, warm-up, operation and output check.

Each workload drives one user-facing entry point from outside the
package and checks every operation's output against the planted
oracle (or, for queries, against exact Jaccard computed here). A wrong
result counts as a failed operation. Checks run after the timed phase.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import inputs

WARMUP_DOCS = 600
RECALL_MIN = 0.99
# a miss this unlikely for a hit's exact Jaccard is a defect, not chance
MUST_FIND_MISS_P = 1e-6
QUERY_COLUMNS = ["query_doc_id", "match_doc_id", "match_url", "n_collisions", "jaccard", "rank"]
# light token edits: most hits keep an exact Jaccard to their source
# above ~0.9, where 16x8 LSH banding misses a pair with probability < 1e-4
HIT_EDIT_P = (0.002, 0.008)


def _docs(files):
    from raydedup.sources.pages import pages_to_docs, read_pages

    return pages_to_docs(read_pages(files))


def _dedup(files, cfg):
    """One ``run_dedup_auto`` job, from the pages on disk to the cluster
    assignments materialized on the driver."""
    from raydedup.pipelines.dedup_scale import run_dedup_auto
    from raydedup.util import to_arrow_table

    res = run_dedup_auto(_docs(files), cfg, containment=True)
    return to_arrow_table(res.clusters), res.metrics


def check_dedup(clusters: pa.Table, corpus: dict) -> dict:
    """Planted-oracle gate: every doc assigned exactly once, recall of
    exact/near pairs with jaccard_true >= 0.8, boilerplate-twin merges."""
    from raydedup.stages.extract import doc_ids_from_urls

    ids = clusters.column("doc_id").to_numpy()
    cid = clusters.column("cluster_id").to_numpy()
    want = np.sort(doc_ids_from_urls(corpus["oracle_clusters"].column("url").to_pylist()))
    order = np.argsort(ids, kind="stable")
    ids, cid = ids[order], cid[order]
    assigned_once = ids.shape == want.shape and bool(np.array_equal(ids, want))

    def same_cluster(kind_mask) -> np.ndarray:
        pairs = corpus["oracle_pairs"].filter(kind_mask)
        a = doc_ids_from_urls(pairs.column("a_url").to_pylist())
        b = doc_ids_from_urls(pairs.column("b_url").to_pylist())
        pa_, pb_ = np.searchsorted(ids, a), np.searchsorted(ids, b)
        pa_, pb_ = np.minimum(pa_, len(ids) - 1), np.minimum(pb_, len(ids) - 1)
        ok = (ids[pa_] == a) & (ids[pb_] == b)
        return ok & (cid[pa_] == cid[pb_])

    op = corpus["oracle_pairs"]
    incl = pc.and_(
        pc.is_in(op.column("kind"), pa.array(["exact", "near"])),
        pc.greater_equal(op.column("jaccard_true"), 0.8),
    )
    hits = same_cluster(incl)
    merges = same_cluster(pc.equal(op.column("kind"), "boilerplate-twin"))
    recall = float(hits.mean()) if hits.shape[0] else 1.0
    false_merges = int(merges.sum())
    return {
        "ok": assigned_once and recall >= RECALL_MIN and false_merges == 0,
        "assigned_once": assigned_once,
        "found": int(hits.sum()),
        "expected": int(hits.shape[0]),
        "false_merges": false_merges,
    }


def engine_summary(metrics: dict) -> dict:
    """The engine chosen and its own ``t_*`` timings, verbatim."""
    return {
        "engine": metrics.get("dedup_path"),
        "engine_t": {k: v for k, v in metrics.items() if k.startswith("t_")},
    }


def lsh_miss_probability(jaccard: float, cfg) -> float:
    """Chance that banded MinHash puts a pair of this Jaccard in no
    common band: (1 - J^rows)^bands."""
    return (1.0 - jaccard**cfg.rows_per_band) ** cfg.n_bands


def check_query(df, batch: dict, cfg, top_k: int) -> dict:
    """Well-formed ranked rows; miss docs return nothing; a hit doc that
    returns its source reports the exact Jaccard computed here. Every hit
    doc whose exact Jaccard to its source is >= tau is expected; one that
    LSH misses with probability < MUST_FIND_MISS_P must be found, the
    rest may be missed by chance and only lower the recall."""
    from raydedup.stages.extract import doc_ids_from_urls

    tau = cfg.jaccard_tau
    urls = batch["pages"].column("url").to_pylist()
    url_of = dict(zip(doc_ids_from_urls(urls).tolist(), urls))
    problems = []
    if list(df.columns) != QUERY_COLUMNS:
        problems.append(f"columns {list(df.columns)}")
        return {"ok": False, "found": 0, "expected": 0, "problems": problems}
    if not df["query_doc_id"].isin(list(url_of)).all():
        problems.append("unknown query_doc_id")
    if df["match_url"].isna().any():
        problems.append("null match_url")
    if (df["jaccard"] < tau - 1e-12).any():
        problems.append("jaccard below tau")
    for _, g in df.groupby("query_doc_id", sort=False):
        if list(g["rank"]) != list(range(1, len(g) + 1)) or len(g) > top_k:
            problems.append("ranks not 1..n<=top_k")
        if (np.diff(g["jaccard"].to_numpy()) > 1e-12).any():
            problems.append("jaccard not descending")
    got = {(url_of.get(q), u): j for q, u, j in zip(df["query_doc_id"], df["match_url"], df["jaccard"])}
    if any(q not in batch["sources"] for q, _ in got):
        problems.append("miss doc returned a match")
    found = expected = 0
    missed = []
    for q, (src, jac) in batch["sources"].items():
        if jac < tau:
            continue
        expected += 1
        j = got.get((q, src))
        if j is None:
            missed.append(round(jac, 4))
            if lsh_miss_probability(jac, cfg) < MUST_FIND_MISS_P:
                problems.append(f"source of {q} not returned at jaccard {jac:.3f}")
            continue
        found += 1
        if abs(j - jac) > 1e-6:
            problems.append(f"jaccard {j} != exact {jac}")
    return {
        "ok": not problems,
        "found": found,
        "expected": expected,
        "missed_jaccard": missed,
        "problems": problems[:5],
    }


class Workload:
    """One workload over a corpus of ``n_docs`` docs. ``setup_inputs``
    returns corpus specs for ``inputs.make_corpora`` and ``bind``
    receives the generated corpora; ``warmup`` runs one untimed
    operation; ``ops`` yields timed operations as (kind, callable)
    pairs, each callable returning (n_docs, result), and
    ``check(kind, result)`` grades a result."""

    name = ""
    n_docs = parts = files_per_part = 0
    # unseen docs for the miss half of query batches
    miss_docs = 0
    op_deadline_s = 60.0
    # docs_per_s is over operations of rate_kind, op_s_p50 over latency_kind
    rate_kind = latency_kind = "job"
    # operations before the run length may end the timed loop
    min_ops = 1
    # replayed layer spans that make up one operation
    layer_spans = (
        "sources.stage", "signatures.stage", "candidates.stage", "verify.stage",
        "containment.stage", "exact.stage", "cluster.stage",
    )

    def __init__(self, seed: int, work: str) -> None:
        from raydedup.config import DedupConfig

        self.seed = seed
        self.work = work
        self.cfg = DedupConfig()

    def setup_inputs(self) -> list[tuple]:
        seed = self.seed
        return [
            ("warm", WARMUP_DOCS, 1, inputs.derive_seed(seed, "warmup"), 4),
            ("miss", self.miss_docs, 1, inputs.derive_seed(seed, "miss"), 1),
            ("corpus", self.n_docs, self.parts, inputs.derive_seed(seed, "corpus"), self.files_per_part),
        ]

    def bind(self, corpora: list[dict]) -> None:
        self.warm, self.miss, self.corpus = corpora

    def warmup(self) -> None:
        raise NotImplementedError

    def ops(self):
        raise NotImplementedError

    def check(self, kind: str, result) -> dict:
        raise NotImplementedError


class DedupWeb(Workload):
    """One web corpus above ``scale_min_docs``: jobs route to the scale
    engine and run one after another on the same input."""

    name = "dedup-web"
    n_docs, parts, files_per_part = 12_000, 4, 4
    miss_docs = 100
    op_deadline_s = 80.0

    def warmup(self):
        # route the small warm-up input through the same (scale) engine
        cfg = self.cfg.with_overrides(scale_min_docs=1)
        from raydedup.pipelines.dedup_scale import run_dedup_auto
        from raydedup.util import to_arrow_table

        to_arrow_table(run_dedup_auto(_docs(self.warm["files"]), cfg, containment=True).clusters)

    def ops(self):
        while True:
            yield "job", lambda: (self.n_docs, _dedup(self.corpus["files"], self.cfg))

    def check(self, kind, result):
        clusters, metrics = result
        return check_dedup(clusters, self.corpus) | engine_summary(metrics)


class IndexQuery(Workload):
    """``build_index`` a stored corpus (the write path), then a closed
    loop of ``query_index`` calls on mixed batches, half light edits of
    stored docs (hits: verify and doc-read work) and half unseen docs
    (misses)."""

    name = "index-query"
    n_docs, parts, files_per_part = 10_000, 4, 2
    builds = 3
    batch_docs, n_batches = 100, 6
    miss_docs = batch_docs * n_batches
    top_k = 10
    rate_kind, latency_kind = "build", "query"
    min_ops = builds + 2
    layer_spans = ("query.sig", "query.index_scan", "query.candidates")

    def bind(self, corpora):
        super().bind(corpora)
        self.batches = inputs.make_query_batches(
            self.corpus, self.miss, self.n_batches, self.batch_docs, self.seed,
            HIT_EDIT_P, self.cfg.shingle_k,
        )
        self.index_dir = None

    def _build(self, pages_dir: str, tag: str) -> str:
        from raydedup.pipelines.query import build_index

        index_dir = os.path.join(self.work, f"index-{tag}")
        shutil.rmtree(index_dir, ignore_errors=True)
        build_index(pages_dir, index_dir, self.cfg)
        return index_dir

    def _query(self, index_dir: str, pages: pa.Table):
        import ray.data as rd

        from raydedup.pipelines.query import query_index
        from raydedup.sources.pages import pages_to_docs

        docs = pages_to_docs(rd.from_arrow(pages))
        return query_index(index_dir, docs, self.cfg, top_k=self.top_k)

    def warmup(self):
        index_dir = self._build(self.warm["pages"], "warm")
        self._query(index_dir, self.batches[0]["pages"].slice(0, 10))
        shutil.rmtree(index_dir)

    def ops(self):
        for b in range(self.builds):
            def build(b=b):
                self.index_dir = self._build(self.corpus["pages"], f"b{b}")
                return self.n_docs, self.index_dir

            yield "build", build
        i = 0
        while True:
            batch = self.batches[i % self.n_batches]
            i += 1
            yield "query", lambda batch=batch: (
                batch["pages"].num_rows, (self._query(self.index_dir, batch["pages"]), batch)
            )

    def check(self, kind, result):
        if kind == "build":
            import glob

            n = len(glob.glob(os.path.join(result, "signatures", "*.parquet")))
            want = len(self.corpus["files"])
            return {"ok": n == want, "shards": n, "expected_shards": want}
        df, batch = result
        return check_query(df, batch, self.cfg, self.top_k)


WORKLOADS = {w.name: w for w in (DedupWeb, IndexQuery)}
