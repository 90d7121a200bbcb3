"""Incremental dedup: fold a NEW shard of pages into an existing index +
cluster assignment without re-clustering the world.

Reference analog: Panako's whole operating model is incremental — new
files are ``panako store``d into the running index and matched with
``panako query`` while every previously indexed fingerprint stays put
(``cli/Store.java:56-90``, ``cli/Query.java:60-93``); an identifier,
once assigned, never changes. The transplant keeps that contract:

  OLD cluster assignments are FROZEN. The new shards are stored, then
  the new docs are matched against every stored file, old and new, by
  one run of ``query_index``'s candidate and verify waves (LSH band
  collisions, exact-Jaccard verified) plus a sha256 exact path, exactly
  as a query would match them (``increment_edges``). Matches in the
  new files are the new-vs-new edges: the new docs are clustered among
  THEMSELVES by their connectivity. Matches in the old files are the
  attachments: each new component joins the old cluster of its best
  match (max jaccard, ties -> min cluster_id — the QueryResult ranking
  rule) or becomes a fresh cluster rooted at its minimal new doc id.

Semantics note (documented divergence from a full re-cluster): a new
doc that bridges two old clusters does NOT merge them — old ids are
immutable, the component takes the single best attachment. That is the
reference's behavior too (a query matching two stored songs returns
ranked matches; it never rewrites the store).

Driver memory is INCREMENT-proportional (new edges + new components).
Each stored index file and each clusters file is read by one raw task,
and no Ray Data plan runs: every signature file, old and new, is read
(until the index is partitioned by band key), but only the postings of
the new docs' band keys leave its task, and only the matched docs'
texts and the matched old docs' cluster rows are read.
"""

from __future__ import annotations

import glob
import os
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from raydedup.config import DedupConfig

_EMPTY_CROSS = pa.schema(
    [("a", pa.int64()), ("b", pa.int64()), ("jaccard", pa.float64())]
)


@ray.remote
def _sha_pairs(path: str, *new_sha: pa.Table) -> pa.Table:
    """Exact path: one stored ``docs/`` file's ``(doc_id, text_sha256)``
    joined with the new docs' ``new_sha`` tables (``a, text_sha256``)
    -> the ``(a=new, b=stored, n_collisions=0)`` pairs of identical
    texts."""
    old = pq.read_table(path, columns=["doc_id", "text_sha256"])
    m = pa.concat_tables(new_sha).join(
        old.rename_columns(["b", "text_sha256"]), "text_sha256", join_type="inner"
    )
    return pa.table(
        {"a": m.column("a"), "b": m.column("b"),
         "n_collisions": pa.array(np.zeros(m.num_rows, dtype=np.int64))}
    )


@ray.remote(num_returns=2)
def _read_new_docs(path: str) -> tuple[pa.Table, pa.Table]:
    """One new ``docs/`` file, read once -> its ``doc_id, text`` rows (a
    query block) and its ``(a=doc_id, text_sha256)`` rows for the exact
    path."""
    t = pq.read_table(path, columns=["doc_id", "text", "text_sha256"])
    return t.select(["doc_id", "text"]), t.select(["doc_id", "text_sha256"]).rename_columns(
        ["a", "text_sha256"]
    )


def _verified_rows(wave: list) -> pa.Table:
    """The ``(a, b, jaccard)`` rows of a ``query._verify_wave``. A
    doc_id stored in two files is verified in both; the first file's
    row is kept."""
    rows = [t for t in ray.get([v[0] for v in wave]) if t.num_rows]
    if not rows:
        return _EMPTY_CROSS.empty_table()
    df = pa.concat_tables(rows).to_pandas().drop_duplicates(["a", "b"])
    return pa.Table.from_pandas(df[["a", "b", "jaccard"]], preserve_index=False)


def increment_edges(
    old_sigs: list[str],
    old_docs: list[str],
    new_sigs: list[str],
    new_docs: list[str],
    cfg: DedupConfig,
) -> tuple[np.ndarray, pa.Table, pa.Table]:
    """Match the NEW stored files against every stored file, old and
    new, as one query: the new docs (read once from ``new_docs``) are
    the query blocks of ``query_index``'s candidate wave over ``old_sigs
    + new_sigs`` and of its verify wave over ``old_docs + new_docs`` at
    cfg.jaccard_tau, and a sha256 exact path (one raw task per stored
    docs file, its pairs unioned into the candidates by the candidate
    wave's combine task) links identical
    texts even in a band run dropped for holding more distinct
    signatures than the cap (candidates.band_runs).

    Returns ``(new_ids, nn_edges, cross)``: every new doc id; the ``(a,
    b)`` new-vs-new edges (rows verified in the new files, ``a != b``);
    and the ``(a=new, b=old, jaccard)`` attachments (rows verified in
    the old files). The two sides are keyed apart, so a new doc whose
    doc_id is also stored in an old file (a re-crawl) is scored on its
    own text."""
    from raydedup.pipelines.query import _candidate_wave, _verify_wave

    # the files' row counts let the sign tasks split them one slice per CPU
    rows = [pq.ParquetFile(f).metadata.num_rows for f in new_docs]
    if not sum(rows):
        empty = _EMPTY_CROSS.empty_table()
        return np.empty(0, np.int64), empty.select(["a", "b"]), empty
    reads = [_read_new_docs.remote(f) for f in new_docs]
    sha_refs = [r[1] for r in reads]
    exact = [_sha_pairs.remote(f, *sha_refs) for f in old_docs + new_docs]
    blocks = [(r[0], n) for r, n in zip(reads, rows)]
    cand, q_sets = _candidate_wave(old_sigs + new_sigs, blocks, cfg, pairs=exact)
    tau = cfg.jaccard_tau
    old_wave = _verify_wave(old_docs, cand, q_sets, cfg, tau)
    # every new doc matches itself in the new files; in the old files an
    # a == b pair is a re-crawl of a stored doc_id
    new_wave = _verify_wave(new_docs, cand, q_sets, cfg, tau, drop_self=True)
    new_ids = np.unique(
        np.concatenate([t.column("a").to_numpy(zero_copy_only=False) for t in ray.get(sha_refs)])
    )
    return new_ids, _verified_rows(new_wave).select(["a", "b"]), _verified_rows(old_wave)


def increment_assignments(
    new_ids: np.ndarray,
    nn_edges: pa.Table,
    cross: pa.Table,
    old_assign: pd.DataFrame,
) -> pd.DataFrame:
    """Pure assignment logic (driver, increment-proportional).

    new_ids: every new doc id. nn_edges: (a, b) edges among new docs —
    only their connectivity is used. cross: verified (a=new, b=old,
    jaccard) attachments.
    old_assign: (doc_id, cluster_id) for the old docs appearing in
    cross. Returns (doc_id, cluster_id, is_representative) for the NEW
    docs only — old rows are frozen and not re-emitted."""
    from raydedup.stages.cluster import cluster_edges_arrays

    new_ids = np.unique(np.asarray(new_ids, dtype=np.int64))

    # components among new docs (min-id root convention)
    if nn_edges.num_rows:
        members, roots = cluster_edges_arrays(
            nn_edges.column("a").to_numpy(zero_copy_only=False),
            nn_edges.column("b").to_numpy(zero_copy_only=False),
        )
    else:
        members = np.empty(0, dtype=np.int64)
        roots = np.empty(0, dtype=np.int64)
    root_of = new_ids.copy()
    if members.shape[0]:
        pos = np.searchsorted(members, new_ids)
        pos = np.minimum(pos, members.shape[0] - 1)
        hit = members[pos] == new_ids
        root_of = np.where(hit, roots[pos], new_ids)

    # best attachment per COMPONENT: max jaccard, ties -> min old cluster
    cluster_of_root: dict[int, int] = {}
    if cross.num_rows and len(old_assign):
        ca = cross.column("a").to_numpy(zero_copy_only=False)
        cb = cross.column("b").to_numpy(zero_copy_only=False)
        cj = cross.column("jaccard").to_numpy(zero_copy_only=False)
        # map the new side to its component root
        p = np.searchsorted(new_ids, ca)
        p = np.minimum(p, new_ids.shape[0] - 1)
        valid = new_ids[p] == ca
        ca_root = root_of[p][valid]
        cb, cj = cb[valid], cj[valid]
        # map the old side to its frozen cluster id
        oa = old_assign.sort_values("doc_id")
        o_ids = oa["doc_id"].to_numpy(dtype=np.int64)
        o_cl = oa["cluster_id"].to_numpy(dtype=np.int64)
        q = np.searchsorted(o_ids, cb)
        q = np.minimum(q, max(o_ids.shape[0] - 1, 0))
        ok = o_ids.shape[0] > 0
        found = o_ids[q] == cb if ok else np.zeros(cb.shape[0], dtype=bool)
        ca_root, cj = ca_root[found], cj[found]
        ccl = o_cl[q][found]
        if ca_root.shape[0]:
            # sort so the winner (max jaccard, min cluster) is FIRST per root
            order = np.lexsort((ccl, -cj, ca_root))
            r, j, c = ca_root[order], cj[order], ccl[order]
            keep = np.empty(r.shape[0], dtype=bool)
            keep[0] = True
            keep[1:] = r[1:] != r[:-1]
            cluster_of_root = dict(zip(r[keep].tolist(), c[keep].tolist()))

    cluster_id = np.array(
        [cluster_of_root.get(int(r), int(r)) for r in root_of], dtype=np.int64
    )
    return pd.DataFrame(
        {
            "doc_id": new_ids,
            "cluster_id": cluster_id,
            "is_representative": new_ids == cluster_id,
        }
    )


def monitor_increments(
    watch_dir: str,
    index_dir: str,
    clusters_path: str,
    cfg: DedupConfig | None = None,
    *,
    poll_interval: float = 2.0,
    max_waves: int | None = None,
    max_idle_polls: int | None = None,
    stop_file: str | None = None,
    on_wave=None,
) -> dict[str, Any]:
    """Continuous increment: the reference's long-running ``monitor``
    lifecycle (``cli/Monitor.java:90-106`` — an endless loop folding
    arriving input windows into the live store) transplanted to crawl
    deliveries. Polls ``watch_dir`` for parquet shards and folds each
    arriving WAVE through ``dedup_increment`` with frozen-base
    semantics: previously assigned ids never change, each wave's new
    docs attach by best verified match exactly as a manual
    ``increment`` verb invocation would.

    File-stability contract: a shard is folded only once its
    (size, mtime) is unchanged between two consecutive polls, so a
    file still being copied in is never half-read. Stable files are
    SYMLINKED into ``<index_dir>/monitor_staging`` (basenames
    preserved, so the store's shard keys match) and the staging dir is
    what ``build_index`` scans — already-stored shards are skipped by
    the store manifest, making every fold idempotent and the whole
    loop crash-resumable (state lives in the index manifest, not the
    monitor process).

    Stop conditions (any): ``max_waves`` folded; ``max_idle_polls``
    consecutive empty polls; ``stop_file`` exists. ``on_wave(info)``
    is called after each fold (tests/metrics hook). Returns totals.
    """
    import time as _time

    cfg = cfg or DedupConfig()
    staging = os.path.join(index_dir, "monitor_staging")
    os.makedirs(staging, exist_ok=True)
    prev_stat: dict[str, tuple[int, float]] = {}
    linked: set[str] = set()
    for p in glob.glob(os.path.join(staging, "*.parquet")):
        if os.path.exists(p):  # follows the link; prune dangling entries
            linked.add(os.path.basename(p))
        else:
            os.unlink(p)
    totals: dict[str, Any] = {"waves": 0, "new_docs": 0, "polls": 0}

    def fold() -> dict[str, Any]:
        info = dedup_increment(index_dir, clusters_path, staging, cfg)
        totals["new_docs"] += info.get("new_docs", 0)
        if on_wave is not None:
            on_wave(info)
        return info

    # catch-up fold: shards symlinked by a PREVIOUS invocation that died
    # before (or during) their fold are re-folded now — the store
    # manifest + frozen-row skip make this a no-op when everything was
    # already folded, so restartability really does live in the index
    # manifest, not in this process's memory
    if linked:
        info = fold()
        if info.get("new_docs", 0) or info.get("stored_shards", 0):
            totals["waves"] += 1

    idle = 0
    while True:
        if max_waves is not None and totals["waves"] >= max_waves:
            totals["stopped_by"] = "max_waves"
            break
        totals["polls"] += 1
        if stop_file and os.path.exists(stop_file):
            totals["stopped_by"] = "stop_file"
            break
        fresh = []
        cur_stat: dict[str, tuple[int, float]] = {}
        for p in sorted(glob.glob(os.path.join(watch_dir, "*.parquet"))):
            name = os.path.basename(p)
            try:
                st = os.stat(p)
            except FileNotFoundError:
                continue  # deleted/renamed between glob and stat
            cur_stat[name] = (st.st_size, st.st_mtime)
            if name in linked:
                continue
            if prev_stat.get(name) == cur_stat[name]:  # stable across polls
                dst = os.path.join(staging, name)
                if not os.path.lexists(dst):
                    os.symlink(os.path.abspath(p), dst)
                if os.path.exists(dst):  # source may have vanished post-stat
                    linked.add(name)
                    fresh.append(name)
                else:
                    os.unlink(dst)
        prev_stat = cur_stat
        # prune staging links whose watch file was deleted AFTER linking —
        # a dangling symlink would crash every subsequent fold's store scan
        for sp in glob.glob(os.path.join(staging, "*.parquet")):
            if not os.path.exists(sp):
                os.unlink(sp)
                linked.discard(os.path.basename(sp))
        if fresh:
            fold()
            totals["waves"] += 1
            idle = 0
            if max_waves is not None and totals["waves"] >= max_waves:
                totals["stopped_by"] = "max_waves"
                break
        else:
            idle += 1
            if max_idle_polls is not None and idle >= max_idle_polls:
                totals["stopped_by"] = "max_idle_polls"
                break
        _time.sleep(poll_interval)
    return totals


@ray.remote(num_returns=2)
def _frozen_rows(
    path: str, matched_old: np.ndarray, new_ids: np.ndarray
) -> tuple[pa.Table, np.ndarray]:
    """One clusters file, read once: the ``(doc_id, cluster_id)`` rows
    of the ``matched_old`` docs, and the mask of ``new_ids`` that
    already have a frozen row here."""
    t = pq.read_table(path, columns=["doc_id", "cluster_id"])
    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    return t.filter(pa.array(np.isin(ids, matched_old))), np.isin(new_ids, ids)


def dedup_increment(
    index_dir: str,
    clusters_path: str,
    new_pages_path: str,
    cfg: DedupConfig | None = None,
) -> dict[str, Any]:
    """Fold new pages shards into an existing index + clusters dir.

    1. snapshot the index shard list, ``build_index`` the new pages
       (resumable — already-stored shards are skipped);
    2. match the new docs against every stored file, old and new, in
       one query (``increment_edges``: ``query_index``'s candidate and
       verify waves plus a sha256 exact path) -> the new-vs-new edges
       and the new-vs-old attachments (window containment is a
       corpus-level pass, rerun it on the full store when needed);
    3. read each clusters file once for the matched old docs' rows and
       the new ids that already have one;
    4. frozen-cluster assignment (``increment_assignments``), appended
       to ``clusters_path`` as one new parquet shard (atomic write).

    Returns counts + the paths. New docs whose doc_id already exists in
    the old assignment (re-crawled identical url) keep the old row and
    are not re-emitted."""
    from raydedup.pipelines.query import build_index
    from raydedup.state.checkpoint import _atomic_write_table, store_files

    cfg = cfg or DedupConfig()

    before = {sub: store_files(index_dir, sub) for sub in ("docs", "signatures")}
    store_info = build_index(new_pages_path, index_dir, cfg)
    new = {
        sub: sorted(set(store_files(index_dir, sub)) - set(before[sub]))
        for sub in ("docs", "signatures")
    }

    out = {
        **store_info,
        "clusters_path": clusters_path,
        "new_docs": 0,
        "attached_to_existing": 0,
        "new_clusters": 0,
    }
    if not new["docs"]:
        return out

    new_ids, nn_edges, cross = increment_edges(
        before["signatures"], before["docs"], new["signatures"], new["docs"], cfg
    )
    old_assign = pd.DataFrame({"doc_id": [], "cluster_id": []})
    seen = np.zeros(new_ids.shape[0], dtype=bool)
    cl_files = sorted(glob.glob(os.path.join(clusters_path, "*.parquet")))
    if before["docs"] and cl_files:
        matched_old = ray.put(np.unique(cross.column("b").to_numpy(zero_copy_only=False)))
        ids_ref = ray.put(new_ids)
        parts = [_frozen_rows.remote(f, matched_old, ids_ref) for f in cl_files]
        old_assign = pa.concat_tables(ray.get([p[0] for p in parts])).to_pandas()
        seen = np.logical_or.reduce(ray.get([p[1] for p in parts]))

    assign = increment_assignments(new_ids, nn_edges, cross, old_assign)
    # drop ids that already have a frozen row (re-crawled identical url);
    # assign rows are in new_ids order
    assign = assign[~seen].reset_index(drop=True)

    os.makedirs(clusters_path, exist_ok=True)
    tag = "-".join(
        os.path.splitext(os.path.basename(f))[0] for f in new["docs"][:4]
    ) or "increment"
    out_file = os.path.join(clusters_path, f"increment-{tag}.parquet")
    _atomic_write_table(pa.Table.from_pandas(assign, preserve_index=False), out_file)

    out["new_docs"] = int(len(assign))
    out["attached_to_existing"] = int(
        (~assign["is_representative"] & ~assign["cluster_id"].isin(assign["doc_id"])).sum()
        if len(assign)
        else 0
    )
    out["new_clusters"] = int(assign["is_representative"].sum())
    out["increment_file"] = out_file
    return out
