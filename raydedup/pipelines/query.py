"""Store/query lifecycle: build a persistent index, match queries later.

Transplant of ``panako store`` + ``panako query`` / ``panako monitor``
(``cli/Store.java:56-90``, ``cli/Query.java:60-93``,
``OlafStrategy.java:286-353``): the "index" is a partitioned Parquet
dataset of doc tables + signature tables (no KV server —
``PanakoStorageKV.java`` becomes Parquet, per SURVEY §2 S3).

A query is one raw-task DAG over the index files, looked up by the
query's own band keys (the ``PanakoStorageKV.java:293-379`` lookup: the
stored side is never shipped whole):

  candidate wave: ``query_sign``, one task per CPU, each on a row slice
    of the query blocks (it receives only the blocks its rows come
    from), signs its docs in one shingle pass and returns their band
    postings, their shingle sets and their sorted band keys;
    ``query_stored``, one task per stored ``signatures/`` file, reads
    its ``doc_id, bands`` and keeps only the postings whose band key
    the query holds, so a held key's run arrives whole and the hot-band
    rule (candidates.band_runs) sees all of it; ``query_candidates``,
    one task, pairs the two sides run by run (_cross_side_pairs) and
    applies the engine's ``min_band_collisions`` gate
  verify wave: ``query_verify``, one task per stored ``docs/`` file,
    takes the candidate ref as it is (no driver round trip), reads only
    the candidate matches (``doc_id`` pushdown), shingles and scores
    one copy per distinct stored text against the query side's sets and
    returns each hit with its url

so every stored file is read once per query, only the stored postings
of the query's band keys leave their task, and no Ray Data plan runs
over the index. The query and stored sides are keyed apart, so a query
doc that shares a ``doc_id`` with a stored doc (a re-crawled url) is
scored on its own text. The driver fetches the verified rows and ranks
the QueryResult-style rows.

The two waves are ``_candidate_wave`` and ``_verify_wave``. The
increment (``pipelines/increment.increment_edges``) runs the same two
waves over the old and the new stored files, so one code path matches
docs against stored files.

``monitor_text`` is one wave of the same shape: the windows' winnowed
fingerprints go to the object store as one ``(fp_key, win_id)`` table,
and one task per stored ``docs/`` file winnows its texts, joins them
with that table and returns the (window, doc) shared counts with the
doc's url. No exchange and no Ray Data plan runs.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
from ray.data import Dataset

from raydedup.config import DedupConfig
from raydedup.state.checkpoint import store_files
from raydedup.util import cluster_cpus


def build_index(pages_path: str, index_dir: str, cfg: DedupConfig | None = None) -> dict:
    """``panako store``: extract + fingerprint every page into a
    Parquet index (docs + signatures, sharded per input file)."""
    cfg = cfg or DedupConfig()
    files = sorted(glob.glob(os.path.join(pages_path, "*.parquet")))
    if not files:
        files = [pages_path]
    # phase 1 of the checkpointed pipeline IS the store operation:
    # wave-parallel independent shard tasks (cli/Store.java:56-90 analog)
    from raydedup.state.checkpoint import (
        CheckpointManager,
        _shard_key,
        store_shards_parallel,
    )

    mgr = CheckpointManager(index_dir, cfg)
    pending = [(f, _shard_key(f)) for f in files]
    pending = [(f, k) for f, k in pending if not mgr.shard_done(k)]
    skipped = len(files) - len(pending)
    stored = store_shards_parallel(mgr, pending, cfg)
    return {"stored_shards": stored, "skipped_shards": skipped, "index_dir": index_dir}


def _cross_side_pairs(t: pa.Table, max_postings: int) -> pa.Table:
    """Per-bucket kernel: ``(band_key, doc_id, sig, side)`` postings ->
    the (query_doc, index_doc) pairs of the band runs that hold both
    sides (side=1 query, side=0 index), with ``n_partial`` = the number
    of runs the pair shares.

    A run emits iff candidates.band_runs keeps it, the rule the engine
    applies, so a page stored more times than the cap is one signature
    and still matches its near-dups. Fully vectorized (run arithmetic,
    no per-run Python — the pattern that measured 4.6× faster under a
    full task pool in the containment kernel): band_runs' one (key, sig)
    sort, then the q×m cross products of ALL kept runs emitted with one
    flat index computation. A doc posted twice in a run (a doc_id stored
    in two files) pairs once per run: the pairs are deduplicated on
    (q, m, run) in the sort that counts them."""
    from raydedup.stages.candidates import band_runs

    empty = pa.table(
        {"q": pa.array([], pa.int64()), "m": pa.array([], pa.int64()),
         "n_partial": pa.array([], pa.int64())}
    )
    if t.num_rows < 2:
        return empty
    runs = band_runs(
        t.column("band_key").to_numpy(zero_copy_only=False),
        t.column("sig").to_numpy(zero_copy_only=False),
        max_postings,
    )
    docs = t.column("doc_id").to_numpy(zero_copy_only=False)[runs.order]
    side = t.column("side").to_numpy(zero_copy_only=False)[runs.order]
    q_cnt = np.add.reduceat(side, runs.starts)
    m_cnt = runs.sizes - q_cnt
    both = runs.keep & (q_cnt > 0) & (m_cnt > 0)
    if not both.any():
        return empty
    rows = np.repeat(both, runs.sizes)
    is_q = side == 1
    qdocs, mdocs = docs[rows & is_q], docs[rows & ~is_q]
    q_cnt, m_cnt = q_cnt[both], m_cnt[both]
    # flat cross-product emission: output j of run i is
    # (qdocs[q_off_i + j // m_i], mdocs[m_off_i + j % m_i])
    counts = q_cnt * m_cnt
    run = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
    local = np.arange(run.shape[0], dtype=np.int64) - (np.cumsum(counts) - counts)[run]
    m_rep = m_cnt[run]
    q = qdocs[(np.cumsum(q_cnt) - q_cnt)[run] + local // m_rep]
    m = mdocs[(np.cumsum(m_cnt) - m_cnt)[run] + local % m_rep]
    order = np.lexsort((run, m, q))
    q, m, run = q[order], m[order], run[order]
    new_pair = np.empty(q.shape[0], dtype=bool)
    new_pair[0] = True
    new_pair[1:] = (q[1:] != q[:-1]) | (m[1:] != m[:-1])
    uniq = new_pair.copy()
    uniq[1:] |= run[1:] != run[:-1]
    st = np.flatnonzero(new_pair)
    counts = np.add.reduceat(uniq.astype(np.int64), st)
    return pa.table(
        {
            "q": pa.array(q[st], type=pa.int64()),
            "m": pa.array(m[st], type=pa.int64()),
            "n_partial": pa.array(counts, type=pa.int64()),
        }
    )


_RESULT_COLS = {
    "query_doc_id": "int64",
    "match_doc_id": "int64",
    "match_url": "object",
    "n_collisions": "int64",
    "jaccard": "float64",
    "rank": "int64",
}
_SEGMENT_COLS = {
    "lcs_tokens": "int64",
    "lcs_ratio": "float64",
    "query_start_token": "int64",
    "match_start_token": "int64",
}


def _side_postings(sigs: pa.Table, n_bands: int, side: int) -> pa.Table:
    """(doc_id, bands) -> (band_key, doc_id, sig, side) postings."""
    from raydedup.stages.candidates import band_postings_table

    p = band_postings_table(sigs, n_bands)
    return p.append_column("side", pa.array(np.full(p.num_rows, side, dtype=np.int64)))


def _row_slices(blocks: list[tuple], n: int) -> list[tuple[int, int, list]]:
    """Cut the rows of ``blocks`` (``(ref, num_rows)`` pairs, in order)
    into ``n`` even contiguous slices, fewer if there are fewer rows.
    Each slice is ``(lo, hi, refs)``: ``refs`` are only the blocks its
    rows come from, and ``[lo, hi)`` its rows in their concatenation."""
    offs = np.concatenate([[0], np.cumsum([rows for _, rows in blocks], dtype=np.int64)])
    cuts = np.linspace(0, offs[-1], min(n, offs[-1]) + 1).astype(np.int64)
    out = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        first = int(np.searchsorted(offs, lo, "right")) - 1
        last = int(np.searchsorted(offs, hi, "left"))
        refs = [ref for ref, _ in blocks[first:last]]
        out.append((int(lo - offs[first]), int(hi - offs[first]), refs))
    return out


@ray.remote(num_returns=3)
def _sign_slice(cfg: DedupConfig, lo: int, hi: int, *blocks: pa.Table) -> tuple:
    """Candidate wave, query side: sign rows ``[lo, hi)`` of the
    concatenated ``doc_id,text`` query blocks. Returns their band
    postings (side 1), their ``(doc_id, shingles)`` sets for the verify
    wave, both from one shingle pass (SignatureKernel.band_set_table),
    and their sorted unique band keys."""
    from raydedup.pipelines.dedup import _kernel

    docs = pa.concat_tables([b.select(["doc_id", "text"]) for b in blocks if b.num_rows])
    sig = _kernel(cfg, False).band_set_table(docs.slice(lo, hi - lo))
    postings = _side_postings(sig, cfg.n_bands, 1)
    keys = np.unique(postings.column("band_key").to_numpy(zero_copy_only=False))
    return postings, sig.select(["doc_id", "shingles"]), keys


@ray.remote
def _stored_postings(path: str, n_bands: int, *keys: np.ndarray) -> pa.Table:
    """Candidate wave, stored side: one ``signatures/`` file -> its band
    postings (side 0) whose ``band_key`` is one of the query's ``keys``
    (the sign tasks' key arrays). Exact for candidates.band_runs: a key
    the query holds keeps its whole run from every file, so the
    distinct-signature cap sees every posting of it, and a run the
    query does not hold has no query posting to pair with."""
    held = np.unique(np.concatenate(keys))
    p = _side_postings(pq.read_table(path, columns=["doc_id", "bands"]), n_bands, 0)
    k = p.column("band_key").to_numpy(zero_copy_only=False)
    pos = np.minimum(np.searchsorted(held, k), held.shape[0] - 1)
    return p.filter(pa.array(held[pos] == k))


@ray.remote(num_returns=2)
def _combine_candidates(
    cfg: DedupConfig, n_postings: int, n_sets: int, *parts: pa.Table
) -> tuple[pa.Table, pa.Table]:
    """Candidate wave, combine. ``parts`` are ``n_postings`` posting
    tables (stored and query side), then the sign tasks' ``n_sets``
    ``(doc_id, shingles)`` tables, then the fold's exact-path ``(a, b,
    n_collisions)`` pair tables. Returns the ``(a=query, b=stored,
    n_collisions)`` pairs of the band runs both sides share
    (_cross_side_pairs) with at least cfg.min_band_collisions shared
    bands (the engine's gate, candidate_pair_refs), unioned with the
    pair tables; and the sets concatenated for the verify wave, one
    object store copy rather than one per verify task."""
    import pyarrow.compute as pc

    from raydedup.stages.pair_agg import reduce_pair_table

    cand = _cross_side_pairs(pa.concat_tables(parts[:n_postings]), cfg.max_band_postings)
    cand = cand.rename_columns(["a", "b", "n_collisions"])
    if cfg.min_band_collisions > 1:
        cand = cand.filter(pc.greater_equal(cand["n_collisions"], cfg.min_band_collisions))
    sets, pairs = parts[n_postings : n_postings + n_sets], parts[n_postings + n_sets :]
    if pairs:
        cand = reduce_pair_table(pa.concat_tables([cand, *pairs]), sum_cols=["n_collisions"])
    return cand, pa.concat_tables(sets)


@ray.remote(num_returns=2)
def _verify_stored_file(
    path: str, pairs: pa.Table, q_sets: pa.Table, cfg: DedupConfig, tau: float, drop_self: bool
) -> tuple[pa.Table, pa.Table]:
    """Verify wave: one ``docs/`` file. Reads only the candidate matches
    (``doc_id`` pushdown) and scores the pairs whose match is in this
    file against the query side's sets ``q_sets``: the two sides are
    looked up apart, so a query doc that shares a ``doc_id`` with a
    stored doc is scored on its own text. Byte-identical stored texts
    (one ``text_sha256``) are shingled and scored once for all their
    copies. ``drop_self`` drops the ``a == b`` pairs first. Returns the
    ``(a, b, n_collisions, jaccard, match_url)`` rows at ``jaccard >=
    tau`` and the ``(doc_id, text)`` of their matches (for the segment
    pass); 0-column empties if none."""
    import pyarrow.compute as pc

    from raydedup.stages.verify import _jaccard_packed, lookup_packed, packed_shingle_table

    if drop_self:
        pairs = pairs.filter(pc.not_equal(pairs["a"], pairs["b"]))
    b_all = pairs.column("b").to_numpy(zero_copy_only=False)
    if not b_all.shape[0]:
        return pa.table({}), pa.table({})
    docs = pq.read_table(
        path,
        columns=["doc_id", "text", "url", "text_sha256"],
        filters=[("doc_id", "in", np.unique(b_all))],
    )
    if not docs.num_rows:
        return pa.table({}), pa.table({})
    ids, first = np.unique(docs.column("doc_id").to_numpy(zero_copy_only=False), return_index=True)
    docs = docs.take(pa.array(first))
    pairs = pairs.filter(pa.array(np.isin(b_all, ids)))
    pos = np.searchsorted(ids, pairs.column("b").to_numpy(zero_copy_only=False))
    # one shingle set per distinct text, one score per (query doc, text)
    sha = docs.column("text_sha256").to_numpy(zero_copy_only=False)
    _, rep, text_of = np.unique(sha, return_index=True, return_inverse=True)
    m_sets = packed_shingle_table(docs.take(pa.array(rep)), cfg).column("shingles")
    a = pairs.column("a").to_numpy(zero_copy_only=False)
    scored, score_of = np.unique(np.stack([a, text_of[pos]], axis=1), axis=0, return_inverse=True)
    q_sh = lookup_packed(q_sets, scored[:, 0])[0]
    jac = _jaccard_packed(q_sh.to_pylist(), m_sets.take(pa.array(scored[:, 1])).to_pylist())
    jac = jac[score_of.reshape(-1)]
    rows = pairs.append_column("jaccard", pa.array(jac, pa.float64())).append_column(
        "match_url", docs.column("url").take(pa.array(pos))
    ).filter(pa.array(jac >= tau))
    matched = np.isin(ids, rows.column("b").to_numpy(zero_copy_only=False))
    return rows, docs.select(["doc_id", "text"]).filter(pa.array(matched))


def _candidate_wave(sig_files: list[str], blocks: list[tuple], cfg: DedupConfig, pairs=()):
    """Candidate wave over the stored ``sig_files`` and the query
    ``blocks`` (``(ref, num_rows)`` of ``doc_id,text`` tables): one
    ``query_sign`` task per CPU, each on one row slice (_row_slices);
    one ``query_stored`` task per file, given the sign tasks' key
    arrays; one ``query_candidates`` combine task, which also unions
    the pair tables ``pairs`` (refs) into its output. Nothing is
    fetched: returns the refs of the ``(a=query, b=stored,
    n_collisions)`` candidates and of the query side's ``(doc_id,
    shingles)`` sets."""
    sign = _sign_slice.options(name="query_sign")
    slices = _row_slices(blocks, cluster_cpus())
    signed = [sign.remote(cfg, lo, hi, *refs) for lo, hi, refs in slices]
    keys = [s[2] for s in signed]
    stored = _stored_postings.options(name="query_stored")
    postings = [stored.remote(f, cfg.n_bands, *keys) for f in sig_files] + [s[0] for s in signed]
    sets = [s[1] for s in signed]
    combine = _combine_candidates.options(name="query_candidates")
    return combine.remote(cfg, len(postings), len(sets), *postings, *sets, *pairs)


def _verify_wave(
    doc_files: list[str], cand, q_sets, cfg: DedupConfig, tau: float, drop_self: bool = False
) -> list:
    """Verify wave: one ``query_verify`` task (_verify_stored_file) per
    stored ``docs/`` file over the refs ``cand`` and ``q_sets`` of
    _candidate_wave; returns each task's (rows, matched docs) ref
    pair."""
    task = _verify_stored_file.options(name="query_verify")
    return [task.remote(f, cand, q_sets, cfg, tau, drop_self) for f in doc_files]


@ray.remote
def _segments_chunk(pairs: pa.Table, q_blocks: list, m_docs: list) -> pa.Table:
    """Matched segments of a chunk of result rows, each side's token
    sequences from its own docs: ``q_blocks`` (the query blocks) for
    ``a``, ``m_docs`` (the verify wave's matched texts) for ``b``."""
    from raydedup.stages.lcs import segment_table, sequence_getter, token_sequence_table
    from raydedup.stages.verify import pack_sets

    def side(refs: list, col: str):
        t = pa.concat_tables([x for x in ray.get(refs) if x.num_rows])
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        wanted = pairs.column(col).to_numpy(zero_copy_only=False)
        return sequence_getter(*pack_sets(token_sequence_table(t.filter(pa.array(np.isin(ids, wanted))))))

    return segment_table(pairs.column("a"), pairs.column("b"), side(q_blocks, "a"), side(m_docs, "b"))


def _empty_result(with_segments: bool) -> pd.DataFrame:
    cols = _RESULT_COLS | (_SEGMENT_COLS if with_segments else {})
    return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})


def query_index(
    index_dir: str,
    query_docs: Dataset,
    cfg: DedupConfig | None = None,
    top_k: int = 10,
    min_jaccard: float | None = None,
    with_segments: bool = False,
) -> pd.DataFrame:
    """``panako query``: match query docs against a stored index.

    Returns QueryResult-style rows: (query_doc_id, match_doc_id,
    match_url, n_collisions, jaccard, rank), jaccard-descending per
    query, truncated to ``top_k`` (K3: NUMBER_OF_QUERY_RESULTS analog).
    ``with_segments`` appends the matched-segment columns (lcs_tokens,
    lcs_ratio, query_start_token, match_start_token) — the reference's
    matched start/stop fields (``strategy/QueryResult.java:31-73``).
    Runs as the task DAG described in the module docstring.
    """
    from raydedup.util import arrow_blocks

    cfg = cfg or DedupConfig()
    tau = cfg.jaccard_tau if min_jaccard is None else min_jaccard
    blocks = arrow_blocks(query_docs)
    if not sum(rows for _, rows in blocks):
        return _empty_result(with_segments)

    cand, q_sets = _candidate_wave(store_files(index_dir, "signatures"), blocks, cfg)
    verified = _verify_wave(store_files(index_dir, "docs"), cand, q_sets, cfg, tau)
    rows = [t for t in ray.get([v[0] for v in verified]) if t.num_rows]
    if not rows:
        return _empty_result(with_segments)
    # a doc_id stored in two files is verified in both; keep the first
    df = pa.concat_tables(rows).to_pandas().drop_duplicates(["a", "b"])
    df = df.rename(columns={"a": "query_doc_id", "b": "match_doc_id"})
    df = df.sort_values(
        ["query_doc_id", "jaccard", "match_doc_id"],
        ascending=[True, False, True],
        kind="mergesort",
    )
    df["rank"] = df.groupby("query_doc_id").cumcount() + 1
    df = df[df["rank"] <= top_k].reset_index(drop=True)[list(_RESULT_COLS)]
    if with_segments:
        # matched start/stop reporting (QueryResult.java:31-73): the
        # longest verbatim token run per top-k row, with its offset on
        # both sides
        pairs = pa.table(
            {
                "a": pa.array(df["query_doc_id"].to_numpy(dtype=np.int64)),
                "b": pa.array(df["match_doc_id"].to_numpy(dtype=np.int64)),
            }
        )
        n_chunks = min(2 * cluster_cpus(), max(1, len(df) // 64))
        bounds = np.linspace(0, len(df), n_chunks + 1).astype(int)
        m_docs = [v[1] for v in verified]
        q_refs = [ref for ref, _ in blocks]
        seg = pa.concat_tables(
            ray.get(
                [
                    _segments_chunk.remote(pairs.slice(lo, hi - lo), q_refs, m_docs)
                    for lo, hi in zip(bounds[:-1], bounds[1:])
                ]
            )
        )
        for c, s in zip(_SEGMENT_COLS, ("lcs_tokens", "lcs_ratio", "a_start", "b_start")):
            df[c] = seg.column(s).to_numpy()
    return df


_MONITOR_COLS = ["win_start_token", "win_stop_token", "match_doc_id", "match_url", "coverage"]


@ray.remote
def _monitor_file(path: str, win_tbl: pa.Table, w: int, s: int) -> pa.Table:
    """Monitor wave: one stored ``docs/`` file. Winnows its texts
    (containment.fingerprint_postings_table) and joins the postings
    with the window fingerprints ``win_tbl`` on ``fp_key`` -> the
    ``(win_id, doc_id, shared, url)`` rows of the (window, doc) pairs
    that share a fingerprint. Both sides are unique per (owner, key),
    so one joined row is one shared fingerprint."""
    from raydedup.stages.containment import fingerprint_postings_table

    docs = pq.read_table(path, columns=["doc_id", "text", "url"])
    hits = (
        fingerprint_postings_table(docs, w, s)
        .select(["fp_key", "doc_id"])
        .join(win_tbl, "fp_key", join_type="inner")
        .group_by(["win_id", "doc_id"])
        .aggregate([("fp_key", "count")])
    )
    ids, first = np.unique(docs.column("doc_id").to_numpy(zero_copy_only=False), return_index=True)
    pos = first[np.searchsorted(ids, hits.column("doc_id").to_numpy(zero_copy_only=False))]
    return pa.table(
        {
            "win_id": hits.column("win_id"),
            "doc_id": hits.column("doc_id"),
            "shared": hits.column("fp_key_count").cast(pa.int64()),
            "url": docs.column("url").take(pa.array(pos, pa.int64())),
        }
    )


def monitor_text(
    index_dir: str,
    text: str,
    cfg: DedupConfig | None = None,
    window_tokens: int = 200,
    step_tokens: int = 160,
) -> pd.DataFrame:
    """``panako monitor``: chop a long text into overlapping token
    windows (25 s / 20 s-step analog, ``OlafStrategy.java:561-573``) and
    containment-match every window against the INDEX (the per-window
    index lookup, ``PanakoStorageKV.java:293-379``): the windows'
    winnowed fingerprints go to the object store as one ``(fp_key,
    win_id)`` table, and one ``_monitor_file`` task per stored ``docs/``
    file returns its (window, doc) shared-fingerprint counts; nothing
    else reaches the driver. coverage >= cfg.containment_min_coverage
    gates a hit. Returns (win_start_token, win_stop_token, match_doc_id,
    match_url, coverage)."""
    from raydedup.stages.containment import winnowed_fingerprints

    cfg = cfg or DedupConfig()
    tokens = text.split()
    windows = []
    for start in range(0, max(1, len(tokens) - window_tokens + step_tokens), step_tokens):
        chunk = " ".join(tokens[start : start + window_tokens])
        if chunk:
            windows.append((start, min(start + window_tokens, len(tokens)), chunk))

    w, s = cfg.containment_window, cfg.containment_stride
    win_rows = {"win_id": [], "fp_key": []}
    win_meta = []  # (start, stop, n_fp)
    for wid, (start, stop, chunk) in enumerate(windows):
        qf = winnowed_fingerprints(chunk, w, s)
        win_meta.append((start, stop, qf.shape[0]))
        win_rows["win_id"].extend([wid] * qf.shape[0])
        win_rows["fp_key"].extend(qf.view(np.int64).tolist())
    if not win_rows["win_id"]:
        return pd.DataFrame(columns=_MONITOR_COLS)
    win_tbl = ray.put(
        pa.table(
            {
                "fp_key": pa.array(win_rows["fp_key"], type=pa.int64()),
                "win_id": pa.array(win_rows["win_id"], type=pa.int64()),
            }
        )
    )
    parts = [
        t
        for t in ray.get(
            [_monitor_file.remote(f, win_tbl, w, s) for f in store_files(index_dir, "docs")]
        )
        if t.num_rows
    ]
    if not parts:
        return pd.DataFrame(columns=_MONITOR_COLS)
    hits = pa.concat_tables(parts).to_pandas()
    # a doc_id stored in two files takes the url of the first
    first = hits.drop_duplicates("doc_id")
    urls = dict(zip(first["doc_id"].astype(int), first["url"]))
    # a (win, doc) pair counts its shared fingerprints in every file
    # that stores the doc
    hits = hits.groupby(["win_id", "doc_id"], as_index=False)["shared"].sum()
    meta = pd.DataFrame(win_meta, columns=["start", "stop", "n_fp"])
    hits["coverage"] = hits["shared"] / hits["win_id"].map(meta["n_fp"]).clip(lower=1)
    hits = hits[hits["coverage"] >= cfg.containment_min_coverage]
    if hits.empty:
        return pd.DataFrame(columns=_MONITOR_COLS)
    out = pd.DataFrame(
        {
            "win_start_token": hits["win_id"].map(meta["start"]).astype(int),
            "win_stop_token": hits["win_id"].map(meta["stop"]).astype(int),
            "match_doc_id": hits["doc_id"].astype(np.int64),
            "match_url": hits["doc_id"].astype(int).map(urls),
            "coverage": hits["coverage"].astype(float),
        }
    )
    return out.sort_values(
        ["win_start_token", "match_doc_id"], kind="mergesort"
    ).reset_index(drop=True)


@ray.remote
def _ids_of(path: str) -> np.ndarray:
    """The sorted unique doc ids of one stored ``docs/`` file."""
    t = pq.read_table(path, columns=["doc_id"])
    return np.unique(t.column("doc_id").to_numpy(zero_copy_only=False))


@ray.remote
def _import_shard(
    pres: np.ndarray, docs_f: str, sigs_f: str, dst_docs: str, dst_sigs: str
) -> tuple[int, int]:
    """load_index, one source shard: write its docs and signatures whose
    doc_id is not in ``pres`` as a new destination shard; returns
    (imported, skipped) doc counts."""
    from raydedup.state.checkpoint import _atomic_write_table

    dt = pq.read_table(docs_f)
    ids = dt.column("doc_id").to_numpy(zero_copy_only=False)
    keep = ~np.isin(ids, pres)
    n_new, n_skip = int(keep.sum()), int((~keep).sum())
    if n_new == 0:
        return 0, n_skip
    _atomic_write_table(dt.filter(pa.array(keep)), dst_docs)
    st = pq.read_table(sigs_f, columns=["doc_id", "bands"])
    sids = st.column("doc_id").to_numpy(zero_copy_only=False)
    _atomic_write_table(st.filter(pa.array(~np.isin(sids, pres))), dst_sigs)
    return n_new, n_skip


def load_index(
    index_dir: str,
    src_index_dir: str,
    cfg: DedupConfig | None = None,
    *,
    force: bool = False,
) -> dict:
    """``panako load`` (``strategy/olaf/OlafStrategy.java:623-664``,
    ``cli/Load.java``): bulk-import an externally-produced index — a
    docs/ + signatures/ Parquet set, e.g. another engine run's store —
    into an existing index, skipping doc_ids already present.

    Semantics mirror the reference's cached-fingerprint import: already-
    present resources are skipped (the ``hasResource`` check becomes a
    doc_id anti-join), everything else is appended as new shards, and
    the manifest records each imported source shard so a re-load is a
    no-op (resume lineage, same as store).

    Signatures are only comparable under the same shingle/minhash
    config, so a source manifest carrying a DIFFERENT config hash is
    refused unless ``force=True`` (the reference trusts cache files
    blindly; refusing is the safe default when the config is encoded in
    the payload). A source without a manifest is trusted as-is.

    Scale note: the present-id set is gathered to the driver as one
    sorted int64 array (8 B/doc — fine into the billions, same envelope
    as delete_from_index); at 10^12 ids this verb would switch to a
    per-bucket hash-exchange anti-join over the shard files.
    """
    from raydedup.state.checkpoint import CheckpointManager

    cfg = cfg or DedupConfig()
    mgr = CheckpointManager(index_dir, cfg)

    src_manifest = os.path.join(src_index_dir, "manifest.json")
    if os.path.exists(src_manifest):
        import json

        with open(src_manifest) as f:
            src_hash = json.load(f).get("config_hash")
        if src_hash and src_hash != mgr.cfg_hash and not force:
            raise ValueError(
                f"source index config_hash {src_hash} != destination "
                f"{mgr.cfg_hash}: signatures are not comparable across "
                "configs (pass force=True to import anyway)"
            )

    src_docs = store_files(src_index_dir, "docs")
    if not src_docs:
        raise FileNotFoundError(f"no docs/*.parquet under {src_index_dir}")

    # present-id gather: one column-pruned parallel read per dest shard
    dest_files = store_files(index_dir, "docs")
    parts = ray.get([_ids_of.remote(f) for f in dest_files])
    present = (
        np.unique(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
    )
    present_ref = ray.put(present)

    from raydedup.state.checkpoint import shard_file_tag

    futs: dict = {}
    skipped_shards = 0
    for df_path in src_docs:
        st = os.stat(df_path)
        key = f"load:{os.path.basename(src_index_dir.rstrip(os.sep))}:{os.path.basename(df_path)}:{st.st_size}"
        if mgr.shard_done(key):
            skipped_shards += 1
            continue
        sig_path = os.path.join(src_index_dir, "signatures", os.path.basename(df_path))
        if not os.path.exists(sig_path):
            raise FileNotFoundError(f"missing signature shard for {df_path}")
        tag = shard_file_tag(key)
        futs[
            _import_shard.remote(
                present_ref,
                df_path,
                sig_path,
                mgr.path("docs", f"shard={tag}.parquet"),
                mgr.path("signatures", f"shard={tag}.parquet"),
            )
        ] = (key, tag, df_path)

    loaded_docs = skipped_docs = loaded_shards = 0
    for ref, (key, tag, src_f) in futs.items():
        n_new, n_skip = ray.get(ref)
        loaded_docs += n_new
        skipped_docs += n_skip
        loaded_shards += 1
        mgr.mark_shard(key, shard=tag, n_docs=n_new, source=src_f, imported=True)
    return {
        "loaded_docs": loaded_docs,
        "skipped_docs": skipped_docs,
        "loaded_shards": loaded_shards,
        "skipped_shards": skipped_shards,
        "index_dir": index_dir,
    }


def delete_from_index(index_dir: str, urls: list[str]) -> dict:
    """``panako delete`` (D4 index subtraction, ``cli/Delete.java:66-130``):
    remove docs by url from a stored index. Index-as-Parquet makes delete
    a filter + rewrite of only the shards containing the victims; the
    manifest keeps its lineage (shards stay marked done — their source
    files have not changed, re-storing them would resurrect the docs,
    which matches the reference's explicit-delete semantics)."""
    from raydedup.stages.extract import doc_ids_from_urls
    from raydedup.state.checkpoint import _atomic_write_table

    victim_ids = doc_ids_from_urls(urls)
    removed = 0
    touched = 0
    for sub in ("docs", "signatures"):
        for f in store_files(index_dir, sub):
            t = pq.read_table(f)
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            mask = ~np.isin(ids, victim_ids)
            if mask.all():
                continue
            if sub == "docs":
                removed += int((~mask).sum())
            _atomic_write_table(t.filter(pa.array(mask)), f)
            touched += 1
    return {"removed_docs": removed, "rewritten_shards": touched}
