"""BM25 ranked keyword search over the corpus.

`stages/search.py` is the boolean distributed grep; this is its ranked
sibling — the `panako query` result-scoring surface
(`strategy/QueryResult.java:45-93` scores + `OlafStrategy.java:543-557`
sort-desc/limit) transplanted to text retrieval: score every document
containing at least one query term with a BM25-family function and
return the global top-k.

Scoring. Classic BM25 with one deliberate deviation: the idf factor is
the RAW odds ratio ``(N - df + 0.5) / (df + 0.5)`` without the log.
``ln`` results are not guaranteed bit-identical across engines, raw
IEEE divisions are — the repo's oracle-parity rule (same reason
``top_terms`` uses ``tf/df``). The log is monotone, so per-term the
ranking pressure is preserved; scores are comparable within one query
only (as with any BM25 variant). ``k1=1.2, b=0.75`` defaults.

Scale shape: zero shuffle. Pass 1 computes (n_docs, sum_dl, per-term
df) as per-batch partials merged on the driver (O(terms) numbers). Pass
2 broadcasts those constants by closure, scores each batch vectorized,
and keeps a per-block local top-k; the driver merges k-row partials —
O(blocks x k) driver memory, never the corpus. Ordering is
(score DESC, doc_id ASC), fully deterministic including the k boundary.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from raydedup.util import arrow_block_refs

I64 = np.int64
F64 = np.float64

_OUT_SCHEMA = pa.schema(
    [
        ("rank", pa.int64()),
        ("doc_id", pa.int64()),
        ("score", pa.float64()),
        ("dl", pa.int64()),
        ("n_matched", pa.int64()),
    ]
)


def _doc_term_matrix(t: pa.Table, tset: list[str]):
    """batch -> (doc_ids, dl, tf[n_docs, n_terms]) over ALL batch docs
    (zero-token docs included with dl=0)."""
    import pyarrow.compute as pc

    from raydedup.stages.tfidf import _batch_doc_token_counts

    ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
    order = np.argsort(ids, kind="stable")
    ids_sorted = ids[order]
    # the searchsorted row-mapping below silently mis-attributes tf/dl if
    # a doc_id repeats within a batch — fail loudly instead
    if ids_sorted.shape[0] > 1 and not np.all(np.diff(ids_sorted) > 0):
        raise ValueError("bm25: duplicate doc_id within a batch")

    dl = np.zeros(ids.shape[0], dtype=I64)
    tf = np.zeros((ids.shape[0], len(tset)), dtype=I64)
    c = _batch_doc_token_counts(t)
    if c.num_rows:
        cdoc = c.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
        ctf = c.column("tf").to_numpy(zero_copy_only=False).astype(I64)
        pos = np.searchsorted(ids_sorted, cdoc)
        row = order[pos]  # doc_ids are unique per batch
        np.add.at(dl, row, ctf)
        tok = c.column("token")
        for j, term in enumerate(tset):
            m = pc.equal(tok, term).to_numpy(zero_copy_only=False)
            if m.any():
                np.add.at(tf, (row[m], j), ctf[m])
    return ids, dl, tf


def bm25_search(
    docs: Dataset,
    terms: list[str],
    k: int = 20,
    k1: float = 1.2,
    b: float = 0.75,
) -> pa.Table:
    """docs(doc_id, text) -> top-k (rank, doc_id, score, dl, n_matched)
    by log-free BM25 over lowered whitespace tokens. Deterministic:
    ties break on doc_id ascending."""
    tset = sorted({t.lower() for t in terms})
    if not tset:
        raise ValueError("bm25_search needs at least one term")

    proj = docs.select_columns(["doc_id", "text"])

    # pass 1: corpus stats (per-batch partials, O(terms) driver merge)
    def stats(t: pa.Table) -> pa.Table:
        _, dl, tf = _doc_term_matrix(t, tset)
        cols = {
            "n": pa.array([t.num_rows], pa.int64()),
            "sdl": pa.array([int(dl.sum())], pa.int64()),
        }
        df = (tf > 0).sum(axis=0)
        for j in range(len(tset)):
            cols[f"df{j}"] = pa.array([int(df[j])], pa.int64())
        return pa.table(cols)

    parts = proj.map_batches(stats, batch_format="pyarrow").to_pandas()
    n_total = int(parts["n"].sum())
    if n_total == 0:
        return _OUT_SCHEMA.empty_table()
    sdl = int(parts["sdl"].sum())
    dfs = [int(parts[f"df{j}"].sum()) for j in range(len(tset))]
    avgdl = sdl / n_total  # double division, mirrors CAST/CAST in SQL
    # raw-odds idf, exact int -> double conversions (corpus < 2^52 docs)
    idfs = [((n_total - df) + 0.5) / (df + 0.5) for df in dfs]

    # pass 2: vectorized scoring + per-block top-k
    def score_block(t: pa.Table) -> pa.Table:
        ids, dl, tf = _doc_term_matrix(t, tset)
        if ids.shape[0] == 0:
            return _OUT_SCHEMA.empty_table()
        dlf = dl.astype(F64)
        # one shared length normalizer per doc; term order is the
        # sorted tset, summed left-to-right — the SQL mirror adds the
        # same per-term expressions in the same textual order
        norm = k1 * (1.0 - b + b * dlf / avgdl)
        score = np.zeros(ids.shape[0], dtype=F64)
        for j in range(len(tset)):
            tff = tf[:, j].astype(F64)
            score = score + idfs[j] * (tff * (k1 + 1.0)) / (tff + norm)
        n_matched = (tf > 0).sum(axis=1).astype(I64)
        keep = n_matched > 0
        if not keep.any():
            return _OUT_SCHEMA.empty_table()
        ids, score, dl, n_matched = ids[keep], score[keep], dl[keep], n_matched[keep]
        order = np.lexsort((ids, -score))[:k]
        return pa.table(
            {
                "rank": pa.array(np.zeros(order.shape[0], dtype=I64), pa.int64()),
                "doc_id": pa.array(ids[order], pa.int64()),
                "score": pa.array(score[order], pa.float64()),
                "dl": pa.array(dl[order], pa.int64()),
                "n_matched": pa.array(n_matched[order], pa.int64()),
            }
        )

    merged = arrow_block_refs(proj.map_batches(score_block, batch_format="pyarrow"))
    import ray

    tabs = [t for t in ray.get(list(merged)) if t.num_rows]
    if not tabs:
        return _OUT_SCHEMA.empty_table()
    allp = pa.concat_tables(tabs, promote_options="default")
    ids = allp.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
    score = allp.column("score").to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, -score))[:k]
    out = allp.take(pa.array(order))
    return out.set_column(
        0, "rank", pa.array(np.arange(1, out.num_rows + 1, dtype=I64), pa.int64())
    )
