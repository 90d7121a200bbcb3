"""Heavy hitters: all tokens with corpus frequency > n/(capacity+1),
with EXACT counts — computed WITHOUT a token exchange.

The corpus-statistics surface (reference analog: the storage statistics
report, ``cli/Stats.java`` / the hot-hash tail
``PanakoStorageKV.java:381-467``) re-done with a bounded-memory sketch:
at 100 TB the full (token, count) exchange behind ``doc_frequency``
moves the whole vocabulary; the heavy-hitter question ("which tokens
dominate?") needs only O(capacity) state:

1. **Misra-Gries pass** — each batch produces an MG summary (at most
   ``capacity`` (token, residual) entries; compress = subtract the
   (capacity+1)-th largest count, keep positives). Summaries are
   MERGEABLE (Agarwal et al., "Mergeable Summaries", PODS'12): sum
   residuals, re-compress. Total undercount <= n/(capacity+1), so any
   token with true count > n/(capacity+1) SURVIVES regardless of block
   arrival/merge order. The driver folds summaries streaming with
   O(capacity) memory.
2. **Exact recount pass** — the surviving candidate set (<= capacity
   strings) is broadcast once (``ray.put``); each batch counts ONLY
   candidate tokens (vectorized ``pc.is_in`` — exact string membership,
   no hash-collision exposure) and the driver sums the tiny partials.

The reported set — tokens with exact count strictly > n/(capacity+1) —
is therefore EXACT and deterministic even though intermediate MG
residuals depend on merge order: order only perturbs which *extra*
candidates get recounted, and the exact filter removes them.

Scale shape: two streaming passes, zero shuffle, driver memory
O(capacity). The only broadcast is <= capacity strings.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
from ray.data import Dataset

from raydedup.util import arrow_block_refs

I64 = np.int64

_SUMMARY_SCHEMA = pa.schema([("token", pa.large_string()), ("cnt", pa.int64())])

# in-band total-token sentinel: "" is never a real token (the tokenizer
# drops empty strings), so a summary row token="" carries the batch's
# exact total token count through the same table plumbing
_TOTAL_SENTINEL = ""


def _group_sum(tbl: pa.Table) -> tuple[pa.Array, np.ndarray]:
    """(token, cnt) rows -> (unique tokens, summed counts)."""
    g = tbl.group_by(["token"], use_threads=False).aggregate([("cnt", "sum")])
    return g.column("token").combine_chunks(), g.column("cnt_sum").to_numpy(
        zero_copy_only=False
    ).astype(I64)


def _compress(tokens: pa.Array, counts: np.ndarray, capacity: int):
    """MG compress: subtract the (capacity+1)-th largest count; keep
    strictly-positive residuals (at most ``capacity`` of them)."""
    if counts.shape[0] <= capacity:
        return tokens, counts
    kth = np.partition(counts, counts.shape[0] - capacity - 1)[
        counts.shape[0] - capacity - 1
    ]
    keep = counts > kth
    return tokens.filter(pa.array(keep)), counts[keep] - kth


def _batch_summary(t: pa.Table, capacity: int) -> pa.Table:
    """One batch -> MG summary (+ the exact-total sentinel row)."""
    from raydedup.stages.tfidf import _batch_doc_token_counts

    per_doc = _batch_doc_token_counts(t)
    if per_doc.num_rows == 0:
        return pa.table(
            {"token": pa.array([_TOTAL_SENTINEL], pa.large_string()),
             "cnt": pa.array([0], pa.int64())}
        )
    tokens, counts = _group_sum(
        pa.table(
            {
                "token": per_doc.column("token"),
                "cnt": per_doc.column("tf"),
            }
        )
    )
    total = int(counts.sum())
    tokens, counts = _compress(tokens, counts, capacity)
    return pa.table(
        {
            "token": pa.concat_arrays(
                [pa.array([_TOTAL_SENTINEL], pa.large_string()),
                 tokens.cast(pa.large_string())]
            ),
            "cnt": pa.array(np.concatenate([[total], counts]), pa.int64()),
        }
    )


def heavy_hitters(
    docs: Dataset, capacity: int = 4096, text_col: str = "text"
) -> pa.Table:
    """-> (token, cnt) for every token with exact corpus count
    strictly > total_tokens/(capacity+1), ordered (cnt DESC, token ASC).
    Exact and deterministic (see module docstring)."""
    import pyarrow.compute as pc

    proj = docs.select_columns(["doc_id", text_col])
    if text_col != "text":
        proj = proj.rename_columns({text_col: "text"})
    summaries = proj.map_batches(
        lambda t: _batch_summary(t, capacity), batch_format="pyarrow"
    )

    # fold summaries on the driver with O(capacity) memory: re-compress
    # whenever the buffer exceeds a few compressions' worth of rows
    buf: list[pa.Table] = []
    buf_rows = 0
    total_tokens = 0

    def _fold(tables: list[pa.Table]):
        tokens, counts = _group_sum(pa.concat_tables(tables))
        return _compress(tokens, counts, capacity)

    for ref in arrow_block_refs(summaries):
        tbl = ray.get(ref)
        if tbl.num_rows == 0:
            continue
        is_total = pc.equal(tbl.column("token"), _TOTAL_SENTINEL)
        total_tokens += int(
            pc.sum(tbl.filter(is_total).column("cnt")).as_py() or 0
        )
        rest = tbl.filter(pc.invert(is_total))
        if rest.num_rows:
            buf.append(rest.select(["token", "cnt"]).cast(_SUMMARY_SCHEMA))
            buf_rows += rest.num_rows
        if buf_rows > 8 * capacity:
            tokens, counts = _fold(buf)
            buf = [pa.table({"token": tokens.cast(pa.large_string()),
                             "cnt": pa.array(counts, pa.int64())})]
            buf_rows = counts.shape[0]
    if not buf or total_tokens == 0:
        return pa.table(
            {"token": pa.array([], pa.large_string()), "cnt": pa.array([], pa.int64())}
        )
    cand_tokens, _ = _fold(buf)

    # pass 2: exact recount of the candidate set only (broadcast once)
    cand_ref = ray.put(cand_tokens.cast(pa.large_string()))

    def recount(t: pa.Table) -> pa.Table:
        from raydedup.stages.tfidf import _batch_doc_token_counts

        cand = ray.get(cand_ref)
        per_doc = _batch_doc_token_counts(t)
        if per_doc.num_rows == 0:
            return _SUMMARY_SCHEMA.empty_table()
        toks = per_doc.column("token").combine_chunks().cast(pa.large_string())
        keep = pc.is_in(toks, value_set=cand)
        sub = pa.table(
            {"token": toks.filter(keep),
             "cnt": per_doc.column("tf").combine_chunks().filter(keep)}
        )
        if sub.num_rows == 0:
            return _SUMMARY_SCHEMA.empty_table()
        tokens, counts = _group_sum(sub)
        return pa.table(
            {"token": tokens.cast(pa.large_string()),
             "cnt": pa.array(counts, pa.int64())}
        )

    parts: list[pa.Table] = []
    rows = 0
    for ref in arrow_block_refs(proj.map_batches(recount, batch_format="pyarrow")):
        tbl = ray.get(ref)
        if tbl.num_rows == 0:
            continue
        parts.append(tbl)
        rows += tbl.num_rows
        if rows > 16 * capacity:
            tokens, counts = _group_sum(pa.concat_tables(parts))
            parts = [pa.table({"token": tokens.cast(pa.large_string()),
                               "cnt": pa.array(counts, pa.int64())})]
            rows = counts.shape[0]
    if not parts:
        return _SUMMARY_SCHEMA.empty_table()
    tokens, counts = _group_sum(pa.concat_tables(parts))

    # the exact threshold filter: strictly greater than n/(capacity+1),
    # in integer arithmetic (cnt * (capacity+1) > n) — no float error
    keep = counts * (capacity + 1) > total_tokens
    tokens, counts = tokens.filter(pa.array(keep)), counts[keep]
    out = pa.table(
        {"token": tokens.cast(pa.large_string()), "cnt": pa.array(counts, pa.int64())}
    )
    return out.sort_by([("cnt", "descending"), ("token", "ascending")])
