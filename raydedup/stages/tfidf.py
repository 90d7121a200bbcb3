"""Corpus term statistics: document frequency and per-doc top terms.

The storage-statistics analog (``cli/Stats.java`` reports corpus-level
index statistics; here the corpus object is the token) extended to the
text-analysis surface a training-data pipeline needs: a DF table for
boilerplate/stopword discovery and a per-doc "most distinctive terms"
ranking for inspection and quality filtering.

Scale shape:

- ``doc_frequency``: per-batch partial DF (distinct (doc, token) pairs
  collapsed with a vectorized Arrow group_by — the combiner), then ONE
  hash exchange keyed on the token's 64-bit hash. Inside a bucket the
  final count groups by the REAL token string, so hash collisions only
  affect bucket placement, never counts (same discipline as
  ``stages/windows.py``).
- ``top_terms``: ranks each doc's tokens by ``score = tf / df`` — the
  idf ∝ 1/df variant, chosen DELIBERATELY over ``tf * ln(N/df)``
  because raw IEEE division is bit-identical across engines while
  ``ln`` is not guaranteed to be (the oracle-parity rule the whole
  repo follows); ordering is (score DESC, token ASC), fully
  deterministic. The DF side is filtered to ``df >= min_df`` and
  broadcast as packed arrays (vocab small-side), or exchanged when the
  vocabulary exceeds ``broadcast_max_vocab`` — both paths return
  identical tables (tested).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd
from ray.data import Dataset

from raydedup.hashing import hash_strings_u64
from raydedup.util import arrow_block_refs

I64 = np.int64

_TOP_TERMS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("rank", pa.int64()),
        ("token", pa.large_string()),
        ("tf", pa.int64()),
        ("df", pa.int64()),
        ("score", pa.float64()),
    ]
)


def _batch_doc_token_counts(t: pa.Table) -> pa.Table:
    """(doc_id, text) batch -> (doc_id, token, tf): per-doc lowered
    token counts (order-free aggregate of
    :func:`batch_doc_tokens_ordered`)."""
    flat = batch_doc_tokens_ordered(t)
    if flat.num_rows == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "token": pa.array([], pa.large_string()),
                "tf": pa.array([], pa.int64()),
            }
        )
    counts = flat.group_by(["doc_id", "token"]).aggregate([([], "count_all")])
    return counts.rename_columns(["doc_id", "token", "tf"]).cast(
        pa.schema(
            [("doc_id", pa.int64()), ("token", pa.large_string()), ("tf", pa.int64())]
        )
    )


def batch_doc_tokens_ordered(t: pa.Table) -> pa.Table:
    """(doc_id, text) batch -> (doc_id, token) in DOCUMENT ORDER, one
    row per token occurrence (each doc's rows contiguous and ordered —
    the n-gram stages read consecutive rows as adjacent tokens).
    ASCII rows take the vectorized Arrow split/lower path; non-ASCII
    rows the per-doc ``tokenize`` path (same routing as the signature
    stage, so tokens never depend on batch layout)."""
    import pyarrow.compute as pc

    from raydedup.stages.signatures import tokenize

    col = t.column("text")
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    arr = pc.fill_null(arr, "")
    ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
    ascii_mask = pc.string_is_ascii(arr).to_numpy(zero_copy_only=False)
    parts: list[pa.Table] = []
    if ascii_mask.any():
        sub = arr.filter(pa.array(ascii_mask))
        toks = pc.utf8_split_whitespace(sub)
        offs = toks.offsets.to_numpy().astype(I64)
        vals = toks.values
        if offs[0] != 0 or len(vals) != offs[-1]:
            vals = vals.slice(offs[0], offs[-1] - offs[0])
            offs = offs - offs[0]
        keep = pc.not_equal(vals, "").to_numpy(zero_copy_only=False)
        cum = np.zeros(keep.shape[0] + 1, dtype=I64)
        np.cumsum(keep, out=cum[1:])
        new_offs = cum[offs]
        kept = pc.ascii_lower(vals.filter(pa.array(keep)))
        doc_rep = np.repeat(ids[ascii_mask], np.diff(new_offs))
        parts.append(
            pa.table(
                {
                    "doc_id": pa.array(doc_rep, type=pa.int64()),
                    "token": kept.cast(pa.large_string()),
                }
            )
        )
    slow = np.flatnonzero(~ascii_mask)
    if slow.shape[0]:
        texts = arr.to_pylist()
        sdoc: list[int] = []
        stok: list[str] = []
        for d in slow:
            for w in tokenize(texts[d]):
                sdoc.append(int(ids[d]))
                stok.append(w)
        parts.append(
            pa.table(
                {
                    "doc_id": pa.array(sdoc, type=pa.int64()),
                    "token": pa.array(stok, type=pa.large_string()),
                }
            )
        )
    if not parts:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "token": pa.array([], pa.large_string()),
            }
        )
    return pa.concat_tables(parts)


def _with_token_key(t: pa.Table) -> pa.Table:
    tok = t.column("token").to_numpy(zero_copy_only=False)
    key = hash_strings_u64(tok).view(I64)
    return t.append_column("key", pa.array(key, type=pa.int64()))


def doc_frequency(docs: Dataset, min_df: int = 1) -> Dataset:
    """docs(doc_id, text) -> (token, df): number of distinct docs each
    lowered whitespace token occurs in, filtered to df >= min_df."""

    def partial(t: pa.Table) -> pa.Table:
        c = _batch_doc_token_counts(t)
        p = c.group_by("token").aggregate([([], "count_all")])
        p = p.rename_columns(["token", "df_partial"]).cast(
            pa.schema([("token", pa.large_string()), ("df_partial", pa.int64())])
        )
        return _with_token_key(p)

    partials = docs.select_columns(["doc_id", "text"]).map_batches(
        partial, batch_format="pyarrow"
    )

    from raydedup.stages.exchange import hash_exchange_apply

    def reduce_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"token": pa.array([], pa.large_string()), "df": pa.array([], pa.int64())}
            )
        g = t.group_by("token").aggregate([("df_partial", "sum")])
        g = g.rename_columns(["token", "df"]).cast(
            pa.schema([("token", pa.large_string()), ("df", pa.int64())])
        )
        if min_df > 1:
            import pyarrow.compute as pc

            g = g.filter(pc.greater_equal(g.column("df"), min_df))
        return g

    refs = hash_exchange_apply(partials, "key", reduce_bucket, collect=False)
    return rd.from_arrow_refs(refs)


@ray.remote(num_returns=3)
def _pack_df(*blocks: pa.Table):
    """(n_vocab, sorted token-hash keys, aligned df) for broadcast —
    packed in a task from the DF table's block refs, so the vocabulary
    never lands on the driver."""
    parts = [b for b in blocks if b.num_rows]
    if not parts:
        return 0, np.empty(0, dtype=np.uint64), np.empty(0, dtype=I64)
    tbl = pa.concat_tables(parts)
    keys = hash_strings_u64(tbl.column("token").to_numpy(zero_copy_only=False))
    df = tbl.column("df").to_numpy(zero_copy_only=False).astype(I64)
    order = np.argsort(keys)
    return int(keys.shape[0]), keys[order], df[order]


def _topk_per_doc(t: pa.Table, k: int) -> pa.Table:
    """(doc_id, token, tf, df) -> top-k rows per doc by
    (tf/df DESC, token ASC), with rank. Vectorized lexsort."""
    if t.num_rows == 0:
        return _TOP_TERMS_SCHEMA.empty_table()
    d = t.column("doc_id").to_numpy(zero_copy_only=False)
    tf = t.column("tf").to_numpy(zero_copy_only=False).astype(I64)
    df = t.column("df").to_numpy(zero_copy_only=False).astype(I64)
    tok = t.column("token").to_numpy(zero_copy_only=False)
    score = tf.astype(np.float64) / df
    order = np.lexsort((tok, -score, d))
    ds_ = d[order]
    b = np.empty(ds_.shape[0], dtype=bool)
    b[0] = True
    b[1:] = ds_[1:] != ds_[:-1]
    pos = np.arange(ds_.shape[0]) - np.maximum.accumulate(
        np.where(b, np.arange(ds_.shape[0]), 0)
    )
    keep = pos < k
    sel = order[keep]
    return pa.table(
        {
            "doc_id": pa.array(d[sel], type=pa.int64()),
            "rank": pa.array(pos[keep] + 1, type=pa.int64()),
            "token": pa.array(tok[sel], type=pa.large_string()),
            "tf": pa.array(tf[sel], type=pa.int64()),
            "df": pa.array(df[sel], type=pa.int64()),
            "score": pa.array(score[sel], type=pa.float64()),
        }
    )


def df_commonness(docs: Dataset) -> Dataset:
    """docs(doc_id, text) -> (doc_id, n_tokens, df_sum, commonness):
    a corpus-frequency quality signal — how "common" a doc's vocabulary
    is. ``df_sum`` = Σ over token OCCURRENCES of that token's corpus
    document frequency (exact integer); ``commonness`` =
    ``df_sum / (n_tokens * n_docs)`` ∈ (0, 1], computed with ONE final
    IEEE division so it is bit-identical across engines (the repo's
    parity rule: never sum floats, sum integers and divide once).
    Low values flag rare-vocabulary docs (gibberish, codes, exotic
    boilerplate); high values flag stopword soup.

    Scale shape: the DF table is built by ``doc_frequency`` (combiner +
    ONE token-hash exchange), packed to sorted arrays in a task and
    broadcast (``ray.put`` once, read per task); the scoring pass is a
    stateless ``map_batches`` with a ``searchsorted`` lookup — no
    second shuffle.
    """
    docs = docs.select_columns(["doc_id", "text"]).materialize()
    n_docs = docs.count()
    df_tbl = doc_frequency(docs).materialize()
    _, keys_ref, dfv_ref = _pack_df.remote(*list(arrow_block_refs(df_tbl)))

    def score_batch(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
        c = _batch_doc_token_counts(t)
        n_tok = np.zeros(ids.shape[0], dtype=I64)
        df_sum = np.zeros(ids.shape[0], dtype=I64)
        if c.num_rows:
            keys = ray.get(keys_ref)
            dfv = ray.get(dfv_ref)
            tok = c.column("token").to_numpy(zero_copy_only=False)
            tf = c.column("tf").to_numpy(zero_copy_only=False).astype(I64)
            th = hash_strings_u64(tok)
            dfs = dfv[np.searchsorted(keys, th)]  # every token is in the DF table
            order = np.argsort(ids)
            cd = c.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
            pos = order[np.searchsorted(ids[order], cd)]
            np.add.at(n_tok, pos, tf)
            np.add.at(df_sum, pos, tf * dfs)
        denom = n_tok * np.int64(n_docs)
        commonness = np.where(denom > 0, df_sum / np.maximum(denom, 1), 0.0)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_tokens": pa.array(n_tok, type=pa.int64()),
                "df_sum": pa.array(df_sum, type=pa.int64()),
                "commonness": pa.array(commonness, type=pa.float64()),
            }
        )

    return docs.map_batches(score_batch, batch_format="pyarrow")


def top_terms(
    docs: Dataset,
    k: int = 3,
    min_df: int = 1,
    method: str = "auto",
    broadcast_max_vocab: int = 20_000_000,
) -> Dataset:
    """docs(doc_id, text) -> (doc_id, rank, token, tf, df, score):
    each doc's k most distinctive tokens by score = tf/df (ties ->
    token ASC). Tokens below ``min_df`` corpus-wide are excluded."""
    if method not in ("auto", "broadcast", "exchange"):
        raise ValueError(f"unknown top_terms method: {method!r}")
    docs = docs.select_columns(["doc_id", "text"]).materialize()
    df_tbl = doc_frequency(docs, min_df=min_df).materialize()

    counts = docs.map_batches(_batch_doc_token_counts, batch_format="pyarrow")

    if method != "exchange":
        # decide on the DISTRIBUTED count — the vocab is packed for
        # broadcast in a task from block refs; it never lands on the
        # driver
        if method == "broadcast" or df_tbl.count() <= broadcast_max_vocab:
            n_ref, keys_ref, dfv_ref = _pack_df.remote(
                *list(arrow_block_refs(df_tbl))
            )

            # counting + scoring + top-k fused in ONE UDF over DOC rows:
            # a doc row is atomic within its input block, so its count
            # rows can never straddle an output-block split (a separate
            # counts stage re-blocks at target_max_block_size and a
            # straddled doc would get two independent rank lists)
            def score_batch(t: pa.Table) -> pa.Table:
                c = _batch_doc_token_counts(t)
                keys = ray.get(keys_ref)
                dfv = ray.get(dfv_ref)
                tok = c.column("token").to_numpy(zero_copy_only=False)
                th = hash_strings_u64(tok)
                idx = np.searchsorted(keys, th)
                valid = idx < keys.shape[0]
                hit = np.zeros(th.shape[0], dtype=bool)
                if valid.any():
                    hit[valid] = keys[idx[valid]] == th[valid]
                sub = c.filter(pa.array(hit))
                dfs = dfv[np.searchsorted(keys, th[hit])] if hit.any() else np.empty(0, I64)
                sub = sub.append_column("df", pa.array(dfs, type=pa.int64()))
                return _topk_per_doc(sub, k)

            return docs.map_batches(score_batch, batch_format="pyarrow")

    # exchange path: join counts and df by token-hash bucket, then a
    # second exchange on doc_id for the per-doc top-k (a doc's tokens
    # spread across token buckets)
    from raydedup.stages.exchange import hash_exchange_apply, hash_exchange_join

    keyed_counts = counts.map_batches(_with_token_key, batch_format="pyarrow")
    keyed_df = df_tbl.map_batches(_with_token_key, batch_format="pyarrow")

    def join_bucket(tc: pa.Table, td: pa.Table) -> pa.Table:
        empty = pa.schema(
            [
                ("doc_id", pa.int64()),
                ("token", pa.large_string()),
                ("tf", pa.int64()),
                ("df", pa.int64()),
            ]
        ).empty_table()
        if tc.num_rows == 0 or td.num_rows == 0:
            return empty
        dtok = td.column("token").to_numpy(zero_copy_only=False)
        dval = td.column("df").to_numpy(zero_copy_only=False).astype(I64)
        order = np.argsort(dtok, kind="stable")
        dtok, dval = dtok[order], dval[order]
        ctok = tc.column("token").to_numpy(zero_copy_only=False)
        idx = np.searchsorted(dtok, ctok)
        valid = idx < dtok.shape[0]
        hit = np.zeros(ctok.shape[0], dtype=bool)
        if valid.any():
            hit[valid] = dtok[idx[valid]] == ctok[valid]
        if not hit.any():
            return empty
        sub = tc.filter(pa.array(hit))
        dfs = dval[np.searchsorted(dtok, ctok[hit])]
        return pa.table(
            {
                "doc_id": sub.column("doc_id"),
                "token": sub.column("token"),
                "tf": sub.column("tf"),
                "df": pa.array(dfs, type=pa.int64()),
            }
        )

    joined_refs = hash_exchange_join(keyed_counts, keyed_df, "key", "key", join_bucket)
    out_refs = hash_exchange_apply(
        joined_refs, "doc_id", lambda t: _topk_per_doc(t, k), collect=False
    )
    if not out_refs:
        return rd.from_arrow(_TOP_TERMS_SCHEMA.empty_table())
    return rd.from_arrow_refs(out_refs)


def vocab_stats(docs: Dataset) -> pa.Table:
    """docs(doc_id, text) -> ONE row of corpus vocabulary statistics:
    total token occurrences, distinct tokens, hapax tokens (corpus
    frequency exactly 1) and the max corpus frequency — the vocabulary
    health check (Zipf head/tail profile) a curation run reads before
    choosing tokenizer/filters.

    Scale shape: per-batch (token, cf_partial) combiner -> ONE
    token-hash-keyed exchange (exact string grouping in-bucket, same
    discipline as doc_frequency) -> each bucket emits ONE summary
    partial -> driver adds O(buckets) rows. Distinct/hapax counts are
    exact because a token's occurrences all land in one bucket.
    """

    def partial(t: pa.Table) -> pa.Table:
        c = _batch_doc_token_counts(t)
        p = c.group_by("token").aggregate([("tf", "sum")])
        p = p.rename_columns(["token", "cf_partial"]).cast(
            pa.schema([("token", pa.large_string()), ("cf_partial", pa.int64())])
        )
        return _with_token_key(p)

    partials = docs.select_columns(["doc_id", "text"]).map_batches(
        partial, batch_format="pyarrow"
    )

    from raydedup.stages.exchange import hash_exchange_apply

    out_schema = pa.schema(
        [
            ("total_tokens", pa.int64()),
            ("distinct_tokens", pa.int64()),
            ("hapax_tokens", pa.int64()),
            ("max_token_count", pa.int64()),
        ]
    )

    def bucket_summary(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        g = t.group_by("token").aggregate([("cf_partial", "sum")])
        cf = g.column("cf_partial_sum").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "total_tokens": pa.array([int(cf.sum())], pa.int64()),
                "distinct_tokens": pa.array([int(cf.shape[0])], pa.int64()),
                "hapax_tokens": pa.array([int((cf == 1).sum())], pa.int64()),
                "max_token_count": pa.array([int(cf.max())], pa.int64()),
            }
        )

    parts = hash_exchange_apply(partials, "key", bucket_summary)
    if parts.num_rows == 0:
        return pa.table(
            {
                "total_tokens": pa.array([0], pa.int64()),
                "distinct_tokens": pa.array([0], pa.int64()),
                "hapax_tokens": pa.array([0], pa.int64()),
                "max_token_count": pa.array([0], pa.int64()),
            }
        )
    import pyarrow.compute as pc

    return pa.table(
        {
            "total_tokens": pa.array([pc.sum(parts.column("total_tokens")).as_py()], pa.int64()),
            "distinct_tokens": pa.array([pc.sum(parts.column("distinct_tokens")).as_py()], pa.int64()),
            "hapax_tokens": pa.array([pc.sum(parts.column("hapax_tokens")).as_py()], pa.int64()),
            "max_token_count": pa.array([pc.max(parts.column("max_token_count")).as_py()], pa.int64()),
        }
    )


def token_freq_spectrum(docs: Dataset) -> pa.Table:
    """Count-of-counts over corpus token occurrences: (cf, n_tokens) =
    how many distinct lowered whitespace tokens occur exactly ``cf``
    times corpus-wide — the Good-Turing / Zipf-health spectrum a
    tokenizer-curation run reads (a fat singleton head means noise; a
    truncated tail means boilerplate).

    Scale shape: per-batch combiner sums occurrence counts per token,
    ONE token-hash exchange finishes the per-token totals, and each
    bucket collapses straight to (cf, n_partial) rows — the driver
    merges O(distinct cf values x buckets) tiny partials; tokens never
    reach it.
    """
    import pyarrow.compute as pc

    from raydedup.stages.exchange import hash_exchange_apply

    def partial(t: pa.Table) -> pa.Table:
        c = _batch_doc_token_counts(t)
        p = c.group_by("token").aggregate([("tf", "sum")])
        p = p.rename_columns(["token", "cf_partial"]).cast(
            pa.schema([("token", pa.large_string()), ("cf_partial", pa.int64())])
        )
        return _with_token_key(p)

    partials = docs.select_columns(["doc_id", "text"]).map_batches(
        partial, batch_format="pyarrow"
    )
    spec_schema = pa.schema([("cf", pa.int64()), ("n_tokens", pa.int64())])

    def reduce_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return spec_schema.empty_table()
        g = t.group_by("token").aggregate([("cf_partial", "sum")])
        h = (
            g.rename_columns(["token", "cf"])
            .group_by("cf")
            .aggregate([([], "count_all")])
        )
        return h.rename_columns(["cf", "n_tokens"]).cast(spec_schema)

    agg = hash_exchange_apply(partials, "key", reduce_bucket)
    if agg.num_rows == 0:
        return spec_schema.empty_table()
    out = (
        agg.group_by("cf").aggregate([("n_tokens", "sum")])
        .rename_columns(["cf", "n_tokens"])
        .cast(spec_schema)
    )
    return out.take(
        pa.array(
            np.argsort(out.column("cf").to_numpy(zero_copy_only=False), kind="stable")
        )
    )


def vocab_growth(docs: Dataset) -> pa.Table:
    """Heaps-law vocabulary growth curve: for each power-of-2 doc-id
    threshold T, how many docs have ``doc_id < T`` and how many distinct
    lowered whitespace tokens FIRST occur in that prefix — the
    vocab-vs-corpus-size curve a tokenizer-budget decision reads
    (sublinear growth = healthy natural text; linear = ids/noise).

    Scale shape: per-batch combiner keeps one (token-hash, min doc_id)
    row per distinct token; ONE token-hash exchange finishes per-token
    first-doc ids and each bucket collapses straight to per-threshold
    counts — O(#thresholds) rows reach the driver, never a token.
    The doc counts per threshold come from the same batch pass.
    """
    import pyarrow.compute as pc

    from raydedup.stages.exchange import hash_exchange_apply
    from raydedup.stages.signatures import _WORD_CACHE, batch_word_hashes, tokenize

    mx = docs.max("doc_id")
    if mx is None:  # empty corpus: typed empty curve
        return pa.schema(
            [("threshold", pa.int64()), ("n_docs", pa.int64()), ("vocab", pa.int64())]
        ).empty_table()
    max_id = int(mx)
    # clamp to int64: hash-style doc ids have bit_length 63, and 2^63
    # overflows; at k=62 the top threshold still covers >= half the id
    # space (the curve's tail point, mirrored exactly in SQL)
    n_thr = min(max(int(max_id).bit_length(), 1), 62)
    thresholds = [1 << k for k in range(n_thr + 1)]

    part_schema = pa.schema([("h", pa.int64()), ("mind", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return part_schema.empty_table()
        texts = pc.fill_null(t.column("text").combine_chunks(), "")
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
        ascii_mask = pc.string_is_ascii(texts).to_numpy(zero_copy_only=False)
        hs, ds_ = [], []
        if ascii_mask.any():
            flat, offs = batch_word_hashes(texts.filter(pa.array(ascii_mask)))
            lens = np.diff(offs)
            hs.append(flat)
            ds_.append(np.repeat(ids[ascii_mask], lens))
        if not ascii_mask.all():
            txts = texts.to_pylist()
            for d in np.flatnonzero(~ascii_mask):
                wh = _WORD_CACHE.hash_words(tokenize(txts[d]))
                hs.append(wh)
                ds_.append(np.full(wh.shape[0], ids[d], I64))
        if not hs:
            return part_schema.empty_table()
        h = np.concatenate(hs).view(I64)
        d = np.concatenate(ds_)
        order = np.lexsort((d, h))
        h, d = h[order], d[order]
        if h.shape[0] == 0:
            return part_schema.empty_table()
        new = np.empty(h.shape[0], dtype=bool)
        new[0] = True
        new[1:] = h[1:] != h[:-1]
        st = np.flatnonzero(new)
        return pa.table(
            {"h": pa.array(h[st], pa.int64()), "mind": pa.array(d[st], pa.int64())}
        )

    partials = docs.select_columns(["doc_id", "text"]).map_batches(
        partial, batch_format="pyarrow"
    )
    spec_schema = pa.schema([("k", pa.int64()), ("n", pa.int64())])

    def reduce_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return spec_schema.empty_table()
        g = t.group_by("h").aggregate([("mind", "min")])
        mind = g.column("mind_min").to_numpy(zero_copy_only=False)
        ks, ns = [], []
        for k, thr in enumerate(thresholds):
            c = int((mind < thr).sum())
            if c:
                ks.append(k)
                ns.append(c)
        return pa.table({"k": pa.array(ks, pa.int64()), "n": pa.array(ns, pa.int64())})

    agg = hash_exchange_apply(partials, "h", reduce_bucket)
    vocab = np.zeros(len(thresholds), dtype=np.int64)
    if agg.num_rows:
        np.add.at(
            vocab,
            agg.column("k").to_numpy(zero_copy_only=False),
            agg.column("n").to_numpy(zero_copy_only=False),
        )

    def doc_part(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
        return pa.table(
            {
                "k": pa.array(np.arange(len(thresholds)), pa.int64()),
                "n": pa.array(
                    [(ids < thr).sum() for thr in thresholds], pa.int64()
                ),
            }
        )

    ndocs = np.zeros(len(thresholds), dtype=np.int64)
    for b in (
        docs.select_columns(["doc_id"])
        .map_batches(doc_part, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    ):
        np.add.at(
            ndocs,
            b.column("k").to_numpy(zero_copy_only=False),
            b.column("n").to_numpy(zero_copy_only=False),
        )
    keep = ndocs > 0
    return pa.table(
        {
            "threshold": pa.array(
                np.asarray(thresholds, dtype=np.int64)[keep], pa.int64()
            ),
            "n_docs": pa.array(ndocs[keep], pa.int64()),
            "vocab": pa.array(vocab[keep], pa.int64()),
        }
    )
