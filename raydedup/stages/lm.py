"""Unigram LM surprisal scoring — the CCNet-style "how surprising is
this document under a corpus language model" quality signal, in EXACT
whole-bit arithmetic.

A real CCNet pass scores docs with a KenLM n-gram model's log-prob;
the portable core of that signal is per-token surprisal under the
corpus unigram distribution. ``ln``/``log2`` of arbitrary doubles is
NOT guaranteed bit-identical across engines (the repo's oracle-parity
rule bans it — see ``stages/bm25.py``'s log-free idf), so the score
here is the **whole-bit surprisal**

    s(w) = floor(log2(N)) - floor(log2(count(w)))   (integer bits)

per token occurrence, ``bits_sum`` = Σ s(w) over the doc (exact
int64), ``mean_bits`` = bits_sum / n_tokens with ONE final IEEE
division. floor(log2(x)) is computed EXACTLY on both engines: numpy
``frexp`` exponent - 1 (exact for every int ≤ 2^53) and DuckDB
``length(format('{:b}', x)) - 1`` (binary digit count). s(w) is within
1 bit of true -log2 p(w) + floor(log2 N) rounding — a monotone,
deterministic surrogate: high mean_bits = rare-vocabulary docs
(gibberish, codes), low = stopword soup. Reference analog: the
per-resource match-score statistics surface (`cli/Stats.java`,
`PanakoStorageKV.java:381-467`) on the probability axis.

Scale shape (the ``df_commonness`` playbook, `stages/tfidf.py`):
per-batch token-count combiner, ONE token-hash exchange to corpus
counts (exact in-bucket string grouping), counts packed to sorted
arrays + total in a task (never the driver) and broadcast; the scoring
pass is a stateless ``map_batches`` with a searchsorted lookup — no
second shuffle, streams at any scale.
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

_OUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_tokens", pa.int64()),
        ("bits_sum", pa.int64()),
        ("mean_bits", pa.float64()),
    ]
)


def _bitlen_minus1(x: np.ndarray) -> np.ndarray:
    """floor(log2(x)) for positive int64 x ≤ 2^53, EXACT: float64
    represents x exactly, frexp returns the exact binary exponent."""
    _, e = np.frexp(x.astype(np.float64))
    return (e - 1).astype(I64)


def term_counts(docs: Dataset) -> Dataset:
    """docs(doc_id, text) -> (token, cnt): corpus occurrence count per
    lowered whitespace token (tf-weighted, unlike ``doc_frequency``'s
    distinct-doc count). Combiner partials + ONE token-hash exchange;
    in-bucket grouping is by the real string, so hash collisions only
    affect placement, never counts."""
    from raydedup.stages.exchange import hash_exchange_apply
    from raydedup.stages.tfidf import _batch_doc_token_counts, _with_token_key

    def partial(t: pa.Table) -> pa.Table:
        c = _batch_doc_token_counts(t)
        p = c.group_by("token").aggregate([("tf", "sum")])
        p = p.rename_columns(["token", "cnt_partial"]).cast(
            pa.schema([("token", pa.large_string()), ("cnt_partial", pa.int64())])
        )
        return _with_token_key(p)

    partials = docs.select_columns(["doc_id", "text"]).map_batches(
        partial, batch_format="pyarrow"
    )

    def reduce_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"token": pa.array([], pa.large_string()), "cnt": pa.array([], pa.int64())}
            )
        g = t.group_by("token").aggregate([("cnt_partial", "sum")])
        return g.rename_columns(["token", "cnt"]).cast(
            pa.schema([("token", pa.large_string()), ("cnt", pa.int64())])
        )

    refs = hash_exchange_apply(partials, "key", reduce_bucket, collect=False)
    return rd.from_arrow_refs(refs)


@ray.remote(num_returns=3)
def _pack_counts(*blocks: pa.Table):
    """(total tokens, sorted token-hash keys, aligned counts) for
    broadcast — packed in a task from the count table's block refs, so
    the vocabulary never lands on the driver."""
    parts = [b for b in blocks if b.num_rows]
    if not parts:
        return 0, np.empty(0, dtype=np.uint64), np.empty(0, dtype=I64)
    tbl = pa.concat_tables(parts)
    keys = hash_strings_u64(tbl.column("token").to_numpy(zero_copy_only=False))
    cnt = tbl.column("cnt").to_numpy(zero_copy_only=False).astype(I64)
    order = np.argsort(keys)
    return int(cnt.sum()), keys[order], cnt[order]


_BIGRAM_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_tokens", pa.int64()),
        ("bits_sum", pa.int64()),
        ("mean_bits", pa.float64()),
    ]
)


def _doc_bigram_arrays(t: pa.Table):
    """(doc_id, text) batch -> (per-token doc ids, doc-ordered token
    array, bigram string array, adjacency index). ``adj`` marks the
    FIRST row of each consecutive same-doc pair, so ``d[adj]`` is the
    per-bigram doc id and ``tok[adj]`` the bigram's first word — one
    computation shared by the count and score passes. Bigram strings
    are ``"w1 w2"``; tokens are whitespace-split so the space-joined
    form is collision-free against unigrams."""
    import pyarrow.compute as pc

    from raydedup.stages.tfidf import batch_doc_tokens_ordered

    flat = batch_doc_tokens_ordered(t)
    d = flat.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
    tok = flat.column("token")
    if isinstance(tok, pa.ChunkedArray):
        tok = tok.combine_chunks()
    if d.shape[0] == 0:
        return d, tok, tok.slice(0, 0), np.empty(0, dtype=I64)
    adj = np.flatnonzero(d[1:] == d[:-1])  # consecutive same-doc rows
    w1 = tok.take(pa.array(adj))
    w2 = tok.take(pa.array(adj + 1))
    big = pc.binary_join_element_wise(
        w1, w2, pa.scalar(" ", type=pa.large_string())
    )
    return d, tok, big, adj


def bigram_surprisal(docs: Dataset, *, carry_cols: tuple = ()) -> Dataset:
    """docs(doc_id, text) -> (doc_id, n_tokens, bits_sum, mean_bits):
    per-doc conditional surprisal under the corpus BIGRAM model, in the
    same exact whole-bit arithmetic as :func:`unigram_surprisal` —
    one step toward the KenLM n-gram scorer of a real CCNet pass.

      first token:  s = floor(log2 N)        - floor(log2 cnt1(w_1))
      token i >= 2: s = floor(log2 cnt1(w_{i-1}))
                      - floor(log2 cnt2(w_{i-1} w_i))

    (cnt2 <= cnt1 so every conditional term is >= 0; the model is
    trained on the scored corpus itself so every bigram is observed).
    bits_sum is the exact int64 sum, mean_bits ONE IEEE division.

    Scale shape: unigram and bigram counts ride ONE shared exchange —
    grams are self-distinguishing strings ("w" vs "w1 w2"), so the
    per-batch combiner emits both kinds into the same keyed partial
    table; counts pack to sorted hash arrays in a task and broadcast;
    scoring is a stateless ordered-token pass with two searchsorted
    lookups. Two linear scans total, no second shuffle."""
    from raydedup.stages.exchange import hash_exchange_apply
    from raydedup.stages.tfidf import _with_token_key

    docs = docs.select_columns(
        ["doc_id", "text", *carry_cols]
    ).materialize()

    def partial(t: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("token", pa.large_string()), ("cnt_partial", pa.int64()),
             ("key", pa.int64())]
        )
        if t.num_rows == 0 or t.num_columns == 0:
            return schema.empty_table()
        _, tok, big, _ = _doc_bigram_arrays(t)
        grams = pa.concat_arrays([tok.cast(pa.large_string()),
                                  big.cast(pa.large_string())])
        if len(grams) == 0:
            return schema.empty_table()
        g = pa.table({"token": grams}).group_by("token").aggregate(
            [([], "count_all")]
        )
        g = g.rename_columns(["token", "cnt_partial"]).cast(
            pa.schema([("token", pa.large_string()), ("cnt_partial", pa.int64())])
        )
        return _with_token_key(g)

    partials = docs.map_batches(partial, batch_format="pyarrow")

    def reduce_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"token": pa.array([], pa.large_string()),
                 "cnt": pa.array([], pa.int64())}
            )
        g = t.group_by("token").aggregate([("cnt_partial", "sum")])
        return g.rename_columns(["token", "cnt"]).cast(
            pa.schema([("token", pa.large_string()), ("cnt", pa.int64())])
        )

    refs = hash_exchange_apply(partials, "key", reduce_bucket, collect=False)
    tot_ref, keys_ref, cnt_ref = _pack_bigram_counts.remote(*refs)

    def score_batch(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            empty = _BIGRAM_SCHEMA.empty_table()
            for c in carry_cols:
                if t.num_columns and c in t.column_names:
                    empty = empty.append_column(c, t.column(c))
            return empty
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
        d, tok, big, adj = _doc_bigram_arrays(t)
        n_tok = np.zeros(ids.shape[0], dtype=I64)
        bits = np.zeros(ids.shape[0], dtype=I64)
        if d.shape[0]:
            total = ray.get(tot_ref)
            keys = ray.get(keys_ref)
            cntv = ray.get(cnt_ref)
            bn = np.int64(int(total).bit_length() - 1)
            c_tok = cntv[
                np.searchsorted(keys, hash_strings_u64(
                    tok.to_numpy(zero_copy_only=False)))
            ]
            order = np.argsort(ids)
            at_tok = order[np.searchsorted(ids[order], d)]
            np.add.at(n_tok, at_tok, 1)
            # first token of each doc run: unigram surprisal
            first = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
            np.add.at(bits, at_tok[first], bn - _bitlen_minus1(c_tok[first]))
            if len(big):
                c_big = cntv[
                    np.searchsorted(keys, hash_strings_u64(
                        big.to_numpy(zero_copy_only=False)))
                ]
                s = _bitlen_minus1(c_tok[adj]) - _bitlen_minus1(c_big)
                np.add.at(bits, at_tok[adj], s)
        mean = np.where(n_tok > 0, bits / np.maximum(n_tok, 1), 0.0)
        out = pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(n_tok, pa.int64()),
                "bits_sum": pa.array(bits, pa.int64()),
                "mean_bits": pa.array(mean, pa.float64()),
            }
        )
        for c in carry_cols:  # output rows align 1:1 with batch rows
            out = out.append_column(c, t.column(c))
        return out

    return docs.map_batches(score_batch, batch_format="pyarrow")


def _doc_trigram_arrays(t: pa.Table):
    """Extends ``_doc_bigram_arrays`` with the trigram layer: returns
    (doc ids, tokens, bigram strings, pair index, trigram strings,
    triple index). ``adj3`` marks the FIRST row of each consecutive
    same-doc triple; trigram strings are ``"w1 w2 w3"`` — like bigrams,
    space-joined forms are self-distinguishing across gram orders."""
    import pyarrow.compute as pc

    d, tok, big, adj = _doc_bigram_arrays(t)
    if d.shape[0] < 3:
        return d, tok, big, adj, big.slice(0, 0), np.empty(0, dtype=I64)
    same = d[1:] == d[:-1]
    adj3 = np.flatnonzero(same[:-1] & same[1:])
    w1 = tok.take(pa.array(adj3))
    w2 = tok.take(pa.array(adj3 + 1))
    w3 = tok.take(pa.array(adj3 + 2))
    sep = pa.scalar(" ", type=pa.large_string())
    tri = pc.binary_join_element_wise(w1, w2, w3, sep)
    return d, tok, big, adj, tri, adj3


def trigram_surprisal(docs: Dataset, *, carry_cols: tuple = ()) -> Dataset:
    """docs(doc_id, text) -> (doc_id, n_tokens, bits_sum, mean_bits):
    per-doc conditional surprisal under the corpus TRIGRAM model, the
    next backoff order after :func:`bigram_surprisal` (VERDICT r4 #4 —
    the n-gram ladder toward a KenLM-style scorer), in the same exact
    whole-bit arithmetic:

      token 1:      s = floor(log2 N)                 - floor(log2 cnt1(w_1))
      token 2:      s = floor(log2 cnt1(w_1))         - floor(log2 cnt2(w_1 w_2))
      token i >= 3: s = floor(log2 cnt2(w_{i-2} w_{i-1}))
                      - floor(log2 cnt3(w_{i-2} w_{i-1} w_i))

    (cnt3 <= cnt2 <= cnt1 so every term is >= 0; the model is trained
    on the scored corpus itself, so every context is observed and no
    smoothing/backoff weights are needed — each token backs off to
    exactly the longest available context, which is the whole-bit
    analog of a stupid-backoff chain rule.)

    Scale shape: identical to the bigram pass — uni/bi/tri gram counts
    ride ONE shared keyed exchange (strings self-distinguish by space
    count), counts pack to sorted hash arrays in a task and broadcast;
    scoring is a stateless ordered-token pass with three searchsorted
    lookups. Two linear scans total, no second shuffle."""
    from raydedup.stages.exchange import hash_exchange_apply
    from raydedup.stages.tfidf import _with_token_key

    docs = docs.select_columns(["doc_id", "text", *carry_cols]).materialize()

    def partial(t: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("token", pa.large_string()), ("cnt_partial", pa.int64()),
             ("key", pa.int64())]
        )
        if t.num_rows == 0 or t.num_columns == 0:
            return schema.empty_table()
        _, tok, big, _, tri, _ = _doc_trigram_arrays(t)
        grams = pa.concat_arrays(
            [tok.cast(pa.large_string()), big.cast(pa.large_string()),
             tri.cast(pa.large_string())]
        )
        if len(grams) == 0:
            return schema.empty_table()
        g = pa.table({"token": grams}).group_by("token").aggregate(
            [([], "count_all")]
        )
        g = g.rename_columns(["token", "cnt_partial"]).cast(
            pa.schema([("token", pa.large_string()), ("cnt_partial", pa.int64())])
        )
        return _with_token_key(g)

    partials = docs.map_batches(partial, batch_format="pyarrow")

    def reduce_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"token": pa.array([], pa.large_string()),
                 "cnt": pa.array([], pa.int64())}
            )
        g = t.group_by("token").aggregate([("cnt_partial", "sum")])
        return g.rename_columns(["token", "cnt"]).cast(
            pa.schema([("token", pa.large_string()), ("cnt", pa.int64())])
        )

    refs = hash_exchange_apply(partials, "key", reduce_bucket, collect=False)
    # _pack_bigram_counts already defines N as the space-FREE grams —
    # correct for any gram-order mix riding the shared exchange
    tot_ref, keys_ref, cnt_ref = _pack_bigram_counts.remote(*refs)

    def score_batch(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            empty = _BIGRAM_SCHEMA.empty_table()
            for c in carry_cols:
                if t.num_columns and c in t.column_names:
                    empty = empty.append_column(c, t.column(c))
            return empty
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
        d, tok, big, adj, tri, adj3 = _doc_trigram_arrays(t)
        n_tok = np.zeros(ids.shape[0], dtype=I64)
        bits = np.zeros(ids.shape[0], dtype=I64)
        if d.shape[0]:
            total = ray.get(tot_ref)
            keys = ray.get(keys_ref)
            cntv = ray.get(cnt_ref)
            bn = np.int64(int(total).bit_length() - 1)
            c_tok = cntv[
                np.searchsorted(keys, hash_strings_u64(
                    tok.to_numpy(zero_copy_only=False)))
            ]
            order = np.argsort(ids)
            at_tok = order[np.searchsorted(ids[order], d)]
            np.add.at(n_tok, at_tok, 1)
            is_first = np.r_[True, d[1:] != d[:-1]]
            first = np.flatnonzero(is_first)
            np.add.at(bits, at_tok[first], bn - _bitlen_minus1(c_tok[first]))
            if len(big):
                c_big = cntv[
                    np.searchsorted(keys, hash_strings_u64(
                        big.to_numpy(zero_copy_only=False)))
                ]
                # bigram conditional ONLY for each doc-run's SECOND
                # token (pair starting at a run-first position); deeper
                # tokens use the trigram below
                m2 = is_first[adj]
                if m2.any():
                    s2 = _bitlen_minus1(c_tok[adj[m2]]) - _bitlen_minus1(c_big[m2])
                    np.add.at(bits, at_tok[adj[m2] + 1], s2)
                if len(tri):
                    c2_at = np.zeros(d.shape[0], dtype=I64)
                    c2_at[adj] = c_big  # pair count by pair START pos
                    c_tri = cntv[
                        np.searchsorted(keys, hash_strings_u64(
                            tri.to_numpy(zero_copy_only=False)))
                    ]
                    s3 = _bitlen_minus1(c2_at[adj3]) - _bitlen_minus1(c_tri)
                    np.add.at(bits, at_tok[adj3 + 2], s3)
        mean = np.where(n_tok > 0, bits / np.maximum(n_tok, 1), 0.0)
        out = pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(n_tok, pa.int64()),
                "bits_sum": pa.array(bits, pa.int64()),
                "mean_bits": pa.array(mean, pa.float64()),
            }
        )
        for c in carry_cols:  # output rows align 1:1 with batch rows
            out = out.append_column(c, t.column(c))
        return out

    return docs.map_batches(score_batch, batch_format="pyarrow")


def perplexity_buckets(
    docs: Dataset, *, n_buckets: int = 3, model: str = "bigram"
) -> Dataset:
    """CCNet's perplexity partition (Wenzek et al., arXiv:1911.00359):
    rank each document within its LANGUAGE by LM score and split into
    head/middle/tail — the curation gate that routes low-perplexity
    text to training. The LM is the whole-bit bigram surprisal above
    (the repo's KenLM surrogate); ``ppl_bucket`` = exact NTILE(k) over
    (mean_bits ASC, doc_id ASC), so bucket 1 is the head. mean_bits is
    ONE IEEE division on both engines, so the ordering (and therefore
    the bucket assignment) is bit-deterministic; empty docs score 0.0
    and land in the head by convention.

    Scale shape: the per-doc stats table (5 ints/doc) rides ONE
    lang-keyed exchange; in-bucket NTILE is a lexsort + arange. lang is
    a bounded-cardinality axis (dozens), so per-bucket work is
    corpus/|langs| — at 10^12 docs swap the exact NTILE for
    quantile-sketch thresholds; the exact variant IS the oracle."""
    from raydedup.stages.exchange import hash_exchange_apply
    from raydedup.hashing import hash_strings_u64 as _h

    import ray.data as _rd

    # lang rides THROUGH the scoring pass (output rows align 1:1 with
    # batch rows), so no doc_id join is ever needed — the only shuffle
    # in this operator is the lang-keyed NTILE exchange below.
    # ``model`` picks the LM order (VERDICT r4 #4: CCNet buckets
    # re-basable on the trigram scorer as a config option).
    if model not in ("bigram", "trigram"):
        raise ValueError(f"model must be bigram|trigram, got {model!r}")
    scorer = bigram_surprisal if model == "bigram" else trigram_surprisal
    joined = scorer(docs, carry_cols=("lang",))

    def bucket_kernel(t: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("doc_id", pa.int64()), ("lang", pa.large_string()),
             ("mean_bits", pa.float64()), ("ppl_bucket", pa.int64())]
        )
        if t.num_rows == 0 or t.num_columns == 0:
            return schema.empty_table()
        import pyarrow.compute as pc

        lang = t.column("lang")
        if isinstance(lang, pa.ChunkedArray):
            lang = lang.combine_chunks()
        lang = pc.fill_null(lang, "").cast(pa.large_string())
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
        mean = t.column("mean_bits").to_numpy(zero_copy_only=False)
        # group by the REAL lang string (the hash key only routed the
        # bucket) — dictionary codes give integer group identity without
        # materializing Python strings (review finding); code order is
        # first-appearance, which is fine: NTILE only needs group
        # identity, inter-group order is irrelevant
        codes = (
            pc.dictionary_encode(lang)
            .indices.to_numpy(zero_copy_only=False)
            .astype(I64)
        )
        order = np.lexsort((ids, mean, codes))
        ids_s, mean_s, lk_s = ids[order], mean[order], codes[order]
        n = ids_s.shape[0]
        starts = np.flatnonzero(np.r_[True, lk_s[1:] != lk_s[:-1]])
        lens = np.diff(np.r_[starts, n])
        # exact SQL NTILE(k): first (n % k) tiles get ceil(n/k) rows
        pos = np.arange(n, dtype=I64) - np.repeat(starts, lens)
        g = np.repeat(lens, lens)
        base, rem = g // n_buckets, g % n_buckets
        big_rows = (base + 1) * rem  # rows covered by the larger tiles
        tile = np.where(
            pos < big_rows,
            pos // np.maximum(base + 1, 1),
            rem + (pos - big_rows) // np.maximum(base, 1),
        )
        return pa.table(
            {
                "doc_id": pa.array(ids_s),
                "lang": lang.take(pa.array(order)),
                "mean_bits": pa.array(mean_s, pa.float64()),
                "ppl_bucket": pa.array((tile + 1).astype(I64)),
            }
        )

    keyed = joined.map_batches(
        lambda t: t.append_column(
            "lang_key",
            pa.array(
                _h(
                    (
                        t.column("lang").combine_chunks()
                        if isinstance(t.column("lang"), pa.ChunkedArray)
                        else t.column("lang")
                    ).to_numpy(zero_copy_only=False)
                ).view(I64)
            ),
        )
        if t.num_rows
        else t,
        batch_format="pyarrow",
    )
    out = hash_exchange_apply(keyed, "lang_key", bucket_kernel, collect=False)
    return _rd.from_arrow_refs(out)


@ray.remote(num_returns=3)
def _pack_bigram_counts(*blocks: pa.Table):
    """(total UNIGRAM occurrences, sorted gram-hash keys, counts):
    unigrams and bigrams share one sorted key array (strings are
    self-distinguishing); N counts only the space-free grams."""
    import pyarrow.compute as pc

    parts = [b for b in blocks if b.num_rows]
    if not parts:
        return 0, np.empty(0, dtype=np.uint64), np.empty(0, dtype=I64)
    tbl = pa.concat_tables(parts)
    grams = tbl.column("token")
    if isinstance(grams, pa.ChunkedArray):
        grams = grams.combine_chunks()
    cnt = tbl.column("cnt").to_numpy(zero_copy_only=False).astype(I64)
    is_uni = np.invert(
        pc.match_substring(grams, " ").to_numpy(zero_copy_only=False)
    )
    keys = hash_strings_u64(grams.to_numpy(zero_copy_only=False))
    order = np.argsort(keys)
    return int(cnt[is_uni].sum()), keys[order], cnt[order]


def unigram_surprisal(docs: Dataset) -> Dataset:
    """docs(doc_id, text) -> (doc_id, n_tokens, bits_sum, mean_bits):
    one row per input doc (empty docs get 0 / 0 / 0.0). bits_sum is the
    exact integer Σ over token occurrences of
    ``floor(log2(N)) - floor(log2(count))``; mean_bits = ONE IEEE
    division bits_sum / n_tokens."""
    from raydedup.stages.tfidf import _batch_doc_token_counts

    docs = docs.select_columns(["doc_id", "text"]).materialize()
    cnt_tbl = term_counts(docs).materialize()
    tot_ref, keys_ref, cnt_ref = _pack_counts.remote(*list(arrow_block_refs(cnt_tbl)))

    def score_batch(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
        c = _batch_doc_token_counts(t)
        n_tok = np.zeros(ids.shape[0], dtype=I64)
        bits = np.zeros(ids.shape[0], dtype=I64)
        if c.num_rows:
            total = ray.get(tot_ref)
            keys = ray.get(keys_ref)
            cntv = ray.get(cnt_ref)
            bn = np.int64(int(total).bit_length() - 1)
            tok = c.column("token").to_numpy(zero_copy_only=False)
            tf = c.column("tf").to_numpy(zero_copy_only=False).astype(I64)
            th = hash_strings_u64(tok)
            cw = cntv[np.searchsorted(keys, th)]  # every token is in the table
            s = bn - _bitlen_minus1(cw)
            order = np.argsort(ids)
            cd = c.column("doc_id").to_numpy(zero_copy_only=False).astype(I64)
            pos = order[np.searchsorted(ids[order], cd)]
            np.add.at(n_tok, pos, tf)
            np.add.at(bits, pos, tf * s)
        mean = np.where(n_tok > 0, bits / np.maximum(n_tok, 1), 0.0)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_tokens": pa.array(n_tok, type=pa.int64()),
                "bits_sum": pa.array(bits, type=pa.int64()),
                "mean_bits": pa.array(mean, type=pa.float64()),
            }
        )

    return docs.map_batches(score_batch, batch_format="pyarrow")
