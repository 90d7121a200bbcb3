"""Per-host boilerplate line removal: lines shared by a FRACTION of a
host's documents are site template, stripped host-locally.

The RefinedWeb/CCNet line-level curation rule: a navigation menu or
footer appears in most pages OF ITS SITE, but a global distinct-doc
threshold (``stages/lines.py``) misses small sites and over-fires on
globally common short lines. Here a non-empty line is boilerplate for
group ``g`` (host / source / crawl) when it occurs in
``den * n_docs >= num * g_docs`` of the group's docs (exact integer
cross-multiplication — no float threshold anywhere) and in at least
``min_docs`` docs.

Scale shape:

1. per-batch combiner: one line split + lexsort gives distinct-doc
   partial counts per (group-hash, line-hash) plus per-group doc-count
   partials — hash-only rows, strings never enter the exchange.
2. ONE exchange keyed on the GROUP hash: each bucket holds every line
   of its groups AND the group totals (sentinel rows in the same
   partial stream), so the fractional threshold is applied in-bucket
   with no broadcast and no driver materialization. Surviving (g, h)
   pairs are the per-site template head — small by construction.
3. a stateless second pass recovers the winners' strings (report) or
   strips matching lines and re-joins with ``\\n`` (trim), testing
   membership against the broadcast sorted combined key
   (``mix64(g ^ mix64(h))`` — g and h are themselves string hashes, so
   pair equality was already hash-equality; same accepted collision
   class as every hash test in the engine).

Empty lines are never counted or stripped (document structure, not
boilerplate) — same convention as ``stages/lines.py``.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

import ray
from ray.data import Dataset

from raydedup.hashing import hash_strings_u64, mix64
from raydedup.util import arrow_block_refs

logger = logging.getLogger(__name__)

U64 = np.uint64
I64 = np.int64

_PARTIAL_SCHEMA = pa.schema(
    [("g", pa.int64()), ("h", pa.int64()), ("cnt", pa.int64()), ("kind", pa.int8())]
)
_HOT_SCHEMA = pa.schema(
    [("g", pa.int64()), ("h", pa.int64()), ("n_docs", pa.int64()), ("g_docs", pa.int64())]
)
REPORT_SCHEMA = pa.schema(
    [
        ("group", pa.large_string()),
        ("line", pa.large_string()),
        ("n_docs", pa.int64()),
        ("g_docs", pa.int64()),
    ]
)

_KIND_LINE, _KIND_TOTAL = np.int8(0), np.int8(1)


def _pair_key(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    return mix64(g.view(U64) ^ mix64(h.view(U64)))


def _group_line_partial(t: pa.Table, group_col: str) -> pa.Table:
    """batch -> hash-only partials: per (g, h) distinct-doc counts
    (kind=0) + per-g doc counts (kind=1)."""
    import pyarrow.compute as pc

    from raydedup.stages.lines import _batch_line_arrays

    if t.num_rows == 0 or t.num_columns == 0:
        return _PARTIAL_SCHEMA.empty_table()
    garr = pc.cast(pc.fill_null(t.column(group_col), ""), pa.large_string())
    g_doc = hash_strings_u64(garr.to_numpy(zero_copy_only=False))

    gs, hs, cs, ks = [], [], [], []
    # per-group doc totals (every row counts, lines or not)
    ug, uc = np.unique(g_doc, return_counts=True)
    gs.append(ug)
    hs.append(np.zeros(ug.shape[0], dtype=U64))
    cs.append(uc.astype(I64))
    ks.append(np.full(ug.shape[0], _KIND_TOTAL))

    vals, doc_of, _ = _batch_line_arrays(t)
    if len(vals):
        keep = pc.not_equal(vals, "").to_numpy(zero_copy_only=False)
        if keep.any():
            kept = vals.filter(pa.array(keep))
            h = hash_strings_u64(kept.to_numpy(zero_copy_only=False))
            d = doc_of[keep]
            g = g_doc[d]
            # distinct (g, h, doc) -> counts per (g, h)
            order = np.lexsort((d, h, g))
            go, ho, do = g[order], h[order], d[order]
            new = np.empty(go.shape[0], dtype=bool)
            new[0] = True
            new[1:] = (go[1:] != go[:-1]) | (ho[1:] != ho[:-1]) | (do[1:] != do[:-1])
            go, ho = go[new], ho[new]
            newgh = np.empty(go.shape[0], dtype=bool)
            newgh[0] = True
            newgh[1:] = (go[1:] != go[:-1]) | (ho[1:] != ho[:-1])
            starts = np.flatnonzero(newgh)
            cnt = np.diff(np.append(starts, go.shape[0]))
            gs.append(go[starts])
            hs.append(ho[starts])
            cs.append(cnt.astype(I64))
            ks.append(np.full(starts.shape[0], _KIND_LINE))
    return pa.table(
        {
            "g": pa.array(np.concatenate(gs).view(I64), pa.int64()),
            "h": pa.array(np.concatenate(hs).view(I64), pa.int64()),
            "cnt": pa.array(np.concatenate(cs), pa.int64()),
            "kind": pa.array(np.concatenate(ks), pa.int8()),
        }
    )


def _hot_pairs(
    docs: Dataset,
    group_col: str,
    num: int,
    den: int,
    min_docs: int,
) -> pa.Table:
    """ONE group-hash exchange -> (g, h, n_docs, g_docs) for boilerplate
    lines: den*n_docs >= num*g_docs AND n_docs >= min_docs."""
    from raydedup.stages.exchange import hash_exchange_apply

    partials = docs.map_batches(
        lambda t: _group_line_partial(t, group_col), batch_format="pyarrow"
    )

    def reduce_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _HOT_SCHEMA.empty_table()
        g = t.column("g").to_numpy(zero_copy_only=False)
        h = t.column("h").to_numpy(zero_copy_only=False)
        c = t.column("cnt").to_numpy(zero_copy_only=False)
        k = t.column("kind").to_numpy(zero_copy_only=False)
        tot = k == _KIND_TOTAL
        if not tot.any():
            return _HOT_SCHEMA.empty_table()
        tg, ti = np.unique(g[tot], return_inverse=True)
        tsum = np.zeros(tg.shape[0], dtype=I64)
        np.add.at(tsum, ti, c[tot])
        lg, lh, lc = g[~tot], h[~tot], c[~tot]
        if lg.shape[0] == 0:
            return _HOT_SCHEMA.empty_table()
        order = np.lexsort((lh, lg))
        lg, lh, lc = lg[order], lh[order], lc[order]
        new = np.empty(lg.shape[0], dtype=bool)
        new[0] = True
        new[1:] = (lg[1:] != lg[:-1]) | (lh[1:] != lh[:-1])
        idx = np.cumsum(new) - 1
        n_docs = np.zeros(int(idx[-1]) + 1, dtype=I64)
        np.add.at(n_docs, idx, lc)
        starts = np.flatnonzero(new)
        lg, lh = lg[starts], lh[starts]
        g_docs = tsum[np.searchsorted(tg, lg)]
        ok = (den * n_docs >= num * g_docs) & (n_docs >= min_docs)
        return pa.table(
            {
                "g": pa.array(lg[ok], pa.int64()),
                "h": pa.array(lh[ok], pa.int64()),
                "n_docs": pa.array(n_docs[ok], pa.int64()),
                "g_docs": pa.array(g_docs[ok], pa.int64()),
            }
        )

    hot = hash_exchange_apply(partials, "g", reduce_bucket)
    logger.info(
        "hostlines: %d boilerplate (group, line) pairs at >= %d/%d of group docs",
        hot.num_rows,
        num,
        den,
    )
    return hot if hot.num_columns else _HOT_SCHEMA.empty_table()


def host_hot_lines(
    docs: Dataset,
    *,
    group_col: str = "source",
    num: int = 1,
    den: int = 2,
    min_docs: int = 2,
) -> pa.Table:
    """docs(doc_id, text, group) -> (group, line, n_docs, g_docs) for
    per-group boilerplate lines, ordered by (group, line)."""
    import pyarrow.compute as pc

    hot = _hot_pairs(docs, group_col, num, den, min_docs)
    if hot.num_rows == 0:
        return REPORT_SCHEMA.empty_table()
    key = _pair_key(
        hot.column("g").to_numpy(zero_copy_only=False),
        hot.column("h").to_numpy(zero_copy_only=False),
    )
    order = np.argsort(key, kind="stable")
    key_ref = ray.put(key[order])
    stats = {
        int(k): (int(n), int(gd))
        for k, n, gd in zip(
            key,
            hot.column("n_docs").to_pylist(),
            hot.column("g_docs").to_pylist(),
        )
    }

    def recover(t: pa.Table) -> pa.Table:
        from raydedup.stages.lines import _batch_line_arrays

        out_schema = pa.schema(
            [("ck", pa.int64()), ("group", pa.large_string()), ("line", pa.large_string())]
        )
        if t.num_rows == 0 or t.num_columns == 0:
            return out_schema.empty_table()
        skey = ray.get(key_ref)
        garr = pc.cast(pc.fill_null(t.column(group_col), ""), pa.large_string())
        g_doc = hash_strings_u64(garr.to_numpy(zero_copy_only=False))
        vals, doc_of, _ = _batch_line_arrays(t)
        if len(vals) == 0:
            return out_schema.empty_table()
        keep = pc.not_equal(vals, "").to_numpy(zero_copy_only=False)
        if not keep.any():
            return out_schema.empty_table()
        kept = vals.filter(pa.array(keep))
        h = hash_strings_u64(kept.to_numpy(zero_copy_only=False))
        d = doc_of[keep]
        ck = _pair_key(g_doc[d], h)
        pos = np.searchsorted(skey, ck)
        pos[pos == skey.shape[0]] = 0
        hit = skey[pos] == ck
        if not hit.any():
            return out_schema.empty_table()
        # one representative row per surviving pair per batch
        cku, first = np.unique(ck[hit], return_index=True)
        sel = np.flatnonzero(hit)[first]
        return pa.table(
            {
                "ck": pa.array(ck[sel].view(I64), pa.int64()),
                "group": garr.take(pa.array(d[sel])),
                "line": kept.take(pa.array(sel)),
            }
        )

    rec = arrow_block_refs(docs.map_batches(recover, batch_format="pyarrow"))
    tabs = [b for b in ray.get(rec) if b.num_rows]
    rows: dict[int, tuple[str, str]] = {}
    for b in tabs:
        for ck, grp, line in zip(
            b.column("ck").to_pylist(),
            b.column("group").to_pylist(),
            b.column("line").to_pylist(),
        ):
            rows.setdefault(ck, (grp, line))
    items = sorted(
        ((grp, line, *stats[ck & 0xFFFFFFFFFFFFFFFF]) for ck, (grp, line) in rows.items()),
        key=lambda r: (r[0], r[1]),
    )
    return pa.table(
        {
            "group": pa.array([r[0] for r in items], pa.large_string()),
            "line": pa.array([r[1] for r in items], pa.large_string()),
            "n_docs": pa.array([r[2] for r in items], pa.int64()),
            "g_docs": pa.array([r[3] for r in items], pa.int64()),
        }
    )


def trim_host_lines(
    docs: Dataset,
    *,
    group_col: str = "source",
    num: int = 1,
    den: int = 2,
    min_docs: int = 2,
) -> Dataset:
    """docs -> docs with per-group boilerplate lines removed (kept lines
    re-joined with ``\\n``; empty lines always kept). Streams."""
    import pyarrow.compute as pc

    hot = _hot_pairs(docs, group_col, num, den, min_docs)
    key = np.sort(
        _pair_key(
            hot.column("g").to_numpy(zero_copy_only=False),
            hot.column("h").to_numpy(zero_copy_only=False),
        )
    )
    key_ref = ray.put(key)

    def strip(t: pa.Table) -> pa.Table:
        from raydedup.stages.lines import _batch_line_arrays

        if t.num_rows == 0 or t.num_columns == 0:
            return t
        skey = ray.get(key_ref)
        garr = pc.cast(pc.fill_null(t.column(group_col), ""), pa.large_string())
        g_doc = hash_strings_u64(garr.to_numpy(zero_copy_only=False))
        vals, doc_of, lens = _batch_line_arrays(t)
        nonempty = pc.not_equal(vals, "").to_numpy(zero_copy_only=False)
        drop = np.zeros(len(vals), dtype=bool)
        if nonempty.any() and skey.shape[0]:
            kept = vals.filter(pa.array(nonempty))
            h = hash_strings_u64(kept.to_numpy(zero_copy_only=False))
            idx = np.flatnonzero(nonempty)
            ck = _pair_key(g_doc[doc_of[idx]], h)
            pos = np.searchsorted(skey, ck)
            pos[pos == skey.shape[0]] = 0
            drop[idx] = skey[pos] == ck
        keep = ~drop
        # re-join kept lines per doc with '\n' (list rebuild, no Python)
        kept_per_doc = np.zeros(lens.shape[0], dtype=np.int64)
        np.add.at(kept_per_doc, doc_of[keep], 1)
        offs = np.zeros(lens.shape[0] + 1, dtype=np.int64)
        np.cumsum(kept_per_doc, out=offs[1:])
        lst = pa.LargeListArray.from_arrays(
            pa.array(offs, pa.int64()),
            pc.cast(vals.filter(pa.array(keep)), pa.large_string()),
        )
        joined = pc.binary_join(lst, pa.scalar("\n", pa.large_string()))
        cols = {c: t.column(c) for c in t.schema.names}
        cols["text"] = pc.cast(joined, t.schema.field("text").type)
        return pa.table(cols)

    return docs.map_batches(strip, batch_format="pyarrow")
