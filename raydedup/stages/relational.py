"""Relational join-chain analytics on the TPC-H-style tables.

The metadata-lookup surface (J2, `pipelines/query.py`) generalized to
the classic star-join aggregate: fact ⋈ fact via the two-sided hash
exchange, dimensions via broadcast — the partitioning playbook every
stage in this repo follows, demonstrated on the relational tables.

``revenue_by_nation``:

- **lineitem** (the big fact) is pre-aggregated per batch to
  ``(l_orderkey, revenue_cc, n_items)`` partials (the combiner —
  ~4 lineitems per order collapse before any shuffle). Revenue is
  exact integer "centi-cents": ``price_cents * (100 - disc_cents)``,
  so sums are order-independent (the repo's float-parity rule).
- **orders** joins lineitem partials in ONE two-sided hash exchange on
  the order key (`hash_exchange_join` — big ⋈ big never broadcasts).
- **customer -> nation** is a dimension lookup: packed sorted arrays
  built once and broadcast via ``ray.put`` (small side; swap to a
  second exchange if the customer dimension outgrows worker memory —
  same kernel shape, documented trade).
- Buckets emit per-nation partials; the driver merge is O(nations).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
from ray.data import Dataset

from raydedup.util import arrow_block_refs

I64 = np.int64

_OUT_SCHEMA = pa.schema(
    [("n_name", pa.large_string()), ("revenue_cc", pa.int64()), ("n_items", pa.int64())]
)


def _li_partial(t: pa.Table) -> pa.Table:
    if t.num_rows == 0 or t.num_columns == 0:
        return pa.schema(
            [("l_orderkey", pa.int64()), ("rev_cc", pa.int64()), ("n_items", pa.int64())]
        ).empty_table()
    ok = t.column("l_orderkey").to_numpy(zero_copy_only=False).astype(I64)
    p = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
    d = t.column("l_discount").to_numpy(zero_copy_only=False)
    rev = np.rint(p * 100).astype(I64) * (100 - np.rint(d * 100).astype(I64))
    order = np.argsort(ok, kind="stable")
    oks = ok[order]
    new = np.empty(oks.shape[0], dtype=bool)
    new[0] = True
    new[1:] = oks[1:] != oks[:-1]
    starts = np.flatnonzero(new)
    return pa.table(
        {
            "l_orderkey": pa.array(oks[starts], pa.int64()),
            "rev_cc": pa.array(np.add.reduceat(rev[order], starts), pa.int64()),
            "n_items": pa.array(
                np.diff(starts, append=I64(oks.shape[0])).astype(I64), pa.int64()
            ),
        }
    )


def revenue_by_nation(
    lineitem: Dataset,
    orders: Dataset,
    customer: Dataset,
    nation: Dataset,
) -> pa.Table:
    """-> (n_name, revenue_cc, n_items) per nation, sorted by name.
    ``revenue_cc`` = Σ price_cents × (100 − discount_cents), exact."""
    import pyarrow.compute as pc

    from raydedup.stages.exchange import hash_exchange_join

    # dimension broadcast: custkey -> nation name index (packed, sorted).
    # 0-row blocks skip the select_columns projection in Ray 2.49 and
    # keep the full read schema — drop them and re-select per block so
    # the concat never sees a mixed schema.
    def _collect(ds: Dataset, cols: list[str]) -> pa.Table:
        blocks = [
            b.select(cols)
            for b in ray.get(list(arrow_block_refs(ds.select_columns(cols))))
            if b.num_rows
        ]
        if not blocks:
            # a fully-empty dimension: typed empty from Dataset metadata
            from raydedup.stages.exchange import pa_schema_of

            return pa_schema_of(ds, cols).empty_table()
        return pa.concat_tables(blocks)

    cust = _collect(customer, ["c_custkey", "c_nationkey"])
    nat = _collect(nation, ["n_nationkey", "n_name"])
    ck = cust.column("c_custkey").to_numpy(zero_copy_only=False).astype(I64)
    cn = cust.column("c_nationkey").to_numpy(zero_copy_only=False).astype(I64)
    order = np.argsort(ck)
    ck, cn = ck[order], cn[order]
    nk = nat.column("n_nationkey").to_numpy(zero_copy_only=False).astype(I64)
    nn = nat.column("n_name").to_numpy(zero_copy_only=False)
    norder = np.argsort(nk)
    nk, nn = nk[norder], nn[norder]
    ck_ref, cn_ref = ray.put(ck), ray.put(cn)

    li = lineitem.select_columns(
        ["l_orderkey", "l_extendedprice", "l_discount"]
    ).map_batches(_li_partial, batch_format="pyarrow")

    def oprep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return pa.schema(
                [("o_orderkey", pa.int64()), ("o_custkey", pa.int64())]
            ).empty_table()
        return pa.table(
            {
                "o_orderkey": pc.cast(t.column("o_orderkey"), pa.int64()),
                "o_custkey": pc.cast(t.column("o_custkey"), pa.int64()),
            }
        )

    od = orders.select_columns(["o_orderkey", "o_custkey"]).map_batches(
        oprep, batch_format="pyarrow"
    )

    def join_bucket(tl: pa.Table, to: pa.Table) -> pa.Table:
        empty = pa.schema(
            [("nidx", pa.int64()), ("rev_cc", pa.int64()), ("n_items", pa.int64())]
        ).empty_table()
        if tl.num_rows == 0 or to.num_rows == 0:
            return empty
        okey = to.column("o_orderkey").to_numpy(zero_copy_only=False).astype(I64)
        ocust = to.column("o_custkey").to_numpy(zero_copy_only=False).astype(I64)
        oo = np.argsort(okey)
        okey, ocust = okey[oo], ocust[oo]
        lkey = tl.column("l_orderkey").to_numpy(zero_copy_only=False).astype(I64)
        pos = np.searchsorted(okey, lkey)
        hit = (pos < okey.shape[0]) & (okey[np.minimum(pos, okey.shape[0] - 1)] == lkey)
        if not hit.any():
            return empty
        rev = tl.column("rev_cc").to_numpy(zero_copy_only=False).astype(I64)[hit]
        cnt = tl.column("n_items").to_numpy(zero_copy_only=False).astype(I64)[hit]
        cust_of = ocust[pos[hit]]
        ckb, cnb = ray.get(ck_ref), ray.get(cn_ref)
        cpos = np.searchsorted(ckb, cust_of)
        found = (cpos < ckb.shape[0]) & (
            ckb[np.minimum(cpos, ckb.shape[0] - 1)] == cust_of
        )
        if not found.all():
            # referential-integrity breach: silently booking revenue to
            # the neighbouring custkey's nation would be a wrong answer
            # with no signal — fail loudly instead
            raise ValueError(
                f"{int((~found).sum())} order custkeys missing from the "
                "customer dimension"
            )
        nidx = cnb[cpos]
        agg_rev = np.zeros(int(nidx.max()) + 1, dtype=I64)
        agg_cnt = np.zeros_like(agg_rev)
        np.add.at(agg_rev, nidx, rev)
        np.add.at(agg_cnt, nidx, cnt)
        nz = np.flatnonzero(agg_cnt)
        return pa.table(
            {
                "nidx": pa.array(nz.astype(I64), pa.int64()),
                "rev_cc": pa.array(agg_rev[nz], pa.int64()),
                "n_items": pa.array(agg_cnt[nz], pa.int64()),
            }
        )

    refs = hash_exchange_join(li, od, "l_orderkey", "o_orderkey", join_bucket)
    parts = [b for b in ray.get(refs) if b.num_columns and b.num_rows]
    if not parts:
        return _OUT_SCHEMA.empty_table()
    merged = pa.concat_tables(parts)
    nidx = merged.column("nidx").to_numpy(zero_copy_only=False).astype(I64)
    rev = merged.column("rev_cc").to_numpy(zero_copy_only=False).astype(I64)
    cnt = merged.column("n_items").to_numpy(zero_copy_only=False).astype(I64)
    tot_rev = np.zeros(nk.shape[0], dtype=I64)
    tot_cnt = np.zeros(nk.shape[0], dtype=I64)
    pos = np.searchsorted(nk, nidx)
    found = (pos < nk.shape[0]) & (nk[np.minimum(pos, nk.shape[0] - 1)] == nidx)
    if not found.all():
        raise ValueError(
            f"{int((~found).sum())} customer nationkeys missing from the "
            "nation dimension"
        )
    np.add.at(tot_rev, pos, rev)
    np.add.at(tot_cnt, pos, cnt)
    keep = np.flatnonzero(tot_cnt)
    names = nn[keep]
    order = np.argsort(names)
    keep = keep[order]
    return pa.table(
        {
            "n_name": pa.array(nn[keep], pa.large_string()),
            "revenue_cc": pa.array(tot_rev[keep], pa.int64()),
            "n_items": pa.array(tot_cnt[keep], pa.int64()),
        }
    )
