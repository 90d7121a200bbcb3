"""Containment (winnowing/suffix) pass tests — the monitor-window
analog (``OlafStrategy.java:561-573``) plus the hot-key boilerplate
suppression required by the north rule."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from raydedup.config import DedupConfig
from raydedup.stages.containment import winnowed_fingerprints


def test_winnowing_guarantee():
    """Any shared substring of length >= w + s - 1 shares a fingerprint."""
    w, s = 40, 16
    base = "the quick brown fox jumps over the lazy dog and keeps going on " * 8
    frag = base[37 : 37 + w + s - 1]
    probe = "zzz unrelated prefix " + frag + " unrelated suffix qqq"
    fa = winnowed_fingerprints(base, w, s)
    fb = winnowed_fingerprints(probe, w, s)
    assert np.intersect1d(fa, fb).shape[0] >= 1


def test_winnowing_disjoint_texts_share_nothing():
    a = winnowed_fingerprints("abcdefghij " * 30, 40, 16)
    b = winnowed_fingerprints("0123456789 " * 30, 40, 16)
    assert np.intersect1d(a, b).shape[0] == 0


def test_winnowing_deterministic_and_position_invariant():
    text = "lorem ipsum dolor sit amet consectetur adipiscing elit sed do " * 5
    f1 = winnowed_fingerprints(text, 40, 16)
    f2 = winnowed_fingerprints(text, 40, 16)
    np.testing.assert_array_equal(f1, f2)


def test_short_and_empty_docs():
    assert winnowed_fingerprints("", 40, 16).shape[0] == 0
    assert winnowed_fingerprints("tiny", 40, 16).shape[0] == 1


def test_containment_pipeline_recall(ray_session, small_corpus):
    """e2e with containment=True: containment pairs at/above the coverage
    gate co-cluster; boilerplate twins (site-wide blocks -> hot keys) do
    not."""
    from raydedup.pipelines.dedup_scale import run_dedup_scale
    from raydedup.sources.pages import pages_to_docs, read_pages
    from raydedup.stages.extract import doc_ids_from_urls

    spec, paths = small_corpus
    docs = pages_to_docs(read_pages(paths["pages"]))
    res = run_dedup_scale(docs, DedupConfig(batch_size=256), containment=True)
    cl = res.clusters.to_pandas()
    oc = pq.read_table(paths["oracle_clusters"]).to_pandas()
    op = pq.read_table(paths["oracle_pairs"]).to_pandas()
    url2id = dict(zip(oc.url, doc_ids_from_urls(oc.url.tolist())))
    cmap = dict(zip(cl.doc_id, cl.cluster_id))

    ci = op[(op.kind == "containment") & (op.containment_true >= 0.3)]
    assert len(ci) > 5
    hits = sum(cmap[url2id[a]] == cmap[url2id[b]] for a, b in zip(ci.a_url, ci.b_url))
    assert hits / len(ci) >= 0.95, f"containment recall {hits}/{len(ci)}"

    bp = op[op.kind == "boilerplate-twin"]
    merges = sum(cmap[url2id[a]] == cmap[url2id[b]] for a, b in zip(bp.a_url, bp.b_url))
    assert merges == 0

    incl = op[
        ((op.kind.isin(["exact", "near"])) & (op.jaccard_true >= 0.8))
        | ((op.kind == "containment") & (op.containment_true >= 0.3))
    ]
    hits = sum(
        cmap[url2id[a]] == cmap[url2id[b]] for a, b in zip(incl.a_url, incl.b_url)
    )
    assert hits / len(incl) >= 0.99


def test_min_shared_floor_drops_single_collision_links(ray_session):
    """cfg.containment_min_shared=2 (round 5): a pair sharing exactly
    ONE winnowed window must not link (a ~200-char doc has ~5 windows,
    so one chance collision already clears the 0.2 ratio gate —
    measured at 25M docs), while a real contained fragment (which
    shares every one of its windows) must survive the floor."""
    import ray.data as rd

    from raydedup.stages.containment import containment_pairs

    w = 40
    base = "alpha bravo charlie delta echo foxtrot golf hotel india juliet " * 6
    # one shared window exactly: short doc = ONE window's worth of base
    frag1 = "xx yy " + base[10 : 10 + w + 16 - 1] + " zz qq"
    # real fragment: a third of the base verbatim (many shared windows)
    frag_real = base[: len(base) // 3]
    import pyarrow as pa

    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array([base, frag1, frag_real]),
            }
        )
    )
    loose = containment_pairs(docs, DedupConfig(containment_min_shared=1)).to_pandas()
    strict = containment_pairs(docs, DedupConfig(containment_min_shared=2)).to_pandas()
    loose_pairs = set(zip(loose.a, loose.b))
    strict_pairs = set(zip(strict.a, strict.b))
    assert (1, 2) in loose_pairs  # single collision passes the ratio gate
    assert (1, 2) not in strict_pairs  # ...but not the absolute floor
    assert (1, 3) in strict_pairs  # the real fragment survives
