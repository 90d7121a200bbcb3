"""normalize_text vs pinned expectations, DuckDB parity, idempotence."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from raydedup.stages.textnorm import (
    TEXTNORM_PASSES,
    normalize_text,
    normalize_text_column,
    text_normalize_sql,
)

PINNED = [
    ("   hello\tworld  ", "hello world"),
    ("“quoted” — and ‘single’", '"quoted" - and \'single\''),
    ("dots… end", "dots... end"),
    ("a ​‌‍﻿ b", "a b"),
    ("ctrl\x07\x1b\x00 bytes", "ctrl bytes"),
    ("  line one  \n   line two \n\n\n\n\nline three", "line one\nline two\n\nline three"),
    ("", ""),
    ("   \t ", ""),
    ("plain ascii stays.", "plain ascii stays."),
    ("en–dash em—dash bar―done", "en-dash em-dash bar-done"),
]


@pytest.mark.parametrize("raw,expected", PINNED)
def test_pinned_cases(raw, expected):
    out = normalize_text_column(pa.array([raw], pa.string()))
    assert out.to_pylist() == [expected]


def _rand_texts(n: int = 300) -> list[str]:
    rng = np.random.default_rng(99)
    alphabet = list("ab c.\n\t") + [
        " ", "“", "”", "‘", "’", "–",
        "—", "…", "​", "﻿", "\x07", "\x1b", "'",
    ]
    return [
        "".join(rng.choice(alphabet, size=int(rng.integers(0, 60))))
        for _ in range(n)
    ]


def test_duckdb_parity_random():
    texts = _rand_texts()
    t = pa.table({"i": list(range(len(texts))), "text": texts})
    got = normalize_text_column(t.column("text")).to_pylist()
    con = duckdb.connect()
    con.register("t", t)
    ref = [
        r[0]
        for r in con.execute(
            f"SELECT {text_normalize_sql('text')} FROM t ORDER BY i"
        ).fetchall()
    ]
    assert got == ref


def test_idempotent():
    texts = _rand_texts(150)
    once = normalize_text_column(pa.array(texts, pa.string()))
    twice = normalize_text_column(once)
    assert once.to_pylist() == twice.to_pylist()


def test_dataset_wrapper(ray_session):
    df = pd.DataFrame({"doc_id": [0, 1], "text": [PINNED[0][0], PINNED[1][0]]})
    out = (
        normalize_text(rd.from_pandas(df))
        .to_pandas()
        .sort_values("doc_id")["norm_text"]
        .tolist()
    )
    assert out == [PINNED[0][1], PINNED[1][1]]


def test_normalize_flag_collapses_typographic_neardups(ray_session):
    # every word of doc 1 ends in a unicode ellipsis, doc 2 in ASCII
    # '...': unnormalized shingle sets are disjoint (Jaccard 0); after
    # ingress normalization the texts are byte-identical.
    from raydedup.config import DedupConfig
    from raydedup.pipelines.dedup_scale import run_dedup_scale
    from raydedup.stages.extract import sha256_of_utf8_array

    words = [f"tok{i}" for i in range(30)]
    a = " ".join(w + "…" for w in words)
    b = " ".join(w + "..." for w in words)
    fillers = [
        " ".join(f"w{i}x{j}" for i in range(25)) for j in range(6)
    ]
    texts = [a, b, *fillers]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    t = t.append_column("text_sha256", sha256_of_utf8_array(t.column("text")))
    docs = rd.from_arrow(t)

    def cluster_of(res):
        cl = res.clusters.to_pandas().set_index("doc_id")["cluster_id"]
        return cl.loc[0], cl.loc[1]

    c0, c1 = cluster_of(
        run_dedup_scale(docs, DedupConfig(batch_size=64), containment=False)
    )
    assert c0 != c1
    n0, n1 = cluster_of(
        run_dedup_scale(
            docs, DedupConfig(batch_size=64, normalize=True), containment=False
        )
    )
    assert n0 == n1


def test_normalize_flag_on_scale_pipeline(ray_session):
    # same typographic-variant corpus through the refs-only scale
    # pipeline: the ingress hook must behave identically there.
    from raydedup.config import DedupConfig
    from raydedup.pipelines.dedup_scale import run_dedup_scale
    from raydedup.stages.extract import sha256_of_utf8_array

    words = [f"tok{i}" for i in range(30)]
    a = " ".join(w + "…" for w in words)
    b = " ".join(w + "..." for w in words)
    fillers = [" ".join(f"w{i}x{j}" for i in range(25)) for j in range(6)]
    texts = [a, b, *fillers]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    t = t.append_column("text_sha256", sha256_of_utf8_array(t.column("text")))
    docs = rd.from_arrow(t)
    res = run_dedup_scale(
        docs,
        DedupConfig(batch_size=64, normalize=True),
        containment=False,
        num_buckets=4,
        n_shards=2,
    )
    cl = res.clusters.to_pandas().set_index("doc_id")["cluster_id"]
    assert cl.loc[0] == cl.loc[1]


def test_pass_chain_is_re2_safe():
    # every pattern must compile under RE2 semantics on both engines:
    # exercised by applying each pass to a probe string via Arrow and
    # DuckDB without error
    import pyarrow.compute as pc

    probe = pa.array(["probe  …\n\n\n\n x"], pa.string())
    con = duckdb.connect()
    for pat, rep in TEXTNORM_PASSES:
        pc.replace_substring_regex(probe, pattern=pat, replacement=rep)
        con.execute(
            "SELECT regexp_replace(?, ?, ?, 'g')", ["probe", pat, rep]
        ).fetchone()


def test_normalized_dup_pairs(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from raydedup.stages.textnorm import normalized_dup_pairs

    rows = [
        (1, "hello  world"),            # double space
        (2, "hello world"),             # canonical
        (3, "  hello world\t"),         # edges
        (4, "“hello world”"),           # curly quotes -> "hello world" != bare
        (5, "different text"),
        (6, None),                      # null -> ""
        (7, ""),                        # empty pairs with null
    ]
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows], pa.large_string()),
            }
        )
    ).repartition(3)
    out = normalized_dup_pairs(docs)
    pairs = set(zip(out.column("a").to_pylist(), out.column("b").to_pylist()))
    assert (1, 2) in pairs and (1, 3) in pairs   # whitespace variants collapse
    assert not any(4 in p for p in pairs)        # quoted form is distinct content
    assert (6, 7) in pairs                       # null and empty normalize equal
    assert not any(5 in p for p in pairs)
    # partition invariance
    out2 = normalized_dup_pairs(docs.repartition(1))
    assert out.to_pydict() == out2.to_pydict()
