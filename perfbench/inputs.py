"""Seeded workload inputs: planted-duplicate corpora and query batches.

Every input is a pure function of (workload seed, role, index), so the
same seed gives the same inputs. Corpora are generated in child
processes before Ray starts: generation is excluded from every metric
and runs in parallel so it does not dominate the run's wall time.

A corpus of several parts is several independent ``CorpusSpec``
corpora with distinct url prefixes (like crawl segments): planted
groups never span parts, so the union's oracle is the concatenation of
the parts' oracles.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

ROLES = {"corpus": 1, "warmup": 2, "miss": 3, "edit": 4}


def derive_seed(seed: int, role: str, index: int = 0) -> int:
    """Independent 32-bit seed per (workload seed, role, index)."""
    return int(np.random.SeedSequence([seed, ROLES[role], index]).generate_state(1)[0])


def _gen_part(job: tuple) -> tuple[str, str, str]:
    out_dir, n_docs, seed, prefix, n_files = job
    from raydedup.corpus import CorpusSpec, materialize_corpus

    spec = CorpusSpec(n_docs=n_docs, seed=seed, url_prefix=prefix)
    p = materialize_corpus(out_dir, spec, n_files=n_files)
    return p["pages"], p["oracle_clusters"], p["oracle_pairs"]


def make_corpora(root: str, specs: list[tuple[str, int, int, int, int]], procs: int) -> list[dict]:
    """Generate corpora in parallel. ``specs`` holds
    (name, n_docs, parts, seed, files_per_part); returns one dict per
    corpus with its merged ``pages`` dir, ``oracle_clusters`` and
    ``oracle_pairs`` tables."""
    jobs, owners = [], []
    for ci, (name, n_docs, parts, seed, n_files) in enumerate(specs):
        for pi in range(parts):
            part_seed = seed if parts == 1 else derive_seed(seed, "corpus", pi)
            jobs.append(
                (os.path.join(root, f"{name}.gen{pi}"), n_docs // parts, part_seed,
                 f"{name}{pi}-", n_files)
            )
            owners.append(ci)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(max(1, min(procs, len(jobs)))) as pool:
        results = pool.map(_gen_part, jobs, chunksize=1)
        pool.close()
        pool.join()
    out = []
    for ci, (name, *_rest) in enumerate(specs):
        pages_dir = os.path.join(root, name, "pages")
        os.makedirs(pages_dir)
        clusters, pairs = [], []
        for pi, ((pdir, oc, op), job) in enumerate(
            (r, j) for r, j, o in zip(results, jobs, owners) if o == ci
        ):
            for f in sorted(glob.glob(os.path.join(pdir, "*.parquet"))):
                os.rename(f, os.path.join(pages_dir, f"p{pi:02d}-{os.path.basename(f)}"))
            clusters.append(pq.read_table(oc))
            pairs.append(pq.read_table(op))
            shutil.rmtree(job[0])
        out.append(
            {
                "pages": pages_dir,
                "files": sorted(glob.glob(os.path.join(pages_dir, "*.parquet"))),
                "oracle_clusters": pa.concat_tables(clusters),
                "oracle_pairs": pa.concat_tables(pairs),
            }
        )
    return out


def read_pages_table(corpus: dict) -> pa.Table:
    return pa.concat_tables(pq.read_table(f) for f in corpus["files"])


def shingle_set(text: str, k: int) -> set:
    """Exact word k-gram set, tokenized like the engine (lowercased
    whitespace split); a text shorter than k is its own single shingle."""
    toks = text.lower().split()
    if len(toks) < k:
        return {(text,)}
    return {tuple(toks[i : i + k]) for i in range(len(toks) - k + 1)}


def exact_jaccard(a: str, b: str, k: int) -> float:
    sa, sb = shingle_set(a, k), shingle_set(b, k)
    return len(sa & sb) / len(sa | sb)


def make_query_batches(
    stored: dict,
    miss: dict,
    n_batches: int,
    batch_docs: int,
    seed: int,
    edit_p: tuple[float, float],
    shingle_k: int,
) -> list[dict]:
    """Query batches of half hit docs (light token edits of stored docs
    that have no planted duplicate, so the source is their one expected
    match) and half miss docs (unseen docs from the ``miss`` corpus).

    Each batch carries a pages table (hit rows first, ``n_hit`` of them)
    and, per hit url, its source url and exact Jaccard to the source."""
    from raydedup.corpus import render_html

    rng = np.random.default_rng(derive_seed(seed, "edit"))
    pages = read_pages_table(stored)
    oc = stored["oracle_clusters"].to_pandas()
    unique_urls = set(oc.loc[oc["variant"] == "unique", "url"])
    texts = pages.column("text").to_pylist()
    urls = pages.column("url").to_pylist()
    candidates = [i for i, u in enumerate(urls) if u in unique_urls]
    pool = " ".join(texts[i] for i in rng.choice(len(texts), 64, replace=False)).split()
    miss_pages = read_pages_table(miss)
    n_hit = batch_docs // 2
    n_miss = batch_docs - n_hit
    picks = rng.choice(len(candidates), n_batches * n_hit, replace=False)
    batches = []
    for b in range(n_batches):
        rows = {"url": [], "html": [], "text": [], "lang": []}
        sources = {}
        for j in range(n_hit):
            src = candidates[int(picks[b * n_hit + j])]
            toks = texts[src].split()
            p = rng.uniform(*edit_p)
            for t in np.flatnonzero(rng.random(len(toks)) < p):
                toks[t] = pool[int(rng.integers(len(pool)))]
            text = " ".join(toks)
            url = f"https://query.example/b{b}/hit{j}"
            rows["url"].append(url)
            rows["html"].append(render_html(url, text))
            rows["text"].append(text)
            rows["lang"].append("en")
            sources[url] = (urls[src], exact_jaccard(text, texts[src], shingle_k))
        lo = b * n_miss
        for col in rows:
            rows[col].extend(miss_pages.column(col).slice(lo, n_miss).to_pylist())
        table = pa.table(
            {
                "url": pa.array(rows["url"], pa.string()),
                "html": pa.array(rows["html"], pa.binary()),
                "text": pa.array(rows["text"], pa.string()),
                "lang": pa.array(rows["lang"], pa.string()),
            }
        )
        batches.append({"pages": table, "sources": sources, "n_hit": n_hit})
    return batches
