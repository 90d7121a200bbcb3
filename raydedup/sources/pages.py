"""Sources: page/document tables -> canonical docs Dataset.

Analog of the reference's file-list expansion + decode front-end
(``cli/Application.java:110-150``, ffmpeg pipe ``util/Key.java:85``).
Reads prune columns at the Parquet scan (only what the stage needs
leaves storage).
"""

from __future__ import annotations

import glob as _glob
import os

import ray.data as rd
from ray.data import Dataset

from raydedup.stages.extract import docs_identity_batch, extract_batch
from raydedup.util import cluster_cpus


def _read_blocks(path: str) -> int:
    """Read-task count: one task per input file once files cover the
    CPUs, else split files to fill the task pool. Ray's default
    over-splits small corpora (224 blocks for 32 files at 50k docs),
    and the per-task fixed cost then dominates extraction — measured
    0.69 s -> 0.24 s for the 50k extract+materialize by reading one
    block per file. Output blocks still split dynamically at the
    target block size, so large files never produce oversized blocks
    downstream."""
    cpus = cluster_cpus()
    if isinstance(path, (list, tuple)):
        n_files = len(path) or 1
    elif os.path.isdir(path):
        n_files = len(_glob.glob(os.path.join(path, "*.parquet"))) or 1
    else:
        n_files = 1
    return max(cpus, n_files)


def read_pages(path: str, *, lang: str | None = None) -> Dataset:
    """pages parquet (url, warc_ts, html, text, lang) -> raw Dataset."""
    cols = ["url", "html", "lang"]
    ds = rd.read_parquet(path, columns=cols, override_num_blocks=_read_blocks(path))
    if lang is not None:
        import pyarrow.compute as pc

        ds = ds.map_batches(
            lambda t: t.filter(pc.equal(t["lang"], lang)), batch_format="pyarrow"
        )
    return ds


def pages_to_docs(pages: Dataset) -> Dataset:
    """Stateless extraction stage: html -> text, + doc_id, text_sha256."""
    return pages.map_batches(extract_batch, batch_format="pyarrow")


def read_docs(sf_dir_or_path: str) -> Dataset:
    """Read an already-extracted documents table (testdata ``documents``:
    doc_id, text, lang, source, n_chars) and attach identity columns."""
    path = sf_dir_or_path
    if os.path.isdir(path) and os.path.exists(os.path.join(path, "documents.parquet")):
        path = os.path.join(path, "documents.parquet")
    ds = rd.read_parquet(path, override_num_blocks=_read_blocks(path))
    return ds.map_batches(docs_identity_batch, batch_format="pyarrow")
