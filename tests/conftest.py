"""Session-scoped Ray fixture: one ray.init per pytest session."""

from __future__ import annotations

import logging

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """Deterministic 600-doc planted-duplicate corpus, built once."""
    from raydedup.corpus import CorpusSpec, materialize_corpus

    out = str(tmp_path_factory.mktemp("corpus"))
    spec = CorpusSpec(n_docs=600, seed=42)
    paths = materialize_corpus(out, spec, n_files=4)
    return spec, paths


@pytest.fixture
def no_ray_data_plans(monkeypatch):
    """Returns a function that makes ``ray.data.read_parquet``,
    ``Dataset.map_batches`` and ``Dataset.select_columns`` raise for the
    rest of the test: a path that builds a Ray Data plan fails."""
    import ray.data
    from ray.data import Dataset

    def boom(*a, **kw):
        raise AssertionError("a Ray Data plan ran")

    def arm() -> None:
        monkeypatch.setattr(ray.data, "read_parquet", boom)
        monkeypatch.setattr(Dataset, "map_batches", boom)
        monkeypatch.setattr(Dataset, "select_columns", boom)

    return arm
