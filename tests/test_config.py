"""DedupConfig holds only fields the program reads: a field nothing
reads changes no run, and one read only to pick a second code path is
an option to delete, not to keep."""

import ast
import dataclasses
import pathlib

import raydedup
from raydedup.config import DedupConfig

# fields the program does not read, each with why it stays
UNREAD_ALLOWED = {
    # routes nothing since run_dedup_scale became the only engine; the
    # benchmark's workloads (perfbench/workloads.py) still set it, so it
    # goes with the next change to the benchmark
    "scale_min_docs",
}


def _attribute_reads() -> set[str]:
    """Names read as ``<expr>.<name>`` anywhere in the package outside
    config.py (comments and docstrings do not count)."""
    root = pathlib.Path(raydedup.__file__).parent
    names: set[str] = set()
    for path in root.rglob("*.py"):
        if path == root / "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_config_field_is_read_by_program_code():
    reads = _attribute_reads()
    fields = {f.name for f in dataclasses.fields(DedupConfig)}
    assert UNREAD_ALLOWED <= fields
    assert sorted(fields - reads - UNREAD_ALLOWED) == []
