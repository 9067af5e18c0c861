"""Rules on the library source that no runtime test sees."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "spinpair").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_global_statement(path):
    # Module state written through ``global`` is shared by every caller in
    # the process; per-call settings live in a ContextVar or an argument.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert lines == [], f"{path.name}: global statement at line(s) {lines}"
