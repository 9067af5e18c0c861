"""Rules on the library source that no runtime test sees."""

import ast
from collections import Counter
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


def _print_calls(tree, module):
    """``module.function`` of every ``print(...)`` call in ``tree``."""
    sites = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{module}.{node.name}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            sites.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, module)
    return sites


def test_print_only_in_the_cli_output_path():
    # The library returns values and raises errors.  The CLI prints a report
    # in ``_print_report`` (JSON or text) and an error line once, in ``main``.
    calls = Counter()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        calls.update(_print_calls(tree, path.stem))
    assert calls == {"cli._print_report": 2, "cli.main": 1}
