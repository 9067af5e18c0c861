"""Rules on the library source that no runtime test sees."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "spinpair").glob("*.py"))


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


def test_runtime_dependency_is_numpy_only():
    # A fresh interpreter importing the package and its CLI loads numpy,
    # spinpair and the standard library, nothing else.
    code = (
        "import sys; before = set(sys.modules); import spinpair, spinpair.cli; "
        "print(*{name.partition('.')[0] for name in set(sys.modules) - before})"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    loaded = set(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True).stdout.split())
    assert loaded - set(sys.stdlib_module_names) == {"numpy", "spinpair"}


def _functions_comparing(tree, module, name):
    """``module.function`` of every comparison of ``name`` in ``tree``."""
    sites = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{module}.{node.name}"
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]  # -_SAFE_ENTRY too
            if any(isinstance(x, ast.Name) and x.id == name for y in operands for x in ast.walk(y)):
                sites.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, module)
    return sites


def test_the_entry_bound_is_compared_in_two_functions():
    # The matrix overflow guard and the schedule number rule; every other
    # check of a schedule's numbers calls the rule.
    sites = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        sites |= _functions_comparing(tree, path.stem, "_SAFE_ENTRY")
    assert sites == {"linalg._validated", "schedule._check"}
