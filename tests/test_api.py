"""The package front door: ``spinpair.__all__`` is the README's Library API
list, every name in it resolves, the names kept out of it still resolve from
their modules, and the benchmark's workloads read only exported names."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import spinpair

ROOT = Path(__file__).resolve().parent.parent

# Public names defined in a submodule and not exported by the package.
MODULE_ONLY = {
    "gates": ["IDENTITY4"],
    "invariants": ["MAGIC", "LocalInvariants", "ABCTriple", "abc_from_coords"],
    "mintime": [
        "CubicCoefficients",
        "DepressedCubic",
        "CubicRoots",
        "CanonicalCoordinates",
        "MinTimeReport",
    ],
    "kak": ["LocalGate", "KakDecomposition", "interaction_unitary", "factor_local"],
    "linalg": ["kron", "expm_hermitian", "unitary4", "hermitian4"],
    "schedule": ["euler_xyx"],
    "simulate": ["SimulationReport", "fidelity"],
}


def readme_api() -> list[str]:
    """The backticked names in the list items of the README's Library API section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Library API\n(.*?)^## ", text, re.S | re.M).group(1)
    items = re.findall(r"^- (.*?)(?=^- |^$)", section, re.S | re.M)
    return [name for item in items for name in re.findall(r"`([^`]+)`", item)]


def test_all_is_the_readme_list():
    listed = readme_api()
    assert len(listed) == len(set(listed)), "README Library API repeats a name"
    assert len(spinpair.__all__) == len(set(spinpair.__all__)), "__all__ repeats a name"
    assert spinpair.__all__ == listed


def test_exported_names_resolve():
    for name in spinpair.__all__:
        assert getattr(spinpair, name) is not None, name


@pytest.mark.parametrize("module", sorted(MODULE_ONLY))
def test_module_only_names_resolve_from_their_module(module):
    owner = importlib.import_module(f"spinpair.{module}")
    for name in MODULE_ONLY[module]:
        assert name not in spinpair.__all__
        assert hasattr(owner, name), f"spinpair.{module}.{name}"


def test_bench_workloads_read_exported_names():
    path = ROOT / "bench" / "workloads.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "sp"
    }
    assert read, "bench/workloads.py no longer reads spinpair as sp"
    assert read <= set(spinpair.__all__), sorted(read - set(spinpair.__all__))
