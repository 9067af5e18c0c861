"""One tolerance door: --tol-scale loosens only ``GateSpec.custom``'s input
check, and every library entry point keeps its fixed checks."""

import numpy as np
import pytest

from spinpair.config import input_tolerance, set_tol_scale
from spinpair.errors import NonUnitary
from spinpair.invariants import local_invariants
from spinpair.kak import RECONSTRUCTION_TOL, kak_decompose, reconstruct
from spinpair.linalg import max_norm
from spinpair.mintime import min_time
from spinpair.schedule import GateSpec

from conftest import bench_module


@pytest.fixture
def scale_1000():
    set_tol_scale(1000)
    yield
    set_tol_scale(1.0)


def _perturbed_edge_gates():
    """Benchmark edge gates plus 3e-8 real Gaussian noise (about 1e-7 off the
    unitary group): accepted by the input check at scale 1000, not at 1."""
    rng = np.random.default_rng(0)
    for gate in bench_module("gen").boundary_gates(1, 400):
        yield gate.matrix + 3e-8 * rng.standard_normal((4, 4))


def test_entry_points_reject_at_entry(scale_1000):
    entries = (kak_decompose, lambda u: min_time(u, 1.0), local_invariants)
    for u in _perturbed_edge_gates():
        for entry in entries:
            with pytest.raises(NonUnitary) as excinfo:
                entry(u)
            assert "stack index" not in str(excinfo.value)


def test_door_admits_every_gate_to_kak(scale_1000):
    admitted = 0
    for u in _perturbed_edge_gates():
        v = GateSpec.custom(u).unitary()
        assert max_norm(reconstruct(kak_decompose(v)) - v) <= RECONSTRUCTION_TOL
        admitted += 1
    assert admitted == 400


@pytest.mark.parametrize("factor", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_set_tol_scale_rejects(factor):
    try:
        with pytest.raises(ValueError):
            set_tol_scale(factor)
        assert input_tolerance() == 1e-8
    finally:
        set_tol_scale(1.0)
