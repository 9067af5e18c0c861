"""One tolerance door: --tol-scale loosens only ``GateSpec.custom``'s input
check, and every library entry point keeps its fixed checks."""

import threading

import numpy as np
import pytest

from spinpair.errors import NonUnitary
from spinpair.gates import CNOT
from spinpair.invariants import local_invariants
from spinpair.kak import RECONSTRUCTION_TOL, kak_decompose, reconstruct
from spinpair.linalg import max_norm
from spinpair.mintime import min_time
from spinpair.schedule import GateSpec, input_tolerance, tol_scale

from conftest import bench_module


@pytest.fixture
def scale_1000():
    with tol_scale(1000):
        yield


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


@pytest.mark.parametrize("factor", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0,
                                    True, None, "2", pytest.param(10**400, id="ten-to-400"),
                                    pytest.param(-10**400, id="minus-ten-to-400")])
def test_set_tol_scale_rejects(factor):
    with pytest.raises(ValueError):
        with tol_scale(factor):
            pass
    assert input_tolerance() == 1e-8


def test_tol_scale_restores_when_the_block_raises():
    with pytest.raises(RuntimeError):
        with tol_scale(1000):
            assert input_tolerance() == pytest.approx(1e-5)
            raise RuntimeError
    assert input_tolerance() == 1e-8


def test_scale_stays_in_the_calling_thread():
    # 3e-7 noise: accepted at scale 1000, rejected at scale 1.
    noisy = CNOT + 3e-7 * np.random.default_rng(3).standard_normal((4, 4))
    inside, done = threading.Event(), threading.Event()
    outcome = []

    def worker():
        assert inside.wait(timeout=30)
        try:
            GateSpec.custom(noisy)
            outcome.append("accepted")
        except NonUnitary:
            outcome.append("rejected")
        done.set()

    thread = threading.Thread(target=worker)
    thread.start()
    with tol_scale(1000):
        GateSpec.custom(noisy)
        inside.set()
        assert done.wait(timeout=30)
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert outcome == ["rejected"]
