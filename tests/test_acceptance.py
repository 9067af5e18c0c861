"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import contextlib

import numpy as np
import pytest

from spinpair.cli import main as cli_main
from spinpair.gates import CNOT, SQRT_SWAP, SWAP, controlled_u
from spinpair.invariants import abc_from_invariants, local_invariants
from spinpair.kak import interaction_unitary, kak_decompose, reconstruct
from spinpair.linalg import kron, max_norm, rotation
from spinpair.mintime import (
    canonical_coords,
    cubic_coefficients,
    depress,
    min_time,
    solve_depressed,
)
from spinpair.schedule import GateSpec, synthesize
from spinpair.simulate import verify

from conftest import haar_unitary, random_local


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_golden_invariants():
    with criterion(1, "golden invariants"):
        cases = [
            (CNOT, 0.0, 1.0),
            (SWAP, -1.0, -3.0),
            (SQRT_SWAP, 0.25j, 0.0),
        ]
        for gamma in (np.pi / 6, np.pi / 4, np.pi / 3):
            want = np.cos(gamma) ** 2
            cases.append((controlled_u(gamma, 0.0, 0.0), want, 2 * want + 1))
            # mixed-axis version with the same total rotation angle
            axis = np.array([2.0, -1.0, 2.0]) / 3.0
            cases.append(
                (controlled_u(*(gamma * axis)), want, 2 * want + 1)
            )
        for gate, g1, g2 in cases:
            inv = local_invariants(gate)
            assert abs(inv.g1 - g1) < 1e-10
            assert abs(inv.g2 - g2) < 1e-10


def test_criterion_2_golden_minimal_times():
    with criterion(2, "golden minimal times"):
        for j in (1.0, 2.5):
            assert min_time(CNOT, j).t_star == pytest.approx(1 / (2 * j), rel=1e-10)
            assert min_time(SWAP, j).t_star == pytest.approx(3 / (2 * j), rel=1e-10)
            assert min_time(SQRT_SWAP, j).t_star == pytest.approx(
                3 / (4 * j), rel=1e-10
            )
            for gamma in (np.pi / 6, np.pi / 4, np.pi / 3):
                got = min_time(controlled_u(gamma, 0.0, 0.0), j).t_star
                want = np.arcsin(abs(np.sin(gamma))) / (np.pi * j)
                assert got == pytest.approx(want, rel=1e-10)


def test_criterion_3_golden_cubic_data():
    with criterion(3, "golden cubic data"):
        # CNOT: monic (p, q, r) = (-1, 0, 0)
        dc = depress(cubic_coefficients(abc_from_invariants(local_invariants(CNOT))))
        assert dc.p == pytest.approx(-1 / 3, abs=1e-12)
        assert dc.q == pytest.approx(-2 / 27, abs=1e-12)
        roots = solve_depressed(dc)
        big = sorted((x - dc.shift for x in roots.as_tuple()), reverse=True)
        assert big == pytest.approx([2 / 3, -1 / 3, -1 / 3], abs=1e-12)

        dc = depress(cubic_coefficients(abc_from_invariants(local_invariants(SWAP))))
        assert dc.p == pytest.approx(0.0, abs=1e-12)
        assert dc.q == pytest.approx(0.0, abs=1e-12)
        roots = solve_depressed(dc)
        big = [x - dc.shift for x in roots.as_tuple()]
        assert big == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_criterion_4_forward_oracle_round_trip():
    with criterion(4, "forward-oracle round trip (2000 points)"):
        rng = np.random.default_rng(4242)
        worst = 0.0
        for _ in range(2000):
            c = np.sort(rng.uniform(0.0, np.pi / 2, size=3))[::-1]
            u = random_local(rng) @ interaction_unitary(*c) @ random_local(rng)
            got = np.array(canonical_coords(u).as_tuple())
            worst = max(worst, np.abs(got - c).max())
        assert worst < 1e-7


def test_criterion_5_discriminant_property():
    with criterion(5, "discriminant nonpositive (10^4 unitaries)"):
        rng = np.random.default_rng(555)
        worst = -np.inf
        for _ in range(10_000):
            abc = abc_from_invariants(local_invariants(haar_unitary(rng)))
            dc = depress(cubic_coefficients(abc))
            worst = max(worst, dc.discriminant)
        assert worst <= 1e-9


def test_criterion_6_kak_reconstruction():
    with criterion(6, "KAK reconstruction + textbook CNOT decomposition"):
        rng = np.random.default_rng(66)
        for _ in range(1000):
            u = haar_unitary(rng)
            d = kak_decompose(u)
            assert max_norm(reconstruct(d) - u) < 1e-7

        def ex(axis, angle):  # exp(i angle sigma_axis)
            return rotation(axis, -2 * angle)

        k1 = kron(
            ex("y", np.pi / 4) @ ex("x", np.pi / 4),
            ex("x", np.pi / 4) @ ex("y", -np.pi / 2),
        )
        k2 = kron(ex("y", -np.pi / 4), ex("y", np.pi / 2))
        explicit = (
            np.exp(-1j * np.pi / 4)
            * k1
            @ interaction_unitary(np.pi / 2, 0.0, 0.0)
            @ k2
        )
        overlap = np.trace(explicit.conj().T @ CNOT) / 4
        assert max_norm(explicit * np.conj(overlap) / abs(overlap) - CNOT) < 1e-10


def test_criterion_7_schedule_fidelities():
    with criterion(7, "schedule fidelities and drift times"):
        specs = [
            (GateSpec.cnot(), CNOT, 0.5),
            (GateSpec.swap(), SWAP, 1.5),
            (GateSpec.sqrt_swap(), SQRT_SWAP, 0.75),
        ]
        j = 1.0
        for spec, target, drift in specs:
            for n, threshold in ((1e3 * j, 0.999), (1e4 * j, 0.9999)):
                schedule = synthesize(spec, j, n)
                report = verify(schedule, target)
                assert report.fidelity >= threshold
                assert report.drift_time == pytest.approx(drift, abs=1e-12)
        # the dedicated five-step CNOT sequence has one drift window of 1/(2J)
        assert synthesize(GateSpec.cnot(), j, 1e3).declared_drift_time == 1 / (2 * j)


def test_criterion_8_conjugation_identity():
    with criterion(8, "XX-from-ZZ conjugation identity"):
        lhs = interaction_unitary(np.pi / 2, 0.0, 0.0)  # exp(i pi/4 XX)
        rhs = (
            kron(rotation("y", np.pi / 2), rotation("y", -np.pi / 2))
            @ interaction_unitary(0.0, 0.0, -np.pi / 2)  # exp(-i pi/4 ZZ)
            @ kron(rotation("y", -np.pi / 2), rotation("y", np.pi / 2))
        )
        assert max_norm(lhs - rhs) < 1e-12


def test_criterion_9_cli_end_to_end(tmp_path, capsys):
    with criterion(9, "CLI schedule+verify for every library gate"):
        gates = [
            ["--gate", "cnot"],
            ["--gate", "swap"],
            ["--gate", "sqrtswap"],
            ["--gate", "cu", "--gamma1", "0.7853981633974483"],
        ]
        for gate_args in gates:
            sched = tmp_path / (gate_args[1] + ".sched")
            outputs = []
            for _ in range(2):
                code = cli_main(
                    [
                        "schedule",
                        *gate_args,
                        "--coupling",
                        "1",
                        "--pulse-strength",
                        "1000",
                        "-o",
                        str(sched),
                    ]
                )
                assert code == 0
                outputs.append(sched.read_bytes())
                verify_code = cli_main(["verify", "--schedule", str(sched)])
                out = capsys.readouterr()
                assert verify_code == 0, out.out
                outputs.append(out.out.encode())
            # byte-determinism across repeated runs
            assert outputs[0] == outputs[2]
            assert outputs[1] == outputs[3]
