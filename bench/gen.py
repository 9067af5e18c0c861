"""Seeded input generators for the benchmark workloads.

Everything here is built from numpy alone, without calling spinpair, so the
ground truth the benchmark checks against does not depend on the program
under test.  The same seed always gives the same inputs, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Coordinate values at and next to the edges of the Weyl chamber, where the
# cubic's roots sin^2(c) cluster near 0 and 1.
EDGE_VALUES = (
    0.0,
    1e-12,
    1e-9,
    1e-7,
    1e-5,
    1e-3,
    np.pi / 4,
    np.pi / 2 - 1e-9,
    np.pi / 2,
)
EDGE_PROB = 0.5  # share of coordinates taken from EDGE_VALUES, the rest uniform
MIRROR_PROB = 0.3  # share of gates whose c3 is negated

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_XX, _YY, _ZZ = np.kron(_X, _X), np.kron(_Y, _Y), np.kron(_Z, _Z)
_I4 = np.eye(4, dtype=complex)


def haar_unitary(rng: np.random.Generator, n: int = 4) -> np.ndarray:
    """Haar-random n x n unitary: QR of a complex Gaussian, with the phase fix
    that makes the distribution exactly Haar."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def haar_su2(rng: np.random.Generator) -> np.ndarray:
    u = haar_unitary(rng, 2)
    return u / np.sqrt(np.linalg.det(u))


def haar_batch(seed: int, count: int) -> list[np.ndarray]:
    """``count`` Haar-random 4x4 unitaries."""
    rng = np.random.default_rng(seed)
    return [haar_unitary(rng) for _ in range(count)]


def interaction(c1: float, c2: float, c3: float) -> np.ndarray:
    """exp(i/2 (c1 XX + c2 YY + c3 ZZ)) as a product of commuting factors."""
    out = _I4
    for c, p in ((c1, _XX), (c2, _YY), (c3, _ZZ)):
        out = out @ (np.cos(c / 2) * _I4 + 1j * np.sin(c / 2) * p)
    return out


@dataclass(frozen=True)
class BoundaryGate:
    """A dressed gate and the minimal-time coordinates it must give back."""

    matrix: np.ndarray
    truth: tuple[float, float, float]  # pi/2 >= c1 >= c2 >= c3 >= 0


def boundary_gates(seed: int, count: int) -> list[BoundaryGate]:
    """Gates at and near the Weyl-chamber edges.

    Each coordinate is an edge value or uniform on [0, pi/2]; the triple is
    sorted into the chamber, c3 is negated for a mirror-class share, and the
    interaction is dressed with random SU(2) x SU(2) factors on both sides
    and a random global phase.  min_time reports |c3|, so the truth is the
    sorted triple with c3 >= 0.
    """
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(count):
        c = [
            EDGE_VALUES[rng.integers(len(EDGE_VALUES))]
            if rng.random() < EDGE_PROB
            else rng.uniform(0.0, np.pi / 2)
            for _ in range(3)
        ]
        c1, c2, c3 = sorted(c, reverse=True)
        sign = -1.0 if rng.random() < MIRROR_PROB else 1.0
        left = np.kron(haar_su2(rng), haar_su2(rng))
        right = np.kron(haar_su2(rng), haar_su2(rng))
        phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        u = phase * left @ interaction(c1, c2, sign * c3) @ right
        gates.append(BoundaryGate(matrix=u, truth=(c1, c2, c3)))
    return gates


@dataclass(frozen=True)
class CliRequest:
    """One `schedule` + `verify` request pair and its analytic t* (seconds)."""

    gate: str
    gamma: tuple[float, float, float] | None
    coupling: float
    pulse_strength: float
    t_star: float


NAMED_GATES = ("cnot", "swap", "sqrtswap", "cu")
# Sum of minimal-time coordinates of the fixed named gates.
_NAMED_TOTALS = {"cnot": np.pi / 2, "swap": 3 * np.pi / 2, "sqrtswap": 3 * np.pi / 4}
CU_GAMMA_RANGE = (0.1, 1.4)  # |gamma| < pi/2, so the coordinate (|gamma|, 0, 0) needs no folding


def cli_requests(seed: int, count: int, coupling: float, pulse_strength: float) -> list[CliRequest]:
    """Requests cycling through the named gates; each `cu` gets a seeded
    random gamma vector.  The controlled-U of exp(i gamma.sigma) is locally
    equivalent to exp(-i |gamma|/2 ZZ), so its t* is |gamma| / (pi J)."""
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(count):
        name = NAMED_GATES[i % len(NAMED_GATES)]
        gamma = None
        if name == "cu":
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            magnitude = rng.uniform(*CU_GAMMA_RANGE)
            gamma = tuple(float(g) for g in magnitude * direction)
            total = float(np.linalg.norm(gamma))
        else:
            total = _NAMED_TOTALS[name]
        requests.append(
            CliRequest(name, gamma, coupling, pulse_strength, total / (np.pi * coupling))
        )
    return requests
