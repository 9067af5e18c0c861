"""The single-validation KAK path against the per-factor implementation it
replaced.

`_reference_kak` and `_reference_segments` below are the earlier
`kak_decompose` and custom-gate `synthesize` path, kept as written: the
three-pass cluster-tolerance retry in the eigenbasis, four mat-vecs for the
eigenvalues, `matrix_power` on every canonicalization shift, one SVD and one
`LocalGate` round trip per local factor, and `euler_xyx` re-checking every
factor.  The current code must give the same factors, coordinates, global
phase and pulse segments.  At coordinates that are exactly 0 the
decomposition is not unique and the canonicalization moves follow the last
bit of the eigenvalues, so agreement there needs the same arithmetic, not
only the same mathematics.  `_pulse` and `_drift` are that path's segment
builders, copied here as written, so the reference does not use the
builders under test.
"""

import numpy as np
import pytest

from spinpair.errors import DegenerateSpectrum, NotLocal, ReconstructionFailed
from spinpair.gates import CNOT, IDENTITY4, SQRT_SWAP, SWAP, controlled_u
from spinpair.invariants import MAGIC, MAGIC_DAG, _coords_from_phases
from spinpair.kak import (
    _FLIPPERS,
    _SWAPPERS,
    RECONSTRUCTION_TOL,
    KakDecomposition,
    LocalGate,
    kak_decompose,
    reconstruct,
)
from spinpair.linalg import max_norm, unitary4
from spinpair.mintime import CanonicalCoordinates
from spinpair.schedule import COORD_SKIP, ControlAmplitudes, GateSpec, PulseSegment, synthesize

from conftest import EDGE_VALUES, haar_unitary, weyl_gate

AGREE = 1e-12


def _reference_factor_local(k, tol=1e-8):
    k = unitary4(k, tol=1e-8)
    m = k.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vh = np.linalg.svd(m)
    if s[1] > tol:
        raise NotLocal(f"second singular value of the reshuffle is {s[1]:.3e} > {tol:.0e}")
    a = (u[:, 0] * np.sqrt(s[0])).reshape(2, 2)
    b = (vh[0] * np.sqrt(s[0])).reshape(2, 2)
    a = a / np.sqrt(np.linalg.det(a))
    b = b / np.sqrt(np.linalg.det(b))
    for entry in a.ravel():
        if abs(entry) > 1e-12:
            if entry.real < -1e-12 or (abs(entry.real) <= 1e-12 and entry.imag < 0):
                a = -a
                b = -b
            break
    product = np.kron(a, b)
    ref = np.unravel_index(np.argmax(np.abs(product)), product.shape)
    phase = float(np.angle(k[ref] / product[ref]))
    return LocalGate(a=a, b=b), phase


def _reference_eigenbasis(m):
    mr = (m.real + m.real.T) / 2
    mi = (m.imag + m.imag.T) / 2
    best = None
    for cluster_tol in (1e-9, 1e-7, 1e-5):
        w, p = np.linalg.eigh(mr)
        start = 0
        for i in range(1, 5):
            if i == 4 or w[i] - w[i - 1] > cluster_tol:
                if i - start > 1:
                    block = p[:, start:i]
                    sub = block.T @ mi @ block
                    _, rot = np.linalg.eigh((sub + sub.T) / 2)
                    p[:, start:i] = block @ rot
                start = i
        mu = np.array([p[:, j] @ m @ p[:, j] for j in range(4)])
        residual = max_norm(m @ p - p * mu)
        if best is None or residual < best[0]:
            best = (residual, p, mu)
        if residual <= 1e-10:
            break
    residual, p, mu = best
    if residual > 1e-7:
        raise DegenerateSpectrum(f"could not build a real eigenbasis: residual {residual:.3e}")
    return p, mu


def _reference_canonicalize(c, atol=1e-14):
    v = list(c)
    phase = [1.0 + 0j]
    left = [np.eye(2, dtype=complex), np.eye(2, dtype=complex)]
    right = [np.eye(2, dtype=complex), np.eye(2, dtype=complex)]

    def shift(k, step):
        v[k] += step * np.pi
        phase[0] *= 1j**step
        f = np.linalg.matrix_power(_FLIPPERS[k], step % 4)
        right[0] = f @ right[0]
        right[1] = f @ right[1]

    def negate(k1, k2):
        v[k1] *= -1
        v[k2] *= -1
        phase[0] *= -1
        f = _FLIPPERS[3 - k1 - k2]
        left[1] = left[1] @ f
        right[1] = f @ right[1]

    def swap(k1, k2):
        v[k1], v[k2] = v[k2], v[k1]
        s = _SWAPPERS[3 - k1 - k2]
        left[0] = left[0] @ s
        left[1] = left[1] @ s
        right[0] = s @ right[0]
        right[1] = s @ right[1]

    for k in range(3):
        while v[k] <= -np.pi / 2:
            shift(k, +1)
        while v[k] > np.pi / 2:
            shift(k, -1)
    if abs(v[0]) < abs(v[1]):
        swap(0, 1)
    if abs(v[1]) < abs(v[2]):
        swap(1, 2)
    if abs(v[0]) < abs(v[1]):
        swap(0, 1)
    if v[0] < 0:
        negate(0, 2)
    if v[1] < 0:
        negate(1, 2)
    while v[2] <= -np.pi / 2:
        shift(2, +1)
    if v[0] > np.pi / 2 - atol and v[2] < 0:
        shift(0, -1)
        negate(0, 2)
    coords = [0.0 if abs(x) < 1e-14 else float(x) for x in v]
    return coords, phase[0], left, right


def _reference_kak(u):
    u = unitary4(u)
    ub = MAGIC_DAG @ u @ MAGIC
    m = ub.T @ ub
    p, mu = _reference_eigenbasis(m)
    theta = np.angle(mu) / 2
    if np.linalg.det(p) < 0:
        p = p.copy()
        p[:, 0] = -p[:, 0]
    ell = ub @ p @ np.diag(np.exp(-1j * theta))
    if np.linalg.det(ell).real < 0:
        theta = theta.copy()
        theta[0] += np.pi
        ell = ell.copy()
        ell[:, 0] = -ell[:, 0]
    if max_norm(ell.imag) > 1e-6:
        raise DegenerateSpectrum(f"left factor is not real: ||Im L|| = {max_norm(ell.imag):.3e}")
    ell = ell.real.astype(float)
    w = float(np.sum(theta) / 4)
    coords, move_phase, left, right = _reference_canonicalize(_coords_from_phases(theta))
    k1, phase1 = _reference_factor_local((MAGIC @ ell @ MAGIC_DAG) @ np.kron(left[0], left[1]))
    k2, phase2 = _reference_factor_local(np.kron(right[0], right[1]) @ (MAGIC @ p.T @ MAGIC_DAG))
    d = KakDecomposition(
        k1=k1,
        coords=CanonicalCoordinates(*coords),
        k2=k2,
        global_phase=float(w + np.angle(move_phase) + phase1 + phase2),
    )
    residual = max_norm(reconstruct(d) - u)
    if residual > RECONSTRUCTION_TOL:
        raise ReconstructionFailed(f"reconstruction residual {residual:.3e}")
    return d


def _reference_euler(k):
    k = np.asarray(k, dtype=complex)
    if max_norm(k.conj().T @ k - np.eye(2)) > 1e-9 or abs(np.linalg.det(k) - 1) > 1e-9:
        raise ValueError("euler_xyx expects a special unitary (det 1) matrix")
    ca = float(k[0, 0].real)
    cc = float(-k[0, 1].imag)
    sb = float(-k[0, 1].real)
    sd = float(-k[0, 0].imag)
    cos_half = np.hypot(ca, cc)
    sin_half = np.hypot(sb, sd)
    beta = float(2 * np.arctan2(sin_half, cos_half))
    if sin_half < 1e-9:
        return float(2 * np.arctan2(cc, ca)), beta, 0.0
    if cos_half < 1e-9:
        return float(2 * np.arctan2(sd, sb)), beta, 0.0
    s = np.arctan2(cc, ca)
    d = np.arctan2(sd, sb)
    return float(s + d), beta, float(s - d)


def _pulse(axis, q1_angle, q2_angle, n):
    peak = max(abs(q1_angle), abs(q2_angle))
    if peak <= 1e-12:
        return []
    duration = peak / (np.pi * n)
    v = [0.0, 0.0, 0.0, 0.0]
    slot1 = 0 if axis == "x" else 1
    slot2 = 2 if axis == "x" else 3
    v[slot1] = (q1_angle / peak) * (n / 2)
    v[slot2] = (q2_angle / peak) * (n / 2)
    return [PulseSegment(duration, ControlAmplitudes(*v))]


def _drift(duration):
    return PulseSegment(duration, ControlAmplitudes(0.0, 0.0, 0.0, 0.0))


def _reference_stages(a, b, n):
    a1, b1, d1 = _reference_euler(a)
    a2, b2, d2 = _reference_euler(b)
    return _pulse("x", d1, d2, n) + _pulse("y", b1, b2, n) + _pulse("x", a1, a2, n)


def _reference_segments(u, coupling_j, n):
    d = _reference_kak(u)
    c1, c2, c3 = d.coords.as_tuple()
    segments = _reference_stages(d.k2.a, d.k2.b, n)
    drift_total = 0.0

    def window(coordinate):
        duration = abs(coordinate) / (np.pi * coupling_j)
        segments.append(_drift(duration))
        return duration

    if abs(c3) > COORD_SKIP:
        if c3 > 0:
            segments += _pulse("x", 0.0, np.pi, n)
            drift_total += window(c3)
            segments += _pulse("x", 0.0, -np.pi, n)
        else:
            drift_total += window(c3)
    if c2 > COORD_SKIP:
        segments += _pulse("x", -np.pi / 2, np.pi / 2, n)
        drift_total += window(c2)
        segments += _pulse("x", np.pi / 2, -np.pi / 2, n)
    if c1 > COORD_SKIP:
        segments += _pulse("y", np.pi / 2, -np.pi / 2, n)
        drift_total += window(c1)
        segments += _pulse("y", -np.pi / 2, np.pi / 2, n)
    segments += _reference_stages(d.k1.a, d.k1.b, n)
    return segments, drift_total


def _haar_gates():
    rng = np.random.default_rng(4242)
    return [haar_unitary(rng) for _ in range(500)]


def _edge_gates():
    rng = np.random.default_rng(4243)
    gates = []
    for i, c1 in enumerate(EDGE_VALUES):
        for j, c2 in enumerate(EDGE_VALUES[: i + 1]):
            for c3 in EDGE_VALUES[: j + 1]:
                gates.append(weyl_gate(rng, c1, c2, c3))
                if c3 > 0:
                    gates.append(weyl_gate(rng, c1, c2, -c3))
    return gates


def _named_gates():
    rng = np.random.default_rng(4244)
    gates = [IDENTITY4, CNOT, SWAP, SQRT_SWAP, SQRT_SWAP.conj(), -1j * SWAP]
    gates += [controlled_u(0, 0, 0.5), controlled_u(np.pi / 2, 0, 0), controlled_u(0.3, -0.4, 1.2)]
    gates += [controlled_u(*g) for g in rng.uniform(-np.pi, np.pi, size=(40, 3))]
    return gates


GATE_SETS = {"haar": _haar_gates, "edge": _edge_gates, "named": _named_gates}


def _assert_same_decomposition(got, want):
    for name in ("k1", "k2"):
        for factor in ("a", "b"):
            diff = max_norm(getattr(getattr(got, name), factor) - getattr(getattr(want, name), factor))
            assert diff <= AGREE, (name, factor, diff)
    assert got.coords.as_tuple() == pytest.approx(want.coords.as_tuple(), abs=AGREE, rel=0)
    assert got.global_phase == pytest.approx(want.global_phase, abs=AGREE, rel=0)


@pytest.mark.parametrize("gates", list(GATE_SETS), ids=list(GATE_SETS))
def test_decomposition_matches_reference(gates):
    inputs = GATE_SETS[gates]()
    assert len(inputs) >= (500 if gates == "haar" else 40)
    for u in inputs:
        _assert_same_decomposition(kak_decompose(u), _reference_kak(u))


@pytest.mark.parametrize("gates", list(GATE_SETS), ids=list(GATE_SETS))
def test_schedule_matches_reference(gates):
    n = 1e4
    for u in GATE_SETS[gates]():
        schedule = synthesize(GateSpec.custom(u), 1.0, n)
        # GateSpec.custom snaps the matrix to the nearest unitary; the
        # reference starts from the same snapped matrix.
        want, drift = _reference_segments(schedule.target.unitary(), 1.0, n)
        assert len(schedule.segments) == len(want)
        for s, w in zip(schedule.segments, want):
            assert s.duration == pytest.approx(w.duration, abs=AGREE, rel=0)
            assert s.amplitudes.as_tuple() == pytest.approx(w.amplitudes.as_tuple(), abs=AGREE, rel=0)
        assert schedule.declared_drift_time == pytest.approx(drift, abs=AGREE, rel=0)


def test_controlled_u_spec_matches_reference():
    # The named cu path feeds controlled_u's matrix straight to the KAK path.
    for gamma in [(0, 0, 0.5), (0.3, -0.4, 1.2), (1.1, 0.2, -0.7)]:
        schedule = synthesize(GateSpec.controlled_u(*gamma), 2.0, 1e3)
        want, _ = _reference_segments(controlled_u(*gamma), 2.0, 1e3)
        got = [(s.duration, *s.amplitudes.as_tuple()) for s in schedule.segments]
        assert np.abs(np.subtract(got, [(w.duration, *w.amplitudes.as_tuple()) for w in want])).max() <= AGREE


# Worst cases over GATE_SETS (py3.11, numpy 2.4.6): 1.6e-15 for the factor
# products and 3.5e-14 for the reconstruction, in every set.
FACTOR_UNITARITY = 1e-14
RECONSTRUCTION = 3e-13


@pytest.mark.parametrize("gates", list(GATE_SETS), ids=list(GATE_SETS))
def test_factors_unitary_to_roundoff(gates):
    # The KAK does not check the products it builds before splitting them;
    # LocalGate's 1e-9 and the 1e-7 reconstruction checks guard them at
    # run time, and this pins how far inside those bounds they stay.
    for u in GATE_SETS[gates]():
        d = kak_decompose(u)
        for k in (d.k1, d.k2):
            product = np.kron(k.a, k.b)
            assert max_norm(product.conj().T @ product - np.eye(4)) <= FACTOR_UNITARITY
        assert max_norm(reconstruct(d) - u) <= RECONSTRUCTION
