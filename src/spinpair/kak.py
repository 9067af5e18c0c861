"""Cartan (KAK) decomposition of two-qubit gates.

Any U in U(4) factors as

    U = e^{i phi} (A1 (x) B1) exp(i/2 (c1 XX + c2 YY + c3 ZZ)) (A2 (x) B2)

with single-qubit factors in SU(2).  The recovery works in the magic basis,
where the symmetric unitary m(U) = U_B^T U_B admits a real orthogonal
eigenbasis: writing U_B = L D P^T with L, P in SO(4) and D diagonal, the
phases of D yield the interaction coordinates and O L O†, O P^T O† are the
local factors.  A final sequence of shift/negate/swap moves places the
coordinates in the canonical region pi/2 >= c1 >= c2 >= |c3|, absorbing the
fixups into the local factors.

c3 carries a sign: gates whose invariant b = Im G1 is negative are not locally
equivalent to their mirror image and have no all-nonnegative coordinate
vector; for them c3 < 0 and |c3| still equals the third minimal-time
coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, NotLocal, ReconstructionFailed
from .invariants import (
    MAGIC,
    MAGIC_DAG,
    _coords_from_phases,
    _magic_phases,
    _magic_system,
    _needs_pi_branch,
)
from .linalg import kron, max_norm, unitary4
from .mintime import COORD_SNAP, CanonicalCoordinates

RECONSTRUCTION_TOL = 1e-7
LOCAL_RANK_TOL = 1e-8
LOCAL_GATE_TOL = 1e-9


def _require_su2(m: np.ndarray, label: str) -> None:
    """ValueError unless the 2x2 array ``m`` is in SU(2) within 1e-9."""
    if m.shape != (2, 2):
        raise ValueError(f"{label} must be 2x2")
    # Closed forms of ||m†m - I||_max and det m on the four entries.
    (p, q), (r, t) = m.tolist()
    off = p.conjugate() * q + r.conjugate() * t
    gram = (abs(p) ** 2 + abs(r) ** 2 - 1, abs(q) ** 2 + abs(t) ** 2 - 1, off)
    if not all(abs(x) <= LOCAL_GATE_TOL for x in gram):  # NaN fails too
        raise ValueError(f"{label} is not unitary within tolerance")
    if not abs(p * t - q * r - 1) <= LOCAL_GATE_TOL:
        raise ValueError(f"{label} is not det-1 within tolerance")


@dataclass(frozen=True, eq=False)
class LocalGate:
    """A product gate a (x) b with both factors det-normalized to SU(2)."""

    a: np.ndarray
    b: np.ndarray
    phase: float = 0.0

    def __post_init__(self):
        _require_su2(self.a, "factor a")
        _require_su2(self.b, "factor b")

    def unitary(self) -> np.ndarray:
        return np.exp(1j * self.phase) * kron(self.a, self.b)


@dataclass(frozen=True, eq=False)
class KakDecomposition:
    k1: LocalGate
    coords: CanonicalCoordinates
    k2: LocalGate
    global_phase: float


def interaction_unitary(c1: float, c2: float, c3: float) -> np.ndarray:
    """exp(i/2 (c1 XX + c2 YY + c3 ZZ)), evaluated exactly.

    XX, YY and ZZ are simultaneously diagonal in the magic basis, so the
    exponential is a phase diagonal conjugated back by the basis change.
    """
    phases = _magic_phases(c1, c2, c3)
    return (MAGIC * np.exp(1j * phases)) @ MAGIC_DAG


def factor_local(k) -> LocalGate:
    """Split k = e^{i phi} (A (x) B) into its single-qubit factors.

    The reshuffled matrix M[2i+j, 2k+l] = k[2i+k, 2j+l] is rank one exactly
    when k is a tensor product; its top singular pair yields A and B.  A is
    normalized to det 1 with the phase pushed into phi, and the sign is fixed
    so that A's first nonzero entry (row-major) has nonnegative real part.

    Raises:
        NotLocal: if the second singular value of the reshuffle exceeds
            1e-8 (the gate is entangling).
    """
    a, b, phase = _factor_locals(k)
    return LocalGate(a=a, b=b, phase=float(phase))


def _factor_locals(k):
    """``factor_local`` over a stack (..., 4, 4): one unitarity check and one
    SVD for all matrices.  Returns the stacks a, b (..., 2, 2) and phase (...)."""
    k = unitary4(k, tol=1e-8)
    lead = k.shape[:-2]
    k = k.reshape(-1, 4, 4)
    n = len(k)
    m = k.reshape(n, 2, 2, 2, 2).swapaxes(2, 3).reshape(n, 4, 4)
    u, s, vh = np.linalg.svd(m)
    for s1 in s[:, 1].tolist():
        if s1 > LOCAL_RANK_TOL:
            raise NotLocal(
                f"second singular value of the reshuffle is {s1:.3e} > {LOCAL_RANK_TOL:.0e}"
            )
    scale = np.sqrt(s[:, :1])
    a = (u[:, :, 0] * scale).reshape(n, 2, 2)
    b = (vh[:, 0, :] * scale).reshape(n, 2, 2)
    det = np.linalg.det(np.concatenate([a, b]))
    a /= np.sqrt(det[:n])[:, None, None]
    b /= np.sqrt(det[n:])[:, None, None]

    # Deterministic sign: first entry of A with non-tiny magnitude gets a
    # nonnegative real part (positive imaginary part breaks the tie).
    for i, row in enumerate(a.reshape(n, 4).tolist()):
        entry = next((x for x in row if abs(x) > 1e-12), 0j)
        if entry.real < -1e-12 or (abs(entry.real) <= 1e-12 and entry.imag < 0):
            a[i] = -a[i]
            b[i] = -b[i]

    product = kron(a, b).reshape(n, 16)
    rows = np.arange(n)
    ref = np.abs(product).argmax(axis=1)
    phase = np.angle(k.reshape(n, 16)[rows, ref] / product[rows, ref])
    return a.reshape(lead + (2, 2)), b.reshape(lead + (2, 2)), phase.reshape(lead)


def _real_orthogonal_eigenbasis(m):
    """Real orthogonal P and unit-circle eigenvalues mu with m = P diag(mu) P^T.

    m must be symmetric unitary.  Its real and imaginary parts are commuting
    real symmetric matrices; eigenspaces of the real part that merge several
    eigenvalues of m are split by diagonalizing the projected imaginary part
    inside each cluster.
    """
    mr = (m.real + m.real.T) / 2
    mi = (m.imag + m.imag.T) / 2
    w, p0 = np.linalg.eigh(mr)
    best = None
    for cluster_tol in (1e-9, 1e-7, 1e-5):
        p = p0.copy()
        start = 0
        for i in range(1, 5):
            if i == 4 or w[i] - w[i - 1] > cluster_tol:
                if i - start > 1:
                    block = p[:, start:i]
                    sub = block.T @ mi @ block
                    _, rot = np.linalg.eigh((sub + sub.T) / 2)
                    p[:, start:i] = block @ rot
                start = i
        # Row j of q is p_j^T m; m is symmetric, so q = diag(mu) p^T exactly
        # when p is an eigenbasis.
        q = p.T @ m
        mu = np.diagonal(q @ p)
        residual = max_norm(q - mu[:, None] * p.T)
        if best is None or residual < best[0]:
            best = (residual, p, mu)
        if residual <= 1e-10:
            break
    residual, p, mu = best
    if residual > 1e-7:
        raise DegenerateSpectrum(
            f"could not build a real eigenbasis: residual {residual:.3e}"
        )
    return p, mu


# Single-qubit fixups used by the canonicalization moves.  flipper[k] is the
# det-1 pi rotation i*sigma_k; swapper[k] exchanges the two axes other than k
# under simultaneous conjugation on both qubits.
_FLIPPERS = (
    1j * np.array([[0, 1], [1, 0]], dtype=complex),
    1j * np.array([[0, -1j], [1j, 0]], dtype=complex),
    1j * np.array([[1, 0], [0, -1]], dtype=complex),
)
_SWAPPERS = (
    1j * np.sqrt(0.5) * np.array([[1, -1j], [1j, -1]], dtype=complex),
    1j * np.sqrt(0.5) * np.array([[1, 1], [1, -1]], dtype=complex),
    1j * np.sqrt(0.5) * np.array([[0, 1 - 1j], [1 + 1j, 0]], dtype=complex),
)


def _canonicalize(c):
    """Move a raw coordinate vector into the canonical region.

    Returns (coords, phase, left pair, right pair) such that

        C(c) = phase * (l1 (x) l2) C(coords) (r1 (x) r2)

    with pi/2 >= coords[0] >= coords[1] >= |coords[2]|, and coords[2] >= 0
    whenever coords[0] is within 1e-14 (roundoff) of the pi/2 boundary.
    """
    v = list(c)
    phase = [1.0 + 0j]
    left = [np.eye(2, dtype=complex), np.eye(2, dtype=complex)]
    right = [np.eye(2, dtype=complex), np.eye(2, dtype=complex)]

    def shift(k, step):
        v[k] += step * np.pi
        phase[0] *= 1j**step
        f = _FLIPPERS[k] if step > 0 else -_FLIPPERS[k]  # flipper^-1 = -flipper
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

    # Mirror classes coincide at the c1 = pi/2 boundary; prefer c3 >= 0 there.
    # The move maps c1 = pi/2 - d to pi/2 + d, so it is taken only where d is
    # roundoff: any wider band would push c1 out of the chamber and lengthen
    # the drift c1 + c2 + |c3| by 2d.
    if v[0] > np.pi / 2 - 1e-14 and v[2] < 0:
        shift(0, -1)
        negate(0, 2)

    coords = [0.0 if abs(x) < COORD_SNAP else float(x) for x in v]
    return coords, phase[0], left, right


def kak_decompose(u) -> KakDecomposition:
    """Full Cartan decomposition with canonicalized interaction coordinates.

    ``u`` must be unitary within 1e-10 (``NonUnitary`` otherwise); pass a
    rounded or measured matrix through ``GateSpec.custom(u).unitary()``.

    Raises:
        ReconstructionFailed: if the assembled decomposition misses the input
            by more than 1e-7 in max-norm (never observed for unitary input).
    """
    ub, m, det = _magic_system(u)
    p, mu = _real_orthogonal_eigenbasis(m)

    theta = np.angle(mu) / 2
    if np.linalg.det(p) < 0:
        p[:, 0] = -p[:, 0]
    # Built from the unfixed theta; with det P = 1, det L = det U_B e^{-i sum(theta)}.
    ell = ub @ p @ np.diag(np.exp(-1j * theta))
    if _needs_pi_branch(theta, det):
        theta[0] += np.pi
        ell[:, 0] = -ell[:, 0]
    if max_norm(ell.imag) > 1e-6:
        raise DegenerateSpectrum(
            f"left factor is not real: ||Im L|| = {max_norm(ell.imag):.3e}"
        )
    ell = ell.real.astype(float)

    w = float(np.sum(theta) / 4)
    c_raw = _coords_from_phases(theta)
    coords, move_phase, left, right = _canonicalize(c_raw)

    k1_full = (MAGIC @ ell @ MAGIC_DAG) @ kron(left[0], left[1])
    k2_full = kron(right[0], right[1]) @ (MAGIC @ p.T @ MAGIC_DAG)
    a, b, phase = _factor_locals(np.stack([k1_full, k2_full]))
    phase1, phase2 = phase.tolist()

    global_phase = float(w + np.angle(move_phase) + phase1 + phase2)
    decomposition = KakDecomposition(
        k1=LocalGate(a=a[0], b=b[0]),
        coords=CanonicalCoordinates(*coords),
        k2=LocalGate(a=a[1], b=b[1]),
        global_phase=global_phase,
    )
    residual = max_norm(reconstruct(decomposition) - u)
    if residual > RECONSTRUCTION_TOL:
        raise ReconstructionFailed(
            f"reconstruction residual {residual:.3e} > {RECONSTRUCTION_TOL:.0e}"
        )
    return decomposition


def reconstruct(d: KakDecomposition) -> np.ndarray:
    """Multiply a decomposition back out into a 4x4 unitary."""
    phase = np.exp(1j * (d.global_phase + d.k1.phase + d.k2.phase))
    center = interaction_unitary(*d.coords.as_tuple())
    return phase * kron(d.k1.a, d.k1.b) @ center @ kron(d.k2.a, d.k2.b)
