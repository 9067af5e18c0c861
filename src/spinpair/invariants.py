"""Local invariants of two-qubit gates via the magic-basis transform.

Two unitaries U, V in U(4) are locally equivalent (U = k1 V k2 with k1, k2
single-qubit products) iff they share the pair of invariants

    G1 = tr^2[m(U)] / (16 det U),    G2 = (tr^2[m(U)] - tr[m^2(U)]) / (4 det U),

with m(U) = U_B^T U_B and U_B the gate rewritten in the magic (Bell-like)
basis.  G2 is real for unitary input; G1 = a + i b and G2 = c give the real
triple (a, b, c) that the minimal-time pipeline consumes.  Dividing by det U
makes the formulas directly applicable to U(4) input, so no SU(4)
pre-normalization (with its quartic-root branch ambiguity) is performed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonRealG2
from .linalg import unitary4

# Magic-basis change: columns are Bell-like states; local gates become real
# orthogonal matrices in this basis.
MAGIC = np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
) / np.sqrt(2)

MAGIC_DAG = MAGIC.conj().T

G2_IMAG_TOL = 1e-8


@dataclass(frozen=True)
class LocalInvariants:
    """The invariant pair (G1, G2); G2 is real up to roundoff."""

    g1: complex
    g2: complex


@dataclass(frozen=True)
class ABCTriple:
    """Real decomposition a = Re G1, b = Im G1, c = Re G2.

    Ranges implied by the closed forms below: |a| <= 1, |b| <= 1/4, |c| <= 3,
    and sqrt(a^2 + b^2) <= 1.
    """

    a: float
    b: float
    c: float

    _SLACK = 1e-6

    def __post_init__(self):
        if not (  # NaN fails too
            abs(self.a) <= 1 + self._SLACK
            and abs(self.b) <= 0.25 + self._SLACK
            and abs(self.c) <= 3 + self._SLACK
            and math.hypot(self.a, self.b) <= 1 + self._SLACK
        ):
            raise ValueError(f"invariant triple out of range: {self}")

    @property
    def radius(self) -> float:
        """sqrt(a^2 + b^2), the modulus of G1."""
        return float(np.hypot(self.a, self.b))


def magic_transform(u) -> np.ndarray:
    """Rewrite a two-qubit unitary in the magic basis: U_B = O† U O.

    ``u`` must be unitary within 1e-10 (``NonUnitary`` otherwise); pass a
    rounded or measured matrix through ``GateSpec.custom(u).unitary()``.
    """
    u = unitary4(u)
    return MAGIC_DAG @ u @ MAGIC


def _magic_system(u):
    """Validate ``u`` once; return U_B, m(U) = U_B^T U_B and det U_B."""
    ub = magic_transform(u)
    # det(U_B) equals det(U); computing it from the rotated matrix avoids an
    # extra matrix product.
    return ub, ub.T @ ub, np.linalg.det(ub)


def _needs_pi_branch(theta, det) -> bool:
    """Each theta_k is fixed only mod pi by its eigenvalue exp(2 i theta_k) of
    m(U); U_B = L diag(exp(i theta)) P^T with L, P in SO(4) also needs
    sum(theta) = arg det U_B mod 2 pi.  True when theta_0 must move by pi."""
    return math.cos(sum(theta) - cmath.phase(det)) < 0


def _invariants_of(m, det) -> LocalInvariants:
    """(G1, G2) from m(U) and det U."""
    tr = m.trace()
    tr2 = tr * tr
    g1 = tr2 / (16 * det)
    g2 = (tr2 - (m @ m).trace()) / (4 * det)
    # adding 0.0 turns -0.0 components into +0.0
    return LocalInvariants(
        g1=complex(g1.real + 0.0, g1.imag + 0.0),
        g2=complex(g2.real + 0.0, g2.imag + 0.0),
    )


def local_invariants(u) -> LocalInvariants:
    """(G1, G2) of a two-qubit unitary, within 1e-10 (see ``magic_transform``)."""
    return _invariants_of(*_magic_system(u)[1:])


def _magic_phases(c1, c2, c3):
    # Diagonal phases of exp(i/2 (c1 XX + c2 YY + c3 ZZ)) in magic-basis
    # position order.
    return np.array(
        [
            (c1 - c2 + c3) / 2,
            (c1 + c2 - c3) / 2,
            -(c1 + c2 + c3) / 2,
            (-c1 + c2 + c3) / 2,
        ]
    )


def _coords_from_phases(theta):
    # Inverse of _magic_phases up to the global phase sum(theta) / 4.
    t0, t1, t2, t3 = theta
    c1 = float((t0 + t1 - t2 - t3) / 2)
    c2 = float((-t0 + t1 - t2 + t3) / 2)
    c3 = float((t0 - t1 - t2 + t3) / 2)
    return [c1, c2, c3]


def abc_from_invariants(inv: LocalInvariants) -> ABCTriple:
    """Split (G1, G2) into the real triple (a, b, c).

    Raises:
        NonRealG2: if |Im G2| exceeds 1e-8, which no unitary input produces.
    """
    if abs(inv.g2.imag) > G2_IMAG_TOL:
        raise NonRealG2(f"|Im G2| = {abs(inv.g2.imag):.3e} exceeds {G2_IMAG_TOL:.0e}")
    return ABCTriple(a=inv.g1.real, b=inv.g1.imag, c=inv.g2.real)


def abc_from_coords(c1: float, c2: float, c3: float) -> ABCTriple:
    """Closed-form (a, b, c) for the gate exp(i/2 (c1 XX + c2 YY + c3 ZZ)).

    This is the forward oracle for every inverse-pipeline test: it never
    touches matrices, so it is independent of the matrix route.
    """
    cos2 = np.cos([c1, c2, c3]) ** 2
    sin2 = np.sin([c1, c2, c3]) ** 2
    prod_cos2 = float(np.prod(cos2))
    prod_sin2 = float(np.prod(sin2))
    a = prod_cos2 - prod_sin2
    b = float(np.prod(np.sin([2 * c1, 2 * c2, 2 * c3]))) / 4
    c = (
        4 * prod_cos2
        - 4 * prod_sin2
        - float(np.prod(np.cos([2 * c1, 2 * c2, 2 * c3])))
    )
    return ABCTriple(a=a, b=b, c=c)
