"""Minimal implementation time of a two-qubit gate under a fixed ZZ coupling.

The minimal time is

    t* = (c1 + c2 + c3) / (pi J)

in the canonical coordinates pi/2 >= c1 >= c2 >= c3 >= 0.  They are read off
the eigenphases of the symmetric unitary m(U) = U_B^T U_B: its eigenvalues
are exp(2 i theta_k) for the magic-basis phases theta_k of the interaction,
so one 4x4 eigenvalue call gives the coordinates to roundoff, also at the
edges of the chamber.  Each coordinate enters t* as arcsin|sin c|, which
folds the raw values into [0, pi/2].

The paper's route is kept as the reproduction of its formulas and as the
check of the result.  The squared sines sin^2(c_i) are the roots of a monic
cubic whose coefficients are symmetric functions of the invariant triple
(a, b, c):

    x^3 + p x^2 + q x + r = 0,
    p = -(1 + (1 - c)/2),
    q = sqrt(a^2 + b^2) + (1 - c)/2,
    r = -(sqrt(a^2 + b^2) - a)/2.

Shifting X = x + p/3 gives the depressed form X^3 + P X + Q = 0 whose
discriminant P^3/27 + Q^2/4 is never positive for unitary-derived input, so
all roots are real: either the tangent (double-root) case or three distinct
roots obtained trigonometrically (``solve_depressed``).  ``min_time``
requires every sin^2(c_i) it reports to satisfy this cubic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveCoupling, PositiveDiscriminant, ResidualTooLarge
from .invariants import (
    ABCTriple,
    LocalInvariants,
    _coords_from_phases,
    _invariants_of,
    _magic_system,
    _needs_pi_branch,
    abc_from_invariants,
)
from .linalg import _number

DISCRIMINANT_TOL = 1e-9  # above this the input cannot come from a unitary
# The tangent (double-root) case is detected relative to the discriminant's
# natural scale max(|P|^3/27, Q^2/4): an absolute threshold would misroute
# cubics whose roots are merely clustered (small P and Q shrink the
# discriminant without any true double root).
DEGENERATE_REL_TOL = 1e-9
ROOT_RESIDUAL_TOL = 1e-8
ROOT_RANGE_SLACK = 1e-9  # roots may leave [0, 1] by at most this before clamping
ROOT_SNAP = 1e-15  # roots this close to 0 or 1 are exactly 0 or 1
COORD_SNAP = 1e-14  # spectral coordinates below this are exactly 0
_MAX_POLISH_STEP = 1e-3  # refinement must stay local to its own root


@dataclass(frozen=True)
class CubicCoefficients:
    """Monic cubic x^3 + p x^2 + q x + r with roots sin^2(c_i)."""

    p: float
    q: float
    r: float


@dataclass(frozen=True)
class DepressedCubic:
    """Shifted cubic X^3 + P X + Q = 0 with X = x - shift.

    ``t`` = 27 Q / (2 (-3P)^(3/2)) is set exactly when the cubic has three
    distinct roots; it is None on the tangent (double-root) branch.
    """

    monic: CubicCoefficients
    p: float
    q: float
    discriminant: float
    shift: float
    t: float | None = None


@dataclass(frozen=True)
class CubicRoots:
    """Roots of the monic cubic, clamped to [0, 1] and sorted descending."""

    x1: float
    x2: float
    x3: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x1, self.x2, self.x3)


@dataclass(frozen=True)
class CanonicalCoordinates:
    """Canonical (Weyl-chamber) coordinate triple, sorted descending.

    The minimal-time pipeline always produces pi/2 >= c1 >= c2 >= c3 >= 0.
    The KAK module reuses this type and may carry c3 < 0: gates whose
    invariant b = Im G1 is negative have no decomposition with all three
    coordinates nonnegative, and the sign of c3 is exactly what distinguishes
    such a gate from its mirror image.
    """

    c1: float
    c2: float
    c3: float

    _TOL = 1e-9

    def __post_init__(self):
        ok = (
            np.pi / 2 + self._TOL >= self.c1 >= self.c2 >= abs(self.c3) - self._TOL
            and self.c3 >= -np.pi / 2 - self._TOL
        )
        if not ok:
            raise ValueError(f"coordinates outside the canonical region: {self}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.c1, self.c2, self.c3)

    @property
    def total(self) -> float:
        return self.c1 + self.c2 + self.c3


@dataclass(frozen=True)
class MinTimeReport:
    coords: CanonicalCoordinates
    t_star: float
    coupling_j: float
    invariants: LocalInvariants
    abc: ABCTriple


def cubic_coefficients(abc: ABCTriple) -> CubicCoefficients:
    """Symmetric-function coefficients of the cubic in sin^2(c_i)."""
    half = (1 - abc.c) / 2
    s = abc.radius
    return CubicCoefficients(p=-(1 + half), q=s + half, r=-(s - abc.a) / 2)


def depress(coeffs: CubicCoefficients) -> DepressedCubic:
    """Shift the monic cubic into X^3 + P X + Q = 0 and classify it.

    Raises:
        PositiveDiscriminant: if P^3/27 + Q^2/4 > 1e-9, which cannot happen
            for coefficients derived from a unitary.
    """
    p, q, r = coeffs.p, coeffs.q, coeffs.r
    big_p = q - p * p / 3
    big_q = 2 * p**3 / 27 - p * q / 3 + r
    disc = big_p**3 / 27 + big_q**2 / 4
    if disc > DISCRIMINANT_TOL:
        raise PositiveDiscriminant(
            f"P^3/27 + Q^2/4 = {disc:.3e} > {DISCRIMINANT_TOL:.0e}: "
            "input is not in the unitary-derived class"
        )
    scale = max(abs(big_p) ** 3 / 27, big_q * big_q / 4)
    # big_p >= 0 only happens as roundoff around the triple-root corner
    # (P = Q = 0), which belongs to the tangent branch.
    degenerate = big_p >= 0 or abs(disc) <= DEGENERATE_REL_TOL * scale
    t = None if degenerate else float(27 * big_q / (2 * (-3 * big_p) ** 1.5))
    return DepressedCubic(
        monic=coeffs,
        p=float(big_p),
        q=float(big_q),
        discriminant=float(disc),
        shift=-p / 3,
        t=t,
    )


def _monic_value(coeffs: CubicCoefficients, x: float) -> float:
    return ((x + coeffs.p) * x + coeffs.q) * x + coeffs.r


def _polish(coeffs: CubicCoefficients, x: float) -> float:
    # Guarded Newton: the step cap keeps it on its own root, and a step that
    # would grow the residual is not taken.
    for _ in range(3):
        f = _monic_value(coeffs, x)
        slope = (3 * x + 2 * coeffs.p) * x + coeffs.q
        if f == 0.0 or slope == 0.0:
            break
        h = -f / slope
        # `not <=` also stops on a NaN or infinite step.
        if not abs(h) <= _MAX_POLISH_STEP or abs(_monic_value(coeffs, x + h)) > abs(f):
            break
        x += h
    return x


def _refine_close_pair(coeffs: CubicCoefficients, xs: list[float]) -> list[float]:
    # Nearly coincident roots limit the direct formulas to ~sqrt(eps)
    # accuracy, which arcsin further amplifies near the [0, 1] endpoints.
    # When the polished candidates contain a close pair, the pair is
    # recomputed from the well-separated root via Vieta (sum and product of
    # the deflated quadratic, no division), restoring near-full precision.
    pair_gap = 1e-5
    ordered = sorted(xs)
    gap01 = ordered[1] - ordered[0]
    gap12 = ordered[2] - ordered[1]
    if min(gap01, gap12) > pair_gap:
        return xs
    if gap01 <= pair_gap and gap12 <= pair_gap:
        triple = _polish(coeffs, -coeffs.p / 3)
        return [triple, triple, triple]
    isolated = ordered[2] if gap01 <= gap12 else ordered[0]
    center = (-coeffs.p - isolated) / 2
    pair_product = coeffs.q + isolated * (coeffs.p + isolated)
    split_sq = center * center - pair_product
    # The coefficients carry ~1e-16 absolute noise, so below ~1e-14 the
    # squared half-split is unresolved and recomputing the pair would only
    # amplify that noise; the collapsed candidates are already optimal.
    if split_sq <= 1e-14:
        return xs
    offset = np.sqrt(split_sq)
    return [isolated, center + offset, center - offset]


def solve_depressed(dc: DepressedCubic) -> CubicRoots:
    """Real roots of the depressed cubic, mapped back to x = X + shift.

    Tangent branch (dc.t is None): X1 = -2(Q/2)^(1/3), X2 = X3 = (Q/2)^(1/3)
    with the sign-preserving real cube root.  Otherwise the standard
    trigonometric three-real-root solution.  Every root is locally refined
    and validated against the polynomial.

    Raises:
        ResidualTooLarge: if any root leaves [0, 1] by more than 1e-9 or its
            polynomial residual exceeds 1e-8.
    """
    if dc.t is None:
        cr = float(np.cbrt(dc.q / 2))
        big_roots = [-2 * cr, cr, cr]
    else:
        # P < 0 on this branch; depress() already rejected positive
        # discriminants.
        m = 2 * np.sqrt(-dc.p / 3)
        phi = np.arccos(np.clip(-dc.t, -1.0, 1.0))
        big_roots = [m * np.cos((phi + 2 * np.pi * k) / 3) for k in range(3)]

    candidates = [_polish(dc.monic, big_x + dc.shift) for big_x in big_roots]
    candidates = _refine_close_pair(dc.monic, candidates)

    roots = []
    for x in candidates:
        if not -ROOT_RANGE_SLACK <= x <= 1 + ROOT_RANGE_SLACK:  # NaN fails too
            raise ResidualTooLarge(f"root {x!r} leaves [0, 1] beyond slack")
        residual = abs(_monic_value(dc.monic, x))
        if not residual <= ROOT_RESIDUAL_TOL:
            raise ResidualTooLarge(
                f"root {x!r} has residual {residual:.3e} > {ROOT_RESIDUAL_TOL:.0e}"
            )
        x = min(max(x, 0.0), 1.0)
        # arcsin(sqrt(x)) amplifies absolute root error near the endpoints, so
        # values within one part in 1e15 of 0 or 1 are taken exactly.
        if x < ROOT_SNAP:
            x = 0.0
        elif 1.0 - x < ROOT_SNAP:
            x = 1.0
        roots.append(x)
    roots.sort(reverse=True)
    return CubicRoots(*roots)


def coords_from_abc(abc: ABCTriple) -> CanonicalCoordinates:
    """Run the cubic pipeline on an invariant triple (the paper's route).

    It loses accuracy next to double roots, which is why ``min_time`` reads
    the eigenphases: of ``bench/gen.boundary_gates(7, 4000)`` it fails 6
    (``ResidualTooLarge``), misses 395 by > 1e-6 rad, the worst by 9.9e-4.
    """
    roots = solve_depressed(depress(cubic_coefficients(abc)))
    c = sorted((float(np.arcsin(np.sqrt(x))) for x in roots.as_tuple()), reverse=True)
    return CanonicalCoordinates(*c)


def _spectral_coords(m, det) -> CanonicalCoordinates:
    """Minimal-time coordinates from the eigenphases of m(U)."""
    theta = (np.angle(np.linalg.eigvals(m)) / 2).tolist()
    if _needs_pi_branch(theta, det):
        theta[0] += math.pi
    # t* depends on each coordinate through arcsin|sin c| in [0, pi/2].
    folded = (
        abs((c + math.pi / 2) % math.pi - math.pi / 2) for c in _coords_from_phases(theta)
    )
    c = sorted((0.0 if x < COORD_SNAP else x for x in folded), reverse=True)
    return CanonicalCoordinates(*c)


def _check_against_cubic(coords: CanonicalCoordinates, abc: ABCTriple) -> None:
    """Require the sin^2(c_i) to be the three roots of the paper's cubic.

    Each must make the cubic vanish, and together they must reproduce its
    coefficients (e1 = -p, e2 = q, e3 = -r).  The second test sees errors
    the first cannot: next to a double root the cubic's value grows only
    quadratically, so a coordinate 1e-3 rad off at CNOT leaves a residual
    of 1e-12 but moves e1 by 1e-6.

    Raises:
        PositiveDiscriminant: if the triple cannot come from a unitary.
        ResidualTooLarge: if either test misses by more than 1e-8.
    """
    coeffs = cubic_coefficients(abc)
    depress(coeffs)
    xs = [math.sin(c) ** 2 for c in coords.as_tuple()]
    for c, x in zip(coords.as_tuple(), xs):
        residual = abs(_monic_value(coeffs, x))
        if residual > ROOT_RESIDUAL_TOL:
            raise ResidualTooLarge(
                f"sin^2 of coordinate {c!r} has cubic residual "
                f"{residual:.3e} > {ROOT_RESIDUAL_TOL:.0e}"
            )
    x1, x2, x3 = xs
    mismatch = max(
        abs(x1 + x2 + x3 + coeffs.p),
        abs(x1 * x2 + x1 * x3 + x2 * x3 - coeffs.q),
        abs(x1 * x2 * x3 + coeffs.r),
    )
    if mismatch > ROOT_RESIDUAL_TOL:
        raise ResidualTooLarge(
            f"sin^2 of the coordinates miss the cubic's symmetric functions "
            f"by {mismatch:.3e} > {ROOT_RESIDUAL_TOL:.0e}"
        )


def _analyze(u) -> tuple[CanonicalCoordinates, LocalInvariants, ABCTriple]:
    _, m, det = _magic_system(u)
    inv = _invariants_of(m, det)
    abc = abc_from_invariants(inv)
    coords = _spectral_coords(m, det)
    _check_against_cubic(coords, abc)
    return coords, inv, abc


def require_coupling(coupling_j: float) -> float:
    """J as a float, read by ``_number``'s rule (ValueError for a bool, None
    or str); ``NonPositiveCoupling`` unless it is finite and positive."""
    j = _number("coupling J", coupling_j, ValueError)
    if not (math.isfinite(j) and j > 0):
        raise NonPositiveCoupling(f"coupling J must be finite and positive, got {coupling_j}")
    return j


def canonical_coords(u) -> CanonicalCoordinates:
    """Canonical coordinates of a two-qubit unitary (within 1e-10: see ``unitary4``,
    ``GateSpec.custom``), from the eigenphases of m(U), checked against the cubic."""
    return _analyze(u)[0]


def min_time(u, coupling_j: float) -> MinTimeReport:
    """Minimal time t* = (c1 + c2 + c3)/(pi J) to realize ``u``.

    ``u`` must be unitary within 1e-10 (``NonUnitary`` otherwise); pass a
    rounded or measured matrix through ``GateSpec.custom(u).unitary()``.

    Raises:
        NonPositiveCoupling: if coupling_j is not finite and positive.
        ValueError: if coupling_j is not a number (a bool, None or str), or
            pi * coupling_j or t* is not finite (J past the doubles' range).
        NonRealG2, PositiveDiscriminant, ResidualTooLarge: if the invariants
            are not those of a unitary or the coordinates miss the cubic.
    """
    coupling_j = require_coupling(coupling_j)  # a float: a numpy J would carry its own precision
    coords, inv, abc = _analyze(u)
    t_star = coords.total / (rate := np.pi * coupling_j)
    if not (math.isfinite(rate) and math.isfinite(t_star)):
        raise ValueError(f"coupling J = {coupling_j} gives a pi*J or t* that is not finite")
    return MinTimeReport(
        coords=coords,
        t_star=float(t_star),
        coupling_j=float(coupling_j),
        invariants=inv,
        abc=abc,
    )
