import contextlib
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpair.errors import (
    NonPositiveCoupling,
    NonUnitary,
    PositiveDiscriminant,
    ResidualTooLarge,
    SpinPairError,
)
from spinpair.gates import CNOT, IDENTITY4, SQRT_SWAP, SWAP, controlled_u
from spinpair.invariants import ABCTriple, abc_from_coords, abc_from_invariants, local_invariants
from spinpair.kak import interaction_unitary
from spinpair.schedule import GateSpec, input_tolerance, tol_scale
from spinpair import mintime
from spinpair.mintime import (
    CanonicalCoordinates,
    CubicCoefficients,
    DepressedCubic,
    canonical_coords,
    coords_from_abc,
    cubic_coefficients,
    depress,
    min_time,
    solve_depressed,
)

from conftest import EDGE_VALUES, bench_module, haar_unitary, random_local, weyl_gate


class TestCubicCoefficients:
    @pytest.mark.parametrize(
        "abc,want",
        [
            ((0, 0, 1), (-1, 0, 0)),  # CNOT
            ((-1, 0, -3), (-3, 3, -1)),  # SWAP; cubic factors as (x-1)^3
            ((1, 0, 3), (0, 0, 0)),  # identity
        ],
    )
    def test_golden(self, abc, want):
        got = cubic_coefficients(ABCTriple(*abc))
        assert (got.p, got.q, got.r) == pytest.approx(want, abs=1e-14)


class TestDepress:
    def test_cnot(self):
        dc = depress(CubicCoefficients(-1, 0, 0))
        assert dc.p == pytest.approx(-1 / 3, abs=1e-15)
        assert dc.q == pytest.approx(-2 / 27, abs=1e-15)
        assert abs(dc.discriminant) < 1e-15

    def test_swap(self):
        dc = depress(CubicCoefficients(-3, 3, -1))
        assert dc.p == pytest.approx(0, abs=1e-14)
        assert dc.q == pytest.approx(0, abs=1e-14)

    @pytest.mark.parametrize("gamma", [np.pi / 2, np.pi / 3])
    def test_controlled_u_form(self, gamma):
        # P = -sin^4(g)/3, Q = -2 sin^6(g)/27
        abc = ABCTriple(np.cos(gamma) ** 2, 0.0, 2 * np.cos(gamma) ** 2 + 1)
        dc = depress(cubic_coefficients(abc))
        assert dc.p == pytest.approx(-np.sin(gamma) ** 4 / 3, abs=1e-14)
        assert dc.q == pytest.approx(-2 * np.sin(gamma) ** 6 / 27, abs=1e-14)
        assert abs(dc.discriminant) < 1e-15

    def test_rejects_positive_discriminant(self):
        # a = 1, c = -3 is not realizable by any unitary: disc = 1/4
        with pytest.raises(PositiveDiscriminant):
            depress(CubicCoefficients(-3, 3, 0))

    def test_theta_set_on_generic_branch(self):
        abc = abc_from_coords(1.2, 0.7, 0.3)
        dc = depress(cubic_coefficients(abc))
        assert dc.discriminant < -1e-12
        assert dc.t is not None and -1 < dc.t < 1


class TestSolveDepressed:
    def test_cnot_roots(self):
        dc = depress(CubicCoefficients(-1, 0, 0))
        roots = solve_depressed(dc)
        big = sorted((x - dc.shift for x in roots.as_tuple()), reverse=True)
        assert big == pytest.approx([2 / 3, -1 / 3, -1 / 3], abs=1e-12)

    def test_swap_roots(self):
        dc = depress(CubicCoefficients(-3, 3, -1))
        roots = solve_depressed(dc)
        big = [x - dc.shift for x in roots.as_tuple()]
        assert big == pytest.approx([0, 0, 0], abs=1e-12)
        assert roots.as_tuple() == pytest.approx([1, 1, 1], abs=1e-12)

    def test_recovers_sampled_sines(self, rng):
        for _ in range(200):
            c = np.sort(rng.uniform(0, np.pi / 2, size=3))[::-1]
            roots = solve_depressed(depress(cubic_coefficients(abc_from_coords(*c))))
            want = np.sort(np.sin(c) ** 2)[::-1]
            assert np.abs(np.array(roots.as_tuple()) - want).max() < 1e-8

    def test_symmetric_functions(self, rng):
        for _ in range(100):
            c = rng.uniform(0, np.pi / 2, size=3)
            abc = abc_from_coords(*c)
            x1, x2, x3 = solve_depressed(
                depress(cubic_coefficients(abc))
            ).as_tuple()
            s = abc.radius
            assert x1 + x2 + x3 == pytest.approx(1 + (1 - abc.c) / 2, abs=1e-8)
            assert x1 * x2 + x1 * x3 + x2 * x3 == pytest.approx(
                s + (1 - abc.c) / 2, abs=1e-8
            )
            assert x1 * x2 * x3 == pytest.approx((s - abc.a) / 2, abs=1e-8)


class TestSolveDepressedRejects:
    """Every root is range- and residual-validated."""

    def test_root_outside_unit_interval(self):
        # roots 1.5, 0.5, 0.2: a valid cubic whose largest root is no sin^2
        e1, e2, e3 = 2.2, 1.5 * 0.5 + 1.5 * 0.2 + 0.5 * 0.2, 1.5 * 0.5 * 0.2
        with pytest.raises(ResidualTooLarge, match="leaves"):
            solve_depressed(depress(CubicCoefficients(-e1, e2, -e3)))

    def test_root_off_the_cubic(self):
        # Depressed data of the roots (0.8, 0.5, 0.2) checked against the
        # cubic with roots (0.75, 0.5, 0.25): the polish step cap (1e-3)
        # keeps every root 0.05 away, with a residual near 1e-2.
        dc = depress(CubicCoefficients(-1.5, 0.66, -0.08))
        other = CubicCoefficients(-1.5, 0.6875, -0.09375)
        with pytest.raises(ResidualTooLarge, match="residual"):
            solve_depressed(dataclasses.replace(dc, monic=other))

    def test_nan_cubic(self):
        nan = float("nan")
        dc = DepressedCubic(CubicCoefficients(nan, nan, nan), nan, nan, nan, nan, t=nan)
        with pytest.raises(ResidualTooLarge, match="leaves"):
            solve_depressed(dc)


class TestCanonicalCoords:
    @pytest.mark.parametrize(
        "gate,want",
        [
            (CNOT, (np.pi / 2, 0, 0)),
            (SWAP, (np.pi / 2, np.pi / 2, np.pi / 2)),
            (SQRT_SWAP, (np.pi / 4, np.pi / 4, np.pi / 4)),
            (IDENTITY4, (0, 0, 0)),
        ],
        ids=["cnot", "swap", "sqrtswap", "identity"],
    )
    def test_golden(self, gate, want):
        coords = canonical_coords(gate)
        assert coords.as_tuple() == pytest.approx(want, abs=1e-12)

    def test_rejects_unsorted_coordinates(self):
        with pytest.raises(ValueError, match="outside the canonical region"):
            CanonicalCoordinates(0.1, 0.2, 0.0)

    def test_ordering_and_range(self, rng):
        for _ in range(100):
            c = canonical_coords(haar_unitary(rng))
            assert np.pi / 2 + 1e-12 >= c.c1 >= c.c2 >= c.c3 >= 0

    def test_round_trip_through_invariants(self, rng):
        from spinpair.invariants import abc_from_invariants, local_invariants

        for _ in range(50):
            u = haar_unitary(rng)
            coords = canonical_coords(u)
            via_coords = abc_from_coords(*coords.as_tuple())
            via_matrix = abc_from_invariants(local_invariants(u))
            # b may differ in sign for mirror-class gates; a, c and |b| agree
            assert via_coords.a == pytest.approx(via_matrix.a, abs=1e-7)
            assert abs(via_coords.b) == pytest.approx(abs(via_matrix.b), abs=1e-7)
            assert via_coords.c == pytest.approx(via_matrix.c, abs=1e-7)


class TestMinTime:
    @pytest.mark.parametrize("j", [1.0, 2.5])
    @pytest.mark.parametrize(
        "gate,factor",
        [(CNOT, 0.5), (SWAP, 1.5), (SQRT_SWAP, 0.75)],
        ids=["cnot", "swap", "sqrtswap"],
    )
    def test_golden(self, gate, factor, j):
        report = min_time(gate, j)
        assert report.t_star == pytest.approx(factor / j, rel=1e-10)

    @pytest.mark.parametrize("gamma", [np.pi / 6, np.pi / 4, np.pi / 3])
    @pytest.mark.parametrize("j", [1.0, 2.5])
    def test_controlled_u(self, gamma, j):
        report = min_time(controlled_u(gamma, 0, 0), j)
        want = np.arcsin(abs(np.sin(gamma))) / (np.pi * j)
        assert report.t_star == pytest.approx(want, rel=1e-10)

    def test_report_consistency(self):
        report = min_time(SWAP, 2.0)
        assert report.t_star == report.coords.total / (np.pi * 2.0)
        assert report.coupling_j == 2.0

    def test_rejects_bad_coupling(self):
        with pytest.raises(NonPositiveCoupling):
            min_time(CNOT, 0.0)

    @pytest.mark.parametrize("j", [None, "1", True], ids=repr)
    def test_rejects_a_coupling_that_is_not_a_number(self, j):
        message = f"coupling J must be a number, got {j!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as excinfo:
            min_time(CNOT, j)
        assert excinfo.type is ValueError

    @pytest.mark.parametrize("j", [1e-320, 5e-324, 1e308, 1.7e308], ids=str)
    def test_rejects_coupling_whose_time_overflows(self, j):
        # 1e-320: t* = (pi/2) / (pi J) is inf.  1e308: pi J is inf and t* 0.0.
        message = f"coupling J = {j!r} gives a pi*J or t* that is not finite"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            min_time(CNOT, j)

    @pytest.mark.parametrize("j, t_star", [(5e307, 1e-308), (1e-300, 5e299)])
    def test_finite_time_keeps_its_bits(self, j, t_star):
        assert min_time(CNOT, j).t_star == (np.pi / 2) / (np.pi * j) == t_star
        assert min_time(IDENTITY4, 1e-320).t_star == 0.0

    def test_numpy_coupling_is_read_as_a_float(self):
        # float32 arithmetic would give t* = 0.1666666716337204.
        report = min_time(CNOT, np.float32(3.0))
        assert report.t_star == 1 / 6
        assert type(report.coupling_j) is float

    @pytest.mark.parametrize("j", [3, np.int64(3), np.float64(3.0), np.float64(2.5)], ids=repr)
    def test_coupling_types_keep_their_bits(self, j):
        assert min_time(SWAP, j).t_star == min_time(SWAP, float(j)).t_star

    @pytest.mark.filterwarnings("error")  # no numpy overflow warning before the error
    @pytest.mark.parametrize("j", [np.float64(1e-320), np.float64(1e308)], ids=repr)
    def test_numpy_coupling_whose_time_overflows(self, j):
        message = f"coupling J = {float(j)!r} gives a pi*J or t* that is not finite"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            min_time(CNOT, j)

    @pytest.mark.filterwarnings("error")  # no numpy overflow warning beside the error
    def test_rejects_huge_finite_input(self):
        with pytest.raises(NonUnitary, match="= inf exceeds tolerance"):
            min_time(np.eye(4) * 1e200, 1.0)

    def test_monotone_bound(self, rng):
        for _ in range(200):
            t = min_time(haar_unitary(rng), 1.0).t_star
            assert 0 <= t <= 1.5 + 1e-9

    def test_dressing_invariance(self, rng):
        for _ in range(20):
            c = np.sort(rng.uniform(0, np.pi / 2, size=3))[::-1]
            u = random_local(rng) @ interaction_unitary(*c) @ random_local(rng)
            report = min_time(u, 1.0)
            assert report.t_star == pytest.approx(np.sum(c) / np.pi, abs=1e-8)


class TestEdgeInputs:
    def test_coords_from_abc_accepts_boundary(self):
        coords = coords_from_abc(ABCTriple(1.0, 0.0, 3.0))
        assert coords.as_tuple() == pytest.approx((0, 0, 0), abs=1e-12)

    def test_discriminant_never_positive(self, rng):
        from spinpair.invariants import abc_from_invariants, local_invariants

        for _ in range(300):
            abc = abc_from_invariants(local_invariants(haar_unitary(rng)))
            dc = depress(cubic_coefficients(abc))
            assert dc.discriminant <= 1e-9


class TestCubicCheck:
    """The paper's cubic checks the spectral coordinates."""

    def test_accepts_the_roots(self):
        c = (1.2, 0.7, 0.3)
        mintime._check_against_cubic(CanonicalCoordinates(*c), abc_from_coords(*c))

    def test_rejects_a_coordinate_off_the_cubic(self):
        abc = abc_from_coords(1.2, 0.7, 0.3)
        with pytest.raises(ResidualTooLarge, match="cubic residual"):
            mintime._check_against_cubic(CanonicalCoordinates(1.2, 0.7, 0.3 + 1e-6), abc)

    def test_rejects_a_non_unitary_triple(self):
        with pytest.raises(PositiveDiscriminant):
            mintime._check_against_cubic(CanonicalCoordinates(0, 0, 0), ABCTriple(1, 0, -3))

    def test_min_time_raises_when_the_routes_disagree(self, monkeypatch):
        monkeypatch.setattr(
            mintime, "_spectral_coords", lambda m, det: CanonicalCoordinates(np.pi / 2, 0.3, 0)
        )
        with pytest.raises(ResidualTooLarge):
            min_time(CNOT, 1.0)

    def test_double_root_hides_a_small_error_from_the_residual(self):
        # CNOT's cubic is x^2 (x - 1): sin^2(1e-3) = 1e-6 leaves a residual
        # of only 1e-12, but moves e1 = x1 + x2 + x3 by 1e-6.
        coeffs = cubic_coefficients(abc_from_coords(np.pi / 2, 0, 0))
        assert abs(mintime._monic_value(coeffs, np.sin(1e-3) ** 2)) < 1e-11
        with pytest.raises(ResidualTooLarge, match="symmetric functions"):
            mintime._check_against_cubic(
                CanonicalCoordinates(np.pi / 2, 1e-3, 0), abc_from_coords(np.pi / 2, 0, 0)
            )

    def test_min_time_sees_a_small_error_at_cnot(self, monkeypatch):
        monkeypatch.setattr(
            mintime, "_spectral_coords", lambda m, det: CanonicalCoordinates(np.pi / 2, 1e-3, 0)
        )
        with pytest.raises(ResidualTooLarge, match="symmetric functions"):
            min_time(CNOT, 1.0)

    def test_symmetric_functions_of_true_coordinates(self, rng):
        for _ in range(200):
            c = np.sort(rng.uniform(0, np.pi / 2, size=3))[::-1]
            mintime._check_against_cubic(CanonicalCoordinates(*c), abc_from_coords(*c))


class TestResidualToleranceScale:
    """--tol-scale loosens only the custom-matrix input check.  Input it
    accepts is snapped to the nearest unitary, so the cubic check and the
    G2 check downstream keep their fixed tolerances and still pass."""

    @pytest.fixture
    def scaled(self):
        with contextlib.ExitStack() as scopes:
            yield lambda factor: scopes.enter_context(tol_scale(factor))

    def test_read_at_call_time(self, scaled):
        scaled(1000)
        assert input_tolerance() == pytest.approx(1e-5)
        scaled(1.0)
        assert input_tolerance() == 1e-8

    @pytest.mark.parametrize(
        "scale,eps,seed,count", [(1e3, 3e-8, 2, 1000), (1e4, 3e-7, 4, 200)], ids=["1e3", "1e4"]
    )
    def test_accepted_input_meets_the_cubic(self, scaled, scale, eps, seed, count):
        # Every matrix the scaled input check accepts gets its minimal time.
        scaled(scale)
        rng = np.random.default_rng(seed)
        accepted = 0
        for u, _ in _boundary_sample(rng, count):
            u = u @ np.diag(1 + eps * rng.standard_normal(4))
            try:
                u = GateSpec.custom(u).unitary()
            except NonUnitary:
                continue
            min_time(u, 1.0)
            accepted += 1
        assert accepted >= count // 10

    def test_g2_check_follows_the_scale(self, scaled):
        # Benchmark edge gates plus 3e-8 real Gaussian noise, admitted at
        # scale 1000 and snapped: the fixed 1e-8 G2 check passes on them.
        scaled(1000)
        rng = np.random.default_rng(0)
        accepted, worst = 0, 0.0
        for gate in bench_module("gen").boundary_gates(1, 400):
            u = gate.matrix + 3e-8 * rng.standard_normal((4, 4))
            try:
                u = GateSpec.custom(u).unitary()
            except NonUnitary:
                continue
            report = min_time(u, 1.0)
            accepted += 1
            worst = max(worst, max(abs(a - b) for a, b in zip(report.coords.as_tuple(), gate.truth)))
        assert accepted >= 300
        assert worst < 1e-6


def _boundary_sample(rng, count, edge_prob=0.5, mirror_prob=0.3):
    """(gate, truth) pairs: each coordinate an edge value or uniform on
    [0, pi/2], sorted into the chamber, c3 negated with ``mirror_prob``.
    min_time reports |c3|, so the truth keeps c3 >= 0."""
    for _ in range(count):
        c = [
            EDGE_VALUES[rng.integers(len(EDGE_VALUES))]
            if rng.random() < edge_prob
            else rng.uniform(0.0, np.pi / 2)
            for _ in range(3)
        ]
        c1, c2, c3 = sorted(c, reverse=True)
        sign = -1.0 if rng.random() < mirror_prob else 1.0
        yield weyl_gate(rng, c1, c2, sign * c3), (c1, c2, c3)


class TestChamberBoundary:
    """Accuracy at the edges of the Weyl chamber, against the coordinates
    each gate was built from."""

    def test_harness(self):
        rng = np.random.default_rng(31)
        worst_report = worst_coords = 0.0
        raised = []
        for u, truth in _boundary_sample(rng, 3000):
            try:
                report = min_time(u, 1.0)
                coords = canonical_coords(u)
            except SpinPairError as exc:
                raised.append((truth, exc))
                continue
            worst_report = max(worst_report, np.abs(np.subtract(report.coords.as_tuple(), truth)).max())
            worst_coords = max(worst_coords, np.abs(np.subtract(coords.as_tuple(), truth)).max())
            assert report.t_star == report.coords.total / np.pi
        assert raised == []
        assert worst_report <= 1e-8
        assert worst_coords <= 1e-8

    @pytest.mark.parametrize(
        "truth",
        [(1e-5, 1e-5, 1e-9), (1e-3, 1e-5, 1e-7), (np.pi / 2, np.pi / 2, 0.0)],
        ids=["small-pair", "small-spread", "swap-edge"],
    )
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["c3+", "c3-"])
    def test_named_regression(self, rng, truth, sign):
        # The cubic alone gave (0, 0, 0), a triple root at 5.7e-5 (t* off by
        # a factor of about 6) and c1 = 1.57069 on these.
        for _ in range(20):
            u = weyl_gate(rng, truth[0], truth[1], sign * truth[2])
            report = min_time(u, 1.0)
            assert report.coords.as_tuple() == pytest.approx(truth, abs=1e-8, rel=0)
            assert report.t_star == pytest.approx(sum(truth) / np.pi, abs=1e-8, rel=0)

    def test_exactly_zero_and_half_pi(self):
        report = min_time(weyl_gate(np.random.default_rng(3), np.pi / 2, 0.0, 0.0), 1.0)
        assert report.coords.as_tuple() == pytest.approx((np.pi / 2, 0.0, 0.0), abs=1e-14)
        assert report.coords.c2 == report.coords.c3 == 0.0

    def test_paper_route_on_benchmark_edges(self):
        # The cubic route loses accuracy only next to double roots, and the
        # polish must keep those losses rare on the benchmark's edge gates.
        failed, errors = 0, []
        for gate in bench_module("gen").boundary_gates(7, 4000):
            try:
                coords = coords_from_abc(abc_from_invariants(local_invariants(gate.matrix)))
            except ResidualTooLarge:
                failed += 1
                continue
            errors.append(np.abs(np.subtract(coords.as_tuple(), gate.truth)).max())
        assert failed < 9
        assert np.median(errors) < 1e-11


_coordinate = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(0.0, np.pi / 2))


class TestChamberBoundaryProperties:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        c=st.tuples(_coordinate, _coordinate, _coordinate),
        mirror=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_coordinates_match_truth(self, c, mirror, seed):
        c1, c2, c3 = sorted(c, reverse=True)
        u = weyl_gate(np.random.default_rng(seed), c1, c2, -c3 if mirror else c3)
        report = min_time(u, 1.0)
        got = report.coords.as_tuple()
        assert np.pi / 2 >= got[0] >= got[1] >= got[2] >= 0
        assert got == pytest.approx((c1, c2, c3), abs=1e-8, rel=0)
        assert canonical_coords(u).as_tuple() == got

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        c=st.tuples(_coordinate, _coordinate, _coordinate),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mirror_image_has_same_time(self, c, seed):
        # U and its complex conjugate are mirror images: same |c3|, same t*.
        u = weyl_gate(np.random.default_rng(seed), *sorted(c, reverse=True))
        assert min_time(u.conj(), 1.0).t_star == pytest.approx(
            min_time(u, 1.0).t_star, abs=1e-12
        )
