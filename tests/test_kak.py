import numpy as np
import pytest

from spinpair.errors import NotLocal
from spinpair.gates import CNOT, IDENTITY4, SQRT_SWAP, SWAP
from spinpair.invariants import local_invariants
from spinpair.kak import (
    factor_local,
    interaction_unitary,
    kak_decompose,
    reconstruct,
)
from spinpair.linalg import SIGMA_X, SIGMA_Y, ZZ, expm_hermitian, kron, max_norm, rotation
from spinpair.mintime import canonical_coords

from conftest import haar_unitary, random_local, random_su2, weyl_gate


class TestInteractionUnitary:
    def test_identity(self):
        assert max_norm(interaction_unitary(0, 0, 0) - np.eye(4)) < 1e-15

    def test_matches_expm(self, rng):
        from spinpair.linalg import XX, YY

        for _ in range(10):
            c1, c2, c3 = rng.uniform(-np.pi, np.pi, size=3)
            h = -(c1 * XX + c2 * YY + c3 * ZZ) / 2  # exp(-i t h) at t=1 gives +i/2 sum
            want = expm_hermitian(h, 1.0)
            assert max_norm(interaction_unitary(c1, c2, c3) - want) < 1e-13

    def test_swap_form(self):
        # SWAP = e^{-i pi/4} exp(i pi/4 (XX + YY + ZZ))
        center = interaction_unitary(np.pi / 2, np.pi / 2, np.pi / 2)
        assert max_norm(np.exp(-1j * np.pi / 4) * center - SWAP) < 1e-14


class TestRotationConjugationIdentity:
    def test_xx_from_zz(self):
        # exp(i pi/4 XX) = (Ry(pi/2) (x) Ry(-pi/2)) exp(-i pi/4 ZZ)
        #                  (Ry(-pi/2) (x) Ry(pi/2))
        lhs = interaction_unitary(np.pi / 2, 0, 0)
        rhs = (
            kron(rotation("y", np.pi / 2), rotation("y", -np.pi / 2))
            @ interaction_unitary(0, 0, -np.pi / 2)
            @ kron(rotation("y", -np.pi / 2), rotation("y", np.pi / 2))
        )
        assert max_norm(lhs - rhs) < 1e-12

    def test_yy_from_zz(self):
        lhs = interaction_unitary(0, np.pi / 2, 0)
        rhs = (
            kron(rotation("x", np.pi / 2), rotation("x", -np.pi / 2))
            @ interaction_unitary(0, 0, -np.pi / 2)
            @ kron(rotation("x", -np.pi / 2), rotation("x", np.pi / 2))
        )
        assert max_norm(lhs - rhs) < 1e-12


class TestFactorLocal:
    def test_identity(self):
        lg = factor_local(IDENTITY4)
        assert max_norm(lg.a - np.eye(2)) < 1e-12
        assert max_norm(lg.b - np.eye(2)) < 1e-12
        assert abs(lg.phase) < 1e-12

    def test_pauli_product_with_phase(self):
        k = np.exp(1j * np.pi / 7) * kron(SIGMA_X, SIGMA_Y)
        lg = factor_local(k)
        # factors are det-normalized, so each is +-i sigma; the product with
        # the recovered phase must reproduce the input exactly
        assert max_norm(lg.unitary() - k) < 1e-12
        assert max_norm(np.abs(lg.a) - np.abs(SIGMA_X)) < 1e-12
        assert max_norm(np.abs(lg.b) - np.abs(SIGMA_Y)) < 1e-12

    def test_random_products(self, rng):
        for _ in range(50):
            a, b = random_su2(rng), random_su2(rng)
            phase = rng.uniform(-np.pi, np.pi)
            k = np.exp(1j * phase) * kron(a, b)
            lg = factor_local(k)
            assert max_norm(lg.unitary() - k) < 1e-10

    def test_sign_convention_deterministic(self, rng):
        a, b = random_su2(rng), random_su2(rng)
        k = kron(a, b)
        lg1, lg2 = factor_local(k), factor_local(k)
        assert np.array_equal(lg1.a, lg2.a)
        first = next(x for x in lg1.a.ravel() if abs(x) > 1e-12)
        assert first.real >= -1e-12

    def test_cnot_not_local(self):
        with pytest.raises(NotLocal):
            factor_local(CNOT)
        # oracle: second singular value of the reshuffle is order one
        m = CNOT.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        s = np.linalg.svd(m, compute_uv=False)
        assert s[1] > 0.5


class TestKakDecompose:
    def test_identity(self):
        d = kak_decompose(IDENTITY4)
        assert d.coords.as_tuple() == pytest.approx((0, 0, 0), abs=1e-12)
        assert max_norm(reconstruct(d) - IDENTITY4) < 1e-12

    @pytest.mark.parametrize(
        "gate,want",
        [
            (CNOT, (np.pi / 2, 0, 0)),
            (SWAP, (np.pi / 2, np.pi / 2, np.pi / 2)),
            (SQRT_SWAP, (np.pi / 4, np.pi / 4, np.pi / 4)),
        ],
        ids=["cnot", "swap", "sqrtswap"],
    )
    def test_gate_coords(self, gate, want):
        d = kak_decompose(gate)
        assert d.coords.as_tuple() == pytest.approx(want, abs=1e-9)
        assert max_norm(reconstruct(d) - gate) < 1e-10

    def test_mirror_class_carries_negative_c3(self):
        d = kak_decompose(SQRT_SWAP.conj())
        assert d.coords.c3 == pytest.approx(-np.pi / 4, abs=1e-9)
        assert max_norm(reconstruct(d) - SQRT_SWAP.conj()) < 1e-10

    def test_random_round_trip(self, rng):
        for _ in range(200):
            u = haar_unitary(rng)
            d = kak_decompose(u)
            assert max_norm(reconstruct(d) - u) < 1e-7
            c = d.coords
            assert np.pi / 2 + 1e-9 >= c.c1 >= c.c2 >= abs(c.c3)

    def test_matches_cubic_pipeline(self, rng):
        for _ in range(100):
            u = haar_unitary(rng)
            via_kak = kak_decompose(u).coords
            via_cubic = canonical_coords(u)
            assert abs(via_kak.c1 - via_cubic.c1) < 1e-7
            assert abs(via_kak.c2 - via_cubic.c2) < 1e-7
            assert abs(abs(via_kak.c3) - via_cubic.c3) < 1e-7

    def test_locals_are_special_unitary(self, rng):
        d = kak_decompose(haar_unitary(rng))
        for m in (d.k1.a, d.k1.b, d.k2.a, d.k2.b):
            assert abs(np.linalg.det(m) - 1) < 1e-9
            assert max_norm(m.conj().T @ m - np.eye(2)) < 1e-9

    def test_invariants_blind_to_locals(self, rng):
        # the decomposition center alone fixes the invariants
        for _ in range(20):
            c = np.sort(rng.uniform(0, np.pi / 2, size=3))[::-1]
            center = interaction_unitary(*c)
            dressed = random_local(rng) @ center @ random_local(rng)
            a, b = local_invariants(center), local_invariants(dressed)
            assert abs(a.g1 - b.g1) < 1e-8
            assert abs(a.g2 - b.g2) < 1e-8

    def test_coords_of_reconstruction(self, rng):
        # pipeline consistency between kak and mintime on valid decompositions
        for _ in range(50):
            c = np.sort(rng.uniform(0, np.pi / 2, size=3))[::-1]
            u = random_local(rng) @ interaction_unitary(*c) @ random_local(rng)
            got = canonical_coords(u)
            assert got.as_tuple() == pytest.approx(tuple(c), abs=1e-7)


class TestMirrorRuleAtHalfPi:
    """c3 >= 0 is preferred only where c1 equals pi/2 to roundoff; just
    inside the edge the mirror move would push c1 past pi/2."""

    @pytest.mark.parametrize("c2,c3", [(0.7, 0.3), (np.pi / 2 - 1e-9, 1e-3), (1e-5, 1e-7)])
    def test_c1_stays_in_chamber(self, rng, c2, c3):
        from spinpair.mintime import min_time
        from spinpair.schedule import GateSpec, synthesize

        for _ in range(20):
            u = weyl_gate(rng, np.pi / 2 - 1e-9, c2, -c3)
            d = kak_decompose(u)
            assert d.coords.c1 <= np.pi / 2
            assert d.coords.as_tuple() == pytest.approx((np.pi / 2 - 1e-9, c2, -c3), abs=1e-12)
            assert max_norm(reconstruct(d) - u) < 1e-10
            drift = synthesize(GateSpec.custom(u), 1.0, 1e4).declared_drift_time
            assert drift == pytest.approx(min_time(u, 1.0).t_star, abs=1e-12, rel=0)

    def test_exact_edge_prefers_nonnegative_c3(self, rng):
        for _ in range(20):
            d = kak_decompose(weyl_gate(rng, np.pi / 2, 0.6, -0.2))
            assert d.coords.c1 == pytest.approx(np.pi / 2, abs=1e-14)
            assert d.coords.c3 == pytest.approx(0.2, abs=1e-12)


class TestTextbookCnotDecomposition:
    def test_explicit_product(self):
        # CNOT = e^{-i pi/4} (e^{i pi/4 Y} e^{i pi/4 X} (x) e^{i pi/4 X} e^{-i pi/2 Y})
        #        exp(i pi/4 XX) (e^{-i pi/4 Y} (x) e^{i pi/2 Y})
        def ex(axis, angle):  # exp(i angle sigma_axis)
            return rotation(axis, -2 * angle)

        k1 = kron(
            ex("y", np.pi / 4) @ ex("x", np.pi / 4),
            ex("x", np.pi / 4) @ ex("y", -np.pi / 2),
        )
        k2 = kron(ex("y", -np.pi / 4), ex("y", np.pi / 2))
        got = np.exp(-1j * np.pi / 4) * k1 @ interaction_unitary(np.pi / 2, 0, 0) @ k2
        assert max_norm(got - CNOT) < 1e-10
