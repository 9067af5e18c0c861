import itertools

import numpy as np
import pytest

import spinpair.invariants
from spinpair import kak
from spinpair.errors import DegenerateSpectrum, NonUnitary, NotLocal, ReconstructionFailed
from spinpair.gates import CNOT, IDENTITY4, SQRT_SWAP, SWAP, controlled_u
from spinpair.invariants import local_invariants
from spinpair.kak import (
    LocalGate,
    _factor_locals,
    factor_local,
    interaction_unitary,
    kak_decompose,
    reconstruct,
)
from spinpair.linalg import I2, SIGMA_X, SIGMA_Y, ZZ, expm_hermitian, kron, max_norm, rotation
from spinpair.mintime import CanonicalCoordinates, canonical_coords, min_time

from conftest import haar_unitary, random_local, random_su2, weyl_gate
from test_kak_equivalence import GATE_SETS


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
        lg, phase = factor_local(IDENTITY4)
        assert max_norm(lg.a - np.eye(2)) < 1e-12
        assert max_norm(lg.b - np.eye(2)) < 1e-12
        assert abs(phase) < 1e-12

    def test_pauli_product_with_phase(self):
        k = np.exp(1j * np.pi / 7) * kron(SIGMA_X, SIGMA_Y)
        lg, phase = factor_local(k)
        # factors are det-normalized, so each is +-i sigma; the product with
        # the recovered phase must reproduce the input exactly
        assert max_norm(np.exp(1j * phase) * kron(lg.a, lg.b) - k) < 1e-12
        assert max_norm(np.abs(lg.a) - np.abs(SIGMA_X)) < 1e-12
        assert max_norm(np.abs(lg.b) - np.abs(SIGMA_Y)) < 1e-12

    def test_random_products(self, rng):
        for _ in range(50):
            a, b = random_su2(rng), random_su2(rng)
            phase = rng.uniform(-np.pi, np.pi)
            k = np.exp(1j * phase) * kron(a, b)
            lg, got = factor_local(k)
            assert max_norm(np.exp(1j * got) * kron(lg.a, lg.b) - k) < 1e-10

    def test_sign_convention_deterministic(self, rng):
        a, b = random_su2(rng), random_su2(rng)
        k = kron(a, b)
        (lg1, _), (lg2, _) = factor_local(k), factor_local(k)
        assert np.array_equal(lg1.a, lg2.a)
        first = next(x for x in lg1.a.ravel() if abs(x) > 1e-12)
        assert first.real >= -1e-12

    def test_stack_matches_single_calls(self, rng):
        ks = np.stack([np.exp(1j * rng.uniform(-3, 3)) * kron(random_su2(rng), random_su2(rng)) for _ in range(3)])
        a, b, phase = _factor_locals(ks)
        for i, k in enumerate(ks):
            one, one_phase = factor_local(k)
            assert np.array_equal(a[i], one.a) and np.array_equal(b[i], one.b)
            assert phase[i] == one_phase

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


@pytest.fixture
def fallbacks(monkeypatch):
    """Fallback eighs per call of the eigenbasis: the 4x4 eigh calls beyond
    pass 1's, which are one on Re m plus one on the projected Im m when all
    four eigenvalues of Re m form one cluster (gaps <= 1e-9)."""
    counts, calls = [], []
    eigh, basis = np.linalg.eigh, kak._real_orthogonal_eigenbasis

    def counting_eigh(a, *args, **kwargs):
        w, v = eigh(a, *args, **kwargs)
        if np.shape(a) == (4, 4):
            calls.append(w)
        return w, v

    def counting_basis(m):
        calls.clear()
        result = basis(m)
        pass_1 = 1 + bool(np.all(np.diff(calls[0]) <= 1e-9))
        counts.append(len(calls) - pass_1)
        return result

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(kak, "_real_orthogonal_eigenbasis", counting_basis)
    return counts


class TestEigenbasisRetry:
    """The fallback eigh of Re m + W Im m in the eigenbasis.

    U_B = L diag(exp(i theta/2)) O^T has m(U) = O diag(exp(i theta)) O^T.
    Two eigenphases +-0.7 apart by delta give Re m eigenvalues cos(0.7) and
    cos(0.7 - delta), about 0.64 delta apart: above pass 1's 1e-9 cluster
    tolerance, so one eigh of Re m leaves that pair mixed, and the fallback
    combination, on which the pair is well apart, separates it.
    """

    @staticmethod
    def _so4(rng):
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        q[:, 0] *= np.sign(np.linalg.det(q))
        return q

    @pytest.mark.parametrize("delta, max_gap", [(1e-8, 1e-7), (1e-6, 1e-5)])
    def test_near_degenerate_pair(self, fallbacks, delta, max_gap):
        rng = np.random.default_rng(1)
        ell, o = self._so4(rng), self._so4(rng)
        theta = np.array([0.7, -0.7 + delta, 1.9, -2.4])
        ub = ell @ np.diag(np.exp(1j * theta / 2)) @ o.T
        m = ub.T @ ub
        w, p1 = np.linalg.eigh(m.real)
        gap = np.diff(w).min()
        assert max_gap / 100 < gap <= max_gap  # above pass 1's 1e-9
        assert max_norm(p1.T @ m @ p1 - np.diag(np.diagonal(p1.T @ m @ p1))) > 1e-10

        p, mu = kak._real_orthogonal_eigenbasis(m)
        assert max_norm(p.T @ m @ p - np.diag(mu)) <= 1e-12
        u = spinpair.invariants.MAGIC @ ub @ spinpair.invariants.MAGIC_DAG
        assert max_norm(reconstruct(kak_decompose(u)) - u) <= 1e-12
        assert fallbacks == [1, 1]

    @pytest.mark.parametrize("gates", list(GATE_SETS))
    def test_not_taken_on_gate_sets(self, fallbacks, gates):
        inputs = GATE_SETS[gates]()
        for u in inputs:
            kak_decompose(u)
        assert fallbacks == [0] * len(inputs)


class TestFixedCombinationCollision:
    """Why the eigenbasis is not one eigh of a fixed real combination.

    m = O diag(exp(2i theta)) O^T, so Re m + W Im m has the eigenvalues
    sqrt(1 + W^2) cos(2 theta_k - atan W): two phases with theta_0 + theta_1 =
    atan W meet exactly, and that one eigh leaves their eigenvectors mixed.
    Re m keeps them apart (cos 2 theta_0 != cos 2 theta_1), so the cluster
    route of ``_real_orthogonal_eigenbasis`` still decomposes every such gate.
    """

    @staticmethod
    def _gates(count):
        rng = np.random.default_rng(27)
        so4 = TestEigenbasisRetry._so4
        for _ in range(count):
            theta_0 = rng.uniform(-np.pi / 2, np.pi / 2)
            pair = (theta_0, np.arctan(kak._FALLBACK_WEIGHT) - theta_0)
            theta = np.array([*pair, *rng.uniform(-np.pi / 2, np.pi / 2, 2)])
            ub = so4(rng) @ np.diag(np.exp(1j * theta)) @ so4(rng).T
            yield ub.T @ ub, spinpair.invariants.MAGIC @ ub @ spinpair.invariants.MAGIC_DAG

    def test_cluster_route_decomposes_what_the_combination_cannot(self):
        for m, u in self._gates(50):
            combination = (m.real + m.real.T) / 2 + kak._FALLBACK_WEIGHT * (m.imag + m.imag.T) / 2
            w, q = np.linalg.eigh(combination)
            assert np.diff(w).min() <= 1e-12  # the collision
            assert kak._eigen_residual(m, q)[0] > 1e-7  # past the DegenerateSpectrum bound

            d = kak_decompose(u)
            assert max_norm(reconstruct(d) - u) <= 1e-12
            c1, c2, c3 = d.coords.as_tuple()
            want = np.array(min_time(u, 1.0).coords.as_tuple())
            assert max_norm(want - (c1, c2, abs(c3))) <= 1e-14


class TestCanonicalizeExtremePhases:
    """After the per-axis shifts every coordinate lies in (-pi/2, pi/2].  A
    negation could put c3 at -pi/2 only from c3 = pi/2, which forces
    c1 = c2 = pi/2 > 0, so no negation is taken and c3 needs no last shift."""

    _PHASES = (
        np.pi / 2,
        -np.pi / 2,
        np.nextafter(np.pi / 2, 0),
        np.nextafter(-np.pi / 2, 0),
        0.0,
        -0.0,
        1e-16,
        0.3,
    )

    @pytest.mark.parametrize("pi_branch", [False, True], ids=["theta", "theta0-plus-pi"])
    def test_canonical_and_equivalent(self, pi_branch):
        for theta in itertools.product(self._PHASES, repeat=4):
            theta = np.array(theta)
            if pi_branch:
                theta[0] += np.pi
            c_raw = kak._coords_from_phases(theta)
            coords, (angle, left, right) = kak._canonicalize(c_raw)
            CanonicalCoordinates(*coords)
            assert coords[2] > -np.pi / 2
            got = np.exp(1j * angle) * left @ interaction_unitary(*coords) @ right
            assert max_norm(got - interaction_unitary(*c_raw)) <= 1e-12, theta


class TestFixupMemo:
    """The canonicalization fixups come from a memo keyed by the move
    sequence; a fresh build (the memo's undecorated function) is the reference."""

    @staticmethod
    def _grid_moves(monkeypatch):
        seen = {}
        fixups = kak._fixups

        def recording(moves):
            seen[moves] = result = fixups(moves)
            return result

        monkeypatch.setattr(kak, "_fixups", recording)
        for pi_branch in (False, True):
            for theta in itertools.product(TestCanonicalizeExtremePhases._PHASES, repeat=4):
                theta = np.array(theta)
                if pi_branch:
                    theta[0] += np.pi
                kak._canonicalize(kak._coords_from_phases(theta))
        return seen

    def test_memo_equals_fresh_build(self, monkeypatch):
        build = kak._fixups.__wrapped__
        seen = self._grid_moves(monkeypatch)
        assert len(seen) > 100  # both branches reach many move sequences
        for moves, (angle, left, right) in seen.items():
            fresh_angle, fresh_left, fresh_right = build(moves)
            assert repr(angle) == repr(fresh_angle)
            assert left.tobytes() == fresh_left.tobytes(), moves
            assert right.tobytes() == fresh_right.tobytes(), moves

    def test_memo_is_read_only(self, monkeypatch):
        for _, left, right in self._grid_moves(monkeypatch).values():
            for m in (left, right):
                with pytest.raises(ValueError, match="read-only"):
                    m[0, 0] = 0

    def test_memo_stays_bounded(self, monkeypatch):
        # At most 5^3 * 2^3 * 2^2 * 2 = 8000 sequences exist (see _fixups);
        # the whole phase grid, both branches, reaches 205 of them.
        memo = kak._fixups
        memo.cache_clear()
        self._grid_moves(monkeypatch)
        assert memo.cache_info().currsize <= 256


class TestChecksStillFire:
    """Each check on the KAK path still raises now that the input is
    validated once and both local factors share one SVD."""

    def test_input_unitarity(self):
        with pytest.raises(NonUnitary):
            kak_decompose(1.001 * CNOT)

    def test_eigenbasis_residual(self, monkeypatch, rng):
        # A basis turned away from the eigenvectors of m leaves a residual far
        # above 1e-7 on pass 1 and on the fallback.
        eigh = np.linalg.eigh
        turn = np.linalg.qr(rng.standard_normal((4, 4)))[0]

        def turned(a, *args, **kwargs):
            w, v = eigh(a, *args, **kwargs)
            return (w, v @ turn) if np.shape(a) == (4, 4) else (w, v)

        monkeypatch.setattr(np.linalg, "eigh", turned)
        with pytest.raises(DegenerateSpectrum, match="real eigenbasis"):
            kak_decompose(haar_unitary(rng))

    def test_left_factor_is_real(self, monkeypatch, rng):
        # Wrong eigenphases leave L = U_B P diag(exp(-i theta)) complex.
        basis = kak._real_orthogonal_eigenbasis

        def dephased(m):
            p, mu = basis(m)
            return p, mu * np.exp(0.2j * np.arange(4))

        monkeypatch.setattr(kak, "_real_orthogonal_eigenbasis", dephased)
        with pytest.raises(DegenerateSpectrum, match="not real"):
            kak_decompose(haar_unitary(rng))

    @pytest.mark.parametrize("which", [0, 1], ids=["k1", "k2"])
    def test_rank_of_each_factor(self, monkeypatch, rng, which):
        svd = np.linalg.svd

        def leaky(a, *args, **kwargs):
            u, s, vh = svd(a, *args, **kwargs)
            s = s.copy()
            s[which, 1] = 1e-7
            return u, s, vh

        monkeypatch.setattr(np.linalg, "svd", leaky)
        with pytest.raises(NotLocal, match="1.000e-07 > 1e-08"):
            kak_decompose(haar_unitary(rng))

    @pytest.mark.parametrize(
        "m,match",
        [
            (1.001 * I2, "not unitary"),
            (np.array([[1, 2e-9], [0, 1]]), "not unitary"),
            (np.diag([1, -1]), "not det-1"),
            (1j * I2, "not det-1"),
        ],
        ids=["scaled", "off-diagonal", "det-minus-1", "det-phase"],
    )
    def test_local_gate(self, m, match):
        m = np.asarray(m, dtype=complex)
        with pytest.raises(ValueError, match=f"factor a is {match}"):
            LocalGate(a=m, b=I2)
        with pytest.raises(ValueError, match=f"factor b is {match}"):
            LocalGate(a=I2, b=m)

    def test_local_gate_accepts_su2(self, rng):
        LocalGate(a=random_su2(rng), b=rotation("x", 0.3))

    def test_local_gate_inside_kak(self, monkeypatch, rng):
        factors = kak._factor_locals

        def stretched(k):
            a, b, phase = factors(k)
            return a * 1.001, b, phase

        monkeypatch.setattr(kak, "_factor_locals", stretched)
        with pytest.raises(ValueError, match="not unitary"):
            kak_decompose(haar_unitary(rng))

    def test_reconstruction(self, monkeypatch, rng):
        coords = kak._coords_from_phases
        monkeypatch.setattr(kak, "_coords_from_phases", lambda theta: [c + 1e-5 for c in coords(theta)])
        with pytest.raises(ReconstructionFailed):
            kak_decompose(haar_unitary(rng))


class TestSharedWork:
    @pytest.mark.parametrize(
        "gate",
        ["haar", CNOT, SWAP, SQRT_SWAP, IDENTITY4, controlled_u(0.3, -0.4, 1.2)],
        ids=["haar", "cnot", "swap", "sqrtswap", "identity", "cu"],
    )
    def test_one_svd_and_one_input_check(self, monkeypatch, rng, gate):
        u = haar_unitary(rng) if isinstance(gate, str) else gate
        svds, checks = [], []
        svd, unitary4 = np.linalg.svd, kak.unitary4

        def counting_svd(a, *args, **kwargs):
            svds.append(np.shape(a))
            return svd(a, *args, **kwargs)

        def counting_check(m, *args, **kwargs):
            checks.append(np.shape(m))
            return unitary4(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        for module in (kak, spinpair.invariants):
            monkeypatch.setattr(module, "unitary4", counting_check)
        kak_decompose(u)
        assert svds == [(2, 4, 4)]
        # the input once; the local factors the KAK builds are not checked again
        assert checks == [(4, 4)]

    @pytest.mark.parametrize("gate", ["haar", CNOT, SWAP, IDENTITY4], ids=["haar", "cnot", "swap", "identity"])
    def test_one_kron_for_the_residual(self, monkeypatch, rng, gate):
        # Once the move sequence is in the memo, both factor pairs go through
        # one kron for the phase reference and one for the residual.
        u = haar_unitary(rng) if isinstance(gate, str) else gate
        kak_decompose(u)
        krons = []

        def counting_kron(a, b):
            krons.append((np.shape(a), np.shape(b)))
            return kron(a, b)

        monkeypatch.setattr(kak, "kron", counting_kron)
        kak_decompose(u)
        assert krons == [((2, 2, 2), (2, 2, 2))] * 2
