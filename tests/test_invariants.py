import re

import numpy as np
import pytest

from spinpair.errors import NonRealG2
from spinpair.gates import CNOT, IDENTITY4, SQRT_SWAP, SWAP, controlled_u
from spinpair.invariants import (
    ABCTriple,
    LocalInvariants,
    MAGIC,
    abc_from_coords,
    abc_from_invariants,
    _magic_system,
    local_invariants,
)
from spinpair.kak import interaction_unitary
from spinpair.linalg import max_norm
from spinpair.schedule import tol_scale

from conftest import haar_unitary, random_local


class TestMagicBasis:
    def test_unitary(self):
        assert max_norm(MAGIC.conj().T @ MAGIC - np.eye(4)) < 1e-12

    def test_entries(self):
        # entries are 0, +-1, +-i scaled by 1/sqrt(2)
        s = 1 / np.sqrt(2)
        want = np.array(
            [
                [s, 0, 0, 1j * s],
                [0, 1j * s, s, 0],
                [0, 1j * s, -s, 0],
                [s, 0, 0, -1j * s],
            ]
        )
        assert np.array_equal(MAGIC, want)

    def test_transform_identity(self):
        assert max_norm(_magic_system(IDENTITY4)[0] - IDENTITY4) < 1e-15

    def test_transform_of_magic_itself(self):
        assert max_norm(_magic_system(MAGIC)[0] - MAGIC) < 1e-15

    def test_transform_preserves_unitarity(self, rng):
        ub = _magic_system(haar_unitary(rng))[0]
        assert max_norm(ub.conj().T @ ub - np.eye(4)) < 1e-12


class TestLocalInvariants:
    @pytest.mark.parametrize(
        "gate,g1,g2",
        [
            (CNOT, 0, 1),
            (SWAP, -1, -3),
            (SQRT_SWAP, 0.25j, 0),
            (IDENTITY4, 1, 3),
        ],
        ids=["cnot", "swap", "sqrtswap", "identity"],
    )
    def test_golden(self, gate, g1, g2):
        inv = local_invariants(gate)
        assert abs(inv.g1 - g1) < 1e-10
        assert abs(inv.g2 - g2) < 1e-10

    @pytest.mark.parametrize("gamma", [np.pi / 6, np.pi / 4, np.pi / 3])
    def test_controlled_u(self, gamma):
        inv = local_invariants(controlled_u(gamma, 0, 0))
        assert abs(inv.g1 - np.cos(gamma) ** 2) < 1e-10
        assert abs(inv.g2 - (2 * np.cos(gamma) ** 2 + 1)) < 1e-10

    def test_local_invariance(self, rng):
        for _ in range(30):
            u = haar_unitary(rng)
            dressed = random_local(rng) @ u @ random_local(rng)
            a, b = local_invariants(u), local_invariants(dressed)
            assert abs(a.g1 - b.g1) < 1e-8
            assert abs(a.g2 - b.g2) < 1e-8

    def test_g2_real_for_unitaries(self, rng):
        for _ in range(50):
            inv = local_invariants(haar_unitary(rng))
            assert abs(inv.g2.imag) < 1e-8


class TestAbcConversion:
    @pytest.mark.parametrize(
        "g1,g2,want",
        [
            (0, 1, (0, 0, 1)),
            (-1, -3, (-1, 0, -3)),
            (0.25, 1.5, (0.25, 0, 1.5)),  # controlled-U at gamma = pi/3
        ],
    )
    def test_split(self, g1, g2, want):
        abc = abc_from_invariants(LocalInvariants(g1=complex(g1), g2=complex(g2)))
        assert (abc.a, abc.b, abc.c) == pytest.approx(want, abs=1e-14)

    def test_rejects_complex_g2(self):
        with pytest.raises(NonRealG2):
            abc_from_invariants(LocalInvariants(g1=0j, g2=1 + 1e-6j))

    def test_g2_check_follows_tol_scale(self):
        # The G2 check is fixed: --tol-scale loosens only custom-matrix input.
        inv = LocalInvariants(g1=0j, g2=1 + 1e-6j)
        for scale in (1000, 1.0):
            with tol_scale(scale), pytest.raises(NonRealG2):
                abc_from_invariants(inv)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ABCTriple(a=2.0, b=0.0, c=0.0)

    @pytest.mark.parametrize(
        "abc", [(2.0, 0.0, 0.0), (0.0, -0.3, 0.0), (0.0, 0.0, 3.1), (1.0, 0.25, 0.0)],
        ids=["a", "b", "c", "radius"],
    )
    def test_range_message(self, abc):
        a, b, c = abc
        message = f"invariant triple out of range: ABCTriple(a={a!r}, b={b!r}, c={c!r})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ABCTriple(a, b, c)

    def test_range_validation_rejects_nan(self):
        with pytest.raises(ValueError):
            ABCTriple(a=np.nan, b=0.0, c=0.0)
        with pytest.raises(ValueError):
            abc_from_coords(np.nan, 0.0, 0.0)


class TestForwardOracle:
    @pytest.mark.parametrize(
        "coords,want",
        [
            ((0, 0, 0), (1, 0, 3)),
            ((np.pi / 2, 0, 0), (0, 0, 1)),
            ((np.pi / 2, np.pi / 2, np.pi / 2), (-1, 0, -3)),
        ],
    )
    def test_closed_form_points(self, coords, want):
        abc = abc_from_coords(*coords)
        assert (abc.a, abc.b, abc.c) == pytest.approx(want, abs=1e-12)

    def test_radius_identity_on_grid(self):
        # sqrt(a^2+b^2) = prod cos^2 + prod sin^2
        grid = np.linspace(0, np.pi / 2, 7)
        for c1 in grid:
            for c2 in grid:
                for c3 in grid:
                    abc = abc_from_coords(c1, c2, c3)
                    want = np.prod(np.cos([c1, c2, c3]) ** 2) + np.prod(
                        np.sin([c1, c2, c3]) ** 2
                    )
                    assert abs(abc.radius - want) < 1e-12

    def test_matches_matrix_route(self, rng):
        for _ in range(30):
            c = np.sort(rng.uniform(0, np.pi / 2, size=3))[::-1]
            u = random_local(rng) @ interaction_unitary(*c) @ random_local(rng)
            via_matrix = abc_from_invariants(local_invariants(u))
            via_formula = abc_from_coords(*c)
            assert via_matrix.a == pytest.approx(via_formula.a, abs=1e-8)
            assert via_matrix.b == pytest.approx(via_formula.b, abs=1e-8)
            assert via_matrix.c == pytest.approx(via_formula.c, abs=1e-8)
