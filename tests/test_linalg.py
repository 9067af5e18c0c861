import numpy as np
import pytest
import scipy.linalg

from spinpair.errors import NonHermitian, NonUnitary
from spinpair.linalg import (
    I2,
    PAULI_PRODUCTS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ZZ,
    expm_hermitian,
    hermitian4,
    kron,
    max_norm,
    rotation,
    unitary4,
)

from conftest import haar_unitary


def random_hermitian(rng):
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return (z + z.conj().T) / 2


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_diagonal(self):
        assert np.array_equal(kron(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]))

    def test_antidiagonal(self):
        # hand expansion of sigma_x (x) sigma_x
        want = np.zeros((4, 4))
        want[0, 3] = want[1, 2] = want[2, 1] = want[3, 0] = 1
        assert np.array_equal(kron(SIGMA_X, SIGMA_X), want)

    def test_pauli_products_table(self):
        assert len(PAULI_PRODUCTS) == 16
        assert np.array_equal(PAULI_PRODUCTS[("z", "z")], ZZ)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            kron(np.eye(3), I2)

    def test_bit_identical_to_numpy(self, rng):
        for _ in range(20):
            a, b = (rng.standard_normal((2, 2, 2)) @ [1, 1j] for _ in range(2))
            assert np.array_equal(kron(a, b), np.kron(a, b))

    def test_stacks_broadcast(self, rng):
        a = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        got = kron(a, b)
        assert got.shape == (3, 4, 4)
        for i in range(3):
            assert np.array_equal(got[i], np.kron(a[i], b))


class TestExpmHermitian:
    def test_zero_time(self, rng):
        h = random_hermitian(rng)
        assert max_norm(expm_hermitian(h, 0.0) - np.eye(4)) < 1e-15

    def test_drift_diagonal(self):
        # (pi/2) J ZZ at J=1 for t = 1/2 exponentiates entrywise
        h = (np.pi / 2) * ZZ
        got = expm_hermitian(h, 0.5)
        phase = np.exp(-1j * np.pi / 4)
        want = np.diag([phase, phase.conjugate(), phase.conjugate(), phase])
        assert max_norm(got - want) < 1e-14

    def test_unitarity(self, rng):
        h = random_hermitian(rng)
        u = expm_hermitian(h, 0.37)
        assert max_norm(u.conj().T @ u - np.eye(4)) < 1e-12

    def test_against_scipy(self, rng):
        # independent oracle: Pade-based expm
        for _ in range(20):
            h = random_hermitian(rng)
            t = rng.uniform(-2, 2)
            want = scipy.linalg.expm(-1j * t * h)
            assert max_norm(expm_hermitian(h, t) - want) < 1e-11

    def test_additivity(self, rng):
        h = random_hermitian(rng)
        s, t = rng.uniform(0, 2, size=2)
        lhs = expm_hermitian(h, s + t)
        rhs = expm_hermitian(h, s) @ expm_hermitian(h, t)
        assert max_norm(lhs - rhs) < 1e-10

    def test_determinant_is_trace_phase(self, rng):
        for _ in range(10):
            h = random_hermitian(rng)
            t = rng.uniform(0, 1)
            want = np.exp(-1j * t * np.trace(h))
            assert abs(np.linalg.det(expm_hermitian(h, t)) - want) < 1e-9

    def test_rejects_non_hermitian(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(NonHermitian):
            expm_hermitian(m, 1.0)


class TestValidation:
    def test_unitary4_accepts(self, rng):
        u = haar_unitary(rng)
        assert unitary4(u) is not None

    def test_unitary4_rejects(self):
        with pytest.raises(NonUnitary):
            unitary4(np.eye(4) * 1.001)

    def test_unitary4_rejects_nan(self):
        m = np.eye(4, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(NonUnitary):
            unitary4(m)

    def test_hermitian4_rejects(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(NonHermitian):
            hermitian4(m)

    @pytest.mark.filterwarnings("error")  # no numpy overflow warning beside the error
    def test_huge_finite_input(self, rng):
        # Entries past 1e150 overflow U†U or H - H†: the defect is infinite.
        inf_defect = r"= inf exceeds tolerance 1\.000e-10$"
        with pytest.raises(NonUnitary, match=inf_defect):
            unitary4(np.eye(4) * 1e200)
        with pytest.raises(NonUnitary, match=r"stack index \[1\]\)$"):
            unitary4(np.array([haar_unitary(rng), np.eye(4) * 1e200]))
        h = np.zeros((4, 4))
        h[0, 1], h[1, 0] = 1.5e308, -1.5e308
        with pytest.raises(NonHermitian, match=inf_defect):
            hermitian4(h)
        # a huge Hermitian matrix is still Hermitian
        h[1, 0] = 1.5e308
        assert hermitian4(h)[1, 0] == 1.5e308
        assert hermitian4(1e200 * random_hermitian(rng)) is not None

    @pytest.mark.filterwarnings("error")
    def test_overflow_to_nan_is_rejected(self):
        # U†U overflows to inf - inf = NaN here; a NaN defect once passed the
        # check, because NaN > tol is False.
        m = np.random.default_rng(0).choice([-1e200, 0.0, 1e200], size=(2, 4, 4))
        u = m[0] + 1j * m[1]
        with pytest.raises(NonUnitary, match="= inf exceeds"):
            unitary4(u)

    def test_product_closure(self, rng):
        for _ in range(10):
            u, v = haar_unitary(rng), haar_unitary(rng)
            w = u @ v
            assert max_norm(w.conj().T @ w - np.eye(4)) < 1e-9


class TestStacks:
    @pytest.mark.parametrize("scalar_t", [False, True], ids=["array-t", "scalar-t"])
    def test_expm_stack_matches_single(self, rng, scalar_t):
        hs = np.array([random_hermitian(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
        ts = 0.4 if scalar_t else rng.uniform(-2, 2, size=(2, 3))
        got = expm_hermitian(hs, ts)
        assert got.shape == (2, 3, 4, 4)
        for i in np.ndindex(2, 3):
            t = ts if scalar_t else ts[i]
            assert max_norm(got[i] - expm_hermitian(hs[i], t)) < 1e-14

    def test_validators_accept_stacks(self, rng):
        us = np.array([haar_unitary(rng) for _ in range(5)])
        hs = np.array([random_hermitian(rng) for _ in range(5)])
        assert unitary4(us).shape == (5, 4, 4)
        assert hermitian4(hs).shape == (5, 4, 4)

    def test_first_offending_matrix_named(self, rng):
        us = np.array([haar_unitary(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
        us[1, 2] *= 1.01
        us[1, 0] *= 1.01
        with pytest.raises(NonUnitary, match=r"stack index \[1, 0\]"):
            unitary4(us)
        hs = np.array([random_hermitian(rng) for _ in range(4)])
        hs[3, 0, 0] = np.inf
        with pytest.raises(NonHermitian, match=r"NaN or Inf entries \(stack index \[3\]\)"):
            hermitian4(hs)

    def test_single_matrix_messages_unchanged(self, rng):
        message = r"^\|\|U†U - I\|\|_max = .* exceeds tolerance 1\.000e-10$"
        with pytest.raises(NonUnitary, match=message):
            unitary4(np.eye(4) * 1.001)
        with pytest.raises(NonHermitian, match=r"^expected a 4x4 matrix, got shape \(3, 3\)$"):
            hermitian4(np.eye(3))
        m = np.eye(4, dtype=complex)
        m[2, 1] = np.nan
        with pytest.raises(NonUnitary, match=r"^matrix contains NaN or Inf entries$"):
            unitary4(m)


class TestRotation:
    def test_x_pi_is_flip(self):
        assert max_norm(rotation("x", np.pi) + 1j * SIGMA_X) < 1e-15

    def test_composition(self):
        r = rotation("y", 0.3) @ rotation("y", 0.4)
        assert max_norm(r - rotation("y", 0.7)) < 1e-15

    def test_generator(self):
        for axis, sigma in (("x", SIGMA_X), ("y", SIGMA_Y), ("z", SIGMA_Z)):
            got = rotation(axis, 0.2)
            want = np.cos(0.1) * I2 - 1j * np.sin(0.1) * sigma
            assert max_norm(got - want) < 1e-15
