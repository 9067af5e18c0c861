import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def haar_unitary(rng, n=4):
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_su2(rng):
    u = haar_unitary(rng, n=2)
    return u / np.sqrt(np.linalg.det(u))


def random_local(rng):
    """Random element of SU(2) (x) SU(2)."""
    return np.kron(random_su2(rng), random_su2(rng))


_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAIRS = [np.kron(p, p) for p in (_PAULI_X, _PAULI_Y, _PAULI_Z)]

# Coordinate values at and next to the edges of the Weyl chamber, where
# sin^2(c) clusters near 0 and 1.
EDGE_VALUES = (0.0, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3, np.pi / 4, np.pi / 2 - 1e-9, np.pi / 2)


def weyl_gate(rng, c1, c2, c3):
    """exp(i/2 (c1 XX + c2 YY + c3 ZZ)) dressed with random SU(2) x SU(2)
    factors on both sides and a random global phase, built from numpy alone
    as a product of the three commuting factors cos(c/2) + i sin(c/2) PP."""
    center = np.eye(4, dtype=complex)
    for c, pair in zip((c1, c2, c3), _PAIRS):
        center = center @ (np.cos(c / 2) * np.eye(4) + 1j * np.sin(c / 2) * pair)
    phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    return phase * random_local(rng) @ center @ random_local(rng)
