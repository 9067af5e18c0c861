import numpy as np
import pytest

from spinpair.errors import NonHermitian
from spinpair.gates import CNOT, SQRT_SWAP, SWAP, controlled_u
from spinpair.linalg import max_norm, unitary4


def test_sqrt_swap_squares_to_swap():
    assert max_norm(SQRT_SWAP @ SQRT_SWAP - SWAP) < 1e-15


def test_cnot_is_permutation():
    assert np.array_equal(np.abs(CNOT), CNOT.real)
    assert np.array_equal(CNOT @ CNOT, np.eye(4))


def test_controlled_u_block_structure(rng):
    g = rng.uniform(-1, 1, size=3)
    cu = controlled_u(*g)
    assert max_norm(cu[:2, :2] - np.eye(2)) < 1e-15
    assert max_norm(cu[:2, 2:]) < 1e-15
    assert max_norm(cu[2:, :2]) < 1e-15
    unitary4(cu)


@pytest.mark.parametrize("gamma1", [np.nan, np.inf])
def test_controlled_u_rejects_non_finite(gamma1):
    with np.errstate(invalid="ignore"), pytest.raises(NonHermitian):
        controlled_u(gamma1, 0.0, 0.0)


def test_controlled_u_zero_is_identity():
    assert max_norm(controlled_u(0, 0, 0) - np.eye(4)) < 1e-15

