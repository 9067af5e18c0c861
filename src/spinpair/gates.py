"""Canonical two-qubit gate matrices.

SQRT_SWAP is the square root of SWAP whose Bell-singlet eigenvalue is -i
(middle entries (1 -+ i)/2); this is the branch whose first local invariant is
+i/4.  The complex conjugate matrix is the other, equally valid square root.
"""

from __future__ import annotations

import numpy as np

from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, expm2_hermitian

IDENTITY4 = np.eye(4, dtype=complex)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

SQRT_SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, (1 - 1j) / 2, (1 + 1j) / 2, 0],
        [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


def controlled_u(gamma1: float, gamma2: float, gamma3: float) -> np.ndarray:
    """Controlled-U with U = exp(i(g1 sx + g2 sy + g3 sz)) on the target qubit."""
    generator = gamma1 * SIGMA_X + gamma2 * SIGMA_Y + gamma3 * SIGMA_Z
    u = expm2_hermitian(generator, -1.0)  # exp(+i * generator)
    cu = np.eye(4, dtype=complex)
    cu[2:, 2:] = u
    return cu


__all__ = [
    "IDENTITY4",
    "CNOT",
    "SWAP",
    "SQRT_SWAP",
    "controlled_u",
]
