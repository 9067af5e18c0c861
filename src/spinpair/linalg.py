"""Complex 2x2/4x4 matrix primitives for two-qubit gate work.

Everything here is a pure function over immutable ndarray values.  Matrix
exponentials of Hermitian matrices are computed spectrally (eigendecomposition,
never ODE stepping), so propagation error in the simulator is limited to the
physics of finite pulse strength, not the numerics.
"""

from __future__ import annotations

import numpy as np

from .errors import NonHermitian, NonUnitary

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULIS = {"i": I2, "x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

# The 16 two-qubit Pauli products, keyed by axis pair ("x", "y") -> sigma_x (x) sigma_y.
PAULI_PRODUCTS = {
    (a, b): np.kron(PAULIS[a], PAULIS[b]) for a in "ixyz" for b in "ixyz"
}

XX = PAULI_PRODUCTS[("x", "x")]
YY = PAULI_PRODUCTS[("y", "y")]
ZZ = PAULI_PRODUCTS[("z", "z")]

_EYE4 = np.eye(4)

CONSTRUCTION_TOL = 1e-10  # user-supplied matrices are admitted by GateSpec.custom
# Entries up to this magnitude cannot overflow U†U (sums of products of two
# entries) or H - H†; larger ones, NaN and Inf take the checks' slow path.
# It also bounds every number a schedule holds (see ``schedule``).
_SAFE_ENTRY = 1e150


def max_norm(m) -> float:
    """Entrywise max-abs norm used by every tolerance check."""
    return float(np.abs(m).max())


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 matrices, (a (x) b)[2i+k, 2j+l] = a[i,j] b[k,l].

    ``a`` and ``b`` may be stacks (..., 2, 2) whose leading shapes broadcast.
    Every entry is the single product a[i,j] b[k,l], as in ``np.kron``, so
    the result is bit-identical to it.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[-2:] != (2, 2) or b.shape[-2:] != (2, 2):
        raise ValueError("kron expects two 2x2 matrices")
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (4, 4))


def _first(flags: np.ndarray) -> tuple[int, ...]:
    """Index of the first set flag; () when ``flags`` is 0-d (one matrix)."""
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(flags)), flags.shape))


def _named(first: tuple[int, ...], message: str) -> str:
    return f"{message} (stack index {list(first)})" if first else message


def _validated(
    m, error, defect_of, label: str, tol: float = CONSTRUCTION_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Shape, finiteness and ``||defect_of(m)||_max <= tol`` check shared by
    unitary4 and hermitian4, matrix by matrix over a stack.  Returns the
    matrix and the entrywise ``|defect_of(m)|`` it was checked on."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-2:] != (4, 4):
        raise error(f"expected a 4x4 matrix, got shape {a.shape}")
    if abs(a).max(initial=0.0) <= _SAFE_ENTRY:  # False for NaN too
        defect = abs(defect_of(a))
    else:
        finite = np.isfinite(a).all(axis=(-2, -1))
        if not finite.all():
            raise error(_named(_first(~finite), "matrix contains NaN or Inf entries"))
        # Finite but huge: a defect that overflows (to inf, or NaN from
        # inf - inf) is an infinite one.
        with np.errstate(over="ignore", invalid="ignore"):
            defect = abs(defect_of(a))
        defect[np.isnan(defect)] = np.inf
    if defect.max(initial=0.0) > tol:
        per_matrix = defect.max(axis=(-2, -1))
        first = _first(per_matrix > tol)
        raise error(_named(first, f"{label} = {per_matrix[first]:.3e} exceeds tolerance {tol:.3e}"))
    return a, defect


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-2, -1)


def unitary4(m, tol: float = CONSTRUCTION_TOL) -> np.ndarray:
    """Validate and return a 4x4 unitary, or a stack (..., 4, 4) of them.

    Raises:
        NonUnitary: if ||U†U - I||_max exceeds ``tol`` (default 1e-10); for
            a stack, the first failing matrix is named by its index.
    """
    return _unitary_defect(m, tol)[0]


def _unitary_defect(m, tol: float = CONSTRUCTION_TOL) -> tuple[np.ndarray, np.ndarray]:
    """``unitary4``, also returning the entrywise |U†U - I| it checked."""
    return _validated(m, NonUnitary, lambda u: _adjoint(u) @ u - _EYE4, "||U†U - I||_max", tol)


def nearest_unitary(m) -> np.ndarray:
    """The unitary closest to ``m`` (polar projection U V^H of its SVD); stacks too."""
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def hermitian4(m) -> np.ndarray:
    """Validate and return a 4x4 Hermitian matrix, or a stack (..., 4, 4)."""
    return _validated(m, NonHermitian, lambda h: h - _adjoint(h), "||H - H†||_max")[0]


def expm_hermitian(h, t: float | np.ndarray) -> np.ndarray:
    """exp(-i t H) for Hermitian H, via the spectral theorem.

    ``h`` may be a stack (..., 4, 4) with ``t`` a scalar or an array that
    broadcasts against the stack's leading shape; all matrices go through
    one stacked ``eigh``.  The result is unitary to machine precision
    because the eigenvalue phases are exponentiated exactly and the
    eigenvector matrix is orthonormal, as long as each phase t * w is finite;
    where it overflows to inf, that matrix holds NaN instead.
    """
    h = hermitian4(h)
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * np.asarray(t, dtype=float)[..., None] * w)
    return (v * phases[..., None, :]) @ _adjoint(v)


def expm2_hermitian(h, t: float) -> np.ndarray:
    """exp(-i t H) for a 2x2 Hermitian H (spectral, same contract as 4x4)."""
    h = np.asarray(h, dtype=complex)
    if not max_norm(h - h.conj().T) <= CONSTRUCTION_TOL:  # NaN and inf fail too
        raise NonHermitian("2x2 matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def rotation(axis: str, angle: float) -> np.ndarray:
    """Single-qubit rotation R_axis(angle) = exp(-i angle sigma_axis / 2)."""
    sigma = PAULIS[axis]
    return np.cos(angle / 2) * I2 - 1j * np.sin(angle / 2) * sigma
