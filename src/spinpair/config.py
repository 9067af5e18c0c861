"""The one scaled tolerance: acceptance of user-supplied matrices.

A custom matrix (``GateSpec.custom``: CLI ``--matrix`` input and custom
targets in schedule files) is accepted when ||U†U - I||_max is within
``input_tolerance()`` = 1e-8 times the scale, and is then snapped to the
nearest unitary.  ``set_tol_scale`` (CLI ``--tol-scale``) sets that scale.
Every later check sees an exactly unitary matrix and holds a fixed constant
of its own module.
"""

import math
from contextlib import contextmanager

INPUT_TOL = 1e-8

_scale = 1.0


def set_tol_scale(factor: float) -> None:
    """Scale the custom-matrix input tolerance by ``factor`` (finite, > 0)."""
    global _scale
    if not (math.isfinite(factor) and factor > 0):
        raise ValueError(f"tolerance scale must be finite and positive, got {factor}")
    _scale = float(factor)


@contextmanager
def tol_scale(factor: float):
    """Set the scale for the ``with`` block, then restore the caller's."""
    previous = _scale
    set_tol_scale(factor)
    try:
        yield
    finally:
        set_tol_scale(previous)


def input_tolerance() -> float:
    """Unitarity tolerance for custom-matrix input, read at call time."""
    return INPUT_TOL * _scale
