"""Global numerical tolerances.

Construction checks (unitarity, Hermiticity) default to 1e-10 and
user-supplied matrix input to 1e-8.  Both can be scaled together, which is
what the CLI's --tol-scale flag does; ``scaled`` applies the same factor to a
module's own tolerance on checks that input accepted at the looser scale
would otherwise fail (the cubic residual, the G2 reality check).
"""

from dataclasses import dataclass


@dataclass
class Tolerances:
    construction: float = 1e-10
    input_unitarity: float = 1e-8


tolerances = Tolerances()


def set_tol_scale(factor: float) -> None:
    """Reset all tolerances to their defaults scaled by ``factor``."""
    if factor <= 0:
        raise ValueError("tolerance scale must be positive")
    defaults = Tolerances()
    tolerances.construction = defaults.construction * factor
    tolerances.input_unitarity = defaults.input_unitarity * factor


def scaled(base: float) -> float:
    """``base`` times the current tolerance scale, read at call time."""
    return base * (tolerances.input_unitarity / Tolerances.input_unitarity)
