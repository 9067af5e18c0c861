"""Time-optimal two-qubit gate analysis and hard-pulse synthesis for a
heteronuclear spin pair with fixed ZZ coupling.

The package exports the pipeline the README documents; every other name
stays importable from the module that defines it.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateSpectrum,
    HardPulseRegimeViolated,
    NonHermitian,
    NonPositiveCoupling,
    NonRealG2,
    NonUnitary,
    NotLocal,
    PositiveDiscriminant,
    ReconstructionFailed,
    ResidualTooLarge,
    ScheduleFormatError,
    SpinPairError,
)
from .gates import CNOT, SQRT_SWAP, SWAP, controlled_u
from .invariants import abc_from_invariants, local_invariants
from .kak import kak_decompose, reconstruct
from .mintime import (
    canonical_coords,
    coords_from_abc,
    cubic_coefficients,
    depress,
    min_time,
    solve_depressed,
)
from .schedule import (
    ControlAmplitudes,
    GateSpec,
    PulseSegment,
    Schedule,
    load_schedule,
    save_schedule,
    synthesize,
    tol_scale,
)
from .simulate import batch_verify, evolve, verify

__all__ = [
    "__version__",
    "tol_scale",
    "SpinPairError",
    "NonUnitary",
    "NonHermitian",
    "NonRealG2",
    "PositiveDiscriminant",
    "ResidualTooLarge",
    "NonPositiveCoupling",
    "NotLocal",
    "DegenerateSpectrum",
    "ReconstructionFailed",
    "HardPulseRegimeViolated",
    "ScheduleFormatError",
    "CNOT",
    "SWAP",
    "SQRT_SWAP",
    "controlled_u",
    "local_invariants",
    "abc_from_invariants",
    "canonical_coords",
    "min_time",
    "cubic_coefficients",
    "depress",
    "solve_depressed",
    "coords_from_abc",
    "kak_decompose",
    "reconstruct",
    "GateSpec",
    "Schedule",
    "PulseSegment",
    "ControlAmplitudes",
    "synthesize",
    "save_schedule",
    "load_schedule",
    "evolve",
    "verify",
    "batch_verify",
]
