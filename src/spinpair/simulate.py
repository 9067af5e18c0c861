"""Exact propagation of pulse schedules and fidelity verification.

Each segment Hamiltonian H_d + sum_i v_i H_i is constant, so the segment
propagator exp(-i t H) is computed spectrally and the only deviation from the
target gate is the physical hard-pulse error (drift running during local
pulses), which vanishes as the pulse strength N grows.

Propagation is batched: the ``Schedule.table`` rows of every schedule in a
call are padded into one table and go through one stacked eigendecomposition,
free-drift segments included (LAPACK returns the exact eigenbasis of the
diagonal drift, so their propagators equal the closed form bit for bit).  One
schedule is a batch of one.  A schedule's numbers were checked when it was
built; only the unitarity of the product is checked here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    I2,
    SIGMA_X,
    SIGMA_Y,
    ZZ,
    _unitary_defect,
    expm_hermitian,
    kron,
    nearest_unitary,
    unitary4,
)
from .schedule import Schedule

# Drift per hertz of coupling, H_d = J * DRIFT_TERM; diagonal.
DRIFT_TERM = (np.pi / 2) * ZZ

# Control operators H1..H4 = pi * (x/y on qubit 1/2); J-independent.
CONTROL_TERMS = (
    np.pi * kron(SIGMA_X, I2),
    np.pi * kron(SIGMA_Y, I2),
    np.pi * kron(I2, SIGMA_X),
    np.pi * kron(I2, SIGMA_Y),
)


# Roundoff admitted above a fidelity of 1.  A target whose ||T†T - I||_max is
# within it has fidelity at most 1 + FIDELITY_SLACK / 2 against any unitary.
FIDELITY_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class SimulationReport:
    u_final: np.ndarray
    fidelity: float
    relative_phase: float
    wall_time: float
    drift_time: float

    def __post_init__(self):
        if not 0.0 <= self.fidelity <= 1.0 + FIDELITY_SLACK:
            raise ValueError(f"fidelity {self.fidelity} outside [0, 1]")


def _propagate(schedules: list[Schedule]) -> np.ndarray:
    """Propagators of one or more schedules, shape (B, 4, 4), drift on in
    every segment."""
    # Row p*B + b is segment p of schedule b, all zeros (the identity) past its end.
    table = np.zeros((max(len(s.table) for s in schedules), len(schedules), 6))
    for b, s in enumerate(schedules):
        table[: len(s.table), b, :5], table[: len(s.table), b, 5] = s.table, s.coupling_j
    table = table.reshape(-1, 6)
    duration, amplitudes, coupling = table[:, 0], table[:, 1:5], table[:, 5]

    # H = H_d + v1 H1 + ... + v4 H4, summed left to right; one stacked eigh.
    # Schedule numbers are at most 1e150 in magnitude, so neither H
    # (eigenvalues below about 1.1e151) nor a phase t * w overflows.
    h = coupling[:, None, None] * DRIFT_TERM
    for k, term in enumerate(CONTROL_TERMS):
        h = h + amplitudes[:, k, None, None] * term
    steps = expm_hermitian(h, duration)

    # Time-ordered product, one segment position at a time across the batch.
    u = np.tile(np.eye(4, dtype=complex), (len(schedules), 1, 1))
    for step in steps.reshape(-1, len(schedules), 4, 4):
        u = step @ u
    return unitary4(u)


def evolve(schedule: Schedule) -> np.ndarray:
    """Propagator of the full schedule (drift on in every segment)."""
    return _propagate([schedule])[0]


def fidelity(u, v) -> float:
    """Phase-invariant gate overlap |tr(U†V)| / 4; equals 1 iff U = e^{i phi} V."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return float(abs(np.trace(u.conj().T @ v)) / 4)


def verify(schedule: Schedule, target) -> SimulationReport:
    """Propagate a schedule and compare against a target gate."""
    return batch_verify([schedule], [target])[0]


def batch_verify(schedules, targets) -> list[SimulationReport]:
    """Verify many (schedule, target) pairs in one batched propagation;
    results match input order.  A target more than ``FIDELITY_SLACK`` from
    unitary is compared in the form of its nearest unitary.

    Raises:
        ValueError: if the two sequences differ in length.
        NonUnitary: if a target is not unitary within 1e-8.
    """
    schedules, targets = list(schedules), list(targets)
    if len(schedules) != len(targets):
        raise ValueError(
            f"batch_verify needs one target per schedule, "
            f"got {len(schedules)} schedules and {len(targets)} targets"
        )
    if not schedules:
        return []
    targets, defect = _unitary_defect(np.array(targets, dtype=complex), tol=1e-8)
    loose = defect.max(axis=(-2, -1)) > FIDELITY_SLACK
    if loose.any():
        targets[loose] = nearest_unitary(targets[loose])
    u_final = _propagate(schedules)
    overlaps = np.trace(targets.conj().swapaxes(-2, -1) @ u_final, axis1=-2, axis2=-1)
    return [
        SimulationReport(
            u_final=u,
            fidelity=float(abs(overlap) / 4),
            relative_phase=float(phase),
            wall_time=s.wall_time,
            drift_time=s.declared_drift_time,
        )
        for s, u, overlap, phase in zip(schedules, u_final, overlaps, np.angle(overlaps))
    ]
