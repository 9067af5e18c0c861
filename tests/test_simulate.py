import json
from itertools import zip_longest

import numpy as np
import pytest

import spinpair.linalg
from spinpair.errors import NonUnitary, ScheduleFormatError
from spinpair.gates import CNOT, IDENTITY4, SQRT_SWAP, SWAP
from spinpair.linalg import expm_hermitian, max_norm, unitary4
from spinpair.schedule import (
    ControlAmplitudes,
    GateSpec,
    PulseSegment,
    Schedule,
    load_schedule,
    synthesize,
)
from spinpair.simulate import (
    CONTROL_TERMS,
    DRIFT_TERM,
    SimulationReport,
    _propagate,
    batch_verify,
    evolve,
    fidelity,
    verify,
)

from conftest import bench_module, haar_unitary


def empty_schedule():
    return Schedule(
        segments=(),
        coupling_j=1.0,
        pulse_strength_n=100.0,
        target=GateSpec.custom(IDENTITY4),
    )


def drift_only(duration, j=1.0):
    return Schedule(
        segments=(PulseSegment(duration, ControlAmplitudes(0, 0, 0, 0)),),
        coupling_j=j,
        pulse_strength_n=100.0,
        target=GateSpec.custom(IDENTITY4),
    )


def segment_hamiltonians(schedule):
    """Each segment's H = (pi/2) J ZZ + sum_i v_i H_i, built from the Paulis."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    i2 = np.eye(2)
    controls = [np.pi * np.kron(a, b) for a, b in ((sx, i2), (sy, i2), (i2, sx), (i2, sy))]
    drift = (np.pi / 2) * schedule.coupling_j * np.diag([1, -1, -1, 1])
    for seg in schedule.segments:
        v = seg.amplitudes.as_tuple()
        yield seg.duration, drift + sum(vk * hk for vk, hk in zip(v, controls))


def reference_propagator(schedule):
    """Per-segment spectral product: one eigh per segment, in time order."""
    u = np.eye(4, dtype=complex)
    for t, h in segment_hamiltonians(schedule):
        w, vecs = np.linalg.eigh(h)
        u = (vecs * np.exp(-1j * t * w)) @ vecs.conj().T @ u
    return u


_DRIFT_DIAGONAL = np.diagonal(DRIFT_TERM).real
_IDLE = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _reference_propagate(schedules):
    """The earlier two-path ``_propagate``, kept as written: free-drift rows
    (all four amplitudes exactly 0.0) in closed form, the rest through one
    stacked eigh, and a unitarity check of the product."""
    table = np.array(
        [
            _IDLE if seg is None else (seg.duration, *seg.amplitudes.as_tuple(), s.coupling_j)
            for row in zip_longest(*(s.segments for s in schedules))
            for s, seg in zip(schedules, row)
        ],
        dtype=float,
    ).reshape(-1, 6)
    duration, amplitudes, coupling = table[:, 0], table[:, 1:5], table[:, 5]

    steps = np.zeros((len(table), 4, 4), dtype=complex)
    with np.errstate(invalid="ignore"):
        free = (amplitudes == 0.0).all(axis=1)
        w = coupling[free, None] * _DRIFT_DIAGONAL
        steps.reshape(-1, 16)[free, ::5] = np.exp(-1j * duration[free, None] * w)
        pulsed = ~free
        if pulsed.any():
            v = amplitudes[pulsed]
            h = coupling[pulsed, None, None] * DRIFT_TERM
            for k, term in enumerate(CONTROL_TERMS):
                h = h + v[:, k, None, None] * term
            steps[pulsed] = expm_hermitian(h, duration[pulsed])

    u = np.tile(np.eye(4, dtype=complex), (len(schedules), 1, 1))
    for step in steps.reshape(-1, len(schedules), 4, 4):
        u = step @ u
    return unitary4(u)


def mixed_batch(rng):
    """(schedule, target) pairs: Haar, named and controlled-U gates at two
    couplings, with an empty schedule in the middle (0 to ~15 segments)."""
    items = []
    for j in (1.0, 2.5):
        specs = [GateSpec.custom(haar_unitary(rng)) for _ in range(3)]
        specs += [GateSpec.cnot(), GateSpec.swap(), GateSpec.sqrt_swap()]
        specs.append(GateSpec.controlled_u(*rng.uniform(-1.2, 1.2, size=3)))
        items += [(synthesize(spec, j, 300.0 * j), spec.unitary()) for spec in specs]
    items.insert(5, (empty_schedule(), IDENTITY4))
    return items


def write_schedule(path, schedule, v0):
    """Save ``schedule`` with segment 0's amplitudes replaced by ``v0``;
    NaN and Infinity are written as JSON tokens, which the JSON reader
    accepts and the schedule then rejects."""
    data = schedule.to_dict()
    data["segments"][0]["v"] = v0
    path.write_text(json.dumps(data))
    return path


class TestOperators:
    def test_all_terms_hermitian(self):
        for h in (DRIFT_TERM, *CONTROL_TERMS):
            assert max_norm(h - h.conj().T) < 1e-12

    def test_drift_is_diagonal(self):
        # the closed-form drift propagator relies on it
        assert np.array_equal(DRIFT_TERM, np.diag(np.diagonal(DRIFT_TERM)))


class TestEvolve:
    def test_empty_schedule(self):
        assert max_norm(evolve(empty_schedule()) - np.eye(4)) < 1e-15

    def test_pure_drift_half_period(self):
        got = evolve(drift_only(0.5, j=1.0))
        phase = np.exp(-1j * np.pi / 4)
        want = np.diag([phase, phase.conjugate(), phase.conjugate(), phase])
        assert max_norm(got - want) < 1e-14

    def test_unitarity(self):
        s = synthesize(GateSpec.swap(), 1.0, 100.0)
        u = evolve(s)
        assert max_norm(u.conj().T @ u - np.eye(4)) < 1e-12

    def test_composition(self):
        s1 = synthesize(GateSpec.cnot(), 1.0, 100.0)
        s2 = synthesize(GateSpec.swap(), 1.0, 100.0)
        combined = Schedule(
            segments=s1.segments + s2.segments,
            coupling_j=1.0,
            pulse_strength_n=100.0,
            target=GateSpec.swap(),
        )
        assert max_norm(evolve(combined) - evolve(s2) @ evolve(s1)) < 1e-10


class TestFidelity:
    def test_self(self, rng):
        u = haar_unitary(rng)
        assert fidelity(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_invariant(self, rng):
        u = haar_unitary(rng)
        assert fidelity(u, np.exp(1j * 0.83) * u) == pytest.approx(1.0, abs=1e-12)

    def test_identity_vs_cnot(self):
        assert fidelity(IDENTITY4, CNOT) == pytest.approx(0.5, abs=1e-14)

    def test_bounded(self, rng):
        for _ in range(20):
            f = fidelity(haar_unitary(rng), haar_unitary(rng))
            assert 0 <= f <= 1 + 1e-12


class TestSimulationReport:
    @pytest.mark.parametrize("f", [-0.5, 1.5, float("nan")], ids=repr)
    def test_fidelity_outside_the_unit_interval(self, f):
        with pytest.raises(ValueError, match=f"^fidelity {f} outside \\[0, 1\\]$"):
            SimulationReport(IDENTITY4, f, 0.0, 0.0, 0.0)

    def test_roundoff_above_one_is_admitted(self):
        assert SimulationReport(IDENTITY4, 1.0 + 1e-13, 0.0, 0.0, 0.0).fidelity == 1.0 + 1e-13


class TestVerify:
    def test_cnot_thresholds(self):
        r = verify(synthesize(GateSpec.cnot(), 1.0, 1000.0), CNOT)
        assert r.fidelity >= 0.999
        assert r.drift_time == 0.5
        assert r.wall_time == pytest.approx(0.504)

    def test_swap(self):
        r = verify(synthesize(GateSpec.swap(), 1.0, 1000.0), SWAP)
        assert r.fidelity >= 0.999
        assert r.drift_time == pytest.approx(1.5)

    def test_empty_vs_identity(self):
        r = verify(empty_schedule(), IDENTITY4)
        assert r.fidelity == pytest.approx(1.0, abs=1e-15)
        assert r.wall_time == 0.0

    def test_cross_gate_fails(self):
        r = verify(synthesize(GateSpec.cnot(), 1.0, 1000.0), SWAP)
        assert r.fidelity < 0.9

    def test_relative_phase_reported(self):
        # the CNOT pulse product realizes e^{i pi/4} CNOT in the strong limit
        r = verify(synthesize(GateSpec.cnot(), 1.0, 10000.0), CNOT)
        assert r.relative_phase == pytest.approx(np.pi / 4, abs=1e-3)

    def test_batch_order(self):
        schedules = [synthesize(GateSpec.cnot(), 1.0, 1000.0), synthesize(GateSpec.swap(), 1.0, 1000.0)]
        targets = [CNOT, SWAP]
        reports = batch_verify(schedules, targets)
        assert [r.drift_time for r in reports] == [0.5, 1.5]
        for r in reports:
            assert r.fidelity >= 0.999


class TestInfidelityScaling:
    def test_first_order_bound(self):
        # fit the constant at N = 100 J, then bound the larger-N runs
        j = 1.0
        fit_n = 100.0
        c = (1 - verify(synthesize(GateSpec.cnot(), j, fit_n), CNOT).fidelity) * fit_n / j
        for n in (1000.0, 10000.0):
            infidelity = 1 - verify(synthesize(GateSpec.cnot(), j, n), CNOT).fidelity
            assert infidelity <= c * (j / n)

    @pytest.mark.parametrize(
        "spec,target",
        [(GateSpec.swap(), SWAP), (GateSpec.sqrt_swap(), SQRT_SWAP)],
        ids=["swap", "sqrtswap"],
    )
    def test_synthesized_gates_scale(self, spec, target):
        j = 1.0
        c = (1 - verify(synthesize(spec, j, 100.0), target).fidelity) * 100.0 / j
        for n in (1000.0, 10000.0):
            infidelity = 1 - verify(synthesize(spec, j, n), target).fidelity
            assert infidelity <= c * (j / n)


class TestBatchVerify:
    def test_matches_per_segment_reference(self, rng):
        items = mixed_batch(rng)
        counts = [len(s.segments) for s, _ in items]
        assert min(counts) == 0 and max(counts) >= 13
        reports = batch_verify([s for s, _ in items], [t for _, t in items])
        assert len(reports) == len(items)
        for (schedule, target), report in zip(items, reports):
            assert max_norm(report.u_final - reference_propagator(schedule)) <= 1e-12
            assert max_norm(report.u_final - evolve(schedule)) <= 1e-12
            single = verify(schedule, target)
            assert abs(report.fidelity - single.fidelity) <= 1e-12
            assert abs(report.relative_phase - single.relative_phase) <= 1e-12
            assert report.wall_time == schedule.wall_time
            assert report.drift_time == schedule.declared_drift_time

    def test_matches_scipy_expm(self, rng):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        items = mixed_batch(rng)
        reports = batch_verify([s for s, _ in items], [t for _, t in items])
        for (schedule, _), report in zip(items, reports):
            want = np.eye(4, dtype=complex)
            for t, h in segment_hamiltonians(schedule):
                want = scipy_linalg.expm(-1j * t * h) @ want
            assert max_norm(report.u_final - want) <= 1e-12

    def test_length_mismatch_raises(self):
        s = synthesize(GateSpec.cnot(), 1.0, 1000.0)
        with pytest.raises(ValueError, match="3 schedules and 1 targets"):
            batch_verify([s, s, s], [CNOT])
        with pytest.raises(ValueError):
            batch_verify([], [CNOT])

    def test_empty_batch(self):
        assert batch_verify([], []) == []

    def test_non_unitary_target_raises(self):
        s = synthesize(GateSpec.cnot(), 1.0, 1000.0)
        with pytest.raises(NonUnitary, match=r"stack index \[1\]"):
            batch_verify([s, s, s], [CNOT, 1.01 * CNOT, CNOT])


class TestNearUnitaryTarget:
    """Targets admitted at 1e-8 but beyond the report's 1e-12 fidelity slack
    are compared in the form of their nearest unitary."""

    def test_scaled_target_gives_a_report(self):
        s = synthesize(GateSpec.cnot(), 1.0, 1e6)
        u = evolve(s)
        exact = verify(s, u)
        scaled = verify(s, u * (1 + 1e-9))
        assert abs(scaled.fidelity - exact.fidelity) <= 1e-12
        assert abs(scaled.relative_phase - exact.relative_phase) <= 1e-12

    def test_batch_snaps_only_the_loose_target(self):
        s = synthesize(GateSpec.cnot(), 1.0, 1e6)
        u = evolve(s)
        loose, tight = u * (1 + 3e-9), u * (1 + 1e-13)
        exact = verify(s, u).fidelity
        reports = batch_verify([s, s], [loose, tight])
        assert abs(reports[0].fidelity - exact) <= 1e-12
        # within the slack the target is used as given, scale and all
        assert abs(reports[1].fidelity - exact * (1 + 1e-13)) <= 1e-14


class TestInvalidInput:
    """Inputs that would poison propagation (NaN or Inf) or overflow it (H
    or a phase t * w past the double range; the test names say which) are
    rejected when the schedule is loaded or built, so propagation never
    sees them."""

    @pytest.mark.filterwarnings("error")  # no numpy warning beside the error
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_amplitude_is_non_hermitian(self, tmp_path, bad):
        v0 = [0.0, bad, 0.0, 0.0]
        path = write_schedule(tmp_path / "bad.sched", synthesize(GateSpec.cnot(), 1.0, 1000.0), v0)
        with pytest.raises(ScheduleFormatError, match="amplitude v2 must be finite, .*NaN or Inf"):
            load_schedule(path)
        with pytest.raises(ValueError, match="NaN or Inf"):
            ControlAmplitudes(*v0)

    def test_nan_coupling_pulsed(self):
        s = synthesize(GateSpec.cnot(), 1.0, 1000.0)
        with pytest.raises(ValueError, match="^coupling J must be finite, .*NaN or Inf"):
            Schedule(s.segments, float("nan"), s.pulse_strength_n, s.target)

    def test_nan_coupling_drift_only(self):
        # checked when the schedule is built, before any arithmetic
        with pytest.raises(ValueError, match="^coupling J must be finite, .*NaN or Inf"):
            drift_only(0.5, j=float("nan"))

    @pytest.mark.parametrize("v0", [0.0, 1e200], ids=["drift", "pulse"])
    def test_overflowing_phase_is_non_unitary(self, v0):
        # J = 1e200 over a 1e200 s segment would overflow the phase t * w;
        # each of those numbers is past 1e150.
        too_large = r"must be finite, at most 1e150 in size \(not NaN or Inf\), got 1e\+20[01]$"
        with pytest.raises(ValueError, match="^segment duration " + too_large):
            PulseSegment(1e200, ControlAmplitudes(0.0, 0.0, 0.0, 0.0))
        if v0:
            with pytest.raises(ValueError, match="^amplitude v1 " + too_large):
                ControlAmplitudes(v0, 0.0, 0.0, 0.0)
        segment = PulseSegment(0.5, ControlAmplitudes(0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="^coupling J " + too_large):
            Schedule((segment,), 1e200, 1e201, GateSpec.cnot())
        with pytest.raises(ValueError, match="^pulse strength N " + too_large):
            Schedule((segment,), 1.0, 1e201, GateSpec.cnot())

    @pytest.mark.parametrize(
        "v2, j", [(1e308, 1.0), (500.0, 1.5e308)], ids=["amplitude", "coupling"]
    )
    def test_overflowing_hamiltonian_is_non_hermitian(self, v2, j):
        # pi * v2, or the drift J * pi / 2, would overflow H
        s = synthesize(GateSpec.cnot(), 1.0, 1000.0)
        with pytest.raises(ValueError, match=r"at most 1e150 in size \(not NaN or Inf\), got"):
            first = PulseSegment(s.segments[0].duration, ControlAmplitudes(0.0, v2, 0.0, 250.0))
            Schedule((first, *s.segments[1:]), j, s.pulse_strength_n, s.target)

    def test_one_bad_schedule_fails_the_batch(self):
        # A bad schedule cannot be built, so no batch holds one.
        with pytest.raises(ValueError, match="^coupling J must be finite"):
            batch_verify(
                [synthesize(GateSpec.cnot(), 1.0, 1000.0), drift_only(0.5, j=float("nan"))],
                [CNOT, IDENTITY4],
            )

    @pytest.mark.filterwarnings("error")  # no numpy overflow warning either
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
    def test_largest_numbers_propagate(self, sign):
        # J, every amplitude and every duration at the bound: H and the
        # phases stay finite, and the product is unitary to roundoff.
        big = 1e150
        segments = (
            PulseSegment(big, ControlAmplitudes(sign * big, sign * big, -sign * big, sign * big)),
            PulseSegment(big, ControlAmplitudes(0.0, 0.0, 0.0, 0.0)),
        )
        s = Schedule(segments, big, big, GateSpec.cnot())
        u = evolve(s)
        assert max_norm(u.conj().T @ u - np.eye(4)) < 1e-14
        reports = batch_verify([drift_only(0.5), s], [IDENTITY4, CNOT])
        assert reports[1].u_final.tobytes() == u.tobytes()


class TestSkippedWork:
    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls = []
        eigh = spinpair.linalg.np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(spinpair.linalg.np.linalg, "eigh", counting)
        return calls

    @pytest.mark.parametrize("k", [1, 2, 13])
    def test_one_eigh_per_batch(self, rng, eigh_calls, k):
        items = mixed_batch(rng)[:k]
        eigh_calls.clear()  # synthesis itself diagonalizes
        batch_verify([s for s, _ in items], [t for _, t in items])
        assert len(eigh_calls) == 1  # every batch here has pulsed segments

    @pytest.mark.parametrize(
        "v0,pulsed", [(1e-16, True), (-0.0, False)], ids=["tiny-amplitude", "minus-zero"]
    )
    def test_drift_rule_matches_drift_time(self, eigh_calls, v0, pulsed):
        # Only the drift time reads the rule; propagation diagonalizes every
        # segment, drift or pulse.
        segment = PulseSegment(0.5, ControlAmplitudes(v0, 0.0, 0.0, 0.0))
        s = Schedule((segment,), 1.0, 100.0, GateSpec.custom(IDENTITY4))
        evolve(s)
        assert eigh_calls == [(1, 4, 4)]
        assert s.declared_drift_time == (0.0 if pulsed else 0.5)


def reference_set():
    """Named, cu, Haar and chamber-edge schedules at J from 1e-4 to 1e4,
    drift-only schedules and the empty schedule."""
    rng = np.random.default_rng(15)
    gen = bench_module("gen")
    specs = [GateSpec.cnot(), GateSpec.swap(), GateSpec.sqrt_swap()]
    specs.append(GateSpec.controlled_u(*rng.uniform(-1.2, 1.2, size=3)))
    specs += [GateSpec.custom(u) for u in gen.haar_batch(15, 2)]
    specs += [GateSpec.custom(g.matrix) for g in gen.boundary_gates(15, 4)]
    schedules = [
        synthesize(spec, float(j), ratio * float(j))
        for j in np.geomspace(1e-4, 1e4, 17)
        for ratio in (10.0, 1e4)
        for spec in specs
    ]
    schedules += [
        drift_only(duration, j)
        for j in (1e-3, 0.7, 1.0, 3.3, 1e3)
        for duration in (1e-6, 0.25, 0.5, 7.3)
    ]
    schedules.append(empty_schedule())
    return schedules


class TestClosedFormReference:
    def test_one_path_is_bit_equal(self):
        # Drift segments come out of the stacked eigh exactly as in closed
        # form: LAPACK returns the exact eigenbasis of the diagonal drift.
        schedules = reference_set()
        want = _reference_propagate(schedules)
        single = np.array([_propagate([s])[0] for s in schedules])
        batched = np.concatenate(
            [_propagate(schedules[i : i + 32]) for i in range(0, len(schedules), 32)]
        )
        assert single.tobytes() == want.tobytes()
        assert batched.tobytes() == want.tobytes()
