import hashlib
import json
import os
import re
import stat
import struct

import numpy as np
import pytest

from spinpair import cli
from spinpair.errors import HardPulseRegimeViolated, NonPositiveCoupling, ScheduleFormatError
from spinpair.gates import CNOT, SQRT_SWAP, SWAP
from spinpair.linalg import max_norm, rotation
from spinpair.mintime import min_time
from spinpair.schedule import (
    REFERENCE_GATES,
    ControlAmplitudes,
    GateSpec,
    PulseSegment,
    Schedule,
    _xyx_angles,
    euler_xyx,
    load_schedule,
    matrix_from_dict,
    matrix_to_dict,
    save_schedule,
    synthesize,
)
from spinpair.simulate import evolve

from conftest import bench_module, haar_unitary, random_su2
from test_kak_equivalence import _reference_euler


class TestEulerXYX:
    def test_identity(self):
        assert euler_xyx(np.eye(2)) == pytest.approx((0, 0, 0), abs=1e-12)

    def test_pure_y(self):
        assert euler_xyx(rotation("y", np.pi / 2)) == pytest.approx(
            (0, np.pi / 2, 0), abs=1e-12
        )

    def test_pure_x(self):
        alpha, beta, delta = euler_xyx(rotation("x", 1.1))
        assert beta == pytest.approx(0, abs=1e-12)
        assert delta == 0.0
        assert alpha == pytest.approx(1.1, abs=1e-12)

    def test_minus_identity(self):
        alpha, beta, delta = euler_xyx(-np.eye(2, dtype=complex))
        got = rotation("x", alpha) @ rotation("y", beta) @ rotation("x", delta)
        assert max_norm(got + np.eye(2)) < 1e-12

    def test_round_trip(self, rng):
        for _ in range(100):
            k = random_su2(rng)
            alpha, beta, delta = euler_xyx(k)
            got = rotation("x", alpha) @ rotation("y", beta) @ rotation("x", delta)
            assert max_norm(got - k) < 1e-10
            assert -2 * np.pi < alpha <= 2 * np.pi
            assert 0 <= beta <= np.pi
            assert -2 * np.pi < delta <= 2 * np.pi

    def test_rejects_non_special(self):
        with pytest.raises(ValueError):
            euler_xyx(1j * np.eye(2))

    @pytest.mark.parametrize(
        "k, match",
        [
            (np.eye(3), "must be 2x2"),
            (1.001 * np.eye(2), "is not unitary"),
            (np.diag([1, 1j]), "is not det-1"),
            (np.full((2, 2), np.nan), "is not unitary"),
        ],
    )
    def test_shares_the_local_gate_check(self, k, match):
        with pytest.raises(ValueError, match=f"euler_xyx input {match}"):
            euler_xyx(k)

    def test_stack_matches_batch_of_one_at_gimbal_lock(self, rng):
        # beta near 0 (sin(beta/2) < 1e-9) and near pi (cos(beta/2) < 1e-9),
        # on both sides of the threshold, plus generic angles.
        betas = [0.0, 1e-12, 1e-10, 1.9e-9, 2.1e-9, np.pi - 2.1e-9, np.pi - 1.9e-9,
                 np.pi - 1e-10, np.pi, 0.7, 2.9]
        ks = []
        for beta in betas:
            for _ in range(4):
                alpha, delta = rng.uniform(-np.pi, np.pi, size=2)
                ks.append(rotation("x", alpha) @ rotation("y", beta) @ rotation("x", delta))
        ks += [np.eye(2, dtype=complex), -np.eye(2, dtype=complex)]
        stacked = _xyx_angles(np.array(ks))
        singles = [_xyx_angles(k[None])[0] for k in ks]
        loop = [_reference_euler(k) for k in ks]  # the per-matrix code it replaced
        assert repr(stacked) == repr(singles) == repr(loop)
        # delta is set to 0 exactly on the degenerate rows
        degenerate = [beta < 2e-9 or beta > np.pi - 2e-9 for beta in betas for _ in range(4)]
        assert [delta == 0.0 for _, _, delta in stacked] == degenerate + [True, True]


class TestCnotSchedule:
    def test_five_segments(self):
        s = synthesize(GateSpec.cnot(), 1.0, 1000.0)
        assert len(s.segments) == 5
        assert s.declared_drift_time == 0.5
        assert s.wall_time == pytest.approx(4 / 1000 + 0.5)

    def test_segment_table(self):
        n = 1000.0
        s = synthesize(GateSpec.cnot(), 1.0, n)
        got = [(seg.duration, seg.amplitudes.as_tuple()) for seg in s.segments]
        want = [
            (1 / n, (0.0, n / 2, 0.0, n / 4)),
            (0.5, (0.0, 0.0, 0.0, 0.0)),
            (1 / n, (0.0, -n / 4, 0.0, -n / 4)),
            (1 / n, (-n / 4, 0.0, -n / 4, 0.0)),
            (1 / n, (0.0, -n / 4, 0.0, 0.0)),
        ]
        assert got == want

    def test_drift_segment_is_half_period(self):
        s = synthesize(GateSpec.cnot(), 2.5, 1000.0)
        drift = [seg for seg in s.segments if seg.amplitudes.is_zero]
        assert len(drift) == 1
        assert drift[0].duration == 1 / (2 * 2.5)

    def test_hard_pulse_regime_enforced(self):
        with pytest.raises(HardPulseRegimeViolated):
            synthesize(GateSpec.cnot(), 1.0, 5.0)


class TestSynthesize:
    @pytest.mark.parametrize(
        "spec,drift",
        [
            (GateSpec.cnot(), 0.5),
            (GateSpec.swap(), 1.5),
            (GateSpec.sqrt_swap(), 0.75),
        ],
        ids=["cnot", "swap", "sqrtswap"],
    )
    def test_drift_time(self, spec, drift):
        s = synthesize(spec, 1.0, 1000.0)
        assert s.declared_drift_time == pytest.approx(drift, abs=1e-12)

    def test_swap_has_three_drift_windows(self):
        s = synthesize(GateSpec.swap(), 1.0, 1000.0)
        drift = [seg.duration for seg in s.segments if seg.amplitudes.is_zero]
        assert drift == [0.5, 0.5, 0.5]

    def test_sqrtswap_windows(self):
        s = synthesize(GateSpec.sqrt_swap(), 2.0, 1000.0)
        drift = [seg.duration for seg in s.segments if seg.amplitudes.is_zero]
        assert drift == [0.125, 0.125, 0.125]

    @pytest.mark.parametrize("j", [1.0, 2.5])
    def test_controlled_u_drift(self, j):
        spec = GateSpec.controlled_u(np.pi / 4, 0.0, 0.0)
        s = synthesize(spec, j, 1000.0 * j)
        assert s.declared_drift_time == pytest.approx(1 / (4 * j), abs=1e-12)

    def test_drift_matches_min_time(self, rng):
        specs = [
            GateSpec.cnot(),
            GateSpec.swap(),
            GateSpec.sqrt_swap(),
            GateSpec.controlled_u(0.3, -0.2, 0.9),
        ]
        for spec in specs:
            s = synthesize(spec, 1.0, 1000.0)
            want = min_time(spec.unitary(), 1.0).t_star
            assert abs(s.declared_drift_time - want) < 1e-12

    def test_pulse_durations_shrink_with_n(self):
        for n in (100.0, 1000.0, 10000.0):
            s = synthesize(GateSpec.swap(), 1.0, n)
            pulses = [seg.duration for seg in s.segments if not seg.amplitudes.is_zero]
            assert max(pulses) <= 4 / n
            assert s.wall_time - s.declared_drift_time == pytest.approx(
                sum(pulses), abs=1e-15
            )

    def test_peak_amplitude_convention(self):
        s = synthesize(GateSpec.swap(), 1.0, 1000.0)
        for seg in s.segments:
            if not seg.amplitudes.is_zero:
                assert max(abs(v) for v in seg.amplitudes.as_tuple()) == 500.0

    def test_deterministic(self):
        a = synthesize(GateSpec.controlled_u(0.4, 0.1, 0.0), 1.0, 1000.0)
        b = synthesize(GateSpec.controlled_u(0.4, 0.1, 0.0), 1.0, 1000.0)
        assert a.to_dict() == b.to_dict()

    def test_rejects_soft_pulses(self):
        with pytest.raises(HardPulseRegimeViolated):
            synthesize(GateSpec.swap(), 1.0, 9.9)

    @pytest.mark.parametrize("n", [float("nan"), float("inf"), pytest.param(10**400, id="ten-to-400")])
    @pytest.mark.parametrize("spec", [GateSpec.cnot(), GateSpec.controlled_u(0.4, 0.1, 0.0)],
                             ids=["cnot", "cu"])
    def test_rejects_non_finite_pulse_strength(self, spec, n):
        with pytest.raises(ValueError, match="pulse strength N must be finite"):
            synthesize(spec, 1.0, n)

    def test_an_int_pulse_strength_past_int64_reads_as_its_float(self):
        # Not the TypeError of np.isfinite on an int numpy cannot hold.
        with pytest.raises(ValueError) as as_float:
            synthesize(GateSpec.cnot(), 1.0, 1e300)
        with pytest.raises(ValueError) as as_int:
            synthesize(GateSpec.cnot(), 1.0, 10**300)
        assert str(as_int.value) == str(as_float.value)

    @pytest.mark.parametrize(
        "j, n, field, value",
        [(1.0, None, "pulse strength N", None), (1.0, "1e4", "pulse strength N", "1e4"),
         (1.0, True, "pulse strength N", True), (None, 1e4, "coupling J", None),
         ("1", 1e4, "coupling J", "1"), (True, 1e4, "coupling J", True)],
        ids=["n-None", "n-str", "n-bool", "j-None", "j-str", "j-bool"],
    )
    def test_rejects_a_value_that_is_not_a_number(self, j, n, field, value):
        message = f"{field} must be a number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as excinfo:
            synthesize(GateSpec.cnot(), j, n)
        assert excinfo.type is ValueError


NAMED = [GateSpec.cnot(), GateSpec.swap(), GateSpec.sqrt_swap()]


class TestDriftTime:
    """The drift time is read from the free-drift segments, for synthesized
    and loaded schedules alike."""

    def test_small_coupling_swap(self):
        j = 0.00010080936409388592
        s = synthesize(GateSpec.swap(), j, 1.0)
        windows = [seg.duration for seg in s.segments if seg.amplitudes.is_zero]
        assert windows == [1 / (2 * j)] * 3
        assert s.declared_drift_time == sum(windows)

    @pytest.mark.parametrize("spec", NAMED, ids=lambda s: s.name)
    def test_log_spaced_couplings(self, spec):
        # About 4% of these couplings made the three SWAP windows miss 3/(2J)
        # by more than an absolute 1e-12.
        for j in np.geomspace(1e-4, 1e-2, 2000):
            s = synthesize(spec, float(j), 1.0)
            want = min_time(spec.unitary(), float(j)).t_star
            assert s.declared_drift_time == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("spec", NAMED, ids=lambda s: s.name)
    def test_round_trip_keeps_drift_time(self, spec):
        for j in np.geomspace(1e-4, 1e4, 400):
            s = synthesize(spec, float(j), 10 * float(j))
            again = Schedule.from_dict(json.loads(json.dumps(s.to_dict())))
            assert again.declared_drift_time == s.declared_drift_time

    def test_not_a_constructor_argument(self):
        seg = PulseSegment(1.0, ControlAmplitudes(0, 0, 0, 0))
        with pytest.raises(TypeError):
            Schedule((seg,), 1.0, 100.0, GateSpec.cnot(), declared_drift_time=1.0)

    @pytest.mark.parametrize("j", [0.0, -0.0, -1.0, -1e-300])
    def test_rejects_non_positive_coupling(self, j):
        s = synthesize(GateSpec.cnot(), 1.0, 1000.0)
        with pytest.raises(NonPositiveCoupling, match="must be positive"):
            Schedule(s.segments, j, s.pulse_strength_n, s.target)
        with pytest.raises(NonPositiveCoupling):
            Schedule.from_dict({**s.to_dict(), "coupling_j_hz": j})


    @pytest.mark.parametrize("n", [-5.0, 0.0, -0.0, float("nan"), float("inf"), -float("inf"),
                                   pytest.param(10**400, id="ten-to-400"),
                                   pytest.param(-10**400, id="minus-ten-to-400")])
    def test_rejects_bad_pulse_strength(self, n):
        s = synthesize(GateSpec.cnot(), 1.0, 1000.0)
        with pytest.raises(ValueError, match="pulse strength N must be finite and positive"):
            Schedule(s.segments, s.coupling_j, n, s.target)
        with pytest.raises(ScheduleFormatError, match="pulse strength N"):
            Schedule.from_dict({**s.to_dict(), "pulse_strength_n": n})


class TestPythonInput:
    """From Python, ``from_dict`` also takes tuples, numpy arrays and numpy
    numbers where a JSON file holds arrays and numbers; bools stay refused."""

    def test_numpy_values_load(self):
        s = synthesize(GateSpec.controlled_u(0.3, -0.2, 0.1), 1.0, 1000.0)
        data = s.to_dict()
        data["coupling_j_hz"] = np.float32(1.0)
        data["pulse_strength_n"] = np.int64(1000)
        data["target"]["gamma"] = tuple(np.float64(g) for g in data["target"]["gamma"])
        data["segments"] = tuple(
            {"duration_s": np.float64(seg["duration_s"]), "v": np.array(seg["v"])}
            for seg in data["segments"]
        )
        assert Schedule.from_dict(data).to_dict() == s.to_dict()

    def test_numpy_matrix_loads(self):
        m = matrix_from_dict({"re": np.eye(4), "im": np.zeros((4, 4), dtype=np.float32)})
        assert m.tobytes() == np.eye(4, dtype=complex).tobytes()

    def test_numpy_bools_refused(self):
        data = synthesize(GateSpec.cnot(), 1.0, 1000.0).to_dict()
        data["segments"][0]["v"] = np.zeros(4, dtype=bool)
        with pytest.raises(ScheduleFormatError, match="segment 0 'v' must be an array of numbers"):
            Schedule.from_dict(data)


class TestAcceptedInput:
    """A file the readers accept loads to the schedule that was saved."""

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(16)
        specs = [GateSpec.cnot(), GateSpec.swap(), GateSpec.sqrt_swap()]
        specs += [GateSpec.controlled_u(*rng.uniform(-np.pi, np.pi, 3)) for _ in range(40)]
        specs += [GateSpec.custom(haar_unitary(rng)) for _ in range(50)]
        for spec in specs:
            for j in (1.0, 2.5):
                for n in (50.0, 1e3):
                    s = synthesize(spec, j, n)
                    again = Schedule.from_dict(json.loads(json.dumps(s.to_dict())))
                    # GateSpec.custom snaps the matrix it reads to the nearest
                    # unitary again, which can move its last bits.
                    if spec.name == "custom":
                        s = Schedule(s.segments, j, n, GateSpec.custom(s.target.matrix))
                    assert again.to_dict() == s.to_dict()
                    assert evolve(again).tobytes() == evolve(s).tobytes()


class TestDriftRule:
    """A segment is free drift iff all four amplitudes are exactly 0.0; the
    rule feeds the drift time only, since propagation diagonalizes every
    segment (tests/test_simulate.py::TestClosedFormReference pins drift
    segments to the closed form)."""

    @pytest.mark.parametrize(
        "v,drift",
        [
            ((0.0, 0.0, 0.0, 0.0), True),
            ((-0.0, 0.0, 0.0, -0.0), True),
            ((1e-16, 0.0, 0.0, 0.0), False),
            ((0.0, 0.0, 0.0, -5e-324), False),
        ],
    )
    def test_is_zero(self, v, drift):
        assert ControlAmplitudes(*v).is_zero is drift


class TestGateSpec:
    def test_custom_requires_unitary(self):
        with pytest.raises(Exception):
            GateSpec.custom(np.ones((4, 4)))

    def test_unitary_lookup(self):
        assert np.array_equal(GateSpec.cnot().unitary(), CNOT)
        assert np.array_equal(GateSpec.swap().unitary(), SWAP)
        assert np.array_equal(GateSpec.sqrt_swap().unitary(), SQRT_SWAP)

    @pytest.mark.parametrize("name, constant", [("cnot", CNOT), ("swap", SWAP), ("sqrtswap", SQRT_SWAP)])
    def test_reference_specs_hold_copies(self, name, constant):
        assert REFERENCE_GATES[name][0] is constant
        pristine = constant.copy()
        spec = GateSpec(name=name)
        u = spec.unitary()
        assert np.array_equal(u, pristine)
        u[0, 0] = 7.0
        assert np.array_equal(spec.unitary(), pristine)
        spec.matrix[0, 1] = 7.0
        assert np.array_equal(constant, pristine)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": "cnot", "matrix": np.eye(4)},
            {"name": "swap", "gamma": (0.1, 0.2, 0.3)},
            {"name": "cu", "gamma": (0.1, 0.2, 0.3), "matrix": np.eye(4)},
            {"name": "custom", "gamma": (0.1, 0.2, 0.3), "matrix": np.eye(4)},
            {"name": "custom"},
        ],
        ids=["cnot-matrix", "swap-gamma", "cu-matrix", "custom-gamma", "custom-no-matrix"],
    )
    def test_fields_match_the_kind(self, kwargs):
        # gamma belongs to cu and matrix to custom; no field is dropped.
        with pytest.raises(ValueError):
            GateSpec(**kwargs)

    def test_round_trip_named(self):
        spec = GateSpec.controlled_u(0.1, 0.2, 0.3)
        again = GateSpec.from_dict(spec.to_dict())
        assert again.gamma == spec.gamma

    def test_round_trip_custom(self):
        spec = GateSpec.custom(SQRT_SWAP.conj())
        again = GateSpec.from_dict(spec.to_dict())
        assert max_norm(again.unitary() - SQRT_SWAP.conj()) < 1e-15


def _haar_schedules(j, n):
    rng = np.random.default_rng(7)
    return [synthesize(GateSpec.custom(haar_unitary(rng)), j, n) for _ in range(8)]


def _one_segment(duration, amplitudes, j=1.0, n=1000.0):
    segment = PulseSegment(duration, ControlAmplitudes(*amplitudes))
    return [Schedule((segment,), j, n, GateSpec.cnot())]


# Schedules whose file must be json.dumps(indent=2) of their dict, byte for byte.
WRITER_CORPUS = {
    "haar-1-1e4": lambda: _haar_schedules(1.0, 1e4),
    "haar-2.5-50": lambda: _haar_schedules(2.5, 50.0),
    "named": lambda: [
        synthesize(GateSpec(name=name), j, n)
        for name in REFERENCE_GATES
        for j, n in ((1.0, 1000.0), (2.5, 50.0))
    ],
    "cu": lambda: [
        synthesize(GateSpec.controlled_u(*gamma), 1.0, 1e4)
        for gamma in np.random.default_rng(11).uniform(-3.0, 3.0, (6, 3))
    ],
    "no-segments": lambda: [synthesize(GateSpec.custom(np.eye(4)), 1.0, 1000.0)],
    "int-j-and-n": lambda: _one_segment(0.5, (0, 1, 0.0, 2), j=2, n=100),
    "numpy-float": lambda: _one_segment(
        np.float64(1e-3), (np.float64(0.1), 0.0, np.float64(-2.5), 0.0), j=np.float64(1.5)
    ),
}


class TestScheduleFile:
    def test_identity_has_no_segments(self):
        (schedule,) = WRITER_CORPUS["no-segments"]()
        assert schedule.segments == ()

    def test_round_trip(self, tmp_path):
        s = synthesize(GateSpec.swap(), 1.5, 100.0)
        path = tmp_path / "swap.sched"
        save_schedule(s, path)
        loaded = load_schedule(path)
        assert loaded.to_dict() == s.to_dict()
        assert loaded.declared_drift_time == s.declared_drift_time

    def test_full_double_precision(self, tmp_path):
        s = synthesize(GateSpec.controlled_u(1 / 3, 0, 0), 1.0, 997.0)
        path = tmp_path / "cu.sched"
        save_schedule(s, path)
        loaded = load_schedule(path)
        for a, b in zip(loaded.segments, s.segments):
            assert a.duration == b.duration
            assert a.amplitudes.as_tuple() == b.amplitudes.as_tuple()

    # The file bytes of the named gates' schedules (pure IEEE arithmetic, so
    # portable across machines).
    GOLDEN_SHA256 = {
        ("cnot", 1.0, 1000.0): "f64466f44b322f552c63ae12c516c7ae84dbc68244be14cf1fa8be76ad0224c6",
        ("cnot", 2.0, 1e4): "69a0652c0336f6b41f448e1046580494599acd1cb6458bff129361a9d053fe51",
        ("swap", 1.0, 1000.0): "bf3821d087257dc8d2be1537363763475434b94f133867b775b89fff518eea6e",
        ("swap", 2.0, 1e4): "e8d63f41b933a5138d6432c03a7c78ad3ba607e5f44f2ffbb47f40f727a34d3f",
        ("sqrtswap", 1.0, 1000.0): "3e88768f9ae111b69bf4a70f9e2c6c285d69d85976dbb0d89b541c0375f645d7",
        ("sqrtswap", 2.0, 1e4): "cea2fe0b32d8388578b1855b8e3be4245dad09eb8dbeacf6c01d245ba79f6004",
    }

    @pytest.mark.parametrize("key", list(GOLDEN_SHA256), ids=lambda k: "%s-%g-%g" % k)
    def test_golden_bytes(self, tmp_path, key):
        name, j, n = key
        path = tmp_path / "s.sched"
        save_schedule(synthesize(GateSpec(name=name), j, n), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.GOLDEN_SHA256[key]

    @pytest.mark.parametrize("case", list(WRITER_CORPUS))
    def test_writes_what_json_writes(self, tmp_path, case):
        path = tmp_path / "s.sched"
        for schedule in WRITER_CORPUS[case]():
            save_schedule(schedule, path)
            want = json.dumps(schedule.to_dict(), indent=2) + "\n"
            assert path.read_bytes() == want.encode("utf-8")

    # Overwriting a file: the same bytes, inode, links and permission bits as
    # a truncating ``open(path, "w")``.
    @staticmethod
    def _cnot():
        s = synthesize(GateSpec(name="cnot"), 1.0, 1000.0)
        return s, (json.dumps(s.to_dict(), indent=2) + "\n").encode("utf-8")

    def test_overwrite_longer_file(self, tmp_path, rng):
        path = tmp_path / "s.sched"
        save_schedule(synthesize(GateSpec.custom(haar_unitary(rng)), 1.0, 1e4), path)
        s, want = self._cnot()
        assert path.stat().st_size > len(want)
        save_schedule(s, path)
        assert path.read_bytes() == want

    def test_overwrite_through_symlink(self, tmp_path):
        target, link = tmp_path / "target.sched", tmp_path / "link.sched"
        target.write_bytes(b"x" * 10_000)
        link.symlink_to(target)
        s, want = self._cnot()
        save_schedule(s, link)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == want

    def test_overwrite_keeps_hard_link(self, tmp_path):
        path, other = tmp_path / "a.sched", tmp_path / "b.sched"
        path.write_bytes(b"x" * 10_000)
        os.link(path, other)
        s, want = self._cnot()
        save_schedule(s, path)
        assert os.path.samefile(path, other)
        assert other.read_bytes() == want

    def test_overwrite_keeps_mode(self, tmp_path):
        path = tmp_path / "s.sched"
        path.write_bytes(b"x" * 10_000)
        path.chmod(0o640)
        save_schedule(self._cnot()[0], path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    @pytest.mark.parametrize("umask", [0o002, 0o027])
    def test_new_file_mode_follows_umask(self, tmp_path, umask):
        path = tmp_path / "s.sched"
        old = os.umask(umask)
        try:
            save_schedule(self._cnot()[0], path)
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def test_dev_null(self):
        save_schedule(self._cnot()[0], os.devnull)

    def test_opens_without_truncating(self, tmp_path, monkeypatch):
        # A truncating open costs more than the whole write; the file is cut
        # to length after the write instead.
        flags, os_open = [], os.open

        def recording_open(path, f, *args):
            flags.append(f)
            return os_open(path, f, *args)

        monkeypatch.setattr(os, "open", recording_open)
        save_schedule(self._cnot()[0], tmp_path / "s.sched")
        assert flags and not any(f & os.O_TRUNC for f in flags)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.sched"
        path.write_text("not json")
        with pytest.raises(ScheduleFormatError):
            load_schedule(path)

    def test_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "bad.sched"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ScheduleFormatError, match="schedule file is not valid JSON"):
            load_schedule(path)

    def test_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bad2.sched"
        path.write_text(json.dumps({"segments": []}))
        with pytest.raises(ScheduleFormatError):
            load_schedule(path)


class TestScheduleNumbers:
    """A schedule holds Python floats of magnitude at most 1e150, decided
    when it is built: ints and numpy numbers convert, anything else raises."""

    def test_python_numbers_save_and_reload(self, tmp_path):
        # int, numpy.float64, numpy.float32 and numpy.int64 fields, in the
        # segments and in the cu gamma
        f32, f64, i64 = np.float32, np.float64, np.int64
        segments = (
            PulseSegment(f32(0.001), ControlAmplitudes(250, f64(-125.5), f32(0.1), 0)),
            PulseSegment(1, ControlAmplitudes(0, 0, 0, 0)),
            PulseSegment(f64(0.002), ControlAmplitudes(i64(-250), 0.0, f32(62.75), 0.0)),
        )
        spec = GateSpec(name="cu", gamma=(f32(0.25), -1, f64(0.5)))
        s = Schedule(segments, f32(1.5), i64(1000), spec)
        fields = [s.coupling_j, s.pulse_strength_n, *s.target.gamma]
        for seg in s.segments:
            fields += [seg.duration, *seg.amplitudes.as_tuple()]
        assert all(type(x) is float for x in fields)
        assert fields[:5] == [1.5, 1000.0, float(f32(0.25)), -1.0, 0.5]
        path = tmp_path / "s.sched"
        save_schedule(s, path)
        assert path.read_text() == json.dumps(s.to_dict(), indent=2) + "\n"
        again = load_schedule(path)
        assert again.to_dict() == s.to_dict()
        assert again.target.unitary().tobytes() == s.target.unitary().tobytes()
        assert evolve(again).tobytes() == evolve(s).tobytes()

    BAD = [True, np.bool_(False), None, "0.5", [0.5], float("nan"), float("inf"),
           -float("inf"), 1e151, -1e151, np.nextafter(1e150, 2e150)]
    BAD_IDS = ["true", "numpy-bool", "none", "str", "list", "nan", "inf", "minus-inf",
               "1e151", "minus-1e151", "next-after-1e150"]

    @pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
    @pytest.mark.parametrize(
        "build",
        [
            lambda x: ControlAmplitudes(0.0, 0.0, x, 0.0),
            lambda x: PulseSegment(x, ControlAmplitudes(0.0, 0.0, 0.0, 0.0)),
            lambda x: Schedule((), x, 1000.0, GateSpec.cnot()),
            lambda x: Schedule((), 1.0, x, GateSpec.cnot()),
            lambda x: GateSpec(name="cu", gamma=(0.0, x, 0.0)),
        ],
        ids=["amplitude", "duration", "coupling", "pulse-strength", "gamma"],
    )
    def test_rejected_at_construction(self, build, bad):
        with pytest.raises(ValueError):
            build(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_messages(self, bad):
        with pytest.raises(ValueError, match=r"^amplitude v3 must be finite, .*\(not NaN or Inf\)"):
            ControlAmplitudes(0.0, 0.0, bad, 0.0)
        with pytest.raises(ValueError, match=r"^coupling J must be finite, .*\(not NaN or Inf\)"):
            Schedule((), bad, 1000.0, GateSpec.cnot())
        with pytest.raises(ValueError, match=r"^gamma must be finite, .*\(not NaN or Inf\)"):
            GateSpec(name="cu", gamma=(0.0, bad, 0.0))

    def test_bool_gamma_cannot_reach_a_file(self):
        with pytest.raises(ValueError, match="^gamma must be a number, got True$"):
            synthesize(GateSpec(name="cu", gamma=(True, 0.0, 0.0)), 1, 1e3)

    def test_synthesize_names_a_pulse_strength_past_the_bound(self):
        with pytest.raises(ValueError, match=r"^pulse strength N must be finite, at most 1e150"):
            synthesize(GateSpec.cnot(), 1.0, 1e200)

    @pytest.mark.parametrize(
        "spec, j, n, got",
        [
            (GateSpec.cnot(), 1e-160, 1e-159, 1e159),  # the first pulse, 1/N
            (GateSpec.cnot(), 1e-160, 1.0, 5e159),  # the drift window, 1/(2J)
            (GateSpec.cnot(), 5e-324, 1.0, float("inf")),
            # The c3 window's drift, 0.045 / (pi J), and its sandwich pi pulses,
            # pi / (pi N), are both too long: the leading pulse comes first in time.
            (GateSpec.custom(bench_module("gen").haar_batch(3, 9)[8]), 1e-152, 9e-151,
             np.pi / (np.pi * 9e-151)),
        ],
        ids=["pulse", "drift", "infinite-drift", "window-drift"],
    )
    def test_synthesize_names_the_first_duration_past_the_bound(self, spec, j, n, got):
        rule = "finite and positive" if got == float("inf") else "finite, at most 1e150 in size"
        message = f"^segment duration must be {rule}.*, got {re.escape(repr(got))}$"
        with pytest.raises(ValueError, match=message):
            synthesize(spec, j, n)

    @pytest.mark.parametrize("gamma", [(), (0.1, 0.2), (0.1, 0.2, 0.3, 0.4), None])
    def test_gamma_count(self, gamma):
        count = 0 if gamma is None else len(gamma)
        with pytest.raises(ValueError, match=f"^cu needs 3 gamma values, got {count}$"):
            GateSpec(name="cu", gamma=gamma)

    @pytest.mark.parametrize("where", ["duration_s", "v", "coupling_j_hz", "pulse_strength_n"])
    def test_past_the_bound_in_a_file(self, tmp_path, where):
        data = synthesize(GateSpec.cnot(), 1.0, 1000.0).to_dict()
        if where in ("duration_s", "v"):
            data["segments"][1][where] = 1e151 if where == "duration_s" else [0.0, 0.0, -1e151, 0.0]
        else:
            data[where] = 1e151
        path = tmp_path / "s.sched"
        path.write_text(json.dumps(data))
        too_large = r"must be finite, at most 1e150 in size \(not NaN or Inf\), got -?1e\+151$"
        with pytest.raises(ScheduleFormatError, match=too_large):
            load_schedule(path)


def _reloaded(tmp_path):
    path = tmp_path / "haar.sched"
    save_schedule(_haar_schedules(1.0, 1e4)[0], path)
    return [load_schedule(path)]


def _numpy_numbers():
    # The schedule of ``TestScheduleNumbers.test_python_numbers_save_and_reload``.
    f32, f64, i64 = np.float32, np.float64, np.int64
    segments = (
        PulseSegment(f32(0.001), ControlAmplitudes(250, f64(-125.5), f32(0.1), 0)),
        PulseSegment(1, ControlAmplitudes(0, 0, 0, 0)),
        PulseSegment(f64(0.002), ControlAmplitudes(i64(-250), 0.0, f32(62.75), 0.0)),
    )
    spec = GateSpec(name="cu", gamma=(f32(0.25), -1, f64(0.5)))
    return [Schedule(segments, f32(1.5), i64(1000), spec)]


# (tmp_path -> schedules) whose table is checked against their segments.
TABLE_CORPUS = {
    **{name: lambda tmp_path, name=name: [synthesize(GateSpec(name=name), 2.5, 1000.0)]
       for name in REFERENCE_GATES},
    "cu": lambda tmp_path: [synthesize(GateSpec.controlled_u(0.3, -1.1, 0.7), 1.0, 1e4)],
    "haar": lambda tmp_path: _haar_schedules(1.0, 1e4),
    "reloaded": _reloaded,
    "empty": lambda tmp_path: [Schedule((), 1.0, 1000.0, GateSpec.cnot())],
    "numpy-numbers": lambda tmp_path: _numpy_numbers(),
    "signed-zeros": lambda tmp_path: _one_segment(0.5, (-0.0, 0.0, -0.0, 2.0)),
}


class TestScheduleTable:
    """``Schedule.table``: the segments as one read-only (S, 5) float64 array,
    a row (duration, v1, v2, v3, v4) per segment in time order, bit for bit."""

    @pytest.mark.parametrize("case", list(TABLE_CORPUS))
    def test_rows_are_the_segments(self, tmp_path, case):
        for schedule in TABLE_CORPUS[case](tmp_path):
            table = schedule.table
            assert table.shape == (len(schedule.segments), 5)
            assert table.dtype == np.float64
            numbers = [x for s in schedule.segments for x in (s.duration, *s.amplitudes.as_tuple())]
            # struct keeps the sign of a zero, so -0.0 and 0.0 differ here.
            assert table.tobytes() == struct.pack(f"{len(numbers)}d", *numbers)

    @pytest.mark.parametrize("case", list(TABLE_CORPUS))
    def test_read_only(self, tmp_path, case):
        for schedule in TABLE_CORPUS[case](tmp_path):
            with pytest.raises(ValueError, match="read-only"):
                schedule.table[...] = 0.0
            if len(schedule.table):
                with pytest.raises(ValueError, match="read-only"):
                    schedule.table[0, 1] = 1.0

    def test_not_a_constructor_argument(self):
        with pytest.raises(TypeError, match="table"):
            Schedule((), 1.0, 1000.0, GateSpec.cnot(), table=np.zeros((0, 5)))

    def test_no_other_attribute(self, tmp_path):
        # ``segments`` is the only name a schedule builds on first read.
        synthesized = synthesize(GateSpec.controlled_u(0.3, -1.1, 0.7), 1.0, 1e3)
        save_schedule(synthesized, tmp_path / "s.sched")
        for schedule in (synthesized, load_schedule(tmp_path / "s.sched")):
            with pytest.raises(AttributeError, match="^'Schedule' object has no attribute 'nope'$"):
                schedule.nope
            assert hasattr(schedule, "nope") is False


def _synthesis_specs():
    specs = [GateSpec.cnot(), GateSpec.swap(), GateSpec.sqrt_swap(), GateSpec.controlled_u(0.3, -1.1, 0.7)]
    return specs + [GateSpec.custom(haar_unitary(np.random.default_rng(28)))]


SYNTHESIS_IDS = ["cnot", "swap", "sqrtswap", "cu", "haar"]


class TestCouplingTypes:
    """J is read as a Python float once, on entry: a numpy J of the same value
    gives the same schedule, and a huge one fails as a float does."""

    def test_float32_drift_windows(self):
        cnot = synthesize(GateSpec.cnot(), np.float32(3.0), 1e3)
        assert cnot.coupling_j == 3.0
        assert [d for d, *v in cnot.table.tolist() if not any(v)] == [1 / 6]
        # float32 windows would sum to 0.5000000149011612
        assert synthesize(GateSpec.swap(), np.float32(3.0), 1e3).declared_drift_time == 0.5

    @pytest.mark.parametrize("j", [3, np.int64(3), np.float64(3.0), np.float32(3.0)], ids=repr)
    @pytest.mark.parametrize("spec", _synthesis_specs(), ids=SYNTHESIS_IDS)
    def test_same_table_as_a_python_float(self, spec, j):
        assert synthesize(spec, j, 1e3).table.tobytes() == synthesize(spec, 3.0, 1e3).table.tobytes()

    @pytest.mark.filterwarnings("error")  # no overflow warning from 10 * J
    def test_huge_numpy_coupling_is_below_the_threshold(self):
        with pytest.raises(HardPulseRegimeViolated, match=r"10\*J = inf$"):
            synthesize(GateSpec.cnot(), np.float64(1e308), 1e4)

    @pytest.mark.filterwarnings("error")  # no overflow warning from a float32 cast of 10 * J
    @pytest.mark.parametrize(
        "j, n, message",
        [
            (1.00000001, np.float32(10.0), "N = 10.0 below hard-pulse threshold 10*J = 10.0000001"),
            (1e149, np.float32(1e4), "N = 10000.0 below hard-pulse threshold 10*J = 1e+150"),
        ],
        ids=["at-the-threshold", "huge-coupling"],
    )
    def test_float32_pulse_strength_is_compared_as_a_float(self, j, n, message):
        with pytest.raises(HardPulseRegimeViolated, match=f"^pulse strength {re.escape(message)}$"):
            synthesize(GateSpec.cnot(), j, n)


class TestSegmentsOnFirstRead:
    """Synthesis writes the table; ``PulseSegment`` and ``ControlAmplitudes``
    objects are built only when ``segments`` is read."""

    @pytest.fixture
    def built(self, monkeypatch):
        names = []
        for cls in (PulseSegment, ControlAmplitudes):
            def counting(self, post_init=cls.__post_init__):
                names.append(type(self).__name__)
                post_init(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        return names

    @pytest.mark.parametrize("spec", _synthesis_specs(), ids=SYNTHESIS_IDS)
    def test_none_until_read(self, tmp_path, built, spec):
        s = synthesize(spec, 1.0, 1e4)
        s.declared_drift_time, s.wall_time, s.to_dict(), evolve(s)
        save_schedule(s, tmp_path / "s.sched")
        assert built == []
        segments = s.segments
        assert built == ["ControlAmplitudes", "PulseSegment"] * len(s.table)
        assert s.segments is segments

    def test_cli_schedule_builds_none(self, tmp_path, capsys, built):
        matrix = tmp_path / "m.json"
        matrix.write_text(json.dumps(matrix_to_dict(haar_unitary(np.random.default_rng(28)))))
        gates = [("--gate", name) for name in REFERENCE_GATES]
        gates += [("--gate", "cu", "--gamma1", "0.3", "--gamma2", "-1.1", "--gamma3", "0.7"),
                  ("--matrix", str(matrix))]
        for gate in gates:
            argv = ["schedule", *gate, "--coupling", "1", "--pulse-strength", "1e4",
                    "-o", str(tmp_path / "s.sched"), "--output", "json"]
            assert cli.main(argv) == 0
        assert capsys.readouterr().out.count('"segments"') == len(gates)
        assert built == []

    @pytest.mark.parametrize("spec", _synthesis_specs(), ids=SYNTHESIS_IDS)
    def test_loaded_none_until_read(self, tmp_path, built, spec):
        saved = synthesize(spec, 1.0, 1e4)
        save_schedule(saved, tmp_path / "s.sched")
        s = load_schedule(tmp_path / "s.sched")
        s.declared_drift_time, s.wall_time, s.to_dict(), evolve(s)
        save_schedule(s, tmp_path / "again.sched")
        assert built == []
        segments = s.segments
        assert built == ["ControlAmplitudes", "PulseSegment"] * len(s.table)
        assert s.segments is segments
        assert segments == saved.segments

    def test_cli_verify_builds_none(self, tmp_path, capsys, built):
        matrix = tmp_path / "m.json"
        matrix.write_text(json.dumps(matrix_to_dict(haar_unitary(np.random.default_rng(29)))))
        gates = [("--gate", name) for name in REFERENCE_GATES]
        gates += [("--gate", "cu", "--gamma1", "0.3", "--gamma2", "-1.1", "--gamma3", "0.7"),
                  ("--matrix", str(matrix))]
        path = str(tmp_path / "s.sched")
        for gate in gates:
            assert cli.main(["schedule", *gate, "--coupling", "1", "--pulse-strength", "1e4",
                             "-o", path]) == 0
            assert cli.main(["verify", "--schedule", path, "--output", "json"]) == 0
            assert cli.main(["simulate", "--schedule", path]) == 0
        assert capsys.readouterr().out.count('"pass": true') == len(gates)
        assert built == []


class TestUnknownKeys:
    def test_sorted_and_joined(self):
        data = synthesize(GateSpec.cnot(), 1.0, 1000.0).to_dict()
        segment = data["segments"][0]
        segment.update(zeta=1.0, alpha=2.0)
        with pytest.raises(ScheduleFormatError, match="^malformed schedule: segment 0 takes no "
                                                      "alpha, zeta$"):
            Schedule.from_dict(data)
        del segment["zeta"], segment["alpha"]
        data.update(zeta=1.0, alpha=2.0)
        with pytest.raises(ScheduleFormatError, match="^malformed schedule: a schedule takes no "
                                                      "alpha, zeta$"):
            Schedule.from_dict(data)


class TestValidation:
    def test_segment_duration_positive(self):
        with pytest.raises(ValueError):
            PulseSegment(0.0, ControlAmplitudes(0, 0, 0, 0))

    @pytest.mark.parametrize("duration", [float("inf"), float("nan"), -1.0])
    def test_segment_duration_message(self, duration):
        with pytest.raises(ValueError, match=f"^segment duration must be finite and positive, got {duration}$"):
            PulseSegment(duration, ControlAmplitudes(0, 0, 0, 0))


class TestMatrixCodec:
    """One {"re", "im"} form for --matrix files and custom schedule targets."""

    def test_round_trip_is_exact(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        data = json.loads(json.dumps(matrix_to_dict(m)))
        assert np.array_equal(matrix_from_dict(data), m)

    def test_custom_target_uses_it(self):
        spec = GateSpec.custom(SQRT_SWAP)
        assert spec.to_dict() == {"name": "custom", "matrix": matrix_to_dict(spec.matrix)}

    @pytest.mark.parametrize(
        "data",
        [
            [1, 2],
            {"im": np.zeros((4, 4)).tolist()},
            {"re": np.eye(4).tolist()},
            {"re": np.eye(3).tolist(), "im": np.zeros((3, 3)).tolist()},
            {"re": [[1, 0], [0]], "im": np.zeros((4, 4)).tolist()},
            {"re": [["a"] * 4] * 4, "im": np.zeros((4, 4)).tolist()},
            {"re": None, "im": None},
        ],
        ids=["list", "no-re", "no-im", "3x3", "ragged", "strings", "null"],
    )
    def test_malformed_raises_format_error(self, tmp_path, data):
        with pytest.raises(ScheduleFormatError):
            matrix_from_dict(data)
        path = tmp_path / "custom.sched"
        target = {"name": "custom", "matrix": data}
        path.write_text(json.dumps({"coupling_j_hz": 1.0, "pulse_strength_n": 1000.0,
                                    "target": target, "segments": []}))
        with pytest.raises(ScheduleFormatError):
            load_schedule(path)
