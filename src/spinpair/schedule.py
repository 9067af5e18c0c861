"""Hard-pulse schedule synthesis.

A schedule is an ordered list of piecewise-constant control segments for the
Hamiltonian H = H_d + v1 H1 + v2 H2 + v3 H3 + v4 H4, with the ZZ drift always
on.  Local rotations are realized as short, strong pulses: a constant
amplitude v on H = v*pi*sigma held for duration t rotates by 2*pi*v*t, so
synthesized pulses fix |v| = N/2 and modulate duration (the strongest qubit in
a merged segment gets exactly N/2).  Gate time is then paid almost entirely in
free-drift segments, whose total equals the analytic minimal time; the
residual infidelity is the physical O(J/N) hard-pulse error, not a numerical
artifact.

``synthesize`` is the one constructor of synthesized schedules.  It picks the
segment builder: CNOT uses the dedicated five-segment sequence; SWAP and
sqrt(SWAP) use the three-drift pulse products; everything else goes through
the Cartan decomposition, realizing each interaction coordinate as a
conjugated drift window (the drift natively accumulates negative ZZ phase, so
a positive coordinate needs a pi x-pulse sandwich on the second qubit).

No builder states a drift time.  A segment is free drift when all four
amplitudes are exactly 0.0 (``_free_drift``, the one place the rule lives;
propagation treats every segment alike), and ``Schedule`` reads its drift
time as the sum of those segments' durations, for synthesized and loaded
schedules alike.

The builders emit flat rows (duration, v1, v2, v3, v4) of Python floats, and
``Schedule.from_dict`` reads a file's segments into such rows; the schedule's
``segments`` are built from its table when first read, loaded or synthesized.

A schedule's numbers are decided when it is built, by one rule (``_check``):
amplitudes, durations, J, N and a cu gamma are Python floats within 1e150
(``linalg._SAFE_ENTRY``; ints, one past the double range as inf or -inf, and
numpy numbers convert as ``_number`` reads them, anything else raises
ValueError), so propagation cannot overflow and ``%r`` spells them.

The one scaled tolerance is the door for outside matrices.  A custom matrix
(``GateSpec.custom``: CLI ``--matrix`` input and custom targets in schedule
files) is accepted when ||U†U - I||_max is within ``input_tolerance()`` =
1e-8 times the scale, and is then snapped to the nearest unitary.
``tol_scale`` (CLI ``--tol-scale``) sets that scale for a ``with`` block, in
the calling thread or task only.  Every later check sees an exactly unitary
matrix and holds a fixed constant of its own module.
"""

from __future__ import annotations

import contextvars
import json
import math
import os
import stat
from collections.abc import Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import HardPulseRegimeViolated, NonPositiveCoupling, ScheduleFormatError
from .gates import CNOT, SQRT_SWAP, SWAP, controlled_u
from .kak import LocalGate, _require_su2, kak_decompose
from .linalg import _SAFE_ENTRY, _number, nearest_unitary, unitary4
from .mintime import require_coupling

COORD_SKIP = 1e-12  # interaction coordinates below this emit no segment
INPUT_TOL = 1e-8

_scale = contextvars.ContextVar("tol_scale", default=1.0)


@contextmanager
def tol_scale(factor: float):
    """Scale the custom-matrix input tolerance by ``factor`` (a number by
    ``_number``'s rule, finite, > 0; ValueError otherwise) for the ``with``
    block, then restore the caller's scale."""
    x = _number("tolerance scale", factor, ValueError)
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"tolerance scale must be finite and positive, got {factor}")
    token = _scale.set(x)
    try:
        yield
    finally:
        _scale.reset(token)


def input_tolerance() -> float:
    """Unitarity tolerance for custom-matrix input, read at call time."""
    return INPUT_TOL * _scale.get()


# A segment row's (column, name, also > 0), in the rule's order: v1..v4, then the duration.
_ROW_ORDER = (*((k, f"amplitude v{k}", False) for k in range(1, 5)), (0, "segment duration", True))


def _check(rows: Sequence[float], layout=_ROW_ORDER) -> Sequence[float]:
    """The schedule number rule: ``rows`` (flat floats, ``len(layout)`` to a row) if each is at
    most 1e150 in size (not NaN) and > 0 where marked; else a ValueError names the first."""
    # min, max and sum of a few floats cost less than numpy's reductions.
    if rows and not (-_SAFE_ENTRY <= min(rows) and max(rows) <= _SAFE_ENTRY
                     and (total := sum(rows)) == total  # False for a NaN that min and max skip
                     and all(min(rows[column::len(layout)]) > 0 for column, _, p in layout if p)):
        picked = np.array(rows, dtype=float).reshape(-1, len(layout))[:, [c for c, _, _ in layout]]
        good = (abs(picked) <= _SAFE_ENTRY) & ((picked > 0) | ~np.array([p for *_, p in layout]))
        first = int(np.argmin(good))  # row by row, in ``layout``'s order within a row
        x, (_, what, positive) = float(picked.flat[first]), layout[first % len(layout)]
        if positive and not 0 < x < math.inf:
            raise ValueError(f"{what} must be finite and positive, got {x}")
        raise ValueError(f"{what} must be finite, at most 1e150 in size (not NaN or Inf), got {x}")
    return rows


def _table(rows) -> np.ndarray:
    """Flat (duration, v1..v4) rows as a read-only (S, 5) table, once ``_check`` passes them."""
    table = np.array(_check(rows), dtype=float).reshape(-1, 5)
    table.flags.writeable = False
    return table


def _checked(what: str, value, positive: bool = False) -> float:
    """``value`` by ``_number``'s rule and then ``_check``'s (> 0 too when ``positive``)."""
    return _check((_number(what, value, ValueError),), ((0, what, positive),))[0]


@dataclass(frozen=True)
class ControlAmplitudes:
    """Dimensionless multipliers of the four control terms H1..H4."""

    v1: float
    v2: float
    v3: float
    v4: float

    def __post_init__(self):
        for name, x in zip(("v1", "v2", "v3", "v4"), self.as_tuple()):
            object.__setattr__(self, name, _checked(f"amplitude {name}", x))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.v1, self.v2, self.v3, self.v4)

    @property
    def is_zero(self) -> bool:
        """Free drift (``_free_drift``): the segments whose durations make up
        the schedule's drift time."""
        return _free_drift(self.v1, self.v2, self.v3, self.v4)


def _free_drift(v1: float, v2: float, v3: float, v4: float) -> bool:
    """The drift rule: all four amplitudes exactly 0.0, -0.0 included (NaN is
    true, so never drift)."""
    return not (v1 or v2 or v3 or v4)


@dataclass(frozen=True)
class PulseSegment:
    duration: float
    amplitudes: ControlAmplitudes

    def __post_init__(self):
        object.__setattr__(self, "duration", _checked("segment duration", self.duration, True))


def matrix_to_dict(m: np.ndarray) -> dict:
    """The JSON form of a complex matrix: row-major 're' and 'im' arrays."""
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _array(where: str, value):
    """``value`` if it is a JSON array (from Python, also a tuple or a numpy array)."""
    if isinstance(value, (list, tuple)) or (isinstance(value, np.ndarray) and value.ndim > 0):
        return value
    raise ScheduleFormatError(f"{where} must be an array, got {value!r}")


def _numbers(where: str, value) -> list[float]:
    """An array of numbers, read as floats in one pass."""
    try:
        return [_number(where, x) for x in _array(where, value)]
    except ScheduleFormatError:
        raise ScheduleFormatError(f"{where} must be an array of numbers, got {value!r}") from None


def _object(where: str, value) -> Mapping:
    """``value`` if it is a JSON object (from Python, any mapping)."""
    if type(value) is dict:
        return value
    if not isinstance(value, Mapping):
        raise ScheduleFormatError(f"{where} must be an object, got {value!r}")
    return value


def _only(keys, data: Mapping, where: str, rule: str = "takes no") -> None:
    """ScheduleFormatError '{where} {rule} {sorted keys of data not in keys}'.  Called
    once every key in ``keys`` has been read from ``data``, so equal sizes mean no other."""
    if len(data) != len(keys):
        raise ScheduleFormatError(f"{where} {rule} {', '.join(sorted(set(data) - keys))}")


def matrix_from_dict(data) -> np.ndarray:
    """Inverse of ``matrix_to_dict``; ScheduleFormatError unless exactly two
    4x4 arrays of numbers, 're' and 'im'."""
    parts = []
    for key in ("re", "im"):
        if key not in _object("matrix", data):
            raise ScheduleFormatError(f"matrix must have 4x4 're' and 'im' arrays: '{key}'")
        rows = [_numbers(f"matrix '{key}' row", r) for r in _array(f"matrix '{key}'", data[key])]
        if len(rows) != 4 or any(len(row) != 4 for row in rows):
            raise ScheduleFormatError(f"matrix '{key}' must be a 4x4 array, row-major")
        parts.append(rows)
    _only({"re", "im"}, data, "a matrix", "takes only 're' and 'im', not")
    re, im = np.array(parts)
    with np.errstate(invalid="ignore"):  # 1j * inf is NaN + inf j, which unitary4 rejects
        return re + 1j * im


def read_json(path, what: str):
    """The JSON document in a file; ScheduleFormatError unless it is UTF-8 JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=float)  # so 10**400 reads as inf, as 1e400 does
        except (ValueError, RecursionError) as exc:  # also UnicodeDecodeError, deep nesting
            raise ScheduleFormatError(f"{what} is not valid JSON: {exc}") from exc


@dataclass(frozen=True, eq=False)
class GateSpec:
    """Target gate: a reference gate, a controlled-U, or a custom matrix.

    Only a cu gate takes ``gamma`` (three angles) and only a custom gate takes
    ``matrix``; a field the kind does not use is rejected, not dropped.

    The matrix is resolved once, at construction.  A custom matrix is the one
    input checked at the scaled tolerance (``input_tolerance()``, 1e-8 times
    --tol-scale) and is then snapped to the nearest unitary; rounded or
    measured matrices enter here.
    """

    name: str
    gamma: tuple[float, float, float] | None = None
    matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.name not in (*REFERENCE_GATES, "cu", "custom"):
            raise ValueError(f"unknown gate name {self.name!r}")
        if self.name != "cu" and self.gamma is not None:
            raise ValueError(f"gamma parameters are for a cu gate, not {self.name!r}")
        if self.name != "custom" and self.matrix is not None:
            raise ValueError(f"a matrix is for a custom gate, not {self.name!r}")
        if self.name == "cu":
            gamma = () if self.gamma is None else tuple(self.gamma)
            if len(gamma) != 3:
                raise ValueError(f"cu needs 3 gamma values, got {len(gamma)}")
            object.__setattr__(self, "gamma", tuple(_checked("gamma", g) for g in gamma))
            matrix = controlled_u(*self.gamma)
        elif self.name == "custom":
            if self.matrix is None:
                raise ValueError("custom gate requires a matrix")
            matrix = nearest_unitary(unitary4(self.matrix, tol=input_tolerance()))
        else:
            matrix = REFERENCE_GATES[self.name][0].copy()
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def cnot(cls) -> "GateSpec":
        return cls(name="cnot")

    @classmethod
    def swap(cls) -> "GateSpec":
        return cls(name="swap")

    @classmethod
    def sqrt_swap(cls) -> "GateSpec":
        return cls(name="sqrtswap")

    @classmethod
    def controlled_u(cls, gamma1: float, gamma2: float, gamma3: float) -> "GateSpec":
        return cls(name="cu", gamma=(gamma1, gamma2, gamma3))

    @classmethod
    def custom(cls, matrix) -> "GateSpec":
        return cls(name="custom", matrix=np.asarray(matrix, dtype=complex))

    def unitary(self) -> np.ndarray:
        return self.matrix.copy()

    def to_dict(self) -> dict:
        if self.name == "cu":
            return {"name": "cu", "gamma": list(self.gamma)}
        if self.name == "custom":
            return {"name": "custom", "matrix": matrix_to_dict(self.matrix)}
        return {"name": self.name}

    @classmethod
    def from_dict(cls, data: dict) -> "GateSpec":
        try:
            name = _object("malformed gate description: a target", data)["name"]
            if name == "cu":
                gamma = _numbers("malformed gate description: 'gamma'", data["gamma"])
                try:
                    spec = cls(name="cu", gamma=gamma)
                except ValueError as exc:
                    raise ScheduleFormatError(f"malformed gate description: {exc}") from None
            elif name == "custom":
                spec = cls.custom(matrix_from_dict(data["matrix"]))
            else:
                spec = cls(name=name)
        except KeyError as exc:
            raise ScheduleFormatError(f"malformed gate description: {exc}") from exc
        keys = {"cu": {"name", "gamma"}, "custom": {"name", "matrix"}}.get(spec.name, {"name"})
        _only(keys, data, f"malformed gate description: a {spec.name} target")
        return spec

    def label(self) -> str:
        if self.name == "cu":
            return "cu(%.12g, %.12g, %.12g)" % self.gamma
        return self.name


@dataclass(frozen=True, eq=False)
class Schedule:
    segments: tuple[PulseSegment, ...]
    coupling_j: float
    pulse_strength_n: float
    target: GateSpec
    # The segments as one read-only (S, 5) array, a row (duration, v1..v4) each.
    table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rows = [x for s in self.segments for x in (s.duration, *s.amplitudes.as_tuple())]
        j, n = _coupling_and_strength(self.coupling_j, self.pulse_strength_n)
        vars(self).update(coupling_j=j, pulse_strength_n=n, table=_table(rows))

    @classmethod
    def _from_table(cls, table: np.ndarray, j: float, n: float, target: GateSpec) -> "Schedule":
        """A schedule of a ``_table`` and checked J and N; ``segments`` is built on first read."""
        schedule = cls.__new__(cls)
        vars(schedule).update(target=target, coupling_j=j, pulse_strength_n=n, table=table)
        return schedule

    def __getattr__(self, name):
        # Only a schedule from ``_from_table`` lacks ``segments``: the table's rows, read once.
        if name != "segments":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        views = (PulseSegment(d, ControlAmplitudes(*v)) for d, *v in self.table.tolist())
        return vars(self).setdefault("segments", tuple(views))

    @property
    def declared_drift_time(self) -> float:
        """Total duration of the free-drift segments, in time order; read from
        the table, never declared by the caller."""
        rows = self.table.tolist()
        return float(sum(d for d, v1, v2, v3, v4 in rows if _free_drift(v1, v2, v3, v4)))

    @property
    def wall_time(self) -> float:
        return float(sum(self.table[:, 0].tolist()))  # left to right, unlike np.sum

    def to_dict(self) -> dict:
        return {
            "coupling_j_hz": self.coupling_j,
            "pulse_strength_n": self.pulse_strength_n,
            "target": self.target.to_dict(),
            "segments": [{"duration_s": d, "v": v} for d, *v in self.table.tolist()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Schedule":
        """A JSON document's schedule, read field by field and then held to ``_check``'s rule."""
        try:
            data = _object("malformed schedule: a schedule", data)
            rows, segments = [], _array("malformed schedule: 'segments'", data["segments"])
            try:
                for i, seg in enumerate(segments):
                    where = f"malformed schedule: segment {i}"
                    duration = _number(f"{where} 'duration_s'", _object(where, seg)["duration_s"])
                    v = _numbers(f"{where} 'v'", seg["v"])
                    if len(v) != 4:
                        raise ScheduleFormatError(f"{where} needs 4 amplitudes, got {len(v)}")
                    _only({"duration_s", "v"}, seg, where)
                    rows.append(duration)
                    rows += v
            except (KeyError, ScheduleFormatError):
                _check(rows)  # a bad number in an earlier segment is named first
                raise
            table = _table(rows)
            target = GateSpec.from_dict(data["target"])
            j = _number("malformed schedule: 'coupling_j_hz'", data["coupling_j_hz"])
            n = _number("malformed schedule: 'pulse_strength_n'", data["pulse_strength_n"])
            _only({"coupling_j_hz", "pulse_strength_n", "target", "segments"}, data,
                  "malformed schedule: a schedule")
            return cls._from_table(table, *_coupling_and_strength(j, n), target)
        except (KeyError, ValueError) as exc:
            raise ScheduleFormatError(f"malformed schedule: {exc}") from exc


def _coupling_and_strength(j, n) -> tuple[float, float]:
    """J and N as schedule numbers (``_checked``), J also > 0."""
    j = _checked("coupling J", j)
    if j <= 0:
        raise NonPositiveCoupling(f"coupling J must be positive, got {j}")
    return j, _checked("pulse strength N", n, True)


_quote = json.encoder.encode_basestring_ascii


def _json(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2, allow_nan=False)`` with ``pad`` after each
    newline, for the types reports hold, tested in json's order; any other value
    (a non-finite float, a key that is not a str) goes to ``json.dumps``."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if -math.inf < value < math.inf:
            return float.__repr__(value)
    elif isinstance(value, (list, tuple)):
        inner = pad + "  "
        items = [_json(x, inner) for x in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]" if items else "[]"
    elif isinstance(value, dict) and all(isinstance(key, str) for key in value):
        inner = pad + "  "
        items = [_quote(key) + ": " + _json(x, inner) for key, x in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}" if items else "{}"
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n" + pad)


# The file and one of its segments in json's indent-2 layout.
_FILE = """{
  "coupling_j_hz": %r,
  "pulse_strength_n": %r,
  "target": %s,
  "segments": %s
}
"""
_SEGMENT = """    {
      "duration_s": %r,
      "v": [
        %r,
        %r,
        %r,
        %r
      ]
    }"""


def save_schedule(schedule: Schedule, path) -> None:
    """Write ``json.dumps(schedule.to_dict(), indent=2)`` and a newline to
    ``path`` in one write, the text built first from the templates and, for
    the target, ``_json``.  Every number is a finite Python float (see
    ``_check``), which ``%r`` spells as json does.

    An existing file is overwritten in place: opened without ``O_TRUNC`` (a
    truncating open costs far more than the write on ext4), written from
    offset 0 and then cut to the text's length.  The inode and path are those
    ``open(path, "w")`` uses, so links and permissions are kept; a device or
    pipe, which ``O_TRUNC`` leaves alone, cannot be cut and is not."""
    segments = ",\n".join(_SEGMENT % tuple(row) for row in schedule.table.tolist())
    text = _FILE % (
        schedule.coupling_j,
        schedule.pulse_strength_n,
        _json(schedule.target.to_dict(), "  "),
        "[\n%s\n  ]" % segments if segments else "[]",
    )
    with open(path, "w", encoding="utf-8", opener=_open_in_place) as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _open_in_place(path, flags):
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def load_schedule(path) -> Schedule:
    return Schedule.from_dict(read_json(path, "schedule file"))


def euler_xyx(k) -> tuple[float, float, float]:
    """Angles (alpha, beta, delta) with k = R_x(alpha) R_y(beta) R_x(delta).

    k must be in SU(2).  The control set has no sigma_z term, so X-Y-X Euler
    angles are the natural primitive for rendering local gates as pulses.
    Gimbal-degenerate inputs (beta near 0 or pi) return delta = 0.
    """
    k = np.asarray(k, dtype=complex)
    _require_su2(k, "euler_xyx input")
    return _xyx_angles(k[None])[0]


def _xyx_angles(k) -> list[tuple[float, float, float]]:
    """``euler_xyx`` over a stack (n, 2, 2) already known to be in SU(2), one
    (alpha, beta, delta) per matrix."""
    # Real quaternion-like components: k = cos(b/2)cos(s) - i [...] with
    # s = (alpha+delta)/2, d = (alpha-delta)/2, b = beta.
    top = k[:, 0]
    x = top.real * (1.0, -1.0)  # cos(b/2) cos(s), sin(b/2) cos(d)
    y = -top.imag[:, ::-1]  # cos(b/2) sin(s), sin(b/2) sin(d)
    halves = np.hypot(x, y)  # cos(b/2), sin(b/2)
    betas = 2 * np.arctan2(halves[:, 1], halves[:, 0])
    eps = 1e-9
    angles = []
    for (cos_half, sin_half), (s, d), beta in zip(
        halves.tolist(), np.arctan2(y, x).tolist(), betas.tolist()
    ):
        if sin_half < eps:
            angles.append((2 * s, beta, 0.0))
        elif cos_half < eps:
            angles.append((2 * d, beta, 0.0))
        else:
            angles.append((s + d, beta, s - d))
    return angles


def _pulse(axis: str, q1_angle: float, q2_angle: float, n: float) -> tuple[float, ...]:
    """One merged hard-pulse segment rotating both qubits about one axis, as
    a row (duration, v1, v2, v3, v4), or no row for angles within 1e-12.

    The qubit with the larger rotation runs at amplitude exactly +-N/2; the
    other is scaled down so both finish together.
    """
    peak = max(abs(q1_angle), abs(q2_angle))
    if peak <= 1e-12:
        return ()
    duration = peak / (np.pi * n)
    q1, q2 = (q1_angle / peak) * (n / 2), (q2_angle / peak) * (n / 2)
    return (duration, q1, 0.0, q2, 0.0) if axis == "x" else (duration, 0.0, q1, 0.0, q2)


def _drift(duration: float) -> tuple[float, ...]:
    return (duration, 0.0, 0.0, 0.0, 0.0)


def _local_stages(a_angles, b_angles, n: float) -> tuple[float, ...]:
    """Render a local pair a (x) b, given the XYX angles of both factors, as
    merged X, Y, X pulse stages (time order), flat rows."""
    (a1, b1, d1), (a2, b2, d2) = a_angles, b_angles
    return _pulse("x", d1, d2, n) + _pulse("y", b1, b2, n) + _pulse("x", a1, a2, n)


def _cnot_segments(coupling_j: float, n: float) -> tuple[float, ...]:
    # One free-drift window of 1/(2J) framed by four hard pulses.
    tau = 1.0 / n
    return (
        tau, 0.0, n / 2, 0.0, n / 4,
        *_drift(1.0 / (2 * coupling_j)),
        tau, 0.0, -n / 4, 0.0, -n / 4,
        tau, -n / 4, 0.0, -n / 4, 0.0,
        tau, 0.0, -n / 4, 0.0, 0.0,
    )


def _swap_family_segments(drift_duration: float, n: float) -> tuple[float, ...]:
    # Three equal drift windows conjugated onto the ZZ, YY and XX axes.  The
    # pulse train realizes, right to left in time:
    #   exp(i/4(H2-H4)) D exp(-i/4(H2-H4)) exp(-i/4(H1-H3)) D
    #   exp(-i/4(H1+H3)) D exp(i/2 H1)
    half = np.pi / 2
    drift = _drift(drift_duration)
    return (
        _pulse("x", -np.pi, 0.0, n) + drift
        + _pulse("x", half, half, n) + drift
        + _pulse("x", half, -half, n) + _pulse("y", half, -half, n) + drift
        + _pulse("y", -half, half, n)
    )


# The paper's reference gates: name -> (matrix, segment builder (J, N)).  Every
# other target goes through the Cartan decomposition.
REFERENCE_GATES = {
    "cnot": (CNOT, _cnot_segments),
    "swap": (SWAP, lambda j, n: _swap_family_segments(1.0 / (2 * j), n)),
    "sqrtswap": (SQRT_SWAP, lambda j, n: _swap_family_segments(1.0 / (4 * j), n)),
}


# Drift windows in time order: (coordinate index, axis, (q1, q2) angles of the
# pulse before, of the pulse after).  The drift accumulates exp(-i theta ZZ), so
# a negative coordinate is free drift; a positive one is sandwiched to flip ZZ
# (1 (x) X), or turn it into -YY or -XX.  Angles are not negated: no -0.0.
_WINDOWS = (
    (2, "x", (0.0, np.pi), (0.0, -np.pi)),
    (1, "x", (-np.pi / 2, np.pi / 2), (np.pi / 2, -np.pi / 2)),
    (0, "y", (np.pi / 2, -np.pi / 2), (-np.pi / 2, np.pi / 2)),
)


def _kak_table(u, coupling_j: float, n: float) -> np.ndarray:
    decomposition = kak_decompose(u)
    k1, k2 = decomposition.k1, decomposition.k2
    # ``LocalGate`` has already applied ``euler_xyx``'s SU(2) check to all four.
    angles = _xyx_angles(np.stack([k2.a, k2.b, k1.a, k1.b]))
    rows = list(_local_stages(angles[0], angles[1], n))
    drift_checks = []  # each sandwiched window's drift, after the rows before its pulses
    for index, axis, before, after in _WINDOWS:
        c = decomposition.coords.as_tuple()[index]
        if abs(c) <= COORD_SKIP:
            continue
        window = _drift(abs(c) / (np.pi * coupling_j))
        if c > 0:
            drift_checks += [*rows, *window]
            window = _pulse(axis, *before, n) + window + _pulse(axis, *after, n)
        rows += window
    rows += _local_stages(angles[2], angles[3], n)
    try:
        return _table(rows)
    except ValueError:  # an error names a drift before its window's pulses
        _check(drift_checks)
        raise


def synthesize(spec: GateSpec, coupling_j: float, pulse_strength_n: float) -> Schedule:
    """Build a time-optimal hard-pulse schedule for the target gate.

    The total duration of the zero-amplitude (free drift) segments equals the
    analytic minimal time of the gate; all pulse segments shrink as 1/N.
    """
    j = require_coupling(coupling_j)  # a float: a numpy J would carry its own precision
    n = _number("pulse strength N", pulse_strength_n, ValueError)  # a bool, None or str stops here
    if not math.isfinite(n):
        raise ValueError(f"pulse strength N must be finite, got {pulse_strength_n}")
    if pulse_strength_n < 10 * j:
        raise HardPulseRegimeViolated(f"pulse strength N = {pulse_strength_n} below "
                                      f"hard-pulse threshold 10*J = {10 * j}")
    n = _checked("pulse strength N", n, True)
    if spec.name in REFERENCE_GATES:
        table = _table(REFERENCE_GATES[spec.name][1](j, n))
    else:
        table = _kak_table(spec.unitary(), j, n)
    return Schedule._from_table(table, j, n, spec)
