"""The schedule number rule, held in one place: ``schedule._check``.

`_ReferenceSegment` and `_ReferenceAmplitudes` below are the view classes'
checks before the rule moved into ``_check``, kept as written with the
`_checked` they called: one number at a time, the four amplitudes before
the duration.  The views as they are now, ``_table`` (the rule, then the
read-only table) and ``Schedule.from_dict`` must accept the same flat
tables, with the same bits, and reject the others with the same exception
type and message, row by row.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpair.errors import ScheduleFormatError
from spinpair.linalg import _SAFE_ENTRY, _number
from spinpair.mintime import min_time
from spinpair.schedule import (
    ControlAmplitudes,
    GateSpec,
    PulseSegment,
    Schedule,
    _table,
    synthesize,
)


def _reference_checked(what: str, value, positive: bool = False) -> float:
    x = _number(what, value, ValueError)
    if positive and not 0 < x < math.inf:
        raise ValueError(f"{what} must be finite and positive, got {x}")
    if not abs(x) <= _SAFE_ENTRY:  # NaN too
        raise ValueError(f"{what} must be finite, at most 1e150 in size (not NaN or Inf), got {x}")
    return x


@dataclass(frozen=True)
class _ReferenceAmplitudes:
    v1: float
    v2: float
    v3: float
    v4: float

    def __post_init__(self):
        # One test for the common case, four floats in range (False for NaN).
        v1, v2, v3, v4 = self.v1, self.v2, self.v3, self.v4
        if not (
            type(v1) is type(v2) is type(v3) is type(v4) is float
            and -_SAFE_ENTRY <= v1 <= _SAFE_ENTRY and -_SAFE_ENTRY <= v2 <= _SAFE_ENTRY
            and -_SAFE_ENTRY <= v3 <= _SAFE_ENTRY and -_SAFE_ENTRY <= v4 <= _SAFE_ENTRY
        ):
            for name, v in zip(("v1", "v2", "v3", "v4"), (v1, v2, v3, v4)):
                object.__setattr__(self, name, _reference_checked(f"amplitude {name}", v))


@dataclass(frozen=True)
class _ReferenceSegment:
    duration: float
    amplitudes: _ReferenceAmplitudes

    def __post_init__(self):
        if not (type(self.duration) is float and 0.0 < self.duration <= _SAFE_ENTRY):
            object.__setattr__(
                self, "duration", _reference_checked("segment duration", self.duration, True)
            )


def _first_error(segment, amplitudes, rows):
    """The (type, message) of the first row ``segment(d, amplitudes(*v))``
    rejects, or None."""
    try:
        for i in range(0, len(rows), 5):
            segment(rows[i], amplitudes(*rows[i + 1 : i + 5]))
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def _outcome(build):
    try:
        table = build()
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)
    return table.tobytes(), table.shape, table.flags.writeable


NAN, INF = float("nan"), float("inf")
# Each breaks the rule somewhere: in every column, or as a duration only.
BAD = [NAN, INF, -INF, 1e151, -1e151, float(np.nextafter(1e150, INF)), -float(np.nextafter(1e150, INF)),
       0.0, -0.0, -1.5, -5e-324]
EDGE = [1e150, -1e150, 5e-324, -0.0, 0.0]  # within the rule as amplitudes; 1e150, 5e-324 as durations


@st.composite
def _tables(draw):
    """Flat (duration, v1..v4) rows of floats with several bad entries injected."""
    durations = st.floats(min_value=1e-9, max_value=1e3) | st.sampled_from([1e150, 5e-324])
    amplitudes = st.floats(min_value=-1e3, max_value=1e3) | st.sampled_from(EDGE)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        rows += [draw(durations), *(draw(amplitudes) for _ in range(4))]
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.sampled_from(BAD))
    return rows


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_tables())
def test_table_matches_the_per_row_reference(rows):
    error = _first_error(_ReferenceSegment, _ReferenceAmplitudes, rows)
    assert _first_error(PulseSegment, ControlAmplitudes, rows) == error
    want = error or (np.array(rows, dtype=float).tobytes(), (len(rows) // 5, 5), False)
    assert _outcome(lambda: _table(rows)) == want
    document = {
        "coupling_j_hz": 1.0,
        "pulse_strength_n": 1e4,
        "target": {"name": "cnot"},
        "segments": [{"duration_s": rows[i], "v": rows[i + 1 : i + 5]} for i in range(0, len(rows), 5)],
    }
    if error:
        want = (ScheduleFormatError, f"malformed schedule: {error[1]}")
    assert _outcome(lambda: Schedule.from_dict(document).table) == want


# An int past the double range: each call raises what it raises for an
# infinity of the same sign.  A message that echoes the value as given ends
# with the int in place of inf.
PAST_THE_DOUBLE_RANGE = {
    "synthesize-j": lambda x: synthesize(GateSpec.cnot(), x, 1e4),
    "min-time-j": lambda x: min_time(np.eye(4), x),
    "gamma": lambda x: GateSpec.controlled_u(x, 0, 0),
    "amplitude": lambda x: ControlAmplitudes(x, 0.0, 0.0, 0.0),
    "duration": lambda x: PulseSegment(x, ControlAmplitudes(0.0, 0.0, 0.0, 0.0)),
    "schedule-j": lambda x: Schedule((), x, 1e4, GateSpec.cnot()),
}


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
@pytest.mark.parametrize("call", list(PAST_THE_DOUBLE_RANGE.values()), ids=list(PAST_THE_DOUBLE_RANGE))
def test_an_int_past_the_double_range_reads_as_infinite(call, sign):
    with pytest.raises(Exception) as infinite:
        call(sign * math.inf)
    with pytest.raises(Exception) as huge:
        call(sign * 10**400)
    assert huge.type is infinite.type
    rule, _, value = str(huge.value).rpartition(", got ")
    assert rule == str(infinite.value).rpartition(", got ")[0]
    assert value in (str(sign * math.inf), str(sign * 10**400))
