"""Schedule files in and out, against the code they replaced.

`_reference_from_dict` below is the earlier object-building
`Schedule.from_dict`, kept as written with the `_number` and `_object` it
called: one `PulseSegment`/`ControlAmplitudes` pair per segment, handed to
`Schedule`'s constructor.  The row reader must accept the same documents with
the same table bits, J, N and target, and reject the others with the same
exception type and message, over a fixed corpus of synthesized files and
their mutations.

`_json` must write what `json.dumps(value, indent=2, allow_nan=False)`
writes, over every CLI report and the edge values of each JSON type, and
raise json's own error where json raises.  Unlike json's pure-Python
encoder, it leaves no reference cycle behind, so a CLI request makes no
cyclic garbage at all.
"""

import gc
import json
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np
import pytest

from spinpair import cli
from spinpair.errors import ScheduleFormatError
from spinpair.schedule import (
    ControlAmplitudes,
    GateSpec,
    PulseSegment,
    Schedule,
    _array,
    _json,
    _numbers,
    _only,
    matrix_to_dict,
    read_json,
    save_schedule,
    synthesize,
)

from conftest import bench_module, haar_unitary


def _number(where: str, value, error=ScheduleFormatError) -> float:
    """``value`` as a float if it is a JSON number (from Python, also a numpy
    integer or float; never a bool), else ``error`` naming ``where``."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        return float(value)
    raise error(f"{where} must be a number, got {value!r}")


def _object(where: str, value) -> Mapping:
    """``value`` if it is a JSON object (from Python, any mapping)."""
    if not isinstance(value, Mapping):
        raise ScheduleFormatError(f"{where} must be an object, got {value!r}")
    return value


def _reference_from_dict(data: dict) -> Schedule:
    try:
        data = _object("malformed schedule: a schedule", data)
        segments = []
        for i, seg in enumerate(_array("malformed schedule: 'segments'", data["segments"])):
            where = f"malformed schedule: segment {i}"
            duration = _number(f"{where} 'duration_s'", _object(where, seg)["duration_s"])
            v = _numbers(f"{where} 'v'", seg["v"])
            if len(v) != 4:
                raise ScheduleFormatError(f"{where} needs 4 amplitudes, got {len(v)}")
            _only({"duration_s", "v"}, seg, where)
            segments.append(PulseSegment(duration, ControlAmplitudes(*v)))
        target = GateSpec.from_dict(data["target"])
        j = _number("malformed schedule: 'coupling_j_hz'", data["coupling_j_hz"])
        n = _number("malformed schedule: 'pulse_strength_n'", data["pulse_strength_n"])
        _only({"coupling_j_hz", "pulse_strength_n", "target", "segments"}, data,
              "malformed schedule: a schedule")
        return Schedule(tuple(segments), j, n, target)
    except (KeyError, ValueError) as exc:
        raise ScheduleFormatError(f"malformed schedule: {exc}") from exc


def _outcome(read, data):
    """What ``read(data)`` gives: the bits of an accepted schedule, or the
    type and message of the error."""
    try:
        s = read(data)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)
    return (s.table.tobytes(), s.table.shape, type(s.coupling_j), s.coupling_j.hex(),
            type(s.pulse_strength_n), s.pulse_strength_n.hex(), s.target.to_dict(),
            s.target.matrix.tobytes())


def _corpus_specs():
    rng = np.random.default_rng(29)
    specs = [(name, GateSpec(name=name)) for name in ("cnot", "swap", "sqrtswap")]
    specs += [(f"cu{k}", GateSpec.controlled_u(*rng.uniform(-1.5, 1.5, 3))) for k in range(20)]
    specs += [(f"haar{k}", GateSpec.custom(haar_unitary(rng))) for k in range(50)]
    boundary = bench_module("gen").boundary_gates(29, 20)
    specs += [(f"edge{k}", GateSpec.custom(g.matrix)) for k, g in enumerate(boundary)]
    return specs


CORPUS_POINTS = ((1.0, 1e4), (2.5, 50.0))
CORPUS_SPECS = _corpus_specs()

NAN, INF = float("nan"), float("inf")

# Replacements for one segment object, given the original.
SEGMENT_MUTATIONS = {
    "segment-list": lambda s: [s["duration_s"], s["v"]],
    "segment-str": lambda s: "segment",
    "segment-null": lambda s: None,
    "segment-proxy": lambda s: MappingProxyType(s),  # the Mapping path, accepted
    "duration-str": lambda s: {**s, "duration_s": "1.0"},
    "duration-bool": lambda s: {**s, "duration_s": True},
    "duration-list": lambda s: {**s, "duration_s": [s["duration_s"]]},
    "duration-object": lambda s: {**s, "duration_s": {}},
    "duration-nan": lambda s: {**s, "duration_s": NAN},
    "duration-inf": lambda s: {**s, "duration_s": INF},
    "duration--inf": lambda s: {**s, "duration_s": -INF},
    "duration-1e151": lambda s: {**s, "duration_s": 1e151},
    "duration-1e150": lambda s: {**s, "duration_s": 1e150},  # accepted: the bound itself
    "duration-5e-324": lambda s: {**s, "duration_s": 5e-324},  # accepted
    "duration-negative": lambda s: {**s, "duration_s": -s["duration_s"]},
    "duration-zero": lambda s: {**s, "duration_s": 0.0},
    "duration--zero": lambda s: {**s, "duration_s": -0.0},
    "v-str": lambda s: {**s, "v": "1234"},
    "v-number": lambda s: {**s, "v": 1.0},
    "v-object": lambda s: {**s, "v": {"v1": 0.0}},
    "v-3": lambda s: {**s, "v": s["v"][:3]},
    "v-5": lambda s: {**s, "v": [*s["v"], 0.0]},
    "v-empty": lambda s: {**s, "v": []},
    "v0-str": lambda s: {**s, "v": ["0.0", *s["v"][1:]]},
    "v1-bool": lambda s: {**s, "v": [s["v"][0], False, *s["v"][2:]]},
    "v2-null": lambda s: {**s, "v": [*s["v"][:2], None, s["v"][3]]},
    "v3-list": lambda s: {**s, "v": [*s["v"][:3], [0.0]]},
    "v0-nan": lambda s: {**s, "v": [NAN, *s["v"][1:]]},
    "v3-nan": lambda s: {**s, "v": [*s["v"][:3], NAN]},
    "v1-inf": lambda s: {**s, "v": [s["v"][0], INF, *s["v"][2:]]},
    "v2--inf": lambda s: {**s, "v": [*s["v"][:2], -INF, s["v"][3]]},
    "v0-1e151": lambda s: {**s, "v": [1e151, *s["v"][1:]]},
    "v3--1e151": lambda s: {**s, "v": [*s["v"][:3], -1e151]},
    "v-1e150": lambda s: {**s, "v": [1e150, -1e150, 1e150, -1e150]},  # accepted
    "v-negative-zero": lambda s: {**s, "v": [-0.0, -0.0, -0.0, -0.0]},  # accepted
    "v-and-duration-bad": lambda s: {"duration_s": NAN, "v": [INF, 0.0, 0.0, 0.0]},
    "missing-duration": lambda s: {"v": s["v"]},
    "missing-v": lambda s: {"duration_s": s["duration_s"]},
    "empty": lambda s: {},
    "extra-key": lambda s: {**s, "zeta": 1.0},
    "extra-keys": lambda s: {**s, "zeta": 1.0, "alpha": "x"},
    "extra-key-bad-number": lambda s: {**s, "duration_s": NAN, "zeta": 1.0},
}

# Replacements for the whole document, given the original.
DOCUMENT_MUTATIONS = {
    "document-list": lambda d: [d],
    "document-proxy": lambda d: MappingProxyType(d),
    "segments-missing": lambda d: {k: x for k, x in d.items() if k != "segments"},
    "segments-object": lambda d: {**d, "segments": {}},
    "segments-str": lambda d: {**d, "segments": "[]"},
    "segments-empty": lambda d: {**d, "segments": []},
    "segments-tuple": lambda d: {**d, "segments": tuple(d["segments"])},
    "segments-ndarray": lambda d: {**d, "segments": np.array(d["segments"], dtype=object)},
    "target-missing": lambda d: {k: x for k, x in d.items() if k != "target"},
    "target-unknown": lambda d: {**d, "target": {"name": "toffoli"}},
    "target-extra": lambda d: {**d, "target": {**d["target"], "zeta": 1}},
    "j-missing": lambda d: {k: x for k, x in d.items() if k != "coupling_j_hz"},
    "j-str": lambda d: {**d, "coupling_j_hz": "1.0"},
    "j-bool": lambda d: {**d, "coupling_j_hz": True},
    "j-zero": lambda d: {**d, "coupling_j_hz": 0.0},
    "j-negative": lambda d: {**d, "coupling_j_hz": -1.0},
    "j-nan": lambda d: {**d, "coupling_j_hz": NAN},
    "j-1e151": lambda d: {**d, "coupling_j_hz": 1e151},
    "j-numpy": lambda d: {**d, "coupling_j_hz": np.float32(d["coupling_j_hz"])},
    "n-missing": lambda d: {k: x for k, x in d.items() if k != "pulse_strength_n"},
    "n-zero": lambda d: {**d, "pulse_strength_n": 0.0},
    "n-inf": lambda d: {**d, "pulse_strength_n": INF},
    "n-numpy-int": lambda d: {**d, "pulse_strength_n": np.int64(10**4)},
    "extra-key": lambda d: {**d, "zeta": 1.0},
    "j-bad-n-bad": lambda d: {**d, "coupling_j_hz": -1.0, "pulse_strength_n": NAN},
}


def _numpy_segment(s):
    return {"duration_s": np.float64(s["duration_s"]), "v": np.array(s["v"])}


PYTHON_SEGMENT_MUTATIONS = {
    "numpy-numbers": lambda s: {"duration_s": np.float32(s["duration_s"]),
                                "v": [np.float64(x) for x in s["v"]]},
    "numpy-ints": lambda s: {"duration_s": np.int64(1), "v": [np.int32(0), 1, np.uint8(2), 0]},
    "numpy-v": _numpy_segment,
    "tuple-v": lambda s: {**s, "v": tuple(s["v"])},
    "numpy-bool": lambda s: {**s, "v": [np.bool_(False), *s["v"][1:]]},
    "numpy-nan": lambda s: {**s, "duration_s": np.float64(NAN)},
    "float-subclass": lambda s: {**s, "duration_s": _Float(s["duration_s"])},
    "dict-subclass": lambda s: _Dict(s),
}


class _Float(float):
    pass


class _Dict(dict):
    pass


def _documents(tmp_path, name, spec, j, n):
    """The file of ``spec`` at (J, N) as ``load_schedule`` reads it, and every
    mutation of it: (label, document)."""
    path = tmp_path / f"{name}.sched"
    save_schedule(synthesize(spec, j, n), path)
    doc = read_json(path, "schedule file")
    yield "as-written", doc
    segments = doc["segments"]
    for position in sorted({0, len(segments) // 2, len(segments) - 1}):
        for mutations in (SEGMENT_MUTATIONS, PYTHON_SEGMENT_MUTATIONS):
            for label, mutate in mutations.items():
                changed = list(segments)
                changed[position] = mutate(segments[position])
                yield f"segment {position} {label}", {**doc, "segments": changed}
    # Two faults: the earlier one is reported, whichever kind each is.
    first, last = dict(segments[0]), dict(segments[-1])
    for label, a, b in (
        ("nan-then-missing", {**first, "v": [NAN, 0.0, 0.0, 0.0]}, {"v": last["v"]}),
        ("missing-then-nan", {"duration_s": 1.0}, {**last, "duration_s": NAN}),
        ("extra-then-inf", {**first, "zeta": 0}, {**last, "duration_s": INF}),
    ):
        yield label, {**doc, "segments": [a, *segments[1:-1], b]}
    bad = [{"duration_s": -1.0, "v": segments[0]["v"]}, *segments[1:]]
    yield "segment-then-target", {**doc, "segments": bad, "target": {"name": "toffoli"}}
    yield "segment-then-j", {**doc, "segments": bad, "coupling_j_hz": NAN}
    for label, mutate in DOCUMENT_MUTATIONS.items():
        yield label, mutate(doc)


@pytest.mark.parametrize("j, n", CORPUS_POINTS, ids=["1-1e4", "2.5-50"])
@pytest.mark.parametrize("name, spec", CORPUS_SPECS, ids=[name for name, _ in CORPUS_SPECS])
def test_reader_matches_reference(tmp_path, name, spec, j, n):
    accepted = rejected = 0
    for label, doc in _documents(tmp_path, name, spec, j, n):
        want = _outcome(_reference_from_dict, doc)
        assert _outcome(Schedule.from_dict, doc) == want, label
        if isinstance(want[0], bytes):
            accepted += 1
        else:
            rejected += 1
    assert accepted > 10 and rejected > 100, (accepted, rejected)


def test_loaded_segments_match_reference(tmp_path):
    for name, spec in CORPUS_SPECS[:33]:
        path = tmp_path / f"{name}.sched"
        save_schedule(synthesize(spec, 1.0, 1e4), path)
        doc = read_json(path, "schedule file")
        assert Schedule.from_dict(doc).segments == _reference_from_dict(doc).segments


# ---------------------------------------------------------------------------
# The writer


def _dumps(value, pad=""):
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n" + pad)


def _report_calls(tmp_path):
    """argv of every CLI command over named, cu and --matrix gates, each in
    text, json and json with --degrees, writing through a non-ASCII path."""
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(matrix_to_dict(haar_unitary(np.random.default_rng(29)))))
    out = str(tmp_path / "séance-Ω-✓.sched")
    gates = [["--gate", "cnot"], ["--gate", "swap"], ["--gate", "sqrtswap"],
             ["--gate", "cu", "--gamma1", "0.3", "--gamma2", "-1.1", "--gamma3", "0.7"],
             ["--matrix", str(matrix)]]
    for gate in gates:
        for mode in ([], ["--output", "json"], ["--output", "json", "--degrees"]):
            yield ["invariants", *gate, *mode]
            yield ["mintime", *gate, "--coupling", "2.5", *mode]
            yield ["coords", *gate, *mode]
            yield ["kak", *gate, *mode]
            yield ["schedule", *gate, "--coupling", "1", "--pulse-strength", "1e4", "-o", out,
                   *mode]
            yield ["simulate", "--schedule", out, *mode]
            yield ["verify", "--schedule", out, *mode]
            yield ["verify", "--schedule", out, "--threshold", "1", *mode]  # exit 5


def test_every_report_is_what_json_writes(tmp_path, monkeypatch, capsys):
    reports = []

    def recording(value, *pad):
        reports.append((value, *pad))
        return _json(value, *pad)

    monkeypatch.setattr(cli, "_json", recording)
    commands = set()
    for argv in _report_calls(tmp_path):
        assert cli.main(argv) in (0, 5), argv
        commands.add(argv[0])
    out = capsys.readouterr().out
    assert len(commands) == 7 and len(reports) == 2 * 5 * 8 and "\\u" in out
    for value, *pad in reports:
        assert _json(value, *pad) == _dumps(value), value


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}}, {"a": []}, [[]], [{}], [[], [[]], [{}, ()]],
    (1.0, (2.0, [3.0])), [[0.5, -0.5], [1.5, 2.5]],
    -0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 2.2250738585072014e-308, 0.1,
    0, -1, 2**63, -(10**30), 10**400, True, False, None, [True, False, None, 1, 1.0],
    "", "plain", 'quote " and \\ backslash', "tab\t newline\n bell\x07", "séance Ω ✓ 😀",
    "\ud800 lone surrogate", {"ключ": "значение", "": 0, "a b": [None]},
    {"nested": {"deeper": {"deepest": [1, {"x": (2.0,)}]}}},
    np.float64(0.1), np.float64(-0.0), [np.float64(1e-300)],
    {1: "int key", 2.5: "float key", True: "bool key", None: "null key"},
    {"str key": 1, 7: "then an int key"},
])
@pytest.mark.parametrize("pad", ["", "  ", "    "], ids=["pad0", "pad2", "pad4"])
def test_writes_what_json_dumps_writes(value, pad):
    assert _json(value, pad) == _dumps(value, pad)


@pytest.mark.parametrize("value", [
    NAN, INF, -INF, [1.0, NAN], {"a": [INF]}, {"a": {"b": -INF}}, (0.0, np.float64(NAN)),
])
def test_non_finite_raises_json_error(value):
    with pytest.raises(ValueError) as want:
        _dumps(value)
    with pytest.raises(ValueError) as got:
        _json(value)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
    assert str(got.value).startswith("Out of range float values are not JSON compliant")


@pytest.mark.parametrize("value", [
    object(), {1, 2}, np.bool_(True), np.int64(3), b"bytes", [{"a": 1j}], {"a": (1, {2})},
    {(1, 2): "tuple key"},
])
def test_unsupported_raises_json_error(value):
    with pytest.raises(TypeError) as want:
        _dumps(value)
    with pytest.raises(TypeError) as got:
        _json(value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("mode", [["--output", "json"], []], ids=["json", "text"])
def test_requests_leave_no_cyclic_garbage(tmp_path, capsys, mode):
    # json's pure-Python indent encoder leaves a reference cycle per call; a
    # request that makes no cycle is freed by reference counting alone.
    path = str(tmp_path / "s.sched")
    requests = (
        ["schedule", "--gate", "cnot", "--coupling", "1", "--pulse-strength", "1e4", "-o", path],
        ["verify", "--schedule", path],
        ["kak", "--gate", "swap"],
    )

    def run():
        for argv in requests:
            assert cli.main([*argv, *mode]) == 0

    run()
    run()  # warm-up: the parser, caches and imports are built
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        found = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert found == 0
    assert capsys.readouterr().out.count("\n") > 10

