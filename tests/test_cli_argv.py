"""What ``cli.main`` does with any argv.

``main`` hands an argv that starts with a command word straight to that
command's parser; the dispatch property requires the namespace, exit code,
stdout and stderr of ``build_parser().parse_args`` for every drawn argv.  The
contract property runs generated requests through ``main`` end to end: a
documented exit code, no traceback (warnings are errors in this suite) and at
most one ``error:`` line.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinpair import cli
from spinpair.gates import CNOT
from spinpair.schedule import GateSpec, save_schedule, synthesize

COMMANDS = ("invariants", "mintime", "coords", "kak", "schedule", "simulate", "verify")
GATE_SOURCE = ("--gate", "--gamma1", "--gamma2", "--gamma3", "--matrix")
COMMON = ("--output", "--tol-scale")
REQUIRED = {"mintime": ("--coupling",), "schedule": ("--coupling", "--pulse-strength"),
            "simulate": ("--schedule",), "verify": ("--schedule",)}
OPTIONS = {
    "invariants": GATE_SOURCE + COMMON,
    "mintime": GATE_SOURCE + COMMON + ("--coupling",),
    "coords": GATE_SOURCE + COMMON,
    "kak": GATE_SOURCE + COMMON,
    "schedule": GATE_SOURCE + COMMON + ("--coupling", "--pulse-strength", "-o", "--out"),
    "simulate": COMMON + ("--schedule",),
    "verify": GATE_SOURCE + COMMON + ("--schedule", "--threshold"),
}
# A value each option accepts; every option also draws from VALUES.
GOOD = {"--gate": ("cnot", "cu"), "--gamma1": ("0.3",), "--gamma2": ("-1.5",),
        "--gamma3": ("1e-3",), "--matrix": ("m.json",), "--output": ("text", "json"),
        "--tol-scale": ("1", "1e3"), "--coupling": ("1", "2.5"), "--pulse-strength": ("1e4",),
        "-o": ("s.json",), "--out": ("s.json",), "--schedule": ("s.json",),
        "--threshold": ("0.9",)}
WORDS = COMMANDS + ("sched", "ver", "Kak", "bogus", "", "-", "--", "-h", "--help",
                    "--version", "--vers", "--he", "-x", "--=x")
STRAY_OPTIONS = ("--degrees", "-h", "--help", "--version", "--vers", "--gat", "--gamma",
                 "--o", "--ou", "--coup", "--pulse", "--sched", "--thr", "--deg", "--tol",
                 "--bogus", "-x", "-q", "-ox", "-o=x", "--=x", "--=", "--gate=cnot",
                 "--coupling=-1", "--output=xml", "--degrees=1", "-hx", "--", "---")
VALUES = ("swap", "sqrtswap", "bogus", "xml", "0", "-1", "-1.5", "1e400", "nan", "-inf",
          "abc", "", "1,0", "-", "--", "-h", "--version", "--=x", "-1e-3")


def _pair(option):
    return st.tuples(st.just(option), _either(GOOD[option], VALUES))


def _either(good, bad):
    """A good value or a bad one, evenly."""
    return st.one_of(st.sampled_from(good), st.sampled_from(bad))


def _argv_for(word):
    """``word`` and options of its command (of every command if it is not
    one), the required ones drawn most often, mostly well formed, with stray
    options, bad values and ``--opt=value`` forms."""
    own = OPTIONS.get(word, GATE_SOURCE + COMMON)
    required = [_pair(r) for r in REQUIRED.get(word, ())]
    part = st.one_of(
        *required, *required,
        st.one_of(*map(_pair, own)),
        st.one_of(*map(_pair, own)).map(lambda p: (f"{p[0]}={p[1]}",)),
        st.sampled_from(STRAY_OPTIONS + VALUES).map(lambda t: (t,)),
    )
    return st.lists(part, max_size=4).map(lambda ps: [word, *(t for p in ps for t in p)])


ARGV = st.one_of(
    *map(_argv_for, COMMANDS),
    *map(_argv_for, COMMANDS),
    *map(_argv_for, WORDS),
    st.lists(st.sampled_from(WORDS + STRAY_OPTIONS + VALUES), max_size=4),
)


def _outcome(parse, argv):
    """(namespace items, SystemExit code, stdout, stderr) of ``parse(argv)``;
    ``func`` is compared by identity, every other value by its repr (so NaN
    equals NaN and -0.0 differs from 0.0)."""
    out, err = io.StringIO(), io.StringIO()
    items = code = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            ns = parse(list(argv))
        except SystemExit as exc:
            code = exc.code
        else:
            items = [(k, id(v) if k == "func" else repr(v)) for k, v in vars(ns).items()]
    return items, code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=600, deadline=None)
@given(ARGV)
@example([])
@example(["--version"])
@example(["-h", "schedule"])
@example(["schedule", "--version"])
@example(["schedule", "-h", "--bogus"])
@example(["schedule", "--bogus"])
@example(["schedule", "--=x"])
@example(["schedule", "--gate", "cnot", "--coupling", "1", "--pulse-strength", "1e4", "--="])
@example(["schedule", "--", "--=x"])
@example(["sched", "--gate", "cnot"])
@example(["coords", "--gate", "cnot", "--", "x"])
@example(["coords", "--gate", "cnot", "extra"])
@example(["mintime", "--gate=cu", "--gamma1=-0.3", "--coupling", "-1e-3"])
@example(["verify", "--schedule", "f", "--threshold", "nan", "--output", "json"])
def test_dispatch_matches_the_full_parser(argv):
    assert _outcome(cli._parse, argv) == _outcome(cli.build_parser().parse_args, argv)


def test_command_word_skips_the_full_parser(monkeypatch, capsys, tmp_path):
    sched = tmp_path / "cnot.sched"

    def refuse(*args, **kwargs):
        raise AssertionError("the full parser ran")

    parser = cli.build_parser()
    monkeypatch.setattr(parser, "parse_args", refuse)
    monkeypatch.setattr(parser, "parse_known_args", refuse)
    for argv in (
        ["coords", "--gate", "cnot"],
        ["mintime", "--gate", "cu", "--gamma1", "0.3", "--coupling", "2", "--degrees"],
        ["schedule", "--gate", "cnot", "--coupling", "1", "--pulse-strength", "1e4",
         "-o", str(sched), "--output", "json"],
        ["verify", "--schedule", str(sched)],
        ["simulate", "--schedule", str(sched), "--output=json"],
    ):
        assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input files of every kind a request can name, and a path to write."""
    d = tmp_path_factory.mktemp("argv")
    named = {}

    def put(name, text):
        named[name] = str(d / name)
        (d / name).write_text(text)

    def matrix(m):
        return json.dumps({"re": np.real(m).tolist(), "im": np.imag(m).tolist()})

    put("cnot.mat", matrix(CNOT))
    put("noisy.mat", matrix(CNOT + 1e-6))
    put("scaled.mat", matrix(1.01 * np.eye(4)))
    put("nan.mat", matrix(np.full((4, 4), np.nan)).replace("NaN", "1e400"))
    put("short.mat", json.dumps({"re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}))
    put("text.mat", "not json")
    put("empty", "")
    put("list.json", "[1, 2, 3]")
    for name, spec in (("cnot.sched", GateSpec.cnot()),
                       ("cu.sched", GateSpec.controlled_u(0.3, 0, 0)),
                       ("custom.sched", GateSpec.custom(np.diag([1, 1, 1, 1j])))):
        named[name] = str(d / name)
        save_schedule(synthesize(spec, 1.0, 1e3), named[name])
    data = json.loads((d / "cnot.sched").read_text())
    data["coupling_j_hz"] = 0.0
    put("j0.sched", json.dumps(data))
    data["coupling_j_hz"] = 1.0
    data["segments"][0]["duration_s"] = -1.0
    put("negative.sched", json.dumps(data))
    named["missing"] = str(d / "missing")
    named["dir"] = str(d)
    named["out"] = str(d / "out.sched")
    return named


EDGES = ("0", "-1", "-0", "1e-300", "1e300", "1e400", "nan", "inf", "9.99", "10", "1e150",
         "3e-320", "abc")
MATRICES = ("@cnot.mat", "@noisy.mat")
SCHEDULES = ("@cnot.sched", "@cu.sched", "@custom.sched", "@out")
BAD_FILES = ("@scaled.mat", "@nan.mat", "@short.mat", "@text.mat", "@empty", "@list.json",
             "@j0.sched", "@negative.sched", "@missing", "@dir")


def _request(command):
    """One request for ``command``, each value good or at and past the edge
    of what its option accepts; ``@name`` stands for a file of ``files``."""
    gate = st.one_of(
        st.tuples(st.just("--gate"), st.sampled_from(("cnot", "swap", "sqrtswap", "cu"))),
        st.tuples(st.just("--gate"), st.just("cu"), st.sampled_from(("--gamma1", "--gamma2")),
                  _either(("0.3", "-1.5"), EDGES)),
        st.tuples(st.just("--matrix"), _either(MATRICES, BAD_FILES + SCHEDULES)),
        st.tuples(st.just("--gamma3"), st.just("0.5")),
    )
    options = [
        st.tuples(st.just("--output"), st.sampled_from(("text", "json"))),
        st.tuples(st.just("--tol-scale"), _either(("1", "1000"), EDGES)),
        st.tuples(st.just("--degrees")),
    ]
    required = [gate] if command not in ("simulate", "verify") else []
    if command in ("mintime", "schedule"):
        required.append(st.tuples(st.just("--coupling"), _either(("1", "2.5", "0.3"), EDGES)))
    if command == "schedule":
        required.append(st.tuples(st.just("--pulse-strength"), _either(("1e4", "100"), EDGES)))
        options.append(st.tuples(st.sampled_from(("-o", "--out")), st.just("@out")))
    if command in ("simulate", "verify"):
        required.append(st.tuples(st.just("--schedule"), _either(SCHEDULES, BAD_FILES)))
    if command == "verify":
        options += [gate, st.tuples(st.just("--threshold"), _either(("0.9", "1", "0"), EDGES))]
    chosen = st.tuples(*required, st.lists(st.one_of(options), max_size=3))
    return chosen.map(lambda parts: [command, *(t for p in parts[:-1] for t in p),
                                     *(t for p in parts[-1] for t in p)])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(*map(_request, COMMANDS)))
@example(["schedule", "--gate", "cnot", "--coupling", "1", "--pulse-strength", "1e4",
          "-o", "@out"])
@example(["verify", "--schedule", "@out"])
@example(["schedule", "--gate", "cu", "--gamma1", "1e300", "--coupling", "1e-300",
          "--pulse-strength", "1e300"])
@example(["mintime", "--matrix", "@noisy.mat", "--coupling", "3e-320", "--tol-scale", "1000"])
@example(["schedule", "--gate", "swap", "--coupling", "1", "--pulse-strength", "9.99"])
@example(["verify", "--schedule", "@cnot.sched", "--gate", "swap"])
def test_every_request_exits_with_a_documented_code(files, argv):
    argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4, 5), (argv, err.getvalue())
    assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1, err.getvalue()
