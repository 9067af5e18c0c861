"""Command-line interface.

Commands: invariants, mintime, coords, kak, schedule, simulate, verify.
Each command returns its report; ``main`` prints it and picks the exit code:
0 success, 2 input/parse failure, 3 pipeline failure (non-real G2, positive
discriminant, coordinates from the eigenphases of m(U) that fail the paper's
cubic, or a Cartan decomposition that fails), 4 hard-pulse violation,
5 fidelity below threshold.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__, errors
from .invariants import abc_from_invariants, local_invariants
from .kak import kak_decompose
from .mintime import canonical_coords, min_time
from .schedule import (
    REFERENCE_GATES,
    GateSpec,
    _json,
    load_schedule,
    matrix_from_dict,
    matrix_to_dict,
    read_json,
    save_schedule,
    synthesize,
    tol_scale,
)
from .simulate import evolve, verify

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PIPELINE = 3
EXIT_HARD_PULSE = 4
EXIT_FIDELITY = 5

# The exit code of every error ``main`` catches, looked up along the error's
# MRO.  Each SpinPairError subclass is listed, so a new one needs a decision.
_EXIT_CODES = {
    errors.NonRealG2: EXIT_PIPELINE,
    errors.PositiveDiscriminant: EXIT_PIPELINE,
    errors.ResidualTooLarge: EXIT_PIPELINE,
    errors.NotLocal: EXIT_PIPELINE,
    errors.DegenerateSpectrum: EXIT_PIPELINE,
    errors.ReconstructionFailed: EXIT_PIPELINE,
    errors.HardPulseRegimeViolated: EXIT_HARD_PULSE,
    errors.NonUnitary: EXIT_INPUT,
    errors.NonHermitian: EXIT_INPUT,
    errors.NonPositiveCoupling: EXIT_INPUT,
    errors.ScheduleFormatError: EXIT_INPUT,
    errors.SpinPairError: EXIT_INPUT,
    OSError: EXIT_INPUT,
    ValueError: EXIT_INPUT,
}


def _fmt(x: float) -> str:
    return f"{x + 0.0:.12g}"  # + 0.0 normalizes -0.0


def _print_report(report: dict, args) -> None:
    """Print ``report`` as ``json.dumps(report, indent=2)`` would (``_json``)
    or as ``key = value`` lines, after ``--degrees``' renaming."""
    if args.degrees:
        report = dict(_in_degrees(key, value) for key, value in report.items())
    if args.output == "json":
        print(_json(report))
    else:
        print("\n".join(_text_lines("", report)))


def _in_degrees(key: str, value):
    """``--degrees``: an angle entry ``*_rad`` (a float or a dict of floats)
    becomes ``*_deg``; every other entry is left as it is."""
    if not key.endswith("_rad"):
        return key, value
    if isinstance(value, dict):
        return key[:-4] + "_deg", {k: float(np.degrees(v)) for k, v in value.items()}
    return key[:-4] + "_deg", float(np.degrees(value))


def _text_lines(prefix: str, value):
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _text_lines(f"{prefix}.{key}" if prefix else key, sub)
    elif isinstance(value, list):  # the rows of a real matrix
        for i, row in enumerate(value):
            yield f"{prefix}[{i}] = " + " ".join(map(_fmt, row))
    elif isinstance(value, float):
        yield f"{prefix} = {_fmt(value)}"
    else:
        yield f"{prefix} = {value}"


def _gate_from_args(args, fallback: GateSpec | None = None) -> GateSpec:
    """The gate named by --gate/--gamma1..3 or --matrix; ``fallback`` when
    neither --gate nor --matrix is given (an error if it is None)."""
    gammas = (args.gamma1, args.gamma2, args.gamma3)
    if args.gate is not None and args.matrix is not None:
        raise errors.ScheduleFormatError("--gate and --matrix are exclusive: give one")
    if args.gate != "cu" and any(g is not None for g in gammas):
        raise errors.ScheduleFormatError("--gamma1/--gamma2/--gamma3 need --gate cu")
    if args.matrix is not None:
        return GateSpec.custom(matrix_from_dict(read_json(args.matrix, "matrix file")))
    if args.gate is None:
        if fallback is None:
            raise errors.ScheduleFormatError("no gate given: use --gate or --matrix")
        return fallback
    if args.gate == "cu":
        return GateSpec.controlled_u(*(0.0 if g is None else g for g in gammas))
    return GateSpec(name=args.gate)


def _coords_block(coords) -> dict:
    return {"coords_rad": {"c1": coords.c1, "c2": coords.c2, "c3": coords.c3}}


def _invariants_block(inv, abc) -> dict:
    return {
        "g1": {"re": inv.g1.real, "im": inv.g1.imag},
        "g2": {"re": inv.g2.real, "im": inv.g2.imag},
        "abc": {"a": abc.a, "b": abc.b, "c": abc.c},
    }


def cmd_invariants(args) -> dict:
    gate = _gate_from_args(args)
    inv = local_invariants(gate.unitary())
    return {"gate": gate.label(), **_invariants_block(inv, abc_from_invariants(inv))}


def cmd_mintime(args) -> dict:
    gate = _gate_from_args(args)
    result = min_time(gate.unitary(), args.coupling)
    report = {"gate": gate.label()}
    report.update(_invariants_block(result.invariants, result.abc))
    report.update(_coords_block(result.coords))
    report["coupling_j_hz"] = result.coupling_j
    report["t_star_seconds"] = result.t_star
    return report


def cmd_coords(args) -> dict:
    gate = _gate_from_args(args)
    return {"gate": gate.label(), **_coords_block(canonical_coords(gate.unitary()))}


def cmd_kak(args) -> dict:
    gate = _gate_from_args(args)
    d = kak_decompose(gate.unitary())
    return {
        "gate": gate.label(),
        **_coords_block(d.coords),
        "global_phase_rad": d.global_phase,
        "k1_a": matrix_to_dict(d.k1.a),
        "k1_b": matrix_to_dict(d.k1.b),
        "k2_a": matrix_to_dict(d.k2.a),
        "k2_b": matrix_to_dict(d.k2.b),
    }


def cmd_schedule(args) -> dict:
    gate = _gate_from_args(args)
    schedule = synthesize(gate, args.coupling, args.pulse_strength)
    report = {
        "gate": gate.label(),
        "segments": len(schedule.table),
        "wall_time_s": schedule.wall_time,
        "drift_time_s": schedule.declared_drift_time,
    }
    if args.out is not None:
        save_schedule(schedule, args.out)
        report["file"] = args.out
    return report


def cmd_simulate(args) -> dict:
    schedule = load_schedule(args.schedule)
    return {
        "target": schedule.target.label(),
        "wall_time_s": schedule.wall_time,
        "drift_time_s": schedule.declared_drift_time,
        "u_final": matrix_to_dict(evolve(schedule)),
    }


def cmd_verify(args) -> dict:
    if not 0.0 <= args.threshold <= 1.0:  # False for NaN too
        raise ValueError(f"fidelity threshold must be in [0, 1], got {args.threshold}")
    schedule = load_schedule(args.schedule)
    gate = _gate_from_args(args, fallback=schedule.target)
    result = verify(schedule, gate.unitary())
    return {
        "target": gate.label(),
        "fidelity": result.fidelity,
        "relative_phase_rad": result.relative_phase,
        "wall_time_s": result.wall_time,
        "drift_time_s": result.drift_time,
        "threshold": args.threshold,
        "pass": result.fidelity >= args.threshold,
    }


def _opt(*flags, **kwargs) -> tuple:
    return flags, kwargs


# Option groups shared by the commands, declared once.
_GATE_SOURCE = (
    _opt("--gate", choices=[*REFERENCE_GATES, "cu"], help="library gate"),
    _opt("--gamma1", type=float),
    _opt("--gamma2", type=float),
    _opt("--gamma3", type=float),
    _opt("--matrix", help="path to a JSON matrix file (re/im arrays)"),
)
_COMMON = (
    _opt("--output", choices=["text", "json"], default="text"),
    _opt("--tol-scale", type=float, default=1.0),
    _opt("--degrees", action="store_true", help="display angles in degrees"),
)
_COUPLING = (_opt("--coupling", type=float, required=True, help="coupling J in Hz"),)

# name, handler, help text, options in --help order
_COMMANDS = (
    ("invariants", cmd_invariants, "local invariants G1, G2 and (a, b, c)",
     _GATE_SOURCE + _COMMON),
    ("mintime", cmd_mintime, "canonical coordinates and minimal time",
     _GATE_SOURCE + _COMMON + _COUPLING),
    ("coords", cmd_coords, "canonical coordinates only", _GATE_SOURCE + _COMMON),
    ("kak", cmd_kak, "full Cartan decomposition", _GATE_SOURCE + _COMMON),
    ("schedule", cmd_schedule, "synthesize a hard-pulse schedule",
     _GATE_SOURCE + _COMMON + _COUPLING + (
         _opt("--pulse-strength", type=float, required=True, help="hard-pulse parameter N"),
         _opt("-o", "--out", help="write the schedule file here"),
     )),
    ("simulate", cmd_simulate, "propagate a schedule file",
     _COMMON + (_opt("--schedule", required=True, help="schedule file to simulate"),)),
    ("verify", cmd_verify, "simulate a schedule and check fidelity",
     _GATE_SOURCE + _COMMON + (
         _opt("--schedule", required=True, help="schedule file to verify"),
         _opt("--threshold", type=float, default=0.999, help="fidelity pass threshold"),
     )),
)


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser and, by name, the command parsers attached to it;
    built on the first call and shared by every later one (do not modify
    them)."""
    parser = argparse.ArgumentParser(
        prog="spinpair",
        description="Two-qubit gate invariants, minimal times and hard-pulse schedules "
        "for a fixed-ZZ heteronuclear spin pair.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, handler, help_text, options in _COMMANDS:
        p = commands[name] = sub.add_parser(name, help=help_text)
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=handler)
    return parser, commands


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and returned by
    every later one (do not modify it).  ``main`` parses as its
    ``parse_args`` does, in one pass where it can (``_parse``)."""
    return _parsers()[0]


def _parse(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` in one pass where it can be: when
    ``argv[0]`` is a command word, that command's parser reads the rest.
    Every other argv goes to the full parser, for its usage and errors: one
    without a command word first, one the command's parser leaves arguments
    of unread, and one with an argument ``--=...``, which the full parser
    rejects as ambiguous (--help or --version) before a command parser runs."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is not None and not any(a.startswith("--=") for a in argv):
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run the command ``argv`` (default ``sys.argv[1:]``) names, print its
    report and return the exit code.  Arguments argparse rejects raise
    SystemExit(2), and -h and --version SystemExit(0), after printing."""
    args = _parse(argv)
    try:
        with tol_scale(args.tol_scale):
            report = args.func(args)
        _print_report(report, args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)
    return EXIT_OK if report.get("pass", True) else EXIT_FIDELITY


if __name__ == "__main__":
    sys.exit(main())
