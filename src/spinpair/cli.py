"""Command-line interface.

Commands: invariants, mintime, coords, kak, schedule, simulate, verify.
Exit codes: 0 success, 2 input/parse failure, 3 pipeline failure
(non-real G2, positive discriminant, or coordinates from the eigenphases
of m(U) that fail the paper's cubic), 4 hard-pulse violation, 5 fidelity
below threshold.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .config import tol_scale
from .errors import (
    HardPulseRegimeViolated,
    NonRealG2,
    PositiveDiscriminant,
    ResidualTooLarge,
    ScheduleFormatError,
    SpinPairError,
)
from .invariants import abc_from_invariants, local_invariants
from .kak import kak_decompose
from .mintime import canonical_coords, min_time
from .schedule import (
    GateSpec,
    load_schedule,
    matrix_from_dict,
    matrix_to_dict,
    read_json,
    save_schedule,
    synthesize,
)
from .simulate import evolve, verify

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PIPELINE = 3
EXIT_HARD_PULSE = 4
EXIT_FIDELITY = 5

# Caught after the pipeline and hard-pulse errors, so every other SpinPairError
# (NonUnitary, ScheduleFormatError, ...) is an input failure.
_INPUT_ERRORS = (SpinPairError, OSError, ValueError)
_PIPELINE_ERRORS = (NonRealG2, PositiveDiscriminant, ResidualTooLarge)


def _fmt(x: float) -> str:
    return f"{x + 0.0:.12g}"  # + 0.0 normalizes -0.0


def _print_report(report: dict, args) -> None:
    if args.degrees:
        report = dict(_in_degrees(key, value) for key, value in report.items())
    if args.output == "json":
        print(json.dumps(report, indent=2))
        return
    for line in _text_lines("", report):
        print(line)


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
    elif isinstance(value, (list, tuple)):
        if value and isinstance(value[0], (list, tuple)):
            for i, row in enumerate(value):
                yield f"{prefix}[{i}] = " + " ".join(
                    _fmt(x) if isinstance(x, float) else str(x) for x in row
                )
        else:
            yield f"{prefix} = " + " ".join(
                _fmt(x) if isinstance(x, float) else str(x) for x in value
            )
    elif isinstance(value, float):
        yield f"{prefix} = {_fmt(value)}"
    else:
        yield f"{prefix} = {value}"


def _gate_from_args(args, fallback: GateSpec | None = None) -> GateSpec:
    """The gate named by --gate/--gamma1..3 or --matrix; ``fallback`` when
    neither --gate nor --matrix is given (an error if it is None)."""
    gammas = (args.gamma1, args.gamma2, args.gamma3)
    if args.gate is not None and args.matrix is not None:
        raise ScheduleFormatError("--gate and --matrix are exclusive: give one")
    if args.gate != "cu" and any(g is not None for g in gammas):
        raise ScheduleFormatError("--gamma1/--gamma2/--gamma3 need --gate cu")
    if args.matrix is not None:
        return GateSpec.custom(matrix_from_dict(read_json(args.matrix, "matrix file")))
    if args.gate is None:
        if fallback is None:
            raise ScheduleFormatError("no gate given: use --gate or --matrix")
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


def cmd_invariants(args) -> int:
    gate = _gate_from_args(args)
    inv = local_invariants(gate.unitary())
    report = {"gate": gate.label()}
    report.update(_invariants_block(inv, abc_from_invariants(inv)))
    _print_report(report, args)
    return EXIT_OK


def cmd_mintime(args) -> int:
    gate = _gate_from_args(args)
    result = min_time(gate.unitary(), args.coupling)
    report = {"gate": gate.label()}
    report.update(_invariants_block(result.invariants, result.abc))
    report.update(_coords_block(result.coords))
    report["coupling_j_hz"] = result.coupling_j
    report["t_star_seconds"] = result.t_star
    _print_report(report, args)
    return EXIT_OK


def cmd_coords(args) -> int:
    gate = _gate_from_args(args)
    report = {"gate": gate.label(), **_coords_block(canonical_coords(gate.unitary()))}
    _print_report(report, args)
    return EXIT_OK


def cmd_kak(args) -> int:
    gate = _gate_from_args(args)
    d = kak_decompose(gate.unitary())
    report = {
        "gate": gate.label(),
        **_coords_block(d.coords),
        "global_phase_rad": d.global_phase,
        "k1_a": matrix_to_dict(d.k1.a),
        "k1_b": matrix_to_dict(d.k1.b),
        "k2_a": matrix_to_dict(d.k2.a),
        "k2_b": matrix_to_dict(d.k2.b),
    }
    _print_report(report, args)
    return EXIT_OK


def cmd_schedule(args) -> int:
    gate = _gate_from_args(args)
    schedule = synthesize(gate, args.coupling, args.pulse_strength)
    report = {
        "gate": gate.label(),
        "segments": len(schedule.segments),
        "wall_time_s": schedule.wall_time,
        "drift_time_s": schedule.declared_drift_time,
    }
    if args.out is not None:
        save_schedule(schedule, args.out)
        report["file"] = args.out
    _print_report(report, args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    schedule = load_schedule(args.schedule)
    u = evolve(schedule)
    report = {
        "target": schedule.target.label(),
        "wall_time_s": schedule.wall_time,
        "drift_time_s": schedule.declared_drift_time,
        "u_final": matrix_to_dict(u),
    }
    _print_report(report, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    if not 0.0 <= args.threshold <= 1.0:  # False for NaN too
        raise ValueError(f"fidelity threshold must be in [0, 1], got {args.threshold}")
    schedule = load_schedule(args.schedule)
    gate = _gate_from_args(args, fallback=schedule.target)
    report_data = verify(schedule, gate.unitary())
    passed = report_data.fidelity >= args.threshold
    report = {
        "target": gate.label(),
        "fidelity": report_data.fidelity,
        "relative_phase_rad": report_data.relative_phase,
        "wall_time_s": report_data.wall_time,
        "drift_time_s": report_data.drift_time,
        "threshold": args.threshold,
        "pass": passed,
    }
    _print_report(report, args)
    return EXIT_OK if passed else EXIT_FIDELITY


def _opt(*flags, **kwargs) -> tuple:
    return flags, kwargs


# Option groups shared by the commands, declared once.
_GATE_SOURCE = (
    _opt("--gate", choices=["cnot", "swap", "sqrtswap", "cu"], help="library gate"),
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
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and returned by
    every later one (``main`` reuses it; do not modify it)."""
    parser = argparse.ArgumentParser(
        prog="spinpair",
        description="Two-qubit gate invariants, minimal times and hard-pulse schedules "
        "for a fixed-ZZ heteronuclear spin pair.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with tol_scale(args.tol_scale):
            return args.func(args)
    except _PIPELINE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except HardPulseRegimeViolated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HARD_PULSE
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
