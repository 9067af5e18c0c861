"""Command-line interface.

Commands: invariants, mintime, coords, kak, schedule, simulate, verify.
Exit codes: 0 success, 2 input/parse failure, 3 pipeline failure
(non-real G2, positive discriminant, or coordinates from the eigenphases
of m(U) that fail the paper's cubic), 4 hard-pulse violation, 5 fidelity
below threshold.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .config import set_tol_scale
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
from .schedule import GateSpec, load_schedule, save_schedule, synthesize
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


def _print_report(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
        return
    for line in _text_lines("", report):
        print(line)


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


def _matrix_dict(m: np.ndarray) -> dict:
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _load_matrix_file(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        re = np.array(data["re"], dtype=float)
        im = np.array(data["im"], dtype=float)
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ScheduleFormatError(
            f"matrix file must be JSON with 4x4 're' and 'im' arrays: {exc}"
        ) from exc
    if re.shape != (4, 4) or im.shape != (4, 4):
        raise ScheduleFormatError("matrix file arrays must be 4x4, row-major")
    return re + 1j * im


def _gate_from_args(args) -> GateSpec:
    if args.matrix is not None:
        return GateSpec.custom(_load_matrix_file(args.matrix))
    if args.gate is None:
        raise ScheduleFormatError("no gate given: use --gate or --matrix")
    if args.gate == "cu":
        return GateSpec.controlled_u(args.gamma1, args.gamma2, args.gamma3)
    return GateSpec(name=args.gate)


def _maybe_degrees(value: float, args) -> float:
    return float(np.degrees(value)) if args.degrees else value


def _angle_unit(args) -> str:
    return "deg" if args.degrees else "rad"


def _coords_block(coords, args) -> dict:
    return {
        f"coords_{_angle_unit(args)}": {
            "c1": _maybe_degrees(coords.c1, args),
            "c2": _maybe_degrees(coords.c2, args),
            "c3": _maybe_degrees(coords.c3, args),
        }
    }


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
    _print_report(report, args.output == "json")
    return EXIT_OK


def cmd_mintime(args) -> int:
    gate = _gate_from_args(args)
    result = min_time(gate.unitary(), args.coupling)
    report = {"gate": gate.label()}
    report.update(_invariants_block(result.invariants, result.abc))
    report.update(_coords_block(result.coords, args))
    report["coupling_j_hz"] = result.coupling_j
    report["t_star_seconds"] = result.t_star
    _print_report(report, args.output == "json")
    return EXIT_OK


def cmd_coords(args) -> int:
    gate = _gate_from_args(args)
    report = {"gate": gate.label(), **_coords_block(canonical_coords(gate.unitary()), args)}
    _print_report(report, args.output == "json")
    return EXIT_OK


def cmd_kak(args) -> int:
    gate = _gate_from_args(args)
    d = kak_decompose(gate.unitary())
    report = {
        "gate": gate.label(),
        **_coords_block(d.coords, args),
        f"global_phase_{_angle_unit(args)}": _maybe_degrees(d.global_phase, args),
        "k1_a": _matrix_dict(d.k1.a),
        "k1_b": _matrix_dict(d.k1.b),
        "k2_a": _matrix_dict(d.k2.a),
        "k2_b": _matrix_dict(d.k2.b),
    }
    _print_report(report, args.output == "json")
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
    _print_report(report, args.output == "json")
    return EXIT_OK


def cmd_simulate(args) -> int:
    schedule = load_schedule(args.schedule)
    u = evolve(schedule)
    report = {
        "target": schedule.target.label(),
        "wall_time_s": schedule.wall_time,
        "drift_time_s": schedule.declared_drift_time,
        "u_final": _matrix_dict(u),
    }
    _print_report(report, args.output == "json")
    return EXIT_OK


def cmd_verify(args) -> int:
    schedule = load_schedule(args.schedule)
    if args.gate is not None or args.matrix is not None:
        gate = _gate_from_args(args)
    else:
        gate = schedule.target
    report_data = verify(schedule, gate.unitary())
    unit = _angle_unit(args)
    passed = report_data.fidelity >= args.threshold
    report = {
        "target": gate.label(),
        "fidelity": report_data.fidelity,
        f"relative_phase_{unit}": _maybe_degrees(report_data.relative_phase, args),
        "wall_time_s": report_data.wall_time,
        "drift_time_s": report_data.drift_time,
        "threshold": args.threshold,
        "pass": passed,
    }
    _print_report(report, args.output == "json")
    return EXIT_OK if passed else EXIT_FIDELITY


def _add_gate_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--gate", choices=["cnot", "swap", "sqrtswap", "cu"], help="library gate"
    )
    parser.add_argument("--gamma1", type=float, default=0.0)
    parser.add_argument("--gamma2", type=float, default=0.0)
    parser.add_argument("--gamma3", type=float, default=0.0)
    parser.add_argument("--matrix", help="path to a JSON matrix file (re/im arrays)")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", choices=["text", "json"], default="text")
    parser.add_argument("--tol-scale", type=float, default=1.0)
    parser.add_argument(
        "--degrees", action="store_true", help="display angles in degrees"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinpair",
        description="Two-qubit gate invariants, minimal times and hard-pulse schedules "
        "for a fixed-ZZ heteronuclear spin pair.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="local invariants G1, G2 and (a, b, c)")
    _add_gate_arguments(p)
    _add_common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("mintime", help="canonical coordinates and minimal time")
    _add_gate_arguments(p)
    _add_common(p)
    p.add_argument("--coupling", type=float, required=True, help="coupling J in Hz")
    p.set_defaults(func=cmd_mintime)

    p = sub.add_parser("coords", help="canonical coordinates only")
    _add_gate_arguments(p)
    _add_common(p)
    p.set_defaults(func=cmd_coords)

    p = sub.add_parser("kak", help="full Cartan decomposition")
    _add_gate_arguments(p)
    _add_common(p)
    p.set_defaults(func=cmd_kak)

    p = sub.add_parser("schedule", help="synthesize a hard-pulse schedule")
    _add_gate_arguments(p)
    _add_common(p)
    p.add_argument("--coupling", type=float, required=True, help="coupling J in Hz")
    p.add_argument(
        "--pulse-strength", type=float, required=True, help="hard-pulse parameter N"
    )
    p.add_argument("-o", "--out", help="write the schedule file here")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("simulate", help="propagate a schedule file")
    _add_common(p)
    p.add_argument("--schedule", required=True, help="schedule file to simulate")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="simulate a schedule and check fidelity")
    _add_gate_arguments(p)
    _add_common(p)
    p.add_argument("--schedule", required=True, help="schedule file to verify")
    p.add_argument(
        "--threshold", type=float, default=0.999, help="fidelity pass threshold"
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            set_tol_scale(args.tol_scale)
            return args.func(args)
        finally:
            set_tol_scale(1.0)
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
