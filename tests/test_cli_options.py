"""The CLI's declared options: one parser per process, the option set of
every command, how gate-source flags combine, ``--degrees`` as one rule over
every report, and the tolerance scale ``main`` hands back to its caller."""

import argparse
import json

import numpy as np
import pytest

from spinpair import cli
from spinpair.errors import NonUnitary
from spinpair.gates import CNOT
from spinpair.schedule import GateSpec, input_tolerance, save_schedule, synthesize, tol_scale

from conftest import haar_unitary, weyl_gate


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(path, m):
    path.write_text(json.dumps({"re": m.real.tolist(), "im": m.imag.tolist()}))
    return str(path)


def cnot_schedule(tmp_path):
    path = tmp_path / "cnot.sched"
    save_schedule(synthesize(GateSpec.cnot(), 1.0, 1000.0), path)
    return str(path)


class TestParserBuiltOnce:
    def test_later_calls_construct_no_parser(self, capsys, monkeypatch):
        run_cli(capsys, "coords", "--gate", "cnot")  # warm-up
        constructed = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            constructed.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for argv in (
            ("coords", "--gate", "swap"),
            ("mintime", "--gate", "cnot", "--coupling", "1", "--output", "json"),
            ("invariants", "--gate", "cu", "--gamma1", "0.3", "--degrees"),
        ):
            assert run_cli(capsys, *argv)[0] == 0
        assert constructed == []

    def test_build_parser_returns_the_shared_parser(self):
        assert callable(cli.build_parser)
        assert cli.build_parser() is cli.build_parser()


GATE_SOURCE = {"--gate", "--gamma1", "--gamma2", "--gamma3", "--matrix"}
COMMON = {"-h", "--help", "--output", "--tol-scale", "--degrees"}

FLAGS = {
    "invariants": GATE_SOURCE | COMMON,
    "mintime": GATE_SOURCE | COMMON | {"--coupling"},
    "coords": GATE_SOURCE | COMMON,
    "kak": GATE_SOURCE | COMMON,
    "schedule": GATE_SOURCE | COMMON | {"--coupling", "--pulse-strength", "-o", "--out"},
    "simulate": COMMON | {"--schedule"},
    "verify": GATE_SOURCE | COMMON | {"--schedule", "--threshold"},
}


class TestFlagTable:
    """Adding, removing or renaming an option must change this table."""

    @staticmethod
    def subparsers():
        parser = cli.build_parser()
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_commands(self):
        assert set(self.subparsers()) == set(FLAGS)

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_option_strings(self, command):
        sub = self.subparsers()[command]
        assert {s for a in sub._actions for s in a.option_strings} == FLAGS[command]

    def test_root_options(self):
        parser = cli.build_parser()
        assert {s for a in parser._actions for s in a.option_strings} == {"-h", "--help", "--version"}


class TestGateSourceFlags:
    """--gate and --matrix exclude each other; --gamma1..3 need --gate cu."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("mintime", "--gate", "cnot", "--matrix", "{m}", "--coupling", "1"),
            ("mintime", "--gate", "cnot", "--gamma1", "0.3", "--coupling", "1"),
            ("kak", "--matrix", "{m}", "--gamma2", "1"),
            ("coords", "--gamma3", "0.5"),
            ("verify", "--schedule", "{s}", "--gamma1", "0.3"),
            ("verify", "--schedule", "{s}", "--gate", "swap", "--matrix", "{m}"),
        ],
        ids=["gate-and-matrix", "gamma-with-cnot", "gamma-with-matrix",
             "gamma-without-gate", "verify-gamma-without-gate", "verify-gate-and-matrix"],
    )
    def test_rejected_with_one_error_line(self, capsys, tmp_path, argv):
        m = write_matrix(tmp_path / "cnot.mat", CNOT)
        s = cnot_schedule(tmp_path)
        code, out, err = run_cli(capsys, *(a.format(m=m, s=s) for a in argv))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_cu_without_gammas_is_cu_000(self, capsys):
        bare = run_cli(capsys, "kak", "--gate", "cu", "--output", "json")
        zeros = run_cli(
            capsys, "kak", "--gate", "cu", "--gamma1", "0", "--gamma2", "0", "--gamma3", "0",
            "--output", "json",
        )
        assert bare == zeros
        assert json.loads(bare[1])["gate"] == "cu(0, 0, 0)"

    def test_verify_gate_overrides_the_schedule_target(self, capsys, tmp_path):
        s = cnot_schedule(tmp_path)
        code, out, _ = run_cli(capsys, "verify", "--schedule", s, "--gate", "swap", "--output", "json")
        assert code == 5
        assert json.loads(out)["target"] == "swap"
        code, out, _ = run_cli(capsys, "verify", "--schedule", s, "--output", "json")
        assert code == 0
        assert json.loads(out)["target"] == "cnot"


def _gate_args(tmp_path, gate):
    if isinstance(gate, str):
        return ["--gate", *gate.split()]
    return ["--matrix", write_matrix(tmp_path / "gate.mat", gate)]


_rng = np.random.default_rng(8)
DEGREE_GATES = {
    "cnot": "cnot",
    "swap": "swap",
    "sqrtswap": "sqrtswap",
    "cu": "cu --gamma1 0.3 --gamma2 -0.2 --gamma3 0.7",
    "haar": haar_unitary(_rng),
    "mirror": weyl_gate(_rng, np.pi / 2, 0.4, -0.1),
    "identity-class": weyl_gate(_rng, 0.0, 0.0, 0.0),
}


class TestDegrees:
    """--degrees renames every ``*_rad`` report key to ``*_deg`` and
    converts its values with np.degrees; nothing else changes."""

    @staticmethod
    def argv(command, gate_args, tmp_path):
        if command == "mintime":
            return ["mintime", *gate_args, "--coupling", "1"]
        if command == "verify":
            return ["verify", "--schedule", cnot_schedule(tmp_path), *gate_args]
        return [command, *gate_args]

    @pytest.mark.parametrize("gate", list(DEGREE_GATES), ids=list(DEGREE_GATES))
    @pytest.mark.parametrize("command", ["mintime", "coords", "kak", "verify"])
    def test_rad_keys_become_deg(self, capsys, tmp_path, command, gate):
        argv = self.argv(command, _gate_args(tmp_path, DEGREE_GATES[gate]), tmp_path)
        code, out, _ = run_cli(capsys, *argv, "--output", "json")
        assert code in (0, 5)
        rad = json.loads(out)
        assert any(k.endswith("_rad") for k in rad)

        expected = {}
        for key, value in rad.items():
            if key.endswith("_rad"):
                key = key[:-4] + "_deg"
                if isinstance(value, dict):
                    value = {k: float(np.degrees(v)) for k, v in value.items()}
                else:
                    value = float(np.degrees(value))
            expected[key] = value

        code_deg, out_deg, _ = run_cli(capsys, *argv, "--output", "json", "--degrees")
        assert code_deg == code
        deg = json.loads(out_deg)
        assert list(deg) == list(expected)
        assert deg == expected

        code_text, text, _ = run_cli(capsys, *argv, "--degrees")
        assert code_text == code
        assert text == "".join(f"{line}\n" for line in cli._text_lines("", expected))

    @pytest.mark.parametrize("argv", [("invariants", "--gate", "cu", "--gamma1", "0.3"),
                                      ("schedule", "--gate", "swap", "--coupling", "1",
                                       "--pulse-strength", "1000")])
    def test_reports_without_angles_are_unchanged(self, capsys, argv):
        assert run_cli(capsys, *argv, "--degrees") == run_cli(capsys, *argv)


class TestCallerScaleRestored:
    def test_main_restores_the_callers_scale(self, capsys):
        noisy = CNOT + 3e-7 * np.random.default_rng(3).standard_normal((4, 4))
        with pytest.raises(NonUnitary):
            GateSpec.custom(noisy)
        with tol_scale(1000):
            GateSpec.custom(noisy)
            assert run_cli(capsys, "coords", "--gate", "cnot")[0] == 0
            assert input_tolerance() == pytest.approx(1e-5)
            GateSpec.custom(noisy)
            assert run_cli(capsys, "coords", "--gate", "cnot", "--tol-scale", "0")[0] == 2
            assert input_tolerance() == pytest.approx(1e-5)
