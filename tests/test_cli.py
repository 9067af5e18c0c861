import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinpair import cli, errors
from spinpair.cli import main
from spinpair.gates import SQRT_SWAP
from spinpair.schedule import GateSpec, save_schedule, synthesize


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(path, m):
    path.write_text(json.dumps({"re": m.real.tolist(), "im": m.imag.tolist()}))


class TestInvariantsCommand:
    def test_cnot(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--gate", "cnot")
        assert code == 0
        assert "g1.re = 0" in out
        assert "g2.re = 1" in out

    def test_swap_json(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--gate", "swap", "--output", "json")
        assert code == 0
        data = json.loads(out)
        assert data["g1"]["re"] == pytest.approx(-1, abs=1e-10)
        assert data["g2"]["re"] == pytest.approx(-3, abs=1e-10)

    def test_identity_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "identity.mat"
        write_matrix(path, np.eye(4, dtype=complex))
        code, out, _ = run_cli(
            capsys, "invariants", "--matrix", str(path), "--output", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["g1"]["re"] == pytest.approx(1, abs=1e-12)
        assert data["g2"]["re"] == pytest.approx(3, abs=1e-12)

    def test_non_unitary_matrix_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.mat"
        write_matrix(path, np.eye(4) * 1.01)
        code, _, err = run_cli(capsys, "invariants", "--matrix", str(path))
        assert code == 2
        assert "tolerance" in err

    def test_missing_gate_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "invariants")
        assert code == 2


class TestMintimeCommand:
    def test_cnot(self, capsys):
        code, out, _ = run_cli(
            capsys, "mintime", "--gate", "cnot", "--coupling", "1", "--output", "json"
        )
        assert code == 0
        assert json.loads(out)["t_star_seconds"] == pytest.approx(0.5, rel=1e-12)

    def test_sqrtswap_at_j2(self, capsys):
        code, out, _ = run_cli(
            capsys, "mintime", "--gate", "sqrtswap", "--coupling", "2", "--output", "json"
        )
        assert code == 0
        assert json.loads(out)["t_star_seconds"] == pytest.approx(0.375, rel=1e-12)

    def test_controlled_u(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mintime",
            "--gate",
            "cu",
            "--gamma1",
            "0.5235987755982988",
            "--coupling",
            "1",
            "--output",
            "json",
        )
        assert code == 0
        want = np.arcsin(np.sin(0.5235987755982988)) / np.pi
        assert json.loads(out)["t_star_seconds"] == pytest.approx(want, rel=1e-10)

    def test_degrees_display(self, capsys):
        code, out, _ = run_cli(
            capsys, "mintime", "--gate", "cnot", "--coupling", "1", "--degrees"
        )
        assert code == 0
        assert "coords_deg.c1 = 90" in out


# `mintime --coupling 2` text reports, pinned byte for byte.
MINTIME_GOLDEN = {
    ("--gate", "cnot"): """gate = cnot
g1.re = 0
g1.im = 0
g2.re = 1
g2.im = 0
abc.a = 0
abc.b = 0
abc.c = 1
coords_rad.c1 = 1.57079632679
coords_rad.c2 = 0
coords_rad.c3 = 0
coupling_j_hz = 2
t_star_seconds = 0.25
""",
    ("--gate", "swap"): """gate = swap
g1.re = -1
g1.im = 0
g2.re = -3
g2.im = 0
abc.a = -1
abc.b = 0
abc.c = -3
coords_rad.c1 = 1.57079632679
coords_rad.c2 = 1.57079632679
coords_rad.c3 = 1.57079632679
coupling_j_hz = 2
t_star_seconds = 0.75
""",
    ("--gate", "sqrtswap"): """gate = sqrtswap
g1.re = 0
g1.im = 0.25
g2.re = 0
g2.im = 0
abc.a = 0
abc.b = 0.25
abc.c = 0
coords_rad.c1 = 0.785398163397
coords_rad.c2 = 0.785398163397
coords_rad.c3 = 0.785398163397
coupling_j_hz = 2
t_star_seconds = 0.375
""",
    ("--gate", "cu", "--gamma3", "0.5"): """gate = cu(0, 0, 0.5)
g1.re = 0.770151152934
g1.im = 0
g2.re = 2.54030230587
g2.im = 0
abc.a = 0.770151152934
abc.b = 0
abc.c = 2.54030230587
coords_rad.c1 = 0.5
coords_rad.c2 = 0
coords_rad.c3 = 0
coupling_j_hz = 2
t_star_seconds = 0.0795774715459
""",
}


# `coords` output for the MINTIME_GOLDEN gates: text, JSON and --degrees.
COORDS_GOLDEN = {
    ("cnot", "text"): "gate = cnot\ncoords_rad.c1 = 1.57079632679\ncoords_rad.c2 = 0\ncoords_rad.c3 = 0\n",
    ("cnot", "json"): '{\n  "gate": "cnot",\n  "coords_rad": {\n    "c1": 1.5707963267948966,\n    "c2": 0.0,\n    "c3": 0.0\n  }\n}\n',
    ("cnot", "degrees"): "gate = cnot\ncoords_deg.c1 = 90\ncoords_deg.c2 = 0\ncoords_deg.c3 = 0\n",
    ("swap", "text"): "gate = swap\ncoords_rad.c1 = 1.57079632679\ncoords_rad.c2 = 1.57079632679\ncoords_rad.c3 = 1.57079632679\n",
    ("swap", "json"): '{\n  "gate": "swap",\n  "coords_rad": {\n    "c1": 1.5707963267948966,\n    "c2": 1.5707963267948966,\n    "c3": 1.5707963267948966\n  }\n}\n',
    ("swap", "degrees"): "gate = swap\ncoords_deg.c1 = 90\ncoords_deg.c2 = 90\ncoords_deg.c3 = 90\n",
    ("sqrtswap", "text"): "gate = sqrtswap\ncoords_rad.c1 = 0.785398163397\ncoords_rad.c2 = 0.785398163397\ncoords_rad.c3 = 0.785398163397\n",
    ("sqrtswap", "json"): '{\n  "gate": "sqrtswap",\n  "coords_rad": {\n    "c1": 0.7853981633974483,\n    "c2": 0.7853981633974483,\n    "c3": 0.7853981633974483\n  }\n}\n',
    ("sqrtswap", "degrees"): "gate = sqrtswap\ncoords_deg.c1 = 45\ncoords_deg.c2 = 45\ncoords_deg.c3 = 45\n",
    ("cu", "text"): "gate = cu(0, 0, 0.5)\ncoords_rad.c1 = 0.5\ncoords_rad.c2 = 0\ncoords_rad.c3 = 0\n",
    ("cu", "json"): '{\n  "gate": "cu(0, 0, 0.5)",\n  "coords_rad": {\n    "c1": 0.5,\n    "c2": 0.0,\n    "c3": 0.0\n  }\n}\n',
    ("cu", "degrees"): "gate = cu(0, 0, 0.5)\ncoords_deg.c1 = 28.6478897565\ncoords_deg.c2 = 0\ncoords_deg.c3 = 0\n",
}
COORDS_GATES = {g[1]: g for g in MINTIME_GOLDEN}
COORDS_FLAGS = {"text": (), "json": ("--output", "json"), "degrees": ("--degrees",)}


class TestMintimeGolden:
    @pytest.mark.parametrize("gate", list(MINTIME_GOLDEN), ids=lambda g: g[1])
    def test_text_report(self, capsys, gate):
        code, out, err = run_cli(capsys, "mintime", *gate, "--coupling", "2")
        assert code == 0
        assert err == ""
        assert out == MINTIME_GOLDEN[gate]

    @pytest.mark.parametrize("key", list(COORDS_GOLDEN), ids="-".join)
    def test_coords_report(self, capsys, key):
        gate, fmt = key
        code, out, err = run_cli(capsys, "coords", *COORDS_GATES[gate], *COORDS_FLAGS[fmt])
        assert code == 0
        assert err == ""
        assert out == COORDS_GOLDEN[key]

    def test_invariants_computed_once(self, capsys, monkeypatch):
        from spinpair import invariants

        calls = []
        original = invariants.unitary4

        def counted(u):
            calls.append(1)
            return original(u)

        monkeypatch.setattr(invariants, "unitary4", counted)
        code, _, _ = run_cli(capsys, "mintime", "--gate", "cu", "--gamma3", "0.5", "--coupling", "2")
        assert code == 0
        assert len(calls) == 1


class TestKakCommand:
    def test_swap(self, capsys):
        code, out, _ = run_cli(capsys, "kak", "--gate", "swap", "--output", "json")
        assert code == 0
        data = json.loads(out)
        for key in ("c1", "c2", "c3"):
            assert data["coords_rad"][key] == pytest.approx(np.pi / 2, abs=1e-9)


class TestCoordsCommand:
    def test_sqrtswap(self, capsys):
        code, out, _ = run_cli(capsys, "coords", "--gate", "sqrtswap", "--output", "json")
        assert code == 0
        data = json.loads(out)
        assert data["coords_rad"]["c1"] == pytest.approx(np.pi / 4, abs=1e-10)


class TestTolScale:
    def test_loosened_unitarity(self, capsys, tmp_path):
        # defect ~2.5e-8 fails the 1e-8 input tolerance, passes when scaled up
        m = np.eye(4, dtype=complex)
        m[0, 0] = 1 + 2.5e-8
        path = tmp_path / "almost.mat"
        write_matrix(path, m)
        code, _, err = run_cli(capsys, "invariants", "--matrix", str(path))
        assert code == 2
        code, _, _ = run_cli(
            capsys, "invariants", "--matrix", str(path), "--tol-scale", "100"
        )
        assert code == 0
        # scale is reset between invocations
        code, _, _ = run_cli(capsys, "invariants", "--matrix", str(path))
        assert code == 2

    def test_mintime_of_a_perturbed_edge_gate(self, capsys, tmp_path):
        # An edge gate off the unitary group by about 6e-8, accepted under
        # --tol-scale 1000 and snapped to the nearest unitary; the cubic
        # check keeps its fixed tolerance.
        from conftest import weyl_gate

        rng = np.random.default_rng(5)
        m = weyl_gate(rng, np.pi / 2, 0.79, np.pi / 4) @ np.diag(1 + 3e-8 * rng.standard_normal(4))
        path = tmp_path / "edge.mat"
        write_matrix(path, m)
        code, out, err = run_cli(
            capsys, "mintime", "--matrix", str(path), "--coupling", "1",
            "--tol-scale", "1000", "--output", "json",
        )
        assert (code, err) == (0, "")
        coords = json.loads(out)["coords_rad"]
        assert [coords["c1"], coords["c2"], coords["c3"]] == pytest.approx(
            [np.pi / 2, 0.79, np.pi / 4], abs=1e-6
        )


    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
    def test_invalid_scale_exits_2(self, capsys, tmp_path, scale):
        # ||M†M - I|| = 24: a non-finite scale must not switch the check off.
        path = tmp_path / "far.mat"
        write_matrix(path, 5 * np.eye(4, dtype=complex))
        code, out, err = run_cli(
            capsys, "mintime", "--matrix", str(path), "--coupling", "1", f"--tol-scale={scale}"
        )
        assert (code, out) == (2, "")
        assert "tolerance scale" in err

    def test_scale_changes_no_output(self, capsys, tmp_path):
        # Only the custom-matrix input check reads the scale, and input
        # that passes it is snapped, so a scale changes nothing for
        # input that passes at scale 1.
        from conftest import haar_unitary

        matrix = tmp_path / "haar.mat"
        write_matrix(matrix, haar_unitary(np.random.default_rng(11)))
        sched_path = tmp_path / "gate.sched"
        sched = str(sched_path)
        gates = [
            ("--gate", "cnot"),
            ("--gate", "swap"),
            ("--gate", "sqrtswap"),
            ("--gate", "cu", "--gamma1", "0.3", "--gamma2", "-0.2", "--gamma3", "0.7"),
            ("--matrix", str(matrix)),
        ]
        runs = []
        for gate in gates:
            for command in (
                ("invariants", *gate),
                ("coords", *gate),
                ("kak", *gate),
                ("mintime", *gate, "--coupling", "2.5"),
                ("schedule", *gate, "--coupling", "2.5", "--pulse-strength", "997", "-o", sched),
                ("simulate", "--schedule", sched),
                ("verify", "--schedule", sched),
                ("verify", *gate, "--schedule", sched),
            ):
                runs += [(*command, "--output", output) for output in ("text", "json")]
        for argv in runs:
            results = []
            for extra in ((), ("--tol-scale", "1000")):
                code, out, err = run_cli(capsys, *argv, *extra)
                blob = sched_path.read_bytes() if argv[0] == "schedule" else None
                results.append((code, out, err, blob))
            assert results[0] == results[1], argv
            assert results[0][0] == 0, argv


class TestInvalidScalars:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            ("mintime", "--gate", "cnot", "--coupling", "nan"),
            ("mintime", "--gate", "cnot", "--coupling", "inf", "--output", "json"),
            ("schedule", "--gate", "cnot", "--coupling", "0", "--pulse-strength", "1000"),
            ("schedule", "--gate", "cnot", "--coupling=-1", "--pulse-strength", "1000"),
            ("kak", "--gate", "cu", "--gamma1", "inf"),
            ("mintime", "--gate", "cnot", "--coupling", "1e-320", "--output", "json"),
            ("mintime", "--gate", "cnot", "--coupling", "1e308"),
        ],
        ids=["mintime-nan-coupling", "mintime-inf-coupling", "schedule-zero-coupling",
             "schedule-negative-coupling", "kak-inf-gamma", "mintime-t-star-overflow",
             "mintime-pi-j-overflow"],
    )
    def test_exits_2_with_one_error_line(self, capsys, argv):
        # "error" turns any numpy RuntimeWarning into an exception, which
        # main() does not catch.
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err

    def test_json_report_never_spells_nan(self, capsys, monkeypatch):
        # A report holding NaN or Infinity is not JSON: one error line, exit 2.
        from dataclasses import replace

        from spinpair.mintime import min_time

        monkeypatch.setattr(cli, "min_time", lambda u, j: replace(min_time(u, j), t_star=np.inf))
        code, out, err = run_cli(capsys, "mintime", "--gate", "cnot", "--coupling", "1",
                                 "--output", "json")
        assert (code, out) == (2, "")
        assert err.startswith("error: Out of range float values are not JSON compliant")
        assert err.count("\n") == 1


class TestHugeMatrix:
    """A finite matrix whose U†U overflows is rejected as non-unitary, with
    one error line and no numpy warning."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [("invariants",), ("mintime", "--coupling", "1"), ("coords",), ("kak",),
         ("schedule", "--coupling", "1", "--pulse-strength", "1000")],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("entries", ["one-1e200", "nan-defect"])
    def test_exits_2_with_one_error_line(self, capsys, tmp_path, argv, entries):
        if entries == "one-1e200":
            m = np.eye(4, dtype=complex)
            m[2, 1] = 1e200
        else:  # U†U holds inf - inf = NaN
            parts = np.random.default_rng(0).choice([-1e200, 0.0, 1e200], size=(2, 4, 4))
            m = parts[0] + 1j * parts[1]
        path = tmp_path / "huge.json"
        write_matrix(path, m)
        code, out, err = run_cli(capsys, argv[0], "--matrix", str(path), *argv[1:])
        assert (code, out, err) == (
            2, "", "error: ||U†U - I||_max = inf exceeds tolerance 1.000e-08\n"
        )


class TestPipelineExitCode:
    def test_positive_discriminant_maps_to_3(self, capsys, monkeypatch):
        from spinpair import cli
        from spinpair.errors import PositiveDiscriminant

        def boom(u, coupling):
            raise PositiveDiscriminant("synthetic pipeline failure")

        monkeypatch.setattr(cli, "min_time", boom)
        code = cli.main(["mintime", "--gate", "cnot", "--coupling", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert "synthetic pipeline failure" in err


    def test_coordinates_off_the_cubic_map_to_3(self, capsys, monkeypatch):
        from spinpair import mintime
        from spinpair.mintime import CanonicalCoordinates

        monkeypatch.setattr(
            mintime, "_spectral_coords", lambda m, det: CanonicalCoordinates(np.pi / 2, 0.3, 0)
        )
        code, out, err = run_cli(capsys, "mintime", "--gate", "cnot", "--coupling", "1")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "cubic residual" in err


class TestExitCodeTable:
    def test_every_error_has_an_explicit_code(self):
        # A new error class must be added here, with the code it exits with.
        expected = {
            errors.NonRealG2: 3,
            errors.PositiveDiscriminant: 3,
            errors.ResidualTooLarge: 3,
            errors.NotLocal: 3,
            errors.DegenerateSpectrum: 3,
            errors.ReconstructionFailed: 3,
            errors.HardPulseRegimeViolated: 4,
            errors.NonUnitary: 2,
            errors.NonHermitian: 2,
            errors.NonPositiveCoupling: 2,
            errors.ScheduleFormatError: 2,
            errors.SpinPairError: 2,
            OSError: 2,
            ValueError: 2,
        }
        declared = {
            obj for obj in vars(errors).values()
            if isinstance(obj, type) and issubclass(obj, errors.SpinPairError)
        }
        assert set(expected) == declared | {OSError, ValueError}
        assert cli._EXIT_CODES == expected

    @pytest.mark.parametrize(
        "error", [errors.DegenerateSpectrum, errors.ReconstructionFailed, errors.NotLocal],
        ids=lambda e: e.__name__,
    )
    @pytest.mark.parametrize(
        "command", [("kak",), ("schedule", "--coupling", "1", "--pulse-strength", "1000")],
        ids=["kak", "schedule"],
    )
    def test_decomposition_failure_maps_to_3(self, capsys, monkeypatch, command, error):
        # A valid unitary whose Cartan decomposition fails is a pipeline
        # failure, not an input failure.
        from spinpair import kak

        def fail(m):
            raise error("synthetic decomposition failure")

        monkeypatch.setattr(kak, "_real_orthogonal_eigenbasis", fail)
        code, out, err = run_cli(capsys, command[0], "--gate", "cu", "--gamma1", "0.3", *command[1:])
        assert (code, out, err) == (3, "", "error: synthetic decomposition failure\n")


IDENTITY_DICT = {"re": np.eye(4).tolist(), "im": np.zeros((4, 4)).tolist()}


class TestScheduleTarget:
    @pytest.mark.parametrize(
        "target, message",
        [
            ({"name": "bogus"}, "malformed schedule: unknown gate name 'bogus'"),
            ({}, "malformed gate description: 'name'"),
            ({"name": "cu", "gamma": [0.1, 0.2]},
             "malformed gate description: cu needs 3 gamma values, got 2"),
            ({"name": "cu", "gamma": [0.1, 0.2, 0.3, 9.0]},
             "malformed gate description: cu needs 3 gamma values, got 4"),
            ({"name": "cnot", "gamma": [1, 2, 3]},
             "malformed gate description: a cnot target takes no gamma"),
            ({"name": "cu", "gamma": [0.1, 0.2, 0.3], "matrix": IDENTITY_DICT},
             "malformed gate description: a cu target takes no matrix"),
            ({"name": "custom", "matrix": IDENTITY_DICT, "gamma": [0.1, 0.2, 0.3]},
             "malformed gate description: a custom target takes no gamma"),
            ({"name": ["cu"]}, "malformed schedule: unknown gate name ['cu']"),
            ({"name": None}, "malformed schedule: unknown gate name None"),
            ("cnot", "malformed gate description: a target must be an object, got 'cnot'"),
        ],
        ids=["unknown-name", "no-name", "two-gammas", "four-gammas", "cnot-gamma",
             "cu-matrix", "custom-gamma", "array-name", "null-name", "string-target"],
    )
    def test_rejected_with_one_error_line(self, capsys, tmp_path, target, message):
        data = synthesize(GateSpec.controlled_u(0.1, 0.2, 0.3), 1.0, 1000.0).to_dict()
        data["target"] = target
        path = tmp_path / "target.sched"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "verify", "--schedule", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")


STRING_IDENTITY = {"re": [[str(x) for x in row] for row in np.eye(4).tolist()],
                   "im": np.zeros((4, 4)).tolist()}

# One value of each JSON type that no reader field takes, then an array where
# a number belongs and a number where an array belongs.
WRONG_TYPES = {"text": "0.5", "false": False, "null": None, "object": {"x": 1.0}, "nested": [[1.0]]}
NOT_A_NUMBER, NOT_AN_ARRAY = {"array": [1.0]}, {"number": 1.0}


def with_value(data, path, value):
    """A deep copy of ``data`` with ``value`` set at the keys and indices ``path``."""
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


# (matrix object, error message), in a --matrix file or a custom target.
MATRIX_CASES = {
    "strings": (STRING_IDENTITY, "matrix 're' row must be an array of numbers, "
                                 "got ['1.0', '0.0', '0.0', '0.0']"),
    "extra-key": ({**IDENTITY_DICT, "scale": 2.0}, "a matrix takes only 're' and 'im', not scale"),
    **{
        f"{field}-as-{kind}": (with_value(IDENTITY_DICT, path, value), f"{where}, got {value!r}")
        for field, path, where in [
            ("re", ("re",), "matrix 're' must be an array"),
            ("im-row", ("im", 3), "matrix 'im' row must be an array of numbers"),
        ]
        for kind, value in {**WRONG_TYPES, **NOT_AN_ARRAY}.items()
        if kind != "nested" or field != "re"
    },
    "re-as-nested": (with_value(IDENTITY_DICT, ("re",), [[1.0]]),
                  "matrix 're' must be a 4x4 array, row-major"),
    "im-infinity": (with_value(IDENTITY_DICT, ("im", 0, 0), float("inf")),
                    "matrix contains NaN or Inf entries"),
}

# (path of keys and indices into a cu(1, 2, 3) schedule dict, value set
# there, error message).  float(), iteration and np.array accept the eleven
# values written out and the first two MATRIX_CASES, so those files load if
# the type checks are skipped; the generated cases put every reader field
# through each wrong JSON type.
JSON_TYPE_CASES = {
    "v-string": (("segments", 0, "v"), "1234",
                 "malformed schedule: segment 0 'v' must be an array of numbers, got '1234'"),
    "gamma-string": (("target", "gamma"), "123",
                     "malformed gate description: 'gamma' must be an array of numbers, got '123'"),
    "duration-string": (("segments", 0, "duration_s"), "0.5",
                        "malformed schedule: segment 0 'duration_s' must be a number, got '0.5'"),
    "duration-bool": (("segments", 0, "duration_s"), True,
                      "malformed schedule: segment 0 'duration_s' must be a number, got True"),
    "coupling-string": (("coupling_j_hz",), "2",
                        "malformed schedule: 'coupling_j_hz' must be a number, got '2'"),
    "coupling-bool": (("coupling_j_hz",), True,
                      "malformed schedule: 'coupling_j_hz' must be a number, got True"),
    "strength-string": (("pulse_strength_n",), "1000",
                        "malformed schedule: 'pulse_strength_n' must be a number, got '1000'"),
    "v-strings": (("segments", 0, "v"), ["0", "1", "0", "0"],
                  "malformed schedule: segment 0 'v' must be an array of numbers, "
                  "got ['0', '1', '0', '0']"),
    "v-bools": (("segments", 0, "v"), [False, True, False, False],
                "malformed schedule: segment 0 'v' must be an array of numbers, "
                "got [False, True, False, False]"),
    "gamma-bools": (("target", "gamma"), [True, False, False],
                    "malformed gate description: 'gamma' must be an array of numbers, "
                    "got [True, False, False]"),
    "segments-object": (("segments",), {},
                        "malformed schedule: 'segments' must be an array, got {}"),
    **{
        f"{field}-as-{kind}": (path, value, f"{where}, got {value!r}")
        for field, path, where, shape in [
            ("coupling", ("coupling_j_hz",), "malformed schedule: 'coupling_j_hz' must be a number",
             NOT_A_NUMBER),
            ("strength", ("pulse_strength_n",),
             "malformed schedule: 'pulse_strength_n' must be a number", NOT_A_NUMBER),
            ("duration", ("segments", 2, "duration_s"),
             "malformed schedule: segment 2 'duration_s' must be a number", NOT_A_NUMBER),
            ("v", ("segments", 2, "v"),
             "malformed schedule: segment 2 'v' must be an array of numbers", NOT_AN_ARRAY),
            ("gamma", ("target", "gamma"),
             "malformed gate description: 'gamma' must be an array of numbers", NOT_AN_ARRAY),
            ("segments", ("segments",), "malformed schedule: 'segments' must be an array",
             NOT_AN_ARRAY),
        ]
        for kind, value in {**WRONG_TYPES, **shape}.items()
        if (field, kind) != ("segments", "nested")
    },
    "segments-as-nested": (("segments",), [[1.0]],
                        "malformed schedule: segment 0 must be an object, got [1.0]"),
    "segment-null": (("segments", 1), None,
                     "malformed schedule: segment 1 must be an object, got None"),
    "schedule-unknown-key": (("pulse_strenght_n",), 1000.0,
                             "malformed schedule: a schedule takes no pulse_strenght_n"),
    "segment-unknown-key": (("segments", 1, "duraton_s"), 0.5,
                            "malformed schedule: segment 1 takes no duraton_s"),
    **{
        f"matrix-{case}": (("target",), {"name": "custom", "matrix": matrix}, message)
        for case, (matrix, message) in MATRIX_CASES.items()
    },
}


# Python's own conversion errors, which no error line shows.
PYTHON_TEXT = ("float() argument", "could not convert", "not iterable", "has no len()",
               "inhomogeneous")


class TestJsonTypes:
    """Schedule files and matrix files hold JSON numbers and arrays only, and
    a matrix holds only 're' and 'im'.  A bool, a numeric string or an object
    read as a number or an array would let the first files pass ``verify
    --threshold 0``; every error line names the field."""

    @staticmethod
    def cu_schedule(tmp_path, path=(), value=None):
        data = synthesize(GateSpec.controlled_u(1, 2, 3), 1.0, 1000.0).to_dict()
        if path:
            data = with_value(data, path, value)
        file = tmp_path / "cu.sched"
        file.write_text(json.dumps(data))
        return str(file)

    @pytest.mark.parametrize("case", list(JSON_TYPE_CASES))
    def test_schedule_file(self, capsys, tmp_path, case):
        path, value, message = JSON_TYPE_CASES[case]
        schedule = self.cu_schedule(tmp_path, path, value)
        code, out, err = run_cli(capsys, "verify", "--schedule", schedule, "--threshold", "0")
        assert not any(text in err for text in PYTHON_TEXT)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("case", list(MATRIX_CASES))
    def test_matrix_file(self, capsys, tmp_path, case):
        matrix, message = MATRIX_CASES[case]
        path = tmp_path / "target.json"
        path.write_text(json.dumps(matrix))
        code, out, err = run_cli(capsys, "verify", "--schedule", self.cu_schedule(tmp_path),
                                 "--matrix", str(path), "--threshold", "0")
        assert not any(text in err for text in PYTHON_TEXT)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestShellEntryPoint:
    """``python -m spinpair.cli`` with every warning an error."""

    @staticmethod
    def run(tmp_path, *argv):
        src = Path(__file__).resolve().parent.parent / "src"
        return subprocess.run(
            [sys.executable, "-W", "error", "-m", "spinpair.cli", *argv],
            capture_output=True, text=True, cwd=tmp_path, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )

    def test_coords(self, tmp_path):
        proc = self.run(tmp_path, "coords", "--gate", "swap")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, COORDS_GOLDEN[("swap", "text")], "")

    def test_missing_schedule(self, tmp_path):
        proc = self.run(tmp_path, "verify", "--schedule", str(tmp_path / "no.sched"))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_schedule_to_stdout_pipe(self, tmp_path, capsys):
        # stdout is a pipe, which cannot be truncated: the file text comes
        # first, then the report.
        argv = ["schedule", "--gate", "cnot", "--coupling", "1", "--pulse-strength", "1000"]
        path = tmp_path / "cnot.sched"
        save_schedule(synthesize(GateSpec.cnot(), 1.0, 1000.0), path)
        code, report, _ = run_cli(capsys, *argv, "-o", os.devnull)
        assert code == 0
        proc = self.run(tmp_path, *argv, "-o", "/dev/stdout")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == path.read_text() + report.replace(os.devnull, "/dev/stdout")


class TestScheduleOutputPath:
    ARGV = ("schedule", "--gate", "swap", "--coupling", "1", "--pulse-strength", "1000")

    def test_dev_null(self, capsys):
        code, out, err = run_cli(capsys, *self.ARGV, "-o", os.devnull)
        assert (code, err) == (0, "")
        assert os.devnull in out

    def test_directory_exits_2_with_one_error_line(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, *self.ARGV, "-o", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_read_only_file_exits_2_and_is_kept(self, capsys, tmp_path):
        path = tmp_path / "s.sched"
        path.write_bytes(b"x" * 10_000)
        path.chmod(0o444)
        if os.access(path, os.W_OK):
            pytest.skip("this user may write read-only files (root)")
        code, out, err = run_cli(capsys, *self.ARGV, "-o", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert path.read_bytes() == b"x" * 10_000

    def test_path_below_a_file_exits_2_and_keeps_it(self, capsys, tmp_path):
        # Not a directory, for root too.
        path = tmp_path / "file"
        path.write_bytes(b"x" * 10_000)
        code, out, err = run_cli(capsys, *self.ARGV, "-o", str(path / "s.sched"))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert path.read_bytes() == b"x" * 10_000


class TestScheduleAndVerify:
    def test_cnot_end_to_end(self, capsys, tmp_path):
        out_path = tmp_path / "cnot.sched"
        code, out, _ = run_cli(
            capsys,
            "schedule",
            "--gate",
            "cnot",
            "--coupling",
            "1",
            "--pulse-strength",
            "1000",
            "-o",
            str(out_path),
            "--output",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["segments"] == 5
        assert report["drift_time_s"] == pytest.approx(0.5)

        code, out, _ = run_cli(
            capsys, "verify", "--schedule", str(out_path), "--output", "json"
        )
        assert code == 0
        assert json.loads(out)["fidelity"] >= 0.999

    def test_swap_drift(self, capsys, tmp_path):
        out_path = tmp_path / "swap.sched"
        code, out, _ = run_cli(
            capsys,
            "schedule",
            "--gate",
            "swap",
            "--coupling",
            "1",
            "--pulse-strength",
            "1000",
            "-o",
            str(out_path),
            "--output",
            "json",
        )
        assert code == 0
        assert json.loads(out)["drift_time_s"] == pytest.approx(1.5)

    @pytest.mark.parametrize("gate", ["swap", "sqrtswap"])
    def test_drift_time_matches_verify(self, capsys, tmp_path, gate):
        # At J = 2.5 the three windows sum to 3/(2J) + 1 ulp (sqrtswap:
        # 3/(4J) + 1 ulp); both commands report that sum.
        path = str(tmp_path / "s.sched")
        argv = ["--gate", gate, "--coupling", "2.5", "--pulse-strength", "1000"]
        code, out, _ = run_cli(capsys, "schedule", *argv, "-o", path, "--output", "json")
        assert code == 0
        scheduled = json.loads(out)["drift_time_s"]
        code, out, _ = run_cli(capsys, "verify", "--schedule", path, "--output", "json")
        assert code == 0
        assert json.loads(out)["drift_time_s"] == scheduled

    def test_small_coupling_swap(self, capsys):
        code, out, err = run_cli(
            capsys,
            "schedule",
            "--gate",
            "swap",
            "--coupling",
            "0.00010080936409388592",
            "--pulse-strength",
            "1",
        )
        assert code == 0
        assert err == ""
        assert "segments = 8" in out

    def test_soft_pulse_exits_4(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "schedule",
            "--gate",
            "cnot",
            "--coupling",
            "1",
            "--pulse-strength",
            "5",
            "-o",
            str(tmp_path / "x.sched"),
        )
        assert code == 4
        assert "hard-pulse" in err

    def test_cross_gate_verify_exits_5(self, capsys, tmp_path):
        out_path = tmp_path / "cnot.sched"
        run_cli(
            capsys,
            "schedule",
            "--gate",
            "cnot",
            "--coupling",
            "1",
            "--pulse-strength",
            "1000",
            "-o",
            str(out_path),
        )
        code, out, _ = run_cli(
            capsys, "verify", "--schedule", str(out_path), "--gate", "swap"
        )
        assert code == 5

    def test_verify_against_matrix_target(self, capsys, tmp_path):
        sched = tmp_path / "sq.sched"
        run_cli(
            capsys,
            "schedule",
            "--gate",
            "sqrtswap",
            "--coupling",
            "1",
            "--pulse-strength",
            "1000",
            "-o",
            str(sched),
        )
        target = tmp_path / "sq.mat"
        write_matrix(target, SQRT_SWAP)
        code, out, _ = run_cli(
            capsys, "verify", "--schedule", str(sched), "--matrix", str(target)
        )
        assert code == 0

    def test_missing_schedule_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "verify", "--schedule", str(tmp_path / "no.sched"))
        assert code == 2

    def test_empty_schedule_vs_identity(self, capsys, tmp_path):
        path = tmp_path / "empty.sched"
        identity = {"re": np.eye(4).tolist(), "im": np.zeros((4, 4)).tolist()}
        path.write_text(
            json.dumps(
                {
                    "coupling_j_hz": 1.0,
                    "pulse_strength_n": 100.0,
                    "target": {"name": "custom", "matrix": identity},
                    "segments": [],
                }
            )
        )
        code, out, _ = run_cli(capsys, "verify", "--schedule", str(path), "--output", "json")
        assert code == 0
        data = json.loads(out)
        assert data["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert data["wall_time_s"] == 0.0


def schedule_file(path, coupling=1.0, v0=None, segments=None, n=1000.0):
    """A CNOT schedule file with ``coupling`` and pulse strength ``n``, its
    segments replaced by ``segments`` and segment 0's amplitudes by ``v0``
    when given.  NaN and Infinity are written as JSON tokens, which the
    JSON reader accepts and the schedule then rejects."""
    data = synthesize(GateSpec.cnot(), 1.0, 1000.0).to_dict()
    if segments is not None:
        data["segments"] = segments
    if v0 is not None:
        data["segments"][0]["v"] = v0
    data["coupling_j_hz"] = coupling
    data["pulse_strength_n"] = n
    path.write_text(json.dumps(data))
    return str(path)


class TestAmplitudeCount:
    @pytest.mark.parametrize("count", [3, 5])
    def test_rejected_with_one_error_line(self, capsys, tmp_path, count):
        path = schedule_file(tmp_path / "short.sched", v0=[0.0] * count)
        code, out, err = run_cli(capsys, "verify", "--schedule", path)
        assert (code, out, err) == (
            2, "", f"error: malformed schedule: segment 0 needs 4 amplitudes, got {count}\n"
        )


class TestNonFiniteSchedule:
    @pytest.mark.parametrize("command", ["verify", "simulate"])
    # A JSON integer past the double range reads as infinite, as 1e400 does.
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 10**400],
                             ids=["nan", "inf", "huge-integer"])
    def test_non_finite_amplitude_exits_2(self, capsys, tmp_path, command, bad):
        path = schedule_file(tmp_path / "bad.sched", v0=[0.0, bad, 0.0, 0.0])
        code, out, err = run_cli(capsys, command, "--schedule", path)
        assert code == 2
        assert "NaN or Inf" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    @pytest.mark.parametrize("drift_only", [False, True], ids=["pulsed", "drift-only"])
    def test_nan_coupling_exits_2(self, capsys, tmp_path, command, drift_only):
        segments = [{"duration_s": 0.5, "v": [0.0] * 4}] if drift_only else None
        path = schedule_file(tmp_path / "nan_j.sched", float("nan"), segments=segments)
        code, _, err = run_cli(capsys, command, "--schedule", path)
        assert code == 2
        assert "NaN or Inf" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["verify", "simulate"])
    @pytest.mark.parametrize(
        "coupling,v0,drift_only",
        [
            (1.0, [0.0, float("inf"), 0.0, 0.0], False),
            (1.0, [0.0, -float("inf"), 0.0, 0.0], False),
            (float("inf"), None, False),
            (float("inf"), None, True),
        ],
        ids=["inf-amplitude", "minus-inf-amplitude", "inf-coupling", "inf-coupling-drift-only"],
    )
    def test_stderr_is_one_error_line(self, capsys, tmp_path, command, coupling, v0, drift_only):
        # "error" turns any numpy RuntimeWarning into an exception, which
        # main() does not catch.
        segments = [{"duration_s": 0.5, "v": [0.0] * 4}] if drift_only else None
        path = schedule_file(tmp_path / "inf.sched", coupling, v0=v0, segments=segments)
        code, out, err = run_cli(capsys, command, "--schedule", path)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "NaN or Inf" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["verify", "simulate"])
    @pytest.mark.parametrize("v", [[0.0] * 4, [1e200, 0.0, 0.0, 0.0]], ids=["drift", "pulse"])
    def test_overflowing_phase_exits_2(self, capsys, tmp_path, command, v):
        # Every input is finite, but the phase duration * eigenvalue would not
        # be: the loader rejects the first number past 1e150.
        segments = [{"duration_s": 1e200, "v": v}]
        path = schedule_file(tmp_path / "huge.sched", 1e200, segments=segments, n=1e201)
        code, out, err = run_cli(capsys, command, "--schedule", path)
        field = "amplitude v1" if v[0] else "segment duration"
        assert (code, out, err) == (
            2, "", f"error: malformed schedule: {field} must be finite, at most 1e150 in size "
            "(not NaN or Inf), got 1e+200\n"
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["verify", "simulate"])
    @pytest.mark.parametrize(
        "coupling, v0, field",
        [(1.0, [0.0, 1e308, 0.0, 250.0], "amplitude v2"), (1.5e308, None, "coupling J")],
        ids=["amplitude", "coupling"],
    )
    def test_overflowing_hamiltonian_exits_2(self, capsys, tmp_path, command, coupling, v0, field):
        # Every input is finite, but pi * v or the drift J * pi / 2 would not
        # be: the loader rejects the number past 1e150.
        path = schedule_file(tmp_path / "huge.sched", coupling, v0=v0)
        code, out, err = run_cli(capsys, command, "--schedule", path)
        huge = 1e308 if v0 else coupling
        assert (code, out, err) == (
            2, "", f"error: malformed schedule: {field} must be finite, at most 1e150 in size "
            f"(not NaN or Inf), got {huge}\n"
        )

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    # A JSON integer past the double range reads as infinite, as 1e400 does.
    @pytest.mark.parametrize("duration", [float("inf"), 10**400], ids=["Infinity", "huge-integer"])
    def test_infinite_duration_exits_2(self, capsys, tmp_path, command, duration):
        path = schedule_file(tmp_path / "long.sched", segments=[{"duration_s": duration, "v": [0.0] * 4}])
        code, out, err = run_cli(capsys, command, "--schedule", path)
        assert (code, out, err) == (
            2, "", "error: malformed schedule: segment duration must be finite and positive, got inf\n"
        )


class TestNonPositiveSchedule:
    @pytest.mark.parametrize("command", ["verify", "simulate"])
    @pytest.mark.parametrize("coupling", [0.0, -1.0], ids=["zero", "negative"])
    def test_coupling_exits_2(self, capsys, tmp_path, command, coupling):
        path = schedule_file(tmp_path / "j.sched", coupling)
        code, out, err = run_cli(capsys, command, "--schedule", path)
        assert code == 2
        assert out == ""
        assert err == f"error: coupling J must be positive, got {coupling}\n"

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    @pytest.mark.parametrize("n", [-5.0, 0.0, float("nan"), float("inf")])
    def test_pulse_strength_exits_2(self, capsys, tmp_path, command, n):
        path = schedule_file(tmp_path / "n.sched", n=n)
        code, out, err = run_cli(capsys, command, "--schedule", path)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: malformed schedule: pulse strength N must be finite and positive, got {n}\n"
        )


class TestSimulateCommand:
    def test_simulate_reports_propagator(self, capsys, tmp_path):
        sched = tmp_path / "cnot.sched"
        run_cli(
            capsys,
            "schedule",
            "--gate",
            "cnot",
            "--coupling",
            "1",
            "--pulse-strength",
            "1000",
            "-o",
            str(sched),
        )
        code, out, _ = run_cli(
            capsys, "simulate", "--schedule", str(sched), "--output", "json"
        )
        assert code == 0
        data = json.loads(out)
        u = np.array(data["u_final"]["re"]) + 1j * np.array(data["u_final"]["im"])
        assert abs(abs(np.trace(u.conj().T @ np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]))) / 4 - 1) < 1e-3


class TestDeterminism:
    def test_report_bytes_stable(self, capsys):
        outputs = set()
        for _ in range(3):
            _, out, _ = run_cli(
                capsys, "mintime", "--gate", "sqrtswap", "--coupling", "2.5"
            )
            outputs.add(out)
        assert len(outputs) == 1

    def test_schedule_file_bytes_stable(self, capsys, tmp_path):
        blobs = set()
        for i in range(2):
            path = tmp_path / f"s{i}.sched"
            run_cli(
                capsys,
                "schedule",
                "--gate",
                "swap",
                "--coupling",
                "1",
                "--pulse-strength",
                "1000",
                "-o",
                str(path),
            )
            blobs.add(path.read_bytes())
        assert len(blobs) == 1


class TestRejectedInput:
    """Invalid scalars and unreadable files exit 2 with one error line."""

    @pytest.fixture
    def cnot_schedule(self, tmp_path):
        path = tmp_path / "cnot.sched"
        save_schedule(synthesize(GateSpec.cnot(), 1.0, 1000.0), path)
        return str(path)

    @pytest.mark.parametrize("threshold", ["nan", "inf", "1.5", "-0.1"])
    def test_threshold_outside_unit_interval_exits_2(self, capsys, cnot_schedule, threshold):
        code, out, err = run_cli(
            capsys, "verify", "--schedule", cnot_schedule, f"--threshold={threshold}"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: fidelity threshold") and err.count("\n") == 1

    @pytest.mark.parametrize("threshold, want", [("0", 0), ("1", 5)])
    def test_threshold_bounds_accepted(self, capsys, cnot_schedule, threshold, want):
        code, _, _ = run_cli(capsys, "verify", "--schedule", cnot_schedule, "--threshold", threshold)
        assert code == want

    @pytest.mark.parametrize("gate", ["cnot", "cu"])
    @pytest.mark.parametrize("strength", ["nan", "inf"])
    def test_non_finite_pulse_strength_exits_2(self, capsys, tmp_path, gate, strength):
        out_path = tmp_path / "x.sched"
        code, out, err = run_cli(
            capsys, "schedule", "--gate", gate, "--coupling", "1",
            "--pulse-strength", strength, "-o", str(out_path),
        )
        assert (code, out) == (2, "")
        assert err == f"error: pulse strength N must be finite, got {strength}\n"
        assert not out_path.exists()

    # 100 000 nested arrays: past the interpreter's recursion limit in json.load.
    DEEPLY_NESTED = b"[" * 100_000 + b"]" * 100_000

    @pytest.mark.parametrize(
        "content", [b"{not json", b"\xff\xfe", DEEPLY_NESTED, b'{"a":' * 100_000 + b"}" * 100_000],
        ids=["malformed", "not-utf8", "deeply-nested", "deeply-nested-objects"],
    )
    def test_unreadable_matrix_file_exits_2(self, capsys, tmp_path, content):
        path = tmp_path / "bad.mat"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "mintime", "--matrix", str(path), "--coupling", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: matrix file is not valid JSON: ")
        assert err.count("\n") == 1

    def test_non_utf8_schedule_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.sched"
        path.write_bytes(b"\xff\xfe")
        for command in ("simulate", "verify"):
            code, out, err = run_cli(capsys, command, "--schedule", str(path))
            assert (code, out) == (2, "")
            assert err.startswith("error: schedule file is not valid JSON: ")

    def test_deeply_nested_schedule_exits_2(self, capsys, tmp_path):
        path = tmp_path / "deep.sched"
        path.write_bytes(self.DEEPLY_NESTED)
        for command in ("simulate", "verify"):
            code, out, err = run_cli(capsys, command, "--schedule", str(path))
            assert (code, out) == (2, "")
            assert err.startswith("error: schedule file is not valid JSON: maximum recursion")
            assert err.count("\n") == 1
