"""Tests of the benchmark itself, on tiny sizes of every workload.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "haar_pipeline": {"batch": 4, "batches": 1},
    "boundary_mintime": {"count": 20},
    "cli_named": {"count": 4},
}


def run_main(monkeypatch, workload: str, trace: int) -> dict:
    monkeypatch.setattr(run, "SIZES", TINY)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.01", "--trace", str(trace)])
    assert rc == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(monkeypatch, workload, trace):
    result = run_main(monkeypatch, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and isinstance(result["failed"], int)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace == 0:
        assert all(v > 0 for v in values.values())
    else:
        # Self times plus the unattributed rest add up to the traced wall time.
        own = sum(v for name, v in values.items() if name.endswith(".self_us"))
        assert own == pytest.approx(values["run.root_span_us_per_gate"], rel=1e-9)
        assert own + values["run.unattributed_us_per_gate"] == pytest.approx(
            values["run.traced_wall_us_per_gate"], rel=1e-9
        )


def test_workloads_match_the_runner():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS) == set(run.SIZES)


def run_one_pass(workload, pool) -> workloads.Tally:
    tally = workloads.Tally()
    workload.run_pass(pool, tally)
    assert tally.attempted == len(tally.latencies)
    return tally


def test_haar_bad_input_is_counted():
    w = workloads.HaarPipeline(**TINY["haar_pipeline"])
    pool = w.make_pool(3)
    assert run_one_pass(w, pool).failed == 0
    pool[0][1] = 2 * pool[0][1]  # not unitary
    tally = run_one_pass(w, pool)
    assert (tally.attempted, tally.failed, tally.broken) == (4, 1, 1)


def test_boundary_bad_inputs_are_counted():
    w = workloads.BoundaryMintime(count=40)
    pool = w.make_pool(3)
    clean = run_one_pass(w, pool)
    wrong_truth = gen.BoundaryGate(pool[0].matrix, tuple(c + 1e-3 for c in pool[0].truth))
    not_unitary = gen.BoundaryGate(2 * pool[1].matrix, pool[1].truth)
    was_failing = [
        t.failed for t in (run_one_pass(w, [pool[0]]), run_one_pass(w, [pool[1]]))
    ]
    tally = run_one_pass(w, [wrong_truth, not_unitary] + pool[2:])
    assert tally.attempted == clean.attempted
    assert tally.failed == clean.failed + 2 - sum(was_failing)


def test_counts_do_not_depend_on_passes():
    w = workloads.BoundaryMintime(count=200)
    pool = w.make_pool(1)
    once = run_one_pass(w, pool)
    twice = workloads.Tally()
    w.run_pass(pool, twice)
    w.run_pass(pool, twice)
    assert twice.gates == 2 * once.gates
    assert (twice.attempted, twice.failed) == (once.attempted, once.failed) == (200, once.failed)
    assert once.failed > 0


def test_boundary_reports_the_known_defect():
    # Chamber-edge gates lose accuracy through the cubic; the benchmark must
    # show that rather than drop those gates.
    w = workloads.BoundaryMintime(count=400)
    tally = run_one_pass(w, w.make_pool(1))
    assert tally.failed > 0
    assert tally.coord_err_max > 1e-8
    assert tally.broken == 0


def test_cli_bad_requests_are_counted(tmp_path):
    w = workloads.CliNamed(count=4, workdir=tmp_path)
    pool = w.make_pool(3)
    assert run_one_pass(w, pool).failed == 0
    argv, verify_argv, t_star = pool[0]
    pool[0] = (argv, verify_argv, t_star + 1.0)  # drift time no longer matches t*
    argv, verify_argv, t_star = pool[1]
    pool[1] = ([a if a != "1.0" else "-1.0" for a in argv], verify_argv, t_star)  # J < 0: exit 4
    tally = run_one_pass(w, pool)
    assert (tally.attempted, tally.failed, tally.broken) == (4, 2, 2)


def test_generators_are_seeded():
    assert all(np.array_equal(a, b) for a, b in zip(gen.haar_batch(5, 3), gen.haar_batch(5, 3)))
    assert not np.array_equal(gen.haar_batch(5, 1)[0], gen.haar_batch(6, 1)[0])
    first, again = gen.boundary_gates(5, 10), gen.boundary_gates(5, 10)
    assert [g.truth for g in first] == [g.truth for g in again]
    assert gen.cli_requests(5, 8, 1.0, 1e4) == gen.cli_requests(5, 8, 1.0, 1e4)


def test_ground_truth_construction_matches_the_library():
    from spinpair.kak import interaction_unitary

    c = (1.2, 0.7, -0.3)
    assert np.allclose(gen.interaction(*c), interaction_unitary(*c), atol=1e-14)
    for g in gen.boundary_gates(2, 50):
        assert np.allclose(g.matrix.conj().T @ g.matrix, np.eye(4), atol=1e-12)
        assert np.pi / 2 >= g.truth[0] >= g.truth[1] >= g.truth[2] >= 0


def test_self_time_subtracts_direct_children():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; root > child [5, 9]
    a = {
        "start": np.array([0.0, 1.0, 2.0, 5.0]),
        "end": np.array([10.0, 4.0, 3.0, 9.0]),
        "parent": np.array([-1, 0, 1, 0]),
    }
    assert spans.self_times(a).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_tracer_restores_the_library():
    import spinpair
    from spinpair import linalg, schedule

    originals = (spinpair.min_time, schedule.unitary4, linalg.unitary4, schedule.GateSpec.custom)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert schedule.unitary4 is not originals[1]
        spinpair.GateSpec.custom(np.eye(4))
    finally:
        tracer.uninstall()
    assert (spinpair.min_time, schedule.unitary4, linalg.unitary4, schedule.GateSpec.custom) == originals
    names = [spans.SPAN_NAMES[r[1]] for r in sorted(tracer.records)]
    assert names == ["schedule.GateSpec.custom", "linalg.unitary4"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_named", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
