"""Run one benchmark workload against the spinpair sources in ../src.

    python3 bench/run.py --workload haar_pipeline --seed 1 --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics; with --trace 1 it alternates
untraced and traced passes over the workload and prints the per-layer
metrics.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Exits 2 without a result when ../src/spinpair is absent.
"""

from __future__ import annotations

import os

# The program works on 4x4 matrices one at a time; one caller, one thread.
# BLAS threads are pinned before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Pool sizes: each pass over a pool takes about 0.7-1 s on one core.
SIZES = {
    "haar_pipeline": {"batch": 32, "batches": 8},
    "boundary_mintime": {"count": 4000},
    "cli_named": {"count": 120},
}
SETUP_REPEATS = 7
SETUP_CODE = "import spinpair, spinpair.cli"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(repeats: int) -> float:
    """Median wall time of a fresh interpreter importing spinpair and its CLI,
    the start-up every shell invocation of the CLI pays."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # No timeout: with one, the wait polls and rounds each time up to 50 ms.
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes the .pyc files
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment(args, tally_gates: int, passes: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": SIZES[args.workload],
        "pool_gates": tally_gates // max(passes, 1),
        "passes": passes,
        "gates_measured": tally_gates,
        "setup_repeats": SETUP_REPEATS,
    }


def pass_rates(tally) -> tuple[float, float]:
    """Median over passes of gates per second and of gates per reference unit."""
    per_pass = tally.gates / len(tally.pass_seconds)
    raw = [per_pass / s for s in tally.pass_seconds]
    rel = [per_pass * r / s for s, r in zip(tally.pass_seconds, tally.pass_ref)]
    return statistics.median(raw), statistics.median(rel)


def gate_medians(tally) -> np.ndarray:
    """Each pool gate's median latency (reference units) over the passes.

    Every pass runs the same gates, so a gate's median over passes is its
    cost without the one-off stalls a shared machine adds; the latency
    percentiles are taken over these per-gate costs."""
    passes = len(tally.pass_seconds)
    return np.median(np.reshape(tally.relative, (passes, -1)), axis=0)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinpair" / "__init__.py").is_file():
        print(f"error: no spinpair sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import spinpair
    import spinpair.cli  # not imported by the package; the tracer wraps it too
    import spans
    import workloads

    if Path(spinpair.__file__).resolve().parent != (SRC / "spinpair").resolve():
        print(f"error: imported spinpair from {spinpair.__file__}, not {SRC}", file=sys.stderr)
        return 2

    setup_s = measure_setup(SETUP_REPEATS) if args.trace == 0 else None

    workload = workloads.WORKLOADS[args.workload](**SIZES[args.workload])
    pool = workload.make_pool(args.seed)
    workload.run_pass(pool[: max(1, len(pool) // 8)], workloads.Tally())  # warm-up
    gc.collect()

    metrics: dict[str, tuple[float, str]] = {}
    tally = workloads.Tally()
    if args.trace == 0:
        workloads.run_passes(workload, pool, args.seconds, tally)
        per_gate = gate_medians(tally)
        metrics["gates_per_ref"] = (len(per_gate) / float(np.sum(per_gate)), "1/ref")
        metrics["latency_p50_ref"] = (float(np.percentile(per_gate, 50)), "ref")
        metrics["latency_p90_ref"] = (float(np.percentile(per_gate, 90)), "ref")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["setup_s"] = (setup_s, "s")
        lat_us = np.array(tally.latencies) * 1e6
        checks = {
            "gates_per_s": (pass_rates(tally)[0], "1/s"),
            "latency_p50_us": (float(np.percentile(lat_us, 50)), "us"),
            "latency_p99_us": (float(np.percentile(lat_us, 99)), "us"),
            "ref_unit_us": (statistics.median(tally.pass_ref) * 1e6, "us"),
            "latency_samples": (tally.gates, "count"),
            "latency_gates": (len(per_gate), "count"),
            "failed_frac": (tally.failed / tally.attempted, "ratio"),
            "coord_err_max_rad": (tally.coord_err_max, "rad"),
            "infidelity_max": (tally.infidelity_max, "1"),
        }
        tallies = [tally]
    else:
        # Untraced and traced passes alternate, so the overhead estimate
        # compares passes run under the same machine load.
        tracer = spans.Tracer()
        traced = workloads.Tally()
        begin = time.perf_counter()
        while time.perf_counter() - begin < args.seconds:
            workloads.run_passes(workload, pool, 0, tally)
            tracer.install()
            try:
                workloads.run_passes(workload, pool, 0, traced, tracer)
            finally:
                tracer.uninstall()
        tracer.write(workloads.OUT_DIR / f"spans_{args.workload}.npz")
        metrics.update(spans.layer_metrics(tracer, traced.gates))
        wall_us = sum(traced.latencies) / traced.gates * 1e6
        (untraced_raw, untraced_rel), (traced_raw, traced_rel) = pass_rates(tally), pass_rates(traced)
        metrics["mintime.coord_err_max_rad"] = (traced.coord_err_max, "rad")
        metrics["simulate.infidelity_max"] = (traced.infidelity_max, "1")
        metrics["run.failed_frac"] = (traced.failed / traced.attempted, "ratio")
        metrics["run.untraced_gates_per_s"] = (untraced_raw, "1/s")
        metrics["run.traced_gates_per_s"] = (traced_raw, "1/s")
        # From rates in reference units, which cancel the remaining machine drift.
        metrics["run.tracing_overhead_frac"] = (untraced_rel / traced_rel - 1, "ratio")
        metrics["run.ref_unit_us"] = (statistics.median(tally.pass_ref + traced.pass_ref) * 1e6, "us")
        metrics["run.traced_wall_us_per_gate"] = (wall_us, "us")
        metrics["run.unattributed_us_per_gate"] = (
            wall_us - metrics["run.root_span_us_per_gate"][0],
            "us",
        )
        checks = {}
        tallies = [tally, traced]

    for name, (value, unit) in {**metrics, **checks}.items():
        print(f"{name:<48} {value:>16.6g} {unit}")
    measured = sum(t.gates for t in tallies)
    passes = sum(len(t.pass_seconds) for t in tallies)
    print("env " + json.dumps(environment(args, measured, passes)))
    # Each pool gate counts once, whatever number of passes ran it.
    outcome = workloads.merged(*tallies)
    result = {
        "correct": outcome.broken == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
