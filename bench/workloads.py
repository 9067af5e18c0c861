"""The benchmark workloads: a closed loop with one caller on one thread.

Library functions are looked up on their modules at each call (`sp.min_time`,
`cli.main`), so the tracer's replacements are the ones called.

Each workload builds a fixed pool of inputs from the seed and then runs whole
passes over it until the time is up.  Every pass gives the program the same
inputs and every output of every pass is checked, but a gate is counted once:
`attempted` is the number of pool gates run and `failed` the number that
raised or missed a check in any pass.  So the counts repeat exactly for a
seed, however many passes fit in the time.  A failed gate stays in the
latency samples.  `broken` counts outputs that break what the program
guarantees on every input (a wrong structure, an undocumented exception, a
named gate that does not verify); any of those makes the run incorrect.  On `boundary_mintime` the 1e-8 rad accuracy target is not such
a guarantee: the known boundary defect counts in `failed` and is reported,
not hidden.
"""

from __future__ import annotations

import io
import json
import statistics
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import spinpair as sp
from spinpair import cli

import gen

COUPLING_J = 1.0  # Hz
PULSE_STRENGTH_N = 1e4  # hard-pulse parameter; infidelity is O(J/N)
FIDELITY_MIN = 0.999  # the CLI's default verify threshold
DRIFT_TOL_S = 1e-10  # declared drift time against t*; observed differences are below 1e-12 s
COORD_TOL_RAD = 1e-8  # boundary accuracy target against ground truth
OUT_DIR = Path(__file__).resolve().parent / "out"  # schedule files and span dumps
FAILED, BROKEN = 1, 2  # bits of a gate's outcome


@dataclass
class Tally:
    """What the passes measured and found."""

    # Flat float arrays, so memory grows by 16 bytes per sample and peak RSS
    # barely depends on how many passes fit in the run.
    latencies: array = field(default_factory=lambda: array("d"))  # seconds, one per gate
    relative: array = field(default_factory=lambda: array("d"))  # latencies in reference units
    pass_seconds: list[float] = field(default_factory=list)  # summed gate latencies per pass
    pass_ref: list[float] = field(default_factory=list)  # reference unit (s) around each pass
    outcome: dict[int, int] = field(default_factory=dict)  # pool index -> FAILED | BROKEN bits
    coord_err_max: float = 0.0
    infidelity_max: float = 0.0

    @property
    def gates(self) -> int:
        return len(self.latencies)

    def record(self, gate: int, failed: bool, broken: bool = False) -> None:
        """Note one checked output of pool gate ``gate``; a gate that fails
        in any pass stays failed."""
        bits = (FAILED if failed else 0) | (BROKEN if broken else 0)
        self.outcome[gate] = self.outcome.get(gate, 0) | bits

    @property
    def attempted(self) -> int:
        return len(self.outcome)

    @property
    def failed(self) -> int:
        return sum(1 for bits in self.outcome.values() if bits & FAILED)

    @property
    def broken(self) -> int:
        return sum(1 for bits in self.outcome.values() if bits & BROKEN)


def merged(*tallies: Tally) -> Tally:
    """The gate outcomes of several tallies over the same pool, as one."""
    total = Tally()
    for tally in tallies:
        for gate, bits in tally.outcome.items():
            total.outcome[gate] = total.outcome.get(gate, 0) | bits
    return total


# The reference unit: a fixed numpy-only computation of the same kind the
# program does (4x4 eigh, spectral exponential, products, det, SVD), timed
# between passes.  Other tenants of a shared machine slow the program and
# this unit alike, by 20-40% over minutes, so times divided by it are steady
# where raw times are not.  It never calls spinpair, so no change to the
# program moves it.
_REF_RNG = np.random.default_rng(0)
_REF_U = [gen.haar_unitary(_REF_RNG) for _ in range(16)]
_REF_H = [u + u.conj().T for u in _REF_U]
_REF_REPEATS = 9


def reference_unit() -> float:
    """Median duration in seconds of the reference computation."""
    eye = np.eye(4)
    times = []
    for _ in range(_REF_REPEATS):
        t0 = time.perf_counter()
        for u, h in zip(_REF_U, _REF_H):
            w, v = np.linalg.eigh(h)
            e = (v * np.exp(-1j * w)) @ v.conj().T
            np.linalg.det(u @ e)
            np.abs(e.conj().T @ e - eye).max()
            np.linalg.svd(u)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_passes(workload, pool, seconds: float, tally: Tally, tracer=None) -> None:
    """Run whole passes over the pool until ``seconds`` have elapsed (at least
    one pass), timing the reference unit before the first pass and after each."""
    begin = time.perf_counter()
    before = reference_unit()
    while True:
        first = len(tally.latencies)
        workload.run_pass(pool, tally, tracer)
        after = reference_unit()
        ref = (before + after) / 2
        before = after
        tally.pass_seconds.append(sum(tally.latencies[first:]))
        tally.pass_ref.append(ref)
        tally.relative.extend(t / ref for t in tally.latencies[first:])
        if time.perf_counter() - begin >= seconds:
            return


class HaarPipeline:
    """Batches of Haar-random custom gates through min_time and synthesize
    (the generic KAK path), then one batch_verify call per batch."""

    name = "haar_pipeline"

    def __init__(self, batch: int, batches: int):
        self.batch = batch
        self.batches = batches

    def make_pool(self, seed: int):
        m = gen.haar_batch(seed, self.batch * self.batches)
        return [m[i : i + self.batch] for i in range(0, len(m), self.batch)]

    def run_pass(self, pool, tally: Tally, tracer=None) -> None:
        errors = (sp.SpinPairError, ValueError)
        gate_id = 0
        for matrices in pool:
            front = []
            done = []  # (index in batch, schedule, t*)
            for k, m in enumerate(matrices):
                if tracer is not None:
                    tracer.gate = gate_id + k
                t0 = time.perf_counter()
                try:
                    spec = sp.GateSpec.custom(m)
                    report = sp.min_time(spec.unitary(), COUPLING_J)
                    schedule = sp.synthesize(spec, COUPLING_J, PULSE_STRENGTH_N)
                    done.append((k, schedule, report.t_star))
                except errors:
                    pass
                front.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.gate = gate_id  # spans of the batch call carry its first gate's id
            t0 = time.perf_counter()
            try:
                results = sp.batch_verify([s for _, s, _ in done], [matrices[k] for k, _, _ in done])
            except errors:
                results = None
            share = (time.perf_counter() - t0) / len(matrices)
            tally.latencies.extend(t + share for t in front)

            passed = set()
            if results is not None and len(results) == len(done):
                for (k, schedule, t_star), r in zip(done, results):
                    tally.infidelity_max = max(tally.infidelity_max, 1.0 - r.fidelity)
                    drift_ok = abs(schedule.declared_drift_time - t_star) <= DRIFT_TOL_S
                    if r.fidelity >= FIDELITY_MIN and drift_ok:
                        passed.add(k)
            for k in range(len(matrices)):
                failed = k not in passed
                tally.record(gate_id + k, failed, broken=failed)  # every Haar gate must pass
            gate_id += len(matrices)


class BoundaryMintime:
    """Chamber-edge gates through min_time only, checked against the
    coordinates they were built from."""

    name = "boundary_mintime"

    def __init__(self, count: int):
        self.count = count

    def make_pool(self, seed: int):
        return gen.boundary_gates(seed, self.count)

    def run_pass(self, pool, tally: Tally, tracer=None) -> None:
        pi_j = np.pi * COUPLING_J
        for i, g in enumerate(pool):
            if tracer is not None:
                tracer.gate = i
            t0 = time.perf_counter()
            try:
                report = sp.min_time(g.matrix, COUPLING_J)
                raised = None
            except (sp.SpinPairError, ValueError) as exc:
                raised = exc
            tally.latencies.append(time.perf_counter() - t0)
            if raised is not None:
                # ResidualTooLarge near c1 = pi/2 is the documented failure mode.
                tally.record(i, True, broken=not isinstance(raised, sp.SpinPairError))
                continue
            c = report.coords.as_tuple()
            err = max(abs(x - y) for x, y in zip(c, g.truth))
            tally.coord_err_max = max(tally.coord_err_max, err)
            in_chamber = np.pi / 2 >= c[0] >= c[1] >= c[2] >= 0
            consistent = abs(report.t_star - sum(c) / pi_j) <= 1e-12 * max(1.0, report.t_star)
            tally.record(i, not err <= COORD_TOL_RAD, broken=not (in_chamber and consistent))


class CliNamed:
    """In-process CLI request pairs: `schedule ... -o FILE --output json`,
    then `verify --schedule FILE --output json`, over the named gates."""

    name = "cli_named"

    def __init__(self, count: int, workdir: Path = OUT_DIR):
        self.count = count
        self.workdir = workdir

    def make_pool(self, seed: int):
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = str(self.workdir / "request.sched")
        pool = []
        for req in gen.cli_requests(seed, self.count, COUPLING_J, PULSE_STRENGTH_N):
            argv = ["schedule", "--gate", req.gate, "--coupling", repr(req.coupling)]
            argv += ["--pulse-strength", repr(req.pulse_strength), "-o", path, "--output", "json"]
            if req.gamma is not None:
                for k, g in enumerate(req.gamma, start=1):
                    argv += [f"--gamma{k}", repr(g)]
            pool.append((argv, ["verify", "--schedule", path, "--output", "json"], req.t_star))
        return pool

    def run_pass(self, pool, tally: Tally, tracer=None) -> None:
        for i, (argv_schedule, argv_verify, t_star) in enumerate(pool):
            if tracer is not None:
                tracer.gate = i
            out_schedule, out_verify, err = io.StringIO(), io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with redirect_stdout(out_schedule), redirect_stderr(err):
                rc_schedule = _exit_code(cli.main, argv_schedule)
            with redirect_stdout(out_verify), redirect_stderr(err):
                rc_verify = _exit_code(cli.main, argv_verify)
            tally.latencies.append(time.perf_counter() - t0)
            ok = False
            if rc_schedule == 0 and rc_verify == 0:
                try:
                    scheduled = json.loads(out_schedule.getvalue())
                    verified = json.loads(out_verify.getvalue())
                    tally.infidelity_max = max(tally.infidelity_max, 1.0 - verified["fidelity"])
                    ok = (
                        verified["pass"] is True
                        and abs(scheduled["drift_time_s"] - t_star) <= DRIFT_TOL_S
                        and abs(verified["drift_time_s"] - t_star) <= DRIFT_TOL_S
                    )
                except (ValueError, KeyError, TypeError):
                    ok = False
            tally.record(i, not ok, broken=not ok)  # every named gate must schedule and verify


def _exit_code(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        return exc.code if isinstance(exc.code, int) else 2


WORKLOADS = {w.name: w for w in (HaarPipeline, BoundaryMintime, CliNamed)}
