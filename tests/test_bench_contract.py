"""What the benchmark in ``bench/`` reads from the library.

``bench/spans.py`` wraps every function in its ``TRACED`` table and counts
drift segments of the synthesized schedules; ``bench/workloads.py`` calls the
package front door.  A rename or deletion of any of these would crash a
``bench/run.py --trace 1`` run, so it fails here first.  The bench files are
loaded by path and only read.
"""

import importlib

import numpy as np
import pytest

import spinpair
from spinpair.schedule import GateSpec, synthesize

from conftest import bench_module

SPANS = bench_module("spans")


@pytest.mark.parametrize("module,attr", SPANS.TRACED, ids=SPANS.SPAN_NAMES)
def test_traced_function_resolves(module, attr):
    owner = importlib.import_module(f"spinpair.{module}")
    if "." in attr:
        # the tracer rewraps a classmethod through the class __dict__
        cls_name, meth = attr.split(".")
        assert isinstance(getattr(owner, cls_name).__dict__[meth], classmethod)
    else:
        assert callable(getattr(owner, attr))


def test_workload_entry_points():
    for name in ("min_time", "synthesize", "batch_verify", "SpinPairError"):
        assert hasattr(spinpair, name)
    assert callable(spinpair.GateSpec.custom)
    assert callable(importlib.import_module("spinpair.cli").main)


@pytest.mark.parametrize(
    "spec",
    [
        GateSpec.cnot(),
        GateSpec.swap(),
        GateSpec.sqrt_swap(),
        GateSpec.controlled_u(0.3, 0.0, 0.0),
        GateSpec.custom(np.eye(4)),
    ],
    ids=lambda s: s.name,
)
def test_schedule_fields(spec):
    s = synthesize(spec, 1.0, 1000.0)
    drift = [seg.duration for seg in s.segments if seg.amplitudes.is_zero]
    assert len(s.segments) >= len(drift)
    assert isinstance(s.declared_drift_time, float)
    assert s.declared_drift_time == sum(drift)


def test_tracer_observes_min_time():
    """A ``--trace 1`` run in small: install the tracer, time three gates,
    read the layer metrics.  The tangent share reads ``DepressedCubic.t``."""
    importlib.import_module("spinpair.cli")  # install() resolves every traced module
    gates = [GateSpec.cnot().unitary(), GateSpec.swap().unitary(), bench_module("gen").haar_batch(3, 1)[0]]
    original = spinpair.min_time
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        for i, u in enumerate(gates):
            tracer.gate = i
            spinpair.min_time(u, 1.0)
    finally:
        tracer.uninstall()
    assert spinpair.min_time is original
    metrics = SPANS.layer_metrics(tracer, len(gates))
    # CNOT has a double root and SWAP a triple root; the Haar gate has neither.
    assert metrics["mintime.depress.tangent_frac"][0] == pytest.approx(2 / 3)
    assert metrics["mintime.min_time.calls_per_gate"][0] == 1.0


def test_tracer_observes_simulate():
    """A traced batch_verify of the benchmark's schedule kinds, then one
    evolve per schedule: every segment row, drift and padding included,
    reaches ``expm_hermitian`` in one call per propagation.  These schedules
    have at least 5 segments, the sizes the benchmark runs."""
    importlib.import_module("spinpair.cli")  # install() resolves every traced module
    specs = [
        GateSpec.cnot(),
        GateSpec.swap(),
        GateSpec.sqrt_swap(),
        GateSpec.controlled_u(0.3, 0.2, 0.1),
        GateSpec.custom(bench_module("gen").haar_batch(3, 1)[0]),
    ]
    schedules = [synthesize(spec, 1.0, 1e4) for spec in specs]
    counts = [len(s.segments) for s in schedules]
    original = spinpair.batch_verify
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        tracer.gate = 0
        spinpair.batch_verify(schedules, [spec.unitary() for spec in specs])
        for i, s in enumerate(schedules):
            tracer.gate = i
            spinpair.evolve(s)
    finally:
        tracer.uninstall()
    assert spinpair.batch_verify is original
    gates = len(schedules)
    metrics = SPANS.layer_metrics(tracer, gates)
    assert metrics["linalg.expm_hermitian.calls_per_gate"][0] == (1 + gates) / gates
    stacks = [len(h) for h in tracer.observed["linalg.expm_hermitian"]]
    assert stacks == [max(counts) * gates, *counts]
    assert min(counts) >= 5
