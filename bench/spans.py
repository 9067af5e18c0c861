"""In-memory span tracing of spinpair's public functions.

`Tracer.install()` replaces each traced function under every name a spinpair
module binds it to (for example both `spinpair.linalg.unitary4` and
`spinpair.schedule.unitary4`), so calls made inside the library are recorded
too.  Nothing in the library is edited; `uninstall()` puts the originals
back.  A span holds a name, a start, an end, the index of its parent span,
the id of the gate being processed and whether the call raised.
"""

from __future__ import annotations

import itertools
import os
import sys
import time
from pathlib import Path

import numpy as np

# (module, attribute) of every traced function; a dotted attribute is a
# classmethod.  `config` and `errors` do no work and are not traced.
TRACED = (
    ("invariants", "local_invariants"),
    ("mintime", "min_time"),
    ("mintime", "depress"),
    ("kak", "kak_decompose"),
    ("kak", "factor_local"),
    ("kak", "reconstruct"),
    ("schedule", "synthesize"),
    ("schedule", "euler_xyx"),
    ("schedule", "GateSpec.custom"),
    ("schedule", "save_schedule"),
    ("schedule", "load_schedule"),
    ("simulate", "evolve"),
    ("simulate", "verify"),
    ("simulate", "batch_verify"),
    ("linalg", "expm_hermitian"),
    ("linalg", "unitary4"),
    ("linalg", "hermitian4"),
    ("cli", "build_parser"),
    ("cli", "main"),
    ("gates", "controlled_u"),
)
SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TRACED)

# Per-call facts kept for the layer metrics.  They run after the span has
# ended and are cheap (a reference or one attribute test); anything costlier
# is computed from the kept references in `layer_metrics`.
_OBSERVERS = {
    "mintime.depress": lambda args, result: result.t is None,
    "linalg.expm_hermitian": lambda args, result: args[0],
    "schedule.synthesize": lambda args, result: result,
    "schedule.save_schedule": lambda args, result: os.path.getsize(args[1]),
}


class Tracer:
    def __init__(self):
        self.gate = -1  # set by the workload before each gate
        # One tuple per finished span: (index, name id, parent index, gate id,
        # start, end, raised).  The index is taken when the span starts, so a
        # parent's index is known to its children before the parent ends.
        self.records: list[tuple] = []
        self.observed: dict[str, list] = {name: [] for name in _OBSERVERS}
        self._next = itertools.count()
        self._stack = [-1]
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        nid = SPAN_NAMES.index(name)
        observe = _OBSERVERS.get(name)
        sink = self.observed.get(name)
        stack, records, counter, clock = self._stack, self.records, self._next, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = next(counter)
            stack.append(i)
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = clock()
                stack.pop()
                records.append((i, nid, stack[-1], tracer.gate, t0, t1, raised))
            if observe is not None:
                sink.append(observe(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "spinpair" or k.startswith("spinpair.")]
        for (mod, attr), name in zip(TRACED, SPAN_NAMES):
            owner = sys.modules[f"spinpair.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, classmethod(self._wrap(name, original.__func__)))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        rows = sorted(self.records)
        cols = list(zip(*rows)) if rows else [()] * 7
        return {
            "names": np.array(SPAN_NAMES),
            "name_id": np.array(cols[1], dtype=np.int16),
            "parent": np.array(cols[2], dtype=np.int64),
            "gate": np.array(cols[3], dtype=np.int64),
            "start": np.array(cols[4], dtype=float),
            "end": np.array(cols[5], dtype=float),
            "error": np.array(cols[6], dtype=bool),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.arrays())


def self_times(a: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Calls are synchronous on one thread, so children nest strictly inside
    their parent and never overlap each other."""
    dur = a["end"] - a["start"]
    child = a["parent"] >= 0
    covered = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
    return dur - covered


def layer_metrics(tracer: Tracer, gates: int) -> dict[str, tuple[float, str]]:
    """Per-gate layer metrics from the recorded spans, as name -> (value, unit)."""
    a = tracer.arrays()
    own = self_times(a)
    out: dict[str, tuple[float, str]] = {}
    calls = np.bincount(a["name_id"], minlength=len(SPAN_NAMES))
    own_sum = np.bincount(a["name_id"], weights=own, minlength=len(SPAN_NAMES))
    for nid, name in enumerate(SPAN_NAMES):
        out[f"{name}.self_us"] = (own_sum[nid] / gates * 1e6, "us")
        out[f"{name}.calls_per_gate"] = (calls[nid] / gates, "count")

    mt = a["name_id"] == SPAN_NAMES.index("mintime.min_time")
    out["mintime.failed_frac"] = (_share(a["error"][mt]), "ratio")
    out["mintime.depress.tangent_frac"] = (_share(tracer.observed["mintime.depress"]), "ratio")

    diag = [
        not np.any(h - np.diag(np.diagonal(h))) for h in tracer.observed["linalg.expm_hermitian"]
    ]
    out["linalg.expm_hermitian.drift_only_frac"] = (_share(diag), "ratio")

    schedules = tracer.observed["schedule.synthesize"]
    segments = sum(len(s.segments) for s in schedules)
    drift = sum(seg.amplitudes.is_zero for s in schedules for seg in s.segments)
    out["schedule.segments_per_gate"] = (segments / gates, "count")
    out["schedule.drift_segments_per_gate"] = (drift / gates, "count")
    out["schedule.save_schedule.bytes_per_gate"] = (
        sum(tracer.observed["schedule.save_schedule"]) / gates,
        "bytes",
    )

    roots = a["parent"] < 0
    out["run.spans_per_gate"] = (len(own) / gates, "count")
    out["run.root_span_us_per_gate"] = (
        float(np.sum(a["end"][roots] - a["start"][roots])) / gates * 1e6,
        "us",
    )
    return out


def _share(flags) -> float:
    return float(np.mean(flags)) if len(flags) else 0.0
