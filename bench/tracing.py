"""Layer spans for the traced run, recorded from outside the spsa_lab package.

``install`` wraps the public functions of the seven layer modules, and the
methods through which the engine calls into the lower layers, where their
callers look them up: a function imported into several modules (for
example ``derive_seed`` into ``cli``, ``ensemble`` and ``meanflow``) is
rebound in each of them.  Every wrapped call appends one span (name, start,
end, parent, thread) to flat in-memory arrays; ``Tracer.dump`` writes them
out when the command ends.  ``layer_metrics`` turns a dump into the
benchmark's per-layer metrics.

A wrapper costs a few microseconds per call, as much as some of the calls it
times.  ``Tracer.calibrate`` measures that cost on an empty function before
any span is recorded, and ``Spans`` takes it back out of every duration and
self time (see ``Spans.__init__``).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import statistics
import threading
import time
import types
from array import array

import numpy as np

LAYERS = ("cli", "core", "ensemble", "exploration", "schedules", "objectives", "meanflow")

# methods the layers call each other through; classes are patched in place,
# so every caller sees the wrapper
METHODS = {
    "exploration": (("ProbeGenerator", "__init__"), ("ProbeGenerator", "take")),
    "schedules": (
        ("StepSizeSchedule", "__call__"),
        ("ConstantGain", "value"),
        ("DecayingGain", "value"),
        ("CenterActiveGain", "value"),
        ("ObjectiveActiveGain", "value"),
    ),
    "objectives": (("Objective", "value"), ("Objective", "value_batch"), ("Objective", "grad_batch")),
    "meanflow": (("MeanFieldEvaluator", "evaluate"),),
}

# the per-lane streams are built as np.random.Generator(np.random.Philox(key=seed))
# in these modules; ProbeGenerator only gets the finished Generator
STREAM_BUILDERS = ("ensemble", "cli")

MB = 2.0**20

# Tracer.calibrate: median over rounds of the per-call cost of an empty wrapped call
CALIBRATION_ROUNDS = 5
CALIBRATION_CALLS = 20_000


class Tracer:
    """Span recorder; one per process."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.thread = array("i")
        self.batches: list[dict] = []  # shapes seen by each core.run_batch call
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads = 0
        # the wrapper's own cost per span (see calibrate): all of it, and the
        # part that falls between the span's start and end stamps
        self.span_s = 0.0
        self.span_inner_s = 0.0
        # a thread with no open span (a pool worker) hangs its spans under
        # the innermost open span of the thread that made the tracer
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            with self._lock:
                self._local.tid = self._threads
                self._threads += 1
            self._local.stack = []
            return self._local.stack

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span named ``name``; ``after(args, kwargs, result)`` runs outside it."""
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        lock = self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else -1
            with lock:
                i = len(self.start)
                self.start.append(clock())
                self.end.append(0.0)
                self.name.append(nid)
                self.parent.append(parent)
                self.thread.append(self._local.tid)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def calibrate(self) -> None:
        """Measure the wrapper's own cost per span, on an empty function, inside an open span."""
        probe = Tracer()

        # two arguments, as in a method call with one argument (gain.value(theta))
        def empty(a, b):
            pass

        def loop(fn) -> float:
            t = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                fn(0, 1)
            return time.perf_counter() - t

        outer, wrapped = probe.wrap("outer", loop), probe.wrap("empty", empty)
        full, inner = [], []
        for _ in range(CALIBRATION_ROUNDS):
            first = len(probe.start) + 1  # the spans of this round's empty calls
            plain = loop(empty)
            full.append((outer(wrapped) - plain) / CALIBRATION_CALLS)
            inner.append(float(np.median(np.array(probe.end[first:]) - np.array(probe.start[first:]))))
        self.span_s = statistics.median(full)
        self.span_inner_s = statistics.median(inner)

    def dump(self, path) -> None:
        np.savez(
            path,
            span_s=self.span_s,
            span_inner_s=self.span_inner_s,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            thread=np.frombuffer(self.thread, dtype=np.int32),
            batches=np.array(json.dumps(self.batches)),
        )


def _result_bytes(result) -> int:
    total = 0
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, dict):
            total += sum(v.nbytes for v in value.values() if isinstance(v, np.ndarray))
    return total


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions and the cross-layer methods."""
    modules = {layer: importlib.import_module(f"spsa_lab.{layer}") for layer in LAYERS}
    run_batch = modules["core"].run_batch
    signature = inspect.signature(run_batch)

    def after_run_batch(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        m, d = np.atleast_2d(a["theta0"]).shape
        tracer.batches.append(
            {
                "m": m,
                "d": d,
                "n_steps": a["n_steps"],
                "width": min(a["chunk"], a["n_steps"]),
                "result_bytes": _result_bytes(result),
            }
        )

    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                after = after_run_batch if obj is run_batch else None
                wrappers[obj] = tracer.wrap(f"{layer}.{attr}", obj, after)
    package = importlib.import_module("spsa_lab")
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    for layer, methods in METHODS.items():
        for cls_name, meth in methods:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))
    # the stream builders see a copy of numpy whose random namespace has
    # Philox and Generator wrapped; numpy itself and other modules are untouched
    rand = types.ModuleType("numpy.random")
    vars(rand).update(vars(np.random))
    rand.Philox = tracer.wrap("numpy.random.Philox", np.random.Philox)
    rand.Generator = tracer.wrap("numpy.random.Generator", np.random.Generator)
    numpy = types.ModuleType("numpy")
    vars(numpy).update(vars(np))
    numpy.random = rand
    for layer in STREAM_BUILDERS:
        modules[layer].np = numpy


# --- analysis ----------------------------------------------------------------


class Spans:
    """A dump's spans, with the wrappers' own cost taken out of their durations.

    A span's measured duration holds its own wrapper's inner cost and the
    whole wrapper cost of every span below it; its self time holds its inner
    cost and the outer part of each child's.  ``dur`` and ``self_time``
    subtract these, at the calibrated cost per span; ``raw`` keeps the
    measured durations.
    """

    def __init__(self, path):
        with np.load(path, allow_pickle=False) as z:
            self.names = [str(n) for n in z["names"]]
            self.start, self.end = z["start"], z["end"]
            self.name, self.parent = z["name"], z["parent"]
            self.batches = json.loads(str(z["batches"]))
            self.span_s, self.span_inner_s = float(z["span_s"]), float(z["span_inner_s"])
        n = self.name.size
        self.kids = np.bincount(self.parent[self.parent >= 0], minlength=n)
        # a parent opens before its children, so its index is lower
        desc = [0] * n
        for i, p in zip(range(n - 1, -1, -1), self.parent[::-1].tolist()):
            if p >= 0:
                desc[p] += desc[i] + 1
        self.descendants = np.array(desc, dtype=np.int64)
        self.raw = self.end - self.start
        self.dur = self.raw - self.span_inner_s - self.descendants * self.span_s

    def ids(self, *names: str) -> np.ndarray:
        wanted = [i for i, n in enumerate(self.names) if n in names]
        return np.nonzero(np.isin(self.name, wanted))[0]

    def total(self, *names: str) -> tuple[float, int]:
        idx = self.ids(*names)
        return float(self.dur[idx].sum()), int(idx.size)

    def self_time(self, idx: np.ndarray) -> float:
        """Σ duration minus the part of it that child spans cover (their union), less wrapper cost."""
        outer = self.span_s - self.span_inner_s
        total = -float(self.span_inner_s * idx.size + outer * self.kids[idx].sum())
        for p in idx:
            kids = np.nonzero(self.parent == p)[0]
            total += self.raw[p]
            if kids.size:
                order = np.argsort(self.start[kids], kind="stable")
                s, e = self.start[kids][order], self.end[kids][order]
                reach = np.maximum.accumulate(np.concatenate(([self.start[p]], e[:-1])))
                total -= float(np.clip(e - np.maximum(s, reach), 0.0, None).sum())
        return total

    def within(self, idx: np.ndarray, ancestor: str) -> np.ndarray:
        """Which spans in ``idx`` have an ancestor named ``ancestor``."""
        target = self.names.index(ancestor) if ancestor in self.names else -2
        hit = np.zeros(idx.size, dtype=bool)
        node = self.parent[idx]
        while (node >= 0).any():
            live = node >= 0
            hit[live] |= self.name[node[live]] == target
            node = np.where(live, self.parent[np.maximum(node, 0)], -1)
        return hit


def layer_metrics(path) -> dict[str, float]:
    """Per-layer figures of one traced command (the import and row metrics are added by the caller)."""
    sp = Spans(path)
    out: dict[str, float] = {}
    cmds = [n for n in sp.names if n.startswith("cli.cmd_")]
    out["cli.self_s"] = sp.self_time(sp.ids(*cmds))

    rb = sp.ids("core.run_batch")
    steps = sum(b["n_steps"] for b in sp.batches)
    lane_steps = sum(b["m"] * b["n_steps"] for b in sp.batches)
    rb_s = float(sp.dur[rb].sum())
    out["core.run_batch_s"] = rb_s
    out["core.steps"] = steps
    out["core.lane_steps"] = lane_steps
    out["core.self_us_per_step"] = sp.self_time(rb) / steps * 1e6 if steps else 0.0
    out["core.ns_per_lane_step"] = rb_s / lane_steps * 1e9 if lane_steps else 0.0
    out["core.record_mb"] = max((b["result_bytes"] for b in sp.batches), default=0) / MB

    out["exploration.take_s"], out["exploration.take_calls"] = sp.total("exploration.ProbeGenerator.take")
    out["exploration.stream_setup_s"], _ = sp.total(
        "exploration.derive_seed",
        "numpy.random.Philox",
        "numpy.random.Generator",
        "core.sample_theta0",
        "exploration.ProbeGenerator.__init__",
    )
    out["exploration.streams"] = int(sp.ids("exploration.ProbeGenerator.__init__").size)
    out["exploration.probe_chunk_mb"] = max((b["m"] * b["width"] * b["d"] * 8 for b in sp.batches), default=0) / MB

    gains = [n for n in sp.names if n.startswith("schedules.") and n.endswith(".value")]
    out["schedules.gain_s"], out["schedules.gain_calls"] = sp.total(*gains)
    out["schedules.step_size_s"], out["schedules.step_size_calls"] = sp.total("schedules.StepSizeSchedule.__call__")

    out["objectives.value_s"], out["objectives.value_calls"] = sp.total("objectives.Objective.value")
    out["objectives.value_batch_s"], out["objectives.value_batch_calls"] = sp.total("objectives.Objective.value_batch")
    out["objectives.grad_batch_s"], out["objectives.grad_batch_calls"] = sp.total("objectives.Objective.grad_batch")

    cells = sp.ids("ensemble.run_ensemble_cell")
    out["ensemble.cells"] = int(cells.size)
    out["ensemble.cell_s"] = float(sp.dur[cells].sum())
    out["ensemble.cell_max_s"] = float(sp.dur[cells].max()) if cells.size else 0.0
    # measured durations on both sides: the wrapper cost inside the cells is inside the span too
    span = float(sp.end[cells].max() - sp.start[cells].min()) if cells.size else 0.0
    out["ensemble.concurrency"] = float(sp.raw[cells].sum()) / span if span > 0 else 0.0

    ev = sp.ids("meanflow.MeanFieldEvaluator.evaluate")
    out["meanflow.evaluate_s"] = float(sp.dur[ev].sum())
    out["meanflow.evaluate_calls"] = int(ev.size)
    out["meanflow.us_per_eval"] = out["meanflow.evaluate_s"] / ev.size * 1e6 if ev.size else 0.0
    # bias_sweep calls find_equilibrium, so its equilibria are counted here too
    out["meanflow.equilibrium_s"], _ = sp.total("meanflow.find_equilibrium")
    out["meanflow.equilibrium_evals"] = int(sp.within(ev, "meanflow.find_equilibrium").sum())
    out["meanflow.flow_s"], _ = sp.total("meanflow.integrate_flow")
    out["trace.span_us"] = sp.span_s * 1e6
    return out
