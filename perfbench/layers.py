"""Per-layer timers installed from outside the program.

:class:`LayerClock` wraps the public entry points of each layer
(``codegen``, ``dsl``, ``gpu``, ``harness``, ``results``) with
inclusive wall-clock timers and call counts, and hooks ``gc.callbacks``
for collector time.  Nothing under ``src/`` changes: the wrappers are
module-attribute patches that :meth:`LayerClock.uninstall` reverts, so
a traced run can alternate traced and untraced operations and report
the tracing overhead.

Nesting: ``codegen.liveness`` (``VectorProgram.max_live_registers``)
runs inside ``codegen.generate`` and ``codegen.cost``, and is counted in
all of them.  ``gpu.batch_rest`` is ``simulate_batch`` time minus the
codegen, cost, flops and collector time inside it, i.e. group
resolution, array evaluation and result assembly.
"""

from __future__ import annotations

import gc
import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: (module, attribute, timer name, leaf) — leaf timers are the ones the
#: batch remainder subtracts; GC inside them is already theirs.
_FUNCTIONS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("repro.gpu.simulator", "generate", "codegen.generate", True),
    ("repro.gpu.simulator", "cost_of", "codegen.cost", True),
    ("repro.gpu.simulator", "total_flops", "dsl.flops", True),
    ("repro.gpu.simulator", "estimate_traffic", "gpu.traffic", False),
    ("repro.gpu.simulator", "kernel_time", "gpu.timing", False),
    ("repro.gpu.batch", "generate", "codegen.generate", True),
    ("repro.gpu.batch", "cost_of", "codegen.cost", True),
    ("repro.gpu.batch", "total_flops", "dsl.flops", True),
    ("repro.exec.workers", "simulate", "gpu.simulate", False),
    ("repro.results.report", "generate_report", "results.render", False),
    ("repro.results", "generate_report", "results.render", False),
)

#: (module, class, method, timer name)
_METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.codegen.vector_ir", "VectorProgram", "max_live_registers",
     "codegen.liveness"),
    ("repro.results.store", "ResultsStore", "ingest_study", "results.ingest"),
    ("repro.results.store", "ResultsStore", "load_study", "results.load"),
)

#: Every binding of ``run_study`` a caller can reach.
_RUN_STUDY = ("repro.harness.experiments", "repro.harness",
              "repro.serve.orchestrator")

_LEAVES = ("codegen.generate", "codegen.cost", "dsl.flops")


class LayerClock:
    """Inclusive timers and counts around layer entry points."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.cpu: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ---- bookkeeping -------------------------------------------------------
    def _add(self, name: str, seconds: float, calls: int = 1,
             cpu: float = 0.0) -> None:
        with self._lock:
            self.seconds[name] += seconds
            self.cpu[name] += cpu
            self.counts[name] += calls

    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    def _timed(self, name: str, fn: Callable, leaf: bool) -> Callable:
        clock = self

        def wrapper(*args, **kwargs):
            if leaf:
                clock._local.depth = clock._depth() + 1
            t0, c0 = time.perf_counter(), time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                clock._add(name, time.perf_counter() - t0,
                           cpu=time.thread_time() - c0)
                if leaf:
                    clock._local.depth -= 1

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _attributed(self) -> float:
        with self._lock:
            return sum(self.seconds[n] for n in _LEAVES) + self.seconds["py.gc_free"]

    def _batch(self, fn: Callable) -> Callable:
        clock = self
        from repro.obs import gauge

        def wrapper(points, *args, **kwargs):
            inner0 = clock._attributed()
            t0, c0 = time.perf_counter(), time.thread_time()
            try:
                return fn(points, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                inner = clock._attributed() - inner0
                clock._add("gpu.batch", elapsed, cpu=time.thread_time() - c0)
                clock._add("gpu.batch_rest", elapsed - inner)
                clock._add("gpu.batch_points", 0.0, len(points))
                clock._add("gpu.batch_groups", 0.0,
                           int(gauge("sweep.batch.groups").value))

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _run_study(self, fn: Callable) -> Callable:
        clock = self

        def wrapper(*args, **kwargs):
            t0, c0 = time.perf_counter(), time.thread_time()
            study = fn(*args, **kwargs)
            clock._add("harness.run_study", time.perf_counter() - t0,
                       cpu=time.thread_time() - c0)
            clock._add("harness.study_points", 0.0, len(study.results))
            return study

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._local.gc_t0 = time.perf_counter()
            return
        t0 = getattr(self._local, "gc_t0", None)
        if t0 is None:
            return
        dt = time.perf_counter() - t0
        self._add("py.gc", dt)
        if info.get("generation") == 2:
            self._add("py.gc_gen2", 0.0)
        if self._depth() == 0:
            self._add("py.gc_free", dt)

    # ---- install / uninstall -----------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer entry point; idempotent only via uninstall."""
        # Import everything first: a module imported mid-way would bind
        # an already-wrapped function and be wrapped twice.
        for module in ({m for m, *_ in _FUNCTIONS} | {m for m, *_ in _METHODS}
                       | set(_RUN_STUDY)):
            importlib.import_module(module)
        for module, attr, name, leaf in _FUNCTIONS:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self._timed(name, getattr(mod, attr), leaf))
        for module, cls_name, method, name in _METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, method,
                        self._timed(name, getattr(cls, method), False))
        batch = importlib.import_module("repro.gpu.batch")
        self._patch(batch, "simulate_batch", self._batch(batch.simulate_batch))
        for module in _RUN_STUDY:
            mod = importlib.import_module(module)
            self._patch(mod, "run_study", self._run_study(mod.run_study))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> Dict[str, float]:
        """Flat ``{name_s, name_cpu_s, name_calls}`` of every timer.

        ``_cpu_s`` is the calling thread's CPU time, which excludes waits
        for the interpreter lock where several threads run.
        """
        with self._lock:
            out: Dict[str, float] = {}
            for name, value in self.seconds.items():
                out[f"{name}_s"] = value
                out[f"{name}_cpu_s"] = self.cpu[name]
            for name, value in self.counts.items():
                out[f"{name}_calls"] = float(value)
            return out


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


#: Registry counters read around each operation (in-process) or from
#: ``/metricz`` (serve).
COUNTERS = (
    "codegen.memo_misses",
    "exec.dispatch.serial",
    "exec.dispatch.vectorized",
    "exec.dispatch.pool",
    "results.ingests",
    "results.ingest_errors",
    "simulate.calls",
    "study.points",
    "serve.dedup_hits",
    "serve.coalesced",
    "serve.microbatch.jobs",
    "serve.rejected",
)


def counter_values(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """The :data:`COUNTERS` from a registry snapshot (absent = 0)."""
    return {
        name: float(snapshot.get(name, 0) or 0) for name in COUNTERS
    }


def registry_counters() -> Dict[str, float]:
    from repro.obs import get_registry

    return counter_values(get_registry().snapshot())


def layer_metrics(timers: Dict[str, float], counters: Dict[str, float],
                  ops: int) -> Dict[str, float]:
    """Per-operation layer metrics from timer and counter totals."""
    n = max(1, ops)

    def t(key: str) -> float:
        return timers.get(key, 0.0) / n

    def c(key: str) -> float:
        return counters.get(key, 0.0) / n

    return {
        "codegen.generate_s": t("codegen.generate_s"),
        "codegen.generate_calls": t("codegen.generate_calls"),
        "codegen.memo_misses": c("codegen.memo_misses"),
        "codegen.cost_s": t("codegen.cost_s"),
        "codegen.cost_calls": t("codegen.cost_calls"),
        "codegen.liveness_s": t("codegen.liveness_s"),
        "codegen.liveness_calls": t("codegen.liveness_calls"),
        "dsl.flops_s": t("dsl.flops_s"),
        "dsl.flops_calls": t("dsl.flops_calls"),
        "gpu.simulate_calls": t("gpu.simulate_calls"),
        "gpu.traffic_s": t("gpu.traffic_s"),
        "gpu.timing_s": t("gpu.timing_s"),
        "gpu.batch_s": t("gpu.batch_s"),
        "gpu.batch_points": t("gpu.batch_points_calls"),
        "gpu.batch_groups": t("gpu.batch_groups_calls"),
        "gpu.batch_rest_s": t("gpu.batch_rest_s"),
        "py.gc_s": t("py.gc_s"),
        "py.gc_collections": t("py.gc_calls"),
        "py.gc_gen2_collections": t("py.gc_gen2_calls"),
        "exec.dispatch_serial": c("exec.dispatch.serial"),
        "exec.dispatch_vectorized": c("exec.dispatch.vectorized"),
        "exec.dispatch_pool": c("exec.dispatch.pool"),
        "harness.run_study_s": t("harness.run_study_s"),
        "harness.study_points": t("harness.study_points_calls"),
        "results.ingest_s": t("results.ingest_s"),
        "results.load_s": t("results.load_s"),
        "results.render_s": t("results.render_s"),
        "results.ingests": c("results.ingests"),
        "results.ingest_errors": c("results.ingest_errors"),
    }

