"""Auto-dispatch: pick serial / vectorized / pool execution for a sweep.

The sweep engine has three ways to evaluate a matrix of points, with
very different cost shapes:

* **serial** — a plain in-process loop.  Zero overhead; throughput is
  the scalar per-point cost.
* **vectorized** — :func:`repro.gpu.simulate_batch`: one codegen/cost
  evaluation per unique group plus NumPy array math.  Near-zero
  marginal cost per point, but only applies to workloads expressible as
  batch points (the analytic study matrix; not arbitrary callables).
* **pool** — :func:`repro.exec.parallel_map` worker processes.  Pays a
  fixed startup + pickling overhead per run; only wins when per-point
  cost is genuinely heavy (CacheSim replays, future on-device runs).

``choose_dispatch`` picks between them from the matrix size, the job
count, and whether the workload is vectorizable; ``BENCH_sweep.json``'s
history (the pool *losing* 0.75x at 90 points) is exactly the failure
mode this module exists to prevent.  The break-even model for the pool:

    overhead(jobs)  =  POOL_STARTUP_S + POOL_PER_WORKER_S * jobs
    gain            =  1 - 1 / min(jobs, cpus)
    break_even_n    =  overhead(jobs) / (per_item_cost * gain)

A pool run only pays off past ``break_even_n`` items; below it (and
always on a single-CPU box, where ``gain = 0`` makes the break-even
infinite) ``parallel_map`` falls back to the serial loop.  Per-item
cost comes from an EWMA over *measured* serial runs (recorded by
``parallel_map`` itself, keyed by function identity) — when no
measurement exists yet, ``parallel_map`` probes the first few items
serially and decides with live numbers.

Decisions and thresholds are observable: ``exec.dispatch.<mode>``
counters count decisions, ``exec.dispatch.serial_fallback`` counts
pool demotions, and the ``exec.dispatch.break_even_n`` /
``exec.dispatch.item_cost_s`` gauges expose the live model.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ExecutionError
from repro.obs import counter, gauge, span
from repro.resilience.policy import RetryPolicy

__all__ = [
    "DISPATCH_MODES",
    "POOL_PER_WORKER_S",
    "POOL_STARTUP_S",
    "PROBE_ITEMS",
    "VECTORIZE_MIN_POINTS",
    "DispatchDecision",
    "break_even_points",
    "choose_dispatch",
    "clear_cost_model",
    "map_study_points",
    "microbatch_study_points",
    "observed_cost",
    "record_cost",
]

DISPATCH_MODES = ("serial", "vectorized", "pool")

#: Below this many points a single-job sweep stays serial even when it
#: is vectorizable: the study-default 90-point matrix keeps its
#: per-point span tree (the PR-2 observability contract), and the batch
#: engine's setup cost has nothing to amortise against.
VECTORIZE_MIN_POINTS = 128

#: Serial probe size when the cost model has no estimate for a function.
PROBE_ITEMS = 8

#: Pool overhead model: fixed startup plus per-worker spawn/teardown.
#: Calibrated from BENCH_sweep.json history (a 4-job pool over the
#: 90-point study pays ~0.2 s before the first task runs).
POOL_STARTUP_S = 0.08
POOL_PER_WORKER_S = 0.03

#: EWMA smoothing for the measured per-item cost model.
_EWMA_ALPHA = 0.5

_COST_MODEL: Dict[str, float] = {}


@dataclass(frozen=True)
class DispatchDecision:
    """One resolved dispatch choice for a sweep."""

    mode: str  # "serial" | "vectorized" | "pool"
    jobs: int  # resolved worker count (pool mode), >= 1
    points: int
    reason: str


def _fn_key(fn: Callable[..., Any]) -> str:
    """Stable identity for the cost model: module-qualified name.

    ``functools.partial`` and wrapper objects resolve to the underlying
    function so a partial over ``evaluate_candidate`` shares history
    with direct calls.
    """
    while isinstance(fn, functools.partial):
        fn = fn.func
    inner = getattr(fn, "fn", None)
    if callable(inner):  # FaultyFunction-style wrappers
        fn = inner
    module = getattr(fn, "__module__", type(fn).__module__)
    qualname = getattr(fn, "__qualname__", type(fn).__qualname__)
    return f"{module}.{qualname}"


def observed_cost(fn: Callable[..., Any]) -> Optional[float]:
    """EWMA seconds-per-item for ``fn``, or ``None`` if never measured."""
    return _COST_MODEL.get(_fn_key(fn))


def record_cost(fn: Callable[..., Any], per_item_s: float) -> None:
    """Fold one measured serial run into the per-item cost model."""
    if per_item_s < 0:
        return
    key = _fn_key(fn)
    previous = _COST_MODEL.get(key)
    value = (
        per_item_s
        if previous is None
        else _EWMA_ALPHA * per_item_s + (1.0 - _EWMA_ALPHA) * previous
    )
    _COST_MODEL[key] = value
    gauge("exec.dispatch.item_cost_s").set(value)


def clear_cost_model() -> None:
    """Drop all measured costs (tests and long-lived processes)."""
    _COST_MODEL.clear()


def pool_overhead_s(jobs: int) -> float:
    """Modelled fixed cost of standing up a ``jobs``-worker pool."""
    return POOL_STARTUP_S + POOL_PER_WORKER_S * jobs


def break_even_points(
    per_item_s: float, jobs: int, cpus: Optional[int] = None
) -> float:
    """Items beyond which a pool beats the serial loop.

    ``inf`` when parallelism cannot pay for itself at all: one
    effective worker (``min(jobs, cpus) <= 1``) or free items.
    """
    cpus = cpus if cpus is not None else (os.cpu_count() or 1)
    effective = min(jobs, cpus)
    if effective <= 1 or per_item_s <= 0:
        return math.inf
    gain = 1.0 - 1.0 / effective
    return pool_overhead_s(jobs) / (per_item_s * gain)


def choose_dispatch(
    points: int,
    jobs: Optional[int] = None,
    *,
    forced: Optional[str] = None,
    vectorizable: bool = True,
) -> DispatchDecision:
    """Resolve the dispatch mode for a ``points``-sized sweep.

    ``forced`` (the CLI ``--dispatch`` flag) short-circuits the choice;
    otherwise: trivial matrices stay serial, vectorizable work goes to
    the batch engine whenever the matrix is large enough to amortise it
    *or* the caller asked for parallelism (the batch engine strictly
    dominates a process pool for analytic points), and the pool is
    reserved for non-vectorizable work with ``jobs > 1`` — where
    :func:`repro.exec.parallel_map` still applies its own measured
    break-even fallback.

    Every decision is counted as ``exec.dispatch.<mode>``.
    """
    from repro.exec.pool import resolve_jobs

    jobs = resolve_jobs(jobs)
    if forced is not None:
        if forced not in DISPATCH_MODES:
            raise ExecutionError(
                f"unknown dispatch mode '{forced}'; known: {DISPATCH_MODES}"
            )
        mode, reason = forced, "forced"
    elif points <= 1:
        mode, reason = "serial", "trivial matrix"
    elif vectorizable and (points >= VECTORIZE_MIN_POINTS or jobs > 1):
        mode, reason = "vectorized", (
            f"{points} vectorizable points"
            if points >= VECTORIZE_MIN_POINTS
            else f"vectorized beats a {jobs}-job pool on analytic points"
        )
    elif jobs > 1:
        mode, reason = "pool", f"{jobs} jobs, not vectorizable"
    else:
        mode, reason = "serial", "small single-job matrix"
    counter(f"exec.dispatch.{mode}").inc()
    return DispatchDecision(mode=mode, jobs=jobs, points=points, reason=reason)


def map_study_points(
    items: Sequence[Any],
    *,
    policy: Optional[RetryPolicy] = None,
    fault_plan: Optional[Any] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
    check_invariants: Optional[bool] = None,
) -> List[Any]:
    """Vectorised study map with scalar routing for injected faults.

    The batch engine evaluates every *clean* point; points carrying a
    fault-plan spec run through the scalar engine (the wrapped worker
    function under ``policy``, exactly as the serial/pool paths run
    them), so injection, retry accounting, and degradation into
    :class:`~repro.resilience.TaskFailure` records stay bit-identical
    across dispatch modes.  Clean analytic points skip the retry policy
    by construction — the batch is deterministic pure math, and its
    failure records match what the policy would produce for the same
    deterministic error.

    Returns one result/failure per item, in item order; ``on_result``
    fires with original item indices (the checkpoint hook contract).
    """
    from repro.exec.pool import _run_one
    from repro.exec.workers import simulate_point, study_item_key
    from repro.gpu.batch import BatchPoint, simulate_batch

    items = list(items)
    dirty = [
        i
        for i, item in enumerate(items)
        if fault_plan is not None
        and fault_plan.spec_for(study_item_key(item)) is not None
    ]
    dirty_set = set(dirty)
    clean = [i for i in range(len(items)) if i not in dirty_set]
    results: List[Any] = [None] * len(items)

    batch_points = [
        BatchPoint(
            stencil=items[i][1],
            variant=items[i][3],
            platform=items[i][2],
            domain=items[i][4],
            stencil_name=items[i][0],
        )
        for i in clean
    ]

    def remap(j: int, result: Any) -> None:
        results[clean[j]] = result
        if on_result is not None:
            on_result(clean[j], result)

    simulate_batch(
        batch_points,
        capture_failures=True,
        on_result=remap,
        check_invariants=check_invariants,
    )

    if dirty:
        fn = fault_plan.wrap(simulate_point, key_fn=study_item_key)
        for i in dirty:
            result = _run_one(fn, items[i], policy, True)
            results[i] = result
            if on_result is not None:
                on_result(i, result)
        counter("exec.dispatch.scalar_routed_points").inc(len(dirty))
    return results


def microbatch_study_points(
    groups: Sequence[Sequence[Any]],
    *,
    check_invariants: Optional[bool] = None,
) -> List[List[Any]]:
    """Evaluate several small item lists as ONE vectorized batch call.

    The serving layer's micro-batching primitive: ``groups`` holds one
    study-item list per concurrent request, and all of them are
    concatenated into a single :func:`repro.gpu.simulate_batch` sweep —
    so N tiny tenant studies pay the batch engine's per-group setup
    (codegen, cost model) once per *unique* configuration instead of
    once per request.  Results come back split per group, one
    result-or-:class:`~repro.resilience.TaskFailure` per item, in item
    order — exactly what each caller's own
    :func:`~repro.exec.dispatch.map_study_points` call would have
    produced, since the batch engine is bit-identical point-wise and
    per-point failure records do not depend on batch composition.

    Callers route only *clean* work here (no fault plans — injected
    faults need the scalar retry path, which micro-batching would
    serialize behind unrelated tenants).  ``exec.dispatch.microbatch.*``
    counters record coalescing effectiveness.
    """
    from repro.gpu.batch import BatchPoint, simulate_batch

    sizes = [len(group) for group in groups]
    flat = [item for group in groups for item in group]
    batch_points = [
        BatchPoint(
            stencil=item[1],
            variant=item[3],
            platform=item[2],
            domain=item[4],
            stencil_name=item[0],
        )
        for item in flat
    ]
    with span(
        "exec.microbatch", groups=len(groups), points=len(flat)
    ):
        outcomes = simulate_batch(
            batch_points,
            capture_failures=True,
            check_invariants=check_invariants,
        )
    counter("exec.dispatch.microbatch.groups").inc(len(groups))
    counter("exec.dispatch.microbatch.points").inc(len(flat))
    # Every row is read: build them a block at a time, then split.
    rows = list(outcomes)
    split: List[List[Any]] = []
    start = 0
    for size in sizes:
        split.append(rows[start:start + size])
        start += size
    return split
