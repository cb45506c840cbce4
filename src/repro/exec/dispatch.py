"""The study engines: an in-process map and the batch-vectorized map.

A sweep runs in one of two ways:

* **serial** — :func:`map_items`, a plain in-process loop with optional
  retry handling and failure capture.  Zero overhead; throughput is the
  scalar per-point cost.  This is the default for every study: the
  paper's matrix is at most 90 points, which keeps its per-point span
  tree and leaves the batch engine's setup nothing to amortise.
* **vectorized** — :func:`map_study_points` over
  :func:`repro.gpu.simulate_batch`: one codegen/cost evaluation per
  unique group plus NumPy array math.  Near-zero marginal cost per
  point; pinned with ``dispatch="vectorized"``.

``run_study`` counts each choice as ``exec.dispatch.<mode>``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence, TypeVar

from repro.errors import TaskTimeoutError
from repro.obs import counter, span
from repro.resilience.policy import (
    DEFAULT_POLICY,
    RetryPolicy,
    TaskFailure,
    run_with_policy,
)

__all__ = [
    "DISPATCH_MODES",
    "map_items",
    "map_study_points",
    "microbatch_study_points",
]

T = TypeVar("T")
R = TypeVar("R")

DISPATCH_MODES = ("serial", "vectorized")


def _run_one(
    fn: Callable[[T], R],
    item: T,
    policy: Optional[RetryPolicy],
    capture: bool,
) -> "R | TaskFailure":
    """Run one task, optionally under a retry policy.

    With neither a policy nor failure capture, this is a plain call.
    Otherwise the task runs through :func:`run_with_policy`; when
    ``capture`` is set, a permanently failed task degrades into a
    :class:`TaskFailure` record instead of raising
    (``KeyboardInterrupt``/``SystemExit`` still propagate, so a user
    abort is never swallowed).
    """
    if policy is None and not capture:
        return fn(item)
    try:
        return run_with_policy(fn, item, policy or DEFAULT_POLICY)
    except Exception as exc:
        if not capture:
            raise
        return TaskFailure(
            error_type=type(exc).__name__,
            message=str(exc),
            attempts=getattr(exc, "attempts", 1),
            timed_out=isinstance(exc, TaskTimeoutError),
        )


def map_items(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    policy: Optional[RetryPolicy] = None,
    capture_failures: bool = False,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Map ``fn`` over ``items`` in-process, in input order.

    Fault tolerance (see :mod:`repro.resilience`):

    * ``policy`` runs every task through retry/backoff/timeout handling;
    * ``capture_failures`` degrades a permanently failed task into a
      :class:`~repro.resilience.TaskFailure` list entry instead of
      raising, so one bad task cannot discard the rest of the map;
    * ``on_result`` is called as ``(index, result)`` after each item —
      the checkpoint hook.

    Without those options, exceptions raised by ``fn`` propagate
    unchanged.  The ``exec.map`` span wraps the loop, so its self-time
    is the engine's own overhead next to the per-task spans inside it.
    """
    items = list(items)
    results: List[Any] = []
    with span("exec.map", items=len(items)):
        for i, item in enumerate(items):
            result = _run_one(fn, item, policy, capture_failures)
            results.append(result)
            if on_result is not None:
                on_result(i, result)
    return results


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
    function under ``policy``, exactly as the serial path runs them),
    so injection, retry accounting, and degradation into
    :class:`~repro.resilience.TaskFailure` records stay bit-identical
    across dispatch modes.  Clean analytic points skip the retry policy
    by construction — the batch is deterministic pure math, and its
    failure records match what the policy would produce for the same
    deterministic error.

    Returns one result/failure per item, in item order; ``on_result``
    fires with original item indices (the checkpoint hook contract).
    """
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
