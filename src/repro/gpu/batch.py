"""Batch-vectorised analytic simulator: a sweep matrix as array ops.

:func:`simulate_batch` evaluates a whole (stencil x platform x variant
x tile x domain) matrix without running a Python loop of scalar
:func:`~repro.gpu.simulator.simulate` calls.  Three passes:

1. **group resolution** — points sharing a (stencil signature, tile,
   vector length, strategy, platform, variant) share exactly one
   codegen + cost-model evaluation (the scalar hot path's dominant
   cost) and one pair of per-configuration constants
   (:func:`~repro.gpu.traffic.traffic_config`,
   :func:`~repro.gpu.timing.timing_config`); the domain axis — the axis
   a 100k-point sweep actually multiplies — adds *no* groups, so its
   marginal cost is pure array math;
2. **vectorised evaluation** — each point's domain and its group's
   constants are gathered into NumPy ``int64``/``float64`` columns and
   handed to :func:`~repro.gpu.traffic.traffic_terms` and
   :func:`~repro.gpu.timing.timing_terms`, the very functions the
   scalar path calls on Python numbers.  Both engines run one formula:
   it has no branches, integer quantities stay integers (exact in
   ``int64``, and below 2**53, so they convert to float exactly on both
   paths), and every float operation is the same IEEE operation on
   the same operands in the same order whether its operands are Python
   floats or array elements — so every result float is bit-identical to
   the scalar path by construction;
3. **assembly** — columns split back into rows with
   ``ndarray.tolist()``, which hands back native Python ``int``/``float``
   objects, so even the *types* of every field match the oracle; each
   row goes through :func:`~repro.gpu.simulator.assemble`, the scalar
   path's own result + invariant-check step.

The scalar path stays the bit-checked oracle: the equivalence suite
(``tests/test_batch_equivalence.py``) asserts field-by-field equality
across dispatch modes, and the bench gate re-checks the full 90-point
study against the oracle on every run.

Observability: one ``sweep.batch`` span (with ``dispatch``/``points``/
``groups``/``chunks`` attrs) wraps the evaluation, one ``sweep.chunk``
span per chunk, and the per-point counters (``simulate.calls``,
``simulate.tiles``, ``codegen.vector_ops``, and
``simulate.invariant_violations`` under ``REPRO_VALIDATE``) are bumped
by exactly the amounts a scalar loop over the same points would bump
them.  Per-point ``study.point``/``simulate`` spans are a scalar/pool
feature — at 100k points they *are* the overhead this module removes.

Failure semantics mirror the resilient scalar engine: with
``capture_failures=True`` a point whose resolution or invariant check
fails degrades into the same :class:`~repro.resilience.TaskFailure`
record (same ``error_type``/``message``/``attempts``) that
``parallel_map(..., capture_failures=True)`` would produce for it;
without it, the error of the *earliest* failing point raises, after the
counters of the points a scalar loop would have completed first.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bricks.layout import BrickDims
from repro.codegen.cost import ProgramCost, cost_of
from repro.codegen.generator import CodegenOptions, generate
from repro.dsl.analysis import total_flops
from repro.dsl.stencil import Stencil
from repro.errors import ValidationError
from repro.gpu.progmodel import Platform
from repro.gpu.simulator import assemble, resolve, _validate_enabled
from repro.gpu.timing import TimingBreakdown, TimingConfig, timing_config, timing_terms
from repro.gpu.traffic import (
    Traffic,
    TrafficConfig,
    check_domain,
    traffic_config,
    traffic_terms,
)
from repro.obs import counter, gauge, span
from repro.resilience.policy import TaskFailure
from repro.util import ceil_div, dims_to_shape

__all__ = ["DEFAULT_CHUNK", "BatchPoint", "simulate_batch"]

#: Points per vectorised chunk: large enough to amortise the NumPy call
#: overhead, small enough that checkpoint hooks and progress metrics
#: fire at a useful cadence on 100k-point sweeps.
DEFAULT_CHUNK = 16384


@dataclass(frozen=True)
class BatchPoint:
    """One matrix point for :func:`simulate_batch`.

    Mirrors the :func:`~repro.gpu.simulator.simulate` signature:
    ``dims``/``vector_length`` override the architecture's default
    tile/VL (the tuning use case), ``stencil_name`` the display name.
    """

    stencil: Stencil
    variant: str
    platform: Platform
    domain: Tuple[int, int, int] = (512, 512, 512)
    stencil_name: Optional[str] = None
    dims: Optional[BrickDims] = None
    vector_length: Optional[int] = None


def _stencil_signature(stencil: Stencil) -> Tuple:
    """The codegen identity of a stencil (same fields the memo keys on)."""
    return (
        stencil.output,
        stencil.input,
        stencil.ndim,
        tuple(sorted(stencil.taps.items())),
    )


@dataclass
class _Group:
    """Everything constant across one (codegen x platform x variant) group."""

    index: int
    stencil: Stencil
    platform: Platform
    cost: ProgramCost
    strategy: str
    ops: int  # len(program.ops), for the codegen.vector_ops counter
    tile_shape: Tuple[int, int, int]
    traffic: TrafficConfig
    timing: TimingConfig


class _GroupTable:
    """Insertion-ordered group cache, shared across chunks of one batch."""

    def __init__(self) -> None:
        self._by_key: Dict[Tuple, _Group] = {}
        self._fast: Dict[Tuple, _Group] = {}
        self.groups: List[_Group] = []

    def __len__(self) -> int:
        return len(self.groups)

    def resolve(self, point: BatchPoint) -> _Group:
        """The group for ``point``, building codegen/cost on first sight.

        Raises exactly what the scalar path would raise for this point
        (unknown variant, codegen validation, ...).

        The fast path keys on object identity — a 100k-point sweep
        reuses a handful of stencil/platform objects, and hashing the
        frozen dataclasses themselves dominates batch time otherwise.
        ``id()`` keys are safe here: ``simulate_batch`` holds the point
        list (and so every stencil/platform) alive for the whole call.
        """
        fast_key = (
            id(point.stencil),
            id(point.platform),
            point.variant,
            point.dims.dims if point.dims is not None else None,
            point.vector_length,
        )
        group = self._fast.get(fast_key)
        if group is not None:
            return group
        group = self._resolve_slow(point)
        self._fast[fast_key] = group
        return group

    def _resolve_slow(self, point: BatchPoint) -> _Group:
        stencil, platform, variant = point.stencil, point.platform, point.variant
        layout, strategy, dims, vl = resolve(
            variant, platform, point.dims, point.vector_length
        )
        key = (_stencil_signature(stencil), dims.dims, vl, strategy, id(platform), variant)
        group = self._by_key.get(key)
        if group is not None:
            return group
        program = generate(stencil, dims, CodegenOptions(vl, strategy))
        cost = cost_of(program)
        arch, profile = platform.arch, platform.profile
        vp = profile.variant(variant)
        group = _Group(
            index=len(self.groups),
            stencil=stencil,
            platform=platform,
            cost=cost,
            strategy=program.strategy,
            ops=len(program.ops),
            tile_shape=dims.shape,
            traffic=traffic_config(stencil, layout, cost, arch, profile, vp, dims.shape),
            timing=timing_config(arch, profile, vp, cost),
        )
        self._by_key[key] = group
        self.groups.append(group)
        return group


class _Columns:
    """Per-point columns gathered from per-group configs, and back to rows."""

    def __init__(self, gidx: np.ndarray) -> None:
        self.gidx = gidx
        # id(column) -> (weak ref to the column, per-group values).  The
        # weak ref lets the formula free a column it is done with, and
        # tells a live column from a later array that reuses its id.
        self._sources: Dict[int, Tuple[weakref.ref, list]] = {}

    def gather(self, configs: List[Any]) -> Any:
        """A config whose fields are the per-point columns of ``configs[gidx]``."""
        cls = type(configs[0])
        columns = []
        for f in fields(cls):
            values = [getattr(c, f.name) for c in configs]
            column = np.array(values)[self.gidx]
            self._sources[id(column)] = (weakref.ref(column), values)
            columns.append(column)
        return cls(*columns)

    def rows(self, columns: Any) -> List[Any]:
        """Split a dataclass of per-point columns into per-point instances.

        A field passed through unchanged from a gathered config
        (occupancy, launch overhead) keeps the config's float objects, as
        the scalar path does, rather than one new float per point.  A
        field that is a single number (a helper patched to a constant, as
        in the mutation tests) stands for every point.
        """
        cls = type(columns)
        lists = []
        for f in fields(cls):
            column = getattr(columns, f.name)
            source = self._sources.get(id(column))
            if source is not None and source[0]() is column:
                column = np.array(source[1], dtype=object)[self.gidx]
            lists.append(np.broadcast_to(column, len(self.gidx)).tolist())
        return [cls(*row) for row in zip(*lists)]


def _evaluate(
    domains: List[Tuple[int, int, int]],
    ntiles: List[int],
    groups: List[_Group],
    table: _GroupTable,
) -> Tuple[List[Traffic], List[TimingBreakdown]]:
    """Traffic and timing of the resolvable chunk points, one formula call
    each over gathered columns (see the module docstring for why that
    makes the floats bit-identical to the scalar path)."""
    cols = _Columns(np.array([g.index for g in groups]))
    ni, nj, nk = np.array(domains, dtype=np.int64).T
    tiles = np.array(ntiles, dtype=np.int64)
    traffic = traffic_terms(
        cols.gather([g.traffic for g in table.groups]), ni, nj, nk, tiles
    )
    timing = timing_terms(cols.gather([g.timing for g in table.groups]), traffic, tiles)
    return cols.rows(traffic), cols.rows(timing)


def _failure(exc: Exception) -> TaskFailure:
    """The TaskFailure a resilient scalar run would record for ``exc``."""
    return TaskFailure(
        error_type=type(exc).__name__,
        message=str(exc),
        attempts=getattr(exc, "attempts", 1),
        timed_out=False,
    )


def _run_chunk(
    chunk: Sequence[BatchPoint],
    table: _GroupTable,
    flops_memo: Dict[Tuple, int],
    validate: bool,
    capture: bool,
) -> List[Any]:
    """One chunk: resolve, vectorise, assemble, validate, count."""
    n = len(chunk)
    groups: List[Optional[_Group]] = [None] * n
    ntiles: List[int] = [0] * n
    errors: List[Optional[Exception]] = [None] * n
    for i, point in enumerate(chunk):
        try:
            group = table.resolve(point)
            ntiles[i] = check_domain(dims_to_shape(point.domain), group.tile_shape)
            groups[i] = group
        except Exception as exc:
            errors[i] = exc

    ok = [i for i in range(n) if errors[i] is None]
    traffics, timings = _evaluate(
        [chunk[i].domain for i in ok],
        [ntiles[i] for i in ok],
        [groups[i] for i in ok],
        table,
    ) if ok else ([], [])
    rows = zip(traffics, timings)

    out: List[Any] = []
    calls = tiles = vector_ops = 0

    def flush() -> None:
        if calls:
            counter("simulate.calls").inc(calls)
            counter("simulate.tiles").inc(tiles)
            counter("codegen.vector_ops").inc(vector_ops)

    for i, point in enumerate(chunk):
        error = errors[i]
        if error is None:
            group = groups[i]
            assert group is not None
            traffic, timing = next(rows)
            flops_key = (id(group.stencil), point.domain)
            flops = flops_memo.get(flops_key)
            if flops is None:
                flops = total_flops(group.stencil, point.domain)
                flops_memo[flops_key] = flops
            # The scalar path bumps these before its invariant check, so
            # a violating point still counts a simulate() call.
            calls += 1
            tiles += ntiles[i]
            vector_ops += group.ops
            try:
                out.append(assemble(
                    group.platform, point.variant,
                    point.stencil_name or point.stencil.description(),
                    point.domain, flops, traffic, timing, group.cost,
                    group.strategy, validate,
                ))
                continue
            except ValidationError as exc:
                error = exc
        if capture:
            out.append(_failure(error))
            continue
        # Raise semantics: a scalar loop completes every point before
        # the first failing one — their counters are already summed.
        flush()
        raise error
    flush()
    return out


def simulate_batch(
    points: Sequence[BatchPoint],
    *,
    check_invariants: Optional[bool] = None,
    capture_failures: bool = False,
    chunk_size: int = DEFAULT_CHUNK,
    on_result: Optional[Callable[[int, Any], None]] = None,
    dispatch: str = "vectorized",
) -> List[Any]:
    """Simulate a matrix of points; bit-identical to a scalar loop.

    Returns one entry per input point, in input order: a
    :class:`~repro.gpu.simulator.SimulationResult`, or (with
    ``capture_failures=True``) a :class:`~repro.resilience.TaskFailure`
    carrying the same error a resilient scalar run would record.
    Without ``capture_failures`` the earliest failing point's exception
    raises, exactly like a scalar loop at that point.

    ``check_invariants`` mirrors :func:`~repro.gpu.simulator.simulate`
    (``None`` defers to ``REPRO_VALIDATE``); ``on_result`` is called as
    ``(index, result)`` in input order as each chunk completes — the
    checkpoint hook; ``dispatch`` labels the ``sweep.batch`` span with
    the dispatch mode that routed here.

    Retry policies do not apply inside the batch: the evaluation is
    deterministic pure math, so a transient fault can only come from the
    environment — points carrying injected fault specs are routed
    through the scalar engine by
    :func:`repro.exec.dispatch.map_study_points` instead.
    """
    points = list(points)
    validate = _validate_enabled(check_invariants)
    table = _GroupTable()
    flops_memo: Dict[Tuple, int] = {}
    chunk_size = max(1, chunk_size)
    nchunks = ceil_div(len(points), chunk_size) if points else 0
    results: List[Any] = []
    with span(
        "sweep.batch",
        points=len(points),
        dispatch=dispatch,
        chunks=nchunks,
    ) as sp:
        for start in range(0, len(points), chunk_size):
            chunk = points[start:start + chunk_size]
            with span("sweep.chunk", n=len(chunk), offset=start):
                chunk_out = _run_chunk(
                    chunk, table, flops_memo, validate, capture_failures
                )
            for i, result in enumerate(chunk_out):
                results.append(result)
                if on_result is not None:
                    on_result(start + i, result)
        if sp is not None:
            sp.set_attr("groups", len(table))
        counter("sweep.batch.points").inc(len(points))
        counter("sweep.batch.chunks").inc(nchunks)
        gauge("sweep.batch.groups").set(len(table))
    return results
