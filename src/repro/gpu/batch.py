"""Batch-vectorised analytic simulator: a sweep matrix as array ops.

:func:`simulate_batch` evaluates a whole (stencil x platform x variant
x tile x domain) matrix without running a Python loop of scalar
:func:`~repro.gpu.simulator.simulate` calls.  Each chunk of points is
columnar up to the row build, in three phases:

1. **resolve** — points sharing a (stencil signature, tile, vector
   length, strategy, platform, variant) share one ``_Group``: one
   codegen + cost-model evaluation (the scalar hot path's dominant
   cost), one pair of per-configuration constants
   (:func:`~repro.gpu.traffic.traffic_config`,
   :func:`~repro.gpu.timing.timing_config`) and the stencil's FLOPs
   per domain point, computed once through
   :func:`~repro.dsl.analysis.total_flops`.  The domain axis — the axis
   a 100k-point sweep actually multiplies — adds *no* groups.  The
   domain check is columnar too: one NumPy mask (every extent positive
   and a multiple of the group's tile) and one tile-count column per
   chunk.  A point that fails the mask takes the scalar route:
   :func:`~repro.gpu.traffic.check_domain` raises exactly the scalar
   path's error for it, or, for a valid point too large for exact
   ``int64`` arithmetic, returns its tile count;
2. **evaluate** — the masked points' domains and their groups'
   constants are gathered into NumPy ``int64``/``float64`` columns and
   handed to :func:`~repro.gpu.traffic.traffic_terms` and
   :func:`~repro.gpu.timing.timing_terms`, the very functions the
   scalar path calls on Python numbers.  Both engines run one formula:
   it has no branches, integer quantities stay integers (the mask keeps
   every integer term inside ``int64``; int-to-float conversion rounds
   the same way on both paths), and every float operation is the same
   IEEE operation on the same operands in the same order whether its
   operands are Python floats or array elements — so every result float
   is bit-identical to the scalar path by construction.  FLOPs are one
   exact ``ni*nj*nk*flops_per_point`` product per point.  Points on the
   scalar route run the same two formulas on Python numbers;
3. **assemble** — columns split back into rows with
   ``ndarray.tolist()``, which hands back native Python ``int``/``float``
   objects, so even the *types* of every field match the oracle.  With
   invariant checks off each row is one direct
   :class:`~repro.gpu.simulator.SimulationResult` construction; with
   them on, or when a point of the chunk left the columns, each row
   goes through :func:`~repro.gpu.simulator.assemble`, the scalar
   path's own result + invariant-check step, in point order.

The ~3 objects built per point are acyclic, so the cyclic garbage
collector is paused for each chunk's three phases (it would otherwise
run hundreds of times per 100k points for nothing) and the caller's
prior ``gc`` state is restored before any ``on_result`` callback runs
or any error leaves the chunk.

The scalar path stays the bit-checked oracle: the equivalence suite
(``tests/test_batch_equivalence.py``) asserts field-by-field equality
across dispatch modes, and the bench gate re-checks the full 90-point
study against the oracle on every run.

Observability: one ``sweep.batch`` span (with ``dispatch``/``points``/
``groups``/``chunks`` attrs) wraps the evaluation, one ``sweep.chunk``
span per chunk with ``sweep.resolve``/``sweep.evaluate``/
``sweep.assemble`` children, and the per-point counters
(``simulate.calls``, ``simulate.tiles``, ``codegen.vector_ops``, and
``simulate.invariant_violations`` under ``REPRO_VALIDATE``) are bumped
by exactly the amounts a scalar loop over the same points would bump
them.  Per-point ``study.point``/``simulate`` spans are a scalar/pool
feature — at 100k points they *are* the overhead this module removes.

Failure semantics mirror the resilient scalar engine: with
``capture_failures=True`` a point whose resolution, domain check or
invariant check fails degrades into the same
:class:`~repro.resilience.TaskFailure` record (same ``error_type``/
``message``/``attempts``) that ``parallel_map(..., capture_failures=True)``
would produce for it; without it, the error of the *earliest* failing
point raises, after the counters of the points a scalar loop would have
completed first.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import repeat
from operator import attrgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.bricks.layout import BrickDims
from repro.codegen.cost import ProgramCost, cost_of
from repro.codegen.generator import CodegenOptions, generate
from repro.dsl.analysis import FP64_BYTES, total_flops
from repro.dsl.stencil import Stencil
from repro.errors import ValidationError
from repro.gpu.progmodel import Platform
from repro.gpu.simulator import SimulationResult, assemble, resolve, _validate_enabled
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

#: A point goes through the columns only while its domain size times its
#: group's ``int_scale`` stays below this; 2**62 leaves a factor-two
#: margin below the ``int64`` limit for the float estimate of the bound.
_INT64_SAFE = 2.0**62


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


def _int_scale(t: TrafficConfig, m: TimingConfig, flops_per_point: int) -> int:
    """A bound on every integer term of the model, per domain point.

    For extents ``>= 1`` the halo-padded volume is at most ``(1 + 2r)**3``
    domain points, the layer-condition working set at most
    ``shared_planes`` planes, and a domain holds at most one tile per
    point; so no integer the formulas (or the FLOP product) form on a
    domain of ``n`` points exceeds ``n * _int_scale(...)``.
    """
    return max(
        FP64_BYTES * (1 + 2 * t.radius) ** 3,
        FP64_BYTES * t.shared_planes,
        (t.load_sectors + t.store_sectors) * t.sector_bytes,
        m.flops_per_tile,
        m.shuffles_per_tile,
        m.instrs_per_tile,
        flops_per_point,
    )


@dataclass(eq=False)
class _Group:
    """Everything constant across one (codegen x platform x variant) group."""

    index: int
    platform: Platform
    cost: ProgramCost
    strategy: str
    ops: int  # len(program.ops), for the codegen.vector_ops counter
    tile_shape: Tuple[int, int, int]
    traffic: TrafficConfig
    timing: TimingConfig
    flops_per_point: int
    int_scale: int


class _GroupTable:
    """Insertion-ordered group cache, shared across chunks of one batch."""

    def __init__(self) -> None:
        self._by_key: Dict[Tuple, _Group] = {}
        self._fast: Dict[Tuple, _Group] = {}
        self.groups: List[_Group] = []

    def __len__(self) -> int:
        return len(self.groups)

    def resolve_chunk(
        self, chunk: Sequence[BatchPoint], errors: Dict[int, Exception]
    ) -> List[Optional[_Group]]:
        """Each point's group, building codegen/cost on first sight.

        A point that cannot resolve gets ``None`` and, in ``errors``,
        exactly what the scalar path would raise for it (unknown variant,
        codegen validation, ...).

        The fast path keys on object identity — a 100k-point sweep
        reuses a handful of stencil/platform objects, and hashing the
        frozen dataclasses themselves dominates batch time otherwise.
        ``id()`` keys are safe here: ``simulate_batch`` holds the point
        list (and so every stencil/platform) alive for the whole call.
        The keys are built and looked up with C-level ``map``s; only the
        misses run Python code.
        """
        keys = list(zip(
            map(id, map(attrgetter("stencil"), chunk)),
            map(id, map(attrgetter("platform"), chunk)),
            map(attrgetter("variant"), chunk),
            map(getattr, map(attrgetter("dims"), chunk), repeat("dims"), repeat(None)),
            map(attrgetter("vector_length"), chunk),
        ))
        groups: List[Optional[_Group]] = list(map(self._fast.get, keys))
        if None in groups:
            for i in [i for i, g in enumerate(groups) if g is None]:
                group = self._fast.get(keys[i])
                if group is None:
                    try:
                        group = self._fast[keys[i]] = self._resolve_slow(chunk[i])
                    except Exception as exc:
                        errors[i] = exc
                        continue
                groups[i] = group
        return groups

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
        traffic = traffic_config(stencil, layout, cost, arch, profile, vp, dims.shape)
        timing = timing_config(arch, profile, vp, cost)
        # total_flops is linear in the domain size: one point's worth.
        flops_per_point = total_flops(stencil, (1, 1, 1))
        group = _Group(
            index=len(self.groups),
            platform=platform,
            cost=cost,
            strategy=program.strategy,
            ops=len(program.ops),
            tile_shape=dims.shape,
            traffic=traffic,
            timing=timing,
            flops_per_point=flops_per_point,
            int_scale=_int_scale(traffic, timing, flops_per_point),
        )
        self._by_key[key] = group
        self.groups.append(group)
        return group

    def column(self, attr: str, gidx: np.ndarray, dtype: Any = None) -> np.ndarray:
        """Per-point column of one ``_Group`` attribute."""
        return np.array([getattr(g, attr) for g in self.groups], dtype=dtype)[gidx]


def _plain(domain: Any) -> bool:
    """Three Python ints small enough for the columns."""
    return len(domain) == 3 and all(
        type(e) is int and abs(e) < _INT64_SAFE for e in domain
    )


def _check_domains(
    domains: List[Tuple[int, int, int]], gidx: np.ndarray, table: _GroupTable
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columnar :func:`~repro.gpu.traffic.check_domain` over a chunk.

    Returns the ``(n, 3)`` domain array, the mask of points that resolved,
    pass the check and keep every integer term of the model inside
    ``int64``, and the tile-count column (meaningful where the mask holds).
    """
    try:
        dom = np.array(domains)
    except (OverflowError, ValueError):
        dom = None
    if dom is None or dom.dtype.kind != "i" or dom.shape != (len(domains), 3):
        # Extents beyond int64, non-int or of the wrong arity: such a
        # point fails the mask and takes the scalar route.
        dom = np.array(
            [d if _plain(d) else (0, 0, 0) for d in domains], dtype=np.int64
        )
    resolved = gidx >= 0
    if not resolved.any():
        return dom, resolved, np.zeros(len(domains), dtype=np.int64)
    ni, nj, nk = dom.T
    bk, bj, bi = table.column("tile_shape", gidx, np.int64).T
    scale = table.column("int_scale", gidx, np.float64)
    ok = (
        resolved
        & (dom > 0).all(axis=1)
        & (ni % bi == 0) & (nj % bj == 0) & (nk % bk == 0)
        & (dom.astype(np.float64).prod(axis=1) * scale < _INT64_SAFE)
    )
    return dom, ok, (ni // bi) * (nj // bj) * (nk // bk)


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
        return list(map(cls, *lists))


def _evaluate(
    dom: np.ndarray, ntiles: np.ndarray, gidx: np.ndarray, table: _GroupTable
) -> Tuple[List[Traffic], List[TimingBreakdown], List[int]]:
    """Traffic, timing and FLOPs of the masked chunk points, one formula
    call each over gathered columns (see the module docstring for why
    that makes the floats bit-identical to the scalar path)."""
    cols = _Columns(gidx)
    ni, nj, nk = dom.T
    traffic = traffic_terms(
        cols.gather([g.traffic for g in table.groups]), ni, nj, nk, ntiles
    )
    timing = timing_terms(cols.gather([g.timing for g in table.groups]), traffic, ntiles)
    flops = ni * nj * nk * table.column("flops_per_point", gidx, np.int64)
    return cols.rows(traffic), cols.rows(timing), flops.tolist()


def _failure(exc: Exception) -> TaskFailure:
    """The TaskFailure a resilient scalar run would record for ``exc``."""
    return TaskFailure(
        error_type=type(exc).__name__,
        message=str(exc),
        attempts=getattr(exc, "attempts", 1),
        timed_out=False,
    )


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic collector; restore the caller's state on exit.

    Only a collector that was on is switched back on, so concurrent
    batches on several threads leave it as they found it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _run_chunk(
    chunk: Sequence[BatchPoint], table: _GroupTable, validate: bool, capture: bool
) -> List[Any]:
    """One chunk: resolve and check, evaluate, assemble and count."""
    n = len(chunk)
    errors: Dict[int, Exception] = {}
    with span("sweep.resolve"):
        groups = table.resolve_chunk(chunk, errors)
        gidx = np.fromiter((-1 if g is None else g.index for g in groups), np.intp, n)
        domains = list(map(attrgetter("domain"), chunk))
        dom, ok, ntiles = _check_domains(domains, gidx, table)
        # The scalar route: an error, or a valid point too large for the
        # columns (evaluated on Python numbers below).
        scalar: Dict[int, int] = {}
        for i in np.flatnonzero(~ok).tolist():
            if i not in errors:
                try:
                    scalar[i] = check_domain(
                        dims_to_shape(domains[i]), groups[i].tile_shape
                    )
                except Exception as exc:
                    errors[i] = exc

    with span("sweep.evaluate"):
        sel = np.flatnonzero(ok)
        traffics, timings, flops = _evaluate(
            dom[sel], ntiles[sel], gidx[sel], table
        ) if len(sel) else ([], [], [])
        tiles: List[int] = ntiles[sel].tolist()
        rows: List[Any] = [None] * n
        if len(sel) < n:
            # Back to chunk order; the scalar route runs the same
            # formulas on Python numbers.
            for i, row in zip(sel.tolist(), zip(traffics, timings, flops, tiles)):
                rows[i] = row
            for i, nt in scalar.items():
                group = groups[i]
                ni, nj, nk = domains[i]
                try:
                    traffic = traffic_terms(group.traffic, ni, nj, nk, nt)
                    timing = timing_terms(group.timing, traffic, nt)
                except Exception as exc:
                    errors[i] = exc
                    continue
                rows[i] = (traffic, timing, ni * nj * nk * group.flops_per_point, nt)

    with span("sweep.assemble"):
        if len(sel) == n and not validate:
            names = list(map(attrgetter("stencil_name"), chunk))
            if not all(names):
                names = [p.stencil_name or p.stencil.description() for p in chunk]
            out: List[Any] = list(map(
                SimulationResult,
                map(attrgetter("platform"), groups),
                map(attrgetter("variant"), chunk),
                names,
                domains,
                flops,
                traffics,
                timings,
                map(attrgetter("cost"), groups),
                map(attrgetter("strategy"), groups),
            ))
            counter("simulate.calls").inc(n)
            counter("simulate.tiles").inc(sum(tiles))
            counter("codegen.vector_ops").inc(sum(map(attrgetter("ops"), groups)))
            return out
        if len(sel) == n:
            rows = list(zip(traffics, timings, flops, tiles))
        return _assemble_checked(chunk, groups, rows, errors, validate, capture)


def _assemble_checked(
    chunk: Sequence[BatchPoint],
    groups: List[Optional[_Group]],
    rows: List[Any],
    errors: Dict[int, Exception],
    validate: bool,
    capture: bool,
) -> List[Any]:
    """The row build point by point, in chunk order: failures, invariant
    checks through :func:`~repro.gpu.simulator.assemble`, counters.

    ``rows`` holds each evaluated point's (traffic, timing, flops, tiles).
    """
    out: List[Any] = []
    calls = ntiles = vector_ops = 0

    def flush() -> None:
        if calls:
            counter("simulate.calls").inc(calls)
            counter("simulate.tiles").inc(ntiles)
            counter("codegen.vector_ops").inc(vector_ops)

    for i, (point, group, row) in enumerate(zip(chunk, groups, rows)):
        error = errors.get(i)
        if error is None:
            assert group is not None
            traffic, timing, flops, tiles = row
            # The scalar path bumps these before its invariant check, so
            # a violating point still counts a simulate() call.
            calls += 1
            ntiles += tiles
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
            with _gc_paused(), span("sweep.chunk", n=len(chunk), offset=start):
                chunk_out = _run_chunk(chunk, table, validate, capture_failures)
            results.extend(chunk_out)
            if on_result is not None:
                for i, result in enumerate(chunk_out, start):
                    on_result(i, result)
        if sp is not None:
            sp.set_attr("groups", len(table))
        counter("sweep.batch.points").inc(len(points))
        counter("sweep.batch.chunks").inc(nchunks)
        gauge("sweep.batch.groups").set(len(table))
    return results
