"""Batch-vectorised analytic simulator: a sweep matrix as array ops.

:func:`simulate_batch` evaluates a whole (stencil x platform x variant
x tile x domain) matrix without running a Python loop of scalar
:func:`~repro.gpu.simulator.simulate` calls, and returns it as a
:class:`StudyFrame`: one NumPy column per result field, with the
per-point :class:`~repro.gpu.simulator.SimulationResult` rows built
only when they are read.  Each chunk of points runs three phases:

1. **resolve** — points sharing a (stencil signature, tile, vector
   length, strategy, platform, variant) share one ``_Group``: one
   codegen + cost-model evaluation (the scalar hot path's dominant
   cost), one pair of per-configuration constants
   (:func:`~repro.gpu.traffic.traffic_config`,
   :func:`~repro.gpu.timing.timing_config`) and the stencil's FLOPs
   per domain point, computed once through
   :func:`~repro.dsl.analysis.total_flops`.  The domain axis — the axis
   a 100k-point sweep actually multiplies — adds *no* groups.  The
   domain check is columnar too: one flat ``int64`` gather of the
   extents, one NumPy mask (every extent positive and a multiple of the
   group's tile) and one tile-count column per chunk.  A point that
   fails the mask takes the scalar route:
   :func:`~repro.gpu.traffic.check_domain` raises exactly the scalar
   path's error for it, or, for a valid point too large for exact
   ``int64`` arithmetic (or with non-``int`` extents), returns its tile
   count;
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
3. **assemble** — with invariant checks off and every point columnar,
   the chunk's columns *are* its result: no row is built (an
   ``on_result`` hook reads the chunk's rows, which builds them from the
   columns like any other access).  Otherwise each row goes through
   :func:`~repro.gpu.simulator.assemble`, the scalar path's own result +
   invariant-check step, in point order, and fills the frame's row
   cache up front (and the frame's columns are read off those rows).

Rows built from the columns split them back with
``ndarray.tolist()``, which hands back native Python ``int``/``float``
objects, so even the *types* of every field match the oracle, and go
through the same ``SimulationResult``/``Traffic``/``TimingBreakdown``
constructors.  The objects built per point are acyclic, so the cyclic
garbage collector is paused for each chunk's three phases and for each
block of rows built (it would otherwise run hundreds of times per 100k
points for nothing); the caller's prior ``gc`` state is restored
before any ``on_result`` callback runs or any error leaves the chunk.

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
import operator
from collections.abc import Sequence as SequenceABC
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import chain, repeat
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

__all__ = ["DEFAULT_CHUNK", "BatchPoint", "StudyFrame", "simulate_batch"]

#: Points per vectorised chunk: large enough to amortise the NumPy call
#: overhead, small enough that checkpoint hooks and progress metrics
#: fire at a useful cadence on 100k-point sweeps.  Also the block of
#: rows a :class:`StudyFrame` builds at a time while it is iterated.
DEFAULT_CHUNK = 16384

#: A point goes through the columns only while its domain size times its
#: group's ``int_scale`` stays below this; 2**62 leaves a factor-two
#: margin below the ``int64`` limit for the float estimate of the bound.
_INT64_SAFE = 2.0**62

_TRAFFIC_FIELDS = tuple(f.name for f in fields(Traffic))
_TIMING_FIELDS = tuple(f.name for f in fields(TimingBreakdown))

#: The frame's columns, each with the getter that reads it off a row.
_COLUMNS: Dict[str, Callable[[SimulationResult], Any]] = {
    "flops": attrgetter("flops"),
    **{name: attrgetter(f"traffic.{name}") for name in _TRAFFIC_FIELDS},
    **{name: attrgetter(f"timing.{name}") for name in _TIMING_FIELDS},
}


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
    variant: str
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
            variant=variant,
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


def _domain_array(domains: List[Tuple[int, int, int]]) -> np.ndarray:
    """The ``(n, 3)`` ``int64`` array of a chunk's domains.

    The common case — every domain three Python ints — is one flat
    C-level gather.  Extents beyond ``int64``, non-``int`` (a float
    gathers silently as an int) or of the wrong arity are checked for
    first; such a point reads ``(0, 0, 0)``, fails the mask and takes
    the scalar route.
    """
    n = len(domains)
    try:
        if set(map(len, domains)) <= {3} and set(
            map(type, chain.from_iterable(domains))
        ) <= {int}:
            flat = np.fromiter(chain.from_iterable(domains), np.int64, 3 * n)
            return flat.reshape(n, 3)
    except (TypeError, OverflowError):
        pass
    return np.array(
        [d if _plain(d) else (0, 0, 0) for d in domains], dtype=np.int64
    ).reshape(n, 3)


def _check_domains(
    domains: List[Tuple[int, int, int]], gidx: np.ndarray, table: _GroupTable
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columnar :func:`~repro.gpu.traffic.check_domain` over a chunk.

    Returns the ``(n, 3)`` domain array, the mask of points that resolved,
    pass the check and keep every integer term of the model inside
    ``int64``, and the tile-count column (meaningful where the mask holds).
    """
    dom = _domain_array(domains)
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


def _gather(configs: List[Any], gidx: np.ndarray) -> Any:
    """A config whose fields are the per-point columns of ``configs[gidx]``."""
    cls = type(configs[0])
    return cls(*(
        np.array([getattr(c, f.name) for c in configs])[gidx] for f in fields(cls)
    ))


def _evaluate(
    dom: np.ndarray, ntiles: np.ndarray, gidx: np.ndarray, table: _GroupTable
) -> Tuple[Dict[str, np.ndarray], Dict[str, str]]:
    """The result columns of the masked chunk points, one formula call
    each over gathered columns (see the module docstring for why that
    makes the floats bit-identical to the scalar path).

    Also returns the result fields the formulas pass through unchanged
    from a config (occupancy, launch overhead), each with the ``_Group``
    attribute path it came from: rows read those off the group, keeping
    the config's own float objects as the scalar path does, rather than
    one new float per point.
    """
    ni, nj, nk = dom.T
    configs = {
        "traffic": _gather([g.traffic for g in table.groups], gidx),
        "timing": _gather([g.timing for g in table.groups], gidx),
    }
    traffic = traffic_terms(configs["traffic"], ni, nj, nk, ntiles)
    timing = timing_terms(configs["timing"], traffic, ntiles)
    # The gathered configs are alive here, so their columns' ids are unique.
    sources = {
        id(getattr(config, f.name)): f"{part}.{f.name}"
        for part, config in configs.items()
        for f in fields(config)
    }
    columns = {"flops": ni * nj * nk * table.column("flops_per_point", gidx, np.int64)}
    passthrough: Dict[str, str] = {}
    for terms in (traffic, timing):
        for f in fields(terms):
            value = getattr(terms, f.name)
            if id(value) in sources:
                passthrough[f.name] = sources[id(value)]
            # A field that is a single number (a helper patched to a
            # constant, as in the mutation tests) stands for every point.
            columns[f.name] = np.broadcast_to(value, len(gidx))
    return columns, passthrough


def _split(
    columns: Dict[str, np.ndarray],
    idx: Any,
    groups: List[_Group],
    passthrough: Dict[str, str],
) -> Tuple[List[Traffic], List[TimingBreakdown], List[int]]:
    """The ``Traffic``/``TimingBreakdown`` instances and FLOP counts of
    the points ``idx`` of ``columns`` (whose groups are ``groups``), as
    native Python numbers."""

    def values(name: str) -> Any:
        path = passthrough.get(name)
        if path is not None:
            return map(attrgetter(path), groups)
        return columns[name][idx].tolist()

    return (
        list(map(Traffic, *map(values, _TRAFFIC_FIELDS))),
        list(map(TimingBreakdown, *map(values, _TIMING_FIELDS))),
        columns["flops"][idx].tolist(),
    )


def _exact_column(values: List[Any]) -> np.ndarray:
    """One column of Python numbers, each kept exactly and with its type:
    ``int64`` when all are ints inside it, ``float64`` when all are
    floats, else ``object`` (ints beside floats, as a float-extent domain
    gives, or an int beyond ``int64``)."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return np.array(values, dtype=np.float64)
    if kinds <= {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    return np.array(values, dtype=object)


def _row_columns(rows: List[Any]) -> Dict[str, np.ndarray]:
    """A chunk's columns read off its built rows; failed points read a
    zero of the kind the built rows hold (``0.0`` beside floats)."""
    built = [not isinstance(r, TaskFailure) for r in rows]
    columns = {}
    for name, get in _COLUMNS.items():
        values = [get(r) if k else None for r, k in zip(rows, built)]
        zero = 0.0 if {type(v) for v in values if v is not None} == {float} else 0
        columns[name] = _exact_column([zero if v is None else v for v in values])
    return columns


def _concat(parts: List[np.ndarray]) -> np.ndarray:
    """Chunk columns joined without changing any value's type: chunks
    that disagree on ``dtype`` (ints beside floats or objects) join as an
    ``object`` column of the native Python numbers."""
    if len({part.dtype for part in parts}) > 1:
        parts = [part.astype(object) for part in parts]
    return np.concatenate(parts)


class StudyFrame(SequenceABC):
    """The result of :func:`simulate_batch`: columns, with lazy rows.

    A read-only sequence with one entry per input point, in input order.
    ``frame[i]`` (negative indices too) is the point's
    :class:`~repro.gpu.simulator.SimulationResult` — built from the
    columns on first access and cached, so ``frame[i] is frame[i]`` — or
    the :class:`~repro.resilience.TaskFailure` recorded for it.  A slice
    returns a list; iteration builds rows a block at a time; a frame
    compares equal to any sequence holding equal entries in order.

    :meth:`column` reads one field for every point without building a
    row.  Rows were already built at batch time through the checked
    path when invariant checks were on or a chunk held a point off the
    columnar route (a failure, a huge or non-``int`` domain), and from
    the columns when an ``on_result`` hook read them; every other row is
    built on demand.  The saving is in the rows nobody reads: a caller
    that reads every row pays for every row.
    A frame is not safe to read from several threads at once: two
    threads building one row may each get their own copy.
    """

    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        columns: Dict[str, np.ndarray],
        gidx: np.ndarray,
        groups: List[_Group],
        domains: List[Any],
        names: List[str],
        rows: Optional[List[Any]] = None,
        todo: Optional[np.ndarray] = None,
        passthrough: Optional[Dict[str, str]] = None,
    ) -> None:
        """``rows`` defaults to none built; given, ``todo`` marks the
        entries still to build (default: none)."""
        n = len(gidx)
        self._columns = columns
        self._passthrough = passthrough or {}
        for column in columns.values():
            column.flags.writeable = False
        self._gidx = gidx
        self._groups = groups
        self._domains = domains
        self._names = names
        if rows is None:
            self._rows: List[Any] = [None] * n
            self._todo = np.ones(n, dtype=bool)
        else:
            self._rows = rows
            self._todo = np.zeros(n, dtype=bool) if todo is None else todo

    @classmethod
    def _join(cls, frames: List["StudyFrame"], groups: List[_Group]) -> "StudyFrame":
        """One frame of the chunk frames, in order; their columns move
        into it one at a time, so two copies of all of them never live."""
        if len(frames) == 1:
            return frames[0]
        if not frames:
            return cls(
                {name: np.empty(0) for name in _COLUMNS},
                np.empty(0, dtype=np.intp), groups, [], [],
            )
        # Every evaluated chunk passes the same fields through.
        passthrough = next((f._passthrough for f in frames if f._todo.any()), {})
        return cls(
            {name: _concat([f._columns.pop(name) for f in frames]) for name in _COLUMNS},
            np.concatenate([f._gidx for f in frames]),
            groups,
            list(chain.from_iterable(f._domains for f in frames)),
            list(chain.from_iterable(f._names for f in frames)),
            list(chain.from_iterable(f._rows for f in frames)),
            np.concatenate([f._todo for f in frames]),
            passthrough,
        )

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index: Any) -> Any:
        n = len(self._rows)
        if isinstance(index, slice):
            covered = range(n)[index]
            if covered:
                lo, hi = sorted((covered[0], covered[-1]))
                self._build(lo, hi + 1)
            return self._rows[index]
        i = operator.index(index)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"StudyFrame index {index} out of range for {n} points")
        if self._todo[i]:
            self._build(i, i + 1)
        return self._rows[i]

    def __iter__(self) -> Iterator[Any]:
        n = len(self._rows)
        for lo in range(0, n, DEFAULT_CHUNK):
            hi = min(lo + DEFAULT_CHUNK, n)
            self._build(lo, hi)
            yield from self._rows[lo:hi]

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, SequenceABC) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"StudyFrame({len(self)} points, {len(self._groups)} groups)"

    def column(self, name: str) -> np.ndarray:
        """One result field for every point, as a read-only array.

        ``name`` is ``"flops"``, a :class:`~repro.gpu.traffic.Traffic` or
        :class:`~repro.gpu.timing.TimingBreakdown` field, or ``"time_s"``
        (``timing.total``, as a new array).  Each entry is bit-identical
        to the row attribute; entries at failed points read 0.  Values
        beyond ``int64`` make an ``object`` column.
        """
        if name == "time_s":
            # TimingBreakdown.total, operation for operation; where()
            # keeps Python max()'s choice (the first of equal values).
            c = self._columns
            total = c["t_hbm"] + c["t_shuffle"] + c["t_issue"]
            total = np.where(c["t_l1"] > total, c["t_l1"], total)
            total = np.where(c["t_fp"] > total, c["t_fp"], total)
            return total + c["launch_overhead"]
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; known: {sorted(self._columns) + ['time_s']}"
            ) from None

    def _build(self, lo: int, hi: int) -> None:
        """Build and cache the rows in ``[lo, hi)`` not built yet."""
        todo = self._todo[lo:hi]
        if todo.all():
            # The common case (iteration, a fresh slice): plain slices.
            idx: Any = slice(lo, hi)
            names, domains = self._names[idx], self._domains[idx]
        else:
            idx = np.flatnonzero(todo)
            if not len(idx):
                return
            idx += lo
            ids = idx.tolist()
            names = list(map(self._names.__getitem__, ids))
            domains = list(map(self._domains.__getitem__, ids))
        groups = list(map(self._groups.__getitem__, self._gidx[idx].tolist()))
        with _gc_paused():
            traffics, timings, flops = _split(
                self._columns, idx, groups, self._passthrough
            )
            built = list(map(
                SimulationResult,
                map(attrgetter("platform"), groups),
                map(attrgetter("variant"), groups),
                names,
                domains,
                flops,
                traffics,
                timings,
                map(attrgetter("cost"), groups),
                map(attrgetter("strategy"), groups),
            ))
            if isinstance(idx, slice):
                self._rows[idx] = built
            else:
                rows = self._rows
                for i, row in zip(ids, built):
                    rows[i] = row
        self._todo[idx] = False


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
    chunk: Sequence[BatchPoint],
    table: _GroupTable,
    validate: bool,
    capture: bool,
) -> StudyFrame:
    """One chunk: resolve and check, evaluate, assemble and count."""
    n = len(chunk)
    errors: Dict[int, Exception] = {}
    with span("sweep.resolve"):
        groups = table.resolve_chunk(chunk, errors)
        gidx = np.fromiter((-1 if g is None else g.index for g in groups), np.intp, n)
        domains = list(map(attrgetter("domain"), chunk))
        dom, ok, ntiles = _check_domains(domains, gidx, table)
        # The scalar route: an error, or a valid point the columns cannot
        # hold exactly (evaluated on Python numbers below).
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
        columns, passthrough = (
            _evaluate(dom[sel], ntiles[sel], gidx[sel], table) if len(sel) else ({}, {})
        )
        scalar_rows: Dict[int, Tuple] = {}
        for i, nt in scalar.items():
            group = groups[i]
            ni, nj, nk = domains[i]
            try:
                traffic = traffic_terms(group.traffic, ni, nj, nk, nt)
                timing = timing_terms(group.timing, traffic, nt)
            except Exception as exc:
                errors[i] = exc
                continue
            scalar_rows[i] = (traffic, timing, ni * nj * nk * group.flops_per_point, nt)

    with span("sweep.assemble"):
        names = list(map(attrgetter("stencil_name"), chunk))
        if not all(names):
            names = [p.stencil_name or p.stencil.description() for p in chunk]
        if len(sel) == n and not validate:
            per_group = np.bincount(gidx, minlength=len(table)).tolist()
            counter("simulate.calls").inc(n)
            counter("simulate.tiles").inc(sum(ntiles.tolist()))
            counter("codegen.vector_ops").inc(
                sum(map(operator.mul, map(attrgetter("ops"), table.groups), per_group))
            )
            return StudyFrame(
                columns, gidx, table.groups, domains, names, passthrough=passthrough
            )
        rows: List[Any] = [None] * n
        if len(sel):
            sel_groups = list(map(groups.__getitem__, sel.tolist()))
            evaluated = zip(
                *_split(columns, slice(None), sel_groups, passthrough),
                ntiles[sel].tolist(),
            )
            for i, row in zip(sel.tolist(), evaluated):
                rows[i] = row
        for i, row in scalar_rows.items():
            rows[i] = row
        out = _assemble_checked(chunk, groups, names, rows, errors, validate, capture)
        return StudyFrame(_row_columns(out), gidx, table.groups, domains, names, out)


def _assemble_checked(
    chunk: Sequence[BatchPoint],
    groups: List[Optional[_Group]],
    names: List[str],
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

    for i, (point, group, name, row) in enumerate(zip(chunk, groups, names, rows)):
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
                    group.platform, point.variant, name, point.domain, flops,
                    traffic, timing, group.cost, group.strategy, validate,
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
) -> StudyFrame:
    """Simulate a matrix of points; bit-identical to a scalar loop.

    Returns a :class:`StudyFrame` with one entry per input point, in
    input order: a :class:`~repro.gpu.simulator.SimulationResult`, or
    (with ``capture_failures=True``) a
    :class:`~repro.resilience.TaskFailure` carrying the same error a
    resilient scalar run would record.  Without ``capture_failures`` the
    earliest failing point's exception raises, exactly like a scalar
    loop at that point.

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
    frames: List[StudyFrame] = []
    with span(
        "sweep.batch",
        points=len(points),
        dispatch=dispatch,
        chunks=nchunks,
    ) as sp:
        for start in range(0, len(points), chunk_size):
            chunk = points[start:start + chunk_size]
            with _gc_paused(), span("sweep.chunk", n=len(chunk), offset=start):
                frame = _run_chunk(chunk, table, validate, capture_failures)
            frames.append(frame)
            if on_result is not None:
                for i, result in enumerate(frame, start):
                    on_result(i, result)
        frame = StudyFrame._join(frames, table.groups)
        if sp is not None:
            sp.set_attr("groups", len(table))
        counter("sweep.batch.points").inc(len(points))
        counter("sweep.batch.chunks").inc(nchunks)
        gauge("sweep.batch.groups").set(len(table))
    return frame
