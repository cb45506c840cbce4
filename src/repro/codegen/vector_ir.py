"""Vector IR: the target-independent form produced by the code generator.

BrickLib's generator emits "a sequence of code blocks that compute
portions of a brick's stencil grid" (paper Section 3).  We model that as
a linear program over virtual vector registers of ``vl`` lanes, where a
lane corresponds to one grid point along the contiguous dimension
(``i``).  The iteration tile is one brick (or one array tile of the same
shape); the input is the halo-padded block around it.

Ops
---
``Load``   — read ``vl`` lanes of one input row starting at brick-frame
             ``i = i0`` (lanes outside the padded block read as zero).
             ``kind`` records how the hardware would service it:
             ``aligned`` (a full vector inside the tile), ``halo`` (the
             partial vector crossing into a neighbour brick), or
             ``unaligned`` (an arbitrary-offset read — what naive
             kernels do for every tap).
``Shift``  — lane-shift combining two registers: the GPU warp-shuffle
             (``__shfl_up/down``) data exchange.
             ``dst[l] = lo[l + amount]`` for ``l < vl - amount`` else
             ``hi[l + amount - vl]``.
``Init``   — zero an accumulator register.
``Add``    — ``dst = a + b``: coefficient-group summation.  BrickLib
             groups taps sharing a coefficient and sums them *before*
             scaling (associative reordering — see the grouped
             expression in the paper's Figure 2 kernels), so the
             executed FLOPs per point are ``points + groups`` rather
             than ``2 * points``.
``Mac``    — ``dst += coeff * src`` (coefficient is symbolic).
``Store``  — write an accumulator to output row ``(k, j)``, vector ``v``.

Coordinates: rows are named ``(k, j)`` with ``k`` the slowest dimension;
loads may address ``k in [-r, bk + r)`` etc.; stores only interior rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.dsl.coeffs import Coeff
from repro.errors import CodegenError

if TYPE_CHECKING:
    from repro.codegen.cost import ProgramCost

LOAD_KINDS = ("aligned", "halo", "unaligned")


@dataclass(frozen=True, slots=True)
class Load:
    dst: str
    k: int
    j: int
    i0: int
    kind: str


@dataclass(frozen=True, slots=True)
class Shift:
    dst: str
    lo: str
    hi: str
    amount: int


@dataclass(frozen=True, slots=True)
class Init:
    dst: str


@dataclass(frozen=True, slots=True)
class Add:
    dst: str
    a: str
    b: str


@dataclass(frozen=True, slots=True)
class Mac:
    dst: str
    src: str
    coeff: Coeff


@dataclass(frozen=True, slots=True)
class Store:
    src: str
    k: int
    j: int
    v: int


Op = Union[Load, Shift, Init, Add, Mac, Store]


@dataclass
class VectorProgram:
    """A generated vector program for one brick/tile of the iteration space.

    A program is immutable once built: ``ops`` is stored as a tuple, and
    the register count and :func:`~repro.codegen.cost.cost_of` result are
    computed on first use and kept on the instance (in fields that take
    no part in ``==`` or ``repr``).

    Attributes
    ----------
    ops:
        Linear op sequence.
    tile:
        Tile extents in numpy order ``(bk, bj, bi)``.
    radius:
        Stencil radius the program assumes for its halo-padded input.
    vl:
        Vector length (lanes); must divide ``bi``.
    strategy:
        Which generator produced it (``naive`` / ``gather`` / ``scatter``).
    """

    ops: Tuple[Op, ...]
    tile: Tuple[int, int, int]
    radius: int
    vl: int
    strategy: str
    meta: Dict[str, object] = field(default_factory=dict)
    _registers: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )
    _cost: Optional["ProgramCost"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.ops = tuple(self.ops)

    @property
    def nvec(self) -> int:
        """Vectors per tile row."""
        return self.tile[2] // self.vl

    def validate(self) -> None:
        """Check structural invariants; raises :class:`CodegenError`."""
        bk, bj, bi = self.tile
        r, vl = self.radius, self.vl
        if bi % vl != 0:
            raise CodegenError(f"vl {vl} does not divide tile i-extent {bi}")
        defined: set = set()
        stored: set = set()

        def require_defined(idx: int, kind: str, regs: Tuple[str, ...]) -> None:
            undefined = [r for r in regs if r not in defined]
            if undefined:
                raise CodegenError(
                    f"op {idx}: {kind} uses undefined register(s) "
                    f"{', '.join(undefined)}"
                )

        for idx, op in enumerate(self.ops):
            if isinstance(op, Load):
                if op.kind not in LOAD_KINDS:
                    raise CodegenError(f"bad load kind {op.kind!r}")
                if not (-r <= op.k < bk + r and -r <= op.j < bj + r):
                    raise CodegenError(f"load row ({op.k},{op.j}) outside halo")
                if op.i0 + vl <= -r or op.i0 >= bi + r:
                    raise CodegenError(f"load at i0={op.i0} reads nothing")
                defined.add(op.dst)
            elif isinstance(op, Shift):
                if not 0 < op.amount < vl:
                    raise CodegenError(f"shift amount {op.amount} not in (0,{vl})")
                require_defined(idx, "shift", (op.lo, op.hi))
                defined.add(op.dst)
            elif isinstance(op, Init):
                defined.add(op.dst)
            elif isinstance(op, Add):
                require_defined(idx, "add", (op.a, op.b))
                defined.add(op.dst)
            elif isinstance(op, Mac):
                if op.dst not in defined:
                    raise CodegenError(f"mac into uninitialised register {op.dst}")
                if op.src not in defined:
                    raise CodegenError(f"mac from undefined register {op.src}")
            elif isinstance(op, Store):
                if op.src not in defined:
                    raise CodegenError(f"store of undefined register {op.src}")
                if not (0 <= op.k < bk and 0 <= op.j < bj and 0 <= op.v < self.nvec):
                    raise CodegenError(f"store outside tile: {op}")
                key = (op.k, op.j, op.v)
                if key in stored:
                    raise CodegenError(f"output vector {key} stored twice")
                stored.add(key)
            else:  # pragma: no cover - defensive
                raise CodegenError(f"unknown op {op!r}")
        expected = bk * bj * self.nvec
        if len(stored) != expected:
            raise CodegenError(
                f"program stores {len(stored)} output vectors, expected {expected}"
            )

    def max_live_registers(self) -> int:
        """Peak number of simultaneously-live virtual registers.

        A proxy for the register pressure of the generated kernel,
        computed once per program (see :func:`_peak_live`).
        """
        if self._registers is None:
            self._registers = _peak_live(self.ops)
        return self._registers

    def pretty(self, limit: int | None = None) -> str:
        """Human-readable listing (used by tests and the emitters)."""
        lines = [
            f"; {self.strategy} program tile={self.tile} r={self.radius} vl={self.vl}"
        ]
        ops = self.ops if limit is None else self.ops[:limit]
        for op in ops:
            if isinstance(op, Load):
                lines.append(
                    f"  {op.dst:>10} = load[{op.kind}] row({op.k},{op.j}) i0={op.i0}"
                )
            elif isinstance(op, Shift):
                lines.append(
                    f"  {op.dst:>10} = shift({op.lo}, {op.hi}, {op.amount})"
                )
            elif isinstance(op, Init):
                lines.append(f"  {op.dst:>10} = 0")
            elif isinstance(op, Add):
                lines.append(f"  {op.dst:>10} = {op.a} + {op.b}")
            elif isinstance(op, Mac):
                lines.append(f"  {op.dst:>10} += ({op.coeff!r}) * {op.src}")
            elif isinstance(op, Store):
                lines.append(f"  out({op.k},{op.j})[{op.v}] = {op.src}")
        if limit is not None and len(self.ops) > limit:
            lines.append(f"  ... {len(self.ops) - limit} more ops")
        return "\n".join(lines)


def _peak_live(ops: Sequence[Op]) -> int:
    """Peak live-register count of ``ops``, by one interval count.

    A register is live from its first touch (definition or use) through
    its last use, where the destination of a ``Mac`` or ``Init`` counts
    as a use.  A definition after the register's last use (including
    every definition of a register that is never used) is live at that
    op only.  Each live interval adds +1/-1 to a difference array; the
    peak is its maximum prefix sum.
    """
    first: Dict[str, int] = {}
    last: Dict[str, int] = {}
    defs: List[Tuple[str, int]] = []
    for idx, op in enumerate(ops):
        defined: Optional[str] = None
        uses: Tuple[str, ...] = ()
        if isinstance(op, Load):
            defined = op.dst
        elif isinstance(op, Shift):
            defined, uses = op.dst, (op.lo, op.hi)
        elif isinstance(op, Add):
            defined, uses = op.dst, (op.a, op.b)
        elif isinstance(op, Mac):
            uses = (op.src, op.dst)
        elif isinstance(op, Init):
            uses = (op.dst,)  # a use, so never a definition after the last use
        elif isinstance(op, Store):
            uses = (op.src,)
        if defined is not None:
            defs.append((defined, idx))
            first.setdefault(defined, idx)
        for reg in uses:
            last[reg] = idx
            first.setdefault(reg, idx)
    diff = [0] * (len(ops) + 1)
    for reg, start in first.items():
        end = last.get(reg, -1)
        if end >= start:
            diff[start] += 1
            diff[end + 1] -= 1
    for reg, idx in defs:
        if idx > last.get(reg, -1):
            diff[idx] += 1
            diff[idx + 1] -= 1
    return max(accumulate(diff))
