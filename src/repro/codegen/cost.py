"""Static cost model over vector programs.

Counts, per tile, the quantities the GPU simulator and the L1 analysis
(paper Figure 4) consume: vector load instructions by kind, shuffle
count, FMA count, store count, instruction FLOPs, and register pressure.
The contrast the paper reports — naive kernels moving 10x or more L1
bytes than generated code — falls out of these counts, because naive
programs issue one load per tap per output while generated programs load
each input row once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codegen.vector_ir import Add, Init, Load, Mac, Shift, Store, VectorProgram


@dataclass(frozen=True, slots=True)
class ProgramCost:
    """Per-tile static op counts for one vector program."""

    tile_points: int
    vl: int
    loads_aligned: int
    loads_halo: int
    loads_unaligned: int
    shuffles: int
    adds: int
    macs: int
    stores: int
    registers: int
    #: Useful lanes read by halo loads (halo vectors are mostly padding).
    halo_lanes: int

    @property
    def loads_total(self) -> int:
        return self.loads_aligned + self.loads_halo + self.loads_unaligned

    @property
    def flops(self) -> int:
        """Executed FLOPs per tile: Adds are 1 FLOP/lane, Macs (FMA) are 2."""
        return (self.adds + 2 * self.macs) * self.vl

    @property
    def fp_ops(self) -> int:
        """Floating-point instructions per tile (adds + FMAs)."""
        return self.adds + self.macs

    def load_lanes(self) -> int:
        """Lanes of data requested from memory per tile."""
        return (
            (self.loads_aligned + self.loads_unaligned) * self.vl + self.halo_lanes
        )

    def per_point(self, field: str) -> float:
        """A count normalised per output grid point."""
        return getattr(self, field) / self.tile_points


def cost_of(program: VectorProgram) -> ProgramCost:
    """The static costs of ``program``, tallied once per program.

    A program is immutable, so the tally is kept on the instance and
    every later call returns that same :class:`ProgramCost`.
    """
    if program._cost is None:
        program._cost = _tally(program)
    return program._cost


def _tally(program: VectorProgram) -> ProgramCost:
    """Walk ``program`` and tally its static costs."""
    bk, bj, bi = program.tile
    r, vl = program.radius, program.vl
    loads = {"aligned": 0, "halo": 0, "unaligned": 0}
    halo_lanes = 0
    shuffles = adds = macs = stores = 0
    for op in program.ops:
        if isinstance(op, Load):
            loads[op.kind] += 1
            if op.kind == "halo":
                halo_lanes += r  # only the r lanes next to the tile are real
        elif isinstance(op, Shift):
            shuffles += 1
        elif isinstance(op, Add):
            adds += 1
        elif isinstance(op, Mac):
            macs += 1
        elif isinstance(op, Store):
            stores += 1
        elif isinstance(op, Init):
            pass
    return ProgramCost(
        tile_points=bk * bj * bi,
        vl=vl,
        loads_aligned=loads["aligned"],
        loads_halo=loads["halo"],
        loads_unaligned=loads["unaligned"],
        shuffles=shuffles,
        adds=adds,
        macs=macs,
        stores=stores,
        registers=program.max_live_registers(),
        halo_lanes=halo_lanes,
    )
