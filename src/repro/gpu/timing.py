"""Multi-resource bottleneck timing model.

A kernel's runtime is the slowest of three overlapping data streams —
HBM traffic, L1 traffic, FP64 work — plus two *non-overlapped*
serial components and a launch overhead:

* the **shuffle/exchange time**: lane-exchange sequences have exposed
  latency (a shift is two shuffles plus a select, in a dependency chain
  in front of the FMA that consumes it).  Each architecture has an
  effective cycles-per-shift cost; this term is what produces the
  paper's monotone decline of Roofline fraction with stencil radius
  (Table 3: A100 95% -> 69%, PVC 77% -> 47% across the star family,
  which grows the shift count linearly in radius while everything else
  stays near-constant per point);
* the **memory-issue time**: load/store instruction issue steals cycles
  from latency hiding; for *scalarised* variants (immature compilers on
  tiled-array kernels) every lane becomes its own address computation
  plus load, multiplying this term by ``2 * vl`` — the mechanism behind
  SYCL's 13x-26x tiled-array collapse on the A100.

FP adds/FMAs are *not* in the issue term: they live on the FP64 pipe,
modelled by ``t_fp``.  All inputs come from the traffic model and the
vector-IR cost model, scaled by the platform profile's efficiencies.
As in :mod:`repro.gpu.traffic`, :func:`timing_config` folds one
configuration's constants and :func:`timing_terms` is the per-point
formula shared by :func:`kernel_time` and the batch engine.

Register pressure enters as an occupancy factor: once the generated
kernel's peak live registers exceed the profile's budget, fewer threads
are resident, latency hiding degrades, and achieved bandwidth falls off
as ``sqrt(budget / registers)`` (a smooth proxy for the discrete
occupancy cliffs of real hardware).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.codegen.cost import ProgramCost
from repro.errors import SimulationError
from repro.gpu.arch import GPUArchitecture
from repro.gpu.progmodel import ModelProfile, VariantProfile
from repro.gpu.traffic import Traffic

#: Fixed per-tile instruction overhead (index arithmetic, adjacency
#: lookup, loop bookkeeping) in warp instructions.
TILE_OVERHEAD_INSTRS = 24

#: Effective exposed cycles per lane-shift, per vendor.  NVIDIA executes
#: __shfl as one instruction but the two-shuffle+select chain in front of
#: each FMA exposes ~3 cycles; CDNA2 lowers shifts to single cheap DPP /
#: permute ops; PVC's sub-group shuffles lower to multi-instruction
#: cross-lane sequences (~2.5 effective cycles per shift at its lower
#: core count).  Calibrated against Table 3's radius sweeps.
SHUFFLE_CYCLES = {
    "NVIDIA": 3.0,
    "AMD": 1.0,
    "Intel": 2.5,
    # CPU lane shifts are in-register valign/ext instructions: cheap.
    "IntelCPU": 0.5,
    "ArmCPU": 0.5,
}


def shuffle_cycles_for(vendor: str) -> float:
    """Exposed cycles per lane-shift for ``vendor``.

    Unknown vendors are a configuration error, not a lookup accident:
    callers get a :class:`SimulationError` naming the supported vendors
    instead of a bare ``KeyError``.
    """
    try:
        return SHUFFLE_CYCLES[vendor]
    except KeyError:
        raise SimulationError(
            f"no shuffle-cost calibration for vendor '{vendor}'; "
            f"known vendors: {sorted(SHUFFLE_CYCLES)}"
        ) from None


def occupancy_factor(registers: int, reg_budget: int) -> float:
    """Bandwidth-scaling factor for register pressure (<= 1)."""
    if registers <= reg_budget:
        return 1.0
    return (reg_budget / registers) ** 0.5


@dataclass(frozen=True, slots=True)
class TimingBreakdown:
    """Per-resource times for one kernel sweep (seconds)."""

    t_hbm: float
    t_l1: float
    t_fp: float
    t_shuffle: float
    t_issue: float
    launch_overhead: float
    occupancy: float

    @property
    def total(self) -> float:
        """Shuffles and memory-instruction issue serialise with the HBM
        chain (they sit in the load-align-consume dependency path), while
        an FP64- or L1-bound kernel hides them under its longer stream.
        """
        return (
            max(self.t_hbm + self.t_shuffle + self.t_issue, self.t_l1, self.t_fp)
            + self.launch_overhead
        )

    @property
    def bottleneck(self) -> str:
        """Name of the largest single component."""
        terms = {
            "hbm": self.t_hbm,
            "l1": self.t_l1,
            "fp64": self.t_fp,
            "shuffle": self.t_shuffle,
            "issue": self.t_issue,
        }
        return max(terms, key=terms.get)


@dataclass(frozen=True)
class TimingConfig:
    """The per-configuration constants of the timing formula: per-tile
    work and the rate each resource retires it at.

    Fields hold Python numbers for one configuration, or NumPy columns
    when the batch engine gathers them per point.
    """

    occupancy: float
    #: HBM stream: empirical ceiling x variant efficiency x occupancy.
    hbm_bw: float
    l1_bw: float
    flops_per_tile: int
    fp_rate: float
    shuffles_per_tile: int
    shuffle_cycles: float
    cycle_rate: float
    #: Memory instructions (loads + stores) plus the per-tile overhead.
    instrs_per_tile: int
    issue_rate: float
    launch_overhead: float


def timing_config(
    arch: GPUArchitecture,
    profile: ModelProfile,
    vp: VariantProfile,
    cost: ProgramCost,
) -> TimingConfig:
    """Fold one configuration's constants."""
    occ = occupancy_factor(cost.registers, profile.reg_budget)
    mem_instr = cost.loads_total + cost.stores
    if vp.scalarized:
        mem_instr *= cost.vl * vp.scalarized_slots
    return TimingConfig(
        occupancy=occ,
        hbm_bw=arch.hbm_bw * profile.mixbench_bw_frac * vp.bw_frac * occ,
        l1_bw=arch.l1_bw * vp.l1_frac * occ,
        flops_per_tile=cost.flops,
        fp_rate=arch.peak_fp64 * profile.mixbench_fp_frac * vp.fp_eff,
        shuffles_per_tile=cost.shuffles,
        shuffle_cycles=shuffle_cycles_for(arch.vendor),
        cycle_rate=arch.num_cus * arch.clock_ghz * 1e9,
        instrs_per_tile=mem_instr + TILE_OVERHEAD_INSTRS,
        issue_rate=arch.issue_rate * vp.issue_eff * occ,
        launch_overhead=profile.launch_overhead_s,
    )


def timing_terms(c: TimingConfig, traffic: Traffic, ntiles: Any) -> TimingBreakdown:
    """The per-point timing formula; fields are columns when the inputs are.

    FP64: grouped codegen executes ~points+groups FLOPs per point;
    scatter executes 2*points (per-tap FMAs).  Either way the surplus
    over the paper's normalised minimum is what pulls high-AI stencils
    below the Roofline (Table 3's 125pt row).  The shuffle/exchange
    latency is exposed, serial with the data streams.
    """
    return TimingBreakdown(
        t_hbm=traffic.hbm_total_bytes / c.hbm_bw,
        t_l1=traffic.l1_bytes / c.l1_bw,
        t_fp=c.flops_per_tile * ntiles / c.fp_rate,
        t_shuffle=c.shuffles_per_tile * ntiles * c.shuffle_cycles / c.cycle_rate,
        t_issue=ntiles * c.instrs_per_tile / c.issue_rate,
        launch_overhead=c.launch_overhead,
        occupancy=c.occupancy,
    )


def kernel_time(
    arch: GPUArchitecture,
    profile: ModelProfile,
    vp: VariantProfile,
    traffic: Traffic,
    cost: ProgramCost,
    ntiles: int,
) -> TimingBreakdown:
    """Estimate one sweep's runtime from traffic + static op counts."""
    return timing_terms(timing_config(arch, profile, vp, cost), traffic, ntiles)
