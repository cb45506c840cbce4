"""The GPU kernel simulator: one call = one profiled kernel sweep.

``simulate`` wires the whole stack together for a single (stencil,
variant, platform) point of the paper's evaluation matrix:

1. resolve the variant's layout and codegen strategy and the
   architecture's brick/tile shape (``4 x 4 x SIMD_width``) and vector
   length (paper Section 4.4);
2. run the vector code generator (naive for the plain ``array`` variant,
   auto gather/scatter for the codegen variants);
3. cost the generated program, check the domain against the tile and
   feed both to the traffic model;
4. evaluate the bottleneck timing model;
5. assemble the result and, when asked, assert its invariants.

The batch engine (:mod:`repro.gpu.batch`) shares every step: it calls
:func:`resolve`, the same traffic and timing formulas (on columns) and
:func:`assemble`.

The result carries everything the paper's figures need: normalised
FLOPs, HBM and L1 bytes, runtime, and the diagnostic breakdowns.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple

from repro.bricks.layout import BrickDims
from repro.codegen.cost import ProgramCost, cost_of
from repro.codegen.generator import CodegenOptions, generate
from repro.dsl.analysis import total_flops
from repro.dsl.stencil import Stencil
from repro.errors import SimulationError, ValidationError
from repro.gpu.progmodel import VARIANTS, Platform
from repro.gpu.timing import TimingBreakdown, kernel_time
from repro.gpu.traffic import Traffic, check_domain, domain_shape, estimate_traffic
from repro.obs import counter, span

#: Variant -> (data layout, codegen strategy).
VARIANT_CONFIG = {
    "array": ("array", "naive"),
    "array_codegen": ("array", "auto"),
    "bricks_codegen": ("brick", "auto"),
}

#: Environment switch for the opt-in per-result invariant check: any
#: non-empty value other than "0" turns it on (the chaos/bench gates
#: export it so every simulated point is asserted physically sane).
VALIDATE_ENV = "REPRO_VALIDATE"


def _validate_enabled(check_invariants: bool | None) -> bool:
    if check_invariants is not None:
        return check_invariants
    return os.environ.get(VALIDATE_ENV, "0") not in ("", "0")


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """Profile of one simulated kernel sweep."""

    platform: Platform
    variant: str
    stencil_name: str
    domain: Tuple[int, int, int]  # dim order (ni, nj, nk)
    flops: int  # normalised (minimum) FLOP count, paper Section 4.4
    traffic: Traffic
    timing: TimingBreakdown
    cost: ProgramCost
    strategy: str

    @property
    def time_s(self) -> float:
        return self.timing.total

    @property
    def gflops(self) -> float:
        """Normalised performance in GFLOP/s (the paper's y-axis)."""
        return self.flops / self.time_s / 1e9

    @property
    def arithmetic_intensity(self) -> float:
        """Empirical AI: normalised FLOPs over measured HBM bytes."""
        return self.flops / self.traffic.hbm_total_bytes

    @property
    def hbm_gbytes(self) -> float:
        return self.traffic.hbm_total_bytes / 1e9

    @property
    def l1_gbytes(self) -> float:
        return self.traffic.l1_bytes / 1e9

    def describe(self) -> str:
        return (
            f"{self.stencil_name:>6} {self.variant:>14} on {self.platform.name:>11}: "
            f"{self.gflops:8.1f} GF/s  AI={self.arithmetic_intensity:6.3f}  "
            f"HBM={self.hbm_gbytes:6.2f} GB  L1={self.l1_gbytes:7.2f} GB  "
            f"[{self.timing.bottleneck}-bound]"
        )


def tile_for(platform: Platform) -> BrickDims:
    """The paper's architecture-specific tile/brick: 4 x 4 x SIMD_width."""
    return BrickDims((platform.arch.simd_width, 4, 4))


def resolve(
    variant: str,
    platform: Platform,
    dims: BrickDims | None = None,
    vector_length: int | None = None,
) -> Tuple[str, str, BrickDims, int]:
    """A point's ``(layout, strategy, tile, vector length)``.

    ``dims`` / ``vector_length`` default to the architecture's; custom
    tiles narrower than the SIMD width fall back to one vector per row.
    The domain half of the check is :func:`~repro.gpu.traffic.check_domain`.
    """
    if variant not in VARIANTS:
        raise SimulationError(f"unknown variant '{variant}'; known: {VARIANTS}")
    layout, strategy = VARIANT_CONFIG[variant]
    dims = dims or tile_for(platform)
    simd = platform.arch.simd_width
    vl = vector_length or (simd if dims.dims[0] % simd == 0 else dims.dims[0])
    return layout, strategy, dims, vl


def assemble(
    platform: Platform, variant: str, stencil_name: str,
    domain: Tuple[int, int, int], flops: int, traffic: Traffic,
    timing: TimingBreakdown, cost: ProgramCost, strategy: str, validate: bool,
) -> SimulationResult:
    """The result of one point, its invariants asserted when ``validate``.

    Violations are counted and raise :class:`~repro.errors.ValidationError`.
    """
    result = SimulationResult(
        platform, variant, stencil_name, domain, flops, traffic, timing, cost, strategy
    )
    if validate:
        # Imported lazily: repro.validate reaches back into the harness
        # for its probes, so a module-level import cycles.
        from repro.validate import check_result, render_violations

        violations = check_result(result)
        if violations:
            counter("simulate.invariant_violations").inc(len(violations))
            raise ValidationError(
                f"{len(violations)} invariant violation(s) for "
                f"{stencil_name}/{platform.name}/{variant}:\n"
                + render_violations(violations)
            )
    return result


def simulate(
    stencil: Stencil,
    variant: str,
    platform: Platform,
    domain: Tuple[int, int, int] = (512, 512, 512),
    stencil_name: str | None = None,
    dims: BrickDims | None = None,
    vector_length: int | None = None,
    check_invariants: bool | None = None,
) -> SimulationResult:
    """Simulate one kernel sweep and return its profile.

    ``domain`` is in dimension order ``(ni, nj, nk)`` and must be a
    positive multiple of the tile shape.  ``dims`` / ``vector_length``
    override the architecture defaults (used by the brick-size ablation).

    ``check_invariants`` opts into asserting every physical-sanity
    invariant of :mod:`repro.validate` against the result before it is
    returned (violations raise
    :class:`~repro.errors.ValidationError`); ``None`` defers to the
    ``REPRO_VALIDATE`` environment variable, which the chaos and bench
    gates export.
    """
    layout, strategy, dims, vl = resolve(variant, platform, dims, vector_length)
    domain_np = domain_shape(domain)
    name = stencil_name or stencil.description()
    with span(
        "simulate",
        stencil=name,
        variant=variant,
        platform=platform.name,
        domain="x".join(map(str, domain)),
    ):
        with span("codegen", strategy=strategy, vl=vl):
            program = generate(stencil, dims, CodegenOptions(vl, strategy))
        with span("cost"):
            cost = cost_of(program)
        vp = platform.profile.variant(variant)
        ntiles = check_domain(domain_np, dims.shape)
        with span("traffic", layout=layout):
            traffic = estimate_traffic(
                stencil, layout, cost, domain_np, platform.arch,
                platform.profile, vp, dims.shape,
            )
        with span("timing", ntiles=ntiles):
            timing = kernel_time(
                platform.arch, platform.profile, vp, traffic, cost, ntiles
            )
        counter("simulate.calls").inc()
        counter("simulate.tiles").inc(ntiles)
        counter("codegen.vector_ops").inc(len(program.ops))
        return assemble(
            platform, variant, name, domain, total_flops(stencil, domain),
            traffic, timing, cost, program.strategy,
            _validate_enabled(check_invariants),
        )
