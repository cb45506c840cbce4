"""Analytic memory-traffic model.

Derives, for one kernel sweep over the full domain, the bytes moved at
the HBM and L1 levels.  The HBM model is first-principles where the
mechanism is known:

* compulsory traffic — every input point (plus the stencil halo) read
  once, every output written once;
* the *layer condition* — re-reads when the last-level cache cannot hold
  the planes shared between consecutive tile slabs in the slowest
  dimension (this is what penalises the 8 MB-L2 MI250X on array
  layouts);
* residual compiler/layout amplification from the platform's
  :class:`~repro.gpu.progmodel.VariantProfile` (documented calibration).

The L1 model prices each vector-IR load/store as coalescing sectors —
naive kernels issuing one load per tap per output produce the >=10x L1
traffic of the paper's Figure 4 mechanically.

The model is written once for both engines: :func:`traffic_config`
folds everything constant across one (kernel, platform, variant) into a
:class:`TrafficConfig`, and :func:`traffic_terms` evaluates the
per-point formula.  The formula uses only arithmetic operators and
``abs`` (no branches), so it gives the same bits on Python numbers
(:func:`estimate_traffic`, one point) and on NumPy ``int64``/``float64``
columns (the batch engine, a config's fields gathered per point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from repro.codegen.cost import ProgramCost
from repro.dsl.analysis import FP64_BYTES
from repro.dsl.stencil import Stencil
from repro.errors import SimulationError
from repro.gpu.arch import GPUArchitecture
from repro.gpu.progmodel import ModelProfile, VariantProfile
from repro.obs import get_tracer
from repro.util import ceil_div, dims_to_shape, prod

LAYOUTS = ("array", "brick")


@dataclass(frozen=True, slots=True)
class Traffic:
    """Bytes moved by one kernel sweep, by level."""

    hbm_read_bytes: float
    hbm_write_bytes: float
    l1_bytes: float
    load_sectors: float
    store_sectors: float
    #: Bytes re-read because the layer condition failed (diagnostic).
    reuse_miss_bytes: float

    @property
    def hbm_total_bytes(self) -> float:
        return self.hbm_read_bytes + self.hbm_write_bytes


@dataclass(frozen=True)
class TrafficConfig:
    """The per-configuration constants of the traffic formula.

    Fields hold Python numbers for one configuration, or NumPy columns
    when the batch engine gathers them per point.
    """

    radius: int
    #: Input planes shared by k-adjacent tile slabs (see
    #: :func:`layer_condition_extra`).
    shared_planes: int
    tile_k: int
    #: Effective LLC capacity, bytes.
    llc_bytes: float
    read_amp: float
    write_amp: float
    #: Coalesced L1 sectors loaded / stored per tile.
    load_sectors: int
    store_sectors: int
    sector_bytes: int


def domain_shape(domain: Any) -> Tuple[Any, ...]:
    """``domain`` (dimension order) as a NumPy-order shape.

    Raises :class:`SimulationError` unless it is a tuple or list, so a
    missing domain fails like any other invalid one.
    """
    if not isinstance(domain, (tuple, list)):
        raise SimulationError(f"domain {domain!r} is not a tuple of extents")
    return dims_to_shape(domain)


def check_domain(
    domain: Tuple[int, int, int], tile_shape: Tuple[int, int, int]
) -> int:
    """Tiles covering ``domain``; both in numpy order.

    Raises :class:`SimulationError` unless the domain has three extents,
    each a positive multiple of the tile extent.
    """
    if len(domain) != 3:
        raise SimulationError(f"domain {domain} does not have 3 extents")
    if min(domain) <= 0:
        raise SimulationError(f"domain {domain} has a non-positive extent")
    if any(n % b != 0 for n, b in zip(domain, tile_shape)):
        raise SimulationError(
            f"domain {domain} is not a multiple of tile {tile_shape}"
        )
    return prod(domain) // prod(tile_shape)


def _shared_planes(layout: str, radius: int) -> int:
    return 2 * radius if layout == "array" else radius


def reread_bytes(
    ni: Any, nj: Any, n: Any, shared_planes: Any, tile_k: Any, llc_bytes: Any
) -> Any:
    """The layer-condition re-read formula of :func:`layer_condition_extra`
    for an ``ni x nj`` plane and ``n`` points, elementwise on columns."""
    working_set = ni * nj * shared_planes * FP64_BYTES
    excess = working_set - llc_bytes
    # max(excess, 0), branch-free so it runs on columns too ((x + |x|) / 2
    # is exact).  The divisor differs from the working set only for a
    # radius-0 stencil, which shares nothing: 0/1 instead of 0/0.
    miss_fraction = (excess + abs(excess)) / 2 / (working_set + (working_set == 0))
    return miss_fraction * (shared_planes / tile_k) * n * FP64_BYTES


def layer_condition_extra(
    stencil: Stencil,
    layout: str,
    tile_k: int,
    domain: Tuple[int, int, int],
    llc_effective_bytes: float,
) -> float:
    """Bytes re-read when k-adjacent tile slabs cannot share the cache.

    Consecutive slabs of tiles along the slowest dimension share ``2r``
    input planes (array layout) or the ``r`` boundary rows of each brick
    plane (brick layout — interior brick rows are never needed by a
    k-neighbour).  If that working set exceeds the effective LLC, the
    shared planes are re-fetched, adding ``miss_fraction *
    shared_planes / tile_k`` of the domain per sweep — the re-read
    volume is proportional to the planes actually shared, so in the
    deep-miss limit a brick sweep re-reads exactly half the bytes of an
    array sweep at the same radius (the
    ``brick-reread-proportional-to-shared-planes`` invariant in
    :mod:`repro.validate`).
    """
    ni, nj, nk = domain
    return reread_bytes(
        ni, nj, ni * nj * nk, _shared_planes(layout, stencil.radius),
        tile_k, llc_effective_bytes,
    )


def sector_footprint(
    vp: VariantProfile, radius: int, vl: int, sector: int
) -> Tuple[int, int, int, int]:
    """Sectors touched per (aligned load, unaligned load, halo load, store).

    The coalescing kernel of the L1 model: scalarized variants pay one
    sector per lane per access; coalesced variants pay the ceil of the
    vector (or halo) footprint in sectors, plus one boundary-crossing
    extra sector on unaligned loads.
    """
    if vp.scalarized:
        # The compiler broke coalescing: one sector per lane per access.
        return vl, vl, radius, vl
    per_aligned = ceil_div(vl * FP64_BYTES, sector)
    per_halo = ceil_div(radius * FP64_BYTES, sector)
    return per_aligned, per_aligned + 1, per_halo, per_aligned


def traffic_config(
    stencil: Stencil,
    layout: str,
    cost: ProgramCost,
    arch: GPUArchitecture,
    profile: ModelProfile,
    vp: VariantProfile,
    tile_shape: Tuple[int, int, int],
) -> TrafficConfig:
    """Fold one configuration's constants (``tile_shape`` in numpy order)."""
    if layout not in LAYOUTS:
        raise SimulationError(f"unknown layout '{layout}'; known: {LAYOUTS}")
    r = stencil.radius
    per_aligned, per_unaligned, per_halo, per_store = sector_footprint(
        vp, r, cost.vl, arch.sector_bytes
    )
    return TrafficConfig(
        radius=r,
        shared_planes=_shared_planes(layout, r),
        tile_k=tile_shape[0],
        llc_bytes=arch.llc_bytes * profile.llc_utilization,
        read_amp=vp.read_amp,
        write_amp=vp.write_amp,
        load_sectors=(
            cost.loads_aligned * per_aligned
            + cost.loads_unaligned * per_unaligned
            + cost.loads_halo * per_halo
        ),
        store_sectors=cost.stores * per_store,
        sector_bytes=arch.sector_bytes,
    )


def traffic_terms(c: TrafficConfig, ni: Any, nj: Any, nk: Any, ntiles: Any) -> Traffic:
    """The per-point traffic formula over an ``(ni, nj, nk)`` domain of
    ``ntiles`` tiles; fields are columns when the inputs are."""
    r = c.radius
    n = ni * nj * nk
    # ---- HBM ----------------------------------------------------------
    write = n * FP64_BYTES * c.write_amp
    compulsory = (ni + 2 * r) * (nj + 2 * r) * (nk + 2 * r) * FP64_BYTES
    extra = reread_bytes(ni, nj, n, c.shared_planes, c.tile_k, c.llc_bytes)
    read = (compulsory + extra) * c.read_amp
    # ---- L1 -------------------------------------------------------------
    load_sectors = ntiles * c.load_sectors
    store_sectors = ntiles * c.store_sectors
    return Traffic(
        hbm_read_bytes=read,
        hbm_write_bytes=write,
        l1_bytes=(load_sectors + store_sectors) * c.sector_bytes,
        load_sectors=load_sectors,
        store_sectors=store_sectors,
        reuse_miss_bytes=extra,
    )


def estimate_traffic(
    stencil: Stencil,
    layout: str,
    cost: ProgramCost,
    domain: Tuple[int, int, int],
    arch: GPUArchitecture,
    profile: ModelProfile,
    vp: VariantProfile,
    tile_shape: Tuple[int, int, int],
) -> Traffic:
    """Traffic for one out-of-place sweep of ``stencil`` over ``domain``.

    ``domain`` and ``tile_shape`` are in numpy order ``(nk, nj, ni)`` /
    ``(bk, bj, bi)``; ``domain`` extents must be positive tile multiples.
    """
    with get_tracer().span("traffic.estimate", layout=layout) as sp:
        config = traffic_config(stencil, layout, cost, arch, profile, vp, tile_shape)
        nk, nj, ni = domain
        traffic = traffic_terms(config, ni, nj, nk, check_domain(domain, tile_shape))
        if sp is not None:
            sp.set_attr("hbm_gb", round(traffic.hbm_total_bytes / 1e9, 3))
            sp.set_attr("l1_gb", round(traffic.l1_bytes / 1e9, 3))
    return traffic
