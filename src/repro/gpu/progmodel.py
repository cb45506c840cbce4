"""Programming-model descriptors and per-platform maturity profiles.

The paper's central observation is that the *same* kernel source behaves
very differently under different compilers: CUDA and HIP on the A100 are
identical (HIP wraps nvcc), while SYCL's code generation for plain tiled
array kernels is dramatically worse (13x-26x) until BrickLib's vector
code generator takes over instruction selection.  Real compilers are a
hardware gate for this reproduction, so each (architecture, model) pair
carries a :class:`ModelProfile` of *named, documented* efficiency
parameters.  Mechanistic effects (layer-condition cache misses, L1
transaction counts, FLOP normalisation, register pressure) come from the
simulator's first-principles models; the profile parameters encode only
the residual compiler-maturity behaviour the paper measured:

* ``bw_frac`` — fraction of the empirical (mixbench) bandwidth ceiling a
  memory-bound kernel of this variant achieves.
* ``issue_eff`` — fraction of nominal warp-issue throughput.
* ``fp_eff`` — fraction of FP64 peak for the FMA stream.
* ``read_amp`` — residual HBM read amplification (e.g. the paper's
  anomalous >10 GB moved by HIP array-codegen on MI250X).
* ``scalarized`` — the compiler failed to keep the contiguous dimension
  coalesced, so every lane becomes its own memory transaction (observed
  for SYCL tiled-array kernels on the A100).

Calibration provenance for every non-trivial number is given inline,
referencing the paper statement it reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Tuple

from repro.errors import SimulationError
from repro.gpu.arch import GPUArchitecture, architecture

#: The three kernel variants evaluated by the paper (Section 4.4).
VARIANTS = ("array", "array_codegen", "bricks_codegen")

#: Programming models in the study.
MODELS = ("CUDA", "HIP", "SYCL")


@dataclass(frozen=True)
class VariantProfile:
    """Efficiency parameters for one kernel variant under one compiler."""

    bw_frac: float
    issue_eff: float = 1.0
    fp_eff: float = 0.9
    read_amp: float = 1.0
    write_amp: float = 1.0
    scalarized: bool = False
    #: Issue slots per lane per memory access when scalarised (2 = address
    #: computation + scalar load; 1 = load only, for back ends that keep
    #: the addressing vectorised).
    scalarized_slots: int = 2
    #: Fraction of the architecture's L1 bandwidth this variant sustains
    #: (multi-stream tiled-array access patterns bank-conflict on CDNA2).
    l1_frac: float = 1.0

    def __post_init__(self) -> None:
        # bw_frac may slightly exceed 1: the mixbench ceiling is itself a
        # measured kernel, and perfectly sequential stencil streams can
        # beat its strided access pattern by a few percent.
        if not 0.0 < self.bw_frac <= 1.25:
            raise SimulationError(f"bw_frac must be in (0, 1.25], got {self.bw_frac}")
        for name in ("issue_eff", "fp_eff"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise SimulationError(f"{name} must be in (0, 1], got {v}")
        if self.read_amp < 1.0 or self.write_amp < 1.0:
            raise SimulationError("amplification factors must be >= 1")


@dataclass(frozen=True)
class ModelProfile:
    """One (architecture, programming model) pair of the study."""

    arch: str
    model: str
    #: Empirical ceiling fractions the mixbench microbenchmark attains
    #: relative to vendor peaks (paper Section 4.4 derives Rooflines from
    #: mixbench / Intel Advisor).
    mixbench_bw_frac: float
    mixbench_fp_frac: float
    #: Registers per thread beyond which occupancy (and thus achieved
    #: bandwidth) begins to drop.  NVIDIA allows 255 VGPRs at degraded
    #: occupancy; CDNA2 has a 512-VGPR file; PVC's large-GRF mode halves
    #: thread residency, which is why its fractions fall fastest with
    #: stencil radius in Table 3.
    reg_budget: int
    variants: Dict[str, VariantProfile] = field(default_factory=dict)
    #: Fraction of the LLC usable by one kernel's reuse pattern (the rest
    #: is lost to concurrent-block streaming and conflict misses).
    llc_utilization: float = 0.5
    launch_overhead_s: float = 5e-6

    def __post_init__(self) -> None:
        missing = [v for v in VARIANTS if v not in self.variants]
        if missing:
            raise SimulationError(
                f"profile {self.arch}/{self.model} missing variants {missing}"
            )

    def variant(self, name: str) -> VariantProfile:
        if name not in self.variants:
            raise SimulationError(
                f"unknown variant '{name}'; known: {sorted(self.variants)}"
            )
        return self.variants[name]


def _profiles() -> Dict[Tuple[str, str], ModelProfile]:
    table: Dict[Tuple[str, str], ModelProfile] = {}

    # ----- NVIDIA A100 + CUDA ---------------------------------------------
    # Paper: CUDA delivers the best overall performance; bricks codegen
    # reaches 95% of Roofline on the 7pt stencil, declining to 69% at
    # 25pt (Table 3) — the decline is produced by the additive
    # instruction-issue term (issue_eff calibrated to 0.48); array-codegen
    # moves ~4 GB (~2.7x the minimum read traffic) in Figure 5 (right);
    # vector codegen wins up to 1.3x (star) and 2x (cube) over arrays.
    table[("A100", "CUDA")] = ModelProfile(
        arch="A100",
        model="CUDA",
        mixbench_bw_frac=0.92,
        mixbench_fp_frac=0.95,
        reg_budget=168,
        variants={
            # naive tiled array: multi-stream access pattern costs ~25% of
            # achievable bandwidth; reads amplified by line overfetch of
            # the 16+ misaligned row streams per tile.
            "array": VariantProfile(bw_frac=0.74, read_amp=2.7),
            "array_codegen": VariantProfile(
                bw_frac=1.08, fp_eff=0.91, read_amp=2.7
            ),
            # bricks: single address stream per brick row -> near-minimal
            # traffic (Table 5: ~92% of theoretical AI).
            "bricks_codegen": VariantProfile(
                bw_frac=1.08, fp_eff=0.91, read_amp=1.18
            ),
        },
    )

    # ----- NVIDIA A100 + HIP: a wrapper over nvcc, identical by paper §5.1.
    table[("A100", "HIP")] = ModelProfile(
        arch="A100",
        model="HIP",
        mixbench_bw_frac=0.92,
        mixbench_fp_frac=0.95,
        reg_budget=168,
        variants=dict(table[("A100", "CUDA")].variants),
    )

    # ----- NVIDIA A100 + SYCL ----------------------------------------------
    # Paper: SYCL tiled-array kernels collapse (codegen improves them by
    # up to 13x star / 26x cube): the intel-llvm back end scalarises the
    # neighbour loads (scalarized=True -> per-lane sectors and per-lane
    # instructions) and sustains only ~8% of the bandwidth ceiling.
    # With vector codegen, SYCL recovers to within ~10% of CUDA but moves
    # more data than CUDA (Figure 5 right; Table 5 averages ~76% of
    # theoretical AI), hence bricks read_amp ~1.6.
    table[("A100", "SYCL")] = ModelProfile(
        arch="A100",
        model="SYCL",
        mixbench_bw_frac=0.90,
        mixbench_fp_frac=0.90,
        reg_budget=128,
        variants={
            "array": VariantProfile(
                bw_frac=0.16, issue_eff=0.42, read_amp=2.7, scalarized=True
            ),
            "array_codegen": VariantProfile(
                bw_frac=0.97, fp_eff=0.70, read_amp=3.2
            ),
            "bricks_codegen": VariantProfile(
                bw_frac=0.97, fp_eff=0.70, read_amp=1.63
            ),
        },
    )

    # ----- AMD MI250X (one GCD) + HIP ---------------------------------------
    # Paper Table 3: a strikingly flat ~66% of Roofline for bricks codegen
    # across stencils except 125pt (42%, FP-limited: fp_eff=0.48 of the
    # CDNA2 vector-FP64 peak under a mixed FMA/shuffle stream); Figure 6
    # right: HIP traffic near the 2.15 GB bound *except* array-codegen,
    # which moves >10 GB (a ROCm 5.2 code-generation pathology we encode
    # as read_amp=8.5); Table 5 puts bricks' data movement at ~62% of the
    # infinite-cache bound (read_amp=2.0 with the 8 MB L2's layer-
    # condition misses on top); codegen gains up to 1.3x star / 3x cube.
    table[("MI250X", "HIP")] = ModelProfile(
        arch="MI250X",
        model="HIP",
        mixbench_bw_frac=0.85,
        mixbench_fp_frac=0.90,
        reg_budget=512,
        llc_utilization=1.0,
        variants={
            "array": VariantProfile(bw_frac=0.40, read_amp=1.35, l1_frac=0.57),
            "array_codegen": VariantProfile(bw_frac=0.68, read_amp=8.5),
            "bricks_codegen": VariantProfile(
                bw_frac=0.68, fp_eff=0.26, read_amp=2.2
            ),
        },
    )

    # ----- AMD MI250X (one GCD) + SYCL --------------------------------------
    # Paper: DPC++ on AMD is balanced with HIP for codegen kernels
    # (Table 3: 64-68%, and 63% at 125pt -> fp_eff=0.75); naive arrays
    # are 3x (star) to 9x (cube) slower than codegen (scalarised loads);
    # Table 5: SYCL moves the most data of any platform (~48% of
    # theoretical AI), hence bricks read_amp=2.9.
    table[("MI250X", "SYCL")] = ModelProfile(
        arch="MI250X",
        model="SYCL",
        mixbench_bw_frac=0.85,
        mixbench_fp_frac=0.85,
        reg_budget=384,
        llc_utilization=0.5,
        variants={
            "array": VariantProfile(
                bw_frac=0.32, read_amp=1.9, scalarized=True, scalarized_slots=1
            ),
            "array_codegen": VariantProfile(bw_frac=0.66, read_amp=2.4),
            "bricks_codegen": VariantProfile(
                bw_frac=0.68, fp_eff=0.40, read_amp=2.2
            ),
        },
    )

    # ----- Intel PVC (one stack) + SYCL --------------------------------------
    # Paper: codegen gains up to 3x (star) / 5x (cube); Table 3 fractions
    # fall from 77% (7pt) to 47% (25pt): PVC sub-group shuffles lower to
    # multi-instruction cross-lane sequences (SHUFFLE_COST), so the issue
    # term grows with radius; 125pt lands at 23% (fp_eff=0.33 — FP64 on
    # early PVC silicon sustains a third of peak under FMA+shuffle mixes).
    # Table 5 shows PVC moving near-minimal data (91%+), hence
    # read_amp=1.16.
    table[("PVC", "SYCL")] = ModelProfile(
        arch="PVC",
        model="SYCL",
        mixbench_bw_frac=0.85,
        mixbench_fp_frac=0.85,
        reg_budget=64,
        variants={
            "array": VariantProfile(
                bw_frac=0.35, issue_eff=0.75, read_amp=1.6, scalarized=True,
                scalarized_slots=1
            ),
            "array_codegen": VariantProfile(
                bw_frac=0.95, issue_eff=0.75, fp_eff=0.35, read_amp=1.35
            ),
            "bricks_codegen": VariantProfile(
                bw_frac=0.95, issue_eff=0.75, fp_eff=0.35, read_amp=1.16
            ),
        },
    )
    return table


PROFILES: Dict[Tuple[str, str], ModelProfile] = _profiles()

#: The five (architecture, model) pairs of the paper's portability tables,
#: in the papers' column order.
STUDY_PLATFORMS: Tuple[Tuple[str, str], ...] = (
    ("A100", "CUDA"),
    ("A100", "SYCL"),
    ("MI250X", "HIP"),
    ("MI250X", "SYCL"),
    ("PVC", "SYCL"),
)


@dataclass(frozen=True)
class Platform:
    """An (architecture, programming model) execution target."""

    arch: GPUArchitecture
    profile: ModelProfile

    @cached_property
    def name(self) -> str:
        return f"{self.arch.name}-{self.profile.model}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: One shared :class:`Platform` per (architecture, model), so every
#: result of every study references the same instance (and name string).
_PLATFORMS: Dict[Tuple[str, str], Platform] = {}


def platform(arch_name: str, model: str) -> Platform:
    """The shared :class:`Platform` for one (architecture, model) pair."""
    key = (arch_name, model)
    shared = _PLATFORMS.get(key)
    if shared is None:
        if key not in PROFILES:
            raise SimulationError(
                f"unsupported platform {arch_name}/{model}; supported: "
                f"{sorted(PROFILES)}"
            )
        shared = _PLATFORMS[key] = Platform(
            arch=architecture(arch_name), profile=PROFILES[key]
        )
    return shared


def study_platforms() -> Tuple[Platform, ...]:
    """The paper's five platform columns, in order."""
    return tuple(platform(a, m) for a, m in STUDY_PLATFORMS)
