"""Tests for architecture descriptors and programming-model profiles."""

import pytest

from repro.errors import SimulationError
from repro.gpu import (
    A100,
    MI250X,
    PVC,
    PROFILES,
    STUDY_PLATFORMS,
    VARIANTS,
    VariantProfile,
    architecture,
    platform,
    study_platforms,
)


class TestPlatforms:
    def test_one_shared_platform_per_pair(self):
        a100 = platform("A100", "CUDA")
        assert platform("A100", "CUDA") is a100
        assert a100.name == "A100-CUDA" and a100.name is a100.name
        assert study_platforms()[0] is a100


class TestArchitectures:
    def test_paper_simd_widths(self):
        # Paper Section 4.4: vector_size 32 / 64 / 16.
        assert A100.simd_width == 32
        assert MI250X.simd_width == 64
        assert PVC.simd_width == 16

    def test_paper_peaks(self):
        # Section 4.1: ~9.77, ~24 (per GCD), ~16 (per stack) TFLOP/s.
        assert A100.peak_fp64 == pytest.approx(9.7e12, rel=0.02)
        assert MI250X.peak_fp64 == pytest.approx(24e12, rel=0.02)
        assert PVC.peak_fp64 == pytest.approx(16e12, rel=0.02)

    def test_paper_bandwidths(self):
        assert A100.hbm_bw == pytest.approx(1.5e12, rel=0.05)
        assert MI250X.hbm_bw == pytest.approx(1.6e12, rel=0.05)
        assert PVC.hbm_bw == pytest.approx(1.64e12, rel=0.05)

    def test_relative_statements(self):
        # Paper: MI250X GCD > 2x A100 peak FLOPs; PVC ~1.6x A100.
        assert MI250X.peak_fp64 / A100.peak_fp64 > 2.0
        assert PVC.peak_fp64 / A100.peak_fp64 == pytest.approx(1.6, rel=0.05)
        # PVC peak below MI250X GCD's.
        assert PVC.peak_fp64 < MI250X.peak_fp64

    def test_llc_sizes(self):
        assert A100.llc_bytes == 40 * 2**20
        assert MI250X.llc_bytes == 8 * 2**20
        assert PVC.llc_bytes == 208 * 2**20

    def test_machine_balance_ordering(self):
        # MI250X is the most compute-rich per byte.
        assert MI250X.machine_balance > PVC.machine_balance > A100.machine_balance

    def test_lookup(self):
        assert architecture("A100") is A100
        with pytest.raises(SimulationError):
            architecture("H100")


class TestProfiles:
    def test_study_platforms_are_the_papers_columns(self):
        assert STUDY_PLATFORMS == (
            ("A100", "CUDA"),
            ("A100", "SYCL"),
            ("MI250X", "HIP"),
            ("MI250X", "SYCL"),
            ("PVC", "SYCL"),
        )
        assert [p.name for p in study_platforms()] == [
            "A100-CUDA", "A100-SYCL", "MI250X-HIP", "MI250X-SYCL", "PVC-SYCL",
        ]

    def test_hip_on_a100_is_cuda_alias(self):
        # Paper Section 5.1: HIP on Perlmutter wraps the NVIDIA compiler.
        cuda = PROFILES[("A100", "CUDA")]
        hip = PROFILES[("A100", "HIP")]
        assert cuda.variants == hip.variants

    def test_all_profiles_cover_all_variants(self):
        for prof in PROFILES.values():
            for v in VARIANTS:
                assert prof.variant(v) is not None

    def test_sycl_maturity_penalties(self):
        # The naive tiled-array variant is scalarised under SYCL.
        assert PROFILES[("A100", "SYCL")].variant("array").scalarized
        assert not PROFILES[("A100", "CUDA")].variant("array").scalarized

    def test_bricks_reads_less_than_array_codegen_everywhere(self):
        # Paper: bricks codegen's AI beats array codegen's on every
        # platform (plain arrays on MI250X are a separate story — the
        # paper's own Figure 6 puts them near the traffic lower bound
        # while Table 5 puts bricks at ~62%).
        for prof in PROFILES.values():
            bricks = prof.variant("bricks_codegen").read_amp
            arr = prof.variant("array_codegen").read_amp
            assert bricks < arr

    def test_unknown_platform(self):
        with pytest.raises(SimulationError):
            platform("MI250X", "CUDA")

    def test_unknown_variant(self):
        with pytest.raises(SimulationError):
            PROFILES[("A100", "CUDA")].variant("openmp")


class TestVariantProfileValidation:
    def test_bw_frac_bounds(self):
        with pytest.raises(SimulationError):
            VariantProfile(bw_frac=0.0)
        with pytest.raises(SimulationError):
            VariantProfile(bw_frac=1.3)
        VariantProfile(bw_frac=1.1)  # slight super-mixbench is allowed

    def test_amp_bounds(self):
        with pytest.raises(SimulationError):
            VariantProfile(bw_frac=0.9, read_amp=0.5)

    def test_eff_bounds(self):
        with pytest.raises(SimulationError):
            VariantProfile(bw_frac=0.9, fp_eff=1.5)
