"""Tests for the traffic model, timing model, and their paper-shaped outputs."""

import warnings

import pytest

from repro.dsl import by_name, compulsory_bytes, star
from repro.errors import SimulationError
from repro.gpu import (
    layer_condition_extra,
    occupancy_factor,
    platform,
    simulate,
)
from repro.gpu.simulator import tile_for


def sim(name="13pt", variant="bricks_codegen", plat=("A100", "CUDA"), **kw):
    case = by_name(name)
    return simulate(case.build(), variant, platform(*plat), stencil_name=name, **kw)


class TestTraffic:
    def test_writes_are_exact(self):
        r = sim()
        assert r.traffic.hbm_write_bytes == 512**3 * 8

    def test_reads_at_least_compulsory(self):
        for name in ("7pt", "125pt"):
            for variant in ("array", "array_codegen", "bricks_codegen"):
                r = sim(name, variant)
                assert r.traffic.hbm_read_bytes >= (512 + 2 * r.cost.vl * 0) * 0 + 512**3 * 8

    def test_total_at_least_lower_bound(self):
        bound = compulsory_bytes((512, 512, 512))
        for variant in ("array", "array_codegen", "bricks_codegen"):
            r = sim(variant=variant)
            assert r.traffic.hbm_total_bytes >= bound

    def test_bricks_moves_least(self):
        arr = sim(variant="array_codegen")
        bricks = sim(variant="bricks_codegen")
        assert bricks.traffic.hbm_total_bytes < arr.traffic.hbm_total_bytes

    def test_bricks_near_lower_bound_on_a100(self):
        # Figure 5 right: bricks close to 2.15 GB.
        bound = compulsory_bytes((512, 512, 512))
        r = sim(variant="bricks_codegen")
        assert r.traffic.hbm_total_bytes < 1.25 * bound

    def test_array_codegen_a100_near_4gb(self):
        # Figure 5 right: array codegen moves closer to 4 GB.
        r = sim(variant="array_codegen")
        assert 3.5e9 < r.traffic.hbm_total_bytes < 4.5e9

    def test_hip_array_codegen_anomaly(self):
        # Figure 6 right: HIP array codegen moves more than 10 GB.
        r = sim(variant="array_codegen", plat=("MI250X", "HIP"))
        assert r.traffic.hbm_total_bytes > 10e9

    def test_domain_must_be_tile_multiple(self):
        with pytest.raises(SimulationError):
            sim(domain=(100, 100, 100))

    def test_layer_condition_binds_only_small_caches(self):
        s = star(4)
        # A100's 40 MB holds the 8 shared planes of a 512^2 slab; an 8 MB
        # L2 does not.
        assert layer_condition_extra(s, "array", 4, (512, 512, 512), 40 * 2**20) == 0.0
        assert layer_condition_extra(s, "array", 4, (512, 512, 512), 8 * 2**20) > 0.0

    def test_layer_condition_brick_needs_half_the_planes(self):
        s = star(4)
        cap = 10 * 2**20
        arr = layer_condition_extra(s, "array", 4, (512, 512, 512), cap)
        brick = layer_condition_extra(s, "brick", 4, (512, 512, 512), cap)
        assert brick < arr

    def test_layer_condition_reread_proportional_to_shared_planes(self):
        # Regression: the re-read volume must scale with the planes a
        # layout actually shares (2r array, r brick), not a hardcoded
        # 2r for both.  In the deep-miss limit (zero effective LLC, miss
        # fraction 1 for both layouts) brick re-reads exactly half.
        for radius in (1, 2, 4):
            s = star(radius)
            arr = layer_condition_extra(s, "array", 4, (512, 512, 512), 0.0)
            brick = layer_condition_extra(s, "brick", 4, (512, 512, 512), 0.0)
            assert arr > 0
            assert brick == pytest.approx(arr / 2)
            # Closed form: miss_fraction 1 -> shared/tile_k of the domain.
            assert arr == pytest.approx((2 * radius / 4) * 512**3 * 8)

    def test_layer_condition_brick_threshold_sits_at_r_planes(self):
        # A cache holding the r brick boundary planes but not the 2r
        # array planes separates the layouts at the threshold too.
        s = star(2)
        ws_brick = 512 * 512 * 2 * 8  # nj * ni * r * FP64
        cap = ws_brick * 1.5
        assert layer_condition_extra(s, "brick", 4, (512, 512, 512), cap) == 0.0
        assert layer_condition_extra(s, "array", 4, (512, 512, 512), cap) > 0.0

    def test_radius_zero_shares_no_planes_in_either_engine(self):
        # A pointwise stencil has an empty layer-condition working set:
        # no re-reads even with no cache, and the batch engine must not
        # divide by that empty set.
        from repro.dsl.coeffs import Coeff
        from repro.dsl.stencil import Stencil
        from repro.gpu import BatchPoint, simulate_batch

        s = Stencil("out", "in", 3, taps={(0, 0, 0): Coeff.const(1.0)})
        assert layer_condition_extra(s, "array", 4, (512, 512, 512), 0.0) == 0.0
        plat = platform("MI250X", "HIP")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (batch,) = simulate_batch(
                [BatchPoint(s, "array", plat, (64, 64, 64))],
                check_invariants=False,
            )
        assert batch == simulate(s, "array", plat, (64, 64, 64))
        assert batch.traffic.reuse_miss_bytes == 0.0

    def test_l1_gap_naive_vs_codegen(self):
        # Figure 4: array moves 10x or more L1 bytes vs codegen variants.
        naive = sim("27pt", "array")
        codegen = sim("27pt", "array_codegen")
        assert naive.traffic.l1_bytes / codegen.traffic.l1_bytes >= 5.0
        naive125 = sim("125pt", "array")
        codegen125 = sim("125pt", "array_codegen")
        assert naive125.traffic.l1_bytes / codegen125.traffic.l1_bytes >= 10.0

    def test_scalarized_l1_blowup(self):
        coalesced = sim("13pt", "array", plat=("A100", "CUDA"))
        scalar = sim("13pt", "array", plat=("A100", "SYCL"))
        assert scalar.traffic.l1_bytes > 2.0 * coalesced.traffic.l1_bytes


class TestTiming:
    def test_unknown_vendor_is_a_simulation_error(self):
        from repro.gpu.timing import SHUFFLE_CYCLES, shuffle_cycles_for

        with pytest.raises(SimulationError) as exc:
            shuffle_cycles_for("TransmetaGPU")
        # The error names the offender and the supported vendors.
        assert "TransmetaGPU" in str(exc.value)
        for vendor in SHUFFLE_CYCLES:
            assert vendor in str(exc.value)
            assert shuffle_cycles_for(vendor) == SHUFFLE_CYCLES[vendor]

    def test_occupancy_factor(self):
        assert occupancy_factor(10, 64) == 1.0
        assert occupancy_factor(64, 64) == 1.0
        assert occupancy_factor(256, 64) == pytest.approx(0.5)

    def test_breakdown_total_at_least_max_term(self):
        r = sim("125pt", "bricks_codegen")
        t = r.timing
        assert t.total >= max(t.t_hbm, t.t_l1, t.t_fp)
        assert t.total >= t.t_hbm + t.t_shuffle + t.t_issue

    def test_memory_bound_small_stencils(self):
        assert sim("7pt").timing.bottleneck == "hbm"

    def test_fp_bound_125pt_on_a100(self):
        # Table 3's 125pt row: high-AI stencils leave the bandwidth roof.
        r = sim("125pt", "bricks_codegen")
        assert r.timing.t_fp > r.timing.t_hbm

    def test_sycl_naive_issue_dominated(self):
        r = sim("125pt", "array", plat=("A100", "SYCL"))
        assert r.timing.bottleneck == "issue"

    def test_time_positive_and_finite(self):
        for name in ("7pt", "125pt"):
            for variant in ("array", "array_codegen", "bricks_codegen"):
                r = sim(name, variant)
                assert 0 < r.time_s < 1.0  # under a second per sweep


class TestPaperHeadlines:
    """The qualitative claims of Section 5.1, as assertions."""

    @pytest.mark.parametrize(
        "plat", [("A100", "CUDA"), ("A100", "SYCL"), ("MI250X", "HIP"),
                 ("MI250X", "SYCL"), ("PVC", "SYCL")]
    )
    def test_bricks_codegen_fastest_everywhere(self, plat):
        for name in ("7pt", "13pt", "27pt", "125pt"):
            times = {
                v: sim(name, v, plat).time_s
                for v in ("array", "array_codegen", "bricks_codegen")
            }
            assert times["bricks_codegen"] <= times["array"]
            assert times["bricks_codegen"] <= times["array_codegen"] * 1.001

    def test_bricks_ai_beats_array_codegen_everywhere(self):
        # Bricks' layout always beats the array layout under the same
        # code generator (the paper's controlled comparison).
        for plat in (("A100", "CUDA"), ("A100", "SYCL"), ("MI250X", "HIP"),
                     ("MI250X", "SYCL"), ("PVC", "SYCL")):
            for name in ("7pt", "125pt"):
                bricks = sim(name, "bricks_codegen", plat).arithmetic_intensity
                arr = sim(name, "array_codegen", plat).arithmetic_intensity
                assert bricks > arr

    def test_bricks_highest_ai_on_a100_and_pvc(self):
        # Paper Section 5.1: bricks codegen attains the highest AI across
        # all kernels on the A100 and PVC.
        for plat in (("A100", "CUDA"), ("PVC", "SYCL")):
            for name in ("7pt", "125pt"):
                ais = {
                    v: sim(name, v, plat).arithmetic_intensity
                    for v in ("array", "array_codegen", "bricks_codegen")
                }
                assert ais["bricks_codegen"] == max(ais.values())

    def test_sycl_array_collapse_on_a100(self):
        # 13x-26x codegen improvement under SYCL on A100.
        naive = sim("125pt", "array", ("A100", "SYCL"))
        bricks = sim("125pt", "bricks_codegen", ("A100", "SYCL"))
        assert naive.time_s / bricks.time_s > 15.0

    def test_cuda_array_gap_is_modest(self):
        # On CUDA the same gap is small (<= ~2.5x).
        naive = sim("13pt", "array", ("A100", "CUDA"))
        bricks = sim("13pt", "bricks_codegen", ("A100", "CUDA"))
        assert naive.time_s / bricks.time_s < 2.5

    def test_custom_tile_override(self):
        plat = platform("A100", "CUDA")
        default = tile_for(plat)
        assert default.dims == (32, 4, 4)
        r = simulate(by_name("7pt").build(), "bricks_codegen", plat,
                     domain=(64, 64, 64))
        assert r.cost.vl == 32
