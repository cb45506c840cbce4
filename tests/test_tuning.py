"""Tests for the autotuner."""

import pytest

from repro import dsl, gpu
from repro.errors import SimulationError
from repro.exec import RetryPolicy
from repro.tuning import Autotuner, TuningPoint, TuningSpace


class TestTuningSpace:
    def test_candidates_are_valid(self):
        space = TuningSpace()
        for pt in space.candidates(32, radius=4, domain=(512, 512, 512)):
            assert min(pt.dims) >= 4
            assert pt.vector_length > 4
            assert pt.strategy in ("gather", "scatter")
            assert pt.ordering in ("lex", "morton")

    def test_radius_prunes(self):
        space = TuningSpace(jk_extents=(2, 4, 8))
        n_r1 = space.size(32, 1, (512, 512, 512))
        n_r4 = space.size(32, 4, (512, 512, 512))
        assert n_r4 < n_r1  # jk extent 2 cannot cover a radius-4 halo

    def test_domain_prunes(self):
        space = TuningSpace(i_extents=(32, 48))
        pts = list(space.candidates(32, 1, (64, 64, 64)))
        assert all(p.dims[0] == 32 for p in pts)  # 48 does not divide 64

    def test_bad_radius(self):
        with pytest.raises(SimulationError):
            list(TuningSpace().candidates(32, 0, (64, 64, 64)))

    def test_labels_unique(self):
        space = TuningSpace()
        pts = list(space.candidates(32, 2, (512, 512, 512)))
        assert len({p.label() for p in pts}) == len(pts)


class TestAutotuner:
    @pytest.fixture(scope="class")
    def tuner(self):
        # A reduced space keeps the suite fast.
        return Autotuner(
            space=TuningSpace(
                i_extents=(32, 64), jk_extents=(4, 8), orderings=("lex",)
            )
        )

    def test_tune_returns_best(self, tuner):
        s = dsl.by_name("13pt").build()
        out = tuner.tune(s, gpu.platform("A100", "CUDA"), stencil_name="13pt")
        assert out.best_time_s == min(t for _, t in out.ranking)
        assert out.ranking[0][0] == out.best

    def test_best_at_least_default(self, tuner):
        s = dsl.by_name("13pt").build()
        plat = gpu.platform("A100", "CUDA")
        out = tuner.tune(s, plat)
        default = gpu.simulate(s, "bricks_codegen", plat)
        assert out.best_time_s <= default.time_s * 1.0001

    def test_cache(self, tuner):
        s = dsl.by_name("7pt").build()
        plat = gpu.platform("PVC", "SYCL")
        before = tuner.cache_size()
        a = tuner.tune(s, plat)
        mid = tuner.cache_size()
        b = tuner.tune(s, plat)
        assert mid == before + 1 and tuner.cache_size() == mid
        assert a is b

    def test_speedup_over(self, tuner):
        s = dsl.by_name("27pt").build()
        out = tuner.tune(s, gpu.platform("MI250X", "HIP"))
        worst = out.ranking[-1][0]
        assert out.speedup_over(worst) >= 1.0
        with pytest.raises(SimulationError):
            out.speedup_over(TuningPoint((2, 2, 2), 2, "gather"))

    def test_empty_space_rejected(self):
        tuner = Autotuner(space=TuningSpace(i_extents=(48,)))
        with pytest.raises(SimulationError, match="empty"):
            tuner.tune(dsl.by_name("7pt").build(), gpu.platform("A100", "CUDA"),
                       domain=(64, 64, 64))


class TestBatchModeMatchesScalar:
    """Batch mode ranks off the frame's ``time_s`` column and builds only
    the winner's row; the outcome must be the scalar engine's exactly."""

    SPACE = TuningSpace(i_extents=(32, 64), jk_extents=(4, 8), orderings=("lex",))

    @pytest.mark.parametrize(
        "name, arch, model",
        [("7pt", "A100", "CUDA"), ("13pt", "MI250X", "HIP"),
         ("27pt", "PVC", "SYCL"), ("125pt", "A100", "CUDA")],
    )
    def test_outcome_identical(self, name, arch, model):
        stencil = dsl.by_name(name).build()
        plat = gpu.platform(arch, model)
        batch = Autotuner(space=self.SPACE).tune(
            stencil, plat, domain=(128, 64, 64), stencil_name=name
        )
        # A retry policy forces the per-candidate scalar engine.
        scalar = Autotuner(space=self.SPACE).tune(
            stencil, plat, domain=(128, 64, 64), stencil_name=name,
            policy=RetryPolicy(retries=0, backoff_s=0.0),
        )
        assert len(batch.ranking) > 1
        assert batch.best == scalar.best
        assert batch.ranking == scalar.ranking
        assert [t.hex() for _, t in batch.ranking] == [
            t.hex() for _, t in scalar.ranking
        ]
        assert batch.best_result == scalar.best_result
        assert batch.best_time_s.hex() == scalar.best_time_s.hex()
        assert batch == scalar
