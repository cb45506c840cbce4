"""Mutation tests: re-introduce each fixed bug, assert validate catches it.

Each test monkeypatches one historical bug back into the model behind
the module attribute the validation probes call through, runs the same
probe pass ``repro-stencil validate`` runs, and asserts the violation
naming that invariant appears.  This is the proof that the validation
pass catches *real* bugs, not hypothetical ones — every mutation here
shipped in this repository at some point.
"""

import pytest

from repro import dsl, gpu, validate
from repro.dsl.analysis import FP64_BYTES
from repro.errors import ValidationError
from repro.gpu import timing, traffic
from repro.harness import experiments
from repro.metrics import speedup
from repro.util import prod
from repro.validate import invariants as inv_mod


def probe_violations():
    violations, _ = inv_mod.run_probes()
    return violations


def names(violations):
    return {v.invariant for v in violations}


class TestShuffleVendorMutation:
    def test_bare_keyerror_lookup_is_flagged(self, monkeypatch):
        # The original bug: SHUFFLE_CYCLES[vendor] with no error contract.
        monkeypatch.setattr(
            timing, "shuffle_cycles_for",
            lambda vendor: timing.SHUFFLE_CYCLES[vendor],
        )
        violations = probe_violations()
        assert "unknown-vendor-error-contract" in names(violations)

    def test_wrong_exception_type_is_flagged(self, monkeypatch):
        def wrong(vendor):
            raise LookupError(f"no such vendor {vendor}")

        monkeypatch.setattr(timing, "shuffle_cycles_for", wrong)
        assert "unknown-vendor-error-contract" in names(probe_violations())


class TestLayerConditionMutation:
    def test_hardcoded_2r_reread_is_flagged(self, monkeypatch):
        # The original bug: re-read volume used 2r for both layouts even
        # though bricks only share the r boundary planes.
        def buggy(stencil, layout, tile_k, domain, llc_effective_bytes):
            ni, nj, _ = domain
            r = stencil.radius
            shared_planes = 2 * r if layout == "array" else r
            working_set = ni * nj * shared_planes * FP64_BYTES
            if working_set <= llc_effective_bytes:
                return 0.0
            miss_fraction = (working_set - llc_effective_bytes) / working_set
            n = prod(domain)
            return miss_fraction * (2 * r / tile_k) * n * FP64_BYTES

        monkeypatch.setattr(traffic, "layer_condition_extra", buggy)
        violations = probe_violations()
        assert "brick-reread-proportional-to-shared-planes" in names(violations)


class TestSpeedupBandMutation:
    def test_three_band_partition_is_flagged(self, monkeypatch):
        # The original bug: three bands where the paper annotates four.
        def buggy_band(self):
            s = self.potential_speedup
            if s <= 2.0:
                return "<=2x"
            if s <= 4.0:
                return "<=4x"
            return ">4x"

        monkeypatch.setattr(speedup.SpeedupPoint, "band", buggy_band)
        violations = probe_violations()
        assert "speedup-band-partition" in names(violations)

    def test_truncated_bands_tuple_is_flagged(self, monkeypatch):
        monkeypatch.setattr(speedup, "BANDS", ("<=2x", "<=4x", ">4x"))
        assert "speedup-band-partition" in names(probe_violations())


class TestResumeMutation:
    def test_memo_replaying_failures_is_flagged(self, monkeypatch):
        # The original bug: cached_study served a memoised *degraded*
        # study on resume=True, so checkpointed FailedPoints were
        # replayed as permanent instead of re-attempted.
        real_run_study = experiments.run_study

        def buggy_cached_study(
            config=None, *, cache_dir=None,
            retry_policy=None, fault_plan=None, resume=False,
        ):
            from repro.harness import serialization

            config = config or experiments.ExperimentConfig()
            cache_dir = experiments._resolve_cache_dir(cache_dir)
            if config not in experiments._STUDY_CACHE:
                study = None
                if cache_dir:
                    study = serialization.load_study_cache(config, cache_dir)
                if study is None:
                    study = real_run_study(
                        config, policy=retry_policy,
                        fault_plan=fault_plan, cache_dir=cache_dir,
                        resume=resume,
                    )
                experiments._STUDY_CACHE[config] = study
            return experiments._STUDY_CACHE[config]

        monkeypatch.setattr(experiments, "cached_study", buggy_cached_study)
        violations = probe_violations()
        assert "resume-reattempts-failures" in names(violations)
        flagged = [
            v for v in violations
            if v.invariant == "resume-reattempts-failures"
        ]
        assert any("replayed" in v.message for v in flagged)


def _scalar_engine(stencil, variant, plat, name):
    return gpu.simulate(
        stencil, variant, plat, stencil_name=name, check_invariants=True
    )


def _batch_engine(stencil, variant, plat, name):
    point = gpu.BatchPoint(
        stencil=stencil, variant=variant, platform=plat, stencil_name=name
    )
    return gpu.simulate_batch([point], check_invariants=True)[0]


ENGINES = (_scalar_engine, _batch_engine)


class TestResultInvariantMutations:
    """Result-level invariants catch model breakage through the
    opt-in ``check_invariants=`` hook, in both engines: each mutation
    must reach ``simulate`` and ``simulate_batch`` alike, because both
    evaluate the one model."""

    def violation_texts(self):
        texts = []
        for engine in ENGINES:
            with pytest.raises(ValidationError) as exc:
                engine(
                    dsl.by_name("13pt").build(), "bricks_codegen",
                    gpu.platform("A100", "CUDA"), "13pt",
                )
            texts.append(str(exc.value))
        return texts

    def test_occupancy_above_one_is_flagged(self, monkeypatch):
        monkeypatch.setattr(timing, "occupancy_factor", lambda r, b: 1.5)
        for text in self.violation_texts():
            assert "occupancy-is-a-fraction" in text

    def test_negative_shuffle_cost_is_flagged(self, monkeypatch):
        monkeypatch.setattr(timing, "shuffle_cycles_for", lambda vendor: -1.0)
        for text in self.violation_texts():
            assert "timing-terms-physical" in text

    def test_lost_compulsory_traffic_is_flagged(self, monkeypatch):
        monkeypatch.setattr(
            traffic, "reread_bytes",
            lambda *a, **k: -2.0e9,  # "negative re-reads" sink the total
        )
        for text in self.violation_texts():
            assert "hbm-at-least-compulsory" in text
            assert "reuse-miss-bytes-sane" in text


class TestHealthyBaseline:
    def test_no_mutation_means_no_violations(self):
        """Guards the mutation tests themselves: the probe pass must be
        clean without a mutation, or the assertions above prove nothing."""
        violations, count = inv_mod.run_probes()
        assert violations == []
        assert count >= 7
        assert validate.check_result(
            gpu.simulate(
                dsl.by_name("13pt").build(), "bricks_codegen",
                gpu.platform("A100", "CUDA"), stencil_name="13pt",
            )
        ) == []
