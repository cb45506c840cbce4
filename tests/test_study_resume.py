"""Checkpoint/resume: an interrupted sweep finishes with zero rework.

With a cache directory, ``run_study`` flushes completed points to an
atomic checkpoint as it goes; ``resume=True`` preloads that checkpoint
so only the missing points are re-simulated.  A completed sweep clears
its checkpoint (the full-study disk cache takes over from there).
"""

import pickle

import pytest

from repro import harness, obs
from repro.harness import serialization
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy

#: 6-point sweep: 2 stencils x 1 platform x 3 variants, sweep order
#: 7pt/array, 7pt/array_codegen, 7pt/bricks_codegen, then 13pt likewise.
CONFIG = harness.ExperimentConfig(
    stencils=("7pt", "13pt"),
    domain=(64, 64, 64),
    platform_filter=("A100-CUDA",),
)

INTERRUPT_KEY = ("13pt", "A100-CUDA", "array_codegen")  # 5th of 6
FAIL_KEY = ("13pt", "A100-CUDA", "bricks_codegen")


@pytest.fixture
def registry():
    prev = obs.get_registry()
    reg = obs.set_registry(obs.MetricsRegistry())
    yield reg
    obs.set_registry(prev)


def _count(registry, name):
    try:
        return registry.get(name).value
    except Exception:
        return 0


class TestInterruptAndResume:
    def test_interrupt_leaves_checkpoint_resume_finishes(
        self, registry, tmp_path
    ):
        cache_dir = str(tmp_path)
        plan = FaultPlan(faults=(
            (INTERRUPT_KEY, FaultSpec("interrupt", failures=-1)),
        ))
        with pytest.raises(KeyboardInterrupt):
            harness.run_study(
                CONFIG, fault_plan=plan,
                cache_dir=cache_dir, checkpoint_every=1,
            )
        # Every point completed before the interrupt was flushed.
        done = serialization.load_study_checkpoint(CONFIG, cache_dir)
        assert done is not None and len(done) == 4
        assert INTERRUPT_KEY not in done

        calls_before = _count(registry, "simulate.calls")
        study = harness.run_study(
            CONFIG, cache_dir=cache_dir, resume=True
        )
        # Only the 2 missing points were simulated; 4 came for free.
        assert study.complete and len(study) == 6
        assert _count(registry, "simulate.calls") - calls_before == 2
        assert _count(registry, "study.resumed_points") == 4
        # A complete sweep needs no checkpoint any more.
        assert serialization.load_study_checkpoint(CONFIG, cache_dir) is None

    def test_resumed_study_matches_single_shot(self, registry, tmp_path):
        cache_dir = str(tmp_path)
        plan = FaultPlan(faults=(
            (INTERRUPT_KEY, FaultSpec("interrupt", failures=-1)),
        ))
        with pytest.raises(KeyboardInterrupt):
            harness.run_study(
                CONFIG, fault_plan=plan,
                cache_dir=cache_dir, checkpoint_every=1,
            )
        resumed = harness.run_study(
            CONFIG, cache_dir=cache_dir, resume=True
        )
        single = harness.run_study(CONFIG)
        assert resumed.results == single.results
        # Same canonical iteration order, not just the same mapping.
        assert list(resumed.results) == list(single.results)

    def test_failed_point_finishes_on_resume(self, registry, tmp_path):
        cache_dir = str(tmp_path)
        plan = FaultPlan(faults=(
            (FAIL_KEY, FaultSpec("raise", failures=-1)),
        ))
        policy = RetryPolicy(retries=1, backoff_s=0.0)
        study = harness.run_study(
            CONFIG, policy=policy, fault_plan=plan,
            cache_dir=cache_dir,
        )
        assert not study.complete and set(study.failed) == {FAIL_KEY}
        # The degraded run checkpoints its 5 good points plus the
        # FailedPoint record (so --resume knows failed vs. never-ran).
        done = serialization.load_study_checkpoint(CONFIG, cache_dir)
        assert done is not None
        assert set(done) == set(study.results) | {FAIL_KEY}
        assert isinstance(done[FAIL_KEY], harness.FailedPoint)

        calls_before = _count(registry, "simulate.calls")
        retry = harness.run_study(
            CONFIG, cache_dir=cache_dir, resume=True
        )
        assert retry.complete and not retry.failed
        assert _count(registry, "simulate.calls") - calls_before == 1
        assert serialization.load_study_checkpoint(CONFIG, cache_dir) is None

    def test_interrupt_then_fail_then_resume_with_higher_retries(
        self, registry, tmp_path
    ):
        """The full degradation story: an interrupted sweep leaves a
        checkpoint, the first resume still fails one point permanently
        (too few retries for its transient fault), and a second resume
        under a higher retry budget re-attempts that FailedPoint and
        completes — it is never replayed as a permanent failure."""
        cache_dir = str(tmp_path)
        interrupt = FaultPlan(faults=(
            (INTERRUPT_KEY, FaultSpec("interrupt", failures=-1)),
        ))
        with pytest.raises(KeyboardInterrupt):
            harness.run_study(
                CONFIG, fault_plan=interrupt,
                cache_dir=cache_dir, checkpoint_every=1,
            )

        # Resume #1: FAIL_KEY needs 3 attempts but the policy allows 2.
        flaky = FaultPlan(faults=(
            (FAIL_KEY, FaultSpec("raise", failures=3)),
        ))
        degraded = harness.run_study(
            CONFIG, fault_plan=flaky,
            policy=RetryPolicy(retries=1, backoff_s=0.0),
            cache_dir=cache_dir, resume=True,
        )
        assert not degraded.complete
        assert set(degraded.failed) == {FAIL_KEY}
        done = serialization.load_study_checkpoint(CONFIG, cache_dir)
        assert done is not None and FAIL_KEY in done

        # Resume #2: a higher retry budget re-attempts the failed point
        # (fresh fault plan: the fault is transient across runs too).
        calls_before = _count(registry, "simulate.calls")
        final = harness.run_study(
            CONFIG,
            policy=RetryPolicy(retries=3, backoff_s=0.0),
            cache_dir=cache_dir, resume=True,
        )
        assert final.complete and not final.failed
        # Only the failed point was re-simulated; the 5 good points
        # (4 pre-interrupt + 1 from resume #1) came from the checkpoint.
        assert _count(registry, "simulate.calls") - calls_before == 1
        assert _count(registry, "study.reattempted_failures") == 1
        assert serialization.load_study_checkpoint(CONFIG, cache_dir) is None

    def test_cached_study_resume_bypasses_degraded_memo(
        self, registry, tmp_path
    ):
        """cached_study memoises a degraded sweep (renders shouldn't
        re-simulate), but an explicit resume=True must bypass both the
        in-process memo and any stale on-disk entry and re-attempt the
        failures — this was the --resume bug."""
        cache_dir = str(tmp_path)
        plan = FaultPlan(faults=(
            (FAIL_KEY, FaultSpec("raise", failures=-1)),
        ))
        harness.clear_study_cache()
        try:
            degraded = harness.cached_study(
                CONFIG, cache_dir=cache_dir,
                retry_policy=RetryPolicy(retries=1, backoff_s=0.0),
                fault_plan=plan,
            )
            assert not degraded.complete and FAIL_KEY in degraded.failed
            # Without resume, the memo serves the degraded study as-is.
            assert harness.cached_study(
                CONFIG, cache_dir=cache_dir
            ) is degraded

            resumed = harness.cached_study(
                CONFIG, cache_dir=cache_dir, resume=True
            )
            assert resumed is not degraded
            assert resumed.complete and not resumed.failed
            assert resumed.has(*FAIL_KEY)
            assert _count(registry, "study_cache.resume_retries") == 1
        finally:
            harness.clear_study_cache()

    def test_resume_with_no_checkpoint_runs_everything(
        self, registry, tmp_path
    ):
        study = harness.run_study(
            CONFIG, cache_dir=str(tmp_path), resume=True
        )
        assert study.complete
        assert _count(registry, "study.resumed_points") == 0
        assert _count(registry, "simulate.calls") == 6

    def test_complete_run_leaves_no_checkpoint(self, registry, tmp_path):
        cache_dir = str(tmp_path)
        harness.run_study(CONFIG, cache_dir=cache_dir)
        assert serialization.load_study_checkpoint(CONFIG, cache_dir) is None


class TestCheckpointStore:
    def test_roundtrip(self, tmp_path):
        cache_dir = str(tmp_path)
        results = {("7pt", "A100-CUDA", "array"): "sentinel"}
        path = serialization.save_study_checkpoint(CONFIG, results, cache_dir)
        assert path == serialization.study_checkpoint_path(cache_dir, CONFIG)
        assert serialization.load_study_checkpoint(CONFIG, cache_dir) == results

    def test_config_mismatch_loads_none(self, tmp_path):
        cache_dir = str(tmp_path)
        serialization.save_study_checkpoint(CONFIG, {}, cache_dir)
        other = harness.ExperimentConfig(
            stencils=("7pt",), domain=(64, 64, 64),
            platform_filter=("A100-CUDA",),
        )
        assert serialization.load_study_checkpoint(other, cache_dir) is None

    def test_unstamped_file_loads_none(self, tmp_path):
        cache_dir = str(tmp_path)
        path = serialization.save_study_checkpoint(CONFIG, {}, cache_dir)
        with open(path, "rb") as f:
            blob = pickle.load(f)
        del blob["pickle_layout"]
        with open(path, "wb") as f:
            pickle.dump(blob, f)
        assert serialization.load_study_checkpoint(CONFIG, cache_dir) is None

    def test_corrupt_file_loads_none(self, tmp_path):
        cache_dir = str(tmp_path)
        serialization.save_study_checkpoint(CONFIG, {}, cache_dir)
        with open(
            serialization.study_checkpoint_path(cache_dir, CONFIG), "wb"
        ) as f:
            f.write(b"not a pickle")
        assert serialization.load_study_checkpoint(CONFIG, cache_dir) is None

    def test_missing_file_loads_none(self, tmp_path):
        assert (
            serialization.load_study_checkpoint(CONFIG, str(tmp_path)) is None
        )

    def test_clear_is_idempotent(self, tmp_path):
        cache_dir = str(tmp_path)
        serialization.save_study_checkpoint(CONFIG, {}, cache_dir)
        serialization.clear_study_checkpoint(CONFIG, cache_dir)
        serialization.clear_study_checkpoint(CONFIG, cache_dir)  # no error
        assert serialization.load_study_checkpoint(CONFIG, cache_dir) is None
