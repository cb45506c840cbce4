"""Supervised process workers: heartbeats, deadline kills, quarantine."""

import time

import pytest

from repro import obs
from repro.errors import ServeError, TaskTimeoutError, WorkerCrashError
from repro.harness.experiments import ExperimentConfig
from repro.serve import JobOptions, Orchestrator, ResultStore, Supervisor
from repro.serve.jobs import Job

SMALL = ExperimentConfig(stencils=("7pt",), variants=("array",), domain=(64, 64, 64))
OTHER = ExperimentConfig(stencils=("13pt",), variants=("array",), domain=(64, 64, 64))


@pytest.fixture
def registry():
    prev = obs.get_registry()
    reg = obs.set_registry(obs.MetricsRegistry())
    yield reg
    obs.set_registry(prev)


def wait_for(predicate, timeout_s=60.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


@pytest.fixture
def supervisor():
    sup = Supervisor()
    yield sup
    sup.shutdown()


class TestSupervisorUnit:
    def test_runs_a_study_and_merges_observations(self, registry, supervisor):
        job = Job(config=SMALL, options=JobOptions())
        study = supervisor.run_job(job, {})
        assert study.complete
        assert len(study.results) == len(SMALL.keys())
        # The child's simulate.* counters travelled back with the study.
        assert registry.get("simulate.calls").value >= len(SMALL.keys())
        assert registry.get("serve.supervisor.spawned").value == 1

    def test_worker_is_reused_across_jobs(self, registry, supervisor):
        for config in (SMALL, OTHER):
            job = Job(config=config, options=JobOptions())
            supervisor.run_job(job, {})
        assert registry.get("serve.supervisor.spawned").value == 1

    def test_job_error_does_not_kill_the_worker(self, registry, supervisor):
        bad = Job(config=SMALL, options=JobOptions())
        # A bogus run kwarg makes run_study raise inside the child; the
        # worker catches it, replies ("error", ...), and stays alive.
        with pytest.raises(ServeError):
            supervisor.run_job(bad, {"no_such_kwarg": True})
        # Same worker still serves the next job.
        good = Job(config=SMALL, options=JobOptions())
        assert supervisor.run_job(good, {}).complete
        assert registry.get("serve.supervisor.spawned").value == 1
        assert registry.get("serve.supervisor.crashes").value == 0

    def test_drill_exit_raises_worker_crash(self, registry, supervisor):
        job = Job(config=SMALL, options=JobOptions(drill_exit=9))
        with pytest.raises(WorkerCrashError) as excinfo:
            supervisor.run_job(job, {})
        assert excinfo.value.exit_code == 9
        assert registry.get("serve.supervisor.crashes").value == 1

    def test_deadline_kill(self, registry):
        sup = Supervisor(deadline_s=0.5)
        try:
            job = Job(config=SMALL, options=JobOptions(sleep_s=30.0))
            t0 = time.monotonic()
            with pytest.raises(TaskTimeoutError, match="deadline"):
                sup.run_job(job, {})
            assert time.monotonic() - t0 < 10.0  # killed, not waited out
            assert registry.get("serve.supervisor.deadline_kills").value == 1
            # A deadline kill is deliberate: no crash streak, no backoff.
            assert registry.get("serve.supervisor.crashes").value == 0
        finally:
            sup.shutdown()

    def test_crash_streak_backs_off_and_resets(self, registry, supervisor):
        for _ in range(2):
            with pytest.raises(WorkerCrashError):
                supervisor.run_job(
                    Job(config=SMALL, options=JobOptions(drill_exit=1)),
                    {},
                )
        assert supervisor._spawn_delay_s() > 0
        supervisor.run_job(
            Job(config=SMALL, options=JobOptions()), {}
        )
        assert supervisor._spawn_delay_s() == 0.0

    def test_shutdown_refuses_new_work(self):
        sup = Supervisor()
        sup.shutdown()
        with pytest.raises(ServeError, match="shut down"):
            sup.run_job(
                Job(config=SMALL, options=JobOptions()), {}
            )

    def test_bad_knobs_raise(self):
        with pytest.raises(ServeError):
            Supervisor(deadline_s=0.0)
        with pytest.raises(ServeError):
            Supervisor(heartbeat_timeout_s=-1.0)


class TestProcessBackendOrchestration:
    def make(self, registry, **kwargs):
        kwargs.setdefault("workers", 1)
        kwargs.setdefault("backend", "process")
        return Orchestrator(ResultStore(), **kwargs)

    def test_end_to_end_job(self, registry):
        orch = self.make(registry)
        orch.start()
        try:
            job = orch.submit(SMALL)
            assert wait_for(lambda: job.finished)
            assert job.state == "done"
            assert job.study.complete
        finally:
            orch.stop()

    def test_poison_job_is_quarantined_not_fatal(self, registry):
        orch = self.make(registry, max_crashes=2)
        orch.start()
        try:
            poison = orch.submit(SMALL, JobOptions(drill_exit=3))
            assert wait_for(lambda: poison.finished, timeout_s=120.0)
            assert poison.state == "failed"
            assert "poison" in poison.error
            assert poison.attempts == 3  # initial + 2 requeues
            assert registry.get("serve.supervisor.quarantined").value == 1
            assert registry.get("serve.supervisor.requeued").value == 2
            # The pool survives: a normal job still completes.
            ok = orch.submit(OTHER)
            assert wait_for(lambda: ok.finished)
            assert ok.state == "done"
        finally:
            orch.stop()

    def test_wedged_job_killed_without_stalling_others(self, registry):
        orch = self.make(registry, workers=2, job_deadline_s=1.0)
        orch.start()
        try:
            wedged = orch.submit(SMALL, JobOptions(sleep_s=30.0))
            ok = orch.submit(OTHER)
            assert wait_for(lambda: ok.finished)
            assert ok.state == "done"
            assert wait_for(lambda: wedged.finished, timeout_s=30.0)
            assert wedged.state == "failed"
            assert "deadline" in wedged.error
            assert registry.get("serve.supervisor.deadline_kills").value == 1
        finally:
            orch.stop()

    def test_thread_backend_fails_drill_exit_gracefully(self, registry):
        orch = Orchestrator(ResultStore(), workers=1, backend="thread")
        orch.start()
        try:
            job = orch.submit(SMALL, JobOptions(drill_exit=1))
            assert wait_for(lambda: job.finished)
            assert job.state == "failed"
            assert "process backend" in job.error
        finally:
            orch.stop()

    def test_unknown_backend_raises(self):
        with pytest.raises(ServeError, match="unknown backend"):
            Orchestrator(ResultStore(), backend="fiber")
