"""Job model for the study-serving service: options + lifecycle state.

A *job* is one tenant request to run a study: an
:class:`~repro.harness.experiments.ExperimentConfig` naming the matrix
plus a :class:`JobOptions` bundle carrying the per-job resilience knobs
(retries, per-task deadline, chaos seed) the CLI already exposes for
direct sweeps.  Jobs move through a strict state machine::

    queued ──▶ running ──▶ done
       │         │ └─────▶ failed
       │         └──▶ queued   (worker crashed; job re-enqueued)
       └─────────────────▶ cancelled

The ``running -> queued`` edge exists for the crash paths only: a
supervised worker process that dies mid-job, or a journal replay that
finds the job was ``running`` when the server was killed.  Any other
transition is a programming error and raises
:class:`~repro.errors.ServeError` — the orchestrator relies on this to
make races (cancel vs. dequeue, double completion) loud instead of
silently corrupting a job record.  Every transition bumps a
``serve.jobs.<state>`` counter so queue dynamics are visible in the
telemetry warehouse.

Dedup identity: a job's :attr:`Job.config_hash` is the *existing*
persistent-study-cache key (:func:`repro.harness.study_cache_key`), so
the service's shared result store and the on-disk cache the CLI already
writes speak the same language.  Only *clean* jobs — no injected
faults, no synthetic service time — take part in dedup: a chaos job's
degraded result must never be served to a tenant who asked for the real
study.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.errors import ServeError
from repro.harness.experiments import ExperimentConfig, StudyResults
from repro.harness.serialization import study_cache_key
from repro.obs import counter
from repro.resilience import FaultPlan, RetryPolicy

__all__ = [
    "JOB_STATES",
    "MAX_SLEEP_S",
    "Job",
    "JobOptions",
    "reserve_job_ids",
]

#: Every state a job can be in, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Legal transitions of the job state machine.
_ALLOWED: Dict[str, Tuple[str, ...]] = {
    "queued": ("running", "cancelled"),
    "running": ("done", "failed", "queued"),
    "done": (),
    "failed": (),
    "cancelled": (),
}

#: Upper bound on the synthetic per-job service time (a dev/test knob
#: for backpressure drills must never wedge a worker for minutes).
MAX_SLEEP_S = 30.0

#: Seeded fault rates for jobs submitted with ``inject_faults`` —
#: transient kinds only, mirroring the CLI's ``--inject-faults``.
INJECT_RAISE_RATE = 0.06
INJECT_CORRUPT_RATE = 0.03

_job_ids = itertools.count(1)


def reserve_job_ids(minimum: int) -> None:
    """Advance the id counter so fresh jobs start at ``minimum`` or later.

    Journal replay re-registers jobs under their *original* ids; without
    reserving those numbers, the next fresh submission would collide
    with a replayed job's id.
    """
    global _job_ids
    current = next(_job_ids)
    _job_ids = itertools.count(max(current, minimum))


@dataclass(frozen=True)
class JobOptions:
    """Per-job execution knobs, all optional (``None`` = server default).

    ``retries``/``task_timeout`` build the job's
    :class:`~repro.resilience.RetryPolicy`; ``inject_faults`` is a
    chaos seed (the same deterministic :class:`FaultPlan` the CLI's
    ``--inject-faults`` uses); ``dispatch`` pins the sweep engine; and
    ``sleep_s`` adds synthetic service time — a dev/test knob that makes
    backpressure drills deterministic (a sleeping job occupies a worker
    for exactly that long before the study runs); and ``drill_exit`` is
    the poison pill — a process-backend worker running such a job calls
    ``os._exit(drill_exit)`` instead of simulating, which is how the
    chaos drill exercises crash-requeue and quarantine (the thread
    backend fails the job gracefully instead, since a thread cannot be
    sacrificed).
    """

    retries: Optional[int] = None
    task_timeout: Optional[float] = None
    inject_faults: Optional[int] = None
    dispatch: Optional[str] = None
    sleep_s: float = 0.0
    drill_exit: Optional[int] = None

    _FIELDS = (
        "retries",
        "task_timeout",
        "inject_faults",
        "dispatch",
        "sleep_s",
        "drill_exit",
    )

    def __post_init__(self) -> None:
        from repro.exec import DISPATCH_MODES

        if self.dispatch is not None and self.dispatch not in DISPATCH_MODES:
            raise ServeError(
                f"unknown dispatch mode {self.dispatch!r}; "
                f"known: {DISPATCH_MODES}"
            )
        if not 0.0 <= self.sleep_s <= MAX_SLEEP_S:
            raise ServeError(
                f"sleep_s must be within [0, {MAX_SLEEP_S}], "
                f"got {self.sleep_s}"
            )
        if self.retries is not None and self.retries < 0:
            raise ServeError(f"retries cannot be negative, got {self.retries}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ServeError(
                f"task_timeout must be positive, got {self.task_timeout}"
            )
        if self.drill_exit is not None and not 0 <= self.drill_exit <= 255:
            raise ServeError(
                f"drill_exit must be an exit code in [0, 255], "
                f"got {self.drill_exit}"
            )

    @property
    def clean(self) -> bool:
        """Whether the job's result is the canonical study result.

        Only clean jobs are dedup'd and stored: injected faults change
        what the study returns (degraded points), and synthetic service
        time marks a drill, not a tenant request.  ``drill_exit`` —
        poison-pill chaos — is a drill by definition.
        """
        return (
            self.inject_faults is None
            and self.sleep_s == 0.0
            and self.drill_exit is None
        )

    @property
    def batchable(self) -> bool:
        """Whether this job may be micro-batched with its queue peers.

        The batch engine evaluates clean analytic points only; a pinned
        non-vectorized dispatch opts the job out as well.
        """
        return self.clean and self.dispatch in (None, "vectorized")

    def policy(self) -> Optional[RetryPolicy]:
        """The job's retry policy, or ``None`` for the engine default."""
        if self.retries is None and self.task_timeout is None:
            return None
        kwargs: Dict[str, Any] = {}
        if self.retries is not None:
            kwargs["retries"] = self.retries
        if self.task_timeout is not None:
            kwargs["timeout_s"] = self.task_timeout
        return RetryPolicy(**kwargs)

    def fault_plan(self, config: ExperimentConfig) -> Optional[FaultPlan]:
        """The job's seeded chaos plan over its own matrix, or ``None``."""
        if self.inject_faults is None:
            return None
        return FaultPlan.seeded(
            self.inject_faults,
            config.keys(),
            raise_rate=INJECT_RAISE_RATE,
            corrupt_rate=INJECT_CORRUPT_RATE,
        )

    def to_dict(self) -> Dict[str, Any]:
        doc = {
            name: getattr(self, name)
            for name in self._FIELDS
            if getattr(self, name) is not None
        }
        if self.sleep_s == 0.0:
            doc.pop("sleep_s", None)
        return doc

    @classmethod
    def from_dict(cls, doc: Optional[Dict[str, Any]]) -> "JobOptions":
        """Parse a request's ``options`` object; loud on unknown keys."""
        if doc is None:
            return DEFAULT_OPTIONS
        if not isinstance(doc, dict):
            raise ServeError(
                f"options must be a JSON object, got {type(doc).__name__}"
            )
        unknown = set(doc) - set(cls._FIELDS)
        if unknown:
            raise ServeError(
                f"unknown option(s) {sorted(unknown)}; "
                f"known: {list(cls._FIELDS)}"
            )
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ServeError(f"bad options payload: {exc}") from None


#: The options of a request that sets none, shared by all such jobs.
DEFAULT_OPTIONS = JobOptions()


@dataclass
class Job:
    """One submitted study request and its lifecycle record.

    Mutable state (``state``, timestamps, outcome) is only ever touched
    under the orchestrator's lock; everything else is set at submission
    and read-only afterwards.
    """

    config: ExperimentConfig
    options: JobOptions
    job_id: str = field(default_factory=lambda: f"j{next(_job_ids):05d}")
    config_hash: str = ""
    state: str = "queued"
    dedup: bool = False
    attempts: int = 0
    note: Optional[str] = None
    created_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    error: Optional[str] = None
    study: Optional[StudyResults] = None

    def __post_init__(self) -> None:
        if not self.config_hash:
            self.config_hash = study_cache_key(self.config)

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    def transition(self, new_state: str) -> None:
        """Move the job to ``new_state``; invalid transitions raise.

        Timestamps are stamped on entry to ``running`` and on reaching
        any terminal state; every transition is counted as
        ``serve.jobs.<new_state>``.
        """
        if new_state not in JOB_STATES:
            raise ServeError(
                f"unknown job state {new_state!r}; known: {JOB_STATES}"
            )
        if new_state not in _ALLOWED[self.state]:
            raise ServeError(
                f"job {self.job_id}: illegal transition "
                f"{self.state!r} -> {new_state!r}"
            )
        self.state = new_state
        now = time.time()
        if new_state == "running":
            self.started_s = now
        elif new_state == "queued":
            self.started_s = None  # crash requeue: the next run restarts the clock
        elif new_state in ("done", "failed", "cancelled"):
            self.finished_s = now
        counter(f"serve.jobs.{new_state}").inc()

    def status_dict(self) -> Dict[str, Any]:
        """The JSON-safe job record the status endpoint returns."""
        doc: Dict[str, Any] = {
            "job_id": self.job_id,
            "state": self.state,
            "config_hash": self.config_hash,
            "config": self.config.to_dict(),
            "options": self.options.to_dict(),
            "dedup": self.dedup,
            "created_s": self.created_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
        }
        if self.attempts:
            doc["attempts"] = self.attempts
        if self.note is not None:
            doc["note"] = self.note
        if self.error is not None:
            doc["error"] = self.error
        if self.study is not None:
            doc["points"] = len(self.study)
            doc["failed_points"] = len(self.study.failed)
            doc["complete"] = self.study.complete
        return doc
