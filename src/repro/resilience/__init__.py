"""``repro.resilience`` — fault tolerance for the execution engine.

Four pieces, composed by :mod:`repro.exec`, the sweep harness, and the
serving layer:

* :class:`RetryPolicy` + :func:`run_with_policy` — retry with
  exponential backoff, per-task deadlines, transient/deterministic
  error discrimination, and result validation;
* :class:`TaskFailure` — the structured record a permanently failed
  task degrades into instead of killing a whole sweep;
* :class:`FaultPlan` / :class:`FaultSpec` — a deterministic, seeded
  fault-injection harness for chaos tests and ``--inject-faults``;
* :class:`FileLock` — an ``O_EXCL`` sidecar-file mutex with stale-lock
  breaking, so replicas sharing a cache directory never interleave
  read-merge-write critical sections.

Every retry, timeout, and injected fault is observable through the
``repro.obs`` counters (``exec.retries``, ``exec.timeouts``,
``exec.invalid_results``, ``faults.injected.*``).
"""

from repro.resilience.locks import DEFAULT_STALE_S, FileLock
from repro.resilience.faults import (
    FAULT_KINDS,
    CorruptPayload,
    FaultPlan,
    FaultSpec,
    FaultyFunction,
)
from repro.resilience.policy import (
    DEFAULT_POLICY,
    RetryPolicy,
    TaskFailure,
    run_with_policy,
)
from repro.resilience.timeouts import call_with_timeout

__all__ = [
    "DEFAULT_POLICY",
    "DEFAULT_STALE_S",
    "FAULT_KINDS",
    "CorruptPayload",
    "FileLock",
    "FaultPlan",
    "FaultSpec",
    "FaultyFunction",
    "RetryPolicy",
    "TaskFailure",
    "call_with_timeout",
    "run_with_policy",
]
