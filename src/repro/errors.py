"""Exception hierarchy for the repro package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with one ``except`` clause while still
letting programming errors (``TypeError`` from bad Python usage, etc.)
propagate untouched.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class DSLError(ReproError):
    """Invalid stencil DSL construction (non-linear expression, bad index use)."""


class LayoutError(ReproError):
    """Invalid brick layout or decomposition (non-divisible extents, bad dims)."""


class CodegenError(ReproError):
    """Vector code generation failed (unsupported pattern, bad fold)."""


class SimulationError(ReproError):
    """GPU simulator was configured or driven inconsistently."""


class MetricError(ReproError):
    """Performance-portability metric could not be computed (missing platform)."""


class ObservabilityError(ReproError):
    """Tracing/metrics layer misuse (metric type clash, bad export format)."""


class ValidationError(ReproError):
    """A simulation result violated a physical-sanity invariant.

    Raised by the opt-in ``check_invariants=`` hook of
    :func:`repro.gpu.simulator.simulate` and carried (as structured
    :class:`repro.validate.Violation` rows) by the ``repro-stencil
    validate`` pass.  Deliberately *not* a :class:`TransientError`: an
    invariant violation is deterministic model breakage, and retrying a
    broken model can only fail the same way again.
    """


class ExecutionError(ReproError):
    """Execution engine misuse (unknown dispatch mode, bad fault plan, lock misuse)."""


class ResultStoreError(ReproError):
    """The SQLite result store was misused or its schema is incompatible.

    Raised by :mod:`repro.results` for schema-version mismatches (a
    store written by an incompatible build is rejected loudly, never
    silently re-interpreted), missing studies, and malformed rows.
    """


class ServeError(ReproError):
    """Study-serving service misuse (bad request, unknown job, bad state).

    Raised by :mod:`repro.serve` for malformed study submissions,
    invalid job-state transitions, and client-side HTTP failures.  The
    HTTP layer maps it to a 4xx response instead of letting it kill the
    server process.
    """


class JournalError(ServeError):
    """The durable job journal was misused or its schema is incompatible.

    Raised by :mod:`repro.serve.journal` for schema-version mismatches
    (a journal written by an incompatible build must be rejected loudly,
    never silently replayed) and malformed journal rows.
    """


class WorkerCrashError(ServeError):
    """A supervised worker process died while executing a job.

    Carries the crash context (exit code / signal and the last known
    phase) so the orchestrator can decide between re-enqueueing the job
    and quarantining it as poison after repeated crashes.
    """

    def __init__(self, message: str, exit_code: "int | None" = None) -> None:
        super().__init__(message)
        self.exit_code = exit_code


class QueueFullError(ServeError):
    """The service's bounded job queue rejected a submission.

    Backpressure, not breakage: the HTTP layer answers 429 with a
    ``Retry-After`` estimate (carried in :attr:`retry_after_s`), and the
    client is expected to resubmit later.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class TransientError(ExecutionError):
    """A task failure that is expected to succeed on retry.

    The retry machinery (:mod:`repro.resilience`) re-runs tasks that
    raise this (or a subclass); deterministic model errors —
    :class:`SimulationError`, :class:`DSLError`, and the other
    ``ReproError`` siblings — are *not* retried, because re-running a
    deterministic computation can only fail the same way again.
    """


class TaskTimeoutError(ExecutionError):
    """A task exceeded its per-task deadline and was killed."""


class CorruptResultError(TransientError):
    """A task returned a payload that failed result validation."""
