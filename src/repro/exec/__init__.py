"""``repro.exec`` — the study execution engines.

An in-process map (:func:`map_items`) with retry handling and failure
capture, the batch-vectorized study map (:func:`map_study_points`) and
the serving layer's micro-batch primitive, plus the module-level
worker functions the sweep and the tuner run per point.

Fault tolerance — retries, per-task timeouts, graceful degradation,
and fault injection — comes from :mod:`repro.resilience`; the policy
and failure types are re-exported here for convenience.
"""

from repro.exec.dispatch import (
    DISPATCH_MODES,
    map_items,
    map_study_points,
    microbatch_study_points,
)
from repro.exec.workers import (
    StudyItem,
    evaluate_candidate,
    simulate_point,
    study_item_key,
    validate_simulation,
)
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy, TaskFailure

__all__ = [
    "DISPATCH_MODES",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "StudyItem",
    "TaskFailure",
    "evaluate_candidate",
    "map_items",
    "map_study_points",
    "microbatch_study_points",
    "simulate_point",
    "study_item_key",
    "validate_simulation",
]
