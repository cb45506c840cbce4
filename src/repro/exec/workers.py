"""Module-level worker functions the study and the tuner run per point.

Each opens the span the scalar code path records per point
(``study.point`` / ``tune.candidate``), and the supervised serving
workers pickle study items across a process boundary, so work items
carry the actual :class:`~repro.dsl.stencil.Stencil` and
:class:`~repro.gpu.progmodel.Platform` objects (both are small frozen
dataclasses) and never rebuild state from names.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Tuple

from repro.dsl.stencil import Stencil
from repro.gpu.progmodel import Platform
from repro.gpu.simulator import SimulationResult, simulate
from repro.obs import span

if TYPE_CHECKING:  # import cycle: tuning.search itself uses this module
    from repro.tuning.space import TuningPoint

__all__ = [
    "StudyItem",
    "simulate_point",
    "evaluate_candidate",
    "study_item_key",
    "validate_simulation",
]

#: One point of the study matrix: (stencil name, stencil, platform,
#: variant, domain).
StudyItem = Tuple[str, Stencil, Platform, str, Tuple[int, int, int]]


def study_item_key(item: StudyItem) -> Tuple[str, str, str]:
    """The stable (stencil, platform, variant) identity of one item.

    Used as the checkpoint/result key and as the fault-plan key — its
    ``repr`` is stable across processes, unlike the item itself (which
    carries full ``Stencil``/``Platform`` objects).
    """
    name, _, platform, variant, _ = item
    return (name, platform.name, variant)


def validate_simulation(result: Any) -> bool:
    """Reject corrupted worker payloads before they enter a study.

    A healthy result is a :class:`SimulationResult` with a finite,
    positive sweep time; anything else (a poisoned pickle, NaN timing)
    is treated as a transient failure and retried.
    """
    return (
        isinstance(result, SimulationResult)
        and math.isfinite(result.time_s)
        and result.time_s > 0
    )


def simulate_point(item: StudyItem) -> SimulationResult:
    """Simulate one (stencil, platform, variant) point of the matrix."""
    name, stencil, platform, variant, domain = item
    with span(
        "study.point", stencil=name, platform=platform.name, variant=variant
    ):
        return simulate(
            stencil, variant, platform, domain=domain, stencil_name=name
        )


def evaluate_candidate(
    point: "TuningPoint",
    *,
    stencil: Stencil,
    variant: str,
    platform: Platform,
    domain: Tuple[int, int, int],
    stencil_name: str | None,
) -> SimulationResult:
    """Simulate one tuning-space candidate (dispatched via partial)."""
    dims = point.brick_dims()
    with span("tune.candidate", point=point.label()):
        return simulate(
            stencil,
            variant,
            platform,
            domain=domain,
            stencil_name=stencil_name,
            dims=dims,
            vector_length=point.vector_length,
        )
