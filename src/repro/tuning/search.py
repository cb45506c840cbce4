"""Exhaustive (and pruned) autotuning search over the tuning space.

The objective is the simulator's predicted sweep time — the same role
real BrickLib autotuning plays with on-device timings.  Results are
memoised per (stencil, platform, domain) so repeated tuning calls are
free, mirroring a persisted autotuning database.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.dsl.stencil import Stencil
from repro.errors import SimulationError
from repro.exec import (
    RetryPolicy,
    TaskFailure,
    evaluate_candidate,
    parallel_map,
    resolve_jobs,
)
from repro.gpu.batch import BatchPoint, simulate_batch
from repro.gpu.progmodel import Platform
from repro.gpu.simulator import SimulationResult
from repro.obs import counter, span
from repro.tuning.space import TuningPoint, TuningSpace

#: Largest candidate set evaluated as one ``simulate_batch`` call.  The
#: full exhaustive tile/brick spaces the ROADMAP aims at sit well under
#: this; anything bigger falls back to the per-candidate scalar engine
#: (which can spread over a pool and apply retry policies).
BATCH_TUNE_MAX = 4096


@dataclass(frozen=True)
class TuningOutcome:
    """Best configuration found plus the full ranking."""

    best: TuningPoint
    best_result: SimulationResult
    ranking: Tuple[Tuple[TuningPoint, float], ...]  # (point, time_s), sorted

    @property
    def best_time_s(self) -> float:
        return self.best_result.time_s

    def speedup_over(self, point: TuningPoint) -> float:
        """How much faster the winner is than a given configuration."""
        for p, t in self.ranking:
            if p == point:
                return t / self.best_time_s
        raise SimulationError(f"{point.label()} was not in the tuned set")


@dataclass
class Autotuner:
    """Grid-search tuner with a result cache."""

    space: TuningSpace = field(default_factory=TuningSpace)
    variant: str = "bricks_codegen"
    _cache: Dict[Tuple, TuningOutcome] = field(default_factory=dict)

    def tune(
        self,
        stencil: Stencil,
        platform: Platform,
        domain: Tuple[int, int, int] = (512, 512, 512),
        stencil_name: str | None = None,
        jobs: Optional[int] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> TuningOutcome:
        """Grid-search the space; ``jobs`` workers evaluate candidates.

        ``jobs`` follows the engine convention (``None`` consults
        ``$REPRO_JOBS``, ``<= 1`` is serial, ``0`` is one per CPU); the
        outcome is identical at any job count.

        ``policy`` turns on resilient evaluation: transient candidate
        failures are retried per the policy, and candidates that still
        fail are dropped from the ranking (counted as
        ``exec.failed_points``) instead of aborting the whole search —
        unless *every* candidate failed, which raises.
        """
        key = (
            stencil.offsets(),
            tuple(sorted(c.key() for c in stencil.taps.values())),
            platform.name,
            domain,
            self.variant,
        )
        if key in self._cache:
            counter("tune_cache.hits").inc()
            return self._cache[key]
        counter("tune_cache.misses").inc()
        with span(
            "tune.search",
            stencil=stencil_name or stencil.description(),
            platform=platform.name,
            variant=self.variant,
        ) as sp:
            points = list(
                self.space.candidates(
                    platform.arch.simd_width, stencil.radius, domain
                )
            )
            jobs_n = resolve_jobs(jobs)
            use_batch = (
                policy is None and jobs_n <= 1 and 0 < len(points) <= BATCH_TUNE_MAX
            )
            mode = "batch" if use_batch else "scalar"
            if sp is not None:
                sp.set_attr("mode", mode)
            counter(f"tune.mode.{mode}").inc()
            # (point, time_s, index into results), failures aside.
            ranked: List[Tuple[TuningPoint, float, int]] = []
            dropped: List[Tuple[TuningPoint, TaskFailure]] = []
            results: Sequence[Any]
            if use_batch:
                bpoints = [
                    BatchPoint(
                        stencil=stencil,
                        variant=self.variant,
                        platform=platform,
                        domain=domain,
                        stencil_name=stencil_name,
                        dims=p.brick_dims(),
                        vector_length=p.vector_length,
                    )
                    for p in points
                ]
                # Without capture_failures a failing candidate raises, so
                # every entry is a result: rank off the time column and
                # build only the winner's row.
                results = simulate_batch(bpoints)
                times = results.column("time_s").tolist()
                ranked = [(p, t, i) for i, (p, t) in enumerate(zip(points, times))]
            else:
                evaluate = functools.partial(
                    evaluate_candidate,
                    stencil=stencil,
                    variant=self.variant,
                    platform=platform,
                    domain=domain,
                    stencil_name=stencil_name,
                )
                results = parallel_map(
                    evaluate, points, jobs=jobs, policy=policy,
                    capture_failures=policy is not None,
                )
                for i, (point, res) in enumerate(zip(points, results)):
                    if isinstance(res, TaskFailure):
                        dropped.append((point, res))
                    else:
                        ranked.append((point, res.time_s, i))
            counter("tune.candidates").inc(len(ranked))
            if sp is not None:
                sp.set_attr("candidates", len(ranked))
            if dropped:
                counter("exec.failed_points").inc(len(dropped))
                if sp is not None:
                    sp.set_attr("failed", len(dropped))
        if not ranked and dropped:
            raise SimulationError(
                f"every tuning candidate failed on {platform.name}; first: "
                f"{dropped[0][0].label()}: {dropped[0][1].describe()}"
            )
        if not ranked:
            raise SimulationError(
                f"tuning space is empty for radius {stencil.radius} on "
                f"{platform.name} with domain {domain}"
            )
        ranked.sort(key=lambda t: (t[1], t[0].label()))
        outcome = TuningOutcome(
            best=ranked[0][0],
            best_result=results[ranked[0][2]],
            ranking=tuple((p, t) for p, t, _ in ranked),
        )
        self._cache[key] = outcome
        return outcome

    def cache_size(self) -> int:
        return len(self._cache)
