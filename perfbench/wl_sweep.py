"""Workload ``sweep``: the 103,680-point domain lattice through the batch engine.

6 stencils x 5 platforms x 3 variants x 1,152 domains, one
``simulate_batch`` call per operation, codegen memo warm and model
invariants at their default (off).  The seed sets the point order and
the sample checked against scalar ``simulate()``.  Time goes to
per-point Python (group resolution, ``total_flops``, result assembly,
GC) and NumPy evaluation; codegen does almost nothing after set-up.

The lattice is the benchmark's own copy: every extent is a multiple of
every platform's default tile (``ni`` of 64, ``nj``/``nk`` of 4).
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Dict, List

from common import (Report, calibrate, host_ref, host_scale, host_scaled,
                    median, peak_rss_mb, probe_setup, timed_loop)
from layers import LayerClock, delta, layer_metrics, registry_counters

NI_AXIS = [64 * m for m in range(1, 9)]   # 64 .. 512
NJ_AXIS = [4 * m for m in range(1, 13)]   # 4 .. 48
NK_AXIS = [4 * m for m in range(1, 13)]   # 4 .. 48
LATTICE_POINTS = 103_680

#: Points re-simulated by scalar ``simulate()`` as the oracle check.
ORACLE_SAMPLE = 96

SETUP_PROBES = 4


def lattice(seed: int) -> List:
    from repro import harness
    from repro.dsl.shapes import by_name
    from repro.gpu.batch import BatchPoint

    config = harness.ExperimentConfig()
    points = [
        BatchPoint(stencil=stencil, variant=variant, platform=plat,
                   domain=(ni, nj, nk), stencil_name=name)
        for name, stencil in ((n, by_name(n).build()) for n in config.stencils)
        for plat in config.platforms()
        for variant in config.variants
        for ni in NI_AXIS
        for nj in NJ_AXIS
        for nk in NK_AXIS
    ]
    random.Random(seed).shuffle(points)
    return points


def setup(seed: int) -> Dict[str, object]:
    """Import, build the lattice, warm codegen with one point per group."""
    t0 = time.perf_counter()
    from repro.gpu import batch

    points = lattice(seed)
    firsts: Dict[tuple, object] = {}
    for p in points:
        firsts.setdefault((p.stencil_name, p.platform.name, p.variant), p)
    batch.simulate_batch(list(firsts.values()))
    return {"setup_s": time.perf_counter() - t0, "points": points}


def _differs(a, b) -> List[str]:
    return [f.name for f in dataclasses.fields(a)
            if getattr(a, f.name) != getattr(b, f.name)]


def run(seed: int, seconds: float, trace: bool, scratch: str,
        report: Report) -> None:
    ref_before = host_ref()
    state = setup(seed)
    setup_samples = [host_scale(state["setup_s"], ref_before, host_ref())]
    if not trace:
        setup_samples += probe_setup("sweep", seed, SETUP_PROBES)
    from repro.gpu import batch
    from repro.gpu.simulator import simulate
    from repro.obs import counter

    points = state["points"]
    report.check(len(points) == LATTICE_POINTS,
                 f"lattice has {len(points)} points, not {LATTICE_POINTS}")
    calls = counter("simulate.calls")
    clock = LayerClock()
    op_s: Dict[int, float] = {}
    traced_s: Dict[int, float] = {}
    timers: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    last: Dict[str, list] = {}

    def op(rep: int) -> None:
        traced = trace and rep % 2 == 1
        last.clear()  # free the previous batch before building the next
        report.attempted += 1
        if traced:
            clock.install()
            timers0, counters0 = clock.snapshot(), registry_counters()
        calls0 = calls.value
        try:
            t0 = time.perf_counter()
            results = batch.simulate_batch(points)
            elapsed = time.perf_counter() - t0
        except Exception as exc:
            report.failed += 1
            report.check(False, f"batch {rep} raised {exc!r}")
            return
        finally:
            if traced:
                for key, value in delta(clock.snapshot(), timers0).items():
                    timers[key] = timers.get(key, 0.0) + value
                for key, value in delta(registry_counters(), counters0).items():
                    counters[key] = counters.get(key, 0.0) + value
                clock.uninstall()
        (traced_s if traced else op_s)[rep] = elapsed
        report.check(
            calls.value - calls0 == len(points),
            f"batch {rep}: simulate.calls grew by {calls.value - calls0}, "
            f"not {len(points)}",
        )
        report.check(len(results) == len(points),
                     f"batch {rep}: {len(results)} results for {len(points)} points")
        last["results"] = results

    calib = [calibrate()]
    refs = timed_loop(seconds, op, min_reps=4 if trace else 3)
    reps = len(refs) - 1
    rss = peak_rss_mb()
    calib.append(calibrate())

    results = last.get("results")
    if results is not None:
        rng = random.Random(seed + 1)
        for i in rng.sample(range(len(points)), ORACLE_SAMPLE):
            p = points[i]
            ref = simulate(p.stencil, p.variant, p.platform, domain=p.domain,
                           stencil_name=p.stencil_name)
            report.check(
                results[i] == ref,
                f"point {i} ({p.stencil_name}/{p.platform.name}/{p.variant} "
                f"{p.domain}) differs from simulate() in {_differs(results[i], ref)}",
            )

    report.calib = calib
    if not trace:
        samples = len(op_s)
        report.metric("setup_s", median(setup_samples), "s", len(setup_samples))
        report.metric("peak_rss_mb", rss, "MB", 1)
        scaled = median(host_scaled(op_s, refs))
        report.metric("latency_ms", 1e3 * scaled, "ms", samples)
        report.metric("points_per_s", len(points) / scaled, "points/s", samples)
        report.metric("wall_latency_ms", 1e3 * median(op_s.values()), "ms", samples)
        report.metric("sweep_pts_per_s", len(points) / median(op_s.values()),
                      "points/s", samples)
        return
    ops = len(traced_s)
    layers = layer_metrics(timers, counters, ops)
    layers["host.calib_s"] = median(calib)
    layers["trace.overhead_pct"] = 100 * (
        median(traced_s.values()) / median(op_s.values()) - 1)
    # Unattributed: the batch remainder plus anything outside the engine.
    per_op = sum(traced_s.values()) / max(1, ops)
    layers["trace.unattributed_pct"] = 100 * (
        per_op - layers["gpu.batch_s"] + layers["gpu.batch_rest_s"]
    ) / per_op
    report.layers.update(layers)
    print(f"{ops} traced batches of {reps}; batch remainder "
          f"(resolve + evaluate + assemble) {layers['gpu.batch_rest_s']:.3f} s")
