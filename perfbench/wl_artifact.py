"""Workload ``artifact``: the paper reproduction as a CLI user makes it.

One operation is a cold reproduction: ``run_study()`` on the paper's
fixed 90-point 512^3 matrix, ``ingest_study`` into a fresh SQLite
store, ``load_study`` back, and ``generate_report``.  The codegen memo
and the study cache are cleared first, because every
``repro-stencil study`` process pays that cost.  The seed does not
change the input.  Auto-dispatch keeps 90 points on the serial scalar
path, so nearly all the time is codegen liveness and cost.
"""

from __future__ import annotations

import os
import time
from typing import Dict

from common import (ROOT, Report, calibrate, host_ref, host_scale, host_scaled,
                    median, peak_rss_mb, probe_setup, timed_loop)
from layers import LayerClock, delta, layer_metrics, registry_counters

#: Timers that together tile one cold reproduction (none nests another).
LEAVES = (
    "codegen.generate_s", "codegen.cost_s", "gpu.traffic_s", "gpu.timing_s",
    "dsl.flops_s", "results.ingest_s", "results.load_s", "results.render_s",
)
#: The subset inside ``run_study``.
STUDY_LEAVES = LEAVES[:5]

SETUP_PROBES = 8


def setup(seed: int) -> Dict[str, object]:
    """Import the program and build the paper's configuration (seed unused)."""
    t0 = time.perf_counter()
    from repro import harness

    config = harness.ExperimentConfig()
    config.keys()  # resolves the platform catalogue
    return {"setup_s": time.perf_counter() - t0, "config": config}


def paper_mae_pct(study) -> float:
    """Mean |100 * simulated - paper| over the 72 cells of Tables 3 and 5.

    Simulated values are unrounded; the paper's are its printed integers.
    """
    from repro.harness.tables import table3, table5
    from repro.results.report import PAPER_TABLE3, PAPER_TABLE5

    errors = []
    for table_fn, paper in ((table3, PAPER_TABLE3), (table5, PAPER_TABLE5)):
        table = table_fn(study)
        for name, values in paper.items():
            effs, p = table.rows[name]
            simulated = list(effs) + [p]
            if len(simulated) != len(values) or None in simulated:
                raise ValueError(f"table row {name} has no value per paper cell")
            errors += [abs(100 * s - v) for s, v in zip(simulated, values)]
    if len(errors) != 72:
        raise ValueError(f"expected 72 paper cells, compared {len(errors)}")
    return sum(errors) / len(errors)


def run(seed: int, seconds: float, trace: bool, scratch: str,
        report: Report) -> None:
    ref_before = host_ref()
    state = setup(seed)
    setup_samples = [host_scale(state["setup_s"], ref_before, host_ref())]
    if not trace:
        setup_samples += probe_setup("artifact", seed, SETUP_PROBES)
    from repro import harness
    from repro.codegen import clear_codegen_memo
    from repro.harness import experiments
    from repro.results import report as results_report
    from repro.results.store import ResultsStore
    from repro.validate.golden import check_golden

    config = state["config"]
    with open(os.path.join(ROOT, "EXPERIMENTS.md")) as f:
        checked_in = f.read()
    clock = LayerClock()
    op_s: Dict[int, float] = {}
    traced_s: Dict[int, float] = {}
    report_s = []
    timers: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    maes = set()

    def op(rep: int) -> None:
        traced = trace and rep % 2 == 1
        clear_codegen_memo()
        harness.clear_study_cache()
        db = os.path.join(scratch, f"results-{rep}.db")
        report.attempted += 1
        if traced:
            clock.install()
            timers0, counters0 = clock.snapshot(), registry_counters()
        try:
            t0 = time.perf_counter()
            study = experiments.run_study(config)
            with ResultsStore(db) as store:
                store.ingest_study(study, source="perfbench")
                t1 = time.perf_counter()
                loaded = store.load_study(config)
                artifacts = results_report.generate_report(loaded)
            t2 = time.perf_counter()
        except Exception as exc:  # one failed reproduction, not the run
            report.failed += 1
            report.check(False, f"reproduction {rep} raised {exc!r}")
            return
        finally:
            if traced:
                for key, value in delta(clock.snapshot(), timers0).items():
                    timers[key] = timers.get(key, 0.0) + value
                for key, value in delta(registry_counters(), counters0).items():
                    counters[key] = counters.get(key, 0.0) + value
                clock.uninstall()
            if os.path.exists(db):
                os.remove(db)
        (traced_s if traced else op_s)[rep] = t2 - t0
        if not traced:
            report_s.append(t2 - t1)
        _, status = check_golden(study)
        report.check(status == "ok", f"reproduction {rep}: golden check {status}")
        report.check(
            artifacts["EXPERIMENTS.md"] == checked_in,
            f"reproduction {rep}: EXPERIMENTS.md differs from the checked-in copy",
        )
        maes.add(paper_mae_pct(study))

    calib = [calibrate()]
    refs = timed_loop(seconds, op, min_reps=4 if trace else 3)
    reps = len(refs) - 1
    calib.append(calibrate())
    report.check(len(maes) == 1, f"paper_p_mae_pct not repeatable: {sorted(maes)}")

    report.calib = calib
    if not trace:
        samples = len(op_s)
        report.metric("setup_s", median(setup_samples), "s", len(setup_samples))
        report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1)
        scaled = median(host_scaled(op_s, refs))
        report.metric("latency_ms", 1e3 * scaled, "ms", samples)
        report.metric("points_per_s", len(config.keys()) / scaled, "points/s", samples)
        report.metric("artifact_s", median(op_s.values()), "s", samples)
        report.metric("report_s", median(report_s), "s", samples)
        if maes:
            report.metric("paper_p_mae_pct", maes.pop(), "pct", 72)
        return
    ops = len(traced_s)
    layers = layer_metrics(timers, counters, ops)
    op_traced = median(traced_s.values())
    layers["host.calib_s"] = median(calib)
    layers["trace.overhead_pct"] = 100 * (op_traced / median(op_s.values()) - 1)
    layers["trace.unattributed_pct"] = 100 * (
        1 - sum(layers[k] for k in LEAVES) / (sum(traced_s.values()) / max(1, ops))
    )
    report.layers.update(layers)
    covered = sum(layers[k] for k in STUDY_LEAVES)
    print(f"codegen/dsl/gpu timers cover "
          f"{100 * covered / layers['harness.run_study_s']:.1f}% of "
          f"harness.run_study_s over {ops} traced reproductions ({reps} in all)")
