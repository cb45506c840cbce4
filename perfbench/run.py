#!/usr/bin/env python3
"""The repository benchmark: three workloads, measured end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {artifact,sweep,serve} \\
        --seed N --seconds S --trace {0,1}

Each invocation runs one workload in this fresh interpreter, measures
for ``--seconds``, checks the program's outputs, prints a table of what
it measured (name, value, unit, sample count) and, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones,
from timers the benchmark wraps around each layer's entry points
(:mod:`layers`), the program's metric registry or ``/metricz``, and
``gc.callbacks``.  Per-layer values are per operation (one
reproduction, one batch, one request); a layer a workload never enters
reads 0.  The exit code is 1 when a correctness check failed.

The workloads (see each ``wl_*.py``):

* ``artifact`` - a cold paper reproduction: study, store, report;
* ``sweep`` - the 103,680-point lattice through ``simulate_batch``;
* ``serve`` - the study service under two closed-loop clients.

End-to-end metrics, the same four on every workload:

* ``setup_s`` - median of several set-ups in fresh interpreters (or,
  for ``serve``, fresh server processes until ``/healthz`` answers);
* ``peak_rss_mb`` - peak RSS of the process doing the work (the server
  for ``serve``);
* ``latency_ms`` - the median operation time (``artifact``: one cold
  reproduction; ``sweep``: one 103,680-point batch) or, for ``serve``,
  the mean RTT over all requests, where a failed request counts as
  infinite;
* ``points_per_s`` - matrix points simulated per second: points of one
  operation over its median time, or for ``serve`` the points of the
  studies the service simulated (not dedup hits) over the window.

The times in these metrics are at reference-host speed: host speed on
a shared 2-vCPU machine swings up to 2x over tens of seconds, which
moves plain run figures by up to a fifth.  A short pure-Python
reference loop (``common.host_ref``) runs beside every operation and
set-up, or every half second on a thread of the ``serve`` load
process, and each time is scaled by ``common.REF_S`` over the loop's
time there (``common.host_scale``).  The loop runs no program code, so
a change to the program never moves the scale.  On a 2-vCPU host it
cut the quartile spread of the ``latency_ms`` run figures across seeds
from 0.08-0.2 of the median to 0.05-0.1.  The plain wall-clock figures
and the per-workload names (``artifact_s``, ``report_s``,
``paper_p_mae_pct``, ``sweep_pts_per_s``, ``serve_studies_per_s``,
``serve_rtt_p50_ms``, ``serve_rtt_p90_ms``) are printed in the table.
``host.calib_s`` times a longer loop at the start and end of a run, to
tell a slow host from a slow program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

import common

WORKLOADS = ("artifact", "sweep", "serve")

#: End-to-end metrics, reported by every workload (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_ms": "ms",
    "points_per_s": "points/s",
}

#: Per-layer metrics (``--trace 1``).
PER_LAYER = {
    "codegen.generate_s": "s",
    "codegen.generate_calls": "count",
    "codegen.memo_misses": "count",
    "codegen.cost_s": "s",
    "codegen.cost_calls": "count",
    "codegen.liveness_s": "s",
    "codegen.liveness_calls": "count",
    "dsl.flops_s": "s",
    "dsl.flops_calls": "count",
    "gpu.simulate_calls": "count",
    "gpu.traffic_s": "s",
    "gpu.timing_s": "s",
    "gpu.batch_s": "s",
    "gpu.batch_points": "count",
    "gpu.batch_groups": "count",
    "gpu.batch_rest_s": "s",
    "py.gc_s": "s",
    "py.gc_collections": "count",
    "py.gc_gen2_collections": "count",
    "exec.dispatch_serial": "count",
    "exec.dispatch_vectorized": "count",
    "exec.dispatch_pool": "count",
    "harness.run_study_s": "s",
    "harness.study_points": "count",
    "results.ingest_s": "s",
    "results.load_s": "s",
    "results.render_s": "s",
    "results.ingests": "count",
    "results.ingest_errors": "count",
    "serve.new_rtt_p50_ms": "ms",
    "serve.dedup_rtt_p50_ms": "ms",
    "serve.submit_ms_p50": "ms",
    "serve.fetch_ms_p50": "ms",
    "serve.polls_per_request": "count",
    "serve.queue_wait_ms_p50": "ms",
    "serve.run_ms_p50": "ms",
    "serve.poll_overhead_ms_p50": "ms",
    "serve.dedup_hits": "count",
    "serve.coalesced": "count",
    "serve.microbatch_jobs": "count",
    "serve.rejected": "count",
    "host.calib_s": "s",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so the ``finally`` blocks stop
    # every process the run started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    common.use_source_tree()
    module = __import__(f"wl_{args.workload}")

    if args.setup_probe:
        print(json.dumps({"setup_s": module.setup(args.seed)["setup_s"]}))
        return 0

    report = common.Report()
    scratch = common.scratch_dir(args.workload)
    try:
        module.run(args.seed, args.seconds, bool(args.trace), scratch, report)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run still uses it
    unknown = set(report.layers) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"unlisted per-layer metrics: {sorted(unknown)}")
    common.emit(report, PER_LAYER if args.trace else END_TO_END)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
