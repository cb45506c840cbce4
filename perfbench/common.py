"""Helpers shared by the benchmark's workloads.

Everything here is benchmark code: it never imports ``repro`` at module
level, so a workload can time the program's first import as set-up.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Environment variables that change what the program does; the
#: benchmark pins them off so the caller's shell cannot skew a run.
PROGRAM_ENV = (
    "REPRO_VALIDATE",
    "REPRO_JOBS",
    "REPRO_CACHE_DIR",
    "REPRO_RESULTS_DB",
    "REPRO_TELEMETRY_DB",
    "REPRO_SERVE_URL",
)

#: Iterations of the host reference loop behind ``host.calib_s``
#: (about 50 ms on a 2 GHz core).
CALIB_ITERS = 400_000
#: Iterations of the shorter reference loop run beside each operation.
REF_ITERS = 100_000
#: What that loop takes on the reference host, in seconds.  A wall time
#: scaled by ``REF_S / ref`` (``ref`` the loop's time beside it) is the
#: time on the reference host: the shared host's speed swings up to 2x
#: over tens of seconds, and the ratio cancels the swing.
REF_S = 0.0125


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/``, with a clean env.

    Raises ``SystemExit`` when the checkout holds no program, so the
    benchmark fails instead of reporting numbers for nothing.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"error: no program source at {SRC}/repro")
    for name in PROGRAM_ENV:
        os.environ.pop(name, None)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def scratch_dir(tag: str) -> str:
    """A fresh directory inside the checkout for this run's files."""
    path = os.path.join(ROOT, ".perfbench_tmp", f"{tag}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _ref_loop(iters: int) -> float:
    """Seconds for a fixed pure-Python loop that runs no program code."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iters):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def calibrate() -> float:
    """Seconds for the long reference loop (best of three).

    A host-speed diagnostic (``host.calib_s``): it runs no program code,
    so a change to the program can never move it.
    """
    return min(_ref_loop(CALIB_ITERS) for _ in range(3))


def host_ref() -> float:
    """Seconds for the short reference loop (best of two), about 12 ms."""
    return min(_ref_loop(REF_ITERS) for _ in range(2))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile; ``inf`` entries sort last."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def timed_loop(seconds: float, op, min_reps: int = 3) -> List[float]:
    """Call ``op(rep)`` until ``seconds`` have passed and ``min_reps`` ran.

    Times :func:`host_ref` before each rep and after the last, and
    returns those ``reps + 1`` times for :func:`host_scaled`.
    """
    start = time.perf_counter()
    refs = [host_ref()]
    while len(refs) <= min_reps or time.perf_counter() - start < seconds:
        op(len(refs) - 1)
        refs.append(host_ref())
    return refs


def host_scale(seconds: float, ref_before: float, ref_after: float) -> float:
    """A wall time at reference-host speed.

    Scales by ``REF_S`` over the mean of the reference loop's times
    just before and just after the timed work.
    """
    return seconds * 2 * REF_S / (ref_before + ref_after)


def host_scaled(times: Dict[int, float], refs: Sequence[float]) -> List[float]:
    """Rep wall times (by rep) at reference-host speed."""
    return [host_scale(t, refs[rep], refs[rep + 1]) for rep, t in times.items()]


def probe_setup(workload: str, seed: int, count: int) -> List[float]:
    """Time the workload's set-up in ``count`` fresh interpreters.

    The times are at reference-host speed (:func:`host_scale`).
    """
    samples = []
    for _ in range(count):
        ref_before = host_ref()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if out.returncode != 0:
            raise RuntimeError(
                f"set-up probe for {workload} failed: {out.stderr.strip()}"
            )
        setup_s = json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]
        samples.append(host_scale(setup_s, ref_before, host_ref()))
    return samples


class Report:
    """What one run measured, checked and counted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        # name -> (value, unit, samples); printed, and emitted as JSON
        # when the name is a benchmark metric of the selected mode.
        self.metrics: Dict[str, tuple] = {}
        self.layers: Dict[str, float] = {}
        # host.calib_s at the start and end of the run
        self.calib: List[float] = []

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems and self.attempted > self.failed


def finite(value: float) -> float:
    """JSON has no infinity: an unbounded latency prints as the max float."""
    return value if math.isfinite(value) else sys.float_info.max


def emit(report: Report, units: Dict[str, str]) -> None:
    """Print the human table, then the one-line JSON result."""
    print(f"{'metric':<30}{'value':>16}  {'unit':<12}{'samples':>8}")
    for name, (value, unit, samples) in report.metrics.items():
        print(f"{name:<30}{value:>16.6g}  {unit:<12}{samples:>8}")
    if report.calib:
        print(f"host.calib_s start/end: {report.calib[0]:.4f} / "
              f"{report.calib[-1]:.4f}")
    for problem in report.problems:
        print(f"CHECK FAILED: {problem}")
    metrics = {}
    for name, unit in units.items():
        if name in report.metrics:
            value = report.metrics[name][0]
        else:
            value = report.layers.get(name, 0.0)
        metrics[name] = {"value": finite(value), "unit": unit}
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
