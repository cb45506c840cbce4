"""Workload ``serve``: the study service under a closed loop of two clients.

``repro-stencil serve --journal ... --results-db ...`` runs as its own
process (thread backend, default workers and batch window) on a scratch
directory, started through :mod:`serve_launcher`.  One load process
drives it with 2 closed-loop client threads through ``ServeClient``:
each sends its next request only after the previous one returned its
result bytes.  The seeded request stream asks for 1-3 stencils and 1-3
variants on every platform, with domains on a 64-multiple lattice, and
half the requests repeat an earlier config.  It exercises the HTTP,
queue, journal, dedup and result-store layers the other workloads
barely touch, and mixes reads (dedup hits) with writes (new studies
simulated, journaled and ingested).
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import (HERE, REF_S, ROOT, Report, calibrate, host_ref, host_scale,
                    median, quantile)
from layers import COUNTERS, counter_values, layer_metrics

CLIENTS = 2
#: Seconds between samples of the host reference loop during the window.
REF_PERIOD_S = 0.5
MIN_REQUESTS = 100
DOMAIN_AXIS = [64 * m for m in range(1, 9)]
#: Extra servers started only to sample set-up time.
SETUP_PROBES = 4
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0

#: Server-side CPU timers that together cover the compute and store
#: work; the rest of the server's CPU is HTTP, queue, journal and
#: serialization.
COVERED_CPU = ("harness.run_study_cpu_s", "gpu.batch_cpu_s",
               "results.ingest_cpu_s")

_SERVING = re.compile(r"serving on (http://\S+)")


class RequestStream:
    """The seeded request sequence, shared by the client threads.

    Requests alternate in seeded order between a fresh config and a
    repeat of an earlier one.  Fresh configs come in blocks that use
    every stencil exactly once, in seeded groups of 1-3, and each
    group's variant subset is dealt from a shuffled deck of the seven
    non-empty subsets, one deck per costliest stencil in the group.
    The stratification keeps each run's mix of cheap and costly studies
    close to the average, so two seeds differ in order, not in load.
    """

    def __init__(self, seed: int, stencils, variants) -> None:
        self._rng = random.Random(seed)
        self._stencils = list(stencils)
        self._variants = list(variants)
        self._subsets = [c for k in (1, 2, 3)
                         for c in itertools.combinations(self._variants, k)]
        self._decks: Dict[int, list] = {}
        self._block: List[dict] = []
        self._turns: List[bool] = []
        self._distinct: List[dict] = []
        self._lock = threading.Lock()

    def _fresh(self) -> dict:
        rng = self._rng
        if not self._block:
            order = rng.sample(self._stencils, len(self._stencils))
            while order:
                size = rng.randint(1, 3)
                group, order = set(order[:size]), order[size:]
                top = max(self._stencils.index(s) for s in group)
                deck = self._decks.setdefault(top, [])
                if not deck:
                    deck.extend(rng.sample(self._subsets, len(self._subsets)))
                variants = set(deck.pop())
                self._block.append({
                    "stencils": [s for s in self._stencils if s in group],
                    "variants": [v for v in self._variants if v in variants],
                    "domain": [rng.choice(DOMAIN_AXIS) for _ in range(3)],
                })
        return self._block.pop(0)

    def next(self) -> Tuple[str, dict]:
        with self._lock:
            if not self._turns:
                self._turns = self._rng.sample([True, False], 2)
            if self._turns.pop() or not self._distinct:
                doc = self._fresh()
                self._distinct.append(doc)
            else:
                doc = self._rng.choice(self._distinct)
        return json.dumps(doc, sort_keys=True), doc


class Server:
    """One ``repro-stencil serve`` process on its own scratch files."""

    def __init__(self, scratch: str, tag: str, trace: bool) -> None:
        self.dir = os.path.join(scratch, tag)
        os.makedirs(self.dir)
        self.stats_path = os.path.join(self.dir, "stats.json")
        self.log_path = os.path.join(self.dir, "server.log")
        self.trace = trace
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""

    def start(self) -> float:
        """Spawn the server; seconds until ``/healthz`` answers 200.

        The time is at reference-host speed (``common.host_scale``).
        """
        ref_before = host_ref()
        from repro.errors import ServeError
        from repro.serve import ServeClient

        argv = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                self.stats_path] + (["--trace"] if self.trace else []) + [
            "--", "serve", "--port", "0",
            "--journal", os.path.join(self.dir, "journal.db"),
            "--results-db", os.path.join(self.dir, "results.db"),
        ]
        t0 = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                         cwd=ROOT)
        while time.perf_counter() - t0 < START_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early:\n{self._log()}")
            if not self.url:
                match = _SERVING.search(self._log())
                if match:
                    self.url = match.group(1)
            if self.url:
                try:
                    if ServeClient(self.url, timeout_s=5).health()["status"] == "ok":
                        return host_scale(time.perf_counter() - t0,
                                          ref_before, host_ref())
                except (ServeError, OSError):
                    pass
            time.sleep(0.005)
        raise RuntimeError(f"server not healthy after {START_TIMEOUT_S:g} s")

    def _log(self) -> str:
        with open(self.log_path) as f:
            return f.read()

    def cpu_s(self) -> float:
        """User + system CPU seconds the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> Dict[str, object]:
        """SIGTERM (graceful drain), wait, and return the launcher's stats."""
        if self.proc is None:
            return {}
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if not os.path.exists(self.stats_path):
            return {}
        with open(self.stats_path) as f:
            return json.load(f)


def _drive(url: str, stream: RequestStream,
           seconds: float) -> Tuple[List[dict], float, List[float]]:
    """Run the closed loop.

    Returns the records, the window length and the host reference
    times (``common.host_ref``) a thread took every
    :data:`REF_PERIOD_S` meanwhile.
    """
    from repro.errors import ServeError
    from repro.serve import BackpressureError, ServeClient

    class CountingClient(ServeClient):
        polls = 0

        def status(self, job_id: str):
            self.polls += 1
            return super().status(job_id)

    records: List[dict] = []
    lock = threading.Lock()
    start = time.perf_counter()

    def loop() -> None:
        client = CountingClient(url, timeout_s=REQUEST_TIMEOUT_S)
        while True:
            with lock:
                if (time.perf_counter() - start >= seconds
                        and len(records) >= MIN_REQUESTS):
                    return
            key, doc = stream.next()
            rec: Dict[str, object] = {"key": key, "doc": doc,
                                      "t0": time.perf_counter(),
                                      "wall0": time.time()}
            client.polls = 0
            try:
                job = client.submit(doc)
                rec["submit_ms"] = 1e3 * (time.perf_counter() - rec["t0"])
                rec["dedup"] = bool(job["dedup"])
                final = job
                if job["state"] not in ("done", "failed", "cancelled"):
                    final = client.wait(job["job_id"], timeout_s=REQUEST_TIMEOUT_S)
                rec["t_done"] = time.perf_counter()
                rec["job"] = final
                if final["state"] != "done":
                    rec["error"] = f"job ended {final['state']}"
                else:
                    t1 = time.perf_counter()
                    rec["body"] = client.result_bytes(job["job_id"])
                    rec["fetch_ms"] = 1e3 * (time.perf_counter() - t1)
            except BackpressureError as exc:
                rec["error"] = f"rejected: {exc}"
                rec["rejected"] = True
            except (ServeError, OSError, http.client.HTTPException) as exc:
                rec["error"] = repr(exc)
            rec["t_end"] = time.perf_counter()
            rec["polls"] = client.polls
            with lock:
                records.append(rec)

    refs: List[float] = []
    finished = threading.Event()

    def sample() -> None:
        while True:
            refs.append(host_ref())
            if finished.wait(REF_PERIOD_S):
                return

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    threads = [threading.Thread(target=loop, daemon=True) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    finished.set()
    sampler.join()
    window = max(r["t_end"] for r in records) - start
    return records, window, refs


def _session(scratch: str, tag: str, trace: bool, seed: int,
             seconds: float) -> Dict[str, object]:
    """Start a server, drive it, stop it; returns what was measured."""
    from repro import harness
    from repro.gpu.progmodel import VARIANTS
    from repro.serve import ServeClient

    server = Server(scratch, tag, trace)
    try:
        setup_s = server.start()
        client = ServeClient(server.url)
        before = counter_values(client.metrics())
        cpu0 = server.cpu_s()
        stream = RequestStream(seed, harness.ExperimentConfig().stencils, VARIANTS)
        records, window, refs = _drive(server.url, stream, seconds)
        cpu = server.cpu_s() - cpu0
        after = counter_values(client.metrics())
    finally:
        stats = server.stop()
    counters = {k: after[k] - before[k] for k in COUNTERS}
    return {"setup_s": setup_s, "records": records, "window": window,
            "refs": refs, "counters": counters, "stats": stats, "cpu_s": cpu}


def direct_bytes(key: str) -> bytes:
    """The result bytes of a direct ``run_study`` for one request config."""
    from repro import harness

    study = harness.run_study(harness.config_from_dict(json.loads(key)))
    return json.dumps(harness.study_to_dict(study), indent=1).encode()


def _check(session: Dict[str, object], report: Report) -> Dict[str, bytes]:
    """Failure accounting and the in-session output checks.

    Returns the bytes served for each distinct config.
    """
    records = session["records"]
    counters = session["counters"]
    report.attempted += len(records)
    report.failed += sum(1 for r in records if "error" in r)
    report.failed += int(counters["results.ingest_errors"])
    first_done: Dict[str, float] = {}
    served: Dict[str, bytes] = {}
    for r in sorted(records, key=lambda r: r["t0"]):
        if "body" not in r:
            continue
        key = r["key"]
        if key in first_done and first_done[key] < r["t0"]:
            report.check(r["dedup"], f"repeat of finished config {key} "
                                     f"was not a dedup hit")
        first_done[key] = min(first_done.get(key, r["t_done"]), r["t_done"])
        served.setdefault(key, r["body"])
        report.check(r["body"] == served[key],
                     f"config {key} served two different results")
    points = sum(_points(json.loads(key)) for key in served)
    if not any("error" in r for r in records):
        report.check(
            counters["study.points"] == points,
            f"server simulated {counters['study.points']:.0f} points for "
            f"{len(served)} distinct configs of {points} points: "
            f"repeats were re-simulated",
        )
    return served


def _check_direct(served: Dict[str, bytes], report: Report) -> None:
    """Every distinct config's served bytes against a direct run_study.

    Runs in this process: a process pool would leave its resource
    tracker behind as an unreaped child when the benchmark exits.
    """
    for key in sorted(served):
        report.check(served[key] == direct_bytes(key),
                     f"served result for {key} differs from a direct run_study")


def _points(doc: dict) -> int:
    """Matrix points in the study a request asks for."""
    from repro import harness

    return len(harness.config_from_dict(doc).keys())


def _rtts_ms(records: List[dict]) -> List[float]:
    """RTT of every request; a failed or refused one never finishes."""
    return [1e3 * (r["t_end"] - r["t0"]) if "body" in r else float("inf")
            for r in records]


def _new_rtts_ms(records: List[dict]) -> List[float]:
    """RTTs of the requests the service had to simulate (not dedup hits).

    All-request percentiles near the median are unstable: about half
    the requests are dedup hits, so the median falls between the fast
    and the slow mode.
    """
    return _rtts_ms([r for r in records if not r.get("dedup")])


def _serve_layers(session: Dict[str, object]) -> Dict[str, float]:
    records = [r for r in session["records"] if "body" in r]
    counters = session["counters"]
    timers = session["stats"].get("timers", {})
    n = max(1, len(records))
    layers = layer_metrics(timers, counters, len(records))
    new = [r for r in records if not r["dedup"]]
    created = [r for r in new if r["job"]["created_s"] >= r["wall0"]]
    ms = lambda seq: 1e3 * median(seq)  # noqa: E731 - local shorthand
    layers.update({
        "serve.new_rtt_p50_ms": median(_new_rtts_ms(records)),
        "serve.dedup_rtt_p50_ms": median(_rtts_ms([r for r in records if r["dedup"]])),
        "serve.submit_ms_p50": median([r["submit_ms"] for r in records]),
        "serve.fetch_ms_p50": median([r["fetch_ms"] for r in records]),
        "serve.polls_per_request": sum(r["polls"] for r in records) / n,
        "serve.queue_wait_ms_p50": ms([r["job"]["started_s"] - r["job"]["created_s"]
                                       for r in new]),
        "serve.run_ms_p50": ms([r["job"]["finished_s"] - r["job"]["started_s"]
                                for r in new]),
        "serve.poll_overhead_ms_p50": median([
            1e3 * (r["t_end"] - r["t0"])
            - 1e3 * (r["job"]["finished_s"] - r["job"]["created_s"])
            for r in created
        ]),
        "serve.dedup_hits": counters["serve.dedup_hits"] / n,
        "serve.coalesced": counters["serve.coalesced"] / n,
        "serve.microbatch_jobs": counters["serve.microbatch.jobs"] / n,
        "serve.rejected": counters["serve.rejected"] / n,
    })
    covered = sum(timers.get(k, 0.0) for k in COVERED_CPU)
    layers["trace.unattributed_pct"] = 100 * (1 - covered / session["cpu_s"])
    return layers


def run(seed: int, seconds: float, trace: bool, scratch: str,
        report: Report) -> None:
    calib = [calibrate()]
    setup = []
    if not trace:
        for i in range(SETUP_PROBES):
            probe = Server(scratch, f"probe{i}", trace=False)
            try:
                setup.append(probe.start())
            finally:
                probe.stop()
        plain = _session(scratch, "plain", False, seed, seconds)
        setup.append(plain["setup_s"])
        traced = None
    else:
        plain = _session(scratch, "plain", False, seed, seconds / 2)
        traced = _session(scratch, "traced", True, seed, seconds / 2)
    calib.append(calibrate())
    served: Dict[str, bytes] = {}
    for session in (plain, traced):
        if session is not None:
            for key, body in _check(session, report).items():
                report.check(served.setdefault(key, body) == body,
                             f"config {key} served different results by two servers")
    _check_direct(served, report)
    report.calib = calib

    records = plain["records"]
    done = [r for r in records if "body" in r]
    new_rtts = _new_rtts_ms(records)
    if not trace:
        window = plain["window"]
        rtts = _rtts_ms(records)
        report.metric("setup_s", median(setup), "s", len(setup))
        report.metric("peak_rss_mb", plain["stats"].get("peak_rss_mb", 0.0), "MB", 1)
        # Host speed over the window, as a factor to reference-host speed.
        host = median(plain["refs"]) / REF_S
        new = [r for r in done if not r["dedup"]]
        rtt_mean_ms = sum(rtts) / len(rtts)
        points_per_s = sum(_points(r["doc"]) for r in new) / window
        report.metric("latency_ms", rtt_mean_ms / host, "ms", len(rtts))
        report.metric("points_per_s", points_per_s * host, "points/s", len(new))
        report.metric("wall_latency_ms", rtt_mean_ms, "ms", len(rtts))
        report.metric("wall_points_per_s", points_per_s, "points/s", len(new))
        report.metric("serve_studies_per_s", len(done) / window, "studies/s",
                      len(done))
        report.metric("serve_rtt_p50_ms", quantile(rtts, 0.5), "ms", len(rtts))
        report.metric("serve_rtt_p90_ms", quantile(rtts, 0.9), "ms", len(rtts))
        return
    layers = _serve_layers(traced)
    layers["host.calib_s"] = median(calib)
    layers["trace.overhead_pct"] = 100 * (
        quantile(_new_rtts_ms(traced["records"]), 0.5)
        / quantile(new_rtts, 0.5) - 1)
    report.layers.update(layers)
