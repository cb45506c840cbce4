"""HTTP layer e2e: REST contract, byte-identity, 429 backpressure."""

import http.client
import json
import urllib.error
import urllib.request

import pytest

from repro import harness, obs
from repro.errors import ServeError
from repro.harness.experiments import ExperimentConfig
from repro.serve import (
    BackpressureError,
    JobOptions,
    Orchestrator,
    ResultStore,
    ServeClient,
    start_server,
)

SMALL_DOC = {
    "stencils": ["7pt"], "variants": ["array"], "domain": [64, 64, 64]
}
SMALL = ExperimentConfig(stencils=("7pt",), variants=("array",), domain=(64, 64, 64))


@pytest.fixture
def registry():
    prev = obs.get_registry()
    reg = obs.set_registry(obs.MetricsRegistry())
    yield reg
    obs.set_registry(prev)


@pytest.fixture
def service(registry):
    """A live server on a free port, torn down after the test."""
    orchestrator = Orchestrator(
        ResultStore(), queue_limit=4, workers=1, batch_window=4
    )
    server, thread = start_server(0, orchestrator)
    server.start()
    client = ServeClient(f"http://127.0.0.1:{server.port}", timeout_s=30.0)
    yield client, orchestrator
    server.shutdown_all()


class TestEndToEnd:
    def test_submit_poll_fetch(self, service):
        client, _ = service
        job = client.submit(SMALL_DOC)
        assert job["state"] in ("queued", "running", "done")
        final = client.wait(job["job_id"])
        assert final["state"] == "done"
        assert final["complete"] is True
        doc = client.result(job["job_id"])
        assert len(doc["results"]) == 5  # 1 stencil x 5 platforms x 1 variant

    def test_result_bytes_identical_to_dump_study(self, service, tmp_path):
        client, _ = service
        doc = client.run(SMALL_DOC)
        job = client.submit(SMALL_DOC)  # dedup: same stored study
        body = client.result_bytes(job["job_id"])
        path = tmp_path / "direct.json"
        harness.dump_study(harness.run_study(SMALL), str(path))
        assert body == path.read_bytes()
        assert doc == json.loads(body)

    def test_duplicate_submission_is_served_from_store(self, service, registry):
        client, _ = service
        client.run(SMALL_DOC)
        study_points_before = registry.counter("study.points").value
        job = client.submit(SMALL_DOC)
        assert job["dedup"] is True and job["state"] == "done"
        # Zero simulation happened for the duplicate.
        assert registry.counter("study.points").value == study_points_before
        assert registry.counter("serve.dedup_hits").value == 1

    def test_default_config_is_the_paper_study(self, service):
        client, _ = service
        job = client.submit()  # empty body
        final = client.wait(job["job_id"])
        assert final["points"] == 90  # 6 stencils x 5 platforms x 3 variants

    def test_two_concurrent_tenants_share_the_pool(self, service):
        client, _ = service
        a = client.submit(SMALL_DOC)
        b = client.submit(
            {"stencils": ["13pt"], "variants": ["array"],
             "domain": [64, 64, 64]}
        )
        assert a["job_id"] != b["job_id"]
        assert client.wait(a["job_id"])["state"] == "done"
        assert client.wait(b["job_id"])["state"] == "done"

    def test_per_job_chaos_options_degrade_gracefully(self, service):
        client, _ = service
        doc = client.run(
            SMALL_DOC, {"inject_faults": 0, "retries": 0},
        )
        # Degraded but served: failed points render as explicit records.
        assert doc["failed"] and len(doc["results"]) < 5


class TestBackpressure:
    def test_queue_full_returns_429_with_retry_after(self, service):
        client, orchestrator = service
        # One sleepy job occupies the single worker; 4 more fill the
        # queue (limit=4); the next submission must bounce.
        sleepy = {"sleep_s": 2.0}
        docs = [
            {"stencils": ["7pt"], "variants": ["array"], "domain": [64 + i, 64, 64]}
            for i in range(6)
        ]
        rejected = None
        for i, doc in enumerate(docs):
            try:
                client.submit(doc, sleepy)
            except BackpressureError as exc:
                rejected = exc
                break
        assert rejected is not None, "queue never filled"
        assert rejected.retry_after_s >= 1.0
        # The raw response carries the header, not just the exception.
        req = urllib.request.Request(
            f"{client.base_url}/studies", method="POST",
            data=json.dumps({"config": docs[-1], "options": sleepy}).encode(),
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=5)
        assert err.value.code == 429
        assert float(err.value.headers["Retry-After"]) >= 1.0


class TestErrorContract:
    def test_bad_config_is_400(self, service):
        client, _ = service
        with pytest.raises(ServeError, match="400"):
            client.submit({"stencils": ["1000000pt"]})

    def test_unknown_option_is_400(self, service):
        client, _ = service
        with pytest.raises(ServeError, match="400"):
            client.submit(SMALL_DOC, {"priority": "high"})

    def test_malformed_json_is_400(self, service):
        client, _ = service
        req = urllib.request.Request(
            f"{client.base_url}/studies", method="POST", data=b"{not json"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=5)
        assert err.value.code == 400

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_400(self, service, length):
        # Once a dropped connection (``abc``) and a read that blocked
        # until the client hung up (``-1``).
        client, _ = service
        host, port = client.base_url.rsplit("/", 1)[-1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            conn.putrequest("POST", "/studies")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "Content-Length" in body["error"]

    def test_unknown_job_is_404(self, service):
        client, _ = service
        with pytest.raises(ServeError, match="404"):
            client.status("j99999")

    def test_unknown_endpoint_is_404(self, service):
        client, _ = service
        with pytest.raises(ServeError, match="404"):
            client._json("GET", "/nope")

    def test_result_before_done_is_409(self, service):
        client, _ = service
        job = client.submit(SMALL_DOC, {"sleep_s": 3.0})
        with pytest.raises(ServeError, match="409"):
            client.result_bytes(job["job_id"])

    def test_cancel_running_or_done_is_409(self, service):
        client, _ = service
        job = client.submit(SMALL_DOC)
        client.wait(job["job_id"])
        with pytest.raises(ServeError, match="409"):
            client.cancel(job["job_id"])


class TestControlPlane:
    def test_cancel_queued_job(self, service):
        client, orchestrator = service
        # Occupy the worker so the next job stays queued.
        client.submit(SMALL_DOC, {"sleep_s": 2.0})
        victim = client.submit(
            {"stencils": ["25pt"], "variants": ["array"],
             "domain": [64, 64, 64]},
            {"sleep_s": 2.0},
        )
        doc = client.cancel(victim["job_id"])
        assert doc["state"] == "cancelled"
        assert client.status(victim["job_id"])["state"] == "cancelled"

    def test_health_and_jobs_listing(self, service):
        client, _ = service
        health = client.health()
        assert health["status"] == "ok"
        client.run(SMALL_DOC)
        listing = client.jobs()
        assert any(j["state"] == "done" for j in listing["jobs"])

    def test_metricz_exposes_serve_counters(self, service):
        client, _ = service
        client.run(SMALL_DOC)
        metrics = client.metrics()
        assert metrics["serve.requests"] >= 1
        assert metrics["serve.jobs.done"] >= 1

    def test_client_run_happy_path_and_unreachable_server(self, service):
        client, _ = service
        doc = client.run(SMALL_DOC)
        assert len(doc["results"]) == 5
        dead = ServeClient("http://127.0.0.1:9", timeout_s=0.5)
        with pytest.raises(ServeError, match="cannot reach"):
            dead.health()


class TestWaitBackoff:
    """Unit-level: ``wait`` honours server poll hints without a server."""

    def make_client(self, docs):
        """A client whose ``status`` pops canned docs instead of GETting."""
        client = ServeClient("http://127.0.0.1:9")
        feed = list(docs)
        client.status = lambda job_id: feed.pop(0)  # type: ignore[method-assign]
        return client

    def record_sleeps(self, monkeypatch):
        from repro.serve import client as client_mod

        sleeps = []
        monkeypatch.setattr(
            client_mod.time, "sleep", lambda s: sleeps.append(s)
        )
        return sleeps

    def test_server_hint_sets_the_cadence(self, monkeypatch):
        sleeps = self.record_sleeps(monkeypatch)
        client = self.make_client([
            {"state": "queued", "poll_after_s": 0.4},
            {"state": "running", "poll_after_s": 0.2},
            {"state": "done"},
        ])
        assert client.wait("j00001")["state"] == "done"
        assert sleeps == [0.4, 0.2]

    def test_hint_is_clamped_to_the_poll_bounds(self, monkeypatch):
        sleeps = self.record_sleeps(monkeypatch)
        client = self.make_client([
            {"state": "queued", "poll_after_s": 30.0},   # server estimate
            {"state": "queued", "poll_after_s": 0.0001},  # absurdly eager
            {"state": "done"},
        ])
        client.wait("j00001")
        assert sleeps == [1.0, 0.05]  # [_POLL_MAX_S, _POLL_MIN_S]

    def test_no_hint_falls_back_to_doubling(self, monkeypatch):
        sleeps = self.record_sleeps(monkeypatch)
        client = self.make_client(
            [{"state": "running"}] * 6 + [{"state": "done"}]
        )
        client.wait("j00001")
        assert sleeps == [0.05, 0.1, 0.2, 0.4, 0.8, 1.0]

    def test_max_polls_exhaustion_raises(self, monkeypatch):
        self.record_sleeps(monkeypatch)
        client = self.make_client([{"state": "running"}] * 10)
        with pytest.raises(ServeError, match="not terminal after 5"):
            client.wait("j00001", max_polls=5)
