"""Stdlib HTTP front-end for the study-serving orchestrator.

A deliberately small REST surface over
:class:`~repro.serve.orchestrator.Orchestrator`:

====== ========================== ===========================================
Verb   Path                       Meaning
====== ========================== ===========================================
POST   ``/studies``               Submit a study; 202 + job doc (200 on a
                                  dedup hit), 429 + ``Retry-After`` when the
                                  queue is full, 400 on a bad config.
GET    ``/jobs``                  List all known jobs (status docs).
GET    ``/jobs/<id>``             One job's status doc; 404 when unknown.
GET    ``/jobs/<id>/result``      The finished study as JSON — byte-identical
                                  to ``repro.harness.dump_study`` of a direct
                                  run; 409 while the job is not ``done``.
DELETE ``/jobs/<id>``             Cancel a still-queued job; 409 otherwise.
GET    ``/healthz``               Liveness + queue depth.
GET    ``/metricz``               Counter snapshot (the ``serve.*`` family
                                  and everything else in the registry).
====== ========================== ===========================================

Request bodies and responses are JSON.  A submission body is
``{"config": {...}, "options": {...}}`` where both keys are optional —
an empty body requests the paper's full default study.

Every request runs under a ``serve.request`` span (the handler thread
becomes a trace root, so concurrent requests interleave cleanly in the
exported trace) and bumps ``serve.http.<status-class>`` counters.

No new dependencies: :class:`http.server.ThreadingHTTPServer` gives one
thread per connection, which is plenty for a repro-study service whose
jobs execute on the orchestrator's own worker pool.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.errors import MetricError, QueueFullError, ServeError
from repro.harness.experiments import config_from_dict
from repro.harness.serialization import study_to_dict
from repro.obs import counter, span
from repro.serve.jobs import Job, JobOptions
from repro.serve.orchestrator import Orchestrator

__all__ = ["StudyServer", "start_server"]

_JOB_PATH = re.compile(r"^/jobs/([A-Za-z0-9_.-]+)(/result)?$")

#: Cap request bodies well above any real config document.
_MAX_BODY_BYTES = 1 << 20


def result_payload(job: Job) -> bytes:
    """The result body: exactly the bytes ``dump_study`` would write.

    Byte-identity with a direct :func:`repro.harness.run_study` +
    ``dump_study`` round-trip is an acceptance contract of the service
    (clients diff service results against local runs), so the JSON
    rendering — ``indent=1``, default separators — must match
    :func:`repro.harness.serialization.dump_study` forever.
    """
    assert job.study is not None
    return json.dumps(study_to_dict(job.study), indent=1).encode()


class ServeHandler(BaseHTTPRequestHandler):
    """One HTTP exchange; routing is a handful of literal paths."""

    server: "StudyServer"
    protocol_version = "HTTP/1.1"

    def _status_doc(self, job: Job) -> Dict[str, Any]:
        """A job's status doc plus the ``poll_after_s`` backoff hint.

        The hint is the server's honest estimate of when polling again
        could possibly observe progress; :class:`ServeClient.wait`
        honours it instead of blind exponential backoff.
        """
        doc = job.status_dict()
        doc["poll_after_s"] = self.server.orchestrator.poll_hint_s(job)
        return doc

    # ---- plumbing ----------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        # Route access logs through a counter instead of stderr noise;
        # the span export carries per-request detail.
        counter("serve.http.requests").inc()

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        counter(f"serve.http.{status // 100}xx").inc()

    def _send_json(
        self,
        status: int,
        doc: Any,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send(
            status,
            (json.dumps(doc, indent=1) + "\n").encode(),
            extra_headers=extra_headers,
        )

    def _error(
        self,
        status: int,
        message: str,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send_json(status, {"error": message}, extra_headers)

    def _read_body(self) -> bytes:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = None
        if length is None or not 0 <= length <= _MAX_BODY_BYTES:
            # The body is left unread, so the rest of the stream is not
            # a next request: answer, then close the connection.
            self.close_connection = True
            if length is not None and length > _MAX_BODY_BYTES:
                raise ServeError(f"request body too large ({length} bytes)")
            raise ServeError(f"bad Content-Length {header!r}")
        return self.rfile.read(length) if length else b""

    # ---- verbs -------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        with span("serve.request", method="POST", path=self.path):
            if self.path.rstrip("/") != "/studies":
                self._error(404, f"no such endpoint: POST {self.path}")
                return
            try:
                raw = self._read_body()
                doc = json.loads(raw) if raw.strip() else {}
                if not isinstance(doc, dict):
                    raise ServeError(
                        f"submission body must be a JSON object, "
                        f"got {type(doc).__name__}"
                    )
                unknown = set(doc) - {"config", "options"}
                if unknown:
                    raise ServeError(
                        f"unknown submission keys: {sorted(unknown)}"
                    )
                config = config_from_dict(doc.get("config"))
                options = JobOptions.from_dict(doc.get("options"))
            except (ServeError, MetricError) as exc:
                self._error(400, str(exc))
                return
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                self._error(400, f"request body is not valid JSON: {exc}")
                return
            try:
                job = self.server.orchestrator.submit(config, options)
            except QueueFullError as exc:
                self._error(
                    429,
                    str(exc),
                    {"Retry-After": str(int(exc.retry_after_s))},
                )
                return
            self._send_json(200 if job.dedup else 202, self._status_doc(job))

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        with span("serve.request", method="GET", path=self.path):
            if self.path.rstrip("/") == "/healthz":
                orch = self.server.orchestrator
                self._send_json(
                    200,
                    {
                        "status": "ok",
                        "queue_depth": len(orch.queue),
                        "jobs": len(orch.jobs()),
                        "store_entries": len(orch.store),
                        "backend": orch.backend,
                        "journal": getattr(orch.journal, "path", None),
                    },
                )
                return
            if self.path.rstrip("/") == "/metricz":
                from repro.obs import get_registry

                self._send_json(200, get_registry().snapshot())
                return
            if self.path.rstrip("/") == "/jobs":
                self._send_json(
                    200,
                    {
                        "jobs": [
                            self._status_doc(j)
                            for j in self.server.orchestrator.jobs()
                        ]
                    },
                )
                return
            match = _JOB_PATH.match(self.path)
            if not match:
                self._error(404, f"no such endpoint: GET {self.path}")
                return
            job_id, want_result = match.group(1), bool(match.group(2))
            try:
                job = self.server.orchestrator.job(job_id)
            except ServeError as exc:
                self._error(404, str(exc))
                return
            if not want_result:
                self._send_json(200, self._status_doc(job))
                return
            if job.state != "done":
                self._error(
                    409,
                    f"job {job_id} is {job.state}; result available "
                    f"only for done jobs"
                    + (f" (error: {job.error})" if job.error else ""),
                )
                return
            counter("serve.results_served").inc()
            self._send(200, result_payload(job))

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        with span("serve.request", method="DELETE", path=self.path):
            match = _JOB_PATH.match(self.path)
            if not match or match.group(2):
                self._error(404, f"no such endpoint: DELETE {self.path}")
                return
            try:
                job = self.server.orchestrator.cancel(match.group(1))
            except ServeError as exc:
                status = 404 if "no such job" in str(exc) else 409
                self._error(status, str(exc))
                return
            self._send_json(200, job.status_dict())


class StudyServer(ThreadingHTTPServer):
    """The service: an orchestrator plus a threading HTTP front door."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int] = ("127.0.0.1", 8787),
        orchestrator: Optional[Orchestrator] = None,
    ) -> None:
        super().__init__(address, ServeHandler)
        self.orchestrator = orchestrator or Orchestrator()

    @property
    def port(self) -> int:
        return int(self.server_address[1])

    def start(self) -> None:
        """Start orchestrator workers (the HTTP loop runs via serve())."""
        self.orchestrator.start()

    def shutdown_all(self, drain_timeout_s: float = 10.0) -> None:
        """Stop accepting requests, drain the workers, close the journal."""
        self.shutdown()
        self.orchestrator.stop(timeout_s=drain_timeout_s)
        self.orchestrator.close()


def start_server(
    port: int = 0,
    orchestrator: Optional[Orchestrator] = None,
    host: str = "127.0.0.1",
) -> Tuple[StudyServer, threading.Thread]:
    """Boot a server on a background thread; ``port=0`` picks a free one.

    The embedding entry point used by tests, the bench harness, and the
    CLI; returns once the socket is listening, so a client may connect
    immediately.  Call ``server.shutdown_all()`` to tear down.
    """
    server = StudyServer((host, port), orchestrator)
    server.start()
    thread = threading.Thread(
        target=server.serve_forever, name="serve-http", daemon=True
    )
    thread.start()
    return server, thread
