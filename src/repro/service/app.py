"""HTTP edge of the scenario-planning service (stdlib ``http.server``).

:class:`ServiceApp` is a transport-free request dispatcher — method + path
in, ``(status, headers, payload)`` out — so every route, status code and
error mapping is unit-testable without opening a socket.
:class:`ScenarioService` binds it to a ``ThreadingHTTPServer`` and owns the
lifecycle: start the :class:`~repro.service.queue.JobQueue` (recovering any
journaled jobs), serve, and on SIGTERM/SIGINT **drain gracefully** —
``/readyz`` flips to 503 immediately, in-flight jobs finish or checkpoint
within the grace budget, then the listener closes.

Endpoints (all JSON)::

    GET     /healthz            200 live queue counters
    GET     /readyz             200 ready | 503 draining
    POST    /jobs               201 created | 200 coalesced | 400 invalid
                                | 429 over capacity (+ Retry-After)
                                | 503 draining (+ Retry-After)
    GET     /jobs               200 every retained job
    GET     /jobs/{id}          200 job view | 404 unknown
    GET     /jobs/{id}/result   200 done | 206 partial | 202 still open
                                | 410 cancelled | 500 failed | 404 unknown
    DELETE  /jobs/{id}          200 cancellation accepted | 409 already
                                terminal | 404 unknown

The 206 is deliberate: a deadline-expired or drain-checkpointed job serves
the table of its completed shards as an explicit *partial content* answer,
mirroring the CLI's exit code 3 (see ``docs/robustness.md`` for the full
job-state ↔ HTTP ↔ exit-code mapping).
"""

from __future__ import annotations

import json
import re
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.errors import AdmissionError, ConfigurationError, UnknownJobError
from repro.service.queue import JobQueue
from repro.service.schemas import JobRequest

__all__ = ["ScenarioService", "ServiceApp", "serve"]

#: Hard cap on request body size [bytes] (HTTP 413 beyond it).
MAX_BODY_BYTES = 1 << 20

_ROUTES = (
    ("GET", re.compile(r"^/healthz$"), "healthz"),
    ("GET", re.compile(r"^/readyz$"), "readyz"),
    ("POST", re.compile(r"^/jobs$"), "submit"),
    ("GET", re.compile(r"^/jobs$"), "list_jobs"),
    ("GET", re.compile(r"^/jobs/([0-9a-f]{1,64})$"), "get_job"),
    ("GET", re.compile(r"^/jobs/([0-9a-f]{1,64})/result$"), "get_result"),
    ("DELETE", re.compile(r"^/jobs/([0-9a-f]{1,64})$"), "cancel_job"),
)


def _retry_headers(retry_after_s: float) -> dict:
    return {"Retry-After": str(max(1, round(retry_after_s)))}


class ServiceApp:
    """Transport-free dispatcher from (method, path, body) to JSON responses.

    Args:
        queue: The job queue every route operates on.
    """

    def __init__(self, queue: JobQueue) -> None:
        self.queue = queue

    def dispatch(self, method: str, path: str, body: bytes,
                 client: str) -> tuple[int, dict, dict]:
        """Route one request.

        Args:
            method: HTTP method.
            path: Request path (query strings are ignored).
            body: Raw request body.
            client: Client identity (``X-Client-Id`` header or peer
                address) for the per-client admission cap.

        Returns:
            ``(status, extra_headers, payload)`` — the payload is the
            JSON-serialisable response body.
        """
        path = path.split("?", 1)[0]
        allowed: list[str] = []
        for route_method, pattern, name in _ROUTES:
            match = pattern.match(path)
            if match is None:
                continue
            if route_method != method:
                allowed.append(route_method)
                continue
            handler = getattr(self, "_" + name)
            try:
                return handler(*match.groups(), body=body, client=client)
            except UnknownJobError as exc:
                return 404, {}, {"error": f"unknown job {exc.args[0]!r}"}
            except ConfigurationError as exc:
                return 400, {}, {"error": str(exc)}
            except AdmissionError as exc:
                status = 503 if self.queue.draining else 429
                return (status, _retry_headers(exc.retry_after_s),
                        {"error": str(exc),
                         "retry_after_s": exc.retry_after_s})
        if allowed:
            return (405, {"Allow": ", ".join(sorted(set(allowed)))},
                    {"error": f"method {method} not allowed on {path}"})
        return 404, {}, {"error": f"no route for {path}"}

    # -- routes --------------------------------------------------------------

    def _healthz(self, body: bytes, client: str) -> tuple[int, dict, dict]:
        return 200, {}, {"status": "ok", **self.queue.stats()}

    def _readyz(self, body: bytes, client: str) -> tuple[int, dict, dict]:
        if self.queue.draining:
            return 503, _retry_headers(30.0), {"status": "draining"}
        return 200, {}, {"status": "ready"}

    def _submit(self, body: bytes, client: str) -> tuple[int, dict, dict]:
        try:
            payload = json.loads(body or b"null")
        except json.JSONDecodeError as exc:
            return 400, {}, {"error": f"request body is not JSON: {exc}"}
        request = JobRequest.from_mapping(payload, client=client)
        job, created = self.queue.submit(request)
        return (201 if created else 200, {},
                {"created": created, "job": job.view().to_mapping()})

    def _list_jobs(self, body: bytes, client: str) -> tuple[int, dict, dict]:
        return 200, {}, {"jobs": [job.view().to_mapping()
                                  for job in self.queue.list_jobs()]}

    def _get_job(self, job_id: str, body: bytes,
                 client: str) -> tuple[int, dict, dict]:
        job = self.queue.get(job_id)
        return 200, {}, {"job": job.view().to_mapping()}

    def _get_result(self, job_id: str, body: bytes,
                    client: str) -> tuple[int, dict, dict]:
        job, document = self.queue.result(job_id)
        view = job.view().to_mapping()
        if job.state in ("queued", "running"):
            return (202, _retry_headers(2.0),
                    {"job": view, "error": "job still open; poll again"})
        if job.state == "failed":
            return 500, {}, {"job": view, "error": job.error}
        if job.state == "cancelled":
            return 410, {}, {"job": view, "error": "job was cancelled",
                             "result": document}
        status = 200 if job.state == "done" else 206
        return status, {}, {"job": view, "result": document}

    def _cancel_job(self, job_id: str, body: bytes,
                    client: str) -> tuple[int, dict, dict]:
        job, accepted = self.queue.cancel(job_id)
        if not accepted:
            return (409, {}, {"job": job.view().to_mapping(),
                              "error": f"job is already {job.state}"})
        return 200, {}, {"job": job.view().to_mapping()}


def _make_handler(app: ServiceApp) -> type[BaseHTTPRequestHandler]:
    """A ``BaseHTTPRequestHandler`` subclass bound to one app instance."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Buffer the response so its headers and body leave in one send;
        # ``handle_one_request`` flushes after every request.
        wbufsize = -1

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            pass  # request logging lives in jobs.jsonl, not stderr

        def _client_id(self) -> str:
            header = self.headers.get("X-Client-Id")
            if header:
                return header.strip()
            return str(self.client_address[0])

        def _respond(self, status: int, headers: dict, payload: dict) -> None:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)

        def _handle(self, method: str) -> None:
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                length = 0
            if length > MAX_BODY_BYTES:
                self._respond(413, {}, {
                    "error": f"request body exceeds {MAX_BODY_BYTES} bytes"})
                return
            body = self.rfile.read(length) if length > 0 else b""
            try:
                status, headers, payload = app.dispatch(
                    method, self.path, body, self._client_id())
            except Exception as exc:  # a bug must not kill the listener
                status, headers = 500, {}
                payload = {"error": f"internal error: {exc!r}"}
            self._respond(status, headers, payload)

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            self._handle("GET")

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            self._handle("POST")

        def do_DELETE(self) -> None:  # noqa: N802 - http.server API
            self._handle("DELETE")

    return Handler


class ScenarioService:
    """The bound service: queue + app + threaded HTTP listener.

    Args:
        host: Bind address.
        port: Bind port (``0`` picks a free one; see :attr:`port`).
        store_dir: Service state directory (shards, ``jobs.jsonl``, run
            journals) — ``None`` runs in memory without crash recovery.
        workers: Concurrent job-executing threads.
        max_queue: Waiting-job admission bound.
        max_per_client: Per-client open-job admission cap.
        max_job_procs: Per-job worker-process clamp.
        drain_grace_s: Wall-clock budget for in-flight jobs on shutdown.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 store_dir: str | Path | None = None, *, workers: int = 2,
                 max_queue: int = 8, max_per_client: int = 4,
                 max_job_procs: int = 1,
                 drain_grace_s: float = 30.0) -> None:
        self.queue = JobQueue(store_dir, workers=workers, max_queue=max_queue,
                              max_per_client=max_per_client,
                              max_job_procs=max_job_procs)
        self.app = ServiceApp(self.queue)
        self.drain_grace_s = drain_grace_s
        self.server = ThreadingHTTPServer((host, port),
                                          _make_handler(self.app))
        self.server.daemon_threads = True
        self._shutdown_started = threading.Event()

    @property
    def port(self) -> int:
        """The actual bound port (useful with ``port=0``)."""
        return self.server.server_address[1]

    def start(self) -> None:
        """Start the queue workers (recovering journaled jobs first)."""
        self.queue.start()

    def serve_forever(self) -> None:
        """Serve until :meth:`initiate_shutdown` completes the drain."""
        try:
            self.server.serve_forever(poll_interval=0.1)
        finally:
            self.server.server_close()

    def initiate_shutdown(self) -> None:
        """Begin the graceful drain (idempotent, signal-handler safe).

        Admissions are refused immediately (``/readyz`` → 503, ``POST
        /jobs`` → 503) while status/result endpoints keep serving; once
        in-flight jobs finished or checkpointed the listener stops and
        :meth:`serve_forever` returns.
        """
        if self._shutdown_started.is_set():
            return
        self._shutdown_started.set()

        def _drain() -> None:
            self.queue.drain(self.drain_grace_s)
            self.server.shutdown()

        threading.Thread(target=_drain, name="service-drain",
                         daemon=True).start()


def serve(host: str = "127.0.0.1", port: int = 8765,
          store_dir: str | Path | None = None, *, workers: int = 2,
          max_queue: int = 8, max_per_client: int = 4,
          max_job_procs: int = 1, drain_grace_s: float = 30.0,
          install_signals: bool = True,
          ready: "threading.Event | None" = None) -> ScenarioService:
    """Run the service until SIGTERM/SIGINT drains it (the CLI entry).

    Args:
        host: Bind address.
        port: Bind port (``0`` picks a free one).
        store_dir: Service state directory; ``None`` disables persistence.
        workers: Concurrent job-executing threads.
        max_queue: Waiting-job admission bound.
        max_per_client: Per-client open-job admission cap.
        max_job_procs: Per-job worker-process clamp.
        drain_grace_s: Shutdown grace budget [s].
        install_signals: Install SIGTERM/SIGINT handlers (main thread
            only; tests drive :meth:`ScenarioService.initiate_shutdown`
            directly).
        ready: Optional event set once the listener is bound and the
            queue recovered — lets a test thread wait for readiness.

    Returns:
        The drained service (exposes the queue for post-run inspection).
    """
    service = ScenarioService(host, port, store_dir, workers=workers,
                              max_queue=max_queue,
                              max_per_client=max_per_client,
                              max_job_procs=max_job_procs,
                              drain_grace_s=drain_grace_s)
    service.start()
    if install_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum,
                          lambda *_: service.initiate_shutdown())
    if ready is not None:
        ready.set()
    service.serve_forever()
    return service
