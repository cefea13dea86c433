"""The job server's HTTP/JSON surface (stdlib ``http.server`` only).

Routes::

    GET  /healthz                → liveness, per-state counts, worker
                                   heartbeat ages, draining flag,
                                   cache stats, events-appended counter
    GET  /algorithms             → machine-readable capability table
    GET  /jobs[?tenant=NAME]     → job listing (records, newest first)
    POST /jobs                   → submit; 202 record | 200 dedupe |
                                   400 | 413 | 429 | 503.  An optional
                                   ``Idempotency-Key`` header (and,
                                   always, the content-derived key)
                                   collapses retries onto one job
    GET  /jobs/<id>              → one job record (+ dead-letter
                                   ``failures`` history when present)
    GET  /jobs/<id>/events[?offset=N]
                                 → the job's progress event log from
                                   position N on (resumable polling)
    GET  /jobs/<id>/result       → stored result bytes (done jobs)
    POST /jobs/<id>/cancel       → request cancellation
    POST /drain                  → graceful drain: stop admission,
                                   checkpoint-and-stop running jobs

Error semantics mirror the CLI's exit codes (the DESIGN doc carries the
full mapping):

* a request the server refuses to *parse* — malformed JSON, a bad
  ``Content-Length``, a bad ``offset`` — is a structured ``400`` with a
  machine-readable ``reason`` (no capability table: the client's
  transport is broken, not its submission);
* a body larger than ``MAX_BODY_BYTES`` is ``413`` and the connection
  is closed (the unread body cannot be skipped safely);
* a client that stalls mid-request past the handler timeout gets its
  connection dropped (slow-loris defence) — handler threads are a
  finite resource;
* a submission :func:`repro.tasks.check` (the CLI's check too)
  rejects — unknown kind, algorithm or parameter, a mistyped value, a
  parameter the algorithm's capabilities gate off — is ``400``, with
  the kind's parameter table and the family's capability table;
* a tenant over its backlog quota is ``429`` with ``Retry-After``;
* a submission while the server is draining is ``503`` with
  ``Retry-After`` — nothing is persisted, retry elsewhere/later;
* asking for the result of an unfinished job is ``409`` with the
  current state (and the failure report once the job has failed);
* everything else that goes wrong in a handler is a ``500`` with the
  exception type — never a torn response or a dead server thread.

The server is a ``ThreadingHTTPServer``: handler threads only touch the
store (lock-protected, atomic writes) and the scheduler's queue, so a
slow mining job never blocks status polls.
"""

from __future__ import annotations

import errno
import json
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import registry, tasks
from ..core.exceptions import ReproError
from .cache import ResultCache
from .quotas import OverQuota, QuotaPolicy
from .scheduler import Draining, Scheduler
from .store import InvalidTransition, JobStore, UnknownJob

#: refuse request bodies larger than this (defensive, not a quota).
MAX_BODY_BYTES = 1 << 20

#: drop connections that stall longer than this mid-request.
DEFAULT_REQUEST_TIMEOUT = 30.0

#: submission fields the API accepts.
_SUBMIT_FIELDS = {"tenant", "kind", "algorithm", "dataset", "params"}


class BadSubmission(ReproError, ValueError):
    """A submission the schema or the tables reject.

    ``kind`` (when known) picks the parameter and capability tables the
    ``400`` body carries.
    """

    def __init__(self, message: str, kind: Optional[str] = None):
        super().__init__(message)
        self.kind = kind


class BadRequest(ReproError, ValueError):
    """A request the server refuses to parse (transport-level 400).

    Distinct from :class:`BadSubmission`: the capability table would be
    noise here — the client's HTTP layer is broken, not its choice of
    algorithm.  ``reason`` is a stable machine-readable tag.
    """

    def __init__(self, message: str, reason: str = "bad-request"):
        super().__init__(message)
        self.reason = reason


class PayloadTooLarge(BadRequest):
    """Request body over ``MAX_BODY_BYTES`` (413; connection closed)."""

    def __init__(self, message: str):
        super().__init__(message, reason="payload-too-large")


def validate_submission(payload: Any) -> Dict[str, Any]:
    """Check a POST /jobs body against the schema and the tables.

    Returns the normalized submission dict.  Raises
    :class:`BadSubmission` — carrying the job kind so the handler can
    attach the parameter and capability tables — on anything the
    server could never run.
    """
    if not isinstance(payload, dict):
        raise BadSubmission("request body must be a JSON object")
    unknown = set(payload) - _SUBMIT_FIELDS
    if unknown:
        raise BadSubmission(f"unknown fields: {sorted(unknown)}")
    for name in ("kind", "algorithm", "dataset"):
        value = payload.get(name)
        if not isinstance(value, str) or not value:
            raise BadSubmission(f"{name!r} must be a non-empty string")
    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise BadSubmission("'tenant' must be a non-empty string")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise BadSubmission("'params' must be an object")
    kind = payload["kind"]
    try:
        tasks.check(kind, payload["algorithm"], params)
    except ReproError as exc:
        raise BadSubmission(str(exc), kind=kind) from exc
    return {
        "tenant": tenant, "kind": kind, "algorithm": payload["algorithm"],
        "dataset": payload["dataset"], "params": params,
    }


class JobRequestHandler(BaseHTTPRequestHandler):
    """Dispatches the route table above against the shared scheduler."""

    server_version = "repro-jobs/1.0"
    protocol_version = "HTTP/1.1"

    #: TCP_NODELAY on every connection.  A response goes out as two
    #: writes (the buffered headers, then the body); with Nagle on, the
    #: second waits for the client's delayed ACK of the first, so every
    #: response on a reused keep-alive connection stalls ~40 ms.
    disable_nagle_algorithm = True

    #: socket timeout applied by ``StreamRequestHandler.setup`` — a
    #: client that stops sending mid-request (slow-loris) frees its
    #: handler thread after this many seconds instead of holding it
    #: hostage forever.  Overridden per-server by ``build_server``.
    timeout = DEFAULT_REQUEST_TIMEOUT

    # Injected by build_server().
    scheduler: Scheduler = None  # type: ignore[assignment]

    def log_message(self, format, *args):  # noqa: A002 - base signature
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _send_json(self, status: int, payload: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
        self._send_body(status, body, headers)

    def _send_body(self, status: int, body: bytes,
                   headers: Optional[Dict[str, str]] = None) -> None:
        """The one response writer: status, JSON headers, then body."""
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json_body(self) -> Any:
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError as exc:
            raise BadRequest(
                "Content-Length is not an integer",
                reason="bad-content-length",
            ) from exc
        if length < 0:
            raise BadRequest(
                "Content-Length is negative", reason="bad-content-length"
            )
        if length > MAX_BODY_BYTES:
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte cap"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise BadRequest("request body is empty", reason="empty-body")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise BadRequest(
                f"request body is not valid JSON: {exc}",
                reason="invalid-json",
            ) from exc

    def _route(self) -> Tuple[str, Dict[str, str]]:
        split = urlsplit(self.path)
        query = {
            name: values[-1]
            for name, values in parse_qs(split.query).items()
        }
        return split.path.rstrip("/") or "/", query

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            path, query = self._route()
            if path == "/healthz":
                return self._get_healthz()
            if path == "/algorithms":
                return self._send_json(
                    200, {"algorithms": registry.capability_table()}
                )
            if path == "/jobs":
                return self._get_jobs(query.get("tenant"))
            parts = path.strip("/").split("/")
            if len(parts) == 2 and parts[0] == "jobs":
                return self._get_job(parts[1])
            if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
                return self._get_result(parts[1])
            if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
                return self._get_events(parts[1], query.get("offset"))
            self._send_json(404, {"error": f"no such route {path!r}"})
        except TimeoutError:
            # The socket stalled; there is nobody to answer.  Re-raise
            # so handle_one_request's timeout path drops the connection.
            self.close_connection = True
            raise
        except BadRequest as exc:
            self._send_json(400, {"error": str(exc), "reason": exc.reason})
        except UnknownJob as exc:
            self._send_json(404, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - handler must answer
            self._send_json(500, {"error": str(exc),
                                  "type": type(exc).__name__})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            path, _query = self._route()
            if path == "/jobs":
                return self._post_job()
            if path == "/drain":
                return self._post_drain()
            parts = path.strip("/").split("/")
            if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                return self._post_cancel(parts[1])
            self._send_json(404, {"error": f"no such route {path!r}"})
        except TimeoutError:
            # Slow-loris: the client never finished sending its body.
            # Answering 500 would write into a dead socket; drop it.
            self.close_connection = True
            raise
        except PayloadTooLarge as exc:
            # The refused body was never read, so the connection cannot
            # be reused for a next request — close it after answering.
            self.close_connection = True
            self._send_json(413, {"error": str(exc), "reason": exc.reason})
        except BadRequest as exc:
            self._send_json(400, {"error": str(exc), "reason": exc.reason})
        except BadSubmission as exc:
            self._send_json(400, {
                "error": str(exc),
                "parameters": tasks.parameter_table(exc.kind),
                "capabilities": registry.capability_table(
                    registry.FAMILY_BY_KIND.get(exc.kind)),
            })
        except Draining as exc:
            self._send_json(
                503, {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": str(int(exc.retry_after) or 1)},
            )
        except OverQuota as exc:
            self._send_json(
                429, {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": str(int(exc.retry_after) or 1)},
            )
        except UnknownJob as exc:
            self._send_json(404, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - handler must answer
            self._send_json(500, {"error": str(exc),
                                  "type": type(exc).__name__})

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _get_healthz(self) -> None:
        scheduler = self.scheduler
        counts = scheduler.store.counts()
        self._send_json(200, {
            "status": "draining" if scheduler.draining else "ok",
            "draining": scheduler.draining,
            "workers": scheduler.workers,
            "worker_liveness": scheduler.worker_liveness(),
            "jobs": counts,
            "cache": scheduler.cache_stats(),
            "events_appended": scheduler.store.events_appended_total(),
        })

    def _get_jobs(self, tenant: Optional[str]) -> None:
        records = self.scheduler.store.list(tenant=tenant)
        self._send_json(200, {
            "jobs": [record.to_dict() for record in records],
        })

    def _get_job(self, job_id: str) -> None:
        record = self.scheduler.store.get(job_id)
        payload = record.to_dict()
        failures = self.scheduler.store.read_failures(job_id)
        if failures:
            payload["failures"] = failures
        self._send_json(200, payload)

    def _get_result(self, job_id: str) -> None:
        record = self.scheduler.store.get(job_id)
        if record.state != "done":
            return self._send_json(409, {
                "error": f"job {job_id} is {record.state}, not done",
                "state": record.state,
                "job": record.to_dict(),
            })
        self._send_body(200, self.scheduler.store.read_result_bytes(job_id))

    def _get_events(self, job_id: str, offset: Optional[str]) -> None:
        """Resumable progress polling: events from ``offset`` on.

        Clients store the returned ``next_offset`` and pass it back on
        the next poll; the contract (no gap, no repeat, no torn line —
        across server crashes too) is carried by the store's event-log
        scanner, which stops at the first invalid line.
        """
        record = self.scheduler.store.get(job_id)  # 404s unknown ids
        try:
            start = int(offset) if offset is not None else 0
        except ValueError as exc:
            raise BadRequest(
                "offset must be an integer", reason="bad-offset"
            ) from exc
        if start < 0:
            raise BadRequest(
                "offset must be non-negative", reason="bad-offset"
            )
        events, total = self.scheduler.store.read_events(job_id, start)
        self._send_json(200, {
            "job_id": job_id,
            "state": record.state,
            "events": events,
            "next_offset": total,
        })

    def _post_job(self) -> None:
        key = self.headers.get("Idempotency-Key")
        if key is not None:
            key = key.strip()
            if not key or len(key) > 200:
                raise BadRequest(
                    "Idempotency-Key must be 1-200 characters",
                    reason="bad-idempotency-key",
                )
        submission = validate_submission(self._read_json_body())
        record = self.scheduler.submit(**submission, idempotency_key=key)
        payload = record.to_dict()
        if getattr(record, "deduplicated", False):
            # A retry of an in-flight submission: same job, nothing
            # admitted — 200, not 202, and the body says why.
            payload["deduplicated"] = True
            return self._send_json(200, payload)
        self._send_json(202, payload)

    def _post_cancel(self, job_id: str) -> None:
        try:
            record = self.scheduler.cancel(job_id)
        except InvalidTransition as exc:
            return self._send_json(409, {"error": str(exc)})
        self._send_json(202, record.to_dict())

    def _post_drain(self) -> None:
        """Flip to draining, stop running jobs at a checkpoint, answer.

        The handler blocks until the drain settles (bounded by the
        server's ``drain_grace``) so the response can report whether
        every running job stopped cleanly.  When the surrounding
        :func:`serve` loop installed an ``on_drained`` callback the
        process then shuts down — an operator's ``POST /drain`` is a
        full graceful stop, not just a pause.
        """
        grace = float(getattr(self.server, "drain_grace", 10.0))
        stopped = self.scheduler.drain(grace=grace)
        self._send_json(202, {
            "draining": True,
            "stopped_clean": bool(stopped),
            "jobs": self.scheduler.store.counts(),
        })
        callback = getattr(self.server, "on_drained", None)
        if callback is not None:
            threading.Thread(target=callback, daemon=True).start()


def build_server(
    store_root: str,
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: int = 2,
    quotas: Optional[QuotaPolicy] = None,
    max_retries: int = 2,
    lease_timeout: float = 30.0,
    max_failures: Optional[int] = None,
    drain_grace: float = 10.0,
    result_cache: bool = True,
    cache_dir: Optional[str] = None,
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
) -> Tuple[ThreadingHTTPServer, Scheduler]:
    """Wire store + scheduler + HTTP server (not yet started).

    The handler class is subclassed per call so the scheduler reference
    never leaks between servers in the same process (tests run many).
    ``result_cache=False`` disables result caching; ``cache_dir``
    relocates the cache (default: the store's reserved ``_cache/``
    directory, so cache and results share a filesystem — and a fate).

    :meth:`Scheduler.start` imports everything a job can reach before
    it starts a thread, so a forked job child imports nothing.
    """
    store = JobStore(store_root)
    cache = None
    if result_cache:
        cache = ResultCache(cache_dir or store.root / "_cache")
    kwargs: Dict[str, Any] = {}
    if max_failures is not None:
        kwargs["max_failures"] = max_failures
    scheduler = Scheduler(
        store, quotas=quotas, workers=workers, max_retries=max_retries,
        lease_timeout=lease_timeout, result_cache=cache, **kwargs,
    )

    class _Handler(JobRequestHandler):
        pass

    _Handler.scheduler = scheduler
    _Handler.timeout = float(request_timeout)
    httpd = ThreadingHTTPServer((host, port), _Handler)
    httpd.daemon_threads = True
    httpd.drain_grace = float(drain_grace)
    return httpd, scheduler


def serve(
    store_root: str,
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: int = 2,
    quotas: Optional[QuotaPolicy] = None,
    max_retries: int = 2,
    lease_timeout: float = 30.0,
    max_failures: Optional[int] = None,
    drain_grace: float = 10.0,
    result_cache: bool = True,
    cache_dir: Optional[str] = None,
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
) -> int:
    """Run the server until SIGTERM/SIGINT/``POST /drain``.

    Prints one parseable banner line (``repro-server listening
    host=... port=... store=...``) once recovery has run and the
    socket is accepting, so harnesses know when to start submitting.
    A busy or forbidden port is a one-line error and exit code 2, not
    a traceback.  SIGTERM (and SIGINT) drain first — running jobs get
    ``drain_grace`` seconds to checkpoint and stop, their records go
    back to ``queued`` — and the process exits 0 with the store
    byte-identically recoverable by the next boot.
    """
    try:
        httpd, scheduler = build_server(
            store_root, host=host, port=port, workers=workers,
            quotas=quotas, max_retries=max_retries,
            lease_timeout=lease_timeout, max_failures=max_failures,
            drain_grace=drain_grace, result_cache=result_cache,
            cache_dir=cache_dir, request_timeout=request_timeout,
        )
    except OSError as exc:
        if exc.errno in (errno.EADDRINUSE, errno.EACCES):
            print(f"repro-server error: cannot bind {host}:{port} "
                  f"({exc.strerror}); is another server running?",
                  file=sys.stderr, flush=True)
            return 2
        raise
    recovered = scheduler.start()
    for record in recovered:
        print(f"repro-server recovered job={record.job_id} "
              f"recoveries={record.recoveries}", flush=True)
    for record in scheduler.store.list(states=("poisoned",)):
        print(f"repro-server poisoned job={record.job_id} "
              f"failures={scheduler.store.failure_count(record.job_id)}",
              flush=True)

    def _drain_then_shutdown() -> None:
        scheduler.drain(grace=drain_grace)
        httpd.shutdown()

    def _shutdown(signum, frame):  # noqa: ARG001 - signal API
        threading.Thread(target=_drain_then_shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    httpd.on_drained = httpd.shutdown
    actual_host, actual_port = httpd.server_address[:2]
    print(f"repro-server listening host={actual_host} port={actual_port} "
          f"store={store_root}", flush=True)
    try:
        httpd.serve_forever(poll_interval=0.2)
    finally:
        httpd.server_close()
        scheduler.stop()
    print("repro-server drained clean exit", flush=True)
    return 0


__all__ = [
    "BadRequest",
    "BadSubmission",
    "DEFAULT_REQUEST_TIMEOUT",
    "JobRequestHandler",
    "MAX_BODY_BYTES",
    "PayloadTooLarge",
    "build_server",
    "serve",
    "validate_submission",
]
