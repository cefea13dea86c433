"""Durable job store: one directory per job, crash-safe state records.

The job server's headline property — *it never loses a job* — rests
entirely on this module.  Every job owns one directory under the store
root::

    <root>/<job_id>/
        job.json        # the state record, written atomically
        checkpoints/    # the job's CheckpointStore (resumable snapshots)
        scratch/        # the Supervisor's result-transport files
        result.json     # canonical result bytes, written atomically
        events.jsonl    # append-only progress/lifecycle event log
        cancel          # marker file: cancellation requested
        failures.json   # dead-letter history (one entry per bad attempt)

    <root>/_index/      # idempotency/content key -> job id bindings
    <root>/_cache/      # the ResultCache (when the server enables it)

Underscore-prefixed directories under the root are reserved for these
store-level planes; job ids (uuid hex) can never collide with them and
the recovery scan skips them.

``job.json`` is persisted with the same write-temp → fsync → rename
protocol the checkpoint store uses, so a server SIGKILLed mid-update
leaves either the old record or the new one on disk — never a torn
half.  The record carries the full job lifecycle
(``queued → running → done/failed/cancelled``, with the recovery edge
``running → queued``), the submitted parameters, a ``degraded`` flag
for budget-truncated results, and the structured failure report when a
job dies for good.

:meth:`JobStore.recover` is the crash-recovery scan the server runs on
boot: every job found ``running`` was in flight when the previous
process died, so it is moved back to ``queued`` (bumping its
``recoveries`` counter) and its scratch directory is swept of torn
transport files.  A job whose ``job.json`` cannot be parsed at all is
quarantined as ``failed`` with cause ``store-corrupted`` instead of
crashing the boot; a job directory with *no* record at all (a
``create()`` torn mid-write) is removed outright.

Two robustness planes added by the lease/poison layer:

* **Leases** — a ``lease`` marker file per running job, touched by the
  worker at dispatch and by the forked child at every ``ctx.step``
  boundary and beat.  :meth:`JobStore.lease_age` is what the scheduler's reaper
  polls: a running job whose lease has gone stale has lost its worker
  (wedged thread, hard-killed process) and is reclaimed.
* **Dead letters** — ``failures.json`` per job accumulates one entry
  per failed attempt (crash :class:`FailureReport` dicts, lease
  expiries, recovery bumps).  Past the configurable cap the job is
  *poisoned*: a terminal quarantine state that ends the infinite
  crash-retry loop while keeping the full post-mortem on disk.

And two client-edge planes:

* **Event log** — ``events.jsonl`` per job is the crash-safe progress
  stream: one JSON object per line (the
  :func:`~repro.runtime.context.progress_event` shape), appended
  through :func:`~repro.runtime.fsio.append_bytes` by the forked
  child's progress chain and by :meth:`JobStore.transition` for
  lifecycle edges (``submitted``/``running``/``requeued``/``done``...).
  Reads treat the first unparsable line as the end of the log, so a
  power cut mid-append never breaks a poll; writers (and the boot
  sweep) truncate the torn tail before extending, so sequence numbers
  stay gapless across any number of crashes.
* **Submission index** — ``_index/`` maps idempotency keys (explicit
  client keys and content-derived fallback keys) to job ids, written
  atomically, so a retried POST lands on the job the first attempt
  created instead of double-enqueueing the work.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
import time
import uuid
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

from ..core.exceptions import ReproError
from ..runtime.context import progress_event
from ..runtime.fsio import append_bytes, atomic_write_bytes
from ..runtime.transport import sweep_stale_tmp

#: every state a job record can be in.
STATES = ("queued", "running", "done", "failed", "cancelled", "poisoned")

#: states a job never leaves.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled", "poisoned"})

#: recorded failures (crashed attempts, lease expiries, recoveries) at
#: which a job is poisoned: reaching the cap quarantines.
DEFAULT_MAX_FAILURES = 3

#: the legal state machine; ``running → queued`` is the recovery edge,
#: ``queued → done`` the cache-hit edge (a job admitted with its result
#: already known never runs), ``→ poisoned`` the dead-letter quarantine
#: past the failure cap.
_TRANSITIONS = {
    "queued": {"running", "done", "cancelled", "poisoned"},
    "running": {"done", "failed", "cancelled", "queued", "poisoned"},
    "done": set(),
    "failed": set(),
    "cancelled": set(),
    "poisoned": set(),
}

_RECORD_NAME = "job.json"
_RESULT_NAME = "result.json"
_CANCEL_NAME = "cancel"
_LEASE_NAME = "lease"
_FAILURES_NAME = "failures.json"
_EVENTS_NAME = "events.jsonl"
_INDEX_DIR = "_index"


class JobStoreError(ReproError, RuntimeError):
    """The store cannot honour a request (unknown job, bad record...)."""


class UnknownJob(JobStoreError):
    """No job with the given id exists in the store."""


class InvalidTransition(JobStoreError):
    """A state change that the job lifecycle does not allow."""


@dataclass
class JobRecord:
    """One job's durable state.

    ``params`` is the submitted parameter dict verbatim; ``error`` is a
    JSON-ready failure description (a
    :class:`~repro.runtime.supervisor.FailureReport` dict for crashes,
    a ``{"cause", "type", "message"}`` triple for application errors);
    ``degraded`` marks a job that hit its budget quota and finished
    with a truncated-but-valid result; ``recoveries`` counts how many
    times a server boot found the job mid-run and re-enqueued it.
    """

    job_id: str
    tenant: str
    kind: str
    algorithm: str
    dataset: str
    params: Dict[str, Any] = field(default_factory=dict)
    state: str = "queued"
    created_at: float = 0.0
    updated_at: float = 0.0
    attempts: int = 0
    recoveries: int = 0
    degraded: bool = False
    cache_hit: bool = False
    content_key: Optional[str] = None
    cancel_requested: bool = False
    error: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobRecord":
        fields = {name: payload[name] for name in cls.__dataclass_fields__
                  if name in payload}
        missing = set(cls.__dataclass_fields__) - set(fields)
        required = {"job_id", "tenant", "kind", "algorithm", "dataset"}
        if missing & required:
            raise JobStoreError(
                f"job record is missing required fields {sorted(missing & required)}"
            )
        record = cls(**fields)
        if record.state not in STATES:
            raise JobStoreError(f"job record has unknown state {record.state!r}")
        return record


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """write-temp → fsync → rename, plus a directory fsync."""
    atomic_write_bytes(path, data)


# ----------------------------------------------------------------------
# Event log
# ----------------------------------------------------------------------
def _encode_event(event: Dict[str, Any]) -> bytes:
    # default=repr: a progress hook may pass any object; an event log
    # must never be the thing that crashes the run reporting on it.
    return (json.dumps(event, sort_keys=True, separators=(",", ":"),
                       default=repr) + "\n").encode()


def scan_events(path: Union[str, Path]) -> Tuple[List[Dict[str, Any]], int]:
    """Parse an ``events.jsonl``: (events, byte length of valid prefix).

    Parsing stops at the first line that is torn (no trailing newline)
    or not a JSON object.  With a single sequential appender the only
    way such a line appears is a tear at the tail — a power cut or
    SIGKILL mid-append — so everything before it is the trustworthy
    prefix and everything from it on is the tear.  A missing file is an
    empty log.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return [], 0
    events: List[Dict[str, Any]] = []
    end = 0
    for line in raw.splitlines(keepends=True):
        if not line.endswith(b"\n"):
            break
        try:
            event = json.loads(line)
        except ValueError:
            break
        if not isinstance(event, dict):
            break
        events.append(event)
        end += len(line)
    return events, end


def _repair_tail(path: Path) -> int:
    """Truncate a torn tail off an event log; returns its valid events."""
    events, end = scan_events(path)
    try:
        # Truncate a torn tail before extending: appending after a
        # newline-less fragment would weld the fragment onto the new
        # event and corrupt *both*.
        if path.exists() and path.stat().st_size > end:
            os.truncate(path, end)
    except OSError:
        pass
    return len(events)


class EventAppender:
    """Single-writer append handle for one job's ``events.jsonl``.

    Created by the scheduler *before* the fork and used from inside the
    forked child's progress chain; initialization is lazy (first
    append), so the sequence counter is read in the writer process,
    after the tail repair, and each supervised retry attempt re-primes
    in its own child and continues the sequence where the previous
    attempt's tear left off.

    Appends are fail-soft: a disk fault drops the event — without
    consuming its sequence number, keeping the log gapless — rather
    than killing the job that was reporting progress.  The event log is
    the observability plane, not the durability plane; ``job.json`` and
    the checkpoints own correctness.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._next_seq: Optional[int] = None

    def append(self, phase: str,
               info: Optional[Mapping[str, Any]] = None,
               ) -> Optional[Dict[str, Any]]:
        """Append one event; returns it, or ``None`` when dropped."""
        if self._next_seq is None:
            self._next_seq = _repair_tail(self.path)
        event = progress_event(self._next_seq, phase, info)
        try:
            append_bytes(self.path, _encode_event(event))
        except OSError:
            return None
        self._next_seq += 1
        return event


class _Entry(NamedTuple):
    """What the job index keeps of one record."""

    state: str
    tenant: str
    created_at: float

    @classmethod
    def of(cls, record: JobRecord) -> "_Entry":
        return cls(record.state, record.tenant, record.created_at)


class JobStore:
    """Crash-safe persistence for the job server.

    All read-modify-write access goes through one re-entrant lock, so
    concurrent HTTP handler threads and scheduler workers can never
    interleave a torn update; durability against process death comes
    from the atomic record writes, not the lock.

    An in-memory index holds each job's state, tenant and
    ``created_at``, so :meth:`counts` reads no record and :meth:`list`
    reads only the records it returns.  :meth:`recover` builds it from
    the records the boot sweep reads anyway; a store that never ran
    :meth:`recover` builds it with one scan on its first read.  Only
    this store's own record writes change it, under the lock, so it
    assumes one live ``JobStore`` per store root (forked job children
    only touch leases and append events).  ``job.json`` stays the
    source of truth: :meth:`get` always reads the disk.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        # job id -> _Entry for every readable record; None until built.
        self._job_index: Optional[Dict[str, _Entry]] = None
        # job id -> valid events in a terminal job's log, which no one
        # extends any more.
        self._final_events: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def job_dir(self, job_id: str) -> Path:
        return self.root / job_id

    def record_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / _RECORD_NAME

    def checkpoint_dir(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "checkpoints"

    def scratch_dir(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "scratch"

    def result_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / _RESULT_NAME

    def cancel_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / _CANCEL_NAME

    def lease_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / _LEASE_NAME

    def failures_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / _FAILURES_NAME

    def events_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / _EVENTS_NAME

    def index_dir(self) -> Path:
        return self.root / _INDEX_DIR

    # ------------------------------------------------------------------
    # Record lifecycle
    # ------------------------------------------------------------------
    def create(
        self,
        tenant: str,
        kind: str,
        algorithm: str,
        dataset: str,
        params: Optional[Dict[str, Any]] = None,
        job_id: Optional[str] = None,
        content_key: Optional[str] = None,
    ) -> JobRecord:
        """Persist a fresh ``queued`` record and return it.

        A record write that fails (full disk) removes the job directory
        again: a half-created job must not survive to shadow a later
        submission with the same idempotency key.
        """
        with self._lock:
            job_id = job_id or uuid.uuid4().hex[:12]
            if self.record_path(job_id).exists():
                raise JobStoreError(f"job {job_id!r} already exists")
            now = time.time()
            record = JobRecord(
                job_id=job_id, tenant=tenant, kind=kind,
                algorithm=algorithm, dataset=dataset,
                params=dict(params or {}), state="queued",
                created_at=now, updated_at=now,
                content_key=content_key,
            )
            self.job_dir(job_id).mkdir(parents=True, exist_ok=True)
            try:
                self._save(record)
            except BaseException:
                self.delete(job_id)
                raise
            self.append_event(job_id, "submitted", {"tenant": tenant})
            return record

    def delete(self, job_id: str) -> None:
        """Remove a job's directory: the rollback of a failed admission."""
        with self._lock:
            shutil.rmtree(self.job_dir(job_id), ignore_errors=True)
            self._final_events.pop(job_id, None)
            self._reindex(job_id)

    def _save(self, record: JobRecord) -> None:
        if record.state not in TERMINAL_STATES:
            # Only a terminal job's event log is final.
            self._final_events.pop(record.job_id, None)
        data = (json.dumps(record.to_dict(), sort_keys=True, indent=2)
                + "\n").encode()
        try:
            _atomic_write_bytes(self.record_path(record.job_id), data)
        except BaseException:
            # A fault after the rename (the directory fsync) has already
            # landed the new record: index what the disk holds.
            self._reindex(record.job_id)
            raise
        if self._job_index is not None:
            self._job_index[record.job_id] = _Entry.of(record)

    def _reindex(self, job_id: str) -> None:
        """Make the index follow the disk for one job."""
        if self._job_index is None:
            return
        try:
            self._job_index[job_id] = _Entry.of(self.get(job_id))
        except JobStoreError:
            self._job_index.pop(job_id, None)

    def _jobs(self) -> Dict[str, _Entry]:
        """The index, built by one scan of the store on first use."""
        if self._job_index is None:
            index = {}
            for entry in self.root.iterdir() if self.root.is_dir() else []:
                try:
                    index[entry.name] = _Entry.of(self.get(entry.name))
                except JobStoreError:
                    continue
            self._job_index = index
        return self._job_index

    def get(self, job_id: str) -> JobRecord:
        """Load one record; :class:`UnknownJob` when absent,
        :class:`JobStoreError` when the record file is unreadable."""
        with self._lock:
            path = self.record_path(job_id)
            if not path.exists():
                raise UnknownJob(f"unknown job {job_id!r}")
            try:
                payload = json.loads(path.read_text())
            except (OSError, ValueError) as exc:
                raise JobStoreError(
                    f"job record {path} is unreadable: {exc}"
                ) from exc
            if not isinstance(payload, dict):
                raise JobStoreError(f"job record {path} is not an object")
            return JobRecord.from_dict(payload)

    def list(
        self,
        tenant: Optional[str] = None,
        states: Optional[Tuple[str, ...]] = None,
    ) -> List[JobRecord]:
        """All readable records, newest first, optionally filtered.

        The filter runs on the index: only the returned records are read.
        """
        with self._lock:
            matches = sorted(
                (-entry.created_at, job_id)
                for job_id, entry in self._jobs().items()
                if (tenant is None or entry.tenant == tenant)
                and (states is None or entry.state in states)
            )
            records = []
            for _, job_id in matches:
                try:
                    records.append(self.get(job_id))
                except JobStoreError:
                    continue
            return records

    def counts(self, tenant: Optional[str] = None) -> Dict[str, int]:
        """Per-state job counts (optionally for one tenant), off the index."""
        with self._lock:
            tally = {state: 0 for state in STATES}
            for entry in self._jobs().values():
                if tenant is None or entry.tenant == tenant:
                    tally[entry.state] += 1
            return tally

    def update(self, job_id: str, **changes: Any) -> JobRecord:
        """Read-modify-write arbitrary record fields (no state check)."""
        with self._lock:
            record = self.get(job_id)
            for name, value in changes.items():
                if name not in record.__dataclass_fields__:
                    raise JobStoreError(f"unknown record field {name!r}")
                setattr(record, name, value)
            record.updated_at = time.time()
            self._save(record)
            return record

    def transition(
        self,
        job_id: str,
        to_state: str,
        expect: Optional[str] = None,
        event_info: Optional[Dict[str, Any]] = None,
        **changes: Any,
    ) -> JobRecord:
        """Move a job along the state machine, persisting atomically.

        ``expect`` (optional) makes the transition conditional on the
        current state — the scheduler uses it so a job cancelled while
        queued is never yanked back to ``running``.

        Every successful transition also appends a lifecycle event to
        the job's event log (phase = the new state, except the
        ``→ queued`` recovery/drain edge which is the explicit
        ``requeued`` event); ``event_info`` rides along as the event's
        ``info`` payload.  The append is fail-soft — the state record
        is the durability plane, the log the observability plane.
        """
        with self._lock:
            record = self.get(job_id)
            if to_state not in STATES:
                raise JobStoreError(f"unknown state {to_state!r}")
            if expect is not None and record.state != expect:
                raise InvalidTransition(
                    f"job {job_id} is {record.state!r}, expected {expect!r}"
                )
            if to_state not in _TRANSITIONS[record.state]:
                raise InvalidTransition(
                    f"job {job_id} cannot go {record.state!r} → {to_state!r}"
                )
            from_state = record.state
            record.state = to_state
            for name, value in changes.items():
                if name not in record.__dataclass_fields__:
                    raise JobStoreError(f"unknown record field {name!r}")
                setattr(record, name, value)
            record.updated_at = time.time()
            self._save(record)
            # Lease hygiene rides the state machine so no caller can
            # forget it: a job entering ``running`` gets a fresh lease
            # (a stale file from a reclaimed attempt must not trip the
            # reaper instantly), a job leaving it sheds the lease.
            if to_state == "running":
                self.touch_lease(job_id)
            elif from_state == "running":
                try:
                    self.lease_path(job_id).unlink()
                except OSError:
                    pass
            phase = "requeued" if to_state == "queued" else to_state
            event = self.append_event(job_id, phase, event_info)
            if event is not None and to_state in TERMINAL_STATES:
                # The append counted the log's valid events to number
                # this one, and a terminal job's log is final.
                self._final_events[job_id] = event["seq"] + 1
            return record

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------
    def touch_lease(self, job_id: str) -> None:
        """Refresh a running job's liveness marker (heartbeat)."""
        try:
            self.lease_path(job_id).touch()
        except OSError:
            # A heartbeat must never kill the worker it vouches for; a
            # full disk here surfaces later as a stale lease at worst.
            pass

    def lease_age(self, job_id: str, now: Optional[float] = None) -> float:
        """Seconds since the job's lease was last refreshed.

        Falls back to the record's ``updated_at`` when the lease file
        is missing (e.g. a pre-lease store, or the marker lost to a
        crash) so the reaper still converges instead of dividing jobs
        into watched and invisible.
        """
        now = time.time() if now is None else now
        try:
            return max(0.0, now - self.lease_path(job_id).stat().st_mtime)
        except OSError:
            return max(0.0, now - self.get(job_id).updated_at)

    # ------------------------------------------------------------------
    # Dead letters
    # ------------------------------------------------------------------
    def append_failure(self, job_id: str, entry: Dict[str, Any]) -> int:
        """Append one attempt's post-mortem to ``failures.json``.

        The file is the job's dead-letter history: a JSON list with one
        entry per failed attempt / lease expiry / recovery, each stamped
        with ``at``.  A corrupt existing file is replaced rather than
        crashing the failure path.  Returns the new entry count.
        """
        with self._lock:
            failures = self.read_failures(job_id)
            stamped = dict(entry)
            stamped.setdefault("at", time.time())
            failures.append(stamped)
            data = (json.dumps(failures, sort_keys=True, indent=2)
                    + "\n").encode()
            atomic_write_bytes(self.failures_path(job_id), data)
            return len(failures)

    def read_failures(self, job_id: str) -> List[Dict[str, Any]]:
        """The job's dead-letter history; ``[]`` if absent or corrupt."""
        try:
            payload = json.loads(self.failures_path(job_id).read_text())
        except (OSError, ValueError):
            return []
        if not isinstance(payload, list):
            return []
        return [item for item in payload if isinstance(item, dict)]

    def failure_count(self, job_id: str) -> int:
        return len(self.read_failures(job_id))

    # ------------------------------------------------------------------
    # Event log
    # ------------------------------------------------------------------
    def event_appender(self, job_id: str) -> EventAppender:
        """A single-writer append handle for the job's event log."""
        return EventAppender(self.events_path(job_id))

    def append_event(self, job_id: str, phase: str,
                     info: Optional[Mapping[str, Any]] = None,
                     ) -> Optional[Dict[str, Any]]:
        """One-shot lifecycle append (scans for the next seq; fail-soft)."""
        with self._lock:
            event = EventAppender(self.events_path(job_id)).append(phase, info)
            self._final_events.pop(job_id, None)
            return event

    def read_events(
        self, job_id: str, offset: int = 0,
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Events from position ``offset`` on, plus the next offset.

        The resumable-poll contract: a client that stored
        ``next_offset`` from its last read gets exactly the events
        appended since, no gap, no repeat — a torn tail line (power cut
        mid-append) is treated as the end of the log, never served.
        """
        events, _end = scan_events(self.events_path(job_id))
        offset = max(0, int(offset))
        return events[offset:], len(events)

    def repair_events_tail(self, job_id: str) -> int:
        """Truncate a torn final event line; returns the valid events.

        Run by the boot sweep so a power cut mid-append can never fail
        a job load or weld garbage onto the next appended event.
        """
        return _repair_tail(self.events_path(job_id))

    def events_appended_total(self) -> int:
        """Valid events across every job's log (the /healthz counter).

        A terminal job's log is final, so it is counted once (by the
        terminal transition's append, the boot sweep or the first call
        here); only the logs of unfinished jobs are read on every call.
        """
        with self._lock:
            total = 0
            for job_id, entry in self._jobs().items():
                count = self._final_events.get(job_id)
                if count is None:
                    count = len(scan_events(self.events_path(job_id))[0])
                    if entry.state in TERMINAL_STATES:
                        self._final_events[job_id] = count
                total += count
            return total

    # ------------------------------------------------------------------
    # Submission index (idempotency keys)
    # ------------------------------------------------------------------
    def _index_path(self, key: str) -> Path:
        # Keys are hashed to a fixed-width name: client-supplied
        # Idempotency-Key strings must never become path components.
        name = hashlib.sha256(key.encode()).hexdigest()
        return self.index_dir() / f"{name}.json"

    def bind_submission(self, key: str, job_id: str) -> None:
        """Durably map an idempotency/content key to a job id."""
        with self._lock:
            self.index_dir().mkdir(parents=True, exist_ok=True)
            data = (json.dumps({"key": key, "job_id": job_id},
                               sort_keys=True) + "\n").encode()
            atomic_write_bytes(self._index_path(key), data)

    def lookup_submission(self, key: str) -> Optional[str]:
        """The job id a key is bound to; ``None`` if absent or corrupt."""
        try:
            payload = json.loads(self._index_path(key).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        job_id = payload.get("job_id")
        return job_id if isinstance(job_id, str) else None

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def request_cancel(self, job_id: str) -> JobRecord:
        """Flag a job for cancellation.

        A ``queued`` job is cancelled outright; a ``running`` job gets
        the durable marker file its in-child cancellation token polls,
        plus the record flag.  Terminal jobs raise
        :class:`InvalidTransition`.
        """
        with self._lock:
            record = self.get(job_id)
            if record.state in TERMINAL_STATES:
                raise InvalidTransition(
                    f"job {job_id} is already {record.state}"
                )
            self.cancel_path(job_id).touch()
            if record.state == "queued":
                return self.transition(job_id, "cancelled",
                                       cancel_requested=True)
            return self.update(job_id, cancel_requested=True)

    def cancel_requested(self, job_id: str) -> bool:
        return self.cancel_path(job_id).exists()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def write_result_bytes(self, job_id: str, data: bytes) -> None:
        """Atomically persist a job's canonical result payload."""
        with self._lock:
            _atomic_write_bytes(self.result_path(job_id), data)

    def read_result_bytes(self, job_id: str) -> bytes:
        path = self.result_path(job_id)
        try:
            return path.read_bytes()
        except OSError as exc:
            raise JobStoreError(
                f"no result stored for job {job_id!r}: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def recover(
        self, max_failures: int = DEFAULT_MAX_FAILURES,
    ) -> List[JobRecord]:
        """Boot-time scan: re-enqueue jobs the dead server left running.

        * ``running`` + cancel marker → ``cancelled`` (honour the last
          client instruction, don't redo the work);
        * ``running`` → ``queued`` with ``recoveries + 1``, scratch
          swept of torn transport files — the scheduler will resume it
          from its newest checkpoint;
        * ``running`` whose dead-letter history would exceed
          ``max_failures`` → ``poisoned``: a job that takes the server
          down (or gets killed) on every attempt must not be re-fed to
          it forever;
        * unreadable ``job.json`` → quarantined as ``failed`` with
          cause ``store-corrupted`` (recovery must never crash);
        * a job directory with *no* ``job.json`` at all — a ``create()``
          torn mid-write — is removed outright;
        * stray ``.job.json.tmp`` / ``.result.json.tmp`` /
          ``.failures.json.tmp`` halves are deleted;
        * a torn final ``events.jsonl`` line (power cut mid-append) is
          truncated away so the log ends on a valid event;
        * reserved underscore directories (``_index/``, ``_cache/``)
          are skipped — they are store metadata, not job dirs.

        Returns the records that were re-enqueued (poisoned jobs are
        discoverable via ``list(states=("poisoned",))``).  The scan also
        rebuilds the job index and counts every terminal job's events.
        """
        with self._lock:
            try:
                return self._recover(max_failures)
            except BaseException:
                self._job_index = None  # half built: the next read rescans
                raise

    def _recover(self, max_failures: int) -> List[JobRecord]:
        recovered: List[JobRecord] = []
        self._job_index, self._final_events = {}, {}
        if not self.root.is_dir():
            return recovered
        if self.index_dir().is_dir():
            sweep_stale_tmp(self.index_dir())
        for entry in sorted(self.root.iterdir()):
            if not entry.is_dir() or entry.name.startswith("_"):
                continue
            events = self.repair_events_tail(entry.name)
            sweep_stale_tmp(entry, pattern=f".{_RECORD_NAME}.tmp")
            sweep_stale_tmp(entry, pattern=f".{_RESULT_NAME}.tmp")
            sweep_stale_tmp(entry, pattern=f".{_FAILURES_NAME}.tmp")
            if not (entry / _RECORD_NAME).exists():
                # ``create()`` died between mkdir and the record
                # rename: the directory never held a job.
                shutil.rmtree(entry, ignore_errors=True)
                continue
            try:
                record = self.get(entry.name)
            except JobStoreError:
                self._quarantine(entry.name)
                continue
            self._job_index[entry.name] = _Entry.of(record)
            if record.state != "running":
                if record.state in TERMINAL_STATES:
                    self._final_events[entry.name] = events
                continue
            sweep_stale_tmp(self.scratch_dir(record.job_id))
            sweep_stale_tmp(self.scratch_dir(record.job_id),
                            pattern="result-*.pkl")
            if self.cancel_requested(record.job_id):
                self.transition(record.job_id, "cancelled")
                continue
            failures = self.append_failure(record.job_id, {
                "cause": "recovery",
                "message": "server died while the job was running; "
                           "re-enqueued from its newest checkpoint",
                "attempt": record.attempts,
                "recovery": record.recoveries + 1,
            })
            if failures >= max_failures:
                self.transition(
                    record.job_id, "poisoned",
                    recoveries=record.recoveries + 1,
                    error={
                        "cause": "poisoned",
                        "message": f"quarantined after {failures} "
                                   f"recorded failures "
                                   f"(cap {max_failures}); see the "
                                   f"job's failures.json dead-letter "
                                   f"history",
                    },
                )
                continue
            recovered.append(self.transition(
                record.job_id, "queued",
                recoveries=record.recoveries + 1,
                event_info={"reason": "recovery",
                            "recovery": record.recoveries + 1},
            ))
        return recovered

    def _quarantine(self, job_id: str) -> None:
        """Replace an unreadable record with a minimal ``failed`` one."""
        now = time.time()
        record = JobRecord(
            job_id=job_id, tenant="unknown", kind="unknown",
            algorithm="unknown", dataset="", state="failed",
            created_at=now, updated_at=now,
            error={
                "cause": "store-corrupted",
                "message": "job record was unreadable after a crash; "
                           "the job's history is lost",
            },
        )
        self._save(record)


__all__ = [
    "DEFAULT_MAX_FAILURES",
    "STATES",
    "TERMINAL_STATES",
    "EventAppender",
    "InvalidTransition",
    "JobRecord",
    "JobStore",
    "JobStoreError",
    "UnknownJob",
    "scan_events",
]
