"""Job scheduler: durable queue → supervised execution → stored result.

A composition layer: every hard primitive already exists, and this
module wires them around the :class:`~repro.server.store.JobStore`.

* The job itself is :func:`execute_job`: the CLI's run path
  (:func:`repro.tasks.run` and the result's ``payload`` view) behind two
  test hooks, ``pass_delay`` and ``kill_at_step``.  The two edges share
  one parameter table and one fit, so they cannot drift.
* Every dispatched job runs under a :class:`~repro.runtime.Supervisor`
  in a forked child, with ``resume=True``, a persistent scratch dir in
  its store directory and, for a checkpointable algorithm, its own
  checkpoint directory: a child crash
  (:class:`~repro.runtime.SupervisedCrash`, a transient fault) is
  retried with backoff and resumed from the newest snapshot, or rerun
  from the start.  Supervised children die with the scheduler
  (``PR_SET_PDEATHSIG``), so no orphan races a restarted server over
  the same checkpoints.
* :meth:`Scheduler.start` re-enqueues every job a dead server left
  ``running``; with checkpoint resume, a job is never lost and its
  result is byte-identical to an uninterrupted run.
* Cancellation is durable: a :class:`FileCancelToken` in the forked
  child polls the store's marker at every ``ctx.step`` and beat.
* Quotas degrade instead of failing: the tenant's caps clamp the job's
  own budget (:func:`repro.tasks.job_budget`), the run degrades with its
  ``on_exhausted`` policy (``truncate`` by default), and a truncated
  result is still ``done``, marked ``degraded``.
* Results are stored as *canonical bytes* (sorted-key JSON, fixed
  separators), so byte-identity is an equality on the stored file.

Robustness on top of dispatch (DESIGN.md has the full account):

* **Leases** — the child refreshes the job's lease at every
  ``ctx.step`` and at every beat of a ticking loop (at most
  :data:`~repro.runtime.context.BEAT_SECONDS` apart); a reaper SIGTERMs
  a wedged child through the supervisor's ``stop_event`` and re-enqueues
  its job, or re-enqueues an orphan record directly.
* **Poison quarantine** — each failed attempt appends to the job's
  ``failures.json``; past ``max_failures`` the job is ``poisoned``.
* **Graceful drain** — :meth:`Scheduler.drain` stops admission
  (:class:`Draining`), asks running supervisors to checkpoint and exit,
  and re-queues their jobs.
* **Disk faults** — an ``OSError`` escaping a job becomes a structured
  ``store-full`` / ``disk-error`` failure.
* **Idempotent submission** — :meth:`Scheduler.submit` binds the
  client's ``idempotency_key`` and the content key
  (:func:`~repro.server.cache.content_key`) to the job id under the
  admission lock, so concurrent retries of one POST share one job.
* **Progress events** — the child's progress hook, called at every
  ``ctx.step`` and beat, appends to the job's ``events.jsonl`` (chained
  with the lease beat by :func:`_chain_progress`), resumable across a
  server crash.
* **Result cache** — a non-degraded result is cached under its content
  key; an identical submission is admitted straight to ``done``
  (``cache_hit``) with the same bytes, and a corrupt entry is
  recomputed, never served.
"""

from __future__ import annotations

import errno
import json
import os
import queue
import signal
import threading
import time
from typing import Any, Dict, List, Optional

from .. import tasks
from ..core.exceptions import ReproError
from ..runtime.budget import (
    BudgetExceeded,
    CancellationToken,
    OperationCancelled,
)
from ..runtime.checkpoint import CheckpointWriteError
from ..runtime.context import ExecutionContext
from ..runtime.retry import RetryPolicy
from ..runtime.supervisor import (
    SupervisedCrash,
    Supervisor,
    SupervisorStopped,
)
from .cache import ResultCache, content_key
from .quotas import QuotaPolicy
from .store import (
    DEFAULT_MAX_FAILURES,
    TERMINAL_STATES,
    InvalidTransition,
    JobRecord,
    JobStore,
    JobStoreError,
)

class FileCancelToken(CancellationToken):
    """A cancellation token backed by a marker file.

    In-memory tokens cannot cross a fork: the parent setting its event
    after ``fork()`` is invisible to the child.  The job store's cancel
    marker *is* visible to both, so the child polls it at every
    ``ctx.step`` boundary and beat (at most every
    :data:`~repro.runtime.context.BEAT_SECONDS` of work — cheap relative
    to the work in between) and raises
    :class:`~repro.runtime.OperationCancelled` exactly like an
    in-process token would.
    """

    def __init__(self, path):
        super().__init__()
        self.path = str(path)

    def _poll(self) -> None:
        if not self._event.is_set() and os.path.exists(self.path):
            self.cancel("job cancelled through the job store")

    @property
    def cancelled(self) -> bool:
        self._poll()
        return self._event.is_set()

    def raise_if_cancelled(self) -> None:
        if self.cancelled:
            raise OperationCancelled(self.reason)


# ----------------------------------------------------------------------
# The job target (runs inside the supervised child)
# ----------------------------------------------------------------------
def canonical_result_bytes(payload: Dict[str, Any]) -> bytes:
    """Deterministic byte serialization of a result payload.

    Sorted keys and fixed separators make equal payloads equal *bytes*,
    which is what the crash-recovery contract asserts on.
    """
    return (json.dumps(payload, sort_keys=True,
                       separators=(",", ":")) + "\n").encode()


def _chain_progress(ctx: ExecutionContext, hook) -> ExecutionContext:
    """Compose ``hook`` after the context's existing ``on_progress``.

    Several layers want the pass-boundary callback — the scheduler's
    lease heartbeat, the ``pass_delay`` throttle, the ``kill_at_step``
    chaos hook — and a plain ``replace(on_progress=...)`` would silently
    clobber whichever installed first (dropping heartbeats is how a
    healthy job gets reaped).
    """
    previous = ctx.on_progress

    def chained(phase, info):
        if previous is not None:
            previous(phase, info)
        hook(phase, info)

    return ctx.replace(on_progress=chained)


def _apply_test_hooks(ctx: Optional[ExecutionContext],
                      values: Dict[str, Any]) -> Optional[ExecutionContext]:
    """The job-only test hooks, chained after the context's progress hook.

    Both act at every call of that hook: every ``ctx.step`` and every
    beat of a ticking loop (a fit's nodes or iterations, a counting
    scan), so they reach every job kind.  ``pass_delay`` sleeps that
    many seconds there: it stretches a job's wall-clock without touching
    its output, which is how the chaos harness guarantees the server
    dies *mid-job*.  ``kill_at_step`` SIGKILLs the job's child at its
    N-th step or beat, so every supervised attempt dies at the same
    point (the poison quarantine proof needs a job that *always*
    crashes); it is ignored outside a forked child, so it can never kill
    the server.
    """
    delay, step = values["pass_delay"], values["kill_at_step"]
    if ctx is None:
        return ctx
    if delay:
        ctx = _chain_progress(ctx, lambda phase, info: time.sleep(delay))
    if step:
        import multiprocessing

        if multiprocessing.parent_process() is not None:
            counter = {"steps": 0}

            def hook(phase, info):
                counter["steps"] += 1
                if counter["steps"] >= step:
                    os.kill(os.getpid(), signal.SIGKILL)

            ctx = _chain_progress(ctx, hook)
    return ctx


def execute_job(kind: str, dataset: str, algorithm: str,
                params: Dict[str, Any], ctx=None) -> Dict[str, Any]:
    """Run one job and return its JSON-ready result payload.

    This is the Supervisor target: it runs in a forked child with the
    injected per-attempt context (budget + file cancel token +
    resuming checkpointer) and must be deterministic in its inputs —
    the recovery proof compares its serialized output across crashed
    and uninterrupted runs.  The job is :func:`repro.tasks.run`, the
    CLI's run path, behind the two test hooks.
    """
    values = tasks.resolve(kind, params)
    ctx = _apply_test_hooks(ctx, values)
    return tasks.run(kind, algorithm, dataset, values, ctx).payload(ctx)


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------
_SENTINEL = object()


class Draining(ReproError, RuntimeError):
    """The server is draining: no new work is admitted.

    ``retry_after`` is the back-off hint (seconds) the API layer turns
    into a ``Retry-After`` header — clients should retry against the
    restarted (or replacement) instance.
    """

    def __init__(
        self,
        message: str = "server is draining; no new jobs are admitted",
        retry_after: float = 5.0,
    ):
        super().__init__(message)
        self.retry_after = float(retry_after)


class _ActiveJob:
    """In-memory handle for one dispatched job: its cooperative kill
    switch and the reason it was asked to stop (drain vs lease expiry
    decide very different follow-ups)."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.stop_event = threading.Event()
        self.reason: Optional[str] = None

    def request_stop(self, reason: str) -> None:
        if self.reason is None:
            self.reason = reason
        self.stop_event.set()


class Scheduler:
    """Worker threads draining the durable queue under quota gates.

    Parameters
    ----------
    store:
        The :class:`~repro.server.store.JobStore` all state lives in.
    quotas:
        :class:`~repro.server.quotas.QuotaPolicy`; admission is checked
        in :meth:`submit`, the per-tenant running-job gate at dispatch.
    workers:
        Worker threads (each runs at most one job at a time; every job
        forks, so the actual mining happens in child processes).
    max_retries:
        Crash-retry allowance per dispatch, fed to the
        :class:`~repro.runtime.RetryPolicy` that relaunches supervised
        children with exponential backoff.
    lease_timeout:
        Seconds a running job's lease may go unrefreshed before the
        reaper reclaims it.  Heartbeats land at every ``ctx.step`` and
        at every beat of a ticking loop, at most
        :data:`~repro.runtime.context.BEAT_SECONDS` of work apart, so
        this bounds the tolerated gap between beats of a healthy job
        (one unit of work: a tree node, a clustering iteration, a block
        of transactions) — keep it generous (default 30 s); tests shrink
        it.
    max_failures:
        Dead-letter cap: a job whose ``failures.json`` grows past this
        many entries (crashed attempts, lease expiries, boot
        recoveries) is poisoned instead of retried again.
    reap_interval:
        Reaper poll cadence; defaults to a quarter of ``lease_timeout``.
    result_cache:
        Optional :class:`~repro.server.cache.ResultCache`.  When set,
        completed non-degraded results are cached under their content
        key and identical resubmissions are served from the cache
        without re-mining; ``None`` disables caching entirely
        (idempotent *dedupe* of in-flight jobs still works — it rides
        the store's submission index, not the cache).
    """

    def __init__(
        self,
        store: JobStore,
        quotas: Optional[QuotaPolicy] = None,
        workers: int = 2,
        max_retries: int = 2,
        poll_interval: float = 0.05,
        lease_timeout: float = 30.0,
        max_failures: int = DEFAULT_MAX_FAILURES,
        reap_interval: Optional[float] = None,
        result_cache: Optional[ResultCache] = None,
    ):
        self.store = store
        self.result_cache = result_cache
        self.quotas = quotas or QuotaPolicy()
        self.workers = max(1, int(workers))
        self.max_retries = max(0, int(max_retries))
        self.poll_interval = float(poll_interval)
        self.lease_timeout = float(lease_timeout)
        self.max_failures = max(1, int(max_failures))
        self.reap_interval = (
            float(reap_interval) if reap_interval is not None
            else max(0.05, self.lease_timeout / 4.0)
        )
        self._queue: "queue.Queue" = queue.Queue()
        self._threads: List[threading.Thread] = []
        self._reaper: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._admission_lock = threading.Lock()
        self._active: Dict[str, _ActiveJob] = {}
        self._active_lock = threading.Lock()
        self._worker_seen: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> List[JobRecord]:
        """Preload, recover the store, enqueue the backlog, start the
        workers.

        Everything a job can reach is imported first
        (:func:`repro.tasks.preload`), before any thread starts, so a
        forked job child imports nothing.  Returns the records that were mid-run when the previous server
        process died and are now re-enqueued.
        """
        tasks.preload()
        recovered = self.store.recover(max_failures=self.max_failures)
        for record in reversed(self.store.list(states=("queued",))):
            self._queue.put(record.job_id)
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-scheduler-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        self._reaper = threading.Thread(
            target=self._reaper_loop, name="repro-reaper", daemon=True,
        )
        self._reaper.start()
        return recovered

    def stop(self, timeout: float = 10.0) -> None:
        """Stop dispatching; jobs already running finish (or are found
        ``running`` by the next boot's recovery scan if the process
        exits first — that is the durable design, not a leak)."""
        self._stop.set()
        for _ in self._threads:
            self._queue.put(_SENTINEL)
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        self._threads = []
        if self._reaper is not None:
            self._reaper.join(max(0.0, deadline - time.monotonic()))
            self._reaper = None

    def drain(self, grace: float = 10.0) -> bool:
        """Flip to draining and stop running jobs at a checkpoint.

        New submissions raise :class:`Draining`; queued jobs stay
        queued (durable — the restarted server picks them up); every
        running supervisor is signalled to checkpoint-and-exit and its
        job re-queued.  Returns True when all running jobs stopped
        within ``grace`` seconds (the supervisor escalates
        SIGTERM → SIGKILL itself, so even a wedged child cannot hold
        the drain hostage much past its grace period).
        """
        self._draining.set()
        with self._active_lock:
            active = list(self._active.values())
        for job in active:
            job.request_stop("drain")
        deadline = time.monotonic() + max(0.0, float(grace))
        while True:
            with self._active_lock:
                if not self._active:
                    return True
            if time.monotonic() >= deadline:
                with self._active_lock:
                    return not self._active
            time.sleep(0.02)

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def worker_liveness(self, now: Optional[float] = None) -> Dict[str, float]:
        """Seconds since each worker thread last went through its loop."""
        now = time.time() if now is None else now
        return {
            name: round(max(0.0, now - seen), 3)
            for name, seen in sorted(self._worker_seen.items())
        }

    # ------------------------------------------------------------------
    # Submission / cancellation
    # ------------------------------------------------------------------
    def submit(self, tenant: str, kind: str, algorithm: str, dataset: str,
               params: Optional[Dict[str, Any]] = None,
               idempotency_key: Optional[str] = None) -> JobRecord:
        """Admit one job: dedupe + cache lookup + quota + durable create.

        The admission lock serializes concurrent submits so two racing
        requests cannot both squeeze past the same quota headroom — and
        so N concurrent retries of the *same* submission (same
        ``idempotency_key``, or byte-identical dataset + algorithm +
        params) resolve to exactly one job directory:

        * an **in-flight** duplicate returns the existing record with a
          transient ``deduplicated`` marker (the API answers 200, not
          202) — no new work, no quota charge;
        * a duplicate of a **completed** job whose result sits in the
          cache is admitted straight to ``done`` with ``cache_hit``
          set, quota-free (no work is burned — rejecting a free answer
          on backlog grounds would punish exactly the cheap requests);
        * everything else is a fresh admission: quota check, durable
          create, index bind, enqueue.

        Raises :class:`~repro.server.quotas.OverQuota` on rejection and
        :class:`Draining` while the server is shutting down — nothing
        is persisted in either case.
        """
        if self._draining.is_set():
            raise Draining()
        params = dict(params or {})
        ckey = content_key(kind, algorithm, dataset, params)
        keys = []
        if idempotency_key:
            keys.append(f"user:{idempotency_key}")
        if ckey is not None:
            keys.append(f"content:{ckey}")
        with self._admission_lock:
            existing = self._find_inflight(keys)
            if existing is not None:
                return existing
            cached = self._cached_result(ckey)
            if cached is not None:
                return self._admit_from_cache(
                    tenant, kind, algorithm, dataset, params,
                    ckey, keys, cached,
                )
            self.quotas.admit(tenant, self.store.counts(tenant))
            record = self.store.create(
                tenant=tenant, kind=kind, algorithm=algorithm,
                dataset=dataset, params=params, content_key=ckey,
            )
            self._bind_or_rollback(keys, record.job_id)
        self._queue.put(record.job_id)
        return record

    def _find_inflight(self, keys: List[str]) -> Optional[JobRecord]:
        """The live (non-terminal) job already bound to one of ``keys``.

        Terminal bindings fall through: a *finished* duplicate is the
        cache's business (or a genuine re-run if caching is off /
        the result was degraded), not a dedupe.
        """
        for key in keys:
            job_id = self.store.lookup_submission(key)
            if job_id is None:
                continue
            try:
                record = self.store.get(job_id)
            except JobStoreError:
                continue
            if record.state in TERMINAL_STATES:
                continue
            # Transient marker, not a persisted field: only this
            # response needs to know it was a dedupe.
            record.deduplicated = True
            return record
        return None

    def _cached_result(self, ckey: Optional[str]) -> Optional[bytes]:
        if self.result_cache is None or ckey is None:
            return None
        return self.result_cache.get(ckey)

    def _admit_from_cache(self, tenant: str, kind: str, algorithm: str,
                          dataset: str, params: Dict[str, Any],
                          ckey: str, keys: List[str],
                          data: bytes) -> JobRecord:
        """Admit a duplicate submission directly to ``done`` from cache.

        A *new* job record is created (each submission keeps its own
        auditable history) but its result bytes come verbatim from the
        cache — byte-identical to the original run — and it never
        enters the queue.  Any disk fault mid-admission rolls the whole
        directory back so the exactly-one-dir invariant holds even
        under ENOSPC storms.
        """
        record = self.store.create(
            tenant=tenant, kind=kind, algorithm=algorithm,
            dataset=dataset, params=params, content_key=ckey,
        )
        job_id = record.job_id
        try:
            self.store.write_result_bytes(job_id, data)
            for key in keys:
                self.store.bind_submission(key, job_id)
            return self.store.transition(
                job_id, "done", cache_hit=True,
                event_info={"cache_hit": True},
            )
        except OSError:
            self.store.delete(job_id)
            raise

    def _bind_or_rollback(self, keys: List[str], job_id: str) -> None:
        """Bind submission keys, or roll the whole create back.

        A half-admitted job (directory exists, index bind failed) would
        break the duplicate-storm invariant the moment the next retry
        cannot find it: two directories for one submission.  Undoing
        the create keeps the failure atomic — the client retries, and
        whichever retry gets a healthy disk wins cleanly.
        """
        try:
            for key in keys:
                self.store.bind_submission(key, job_id)
        except OSError:
            self.store.delete(job_id)
            raise

    def cancel(self, job_id: str) -> JobRecord:
        """Durably request cancellation (see :meth:`JobStore.request_cancel`)."""
        return self.store.request_cancel(job_id)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            self._worker_seen[threading.current_thread().name] = time.time()
            try:
                job_id = self._queue.get(timeout=0.2)
            except queue.Empty:
                if self._stop.is_set():
                    return
                continue
            if job_id is _SENTINEL:
                return
            if self._draining.is_set():
                # Leave the job queued in the store: the restarted
                # server's boot scan re-enqueues the backlog.
                continue
            try:
                record = self.store.get(job_id)
            except JobStoreError:
                continue
            if record.state != "queued":
                continue
            if self.quotas.over_concurrency(
                record.tenant, self.store.counts(record.tenant)
            ):
                # Tenant at its running limit: park at the back of the
                # queue and let other tenants' work through.
                self._queue.put(job_id)
                time.sleep(self.poll_interval)
                continue
            self._run_job(record)

    def _retry_policy(self) -> RetryPolicy:
        return RetryPolicy(
            max_retries=self.max_retries, base_delay=0.2, max_delay=5.0,
            random_state=0,
        )

    def _run_job(self, record: JobRecord) -> None:
        store = self.store
        job_id = record.job_id
        if store.cancel_requested(job_id):
            try:
                store.transition(job_id, "cancelled")
            except InvalidTransition:  # pragma: no cover - racing cancel
                pass
            return
        try:
            record = store.transition(
                job_id, "running", expect="queued",
                attempts=record.attempts + 1,
                event_info={"attempt": record.attempts + 1},
            )
        except InvalidTransition:
            return  # cancelled (or otherwise moved) while queued
        active = _ActiveJob(job_id)
        with self._active_lock:
            self._active[job_id] = active
        try:
            if self._draining.is_set():
                # A drain that began before this job was registered did
                # not see it: park it as the drain would have.
                return self._handle_stopped(record, "drain")
            payload = self._execute(record, active)
            # The child is gone; from here the *worker thread* is the
            # one making progress, so it owns the heartbeat while it
            # canonicalizes and lands a possibly-large result.
            store.touch_lease(job_id)
            data = canonical_result_bytes(payload)
            store.touch_lease(job_id)
            store.write_result_bytes(job_id, data)
            # Cache *before* the done transition: the moment a poller
            # can observe ``done``, an identical resubmission must be
            # able to hit the cache.  (The insert is best-effort, so
            # this ordering costs nothing on the failure path.)
            self._cache_result(record, payload, data)
            store.transition(
                job_id, "done",
                degraded=bool(payload.get("degraded")), error=None,
                event_info={"degraded": bool(payload.get("degraded"))},
            )
        except OperationCancelled:
            self._finish(job_id, "cancelled")
        except SupervisorStopped:
            self._handle_stopped(record, active.reason or "stopped")
        except SupervisedCrash as exc:
            reports = getattr(exc, "all_reports", None) or [exc.report]
            count = 0
            for attempt_report in reports:
                entry = dict(attempt_report.to_dict())
                entry["kind"] = "crash"
                count = self._append_failure(job_id, entry)
            report = dict(exc.report.to_dict())
            report["kind"] = "crash"
            if count >= self.max_failures:
                self._poison(job_id, count, last=report)
            else:
                self._finish(job_id, "failed", error=report)
        except CheckpointWriteError as exc:
            self._finish(job_id, "failed", error={
                "cause": "store-full",
                "type": type(exc).__name__,
                "message": str(exc),
                "path": exc.path,
            })
        except BudgetExceeded as exc:
            self._finish(job_id, "failed", error={
                "cause": "budget-exhausted",
                "type": type(exc).__name__,
                "message": str(exc),
                "resource": exc.resource,
            })
        except OSError as exc:
            # Only genuine device/capacity failures get the disk
            # taxonomy; an ENOENT from a bad dataset path is an
            # ordinary application error.
            if exc.errno in (errno.ENOSPC, errno.EDQUOT):
                cause = "store-full"
            elif exc.errno in (errno.EIO, errno.EROFS):
                cause = "disk-error"
            else:
                cause = "error"
            report = {
                "cause": cause,
                "type": type(exc).__name__,
                "message": str(exc),
            }
            if cause != "error":
                report["errno"] = exc.errno
                report["path"] = getattr(exc, "filename", None)
            self._finish(job_id, "failed", error=report)
        except Exception as exc:  # noqa: BLE001 - a worker must not die
            self._finish(job_id, "failed", error={
                "cause": "error",
                "type": type(exc).__name__,
                "message": str(exc),
            })
        finally:
            with self._active_lock:
                self._active.pop(job_id, None)

    def _handle_stopped(self, record: JobRecord, reason: str) -> None:
        """A planned stop ended the attempt: requeue, or poison.

        * ``drain`` — not a failure at all: the job goes back to
          ``queued`` (no dead-letter entry, no recovery bump) for the
          restarted server to resume from its checkpoint.
        * ``lease-expired`` (and any other reaper stop) — the attempt
          *was* sick; record it, bump ``recoveries``, and either
          re-enqueue in-process or poison past the cap.
        """
        job_id = record.job_id
        if reason == "drain":
            self._finish(job_id, "queued", event_info={"reason": "drain"})
            return
        count = self._append_failure(job_id, {
            "cause": reason,
            "message": f"running attempt stopped by the reaper ({reason}); "
                       f"lease unrefreshed past {self.lease_timeout:g}s",
            "attempt": record.attempts,
        })
        if count >= self.max_failures:
            self._poison(job_id, count)
            return
        self._finish(job_id, "queued", recoveries=record.recoveries + 1,
                     event_info={"reason": reason})
        self._queue.put(job_id)

    def _append_failure(self, job_id: str, entry: Dict[str, Any]) -> int:
        try:
            return self.store.append_failure(job_id, entry)
        except OSError:  # the dead-letter write itself hit the disk fault
            return len(self.store.read_failures(job_id))

    def _poison(self, job_id: str, count: int,
                last: Optional[Dict[str, Any]] = None) -> None:
        error = {
            "cause": "poisoned",
            "message": f"quarantined after {count} recorded failures "
                       f"(cap {self.max_failures}); see the job's "
                       f"failures.json dead-letter history",
        }
        if last is not None:
            error["last_failure"] = last
        self._finish(job_id, "poisoned", error=error)

    def _finish(self, job_id: str, state: str, **changes: Any) -> None:
        error = changes.get("error")
        if "event_info" not in changes and isinstance(error, dict):
            # Surface the failure taxonomy in the event stream too, so
            # a poller learns *why* without refetching the full record.
            changes["event_info"] = {"cause": error.get("cause")}
        try:
            self.store.transition(job_id, state, **changes)
        except (JobStoreError, OSError):  # pragma: no cover - store died
            pass

    def _cache_result(self, record: JobRecord, payload: Dict[str, Any],
                      data: bytes) -> None:
        """Best-effort cache insert after a successful completion.

        Degraded (quota-truncated) results are never cached: their
        shape depends on the *submitting* tenant's budget, and serving
        one tenant's truncation to another would be a correctness (and
        isolation) bug.  A disk fault here is swallowed — the result
        itself is already durably stored; the cache is an optimization.
        """
        if (self.result_cache is None or not record.content_key
                or payload.get("degraded")):
            return
        try:
            self.result_cache.put(record.content_key, data)
        except OSError:
            pass

    def cache_stats(self) -> Dict[str, Any]:
        """The ``/healthz`` cache block (all-zero when disabled)."""
        if self.result_cache is None:
            return {"enabled": False, "entries": 0, "hits": 0,
                    "misses": 0, "quarantined": 0}
        stats: Dict[str, Any] = {"enabled": True}
        stats.update(self.result_cache.stats())
        return stats

    # ------------------------------------------------------------------
    # The lease reaper
    # ------------------------------------------------------------------
    def _reaper_loop(self) -> None:
        while not self._stop.wait(self.reap_interval):
            try:
                self._reap()
            except Exception:  # noqa: BLE001 - the reaper must never die
                pass

    def _reap(self) -> None:
        """Reclaim running jobs whose lease went stale.

        A job with a live :class:`_ActiveJob` has a wedged child (the
        heartbeat rides ``ctx.step`` and the beats): its supervisor is
        told to stop and the owning worker thread handles the
        requeue-or-poison.  A
        running record with *no* active handle is an orphan — a worker
        thread that died, or a record inherited from a dead process —
        and is reclaimed directly.
        """
        for record in self.store.list(states=("running",)):
            if self.store.lease_age(record.job_id) <= self.lease_timeout:
                continue
            with self._active_lock:
                active = self._active.get(record.job_id)
            if active is not None:
                active.request_stop("lease-expired")
                continue
            count = self._append_failure(record.job_id, {
                "cause": "lease-expired",
                "message": "running record has no live worker and a stale "
                           "lease; reclaimed by the reaper",
                "attempt": record.attempts,
            })
            if count >= self.max_failures:
                self._poison(record.job_id, count)
                continue
            self._finish(record.job_id, "queued",
                         recoveries=record.recoveries + 1,
                         event_info={"reason": "lease-expired"})
            self._queue.put(record.job_id)

    def _execute(self, record: JobRecord,
                 active: Optional[_ActiveJob] = None) -> Dict[str, Any]:
        spec = tasks.spec(record.kind, record.algorithm)
        values = tasks.resolve(record.kind, record.params)
        quota = self.quotas.quota_for(record.tenant)
        budget = tasks.job_budget(spec.capabilities, quota, values)
        job_id = record.job_id
        store = self.store

        appender = store.event_appender(job_id)

        def record_progress(phase, info):
            # Runs inside the forked child at every step and beat: the lease
            # file is the only liveness channel that crosses the fork,
            # and the event log rides the same boundary.  The appender
            # is deliberately created unprimed here (pre-fork): each
            # supervised attempt primes it lazily in its own child, so
            # the seq counter always continues from what is actually on
            # disk — including events a killed earlier attempt wrote.
            store.touch_lease(job_id)
            appender.append(phase, info)

        ctx = ExecutionContext(
            budget=budget,
            cancel_token=FileCancelToken(store.cancel_path(job_id)),
            on_progress=record_progress,
        )
        checkpoint: Dict[str, Any] = {}
        if spec.capabilities.checkpointable:
            checkpoint = {
                "checkpoint_dir": str(store.checkpoint_dir(job_id)),
                "checkpoint_every": values["checkpoint_every"],
            }
        supervisor = Supervisor(
            retry=self._retry_policy(),
            **checkpoint,
            resume=True,
            scratch_dir=str(store.scratch_dir(job_id)),
            stop_event=active.stop_event if active is not None else None,
        )
        args = (record.kind, record.dataset, record.algorithm, record.params)
        try:
            outcome = supervisor.run(execute_job, *args, ctx=ctx)
        except SupervisedCrash as exc:
            # Every attempt's post-mortem, not just the last one:
            # the poison ledger wants the full history.
            exc.all_reports = list(supervisor.reports_)
            raise
        return outcome.value


__all__ = [
    "Draining",
    "FileCancelToken",
    "Scheduler",
    "canonical_result_bytes",
    "execute_job",
]
