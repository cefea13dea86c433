"""Persistent prefork worker pool with full context propagation.

The shard-then-merge algorithms of the mining canon — Partition mines
its database chunks independently (Savasere et al., VLDB '95), CLARA
scores independent samples, levelwise miners sum per-chunk candidate
counts — parallelise naturally, as long as dispatch costs less than
the shard.  :class:`WorkerPool` is a persistent prefork pool: N
long-lived workers forked once per pool lifetime, fed task descriptors
over pipes, returning small results inline and reserving the file
transport of :mod:`repro.runtime.transport` for oversized payloads.
Large inputs travel as :class:`~repro.runtime.transport.SegmentHandle`
references into shared mmap segments placed once per parallel region,
not as per-task pickles.

Its contracts:

* **Determinism** — tasks are identified by their position; results are
  merged in task order no matter which worker finishes first, so
  ``n_jobs=k`` is byte-identical to ``n_jobs=1`` for any pure shard
  function.
* **Budget accounting across workers** — each task ships with a derived
  sub-budget (:meth:`ExecutionContext.shard_context`) capped at
  whatever the parent budget has left; when a shard returns, its
  counter usage is charged back to the parent budget, so the shared
  limits keep binding across process boundaries and exhaustion raises
  the ordinary :class:`~repro.runtime.BudgetExceeded` in the parent.
* **Cancellation fan-out** — the parent ticks its context while
  workers run: the budget deadline at every poll, the
  :class:`~repro.runtime.CancellationToken` and progress hook at every
  beat; cancelling the parent token SIGTERMs every busy worker, reaps
  it, and raises :class:`~repro.runtime.OperationCancelled`.  Idle
  workers survive for the next region.
* **Crash containment** — a worker that dies mid-task surfaces as a
  structured :class:`WorkerCrashed` carrying the exit status, and the
  dead slot is respawned at the next dispatch, so one OOM kill costs
  one task, not the pool.

``n_jobs=1`` (the default everywhere) runs shards inline in the parent
process — no fork, no transport, byte-identical to the pre-parallel
code path.  A map whose function or tasks cannot cross a pipe
(closures over databases, lambdas) runs inline the same way: the pool
needs module-level task functions and picklable task descriptors,
which the algorithm layer meets with segment handles.
"""

from __future__ import annotations

import atexit
import gc
import os
import pickle
import signal
import shutil
import tempfile
import threading
import time
import weakref
from multiprocessing import connection as _mpconn
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.base import check_in_range
from ..core.exceptions import ReproError, ValidationError
from .budget import Budget
from .context import SMALL_TASK_SECONDS, ExecutionContext, effective_n_jobs
from . import faults as _faults
from .fsio import atomic_write_bytes
from .transport import (
    READ_ERRORS,
    TMP_SUFFIX,
    bind_to_parent_death,
    read_result,
    sweep_stale_transport,
)

#: pickled-result size (bytes) above which a worker ships its payload
#: through the file transport instead of the pipe.
INLINE_RESULT_LIMIT = 1 << 20

#: upper bound (seconds) on the parent's wait between two ticks of its
#: context during a pooled map; a result arriving wakes the parent at
#: once.
POLL_INTERVAL = 0.01


def shard_bounds(n: int, n_shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` ranges covering ``0..n`` evenly.

    Sizes differ by at most one; empty shards are dropped, so the
    result is deterministic in ``n`` and ``n_shards`` and never yields
    zero-width work.
    """
    check_in_range("n_shards", n_shards, 1, None)
    n_shards = min(n_shards, n) if n else 1
    sizes = [n // n_shards] * n_shards
    for i in range(n % n_shards):
        sizes[i] += 1
    bounds = []
    start = 0
    for size in sizes:
        if size:
            bounds.append((start, start + size))
        start += size
    return bounds


class WorkerCrashed(ReproError, RuntimeError):
    """A pool worker died without delivering a result.

    Attributes
    ----------
    task_index:
        Position of the shard the dead worker was running.
    exit_code, signal_number:
        Raw process exit status (``signal_number`` set when the worker
        died on a signal).
    """

    def __init__(self, message: str, task_index: int,
                 exit_code: Optional[int] = None,
                 signal_number: Optional[int] = None):
        super().__init__(message)
        self.task_index = task_index
        self.exit_code = exit_code
        self.signal_number = signal_number


def _budget_usage(budget: Optional[Budget]) -> dict:
    if budget is None:
        return {"candidates": 0, "nodes": 0, "expansions": 0}
    return {
        "candidates": budget.candidates_used,
        "nodes": budget.nodes_used,
        "expansions": budget.expansions_used,
    }


def _charge_usage(budget: Optional[Budget], usage: dict, phase: str) -> None:
    """Charge one shard's counter usage back to the parent budget."""
    if budget is None:
        return
    if usage.get("candidates"):
        budget.charge_candidates(usage["candidates"], phase=phase)
    if usage.get("nodes"):
        budget.charge_nodes(usage["nodes"], phase=phase)
    if usage.get("expansions"):
        budget.charge_expansions(usage["expansions"], phase=phase)


def _shard_ctx(ctx: Optional[ExecutionContext]) -> Optional[ExecutionContext]:
    return None if ctx is None else ctx.shard_context()


WORKER_COMM = b"repro-pool-wkr"
"""Kernel comm name given to pool workers (15-byte prctl limit).

Makes leaked workers visible to ``ps -o comm`` / pgrep — the CI
pool-smoke job greps for exactly this string after the suites exit.
"""


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _encode_payload(payload: dict, budget: Optional[Budget]) -> bytes:
    try:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        return pickle.dumps({
            "ok": False,
            "error": ReproError(f"shard result is not picklable: {exc!r}"),
            "usage": _budget_usage(budget),
        })


def _worker_main(conn, scratch: str) -> None:
    """Main loop of one persistent pool worker.

    Protocol: the parent sends ``(index, fn, task, ctx, inline_limit)``
    tuples; the worker answers each with one bytes message — ``b"I"``
    plus the pickled payload when it fits ``inline_limit``, or ``b"F"``
    plus a path under ``scratch`` holding the payload written through
    the atomic file transport.  A ``None`` message (or a torn pipe) is
    the shutdown sentinel.  SIGTERM keeps its default disposition so
    the parent's cancellation fan-out kills a busy worker immediately;
    PDEATHSIG covers a parent that dies without running cleanup.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    bind_to_parent_death(WORKER_COMM)
    # The inherited heap (shared segments, module state, the parent's
    # whole object graph) is permanent from this worker's point of
    # view: freezing it keeps the cyclic GC from crawling millions of
    # inherited objects on every collection — and, on fork, from
    # copy-on-write-faulting their pages just to twiddle GC headers.
    gc.freeze()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            os._exit(0)
        if message is None:
            os._exit(0)
        index, fn, task, ctx, inline_limit = message
        gremlin = _faults.active_pool_gremlin()
        if gremlin is not None:
            gremlin.on_task()
        budget = None if ctx is None else ctx.budget
        try:
            value = fn(task, ctx)
            payload = {"ok": True, "value": value,
                       "usage": _budget_usage(budget)}
        except BaseException as exc:
            payload = {"ok": False, "error": exc,
                       "usage": _budget_usage(budget)}
        raw = _encode_payload(payload, budget)
        try:
            if len(raw) <= inline_limit:
                conn.send_bytes(b"I" + raw)
            else:
                path = Path(scratch) / f"result-{os.getpid()}-{index}.pkl"
                atomic_write_bytes(path, raw, tmp_name=path.name + TMP_SUFFIX,
                                   fsync_dir=False)
                conn.send_bytes(b"F" + str(path).encode())
        except (BrokenPipeError, OSError):
            os._exit(0)


class _WorkerSlot:
    """One persistent worker: its process, pipe, and in-flight task."""

    __slots__ = ("proc", "conn", "busy_index", "tasks_done")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.busy_index: Optional[int] = None
        self.tasks_done = 0


def _shutdown_workers(workers: List[_WorkerSlot], scratch) -> None:
    """Best-effort teardown shared by close(), GC, and atexit.

    Idle workers get the ``None`` sentinel and exit on their own; busy
    or unresponsive ones are SIGTERMed, then SIGKILLed past a joint
    deadline.  Operates on the mutable worker list in place so a
    ``weakref.finalize`` can run it without keeping the pool alive.
    """
    for slot in workers:
        if slot.proc.exitcode is None and slot.busy_index is None:
            try:
                slot.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
    deadline = time.monotonic() + 5.0
    for slot in workers:
        slot.proc.join(max(0.0, deadline - time.monotonic()))
        if slot.proc.exitcode is None:
            slot.proc.terminate()
            slot.proc.join(max(0.1, deadline - time.monotonic()))
        if slot.proc.exitcode is None:  # pragma: no cover - stuck worker
            slot.proc.kill()
            slot.proc.join(1.0)
        try:
            slot.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
    workers.clear()
    if scratch is not None:
        shutil.rmtree(scratch, ignore_errors=True)


class WorkerPool:
    """Execute shard tasks on persistent forked workers, merging
    deterministically.

    Parameters
    ----------
    n_jobs:
        Maximum concurrent workers; ``1`` runs every shard inline in
        the parent (no fork), ``-1`` uses one worker per available
        core.
    inline_result_limit:
        Pickled-result size above which a worker ships through the
        file transport instead of the pipe.

    Workers are forked (never spawned): they inherit the parent's
    memory image, which is what lets shared segments placed before the
    first dispatch reach them copy-on-write.  The pool is a context
    manager; workers are forked lazily at the first parallel ``map``
    and reused across successive maps until :meth:`close`.  A pool that
    is garbage-collected or alive at interpreter exit shuts its workers
    down via ``weakref.finalize``, so no usage pattern leaks processes.

    Examples
    --------
    A lambda does not pickle, so this map runs inline in the parent;
    a module-level function would run on the workers, with the same
    result:

    >>> with WorkerPool(n_jobs=2) as pool:
    ...     pool.map(lambda span, ctx: sum(range(*span)), [(0, 5), (5, 10)])
    [10, 35]
    """

    def __init__(self, n_jobs: int = 1,
                 inline_result_limit: int = INLINE_RESULT_LIMIT):
        check_in_range("inline_result_limit", inline_result_limit, 1, None)
        self.n_jobs = effective_n_jobs(n_jobs)
        self.inline_result_limit = int(inline_result_limit)
        self._workers: List[_WorkerSlot] = []
        self._scratch: Optional[Path] = None
        self._owner_pid = os.getpid()
        self._closed = False
        self._finalizer = None
        # Serialises concurrent maps from different threads sharing
        # one pool (``shared_pool`` hands every caller in a process the
        # same pool per size).  Interleaving two maps on one set of
        # slots would cross-deliver results; queueing the second map is
        # also the right throughput call, since the pool already holds
        # every worker this pool size is allowed.
        self._map_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable[[Any, Optional[ExecutionContext]], Any],
        tasks: Sequence[Any],
        ctx: Optional[ExecutionContext] = None,
        phase: str = "shard",
        probe: bool = False,
    ) -> List[Any]:
        """``[fn(task, shard_ctx) for task in tasks]``, possibly pooled.

        ``fn`` must be deterministic in its task and must not rely on
        mutating shared state — under ``n_jobs>1`` it runs in a worker
        process, and only its return value (which must be picklable)
        comes back.  Each task ships with a shard context carrying a
        derived sub-budget; checkpointers and progress hooks are
        stripped (the caller marks/reports at merge points in the
        parent).

        With ``probe=True`` the first task runs inline in the parent
        and is timed; when it finishes under
        :data:`SMALL_TASK_SECONDS`, the remaining tasks run inline too
        — dispatch overhead would exceed the work.  Use it for
        many-small-task regions (clustering restarts, CV folds), not
        for counting passes whose per-shard cost is known to dominate.

        Results are returned in task order.  A shard that raises sees
        its exception re-raised here (after its budget usage is charged
        to the parent), busy workers are SIGTERMed, and idle workers
        stay warm for the next map.

        An ``fn``/task pair that cannot be pickled (a closure over a
        database, a lambda) runs inline in the parent, exactly as under
        ``n_jobs=1``: same results, no parallelism.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        if self.n_jobs == 1 or len(tasks) == 1:
            return [fn(task, ctx) for task in tasks]
        head: List[Any] = []
        if probe:
            started = time.monotonic()
            head.append(fn(tasks[0], ctx))
            elapsed = time.monotonic() - started
            tasks = tasks[1:]
            if elapsed < SMALL_TASK_SECONDS or len(tasks) == 1:
                return head + [fn(task, ctx) for task in tasks]
        if not self._pipe_safe(fn, tasks[0], ctx):
            return head + [fn(task, ctx) for task in tasks]
        with self._map_lock:
            return head + self._map_pooled(fn, tasks, ctx, phase)

    def close(self) -> None:
        """Shut every worker down and delete the scratch directory.

        Idempotent; safe to call with workers never forked.  Only the
        owning process tears workers down — a pool object inherited
        across a fork abandons its slots instead of killing processes
        it does not own.
        """
        self._closed = True
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if os.getpid() != self._owner_pid:
            self._workers = []
            self._scratch = None
            return
        _shutdown_workers(self._workers, self._scratch)
        self._scratch = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (diagnostics and leak tests)."""
        return [slot.proc.pid for slot in self._workers
                if slot.proc.exitcode is None]

    # ------------------------------------------------------------------
    # Pooled execution
    # ------------------------------------------------------------------
    def _pipe_safe(self, fn, sample_task, ctx) -> bool:
        try:
            pickle.dumps((fn, sample_task, _shard_ctx(ctx)),
                         protocol=pickle.HIGHEST_PROTOCOL)
            return True
        except Exception:
            return False

    def _ensure_workers(self) -> None:
        """Fork workers into empty/dead slots; abandon inherited state.

        Respawning here (not at crash time) keeps the crash path simple
        — a dead slot costs its in-flight task a :class:`WorkerCrashed`
        and is replaced at the next dispatch, exactly once.
        """
        if self._closed:
            raise ValidationError("WorkerPool is closed")
        if os.getpid() != self._owner_pid:
            # Inherited across a fork: the workers belong to the parent.
            self._workers = []
            self._scratch = None
            self._owner_pid = os.getpid()
            self._finalizer = None
        import multiprocessing

        mp = multiprocessing.get_context("fork")
        if self._scratch is None:
            sweep_stale_transport(once=True)
            self._scratch = Path(tempfile.mkdtemp(prefix="repro-pool-"))
        self._workers[:] = [
            slot for slot in self._workers if slot.proc.exitcode is None
        ]
        while len(self._workers) < self.n_jobs:
            parent_conn, child_conn = mp.Pipe(duplex=True)
            proc = mp.Process(
                target=_worker_main,
                args=(child_conn, str(self._scratch)),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._workers.append(_WorkerSlot(proc, parent_conn))
        if self._finalizer is None:
            self._finalizer = weakref.finalize(
                self, _shutdown_workers, self._workers, self._scratch
            )

    def _map_pooled(self, fn, tasks, ctx, phase) -> List[Any]:
        self._ensure_workers()
        budget = None if ctx is None else ctx.budget
        results: List[Any] = [None] * len(tasks)
        pending = list(enumerate(tasks))
        # Any error raised in this loop — a shard's own exception, a
        # crashed worker, the budget or the cancellation token — ends
        # the map: busy workers are SIGTERMed, idle ones stay warm.
        try:
            while pending or any(s.busy_index is not None
                                 for s in self._workers):
                # Fill idle workers.  The shard context is derived at
                # dispatch time so later tasks see the budget remaining
                # *after* earlier charges.
                for slot in self._workers:
                    if not pending:
                        break
                    if slot.busy_index is not None \
                            or slot.proc.exitcode is not None:
                        continue
                    index, task = pending.pop(0)
                    try:
                        slot.conn.send((index, fn, task, _shard_ctx(ctx),
                                        self.inline_result_limit))
                    except (BrokenPipeError, OSError):
                        raise self._crash_error(slot, index)
                    slot.busy_index = index
                busy = [s for s in self._workers if s.busy_index is not None]
                if not busy and pending:
                    # every worker slot died before accepting work
                    raise WorkerCrashed("no live pool workers remain",
                                        task_index=pending[0][0])
                waitables = [s.conn for s in busy] + \
                    [s.proc.sentinel for s in busy]
                ready = set(_mpconn.wait(waitables, timeout=POLL_INTERVAL))
                # Parent-side fan-out point: the budget deadline and
                # cancellation fire here, terminating busy workers, and
                # a long map beats the caller's progress hook.
                if ctx is not None:
                    ctx.tick(phase)
                for slot in busy:
                    if slot.conn in ready or slot.conn.poll(0):
                        index, value = self._collect(slot, budget, phase)
                        results[index] = value
                    elif slot.proc.sentinel in ready:
                        index, slot.busy_index = slot.busy_index, None
                        raise self._crash_error(slot, index)
            return results
        except BaseException:
            self._terminate_busy()
            raise

    def _collect(self, slot: _WorkerSlot, budget, phase):
        """``(index, value)`` of one worker's answer; raises the shard's
        error, or :class:`WorkerCrashed` for a lost answer."""
        index, slot.busy_index = slot.busy_index, None
        try:
            blob = slot.conn.recv_bytes()
        except (EOFError, OSError):
            slot.proc.join(5.0)
            raise self._crash_error(slot, index)
        slot.tasks_done += 1
        try:
            if blob[:1] == b"I":
                payload = pickle.loads(blob[1:])
            else:
                path = blob[1:].decode()
                payload = read_result(path)
                try:
                    os.unlink(path)
                except OSError:
                    pass
        except READ_ERRORS as exc:
            raise WorkerCrashed(
                f"pool worker answered for shard {index} but its result "
                f"is missing or unreadable ({exc!r})",
                task_index=index,
                exit_code=0,
            )
        # Charging before propagating keeps the parent budget
        # authoritative: a shard that burned the last of the allowance
        # makes the *parent* raise, exactly as the serial loop would.
        _charge_usage(budget, payload.get("usage", {}), phase)
        if payload["ok"]:
            return index, payload["value"]
        raise payload["error"]

    def _crash_error(self, slot: _WorkerSlot, index) -> WorkerCrashed:
        slot.proc.join(5.0)
        exit_code = slot.proc.exitcode
        signal_number = -exit_code if exit_code is not None \
            and exit_code < 0 else None
        detail = (
            f"killed by {signal.Signals(signal_number).name}"
            if signal_number is not None
            else f"exited with status {exit_code}"
        )
        return WorkerCrashed(
            f"pool worker for shard {index} {detail}",
            task_index=index if index is not None else -1,
            exit_code=exit_code if signal_number is None else exit_code,
            signal_number=signal_number,
        )

    def _terminate_busy(self) -> None:
        """Kill workers still holding a task; idle workers stay warm."""
        busy = [s for s in self._workers if s.busy_index is not None
                and s.proc.exitcode is None]
        for slot in busy:
            slot.proc.terminate()
        deadline = time.monotonic() + 5.0
        for slot in busy:
            slot.proc.join(max(0.0, deadline - time.monotonic()))
            if slot.proc.exitcode is None:  # pragma: no cover - stuck
                slot.proc.kill()
                slot.proc.join(1.0)
        dead = [s for s in self._workers if s.proc.exitcode is not None]
        for slot in dead:
            try:
                slot.conn.close()
            except OSError:  # pragma: no cover
                pass
        self._workers[:] = [
            s for s in self._workers if s.proc.exitcode is None
        ]


# ----------------------------------------------------------------------
# Shared pools (one warm pool per worker count, per process)
# ----------------------------------------------------------------------
_SHARED_POOLS: Dict[int, WorkerPool] = {}
_SHARED_POOLS_PID: Optional[int] = None


def shared_pool(n_jobs: int) -> WorkerPool:
    """The process-wide warm pool for ``n_jobs`` workers.

    Algorithm shard points use this instead of constructing throwaway
    pools, so successive passes and runs in one process reuse the same
    forked workers instead of re-paying fork cost per parallel region.
    Pools are keyed by worker count and torn down by
    :func:`close_shared_pools` (wired to ``atexit``).  A registry
    inherited across a fork is abandoned, never reused: each process —
    a supervised job child included — gets its own workers.
    """
    global _SHARED_POOLS_PID
    if _SHARED_POOLS_PID != os.getpid():
        _SHARED_POOLS.clear()
        _SHARED_POOLS_PID = os.getpid()
    n_jobs = effective_n_jobs(n_jobs)
    pool = _SHARED_POOLS.get(n_jobs)
    if pool is None or pool._closed:
        pool = WorkerPool(n_jobs=n_jobs)
        _SHARED_POOLS[n_jobs] = pool
    return pool


def close_shared_pools() -> None:
    """Shut down every warm shared pool owned by this process."""
    if _SHARED_POOLS_PID is not None and _SHARED_POOLS_PID != os.getpid():
        _SHARED_POOLS.clear()
        return
    for pool in list(_SHARED_POOLS.values()):
        pool.close()
    _SHARED_POOLS.clear()


atexit.register(close_shared_pools)


__all__ = [
    "INLINE_RESULT_LIMIT",
    "WorkerCrashed",
    "WorkerPool",
    "close_shared_pools",
    "shard_bounds",
    "shared_pool",
]
