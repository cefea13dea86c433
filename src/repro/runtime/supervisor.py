"""Process-level supervision: hard limits, crash containment, resume.

The budgets of :mod:`repro.runtime.budget` are *cooperative* — they only
fire when the guarded loop reaches a checkpoint.  A candidate-set
blow-up in Apriori or a BIRCH-style memory overrun can exhaust physical
memory or wedge the interpreter before any budget check runs, and no
amount of in-process machinery survives the OOM killer's SIGKILL.  The
pieces here move enforcement *outside* the interpreter:

* :class:`HardLimits` — OS-enforced caps applied in the child via
  ``resource.setrlimit`` (memory through ``RLIMIT_AS``, CPU seconds
  through ``RLIMIT_CPU``) plus a parent-side wall-clock watchdog that
  escalates SIGTERM → grace period → SIGKILL.
* :class:`Supervisor` — runs any miner / classifier / clusterer in a
  forked child process, transports the result back through a
  checksummed temp file, and converts child death (non-zero exit,
  signal, OOM kill, torn result) into a structured
  :class:`FailureReport` instead of a traceback.
* Crash recovery composes with the checkpoint/retry machinery: when the
  supervisor manages a checkpoint directory it injects a fresh
  :class:`~repro.runtime.checkpoint.Checkpointer` into every attempt,
  with ``resume=True`` from the second attempt on, so a run killed by
  the OS continues from its newest valid snapshot under the caller's
  :class:`~repro.runtime.retry.RetryPolicy` instead of restarting.
* :class:`SupervisedCrash` subclasses
  :class:`~repro.runtime.faults.TransientFault`, so the default retry
  policy treats process death exactly like any other transient fault —
  bounded retries, exponential backoff, seeded jitter.

The chaos-proven contract (``tests/runtime/test_kill_storm.py``): a run
SIGKILLed by :class:`~repro.runtime.faults.ChaosMonkey` at several
seeded random points mid-run and auto-resumed by the supervisor returns
results byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from ..core.base import check_in_range
from ..core.exceptions import ReproError
from .checkpoint import CheckpointCorrupted, Checkpointer, CheckpointStore
from .faults import ChaosMonkey, TransientFault
from .retry import RetryPolicy
from .transport import (
    READ_ERRORS,
    bind_to_parent_death,
    read_result,
    sweep_stale_tmp,
    sweep_stale_transport,
    write_result,
)

_MB = 1024 * 1024

#: child exit code: the target raised ``MemoryError`` (RLIMIT_AS fired).
EXIT_MEMORY = 97
#: child exit code: the SIGTERM handler unwound the target gracefully.
EXIT_TERMINATED = 98


class HardLimits:
    """OS-enforced resource caps for a supervised child process.

    Parameters
    ----------
    max_rss_mb:
        Memory cap in megabytes, enforced as an address-space limit
        (``RLIMIT_AS``) — the one memory rlimit Linux actually enforces;
        ``RLIMIT_RSS`` is accepted but ignored by modern kernels.
        Address space over-counts resident set (mapped-but-untouched
        pages), so the cap is conservative: a child that trips it would
        have tripped a true RSS cap soon after.  Allocation beyond the
        cap raises ``MemoryError`` in the child, which the supervisor
        reports as cause ``"rss-limit"``.
    cpu_time_limit:
        CPU-seconds cap (``RLIMIT_CPU``); the kernel delivers SIGXCPU at
        the soft limit, reported as cause ``"cpu-limit"``.  Rounded up
        to whole seconds (the rlimit granularity).
    wall_time_limit:
        Wall-clock seconds before the parent-side watchdog escalates:
        SIGTERM first (letting the child's checkpoint ``finally`` blocks
        flush), then SIGKILL after ``grace_period`` seconds.  Reported
        as cause ``"wall-limit"``.
    grace_period:
        Seconds between SIGTERM and SIGKILL, and the slack added to the
        hard CPU rlimit above the soft one.
    """

    def __init__(
        self,
        max_rss_mb: Optional[float] = None,
        cpu_time_limit: Optional[float] = None,
        wall_time_limit: Optional[float] = None,
        grace_period: float = 2.0,
    ):
        if max_rss_mb is not None:
            check_in_range("max_rss_mb", max_rss_mb, 0.0, None,
                           low_inclusive=False)
        if cpu_time_limit is not None:
            check_in_range("cpu_time_limit", cpu_time_limit, 0.0, None,
                           low_inclusive=False)
        if wall_time_limit is not None:
            check_in_range("wall_time_limit", wall_time_limit, 0.0, None,
                           low_inclusive=False)
        check_in_range("grace_period", grace_period, 0.0, None,
                       low_inclusive=False)
        self.max_rss_mb = None if max_rss_mb is None else float(max_rss_mb)
        self.cpu_time_limit = (
            None if cpu_time_limit is None else float(cpu_time_limit)
        )
        self.wall_time_limit = (
            None if wall_time_limit is None else float(wall_time_limit)
        )
        self.grace_period = float(grace_period)

    def apply_in_child(self) -> None:
        """Install the rlimits; runs in the child, after the fork."""
        if self.max_rss_mb is not None:
            cap = int(self.max_rss_mb * _MB)
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        if self.cpu_time_limit is not None:
            soft = max(1, math.ceil(self.cpu_time_limit))
            hard = soft + max(1, math.ceil(self.grace_period))
            resource.setrlimit(resource.RLIMIT_CPU, (soft, hard))

    def to_dict(self) -> Dict[str, Optional[float]]:
        return {
            "max_rss_mb": self.max_rss_mb,
            "cpu_time_limit": self.cpu_time_limit,
            "wall_time_limit": self.wall_time_limit,
            "grace_period": self.grace_period,
        }


class FailureReport:
    """Structured description of one supervised child's death.

    Attributes
    ----------
    cause:
        ``"rss-limit"`` (memory death under the address-space cap —
        a MemoryError, or a SIGSEGV from failed stack growth),
        ``"cpu-limit"`` (SIGXCPU), ``"wall-limit"`` (watchdog
        escalation), ``"killed"`` (died on a signal the supervisor did
        not send — chaos monkey, OOM killer, operator), ``"crashed"``
        (non-zero exit), or ``"torn-result"`` (exited 0 but the result
        file is missing or unreadable).
    exit_code, signal, signal_name:
        Raw process exit status; ``signal`` is set when the child died
        on one (exit code ``-N``).
    attempt:
        1-based attempt number that produced this report.
    elapsed_seconds:
        Wall-clock duration of the attempt.
    peak_rss_mb:
        Peak resident set over the supervisor's children so far
        (``getrusage(RUSAGE_CHILDREN)``) — an upper bound on the dead
        child's footprint.
    last_checkpoint:
        Sequence number of the newest snapshot on disk, or ``None``.
    partial_result_available:
        Whether a snapshot exists *and* verifies, i.e. whether an
        auto-resume can make forward progress.
    """

    def __init__(
        self,
        cause: str,
        message: str,
        exit_code: Optional[int] = None,
        signal_number: Optional[int] = None,
        attempt: int = 1,
        elapsed_seconds: Optional[float] = None,
        peak_rss_mb: Optional[float] = None,
        limits: Optional[HardLimits] = None,
        last_checkpoint: Optional[int] = None,
        partial_result_available: bool = False,
    ):
        self.cause = cause
        self.message = message
        self.exit_code = exit_code
        self.signal = signal_number
        self.signal_name = (
            signal.Signals(signal_number).name
            if signal_number is not None else None
        )
        self.attempt = attempt
        self.elapsed_seconds = elapsed_seconds
        self.peak_rss_mb = peak_rss_mb
        self.limits = limits
        self.last_checkpoint = last_checkpoint
        self.partial_result_available = partial_result_available

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cause": self.cause,
            "message": self.message,
            "exit_code": self.exit_code,
            "signal": self.signal,
            "signal_name": self.signal_name,
            "attempt": self.attempt,
            "elapsed_seconds": self.elapsed_seconds,
            "peak_rss_mb": self.peak_rss_mb,
            "limits": self.limits.to_dict() if self.limits else None,
            "last_checkpoint": self.last_checkpoint,
            "partial_result_available": self.partial_result_available,
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), sort_keys=True)

    def __str__(self) -> str:
        return f"[{self.cause}] {self.message}"


class SupervisedCrash(TransientFault):
    """A supervised child died; carries the :class:`FailureReport`.

    Subclasses :class:`~repro.runtime.faults.TransientFault` so the
    default :class:`~repro.runtime.retry.RetryPolicy` retries it —
    process death under supervision is recoverable by construction
    (resume from the newest checkpoint, or restart a deterministic
    seeded run from scratch).  When retries are exhausted the last
    crash propagates with the final report attached.
    """

    def __init__(self, report: FailureReport):
        super().__init__(str(report))
        self.report = report


class SupervisorStopped(ReproError, RuntimeError):
    """The supervised run was stopped on request (``stop_event`` set).

    Deliberately *not* a :class:`~repro.runtime.faults.TransientFault`:
    a planned stop — graceful drain, a lease reaper reclaiming the job —
    must end the attempt loop immediately, not trigger retries.  The
    child was SIGTERMed first, so its checkpoint ``finally`` blocks had
    a grace period to flush; the caller re-enqueues and a later run
    resumes from that snapshot.
    """

    def __init__(self, reason: str = "stop requested"):
        super().__init__(f"supervised run stopped: {reason}")
        self.reason = reason


class SupervisedResult:
    """Outcome of a successful :meth:`Supervisor.run`.

    Attributes
    ----------
    value:
        Whatever the target returned, unpickled from the child.
    attempts:
        Total child processes launched (1 = no crash).
    reports:
        :class:`FailureReport` per crashed attempt, oldest first.
    peak_rss_mb:
        Peak resident set across all attempts.
    """

    def __init__(self, value, attempts: int, reports: List[FailureReport],
                 peak_rss_mb: Optional[float]):
        self.value = value
        self.attempts = attempts
        self.reports = reports
        self.peak_rss_mb = peak_rss_mb


class _HardTerminated(BaseException):
    """Raised in the child by the SIGTERM handler (watchdog escalation).

    A ``BaseException`` so ordinary ``except Exception`` recovery code in
    targets cannot swallow the shutdown, while ``finally`` blocks — in
    particular the algorithms' checkpoint ``flush()`` — still run.
    """


def _sigterm_to_exception(signum, frame):
    raise _HardTerminated()


def _child_rss_guard(fn: Callable[[], None]) -> None:
    """Run ``fn``; any ``MemoryError`` becomes the dedicated exit code."""
    try:
        fn()
    except MemoryError:
        os._exit(EXIT_MEMORY)


def _child_main(target, args, kwargs, limits, result_path) -> None:
    """Entry point of the forked child.

    Exit protocol: ``0`` means a complete result file exists (success
    *or* a pickled application error for the parent to re-raise);
    ``EXIT_MEMORY`` means the address-space cap fired; ``EXIT_TERMINATED``
    means the SIGTERM handler unwound the target cleanly.  Anything else
    is a crash for the parent to classify.
    """
    try:
        bind_to_parent_death()
        if limits is not None:
            limits.apply_in_child()
        signal.signal(signal.SIGTERM, _sigterm_to_exception)
        try:
            value = target(*args, **kwargs)
        except _HardTerminated:
            os._exit(EXIT_TERMINATED)
        except MemoryError:
            os._exit(EXIT_MEMORY)
        except BaseException as exc:
            _child_rss_guard(
                lambda: write_result(result_path, {"ok": False, "error": exc})
            )
            os._exit(0)
        _child_rss_guard(
            lambda: write_result(result_path, {"ok": True, "value": value})
        )
        os._exit(0)
    except _HardTerminated:
        os._exit(EXIT_TERMINATED)
    except MemoryError:
        os._exit(EXIT_MEMORY)
    except BaseException:
        import traceback

        traceback.print_exc()
        os._exit(1)


def _peak_child_rss_mb() -> float:
    """Peak RSS over this process's reaped children, in megabytes."""
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    divisor = _MB if sys.platform == "darwin" else 1024
    return peak / divisor


class Supervisor:
    """Run a target callable in a hard-limited, crash-contained child.

    Parameters
    ----------
    limits:
        :class:`HardLimits` applied to every child (``None`` = no caps,
        crash containment only).
    retry:
        :class:`~repro.runtime.retry.RetryPolicy` governing how many
        crashed attempts are relaunched and with what backoff.  The
        default retries nothing — the first crash propagates as
        :class:`SupervisedCrash`.  Application errors raised by the
        target re-raise in the parent and are retried only if the
        policy would retry them anyway (e.g. a
        :class:`~repro.runtime.faults.TransientFault` from flaky I/O).
    checkpoint_dir, checkpoint_every, resume:
        When ``checkpoint_dir`` is set the supervisor owns the
        checkpoint lifecycle: each attempt receives a ``ctx=``
        :class:`~repro.runtime.context.ExecutionContext` carrying a
        fresh :class:`~repro.runtime.checkpoint.Checkpointer`, resuming
        from the newest valid snapshot on every attempt after the first
        (and on the first too when ``resume``).  A caller-provided
        ``ctx`` keyword is preserved — the per-attempt context is
        derived from it with :meth:`ExecutionContext.replace`, so its
        budget and cancellation token ride along.  The target must
        accept the ``ctx`` keyword — every registered checkpointable
        algorithm does.
    keep_snapshots:
        By default a *successful* supervised run deletes its snapshots
        (they have served their purpose, and chaos runs would otherwise
        leak disk); pass ``True`` to keep them.
    monkey:
        Optional :class:`~repro.runtime.faults.ChaosMonkey` that stalks
        every attempt's child from a watcher thread — the fault-injection
        path used by the kill-storm tests and the CI chaos smoke job.
    scratch_dir:
        Directory for the result transport files.  ``None`` (the
        default) uses a fresh ``mkdtemp`` removed after the run; a path
        makes the transport durable and caller-owned — the job server
        points it inside each job's store directory so a service
        SIGKILLed mid-job can sweep the torn remains on restart.  On
        every :meth:`run` the directory is created if missing and
        swept of stale ``*.tmp`` payloads *and* stale ``result-*.pkl``
        files from a previous life (a dead run's complete result must
        never be mistaken for the new run's).
    stop_event:
        Optional :class:`threading.Event` giving the caller a
        cooperative kill switch over the running attempt.  When set,
        the child is SIGTERMed (its handler unwinds through ``finally``
        blocks, flushing checkpoints), SIGKILLed after the grace period
        if it lingers, and :class:`SupervisorStopped` is raised — no
        :class:`FailureReport`, no retries.  The job server's drain
        path and lease reaper both stop jobs through this seam.

    Every child is forked, so a target may close over unpicklable state
    (databases, fitted models): the child inherits the parent's memory
    image.  Every child also dies with the supervising process
    (``PR_SET_PDEATHSIG``, Linux), so a restarted service resuming the
    same checkpoint directory never races a live orphan.

    Examples
    --------
    >>> from repro.associations import apriori
    >>> from repro.core.transactions import TransactionDatabase
    >>> db = TransactionDatabase([(0, 1, 2), (0, 1), (0, 2), (1, 2)])
    >>> outcome = Supervisor().run(apriori, db, 0.5)
    >>> outcome.value.supports[(0, 1)]
    2
    >>> outcome.attempts
    1
    """

    def __init__(
        self,
        limits: Optional[HardLimits] = None,
        retry: Optional[RetryPolicy] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 1,
        resume: bool = False,
        keep_snapshots: bool = False,
        monkey: Optional[ChaosMonkey] = None,
        scratch_dir: Optional[str] = None,
        stop_event: Optional[threading.Event] = None,
    ):
        check_in_range("checkpoint_every", checkpoint_every, 1, None)
        self.limits = limits
        self.retry = retry
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = int(checkpoint_every)
        self.resume = bool(resume)
        self.keep_snapshots = bool(keep_snapshots)
        self.monkey = monkey
        self.scratch_dir = scratch_dir
        self.stop_event = stop_event
        #: FailureReports of crashed attempts from the last run.
        self.reports_: List[FailureReport] = []
        self._attempt = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, target: Callable, *args, **kwargs) -> SupervisedResult:
        """Execute ``target(*args, **kwargs)`` under supervision.

        Returns a :class:`SupervisedResult` on success.  Raises
        :class:`SupervisedCrash` (with the final :class:`FailureReport`)
        when the child keeps dying until the retry policy gives up, or
        re-raises the target's own exception when the child *ran* and
        failed at the application level.
        """
        policy = self.retry or RetryPolicy(
            max_retries=0, base_delay=0.0, jitter=0.0
        )
        self.reports_ = []
        self._attempt = 0
        # Orphan hygiene: one cheap scan per process removes transport
        # scratch a SIGKILLed predecessor never got to clean up.
        sweep_stale_transport(once=True)
        if self.scratch_dir is not None:
            scratch = Path(self.scratch_dir)
            scratch.mkdir(parents=True, exist_ok=True)
            self._sweep_scratch(scratch)
            owns_scratch = False
        else:
            scratch = Path(tempfile.mkdtemp(prefix="repro-supervised-"))
            owns_scratch = True
        try:
            value = policy.run(self._attempt_once, target, args, kwargs,
                               scratch)
        finally:
            if owns_scratch:
                shutil.rmtree(scratch, ignore_errors=True)
            else:
                self._sweep_scratch(scratch)
        if self.checkpoint_dir is not None and not self.keep_snapshots:
            self._store().clear()
        return SupervisedResult(
            value=value,
            attempts=self._attempt,
            reports=list(self.reports_),
            peak_rss_mb=_peak_child_rss_mb(),
        )

    # ------------------------------------------------------------------
    # One attempt
    # ------------------------------------------------------------------
    @staticmethod
    def _sweep_scratch(scratch: Path) -> None:
        """Reset a persistent scratch dir: no torn temp files, and no
        complete result files from a previous process's attempts (their
        names would collide with this run's attempt numbering)."""
        sweep_stale_tmp(scratch)
        sweep_stale_tmp(scratch, pattern="result-*.pkl")

    def _store(self) -> CheckpointStore:
        return CheckpointStore(self.checkpoint_dir)

    def _attempt_once(self, target, args, kwargs, scratch: Path):
        import multiprocessing

        self._attempt += 1
        attempt = self._attempt
        kwargs = dict(kwargs)
        store = None
        if self.checkpoint_dir is not None:
            from .context import ExecutionContext

            store = self._store()
            checkpointer = Checkpointer(
                self.checkpoint_dir,
                every=self.checkpoint_every,
                resume=self.resume or attempt > 1,
            )
            base_ctx = kwargs.get("ctx")
            if base_ctx is None:
                base_ctx = ExecutionContext()
            kwargs["ctx"] = base_ctx.replace(checkpointer=checkpointer)
        result_path = scratch / f"result-{attempt}.pkl"

        proc = multiprocessing.get_context("fork").Process(
            target=_child_main,
            args=(target, args, kwargs, self.limits, str(result_path)),
        )
        started = time.monotonic()
        proc.start()
        watcher = None
        if self.monkey is not None:
            watcher = threading.Thread(
                target=self.monkey.stalk, args=(proc, store), daemon=True
            )
            watcher.start()

        watchdog_fired, stopped = self._wait(proc, started)
        elapsed = time.monotonic() - started
        if watcher is not None:
            watcher.join(timeout=5.0)

        exit_code = proc.exitcode
        if exit_code == 0:
            # Even under a stop request a complete result wins: the
            # child beat the SIGTERM to the finish line.
            payload = self._read_result(result_path, attempt, elapsed)
            if payload["ok"]:
                return payload["value"]
            raise payload["error"]
        if stopped:
            # A planned stop is not a failure: no report, no retry.
            raise SupervisorStopped()
        report = self._classify(exit_code, watchdog_fired, attempt, elapsed)
        self.reports_.append(report)
        raise SupervisedCrash(report)

    def _wait(self, proc, started: float):
        """Join the child under the wall-clock watchdog and stop event.

        Returns ``(watchdog_fired, stop_requested)``; either path is
        SIGTERM first, SIGKILL after the grace period.
        """
        wall = self.limits.wall_time_limit if self.limits else None
        grace = self.limits.grace_period if self.limits else 2.0
        deadline = None if wall is None else started + wall
        kill_at: Optional[float] = None
        fired = False
        stopped = False
        while proc.exitcode is None:
            proc.join(0.05)
            now = time.monotonic()
            if (
                not stopped and not fired
                and self.stop_event is not None and self.stop_event.is_set()
            ):
                stopped = True
                proc.terminate()
                kill_at = now + grace
            if not fired and deadline is not None and now >= deadline:
                fired = True
                if not stopped:
                    proc.terminate()
                    kill_at = now + grace
            if kill_at is not None and now >= kill_at:
                proc.kill()
                kill_at = None
        return fired, stopped

    def _read_result(self, result_path: Path, attempt: int, elapsed: float):
        """Load the child's result file; a missing/unreadable file on a
        clean exit is itself a crash (``"torn-result"``)."""
        try:
            return read_result(str(result_path))
        except READ_ERRORS as exc:
            report = self._base_report(
                cause="torn-result",
                message=(
                    "child exited cleanly but its result file is missing "
                    f"or unreadable ({exc!r})"
                ),
                exit_code=0,
                signal_number=None,
                attempt=attempt,
                elapsed=elapsed,
            )
            self.reports_.append(report)
            raise SupervisedCrash(report) from exc

    # ------------------------------------------------------------------
    # Crash classification
    # ------------------------------------------------------------------
    def _base_report(self, cause, message, exit_code, signal_number,
                     attempt, elapsed) -> FailureReport:
        last_checkpoint = None
        partial = False
        if self.checkpoint_dir is not None:
            store = self._store()
            last_checkpoint = store.latest_seq()
            if last_checkpoint is not None:
                try:
                    partial = store.load_latest() is not None
                except CheckpointCorrupted:
                    partial = False
        return FailureReport(
            cause=cause,
            message=message,
            exit_code=exit_code,
            signal_number=signal_number,
            attempt=attempt,
            elapsed_seconds=round(elapsed, 3),
            peak_rss_mb=round(_peak_child_rss_mb(), 1),
            limits=self.limits,
            last_checkpoint=last_checkpoint,
            partial_result_available=partial,
        )

    def _classify(self, exit_code: int, watchdog_fired: bool,
                  attempt: int, elapsed: float) -> FailureReport:
        signal_number = -exit_code if exit_code < 0 else None
        if exit_code == EXIT_MEMORY:
            if self.limits is not None and self.limits.max_rss_mb is not None:
                cause = "rss-limit"
                message = (
                    f"child exceeded the {self.limits.max_rss_mb:g} MB "
                    "memory cap (MemoryError under RLIMIT_AS)"
                )
            else:
                cause = "oom"
                message = "child ran out of memory (MemoryError, no cap set)"
        elif watchdog_fired:
            cause = "wall-limit"
            message = (
                f"child exceeded the {self.limits.wall_time_limit:g} s "
                "wall-clock limit and was terminated by the watchdog"
            )
        elif signal_number == signal.SIGXCPU:
            cause = "cpu-limit"
            limit = self.limits.cpu_time_limit if self.limits else None
            message = (
                f"child exceeded the {limit:g} s CPU limit (SIGXCPU)"
                if limit is not None else "child received SIGXCPU"
            )
        elif (
            signal_number == signal.SIGSEGV
            and self.limits is not None
            and self.limits.max_rss_mb is not None
        ):
            # Under RLIMIT_AS the kernel cannot grow the stack either, so
            # address-space exhaustion sometimes lands as SIGSEGV rather
            # than a clean MemoryError.  With a cap in force, that is a
            # memory death, not a code bug.
            cause = "rss-limit"
            message = (
                f"child died on SIGSEGV under the "
                f"{self.limits.max_rss_mb:g} MB memory cap "
                "(address-space exhaustion can fail stack growth)"
            )
        elif signal_number is not None:
            name = signal.Signals(signal_number).name
            message = f"child was killed by {name}"
            if signal_number == signal.SIGKILL:
                message += " (chaos monkey, OOM killer, or operator)"
            cause = "killed"
        else:
            cause = "crashed"
            message = f"child exited with status {exit_code}"
        return self._base_report(
            cause=cause,
            message=message,
            exit_code=exit_code,
            signal_number=signal_number,
            attempt=attempt,
            elapsed=elapsed,
        )


__all__ = [
    "EXIT_MEMORY",
    "EXIT_TERMINATED",
    "FailureReport",
    "HardLimits",
    "SupervisedCrash",
    "SupervisedResult",
    "Supervisor",
    "SupervisorStopped",
]
