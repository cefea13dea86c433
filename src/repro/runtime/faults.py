"""Deterministic fault injection for budget checkpoints.

The ``tests/runtime`` suite needs to prove that every guarded loop
actually reaches a budget checkpoint — without relying on wall-clock
races or pathological inputs.  The pieces here make that deterministic:

* :class:`VirtualClock` — an injectable time source (``Budget(clock=...)``)
  that only moves when told to, so deadline tests never sleep;
* :class:`SlowPass` — a fault that advances a virtual clock on every
  checkpoint, simulating a slow pass until the deadline fires;
* :class:`TriggerAfter` — a fault that raises on the N-th checkpoint,
  proving the guarded loop polls its budget at all.

Faults are attached with :meth:`Budget.install_fault` and run at the
start of every full :meth:`Budget.check`.
"""

from __future__ import annotations

import errno as _errno
import os
import signal as _signal
import time
from typing import Callable, List, Optional, Tuple, Union

from ..core.base import check_in_range
from ..core.exceptions import ReproError
from ..core.random import RandomState, check_random_state
from .budget import Budget, IterationBudgetExceeded


class TransientFault(ReproError, RuntimeError):
    """A failure worth retrying: storage hiccups, flaky I/O, races.

    Deliberately *not* a :class:`~repro.runtime.budget.BudgetExceeded`:
    budget exhaustion is a deterministic property of the run and must
    not be retried, whereas a transient fault is expected to clear on
    its own — :class:`~repro.runtime.retry.RetryPolicy` retries exactly
    this type by default.
    """


class Fault:
    """Base class: ``on_check`` runs at every full budget checkpoint."""

    def on_check(self, budget: Budget) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class InjectedFault(IterationBudgetExceeded):
    """Raised by :class:`TriggerAfter` when no custom factory is given.

    Subclasses :class:`IterationBudgetExceeded` so production code paths
    treat an injected failure exactly like real budget exhaustion.
    """


class TriggerAfter(Fault):
    """Raise deterministically on the ``n_checks``-th budget checkpoint.

    Parameters
    ----------
    n_checks:
        Which full check fires the fault (1 = the very first).
    exc_factory:
        Optional zero-argument callable building the exception to raise;
        defaults to :class:`InjectedFault`.

    Examples
    --------
    >>> budget = Budget().install_fault(TriggerAfter(2))
    >>> budget.check()
    >>> budget.check()
    Traceback (most recent call last):
        ...
    repro.runtime.faults.InjectedFault: injected fault at check 2
    """

    def __init__(
        self,
        n_checks: int,
        exc_factory: Optional[Callable[[], BaseException]] = None,
    ):
        check_in_range("n_checks", n_checks, 1, None)
        self.n_checks = n_checks
        self.exc_factory = exc_factory
        self.fired = False

    def on_check(self, budget: Budget) -> None:
        if budget.n_checks >= self.n_checks and not self.fired:
            self.fired = True
            if self.exc_factory is not None:
                raise self.exc_factory()
            raise InjectedFault(
                f"injected fault at check {budget.n_checks}",
                resource="expansions",
                limit=self.n_checks,
                used=budget.n_checks,
            )


class SlowPass(Fault):
    """Advance a :class:`VirtualClock` on every checkpoint.

    Attach to a budget whose ``clock`` is the same virtual clock and
    every check costs ``delay`` simulated seconds — a deadline of
    ``time_limit`` then fires after ``time_limit / delay`` checks with
    zero real sleeping, raising :class:`TimeBudgetExceeded` from the
    budget's own deadline logic.
    """

    def __init__(self, clock: "VirtualClock", delay: float):
        check_in_range("delay", delay, 0.0, None)
        self.clock = clock
        self.delay = delay

    def on_check(self, budget: Budget) -> None:
        self.clock.advance(self.delay)


class FlakyFault(Fault):
    """Raise :class:`TransientFault` on the next ``n_failures`` checks.

    Models an environment that fails transiently a few times and then
    recovers: each raise consumes one failure, so a run wrapped in a
    :class:`~repro.runtime.retry.RetryPolicy` fails on its first
    ``n_failures`` attempts and succeeds on the next one.
    """

    def __init__(self, n_failures: int):
        check_in_range("n_failures", n_failures, 0, None)
        self.remaining = int(n_failures)

    def on_check(self, budget: Budget) -> None:
        if self.remaining > 0:
            self.remaining -= 1
            raise TransientFault(
                f"injected transient fault ({self.remaining} remaining)"
            )


class ChaosMonkey:
    """SIGKILL a supervised child process at seeded random points mid-run.

    The cooperative faults above prove that guarded loops poll their
    budgets; the monkey proves the *process-level* story — that a child
    killed by the OS (OOM killer, preempting scheduler, operator
    ``kill -9``) resumes from its newest checkpoint and still produces
    byte-identical results.  It is wired into
    :class:`~repro.runtime.supervisor.Supervisor` via the ``monkey=``
    parameter and stalks each attempt's child from a watcher thread.

    Two seeded trigger modes:

    * **checkpoint-triggered** (the default, used when the supervisor
      manages a checkpoint directory): the strike fires after the child
      persists ``n`` *new* snapshots this attempt, with ``n`` drawn from
      ``after_checkpoints``.  Because every trigger requires at least
      one newly persisted boundary, each doomed attempt makes forward
      progress — a kill storm of any length terminates.
    * **delay-triggered** (fallback when there is no checkpoint store to
      watch): the strike fires after a delay drawn from ``delay_range``
      seconds.

    Parameters
    ----------
    kills:
        Total strikes the monkey will perform across all attempts; once
        exhausted it goes dormant and the run completes undisturbed.
    after_checkpoints:
        Inclusive ``(lo, hi)`` range for the checkpoint-count trigger.
    delay_range:
        ``(lo, hi)`` seconds for the delay trigger.
    random_state:
        Seed for the trigger stream — a given seed produces one
        deterministic schedule of trigger points.
    poll_interval:
        Seconds between checks of the child / checkpoint directory.
    """

    def __init__(
        self,
        kills: int = 1,
        after_checkpoints: Tuple[int, int] = (1, 2),
        delay_range: Tuple[float, float] = (0.005, 0.05),
        random_state: RandomState = 0,
        poll_interval: float = 0.002,
    ):
        check_in_range("kills", kills, 0, None)
        lo, hi = after_checkpoints
        check_in_range("after_checkpoints[0]", lo, 1, None)
        check_in_range("after_checkpoints[1]", hi, lo, None)
        dlo, dhi = delay_range
        check_in_range("delay_range[0]", dlo, 0.0, None)
        check_in_range("delay_range[1]", dhi, dlo, None)
        check_in_range("poll_interval", poll_interval, 0.0, None,
                       low_inclusive=False)
        self.kills = int(kills)
        self.after_checkpoints = (int(lo), int(hi))
        self.delay_range = (float(dlo), float(dhi))
        self.poll_interval = float(poll_interval)
        self._rng = check_random_state(random_state)
        #: strike log: one dict per attempt that died of the monkey's SIGKILL.
        self.strikes: List[dict] = []

    @property
    def remaining(self) -> int:
        """Strikes the monkey may still perform."""
        return self.kills - len(self.strikes)

    def stalk(self, process, store=None) -> None:
        """Watch one attempt's ``process`` and maybe SIGKILL it.

        Blocking — the supervisor runs it in a daemon thread per
        attempt.  Returns when the strike lands, the child exits on its
        own, or the monkey is dormant.  ``process`` needs ``pid``,
        ``is_alive()`` and ``exitcode`` (a :class:`multiprocessing.Process`
        fits);
        ``store`` is the :class:`~repro.runtime.checkpoint.CheckpointStore`
        to watch for the checkpoint trigger.
        """
        if self.remaining <= 0:
            return
        lo, hi = self.after_checkpoints
        dlo, dhi = self.delay_range
        if store is not None:
            threshold = int(self._rng.integers(lo, hi + 1))
            baseline = store.latest_seq() or 0
            while process.is_alive():
                newest = store.latest_seq() or 0
                if newest >= baseline + threshold:
                    self._strike(process, trigger={
                        "mode": "checkpoint",
                        "threshold": threshold,
                        "snapshot_seq": newest,
                    })
                    return
                time.sleep(self.poll_interval)
        else:
            delay = dlo + (dhi - dlo) * float(self._rng.random())
            deadline = time.monotonic() + delay
            while process.is_alive():
                if time.monotonic() >= deadline:
                    self._strike(process, trigger={
                        "mode": "delay",
                        "delay": delay,
                    })
                    return
                time.sleep(self.poll_interval)

    def _strike(self, process, trigger: dict) -> None:
        """Deliver SIGKILL; only a kill that ends the attempt counts.

        A child can exit on its own between the ``is_alive()`` check and
        the signal.  It is then an unreaped zombie, so the kill succeeds
        although the attempt did not die of it.  The strike is therefore
        recorded only once the child's exit status shows SIGKILL.
        """
        pid = process.pid
        if pid is None or not process.is_alive():
            return
        try:
            os.kill(pid, _signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        deadline = time.monotonic() + 5.0
        while process.exitcode is None and time.monotonic() < deadline:
            time.sleep(self.poll_interval)
        if process.exitcode == -_signal.SIGKILL:
            self.strikes.append({"pid": pid, **trigger})


#: disk-protocol stages a :class:`DiskGremlin` can break: the ``op``
#: strings :func:`repro.runtime.fsio.atomic_write_bytes` reports, plus
#: the ``"append"`` stage of :func:`repro.runtime.fsio.append_bytes`
#: (event-log appends).
DISK_OPS = ("write", "fsync", "replace", "fsync-dir", "append")


class DiskGremlin:
    """Inject disk faults into the atomic-write seam (:mod:`..fsio`).

    The sibling of :class:`ChaosMonkey`: the monkey kills processes,
    the gremlin breaks the *disk* under them — ``ENOSPC`` on a full
    store, ``EIO`` from a dying device, an fsync the hardware lies
    about, a rename a power cut tears in half.  Install it process-wide
    with :func:`repro.runtime.fsio.install_injector` (or the
    ``fsio.injected(...)`` context manager); forked supervised children
    inherit the installation, so one gremlin covers every storage plane
    — job-store records, checkpoint snapshots, transport payloads.

    The trigger is deterministic and seedable: the first ``after``
    matching operations pass through untouched, then the next ``burst``
    matching operations fail, then the disk "heals" and everything
    passes again — the classic shape of a store filling up and an
    operator clearing space.

    Parameters
    ----------
    op:
        Which protocol stage to break: ``"write"``, ``"fsync"``,
        ``"replace"``, ``"fsync-dir"``, or ``"append"`` (event-log
        appends).
    errno_code:
        ``errno`` of the injected :class:`OSError`;
        ``errno.ENOSPC`` by default, ``errno.EIO`` for device faults.
    after:
        Matching operations let through before the first fault — an
        int, or an inclusive ``(lo, hi)`` range drawn once from
        ``random_state`` (the seeded mid-job burst the CI smoke uses).
    burst:
        Consecutive matching operations that fail once triggered;
        ``None`` never heals (a permanently full disk).
    match:
        Substring the *path* must contain for the gremlin to care
        (e.g. ``"result.json"`` to target only the store's result
        plane); ``None`` matches everything.
    torn:
        Simulate a power cut at the rename: the injected error is
        marked so the seam leaves the half-written temp file on disk
        for the recovery sweeps to find, exactly like a real crash.
        Only meaningful with ``op="replace"``.
    random_state:
        Seed for the ``after`` range draw.

    Examples
    --------
    >>> import errno
    >>> gremlin = DiskGremlin(op="write", after=0, burst=2)
    >>> try:
    ...     gremlin.on_op("write", "/store/job/.job.json.tmp")
    ... except OSError as exc:
    ...     exc.errno == errno.ENOSPC
    True
    """

    def __init__(
        self,
        op: str = "write",
        errno_code: int = _errno.ENOSPC,
        after: Union[int, Tuple[int, int]] = 0,
        burst: Optional[int] = 1,
        match: Optional[str] = None,
        torn: bool = False,
        random_state: RandomState = 0,
    ):
        if op not in DISK_OPS:
            raise ReproError(
                f"unknown disk op {op!r}; choices: {DISK_OPS}"
            )
        if isinstance(after, tuple):
            lo, hi = after
            check_in_range("after[0]", lo, 0, None)
            check_in_range("after[1]", hi, lo, None)
            rng = check_random_state(random_state)
            self.after = int(rng.integers(int(lo), int(hi) + 1))
        else:
            check_in_range("after", after, 0, None)
            self.after = int(after)
        if burst is not None:
            check_in_range("burst", burst, 1, None)
        self.op = op
        self.errno_code = int(errno_code)
        self.burst = None if burst is None else int(burst)
        self.match = match
        self.torn = bool(torn)
        self._seen = 0
        #: log of the faults actually injected, oldest first.
        self.injected: List[dict] = []

    def on_op(self, op: str, path: str) -> None:
        """The :mod:`..fsio` hook: raise :class:`OSError` per schedule."""
        if op != self.op:
            return
        if self.match is not None and self.match not in path:
            return
        self._seen += 1
        if self._seen <= self.after:
            return
        if self.burst is not None and len(self.injected) >= self.burst:
            return  # the disk has healed
        self.injected.append({"op": op, "path": path,
                              "errno": self.errno_code})
        message = (
            f"injected disk fault at {op} #{self._seen} "
            f"({os.strerror(self.errno_code)})"
        )
        exc = OSError(self.errno_code, message, path)
        if self.torn:
            exc.repro_leave_tmp = True
        raise exc


class PoolGremlin:
    """Crash a persistent pool worker on its N-th task, from the inside.

    :class:`ChaosMonkey` SIGKILLs supervised children from the outside;
    the pool's failure surface is different — a long-lived worker dying
    *mid-task* must surface as :class:`~repro.runtime.parallel.WorkerCrashed`
    with the right classification and be replaced by a fresh worker on
    the next dispatch.  The gremlin is installed process-wide **before**
    the pool forks its workers, so every worker inherits it and counts
    the tasks it executes; the worker whose counter hits ``kill_at_task``
    dies via ``os._exit`` / raw signal without writing a result, exactly
    like an OOM kill between recv and send.

    Parameters
    ----------
    kill_at_task:
        1-based index, per worker process, of the task that dies.
    signum:
        ``None`` exits with :attr:`exit_code`; a signal number (e.g.
        ``signal.SIGKILL``) raises it against the worker itself.
    exit_code:
        Exit status used when ``signum`` is ``None``.
    """

    def __init__(self, kill_at_task: int = 1,
                 signum: Optional[int] = None, exit_code: int = 7):
        check_in_range("kill_at_task", kill_at_task, 1, None)
        self.kill_at_task = int(kill_at_task)
        self.signum = signum
        self.exit_code = int(exit_code)
        self._tasks_seen = 0

    def on_task(self) -> None:
        """Called by a worker as it picks up one task; maybe dies here."""
        self._tasks_seen += 1
        if self._tasks_seen != self.kill_at_task:
            return
        if self.signum is not None:
            os.kill(os.getpid(), self.signum)
            time.sleep(5.0)  # pragma: no cover - waiting for the signal
        os._exit(self.exit_code)


#: the process-wide pool gremlin, inherited by forked pool workers.
_POOL_GREMLIN: Optional[PoolGremlin] = None


def install_pool_gremlin(gremlin: PoolGremlin) -> PoolGremlin:
    """Install ``gremlin`` process-wide; fork workers *after* this."""
    global _POOL_GREMLIN
    _POOL_GREMLIN = gremlin
    return gremlin


def clear_pool_gremlin() -> None:
    """Remove the installed pool gremlin (parent-side cleanup)."""
    global _POOL_GREMLIN
    _POOL_GREMLIN = None


def active_pool_gremlin() -> Optional[PoolGremlin]:
    """The installed pool gremlin, if any (worker-side hook)."""
    return _POOL_GREMLIN


class VirtualClock:
    """Deterministic manual time source for deadline tests.

    Callable (returns the current simulated time) so it plugs straight
    into ``Budget(clock=...)``.

    >>> clock = VirtualClock()
    >>> clock()
    0.0
    >>> clock.advance(1.5)
    >>> clock()
    1.5
    """

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        check_in_range("dt", dt, 0.0, None)
        self.now += dt


__all__ = [
    "ChaosMonkey",
    "DISK_OPS",
    "DiskGremlin",
    "Fault",
    "FlakyFault",
    "InjectedFault",
    "PoolGremlin",
    "TransientFault",
    "TriggerAfter",
    "SlowPass",
    "VirtualClock",
    "active_pool_gremlin",
    "clear_pool_gremlin",
    "install_pool_gremlin",
]
