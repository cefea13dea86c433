"""Execution budgets and cooperative cancellation.

The mining canon is full of algorithms whose cost explodes with input
shape — Apriori candidate blow-up at low support, quadratic region
queries, non-converging medoid search.  A service cannot ship miners
that may hang or eat unbounded memory, so every long-running algorithm
in this library accepts an optional :class:`Budget` and checks it
cooperatively from its hot loops:

* a **wall-clock deadline** (``time_limit`` seconds) raises
  :class:`TimeBudgetExceeded`;
* **space caps** (``max_candidates`` generated candidates,
  ``max_nodes`` materialised tree/structure nodes) raise
  :class:`SpaceBudgetExceeded`;
* an **expansion cap** (``max_expansions`` — iterations, region
  queries, recursive descents; a proxy for total work) raises
  :class:`IterationBudgetExceeded`;
* a :class:`CancellationToken` lets another thread stop the run at the
  next checkpoint, raising :class:`OperationCancelled`.

All three exhaustion errors derive from :class:`BudgetExceeded`
(itself a :class:`~repro.core.exceptions.ReproError`), so callers can
catch one class.  Cancellation deliberately does *not* derive from
:class:`BudgetExceeded`: algorithms that degrade gracefully on budget
exhaustion must still abort promptly when cancelled.

A budget with no limits set never raises, and a run without one (the
default everywhere) skips every check — results are bit-identical to an
unbudgeted run.

Algorithms receive their budget through their
:class:`~repro.runtime.context.ExecutionContext`: ``ctx.step`` checks it
at pass boundaries, ``ctx.tick`` charges and checks it per unit of work,
and per-item charges (a generated candidate, an emitted itemset) go to
it directly.  Progress reports go to the context's ``on_progress``, not
to the budget.  Checks are also the injection points of the fault
harness in :mod:`repro.runtime.faults`.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional

from ..core.base import check_in_range
from ..core.exceptions import ReproError


class BudgetExceeded(ReproError, RuntimeError):
    """Base class for budget exhaustion.

    Attributes
    ----------
    resource:
        Which resource ran out (``"time"``, ``"candidates"``,
        ``"nodes"``, ``"expansions"``).
    limit, used:
        The configured cap and the amount consumed when it fired.
    """

    def __init__(
        self,
        message: str,
        *,
        resource: Optional[str] = None,
        limit: Optional[float] = None,
        used: Optional[float] = None,
    ):
        super().__init__(message)
        self.resource = resource
        self.limit = limit
        self.used = used


class TimeBudgetExceeded(BudgetExceeded):
    """The wall-clock deadline passed."""


class SpaceBudgetExceeded(BudgetExceeded):
    """A candidate/node count cap was hit (memory-shaped exhaustion)."""


class IterationBudgetExceeded(BudgetExceeded):
    """An iteration/expansion cap was hit (work-shaped exhaustion)."""


class OperationCancelled(ReproError, RuntimeError):
    """The run was cancelled through its :class:`CancellationToken`."""

    def __init__(self, reason: Optional[str] = None):
        super().__init__(reason or "operation cancelled")
        self.reason = reason


class CancellationToken:
    """Cooperative, thread-safe cancellation signal.

    Hand the same token to a :class:`Budget` and to whatever owns the
    run (another thread, a request handler); calling :meth:`cancel`
    makes the algorithm raise :class:`OperationCancelled` at its next
    checkpoint.

    >>> token = CancellationToken()
    >>> token.cancelled
    False
    >>> token.cancel("shutting down")
    >>> token.cancelled
    True
    """

    def __init__(self):
        self._event = threading.Event()
        self._reason: Optional[str] = None

    def cancel(self, reason: Optional[str] = None) -> None:
        """Request cancellation (idempotent; the first reason wins)."""
        if not self._event.is_set():
            self._reason = reason
            self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> Optional[str]:
        return self._reason

    def raise_if_cancelled(self) -> None:
        """Raise :class:`OperationCancelled` if :meth:`cancel` was called."""
        if self._event.is_set():
            raise OperationCancelled(self._reason)


class Budget:
    """Enforceable execution budget, checked cooperatively.

    Parameters
    ----------
    time_limit:
        Wall-clock seconds before :class:`TimeBudgetExceeded`
        (``None`` = no deadline).  The clock starts at the first
        checkpoint (or an explicit :meth:`start`).
    max_candidates:
        Cap on :meth:`charge_candidates` units — generated candidate
        itemsets/patterns (``None`` = unlimited).
    max_nodes:
        Cap on :meth:`charge_nodes` units — materialised tree nodes or
        equivalent structures.
    max_expansions:
        Cap on :meth:`charge_expansions` units — iterations, region
        queries, recursive expansions; an estimate of total work.
    cancel_token:
        Optional :class:`CancellationToken` polled at every checkpoint.
    check_interval:
        Full (clock + cancellation) checks run every this many charge
        calls; counter caps are still enforced on *every* charge.  Use
        ``1`` in tests for fully deterministic fault injection.
    clock:
        Time source returning monotonic seconds; tests inject a
        :class:`~repro.runtime.faults.VirtualClock` here.

    Examples
    --------
    >>> budget = Budget(max_candidates=2)
    >>> budget.charge_candidates()
    >>> budget.charge_candidates()
    >>> budget.charge_candidates()
    Traceback (most recent call last):
        ...
    repro.runtime.budget.SpaceBudgetExceeded: candidate budget exhausted (limit 2)
    """

    def __init__(
        self,
        time_limit: Optional[float] = None,
        max_candidates: Optional[int] = None,
        max_nodes: Optional[int] = None,
        max_expansions: Optional[int] = None,
        cancel_token: Optional[CancellationToken] = None,
        check_interval: int = 256,
        clock: Optional[Callable[[], float]] = None,
    ):
        if time_limit is not None:
            check_in_range("time_limit", time_limit, 0.0, None)
        if max_candidates is not None:
            check_in_range("max_candidates", max_candidates, 1, None)
        if max_nodes is not None:
            check_in_range("max_nodes", max_nodes, 1, None)
        if max_expansions is not None:
            check_in_range("max_expansions", max_expansions, 1, None)
        check_in_range("check_interval", check_interval, 1, None)
        self.time_limit = time_limit
        self.max_candidates = max_candidates
        self.max_nodes = max_nodes
        self.max_expansions = max_expansions
        self.cancel_token = cancel_token
        self.check_interval = int(check_interval)
        self._clock = clock if clock is not None else time.monotonic
        self._started_at: Optional[float] = None
        self.candidates_used = 0
        self.nodes_used = 0
        self.expansions_used = 0
        self.n_checks = 0
        self._charges = 0
        self._faults: List[object] = []

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def start(self) -> "Budget":
        """Stamp the deadline clock now (idempotent); returns ``self``."""
        if self._started_at is None:
            self._started_at = self._clock()
        return self

    def elapsed(self) -> float:
        """Seconds since the budget started (0 before the first check)."""
        if self._started_at is None:
            return 0.0
        return self._clock() - self._started_at

    def remaining_time(self) -> Optional[float]:
        """Seconds left on the deadline; ``None`` when unlimited."""
        if self.time_limit is None:
            return None
        return max(0.0, self.time_limit - self.elapsed())

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def check(self, phase: Optional[str] = None) -> None:
        """Full checkpoint: faults, cancellation, then the deadline.

        Algorithms call this at pass/level/iteration boundaries; the
        ``charge_*`` methods call it every ``check_interval`` charges.
        """
        self.start()
        self.n_checks += 1
        for fault in self._faults:
            fault.on_check(self)
        if self.cancel_token is not None:
            self.cancel_token.raise_if_cancelled()
        if self.time_limit is not None:
            used = self.elapsed()
            if used > self.time_limit:
                raise TimeBudgetExceeded(
                    f"time budget exhausted after {used:.3f}s "
                    f"(limit {self.time_limit}s"
                    + (f", phase {phase!r})" if phase else ")"),
                    resource="time",
                    limit=self.time_limit,
                    used=used,
                )

    def _charge(self, amount: int) -> None:
        self._charges += 1
        if self._charges % self.check_interval == 0:
            self.check()

    def charge_candidates(self, n: int = 1, phase: Optional[str] = None) -> None:
        """Account for ``n`` generated candidates; may raise."""
        self.candidates_used += n
        if (
            self.max_candidates is not None
            and self.candidates_used > self.max_candidates
        ):
            raise SpaceBudgetExceeded(
                f"candidate budget exhausted (limit {self.max_candidates}"
                + (f", phase {phase!r})" if phase else ")"),
                resource="candidates",
                limit=self.max_candidates,
                used=self.candidates_used,
            )
        self._charge(n)

    def charge_nodes(self, n: int = 1, phase: Optional[str] = None) -> None:
        """Account for ``n`` materialised nodes; may raise."""
        self.nodes_used += n
        if self.max_nodes is not None and self.nodes_used > self.max_nodes:
            raise SpaceBudgetExceeded(
                f"node budget exhausted (limit {self.max_nodes}"
                + (f", phase {phase!r})" if phase else ")"),
                resource="nodes",
                limit=self.max_nodes,
                used=self.nodes_used,
            )
        self._charge(n)

    def charge_expansions(self, n: int = 1, phase: Optional[str] = None) -> None:
        """Account for ``n`` iterations/expansions; may raise."""
        self.expansions_used += n
        if (
            self.max_expansions is not None
            and self.expansions_used > self.max_expansions
        ):
            raise IterationBudgetExceeded(
                f"expansion budget exhausted (limit {self.max_expansions}"
                + (f", phase {phase!r})" if phase else ")"),
                resource="expansions",
                limit=self.max_expansions,
                used=self.expansions_used,
            )
        self._charge(n)

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------
    def install_fault(self, fault: object) -> "Budget":
        """Attach a fault (see :mod:`repro.runtime.faults`); returns self."""
        self._faults.append(fault)
        return self


__all__ = [
    "Budget",
    "BudgetExceeded",
    "TimeBudgetExceeded",
    "SpaceBudgetExceeded",
    "IterationBudgetExceeded",
    "CancellationToken",
    "OperationCancelled",
]
