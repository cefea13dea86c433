"""ExecutionContext: one object for all runtime plumbing.

PRs 1-3 threaded budgets, checkpointers and retries through ~25
algorithm modules as parallel keyword arguments (``budget=``,
``checkpoint=``) plus attribute monkey-patching.  Every new
cross-cutting feature (metrics, sharding, async) would have added yet
another kwarg chain.  :class:`ExecutionContext` collapses those chains
into a single seam:

* ``ctx.step(phase=...)`` replaces the scattered
  ``budget.check()`` / ``budget.progress()`` pairs at loop heads;
* ``ctx.mark(state)`` / ``ctx.resume(key)`` / ``ctx.flush()`` replace
  the ``if checkpoint is not None:`` guards around boundary snapshots;
* :class:`RunCounters` accumulates lightweight run statistics (steps,
  candidates, nodes, expansions, snapshots) with or without a budget —
  the hook the observability work hangs metrics on.

``ctx=`` is the only way a run receives these services; a caller that
passes no context gets a fresh ``ExecutionContext()``.

The *null context* — ``ExecutionContext()`` with every slot ``None`` —
is the default everywhere and is byte-identical to the pre-context bare
call path: no budget checks, no snapshots, no cancellation polling, only
counter increments.

The degradation-policy vocabulary shared by the budget-aware miners
(previously duplicated across nine modules) also lives here:
:data:`LEVELWISE_POLICIES`, :data:`BASIC_POLICIES` and
:func:`check_degradation_policy`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from ..core.exceptions import ValidationError
from .budget import Budget, CancellationToken
from .checkpoint import Checkpointer
from .retry import RetryPolicy

#: policies accepted by the levelwise miners (apriori, apriori_tid, dhp)
LEVELWISE_POLICIES = ("raise", "truncate", "partition", "sampling")

#: policies accepted by every other budget-aware miner
BASIC_POLICIES = ("raise", "truncate")


def check_degradation_policy(
    policy: str, allowed: Tuple[str, ...], algorithm: str
) -> None:
    """Validate an ``on_exhausted`` policy against an allowed set.

    The single validation point (and single error message) for all
    budget-aware miners; the allowed set per algorithm is declared in
    :mod:`repro.registry` capabilities and passed through here.
    """
    if policy not in allowed:
        raise ValidationError(
            f"on_exhausted for {algorithm} must be one of {allowed}, "
            f"got {policy!r}"
        )


def progress_event(
    seq: int,
    phase: str,
    info: Optional[Mapping[str, Any]] = None,
    at: Optional[float] = None,
) -> Dict[str, Any]:
    """Shape one progress event for an append-only event log.

    The single record shape shared by everything that serializes a
    progress stream — the job server's per-job ``events.jsonl`` most of
    all.  The key set is fixed and flat so pollers can parse blind:

    * ``seq`` — 0-based position in the log, gapless per log;
    * ``at`` — unix timestamp of the append (``time.time()`` unless
      the caller pins one);
    * ``phase`` — a ``ctx.step`` phase name (``"pass"``,
      ``"iteration"``...) or a lifecycle marker the log owner defines
      (``"submitted"``, ``"requeued"``, ``"done"``...);
    * ``info`` — the step's progress payload, nested so arbitrary
      per-phase keys can never collide with the envelope.
    """
    return {
        "seq": int(seq),
        "at": float(time.time() if at is None else at),
        "phase": str(phase),
        "info": dict(info or {}),
    }


class RunCounters:
    """Lightweight run statistics accumulated by a context.

    Counted with or without a budget, so a bare run still reports how
    much work it did.  ``steps`` counts :meth:`ExecutionContext.step`
    calls (pass/iteration boundaries); ``candidates`` / ``nodes`` /
    ``expansions`` accumulate the per-step work hints the algorithms
    already report as progress info; ``snapshots`` counts checkpoint
    marks that reached the checkpointer.
    """

    __slots__ = ("steps", "candidates", "nodes", "expansions", "snapshots")

    def __init__(self):
        self.steps = 0
        self.candidates = 0
        self.nodes = 0
        self.expansions = 0
        self.snapshots = 0

    def to_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.to_dict().items())
        return f"RunCounters({inner})"


class ExecutionContext:
    """Bundle of runtime services threaded through one algorithm run.

    Parameters
    ----------
    budget:
        Optional :class:`~repro.runtime.Budget`; :meth:`step` checks it
        and forwards progress info.
    checkpointer:
        Optional :class:`~repro.runtime.Checkpointer`; :meth:`resume`
        binds the run key, :meth:`mark` snapshots boundaries,
        :meth:`flush` persists on any exit.
    cancel_token:
        Optional :class:`~repro.runtime.CancellationToken` polled by
        :meth:`step` even when no budget is attached.  (A budget's own
        token is still honoured through ``budget.check``.)
    retry:
        Optional :class:`~repro.runtime.RetryPolicy` carried for the
        caller that owns the run loop (the context itself never
        retries).
    on_progress:
        Optional callable ``(phase, info_dict)`` invoked at every
        :meth:`step`, independent of any budget-level progress hook.

    A context is cheap, single-run state: it carries mutable
    :class:`RunCounters` and the bound checkpoint key, so reuse one
    context per algorithm call, not across calls (use :meth:`replace`
    to derive siblings).
    """

    def __init__(
        self,
        budget: Optional[Budget] = None,
        checkpointer: Optional[Checkpointer] = None,
        cancel_token: Optional[CancellationToken] = None,
        retry: Optional[RetryPolicy] = None,
        on_progress: Optional[Callable[[str, Dict[str, Any]], None]] = None,
    ):
        self.budget = budget
        self.checkpointer = checkpointer
        self.cancel_token = cancel_token
        self.retry = retry
        self.on_progress = on_progress
        self.counters = RunCounters()
        self._key: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # Introspection / derivation
    # ------------------------------------------------------------------
    @property
    def is_null(self) -> bool:
        """True when every service slot is empty (the default context)."""
        return (
            self.budget is None
            and self.checkpointer is None
            and self.cancel_token is None
            and self.retry is None
            and self.on_progress is None
        )

    @property
    def resume_requested(self) -> bool:
        """Whether the attached checkpointer was asked to resume."""
        return (
            self.checkpointer is not None
            and self.checkpointer.resume_requested
        )

    def replace(self, **changes: Any) -> "ExecutionContext":
        """A sibling context with some slots swapped and fresh counters.

        Used by the supervisor to hand each attempt the caller's budget
        with a per-attempt checkpointer.
        """
        fields = {
            "budget": self.budget,
            "checkpointer": self.checkpointer,
            "cancel_token": self.cancel_token,
            "retry": self.retry,
            "on_progress": self.on_progress,
        }
        unknown = set(changes) - set(fields)
        if unknown:
            raise ValidationError(
                f"unknown ExecutionContext fields: {sorted(unknown)}"
            )
        fields.update(changes)
        return ExecutionContext(**fields)

    # ------------------------------------------------------------------
    # Checkpoint lifecycle
    # ------------------------------------------------------------------
    def resume(
        self,
        key: Union[Dict[str, Any], Callable[[], Dict[str, Any]]],
    ) -> Optional[Dict[str, Any]]:
        """Bind the run's checkpoint key; return resumed state or None.

        ``key`` may be a dict or a zero-argument callable producing one
        (evaluated only when a checkpointer is attached, so bare runs
        pay nothing for key construction).
        """
        if self.checkpointer is None:
            return None
        self._key = key() if callable(key) else key
        return self.checkpointer.resume(self._key)

    def mark(
        self,
        state: Union[Dict[str, Any], Callable[[], Dict[str, Any]]],
    ) -> None:
        """Snapshot a completed boundary (no-op without a checkpointer).

        ``state`` may be a dict or a zero-argument callable producing
        one, evaluated lazily so bare runs never build snapshots.
        Requires a prior :meth:`resume` call to have bound the key.
        """
        if self.checkpointer is None:
            return
        if self._key is None:
            raise ValidationError(
                "ExecutionContext.mark() before resume(): the checkpoint "
                "key is unbound"
            )
        self.checkpointer.mark(self._key, state() if callable(state) else state)
        self.counters.snapshots += 1

    def flush(self) -> None:
        """Persist any pending snapshot; safe in ``finally`` blocks."""
        if self.checkpointer is not None:
            self.checkpointer.flush()

    # ------------------------------------------------------------------
    # The per-boundary call
    # ------------------------------------------------------------------
    def step(self, phase: str, **info: Any) -> None:
        """One pass/iteration boundary: count, check, report.

        Replaces the old ``if budget is not None: budget.check(...);
        budget.progress(...)`` pairs.  Order matters and is part of the
        equivalence contract: the budget check runs before any progress
        reporting, so an exhausted budget raises without emitting a
        progress event — exactly as the bare ``check``/``progress``
        pairs behaved.
        """
        counters = self.counters
        counters.steps += 1
        counters.candidates += int(info.get("candidates", 0) or 0)
        counters.nodes += int(info.get("nodes", 0) or 0)
        counters.expansions += int(info.get("expansions", 0) or 0)
        if self.budget is not None:
            self.budget.check(phase=phase)
            self.budget.progress(phase, **info)
        if self.cancel_token is not None:
            self.cancel_token.raise_if_cancelled()
        if self.on_progress is not None:
            self.on_progress(phase, dict(info))

    def raise_if_cancelled(self) -> None:
        """Poll the context-level cancellation token, if any."""
        if self.cancel_token is not None:
            self.cancel_token.raise_if_cancelled()

    def shard_context(self) -> "ExecutionContext":
        """The context one parallel shard runs under.

        Derives a sub-budget capped at what this context's budget has
        left (:func:`derive_shard_budget`) and strips everything that
        must not cross a process boundary: the checkpointer (the parent
        marks at merge points), the cancellation token (cancellation
        reaches workers as SIGTERM from the parent's poll loop, and the
        token's event is unpicklable anyway), and the progress hook
        (closures don't pickle; the parent reports at merge points).
        The result is fully picklable whenever the budget's clock is
        the default, which is what lets shard contexts travel over the
        pool's pipes instead of requiring a fork per task.
        """
        return self.replace(
            budget=derive_shard_budget(self.budget),
            checkpointer=None,
            cancel_token=None,
            on_progress=None,
        )

    def __repr__(self) -> str:
        slots = []
        if self.budget is not None:
            slots.append("budget")
        if self.checkpointer is not None:
            slots.append("checkpointer")
        if self.cancel_token is not None:
            slots.append("cancel_token")
        if self.retry is not None:
            slots.append("retry")
        if self.on_progress is not None:
            slots.append("on_progress")
        inner = "+".join(slots) if slots else "null"
        return f"ExecutionContext<{inner}, {self.counters!r}>"


def derive_shard_budget(budget: Optional[Budget]) -> Optional[Budget]:
    """A shard-side budget capped at what the parent has left.

    Counter caps are the parent's remaining allowance (floored at one
    unit so construction stays valid — the parent re-charges actual
    usage on merge and is the authority on exhaustion); the deadline is
    the parent's remaining wall-clock.  Tokens and progress hooks do
    not cross the process boundary: cancellation reaches workers as
    SIGTERM from the parent's poll loop.
    """
    if budget is None:
        return None
    kwargs = {"check_interval": budget.check_interval}
    if budget.time_limit is not None:
        kwargs["time_limit"] = budget.remaining_time()
    if budget.max_candidates is not None:
        kwargs["max_candidates"] = max(
            1, budget.max_candidates - budget.candidates_used
        )
    if budget.max_nodes is not None:
        kwargs["max_nodes"] = max(1, budget.max_nodes - budget.nodes_used)
    if budget.max_expansions is not None:
        kwargs["max_expansions"] = max(
            1, budget.max_expansions - budget.expansions_used
        )
    return Budget(**kwargs)


__all__ = [
    "BASIC_POLICIES",
    "LEVELWISE_POLICIES",
    "ExecutionContext",
    "RunCounters",
    "check_degradation_policy",
    "derive_shard_budget",
    "progress_event",
]
