"""ExecutionContext: one object for all runtime plumbing.

PRs 1-3 threaded budgets, checkpointers and retries through ~25
algorithm modules as parallel keyword arguments (``budget=``,
``checkpoint=``) plus attribute monkey-patching.  Every new
cross-cutting feature (metrics, sharding, async) would have added yet
another kwarg chain.  :class:`ExecutionContext` collapses those chains
into a single seam:

* ``ctx.step(phase=...)`` marks a pass/level/iteration boundary: it
  checks the budget, polls cancellation and reports progress;
* ``ctx.tick(phase, **units)`` is the per-unit call inside a step (a
  tree node, a merge, 256 transactions): it charges the named units and
  checks the budget when there is one, and at most once every
  :data:`BEAT_SECONDS` it *beats* — polls the cancellation token and
  calls ``on_progress`` — with or without a budget, so that every long
  loop is cancellable and keeps a job's lease alive; ``ctx.beat`` and
  ``ctx.pulse`` are the beat alone, due or now;
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
counter increments and a clock read per tick.

The degradation-policy vocabulary shared by the budget-aware miners
(previously duplicated across nine modules) also lives here:
:data:`LEVELWISE_POLICIES`, :data:`BASIC_POLICIES` and
:func:`check_degradation_policy`; so does the ``n_jobs`` validation of
the parallelizable algorithms (:func:`resolve_n_jobs`), which a serial
run needs without loading the worker pool of
:mod:`repro.runtime.parallel`.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from ..core.base import check_in_range
from ..core.exceptions import ValidationError
from .budget import Budget, CancellationToken
from .checkpoint import Checkpointer

#: policies accepted by the levelwise miners (apriori, apriori_tid, dhp)
LEVELWISE_POLICIES = ("raise", "truncate", "partition", "sampling")

#: policies accepted by every other budget-aware miner
BASIC_POLICIES = ("raise", "truncate")

#: longest stretch of work between two beats (cancellation poll and
#: ``on_progress`` call) of a loop that ticks its context
BEAT_SECONDS = 0.5


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
        Optional :class:`~repro.runtime.Budget`; :meth:`step` checks it,
        :meth:`tick` charges and checks it.
    checkpointer:
        Optional :class:`~repro.runtime.Checkpointer`; :meth:`resume`
        binds the run key, :meth:`mark` snapshots boundaries,
        :meth:`flush` persists on any exit.
    cancel_token:
        Optional :class:`~repro.runtime.CancellationToken` polled at
        every :meth:`step` and beat, even when no budget is attached.
        (A budget's own token is still honoured through
        ``budget.check``.)
    on_progress:
        Optional callable ``(phase, info_dict)`` invoked at every
        :meth:`step` and beat: the one progress hook of a run.

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
        on_progress: Optional[Callable[[str, Dict[str, Any]], None]] = None,
    ):
        self.budget = budget
        self.checkpointer = checkpointer
        self.cancel_token = cancel_token
        self.on_progress = on_progress
        self.counters = RunCounters()
        self._key: Optional[Dict[str, Any]] = None
        self._beat_at = time.monotonic()

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
    # The per-boundary and per-unit calls
    # ------------------------------------------------------------------
    def step(self, phase: str, **info: Any) -> None:
        """One pass/iteration boundary: count, check, report.

        Order matters and is part of the equivalence contract: the
        budget check runs before any progress reporting, so an
        exhausted budget raises without emitting a progress event.  A
        step is a :meth:`pulse`, so it restarts the beat clock.
        """
        counters = self.counters
        counters.steps += 1
        counters.candidates += int(info.get("candidates", 0) or 0)
        counters.nodes += int(info.get("nodes", 0) or 0)
        counters.expansions += int(info.get("expansions", 0) or 0)
        if self.budget is not None:
            self.budget.check(phase=phase)
        self.pulse(phase, **info)

    def tick(self, phase: str, **units: int) -> None:
        """One unit of work inside a step: charge, check, maybe beat.

        ``units`` name budget axes and amounts (``nodes=1``,
        ``expansions=1``, ``candidates=n``); with a budget attached each
        is charged, then the budget is checked, so exhaustion raises
        :class:`~repro.runtime.BudgetExceeded` here.  With or without a
        budget the tick then beats when a beat is due (:meth:`beat`).
        """
        budget = self.budget
        if budget is not None:
            for resource, amount in units.items():
                getattr(budget, f"charge_{resource}")(amount, phase=phase)
            budget.check(phase=phase)
        self.beat(phase)

    def beat(self, phase: str, **info: Any) -> None:
        """A :meth:`pulse`, when :data:`BEAT_SECONDS` have passed since
        the last one (or since the context was made)."""
        if time.monotonic() - self._beat_at >= BEAT_SECONDS:
            self.pulse(phase, **info)

    def pulse(self, phase: str, **info: Any) -> None:
        """Poll cancellation and report ``phase`` now.

        The budget is not consulted: a finished, possibly truncated run
        still beats while it serializes its result.  The beat clock
        restarts after ``on_progress`` returns, so a hook that sleeps
        does not make every later tick beat.
        """
        self.raise_if_cancelled()
        if self.on_progress is not None:
            self.on_progress(phase, dict(info))
        self._beat_at = time.monotonic()

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
        if self.on_progress is not None:
            slots.append("on_progress")
        inner = "+".join(slots) if slots else "null"
        return f"ExecutionContext<{inner}, {self.counters!r}>"


#: estimated per-task seconds below which dispatching to a worker costs
#: more than it saves; :func:`effective_n_jobs` gates to serial under it.
SMALL_TASK_SECONDS = 0.01


def effective_n_jobs(n_jobs: Optional[int],
                     task_seconds: Optional[float] = None) -> int:
    """Normalise an ``n_jobs`` request into a concrete worker count.

    ``None`` and ``1`` mean serial; ``-1`` means one worker per
    available core; any other positive integer is taken literally.
    When the caller knows (or has measured) the per-task cost, passing
    ``task_seconds`` applies small-task gating: work below
    :data:`SMALL_TASK_SECONDS` per task runs serial regardless of the
    request, because dispatch overhead would dominate — the shape that
    made pre-pool kmeans restarts run at 0.29× "speedup".
    """
    if n_jobs is None:
        return 1
    if n_jobs == -1:
        try:
            jobs = max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux fallback
            jobs = max(1, os.cpu_count() or 1)
    else:
        check_in_range("n_jobs", n_jobs, 1, None)
        jobs = int(n_jobs)
    if jobs > 1 and task_seconds is not None \
            and task_seconds < SMALL_TASK_SECONDS:
        return 1
    return jobs


def resolve_n_jobs(n_jobs: Optional[int], owner: str = "this algorithm") -> int:
    """Validate an algorithm's ``n_jobs`` argument.

    Centralised so every shard point rejects garbage identically; the
    return value is a concrete positive worker count.
    """
    try:
        return effective_n_jobs(n_jobs)
    except ValidationError:
        raise ValidationError(
            f"n_jobs for {owner} must be a positive int or -1, got {n_jobs!r}"
        ) from None


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
    "BEAT_SECONDS",
    "LEVELWISE_POLICIES",
    "ExecutionContext",
    "RunCounters",
    "SMALL_TASK_SECONDS",
    "check_degradation_policy",
    "derive_shard_budget",
    "effective_n_jobs",
    "progress_event",
    "resolve_n_jobs",
]
