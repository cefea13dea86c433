"""One levelwise driver for the Apriori family.

Apriori, AprioriTid, AprioriHybrid, DHP, GSP and AprioriAll share one
scheme: pass 1 finds the frequent 1-patterns, and every later pass k
builds size-k candidates from the frequent (k-1)-patterns and counts
them over the data.  :func:`run_levelwise` owns everything around that
scheme — resume, the pass loop, per-pass timing, snapshots, budget
exhaustion and the final flush — so each miner supplies only its own
hooks:

* ``first_pass()`` — the frequent 1-patterns;
* ``generate(frequent, k)`` — the size-k candidates;
* ``count(candidates, k)`` — the frequent ones among them;
* optionally ``save(k)`` / ``restore(state)`` for snapshot state of its
  own (AprioriTid's C̄_k lists, DHP's stage, buckets and C2 counts).

Every pass is one ``ctx.step(f"pass-{k}", n_frequent_prev=...)``, one
timed :class:`~repro.core.itemsets.PassStats` and one ``ctx.mark``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..core.itemsets import FrequentItemsets, PassStats
from ..runtime import BudgetExceeded
from ..runtime.context import ExecutionContext


@dataclass
class LevelwiseRun:
    """What :func:`run_levelwise` hands back to its miner.

    ``all_frequent`` and ``stats`` hold every completed pass; ``k`` is
    the pass that was running when ``exhausted`` (the budget error a
    non-``"raise"`` policy absorbed) fired — 2 if pass 1 never
    finished — or one past the last counted pass.
    """

    all_frequent: Dict[Any, int]
    stats: List[PassStats]
    k: int
    exhausted: Optional[BudgetExceeded] = None

    def result(self, cls, supports, n: int, min_support: float):
        """``cls(supports, n, min_support)`` carrying this run's stats.

        ``cls`` is the miner's result dataclass
        (:class:`~repro.core.itemsets.FrequentItemsets` or
        :class:`~repro.sequences.result.FrequentSequences`); an
        exhausted run comes back flagged ``truncated``.
        """
        exc = self.exhausted
        return cls(
            supports, n, min_support, pass_stats=self.stats,
            truncated=exc is not None,
            truncation_reason=(
                None if exc is None else f"{type(exc).__name__}: {exc}"
            ),
        )


def run_levelwise(
    ctx: ExecutionContext,
    *,
    n_items: int,
    first_pass: Callable[[], Dict[Any, int]],
    generate: Callable[[Dict[Any, int], int], list],
    count: Callable[[list, int], Dict[Any, int]],
    max_k: Optional[int] = None,
    on_exhausted: str = "raise",
    key: Optional[Callable[[], dict]] = None,
    save: Optional[Callable[[int], dict]] = None,
    restore: Optional[Callable[[dict], None]] = None,
) -> LevelwiseRun:
    """Run a levelwise miner's passes under ``ctx``.

    Parameters
    ----------
    ctx:
        The run's :class:`~repro.runtime.ExecutionContext`.
    n_items:
        Pass 1's candidate count (every item of the database).
    first_pass, generate, count:
        The miner's hooks (see the module docstring).  An empty
        ``generate`` result ends the run after recording the pass.
    max_k:
        Last pass to run (``None`` = until nothing is frequent).
    on_exhausted:
        ``"raise"`` re-raises a :class:`~repro.runtime.BudgetExceeded`;
        any other policy returns the completed passes with
        ``exhausted`` set, for the miner to degrade.
    key:
        Checkpoint-key factory.  ``None`` marks a miner that never
        snapshots: no resume, no marks, whatever ``ctx`` carries.
    save, restore:
        The miner's own snapshot state: ``save(k)`` returns the entries
        added to the levelwise state at the start of pass ``k``;
        ``restore(state)`` reads them back from a resumed snapshot.
    """
    resumed = ctx.resume(key) if key is not None else None
    if resumed is None:
        k, frequent, all_frequent, stats = 2, {}, {}, []
    else:
        k = resumed["k"]
        frequent = resumed["frequent"]
        all_frequent = resumed["all_frequent"]
        stats = resumed["stats"]
        if restore is not None:
            restore(resumed)

    def snapshot() -> dict:
        state = levelwise_state(k, frequent, all_frequent, stats)
        if save is not None:
            state.update(save(k))
        return state

    def mark() -> None:
        if key is not None:
            ctx.mark(snapshot)

    try:
        if resumed is None:
            started = time.perf_counter()
            frequent = first_pass()
            stats.append(PassStats(
                1, n_items, len(frequent), time.perf_counter() - started
            ))
            all_frequent.update(frequent)
            mark()
        while frequent and (max_k is None or k <= max_k):
            ctx.step(f"pass-{k}", n_frequent_prev=len(frequent))
            started = time.perf_counter()
            candidates = generate(frequent, k)
            frequent = count(candidates, k) if candidates else {}
            stats.append(PassStats(
                k, len(candidates), len(frequent),
                time.perf_counter() - started,
            ))
            if not candidates:
                break
            all_frequent.update(frequent)
            k += 1
            mark()
    except BudgetExceeded as exc:
        if on_exhausted == "raise":
            raise
        return LevelwiseRun(all_frequent, stats, k, exc)
    finally:
        ctx.flush()
    return LevelwiseRun(all_frequent, stats, k)


def levelwise_state(k, frequent, all_frequent, stats) -> dict:
    """Resumable snapshot of a levelwise miner at the start of pass ``k``.

    Shallow copies isolate the snapshot from in-place mutation by the
    passes that run between this boundary and the next flush; itemset
    tuples and frozen :class:`PassStats` need no deeper copying.
    """
    return {
        "k": k,
        "frequent": dict(frequent),
        "all_frequent": dict(all_frequent),
        "stats": list(stats),
    }


def degrade_levelwise(
    db, min_support: float, run: LevelwiseRun, on_exhausted: str
) -> FrequentItemsets:
    """Build the partial result of a budget-interrupted itemset run.

    Passes ``1 .. run.k-1`` in ``run.all_frequent`` are complete; pass
    ``run.k`` was interrupted.  Under ``"partition"``/``"sampling"`` the
    interrupted pass is re-mined with the cheaper two-scan miner bounded
    at ``max_size=run.k`` (its own lattice walk is depth-first and far
    cheaper per level), and the union returned.  Either way the result
    carries ``truncated=True``: levels beyond ``run.k`` are unexplored.
    """
    supports = run.all_frequent
    if on_exhausted in ("partition", "sampling"):
        # Local imports: partition/sampling import helpers from apriori,
        # which imports this module.
        if on_exhausted == "partition":
            from .partition import partition_miner as fallback
        else:
            from .sampling import sampling_miner as fallback
        try:
            recovered = fallback(db, min_support, max_size=run.k)
            supports = {**recovered.supports, **supports}
        except BudgetExceeded:  # pragma: no cover - fallback has no budget
            pass
    return run.result(FrequentItemsets, supports, len(db), min_support)


__all__ = [
    "LevelwiseRun",
    "degrade_levelwise",
    "levelwise_state",
    "run_levelwise",
]
