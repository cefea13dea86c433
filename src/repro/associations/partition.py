"""Partition algorithm (Savasere, Omiecinski & Navathe, VLDB 1995).

Exactly two scans of the database, regardless of the largest itemset:

1. **Scan 1** — split the database into partitions small enough to mine
   in memory; mine each partition with a vertical (tidlist) miner at the
   *local* threshold.  Any globally frequent itemset must be locally
   frequent in at least one partition (pigeonhole on supports), so the
   union of local results is a superset of the global answer.
2. **Scan 2** — count the global support of every local candidate and
   keep those clearing the global threshold.

Partition boundaries are natural restart points: a checkpointer in the
run's context marks the candidate union after every completed
partition, so a killed scan 1 resumes at the next partition instead of
re-mining the completed ones.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from ..core.base import check_in_range, check_nonempty
from ..core.columnar import popcount, transaction_bitmap, window_mask
from ..core.exceptions import ValidationError
from ..core.itemsets import FrequentItemsets, Itemset
from ..core.transactions import TransactionDatabase
from ..runtime import Budget, BudgetExceeded
from ..runtime.context import (
    BASIC_POLICIES,
    ExecutionContext,
    check_degradation_policy,
)
from ..runtime.parallel import resolve_n_jobs, shard_bounds, shared_pool
from ..runtime.transport import SharedRegion, get_object
from .apriori import checkpoint_key, min_count_from_support

#: tidlist backends accepted by :func:`partition_miner`
TIDSET_BACKENDS = ("tidset", "bitset")


def partition_miner(
    db: TransactionDatabase,
    min_support: float = 0.01,
    n_partitions: int = 4,
    max_size: Optional[int] = None,
    on_exhausted: str = "raise",
    ctx: Optional[ExecutionContext] = None,
    n_jobs: Optional[int] = None,
    backend: str = "tidset",
) -> FrequentItemsets:
    """Mine frequent itemsets with the two-scan Partition algorithm.

    Parameters
    ----------
    db, min_support, max_size:
        As in :func:`~repro.associations.apriori.apriori`; the result is
        identical.
    n_partitions:
        How many contiguous chunks the database is split into.  More
        partitions = less memory per local mine but more false local
        candidates to recount in scan 2.
    on_exhausted:
        ``"raise"`` propagates :class:`~repro.runtime.BudgetExceeded`;
        ``"truncate"`` globally recounts the candidates collected so far
        (unbudgeted — scan 2 is the cheap part) and returns them flagged
        ``truncated=True``; itemsets from unmined partitions are lost
        but everything returned is genuinely frequent.
    ctx:
        Optional :class:`~repro.runtime.ExecutionContext`.  Its budget is
        checked at every partition boundary and class expansion, charged
        one candidate per tidset join, and polled periodically during
        scan 2.  Under its checkpointer every completed partition of
        scan 1 is a resumable boundary.
    n_jobs:
        Partitions are the algorithm's natural shard: with ``n_jobs > 1``
        scan 1 mines them in forked workers and scan 2 splits the global
        counting scan the same way, merging in partition/shard order so
        the result is byte-identical to ``n_jobs=1``.  ``-1`` uses all
        cores.
    backend:
        ``"tidset"`` (the default) mines scan 1 over per-partition
        frozenset tidlists and counts scan 2 with Python subset tests;
        ``"bitset"`` runs both scans over the database's memoized
        packed bit matrix (:mod:`repro.core.columnar`) — scan 1 joins
        are AND+popcount over window-masked item rows, scan 2 is the
        windowed bitmap counting kernel.  Output is byte-identical;
        workers inherit the one shared encoding copy-on-write.

    Examples
    --------
    >>> db = TransactionDatabase([(0, 1, 2), (0, 1), (0, 2), (1, 2)])
    >>> partition_miner(db, 0.5, n_partitions=2).supports[(0, 1)]
    2
    """
    if backend not in TIDSET_BACKENDS:
        raise ValidationError(
            f"backend must be one of {TIDSET_BACKENDS}, got {backend!r}"
        )
    check_in_range("n_partitions", n_partitions, 1, None)
    if ctx is None:
        ctx = ExecutionContext()
    check_degradation_policy(on_exhausted, BASIC_POLICIES, "partition_miner")
    n_jobs = resolve_n_jobs(n_jobs, "partition_miner")
    ctx.raise_if_cancelled()
    if max_size is not None and max_size < 1:
        raise ValidationError(f"max_size must be >= 1, got {max_size}")
    n = len(db)
    check_nonempty("transaction database", n, "transactions")
    n_partitions = min(n_partitions, n)
    min_count = min_count_from_support(n, min_support)
    bounds = _partition_bounds(n, n_partitions)

    budget = ctx.budget
    resumed = ctx.resume(lambda: checkpoint_key(
        "partition", db, min_support,
        max_size=max_size, n_partitions=n_partitions,
    ))
    candidates: Set[Itemset] = set()
    start = 0
    if resumed is not None:
        candidates.update(resumed["candidates"])
        start = resumed["next_partition"]

    # ------------------------------------------------------------------
    # Scan 1: local mining per partition (vertical, depth-first).
    # ------------------------------------------------------------------
    # One shared region spans both scans: the database segment placed
    # for scan 1's partition mining is the same one scan 2's counting
    # shards resolve.
    if backend == "bitset":
        # Build the memoized encoding in the parent *before* any worker
        # forks: workers resolving the same database object inherit the
        # cached packed matrix copy-on-write instead of re-encoding.
        transaction_bitmap(db)
    region = SharedRegion() if n_jobs > 1 and n > 1 else None
    db_handle = region.put_object(db) if region is not None else None
    try:
        if n_jobs > 1 and len(bounds) - start > 1:
            # Each remaining partition is mined in a pool worker; the
            # unions (sets, so order-free) merge in partition order, and
            # step/mark stay in the parent so the checkpoint trail keeps
            # its per-partition shape.
            remaining = list(range(start, len(bounds)))
            tasks = [
                (db_handle, bounds[p][0], bounds[p][1],
                 max(1, math.ceil(min_support * (bounds[p][1] - bounds[p][0]))),
                 max_size, backend)
                for p in remaining
            ]
            locals_ = shared_pool(n_jobs).map(
                _mine_partition_task, tasks, ctx=ctx,
                phase="partition-scan-1",
            )
            for p, local in zip(remaining, locals_):
                ctx.step(f"partition-{p}", n_candidates=len(candidates))
                candidates |= local
                ctx.mark(lambda: {
                    "next_partition": p + 1,
                    "candidates": sorted(candidates),
                })
        else:
            for p in range(start, len(bounds)):
                ctx.step(f"partition-{p}", n_candidates=len(candidates))
                begin, stop = bounds[p]
                local_min_count = max(
                    1, math.ceil(min_support * (stop - begin))
                )
                candidates |= _mine_partition(
                    db, begin, stop, local_min_count, max_size, budget,
                    backend,
                )
                ctx.mark(lambda: {
                    "next_partition": p + 1, "candidates": sorted(candidates),
                })

        # --------------------------------------------------------------
        # Scan 2: global counting of the candidate union.
        # --------------------------------------------------------------
        supports = _global_count(db, candidates, min_count, budget,
                                 ctx=ctx, n_jobs=n_jobs,
                                 region=region, db_handle=db_handle,
                                 backend=backend)
    except BudgetExceeded as exc:
        if on_exhausted == "raise":
            raise
        supports = _global_count(db, candidates, min_count, None,
                                 backend=backend)
        return FrequentItemsets(
            supports,
            n,
            min_support,
            truncated=True,
            truncation_reason=f"{type(exc).__name__}: {exc}",
        )
    finally:
        if region is not None:
            region.close()
        ctx.flush()
    return FrequentItemsets(supports, n, min_support)


def _mine_partition_task(args, shard_ctx):
    """Pool task: local mine of one partition, database via handle."""
    db_handle, begin, stop, local_min_count, max_size, backend = args
    budget = None if shard_ctx is None else shard_ctx.budget
    return _mine_partition(
        get_object(db_handle), begin, stop, local_min_count, max_size,
        budget, backend,
    )


def _count_range_task(args, shard_ctx):
    """Pool task: scan-2 counts over one row range, inputs via handles."""
    db_handle, ordered_handle, begin, stop, backend = args
    budget = None if shard_ctx is None else shard_ctx.budget
    return _count_range(
        get_object(db_handle), get_object(ordered_handle), begin, stop,
        budget, backend,
    )


def _global_count(
    db: TransactionDatabase,
    candidates: Set[Itemset],
    min_count: int,
    budget: Optional[Budget],
    ctx: Optional[ExecutionContext] = None,
    n_jobs: int = 1,
    region: Optional[SharedRegion] = None,
    db_handle=None,
    backend: str = "tidset",
) -> Dict[Itemset, int]:
    # Sorting canonicalises the result's key order: the candidate union
    # is a set, and letting its iteration order leak into the supports
    # dict would make equal runs byte-different.
    ordered = sorted(candidates)
    if n_jobs > 1 and len(db) > 1 and region is not None:
        ordered_handle = region.put_object(ordered)
        try:
            tasks = [
                (db_handle, ordered_handle, begin, stop, backend)
                for begin, stop in shard_bounds(len(db), n_jobs)
            ]
            vectors = shared_pool(n_jobs).map(
                _count_range_task, tasks, ctx=ctx, phase="partition-scan-2"
            )
        finally:
            region.release(ordered_handle)
        totals = [sum(column) for column in zip(*vectors)]
    else:
        totals = _count_range(db, ordered, 0, len(db), budget, backend)
    return {
        cand: cnt
        for cand, cnt in zip(ordered, totals)
        if cnt >= min_count
    }


def _count_range(
    db: TransactionDatabase,
    ordered: List[Itemset],
    begin: int,
    stop: int,
    budget: Optional[Budget],
    backend: str = "tidset",
) -> List[int]:
    """Scan-2 counts of ``ordered`` over rows ``[begin, stop)``."""
    if backend == "bitset":
        return transaction_bitmap(db).count(ordered, budget, begin, stop)
    counts: Dict[Itemset, int] = dict.fromkeys(ordered, 0)
    by_size: Dict[int, List[Itemset]] = {}
    for cand in ordered:
        by_size.setdefault(len(cand), []).append(cand)
    for i in range(begin, stop):
        if budget is not None and i % 256 == 0:
            budget.check(phase="partition-scan-2")
        txn = db[i]
        txn_set = set(txn)
        for size, cands in by_size.items():
            if size > len(txn):
                continue
            for cand in cands:
                if txn_set.issuperset(cand):
                    counts[cand] += 1
    return list(counts.values())


def _partition_bounds(n: int, k: int) -> List[Tuple[int, int]]:
    sizes = [n // k] * k
    for i in range(n % k):
        sizes[i] += 1
    bounds = []
    start = 0
    for size in sizes:
        bounds.append((start, start + size))
        start += size
    return bounds


def _mine_partition(
    db: TransactionDatabase,
    start: int,
    stop: int,
    min_count: int,
    max_size: Optional[int],
    budget: Optional[Budget] = None,
    backend: str = "tidset",
) -> Set[Itemset]:
    """Local frequent itemsets of db[start:stop] via tidlist DFS.

    Both backends run the same joins in the same order; ``bitset``
    windows the database's packed item rows to the partition and joins
    with AND+popcount instead of frozenset intersection.
    """
    if backend == "bitset":
        bitmap = transaction_bitmap(db)
        mask = window_mask(bitmap.n_transactions, start, stop)
        root = []
        for item in range(bitmap.n_items):
            tids = bitmap.tidset(item) & mask
            if popcount(tids) >= min_count:
                root.append(((item,), tids))
        size = popcount
    else:
        tidlists: Dict[int, Set[int]] = {}
        for tid in range(start, stop):
            for item in db[tid]:
                tidlists.setdefault(item, set()).add(tid)
        root = [
            ((item,), frozenset(tids))
            for item, tids in sorted(tidlists.items())
            if len(tids) >= min_count
        ]
        size = len
    found: Set[Itemset] = {itemset for itemset, _ in root}
    _expand(root, min_count, max_size, found, budget, size)
    return found


def _expand(members, min_count, max_size, found: Set[Itemset], budget=None,
            size=len) -> None:
    if budget is not None:
        budget.check(phase="partition-class")
    for i, (itemset, tids) in enumerate(members):
        if max_size is not None and len(itemset) >= max_size:
            continue
        child = []
        for other_itemset, other_tids in members[i + 1:]:
            if budget is not None:
                budget.charge_candidates(phase="partition-join")
            joined = tids & other_tids
            if size(joined) >= min_count:
                new_itemset = itemset + (other_itemset[-1],)
                found.add(new_itemset)
                child.append((new_itemset, joined))
        if child:
            _expand(child, min_count, max_size, found, budget, size)


__all__ = ["partition_miner"]
