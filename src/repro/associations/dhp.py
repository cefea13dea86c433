"""DHP — Direct Hashing and Pruning (Park, Chen & Yu, SIGMOD 1995).

Apriori's pass 2 is its most expensive: |F1 choose 2| candidate pairs.
DHP shrinks C2 using a hash filter built *during pass 1*: every 2-subset
of every transaction is hashed into a small table of counters, and a
pair can only be frequent if its bucket total reaches the threshold.
The bucket test is one-sided (collisions only over-count), so pruning is
lossless; later passes fall back to standard apriori-gen.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional

from ..core.base import check_in_range, check_nonempty
from ..core.columnar import transaction_bitmap
from ..core.exceptions import ValidationError
from ..core.itemsets import FrequentItemsets
from ..core.transactions import TransactionDatabase
from ..runtime.context import (
    LEVELWISE_POLICIES,
    ExecutionContext,
    check_degradation_policy,
    resolve_n_jobs,
)
from .apriori import (
    CANDIDATE_STORES,
    CountingAssets,
    checkpoint_key,
    count_pass,
    min_count_from_support,
)
from .candidates import apriori_gen
from .levelwise import degrade_levelwise, run_levelwise


def dhp(
    db: TransactionDatabase,
    min_support: float = 0.01,
    n_buckets: int = 4096,
    max_size: Optional[int] = None,
    on_exhausted: str = "raise",
    ctx: Optional[ExecutionContext] = None,
    n_jobs: Optional[int] = None,
    backend: str = "hash_tree",
) -> FrequentItemsets:
    """Mine all frequent itemsets with DHP's hash-filtered pass 2.

    Parameters
    ----------
    db, min_support, max_size, on_exhausted, ctx, n_jobs:
        As in :func:`~repro.associations.apriori.apriori`; the result is
        identical.  ``n_jobs`` parallelises the counting scans of pass 2
        and the later apriori passes (the pass-1 hash-filter build stays
        serial — it is a single cheap scan).  The unfiltered C2 size
        ``|F1 choose 2|`` is charged against the candidate budget
        *before* the pair list materialises, so a space cap rejects the
        classic pass-2 blow-up up front.  Snapshots record which stage
        completed (the hash-filter pass, the filtered pass 2, or a later
        pass k) together with the pass-1 bucket counters, which pass 2
        still needs after a resume.
    n_buckets:
        Size of the pass-1 hash table.  More buckets = fewer collisions
        = sharper C2 pruning.
    backend:
        Counting backend for pass 2 and the later passes, with the same
        values as apriori's ``backend``.  ``"bitmap"`` counts the
        hash-filtered pairs by AND+popcount over the database's
        memoized packed bit matrix (:mod:`repro.core.columnar`) —
        byte-identical supports, one vectorized reduction per
        surviving pair.

    Notes
    -----
    The returned object carries ``c2_unfiltered`` and ``c2_filtered``
    attributes so benchmarks can report the candidate reduction, which
    is the paper's headline number.

    Examples
    --------
    >>> db = TransactionDatabase([(0, 1, 2), (0, 1), (0, 2), (1, 2)])
    >>> dhp(db, 0.5).supports[(0, 1)]
    2
    """
    check_in_range("n_buckets", n_buckets, 1, None)
    if backend not in CANDIDATE_STORES:
        raise ValidationError(
            f"backend must be one of {CANDIDATE_STORES}, "
            f"got {backend!r}"
        )
    if ctx is None:
        ctx = ExecutionContext()
    check_degradation_policy(on_exhausted, LEVELWISE_POLICIES, "dhp")
    n_jobs = resolve_n_jobs(n_jobs, "dhp")
    ctx.raise_if_cancelled()
    if max_size is not None and max_size < 1:
        raise ValidationError(f"max_size must be >= 1, got {max_size}")
    n = len(db)
    check_nonempty("transaction database", n, "transactions")
    min_count = min_count_from_support(n, min_support)
    budget = ctx.budget
    buckets: Optional[List[int]] = None
    c2 = (0, 0)  # |C2| before and after the hash filter

    def first_pass():
        # Item counts + the 2-subset hash filter.
        nonlocal buckets
        item_counts: Dict[int, int] = {}
        buckets = [0] * n_buckets
        for i, txn in enumerate(db):
            if i % 256 == 0:
                ctx.tick("dhp-pass-1")
            for item in txn:
                item_counts[item] = item_counts.get(item, 0) + 1
            for a, b in combinations(txn, 2):
                buckets[_bucket(a, b, n_buckets)] += 1
        return {
            (item,): cnt
            for item, cnt in sorted(item_counts.items())
            if cnt >= min_count
        }

    def generate(frequent, k):
        nonlocal c2
        if k > 2:
            return apriori_gen(frequent, budget)
        # Hash-filtered pair candidates.  Charge the full |F1 choose 2|
        # estimate before materialising the pair list: the blow-up is
        # rejected while it is still an arithmetic fact rather than an
        # allocated list.
        if budget is not None:
            m = len(frequent)
            budget.charge_candidates(m * (m - 1) // 2, phase="pass-2")
        frequent_items = sorted(item[0] for item in frequent)
        unfiltered = [
            (a, b) for i, a in enumerate(frequent_items)
            for b in frequent_items[i + 1:]
        ]
        candidates = [
            pair for pair in unfiltered
            if buckets[_bucket(pair[0], pair[1], n_buckets)] >= min_count
        ]
        c2 = (len(unfiltered), len(candidates))
        return candidates

    def save(k):
        if k == 2:
            return {"stage": "pass-2", "buckets": list(buckets)}
        return {"stage": "passes", "c2": c2}

    def restore(state):
        nonlocal buckets, c2
        if state["stage"] == "pass-2":
            buckets = state["buckets"]
        else:  # later passes never consult the hash filter
            c2 = state["c2"]

    bitmap = transaction_bitmap(db) if backend == "bitmap" else None
    assets = (
        CountingAssets(db, bitmap) if n_jobs > 1 and n > 1 else None
    )
    try:
        run = run_levelwise(
            ctx,
            n_items=db.n_items,
            first_pass=first_pass,
            generate=generate,
            count=lambda candidates, k: count_pass(
                db, candidates, k, min_count, backend,
                ctx=ctx, n_jobs=n_jobs, bitmap=bitmap, assets=assets,
            ),
            max_k=max_size,
            on_exhausted=on_exhausted,
            key=lambda: checkpoint_key(
                "dhp", db, min_support, max_size=max_size,
                n_buckets=n_buckets,
            ),
            save=save,
            restore=restore,
        )
    finally:
        if assets is not None:
            assets.close()
    if run.exhausted is not None:
        result = degrade_levelwise(db, min_support, run, on_exhausted)
        # C2 filter statistics are unknown for an interrupted pass 2.
        result.c2_unfiltered = result.c2_filtered = 0
        return result
    result = run.result(FrequentItemsets, run.all_frequent, n, min_support)
    result.c2_unfiltered, result.c2_filtered = c2
    return result


def _bucket(a: int, b: int, n_buckets: int) -> int:
    # Any deterministic pair hash works, but it must actually mix: a
    # multiplier congruent to +/-1 modulo a power-of-two table size
    # collapses to (b - a) and wrecks the filter.  Mix each coordinate
    # with a distinct odd constant and fold the halves.
    h = a * 0x9E3779B1 ^ (b + 0x7F4A7C15) * 0x85EBCA77
    h ^= h >> 16
    return h % n_buckets


__all__ = ["dhp"]
