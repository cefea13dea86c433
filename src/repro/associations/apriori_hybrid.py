"""AprioriHybrid: start with Apriori, switch to AprioriTid when it pays.

The VLDB '94 paper observes that Apriori beats AprioriTid in early passes
(C̄_k is then larger than the raw database) while AprioriTid wins late
passes (most transactions stop supporting any candidate).  AprioriHybrid
runs Apriori and switches to the transformed representation at the first
pass where the estimated size of C̄_k fits a memory budget.

We estimate ``|C̄_k|`` the way the paper does: the sum over candidates of
their support counts (each supported candidate occupies one slot in one
transaction's entry), plus one slot per surviving transaction.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.base import check_nonempty
from ..core.exceptions import ValidationError
from ..core.itemsets import FrequentItemsets, Itemset
from ..core.transactions import TransactionDatabase
from ..runtime.context import ExecutionContext
from .apriori import frequent_one_itemsets, min_count_from_support
from .apriori_tid import TidLists, tid_pass
from .candidates import apriori_gen
from .hash_tree import HashTree
from .levelwise import run_levelwise


def apriori_hybrid(
    db: TransactionDatabase,
    min_support: float = 0.01,
    max_size: Optional[int] = None,
    switch_budget: Optional[int] = None,
) -> FrequentItemsets:
    """Mine all frequent itemsets with the AprioriHybrid strategy.

    Parameters
    ----------
    db, min_support, max_size:
        As in :func:`~repro.associations.apriori.apriori`.
    switch_budget:
        Maximum estimated number of candidate slots allowed in the
        transformed representation before switching.  ``None`` defaults to
        ``4 *`` the total number of items in the database, i.e. switch
        once C̄_k is expected to be no bigger than a few raw scans.

    Notes
    -----
    The result is identical to Apriori/AprioriTid; only performance
    differs.  The returned object's ``switched_at`` attribute is the
    pass k whose raw scan built C̄_k — passes after it run
    AprioriTid-style — or ``None`` if the run never switched.
    """
    if max_size is not None and max_size < 1:
        raise ValidationError(f"max_size must be >= 1, got {max_size}")
    n = len(db)
    check_nonempty("transaction database", n, "transactions")
    min_count = min_count_from_support(n, min_support)
    if switch_budget is None:
        switch_budget = 4 * sum(len(t) for t in db)
    switched_at: Optional[int] = None
    tidlists: TidLists = []

    def count(candidates, k):
        nonlocal switched_at, tidlists
        if switched_at is not None:
            frequent, tidlists = tid_pass(tidlists, candidates, k, min_count)
            return frequent
        # Apriori-style pass over the raw database.
        tree = HashTree(candidates)
        tree.count_transactions(db)
        counts = tree.counts()
        frequent = {c: cnt for c, cnt in counts.items() if cnt >= min_count}
        if sum(counts.values()) + n <= switch_budget:
            # Build C̄_k from this pass's surviving candidates so the
            # next pass can run AprioriTid-style.
            switched_at = k
            tidlists = _build_tidlists(db, frequent)
        return frequent

    run = run_levelwise(
        ExecutionContext(),
        n_items=db.n_items,
        first_pass=lambda: frequent_one_itemsets(db, min_count),
        generate=lambda frequent, k: apriori_gen(frequent),
        count=count,
        max_k=max_size,
    )
    result = run.result(FrequentItemsets, run.all_frequent, n, min_support)
    result.switched_at = switched_at
    return result


def _build_tidlists(
    db: TransactionDatabase, frequent: Dict[Itemset, int]
) -> TidLists:
    """Materialise C̄_k for the frequent k-itemsets by one raw scan."""
    if not frequent:
        return []
    k = len(next(iter(frequent)))
    tree = _MembershipIndex(list(frequent), k)
    tidlists = []
    for tid, txn in enumerate(db):
        present = tree.contained_in(txn)
        if present:
            tidlists.append((tid, frozenset(present)))
    return tidlists


class _MembershipIndex:
    """Finds which of a fixed candidate set occur in a transaction."""

    def __init__(self, candidates: List[Itemset], k: int):
        self._candidates = set(candidates)
        self._k = k

    def contained_in(self, txn) -> List[Itemset]:
        from itertools import combinations
        from math import comb

        if len(txn) < self._k:
            return []
        if comb(len(txn), self._k) <= len(self._candidates):
            return [
                subset
                for subset in combinations(txn, self._k)
                if subset in self._candidates
            ]
        txn_set = set(txn)
        return [c for c in self._candidates if txn_set.issuperset(c)]


__all__ = ["apriori_hybrid"]
