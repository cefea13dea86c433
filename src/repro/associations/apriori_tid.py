"""AprioriTid: Apriori counting against transformed transaction lists.

After the first pass, AprioriTid never rereads the raw database.  Instead
it carries, per transaction, the set of candidates the transaction
contains (the paper's C̄_k).  Each pass derives C̄_k from C̄_{k-1}: a
transaction supports a k-candidate exactly when it supported *both* of the
candidate's two generating (k-1)-itemsets (the pair joined by
apriori-gen).  Entries that support no candidates drop out, so late
passes — where few transactions still matter — become very cheap; early
passes, where C̄_k is larger than the raw database, are the algorithm's
weak spot (which motivates AprioriHybrid).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.base import check_nonempty
from ..core.exceptions import ValidationError
from ..core.itemsets import FrequentItemsets, Itemset
from ..core.transactions import TransactionDatabase
from ..runtime.context import (
    LEVELWISE_POLICIES,
    ExecutionContext,
    check_degradation_policy,
)
from .apriori import (
    checkpoint_key,
    frequent_one_itemsets,
    min_count_from_support,
)
from .candidates import apriori_gen
from .levelwise import degrade_levelwise, run_levelwise

#: C̄_k: per surviving transaction, (tid, frozenset of its k-candidates)
TidLists = List[Tuple[int, frozenset]]


def apriori_tid(
    db: TransactionDatabase,
    min_support: float = 0.01,
    max_size: Optional[int] = None,
    on_exhausted: str = "raise",
    ctx: Optional[ExecutionContext] = None,
) -> FrequentItemsets:
    """Mine all frequent itemsets with the AprioriTid algorithm.

    Parameters and result are identical to
    :func:`~repro.associations.apriori.apriori` (including the
    ``on_exhausted`` policy and the budget and checkpointer carried by
    ``ctx``); only the
    counting machinery differs, so the two must return exactly the same
    itemsets.  Snapshots carry the transformed C̄_k lists alongside the
    levelwise state, so a resumed run rereads nothing.

    Examples
    --------
    >>> db = TransactionDatabase([(0, 1, 2), (0, 1), (0, 2), (1, 2)])
    >>> apriori_tid(db, 0.5).supports[(0, 1)]
    2
    """
    if ctx is None:
        ctx = ExecutionContext()
    check_degradation_policy(on_exhausted, LEVELWISE_POLICIES, "apriori_tid")
    ctx.raise_if_cancelled()
    if max_size is not None and max_size < 1:
        raise ValidationError(f"max_size must be >= 1, got {max_size}")
    n = len(db)
    check_nonempty("transaction database", n, "transactions")
    min_count = min_count_from_support(n, min_support)
    tidlists: TidLists = []

    def first_pass():
        frequent = frequent_one_itemsets(db, min_count)
        # C̄_1: per transaction, the frozenset of frequent 1-itemsets present.
        frequent_items = {itemset[0] for itemset in frequent}
        for tid, txn in enumerate(db):
            present = frozenset(
                (item,) for item in txn if item in frequent_items
            )
            if present:
                tidlists.append((tid, present))
        return frequent

    def count(candidates, k):
        nonlocal tidlists
        frequent, tidlists = tid_pass(
            tidlists, candidates, k, min_count, ctx.budget
        )
        return frequent

    def restore(state):
        nonlocal tidlists
        tidlists = state["tidlists"]

    run = run_levelwise(
        ctx,
        n_items=db.n_items,
        first_pass=first_pass,
        generate=lambda frequent, k: apriori_gen(frequent, ctx.budget),
        count=count,
        max_k=max_size,
        on_exhausted=on_exhausted,
        key=lambda: checkpoint_key("apriori_tid", db, min_support,
                                   max_size=max_size),
        save=lambda k: {"tidlists": list(tidlists)},
        restore=restore,
    )
    if run.exhausted is not None:
        return degrade_levelwise(db, min_support, run, on_exhausted)
    return run.result(FrequentItemsets, run.all_frequent, n, min_support)


def tid_pass(
    tidlists: TidLists,
    candidates: List[Itemset],
    k: int,
    min_count: int,
    budget: Optional[Budget] = None,
) -> Tuple[Dict[Itemset, int], TidLists]:
    """One AprioriTid counting pass: C̄_{k-1} → (frequent k-itemsets, C̄_k).

    Each candidate c = prefix + (a, b) was joined from generators
    g1 = prefix+(a,) — the candidate minus its last item — and
    g2 = prefix+(b,) — the candidate minus its second-to-last.  A
    transaction contains c iff it contains both generators, so
    candidates are indexed by g1 and only the generators actually
    present in each transformed entry are probed.
    """
    by_gen1: Dict[Itemset, List[Tuple[Itemset, Itemset]]] = {}
    for cand in candidates:
        by_gen1.setdefault(cand[:-1], []).append(
            (cand, cand[:-2] + cand[-1:])
        )
    counts: Dict[Itemset, int] = dict.fromkeys(candidates, 0)
    next_tidlists: TidLists = []
    for i, (tid, present) in enumerate(tidlists):
        if budget is not None and i % 256 == 0:
            budget.check(phase=f"tid-count-{k}")
        supported = []
        for gen1 in present:
            for cand, gen2 in by_gen1.get(gen1, ()):
                if gen2 in present:
                    counts[cand] += 1
                    supported.append(cand)
        if supported:
            next_tidlists.append((tid, frozenset(supported)))
    frequent = {c: cnt for c, cnt in counts.items() if cnt >= min_count}
    # Keep only candidates that turned out frequent in C̄_k: supersets
    # of infrequent candidates can never be generated, so dropping the
    # infrequent ones is safe and shrinks the lists.
    frequent_set = set(frequent)
    pruned: TidLists = []
    for tid, supported in next_tidlists:
        kept = supported & frequent_set
        if kept:
            pruned.append((tid, kept))
    return frequent, pruned


__all__ = ["apriori_tid"]
