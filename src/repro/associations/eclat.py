"""Eclat: frequent itemsets over the vertical (tidset) layout.

Eclat keeps, for each itemset, the set of transaction ids containing it;
the support of a union of itemsets is the size of the intersection of
their tidsets.  Mining proceeds depth-first through prefix-based
equivalence classes, which keeps at most one path of tidsets in memory.

Eclat is not levelwise, so its budget/checkpoint boundaries are the
*root equivalence classes*: the depth-first expansion of each frequent
item's class is atomic, and a completed root class is a resumable
boundary (the vertical layout is rebuilt deterministically on resume).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.base import check_nonempty
from ..core.exceptions import ValidationError
from ..core.itemsets import FrequentItemsets, Itemset
from ..core.transactions import TransactionDatabase
from ..runtime import BudgetExceeded
from ..runtime.context import (
    BASIC_POLICIES,
    ExecutionContext,
    check_degradation_policy,
)
from .apriori import checkpoint_key, min_count_from_support


def eclat(
    db: TransactionDatabase,
    min_support: float = 0.01,
    max_size: Optional[int] = None,
    on_exhausted: str = "raise",
    ctx: Optional[ExecutionContext] = None,
) -> FrequentItemsets:
    """Mine all frequent itemsets with Eclat (vertical DFS).

    Parameters and result match
    :func:`~repro.associations.apriori.apriori`; the itemsets returned are
    identical, only the traversal differs.  ``pass_stats`` is left empty
    because Eclat is not levelwise.

    A budget in ``ctx`` is checked at every equivalence-class expansion
    and charged one candidate per tidset join; ``on_exhausted`` supports
    ``"raise"`` and ``"truncate"`` (every itemset already emitted is
    genuinely frequent, so truncation can only lose itemsets).  A
    checkpointer in ``ctx`` marks each completed root class.  The
    default null context keeps the run byte-identical to the unguarded
    implementation.

    Examples
    --------
    >>> db = TransactionDatabase([(0, 1, 2), (0, 1), (0, 2), (1, 2)])
    >>> eclat(db, 0.5).supports[(1, 2)]
    2
    """
    if ctx is None:
        ctx = ExecutionContext()
    check_degradation_policy(on_exhausted, BASIC_POLICIES, "eclat")
    ctx.raise_if_cancelled()
    if max_size is not None and max_size < 1:
        raise ValidationError(f"max_size must be >= 1, got {max_size}")
    n = len(db)
    check_nonempty("transaction database", n, "transactions")
    min_count = min_count_from_support(n, min_support)

    vertical = db.vertical()
    # Root equivalence class: frequent single items with their tidsets,
    # processed in item order so output matches the levelwise miners.
    root: List[Tuple[Itemset, frozenset]] = [
        ((item,), tids)
        for item, tids in sorted(vertical.items())
        if len(tids) >= min_count
    ]

    resumed = ctx.resume(
        lambda: checkpoint_key("eclat", db, min_support, max_size=max_size)
    )
    if resumed is not None:
        frequent: Dict[Itemset, int] = resumed["frequent"]
        start = resumed["next_root"]
    else:
        frequent = {}
        for itemset, tids in root:
            frequent[itemset] = len(tids)
        start = 0
        ctx.mark(lambda: {"next_root": 0, "frequent": dict(frequent)})

    try:
        for i in range(start, len(root)):
            ctx.step(f"eclat-root-{i}", n_frequent=len(frequent))
            itemset, tids = root[i]
            _expand_member(
                root, i, itemset, tids, min_count, max_size, frequent, ctx
            )
            ctx.mark(lambda: {"next_root": i + 1, "frequent": dict(frequent)})
    except BudgetExceeded as exc:
        if on_exhausted == "raise":
            raise
        return FrequentItemsets(
            frequent,
            n,
            min_support,
            truncated=True,
            truncation_reason=f"{type(exc).__name__}: {exc}",
        )
    finally:
        ctx.flush()
    return FrequentItemsets(frequent, n, min_support)


def _expand_member(
    members: List[Tuple[Itemset, frozenset]],
    i: int,
    itemset: Itemset,
    tids: frozenset,
    min_count: int,
    max_size: Optional[int],
    out: Dict[Itemset, int],
    ctx: ExecutionContext,
) -> None:
    """Expand member ``i`` of an equivalence class against later members."""
    if max_size is not None and len(itemset) >= max_size:
        return
    budget = ctx.budget
    child: List[Tuple[Itemset, frozenset]] = []
    for other_itemset, other_tids in members[i + 1:]:
        if budget is not None:
            budget.charge_candidates(phase="eclat-join")
        joined_tids = tids & other_tids
        if len(joined_tids) >= min_count:
            joined = itemset + (other_itemset[-1],)
            out[joined] = len(joined_tids)
            child.append((joined, joined_tids))
    if child:
        _mine_class(child, min_count, max_size, out, ctx)


def _mine_class(
    members: List[Tuple[Itemset, frozenset]],
    min_count: int,
    max_size: Optional[int],
    out: Dict[Itemset, int],
    ctx: ExecutionContext,
) -> None:
    """Depth-first expansion of one prefix equivalence class.

    ``members`` all share the same (len-1) prefix; pairing member i with
    each later member j yields the child class with prefix = itemset i.
    """
    ctx.tick("eclat-class")
    for i, (itemset, tids) in enumerate(members):
        _expand_member(
            members, i, itemset, tids, min_count, max_size, out, ctx
        )


__all__ = ["eclat"]
