"""FP-Growth: frequent itemsets without candidate generation.

FP-Growth compresses the database into an FP-tree — a prefix tree over
transactions with items reordered by descending frequency — and then mines
recursively: for each item (least frequent first) it extracts the item's
*conditional pattern base* (the prefix paths leading to it), builds a
conditional FP-tree, and recurses.  A tree that degenerates to a single
path yields all combinations of its nodes directly.

Included as the canonical post-Apriori baseline: every E1-style benchmark
compares the Apriori family against it.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Tuple

from ..core.base import check_nonempty
from ..core.exceptions import ValidationError
from ..core.itemsets import FrequentItemsets, Itemset
from ..core.transactions import TransactionDatabase
from ..runtime import Budget, BudgetExceeded
from ..runtime.context import (
    BASIC_POLICIES,
    ExecutionContext,
    check_degradation_policy,
)
from .apriori import min_count_from_support


class _FPNode:
    __slots__ = ("item", "count", "parent", "children", "next_link")

    def __init__(self, item: int, parent: Optional["_FPNode"]):
        self.item = item
        self.count = 0
        self.parent = parent
        self.children: Dict[int, "_FPNode"] = {}
        self.next_link: Optional["_FPNode"] = None


class _FPTree:
    """FP-tree with a header table of per-item node chains."""

    def __init__(self):
        self.root = _FPNode(item=-1, parent=None)
        self.header: Dict[int, _FPNode] = {}
        self._tails: Dict[int, _FPNode] = {}

    def insert(self, items: List[int], count: int) -> None:
        """Insert one (ordered) transaction path with multiplicity."""
        node = self.root
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = _FPNode(item, node)
                node.children[item] = child
                if item in self._tails:
                    self._tails[item].next_link = child
                else:
                    self.header[item] = child
                self._tails[item] = child
            child.count += count
            node = child

    def prefix_paths(self, item: int) -> List[Tuple[List[int], int]]:
        """Conditional pattern base of ``item``: (path, count) pairs."""
        paths = []
        node = self.header.get(item)
        while node is not None:
            path = []
            parent = node.parent
            while parent is not None and parent.item != -1:
                path.append(parent.item)
                parent = parent.parent
            path.reverse()
            if path:
                paths.append((path, node.count))
            node = node.next_link
        return paths

    def single_path(self) -> Optional[List[Tuple[int, int]]]:
        """If the tree is one chain, return its (item, count) list."""
        path = []
        node = self.root
        while node.children:
            if len(node.children) > 1:
                return None
            node = next(iter(node.children.values()))
            path.append((node.item, node.count))
        return path

    def item_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for item, node in self.header.items():
            total = 0
            while node is not None:
                total += node.count
                node = node.next_link
            counts[item] = total
        return counts


def fp_growth(
    db: TransactionDatabase,
    min_support: float = 0.01,
    max_size: Optional[int] = None,
    on_exhausted: str = "raise",
    ctx: Optional[ExecutionContext] = None,
) -> FrequentItemsets:
    """Mine all frequent itemsets with FP-Growth.

    Parameters and result match
    :func:`~repro.associations.apriori.apriori`; ``pass_stats`` is empty
    because FP-Growth is not levelwise.

    ``ctx`` ticks every 256 transactions of the tree build and once per
    conditional-tree descent, charging its budget one expansion; the
    budget is also charged one candidate per emitted itemset (including
    the combinatorial single-path emission, FP-Growth's blow-up site).
    ``on_exhausted``
    supports ``"raise"`` and ``"truncate"`` — FP-Growth has no cheaper
    fallback miner, so the partition/sampling policies are rejected.
    FP-Growth has no resumable boundary, so it declares no checkpoint
    support.

    Examples
    --------
    >>> db = TransactionDatabase([(0, 1, 2), (0, 1), (0, 2), (1, 2)])
    >>> fp_growth(db, 0.5).supports[(0, 2)]
    2
    """
    if ctx is None:
        ctx = ExecutionContext()
    check_degradation_policy(on_exhausted, BASIC_POLICIES, "fp_growth")
    ctx.raise_if_cancelled()
    if max_size is not None and max_size < 1:
        raise ValidationError(f"max_size must be >= 1, got {max_size}")
    n = len(db)
    check_nonempty("transaction database", n, "transactions")
    min_count = min_count_from_support(n, min_support)

    counts = db.item_counts()
    frequent_items = {i: c for i, c in counts.items() if c >= min_count}
    # Global item order: descending frequency, ties by item id — fixed once
    # and reused in every conditional tree so paths stay maximally shared.
    order = {
        item: rank
        for rank, (item, _) in enumerate(
            sorted(frequent_items.items(), key=lambda kv: (-kv[1], kv[0]))
        )
    }

    tree = _FPTree()
    for i, txn in enumerate(db):
        if i % 256 == 0:
            ctx.tick("fp-tree-build")
        filtered = sorted(
            (item for item in txn if item in frequent_items),
            key=order.__getitem__,
        )
        if filtered:
            tree.insert(filtered, 1)

    out: Dict[Itemset, int] = {}
    try:
        _mine(tree, (), min_count, max_size, out, ctx)
    except BudgetExceeded as exc:
        if on_exhausted == "raise":
            raise
        # Every itemset already emitted is genuinely frequent with its
        # exact support — exhaustion only loses itemsets.
        return FrequentItemsets(
            out,
            n,
            min_support,
            truncated=True,
            truncation_reason=f"{type(exc).__name__}: {exc}",
        )
    return FrequentItemsets(out, n, min_support)


def _mine(
    tree: _FPTree,
    suffix: Itemset,
    min_count: int,
    max_size: Optional[int],
    out: Dict[Itemset, int],
    ctx: ExecutionContext,
) -> None:
    ctx.tick("fp-mine", expansions=1)
    budget = ctx.budget
    path = tree.single_path()
    if path is not None:
        _emit_single_path(path, suffix, max_size, out, budget)
        return
    counts = tree.item_counts()
    # Process items least-frequent-first (standard FP-Growth order).
    for item in sorted(counts, key=lambda i: (counts[i], -i), reverse=False):
        support = counts[item]
        if support < min_count:
            continue
        new_suffix = tuple(sorted((item,) + suffix))
        if budget is not None:
            budget.charge_candidates(phase="fp-emit")
        out[new_suffix] = support
        if max_size is not None and len(new_suffix) >= max_size:
            continue
        cond_tree = _conditional_tree(tree, item, min_count)
        if cond_tree is not None:
            _mine(cond_tree, new_suffix, min_count, max_size, out, ctx)


def _conditional_tree(
    tree: _FPTree, item: int, min_count: int
) -> Optional[_FPTree]:
    paths = tree.prefix_paths(item)
    if not paths:
        return None
    # Count items within the pattern base and drop the infrequent ones.
    local: Dict[int, int] = {}
    for path, cnt in paths:
        for node_item in path:
            local[node_item] = local.get(node_item, 0) + cnt
    keep = {i for i, c in local.items() if c >= min_count}
    if not keep:
        return None
    order = {
        i: rank
        for rank, (i, _) in enumerate(
            sorted(
                ((i, local[i]) for i in keep), key=lambda kv: (-kv[1], kv[0])
            )
        )
    }
    cond = _FPTree()
    for path, cnt in paths:
        filtered = sorted(
            (i for i in path if i in keep), key=order.__getitem__
        )
        if filtered:
            cond.insert(filtered, cnt)
    return cond


def _emit_single_path(
    path: List[Tuple[int, int]],
    suffix: Itemset,
    max_size: Optional[int],
    out: Dict[Itemset, int],
    budget: Optional[Budget] = None,
) -> None:
    """All combinations of a single-path tree are frequent.

    The support of a combination is the count of its deepest (lowest-count)
    node; path counts are non-increasing with depth.  This is FP-Growth's
    2^n blow-up site, so each emission is charged against the budget.
    """
    for r in range(1, len(path) + 1):
        if max_size is not None and r + len(suffix) > max_size:
            break
        for combo in combinations(path, r):
            if budget is not None:
                budget.charge_candidates(phase="fp-single-path")
            itemset = tuple(sorted(tuple(i for i, _ in combo) + suffix))
            out[itemset] = min(c for _, c in combo)


__all__ = ["fp_growth"]
