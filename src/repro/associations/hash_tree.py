"""Hash tree for counting candidate itemsets, as in the Apriori paper.

Interior nodes route items through a hash function; leaves hold candidate
lists.  Counting a transaction descends the tree once per distinct item
prefix instead of testing every candidate against every transaction, which
is what makes Apriori's support-counting pass tractable when there are
hundreds of thousands of candidates.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..core.itemsets import Itemset


class _Node:
    """One hash-tree node; starts as a leaf and splits when it overflows."""

    __slots__ = ("depth", "is_leaf", "candidates", "children")

    def __init__(self, depth: int):
        self.depth = depth
        self.is_leaf = True
        self.candidates: List[int] = []  # indices into HashTree._candidates
        self.children: Dict[int, "_Node"] = {}


class HashTree:
    """Candidate store supporting bulk transaction counting.

    Parameters
    ----------
    candidates:
        Candidate itemsets of identical size k, in canonical form.
    leaf_capacity:
        A leaf holding more candidates than this splits into an interior
        node — unless it sits at depth k, where splitting cannot separate
        candidates any further.
    n_buckets:
        Modulus of the item hash at interior nodes.

    Examples
    --------
    >>> tree = HashTree([(1, 2), (1, 3), (2, 3)])
    >>> tree.count_transactions([(1, 2, 3), (1, 3)])
    >>> tree.counts()
    {(1, 2): 1, (1, 3): 2, (2, 3): 1}
    """

    def __init__(
        self,
        candidates: Sequence[Itemset],
        leaf_capacity: int = 32,
        n_buckets: int = 16,
    ):
        self._candidates: List[Itemset] = list(candidates)
        if self._candidates:
            sizes = {len(c) for c in self._candidates}
            if len(sizes) != 1:
                raise ValueError(
                    f"all candidates must have the same size, got sizes {sizes}"
                )
            self._k = sizes.pop()
        else:
            self._k = 0
        self._counts = [0] * len(self._candidates)
        # Stamp of the last transaction that counted each candidate.  A
        # transaction can reach the same leaf through several descent
        # paths (different positions hashing to the same bucket); the
        # stamp guarantees each candidate is counted at most once per
        # transaction.
        self._stamp = [-1] * len(self._candidates)
        self._txn_serial = -1
        self._leaf_capacity = max(1, leaf_capacity)
        self._n_buckets = max(2, n_buckets)
        self._root = _Node(depth=0)
        for idx in range(len(self._candidates)):
            self._insert(self._root, idx)

    def __len__(self) -> int:
        return len(self._candidates)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _insert(self, node: _Node, idx: int) -> None:
        while not node.is_leaf:
            item = self._candidates[idx][node.depth]
            node = node.children.setdefault(
                item % self._n_buckets, _Node(node.depth + 1)
            )
        node.candidates.append(idx)
        if (
            len(node.candidates) > self._leaf_capacity
            and node.depth < self._k
        ):
            self._split(node)

    def _split(self, node: _Node) -> None:
        pending = node.candidates
        node.candidates = []
        node.is_leaf = False
        for idx in pending:
            item = self._candidates[idx][node.depth]
            child = node.children.setdefault(
                item % self._n_buckets, _Node(node.depth + 1)
            )
            child.candidates.append(idx)
            if (
                len(child.candidates) > self._leaf_capacity
                and child.depth < self._k
            ):
                self._split(child)

    # ------------------------------------------------------------------
    # Counting
    # ------------------------------------------------------------------
    def count_transaction(self, transaction: Sequence[int]) -> None:
        """Add 1 to every stored candidate contained in ``transaction``.

        ``transaction`` must be sorted and duplicate-free (the invariant
        :class:`~repro.core.transactions.TransactionDatabase` maintains).
        """
        if self._k == 0 or len(transaction) < self._k:
            return
        self._txn_serial += 1
        self._descend(self._root, transaction, 0)

    def count_transactions(
        self,
        transactions: Iterable[Sequence[int]],
        ctx: Optional[object] = None,
    ) -> None:
        """Count every transaction in ``transactions``.

        ``ctx`` (a :class:`~repro.runtime.ExecutionContext`) ticks every
        256 transactions, so a deadline or cancellation fires mid-scan
        and a long scan beats.
        """
        for i, txn in enumerate(transactions):
            if ctx is not None and i % 256 == 0:
                ctx.tick("hash-tree-count")
            self.count_transaction(txn)

    def _descend(self, node: _Node, txn: Sequence[int], start: int) -> None:
        if node.is_leaf:
            for idx in node.candidates:
                if self._stamp[idx] != self._txn_serial and self._contained(
                    self._candidates[idx], txn
                ):
                    self._stamp[idx] = self._txn_serial
                    self._counts[idx] += 1
            return
        # At an interior node at depth d we have implicitly matched d items;
        # try every remaining transaction item as the next itemset item.
        # Leaving at least (k - depth - 1) items after the chosen one is
        # required for a full match, which bounds the loop.
        last = len(txn) - (self._k - node.depth - 1)
        for pos in range(start, last):
            child = node.children.get(txn[pos] % self._n_buckets)
            if child is not None:
                self._descend(child, txn, pos + 1)

    @staticmethod
    def _contained(itemset: Itemset, txn: Sequence[int]) -> bool:
        it = iter(txn)
        for wanted in itemset:
            for item in it:
                if item == wanted:
                    break
                if item > wanted:
                    return False
            else:
                return False
        return True

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def counts(self) -> Dict[Itemset, int]:
        """Mapping candidate -> accumulated count."""
        return dict(zip(self._candidates, self._counts))

    def count_vector(self) -> List[int]:
        """Raw counts aligned with the construction-time candidate order.

        The merge format of the map-reduce counting path: per-shard
        vectors sum element-wise into the full-database counts.
        """
        return list(self._counts)

    def frequent(self, min_count: int) -> Dict[Itemset, int]:
        """Candidates whose count reached ``min_count``."""
        return {
            cand: cnt
            for cand, cnt in zip(self._candidates, self._counts)
            if cnt >= min_count
        }


__all__ = ["HashTree"]
