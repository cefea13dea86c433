"""COBWEB — incremental conceptual clustering (Fisher, 1987).

COBWEB clusters *nominal* instances into a concept hierarchy, guided by
**category utility**:

``CU = (1/K) * sum_k P(C_k) * [ sum_ij P(A_i = V_ij | C_k)^2
                                - sum_ij P(A_i = V_ij)^2 ]``

— the expected gain in attribute-value predictability from knowing an
instance's cluster.  Instances are inserted one at a time; at each node
the operator that maximises CU is applied: place into the best child,
create a new singleton child, *merge* the two best children, or *split*
the best child into its own children.  Merge and split give the
hill-climbing search its undo ability, making the result far less
order-sensitive than plain incremental sorting.

The fitted object exposes the root-level partition as ``labels_`` (the
conventional flat reading) and the full hierarchy for inspection.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.base import check_in_range
from ..core.exceptions import NotFittedError, ValidationError
from ..core.table import Table


class CobwebNode:
    """One concept: attribute-value counts over the instances below it."""

    __slots__ = ("n", "value_counts", "children", "instances")

    def __init__(self, n_values: List[int]):
        self.n = 0
        self.value_counts = [np.zeros(v) for v in n_values]
        self.children: List["CobwebNode"] = []
        self.instances: List[int] = []  # row ids (leaves of the hierarchy)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def add_counts(self, row: np.ndarray) -> None:
        self.n += 1
        for attr_idx, code in enumerate(row):
            self.value_counts[attr_idx][code] += 1

    def expected_correct(self) -> float:
        """sum_ij P(A_i = V_ij | this concept)^2."""
        if self.n == 0:
            return 0.0
        total = 0.0
        for counts in self.value_counts:
            p = counts / self.n
            total += float((p * p).sum())
        return total

    def copy_stats(self) -> "CobwebNode":
        clone = CobwebNode([len(c) for c in self.value_counts])
        clone.n = self.n
        clone.value_counts = [c.copy() for c in self.value_counts]
        clone.instances = list(self.instances)
        clone.children = list(self.children)
        return clone

    def depth(self) -> int:
        if not self.children:
            return 0
        return 1 + max(child.depth() for child in self.children)

    def n_concepts(self) -> int:
        return 1 + sum(child.n_concepts() for child in self.children)


def category_utility(parent: CobwebNode, children: List[CobwebNode]) -> float:
    """CU of partitioning ``parent`` into ``children``.

    >>> a = CobwebNode([2]); a.add_counts(np.array([0]))
    >>> b = CobwebNode([2]); b.add_counts(np.array([1]))
    >>> p = CobwebNode([2]); p.add_counts(np.array([0])); p.add_counts(np.array([1]))
    >>> category_utility(p, [a, b])
    0.25
    """
    if not children or parent.n == 0:
        return 0.0
    base = parent.expected_correct()
    total = 0.0
    for child in children:
        if child.n == 0:
            continue
        total += (child.n / parent.n) * (child.expected_correct() - base)
    return total / len(children)


class Cobweb:
    """COBWEB clusterer over categorical tables.

    Parameters
    ----------
    max_children:
        Soft cap on a node's fan-out; above it, merges are strongly
        preferred (keeps the tree readable on large data).

    Attributes
    ----------
    root_:
        The concept hierarchy.
    labels_:
        Flat assignment: index of the root child each row descends into.

    Examples
    --------
    >>> from repro.core import Table, categorical
    >>> rows = [("small", "red")] * 5 + [("large", "blue")] * 5
    >>> table = Table.from_rows(rows, [
    ...     categorical("size", ["small", "large"]),
    ...     categorical("color", ["red", "blue"])])
    >>> model = Cobweb().fit(table)
    >>> len(set(model.labels_.tolist()))
    2
    """

    def __init__(self, max_children: int = 12):
        check_in_range("max_children", max_children, 2, None)
        self.max_children = int(max_children)
        self.root_: Optional[CobwebNode] = None
        self.labels_: Optional[np.ndarray] = None

    def fit(self, table: Table) -> "Cobweb":
        """Build the concept hierarchy incrementally over ``table``."""
        rows, n_values = self._encode(table)
        self._n_values = n_values
        self.root_ = CobwebNode(n_values)
        for row_id, row in enumerate(rows):
            self._insert(self.root_, row, row_id)
        self.labels_ = self._flat_labels(len(rows))
        return self

    def fit_predict(self, table: Table) -> np.ndarray:
        """Fit and return the root-level assignment."""
        self.fit(table)
        return self.labels_

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def _encode(self, table: Table):
        rows = []
        n_values = []
        for attr in table.attributes:
            if not attr.is_categorical:
                raise ValidationError(
                    f"COBWEB handles categorical attributes only; "
                    f"{attr.name!r} is numeric (discretize it first)"
                )
            col = table.column(attr.name)
            if (col < 0).any():
                raise ValidationError(
                    f"COBWEB does not handle missing values ({attr.name!r})"
                )
            n_values.append(len(attr.values))
        matrix = np.column_stack(
            [table.column(a.name) for a in table.attributes]
        ).astype(np.int64)
        if matrix.shape[0] == 0:
            raise ValidationError("cannot fit COBWEB on an empty table")
        rows = [matrix[i] for i in range(matrix.shape[0])]
        return rows, n_values

    # ------------------------------------------------------------------
    # Insertion with the four operators
    # ------------------------------------------------------------------
    def _insert(self, node: CobwebNode, row: np.ndarray, row_id: int) -> None:
        node.add_counts(row)
        if not node.children:
            if node.n == 1:
                node.instances.append(row_id)
                return
            # First branching: the old occupant and the new instance
            # become two singleton children.
            old_child = CobwebNode(self._n_values)
            for counts, node_counts in zip(
                old_child.value_counts, node.value_counts
            ):
                counts += node_counts
            # Subtract the incoming row: old_child holds prior contents.
            for attr_idx, code in enumerate(row):
                old_child.value_counts[attr_idx][code] -= 1
            old_child.n = node.n - 1
            old_child.instances = list(node.instances)
            new_child = CobwebNode(self._n_values)
            new_child.add_counts(row)
            new_child.instances = [row_id]
            node.children = [old_child, new_child]
            node.instances = []
            return

        scores = [
            self._cu_with_addition(node, idx, row)
            for idx in range(len(node.children))
        ]
        order = np.argsort(scores)[::-1]
        best_idx = int(order[0])
        best_cu = scores[best_idx]
        new_cu = self._cu_with_new_singleton(node, row)

        merge_cu = -np.inf
        if len(node.children) >= 3 or len(node.children) > self.max_children:
            second_idx = int(order[1]) if len(order) > 1 else None
            if second_idx is not None:
                merge_cu = self._cu_with_merge(node, best_idx, second_idx, row)
        split_cu = -np.inf
        if node.children[best_idx].children:
            split_cu = self._cu_with_split(node, best_idx, row)

        # Ties favour placing into the best existing child — the
        # structurally simplest operator — so identical instances pile
        # into one concept instead of spawning singleton children.
        eps = 1e-12
        if (
            new_cu > best_cu + eps
            and new_cu > merge_cu + eps
            and new_cu > split_cu + eps
            and len(node.children) <= self.max_children
        ):
            child = CobwebNode(self._n_values)
            child.add_counts(row)
            child.instances = [row_id]
            node.children.append(child)
        elif merge_cu > best_cu + eps and merge_cu >= split_cu:
            second_idx = int(order[1])
            merged = self._merge_children(node, best_idx, second_idx)
            self._insert(merged, row, row_id)
        elif split_cu > best_cu + eps:
            self._split_child(node, best_idx)
            # Re-place among the promoted children.
            node.n -= 1  # undo the pre-added counts before recursing
            for attr_idx, code in enumerate(row):
                node.value_counts[attr_idx][code] -= 1
            self._insert(node, row, row_id)
        else:
            self._insert(node.children[best_idx], row, row_id)

    # ------------------------------------------------------------------
    # Operator evaluation (on stat copies; the tree is not mutated)
    # ------------------------------------------------------------------
    def _cu_with_addition(self, node, child_idx, row) -> float:
        children = list(node.children)
        grown = children[child_idx].copy_stats()
        grown.add_counts(row)
        children[child_idx] = grown
        return category_utility(node, children)

    def _cu_with_new_singleton(self, node, row) -> float:
        singleton = CobwebNode(self._n_values)
        singleton.add_counts(row)
        return category_utility(node, list(node.children) + [singleton])

    def _cu_with_merge(self, node, idx_a, idx_b, row) -> float:
        merged = node.children[idx_a].copy_stats()
        other = node.children[idx_b]
        merged.n += other.n
        for counts, other_counts in zip(merged.value_counts, other.value_counts):
            counts += other_counts
        merged.add_counts(row)
        children = [
            c for i, c in enumerate(node.children) if i not in (idx_a, idx_b)
        ] + [merged]
        return category_utility(node, children)

    def _cu_with_split(self, node, child_idx, row) -> float:
        children = [
            c for i, c in enumerate(node.children) if i != child_idx
        ] + list(node.children[child_idx].children)
        return category_utility(node, children)

    # ------------------------------------------------------------------
    # Operator application
    # ------------------------------------------------------------------
    def _merge_children(self, node, idx_a, idx_b) -> CobwebNode:
        a, b = node.children[idx_a], node.children[idx_b]
        merged = CobwebNode(self._n_values)
        merged.n = a.n + b.n
        for counts, ca, cb in zip(
            merged.value_counts, a.value_counts, b.value_counts
        ):
            counts += ca + cb
        merged.children = [a, b]
        node.children = [
            c for i, c in enumerate(node.children) if i not in (idx_a, idx_b)
        ]
        node.children.append(merged)
        return merged

    def _split_child(self, node, child_idx) -> None:
        child = node.children.pop(child_idx)
        node.children.extend(child.children)

    # ------------------------------------------------------------------
    # Flat reading
    # ------------------------------------------------------------------
    def _flat_labels(self, n_rows: int) -> np.ndarray:
        labels = np.full(n_rows, -1, dtype=np.int64)
        for cluster_idx, child in enumerate(self.root_.children):
            for row_id in self._collect_instances(child):
                labels[row_id] = cluster_idx
        if not self.root_.children:
            labels[:] = 0
        return labels

    def _collect_instances(self, node: CobwebNode) -> List[int]:
        out = list(node.instances)
        for child in node.children:
            out.extend(self._collect_instances(child))
        return out

    @property
    def n_clusters_(self) -> int:
        """Number of root-level concepts."""
        if self.root_ is None:
            raise NotFittedError(self)
        return max(1, len(self.root_.children))


__all__ = ["Cobweb", "CobwebNode", "category_utility"]
