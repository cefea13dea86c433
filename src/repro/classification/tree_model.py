"""Decision-tree node structures shared by ID3, C4.5, CART and SLIQ.

A fitted tree is a graph of three node kinds:

* :class:`Leaf` — a class distribution;
* :class:`CategoricalSplit` — one child per category code (multiway, the
  ID3/C4.5 style) with an explicit fallback for unseen/missing codes;
* :class:`NumericSplit` — binary threshold split (``<=`` goes left).

Prediction returns a class-distribution vector, computed recursively.
Rows with a missing split value are routed through *all* children and the
children's distributions are blended by the training mass that reached
them — C4.5's probabilistic descent, which the other builders inherit.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterator, List, Tuple

import numpy as np

from ..core.table import Attribute, Table


class TreeNode:
    """Abstract node; concrete kinds implement distribution lookup."""

    #: weighted class counts of the training rows that reached this node
    class_counts: np.ndarray

    def distribution(self, row_values: Dict[str, object]) -> np.ndarray:
        raise NotImplementedError

    def n_nodes(self) -> int:
        raise NotImplementedError

    def n_leaves(self) -> int:
        raise NotImplementedError

    def depth(self) -> int:
        raise NotImplementedError

    def iter_nodes(self) -> Iterator["TreeNode"]:
        raise NotImplementedError

    @property
    def majority_class(self) -> int:
        return int(np.argmax(self.class_counts))

    @property
    def training_mass(self) -> float:
        return float(self.class_counts.sum())

    def training_errors(self) -> float:
        """Weighted count of training rows this node would misclassify."""
        return self.training_mass - float(self.class_counts.max())


class Leaf(TreeNode):
    """Terminal node carrying the class distribution of its region."""

    def __init__(self, class_counts: np.ndarray):
        self.class_counts = np.asarray(class_counts, dtype=np.float64)

    def distribution(self, row_values: Dict[str, object]) -> np.ndarray:
        total = self.class_counts.sum()
        if total <= 0:
            return np.full_like(self.class_counts, 1.0 / len(self.class_counts))
        return self.class_counts / total

    def n_nodes(self) -> int:
        return 1

    def n_leaves(self) -> int:
        return 1

    def depth(self) -> int:
        return 0

    def iter_nodes(self) -> Iterator[TreeNode]:
        yield self

    def __repr__(self) -> str:
        return f"Leaf(class={self.majority_class}, n={self.training_mass:.1f})"


class CategoricalSplit(TreeNode):
    """Multiway split on a categorical attribute (one child per code)."""

    def __init__(
        self,
        attribute: Attribute,
        children: Dict[int, TreeNode],
        class_counts: np.ndarray,
    ):
        self.attribute = attribute
        self.children = children
        self.class_counts = np.asarray(class_counts, dtype=np.float64)

    def distribution(self, row_values: Dict[str, object]) -> np.ndarray:
        code = row_values.get(self.attribute.name)
        if code is not None and code in self.children:
            return self.children[code].distribution(row_values)
        return self._blended(row_values)

    def _blended(self, row_values: Dict[str, object]) -> np.ndarray:
        """Probabilistic descent for missing/unseen categories."""
        total = sum(child.training_mass for child in self.children.values())
        if total <= 0:
            return Leaf(self.class_counts).distribution(row_values)
        blended = np.zeros_like(self.class_counts)
        for child in self.children.values():
            blended += (
                child.training_mass / total
            ) * child.distribution(row_values)
        return blended

    def n_nodes(self) -> int:
        return 1 + sum(c.n_nodes() for c in self.children.values())

    def n_leaves(self) -> int:
        return sum(c.n_leaves() for c in self.children.values())

    def depth(self) -> int:
        return 1 + max(c.depth() for c in self.children.values())

    def iter_nodes(self) -> Iterator[TreeNode]:
        yield self
        for child in self.children.values():
            yield from child.iter_nodes()

    def __repr__(self) -> str:
        return (
            f"CategoricalSplit({self.attribute.name!r}, "
            f"{len(self.children)} branches)"
        )


class NumericSplit(TreeNode):
    """Binary split on a numeric attribute: ``value <= threshold`` left."""

    def __init__(
        self,
        attribute: Attribute,
        threshold: float,
        left: TreeNode,
        right: TreeNode,
        class_counts: np.ndarray,
    ):
        self.attribute = attribute
        self.threshold = float(threshold)
        self.left = left
        self.right = right
        self.class_counts = np.asarray(class_counts, dtype=np.float64)

    def distribution(self, row_values: Dict[str, object]) -> np.ndarray:
        value = row_values.get(self.attribute.name)
        if value is None or (isinstance(value, float) and math.isnan(value)):
            total = self.left.training_mass + self.right.training_mass
            if total <= 0:
                return Leaf(self.class_counts).distribution(row_values)
            return (
                self.left.training_mass / total
            ) * self.left.distribution(row_values) + (
                self.right.training_mass / total
            ) * self.right.distribution(row_values)
        if value <= self.threshold:
            return self.left.distribution(row_values)
        return self.right.distribution(row_values)

    def n_nodes(self) -> int:
        return 1 + self.left.n_nodes() + self.right.n_nodes()

    def n_leaves(self) -> int:
        return self.left.n_leaves() + self.right.n_leaves()

    def depth(self) -> int:
        return 1 + max(self.left.depth(), self.right.depth())

    def iter_nodes(self) -> Iterator[TreeNode]:
        yield self
        yield from self.left.iter_nodes()
        yield from self.right.iter_nodes()

    def __repr__(self) -> str:
        return f"NumericSplit({self.attribute.name!r} <= {self.threshold:g})"


class BinaryCategoricalSplit(TreeNode):
    """CART-style binary split on a category subset (in-set goes left)."""

    def __init__(
        self,
        attribute: Attribute,
        left_codes: frozenset,
        left: TreeNode,
        right: TreeNode,
        class_counts: np.ndarray,
    ):
        self.attribute = attribute
        self.left_codes = frozenset(left_codes)
        self.left = left
        self.right = right
        self.class_counts = np.asarray(class_counts, dtype=np.float64)

    def distribution(self, row_values: Dict[str, object]) -> np.ndarray:
        code = row_values.get(self.attribute.name)
        if code is None:
            total = self.left.training_mass + self.right.training_mass
            if total <= 0:
                return Leaf(self.class_counts).distribution(row_values)
            return (
                self.left.training_mass / total
            ) * self.left.distribution(row_values) + (
                self.right.training_mass / total
            ) * self.right.distribution(row_values)
        if code in self.left_codes:
            return self.left.distribution(row_values)
        return self.right.distribution(row_values)

    def n_nodes(self) -> int:
        return 1 + self.left.n_nodes() + self.right.n_nodes()

    def n_leaves(self) -> int:
        return self.left.n_leaves() + self.right.n_leaves()

    def depth(self) -> int:
        return 1 + max(self.left.depth(), self.right.depth())

    def iter_nodes(self) -> Iterator[TreeNode]:
        yield self
        yield from self.left.iter_nodes()
        yield from self.right.iter_nodes()

    def __repr__(self) -> str:
        labels = sorted(self.left_codes)
        return f"BinaryCategoricalSplit({self.attribute.name!r} in {labels})"


# ----------------------------------------------------------------------
# Whole-table prediction and rendering helpers
# ----------------------------------------------------------------------
def safe_threshold(lo: float, hi: float) -> float:
    """Split threshold strictly separating two adjacent sorted values.

    The naive midpoint ``(lo + hi) / 2`` rounds up to ``hi`` when the two
    are adjacent floats, so a ``value <= threshold`` test sends *every*
    row left — a degenerate split that recurses forever in builders that
    re-partition by threshold.  Fall back to ``lo`` (which always
    separates, since ``lo < hi``) whenever the midpoint fails
    ``lo <= mid < hi``.

    >>> safe_threshold(1.0, 2.0)
    1.5
    >>> import math
    >>> hi = math.nextafter(1.0, 2.0)
    >>> safe_threshold(1.0, hi)
    1.0
    """
    mid = (lo + hi) / 2.0
    if not (lo <= mid < hi):
        return lo
    return mid


def predict_distributions(root: TreeNode, table: Table) -> np.ndarray:
    """Class-distribution matrix for every row of ``table``."""
    rows = _rows_as_dicts(table)
    n_classes = len(root.class_counts)
    out = np.empty((len(rows), n_classes), dtype=np.float64)
    for i, row in enumerate(rows):
        out[i] = root.distribution(row)
    return out


def _rows_as_dicts(table: Table) -> List[Dict[str, object]]:
    """Per-row attribute dictionaries in the form nodes expect.

    Numeric cells stay floats (NaN -> None); categorical cells become
    their integer codes (missing -> None).
    """
    columns = {}
    for attr in table.attributes:
        col = table.column(attr.name)
        if attr.is_numeric:
            columns[attr.name] = [
                None if math.isnan(v) else float(v) for v in col
            ]
        else:
            columns[attr.name] = [None if v < 0 else int(v) for v in col]
    names = list(columns)
    return [
        {name: columns[name][i] for name in names}
        for i in range(table.n_rows)
    ]


def render_tree(root: TreeNode, target: Attribute, indent: str = "") -> str:
    """Human-readable multi-line rendering of a fitted tree."""
    lines: List[str] = []
    _render(root, target, indent, lines)
    return "\n".join(lines)


def _render(node: TreeNode, target: Attribute, indent: str, lines: List[str]):
    if isinstance(node, Leaf):
        label = target.values[node.majority_class]
        lines.append(f"{indent}-> {label!r}  (n={node.training_mass:g})")
    elif isinstance(node, NumericSplit):
        lines.append(f"{indent}{node.attribute.name} <= {node.threshold:g}:")
        _render(node.left, target, indent + "  ", lines)
        lines.append(f"{indent}{node.attribute.name} > {node.threshold:g}:")
        _render(node.right, target, indent + "  ", lines)
    elif isinstance(node, BinaryCategoricalSplit):
        left_labels = [node.attribute.values[c] for c in sorted(node.left_codes)]
        lines.append(f"{indent}{node.attribute.name} in {left_labels}:")
        _render(node.left, target, indent + "  ", lines)
        lines.append(f"{indent}{node.attribute.name} not in {left_labels}:")
        _render(node.right, target, indent + "  ", lines)
    elif isinstance(node, CategoricalSplit):
        for code, child in sorted(node.children.items()):
            value = node.attribute.values[code]
            lines.append(f"{indent}{node.attribute.name} = {value!r}:")
            _render(child, target, indent + "  ", lines)


def extract_rules(
    root: TreeNode, target: Attribute
) -> List[Tuple[List[str], Hashable]]:
    """Flatten a tree into (conditions, predicted label) rules.

    One rule per leaf; conditions are human-readable strings.  This is
    the interpretability payoff decision trees are prized for.
    """
    rules: List[Tuple[List[str], Hashable]] = []
    _collect_rules(root, target, [], rules)
    return rules


def _collect_rules(node, target, conditions, rules):
    if isinstance(node, Leaf):
        rules.append((list(conditions), target.values[node.majority_class]))
        return
    if isinstance(node, NumericSplit):
        _collect_rules(
            node.left,
            target,
            conditions + [f"{node.attribute.name} <= {node.threshold:g}"],
            rules,
        )
        _collect_rules(
            node.right,
            target,
            conditions + [f"{node.attribute.name} > {node.threshold:g}"],
            rules,
        )
    elif isinstance(node, BinaryCategoricalSplit):
        left_labels = [node.attribute.values[c] for c in sorted(node.left_codes)]
        _collect_rules(
            node.left,
            target,
            conditions + [f"{node.attribute.name} in {left_labels}"],
            rules,
        )
        _collect_rules(
            node.right,
            target,
            conditions + [f"{node.attribute.name} not in {left_labels}"],
            rules,
        )
    elif isinstance(node, CategoricalSplit):
        for code, child in sorted(node.children.items()):
            value = node.attribute.values[code]
            _collect_rules(
                child,
                target,
                conditions + [f"{node.attribute.name} = {value!r}"],
                rules,
            )


__all__ = [
    "TreeNode",
    "Leaf",
    "CategoricalSplit",
    "NumericSplit",
    "BinaryCategoricalSplit",
    "safe_threshold",
    "predict_distributions",
    "render_tree",
    "extract_rules",
]
