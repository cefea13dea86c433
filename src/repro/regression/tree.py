"""Regression trees — the "R" in Classification And Regression Trees.

CART's regression half (Breiman et al., 1984): binary splits chosen to
minimise within-node variance (equivalently, maximise the weighted
variance reduction), leaves predicting the node mean.  Categorical
attributes use the exact ordering trick: sorting categories by their
target mean makes the best binary partition a prefix of that order —
provably optimal for squared error.

Prediction with missing values routes to the heavier branch, matching
the classification CART in this repository.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from ..classification.splits import (
    first_max,
    route_missing,
    sse_children,
    sse_scan,
)
from ..classification.tree_model import safe_threshold
from ..core.base import check_in_range, check_nonempty
from ..core.exceptions import NotFittedError, ValidationError
from ..core.table import Attribute, Table


class _RLeaf:
    __slots__ = ("value", "n")

    def __init__(self, value: float, n: int):
        self.value = value
        self.n = n

    def predict_one(self, row: Dict[str, object]) -> float:
        return self.value

    def n_leaves(self) -> int:
        return 1

    def depth(self) -> int:
        return 0


class _RSplit:
    __slots__ = ("attribute", "threshold", "left_codes", "left", "right", "n")

    def __init__(self, attribute, threshold, left_codes, left, right, n):
        self.attribute = attribute
        self.threshold = threshold
        self.left_codes = left_codes
        self.left = left
        self.right = right
        self.n = n

    def predict_one(self, row: Dict[str, object]) -> float:
        value = row.get(self.attribute.name)
        if value is None or (isinstance(value, float) and math.isnan(value)):
            branch = self.left if self.left.n >= self.right.n else self.right
            return branch.predict_one(row)
        if self.threshold is not None:
            branch = self.left if value <= self.threshold else self.right
        else:
            branch = self.left if value in self.left_codes else self.right
        return branch.predict_one(row)

    def n_leaves(self) -> int:
        return self.left.n_leaves() + self.right.n_leaves()

    def depth(self) -> int:
        return 1 + max(self.left.depth(), self.right.depth())


class RegressionTree:
    """CART-style regression tree over a :class:`Table`.

    Parameters
    ----------
    max_depth, min_samples_split, min_samples_leaf:
        The usual growth limits.
    min_variance_decrease:
        A split must reduce the node's (mass-weighted) squared error by
        at least this absolute amount.

    Examples
    --------
    >>> from repro.core import Table, numeric
    >>> rows = [(float(x), 2.0 * x) for x in range(50)]
    >>> table = Table.from_rows(rows, [numeric("x"), numeric("y")])
    >>> model = RegressionTree(max_depth=6).fit(table, "y")
    >>> abs(model.predict(table)[10] - 20.0) < 5.0
    True
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        min_variance_decrease: float = 0.0,
    ):
        if max_depth is not None and max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {max_depth}")
        check_in_range("min_samples_split", min_samples_split, 2, None)
        check_in_range("min_samples_leaf", min_samples_leaf, 1, None)
        check_in_range("min_variance_decrease", min_variance_decrease, 0.0, None)
        self.max_depth = max_depth
        self.min_samples_split = int(min_samples_split)
        self.min_samples_leaf = int(min_samples_leaf)
        self.min_variance_decrease = float(min_variance_decrease)
        self.tree_ = None
        self.target_: Optional[Attribute] = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, table: Table, target: str) -> "RegressionTree":
        """Learn from ``table`` using the numeric column ``target``."""
        attr = table.attribute(target)
        if not attr.is_numeric:
            raise ValidationError(f"target {target!r} must be numeric")
        y = table.column(target)
        if np.isnan(y).any():
            raise ValidationError(f"target {target!r} contains missing values")
        check_nonempty("table", table.n_rows, "rows")
        if table.n_rows < 2:
            raise ValidationError(
                f"cannot grow a regression tree from {table.n_rows} "
                f"row(s); need at least 2"
            )
        self.target_ = attr
        self._features = table.drop([target])
        self._y = y
        indices = np.arange(table.n_rows)
        self.tree_ = self._build(indices, depth=0)
        del self._features, self._y
        return self

    def _build(self, indices: np.ndarray, depth: int):
        y = self._y[indices]
        node_value = float(y.mean())
        if (
            len(indices) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or float(y.var()) <= 1e-15
        ):
            return _RLeaf(node_value, len(indices))
        best = self._best_split(indices)
        if best is None:
            return _RLeaf(node_value, len(indices))
        left = self._build(best["left"], depth + 1)
        right = self._build(best["right"], depth + 1)
        return _RSplit(
            self._features.attribute(best["attribute"]),
            best.get("threshold"),
            best.get("left_codes"),
            left,
            right,
            len(indices),
        )

    def _best_split(self, indices: np.ndarray):
        y = self._y[indices]
        n_node = len(indices)
        node_sse = float(((y - y.mean()) ** 2).sum())
        best = None
        best_decrease = self.min_variance_decrease
        for attr in self._features.attributes:
            if attr.is_numeric:
                split = self._numeric_split(attr, indices, node_sse)
            else:
                split = self._categorical_split(attr, indices, node_sse)
            if split is not None and split["decrease"] > best_decrease + 1e-12:
                best_decrease = split["decrease"]
                best = split
        return best

    def _numeric_split(self, attr, indices, node_sse):
        values = self._features.column(attr.name)[indices]
        known_mask = ~np.isnan(values)
        known = indices[known_mask]
        if len(known) < 2 * self.min_samples_leaf:
            return None
        v = values[known_mask]
        y = self._y[known]
        order = np.argsort(v, kind="mergesort")
        v, y = v[order], y[order]
        known_sorted = known[order]
        # Prefix sums give every threshold's SSE at once.
        bounds, child_sse, valid = sse_scan(v, y, self.min_samples_leaf)
        decrease = node_sse - child_sse
        i = first_max(decrease, valid, floor=-1.0)
        if i is None:
            return None
        # Index-based partition cannot degenerate, but the safe threshold
        # keeps prediction consistent with the training partition when
        # the naive midpoint would round up to the higher value.
        boundary = bounds[i]
        left_idx, right_idx = route_missing(
            known_sorted[: boundary + 1],
            known_sorted[boundary + 1:],
            indices[~known_mask],
        )
        return {
            "attribute": attr.name,
            "threshold": safe_threshold(v[boundary], v[boundary + 1]),
            "decrease": decrease[i],
            "left": left_idx,
            "right": right_idx,
        }

    def _categorical_split(self, attr, indices, node_sse):
        codes = self._features.column(attr.name)[indices]
        known_mask = codes >= 0
        known = indices[known_mask]
        if len(known) < 2 * self.min_samples_leaf:
            return None
        observed = np.unique(codes[known_mask])
        if observed.size < 2:
            return None
        # Exact for squared error: order categories by target mean and
        # scan prefixes (Breiman's theorem).
        stats = []
        for code in observed:
            member = self._y[indices[known_mask & (codes == code)]]
            stats.append((float(member.mean()), int(code), member))
        stats.sort()
        members = [member for _, _, member in stats[:-1]]
        y_known = self._y[known]
        n_left = np.cumsum([len(m) for m in members]).astype(np.float64)
        child_sse = sse_children(
            np.cumsum([float(m.sum()) for m in members]),
            np.cumsum([float((m**2).sum()) for m in members]),
            n_left, float(y_known.sum()), float((y_known**2).sum()),
            len(y_known),
        )
        decrease = node_sse - child_sse
        valid = ((n_left >= self.min_samples_leaf)
                 & (len(y_known) - n_left >= self.min_samples_leaf))
        best = first_max(decrease, valid, floor=-1.0)
        if best is None:
            return None
        left_codes = frozenset(code for _, code, _ in stats[: best + 1])
        in_left = np.isin(codes, list(left_codes)) & known_mask
        left_idx, right_idx = route_missing(
            indices[in_left],
            indices[known_mask & ~in_left],
            indices[~known_mask],
        )
        return {
            "attribute": attr.name,
            "left_codes": left_codes,
            "decrease": decrease[best],
            "left": left_idx,
            "right": right_idx,
        }

    # ------------------------------------------------------------------
    # Prediction and introspection
    # ------------------------------------------------------------------
    def predict(self, table: Table) -> np.ndarray:
        """Predicted target value per row of ``table``."""
        if self.tree_ is None:
            raise NotFittedError(self)
        features = table
        if self.target_.name in table.attribute_names:
            features = table.drop([self.target_.name])
        from ..classification.tree_model import _rows_as_dicts

        rows = _rows_as_dicts(features)
        return np.array([self.tree_.predict_one(row) for row in rows])

    def score(self, table: Table, target: Optional[str] = None) -> float:
        """Coefficient of determination R^2 on ``table``."""
        from .metrics import r_squared

        target = target or self.target_.name
        y_true = table.column(target)
        return r_squared(y_true, self.predict(table))

    def n_leaves(self) -> int:
        """Leaf count of the fitted tree."""
        if self.tree_ is None:
            raise NotFittedError(self)
        return self.tree_.n_leaves()

    def depth(self) -> int:
        """Depth of the fitted tree."""
        if self.tree_ is None:
            raise NotFittedError(self)
        return self.tree_.depth()


__all__ = ["RegressionTree"]
