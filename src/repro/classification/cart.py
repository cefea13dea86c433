"""CART decision trees (Breiman, Friedman, Olshen & Stone, 1984).

Distinctives implemented here:

* strictly **binary** splits — numeric thresholds, and binary *subset*
  splits for categorical attributes (exhaustive subset search for small
  arities, the class-proportion ordering heuristic beyond that);
* **Gini impurity** as the default criterion (entropy selectable);
* **cost-complexity pruning** via the ``ccp_alpha`` parameter, using the
  weakest-link machinery in :mod:`repro.classification.pruning`.

Missing values route to the heavier branch, during both growth and
prediction (surrogate splits are out of scope; the substitution is
documented in DESIGN.md).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.base import Classifier, check_in_range
from ..core.exceptions import ValidationError
from ..core.table import Attribute, Table
from ..runtime.context import ExecutionContext
from .criteria import entropy, gini
from .pruning import prune_to_alpha
from .splits import class_scan, first_max, partition_scan, route_missing
from .tree_model import (
    BinaryCategoricalSplit,
    Leaf,
    NumericSplit,
    TreeNode,
    predict_distributions,
    safe_threshold,
)

_CRITERIA = {"gini": gini, "entropy": entropy}


class CART(Classifier):
    """CART classifier with binary splits and optional CCP pruning.

    Parameters
    ----------
    criterion:
        ``"gini"`` (default) or ``"entropy"``.
    max_depth, min_samples_split, min_samples_leaf:
        The usual growth limits.
    min_impurity_decrease:
        A split must reduce the (mass-weighted) impurity by at least this.
    ccp_alpha:
        Cost-complexity pruning strength; 0 disables pruning.
    max_exhaustive_categories:
        Categorical attributes with at most this many observed categories
        get an exhaustive binary-subset search; beyond it, categories are
        ordered by the node's majority-class proportion and only the
        resulting linear splits are scanned (exact for binary targets).
    ctx:
        Optional :class:`~repro.runtime.ExecutionContext`.  Its budget is
        charged one node unit per attempted split.  On exhaustion growth
        stops, the remaining frontier finalizes as leaves, and
        ``truncated_`` is set.

    Examples
    --------
    >>> from repro.datasets import play_tennis
    >>> model = CART().fit(play_tennis(), "play")
    >>> model.score(play_tennis())
    1.0
    """

    def __init__(
        self,
        criterion: str = "gini",
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        min_impurity_decrease: float = 0.0,
        ccp_alpha: float = 0.0,
        max_exhaustive_categories: int = 8,
        ctx: Optional[ExecutionContext] = None,
    ):
        if criterion not in _CRITERIA:
            raise ValidationError(
                f"criterion must be one of {sorted(_CRITERIA)}, got {criterion!r}"
            )
        if max_depth is not None and max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {max_depth}")
        check_in_range("min_samples_split", min_samples_split, 2, None)
        check_in_range("min_samples_leaf", min_samples_leaf, 1, None)
        check_in_range("min_impurity_decrease", min_impurity_decrease, 0.0, None)
        check_in_range("ccp_alpha", ccp_alpha, 0.0, None)
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.ccp_alpha = ccp_alpha
        self.max_exhaustive_categories = max_exhaustive_categories
        self.ctx = ctx
        self.tree_: Optional[TreeNode] = None
        self.truncated_ = False
        self.truncation_reason_: Optional[str] = None

    def _fit(self, features: Table, y: np.ndarray, target: Attribute) -> None:
        if features.n_rows < 2:
            raise ValidationError(
                f"cannot grow a decision tree from {features.n_rows} "
                f"row(s); need at least 2"
            )
        self._features = features
        self._y = y
        self._n_classes = len(target.values)
        self._impurity = _CRITERIA[self.criterion]
        self.truncated_ = False
        self.truncation_reason_ = None
        indices = np.arange(features.n_rows)
        self.tree_ = self._build(indices, depth=0)
        if self.ccp_alpha > 0.0:
            self.tree_ = prune_to_alpha(
                self.tree_, self.ccp_alpha, float(features.n_rows)
            )
        del self._features, self._y

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def _build(self, indices: np.ndarray, depth: int) -> TreeNode:
        counts = np.bincount(self._y[indices], minlength=self._n_classes).astype(
            np.float64
        )
        if (
            len(indices) < self.min_samples_split
            or (counts > 0).sum() <= 1
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return Leaf(counts)
        if not self._tick("cart-grow", nodes=1):
            return Leaf(counts)

        best = self._best_split(indices)
        if best is None:
            return Leaf(counts)
        left_idx, right_idx = best["left"], best["right"]
        if best["kind"] == "numeric":
            return NumericSplit(
                self._features.attribute(best["attribute"]),
                best["threshold"],
                self._build(left_idx, depth + 1),
                self._build(right_idx, depth + 1),
                counts,
            )
        return BinaryCategoricalSplit(
            self._features.attribute(best["attribute"]),
            best["left_codes"],
            self._build(left_idx, depth + 1),
            self._build(right_idx, depth + 1),
            counts,
        )

    def _best_split(self, indices: np.ndarray):
        best = None
        best_decrease = self.min_impurity_decrease
        for attr in self._features.attributes:
            if attr.is_numeric:
                split = self._numeric_split(attr, indices)
            else:
                split = self._categorical_split(attr, indices)
            if split is not None and split["decrease"] > best_decrease + 1e-12:
                best_decrease = split["decrease"]
                best = split
        return best

    def _numeric_split(self, attr, indices):
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
        scan = class_scan(v, y, self._n_classes, self.criterion,
                          min_leaf=self.min_samples_leaf)
        decrease = (len(y) / len(indices)) * (
            self._impurity(scan.total) - scan.child
        )
        i = first_max(decrease, scan.valid, floor=-1.0)
        if i is None:
            return None
        # Partitioning is by boundary index, so growth cannot degenerate;
        # the safe threshold keeps *prediction* consistent with the
        # training partition when the midpoint rounds up to the higher
        # value.
        boundary = scan.bounds[i]
        left_idx, right_idx = route_missing(
            known_sorted[: boundary + 1],
            known_sorted[boundary + 1:],
            indices[~known_mask],
        )
        return {
            "kind": "numeric",
            "attribute": attr.name,
            "threshold": safe_threshold(v[boundary], v[boundary + 1]),
            "decrease": decrease[i],
            "left": left_idx,
            "right": right_idx,
        }

    def _categorical_split(self, attr, indices):
        codes = self._features.column(attr.name)[indices]
        known_mask = codes >= 0
        known = indices[known_mask]
        if len(known) < 2 * self.min_samples_leaf:
            return None
        observed = np.unique(codes[known_mask])
        if observed.size < 2:
            return None
        code_counts = np.array([
            np.bincount(
                self._y[indices[known_mask & (codes == code)]],
                minlength=self._n_classes,
            )
            for code in observed
        ], dtype=np.float64)
        candidates, child, valid = partition_scan(
            observed, code_counts, self.criterion, self.min_samples_leaf,
            self.max_exhaustive_categories,
        )
        total = np.sum(code_counts, axis=0)
        decrease = (total.sum() / len(indices)) * (
            self._impurity(total) - child
        )
        i = first_max(decrease, valid, floor=-1.0)
        if i is None:
            return None
        best = frozenset(candidates[i])
        in_left = np.isin(codes, list(best)) & known_mask
        left_idx, right_idx = route_missing(
            indices[in_left],
            indices[known_mask & ~in_left],
            indices[~known_mask],
        )
        return {
            "kind": "categorical",
            "attribute": attr.name,
            "left_codes": best,
            "decrease": decrease[i],
            "left": left_idx,
            "right": right_idx,
        }

    # ------------------------------------------------------------------
    # Prediction and introspection
    # ------------------------------------------------------------------
    def _predict_codes(self, features: Table) -> np.ndarray:
        return predict_distributions(self.tree_, features).argmax(axis=1)

    def _predict_proba(self, features: Table) -> np.ndarray:
        return predict_distributions(self.tree_, features)

    def n_nodes(self) -> int:
        """Total node count of the fitted tree."""
        return self.tree_.n_nodes()

    def n_leaves(self) -> int:
        """Leaf count of the fitted tree."""
        return self.tree_.n_leaves()

    def depth(self) -> int:
        """Depth (number of splits on the longest path)."""
        return self.tree_.depth()


__all__ = ["CART"]
