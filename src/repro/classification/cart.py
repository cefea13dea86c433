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

from itertools import combinations
from typing import List, Optional

import numpy as np

from ..core.base import Classifier, check_in_range
from ..core.exceptions import ValidationError
from ..core.table import Attribute, Table
from ..runtime import BudgetExceeded
from ..runtime.context import ExecutionContext
from .criteria import entropy, gini
from .pruning import prune_to_alpha
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
        if self.budget is not None:
            try:
                self.budget.charge_nodes(phase="cart-grow")
                self.budget.check(phase="cart-grow")
            except BudgetExceeded as exc:
                self.truncated_ = True
                self.truncation_reason_ = f"{type(exc).__name__}: {exc}"
                return Leaf(counts)

        best = self._best_split(indices, counts)
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

    def _best_split(self, indices: np.ndarray, counts: np.ndarray):
        parent_impurity = self._impurity(counts)
        n_node = len(indices)
        best = None
        best_decrease = self.min_impurity_decrease
        for attr in self._features.attributes:
            if attr.is_numeric:
                split = self._numeric_split(attr, indices, parent_impurity)
            else:
                split = self._categorical_split(attr, indices, parent_impurity)
            if split is not None and split["decrease"] > best_decrease + 1e-12:
                best_decrease = split["decrease"]
                best = split
        return best

    def _numeric_split(self, attr, indices, parent_impurity):
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
        boundaries = np.nonzero(np.diff(v) > 0)[0]
        if boundaries.size == 0:
            return None
        one_hot = np.zeros((len(y), self._n_classes))
        one_hot[np.arange(len(y)), y] = 1.0
        prefix = np.cumsum(one_hot, axis=0)
        total = prefix[-1]
        n_known = len(y)

        best_decrease = -1.0
        best_boundary = None
        for b in boundaries:
            nl = b + 1
            nr = n_known - nl
            if nl < self.min_samples_leaf or nr < self.min_samples_leaf:
                continue
            left_counts = prefix[b]
            right_counts = total - left_counts
            child = (
                nl / n_known * self._impurity(left_counts)
                + nr / n_known * self._impurity(right_counts)
            )
            decrease = (n_known / len(indices)) * (
                self._impurity(total) - child
            )
            if decrease > best_decrease:
                best_decrease = decrease
                best_boundary = b
        if best_boundary is None:
            return None
        # Partitioning is by boundary index, so growth cannot degenerate;
        # the safe threshold keeps *prediction* consistent with the
        # training partition when the midpoint rounds up to the higher
        # value.
        threshold = safe_threshold(v[best_boundary], v[best_boundary + 1])
        left_idx = known_sorted[: best_boundary + 1]
        right_idx = known_sorted[best_boundary + 1:]
        # Missing values follow the heavier branch.
        missing = indices[~known_mask]
        if missing.size:
            if left_idx.size >= right_idx.size:
                left_idx = np.concatenate([left_idx, missing])
            else:
                right_idx = np.concatenate([right_idx, missing])
        return {
            "kind": "numeric",
            "attribute": attr.name,
            "threshold": threshold,
            "decrease": best_decrease,
            "left": left_idx,
            "right": right_idx,
        }

    def _categorical_split(self, attr, indices, parent_impurity):
        codes = self._features.column(attr.name)[indices]
        known_mask = codes >= 0
        known = indices[known_mask]
        if len(known) < 2 * self.min_samples_leaf:
            return None
        observed = np.unique(codes[known_mask])
        if observed.size < 2:
            return None
        per_code_counts = {
            int(code): np.bincount(
                self._y[indices[known_mask & (codes == code)]],
                minlength=self._n_classes,
            ).astype(np.float64)
            for code in observed
        }
        candidates = self._subset_candidates(observed, per_code_counts)
        total = np.sum(list(per_code_counts.values()), axis=0)
        n_known = total.sum()

        best = None
        best_decrease = -1.0
        for left_codes in candidates:
            left_counts = np.sum(
                [per_code_counts[c] for c in left_codes], axis=0
            )
            right_counts = total - left_counts
            nl, nr = left_counts.sum(), right_counts.sum()
            if nl < self.min_samples_leaf or nr < self.min_samples_leaf:
                continue
            child = (
                nl / n_known * self._impurity(left_counts)
                + nr / n_known * self._impurity(right_counts)
            )
            decrease = (n_known / len(indices)) * (
                self._impurity(total) - child
            )
            if decrease > best_decrease:
                best_decrease = decrease
                best = frozenset(left_codes)
        if best is None:
            return None
        in_left = np.isin(codes, list(best)) & known_mask
        left_idx = indices[in_left]
        right_idx = indices[known_mask & ~in_left]
        missing = indices[~known_mask]
        if missing.size:
            if left_idx.size >= right_idx.size:
                left_idx = np.concatenate([left_idx, missing])
            else:
                right_idx = np.concatenate([right_idx, missing])
        return {
            "kind": "categorical",
            "attribute": attr.name,
            "left_codes": best,
            "decrease": best_decrease,
            "left": left_idx,
            "right": right_idx,
        }

    def _subset_candidates(self, observed, per_code_counts) -> List[tuple]:
        """Binary-partition candidates over the observed category codes."""
        observed = [int(c) for c in observed]
        if len(observed) <= self.max_exhaustive_categories:
            out = []
            for size in range(1, len(observed) // 2 + 1):
                for subset in combinations(observed, size):
                    # Avoid enumerating complements twice when the subset
                    # is exactly half the categories.
                    if (
                        2 * size == len(observed)
                        and observed[0] not in subset
                    ):
                        continue
                    out.append(subset)
            return out
        # Breiman ordering: sort categories by the proportion of the
        # globally most frequent class and scan linear prefixes (exact
        # for two-class problems, a strong heuristic otherwise).
        totals = np.sum(list(per_code_counts.values()), axis=0)
        pivot_class = int(np.argmax(totals))
        ordered = sorted(
            observed,
            key=lambda c: (
                per_code_counts[c][pivot_class] / max(per_code_counts[c].sum(), 1e-12)
            ),
        )
        return [tuple(ordered[: i + 1]) for i in range(len(ordered) - 1)]

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
