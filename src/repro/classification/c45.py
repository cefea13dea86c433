"""C4.5 decision-tree induction (Quinlan, 1993).

Improvements over ID3, all implemented here:

* **gain ratio** instead of raw information gain (counters the bias
  toward high-arity attributes);
* **continuous attributes** via binary threshold splits, with candidate
  thresholds at class-boundary midpoints;
* **missing values** — training rows with an unknown split value are sent
  down *every* branch with fractionally reduced weight, and the gain of a
  split is scaled by the fraction of known values; prediction blends the
  branches by training mass (probabilistic descent);
* **pessimistic error pruning** (see :mod:`repro.classification.pruning`)
  applied bottom-up after growth when ``prune=True``.
"""

from __future__ import annotations

import warnings
from typing import List, Optional

import numpy as np

from ..core.base import Classifier, check_in_range
from ..core.exceptions import ConvergenceWarning, ValidationError
from ..core.table import Attribute, Table
from ..runtime import BudgetExceeded
from ..runtime.context import ExecutionContext
from .criteria import entropy, gain_ratio, information_gain, split_information
from .pruning import pessimistic_prune
from .tree_model import (
    CategoricalSplit,
    Leaf,
    NumericSplit,
    TreeNode,
    predict_distributions,
    safe_threshold,
)

#: hard recursion ceiling applied even with ``max_depth=None`` — a tree
#: deeper than this is pathological, and Python's own recursion limit is
#: only a little further down.
_MAX_SAFE_DEPTH = 512


class C45(Classifier):
    """C4.5 classifier over mixed categorical/numeric attributes.

    Parameters
    ----------
    max_depth:
        Maximum split depth (``None`` = unlimited).
    min_samples_split:
        Minimum weighted row mass a node needs to attempt a split.
    min_gain:
        A split must achieve at least this information gain to be kept.
    prune:
        Apply pessimistic error pruning after growth.
    confidence:
        Confidence level for the pessimistic error estimate (Quinlan's
        default 0.25).
    ctx:
        Optional :class:`~repro.runtime.ExecutionContext`.  Its budget is
        charged one node unit per attempted split and checked at every
        node.  On exhaustion the grower stops splitting, finalizes the
        remaining frontier as leaves, and sets ``truncated_ = True`` —
        the tree is complete and usable, just shallower than an
        unbudgeted fit.

    Examples
    --------
    >>> from repro.datasets import play_tennis
    >>> model = C45(prune=False).fit(play_tennis(), "play")
    >>> model.score(play_tennis())
    1.0
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: float = 2.0,
        min_gain: float = 1e-6,
        prune: bool = True,
        confidence: float = 0.25,
        ctx: Optional[ExecutionContext] = None,
    ):
        if max_depth is not None and max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {max_depth}")
        check_in_range("min_samples_split", min_samples_split, 1.0, None)
        check_in_range("confidence", confidence, 0.0, 0.5, low_inclusive=False)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_gain = min_gain
        self.prune = prune
        self.confidence = confidence
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
        self.truncated_ = False
        self.truncation_reason_ = None
        indices = np.arange(features.n_rows)
        weights = np.ones(features.n_rows, dtype=np.float64)
        available = list(features.attribute_names)
        self.tree_ = self._build(indices, weights, available, depth=0)
        if self.prune:
            self.tree_ = pessimistic_prune(self.tree_, self.confidence)
        del self._features, self._y

    # ------------------------------------------------------------------
    # Recursive growth
    # ------------------------------------------------------------------
    def _counts(self, indices: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return np.bincount(
            self._y[indices], weights=weights, minlength=self._n_classes
        ).astype(np.float64)

    def _build(
        self,
        indices: np.ndarray,
        weights: np.ndarray,
        available: List[str],
        depth: int,
    ) -> TreeNode:
        counts = self._counts(indices, weights)
        total = counts.sum()
        if (
            total < self.min_samples_split
            or (counts > 1e-9).sum() <= 1
            or not available
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return Leaf(counts)
        if depth >= _MAX_SAFE_DEPTH:
            warnings.warn(
                f"C45 stopped splitting at safety depth {_MAX_SAFE_DEPTH}",
                ConvergenceWarning,
                stacklevel=2,
            )
            return Leaf(counts)
        if self.budget is not None:
            try:
                self.budget.charge_nodes(phase="c45-grow")
                self.budget.check(phase="c45-grow")
            except BudgetExceeded as exc:
                # Graceful degradation: this subtree (and, since the
                # budget stays exhausted, every remaining frontier node)
                # finalizes as a leaf.
                self.truncated_ = True
                self.truncation_reason_ = f"{type(exc).__name__}: {exc}"
                return Leaf(counts)

        best = self._best_split(indices, weights, available, counts)
        if best is None:
            return Leaf(counts)

        if best["kind"] == "categorical":
            name = best["attribute"]
            codes = self._features.column(name)[indices]
            known = codes >= 0
            known_mass = weights[known].sum()
            remaining = [a for a in available if a != name]
            children = {}
            for code in np.unique(codes[known]):
                member = codes == code
                branch_mass = weights[member].sum()
                child_idx = np.concatenate(
                    [indices[member], indices[~known]]
                )
                child_w = np.concatenate(
                    [
                        weights[member],
                        weights[~known] * (branch_mass / known_mass),
                    ]
                )
                children[int(code)] = self._build(
                    child_idx, child_w, remaining, depth + 1
                )
            return CategoricalSplit(
                self._features.attribute(name), children, counts
            )

        # Numeric split: attribute stays available deeper down the path.
        name = best["attribute"]
        threshold = best["threshold"]
        values = self._features.column(name)[indices]
        known = ~np.isnan(values)
        known_mass = weights[known].sum()
        left = known & (values <= threshold)
        right = known & (values > threshold)
        left_mass = weights[left].sum()
        right_mass = weights[right].sum()
        if left_mass <= 0 or right_mass <= 0:
            # A threshold that fails to separate the known values would
            # recreate this node verbatim in one child — stop here.
            return Leaf(counts)
        left_idx = np.concatenate([indices[left], indices[~known]])
        left_w = np.concatenate(
            [weights[left], weights[~known] * (left_mass / known_mass)]
        )
        right_idx = np.concatenate([indices[right], indices[~known]])
        right_w = np.concatenate(
            [weights[right], weights[~known] * (right_mass / known_mass)]
        )
        return NumericSplit(
            self._features.attribute(name),
            threshold,
            self._build(left_idx, left_w, available, depth + 1),
            self._build(right_idx, right_w, available, depth + 1),
            counts,
        )

    # ------------------------------------------------------------------
    # Split search
    # ------------------------------------------------------------------
    def _best_split(self, indices, weights, available, parent_counts):
        """Best attribute by gain ratio, among splits clearing min_gain.

        Quinlan's refinement — only consider attributes whose raw gain is
        at least the average positive gain — is applied to blunt the gain
        ratio's own bias toward unbalanced splits.
        """
        candidates = []
        for name in available:
            attr = self._features.attribute(name)
            if attr.is_categorical:
                split = self._eval_categorical(name, indices, weights, parent_counts)
            else:
                split = self._eval_numeric(name, indices, weights, parent_counts)
            if split is not None and split["gain"] >= self.min_gain:
                candidates.append(split)
        if not candidates:
            return None
        avg_gain = sum(c["gain"] for c in candidates) / len(candidates)
        eligible = [c for c in candidates if c["gain"] >= avg_gain - 1e-12]
        return max(eligible, key=lambda c: c["ratio"])

    def _eval_categorical(self, name, indices, weights, parent_counts):
        codes = self._features.column(name)[indices]
        known = codes >= 0
        if not known.any():
            return None
        known_fraction = weights[known].sum() / weights.sum()
        branch_counts = []
        for code in np.unique(codes[known]):
            member = known & (codes == code)
            branch_counts.append(
                np.bincount(
                    self._y[indices[member]],
                    weights=weights[member],
                    minlength=self._n_classes,
                )
            )
        if len(branch_counts) < 2:
            return None
        known_counts = np.sum(branch_counts, axis=0)
        gain = known_fraction * information_gain(known_counts, branch_counts)
        info = split_information(branch_counts)
        if info <= 0:
            return None
        return {
            "kind": "categorical",
            "attribute": name,
            "gain": gain,
            "ratio": gain / info,
        }

    def _eval_numeric(self, name, indices, weights, parent_counts):
        values = self._features.column(name)[indices]
        known = ~np.isnan(values)
        if not known.any():
            return None
        v = values[known]
        w = weights[known]
        y = self._y[indices[known]]
        order = np.argsort(v, kind="mergesort")
        v, w, y = v[order], w[order], y[order]
        known_fraction = w.sum() / weights.sum()
        distinct_boundary = np.nonzero(np.diff(v) > 0)[0]
        if distinct_boundary.size == 0:
            return None
        # Cumulative weighted class counts -> O(n) evaluation of every
        # candidate threshold (midpoints between distinct values).
        one_hot = np.zeros((len(y), self._n_classes))
        one_hot[np.arange(len(y)), y] = 1.0
        weighted = one_hot * w[:, None]
        prefix = np.cumsum(weighted, axis=0)
        total_counts = prefix[-1]
        parent_entropy = entropy(total_counts)
        total_mass = total_counts.sum()

        best_gain = -1.0
        best_threshold = None
        best_ratio = 0.0
        for boundary in distinct_boundary:
            left_counts = prefix[boundary]
            right_counts = total_counts - left_counts
            lm, rm = left_counts.sum(), right_counts.sum()
            if lm <= 0 or rm <= 0:
                continue
            child_entropy = (
                lm / total_mass * entropy(left_counts)
                + rm / total_mass * entropy(right_counts)
            )
            gain = parent_entropy - child_entropy
            if gain > best_gain:
                best_gain = gain
                best_threshold = safe_threshold(v[boundary], v[boundary + 1])
                info = split_information([left_counts, right_counts])
                best_ratio = gain / info if info > 0 else 0.0
        if best_threshold is None:
            return None
        return {
            "kind": "numeric",
            "attribute": name,
            "threshold": best_threshold,
            "gain": known_fraction * best_gain,
            "ratio": known_fraction * best_ratio,
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


__all__ = ["C45"]
