"""SLIQ-style scalable decision tree (Mehta, Agrawal & Rissanen, EDBT 1996).

SLIQ's contribution is not a new split criterion (it uses Gini, like
CART) but a *scalable growth procedure*:

* every numeric attribute is **pre-sorted exactly once**; tree growth
  never re-sorts node subsets;
* the tree grows **breadth-first**: one scan of each attribute list per
  level evaluates the best split of *every* active leaf simultaneously,
  coordinated through a *class list* that maps each row to its current
  leaf.

The naive depth-first builder (our CART) re-sorts each node's rows at
each level — O(N log N) per node — so SLIQ's one-time sort wins on deep
trees over large data: that asymmetry is benchmark E7.

The pre-sorted attribute lists come from the shared columnar data plane
(:func:`repro.core.columnar.presorted_columns`): the argsort index per
numeric column is memoized on the table object, so repeated fits over
the same table (cross-validation restarts, ensembles) sort zero times
after the first.  A level's scan of an attribute groups the rows by
growing leaf with one stable sort, so each leaf's rows keep their
presorted order, and scores all of a leaf's boundaries in one batch
(:func:`repro.classification.splits.class_scan`); categorical
attributes get every leaf's histogram from one ``bincount`` and the
binary subset search CART uses.  The running ``> best + 1e-12`` record across
attributes and leaves is replayed over each batch, so the tree is the
one a row-at-a-time scan of the attribute lists grows.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.base import Classifier, check_in_range
from ..core.columnar import presorted_columns
from ..core.exceptions import ValidationError
from ..core.table import Attribute, Table
from ..runtime.context import ExecutionContext
from .criteria import gini
from .pruning import pessimistic_prune
from .splits import class_scan, first_max, partition_scan, running_best
from .tree_model import (
    BinaryCategoricalSplit,
    Leaf,
    NumericSplit,
    TreeNode,
    predict_distributions,
    safe_threshold,
)

class _Growing:
    """Bookkeeping for one still-growing leaf during breadth-first growth."""

    __slots__ = ("counts", "n_rows", "best_decrease", "best_split")

    def __init__(self, counts: np.ndarray, n_rows: int):
        self.counts = counts
        self.n_rows = n_rows
        self.best_decrease = 0.0
        self.best_split: Optional[dict] = None


class SLIQ(Classifier):
    """Breadth-first Gini tree with pre-sorted attribute lists.

    Parameters
    ----------
    max_depth, min_samples_split, min_samples_leaf:
        Growth limits, as in :class:`~repro.classification.cart.CART`.
    min_gini_decrease:
        A split must reduce node Gini by at least this to be applied.
    prune:
        Apply pessimistic pruning after growth (stand-in for SLIQ's MDL
        pruning — both collapse statistically unjustified subtrees; the
        substitution is recorded in DESIGN.md).
    ctx:
        Optional :class:`~repro.runtime.ExecutionContext`.  Its budget is
        checked once per level and charged two node units per applied
        split.  On exhaustion the still-growing frontier finalizes as
        leaves and ``truncated_`` is set — breadth-first growth makes
        the budgeted tree a balanced prefix of the full one.

    Notes
    -----
    Missing values are not supported (the original operates on complete
    attribute lists); validate/impute beforehand.

    Examples
    --------
    >>> from repro.datasets import play_tennis
    >>> SLIQ(prune=False).fit(play_tennis(), "play").score(play_tennis())
    1.0
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        min_gini_decrease: float = 1e-9,
        prune: bool = False,
        max_exhaustive_categories: int = 8,
        ctx: Optional[ExecutionContext] = None,
    ):
        if max_depth is not None and max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {max_depth}")
        check_in_range("min_samples_split", min_samples_split, 2, None)
        check_in_range("min_samples_leaf", min_samples_leaf, 1, None)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.min_gini_decrease = min_gini_decrease
        self.prune = prune
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
        for attr in features.attributes:
            col = features.column(attr.name)
            has_missing = (
                np.isnan(col).any() if attr.is_numeric else (col < 0).any()
            )
            if has_missing:
                raise ValidationError(
                    f"SLIQ does not handle missing values ({attr.name!r})"
                )
        n = features.n_rows
        n_classes = len(target.values)
        self.truncated_ = False
        self.truncation_reason_ = None

        # Pre-sort every numeric attribute once — the SLIQ invariant —
        # through the shared columnar plane: the argsort indices are
        # memoized on the table, so refits over the same table reuse
        # them outright.
        presorted: Dict[str, np.ndarray] = presorted_columns(features).order

        # Class list: row -> current leaf id; -1 marks finished subtrees.
        leaf_of = np.zeros(n, dtype=np.int64)
        root_counts = np.bincount(y, minlength=n_classes).astype(np.float64)
        growing: Dict[int, _Growing] = {0: _Growing(root_counts, n)}
        # Assembled tree: leaf id -> node, plus parent wiring fix-ups.
        split_record: Dict[int, dict] = {}
        next_leaf_id = 1
        depth = 0

        while growing and (self.max_depth is None or depth < self.max_depth):
            # Applying this level materialises up to two children per
            # splitter; charge before the work happens.  On exhaustion
            # the tail below finalizes every still-growing leaf.
            if not self._tick(f"sliq-level-{depth}", nodes=2 * len(growing)):
                break
            for g in growing.values():
                g.best_decrease = self.min_gini_decrease
                g.best_split = None
            # Slot k holds the rows of the k-th growing leaf, the last
            # slot those of finished leaves; a stable sort by slot keeps
            # each leaf's rows in the order they had, and numpy sorts
            # 8- and 16-bit keys by radix, in linear time.
            slot_of = np.full(next_leaf_id, len(growing),
                              dtype=np.min_scalar_type(len(growing)))
            slot_of[list(growing)] = np.arange(len(growing))
            slot = slot_of[leaf_of]
            bounds = np.concatenate(([0], np.cumsum(np.bincount(slot))))
            self._scan_numeric(
                features, y, slot, bounds, growing, presorted, n_classes
            )
            self._scan_categorical(features, y, slot, growing, n_classes)

            splitters = {
                leaf_id: g for leaf_id, g in growing.items() if g.best_split
            }
            if not splitters:
                break
            new_growing: Dict[int, _Growing] = {}
            by_slot = np.argsort(slot, kind="stable")
            for k, (leaf_id, g) in enumerate(growing.items()):
                if not g.best_split:
                    continue
                split = g.best_split
                left_id, right_id = next_leaf_id, next_leaf_id + 1
                next_leaf_id += 2
                rows = by_slot[bounds[k]:bounds[k + 1]]
                column = features.column(split["attribute"])[rows]
                if split["kind"] == "numeric":
                    goes_left = column <= split["threshold"]
                else:
                    goes_left = np.isin(column, list(split["left_codes"]))
                split_record[leaf_id] = {
                    **split,
                    "left_id": left_id,
                    "right_id": right_id,
                    "counts": g.counts,
                }
                for child_id, child_rows in ((left_id, rows[goes_left]),
                                             (right_id, rows[~goes_left])):
                    leaf_of[child_rows] = child_id
                    counts = np.bincount(
                        y[child_rows], minlength=n_classes
                    ).astype(np.float64)
                    child = _Growing(counts, int(child_rows.size))
                    if (
                        child.n_rows >= self.min_samples_split
                        and (counts > 0).sum() > 1
                    ):
                        new_growing[child_id] = child
                    else:
                        split_record[child_id] = {"kind": "leaf", "counts": counts}
            # Leaves that found no split this level are finished.
            for leaf_id, g in growing.items():
                if leaf_id not in splitters:
                    split_record[leaf_id] = {"kind": "leaf", "counts": g.counts}
            growing = new_growing
            depth += 1

        for leaf_id, g in growing.items():
            split_record[leaf_id] = {"kind": "leaf", "counts": g.counts}

        self.tree_ = self._assemble(0, split_record, features)
        if self.prune:
            self.tree_ = pessimistic_prune(self.tree_)

    # ------------------------------------------------------------------
    # Level-wide split evaluation
    # ------------------------------------------------------------------
    def _scan_numeric(self, features, y, slot, bounds, growing, presorted,
                      n_classes):
        """Score every boundary of every (numeric attribute, leaf) pair.

        One stable sort of the attribute's presorted order by slot hands
        every leaf its rows in presorted order (``bounds`` delimits the
        slots), and a leaf's boundaries are scored in one batch.  Class
        counts are whole numbers, so the cumulative counts are exact.
        """
        for attr in features.attributes:
            if not attr.is_numeric:
                continue
            order = presorted[attr.name]
            values = features.column(attr.name)
            grouped = order[np.argsort(slot[order], kind="stable")]
            for k, g in enumerate(growing.values()):
                rows = grouped[bounds[k]:bounds[k + 1]]
                if rows.size < 2:
                    continue
                vals = values[rows]
                scan = class_scan(vals, y[rows], n_classes, "gini",
                                  min_leaf=self.min_samples_leaf)
                decrease = gini(g.counts) - scan.child
                i, g.best_decrease = running_best(
                    decrease, scan.valid, g.best_decrease
                )
                if i is not None:
                    b = int(scan.bounds[i])
                    g.best_split = {
                        "kind": "numeric",
                        "attribute": attr.name,
                        "threshold": safe_threshold(
                            vals[b], float(vals[b + 1])
                        ),
                    }

    def _scan_categorical(self, features, y, slot, growing, n_classes):
        """Every leaf's (code, class) histogram from one ``bincount`` over
        (slot, code, class), then the binary subset search shared with
        CART."""
        n_slots = len(growing) + 1
        slot = slot.astype(np.intp)
        for attr in features.attributes:
            if not attr.is_categorical:
                continue
            codes = features.column(attr.name)
            n_codes = len(attr.values)
            histograms = np.bincount(
                (slot * n_codes + codes) * n_classes + y,
                minlength=n_slots * n_codes * n_classes,
            ).reshape(n_slots, n_codes, n_classes).astype(np.float64)
            for flat, g in zip(histograms, growing.values()):
                present = np.flatnonzero(flat.sum(axis=1) > 0)
                if present.size < 2:
                    continue
                candidates, child, valid = partition_scan(
                    present, flat[present], "gini", self.min_samples_leaf,
                    self.max_exhaustive_categories,
                )
                decrease = gini(g.counts) - child
                i = first_max(decrease, valid)
                if i is not None and decrease[i] > g.best_decrease + 1e-12:
                    g.best_decrease = decrease[i]
                    g.best_split = {
                        "kind": "categorical",
                        "attribute": attr.name,
                        "left_codes": frozenset(candidates[i]),
                    }

    # ------------------------------------------------------------------
    # Assembly, prediction, introspection
    # ------------------------------------------------------------------
    def _assemble(self, leaf_id: int, record: Dict[int, dict], features: Table) -> TreeNode:
        node = record[leaf_id]
        if node["kind"] == "leaf":
            return Leaf(node["counts"])
        left = self._assemble(node["left_id"], record, features)
        right = self._assemble(node["right_id"], record, features)
        attr = features.attribute(node["attribute"])
        if node["kind"] == "numeric":
            return NumericSplit(
                attr, node["threshold"], left, right, node["counts"]
            )
        return BinaryCategoricalSplit(
            attr, node["left_codes"], left, right, node["counts"]
        )

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


__all__ = ["SLIQ"]
