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
after the first.  ``backend="columnar"`` additionally vectorizes the
per-level attribute scans (cumulative class histograms instead of
per-row Python bookkeeping) while feeding the exact same split
arithmetic, so the grown tree is byte-identical.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.base import Classifier, check_in_range
from ..core.columnar import presorted_columns
from ..core.exceptions import ValidationError
from ..core.table import Attribute, Table
from ..runtime import BudgetExceeded
from ..runtime.context import ExecutionContext
from .criteria import gini
from .pruning import pessimistic_prune
from .tree_model import (
    BinaryCategoricalSplit,
    Leaf,
    NumericSplit,
    TreeNode,
    predict_distributions,
    safe_threshold,
)

#: attribute-scan backends accepted by :class:`SLIQ`
SCAN_BACKENDS = ("scan", "columnar")


class _Growing:
    """Bookkeeping for one still-growing leaf during breadth-first growth."""

    __slots__ = (
        "counts",
        "n_rows",
        "best_decrease",
        "best_split",
        "below",
        "last_value",
    )

    def __init__(self, counts: np.ndarray, n_rows: int):
        self.counts = counts
        self.n_rows = n_rows
        self.best_decrease = 0.0
        self.best_split: Optional[dict] = None
        # scratch used during a numeric-attribute scan
        self.below: Optional[np.ndarray] = None
        self.last_value: Optional[float] = None


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
        backend: str = "scan",
    ):
        if max_depth is not None and max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {max_depth}")
        if backend not in SCAN_BACKENDS:
            raise ValidationError(
                f"backend must be one of {SCAN_BACKENDS}, got {backend!r}"
            )
        self.backend = backend
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
            if self.budget is not None:
                try:
                    self.budget.check(phase=f"sliq-level-{depth}")
                    # Applying this level materialises up to two children
                    # per splitter; charge before the work happens.
                    self.budget.charge_nodes(
                        2 * len(growing), phase=f"sliq-level-{depth}"
                    )
                except BudgetExceeded as exc:
                    # The tail below finalizes every still-growing leaf.
                    self.truncated_ = True
                    self.truncation_reason_ = f"{type(exc).__name__}: {exc}"
                    break
            for g in growing.values():
                g.best_decrease = self.min_gini_decrease
                g.best_split = None
            if self.backend == "columnar":
                self._scan_numeric_columnar(
                    features, y, leaf_of, growing, presorted, n_classes
                )
                self._scan_categorical_columnar(
                    features, y, leaf_of, growing, n_classes
                )
            else:
                self._scan_numeric(
                    features, y, leaf_of, growing, presorted, n_classes
                )
                self._scan_categorical(features, y, leaf_of, growing, n_classes)

            splitters = {
                leaf_id: g for leaf_id, g in growing.items() if g.best_split
            }
            if not splitters:
                break
            new_growing: Dict[int, _Growing] = {}
            for leaf_id, g in splitters.items():
                split = g.best_split
                left_id, right_id = next_leaf_id, next_leaf_id + 1
                next_leaf_id += 2
                member = leaf_of == leaf_id
                if split["kind"] == "numeric":
                    values = features.column(split["attribute"])
                    goes_left = member & (values <= split["threshold"])
                else:
                    codes = features.column(split["attribute"])
                    goes_left = member & np.isin(
                        codes, list(split["left_codes"])
                    )
                leaf_of[member & goes_left] = left_id
                leaf_of[member & ~goes_left] = right_id
                split_record[leaf_id] = {
                    **split,
                    "left_id": left_id,
                    "right_id": right_id,
                    "counts": g.counts,
                }
                for child_id in (left_id, right_id):
                    child_member = leaf_of == child_id
                    counts = np.bincount(
                        y[child_member], minlength=n_classes
                    ).astype(np.float64)
                    child = _Growing(counts, int(child_member.sum()))
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
    def _scan_numeric(self, features, y, leaf_of, growing, presorted, n_classes):
        for attr in features.attributes:
            if not attr.is_numeric:
                continue
            order = presorted[attr.name]
            values = features.column(attr.name)
            for g in growing.values():
                g.below = np.zeros(n_classes)
                g.last_value = None
            for row in order:
                leaf_id = leaf_of[row]
                g = growing.get(int(leaf_id))
                if g is None:
                    continue
                v = values[row]
                if g.last_value is not None and v > g.last_value:
                    self._consider_numeric(
                        g, attr.name, safe_threshold(g.last_value, float(v))
                    )
                g.below[y[row]] += 1.0
                g.last_value = v

    def _consider_numeric(self, g: _Growing, name: str, threshold: float):
        left = g.below
        right = g.counts - left
        nl, nr = left.sum(), right.sum()
        if nl < self.min_samples_leaf or nr < self.min_samples_leaf:
            return
        total = nl + nr
        child = nl / total * gini(left) + nr / total * gini(right)
        decrease = gini(g.counts) - child
        if decrease > g.best_decrease + 1e-12:
            g.best_decrease = decrease
            g.best_split = {
                "kind": "numeric",
                "attribute": name,
                "threshold": threshold,
            }

    def _scan_numeric_columnar(
        self, features, y, leaf_of, growing, presorted, n_classes
    ):
        """Vectorized numeric scan off the presorted columns.

        For each (attribute, leaf) pair the leaf's rows are extracted in
        presorted order, the running class histogram becomes one
        ``cumsum`` over a one-hot matrix, and the Gini decrease of every
        *boundary between distinct values* — exactly the split points
        the scalar scan considers — is evaluated in one batch with the
        same elementwise arithmetic as :meth:`_consider_numeric`.  The
        scalar scan's sequential ``decrease > best + 1e-12`` fold is
        replayed over the batch in boundary order (each record-setter
        found with one vectorized comparison), so the chosen splits are
        byte-identical.  All class counts are integer-valued floats, so
        ``cumsum`` totals, ``n_left = boundary index`` and ``n_right =
        leaf size - boundary index`` are exact and match the scalar
        accumulations bit for bit.
        """
        for attr in features.attributes:
            if not attr.is_numeric:
                continue
            order = presorted[attr.name]
            values = features.column(attr.name)
            leaf_sorted = leaf_of[order]
            for leaf_id, g in growing.items():
                rows = order[leaf_sorted == leaf_id]
                if rows.size < 2:
                    continue
                vals = values[rows]
                boundaries = np.flatnonzero(vals[1:] > vals[:-1]) + 1
                if boundaries.size == 0:
                    continue
                onehot = np.zeros((rows.size, n_classes))
                onehot[np.arange(rows.size), y[rows]] = 1.0
                cum = np.cumsum(onehot, axis=0)
                left = cum[boundaries - 1]
                right = g.counts - left
                nl = boundaries.astype(np.float64)
                nr = float(rows.size) - nl
                pl = left / nl[:, None]
                pr = right / nr[:, None]
                total = nl + nr
                child = (
                    nl / total * (1.0 - (pl * pl).sum(axis=1))
                    + nr / total * (1.0 - (pr * pr).sum(axis=1))
                )
                decrease = gini(g.counts) - child
                valid = (nl >= self.min_samples_leaf) & (
                    nr >= self.min_samples_leaf
                )
                decrease[~valid] = -np.inf
                pos = 0
                while pos < decrease.size:
                    ahead = np.flatnonzero(
                        decrease[pos:] > g.best_decrease + 1e-12
                    )
                    if ahead.size == 0:
                        break
                    i = pos + int(ahead[0])
                    idx = int(boundaries[i])
                    g.best_decrease = float(decrease[i])
                    g.best_split = {
                        "kind": "numeric",
                        "attribute": attr.name,
                        "threshold": safe_threshold(
                            vals[idx - 1], float(vals[idx])
                        ),
                    }
                    pos = i + 1

    def _scan_categorical_columnar(self, features, y, leaf_of, growing,
                                   n_classes):
        """Vectorized categorical scan: per-leaf histograms by bincount.

        The (code, class) histogram of each growing leaf is one
        ``bincount`` over a fused index instead of a per-row Python
        loop; the partition search itself (:meth:`_best_partition`) is
        shared with the scalar scan, so split choices are identical.
        """
        for attr in features.attributes:
            if not attr.is_categorical:
                continue
            codes = features.column(attr.name)
            n_codes = len(attr.values)
            for leaf_id, g in growing.items():
                member = leaf_of == leaf_id
                flat = np.bincount(
                    codes[member] * n_classes + y[member],
                    minlength=n_codes * n_classes,
                ).reshape(n_codes, n_classes).astype(np.float64)
                present = np.flatnonzero(flat.sum(axis=1) > 0)
                if present.size < 2:
                    continue
                code_counts = {int(code): flat[code] for code in present}
                best = self._best_partition(code_counts, g.counts)
                if best is None:
                    continue
                decrease, left_codes = best
                if decrease > g.best_decrease + 1e-12:
                    g.best_decrease = decrease
                    g.best_split = {
                        "kind": "categorical",
                        "attribute": attr.name,
                        "left_codes": left_codes,
                    }

    def _scan_categorical(self, features, y, leaf_of, growing, n_classes):
        for attr in features.attributes:
            if not attr.is_categorical:
                continue
            codes = features.column(attr.name)
            # One pass builds each growing leaf's per-category histogram.
            hist: Dict[Tuple[int, int], np.ndarray] = {}
            for row in range(len(codes)):
                leaf_id = int(leaf_of[row])
                if leaf_id not in growing:
                    continue
                key = (leaf_id, int(codes[row]))
                if key not in hist:
                    hist[key] = np.zeros(n_classes)
                hist[key][y[row]] += 1.0
            per_leaf: Dict[int, Dict[int, np.ndarray]] = {}
            for (leaf_id, code), counts in hist.items():
                per_leaf.setdefault(leaf_id, {})[code] = counts
            for leaf_id, code_counts in per_leaf.items():
                if len(code_counts) < 2:
                    continue
                g = growing[leaf_id]
                best = self._best_partition(code_counts, g.counts)
                if best is None:
                    continue
                decrease, left_codes = best
                if decrease > g.best_decrease + 1e-12:
                    g.best_decrease = decrease
                    g.best_split = {
                        "kind": "categorical",
                        "attribute": attr.name,
                        "left_codes": left_codes,
                    }

    def _best_partition(self, code_counts, parent_counts):
        """Best binary category partition by Gini decrease.

        Exhaustive for small arities, greedy class-proportion ordering
        beyond ``max_exhaustive_categories`` (mirrors CART).
        """
        codes = sorted(code_counts)
        total = parent_counts
        n_total = total.sum()
        parent_gini = gini(total)

        def evaluate(subset) -> Optional[float]:
            left = np.sum([code_counts[c] for c in subset], axis=0)
            right = total - left
            nl, nr = left.sum(), right.sum()
            if nl < self.min_samples_leaf or nr < self.min_samples_leaf:
                return None
            child = nl / n_total * gini(left) + nr / n_total * gini(right)
            return parent_gini - child

        candidates: List[tuple]
        if len(codes) <= self.max_exhaustive_categories:
            candidates = [
                subset
                for size in range(1, len(codes) // 2 + 1)
                for subset in combinations(codes, size)
                if not (2 * size == len(codes) and codes[0] not in subset)
            ]
        else:
            pivot = int(np.argmax(total))
            ordered = sorted(
                codes,
                key=lambda c: code_counts[c][pivot] / max(code_counts[c].sum(), 1e-12),
            )
            candidates = [tuple(ordered[: i + 1]) for i in range(len(ordered) - 1)]

        best = None
        for subset in candidates:
            decrease = evaluate(subset)
            if decrease is not None and (best is None or decrease > best[0]):
                best = (decrease, frozenset(subset))
        return best

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
