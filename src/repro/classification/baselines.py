"""Trivial baseline classifiers: ZeroR and OneR.

Every serious evaluation needs a floor.  ZeroR predicts the majority
class; OneR (Holte, 1993) picks the single attribute whose one-level
rules misclassify least — famously hard to beat on easy datasets, and a
sanity check on every accuracy table (E6, E13).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.base import Classifier, check_in_range
from ..core.table import Attribute, Table


class ZeroR(Classifier):
    """Majority-class predictor.

    Examples
    --------
    >>> from repro.datasets import play_tennis
    >>> ZeroR().fit(play_tennis(), "play").predict(play_tennis())[0]
    'yes'
    """

    def __init__(self, ctx=None):
        self.ctx = ctx

    def _fit(self, features: Table, y: np.ndarray, target: Attribute) -> None:
        counts = np.bincount(y, minlength=len(target.values))
        self._majority = int(np.argmax(counts))
        self._proba = counts / counts.sum()

    def _predict_codes(self, features: Table) -> np.ndarray:
        return np.full(features.n_rows, self._majority, dtype=np.int64)

    def _predict_proba(self, features: Table) -> np.ndarray:
        return np.tile(self._proba, (features.n_rows, 1))


class OneR(Classifier):
    """One-rule classifier: the best single-attribute rule set.

    Numeric attributes are discretised into ``n_bins`` equal-frequency
    intervals before rule construction (Holte's "small disjuncts" guard
    is approximated by the binning itself).  Each attribute value maps to
    its majority class; the attribute with the fewest training errors
    wins.

    Parameters
    ----------
    n_bins:
        Bins used for numeric attributes.
    """

    def __init__(self, n_bins: int = 6, ctx=None):
        check_in_range("n_bins", n_bins, 2, None)
        self.n_bins = int(n_bins)
        self.ctx = ctx
        self.rule_attribute_: Optional[str] = None

    def _fit(self, features: Table, y: np.ndarray, target: Attribute) -> None:
        n_classes = len(target.values)
        overall = np.bincount(y, minlength=n_classes)
        self._default = int(np.argmax(overall))
        best_errors = None
        for attr in features.attributes:
            codes, edges = self._codes_for(features, attr)
            known = codes >= 0
            if not known.any():
                continue
            n_values = codes[known].max() + 1
            table = np.zeros((n_values, n_classes))
            np.add.at(table, (codes[known], y[known]), 1.0)
            rule = table.argmax(axis=1)
            errors = int(table.sum() - table.max(axis=1).sum()) + int(
                (~known).sum()
            )
            if best_errors is None or errors < best_errors:
                best_errors = errors
                self.rule_attribute_ = attr.name
                self._rule = rule
                self._edges = edges
        if self.rule_attribute_ is None:
            self.rule_attribute_ = ""
            self._rule = np.array([self._default])
            self._edges = None

    def _codes_for(self, table: Table, attr: Attribute):
        col = table.column(attr.name)
        if attr.is_categorical:
            return col.astype(np.int64), None
        known = ~np.isnan(col)
        if not known.any():
            return np.full(len(col), -1, dtype=np.int64), np.array([])
        qs = np.linspace(0, 1, self.n_bins + 1)[1:-1]
        edges = np.unique(np.quantile(col[known], qs))
        codes = np.full(len(col), -1, dtype=np.int64)
        codes[known] = np.searchsorted(edges, col[known], side="right")
        return codes, edges

    def _apply_codes(self, table: Table) -> np.ndarray:
        if not self.rule_attribute_ or self.rule_attribute_ not in table.attribute_names:
            return np.full(table.n_rows, -1, dtype=np.int64)
        attr = table.attribute(self.rule_attribute_)
        col = table.column(self.rule_attribute_)
        if attr.is_categorical:
            return col.astype(np.int64)
        codes = np.full(table.n_rows, -1, dtype=np.int64)
        known = ~np.isnan(col)
        codes[known] = np.searchsorted(self._edges, col[known], side="right")
        return codes

    def _predict_codes(self, features: Table) -> np.ndarray:
        codes = self._apply_codes(features)
        out = np.full(features.n_rows, self._default, dtype=np.int64)
        valid = (codes >= 0) & (codes < len(self._rule))
        out[valid] = self._rule[codes[valid]]
        return out


__all__ = ["ZeroR", "OneR"]
