"""Discretization of numeric attributes.

Three classic schemes:

* :class:`EqualWidth` — fixed-width bins over the observed range;
* :class:`EqualFrequency` — quantile bins;
* :class:`MDLP` — Fayyad & Irani's supervised entropy method (1993):
  recursive binary splits accepted only when the information gain clears
  the minimum-description-length criterion.

All share the fit/transform protocol over 1-D float arrays (NaN passes
through as code ``-1``), and :func:`discretize_table` lifts any of them
to whole tables, which is how ID3 consumes numeric data (bench E12).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.base import check_in_range
from ..core.exceptions import NotFittedError, ValidationError
from ..core.table import Table, categorical
from ..classification.criteria import entropy
from ..classification.splits import class_scan, first_max


class _Discretizer:
    """Shared cut-point machinery; subclasses provide fit logic."""

    cut_points_: Optional[np.ndarray] = None

    def fit(self, values, y=None) -> "_Discretizer":
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValidationError("discretizers expect 1-D value arrays")
        known = values[~np.isnan(values)]
        if known.size == 0:
            raise ValidationError("cannot fit a discretizer on all-missing data")
        self.cut_points_ = self._fit(known, y, values)
        return self

    def _fit(self, known, y, values) -> np.ndarray:
        raise NotImplementedError

    def transform(self, values) -> np.ndarray:
        """Bin codes (0..n_bins-1), with -1 for missing input."""
        if self.cut_points_ is None:
            raise NotFittedError(self)
        values = np.asarray(values, dtype=np.float64)
        codes = np.full(values.shape, -1, dtype=np.int64)
        known = ~np.isnan(values)
        codes[known] = np.searchsorted(
            self.cut_points_, values[known], side="right"
        )
        return codes

    def fit_transform(self, values, y=None) -> np.ndarray:
        return self.fit(values, y).transform(values)

    @property
    def n_bins_(self) -> int:
        if self.cut_points_ is None:
            raise NotFittedError(self)
        return len(self.cut_points_) + 1


class EqualWidth(_Discretizer):
    """Equal-width binning.

    >>> EqualWidth(4).fit_transform([0.0, 0.9, 2.0, 3.1, 4.0]).tolist()
    [0, 0, 2, 3, 3]
    """

    def __init__(self, n_bins: int = 10):
        check_in_range("n_bins", n_bins, 2, None)
        self.n_bins = int(n_bins)

    def _fit(self, known, y, values) -> np.ndarray:
        low, high = float(known.min()), float(known.max())
        if high <= low:
            return np.array([])
        return np.linspace(low, high, self.n_bins + 1)[1:-1]


class EqualFrequency(_Discretizer):
    """Quantile binning.

    Cut points fall at midpoints between adjacent distinct data values
    at the quantile boundaries, so every produced bin is non-empty on
    the fitted data (ties collapse bins instead of leaving gaps).

    >>> EqualFrequency(2).fit_transform([1.0, 2.0, 3.0, 4.0]).tolist()
    [0, 0, 1, 1]
    """

    def __init__(self, n_bins: int = 10):
        check_in_range("n_bins", n_bins, 2, None)
        self.n_bins = int(n_bins)

    def _fit(self, known, y, values) -> np.ndarray:
        ordered = np.sort(known)
        n = len(ordered)
        cuts = []
        for k in range(1, self.n_bins):
            j = round(k * n / self.n_bins)
            # Slide past a tie run so the boundary separates distinct
            # values (heavy ties otherwise swallow the cut entirely).
            while 0 < j < n and ordered[j - 1] == ordered[j]:
                j += 1
            if 0 < j < n:
                cuts.append((ordered[j - 1] + ordered[j]) / 2.0)
        return np.unique(cuts)


class MDLP(_Discretizer):
    """Fayyad–Irani supervised discretization.

    Recursively bisects at the class-entropy-minimising boundary; a
    split is accepted only when its information gain exceeds the MDL
    threshold ``(log2(n-1) + log2(3^c - 2) - c*E + c1*E1 + c2*E2) / n``.
    Needs class labels at fit time.

    >>> values = [1., 2., 3., 10., 11., 12.]
    >>> y = [0, 0, 0, 1, 1, 1]
    >>> MDLP().fit(values, y).n_bins_
    2
    """

    def __init__(self, min_samples: int = 2):
        check_in_range("min_samples", min_samples, 1, None)
        self.min_samples = int(min_samples)

    def fit(self, values, y=None) -> "MDLP":
        if y is None:
            raise ValidationError("MDLP is supervised; pass class labels y")
        return super().fit(values, y)

    def _fit(self, known, y, values) -> np.ndarray:
        y = np.asarray(y)
        mask = ~np.isnan(np.asarray(values, dtype=np.float64))
        labels = y[mask]
        order = np.argsort(known, kind="mergesort")
        v = known[order]
        lab = labels[order]
        cuts: list = []
        self._recurse(v, lab, cuts)
        return np.array(sorted(cuts))

    def _recurse(self, v: np.ndarray, lab: np.ndarray, cuts: list) -> None:
        n = len(v)
        if n < 2 * self.min_samples:
            return
        classes = np.unique(lab)
        if len(classes) < 2:
            return
        n_classes_total = int(lab.max()) + 1
        scan = class_scan(v, lab, n_classes_total, "entropy",
                          min_leaf=self.min_samples)
        parent_entropy = entropy(scan.total)
        gains = parent_entropy - scan.child
        i = first_max(gains, scan.valid)
        if i is None:
            return
        gain, b = gains[i], scan.bounds[i]
        left, right = scan.left[i], scan.right[i]
        k = len(classes)
        k1 = int((left > 0).sum())
        k2 = int((right > 0).sum())
        e = parent_entropy
        e1 = entropy(left)
        e2 = entropy(right)
        delta = np.log2(3**k - 2) - (k * e - k1 * e1 - k2 * e2)
        threshold = (np.log2(n - 1) + delta) / n
        if gain <= threshold:
            return
        cuts.append((v[b] + v[b + 1]) / 2.0)
        self._recurse(v[: b + 1], lab[: b + 1], cuts)
        self._recurse(v[b + 1:], lab[b + 1:], cuts)


def discretize_table(
    table: Table,
    method: str = "equal_width",
    n_bins: int = 10,
    target: Optional[str] = None,
) -> Table:
    """Convert every numeric attribute of ``table`` to categorical bins.

    Parameters
    ----------
    method:
        ``"equal_width"``, ``"equal_frequency"`` or ``"mdlp"`` (the
        latter requires ``target``).
    n_bins:
        Bin count for the unsupervised methods.
    target:
        Name of the categorical class column, needed by MDLP and never
        discretized itself.

    Returns
    -------
    Table
        Same rows; numeric attributes replaced by categorical
        ``("bin0", "bin1", ...)`` attributes.
    """
    makers = {
        "equal_width": lambda: EqualWidth(n_bins),
        "equal_frequency": lambda: EqualFrequency(n_bins),
        "mdlp": MDLP,
    }
    if method not in makers:
        raise ValidationError(
            f"method must be one of {sorted(makers)}, got {method!r}"
        )
    if method == "mdlp" and target is None:
        raise ValidationError("mdlp discretization requires a target column")
    y = table.class_codes(target) if target is not None else None

    out = table
    for attr in table.attributes:
        if not attr.is_numeric or attr.name == target:
            continue
        disc = makers[method]()
        codes = disc.fit_transform(table.column(attr.name), y)
        n_bins_found = max(disc.n_bins_, 1)
        new_attr = categorical(
            attr.name, [f"bin{i}" for i in range(n_bins_found)]
        )
        out = out.replace_column(attr.name, new_attr, codes)
    return out


__all__ = ["EqualWidth", "EqualFrequency", "MDLP", "discretize_table"]
