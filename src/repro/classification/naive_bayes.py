"""Naive Bayes over mixed attribute types.

Assuming conditional independence of attributes given the class, the
posterior factorises into per-attribute likelihoods:

* categorical attributes use Laplace-smoothed frequency estimates;
* numeric attributes use a per-class Gaussian (the "Gaussian naive
  Bayes" of the classic literature).

Missing values are simply skipped in both training statistics and
prediction — the factorised form makes that exact marginalisation.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from ..core.base import Classifier, check_in_range
from ..core.table import Attribute, Table

_LOG_2PI = math.log(2.0 * math.pi)


class NaiveBayes(Classifier):
    """Naive Bayes classifier for tables with numeric and/or categorical
    attributes.

    Parameters
    ----------
    laplace:
        Additive smoothing for categorical likelihoods (> 0 guards the
        zero-frequency problem).
    var_floor:
        Minimum per-class variance used for numeric attributes, as a
        fraction of the attribute's global variance; prevents degenerate
        spikes when a class shows a constant value.

    Examples
    --------
    >>> from repro.datasets import play_tennis
    >>> model = NaiveBayes().fit(play_tennis(), "play")
    >>> model.predict(play_tennis())[0] in ("yes", "no")
    True
    """

    def __init__(self, laplace: float = 1.0, var_floor: float = 1e-9,
                 ctx=None):
        check_in_range("laplace", laplace, 0.0, None, low_inclusive=False)
        check_in_range("var_floor", var_floor, 0.0, None, low_inclusive=False)
        self.laplace = laplace
        self.var_floor = var_floor
        self.ctx = ctx
        self.class_log_prior_: Optional[np.ndarray] = None

    def _fit(self, features: Table, y: np.ndarray, target: Attribute) -> None:
        n_classes = len(target.values)
        class_counts = np.bincount(y, minlength=n_classes).astype(np.float64)
        self.class_log_prior_ = np.log(
            (class_counts + self.laplace)
            / (class_counts.sum() + self.laplace * n_classes)
        )
        self._n_classes = n_classes
        self._categorical_log_likelihood: Dict[str, np.ndarray] = {}
        self._gaussian_params: Dict[str, tuple] = {}
        self._attributes = features.attributes

        for attr in features.attributes:
            col = features.column(attr.name)
            if attr.is_categorical:
                n_values = len(attr.values)
                counts = np.zeros((n_classes, n_values))
                known = col >= 0
                np.add.at(counts, (y[known], col[known]), 1.0)
                smoothed = counts + self.laplace
                self._categorical_log_likelihood[attr.name] = np.log(
                    smoothed / smoothed.sum(axis=1, keepdims=True)
                )
            else:
                known = ~np.isnan(col)
                global_var = float(np.var(col[known])) if known.any() else 1.0
                floor = max(self.var_floor * max(global_var, 1e-12), 1e-12)
                means = np.zeros(n_classes)
                variances = np.full(n_classes, max(global_var, floor))
                for c in range(n_classes):
                    member = known & (y == c)
                    if member.sum() >= 1:
                        means[c] = float(col[member].mean())
                    if member.sum() >= 2:
                        variances[c] = max(float(col[member].var()), floor)
                self._gaussian_params[attr.name] = (means, variances)

    def _joint_log_likelihood(self, features: Table) -> np.ndarray:
        n = features.n_rows
        jll = np.tile(self.class_log_prior_, (n, 1))
        for attr in self._attributes:
            if attr.name not in features.attribute_names:
                continue  # attribute absent at predict time: marginalised
            col = features.column(attr.name)
            if attr.is_categorical:
                table = self._categorical_log_likelihood[attr.name]
                known = col >= 0
                jll[known] += table[:, col[known]].T
            else:
                means, variances = self._gaussian_params[attr.name]
                known = ~np.isnan(col)
                x = col[known, None]
                log_pdf = -0.5 * (
                    _LOG_2PI
                    + np.log(variances)[None, :]
                    + (x - means[None, :]) ** 2 / variances[None, :]
                )
                jll[known] += log_pdf
        return jll

    def _predict_codes(self, features: Table) -> np.ndarray:
        return self._joint_log_likelihood(features).argmax(axis=1)

    def _predict_proba(self, features: Table) -> np.ndarray:
        jll = self._joint_log_likelihood(features)
        jll -= jll.max(axis=1, keepdims=True)
        proba = np.exp(jll)
        proba /= proba.sum(axis=1, keepdims=True)
        return proba


__all__ = ["NaiveBayes"]
