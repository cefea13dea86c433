"""k-nearest-neighbour classification.

A lazy learner: fit stores the training matrix, predict ranks Euclidean
(or Manhattan) distances.  Categorical attributes contribute a 0/1
mismatch term (the common heterogeneous-distance convention), so mixed
tables work without manual encoding.  Distances are computed blockwise
with numpy — no index structure, which is faithful to the classic
formulation and keeps memory bounded.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.base import Classifier, check_in_range
from ..core.exceptions import ValidationError
from ..core.table import Attribute, Table

_METRICS = ("euclidean", "manhattan")
_WEIGHTS = ("uniform", "distance")


class KNN(Classifier):
    """k-NN classifier over numeric + categorical tables.

    Parameters
    ----------
    n_neighbors:
        Number of neighbours consulted (the classic "K").
    metric:
        ``"euclidean"`` or ``"manhattan"`` for the numeric part;
        categorical attributes always add 1 per mismatch.
    weights:
        ``"uniform"`` majority vote or ``"distance"`` (inverse-distance)
        weighted vote.
    block_size:
        Rows of the query matrix processed per distance block.

    Notes
    -----
    Missing values are not supported; impute beforehand.  Numeric
    attributes should be on comparable scales (see
    :mod:`repro.preprocessing.scale`) or the largest-range attribute
    dominates — the standard caveat of Euclidean k-NN.

    Examples
    --------
    >>> from repro.datasets import iris
    >>> table = iris()
    >>> KNN(n_neighbors=5).fit(table, "species").score(table) > 0.9
    True
    """

    def __init__(
        self,
        n_neighbors: int = 5,
        metric: str = "euclidean",
        weights: str = "uniform",
        block_size: int = 1024,
        ctx=None,
    ):
        check_in_range("n_neighbors", n_neighbors, 1, None)
        if metric not in _METRICS:
            raise ValidationError(f"metric must be one of {_METRICS}, got {metric!r}")
        if weights not in _WEIGHTS:
            raise ValidationError(
                f"weights must be one of {_WEIGHTS}, got {weights!r}"
            )
        self.n_neighbors = int(n_neighbors)
        self.metric = metric
        self.weights = weights
        self.block_size = int(block_size)
        self.ctx = ctx
        self._train_numeric: Optional[np.ndarray] = None

    def _fit(self, features: Table, y: np.ndarray, target: Attribute) -> None:
        self._numeric_names = [
            a.name for a in features.attributes if a.is_numeric
        ]
        self._categorical_names = [
            a.name for a in features.attributes if a.is_categorical
        ]
        self._train_numeric = self._numeric_matrix(features)
        self._train_categorical = self._categorical_matrix(features)
        self._train_y = y.copy()
        self._n_classes = len(target.values)
        if self.n_neighbors > features.n_rows:
            raise ValidationError(
                f"n_neighbors={self.n_neighbors} exceeds the "
                f"{features.n_rows} training rows"
            )

    def _numeric_matrix(self, table: Table) -> np.ndarray:
        if not self._numeric_names:
            return np.empty((table.n_rows, 0))
        m = table.to_matrix(self._numeric_names)
        if np.isnan(m).any():
            raise ValidationError("KNN does not handle missing numeric values")
        return m

    def _categorical_matrix(self, table: Table) -> np.ndarray:
        if not self._categorical_names:
            return np.empty((table.n_rows, 0), dtype=np.int64)
        cols = [table.column(n) for n in self._categorical_names]
        m = np.column_stack(cols)
        if (m < 0).any():
            raise ValidationError("KNN does not handle missing categorical values")
        return m

    def _distances(self, q_num: np.ndarray, q_cat: np.ndarray) -> np.ndarray:
        t_num, t_cat = self._train_numeric, self._train_categorical
        if self.metric == "euclidean":
            d = np.sqrt(
                np.maximum(
                    (q_num**2).sum(axis=1)[:, None]
                    - 2.0 * q_num @ t_num.T
                    + (t_num**2).sum(axis=1)[None, :],
                    0.0,
                )
            )
        else:
            d = np.abs(q_num[:, None, :] - t_num[None, :, :]).sum(axis=2)
        if q_cat.shape[1]:
            d = d + (q_cat[:, None, :] != t_cat[None, :, :]).sum(axis=2)
        return d

    def _predict_proba(self, features: Table) -> np.ndarray:
        q_num = self._numeric_matrix(features)
        q_cat = self._categorical_matrix(features)
        n = features.n_rows
        proba = np.empty((n, self._n_classes))
        for start in range(0, n, self.block_size):
            stop = min(start + self.block_size, n)
            d = self._distances(q_num[start:stop], q_cat[start:stop])
            neighbour_idx = np.argpartition(d, self.n_neighbors - 1, axis=1)[
                :, : self.n_neighbors
            ]
            rows = np.arange(stop - start)[:, None]
            neighbour_d = d[rows, neighbour_idx]
            neighbour_y = self._train_y[neighbour_idx]
            if self.weights == "uniform":
                vote_w = np.ones_like(neighbour_d)
            else:
                vote_w = 1.0 / np.maximum(neighbour_d, 1e-12)
            block = np.zeros((stop - start, self._n_classes))
            for c in range(self._n_classes):
                block[:, c] = np.where(neighbour_y == c, vote_w, 0.0).sum(axis=1)
            block /= block.sum(axis=1, keepdims=True)
            proba[start:stop] = block
        return proba

    def _predict_codes(self, features: Table) -> np.ndarray:
        return self._predict_proba(features).argmax(axis=1)


__all__ = ["KNN"]
