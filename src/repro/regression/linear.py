"""Ordinary least squares — the classical prediction baseline.

Every tree-based predictor needs a linear yardstick; this one fits
closed-form (normal equations via lstsq), handles categorical columns by
one-hot expansion, and exposes coefficients for inspection.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.exceptions import NotFittedError, ValidationError
from ..core.table import Table
from ..preprocessing.encode import one_hot_matrix


class LinearRegression:
    """OLS over a :class:`Table` (numeric target).

    Attributes
    ----------
    coefficients_:
        Learned weights, aligned with ``feature_names_``.
    intercept_:
        The bias term.

    Examples
    --------
    >>> from repro.core import Table, numeric
    >>> rows = [(float(x), 3.0 * x + 1.0) for x in range(20)]
    >>> table = Table.from_rows(rows, [numeric("x"), numeric("y")])
    >>> model = LinearRegression().fit(table, "y")
    >>> round(model.coefficients_[0], 6)
    3.0
    >>> round(model.intercept_, 6)
    1.0
    """

    coefficients_: Optional[np.ndarray] = None
    intercept_: Optional[float] = None
    feature_names_: Optional[List[str]] = None

    def fit(self, table: Table, target: str) -> "LinearRegression":
        """Least-squares fit on ``table`` with numeric column ``target``."""
        attr = table.attribute(target)
        if not attr.is_numeric:
            raise ValidationError(f"target {target!r} must be numeric")
        y = table.column(target)
        if np.isnan(y).any():
            raise ValidationError(f"target {target!r} contains missing values")
        X, names = one_hot_matrix(table, exclude=(target,))
        design = np.column_stack([X, np.ones(len(X))])
        solution, *_ = np.linalg.lstsq(design, y, rcond=None)
        self.coefficients_ = solution[:-1]
        self.intercept_ = float(solution[-1])
        self.feature_names_ = names
        self._target_name = target
        return self

    def predict(self, table: Table) -> np.ndarray:
        """Predicted target per row."""
        if self.coefficients_ is None:
            raise NotFittedError(self)
        exclude = (
            (self._target_name,)
            if self._target_name in table.attribute_names
            else ()
        )
        X, names = one_hot_matrix(table, exclude=exclude)
        if names != self.feature_names_:
            raise ValidationError(
                "prediction table schema differs from the fitted schema"
            )
        return X @ self.coefficients_ + self.intercept_

    def score(self, table: Table, target: Optional[str] = None) -> float:
        """R^2 on ``table``."""
        from .metrics import r_squared

        target = target or self._target_name
        return r_squared(table.column(target), self.predict(table))


__all__ = ["LinearRegression"]
