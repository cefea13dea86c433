"""Estimator base classes and shared parameter validation.

The library follows a small fit/predict protocol:

* :class:`Classifier` subclasses learn from a :class:`~repro.core.table.Table`
  plus the name of a categorical target attribute, and predict decoded
  class labels for new tables.
* :class:`Clusterer` subclasses learn from a dense float matrix and expose
  integer cluster assignments through ``labels_`` (noise, where the
  algorithm has the concept, is label ``-1``).

Attributes learned during ``fit`` carry a trailing underscore, and calling
a dependent method before ``fit`` raises
:class:`~repro.core.exceptions.NotFittedError`.
"""

from __future__ import annotations

from typing import Hashable, List, Optional

import numpy as np

from .exceptions import (
    EmptyInputError,
    NotFittedError,
    ReproError,
    ValidationError,
)
from .table import Attribute, Table


def check_fitted(estimator: object, attribute: str) -> None:
    """Raise :class:`NotFittedError` unless ``estimator.attribute`` exists."""
    if getattr(estimator, attribute, None) is None:
        raise NotFittedError(estimator)


def check_nonempty(name: str, n_records: int, what: str = "records") -> None:
    """Raise :class:`EmptyInputError` when ``n_records`` is zero.

    Every public mine/fit entry point calls this on the user-supplied
    dataset so degenerate inputs fail fast with the offending size in
    the message instead of surfacing as an ``IndexError`` or
    ``ZeroDivisionError`` from the middle of a pass.
    """
    if n_records == 0:
        raise EmptyInputError(f"{name} is empty (0 {what})")


def check_in_range(
    name: str,
    value: float,
    low: Optional[float] = None,
    high: Optional[float] = None,
    low_inclusive: bool = True,
    high_inclusive: bool = True,
) -> None:
    """Validate a scalar hyper-parameter against an interval."""
    if low is not None:
        ok = value >= low if low_inclusive else value > low
        if not ok:
            op = ">=" if low_inclusive else ">"
            raise ValidationError(f"{name} must be {op} {low}, got {value}")
    if high is not None:
        ok = value <= high if high_inclusive else value < high
        if not ok:
            op = "<=" if high_inclusive else "<"
            raise ValidationError(f"{name} must be {op} {high}, got {value}")


def check_matrix(X, name: str = "X", allow_empty: bool = False) -> np.ndarray:
    """Coerce input into a 2-D float64 matrix with finite values."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {X.shape}")
    if not allow_empty and X.shape[0] == 0:
        raise ValidationError(f"{name} must contain at least one row")
    if not np.isfinite(X).all():
        raise ValidationError(f"{name} contains NaN or infinite values")
    return X


class ContextAware:
    """Mixin: estimators that thread an ExecutionContext through fit.

    Constructors take ``ctx=`` and assign it to ``self.ctx``, which
    defaults ``None`` to a null context.  The read-only ``budget`` /
    ``checkpoint`` properties expose the context's slots; to swap one
    (say, installing a per-attempt checkpointer before a supervised
    fit), assign through ``self.ctx``.  A fit's loops call
    :meth:`_tick` once per unit of work, so every fit is budgeted,
    cancellable and beats its progress hook through one seam.

    Imports from :mod:`repro.runtime` are deferred to call time because
    the runtime package itself imports this module.
    """

    @property
    def ctx(self):
        ctx = getattr(self, "_ctx", None)
        if ctx is None:
            from ..runtime.context import ExecutionContext

            ctx = self._ctx = ExecutionContext()
        return ctx

    @ctx.setter
    def ctx(self, value) -> None:
        if value is None:
            from ..runtime.context import ExecutionContext

            value = ExecutionContext()
        self._ctx = value

    @property
    def budget(self):
        return self.ctx.budget

    @property
    def checkpoint(self):
        return self.ctx.checkpointer

    def _tick(self, phase: str, **units: int) -> bool:
        """One unit of fit work through ``ctx.tick``; True while the
        budget lasts.

        On exhaustion it records ``truncated_`` and
        ``truncation_reason_`` and returns False, and the fit keeps
        what it has built (a frontier of leaves, the best clustering so
        far).  Cancellation still raises.
        """
        try:
            self.ctx.tick(phase, **units)
        except ReproError as exc:
            from ..runtime.budget import BudgetExceeded

            if not isinstance(exc, BudgetExceeded):
                raise
            self.truncated_ = True
            self.truncation_reason_ = f"{type(exc).__name__}: {exc}"
            return False
        return True


class Classifier(ContextAware):
    """Base class for supervised classifiers over :class:`Table` data."""

    #: set during fit: the target Attribute (categorical)
    target_: Optional[Attribute] = None

    def fit(self, table: Table, target: str) -> "Classifier":
        """Learn from ``table`` using the categorical column ``target``.

        Returns ``self`` to allow chaining.  Subclasses implement
        :meth:`_fit`, receiving the feature table (target column dropped),
        the integer code vector of the target and the target attribute.
        """
        attr = table.attribute(target)
        if not attr.is_categorical:
            raise ValidationError(f"target {target!r} must be categorical")
        check_nonempty("table", table.n_rows, "rows")
        self.ctx.raise_if_cancelled()
        y = table.class_codes(target)
        features = table.drop([target])
        self.target_ = attr
        self._fit(features, y, attr)
        return self

    def _fit(self, features: Table, y: np.ndarray, target: Attribute) -> None:
        raise NotImplementedError

    def predict(self, table: Table) -> List[Hashable]:
        """Predict decoded class labels for each row of ``table``.

        ``table`` may or may not include the target column; if present it
        is ignored.
        """
        check_fitted(self, "target_")
        features = table
        if self.target_.name in table.attribute_names:
            features = table.drop([self.target_.name])
        codes = self._predict_codes(features)
        return [self.target_.values[int(c)] for c in codes]

    def predict_proba(self, table: Table) -> np.ndarray:
        """Class-probability matrix, rows aligned with ``table``.

        Columns follow ``self.target_.values`` order.  Subclasses that can
        do better override :meth:`_predict_proba`; the default is a
        one-hot encoding of :meth:`predict`.
        """
        check_fitted(self, "target_")
        features = table
        if self.target_.name in table.attribute_names:
            features = table.drop([self.target_.name])
        return self._predict_proba(features)

    def _predict_codes(self, features: Table) -> np.ndarray:
        raise NotImplementedError

    def _predict_proba(self, features: Table) -> np.ndarray:
        codes = self._predict_codes(features)
        proba = np.zeros((len(codes), len(self.target_.values)))
        proba[np.arange(len(codes)), codes] = 1.0
        return proba

    def score(self, table: Table, target: Optional[str] = None) -> float:
        """Mean accuracy on ``table`` (target column must be present)."""
        check_fitted(self, "target_")
        target = target or self.target_.name
        truth = table.class_codes(target)
        features = table.drop([target])
        predictions = self._predict_codes(features)
        return float(np.mean(predictions == truth))


class Clusterer(ContextAware):
    """Base class for clusterers over dense float matrices."""

    #: set during fit: integer cluster id per row (-1 = noise)
    labels_: Optional[np.ndarray] = None

    def fit(self, X) -> "Clusterer":
        """Cluster the rows of ``X``; returns ``self``."""
        X = check_matrix(X)
        self.ctx.raise_if_cancelled()
        self._fit(X)
        return self

    def _fit(self, X: np.ndarray) -> None:
        raise NotImplementedError

    def fit_predict(self, X) -> np.ndarray:
        """Cluster ``X`` and return the assignment vector."""
        self.fit(X)
        return self.labels_


__all__ = [
    "Classifier",
    "Clusterer",
    "ContextAware",
    "check_fitted",
    "check_in_range",
    "check_matrix",
    "check_nonempty",
]
