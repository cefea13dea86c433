"""Ensemble classifiers of the survey era: Bagging and AdaBoost.M1.

* **Bagging** (Breiman, 1994/96) — train each base classifier on a
  bootstrap resample and average the predicted class distributions.
  Variance reduction; helps unstable learners (deep trees) most.
* **AdaBoost.M1** (Freund & Schapire, 1995/97) — train base classifiers
  in sequence on reweighted data (implemented by weighted resampling,
  since the base protocol takes no instance weights), upweighting the
  rows the previous round misclassified; combine by
  ``log((1 - eps) / eps)`` weighted vote.  Bias reduction; the classic
  pairing is with shallow trees ("stumps").

Both wrap any zero-argument factory of :class:`~repro.core.base.Classifier`.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..core.base import Classifier, check_in_range
from ..core.random import RandomState, check_random_state, spawn
from ..core.table import Attribute, Table


class Bagging(Classifier):
    """Bootstrap-aggregated classifier.

    Parameters
    ----------
    make_base:
        Zero-argument factory for base classifiers
        (e.g. ``lambda: CART()``).
    n_estimators:
        Ensemble size.
    random_state:
        Seed or generator for the bootstrap draws.

    Examples
    --------
    >>> from repro.classification import CART
    >>> from repro.datasets import agrawal
    >>> table = agrawal(400, function=1, random_state=0)
    >>> model = Bagging(lambda: CART(max_depth=4), 5, random_state=0)
    >>> model.fit(table, "group").score(table) > 0.85
    True
    """

    def __init__(
        self,
        make_base: Callable[[], Classifier],
        n_estimators: int = 10,
        random_state: RandomState = None,
    ):
        check_in_range("n_estimators", n_estimators, 1, None)
        self.make_base = make_base
        self.n_estimators = int(n_estimators)
        self.random_state = random_state
        self.estimators_: Optional[List[Classifier]] = None

    def _fit(self, features: Table, y: np.ndarray, target: Attribute) -> None:
        rng = check_random_state(self.random_state)
        n = features.n_rows
        # Rebuild a labelled table once; bootstraps take row subsets.
        table = _with_target(features, y, target)
        self.estimators_ = []
        for child in spawn(rng, self.n_estimators):
            indices = child.integers(0, n, size=n)
            # A bootstrap can miss a class entirely; retry a few times
            # rather than training a degenerate base model.
            for _ in range(8):
                if len(np.unique(y[indices])) == len(np.unique(y)):
                    break
                indices = child.integers(0, n, size=n)
            sample = table.take(indices)
            self.estimators_.append(
                self.make_base().fit(sample, target.name)
            )

    def _predict_proba(self, features: Table) -> np.ndarray:
        total = np.zeros((features.n_rows, len(self.target_.values)))
        for estimator in self.estimators_:
            total += estimator.predict_proba(features)
        return total / len(self.estimators_)

    def _predict_codes(self, features: Table) -> np.ndarray:
        return self._predict_proba(features).argmax(axis=1)


class AdaBoostM1(Classifier):
    """AdaBoost.M1 with weighted-resampling base training.

    Parameters
    ----------
    make_base:
        Factory for the weak learner; shallow trees are the classic
        choice (``lambda: CART(max_depth=1)`` is a decision stump).
    n_estimators:
        Maximum boosting rounds (stops early if a round's weighted
        error hits 0 or exceeds 1/2, per the M1 algorithm).
    random_state:
        Seed or generator for the resampling draws.

    Attributes
    ----------
    estimators_, alphas_:
        The fitted round models and their vote weights.

    Examples
    --------
    >>> from repro.classification import CART
    >>> from repro.datasets import agrawal
    >>> table = agrawal(400, function=2, random_state=0)
    >>> stumps = AdaBoostM1(lambda: CART(max_depth=1), 10, random_state=0)
    >>> deep = CART(max_depth=1)
    >>> stumps.fit(table, "group").score(table) > deep.fit(table, "group").score(table)
    True
    """

    def __init__(
        self,
        make_base: Callable[[], Classifier],
        n_estimators: int = 20,
        random_state: RandomState = None,
    ):
        check_in_range("n_estimators", n_estimators, 1, None)
        self.make_base = make_base
        self.n_estimators = int(n_estimators)
        self.random_state = random_state
        self.estimators_: Optional[List[Classifier]] = None
        self.alphas_: Optional[List[float]] = None

    def _fit(self, features: Table, y: np.ndarray, target: Attribute) -> None:
        rng = check_random_state(self.random_state)
        n = features.n_rows
        table = _with_target(features, y, target)
        weights = np.full(n, 1.0 / n)
        self.estimators_ = []
        self.alphas_ = []
        for child in spawn(rng, self.n_estimators):
            indices = child.choice(n, size=n, p=weights)
            sample = table.take(indices)
            if len(np.unique(y[indices])) < 2:
                continue  # degenerate draw; try the next round
            model = self.make_base().fit(sample, target.name)
            predictions = np.asarray(
                [target.values.index(p) for p in model.predict(features)]
            )
            wrong = predictions != y
            error = float(weights[wrong].sum())
            if error >= 0.5:
                # Weak-learning assumption violated; M1 stops here (keep
                # whatever rounds we already have).
                break
            self.estimators_.append(model)
            if error <= 1e-12:
                self.alphas_.append(25.0)  # effectively a unanimous vote
                break
            beta = error / (1.0 - error)
            self.alphas_.append(float(np.log(1.0 / beta)))
            weights[~wrong] *= beta
            weights /= weights.sum()
        if not self.estimators_:
            # Every round failed the weak-learning test: fall back to a
            # single unweighted base model so predict still works.
            self.estimators_ = [self.make_base().fit(table, target.name)]
            self.alphas_ = [1.0]

    def _predict_codes(self, features: Table) -> np.ndarray:
        votes = np.zeros((features.n_rows, len(self.target_.values)))
        value_index = {v: i for i, v in enumerate(self.target_.values)}
        for alpha, estimator in zip(self.alphas_, self.estimators_):
            predictions = estimator.predict(features)
            for row, label in enumerate(predictions):
                votes[row, value_index[label]] += alpha
        return votes.argmax(axis=1)

    def _predict_proba(self, features: Table) -> np.ndarray:
        votes = np.zeros((features.n_rows, len(self.target_.values)))
        value_index = {v: i for i, v in enumerate(self.target_.values)}
        for alpha, estimator in zip(self.alphas_, self.estimators_):
            predictions = estimator.predict(features)
            for row, label in enumerate(predictions):
                votes[row, value_index[label]] += alpha
        totals = votes.sum(axis=1, keepdims=True)
        totals[totals == 0] = 1.0
        return votes / totals


def _with_target(features: Table, y: np.ndarray, target: Attribute) -> Table:
    """Reattach the target column to a feature table."""
    attributes = features.attributes + (target,)
    columns = {a.name: features.column(a.name) for a in features.attributes}
    columns[target.name] = y
    return Table(attributes, columns)


__all__ = ["Bagging", "AdaBoostM1"]
