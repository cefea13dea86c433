"""Predict-before-fit must raise NotFittedError across every estimator.

A uniform guard matters for the runtime layer: budget-truncated fits
still produce *fitted* models, so ``NotFittedError`` must mean exactly
"fit was never called", never "fit was cut short".
"""

import numpy as np
import pytest

from repro.classification import (
    C45,
    CART,
    ID3,
    KNN,
    PRISM,
    SLIQ,
    AdaBoostM1,
    Bagging,
    C45Rules,
    NaiveBayes,
    OneR,
    ZeroR,
)
from repro.clustering import KMeans
from repro.core.exceptions import NotFittedError
from repro.regression import LinearRegression, RegressionTree

CLASSIFIER_FACTORIES = {
    "id3": lambda: ID3(),
    "c45": lambda: C45(),
    "cart": lambda: CART(),
    "sliq": lambda: SLIQ(),
    "nb": lambda: NaiveBayes(),
    "knn": lambda: KNN(),
    "prism": lambda: PRISM(),
    "c45_rules": lambda: C45Rules(),
    "bagging": lambda: Bagging(lambda: C45(prune=False)),
    "adaboost": lambda: AdaBoostM1(lambda: C45(max_depth=1, prune=False)),
    "zeror": lambda: ZeroR(),
    "oner": lambda: OneR(),
}


@pytest.mark.parametrize("name", sorted(CLASSIFIER_FACTORIES))
def test_classifier_predict_before_fit(name, tennis):
    model = CLASSIFIER_FACTORIES[name]()
    with pytest.raises(NotFittedError):
        model.predict(tennis)


@pytest.mark.parametrize("name", sorted(CLASSIFIER_FACTORIES))
def test_classifier_score_before_fit(name, tennis):
    model = CLASSIFIER_FACTORIES[name]()
    with pytest.raises(NotFittedError):
        model.score(tennis)


def test_kmeans_predict_before_fit():
    X = np.zeros((4, 2))
    with pytest.raises(NotFittedError):
        KMeans(2).predict(X)
    with pytest.raises(NotFittedError):
        KMeans(2).transform(X)


@pytest.mark.parametrize(
    "factory", [RegressionTree, LinearRegression], ids=["tree", "linear"]
)
def test_regressor_predict_before_fit(factory, weather):
    with pytest.raises(NotFittedError):
        factory().predict(weather)


def test_truncated_fit_is_still_fitted(f2_train):
    """A budget-truncated tree is fitted — NotFittedError must not fire."""
    from repro.runtime import Budget, ExecutionContext

    model = C45(
        prune=False, ctx=ExecutionContext(budget=Budget(max_nodes=1))
    )
    model.fit(f2_train, "group")
    assert model.truncated_
    assert len(model.predict(f2_train)) == f2_train.n_rows
