"""Shared fixtures for the job-server tests: on-disk datasets, small
ones and a few whose fit or pass outlasts a lease or a cancel."""

import numpy as np
import pytest

from repro.core.table import Table, numeric
from repro.datasets import (
    agrawal,
    gaussian_blobs,
    quest_basket,
    save_table,
    save_transactions,
)


@pytest.fixture(scope="session")
def basket_path(tmp_path_factory):
    """A small FIMI transaction file for mine jobs."""
    path = tmp_path_factory.mktemp("server-data") / "basket.dat"
    save_transactions(quest_basket(150, random_state=0), str(path))
    return str(path)


@pytest.fixture(scope="session")
def agrawal_path(tmp_path_factory):
    """A small typed CSV with a categorical target for classify jobs."""
    path = tmp_path_factory.mktemp("server-data") / "agrawal.csv"
    save_table(agrawal(200, function=1, random_state=0), str(path))
    return str(path)


@pytest.fixture(scope="session")
def blobs_path(tmp_path_factory):
    """A small numeric CSV for cluster jobs."""
    path = tmp_path_factory.mktemp("server-data") / "blobs.csv"
    X, _y = gaussian_blobs(120, centers=3, random_state=0)
    table = Table(
        [numeric("x"), numeric("y")],
        {"x": X[:, 0], "y": X[:, 1]},
    )
    save_table(table, str(path))
    return str(path)


def _save_points(path, X):
    save_table(Table([numeric("x"), numeric("y")],
                     {"x": X[:, 0], "y": X[:, 1]}), str(path))
    return str(path)


@pytest.fixture(scope="session")
def long_kmeans_path(tmp_path_factory):
    """100,000 uniform points: a kmeans fit (``k=4``) of a few seconds."""
    X = np.random.default_rng(0).uniform(0.0, 100.0, size=(100_000, 2))
    return _save_points(tmp_path_factory.mktemp("server-data") / "uniform.csv",
                        X)


@pytest.fixture(scope="session")
def agglomerative_path(tmp_path_factory):
    """800 points: an agglomerative fit of about a second."""
    X, _y = gaussian_blobs(800, centers=3, random_state=0)
    return _save_points(tmp_path_factory.mktemp("server-data") / "agglo.csv",
                        X)


@pytest.fixture(scope="session")
def long_agglomerative_path(tmp_path_factory):
    """1,500 points: an agglomerative fit of several seconds."""
    X, _y = gaussian_blobs(1500, centers=3, random_state=0)
    return _save_points(tmp_path_factory.mktemp("server-data") / "agglo.csv",
                        X)


@pytest.fixture(scope="session")
def long_basket_path(tmp_path_factory):
    """6,000 transactions whose apriori pass 2 (support 0.05) counts for
    more than a second."""
    path = tmp_path_factory.mktemp("server-data") / "long-basket.dat"
    save_transactions(quest_basket(6000, 10, 4, random_state=0), str(path))
    return str(path)
