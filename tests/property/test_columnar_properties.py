"""Properties of the columnar backends: identity, budgets, cache hygiene.

Three contracts the shared columnar data plane promises:

* every vectorized backend is **byte-identical** to its scalar twin —
  same supports, same model, same bytes — for any input, at any
  ``n_jobs``;
* a budget exhausted mid-kernel degrades exactly like the scalar path
  (same truncation point, same partial result);
* memoized encodings are keyed on dataset identity and can never leak
  between two distinct dataset objects, even with equal content.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.associations import apriori, dhp, partition_miner
from repro.classification import SLIQ
from repro.clustering import KMeans
from repro.core import SequenceDatabase, TransactionDatabase
from repro.core.columnar import sequence_bitmap, transaction_bitmap
from repro.datasets import agrawal, gaussian_blobs, quest_basket
from repro.runtime import Budget, ExecutionContext
from repro.sequences import gsp

transactions = st.lists(
    st.lists(st.integers(0, 9), min_size=0, max_size=6),
    min_size=1,
    max_size=25,
)
sequences = st.lists(
    st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=3),
        min_size=1,
        max_size=5,
    ),
    min_size=1,
    max_size=15,
)
supports = st.sampled_from([0.1, 0.25, 0.5])

JOBS = [1, 2, 4]


def _mine_fingerprint(result) -> bytes:
    return pickle.dumps(
        (sorted(result.supports.items()), result.truncated)
    )


# ----------------------------------------------------------------------
# Vectorized == scalar, for arbitrary inputs
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(transactions, supports)
def test_apriori_bitmap_identical_for_any_input(txns, min_support):
    db = TransactionDatabase(txns)
    scalar = apriori(db, min_support)
    vector = apriori(db, min_support, backend="bitmap")
    assert _mine_fingerprint(vector) == _mine_fingerprint(scalar)


@settings(max_examples=30, deadline=None)
@given(transactions, supports)
def test_partition_bitset_identical_for_any_input(txns, min_support):
    db = TransactionDatabase(txns)
    scalar = partition_miner(db, min_support, n_partitions=2)
    vector = partition_miner(db, min_support, n_partitions=2,
                             backend="bitset")
    assert _mine_fingerprint(vector) == _mine_fingerprint(scalar)


@settings(max_examples=30, deadline=None)
@given(transactions, supports)
def test_dhp_bitmap_identical_for_any_input(txns, min_support):
    db = TransactionDatabase(txns)
    scalar = dhp(db, min_support)
    vector = dhp(db, min_support, backend="bitmap")
    assert _mine_fingerprint(vector) == _mine_fingerprint(scalar)


@settings(max_examples=20, deadline=None)
@given(sequences, supports)
def test_gsp_bitmap_identical_for_any_input(seqs, min_support):
    sdb = SequenceDatabase(seqs)
    scalar = gsp(sdb, min_support)
    vector = gsp(sdb, min_support, backend="bitmap")
    assert _mine_fingerprint(vector) == _mine_fingerprint(scalar)


# ----------------------------------------------------------------------
# Vectorized == scalar, across n_jobs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def basket():
    return quest_basket(200, random_state=17)


@pytest.mark.parametrize("n_jobs", JOBS)
def test_partition_bitset_identical_across_jobs(basket, n_jobs):
    scalar = partition_miner(basket, 0.05, n_partitions=4)
    vector = partition_miner(basket, 0.05, n_partitions=4,
                             backend="bitset", n_jobs=n_jobs)
    assert _mine_fingerprint(vector) == _mine_fingerprint(scalar)


@pytest.mark.parametrize("n_jobs", JOBS)
def test_gsp_bitmap_identical_across_jobs(medium_seq_db, n_jobs):
    scalar = gsp(medium_seq_db, 0.05)
    vector = gsp(medium_seq_db, 0.05, backend="bitmap", n_jobs=n_jobs)
    assert _mine_fingerprint(vector) == _mine_fingerprint(scalar)


@pytest.mark.parametrize("n_jobs", JOBS)
def test_kmeans_elkan_identical_across_jobs(n_jobs):
    X, _ = gaussian_blobs(400, centers=5, n_features=4, cluster_std=1.5,
                          random_state=23)
    full = KMeans(5, n_init=4, random_state=1).fit(X)
    elkan = KMeans(5, n_init=4, random_state=1, backend="elkan",
                   n_jobs=n_jobs).fit(X)
    assert elkan.labels_.tobytes() == full.labels_.tobytes()
    assert elkan.cluster_centers_.tobytes() == \
        full.cluster_centers_.tobytes()
    assert elkan.inertia_ == full.inertia_
    assert elkan.n_iter_ == full.n_iter_


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("function", [1, 2, 5])
def test_sliq_columnar_identical_trees(function, seed):
    table = agrawal(400, function=function, noise=0.05, random_state=seed)
    scan = SLIQ(max_depth=6).fit(table, "group")
    columnar = SLIQ(max_depth=6, backend="columnar").fit(table, "group")
    assert pickle.dumps(columnar.tree_) == pickle.dumps(scan.tree_)
    assert tuple(columnar.predict(table)) == tuple(scan.predict(table))


# ----------------------------------------------------------------------
# Budget exhaustion mid-kernel degrades identically
# ----------------------------------------------------------------------
@pytest.mark.parametrize("limit", [5, 40])
def test_partition_truncates_at_same_point(basket, limit):
    def run(backend):
        ctx = ExecutionContext(budget=Budget(max_candidates=limit))
        return partition_miner(basket, 0.05, n_partitions=3, ctx=ctx,
                               on_exhausted="truncate", backend=backend)

    assert _mine_fingerprint(run("bitset")) == \
        _mine_fingerprint(run("tidset"))


@pytest.mark.parametrize("limit", [10, 60])
def test_gsp_truncates_at_same_point(medium_seq_db, limit):
    def run(backend):
        ctx = ExecutionContext(budget=Budget(max_candidates=limit))
        return gsp(medium_seq_db, 0.05, ctx=ctx, on_exhausted="truncate",
                   backend=backend)

    assert _mine_fingerprint(run("bitmap")) == _mine_fingerprint(run("scan"))


# ----------------------------------------------------------------------
# Cache hygiene: encodings never shared across distinct datasets
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(transactions)
def test_transaction_encodings_never_shared(txns):
    a, b = TransactionDatabase(txns), TransactionDatabase(txns)
    ea, eb = transaction_bitmap(a), transaction_bitmap(b)
    assert ea is not eb
    assert transaction_bitmap(a) is ea
    assert transaction_bitmap(b) is eb


@settings(max_examples=15, deadline=None)
@given(sequences)
def test_sequence_encodings_never_shared(seqs):
    a, b = SequenceDatabase(seqs), SequenceDatabase(seqs)
    assert sequence_bitmap(a) is not sequence_bitmap(b)
    assert sequence_bitmap(a).packed.tobytes() == \
        sequence_bitmap(b).packed.tobytes()
