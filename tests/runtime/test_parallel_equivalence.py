"""Parallel-equivalence sweep: ``n_jobs=k`` is byte-identical to serial.

The WorkerPool determinism contract — shard results merged in task
order, canonicalized candidate order, per-shard sub-budgets charged
back to the parent — means every parallel entry point must produce
output indistinguishable from the serial loop, down to pickle bytes.
This file sweeps ``n_jobs in {1, 2, 4}`` across every shard point
(partition, apriori with each counting backend, dhp, gsp, clara,
kmeans, crossval), then covers the pool mechanics: budget exhaustion
raised at the parent, cancellation fan-out mid-shard, crash
classification, and shard-bound geometry.
"""

import os
import pickle
import signal
import threading
import time

import pytest

from repro.associations import apriori, dhp, partition_miner
from repro.classification import C45, NaiveBayes
from repro.clustering import CLARA, KMeans
from repro.core.columnar import transaction_bitmap
from repro.core.exceptions import ValidationError
from repro.datasets import (
    agrawal,
    gaussian_blobs,
    quest_basket,
    quest_sequences,
)
from repro.evaluation import cross_val_score
from repro.runtime import (
    Budget,
    CancellationToken,
    ExecutionContext,
    OperationCancelled,
    SpaceBudgetExceeded,
    WorkerCrashed,
    WorkerPool,
    effective_n_jobs,
    resolve_n_jobs,
    shard_bounds,
)
from repro.sequences import gsp

JOBS = [1, 2, 4]


def _fingerprint(itemsets) -> bytes:
    return pickle.dumps(sorted(itemsets.supports.items()))


@pytest.fixture(scope="module")
def basket():
    return quest_basket(250, random_state=42)


# ----------------------------------------------------------------------
# Equivalence sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_jobs", JOBS)
def test_partition_equivalence(basket, n_jobs):
    serial = partition_miner(basket, 0.02, n_partitions=4)
    sharded = partition_miner(basket, 0.02, n_partitions=4, n_jobs=n_jobs)
    assert _fingerprint(sharded) == _fingerprint(serial)


@pytest.mark.parametrize("n_jobs", JOBS)
@pytest.mark.parametrize("store", ["hash_tree", "bitmap"])
def test_apriori_equivalence(basket, store, n_jobs):
    serial = apriori(basket, 0.02)
    other = apriori(basket, 0.02, backend=store, n_jobs=n_jobs)
    assert _fingerprint(other) == _fingerprint(serial)


@pytest.mark.parametrize("n_jobs", JOBS)
def test_dhp_equivalence(basket, n_jobs):
    serial = dhp(basket, 0.02)
    sharded = dhp(basket, 0.02, n_jobs=n_jobs)
    assert _fingerprint(sharded) == _fingerprint(serial)


@pytest.mark.parametrize("n_jobs", JOBS)
def test_gsp_equivalence(n_jobs):
    db = quest_sequences(60, random_state=7)
    serial = gsp(db, 0.05)
    sharded = gsp(db, 0.05, n_jobs=n_jobs)
    assert pickle.dumps(sorted(sharded.supports.items())) == \
        pickle.dumps(sorted(serial.supports.items()))


@pytest.mark.parametrize("n_jobs", JOBS)
def test_clara_equivalence(n_jobs):
    X, _ = gaussian_blobs(240, centers=4, random_state=5)
    serial = CLARA(4, random_state=11).fit(X)
    sharded = CLARA(4, random_state=11, n_jobs=n_jobs).fit(X)
    assert sharded.cost_ == serial.cost_
    assert sharded.medoid_indices_.tobytes() == \
        serial.medoid_indices_.tobytes()
    assert sharded.labels_.tobytes() == serial.labels_.tobytes()


@pytest.mark.parametrize("n_jobs", JOBS)
def test_kmeans_equivalence(n_jobs):
    X, _ = gaussian_blobs(300, centers=5, random_state=9)
    serial = KMeans(5, n_init=6, random_state=3).fit(X)
    sharded = KMeans(5, n_init=6, random_state=3, n_jobs=n_jobs).fit(X)
    assert sharded.inertia_ == serial.inertia_
    assert sharded.cluster_centers_.tobytes() == \
        serial.cluster_centers_.tobytes()
    assert sharded.labels_.tobytes() == serial.labels_.tobytes()


@pytest.mark.parametrize("n_jobs", JOBS)
def test_crossval_equivalence(n_jobs):
    table = agrawal(250, function=1, noise=0.05, random_state=13)
    serial = cross_val_score(NaiveBayes, table, "group", n_folds=5,
                             random_state=0)
    sharded = cross_val_score(NaiveBayes, table, "group", n_folds=5,
                              random_state=0, n_jobs=n_jobs)
    assert sharded == serial


def test_crossval_lambda_factory_matches_serial():
    # A lambda factory does not pickle, so the folds run inline in the
    # parent: the scores must still be the serial ones.
    table = agrawal(250, function=1, noise=0.05, random_state=13)
    serial = cross_val_score(lambda: C45(), table, "group", n_folds=5,
                             random_state=0, n_jobs=1)
    inline = cross_val_score(lambda: C45(), table, "group", n_folds=5,
                             random_state=0, n_jobs=2)
    assert inline == serial


def test_bitmap_counts_match_reference(basket):
    bitmap = transaction_bitmap(basket)
    candidates = [(1, 2), (3,), (0, 1, 2)]
    expected = [
        sum(1 for txn in basket if set(cand) <= set(txn))
        for cand in candidates
    ]
    assert bitmap.count(candidates) == expected


# ----------------------------------------------------------------------
# Budget exhaustion across workers
# ----------------------------------------------------------------------
def _charge_some(task, ctx):
    ctx.budget.charge_candidates(task)
    return task


def test_pool_charges_child_usage_to_parent_budget():
    budget = Budget(max_candidates=1000)
    ctx = ExecutionContext(budget=budget)
    pool = WorkerPool(n_jobs=2)
    assert pool.map(_charge_some, [10, 20, 30], ctx=ctx) == [10, 20, 30]
    assert budget.candidates_used == 60


def test_pool_budget_exhaustion_raises_in_parent():
    budget = Budget(max_candidates=25)
    ctx = ExecutionContext(budget=budget)
    pool = WorkerPool(n_jobs=2)
    with pytest.raises(SpaceBudgetExceeded):
        pool.map(_charge_some, [10, 10, 10, 10], ctx=ctx)


def test_apriori_parallel_budget_truncates_like_serial(basket):
    def run(n_jobs):
        budget = Budget(max_candidates=40)
        ctx = ExecutionContext(budget=budget)
        return apriori(basket, 0.02, ctx=ctx, on_exhausted="truncate",
                       n_jobs=n_jobs)

    serial, sharded = run(1), run(4)
    assert sharded.truncated and serial.truncated
    assert _fingerprint(sharded) == _fingerprint(serial)


# ----------------------------------------------------------------------
# Cancellation fan-out mid-shard
# ----------------------------------------------------------------------
def _sleep_task(seconds, ctx):
    time.sleep(seconds)
    return seconds


def test_pool_cancellation_terminates_children_quickly():
    token = CancellationToken()
    ctx = ExecutionContext(cancel_token=token)
    timer = threading.Timer(0.2, token.cancel)
    timer.start()
    pool = WorkerPool(n_jobs=2)
    started = time.monotonic()
    try:
        with pytest.raises(OperationCancelled):
            pool.map(_sleep_task, [30.0, 30.0], ctx=ctx)
    finally:
        timer.cancel()
    assert time.monotonic() - started < 10.0


def _crash_task(code, ctx):
    os._exit(code)


def test_pool_classifies_child_crash():
    # two tasks: a single task runs inline and os._exit would take the
    # test process down instead of a forked worker
    pool = WorkerPool(n_jobs=2)
    with pytest.raises(WorkerCrashed) as info:
        pool.map(_crash_task, [7, 7], ctx=None)
    assert info.value.exit_code == 7


def _kill_self(sig, ctx):
    os.kill(os.getpid(), sig)


def test_pool_classifies_child_signal():
    pool = WorkerPool(n_jobs=2)
    with pytest.raises(WorkerCrashed) as info:
        pool.map(_kill_self, [signal.SIGKILL, signal.SIGKILL], ctx=None)
    assert info.value.signal_number == signal.SIGKILL


def _raise_task(message, ctx):
    raise ValueError(message)


def test_pool_propagates_child_exception():
    pool = WorkerPool(n_jobs=2)
    with pytest.raises(ValueError, match="boom"):
        pool.map(_raise_task, ["boom", "boom"], ctx=None)


# ----------------------------------------------------------------------
# Geometry and argument validation
# ----------------------------------------------------------------------
def test_shard_bounds_cover_range_without_overlap():
    for n, shards in [(10, 4), (3, 8), (1, 1), (100, 7)]:
        bounds = shard_bounds(n, shards)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(b[1] == c[0] for b, c in zip(bounds, bounds[1:]))
        sizes = [stop - start for start, stop in bounds]
        assert max(sizes) - min(sizes) <= 1
        assert all(size > 0 for size in sizes)
    assert shard_bounds(0, 4) == []


def test_effective_n_jobs_resolution():
    assert effective_n_jobs(None) == 1
    assert effective_n_jobs(1) == 1
    assert effective_n_jobs(3) == 3
    assert effective_n_jobs(-1) == len(os.sched_getaffinity(0))


def test_resolve_n_jobs_rejects_invalid():
    with pytest.raises(ValidationError, match="apriori"):
        resolve_n_jobs(0, "apriori")
    with pytest.raises(ValidationError):
        resolve_n_jobs(-2, "partition")
