"""Every job runs supervised, and every long loop beats.

Classifier and clusterer fits tick their context once per unit of work
(a tree node, an iteration, a merge), and a counting scan ticks every
256 transactions, so a beat lands at most every half second of work
with or without a budget.  That is what lets a cancel, a drain, the
lease reaper and the chaos hooks reach a job *mid-fit*, whatever its
algorithm:

* a fit cancelled while it runs ends ``cancelled``, with no result;
* a drain parks a running fit back to ``queued`` within its grace;
* a fit, and a mining pass, longer than the lease timeout finish
  ``done`` without a lease expiry;
* ``kill_at_step`` kills a fit's child at its first beat, so a job
  that always crashes is poisoned with its crash history.
"""

import time

import pytest

from repro.server.scheduler import Scheduler
from repro.server.store import JobStore

DEADLINE = 60.0
TERMINAL = ("done", "failed", "cancelled", "poisoned")

#: how long a job runs before the test reaches into it: past the data
#: load, well inside the fit.
INTO_THE_FIT = 1.0


def _wait(store, job_id, states, deadline=DEADLINE):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        record = store.get(job_id)
        if record.state in states:
            return record
        time.sleep(0.02)
    raise AssertionError(
        f"job {job_id} still {store.get(job_id).state!r} after {deadline}s")


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "store")


@pytest.fixture
def fits(long_kmeans_path, long_agglomerative_path):
    return {
        "kmeans": (long_kmeans_path, {"k": 4}),
        "agglomerative": (long_agglomerative_path, {}),
    }


@pytest.mark.parametrize("algorithm", ["kmeans", "agglomerative"])
def test_cancel_mid_fit_ends_cancelled_without_a_result(store, fits,
                                                       algorithm):
    dataset, params = fits[algorithm]
    scheduler = Scheduler(store, workers=1)
    scheduler.start()
    try:
        record = scheduler.submit("t", "cluster", algorithm, dataset, params)
        _wait(store, record.job_id, ("running",) + TERMINAL)
        time.sleep(INTO_THE_FIT)
        assert store.get(record.job_id).state == "running"
        scheduler.cancel(record.job_id)
        final = _wait(store, record.job_id, TERMINAL, deadline=2.0)
    finally:
        scheduler.stop()
    assert final.state == "cancelled", final.error
    assert not store.result_path(record.job_id).exists()


def test_drain_parks_a_running_fit(store, long_agglomerative_path):
    scheduler = Scheduler(store, workers=1)
    scheduler.start()
    try:
        record = scheduler.submit("t", "cluster", "agglomerative",
                                  long_agglomerative_path, {})
        _wait(store, record.job_id, ("running",) + TERMINAL)
        time.sleep(INTO_THE_FIT)
        assert store.get(record.job_id).state == "running"
        assert scheduler.drain(grace=2.0) is True
    finally:
        scheduler.stop()
    parked = store.get(record.job_id)
    assert parked.state == "queued"
    assert store.read_failures(record.job_id) == []


@pytest.mark.parametrize("job", ["kmeans-fit", "apriori-pass"])
def test_work_longer_than_the_lease_keeps_it_fresh(store, job,
                                                   long_kmeans_path,
                                                   long_basket_path):
    kind, algorithm, dataset, params = {
        "kmeans-fit": ("cluster", "kmeans", long_kmeans_path, {"k": 4}),
        "apriori-pass": ("mine", "apriori", long_basket_path,
                         {"min_support": 0.05}),
    }[job]
    scheduler = Scheduler(store, workers=1, lease_timeout=1.0)
    scheduler.start()
    try:
        record = scheduler.submit("t", kind, algorithm, dataset, params)
        final = _wait(store, record.job_id, TERMINAL)
    finally:
        scheduler.stop()
    assert final.state == "done", final.error
    assert store.read_failures(record.job_id) == []


def test_kill_at_first_beat_of_a_fit_poisons_the_job(store,
                                                     long_kmeans_path):
    scheduler = Scheduler(store, workers=1, max_retries=2, max_failures=3)
    scheduler.start()
    try:
        record = scheduler.submit("t", "cluster", "kmeans", long_kmeans_path,
                                  {"k": 4, "kill_at_step": 1})
        final = _wait(store, record.job_id, TERMINAL)
    finally:
        scheduler.stop()
    assert final.state == "poisoned"
    assert final.error["last_failure"]["cause"] == "killed"
    failures = store.read_failures(record.job_id)
    assert all(f["kind"] == "crash" for f in failures)
    assert all(f["signal_name"] == "SIGKILL" for f in failures)
    assert [f["attempt"] for f in failures] == [1, 2, 3]
