"""Job leases, the reaper, and the poison-job quarantine.

Three proofs live here:

* an orphaned ``running`` record (its worker died without a trace) is
  reclaimed by the reaper and still finishes;
* a wedged job — alive but never reaching a heartbeat boundary — is
  stopped through the supervisor, re-enqueued, and poisoned once its
  dead-letter history reaches the cap;
* the acceptance proof: a job whose child SIGKILLs itself on *every*
  attempt lands ``poisoned`` with at least three persisted
  :class:`FailureReport` entries — never an infinite crash-retry loop.
"""

import time

import pytest

from repro.server.scheduler import Scheduler
from repro.server.store import JobStore

DEADLINE = 60.0
TERMINAL = ("done", "failed", "cancelled", "poisoned")


def _wait_terminal(store, job_id, deadline=DEADLINE):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        record = store.get(job_id)
        if record.state in TERMINAL:
            return record
        time.sleep(0.05)
    raise AssertionError(
        f"job {job_id} still {store.get(job_id).state!r} after {deadline}s"
    )


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "store")


class TestHeartbeat:
    def test_running_job_keeps_its_lease_fresh(self, store, basket_path):
        scheduler = Scheduler(store, workers=1, lease_timeout=30.0)
        scheduler.start()
        try:
            record = scheduler.submit(
                "t", "mine", "apriori", basket_path,
                {"min_support": 0.02, "pass_delay": 0.2},
            )
            # Sample the lease while the job runs: the forked child
            # refreshes it at every pass boundary.
            saw_running = False
            end = time.monotonic() + DEADLINE
            while time.monotonic() < end:
                current = store.get(record.job_id)
                if current.state == "running":
                    saw_running = True
                    assert store.lease_age(record.job_id) < 10.0
                elif current.state in TERMINAL:
                    break
                time.sleep(0.05)
            assert saw_running
            final = store.get(record.job_id)
            assert final.state == "done", final.error
            # Terminal jobs shed their lease.
            assert not store.lease_path(record.job_id).exists()
        finally:
            scheduler.stop()

    def test_rule_generation_longer_than_the_lease_keeps_it_fresh(
        self, store, basket_path, monkeypatch
    ):
        """Rule generation runs after the last mining pass; it must beat
        on its own, or a dense rule set outlives a short lease."""
        from repro.associations import rules

        original = rules._rules_from_itemset

        def slow(*args):
            time.sleep(0.006)  # ~421 itemsets: ~2.5 s of rule generation
            return original(*args)

        # The job's forked child inherits the patched module.
        monkeypatch.setattr(rules, "_rules_from_itemset", slow)
        scheduler = Scheduler(store, workers=1, lease_timeout=1.0,
                              max_failures=2)
        scheduler.start()
        try:
            record = scheduler.submit(
                "t", "mine", "apriori", basket_path,
                {"min_support": 0.05, "min_confidence": 0.6},
            )
            final = _wait_terminal(store, record.job_id)
            assert final.state == "done", final.error
            causes = [f["cause"] for f in store.read_failures(record.job_id)]
            assert "lease-expired" not in causes
        finally:
            scheduler.stop()


class TestReaper:
    def test_orphan_running_record_is_reclaimed_and_finishes(
        self, store, basket_path
    ):
        scheduler = Scheduler(store, workers=1, lease_timeout=0.3,
                              reap_interval=0.05)
        scheduler.start()
        try:
            # Forge what a dead worker thread leaves behind: a running
            # record nobody owns, created *after* the boot recovery scan.
            record = store.create(
                tenant="t", kind="mine", algorithm="apriori",
                dataset=basket_path, params={"min_support": 0.05},
            )
            store.transition(record.job_id, "running", attempts=1)
            final = _wait_terminal(store, record.job_id)
            assert final.state == "done", final.error
            assert final.recoveries == 1
            causes = [f["cause"] for f in store.read_failures(record.job_id)]
            assert causes == ["lease-expired"]
        finally:
            scheduler.stop()

    def test_wedged_job_is_reaped_until_poisoned(self, store, basket_path):
        """A job that never heartbeats fast enough burns its failure
        budget on lease expiries and is quarantined, not retried
        forever."""
        scheduler = Scheduler(store, workers=1, lease_timeout=0.3,
                              reap_interval=0.05, max_failures=2)
        scheduler.start()
        try:
            record = scheduler.submit(
                "t", "mine", "apriori", basket_path,
                # Each boundary stalls far past the lease timeout.
                {"min_support": 0.02, "pass_delay": 5.0},
            )
            final = _wait_terminal(store, record.job_id)
            assert final.state == "poisoned"
            assert final.error["cause"] == "poisoned"
            failures = store.read_failures(record.job_id)
            assert len(failures) >= 2
            assert all(f["cause"] == "lease-expired" for f in failures)
        finally:
            scheduler.stop()


class TestPoisonQuarantine:
    def test_job_that_kills_every_attempt_is_poisoned_with_history(
        self, store, basket_path
    ):
        """The acceptance proof: SIGKILL on every attempt → ``poisoned``
        with ≥3 persisted FailureReports, reached in bounded time."""
        scheduler = Scheduler(store, workers=1, max_retries=2,
                              max_failures=3)
        scheduler.start()
        try:
            record = scheduler.submit(
                "t", "mine", "apriori", basket_path,
                {"min_support": 0.05, "kill_at_step": 1},
            )
            final = _wait_terminal(store, record.job_id)
            assert final.state == "poisoned"
            assert final.error["cause"] == "poisoned"
            assert final.error["last_failure"]["cause"] == "killed"
            failures = store.read_failures(record.job_id)
            assert len(failures) >= 3
            # Every entry is a full crash post-mortem.
            assert all(f["kind"] == "crash" for f in failures)
            assert all(f["signal_name"] == "SIGKILL" for f in failures)
            assert [f["attempt"] for f in failures] == [1, 2, 3]
        finally:
            scheduler.stop()

    def test_poisoned_job_is_not_redispatched_on_restart(
        self, store, basket_path
    ):
        scheduler = Scheduler(store, workers=1, max_retries=2,
                              max_failures=3)
        scheduler.start()
        try:
            record = scheduler.submit(
                "t", "mine", "apriori", basket_path,
                {"min_support": 0.05, "kill_at_step": 1},
            )
            final = _wait_terminal(store, record.job_id)
            assert final.state == "poisoned"
        finally:
            scheduler.stop()
        # A restarted scheduler must leave the quarantined job alone.
        scheduler = Scheduler(store, workers=1)
        recovered = scheduler.start()
        try:
            assert recovered == []
            time.sleep(0.3)
            assert store.get(record.job_id).state == "poisoned"
        finally:
            scheduler.stop()
