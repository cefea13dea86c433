"""Idempotent resubmission: key derivation, dedupe, duplicate storms."""

import os
import threading
import time

import pytest

from repro.runtime.faults import DiskGremlin
from repro.runtime.fsio import clear_injector, install_injector
from repro.server.cache import content_key
from repro.server.scheduler import Scheduler
from repro.server.store import JobStore

DEADLINE = 60.0


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "store")


@pytest.fixture(autouse=True)
def _clean_injector():
    clear_injector()
    yield
    clear_injector()


def _job_dirs(store):
    return [entry for entry in store.root.iterdir()
            if entry.is_dir() and not entry.name.startswith("_")]


def _wait_terminal(store, job_id, deadline=DEADLINE):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        record = store.get(job_id)
        if record.state in ("done", "failed", "cancelled"):
            return record
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


class TestContentKey:
    def test_same_submission_same_key(self, basket_path):
        a = content_key("mine", "apriori", basket_path, {"min_support": 0.1})
        b = content_key("mine", "apriori", basket_path, {"min_support": 0.1})
        assert a == b and a is not None

    def test_any_difference_changes_key(self, basket_path):
        base = content_key("mine", "apriori", basket_path,
                           {"min_support": 0.1})
        assert content_key("mine", "dhp", basket_path,
                           {"min_support": 0.1}) != base
        assert content_key("mine", "apriori", basket_path,
                           {"min_support": 0.2}) != base

    def test_param_order_is_canonical(self, basket_path):
        a = content_key("mine", "apriori", basket_path,
                        {"min_support": 0.1, "min_confidence": 0.5})
        b = content_key("mine", "apriori", basket_path,
                        {"min_confidence": 0.5, "min_support": 0.1})
        assert a == b

    def test_dataset_bytes_matter_not_name(self, tmp_path):
        first = tmp_path / "a.dat"
        second = tmp_path / "b.dat"
        first.write_bytes(b"1 2 3\n")
        second.write_bytes(b"1 2 3\n")
        assert (content_key("mine", "apriori", first, {})
                == content_key("mine", "apriori", second, {}))
        second.write_bytes(b"1 2 4\n")
        assert (content_key("mine", "apriori", first, {})
                != content_key("mine", "apriori", second, {}))

    def test_unreadable_dataset_yields_no_key(self):
        assert content_key("mine", "apriori", "/no/such/file", {}) is None

    def test_defaults_are_filled_in(self, basket_path):
        base = content_key("mine", "apriori", basket_path, {})
        for same in ({"min_support": 0.05}, {"on_exhausted": "truncate"},
                     {"min_support": 0.05, "min_confidence": None}):
            assert content_key("mine", "apriori", basket_path, same) == base

    def test_result_neutral_params_are_left_out(self, basket_path):
        # Each proven result-neutral by its identity suite: backend
        # (test_columnar_properties), n_jobs (test_parallel_equivalence),
        # checkpoint_every (the resume suites).
        base = content_key("mine", "apriori", basket_path, {})
        for neutral in ({"n_jobs": 1}, {"n_jobs": 2}, {"backend": "bitmap"},
                        {"checkpoint_every": 3}):
            assert content_key("mine", "apriori", basket_path,
                               neutral) == base

    @pytest.mark.parametrize("kind, params", [
        ("mine", {"min_support": 0.1}),
        ("mine", {"min_confidence": 0.6}),
        ("mine", {"min_confidence": 0.7}),
        ("mine", {"time_limit": 5.0}),
        ("mine", {"max_candidates": 100}),
        ("mine", {"on_exhausted": "raise"}),
        ("mine", {"pass_delay": 0.1}),
        ("mine", {"kill_at_step": 3}),
        ("classify", {"target": "other"}),
        ("classify", {"test_fraction": 0.5}),
        ("classify", {"seed": 1}),
        ("cluster", {"k": 4}),
        ("cluster", {"eps": 0.7}),
        ("cluster", {"min_samples": 3}),
        ("cluster", {"seed": 1}),
    ])
    def test_every_result_changing_param_changes_the_key(
            self, basket_path, kind, params):
        base = {"target": "group"} if kind == "classify" else {}
        assert (content_key(kind, "any", basket_path, {**base, **params})
                != content_key(kind, "any", basket_path, base))

    def test_unresolvable_params_yield_no_key(self, basket_path):
        assert content_key("bogus", "apriori", basket_path, {}) is None
        assert content_key("classify", "c45", basket_path, {}) is None

    def test_old_entries_miss_once(self, basket_path):
        # Keys used to hash the raw params; none of them is a key now,
        # so an old cache entry is never served, only recomputed.
        import hashlib
        import json

        params = {"min_support": 0.05}
        raw = hashlib.sha256(open(basket_path, "rb").read()).hexdigest()
        old = hashlib.sha256("\x00".join((
            "mine", "apriori", raw,
            json.dumps(params, sort_keys=True, separators=(",", ":")),
        )).encode()).hexdigest()
        assert content_key("mine", "apriori", basket_path, params) != old


class TestDedupe:
    def test_inflight_duplicate_returns_same_job(self, store, basket_path):
        scheduler = Scheduler(store, workers=1)
        # Not started: jobs stay queued (in-flight) for the whole test.
        params = {"min_support": 0.05}
        first = scheduler.submit("t", "mine", "apriori", basket_path, params)
        second = scheduler.submit("t", "mine", "apriori", basket_path, params)
        assert second.job_id == first.job_id
        assert getattr(second, "deduplicated", False) is True
        assert getattr(first, "deduplicated", False) is False
        assert len(_job_dirs(store)) == 1

    def test_user_key_dedupes_different_params(self, store, basket_path):
        scheduler = Scheduler(store, workers=1)
        first = scheduler.submit("t", "mine", "apriori", basket_path,
                                 {"min_support": 0.05},
                                 idempotency_key="retry-42")
        second = scheduler.submit("t", "mine", "apriori", basket_path,
                                  {"min_support": 0.2},
                                  idempotency_key="retry-42")
        assert second.job_id == first.job_id
        assert len(_job_dirs(store)) == 1

    def test_different_submissions_get_different_jobs(
        self, store, basket_path
    ):
        scheduler = Scheduler(store, workers=1)
        first = scheduler.submit("t", "mine", "apriori", basket_path,
                                 {"min_support": 0.05})
        second = scheduler.submit("t", "mine", "apriori", basket_path,
                                  {"min_support": 0.2})
        assert second.job_id != first.job_id
        assert len(_job_dirs(store)) == 2

    def test_dedupe_survives_restart(self, tmp_path, basket_path):
        # The submission index is durable: a new store/scheduler over
        # the same root still dedupes the retry.
        root = tmp_path / "store"
        first = Scheduler(JobStore(root), workers=1).submit(
            "t", "mine", "apriori", basket_path, {"min_support": 0.05},
        )
        reborn = Scheduler(JobStore(root), workers=1)
        second = reborn.submit(
            "t", "mine", "apriori", basket_path, {"min_support": 0.05},
        )
        assert second.job_id == first.job_id


class TestDuplicateStorm:
    def test_concurrent_storm_one_job(self, store, basket_path):
        scheduler = Scheduler(store, workers=1)
        params = {"min_support": 0.05}
        results, errors = [], []
        barrier = threading.Barrier(8)

        def storm():
            try:
                barrier.wait(timeout=10)
                record = scheduler.submit(
                    "t", "mine", "apriori", basket_path, params,
                    idempotency_key="storm-1",
                )
                results.append(record.job_id)
            except Exception as exc:  # noqa: BLE001 - collected below
                errors.append(exc)

        threads = [threading.Thread(target=storm) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(results) == 8
        assert len(set(results)) == 1  # N identical ids
        assert len(_job_dirs(store)) == 1  # exactly one job directory

    def test_storm_under_enospc_burst(self, store, basket_path):
        # First submission lands durably; then the disk starts failing
        # writes.  Duplicate retries ride the read-only dedupe path, so
        # every one still resolves to the same id and no half-created
        # directories appear.
        scheduler = Scheduler(store, workers=1)
        params = {"min_support": 0.05}
        first = scheduler.submit("t", "mine", "apriori", basket_path,
                                 params, idempotency_key="storm-2")
        gremlin = DiskGremlin(op="write", after=0, burst=None)
        install_injector(gremlin)
        results, errors = [], []

        def storm():
            try:
                record = scheduler.submit(
                    "t", "mine", "apriori", basket_path, params,
                    idempotency_key="storm-2",
                )
                results.append(record.job_id)
            except Exception as exc:  # noqa: BLE001 - collected below
                errors.append(exc)

        threads = [threading.Thread(target=storm) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        clear_injector()
        assert not errors
        assert set(results) == {first.job_id}
        assert len(_job_dirs(store)) == 1

    def test_fresh_create_under_enospc_rolls_back(self, store, basket_path):
        # A brand-new submission that cannot be durably indexed must
        # not leave a half-admitted directory behind.
        scheduler = Scheduler(store, workers=1)
        gremlin = DiskGremlin(op="write", after=0, burst=None)
        install_injector(gremlin)
        with pytest.raises(OSError):
            scheduler.submit("t", "mine", "apriori", basket_path,
                             {"min_support": 0.05})
        clear_injector()
        assert _job_dirs(store) == []


class TestDedupeAfterCompletion:
    def test_terminal_job_without_cache_reruns(self, store, basket_path):
        # Caching disabled: a duplicate of a *finished* job is a fresh
        # run (dedupe only collapses in-flight work).
        scheduler = Scheduler(store, workers=1)
        scheduler.start()
        try:
            params = {"min_support": 0.05}
            first = scheduler.submit("t", "mine", "apriori", basket_path,
                                     params)
            _wait_terminal(store, first.job_id)
            second = scheduler.submit("t", "mine", "apriori", basket_path,
                                      params)
            assert second.job_id != first.job_id
            assert getattr(second, "deduplicated", False) is False
            final = _wait_terminal(store, second.job_id)
            assert final.state == "done"
            assert final.cache_hit is False
        finally:
            scheduler.stop()
