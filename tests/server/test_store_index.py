"""The store's job index against a fresh scan of the disk.

``JobStore`` answers ``counts``, ``list`` and ``events_appended_total``
from an in-memory index instead of reading every record.  The property
test below drives a store through random lifecycles over two tenants,
with a :class:`DiskGremlin` failing one stage of the atomic write in
bursts, and after every step compares each answer with a scan of what
is actually on disk (the scan ``JobStore`` itself used to run).  The
trap it guards: ``atomic_write_bytes`` fsyncs the directory *after* the
rename, so a save that raises there has already landed its record.

The store-age test pins the point of the index: on an aged store,
``counts`` reads no record and the reaper's listing reads only the
running ones.
"""

import json
from contextlib import nullcontext

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime import DiskGremlin
from repro.runtime.fsio import injected
from repro.server.store import (
    _TRANSITIONS,
    STATES,
    JobRecord,
    JobStore,
    JobStoreError,
    scan_events,
)

TENANTS = ("a", "b")
ACTIONS = ("create", "transition", "update", "cancel", "delete", "restart")
STAGES = ("write", "fsync", "replace", "fsync-dir", "torn", "append")


# ----------------------------------------------------------------------
# The reference: a scan of every record and log on disk
# ----------------------------------------------------------------------
def _scan_records(root):
    records = []
    for entry in sorted(root.iterdir()):
        path = entry / "job.json"
        if not path.exists():
            continue
        try:
            payload = json.loads(path.read_text())
            if not isinstance(payload, dict):
                continue
            records.append(JobRecord.from_dict(payload))
        except (OSError, ValueError, JobStoreError):
            continue
    records.sort(key=lambda r: (-r.created_at, r.job_id))
    return records


def _scan_counts(records, tenant):
    tally = dict.fromkeys(STATES, 0)
    for record in records:
        if tenant is None or record.tenant == tenant:
            tally[record.state] += 1
    return tally


def _scan_events_total(root):
    return sum(len(scan_events(entry / "events.jsonl")[0])
               for entry in root.iterdir()
               if entry.is_dir() and not entry.name.startswith("_"))


def _assert_index_matches_disk(store):
    records = _scan_records(store.root)
    for tenant in (None,) + TENANTS:
        assert store.counts(tenant) == _scan_counts(records, tenant)
    for state in STATES:
        assert [r.job_id for r in store.list(states=(state,))] == \
            [r.job_id for r in records if r.state == state]
    for tenant in TENANTS:
        assert [r.job_id for r in store.list(tenant=tenant)] == \
            [r.job_id for r in records if r.tenant == tenant]
    assert store.events_appended_total() == _scan_events_total(store.root)


# ----------------------------------------------------------------------
# Random lifecycles under disk faults
# ----------------------------------------------------------------------
# (stage or None, writes let through, writes failed) per step
_faults = st.tuples(st.sampled_from((None,) + STAGES), st.integers(0, 1),
                    st.integers(1, 3))
_steps = st.lists(
    st.tuples(st.sampled_from(ACTIONS), st.integers(0, 1000), _faults),
    min_size=1, max_size=25,
)


def _gremlin(fault):
    stage, after, burst = fault
    if stage is None:
        return nullcontext()
    if stage == "torn":
        gremlin = DiskGremlin(op="replace", after=after, burst=burst, torn=True)
    else:
        gremlin = DiskGremlin(op=stage, after=after, burst=burst)
    return injected(gremlin)


def _step(store, action, pick):
    if action == "create":
        store.create(TENANTS[pick % 2], "mine", "apriori", "x.dat")
        return
    if action == "restart":
        store.recover()
        return
    jobs = sorted(entry.name for entry in store.root.iterdir()
                  if not entry.name.startswith("_"))
    if not jobs:
        return
    job_id = jobs[pick % len(jobs)]
    if action == "delete":
        store.delete(job_id)
    elif action == "cancel":
        store.request_cancel(job_id)
    elif action == "update":
        if pick % 2:
            store.update(job_id, tenant=TENANTS[pick // 2 % 2])
        else:
            store.update(job_id, attempts=pick)
    else:
        targets = sorted(_TRANSITIONS[store.get(job_id).state]) or list(STATES)
        store.transition(job_id, targets[pick // 7 % len(targets)])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(steps=_steps)
def test_index_equals_a_fresh_scan_after_every_step(tmp_path_factory, steps):
    store = JobStore(tmp_path_factory.mktemp("store"))
    for action, pick, fault in steps:
        if action == "restart":
            # A new process on the same root; a boot that fails half way
            # leaves it with no index, so its next read must rescan.
            store = JobStore(store.root)
        try:
            with _gremlin(fault):
                _step(store, action, pick)
        except (OSError, JobStoreError):
            pass
        _assert_index_matches_disk(store)


def test_a_save_that_fails_after_the_rename_is_indexed(tmp_path):
    store = JobStore(tmp_path / "store")
    record = store.create("a", "mine", "apriori", "x.dat")
    assert store.counts()["queued"] == 1
    gremlin = DiskGremlin(op="fsync-dir", after=0, burst=1)
    with injected(gremlin):
        try:
            store.transition(record.job_id, "running")
        except OSError:
            pass
    assert gremlin.injected
    assert store.get(record.job_id).state == "running"
    assert store.counts()["running"] == 1
    assert [r.job_id for r in store.list(states=("running",))] == \
        [record.job_id]


def test_a_boot_that_fails_half_way_leaves_no_partial_index(tmp_path):
    first = JobStore(tmp_path / "store")
    first.create("a", "mine", "apriori", "x.dat", job_id="job0")
    first.transition("job0", "running")
    first.create("b", "mine", "apriori", "x.dat", job_id="job1")
    reborn = JobStore(first.root)
    # job0's recovery writes its dead-letter entry first: fail that.
    with injected(DiskGremlin(op="write", after=0, burst=1)):
        with pytest.raises(OSError):
            reborn.recover()
    assert reborn.counts("b")["queued"] == 1
    _assert_index_matches_disk(reborn)


# ----------------------------------------------------------------------
# Store age
# ----------------------------------------------------------------------
def test_aged_store_counts_and_reaper_listing_read_only_what_they_return(
    tmp_path, monkeypatch
):
    root = tmp_path / "store"
    aging = JobStore(root)
    for _ in range(300):
        record = aging.create("default", "mine", "apriori", "x.dat")
        aging.transition(record.job_id, "running", attempts=1)
        aging.transition(record.job_id, "done")

    store = JobStore(root)  # the server boots on the aged store
    store.recover()
    fresh = [store.create("default", "mine", "apriori", "x.dat")
             for _ in range(3)]
    running = [store.transition(record.job_id, "running").job_id
               for record in fresh[:2]]

    reads = []
    get = JobStore.get

    def counting_get(self, job_id):
        reads.append(job_id)
        return get(self, job_id)

    monkeypatch.setattr(JobStore, "get", counting_get)
    counts = store.counts()
    assert (counts["done"], counts["running"], counts["queued"]) == (300, 2, 1)
    assert store.counts("default")["done"] == 300
    assert reads == []
    listed = [r.job_id for r in store.list(states=("running",))]
    assert sorted(listed) == sorted(running)
    assert sorted(reads) == sorted(running)
