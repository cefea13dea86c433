"""WorkerPool lifecycle: reuse, crash recovery, cancellation, leaks.

The equivalence sweep proves the pool computes the right answers; this
file pins the *process* behaviour that makes the persistent pool safe
to keep alive across parallel regions — the same workers serve
successive maps, a crashed worker is classified and replaced exactly
once, cancellation leaves the pool reusable, and neither file
descriptors nor shared-memory segments outlive their owners.
"""

import os
import threading
import time

import pytest

from repro.runtime import (
    CancellationToken,
    ExecutionContext,
    OperationCancelled,
    PoolGremlin,
    WorkerCrashed,
    WorkerPool,
    clear_pool_gremlin,
    close_shared_pools,
    effective_n_jobs,
    install_pool_gremlin,
    shared_pool,
)
from repro.runtime.parallel import SMALL_TASK_SECONDS
from repro.runtime.transport import SEGMENT_PREFIX, SharedRegion, segment_dir


def _pid_task(task, _shard_ctx):
    return os.getpid()


def _echo_task(task, _shard_ctx):
    return task


def _slow_pid_task(task, _shard_ctx):
    # Slower than SMALL_TASK_SECONDS so a probe map does not gate the
    # remaining tasks back to the parent.
    time.sleep(SMALL_TASK_SECONDS * 3)
    return os.getpid()


def _big_task(nbytes, _shard_ctx):
    return b"x" * nbytes


def _sleep_task(seconds, _shard_ctx):
    time.sleep(seconds)
    return seconds


def _raise_or_sleep_task(task, _shard_ctx):
    action, seconds = task
    if action == "raise":
        raise ValueError("boom")
    time.sleep(seconds)
    return task


@pytest.fixture
def pool():
    with WorkerPool(n_jobs=2) as p:
        yield p


# ----------------------------------------------------------------------
# Worker reuse across parallel regions
# ----------------------------------------------------------------------
class TestWorkerReuse:
    def test_same_workers_serve_successive_maps(self, pool):
        first = set(pool.map(_pid_task, [0, 1, 2, 3]))
        second = set(pool.map(_pid_task, [0, 1, 2, 3]))
        assert first == second
        assert first == set(pool.worker_pids)
        assert os.getpid() not in first

    def test_map_after_close_is_rejected(self):
        pool = WorkerPool(n_jobs=2)
        pool.map(_pid_task, [0, 1])
        pool.close()
        from repro.core.exceptions import ValidationError

        with pytest.raises(ValidationError, match="closed"):
            pool.map(_pid_task, [0, 1])

    def test_close_reaps_workers_and_is_idempotent(self):
        pool = WorkerPool(n_jobs=2)
        pids = set(pool.map(_pid_task, [0, 1, 2, 3]))
        pool.close()
        pool.close()
        assert pool.worker_pids == []
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if not any(_alive(pid) for pid in pids):
                break
            time.sleep(0.02)
        assert not any(_alive(pid) for pid in pids)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - different uid
        return True
    return True


# ----------------------------------------------------------------------
# Crash classification and respawn
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_gremlin_crash_is_classified_then_respawned(self, pool):
        install_pool_gremlin(PoolGremlin(kill_at_task=1, exit_code=9))
        try:
            # The workers fork at the first dispatch, inherit the armed
            # gremlin, and die on their first task without a result.
            with pytest.raises(WorkerCrashed) as info:
                pool.map(_sleep_task, [0.05, 0.05])
            assert info.value.exit_code == 9
            assert info.value.task_index is not None
        finally:
            clear_pool_gremlin()
        # The next dispatch replaces the dead slots with fresh workers
        # (forked after the clear, so unarmed) and the map succeeds.
        assert pool.map(_echo_task, [10, 11, 12, 13]) == [10, 11, 12, 13]
        assert len(pool.worker_pids) == 2

    def test_idle_workers_survive_a_failed_map(self, pool):
        # A shard error terminates only the *busy* workers: the worker
        # that already delivered (here, the raising one) is idle at
        # fan-out time and stays warm for the next map.
        with pytest.raises(ValueError, match="boom"):
            pool.map(_raise_or_sleep_task, [("raise", None), ("sleep", 5.0)])
        survivors = set(pool.worker_pids)
        assert len(survivors) == 1
        assert pool.map(_echo_task, [10, 11, 12, 13]) == [10, 11, 12, 13]
        assert survivors <= set(pool.worker_pids)


# ----------------------------------------------------------------------
# Cancellation leaves the pool reusable
# ----------------------------------------------------------------------
class TestCancellation:
    def test_cancelled_map_drains_then_pool_reusable(self, pool):
        token = CancellationToken()
        ctx = ExecutionContext(cancel_token=token)
        timer = threading.Timer(0.2, token.cancel)
        timer.start()
        try:
            with pytest.raises(OperationCancelled):
                pool.map(_sleep_task, [30.0, 30.0, 30.0], ctx=ctx)
        finally:
            timer.cancel()
        # The busy workers were SIGTERMed; the next map refills the
        # slots and completes.
        assert pool.map(_echo_task, [1, 2, 3, 4]) == [1, 2, 3, 4]
        assert len(pool.worker_pids) == 2


# ----------------------------------------------------------------------
# Leak checks: file descriptors and shared segments
# ----------------------------------------------------------------------
def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestLeaks:
    def test_fd_count_returns_to_baseline_after_close(self):
        baseline = _open_fds()
        for _ in range(3):
            with WorkerPool(n_jobs=2) as pool:
                pool.map(_echo_task, [0, 1, 2, 3])
        assert _open_fds() <= baseline

    def test_region_close_unlinks_segments(self):
        region = SharedRegion()
        handle = region.put_object({"payload": list(range(64))})
        assert os.path.exists(handle.path)
        region.close()
        assert not os.path.exists(handle.path)

    def test_pool_and_region_leave_no_transport_litter(self):
        seg_root = segment_dir()
        before = {
            name for name in os.listdir(seg_root)
            if name.startswith(SEGMENT_PREFIX)
        }
        with WorkerPool(n_jobs=2) as pool, SharedRegion() as region:
            handle = region.put_object(list(range(100)))
            pool.map(_echo_task, [handle, handle])
        after = {
            name for name in os.listdir(seg_root)
            if name.startswith(SEGMENT_PREFIX)
        }
        assert after <= before


# ----------------------------------------------------------------------
# Oversized results fall back to the file transport
# ----------------------------------------------------------------------
class TestResultTransport:
    def test_oversized_result_roundtrips_via_file(self):
        with WorkerPool(n_jobs=2, inline_result_limit=64) as pool:
            out = pool.map(_big_task, [1024, 2048])
        assert out == [b"x" * 1024, b"x" * 2048]

    def test_small_results_stay_inline(self, pool):
        assert pool.map(_big_task, [4, 8]) == [b"x" * 4, b"x" * 8]


# ----------------------------------------------------------------------
# Process-global shared pools
# ----------------------------------------------------------------------
class TestSharedPool:
    def test_same_worker_count_reuses_the_instance(self):
        try:
            assert shared_pool(2) is shared_pool(2)
            assert shared_pool(2) is not shared_pool(3)
        finally:
            close_shared_pools()

    def test_closed_shared_pool_is_replaced(self):
        try:
            first = shared_pool(2)
            first.close()
            second = shared_pool(2)
            assert second is not first
            assert second.map(_echo_task, [1, 2]) == [1, 2]
        finally:
            close_shared_pools()


# ----------------------------------------------------------------------
# Small-task gating
# ----------------------------------------------------------------------
class TestSmallTaskGating:
    def test_effective_n_jobs_gates_fast_tasks(self):
        assert effective_n_jobs(4, task_seconds=SMALL_TASK_SECONDS / 10) == 1
        assert effective_n_jobs(4, task_seconds=SMALL_TASK_SECONDS * 10) == 4
        # Serial requests stay serial whatever the measurement says.
        assert effective_n_jobs(1, task_seconds=100.0) == 1

    def test_probe_map_runs_fast_tasks_without_forking(self):
        with WorkerPool(n_jobs=2) as pool:
            out = pool.map(_echo_task, [1, 2, 3, 4], probe=True)
            assert out == [1, 2, 3, 4]
            assert pool.worker_pids == []

    def test_probe_map_still_forks_slow_tasks(self):
        with WorkerPool(n_jobs=2) as pool:
            pids = pool.map(_slow_pid_task, [0, 1, 2, 3], probe=True)
            assert pids[0] == os.getpid()  # the probe runs inline
            assert set(pids[1:]) == set(pool.worker_pids)


# ----------------------------------------------------------------------
# Maps that cannot cross a pipe run inline
# ----------------------------------------------------------------------
class TestUnpicklableMaps:
    def test_lambda_map_runs_serially_in_the_parent(self):
        tasks = list(range(6))
        with WorkerPool(n_jobs=2) as pool:
            out = pool.map(lambda task, _ctx: (task * task, os.getpid()),
                           tasks)
            assert pool.worker_pids == []
        assert [value for value, _pid in out] == [t * t for t in tasks]
        assert {pid for _value, pid in out} == {os.getpid()}
