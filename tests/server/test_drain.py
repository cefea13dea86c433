"""Graceful drain: back-pressure, requeue-without-penalty, and the
restart-completes-byte-identically proof.

The scheduler-level tests exercise :meth:`Scheduler.drain` directly;
the slow subprocess test drives the real ``repro serve`` process with
SIGTERM mid-job and pins the acceptance criteria: exit code 0, the job
re-enqueued durably, and a restarted server finishing it with bytes
identical to an undisturbed run -- for a checkpointed mine job and for
an agglomerative fit, which reruns from the start.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.server.scheduler import (
    Draining,
    Scheduler,
    canonical_result_bytes,
    execute_job,
)
from repro.server.store import JobStore

DEADLINE = 60.0
TERMINAL = ("done", "failed", "cancelled", "poisoned")

SLOW_PARAMS = {"min_support": 0.02, "min_confidence": 0.6,
               "pass_delay": 0.5, "checkpoint_every": 1}


def _wait(predicate, deadline, message):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(message)


def _wait_terminal(store, job_id, deadline=DEADLINE):
    _wait(lambda: store.get(job_id).state in TERMINAL, deadline,
          f"job {job_id} never reached a terminal state")
    return store.get(job_id)


def _reference_bytes(dataset, kind="mine", algorithm="apriori",
                     params=SLOW_PARAMS):
    params = {k: v for k, v in params.items()
              if k not in ("pass_delay", "checkpoint_every")}
    return canonical_result_bytes(
        execute_job(kind, dataset, algorithm, params)
    )


class TestSchedulerDrain:
    def test_drain_rejects_submissions(self, tmp_path):
        store = JobStore(tmp_path / "store")
        scheduler = Scheduler(store, workers=1)
        scheduler.start()
        try:
            assert scheduler.drain(grace=5.0) is True
            assert scheduler.draining is True
            with pytest.raises(Draining) as excinfo:
                scheduler.submit("t", "mine", "apriori", "x.dat", {})
            assert excinfo.value.retry_after > 0
            assert store.list() == []
        finally:
            scheduler.stop()

    def test_drain_requeues_running_job_without_penalty(
        self, tmp_path, basket_path
    ):
        store = JobStore(tmp_path / "store")
        scheduler = Scheduler(store, workers=1)
        scheduler.start()
        try:
            record = scheduler.submit("t", "mine", "apriori", basket_path,
                                      dict(SLOW_PARAMS))
            _wait(lambda: store.get(record.job_id).state == "running",
                  DEADLINE, "job never started")
            assert scheduler.drain(grace=15.0) is True
        finally:
            scheduler.stop()
        parked = store.get(record.job_id)
        # Drain is not a failure: back to queued, no dead-letter entry,
        # no recovery penalty.
        assert parked.state == "queued"
        assert store.read_failures(record.job_id) == []
        assert parked.recoveries == 0

    def test_restart_after_drain_completes_byte_identical(
        self, tmp_path, basket_path
    ):
        store = JobStore(tmp_path / "store")
        scheduler = Scheduler(store, workers=1)
        scheduler.start()
        try:
            record = scheduler.submit("t", "mine", "apriori", basket_path,
                                      dict(SLOW_PARAMS))
            _wait(lambda: store.get(record.job_id).state == "running",
                  DEADLINE, "job never started")
            assert scheduler.drain(grace=15.0) is True
        finally:
            scheduler.stop()
        assert store.get(record.job_id).state == "queued"

        restarted = Scheduler(store, workers=1)
        restarted.start()
        try:
            final = _wait_terminal(store, record.job_id)
        finally:
            restarted.stop()
        assert final.state == "done", final.error
        assert store.read_result_bytes(record.job_id) == \
            _reference_bytes(basket_path)

    def test_drain_landing_before_the_job_registers_still_parks_it(
        self, tmp_path, basket_path, monkeypatch
    ):
        # A worker records ``running`` before it registers the job as
        # active; a drain that lands in between must still park the job
        # instead of letting it run on through the shutdown.
        store = JobStore(tmp_path / "store")
        scheduler = Scheduler(store, workers=1)
        transition = store.transition

        def drain_after_running(job_id, state, **changes):
            record = transition(job_id, state, **changes)
            if state == "running":
                assert scheduler.drain(grace=0.0) is True
            return record

        monkeypatch.setattr(store, "transition", drain_after_running)
        scheduler.start()
        try:
            record = scheduler.submit("t", "mine", "apriori", basket_path,
                                      {"min_support": 0.05})
            _wait(lambda: (store.get(record.job_id).attempts == 1
                           and store.get(record.job_id).state != "running"),
                  DEADLINE, "job never left running")
        finally:
            scheduler.stop()
        parked = store.get(record.job_id)
        assert parked.state == "queued"
        assert store.read_failures(record.job_id) == []

    def test_drain_is_idempotent(self, tmp_path):
        store = JobStore(tmp_path / "store")
        scheduler = Scheduler(store, workers=1)
        scheduler.start()
        try:
            assert scheduler.drain(grace=5.0) is True
            assert scheduler.drain(grace=5.0) is True
        finally:
            scheduler.stop()


# ---------------------------------------------------------------------------
# Full-process drain: SIGTERM against a live ``repro serve``.
# ---------------------------------------------------------------------------

def _src_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _start_server(store_root):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", str(store_root),
         "--port", "0", "--workers", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=_src_env(),
    )
    port = None
    end = time.monotonic() + 30.0
    lines = []
    while time.monotonic() < end:
        line = proc.stdout.readline()
        if not line:
            break
        lines.append(line)
        if "repro-server listening" in line:
            for token in line.split():
                if token.startswith("port="):
                    port = int(token.split("=", 1)[1])
            break
    if port is None:
        proc.kill()
        raise AssertionError("server never announced a port:\n"
                             + "".join(lines))
    return proc, port


def _request(port, method, path, body=None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", method=method,
        data=json.dumps(body).encode() if body is not None else None,
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


#: the SIGTERM jobs: a checkpointed mine job, and a fit that beats (each
#: beat sleeps ``pass_delay``) and reruns from the start
SIGTERM_JOBS = {
    "mine": ("mine", "apriori", "basket_path", SLOW_PARAMS),
    "agglomerative": ("cluster", "agglomerative", "agglomerative_path",
                      {"pass_delay": 0.5}),
}


@pytest.mark.slow
class TestServeSigterm:
    @pytest.mark.parametrize("job", sorted(SIGTERM_JOBS))
    def test_sigterm_mid_job_drains_exits_zero_and_restart_is_byte_identical(
        self, tmp_path, request, job
    ):
        kind, algorithm, fixture, params = SIGTERM_JOBS[job]
        dataset = request.getfixturevalue(fixture)
        store_root = tmp_path / "store"
        proc, port = _start_server(store_root)
        try:
            _status, record = _request(
                port, "POST", "/jobs",
                {"kind": kind, "algorithm": algorithm,
                 "dataset": dataset, "params": dict(params)},
            )
            job_id = record["job_id"]
            store = JobStore(store_root)
            _wait(lambda: store.get(job_id).state == "running",
                  30.0, "job never started under the server")
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=30)
        except Exception:
            proc.kill()
            raise
        assert proc.returncode == 0, output
        assert "repro-server drained clean exit" in output
        # The in-flight job was parked durably, not failed.
        store = JobStore(store_root)
        assert store.get(job_id).state == "queued"
        assert store.read_failures(job_id) == []

        # A fresh process on the same store finishes the job and the
        # result bytes match an undisturbed in-process run exactly.
        proc2, port2 = _start_server(store_root)
        try:
            _wait(lambda: store.get(job_id).state in TERMINAL,
                  DEADLINE, "restarted server never finished the job")
            final = store.get(job_id)
            assert final.state == "done", final.error
            assert store.read_result_bytes(job_id) == \
                _reference_bytes(dataset, kind, algorithm, params)
            _status, payload = _request(port2, "GET", "/healthz")
            assert payload["jobs"]["done"] >= 1
        finally:
            proc2.send_signal(signal.SIGTERM)
            try:
                proc2.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc2.kill()
