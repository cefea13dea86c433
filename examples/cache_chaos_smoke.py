"""CI cache chaos smoke: kill mid-job, restart, resubmit, demand a cache hit.

The client-edge twin of ``server_chaos_smoke.py``.  This script:

1. starts ``repro serve`` as a real subprocess on a durable store,
2. submits a checkpointed apriori job throttled to one pass boundary
   per second and polls ``GET /jobs/{id}/events`` while it runs,
3. SIGKILLs the *server* mid-job — no shutdown hooks, no cleanup,
4. restarts the server against the same store and resumes the event
   poll from the stored offset, asserting the log is gapless (seq is
   0..N-1 with no holes and no torn line) across the crash,
5. waits for the recovered job to finish, then POSTs the *identical*
   submission again and asserts it is served from the result cache:
   ``cache_hit`` true, state ``done`` immediately, result bytes equal
   to the recovered job's — byte-identical, without re-mining.

Exit code 0 means the client-edge robustness contract held; any other
exit fails CI.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

from repro.datasets import quest_basket, save_transactions
from repro.server import JobStore

PARAMS = {
    "min_support": 0.02,
    "min_confidence": 0.6,
    "pass_delay": 1.0,
    "checkpoint_every": 1,
}


def start_server(store_root):
    """Launch ``repro serve`` and wait for its banner; returns (proc, port)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", str(store_root),
         "--port", "0", "--workers", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=dict(os.environ),
    )
    banner = []
    while True:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(
                f"server died during startup:\n{''.join(banner)}"
            )
        banner.append(line)
        print(f"  server: {line.rstrip()}")
        if line.startswith("repro-server listening"):
            return proc, int(line.split("port=")[1].split()[0]), banner


def request(port, method, path, body=None):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", method=method,
        data=json.dumps(body).encode() if body is not None else None,
    )
    with urllib.request.urlopen(req, timeout=30) as response:
        return json.loads(response.read())


def wait_for(predicate, timeout, message):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.1)
    raise SystemExit(f"timed out waiting for {message}")


def assert_gapless(events):
    seqs = [event["seq"] for event in events]
    if seqs != list(range(len(seqs))):
        raise SystemExit(f"event log has gaps or disorder: {seqs}")


def smoke(workdir: Path) -> int:
    dataset = workdir / "basket.dat"
    save_transactions(quest_basket(150, random_state=0), str(dataset))
    store_root = workdir / "store"
    submission = {"kind": "mine", "algorithm": "apriori",
                  "dataset": str(dataset), "params": PARAMS}

    proc, port, _banner = start_server(store_root)
    store = JobStore(store_root)
    collected = []
    try:
        record = request(port, "POST", "/jobs", submission)
        job_id = record["job_id"]
        print(f"submitted job {job_id}")

        def poll_events():
            page = request(port, "GET",
                           f"/jobs/{job_id}/events"
                           f"?offset={len(collected)}")
            collected.extend(page["events"])
            return page

        wait_for(
            lambda: (poll_events()
                     and any(e["phase"].startswith("pass")
                             for e in collected)
                     and store.get(job_id).state == "running"),
            timeout=60,
            message="job running with progress events on disk",
        )
        print(f"job is mid-run with {len(collected)} events polled "
              f"-- SIGKILL the server")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
    except BaseException:
        if proc.poll() is None:
            proc.kill()
        raise

    proc, port, _banner = start_server(store_root)
    try:
        # Resume the event poll exactly where the dead server left it.
        resumed = request(port, "GET",
                          f"/jobs/{job_id}/events?offset={len(collected)}")
        collected.extend(resumed["events"])
        assert_gapless(collected)
        phases = [event["phase"] for event in collected]
        if "requeued" not in phases:
            raise SystemExit(f"no requeued event after recovery: {phases}")
        print(f"event log resumed across the crash: {len(collected)} "
              f"events, gapless, requeued marker present")

        final = wait_for(
            lambda: (store.get(job_id)
                     if store.get(job_id).state in
                     ("done", "failed", "cancelled") else None),
            timeout=120,
            message="recovered job to finish",
        )
        if final.state != "done":
            raise SystemExit(f"recovered job ended {final.state!r}: "
                             f"{final.error}")
        original = store.read_result_bytes(job_id)

        # The final poll must close the log with a done marker, still
        # gapless.
        tail = request(port, "GET",
                       f"/jobs/{job_id}/events?offset={len(collected)}")
        collected.extend(tail["events"])
        assert_gapless(collected)
        if collected[-1]["phase"] != "done":
            raise SystemExit(
                f"log does not end with done: {collected[-1]}"
            )

        # Identical resubmission: served from the cache, byte-identical.
        duplicate = request(port, "POST", "/jobs", submission)
        dup_id = duplicate["job_id"]
        dup = store.get(dup_id)
        if not dup.cache_hit or dup.state != "done":
            raise SystemExit(
                f"resubmission was not a cache hit: state={dup.state!r} "
                f"cache_hit={dup.cache_hit!r}"
            )
        if store.read_result_bytes(dup_id) != original:
            raise SystemExit("cache-served result is not byte-identical")
        health = request(port, "GET", "/healthz")
        if health["cache"]["hits"] < 1:
            raise SystemExit(f"healthz shows no cache hit: "
                             f"{health['cache']}")
        print(f"identical resubmission served from cache "
              f"(job {dup_id}): byte-identical "
              f"({len(original)} bytes), healthz {health['cache']}")
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
    print("OK: the client-edge robustness contract held")
    return 0



def main() -> int:
    """Run the smoke in a work directory kept only if it fails."""
    workdir = Path(tempfile.mkdtemp(prefix="repro-cache-chaos-"))
    code = 1
    try:
        code = smoke(workdir)
    finally:
        if code == 0:
            shutil.rmtree(workdir, ignore_errors=True)
        else:
            print(f"work directory kept: {workdir}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
