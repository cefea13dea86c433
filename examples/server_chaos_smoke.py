"""CI server chaos smoke: SIGKILL the job server mid-job, demand bytes.

The server-level twin of ``chaos_smoke.py``.  This script:

1. starts ``repro serve`` as a real subprocess on a durable store,
2. submits a checkpointed apriori job throttled to one pass boundary
   per second,
3. SIGKILLs the *server* once the job is running with at least one
   persisted snapshot — no shutdown hooks, no cleanup,
4. restarts the server against the same store,
5. asserts the job is recovered, finishes ``done``, and that its
   stored result bytes equal an uninterrupted in-process reference,
6. asserts that ``/healthz`` (answered from the restarted server's
   in-memory job index) counts the jobs and events a fresh scan of the
   store counts.

Exit code 0 means the fault-tolerance contract held; any other exit
fails CI.
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
from repro.server import JobStore, canonical_result_bytes, execute_job

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


def smoke(workdir: Path) -> int:
    dataset = workdir / "basket.dat"
    save_transactions(quest_basket(150, random_state=0), str(dataset))
    store_root = workdir / "store"

    reference = canonical_result_bytes(
        execute_job("mine", str(dataset), "apriori", PARAMS)
    )
    print(f"reference result: {len(reference)} bytes")

    proc, port, _banner = start_server(store_root)
    store = JobStore(store_root)
    try:
        record = request(port, "POST", "/jobs", {
            "kind": "mine", "algorithm": "apriori",
            "dataset": str(dataset), "params": PARAMS,
        })
        job_id = record["job_id"]
        print(f"submitted job {job_id}")

        wait_for(
            lambda: (store.get(job_id).state == "running"
                     and list(store.checkpoint_dir(job_id)
                              .glob("snapshot-*"))),
            timeout=60,
            message="job running with a persisted checkpoint",
        )
        print("job is mid-run with a snapshot on disk -- SIGKILL the server")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
    except BaseException:
        if proc.poll() is None:
            proc.kill()
        raise

    state = store.get(job_id).state
    print(f"store after the kill: job is {state!r}")
    if state != "running":
        raise SystemExit(f"expected the dead server to leave the job "
                         f"running, found {state!r}")

    proc, port, banner = start_server(store_root)
    try:
        if not any(f"recovered job={job_id}" in line for line in banner):
            raise SystemExit("restarted server did not report the recovery")
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
        result = store.read_result_bytes(job_id)
        if result != reference:
            raise SystemExit("recovered result differs from the "
                             "uninterrupted reference")
        print(f"recovered job finished done after {final.recoveries} "
              f"recovery, {final.attempts} attempts; result is "
              f"byte-identical ({len(result)} bytes)")
        health = request(port, "GET", "/healthz")
        scanned = JobStore(store_root)
        expected = {"jobs": scanned.counts(),
                    "events_appended": scanned.events_appended_total()}
        served = {name: health[name] for name in expected}
        if served != expected:
            raise SystemExit(f"/healthz {served} differs from a fresh "
                             f"scan of the store {expected}")
        print(f"/healthz matches a fresh scan: {served}")
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
    print("OK: the server-level fault-tolerance contract held")
    return 0



def main() -> int:
    """Run the smoke in a work directory kept only if it fails."""
    workdir = Path(tempfile.mkdtemp(prefix="repro-server-chaos-"))
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
