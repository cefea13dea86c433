"""CI disk-fault smoke: seeded ENOSPC/EIO bursts against a live job run.

The storage-level twin of ``server_chaos_smoke.py``.  For every cell of
a small (fault-op x seed) matrix this script:

1. opens a fresh durable store and an in-process scheduler with a
   tight lease so a swallowed write failure can never wedge a job,
2. installs a seeded :class:`DiskGremlin` that injects a burst of
   ``ENOSPC`` (or ``EIO``) at one stage of the atomic-write protocol —
   temp write, fsync, rename, or directory fsync — at a seeded point
   in the run,
3. submits a checkpointed apriori job and waits for a terminal state,
4. asserts the robustness contract: the job either completes with
   result bytes identical to an uninterrupted reference, or fails with
   a structured ``store-full`` / ``disk-error`` cause — and whatever
   happened, every record left in the store parses (no torn JSON, no
   stranded temp files after recovery), and the live store's in-memory
   job index counts what a fresh scan of the disk counts.

Exit code 0 means the contract held for every cell; any other exit
fails CI.
"""

import errno
import json
import shutil
import tempfile
import time
from pathlib import Path

from repro.datasets import quest_basket, save_transactions
from repro.runtime import DiskGremlin, injected
from repro.server import JobStore, canonical_result_bytes, execute_job
from repro.server.scheduler import Scheduler

PARAMS = {
    "min_support": 0.02,
    "min_confidence": 0.6,
    "checkpoint_every": 1,
}
TERMINAL = ("done", "failed", "cancelled", "poisoned")
DEADLINE = 120.0

# One cell per protocol stage, each with its own seed and errno.  The
# seeded ``after`` draw decides whether the burst lands on the job's
# result write (→ structured failure) or misses it (→ clean run), so
# both arms of the contract get exercised across the matrix.  Faults
# are scoped to the durable job record: child-side checkpoint faults
# replay identically on every forked retry (the injector is copied at
# fork) and poison the job instead — that arm is pinned by the unit
# tests, not this smoke.
MATRIX = [
    # (op, errno, after, seed): after=0 pins a burst on the very first
    # result write; after=(0, 1) lets the seed decide.
    ("write", errno.ENOSPC, 0, 0),
    ("fsync", errno.EIO, 0, 1),
    ("replace", errno.ENOSPC, 0, 2),
    ("fsync-dir", errno.EIO, 0, 3),
    ("write", errno.ENOSPC, (0, 1), 4),
    ("replace", errno.ENOSPC, (0, 1), 5),
]


def wait_terminal(store, job_id):
    deadline = time.monotonic() + DEADLINE
    while time.monotonic() < deadline:
        record = store.get(job_id)
        if record.state in TERMINAL:
            return record
        time.sleep(0.1)
    raise SystemExit(
        f"WEDGED: job {job_id} still {store.get(job_id).state!r} "
        f"after {DEADLINE}s"
    )


def check_store_integrity(store_root: Path) -> int:
    """Every record on disk must parse — a torn file fails the smoke."""
    checked = 0
    for path in sorted(store_root.rglob("*.json")):
        try:
            json.loads(path.read_bytes())
        except ValueError:
            raise SystemExit(f"TORN RECORD: {path} does not parse")
        checked += 1
    return checked


def run_cell(workdir: Path, dataset: str, reference: bytes, op: str,
             errno_code: int, after, seed: int) -> str:
    store = JobStore(workdir / "store")
    scheduler = Scheduler(store, workers=1, lease_timeout=2.0,
                          reap_interval=0.25)
    gremlin = DiskGremlin(op=op, errno_code=errno_code, after=after,
                          burst=2, match="result.json", random_state=seed)
    scheduler.start()
    try:
        with injected(gremlin):
            record = scheduler.submit("t", "mine", "apriori", dataset,
                                      dict(PARAMS))
            final = wait_terminal(store, record.job_id)
    finally:
        scheduler.stop()

    scanned = JobStore(workdir / "store").counts()
    if store.counts() != scanned:
        raise SystemExit(
            f"STALE INDEX: seed {seed} op {op!r}: the live store counts "
            f"{store.counts()}, a fresh scan {scanned}"
        )

    if final.state == "done":
        result = store.read_result_bytes(record.job_id)
        if result != reference:
            raise SystemExit(
                f"TORN RESULT: seed {seed} op {op!r} completed but bytes "
                "differ from the uninterrupted reference"
            )
        outcome = "done, byte-identical"
    elif final.state == "failed":
        cause = (final.error or {}).get("cause")
        if cause not in ("store-full", "disk-error"):
            raise SystemExit(
                f"UNSTRUCTURED FAILURE: seed {seed} op {op!r} failed "
                f"with cause {cause!r}, error={final.error}"
            )
        outcome = f"failed, structured cause {cause!r}"
    else:
        raise SystemExit(
            f"UNEXPECTED STATE: seed {seed} op {op!r} ended "
            f"{final.state!r}: {final.error}"
        )

    # A fresh boot over the battered store must sweep temps and leave
    # only parseable records behind.
    recovered_store = JobStore(workdir / "store")
    recovered_store.recover()
    checked = check_store_integrity(workdir / "store")
    return f"{outcome}; {len(gremlin.injected)} faults; {checked} records ok"


def smoke(workdir: Path) -> int:
    dataset = workdir / "basket.dat"
    save_transactions(quest_basket(150, random_state=0), str(dataset))

    reference = canonical_result_bytes(
        execute_job("mine", str(dataset), "apriori", PARAMS)
    )
    print(f"reference result: {len(reference)} bytes")

    for cell, (op, errno_code, after, seed) in enumerate(MATRIX):
        summary = run_cell(workdir / f"cell-{cell}", str(dataset), reference,
                           op, errno_code, after, seed)
        print(f"  op={op:<9} errno={errno.errorcode[errno_code]:<6} "
              f"after={after!s:<6} seed={seed}: {summary}")

    print("OK: no wedged job, no torn record, every failure structured")
    return 0


def main() -> int:
    """Run the smoke in a work directory kept only if it fails."""
    workdir = Path(tempfile.mkdtemp(prefix="repro-disk-fault-smoke-"))
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
