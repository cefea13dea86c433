"""Load generator: inputs, program processes, the closed loop and checks.

One process drives every workload.  It generates the inputs from the
seed, starts the program (one ``python -m repro.cli`` process per CLI
op, or one ``repro serve``), runs one op at a time, times each op from
the client side and checks every output against a reference it
computes itself.  The traced pass starts the same program through
``boot.py`` instead of ``-m repro.cli``.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import io
import json
import os
import platform
import re
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BOOT = Path(__file__).resolve().parent / "boot.py"

WORKLOADS = ("cli", "jobs_fresh", "jobs_cached")
KINDS = ("mine", "classify", "cluster")

#: Input sizes per kind, chosen so that no kind dominates its workload:
#: the CLI pays the O(n^2) silhouette on its clusters, the server does
#: not, so the server's E9 grid is larger.
CLI_ROWS = {"mine": 2000, "classify": 500, "cluster": 1500}
JOB_ROWS = {"mine": 1000, "classify": 500, "cluster": 8000}

#: Aged store size for ``jobs_fresh`` (admission and dispatch each scan it).
AGED_JOBS = 500

#: Datasets per kind for the workloads that reuse their inputs.  How much
#: one dataset costs depends on its seed (a long Quest pattern adds
#: passes); rotating several keeps one seed from setting the run's figures.
VARIANTS = {"cli": 4, "jobs_cached": 2}

POLL_INTERVAL_S = 0.02
OP_TIMEOUT_S = 60.0
BOOT_TIMEOUT_S = 60.0
TERMINAL = {"done", "failed", "cancelled", "poisoned"}


def program_env() -> Dict[str, str]:
    """The user's environment plus the checkout's ``src`` on the path.

    BLAS threading is left at the user's default on purpose: the
    OpenBLAS pool start-up is part of every CLI op's start-up cost.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def program_cmd(traced: bool) -> List[str]:
    return [sys.executable, str(BOOT)] if traced else [sys.executable, "-m", "repro.cli"]


# ----------------------------------------------------------------------
# Inputs and the op sequence
# ----------------------------------------------------------------------
def derive_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a job kind on one dataset."""

    index: int
    kind: str
    data_seed: int
    rows: int

    @property
    def filename(self) -> str:
        suffix = "dat" if self.kind == "mine" else "csv"
        return f"{self.kind}-{self.rows}-{self.data_seed}.{suffix}"

    def cli_argv(self, data_dir: Path) -> List[str]:
        path = str(data_dir / self.filename)
        return {
            "mine": ["mine", path, "--min-support", "0.05"],
            "classify": ["classify", path, "--target", "group"],
            "cluster": ["cluster", path, "--k", "9"],
        }[self.kind]

    def job_request(self, data_dir: Path) -> Dict:
        path = str(data_dir / self.filename)
        return {
            "mine": {"kind": "mine", "algorithm": "apriori", "dataset": path,
                     "params": {"min_support": 0.05, "min_confidence": 0.6}},
            "classify": {"kind": "classify", "algorithm": "sliq",
                         "dataset": path, "params": {"target": "group"}},
            "cluster": {"kind": "cluster", "algorithm": "kmeans",
                        "dataset": path, "params": {"k": 9}},
        }[self.kind]


def warmup_ops(workload: str) -> int:
    """Untimed warm-up ops: one per kind, and for ``jobs_cached`` one
    per distinct job, so that every job it resubmits is cached."""
    return len(KINDS) * (VARIANTS["jobs_cached"] if workload == "jobs_cached" else 1)


def make_op(workload: str, seed: int, index: int) -> Op:
    """Op ``index`` of a workload: a pure function of the seed.

    Ops rotate through the three kinds; the first :func:`warmup_ops`
    are the untimed warm-up.  ``cli`` and ``jobs_cached`` rotate through
    :data:`VARIANTS` datasets per kind; ``jobs_fresh`` gives every op a
    dataset of its own, so the server never sees the same content twice.
    """
    kind = KINDS[index % len(KINDS)]
    if workload == "jobs_fresh":
        return Op(index, kind, derive_seed(seed, workload, index), JOB_ROWS[kind])
    if workload not in VARIANTS:
        raise ValueError(f"unknown workload {workload!r}")
    variant = (index // len(KINDS)) % VARIANTS[workload]
    rows = CLI_ROWS if workload == "cli" else JOB_ROWS
    return Op(index, kind, derive_seed(seed, workload, kind, variant), rows[kind])


def op_sequence(workload: str, seed: int, count: int) -> List[Op]:
    return [make_op(workload, seed, index) for index in range(count)]


def write_dataset(op: Op, data_dir: Path) -> Path:
    from repro.core.table import Table, numeric
    from repro.datasets import (agrawal, gaussian_grid, quest_basket,
                                save_table, save_transactions)

    path = data_dir / op.filename
    if path.exists():
        return path
    if op.kind == "mine":
        save_transactions(quest_basket(op.rows, 10, 4, random_state=op.data_seed), path)
    elif op.kind == "classify":
        save_table(agrawal(op.rows, function=2, noise=0.05,
                           random_state=op.data_seed), path)
    else:
        X, _ = gaussian_grid(op.rows, grid_side=3, random_state=op.data_seed)
        save_table(Table([numeric("x"), numeric("y")],
                         {"x": X[:, 0], "y": X[:, 1]}), path)
    return path


# ----------------------------------------------------------------------
# References (computed in worker processes after the timed loop)
# ----------------------------------------------------------------------
def cli_reference(argv: List[str]) -> bytes:
    """What ``repro.cli.main`` prints in-process for ``argv``."""
    from repro.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"reference run of {argv} exited {code}")
    return buffer.getvalue().encode()


def job_reference(request: Dict) -> bytes:
    """The server's byte-identity contract: canonical bytes of execute_job."""
    from repro.server.scheduler import canonical_result_bytes, execute_job

    return canonical_result_bytes(execute_job(
        request["kind"], request["dataset"], request["algorithm"],
        request["params"]))


REFERENCES = {"cli": cli_reference, "job": job_reference}


def compute_references(kind: str, inputs: Dict[str, object]) -> Dict[str, bytes]:
    """SHA-256 of the ``kind`` reference over distinct inputs.

    Two worker processes (``python3 harness.py``) split the inputs; the
    load generator waits for both, so it leaves no process behind.
    """
    items = sorted(inputs.items())
    workers = []
    for share in (items[0::2], items[1::2]):
        if not share:
            continue
        proc = subprocess.Popen(
            [sys.executable, __file__, kind], env=program_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        workers.append((proc, json.dumps(dict(share)).encode()))
    digests: Dict[str, bytes] = {}
    for proc, request in workers:
        out, _ = proc.communicate(request)
        if proc.returncode != 0:
            raise RuntimeError(f"reference worker exited {proc.returncode}")
        digests.update({key: bytes.fromhex(value)
                        for key, value in json.loads(out.splitlines()[-1]).items()})
    return digests


# ----------------------------------------------------------------------
# Program processes
# ----------------------------------------------------------------------
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def process_cpu_s(pid: int) -> Tuple[float, float]:
    """(user, system) CPU seconds of a live process plus every child it
    has reaped."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    utime, stime, cutime, cstime = (int(value) for value in fields[11:15])
    return (utime + cutime) / _CLK_TCK, (stime + cstime) / _CLK_TCK


def children_cpu_s() -> Tuple[float, float]:
    """(user, system) CPU seconds of every child this process has reaped."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime, usage.ru_stime


def peak_rss_mb(pid: int) -> float:
    """VmHWM of a live process (0 once it has exited).

    ``ru_maxrss`` cannot be used for the program's processes: exec
    carries the spawning process's peak into the child's, so every
    process the load generator starts would report at least the load
    generator's own size.
    """
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def reset_peak_rss(pid: int) -> None:
    """Reset a live process's VmHWM to its current resident set."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def descendants(pid: int) -> List[int]:
    """``pid`` and every live process below it."""
    found, stack = [], [pid]
    while stack:
        current = stack.pop()
        found.append(current)
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    stack.extend(int(child) for child in handle.read().split())
            except OSError:
                pass
    return found


class RssSampler:
    """Samples the peak RSS of the program's processes every 10 ms.

    ``roots()`` returns the pids to watch (the current CLI process, or
    the server); their descendants are watched too.  VmHWM is a
    high-water mark, so one sample after a process's peak suffices;
    :meth:`reset` starts a new one.
    """

    def __init__(self, roots):
        self.roots = roots
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample(self) -> None:
        for root in self.roots():
            for pid in descendants(root):
                self.peak_mb = max(self.peak_mb, peak_rss_mb(pid))

    def reset(self) -> None:
        """Start a new peak.  The high-water mark of every watched process
        alive now is reset too, so that what a long-lived process (the
        server) reached before does not count again."""
        self.peak_mb = 0.0
        for root in self.roots():
            for pid in descendants(root):
                reset_peak_rss(pid)

    def _run(self) -> None:
        while not self._stop.wait(0.01):
            self.sample()

    def __enter__(self) -> "RssSampler":
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


class Server:
    """One ``repro serve`` process on a given store."""

    def __init__(self, store: Path, log: Path, traced: bool = False,
                 trace_dir: Optional[Path] = None):
        self.store, self.log, self.traced = store, log, traced
        self.env = program_env()
        if traced:
            self.env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Start and wait for the listening banner; returns boot seconds."""
        cmd = program_cmd(self.traced) + ["serve", "--store", str(self.store),
                                          "--port", "0"]
        with open(self.log, "ab") as log:
            started = time.perf_counter()
            self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                         stderr=log, env=self.env)
        deadline = started + BOOT_TIMEOUT_S
        while True:
            remaining = deadline - time.perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
            if not ready:
                self.stop()
                raise RuntimeError(f"server on {self.store} did not boot")
            line = self.proc.stdout.readline().decode()
            if not line:
                self.stop()
                raise RuntimeError(f"server on {self.store} exited during boot; "
                                   f"see {self.log}")
            if line.startswith("repro-server listening"):
                booted = time.perf_counter() - started
                self.port = int(re.search(r"port=(\d+)", line).group(1))
                return booted

    def cpu_s(self) -> Tuple[float, float]:
        return process_cpu_s(self.proc.pid)

    def stop(self, sig: int = signal.SIGTERM) -> None:
        """Stop the server: SIGTERM drains it (and lets a traced server
        write its spans); SIGKILL suits a throwaway boot."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


def http_request(port: int, method: str, path: str, body: Optional[bytes] = None):
    """One request on a connection of its own, as ``curl`` sends it.

    At most one connection is open at a time.  A keep-alive connection
    would instead stall ~40 ms on most responses: the handler writes the
    headers and the body as two segments, so Nagle's algorithm holds the
    body until the client's delayed ACK of the headers.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=OP_TIMEOUT_S)
    try:
        headers = {"Connection": "close"}
        if body:
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def submit_and_fetch(port: int, request: Dict) -> Tuple[Optional[bytes], str]:
    """POST a job, poll until it ends, GET its result.

    Returns (result bytes or None, note).  None means the op failed:
    refused, errored, or the job did not finish ``done``.
    """
    deadline = time.perf_counter() + OP_TIMEOUT_S
    status, raw = http_request(port, "POST", "/jobs", json.dumps(request).encode())
    if status not in (200, 202):
        return None, f"POST /jobs answered {status}"
    record = json.loads(raw)
    job_id, state = record["job_id"], record["state"]
    while state not in TERMINAL:
        if time.perf_counter() > deadline:
            return None, f"job {job_id} still {state} after {OP_TIMEOUT_S}s"
        time.sleep(POLL_INTERVAL_S)
        status, raw = http_request(port, "GET", f"/jobs/{job_id}")
        if status != 200:
            return None, f"GET /jobs/{job_id} answered {status}"
        state = json.loads(raw)["state"]
    if state != "done":
        return None, f"job {job_id} ended {state}"
    status, body = http_request(port, "GET", f"/jobs/{job_id}/result")
    if status != 200:
        return None, f"GET /jobs/{job_id}/result answered {status}"
    return body, "cache_hit" if record.get("cache_hit") else "ran"


def run_cli(argv: List[str], traced: bool, env: Dict[str, str], cwd: Path,
            pids: List[int]) -> Tuple[Optional[bytes], str]:
    """Run one CLI process to completion; its pid is appended to ``pids``."""
    proc = subprocess.Popen(program_cmd(traced) + list(argv), cwd=cwd, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    pids.append(proc.pid)
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"{argv[0]} timed out"
    if proc.returncode != 0:
        return None, f"{argv[0]} exited {proc.returncode}: {err.decode()[-300:]}"
    return out, "ran"


def age_store(store: Path, data_dir: Path, count: int, seed: int) -> None:
    """Write ``count`` finished jobs through JobStore's public methods."""
    from repro.server.store import JobStore

    jobs = JobStore(store)
    samples = op_sequence("jobs_fresh", derive_seed(seed, "aged"), len(KINDS))
    for op in samples:
        write_dataset(op, data_dir)
    for index in range(count):
        request = samples[index % len(samples)].job_request(data_dir)
        record = jobs.create(tenant="default", kind=request["kind"],
                             algorithm=request["algorithm"],
                             dataset=request["dataset"], params=request["params"])
        jobs.transition(record.job_id, "running", attempts=1)
        jobs.write_result_bytes(record.job_id, b'{"aged":true}\n')
        jobs.transition(record.job_id, "done")


# ----------------------------------------------------------------------
# Host record
# ----------------------------------------------------------------------
#: Iterations of the probe loop, and the time it takes at the reference
#: speed that the speed-scaled metrics are expressed in (about the middle
#: of the two speeds the reference host switches between).
PROBE_ITERATIONS = 50_000
REFERENCE_PROBE_MS = 5.0

#: CPUs the probe visits at most (it visits each one in turn).
PROBE_MAX_CPUS = 8


def _probe_loop_ms(repeats: int) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for value in range(PROBE_ITERATIONS):
            total += value * value % 7
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def host_probe_ms(repeats: int = 15) -> float:
    """Time of a fixed pure-Python loop, in ms.

    The loop is harness-only, so a change to the program cannot move it;
    it moves only with the host's speed.  The median of ``repeats`` runs
    is taken on each CPU this process may use, and the mean over the
    CPUs returned: at a given moment the reference host's two CPUs run
    at different speeds (their ratio varies from 0.7 to 1.5), and the
    program may run on either.  The process's affinity is restored
    before it returns, so the program processes it starts inherit it.
    """
    allowed = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(allowed)[:PROBE_MAX_CPUS]:
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(_probe_loop_ms(repeats))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.mean(per_cpu)


def filesystem_of(path: Path) -> str:
    best, fstype = "", "unknown"
    target = str(path.resolve())
    with open("/proc/mounts") as handle:
        for line in handle:
            parts = line.split()
            mount = parts[1]
            if (target == mount or target.startswith(mount.rstrip("/") + "/")) \
                    and len(mount) >= len(best):
                best, fstype = mount, parts[2]
    return fstype


def environment(store_dir: Path) -> Dict[str, object]:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "store_fs": filesystem_of(store_dir),
    }


def blas_threads() -> object:
    """OpenBLAS pool size as numpy's BLAS reports it, else 'unknown'."""
    import ctypes

    import numpy  # noqa: F401 - loads the BLAS library

    with open("/proc/self/maps") as handle:
        libs = set(re.findall(r"/\S*openblas\S*\.so\S*", handle.read()))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return "unknown"


if __name__ == "__main__":
    # Reference worker: {key: input} on stdin, {key: sha256 hex} on stdout.
    sys.path.insert(0, str(SRC))
    reference = REFERENCES[sys.argv[1]]
    print(json.dumps({key: hashlib.sha256(reference(value)).hexdigest()
                      for key, value in json.load(sys.stdin).items()}))
