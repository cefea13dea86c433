"""The three workloads and the closed loop that drives them.

Every workload runs one op at a time (one client, one connection), so
at most one job is busy on the host.  A pass is: prepare the inputs and
the on-disk state, start the program, run the untimed warm-up ops, then
time the op sequence in segments.  Between segments (and before the
first and after the last) the untraced pass repeats the program's
stand-up step once, so the ``setup_s`` samples are spread over the run.

Each segment is cut into slices of about :data:`SLICE_S` of op time.
Before and after every slice the load generator times the host probe,
so each slice's CPU and each op's latency can be scaled to the
reference host speed (see ``harness.REFERENCE_PROBE_MS``).
"""

from __future__ import annotations

import gc
import hashlib
import math
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import harness
from harness import KINDS, Op


@dataclass
class OpRecord:
    """One timed op.  ``output`` is the SHA-256 of what the program
    returned (None when the op failed), so the load generator stays
    small however many ops it runs."""

    op: Op
    start: float
    end: float
    output: Optional[bytes]
    note: str
    failed: bool = False
    #: Host probe time around the op's slice, in ms.
    probe_ms: float = harness.REFERENCE_PROBE_MS

    @property
    def latency(self) -> float:
        return self.end - self.start

    @property
    def scaled_latency(self) -> float:
        """Latency at the reference host speed."""
        return self.latency * harness.REFERENCE_PROBE_MS / self.probe_ms


def digest(data: Optional[bytes]) -> Optional[bytes]:
    return None if data is None else hashlib.sha256(data).digest()


@dataclass
class Slice:
    """A run of consecutive ops between two host probes."""

    ops: int
    wall_s: float
    user_s: float
    system_s: float
    #: Mean of the probe times just before and just after the slice, in ms.
    probe_ms: float

    @property
    def cpu_s(self) -> float:
        return self.user_s + self.system_s

    @property
    def scale(self) -> float:
        """Factor that takes this slice's times to the reference speed."""
        return harness.REFERENCE_PROBE_MS / self.probe_ms


@dataclass
class PassResult:
    workload: str
    records: List[OpRecord]
    slices: List[Slice]
    #: Largest resident set of any program process, per segment.
    segment_rss_mb: List[float]
    setup_samples: List[float]
    probe_ms: Dict[str, float]
    mismatches: List[str] = field(default_factory=list)

    @property
    def latencies(self) -> List[float]:
        return [record.latency for record in self.records]

    @property
    def scaled_latencies(self) -> List[float]:
        return [record.scaled_latency for record in self.records]

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.slices)

    @property
    def cpu_s(self) -> float:
        return sum(s.cpu_s for s in self.slices)

    @property
    def scaled_wall_s(self) -> float:
        return sum(s.wall_s * s.scale for s in self.slices)

    @property
    def scaled_cpu_s(self) -> float:
        return sum(s.cpu_s * s.scale for s in self.slices)

    @property
    def user_s(self) -> float:
        return sum(s.user_s for s in self.slices)

    @property
    def scaled_user_s(self) -> float:
        return sum(s.user_s * s.scale for s in self.slices)

    @property
    def median_probe_ms(self) -> float:
        """Median probe time over the slices."""
        return statistics.median(s.probe_ms for s in self.slices)

    @property
    def failed(self) -> int:
        return sum(record.failed for record in self.records)


class Workload:
    """Shared pieces: the work directory, inputs and per-op bookkeeping."""

    name = ""

    def __init__(self, seed: int, work: Path, traced: bool):
        self.seed, self.work, self.traced = seed, work, traced
        self.data = work / "data"
        self.trace_dir = work / "trace"
        for path in (self.data, self.trace_dir):
            path.mkdir(parents=True, exist_ok=True)
        self.env = harness.program_env()
        if traced:
            self.env["PERFBENCH_TRACE_DIR"] = str(self.trace_dir)
        #: pids of the CLI processes started so far (the RSS sampler
        #: watches the newest).
        self.pids: List[int] = []

    def ops(self, count: int) -> List[Op]:
        return harness.op_sequence(self.name, self.seed, count)

    def op_at(self, index: int) -> Op:
        return harness.make_op(self.name, self.seed, index)

    def ensure_inputs(self, ops: List[Op]) -> None:
        for op in ops:
            harness.write_dataset(op, self.data)

    def prepare(self) -> None:
        """Build the on-disk state every run starts from (untimed)."""

    def start(self) -> None:
        """Start the long-running program process, if any."""

    def stop(self) -> None:
        """Stop every program process this workload started."""

    def op(self, op: Op) -> OpRecord:
        raise NotImplementedError

    def warm(self, op: Op) -> OpRecord:
        return self.op(op)

    def after_warmup(self) -> None:
        """Snapshot state the stand-up samples boot from (untimed)."""

    def setup_sample(self) -> float:
        raise NotImplementedError

    def cpu_s(self) -> Tuple[float, float]:
        """(user, system) CPU seconds of the program's processes so far."""
        raise NotImplementedError

    def watched(self) -> List[int]:
        """Program processes whose peak RSS the sampler tracks."""
        raise NotImplementedError

    def check(self, records: List[OpRecord]) -> List[str]:
        """Mark records whose output differs from the reference."""
        raise NotImplementedError


def _mark(records: List[OpRecord], expected: Dict[str, bytes], key) -> List[str]:
    problems = []
    for record in records:
        if record.failed:
            problems.append(f"op {record.op.index} ({record.op.kind}): {record.note}")
            continue
        if record.output != expected.get(key(record.op)):
            record.failed = True
            problems.append(f"op {record.op.index} ({record.op.kind}): "
                            f"output differs from the reference")
    return problems


class CliWorkload(Workload):
    """One ``python -m repro.cli`` process per op, rotating three commands."""

    name = "cli"

    def op(self, op: Op) -> OpRecord:
        start = time.perf_counter()
        output, note = harness.run_cli(op.cli_argv(self.data), self.traced,
                                       self.env, self.work, self.pids)
        end = time.perf_counter()
        return OpRecord(op, start, end, digest(output), note, failed=output is None)

    def setup_sample(self) -> float:
        start = time.perf_counter()
        output, note = harness.run_cli(["algorithms"], False, self.env, self.work, [])
        elapsed = time.perf_counter() - start
        if output is None:
            raise RuntimeError(f"repro algorithms failed: {note}")
        return elapsed

    def cpu_s(self) -> Tuple[float, float]:
        return harness.children_cpu_s()

    def watched(self) -> List[int]:
        return self.pids[-1:]

    def check(self, records: List[OpRecord]) -> List[str]:
        argvs = {" ".join(r.op.cli_argv(self.data)): r.op.cli_argv(self.data)
                 for r in records}
        expected = harness.compute_references("cli", argvs)
        return _mark(records, expected, lambda op: " ".join(op.cli_argv(self.data)))


class JobsWorkload(Workload):
    """``repro serve`` at its default settings, driven over HTTP."""

    def __init__(self, seed: int, work: Path, traced: bool):
        super().__init__(seed, work, traced)
        self.store = work / "store"
        self.setup_store = work / "setup-store"
        self.server: Optional[harness.Server] = None

    def start(self) -> None:
        self.server = harness.Server(self.store, self.work / "server.log",
                                     self.traced, self.trace_dir)
        self.server.start()

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def op(self, op: Op) -> OpRecord:
        request = op.job_request(self.data)
        start = time.perf_counter()
        try:
            output, note = harness.submit_and_fetch(self.server.port, request)
        except (OSError, ValueError, KeyError) as exc:
            if self.server.proc.poll() is not None:
                raise RuntimeError(f"the server exited; see {self.server.log}") from exc
            output, note = None, f"request failed: {exc!r}"
        end = time.perf_counter()
        return OpRecord(op, start, end, digest(output), note, failed=output is None)

    def setup_sample(self) -> float:
        server = harness.Server(self.setup_store, self.work / "setup.log")
        try:
            return server.start()
        finally:
            server.stop(signal.SIGKILL)

    def cpu_s(self) -> Tuple[float, float]:
        return self.server.cpu_s()

    def watched(self) -> List[int]:
        return [self.server.proc.pid]


class JobsFreshWorkload(JobsWorkload):
    """Every op is a dataset the server has never seen, on an aged store."""

    name = "jobs_fresh"

    def prepare(self) -> None:
        harness.age_store(self.store, self.data, harness.AGED_JOBS, self.seed)
        if not self.traced:
            shutil.copytree(self.store, self.setup_store)

    def check(self, records: List[OpRecord]) -> List[str]:
        requests = {r.op.filename: r.op.job_request(self.data) for r in records}
        expected = harness.compute_references("job", requests)
        return _mark(records, expected, lambda op: op.filename)


class JobsCachedWorkload(JobsWorkload):
    """Resubmits the warm-up jobs, whose results the cache already holds."""

    name = "jobs_cached"

    def __init__(self, seed: int, work: Path, traced: bool):
        super().__init__(seed, work, traced)
        self.originals: Dict[str, bytes] = {}

    def warm(self, op: Op) -> OpRecord:
        record = self.op(op)
        if record.output is not None and record.note == "ran":
            self.originals[op.filename] = record.output
        return record

    def after_warmup(self) -> None:
        if not self.traced:
            shutil.copytree(self.store, self.setup_store)

    def check(self, records: List[OpRecord]) -> List[str]:
        """A cached result must equal the original run's bytes, and the
        original must equal the reference."""
        warmup = self.ops(harness.warmup_ops(self.name))
        requests = {op.filename: op.job_request(self.data) for op in warmup}
        references = harness.compute_references("job", requests)
        expected = {name: original if original == references.get(name) else None
                    for name, original in self.originals.items()}
        return _mark(records, expected, lambda op: op.filename)


WORKLOAD_CLASSES = {cls.name: cls for cls in
                    (CliWorkload, JobsFreshWorkload, JobsCachedWorkload)}


#: Op time between two host probes.  The reference host switches speed
#: within seconds, so a slice must be short against that; the probe
#: costs a few ms, so a slice must be long against that.
SLICE_S = 0.5

#: Probe loops timed on each CPU between two slices (the median is taken).
SLICE_PROBE_REPEATS = 3


def run_pass(workload: Workload, seconds: float, n_ops: Optional[int] = None,
             setup_reps: int = 0) -> PassResult:
    """Warm up, then run the op sequence in a closed loop.

    With ``n_ops`` the pass runs exactly that many timed ops (the
    traced pass replays the untraced pass's ops); otherwise it runs
    ops for ``seconds`` of op time.
    """
    warmup = workload.ops(harness.warmup_ops(workload.name))
    workload.ensure_inputs(warmup)
    workload.prepare()
    records: List[OpRecord] = []
    slices: List[Slice] = []
    setup: List[float] = []
    segment_rss: List[float] = []
    workload.start()
    try:
        warm_latencies = []
        for op in warmup:
            record = workload.warm(op)
            if record.failed:
                raise RuntimeError(f"warm-up op {op.index} failed: {record.note}")
            warm_latencies.append(record.latency)
        typical = statistics.median(warm_latencies)
        workload.after_warmup()
        probe_before = harness.host_probe_ms()
        segments = max(1, setup_reps - 1)
        budget = seconds / segments
        index = len(warmup)
        if n_ops is not None:
            workload.ensure_inputs([workload.op_at(i) for i in
                                    range(index, index + n_ops)])
        sampler = harness.RssSampler(workload.watched)
        for _segment in range(segments):
            if setup_reps:
                setup.append(workload.setup_sample())
            if n_ops is None:
                ahead = math.ceil(budget / max(typical, 0.001) * 1.25) + len(KINDS)
                workload.ensure_inputs([workload.op_at(i) for i in
                                        range(index, index + ahead)])
            # The load generator's own collector pauses would land in
            # op latencies; collect between segments instead.
            gc.collect()
            gc.disable()
            sampler.reset()
            spent = 0.0
            probe = harness.host_probe_ms(SLICE_PROBE_REPEATS)
            while (len(records) < n_ops if n_ops is not None else spent < budget):
                first = len(records)
                cpu_before = workload.cpu_s()
                started = time.perf_counter()
                # The sampler thread would hold the GIL against the
                # probe, so it runs only while ops run.
                with sampler:
                    while (len(records) < n_ops if n_ops is not None
                           else spent + time.perf_counter() - started < budget):
                        op = workload.op_at(index)
                        workload.ensure_inputs([op])
                        records.append(workload.op(op))
                        index += 1
                        if time.perf_counter() - started >= SLICE_S:
                            break
                wall = time.perf_counter() - started
                user, system = (now - before for now, before in
                                zip(workload.cpu_s(), cpu_before))
                spent += wall
                after = harness.host_probe_ms(SLICE_PROBE_REPEATS)
                current = Slice(len(records) - first, wall, user, system,
                                (probe + after) / 2)
                for record in records[first:]:
                    record.probe_ms = current.probe_ms
                slices.append(current)
                probe = after
            gc.enable()
            segment_rss.append(sampler.peak_mb)
        if setup_reps:
            setup.append(workload.setup_sample())
        probe_after = harness.host_probe_ms()
    finally:
        gc.enable()
        workload.stop()
    result = PassResult(workload.name, records, slices, segment_rss, setup,
                        {"before_ms": probe_before, "after_ms": probe_after})
    result.mismatches = workload.check(records)
    return result
