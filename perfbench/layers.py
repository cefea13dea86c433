"""Per-layer metrics from the traced pass's spans.

Spans come from ``tracer.py`` in every program process (the CLI, the
server and its forked job children).  Each span is attributed to the op
whose client-side time window contains its start: the loop is closed,
so exactly one op is in flight at any time.  Every metric is a total
over the pass divided by the number of ops.

A span's *self* time is its duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import bisect
import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

#: (metric, unit) in report order; the README maps each to the
#: end-to-end metric it should move.
METRICS: List[Tuple[str, str]] = [
    ("cli.startup_s", "s"), ("cli.report_s", "s"),
    ("datasets.load_s", "s"), ("datasets.load_bytes", "bytes"),
    ("core.columnar.encode_s", "s"),
    ("associations.mine_s", "s"), ("associations.candidates", "count"),
    ("associations.frequent", "count"),
    ("associations.frequent_per_candidate", "ratio"),
    ("associations.rules_s", "s"), ("associations.rules", "count"),
    ("classification.fit_s", "s"), ("classification.predict_s", "s"),
    ("classification.nodes", "count"),
    ("clustering.fit_s", "s"), ("clustering.iterations", "count"),
    ("evaluation.silhouette_s", "s"), ("evaluation.report_s", "s"),
    ("runtime.context.steps", "count"),
    ("runtime.checkpoint.writes", "count"), ("runtime.checkpoint.bytes", "bytes"),
    ("runtime.checkpoint.save_s", "s"),
    ("runtime.supervisor.overhead_s", "s"), ("runtime.transport.bytes", "bytes"),
    ("runtime.fsio.writes", "count"), ("runtime.fsio.fsyncs", "count"),
    ("runtime.fsio.bytes", "bytes"), ("runtime.fsio.write_s", "s"),
    ("server.api.requests", "count"), ("server.api.ack_s", "s"),
    ("server.api.result_s", "s"), ("server.api.result_bytes", "bytes"),
    ("server.scheduler.admission_s", "s"), ("server.scheduler.queue_wait_s", "s"),
    ("server.scheduler.finalize_s", "s"),
    ("server.scheduler.canonical_json_s", "s"),
    ("server.store.scan_s", "s"), ("server.store.records_read", "count"),
    ("server.store.write_s", "s"), ("server.store.events", "count"),
    ("server.store.bytes_per_op", "bytes"),
    ("server.cache.key_s", "s"), ("server.cache.get_s", "s"),
    ("server.cache.put_s", "s"), ("server.cache.hit_ratio", "ratio"),
    ("ops.mine.latency_p50_s", "s"), ("ops.classify.latency_p50_s", "s"),
    ("ops.cluster.latency_p50_s", "s"),
    ("trace.overhead_s", "s"),
]


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "pid", "thread",
                 "attrs", "counts", "children")

    def __init__(self, row: list):
        (self.id, self.parent, self.name, self.start, self.end, self.pid,
         self.thread, self.attrs, self.counts) = row
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus the union of the children's intervals."""
        covered, reach = 0.0, self.start
        for child in sorted(self.children, key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration - covered


def load_spans(trace_dir: Path) -> List[Span]:
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as handle:
            spans.extend(Span(json.loads(line)) for line in handle if line.strip())
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None:
            parent.children.append(span)
    return spans


def attribute(spans: List[Span], windows: List[Tuple[float, float]]) -> List[Span]:
    """Spans that start inside some op's [start, end] window."""
    starts = [start for start, _end in windows]
    kept = []
    for span in spans:
        slot = bisect.bisect_right(starts, span.start) - 1
        if slot >= 0 and span.start <= windows[slot][1]:
            kept.append(span)
    return kept


def _outermost(spans: List[Span], name: str, by_id: Dict[str, Span]) -> List[Span]:
    """Spans called ``name`` that do not run inside another such span."""
    out = []
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent)
        if parent is None:
            out.append(span)
    return out


def layer_metrics(spans: List[Span], windows: List[Tuple[float, float]]) -> Dict[str, float]:
    """Per-op layer metrics over the spans inside the op windows."""
    n_ops = max(1, len(windows))
    by_id = {span.id: span for span in spans}
    spans = attribute(spans, windows)
    named: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        named[span.name].append(span)

    def total(name: str) -> float:
        return sum(s.duration for s in _outermost(named[name], name, by_id))

    def attr_sum(name: str, key: str, where=lambda s: True) -> float:
        return sum(s.attrs.get(key, 0) for s in named[name] if where(s))

    out: Dict[str, float] = {}
    starts = [start for start, _end in windows]
    startup = 0.0
    for span in _outermost(named["cli.command"], "cli.command", by_id):
        slot = bisect.bisect_right(starts, span.start) - 1
        startup += span.start - windows[slot][0]
    out["cli.startup_s"] = startup
    out["cli.report_s"] = sum(s.self_time() for s in named["cli.command"])
    out["datasets.load_s"] = total("datasets.load")
    out["datasets.load_bytes"] = attr_sum("datasets.load", "bytes")
    out["core.columnar.encode_s"] = total("core.columnar.encode")
    out["associations.mine_s"] = total("associations.mine")
    candidates = attr_sum("associations.mine", "candidates")
    frequent = attr_sum("associations.mine", "frequent")
    out["associations.candidates"] = candidates
    out["associations.frequent"] = frequent
    out["associations.rules_s"] = total("associations.rules")
    out["associations.rules"] = attr_sum("associations.rules", "rules")
    out["classification.fit_s"] = total("classification.fit")
    out["classification.predict_s"] = total("classification.predict")
    out["classification.nodes"] = attr_sum("classification.fit", "nodes")
    out["clustering.fit_s"] = total("clustering.fit")
    out["clustering.iterations"] = attr_sum("clustering.fit", "iterations")
    out["evaluation.silhouette_s"] = total("evaluation.silhouette")
    out["evaluation.report_s"] = total("evaluation.report")
    out["runtime.context.steps"] = sum(s.counts.get("runtime.context.step", 0)
                                       for s in spans)

    writes = named["runtime.fsio.write"]
    checkpoint = [s for s in writes if s.attrs.get("caller") == "runtime.checkpoint"]
    out["runtime.checkpoint.writes"] = len(checkpoint)
    out["runtime.checkpoint.bytes"] = sum(s.attrs.get("bytes", 0) for s in checkpoint)
    out["runtime.checkpoint.save_s"] = total("runtime.checkpoint.mark")
    runs = _outermost(named["runtime.supervisor.run"], "runtime.supervisor.run", by_id)
    targets = [s for s in named["server.scheduler.execute_job"]
               if any(r.start <= s.start <= r.end for r in runs)]
    out["runtime.supervisor.overhead_s"] = (sum(r.duration for r in runs)
                                            - sum(t.duration for t in targets))
    out["runtime.transport.bytes"] = attr_sum("runtime.transport.read", "bytes")
    out["runtime.fsio.writes"] = len(writes)
    out["runtime.fsio.fsyncs"] = sum(s.attrs.get("fsyncs", 0) for s in writes)
    out["runtime.fsio.bytes"] = sum(s.attrs.get("bytes", 0) for s in writes)
    out["runtime.fsio.write_s"] = sum(s.duration for s in writes)

    out["server.api.requests"] = len(named["server.api.request"])
    out["server.api.ack_s"] = total("server.api.ack")
    out["server.api.result_s"] = total("server.api.result")
    results = [s for s in named["server.store.read_result_bytes"]
               if by_id.get(s.parent) is not None
               and by_id[s.parent].name == "server.api.result"]
    out["server.api.result_bytes"] = sum(s.attrs.get("bytes", 0) for s in results)
    out["server.scheduler.admission_s"] = total("server.scheduler.submit")
    out["server.scheduler.queue_wait_s"] = _queue_wait(named)
    out["server.scheduler.finalize_s"] = _finalize(runs, named)
    out["server.scheduler.canonical_json_s"] = total("server.scheduler.canonical_json")
    scans = _outermost(named["server.store.list"], "server.store.list", by_id)
    out["server.store.scan_s"] = sum(s.duration for s in scans)
    out["server.store.records_read"] = sum(s.counts.get("server.store.get", 0)
                                           for s in scans)
    store_writes = [s for s in writes if s.attrs.get("caller") == "server.store"]
    out["server.store.write_s"] = sum(s.duration for s in store_writes)
    out["server.store.events"] = sum(1 for s in store_writes
                                     if s.attrs.get("op") == "append")
    out["server.store.bytes_per_op"] = sum(s.attrs.get("bytes", 0) for s in store_writes)
    out["server.cache.key_s"] = total("server.cache.key")
    out["server.cache.get_s"] = total("server.cache.get")
    out["server.cache.put_s"] = total("server.cache.put")

    per_op = {name: value / n_ops for name, value in out.items()}
    per_op["associations.frequent_per_candidate"] = (
        frequent / candidates if candidates else 0.0)
    gets = named["server.cache.get"]
    per_op["server.cache.hit_ratio"] = (
        sum(s.attrs.get("hit", 0) for s in gets) / len(gets) if gets else 0.0)
    return per_op


def _queue_wait(named: Dict[str, List[Span]]) -> float:
    """Admission end to the job's ``running`` transition, summed over jobs."""
    acked = {s.attrs.get("job_id"): s.end for s in named["server.scheduler.submit"]}
    wait = 0.0
    for span in named["server.store.transition"]:
        if span.attrs.get("to_state") == "running" and span.attrs.get("job_id") in acked:
            wait += span.start - acked[span.attrs["job_id"]]
    return wait


def _finalize(runs: List[Span], named: Dict[str, List[Span]]) -> float:
    """Supervisor return to the end of the job's ``done`` transition."""
    done = sorted((s for s in named["server.store.transition"]
                   if s.attrs.get("to_state") == "done"), key=lambda s: s.start)
    total = 0.0
    for run in runs:
        after = [s for s in done if s.thread == run.thread and s.pid == run.pid
                 and s.start >= run.end]
        if after:
            total += after[0].end - run.end
    return total
