"""End-to-end benchmark of the ``repro`` CLI and job server.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs an untraced pass for half the time, then replays the
same ops through the traced launcher and reports the per-layer metrics
plus the tracing overhead.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import harness
import layers
from workloads import WORKLOAD_CLASSES, PassResult, run_pass

#: (metric, unit) of every end-to-end metric an untraced run prints.
#: The ``_scaled`` ones are measured times taken to the reference host
#: speed, slice by slice, with the host probe timed around each slice
#: (see README, "Noise").
END_TO_END = [
    ("op_latency_p50_s", "s"), ("op_latency_tail_s", "s"), ("ops_per_s", "1/s"),
    ("cpu_s_per_op", "s"),
    ("op_latency_p50_s_scaled", "s"), ("ops_per_s_scaled", "1/s"),
    ("cpu_s_per_op_scaled", "s"), ("user_cpu_s_per_op_scaled", "s"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
]

#: The end-to-end metrics BENCHMARK.json gates: the ones whose ten-run
#: spread stays well inside their bound on every workload.  Latency,
#: throughput and system CPU also follow the host's I/O path, which no
#: probe tracks (see README, "Noise"); they are printed, not gated.
GATED = ("user_cpu_s_per_op_scaled", "peak_rss_mb", "setup_s")

#: Stand-up repetitions per untraced run, one between every two segments.
#: Six make five segments, so the median of the per-segment RSS peaks
#: stands even when two segments hold a heavy op.
SETUP_REPS = 6

#: Share of the slices, the costliest per op, that the gated CPU metric
#: leaves out.  A few E1 baskets a run draw a long, heavy pattern whose
#: rules make one op cost up to eight times the median (see README, "Noise").
TRIM = 0.10


def tail(latencies: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def trimmed_user_cpu_per_op(result: PassResult) -> float:
    """Scaled user CPU per op over the slices, leaving out the
    :data:`TRIM` share of them that cost the most per op."""
    ordered = sorted(result.slices, key=lambda s: s.user_s * s.scale / s.ops)
    kept = ordered[:len(ordered) - int(len(ordered) * TRIM)]
    return sum(s.user_s * s.scale for s in kept) / sum(s.ops for s in kept)


def end_to_end(result: PassResult) -> Dict[str, float]:
    n = len(result.records)
    return {
        "op_latency_p50_s": statistics.median(result.latencies),
        "op_latency_tail_s": tail(result.latencies)[0],
        "ops_per_s": n / result.wall_s,
        "cpu_s_per_op": result.cpu_s / n,
        "op_latency_p50_s_scaled": statistics.median(result.scaled_latencies),
        "ops_per_s_scaled": n / result.scaled_wall_s,
        "cpu_s_per_op_scaled": result.scaled_cpu_s / n,
        "user_cpu_s_per_op_scaled": trimmed_user_cpu_per_op(result),
        "peak_rss_mb": statistics.median(result.segment_rss_mb),
        "setup_s": statistics.median(result.setup_samples),
    }


def per_kind_p50(result: PassResult) -> Dict[str, float]:
    return {
        f"ops.{kind}.latency_p50_s": statistics.median(
            [r.scaled_latency for r in result.records if r.op.kind == kind] or [0.0])
        for kind in harness.KINDS
    }


def print_metric(prefix: str, name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{prefix}{name} = {value:.6g} {unit}{'  (' + note + ')' if note else ''}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> Dict:
    cls = WORKLOAD_CLASSES[name]
    if not trace:
        result = run_pass(cls(seed, work / "untraced", False), seconds,
                          setup_reps=SETUP_REPS)
        metrics = end_to_end(result)
        units = dict(END_TO_END)
        n = len(result.records)
        notes = {metric: "not gated" for metric in metrics if metric not in GATED}
        notes.update({
            "op_latency_tail_s": (
                "not gated; p%.1f of %d ops, 10 beyond" % (tail(result.latencies)[1], n)
                if n > 10 else "not gated; maximum of %d ops, none has 10 beyond" % n),
            "user_cpu_s_per_op_scaled": (
                "the costliest %d%% of %d slices left out; over all of them "
                "%.6g s, as timed %.6g s; median probe %.3f ms" % (
                    100 * TRIM, len(result.slices), result.scaled_user_s / n,
                    result.user_s / n, result.median_probe_ms)),
            "peak_rss_mb": "median over %d segments: %s" % (
                len(result.segment_rss_mb),
                ", ".join(f"{mb:.1f}" for mb in result.segment_rss_mb)),
            "setup_s": "median of %d: %s" % (
                len(result.setup_samples),
                ", ".join(f"{s:.4f}" for s in result.setup_samples)),
        })
        gated = {metric: metrics[metric] for metric in GATED}
        passes = [result]
    else:
        untraced = run_pass(cls(seed, work / "untraced", False), seconds / 2)
        traced_workload = cls(seed, work / "traced", True)
        traced = run_pass(traced_workload, seconds, n_ops=len(untraced.records))
        windows = [(r.start, r.end) for r in traced.records]
        values = layers.layer_metrics(layers.load_spans(traced_workload.trace_dir),
                                      windows)
        values.update(per_kind_p50(untraced))
        values["trace.overhead_s"] = (statistics.median(traced.scaled_latencies)
                                      - statistics.median(untraced.scaled_latencies))
        metrics = {name: values[name] for name, _unit in layers.METRICS}
        gated = metrics
        units = dict(layers.METRICS)
        notes = {"trace.overhead_s": "traced minus untraced p50 over the same %d ops, "
                 "at the reference speed" % len(traced.records)}
        notes.update({f"ops.{kind}.latency_p50_s": "at the reference speed"
                      for kind in harness.KINDS})
        passes = [untraced, traced]
    attempted = sum(len(p.records) for p in passes)
    failed = sum(p.failed for p in passes)
    for problem in [m for p in passes for m in p.mismatches][:20]:
        print(f"{name}: FAILED {problem}")
    for metric, value in metrics.items():
        print_metric(f"{name}/", metric, value, units[metric], notes.get(metric, ""))
    print_metric(f"{name}/", "failed_ratio", failed / max(1, attempted), "ratio",
                 f"{failed} of {attempted}")
    print(f"{name}/host_probe_ms " + json.dumps(
        [{k: round(v, 3) for k, v in p.probe_ms.items()} for p in passes]))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in gated.items()}}


def run_all(seed: int, seconds: float, trace: bool, work: Path) -> Dict:
    """The three workloads in turn, from this one load-generator process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in harness.WORKLOADS:
        result = run_workload(name, seed, seconds, trace, work / name)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(harness.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {harness.SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    work = harness.ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        print("env " + json.dumps(harness.environment(work)))
        if args.workload == "all":
            summary = run_all(args.seed, args.seconds, bool(args.trace), work)
        else:
            summary = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
