"""The benchmark's own tests, at toy scale.

Run from the repository root: ``python -m pytest perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import pytest

import harness
import layers
import run
import workloads

sys.path.insert(0, str(harness.SRC))

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def toy(monkeypatch):
    """Tiny inputs, a small aged store and two stand-up samples."""
    monkeypatch.setattr(harness, "CLI_ROWS", {"mine": 200, "classify": 120, "cluster": 150})
    monkeypatch.setattr(harness, "JOB_ROWS", {"mine": 200, "classify": 120, "cluster": 300})
    monkeypatch.setattr(harness, "AGED_JOBS", 5)
    monkeypatch.setattr(run, "SETUP_REPS", 2)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_op_sequence_is_a_pure_function_of_the_seed(workload, tmp_path):
    first = harness.op_sequence(workload, 11, 9)
    assert first == harness.op_sequence(workload, 11, 9)
    assert first != harness.op_sequence(workload, 12, 9)
    assert [op.kind for op in first] == list(harness.KINDS) * 3
    files = {op.filename for op in first}
    assert len(files) == {"cli": 9, "jobs_fresh": 9, "jobs_cached": 6}[workload]
    for directory in ("a", "b"):
        (tmp_path / directory).mkdir()
        for op in first[:3]:
            harness.write_dataset(op, tmp_path / directory)
    for op in first[:3]:
        assert ((tmp_path / "a" / op.filename).read_bytes()
                == (tmp_path / "b" / op.filename).read_bytes())


def test_benchmark_json_lists_what_the_runs_report():
    units = dict(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == [
        (name, units[name]) for name in run.GATED]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == layers.METRICS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)


def test_every_metric_prints_with_its_unit(toy):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "jobs_cached", "--seed", "3",
                         "--seconds", "0.4", "--trace", "0"]) == 0
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.GATED)
    for name, unit in run.END_TO_END:
        if name in run.GATED:
            assert result["metrics"][name]["unit"] == unit
            assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"jobs_cached/{name} = ") and f" {unit}" in line
                   for line in lines), name
    assert any(line.startswith("jobs_cached/failed_ratio = 0 ratio") for line in lines)


def test_a_wrong_output_is_a_failed_op(toy, tmp_path, monkeypatch):
    real_run_cli = harness.run_cli

    def corrupt_classify(argv, *args):
        output, note = real_run_cli(argv, *args)
        if argv[0] == "classify":
            output = output.replace(b"test accuracy", b"test accuracz")
        return output, note

    monkeypatch.setattr(harness, "run_cli", corrupt_classify)
    workload = workloads.CliWorkload(5, tmp_path, traced=False)
    ops = workload.ops(3)
    workload.ensure_inputs(ops)
    records = [workload.op(op) for op in ops]
    problems = workload.check(records)
    assert [record.failed for record in records] == [False, True, False]
    assert len(problems) == 1 and "differs from the reference" in problems[0]


def test_traced_and_untraced_passes_cover_the_same_ops(toy, tmp_path):
    cls = workloads.JobsCachedWorkload
    untraced = workloads.run_pass(cls(7, tmp_path / "u", False), 0.3)
    traced_workload = cls(7, tmp_path / "t", True)
    traced = workloads.run_pass(traced_workload, 0, n_ops=len(untraced.records))
    assert [r.op for r in traced.records] == [r.op for r in untraced.records]
    assert traced.failed == untraced.failed == 0
    windows = [(r.start, r.end) for r in traced.records]
    spans = layers.load_spans(traced_workload.trace_dir)
    kept = layers.attribute(spans, windows)
    assert {layers.attribute([s], windows) != [] for s in kept} == {True}
    metrics = layers.layer_metrics(spans, windows)
    assert set(metrics) | {name for name, _ in layers.METRICS[-4:]} == {
        name for name, _ in layers.METRICS}
    assert metrics["server.cache.hit_ratio"] == 1.0
    assert metrics["associations.mine_s"] == 0.0
    assert metrics["server.api.requests"] == 2.0


def test_self_time_subtracts_the_union_of_children():
    parent = layers.Span(["p", None, "a", 0.0, 10.0, 1, 1, {}, {}])
    for start, end in ((1.0, 4.0), (3.0, 5.0), (8.0, 12.0)):
        parent.children.append(layers.Span(["c", "p", "b", start, end, 1, 1, {}, {}]))
    assert parent.self_time() == pytest.approx(10.0 - 4.0 - 2.0)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile = run.tail([float(i) for i in range(100)])
    assert (value, percentile) == (89.0, 90.0)
