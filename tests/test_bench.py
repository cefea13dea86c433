"""Parallel benchmark suite: schema validation and payload shape.

The suite is the script ``benchmarks/parallel_suite.py``; it runs in
CI's ``bench-smoke`` job.  These tests cover the schema contract
without paying for a full run — one real smoke-sized benchmark plus
synthetic payloads through ``validate_payload``.
"""

import importlib.util
import json
from pathlib import Path

_SUITE = Path(__file__).resolve().parents[1] / "benchmarks" / "parallel_suite.py"
_spec = importlib.util.spec_from_file_location("parallel_suite", _SUITE)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _entry(name="apriori", **overrides):
    entry = {
        "name": name,
        "params": {"rows": 10},
        "n_jobs": 2,
        "serial_seconds": 0.5,
        "parallel_seconds": 0.3,
        "speedup": 1.6667,
        "identical": True,
    }
    entry.update(overrides)
    return entry


def _valid_payload():
    return {
        "schema_version": bench.SCHEMA_VERSION,
        "suite": "parallel",
        "scale": "smoke",
        "n_jobs": 2,
        "repeat": 1,
        "n_cpus": 1,
        "python": "3.11.0",
        "warnings": [],
        "benchmarks": [_entry()],
        "kernels": {
            "encodings": [
                {
                    "view": "transaction_bitmap",
                    "params": {"rows": 10},
                    "build_seconds": 0.01,
                    "nbytes": 128,
                }
            ],
            "benchmarks": [_entry("partition_bitset", n_jobs=1)],
        },
    }


def test_validate_payload_accepts_valid():
    assert bench.validate_payload(_valid_payload()) == []


def test_validate_payload_reports_every_problem():
    payload = _valid_payload()
    del payload["n_cpus"]
    payload["benchmarks"][0]["identical"] = "yes"
    del payload["benchmarks"][0]["speedup"]
    problems = bench.validate_payload(payload)
    assert len(problems) == 3
    assert any("n_cpus" in p for p in problems)
    assert any("identical" in p for p in problems)
    assert any("speedup" in p for p in problems)


def test_validate_payload_handles_missing_benchmarks():
    problems = bench.validate_payload({})
    assert any("benchmarks" in p for p in problems)


def test_crossval_benchmark_entry_shape(tmp_path):
    entries = bench.bench_crossval(rows=120, n_jobs=2, repeat=1)
    payload = {**_valid_payload(), "benchmarks": entries}
    assert bench.validate_payload(payload) == []
    assert entries[0]["identical"] is True
    out = tmp_path / "bench.json"
    bench.write_payload(payload, str(out))
    assert json.loads(out.read_text())["benchmarks"][0]["name"] == "crossval"


def test_dispatch_benchmark_entry_shape():
    entries = bench.bench_dispatch(n_tasks=4, n_jobs=2, repeat=1)
    payload = {**_valid_payload(), "benchmarks": entries}
    assert bench.validate_payload(payload) == []
    entry = entries[0]
    assert entry["name"] == "dispatch"
    assert entry["identical"] is True
    assert entry["params"]["per_task_fork_us"] > 0
    assert entry["params"]["per_task_pool_us"] > 0


def test_run_suite_rejects_unknown_scale():
    import pytest

    from repro.core.exceptions import ValidationError

    with pytest.raises(ValidationError, match="scale"):
        bench.run_suite(scale="galactic")


# ----------------------------------------------------------------------
# Schema v3: the per-kernel suite
# ----------------------------------------------------------------------
def test_schema_version_is_3():
    assert bench.SCHEMA_VERSION == 3


def test_payload_without_kernels_is_invalid():
    payload = _valid_payload()
    del payload["kernels"]
    assert any("kernels" in p for p in bench.validate_payload(payload))


def test_kernels_block_fields_are_checked():
    payload = _valid_payload()
    del payload["kernels"]["encodings"][0]["nbytes"]
    payload["kernels"]["benchmarks"][0]["identical"] = "yes"
    problems = bench.validate_payload(payload)
    assert any("nbytes" in p for p in problems)
    assert any("kernels.benchmark[0]" in p and "identical" in p
               for p in problems)


def test_kernel_entries_share_the_benchmark_entry_shape():
    payload = _valid_payload()
    del payload["kernels"]["benchmarks"][0]["speedup"]
    assert any("speedup" in p for p in bench.validate_payload(payload))


def test_bench_encodings_measures_every_view():
    encodings = bench.bench_encodings(rows=60, n_sequences=20,
                                      table_rows=60)
    views = [e["view"] for e in encodings]
    assert views == ["transaction_bitmap", "sequence_bitmap",
                     "presorted_columns", "table_matrix"]
    for entry in encodings:
        assert entry["build_seconds"] >= 0.0
        assert entry["nbytes"] > 0
        assert isinstance(entry["params"], dict)


def test_render_report_shows_kernel_table():
    report = bench.render_report(_valid_payload())
    assert "columnar encodings" in report
    assert "partition_bitset" in report
    assert "transaction_bitmap" in report
