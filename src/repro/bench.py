"""Benchmark harness: a fixed synthetic suite behind ``repro bench``.

Five workloads exercise the parallel execution layer end to end —
apriori support counting (serial backends vs. the map-reduce path and
the bitmap kernel), partition shard mining, k-means restart trials,
cross-validation folds, and a dispatch microbenchmark that isolates
per-task transport cost (fork-per-task vs. the persistent
WorkerPool).  Each benchmark times the serial run against
the same call with ``n_jobs`` workers, checks the two results are
byte-identical (the WorkerPool determinism contract), and the suite is
written as machine-readable JSON (``BENCH_parallel.json``) so later PRs
have a perf trajectory to beat.

The payload records ``n_cpus`` alongside the timings: fork-parallel
speedup is bounded by the cores actually available, so a single-core
box legitimately reports speedup near (or below) 1.0 for the sharded
runs while the vectorized bitmap kernel still shows its algorithmic
gain.  Consumers must not assert speedups the hardware cannot deliver;
the CI smoke job asserts only the schema and the identity bits.

Two scales: ``full`` for the committed trajectory, ``smoke`` for CI
(seconds, not minutes).  Timings take the best of ``repeat`` runs to
damp scheduler noise; identity is checked on every run.
"""

from __future__ import annotations

import json
import os
import pickle
import platform
import time
from typing import Callable, Dict, List, Optional, Tuple

SCHEMA_VERSION = 3

#: workload sizes per scale; smoke keeps CI under a few seconds
SCALES = {
    "full": {
        "apriori_rows": 4000,
        "partition_rows": 6000,
        "kmeans_rows": 3000,
        "crossval_rows": 1500,
        "dispatch_tasks": 64,
        "kernel_rows": 4000,
        "kernel_sequences": 3000,
        "kernel_seq_support": 0.01,
        "kernel_table_rows": 4000,
        "kernel_kmeans_rows": 20000,
    },
    "smoke": {
        "apriori_rows": 300,
        "partition_rows": 400,
        "kmeans_rows": 200,
        "crossval_rows": 200,
        "dispatch_tasks": 16,
        "kernel_rows": 300,
        "kernel_sequences": 60,
        "kernel_seq_support": 0.1,
        "kernel_table_rows": 300,
        "kernel_kmeans_rows": 400,
    },
}


def _best_of(repeat: int, fn: Callable[[], object]) -> Tuple[float, object]:
    """(best wall-clock seconds, last result) over ``repeat`` calls."""
    best = float("inf")
    value = None
    for _ in range(max(1, repeat)):
        started = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - started)
    return best, value


def _entry(
    name: str,
    params: Dict,
    n_jobs: int,
    repeat: int,
    serial: Callable[[], object],
    parallel: Callable[[], object],
    fingerprint: Callable[[object], bytes],
) -> Dict:
    """Time serial vs. parallel and compare their fingerprints."""
    serial_seconds, serial_value = _best_of(repeat, serial)
    parallel_seconds, parallel_value = _best_of(repeat, parallel)
    return {
        "name": name,
        "params": params,
        "n_jobs": n_jobs,
        "serial_seconds": round(serial_seconds, 6),
        "parallel_seconds": round(parallel_seconds, 6),
        "speedup": round(serial_seconds / max(parallel_seconds, 1e-12), 4),
        "identical": fingerprint(serial_value) == fingerprint(parallel_value),
    }


def _itemsets_fingerprint(itemsets) -> bytes:
    return pickle.dumps(sorted(itemsets.supports.items()))


def bench_apriori(rows: int, n_jobs: int, repeat: int) -> List[Dict]:
    """Apriori scale-up: map-reduce counting and the bitmap kernel.

    Emits two entries — the sharded hash-tree count path, and the
    vectorized bitmap backend against the serial hash tree (a kernel
    speedup that does not depend on core count).
    """
    from .associations import apriori
    from .datasets import quest_basket

    db = quest_basket(rows, random_state=1994)
    min_support = 0.01
    params = {"rows": rows, "min_support": min_support}
    shard = _entry(
        "apriori", params, n_jobs, repeat,
        lambda: apriori(db, min_support),
        lambda: apriori(db, min_support, n_jobs=n_jobs),
        _itemsets_fingerprint,
    )
    bitmap = _entry(
        "apriori_bitmap", params, 1, repeat,
        lambda: apriori(db, min_support),
        lambda: apriori(db, min_support, backend="bitmap"),
        _itemsets_fingerprint,
    )
    return [shard, bitmap]


def bench_partition(rows: int, n_jobs: int, repeat: int) -> List[Dict]:
    """Partition shards mined in parallel, then the sharded global count."""
    from .associations import partition_miner
    from .datasets import quest_basket

    db = quest_basket(rows, random_state=1995)
    min_support = 0.01
    params = {"rows": rows, "min_support": min_support, "n_partitions": n_jobs}
    return [_entry(
        "partition", params, n_jobs, repeat,
        lambda: partition_miner(db, min_support, n_partitions=n_jobs),
        lambda: partition_miner(db, min_support, n_partitions=n_jobs,
                                n_jobs=n_jobs),
        _itemsets_fingerprint,
    )]


def bench_kmeans(rows: int, n_jobs: int, repeat: int) -> List[Dict]:
    """k-means++ restarts as parallel trials."""
    from .clustering import KMeans
    from .datasets import gaussian_blobs

    X, _ = gaussian_blobs(rows, centers=6, random_state=1996)
    n_init = 8
    params = {"rows": rows, "n_clusters": 6, "n_init": n_init}

    def fingerprint(model) -> bytes:
        return pickle.dumps(
            (model.cluster_centers_.tobytes(), model.inertia_)
        )

    return [_entry(
        "kmeans", params, n_jobs, repeat,
        lambda: KMeans(6, n_init=n_init, random_state=0).fit(X),
        lambda: KMeans(6, n_init=n_init, random_state=0, n_jobs=n_jobs).fit(X),
        fingerprint,
    )]


def bench_crossval(rows: int, n_jobs: int, repeat: int) -> List[Dict]:
    """Cross-validation folds fit and scored in parallel workers."""
    from .classification import NaiveBayes
    from .datasets import agrawal
    from .evaluation import cross_val_score

    table = agrawal(rows, function=2, noise=0.05, random_state=1997)
    n_folds = 5
    params = {"rows": rows, "n_folds": n_folds, "classifier": "nb"}
    return [_entry(
        "crossval", params, n_jobs, repeat,
        lambda: cross_val_score(NaiveBayes, table, "group",
                                n_folds=n_folds, random_state=0),
        lambda: cross_val_score(NaiveBayes, table, "group",
                                n_folds=n_folds, random_state=0,
                                n_jobs=n_jobs),
        pickle.dumps,
    )]


def _dispatch_noop(task, _shard_ctx):
    """Minimal task body: the benchmark measures transport, not work."""
    return task


def bench_dispatch(n_tasks: int, n_jobs: int, repeat: int) -> List[Dict]:
    """Per-task dispatch overhead: fork-per-task vs. the warm pool.

    Both sides run the same no-op task list, so the entire measured
    time is transport — process management plus pickling.  The legacy
    path pays a fork + pickle file round-trip per task; the persistent
    pool pays one pipe message each way.  The per-task costs land in
    ``params`` (microseconds) and ``speedup`` is the overhead ratio.
    """
    from .runtime.parallel import fork_per_task_map, shared_pool

    tasks = list(range(n_tasks))
    pool = shared_pool(n_jobs)
    # Fork the workers outside the timed region: pool start-up is paid
    # once per process lifetime, not per map, and the suite's other
    # benchmarks have typically paid it already.
    pool.map(_dispatch_noop, tasks[:n_jobs])
    entry = _entry(
        "dispatch", {"tasks": n_tasks}, n_jobs, repeat,
        lambda: fork_per_task_map(_dispatch_noop, tasks, n_jobs=n_jobs),
        lambda: pool.map(_dispatch_noop, tasks),
        pickle.dumps,
    )
    entry["params"]["per_task_fork_us"] = round(
        entry["serial_seconds"] / n_tasks * 1e6, 1
    )
    entry["params"]["per_task_pool_us"] = round(
        entry["parallel_seconds"] / n_tasks * 1e6, 1
    )
    return [entry]


def bench_encodings(rows: int, n_sequences: int, table_rows: int) -> List[Dict]:
    """Build cost + resident bytes of each columnar view.

    Fresh dataset objects are generated per view so every build is a
    cold one (the views are memoized per dataset object); the recorded
    ``nbytes`` is the view's resident size, which is also its peak —
    construction materialises one dense intermediate that is released
    before the view is returned.
    """
    from .core.columnar import (
        presorted_columns,
        sequence_bitmap,
        table_matrix,
        transaction_bitmap,
    )
    from .datasets import agrawal, quest_basket, quest_sequences

    db = quest_basket(rows, random_state=2024)
    sdb = quest_sequences(n_sequences, 4, 1.5, n_items=800,
                          random_state=2024)
    table = agrawal(table_rows, function=2, noise=0.05, random_state=2024)
    views = [
        ("transaction_bitmap", {"rows": rows}, lambda: transaction_bitmap(db)),
        ("sequence_bitmap", {"sequences": n_sequences},
         lambda: sequence_bitmap(sdb)),
        ("presorted_columns", {"rows": table_rows},
         lambda: presorted_columns(table)),
        ("table_matrix", {"rows": table_rows}, lambda: table_matrix(table)),
    ]
    entries = []
    for name, params, build in views:
        started = time.perf_counter()
        view = build()
        entries.append({
            "view": name,
            "params": params,
            "build_seconds": round(time.perf_counter() - started, 6),
            "nbytes": int(view.nbytes),
        })
    return entries


def bench_kernels(sizes: Dict, n_jobs: int, repeat: int) -> Dict:
    """Per-kernel suite: scalar twin vs. the columnar backend.

    Every entry reuses the ``_entry`` shape with the scalar path in the
    ``serial`` slot and the vectorized backend in the ``parallel`` slot,
    so ``speedup`` is the kernel gain and ``identical`` is the
    byte-identity contract.  The ``*_jobs`` twins additionally shard the
    vectorized backend across ``n_jobs`` forked workers (serial *and*
    ``--jobs``, as the parallel suite does for the scalar paths).  The
    first vectorized call pays the encode (reported separately under
    ``encodings``); with ``repeat > 1`` the best-of timing reflects the
    warm-cache kernel cost.
    """
    from .associations import dhp, partition_miner
    from .classification import SLIQ
    from .clustering import KMeans
    from .datasets import agrawal, gaussian_blobs, quest_basket, quest_sequences
    from .sequences import gsp

    rows = sizes["kernel_rows"]
    n_sequences = sizes["kernel_sequences"]
    table_rows = sizes["kernel_table_rows"]
    entries: List[Dict] = []

    db = quest_basket(rows, random_state=2024)
    min_support = 0.01
    params = {"rows": rows, "min_support": min_support}
    part_params = dict(params, n_partitions=2)
    entries.append(_entry(
        "partition_bitset", part_params, 1, repeat,
        lambda: partition_miner(db, min_support, n_partitions=2),
        lambda: partition_miner(db, min_support, n_partitions=2,
                                backend="bitset"),
        _itemsets_fingerprint,
    ))
    entries.append(_entry(
        "partition_bitset_jobs", part_params, n_jobs, repeat,
        lambda: partition_miner(db, min_support, n_partitions=2),
        lambda: partition_miner(db, min_support, n_partitions=2,
                                backend="bitset", n_jobs=n_jobs),
        _itemsets_fingerprint,
    ))
    entries.append(_entry(
        "dhp_bitmap", params, 1, repeat,
        lambda: dhp(db, min_support),
        lambda: dhp(db, min_support, backend="bitmap"),
        _itemsets_fingerprint,
    ))

    sdb = quest_sequences(n_sequences, 4, 1.5, n_items=800,
                          random_state=2024)
    seq_support = sizes["kernel_seq_support"]
    seq_params = {"sequences": n_sequences, "min_support": seq_support}

    def _sequences_fingerprint(result) -> bytes:
        return pickle.dumps(sorted(result.supports.items()))

    entries.append(_entry(
        "gsp_bitmap", seq_params, 1, repeat,
        lambda: gsp(sdb, seq_support),
        lambda: gsp(sdb, seq_support, backend="bitmap"),
        _sequences_fingerprint,
    ))
    entries.append(_entry(
        "gsp_bitmap_jobs", seq_params, n_jobs, repeat,
        lambda: gsp(sdb, seq_support),
        lambda: gsp(sdb, seq_support, backend="bitmap", n_jobs=n_jobs),
        _sequences_fingerprint,
    ))

    table = agrawal(table_rows, function=2, noise=0.05, random_state=2024)
    table_params = {"rows": table_rows}

    def _tree_fingerprint(model) -> bytes:
        return pickle.dumps(
            (model.n_nodes(), list(model.predict(table)))
        )

    entries.append(_entry(
        "sliq_columnar", table_params, 1, repeat,
        lambda: SLIQ().fit(table, "group"),
        lambda: SLIQ(backend="columnar").fit(table, "group"),
        _tree_fingerprint,
    ))

    kmeans_rows = sizes["kernel_kmeans_rows"]
    X, _ = gaussian_blobs(kmeans_rows, centers=12, n_features=8,
                          cluster_std=0.8, random_state=2024)
    kmeans_params = {"rows": kmeans_rows, "n_clusters": 12,
                     "n_features": 8}

    def _kmeans_fingerprint(model) -> bytes:
        return pickle.dumps((
            model.cluster_centers_.tobytes(),
            model.labels_.tobytes(),
            model.inertia_,
            model.n_iter_,
        ))

    entries.append(_entry(
        "kmeans_elkan", kmeans_params, 1, repeat,
        lambda: KMeans(12, n_init=4, random_state=0).fit(X),
        lambda: KMeans(12, n_init=4, random_state=0, backend="elkan").fit(X),
        _kmeans_fingerprint,
    ))

    return {
        "encodings": bench_encodings(rows, n_sequences, table_rows),
        "benchmarks": entries,
    }


def run_suite(scale: str = "full", n_jobs: int = 4, repeat: int = 1) -> Dict:
    """Run every benchmark at ``scale``; returns the JSON payload."""
    if scale not in SCALES:
        from .core.exceptions import ValidationError

        raise ValidationError(
            f"scale must be one of {sorted(SCALES)}, got {scale!r}"
        )
    sizes = SCALES[scale]
    benchmarks: List[Dict] = []
    benchmarks += bench_apriori(sizes["apriori_rows"], n_jobs, repeat)
    benchmarks += bench_partition(sizes["partition_rows"], n_jobs, repeat)
    benchmarks += bench_kmeans(sizes["kmeans_rows"], n_jobs, repeat)
    benchmarks += bench_crossval(sizes["crossval_rows"], n_jobs, repeat)
    benchmarks += bench_dispatch(sizes["dispatch_tasks"], n_jobs, repeat)
    kernels = bench_kernels(sizes, n_jobs, repeat)
    n_cpus = len(os.sched_getaffinity(0))
    warnings: List[str] = []
    if n_cpus == 1:
        warnings.append(
            "single-core host: fork-parallel speedups are bounded by the "
            "cores available, so sharded benchmarks legitimately report "
            "speedup near or below 1.0; only the dispatch and bitmap "
            "entries measure core-independent gains"
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "parallel",
        "scale": scale,
        "n_jobs": n_jobs,
        "repeat": repeat,
        "n_cpus": n_cpus,
        "python": platform.python_version(),
        "warnings": warnings,
        "benchmarks": benchmarks,
        "kernels": kernels,
    }


def validate_payload(payload: Dict) -> List[str]:
    """Schema check used by tests and the CI smoke job.

    Returns a list of problems (empty = valid) rather than raising, so
    CI can report every violation at once.
    """
    problems: List[str] = []
    for key, kind in (
        ("schema_version", int), ("suite", str), ("scale", str),
        ("n_jobs", int), ("repeat", int), ("n_cpus", int),
        ("python", str), ("warnings", list), ("benchmarks", list),
    ):
        if not isinstance(payload.get(key), kind):
            problems.append(f"missing or mistyped field {key!r}")
    def _check_entries(entries, label):
        for i, entry in enumerate(entries):
            for key, kind in (
                ("name", str), ("params", dict), ("n_jobs", int),
                ("serial_seconds", (int, float)),
                ("parallel_seconds", (int, float)),
                ("speedup", (int, float)), ("identical", bool),
            ):
                if not isinstance(entry.get(key), kind):
                    problems.append(
                        f"{label}[{i}]: missing or mistyped field {key!r}"
                    )

    _check_entries(payload.get("benchmarks") or [], "benchmark")
    kernels = payload.get("kernels")
    if not isinstance(kernels, dict):
        problems.append("missing or mistyped field 'kernels'")
        return problems
    for key in ("encodings", "benchmarks"):
        if not isinstance(kernels.get(key), list):
            problems.append(f"kernels: missing or mistyped field {key!r}")
    for i, entry in enumerate(kernels.get("encodings") or []):
        for key, kind in (
            ("view", str), ("params", dict),
            ("build_seconds", (int, float)), ("nbytes", int),
        ):
            if not isinstance(entry.get(key), kind):
                problems.append(
                    f"kernels.encodings[{i}]: missing or mistyped "
                    f"field {key!r}"
                )
    _check_entries(kernels.get("benchmarks") or [], "kernels.benchmark")
    return problems


def write_payload(payload: Dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")


def render_report(payload: Dict) -> str:
    """Human-readable table printed by ``repro bench``."""
    lines = [
        f"parallel benchmark suite (scale={payload['scale']}, "
        f"n_jobs={payload['n_jobs']}, n_cpus={payload['n_cpus']})",
        f"{'benchmark':<16} {'serial':>10} {'parallel':>10} "
        f"{'speedup':>8}  identical",
    ]
    for entry in payload["benchmarks"]:
        lines.append(
            f"{entry['name']:<16} {entry['serial_seconds']:>9.3f}s "
            f"{entry['parallel_seconds']:>9.3f}s "
            f"{entry['speedup']:>7.2f}x  "
            f"{'yes' if entry['identical'] else 'NO'}"
        )
        if entry["name"] == "dispatch":
            lines.append(
                f"{'':<16} per-task overhead: "
                f"{entry['params']['per_task_fork_us']:.0f}us fork-per-task "
                f"vs {entry['params']['per_task_pool_us']:.0f}us pooled"
            )
    kernels = payload.get("kernels")
    if kernels:
        lines.append("")
        lines.append("columnar encodings (build cost, resident bytes)")
        for entry in kernels["encodings"]:
            lines.append(
                f"  {entry['view']:<20} {entry['build_seconds']:>9.3f}s "
                f"{entry['nbytes']:>12,} bytes"
            )
        lines.append(
            f"{'kernel':<22} {'scalar':>10} {'vectorized':>10} "
            f"{'speedup':>8}  identical"
        )
        for entry in kernels["benchmarks"]:
            lines.append(
                f"{entry['name']:<22} {entry['serial_seconds']:>9.3f}s "
                f"{entry['parallel_seconds']:>9.3f}s "
                f"{entry['speedup']:>7.2f}x  "
                f"{'yes' if entry['identical'] else 'NO'}"
            )
    for warning in payload.get("warnings") or []:
        lines.append(f"warning: {warning}")
    return "\n".join(lines)


def main(scale: str = "full", n_jobs: int = 4, repeat: int = 1,
         output: Optional[str] = "BENCH_parallel.json") -> Dict:
    """Run, print and (optionally) write the suite; returns the payload."""
    payload = run_suite(scale=scale, n_jobs=n_jobs, repeat=repeat)
    print(render_report(payload))
    if output:
        write_payload(payload, output)
        print(f"wrote {output}")
    return payload


__all__ = [
    "SCALES",
    "SCHEMA_VERSION",
    "bench_apriori",
    "bench_crossval",
    "bench_dispatch",
    "bench_encodings",
    "bench_kernels",
    "bench_kmeans",
    "bench_partition",
    "main",
    "render_report",
    "run_suite",
    "validate_payload",
    "write_payload",
]
