"""Command-line interface: ``repro <command>``.

Seven commands cover the library's workflows without writing Python:

* ``repro mine``       — frequent itemsets + rules from a FIMI-format
  transaction file (one transaction per line, integer items).
* ``repro classify``   — train and evaluate a classifier on a typed CSV
  (headers ``name:num`` / ``name:cat``, see
  :mod:`repro.datasets.io`).
* ``repro cluster``    — cluster the numeric columns of a typed CSV.
* ``repro generate``   — emit synthetic workloads (basket / table /
  blobs) for the other commands to consume.
* ``repro bench``      — run the fixed parallel benchmark suite and
  write ``BENCH_parallel.json`` (see :mod:`repro.bench`).
* ``repro algorithms`` — list every registered algorithm with its
  declared capabilities (``--json`` for the machine-readable table).
* ``repro serve``      — run the fault-tolerant mining job server
  (HTTP/JSON, durable job store, crash recovery; see
  :mod:`repro.server`).

Every command prints a compact human-readable report to stdout and
exits non-zero on invalid input.

Dispatch is entirely table-driven: subcommand choices, budget wiring,
checkpoint/supervision gating and the usage-error messages all derive
from the capability declarations in :mod:`repro.registry`.  Adding an
algorithm means adding one row to that table — this module never
changes.  Building the parser reads only the table, and a command
imports only what it runs: ``repro algorithms`` loads no numpy and no
algorithm module, and ``repro mine`` loads no classifier, clusterer,
sequence miner, server or supervisor module.

``mine``, ``classify`` and ``cluster`` accept execution-budget flags:
``--time-limit SECONDS`` bounds wall-clock time and ``--max-candidates N``
bounds the dominant resource (the axis each algorithm declares as its
``budget_resource`` capability: generated candidates for the miners,
tree nodes for the tree growers, optimisation steps for most
clusterers).  When a budget runs out the command still exits 0,
reporting the partial result with a ``NOTE: budget exhausted`` line;
without these flags the commands run exactly as before, unbudgeted.

``mine`` and ``cluster`` additionally accept crash-safety flags:
``--checkpoint-dir DIR`` persists a snapshot at every ``--checkpoint-every``
N-th pass boundary, ``--resume`` continues from the newest valid snapshot
in that directory (so a budget-exhausted or killed run can be finished
later with a fresh ``--time-limit``), and ``--retries N`` retries
transient faults with exponential backoff.

``mine``, ``classify`` and ``cluster`` also accept process-level
supervision flags: ``--supervise`` runs the algorithm in a child process
so that a crash (OOM kill, segfault, operator ``kill -9``) is contained
and reported instead of taking the CLI down, ``--max-rss-mb MB`` and
``--hard-time-limit SECONDS`` set hard OS-enforced caps on the child.
Under ``--supervise``, ``--retries`` relaunches a crashed child, and —
for ``mine``/``cluster`` with ``--checkpoint-dir`` — every relaunch
resumes from the newest valid snapshot; supervised ``classify`` restarts
its (deterministic) fit from scratch.

``mine`` and ``cluster`` accept ``--jobs N`` on algorithms declaring the
``parallelizable`` capability: work is sharded across N forked workers
with output byte-identical to the serial run (``--jobs -1`` uses every
core).  The flag is registry-gated — requesting it on an algorithm
without the capability exits 2 before any data is loaded.

Exit codes: 0 = success, including budget-degraded partial results
(flagged by a ``NOTE:`` line); 2 = invalid input or an unsupported
flag/algorithm combination; 3 = a supervised child crashed and the
retry allowance is exhausted (the final ``FailureReport`` is written to
stderr as JSON).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.exceptions import ReproError


def _add_budget_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; exhaustion yields a partial result",
    )
    sub.add_argument(
        "--max-candidates", type=int, default=None, metavar="N",
        help="resource budget: candidates (mine), tree nodes (classify) "
             "or optimisation steps (cluster)",
    )


def _add_checkpoint_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist resumable snapshots of pass boundaries into DIR",
    )
    sub.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="persist every N-th boundary snapshot (default: 1)",
    )
    sub.add_argument(
        "--resume", action="store_true",
        help="resume from the newest valid snapshot in --checkpoint-dir",
    )
    sub.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry transient faults up to N times with exponential backoff",
    )


def _add_supervise_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--supervise", action="store_true",
        help="run the algorithm in a supervised child process: crashes "
             "are contained and reported, hard limits are enforceable",
    )
    sub.add_argument(
        "--max-rss-mb", type=float, default=None, metavar="MB",
        help="hard memory cap for the supervised child "
             "(requires --supervise)",
    )
    sub.add_argument(
        "--hard-time-limit", type=float, default=None, metavar="SECONDS",
        help="hard wall-clock cap for the supervised child; SIGTERM then "
             "SIGKILL (requires --supervise)",
    )


def _add_parallel_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="shard work across N forked workers (-1 = all cores); "
             "output is byte-identical to the serial run",
    )


def _add_backend_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--backend", default=None, metavar="NAME",
        help="vectorized hot-loop backend over the shared columnar data "
             "plane (values are per-algorithm, e.g. bitmap/bitset/elkan); "
             "output is byte-identical to the scalar path; only "
             "vectorizable algorithms accept this flag",
    )


def _usage_error(args, caps, algorithm: str) -> Optional[str]:
    """One-line actionable message for a bad flag combination, or None.

    Centralises the CLI's exit-2 contract against the algorithm's
    declared :class:`~repro.registry.Capabilities`: ``--resume`` without
    a checkpoint directory, checkpoint/supervision flags on an algorithm
    whose capabilities cannot honour them, and hard-limit flags without
    ``--supervise`` all fail fast here — before any data is loaded.
    """
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    if getattr(args, "resume", False) and checkpoint_dir is None:
        return "--resume requires --checkpoint-dir"
    if checkpoint_dir is not None and not caps.checkpointable:
        return f"{algorithm} does not support --checkpoint-dir/--resume"
    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs != 1 and not caps.parallelizable:
        return f"{algorithm} does not support --jobs"
    if getattr(args, "backend", None) is not None and not caps.vectorizable:
        return f"{algorithm} does not support --backend"
    if not args.supervise:
        if args.max_rss_mb is not None:
            return "--max-rss-mb requires --supervise"
        if args.hard_time_limit is not None:
            return "--hard-time-limit requires --supervise"
        return None
    if not caps.supervisable:
        return (
            f"{algorithm} does not support checkpoint/resume, so "
            "--supervise cannot recover it after a crash; pick a "
            "checkpoint-aware algorithm or drop --supervise"
        )
    return None


def _run_supervised(args, target, *target_args, **target_kwargs):
    """Run ``target`` under a Supervisor built from the CLI flags.

    Returns the target's result; a child that crashes until the retry
    allowance is exhausted raises
    :class:`~repro.runtime.supervisor.SupervisedCrash`, which ``main``
    converts into exit code 3 plus a JSON report on stderr.
    """
    from .runtime import HardLimits, RetryPolicy, Supervisor

    limits = None
    if args.max_rss_mb is not None or args.hard_time_limit is not None:
        limits = HardLimits(
            max_rss_mb=args.max_rss_mb,
            wall_time_limit=args.hard_time_limit,
        )
    retries = getattr(args, "retries", 0)
    retry = RetryPolicy(max_retries=retries, random_state=0) if retries else None
    supervisor = Supervisor(
        limits=limits,
        retry=retry,
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
        checkpoint_every=getattr(args, "checkpoint_every", 1),
        resume=getattr(args, "resume", False),
    )
    outcome = supervisor.run(target, *target_args, **target_kwargs)
    if outcome.reports:
        causes = ", ".join(report.cause for report in outcome.reports)
        print(f"NOTE: supervised run recovered after "
              f"{len(outcome.reports)} crash(es) ({causes})")
    return outcome.value


def _fit_worker(model, table, target):
    """Supervised-child entry for ``classify``: fit and ship the model."""
    model.fit(table, target)
    return model


def _cluster_fit_worker(model, X, ctx=None):
    """Supervised-child entry for ``cluster``.

    The supervisor injects a per-attempt ``ctx`` carrying the resuming
    checkpointer; it must reach the model before ``fit``.  Only the
    checkpointer is adopted — the model keeps the budget it was built
    with.
    """
    if ctx is not None and ctx.checkpointer is not None:
        model.ctx.checkpointer = ctx.checkpointer
    model.fit(X)
    return model


def _make_checkpointer(args):
    """Checkpointer from the CLI flags, or None when no dir was given."""
    if args.checkpoint_dir is None:
        return None
    from .runtime import Checkpointer

    return Checkpointer(
        args.checkpoint_dir, every=args.checkpoint_every, resume=args.resume
    )


def _with_retries(args, fn):
    """Run ``fn`` directly, or under a RetryPolicy when --retries is set."""
    if not args.retries:
        return fn()
    from .runtime import RetryPolicy

    policy = RetryPolicy(max_retries=args.retries, random_state=0)
    return policy.run(fn)


def _make_budget(args, resource: str):
    """Budget from the CLI flags, or None when neither flag was given.

    ``resource`` is the algorithm's declared ``budget_resource``
    capability (``"candidates"`` / ``"nodes"`` / ``"expansions"``),
    mapped onto the matching Budget axis.  Returning None keeps the
    unbudgeted call path byte-identical to a build without these flags.
    """
    if args.time_limit is None and args.max_candidates is None:
        return None
    from .runtime import Budget

    kwargs = {"time_limit": args.time_limit}
    if args.max_candidates is not None:
        kwargs[f"max_{resource}"] = args.max_candidates
    return Budget(**kwargs)


def _make_context(budget=None, checkpoint=None):
    """ExecutionContext bundling the CLI-built budget and checkpointer."""
    from .runtime.context import ExecutionContext

    return ExecutionContext(budget=budget, checkpointer=checkpoint)


def build_parser() -> argparse.ArgumentParser:
    from . import registry

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Classic data mining techniques from scratch.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="frequent itemsets and rules")
    mine.add_argument("path", help="FIMI transaction file")
    mine.add_argument("--min-support", type=float, default=0.05)
    mine.add_argument("--min-confidence", type=float, default=0.6)
    mine.add_argument(
        "--miner",
        choices=list(registry.names("associations")),
        default="apriori",
    )
    mine.add_argument("--top", type=int, default=10,
                      help="rules/itemsets to display")
    _add_budget_flags(mine)
    _add_checkpoint_flags(mine)
    _add_supervise_flags(mine)
    _add_parallel_flags(mine)
    _add_backend_flag(mine)

    classify = sub.add_parser("classify", help="train/evaluate a classifier")
    classify.add_argument("path", help="typed CSV (name:num / name:cat)")
    classify.add_argument("--target", required=True)
    classify.add_argument(
        "--classifier",
        choices=list(registry.names("classification")),
        default="c45",
    )
    classify.add_argument("--test-fraction", type=float, default=0.3)
    classify.add_argument("--seed", type=int, default=0)
    classify.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="with --supervise: relaunch a crashed fit up to N times",
    )
    _add_budget_flags(classify)
    _add_supervise_flags(classify)

    cluster = sub.add_parser("cluster", help="cluster numeric columns")
    cluster.add_argument("path", help="typed CSV (numeric columns used)")
    cluster.add_argument(
        "--algorithm",
        choices=list(registry.names("clustering")),
        default="kmeans",
    )
    cluster.add_argument("--k", type=int, default=3)
    cluster.add_argument("--eps", type=float, default=0.5)
    cluster.add_argument("--min-samples", type=int, default=5)
    cluster.add_argument("--seed", type=int, default=0)
    _add_budget_flags(cluster)
    _add_checkpoint_flags(cluster)
    _add_supervise_flags(cluster)
    _add_parallel_flags(cluster)
    _add_backend_flag(cluster)

    generate = sub.add_parser("generate", help="emit synthetic data")
    generate.add_argument(
        "kind", choices=["basket", "agrawal", "blobs"],
    )
    generate.add_argument("path", help="output file")
    generate.add_argument("--rows", type=int, default=1000)
    generate.add_argument("--function", type=int, default=1,
                          help="agrawal predicate 1..10")
    generate.add_argument("--noise", type=float, default=0.0)
    generate.add_argument("--centers", type=int, default=3)
    generate.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser(
        "bench",
        help="run the parallel benchmark suite, write BENCH_parallel.json",
    )
    bench.add_argument(
        "--scale", choices=["full", "smoke"], default="full",
        help="workload sizes: full (committed trajectory) or smoke (CI)",
    )
    bench.add_argument(
        "--jobs", type=int, default=4, metavar="N",
        help="worker count for the parallel side of each benchmark",
    )
    bench.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="take the best wall-clock of N runs per side",
    )
    bench.add_argument(
        "--output", default="BENCH_parallel.json", metavar="PATH",
        help="JSON output path ('-' to skip writing)",
    )

    algorithms = sub.add_parser(
        "algorithms",
        help="list registered algorithms and their capabilities",
    )
    algorithms.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable capability table (the payload "
             "the job server's admission layer consumes)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the fault-tolerant mining job server (HTTP/JSON)",
    )
    serve.add_argument(
        "--store", required=True, metavar="DIR",
        help="durable job store directory (survives restarts; a server "
             "restarted against the same store resumes interrupted jobs)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="scheduler worker threads")
    serve.add_argument(
        "--quotas", default=None, metavar="FILE",
        help="per-tenant quota policy JSON (see repro.server.quotas)",
    )
    serve.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="crash-retry allowance per job dispatch",
    )
    serve.add_argument(
        "--lease-timeout", type=float, default=30.0, metavar="SECONDS",
        help="running jobs whose lease heartbeat is older than this are "
             "reclaimed by the reaper (re-enqueued, or poisoned past the "
             "failure cap)",
    )
    serve.add_argument(
        "--max-failures", type=int, default=None, metavar="N",
        help="dead-letter cap: poison a job after this many recorded "
             "failures (crashes, lease expiries, recoveries; default 3)",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=10.0, metavar="SECONDS",
        help="on SIGTERM or POST /drain, how long running jobs get to "
             "checkpoint and stop before escalation",
    )
    serve.add_argument(
        "--no-result-cache", action="store_true",
        help="disable the integrity-checked result cache (identical "
             "resubmissions re-mine instead of being served from cache; "
             "in-flight dedupe via Idempotency-Key still applies)",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory (default: the store's reserved "
             "_cache/ subdirectory)",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="SECONDS",
        help="drop client connections that stall mid-request longer "
             "than this (slow-loris defence)",
    )
    return parser


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _cmd_mine(args) -> int:
    from . import registry
    from .associations import generate_rules
    from .datasets import load_transactions

    spec = registry.get("associations", args.miner)
    usage = _usage_error(args, spec.capabilities, args.miner)
    if usage is not None:
        print(f"error: {usage}", file=sys.stderr)
        return 2
    db = load_transactions(args.path)
    print(f"{len(db)} transactions, {db.n_items} items, "
          f"avg length {db.avg_transaction_length():.1f}")
    budget = _make_budget(args, spec.capabilities.budget_resource)
    kwargs = {}
    if budget is not None:
        kwargs["on_exhausted"] = "truncate"
    if args.jobs is not None and spec.capabilities.parallelizable:
        kwargs["n_jobs"] = args.jobs
    if args.backend is not None:
        kwargs["backend"] = args.backend
    if args.supervise:
        # The supervisor injects a per-attempt checkpointer into this
        # context (ExecutionContext.replace), so the budget survives
        # every relaunch.
        if budget is not None:
            kwargs["ctx"] = _make_context(budget=budget)
        itemsets = _run_supervised(
            args, spec.factory, db, args.min_support, **kwargs
        )
    else:
        checkpoint = _make_checkpointer(args)
        if budget is not None or checkpoint is not None:
            kwargs["ctx"] = _make_context(budget=budget, checkpoint=checkpoint)
        itemsets = _with_retries(
            args, lambda: spec.factory(db, args.min_support, **kwargs)
        )
    if getattr(itemsets, "truncated", False):
        print(f"NOTE: budget exhausted -- partial result "
              f"({itemsets.truncation_reason})")
    print(f"{len(itemsets)} frequent itemsets at support "
          f">= {args.min_support} (largest size {itemsets.max_size()})")
    for itemset, count in itemsets.sorted_by_support()[: args.top]:
        print(f"  {set(itemset)}  count={count}")
    rules = generate_rules(itemsets, args.min_confidence)
    print(f"{len(rules)} rules at confidence >= {args.min_confidence}")
    for rule in rules[: args.top]:
        print(f"  {rule}")
    return 0


def _cmd_classify(args) -> int:
    from . import registry
    from .datasets import load_table
    from .evaluation import classification_report
    from .preprocessing import train_test_split

    spec = registry.get("classification", args.classifier)
    usage = _usage_error(args, spec.capabilities, args.classifier)
    if usage is not None:
        print(f"error: {usage}", file=sys.stderr)
        return 2
    table = load_table(args.path)
    train, test = train_test_split(
        table, args.test_fraction, stratify=args.target,
        random_state=args.seed,
    )
    resource = spec.capabilities.budget_resource
    if args.time_limit is None and args.max_candidates is None:
        model = spec.factory()
    else:
        if resource is None:
            print(f"error: {args.classifier} does not support --time-limit/"
                  "--max-candidates", file=sys.stderr)
            return 2
        budget = _make_budget(args, resource)
        model = spec.factory(ctx=_make_context(budget=budget))
    if args.supervise:
        model = _run_supervised(args, _fit_worker, model, train, args.target)
    else:
        model.fit(train, args.target)
    if getattr(model, "truncated_", False):
        print(f"NOTE: budget exhausted -- tree truncated "
              f"({model.truncation_reason_})")
    accuracy = model.score(test)
    print(f"{args.classifier} on {args.path}: "
          f"train {train.n_rows} / test {test.n_rows}")
    print(f"test accuracy: {accuracy:.4f}")
    y_true = [test.value(i, args.target) for i in range(test.n_rows)]
    y_pred = model.predict(test)
    for label, entry in classification_report(y_true, y_pred).items():
        print(
            f"  class {label!r}: precision={entry.precision:.3f} "
            f"recall={entry.recall:.3f} f1={entry.f1:.3f} (n={entry.support})"
        )
    return 0


def _cmd_cluster(args) -> int:
    from . import registry
    from .datasets import load_table
    from .evaluation import silhouette, sse

    spec = registry.get("clustering", args.algorithm)
    usage = _usage_error(args, spec.capabilities, args.algorithm)
    if usage is not None:
        print(f"error: {usage}", file=sys.stderr)
        return 2
    table = load_table(args.path)
    X = table.to_matrix()
    if X.shape[1] == 0:
        print("error: no numeric columns to cluster", file=sys.stderr)
        return 2
    budget = _make_budget(args, spec.capabilities.budget_resource)
    checkpoint = None if args.supervise else _make_checkpointer(args)
    make_kwargs = {}
    if args.jobs is not None and spec.capabilities.parallelizable:
        make_kwargs["n_jobs"] = args.jobs
    if args.backend is not None:
        make_kwargs["backend"] = args.backend
    model = spec.make(
        _make_context(budget=budget, checkpoint=checkpoint),
        k=args.k, eps=args.eps, min_samples=args.min_samples, seed=args.seed,
        **make_kwargs,
    )
    if args.supervise:
        model = _run_supervised(args, _cluster_fit_worker, model, X)
        labels = model.labels_
    else:
        labels = _with_retries(args, lambda: model.fit_predict(X))
    if getattr(model, "truncated_", False):
        print(f"NOTE: budget exhausted -- partial clustering "
              f"({model.truncation_reason_})")
    clusters = sorted(set(labels.tolist()) - {-1})
    noise = int((labels == -1).sum())
    print(f"{args.algorithm} on {args.path}: {len(X)} points, "
          f"{X.shape[1]} features")
    print(f"clusters: {len(clusters)}" + (f", noise points: {noise}" if noise else ""))
    for cluster_id in clusters:
        member = labels == cluster_id
        centroid = X[member].mean(axis=0)
        rounded = ", ".join(f"{v:.3g}" for v in centroid)
        print(f"  cluster {cluster_id}: {int(member.sum())} points, "
              f"centroid ({rounded})")
    print(f"SSE: {sse(X, labels):.2f}")
    if len(clusters) >= 2:
        print(f"silhouette: {silhouette(X, labels):.3f}")
    return 0


def _cmd_generate(args) -> int:
    from .datasets import (
        agrawal,
        gaussian_blobs,
        quest_basket,
        save_table,
        save_transactions,
    )

    if args.kind == "basket":
        db = quest_basket(args.rows, random_state=args.seed)
        save_transactions(db, args.path)
        print(f"wrote {len(db)} transactions to {args.path}")
    elif args.kind == "agrawal":
        table = agrawal(args.rows, function=args.function, noise=args.noise,
                        random_state=args.seed)
        save_table(table, args.path)
        print(f"wrote {table.n_rows} rows (function F{args.function}) "
              f"to {args.path}")
    else:
        from .core.table import Table, numeric

        X, y = gaussian_blobs(args.rows, centers=args.centers,
                              random_state=args.seed)
        table = Table(
            [numeric("x"), numeric("y")],
            {"x": X[:, 0], "y": X[:, 1]},
        )
        save_table(table, args.path)
        print(f"wrote {len(X)} points ({args.centers} blobs) to {args.path}")
    return 0


def _cmd_bench(args) -> int:
    from . import bench

    output = None if args.output == "-" else args.output
    payload = bench.main(scale=args.scale, n_jobs=args.jobs,
                         repeat=args.repeat, output=output)
    entries = payload["benchmarks"] + payload["kernels"]["benchmarks"]
    return 0 if all(e["identical"] for e in entries) else 2


def _cmd_algorithms(args) -> int:
    from . import registry

    if args.json:
        import json

        print(json.dumps({"algorithms": registry.capability_table()},
                         indent=2, sort_keys=True))
    else:
        print(registry.render_table())
    return 0


def _cmd_serve(args) -> int:
    from .server import QuotaPolicy, serve

    quotas = QuotaPolicy.from_file(args.quotas) if args.quotas else None
    return serve(
        args.store, host=args.host, port=args.port, workers=args.workers,
        quotas=quotas, max_retries=args.retries,
        lease_timeout=args.lease_timeout, max_failures=args.max_failures,
        drain_grace=args.drain_grace,
        result_cache=not args.no_result_cache,
        cache_dir=args.cache_dir,
        request_timeout=args.request_timeout,
    )


COMMANDS = {
    "mine": _cmd_mine,
    "classify": _cmd_classify,
    "cluster": _cmd_cluster,
    "generate": _cmd_generate,
    "bench": _cmd_bench,
    "algorithms": _cmd_algorithms,
    "serve": _cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        from .runtime.supervisor import SupervisedCrash

        if isinstance(exc, SupervisedCrash):
            # The supervised child kept dying; hand operators the full
            # structured report, machine-readable, on stderr.
            print(exc.report.to_json(), file=sys.stderr)
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
