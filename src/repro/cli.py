"""Command-line interface: ``repro <command>``.

Six commands cover the library's workflows without writing Python:

* ``repro mine``       — frequent itemsets + rules from a FIMI-format
  transaction file (one transaction per line, integer items).
* ``repro classify``   — train and evaluate a classifier on a typed CSV
  (headers ``name:num`` / ``name:cat``, see
  :mod:`repro.datasets.io`).
* ``repro cluster``    — cluster the numeric columns of a typed CSV.
* ``repro generate``   — emit synthetic workloads (basket / table /
  blobs) for the other commands to consume.
* ``repro algorithms`` — list every registered algorithm with its
  declared capabilities (``--json`` for the machine-readable table).
* ``repro serve``      — run the fault-tolerant mining job server
  (HTTP/JSON, durable job store, crash recovery; see
  :mod:`repro.server`).

Every command prints a compact human-readable report to stdout and
exits non-zero on invalid input.

``mine``, ``classify`` and ``cluster`` run the job server's code: the
flags become a run's parameters, :func:`repro.tasks.check` gates them,
:func:`repro.tasks.run` fits, and the result's ``render`` view is the
report.  Their parameter flags and algorithm choices come from
:mod:`repro.registry`; this module adds only the flags that steer the
process: ``--top``, ``--checkpoint-dir`` / ``--resume`` /
``--retries`` (resumable runs that retry transient faults), and
``--supervise`` with its hard caps ``--max-rss-mb`` /
``--hard-time-limit`` (a child process whose crashes are contained,
relaunched and resumed from the newest snapshot).  A command imports
only what it runs: ``repro algorithms`` loads no numpy, and ``repro
mine`` no classifier, clusterer, sequence miner, server or supervisor.

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


def _add_params(sub: argparse.ArgumentParser, kind: str, *names: str) -> None:
    """Flags generated from the parameter table of ``kind``."""
    from . import registry

    declared = {param.name: param for param in registry.PARAMETERS[kind]}
    for name in names:
        param = declared[name]
        sub.add_argument(
            param.flag, dest=param.name,
            type={"number": float, "integer": int}.get(param.type),
            default=param.default if param.cli_default is None
            else param.cli_default,
            required=param.required, metavar=param.metavar, help=param.help,
        )


def _add_checkpoint_flags(sub: argparse.ArgumentParser, kind: str) -> None:
    sub.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist resumable snapshots of pass boundaries into DIR",
    )
    _add_params(sub, kind, "checkpoint_every")
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


def _usage_error(args, spec, params) -> Optional[str]:
    """One-line actionable message for a bad flag combination, or None.

    The CLI's exit-2 contract, checked before any data is loaded: the
    process flags against each other and the algorithm's capabilities,
    and the parameters through :func:`repro.tasks.check`, the server's
    admission check too.
    """
    from . import tasks

    caps = spec.capabilities
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    if getattr(args, "resume", False) and checkpoint_dir is None:
        return "--resume requires --checkpoint-dir"
    if checkpoint_dir is not None and not caps.checkpointable:
        return f"{spec.name} does not support --checkpoint-dir/--resume"
    try:
        tasks.check(args.command, spec.name, params, flags=True)
    except tasks.ParamError as exc:
        return str(exc)
    if not args.supervise:
        if args.max_rss_mb is not None:
            return "--max-rss-mb requires --supervise"
        if args.hard_time_limit is not None:
            return "--hard-time-limit requires --supervise"
    return None


def build_parser() -> argparse.ArgumentParser:
    from . import registry

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Classic data mining techniques from scratch.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="frequent itemsets and rules")
    mine.add_argument("path", help="FIMI transaction file")
    _add_params(mine, "mine", "min_support", "min_confidence")
    mine.add_argument(
        "--miner", dest="algorithm",
        choices=list(registry.names("associations")),
        default="apriori",
    )
    mine.add_argument("--top", type=int, default=10,
                      help="rules/itemsets to display")
    _add_params(mine, "mine", "time_limit", "max_candidates")
    _add_checkpoint_flags(mine, "mine")
    _add_supervise_flags(mine)
    _add_params(mine, "mine", "n_jobs", "backend")

    classify = sub.add_parser("classify", help="train/evaluate a classifier")
    classify.add_argument("path", help="typed CSV (name:num / name:cat)")
    _add_params(classify, "classify", "target")
    classify.add_argument(
        "--classifier", dest="algorithm",
        choices=list(registry.names("classification")),
        default="c45",
    )
    _add_params(classify, "classify", "test_fraction", "seed")
    classify.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="with --supervise: relaunch a crashed fit up to N times",
    )
    _add_params(classify, "classify", "time_limit", "max_candidates")
    _add_supervise_flags(classify)

    cluster = sub.add_parser("cluster", help="cluster numeric columns")
    cluster.add_argument("path", help="typed CSV (numeric columns used)")
    cluster.add_argument(
        "--algorithm",
        choices=list(registry.names("clustering")),
        default="kmeans",
    )
    _add_params(cluster, "cluster", "k", "eps", "min_samples", "seed",
                "time_limit", "max_candidates")
    _add_checkpoint_flags(cluster, "cluster")
    _add_supervise_flags(cluster)
    _add_params(cluster, "cluster", "n_jobs", "backend")

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
def _cmd_run(args) -> int:
    """``repro mine|classify|cluster``: flags → parameters → run → report.

    ``--supervise`` runs the whole run (load, fit, evaluate) in a
    supervised child, which gets its checkpointer through ``ctx``
    exactly like a server job; a child that keeps crashing raises
    :class:`~repro.runtime.supervisor.SupervisedCrash`, which ``main``
    turns into exit code 3 and a JSON report on stderr.
    """
    from . import registry, tasks
    from .runtime import Checkpointer, ExecutionContext, RetryPolicy

    kind = args.command
    spec = tasks.spec(kind, args.algorithm)
    params = {param.name: getattr(args, param.name)
              for param in registry.PARAMETERS[kind] if param.flag}
    usage = _usage_error(args, spec, params)
    if usage is not None:
        print(f"error: {usage}", file=sys.stderr)
        return 2
    run = (kind, args.algorithm, args.path, params)
    budget = tasks.job_budget(spec.capabilities, None, params)
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    retry = None
    if args.retries:
        retry = RetryPolicy(max_retries=args.retries, random_state=0)
    checkpointer = None
    if checkpoint_dir is not None and not args.supervise:
        checkpointer = Checkpointer(checkpoint_dir, every=args.checkpoint_every,
                                    resume=args.resume)
    ctx = None
    if budget is not None or checkpointer is not None:
        ctx = ExecutionContext(budget=budget, checkpointer=checkpointer)
    if args.supervise:
        from .runtime import HardLimits, Supervisor

        tasks.preload([spec])
        limits = None
        if args.max_rss_mb is not None or args.hard_time_limit is not None:
            limits = HardLimits(max_rss_mb=args.max_rss_mb,
                                wall_time_limit=args.hard_time_limit)
        outcome = Supervisor(
            limits=limits, retry=retry, checkpoint_dir=checkpoint_dir,
            checkpoint_every=getattr(args, "checkpoint_every", 1),
            resume=getattr(args, "resume", False),
        ).run(tasks.run, *run, ctx=ctx)
        if outcome.reports:
            causes = ", ".join(report.cause for report in outcome.reports)
            print(f"NOTE: supervised run recovered after "
                  f"{len(outcome.reports)} crash(es) ({causes})")
        result = outcome.value
    elif retry is not None:
        result = retry.run(tasks.run, *run, ctx)
    else:
        result = tasks.run(*run, ctx)
    print(result.render(getattr(args, "top", None)))
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
    "mine": _cmd_run,
    "classify": _cmd_run,
    "cluster": _cmd_run,
    "generate": _cmd_generate,
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
