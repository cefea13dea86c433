"""In-memory span recorder that wraps the program's public entry points.

Loaded only by ``boot.py`` (the traced pass); the untraced pass never
imports it.  :func:`install` replaces each traced callable where its
callers look it up -- module attributes bound by ``from x import y``,
class attributes, the registry's factories and the CLI's command
table -- with a wrapper that records one span per call:

    (id, parent, name, start, end, pid, thread, attrs, counts)

Times are ``time.perf_counter()`` (CLOCK_MONOTONIC on Linux, so spans
from the server, its forked job children and the load generator share
one clock).  Spans stay in memory and are written as JSON lines when
the process ends; a forked job child leaves through ``os._exit``, so it
writes its spans as soon as the supervisor's target returns.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """Span buffer of one process (reset in forked children)."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.root_pid = self.pid = os.getpid()
        self.spans: List[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The child keeps the forking thread's open-span stack, so its
        # first span links to the parent's ``Supervisor.run`` span.
        self.pid = os.getpid()
        self.spans = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a counter on the innermost open span of this thread."""
        stack = self._stack()
        if stack:
            counts = stack[-1][8]
            counts[name] = counts.get(name, 0) + amount

    def call(self, name: str, fn: Callable, args, kwargs,
             attrs: Optional[Callable] = None):
        stack = self._stack()
        span = [f"{self.pid}.{next(self._ids)}",
                stack[-1][0] if stack else None, name,
                time.perf_counter(), None, self.pid,
                threading.get_ident(), {}, {}]
        stack.append(span)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            span[4] = time.perf_counter()
            stack.pop()
            if attrs is not None:
                try:
                    span[7] = attrs(args, kwargs, result)
                except Exception as exc:  # noqa: BLE001 - never break the program
                    span[7] = {"attr_error": repr(exc)}
            self.spans.append(span)

    def flush(self) -> None:
        """Append this process's spans to its own file and clear them."""
        spans, self.spans = self.spans, []
        if not spans:
            return
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as handle:
            for span in spans:
                handle.write(json.dumps(span, default=repr) + "\n")


def _wrap(tracer: Tracer, name: str, fn: Callable,
          attrs: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, attrs)

    wrapper.__perfbench__ = True
    return wrapper


def _counter(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    wrapper.__perfbench__ = True
    return wrapper


def _replace_everywhere(original: Callable, make: Callable[[str], Callable]) -> None:
    """Rebind ``original`` in every loaded ``repro`` module that holds it.

    ``make(module_name)`` builds the wrapper, so a wrapper knows which
    module called through it (``store``, ``checkpoint``, ``cache`` and
    ``transport`` each import ``atomic_write_bytes`` by name).
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, make(module_name))


def _patch_method(tracer: Tracer, cls: type, method: str, name: str,
                  attrs: Optional[Callable] = None, counter: bool = False) -> None:
    fn = getattr(cls, method)
    if getattr(fn, "__perfbench__", False):
        return
    wrapped = _counter(tracer, name, fn) if counter else _wrap(tracer, name, fn, attrs)
    setattr(cls, method, wrapped)


# ----------------------------------------------------------------------
# Span attributes
# ----------------------------------------------------------------------
def _file_bytes(args, kwargs, result) -> Dict[str, Any]:
    path = args[0] if args else kwargs.get("path")
    try:
        return {"bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return {"bytes": 0}


def _itemset_attrs(args, kwargs, result) -> Dict[str, Any]:
    stats = getattr(result, "pass_stats", None) or []
    return {
        "candidates": sum(p.n_candidates for p in stats),
        "frequent": sum(p.n_frequent for p in stats) if stats else len(result),
    }


def _len_attrs(key: str) -> Callable:
    return lambda args, kwargs, result: {key: len(result)}


def _fit_attrs(args, kwargs, result) -> Dict[str, Any]:
    model = args[0]
    out: Dict[str, Any] = {}
    n_nodes = getattr(model, "n_nodes", None)
    if callable(n_nodes):
        out["nodes"] = int(n_nodes())
    if getattr(model, "n_iter_", None) is not None:
        out["iterations"] = int(model.n_iter_)
    return out


def _write_attrs(op: str, caller: str) -> Callable:
    def attrs(args, kwargs, result):
        data = args[1] if len(args) > 1 else kwargs.get("data", b"")
        if op == "atomic":
            fsyncs = 2 if kwargs.get("fsync_dir", args[3] if len(args) > 3 else True) else 1
        else:
            fsyncs = 1 if kwargs.get("fsync_file", args[2] if len(args) > 2 else True) else 0
        return {"op": op, "caller": caller, "bytes": len(data), "fsyncs": fsyncs}
    return attrs


def _result_len(args, kwargs, result) -> Dict[str, Any]:
    return {"bytes": len(result) if result is not None else 0}


def _cache_get_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"hit": int(result is not None)}


def _submit_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"job_id": result.job_id}


def _transition_attrs(args, kwargs, result) -> Dict[str, Any]:
    job_id = args[1] if len(args) > 1 else kwargs.get("job_id")
    to_state = args[2] if len(args) > 2 else kwargs.get("to_state")
    return {"job_id": job_id, "to_state": to_state}


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
#: JobStore methods left unwrapped: path helpers (no I/O) and ``get``,
#: which is counted on the enclosing span instead (a full scan reads
#: every record, and a span per record would dwarf the scan itself).
_STORE_SKIP = {"job_dir", "record_path", "checkpoint_dir", "scratch_dir",
               "result_path", "cancel_path", "lease_path", "failures_path",
               "events_path", "index_dir", "get"}


def install(tracer: Tracer, server: bool) -> None:
    """Wrap the public entry points of every traced layer.

    ``server`` also wraps the server package, which only ``repro
    serve`` imports; the CLI ops never load it.
    """
    import repro  # noqa: F401 - loads every library layer
    import repro.cli as cli
    from repro import registry
    from repro.core import base, columnar
    from repro.datasets import io as dataset_io
    from repro.associations import rules
    from repro.evaluation import cluster_metrics, metrics
    from repro.runtime import checkpoint, context, fsio, supervisor

    if server:
        import repro.server  # noqa: F401
        from repro.server import api, cache, scheduler, store

    def everywhere(fn, name, attrs=None):
        _replace_everywhere(fn, lambda _module: _wrap(tracer, name, fn, attrs))

    everywhere(dataset_io.load_transactions, "datasets.load", _file_bytes)
    everywhere(dataset_io.load_table, "datasets.load", _file_bytes)
    for encoder in ("transaction_bitmap", "sequence_bitmap",
                    "presorted_columns", "table_matrix"):
        everywhere(getattr(columnar, encoder), "core.columnar.encode")
    everywhere(rules.generate_rules, "associations.rules", _len_attrs("rules"))
    everywhere(cluster_metrics.silhouette, "evaluation.silhouette")
    everywhere(metrics.classification_report, "evaluation.report")
    for spec in registry.specs("associations"):
        object.__setattr__(spec, "factory", _wrap(
            tracer, "associations.mine", spec.factory, _itemset_attrs))
    _patch_method(tracer, base.Classifier, "fit", "classification.fit", _fit_attrs)
    _patch_method(tracer, base.Classifier, "predict", "classification.predict")
    _patch_method(tracer, base.Classifier, "score", "classification.predict")
    _patch_method(tracer, base.Clusterer, "fit", "clustering.fit", _fit_attrs)
    _patch_method(tracer, context.ExecutionContext, "step",
                  "runtime.context.step", counter=True)
    _patch_method(tracer, checkpoint.Checkpointer, "mark", "runtime.checkpoint.mark")
    _patch_method(tracer, supervisor.Supervisor, "run", "runtime.supervisor.run")
    everywhere(supervisor.read_result, "runtime.transport.read", _file_bytes)
    for op, fn in (("atomic", fsio.atomic_write_bytes),
                   ("append", fsio.append_bytes)):
        _replace_everywhere(fn, lambda module, op=op, fn=fn: _wrap(
            tracer, "runtime.fsio.write", fn,
            _write_attrs(op, module.replace("repro.", "", 1))))
    for command, fn in list(cli.COMMANDS.items()):
        cli.COMMANDS[command] = _wrap(tracer, "cli.command", fn)

    if not server:
        return
    everywhere(scheduler.canonical_result_bytes, "server.scheduler.canonical_json")
    everywhere(cache.content_key, "server.cache.key")
    execute_job = scheduler.execute_job

    def traced_execute_job(*args, **kwargs):
        try:
            return tracer.call("server.scheduler.execute_job", execute_job,
                               args, kwargs)
        finally:
            if os.getpid() != tracer.root_pid:
                tracer.flush()

    traced_execute_job.__perfbench__ = True
    _replace_everywhere(execute_job, lambda _module: traced_execute_job)
    _patch_method(tracer, scheduler.Scheduler, "submit",
                  "server.scheduler.submit", _submit_attrs)
    _patch_method(tracer, cache.ResultCache, "get", "server.cache.get",
                  _cache_get_attrs)
    _patch_method(tracer, cache.ResultCache, "put", "server.cache.put")
    for method, value in list(vars(store.JobStore).items()):
        if method.startswith("_") or not callable(value) or method in _STORE_SKIP:
            continue
        attrs = {"transition": _transition_attrs,
                 "read_result_bytes": _result_len}.get(method)
        _patch_method(tracer, store.JobStore, method, f"server.store.{method}", attrs)
    _patch_method(tracer, store.JobStore, "get", "server.store.get", counter=True)
    handler = api.JobRequestHandler
    _patch_method(tracer, handler, "do_GET", "server.api.request")
    _patch_method(tracer, handler, "do_POST", "server.api.request")
    _patch_method(tracer, handler, "_post_job", "server.api.ack")
    _patch_method(tracer, handler, "_get_result", "server.api.result")
