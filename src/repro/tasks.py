"""One run path for the three job kinds.

``repro mine|classify|cluster`` and the job server's jobs of the same
kinds take the parameters :data:`repro.registry.PARAMETERS` declares
and run the same code.  :func:`check` is the one edge check (names,
JSON types, capability gates; value ranges stay inside the
algorithms), and :func:`run` loads, fits and returns a result with two
views: ``payload(ctx)``, the job's JSON, and ``render(top)``, the CLI's
report.  :func:`run` imports what it uses on first call, and
:func:`preload` imports it ahead of a fork.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, NamedTuple, Optional, Tuple

from . import registry
from .core.exceptions import ReproError, ValidationError
from .registry import FAMILY_BY_KIND, PARAMETERS, Param

#: JSON type → accepted Python types, and the conversion :func:`resolve`
#: applies (a JSON integer is a valid number).
_ACCEPT = {"number": (int, float), "integer": (int,), "string": (str,)}
_CONVERT = {"number": float, "integer": int, "string": str}


class ParamError(ValidationError):
    """A parameter the table does not declare, mistypes or gates off."""


def _declared(kind: str) -> Tuple[Param, ...]:
    if kind not in PARAMETERS:
        raise ReproError(
            f"unknown job kind {kind!r}; choices: {sorted(PARAMETERS)}")
    return PARAMETERS[kind]


def spec(kind: str, algorithm: str) -> registry.AlgorithmSpec:
    """The registry row a ``kind`` run of ``algorithm`` uses."""
    _declared(kind)
    return registry.get(FAMILY_BY_KIND[kind], algorithm)


def parameter_table(kind: Optional[str] = None) -> Dict[str, list]:
    """The JSON-ready table of one kind, or (None) of every kind."""
    kinds = [kind] if kind in PARAMETERS else list(PARAMETERS)
    return {k: [p._asdict() for p in PARAMETERS[k]] for k in kinds}


def check(kind: str, algorithm: str, params: Dict[str, Any],
          flags: bool = False) -> registry.AlgorithmSpec:
    """Reject what a run would ignore or could not honour.

    Checks names, JSON types and capability gates, and returns the
    algorithm's registry row.  A value equal to the default needs no
    capability (``n_jobs: 1`` runs serially anywhere).  ``flags``
    spells the parameters as CLI flags in the :class:`ParamError`.
    """
    row = spec(kind, algorithm)
    declared = {p.name: p for p in PARAMETERS[kind]}
    unknown = sorted(set(params) - set(declared))
    if unknown:
        raise ParamError(f"unknown {kind} parameter(s) {unknown}; "
                         f"declared: {sorted(declared)}")
    for name, value in params.items():
        p = declared[name]
        if value is None and p.default is None and not p.required:
            continue
        if not isinstance(value, _ACCEPT[p.type]) or isinstance(value, bool):
            raise ParamError(
                f"parameter {name!r} must be a JSON {p.type}, got {value!r}")
        allowed = (True if p.gate is None or value == p.default
                   else getattr(row.capabilities, p.gate))
        if isinstance(allowed, tuple) and value not in allowed:
            raise ParamError(
                f"{algorithm} does not support "
                f"{p.flag if flags else name}={value!r}; "
                f"choices: {', '.join(allowed) or 'none'}")
        if not allowed:
            group = [q.flag if flags else q.name
                     for q in PARAMETERS[kind] if q.gate == p.gate]
            raise ParamError(f"{algorithm} does not support {'/'.join(group)}")
    resolve(kind, params)
    return row


def resolve(kind: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Every declared parameter of ``kind``: the given value, converted
    to its JSON type, or its default.  Undeclared names are not read."""
    values = {}
    for p in _declared(kind):
        value = params.get(p.name)
        if value is None and p.required:
            raise ParamError(f"{kind} requires parameter {p.name!r}")
        values[p.name] = p.default if value is None else _CONVERT[p.type](value)
    return values


def result_params(kind: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """The resolved parameters that can change a run's result bytes."""
    values = resolve(kind, params)
    return {p.name: values[p.name] for p in PARAMETERS[kind] if not p.neutral}


def job_budget(capabilities: registry.Capabilities, quota,
               params: Dict[str, Any]):
    """The run's :class:`~repro.runtime.Budget`, or None when uncapped.

    Its own ``time_limit`` and ``max_candidates``, each clamped by the
    tenant ``quota`` (None on the CLI); the unit cap lands on the axis
    the algorithm declares as its ``budget_resource`` and is dropped
    for an algorithm without one.
    """
    def tighter(name):
        given = [v for v in (params.get(name), getattr(quota, name, None))
                 if v is not None]
        return min(given) if given else None

    time_limit, units = tighter("time_limit"), tighter("max_candidates")
    resource = capabilities.budget_resource
    kwargs: Dict[str, Any] = {}
    if time_limit is not None:
        kwargs["time_limit"] = float(time_limit)
    if units is not None and resource is not None:
        kwargs[f"max_{resource}"] = int(units)
    if not kwargs:
        return None
    from .runtime.budget import Budget

    return Budget(**kwargs)


def preload(rows=None) -> None:
    """Import everything a run of ``rows`` (default: every algorithm) can
    reach, so that a forked child imports nothing: an import there is
    paid on every run, can fail under the child's memory cap, and one
    racing a fork can leave a module lock held in the child."""
    for row in registry.specs() if rows is None else rows:
        row.factory, row.make  # noqa: B018 - resolve and cache
    for module in ("associations.rules", "datasets.io",
                   "evaluation.cluster_metrics", "evaluation.metrics",
                   "preprocessing.split"):
        importlib.import_module(f"repro.{module}")


def run(kind: str, algorithm: str, dataset: str, params: Dict[str, Any],
        ctx=None):
    """Load ``dataset``, fit ``algorithm``, return the result.

    ``params`` are trusted to have passed :func:`check`; ``ctx`` is the
    run's :class:`~repro.runtime.context.ExecutionContext`, or None.
    """
    row = spec(kind, algorithm)
    values = resolve(kind, params)
    if kind == "mine":
        return _mine(row, dataset, values, ctx)
    from .datasets.io import load_table

    table = load_table(dataset)
    if kind == "classify":
        return _classify(row, dataset, values, ctx, table)
    return _cluster(row, dataset, values, ctx, table)


def _fast_kwargs(row, values) -> Dict[str, Any]:
    """``n_jobs`` and ``backend``, for the algorithms that take them."""
    kwargs: Dict[str, Any] = {}
    if row.capabilities.parallelizable:
        kwargs["n_jobs"] = values["n_jobs"]
    if values["backend"] is not None:
        kwargs["backend"] = values["backend"]
    return kwargs


def _mine(row, dataset, values, ctx):
    from .datasets.io import load_transactions

    db = load_transactions(dataset)
    kwargs = _fast_kwargs(row, values)
    if (row.capabilities.degradation_policies
            and ctx is not None and ctx.budget is not None):
        kwargs["on_exhausted"] = values["on_exhausted"]
    itemsets = row.factory(db, values["min_support"], ctx=ctx, **kwargs)
    return MineResult(row.name, dataset, values, len(db), db.n_items,
                      db.avg_transaction_length(), itemsets)


def _classify(row, dataset, values, ctx, table):
    from .evaluation.metrics import classification_report
    from .preprocessing.split import train_test_split

    target = values["target"]
    train, test = train_test_split(table, values["test_fraction"],
                                   stratify=target,
                                   random_state=values["seed"])
    model = row.factory(ctx=ctx)
    model.fit(train, target)
    y_true = [test.value(i, target) for i in range(test.n_rows)]
    return ClassifyResult(
        row.name, dataset, values, *_degradation(model),
        train.n_rows, test.n_rows, float(model.score(test)),
        classification_report(y_true, model.predict(test)))


def _cluster(row, dataset, values, ctx, table):
    from .evaluation.cluster_metrics import sse

    X = table.to_matrix()
    if X.shape[1] == 0:
        raise ReproError("no numeric columns to cluster")
    model = row.make(ctx, k=values["k"], eps=values["eps"],
                     min_samples=values["min_samples"], seed=values["seed"],
                     **_fast_kwargs(row, values))
    labels = model.fit_predict(X)
    return ClusterResult(row.name, dataset, values, *_degradation(model),
                         X, labels, float(sse(X, labels)))


def _degradation(model) -> Tuple[bool, Optional[str]]:
    return (bool(getattr(model, "truncated_", False)),
            getattr(model, "truncation_reason_", None))


def _note(degraded: bool, reason: Optional[str], what: str) -> list:
    return [f"NOTE: budget exhausted -- {what} ({reason})"] if degraded else []


class MineResult(NamedTuple):
    algorithm: str
    dataset: str
    values: Dict[str, Any]
    n_transactions: int
    n_items: int
    avg_length: float
    itemsets: Any

    def payload(self, ctx=None) -> Dict[str, Any]:
        """The job's JSON: itemsets, and rules when ``min_confidence``
        was given; beats the job's lease while it builds them."""
        from .associations.rules import generate_rules
        from .runtime.context import ExecutionContext

        itemsets = self.itemsets
        ctx = ctx or ExecutionContext()
        ctx.pulse("finalize", n_itemsets=len(itemsets))
        payload: Dict[str, Any] = {
            "kind": "mine",
            "algorithm": self.algorithm,
            "n_transactions": self.n_transactions,
            "min_support": self.values["min_support"],
            "n_itemsets": len(itemsets),
            "itemsets": [
                {"items": [int(item) for item in itemset], "count": int(count)}
                for itemset, count in _beating(
                    itemsets.sorted_by_support(), ctx, "finalize")
            ],
            "degraded": bool(itemsets.truncated),
            "degraded_reason": itemsets.truncation_reason,
        }
        min_confidence = self.values["min_confidence"]
        if min_confidence is not None:
            ctx.pulse("rules")
            rules = generate_rules(_BeatingItemsets(itemsets, ctx),
                                   min_confidence)
            ctx.pulse("finalize", n_rules=len(rules))
            payload["min_confidence"] = min_confidence
            payload["rules"] = [
                {"antecedent": [int(i) for i in rule.antecedent],
                 "consequent": [int(i) for i in rule.consequent],
                 "support": rule.support, "confidence": rule.confidence,
                 "lift": rule.lift}
                for rule in _beating(rules, ctx, "finalize")
            ]
        return payload

    def render(self, top: Optional[int] = None) -> str:
        """The CLI report, listing at most ``top`` itemsets and rules."""
        from .associations.rules import generate_rules

        itemsets, values = self.itemsets, self.values
        rules = generate_rules(itemsets, values["min_confidence"])
        return "\n".join([
            f"{self.n_transactions} transactions, {self.n_items} items, "
            f"avg length {self.avg_length:.1f}",
            *_note(itemsets.truncated, itemsets.truncation_reason,
                   "partial result"),
            f"{len(itemsets)} frequent itemsets at support "
            f">= {values['min_support']} (largest size {itemsets.max_size()})",
            *(f"  {set(itemset)}  count={count}"
              for itemset, count in itemsets.sorted_by_support()[:top]),
            f"{len(rules)} rules at confidence >= {values['min_confidence']}",
            *(f"  {rule}" for rule in rules[:top]),
        ])


class ClassifyResult(NamedTuple):
    algorithm: str
    dataset: str
    values: Dict[str, Any]
    degraded: bool
    degraded_reason: Optional[str]
    n_train: int
    n_test: int
    accuracy: float
    report: Dict[Any, Any]

    def payload(self, ctx=None) -> Dict[str, Any]:
        return {
            "kind": "classify",
            "algorithm": self.algorithm,
            "target": self.values["target"],
            "n_train": int(self.n_train),
            "n_test": int(self.n_test),
            "accuracy": self.accuracy,
            "report": {
                str(label): {"precision": entry.precision,
                             "recall": entry.recall, "f1": entry.f1,
                             "support": int(entry.support)}
                for label, entry in self.report.items()
            },
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
        }

    def render(self, top: Optional[int] = None) -> str:
        return "\n".join([
            *_note(self.degraded, self.degraded_reason, "tree truncated"),
            f"{self.algorithm} on {self.dataset}: "
            f"train {self.n_train} / test {self.n_test}",
            f"test accuracy: {self.accuracy:.4f}",
            *(f"  class {label!r}: precision={entry.precision:.3f} "
              f"recall={entry.recall:.3f} f1={entry.f1:.3f} "
              f"(n={entry.support})"
              for label, entry in list(self.report.items())[:top]),
        ])


class ClusterResult(NamedTuple):
    algorithm: str
    dataset: str
    values: Dict[str, Any]
    degraded: bool
    degraded_reason: Optional[str]
    X: Any
    labels: Any
    sse: float

    def payload(self, ctx=None) -> Dict[str, Any]:
        labels = [int(label) for label in self.labels]
        return {
            "kind": "cluster",
            "algorithm": self.algorithm,
            "n_points": int(len(self.X)),
            "n_features": int(self.X.shape[1]),
            "n_clusters": len(set(labels) - {-1}),
            "n_noise": labels.count(-1),
            "labels": labels,
            "sse": self.sse,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
        }

    def render(self, top: Optional[int] = None) -> str:
        from .evaluation.cluster_metrics import silhouette

        X, labels = self.X, self.labels
        clusters = sorted(set(labels.tolist()) - {-1})
        noise = int((labels == -1).sum())
        lines = [*_note(self.degraded, self.degraded_reason,
                        "partial clustering"),
                 f"{self.algorithm} on {self.dataset}: {len(X)} points, "
                 f"{X.shape[1]} features",
                 f"clusters: {len(clusters)}"
                 + (f", noise points: {noise}" if noise else "")]
        for cluster_id in clusters[:top]:
            member = labels == cluster_id
            centroid = ", ".join(f"{v:.3g}" for v in X[member].mean(axis=0))
            lines.append(f"  cluster {cluster_id}: {int(member.sum())} "
                         f"points, centroid ({centroid})")
        lines.append(f"SSE: {self.sse:.2f}")
        if len(clusters) >= 2:
            lines.append(f"silhouette: {silhouette(X, labels):.3f}")
        return "\n".join(lines)


def _beating(items, ctx, phase: str):
    """Yield ``items``, beating ``ctx`` (:meth:`ExecutionContext.beat`)
    between them, so that a long finalize does not let the job's lease
    expire: rule generation and the result dicts each take seconds on
    a dense mine (2.2 s and 0.85 s for 108,512 rules, one core of an
    idle 2-CPU x86-64 host).  A beat, not a ``ctx.step``: a truncated
    run must still serialize its result, so the budget is not
    consulted; cancellation still applies."""
    for done, item in enumerate(items):
        ctx.beat(phase, done=done)
        yield item


class _BeatingItemsets:
    """Mined itemsets whose walk by ``generate_rules`` beats the lease."""

    def __init__(self, itemsets, ctx):
        self.itemsets = itemsets
        self.ctx = ctx

    def __getattr__(self, name):
        return getattr(self.itemsets, name)

    def __iter__(self):
        return _beating(self.itemsets.supports, self.ctx, "rules")
