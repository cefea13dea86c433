"""Central algorithm registry: a declared table of every algorithm.

:data:`ALGORITHMS` holds one row per miner, classifier, clusterer and
sequence miner: its name, family, a ``"module:attr"`` path to the
factory (and to the ``make`` adapter), its :class:`Capabilities` and a
one-line summary; :data:`PARAMETERS` declares once what a run of each
job kind takes.  The CLI builds its flags from the two tables, and it
and the job server both run through :mod:`repro.tasks`, so adding an
algorithm means adding one row here (and, for a clusterer, its adapter
in :mod:`repro.clustering.adapters`) — the CLI and the server never
change.

Reading the table imports nothing beyond this module: ``repro
algorithms`` and the CLI's argument parser never load numpy or an
algorithm module.  A spec imports its factory the first time
:attr:`AlgorithmSpec.factory` is read and keeps it.

The dependency direction is strictly one-way: algorithm modules and
this registry never import :mod:`repro.cli` (enforced by a CI lint
step).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, Iterable, NamedTuple, Optional, Tuple

from .core.exceptions import ValidationError

#: the four algorithm families
FAMILIES = ("associations", "classification", "clustering", "sequences")


@dataclass(frozen=True)
class Capabilities:
    """What runtime plumbing an algorithm can honour.

    Supervision is not a capability: every algorithm is deterministic,
    so every one runs under :class:`~repro.runtime.Supervisor` (the
    CLI's ``--supervise``, every server job), and a relaunched run
    resumes from its newest snapshot (``checkpointable``) or restarts
    from scratch to the same result.

    Attributes
    ----------
    checkpointable:
        Accepts a checkpointer through its context and resumes from
        snapshots (``--checkpoint-dir`` / ``--resume``).
    budget_resource:
        Which budget axis bounds its dominant work — ``"candidates"``,
        ``"nodes"``, ``"expansions"`` — or ``None`` when the algorithm
        takes no budget.
    degradation_policies:
        Values its ``on_exhausted`` parameter accepts; empty for
        estimators that degrade internally (truncated trees, best-so-far
        clusterings) without such a parameter.
    parallelizable:
        Accepts ``n_jobs`` and shards work across a fork-based
        :class:`~repro.runtime.WorkerPool` with results byte-identical
        to serial execution (``--jobs`` in the CLI).
    vectorizable:
        Offers a vectorized hot-loop backend over the shared columnar
        data plane (:mod:`repro.core.columnar`) — packed bitsets,
        presorted columns or cached dense matrices — selected with a
        ``backend`` parameter (``--backend`` in the CLI) and
        byte-identical to the scalar path.
    """

    checkpointable: bool = False
    budget_resource: Optional[str] = None
    degradation_policies: Tuple[str, ...] = ()
    parallelizable: bool = False
    vectorizable: bool = False

    def describe(self) -> str:
        """Compact one-cell rendering for the ``repro algorithms`` table."""
        parts = []
        if self.checkpointable:
            parts.append("checkpoint")
        if self.parallelizable:
            parts.append("parallel")
        if self.vectorizable:
            parts.append("vectorize")
        if self.budget_resource is not None:
            parts.append(f"budget={self.budget_resource}")
        if self.degradation_policies:
            parts.append("degrade=" + "/".join(self.degradation_policies))
        return ", ".join(parts) if parts else "-"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form, consumed by ``repro algorithms --json`` and
        the job server's admission layer."""
        return {
            "checkpointable": self.checkpointable,
            "budget_resource": self.budget_resource,
            "degradation_policies": list(self.degradation_policies),
            "parallelizable": self.parallelizable,
            "vectorizable": self.vectorizable,
        }


def _resolve(path: str) -> Callable:
    module, _, attr = path.partition(":")
    return getattr(importlib.import_module(module), attr)


@dataclass(frozen=True)
class AlgorithmSpec:
    """One row of the algorithm table.

    ``factory_path`` names the public callable (miner function or
    estimator class) as ``"module:attr"``.  ``make_path`` optionally
    names an adapter ``make(ctx, **params)`` returning a ready-to-fit
    estimator, for families whose constructors take per-algorithm
    hyper-parameters; families with a uniform call shape (the miners)
    are invoked through ``factory`` directly.
    """

    name: str
    family: str
    factory_path: str
    capabilities: Capabilities = field(default_factory=Capabilities)
    summary: str = ""
    make_path: Optional[str] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(
                f"family must be one of {FAMILIES}, got {self.family!r}"
            )

    @cached_property
    def factory(self) -> Callable:
        """The factory, imported on first read."""
        return _resolve(self.factory_path)

    @cached_property
    def make(self) -> Optional[Callable]:
        """The adapter, imported on first read (None without one)."""
        return None if self.make_path is None else _resolve(self.make_path)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (factories stay out — they are not data)."""
        return {
            "name": self.name,
            "family": self.family,
            "summary": self.summary,
            "capabilities": self.capabilities.to_dict(),
        }


# The shared ``on_exhausted`` vocabularies of repro.runtime.context,
# spelled out so that reading the table loads no runtime module (the
# conformance sweep checks they match).
_LEVELWISE = ("raise", "truncate", "partition", "sampling")
_BASIC = ("raise", "truncate")

_FAST = dict(parallelizable=True, vectorizable=True)
_LEVELWISE_CAPS = Capabilities(checkpointable=True, **_FAST,
                               budget_resource="candidates",
                               degradation_policies=_LEVELWISE)
_SHARDED_CAPS = Capabilities(checkpointable=True, **_FAST,
                             budget_resource="candidates",
                             degradation_policies=_BASIC)
_BUDGETED_CAPS = Capabilities(budget_resource="candidates",
                              degradation_policies=_BASIC)
# Only the tree growers charge a budget (one node unit per attempted
# split); the other classifiers take none.
_TREE_CAPS = Capabilities(budget_resource="nodes")
_PLAIN_CAPS = Capabilities()
# The iterative clusterers snapshot pass boundaries and so are
# checkpointable; the single-shot methods rerun from the start.  Birch
# charges the ``nodes`` axis (one unit per point inserted into the
# CF-tree), unlike the other clusterers' ``expansions``.
_ITERATIVE_CAPS = Capabilities(checkpointable=True,
                               budget_resource="expansions")
_SINGLE_SHOT_CAPS = Capabilities(budget_resource="expansions")

#: Every algorithm, in the order of the CLI's ``--miner`` /
#: ``--classifier`` / ``--algorithm`` choices and of ``repro
#: algorithms``.  ``sampling_miner``, ``apriori_hybrid`` and the other
#: public estimators take no runtime plumbing and stay out of it.
ALGORITHMS: Tuple[AlgorithmSpec, ...] = (
    AlgorithmSpec(
        "apriori", "associations", "repro.associations.apriori:apriori",
        _LEVELWISE_CAPS, "levelwise mining with hash-tree counting (VLDB '94)"),
    AlgorithmSpec(
        "fp_growth", "associations", "repro.associations.fp_growth:fp_growth",
        _BUDGETED_CAPS, "pattern growth without candidate generation"),
    AlgorithmSpec(
        "eclat", "associations", "repro.associations.eclat:eclat",
        Capabilities(checkpointable=True, budget_resource="candidates",
                     degradation_policies=_BASIC),
        "vertical tidset intersection, depth-first"),
    AlgorithmSpec(
        "apriori_tid", "associations",
        "repro.associations.apriori_tid:apriori_tid",
        Capabilities(checkpointable=True, budget_resource="candidates",
                     degradation_policies=_LEVELWISE),
        "levelwise over transformed transaction lists"),
    AlgorithmSpec(
        "dhp", "associations", "repro.associations.dhp:dhp",
        _LEVELWISE_CAPS, "hash-filtered pass 2 (Park/Chen/Yu)"),
    AlgorithmSpec(
        "partition", "associations",
        "repro.associations.partition:partition_miner",
        _SHARDED_CAPS, "two-scan partitioned mining (Savasere et al.)"),
    AlgorithmSpec(
        "c45", "classification", "repro.classification.c45:C45",
        _TREE_CAPS, "gain-ratio tree with pessimistic pruning"),
    AlgorithmSpec(
        "cart", "classification", "repro.classification.cart:CART",
        _TREE_CAPS, "binary Gini tree with cost-complexity pruning"),
    AlgorithmSpec(
        "sliq", "classification", "repro.classification.sliq:SLIQ",
        _TREE_CAPS, "breadth-first tree over pre-sorted attribute lists"),
    AlgorithmSpec(
        "nb", "classification", "repro.classification.naive_bayes:NaiveBayes",
        _PLAIN_CAPS, "Gaussian + Laplace-smoothed naive Bayes"),
    AlgorithmSpec(
        "knn", "classification", "repro.classification.knn:KNN",
        _PLAIN_CAPS, "lazy nearest-neighbour voting"),
    AlgorithmSpec(
        "oner", "classification", "repro.classification.baselines:OneR",
        _PLAIN_CAPS, "best single-attribute rule set"),
    AlgorithmSpec(
        "zeror", "classification", "repro.classification.baselines:ZeroR",
        _PLAIN_CAPS, "majority-class floor"),
    AlgorithmSpec(
        "kmeans", "clustering", "repro.clustering.kmeans:KMeans",
        Capabilities(checkpointable=True, **_FAST,
                     budget_resource="expansions"),
        "Lloyd/MacQueen with k-means++ seeding",
        "repro.clustering.adapters:make_kmeans"),
    AlgorithmSpec(
        "pam", "clustering", "repro.clustering.kmedoids:PAM",
        _ITERATIVE_CAPS, "exact k-medoids (BUILD + SWAP)",
        "repro.clustering.adapters:make_pam"),
    AlgorithmSpec(
        "clarans", "clustering", "repro.clustering.clarans:CLARANS",
        _ITERATIVE_CAPS, "randomized-search k-medoids",
        "repro.clustering.adapters:make_clarans"),
    AlgorithmSpec(
        "birch", "clustering", "repro.clustering.birch:Birch",
        Capabilities(budget_resource="nodes"),
        "single-scan CF-tree compression",
        "repro.clustering.adapters:make_birch"),
    AlgorithmSpec(
        "dbscan", "clustering", "repro.clustering.dbscan:DBSCAN",
        _SINGLE_SHOT_CAPS, "density-based clusters of arbitrary shape",
        "repro.clustering.adapters:make_dbscan"),
    AlgorithmSpec(
        "agglomerative", "clustering",
        "repro.clustering.hierarchical:Agglomerative", _SINGLE_SHOT_CAPS,
        "single/complete/average/ward linkage",
        "repro.clustering.adapters:make_agglomerative"),
    AlgorithmSpec(
        "apriori_all", "sequences", "repro.sequences.apriori_all:apriori_all",
        _BUDGETED_CAPS, "three-phase litemset sequence mining"),
    AlgorithmSpec(
        "gsp", "sequences", "repro.sequences.gsp:gsp",
        _SHARDED_CAPS, "generalized sequential patterns with time constraints"),
    AlgorithmSpec(
        "prefixspan", "sequences", "repro.sequences.prefixspan:prefixspan",
        _BUDGETED_CAPS, "pattern growth with pseudo-projection"),
)

_BY_KEY = {(spec.family, spec.name): spec for spec in ALGORITHMS}

#: job ``kind`` → registry family.
FAMILY_BY_KIND = {
    "mine": "associations",
    "classify": "classification",
    "cluster": "clustering",
}


class Param(NamedTuple):
    """One declared parameter of a job kind.

    ``gate`` names the :class:`~repro.registry.Capabilities` field an
    algorithm must declare to take a value other than the default (a
    tuple-valued one lists the values it takes).  ``neutral`` marks a
    parameter a suite proves cannot change the result bytes: the result
    cache leaves it out of the key.  ``flag`` is the CLI flag (None: a
    job-only parameter), and ``cli_default`` the CLI's default where it
    differs from a job's.
    """

    name: str
    type: str
    default: Any = None
    required: bool = False
    gate: Optional[str] = None
    neutral: bool = False
    flag: Optional[str] = None
    cli_default: Any = None
    metavar: Optional[str] = None
    help: Optional[str] = None


_BUDGET = (
    Param("time_limit", "number", gate="budget_resource",
          flag="--time-limit", metavar="SECONDS",
          help="wall-clock budget; exhaustion yields a partial result"),
    Param("max_candidates", "integer", gate="budget_resource",
          flag="--max-candidates", metavar="N",
          help="resource budget: candidates (mine), tree nodes (classify) "
               "or optimisation steps (cluster)"),
)
_FAST = (
    # Neutral by the resume suites (tests/runtime/test_resume_*.py).
    Param("checkpoint_every", "integer", 1, gate="checkpointable",
          neutral=True, flag="--checkpoint-every", metavar="N",
          help="persist every N-th boundary snapshot (default: 1)"),
    # Neutral by tests/runtime/test_parallel_equivalence.py.
    Param("n_jobs", "integer", 1, gate="parallelizable", neutral=True,
          flag="--jobs", metavar="N",
          help="shard work across N forked workers (-1 = all cores); "
               "output is byte-identical to the serial run"),
    # Neutral by tests/property/test_columnar_properties.py.
    Param("backend", "string", gate="vectorizable", neutral=True,
          flag="--backend", metavar="NAME",
          help="vectorized hot-loop backend over the shared columnar data "
               "plane (values are per-algorithm, e.g. bitmap/bitset/elkan); "
               "output is byte-identical to the scalar path; only "
               "vectorizable algorithms accept this flag"),
)
# Job-only test hooks (repro.server.scheduler): they never change the
# result, but stay in the cache key so that a chaos job runs, not hits.
_HOOKS = (Param("pass_delay", "number"), Param("kill_at_step", "integer"))

#: Every kind's parameters.  The CLI's ``--top`` and process flags
#: (checkpoint directory, resume, retries, supervision) are not
#: parameters of a run and stay in :mod:`repro.cli`.
PARAMETERS: Dict[str, Tuple[Param, ...]] = {
    "mine": (
        Param("min_support", "number", 0.05, flag="--min-support"),
        # A job without it gets no rules; the CLI always reports them.
        Param("min_confidence", "number", flag="--min-confidence",
              cli_default=0.6),
        *_BUDGET,
        Param("on_exhausted", "string", "truncate",
              gate="degradation_policies"),
        *_FAST, *_HOOKS,
    ),
    "classify": (
        Param("target", "string", required=True, flag="--target"),
        Param("test_fraction", "number", 0.3, flag="--test-fraction"),
        Param("seed", "integer", 0, flag="--seed"),
        *_BUDGET, *_HOOKS,
    ),
    "cluster": (
        Param("k", "integer", 3, flag="--k"),
        Param("eps", "number", 0.5, flag="--eps"),
        Param("min_samples", "integer", 5, flag="--min-samples"),
        Param("seed", "integer", 0, flag="--seed"),
        *_BUDGET, *_FAST, *_HOOKS,
    ),
}


def get(family: str, name: str) -> AlgorithmSpec:
    """Look up one algorithm; raises with the valid choices on a miss."""
    spec = _BY_KEY.get((family, name))
    if spec is None:
        raise ValidationError(
            f"unknown {family} algorithm {name!r}; "
            f"choices: {', '.join(names(family))}"
        )
    return spec


def names(family: str) -> Tuple[str, ...]:
    """Algorithm names of one family, in table order."""
    return tuple(spec.name for spec in specs(family))


def specs(family: Optional[str] = None) -> Tuple[AlgorithmSpec, ...]:
    """The table's rows, optionally filtered to one family."""
    return tuple(
        spec for spec in ALGORITHMS if family is None or spec.family == family
    )


def capability_table(family: Optional[str] = None) -> list:
    """The machine-readable capability table: one dict per algorithm.

    The JSON twin of :func:`render_table` — ``repro algorithms --json``
    prints it and the job server's admission layer returns it alongside
    every capability-violation rejection, so clients can self-correct
    without scraping the human-rendered table.
    """
    return [spec.to_dict() for spec in specs(family)]


def render_table(rows: Optional[Iterable[AlgorithmSpec]] = None) -> str:
    """The ``repro algorithms`` listing: name, family, capabilities."""
    entries = list(specs() if rows is None else rows)
    headers = ("name", "family", "capabilities")
    table = [
        (spec.name, spec.family, spec.capabilities.describe())
        for spec in entries
    ]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in table))
        if table else len(headers[col])
        for col in range(3)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in table:
        lines.append(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        )
    return "\n".join(lines)


__all__ = [
    "ALGORITHMS",
    "FAMILIES",
    "FAMILY_BY_KIND",
    "PARAMETERS",
    "AlgorithmSpec",
    "Capabilities",
    "Param",
    "capability_table",
    "get",
    "names",
    "render_table",
    "specs",
]
