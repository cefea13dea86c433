"""Registry-conformance sweep over every registered algorithm.

Parametrization comes from :mod:`repro.registry` instead of hand-picked
algorithm lists: registering an algorithm automatically enrols it in
these contracts —

* **null-context identity**: passing ``ctx=ExecutionContext()`` is
  byte-identical to the bare call;
* **context cancellation**: a pre-cancelled
  :class:`~repro.runtime.CancellationToken` on the context surfaces as
  :class:`~repro.runtime.OperationCancelled` from every algorithm;
* **policy validation**: an ``on_exhausted`` value outside the declared
  ``degradation_policies`` is rejected, and the declared set stays
  inside the shared vocabulary;
* **one runtime seam**: ``ctx=`` is the only way a run receives its
  budget and checkpointer — no entry point has a ``budget`` or
  ``checkpoint`` parameter, and passing either is a ``TypeError``.
"""

import inspect

import numpy as np
import pytest

from repro import registry
from repro.core.exceptions import ValidationError
from repro.datasets import gaussian_blobs, play_tennis
from repro.runtime import (
    Budget,
    CancellationToken,
    Checkpointer,
    OperationCancelled,
)
from repro.runtime.context import (
    BASIC_POLICIES,
    LEVELWISE_POLICIES,
    ExecutionContext,
)

registry.ensure_populated()
ALL_SPECS = registry.specs()


def _spec_id(spec):
    return f"{spec.family}:{spec.name}"


POLICY_SPECS = [s for s in ALL_SPECS if s.capabilities.degradation_policies]


@pytest.fixture
def workloads(small_db, small_seq_db):
    X, _ = gaussian_blobs(
        60,
        centers=np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]]),
        cluster_std=0.6,
        random_state=3,
    )
    return {
        "associations": small_db,
        "sequences": small_seq_db,
        "table": play_tennis(),
        "X": X,
    }


def _run(spec, w, ctx=None, **kwargs):
    """Invoke one registered algorithm on its family's toy workload and
    return a comparable result (supports dict / label tuple)."""
    if spec.family in ("associations", "sequences"):
        result = spec.factory(w[spec.family], 0.4, ctx=ctx, **kwargs)
        return dict(result.supports)
    if spec.family == "classification":
        model = spec.factory(ctx=ctx, **kwargs)
        model.fit(w["table"], "play")
        return tuple(model.predict(w["table"]))
    model = spec.make(ctx, k=3, eps=1.5, min_samples=3, seed=0, **kwargs)
    model.fit(w["X"])
    return tuple(np.asarray(model.labels_).tolist())


class TestRegistryTable:
    def test_every_family_is_populated(self):
        for family in registry.FAMILIES:
            assert registry.names(family), family

    def test_budget_resource_vocabulary(self):
        for spec in ALL_SPECS:
            assert spec.capabilities.budget_resource in (
                None, "candidates", "nodes", "expansions"
            ), _spec_id(spec)

    def test_declared_policies_stay_in_shared_vocabulary(self):
        for spec in POLICY_SPECS:
            declared = set(spec.capabilities.degradation_policies)
            assert declared <= set(LEVELWISE_POLICIES), _spec_id(spec)
            assert set(BASIC_POLICIES) <= declared, _spec_id(spec)

    def test_checkpointable_without_supervisable_is_impossible(self):
        # A checkpoint-resumable algorithm is by construction safe to
        # relaunch, so the capability pair must be consistent.
        for spec in ALL_SPECS:
            if spec.capabilities.checkpointable:
                assert spec.capabilities.supervisable, _spec_id(spec)

    def test_render_table_lists_every_algorithm(self):
        table = registry.render_table()
        for spec in ALL_SPECS:
            assert spec.name in table

    def test_reregistration_is_idempotent(self):
        spec = registry.get("associations", "apriori")
        assert registry.register(spec) is spec

    def test_conflicting_registration_is_rejected(self):
        spec = registry.get("associations", "apriori")
        clone = registry.AlgorithmSpec(
            spec.name, spec.family, lambda: None, spec.capabilities
        )
        with pytest.raises(ValidationError, match="different factory"):
            registry.register(clone)

    def test_unknown_algorithm_names_choices(self):
        with pytest.raises(ValidationError, match="apriori"):
            registry.get("associations", "nope")


@pytest.mark.parametrize("spec", ALL_SPECS, ids=_spec_id)
class TestEveryAlgorithm:
    def test_null_context_identity(self, spec, workloads):
        bare = _run(spec, workloads)
        ctxed = _run(spec, workloads, ctx=ExecutionContext())
        assert bare == ctxed

    def test_context_cancellation_honoured(self, spec, workloads):
        token = CancellationToken()
        token.cancel("conformance sweep")
        ctx = ExecutionContext(cancel_token=token)
        with pytest.raises(OperationCancelled):
            _run(spec, workloads, ctx=ctx)


@pytest.mark.parametrize("spec", POLICY_SPECS, ids=_spec_id)
def test_undeclared_policy_rejected(spec, workloads):
    with pytest.raises(ValidationError, match="on_exhausted"):
        _run(spec, workloads, on_exhausted="no-such-policy")


def _runtime_entry_points():
    """Every registered factory plus the unregistered public miners and
    clusterers, as ``(id, family, factory)``."""
    from repro.associations import apriori_hybrid, sampling_miner
    from repro.clustering import CLARA

    entries = [(_spec_id(s), s.family, s.factory) for s in ALL_SPECS]
    entries += [
        ("associations:apriori_hybrid", "associations", apriori_hybrid),
        ("associations:sampling_miner", "associations", sampling_miner),
        ("clustering:CLARA", "clustering", CLARA),
    ]
    return entries


RUNTIME_ENTRY_POINTS = _runtime_entry_points()


@pytest.mark.parametrize(
    "family, factory",
    [entry[1:] for entry in RUNTIME_ENTRY_POINTS],
    ids=[entry[0] for entry in RUNTIME_ENTRY_POINTS],
)
def test_no_budget_or_checkpoint_kwarg(family, factory, workloads,
                                       tmp_path):
    parameters = inspect.signature(factory).parameters
    assert "budget" not in parameters
    assert "checkpoint" not in parameters
    args = (workloads[family], 0.4) if family in workloads else ()
    for kwarg, value in (("budget", Budget()),
                         ("checkpoint", Checkpointer(tmp_path))):
        with pytest.raises(TypeError, match=f"keyword argument '{kwarg}'"):
            factory(*args, **{kwarg: value})


# ----------------------------------------------------------------------
# --backend conformance: the CLI flag tracks Capabilities.vectorizable
# ----------------------------------------------------------------------
CLI_SPECS = [
    s for s in ALL_SPECS
    if s.family in ("associations", "classification", "clustering")
]

#: vectorized backend name of every vectorizable algorithm
VECTOR_BACKEND = {
    "apriori": "bitmap",
    "partition": "bitset",
    "dhp": "bitmap",
    "gsp": "bitmap",
    "sliq": "columnar",
    "kmeans": "elkan",
}


def test_every_vectorizable_algorithm_names_a_vector_backend():
    for spec in ALL_SPECS:
        if spec.capabilities.vectorizable:
            assert spec.name in VECTOR_BACKEND, _spec_id(spec)


@pytest.fixture(scope="module")
def cli_data(tmp_path_factory):
    from repro.cli import main

    root = tmp_path_factory.mktemp("backend-sweep")
    paths = {
        "associations": root / "basket.dat",
        "classification": root / "credit.csv",
        "clustering": root / "blobs.csv",
    }
    assert main(["generate", "basket", str(paths["associations"]),
                 "--rows", "120", "--seed", "1"]) == 0
    assert main(["generate", "agrawal", str(paths["classification"]),
                 "--rows", "200", "--function", "2", "--seed", "2"]) == 0
    assert main(["generate", "blobs", str(paths["clustering"]),
                 "--rows", "90", "--centers", "3", "--seed", "3"]) == 0
    return paths


def _backend_argv(spec, data, backend):
    if spec.family == "associations":
        argv = ["mine", str(data["associations"]), "--miner", spec.name,
                "--min-support", "0.1"]
    elif spec.family == "classification":
        argv = ["classify", str(data["classification"]),
                "--target", "group", "--classifier", spec.name]
    else:
        argv = ["cluster", str(data["clustering"]),
                "--algorithm", spec.name, "--k", "3", "--eps", "1.5"]
    return argv + ["--backend", backend]


@pytest.mark.parametrize("spec", CLI_SPECS, ids=_spec_id)
def test_backend_flag_tracks_vectorizable_capability(spec, cli_data, capsys):
    from repro.cli import main

    if spec.capabilities.vectorizable:
        argv = _backend_argv(spec, cli_data, VECTOR_BACKEND[spec.name])
        assert main(argv) == 0
    else:
        argv = _backend_argv(spec, cli_data, "columnar")
        assert main(argv) == 2
        assert "does not support --backend" in capsys.readouterr().err


@pytest.mark.parametrize("spec", CLI_SPECS, ids=_spec_id)
def test_unknown_backend_value_exits_2(spec, cli_data, capsys):
    from repro.cli import main

    assert main(_backend_argv(spec, cli_data, "warp-drive")) == 2
    assert "backend" in capsys.readouterr().err
