"""Registry-conformance sweep over every algorithm in the table.

Parametrization comes from :mod:`repro.registry` instead of hand-picked
algorithm lists: adding a row to the table automatically enrols its
algorithm in these contracts —

* **the row resolves**: its ``"module:attr"`` paths import, its
  ``(family, name)`` key is unique, and its declared capabilities match
  the factory's signature;
* **null-context identity**: passing ``ctx=ExecutionContext()`` is
  byte-identical to the bare call;
* **context cancellation**: a pre-cancelled
  :class:`~repro.runtime.CancellationToken` on the context surfaces as
  :class:`~repro.runtime.OperationCancelled` from every algorithm, and
  a token cancelled mid-run by the progress hook stops every budgeted
  algorithm at its next beat;
* **policy validation**: an ``on_exhausted`` value outside the declared
  ``degradation_policies`` is rejected, and the declared set is one of
  the shared vocabularies;
* **one runtime seam**: ``ctx=`` is the only way a run receives its
  budget and checkpointer — no entry point has a ``budget`` or
  ``checkpoint`` parameter, and passing either is a ``TypeError``.
"""

import inspect

import numpy as np
import pytest

from repro import registry
from repro.core.exceptions import ValidationError
from repro.datasets import agrawal, gaussian_blobs, play_tennis
from repro.runtime import (
    Budget,
    CancellationToken,
    Checkpointer,
    OperationCancelled,
)
from repro.runtime import context
from repro.runtime.context import (
    BASIC_POLICIES,
    LEVELWISE_POLICIES,
    ExecutionContext,
)

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
        "min_support": 0.4,
        "table": play_tennis(),
        "target": "play",
        "X": X,
    }


def _run(spec, w, ctx=None, **kwargs):
    """Invoke one registered algorithm on its family's toy workload and
    return a comparable result (supports dict / label tuple)."""
    if spec.family in ("associations", "sequences"):
        result = spec.factory(w[spec.family], w["min_support"], ctx=ctx,
                              **kwargs)
        return dict(result.supports)
    if spec.family == "classification":
        model = spec.factory(ctx=ctx, **kwargs)
        model.fit(w["table"], w["target"])
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
        # The table spells the vocabularies out so that reading it
        # loads no runtime module; they must stay the runtime's own.
        for spec in POLICY_SPECS:
            assert spec.capabilities.degradation_policies in (
                BASIC_POLICIES, LEVELWISE_POLICIES), _spec_id(spec)

    def test_render_table_lists_every_algorithm(self):
        table = registry.render_table()
        for spec in ALL_SPECS:
            assert spec.name in table

    def test_keys_are_unique(self):
        keys = [(spec.family, spec.name) for spec in ALL_SPECS]
        assert len(set(keys)) == len(keys)

    def test_get_returns_the_table_rows(self):
        for spec in ALL_SPECS:
            assert registry.get(spec.family, spec.name) is spec

    def test_factory_can_be_rewrapped_in_place(self):
        # The benchmark tracer swaps a wrapper into the specs that
        # registry.specs() returns; registry.get must hand it out.
        spec = registry.specs("associations")[0]
        original = spec.factory

        def wrapper(*args, **kwargs):
            return original(*args, **kwargs)

        object.__setattr__(spec, "factory", wrapper)
        try:
            assert registry.get(spec.family, spec.name).factory is wrapper
        finally:
            object.__setattr__(spec, "factory", original)

    def test_unknown_algorithm_names_choices(self):
        with pytest.raises(ValidationError, match="apriori"):
            registry.get("associations", "nope")


def _parameters(spec):
    """Parameter names of the factory (an estimator's ``__init__``)."""
    return set(inspect.signature(spec.factory).parameters)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=_spec_id)
class TestRowResolves:
    def test_paths_resolve(self, spec):
        module, attr = spec.factory_path.split(":")
        assert module.startswith(f"repro.{spec.family}.")
        assert callable(spec.factory)
        assert spec.factory.__name__ == attr
        if spec.family == "clustering":
            assert callable(spec.make), _spec_id(spec)
        else:
            assert spec.make_path is None and spec.make is None

    def test_capabilities_match_the_signature(self, spec):
        caps = spec.capabilities
        params = _parameters(spec)
        assert caps.parallelizable == ("n_jobs" in params)
        assert caps.vectorizable == ("backend" in params)
        assert bool(caps.degradation_policies) == ("on_exhausted" in params)
        if caps.budget_resource is not None or caps.checkpointable:
            assert "ctx" in params


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


BUDGETED_SPECS = [s for s in ALL_SPECS if s.capabilities.budget_resource]


@pytest.fixture
def mid_run_workloads(medium_db, medium_seq_db):
    """Workloads with many loop units per run: passes, tree nodes,
    optimisation steps, points."""
    X = np.random.default_rng(7).uniform(0.0, 10.0, size=(150, 2))
    return {
        "associations": medium_db,
        "sequences": medium_seq_db,
        "min_support": 0.1,
        "table": agrawal(300, function=2, random_state=4),
        "target": "group",
        "X": X,
    }


@pytest.mark.parametrize("spec", BUDGETED_SPECS, ids=_spec_id)
def test_cancellation_mid_run_stops_at_the_next_beat(
        spec, mid_run_workloads, monkeypatch):
    # Every loop that checks a budget ticks its context, budget or not;
    # with the beat interval at 0 every tick beats, so a token the
    # progress hook cancels stops the run at its next tick or step.
    monkeypatch.setattr(context, "BEAT_SECONDS", 0, raising=False)
    token = CancellationToken()
    beats = []

    def cancel_on_first_beat(phase, info):
        beats.append(phase)
        token.cancel("cancelled mid-run")

    ctx = ExecutionContext(cancel_token=token,
                           on_progress=cancel_on_first_beat)
    with pytest.raises(OperationCancelled):
        _run(spec, mid_run_workloads, ctx=ctx)
    assert len(beats) == 1, beats


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


def _classify_has_no_backend_flag(argv, capsys):
    """No classifier is vectorizable, so ``repro classify`` has no
    ``--backend`` flag: argparse rejects it."""
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--backend" in capsys.readouterr().err


@pytest.mark.parametrize("spec", CLI_SPECS, ids=_spec_id)
def test_backend_flag_tracks_vectorizable_capability(spec, cli_data, capsys):
    from repro.cli import main

    if spec.family == "classification":
        assert not spec.capabilities.vectorizable
        _classify_has_no_backend_flag(
            _backend_argv(spec, cli_data, "columnar"), capsys
        )
    elif spec.capabilities.vectorizable:
        argv = _backend_argv(spec, cli_data, VECTOR_BACKEND[spec.name])
        assert main(argv) == 0
    else:
        argv = _backend_argv(spec, cli_data, "columnar")
        assert main(argv) == 2
        assert "does not support --backend" in capsys.readouterr().err


@pytest.mark.parametrize("spec", CLI_SPECS, ids=_spec_id)
def test_unknown_backend_value_exits_2(spec, cli_data, capsys):
    from repro.cli import main

    argv = _backend_argv(spec, cli_data, "warp-drive")
    if spec.family == "classification":
        _classify_has_no_backend_flag(argv, capsys)
        return
    assert main(argv) == 2
    assert "backend" in capsys.readouterr().err
