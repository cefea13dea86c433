"""The declared parameter table (``repro.registry.PARAMETERS``) and the
one run path (``repro.tasks``)."""

import re

import pytest

from repro import registry, tasks
from repro.cli import build_parser
from repro.core.exceptions import ReproError
from repro.core.table import Table, numeric
from repro.datasets import (
    gaussian_blobs,
    quest_basket,
    save_table,
    save_transactions,
)
from repro.server.api import BadSubmission, validate_submission
from repro.server.scheduler import execute_job


@pytest.fixture(scope="module")
def basket(tmp_path_factory):
    path = tmp_path_factory.mktemp("tasks") / "basket.dat"
    save_transactions(quest_basket(150, random_state=0), str(path))
    return str(path)


@pytest.fixture(scope="module")
def blobs(tmp_path_factory):
    path = tmp_path_factory.mktemp("tasks") / "blobs.csv"
    X, _ = gaussian_blobs(90, centers=3, random_state=0)
    save_table(Table([numeric("x"), numeric("y")],
                     {"x": X[:, 0], "y": X[:, 1]}), str(path))
    return str(path)


class TestTable:
    @pytest.mark.parametrize("kind", sorted(registry.PARAMETERS))
    def test_cli_flags_are_generated_from_it(self, kind):
        sub = build_parser()._subparsers._group_actions[0].choices[kind]
        actions = {action.dest: action for action in sub._actions}
        for param in registry.PARAMETERS[kind]:
            if param.flag is None:
                assert param.name not in actions
                continue
            action = actions[param.name]
            assert action.option_strings == [param.flag]
            assert action.help == param.help
            assert action.required == param.required

    def test_every_gate_is_a_capability(self):
        fields = set(registry.Capabilities.__dataclass_fields__)
        for params in registry.PARAMETERS.values():
            for param in params:
                assert param.gate is None or param.gate in fields
                assert param.type in ("number", "integer", "string")

    def test_kinds_are_the_job_families(self):
        assert set(registry.PARAMETERS) == set(registry.FAMILY_BY_KIND)
        assert set(registry.FAMILY_BY_KIND.values()) < set(registry.FAMILIES)


class TestCheck:
    def test_defaults_pass_for_every_algorithm(self):
        for kind, family in registry.FAMILY_BY_KIND.items():
            params = {"target": "y"} if kind == "classify" else {}
            for name in registry.names(family):
                assert tasks.check(kind, name, params).name == name

    @pytest.mark.parametrize("kind, algorithm, params, message", [
        ("mine", "apriori", {"min_suport": 0.5},
         "unknown mine parameter(s) ['min_suport']"),
        ("mine", "apriori", {"min_support": "0.5"},
         "'min_support' must be a JSON number"),
        ("mine", "apriori", {"min_support": None},
         "'min_support' must be a JSON number"),
        ("cluster", "kmeans", {"k": "nine"}, "'k' must be a JSON integer"),
        ("cluster", "kmeans", {"seed": False},
         "'seed' must be a JSON integer"),
        ("classify", "c45", {}, "classify requires parameter 'target'"),
        ("classify", "nb", {"target": "y", "max_candidates": 5},
         "nb does not support time_limit/max_candidates"),
        ("mine", "fp_growth", {"n_jobs": 2},
         "fp_growth does not support n_jobs"),
        ("mine", "fp_growth", {"backend": "bitmap"},
         "fp_growth does not support backend"),
        ("mine", "apriori", {"on_exhausted": "explode"},
         "apriori does not support on_exhausted='explode'; "
         "choices: raise, truncate, partition, sampling"),
        ("cluster", "birch", {"checkpoint_every": 2},
         "birch does not support checkpoint_every"),
        ("sequences", "gsp", {}, "unknown job kind 'sequences'"),
        ("mine", "nope", {}, "unknown associations algorithm 'nope'"),
    ])
    def test_rejections(self, kind, algorithm, params, message):
        with pytest.raises(ReproError, match=re.escape(message)):
            tasks.check(kind, algorithm, params)

    def test_the_default_needs_no_capability(self):
        # n_jobs 1 is a serial run, which every algorithm can do: the
        # CLI always accepted --jobs 1, and now a job does too.
        assert tasks.check("mine", "fp_growth", {"n_jobs": 1})
        assert tasks.check("cluster", "dbscan", {"checkpoint_every": 1})
        assert validate_submission({
            "kind": "mine", "algorithm": "fp_growth", "dataset": "d.dat",
            "params": {"n_jobs": 1},
        })["params"] == {"n_jobs": 1}

    def test_cli_spells_flags(self):
        with pytest.raises(tasks.ParamError, match=re.escape(
                "nb does not support --time-limit/--max-candidates")):
            tasks.check("classify", "nb", {"target": "y", "time_limit": 5.0},
                        flags=True)

    def test_budget_without_a_budget_resource_is_rejected_by_the_server(self):
        with pytest.raises(BadSubmission, match="nb does not support"):
            validate_submission({
                "kind": "classify", "algorithm": "nb", "dataset": "d.csv",
                "params": {"target": "y", "time_limit": 5},
            })


class TestResolve:
    def test_fills_defaults(self):
        values = tasks.resolve("mine", {})
        assert values["min_support"] == 0.05
        assert values["min_confidence"] is None
        assert values["n_jobs"] == 1
        assert values["on_exhausted"] == "truncate"

    def test_converts_json_numbers(self):
        value = tasks.resolve("mine", {"min_support": 1})["min_support"]
        assert value == 1.0 and type(value) is float

    def test_reads_no_undeclared_name(self):
        # A record admitted before the table existed still runs.
        assert tasks.resolve("mine", {"nonce": 3}) == tasks.resolve("mine", {})

    def test_result_params_leave_out_the_neutral_ones(self):
        neutral = {"n_jobs": 4, "backend": "elkan", "checkpoint_every": 3}
        assert (tasks.result_params("cluster", neutral)
                == tasks.result_params("cluster", {}))
        assert not set(neutral) & set(tasks.result_params("cluster", {}))
        assert {"pass_delay", "kill_at_step", "min_confidence"} \
            <= set(tasks.result_params("mine", {}))


def _spy(monkeypatch, spec, attr):
    """Wrap a registry row's factory (or adapter), recording its kwargs."""
    real = getattr(spec, attr)
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setitem(spec.__dict__, attr, spy)
    return calls


class TestRun:
    def test_job_backend_reaches_the_miner(self, basket, monkeypatch):
        reference = execute_job("mine", basket, "apriori",
                                {"min_support": 0.05})
        calls = _spy(monkeypatch, registry.get("associations", "apriori"),
                     "factory")
        payload = execute_job("mine", basket, "apriori",
                              {"min_support": 0.05, "backend": "bitmap"})
        assert [call.get("backend") for call in calls] == ["bitmap"]
        assert payload == reference

    def test_job_backend_reaches_the_clusterer(self, blobs, monkeypatch):
        reference = execute_job("cluster", blobs, "kmeans", {"k": 3})
        calls = _spy(monkeypatch, registry.get("clustering", "kmeans"),
                     "make")
        payload = execute_job("cluster", blobs, "kmeans",
                              {"k": 3, "backend": "elkan", "n_jobs": 2})
        assert calls[0]["backend"] == "elkan"
        assert calls[0]["n_jobs"] == 2
        assert payload == reference

    def test_both_views_come_from_one_result(self, basket):
        result = tasks.run("mine", "apriori", basket,
                           {"min_support": 0.05, "min_confidence": 0.6})
        payload = result.payload()
        text = result.render(top=2).splitlines()
        assert text[1].startswith(f"{payload['n_itemsets']} frequent itemsets")
        assert f"{len(payload['rules'])} rules at confidence >= 0.6" in text

    def test_unknown_kind(self, basket):
        with pytest.raises(ReproError, match="unknown job kind"):
            execute_job("bogus", basket, "apriori", {})
