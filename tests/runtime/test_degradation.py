"""Graceful-degradation semantics: partial results, fallbacks, identity.

The contract under test:

* a context without a budget (the default) is byte-identical to a build
  without the runtime layer — zero checks, zero behavioural drift;
* ``truncate`` returns everything completed before exhaustion, flagged;
* ``partition`` / ``sampling`` re-mine the interrupted pass with a
  cheaper one-shot miner, so the recovered result supersets plain
  truncation while every itemset remains genuinely frequent;
* estimator degradation (trees, clusterers) keeps the model usable.
"""

import warnings

import numpy as np
import pytest

from repro.associations.apriori import apriori
from repro.classification import C45
from repro.clustering import KMeans
from repro.core.exceptions import ConvergenceWarning, ValidationError
from repro.runtime import Budget, ExecutionContext, TriggerAfter
from repro.runtime.context import LEVELWISE_POLICIES
from repro.cli import main


def _fault_budget(n_checks: int = 2) -> Budget:
    return Budget(check_interval=1).install_fault(TriggerAfter(n_checks))


class TestMinerDegradation:
    def test_unbudgeted_result_identical(self, medium_db):
        plain = apriori(medium_db, 0.05)
        defaulted = apriori(
            medium_db, 0.05, ctx=ExecutionContext(), on_exhausted="raise"
        )
        assert plain.supports == defaulted.supports
        assert not plain.truncated

    def test_truncate_keeps_completed_passes(self, medium_db):
        full = apriori(medium_db, 0.05)
        partial = apriori(
            medium_db, 0.05,
            ctx=ExecutionContext(budget=_fault_budget(2)),
            on_exhausted="truncate",
        )
        assert partial.truncated
        assert set(partial.supports) <= set(full.supports)
        # Whatever was kept carries the exact support counts.
        for itemset, count in partial.supports.items():
            assert full.supports[itemset] == count

    @pytest.mark.parametrize("policy", ["partition", "sampling"])
    def test_fallback_policies_recover_more(self, medium_db, policy):
        truncated = apriori(
            medium_db, 0.05,
            ctx=ExecutionContext(budget=_fault_budget(2)),
            on_exhausted="truncate",
        )
        recovered = apriori(
            medium_db, 0.05,
            ctx=ExecutionContext(budget=_fault_budget(2)),
            on_exhausted=policy,
        )
        full = apriori(medium_db, 0.05)
        assert recovered.truncated  # deeper passes are still unexplored
        assert set(truncated.supports) <= set(recovered.supports)
        assert set(recovered.supports) <= set(full.supports)
        for itemset, count in recovered.supports.items():
            assert full.supports[itemset] == count

    def test_invalid_policy_rejected(self, medium_db):
        with pytest.raises(ValidationError):
            apriori(medium_db, 0.05, on_exhausted="retry-harder")
        assert "truncate" in LEVELWISE_POLICIES

    def test_truncation_reason_names_the_exception(self, medium_db):
        partial = apriori(
            medium_db, 0.05,
            ctx=ExecutionContext(budget=_fault_budget(1)),
            on_exhausted="truncate",
        )
        assert partial.truncated
        assert "InjectedFault" in partial.truncation_reason


class TestEstimatorDegradation:
    def test_tree_truncation_resets_between_fits(self, f2_train):
        model = C45(
            prune=False, ctx=ExecutionContext(budget=Budget(max_nodes=1))
        )
        model.fit(f2_train, "group")
        assert model.truncated_
        model.ctx.budget = None
        model.fit(f2_train, "group")
        assert not model.truncated_
        assert model.truncation_reason_ is None

    def test_kmeans_restarts_recover_convergence(self, blobs4):
        X, _ = blobs4
        # max_iter=1 cannot converge; the warning must name the attempts.
        with pytest.warns(ConvergenceWarning, match="did not converge"):
            KMeans(4, max_iter=1, n_init=2, random_state=0).fit(X)
        # A generous retry allowance plus normal iterations converges
        # silently.
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            KMeans(4, n_init=2, max_restarts=3, random_state=0).fit(X)

    def test_kmeans_budget_suppresses_convergence_warning(self, blobs4):
        # Truncation is reported through truncated_, not mislabelled as
        # a convergence failure.
        X, _ = blobs4
        model = KMeans(
            4, random_state=0,
            ctx=ExecutionContext(budget=Budget(max_expansions=1)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            model.fit(X)
        assert model.truncated_


class TestCLIBudgets:
    @pytest.fixture
    def basket_file(self, tmp_path):
        path = tmp_path / "basket.dat"
        assert main(["generate", "basket", str(path), "--rows", "400",
                     "--seed", "42"]) == 0
        return path

    @pytest.fixture
    def blobs_file(self, tmp_path):
        path = tmp_path / "blobs.csv"
        assert main(["generate", "blobs", str(path), "--rows", "200",
                     "--centers", "3", "--seed", "3"]) == 0
        return path

    def test_mine_time_limit_exits_zero_with_notice(self, basket_file, capsys):
        code = main(["mine", str(basket_file), "--min-support", "0.001",
                     "--time-limit", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "NOTE: budget exhausted" in out
        assert "frequent itemsets" in out

    def test_mine_without_flags_identical(self, basket_file, capsys):
        assert main(["mine", str(basket_file), "--min-support", "0.02"]) == 0
        first = capsys.readouterr().out
        assert main(["mine", str(basket_file), "--min-support", "0.02"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "NOTE" not in first

    def test_mine_max_candidates(self, basket_file, capsys):
        code = main(["mine", str(basket_file), "--min-support", "0.01",
                     "--max-candidates", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "NOTE: budget exhausted" in out

    def test_mine_eclat_accepts_budget(self, basket_file, capsys):
        # eclat gained budget support alongside checkpointing; a budget
        # large enough to finish behaves exactly like no budget.
        code = main(["mine", str(basket_file), "--miner", "eclat",
                     "--min-support", "0.05", "--time-limit", "600"])
        out = capsys.readouterr().out
        assert code == 0
        assert "NOTE" not in out

    def test_mine_eclat_budget_notice(self, basket_file, capsys):
        code = main(["mine", str(basket_file), "--miner", "eclat",
                     "--min-support", "0.01", "--max-candidates", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "NOTE: budget exhausted" in out

    def test_cluster_budget_notice(self, blobs_file, capsys):
        code = main(["cluster", str(blobs_file), "--algorithm", "kmeans",
                     "--k", "3", "--max-candidates", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "NOTE: budget exhausted" in out

    def test_cluster_birch_accepts_budget(self, blobs_file, capsys):
        # birch gained budget support alongside the checkpoint work; the
        # unsupported-combination exit 2 now applies to --checkpoint-dir
        # (covered in tests/test_cli.py), not budgets.
        code = main(["cluster", str(blobs_file), "--algorithm", "birch",
                     "--time-limit", "600"])
        assert code == 0
        assert "NOTE" not in capsys.readouterr().out

    def test_classify_budget_notice(self, tmp_path, capsys):
        path = tmp_path / "credit.csv"
        assert main(["generate", "agrawal", str(path), "--rows", "400",
                     "--seed", "2"]) == 0
        capsys.readouterr()
        code = main(["classify", str(path), "--target", "group",
                     "--classifier", "c45", "--max-candidates", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "NOTE: budget exhausted" in out
        assert "accuracy" in out
