"""Budget coverage for the miners and clusterers not swept by the core
budget tests — the miner lists derive from the registry's capability
table rather than a hand-maintained enumeration.

Each algorithm must (a) actually poll its budget — proven with an
injected fault on the first checkpoint; (b) degrade gracefully under
``truncate`` (miners) or built-in truncation (clusterers), returning a
subset of the unbudgeted answer with correct supports; (c) never swallow
cancellation; (d) behave identically with no budget and with a generous
one.
"""

import numpy as np
import pytest

from repro import registry
from repro.clustering import Agglomerative, Birch
from repro.datasets import gaussian_blobs
from repro.runtime import (
    Budget,
    BudgetExceeded,
    CancellationToken,
    ExecutionContext,
    OperationCancelled,
    TriggerAfter,
)


@pytest.fixture
def X():
    data, _ = gaussian_blobs(
        80,
        centers=np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]]),
        cluster_std=0.7,
        random_state=7,
    )
    return data


def _first_check_fault():
    return Budget(check_interval=1).install_fault(TriggerAfter(1))


def _cancelled_budget():
    token = CancellationToken()
    token.cancel("user hit ctrl-c")
    return Budget(cancel_token=token, check_interval=1)


# Budget-capable miners already swept elsewhere (test_budget.py /
# test_fault_injection.py / test_resume_equivalence.py); every *other*
# candidate-budget miner the registry knows about lands in this sweep
# automatically, so a newly registered miner cannot dodge coverage.
_COVERED_ELSEWHERE = {"apriori", "apriori_tid", "dhp", "fp_growth"}
_SEQ_COVERED_ELSEWHERE = {"gsp"}
_MINER_PARAMS = {"partition": {"n_partitions": 2}}


def _miner_runner(spec):
    return lambda db, **kw: spec.factory(
        db, 0.3, **_MINER_PARAMS.get(spec.name, {}), **kw
    )


def _seq_runner(spec):
    return lambda db, s=0.4, **kw: spec.factory(db, s, **kw)


class TestMiners:
    """Registry-derived sweep: eclat / partition / apriori_all /
    prefixspan today, plus whatever gets registered next."""

    MINERS = {
        spec.name: _miner_runner(spec)
        for spec in registry.specs("associations")
        if spec.capabilities.budget_resource == "candidates"
        and spec.name not in _COVERED_ELSEWHERE
    }
    SEQ_MINERS = {
        spec.name: _seq_runner(spec)
        for spec in registry.specs("sequences")
        if spec.capabilities.budget_resource == "candidates"
        and spec.name not in _SEQ_COVERED_ELSEWHERE
    }

    @pytest.mark.parametrize("name", sorted(MINERS))
    def test_injected_fault_surfaces(self, name, small_db):
        with pytest.raises(BudgetExceeded):
            self.MINERS[name](
                small_db, ctx=ExecutionContext(budget=_first_check_fault())
            )

    @pytest.mark.parametrize("name", sorted(SEQ_MINERS))
    def test_injected_fault_surfaces_sequences(self, name, small_seq_db):
        with pytest.raises(BudgetExceeded):
            self.SEQ_MINERS[name](
                small_seq_db,
                ctx=ExecutionContext(budget=_first_check_fault()),
            )

    @pytest.mark.parametrize("name", sorted(MINERS))
    def test_generous_budget_identical(self, name, medium_db):
        run = self.MINERS[name]
        full = run(medium_db)
        budgeted = run(
            medium_db,
            ctx=ExecutionContext(
                budget=Budget(max_candidates=10**9, check_interval=1)
            ),
        )
        assert budgeted.supports == full.supports
        assert not budgeted.truncated

    @pytest.mark.parametrize("name", sorted(SEQ_MINERS))
    def test_generous_budget_identical_sequences(self, name, medium_seq_db):
        full = self.SEQ_MINERS[name](medium_seq_db)
        budgeted = self.SEQ_MINERS[name](
            medium_seq_db,
            ctx=ExecutionContext(
                budget=Budget(max_candidates=10**9, check_interval=1)
            ),
        )
        assert budgeted.supports == full.supports

    @pytest.mark.parametrize("name", sorted(MINERS))
    def test_truncate_returns_exact_subset(self, name, medium_db):
        run = self.MINERS[name]
        full = run(medium_db)
        # Pick a cap that bites partway through the run.
        probe = Budget(check_interval=1)
        run(medium_db, ctx=ExecutionContext(budget=probe))
        cap = max(1, probe.candidates_used // 3)
        result = run(
            medium_db,
            ctx=ExecutionContext(budget=Budget(max_candidates=cap)),
            on_exhausted="truncate",
        )
        assert result.truncated
        assert result.truncation_reason
        assert len(result.supports) <= len(full.supports)
        for itemset, count in result.supports.items():
            assert full.supports[itemset] == count

    @pytest.mark.parametrize("name", sorted(SEQ_MINERS))
    def test_truncate_returns_exact_subset_sequences(
        self, name, medium_seq_db
    ):
        # A lower support than the other tests so pattern growth goes
        # deep enough for a candidate cap to bite mid-run.
        run = self.SEQ_MINERS[name]
        full = run(medium_seq_db, s=0.15)
        probe = Budget(check_interval=1)
        run(medium_seq_db, s=0.15, ctx=ExecutionContext(budget=probe))
        assert probe.candidates_used >= 3
        cap = probe.candidates_used // 3
        result = run(
            medium_seq_db,
            s=0.15,
            ctx=ExecutionContext(budget=Budget(max_candidates=cap)),
            on_exhausted="truncate",
        )
        assert result.truncated
        for pattern, count in result.supports.items():
            assert full.supports[pattern] == count

    @pytest.mark.parametrize("name", sorted(MINERS))
    def test_cancellation_propagates(self, name, small_db):
        with pytest.raises(OperationCancelled):
            self.MINERS[name](
                small_db,
                ctx=ExecutionContext(budget=_cancelled_budget()),
                on_exhausted="truncate",
            )

    @pytest.mark.parametrize("name", sorted(SEQ_MINERS))
    def test_cancellation_propagates_sequences(self, name, small_seq_db):
        with pytest.raises(OperationCancelled):
            self.SEQ_MINERS[name](
                small_seq_db,
                ctx=ExecutionContext(budget=_cancelled_budget()),
                on_exhausted="truncate",
            )


class TestAgglomerative:
    def test_injected_fault_truncates(self, X):
        model = Agglomerative(
            3, ctx=ExecutionContext(budget=_first_check_fault())
        ).fit(X)
        assert model.truncated_
        assert model.truncation_reason_
        # Best-effort labels: everything is still labelled, at the
        # coarsest level reached (no merges happened -> singletons).
        assert model.labels_.shape == (len(X),)

    def test_partial_dendrogram_is_prefix(self, X):
        full = Agglomerative(3, linkage="average").fit(X)
        cut = Agglomerative(
            3, linkage="average",
            ctx=ExecutionContext(budget=Budget(max_expansions=20)),
        ).fit(X)
        assert cut.truncated_
        assert len(cut.merges_) == 20
        assert np.allclose(cut.merges_, full.merges_[:20])

    def test_generous_budget_identical(self, X):
        full = Agglomerative(3, linkage="ward").fit(X)
        budgeted = Agglomerative(
            3, linkage="ward",
            ctx=ExecutionContext(budget=Budget(max_expansions=10**9)),
        ).fit(X)
        assert not budgeted.truncated_
        assert np.array_equal(budgeted.labels_, full.labels_)
        assert np.allclose(budgeted.merges_, full.merges_)

    def test_cancellation_propagates(self, X):
        with pytest.raises(OperationCancelled):
            Agglomerative(
                3, ctx=ExecutionContext(budget=_cancelled_budget())
            ).fit(X)


class TestBirch:
    def test_injected_fault_truncates(self, X):
        model = Birch(
            threshold=1.0, n_clusters=3, random_state=0,
            ctx=ExecutionContext(budget=_first_check_fault()),
        ).fit(X)
        assert model.truncated_
        assert model.truncation_reason_
        # The partial tree still summarises the points scanned so far
        # and every input row still gets a label.
        assert model.labels_.shape == (len(X),)
        assert len(model.subcluster_centers_) >= 1

    def test_scan_cap_bounds_tree(self, X):
        model = Birch(
            threshold=1.0, n_clusters=3, random_state=0,
            ctx=ExecutionContext(budget=Budget(max_nodes=25)),
        ).fit(X)
        assert model.truncated_
        # The budget is charged after each insert, so the scan stops
        # with cap + 1 points in the tree — never an empty tree.
        leaf_mass = sum(cf.n for cf in model._leaf_entries())
        assert leaf_mass == 26

    def test_generous_budget_identical(self, X):
        full = Birch(threshold=1.0, n_clusters=3, random_state=0).fit(X)
        budgeted = Birch(
            threshold=1.0, n_clusters=3, random_state=0,
            ctx=ExecutionContext(
                budget=Budget(max_nodes=10**9, check_interval=1)
            ),
        ).fit(X)
        assert not budgeted.truncated_
        assert np.array_equal(budgeted.labels_, full.labels_)
        assert np.allclose(
            budgeted.subcluster_centers_, full.subcluster_centers_
        )

    def test_cancellation_propagates(self, X):
        with pytest.raises(OperationCancelled):
            Birch(
                threshold=1.0, n_clusters=3,
                ctx=ExecutionContext(budget=_cancelled_budget()),
            ).fit(X)
