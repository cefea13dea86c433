"""Fault injection across every guarded algorithm family.

Each test proves three things about its family:

1. the hot loop genuinely polls its budget (a deterministic fault
   injected at a checkpoint surfaces, so the loop cannot hang);
2. exhaustion either raises :class:`BudgetExceeded` (``raise`` mode) or
   yields a usable partial result flagged truncated;
3. cancellation always propagates — it is never swallowed by the
   graceful-degradation paths.

Deadlines are driven by :class:`VirtualClock` + :class:`SlowPass`, so
no test sleeps; one wall-clock test per kind of real workload keeps the
simulated story honest.
"""

import time
import warnings

import numpy as np
import pytest

from repro.associations.apriori import apriori
from repro.associations.apriori_tid import apriori_tid
from repro.associations.dhp import dhp
from repro.associations.fp_growth import fp_growth
from repro.classification import C45, CART, SLIQ
from repro.clustering import CLARANS, DBSCAN, PAM, KMeans
from repro.core.exceptions import ConvergenceWarning
from repro.datasets import gaussian_blobs, quest_basket
from repro.runtime import (
    Budget,
    BudgetExceeded,
    CancellationToken,
    ExecutionContext,
    OperationCancelled,
    SlowPass,
    TimeBudgetExceeded,
    TriggerAfter,
    VirtualClock,
)
from repro.sequences.gsp import gsp

LEVELWISE_MINERS = {
    "apriori": apriori,
    "apriori_tid": apriori_tid,
    "dhp": dhp,
}


def _fault_budget(n_checks: int = 2) -> Budget:
    """Budget that injects a failure on the n-th checkpoint."""
    return Budget(check_interval=1).install_fault(TriggerAfter(n_checks))


class TestLevelwiseMiners:
    @pytest.mark.parametrize("name", sorted(LEVELWISE_MINERS))
    def test_injected_fault_raises_in_raise_mode(self, medium_db, name):
        miner = LEVELWISE_MINERS[name]
        with pytest.raises(BudgetExceeded):
            miner(
                medium_db, 0.05,
                ctx=ExecutionContext(budget=_fault_budget()),
                on_exhausted="raise",
            )

    @pytest.mark.parametrize("name", sorted(LEVELWISE_MINERS))
    def test_injected_fault_truncates(self, medium_db, name):
        miner = LEVELWISE_MINERS[name]
        result = miner(
            medium_db, 0.05,
            ctx=ExecutionContext(budget=_fault_budget()),
            on_exhausted="truncate",
        )
        assert result.truncated
        assert result.truncation_reason is not None
        full = miner(medium_db, 0.05)
        assert not full.truncated
        # Never fabricate: every reported itemset is genuinely frequent.
        assert set(result.supports) <= set(full.supports)

    @pytest.mark.parametrize("name", sorted(LEVELWISE_MINERS))
    def test_virtual_deadline(self, medium_db, name):
        miner = LEVELWISE_MINERS[name]
        clock = VirtualClock()
        budget = Budget(
            time_limit=1.0, clock=clock, check_interval=1
        ).install_fault(SlowPass(clock, delay=0.3))
        with pytest.raises(TimeBudgetExceeded):
            miner(
                medium_db, 0.05,
                ctx=ExecutionContext(budget=budget), on_exhausted="raise",
            )

    @pytest.mark.parametrize("name", sorted(LEVELWISE_MINERS))
    def test_cancellation_not_swallowed_by_truncate(self, medium_db, name):
        miner = LEVELWISE_MINERS[name]
        token = CancellationToken()
        token.cancel("stop now")
        budget = Budget(cancel_token=token, check_interval=1)
        with pytest.raises(OperationCancelled):
            miner(
                medium_db, 0.05,
                ctx=ExecutionContext(budget=budget), on_exhausted="truncate",
            )

    def test_real_deadline_finishes_promptly(self):
        # A dense low-support workload that would otherwise mine for a
        # long time must come back within a small multiple of the
        # deadline (the 2x-deadline liveness bound, with slack for slow
        # machines).
        db = quest_basket(400, random_state=42)
        deadline = 0.1
        start = time.monotonic()
        result = apriori(
            db, 0.001,
            ctx=ExecutionContext(budget=Budget(time_limit=deadline)),
            on_exhausted="truncate",
        )
        elapsed = time.monotonic() - start
        assert result.truncated
        assert elapsed < 10 * deadline + 1.0


class TestFPGrowth:
    def test_injected_fault_truncates(self, medium_db):
        result = fp_growth(
            medium_db, 0.05,
            ctx=ExecutionContext(budget=_fault_budget(3)),
            on_exhausted="truncate",
        )
        assert result.truncated
        full = fp_growth(medium_db, 0.05)
        assert set(result.supports) <= set(full.supports)

    def test_injected_fault_raises(self, medium_db):
        with pytest.raises(BudgetExceeded):
            fp_growth(
                medium_db, 0.05, ctx=ExecutionContext(budget=_fault_budget(3))
            )

    def test_cancellation_propagates(self, medium_db):
        token = CancellationToken()
        token.cancel()
        budget = Budget(cancel_token=token, check_interval=1)
        with pytest.raises(OperationCancelled):
            fp_growth(
                medium_db, 0.05,
                ctx=ExecutionContext(budget=budget), on_exhausted="truncate",
            )


class TestGSP:
    def test_injected_fault_truncates(self, medium_seq_db):
        result = gsp(
            medium_seq_db, 0.1,
            ctx=ExecutionContext(budget=_fault_budget(2)),
            on_exhausted="truncate",
        )
        assert result.truncated
        full = gsp(medium_seq_db, 0.1)
        assert set(result.supports) <= set(full.supports)

    def test_injected_fault_raises(self, medium_seq_db):
        with pytest.raises(BudgetExceeded):
            gsp(
                medium_seq_db, 0.1,
                ctx=ExecutionContext(budget=_fault_budget(2)),
            )


class TestTreeGrowers:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda b: C45(prune=False, ctx=ExecutionContext(budget=b)),
            lambda b: CART(ctx=ExecutionContext(budget=b)),
            lambda b: SLIQ(ctx=ExecutionContext(budget=b)),
        ],
        ids=["c45", "cart", "sliq"],
    )
    def test_node_budget_truncates_but_model_works(self, f2_train, factory):
        model = factory(Budget(max_nodes=2))
        model.fit(f2_train, "group")
        assert model.truncated_
        assert model.truncation_reason_ is not None
        predictions = model.predict(f2_train)
        assert len(predictions) == f2_train.n_rows
        # Truncated tree is no deeper than the unbudgeted one.
        full = factory(None)
        full.fit(f2_train, "group")
        assert not full.truncated_
        assert model.n_nodes() <= full.n_nodes()

    def test_c45_cancellation_propagates(self, f2_train):
        token = CancellationToken()
        token.cancel()
        model = C45(
            prune=False,
            ctx=ExecutionContext(
                budget=Budget(cancel_token=token, check_interval=1)
            ),
        )
        with pytest.raises(OperationCancelled):
            model.fit(f2_train, "group")


class TestClusterers:
    def test_kmeans_expansion_budget(self, blobs4):
        X, _ = blobs4
        model = KMeans(
            4, random_state=0,
            ctx=ExecutionContext(budget=Budget(max_expansions=2)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            model.fit(X)
        assert model.truncated_
        assert model.cluster_centers_.shape == (4, 2)
        assert len(model.labels_) == len(X)

    def test_pam_expansion_budget(self, blobs4):
        X, _ = blobs4
        model = PAM(
            4, ctx=ExecutionContext(budget=Budget(max_expansions=1))
        ).fit(X)
        assert model.truncated_
        assert len(model.medoid_indices_) == 4

    def test_clarans_expansion_budget(self, blobs4):
        X, _ = blobs4
        model = CLARANS(
            4, random_state=0,
            ctx=ExecutionContext(budget=Budget(max_expansions=10)),
        ).fit(X)
        assert model.truncated_
        assert len(model.medoid_indices_) == 4

    def test_dbscan_expansion_budget(self, blobs4):
        X, _ = blobs4
        model = DBSCAN(
            eps=1.0, min_samples=4,
            ctx=ExecutionContext(budget=Budget(max_expansions=5)),
        )
        with pytest.warns(ConvergenceWarning):
            model.fit(X)
        assert model.truncated_
        # Unreached points stay noise; discovered labels are contiguous.
        assert set(model.labels_) <= set(range(-1, model.n_clusters_))

    def test_kmeans_virtual_deadline(self, blobs4):
        X, _ = blobs4
        clock = VirtualClock()
        budget = Budget(
            time_limit=1.0, clock=clock, check_interval=1
        ).install_fault(SlowPass(clock, delay=0.6))
        model = KMeans(4, random_state=0, ctx=ExecutionContext(budget=budget))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            model.fit(X)
        assert model.truncated_
        assert "TimeBudgetExceeded" in model.truncation_reason_

    def test_dbscan_cancellation_propagates(self, blobs4):
        X, _ = blobs4
        token = CancellationToken()
        token.cancel()
        budget = Budget(cancel_token=token, check_interval=1)
        with pytest.raises(OperationCancelled):
            DBSCAN(
                eps=1.0, min_samples=4, ctx=ExecutionContext(budget=budget)
            ).fit(X)
