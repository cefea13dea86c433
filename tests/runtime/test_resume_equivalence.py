"""Kill-and-resume equivalence sweep.

The checkpoint contract: a run killed at an arbitrary budget checkpoint
and resumed from its newest snapshot returns results identical to an
uninterrupted run.  The sweep proves it empirically — for every
snapshottable algorithm it counts the budget checkpoints of a clean run,
then kills the run at (a spread of) every reachable checkpoint with a
deterministic injected fault, resumes from disk, and compares exactly.

Miners are killed through their ``on_exhausted="raise"`` path with the
default injected fault (a ``BudgetExceeded`` subclass).  Clusterers
absorb ``BudgetExceeded`` into graceful truncation, so they are killed
with an injected ``OperationCancelled`` — the one exception the
degradation layer is required to let through.
"""

import numpy as np
import pytest

from repro.associations import apriori, apriori_tid, dhp, eclat, partition_miner
from repro.clustering import CLARANS, KMeans, PAM
from repro.datasets import gaussian_blobs
from repro.runtime import (
    Budget,
    BudgetExceeded,
    CheckpointMismatch,
    Checkpointer,
    ExecutionContext,
    OperationCancelled,
    TriggerAfter,
)
from repro.sequences import gsp

MAX_KILL_POINTS = 20


def _kill_points(n_checks):
    """Every checkpoint when few, an even spread (ends included) when many."""
    if n_checks <= MAX_KILL_POINTS:
        return list(range(1, n_checks + 1))
    picks = np.linspace(1, n_checks, MAX_KILL_POINTS)
    return sorted({int(round(p)) for p in picks})


def _sweep_miner(run, tmp_path, expected_supports):
    """Kill ``run`` at every (sampled) checkpoint, resume, compare."""
    counting = Budget(check_interval=1)
    assert run(budget=counting, checkpoint=None).supports == expected_supports
    assert counting.n_checks > 0, "miner never polled its budget"

    for kp in _kill_points(counting.n_checks):
        ckdir = tmp_path / f"kill-{kp}"
        budget = Budget(check_interval=1).install_fault(TriggerAfter(kp))
        with pytest.raises(BudgetExceeded):
            run(budget=budget, checkpoint=Checkpointer(ckdir))
        resumed = run(
            budget=None, checkpoint=Checkpointer(ckdir, resume=True)
        )
        assert resumed.supports == expected_supports, f"kill point {kp}"
        assert not resumed.truncated


class TestMinerResume:
    def test_apriori(self, small_db, tmp_path):
        expected = apriori(small_db, 0.3)

        def run(budget, checkpoint):
            return apriori(
                small_db, 0.3,
                ctx=ExecutionContext(budget=budget, checkpointer=checkpoint),
            )

        _sweep_miner(run, tmp_path, expected.supports)

    def test_apriori_tid(self, small_db, tmp_path):
        expected = apriori_tid(small_db, 0.3)

        def run(budget, checkpoint):
            return apriori_tid(
                small_db, 0.3,
                ctx=ExecutionContext(budget=budget, checkpointer=checkpoint),
            )

        _sweep_miner(run, tmp_path, expected.supports)

    def test_dhp(self, small_db, tmp_path):
        expected = dhp(small_db, 0.3)

        def run(budget, checkpoint):
            return dhp(
                small_db, 0.3,
                ctx=ExecutionContext(budget=budget, checkpointer=checkpoint),
            )

        _sweep_miner(run, tmp_path, expected.supports)

    def test_eclat(self, small_db, tmp_path):
        expected = eclat(small_db, 0.3)

        def run(budget, checkpoint):
            return eclat(
                small_db, 0.3,
                ctx=ExecutionContext(budget=budget, checkpointer=checkpoint),
            )

        _sweep_miner(run, tmp_path, expected.supports)

    def test_partition(self, small_db, tmp_path):
        expected = partition_miner(small_db, 0.3, n_partitions=2)

        def run(budget, checkpoint):
            return partition_miner(
                small_db, 0.3, n_partitions=2,
                ctx=ExecutionContext(budget=budget, checkpointer=checkpoint),
            )

        _sweep_miner(run, tmp_path, expected.supports)

    def test_gsp(self, small_seq_db, tmp_path):
        expected = gsp(small_seq_db, 0.4)

        def run(budget, checkpoint):
            return gsp(
                small_seq_db, 0.4,
                ctx=ExecutionContext(budget=budget, checkpointer=checkpoint),
            )

        _sweep_miner(run, tmp_path, expected.supports)

    def test_medium_workload_sampled_kills(self, medium_db, tmp_path):
        """A non-toy workload: checkpoints number in the hundreds, so
        kill points are sampled — including the very first and last."""
        expected = apriori(medium_db, 0.05)

        def run(budget, checkpoint):
            return apriori(
                medium_db, 0.05,
                ctx=ExecutionContext(budget=budget, checkpointer=checkpoint),
            )

        _sweep_miner(run, tmp_path, expected.supports)


def _cancel_after(n):
    return Budget(check_interval=1).install_fault(
        TriggerAfter(n, exc_factory=lambda: OperationCancelled("killed"))
    )


def _sweep_clusterer(make_model, fit, compare, X, tmp_path):
    clean = fit(make_model(budget=None, checkpoint=None), X)
    counting = Budget(check_interval=1)
    compare(fit(make_model(budget=counting, checkpoint=None), X), clean)
    assert counting.n_checks > 0, "clusterer never polled its budget"

    for kp in _kill_points(counting.n_checks):
        ckdir = tmp_path / f"kill-{kp}"
        model = make_model(
            budget=_cancel_after(kp), checkpoint=Checkpointer(ckdir)
        )
        with pytest.raises(OperationCancelled):
            fit(model, X)
        resumed = fit(
            make_model(
                budget=None, checkpoint=Checkpointer(ckdir, resume=True)
            ),
            X,
        )
        compare(resumed, clean)


class TestClustererResume:
    @pytest.fixture
    def X(self):
        data, _ = gaussian_blobs(
            90,
            centers=np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]]),
            cluster_std=0.8,
            random_state=2,
        )
        return data

    def test_kmeans(self, X, tmp_path):
        def make_model(budget, checkpoint):
            return KMeans(
                3, n_init=2, max_iter=60, random_state=0,
                ctx=ExecutionContext(budget=budget, checkpointer=checkpoint),
            )

        def compare(model, reference):
            assert np.array_equal(
                model.cluster_centers_, reference.cluster_centers_
            )
            assert model.inertia_ == reference.inertia_
            assert model.n_iter_ == reference.n_iter_
            assert np.array_equal(model.labels_, reference.labels_)

        _sweep_clusterer(
            make_model, lambda m, X: m.fit(X), compare, X, tmp_path
        )

    @pytest.mark.filterwarnings(
        "ignore::repro.core.exceptions.ConvergenceWarning"
    )
    def test_kmeans_macqueen(self, X, tmp_path):
        def make_model(budget, checkpoint):
            return KMeans(
                3, algorithm="macqueen", n_init=2, max_iter=40,
                random_state=1,
                ctx=ExecutionContext(budget=budget, checkpointer=checkpoint),
            )

        def compare(model, reference):
            assert np.array_equal(
                model.cluster_centers_, reference.cluster_centers_
            )
            assert model.inertia_ == reference.inertia_

        _sweep_clusterer(
            make_model, lambda m, X: m.fit(X), compare, X, tmp_path
        )

    def test_pam(self, X, tmp_path):
        def make_model(budget, checkpoint):
            return PAM(
                3, ctx=ExecutionContext(budget=budget, checkpointer=checkpoint)
            )

        def compare(model, reference):
            assert np.array_equal(
                model.medoid_indices_, reference.medoid_indices_
            )
            assert model.cost_ == reference.cost_
            assert np.array_equal(model.labels_, reference.labels_)

        _sweep_clusterer(
            make_model, lambda m, X: m.fit(X), compare, X, tmp_path
        )

    def test_clarans(self, X, tmp_path):
        def make_model(budget, checkpoint):
            return CLARANS(
                3, num_local=2, max_neighbor=25, random_state=4,
                ctx=ExecutionContext(budget=budget, checkpointer=checkpoint),
            )

        def compare(model, reference):
            assert np.array_equal(
                model.medoid_indices_, reference.medoid_indices_
            )
            assert model.cost_ == reference.cost_

        _sweep_clusterer(
            make_model, lambda m, X: m.fit(X), compare, X, tmp_path
        )


class TestResumeSafety:
    def test_key_mismatch_rejected(self, small_db, tmp_path):
        budget = Budget(check_interval=1).install_fault(TriggerAfter(3))
        with pytest.raises(BudgetExceeded):
            apriori(
                small_db, 0.3, ctx=ExecutionContext(
                    budget=budget, checkpointer=Checkpointer(tmp_path)
                ),
            )
        # Same miner, different threshold: refuses to blend the runs.
        with pytest.raises(CheckpointMismatch):
            apriori(
                small_db, 0.2,
                ctx=ExecutionContext(
                    checkpointer=Checkpointer(tmp_path, resume=True)
                ),
            )
        # A different miner entirely is rejected too.
        with pytest.raises(CheckpointMismatch):
            eclat(
                small_db, 0.3,
                ctx=ExecutionContext(
                    checkpointer=Checkpointer(tmp_path, resume=True)
                ),
            )

    def test_corrupted_newest_snapshot_falls_back(self, small_db, tmp_path):
        """End-to-end corruption drill: kill late (several snapshots on
        disk), corrupt the newest, resume — results are still exact."""
        expected = apriori(small_db, 0.3)
        counting = Budget(check_interval=1)
        apriori(small_db, 0.3, ctx=ExecutionContext(budget=counting))
        kp = counting.n_checks  # kill at the last checkpoint
        budget = Budget(check_interval=1).install_fault(TriggerAfter(kp))
        with pytest.raises(BudgetExceeded):
            apriori(
                small_db, 0.3, ctx=ExecutionContext(
                    budget=budget, checkpointer=Checkpointer(tmp_path)
                ),
            )
        ckpt = Checkpointer(tmp_path, resume=True)
        snapshots = ckpt.store.snapshots()
        assert len(snapshots) >= 2, "need a fallback snapshot for the drill"
        newest = snapshots[-1][1]
        raw = bytearray(newest.read_bytes())
        raw[-1] ^= 0xFF
        newest.write_bytes(bytes(raw))
        resumed = apriori(
            small_db, 0.3, ctx=ExecutionContext(checkpointer=ckpt)
        )
        assert resumed.supports == expected.supports

    def test_resume_after_completion_is_exact(self, small_db, tmp_path):
        """Resuming a run that already finished replays the final state
        and returns the same answer (idempotent restarts)."""
        expected = apriori(
            small_db, 0.3,
            ctx=ExecutionContext(checkpointer=Checkpointer(tmp_path)),
        )
        resumed = apriori(
            small_db, 0.3,
            ctx=ExecutionContext(
                checkpointer=Checkpointer(tmp_path, resume=True)
            ),
        )
        assert resumed.supports == expected.supports

    def test_budget_exhaustion_leaves_final_checkpoint(self, medium_db, tmp_path):
        """The composition the ISSUE describes: a run that exhausts its
        budget writes a final checkpoint; a fresh run with a fresh budget
        resumes it and completes exactly."""
        expected = apriori(medium_db, 0.05)
        budget = Budget(max_candidates=40)
        with pytest.raises(BudgetExceeded):
            apriori(
                medium_db, 0.05, ctx=ExecutionContext(
                    budget=budget, checkpointer=Checkpointer(tmp_path)
                ),
            )
        assert Checkpointer(tmp_path, resume=False).store.snapshots()
        resumed = apriori(
            medium_db, 0.05,
            ctx=ExecutionContext(
                budget=Budget(max_candidates=100_000),
                checkpointer=Checkpointer(tmp_path, resume=True),
            ),
        )
        assert resumed.supports == expected.supports
