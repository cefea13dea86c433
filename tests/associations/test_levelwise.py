"""The levelwise pass protocol shared by the Apriori-family miners.

Every counted pass is one progress step named ``pass-k``, and the
snapshot layout stays fixed so that snapshots written by earlier
releases still resume.
"""

import pytest

from repro.associations import apriori, apriori_tid, dhp
from repro.runtime import (
    Budget,
    BudgetExceeded,
    Checkpointer,
    ExecutionContext,
    TriggerAfter,
)
from repro.runtime.checkpoint import CheckpointStore
from repro.sequences import apriori_all, gsp

MINERS = {
    "apriori": (apriori, "medium_db", 0.05),
    "apriori_tid": (apriori_tid, "medium_db", 0.05),
    "dhp": (dhp, "medium_db", 0.05),
    "gsp": (gsp, "medium_seq_db", 0.1),
    "apriori_all": (apriori_all, "medium_seq_db", 0.1),
}


@pytest.mark.parametrize("name", sorted(MINERS))
def test_progress_reports_every_counted_pass(name, request):
    miner, fixture, min_support = MINERS[name]
    events = []
    ctx = ExecutionContext(
        on_progress=lambda phase, info: events.append((phase, info))
    )
    result = miner(request.getfixturevalue(fixture), min_support, ctx=ctx)
    assert [phase for phase, _ in events] == [
        f"pass-{s.k}" for s in result.pass_stats[1:]
    ]
    assert [info for _, info in events] == [
        {"n_frequent_prev": s.n_frequent} for s in result.pass_stats[:-1]
    ]
    assert ctx.counters.steps == len(events)


#: (checkpoint key, state keys, pass k of the newest snapshot); copied
#: from the snapshots these runs wrote before the levelwise driver.
SNAPSHOTS = {
    "apriori": (
        {"algorithm": "apriori", "n_transactions": 300, "n_items": 40,
         "min_support": 0.05, "max_size": None,
         "candidate_store": "hash_tree"},
        {"k", "frequent", "all_frequent", "stats"},
        6,
    ),
    "apriori_tid": (
        {"algorithm": "apriori_tid", "n_transactions": 300, "n_items": 40,
         "min_support": 0.05, "max_size": None},
        {"k", "frequent", "all_frequent", "stats", "tidlists"},
        6,
    ),
    "dhp": (
        {"algorithm": "dhp", "n_transactions": 300, "n_items": 40,
         "min_support": 0.05, "max_size": None, "n_buckets": 4096},
        {"k", "frequent", "all_frequent", "stats", "stage", "c2"},
        6,
    ),
    "gsp": (
        {"algorithm": "gsp", "n_transactions": 120, "n_items": 30,
         "min_support": 0.15, "max_length": None, "min_gap": None,
         "max_gap": None, "window": 0.0},
        {"k", "frequent", "all_frequent", "stats"},
        4,
    ),
}


class TestSnapshotFormat:
    @pytest.mark.parametrize("name", sorted(SNAPSHOTS))
    def test_newest_snapshot_layout(self, name, request, tmp_path):
        miner, fixture, _ = MINERS[name]
        key, state_keys, k = SNAPSHOTS[name]
        miner(request.getfixturevalue(fixture), key["min_support"],
              ctx=ExecutionContext(checkpointer=Checkpointer(tmp_path)))
        payload = CheckpointStore(tmp_path).load_latest()
        assert payload["key"] == key
        assert set(payload["state"]) == state_keys
        assert payload["state"]["k"] == k

    def test_dhp_snapshot_stages(self, medium_db, tmp_path):
        dhp(medium_db, 0.05,
            ctx=ExecutionContext(checkpointer=Checkpointer(tmp_path / "done")))
        state = CheckpointStore(tmp_path / "done").load_latest()["state"]
        assert state["stage"] == "passes"
        assert state["c2"] == (465, 145)

        # Kill the run at its pass-2 budget check: the newest snapshot is
        # then the hash-filter stage, carrying pass 1's bucket counters.
        probe = Budget(check_interval=1)
        dhp(medium_db, 0.05, max_size=1, ctx=ExecutionContext(budget=probe))
        budget = Budget(check_interval=1).install_fault(
            TriggerAfter(probe.n_checks + 1)
        )
        with pytest.raises(BudgetExceeded):
            dhp(medium_db, 0.05, ctx=ExecutionContext(
                budget=budget, checkpointer=Checkpointer(tmp_path / "kill")
            ))
        payload = CheckpointStore(tmp_path / "kill").load_latest()
        assert payload["key"] == SNAPSHOTS["dhp"][0]
        assert set(payload["state"]) == {
            "k", "frequent", "all_frequent", "stats", "stage", "buckets"
        }
        assert payload["state"]["stage"] == "pass-2"
        assert payload["state"]["k"] == 2
        assert len(payload["state"]["buckets"]) == 4096


def test_apriori_all_ignores_a_checkpointer(medium_seq_db, tmp_path):
    ctx = ExecutionContext(checkpointer=Checkpointer(tmp_path))
    result = apriori_all(medium_seq_db, 0.1, ctx=ctx)
    assert result.supports == apriori_all(medium_seq_db, 0.1).supports
    assert CheckpointStore(tmp_path).load_latest() is None
    assert ctx.counters.snapshots == 0
