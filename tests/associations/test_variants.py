"""Unit tests for AprioriTid, AprioriHybrid, Eclat and FP-Growth.

All four must produce byte-identical results to Apriori; each also has
variant-specific behaviours worth pinning down.
"""

import pytest

from repro.associations import (
    apriori,
    apriori_hybrid,
    apriori_tid,
    dhp,
    eclat,
    fp_growth,
)
from repro.core import EmptyInputError, TransactionDatabase, ValidationError

MINERS = {
    "apriori_tid": apriori_tid,
    "apriori_hybrid": apriori_hybrid,
    "eclat": eclat,
    "fp_growth": fp_growth,
}


@pytest.mark.parametrize("name", sorted(MINERS))
class TestAgreement:
    def test_small_db(self, name, small_db):
        want = apriori(small_db, 0.4).supports
        assert MINERS[name](small_db, 0.4).supports == want

    def test_medium_db_multiple_thresholds(self, name, medium_db):
        for min_support in (0.02, 0.05, 0.15):
            want = apriori(medium_db, min_support).supports
            assert MINERS[name](medium_db, min_support).supports == want

    def test_empty_db_rejected(self, name):
        with pytest.raises(EmptyInputError, match="empty"):
            MINERS[name](TransactionDatabase([]), 0.1)

    def test_max_size(self, name, medium_db):
        result = MINERS[name](medium_db, 0.02, max_size=2)
        want = apriori(medium_db, 0.02, max_size=2).supports
        assert result.supports == want

    def test_invalid_max_size(self, name, small_db):
        with pytest.raises(ValidationError):
            MINERS[name](small_db, 0.1, max_size=0)


class TestPassStats:
    @pytest.mark.parametrize("name", ["apriori_tid", "apriori_hybrid", "dhp"])
    def test_pass_stats_match_apriori(self, name, medium_db):
        miner = {"apriori_tid": apriori_tid, "apriori_hybrid": apriori_hybrid,
                 "dhp": dhp}[name]
        want = [(s.k, s.n_candidates, s.n_frequent)
                for s in apriori(medium_db, 0.05).pass_stats]
        got = [(s.k, s.n_candidates, s.n_frequent)
               for s in miner(medium_db, 0.05).pass_stats]
        if name == "dhp":
            # DHP's hash filter prunes C2 before counting (465 -> 145 here).
            assert got[1][1] < want[1][1]
            got[1] = (got[1][0], want[1][1], got[1][2])
        assert got == want


class TestAprioriTidSpecifics:
    def test_single_transaction(self):
        db = TransactionDatabase([(0, 1, 2)])
        result = apriori_tid(db, 1.0)
        assert result.supports[(0, 1, 2)] == 1
        assert len(result) == 7


class TestHybridSpecifics:
    def test_switch_is_recorded(self, medium_db):
        result = apriori_hybrid(medium_db, 0.05)
        # With the default budget the switch happens at some pass >= 2,
        # or never (None); either way the attribute must exist.
        assert result.switched_at is None or result.switched_at >= 2

    def test_forced_early_switch_still_correct(self, medium_db):
        huge_budget = 10**9
        result = apriori_hybrid(medium_db, 0.05, switch_budget=huge_budget)
        assert result.switched_at == 2
        assert result.supports == apriori(medium_db, 0.05).supports

    def test_forced_no_switch_still_correct(self, medium_db):
        result = apriori_hybrid(medium_db, 0.05, switch_budget=0)
        assert result.switched_at is None
        assert result.supports == apriori(medium_db, 0.05).supports


class TestFPGrowthSpecifics:
    def test_single_path_shortcut(self):
        # All transactions identical -> the FP-tree is one path.
        db = TransactionDatabase([(0, 1, 2)] * 4)
        result = fp_growth(db, 0.5)
        assert len(result) == 7
        assert all(c == 4 for c in result.supports.values())

    def test_handles_all_infrequent(self):
        db = TransactionDatabase([(0,), (1,), (2,)])
        assert len(fp_growth(db, 0.9)) == 0


class TestEclatSpecifics:
    def test_vertical_supports_match_scan(self, small_db):
        result = eclat(small_db, 0.2)
        for itemset, count in result.supports.items():
            assert count == small_db.support_count(itemset)
