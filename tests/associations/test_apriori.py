"""Unit tests for the Apriori miner."""

import pytest

from repro.associations import apriori, brute_force, min_count_from_support
from repro.core import EmptyInputError, TransactionDatabase, ValidationError


class TestMinCount:
    def test_ceiling_semantics(self):
        assert min_count_from_support(10, 0.25) == 3
        assert min_count_from_support(10, 0.3) == 3
        assert min_count_from_support(100, 0.01) == 1

    def test_zero_support_rejected(self):
        with pytest.raises(ValidationError, match="0.0"):
            min_count_from_support(10, 0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            min_count_from_support(10, 1.5)


class TestApriori:
    def test_small_db_exact(self, small_db):
        result = apriori(small_db, min_support=0.4)
        assert result.supports == {
            (0,): 3, (1,): 4, (2,): 2, (3,): 2,
            (0, 1): 2, (1, 3): 2,
        }

    def test_matches_oracle(self, medium_db):
        for min_support in (0.02, 0.05, 0.1):
            got = apriori(medium_db, min_support).supports
            want = brute_force(medium_db, min_support).supports
            assert got == want

    def test_dict_store_matches_hash_tree(self, medium_db):
        a = apriori(medium_db, 0.05, backend="hash_tree").supports
        b = apriori(medium_db, 0.05, backend="dict").supports
        assert a == b

    def test_max_size_caps_output(self, medium_db):
        result = apriori(medium_db, 0.02, max_size=2)
        assert result.max_size() <= 2

    def test_empty_database_rejected(self):
        with pytest.raises(EmptyInputError, match="empty"):
            apriori(TransactionDatabase([]), 0.1)

    def test_support_one_returns_only_universal_items(self):
        db = TransactionDatabase([(0, 1), (0, 2), (0, 1)])
        result = apriori(db, min_support=1.0)
        assert set(result.supports) == {(0,)}

    def test_pass_stats_are_recorded(self, small_db):
        result = apriori(small_db, 0.4)
        assert result.pass_stats[0].k == 1
        assert result.pass_stats[0].n_frequent == 4
        assert all(s.n_frequent <= s.n_candidates for s in result.pass_stats[1:])

    def test_monotone_in_min_support(self, medium_db):
        loose = set(apriori(medium_db, 0.02).supports)
        tight = set(apriori(medium_db, 0.1).supports)
        assert tight.issubset(loose)

    def test_invalid_candidate_store(self, small_db):
        with pytest.raises(ValidationError):
            apriori(small_db, 0.1, backend="magic")

    def test_invalid_max_size(self, small_db):
        with pytest.raises(ValidationError):
            apriori(small_db, 0.1, max_size=0)

    def test_downward_closure_holds(self, medium_db):
        result = apriori(medium_db, 0.05)
        from repro.core.itemsets import subsets_of_size

        for itemset in result:
            for sub in subsets_of_size(itemset, len(itemset) - 1):
                if sub:
                    assert sub in result
                    assert result.count(sub) >= result.count(itemset)
