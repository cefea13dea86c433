"""Shared columnar data plane: packed views, kernels, and memoization."""

import gc

import numpy as np
import pytest

from repro.core import SequenceDatabase, TransactionDatabase
from repro.core.columnar import (
    PackedBitmap,
    PresortedColumns,
    SequenceBitmap,
    TableMatrix,
    clear_caches,
    pack_indices,
    popcount,
    presorted_columns,
    sequence_bitmap,
    table_matrix,
    transaction_bitmap,
    unpack_indices,
    window_mask,
)
from repro.datasets import play_tennis, quest_basket, weather_numeric


def _brute_count(db, cand, begin=0, stop=None):
    stop = len(db) if stop is None else stop
    return sum(
        1 for t in range(begin, stop) if set(cand) <= set(db[t])
    )


# ----------------------------------------------------------------------
# Bitset kernels
# ----------------------------------------------------------------------
def test_pack_unpack_roundtrip():
    for idx in ([], [0], [7], [8], [0, 3, 8, 12], list(range(13))):
        bits = pack_indices(idx, 13)
        assert unpack_indices(bits, 13).tolist() == sorted(idx)
        assert popcount(bits) == len(idx)


def test_window_mask_selects_exact_range():
    mask = window_mask(20, 3, 11)
    assert unpack_indices(mask, 20).tolist() == list(range(3, 11))


# ----------------------------------------------------------------------
# PackedBitmap
# ----------------------------------------------------------------------
def test_counts_match_brute_force(medium_db):
    bitmap = PackedBitmap(medium_db)
    candidates = [(0,), (1, 2), (3, 4, 5), (0, 1, 2, 3)]
    assert bitmap.count(candidates) == [
        _brute_count(medium_db, c) for c in candidates
    ]


def test_windowed_counts_sum_to_full(medium_db):
    bitmap = PackedBitmap(medium_db)
    candidates = [(0,), (1, 2), (2, 3)]
    full = bitmap.count(candidates)
    lo = bitmap.count(candidates, begin=0, stop=100)
    hi = bitmap.count(candidates, begin=100, stop=len(medium_db))
    assert [a + b for a, b in zip(lo, hi)] == full
    assert lo == [_brute_count(medium_db, c, 0, 100) for c in candidates]


def test_empty_itemset_counts_window_width(medium_db):
    bitmap = PackedBitmap(medium_db)
    assert bitmap.count([()]) == [len(medium_db)]
    assert bitmap.count([()], begin=10, stop=25) == [15]


def test_all_empty_transactions_database():
    db = TransactionDatabase([(), (), ()])
    bitmap = PackedBitmap(db)
    assert bitmap.count([]) == []
    assert bitmap.count([()]) == [3]
    assert bitmap.frequent([()], min_count=3) == {(): 3}


# ----------------------------------------------------------------------
# SequenceBitmap
# ----------------------------------------------------------------------
def test_candidate_sequences_is_exact_occurrence_superset(small_seq_db):
    bitmap = SequenceBitmap(small_seq_db)
    for items in ((3,), (3, 9), (4, 7), (1, 2, 3)):
        expected = [
            sid for sid in range(len(small_seq_db))
            if all(
                any(item in elem for elem in small_seq_db[sid])
                for item in items
            )
        ]
        assert bitmap.candidate_sequences(items).tolist() == expected


def test_candidate_sequences_window_and_empty_items(small_seq_db):
    bitmap = SequenceBitmap(small_seq_db)
    assert bitmap.candidate_sequences((), begin=1, stop=4).tolist() == [1, 2, 3]
    full = bitmap.candidate_sequences((3,)).tolist()
    windowed = bitmap.candidate_sequences((3,), begin=2, stop=5).tolist()
    assert windowed == [sid for sid in full if 2 <= sid < 5]


# ----------------------------------------------------------------------
# Table views
# ----------------------------------------------------------------------
def test_presorted_columns_are_stable_ascending():
    table = weather_numeric()
    view = PresortedColumns(table)
    for name, order in view.order.items():
        col = table.column(name)
        assert (np.diff(col[order]) >= 0).all()
        # stability: ties keep original row order
        assert order.tolist() == np.argsort(col, kind="mergesort").tolist()


def test_table_matrix_matches_columns():
    table = play_tennis()
    tm = TableMatrix(table)
    for slot, name in enumerate(tm.numeric_names):
        assert tm.numeric[:, slot].tolist() == table.column(name).tolist()
    for slot, name in enumerate(tm.categorical_names):
        assert tm.categorical[:, slot].tolist() == table.column(name).tolist()
    assert tm.nbytes > 0


# ----------------------------------------------------------------------
# Memoization contract
# ----------------------------------------------------------------------
def test_encodings_memoized_per_object(medium_db, small_seq_db):
    assert transaction_bitmap(medium_db) is transaction_bitmap(medium_db)
    assert sequence_bitmap(small_seq_db) is sequence_bitmap(small_seq_db)
    table = weather_numeric()
    assert presorted_columns(table) is presorted_columns(table)
    assert table_matrix(table) is table_matrix(table)


def test_distinct_datasets_get_distinct_encodings():
    a = quest_basket(50, random_state=0)
    b = quest_basket(50, random_state=0)  # equal content, distinct object
    assert transaction_bitmap(a) is not transaction_bitmap(b)
    sa = SequenceDatabase([[(0,), (1,)]])
    sb = SequenceDatabase([[(0,), (1,)]])
    assert sequence_bitmap(sa) is not sequence_bitmap(sb)


def test_encoding_dies_with_dataset():
    import weakref

    db = TransactionDatabase([(0, 1), (1, 2)])
    ref = weakref.ref(transaction_bitmap(db))
    del db
    gc.collect()
    assert ref() is None


def test_encoding_not_part_of_pickled_dataset():
    import pickle

    db = quest_basket(50, random_state=1)
    bare = len(pickle.dumps(db))
    transaction_bitmap(db)  # build + memoize the encoding
    assert len(pickle.dumps(db)) == bare


def test_clear_caches_drops_encodings(medium_db):
    first = transaction_bitmap(medium_db)
    clear_caches()
    assert transaction_bitmap(medium_db) is not first
