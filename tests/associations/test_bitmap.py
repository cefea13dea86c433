"""Transaction-bitmap contract: windowed counting and degenerate inputs.

apriori's and dhp's ``backend="bitmap"`` count on the memoized
:class:`~repro.core.columnar.PackedBitmap` of the database.  Regression
coverage for the bugs fixed alongside the columnar data plane:
``frequent()`` used to ignore its ``begin``/``stop`` window
(thresholding full-database counts inside a shard), and empty candidate
lists / all-empty-transaction databases tripped ``np.packbits`` shape
handling.
"""

import pytest

from repro.core import TransactionDatabase
from repro.core.columnar import transaction_bitmap


@pytest.fixture
def db():
    return TransactionDatabase(
        [(0, 1), (0, 1), (0, 2), (1, 2), (0, 1), (2,)]
    )


def test_frequent_honours_window(db):
    bitmap = transaction_bitmap(db)
    # (0, 1) appears in transactions 0, 1, 4: full support 3, but only
    # twice inside [0, 3).  The old implementation thresholded the full
    # count, returning {(0, 1): 3} for min_count=3 even in the window.
    assert bitmap.frequent([(0, 1)], min_count=3) == {(0, 1): 3}
    assert bitmap.frequent([(0, 1)], min_count=3, begin=0, stop=3) == {}
    assert bitmap.frequent([(0, 1)], min_count=2, begin=0, stop=3) == \
        {(0, 1): 2}
    assert bitmap.frequent([(0, 1)], min_count=1, begin=2, stop=4) == {}


def test_windowed_frequent_reports_window_counts(db):
    bitmap = transaction_bitmap(db)
    out = bitmap.frequent([(0,), (1,), (2,)], min_count=1, begin=3, stop=6)
    assert out == {(0,): 1, (1,): 2, (2,): 2}


def test_empty_candidate_list(db):
    bitmap = transaction_bitmap(db)
    assert bitmap.count([]) == []
    assert bitmap.frequent([], min_count=1) == {}


def test_all_empty_transactions():
    db = TransactionDatabase([(), (), (), ()])
    bitmap = transaction_bitmap(db)
    assert bitmap.n_transactions == 4
    assert bitmap.count([]) == []
    assert bitmap.count([()]) == [4]
    assert bitmap.frequent([()], min_count=4) == {(): 4}
    assert bitmap.frequent([()], min_count=4, begin=0, stop=2) == {}


def test_empty_database():
    db = TransactionDatabase([])
    bitmap = transaction_bitmap(db)
    assert bitmap.count([()]) == [0]
    assert bitmap.frequent([()], min_count=1) == {}


def test_shared_encoding_across_wrappers(db):
    # Every counting pass of a run looks the encoding up again; each
    # lookup must return the one memoized matrix, not a rebuild.
    assert transaction_bitmap(db) is transaction_bitmap(db)
