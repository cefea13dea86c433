"""Shared columnar data plane: packed bitmaps + presorted columns.

The vertical/bitmap representation from the Eclat/VIPER lineage (see
PAPERS.md) generalises far beyond apriori's counting pass: any hot loop
whose inner question is "which transactions/sequences/rows satisfy X?"
can be answered with a bitwise AND over packed bit rows plus a popcount,
or with one presorted pass over a column.  This module is the single
home for those encodings, with three views:

``PackedBitmap``
    An item x transaction bit matrix packed along the transaction axis
    (``np.packbits``), 8x smaller than a dense ``bool`` matrix.  The
    support of an itemset is the popcount of the AND of its item rows;
    contiguous ``begin``/``stop`` windows (the map-reduce shard
    interface) are served through a packed window mask.  apriori's and
    dhp's ``backend="bitmap"`` count on it directly.

``PackedBitmap.tidset`` rows double as **per-item tidlist bitsets**: the
    partition miner's ``bitset`` joins are ``popcount(a & b)`` over the
    packed rows — see :func:`popcount`.

``SequenceBitmap``
    An item x sequence *occurrence* matrix for GSP: bit ``s`` of item
    ``i``'s row is set iff item ``i`` appears anywhere in sequence
    ``s``.  ANDing the rows of a candidate's items yields the (superset
    of) sequences that can possibly contain it, pruning the expensive
    ordered subsequence check to the survivors.

``PresortedColumns`` / ``TableMatrix``
    For attribute data: one stable argsort index per numeric column
    (the SLIQ presorting invariant, built once instead of once per
    fit) and cached dense numeric/categorical matrices of a table.

Every view is **built lazily and memoized per dataset object** through
a ``weakref.WeakKeyDictionary`` — the cache entry dies with the dataset,
can never be shared across two distinct datasets, and is *not* part of
the dataset's pickled state, so shipping a database into a
:class:`~repro.runtime.transport.SharedRegion` segment does not drag
the encoding along (workers re-derive or receive the encoding as its
own segment, copy-on-write after fork).  Construction is a single pass;
afterwards every consumer counts against the same arrays.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime import Budget
from .itemsets import Itemset

try:  # numpy >= 2.0
    _popcount_u8 = np.bitwise_count
except AttributeError:  # pragma: no cover - numpy < 2 fallback
    _POPCOUNT_TABLE = np.array(
        [bin(i).count("1") for i in range(256)], dtype=np.uint8
    )

    def _popcount_u8(a):
        return _POPCOUNT_TABLE[a]


# ----------------------------------------------------------------------
# Bitset kernels (shared by every packed view)
# ----------------------------------------------------------------------

def popcount(bits: np.ndarray) -> int:
    """Number of set bits in a packed ``uint8`` bitset."""
    return int(_popcount_u8(bits).sum(dtype=np.int64))


def pack_indices(indices: Iterable[int], n: int) -> np.ndarray:
    """Packed bitset over a universe of ``n`` bits with ``indices`` set."""
    dense = np.zeros(n, dtype=bool)
    idx = list(indices)
    if idx:
        dense[idx] = True
    return np.packbits(dense)


def unpack_indices(bits: np.ndarray, n: int) -> np.ndarray:
    """Sorted indices of the set bits of a packed bitset (inverse of pack)."""
    return np.flatnonzero(np.unpackbits(bits, count=n))


def window_mask(n: int, begin: int, stop: int) -> np.ndarray:
    """Packed mask selecting bit positions ``[begin, stop)`` of ``n``."""
    dense = np.zeros(n, dtype=bool)
    dense[begin:stop] = True
    return np.packbits(dense)


# ----------------------------------------------------------------------
# Transaction view: packed item x transaction bit matrix
# ----------------------------------------------------------------------

class PackedBitmap:
    """Packed item x transaction bit matrix with popcount counting.

    Row ``i`` is item ``i``'s tidlist as a packed bitset; the support of
    an itemset is ``popcount(AND of its rows)``.  Tail bits past
    ``n_transactions`` are always zero, so popcounts never need masking.

    Examples
    --------
    >>> from .transactions import TransactionDatabase
    >>> db = TransactionDatabase([(0, 1, 2), (0, 1), (0, 2), (1, 2)])
    >>> PackedBitmap(db).count([(0, 1), (0, 2), (1, 2)])
    [2, 2, 2]
    """

    def __init__(self, db):
        dense = np.zeros((db.n_items, len(db)), dtype=bool)
        for column, txn in enumerate(db):
            if txn:
                dense[list(txn), column] = True
        if dense.size:
            self.packed = np.packbits(dense, axis=1)
        else:
            # np.packbits on a 0-row or 0-column matrix keeps shape sane
            # only when done explicitly; build the empty packed shape.
            self.packed = np.zeros(
                (db.n_items, (len(db) + 7) // 8), dtype=np.uint8
            )
        self.n_items = db.n_items
        self.n_transactions = len(db)
        self._item_counts: Optional[np.ndarray] = None

    # -- memory accounting -------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Bytes held by the packed matrix."""
        return int(self.packed.nbytes)

    # -- per-item tidlist bitsets -----------------------------------------
    def tidset(self, item: int) -> np.ndarray:
        """Item ``item``'s tidlist as a packed bitset (a matrix row)."""
        return self.packed[item]

    def item_supports(self) -> np.ndarray:
        """Support count of every item id (popcount per row), cached."""
        if self._item_counts is None:
            self._item_counts = _popcount_u8(self.packed).sum(
                axis=1, dtype=np.int64
            )
        return self._item_counts

    # -- counting ----------------------------------------------------------
    def count(
        self,
        candidates: Sequence[Itemset],
        budget: Optional[Budget] = None,
        begin: int = 0,
        stop: Optional[int] = None,
    ) -> List[int]:
        """Exact support counts aligned with ``candidates`` order.

        ``begin``/``stop`` restrict counting to a contiguous transaction
        range — the shard interface of the map-reduce path; per-shard
        vectors sum element-wise to the full-database counts.  ``budget``
        is checked periodically so deadlines and cancellation fire
        mid-count.  The empty itemset is contained in every transaction,
        so its count is the window width; an empty ``candidates`` list
        returns ``[]``.
        """
        if stop is None:
            stop = self.n_transactions
        windowed = begin != 0 or stop != self.n_transactions
        mask = window_mask(self.n_transactions, begin, stop) if windowed \
            else None
        width = max(0, min(stop, self.n_transactions) - max(begin, 0))
        counts: List[int] = []
        for i, cand in enumerate(candidates):
            if budget is not None and i % 256 == 0:
                budget.check(phase="bitmap-count")
            cand = tuple(cand)
            if not cand:
                counts.append(width)
                continue
            if len(cand) == 1:
                acc = self.packed[cand[0]]
            elif len(cand) == 2:
                acc = self.packed[cand[0]] & self.packed[cand[1]]
            else:
                acc = np.bitwise_and.reduce(self.packed[list(cand)], axis=0)
            if mask is not None:
                acc = acc & mask
            counts.append(popcount(acc))
        return counts

    def frequent(
        self,
        candidates: Sequence[Itemset],
        min_count: int,
        budget: Optional[Budget] = None,
        begin: int = 0,
        stop: Optional[int] = None,
    ) -> Dict[Itemset, int]:
        """Candidates whose windowed support reaches ``min_count``."""
        counts = self.count(candidates, budget, begin, stop)
        return {
            tuple(cand): cnt
            for cand, cnt in zip(candidates, counts)
            if cnt >= min_count
        }


# ----------------------------------------------------------------------
# Sequence view: packed item x sequence occurrence matrix
# ----------------------------------------------------------------------

class SequenceBitmap:
    """Per-item occurrence bitmap over a :class:`SequenceDatabase`.

    Bit ``s`` of row ``i`` is set iff item ``i`` appears in any element
    of sequence ``s``.  :meth:`candidate_sequences` ANDs the rows of a
    candidate's distinct items: only the surviving sequences can contain
    the candidate, so the ordered (and time-constrained) subsequence
    check runs on a usually-small subset.
    """

    def __init__(self, sdb):
        dense = np.zeros((sdb.n_items, len(sdb)), dtype=bool)
        for sid in range(len(sdb)):
            for element in sdb[sid]:
                for item in element:
                    dense[item, sid] = True
        if dense.size:
            self.packed = np.packbits(dense, axis=1)
        else:
            self.packed = np.zeros(
                (sdb.n_items, (len(sdb) + 7) // 8), dtype=np.uint8
            )
        self.n_items = sdb.n_items
        self.n_sequences = len(sdb)

    @property
    def nbytes(self) -> int:
        return int(self.packed.nbytes)

    def candidate_sequences(
        self, items: Iterable[int], begin: int = 0, stop: Optional[int] = None
    ) -> np.ndarray:
        """Sorted ids in ``[begin, stop)`` of sequences containing every item.

        A superset test only — order and time constraints are *not*
        checked; callers run the real containment check on the result.
        """
        if stop is None:
            stop = self.n_sequences
        items = sorted(set(items))
        if not items:
            return np.arange(begin, stop)
        if len(items) == 1:
            acc = self.packed[items[0]]
        else:
            acc = np.bitwise_and.reduce(self.packed[items], axis=0)
        windowed = begin != 0 or stop != self.n_sequences
        if windowed:
            acc = acc & window_mask(self.n_sequences, begin, stop)
        return unpack_indices(acc, self.n_sequences)


# ----------------------------------------------------------------------
# Table views: presorted numeric columns + cached dense matrices
# ----------------------------------------------------------------------

class PresortedColumns:
    """One stable argsort index per numeric column of a ``Table``.

    The SLIQ invariant — sort each numeric attribute **once**, then every
    split evaluation is a single in-order pass — built once per table
    instead of once per fit, and shared by every consumer.
    """

    def __init__(self, table):
        self.order: Dict[str, np.ndarray] = {}
        for attr in table.attributes:
            if attr.is_numeric:
                self.order[attr.name] = np.argsort(
                    table.column(attr.name), kind="mergesort"
                )

    @property
    def nbytes(self) -> int:
        return int(sum(o.nbytes for o in self.order.values()))

    def order_of(self, name: str) -> np.ndarray:
        """Row indices that sort column ``name`` ascending (stable)."""
        return self.order[name]


class TableMatrix:
    """Cached dense numeric / categorical-code matrices of a ``Table``.

    Extracts the column arrays once per table object.  No learner reads
    it: the k-NN and naive Bayes kernels that did measured no faster
    than the scalar paths and were removed.  The view stays as one of
    the four encodings ``repro bench`` measures, and the end-to-end
    benchmark's tracer wraps :func:`table_matrix` by name.
    """

    def __init__(self, table):
        self.numeric_names: Tuple[str, ...] = tuple(
            a.name for a in table.attributes if a.is_numeric
        )
        self.categorical_names: Tuple[str, ...] = tuple(
            a.name for a in table.attributes if a.is_categorical
        )
        if self.numeric_names:
            self.numeric = np.column_stack(
                [table.column(n) for n in self.numeric_names]
            )
        else:
            self.numeric = np.empty((table.n_rows, 0), dtype=np.float64)
        if self.categorical_names:
            self.categorical = np.column_stack(
                [table.column(n) for n in self.categorical_names]
            )
        else:
            self.categorical = np.empty((table.n_rows, 0), dtype=np.int64)

    @property
    def nbytes(self) -> int:
        return int(self.numeric.nbytes + self.categorical.nbytes)


# ----------------------------------------------------------------------
# Per-dataset memoization
# ----------------------------------------------------------------------
# Keyed on the dataset *object* through weak references: an encoding can
# never outlive (or be confused with) its dataset, and distinct dataset
# objects always get distinct encodings.  Identity keying is sound
# because TransactionDatabase/SequenceDatabase/Table are immutable.

_TRANSACTION_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_SEQUENCE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_PRESORT_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_MATRIX_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def transaction_bitmap(db) -> PackedBitmap:
    """The memoized :class:`PackedBitmap` of a transaction database."""
    bitmap = _TRANSACTION_CACHE.get(db)
    if bitmap is None:
        bitmap = PackedBitmap(db)
        _TRANSACTION_CACHE[db] = bitmap
    return bitmap


def sequence_bitmap(sdb) -> SequenceBitmap:
    """The memoized :class:`SequenceBitmap` of a sequence database."""
    bitmap = _SEQUENCE_CACHE.get(sdb)
    if bitmap is None:
        bitmap = SequenceBitmap(sdb)
        _SEQUENCE_CACHE[sdb] = bitmap
    return bitmap


def presorted_columns(table) -> PresortedColumns:
    """The memoized :class:`PresortedColumns` of a table."""
    view = _PRESORT_CACHE.get(table)
    if view is None:
        view = PresortedColumns(table)
        _PRESORT_CACHE[table] = view
    return view


def table_matrix(table) -> TableMatrix:
    """The memoized :class:`TableMatrix` of a table."""
    view = _MATRIX_CACHE.get(table)
    if view is None:
        view = TableMatrix(table)
        _MATRIX_CACHE[table] = view
    return view


def clear_caches() -> None:
    """Drop every memoized encoding (tests and memory-pressure hooks)."""
    _TRANSACTION_CACHE.clear()
    _SEQUENCE_CACHE.clear()
    _PRESORT_CACHE.clear()
    _MATRIX_CACHE.clear()


__all__ = [
    "PackedBitmap",
    "SequenceBitmap",
    "PresortedColumns",
    "TableMatrix",
    "popcount",
    "pack_indices",
    "unpack_indices",
    "window_mask",
    "transaction_bitmap",
    "sequence_bitmap",
    "presorted_columns",
    "table_matrix",
    "clear_caches",
]
