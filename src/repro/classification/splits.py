"""One split search for every tree learner: all boundaries of a sorted column at once.

C4.5, CART, SLIQ, the regression tree and MDLP each look for the best
threshold between adjacent distinct values of a sorted numeric column.
Here the left-side statistics of every boundary are one cumulative sum,
and every boundary is scored in one batch by entropy, Gini or squared
error, with the same floating-point operations in the same order as the
per-boundary loops the learners used to run.  The winner replays the
caller's fold (:func:`first_max`, :func:`running_best`), so every tree
is the one those loops grew.  The binary category-subset search of CART
and SLIQ and their missing-value rule live here too.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np


def boundaries(values: np.ndarray) -> np.ndarray:
    """Row ``b`` of every ``values[b] < values[b + 1]`` in a sorted column.

    ``b`` is the last row on the left side of a distinct-value boundary,
    so the left side holds ``b + 1`` rows.
    """
    return np.nonzero(np.diff(values) > 0)[0]


def impurity_rows(
    counts: np.ndarray, totals: np.ndarray, criterion: str
) -> np.ndarray:
    """``criterion`` (``"entropy"`` or ``"gini"``) of every row of ``counts``.

    ``totals`` are the row sums.  Row ``i`` equals
    ``criteria.entropy(counts[i])`` (or ``gini``) bit for bit.  numpy
    sums a short row left to right and a long one pairwise, so each
    entropy row sums only its non-zero terms, as the scalar entropy
    does, in groups of rows with the same number of terms.
    """
    out = np.zeros(len(counts))
    ok = totals > 0
    p = counts[ok] / totals[ok, None]
    if criterion == "gini":
        out[ok] = 1.0 - (p * p).sum(axis=1)
        return out
    positive = p > 0
    terms = positive.sum(axis=1)
    ent = np.zeros(len(p))
    for size in np.unique(terms[terms > 0]):
        rows = terms == size
        q = p[rows][positive[rows]].reshape(-1, size)
        ent[rows] = -(q * np.log2(q)).sum(axis=1)
    # max(0.0, x), as the scalar entropy clamps it
    out[ok] = np.where(ent > 0.0, ent, 0.0)
    return out


def _children(left: np.ndarray, total: np.ndarray, criterion: str):
    """``(right, left_mass, right_mass, child)`` of left-side counts.

    ``child`` is the scalar loops' mass-weighted child impurity,
    ``lm / mass * impurity(left) + rm / mass * impurity(right)``.
    """
    right = total - left
    left_mass = left.sum(axis=1)
    right_mass = right.sum(axis=1)
    mass = total.sum()
    child = (
        left_mass / mass * impurity_rows(left, left_mass, criterion)
        + right_mass / mass * impurity_rows(right, right_mass, criterion)
    )
    return right, left_mass, right_mass, child


# ----------------------------------------------------------------------
# Scans
# ----------------------------------------------------------------------
class ClassScan(NamedTuple):
    """Every boundary of a sorted column, scored by class impurity."""

    #: last left row of each boundary (:func:`boundaries`)
    bounds: np.ndarray
    #: ``(m, n_classes)`` class counts (or weights) left of each boundary
    left: np.ndarray
    #: ``(m, n_classes)`` class counts right of each boundary
    right: np.ndarray
    #: ``(n_classes,)`` class counts of the whole column
    total: np.ndarray
    #: mass-weighted child impurity of each boundary
    child: np.ndarray
    #: both sides carry mass and hold at least ``min_leaf`` rows
    valid: np.ndarray


def class_scan(
    values: np.ndarray,
    codes: np.ndarray,
    n_classes: int,
    criterion: str,
    weights: Optional[np.ndarray] = None,
    min_leaf: int = 1,
) -> ClassScan:
    """Score every distinct-value boundary of a sorted column.

    ``values`` are sorted ascending, ``codes`` are the rows' class codes
    in the same order and ``weights`` their row weights (C4.5's
    fractional missing-value mass; ``None`` counts every row once).
    """
    bounds = boundaries(values)
    one_hot = np.zeros((len(codes), n_classes))
    one_hot[np.arange(len(codes)), codes] = 1.0
    if weights is not None:
        one_hot = one_hot * weights[:, None]
    prefix = np.cumsum(one_hot, axis=0)
    total = prefix[-1]
    left = prefix[bounds]
    right, left_mass, right_mass, child = _children(left, total, criterion)
    n_left = bounds + 1
    valid = (
        (left_mass > 0) & (right_mass > 0)
        & (n_left >= min_leaf) & (len(codes) - n_left >= min_leaf)
    )
    return ClassScan(bounds, left, right, total, child, valid)


def _pow2(x: np.ndarray) -> np.ndarray:
    """``x ** 2`` element by element as a NumPy scalar computes it.

    A scalar's power is the C library's ``pow``, which can differ from
    ``x * x`` (what an array's ``** 2`` computes) in the last bit.
    Python floats square through the same ``pow``.
    """
    return np.power(x.astype(object), 2).astype(np.float64)


def sse_children(
    left_sum: np.ndarray,
    left_sq: np.ndarray,
    n_left: np.ndarray,
    total: float,
    total_sq: float,
    n: int,
) -> np.ndarray:
    """Left plus right sum of squared errors around each side's mean.

    From the left sides' target sums, sums of squares and row counts
    and the node's totals, as the scalar regression tree computed it.
    """
    left_sse = left_sq - _pow2(left_sum) / n_left
    right_sse = (total_sq - left_sq) - _pow2(total - left_sum) / (n - n_left)
    return left_sse + right_sse


def sse_scan(
    values: np.ndarray, targets: np.ndarray, min_leaf: int = 1
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(bounds, child_sse, valid)`` of every boundary of a sorted column.

    ``child_sse`` is :func:`sse_children` of the prefix sums at each
    boundary.
    """
    bounds = boundaries(values)
    csum = np.cumsum(targets)
    csum_sq = np.cumsum(targets**2)
    n_left = bounds + 1
    n = len(targets)
    child_sse = sse_children(csum[bounds], csum_sq[bounds], n_left,
                             csum[-1], csum_sq[-1], n)
    valid = (n_left >= min_leaf) & (n - n_left >= min_leaf)
    return bounds, child_sse, valid


# ----------------------------------------------------------------------
# Folds
# ----------------------------------------------------------------------
def first_max(
    scores: np.ndarray, valid: np.ndarray, floor: float = -np.inf
) -> Optional[int]:
    """Index a strict ``if score > best`` fold from ``best = floor`` keeps.

    That is the first valid maximum, when it beats ``floor``; ``None``
    when no valid score does.
    """
    if not valid.any():
        return None
    masked = np.where(valid, scores, -np.inf)
    i = int(np.argmax(masked))
    if not masked[i] > floor:
        return None
    return i


def running_best(
    scores: np.ndarray, valid: np.ndarray, best: float, margin: float = 1e-12
) -> Tuple[Optional[int], float]:
    """Replay ``if score > best + margin: best = score`` over ``scores``.

    Returns the index of the last record set (``None`` if none was) and
    the new ``best``.  One vectorized comparison per record.
    """
    scores = np.where(valid, scores, -np.inf)
    index = None
    pos = 0
    while True:
        ahead = np.flatnonzero(scores[pos:] > best + margin)
        if ahead.size == 0:
            return index, best
        index = pos + int(ahead[0])
        best = float(scores[index])
        pos = index + 1


# ----------------------------------------------------------------------
# Binary category partitions (CART, SLIQ)
# ----------------------------------------------------------------------
def _subset_candidates(
    codes: Sequence[int], code_counts: np.ndarray, max_exhaustive: int
) -> List[tuple]:
    """Binary-partition candidates (left subsets) over sorted ``codes``.

    Every subset up to half the codes (one of each complementary pair)
    when there are at most ``max_exhaustive`` codes; beyond that,
    Breiman's ordering: sort the codes by their share of the most
    frequent class and take the prefixes (exact for two classes).
    ``code_counts[i]`` are the class counts of ``codes[i]``.
    """
    codes = [int(c) for c in codes]
    if len(codes) <= max_exhaustive:
        return [
            subset
            for size in range(1, len(codes) // 2 + 1)
            for subset in combinations(codes, size)
            if not (2 * size == len(codes) and codes[0] not in subset)
        ]
    pivot = int(np.argmax(np.sum(code_counts, axis=0)))
    share = {
        c: row[pivot] / max(row.sum(), 1e-12) for c, row in zip(codes, code_counts)
    }
    ordered = sorted(codes, key=share.__getitem__)
    return [tuple(ordered[: i + 1]) for i in range(len(ordered) - 1)]


def partition_scan(
    codes: Sequence[int],
    code_counts: np.ndarray,
    criterion: str,
    min_leaf: int,
    max_exhaustive: int,
) -> Tuple[List[tuple], np.ndarray, np.ndarray]:
    """``(candidates, child, valid)`` for every binary category partition.

    ``child`` is each candidate's mass-weighted child impurity, as for a
    numeric boundary; ``valid`` marks both sides holding at least
    ``min_leaf`` rows.  Counts are whole numbers, so summing a subset's
    rows in any order is exact.
    """
    candidates = _subset_candidates(codes, code_counts, max_exhaustive)
    position = {int(c): i for i, c in enumerate(codes)}
    member = np.zeros((len(candidates), len(position)))
    for row, subset in enumerate(candidates):
        member[row, [position[c] for c in subset]] = 1.0
    _, left_mass, right_mass, child = _children(
        member @ code_counts, np.sum(code_counts, axis=0), criterion
    )
    valid = (left_mass >= min_leaf) & (right_mass >= min_leaf)
    return candidates, child, valid


def route_missing(
    left: np.ndarray, right: np.ndarray, missing: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Send the rows with a missing split value to the heavier branch.

    Ties go left.  Prediction routes an unknown value the same way.
    """
    if missing.size:
        if left.size >= right.size:
            left = np.concatenate([left, missing])
        else:
            right = np.concatenate([right, missing])
    return left, right


__all__ = [
    "ClassScan",
    "boundaries",
    "class_scan",
    "first_max",
    "impurity_rows",
    "partition_scan",
    "route_missing",
    "running_best",
    "sse_children",
    "sse_scan",
]
