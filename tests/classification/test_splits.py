"""The batched split search against per-boundary scalar oracles.

Each oracle below is the loop a tree learner ran before the batched
search (:mod:`repro.classification.splits`) replaced it: one boundary
per iteration, scored with :func:`~repro.classification.criteria.entropy`,
:func:`~repro.classification.criteria.gini` or the SSE formula on NumPy
scalars.  The batch must choose the same boundary and produce the same
score, bit for bit, or a learner would grow a different tree.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classification.criteria import entropy, gini
from repro.classification.splits import (
    _pow2,
    boundaries,
    class_scan,
    first_max,
    impurity_rows,
    partition_scan,
    route_missing,
    running_best,
    sse_scan,
)

IMPURITY = {"entropy": entropy, "gini": gini}


# ----------------------------------------------------------------------
# Scalar oracles
# ----------------------------------------------------------------------
def oracle_weighted(values, codes, n_classes, weights):
    """C4.5's loop: weighted counts, entropy, strict ``>`` from -1.0."""
    one_hot = np.zeros((len(codes), n_classes))
    one_hot[np.arange(len(codes)), codes] = 1.0
    prefix = np.cumsum(one_hot * weights[:, None], axis=0)
    total = prefix[-1]
    parent = entropy(total)
    mass = total.sum()
    best, best_i, scored = -1.0, None, {}
    for i, b in enumerate(np.nonzero(np.diff(values) > 0)[0]):
        left = prefix[b]
        right = total - left
        lm, rm = left.sum(), right.sum()
        if lm <= 0 or rm <= 0:
            continue
        gain = parent - (lm / mass * entropy(left) + rm / mass * entropy(right))
        scored[i] = gain
        if gain > best:
            best, best_i = gain, i
    return best_i, scored


def oracle_counted(values, codes, n_classes, criterion, min_leaf, n_node):
    """CART's loop: row counts, ``min_samples_leaf``, strict ``>`` from -1.0."""
    imp = IMPURITY[criterion]
    one_hot = np.zeros((len(codes), n_classes))
    one_hot[np.arange(len(codes)), codes] = 1.0
    prefix = np.cumsum(one_hot, axis=0)
    total = prefix[-1]
    n = len(codes)
    best, best_i, scored = -1.0, None, {}
    for i, b in enumerate(np.nonzero(np.diff(values) > 0)[0]):
        nl = b + 1
        nr = n - nl
        if nl < min_leaf or nr < min_leaf:
            continue
        left = prefix[b]
        right = total - left
        child = nl / n * imp(left) + nr / n * imp(right)
        decrease = (n / n_node) * (imp(total) - child)
        scored[i] = decrease
        if decrease > best:
            best, best_i = decrease, i
    return best_i, scored


def oracle_row_at_a_time(values, codes, n_classes, min_leaf, best):
    """SLIQ's attribute-list walk: one row at a time, Gini, running
    ``> best + 1e-12`` record; returns the last record's boundary."""
    counts = np.bincount(codes, minlength=n_classes).astype(np.float64)
    below = np.zeros(n_classes)
    last, record, boundary = None, None, -1
    for v, c in zip(values, codes):
        if last is not None and v > last:
            boundary += 1
            left = below
            right = counts - left
            nl, nr = left.sum(), right.sum()
            if nl >= min_leaf and nr >= min_leaf:
                total = nl + nr
                child = nl / total * gini(left) + nr / total * gini(right)
                decrease = gini(counts) - child
                if decrease > best + 1e-12:
                    best, record = decrease, boundary
        below[c] += 1.0
        last = v
    return record, best


def oracle_sse(values, targets, min_leaf):
    """The regression tree's loop: prefix sums, SSE, strict ``>``."""
    csum = np.cumsum(targets)
    csum_sq = np.cumsum(targets**2)
    total, total_sq, n = csum[-1], csum_sq[-1], len(targets)
    node_sse = float(((targets - targets.mean()) ** 2).sum())
    best, best_i, scored = -1.0, None, {}
    for i, b in enumerate(np.nonzero(np.diff(values) > 0)[0]):
        nl = b + 1
        nr = n - nl
        if nl < min_leaf or nr < min_leaf:
            continue
        left_sse = csum_sq[b] - csum[b] ** 2 / nl
        right_sum = total - csum[b]
        right_sse = (total_sq - csum_sq[b]) - right_sum**2 / nr
        decrease = node_sse - (left_sse + right_sse)
        scored[i] = decrease
        if decrease > best:
            best, best_i = decrease, i
    return best_i, scored, node_sse


def _bits(x) -> str:
    return float(x).hex()


def assert_same_scores(got_i, got_scores, valid, want_i, scored):
    """Same winner, and every scored boundary equal bit for bit."""
    assert got_i == want_i
    assert np.flatnonzero(valid).tolist() == sorted(scored)
    assert [_bits(got_scores[i]) for i in sorted(scored)] == [
        _bits(scored[i]) for i in sorted(scored)
    ]


# ----------------------------------------------------------------------
# Inputs: sorted columns with ties, constant runs and many classes
# ----------------------------------------------------------------------
@st.composite
def columns(draw, weighted=False):
    n = draw(st.integers(1, 60))
    n_classes = draw(st.integers(2, 16))
    spread = draw(st.sampled_from([1, 3, 8, 1000]))  # 1: constant column
    values = np.sort(np.array(
        draw(st.lists(st.integers(0, spread - 1), min_size=n, max_size=n)),
        dtype=np.float64,
    ) * draw(st.sampled_from([1.0, 0.1, 1e-3])))
    codes = np.array(
        draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    weights = None
    if weighted:
        weights = np.array(draw(st.lists(
            st.one_of(
                st.just(1.0),
                st.floats(0.001, 1.0),
                st.integers(1, 9).map(lambda k: k / 7.0),
            ),
            min_size=n, max_size=n,
        )))
    return values, codes, n_classes, weights


@settings(max_examples=200, deadline=None)
@given(columns(weighted=True))
def test_weighted_entropy_matches_c45_loop(column):
    values, codes, n_classes, weights = column
    want_i, scored = oracle_weighted(values, codes, n_classes, weights)
    scan = class_scan(values, codes, n_classes, "entropy", weights=weights)
    gains = entropy(scan.total) - scan.child
    got_i = first_max(gains, scan.valid, floor=-1.0)
    assert_same_scores(got_i, gains, scan.valid, want_i, scored)


@settings(max_examples=200, deadline=None)
@given(columns(), st.sampled_from(["gini", "entropy"]), st.integers(1, 6),
       st.integers(0, 5))
def test_counted_impurity_matches_cart_loop(column, criterion, min_leaf,
                                            missing):
    values, codes, n_classes, _ = column
    n_node = len(codes) + missing
    want_i, scored = oracle_counted(values, codes, n_classes, criterion,
                                    min_leaf, n_node)
    scan = class_scan(values, codes, n_classes, criterion, min_leaf=min_leaf)
    decrease = (len(codes) / n_node) * (
        IMPURITY[criterion](scan.total) - scan.child
    )
    got_i = first_max(decrease, scan.valid, floor=-1.0)
    assert_same_scores(got_i, decrease, scan.valid, want_i, scored)


@settings(max_examples=200, deadline=None)
@given(columns(), st.integers(1, 6),
       st.sampled_from([1e-9, 0.0, 0.05, 0.2]))
def test_running_record_matches_row_at_a_time_walk(column, min_leaf, best):
    values, codes, n_classes, _ = column
    want_i, want = oracle_row_at_a_time(values, codes, n_classes, min_leaf,
                                        best)
    scan = class_scan(values, codes, n_classes, "gini", min_leaf=min_leaf)
    counts = np.bincount(codes, minlength=n_classes).astype(np.float64)
    got_i, got = running_best(gini(counts) - scan.child, scan.valid, best)
    assert got_i == want_i
    assert _bits(got) == _bits(want)


@settings(max_examples=200, deadline=None)
@given(columns(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_sse_matches_regression_loop(column, min_leaf, seed):
    values = column[0]
    rng = np.random.default_rng(seed)
    targets = np.cumsum(rng.normal(size=len(values))) * rng.choice(
        [1e-3, 1.0, 37.0]
    )
    want_i, scored, node_sse = oracle_sse(values, targets, min_leaf)
    bounds, child_sse, valid = sse_scan(values, targets, min_leaf)
    decrease = node_sse - child_sse
    got_i = first_max(decrease, valid, floor=-1.0)
    assert_same_scores(got_i, decrease, valid, want_i, scored)


def test_squares_round_like_numpy_scalars():
    """``np.float64(x) ** 2`` is C ``pow``, not ``x * x``; the SSE scan
    must square the same way (the two disagree on ~0.1% of values)."""
    x = np.cumsum(np.random.default_rng(0).normal(size=20000)) * 3.7
    want = np.array([v**2 for v in x])
    assert _pow2(x).tobytes() == want.tobytes()
    assert (x * x).tobytes() != want.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 16), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.sampled_from(["gini", "entropy"]))
def test_impurity_rows_equal_the_scalar_criteria(n_classes, n_rows, seed,
                                                 criterion):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, size=(n_rows, n_classes)) * rng.choice(
        [1.0, 0.37, 1e-3], size=(n_rows, n_classes)
    )
    got = impurity_rows(counts, counts.sum(axis=1), criterion)
    want = [IMPURITY[criterion](row) for row in counts]
    assert [_bits(g) for g in got] == [_bits(w) for w in want]


# ----------------------------------------------------------------------
# Binary category partitions
# ----------------------------------------------------------------------
def oracle_partition(codes, code_counts, criterion, min_leaf, max_exhaustive):
    """CART's subset loop before the shared search."""
    imp = IMPURITY[criterion]
    per_code = {int(c): row for c, row in zip(codes, code_counts)}
    observed = [int(c) for c in codes]
    if len(observed) <= max_exhaustive:
        candidates = []
        for size in range(1, len(observed) // 2 + 1):
            for subset in combinations(observed, size):
                if 2 * size == len(observed) and observed[0] not in subset:
                    continue
                candidates.append(subset)
    else:
        totals = np.sum(list(per_code.values()), axis=0)
        pivot = int(np.argmax(totals))
        ordered = sorted(
            observed,
            key=lambda c: per_code[c][pivot] / max(per_code[c].sum(), 1e-12),
        )
        candidates = [tuple(ordered[: i + 1]) for i in range(len(ordered) - 1)]
    total = np.sum(list(per_code.values()), axis=0)
    n = total.sum()
    best, best_subset = -1.0, None
    for subset in candidates:
        left = np.sum([per_code[c] for c in subset], axis=0)
        right = total - left
        nl, nr = left.sum(), right.sum()
        if nl < min_leaf or nr < min_leaf:
            continue
        decrease = imp(total) - (nl / n * imp(left) + nr / n * imp(right))
        if decrease > best:
            best, best_subset = decrease, frozenset(subset)
    return best_subset, best


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 12), st.integers(2, 10), st.integers(0, 2**32 - 1),
       st.sampled_from(["gini", "entropy"]), st.integers(1, 4),
       st.sampled_from([2, 4, 8]))
def test_partition_search_matches_subset_loop(n_codes, n_classes, seed,
                                              criterion, min_leaf,
                                              max_exhaustive):
    rng = np.random.default_rng(seed)
    codes = np.sort(rng.choice(20, size=n_codes, replace=False))
    code_counts = rng.integers(0, 5, size=(n_codes, n_classes)).astype(float)
    code_counts[:, 0] += 1.0  # every observed code holds a row
    want, want_score = oracle_partition(codes, code_counts, criterion,
                                        min_leaf, max_exhaustive)
    candidates, child, valid = partition_scan(codes, code_counts, criterion,
                                              min_leaf, max_exhaustive)
    decrease = IMPURITY[criterion](np.sum(code_counts, axis=0)) - child
    i = first_max(decrease, valid, floor=-1.0)
    if want is None:
        assert i is None
    else:
        assert frozenset(candidates[i]) == want
        assert _bits(decrease[i]) == _bits(want_score)


# ----------------------------------------------------------------------
# Small contracts
# ----------------------------------------------------------------------
def test_boundaries_mark_the_last_row_before_each_new_value():
    assert boundaries(np.array([1.0, 1.0, 2.0, 3.0, 3.0])).tolist() == [1, 2]
    assert boundaries(np.array([4.0, 4.0])).size == 0
    assert boundaries(np.array([4.0])).size == 0


def test_first_max_keeps_the_first_of_equal_scores():
    scores = np.array([0.1, 0.5, 0.5, 0.2])
    assert first_max(scores, np.ones(4, bool)) == 1
    assert first_max(scores, np.array([True, False, True, True])) == 2
    assert first_max(scores, np.zeros(4, bool)) is None
    assert first_max(np.array([-2.0]), np.ones(1, bool), floor=-1.0) is None


def test_running_best_returns_the_last_record():
    scores = np.array([0.1, 0.3, 0.3 + 1e-13, 0.2, 0.5])
    assert running_best(scores, np.ones(5, bool), 0.0) == (4, 0.5)
    assert running_best(scores, np.ones(5, bool), 0.6) == (None, 0.6)
    valid = np.array([True, True, True, True, False])
    assert running_best(scores, valid, 0.0) == (1, 0.3)


@pytest.mark.parametrize("n_left,n_right,side", [(3, 2, 0), (2, 2, 0),
                                                 (1, 3, 1)])
def test_missing_rows_join_the_heavier_branch(n_left, n_right, side):
    left, right = np.arange(n_left), np.arange(10, 10 + n_right)
    missing = np.array([99, 98])
    routed = route_missing(left, right, missing)
    assert routed[side][-2:].tolist() == [99, 98]
    assert len(routed[1 - side]) == (n_right if side == 0 else n_left)
    unchanged = route_missing(left, right, np.array([], dtype=np.int64))
    assert unchanged[0] is left and unchanged[1] is right
