"""Cross-validation over tables.

Index generators (:func:`kfold_indices`, :func:`stratified_kfold_indices`)
plus :func:`cross_val_score`, which drives any
:class:`~repro.core.base.Classifier` factory through the folds and
returns the per-fold accuracies.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Tuple

import numpy as np

from ..core.base import Classifier, check_in_range
from ..core.exceptions import ValidationError
from ..core.random import RandomState, check_random_state
from ..core.table import Table
from ..runtime.context import ExecutionContext, resolve_n_jobs
from ..runtime.parallel import shared_pool
from ..runtime.transport import SegmentHandle, SharedRegion, get_object


def kfold_indices(
    n_rows: int,
    n_folds: int = 5,
    shuffle: bool = True,
    random_state: RandomState = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield (train_idx, test_idx) pairs for plain k-fold CV.

    Fold sizes differ by at most one row.

    >>> folds = list(kfold_indices(10, 5, shuffle=False))
    >>> [len(test) for _, test in folds]
    [2, 2, 2, 2, 2]
    """
    check_in_range("n_folds", n_folds, 2, None)
    if n_folds > n_rows:
        raise ValidationError(
            f"n_folds={n_folds} exceeds the {n_rows} available rows"
        )
    order = np.arange(n_rows)
    if shuffle:
        order = check_random_state(random_state).permutation(n_rows)
    sizes = np.full(n_folds, n_rows // n_folds)
    sizes[: n_rows % n_folds] += 1
    start = 0
    for size in sizes:
        test = order[start:start + size]
        train = np.concatenate([order[:start], order[start + size:]])
        yield train, test
        start += size


def stratified_kfold_indices(
    y: np.ndarray,
    n_folds: int = 5,
    random_state: RandomState = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """k-fold CV preserving the class proportions of ``y`` in every fold.

    Classes are dealt round-robin into folds after shuffling, so classes
    with fewer rows than folds still appear in as many folds as they can.
    """
    check_in_range("n_folds", n_folds, 2, None)
    y = np.asarray(y)
    if n_folds > len(y):
        raise ValidationError(
            f"n_folds={n_folds} exceeds the {len(y)} available rows"
        )
    rng = check_random_state(random_state)
    fold_of = np.empty(len(y), dtype=np.int64)
    offset = 0
    for label in np.unique(y):
        member = np.flatnonzero(y == label)
        member = member[rng.permutation(len(member))]
        # Continue dealing where the previous class left off, keeping
        # overall fold sizes balanced.
        fold_of[member] = (np.arange(len(member)) + offset) % n_folds
        offset = (offset + len(member)) % n_folds
    for fold in range(n_folds):
        test = np.flatnonzero(fold_of == fold)
        train = np.flatnonzero(fold_of != fold)
        yield train, test


def _fold_task(args, _shard_ctx):
    """Pool task: fit a fresh classifier on one fold and score it.

    The table travels as a shared-segment handle (placed once per
    cross-validation run); the factory and fold indices ride in the
    task tuple.  A factory that does not pickle (e.g. a lambda wrapping
    a configured model) makes the map run the folds inline in the
    parent, so both styles give the serial scores.
    """
    table_handle, make_classifier, target, train_idx, test_idx = args
    table = get_object(table_handle) \
        if isinstance(table_handle, SegmentHandle) else table_handle
    model = make_classifier()
    model.fit(table.take(train_idx), target)
    return model.score(table.take(test_idx))


def cross_val_score(
    make_classifier: Callable[[], Classifier],
    table: Table,
    target: str,
    n_folds: int = 5,
    stratified: bool = True,
    random_state: RandomState = None,
    n_jobs: int = None,
    ctx: ExecutionContext = None,
) -> List[float]:
    """Accuracy of a classifier under k-fold cross-validation.

    Parameters
    ----------
    make_classifier:
        Zero-argument factory producing a *fresh* classifier per fold
        (e.g. ``lambda: C45()``) so folds never share state.
    n_jobs:
        Folds are independent, so with ``n_jobs > 1`` they fit and score
        in forked workers; scores are merged in fold order and each fold
        still gets a fresh classifier, so the result list is identical
        to the serial loop.  ``-1`` uses all cores.
    ctx:
        Optional :class:`~repro.runtime.ExecutionContext`; its budget
        deadline and cancellation token govern the parallel fold run
        (each fold gets a derived sub-budget).

    Returns
    -------
    list of float
        One accuracy per fold.

    Examples
    --------
    >>> from repro.datasets import iris
    >>> from repro.classification import NaiveBayes
    >>> scores = cross_val_score(NaiveBayes, iris(), "species",
    ...                          random_state=0)
    >>> len(scores), all(s > 0.8 for s in scores)
    (5, True)
    """
    n_jobs = resolve_n_jobs(n_jobs, "cross_val_score")
    y = table.class_codes(target)
    if stratified:
        folds = stratified_kfold_indices(y, n_folds, random_state)
    else:
        folds = kfold_indices(table.n_rows, n_folds, True, random_state)

    folds = list(folds)
    if n_jobs == 1 or len(folds) == 1:
        return [
            _fold_task((table, make_classifier, target, train, test), None)
            for train, test in folds
        ]
    with SharedRegion() as region:
        table_handle = region.put_object(table)
        tasks = [
            (table_handle, make_classifier, target, train, test)
            for train, test in folds
        ]
        # probe=True: folds over small tables finish in well under
        # dispatch cost, in which case the map gates back to serial.
        return shared_pool(n_jobs).map(
            _fold_task, tasks, ctx=ctx, phase="fold", probe=True,
        )


__all__ = ["kfold_indices", "stratified_kfold_indices", "cross_val_score"]
