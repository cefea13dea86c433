"""CLARA — Clustering LARge Applications (Kaufman & Rousseeuw, 1990).

CLARA makes PAM affordable on large data: run PAM on several random
samples, extend each sample's medoids to the full dataset, and keep the
medoid set with the lowest total cost.  The paper's sample size of
``40 + 2k`` is the default.
"""

from __future__ import annotations

import warnings
from typing import Optional

import numpy as np

from ..core.base import Clusterer, check_in_range
from ..core.exceptions import ConvergenceWarning, ValidationError
from ..core.random import RandomState, check_random_state, spawn
from ..runtime.context import resolve_n_jobs
from ..runtime.parallel import shared_pool
from ..runtime.transport import SegmentHandle, SharedRegion, get_array
from .distance import pairwise_distances
from .kmedoids import PAM


def _clara_sample_task(args, _shard_ctx):
    """Pool task: one CLARA sample — PAM on the sample, cost on full X.

    ``X`` arrives as a shared-segment handle (zero-copy mmap view in
    the worker); the child RNG travels in the task, so the sample drawn
    is identical to the serial loop's.  Warnings raised by the inner
    PAM run are captured and returned for the parent to re-emit — a
    worker's ``warnings`` state dies with the task otherwise.
    """
    X_handle, n_clusters, max_swaps, size, child = args
    X = get_array(X_handle) if isinstance(X_handle, SegmentHandle) \
        else X_handle
    n = len(X)
    sample_idx = child.choice(n, size=min(size, n), replace=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pam = PAM(n_clusters, max_swaps=max_swaps).fit(X[sample_idx])
    medoids = sample_idx[pam.medoid_indices_]
    d = pairwise_distances(X, X[medoids])
    cost = float(d.min(axis=1).sum())
    sample_unconverged = 0
    foreign = []
    for w in caught:
        if issubclass(w.category, ConvergenceWarning):
            sample_unconverged += 1
        else:
            foreign.append((w.message, w.category, w.filename, w.lineno))
    return cost, medoids, sample_unconverged, foreign


class CLARA(Clusterer):
    """Sampling-based k-medoids.

    Parameters
    ----------
    n_clusters:
        Number of medoids (k).
    n_samples:
        How many random samples to try (the paper uses 5).
    sample_size:
        Rows per sample; ``None`` = the paper's ``40 + 2k``.
    max_swaps:
        Swap cap handed to each inner :class:`PAM` run.  When any inner
        run exhausts it without reaching a local optimum, CLARA re-emits
        a single summary :class:`ConvergenceWarning` (instead of one
        warning per sample, attributed to PAM internals).
    n_jobs:
        Samples are independent trials, so with ``n_jobs > 1`` they run
        in forked workers; outcomes merge in sample order with the same
        strict-less-than cost comparison, so the chosen medoid set is
        identical to the serial loop.  ``-1`` uses all cores.

    Attributes
    ----------
    medoid_indices_, cluster_centers_, labels_, cost_:
        As in :class:`~repro.clustering.kmedoids.PAM`, with cost measured
        over the *full* dataset.

    Examples
    --------
    >>> from repro.datasets import gaussian_blobs
    >>> X, _ = gaussian_blobs(300, centers=4, random_state=3)
    >>> model = CLARA(4, random_state=0).fit(X)
    >>> len(set(model.labels_.tolist()))
    4
    """

    def __init__(
        self,
        n_clusters: int = 8,
        n_samples: int = 5,
        sample_size: Optional[int] = None,
        random_state: RandomState = None,
        max_swaps: int = 200,
        n_jobs: Optional[int] = None,
    ):
        check_in_range("n_clusters", n_clusters, 1, None)
        check_in_range("n_samples", n_samples, 1, None)
        if sample_size is not None:
            check_in_range("sample_size", sample_size, n_clusters, None)
        check_in_range("max_swaps", max_swaps, 0, None)
        self.n_clusters = int(n_clusters)
        self.n_samples = int(n_samples)
        self.sample_size = sample_size
        self.random_state = random_state
        self.max_swaps = int(max_swaps)
        self.n_jobs = resolve_n_jobs(n_jobs, "CLARA")
        self.medoid_indices_: Optional[np.ndarray] = None
        self.cluster_centers_: Optional[np.ndarray] = None
        self.cost_: Optional[float] = None

    def _fit(self, X: np.ndarray) -> None:
        n = len(X)
        if self.n_clusters > n:
            raise ValidationError(
                f"n_clusters={self.n_clusters} exceeds {n} samples"
            )
        size = self.sample_size or min(n, 40 + 2 * self.n_clusters)
        size = max(size, self.n_clusters)
        rng = check_random_state(self.random_state)

        best_cost = np.inf
        best_medoids = None
        unconverged = 0

        children = list(spawn(rng, self.n_samples))
        if self.n_jobs > 1 and self.n_samples > 1:
            with SharedRegion() as region:
                X_handle = region.put_array(X)
                tasks = [
                    (X_handle, self.n_clusters, self.max_swaps, size, child)
                    for child in children
                ]
                # probe=True: a sample on small data can run in well
                # under dispatch cost, in which case the whole map gates
                # back to the serial loop.
                outcomes = shared_pool(self.n_jobs).map(
                    _clara_sample_task, tasks, ctx=self.ctx,
                    phase="clara-sample", probe=True,
                )
        else:
            outcomes = [
                _clara_sample_task(
                    (X, self.n_clusters, self.max_swaps, size, child), None
                )
                for child in children
            ]
        for cost, medoids, sample_unconverged, foreign in outcomes:
            for message, category, filename, lineno in foreign:
                warnings.warn_explicit(message, category, filename, lineno)
            unconverged += sample_unconverged
            if cost < best_cost:
                best_cost = cost
                best_medoids = medoids
        if unconverged:
            warnings.warn(
                f"{unconverged} of {self.n_samples} inner PAM runs did not "
                f"reach a local optimum within {self.max_swaps} swaps",
                ConvergenceWarning,
                stacklevel=2,
            )
        self.medoid_indices_ = np.array(sorted(best_medoids))
        self.cluster_centers_ = X[self.medoid_indices_]
        d = pairwise_distances(X, self.cluster_centers_)
        self.labels_ = d.argmin(axis=1)
        self.cost_ = float(d.min(axis=1).sum())


__all__ = ["CLARA"]
