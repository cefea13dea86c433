"""PAM — Partitioning Around Medoids (Kaufman & Rousseeuw, 1990).

k-medoids restricted to actual data points: a BUILD phase greedily seeds
the medoids, then a SWAP phase repeatedly exchanges a medoid with the
non-medoid that most reduces the total distance cost.  Quality is
comparable to k-means but robust to outliers; the price is the O(k(n-k)²)
swap scan that motivated CLARA and CLARANS — exactly the trade-off the
E9/E10 benchmarks exhibit.
"""

from __future__ import annotations

import warnings
from typing import Optional

import numpy as np

from ..core.base import Clusterer, check_in_range
from ..core.exceptions import ConvergenceWarning, ValidationError
from ..core.random import RandomState
from ..runtime import BudgetExceeded
from ..runtime.context import ExecutionContext
from .distance import pairwise_distances


class PAM(Clusterer):
    """Partitioning Around Medoids.

    Parameters
    ----------
    n_clusters:
        Number of medoids (k).
    max_swaps:
        Upper bound on accepted swaps (each is a full O(k(n-k)²) scan).
        Exhausting it without reaching a local optimum raises a
        :class:`ConvergenceWarning` (``max_swaps=0`` requests the BUILD
        phase only and never warns).
    ctx:
        Optional :class:`~repro.runtime.ExecutionContext`.  Its budget is
        charged one expansion per swap scan; on exhaustion the best
        medoids found so far are kept and ``truncated_`` is set.  Under
        its checkpointer the BUILD result and every accepted swap are
        resumable boundaries; the swap phase is a deterministic steepest
        descent, so a resumed fit reproduces the uninterrupted medoids
        and cost exactly.

    Attributes
    ----------
    medoid_indices_:
        Row indices of the chosen medoids.
    cluster_centers_:
        The medoid points themselves.
    labels_:
        Assignment of each row to its nearest medoid.
    cost_:
        Total distance of points to their medoid (the PAM objective).

    Examples
    --------
    >>> from repro.datasets import gaussian_blobs
    >>> X, _ = gaussian_blobs(60, centers=3, random_state=2)
    >>> model = PAM(3).fit(X)
    >>> len(model.medoid_indices_)
    3
    """

    def __init__(
        self,
        n_clusters: int = 8,
        max_swaps: int = 200,
        ctx: Optional[ExecutionContext] = None,
    ):
        check_in_range("n_clusters", n_clusters, 1, None)
        check_in_range("max_swaps", max_swaps, 0, None)
        self.n_clusters = int(n_clusters)
        self.max_swaps = int(max_swaps)
        self.ctx = ctx
        self.medoid_indices_: Optional[np.ndarray] = None
        self.cluster_centers_: Optional[np.ndarray] = None
        self.cost_: Optional[float] = None
        self.truncated_ = False
        self.truncation_reason_: Optional[str] = None

    def _fit(self, X: np.ndarray) -> None:
        n = len(X)
        if self.n_clusters > n:
            raise ValidationError(
                f"n_clusters={self.n_clusters} exceeds {n} samples"
            )
        self.truncated_ = False
        self.truncation_reason_ = None
        resumed = self.ctx.resume(lambda: {
            "algorithm": "pam",
            "n_samples": int(n),
            "n_features": int(X.shape[1]),
            "n_clusters": self.n_clusters,
            "max_swaps": self.max_swaps,
        })
        d = pairwise_distances(X)
        try:
            if resumed is not None:
                medoids = list(resumed["medoids"])
                start = resumed["swaps_done"]
            else:
                medoids = self._build(d)
                start = 0
                self.ctx.mark(
                    lambda: {"medoids": list(medoids), "swaps_done": 0}
                )
            medoids, cost = self._swap(d, medoids, start=start)
        finally:
            self.ctx.flush()
        self.medoid_indices_ = np.array(sorted(medoids))
        self.cluster_centers_ = X[self.medoid_indices_]
        self.labels_ = d[:, self.medoid_indices_].argmin(axis=1)
        self.cost_ = cost

    # ------------------------------------------------------------------
    # BUILD: greedy seeding
    # ------------------------------------------------------------------
    def _build(self, d: np.ndarray) -> list:
        n = len(d)
        # First medoid: the point minimising total distance (the 1-medoid).
        first = int(d.sum(axis=1).argmin())
        medoids = [first]
        nearest = d[:, first].copy()
        while len(medoids) < self.n_clusters:
            # Gain of adding candidate c: sum over points of the distance
            # reduction max(nearest - d(., c), 0).
            reduction = np.maximum(nearest[None, :] - d, 0.0).sum(axis=1)
            reduction[medoids] = -np.inf
            chosen = int(reduction.argmax())
            medoids.append(chosen)
            nearest = np.minimum(nearest, d[:, chosen])
        return medoids

    # ------------------------------------------------------------------
    # SWAP: steepest-descent medoid exchange
    # ------------------------------------------------------------------
    def _swap(self, d: np.ndarray, medoids: list, start: int = 0):
        n = len(d)
        medoids = list(medoids)
        for swaps_done in range(start, self.max_swaps):
            if self.budget is not None:
                try:
                    self.budget.charge_expansions(phase="pam-swap")
                    self.budget.check(phase="pam-swap")
                except BudgetExceeded as exc:
                    self.truncated_ = True
                    self.truncation_reason_ = f"{type(exc).__name__}: {exc}"
                    break
            med = np.array(medoids)
            dist_to_meds = d[:, med]
            order = np.argsort(dist_to_meds, axis=1)
            nearest = dist_to_meds[np.arange(n), order[:, 0]]
            if len(medoids) > 1:
                second = dist_to_meds[np.arange(n), order[:, 1]]
            else:
                second = np.full(n, np.inf)
            nearest_med = med[order[:, 0]]
            current_cost = float(nearest.sum())

            best_delta = -1e-12
            best_swap = None
            non_medoids = [i for i in range(n) if i not in set(medoids)]
            for m_pos, m in enumerate(medoids):
                is_mine = nearest_med == m
                for h in non_medoids:
                    d_h = d[:, h]
                    # Points owned by m: go to min(second-nearest, h).
                    delta = np.where(
                        is_mine,
                        np.minimum(second, d_h) - nearest,
                        np.minimum(d_h - nearest, 0.0),
                    ).sum()
                    if delta < best_delta:
                        best_delta = float(delta)
                        best_swap = (m_pos, h)
            if best_swap is None:
                return medoids, current_cost
            medoids[best_swap[0]] = best_swap[1]
            self.ctx.mark(
                lambda: {"medoids": list(medoids), "swaps_done": swaps_done + 1}
            )
        else:
            if self.max_swaps > 0:
                warnings.warn(
                    f"PAM swap phase did not reach a local optimum within "
                    f"{self.max_swaps} swaps",
                    ConvergenceWarning,
                    stacklevel=3,
                )
        med = np.array(medoids)
        cost = float(d[:, med].min(axis=1).sum())
        return medoids, cost


__all__ = ["PAM"]
