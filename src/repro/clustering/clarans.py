"""CLARANS — Clustering Large Applications based on RANdomized Search
(Ng & Han, VLDB 1994).

CLARANS views k-medoid clustering as a search over a graph whose nodes
are medoid sets and whose edges connect sets differing in one medoid.
From a random node it examines up to ``max_neighbor`` random neighbours,
moving whenever one improves the cost; a node none of the sampled
neighbours improves is a *local minimum*.  ``num_local`` such descents
are run and the best local minimum wins — trading PAM's exhaustive swap
scan for randomized sampling.
"""

from __future__ import annotations

import warnings
from typing import Optional

import numpy as np

from ..core.base import Clusterer, check_in_range
from ..core.exceptions import ConvergenceWarning, ValidationError
from ..core.random import RandomState, check_random_state
from ..runtime import BudgetExceeded
from ..runtime.context import ExecutionContext
from .distance import pairwise_distances


class CLARANS(Clusterer):
    """Randomized-search k-medoids.

    Parameters
    ----------
    n_clusters:
        Number of medoids (k).
    num_local:
        Number of independent descents (paper default 2).
    max_neighbor:
        Neighbours sampled before declaring a local minimum; the paper
        recommends ``max(250, 1.25% of k(n-k))``, applied when ``None``.
    max_steps:
        Cap on *accepted* moves per descent.  Each accepted move resets
        the neighbour counter, so on adversarial data a descent could
        otherwise wander indefinitely; hitting the cap ends the descent
        with a :class:`ConvergenceWarning`.
    ctx:
        Optional :class:`~repro.runtime.ExecutionContext`.  Its budget is
        charged one expansion per neighbour evaluation; on exhaustion
        the best medoid set found so far is kept and ``truncated_`` is
        set.  Under its checkpointer every neighbour evaluation and every
        completed descent is a resumable boundary; snapshots capture the
        generator state (``rng.bit_generator.state``), so a resumed
        search draws exactly the neighbours the uninterrupted one would
        have drawn.

    Attributes
    ----------
    medoid_indices_, cluster_centers_, labels_, cost_:
        As in :class:`~repro.clustering.kmedoids.PAM`.
    truncated_:
        True when a budget ended the search early.

    Examples
    --------
    >>> from repro.datasets import gaussian_blobs
    >>> X, _ = gaussian_blobs(200, centers=4, random_state=5)
    >>> model = CLARANS(4, random_state=0).fit(X)
    >>> len(model.medoid_indices_)
    4
    """

    def __init__(
        self,
        n_clusters: int = 8,
        num_local: int = 2,
        max_neighbor: Optional[int] = None,
        random_state: RandomState = None,
        max_steps: int = 10_000,
        ctx: Optional[ExecutionContext] = None,
    ):
        check_in_range("n_clusters", n_clusters, 1, None)
        check_in_range("num_local", num_local, 1, None)
        if max_neighbor is not None:
            check_in_range("max_neighbor", max_neighbor, 1, None)
        check_in_range("max_steps", max_steps, 1, None)
        self.n_clusters = int(n_clusters)
        self.num_local = int(num_local)
        self.max_neighbor = max_neighbor
        self.random_state = random_state
        self.max_steps = int(max_steps)
        self.ctx = ctx
        self.medoid_indices_: Optional[np.ndarray] = None
        self.cluster_centers_: Optional[np.ndarray] = None
        self.cost_: Optional[float] = None
        self.truncated_ = False
        self.truncation_reason_: Optional[str] = None

    def _fit(self, X: np.ndarray) -> None:
        n = len(X)
        k = self.n_clusters
        if k > n:
            raise ValidationError(f"n_clusters={k} exceeds {n} samples")
        rng = check_random_state(self.random_state)
        d = pairwise_distances(X)
        max_neighbor = self.max_neighbor or max(
            250, int(0.0125 * k * (n - k))
        )

        self.truncated_ = False
        self.truncation_reason_ = None
        resumed = self.ctx.resume(lambda: {
            "algorithm": "clarans",
            "n_samples": int(n),
            "n_features": int(X.shape[1]),
            "n_clusters": k,
            "num_local": self.num_local,
            "max_neighbor": max_neighbor,
            "max_steps": self.max_steps,
        })
        best_cost = np.inf
        best_medoids = None
        start_descent = 0
        mid = None
        if resumed is not None:
            best_cost = resumed["best_cost"]
            best_medoids = resumed["best_medoids"]
            start_descent = resumed["descent"]
            mid = resumed["current"]
            rng.bit_generator.state = resumed["rng_state"]

        def mark(descent, current_state):
            self.ctx.mark({
                "descent": descent,
                "best_cost": best_cost,
                "best_medoids": None if best_medoids is None else list(best_medoids),
                "current": current_state,
                "rng_state": rng.bit_generator.state,
            })

        try:
            for descent in range(start_descent, self.num_local):
                if self.truncated_:
                    break  # budget exhausted: no further descents
                if mid is not None:
                    current = list(mid["medoids"])
                    current_cost = mid["cost"]
                    examined = mid["examined"]
                    accepted = mid["accepted"]
                    mid = None
                else:
                    current = list(rng.choice(n, size=k, replace=False))
                    current_cost = self._cost(d, current)
                    examined = 0
                    accepted = 0
                while examined < max_neighbor:
                    if self.budget is not None:
                        try:
                            self.budget.charge_expansions(phase="clarans-descent")
                            self.budget.check(phase="clarans-descent")
                        except BudgetExceeded as exc:
                            self.truncated_ = True
                            self.truncation_reason_ = f"{type(exc).__name__}: {exc}"
                            break
                    m_pos = int(rng.integers(k))
                    h = int(rng.integers(n))
                    if h in current:
                        examined += 1
                    else:
                        neighbour = list(current)
                        neighbour[m_pos] = h
                        neighbour_cost = self._cost(d, neighbour)
                        if neighbour_cost < current_cost - 1e-12:
                            current, current_cost = neighbour, neighbour_cost
                            examined = 0  # restart the neighbour counter
                            accepted += 1
                            if accepted >= self.max_steps:
                                warnings.warn(
                                    f"CLARANS descent did not reach a local "
                                    f"minimum within {self.max_steps} accepted "
                                    f"moves",
                                    ConvergenceWarning,
                                    stacklevel=2,
                                )
                                break
                        else:
                            examined += 1
                    if self.checkpoint is not None:
                        mark(descent, {
                            "medoids": list(current),
                            "cost": current_cost,
                            "examined": examined,
                            "accepted": accepted,
                        })
                if current_cost < best_cost:
                    best_cost = current_cost
                    best_medoids = current
                if self.checkpoint is not None:
                    mark(descent + 1, None)
        finally:
            self.ctx.flush()

        self.medoid_indices_ = np.array(sorted(best_medoids))
        self.cluster_centers_ = X[self.medoid_indices_]
        self.labels_ = d[:, self.medoid_indices_].argmin(axis=1)
        self.cost_ = best_cost

    @staticmethod
    def _cost(d: np.ndarray, medoids: list) -> float:
        return float(d[:, medoids].min(axis=1).sum())


__all__ = ["CLARANS"]
