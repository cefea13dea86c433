"""DBSCAN — density-based clustering (Ester, Kriegel, Sander & Xu, KDD
1996).

A point with at least ``min_samples`` neighbours within ``eps`` is a
*core* point; clusters are the transitive closure of core points over
the eps-neighbourhood relation, plus the border points they reach.
Everything else is noise (label ``-1``).  DBSCAN therefore discovers
clusters of arbitrary shape and a data-determined cluster count — the
property benchmark E11 contrasts with k-means on rings and moons.

Region queries use a uniform grid of cell side ``eps`` (the role the
paper's R*-tree plays): a point's neighbours can only live in the 3^d
adjacent cells, making queries near-constant-time on bounded-density
data of low dimension.
"""

from __future__ import annotations

import warnings
from collections import deque
from itertools import product
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.base import Clusterer, check_in_range
from ..core.exceptions import ConvergenceWarning
from ..runtime import BudgetExceeded
from ..runtime.context import ExecutionContext

NOISE = -1


class _GridIndex:
    """Uniform-grid spatial index answering eps-neighbourhood queries."""

    def __init__(self, X: np.ndarray, eps: float):
        self._X = X
        self._eps = eps
        self._cells: Dict[Tuple[int, ...], List[int]] = {}
        self._keys = np.floor(X / eps).astype(np.int64)
        for idx, key in enumerate(map(tuple, self._keys)):
            self._cells.setdefault(key, []).append(idx)
        self._offsets = list(product((-1, 0, 1), repeat=X.shape[1]))

    def neighbours(self, idx: int) -> np.ndarray:
        """Indices of points within eps of point ``idx`` (inclusive)."""
        key = tuple(self._keys[idx])
        candidates: List[int] = []
        for offset in self._offsets:
            cell = tuple(k + o for k, o in zip(key, offset))
            candidates.extend(self._cells.get(cell, ()))
        candidates = np.asarray(candidates)
        diffs = self._X[candidates] - self._X[idx]
        within = (diffs**2).sum(axis=1) <= self._eps**2
        return candidates[within]


class DBSCAN(Clusterer):
    """Density-based clusterer.

    Parameters
    ----------
    eps:
        Neighbourhood radius.
    min_samples:
        Minimum neighbourhood size (including the point itself) for a
        core point — the paper's MinPts.
    max_grid_dimensions:
        The grid index is used up to this dimensionality; beyond it the
        3^d cell fan-out loses to a plain O(n²) scan, which is used
        instead.
    ctx:
        Optional :class:`~repro.runtime.ExecutionContext`.  Its budget is
        charged one expansion per region query.  On exhaustion the scan
        stops: clusters found so far are kept, every unreached point
        stays noise (``-1``), and ``truncated_`` is set.

    Attributes
    ----------
    labels_:
        Cluster id per row; ``-1`` marks noise.
    core_sample_indices_:
        Indices of the core points.
    n_clusters_:
        Number of discovered clusters.
    truncated_:
        True when a budget stopped the density scan early.

    Examples
    --------
    >>> from repro.datasets import two_rings
    >>> X, _ = two_rings(300, random_state=0)
    >>> model = DBSCAN(eps=1.2, min_samples=5).fit(X)
    >>> model.n_clusters_
    2
    """

    def __init__(
        self,
        eps: float = 0.5,
        min_samples: int = 5,
        max_grid_dimensions: int = 6,
        ctx: Optional[ExecutionContext] = None,
    ):
        check_in_range("eps", eps, 0.0, None, low_inclusive=False)
        check_in_range("min_samples", min_samples, 1, None)
        self.eps = float(eps)
        self.min_samples = int(min_samples)
        self.max_grid_dimensions = int(max_grid_dimensions)
        self.ctx = ctx
        self.core_sample_indices_: Optional[np.ndarray] = None
        self.n_clusters_: Optional[int] = None
        self.truncated_ = False
        self.truncation_reason_: Optional[str] = None

    def _fit(self, X: np.ndarray) -> None:
        n = len(X)
        if X.shape[1] <= self.max_grid_dimensions:
            index = _GridIndex(X, self.eps)
            region_query = index.neighbours
        else:
            region_query = self._brute_neighbours_fn(X)

        def neighbours(idx: int) -> np.ndarray:
            self.ctx.tick("dbscan-region-query", expansions=1)
            return region_query(idx)

        self.truncated_ = False
        self.truncation_reason_ = None
        labels = np.full(n, NOISE, dtype=np.int64)
        visited = np.zeros(n, dtype=bool)
        core: List[int] = []
        cluster = 0
        try:
            for start in range(n):
                if visited[start]:
                    continue
                visited[start] = True
                seed_neighbours = neighbours(start)
                if len(seed_neighbours) < self.min_samples:
                    continue  # noise for now; may become a border point later
                core.append(start)
                labels[start] = cluster
                queue = deque(int(i) for i in seed_neighbours if i != start)
                while queue:
                    point = queue.popleft()
                    if labels[point] == NOISE:
                        labels[point] = cluster  # border or newly reached
                    if visited[point]:
                        continue
                    visited[point] = True
                    point_neighbours = neighbours(point)
                    if len(point_neighbours) >= self.min_samples:
                        core.append(point)
                        for other in point_neighbours:
                            other = int(other)
                            if not visited[other] or labels[other] == NOISE:
                                queue.append(other)
                cluster += 1
        except BudgetExceeded as exc:
            # Every cluster discovered so far is genuine; unreached
            # points simply stay noise.
            self.truncated_ = True
            self.truncation_reason_ = f"{type(exc).__name__}: {exc}"
            warnings.warn(
                f"DBSCAN stopped before visiting every point: {exc}",
                ConvergenceWarning,
                stacklevel=2,
            )

        self.labels_ = labels
        self.core_sample_indices_ = np.asarray(sorted(core), dtype=np.int64)
        # labels.max() counts the partially-expanded cluster a budget
        # interruption may leave behind; -1-only data yields 0.
        self.n_clusters_ = int(labels.max()) + 1

    def _brute_neighbours_fn(self, X: np.ndarray):
        eps_sq = self.eps**2

        def neighbours(idx: int) -> np.ndarray:
            d = ((X - X[idx]) ** 2).sum(axis=1)
            return np.flatnonzero(d <= eps_sq)

        return neighbours


__all__ = ["DBSCAN", "NOISE"]
