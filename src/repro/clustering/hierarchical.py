"""Agglomerative hierarchical clustering with Lance–Williams updates.

Starts from singleton clusters and repeatedly merges the closest pair;
the inter-cluster distance after each merge is maintained with the
Lance–Williams recurrence, which covers all four classic linkages:

========  =====================================================
linkage    distance between clusters
========  =====================================================
single     minimum pairwise distance (chains, handles shapes)
complete   maximum pairwise distance (compact, ball-shaped)
average    unweighted mean pairwise distance (UPGMA)
ward       merge cost in within-cluster variance
========  =====================================================

The merge history is exposed in the ``merges_`` attribute (a scipy-style
linkage record) so dendrograms/ablation benches can inspect it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.base import Clusterer, check_in_range
from ..core.exceptions import ValidationError
from ..runtime import BudgetExceeded
from ..runtime.context import ExecutionContext
from .distance import pairwise_distances

_LINKAGES = ("single", "complete", "average", "ward")


class Agglomerative(Clusterer):
    """Bottom-up hierarchical clusterer.

    Parameters
    ----------
    n_clusters:
        Number of clusters to cut the dendrogram at.
    linkage:
        One of ``single``, ``complete``, ``average``, ``ward``.
    ctx:
        Optional :class:`~repro.runtime.ExecutionContext`.  Its budget is
        charged one expansion per merge.  On exhaustion the dendrogram
        stops where it is: the merge history so far is kept, best-effort
        labels are cut at the current (coarsest reached) number of
        clusters, and ``truncated_`` is set.

    Attributes
    ----------
    labels_:
        Flat assignment after cutting at ``n_clusters``.
    merges_:
        (n-1, 4) array; row i = (cluster_a, cluster_b, distance, size)
        for the i-th merge, clusters >= n denoting merge products —
        the scipy ``linkage`` convention.
    truncated_:
        True when a budget stopped merging early.

    Examples
    --------
    >>> from repro.datasets import gaussian_blobs
    >>> X, _ = gaussian_blobs(60, centers=3, random_state=4)
    >>> model = Agglomerative(3, linkage="ward").fit(X)
    >>> len(set(model.labels_.tolist()))
    3
    """

    def __init__(
        self,
        n_clusters: int = 2,
        linkage: str = "ward",
        ctx: Optional[ExecutionContext] = None,
    ):
        check_in_range("n_clusters", n_clusters, 1, None)
        if linkage not in _LINKAGES:
            raise ValidationError(
                f"linkage must be one of {_LINKAGES}, got {linkage!r}"
            )
        self.n_clusters = int(n_clusters)
        self.linkage = linkage
        self.ctx = ctx
        self.merges_: Optional[np.ndarray] = None
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
        d = pairwise_distances(X)
        if self.linkage == "ward":
            # Ward works on squared Euclidean merge costs; seed with
            # the pairwise squared distances halved (cost of merging two
            # singletons is ||a-b||^2 / 2).
            d = d**2 / 2.0
        np.fill_diagonal(d, np.inf)

        sizes = np.ones(n)
        active = list(range(n))
        cluster_id = np.arange(n)  # current dendrogram id of each slot
        next_id = n
        merges: List[Tuple[int, int, float, int]] = []
        members: List[List[int]] = [[i] for i in range(n)]

        while len(active) > 1:
            if self.budget is not None:
                try:
                    self.budget.charge_expansions(phase="agglomerative-merge")
                    self.budget.check(phase="agglomerative-merge")
                except BudgetExceeded as exc:
                    self.truncated_ = True
                    self.truncation_reason_ = f"{type(exc).__name__}: {exc}"
                    break
            # Closest active pair.
            sub = d[np.ix_(active, active)]
            flat = int(np.argmin(sub))
            ai, bi = divmod(flat, len(active))
            if ai == bi:
                raise AssertionError("degenerate merge")
            a, b = active[ai], active[bi]
            if a > b:
                a, b = b, a
            dist = float(d[a, b])
            merged_size = int(sizes[a] + sizes[b])
            merges.append(
                (int(cluster_id[a]), int(cluster_id[b]), dist, merged_size)
            )
            # Lance-Williams update of distances from the merged cluster
            # (stored in slot a) to every other active cluster.
            for other in active:
                if other in (a, b):
                    continue
                d_ao, d_bo = d[a, other], d[b, other]
                if self.linkage == "single":
                    new = min(d_ao, d_bo)
                elif self.linkage == "complete":
                    new = max(d_ao, d_bo)
                elif self.linkage == "average":
                    new = (
                        sizes[a] * d_ao + sizes[b] * d_bo
                    ) / (sizes[a] + sizes[b])
                else:  # ward (on squared costs)
                    total = sizes[a] + sizes[b] + sizes[other]
                    new = (
                        (sizes[a] + sizes[other]) * d_ao
                        + (sizes[b] + sizes[other]) * d_bo
                        - sizes[other] * dist
                    ) / total
                d[a, other] = d[other, a] = new
            sizes[a] = merged_size
            members[a] = members[a] + members[b]
            cluster_id[a] = next_id
            next_id += 1
            active.remove(b)
            d[b, :] = np.inf
            d[:, b] = np.inf

            if len(active) == self.n_clusters:
                labels = np.empty(n, dtype=np.int64)
                for idx, slot in enumerate(sorted(active)):
                    labels[members[slot]] = idx
                self.labels_ = labels

        if self.n_clusters == n:
            self.labels_ = np.arange(n)
        if self.n_clusters == 1 and not self.truncated_:
            self.labels_ = np.zeros(n, dtype=np.int64)
        if self.truncated_ and len(active) > self.n_clusters:
            # Best-effort cut at the coarsest level reached.
            labels = np.empty(n, dtype=np.int64)
            for idx, slot in enumerate(sorted(active)):
                labels[members[slot]] = idx
            self.labels_ = labels
        merge_array = np.array(merges, dtype=np.float64)
        if self.linkage == "ward" and len(merge_array):
            # Report conventional Ward heights (sqrt of twice the cost).
            merge_array[:, 2] = np.sqrt(2.0 * merge_array[:, 2])
        self.merges_ = merge_array


__all__ = ["Agglomerative"]
