"""BIRCH — Balanced Iterative Reducing and Clustering using Hierarchies
(Zhang, Ramakrishnan & Livny, SIGMOD 1996).

BIRCH compresses the dataset in a single scan into a height-balanced
*CF-tree* whose leaf entries are clustering features — (N, LS, SS)
triples that additively summarise subclusters — and then runs a global
clustering over the (few) leaf centroids.  The CF additivity theorem
means centroids, radii and diameters of merged subclusters come straight
from the triples, so the scan never revisits points: that single-scan
property is what benchmark E10 demonstrates against PAM/k-means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.base import Clusterer, check_in_range
from ..core.exceptions import ValidationError
from ..core.random import RandomState
from ..runtime import BudgetExceeded
from ..runtime.context import ExecutionContext
from .distance import nearest_center


@dataclass
class CF:
    """Clustering feature: (N, linear sum, square sum) of a subcluster."""

    n: float
    ls: np.ndarray
    ss: float

    @classmethod
    def of_point(cls, x: np.ndarray) -> "CF":
        return cls(1.0, x.copy(), float((x**2).sum()))

    def merged(self, other: "CF") -> "CF":
        """CF of the union (the additivity theorem)."""
        return CF(self.n + other.n, self.ls + other.ls, self.ss + other.ss)

    def add(self, other: "CF") -> None:
        self.n += other.n
        self.ls = self.ls + other.ls
        self.ss += other.ss

    @property
    def centroid(self) -> np.ndarray:
        return self.ls / self.n

    @property
    def radius(self) -> float:
        """RMS distance of the subcluster's points to its centroid."""
        sq = self.ss / self.n - (self.centroid**2).sum()
        return float(np.sqrt(max(sq, 0.0)))


class _Node:
    """CF-tree node; holds child entries (subtree CF + child node) for an
    internal node, or plain CF entries for a leaf."""

    __slots__ = ("is_leaf", "entries", "children", "next_leaf")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.entries: List[CF] = []
        self.children: List["_Node"] = []
        self.next_leaf: Optional["_Node"] = None


class Birch(Clusterer):
    """BIRCH clusterer (phases 1 and 3 of the paper).

    Parameters
    ----------
    threshold:
        Radius bound T for absorbing a point into a leaf entry.  The
        paper's dynamic threshold-rebuilding (phase 2) is not
        implemented; choose T to fit the data scale (see DESIGN.md).
    branching_factor:
        Maximum entries per node (B and L of the paper, taken equal).
    n_clusters:
        Number of clusters for the global phase over leaf centroids.
    global_clusterer:
        ``"kmeans"`` (weighted, default) or ``"agglomerative"`` over the
        leaf-entry centroids.
    ctx:
        Optional :class:`~repro.runtime.ExecutionContext`.  Its budget is
        charged one node per point inserted into the CF-tree.  On
        exhaustion the scan stops, the global phase runs over the
        partial tree (every point seen so far is summarised), and
        ``truncated_`` is set; labels are still produced for all rows.

    Attributes
    ----------
    labels_:
        Assignment of the training rows to global clusters.
    subcluster_centers_:
        Centroids of the CF-tree leaf entries (the compressed dataset).
    cluster_centers_:
        Global cluster centroids.
    truncated_:
        True when a budget stopped the insertion scan early.

    Examples
    --------
    >>> from repro.datasets import gaussian_grid
    >>> X, _ = gaussian_grid(400, grid_side=2, random_state=0)
    >>> model = Birch(threshold=1.0, n_clusters=4, random_state=0).fit(X)
    >>> len(set(model.labels_.tolist()))
    4
    """

    def __init__(
        self,
        threshold: float = 0.5,
        branching_factor: int = 50,
        n_clusters: int = 3,
        global_clusterer: str = "kmeans",
        random_state: RandomState = None,
        ctx: Optional[ExecutionContext] = None,
    ):
        check_in_range("threshold", threshold, 0.0, None, low_inclusive=False)
        check_in_range("branching_factor", branching_factor, 2, None)
        check_in_range("n_clusters", n_clusters, 1, None)
        if global_clusterer not in ("kmeans", "agglomerative"):
            raise ValidationError(
                "global_clusterer must be 'kmeans' or 'agglomerative', "
                f"got {global_clusterer!r}"
            )
        self.threshold = float(threshold)
        self.branching_factor = int(branching_factor)
        self.n_clusters = int(n_clusters)
        self.global_clusterer = global_clusterer
        self.random_state = random_state
        self.ctx = ctx
        self.subcluster_centers_: Optional[np.ndarray] = None
        self.cluster_centers_: Optional[np.ndarray] = None
        self.truncated_ = False
        self.truncation_reason_: Optional[str] = None

    def _fit(self, X: np.ndarray) -> None:
        self._root = _Node(is_leaf=True)
        self.truncated_ = False
        self.truncation_reason_ = None
        for x in X:
            self._insert(CF.of_point(np.asarray(x, dtype=np.float64)))
            if self.budget is not None:
                # Charge after inserting, so a truncated tree always
                # summarises at least the points already scanned.
                try:
                    self.budget.charge_nodes(phase="birch-insert")
                    self.budget.check(phase="birch-insert")
                except BudgetExceeded as exc:
                    self.truncated_ = True
                    self.truncation_reason_ = f"{type(exc).__name__}: {exc}"
                    break

        leaf_cfs = self._leaf_entries()
        centroids = np.stack([cf.centroid for cf in leaf_cfs])
        weights = np.array([cf.n for cf in leaf_cfs])
        self.subcluster_centers_ = centroids

        k = min(self.n_clusters, len(centroids))
        if self.global_clusterer == "kmeans":
            centers = _weighted_kmeans(
                centroids, weights, k, self.random_state
            )
        else:
            from .hierarchical import Agglomerative

            agg = Agglomerative(k, linkage="average").fit(centroids)
            centers = np.stack(
                [
                    np.average(
                        centroids[agg.labels_ == c],
                        axis=0,
                        weights=weights[agg.labels_ == c],
                    )
                    for c in range(k)
                ]
            )
        self.cluster_centers_ = centers
        self.labels_, _ = nearest_center(X, centers)

    # ------------------------------------------------------------------
    # CF-tree maintenance
    # ------------------------------------------------------------------
    def _insert(self, cf: CF) -> None:
        split = self._insert_into(self._root, cf)
        if split is not None:
            # Root split: grow the tree by one level.
            left, right = split
            new_root = _Node(is_leaf=False)
            for child in (left, right):
                new_root.children.append(child)
                new_root.entries.append(_subtree_cf(child))
            self._root = new_root

    def _insert_into(self, node: _Node, cf: CF):
        """Insert; returns (left, right) replacement nodes if split."""
        if node.is_leaf:
            if node.entries:
                idx = _closest(node.entries, cf.centroid)
                merged = node.entries[idx].merged(cf)
                if merged.radius <= self.threshold:
                    node.entries[idx] = merged
                    return None
            node.entries.append(cf)
            if len(node.entries) > self.branching_factor:
                return self._split(node)
            return None

        idx = _closest(node.entries, cf.centroid)
        split = self._insert_into(node.children[idx], cf)
        if split is None:
            node.entries[idx] = _subtree_cf(node.children[idx])
            return None
        left, right = split
        node.children[idx] = left
        node.entries[idx] = _subtree_cf(left)
        node.children.append(right)
        node.entries.append(_subtree_cf(right))
        if len(node.children) > self.branching_factor:
            return self._split(node)
        return None

    def _split(self, node: _Node):
        """Split an overflowing node around its two farthest entries."""
        centroids = np.stack([e.centroid for e in node.entries])
        d = (
            (centroids[:, None, :] - centroids[None, :, :]) ** 2
        ).sum(axis=2)
        seed_a, seed_b = np.unravel_index(int(np.argmax(d)), d.shape)
        left = _Node(node.is_leaf)
        right = _Node(node.is_leaf)
        for idx, entry in enumerate(node.entries):
            target = left if d[idx, seed_a] <= d[idx, seed_b] else right
            target.entries.append(entry)
            if not node.is_leaf:
                target.children.append(node.children[idx])
        # A degenerate split (all entries identical) still must divide.
        if not left.entries or not right.entries:
            donor, receiver = (
                (left, right) if len(left.entries) > 1 else (right, left)
            )
            receiver.entries.append(donor.entries.pop())
            if not node.is_leaf:
                receiver.children.append(donor.children.pop())
        return left, right

    def _leaf_entries(self) -> List[CF]:
        out: List[CF] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.extend(node.entries)
            else:
                stack.extend(node.children)
        return out

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, X) -> np.ndarray:
        """Assign new points to the nearest global cluster center."""
        from ..core.base import check_fitted, check_matrix

        check_fitted(self, "cluster_centers_")
        labels, _ = nearest_center(check_matrix(X), self.cluster_centers_)
        return labels


def _closest(entries: List[CF], point: np.ndarray) -> int:
    centroids = np.stack([e.centroid for e in entries])
    return int(((centroids - point) ** 2).sum(axis=1).argmin())


def _subtree_cf(node: _Node) -> CF:
    total = None
    for entry in node.entries:
        total = entry if total is None else total.merged(entry)
    return total


def _weighted_kmeans(points, weights, k, random_state, n_init: int = 5):
    """Weighted Lloyd loop with weighted k-means++ seeding and restarts,
    used for BIRCH's global phase over leaf centroids."""
    from ..core.random import check_random_state, spawn

    rng = check_random_state(random_state)
    if k >= len(points):
        return points.copy()
    best_centers = None
    best_cost = np.inf
    for child in spawn(rng, n_init):
        centers = _weighted_pp_seed(points, weights, k, child)
        for _ in range(100):
            d = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            labels = d.argmin(axis=1)
            new_centers = centers.copy()
            for c in range(k):
                member = labels == c
                if member.any():
                    new_centers[c] = np.average(
                        points[member], axis=0, weights=weights[member]
                    )
            if np.allclose(new_centers, centers):
                break
            centers = new_centers
        d = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        cost = float((d.min(axis=1) * weights).sum())
        if cost < best_cost:
            best_cost = cost
            best_centers = centers
    return best_centers


def _weighted_pp_seed(points, weights, k, rng):
    """k-means++ seeding with mass-weighted selection probabilities."""
    centers = np.empty((k, points.shape[1]))
    probs = weights / weights.sum()
    centers[0] = points[rng.choice(len(points), p=probs)]
    closest_sq = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        scores = closest_sq * weights
        total = scores.sum()
        if total <= 0:
            centers[c:] = points[rng.choice(len(points), size=k - c)]
            break
        centers[c] = points[rng.choice(len(points), p=scores / total)]
        closest_sq = np.minimum(
            closest_sq, ((points - centers[c]) ** 2).sum(axis=1)
        )
    return centers


__all__ = ["CF", "Birch"]
