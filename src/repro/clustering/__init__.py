"""Clustering: centroid, medoid, hierarchical, summary-tree and density
methods.

* :class:`KMeans` — Lloyd/MacQueen with k-means++ seeding.
* :class:`PAM` — exact k-medoids (BUILD + SWAP).
* :class:`CLARA` — PAM on samples, for large n.
* :class:`CLARANS` — randomized-search k-medoids.
* :class:`Agglomerative` — single/complete/average/ward linkage.
* :class:`Birch` — single-scan CF-tree compression + global phase.
* :class:`DBSCAN` — density-based clusters of arbitrary shape.
* :class:`Cobweb` — incremental conceptual clustering of nominal data.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "birch": ("CF", "Birch"),
    "clara": ("CLARA",),
    "clarans": ("CLARANS",),
    "cobweb": ("Cobweb", "CobwebNode", "category_utility"),
    "dbscan": ("DBSCAN", "NOISE"),
    "distance": ("euclidean", "nearest_center", "pairwise_distances"),
    "hierarchical": ("Agglomerative",),
    "kmeans": ("KMeans",),
    "kmedoids": ("PAM",),
})
