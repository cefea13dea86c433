"""Gaussian mixture generators for the clustering experiments.

The BIRCH and CLARANS evaluations cluster well-separated Gaussian blobs
(in BIRCH's case, arranged on a grid); these generators reproduce those
workloads with controllable separation and optional uniform noise.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..core.base import check_in_range
from ..core.exceptions import ValidationError
from ..core.random import RandomState, check_random_state


def gaussian_blobs(
    n_samples: int,
    centers: Union[int, np.ndarray] = 5,
    n_features: int = 2,
    cluster_std: float = 1.0,
    center_box: Tuple[float, float] = (-10.0, 10.0),
    random_state: RandomState = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Isotropic Gaussian clusters.

    Parameters
    ----------
    n_samples:
        Total points, distributed as evenly as possible over the centers.
    centers:
        Either a count (centers drawn uniformly in ``center_box``) or an
        explicit (k, n_features) array.
    cluster_std:
        Standard deviation of every blob.

    Returns
    -------
    (X, labels):
        The points and their true cluster index.

    Examples
    --------
    >>> X, y = gaussian_blobs(90, centers=3, random_state=0)
    >>> X.shape, sorted(set(y.tolist()))
    ((90, 2), [0, 1, 2])
    """
    check_in_range("n_samples", n_samples, 1, None)
    check_in_range("cluster_std", cluster_std, 0.0, None, low_inclusive=False)
    rng = check_random_state(random_state)
    if isinstance(centers, (int, np.integer)):
        check_in_range("centers", int(centers), 1, None)
        center_array = rng.uniform(
            center_box[0], center_box[1], size=(int(centers), n_features)
        )
    else:
        center_array = np.asarray(centers, dtype=np.float64)
        if center_array.ndim != 2:
            raise ValidationError("explicit centers must be a 2-D array")
        n_features = center_array.shape[1]
    k = len(center_array)
    sizes = np.full(k, n_samples // k)
    sizes[: n_samples % k] += 1
    points = []
    labels = []
    for idx, (center, size) in enumerate(zip(center_array, sizes)):
        points.append(rng.normal(center, cluster_std, size=(size, n_features)))
        labels.append(np.full(size, idx))
    X = np.concatenate(points)
    y = np.concatenate(labels)
    order = rng.permutation(len(X))
    return X[order], y[order]


def gaussian_grid(
    n_samples: int,
    grid_side: int = 4,
    spacing: float = 4.0,
    cluster_std: float = 0.5,
    noise_fraction: float = 0.0,
    random_state: RandomState = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """BIRCH-style grid of 2-D Gaussian clusters with optional noise.

    Parameters
    ----------
    grid_side:
        Clusters form a ``grid_side x grid_side`` lattice.
    spacing:
        Distance between adjacent cluster centers.
    noise_fraction:
        Fraction of points replaced by uniform background noise (label
        ``-1``), matching BIRCH's noisy variants.

    Returns
    -------
    (X, labels):
        Labels are the lattice cluster index, or -1 for noise points.

    Examples
    --------
    >>> X, y = gaussian_grid(160, grid_side=2, random_state=1)
    >>> X.shape, len(set(y.tolist()))
    ((160, 2), 4)
    """
    check_in_range("grid_side", grid_side, 1, None)
    check_in_range("noise_fraction", noise_fraction, 0.0, 1.0)
    rng = check_random_state(random_state)
    centers = np.array(
        [
            (i * spacing, j * spacing)
            for i in range(grid_side)
            for j in range(grid_side)
        ],
        dtype=np.float64,
    )
    n_noise = int(round(n_samples * noise_fraction))
    X, y = gaussian_blobs(
        n_samples - n_noise,
        centers=centers,
        cluster_std=cluster_std,
        random_state=rng,
    )
    if n_noise:
        low = centers.min(axis=0) - spacing
        high = centers.max(axis=0) + spacing
        noise = rng.uniform(low, high, size=(n_noise, 2))
        X = np.concatenate([X, noise])
        y = np.concatenate([y, np.full(n_noise, -1)])
        order = rng.permutation(len(X))
        X, y = X[order], y[order]
    return X, y


__all__ = ["gaussian_blobs", "gaussian_grid"]
