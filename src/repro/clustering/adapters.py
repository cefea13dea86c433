"""Adapters for the clusterers in :data:`repro.registry.ALGORITHMS`.

Clustering constructors take per-algorithm hyper-parameters, so each
registry row names a ``make(ctx, **params)`` here that maps the
``cluster`` parameters of :mod:`repro.tasks` (k / eps / min_samples /
seed) onto its estimator.  Extra params are accepted and ignored so
:func:`repro.tasks.run` can pass the full set uniformly.  Each adapter
imports only its own estimator, so ``repro cluster`` loads one
clustering module.
"""

from __future__ import annotations


def make_kmeans(ctx, k=3, seed=0, n_jobs=None, backend="full", **_):
    from .kmeans import KMeans

    return KMeans(k, random_state=seed, ctx=ctx, n_jobs=n_jobs,
                  backend=backend)


def make_pam(ctx, k=3, **_):
    from .kmedoids import PAM

    return PAM(k, ctx=ctx)


def make_clarans(ctx, k=3, seed=0, **_):
    from .clarans import CLARANS

    return CLARANS(k, random_state=seed, ctx=ctx)


def make_birch(ctx, k=3, eps=0.5, seed=0, **_):
    from .birch import Birch

    return Birch(threshold=eps, n_clusters=k, random_state=seed, ctx=ctx)


def make_dbscan(ctx, eps=0.5, min_samples=5, **_):
    from .dbscan import DBSCAN

    return DBSCAN(eps=eps, min_samples=min_samples, ctx=ctx)


def make_agglomerative(ctx, k=3, **_):
    from .hierarchical import Agglomerative

    return Agglomerative(k, ctx=ctx)
