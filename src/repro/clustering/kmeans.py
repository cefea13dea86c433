"""k-means clustering: Lloyd's batch algorithm and MacQueen's online
variant, with Forgy/random-partition/k-means++ initialisation.

The classic centroid method of every clustering survey.  ``n_init``
restarts keep the well-known local-minimum sensitivity in check; the
``inertia_`` attribute (within-cluster sum of squared distances, SSE) is
the quality number the clustering benchmarks report.
"""

from __future__ import annotations

import warnings
from typing import Optional

import numpy as np

from ..core.base import Clusterer, check_in_range
from ..core.exceptions import ConvergenceWarning, ValidationError
from ..core.random import RandomState, check_random_state, spawn
from ..runtime import BudgetExceeded
from ..runtime.context import ExecutionContext
from ..runtime.parallel import resolve_n_jobs, shared_pool
from ..runtime.transport import SegmentHandle, SharedRegion, get_array
from .distance import nearest_center, pairwise_distances

_INITS = ("kmeans++", "forgy", "random_partition")
_ALGORITHMS = ("lloyd", "macqueen")

#: assignment backends accepted by :class:`KMeans` (Lloyd iterations)
ASSIGN_BACKENDS = ("full", "elkan")


def _kmeans_trial_task(args, _shard_ctx):
    """Pool task: one independent k-means restart.

    ``X`` arrives as a shared-segment handle (zero-copy mmap view in
    the worker); the trial rebuilds a bare single-run model from the
    pickled hyperparameters, so nothing heavier than a few scalars and
    the child RNG crosses the pipe.
    """
    X_handle, n_clusters, init, algorithm, max_iter, tol, child, backend \
        = args
    X = get_array(X_handle) if isinstance(X_handle, SegmentHandle) \
        else X_handle
    model = KMeans(n_clusters, init=init, algorithm=algorithm, n_init=1,
                   max_iter=max_iter, tol=tol, backend=backend)
    centers = model._init_centers(X, child)
    if algorithm == "lloyd":
        return model._lloyd(X, centers, child)
    return model._macqueen(X, centers)


class KMeans(Clusterer):
    """k-means clusterer.

    Parameters
    ----------
    n_clusters:
        Number of centroids (k).
    init:
        ``"kmeans++"`` (spread seeding), ``"forgy"`` (random data points)
        or ``"random_partition"`` (centroids of a random labelling).
    algorithm:
        ``"lloyd"`` batch updates (default) or ``"macqueen"`` online
        updates (one pass per iteration, centroid moves per point).
    n_init:
        Independent restarts; the run with the lowest inertia wins.
    max_iter, tol:
        Per-run iteration cap and centroid-shift convergence threshold.
    max_restarts:
        Extra reseeded runs granted when none of the first ``n_init``
        runs converges; a :class:`ConvergenceWarning` is issued only
        after the retry allowance is exhausted.
    ctx:
        Optional :class:`~repro.runtime.ExecutionContext` bundling
        budget, checkpointer, cancellation and progress hooks.  The
        budget is charged one expansion per optimisation iteration; on
        exhaustion the current run keeps its best-so-far centroids, no
        further runs launch, and ``truncated_`` is set.  Under a
        checkpointer every completed optimisation iteration and every
        completed restart is a resumable boundary; a resumed fit
        reproduces the uninterrupted centroids, labels, inertia, and
        iteration count exactly (iterations are deterministic given the
        boundary centroids, and restart seeds are re-derived from
        ``random_state``).
    n_jobs:
        With ``n_jobs > 1`` the ``n_init`` restarts run as parallel
        trials in forked workers, merged in restart order with the same
        strict-less-than inertia comparison, so the winning run is
        identical to the serial loop (the ``max_restarts`` retry
        allowance stays serial — it stops at the first convergence, an
        inherently sequential rule).  Parallel trials engage only for
        bare runs: a budget or checkpointer forces the serial loop,
        whose truncation and resume semantics are order-dependent.
        ``-1`` uses all cores.
    backend:
        Assignment kernel for the Lloyd algorithm.  ``"full"`` (default)
        recomputes every point-to-centre distance each iteration;
        ``"elkan"`` keeps per-point distance upper bounds and skips
        points the triangle inequality proves cannot switch clusters,
        recomputing only the stale remainder.  Outputs are byte-for-byte
        identical (the final labels and inertia always come from one
        full assignment).  Ignored by ``algorithm="macqueen"``, whose
        per-point sequential updates have no batch assignment to skip.

    Attributes
    ----------
    cluster_centers_:
        (k, d) centroid matrix of the best run.
    labels_:
        Assignment of each training row.
    inertia_:
        Within-cluster sum of squared distances.
    n_iter_:
        Iterations used by the winning run.
    truncated_:
        True when a budget stopped optimisation early.

    Examples
    --------
    >>> from repro.datasets import gaussian_blobs
    >>> X, _ = gaussian_blobs(120, centers=3, random_state=0)
    >>> model = KMeans(3, random_state=0).fit(X)
    >>> sorted(set(model.labels_.tolist()))
    [0, 1, 2]
    """

    def __init__(
        self,
        n_clusters: int = 8,
        init: str = "kmeans++",
        algorithm: str = "lloyd",
        n_init: int = 5,
        max_iter: int = 300,
        tol: float = 1e-6,
        random_state: RandomState = None,
        max_restarts: int = 0,
        ctx: Optional[ExecutionContext] = None,
        n_jobs: Optional[int] = None,
        backend: str = "full",
    ):
        check_in_range("n_clusters", n_clusters, 1, None)
        check_in_range("n_init", n_init, 1, None)
        check_in_range("max_iter", max_iter, 1, None)
        check_in_range("tol", tol, 0.0, None)
        check_in_range("max_restarts", max_restarts, 0, None)
        if init not in _INITS:
            raise ValidationError(f"init must be one of {_INITS}, got {init!r}")
        if algorithm not in _ALGORITHMS:
            raise ValidationError(
                f"algorithm must be one of {_ALGORITHMS}, got {algorithm!r}"
            )
        if backend not in ASSIGN_BACKENDS:
            raise ValidationError(
                f"backend must be one of {ASSIGN_BACKENDS}, got {backend!r}"
            )
        self.backend = backend
        self.n_clusters = int(n_clusters)
        self.init = init
        self.algorithm = algorithm
        self.n_init = int(n_init)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.random_state = random_state
        self.max_restarts = int(max_restarts)
        self.n_jobs = resolve_n_jobs(n_jobs, "KMeans")
        self.ctx = ctx
        self.cluster_centers_: Optional[np.ndarray] = None
        self.inertia_: Optional[float] = None
        self.n_iter_: Optional[int] = None
        self.truncated_ = False
        self.truncation_reason_: Optional[str] = None

    def _fit(self, X: np.ndarray) -> None:
        if self.n_clusters > len(X):
            raise ValidationError(
                f"n_clusters={self.n_clusters} exceeds {len(X)} samples"
            )
        rng = check_random_state(self.random_state)
        self.truncated_ = False
        self.truncation_reason_ = None
        if (
            self.n_jobs > 1
            and self.ctx.budget is None
            and self.ctx.checkpointer is None
        ):
            # Bare runs have no order-dependent budget truncation or
            # per-iteration snapshots, so the restarts are pure trials.
            self._fit_parallel(X, rng)
            return
        resumed = self.ctx.resume(lambda: self._checkpoint_key(X))
        best = None
        any_converged = False
        completed = 0  # fully finished restarts
        run_state = None  # mid-run boundary of restart `completed`, if any
        if resumed is not None:
            best = resumed["best"]
            any_converged = resumed["any_converged"]
            completed = resumed["completed"]
            run_state = resumed["run"]
        launched = completed
        try:
            # Restart seeds are re-derived from random_state, so skipping
            # the first `completed` children replays the original schedule.
            for run_idx, child in enumerate(spawn(rng, self.n_init + self.max_restarts)):
                if run_idx < completed:
                    continue
                if run_idx >= self.n_init and any_converged:
                    break  # the retry allowance only serves non-converged fits
                if self.truncated_:
                    break  # budget exhausted: no further runs
                launched += 1
                if run_idx == completed and run_state is not None:
                    centers = run_state["centers"]
                    start_iter = run_state["iteration"]
                    counts = run_state.get("counts")
                else:
                    centers = self._init_centers(X, child)
                    start_iter = 0
                    counts = None

                on_iter = None
                if self.checkpoint is not None:
                    def on_iter(iteration, centers_now, counts_now):
                        run = {"iteration": iteration, "centers": centers_now.copy()}
                        if counts_now is not None:
                            run["counts"] = counts_now.copy()
                        self.ctx.mark({
                            "completed": completed,
                            "any_converged": any_converged,
                            "best": best,
                            "run": run,
                        })

                if self.algorithm == "lloyd":
                    centers, labels, inertia, n_iter, converged = self._lloyd(
                        X, centers, child, start_iter=start_iter, on_iter=on_iter
                    )
                else:
                    centers, labels, inertia, n_iter, converged = self._macqueen(
                        X, centers, start_iter=start_iter, counts=counts,
                        on_iter=on_iter,
                    )
                any_converged = any_converged or converged
                if best is None or inertia < best[2]:
                    best = (centers, labels, inertia, n_iter)
                completed = run_idx + 1
                run_state = None
                if self.checkpoint is not None:
                    self.ctx.mark({
                        "completed": completed,
                        "any_converged": any_converged,
                        "best": best,
                        "run": None,
                    })
        finally:
            self.ctx.flush()
        self.cluster_centers_, self.labels_, self.inertia_, self.n_iter_ = best
        if not any_converged and not self.truncated_:
            warnings.warn(
                f"k-means did not converge in {self.max_iter} iterations "
                f"in any of {launched} runs",
                ConvergenceWarning,
                stacklevel=2,
            )

    def _fit_parallel(self, X: np.ndarray, rng) -> None:
        """The restart loop as parallel trials (bare runs only).

        The first ``n_init`` restarts always all run in the serial loop
        (its early exits need a budget, or apply only to the retry
        allowance), so they fan out as independent trials and merge in
        restart order.  The ``max_restarts`` extras keep the serial
        stop-at-first-convergence rule.
        """
        children = list(spawn(rng, self.n_init + self.max_restarts))

        with SharedRegion() as region:
            X_handle = region.put_array(X)
            tasks = [
                (X_handle, self.n_clusters, self.init, self.algorithm,
                 self.max_iter, self.tol, child, self.backend)
                for child in children[:self.n_init]
            ]
            # probe=True: a restart on small data converges in well
            # under dispatch cost, in which case the whole map gates
            # back to the serial loop — the pre-pool 0.29× shape.
            outcomes = shared_pool(self.n_jobs).map(
                _kmeans_trial_task, tasks, ctx=self.ctx,
                phase="kmeans-restart", probe=True,
            )
        best = None
        any_converged = False
        launched = self.n_init
        for centers, labels, inertia, n_iter, converged in outcomes:
            any_converged = any_converged or converged
            if best is None or inertia < best[2]:
                best = (centers, labels, inertia, n_iter)
        for child in children[self.n_init:]:
            if any_converged:
                break
            launched += 1
            centers = self._init_centers(X, child)
            if self.algorithm == "lloyd":
                centers, labels, inertia, n_iter, converged = self._lloyd(
                    X, centers, child
                )
            else:
                centers, labels, inertia, n_iter, converged = self._macqueen(
                    X, centers
                )
            any_converged = any_converged or converged
            if best is None or inertia < best[2]:
                best = (centers, labels, inertia, n_iter)
        self.cluster_centers_, self.labels_, self.inertia_, self.n_iter_ = best
        if not any_converged:
            warnings.warn(
                f"k-means did not converge in {self.max_iter} iterations "
                f"in any of {launched} runs",
                ConvergenceWarning,
                stacklevel=3,
            )

    def _checkpoint_key(self, X: np.ndarray) -> dict:
        return {
            "algorithm": "kmeans",
            "variant": self.algorithm,
            "n_samples": int(len(X)),
            "n_features": int(X.shape[1]),
            "n_clusters": self.n_clusters,
            "init": self.init,
            "n_init": self.n_init,
            "max_iter": self.max_iter,
            "tol": self.tol,
        }

    # ------------------------------------------------------------------
    # Initialisation
    # ------------------------------------------------------------------
    def _init_centers(self, X: np.ndarray, rng) -> np.ndarray:
        k = self.n_clusters
        if self.init == "forgy":
            return X[rng.choice(len(X), size=k, replace=False)].copy()
        if self.init == "random_partition":
            labels = rng.integers(k, size=len(X))
            # Guarantee every cluster is non-empty.
            labels[rng.choice(len(X), size=k, replace=False)] = np.arange(k)
            return np.stack([X[labels == c].mean(axis=0) for c in range(k)])
        # k-means++: iteratively sample proportional to squared distance.
        centers = np.empty((k, X.shape[1]))
        centers[0] = X[rng.integers(len(X))]
        closest_sq = ((X - centers[0]) ** 2).sum(axis=1)
        for c in range(1, k):
            total = closest_sq.sum()
            if total <= 0:
                centers[c:] = X[rng.choice(len(X), size=k - c)]
                break
            probs = closest_sq / total
            centers[c] = X[rng.choice(len(X), p=probs)]
            closest_sq = np.minimum(
                closest_sq, ((X - centers[c]) ** 2).sum(axis=1)
            )
        return centers

    # ------------------------------------------------------------------
    # Optimisation
    # ------------------------------------------------------------------
    def _charge_iteration(self, phase: str) -> bool:
        """Charge one optimisation iteration; True when budget survives."""
        if self.budget is None:
            return True
        try:
            self.budget.charge_expansions(phase=phase)
            self.budget.check(phase=phase)
        except BudgetExceeded as exc:
            self.truncated_ = True
            self.truncation_reason_ = f"{type(exc).__name__}: {exc}"
            return False
        return True

    def _lloyd(self, X, centers, rng, start_iter=0, on_iter=None):
        if self.backend == "elkan":
            return self._lloyd_elkan(
                X, centers, start_iter=start_iter, on_iter=on_iter
            )
        labels = None
        converged = False
        iteration = start_iter
        for iteration in range(start_iter + 1, self.max_iter + 1):
            if not self._charge_iteration("kmeans-lloyd"):
                break
            labels, sq = nearest_center(X, centers)
            new_centers = centers.copy()
            for c in range(self.n_clusters):
                member = labels == c
                if member.any():
                    new_centers[c] = X[member].mean(axis=0)
                else:
                    # Re-seed an empty cluster at the farthest point.
                    new_centers[c] = X[int(np.argmax(sq))]
            shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
            centers = new_centers
            if shift <= self.tol:
                converged = True
                break
            if on_iter is not None:
                on_iter(iteration, centers, None)
        labels, sq = nearest_center(X, centers)
        return centers, labels, float(sq.sum()), iteration, converged

    def _lloyd_elkan(self, X, centers, start_iter=0, on_iter=None):
        """Lloyd with a triangle-inequality assignment skip (Elkan 2003).

        A point whose distance upper bound stays within half the gap
        between its centre and the nearest other centre provably cannot
        change assignment, so only the remaining "stale" points pay for
        a distance computation.  Budget charges, the empty-cluster
        re-seed rule, and the final full assignment are identical to the
        plain backend, so outputs are byte-for-byte the same.
        """
        labels = None
        ub = None
        converged = False
        iteration = start_iter
        for iteration in range(start_iter + 1, self.max_iter + 1):
            if not self._charge_iteration("kmeans-lloyd"):
                break
            if labels is None:
                labels, sq = nearest_center(X, centers)
                ub = np.sqrt(sq)
            else:
                cc = pairwise_distances(centers, centers)
                np.fill_diagonal(cc, np.inf)
                half_min = 0.5 * cc.min(axis=1)
                stale = ub > half_min[labels]
                if stale.any():
                    sub_labels, sub_sq = nearest_center(X[stale], centers)
                    labels[stale] = sub_labels
                    ub[stale] = np.sqrt(sub_sq)
            new_centers = centers.copy()
            sq_exact = None
            for c in range(self.n_clusters):
                member = labels == c
                if member.any():
                    new_centers[c] = X[member].mean(axis=0)
                else:
                    # Re-seed an empty cluster at the farthest point,
                    # measured exactly so the choice matches the plain
                    # backend (bounds are not tight enough to rank).
                    if sq_exact is None:
                        _, sq_exact = nearest_center(X, centers)
                    new_centers[c] = X[int(np.argmax(sq_exact))]
            drift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1))
            shift = float(drift.max())
            centers = new_centers
            ub = ub + drift[labels]
            if shift <= self.tol:
                converged = True
                break
            if on_iter is not None:
                on_iter(iteration, centers, None)
        labels, sq = nearest_center(X, centers)
        return centers, labels, float(sq.sum()), iteration, converged

    def _macqueen(self, X, centers, start_iter=0, counts=None, on_iter=None):
        """MacQueen's online update: each point moves its centroid at once."""
        if counts is None:
            counts = np.ones(self.n_clusters)
        converged = False
        iteration = start_iter
        for iteration in range(start_iter + 1, self.max_iter + 1):
            if not self._charge_iteration("kmeans-macqueen"):
                break
            moved = 0.0
            for x in X:
                d = ((centers - x) ** 2).sum(axis=1)
                c = int(np.argmin(d))
                counts[c] += 1
                step = (x - centers[c]) / counts[c]
                centers[c] = centers[c] + step
                moved = max(moved, float(np.sqrt((step**2).sum())))
            if moved <= self.tol:
                converged = True
                break
            if on_iter is not None:
                on_iter(iteration, centers, counts)
        labels, sq = nearest_center(X, centers)
        return centers, labels, float(sq.sum()), iteration, converged

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, X) -> np.ndarray:
        """Assign new points to the nearest fitted centroid."""
        from ..core.base import check_fitted, check_matrix

        check_fitted(self, "cluster_centers_")
        X = check_matrix(X)
        labels, _ = nearest_center(X, self.cluster_centers_)
        return labels

    def transform(self, X) -> np.ndarray:
        """Distances from each point to every centroid."""
        from ..core.base import check_fitted, check_matrix

        check_fitted(self, "cluster_centers_")
        return pairwise_distances(check_matrix(X), self.cluster_centers_)


__all__ = ["KMeans"]
