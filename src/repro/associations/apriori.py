"""The Apriori frequent-itemset miner (Agrawal & Srikant, VLDB 1994).

Apriori makes one pass over the transaction database per itemset size:
pass k counts the candidates produced by *apriori-gen* from the frequent
(k-1)-itemsets, using a hash tree (the paper's structure) or the
database's packed item bitmap.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.base import check_in_range, check_nonempty
from ..core.columnar import PackedBitmap, transaction_bitmap
from ..core.exceptions import ValidationError
from ..core.itemsets import FrequentItemsets, Itemset
from ..core.transactions import TransactionDatabase
from ..runtime.context import (
    LEVELWISE_POLICIES,
    ExecutionContext,
    check_degradation_policy,
    resolve_n_jobs,
)
from .candidates import apriori_gen
from .hash_tree import HashTree
from .levelwise import degrade_levelwise, run_levelwise

# runtime.parallel and runtime.transport are imported inside the
# n_jobs > 1 paths: a serial run never loads the worker pool.

#: counting backends accepted by :func:`apriori` and ``dhp``
CANDIDATE_STORES = ("hash_tree", "bitmap")


def min_count_from_support(n_transactions: int, min_support: float) -> int:
    """Absolute count threshold implied by a relative ``min_support``.

    Uses ceiling semantics: an itemset is frequent iff
    ``count >= ceil(min_support * n)``.  ``min_support`` must lie in
    ``(0, 1]`` — a non-positive threshold would declare every itemset
    frequent (a guaranteed candidate-set blow-up), so it is rejected as
    a :class:`~repro.core.exceptions.ValidationError` instead.
    """
    check_in_range("min_support", min_support, 0.0, 1.0, low_inclusive=False)
    import math

    return max(1, math.ceil(min_support * n_transactions))


def frequent_one_itemsets(
    db: TransactionDatabase, min_count: int
) -> Dict[Itemset, int]:
    """First pass: frequent 1-itemsets by a single counting scan."""
    counts = db.item_counts()
    return {
        (item,): cnt for item, cnt in sorted(counts.items()) if cnt >= min_count
    }


def checkpoint_key(algorithm: str, db, min_support: float, **extra) -> dict:
    """Identity of a mining run for checkpoint verification.

    Everything that determines the result belongs here: resuming a
    snapshot whose key differs raises
    :class:`~repro.runtime.CheckpointMismatch` instead of silently
    blending two runs.
    """
    key = {
        "algorithm": algorithm,
        "n_transactions": len(db),
        "n_items": db.n_items,
        "min_support": min_support,
    }
    key.update(extra)
    return key


def apriori(
    db: TransactionDatabase,
    min_support: float = 0.01,
    max_size: Optional[int] = None,
    backend: str = "hash_tree",
    on_exhausted: str = "raise",
    ctx: Optional[ExecutionContext] = None,
    n_jobs: Optional[int] = None,
) -> FrequentItemsets:
    """Mine all frequent itemsets with the Apriori algorithm.

    Parameters
    ----------
    db:
        The transaction database.
    min_support:
        Relative minimum support in (0, 1].
    max_size:
        Stop after itemsets of this size (``None`` = mine to exhaustion).
    backend:
        The counting backend.  ``"hash_tree"`` for the paper's hash tree,
        or ``"bitmap"`` for the vectorized kernel over the database's memoized
        :class:`~repro.core.columnar.PackedBitmap` — the database is
        encoded once as a packed item×transaction bit matrix and a
        support is the popcount of the AND of the candidate's item rows
        (fastest for dense/basket shapes; costs
        ``n_items × n_transactions / 8`` bytes).  Results are identical
        across backends.
    on_exhausted:
        What to do when the budget fires: ``"raise"`` propagates the
        :class:`~repro.runtime.BudgetExceeded`; ``"truncate"`` returns
        the passes completed so far flagged ``truncated=True``;
        ``"partition"`` / ``"sampling"`` additionally hand the
        interrupted pass to the cheaper two-scan
        :func:`~repro.associations.partition.partition_miner` or
        :func:`~repro.associations.sampling.sampling_miner` before
        returning the (still truncated) union.  Cancellation always
        propagates regardless of this setting.
    ctx:
        Optional :class:`~repro.runtime.ExecutionContext` bundling
        budget, checkpointer, cancellation and progress hooks.  Its
        budget is checked once per pass, per generated candidate, and
        periodically during counting scans.  Its checkpointer marks (and
        periodically persists) the state of every completed pass, so an
        interrupted run resumes from its last completed pass; any exit —
        normal, exhausted, cancelled — flushes a final snapshot.  The
        default null context is byte-identical to a bare call.
    n_jobs:
        Counting-scan parallelism: with ``n_jobs > 1`` each pass shards
        the transaction database across a fork-based
        :class:`~repro.runtime.WorkerPool` and sums the per-shard
        candidate count vectors (map-reduce).  Results are byte-identical
        to the serial scan for every backend; ``-1`` uses all cores.

    Returns
    -------
    FrequentItemsets
        All itemsets whose support count meets the threshold, together
        with per-pass statistics.

    Examples
    --------
    >>> db = TransactionDatabase([(0, 1, 2), (0, 1), (0, 2), (1, 2)])
    >>> result = apriori(db, min_support=0.5)
    >>> sorted(result.supports.items())[:3]
    [((0,), 3), ((0, 1), 2), ((0, 2), 2)]
    """
    if backend not in CANDIDATE_STORES:
        raise ValidationError(
            f"backend must be one of {CANDIDATE_STORES}, got {backend!r}"
        )
    if ctx is None:
        ctx = ExecutionContext()
    check_degradation_policy(on_exhausted, LEVELWISE_POLICIES, "apriori")
    n_jobs = resolve_n_jobs(n_jobs, "apriori")
    ctx.raise_if_cancelled()
    if max_size is not None and max_size < 1:
        raise ValidationError(f"max_size must be >= 1, got {max_size}")
    n = len(db)
    check_nonempty("transaction database", n, "transactions")
    min_count = min_count_from_support(n, min_support)

    bitmap = transaction_bitmap(db) if backend == "bitmap" else None
    assets = (
        CountingAssets(db, bitmap) if n_jobs > 1 and len(db) > 1 else None
    )
    try:
        run = run_levelwise(
            ctx,
            n_items=db.n_items,
            first_pass=lambda: frequent_one_itemsets(db, min_count),
            generate=lambda frequent, k: apriori_gen(frequent, ctx.budget),
            count=lambda candidates, k: count_pass(
                db, candidates, k, min_count, backend,
                ctx=ctx, n_jobs=n_jobs, bitmap=bitmap, assets=assets,
            ),
            max_k=max_size,
            on_exhausted=on_exhausted,
            # The key field keeps its historical name so snapshots
            # written before the rename still resume.
            key=lambda: checkpoint_key(
                "apriori", db, min_support,
                max_size=max_size, candidate_store=backend,
            ),
        )
    finally:
        if assets is not None:
            assets.close()
    if run.exhausted is not None:
        return degrade_levelwise(db, min_support, run, on_exhausted)
    return run.result(FrequentItemsets, run.all_frequent, n, min_support)


class CountingAssets:
    """Shared segments serving every counting pass of one miner run.

    The database (and its packed bitmap, if any) is placed into a
    :class:`~repro.runtime.transport.SharedRegion` once; each pass then
    ships workers a :class:`~repro.runtime.transport.SegmentHandle`
    instead of re-pickling the payload per task.  Pool workers forked
    after the placement resolve the handles to the parent's own objects
    copy-on-write — the database never crosses a pipe at all.  Close
    when the run finishes (the owning miner does so in its ``finally``).
    """

    def __init__(self, db, bitmap=None):
        from ..runtime.transport import SharedRegion

        self.region = SharedRegion()
        self.db_handle = self.region.put_object(db)
        self.bitmap_handle = (
            self.region.put_object(bitmap) if bitmap is not None else None
        )

    def close(self) -> None:
        self.region.close()


def _count_shard_task(args, shard_ctx):
    """Pool task: one row shard's count vector, inputs via handles."""
    from ..runtime.transport import get_object

    db_handle, cands_handle, backend, bitmap_handle, begin, stop = args
    return shard_count_vector(
        get_object(db_handle), get_object(cands_handle), backend,
        begin, stop, ctx=shard_ctx,
        bitmap=get_object(bitmap_handle) if bitmap_handle is not None
        else None,
    )


def _count_candidate_shard_task(args, shard_ctx):
    """Pool task: one candidate slice counted over the full database."""
    from ..runtime.transport import get_object

    db_handle, cands_handle, backend, bitmap_handle, begin, stop = args
    db = get_object(db_handle)
    return shard_count_vector(
        db, get_object(cands_handle)[begin:stop], backend,
        0, len(db), ctx=shard_ctx,
        bitmap=get_object(bitmap_handle) if bitmap_handle is not None
        else None,
    )


def count_pass(
    db: TransactionDatabase,
    candidates,
    k: int,
    min_count: int,
    backend: str = "hash_tree",
    ctx: Optional[ExecutionContext] = None,
    n_jobs: int = 1,
    bitmap: Optional[PackedBitmap] = None,
    assets: Optional[CountingAssets] = None,
) -> Dict[Itemset, int]:
    """One counting pass: candidate supports over the whole database.

    The shared counting seam of the levelwise miners (apriori, dhp's
    deep passes): dispatches to the selected backend, and with
    ``n_jobs > 1`` runs it map-reduce style — the transaction database
    is sharded into contiguous ranges, each pool worker produces a
    count vector aligned with ``candidates``, and the parent sums the
    vectors.  Integer sums over a disjoint cover of the rows are exactly
    the serial counts, so the returned dict (built in candidates order
    either way) is byte-identical to ``n_jobs=1``.

    ``assets`` carries the run-scoped shared segments
    (:class:`CountingAssets`); without it, a pass-scoped region is
    created and released here — correct, but placing the database once
    per pass instead of once per run.
    """
    if n_jobs > 1 and len(db) > 1:
        counts = _map_reduce_counts(
            db, candidates, k, backend, ctx, n_jobs, bitmap, assets
        )
        return {
            cand: cnt
            for cand, cnt in zip(candidates, counts)
            if cnt >= min_count
        }
    if backend == "hash_tree":
        return _count_with_hash_tree(db, candidates, min_count, ctx)
    if bitmap is None:
        bitmap = transaction_bitmap(db)
    return bitmap.frequent(candidates, min_count, ctx)


def shard_count_vector(
    db, candidates, backend, begin, stop,
    ctx=None, bitmap=None,
):
    """Support counts of ``candidates`` over rows ``[begin, stop)``.

    Returns a plain list aligned with ``candidates`` — the merge unit
    of the map-reduce path.  Runs inside forked workers, so it must
    only read ``db``/``bitmap`` (inherited copy-on-write) and tick its
    shard context, whose budget is shard-local.
    """
    if backend == "bitmap":
        store = bitmap if bitmap is not None else transaction_bitmap(db)
        return store.count(candidates, ctx, begin, stop)
    tree = HashTree(candidates)
    tree.count_transactions(db[begin:stop], ctx)
    return tree.count_vector()


def _map_reduce_counts(db, candidates, k, backend, ctx, n_jobs,
                       bitmap, assets=None):
    from ..runtime.parallel import shard_bounds, shared_pool

    pass_region = None
    if assets is None:
        pass_region = assets = CountingAssets(db, bitmap)
    region = assets.region
    candidates = list(candidates)
    cands_handle = region.put_object(candidates)
    # Shard along the larger axis.  Counting cost grows with the
    # candidate side of the (transactions x candidates) rectangle, and
    # a hash tree over a candidate slice prunes each transaction's
    # subset walk far earlier — so when candidates outnumber rows,
    # giving every worker a candidate slice and the full row range does
    # strictly less total work than re-walking the full tree per row
    # shard (the pass-2 blow-up shape).  Either axis merges to the same
    # vector: disjoint row shards sum, disjoint candidate slices
    # concatenate, and both orders are fixed by the candidate list.
    by_candidates = len(candidates) > len(db)
    span = len(candidates) if by_candidates else len(db)
    task_fn = _count_candidate_shard_task if by_candidates \
        else _count_shard_task
    try:
        tasks = [
            (assets.db_handle, cands_handle, backend,
             assets.bitmap_handle, begin, stop)
            for begin, stop in shard_bounds(span, n_jobs)
        ]
        vectors = shared_pool(n_jobs).map(
            task_fn, tasks, ctx=ctx, phase=f"count-{k}"
        )
    finally:
        # The candidate set is pass-scoped even when the assets are
        # run-scoped: release it so segments don't pile up per pass.
        if pass_region is not None:
            pass_region.close()
        else:
            region.release(cands_handle)
    if by_candidates:
        return [count for vector in vectors for count in vector]
    return [sum(column) for column in zip(*vectors)]


def _count_with_hash_tree(db, candidates, min_count, ctx=None) -> Dict[Itemset, int]:
    tree = HashTree(candidates)
    tree.count_transactions(db, ctx)
    return tree.frequent(min_count)


__all__ = [
    "CountingAssets",
    "apriori",
    "checkpoint_key",
    "count_pass",
    "shard_count_vector",
    "frequent_one_itemsets",
    "min_count_from_support",
    "CANDIDATE_STORES",
]
