"""GSP — Generalized Sequential Patterns (Srikant & Agrawal, EDBT 1996).

GSP mines item-level sequential patterns levelwise, where the length of a
pattern is its total number of items.  Compared with AprioriAll it
generates far fewer candidates (the k=2 join is item-level) and supports
time constraints:

* ``window`` — items of one pattern element may be collected from several
  database elements whose timestamps span at most ``window``;
* ``min_gap`` — consecutive pattern elements must satisfy
  ``start_time(i) - end_time(i-1) > min_gap``;
* ``max_gap`` — consecutive pattern elements must satisfy
  ``end_time(i) - start_time(i-1) <= max_gap``.

Timestamps default to the element index within each sequence, so without
constraints GSP reduces to plain subsequence containment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.base import check_nonempty
from ..core.columnar import sequence_bitmap
from ..core.exceptions import ValidationError
from ..core.sequences import SequenceDatabase, SequencePattern
from ..associations.apriori import checkpoint_key, min_count_from_support
from ..associations.levelwise import run_levelwise
from ..runtime.context import (
    BASIC_POLICIES,
    ExecutionContext,
    check_degradation_policy,
    resolve_n_jobs,
)
from ..runtime.parallel import shard_bounds, shared_pool
from ..runtime.transport import SharedRegion, get_object
from .result import FrequentSequences

#: counting backends accepted by :func:`gsp`
COUNT_BACKENDS = ("scan", "bitmap")


def gsp(
    db: SequenceDatabase,
    min_support: float = 0.05,
    max_length: Optional[int] = None,
    min_gap: Optional[float] = None,
    max_gap: Optional[float] = None,
    window: float = 0.0,
    times: Optional[Sequence[Sequence[float]]] = None,
    on_exhausted: str = "raise",
    ctx: Optional[ExecutionContext] = None,
    n_jobs: Optional[int] = None,
    backend: str = "scan",
) -> FrequentSequences:
    """Mine frequent sequential patterns with GSP.

    Parameters
    ----------
    db:
        The customer-sequence database.
    min_support:
        Relative minimum support in [0, 1].
    max_length:
        Stop after patterns with this many *items* in total.
    min_gap, max_gap, window:
        Time constraints as defined in the module docstring; ``None``
        disables a gap constraint, ``window=0`` forbids assembling a
        pattern element from multiple database elements.
    times:
        Optional per-sequence timestamp lists, aligned with the elements
        of each sequence and strictly increasing.  Defaults to element
        indices 0, 1, 2, ...
    on_exhausted:
        ``"raise"`` propagates :class:`~repro.runtime.BudgetExceeded`;
        ``"truncate"`` returns the completed passes flagged
        ``truncated=True``.
    ctx:
        Optional :class:`~repro.runtime.ExecutionContext` bundling
        budget, checkpointer, cancellation and progress hooks.  Its
        budget is checked once per pass, charged per generated
        candidate, and checked periodically in the counting scan.  Under
        its checkpointer every completed level is a resumable boundary,
        exactly as in the levelwise itemset miners.
    n_jobs:
        With ``n_jobs > 1`` each pass's counting scan shards the
        sequence database across forked workers and sums the per-shard
        candidate counts; results are byte-identical to the serial
        scan.  ``-1`` uses all cores.
    backend:
        ``"scan"`` (the default) prefilters each (sequence, candidate)
        pair with a per-sequence item frozenset; ``"bitmap"`` builds
        the database's memoized per-item occurrence bitmaps
        (:mod:`repro.core.columnar`) and ANDs the candidate's item rows
        to select only the sequences that can possibly contain it
        before running the ordered subsequence check — the same
        prefilter predicate evaluated as one vectorized reduction per
        candidate instead of per (sequence, candidate) pair.  Supports
        are byte-identical.

    Returns
    -------
    FrequentSequences

    Examples
    --------
    >>> db = SequenceDatabase([[(1,), (2,)], [(1,), (2,)], [(2,), (1,)]])
    >>> gsp(db, min_support=0.6).supports[((1,), (2,))]
    2
    """
    if backend not in COUNT_BACKENDS:
        raise ValidationError(
            f"backend must be one of {COUNT_BACKENDS}, got {backend!r}"
        )
    if ctx is None:
        ctx = ExecutionContext()
    check_degradation_policy(on_exhausted, BASIC_POLICIES, "gsp")
    n_jobs = resolve_n_jobs(n_jobs, "gsp")
    ctx.raise_if_cancelled()
    budget = ctx.budget
    if max_length is not None and max_length < 1:
        raise ValidationError(f"max_length must be >= 1, got {max_length}")
    if window < 0:
        raise ValidationError(f"window must be >= 0, got {window}")
    if min_gap is not None and min_gap < 0:
        raise ValidationError(f"min_gap must be >= 0, got {min_gap}")
    if max_gap is not None and max_gap <= 0:
        raise ValidationError(f"max_gap must be > 0, got {max_gap}")
    n = len(db)
    check_nonempty("sequence database", n, "sequences")
    if times is None:
        times = [list(range(len(seq))) for seq in db]
    else:
        times = [list(t) for t in times]
        for idx, (seq, t) in enumerate(zip(db, times)):
            if len(t) != len(seq):
                raise ValidationError(
                    f"times[{idx}] has {len(t)} stamps for {len(seq)} elements"
                )
            if any(b <= a for a, b in zip(t, t[1:])):
                raise ValidationError(
                    f"times[{idx}] must be strictly increasing"
                )
    min_count = min_count_from_support(n, min_support)
    checker = _ContainsChecker(min_gap, max_gap, window)
    if backend == "bitmap":
        # Build the memoized occurrence bitmaps in the parent before any
        # worker forks so they are inherited copy-on-write.
        sequence_bitmap(db)
    # Run-scoped shared segment: the sequence database and its
    # timestamps are placed once; every pass's counting shards resolve
    # the same handle instead of re-pickling the database per task.
    region = SharedRegion() if n_jobs > 1 and n > 1 else None
    db_handle = (
        region.put_object((db, times)) if region is not None else None
    )

    def first_pass():
        item_counts: Dict[int, int] = {}
        for seq in db:
            seen: Set[int] = set()
            for element in seq:
                seen.update(element)
            for item in seen:
                item_counts[item] = item_counts.get(item, 0) + 1
        return {
            ((item,),): cnt
            for item, cnt in sorted(item_counts.items())
            if cnt >= min_count
        }

    def generate(frequent, k):
        if k == 2:
            candidates = _candidates_len2(frequent)
        else:
            candidates = _candidates_join(frequent, max_gap is not None)
        if budget is not None:
            budget.charge_candidates(len(candidates), phase=f"pass-{k}")
        return candidates

    def count(candidates, k):
        candidate_items = [
            (cand, frozenset(i for e in cand for i in e))
            for cand in candidates
        ]
        if region is not None:
            cands_handle = region.put_object(candidate_items)
            try:
                tasks = [
                    (db_handle, cands_handle, k, checker, begin, stop,
                     backend)
                    for begin, stop in shard_bounds(n, n_jobs)
                ]
                vectors = shared_pool(n_jobs).map(
                    _count_shard_task, tasks, ctx=ctx, phase=f"count-{k}",
                )
            finally:
                region.release(cands_handle)
            totals = [sum(column) for column in zip(*vectors)]
        else:
            totals = _count_range(
                db, times, candidate_items, k, checker, 0, n, ctx, backend,
            )
        return {
            cand: cnt
            for cand, cnt in zip(candidates, totals)
            if cnt >= min_count
        }

    try:
        run = run_levelwise(
            ctx,
            n_items=db.n_items,
            first_pass=first_pass,
            generate=generate,
            count=count,
            max_k=max_length,
            on_exhausted=on_exhausted,
            key=lambda: checkpoint_key(
                "gsp", db, min_support,
                max_length=max_length, min_gap=min_gap, max_gap=max_gap,
                window=window,
            ),
        )
    finally:
        if region is not None:
            region.close()
    return run.result(FrequentSequences, run.all_frequent, n, min_support)


def _count_shard_task(args, shard_ctx):
    """Pool task: one shard's candidate counts, inputs via handles."""
    db_handle, cands_handle, k, checker, begin, stop, backend = args
    db, times = get_object(db_handle)
    return _count_range(
        db, times, get_object(cands_handle), k, checker, begin, stop,
        shard_ctx, backend,
    )


def _count_range(
    db: SequenceDatabase,
    times: List[List[float]],
    candidate_items: List[Tuple[SequencePattern, frozenset]],
    k: int,
    checker: "_ContainsChecker",
    begin: int,
    stop: int,
    ctx: ExecutionContext,
    backend: str = "scan",
) -> List[int]:
    """Candidate counts over sequences ``[begin, stop)``.

    Returns a vector aligned with ``candidate_items`` — the merge unit
    of the map-reduce counting path; per-shard vectors sum to the
    full-scan counts.
    """
    if backend == "bitmap":
        return _count_range_bitmap(
            db, times, candidate_items, k, checker, begin, stop, ctx
        )
    counts = [0] * len(candidate_items)
    for i in range(begin, stop):
        if i % 64 == 0:
            ctx.tick(f"count-{k}")
        seq, t = db[i], times[i]
        if sum(len(e) for e in seq) < k:
            continue
        # Cheap prefilter: a pattern's items must all occur somewhere in
        # the sequence before the (expensive) ordered check runs.
        seq_items = frozenset(item for e in seq for item in e)
        for j, (cand, items) in enumerate(candidate_items):
            if items <= seq_items and checker.contains(seq, t, cand):
                counts[j] += 1
    return counts


def _count_range_bitmap(
    db: SequenceDatabase,
    times: List[List[float]],
    candidate_items: List[Tuple[SequencePattern, frozenset]],
    k: int,
    checker: "_ContainsChecker",
    begin: int,
    stop: int,
    ctx: ExecutionContext,
) -> List[int]:
    """Bitmap-prefiltered counts: same predicate, candidate-major order.

    ANDing the occurrence rows of a candidate's items yields exactly the
    sequences whose item sets are supersets of the candidate's — the
    scalar path's frozenset prefilter as one vectorized reduction — so
    the ordered :meth:`_ContainsChecker.contains` check runs on the same
    (sequence, candidate) pairs and the counts are byte-identical.
    """
    bitmap = sequence_bitmap(db)
    total_items = [
        sum(len(e) for e in db[i]) for i in range(begin, stop)
    ]
    counts = [0] * len(candidate_items)
    for j, (cand, items) in enumerate(candidate_items):
        if j % 16 == 0:
            ctx.tick(f"count-{k}")
        for i in bitmap.candidate_sequences(items, begin, stop):
            i = int(i)
            if total_items[i - begin] < k:
                continue
            if checker.contains(db[i], times[i], cand):
                counts[j] += 1
    return counts


# ----------------------------------------------------------------------
# Candidate generation
# ----------------------------------------------------------------------
def _candidates_len2(frequent_1: Dict[SequencePattern, int]) -> List[SequencePattern]:
    """All 2-item candidates from frequent items: <(x)(y)> and <(x y)>."""
    items = sorted(p[0][0] for p in frequent_1)
    candidates: List[SequencePattern] = []
    for x in items:
        for y in items:
            candidates.append(((x,), (y,)))  # two elements, any order/repeat
    for i, x in enumerate(items):
        for y in items[i + 1:]:
            candidates.append(((x, y),))  # one element, x < y
    return candidates


def _drop_first_item(pattern: SequencePattern) -> SequencePattern:
    """Pattern minus the first item of its first element."""
    head = pattern[0][1:]
    if head:
        return (head,) + pattern[1:]
    return pattern[1:]


def _drop_last_item(pattern: SequencePattern) -> SequencePattern:
    """Pattern minus the last item of its last element."""
    tail = pattern[-1][:-1]
    if tail:
        return pattern[:-1] + (tail,)
    return pattern[:-1]


def _candidates_join(
    frequent_prev: Dict[SequencePattern, int], contiguous_prune: bool
) -> List[SequencePattern]:
    """GSP join + prune for k >= 3.

    s1 joins s2 when dropping s1's first item equals dropping s2's last
    item.  The candidate extends s1 with s2's last item — as a new
    element if it formed a singleton element in s2, otherwise merged into
    s1's last element.

    With a ``max_gap`` in force, anti-monotonicity only holds for
    *contiguous* subsequences, so the prune step weakens accordingly.
    """
    prev = list(frequent_prev)
    prev_set = set(prev)
    by_dropped_last: Dict[SequencePattern, List[SequencePattern]] = {}
    for s2 in prev:
        by_dropped_last.setdefault(_drop_last_item(s2), []).append(s2)
    candidates: Set[SequencePattern] = set()
    for s1 in prev:
        key = _drop_first_item(s1)
        for s2 in by_dropped_last.get(key, ()):
            last_item = s2[-1][-1]
            if len(s2[-1]) == 1:
                candidate = s1 + ((last_item,),)
            else:
                merged = tuple(sorted(s1[-1] + (last_item,)))
                if len(set(merged)) != len(merged):
                    continue  # would duplicate an item within the element
                candidate = s1[:-1] + (merged,)
            if _prune_ok(candidate, prev_set, contiguous_prune):
                candidates.add(candidate)
    return sorted(candidates)


def _prune_ok(
    candidate: SequencePattern,
    prev_set: Set[SequencePattern],
    contiguous_only: bool,
) -> bool:
    """Check that the relevant (k-1)-subsequences are frequent.

    Without max-gap, every one-item-deleted subsequence must be frequent.
    With max-gap, only *contiguous* subsequences (item deleted from the
    first element, the last element, or an element of size > 1) must be.
    """
    n_elements = len(candidate)
    for e_idx, element in enumerate(candidate):
        interior_singleton = (
            len(element) == 1 and 0 < e_idx < n_elements - 1
        )
        if contiguous_only and interior_singleton:
            continue  # deleting it would not be a contiguous subsequence
        for i_idx in range(len(element)):
            reduced_element = element[:i_idx] + element[i_idx + 1:]
            if reduced_element:
                sub = (
                    candidate[:e_idx]
                    + (reduced_element,)
                    + candidate[e_idx + 1:]
                )
            else:
                sub = candidate[:e_idx] + candidate[e_idx + 1:]
            if sub not in prev_set:
                return False
    return True


# ----------------------------------------------------------------------
# Containment with time constraints
# ----------------------------------------------------------------------
class _ContainsChecker:
    """Pattern containment under window / min-gap / max-gap constraints.

    Implemented as a depth-first search over feasible element matches.
    A match of a pattern element is a pair of element indices (a, b) with
    ``t[b] - t[a] <= window`` whose union of items covers the pattern
    element; its start time is t[a] and end time t[b].
    """

    def __init__(
        self,
        min_gap: Optional[float],
        max_gap: Optional[float],
        window: float,
    ):
        self.min_gap = min_gap
        self.max_gap = max_gap
        self.window = window

    def contains(
        self,
        seq: SequencePattern,
        t: Sequence[float],
        pattern: SequencePattern,
    ) -> bool:
        if not pattern:
            return True
        if self.min_gap is None and self.max_gap is None and self.window == 0.0:
            return self._plain_contains(seq, pattern)
        matches_per_element = [
            self._element_matches(seq, t, element) for element in pattern
        ]
        if any(not m for m in matches_per_element):
            return False
        return self._search(matches_per_element, t, 0, None, None)

    @staticmethod
    def _plain_contains(seq: SequencePattern, pattern: SequencePattern) -> bool:
        pos = 0
        for wanted in pattern:
            wanted_set = set(wanted)
            while pos < len(seq):
                if wanted_set.issubset(seq[pos]):
                    pos += 1
                    break
                pos += 1
            else:
                return False
        return True

    def _element_matches(
        self,
        seq: SequencePattern,
        t: Sequence[float],
        element: Tuple[int, ...],
    ) -> List[Tuple[int, int]]:
        """All (a, b) windows whose item union covers ``element``."""
        wanted = set(element)
        matches = []
        for a in range(len(seq)):
            collected: Set[int] = set()
            for b in range(a, len(seq)):
                if t[b] - t[a] > self.window:
                    break
                collected.update(seq[b])
                if wanted.issubset(collected):
                    # Minimal right end for this left end: extending b
                    # further only widens the window without need.
                    matches.append((a, b))
                    break
        return matches

    def _search(
        self,
        matches_per_element: List[List[Tuple[int, int]]],
        t: Sequence[float],
        depth: int,
        prev_start: Optional[float],
        prev_end: Optional[float],
    ) -> bool:
        if depth == len(matches_per_element):
            return True
        for a, b in matches_per_element[depth]:
            start, end = t[a], t[b]
            if prev_end is not None:
                if start <= prev_end and self.min_gap is None:
                    # Without explicit gaps, elements must still occur in
                    # order: strictly later start than the previous end.
                    continue
                if self.min_gap is not None and start - prev_end <= self.min_gap:
                    continue
                if self.max_gap is not None and end - prev_start > self.max_gap:
                    continue
            if self._search(matches_per_element, t, depth + 1, start, end):
                return True
        return False


__all__ = ["gsp"]
