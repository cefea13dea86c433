"""AprioriAll sequential pattern mining (Agrawal & Srikant, ICDE 1995).

The algorithm runs in phases:

1. **Litemset phase** — find the frequent itemsets (*litemsets*), where
   the support of an itemset is the fraction of *customers* whose
   sequence has an element containing it (counted once per customer).
2. **Transformation phase** — replace each element of each sequence by
   the set of litemset ids it contains; drop empty elements/sequences.
3. **Sequence phase** — levelwise mining over sequences *of litemsets*:
   candidates of length k join frequent (k-1)-sequences that overlap on
   k-2 litemsets, prune by subsequence anti-monotonicity, count by
   subsequence containment over the transformed database.
4. **Maximal phase** — available as a post-filter via
   :meth:`FrequentSequences.maximal`.

Patterns whose elements are single litemsets cover *all* frequent
sequential patterns, because every element of a frequent pattern is
itself a litemset.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.base import check_nonempty
from ..core.exceptions import ValidationError
from ..core.itemsets import Itemset
from ..core.sequences import SequenceDatabase, SequencePattern
from ..associations.apriori import min_count_from_support
from ..associations.candidates import apriori_gen
from ..associations.levelwise import run_levelwise
from ..runtime.context import (
    BASIC_POLICIES,
    ExecutionContext,
    check_degradation_policy,
)
from .result import FrequentSequences

LitemsetSeq = Tuple[int, ...]  # sequence of litemset ids


def apriori_all(
    db: SequenceDatabase,
    min_support: float = 0.05,
    max_length: Optional[int] = None,
    on_exhausted: str = "raise",
    ctx: Optional[ExecutionContext] = None,
) -> FrequentSequences:
    """Mine all frequent sequential patterns with AprioriAll.

    Parameters
    ----------
    db:
        The customer-sequence database.
    min_support:
        Relative minimum support (fraction of sequences) in [0, 1].
    max_length:
        Stop after patterns of this many *elements* (``None`` = mine to
        exhaustion).
    on_exhausted:
        ``"raise"`` propagates :class:`~repro.runtime.BudgetExceeded`;
        ``"truncate"`` returns the patterns completed so far (decoded
        from whatever phase was reached) flagged ``truncated=True``.
    ctx:
        Optional :class:`~repro.runtime.ExecutionContext`.  Its budget is
        checked once per pass of every phase, charged per generated
        candidate, and polled periodically in the counting and
        transformation scans; the default null context skips every
        check.  AprioriAll takes no snapshots, so a checkpointer in the
        context is ignored.

    Returns
    -------
    FrequentSequences
        All frequent patterns, decoded back to item-level form.

    Examples
    --------
    >>> db = SequenceDatabase([[(1,), (2,)], [(1,), (2,)], [(2,), (1,)]])
    >>> result = apriori_all(db, min_support=0.6)
    >>> result.supports[((1,), (2,))]
    2
    """
    if max_length is not None and max_length < 1:
        raise ValidationError(f"max_length must be >= 1, got {max_length}")
    if ctx is None:
        ctx = ExecutionContext()
    check_degradation_policy(on_exhausted, BASIC_POLICIES, "apriori_all")
    ctx.raise_if_cancelled()
    budget = ctx.budget
    n = len(db)
    check_nonempty("sequence database", n, "sequences")
    min_count = min_count_from_support(n, min_support)
    litemset_ids: Dict[Itemset, int] = {}
    transformed: Optional[List[List[Set[int]]]] = None

    def first_pass():
        # Phase 1: litemsets (customer-level frequent itemsets).
        litemsets = _mine_litemsets(db, min_count, ctx)
        litemset_ids.update(
            {its: idx for idx, its in enumerate(sorted(litemsets))}
        )
        return {(litemset_ids[its],): cnt for its, cnt in litemsets.items()}

    def generate(frequent, k):
        # Phase 2 runs once, ahead of the first sequence pass.
        nonlocal transformed
        if transformed is None:
            transformed = _transform(db, litemset_ids, ctx)
        candidates = _sequence_candidates(list(frequent))
        if budget is not None:
            budget.charge_candidates(len(candidates), phase=f"pass-{k}")
        return candidates

    def count(candidates, k):
        # Phase 3: subsequence containment over the litemset-id database.
        counts = dict.fromkeys(candidates, 0)
        candidate_ids = [(cand, frozenset(cand)) for cand in candidates]
        for i, t_seq in enumerate(transformed):
            if i % 64 == 0:
                ctx.tick(f"seq-count-{k}")
            if len(t_seq) < k:
                continue
            # Prefilter on the union of litemset ids in the sequence.
            present: Set[int] = set()
            for element in t_seq:
                present.update(element)
            for cand, ids in candidate_ids:
                if ids <= present and _contains_litemset_seq(t_seq, cand):
                    counts[cand] += 1
        return {c: cnt for c, cnt in counts.items() if cnt >= min_count}

    run = run_levelwise(
        ctx,
        n_items=db.n_items,
        first_pass=first_pass,
        generate=generate,
        count=count,
        max_k=max_length,
        on_exhausted=on_exhausted,
    )
    id_to_litemset = {idx: its for its, idx in litemset_ids.items()}
    return run.result(
        FrequentSequences, _decode(run.all_frequent, id_to_litemset), n,
        min_support,
    )


def _decode(
    all_frequent: Dict[LitemsetSeq, int], id_to_litemset: Dict[int, Itemset]
) -> Dict[SequencePattern, int]:
    """Decode litemset-id sequences back to item-level patterns."""
    return {
        tuple(id_to_litemset[idx] for idx in seq): cnt
        for seq, cnt in all_frequent.items()
    }


def _transform(
    db: SequenceDatabase,
    litemset_ids: Dict[Itemset, int],
    ctx: ExecutionContext,
) -> List[List[Set[int]]]:
    """Phase 2: each element → the set of litemset ids it contains.

    Empty elements and sequences drop out.
    """
    transformed: List[List[Set[int]]] = []
    for i, seq in enumerate(db):
        if i % 64 == 0:
            ctx.tick("aprioriall-transform")
        t_seq = []
        for element in seq:
            element_set = set(element)
            present = {
                idx
                for its, idx in litemset_ids.items()
                if element_set.issuperset(its)
            }
            if present:
                t_seq.append(present)
        if t_seq:
            transformed.append(t_seq)
    return transformed


def _mine_litemsets(
    db: SequenceDatabase, min_count: int, ctx: ExecutionContext
) -> Dict[Itemset, int]:
    """Levelwise customer-support itemset mining within elements."""
    # Pass 1: single items, counted once per customer.
    counts: Dict[Itemset, int] = {}
    for seq in db:
        seen: Set[int] = set()
        for element in seq:
            seen.update(element)
        for item in seen:
            counts[(item,)] = counts.get((item,), 0) + 1
    frequent = {its: c for its, c in counts.items() if c >= min_count}
    all_frequent = dict(frequent)
    k = 2
    while frequent:
        ctx.tick(f"litemset-pass-{k}")
        candidates = apriori_gen(sorted(frequent), ctx.budget)
        if not candidates:
            break
        candidate_set = set(candidates)
        counts = dict.fromkeys(candidates, 0)
        for i, seq in enumerate(db):
            if i % 64 == 0:
                ctx.tick(f"litemset-count-{k}")
            supported: Set[Itemset] = set()
            for element in seq:
                if len(element) < k:
                    continue
                if comb(len(element), k) <= len(candidate_set):
                    for subset in combinations(element, k):
                        if subset in candidate_set:
                            supported.add(subset)
                else:
                    element_set = set(element)
                    for cand in candidates:
                        if element_set.issuperset(cand):
                            supported.add(cand)
            for cand in supported:
                counts[cand] += 1
        frequent = {c: cnt for c, cnt in counts.items() if cnt >= min_count}
        all_frequent.update(frequent)
        k += 1
    return all_frequent


def _sequence_candidates(frequent_prev: List[LitemsetSeq]) -> List[LitemsetSeq]:
    """Join + prune for sequences of litemset ids.

    Two (k-1)-sequences join when s1 minus its first litemset equals s2
    minus its last; the candidate appends s2's last litemset to s1.
    Unlike itemsets, order matters and repeats are allowed, so s1 may
    equal s2.
    """
    prev_set = set(frequent_prev)
    by_prefix: Dict[LitemsetSeq, List[LitemsetSeq]] = {}
    for seq in frequent_prev:
        by_prefix.setdefault(seq[:-1], []).append(seq)
    candidates = []
    for s1 in frequent_prev:
        for s2 in by_prefix.get(s1[1:], ()):
            candidate = s1 + (s2[-1],)
            if _all_subseqs_frequent(candidate, prev_set):
                candidates.append(candidate)
    candidates.sort()
    return candidates


def _all_subseqs_frequent(candidate: LitemsetSeq, prev_set: Set[LitemsetSeq]) -> bool:
    for drop in range(len(candidate)):
        sub = candidate[:drop] + candidate[drop + 1:]
        if sub not in prev_set:
            return False
    return True


def _contains_litemset_seq(
    t_seq: Sequence[Set[int]], pattern: LitemsetSeq
) -> bool:
    pos = 0
    for litemset_id in pattern:
        while pos < len(t_seq):
            if litemset_id in t_seq[pos]:
                pos += 1
                break
            pos += 1
        else:
            return False
    return True


__all__ = ["apriori_all"]
