"""PrefixSpan: sequential pattern mining by pattern growth (pseudo-projection).

PrefixSpan grows patterns depth-first.  For the current pattern it keeps,
per supporting sequence, the position where the pattern's earliest match
ends (a *pseudo-projection* — no physical suffix copies).  From those
positions it gathers the two kinds of extensions:

* **sequence extension** — append a new single-item element ``(x,)``;
  any item occurring in an element strictly after the match end works.
* **itemset extension** — add ``x`` to the pattern's last element, with
  ``x`` greater than every item already in it (canonical growth order);
  valid when ``x`` follows the match end inside the same element, or a
  later element contains (last element ∪ {x}).

Each extension with enough supporting sequences is emitted and recursed
into.  The output is exactly the frequent patterns of AprioriAll/GSP
(without time constraints); PrefixSpan is the pattern-growth baseline in
the E5 benchmark.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core.base import check_nonempty
from ..core.exceptions import ValidationError
from ..core.sequences import SequenceDatabase, SequencePattern, pattern_length
from ..associations.apriori import min_count_from_support
from ..runtime import BudgetExceeded
from ..runtime.context import (
    BASIC_POLICIES,
    ExecutionContext,
    check_degradation_policy,
)
from .result import FrequentSequences

# A pseudo-projection entry: the pattern's earliest match in sequence
# ``sid`` ends at element ``eid``, item index ``iid`` within that element.
_Entry = Tuple[int, int, int]


def prefixspan(
    db: SequenceDatabase,
    min_support: float = 0.05,
    max_length: Optional[int] = None,
    on_exhausted: str = "raise",
    ctx: Optional[ExecutionContext] = None,
) -> FrequentSequences:
    """Mine frequent sequential patterns with PrefixSpan.

    Parameters
    ----------
    db:
        The customer-sequence database.
    min_support:
        Relative minimum support in [0, 1].
    max_length:
        Stop after patterns with this many *items* in total (matching
        GSP's notion of length).
    on_exhausted:
        ``"raise"`` propagates :class:`~repro.runtime.BudgetExceeded`;
        ``"truncate"`` returns the patterns emitted so far flagged
        ``truncated=True`` (every emitted pattern is genuinely frequent,
        so truncation can only lose patterns).
    ctx:
        Optional :class:`~repro.runtime.ExecutionContext`.  Its budget is
        checked at every pattern-growth step and charged one candidate
        per attempted extension; the default null context skips every
        check.

    Returns
    -------
    FrequentSequences
        Identical patterns and supports to unconstrained GSP.

    Examples
    --------
    >>> db = SequenceDatabase([[(1,), (2,)], [(1,), (2,)], [(2,), (1,)]])
    >>> prefixspan(db, min_support=0.6).supports[((1,), (2,))]
    2
    """
    if max_length is not None and max_length < 1:
        raise ValidationError(f"max_length must be >= 1, got {max_length}")
    if ctx is None:
        ctx = ExecutionContext()
    check_degradation_policy(on_exhausted, BASIC_POLICIES, "prefixspan")
    ctx.raise_if_cancelled()
    n = len(db)
    check_nonempty("sequence database", n, "sequences")
    min_count = min_count_from_support(n, min_support)
    sequences = list(db)

    out: Dict[SequencePattern, int] = {}

    # Frequent single items with their earliest occurrence per sequence.
    first_occurrence: Dict[int, List[_Entry]] = {}
    for sid, seq in enumerate(sequences):
        seen_here: Set[int] = set()
        for eid, element in enumerate(seq):
            for iid, item in enumerate(element):
                if item not in seen_here:
                    seen_here.add(item)
                    first_occurrence.setdefault(item, []).append((sid, eid, iid))
    try:
        for item in sorted(first_occurrence):
            entries = first_occurrence[item]
            if len(entries) < min_count:
                continue
            pattern: SequencePattern = ((item,),)
            out[pattern] = len(entries)
            _grow(sequences, pattern, entries, min_count, max_length, out, ctx)
    except BudgetExceeded as exc:
        if on_exhausted == "raise":
            raise
        return FrequentSequences(
            out,
            n,
            min_support,
            truncated=True,
            truncation_reason=f"{type(exc).__name__}: {exc}",
        )

    return FrequentSequences(out, n, min_support)


def _grow(
    sequences: List[SequencePattern],
    pattern: SequencePattern,
    entries: List[_Entry],
    min_count: int,
    max_length: Optional[int],
    out: Dict[SequencePattern, int],
    ctx: ExecutionContext,
) -> None:
    ctx.tick("prefixspan-grow")
    budget = ctx.budget
    if max_length is not None and pattern_length(pattern) >= max_length:
        return
    last_element = set(pattern[-1])
    max_last_item = pattern[-1][-1]

    seq_candidates: Dict[int, int] = {}
    set_candidates: Dict[int, int] = {}
    for sid, eid, iid in entries:
        seq = sequences[sid]
        seen_seq: Set[int] = set()
        for later_eid in range(eid + 1, len(seq)):
            seen_seq.update(seq[later_eid])
        for item in seen_seq:
            seq_candidates[item] = seq_candidates.get(item, 0) + 1
        seen_set: Set[int] = set(
            item for item in seq[eid][iid + 1:] if item > max_last_item
        )
        for later_eid in range(eid + 1, len(seq)):
            element_set = set(seq[later_eid])
            if last_element.issubset(element_set):
                seen_set.update(
                    item for item in element_set
                    if item > max_last_item and item not in last_element
                )
        for item in seen_set:
            set_candidates[item] = set_candidates.get(item, 0) + 1

    # Sequence extensions: pattern + new element (x,).
    for item in sorted(seq_candidates):
        if seq_candidates[item] < min_count:
            continue
        if budget is not None:
            budget.charge_candidates(phase="prefixspan-seq-ext")
        new_pattern = pattern + ((item,),)
        new_entries = _project_sequence_ext(sequences, entries, item)
        out[new_pattern] = len(new_entries)
        _grow(sequences, new_pattern, new_entries, min_count, max_length, out, ctx)

    # Itemset extensions: x joins the last element (x > current max item).
    for item in sorted(set_candidates):
        if set_candidates[item] < min_count:
            continue
        if budget is not None:
            budget.charge_candidates(phase="prefixspan-set-ext")
        new_last = tuple(sorted(last_element | {item}))
        new_pattern = pattern[:-1] + (new_last,)
        new_entries = _project_itemset_ext(
            sequences, entries, last_element, item
        )
        out[new_pattern] = len(new_entries)
        _grow(sequences, new_pattern, new_entries, min_count, max_length, out, ctx)


def _project_sequence_ext(
    sequences: List[SequencePattern],
    entries: List[_Entry],
    item: int,
) -> List[_Entry]:
    """Earliest end of ``pattern + ((item,),)`` per supporting sequence."""
    new_entries = []
    for sid, eid, iid in entries:
        seq = sequences[sid]
        for later_eid in range(eid + 1, len(seq)):
            element = seq[later_eid]
            pos = _index_of(element, item)
            if pos >= 0:
                new_entries.append((sid, later_eid, pos))
                break
    return new_entries


def _project_itemset_ext(
    sequences: List[SequencePattern],
    entries: List[_Entry],
    last_element: Set[int],
    item: int,
) -> List[_Entry]:
    """Earliest end after adding ``item`` to the pattern's last element.

    The new match either stays in the entry's element (item occurs after
    the current end) or moves to the first later element containing the
    whole extended element.
    """
    wanted = last_element | {item}
    new_entries = []
    for sid, eid, iid in entries:
        seq = sequences[sid]
        pos = _index_of(seq[eid], item)
        if pos > iid:
            new_entries.append((sid, eid, pos))
            continue
        for later_eid in range(eid + 1, len(seq)):
            element_set = set(seq[later_eid])
            if wanted.issubset(element_set):
                new_entries.append(
                    (sid, later_eid, _index_of(seq[later_eid], item))
                )
                break
    return new_entries


def _index_of(element: Tuple[int, ...], item: int) -> int:
    """Index of ``item`` in a sorted element tuple, or -1."""
    import bisect

    pos = bisect.bisect_left(element, item)
    if pos < len(element) and element[pos] == item:
        return pos
    return -1


__all__ = ["prefixspan"]
