"""Brute-force sequential-pattern oracle for tests.

Enumerates, per sequence, every sub-pattern (a subsequence of elements
with a non-empty subset chosen from each) up to a length cap, de-duplicates
within the sequence, and counts across sequences.  Doubly exponential, so
guarded to tiny inputs — its role is to certify the real miners on small
randomised cases.
"""

from __future__ import annotations

from itertools import combinations
from typing import Counter as CounterType, Set

from collections import Counter

from ..core.base import check_nonempty
from ..core.exceptions import ValidationError
from ..core.sequences import SequenceDatabase, SequencePattern
from ..associations.apriori import min_count_from_support
from .result import FrequentSequences


def brute_force_sequences(
    db: SequenceDatabase,
    min_support: float = 0.05,
    max_length: int = 5,
) -> FrequentSequences:
    """Mine frequent sequential patterns by exhaustive enumeration.

    Parameters
    ----------
    db:
        A *small* sequence database (≤ 12 elements per sequence, ≤ 6
        items per element — enforced).
    min_support:
        Relative minimum support in [0, 1].
    max_length:
        Upper bound on total pattern items (mandatory; the enumeration is
        exponential in it).
    """
    if max_length < 1:
        raise ValidationError(f"max_length must be >= 1, got {max_length}")
    for seq in db:
        if len(seq) > 12 or any(len(e) > 6 for e in seq):
            raise ValidationError(
                "brute_force_sequences is an oracle for tiny inputs only "
                "(<= 12 elements, <= 6 items each)"
            )
    n = len(db)
    check_nonempty("sequence database", n, "sequences")
    min_count = min_count_from_support(n, min_support)

    counts: CounterType[SequencePattern] = Counter()
    for seq in db:
        counts.update(_subpatterns(seq, max_length))
    supports = {p: c for p, c in counts.items() if c >= min_count}
    return FrequentSequences(supports, n, min_support)


def _subpatterns(seq: SequencePattern, max_length: int) -> Set[SequencePattern]:
    """All distinct sub-patterns of one sequence, capped at max_length items."""
    found: Set[SequencePattern] = set()

    def extend(start: int, prefix: SequencePattern, used: int) -> None:
        if prefix:
            found.add(prefix)
        if used >= max_length:
            return
        for eid in range(start, len(seq)):
            element = seq[eid]
            budget = max_length - used
            for size in range(1, min(len(element), budget) + 1):
                for subset in combinations(element, size):
                    extend(eid + 1, prefix + (subset,), used + size)

    extend(0, (), 0)
    return found


__all__ = ["brute_force_sequences"]
