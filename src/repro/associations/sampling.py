"""Toivonen's sampling algorithm (VLDB 1996).

Mine a random sample at a *lowered* threshold, then verify the sample's
frequent itemsets — plus their *negative border* (minimal itemsets not
found frequent in the sample) — against the full database in one scan.
If no negative-border itemset turns out globally frequent, the answer
is provably complete with a single full scan; otherwise a (rare) second
mining pass over the failures closes the gap.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..core.base import check_in_range, check_nonempty
from ..core.exceptions import ValidationError
from ..core.itemsets import FrequentItemsets, Itemset
from ..core.random import RandomState, check_random_state
from ..core.transactions import TransactionDatabase
from ..runtime import IterationBudgetExceeded
from .apriori import apriori, min_count_from_support
from .candidates import apriori_gen


def sampling_miner(
    db: TransactionDatabase,
    min_support: float = 0.01,
    sample_fraction: float = 0.25,
    lowering: float = 0.8,
    max_size: Optional[int] = None,
    random_state: RandomState = None,
) -> FrequentItemsets:
    """Mine frequent itemsets with Toivonen's sampling algorithm.

    Parameters
    ----------
    db, min_support, max_size:
        As in :func:`~repro.associations.apriori.apriori`; the result is
        identical (the negative-border check makes sampling exact).
    sample_fraction:
        Fraction of transactions drawn (without replacement) for the
        in-memory mining phase.
    lowering:
        Multiplier < 1 applied to the threshold on the sample; lower
        values make a miss (a frequent itemset outside the sample's
        candidates) less likely at the price of more candidates.
    random_state:
        Seed or generator for the sample draw.

    Attributes on the result
    ------------------------
    ``misses`` — number of negative-border itemsets that turned out
    globally frequent (0 means the single-scan guarantee held).

    Examples
    --------
    >>> db = TransactionDatabase([(0, 1, 2), (0, 1), (0, 2), (1, 2)] * 10)
    >>> result = sampling_miner(db, 0.5, random_state=0)
    >>> result.supports[(0, 1)]
    20
    """
    check_in_range("min_support", min_support, 0.0, 1.0, low_inclusive=False)
    check_in_range(
        "sample_fraction", sample_fraction, 0.0, 1.0, low_inclusive=False
    )
    check_in_range("lowering", lowering, 0.0, 1.0, low_inclusive=False)
    if max_size is not None and max_size < 1:
        raise ValidationError(f"max_size must be >= 1, got {max_size}")
    n = len(db)
    check_nonempty("transaction database", n, "transactions")

    rng = check_random_state(random_state)
    sample_size = max(1, int(round(n * sample_fraction)))
    sample_idx = rng.choice(n, size=sample_size, replace=False)
    sample = TransactionDatabase(
        [db[int(i)] for i in sample_idx],
        item_labels=db.item_labels,
    )

    lowered = min_support * lowering
    local = apriori(sample, lowered, max_size=max_size)
    candidates: Set[Itemset] = set(local.supports)
    border = negative_border(candidates, db.n_items, max_size)

    # One full scan counts candidates and border together.
    min_count = min_count_from_support(n, min_support)
    counts = _count_all(db, candidates | border)
    supports: Dict[Itemset, int] = {
        c: cnt for c, cnt in counts.items()
        if c in candidates and cnt >= min_count
    }
    missed = {
        b for b in border if counts[b] >= min_count
    }
    misses = len(missed)
    if missed:
        # The guarantee failed: close the lattice above the missed
        # itemsets levelwise with extra full scans.  Candidates are
        # joined over *all* currently known frequent itemsets (not just
        # the newest ones) so no cross join is missed.
        supports.update({b: counts[b] for b in missed})
        # Each closure pass grows the largest known itemset by one item,
        # and no itemset can exceed the vocabulary size, so n_items + 1
        # passes is a proven upper bound — exceeding it means the loop
        # invariant broke, which must surface rather than spin.
        max_passes = db.n_items + 1
        for _pass in range(max_passes + 1):
            if _pass == max_passes:
                raise IterationBudgetExceeded(
                    f"negative-border closure did not converge within "
                    f"{max_passes} passes",
                    resource="expansions",
                    limit=max_passes,
                    used=max_passes,
                )
            by_size: Dict[int, list] = {}
            for itemset in supports:
                by_size.setdefault(len(itemset), []).append(itemset)
            new_candidates = set()
            for size, itemsets in sorted(by_size.items()):
                for cand in apriori_gen(sorted(itemsets)):
                    if cand not in supports and (
                        max_size is None or len(cand) <= max_size
                    ):
                        new_candidates.add(cand)
            if not new_candidates:
                break
            new_counts = _count_all(db, new_candidates)
            newly_frequent = {
                c: cnt for c, cnt in new_counts.items() if cnt >= min_count
            }
            if not newly_frequent:
                break
            supports.update(newly_frequent)

    result = FrequentItemsets(supports, n, min_support)
    result.misses = misses
    return result


def negative_border(
    frequent: Set[Itemset], n_items: int, max_size: Optional[int]
) -> Set[Itemset]:
    """Minimal itemsets *not* in ``frequent`` whose subsets all are.

    Size-1 border: every item absent from the frequent singletons.
    Size-k border: apriori-gen candidates from the frequent (k-1)-sets
    that are not themselves frequent.
    """
    border: Set[Itemset] = set()
    frequent_items = {s[0] for s in frequent if len(s) == 1}
    for item in range(n_items):
        if item not in frequent_items:
            border.add((item,))
    by_size: Dict[int, list] = {}
    for itemset in frequent:
        by_size.setdefault(len(itemset), []).append(itemset)
    for size, itemsets in sorted(by_size.items()):
        if max_size is not None and size + 1 > max_size:
            continue
        for cand in apriori_gen(sorted(itemsets)):
            if cand not in frequent:
                border.add(cand)
    return border


def _count_all(db: TransactionDatabase, itemsets: Set[Itemset]) -> Dict[Itemset, int]:
    counts: Dict[Itemset, int] = dict.fromkeys(itemsets, 0)
    by_size: Dict[int, list] = {}
    for itemset in itemsets:
        by_size.setdefault(len(itemset), []).append(itemset)
    for txn in db:
        txn_set = set(txn)
        for size, cands in by_size.items():
            if size > len(txn):
                continue
            for cand in cands:
                if txn_set.issuperset(cand):
                    counts[cand] += 1
    return counts


__all__ = ["sampling_miner", "negative_border"]
