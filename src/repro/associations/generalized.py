"""Generalized association rules over item taxonomies
(Srikant & Agrawal, VLDB 1995).

With a taxonomy ("jacket is-a outerwear is-a clothes"), rules may relate
items from *any* level — "outerwear -> hiking boots" can be strong even
when every specific jacket/pants rule is weak.  Mining works over
*extended transactions* (each transaction plus all ancestors of its
items).  Two algorithms:

* :func:`basic_generalized` — literally extend every transaction and run
  Apriori; the correctness reference.
* :func:`cumulate` — the paper's optimized algorithm: pre-computed
  ancestor closure, pruning of candidates that contain both an item and
  one of its ancestors (their support equals the candidate without the
  ancestor, so they are redundant), and per-transaction filtering of
  ancestors down to those that can still matter.

Plus the paper's *R-interesting* rule filter: keep a rule only when its
support or confidence deviates from the value expected from its closest
more-general rule by at least a factor R.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..core.base import check_in_range, check_nonempty
from ..core.exceptions import ValidationError
from ..core.itemsets import FrequentItemsets, Itemset
from ..core.taxonomy import Taxonomy
from ..core.transactions import TransactionDatabase
from .apriori import apriori, min_count_from_support
from .candidates import apriori_gen
from .rules import AssociationRule, generate_rules


def basic_generalized(
    db: TransactionDatabase,
    taxonomy: Taxonomy,
    min_support: float = 0.01,
    max_size: Optional[int] = None,
) -> FrequentItemsets:
    """Reference algorithm: Apriori over fully extended transactions.

    Examples
    --------
    >>> db = TransactionDatabase([(0,), (1,)])
    >>> tax = Taxonomy({0: [2], 1: [2]})
    >>> basic_generalized(db, tax, 0.9).supports[(2,)]
    2
    """
    extended = TransactionDatabase(
        [taxonomy.extend_transaction(txn) for txn in db],
        item_labels=_extended_labels(db, taxonomy),
    )
    return apriori(extended, min_support, max_size=max_size)


def cumulate(
    db: TransactionDatabase,
    taxonomy: Taxonomy,
    min_support: float = 0.01,
    max_size: Optional[int] = None,
) -> FrequentItemsets:
    """The Cumulate algorithm; identical output to
    :func:`basic_generalized`.

    Optimizations implemented (the paper's 1-3):

    1. ancestors are pre-computed once (closure table);
    2. candidates containing both an item and one of its ancestors are
       pruned from pass 2 on — their support duplicates the candidate
       without the ancestor, so they never contribute a *new* rule;
    3. each transaction is extended only with ancestors that actually
       occur in the current pass's candidate set.

    Note the paper also prunes itemsets whose support equals an
    ancestor-itemset's; as in the paper, redundancy pruning changes the
    *rule* set presented, not correctness of the counts.  To keep output
    comparable with :func:`basic_generalized`, pruned item+ancestor
    itemsets are re-added with their (equal) support after mining.

    Examples
    --------
    >>> db = TransactionDatabase([(0, 1), (0,), (1,)])
    >>> tax = Taxonomy({0: [2], 1: [2]})
    >>> cumulate(db, tax, 0.3).supports == basic_generalized(db, tax, 0.3).supports
    True
    """
    if max_size is not None and max_size < 1:
        raise ValidationError(f"max_size must be >= 1, got {max_size}")
    n = len(db)
    check_nonempty("transaction database", n, "transactions")
    min_count = min_count_from_support(n, min_support)

    # Optimization 1: the ancestor closure, computed once.
    closure: Dict[int, frozenset] = {
        item: taxonomy.ancestors(item) for item in range(db.n_items)
    }

    # Pass 1 over extended transactions (single scan; every ancestor
    # matters in pass 1).
    item_counts: Dict[int, int] = {}
    for txn in db:
        seen: Set[int] = set(txn)
        for item in txn:
            seen |= closure.get(item, frozenset())
        for item in seen:
            item_counts[item] = item_counts.get(item, 0) + 1
    frequent: Dict[Itemset, int] = {
        (item,): cnt
        for item, cnt in sorted(item_counts.items())
        if cnt >= min_count
    }
    all_frequent: Dict[Itemset, int] = dict(frequent)

    k = 2
    while frequent and (max_size is None or k <= max_size):
        candidates = apriori_gen(frequent)
        # Optimization 2: drop candidates containing an item and its
        # ancestor (redundant: same support as without the ancestor).
        pruned: List[Itemset] = []
        for cand in candidates:
            cand_set = set(cand)
            if any(closure.get(i, frozenset()) & cand_set for i in cand):
                continue
            pruned.append(cand)
        if not pruned:
            break
        # Optimization 3: only extend transactions with ancestors that
        # occur in some surviving candidate.
        candidate_items: Set[int] = set()
        for cand in pruned:
            candidate_items.update(cand)
        counts: Dict[Itemset, int] = dict.fromkeys(pruned, 0)
        by_first: Dict[int, List[Itemset]] = {}
        for cand in pruned:
            by_first.setdefault(cand[0], []).append(cand)
        for txn in db:
            extended: Set[int] = set(txn)
            for item in txn:
                extended |= closure.get(item, frozenset()) & candidate_items
            if len(extended) < k:
                continue
            for cand in pruned:
                if extended.issuperset(cand):
                    counts[cand] += 1
        frequent = {c: cnt for c, cnt in counts.items() if cnt >= min_count}
        all_frequent.update(frequent)
        k += 1

    # Re-add the redundant item+ancestor itemsets so the result matches
    # the reference algorithm exactly: support(X ∪ {anc}) == support of
    # X with the descendant's ancestors removed ... specifically, adding
    # an ancestor of an existing member never changes support.
    _readd_redundant(all_frequent, closure, min_count, max_size)
    return FrequentItemsets(all_frequent, n, min_support)


def _readd_redundant(
    supports: Dict[Itemset, int],
    closure: Dict[int, frozenset],
    min_count: int,
    max_size: Optional[int],
) -> None:
    """Levelwise closure: for each frequent itemset, adding any ancestor
    of a member yields an equally-supported itemset."""
    frontier = list(supports)
    while frontier:
        new_frontier: List[Itemset] = []
        for itemset in frontier:
            if max_size is not None and len(itemset) >= max_size:
                continue
            members = set(itemset)
            for item in itemset:
                for anc in closure.get(item, frozenset()):
                    if anc in members:
                        continue
                    grown = tuple(sorted(itemset + (anc,)))
                    if grown not in supports:
                        supports[grown] = supports[itemset]
                        new_frontier.append(grown)
        frontier = new_frontier


def _extended_labels(db: TransactionDatabase, taxonomy: Taxonomy):
    n_needed = max(
        [db.n_items - 1]
        + [max(taxonomy.ancestors(i), default=-1) for i in range(db.n_items)]
    ) + 1
    labels = list(db.item_labels) + [
        f"category_{i}" for i in range(db.n_items, n_needed)
    ]
    return labels


# ----------------------------------------------------------------------
# R-interesting rules
# ----------------------------------------------------------------------
def r_interesting_rules(
    itemsets: FrequentItemsets,
    taxonomy: Taxonomy,
    min_confidence: float = 0.5,
    r: float = 1.1,
) -> List[AssociationRule]:
    """Generalized rules filtered to the paper's *R-interesting* subset.

    A rule is R-interesting when it has no "close ancestor rule" (a rule
    obtained by replacing items with ancestors) whose support predicts
    this rule's support within factor ``r``.  The expectation model is
    the paper's: a specialized rule is expected to inherit its ancestor
    rule's statistics scaled by the specialization's item frequencies.

    This implementation checks the one-step ancestor rules (each single
    item replaced by each of its direct parents), which removes the bulk
    of the redundant specializations.
    """
    check_in_range("r", r, 1.0, None)
    rules = generate_rules(itemsets, min_confidence)
    supports = itemsets.supports
    n = itemsets.n_transactions
    interesting: List[AssociationRule] = []
    for rule in rules:
        if _has_close_ancestor_rule(rule, taxonomy, supports, n, r):
            continue
        interesting.append(rule)
    return interesting


def _has_close_ancestor_rule(rule, taxonomy, supports, n, r) -> bool:
    items = rule.antecedent + rule.consequent
    for idx, item in enumerate(items):
        for parent in taxonomy.parents(item):
            general_items = items[:idx] + (parent,) + items[idx + 1:]
            general = tuple(sorted(set(general_items)))
            if general not in supports or len(general) != len(items):
                continue
            child_support = supports.get((item,))
            parent_support = supports.get((parent,))
            if not child_support or not parent_support:
                continue
            expected = (
                supports[general] * child_support / parent_support
            )
            actual = rule.support * n
            if expected > 0 and actual < r * expected:
                return True
    return False


__all__ = [
    "basic_generalized",
    "cumulate",
    "r_interesting_rules",
]
