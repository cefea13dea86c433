"""Association-rule generation from frequent itemsets.

Implements the faster *ap-genrules* procedure of the Apriori paper: for a
frequent itemset Z, rules are generated by growing *consequents* levelwise
— if ``(Z - c) -> c`` fails the confidence threshold, then every rule with
a consequent that is a superset of ``c`` fails too (its antecedent has at
least the same support), so whole branches are pruned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from ..core.base import check_in_range
from ..core.itemsets import FrequentItemsets, Itemset
from .candidates import apriori_gen
from .measures import confidence as _confidence
from .measures import conviction as _conviction
from .measures import leverage as _leverage
from .measures import lift as _lift


@dataclass(frozen=True)
class AssociationRule:
    """One rule ``antecedent -> consequent`` with its statistics.

    Supports are relative (fractions of the database).  Derived measures
    are precomputed so sweeps can sort/filter without recomputation.
    """

    antecedent: Itemset
    consequent: Itemset
    support: float
    confidence: float
    lift: float
    leverage: float
    conviction: float

    def __str__(self) -> str:
        ante = "{" + ", ".join(map(str, self.antecedent)) + "}"
        cons = "{" + ", ".join(map(str, self.consequent)) + "}"
        return (
            f"{ante} -> {cons}  "
            f"(support={self.support:.4f}, confidence={self.confidence:.4f}, "
            f"lift={self.lift:.3f})"
        )


def generate_rules(
    itemsets: FrequentItemsets,
    min_confidence: float = 0.5,
    max_consequent_size: Optional[int] = None,
) -> List[AssociationRule]:
    """Generate all rules meeting ``min_confidence`` from mined itemsets.

    Parameters
    ----------
    itemsets:
        Output of any frequent-itemset miner.  Rule statistics only need
        supports that are themselves frequent (every subset of a frequent
        itemset is frequent), so no database re-scan is required.
    min_confidence:
        Threshold in [0, 1].
    max_consequent_size:
        Optionally cap the consequent size (``None`` = unbounded).

    Returns
    -------
    list of AssociationRule
        Sorted by descending confidence, then descending support, then
        lexicographically — a deterministic, presentation-ready order.

    Examples
    --------
    >>> from repro.core import TransactionDatabase
    >>> from repro.associations import apriori
    >>> db = TransactionDatabase([(0, 1), (0, 1), (0, 2), (1,)])
    >>> rules = generate_rules(apriori(db, 0.5), min_confidence=0.6)
    >>> [str(r) for r in rules][0]
    '{0} -> {1}  (support=0.5000, confidence=0.6667, lift=0.889)'
    """
    check_in_range("min_confidence", min_confidence, 0.0, 1.0)
    rules: List[AssociationRule] = []
    n = itemsets.n_transactions
    if n == 0:
        return rules
    for itemset in itemsets:
        if len(itemset) < 2:
            continue
        rules.extend(
            _rules_from_itemset(
                itemset, itemsets, min_confidence, max_consequent_size
            )
        )
    rules.sort(
        key=lambda r: (-r.confidence, -r.support, r.antecedent, r.consequent)
    )
    return rules


def _rules_from_itemset(
    itemset: Itemset,
    itemsets: FrequentItemsets,
    min_confidence: float,
    max_consequent_size: Optional[int],
) -> Iterator[AssociationRule]:
    """ap-genrules: levelwise consequent growth with confidence pruning."""
    support_z = itemsets.support(itemset)
    # Level 1: single-item consequents.
    consequents: List[Itemset] = []
    for item in itemset:
        consequent = (item,)
        rule = _make_rule(itemset, consequent, support_z, itemsets)
        if rule.confidence >= min_confidence:
            yield rule
            consequents.append(consequent)
    size = 2
    while consequents and size < len(itemset):
        if max_consequent_size is not None and size > max_consequent_size:
            return
        candidates = apriori_gen(consequents)
        consequents = []
        for consequent in candidates:
            rule = _make_rule(itemset, consequent, support_z, itemsets)
            if rule.confidence >= min_confidence:
                yield rule
                consequents.append(consequent)
        size += 1


def _make_rule(
    itemset: Itemset,
    consequent: Itemset,
    support_z: float,
    itemsets: FrequentItemsets,
) -> AssociationRule:
    consequent_set = set(consequent)
    antecedent = tuple(i for i in itemset if i not in consequent_set)
    support_x = itemsets.support(antecedent)
    support_y = itemsets.support(consequent)
    return AssociationRule(
        antecedent=antecedent,
        consequent=consequent,
        support=support_z,
        confidence=_confidence(support_z, support_x),
        lift=_lift(support_z, support_x, support_y),
        leverage=_leverage(support_z, support_x, support_y),
        conviction=_conviction(support_z, support_x, support_y),
    )


def filter_rules(
    rules: List[AssociationRule],
    min_lift: Optional[float] = None,
    min_support: Optional[float] = None,
    min_confidence: Optional[float] = None,
) -> List[AssociationRule]:
    """Post-filter a rule list on any combination of thresholds."""
    out = rules
    if min_lift is not None:
        out = [r for r in out if r.lift >= min_lift]
    if min_support is not None:
        out = [r for r in out if r.support >= min_support]
    if min_confidence is not None:
        out = [r for r in out if r.confidence >= min_confidence]
    return list(out)


__all__ = ["AssociationRule", "generate_rules", "filter_rules"]
