"""Quantitative association rules (Srikant & Agrawal, SIGMOD 1996).

Rules over tables with numeric and categorical attributes, such as
``age in [30..39] and married = yes -> n_cars = 2``.  The paper's
recipe, reproduced here:

1. numeric attributes are split into ``n_base_intervals`` equi-depth
   *base intervals*; categorical attributes map each value to an item;
2. ranges are built by merging *consecutive* base intervals, up to a
   ``max_support`` cap (merging everything would always be frequent and
   meaningless);
3. every (attribute, value-or-range) becomes a boolean item, each row
   becomes a transaction, and a standard frequent-itemset miner runs —
   with the constraint that an itemset never contains two items of the
   same attribute;
4. rules come out of the usual generator and decode back to readable
   conditions.

The partial-completeness knob of the paper corresponds to
``n_base_intervals`` (more base intervals = less information lost, more
items); benchmark E19 sweeps it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..core.base import check_in_range
from ..core.exceptions import ValidationError
from ..core.itemsets import FrequentItemsets, Itemset
from ..core.table import Table
from .apriori import min_count_from_support
from .candidates import apriori_gen
from .rules import AssociationRule, generate_rules


@dataclass(frozen=True)
class QuantItem:
    """One boolean item: an attribute restricted to a value or range.

    ``low``/``high`` are interval bounds for numeric attributes
    (inclusive); ``value`` is the category label for categorical ones.
    """

    attribute: str
    value: Optional[Hashable] = None
    low: Optional[float] = None
    high: Optional[float] = None

    def __str__(self) -> str:
        if self.value is not None:
            return f"{self.attribute} = {self.value!r}"
        return f"{self.attribute} in [{self.low:g} .. {self.high:g}]"


class QuantitativeMiner:
    """Mines quantitative association rules from a :class:`Table`.

    Parameters
    ----------
    n_base_intervals:
        Equi-depth base intervals per numeric attribute (the partial
        completeness knob).
    max_support:
        Ranges whose support exceeds this are not emitted as items
        (merging stops); keeps "age in [min..max]"-style tautologies
        out of the rules.
    min_support, min_confidence:
        The usual rule thresholds.
    max_size:
        Optional cap on itemset size (= number of conditions per rule
        plus one).

    Examples
    --------
    >>> from repro.core import Table, categorical, numeric
    >>> rows = [(age, "yes" if age >= 30 else "no") for age in range(20, 60)]
    >>> table = Table.from_rows(
    ...     rows, [numeric("age"), categorical("married", ["no", "yes"])])
    >>> miner = QuantitativeMiner(n_base_intervals=4, min_support=0.2)
    >>> rules = miner.mine(table)
    >>> any("married = 'no'" in str(r) for r in rules)
    True
    """

    def __init__(
        self,
        n_base_intervals: int = 8,
        max_support: float = 0.5,
        min_support: float = 0.05,
        min_confidence: float = 0.5,
        max_size: Optional[int] = None,
    ):
        check_in_range("n_base_intervals", n_base_intervals, 2, None)
        check_in_range("max_support", max_support, 0.0, 1.0, low_inclusive=False)
        check_in_range("min_support", min_support, 0.0, 1.0,
                       low_inclusive=False)
        check_in_range("min_confidence", min_confidence, 0.0, 1.0)
        if max_support < min_support:
            raise ValidationError(
                f"max_support ({max_support}) must be >= min_support "
                f"({min_support})"
            )
        self.n_base_intervals = int(n_base_intervals)
        self.max_support = float(max_support)
        self.min_support = float(min_support)
        self.min_confidence = float(min_confidence)
        self.max_size = max_size
        self.items_: Optional[List[QuantItem]] = None
        self.itemsets_: Optional[FrequentItemsets] = None

    # ------------------------------------------------------------------
    # Item construction
    # ------------------------------------------------------------------
    def _build_items(self, table: Table) -> Tuple[List[QuantItem], np.ndarray]:
        """(items, membership matrix rows x items of bools)."""
        n = table.n_rows
        items: List[QuantItem] = []
        columns: List[np.ndarray] = []
        max_count = int(math.floor(self.max_support * n))
        for attr in table.attributes:
            if attr.is_categorical:
                codes = table.column(attr.name)
                for code, value in enumerate(attr.values):
                    member = codes == code
                    count = int(member.sum())
                    if 0 < count <= max_count:
                        items.append(QuantItem(attr.name, value=value))
                        columns.append(member)
                continue
            values = table.column(attr.name)
            known = ~np.isnan(values)
            if not known.any():
                continue
            edges = self._base_edges(values[known])
            base_members = []
            for low, high in edges:
                member = known & (values >= low) & (values <= high)
                base_members.append((low, high, member))
            # Emit base intervals and merged consecutive ranges up to
            # the max-support cap.
            for start in range(len(base_members)):
                merged = np.zeros(n, dtype=bool)
                for stop in range(start, len(base_members)):
                    low = base_members[start][0]
                    high = base_members[stop][1]
                    merged = merged | base_members[stop][2]
                    count = int(merged.sum())
                    if count > max_count:
                        break
                    if count > 0:
                        items.append(QuantItem(attr.name, low=low, high=high))
                        columns.append(merged.copy())
        if not items:
            return [], np.zeros((n, 0), dtype=bool)
        return items, np.column_stack(columns)

    def _base_edges(self, known: np.ndarray) -> List[Tuple[float, float]]:
        """Equi-depth base interval bounds over the observed values."""
        ordered = np.sort(known)
        n = len(ordered)
        cuts: List[float] = []
        for k in range(1, self.n_base_intervals):
            j = round(k * n / self.n_base_intervals)
            while 0 < j < n and ordered[j - 1] == ordered[j]:
                j += 1
            if 0 < j < n:
                cuts.append((ordered[j - 1] + ordered[j]) / 2.0)
        cuts = sorted(set(cuts))
        bounds = [float(ordered[0])] + cuts + [float(ordered[-1])]
        edges = []
        for i in range(len(bounds) - 1):
            edges.append((bounds[i], bounds[i + 1]))
        return edges

    # ------------------------------------------------------------------
    # Mining
    # ------------------------------------------------------------------
    def mine(self, table: Table) -> List[AssociationRule]:
        """Mine and return decoded quantitative rules (sorted by
        confidence, then support)."""
        items, membership = self._build_items(table)
        self.items_ = items
        n = table.n_rows
        if not items or n == 0:
            self.itemsets_ = FrequentItemsets({}, n, self.min_support)
            return []
        item_attr = [item.attribute for item in items]
        min_count = min_count_from_support(n, self.min_support)

        counts = membership.sum(axis=0)
        frequent: Dict[Itemset, int] = {
            (i,): int(counts[i])
            for i in range(len(items))
            if counts[i] >= min_count
        }
        all_frequent = dict(frequent)
        k = 2
        while frequent and (self.max_size is None or k <= self.max_size):
            candidates = [
                cand
                for cand in apriori_gen(frequent)
                # An itemset may not constrain one attribute twice.
                if len({item_attr[i] for i in cand}) == len(cand)
            ]
            if not candidates:
                break
            frequent = {}
            for cand in candidates:
                member = membership[:, cand[0]]
                for i in cand[1:]:
                    member = member & membership[:, i]
                count = int(member.sum())
                if count >= min_count:
                    frequent[cand] = count
            all_frequent.update(frequent)
            k += 1

        self.itemsets_ = FrequentItemsets(all_frequent, n, self.min_support)
        return generate_rules(self.itemsets_, self.min_confidence)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(self, itemset: Itemset) -> Tuple[QuantItem, ...]:
        """Translate an itemset of internal ids into QuantItems."""
        if self.items_ is None:
            raise ValidationError("mine() must run before decode()")
        return tuple(self.items_[i] for i in itemset)

    def render_rule(self, rule: AssociationRule) -> str:
        """One readable line for a mined rule."""
        ante = " and ".join(str(q) for q in self.decode(rule.antecedent))
        cons = " and ".join(str(q) for q in self.decode(rule.consequent))
        return (
            f"{ante} -> {cons}  "
            f"(sup={rule.support:.3f}, conf={rule.confidence:.2f}, "
            f"lift={rule.lift:.2f})"
        )


__all__ = ["QuantitativeMiner", "QuantItem"]
