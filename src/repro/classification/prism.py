"""PRISM — modular rule induction (Cendrowska, 1987).

A sequential-covering rule learner: for each class in turn, grow a rule
by greedily adding the attribute=value condition with the highest
precision ``p / (p + n)`` on the still-covered rows, until the rule is
pure (or no condition helps); remove the rows it covers and repeat until
the class is exhausted.  The result is an ordered rule list — the
directly interpretable counterpart to a decision tree's paths.

Categorical attributes only (discretize numeric columns first, e.g.
with :func:`repro.preprocessing.discretize_table`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.base import Classifier, check_in_range
from ..core.exceptions import ValidationError
from ..core.table import Attribute, Table
from ..runtime import IterationBudgetExceeded


@dataclass(frozen=True)
class Rule:
    """One learned rule: conjunction of (attribute, code) tests -> class."""

    conditions: Tuple[Tuple[str, int], ...]
    class_code: int
    coverage: int
    precision: float

    def matches(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        """Boolean mask of rows satisfying every condition."""
        n = len(next(iter(columns.values())))
        mask = np.ones(n, dtype=bool)
        for name, code in self.conditions:
            mask &= columns[name] == code
        return mask

    def render(self, table_attrs: Dict[str, Attribute], target: Attribute) -> str:
        if self.conditions:
            clause = " and ".join(
                f"{name} = {table_attrs[name].values[code]!r}"
                for name, code in self.conditions
            )
        else:
            clause = "true"
        return (
            f"if {clause} then {target.name} = "
            f"{target.values[self.class_code]!r}  "
            f"[covers {self.coverage}, precision {self.precision:.2f}]"
        )


class PRISM(Classifier):
    """PRISM rule-list classifier for categorical tables.

    Parameters
    ----------
    min_coverage:
        A rule must cover at least this many training rows; stops rule
        growth from chasing single noisy rows.
    max_conditions:
        Cap on conditions per rule (``None`` = all attributes).

    Attributes
    ----------
    rules_:
        The ordered rule list (first match wins); a default majority
        rule closes the list.

    Examples
    --------
    >>> from repro.datasets import play_tennis
    >>> model = PRISM().fit(play_tennis(), "play")
    >>> model.score(play_tennis())
    1.0
    """

    def __init__(self, min_coverage: int = 1, max_conditions: Optional[int] = None):
        check_in_range("min_coverage", min_coverage, 1, None)
        if max_conditions is not None:
            check_in_range("max_conditions", max_conditions, 1, None)
        self.min_coverage = int(min_coverage)
        self.max_conditions = max_conditions
        self.rules_: Optional[List[Rule]] = None

    def _fit(self, features: Table, y: np.ndarray, target: Attribute) -> None:
        for attr in features.attributes:
            if not attr.is_categorical:
                raise ValidationError(
                    f"PRISM handles categorical attributes only; "
                    f"{attr.name!r} is numeric (discretize it first)"
                )
            if (features.column(attr.name) < 0).any():
                raise ValidationError(
                    f"PRISM does not handle missing values ({attr.name!r})"
                )
        columns = {
            a.name: features.column(a.name) for a in features.attributes
        }
        attr_values = {
            a.name: range(len(a.values)) for a in features.attributes
        }
        n_classes = len(target.values)
        rules: List[Rule] = []
        # Classes ordered by training frequency (most common last, so
        # rare classes get the crisper early rules).  PRISM treats each
        # class independently: every class starts from the FULL training
        # set and removes only the rows its own rules cover.
        order = np.argsort(np.bincount(y, minlength=n_classes))
        for class_code in order:
            class_code = int(class_code)
            remaining = np.ones(features.n_rows, dtype=bool)
            while (remaining & (y == class_code)).sum() >= self.min_coverage:
                rule = self._grow_rule(
                    columns, attr_values, y, remaining, class_code
                )
                if rule is None:
                    break
                covered = rule.matches(columns) & remaining
                if covered.sum() < self.min_coverage:
                    break
                rules.append(rule)
                # Remove only this class's covered positives, per the
                # original algorithm (negatives keep constraining later
                # rules of the same class).
                remaining &= ~(covered & (y == class_code))
        # Default rule: majority class of the whole training set, firing
        # for rows no learned rule matches.
        majority = int(np.bincount(y, minlength=n_classes).argmax())
        matched = np.zeros(features.n_rows, dtype=bool)
        for rule in rules:
            matched |= rule.matches(columns)
        rules.append(Rule((), majority, int((~matched).sum()), 0.0))
        self.rules_ = rules
        self._feature_attrs = {a.name: a for a in features.attributes}

    def _grow_rule(self, columns, attr_values, y, remaining, class_code):
        conditions: List[Tuple[str, int]] = []
        covered = remaining.copy()
        used = set()
        # Each pass consumes one attribute, so len(attr_values) passes is
        # the true ceiling; the explicit cap turns any bookkeeping bug
        # that would loop forever into a loud, typed failure.
        max_growth = len(attr_values) + 1
        for _growth in range(max_growth + 1):
            if _growth == max_growth:
                raise IterationBudgetExceeded(
                    f"PRISM rule growth did not terminate within "
                    f"{max_growth} passes",
                    resource="expansions",
                    limit=max_growth,
                    used=max_growth,
                )
            positives = (y == class_code) & covered
            negatives = (y != class_code) & covered
            if not negatives.any():
                break  # rule is pure
            if self.max_conditions is not None and len(conditions) >= self.max_conditions:
                break
            best = None
            for name, values in attr_values.items():
                if name in used:
                    continue
                col = columns[name]
                for code in values:
                    member = covered & (col == code)
                    p = int((member & positives).sum())
                    if p < self.min_coverage:
                        continue
                    total = int(member.sum())
                    precision = p / total
                    key = (precision, p)
                    if best is None or key > best[0]:
                        best = (key, name, code, member)
            if best is None:
                break
            _, name, code, member = best
            conditions.append((name, int(code)))
            used.add(name)
            covered = member
        positives = int(((y == class_code) & covered).sum())
        total = int(covered.sum())
        if total == 0 or positives < self.min_coverage or not conditions:
            return None
        return Rule(
            tuple(conditions), class_code, total, positives / total
        )

    def _predict_codes(self, features: Table) -> np.ndarray:
        columns = {
            name: features.column(name)
            for name in self._feature_attrs
            if name in features.attribute_names
        }
        out = np.empty(features.n_rows, dtype=np.int64)
        unassigned = np.ones(features.n_rows, dtype=bool)
        for rule in self.rules_:
            if not unassigned.any():
                break
            if any(name not in columns for name, _ in rule.conditions):
                continue
            mask = rule.matches(columns) & unassigned if rule.conditions else unassigned
            out[mask] = rule.class_code
            unassigned &= ~mask
        return out

    def render_rules(self) -> List[str]:
        """Human-readable rule list, in firing order."""
        from ..core.base import check_fitted

        check_fitted(self, "rules_")
        return [
            rule.render(self._feature_attrs, self.target_)
            for rule in self.rules_
        ]


__all__ = ["PRISM", "Rule"]
