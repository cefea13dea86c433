"""C4.5rules-style rule-set simplification.

C4.5's companion program converts a decision tree into an ordered rule
set and then *simplifies* it: each path-rule drops the conditions whose
removal does not raise its pessimistic error estimate, duplicate rules
collapse, and the survivors are ordered by estimated accuracy with a
majority-class default at the end.  Simplified rules are usually both
smaller and slightly more accurate than the tree they came from,
because condition-dropping generalises each leaf's region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.base import Classifier, check_in_range
from ..core.exceptions import NotFittedError
from ..core.table import Attribute, Table
from .pruning import binomial_upper_limit
from .tree_model import (
    BinaryCategoricalSplit,
    CategoricalSplit,
    Leaf,
    NumericSplit,
    TreeNode,
)


@dataclass(frozen=True)
class Condition:
    """One test on an attribute.

    kind ``"eq"``: categorical equality to ``codes`` (a single code);
    kind ``"in"``: categorical membership of ``codes``;
    kind ``"le"`` / ``"gt"``: numeric threshold tests.
    """

    attribute: str
    kind: str
    threshold: Optional[float] = None
    codes: Optional[frozenset] = None

    def matches(self, column: np.ndarray) -> np.ndarray:
        if self.kind == "le":
            return column <= self.threshold
        if self.kind == "gt":
            return column > self.threshold
        return np.isin(column, list(self.codes))

    def render(self, attr: Attribute) -> str:
        if self.kind == "le":
            return f"{self.attribute} <= {self.threshold:g}"
        if self.kind == "gt":
            return f"{self.attribute} > {self.threshold:g}"
        values = [attr.values[c] for c in sorted(self.codes)]
        if len(values) == 1:
            return f"{self.attribute} = {values[0]!r}"
        return f"{self.attribute} in {values}"


@dataclass
class SimplifiedRule:
    """A conjunction of conditions predicting one class."""

    conditions: Tuple[Condition, ...]
    class_code: int
    coverage: int = 0
    errors: int = 0
    pessimistic: float = 1.0

    def matches(self, columns: Dict[str, np.ndarray], n_rows: int) -> np.ndarray:
        mask = np.ones(n_rows, dtype=bool)
        for condition in self.conditions:
            mask &= condition.matches(columns[condition.attribute])
        return mask


class C45Rules(Classifier):
    """Rule-set classifier distilled from a fitted decision tree.

    Parameters
    ----------
    make_tree:
        Factory for the underlying tree learner (default: pruned C4.5).
    confidence:
        Confidence level for the pessimistic error estimates used when
        dropping conditions and ordering rules.

    Notes
    -----
    Missing feature values are not supported at prediction time (the
    original C4.5rules handles them with fractional matching; impute
    beforehand here).

    Examples
    --------
    >>> from repro.datasets import play_tennis
    >>> model = C45Rules().fit(play_tennis(), "play")
    >>> model.score(play_tennis()) >= 0.9
    True
    """

    def __init__(self, make_tree=None, confidence: float = 0.25):
        check_in_range("confidence", confidence, 0.0, 0.5, low_inclusive=False)
        self.make_tree = make_tree
        self.confidence = confidence
        self.rules_: Optional[List[SimplifiedRule]] = None
        self.default_class_: Optional[int] = None

    def _fit(self, features: Table, y: np.ndarray, target: Attribute) -> None:
        from .c45 import C45

        factory = self.make_tree or (lambda: C45(prune=True))
        tree_model = factory()
        labelled = _with_target(features, y, target)
        tree_model.fit(labelled, target.name)
        raw_rules = _paths_to_rules(tree_model.tree_)

        columns = {
            a.name: features.column(a.name) for a in features.attributes
        }
        n_rows = features.n_rows
        simplified: List[SimplifiedRule] = []
        seen = set()
        for rule in raw_rules:
            rule = self._simplify(rule, columns, y, n_rows)
            key = (rule.conditions, rule.class_code)
            if key in seen:
                continue
            seen.add(key)
            if rule.coverage > 0:
                simplified.append(rule)
        # Order by pessimistic error (best rules fire first).
        simplified.sort(key=lambda r: (r.pessimistic, -r.coverage))
        self.rules_ = simplified
        self.default_class_ = int(np.bincount(y).argmax())
        self._columns_template = [a.name for a in features.attributes]

    def _simplify(self, rule: SimplifiedRule, columns, y, n_rows) -> SimplifiedRule:
        """Greedily drop conditions that don't hurt the pessimistic error."""
        conditions = list(rule.conditions)
        best = self._evaluate(conditions, rule.class_code, columns, y, n_rows)
        improved = True
        while improved and conditions:
            improved = False
            for idx in range(len(conditions)):
                trial = conditions[:idx] + conditions[idx + 1:]
                candidate = self._evaluate(
                    trial, rule.class_code, columns, y, n_rows
                )
                if candidate.pessimistic <= best.pessimistic + 1e-12:
                    conditions = trial
                    best = candidate
                    improved = True
                    break
        return best

    def _evaluate(self, conditions, class_code, columns, y, n_rows) -> SimplifiedRule:
        mask = np.ones(n_rows, dtype=bool)
        for condition in conditions:
            mask &= condition.matches(columns[condition.attribute])
        coverage = int(mask.sum())
        errors = int((y[mask] != class_code).sum())
        pessimistic = binomial_upper_limit(
            float(errors), float(max(coverage, 1)), self.confidence
        )
        return SimplifiedRule(
            tuple(conditions), class_code, coverage, errors, pessimistic
        )

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _predict_codes(self, features: Table) -> np.ndarray:
        if self.rules_ is None:
            raise NotFittedError(self)
        columns = {}
        for name in self._columns_template:
            if name in features.attribute_names:
                columns[name] = features.column(name)
        n = features.n_rows
        out = np.full(n, self.default_class_, dtype=np.int64)
        unassigned = np.ones(n, dtype=bool)
        for rule in self.rules_:
            if not unassigned.any():
                break
            if any(c.attribute not in columns for c in rule.conditions):
                continue
            mask = rule.matches(columns, n) & unassigned
            out[mask] = rule.class_code
            unassigned &= ~mask
        return out

    def render_rules(self, features_schema: Table) -> List[str]:
        """Readable rule list using a table's schema for value names."""
        if self.rules_ is None:
            raise NotFittedError(self)
        lines = []
        for rule in self.rules_:
            if rule.conditions:
                clause = " and ".join(
                    c.render(features_schema.attribute(c.attribute))
                    for c in rule.conditions
                )
            else:
                clause = "true"
            label = self.target_.values[rule.class_code]
            lines.append(
                f"if {clause} then {label!r}  "
                f"[covers {rule.coverage}, errors {rule.errors}]"
            )
        lines.append(f"default: {self.target_.values[self.default_class_]!r}")
        return lines

    def n_conditions(self) -> int:
        """Total conditions across all rules (the size metric)."""
        if self.rules_ is None:
            raise NotFittedError(self)
        return sum(len(r.conditions) for r in self.rules_)


def _paths_to_rules(root: TreeNode) -> List[SimplifiedRule]:
    rules: List[SimplifiedRule] = []
    _walk(root, [], rules)
    return rules


def _walk(node: TreeNode, conditions: List[Condition], out: List[SimplifiedRule]):
    if isinstance(node, Leaf):
        out.append(SimplifiedRule(tuple(conditions), node.majority_class))
        return
    if isinstance(node, NumericSplit):
        _walk(
            node.left,
            conditions + [Condition(node.attribute.name, "le", node.threshold)],
            out,
        )
        _walk(
            node.right,
            conditions + [Condition(node.attribute.name, "gt", node.threshold)],
            out,
        )
    elif isinstance(node, BinaryCategoricalSplit):
        all_codes = frozenset(range(len(node.attribute.values)))
        _walk(
            node.left,
            conditions + [
                Condition(node.attribute.name, "in", codes=node.left_codes)
            ],
            out,
        )
        _walk(
            node.right,
            conditions + [
                Condition(
                    node.attribute.name, "in", codes=all_codes - node.left_codes
                )
            ],
            out,
        )
    elif isinstance(node, CategoricalSplit):
        for code, child in node.children.items():
            _walk(
                child,
                conditions + [
                    Condition(node.attribute.name, "in", codes=frozenset({code}))
                ],
                out,
            )


def _with_target(features: Table, y: np.ndarray, target: Attribute) -> Table:
    attributes = features.attributes + (target,)
    columns = {a.name: features.column(a.name) for a in features.attributes}
    columns[target.name] = y
    return Table(attributes, columns)


__all__ = ["C45Rules", "SimplifiedRule", "Condition"]
