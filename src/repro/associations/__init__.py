"""Frequent-itemset and association-rule mining.

Miners (all return :class:`~repro.core.itemsets.FrequentItemsets` and
agree exactly on their output):

* :func:`apriori` — levelwise, hash-tree counting (VLDB '94).
* :func:`apriori_tid` — levelwise over transformed transaction lists.
* :func:`apriori_hybrid` — Apriori early, AprioriTid late.
* :func:`eclat` — vertical tidset intersection, depth-first.
* :func:`fp_growth` — pattern growth without candidate generation.
* :func:`dhp` — hash-filtered pass 2 (Park/Chen/Yu).
* :func:`partition_miner` — two-scan partitioned mining (Savasere et al.).
* :func:`sampling_miner` — Toivonen's sample + negative-border check.
* :func:`brute_force` — exhaustive oracle for tests.

Rule generation and quality measures:

* :func:`generate_rules` / :class:`AssociationRule`
* :mod:`repro.associations.measures` — confidence, lift, leverage,
  conviction, chi-square.
"""

from .apriori import apriori, frequent_one_itemsets, min_count_from_support
from .apriori_hybrid import apriori_hybrid
from .apriori_tid import apriori_tid
from .candidates import apriori_gen
from .dhp import dhp
from .eclat import eclat
from .fp_growth import fp_growth
from .hash_tree import HashTree
from .measures import chi_square, confidence, conviction, leverage, lift
from .generalized import basic_generalized, cumulate, r_interesting_rules
from .partition import partition_miner
from .quantitative import QuantItem, QuantitativeMiner
from .reference import brute_force
from .rules import AssociationRule, filter_rules, generate_rules
from .sampling import negative_border, sampling_miner

from ..registry import (
    AlgorithmSpec as _Spec,
    Capabilities as _Caps,
    register as _register,
)
from ..runtime.context import (
    BASIC_POLICIES as _BASIC,
    LEVELWISE_POLICIES as _LEVELWISE,
)

# Capability declarations: the CLI (choices, flag gating, budget wiring)
# and the conformance sweep derive everything from this table.  The
# order fixes the CLI ``--miner`` choices.  ``sampling_miner`` and
# ``apriori_hybrid`` take no runtime plumbing and stay unregistered.
_LEVELWISE_CAPS = _Caps(
    checkpointable=True, supervisable=True,
    budget_resource="candidates", degradation_policies=_LEVELWISE,
    parallelizable=True, vectorizable=True,
)
_DEPTH_FIRST_CAPS = _Caps(
    checkpointable=True, supervisable=True,
    budget_resource="candidates", degradation_policies=_BASIC,
)
_PARTITION_CAPS = _Caps(
    checkpointable=True, supervisable=True,
    budget_resource="candidates", degradation_policies=_BASIC,
    parallelizable=True, vectorizable=True,
)
for _spec in (
    _Spec("apriori", "associations", apriori, _LEVELWISE_CAPS,
          summary="levelwise mining with hash-tree counting (VLDB '94)"),
    _Spec("fp_growth", "associations", fp_growth,
          _Caps(budget_resource="candidates", degradation_policies=_BASIC),
          summary="pattern growth without candidate generation"),
    _Spec("eclat", "associations", eclat, _DEPTH_FIRST_CAPS,
          summary="vertical tidset intersection, depth-first"),
    _Spec("apriori_tid", "associations", apriori_tid,
          _Caps(checkpointable=True, supervisable=True,
                budget_resource="candidates",
                degradation_policies=_LEVELWISE),
          summary="levelwise over transformed transaction lists"),
    _Spec("dhp", "associations", dhp, _LEVELWISE_CAPS,
          summary="hash-filtered pass 2 (Park/Chen/Yu)"),
    _Spec("partition", "associations", partition_miner, _PARTITION_CAPS,
          summary="two-scan partitioned mining (Savasere et al.)"),
):
    _register(_spec)

__all__ = [
    "apriori",
    "apriori_tid",
    "apriori_hybrid",
    "apriori_gen",
    "eclat",
    "fp_growth",
    "dhp",
    "partition_miner",
    "sampling_miner",
    "negative_border",
    "basic_generalized",
    "cumulate",
    "r_interesting_rules",
    "QuantitativeMiner",
    "QuantItem",
    "brute_force",
    "HashTree",
    "frequent_one_itemsets",
    "min_count_from_support",
    "AssociationRule",
    "generate_rules",
    "filter_rules",
    "confidence",
    "lift",
    "leverage",
    "conviction",
    "chi_square",
]
