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

from .._lazy import lazy_exports

# The miners named like their submodules are bound eagerly (see
# repro._lazy); everything else loads on first use.
from .apriori import apriori
from .apriori_hybrid import apriori_hybrid
from .apriori_tid import apriori_tid
from .dhp import dhp
from .eclat import eclat
from .fp_growth import fp_growth

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "apriori": ("apriori", "frequent_one_itemsets", "min_count_from_support"),
    "apriori_hybrid": ("apriori_hybrid",),
    "apriori_tid": ("apriori_tid",),
    "candidates": ("apriori_gen",),
    "dhp": ("dhp",),
    "eclat": ("eclat",),
    "fp_growth": ("fp_growth",),
    "generalized": ("basic_generalized", "cumulate", "r_interesting_rules"),
    "hash_tree": ("HashTree",),
    "measures": ("chi_square", "confidence", "conviction", "leverage",
                 "lift"),
    "partition": ("partition_miner",),
    "quantitative": ("QuantItem", "QuantitativeMiner"),
    "reference": ("brute_force",),
    "rules": ("AssociationRule", "filter_rules", "generate_rules"),
    "sampling": ("negative_border", "sampling_miner"),
})
