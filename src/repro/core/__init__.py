"""Core substrate: datasets, itemsets, estimator bases, errors, RNG.

Everything else in :mod:`repro` builds on these primitives:

* :class:`TransactionDatabase` / :class:`SequenceDatabase` — the market
  basket and customer-sequence inputs of the association/sequence miners.
* :class:`Table` with a typed :class:`Attribute` schema — the input of the
  classifiers and (via :meth:`Table.to_matrix`) the clusterers.
* :class:`FrequentItemsets` — the uniform result type of itemset miners.
* :class:`Classifier` / :class:`Clusterer` — the fit/predict protocol.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("Classifier", "Clusterer", "check_matrix", "check_nonempty"),
    "exceptions": ("ConvergenceWarning", "EmptyInputError", "NotFittedError",
                   "ReproError", "ValidationError"),
    "itemsets": ("FrequentItemsets", "Itemset", "PassStats", "as_itemset",
                 "contains", "is_canonical", "proper_subsets",
                 "subsets_of_size"),
    "random": ("RandomState", "check_random_state", "spawn"),
    "sequences": ("SequenceDatabase", "SequencePattern", "as_pattern",
                  "pattern_length", "sequence_contains"),
    "table": ("Attribute", "Table", "categorical", "numeric"),
    "taxonomy": ("Taxonomy",),
    "transactions": ("Transaction", "TransactionDatabase"),
})
