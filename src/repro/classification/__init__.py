"""Classification: decision trees, naive Bayes, k-NN, baselines.

Tree family (shared node structures in :mod:`tree_model`, pruning in
:mod:`pruning`):

* :class:`ID3` — categorical-only, information gain, multiway.
* :class:`C45` — gain ratio, continuous splits, missing values,
  pessimistic pruning.
* :class:`CART` — binary Gini splits, cost-complexity pruning.
* :class:`SLIQ` — breadth-first growth over pre-sorted attribute lists
  (the scalable variant; same trees, different asymptotics).

Others:

* :class:`NaiveBayes` — Gaussian + Laplace-smoothed categorical.
* :class:`KNN` — lazy nearest-neighbour voting.
* :class:`PRISM` — sequential-covering rule lists.
* :class:`Bagging`, :class:`AdaBoostM1` — ensemble wrappers over any
  base classifier.
* :class:`ZeroR`, :class:`OneR` — evaluation floors.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "baselines": ("OneR", "ZeroR"),
    "c45": ("C45",),
    "cart": ("CART",),
    "criteria": ("entropy", "gain_ratio", "gini", "gini_gain",
                 "information_gain", "split_information"),
    "ensembles": ("AdaBoostM1", "Bagging"),
    "id3": ("ID3",),
    "knn": ("KNN",),
    "naive_bayes": ("NaiveBayes",),
    "prism": ("PRISM", "Rule"),
    "pruning": ("binomial_upper_limit", "cost_complexity_path",
                "pessimistic_prune", "prune_to_alpha",
                "reduced_error_prune"),
    "sliq": ("SLIQ",),
    "tree_model": ("BinaryCategoricalSplit", "CategoricalSplit", "Leaf",
                   "NumericSplit", "TreeNode", "extract_rules",
                   "render_tree"),
    "tree_rules": ("C45Rules", "Condition", "SimplifiedRule"),
})
