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

from .baselines import OneR, ZeroR
from .ensembles import AdaBoostM1, Bagging
from .prism import PRISM, Rule
from .tree_rules import C45Rules, Condition, SimplifiedRule
from .c45 import C45
from .cart import CART
from .criteria import (
    entropy,
    gain_ratio,
    gini,
    gini_gain,
    information_gain,
    split_information,
)
from .id3 import ID3
from .knn import KNN
from .naive_bayes import NaiveBayes
from .pruning import (
    binomial_upper_limit,
    cost_complexity_path,
    pessimistic_prune,
    prune_to_alpha,
    reduced_error_prune,
)
from .sliq import SLIQ
from .tree_model import (
    BinaryCategoricalSplit,
    CategoricalSplit,
    Leaf,
    NumericSplit,
    TreeNode,
    extract_rules,
    render_tree,
)

from ..registry import (
    AlgorithmSpec as _Spec,
    Capabilities as _Caps,
    register as _register,
)

# Capability declarations (see repro.registry).  Every classifier is a
# deterministic fit, so all are supervisable via restart-from-scratch;
# only the tree growers charge a budget (one node unit per attempted
# split).  The order fixes the CLI ``--classifier`` choices.
_TREE_CAPS = _Caps(supervisable=True, budget_resource="nodes")
_PLAIN_CAPS = _Caps(supervisable=True)
_SLIQ_CAPS = _Caps(supervisable=True, budget_resource="nodes",
                   vectorizable=True)
for _spec in (
    _Spec("c45", "classification", C45, _TREE_CAPS,
          summary="gain-ratio tree with pessimistic pruning"),
    _Spec("cart", "classification", CART, _TREE_CAPS,
          summary="binary Gini tree with cost-complexity pruning"),
    _Spec("sliq", "classification", SLIQ, _SLIQ_CAPS,
          summary="breadth-first tree over pre-sorted attribute lists"),
    _Spec("nb", "classification", NaiveBayes, _PLAIN_CAPS,
          summary="Gaussian + Laplace-smoothed naive Bayes"),
    _Spec("knn", "classification", KNN, _PLAIN_CAPS,
          summary="lazy nearest-neighbour voting"),
    _Spec("oner", "classification", OneR, _PLAIN_CAPS,
          summary="best single-attribute rule set"),
    _Spec("zeror", "classification", ZeroR, _PLAIN_CAPS,
          summary="majority-class floor"),
):
    _register(_spec)

__all__ = [
    "ID3",
    "C45",
    "CART",
    "SLIQ",
    "NaiveBayes",
    "KNN",
    "PRISM",
    "Rule",
    "C45Rules",
    "SimplifiedRule",
    "Condition",
    "Bagging",
    "AdaBoostM1",
    "ZeroR",
    "OneR",
    "entropy",
    "gini",
    "information_gain",
    "gain_ratio",
    "gini_gain",
    "split_information",
    "pessimistic_prune",
    "reduced_error_prune",
    "cost_complexity_path",
    "prune_to_alpha",
    "binomial_upper_limit",
    "TreeNode",
    "Leaf",
    "CategoricalSplit",
    "NumericSplit",
    "BinaryCategoricalSplit",
    "render_tree",
    "extract_rules",
]
