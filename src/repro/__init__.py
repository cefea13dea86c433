"""repro — classic data mining techniques, implemented from scratch.

The library reproduces the technique canon of the SIGMOD 1996 "Data
Mining Techniques" tutorial: association-rule mining, sequential pattern
mining, classification, and clustering, plus the synthetic data
generators, preprocessing, and evaluation harnesses the classic
experiments rely on.

Subpackages
-----------
core
    Dataset substrates (transactions, sequences, typed tables), result
    types, estimator bases, errors.
associations
    Apriori family, Eclat, FP-Growth; rule generation and measures.
sequences
    AprioriAll, GSP (with time constraints), PrefixSpan.
classification
    ID3, C4.5, CART, SLIQ-style trees; naive Bayes; k-NN; baselines.
clustering
    k-means, PAM/CLARA/CLARANS, hierarchical, BIRCH, DBSCAN.
preprocessing
    Discretization, scaling, splitting, encoding.
evaluation
    Classification metrics and cross-validation; clustering metrics.
datasets
    Quest-style basket/sequence generators, Agrawal functions, Gaussian
    mixtures, shape data, toy tables, CSV I/O.
runtime
    Execution budgets, cooperative cancellation, fault injection.

Subpackages are imported on first use, and so are the public names of
``core``, ``runtime``, ``datasets``, ``evaluation``, ``preprocessing``
and the four algorithm families (see :mod:`repro._lazy`).
"""

__version__ = "1.0.0"

from ._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {}, (
    "core", "associations", "sequences", "classification", "clustering",
    "preprocessing", "regression", "outliers", "evaluation", "datasets",
    "runtime",
))
__all__.append("__version__")
