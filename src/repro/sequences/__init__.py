"""Sequential pattern mining.

Miners (all return :class:`FrequentSequences`; without time constraints
they agree exactly on their output):

* :func:`apriori_all` — the original three-phase litemset algorithm
  (length counted in elements).
* :func:`gsp` — Generalized Sequential Patterns, with window / min-gap /
  max-gap time constraints (length counted in items).
* :func:`prefixspan` — pattern growth with pseudo-projection.
* :func:`brute_force_sequences` — exhaustive oracle for tests.
"""

from .._lazy import lazy_exports

# The miners named like their submodules are bound eagerly (see
# repro._lazy); everything else loads on first use.
from .apriori_all import apriori_all
from .gsp import gsp
from .prefixspan import prefixspan

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "apriori_all": ("apriori_all",),
    "episodes": ("EventSequence", "FrequentEpisodes", "winepi"),
    "gsp": ("gsp",),
    "prefixspan": ("prefixspan",),
    "reference": ("brute_force_sequences",),
    "result": ("FrequentSequences",),
})
