"""Synthetic data generators, toy tables, and CSV I/O.

Generators reproduce the classic evaluation workloads:

* :func:`quest_basket` / :class:`QuestBasketGenerator` — the IBM Quest
  market-basket process (T?.I?.D? workloads of the Apriori paper).
* :func:`quest_sequences` / :class:`QuestSequenceGenerator` — the
  customer-sequence analog (C?.T?.S?.I? workloads of GSP).
* :func:`agrawal` — the ten AIS classification functions.
* :func:`gaussian_blobs` / :func:`gaussian_grid` — clustering workloads.
* :func:`two_rings` / :func:`two_moons` — non-convex shapes for DBSCAN.
* :func:`play_tennis` / :func:`iris` / :func:`weather_numeric` — toys.
"""

from .._lazy import lazy_exports

# Also a submodule name, so bound eagerly (see repro._lazy).
from .agrawal import agrawal

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "agrawal": ("agrawal", "FUNCTIONS"),
    "basket": ("QuestBasketGenerator", "QuestConfig", "quest_basket"),
    "friedman": ("friedman1",),
    "gaussian": ("gaussian_blobs", "gaussian_grid"),
    "io": ("load_table", "load_transactions", "save_table",
           "save_transactions"),
    "sequence_gen": ("QuestSequenceConfig", "QuestSequenceGenerator",
                     "quest_sequences"),
    "shapes": ("two_moons", "two_rings"),
    "taxonomy_gen": ("random_taxonomy",),
    "toy": ("iris", "play_tennis", "weather_numeric"),
})
