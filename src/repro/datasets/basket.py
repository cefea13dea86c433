"""IBM Quest-style synthetic market-basket generator.

Reimplements the published generation process of the Apriori evaluation
(Agrawal & Srikant, VLDB 1994): a pool of *maximal potential itemsets*
("patterns") is drawn first; transactions are then assembled from
weighted patterns, each *corrupted* by dropping a random suffix, so that
real frequent itemsets exist but are noisy — the property that makes the
workload interesting for support-threshold sweeps.

The classic workload names encode the knobs:
``T10.I4.D100K`` = average transaction length 10, average pattern size 4,
100,000 transactions (with N = 1000 items and L = 2000 patterns unless
stated otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.base import check_in_range
from ..core.random import RandomState, check_random_state
from ..core.transactions import TransactionDatabase


@dataclass(frozen=True)
class QuestConfig:
    """Knobs of the Quest basket generator (paper notation in brackets).

    Attributes
    ----------
    n_transactions:
        Number of transactions to emit [|D|].
    avg_transaction_length:
        Mean of the Poisson transaction size [|T|].
    avg_pattern_length:
        Mean of the Poisson maximal-potential-itemset size [|I|].
    n_items:
        Item vocabulary size [N].
    n_patterns:
        Size of the potential-itemset pool [|L|].
    correlation:
        Fraction of each pattern drawn from its predecessor (exponential
        mean), modelling correlated patterns.
    corruption_mean, corruption_sd:
        Parameters of the per-pattern corruption level (clipped normal).
    """

    n_transactions: int = 1000
    avg_transaction_length: float = 10.0
    avg_pattern_length: float = 4.0
    n_items: int = 1000
    n_patterns: int = 200
    correlation: float = 0.5
    corruption_mean: float = 0.5
    corruption_sd: float = 0.1

    def name(self) -> str:
        """Workload name in the paper's T?.I?.D? convention.

        >>> QuestConfig(100_000, 10, 4).name()
        'T10.I4.D100K'
        """
        d = self.n_transactions
        d_text = f"{d // 1000}K" if d % 1000 == 0 and d >= 1000 else str(d)
        t = _trim(self.avg_transaction_length)
        i = _trim(self.avg_pattern_length)
        return f"T{t}.I{i}.D{d_text}"


def _trim(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else str(x)


class QuestBasketGenerator:
    """Synthetic transaction generator following the Quest process.

    Parameters
    ----------
    config:
        The workload knobs; see :class:`QuestConfig`.
    random_state:
        Seed or generator for reproducibility.

    Examples
    --------
    >>> gen = QuestBasketGenerator(QuestConfig(n_transactions=100,
    ...     n_items=50, n_patterns=20), random_state=1)
    >>> db = gen.generate()
    >>> len(db)
    100
    """

    def __init__(self, config: QuestConfig, random_state: RandomState = None):
        check_in_range("n_transactions", config.n_transactions, 1, None)
        check_in_range(
            "avg_transaction_length", config.avg_transaction_length, 1.0, None
        )
        check_in_range("avg_pattern_length", config.avg_pattern_length, 1.0, None)
        check_in_range("n_items", config.n_items, 1, None)
        check_in_range("n_patterns", config.n_patterns, 1, None)
        check_in_range("correlation", config.correlation, 0.0, 1.0)
        check_in_range("corruption_mean", config.corruption_mean, 0.0, 1.0)
        self.config = config
        self._rng = check_random_state(random_state)
        self._patterns: Optional[List[np.ndarray]] = None
        self._weights: Optional[np.ndarray] = None
        self._corruption: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Pattern pool
    # ------------------------------------------------------------------
    def _build_patterns(self) -> None:
        cfg = self.config
        rng = self._rng
        patterns: List[np.ndarray] = []
        previous: Optional[np.ndarray] = None
        for _ in range(cfg.n_patterns):
            size = max(1, int(rng.poisson(cfg.avg_pattern_length)))
            size = min(size, cfg.n_items)
            items: List[int] = []
            if previous is not None and len(previous) > 0:
                # Exponentially distributed overlap with the previous
                # pattern (mean = correlation fraction of the new size).
                n_common = min(
                    int(rng.exponential(cfg.correlation) * size),
                    size,
                    len(previous),
                )
                if n_common > 0:
                    items.extend(
                        rng.choice(previous, size=n_common, replace=False)
                    )
            n_new = size - len(items)
            if n_new > 0:
                taken = set(items)
                fresh = []
                while len(fresh) < n_new:
                    candidate = int(rng.integers(cfg.n_items))
                    if candidate not in taken:
                        taken.add(candidate)
                        fresh.append(candidate)
                items.extend(fresh)
            pattern = np.unique(np.asarray(items, dtype=np.int64))
            patterns.append(pattern)
            previous = pattern
        self._patterns = patterns
        weights = rng.exponential(1.0, size=cfg.n_patterns)
        self._weights = weights / weights.sum()
        self._corruption = np.clip(
            rng.normal(cfg.corruption_mean, cfg.corruption_sd, cfg.n_patterns),
            0.0,
            1.0,
        )

    @property
    def patterns(self) -> List[np.ndarray]:
        """The maximal potential itemsets (built lazily)."""
        if self._patterns is None:
            self._build_patterns()
        return self._patterns

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def generate(self) -> TransactionDatabase:
        """Emit the configured number of transactions."""
        if self._patterns is None:
            self._build_patterns()
        cfg = self.config
        rng = self._rng
        n_patterns = len(self._patterns)
        transactions: List[List[int]] = []
        for _ in range(cfg.n_transactions):
            budget = max(1, int(rng.poisson(cfg.avg_transaction_length)))
            txn: set = set()
            # Guard against pathological configs that cannot fill budget.
            attempts = 0
            while len(txn) < budget and attempts < 8 * (budget + 1):
                attempts += 1
                p_idx = int(rng.choice(n_patterns, p=self._weights))
                pattern = self._patterns[p_idx]
                kept = self._corrupt(pattern, self._corruption[p_idx])
                if len(kept) == 0:
                    continue
                if len(txn) + len(kept) > budget and txn:
                    # Oversized pattern: added anyway half the time, else
                    # the transaction closes (the paper's rule).
                    if rng.random() < 0.5:
                        txn.update(int(i) for i in kept)
                    break
                txn.update(int(i) for i in kept)
            if not txn:
                txn = {int(rng.integers(cfg.n_items))}
            transactions.append(sorted(txn))
        return TransactionDatabase(
            transactions, item_labels=list(range(cfg.n_items))
        )

    def _corrupt(self, pattern: np.ndarray, level: float) -> np.ndarray:
        """Drop items from the tail while a uniform draw stays below level."""
        kept = len(pattern)
        while kept > 0 and self._rng.random() < level:
            kept -= 1
        if kept == len(pattern):
            return pattern
        if kept == 0:
            return pattern[:0]
        drop = self._rng.choice(len(pattern), size=len(pattern) - kept, replace=False)
        mask = np.ones(len(pattern), dtype=bool)
        mask[drop] = False
        return pattern[mask]


def quest_basket(
    n_transactions: int,
    avg_transaction_length: float = 10.0,
    avg_pattern_length: float = 4.0,
    n_items: int = 1000,
    n_patterns: int = 200,
    random_state: RandomState = None,
) -> TransactionDatabase:
    """One-call convenience wrapper around :class:`QuestBasketGenerator`.

    >>> db = quest_basket(200, 5, 2, n_items=100, n_patterns=30,
    ...                   random_state=7)
    >>> len(db)
    200
    """
    config = QuestConfig(
        n_transactions=n_transactions,
        avg_transaction_length=avg_transaction_length,
        avg_pattern_length=avg_pattern_length,
        n_items=n_items,
        n_patterns=n_patterns,
    )
    return QuestBasketGenerator(config, random_state).generate()


__all__ = ["QuestConfig", "QuestBasketGenerator", "quest_basket"]
