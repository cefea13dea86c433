"""Random-state handling shared by every stochastic component.

The convention mirrors the scientific-Python ecosystem: any function that
draws random numbers accepts a ``random_state`` argument that may be
``None`` (fresh entropy), an ``int`` seed, or an already constructed
:class:`numpy.random.Generator`, and normalises it through
:func:`check_random_state`.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .exceptions import ValidationError

RandomState = Union[None, int, np.random.Generator]


def check_random_state(random_state: RandomState = None) -> np.random.Generator:
    """Normalise ``random_state`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    random_state:
        ``None`` for nondeterministic seeding, an integer seed for
        reproducible streams, or an existing generator which is returned
        unchanged (so a caller can thread one generator through several
        components).

    Returns
    -------
    numpy.random.Generator
        A ready-to-use generator.

    Raises
    ------
    ValidationError
        If ``random_state`` is of an unsupported type.
    """
    if random_state is None:
        return np.random.default_rng()
    if isinstance(random_state, (int, np.integer)):
        return np.random.default_rng(int(random_state))
    if isinstance(random_state, np.random.Generator):
        return random_state
    raise ValidationError(
        "random_state must be None, an int, or a numpy Generator; "
        f"got {type(random_state).__name__}"
    )


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from ``rng``.

    Used by meta-algorithms (CLARA samples, cross-validation repeats) that
    need independent yet reproducible sub-streams.
    """
    if n < 0:
        raise ValidationError(f"cannot spawn a negative number of generators: {n}")
    seeds = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [np.random.default_rng(int(seed)) for seed in seeds]


__all__ = ["RandomState", "check_random_state", "spawn"]
