"""Encoding between tables and dense matrices.

Distance- and matrix-based components (k-NN on mixed data handles its
own encoding; clustering and any external numeric tooling do not), so
:func:`one_hot_matrix` flattens a table into floats: numeric columns pass
through, categorical columns expand to 0/1 indicator blocks.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..core.exceptions import ValidationError
from ..core.table import Table


def one_hot_matrix(
    table: Table,
    exclude: Sequence[str] = (),
) -> Tuple[np.ndarray, List[str]]:
    """Dense float matrix with categorical attributes one-hot expanded.

    Parameters
    ----------
    exclude:
        Attribute names to drop (typically the target).

    Returns
    -------
    (X, feature_names):
        The matrix and one name per output column
        (``attr`` or ``attr=value``).

    Raises
    ------
    ValidationError
        On missing cells — impute or drop them first; silent zeros would
        bias distances.

    Examples
    --------
    >>> from repro.datasets import play_tennis
    >>> X, names = one_hot_matrix(play_tennis(), exclude=("play",))
    >>> X.shape
    (14, 10)
    """
    excluded = set(exclude)
    blocks: List[np.ndarray] = []
    names: List[str] = []
    for attr in table.attributes:
        if attr.name in excluded:
            continue
        col = table.column(attr.name)
        if attr.is_numeric:
            if np.isnan(col).any():
                raise ValidationError(
                    f"one_hot_matrix: {attr.name!r} has missing values"
                )
            blocks.append(col.reshape(-1, 1))
            names.append(attr.name)
        else:
            if (col < 0).any():
                raise ValidationError(
                    f"one_hot_matrix: {attr.name!r} has missing values"
                )
            block = np.zeros((table.n_rows, len(attr.values)))
            block[np.arange(table.n_rows), col] = 1.0
            blocks.append(block)
            names.extend(f"{attr.name}={v!r}" for v in attr.values)
    if not blocks:
        return np.empty((table.n_rows, 0)), []
    return np.column_stack(blocks), names


def impute_missing(table: Table) -> Table:
    """Replace missing cells by per-column mean (numeric) or mode
    (categorical).

    The simplest classical imputation; adequate for the distance-based
    methods that reject missing data outright.
    """
    out = table
    for attr in table.attributes:
        col = table.column(attr.name)
        if attr.is_numeric:
            missing = np.isnan(col)
            if not missing.any():
                continue
            if missing.all():
                raise ValidationError(
                    f"impute_missing: column {attr.name!r} is entirely missing"
                )
            filled = col.copy()
            filled[missing] = col[~missing].mean()
        else:
            missing = col < 0
            if not missing.any():
                continue
            if missing.all():
                raise ValidationError(
                    f"impute_missing: column {attr.name!r} is entirely missing"
                )
            counts = np.bincount(col[~missing], minlength=len(attr.values))
            filled = col.copy()
            filled[missing] = int(np.argmax(counts))
        out = out.replace_column(attr.name, attr, filled)
    return out


__all__ = ["one_hot_matrix", "impute_missing"]
