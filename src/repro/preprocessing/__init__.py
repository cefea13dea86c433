"""Preprocessing: discretization, scaling, splitting, encoding."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "discretize": ("MDLP", "EqualFrequency", "EqualWidth",
                   "discretize_table"),
    "encode": ("impute_missing", "one_hot_matrix"),
    "scale": ("MinMaxScaler", "StandardScaler", "scale_table"),
    "split": ("train_test_split",),
})
