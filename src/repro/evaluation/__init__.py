"""Evaluation: classification metrics, cross-validation, cluster quality."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "cluster_metrics": ("adjusted_rand_index", "normalized_mutual_info",
                        "purity", "rand_index", "silhouette", "sse"),
    "crossval": ("cross_val_score", "kfold_indices",
                 "stratified_kfold_indices"),
    "metrics": ("ClassReport", "accuracy", "classification_report",
                "confusion_matrix", "error_rate", "macro_f1",
                "precision_recall_f1"),
})
