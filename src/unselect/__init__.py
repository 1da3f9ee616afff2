"""Unsupervised feature selection toolkit.

Four selectors (PCA loadings, Rough-PCA, EDR, USQR) over a rough-set
kernel, with dataset plumbing and a cross-validated benchmark harness.
"""

from .dataset import (
    DataTable,
    DiscreteTable,
    FeatureSubset,
    discretize,
    load_arff,
    load_csv,
    load_registry,
    load_table,
    project,
    write_csv,
    zscore_normalize,
)
from .eval import (
    EvalReport,
    cross_validate,
    make_fold_plan,
    run_benchmark,
)
from .pca import PCModel, fit_pca, loading_scores, retain_count
from .roughset import (
    Partition,
    brute_force_min_reducts,
    gamma,
    indiscernibility_partition,
    is_superreduct,
    lower_approximation,
    positive_region,
    upper_approximation,
    usqr,
)
from .selectors import (
    SelectorConfig,
    edr_scores,
    edr_select,
    pca_scores,
    pca_select,
    rough_pca_select,
)

__version__ = "0.1.0"

__all__ = [
    "DataTable",
    "DiscreteTable",
    "FeatureSubset",
    "Partition",
    "PCModel",
    "SelectorConfig",
    "EvalReport",
    "load_csv",
    "load_arff",
    "load_table",
    "load_registry",
    "write_csv",
    "zscore_normalize",
    "discretize",
    "project",
    "indiscernibility_partition",
    "lower_approximation",
    "upper_approximation",
    "positive_region",
    "gamma",
    "is_superreduct",
    "brute_force_min_reducts",
    "fit_pca",
    "retain_count",
    "loading_scores",
    "pca_scores",
    "pca_select",
    "rough_pca_select",
    "edr_scores",
    "edr_select",
    "usqr",
    "make_fold_plan",
    "cross_validate",
    "run_benchmark",
]
