"""The four unsupervised feature selectors.

Each maps a dataset to an ordered FeatureSubset: PCA loading selection,
the Rough-PCA pipeline, empirical-distribution ranking (EDR), and the
unsupervised QuickReduct greedy search (USQR, ``roughset.usqr``).  A pca
or edr subset carries the ranking it was cut from.  Every tie anywhere is
broken toward the lowest attribute index so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pca
from .dataset import (DataTable, FeatureSubset, check_binning, discretize, project,
                      zscore_normalize)
from .roughset import usqr

__all__ = [
    "SelectorConfig",
    "pca_scores",
    "pca_select",
    "rough_pca_select",
    "edr_scores",
    "edr_select",
    "select",
    "METHOD_IDS",
]

METHOD_IDS = ("pca", "roughpca", "edr", "usqr")


@dataclass(frozen=True)
class SelectorConfig:
    """Every under-specified knob of the pipelines, in one auditable place."""

    pc_policy: tuple = ("var", 0.90)
    strategy: str = "eqfreq"
    bins: int = 3

    def __post_init__(self):
        check_binning(self.strategy, self.bins)
        pca.check_policy(self.pc_policy)


Ranking = tuple[tuple[int, float], ...]


def _top(ranking: Ranking, k: int) -> FeatureSubset:
    """The first k attributes of a ranking, carrying the whole ranking."""
    if not 1 <= k <= len(ranking):
        raise ValueError(f"k={k} out of range for {len(ranking)} attributes")
    return FeatureSubset(tuple(i for i, _ in ranking[:k]), ranking=ranking)


def pca_scores(table: DataTable, cfg: SelectorConfig) -> Ranking:
    """Each attribute's ``(index, loading score)`` over the PCs kept under
    ``cfg.pc_policy`` (``pca.loading_scores``), ranked descending, ties by
    lower index."""
    model = pca.fit_pca(zscore_normalize(table))
    kept = pca.retain_count(model, cfg.pc_policy)
    return tuple(pca.loading_scores(model, kept))


def pca_select(table: DataTable, cfg: SelectorConfig, k: int) -> FeatureSubset:
    """Top-k original attributes by loading score over the retained PCs."""
    return _top(pca_scores(table, cfg), k)


def _preselect_covered(model, kept: int) -> list[int]:
    """Original attributes covered by the retained PCs, ascending.

    Each retained component contributes the attribute carrying its
    largest absolute loading; duplicates collapse.
    """
    return np.unique(np.argmax(np.abs(model.loadings[:, :kept]), axis=0)).tolist()


def rough_pca_select(table: DataTable, cfg: SelectorConfig) -> FeatureSubset:
    """Normalize, keep meaningful PCs, preselect the attributes they cover,
    discretize those columns and reduce them with the rough-set search.

    The result is expressed in original attribute indices and is always a
    subset of the preselection.
    """
    normed = zscore_normalize(table)
    model = pca.fit_pca(normed)
    kept = pca.retain_count(model, cfg.pc_policy)
    preselected = _preselect_covered(model, kept)
    reduced = project(normed, FeatureSubset(tuple(preselected)))
    discrete = discretize(reduced, cfg.strategy, cfg.bins)
    local = usqr(discrete)
    return FeatureSubset(tuple(preselected[i] for i in local))


def edr_scores(table: DataTable) -> Ranking:
    """Empirical distribution function of each attribute at its own mean.

    score_j = (1/n) |{i : x_ij <= mean_j}|.  Attributes are ranked by
    ascending score (the minimum-value attributes come first), ties by
    lower index.  Returns the ``(index, score)`` pairs in ranking order.
    The computed mean is clipped to the column's range, where the exact
    mean lies, so a constant column scores 1.0 however its mean rounds.
    """
    values = table.values
    n = table.n_objects
    mean = np.clip(values.mean(axis=0), values.min(axis=0), values.max(axis=0))
    scores = (values <= mean).sum(axis=0) / n
    order = sorted(range(table.n_attrs), key=lambda j: (scores[j], j))
    return tuple((j, float(scores[j])) for j in order)


def edr_select(table: DataTable, k: int) -> FeatureSubset:
    """First k attributes of the EDR ranking."""
    return _top(edr_scores(table), k)


def select(table: DataTable, method: str, cfg: SelectorConfig, k: int | None = None) -> FeatureSubset:
    """Run one of the four selectors by id; pca and edr need k, the others refuse it."""
    if method not in METHOD_IDS:
        raise ValueError(f"unknown method {method!r}; valid: {', '.join(METHOD_IDS)}")
    if method in ("pca", "edr") and k is None:
        raise ValueError(f"{method} selection needs k")
    if method in ("roughpca", "usqr") and k is not None:
        raise ValueError(f"{method} decides its own subset size; k applies only to pca and edr")
    if method == "pca":
        return pca_select(table, cfg, k)
    if method == "edr":
        return edr_select(table, k)
    if method == "roughpca":
        return rough_pca_select(table, cfg)
    return usqr(discretize(table, cfg.strategy, cfg.bins))
