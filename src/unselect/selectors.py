"""The four unsupervised feature selectors.

Each maps a dataset to an ordered FeatureSubset: PCA loading selection,
the Rough-PCA pipeline, empirical-distribution ranking (EDR), and the
unsupervised QuickReduct greedy search (USQR).  Every tie anywhere is
broken toward the lowest attribute index so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pca, roughset
from .dataset import DataTable, DiscreteTable, FeatureSubset, discretize, project, zscore_normalize

__all__ = [
    "RankedFeatures",
    "SelectorConfig",
    "pca_select",
    "rough_pca_select",
    "edr_scores",
    "edr_select",
    "usqr",
    "select",
    "METHOD_IDS",
]

METHOD_IDS = ("pca", "roughpca", "edr", "usqr")


@dataclass(frozen=True)
class RankedFeatures:
    """Per-attribute scores in the method's ranking order."""

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        idx = [i for i, _ in self.entries]
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate attribute in ranking")

    def top(self, k: int) -> FeatureSubset:
        if not 1 <= k <= len(self.entries):
            raise ValueError(f"k={k} out of range for {len(self.entries)} attributes")
        return FeatureSubset(tuple(i for i, _ in self.entries[:k]))


@dataclass(frozen=True)
class SelectorConfig:
    """Every under-specified knob of the pipelines, in one auditable place."""

    pc_policy: tuple = ("var", 0.90)
    strategy: str = "eqfreq"
    bins: int = 3
    edr_k: int | None = None

    def __post_init__(self):
        if self.strategy not in ("eqwidth", "eqfreq"):
            raise ValueError(f"unknown discretization strategy {self.strategy!r}")
        if self.bins < 2:
            raise ValueError(f"bins must be >= 2, got {self.bins}")
        kind = self.pc_policy[0]
        if kind not in ("var", "kaiser", "fixed"):
            raise ValueError(f"unknown pc policy {kind!r}")


def pca_select(table: DataTable, cfg: SelectorConfig, k: int) -> FeatureSubset:
    """Top-k original attributes by loading score over the retained PCs."""
    if not 1 <= k <= table.n_attrs:
        raise ValueError(f"k={k} out of range for {table.n_attrs} attributes")
    model = pca.fit_pca(zscore_normalize(table), method="svd")
    kept = pca.retain_count(model, cfg.pc_policy)
    ranking = pca.loading_scores(model, kept)
    return FeatureSubset(tuple(j for j, _ in ranking[:k]))


def _preselect_covered(model, kept: int) -> list[int]:
    """Original attributes covered by the retained PCs.

    Each retained component contributes the attribute carrying its
    largest absolute loading; duplicates collapse, order follows the
    components.
    """
    out: list[int] = []
    for c in range(kept):
        j = int(np.argmax(np.abs(model.loadings[:, c])))
        if j not in out:
            out.append(j)
    return out


def rough_pca_select(table: DataTable, cfg: SelectorConfig) -> FeatureSubset:
    """Normalize, keep meaningful PCs, preselect the attributes they cover,
    discretize those columns and reduce them with the rough-set search.

    The result is expressed in original attribute indices and is always a
    subset of the preselection.
    """
    if table.n_attrs < 2:
        raise ValueError("rough-pca needs at least 2 attributes")
    normed = zscore_normalize(table)
    model = pca.fit_pca(normed, method="svd")
    kept = pca.retain_count(model, cfg.pc_policy)
    preselected = sorted(_preselect_covered(model, kept))
    if len(preselected) == 1:
        return FeatureSubset(tuple(preselected))
    reduced = project(normed, FeatureSubset(tuple(preselected)))
    discrete = discretize(reduced, cfg.strategy, cfg.bins)
    local = usqr(discrete)
    return FeatureSubset(tuple(preselected[i] for i in local))


def edr_scores(table: DataTable) -> RankedFeatures:
    """Empirical distribution function of each attribute at its own mean.

    score_j = (1/n) |{i : x_ij <= mean_j}|.  Attributes are ranked by
    ascending score (the minimum-value attributes come first), ties by
    lower index.
    """
    values = table.values
    n = table.n_objects
    scores = (values <= values.mean(axis=0)).sum(axis=0) / n
    order = sorted(range(table.n_attrs), key=lambda j: (scores[j], j))
    return RankedFeatures(tuple((j, float(scores[j])) for j in order))


def edr_select(table: DataTable, k: int) -> FeatureSubset:
    """First k attributes of the EDR ranking."""
    return edr_scores(table).top(k)


def usqr(table: DiscreteTable) -> FeatureSubset:
    """Unsupervised QuickReduct: greedy forward search on mean dependency.

    Starting from the empty set, each round adds the attribute whose
    addition gives the greatest mean dependency over all attributes as
    pseudo-decisions (ties to the lowest index; when no candidate strictly
    improves, the best one is still added so the search always reaches the
    stopping condition).  Stops when the subset's mean dependency equals
    the full set's, which is always 1.

    Every mean dependency shares the denominator n*d, so the search
    compares integer positive-region totals and stops at total n*d.  It
    works on the distinct rows weighted by their counts, and on the group
    ids of the chosen subset: a candidate x only refines those groups, by
    the key ``ids * bins[x] + codes[:, x]``.  A row alone in its group is
    positive for every pseudo-decision under any refinement, so after each
    round such rows move into a settled total (the positive-approximation
    accelerator) and leave the arrays every later candidate sorts.
    """
    codes, weights = roughset.distinct_rows(table)
    bins = table.bins_per_attr
    d = table.n_attrs
    target = table.n_objects * d
    ids = np.zeros(len(weights), dtype=np.int64)
    settled = 0
    chosen: list[int] = []
    remaining = list(range(d))
    while True:
        best, best_total = None, -1
        for x in remaining:
            keys = ids * bins[x] + codes[:, x]
            total = settled + roughset.positive_total(keys, weights, codes)
            if total > best_total:
                best, best_total = x, total
                if total == target:     # no later candidate can exceed it
                    break
        chosen.append(best)
        remaining.remove(best)
        if best_total == target:
            return FeatureSubset(tuple(chosen))
        _, ids, sizes = np.unique(ids * bins[best] + codes[:, best],
                                  return_inverse=True, return_counts=True)
        alone = sizes[ids] == 1
        settled += d * int(weights[alone].sum())
        ids, codes, weights = ids[~alone], codes[~alone], weights[~alone]


def select(table: DataTable, method: str, cfg: SelectorConfig, k: int | None = None) -> FeatureSubset:
    """Run one of the four selectors by id; k applies to pca and edr."""
    if method == "pca":
        if k is None:
            raise ValueError("pca selection needs k")
        return pca_select(table, cfg, k)
    if method == "roughpca":
        return rough_pca_select(table, cfg)
    if method == "edr":
        k = k if k is not None else cfg.edr_k
        if k is None:
            raise ValueError("edr selection needs k")
        return edr_select(table, k)
    if method == "usqr":
        return usqr(discretize(table, cfg.strategy, cfg.bins))
    raise ValueError(f"unknown method {method!r}; valid: {', '.join(METHOD_IDS)}")
