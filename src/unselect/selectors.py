"""The four unsupervised feature selectors.

Each maps a dataset to an ordered FeatureSubset: PCA loading selection,
the Rough-PCA pipeline, empirical-distribution ranking (EDR), and the
unsupervised QuickReduct greedy search (USQR).  A pca or edr subset
carries the ranking it was cut from.  Every tie anywhere is broken toward
the lowest attribute index so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pca, roughset
from .dataset import (DataTable, DiscreteTable, FeatureSubset, check_binning, discretize,
                      project, zscore_normalize)

__all__ = [
    "SelectorConfig",
    "pca_scores",
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
    the key ``ids * bins[x] + codes[:, x]``.  Each round packs the live
    columns into words once (``roughset.pack_codes``) and scores every
    candidate against them.  After each round ``roughset.pure_groups``
    marks, per group, the live columns its rows disagree on, which settles
    the weight no refinement can change and takes it out of every later
    round:

    - a group with no such column settles its rows, with ``len(live)``
      times their weight.  It holds exactly one row (the
      positive-approximation accelerator): rows are distinct, and rows of
      one group already agree on every chosen and settled column;
    - a column no group disagrees on settles on the rows left.

    A settled column also stops being a candidate.  Adding it would leave
    the groups, and so the total, as they are, while adding any column
    that is still live splits a group it varies in and raises the total,
    so a settled column could never win a round.  The chosen attribute
    settles in the round that adds it, so the live columns are exactly the
    candidates left.

    The subset carries its ``rounds``: per round the attribute added, the
    total after it and the number of candidates scored.  The last total is
    n*d.
    """
    codes, weights = roughset.distinct_rows(table)
    bins = table.bins_per_attr
    target = table.n_objects * table.n_attrs
    ids = np.zeros(len(weights), dtype=np.int64)
    settled = 0
    chosen: list[int] = []
    rounds: list[tuple[int, int, int]] = []
    live = list(range(table.n_attrs))     # original index of each column of codes
    while True:
        packed = roughset.pack_codes(codes)
        best, best_total = None, -1     # best is a position in live
        for i, x in enumerate(live):
            keys = ids * bins[x] + codes[:, i]
            total = settled + roughset.positive_total(keys, weights, packed)
            if total > best_total:
                best, best_total = i, total
                if total == target:     # no later candidate can exceed it
                    break
        chosen.append(live[best])
        rounds.append((live[best], best_total, i + 1))      # i + 1 candidates scored
        if best_total == target:
            return FeatureSubset(tuple(chosen), rounds=tuple(rounds))
        # dense ids, so row g of the flags is group g
        _, ids = np.unique(ids * bins[live[best]] + codes[:, best], return_inverse=True)
        impure = roughset.pure_groups(ids, packed)[2]
        whole = ~impure.any(axis=1)[ids]
        settled += len(live) * int(weights[whole].sum())
        ids, codes, weights = ids[~whole], codes[~whole], weights[~whole]
        columns = ~packed.columns(np.bitwise_or.reduce(impure, axis=0))
        settled += int(columns.sum()) * int(weights.sum())
        codes = codes[:, ~columns]
        live = [x for x, p in zip(live, columns) if not p]


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
