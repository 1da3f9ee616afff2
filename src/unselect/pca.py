"""Principal component analysis by SVD of the mean-centered data.

Fits a PCModel, decides how many components to keep under several
retention policies, and scores the original attributes from the
loadings.  ``selectors.pca_scores`` ranks the attributes by those
scores, next to ``selectors.edr_scores`` for EDR.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .dataset import DataTable

__all__ = ["PCModel", "fit_pca", "check_policy", "retain_count", "loading_scores"]


@dataclass(frozen=True)
class PCModel:
    """Mean vector, orthonormal loadings, singular values and variance ratios.

    Loadings columns are the principal directions; singular values are
    non-increasing.  ``n_samples`` is kept so eigenvalues (s^2 / (n-1))
    can be recovered for the kaiser retention rule.
    """

    mean: np.ndarray
    loadings: np.ndarray
    singular_values: np.ndarray
    explained_ratio: np.ndarray
    n_samples: int

    @property
    def n_components(self) -> int:
        return self.loadings.shape[1]

    def eigenvalues(self) -> np.ndarray:
        return self.singular_values**2 / (self.n_samples - 1)


def _canonicalize_signs(loadings: np.ndarray) -> np.ndarray:
    """Flip columns so each column's largest-magnitude entry is non-negative.

    SVD is only defined up to per-column sign; pinning it makes outputs
    deterministic and golden-testable.
    """
    pivots = loadings[np.argmax(np.abs(loadings), axis=0), np.arange(loadings.shape[1])]
    return np.where(pivots < 0, -loadings, loadings)


def fit_pca(table: DataTable) -> PCModel:
    """Fit principal components by SVD of the mean-centered data matrix.

    The thin SVD gives min(n, d) components: the right singular vectors
    are the loadings, and s^2 / (n-1) the covariance eigenvalues.
    """
    n = table.values.shape[0]
    if n < 2:
        raise ValueError("PCA needs at least 2 objects")
    mean = table.values.mean(axis=0)
    _, singular, vt = np.linalg.svd(table.values - mean, full_matrices=False)
    eig = singular**2 / (n - 1)
    total = eig.sum()
    ratio = eig / total if total > 0 else np.zeros_like(eig)
    return PCModel(
        mean=mean,
        loadings=_canonicalize_signs(vt.T),
        singular_values=singular,
        explained_ratio=ratio,
        n_samples=n,
    )


def check_policy(policy) -> None:
    """The one rule for a PC retention policy: ``("var", f)`` with f in
    (0, 1], ``("kaiser", None)`` or ``("fixed", k)`` with a whole k >= 1.
    Raises ValueError for anything else."""
    kind, arg = policy
    valid = {"var": isinstance(arg, numbers.Real) and 0.0 < arg <= 1.0,
             "kaiser": arg is None,
             "fixed": isinstance(arg, numbers.Integral) and arg >= 1}
    if not valid.get(kind, False):
        raise ValueError(f"invalid pc policy {policy!r}: use var:F with 0 < F <= 1, "
                         "kaiser, or fixed:K with a whole K >= 1")


def retain_count(model: PCModel, policy) -> int:
    """Number of components to keep under a retention policy.

    Policies are ``("var", f)`` for the smallest k whose cumulative
    explained ratio reaches f, ``("kaiser", None)`` for eigenvalues above
    the mean eigenvalue, and ``("fixed", k)`` clamped to the model size.
    Always at least 1; ``check_policy`` rejects any other policy.
    """
    check_policy(policy)
    kind, arg = policy
    if kind == "var":
        cum = np.cumsum(model.explained_ratio)
        k = int(np.searchsorted(cum, arg - 1e-12)) + 1
        return min(max(k, 1), model.n_components)
    if kind == "kaiser":
        eig = model.eigenvalues()
        return max(int(np.count_nonzero(eig > eig.mean())), 1)
    return min(int(arg), model.n_components)


def loading_scores(model: PCModel, k: int) -> list[tuple[int, float]]:
    """Rank original attributes by variance explained within the kept subspace.

    score(j) = sum over components c <= k of eigenvalue_c * loading[j, c]^2,
    i.e. the share of attribute j's variance the retained components carry
    (its communality).  Ranked descending, ties broken by lower attribute
    index.
    """
    if not 1 <= k <= model.n_components:
        raise ValueError(f"k={k} out of range for {model.n_components} components")
    eig = model.eigenvalues()[:k]
    scores = (model.loadings[:, :k] ** 2 * eig).sum(axis=1)
    order = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
    return [(j, float(scores[j])) for j in order]
