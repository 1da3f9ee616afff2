import numpy as np
import pytest

from unselect.dataset import DataTable, zscore_normalize
from unselect.pca import PCModel, check_policy, fit_pca, loading_scores, retain_count


def table(rows):
    rows = np.asarray(rows, dtype=float)
    return DataTable(values=rows, attr_names=tuple(f"a{j+1}" for j in range(rows.shape[1])))


DIAGONAL = table([[-1, -1], [1, 1]])


def test_perfect_diagonal_correlation():
    model = fit_pca(DIAGONAL)
    first = model.loadings[:, 0]
    assert first == pytest.approx([1 / np.sqrt(2), 1 / np.sqrt(2)], abs=1e-12)
    assert model.singular_values[1] == pytest.approx(0.0, abs=1e-12)


def test_isotropic_data_splits_variance_evenly():
    t = table([[1, 0], [-1, 0], [0, 1], [0, -1]])
    model = fit_pca(t)
    assert model.explained_ratio == pytest.approx([0.5, 0.5], abs=1e-12)


def test_reconstruction_identity():
    rng = np.random.default_rng(3)
    t = table(rng.normal(size=(5, 3)))
    model = fit_pca(t)
    centered = t.values - model.mean
    scores = centered @ model.loadings
    rebuilt = scores @ model.loadings.T
    assert np.max(np.abs(rebuilt - centered)) < 1e-8


def test_orthonormal_loadings():
    rng = np.random.default_rng(4)
    t = table(rng.normal(size=(20, 8)))
    model = fit_pca(t)
    gram = model.loadings.T @ model.loadings
    assert np.max(np.abs(gram - np.eye(model.n_components))) < 1e-8


def test_svd_factorization_identity():
    rng = np.random.default_rng(5)
    t = table(rng.normal(size=(12, 4)))
    model = fit_pca(t)
    centered = t.values - model.mean
    # X = U S V^T with U = X V S^{-1}; verify via projection round trip
    u = centered @ model.loadings / model.singular_values
    rebuilt = u * model.singular_values @ model.loadings.T
    assert np.max(np.abs(rebuilt - centered)) < 1e-8


def test_methods_agree(reference_eigen_pca):
    rng = np.random.default_rng(6)
    t = table(rng.normal(size=(20, 8)))
    a = fit_pca(t)
    singular, loadings = reference_eigen_pca(t)
    assert a.singular_values == pytest.approx(singular, rel=1e-6)
    for c in range(a.n_components):
        assert a.loadings[:, c] == pytest.approx(loadings[:, c], abs=1e-6)


def test_eigenvalue_sum_is_total_variance():
    rng = np.random.default_rng(7)
    t = table(rng.normal(size=(30, 5)))
    model = fit_pca(t)
    total = np.var(t.values, axis=0, ddof=1).sum()
    assert model.eigenvalues().sum() == pytest.approx(total, abs=1e-8)


def test_sign_canonicalization():
    rng = np.random.default_rng(8)
    t = table(rng.normal(size=(15, 4)))
    model = fit_pca(t)
    for c in range(model.n_components):
        col = model.loadings[:, c]
        assert col[np.argmax(np.abs(col))] >= 0


def test_fit_rejects_single_row():
    with pytest.raises(ValueError):
        fit_pca(table([[1, 2]]))


# ---------------------------------------------------------------------------
# retain_count

def model_with_ratio(ratio):
    d = len(ratio)
    eig = np.asarray(ratio, dtype=float)
    singular = np.sqrt(eig * (10 - 1))
    loadings = np.eye(d)
    return PCModel(
        mean=np.zeros(d),
        loadings=loadings,
        singular_values=singular,
        explained_ratio=eig / eig.sum(),
        n_samples=10,
    )


def test_retain_variance_fraction_cumulative():
    m = model_with_ratio([0.7, 0.2, 0.1])
    assert retain_count(m, ("var", 0.9)) == 2
    assert retain_count(m, ("var", 0.95)) == 3
    assert retain_count(m, ("var", 0.5)) == 1


def test_retain_fixed_clamps():
    m = model_with_ratio([0.7, 0.2, 0.1])
    assert retain_count(m, ("fixed", 10)) == 3
    assert retain_count(m, ("fixed", 2)) == 2


def test_retain_kaiser_counts_above_mean_eigenvalue():
    m = model_with_ratio([0.7, 0.2, 0.1])
    # mean eigenvalue = 1/3 of the total; only the first exceeds it
    assert retain_count(m, ("kaiser", None)) == 1


def test_retain_rejects_bad_fraction():
    m = model_with_ratio([1.0])
    for bad in (0.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            retain_count(m, ("var", bad))


@pytest.mark.parametrize("policy", [("var", 0.9), ("var", 1), ("var", 1e-9),
                                    ("kaiser", None), ("fixed", 1), ("fixed", np.int64(5))])
def test_check_policy_accepts(policy):
    check_policy(policy)


@pytest.mark.parametrize("policy", [
    ("var", 0.0), ("var", 1.5), ("var", -0.1), ("var", float("nan")), ("var", None),
    ("var", "0.9"), ("kaiser", 1.0), ("fixed", 0), ("fixed", -2), ("fixed", 1.5),
    ("fixed", None), ("magic", None), ("VAR", 0.9),
])
def test_check_policy_rejects(policy):
    with pytest.raises(ValueError, match="invalid pc policy"):
        check_policy(policy)


@pytest.mark.parametrize("policy", [("fixed", 0), ("kaiser", 2.0), ("magic", None)])
def test_retain_rejects_what_check_policy_rejects(policy):
    with pytest.raises(ValueError, match="invalid pc policy"):
        retain_count(model_with_ratio([0.7, 0.2, 0.1]), policy)


def test_retain_diabetes_cross_checked_by_eigenvalue_cumsum(diabetes):
    normed = zscore_normalize(diabetes)
    model = fit_pca(normed)
    k = retain_count(model, ("var", 0.90))
    # independent oracle: eigendecompose the covariance directly and
    # accumulate the spectrum without touching the SVD code path
    cov = np.cov(normed.values, rowvar=False, ddof=1)
    eig = np.sort(np.linalg.eigvalsh(cov))[::-1]
    cum = np.cumsum(eig) / eig.sum()
    expected = int(np.searchsorted(cum, 0.90 - 1e-12)) + 1
    assert k == expected


# ---------------------------------------------------------------------------
# component scores

def test_transform_score_variances_match_eigenvalues():
    rng = np.random.default_rng(9)
    t = table(rng.normal(size=(40, 4)))
    model = fit_pca(t)
    scores = (t.values - model.mean) @ model.loadings
    variances = scores.var(axis=0, ddof=1)
    assert variances == pytest.approx(model.eigenvalues(), abs=1e-8)


# ---------------------------------------------------------------------------
# loading_scores

def test_identity_loadings_rank_axes_in_component_order():
    # loadings = identity with distinct eigenvalues: each component is one
    # original axis, so the ranking must walk the axes in component order
    eig = np.array([4.0, 2.0, 1.0])
    model = PCModel(
        mean=np.zeros(3),
        loadings=np.eye(3)[:, [1, 2, 0]],   # PC1 -> axis 1, PC2 -> axis 2, PC3 -> axis 0
        singular_values=np.sqrt(eig * 9),
        explained_ratio=eig / eig.sum(),
        n_samples=10,
    )
    ranked = [j for j, _ in loading_scores(model, 3)]
    assert ranked == [1, 2, 0]


def test_equal_loadings_fall_back_to_index_order():
    v = np.full((3, 3), 1 / np.sqrt(3))
    eig = np.array([1.0, 1.0, 1.0])
    model = PCModel(
        mean=np.zeros(3),
        loadings=v,
        singular_values=np.sqrt(eig * 9),
        explained_ratio=eig / 3,
        n_samples=10,
    )
    ranked = [j for j, _ in loading_scores(model, 3)]
    assert ranked == [0, 1, 2]


def test_dominant_variance_column_ranks_first():
    rng = np.random.default_rng(12)
    base = rng.normal(size=(50, 4))
    base[:, 2] *= 100.0            # dominant variance column
    t = table(base)
    # independent check that column 2 really dominates the variance
    variances = t.values.var(axis=0, ddof=1)
    assert np.argmax(variances) == 2
    model = fit_pca(t)
    ranked = [j for j, _ in loading_scores(model, model.n_components)]
    assert ranked[0] == 2


def test_loading_scores_rejects_bad_k():
    model = fit_pca(DIAGONAL)
    with pytest.raises(ValueError):
        loading_scores(model, 0)
    with pytest.raises(ValueError):
        loading_scores(model, 99)
