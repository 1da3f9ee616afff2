from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unselect.dataset import DataTable, DiscreteTable, FeatureSubset, discretize, project, zscore_normalize
from unselect.pca import fit_pca, retain_count
from unselect.roughset import brute_force_min_reducts, is_superreduct, mean_dependency_exact
from unselect.selectors import (
    SelectorConfig,
    _preselect_covered,
    edr_scores,
    edr_select,
    pca_select,
    rough_pca_select,
    usqr,
)

CFG = SelectorConfig()


def table(rows, names=None):
    rows = np.asarray(rows, dtype=float)
    names = names or tuple(f"a{j+1}" for j in range(rows.shape[1]))
    return DataTable(values=rows, attr_names=names)


def dtable(columns):
    codes = np.asarray(columns, dtype=np.int64).T
    bins = tuple(int(codes[:, j].max()) + 1 for j in range(codes.shape[1]))
    return DiscreteTable(
        codes=codes, bins_per_attr=bins,
        attr_names=tuple(f"a{j+1}" for j in range(codes.shape[1])),
    )


# ---------------------------------------------------------------------------
# EDR

def test_edr_score_simple_column():
    t = table([[1], [2], [3]])
    assert edr_scores(t).entries[0][1] == pytest.approx(2 / 3)


def test_edr_score_skewed_column():
    t = table([[0], [0], [0], [10]])
    assert edr_scores(t).entries[0][1] == pytest.approx(3 / 4)


def test_edr_score_symmetric_column():
    t = table([[-1], [1]])
    assert edr_scores(t).entries[0][1] == pytest.approx(1 / 2)


def test_edr_ranking_ascending_with_index_ties():
    t = table([[1, 1, 0], [2, 2, 0], [3, 3, 10]])
    ranked = [j for j, _ in edr_scores(t).entries]
    # col 3 scores 2/3 with the others; ties resolve to the lowest index
    assert ranked == [0, 1, 2]


def test_edr_select_is_prefix_of_ranking(diabetes):
    full = edr_select(diabetes, diabetes.n_attrs)
    for k in range(1, diabetes.n_attrs):
        assert edr_select(diabetes, k).indices == full.indices[:k]


def test_edr_select_rejects_bad_k(diabetes):
    with pytest.raises(ValueError):
        edr_select(diabetes, 0)
    with pytest.raises(ValueError):
        edr_select(diabetes, 9)


def test_edr_diabetes_matches_published_selection(diabetes):
    assert edr_select(diabetes, 4).to_one_based() == "3,4,6,2"


def test_edr_heart_matches_published_selection(heart):
    assert edr_select(heart, 4).to_one_based() == "2,8,11,1"


@settings(max_examples=40, deadline=None)
@given(
    a=st.sampled_from([0.5, 1.0, 2.0, 8.0]),
    b=st.integers(-50, 50),
    col=st.integers(0, 7),
    seed=st.integers(0, 10_000),
)
def test_edr_affine_invariance(a, b, col, seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(-100, 100, size=(12, 8)).astype(float)
    t1 = table(values)
    scaled = values.copy()
    scaled[:, col] = a * scaled[:, col] + b
    t2 = table(scaled)
    s1, s2 = edr_scores(t1), edr_scores(t2)
    assert s1.entries == s2.entries
    assert all(0.0 <= s <= 1.0 for _, s in s1.entries)


# ---------------------------------------------------------------------------
# USQR

def test_usqr_single_discerning_attribute():
    # first attribute separates every object; the rest are redundant
    t = dtable([[0, 1, 2, 3], [0, 0, 1, 1], [1, 1, 0, 0]])
    assert usqr(t).indices == (0,)


def test_usqr_constant_table_picks_lowest_index():
    t = dtable([[0, 0, 0], [0, 0, 0]])
    assert usqr(t).indices == (0,)


def test_usqr_output_is_superreduct_and_not_smaller_than_optimum():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n, d = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        t = DiscreteTable(
            codes=rng.integers(0, 2, size=(n, d)),
            bins_per_attr=(2,) * d,
            attr_names=tuple(f"a{j}" for j in range(d)),
        )
        result = usqr(t)
        assert is_superreduct(t, result.indices)
        optimum = brute_force_min_reducts(t)
        assert len(result) >= len(optimum[0])


def test_usqr_is_deterministic():
    rng = np.random.default_rng(22)
    t = DiscreteTable(
        codes=rng.integers(0, 3, size=(8, 5)),
        bins_per_attr=(3,) * 5,
        attr_names=tuple(f"a{j}" for j in range(5)),
    )
    assert usqr(t).indices == usqr(t).indices


def test_usqr_insertion_order_is_greedy_order():
    # attribute 3 alone gives the highest mean dependency, so it is added
    # first even though attribute 1 would come first by index
    t = dtable([[0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 2, 3]])
    result = usqr(t)
    assert result.indices[0] == 2
    assert is_superreduct(t, result.indices)


def reference_usqr(t):
    """The greedy search scored from scratch: every candidate subset
    chosen + [x] is regrouped and its mean dependency compared as an exact
    rational, against the full set's.  The incremental search in usqr must
    return exactly this subset."""
    d = t.n_attrs
    target = mean_dependency_exact(t, range(d))
    chosen, remaining = [], list(range(d))
    while True:
        best, best_value = None, Fraction(-1)
        for x in remaining:
            value = mean_dependency_exact(t, chosen + [x])
            if value > best_value:
                best, best_value = x, value
        chosen.append(best)
        remaining.remove(best)
        if best_value == target:
            return tuple(chosen)


@st.composite
def discrete_tables(draw):
    """n in [1, 40], d in [1, 8]; each column takes 1-3 codes that need not
    be contiguous (a 1-code column is constant), under a bin count that may
    exceed the largest code; rows repeat from a smaller pool of rows."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 8))
    values = [draw(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True))
              for _ in range(d)]
    pool = [[draw(st.sampled_from(v)) for v in values]
            for _ in range(draw(st.integers(1, n)))]
    rows = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)]
    bins = tuple(max(v) + 1 + draw(st.integers(0, 2)) for v in values)
    return DiscreteTable(codes=np.asarray(rows), bins_per_attr=bins,
                         attr_names=tuple(f"a{j}" for j in range(d)))


@settings(max_examples=300, deadline=None)
@given(discrete_tables())
def test_usqr_equals_reference_search(t):
    assert usqr(t).indices == reference_usqr(t)


def test_usqr_non_contiguous_codes_with_duplicates():
    # with one attribute the full-set group ids are the raw codes 2, 1, 1,
    # which are not compact: row weights must come from the distinct ids
    t = DiscreteTable(codes=np.array([[2], [1], [1]]), bins_per_attr=(3,),
                      attr_names=("a",))
    assert usqr(t).indices == reference_usqr(t) == (0,)
    # round one settles the row (4, 0), alone in its group, and round two
    # refines only the rows left
    t = DiscreteTable(codes=np.array([[4, 0], [2, 2], [2, 2], [2, 0], [4, 0]]),
                      bins_per_attr=(5, 3), attr_names=("a", "b"))
    assert usqr(t).indices == reference_usqr(t) == (0, 1)


# ---------------------------------------------------------------------------
# PCA selection

def test_pca_select_all_attributes(diabetes):
    s = pca_select(diabetes, CFG, diabetes.n_attrs)
    assert sorted(s.indices) == list(range(diabetes.n_attrs))


def test_pca_select_constant_column_cannot_rank_first():
    rng = np.random.default_rng(23)
    values = np.column_stack([rng.normal(size=12), np.full(12, 3.0)])
    s = pca_select(table(values), CFG, 1)
    assert s.indices == (0,)


def test_pca_select_breast_is_count_matched(breast):
    # the published breast-cancer selection lists 6 attributes; identity
    # match is not required, only the subset size
    s = pca_select(breast, CFG, 6)
    assert len(s) == 6
    assert len(set(s.indices)) == 6


def test_pca_select_rejects_bad_k(diabetes):
    with pytest.raises(ValueError):
        pca_select(diabetes, CFG, 0)
    with pytest.raises(ValueError):
        pca_select(diabetes, CFG, 99)


# ---------------------------------------------------------------------------
# Rough-PCA

def test_rough_pca_removes_duplicated_column():
    rng = np.random.default_rng(24)
    base = rng.normal(size=(30, 3))
    values = np.column_stack([base[:, 0], base[:, 0], base[:, 1], base[:, 2]])
    s = rough_pca_select(table(values), CFG)
    assert not {0, 1} <= set(s.indices)


def test_rough_pca_result_is_subset_of_preselection(diabetes):
    s = rough_pca_select(diabetes, CFG)
    model = fit_pca(zscore_normalize(diabetes))
    kept = retain_count(model, CFG.pc_policy)
    preselected = set(_preselect_covered(model, kept))
    assert set(s.indices) <= preselected


def test_rough_pca_result_is_superreduct_of_preselected_table(diabetes):
    s = rough_pca_select(diabetes, CFG)
    model = fit_pca(zscore_normalize(diabetes))
    kept = retain_count(model, CFG.pc_policy)
    preselected = sorted(_preselect_covered(model, kept))
    reduced = discretize(
        project(zscore_normalize(diabetes), FeatureSubset(tuple(preselected))),
        CFG.strategy,
        CFG.bins,
    )
    local = tuple(preselected.index(i) for i in s.indices)
    assert is_superreduct(reduced, local)


def test_rough_pca_single_preselected_attribute_returned_directly():
    # one dominant direction: a single retained PC covers one attribute
    rng = np.random.default_rng(25)
    x = rng.normal(size=40)
    values = np.column_stack([x, x * 2.0 + 1e-9 * rng.normal(size=40)])
    t = table(values)
    s = rough_pca_select(t, SelectorConfig(pc_policy=("fixed", 1)))
    assert len(s) == 1


def test_rough_pca_needs_two_attributes():
    with pytest.raises(ValueError):
        rough_pca_select(table([[1], [2]]), CFG)


def test_selectors_invariant_under_row_permutation(ecoli):
    rng = np.random.default_rng(26)
    perm = rng.permutation(ecoli.n_objects)
    shuffled = DataTable(
        values=ecoli.values[perm],
        attr_names=ecoli.attr_names,
        labels=tuple(np.asarray(ecoli.labels, dtype=object)[perm]),
        name=ecoli.name,
    )
    assert pca_select(ecoli, CFG, 3).indices == pca_select(shuffled, CFG, 3).indices
    assert (
        rough_pca_select(ecoli, CFG).indices
        == rough_pca_select(shuffled, CFG).indices
    )
    assert edr_scores(ecoli).entries == edr_scores(shuffled).entries


def test_selector_config_validation():
    with pytest.raises(ValueError):
        SelectorConfig(strategy="mystery")
    with pytest.raises(ValueError):
        SelectorConfig(bins=1)
    with pytest.raises(ValueError):
        SelectorConfig(pc_policy=("magic", 1))
