from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unselect import roughset
from unselect.dataset import DataTable, DiscreteTable, FeatureSubset, discretize, project, zscore_normalize
from unselect.pca import fit_pca, retain_count
from unselect.roughset import _pack_codes, brute_force_min_reducts, is_superreduct, usqr
from unselect.selectors import (
    SelectorConfig,
    _preselect_covered,
    edr_scores,
    edr_select,
    pca_scores,
    pca_select,
    rough_pca_select,
    select,
)

from rough_oracle import dtable, naive_mean_dependency

CFG = SelectorConfig()


def table(rows, names=None):
    rows = np.asarray(rows, dtype=float)
    names = names or tuple(f"a{j+1}" for j in range(rows.shape[1]))
    return DataTable(values=rows, attr_names=names)


# ---------------------------------------------------------------------------
# EDR

def test_edr_score_simple_column():
    t = table([[1], [2], [3]])
    assert edr_scores(t)[0][1] == pytest.approx(2 / 3)


def test_edr_score_skewed_column():
    t = table([[0], [0], [0], [10]])
    assert edr_scores(t)[0][1] == pytest.approx(3 / 4)


def test_edr_score_symmetric_column():
    t = table([[-1], [1]])
    assert edr_scores(t)[0][1] == pytest.approx(1 / 2)


def test_edr_ranking_ascending_with_index_ties():
    t = table([[1, 1, 0], [2, 2, 0], [3, 3, 10]])
    ranked = [j for j, _ in edr_scores(t)]
    # col 3 scores 2/3 with the others; ties resolve to the lowest index
    assert ranked == [0, 1, 2]


def test_edr_select_is_prefix_of_ranking(diabetes):
    full = edr_select(diabetes, diabetes.n_attrs)
    for k in range(1, diabetes.n_attrs):
        assert edr_select(diabetes, k).indices == full.indices[:k]


def test_a_ranked_subset_compares_hashes_and_reprs_as_its_indices(diabetes):
    s = edr_select(diabetes, 4)
    plain = FeatureSubset(s.indices)
    assert s.ranking is not None and plain.ranking is None
    assert s == plain and hash(s) == hash(plain) and repr(s) == repr(plain)


@pytest.mark.parametrize("method, k", [("pca", 3), ("edr", 4), ("usqr", None),
                                       ("roughpca", None)])
def test_select_carries_the_ranking_of_pca_and_edr_only(diabetes, method, k):
    ranking = {"pca": pca_scores(diabetes, CFG), "edr": edr_scores(diabetes)}.get(method)
    assert select(diabetes, method, CFG, k).ranking == ranking


def test_select_refuses_an_unknown_method_naming_the_valid_ones(diabetes):
    with pytest.raises(ValueError) as err:
        select(diabetes, "magic", CFG)
    assert str(err.value) == "unknown method 'magic'; valid: pca, roughpca, edr, usqr"


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
    assert s1 == s2
    assert all(0.0 <= s <= 1.0 for _, s in s1)


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
    """The greedy search scored from scratch by the tests' oracle: every
    candidate subset chosen + [x] is regrouped and its mean dependency
    compared as an exact rational, against the full set's.  The
    incremental search in usqr must return exactly this subset."""
    codes, d = t.codes.tolist(), t.n_attrs
    target = naive_mean_dependency(codes, range(d))
    chosen, remaining = [], list(range(d))
    while True:
        best, best_value = None, Fraction(-1)
        for x in remaining:
            value = naive_mean_dependency(codes, chosen + [x])
            if value > best_value:
                best, best_value = x, value
        chosen.append(best)
        remaining.remove(best)
        if best_value == target:
            return tuple(chosen)


@st.composite
def discrete_tables(draw):
    """n in [1, 40], d in [1, 8] drawn columns; each takes 1-3 codes that
    need not be contiguous (a 1-code column is constant), under a bin count
    that may exceed the largest code; rows repeat from a smaller pool of
    rows.  Up to three more columns copy a drawn column or relabel its
    codes cyclically, so the search meets columns that settle before they
    are chosen."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 8))
    values = [draw(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True))
              for _ in range(d)]
    pool = [[draw(st.sampled_from(v)) for v in values]
            for _ in range(draw(st.integers(1, n)))]
    rows = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)]
    bins = [max(v) + 1 + draw(st.integers(0, 2)) for v in values]
    twins = st.tuples(st.integers(0, d - 1), st.integers(0, 2))
    for j, shift in draw(st.lists(twins, max_size=3)):
        v = values[j]
        relabel = {c: v[(i + shift) % len(v)] for i, c in enumerate(v)}
        rows = [r + [relabel[r[j]]] for r in rows]
        bins.append(bins[j])
    return DiscreteTable(codes=np.asarray(rows), bins_per_attr=tuple(bins),
                         attr_names=tuple(f"a{j}" for j in range(len(bins))))


@settings(max_examples=300, deadline=None)
@given(discrete_tables())
def test_usqr_equals_reference_search(t):
    assert usqr(t).indices == reference_usqr(t)


@st.composite
def wide_tables(draw):
    """Tables whose packed rows span at least two words: 33-40 columns with
    codes up to 3 (2-bit fields, 32 to a word), or 7-12 columns with codes
    up to 600 (10-bit fields, 6 to a word).  Each column takes 1-3 codes,
    column 0 its top one; n in [1, 12], rows repeat from a smaller pool."""
    top = draw(st.sampled_from([3, 600]))
    d = draw(st.integers(33, 40) if top == 3 else st.integers(7, 12))
    n = draw(st.integers(1, 12))
    values = [draw(st.lists(st.integers(0, top), min_size=1, max_size=3, unique=True))
              for _ in range(d)]
    pool = [[draw(st.sampled_from(v)) for v in values]
            for _ in range(draw(st.integers(1, n)))]
    pool[0][0] = top
    rows = [pool[0]] + [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n - 1)]
    return DiscreteTable(codes=np.asarray(rows), bins_per_attr=(top + 1,) * d,
                         attr_names=tuple(f"a{j}" for j in range(d)))


@settings(max_examples=100, deadline=None)
@given(wide_tables())
def test_usqr_on_words_spanning_two_words_equals_reference_search(t):
    assert _pack_codes(t.codes).words.shape[1] >= 2
    assert usqr(t).indices == reference_usqr(t)


@st.composite
def wide_code_tables(draw):
    """A ``discrete_tables()`` table with one or two more columns whose
    codes reach 2**16 - 1 or pass 2**16: a round with such a column live
    keys in int64, and a later round, once it is chosen or settled, may
    key in uint16 again."""
    t = draw(discrete_tables())
    codes = st.sampled_from([0, 3, 2**16 - 1, 70_000, 2**20])
    extra = [draw(st.lists(codes, min_size=t.n_objects, max_size=t.n_objects))
             for _ in range(draw(st.integers(1, 2)))]
    bins = t.bins_per_attr + tuple(max(column) + 1 for column in extra)
    return DiscreteTable(codes=np.column_stack([t.codes, *extra]), bins_per_attr=bins,
                         attr_names=tuple(f"a{j}" for j in range(len(bins))))


@settings(max_examples=200, deadline=None)
@given(wide_code_tables())
def test_usqr_with_codes_past_2_to_16_equals_reference_search(t):
    assert usqr(t).indices == reference_usqr(t)


@settings(max_examples=200, deadline=None)
@given(discrete_tables() | wide_tables() | wide_code_tables())
def test_usqr_does_not_depend_on_the_batch_width(t):
    # one candidate per batch, a few (ties may fall across a batch
    # boundary), and the default
    searches = []
    for cells in (1, 64, roughset._SCORE_CELLS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(roughset, "_SCORE_CELLS", cells)
            s = usqr(t)
        searches.append((s.indices, s.rounds))
    assert searches[0] == searches[1] == searches[2]


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


@pytest.mark.parametrize("a", [[0, 0, 1, 1, 2, 2], [1, 1, 2, 2, 0, 0], [0, 0, 2, 2, 1, 1]])
def test_usqr_keeps_a_column_impure_in_one_group_live(a):
    # after round one picks a, y is constant in two of a's three groups but
    # not in the third (last, first or middle in key order): y must stay a
    # live pseudo-decision and a candidate, and round two must add it
    t = dtable([a, [0, 0, 1, 1, 0, 1]])
    assert usqr(t).indices == reference_usqr(t) == (0, 1)


def test_usqr_never_scores_a_settled_copy(count_calls):
    # a2 relabels a0 cyclically; once a0 is chosen, a2 is constant in every
    # group, so round two scores b alone: key rows 3 + 1, not 3 + 2
    a = [0, 0, 1, 1, 2, 2]
    t = dtable([a, [0, 1, 0, 1, 0, 1], [(x + 1) % 3 for x in a]])
    calls = count_calls(roughset._score)
    s = usqr(t)
    assert s.indices == (0, 1)
    assert [len(keys) for keys, _, _ in calls] == [3, 1]
    assert s.rounds == ((0, 12, 3), (1, 18, 1))
    # the round-two call scores the one live pseudo-decision, b: the low
    # bits of the packed table mark it alone
    _, _, packed = calls[-1]
    assert packed.columns(packed.low).tolist() == [False, True, False]
    assert reference_usqr(t) == (0, 1)


# Every USQR subset of the bundled tables under both binning strategies at
# 2-5 bins, and every default Rough-PCA subset, pinned: a change to how the
# kernel breaks ties or settles rows and columns fails loudly here.
PINNED_USQR = {
    ("lung", "eqwidth"): ("31,37,20,42,54,25,5,34", "8,42,12,6,11,16", "8,3,42,34,2",
                          "8,3,42,34,2"),
    ("lung", "eqfreq"): ("26,37,31,20,34,36,3,6", "31,14,3,6,54,2,10", "8,26,14,3,36,6",
                         "8,3,26,14,21,6"),
    ("breast", "eqwidth"): (
        "1,28,9,5,22,16,25,27,2,12,29,15,23,6,24,10,8,21,4,26,18,3",
        "3,9,28,10,22,25,18,5,2,4,26,12,29,6,21,15,1,27,7,19,8,16,24,30,23",
        "28,1,10,22,25,9,18,29,23,5,6,12,2,26,19,4,21,3,15,30,27,7,8",
        "21,28,16,22,25,9,10,29,2,12,19,4,5,27,23,1,6,15,26,18,7,8"),
    ("breast", "eqfreq"): (
        "1,11,26,29,18,2,25,12,20,19,15,5,9,27,10,24,22,16,23,17,30,13,6,14,3,21,28",
        "1,30,5,11,22,15,16,12,29,19,18,10,23,20,14,9,25,2",
        "21,30,11,2,19,5,12,15,9,16",
        "1,30,15,22,5,19,13,17,6"),
    ("diabetes", "eqwidth"): ("2,6,3,1,8,7,5,4", "8,6,3,2,1,4,7,5", "3,6,2,1,8,4,7,5",
                              "2,3,1,8,4,7,6,5"),
    ("diabetes", "eqfreq"): ("1,2,3,4,5,7,6,8", "1,8,4,7,2,3,6,5", "1,8,2,7,6,3,5,4",
                             "1,8,2,7,3,6,4,5"),
    ("heart", "eqwidth"): ("1,2,11,7,9,3,13,12,8,4,6,10,5", "3,11,1,12,4,8,7,2,13,9,5,10,6",
                           "1,3,8,4,12,11,5,7,13,2,9", "5,10,1,3,8,4,12,11,7,13,2,9"),
    ("heart", "eqfreq"): ("1,2,3,5,11,7,4,8,10", "1,2,10,3,4,5,8,7,13,12,11",
                          "1,8,4,5,10,3,7,12,11,2,13", "13,5,8,1,4,3,10,2,11,7"),
    ("ecoli", "eqwidth"): ("3,5,7,1,6,2", "3,7,2,5,1,6,4", "1,6,2,7,5,3", "6,1,2,5,7,3"),
    ("ecoli", "eqfreq"): ("1,2,5,7,6", "1,2,7,5,6", "1,2,7,5,6", "1,6,5,2,7"),
}

PINNED_ROUGH_PCA = {"lung": "6,4,8,38,2,10,12", "breast": "5,8,30,12,29,22,10",
                    "diabetes": "3,4,6,7,8", "heart": "1,2,10,5,7,11", "ecoli": "2,5,6"}


@pytest.mark.parametrize("name, strategy", sorted(PINNED_USQR))
def test_usqr_subsets_of_the_bundled_tables_are_pinned(request, name, strategy):
    t = request.getfixturevalue(name)
    got = tuple(usqr(discretize(t, strategy, bins)).to_one_based() for bins in range(2, 6))
    assert got == PINNED_USQR[name, strategy]


@pytest.mark.parametrize("name", sorted(PINNED_ROUGH_PCA))
def test_rough_pca_subsets_of_the_bundled_tables_are_pinned(request, name):
    assert rough_pca_select(request.getfixturevalue(name), CFG).to_one_based() \
        == PINNED_ROUGH_PCA[name]


def test_usqr_rounds_record_each_choice_its_total_and_the_candidates_it_needed(
        lung, count_calls, monkeypatch):
    # one candidate per batch: the key rows scored are the candidates each
    # round needed, every live one but in the last round, which stops at
    # the winner
    monkeypatch.setattr(roughset, "_SCORE_CELLS", 1)
    calls = count_calls(roughset._score)
    s = usqr(discretize(lung, "eqfreq", 3))
    assert [(a + 1, total, needed) for a, total, needed in s.rounds] == [
        (31, 560, 56), (14, 894, 44), (3, 1363, 43), (6, 1598, 40), (54, 1738, 39),
        (2, 1768, 18), (10, 1792, 1)]
    assert s.rounds[-1][1] == lung.n_objects * lung.n_attrs
    assert len(calls) == sum(needed for _, _, needed in s.rounds)
    assert s == FeatureSubset(s.indices) and repr(s) == repr(FeatureSubset(s.indices))


def test_usqr_rounds_of_breast_are_pinned(breast):
    # breast settles whole columns in the middle of its search: round 8
    # scores 22 candidates after round 7 scored 24, and round 14 scores 9
    # after round 13 scored 16
    s = usqr(discretize(breast, "eqfreq", 3))
    assert " ".join(f"{a + 1}:{total}:{scored}" for a, total, scored in s.rounds) == (
        "1:758:30 30:1854:29 5:3236:28 11:5619:27 22:9091:26 15:12457:25 16:14736:24 "
        "12:15900:22 29:16516:21 19:16817:20 18:16929:19 10:16994:17 23:17034:16 "
        "20:17047:9 14:17057:8 9:17063:4 25:17068:2 2:17070:1")
    assert s.rounds[-1][1] == breast.n_objects * breast.n_attrs


def test_usqr_packs_the_distinct_rows_once_per_search(lung, count_calls, monkeypatch):
    # the live columns are the packed table's low bits, so no round repacks
    packs = count_calls(roughset._pack_codes)
    sorts = count_calls(roughset._score)
    s = usqr(discretize(lung, "eqfreq", 3))
    assert len(packs) == 1
    # lung's 32 distinct rows pack into 2 words, so one batch holds all 56
    # candidates: one sort per round, and none to settle the winner
    assert [len(keys) for keys, _, _ in sorts] == [56, 44, 43, 40, 39, 18, 12]
    monkeypatch.setattr(roughset, "_SCORE_CELLS", 1)
    sorts.clear()
    s = usqr(discretize(lung, "eqfreq", 3))
    assert len(sorts) == sum(needed for _, _, needed in s.rounds)


@st.composite
def declared_bin_counts(draw):
    """A code table (n <= 60, d <= 6, codes < 4) twice: once with each
    column's bin count its largest code + 1, and once with each declared as
    that, 2**31 or 2**62."""
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 6))
    codes = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d),
                                   min_size=n, max_size=n)))
    tight = [int(top) + 1 for top in codes.max(axis=0)]
    loose = [draw(st.sampled_from([b, 2**31, 2**62])) for b in tight]
    names = tuple(f"a{j}" for j in range(d))
    return (DiscreteTable(codes=codes, bins_per_attr=tuple(tight), attr_names=names),
            DiscreteTable(codes=codes, bins_per_attr=tuple(loose), attr_names=names))


@settings(max_examples=200, deadline=None)
@given(declared_bin_counts())
def test_usqr_does_not_depend_on_the_declared_bin_counts(tables):
    tight, loose = usqr(tables[0]), usqr(tables[1])
    assert (loose.indices, loose.rounds) == (tight.indices, tight.rounds)


def test_usqr_of_a_seeded_table_is_pinned_under_wide_bin_counts_and_codes():
    # a key folded from a declared bin count of 2**62 wrapped in int64 and
    # picked attribute 1 in the third round; codes near 2**62 must be ranked
    codes = np.random.default_rng(0).integers(0, 3, size=(40, 4))
    names = ("a", "b", "c", "d")
    tables = [DiscreteTable(codes=codes, bins_per_attr=(3,) * 4, attr_names=names),
              DiscreteTable(codes=codes, bins_per_attr=(2**62,) * 4, attr_names=names),
              DiscreteTable(codes=np.array([0, 2**61, 2**62])[codes],
                            bins_per_attr=(2**62 + 1,) * 4, attr_names=names)]
    for t in tables:
        s = usqr(t)
        assert s.indices == (0, 3, 2, 1)
        assert s.rounds == ((0, 40, 4), (3, 84, 3), (2, 134, 2), (1, 160, 1))


def test_usqr_of_a_seeded_table_keys_in_uint16_then_in_int64(count_calls):
    # round one keys below the radix 300; round two's ~300 groups times 300
    # pass 2**16, so it keys in int64; round two settles all but a few
    # groups, and round three, bounded by those kept, keys in uint16 again
    codes = np.random.default_rng(0).integers(0, 300, size=(800, 3))
    t = DiscreteTable(codes=codes, bins_per_attr=(300,) * 3, attr_names=("a", "b", "c"))
    calls = count_calls(roughset._score)
    s = usqr(t)
    assert [keys.dtype.name for keys, _, _ in calls] == ["uint16", "int64", "uint16"]
    assert s.indices == reference_usqr(t) == (2, 1, 0)
    assert s.rounds == ((2, 922, 3), (1, 2394, 2), (0, 2400, 1))


@pytest.mark.parametrize("name", ["lung", "breast", "diabetes", "heart", "ecoli"])
def test_usqr_of_the_bundled_tables_sorts_uint16_keys(request, count_calls, name):
    # every round's groups times its largest radix stays within 2**16, so
    # every sort is numpy's radix sort of uint16 keys, not an int64 sort
    calls = count_calls(roughset._score)
    usqr(discretize(request.getfixturevalue(name), "eqfreq", 3))
    assert calls and {keys.dtype.name for keys, _, _ in calls} == {"uint16"}


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


@pytest.mark.parametrize("value", [0.1, 0.3, -0.7, 1e-300, 123.456])
@pytest.mark.parametrize("n", [3, 7, 10, 49])
def test_edr_constant_column_scores_one_and_cannot_rank_first(value, n):
    # every value of a constant column equals its mean, though the computed
    # mean of seven 0.1s rounds below 0.1
    t = table(np.column_stack([np.full(n, value), np.arange(n)]))
    assert dict(edr_scores(t))[0] == 1.0
    assert edr_select(t, 1).indices == (1,)


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
    # one dominant direction: a single retained PC covers one attribute,
    # and USQR on that one column returns it
    rng = np.random.default_rng(25)
    x = rng.normal(size=40)
    values = np.column_stack([x, x * 2.0 + 1e-9 * rng.normal(size=40)])
    t = table(values)
    s = rough_pca_select(t, SelectorConfig(pc_policy=("fixed", 1)))
    assert len(s) == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0, 1e6]), min_size=1, max_size=30),
       st.sampled_from(["eqwidth", "eqfreq"]), st.integers(2, 5))
def test_usqr_on_one_column_returns_it(column, strategy, bins):
    # rough_pca_select has no shortcut for a single preselected attribute
    assert usqr(discretize(table([[v] for v in column]), strategy, bins)).indices == (0,)


@pytest.mark.parametrize("column", [[1.0, 2.0, 3.0, 4.0, 8.0], [5.0, 5.0, 5.0]],
                         ids=["varying", "constant"])
@pytest.mark.parametrize("policy", [("var", 0.90), ("kaiser", None), ("fixed", 3)])
@pytest.mark.parametrize("strategy", ["eqfreq", "eqwidth"])
def test_rough_pca_on_one_attribute_equals_usqr(column, policy, strategy):
    t = table([[v] for v in column])
    cfg = SelectorConfig(pc_policy=policy, strategy=strategy)
    assert select(t, "roughpca", cfg) == select(t, "usqr", cfg) == FeatureSubset((0,))


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
    assert edr_scores(ecoli) == edr_scores(shuffled)


def test_selector_config_validation():
    with pytest.raises(ValueError):
        SelectorConfig(strategy="mystery")
    with pytest.raises(ValueError):
        SelectorConfig(bins=1)
    with pytest.raises(ValueError):
        SelectorConfig(pc_policy=("magic", 1))


@pytest.mark.parametrize("policy", [("var", 1.5), ("var", 0.0), ("fixed", 0),
                                    ("kaiser", 1)])
def test_selector_config_rejects_an_invalid_policy_argument(policy):
    with pytest.raises(ValueError, match="invalid pc policy"):
        SelectorConfig(pc_policy=policy)
