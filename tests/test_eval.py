import itertools
import json
import os
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import unselect.eval
from unselect.dataset import (
    DataTable,
    FeatureSubset,
    Registry,
    write_csv,
)
from unselect.eval import (
    CLASSIFIERS,
    EvalReport,
    FoldPlan,
    FoldStack,
    KnnModel,
    cross_validate,
    decision_table_fit,
    gaussian_nb_fit,
    knn_fit,
    make_fold_plan,
    render_csv_tables,
    render_text_tables,
    run_benchmark,
)
from unselect.selectors import SelectorConfig, select


def table(rows, labels, names=None):
    rows = np.asarray(rows, dtype=float)
    names = names or tuple(f"a{j+1}" for j in range(rows.shape[1]))
    return DataTable(values=rows, attr_names=names, labels=tuple(labels))


# ---------------------------------------------------------------------------
# fold plans

def test_fold_plan_sizes_and_stratification():
    labels = ["A"] * 13 + ["B"] * 7
    plan = make_fold_plan(labels, 4, seed=3)
    sizes = np.bincount(plan.assignments, minlength=4)
    assert sizes.max() - sizes.min() <= 1
    for cls in "AB":
        members = [f for f, y in zip(plan.assignments, labels) if y == cls]
        counts = np.bincount(members, minlength=4)
        assert counts.max() - counts.min() <= 1


@pytest.mark.parametrize("classifier", sorted(CLASSIFIERS))
@pytest.mark.parametrize("strategy, bins, message", [
    ("bogus", 3, "unknown discretization strategy 'bogus'"),
    ("eqfreq", 0, "bins must be >= 2, got 0"),
], ids=["strategy", "bins"])
def test_cross_validate_checks_the_binning_for_every_classifier(diabetes, classifier,
                                                                strategy, bins, message):
    # nb and knn bin nothing, yet a binning no classifier could use is refused
    plan = make_fold_plan(diabetes.y, 5, seed=1)
    with pytest.raises(ValueError, match=message):
        cross_validate(diabetes, FeatureSubset((0, 1)), classifier, plan,
                       strategy=strategy, bins=bins)


@pytest.mark.parametrize("bins", [3.5, 3.0, np.float64(3.0)])
def test_a_float_bin_count_is_refused_not_used(diabetes, bins):
    # 3.5 failed inside range(), and an eqwidth 3.0 was used as 3
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        SelectorConfig(bins=bins)
    plan = make_fold_plan(diabetes.y, 5, seed=1)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        cross_validate(diabetes, FeatureSubset((0, 1)), "dtable", plan, strategy="eqwidth",
                       bins=bins)


def test_cross_validate_refuses_an_empty_subset(diabetes):
    # it scored the class priors alone, without a word
    plan = make_fold_plan(diabetes.y, 5, seed=1)
    with pytest.raises(ValueError, match="empty subset"):
        cross_validate(diabetes, FeatureSubset(()), "nb", plan)


def test_fold_plan_is_deterministic():
    labels = ["A", "B"] * 10
    assert make_fold_plan(labels, 5, 9) == make_fold_plan(labels, 5, 9)
    assert make_fold_plan(labels, 5, 9) != make_fold_plan(labels, 5, 10)


def test_fold_plan_indices_split_the_rows():
    labels = ["A", "B", "B"] * 7
    plan = make_fold_plan(labels, 4, seed=2)
    for f in range(4):
        test_idx = plan.fold_indices(f)
        assert list(test_idx) == [i for i, a in enumerate(plan.assignments) if a == f]
        both = np.sort(np.concatenate([test_idx, plan.train_indices(f)]))
        assert list(both) == list(range(21))
    assert hash(plan) == hash(make_fold_plan(labels, 4, seed=2))


def test_fold_plan_builds_each_folds_test_rows_once_read_only():
    plan = make_fold_plan(["A", "B", "B"] * 7, 4, seed=2)
    for f in range(4):
        assert plan.fold_indices(f) is plan.fold_indices(f)
        assert not plan.fold_indices(f).flags.writeable
    for fold in (-1, 4):
        for indices in (plan.fold_indices, plan.train_indices):
            with pytest.raises(ValueError, match=rf"^fold must lie in \[0, 4\), got {fold}$"):
                indices(fold)


def test_fold_plan_leave_one_out_allowed():
    labels = ["A", "B", "A", "B"]
    plan = make_fold_plan(labels, 4, 1)
    assert sorted(plan.assignments) == [0, 1, 2, 3]


def test_fold_plan_rejects_bad_k():
    with pytest.raises(ValueError):
        make_fold_plan(["A", "B"], 1, 0)
    with pytest.raises(ValueError):
        make_fold_plan(["A", "B"], 3, 0)
    # a plan built directly follows the same run-wide rule, seed included
    with pytest.raises(ValueError, match="fold count must be >= 2"):
        FoldPlan(seed=0, k=1, assignments=(0, 0))
    with pytest.raises(ValueError, match="fold seed must be >= 0"):
        FoldPlan(seed=-5, k=2, assignments=(0, 1))


# ---------------------------------------------------------------------------
# Gaussian naive Bayes

def test_nb_separated_classes_split_at_midpoint():
    train = table([[-10.0], [-9.0], [9.0], [10.0]], ["lo", "lo", "hi", "hi"])
    assert gaussian_nb_fit(train).predict([[-1.0], [1.0]]) == ["lo", "hi"]


def test_nb_single_class_always_wins():
    train = table([[0.0], [1.0]], ["only", "only"])
    assert gaussian_nb_fit(train).predict([[123.0]]) == ["only"]


def test_nb_linearly_separated_2d_training_accuracy():
    # two tight clusters; by hand, each point is far closer to its own
    # class mean on both axes, so the class-conditional densities dominate
    rows = [[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]]
    labels = ["a", "a", "b", "b"]
    train = table(rows, labels)
    assert gaussian_nb_fit(train).predict(rows) == labels


def test_nb_requires_labels():
    t = DataTable(values=np.ones((2, 1)), attr_names=("a",))
    with pytest.raises(ValueError):
        gaussian_nb_fit(t)


def test_nb_variance_floor_keeps_likelihoods_finite():
    train = table([[1.0, 5.0], [1.0, 5.0], [2.0, 5.0]], ["x", "x", "y"])
    model = gaussian_nb_fit(train)
    assert np.all(np.isfinite(model.variances))
    assert model.predict([[1.0, 5.0]])[0] in {"x", "y"}


def test_nb_tie_breaks_to_lexicographically_first():
    train = table([[0.0], [0.0]], ["b", "a"])
    assert gaussian_nb_fit(train).predict([[0.0]]) == ["a"]


def test_nb_batch_matches_row_by_row():
    rng = np.random.default_rng(30)
    values = rng.normal(size=(40, 5))
    labels = tuple(rng.choice(["p", "q", "r"], size=40))
    model = gaussian_nb_fit(table(values, labels))
    rows = rng.normal(size=(25, 5)) * 3
    assert model.predict(rows) == [model.predict(r[None, :])[0] for r in rows]


# ---------------------------------------------------------------------------
# k-NN

def test_knn_exact_match_with_k1():
    train = table([[1.0], [2.0], [3.0]], ["a", "b", "c"])
    assert knn_fit(train, knn_k=1).predict([[2.0]]) == ["b"]


def test_knn_k_equal_n_votes_majority():
    train = table([[0.0], [1.0], [2.0], [3.0]], ["a", "a", "a", "b"])
    assert knn_fit(train, knn_k=4).predict([[3.0]]) == ["a"]


def test_knn_three_point_line():
    train = table([[0.0], [10.0]], ["left", "right"])
    assert knn_fit(train, knn_k=1).predict([[4.0]]) == ["left"]


def test_knn_distance_tie_prefers_lower_training_index():
    train = table([[1.0], [-1.0]], ["first", "second"])
    assert knn_fit(train, knn_k=1).predict([[0.0]]) == ["first"]


def test_knn_vote_tie_goes_to_nearest():
    # k=4 ties the vote 2-2; the class owning the single nearest row wins
    train = table([[0.0], [1.0], [10.0], [11.0]], ["near", "near", "far", "far"])
    model = knn_fit(train, knn_k=4)
    # 10 at 4.4 beats 1 at 4.6; then 1 at 3.0 beats 10 at 6.0
    assert model.predict([[5.6], [4.0]]) == ["far", "near"]


def test_knn_rejects_bad_k():
    train = table([[0.0]], ["a"])
    with pytest.raises(ValueError):
        knn_fit(train, knn_k=2)
    with pytest.raises(ValueError):
        knn_fit(train, knn_k=0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_knn_rejects_columns_whose_scaling_overflows():
    # the mean of 1e308 and 1.5e308 overflows, so every distance would be NaN
    train = table([[1e308, 0.0], [1.5e308, 1.0], [0.0, 2.0]], ["x", "y", "x"])
    with pytest.raises(ValueError, match="attribute 1"):
        knn_fit(train, knn_k=1)


def test_knn_rejects_nan_rows():
    model = knn_fit(table([[0.0], [1.0]], ["x", "y"]), knn_k=1)
    with pytest.raises(ValueError, match="row 2"):
        model.predict([[0.0], [np.nan]])


def test_knn_requires_labels():
    t = DataTable(values=np.ones((2, 1)), attr_names=("a",))
    with pytest.raises(ValueError):
        knn_fit(t, knn_k=1)


def test_knn_scales_with_prep_rows():
    # prep spreads the first attribute 200x wider, so once scaled by prep
    # it hardly counts and the second attribute decides
    train = table([[0.0, 0.0], [1.0, 1.0]], ["a", "b"])
    prep = np.array([[-100.0, 0.0], [100.0, 1.0]])
    assert knn_fit(train, knn_k=1).predict([[0.0, 0.6]]) == ["a"]
    assert knn_fit(train, prep, knn_k=1).predict([[0.0, 0.6]]) == ["b"]


def reference_knn_predict(model, rows):
    """The per-row loop the batched predict replaced: one distance vector
    and one full stable argsort per test row, then a vote that goes to the
    nearest row of a tied class."""
    out = []
    for row in (np.asarray(rows, dtype=float) - model.mean) / model.std:
        dist = np.sqrt(((model.scaled - row) ** 2).sum(axis=1))
        nearest = model.codes[np.argsort(dist, kind="stable")[: model.k]]
        votes = np.bincount(nearest, minlength=len(model.classes))
        out.append(model.classes[nearest[np.argmax(votes[nearest] == votes.max())]])
    return out


# the spread s of a prep column [-s, s]: its z-scores are the values over
# s√2, so a value of 1 scales to about 0.7, 7e17 (squares near float32's
# largest finite value), 7e44 (past it), 7e-23 (squares below float32's
# smallest normal), 7e-46 (below it) or 7e-151 (0 in float32)
PREP_SPREADS = [1.0, 1e-18, 1e-45, 1e22, 1e45, 1e150]


@st.composite
def knn_cases(draw):
    """Training table, test rows, prep rows or None, k in [1, n] and a
    block cap.

    A third of the tables hold integers 0-2, so many training rows lie at
    equal distances and ties cross the k-th boundary; a third hold those
    integers plus multiples of 1e-9, so distances near-tie, apart by more
    than float64's resolution and less than float32's; the rest hold
    floats in [-100, 100].  Labels come from one, two or three classes.
    Half the cases z-score by prep rows [-s, s], mean 0, with one spread s
    from ``PREP_SPREADS`` for every column or one per column.  The cap
    counts block rows x training rows; it ranges from 1 (one row per
    block) to m x n (one block).
    """
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 12))
    cell = draw(st.sampled_from([
        st.integers(0, 2).map(float),
        st.builds(lambda i, j: i + j * 1e-9, st.integers(0, 2), st.integers(0, 3)),
        st.floats(-100, 100, allow_nan=False, allow_infinity=False),
    ]))
    values = draw(arrays(float, (n, d), elements=cell))
    rows = draw(arrays(float, (m, d), elements=cell))
    spread = draw(st.one_of(st.sampled_from(PREP_SPREADS).map(lambda s: np.full(d, s)),
                            arrays(float, d, elements=st.sampled_from(PREP_SPREADS))))
    prep = draw(st.sampled_from([None, np.array([-spread, spread])]))
    classes = draw(st.sampled_from(["a", "ab", "abc"]))
    labels = draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n))
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    block_cells = draw(st.integers(1, m * n))
    return table(values, labels), rows, prep, k, block_cells


# a column of tiny spread scales far test rows to infinite distances, on
# both sides alike; the filter's group width is 1 (each training row a
# group, so the bound is the k-th distance itself), the module's or past
# every n (k groups, the loosest bound); the model's labels come without a
# warning, while the reference loop's squares may overflow
@pytest.mark.filterwarnings("ignore:overflow encountered in square")
@settings(max_examples=300, deadline=None)
@given(knn_cases(), st.sampled_from([1, unselect.eval.KNN_GROUP, 2 ** 31]))
def test_knn_predict_equals_reference_loop(case, group):
    train, rows, prep, k, block_cells = case
    model = knn_fit(train, prep, knn_k=k)
    with mock.patch.object(unselect.eval, "BLOCK_CELLS", block_cells), \
            mock.patch.object(unselect.eval, "KNN_GROUP", group), warnings.catch_warnings():
        warnings.simplefilter("error")
        got = model.predict(rows)
    assert got == reference_knn_predict(model, rows)


def filter_sets(model, rows, group):
    """Each test row's candidate set, fold after fold, as ``_candidates``
    gives it while ``predict_codes`` runs under the group width ``group``."""
    sets = []
    candidates = KnnModel._candidates

    def recorded(self, *args):
        counts, cols = candidates(self, *args)
        sets.extend(map(set, np.split(cols, np.cumsum(counts)[:-1])))
        return counts, cols

    with mock.patch.object(KnnModel, "_candidates", recorded), \
            mock.patch.object(unselect.eval, "KNN_GROUP", group):
        model.predict_codes(rows)
    return sets


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 200), st.integers(1, 4), st.integers(1, 20),
       st.booleans(), st.integers(0, 2 ** 32 - 1), st.data())
def test_knn_group_bound_keeps_every_candidate_of_the_kth_distance(folds, n, d, t, ties,
                                                                   seed, data):
    # integers 0-2 tie across the k-th distance, normal draws do not
    rng = np.random.default_rng(seed)
    values, rows = (rng.integers(0, 3, size=(folds, m, d)) if ties
                    else rng.normal(size=(folds, m, d)) for m in (n, t))
    k = data.draw(st.one_of(st.integers(1, min(n, 5)), st.integers(1, n)))
    model = knn_fit(FoldStack(values=values, y=rng.integers(0, 3, size=(folds, n)),
                              classes=("p", "q", "r")), knn_k=k)
    with mock.patch.object(unselect.eval, "BLOCK_CELLS",
                           data.draw(st.integers(1, folds * t * n))):
        exact = filter_sets(model, rows, 1)
        grouped = filter_sets(model, rows, unselect.eval.KNN_GROUP)
    assert len(exact) == len(grouped) == folds * t
    assert all(e <= g for e, g in zip(exact, grouped))


def assert_candidates_hold_the_k_nearest(model, rows, group):
    """The filter's own promise: each test row's candidates under the group
    width ``group`` hold every training row at or under its exact k-th
    distance, in float64 as the reference loop computes it."""
    sets = filter_sets(model, rows, group)
    assert len(sets) == len(rows)
    for row, got in zip((rows - model.mean) / model.std, sets):
        with np.errstate(over="ignore"):
            dist = np.sqrt(((model.scaled - row) ** 2).sum(axis=1))
        assert set(np.flatnonzero(dist <= np.sort(dist)[model.k - 1]).tolist()) <= got


@settings(max_examples=300, deadline=None)
@given(knn_cases(), st.sampled_from([1, unselect.eval.KNN_GROUP]))
def test_knn_candidates_hold_every_row_at_or_under_the_exact_kth_distance(case, group):
    train, rows, prep, k, block_cells = case
    model = knn_fit(train, prep, knn_k=k)
    with mock.patch.object(unselect.eval, "BLOCK_CELLS", block_cells):
        assert_candidates_hold_the_k_nearest(model, rows, group)


def test_knn_squares_below_float32_normals_keep_every_row_at_or_under_the_kth_distance():
    # prep spreads of 1e17-1e24 scale the rows to z-scores near 1e-20, whose
    # squares float32 holds with a few bits or none, so rounding, not the
    # distances, would decide the filter; below its range rule every
    # training row is a candidate
    rng = np.random.default_rng(43)
    for _ in range(300):
        d, n = rng.integers(1, 4), rng.integers(3, 30)
        k = rng.integers(1, min(n, 4) + 1)
        spread = 10.0 ** rng.uniform(17, 24, size=d)
        values, rows = (rng.normal(size=(m, d)) * 10.0 ** rng.uniform(-2, 2) for m in (n, 5))
        model = knn_fit(table(values, rng.choice(["a", "b"], size=n)),
                        np.array([-spread, spread]), knn_k=k)
        assert_candidates_hold_the_k_nearest(model, rows, unselect.eval.KNN_GROUP)
        assert model.predict(rows) == reference_knn_predict(model, rows)


def test_knn_predict_spans_several_blocks_like_the_reference_loop():
    # 2000 training rows per test row put 32 rows in a block of the
    # module's cap, so 100 test rows take 4 blocks; integer values tie
    rng = np.random.default_rng(36)
    train = table(rng.integers(0, 3, size=(2000, 10)),
                  rng.choice(["p", "q", "r"], size=2000))
    rows = rng.integers(0, 3, size=(100, 10))
    assert 100 > 3 * (unselect.eval.BLOCK_CELLS // 2000)
    for k in (1, 4, 7, 2000):
        model = knn_fit(train, knn_k=k)
        assert model.predict(rows) == reference_knn_predict(model, rows), k


@pytest.fixture
def refined(monkeypatch):
    """Each sub-block k-NN refines, as (rows, most candidates), recorded as
    ``predict`` runs; each must hold one row or fit ``BLOCK_CELLS``."""
    shapes = []
    refine = KnnModel._refine

    def counted(self, rows, idx, filled):
        b, m = idx.shape
        assert b == 1 or b * m * self.scaled.shape[1] <= unselect.eval.BLOCK_CELLS
        shapes.append((b, m))
        return refine(self, rows, idx, filled)

    monkeypatch.setattr(KnnModel, "_refine", counted)
    return shapes


def test_knn_gaussian_blocks_take_the_refine_path(refined):
    rng = np.random.default_rng(37)
    train = table(rng.normal(size=(500, 8)), rng.choice(["p", "q", "r"], size=500))
    rows = rng.normal(size=(300, 8))
    model = knn_fit(train, knn_k=3)
    assert model.predict(rows) == reference_knn_predict(model, rows)
    assert max(m for _, m in refined) < 500


def test_knn_refines_the_candidates_of_many_blocks_together(refined, monkeypatch):
    # a cap of 600 cells puts 10 test rows of 60 training rows in a block,
    # so 50 test rows take 5 blocks, a stack of 3 folds 15; a handful of
    # candidates per row lets several blocks share one refine call, which
    # the fixture holds to the cap
    blocks = []
    candidates = KnnModel._candidates

    def counted(self, *args):
        blocks.append(args[0].shape[:2])
        return candidates(self, *args)

    monkeypatch.setattr(KnnModel, "_candidates", counted)
    monkeypatch.setattr(unselect.eval, "BLOCK_CELLS", 600)
    rng = np.random.default_rng(41)
    train = table(rng.normal(size=(60, 3)), rng.choice(["p", "q", "r"], size=60))
    rows = rng.normal(size=(50, 3))
    model = knn_fit(train, knn_k=3)
    assert model.predict(rows) == reference_knn_predict(model, rows)
    assert blocks == [(1, 10)] * 5
    assert 1 <= len(refined) < len(blocks)
    blocks.clear(), refined.clear()
    values = rng.normal(size=(3, 60, 3))
    y = rng.integers(0, 3, size=(3, 60))
    stack = knn_fit(FoldStack(values=values, y=y, classes=("p", "q", "r")), knn_k=3)
    got = stack.predict_codes(np.stack([rows] * 3))
    for fold in range(3):
        alone = knn_fit(table(values[fold], np.array(["p", "q", "r"])[y[fold]]), knn_k=3)
        assert [stack.classes[c] for c in got[fold]] == reference_knn_predict(alone, rows)
    assert len(blocks) == 15 and 1 <= len(refined) < len(blocks)


def test_knn_duplicated_training_rows_match_the_reference_loop(refined):
    # each test row that copies a base row lies at distance 0 from about 25
    # training rows, which the Gram form puts a rounding error off 0
    rng = np.random.default_rng(38)
    base = rng.normal(size=(12, 5))
    train = table(base[rng.integers(0, 12, size=300)], rng.choice(["p", "q", "r"], size=300))
    rows = np.vstack([base, rng.normal(size=(20, 5))])
    for k in (1, 5, 26, 60):
        model = knn_fit(train, knn_k=k)
        assert model.predict(rows) == reference_knn_predict(model, rows), k
    assert max(m for _, m in refined) < 300


def test_knn_rows_equidistant_across_the_kth_boundary_match_the_reference_loop():
    # the origin is the mean of the training rows and the columns spread
    # alike, so the 8 rows at +-1 on one axis lie at one exact distance
    # from it, as do the 8 at +-2; labels alternate, so which tied rows
    # fill the k nearest decides the vote
    unit = np.vstack([np.eye(4), -np.eye(4)])
    train = table(np.vstack([unit, 2 * unit, [[0.0] * 4]]),
                  ["a", "b", "b", "a", "b", "a", "a", "b"] * 2 + ["c"])
    rows = np.vstack([np.zeros(4), unit, 0.5 * unit])
    for k in range(1, 18):
        model = knn_fit(train, knn_k=k)
        assert model.predict(rows) == reference_knn_predict(model, rows), k


def test_knn_offset_columns_match_the_reference_loop(refined):
    # about half the training rows sit 1e8 from the rest, so the scaled far
    # cluster's Gram-form distances cancel to rounding noise: every far row
    # becomes a candidate, and the exact distances still rank them
    rng = np.random.default_rng(39)
    far = rng.random(300) < 0.5
    train = table(rng.integers(0, 3, size=(300, 4)) + 1e8 * far[:, None],
                  rng.choice(["p", "q"], size=300))
    rows = np.vstack([rng.integers(0, 3, size=(30, 4)) + 1e8,
                      rng.integers(0, 3, size=(10, 4))])
    for k in (1, 3, 10):
        model = knn_fit(train, knn_k=k)
        assert model.predict(rows) == reference_knn_predict(model, rows), k
    assert max(m for _, m in refined) < 300


@pytest.mark.parametrize("n", [80, 85])
def test_knn_nearest_rows_in_one_filter_group_match_the_reference_loop(n):
    # the filter bounds each row's k-th distance by the k-th smallest
    # minimum over groups of training rows m = n // 8 = 10 apart (k <= m
    # here), and the n % m leftover rows join the first groups; the near
    # copies of the test rows sit at 0, m, 2m, ... and, with 85 rows, at
    # 80, all in group 0, so every other group's minimum is a far row and
    # the bound is loose; a stack of two such folds covers the fold axis
    # of the bound
    assert n // unselect.eval.KNN_GROUP == 10
    rng = np.random.default_rng(42)
    near = np.arange(0, n, 10)

    def fold_values():
        values = rng.normal(5.0, 1.0, size=(n, 4))
        values[near] = rng.normal(0.0, 0.01, size=(len(near), 4))
        return values

    rows = rng.normal(0.0, 0.01, size=(12, 4))
    for k in (1, 2, 3, 5, len(near)):
        model = knn_fit(table(fold_values(), rng.choice(["p", "q", "r"], size=n)), knn_k=k)
        assert model.predict(rows) == reference_knn_predict(model, rows), k
        values = np.stack([fold_values(), fold_values()])
        y = rng.integers(0, 3, size=(2, n))
        stack = knn_fit(FoldStack(values=values, y=y, classes=("p", "q", "r")), knn_k=k)
        got = stack.predict_codes(np.stack([rows, rows]))
        for fold in range(2):
            alone = knn_fit(table(values[fold], np.array(["p", "q", "r"])[y[fold]]), knn_k=k)
            assert [stack.classes[c] for c in got[fold]] == reference_knn_predict(alone, rows), k


@pytest.mark.filterwarnings("ignore:overflow encountered in square")
def test_knn_infinite_distances_make_every_row_a_candidate(refined):
    # the second column spreads about 1e-153, so a test row at 100 there
    # scales past the root of the largest float and its squares overflow
    train = table([[0.0, 0.0], [1.0, 1e-153], [2.0, 0.0], [3.0, 1e-153]], "abab")
    rows = [[0.5, 0.0], [2.5, 100.0], [1.0, -100.0]]
    model = knn_fit(train, knn_k=1)
    assert model.predict(rows) == reference_knn_predict(model, rows)
    assert refined == [(3, 4)]


def test_knn_distances_past_the_largest_float_are_infinite_without_a_warning():
    # the column spreads about 4e-158, so the test row at 1.0 lies past the
    # root of the largest float from every training row: all tie at inf
    # and the lowest training index wins
    train = table([[8.8e-158], [0.0], [0.0], [0.0]], "baab")
    assert knn_fit(train, knn_k=1).predict([[1.0], [0.0]]) == ["b", "a"]


def test_knn_every_row_a_candidate_is_refined_in_sub_blocks(refined):
    # with k = n every training row is a candidate, and one block of 327
    # rows x 200 candidates x 3 attributes exceeds the cap, so the refine
    # step takes sub-blocks of 2^16 // 600 = 109 rows
    rng = np.random.default_rng(40)
    train = table(rng.normal(size=(200, 3)), rng.choice(["p", "q", "r"], size=200))
    rows = rng.normal(size=(327, 3))
    model = knn_fit(train, knn_k=200)
    assert model.predict(rows) == reference_knn_predict(model, rows)
    assert refined == [(109, 200)] * 3


# ---------------------------------------------------------------------------
# decision table
#
# Two equal-width bins split each column below and above its midpoint,
# so the numeric columns below code to 0 and 1 exactly as written.

def coded(columns, labels):
    return table(np.asarray(columns, dtype=float).T, labels)


def test_decision_table_majority_per_tuple():
    t = coded([[0, 0, 0, 1]], ["A", "A", "B", "B"])
    model = decision_table_fit(t, strategy="eqwidth", bins=2)
    assert model.predict([[0], [1]]) == ["A", "B"]


def test_decision_table_unseen_falls_back_to_global_majority():
    t = coded([[0, 0, 1], [0, 0, 1]], ["A", "A", "B"])
    model = decision_table_fit(t, strategy="eqwidth", bins=2)
    assert model.predict([[0, 1], [1, 0]]) == ["A", "A"]


def test_decision_table_single_row():
    # a constant column has no cut points: every value codes to bin 0
    t = coded([[0]], ["only"])
    model = decision_table_fit(t, strategy="eqwidth", bins=2)
    assert model.predict([[0], [9]]) == ["only", "only"]


def test_decision_table_tie_breaks_lexicographically():
    t = coded([[0, 0]], ["B", "A"])
    model = decision_table_fit(t, strategy="eqwidth", bins=2)
    assert model.predict([[0]]) == ["A"]


def reference_codes(values, cuts):
    """The per-column loop apply_cut_points replaced: each column's bins by
    ``np.searchsorted`` on its cut points, a list that is empty for a column
    constant in the training rows."""
    codes = np.zeros(values.shape, dtype=np.int64)
    for j, edges in enumerate(cuts):
        codes[:, j] = np.searchsorted(edges, values[:, j], side="right")
    return codes


def reference_decision_table(train, cuts):
    """Lookup and fallback of the per-bucket majority loop the batched fit
    replaced; ties go to the lexicographically smallest class."""
    def majority(labels):
        counts = {}
        for y in labels:
            counts[y] = counts.get(y, 0) + 1
        top = max(counts.values())
        return min(c for c, v in counts.items() if v == top)

    buckets = {}
    for key, y in zip(map(tuple, reference_codes(train.values, cuts).tolist()),
                      train.labels):
        buckets.setdefault(key, []).append(y)
    return {key: majority(ys) for key, ys in buckets.items()}, majority(train.labels)


def reference_rows(train, cuts):
    """Every training row, then one row for each bin tuple no training row
    has.  A cut point codes to the bin above it, and a value below the first
    cut to bin 0."""
    per_column = [np.r_[edges[:1] - 1, edges] if len(edges) else np.zeros(1)
                  for edges in cuts]
    grid = np.array(list(itertools.product(*per_column)), dtype=float)
    seen = set(map(tuple, reference_codes(train.values, cuts).tolist()))
    unseen = [row for row, key in zip(grid, map(tuple, reference_codes(grid, cuts).tolist()))
              if key not in seen]
    return np.vstack([train.values, *unseen])


def assert_predicts_like_reference(model, train):
    """The model labels each reference row as the oracle's lookup, or its
    fallback for a bin tuple the lookup lacks.  The model is one fold's; a
    column constant in its rows has +inf cuts, which the oracle lists as no
    cuts."""
    cuts = [edges[np.isfinite(edges)] for edges in model.cuts[0]]
    lookup, fallback = reference_decision_table(train, cuts)
    rows = reference_rows(train, cuts)
    keys = map(tuple, reference_codes(rows, cuts).tolist())
    assert model.predict(rows) == [lookup.get(key, fallback) for key in keys]


def test_decision_table_equal_votes_go_to_the_smallest_class():
    # bucket (0, 0) ties c and b 2-2, the whole table ties a, b and c 2-2-2
    t = coded([[0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 1, 1]], ["c", "b", "b", "c", "a", "a"])
    model = decision_table_fit(t, strategy="eqwidth", bins=2)
    assert model.predict([[0, 0], [1, 1], [0, 1], [1, 0]]) == ["b", "a", "a", "a"]
    assert_predicts_like_reference(model, t)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    arrays(float, (n, 2), elements=st.integers(0, 3).map(float)),
    st.lists(st.sampled_from(["B", "a", "b", "c10", "c9"]), min_size=n, max_size=n),
)))
def test_decision_table_fit_equals_reference_buckets(case):
    values, labels = case
    t = table(values, labels)
    model = decision_table_fit(t, strategy="eqwidth", bins=3)
    assert_predicts_like_reference(model, t)


def test_decision_table_requires_labels():
    t = DataTable(values=np.ones((2, 1)), attr_names=("a",))
    with pytest.raises(ValueError):
        decision_table_fit(t)


def test_decision_table_owns_cut_points_fit_on_prep():
    t = coded([[0, 1]], ["A", "B"])
    own = decision_table_fit(t, strategy="eqwidth", bins=2)       # cut at 0.5
    wide = decision_table_fit(t, np.array([[0.0], [3.0]]), strategy="eqwidth",
                              bins=2)                            # cut at 1.5
    assert own.predict([[1.0]]) == ["B"]
    assert wide.predict([[1.0]]) == ["A"]


# ---------------------------------------------------------------------------
# cross-validation

def test_cv_constant_features_behave_like_majority_classifier():
    # every row codes to the same tuple, so the decision table predicts the
    # training majority; on balanced binary data that is ~50%
    rng = np.random.default_rng(31)
    n = 40
    values = np.ones((n, 2))
    labels = tuple(np.where(rng.permutation(n) < n // 2, "pos", "neg"))
    t = DataTable(values=values, attr_names=("a", "b"), labels=labels)
    plan = make_fold_plan(t.labels, 5, seed=2)
    result = cross_validate(t, FeatureSubset((0, 1)), "dtable", plan)
    assert 35.0 <= result.accuracy <= 65.0


def test_cv_leave_one_out_knn_on_duplicated_rows(monkeypatch):
    rng = np.random.default_rng(32)
    base = rng.normal(size=(6, 3))
    values = np.vstack([base, base])
    labels = tuple("c%d" % i for i in range(6)) * 2
    t = DataTable(values=values, attr_names=("a", "b", "c"), labels=labels)
    plan = make_fold_plan(t.labels, 12, seed=1)
    monkeypatch.setitem(CLASSIFIERS, "knn", partial(knn_fit, knn_k=1))
    result = cross_validate(t, FeatureSubset((0, 1, 2)), "knn", plan)
    assert result.accuracy == 100.0


def test_cv_diabetes_full_set_nb_near_published_value(diabetes):
    plan = make_fold_plan(diabetes.labels, 10, seed=1)
    result = cross_validate(
        diabetes, FeatureSubset(tuple(range(diabetes.n_attrs))), "nb", plan
    )
    assert result.accuracy == pytest.approx(75.1302, abs=3.0)


def test_cv_accuracy_is_size_weighted_fold_mean(heart):
    plan = make_fold_plan(heart.labels, 10, seed=1)
    result = cross_validate(heart, FeatureSubset((0, 1, 2)), "nb", plan)
    weighted = np.average(result.fold_accuracies, weights=result.fold_sizes)
    assert result.accuracy == pytest.approx(weighted, abs=1e-9)


def test_cv_requires_labels():
    t = DataTable(values=np.ones((4, 1)), attr_names=("a",))
    plan = make_fold_plan(["x", "x", "y", "y"], 2, 1)
    with pytest.raises(ValueError):
        cross_validate(t, FeatureSubset((0,)), "nb", plan)


def test_cv_unknown_classifier():
    t = table([[0.0], [1.0], [0.0], [1.0]], ["a", "a", "b", "b"])
    plan = make_fold_plan(t.labels, 2, 1)
    with pytest.raises(ValueError):
        cross_validate(t, FeatureSubset((0,)), "svm", plan)


def noisy_table(seed=33, n=30):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, 3))
    labels = tuple(np.where(values[:, 0] > 0, "p", "n"))
    return DataTable(values=values, attr_names=("a", "b", "c"), labels=labels)


def test_cv_fold_accuracy_is_a_model_fit_on_training_rows_only():
    # test rows never reach training: each reported fold accuracy is that
    # of a model that never saw the fold
    t = noisy_table()
    plan = make_fold_plan(t.labels, 5, seed=4)
    labels = np.asarray(t.labels)
    for classifier, fit in CLASSIFIERS.items():
        result = cross_validate(t, FeatureSubset((0, 1, 2)), classifier, plan)
        for fold in range(plan.k):
            train_idx, test_idx = plan.train_indices(fold), plan.fold_indices(fold)
            train = DataTable(values=t.values[train_idx], attr_names=t.attr_names,
                              labels=tuple(labels[train_idx]))
            predicted = np.asarray(fit(train).predict(t.values[test_idx]))
            accuracy = 100.0 * np.sum(predicted == labels[test_idx]) / len(test_idx)
            assert result.fold_accuracies[fold] == accuracy, (classifier, fold)


def three_class_table(seed=37, n=45):
    rng = np.random.default_rng(seed)
    labels = np.array(["a", "b", "c"])[np.arange(n) % 3]
    values = rng.normal(size=(n, 2)) + 3.0 * (np.arange(n) % 3)[:, None]
    return DataTable(values=values, attr_names=("p", "q"), labels=tuple(labels))


@pytest.mark.parametrize("classifier", CLASSIFIERS)
def test_class_missing_from_training_rows_is_never_predicted(classifier):
    # "b" sits between "a" and "c"; a fold whose training rows lack it must
    # not predict it, even for test rows at its centre
    t = three_class_table()
    keep = np.asarray(t.labels) != "b"
    train = FoldStack(values=t.values[keep][None], y=t.y[keep][None], classes=t.classes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        predicted = CLASSIFIERS[classifier](train).predict(t.values)
        # a class of one object is absent from the training rows of its fold
        single = DataTable(values=t.values[:31], attr_names=t.attr_names,
                           labels=t.labels[:30] + ("lone",))
        plan = make_fold_plan(single.labels, 5, seed=3)
        result = cross_validate(single, FeatureSubset((0, 1)), classifier, plan)
    assert set(predicted) == {"a", "c"}
    lone_fold = plan.assignments[30]
    train_idx = plan.train_indices(lone_fold)
    model = CLASSIFIERS[classifier](FoldStack(values=single.values[train_idx][None],
                                              y=single.y[train_idx][None],
                                              classes=single.classes))
    assert "lone" not in model.predict(single.values)
    assert result.fold_accuracies[lone_fold] < 100.0


def test_predicting_noise_rows_leaves_the_model_unchanged():
    t = noisy_table()
    probe = np.random.default_rng(34).normal(size=(12, 3))
    noise = np.random.default_rng(35).normal(size=(30, 3)) * 100
    for classifier, fit in CLASSIFIERS.items():
        model = fit(t)
        before = model.predict(probe)
        model.predict(noise)
        assert model.predict(probe) == before, classifier


def four_rows():
    return table([[0.0, 0.0], [0.0, 1.0], [5.0, 5.0], [5.0, 6.0]], "xxyy")


def two_fold_stack():
    t = four_rows()
    return FoldStack(values=np.stack([t.values, t.values[::-1]]),
                     y=np.stack([t.y, t.y[::-1]]), classes=t.classes)


@pytest.mark.parametrize("classifier", CLASSIFIERS)
@pytest.mark.parametrize("width", [1, 3])
def test_predict_rejects_rows_of_another_attribute_count(classifier, width):
    model = CLASSIFIERS[classifier](four_rows())
    with pytest.raises(ValueError, match=f"test rows of {width} attributes; "
                                         "the model was fit on 2"):
        model.predict(np.zeros((2, width)))


@pytest.mark.parametrize("classifier", CLASSIFIERS)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_predict_rejects_a_non_finite_cell_naming_its_row_and_column(classifier, value):
    fit = CLASSIFIERS[classifier]
    rows = np.zeros((3, 2))
    rows[2, 1] = rows[2, 0] = value
    with pytest.raises(ValueError, match=f"cannot label row 3, column 1: it holds {value}"):
        fit(four_rows()).predict(rows)
    stack = np.zeros((2, 3, 2))
    stack[1, 0, 1] = value
    with pytest.raises(ValueError, match=f"cannot label fold 2, row 1, column 2: "
                                         f"it holds {value}"):
        fit(two_fold_stack()).predict_codes(stack)


@pytest.mark.parametrize("classifier", CLASSIFIERS)
def test_predict_rejects_a_stack_of_another_fold_count(classifier):
    fit = CLASSIFIERS[classifier]
    with pytest.raises(ValueError, match="test rows for 2 folds; the model was fit on 1"):
        fit(four_rows()).predict_codes(np.zeros((2, 1, 2)))
    with pytest.raises(ValueError, match="test rows for 1 folds; the model was fit on 2"):
        fit(two_fold_stack()).predict_codes(np.zeros((1, 1, 2)))
    with pytest.raises(ValueError, match="test rows for 1 folds; the model was fit on 2"):
        fit(two_fold_stack()).predict(np.zeros((1, 2)))


@pytest.mark.parametrize("classifier", CLASSIFIERS)
@pytest.mark.parametrize("shape", [(2,), (1, 1, 1, 2)])
def test_predict_takes_only_a_matrix_or_a_stack(classifier, shape):
    model = CLASSIFIERS[classifier](four_rows())
    with pytest.raises(ValueError, match="a rows x attributes matrix or a folds x rows x "
                                         f"attributes stack, not {len(shape)}-D"):
        model.predict_codes(np.zeros(shape))


@pytest.mark.parametrize("classifier", CLASSIFIERS)
def test_predict_labels_no_rows_with_no_labels(classifier):
    model = CLASSIFIERS[classifier](four_rows())
    assert model.predict(np.zeros((0, 2))) == []
    assert model.predict_codes(np.zeros((1, 0, 2))).shape == (1, 0)


def test_fold_plan_rejects_out_of_range_assignment():
    with pytest.raises(ValueError, match=r"\[0, 2\)"):
        FoldPlan(seed=0, k=2, assignments=(0, 1, 2))
    with pytest.raises(ValueError, match=r"\[0, 2\)"):
        FoldPlan(seed=0, k=2, assignments=(0, 1, -1))


def test_fold_plan_refuses_a_non_integral_assignment():
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        FoldPlan(seed=1, k=2, assignments=(0.5, 1.5, 0, 1))
    plan = FoldPlan(seed=1, k=2, assignments=tuple(np.array([0, 1, 0, 1])))
    assert list(plan.fold_indices(1)) == [1, 3]


def test_fold_plan_rejects_empty_fold():
    with pytest.raises(ValueError, match="fold 1 has no objects"):
        FoldPlan(seed=0, k=3, assignments=(0, 0, 2, 2))


def test_cv_rejects_plan_of_another_size():
    t = noisy_table(n=20)
    plan = make_fold_plan(t.labels[:10], 2, seed=1)
    with pytest.raises(ValueError, match="10 objects"):
        cross_validate(t, FeatureSubset((0,)), "nb", plan)


def test_cv_checks_the_table_once(monkeypatch):
    # the table was checked when it was built; the projection and each
    # fold's training rows are sliced from it without a second scan
    t = noisy_table()
    plan = make_fold_plan(t.labels, 5, seed=4)
    checked = []
    check = DataTable.__post_init__

    def counting_check(self):
        checked.append(self.n_objects)
        check(self)

    monkeypatch.setattr(DataTable, "__post_init__", counting_check)
    for classifier in CLASSIFIERS:
        checked.clear()
        cross_validate(t, FeatureSubset((0, 2)), classifier, plan)
        assert checked == [], classifier


def test_cv_global_prep_differs_from_fold_fit(diabetes):
    plan = make_fold_plan(diabetes.labels, 10, seed=1)
    subset = FeatureSubset((0, 1, 5))
    fold_fit = cross_validate(diabetes, subset, "dtable", plan)
    leaky = cross_validate(diabetes, subset, "dtable", plan, global_prep=True)
    assert fold_fit.accuracy != leaky.accuracy or fold_fit.fold_accuracies != leaky.fold_accuracies


# ---------------------------------------------------------------------------
# fold stacks

def fold_by_fold(table, classifier, plan, **options):
    """Correct predictions per fold of the loop that fold stacks replaced:
    one model per fold, fit on that fold's training rows alone (a stack of
    one fold, so a class the fold lacks stays a class) and scored on its
    test rows."""
    values, y, global_prep = table.values, table.y, options.pop("global_prep")
    corrects = []
    for fold in range(plan.k):
        train_idx, test_idx = plan.train_indices(fold), plan.fold_indices(fold)
        model = CLASSIFIERS[classifier](
            FoldStack(values=values[train_idx][None], y=y[train_idx][None],
                      classes=table.classes),
            values if global_prep else None, **options)
        corrects.append(int(np.count_nonzero(model.predict_codes(values[test_idx])
                                             == y[test_idx])))
    return corrects


@st.composite
def cv_cases(draw):
    """A table, a fold plan and the options of one cross-validation.

    The plan comes from ``make_fold_plan`` or is built directly from at
    least three distinct fold sizes in shuffled order, so folds of one
    training size need not be consecutive.  Columns hold integers 0-2 (ties
    and shared bins) or floats, plus optionally a constant column and a
    copy of the first; a class of one row is missing from the training rows
    of its fold.  The block cap ranges from 1 (one fold per stack, one row
    per k-NN block) to past the whole table.
    """
    direct = draw(st.booleans())
    if direct:
        sizes = draw(st.permutations([1, 2, 3] + draw(st.lists(st.integers(1, 4), max_size=3))))
        n = sum(sizes)
        folds = draw(st.permutations([f for f, size in enumerate(sizes) for _ in range(size)]))
    else:
        n = draw(st.integers(4, 40))
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        cell = st.integers(0, 2).map(float)
    else:
        cell = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
    values = draw(arrays(float, (n, d), elements=cell))
    if draw(st.booleans()):
        values = np.column_stack([values, np.full(n, 7.0), values[:, 0]])
    labels = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    if draw(st.booleans()):
        labels[draw(st.integers(0, n - 1))] = "lone"
    if direct:
        plan = FoldPlan(seed=0, k=len(sizes), assignments=tuple(folds))
    else:
        plan = make_fold_plan(labels, draw(st.integers(2, min(n, 6))), draw(st.integers(0, 99)))
    options = dict(strategy=draw(st.sampled_from(["eqfreq", "eqwidth"])),
                   bins=draw(st.integers(2, 5)),
                   global_prep=draw(st.booleans()))
    fewest = n - max(np.bincount(plan.assignments))     # training rows of the largest fold
    knn_k = draw(st.sampled_from(sorted({1, min(3, fewest), fewest})))
    block_cells = draw(st.integers(1, 4 * n * values.shape[1] * plan.k))
    return table(values, labels), plan, options, knn_k, block_cells


@settings(max_examples=300, deadline=None)
@given(cv_cases(), st.sampled_from(sorted(CLASSIFIERS)))
def test_cv_fold_stacks_equal_the_fold_by_fold_loop(case, classifier):
    t, plan, options, knn_k, block_cells = case
    with mock.patch.dict(CLASSIFIERS, {"knn": partial(knn_fit, knn_k=knn_k)}), \
            mock.patch.object(unselect.eval, "BLOCK_CELLS", block_cells):
        result = cross_validate(t, FeatureSubset(tuple(range(t.n_attrs))), classifier,
                                plan, **options)
        corrects = fold_by_fold(t, classifier, plan, **options)
    assert result.fold_sizes == tuple(np.bincount(plan.assignments).tolist())
    assert result.fold_accuracies == tuple(100.0 * c / size
                                           for c, size in zip(corrects, result.fold_sizes))
    assert result.accuracy == 100.0 * sum(corrects) / t.n_objects


def test_cv_splits_runs_of_folds_into_stacks_under_the_cap(monkeypatch):
    # 10 folds over 24 rows: folds 0-3 hold 3 rows, folds 4-9 hold 2; with
    # 2 attributes a cap of 3 x 22 x 2 training cells takes 3 folds a stack
    t = noisy_table(n=24)
    plan = make_fold_plan(t.labels, 10, seed=4)
    stacks = []
    fit = CLASSIFIERS["nb"]

    def recording_fit(train, *args, **kwargs):
        stacks.append(train.values.shape)
        return fit(train, *args, **kwargs)

    monkeypatch.setitem(CLASSIFIERS, "nb", recording_fit)
    monkeypatch.setattr(unselect.eval, "BLOCK_CELLS", 3 * 22 * 2)
    cross_validate(t, FeatureSubset((0, 2)), "nb", plan)
    assert stacks == [(3, 21, 2), (1, 21, 2), (3, 22, 2), (3, 22, 2)]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.one_of(st.just(1), st.just(2), st.integers(1, 300)),
       st.one_of(st.just(1), st.integers(1, 12)), st.integers(-8, 8), st.integers(0, 2**32 - 1))
def test_stacked_statistics_equal_each_slice_bit_for_bit(folds, m, d, exponent, seed):
    # fold stacks rest on this numpy property: a mean, var or std over the
    # row axis of a folds x rows x attributes stack gives each fold the bits
    # of its own rows x attributes call
    stack = np.random.default_rng(seed).normal(size=(folds, m, d)) * 10.0 ** exponent
    mean, var, std = stack.mean(axis=1), stack.var(axis=1), stack.std(axis=1, ddof=1) \
        if m > 1 else None
    for fold, rows in enumerate(stack):
        assert mean[fold].tobytes() == rows.mean(axis=0).tobytes()
        assert var[fold].tobytes() == rows.var(axis=0).tobytes()
        if m > 1:
            assert std[fold].tobytes() == rows.std(axis=0, ddof=1).tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("sizes, message", [
    # fold 1 overflows; fold 2 has 3 training rows for k = 4
    ((1, 1, 5, 1), "k-NN cannot z-score attribute 2: its mean or spread overflows"),
    # fold 1 has 3 training rows for k = 4; folds 2 and 3 overflow
    ((1, 5, 1, 1), "k=4 out of range for 3 training rows"),
])
def test_cv_raises_the_fault_of_the_lowest_failing_fold(sizes, message):
    # row 0 is 1e200 in attribute 2, and its square overflows the spread of
    # every fold that trains on it: all but fold 0.  Folds 0, 2 and 3 share
    # a training size in the second plan, so the fold order, not the size,
    # must decide which fault is raised.
    values = np.column_stack([np.arange(8.0), np.r_[1e200, np.arange(7.0)]])
    t = table(values, "ababab" "ab")
    plan = FoldPlan(seed=0, k=4, assignments=tuple(np.repeat(np.arange(4), sizes)))
    with mock.patch.dict(CLASSIFIERS, {"knn": partial(knn_fit, knn_k=4)}):
        with pytest.raises(ValueError) as stacked:
            cross_validate(t, FeatureSubset((0, 1)), "knn", plan)
        with pytest.raises(ValueError) as loop:
            fold_by_fold(t, "knn", plan, strategy="eqfreq", bins=3, global_prep=False)
    assert str(stacked.value) == str(loop.value) == message


# ---------------------------------------------------------------------------
# benchmark runner

def small_registry(tmp_path, datasets):
    lines = []
    for name, t in datasets.items():
        path = tmp_path / f"{name}.csv"
        write_csv(t, path)
        lines.append(f"{name}, {name}.csv, class")
    reg_path = tmp_path / "registry.txt"
    reg_path.write_text("\n".join(lines) + "\n")
    from unselect.dataset import load_registry

    return load_registry(reg_path)


def toy_dataset(seed=40, n=24):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, 4))
    labels = tuple(np.where(values[:, 0] + values[:, 2] > 0, "u", "v"))
    return DataTable(
        values=values, attr_names=("a", "b", "c", "d"), labels=labels
    )


def test_benchmark_single_cell(tmp_path):
    registry = small_registry(tmp_path, {"toy": toy_dataset()})
    report = run_benchmark(
        registry, methods=("edr",), classifiers=("nb",), seed=1, folds=4,
    )
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row["dataset"] == "toy" and row["method"] == "edr"
    assert row["classifier"] == "nb" and 0.0 <= row["accuracy"] <= 100.0
    assert len(row["fold_accuracies"]) == 4
    assert row["fingerprint"]


def test_benchmark_same_seed_is_byte_identical(tmp_path):
    registry = small_registry(tmp_path, {"toy": toy_dataset()})
    kwargs = dict(methods=("edr", "usqr"), classifiers=("nb", "dtable"),
                  seed=5, folds=4)
    a = run_benchmark(registry, **kwargs).to_json()
    b = run_benchmark(registry, **kwargs).to_json()
    assert a == b


def test_benchmark_records_failures_and_continues(tmp_path):
    registry = small_registry(tmp_path, {"toy": toy_dataset()})
    registry = Registry(entries=dict(registry.entries, lost=("lost.csv", "class")),
                        root=registry.root)              # lost.csv is never written
    report = run_benchmark(
        registry, datasets=["ghost", "lost", "toy"], methods=("edr",),
        classifiers=("nb",), folds=4,
    )
    assert [e["dataset"] for e in report.errors] == ["ghost", "lost"]
    lost = os.path.join(registry.root, "lost.csv")
    assert report.errors[1]["error"] == f"cannot read {lost}: No such file or directory"
    assert len(report.rows) == 1
    assert EvalReport.from_json(report.to_json()).to_json() == report.to_json()


def test_benchmark_records_errors_per_dataset_and_method(tmp_path, monkeypatch):
    registry = small_registry(tmp_path, {"toy": toy_dataset()})

    def select_failing_usqr(table, method, cfg, k=None):
        if method == "usqr":
            raise ValueError("usqr broke")
        return select(table, method, cfg, k)

    monkeypatch.setattr("unselect.eval.select", select_failing_usqr)
    report = run_benchmark(registry, methods=("edr", "usqr", "pca"),
                           classifiers=("nb",), folds=4)
    assert report.errors == [{"dataset": "toy", "method": "usqr", "error": "usqr broke"}]
    assert [r["method"] for r in report.rows] == ["edr", "pca"]
    assert "ERROR toy/usqr: usqr broke" in render_text_tables(report)
    assert EvalReport.from_json(report.to_json()).to_json() == report.to_json()


def test_benchmark_keeps_no_rows_of_a_method_that_fails_partway(tmp_path, monkeypatch):
    registry = small_registry(tmp_path, {"toy": toy_dataset()})

    def failing_knn(*args, **kwargs):
        raise ValueError("knn broke")

    # nb succeeds, then knn fails
    monkeypatch.setitem(CLASSIFIERS, "knn", failing_knn)
    report = run_benchmark(registry, methods=("edr",), classifiers=("nb", "knn"),
                           folds=4)
    assert [(e["dataset"], e["method"]) for e in report.errors] == [("toy", "edr")]
    assert report.rows == []


def test_benchmark_lets_programming_errors_propagate(tmp_path, monkeypatch):
    registry = small_registry(tmp_path, {"toy": toy_dataset()})

    def broken_select(*args):
        raise TypeError("selector bug")

    monkeypatch.setattr("unselect.eval.select", broken_select)
    with pytest.raises(TypeError, match="selector bug"):
        run_benchmark(registry, methods=("edr",), classifiers=("nb",), folds=4)


@pytest.mark.parametrize("folds, seed", [(1, 1), (0, 1), (4, -1)])
def test_benchmark_rejects_bad_folds_or_seed_before_any_load(tmp_path, monkeypatch,
                                                             folds, seed):
    registry = small_registry(tmp_path, {"toy": toy_dataset()})

    def no_load(*args, **kwargs):
        raise AssertionError("a dataset was loaded")

    monkeypatch.setattr("unselect.dataset.Registry.load", no_load)
    with pytest.raises(ValueError, match="fold"):
        run_benchmark(registry, methods=("edr",), classifiers=("nb",), folds=folds, seed=seed)


@pytest.mark.parametrize("folds, seed", [(2.5, 1), (4, 1.5), (np.float64(4.0), 1)],
                         ids=["folds", "seed", "numpy-float-folds"])
def test_benchmark_refuses_a_float_count_before_any_load(tmp_path, monkeypatch, folds, seed):
    registry = small_registry(tmp_path, {"toy": toy_dataset()})

    def no_load(*args, **kwargs):
        raise AssertionError("a dataset was loaded")

    monkeypatch.setattr("unselect.dataset.Registry.load", no_load)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        run_benchmark(registry, methods=("edr",), classifiers=("nb",), folds=folds, seed=seed)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        FoldPlan(seed=seed, k=folds, assignments=(0, 1, 2, 3))


@pytest.mark.parametrize("ids, message", [
    ({"datasets": ["toy", "toy"]}, "duplicate id 'toy'"),
    ({"methods": ("edr", "edr")}, "duplicate id 'edr'"),
    ({"methods": ("magic",)}, "unknown id 'magic'"),
    ({"classifiers": ("svm",)}, "unknown id 'svm'"),
    ({"classifiers": ("nb", "nb")}, "duplicate id 'nb'"),
])
def test_benchmark_rejects_unknown_or_repeated_ids_before_any_load(tmp_path, monkeypatch,
                                                                   ids, message):
    registry = small_registry(tmp_path, {"toy": toy_dataset()})

    def no_load(*args, **kwargs):
        raise AssertionError("a dataset was loaded")

    monkeypatch.setattr("unselect.dataset.Registry.load", no_load)
    run = dict({"methods": ("edr",), "classifiers": ("nb",)}, **ids)
    with pytest.raises(ValueError, match=message):
        run_benchmark(registry, folds=4, **run)


def test_benchmark_rows_sorted_and_report_round_trips(tmp_path):
    registry = small_registry(
        tmp_path, {"zeta": toy_dataset(41), "alpha": toy_dataset(42)}
    )
    report = run_benchmark(
        registry, methods=("usqr", "edr"), classifiers=("knn", "nb"),
        folds=4,
    )
    keys = [(r["dataset"], r["method"], r["classifier"]) for r in report.rows]
    assert keys == sorted(keys)
    back = EvalReport.from_json(report.to_json())
    assert back.rows == report.rows


def test_render_table_and_csv_shapes(tmp_path):
    registry = small_registry(tmp_path, {"toy": toy_dataset()})
    report = run_benchmark(
        registry, methods=("edr", "usqr"), classifiers=("nb", "knn", "dtable"),
        folds=4,
    )
    text = render_text_tables(report)
    assert "Classification accuracy for toy" in text
    assert "Naive Bayes" in text and "Decision Table" in text
    csv_text = render_csv_tables(report)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "dataset,classifier,edr,usqr"
    assert len(lines) == 1 + 3


def test_renderers_show_the_run_in_id_order(tmp_path):
    registry = small_registry(tmp_path, {"toy": toy_dataset()})
    report = run_benchmark(registry, methods=("usqr", "edr"), classifiers=("dtable", "nb"),
                           folds=4)
    lines = render_text_tables(report).splitlines()
    assert lines[1].split() == ["Classifier", "EDR", "USQR"]
    assert [line.split("  ")[0] for line in lines[2:]] == ["Naive Bayes", "Decision Table"]
    assert render_csv_tables(report).splitlines()[0] == "dataset,classifier,edr,usqr"


@pytest.mark.parametrize("key", ["datasets", "methods", "classifiers"])
def test_report_from_json_needs_the_shown_ids(tmp_path, key):
    registry = small_registry(tmp_path, {"toy": toy_dataset()})
    payload = json.loads(run_benchmark(registry, methods=("edr",), classifiers=("nb",),
                                       folds=4).to_json())
    del payload["config"][key]
    with pytest.raises(ValueError, match=key):
        EvalReport.from_json(json.dumps(payload))
