import warnings
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
    apply_cut_points,
    write_csv,
)
from unselect.eval import (
    CLASSIFIERS,
    EvalReport,
    FoldPlan,
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


def test_fold_plan_leave_one_out_allowed():
    labels = ["A", "B", "A", "B"]
    plan = make_fold_plan(labels, 4, 1)
    assert sorted(plan.assignments) == [0, 1, 2, 3]


def test_fold_plan_rejects_bad_k():
    with pytest.raises(ValueError):
        make_fold_plan(["A", "B"], 1, 0)
    with pytest.raises(ValueError):
        make_fold_plan(["A", "B"], 3, 0)


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


@st.composite
def knn_cases(draw):
    """Training table, test rows, k in [1, n] and a block cap.

    Half the tables hold integers 0-2, so many training rows lie at equal
    distances and ties cross the k-th boundary; labels come from one, two
    or three classes.  The cap ranges from under one test row's cells
    (one row per block) to all of them (one block).
    """
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 12))
    if draw(st.booleans()):
        cell = st.integers(0, 2).map(float)
    else:
        cell = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
    values = draw(arrays(float, (n, d), elements=cell))
    rows = draw(arrays(float, (m, d), elements=cell))
    classes = draw(st.sampled_from(["a", "ab", "abc"]))
    labels = draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n))
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    block_cells = draw(st.integers(1, m * n * d))
    return table(values, labels), rows, k, block_cells


# a column of tiny spread scales far test rows to infinite distances, on
# both sides alike
@pytest.mark.filterwarnings("ignore:overflow encountered in square")
@settings(max_examples=300, deadline=None)
@given(knn_cases())
def test_knn_predict_equals_reference_loop(case):
    train, rows, k, block_cells = case
    model = knn_fit(train, knn_k=k)
    with mock.patch.object(unselect.eval, "KNN_BLOCK_CELLS", block_cells):
        assert model.predict(rows) == reference_knn_predict(model, rows)


def test_knn_predict_spans_several_blocks_like_the_reference_loop():
    # 200 x 10 training cells per test row put 32 rows in a block of the
    # module's cap, so 100 test rows take 4 blocks; integer values tie
    rng = np.random.default_rng(36)
    train = table(rng.integers(0, 3, size=(200, 10)),
                  rng.choice(["p", "q", "r"], size=200))
    rows = rng.integers(0, 3, size=(100, 10))
    assert 100 * 200 * 10 > 3 * unselect.eval.KNN_BLOCK_CELLS
    for k in (1, 4, 7, 200):
        model = knn_fit(train, knn_k=k)
        assert model.predict(rows) == reference_knn_predict(model, rows), k


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
    for key, y in zip(map(tuple, apply_cut_points(train.values, cuts).tolist()),
                      train.labels):
        buckets.setdefault(key, []).append(y)
    return {key: majority(ys) for key, ys in buckets.items()}, majority(train.labels)


def labelled_rules(model):
    """The model's lookup and fallback with class labels for class codes."""
    return ({key: model.classes[c] for key, c in model.lookup.items()},
            model.classes[model.fallback])


def test_decision_table_equal_votes_go_to_the_smallest_class():
    # bucket 0 ties c and b 2-2, the whole table ties a, b and c 2-2-2
    t = coded([[0, 0, 0, 0, 1, 1]], ["c", "b", "b", "c", "a", "a"])
    model = decision_table_fit(t, strategy="eqwidth", bins=2)
    assert labelled_rules(model) == ({(0,): "b", (1,): "a"}, "a")
    assert labelled_rules(model) == reference_decision_table(t, model.cuts)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    arrays(float, (n, 2), elements=st.integers(0, 3).map(float)),
    st.lists(st.sampled_from(["B", "a", "b", "c10", "c9"]), min_size=n, max_size=n),
)))
def test_decision_table_fit_equals_reference_buckets(case):
    values, labels = case
    t = table(values, labels)
    model = decision_table_fit(t, strategy="eqwidth", bins=3)
    assert labelled_rules(model) == reference_decision_table(t, model.cuts)


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


def test_cv_leave_one_out_knn_on_duplicated_rows():
    rng = np.random.default_rng(32)
    base = rng.normal(size=(6, 3))
    values = np.vstack([base, base])
    labels = tuple("c%d" % i for i in range(6)) * 2
    t = DataTable(values=values, attr_names=("a", "b", "c"), labels=labels)
    plan = make_fold_plan(t.labels, 12, seed=1)
    result = cross_validate(t, FeatureSubset((0, 1, 2)), "knn", plan, knn_k=1)
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
    train = t.take(np.flatnonzero(np.asarray(t.labels) != "b"))
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
    model = CLASSIFIERS[classifier](single.take(plan.train_indices(lone_fold)))
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


def test_fold_plan_rejects_out_of_range_assignment():
    with pytest.raises(ValueError, match=r"\[0, 2\)"):
        FoldPlan(seed=0, k=2, assignments=(0, 1, 2))
    with pytest.raises(ValueError, match=r"\[0, 2\)"):
        FoldPlan(seed=0, k=2, assignments=(0, 1, -1))


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
# benchmark runner

def small_registry(tmp_path, datasets):
    lines = []
    for name, t in datasets.items():
        path = tmp_path / f"{name}.csv"
        write_csv(t, path, label_name="class")
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
        cfg=SelectorConfig(edr_k=2),
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
                  seed=5, folds=4, cfg=SelectorConfig(edr_k=2))
    a = run_benchmark(registry, **kwargs).to_json()
    b = run_benchmark(registry, **kwargs).to_json()
    assert a == b


def test_benchmark_records_failures_and_continues(tmp_path):
    registry = small_registry(tmp_path, {"toy": toy_dataset()})
    registry = Registry(entries=dict(registry.entries, lost=("lost.csv", "class")),
                        root=registry.root)              # lost.csv is never written
    report = run_benchmark(
        registry, datasets=["ghost", "lost", "toy"], methods=("edr",),
        classifiers=("nb",), folds=4, cfg=SelectorConfig(edr_k=2),
    )
    assert [e["dataset"] for e in report.errors] == ["ghost", "lost"]
    assert len(report.rows) == 1


def test_benchmark_records_errors_per_dataset_and_method(tmp_path, monkeypatch):
    registry = small_registry(tmp_path, {"toy": toy_dataset()})

    def select_failing_usqr(table, method, cfg, k=None):
        if method == "usqr":
            raise ValueError("usqr broke")
        return select(table, method, cfg, k)

    monkeypatch.setattr("unselect.eval.select", select_failing_usqr)
    report = run_benchmark(registry, methods=("edr", "usqr", "pca"),
                           classifiers=("nb",), folds=4, cfg=SelectorConfig(edr_k=2))
    assert report.errors == [{"dataset": "toy", "method": "usqr", "error": "usqr broke"}]
    assert [r["method"] for r in report.rows] == ["edr", "pca"]
    assert "ERROR toy/usqr: usqr broke" in render_text_tables(report)


def test_benchmark_keeps_no_rows_of_a_method_that_fails_partway(tmp_path):
    registry = small_registry(tmp_path, {"toy": toy_dataset()})
    # nb succeeds, then knn refuses k=30 on 18 training rows
    report = run_benchmark(registry, methods=("edr",), classifiers=("nb", "knn"),
                           folds=4, cfg=SelectorConfig(edr_k=2), knn_k=30)
    assert [(e["dataset"], e["method"]) for e in report.errors] == [("toy", "edr")]
    assert report.rows == []


def test_benchmark_lets_programming_errors_propagate(tmp_path, monkeypatch):
    registry = small_registry(tmp_path, {"toy": toy_dataset()})

    def broken_select(*args):
        raise TypeError("selector bug")

    monkeypatch.setattr("unselect.eval.select", broken_select)
    with pytest.raises(TypeError, match="selector bug"):
        run_benchmark(registry, methods=("edr",), classifiers=("nb",), folds=4,
                      cfg=SelectorConfig(edr_k=2))


def test_benchmark_rows_sorted_and_report_round_trips(tmp_path):
    registry = small_registry(
        tmp_path, {"zeta": toy_dataset(41), "alpha": toy_dataset(42)}
    )
    report = run_benchmark(
        registry, methods=("usqr", "edr"), classifiers=("knn", "nb"),
        folds=4, cfg=SelectorConfig(edr_k=2),
    )
    keys = [(r["dataset"], r["method"], r["classifier"]) for r in report.rows]
    assert keys == sorted(keys)
    back = EvalReport.from_json(report.to_json())
    assert back.rows == report.rows


def test_render_table_and_csv_shapes(tmp_path):
    registry = small_registry(tmp_path, {"toy": toy_dataset()})
    report = run_benchmark(
        registry, methods=("edr", "usqr"), classifiers=("nb", "knn", "dtable"),
        folds=4, cfg=SelectorConfig(edr_k=2),
    )
    text = render_text_tables(report, methods=("edr", "usqr"))
    assert "Classification accuracy for toy" in text
    assert "Naive Bayes" in text and "Decision Table" in text
    csv_text = render_csv_tables(report, methods=("edr", "usqr"))
    lines = csv_text.strip().splitlines()
    assert lines[0] == "dataset,classifier,edr,usqr"
    assert len(lines) == 1 + 3
