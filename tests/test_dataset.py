import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unselect.dataset import (
    DataTable,
    EmptyFileError,
    FeatureSubset,
    ParseError,
    discretize,
    load_arff,
    load_csv,
    project,
    write_csv,
    zscore_normalize,
)


def table(rows, labels=None, names=None):
    rows = np.asarray(rows, dtype=float)
    names = names or tuple(f"a{j + 1}" for j in range(rows.shape[1]))
    return DataTable(values=rows, attr_names=names, labels=labels)


# ---------------------------------------------------------------------------
# load_csv

def test_load_csv_with_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,2\n3,4\n")
    t = load_csv(p, has_header=True)
    assert t.n_objects == 2 and t.n_attrs == 2
    assert t.attr_names == ("a", "b")
    assert t.values[1, 1] == 4.0


def test_load_csv_ragged_row_names_row(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,2\n3,4,5\n")
    with pytest.raises(ParseError, match="row 3"):
        load_csv(p, has_header=True)


def test_load_csv_non_numeric_cell_coordinates(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2\n3,oops\n")
    with pytest.raises(ParseError, match="row 2, column 2"):
        load_csv(p, has_header=False)


def test_load_csv_empty_file_distinct_error(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("")
    with pytest.raises(EmptyFileError):
        load_csv(p)


def test_load_csv_label_by_name_and_index(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,y,cls\n1,2,A\n3,4,B\n")
    by_name = load_csv(p, label_column="cls")
    by_index = load_csv(p, label_column=2)
    assert by_name.labels == ("A", "B") == by_index.labels
    assert by_name.attr_names == ("x", "y")


def test_load_csv_missing_policies(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2\n?,6\n3,4\n")
    with pytest.raises(ParseError, match="row 2, column 1"):
        load_csv(p, has_header=False)
    imputed = load_csv(p, has_header=False, missing="impute")
    assert imputed.values[1, 0] == pytest.approx(2.0)  # mean of 1 and 3
    dropped = load_csv(p, has_header=False, missing="drop")
    assert dropped.n_objects == 2
    assert list(dropped.values[:, 0]) == [1.0, 3.0]


def test_load_csv_missing_labels_follow_policy(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,cls\n1,x\n2,\n3,?\n4,y\n")
    with pytest.raises(ParseError, match="row 3, column 2") as err:
        load_csv(p, label_column="cls")
    assert (err.value.row, err.value.column) == (3, 2)
    with pytest.raises(ParseError, match="cannot be imputed"):
        load_csv(p, label_column="cls", missing="impute")
    dropped = load_csv(p, label_column="cls", missing="drop")
    assert dropped.labels == ("x", "y")
    assert list(dropped.values[:, 0]) == [1.0, 4.0]


def test_load_csv_missing_value_names_file_row_and_column(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,y,cls\n1,2,a\n3,?,b\n")
    with pytest.raises(ParseError, match="row 3, column 2") as err:
        load_csv(p, label_column="cls")
    assert (err.value.row, err.value.column) == (3, 2)
    # a label column before the hole still counts as a file column
    p.write_text("cls,x,y\na,1,2\nb,3,?\n")
    with pytest.raises(ParseError, match="row 3, column 3") as err:
        load_csv(p, label_column="cls")
    assert (err.value.row, err.value.column) == (3, 3)


def test_pima_diabetes_shape(diabetes):
    # UCI Pima diabetes: 768 instances, 2 classes, 8 attributes
    assert diabetes.n_objects == 768
    assert diabetes.n_attrs == 8
    assert len(diabetes.class_values()) == 2


def test_benchmark_table_metadata(registry):
    expected = {
        "lung": (32, 56, 3),
        "breast": (569, 30, 2),
        "diabetes": (768, 8, 2),
        "heart": (270, 13, 2),
        "ecoli": (336, 7, 8),
    }
    for name, (n, d, classes) in expected.items():
        t = registry.load(name)
        assert (t.n_objects, t.n_attrs, len(t.class_values())) == (n, d, classes)


def test_csv_round_trip(tmp_path, diabetes):
    p = tmp_path / "out.csv"
    write_csv(diabetes, p, label_name="class")
    back = load_csv(p, has_header=True, label_column="class")
    assert back.n_objects == diabetes.n_objects
    assert np.max(np.abs(back.values - diabetes.values)) < 1e-12
    assert back.labels == diabetes.labels


# ---------------------------------------------------------------------------
# ARFF subset

def test_arff_trailing_nominal_is_label(tmp_path):
    p = tmp_path / "t.arff"
    p.write_text(
        "@relation t\n"
        "@attribute x real\n"
        "@attribute grade {1,2}\n"
        "@attribute class {yes,no}\n"
        "@data\n"
        "1.5,1,yes\n"
        "2.5,2,no\n"
    )
    t = load_arff(p)
    assert t.attr_names == ("x", "grade")
    assert t.labels == ("yes", "no")
    assert t.values[1, 1] == 2.0


def test_arff_ragged_row(tmp_path):
    p = tmp_path / "t.arff"
    p.write_text("@relation t\n@attribute x real\n@data\n1,2\n")
    with pytest.raises(ParseError):
        load_arff(p)


def test_arff_missing_reject_and_drop(tmp_path):
    p = tmp_path / "t.arff"
    p.write_text(
        "@relation t\n@attribute x real\n@attribute y real\n@data\n"
        "1,2\n?,3\n5,6\n"
    )
    with pytest.raises(ParseError):
        load_arff(p)
    assert load_arff(p, missing="drop").n_objects == 2
    assert load_arff(p, missing="impute").values[1, 0] == pytest.approx(3.0)


def test_arff_missing_value_names_line_and_column(tmp_path):
    p = tmp_path / "t.arff"
    p.write_text(
        "@relation t\n@attribute x real\n@attribute y real\n"
        "@attribute cls {a,b}\n@data\n1,2,a\n3,?,b\n"
    )
    with pytest.raises(ParseError, match="row 7, column 2") as err:
        load_arff(p)
    assert (err.value.row, err.value.column) == (7, 2)


def test_arff_quoted_value_may_hold_a_comma(tmp_path):
    p = tmp_path / "t.arff"
    p.write_text(
        "@relation t\n@attribute x real\n@attribute cls {'a,b',c}\n@data\n"
        "1,'a,b'\n2, c\n3,\"a,b\"\n"
    )
    t = load_arff(p)
    assert t.labels == ("a,b", "c", "a,b")
    assert list(t.values[:, 0]) == [1.0, 2.0, 3.0]


def test_arff_missing_labels_follow_policy(tmp_path):
    p = tmp_path / "t.arff"
    p.write_text(
        "@relation t\n@attribute x real\n@attribute class {a,b}\n@data\n"
        "1,a\n2,?\n3,b\n"
    )
    with pytest.raises(ParseError, match="column 2") as err:
        load_arff(p)
    assert (err.value.row, err.value.column) == (6, 2)
    with pytest.raises(ParseError, match="cannot be imputed"):
        load_arff(p, missing="impute")
    dropped = load_arff(p, missing="drop")
    assert dropped.labels == ("a", "b")
    assert list(dropped.values[:, 0]) == [1.0, 3.0]


# ---------------------------------------------------------------------------
# zscore_normalize

def test_zscore_two_points():
    t = zscore_normalize(table([[2], [4]]))
    assert t.values[:, 0] == pytest.approx([-0.7071, 0.7071], abs=1e-4)


def test_zscore_constant_column_maps_to_zero():
    t = zscore_normalize(table([[5, 1], [5, 2], [5, 3]]))
    assert np.all(t.values[:, 0] == 0.0)


def test_zscore_three_points_sample_convention():
    # sample (n-1) std dev of [1,2,3] is exactly 1
    t = zscore_normalize(table([[1], [2], [3]]))
    assert t.values[:, 0] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)


def test_zscore_single_row_errors():
    with pytest.raises(ValueError):
        zscore_normalize(table([[1, 2]]))


def test_zscore_postconditions(diabetes):
    t = zscore_normalize(diabetes)
    assert np.max(np.abs(t.values.mean(axis=0))) < 1e-9
    assert t.values.std(axis=0, ddof=1) == pytest.approx(np.ones(8), abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda d: st.lists(
            st.lists(st.floats(-1e6, 1e6), min_size=d, max_size=d),
            min_size=2,
            max_size=12,
        )
    )
)
def test_zscore_idempotent(rows):
    t = table(rows)
    once = zscore_normalize(t)
    twice = zscore_normalize(once)
    assert np.max(np.abs(once.values - twice.values)) < 1e-9


# ---------------------------------------------------------------------------
# discretize

def test_discretize_eqwidth_boundary_goes_up():
    d = discretize(table([[0], [5], [10]]), "eqwidth", 2)
    assert list(d.codes[:, 0]) == [0, 1, 1]


def test_discretize_eqfreq_median_split():
    d = discretize(table([[1], [2], [3], [4]]), "eqfreq", 2)
    assert list(d.codes[:, 0]) == [0, 0, 1, 1]


def test_discretize_constant_column():
    d = discretize(table([[7], [7], [7]]), "eqwidth", 3)
    assert list(d.codes[:, 0]) == [0, 0, 0]
    assert d.bins_per_attr == (1,)


def test_discretize_rejects_single_bin():
    with pytest.raises(ValueError):
        discretize(table([[1], [2]]), "eqwidth", 1)


def test_diabetes_glucose_equal_frequency_terciles(diabetes):
    # Oracle: count the sorted column against the 1/3 and 2/3 empirical
    # quantiles under the declared half-open convention (a value equal to
    # a cut point belongs to the upper bin).  Tied integer glucose
    # readings straddle both cut points, so the bins deviate from a
    # perfect 256/256/256 split; the frozen counts come from that check.
    glucose = diabetes.values[:, 1]
    lo, hi = np.quantile(glucose, [1 / 3, 2 / 3])
    expected = [
        int((glucose < lo).sum()),
        int(((glucose >= lo) & (glucose < hi)).sum()),
        int((glucose >= hi).sum()),
    ]
    assert expected == [251, 259, 258]

    d = discretize(diabetes, "eqfreq", 3)
    counts = np.bincount(d.codes[:, 1], minlength=3)
    assert list(counts) == expected
    assert max(abs(c - 256) for c in counts) <= 8


@settings(max_examples=50, deadline=None)
@given(
    # Integer-valued columns keep the transform exactly representable;
    # the invariance is a real-arithmetic property and cannot survive
    # transforms that push value gaps below float resolution.
    rows=st.lists(st.integers(-1000, 1000), min_size=3, max_size=20, unique=True),
    a=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0, 32.0]),
    b=st.integers(-100, 100),
    bins=st.integers(2, 5),
    strategy=st.sampled_from(["eqwidth", "eqfreq"]),
)
def test_discretize_positive_affine_invariance(rows, a, b, bins, strategy):
    t1 = table([[float(v)] for v in rows])
    t2 = table([[a * v + b] for v in rows])
    c1 = discretize(t1, strategy, bins)
    c2 = discretize(t2, strategy, bins)
    assert np.array_equal(c1.codes, c2.codes)


# ---------------------------------------------------------------------------
# project

def test_project_single_column():
    t = table([[1, 2, 3], [4, 5, 6]])
    p = project(t, FeatureSubset((2,)))
    assert p.n_attrs == 1
    assert list(p.values[:, 0]) == [3.0, 6.0]


def test_project_identity():
    t = table([[1, 2], [3, 4]], labels=("x", "y"))
    p = project(t, FeatureSubset((0, 1)))
    assert np.array_equal(p.values, t.values)
    assert p.labels == t.labels


def test_project_diabetes_usqr_subset(diabetes):
    # the published USQR selection for diabetes: attributes 2,7,8 (1-based)
    p = project(diabetes, FeatureSubset.from_one_based("2,7,8"))
    assert (p.n_objects, p.n_attrs) == (768, 3)


def test_project_out_of_range_names_index():
    with pytest.raises(IndexError, match="5"):
        project(table([[1, 2]]), FeatureSubset((5,)))


def test_project_composition():
    t = table([[1, 2, 3, 4], [5, 6, 7, 8]])
    first = project(t, FeatureSubset((3, 1, 0)))
    second = project(first, FeatureSubset((1, 2)))
    composed = project(t, FeatureSubset((1, 0)))
    assert np.array_equal(second.values, composed.values)


# ---------------------------------------------------------------------------
# value objects

def test_feature_subset_one_based_round_trip():
    s = FeatureSubset.from_one_based("2,7,8")
    assert s.indices == (1, 6, 7)
    assert s.to_one_based() == "2,7,8"


def test_feature_subset_rejects_duplicates():
    with pytest.raises(ValueError):
        FeatureSubset((1, 1))


def test_table_rejects_non_finite():
    with pytest.raises(ValueError):
        table([[1.0, float("nan")]])


def test_table_rejects_duplicate_names():
    with pytest.raises(ValueError):
        DataTable(values=np.ones((1, 2)), attr_names=("a", "a"))


def test_tables_are_immutable():
    t = table([[1, 2]])
    with pytest.raises(ValueError):
        t.values[0, 0] = 9.0
