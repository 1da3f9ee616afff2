import csv
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import unselect.dataset
from unselect.dataset import (
    DatasetError,
    DataTable,
    DiscreteTable,
    EmptyFileError,
    FeatureSubset,
    ParseError,
    apply_cut_points,
    default_registry,
    discretize,
    fit_cut_points,
    load_arff,
    load_csv,
    load_registry,
    load_table,
    project,
    write_csv,
    zscore_normalize,
    _BLANKS,
    _parse_cell,
    _parse_label,
    _split_arff_row,
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
    t = load_csv(p)
    assert t.n_objects == 2 and t.n_attrs == 2
    assert t.attr_names == ("a", "b")
    assert t.values[1, 1] == 4.0


def test_load_csv_ragged_row_names_row(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,2\n3,4,5\n")
    with pytest.raises(ParseError, match="row 3"):
        load_csv(p)


def test_load_csv_non_numeric_cell_coordinates(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,y\n1,2\n3,oops\n")
    with pytest.raises(ParseError, match="row 3, column 2"):
        load_csv(p)


def test_load_csv_blank_lines_keep_file_row_numbers(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,y\n1,2\n\n3,oops\n")
    with pytest.raises(ParseError, match="row 4, column 2") as err:
        load_csv(p)
    assert (err.value.row, err.value.column) == (4, 2)
    p.write_text("\n\nx,y\n1,2\n3,4,5\n")
    with pytest.raises(ParseError, match="row 5") as err:
        load_csv(p)
    assert err.value.row == 5


# a quoted cell may span lines; the records after it keep their file lines
@pytest.mark.parametrize("text, label, row, column", [
    ('x,cls\n1,"a\nb"\n2,c\nzz,d\n', "cls", 5, 1),
    ('x,y\n1,"2\n\n"\n\n3,oops\n', None, 6, 2),
    ('x,y\r\n1,"2\r\n"\r\n3,oops\r\n', None, 4, 2),
], ids=["label", "blank-lines", "crlf"])
def test_load_csv_rows_stay_file_lines_after_a_multi_line_cell(tmp_path, text, label, row,
                                                               column):
    p = tmp_path / "t.csv"
    p.write_bytes(text.encode())
    with pytest.raises(ParseError, match=f"row {row}, column {column}") as err:
        load_csv(p, label_column=label)
    assert (err.value.row, err.value.column) == (row, column)


@pytest.mark.parametrize("suffix, text", [
    ("csv", "x,y\n1,2\n3,4\n"),
    ("arff", "@relation t\n@attribute x real\n@attribute y real\n@data\n1,2\n3,4\n"),
])
def test_unknown_missing_policy_is_rejected_on_a_file_without_holes(tmp_path, suffix, text):
    p = tmp_path / f"t.{suffix}"
    p.write_text(text)
    with pytest.raises(ValueError, match="unknown missing-value policy 'bogus'"):
        load_table(p, missing="bogus")


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


def test_a_non_integral_label_column_is_refused_not_truncated(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,y,cls\n1,2,A\n3,4,B\n")
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        load_csv(p, label_column=1.9)
    assert load_csv(p, label_column=np.int64(2)).labels == ("A", "B")


@pytest.mark.parametrize("label_column, message", [
    (9, "label column 10 out of range: {path} has 3 columns"),
    (-1, "label column 0 out of range: {path} has 3 columns"),
    ("kind", "label column 'kind' not in the header of {path}"),
], ids=["past-the-end", "zero", "name"])
def test_a_label_column_the_file_lacks_is_named_1_based_with_the_file(
        tmp_path, label_column, message):
    p = tmp_path / "t.csv"
    p.write_text("x,y,cls\n1,2,A\n3,4,B\n")
    with pytest.raises(ParseError) as err:
        load_csv(str(p), label_column=label_column)
    assert str(err.value) == message.format(path=p)


@pytest.mark.parametrize("suffix, text, column, message", [
    (".csv", "a,a,cls\n1,2,A\n3,4,B\n", 2, "repeats the name 'a' of column 1"),
    (".arff", "@relation t\n@attribute a real\n@attribute a real\n"
              "@attribute cls {A,B}\n@data\n1,2,A\n3,4,B\n", 2,
     "repeats the name 'a' of column 1"),
    (".csv", "cls\nA\nB\n", 1, "no feature column"),
    (".arff", "@relation t\n@attribute cls {A,B}\n@data\nA\nB\n", 1, "no feature column"),
], ids=["csv-repeated-name", "arff-repeated-name", "csv-label-only", "arff-label-only"])
def test_a_file_the_table_rejects_is_a_parse_error_naming_file_and_column(
        tmp_path, suffix, text, column, message):
    p = tmp_path / f"t{suffix}"
    p.write_text(text)
    with pytest.raises(ParseError, match=message) as err:
        load_table(str(p), label_column="cls" if suffix == ".csv" else None)
    assert str(p) in str(err.value) and err.value.column == column


def test_load_csv_missing_policies(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,y\n1,2\n?,6\n3,4\n")
    with pytest.raises(ParseError, match="row 3, column 1"):
        load_csv(p)
    imputed = load_csv(p, missing="impute")
    assert imputed.values[1, 0] == pytest.approx(2.0)  # mean of 1 and 3
    dropped = load_csv(p, missing="drop")
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


# float refuses \x1c-\x1f around a number, which str.strip would take
@pytest.mark.parametrize("token", ["inf", "-inf", "Infinity", "1e400", "-1e400", "1.5\x1c",
                                   "\x1f2"])
def test_load_csv_non_finite_cell_names_file_row_and_column(tmp_path, token):
    p = tmp_path / "t.csv"
    p.write_text(f"x,y,cls\n1,2,a\n3,{token},b\n")
    with pytest.raises(ParseError, match="row 3, column 2") as err:
        load_csv(p, label_column="cls")
    assert (err.value.row, err.value.column) == (3, 2)


def test_load_csv_row_wider_than_header_is_ragged(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,2,3\n4,5,6\n")
    with pytest.raises(ParseError, match="row 2") as err:
        load_csv(p)
    assert err.value.row == 2


def test_load_csv_ignores_a_byte_order_mark(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("\ufeffa,b\n1,2\n3,4\n", encoding="utf-8")
    t = load_csv(p)
    assert t.attr_names == ("a", "b")
    assert t.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    labelled = load_csv(p, label_column="a")
    assert labelled.attr_names == ("b",) and labelled.labels == ("1", "3")


def test_a_bad_cell_is_reported_before_a_later_ragged_row(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,y\n1,oops\n3,4\n5,6\n7,8,9\n")
    with pytest.raises(ParseError, match="row 2, column 2") as err:
        load_csv(p)
    assert (err.value.row, err.value.column) == (2, 2)


def test_a_bad_cell_is_reported_before_a_later_missing_label(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,cls\noops,a\n3,?\n")
    for missing in ("reject", "impute", "drop"):
        with pytest.raises(ParseError, match="cell 'oops' at row 2, column 1") as err:
            load_csv(p, label_column="cls", missing=missing)
        assert (err.value.row, err.value.column) == (2, 1)


def test_a_bad_cell_in_the_last_of_many_rows_names_its_row_and_column(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,y,z\n" + "1.5,2,-3e-2\n" * 19999 + "4,5,x\n")
    with pytest.raises(ParseError, match="cell 'x' at row 20001, column 3") as err:
        load_csv(p)
    assert (err.value.row, err.value.column) == (20001, 3)


@pytest.mark.parametrize("cell", ["x" * 200000, "0" * 200000 + "1", '"' + "1" * 200000 + '"'],
                         ids=["plain", "plain-number", "quoted"])
def test_a_csv_cell_past_the_field_limit_is_a_parse_error_naming_its_row(tmp_path, cell):
    # csv refuses a cell over 131,072 characters; the bulk pass never
    # takes a line that could hold one, so a plain file fails the same way
    p = tmp_path / "t.csv"
    p.write_text(f"a,b\n1,2\n{cell},3\n4,5\n")
    with pytest.raises(ParseError, match="row 3 of .*field larger than field limit") as err:
        load_csv(p)
    assert err.value.row == 3


def test_a_number_cell_sheds_only_the_blanks_float_takes():
    assert set(_BLANKS) == {chr(i) for i in range(0x110000) if chr(i).isspace()} - set(
        "\x1c\x1d\x1e\x1f")
    assert all(float(b + "1.5" + b) == 1.5 for b in _BLANKS)
    assert _parse_cell("\xa0 1.5 \u3000", 2, 1) == 1.5
    for cell in ["1.5\x1c", "\x1f2", "\x1e"]:
        with pytest.raises(ParseError, match="row 2, column 1"):
            _parse_cell(cell, 2, 1)


# A separator \x1c-\x1f is no blank to ``float``, so a line holding one
# alone, or one in each cell, is a row to read, where ``str.strip`` took it
# for a blank line to skip.
@pytest.mark.parametrize("name, text, row, column", [
    ("t.csv", "a,b\n1,2\n\x1c,\x1c\n3,4\n", 3, 1),
    ("t.csv", "a,b\n1,2\n\x1c\n3,4\n", 3, None),                 # ragged
    ("t.arff", "@relation r\n@attribute a real\n@attribute b real\n@data\n1,2\n\x1c\n4,5\n",
     6, None),
], ids=["csv-separator-cells", "csv-separator-row", "arff-separator-row"])
def test_a_separator_row_is_no_blank_line(tmp_path, name, text, row, column):
    p = tmp_path / name
    p.write_text(text)
    with pytest.raises(ParseError, match=f"row {row}") as err:
        load_table(p)
    assert (err.value.row, err.value.column) == (row, column)


def test_labels_and_header_names_keep_a_separator_at_their_edge(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a\x1c,\u3000b ,cls\n1,2,y\n3,4,y\x1c\n5,6,\xa0y\t\n")
    t = load_csv(p, label_column="cls")
    assert t.attr_names == ("a\x1c", "b")
    assert t.labels == ("y", "y\x1c", "y") and t.classes == ("y", "y\x1c")
    p = tmp_path / "t.arff"
    p.write_text("@relation r\n@attribute a\x1c real\n@attribute\u3000b\treal\n"
                 "@attribute cls {y,y\x1c}\n@data\n1,2,y\x1c\n3,4,\u2003'y'\n")
    t = load_arff(p)
    assert t.attr_names == ("a\x1c", "b") and t.labels == ("y\x1c", "y")
    p.write_text("@relation r\n@attribute\x1ca real\n@data\n1\n")
    with pytest.raises(ParseError, match="line 2 of .* is neither a % comment nor"):
        load_arff(p)


def test_registry_fields_shed_the_blanks_float_takes_alone(tmp_path):
    path = tmp_path / "registry.txt"
    path.write_text("\u3000d ,\td.csv\xa0, cls\x1c\n")
    assert load_registry(path).entries == {"d": ("d.csv", "cls\x1c")}
    path.write_text("d, d.csv\n\x1c\n")        # not a blank line
    with pytest.raises(ParseError, match="registry line 2") as err:
        load_registry(path)
    assert err.value.row == 2


def test_a_one_based_subset_sheds_the_blanks_float_takes_alone():
    assert FeatureSubset.from_one_based("\u3000 2 ,\t7,,8\n").indices == (1, 6, 7)
    with pytest.raises(ValueError):
        FeatureSubset.from_one_based("2,\x1c7")
    with pytest.raises(ValueError, match="empty"):
        FeatureSubset.from_one_based(" ,\xa0")


def test_pima_diabetes_shape(diabetes):
    # UCI Pima diabetes: 768 instances, 2 classes, 8 attributes
    assert diabetes.n_objects == 768
    assert diabetes.n_attrs == 8
    assert len(diabetes.classes) == 2


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
        assert (t.n_objects, t.n_attrs, len(t.classes)) == (n, d, classes)


def test_registry_line_with_two_fields_defaults_to_auto(tmp_path):
    (tmp_path / "plain.csv").write_text("x,y\n1,2\n3,4\n")
    (tmp_path / "registry.txt").write_text("# name, path[, label]\nplain, plain.csv\n")
    registry = load_registry(tmp_path / "registry.txt")
    assert registry.entries == {"plain": ("plain.csv", "auto")}
    t = registry.load("plain")
    assert t.labels is None and t.attr_names == ("x", "y") and t.name == "plain"


def test_registry_repeating_a_name_is_a_parse_error_naming_both_lines(tmp_path):
    path = tmp_path / "registry.txt"
    path.write_text("# name, path, label\nd, d.csv, cls\nother, o.csv\nd, d.csv, 1\n")
    with pytest.raises(ParseError) as err:
        load_registry(path)
    assert str(err.value) == f"registry line 4 of {path} repeats the name 'd' of line 2"
    assert err.value.row == 4


def test_registry_ignores_a_byte_order_mark(tmp_path):
    path = tmp_path / "registry.txt"
    path.write_text("\ufeff# name, path, label\nd, d.csv, cls\n", encoding="utf-8")
    assert load_registry(path).names() == ["d"]

@pytest.mark.parametrize("text", ["", "# a comment\n\n"], ids=["empty", "comments-only"])
def test_registry_listing_no_datasets_is_rejected(tmp_path, text):
    path = tmp_path / "registry.txt"
    path.write_text(text)
    with pytest.raises(EmptyFileError, match="lists no datasets"):
        load_registry(path)


def test_default_registry_names_every_path_it_tried(tmp_path, monkeypatch):
    monkeypatch.setenv("UNSELECT_DATA_DIR", str(tmp_path))
    with pytest.raises(DatasetError, match=re.escape(str(tmp_path / "registry.txt"))):
        default_registry()
    # unset: the data directory beside the package source, then under the working directory
    monkeypatch.delenv("UNSELECT_DATA_DIR")
    monkeypatch.setattr(unselect.dataset, "__file__",
                        str(tmp_path / "src" / "unselect" / "dataset.py"))
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    with pytest.raises(DatasetError) as info:
        default_registry()
    for tried in (tmp_path / "data" / "registry.txt",
                  tmp_path / "work" / "data" / "registry.txt"):
        assert str(tried) in str(info.value)


def test_csv_round_trip(tmp_path, diabetes):
    p = tmp_path / "out.csv"
    write_csv(diabetes, p)
    back = load_csv(p, label_column="class")
    assert back.n_objects == diabetes.n_objects
    assert np.max(np.abs(back.values - diabetes.values)) < 1e-12
    assert back.labels == diabetes.labels


# Labels the loaders keep as written: no surrounding blanks (cells are
# stripped), no control characters, and none of the missing-value tokens.
label_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")),
    min_size=1, max_size=6,
).filter(lambda s: s == s.strip() and s.lower() not in {"", "?", "na", "nan", "n/a"})


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(
    st.tuples(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=d, max_size=d), label_text),
    min_size=1, max_size=12)))
def test_write_csv_load_csv_round_trip_is_exact(tmp_path_factory, rows):
    t = table([r for r, _ in rows], labels=tuple(y for _, y in rows))
    p = tmp_path_factory.mktemp("rt") / "t.csv"
    write_csv(t, p)
    back = load_csv(p, label_column="class")
    assert back.values.tobytes() == t.values.tobytes()
    assert (back.labels, back.classes) == (t.labels, t.classes)


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


def test_arff_line_may_quote_with_both_quote_characters(tmp_path):
    p = tmp_path / "t.arff"
    p.write_text(
        "@relation t\n@attribute x real\n@attribute cls {'a,b',c}\n@data\n"
        "\"1\",'a,b'\n'2',\"a,b\"\n"
    )
    t = load_arff(p)
    assert t.labels == ("a,b", "a,b")
    assert list(t.values[:, 0]) == [1.0, 2.0]
    assert _split_arff_row("1,\"c,d\",'a,b'") == ["1", "c,d", "a,b"]
    assert _split_arff_row("1, 'a b' ,,\"x\"") == ["1", "a b", "", "x"]


ARFF_HEADER = "@relation r\n@attribute a real\n"


# a header line is matched whole: a keyword or type is not read by its prefix
@pytest.mark.parametrize("lines", [
    ["stray,junk"], ["@atribute b real"], ["@end"], ["3"],
    ["@attribute b realistic"], ["@attribute b integers"], ["@datafoo"],
    ["@relationship x"], ["@data 1,2"], ["@attribute c {a,b} junk"],
    ["@attribute s string"], ["@attribute d date 'yyyy-MM-dd'"], ["@attribute d DATE"],
], ids=["stray", "misspelled", "unknown-keyword", "data-before-@data", "realistic",
        "integers", "datafoo", "relationship", "data-with-a-row", "values-then-junk",
        "string", "date-with-format", "date"])
def test_an_arff_line_before_data_is_a_header_line_or_an_error(tmp_path, lines):
    p = tmp_path / "t.arff"
    p.write_text(ARFF_HEADER + "".join(f"{line}\n" for line in lines) + "@data\n3\n4\n")
    with pytest.raises(ParseError, match="line 3 of .* is neither a % comment nor") as err:
        load_arff(p)
    assert err.value.row == 3
    p.write_text("% c\n\n@RELATION r\n  @Attribute a real\n@relation\n"
                 "@attribute 'b c' INTEGER\n@attribute \"d's\"\tNumeric\n%x\n@DATA\n3,4,5\n")
    t = load_arff(p)
    assert t.values.tolist() == [[3.0, 4.0, 5.0]] and t.attr_names == ("a", "b c", "d's")


def test_every_arff_line_after_data_is_a_data_row(tmp_path):
    # a declaration after @data fails at its own row, not at a valid row above it
    p = tmp_path / "t.arff"
    p.write_text(ARFF_HEADER + "@data\n3\n@attribute b real\n4\n")
    with pytest.raises(ParseError, match="row 5, column 1") as err:
        load_arff(p)
    assert (err.value.row, err.value.column) == (5, 1)
    p.write_text(ARFF_HEADER + "@attribute cls {x}\n@data\n3,x\n@relation s\n4,x\n")
    with pytest.raises(ParseError, match="ragged row 6") as err:
        load_arff(p)
    p.write_text(ARFF_HEADER + "@data\n3\n% a comment\n\t\n4\n")
    assert load_arff(p).values.tolist() == [[3.0], [4.0]]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(list("a1.,-e ?%\t\xa0\u3000\x1c\x0c\u2028é")),
               max_size=30))
def test_unquoted_arff_rows_split_like_the_quoted_loop(text):
    # the caller strips the line, then each cell, of _BLANKS; a line without
    # quotes splits on its commas, with blanks, empty cells and a trailing
    # comma kept, and \x1c stays in its cell
    line = text.strip(_BLANKS)
    assert ([c.strip(_BLANKS) for c in _split_arff_row(line)]
            == [c.strip(_BLANKS) for c in line.split(",")])


# a label that is neither declared nor missing fails, in a plain file (the
# bulk pass declines it) and in a quoted one (read cell by cell)
@pytest.mark.parametrize("data, row", [
    ("1,yes\n2,maybe\n", 6), ("1,'yes'\n2,\"maybe\"\n", 6), ("1,yes\n2,'yes'\n\n3,'yes\n", 8),
], ids=["plain", "quoted", "open-quote"])
def test_an_arff_label_must_be_one_of_its_declared_values(tmp_path, data, row):
    p = tmp_path / "t.arff"
    p.write_text("@relation r\n@attribute a real\n@attribute cls {yes,no}\n@data\n" + data)
    with pytest.raises(ParseError, match=f"at row {row}, column 2 of .* not one of its") as err:
        load_arff(p)
    assert (err.value.row, err.value.column) == (row, 2)
    p.write_text("@relation r\n@attribute a real\n@attribute cls { 'n o' ,yes,\"x,y\"}\n"
                 "@data\n1,yes\n2,'n o'\n3, \"x,y\" \n")
    assert load_arff(p).labels == ("yes", "n o", "x,y")


# a nominal feature takes only its declared values, compared as numbers,
# in a plain file (the bulk pass declines it) and in a quoted one (read
# cell by cell)
@pytest.mark.parametrize("data, row", [
    ("1,1,a\n1,5,a\n", 7), ("1,'1',a\n1,\"5\",a\n", 7), ("1,2,b\n3,1.5,a\n", 7),
], ids=["plain", "quoted", "between"])
def test_an_arff_nominal_feature_takes_only_its_declared_values(tmp_path, data, row):
    p = tmp_path / "t.arff"
    p.write_text("@relation r\n@attribute x real\n@attribute g {1,2}\n@attribute cls {a,b}\n"
                 "@data\n" + data)
    with pytest.raises(ParseError, match=f"at row {row}, column 2 of .* not one of its") as err:
        load_arff(p)
    assert (err.value.row, err.value.column) == (row, 2)
    p.write_text("@relation r\n@attribute x real\n@attribute g { '1', 2e0}\n"
                 "@attribute cls {a,b}\n@data\n1,1.0,a\n2,2,b\n3,?,a\n4,'01',b\n")
    assert load_arff(p, missing="drop").values.tolist() == [[1, 1], [2, 2], [4, 1]]


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


# float refuses \x1c-\x1f around a number, which str.strip would take
@pytest.mark.parametrize("token", ["inf", "-inf", "1e400", "'-1e400'", "1.5\x1c", "\x1c1.5"])
def test_arff_non_finite_cell_names_line_and_column(tmp_path, token):
    p = tmp_path / "t.arff"
    p.write_text(
        "@relation t\n@attribute x real\n@attribute y real\n"
        f"@attribute cls {{a,b}}\n@data\n1,2,a\n{token},3,b\n"
    )
    with pytest.raises(ParseError, match="row 7, column 1") as err:
        load_arff(p)
    assert (err.value.row, err.value.column) == (7, 1)


ARFF_TOKENS = ["1", "-2.5", "3e2", "0", "?", "", "NA", "nan", "n/a", "x"]


@st.composite
def arff_files(draw):
    """ARFF text with 1-3 numeric attributes and a class; every data cell is
    a number, a missing token or junk, bare or quoted with ' or ", and a
    quote may be left open."""
    d = draw(st.integers(1, 3))
    lines = ["@relation fuzz"] + [f"@attribute x{j} real" for j in range(d)]
    lines += ["@attribute class {a,b}", "@data"]
    for _ in range(draw(st.integers(1, 6))):
        cells = []
        for token in draw(st.lists(st.sampled_from(ARFF_TOKENS + ["a", "b"]),
                                   min_size=d, max_size=d + 2)):
            quote = draw(st.sampled_from(["", "'", '"', "'-open", '"-open']))
            if quote.endswith("-open"):
                cells.append(quote[0] + token)
            else:
                cells.append(quote + token + quote)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=arff_files(), missing=st.sampled_from(["reject", "impute", "drop"]))
def test_arff_fuzz_fails_only_with_located_parse_errors(tmp_path_factory, text,
                                                         missing):
    p = tmp_path_factory.mktemp("fuzz") / "t.arff"
    p.write_text(text)
    try:
        t = load_arff(p, missing=missing)
    except ParseError as err:
        assert err.row is not None or err.column is not None, str(err)
    except EmptyFileError as err:
        # a line of one empty cell is blank, so the file may hold no data
        assert missing == "drop" or str(err).startswith("no data"), str(err)
    else:
        assert t.n_objects >= 1 and len(t.labels) == t.n_objects
        assert np.all(np.isfinite(t.values))



# ---------------------------------------------------------------------------
# the bulk pass against the row-major loader

def reference_build(path, rows, names, label_idx, missing, classes=None):
    """The loader before the bulk pass: every cell of the ``(file row,
    cells)`` pairs through ``_parse_cell`` and every label through
    ``_parse_label`` (which takes only ``classes``, if given), row-major,
    then the missing-value policy."""
    values, labels = [], []
    for row, cells in rows:
        if len(cells) != len(names):
            raise ParseError(f"ragged row {row}: expected {len(names)} cells, "
                             f"got {len(cells)}", row=row)
        values.append([])
        for j, cell in enumerate(cells):
            if j == label_idx:
                labels.append(_parse_label(cell.strip(_BLANKS), missing, row, j + 1, path,
                                           classes))
            else:
                values[-1].append(_parse_cell(cell, row, j + 1))
    columns = [j + 1 for j in range(len(names)) if j != label_idx]
    data = np.array(values, dtype=float).reshape(len(rows), len(columns))
    holes = [(row, c) for (row, _), v in zip(rows, values)
             for c, x in zip(columns, v) if math.isnan(x)]
    if holes and missing == "reject":
        row, column = holes[0]
        raise ParseError(f"missing value at row {row}, column {column} of {path} "
                         "(pass missing='impute' or missing='drop' to handle it)",
                         row=row, column=column)
    if holes and missing == "impute":
        for j, c in enumerate(columns):
            if np.isnan(data[:, j]).all():
                raise ParseError(f"column {c} of {path} has no observed values", column=c)
            data[np.isnan(data[:, j]), j] = np.nanmean(data[:, j])
    if missing == "drop":
        keep = [i for i, v in enumerate(data) if not np.isnan(v).any()
                and (label_idx is None or labels[i] is not None)]
        if not keep:
            raise EmptyFileError(f"every row of {path} has missing values")
        data, labels = data[keep], [labels[i] for i in keep if labels]
    return DataTable(values=data, attr_names=tuple(names[c - 1] for c in columns),
                     labels=None if label_idx is None else tuple(labels))


def reference_csv(path, label_idx, missing):
    """``reference_build`` over ``csv.reader``; the header is never blank."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = [(i, r) for i, r in enumerate(csv.reader(fh), 1)
                   if any(c.strip(_BLANKS) for c in r)]
    if len(records) < 2:
        raise EmptyFileError(f"only a header row in {path}")
    names = [c.strip(_BLANKS) for c in records[0][1]]
    return reference_build(path, records[1:], names, label_idx, missing)


def reference_arff(path, names, label_idx, missing):
    """``reference_build`` over the lines after ``@data``; a label must be
    one of the ``{a,b}`` that ``arff_tables`` declares."""
    with open(path, encoding="utf-8") as fh:
        lines = list(enumerate(fh, 1))
    start = next(k for k, (_, line) in enumerate(lines) if line.strip(_BLANKS) == "@data") + 1
    rows = [(i, [c.strip(_BLANKS) for c in _split_arff_row(line.strip(_BLANKS))])
            for i, line in lines[start:] if line.strip(_BLANKS)]
    if not rows:
        raise EmptyFileError(f"no data in {path}")
    return reference_build(path, rows, names, label_idx, missing,
                           None if label_idx is None else {"a", "b"})


def outcome(load, *args, **kwargs):
    """A loaded table's value bytes, shape, labels and names, or the type,
    message, row and column of the error it raised."""
    try:
        t = load(*args, **kwargs)
    except (ParseError, EmptyFileError) as err:
        return type(err), str(err), getattr(err, "row", None), getattr(err, "column", None)
    return t.values.tobytes(), t.values.shape, t.labels, t.attr_names


# float() and str.strip() agree on these: Unicode blanks, digit separators,
# full-width digits, signed zero, underflow to zero
GOOD_CELLS = ["1", "-2.5", "3e2", "0", "-0", "1_0", "\uff11\uff12", "1e-400", "-7e-310", "0.1"]
BAD_CELLS = ["1e400", "-inf", "inf", "NaN", "-nan", "?", "", "NA", "n/a", "x", "1__0"]
# numpy's reader takes \x0b and \x1c-\x1f for blanks too, and str.splitlines
# ends a line at each, so a file holding one is read cell by cell
BLANKS = ["", " ", "\t", "\xa0", "\u3000", "\u2003", "\x0b", "\x1c", "\x1f"]
GOOD_LABELS = ["a", "b", " a ", "\xa0b", "'a", "\xfc"]
BAD_LABELS = ["?", "", "NA", "nan"]
LINE_ENDS = ["\n", "\n", "\r\n", "\r"]
BLANK_LINES = ["", "", " ", "\t "]


faults = st.fixed_dictionaries({k: st.booleans() for k in ("cells", "labels", "ragged")})


@st.composite
def drawn_cells(draw, width, label_idx, allowed):
    """One row's cells: a value or a label token wrapped in blanks.  The
    ``allowed`` faults (bad value cells, missing labels, ragged rows) are
    drawn each on its own, so every fault also shows in an otherwise clean
    file."""
    if allowed["ragged"]:
        width = draw(st.sampled_from([width] * 6 + [width - 1, width + 1]))
    cells = []
    for j in range(width):
        if j == label_idx:
            pool = GOOD_LABELS + BAD_LABELS * allowed["labels"]
        else:
            pool = GOOD_CELLS + BAD_CELLS * allowed["cells"]
        blank = draw(st.sampled_from(BLANKS))
        cells.append(blank + draw(st.sampled_from(pool)) + draw(st.sampled_from(BLANKS)))
    return cells


@st.composite
def csv_files(draw):
    """CSV text, its label column (0-based or None); rows may be blank or
    hold blanks alone, cells may be quoted with ", the header may be
    numeric and follow blank lines, lines may end in LF, CRLF or CR, and
    the file may start with a byte order mark."""
    width = draw(st.integers(1, 4))
    label_idx = draw(st.sampled_from([None] + list(range(width)))) if width > 1 else None
    drawn_faults = draw(faults)
    header = draw(st.sampled_from(["a{}", "{}"]))
    lines = [""] * draw(st.sampled_from([0, 0, 1, 2]))
    lines.append(",".join(header.format(j + 1) for j in range(width)))
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(BLANK_LINES)))
            continue
        cells = draw(drawn_cells(width, label_idx, drawn_faults))
        quoted = draw(st.lists(st.integers(0, 5), min_size=len(cells), max_size=len(cells)))
        lines.append(",".join(f'"{c}"' if q == 0 else c for c, q in zip(cells, quoted)))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    end = draw(st.sampled_from(LINE_ENDS))
    return bom + end.join(lines) + end, label_idx


@st.composite
def arff_tables(draw):
    """ARFF text with 1-3 numeric attributes and, mostly, a trailing class;
    each cell bare or quoted with ' or ", a quote sometimes left open."""
    d = draw(st.integers(1, 3))
    labelled = draw(st.integers(0, 3)) > 0
    names = [f"x{j}" for j in range(d)] + ["class"] * labelled
    drawn_faults = draw(faults)
    lines = ["@relation fuzz"] + [f"@attribute x{j} real" for j in range(d)]
    lines += ["@attribute class {a,b}"] * labelled + ["@data"]
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(BLANK_LINES)))
            continue
        cells = draw(drawn_cells(len(names), d if labelled else None, drawn_faults))
        quotes = draw(st.lists(st.sampled_from(["", "", "", "'", '"', "'-open"]),
                               min_size=len(cells), max_size=len(cells)))
        lines.append(",".join(c if not q else q[0] + c + q * (q != "'-open")
                              for c, q in zip(cells, quotes)))
    end = draw(st.sampled_from(LINE_ENDS))
    return end.join(lines) + end, names, d if labelled else None


# Each way numpy's reader, given the lines, would read a file otherwise
# than csv, float and the loader: the bulk pass must decline every one.
CSV_DECLINES = [
    ('a1,a2\n"1",2\n3,4\n', None),                    # a quote: csv unquotes the cell
    ('a1,cls\n1,"x"\n3,y\n', 1),                      # ... and a quoted label
    ("a1,a2\n1.5\x1c,2\n3,\x1f4\n", None),            # \x1c-\x1f around a cell
    ("a1,a2\n1.5\x1c2,3\n", None),                    # ... inside it: no line ends there
    ("a1,a2\n1,2\x1e3,4\n", None),
    ("a1,a2,cls\n1,2,x\n3,4,y,5\n", 2),               # wider than the header, label read apart
    ("a1,a2\n1,2\n3,4,5\n", None),
    ("a1,a2\n1,2\n  \n3,4\n", None),                  # a line of blanks alone
    ("a1\n1\n \t\n2\n", None),
    ("a1,a2\n1,inf\n2,3\n", None),                    # not finite
    ("a1,a2\n1e400,2\n", None),
    ("a1,cls\n1,?\n2,a\n", 1),                        # a missing label
    ("a1,a2\n\n\n", None),                            # no data row
    ("a1,cls\r\n1,a\r\n2,b\r\n", 1),                  # CRLF and bare CR line ends
    ("a1,a2\r1,2\r\r3,4\r", None),
    ("\n\n1,2\n3,4\n", None),                         # a numeric header after blank lines
    ("\n1,2\n3,a\n", 1),
    ("a1,cls\n1,\xe9\n2,b\n", 1),                     # a label beyond ASCII
]
ARFF_HEAD = "@relation r\n@attribute x0 real\n@attribute x1 real\n@attribute class {a,b}\n@data\n"
ARFF_DECLINES = [ARFF_HEAD + data for data in [
    "'1',2,a\n3,4,b\n",
    "1,2,\"a\"\n3,4,b\n",
    "1.5\x1c,2,a\n3,4,b\n",
    "1.5\x1c2,3,a\n",
    "1,2,a,5\n3,4,b\n",
    "1,2,a\n \t\n3,4,b\n",
    "1,inf,a\n",
    "1,2,?\n3,4,b\n",
    "1,2,a\r\n3,4,b\r\n",
    "1,2,a\r3,4,b\r",
    "1,2,\xe9\n3,4,b\n",
    "1,2,a\n3,4,c\n",          # a label not declared
]]


def csv_decline_examples(test):
    for text, label_idx in CSV_DECLINES:
        for missing in ("reject", "drop"):
            test = example(drawn=(text, label_idx), missing=missing)(test)
    return test


def arff_decline_examples(test):
    for text in ARFF_DECLINES:
        for missing in ("reject", "drop"):
            test = example(drawn=(text, ["x0", "x1", "class"], 2), missing=missing)(test)
    return test


@settings(max_examples=400, deadline=None)
@given(drawn=csv_files(), missing=st.sampled_from(["reject", "impute", "drop"]))
@csv_decline_examples
def test_load_csv_equals_the_row_major_reference(tmp_path_factory, drawn, missing):
    text, label_idx = drawn
    p = tmp_path_factory.mktemp("diff") / "t.csv"
    p.write_text(text, encoding="utf-8")
    assert (outcome(load_csv, p, label_column=label_idx, missing=missing)
            == outcome(reference_csv, p, label_idx, missing))


@settings(max_examples=400, deadline=None)
@given(drawn=arff_tables(), missing=st.sampled_from(["reject", "impute", "drop"]))
@arff_decline_examples
def test_load_arff_equals_the_row_major_reference(tmp_path_factory, drawn, missing):
    text, names, label_idx = drawn
    p = tmp_path_factory.mktemp("diff") / "t.arff"
    p.write_text(text, encoding="utf-8")
    assert (outcome(load_arff, p, missing=missing)
            == outcome(reference_arff, p, names, label_idx, missing))


def test_a_table_without_holes_never_takes_the_per_cell_path(tmp_path, count_calls, registry):
    cells = count_calls(unselect.dataset._parse_cell)
    splits = count_calls(unselect.dataset._split_arff_row)
    loops = count_calls(unselect.dataset._parse_rows)
    (tmp_path / "plain.csv").write_text("x,y\n1,2\n3,4\n")
    (tmp_path / "labelled.csv").write_text("x,cls,y\n1,a,2\n3,b,4\n")
    rng = np.random.default_rng(7)
    with open(tmp_path / "codes.csv", "w") as fh:
        fh.write(",".join(f"a{j + 1}" for j in range(16)) + "\n")
        np.savetxt(fh, rng.integers(0, 3, (20000, 16)), fmt="%d", delimiter=",")
    with open(tmp_path / "mixture.csv", "w") as fh:
        fh.write("a1,a2,a3,class\n")
        for row in rng.standard_normal((300, 3)):
            fh.write(",".join("%.17g" % v for v in row) + f",c{rng.integers(3)}\n")
    load_csv(tmp_path / "plain.csv")
    load_csv(tmp_path / "labelled.csv", label_column="cls")
    assert load_csv(tmp_path / "codes.csv").values.shape == (20000, 16)
    assert len(set(load_csv(tmp_path / "mixture.csv", label_column="class").labels)) == 3
    for name in registry.names():
        registry.load(name)
    assert cells == loops == []
    # the ARFF splits read the declared values of each nominal attribute:
    # the class of every bundled file, and lung's V4 and V38
    assert sorted(values for values, in splits) == sorted([
        "1,2,3,4", "1,2,3,4", "1,2,3", " tested_negative, tested_positive", " absent, present",
        "cp,im,pp,imU,om,omL,imL,imS"])
    # one hole sends the whole table through the per-cell loop
    p = tmp_path / "hole.csv"
    p.write_text("x,y\n1,2\n?,4\n5,6\n")
    table = load_csv(p, missing="impute")
    assert len(cells) == 6 and len(loops) == 1
    assert outcome(lambda: table) == outcome(reference_csv, p, None, "impute")

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


def reference_cut_points(values, strategy, bins):
    """The per-column loop that fit_cut_points replaced."""
    cuts = []
    for j in range(values.shape[1]):
        col = values[:, j]
        lo, hi = col.min(), col.max()
        if lo == hi:
            cuts.append(np.empty(0))
        elif strategy == "eqwidth":
            cuts.append(np.linspace(lo, hi, bins + 1)[1:-1])
        else:
            cuts.append(np.quantile(col, [i / bins for i in range(1, bins)]))
    return cuts


@st.composite
def cut_point_columns(draw, n):
    kind = draw(st.sampled_from(["constant", "integer", "scaled"]))
    if kind == "constant":
        return [draw(st.floats(allow_nan=False, allow_infinity=False))] * n
    if kind == "integer":
        return draw(st.lists(st.integers(-5, 5).map(float), min_size=n, max_size=n))
    scale = 10.0 ** draw(st.integers(-300, 300))
    return [scale * v for v in draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n))]


@settings(max_examples=300, deadline=None)
@given(
    stack=st.tuples(st.integers(1, 4), st.one_of(st.just(1), st.integers(1, 40)),
                    st.integers(1, 7))
    .flatmap(lambda gnd: st.lists(
        st.lists(cut_point_columns(gnd[1]), min_size=gnd[2], max_size=gnd[2]),
        min_size=gnd[0], max_size=gnd[0]))
    .map(lambda folds: np.array(folds, dtype=float).transpose(0, 2, 1)),
    strategy=st.sampled_from(["eqwidth", "eqfreq"]),
    bins=st.integers(2, 5),
)
# evenly spaced cuts computed for all columns at once differ here in the
# last bit (1.2 against 1.2000000000000002)
@example(stack=np.array([[[0.0], [2.0]]]), strategy="eqwidth", bins=5)
# a subnormal spread makes the step underflow to 0, where np.linspace
# scales k / bins instead ([0, 5e-324] against [0, 0])
@example(stack=np.array([[[0.0], [5e-324]], [[0.0], [2.0]]]), strategy="eqwidth", bins=3)
# one row, and two rows
@example(stack=np.array([[[3.0, -2.0]]]), strategy="eqfreq", bins=3)
@example(stack=np.array([[[0.0], [1.0]], [[1.0], [-1.0]]]), strategy="eqfreq", bins=4)
# the quantiles land exactly on rows 3 and 5 of 7
@example(stack=np.array([[[6.0], [0.0], [5.0], [1.0], [4.0], [2.0], [3.0]]]),
         strategy="eqfreq", bins=3)
# ties on both sides of each quantile position
@example(stack=np.array([[[1.0], [0.0], [1.0], [2.0], [1.0], [1.0]]]), strategy="eqfreq",
         bins=3)
# a spread of 2e300 is finite, so neither strategy refuses it
@example(stack=np.array([[[-1e300], [1e300], [0.0]]]), strategy="eqwidth", bins=3)
@example(stack=np.array([[[-1e300], [1e300], [0.0]]]), strategy="eqfreq", bins=3)
# a sort and np.quantile's partition may leave either zero at the median
@example(stack=np.array([[[-0.0]] + [[0.0]] * 18 + [[1.0]] * 19]), strategy="eqfreq", bins=2)
def test_fit_cut_points_equal_the_per_column_loop_bit_for_bit(stack, strategy, bins):
    # each fold of a stack, and each fold on its own, gets the cuts of the
    # loop over its own rows, a zero cut as +0.0; a column constant in them
    # gets +inf cuts
    got = fit_cut_points(stack, strategy, bins)
    assert got.shape == (len(stack), stack.shape[2], bins - 1)
    for fold, values in enumerate(stack):
        alone = fit_cut_points(values, strategy, bins)
        assert alone.tobytes() == got[fold].tobytes()
        for j, want in enumerate(reference_cut_points(values, strategy, bins)):
            if len(want):
                assert got[fold, j].tobytes() == (want + 0.0).tobytes()
            else:
                assert np.all(got[fold, j] == np.inf)


@pytest.mark.parametrize("strategy, bins", [("eqfreq", 2), ("eqfreq", 4), ("eqwidth", 4)])
def test_fit_cut_points_give_zero_cuts_as_positive_zero(strategy, bins):
    # both zeros in one column; np.quantile puts -0.0 at some of its
    # eqfreq cuts, and the codes are those of its cuts
    column = np.array([-0.0, 0.0, -0.0, -0.0, 1.0, -1.0])[:, None]
    cuts = fit_cut_points(column, strategy, bins)
    assert (cuts == 0).any() and not np.signbit(cuts[cuts == 0]).any()
    want = reference_cut_points(column, strategy, bins)[0][None]
    assert np.array_equal(apply_cut_points(column, cuts), apply_cut_points(column, want))


@pytest.mark.parametrize("strategy", ["eqwidth", "eqfreq"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_fit_cut_points_refuse_a_non_finite_cell_naming_it(strategy, value):
    values = np.zeros((3, 2))
    values[1, 1] = values[2, 0] = value
    with pytest.raises(ValueError, match=f"row 2, column 2: it holds {value}"):
        fit_cut_points(values, strategy, 3)
    stack = np.zeros((2, 3, 2))
    stack[1, 2, 0] = value
    with pytest.raises(ValueError, match=f"fold 2, row 3, column 1: it holds {value}"):
        fit_cut_points(stack, strategy, 3)


@pytest.mark.parametrize("strategy", ["eqwidth", "eqfreq"])
@pytest.mark.parametrize("rows", [2, 4])
def test_fit_cut_points_refuse_a_column_whose_range_overflows(strategy, rows):
    # max - min of the first column is past the largest float; as a single
    # bin it would be ignored without a word
    values = np.array([[-1.7e308, 0.0], [1.7e308, 1.0], [0.0, 0.0], [1.0, 1.0]])[:rows]
    with pytest.raises(ValueError, match="column 1: its range -1.7e[+]308 to 1.7e[+]308 "
                                         "overflows"):
        fit_cut_points(values, strategy, 3)
    with pytest.raises(ValueError, match="fold 2, column 2: its range"):
        fit_cut_points(np.stack([values[:, [1, 1]], values[:, ::-1]]), strategy, 3)
    with pytest.raises(ValueError, match="column 1: its range"):
        discretize(table(values), strategy, 3)


@pytest.mark.parametrize("strategy", ["eqwidth", "eqfreq"])
def test_fit_cut_points_bin_an_integer_column_as_its_floats(strategy):
    # max - min wraps in int64, which put every row in the top bin
    values = np.array([[-6 * 10 ** 18], [6 * 10 ** 18], [0], [1]])
    cuts = fit_cut_points(values, strategy, 3)
    assert cuts.tobytes() == fit_cut_points(values.astype(float), strategy, 3).tobytes()
    assert apply_cut_points(values, cuts).ravel().tolist() == (
        [0, 2, 1, 1] if strategy == "eqwidth" else [0, 2, 1, 2])


@pytest.mark.parametrize("strategy", ["eqwidth", "eqfreq"])
def test_fit_cut_points_refuse_no_rows(strategy):
    with pytest.raises(ValueError, match="cannot fit cut points to no rows"):
        fit_cut_points(np.zeros((0, 2)), strategy, 3)
    with pytest.raises(ValueError, match="cannot fit cut points to no rows"):
        fit_cut_points(np.zeros((2, 0, 2)), strategy, 3)


@settings(max_examples=100, deadline=None)
@given(
    values=arrays(float, st.tuples(st.integers(1, 3), st.integers(1, 12), st.integers(1, 4)),
                  elements=st.integers(-3, 3).map(float)),
    probes=arrays(float, st.integers(1, 6),
                  elements=st.sampled_from([-np.inf, -4.0, -0.5, 0.0, 1.0, 3.5, np.inf, np.nan])),
    strategy=st.sampled_from(["eqwidth", "eqfreq"]),
    bins=st.integers(2, 5),
)
def test_apply_cut_points_counts_like_searchsorted(values, probes, strategy, bins):
    # integer cells land on cut points and tie across rows; the probes add
    # values outside the fitted range, infinities and NaN in every column
    cuts = fit_cut_points(values, strategy, bins)
    rows = np.concatenate([values, np.repeat(probes[None, :, None], len(values), axis=0)
                           .repeat(values.shape[2], axis=2)], axis=1)
    codes = apply_cut_points(rows, cuts)
    for fold in range(len(rows)):
        assert np.array_equal(codes[fold], apply_cut_points(rows[fold], cuts[fold]))
        for j, edges in enumerate(cuts[fold]):
            want = np.searchsorted(edges[np.isfinite(edges)], rows[fold, :, j], side="right")
            assert codes[fold, :, j].tolist() == want.tolist()


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


def test_project_keeps_at_least_one_column():
    # a 2x0 table is one DataTable itself refuses
    with pytest.raises(ValueError, match="empty subset"):
        project(table([[1, 2], [3, 4]]), FeatureSubset(()))


def test_project_out_of_range_names_index():
    with pytest.raises(IndexError, match="5"):
        project(table([[1, 2]]), FeatureSubset((5,)))


def test_project_composition():
    t = table([[1, 2, 3, 4], [5, 6, 7, 8]])
    first = project(t, FeatureSubset((3, 1, 0)))
    second = project(first, FeatureSubset((1, 2)))
    composed = project(t, FeatureSubset((1, 0)))
    assert np.array_equal(second.values, composed.values)


def test_project_keeps_columns_without_checking_again(monkeypatch):
    t = DataTable(values=np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
                  attr_names=("p", "q", "r"), labels=("y", "x"), name="t")
    monkeypatch.setattr(DataTable, "__post_init__", lambda self: pytest.fail("checked"))
    p = project(t, FeatureSubset((2, 0)))
    assert p.values.tolist() == [[3.0, 1.0], [6.0, 4.0]]
    assert not p.values.flags.writeable and p.values.flags.c_contiguous
    assert (p.attr_names, p.labels, p.name) == (("r", "p"), ("y", "x"), "t")
    assert p.classes == ("x", "y") and p.y.tolist() == [1, 0]
    assert t.attr_names == ("p", "q", "r") and t.n_attrs == 3


# ---------------------------------------------------------------------------
# value objects

def test_feature_subset_one_based_round_trip():
    s = FeatureSubset.from_one_based("2,7,8")
    assert s.indices == (1, 6, 7)
    assert s.to_one_based() == "2,7,8"


def test_feature_subset_rejects_duplicates():
    with pytest.raises(ValueError):
        FeatureSubset((1, 1))


def test_feature_subset_refuses_a_non_integral_index():
    # truncated, 1.5 and 2.9 would silently name attributes 1 and 2
    with pytest.raises(ValueError, match=r"1\.5"):
        FeatureSubset((1.5, 2.9))
    with pytest.raises(ValueError, match=r"2\.0"):
        FeatureSubset((0, np.float64(2.0)))
    s = FeatureSubset((np.int64(1), np.int32(2), 0))
    assert s.indices == (1, 2, 0) and all(type(i) is int for i in s.indices)


def discrete(codes, bins):
    return DiscreteTable(codes=codes, bins_per_attr=bins,
                         attr_names=tuple(f"a{j + 1}" for j in range(len(bins))))


def test_discrete_table_refuses_float_codes():
    # cast to integers, [[0.5, 1.7]] would silently become [[0, 1]]
    with pytest.raises(ValueError, match="float64"):
        discrete(np.array([[0.5, 1.7]]), (2, 2))


def test_discrete_table_names_a_code_outside_its_bins():
    with pytest.raises(ValueError, match=r"^code 3 at row 2, column 2 is outside its 2 bins$"):
        discrete(np.array([[0, 1], [1, 3]]), (2, 2))
    with pytest.raises(ValueError, match=r"-1 at row 1, column 2"):
        discrete(np.array([[0, -1]]), (2, 2))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(["b", "B", "a", "10", "9", "é", "e", "Z", "日本"]),
                          st.text(alphabet="aAzZ09éÉß日 _-", min_size=1, max_size=3)),
                min_size=1, max_size=20))
def test_classes_are_the_sorted_distinct_labels(labels):
    t = table(np.zeros((len(labels), 1)), labels=tuple(labels))
    assert t.classes == tuple(sorted(set(labels)))
    assert [t.classes[c] for c in t.y] == list(labels)
    assert not t.y.flags.writeable


def test_table_rejects_non_finite():
    with pytest.raises(ValueError):
        table([[1.0, float("nan")]])


def test_table_rejects_duplicate_names():
    with pytest.raises(ValueError):
        DataTable(values=np.ones((1, 2)), attr_names=("a", "a"))


def test_a_table_copies_a_writeable_array_and_keeps_a_read_only_one():
    values = np.array([[1.0, 2.0], [3.0, 4.0]])
    t = DataTable(values=values, attr_names=("a", "b"))
    assert values.flags.writeable and not t.values.flags.writeable
    values[0, 0] = 9.0
    assert t.values[0, 0] == 1.0
    codes = np.array([[0, 1], [1, 0]])
    d = discrete(codes, (2, 2))
    assert codes.flags.writeable and not d.codes.flags.writeable
    codes[0, 0] = 1
    assert d.codes[0, 0] == 0
    values.flags.writeable = codes.flags.writeable = False
    assert DataTable(values=values, attr_names=("a", "b")).values is values
    assert discrete(codes, (2, 2)).codes is codes


def test_tables_are_immutable():
    t = table([[1, 2]])
    with pytest.raises(ValueError):
        t.values[0, 0] = 9.0
