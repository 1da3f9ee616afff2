import hashlib
import io
import json
import os
import re
import shlex
from dataclasses import dataclass, field

import numpy as np
import pytest

from unselect import pca, selectors
from unselect.cli import build_parser, main
from unselect.dataset import STRATEGIES, DataTable, fit_cut_points, write_csv
from unselect.selectors import select

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")
DATA_DIR = os.path.join(REPO_ROOT, "data")
DIABETES = os.path.join(DATA_DIR, "diabetes.arff")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def toy_csv(tmp_path, name="toy.csv", n=20, seed=50):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, 3))
    labels = tuple(np.where(values[:, 0] > 0, "p", "n"))
    t = DataTable(values=values, attr_names=("x", "y", "z"), labels=labels)
    path = tmp_path / name
    write_csv(t, path)
    return str(path)


@dataclass(frozen=True)
class Case:
    """One ``unselect`` command and what it must do, run by the ``console``
    fixture.  ``{tmp}`` in argv, env and every expected text stands for the
    row's own temporary directory."""
    test: str                   # the test the row belongs to, named for what it pins
    argv: str                   # split as a shell splits it
    code: int = 0
    out: str = ""               # all of stdout
    err: tuple | str = ()       # fragments of stderr; a str is all of it
    files: dict = field(default_factory=dict)   # name: bytes, written into {tmp} first
    env: dict = field(default_factory=dict)
    written: dict | None = None  # --out rows: name: all the text of every other file in {tmp}
    id: str | None = None       # a test's rows all carry ids, or it is the one row of its test


def run_case(console, case, tmp):
    def fill(expected):
        if isinstance(expected, str):
            return expected.replace("{tmp}", str(tmp))
        return tuple(fill(text) for text in expected)

    for name, data in case.files.items():
        (tmp / name).write_bytes(data)
    code, out, err = console([fill(arg) for arg in shlex.split(case.argv)],
                             {key: fill(value) for key, value in case.env.items()})
    shown = f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"
    assert code == case.code, shown
    # the exit code and the prefix of stderr tell the same kind of fault
    assert err.startswith({2: ("error: ", "usage: "), 3: "data error: "}.get(code, "")), shown
    assert out == fill(case.out), shown
    if isinstance(case.err, str):
        assert err == fill(case.err), shown
    else:
        assert all(fragment in err for fragment in fill(case.err)), shown
    if case.written is not None:
        assert sorted(os.listdir(tmp)) == sorted([*case.files, *case.written]), shown
        for name, text in case.written.items():
            assert (tmp / name).read_text(encoding="utf-8") == fill(text), name


def table_test(cases):
    """The pytest function for the rows of one test name: one test per row
    id, or a plain test for a name's one row without an id."""
    if cases[0].id is None:
        [case] = cases

        def test(console, tmp_path):
            run_case(console, case, tmp_path)
    else:
        @pytest.mark.parametrize("case", cases, ids=[case.id for case in cases])
        def test(console, tmp_path, case):
            run_case(console, case, tmp_path)
    return pytest.mark.cli_case(test)


ARFF_AB = b"@relation r\n@attribute a real\n@attribute b real\n@data\n"
SMALL_CSV = b"c,x,cls\n0.1,0,a\n0.1,1,b\n0.1,2,a\n0.1,3,b\n0.1,4,a\n0.1,5,b\n0.1,6,a\n"
SQUARED_CSV = "x,y,²\n1,2,a\n2,1,b\n3,9,a\n4,4,b\n8,7,a\n6,5,b\n".encode()
SQUARED_OUT = "subset: 2\nranking: 2:0.5000 1:0.6667\nfingerprint: d3f48cb9ce8a\n"
ARFF_LABEL_REFUSED = ("a label column applies only to a CSV file; the label of the ARFF file "
                      "{path} is its trailing nominal attribute")
REGISTRY_ARFF_LABEL = {"registry.txt": b"d, d.arff, 3\n",
                       "d.arff": b"@relation d\n@attribute x real\n@attribute y real\n"
                                 b"@attribute cls {a,b}\n@data\n"
                                 + b"1,2,a\n2,1,b\n3,9,a\n4,4,b\n" * 2}
LUNG_USQR = ("subset: 31,14,3,6,54,2,10\n"
             "rounds: 31:560:56 14:894:44 3:1363:43 6:1598:40 54:1738:39 2:1768:18 10:1792:1\n"
             "fingerprint: 8ee325f2c1e7\n")

# Every console behaviour the package pins.  A plain test run drives each row
# through cli.main, and `--console-script PATH` runs the same rows through an
# installed script.  Rows run from the repo root with UNSELECT_DATA_DIR unset
# unless the row sets it.
CLI_CASES = [
    # subsets, rounds, rankings and fingerprints
    Case("test_select_usqr_prints_subset_and_fingerprint",
         "select --data data/diabetes.arff --method usqr --bins 3 --strategy eqfreq",
         out="subset: 1,8,4,7,2,3,6,5\n"
             "rounds: 1:768:8 8:1541:7 4:2411:6 7:3356:5 2:4425:4 3:5466:3 6:6008:2 5:6144:1\n"
             "fingerprint: b5e3a8c964d5\n"),
    Case("test_select_edr_matches_published_diabetes_subset",
         "select --data data/diabetes.arff --method edr --k 4",
         out="subset: 3,4,6,2\n"
             "ranking: 3:0.4141 4:0.4570 6:0.4857 2:0.5456 1:0.5521 7:0.6159 8:0.6172 5:0.6237\n"
             "fingerprint: cce8db9812c4\n"),
    Case("test_select_json_holds_the_subset_and_fingerprint",
         "select --data data/diabetes.arff --method edr --k 4 --format json",
         out='{"fingerprint": "cce8db9812c4", "subset": "3,4,6,2"}\n'),
    # lung (56 attributes): the search settles whole columns
    Case("test_select_usqr_prints_its_rounds_and_keeps_json_to_the_subset",
         "select --data lung --method usqr", out=LUNG_USQR, id="table"),
    Case("test_select_usqr_prints_its_rounds_and_keeps_json_to_the_subset",
         "select --data lung --method usqr --format json",
         out='{"fingerprint": "8ee325f2c1e7", "subset": "31,14,3,6,54,2,10"}\n', id="json"),
    Case("test_select_usqr_pins_subset_and_rounds", "select --data breast --method usqr",
         out="subset: 1,30,5,11,22,15,16,12,29,19,18,10,23,20,14,9,25,2\n"
             "rounds: 1:758:30 30:1854:29 5:3236:28 11:5619:27 22:9091:26 15:12457:25 "
             "16:14736:24 12:15900:22 29:16516:21 19:16817:20 18:16929:19 10:16994:17 "
             "23:17034:16 20:17047:9 14:17057:8 9:17063:4 25:17068:2 2:17070:1\n"
             "fingerprint: 1c273e8a9e71\n",
         id="breast-default-binning-settles-columns-mid-search"),
    Case("test_select_usqr_pins_subset_and_rounds",
         "select --data breast --method usqr --strategy eqwidth --bins 5",
         out="subset: 21,28,16,22,25,9,10,29,2,12,19,4,5,27,23,1,6,15,26,18,7,8\n"
             "rounds: 21:1589:30 28:3308:29 16:5846:28 22:8505:27 25:11188:26 9:13424:25 "
             "10:14799:24 29:15738:23 2:16223:22 12:16552:20 19:16727:19 4:16838:15 "
             "5:16917:12 27:16975:11 23:17011:10 1:17040:9 6:17048:8 15:17056:6 26:17062:5 "
             "18:17066:3 7:17068:2 8:17070:1\n"
             "fingerprint: 74fdf4ed2902\n",
         id="breast-eqwidth-5-bins-fields-span-two-packed-words"),
    Case("test_select_roughpca_pins_the_subset_its_usqr_chooses",
         "select --data lung --method roughpca",
         out="subset: 6,4,8,38,2,10,12\nfingerprint: 40ef73b6daa9\n", id="lung"),
    Case("test_select_roughpca_pins_the_subset_its_usqr_chooses",
         "select --data heart --method roughpca --strategy eqwidth --bins 4",
         out="subset: 1,11,5,7,9,2,10,6\nfingerprint: 610a1109edf0\n", id="heart-eqwidth-4-bins"),
    Case("test_fingerprints_are_pinned", "select --data heart --method pca --k 3",
         out="subset: 6,7,5\n"
             "ranking: 6:0.9916 7:0.9789 5:0.9705 12:0.9673 9:0.9646 4:0.9621 3:0.9504 "
             "2:0.8589 1:0.8564 11:0.8488 8:0.8215 10:0.8210 13:0.8129\n"
             "fingerprint: 2568610919d6\n", id="select-pca"),
    Case("test_fingerprints_are_pinned", "select --data lung --method usqr", out=LUNG_USQR,
         id="select-usqr"),
    Case("test_fingerprints_are_pinned",
         "evaluate --data heart --method edr --k 4 --classifiers nb,knn --pc-policy kaiser",
         out="heart edr nb subset=2,8,11,1 accuracy=72.5926\n"
             "heart edr knn subset=2,8,11,1 accuracy=67.0370\n"
             "fingerprint: 932202d38551\n", id="evaluate"),
    Case("test_select_registry_name_resolution", "select --data ecoli --method edr --k 4",
         env={"UNSELECT_DATA_DIR": "data"},
         out="subset: 1,5,6,2\n"
             "ranking: 1:0.5030 5:0.5327 6:0.5625 2:0.5923 7:0.6012 3:0.9702 4:0.9970\n"
             "fingerprint: 4e3ef22c4b9f\n"),
    *[Case("test_select_a_small_csv",
           f"select --data {{tmp}}/{name} --label-col cls --method edr --k 1",
           files={name: text},
           out=f"subset: 2\nranking: 2:0.5714 1:1.0000\nfingerprint: {fingerprint}\n", id=id)
      for name, text, fingerprint, id in (
          ("const.csv", SMALL_CSV, "901b81876705", "constant-column-ranks-last"),
          ("bom.csv", b"\xef\xbb\xbfcls,c,x\na,0.1,0\nb,0.1,1\na,0.1,2\nb,0.1,3\na,0.1,4\n"
                      b"b,0.1,5\na,0.1,6\n", "42db275bf84b",
           "byte-order-mark-before-the-label-name"),
          ("crlf.csv", SMALL_CSV.replace(b"\n", b"\r\n"), "3ea0656fab72", "crlf-line-ends"))],
    # ² is a digit to str.isdigit but no number to int: it names a column
    Case("test_a_label_column_named_by_a_non_decimal_digit_is_a_name",
         "select --data {tmp}/d.csv --label-col ² --method edr --k 1",
         files={"d.csv": SQUARED_CSV}, out=SQUARED_OUT, id="label-col"),
    Case("test_a_label_column_named_by_a_non_decimal_digit_is_a_name",
         "select --data d --method edr --k 1", env={"UNSELECT_DATA_DIR": "{tmp}"},
         files={"d.csv": SQUARED_CSV, "registry.txt": "d, d.csv, ²\n".encode()},
         out=SQUARED_OUT, id="registry"),
    *[Case("test_select_pc_policy_values",
           f"select --data data/diabetes.arff --method roughpca --pc-policy {policy}",
           out=f"subset: {subset}\nfingerprint: {fingerprint}\n", id=f"{policy}-0")
      for policy, subset, fingerprint in (("var:0.8", "3,4,6,7,8", "b01eda5cae17"),
                                          ("kaiser", "3,6,8", "663f75996b4f"),
                                          ("fixed:2", "6,8", "422093c95939"))],
    *[Case("test_select_pc_policy_values",
           f"select --data data/diabetes.arff --method roughpca --pc-policy {policy}", code=2,
           id=f"{policy}-2") for policy in ("var:x", "fixed:1.5", "var", "kaiser:1", "magic")],
    # cross-validated accuracies; breast's k-NN filter blocks hold two folds each,
    # so the k-th distance bound is taken per fold of a block
    *[Case("test_evaluate_pins_accuracy", argv, out=out, id=id) for argv, out, id in (
        ("evaluate --data diabetes --method edr --k 4 --classifiers knn",
         "diabetes edr knn subset=3,4,6,2 accuracy=71.3542\nfingerprint: 1f0d9c946f83\n",
         "diabetes-edr-knn"),
        ("evaluate --data lung --method usqr --classifiers knn",
         "lung usqr knn subset=31,14,3,6,54,2,10 accuracy=53.1250\nfingerprint: ab416cb39482\n",
         "lung-usqr-knn"),
        ("evaluate --data breast --method edr --k 5 --classifiers knn",
         "breast edr knn subset=5,25,22,9,2 accuracy=76.0984\nfingerprint: 5d5c2bda1d5c\n",
         "breast-edr-knn-two-folds-per-filter-block"),
        ("evaluate --data diabetes --method pca --k 3 --classifiers nb,knn,dtable --global-prep",
         "diabetes pca nb subset=7,3,1 accuracy=66.6667\n"
         "diabetes pca knn subset=7,3,1 accuracy=62.3698\n"
         "diabetes pca dtable subset=7,3,1 accuracy=66.9271\n"
         "fingerprint: 9515cfe75ff8\n", "diabetes-pca-three-classifiers-global-prep"),
        ("evaluate --data heart --method edr --k 4 --classifiers dtable --strategy eqwidth "
         "--bins 4",
         "heart edr dtable subset=2,8,11,1 accuracy=70.7407\nfingerprint: 7fc667365e03\n",
         "heart-edr-dtable-eqwidth-4-bins"))],
    # bench
    Case("test_bench_csv_shows_only_the_method_that_ran",
         "bench --datasets ecoli --methods edr --classifiers nb --format csv",
         out="dataset,classifier,edr\necoli,Naive Bayes,85.1190\n"),
    Case("test_bench_out_writes_its_file_or_nothing", "bench --out {tmp}/missing/r.txt",
         code=2, written={}, id="missing-directory"),
    Case("test_bench_out_writes_its_file_or_nothing",
         "bench --datasets ecoli --methods edr --classifiers nb --format table --out {tmp}/r.json",
         written={"r.json": "Classification accuracy for ecoli\n"
                            "Classifier   EDR    \nNaive Bayes  85.1190\n"},
         id="table-into-r.json"),
    Case("test_bench_out_writes_its_file_or_nothing", "bench --out {tmp}", code=2, written={},
         id="a-directory"),
    *[Case("test_bench_without_a_registry_exits_3", "bench", code=3,
           err=("{tmp}/registry.txt",), files=files, env={"UNSELECT_DATA_DIR": "{tmp}"}, id=id)
      for files, id in (({}, "missing"), ({"registry.txt": b""}, "empty"),
                        ({"registry.txt": b"# no datasets\n\n"}, "comments-only"))],
    *[Case("test_a_registry_repeating_a_name_exits_3_naming_both_lines", argv, code=3,
           err=("registry line 2 of {tmp}/registry.txt repeats the name 'd' of line 1",),
           files={"registry.txt": b"d, d.csv, cls\nd, d.csv, 1\n"},
           env={"UNSELECT_DATA_DIR": "{tmp}"}, id=id)
      for argv, id in (("bench", "bench"), ("select --data d --method usqr", "select-by-name"))],
    Case("test_a_registry_not_in_utf8_exits_3_naming_its_line", "bench --datasets plain",
         code=3, err=("byte 0xe9 at line 3 of {tmp}/registry.txt is not UTF-8",),
         files={"registry.txt": b"# datasets\nplain, plain.csv\n\xe9cole, e.csv\n"},
         env={"UNSELECT_DATA_DIR": "{tmp}"}),
    *[Case("test_a_registry_line_with_an_empty_field_exits_3_naming_it", "bench", code=3,
           err="data error: registry line 2 of {tmp}/registry.txt needs 'name, path, label'\n",
           files={"registry.txt": b"d, d.csv, cls\n%s\n" % line},
           env={"UNSELECT_DATA_DIR": "{tmp}"}, id=id)
      for line, id in ((b"bad, , auto", "path"), (b", d.csv, cls", "name"),
                       (b"bad, d.csv,", "label"))],
    # the registry's own directory is a path no file can be read from
    Case("test_bench_records_a_dataset_it_cannot_read_and_renders_the_rest",
         "bench --methods edr --classifiers nb --folds 2", code=4,
         out="Classification accuracy for d\nClassifier   EDR    \nNaive Bayes  42.8571\n\n"
             "ERROR here: cannot read {tmp}/.: Is a directory\n",
         err="ERROR here: cannot read {tmp}/.: Is a directory\n",
         files={"d.csv": SMALL_CSV, "registry.txt": b"d, d.csv, cls\nhere, .\n"},
         env={"UNSELECT_DATA_DIR": "{tmp}"}),
    # the repo root, where rows run, holds a directory named data
    Case("test_a_directory_does_not_hide_a_registry_name", "select --data data --method edr --k 1",
         files={"d.csv": SMALL_CSV, "registry.txt": b"data, d.csv, cls\n"},
         env={"UNSELECT_DATA_DIR": "{tmp}"},
         out="subset: 2\nranking: 2:0.5714 1:1.0000\nfingerprint: 6ab9274dd69d\n"),
    Case("test_a_name_without_a_registry_exits_3_naming_both",
         "select --data no-such-file.csv --method usqr", code=3,
         err=("no-such-file.csv", "{tmp}/registry.txt"), env={"UNSELECT_DATA_DIR": "{tmp}"}),
    # the retired report subcommand is an unknown choice, like any other
    Case("test_report_is_no_longer_a_subcommand", "report --input {tmp}/r.json", code=2,
         err=("invalid choice: 'report'",)),
    # settings refused with exit 2
    Case("test_select_unknown_method_exits_2", "select --data data/diabetes.arff --method magic",
         code=2, err=("usqr", "edr")),     # the usage text lists the valid methods
    *[Case("test_edr_without_k_exits_2", f"{command} --data data/diabetes.arff --method edr",
           code=2, err=("needs k",), id=command) for command in ("select", "evaluate")],
    *[Case("test_k_with_a_greedy_method_exits_2",
           f"{command} --data data/diabetes.arff --method {method} --k 2", code=2,
           err=("k applies only to pca and edr",), id=f"{method}-{command}")
      for method in ("usqr", "roughpca") for command in ("select", "evaluate")],
    *[Case("test_label_col_on_a_registry_name_or_arff_file_exits_2",
           f"{command} --data heart --label-col 3 --method edr --k 2", code=2,
           err=("--label-col applies only to a CSV file", "from the registry"),
           id=f"heart-from the registry-{command}") for command in ("select", "evaluate")],
    # load_table refuses a label column for an ARFF file, whether it comes
    # from --label-col or a registry line
    *[Case("test_label_col_on_a_registry_name_or_arff_file_exits_2",
           f"{command} --data {shlex.quote(DIABETES)} --label-col 3 --method edr --k 2", code=2,
           err=f"error: {ARFF_LABEL_REFUSED.format(path=DIABETES)}\n",
           id=f"diabetes.arff-trailing nominal attribute-{command}")
      for command in ("select", "evaluate")],
    Case("test_a_registry_label_column_on_an_arff_file_is_refused",
         "select --data d --method edr --k 1", code=2,
         err=f"error: {ARFF_LABEL_REFUSED.format(path='{tmp}/d.arff')}\n",
         files=REGISTRY_ARFF_LABEL, env={"UNSELECT_DATA_DIR": "{tmp}"}, id="select"),
    Case("test_a_registry_label_column_on_an_arff_file_is_refused",
         "bench --methods edr --classifiers nb --folds 2", code=4,
         out=f"ERROR d: {ARFF_LABEL_REFUSED.format(path='{tmp}/d.arff')}\n",
         err=f"ERROR d: {ARFF_LABEL_REFUSED.format(path='{tmp}/d.arff')}\n",
         files=REGISTRY_ARFF_LABEL, env={"UNSELECT_DATA_DIR": "{tmp}"}, id="bench-error-row"),
    Case("test_a_bad_setting_exits_2_with_no_output",
         "select --data ecoli --method edr --k 2 --pc-policy var:1.5", code=2,
         id="pc-policy-out-of-range-for-a-method-that-fits-no-pca"),
    Case("test_a_bad_setting_exits_2_with_no_output", "bench --folds 1", code=2,
         id="fold-count-below-2"),
    Case("test_a_bad_setting_exits_2_with_no_output", "bench --methods edr,edr", code=2,
         id="repeated-method"),
    Case("test_a_bad_setting_exits_2_with_no_output", "select --data ecoli --method pca",
         code=2, id="pca-without-k"),
    # two folds of four rows leave two training rows, fewer than k-NN's k = 3
    Case("test_evaluate_fold_the_classifier_cannot_fit_exits_2",
         "evaluate --data {tmp}/four.csv --label-col cls --method edr --k 1 --folds 2 "
         "--classifiers knn", code=2, err=("2 training rows",),
         files={"four.csv": b"x,y,cls\n1,2,a\n2,1,a\n5,6,b\n6,5,b\n"}),
    # max - min of column a is past the largest float; binned, it would be one
    # bin and the subset would leave it out without a word
    *[Case("test_select_a_column_whose_range_overflows_exits_2_naming_it",
           f"select --data {{tmp}}/wide.csv --method usqr --strategy {strategy}", code=2,
           err=("column 1: its range",),
           files={"wide.csv": b"a,b\n-1.7e308,0\n1.7e308,1\n0,0\n1,1\n"}, id=strategy)
      for strategy in ("eqwidth", "eqfreq")],
    # files that cannot be read exit 3
    Case("test_select_missing_file_exits_3", "select --data no-such-file.csv --method usqr",
         code=3, err=("no-such-file.csv",)),
    Case("test_evaluate_on_an_unlabeled_csv_exits_3",
         "evaluate --data {tmp}/plain.csv --method edr --k 1", code=3,
         err=("needs a labeled dataset",), files={"plain.csv": b"x,y\n1,2\n3,1\n2,5\n4,4\n"}),
    *[Case("test_select_non_finite_cell_exits_3_with_its_file_position",
           "select --data {tmp}/t.csv --label-col cls --method usqr", code=3,
           err=("row 3, column 2",), files={"t.csv": b"x,y,cls\n1,2,a\n3,%s,b\n" % token},
           id=token.decode()) for token in (b"inf", b"-1e400")],
    *[Case("test_a_file_the_table_rejects_exits_3_naming_the_file",
           f"select --data {{tmp}}/{name} {label}--method edr --k 1", code=3,
           err=f"data error: {message}\n", files={name: text}, id=id)
      for name, label, text, message, id in (
          ("t.csv", "--label-col cls ", b"a,a,cls\n1,2,A\n3,4,B\n",
           "column 2 of {tmp}/t.csv repeats the name 'a' of column 1", "csv-repeated-name"),
          ("t.arff", "", b"@relation t\n@attribute a real\n@attribute a real\n"
                         b"@attribute cls {A,B}\n@data\n1,2,A\n3,4,B\n",
           "column 2 of {tmp}/t.arff repeats the name 'a' of column 1", "arff-repeated-name"),
          ("t.csv", "--label-col cls ", b"cls\nA\nB\n",
           "{tmp}/t.csv has no feature column: its only column is the label", "csv-label-only"),
          ("t.arff", "", b"@relation t\n@attribute cls {A,B}\n@data\nA\nB\n",
           "{tmp}/t.arff has no feature column: its only column is the label",
           "arff-label-only"))],
    # long.csv's bad byte lies past the text reader's first chunks of the file
    *[Case("test_a_file_not_in_utf8_exits_3",
           f"select --data {{tmp}}/{name} {label}--method edr --k 1", code=3,
           err=f"data error: byte 0xe9 at line {line} of {{tmp}}/{name} is not UTF-8\n",
           files={name: text}, id=id)
      for name, label, text, line, id in (
          ("t.csv", "--label-col cls ", b"x,y,cls\n1,2,\xe9\n3,4,b\n", 2, "csv"),
          ("t.arff", "", b"@relation t\n@attribute x real\n@attribute cls {a,b}\n"
                         b"@data\n1,a\n2,b\n3,\xe9\n", 7, "arff"),
          ("long.csv", "--label-col cls ", b"x,y,cls\n" + b"1,2,a\n" * 3000 + b"3,4,\xe9\n",
           3002, "csv-past-the-first-chunks"))],
    *[Case("test_a_label_column_the_file_lacks_exits_3_naming_it_1_based",
           f"select --data {{tmp}}/d.csv --label-col {label_col} --method usqr", code=3,
           err=f"data error: {message}\n", files={"d.csv": b"x,y,cls\n1,2,a\n3,4,b\n"}, id=id)
      for label_col, message, id in (
          ("9", "label column 9 out of range: {tmp}/d.csv has 3 columns", "past-the-end"),
          ("0", "label column 0 out of range: {tmp}/d.csv has 3 columns", "zero"),
          ("kind", "label column 'kind' not in the header of {tmp}/d.csv", "name"))],
    # \x1c-\x1f is no blank to float, so no reader takes it for one; an ARFF
    # line before @data is a whole header line, and every line after it is a
    # data row; an ARFF label or nominal feature value is a declared value; a
    # CSV row is a file line, even after a quoted cell that spans lines
    *[Case("test_select_on_a_misread_file_exits_3_naming_its_row",
           f"select --data {{tmp}}/{name} {label}--method edr --k 1", code=3,
           err=(where,), files={name: text}, id=id)
      for name, label, text, where, id in (
          ("t.arff", "", ARFF_AB + b"1,2\n1.5\x1c,3\n4,5\n", "row 6, column 1",
           "arff-cell-after"),
          ("t.arff", "", ARFF_AB + b"1,2\n\x1c1.5,3\n4,5\n", "row 6, column 1",
           "arff-cell-before"),
          ("t.csv", "", b"a,b\n1,2\n\x1c,\x1c\n3,4\n", "row 3, column 1", "csv-separator-cells"),
          ("t.csv", "", b"a,b\n1,2\n\x1c\n3,4\n", "ragged row 3", "csv-separator-row"),
          ("t.arff", "", ARFF_AB + b"1,2\n\x1c\n4,5\n", "ragged row 6", "arff-separator-row"),
          ("t.arff", "", b"@relation r\n@attribute a real\nstray,junk\n@data\n3\n4\n",
           "line 3 of", "arff-stray-header-line"),
          ("t.arff", "", b"@relation r\n@attribute a real\n@data\n3\n@attribute b real\n4\n",
           "row 5, column 1", "arff-attribute-after-data"),
          ("t.arff", "", b"@relation r\n@attribute a realistic\n@attribute b integers\n"
                         b"@datafoo\n1,2\n3,4\n", "line 2 of", "arff-type-prefix"),
          ("t.arff", "", b"@relation r\n@attribute a real\n@attribute cls {yes,no}\n@data\n"
                         b"1,yes\n2,maybe\n", "row 6, column 2", "arff-undeclared-label"),
          ("t.arff", "", b"@relation r\n@attribute x real\n@attribute g {1,2}\n"
                         b"@attribute cls {a,b}\n@data\n1,1,a\n1,5,a\n", "row 7, column 2",
           "arff-undeclared-nominal-feature-value"),
          ("t.csv", "", b'a,b\n1,"2\n"\n3,4\nzz,5\n', "row 5, column 1", "csv-multi-line-cell"),
          ("t.csv", "--label-col cls ", b'x,cls\n1,"a\nb"\n2,c\nzz,d\n', "row 5, column 1",
           "csv-multi-line-label-cell"),
          ("t.csv", "", b"a,b\n1.5\x1c,2\n1.5\x1c2,3\n4,5\n", "row 2, column 1", "csv-cell-after"),
          ("big.csv", "", b"a,b\n" + b"1.5,2\n" * 19999 + b"4,x\n", "row 20001",
           "csv-bad-cell-in-the-last-of-20001-rows"),
          ("long.csv", "", b"a,b\n1,2\n" + b"x" * 200000 + b",3\n4,5\n", "row 3 ",
           "csv-cell-over-the-field-limit"))],
]

# one pytest function per test name, so a failing row reports what it pins
for _name in dict.fromkeys(case.test for case in CLI_CASES):
    globals()[_name] = table_test([case for case in CLI_CASES if case.test == _name])


def test_label_col_as_a_one_based_number_names_that_column(capsys, tmp_path):
    data = toy_csv(tmp_path)        # columns x, y, z, class
    base = ["evaluate", "--data", data, "--method", "edr", "--k", "2", "--folds", "4"]
    by_number = run(capsys, *base, "--label-col", "4")
    assert by_number[0] == 0
    assert by_number == run(capsys, *base, "--label-col", "class")


@pytest.mark.parametrize("strategy, bins", [("mystery", 3), ("eqfreq", 1)])
def test_one_binning_rule_for_config_cut_points_and_cli(strategy, bins):
    with pytest.raises(ValueError) as config_error:
        selectors.SelectorConfig(strategy=strategy, bins=bins)
    with pytest.raises(ValueError) as cuts_error:
        fit_cut_points(np.array([[0.0], [1.0]]), strategy, bins)
    assert str(config_error.value) == str(cuts_error.value)
    select_parser = build_parser()._subparsers._group_actions[0].choices["select"]
    [choices] = [a.choices for a in select_parser._actions if a.dest == "strategy"]
    assert tuple(choices) == STRATEGIES


@pytest.mark.parametrize("method, scorer", [("pca", pca.fit_pca),
                                            ("edr", selectors.edr_scores)])
def test_select_ranks_once(capsys, count_calls, method, scorer):
    calls = count_calls(scorer)
    code, out, _ = run(capsys, "select", "--data", DIABETES, "--method",
                       method, "--k", "3")
    assert code == 0 and "ranking:" in out
    assert len(calls) == 1


def readme_section(heading):
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    return text[text.index(heading):]


def readme_cli_examples():
    block = re.search(r"```bash\n(.*?)```", readme_section("## CLI"), re.S)[1]
    commands = block.replace("\\\n", " ").splitlines()
    return [shlex.split(c)[1:] for c in commands
            if c.startswith(("unselect select", "unselect evaluate"))]


@pytest.mark.parametrize("argv", readme_cli_examples(),
                         ids=lambda argv: f"{argv[0]}-{argv[argv.index('--method') + 1]}")
def test_readme_cli_example_runs(capsys, monkeypatch, argv):
    monkeypatch.chdir(REPO_ROOT)
    code, _, err = run(capsys, *argv)
    assert code == 0, err


def test_readme_library_example_runs(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    code = re.search(r"```python\n(.*?)```", readme_section("## Library use"), re.S)[1]
    exec(compile(code, "README.md", "exec"), {})


def no_load(*args, **kwargs):
    raise AssertionError("a dataset was loaded")


@pytest.mark.parametrize("policy", ["var:1.5", "var:0", "fixed:0"])
@pytest.mark.parametrize("argv", [
    ("select", "--data", "ecoli", "--method", "edr", "--k", "2"),
    ("select", "--data", "ecoli", "--method", "usqr"),
    ("evaluate", "--data", "ecoli", "--method", "edr", "--k", "2"),
    ("bench", "--datasets", "ecoli"),
], ids=["select-edr", "select-usqr", "evaluate", "bench"])
def test_bad_pc_policy_exits_2_before_any_load(capsys, monkeypatch, argv, policy):
    monkeypatch.setenv("UNSELECT_DATA_DIR", os.path.abspath(DATA_DIR))
    monkeypatch.setattr("unselect.dataset.Registry.load", no_load)
    code, out, err = run(capsys, *argv, "--pc-policy", policy)
    assert code == 2
    assert out == "" and "pc policy" in err


@pytest.mark.parametrize("fmt, extra, digest", [
    ("json", (), "547e58fb3640927ab9b875dc19c391d503e97e6a0b0935f32fcd281882c035a4"),
    ("table", (), "9102fb75d7dc8637980373c248da115fd7cf138eaa520ea5eb124629a2b5ca1a"),
    ("csv", (), "62732abaf029a1b1083e860120d58d8f29659ce34f48578250eb98d64dffb4c5"),
    ("json", ("--global-prep",),
     "5cc6256ea56f5bc2692a4dcfa9f374939a163c6eb5962d248946c941aaefa677"),
    ("table", ("--global-prep",),
     "eaf1436cec392246ebb9e2356c5bff2443c21f201aa584f85e028dc60f957734"),
    ("csv", ("--global-prep",),
     "42411e696d6c70e2491965291a64e8fedd4564685a53a7b4ea7f19eaeb6fad2a"),
], ids=["json", "table", "csv", "json-global-prep", "table-global-prep", "csv-global-prep"])
def test_bench_output_bytes_are_pinned(capsys, monkeypatch, fmt, extra, digest):
    monkeypatch.setenv("UNSELECT_DATA_DIR", os.path.abspath(DATA_DIR))
    code, out, err = run(capsys, "bench", "--seed", "1", "--format", fmt, *extra)
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def no_work(*args, **kwargs):
    raise AssertionError("work started before --out was checked")


@pytest.mark.parametrize("argv", [
    ("bench", "--seed", "1"),
    ("select", "--data", "ecoli", "--method", "usqr"),
    ("evaluate", "--data", "ecoli", "--method", "edr", "--k", "2"),
], ids=["bench", "select", "evaluate"])
@pytest.mark.parametrize("out_name", ["missing/r.txt", "file.txt/r.txt", "dir"],
                         ids=["missing", "file.txt", "dir"])
def test_out_in_a_missing_directory_exits_2_before_any_work(capsys, tmp_path, monkeypatch,
                                                           argv, out_name):
    monkeypatch.setenv("UNSELECT_DATA_DIR", os.path.abspath(DATA_DIR))
    for target in ("unselect.cli.run_benchmark", "unselect.cli.load_table",
                   "unselect.dataset.Registry.load"):
        monkeypatch.setattr(target, no_work)
    (tmp_path / "file.txt").write_text("")
    (tmp_path / "dir").mkdir()
    out_path = tmp_path / out_name
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 2
    assert out == "" and str(out_path) in err
    assert sorted(os.listdir(tmp_path)) == ["dir", "file.txt"]
    assert os.listdir(tmp_path / "dir") == []
    assert (tmp_path / "file.txt").read_text() == ""


@pytest.mark.parametrize("fmt, out_name", [("table", "r.json"), ("csv", "r.txt")])
def test_bench_out_holds_what_format_renders_and_nothing_else(capsys, tmp_path, monkeypatch,
                                                              fmt, out_name):
    monkeypatch.setenv("UNSELECT_DATA_DIR", os.path.abspath(DATA_DIR))
    argv = ["bench", "--datasets", "ecoli", "--methods", "edr", "--classifiers", "nb",
            "--folds", "5", "--format", fmt]
    _, rendered, _ = run(capsys, *argv)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / out_name))
    assert code == 0 and out == "" and err == ""
    assert (tmp_path / out_name).read_text() == rendered
    assert os.listdir(tmp_path) == [out_name]


def test_a_result_stdout_cannot_encode_exits_3(capsys, tmp_path, monkeypatch):
    # capsys takes any str, so stdout here is a real ASCII text stream
    toy_csv(tmp_path, "d.csv")
    (tmp_path / "registry.txt").write_text("\xe9t\xe9, d.csv, class\n", encoding="utf-8")
    monkeypatch.setenv("UNSELECT_DATA_DIR", str(tmp_path))
    monkeypatch.setattr("sys.stdout", io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
    code = main(["bench", "--methods", "edr", "--classifiers", "nb", "--folds", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("data error: 'ascii' codec can't encode character '\\xe9'"), err


def test_select_a_file_reads_no_registry(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("UNSELECT_DATA_DIR", str(tmp_path))     # holds no registry.txt
    monkeypatch.setattr("unselect.cli.default_registry", no_work)
    code, out, err = run(capsys, "select", "--data", DIABETES, "--method", "edr",
                         "--k", "4")
    assert code == 0, err
    assert "subset: 3,4,6,2" in out


def test_bench_dataset_without_labels_is_an_error_row(capsys, tmp_path, monkeypatch):
    (tmp_path / "plain.csv").write_text("x,y\n1,2\n3,1\n2,5\n4,4\n")
    (tmp_path / "registry.txt").write_text("plain, plain.csv, auto\n")
    monkeypatch.setenv("UNSELECT_DATA_DIR", str(tmp_path))
    code, out, err = run(capsys, "bench", "--methods", "edr", "--classifiers", "nb",
                         "--format", "json")
    assert code == 4
    payload = json.loads(out)
    assert payload["rows"] == []
    assert payload["errors"] == [{"dataset": "plain", "error": "dataset 'plain' has no labels"}]
    assert "ERROR plain: dataset 'plain' has no labels" in err


def test_evaluate_reports_accuracy(capsys, tmp_path):
    data = toy_csv(tmp_path)
    code, out, _ = run(
        capsys, "evaluate", "--data", data, "--label-col", "class",
        "--method", "edr", "--k", "2", "--folds", "4", "--classifiers",
        "nb,knn",
    )
    assert code == 0
    assert "accuracy=" in out
    assert out.count("accuracy=") == 2


def test_evaluate_fingerprint_covers_every_setting(capsys, tmp_path):
    data = toy_csv(tmp_path)
    base = ["evaluate", "--data", data, "--label-col", "class", "--method", "edr",
            "--k", "2", "--folds", "4"]

    def fingerprint(*extra):
        code, out, _ = run(capsys, *base, *extra)
        assert code == 0
        return out.strip().splitlines()[-1]

    changed = [("--k", "3"), ("--pc-policy", "kaiser"), ("--classifiers", "knn"),
               ("--missing", "drop"), ("--global-prep",)]
    prints = [fingerprint()] + [fingerprint(*flags) for flags in changed]
    assert len(set(prints)) == len(prints)
    assert fingerprint() == prints[0]


def test_bench_table_shape_and_exit_zero(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("UNSELECT_DATA_DIR", os.path.abspath(DATA_DIR))
    code, out, err = run(
        capsys, "bench", "--datasets", "ecoli", "--methods", "edr,usqr",
        "--classifiers", "nb", "--folds", "5",
    )
    assert code == 0
    assert "Classification accuracy for ecoli" in out
    assert "Naive Bayes" in out


def test_bench_twice_writes_identical_files(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("UNSELECT_DATA_DIR", os.path.abspath(DATA_DIR))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out_path in (out1, out2):
        code, _, _ = run(
            capsys, "bench", "--datasets", "ecoli", "--methods", "edr",
            "--classifiers", "nb", "--folds", "5", "--seed", "3",
            "--format", "json", "--out", str(out_path),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bench_missing_dataset_exits_4(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("UNSELECT_DATA_DIR", os.path.abspath(DATA_DIR))
    report_path = tmp_path / "r.json"
    code, out, err = run(
        capsys, "bench", "--datasets", "nonexistent,ecoli", "--methods", "edr",
        "--classifiers", "nb", "--folds", "5", "--format", "json",
        "--out", str(report_path),
    )
    assert code == 4
    assert "nonexistent" in err
    payload = json.loads(report_path.read_text())
    assert [e["dataset"] for e in payload["errors"]] == ["nonexistent"]
    assert payload["rows"]


def test_bench_programming_error_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("UNSELECT_DATA_DIR", os.path.abspath(DATA_DIR))

    def broken_select(*args):
        raise TypeError("selector bug")

    monkeypatch.setattr("unselect.eval.select", broken_select)
    code, out, err = run(
        capsys, "bench", "--datasets", "ecoli", "--methods", "edr",
        "--classifiers", "nb", "--folds", "5",
    )
    assert code == 1
    assert "internal error: selector bug" in err


def test_bench_method_error_exits_4_and_names_the_method(capsys, monkeypatch):
    monkeypatch.setenv("UNSELECT_DATA_DIR", os.path.abspath(DATA_DIR))

    def select_failing_usqr(table, method, cfg, k=None):
        if method == "usqr":
            raise ValueError("no reduct")
        return select(table, method, cfg, k)

    monkeypatch.setattr("unselect.eval.select", select_failing_usqr)
    code, out, err = run(
        capsys, "bench", "--datasets", "ecoli", "--methods", "edr,usqr",
        "--classifiers", "nb", "--folds", "5",
    )
    assert code == 4
    assert "ERROR ecoli/usqr: no reduct" in err
    assert "Naive Bayes" in out


@pytest.mark.parametrize("argv", [
    ("bench", "--methods", "foo"),
    ("bench", "--methods", "edr,foo"),
    ("bench", "--classifiers", "nb,foo"),
    ("evaluate", "--data", "ecoli", "--method", "edr", "--k", "2", "--classifiers", "foo"),
])
def test_unknown_id_in_a_list_exits_2_before_any_load(capsys, monkeypatch, argv):
    monkeypatch.setenv("UNSELECT_DATA_DIR", os.path.abspath(DATA_DIR))
    monkeypatch.setattr("unselect.dataset.Registry.load", no_load)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and "foo" in err


@pytest.mark.parametrize("argv", [
    ("bench", "--datasets", "ecoli,ecoli"),
    ("bench", "--methods", "edr,usqr,edr"),
    ("bench", "--classifiers", "nb,nb"),
    ("evaluate", "--data", "ecoli", "--method", "edr", "--k", "2", "--classifiers", "knn,knn"),
])
def test_duplicate_id_in_a_list_exits_2_before_any_load(capsys, monkeypatch, argv):
    monkeypatch.setenv("UNSELECT_DATA_DIR", os.path.abspath(DATA_DIR))
    monkeypatch.setattr("unselect.dataset.Registry.load", no_load)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and "duplicate id" in err


@pytest.mark.parametrize("flags, message", [
    (("--folds", "1"), "fold count"),
    (("--folds", "0"), "fold count"),
    (("--seed", "-1"), "fold seed"),
])
@pytest.mark.parametrize("argv", [
    ("bench",),
    ("evaluate", "--data", "ecoli", "--method", "edr", "--k", "2"),
], ids=["bench", "evaluate"])
def test_bad_folds_or_seed_exits_2_before_any_load(capsys, monkeypatch, argv, flags, message):
    monkeypatch.setenv("UNSELECT_DATA_DIR", os.path.abspath(DATA_DIR))
    monkeypatch.setattr("unselect.dataset.Registry.load", no_load)
    code, out, err = run(capsys, *argv, *flags)
    assert code == 2
    assert out == "" and message in err


def test_bench_shows_only_the_run_methods_and_classifiers(capsys, monkeypatch):
    monkeypatch.setenv("UNSELECT_DATA_DIR", os.path.abspath(DATA_DIR))
    base = ["bench", "--datasets", "ecoli", "--methods", "edr,usqr", "--classifiers", "nb",
            "--folds", "5"]
    code, table, _ = run(capsys, *base, "--format", "table")
    assert code == 0
    assert table.splitlines()[1].split() == ["Classifier", "EDR", "USQR"]
    assert [line.split("  ")[0] for line in table.splitlines()[2:]] == ["Naive Bayes"]
    code, csv_text, _ = run(capsys, *base, "--format", "csv")
    assert code == 0
    lines = csv_text.splitlines()
    assert lines[0] == "dataset,classifier,edr,usqr"
    assert len(lines) == 2 and lines[1].startswith("ecoli,Naive Bayes,")
    assert "" not in lines[1].split(",")


def test_help_lists_flags_with_defaults():
    choices = build_parser()._subparsers._group_actions[0].choices
    assert list(choices) == ["select", "evaluate", "bench"]
    for command, sub in choices.items():
        text = sub.format_help()
        assert ("--format" in text) == (command != "evaluate")
        if command == "bench":
            for flag in ("--datasets", "--methods", "--classifiers", "--folds",
                         "--seed", "--bins", "--strategy", "--pc-policy",
                         "--global-prep", "--out"):
                assert flag in text
            assert "default: 10" in text and "default: 1" in text


def test_results_on_stdout_diagnostics_on_stderr(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("UNSELECT_DATA_DIR", os.path.abspath(DATA_DIR))
    code, out, err = run(
        capsys, "bench", "--datasets", "ecoli", "--methods", "edr",
        "--classifiers", "nb", "--folds", "5",
    )
    assert code == 0
    # the rendered report is the only stdout content; no diagnostics leak in
    assert "Classification accuracy for ecoli" in out
    assert err == ""
    code, out, err = run(
        capsys, "bench", "--datasets", "nonexistent", "--methods", "edr",
        "--classifiers", "nb",
    )
    assert code == 4
    assert "ERROR nonexistent" in err
