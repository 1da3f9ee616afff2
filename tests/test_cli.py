import hashlib
import json
import os
import re
import shlex

import numpy as np
import pytest

from unselect import pca, selectors
from unselect.cli import build_parser, main
from unselect.dataset import STRATEGIES, DataTable, fit_cut_points, write_csv
from unselect.selectors import select

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")
DATA_DIR = os.path.join(REPO_ROOT, "data")


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


def diabetes_path():
    return os.path.join(DATA_DIR, "diabetes.arff")


def test_select_usqr_prints_subset_and_fingerprint(capsys):
    code, out, err = run(
        capsys, "select", "--data", diabetes_path(), "--method", "usqr",
        "--bins", "3", "--strategy", "eqfreq",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("subset: ")
    assert lines[-1].startswith("fingerprint: ")


def test_select_edr_matches_published_diabetes_subset(capsys):
    code, out, _ = run(
        capsys, "select", "--data", diabetes_path(), "--method", "edr",
        "--k", "4",
    )
    assert code == 0
    assert "subset: 3,4,6,2" in out
    assert "ranking:" in out


def test_select_usqr_prints_its_rounds_and_keeps_json_to_the_subset(capsys):
    argv = ["select", "--data", "lung", "--method", "usqr"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[:2] == [
        "subset: 31,14,3,6,54,2,10",
        "rounds: 31:560:56 14:894:44 3:1363:43 6:1598:40 54:1738:39 2:1768:18 10:1792:1"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert sorted(json.loads(out)) == ["fingerprint", "subset"]


def test_select_unknown_method_exits_2(capsys):
    code, out, err = run(
        capsys, "select", "--data", diabetes_path(), "--method", "magic"
    )
    assert code == 2
    assert "usqr" in err and "edr" in err   # usage text lists valid methods


@pytest.mark.parametrize("command", ["select", "evaluate"])
def test_edr_without_k_exits_2(capsys, command):
    code, out, err = run(capsys, command, "--data", diabetes_path(), "--method", "edr")
    assert code == 2
    assert out == "" and "needs k" in err


@pytest.mark.parametrize("command", ["select", "evaluate"])
@pytest.mark.parametrize("method", ["usqr", "roughpca"])
def test_k_with_a_greedy_method_exits_2(capsys, command, method):
    code, out, err = run(capsys, command, "--data", diabetes_path(), "--method",
                         method, "--k", "2")
    assert code == 2
    assert out == "" and "k applies only to pca and edr" in err


def test_select_missing_file_exits_3(capsys):
    code, _, err = run(
        capsys, "select", "--data", "no-such-file.csv", "--method", "usqr"
    )
    assert code == 3
    assert "no-such-file.csv" in err


def test_select_json_holds_the_subset_and_fingerprint(capsys):
    argv = ["select", "--data", diabetes_path(), "--method", "edr", "--k", "4"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    _, table_out, _ = run(capsys, *argv)
    assert json.loads(out) == {"subset": "3,4,6,2",
                               "fingerprint": table_out.split("fingerprint: ")[1].strip()}


def test_label_col_as_a_one_based_number_names_that_column(capsys, tmp_path):
    data = toy_csv(tmp_path)        # columns x, y, z, class
    base = ["evaluate", "--data", data, "--method", "edr", "--k", "2", "--folds", "4"]
    by_number = run(capsys, *base, "--label-col", "4")
    assert by_number[0] == 0
    assert by_number == run(capsys, *base, "--label-col", "class")


def test_evaluate_on_an_unlabeled_csv_exits_3(capsys, tmp_path):
    p = tmp_path / "plain.csv"
    p.write_text("x,y\n1,2\n3,1\n2,5\n4,4\n")
    code, out, err = run(capsys, "evaluate", "--data", str(p), "--method", "edr", "--k", "1")
    assert code == 3
    assert out == "" and "needs a labeled dataset" in err


ARFF_AB = "@relation r\n@attribute a real\n@attribute b real\n@data\n"


# \x1c-\x1f is no blank to float, so no reader takes it for one; an ARFF line
# before @data is a whole header line, and every line after it is a data row;
# an ARFF label is a declared value; a CSV row is a file line, even after a
# quoted cell that spans lines
@pytest.mark.parametrize("name, text, where", [
    ("t.arff", ARFF_AB + "1,2\n1.5\x1c,3\n4,5\n", "row 6, column 1"),
    ("t.arff", ARFF_AB + "1,2\n\x1c1.5,3\n4,5\n", "row 6, column 1"),
    ("t.csv", "a,b\n1,2\n\x1c,\x1c\n3,4\n", "row 3, column 1"),
    ("t.csv", "a,b\n1,2\n\x1c\n3,4\n", "ragged row 3"),
    ("t.arff", ARFF_AB + "1,2\n\x1c\n4,5\n", "ragged row 6"),
    ("t.arff", "@relation r\n@attribute a real\nstray,junk\n@data\n3\n4\n", "line 3 of"),
    ("t.arff", "@relation r\n@attribute a real\n@data\n3\n@attribute b real\n4\n",
     "row 5, column 1"),
    ("t.arff", "@relation r\n@attribute a realistic\n@attribute b integers\n@datafoo\n"
     "1,2\n3,4\n", "line 2 of"),
    ("t.arff", "@relation r\n@attribute a real\n@attribute cls {yes,no}\n@data\n1,yes\n"
     "2,maybe\n", "row 6, column 2"),
    ("t.csv", 'a,b\n1,"2\n"\n3,4\nzz,5\n', "row 5, column 1"),
], ids=["arff-cell-after", "arff-cell-before", "csv-separator-cells", "csv-separator-row",
        "arff-separator-row", "arff-stray-header-line", "arff-attribute-after-data",
        "arff-type-prefix", "arff-undeclared-label", "csv-multi-line-cell"])
def test_select_on_a_misread_file_exits_3_naming_its_row(capsys, tmp_path, name, text, where):
    p = tmp_path / name
    p.write_text(text)
    code, out, err = run(capsys, "select", "--data", str(p), "--method", "edr", "--k", "1")
    assert code == 3
    assert out == "" and where in err


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


def test_select_registry_name_resolution(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("UNSELECT_DATA_DIR", os.path.abspath(DATA_DIR))
    code, out, _ = run(capsys, "select", "--data", "ecoli", "--method", "edr",
                       "--k", "4")
    assert code == 0
    assert "subset: 1,5,6,2" in out


@pytest.mark.parametrize("method, scorer", [("pca", pca.fit_pca),
                                            ("edr", selectors.edr_scores)])
def test_select_ranks_once(capsys, count_calls, method, scorer):
    calls = count_calls(scorer)
    code, out, _ = run(capsys, "select", "--data", diabetes_path(), "--method",
                       method, "--k", "3")
    assert code == 0 and "ranking:" in out
    assert len(calls) == 1


@pytest.mark.parametrize("token", ["inf", "-1e400"])
def test_select_non_finite_cell_exits_3_with_its_file_position(capsys, tmp_path, token):
    p = tmp_path / "t.csv"
    p.write_text(f"x,y,cls\n1,2,a\n3,{token},b\n")
    code, _, err = run(capsys, "select", "--data", str(p), "--label-col", "cls",
                       "--method", "usqr")
    assert code == 3
    assert "row 3, column 2" in err


@pytest.mark.parametrize("strategy", ["eqwidth", "eqfreq"])
def test_select_a_column_whose_range_overflows_exits_2_naming_it(capsys, tmp_path, strategy):
    # max - min of column a is past the largest float; binned, it would be
    # one bin and the subset would leave it out without a word
    p = tmp_path / "wide.csv"
    p.write_text("a,b\n-1.7e308,0\n1.7e308,1\n0,0\n1,1\n")
    code, out, err = run(capsys, "select", "--data", str(p), "--method", "usqr",
                         "--strategy", strategy)
    assert code == 2 and out == ""
    assert "column 1: its range" in err


@pytest.mark.parametrize("suffix, text, message", [
    (".csv", "a,a,cls\n1,2,A\n3,4,B\n", "column 2"),
    (".arff", "@relation t\n@attribute a real\n@attribute a real\n"
              "@attribute cls {A,B}\n@data\n1,2,A\n3,4,B\n", "column 2"),
    (".csv", "cls\nA\nB\n", "no feature column"),
    (".arff", "@relation t\n@attribute cls {A,B}\n@data\nA\nB\n", "no feature column"),
], ids=["csv-repeated-name", "arff-repeated-name", "csv-label-only", "arff-label-only"])
def test_a_file_the_table_rejects_exits_3_naming_the_file(capsys, tmp_path, suffix, text,
                                                         message):
    p = tmp_path / f"t{suffix}"
    p.write_text(text)
    label = ["--label-col", "cls"] if suffix == ".csv" else []
    code, out, err = run(capsys, "select", "--data", str(p), *label, "--method", "edr",
                         "--k", "1")
    assert code == 3
    assert out == "" and err.startswith("data error:")
    assert str(p) in err and message in err


def test_a_file_not_in_utf8_exits_3(capsys, tmp_path):
    csv_file = tmp_path / "t.csv"
    csv_file.write_bytes(b"x,y,cls\n1,2,\xe9\n3,4,b\n")
    arff_file = tmp_path / "t.arff"
    arff_file.write_bytes(b"@relation t\n@attribute x real\n@attribute cls {a,b}\n"
                          b"@data\n1,a\n2,b\n3,\xe9\n")
    # the bad byte lies past the text reader's first chunks of the file
    long_file = tmp_path / "long.csv"
    long_file.write_bytes(b"x,y,cls\n" + b"1,2,a\n" * 3000 + b"3,4,\xe9\n")
    for p, label, line in ((csv_file, ("--label-col", "cls"), 2), (arff_file, (), 7),
                           (long_file, ("--label-col", "cls"), 3002)):
        code, out, err = run(capsys, "select", "--data", str(p), *label,
                             "--method", "edr", "--k", "1")
        assert code == 3
        assert out == "" and err.startswith("data error:")
        assert f"byte 0xe9 at line {line} of {p} is not UTF-8" in err



def test_a_registry_not_in_utf8_exits_3_naming_its_line(capsys, tmp_path, monkeypatch):
    registry = tmp_path / "registry.txt"
    registry.write_bytes(b"# datasets\nplain, plain.csv\n\xe9cole, e.csv\n")
    monkeypatch.setenv("UNSELECT_DATA_DIR", str(tmp_path))
    code, out, err = run(capsys, "bench", "--datasets", "plain")
    assert code == 3
    assert out == "" and f"byte 0xe9 at line 3 of {registry} is not UTF-8" in err


@pytest.mark.parametrize("argv", [["bench"], ["select", "--data", "d", "--method", "usqr"]],
                         ids=["bench", "select-by-name"])
def test_a_registry_repeating_a_name_exits_3_naming_both_lines(capsys, tmp_path, monkeypatch,
                                                                argv):
    registry = tmp_path / "registry.txt"
    registry.write_text("d, d.csv, cls\nd, d.csv, 1\n")
    monkeypatch.setenv("UNSELECT_DATA_DIR", str(tmp_path))
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == "" and f"registry line 2 of {registry} repeats the name 'd' of line 1" in err


@pytest.mark.parametrize("label_col, message", [
    ("9", "label column 9 out of range: {path} has 3 columns"),
    ("0", "label column 0 out of range: {path} has 3 columns"),
    ("kind", "label column 'kind' not in the header of {path}"),
], ids=["past-the-end", "zero", "name"])
def test_a_label_column_the_file_lacks_exits_3_naming_it_1_based(capsys, tmp_path,
                                                                  label_col, message):
    p = tmp_path / "d.csv"
    p.write_text("x,y,cls\n1,2,a\n3,4,b\n")
    code, out, err = run(capsys, "select", "--data", str(p), "--label-col", label_col,
                         "--method", "usqr")
    assert code == 3
    assert out == "" and err == f"data error: {message.format(path=p)}\n"


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


@pytest.mark.parametrize("policy, expected", [
    ("var:0.8", 0), ("kaiser", 0), ("fixed:2", 0),
    ("var:x", 2), ("fixed:1.5", 2), ("var", 2), ("kaiser:1", 2), ("magic", 2),
])
def test_select_pc_policy_values(capsys, policy, expected):
    code, _, err = run(capsys, "select", "--data", diabetes_path(), "--method",
                       "roughpca", "--pc-policy", policy)
    assert code == expected, err


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


@pytest.mark.parametrize("argv, fingerprint", [
    (("select", "--data", "heart", "--method", "pca", "--k", "3"), "2568610919d6"),
    (("select", "--data", "lung", "--method", "usqr"), "8ee325f2c1e7"),
    (("evaluate", "--data", "heart", "--method", "edr", "--k", "4",
      "--classifiers", "nb,knn", "--pc-policy", "kaiser"), "932202d38551"),
], ids=["select-pca", "select-usqr", "evaluate"])
def test_fingerprints_are_pinned(capsys, argv, fingerprint):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out.strip().splitlines()[-1] == f"fingerprint: {fingerprint}"


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
    ("report", "--input", "r.json"),
], ids=["bench", "select", "evaluate", "report"])
@pytest.mark.parametrize("out_name", ["missing/r.txt", "file.txt/r.txt", "dir"],
                         ids=["missing", "file.txt", "dir"])
def test_out_in_a_missing_directory_exits_2_before_any_work(capsys, tmp_path, monkeypatch,
                                                           argv, out_name):
    monkeypatch.setenv("UNSELECT_DATA_DIR", os.path.abspath(DATA_DIR))
    for target in ("unselect.cli.run_benchmark", "unselect.cli.load_table",
                   "unselect.dataset.Registry.load", "unselect.eval.EvalReport.from_json"):
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


@pytest.mark.parametrize("registry_text", [None, "", "# no datasets\n\n"],
                         ids=["missing", "empty", "comments-only"])
def test_bench_without_a_registry_exits_3(capsys, tmp_path, monkeypatch, registry_text):
    if registry_text is not None:
        (tmp_path / "registry.txt").write_text(registry_text)
    monkeypatch.setenv("UNSELECT_DATA_DIR", str(tmp_path))
    code, out, err = run(capsys, "bench")
    assert code == 3
    assert out == "" and str(tmp_path / "registry.txt") in err


def test_select_a_file_reads_no_registry(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("UNSELECT_DATA_DIR", str(tmp_path))     # holds no registry.txt
    monkeypatch.setattr("unselect.cli.default_registry", no_work)
    code, out, err = run(capsys, "select", "--data", diabetes_path(), "--method", "edr",
                         "--k", "4")
    assert code == 0, err
    assert "subset: 3,4,6,2" in out


def test_a_name_without_a_registry_exits_3_naming_both(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("UNSELECT_DATA_DIR", str(tmp_path))     # holds no registry.txt
    code, out, err = run(capsys, "select", "--data", "no-such-file.csv", "--method", "usqr")
    assert code == 3
    assert out == "" and "no-such-file.csv" in err and str(tmp_path / "registry.txt") in err


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


def test_evaluate_fold_the_classifier_cannot_fit_exits_2(capsys, tmp_path):
    # two folds of four rows leave two training rows, fewer than k-NN's k = 3
    p = tmp_path / "four.csv"
    p.write_text("x,y,cls\n1,2,a\n2,1,a\n5,6,b\n6,5,b\n")
    code, out, err = run(capsys, "evaluate", "--data", str(p), "--label-col", "cls",
                         "--method", "edr", "--k", "1", "--folds", "2",
                         "--classifiers", "knn")
    assert code == 2
    assert out == "" and "2 training rows" in err


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


@pytest.mark.parametrize("command", ["select", "evaluate"])
@pytest.mark.parametrize("data, reason", [("heart", "from the registry"),
                                          (diabetes_path(), "trailing nominal attribute")])
def test_label_col_on_a_registry_name_or_arff_file_exits_2(capsys, command, data, reason):
    code, out, err = run(capsys, command, "--data", data, "--label-col", "3",
                         "--method", "edr", "--k", "2")
    assert code == 2
    assert out == "" and "--label-col applies only to a CSV file" in err and reason in err


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


def test_report_rerenders_json(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("UNSELECT_DATA_DIR", os.path.abspath(DATA_DIR))
    report_path = tmp_path / "r.json"
    run(
        capsys, "bench", "--datasets", "ecoli", "--methods", "edr",
        "--classifiers", "nb", "--folds", "5", "--format", "json",
        "--out", str(report_path),
    )
    code, out, _ = run(capsys, "report", "--input", str(report_path),
                       "--format", "csv")
    assert code == 0
    assert out.startswith("dataset,classifier,")
    assert "ecoli" in out
    code, out, _ = run(capsys, "report", "--input", str(report_path), "--format", "json")
    assert code == 0
    assert out == report_path.read_text()


def test_bench_and_report_show_only_the_run_methods_and_classifiers(capsys, tmp_path,
                                                                    monkeypatch):
    monkeypatch.setenv("UNSELECT_DATA_DIR", os.path.abspath(DATA_DIR))
    report_path = tmp_path / "r.json"
    base = ["--datasets", "ecoli", "--methods", "edr,usqr", "--classifiers", "nb",
            "--folds", "5"]
    code, _, _ = run(capsys, "bench", *base, "--format", "json", "--out", str(report_path))
    assert code == 0
    for command in (["bench", *base], ["report", "--input", str(report_path)]):
        code, table, _ = run(capsys, *command, "--format", "table")
        assert code == 0
        assert table.splitlines()[1].split() == ["Classifier", "EDR", "USQR"]
        assert [line.split("  ")[0] for line in table.splitlines()[2:]] == ["Naive Bayes"]
        code, csv_text, _ = run(capsys, *command, "--format", "csv")
        assert code == 0
        lines = csv_text.splitlines()
        assert lines[0] == "dataset,classifier,edr,usqr"
        assert len(lines) == 2 and lines[1].startswith("ecoli,Naive Bayes,")
        assert "" not in lines[1].split(",")


def test_report_without_its_methods_exits_3(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("UNSELECT_DATA_DIR", os.path.abspath(DATA_DIR))
    report_path = tmp_path / "r.json"
    run(capsys, "bench", "--datasets", "ecoli", "--methods", "edr", "--classifiers", "nb",
        "--folds", "5", "--format", "json", "--out", str(report_path))
    payload = json.loads(report_path.read_text())
    del payload["config"]["methods"]
    report_path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "report", "--input", str(report_path))
    assert code == 3
    assert out == "" and "methods" in err


def _report_payload():
    return {"config": {"methods": ["edr", "usqr"], "classifiers": ["nb"]},
            "rows": [{"dataset": "d", "method": "edr", "classifier": "nb", "accuracy": 50.0}],
            "errors": [{"dataset": "d", "method": "usqr", "error": "no subset"}]}


def _without(part, key):
    payload = _report_payload()
    del payload[part][0][key]
    return payload


@pytest.mark.parametrize("payload, where", [
    (_without("rows", "classifier"), "rows[0]"),
    (_without("errors", "dataset"), "errors[0]"),
    ([_report_payload()], "report lacks"),
    ({**_report_payload(), "rows": [{**_report_payload()["rows"][0], "accuracy": "50"}]},
     "rows[0]"),
], ids=["row-without-classifier", "error-without-dataset", "top-level-list",
        "string-accuracy"])
def test_report_malformed_entries_exit_3(capsys, tmp_path, payload, where):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(_report_payload()))
    assert run(capsys, "report", "--input", str(path))[0] == 0
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "report", "--input", str(path))
    assert code == 3
    assert out == "" and where in err


def test_report_bad_input_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "report", "--input", str(bad))
    assert code == 3


def test_help_lists_flags_with_defaults():
    parser = build_parser()
    for command in ("select", "evaluate", "bench", "report"):
        sub = [
            a for a in parser._subparsers._group_actions[0].choices.items()
            if a[0] == command
        ][0][1]
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
