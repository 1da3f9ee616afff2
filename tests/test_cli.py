import json
import os

import numpy as np

from unselect.cli import build_parser, main
from unselect.dataset import DataTable, write_csv
from unselect.selectors import select

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


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
    write_csv(t, path, label_name="class")
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


def test_select_unknown_method_exits_2(capsys):
    code, out, err = run(
        capsys, "select", "--data", diabetes_path(), "--method", "magic"
    )
    assert code == 2
    assert "usqr" in err and "edr" in err   # usage text lists valid methods


def test_select_edr_without_k_exits_2(capsys):
    code, _, err = run(
        capsys, "select", "--data", diabetes_path(), "--method", "edr"
    )
    assert code == 2
    assert "--k" in err


def test_select_missing_file_exits_3(capsys):
    code, _, err = run(
        capsys, "select", "--data", "no-such-file.csv", "--method", "usqr"
    )
    assert code == 3
    assert "no-such-file.csv" in err


def test_select_registry_name_resolution(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("UNSELECT_DATA_DIR", os.path.abspath(DATA_DIR))
    code, out, _ = run(capsys, "select", "--data", "ecoli", "--method", "edr",
                       "--k", "4")
    assert code == 0
    assert "subset: 1,5,6,2" in out


def test_select_dump_model_writes_json(capsys, tmp_path):
    model_path = tmp_path / "model.json"
    code, out, _ = run(
        capsys, "select", "--data", diabetes_path(), "--method", "pca",
        "--k", "3", "--dump-model", str(model_path),
    )
    assert code == 0
    payload = json.loads(model_path.read_text())
    assert "loadings_row_major" in payload and "singular_values" in payload


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
        assert "--format" in text
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
