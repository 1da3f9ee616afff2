"""Self-test of the benchmark at toy size.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path[:0] = [PERFBENCH, os.path.join(ROOT, "src")]

from tracing import Tracer, layer_self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

# Printed on the report lines, including the three the JSON line leaves out.
REPORTED = {"setup_s": "s", "wall_s": "s", "call_ms.p50": "ms", "call_ms.p90": "ms",
            "peak_rss_mb": "MB", "failed_ratio": "ratio"}


def _run(workload, trace, *extra, cwd=ROOT, script=os.path.join(PERFBENCH, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "1",
         "--seconds", "0.3", "--trace", str(trace), "--toy", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return "\n".join(lines[:-1]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    text, result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for name, unit in REPORTED.items():
        assert re.search(rf"^{re.escape(name)} +\S+ {re.escape(unit)}\b", text, re.M), name
    assert re.search(r"^failed_ratio +0\.0000 ratio", text, re.M)


def test_corrupted_reference_makes_failed_ratio_nonzero(tmp_path):
    with open(os.path.join(PERFBENCH, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    outputs = reference["usqr-synth"]["toy"]["1"]
    label = next(iter(outputs))
    outputs[label] = "1"
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    text, result = _result(_run("usqr-synth", 0, "--reference", str(corrupted)))
    assert not result["correct"] and result["failed"] > 0
    assert not re.search(r"^failed_ratio +0\.0000 ", text, re.M)


def test_traced_paper_bench_rows_equal_untraced_report():
    from workloads import PaperBench

    wl = PaperBench(ROOT, "toy")
    inputs = wl.load(None)
    untraced = wl.run_pass(inputs, 1)
    traced = wl.traced_pass(inputs, 1, Tracer())
    assert traced[0].error is None and len(traced[0].output) == len(untraced[0].output.rows)
    assert wl.traced_mismatch(traced, untraced) == []
    traced[0].output[0]["accuracy"] += 1.0
    assert wl.traced_mismatch(traced, untraced) != []


def test_self_time_subtracts_covered_child_time():
    span = {"trace": 1, "attrs": {}}
    spans = [
        dict(span, id=1, parent=None, layer="bench", start=0.0, end=10.0),
        dict(span, id=2, parent=1, layer="eval", start=1.0, end=4.0),
        dict(span, id=3, parent=2, layer="pca", start=2.0, end=3.0),
        dict(span, id=4, parent=1, layer="eval", start=5.0, end=6.0),
    ]
    assert layer_self_times(spans) == {"bench": 6.0, "eval": 3.0, "pca": 1.0}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("paper-bench", 0, cwd=tmp_path,
                script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
