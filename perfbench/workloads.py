"""The three benchmark workloads.

Each workload generates its inputs from the seed (the library only ever
sees the generated files), loads them through ``unselect.dataset``, runs
one pass of top-level calls, and checks every call's output.

- ``paper-bench``: ``run_benchmark`` over the five bundled tables, the
  only real-data workload.  Mixed work: roughset (USQR on lung and
  breast) and eval (cross-validation) both show here in proportion.
- ``usqr-synth``: selection only, on two table families that differ in
  duplicate share and in how fast objects enter the positive region.
  Roughset work dominates; eval does none.
- ``cv-synth``: cross-validation only, on labelled Gaussian mixtures.
  Eval work dominates; roughset does none.

Synthetic tables are built so that the amount of work per pass does not
depend on the seed: each has ``m`` core columns and ``d - m`` columns that
repeat a core column's partition (a strictly increasing transform of a
Gaussian column discretizes identically under equal-frequency binning; a
cyclic relabelling of an integer column groups identically), and one
appended witness row per core column that differs from an existing row
in that core column alone.  USQR must then keep exactly one column of
each core group, so it returns ``m`` attributes after
``1 + sum(d - i for i < m)`` dependency evaluations on every seed.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

import numpy as np

from unselect import (
    DiscreteTable,
    FeatureSubset,
    SelectorConfig,
    cross_validate,
    discretize,
    edr_select,
    is_superreduct,
    load_csv,
    load_registry,
    make_fold_plan,
    pca_select,
    rough_pca_select,
    run_benchmark,
    usqr,
)
from unselect.eval import CLASSIFIER_IDS, EDR_K, PCA_K
from unselect.selectors import METHOD_IDS, select

from tracing import NULL_TRACER

CFG = SelectorConfig()
FOLDS = 10
BINS = 3                 # code range of the duplicate-heavy integer tables
LATENT_FACTORS = 4
LATENT_NOISE = 0.5
MIXTURE_SPREAD = 1.0

# Strictly increasing maps: a derived column discretizes like its source.
MONOTONE = (
    lambda x: x**3 + x,
    lambda x: np.exp(x / 2),
    lambda x: np.arcsinh(3 * x),
)

# Table shapes per workload and scale.  Latent: (n, d, m); duplicate-heavy:
# (n, d, m, distinct core rows); mixture: (n, d, classes).  "toy" is for the
# benchmark's self-test only.  Both synthetic workloads issue an odd number
# of calls per pass, so the median call is the middle of one call's samples
# rather than the midpoint between two different calls.
SHAPES = {
    "full": {
        "paper-bench": None,
        "latent": [(3000, 24, 12), (4000, 32, 10)],
        "dup": [(20000, 16, 10, 7000)],
        "mixture": [(1500, 6, 2), (1800, 12, 3), (2200, 24, 5)],
    },
    "toy": {
        "paper-bench": ("heart", "ecoli"),
        "latent": [(300, 8, 5)],
        "dup": [(1000, 8, 5, 300)],
        "mixture": [(200, 6, 3)],
    },
}


@dataclass
class Call:
    """One top-level call: its latency, and its output or error."""

    label: str
    seconds: float
    output: object = None
    error: str | None = None


def timed_call(calls, label, fn, tracer, span_name, layer, **attrs):
    """Issue one top-level call, recording its latency and any exception."""
    start = time.perf_counter()
    try:
        with tracer.span(span_name, layer, **attrs):
            output = fn()
        error = None
    except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
        output, error = None, f"{type(exc).__name__}: {exc}"
    calls.append(Call(label, time.perf_counter() - start, output, error))


def _write_csv(path, values, labels=None, fmt="%.17g"):
    """Header ``a1..ad`` (plus ``class``), one row per object; ``%.17g``
    round-trips every float exactly."""
    header = [f"a{j + 1}" for j in range(values.shape[1])]
    with open(path, "w", encoding="utf-8") as fh:
        if labels is None:
            fh.write(",".join(header) + "\n")
            np.savetxt(fh, values, fmt=fmt, delimiter=",")
            return
        fh.write(",".join(header + ["class"]) + "\n")
        for row, label in zip(values, labels):
            fh.write(",".join(fmt % v for v in row) + "," + label + "\n")


def _spread_columns(rng, core, d, derive, kinds):
    """d columns; each core column appears verbatim once and the rest are
    derived copies, ``derive(column, kind)``, in a seeded column order."""
    m = core.shape[1]
    source = np.concatenate([np.arange(m), rng.integers(0, m, d - m)])[rng.permutation(d)]
    kind = rng.integers(0, kinds, d)
    out = np.empty((core.shape[0], d), dtype=core.dtype)
    seen = set()
    for c, j in enumerate(source):
        out[:, c] = derive(core[:, j], kind[c]) if j in seen else core[:, j]
        seen.add(j)
    return out


def latent_table(rng, n, d, m):
    """Latent-factor Gaussian table with one witness row per core column."""
    loadings = rng.standard_normal((LATENT_FACTORS, m))
    core = rng.standard_normal((n, LATENT_FACTORS)) @ loadings
    core += LATENT_NOISE * rng.standard_normal((n, m))
    witnesses = core[:m].copy()
    for j in range(m):
        col = core[:, j]
        witnesses[j, j] = col.max() if col[j] < np.median(col) else col.min()
    core = np.vstack([core, witnesses])
    return _spread_columns(rng, core, d, lambda col, k: MONOTONE[k](col), len(MONOTONE))


def duplicate_table(rng, n, d, m, distinct):
    """Integer codes in [0, BINS): n rows drawn from ``distinct`` core rows,
    plus one witness row per core column."""
    base = rng.integers(0, BINS, (distinct, m))
    core = base[rng.integers(0, distinct, n)]
    witnesses = core[:m].copy()
    diag = np.arange(m)
    witnesses[diag, diag] = (witnesses[diag, diag] + 1) % BINS
    core = np.vstack([core, witnesses])
    return _spread_columns(rng, core, d, lambda col, k: (col + 1 + k) % BINS, BINS - 1)


def mixture_table(rng, n, d, classes):
    """Balanced Gaussian mixture with unit-variance classes."""
    labels = rng.permutation(np.arange(n) % classes)
    centres = MIXTURE_SPREAD * rng.standard_normal((classes, d))
    values = centres[labels] + rng.standard_normal((n, d))
    return values, [f"c{y}" for y in labels]


def _accuracy_error(accuracy, fold_accuracies, fold_sizes, n):
    """Why an accuracy disagrees with its fold sizes, or None."""
    correct = [acc * size / 100.0 for acc, size in zip(fold_accuracies, fold_sizes)]
    if len(fold_accuracies) != len(fold_sizes) or any(abs(c - round(c)) > 1e-6 for c in correct):
        return f"fold accuracies {fold_accuracies} are not whole counts of {fold_sizes}"
    if abs(accuracy - 100.0 * sum(round(c) for c in correct) / n) > 1e-9:
        return f"accuracy {accuracy} != {sum(round(c) for c in correct)}/{n} correct"
    return None


def _fold_sizes(labels, seed):
    plan = make_fold_plan(labels, FOLDS, seed)
    return tuple(len(plan.fold_indices(f)) for f in range(plan.k))


class Workload:
    """One named workload; subclasses fill in every method."""

    name = ""

    def __init__(self, root, scale="full"):
        self.root = root
        self.scale = scale
        self.shapes = SHAPES[scale]

    def prepare(self, seed, workdir):
        """Write the seed's input files into workdir (not timed as set-up)."""

    def load(self, workdir, tracer=NULL_TRACER):
        """Load the input files through unselect.dataset; returns inputs."""
        raise NotImplementedError

    def check_context(self, inputs, seed):
        """Data the gate needs, derived outside every timed region."""
        return {}

    def run_pass(self, inputs, seed, tracer=NULL_TRACER):
        """One pass of top-level calls, each issued after the last returns."""
        raise NotImplementedError

    def traced_pass(self, inputs, seed, tracer):
        return self.run_pass(inputs, seed, tracer)

    def check(self, call, ctx, seed):
        """Why the call's output is wrong, or None when it passes."""
        raise NotImplementedError

    def digest(self, call):
        """JSON value compared with the recorded reference output."""
        raise NotImplementedError

    def usqr_results(self, calls, ctx):
        """(DiscreteTable, FeatureSubset) for every USQR call of a pass."""
        return []

    def probe_tables(self, inputs):
        """The numeric tables the dataset and pca probes run on."""
        return []

    def work(self, inputs, calls):
        """Rows, cells, calls and predictions of one pass."""
        raise NotImplementedError

    def report(self, calls):
        """The EvalReport a pass produced, when it produces one."""
        return None

    def traced_mismatch(self, traced_calls, untraced_calls):
        """Failures where the traced pass's outputs differ from the untraced ones."""
        return []


class PaperBench(Workload):
    name = "paper-bench"

    def load(self, workdir, tracer=NULL_TRACER):
        registry = load_registry(os.path.join(self.root, "data", "registry.txt"))
        tables = {}
        for name in self.shapes["paper-bench"] or registry.names():
            with tracer.span("dataset.load", "dataset"):
                tables[name] = registry.load(name)
        return {"registry": registry, "tables": tables}

    def check_context(self, inputs, seed):
        return {
            "tables": inputs["tables"],
            "folds": {k: _fold_sizes(t.labels, seed) for k, t in inputs["tables"].items()},
            "discrete": {k: discretize(t, CFG.strategy, CFG.bins)
                         for k, t in inputs["tables"].items()},
        }

    def run_pass(self, inputs, seed, tracer=NULL_TRACER):
        calls = []
        timed_call(calls, "run_benchmark",
                   lambda: run_benchmark(inputs["registry"], datasets=list(inputs["tables"]),
                                         seed=seed, folds=FOLDS, cfg=CFG),
                   tracer, "eval.run_benchmark", "eval")
        return calls

    def traced_pass(self, inputs, seed, tracer):
        """The stages run_benchmark runs, each through a public function
        under its own span; the rows must equal the untraced report's."""
        calls = []
        timed_call(calls, "run_benchmark", lambda: self._staged(inputs, seed, tracer),
                   tracer, "bench.run_benchmark", "bench")
        return calls

    def _staged(self, inputs, seed, tracer):
        registry, rows = inputs["registry"], []
        for name in inputs["tables"]:
            with tracer.span("dataset.load", "dataset"):
                table = registry.load(name)
            with tracer.span("eval.make_fold_plan", "eval"):
                plan = make_fold_plan(table.labels, FOLDS, seed)
            for method in METHOD_IDS:
                k = {"edr": min(EDR_K.get(name, 4), table.n_attrs),
                     "pca": min(PCA_K.get(name, 4), table.n_attrs)}.get(method)
                with tracer.span(f"selectors.{method}", "selectors"):
                    subset = select(table, method, CFG, k)
                for classifier in CLASSIFIER_IDS:
                    with tracer.span(f"eval.cv_{classifier}", "eval", n=table.n_objects):
                        result = cross_validate(table, subset, classifier, plan,
                                                strategy=CFG.strategy, bins=CFG.bins)
                    rows.append({
                        "dataset": name, "method": method, "classifier": classifier,
                        "accuracy": result.accuracy,
                        "fold_accuracies": list(result.fold_accuracies),
                        "subset": subset.to_one_based(), "seed": seed,
                    })
        rows.sort(key=lambda r: (r["dataset"], r["method"], r["classifier"]))
        return rows

    def traced_mismatch(self, traced_calls, untraced_calls):
        traced, report = traced_calls[0].output, untraced_calls[0].output
        if traced is None or report is None:
            return []
        untraced = [{k: v for k, v in r.items() if k != "fingerprint"} for r in report.rows]
        if traced != untraced:
            return [f"{traced_calls[0].label}: traced rows differ from the untraced report"]
        return []

    def check(self, call, ctx, seed):
        if call.error:
            return call.error
        report = call.output
        rows = report if isinstance(report, list) else report.rows
        if not isinstance(report, list) and report.errors:
            return f"error rows: {report.errors}"
        expected = 4 * len(CLASSIFIER_IDS) * len(ctx["tables"])
        if len(rows) != expected:
            return f"{len(rows)} rows, expected {expected}"
        for row in rows:
            name = row["dataset"]
            table = ctx["tables"][name]
            error = _accuracy_error(row["accuracy"], row["fold_accuracies"],
                                    ctx["folds"][name], table.n_objects)
            if error:
                return f"{name}/{row['method']}/{row['classifier']}: {error}"
            if row["method"] == "usqr" and not is_superreduct(
                    ctx["discrete"][name], FeatureSubset.from_one_based(row["subset"])):
                return f"{name}: USQR subset {row['subset']} is not a superreduct"
        return None

    def digest(self, call):
        return hashlib.sha256(call.output.to_json().encode()).hexdigest()

    def usqr_results(self, calls, ctx):
        rows = calls[0].output if isinstance(calls[0].output, list) else calls[0].output.rows
        return [(ctx["discrete"][r["dataset"]], FeatureSubset.from_one_based(r["subset"]))
                for r in rows if r["method"] == "usqr" and r["classifier"] == CLASSIFIER_IDS[0]]

    def probe_tables(self, inputs):
        return list(inputs["tables"].values())

    def report(self, calls):
        return calls[0].output

    def work(self, inputs, calls):
        tables = inputs["tables"].values()
        per_table = len(METHOD_IDS) * len(CLASSIFIER_IDS)
        return {
            "rows": sum(t.n_objects for t in tables),
            "cells": sum(t.n_objects * t.n_attrs for t in tables),
            "calls": len(calls),
            "predictions": per_table * sum(t.n_objects for t in tables),
        }


class UsqrSynth(Workload):
    name = "usqr-synth"

    def prepare(self, seed, workdir):
        rng = np.random.default_rng(seed)
        for i, shape in enumerate(self.shapes["latent"]):
            _write_csv(os.path.join(workdir, f"latent{i}.csv"), latent_table(rng, *shape))
        for i, shape in enumerate(self.shapes["dup"]):
            _write_csv(os.path.join(workdir, f"dup{i}.csv"), duplicate_table(rng, *shape),
                       fmt="%d")

    def load(self, workdir, tracer=NULL_TRACER):
        latent, dup = [], []
        for i in range(len(self.shapes["latent"])):
            with tracer.span("dataset.load", "dataset"):
                latent.append(load_csv(os.path.join(workdir, f"latent{i}.csv")))
        for i in range(len(self.shapes["dup"])):
            with tracer.span("dataset.load", "dataset"):
                table = load_csv(os.path.join(workdir, f"dup{i}.csv"))
                dup.append(DiscreteTable(codes=table.values.astype(np.int64),
                                         bins_per_attr=(BINS,) * table.n_attrs,
                                         attr_names=table.attr_names, name=table.name))
        return {"latent": latent, "dup": dup}

    def check_context(self, inputs, seed):
        discrete = {f"latent{i}": discretize(t, CFG.strategy, CFG.bins)
                    for i, t in enumerate(inputs["latent"])}
        discrete.update((f"dup{i}", t) for i, t in enumerate(inputs["dup"]))
        return {"discrete": discrete}

    def run_pass(self, inputs, seed, tracer=NULL_TRACER):
        calls = []
        for i, table in enumerate(inputs["latent"]):
            timed_call(calls, f"latent{i}.usqr", lambda: select(table, "usqr", CFG),
                       tracer, "selectors.usqr", "selectors", family="latent")
            timed_call(calls, f"latent{i}.roughpca", lambda: rough_pca_select(table, CFG),
                       tracer, "selectors.roughpca", "selectors", family="latent")
        for i, table in enumerate(inputs["dup"]):
            timed_call(calls, f"dup{i}.usqr", lambda: usqr(table),
                       tracer, "selectors.usqr", "selectors", family="dup")
        return calls

    @staticmethod
    def _discrete(label, ctx):
        return ctx["discrete"][label.split(".")[0]]

    def check(self, call, ctx, seed):
        if call.error:
            return call.error
        table = self._discrete(call.label, ctx)
        if any(i >= table.n_attrs for i in call.output):
            return f"subset {call.output.to_one_based()} out of range"
        if call.label.endswith(".usqr") and not is_superreduct(table, call.output):
            return f"USQR subset {call.output.to_one_based()} is not a superreduct"
        return None

    def digest(self, call):
        return call.output.to_one_based()

    def usqr_results(self, calls, ctx):
        return [(self._discrete(c.label, ctx), c.output)
                for c in calls if c.label.endswith(".usqr") and c.output is not None]

    def probe_tables(self, inputs):
        return list(inputs["latent"])

    def work(self, inputs, calls):
        tables = list(inputs["latent"]) + list(inputs["dup"])
        return {
            "rows": sum(t.n_objects for t in tables),
            "cells": sum(t.n_objects * t.n_attrs for t in tables),
            "calls": len(calls),
            "predictions": 0,
        }


class CvSynth(Workload):
    name = "cv-synth"

    def prepare(self, seed, workdir):
        rng = np.random.default_rng(seed)
        for i, shape in enumerate(self.shapes["mixture"]):
            values, labels = mixture_table(rng, *shape)
            _write_csv(os.path.join(workdir, f"mixture{i}.csv"), values, labels)

    def load(self, workdir, tracer=NULL_TRACER):
        tables = []
        for i in range(len(self.shapes["mixture"])):
            with tracer.span("dataset.load", "dataset"):
                tables.append(load_csv(os.path.join(workdir, f"mixture{i}.csv"),
                                       label_column="class"))
        return {"tables": tables}

    def check_context(self, inputs, seed):
        return {"tables": inputs["tables"],
                "folds": [_fold_sizes(t.labels, seed) for t in inputs["tables"]]}

    def run_pass(self, inputs, seed, tracer=NULL_TRACER):
        calls = []
        for i, table in enumerate(inputs["tables"]):
            with tracer.span("eval.make_fold_plan", "eval"):
                plan = make_fold_plan(table.labels, FOLDS, seed)
            if i % 2 == 0:
                with tracer.span("selectors.edr", "selectors"):
                    subset = edr_select(table, max(1, table.n_attrs // 2))
            else:
                with tracer.span("selectors.pca", "selectors"):
                    subset = pca_select(table, CFG, max(1, table.n_attrs // 3))
            for classifier in CLASSIFIER_IDS:
                timed_call(calls, f"mixture{i}.{classifier}",
                           lambda: cross_validate(table, subset, classifier, plan,
                                                  strategy=CFG.strategy, bins=CFG.bins),
                           tracer, f"eval.cv_{classifier}", "eval", n=table.n_objects)
        return calls

    def check(self, call, ctx, seed):
        if call.error:
            return call.error
        i = int(call.label.split(".")[0][len("mixture"):])
        result = call.output
        if tuple(result.fold_sizes) != ctx["folds"][i]:
            return f"fold sizes {result.fold_sizes} != plan {ctx['folds'][i]}"
        return _accuracy_error(result.accuracy, result.fold_accuracies, ctx["folds"][i],
                               ctx["tables"][i].n_objects)

    def digest(self, call):
        return [call.output.accuracy, list(call.output.fold_accuracies)]

    def probe_tables(self, inputs):
        return list(inputs["tables"])

    def work(self, inputs, calls):
        tables = inputs["tables"]
        return {
            "rows": sum(t.n_objects for t in tables),
            "cells": sum(t.n_objects * t.n_attrs for t in tables),
            "calls": len(calls),
            "predictions": len(CLASSIFIER_IDS) * sum(t.n_objects for t in tables),
        }


WORKLOADS = {w.name: w for w in (PaperBench, UsqrSynth, CvSynth)}
