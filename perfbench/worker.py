"""Benchmark worker: one fresh interpreter per job, started by run.py.

    worker.py prepare --workload W --seed N --workdir D [--toy]
    worker.py setup   --workload W --workdir D [--toy]
    worker.py run     --workload W --seed N --seconds S --trace 0|1 --workdir D
                      [--toy] [--reference FILE]
    worker.py record  [--reference FILE]

``prepare`` writes the seed's input files.  ``setup`` imports the library
and loads those files, then reports when its inputs were ready.  ``run``
loads the inputs, makes one untimed warm-up pass, then timed passes for
``--seconds`` seconds, checking every call's output outside the timed
region; with ``--trace 1`` it adds one traced pass and the layer probes.
``record`` rewrites the reference outputs for seed 1.  Each job prints one
JSON object as its last line of standard output.
"""

import os

# Before numpy loads: fit_pca's SVD must not spread over the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 1
sys.path.insert(0, os.path.join(ROOT, "src"))
LAYERS = ("dataset", "roughset", "pca", "selectors", "eval", "cli")


def _import_library():
    """Import the checkout's own package; never an installed copy."""
    start = time.perf_counter()
    import unselect
    import unselect.cli  # noqa: F401 - the CLI entry point pulls in every module
    seconds = time.perf_counter() - start
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(unselect.__file__).startswith(src):
        raise SystemExit(f"unselect imported from {unselect.__file__}, not from {src}")
    return seconds


def _workload(args):
    import workloads
    return workloads.WORKLOADS[args.workload](ROOT, "toy" if args.toy else "full")


def cmd_prepare(args):
    _import_library()
    _workload(args).prepare(args.seed, args.workdir)
    return {}


def cmd_setup(args):
    import_s = _import_library()
    wl = _workload(args)
    start = time.perf_counter()
    wl.load(args.workdir)
    ready = time.perf_counter()
    import numpy
    import speed
    speed.probe()                                       # warm-up
    return {"ready": ready, "import_s": import_s, "load_s": ready - start,
            "scale": speed.normalize(1.0, speed.probe()), "numpy": numpy.__version__}


def _reference(path, workload, scale, seed):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(scale, {}).get(str(seed))


def _failures(wl, calls, ctx, seed, reference, verdicts):
    """One message per call whose output fails its check or the reference.

    The checks are pure functions of the output, so an output already in
    ``verdicts`` is not checked again.
    """
    bad = []
    for call in calls:
        key = (call.label, call.error, repr(call.output))
        if key not in verdicts:
            why = wl.check(call, ctx, seed)
            if why is None and reference is not None and (
                    reference.get(call.label) != wl.digest(call)):
                why = "output differs from the recorded reference"
            verdicts[key] = why
        if verdicts[key]:
            bad.append(f"{call.label}: {verdicts[key]}")
    return bad


def cmd_run(args):
    import speed
    from tracing import NULL_TRACER, Tracer

    _import_library()
    wl = _workload(args)
    tracer = Tracer() if args.trace else NULL_TRACER
    inputs = wl.load(args.workdir, tracer)
    ready = time.perf_counter()
    setup_spans = tracer.spans[:] if args.trace else []
    ctx = wl.check_context(inputs, args.seed)
    reference = _reference(args.reference, wl.name, wl.scale, args.seed)

    speed.probe()
    wl.run_pass(inputs, args.seed)                      # warm-up, not timed
    pass_times, pass_norm, call_times, call_norm, failures, attempted = [], [], [], [], [], 0
    last, verdicts = None, {}
    probe_s = speed.probe()
    while sum(pass_times) < args.seconds:
        start = time.perf_counter()
        calls = wl.run_pass(inputs, args.seed)
        pass_times.append(time.perf_counter() - start)
        # The machine's speed during the pass: the mean of the probes around it.
        probe_before, probe_s = probe_s, speed.probe()
        scale = speed.normalize(1.0, (probe_before + probe_s) / 2)
        pass_norm.append(pass_times[-1] * scale)
        call_times += [c.seconds for c in calls]
        call_norm += [c.seconds * scale for c in calls]
        attempted += len(calls)
        failures += _failures(wl, calls, ctx, args.seed, reference, verdicts)
        last = calls

    out = {
        "ready": ready,
        "pass_s": pass_times,
        "pass_norm_s": pass_norm,
        "call_s": call_times,
        "call_norm_s": call_norm,
        "work": wl.work(inputs, last),
    }
    if args.trace:
        layers, traced_failures, traced_calls = _traced_run(wl, inputs, ctx, args.seed, tracer,
                                                             setup_spans, last, pass_norm)
        failures += traced_failures
        attempted += traced_calls
        out["layers"] = layers
        trace_dir = os.path.join(ROOT, ".bench_work", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write_jsonl(os.path.join(
            trace_dir, f"{wl.name}-{wl.scale}-seed{args.seed}.jsonl"))
    out.update(attempted=attempted, failures=failures,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return out


def _traced_run(wl, inputs, ctx, seed, tracer, setup_spans, untraced_calls, pass_norm):
    """One traced pass plus the layer probes; returns (metrics, failures, calls)."""
    import speed
    from tracing import layer_self_times, matching, total
    from unselect import discretize, fit_pca, zscore_normalize
    from unselect.roughset import mean_dependency_exact
    from unselect.eval import render_text_tables
    from workloads import CFG

    first = len(tracer.spans)
    probe_before = speed.probe()
    start = time.perf_counter()
    calls = wl.traced_pass(inputs, seed, tracer)
    traced_wall = time.perf_counter() - start
    traced_norm = speed.normalize(traced_wall, (probe_before + speed.probe()) / 2)
    pass_spans = tracer.spans[first:]
    failures = _failures(wl, calls, ctx, seed, None, {})
    failures += wl.traced_mismatch(calls, untraced_calls)
    untraced_report = wl.report(untraced_calls)

    first = len(tracer.spans)
    for table in wl.probe_tables(inputs):
        with tracer.span("dataset.zscore", "dataset"):
            normed = zscore_normalize(table)
        with tracer.span("dataset.discretize", "dataset"):
            discretize(table, CFG.strategy, CFG.bins)
        with tracer.span("pca.fit", "pca"):
            fit_pca(normed)
    weighted, evals, chosen = 0.0, 0, 0
    for table, subset in wl.usqr_results(calls, ctx):
        d, order = table.n_attrs, list(subset)
        # USQR scores the full set once, then in round i scores d - i
        # candidates of size i + 1; the prefix of that size stands in for each.
        probes = [(range(d), 1)] + [(order[:i + 1], d - i) for i in range(len(order))]
        for attrs, weight in probes:
            with tracer.span("roughset.dependency", "roughset") as span:
                mean_dependency_exact(table, attrs)
            weighted += weight * (span["end"] - span["start"])
            evals += weight
        chosen += len(order)
    if untraced_report is not None:
        with tracer.span("cli.render", "cli"):
            render_text_tables(untraced_report)
            untraced_report.to_json()
    probe_spans = tracer.spans[first:]

    def cv(name):
        spans = matching(pass_spans, f"eval.cv_{name}")
        seconds = total(pass_spans, f"eval.cv_{name}")
        preds = sum(s["attrs"]["n"] for s in spans)
        return seconds, preds

    usqr_s = total(pass_spans, "selectors.usqr")
    dependency = [s["end"] - s["start"] for s in matching(probe_spans, "roughset.dependency")]
    metrics = {
        "dataset.load_s": total(setup_spans, "dataset.load"),
        "dataset.cells_loaded": wl.work(inputs, calls)["cells"],
        "dataset.discretize_s": total(probe_spans, "dataset.discretize"),
        "dataset.zscore_s": total(probe_spans, "dataset.zscore"),
        "roughset.dependency_ms": 1000 * statistics.median(dependency) if dependency else 0.0,
        "roughset.dependency_evals": evals,
        "roughset.est_share": weighted / usqr_s if usqr_s else 0.0,
        "pca.fit_ms": 1000 * total(probe_spans, "pca.fit"),
        "selectors.usqr_s": usqr_s,
        "selectors.usqr_latent_s": total(pass_spans, "selectors.usqr", family="latent"),
        "selectors.usqr_dup_s": total(pass_spans, "selectors.usqr", family="dup"),
        "selectors.roughpca_s": total(pass_spans, "selectors.roughpca"),
        "selectors.pca_s": total(pass_spans, "selectors.pca"),
        "selectors.edr_s": total(pass_spans, "selectors.edr"),
        "selectors.usqr_subset_size": chosen,
        "selectors.usqr_accept_ratio": chosen / evals if evals else 0.0,
        "eval.fold_plan_ms": 1000 * total(pass_spans, "eval.make_fold_plan"),
        "eval.predictions": 0,
        "cli.render_ms": 1000 * total(probe_spans, "cli.render"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_norm - statistics.median(pass_norm),
    }
    for name in ("nb", "knn", "dtable"):
        seconds, preds = cv(name)
        metrics[f"eval.cv_{name}_s"] = seconds
        metrics[f"eval.{name}_preds_per_s"] = preds / seconds if seconds else 0.0
        metrics["eval.predictions"] += preds
    selves = layer_self_times(pass_spans)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = selves.get(layer, 0.0)
    metrics["bench.self_s"] = traced_wall - sum(selves.get(layer, 0.0) for layer in LAYERS)
    return metrics, failures, len(calls)


def cmd_record(args):
    """Reference outputs at seed 1, for both scales of every workload."""
    import tempfile

    import workloads

    _import_library()
    reference = {}
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        for scale in ("full", "toy"):
            wl = cls(ROOT, scale)
            with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_work")) as tmp:
                wl.prepare(REFERENCE_SEED, tmp)
                inputs = wl.load(tmp)
            calls = wl.run_pass(inputs, REFERENCE_SEED)
            ctx = wl.check_context(inputs, REFERENCE_SEED)
            bad = _failures(wl, calls, ctx, REFERENCE_SEED, None, {})
            if bad:
                raise SystemExit(f"{name}/{scale}: {bad}")
            reference.setdefault(name, {})[scale] = {
                str(REFERENCE_SEED): {c.label: wl.digest(c) for c in calls}}
    with open(args.reference, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return {"written": args.reference}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("job", choices=("prepare", "setup", "run", "record"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--reference", default=REFERENCE)
    args = parser.parse_args(argv)
    job = {"prepare": cmd_prepare, "setup": cmd_setup, "run": cmd_run, "record": cmd_record}
    print(json.dumps(job[args.job](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
