"""Benchmark of the unselect library: one workload per invocation.

    python3 perfbench/run.py --workload paper-bench|usqr-synth|cv-synth \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The library is imported from the
checkout's ``src/`` and nothing is installed.  Every job runs in a fresh
interpreter (see worker.py), one at a time, with BLAS and OpenMP pinned to
one thread.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, where the metrics
are the end-to-end ones with ``--trace 0`` and the per-layer ones with
``--trace 1``.  The lines before it print every metric with its unit,
including three the JSON line leaves out: ``call_ms.p50``, which on a
shared host spreads across runs by more than a third of any bound it
could be given, ``call_ms.p90``, which only applies to runs of at least
100 calls, and ``failed_ratio``, which is zero on a correct program.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("paper-bench", "usqr-synth", "cv-synth")
SETUP_SAMPLES = 5          # fresh interpreters timed per run, after one warm-up
DEADLINE_S = 170           # the whole run must end within 180 s
P90_MIN_CALLS = 100        # at least ten calls beyond the 90th percentile

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "dataset.load_s": "s",
    "dataset.cells_loaded": "count",
    "dataset.discretize_s": "s",
    "dataset.zscore_s": "s",
    "roughset.dependency_ms": "ms",
    "roughset.dependency_evals": "count",
    "roughset.est_share": "ratio",
    "pca.fit_ms": "ms",
    "selectors.usqr_s": "s",
    "selectors.usqr_latent_s": "s",
    "selectors.usqr_dup_s": "s",
    "selectors.roughpca_s": "s",
    "selectors.pca_s": "s",
    "selectors.edr_s": "s",
    "selectors.usqr_subset_size": "count",
    "selectors.usqr_accept_ratio": "ratio",
    "eval.fold_plan_ms": "ms",
    "eval.cv_nb_s": "s",
    "eval.cv_knn_s": "s",
    "eval.cv_dtable_s": "s",
    "eval.predictions": "count",
    "eval.nb_preds_per_s": "1/s",
    "eval.knn_preds_per_s": "1/s",
    "eval.dtable_preds_per_s": "1/s",
    "cli.import_s": "s",
    "cli.render_ms": "ms",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "dataset.self_s": "s",
    "roughset.self_s": "s",
    "pca.self_s": "s",
    "selectors.self_s": "s",
    "eval.self_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
}


class JobFailed(Exception):
    pass


def _job(deadline, *args):
    """Run one worker job to completion; returns (start time, its JSON)."""
    env = {k: v for k, v in os.environ.items() if k != "UNSELECT_DATA_DIR"}
    env["PYTHONHASHSEED"] = "0"
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise JobFailed(f"worker {args[0]} timed out") from exc
    if proc.returncode != 0:
        raise JobFailed(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def _environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count(),
            "threads": 1}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(workload, seed, seconds, trace, toy=False, reference=None):
    """Run the workload's jobs; returns (result line, report lines, record)."""
    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", workload]
    if toy:
        common.append("--toy")
    workdir = os.path.join(ROOT, ".bench_work",
                           f"{workload}-{'toy' if toy else 'full'}-seed{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        common += ["--workdir", workdir]
        _job(deadline, "prepare", *common, "--seed", str(seed))
        setups = []
        for i in range(SETUP_SAMPLES + 1):
            start, out = _job(deadline, "setup", *common)
            if i:                                  # the first only warms caches
                setups.append(dict(out, raw_s=out["ready"] - start,
                                   norm_s=(out["ready"] - start) * out["scale"]))
        run_args = ["run", *common, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace)]
        if reference:
            run_args += ["--reference", reference]
        _, run = _job(deadline, *run_args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = dict(_environment(), numpy=setups[0]["numpy"])
    pass_s, call_s = run["pass_norm_s"], run["call_norm_s"]
    attempted, failed = run["attempted"], len(run["failures"])
    setup_s = [s["norm_s"] for s in setups]
    end_to_end = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(pass_s),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    p50 = 1000 * statistics.median(call_s)
    raw = {
        "setup_s": statistics.median(s["raw_s"] for s in setups),
        "wall_s": statistics.median(run["pass_s"]),
        "call_ms.p50": 1000 * statistics.median(run["call_s"]),
    }
    p90 = (1000 * statistics.quantiles(call_s, n=10)[-1]
           if len(call_s) >= P90_MIN_CALLS else None)
    q1, q3 = _quartiles(pass_s)
    work = run["work"]
    lines = [
        f"# environment: python {env['python']}, numpy {env['numpy']}, cpu {env['cpu']}, "
        f"nproc {env['nproc']}, BLAS/OpenMP threads {env['threads']}",
        f"# {workload} seed {seed}: {len(pass_s)} passes in {sum(run['pass_s']):.2f} s; "
        f"work per pass: rows {work['rows']}, cells {work['cells']}, calls {work['calls']}, "
        f"predictions {work['predictions']}",
        "# times are at nominal machine speed (see speed.py); raw wall-clock in brackets",
        f"setup_s      {end_to_end['setup_s']:.4f} s   [{raw['setup_s']:.4f}] "
        f"median of {len(setups)} fresh interpreters",
        f"wall_s       {end_to_end['wall_s']:.4f} s   [{raw['wall_s']:.4f}] "
        f"median of {len(pass_s)} passes (q1 {q1:.4f}, q3 {q3:.4f})",
        f"call_ms.p50  {p50:.3f} ms   [{raw['call_ms.p50']:.3f}] "
        f"median of {len(call_s)} calls",
        (f"call_ms.p90  {p90:.3f} ms   of {len(call_s)} calls" if p90 is not None else
         f"call_ms.p90  n/a ms   needs {P90_MIN_CALLS} calls, have {len(call_s)}"),
        f"peak_rss_mb  {run['peak_rss_mb']:.3f} MB",
        f"failed_ratio {failed / attempted:.4f} ratio   {failed} of {attempted} calls",
    ]
    if trace:
        import_s = statistics.median(s["import_s"] for s in setups)
        layers = dict(run["layers"], **{"cli.import_s": import_s})
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        lines += [f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    else:
        metrics = {k: {"value": end_to_end[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "setups": setups, "raw": raw, "call_ms.p90": p90,
              "work": work, "result": result,
              **{k: run[k] for k in ("pass_s", "pass_norm_s", "call_s", "call_norm_s",
                                     "failures")}}
    return result, lines, record


def main(argv=None):
    parser = argparse.ArgumentParser(description="unselect benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny tables, for the benchmark's self-test")
    parser.add_argument("--reference", help="reference outputs file (default: the recorded one)")
    args = parser.parse_args(argv)

    for needed in (os.path.join("src", "unselect", "__init__.py"),
                   os.path.join("data", "registry.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}; run from a full checkout",
                  file=sys.stderr)
            return 2
    try:
        result, lines, record = measure(args.workload, args.seed, args.seconds, args.trace,
                                        args.toy, args.reference)
    except JobFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in record["failures"][:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    results = os.path.join(ROOT, ".bench_work", "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
