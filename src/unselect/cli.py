"""Command-line front door: select, evaluate, bench and report.

For pca and edr, ``select`` also prints the ranking its subset was cut
from, which the subset carries (``FeatureSubset.ranking``).  For usqr it
prints the search's rounds (``FeatureSubset.rounds``), each as
``attribute:total:candidates``, the candidates the round needed; the last
total is the target n*d.

Exit codes: 0 ok, 1 internal error, 2 bad configuration, 3 data error,
4 benchmark finished with failed datasets.  Results go to stdout,
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .dataset import (
    MISSING_POLICIES,
    STRATEGIES,
    DatasetError,
    default_registry,
    label_column_from_text,
    load_table,
)
from .eval import (
    CLASSIFIER_IDS,
    EvalReport,
    check_cv_settings,
    check_ids,
    config_fingerprint,
    cross_validate,
    error_source,
    make_fold_plan,
    render_csv_tables,
    render_text_tables,
    run_benchmark,
)
from .selectors import METHOD_IDS, SelectorConfig, select

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_BENCH_PARTIAL = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _parse_pc_policy(text):
    """``kind[:arg]`` as a policy tuple; ``pca.check_policy`` judges it."""
    kind, sep, arg = text.partition(":")
    try:
        return (kind, (int(arg) if kind == "fixed" else float(arg)) if sep else None)
    except ValueError:
        raise ValueError(f"invalid pc policy {text!r}: use var:F, kaiser or fixed:K") from None


def _id_list(text):
    """A comma list of ids; ``eval.check_ids`` judges it."""
    return tuple(part.strip() for part in text.split(","))


def _load_dataset(args):
    """--data is a file path or a registry name; --label-col applies to a
    CSV file only.  The registry is read only for a name."""
    if os.path.exists(args.data):
        if args.label_col is not None and args.data.lower().endswith(".arff"):
            raise CliError("--label-col applies only to a CSV file; an ARFF file's "
                           "label is its trailing nominal attribute", EXIT_CONFIG)
        return load_table(
            args.data,
            label_column=label_column_from_text(args.label_col),
            missing=args.missing,
        )
    try:
        registry = default_registry()
    except DatasetError as exc:
        raise CliError(f"dataset {args.data!r} is not a file, and {exc}", EXIT_DATA) from None
    if args.data in registry.entries:
        if args.label_col is not None:
            raise CliError(f"--label-col applies only to a CSV file; registry dataset "
                           f"{args.data!r} takes its label column from the registry",
                           EXIT_CONFIG)
        return registry.load(args.data, missing=args.missing)
    raise CliError(
        f"dataset {args.data!r} is neither a file nor a registry name "
        f"(registry: {sorted(registry.entries)})",
        EXIT_DATA,
    )


def _selector_config(args):
    return SelectorConfig(
        pc_policy=_parse_pc_policy(args.pc_policy),
        strategy=args.strategy,
        bins=args.bins,
    )


def _emit(text, out_path=None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(report, fmt):
    """A benchmark report as ``table``, ``csv`` or ``json`` text."""
    if fmt == "json":
        return report.to_json() + "\n"
    if fmt == "csv":
        return render_csv_tables(report)
    return render_text_tables(report)


def cmd_select(args):
    cfg = _selector_config(args)
    table = _load_dataset(args)
    subset = select(table, args.method, cfg, args.k)
    fingerprint = config_fingerprint(dict(
        asdict(cfg), command="select", data=table.name, method=args.method,
        k=args.k, missing=args.missing))
    if args.format == "json":
        payload = json.dumps(
            {"subset": subset.to_one_based(), "fingerprint": fingerprint}, sort_keys=True
        )
    else:
        lines = [f"subset: {subset.to_one_based()}"]
        if subset.ranking is not None:
            lines.append("ranking: " + " ".join(f"{j + 1}:{s:.4f}" for j, s in subset.ranking))
        if subset.rounds is not None:
            lines.append("rounds: " + " ".join(f"{j + 1}:{total}:{calls}"
                                               for j, total, calls in subset.rounds))
        payload = "\n".join(lines + [f"fingerprint: {fingerprint}"])
    _emit(payload + "\n", args.out)
    return EXIT_OK


def cmd_evaluate(args):
    cfg = _selector_config(args)
    check_cv_settings(args.folds, args.seed)
    check_ids(args.classifiers, CLASSIFIER_IDS)
    table = _load_dataset(args)
    if table.labels is None:
        raise CliError("evaluation needs a labeled dataset", EXIT_DATA)
    subset = select(table, args.method, cfg, args.k)
    plan = make_fold_plan(table.labels, args.folds, args.seed)
    lines = []
    for classifier in args.classifiers:
        result = cross_validate(table, subset, classifier, plan, strategy=cfg.strategy,
                                bins=cfg.bins, global_prep=args.global_prep)
        lines.append(f"{table.name} {args.method} {classifier} "
                     f"subset={subset.to_one_based()} accuracy={result.accuracy:.4f}")
    resolved = dict(asdict(cfg), command="evaluate", data=table.name, method=args.method,
                    k=args.k, seed=args.seed, folds=args.folds,
                    classifiers=args.classifiers, missing=args.missing,
                    global_prep=args.global_prep)
    lines.append(f"fingerprint: {config_fingerprint(resolved)}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_bench(args):
    cfg = _selector_config(args)
    report = run_benchmark(
        default_registry(),
        datasets=args.datasets,
        methods=args.methods,
        classifiers=args.classifiers,
        seed=args.seed,
        folds=args.folds,
        cfg=cfg,
        missing=args.missing,
        global_prep=args.global_prep,
    )
    _emit(_render(report, args.format), args.out)
    for err in report.errors:
        print(f"ERROR {error_source(err)}: {err['error']}", file=sys.stderr)
    return EXIT_BENCH_PARTIAL if report.errors else EXIT_OK


def cmd_report(args):
    try:
        with open(args.input, encoding="utf-8") as fh:
            report = EvalReport.from_json(fh.read())
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read report {args.input!r}: {exc}", EXIT_DATA)
    _emit(_render(report, args.format), args.out)
    return EXIT_OK


def build_parser():
    one_dataset = argparse.ArgumentParser(add_help=False)
    one_dataset.add_argument("--data", required=True, help="dataset path or registry name")
    one_dataset.add_argument("--method", required=True, choices=METHOD_IDS)
    one_dataset.add_argument("--label-col", default=None,
                             help="label column (1-based index or name; default: auto)")
    one_dataset.add_argument("--k", type=int, default=None,
                             help="number of features for pca/edr (default: none)")
    selection = argparse.ArgumentParser(add_help=False)
    selection.add_argument("--bins", type=int, default=3,
                           help="discretization bin count (default: 3)")
    selection.add_argument("--strategy", choices=STRATEGIES, default="eqfreq",
                           help="discretization strategy (default: eqfreq)")
    selection.add_argument("--pc-policy", default="var:0.90",
                           help="PC retention: var:F, kaiser or fixed:K (default: var:0.90)")
    selection.add_argument("--missing", choices=MISSING_POLICIES, default="reject",
                           help="missing-value policy at load (default: reject)")
    selection.add_argument("--out", default=None,
                           help="write output to this path instead of stdout")
    cv = argparse.ArgumentParser(add_help=False)
    cv.add_argument("--folds", type=int, default=10,
                    help="cross-validation folds (default: 10)")
    cv.add_argument("--seed", type=int, default=1, help="fold seed (default: 1)")
    cv.add_argument("--global-prep", action="store_true",
                    help="fit preprocessing on the full dataset (leaky variant)")

    parser = argparse.ArgumentParser(
        prog="unselect",
        description="Unsupervised feature selection and benchmark toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("select", parents=[one_dataset, selection],
                       help="select a feature subset")
    p.add_argument("--format", choices=["table", "json"], default="table",
                   help="output format (default: table)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("evaluate", parents=[one_dataset, selection, cv],
                       help="cross-validate one method on one dataset")
    p.add_argument("--classifiers", type=_id_list, default="nb",
                   help="comma list of nb,knn,dtable (default: nb)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", parents=[cv, selection],
                       help="run the benchmark cross product")
    p.add_argument("--datasets", type=_id_list, default=None,
                   help="comma list of registry names (default: all)")
    p.add_argument("--methods", type=_id_list, default=",".join(METHOD_IDS),
                   help=f"comma list of methods (default: all: "
                        f"{','.join(METHOD_IDS)})")
    p.add_argument("--classifiers", type=_id_list,
                   default=",".join(CLASSIFIER_IDS),
                   help=f"comma list of classifiers (default: "
                        f"{','.join(CLASSIFIER_IDS)})")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table",
                   help="output format (default: table)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="re-render a JSON benchmark report")
    p.add_argument("--input", required=True, help="report JSON path")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:      # argparse exits 2 on bad flags
        return exc.code
    try:
        parent = os.path.dirname(os.path.abspath(args.out)) if args.out else None
        if parent and not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
            raise CliError(f"--out {args.out!r}: directory {parent!r} is missing or not "
                           "writable", EXIT_CONFIG)
        if args.out and os.path.isdir(args.out):
            raise CliError(f"--out {args.out!r} is a directory", EXIT_CONFIG)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (DatasetError, OSError, UnicodeError) as exc:    # UnicodeError: not UTF-8
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:      # a setting the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:   # noqa: BLE001
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
