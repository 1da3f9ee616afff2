"""Command-line front door: select, evaluate, bench and report.

Exit codes: 0 ok, 1 internal error, 2 bad configuration, 3 data error,
4 benchmark finished with failed datasets.  Results go to stdout,
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .dataset import (
    DatasetError,
    default_registry,
    load_registry,
    load_table,
    zscore_normalize,
)
from .eval import (
    CLASSIFIER_IDS,
    EvalReport,
    config_fingerprint,
    cross_validate,
    error_source,
    make_fold_plan,
    render_csv_tables,
    render_text_tables,
    run_benchmark,
)
from .selectors import METHOD_IDS, SelectorConfig, edr_scores, select
from .pca import fit_pca, loading_scores, retain_count

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
    if text == "kaiser":
        return ("kaiser", None)
    if text.startswith("var:"):
        try:
            return ("var", float(text[4:]))
        except ValueError:
            raise CliError(f"bad pc policy {text!r}", EXIT_CONFIG) from None
    if text.startswith("fixed:"):
        try:
            return ("fixed", int(text[6:]))
        except ValueError:
            raise CliError(f"bad pc policy {text!r}", EXIT_CONFIG) from None
    raise CliError(
        f"unknown pc policy {text!r}; use var:F, kaiser or fixed:K", EXIT_CONFIG
    )


def _parse_label_col(text):
    if text is None or text == "auto":
        return None
    if text.lstrip("-").isdigit():
        return int(text) - 1        # user-facing columns are 1-based
    return text


def _registry(args):
    if getattr(args, "registry", None):
        return load_registry(args.registry)
    return default_registry()


def _load_dataset(args):
    """--data is a file path or a registry name."""
    registry = _registry(args)
    if os.path.exists(args.data):
        return load_table(
            args.data,
            label_column=_parse_label_col(args.label_col),
            missing=args.missing,
        )
    if args.data in registry.entries:
        return registry.load(args.data, missing=args.missing)
    raise CliError(
        f"dataset {args.data!r} is neither a file nor a registry name "
        f"(registry: {sorted(registry.entries)})",
        EXIT_DATA,
    )


def _selector_config(args):
    try:
        return SelectorConfig(
            pc_policy=_parse_pc_policy(args.pc_policy),
            strategy=args.strategy,
            bins=args.bins,
            edr_k=getattr(args, "k", None),
        )
    except ValueError as exc:
        raise CliError(str(exc), EXIT_CONFIG) from None


def _emit(text, out_path=None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_select(args):
    table = _load_dataset(args)
    cfg = _selector_config(args)
    if args.method in ("pca", "edr") and args.k is None:
        raise CliError(f"--k is required for method {args.method}", EXIT_CONFIG)
    try:
        subset = select(table, args.method, cfg, args.k)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_CONFIG) from None
    resolved = {
        "command": "select",
        "data": table.name,
        "method": args.method,
        "k": args.k,
        "strategy": cfg.strategy,
        "bins": cfg.bins,
        "pc_policy": list(cfg.pc_policy),
        "missing": args.missing,
    }
    lines = [f"subset: {subset.to_one_based()}"]
    if args.method == "edr":
        ranking = edr_scores(table)
        lines.append(
            "ranking: "
            + " ".join(f"{j + 1}:{s:.4f}" for j, s in ranking.entries)
        )
    elif args.method == "pca":
        model = fit_pca(zscore_normalize(table))
        kept = retain_count(model, cfg.pc_policy)
        lines.append(
            "ranking: "
            + " ".join(f"{j + 1}:{s:.4f}" for j, s in loading_scores(model, kept))
        )
        if args.dump_model:
            with open(args.dump_model, "w", encoding="utf-8") as fh:
                fh.write(model.to_json())
            print(f"model written to {args.dump_model}", file=sys.stderr)
    lines.append(f"fingerprint: {config_fingerprint(resolved)}")
    payload = "\n".join(lines) + "\n"
    if args.format == "json":
        payload = json.dumps(
            {"subset": subset.to_one_based(),
             "fingerprint": config_fingerprint(resolved)},
            sort_keys=True,
        ) + "\n"
    _emit(payload, args.out)
    return EXIT_OK


def cmd_evaluate(args):
    table = _load_dataset(args)
    if table.labels is None:
        raise CliError("evaluation needs a labeled dataset", EXIT_DATA)
    cfg = _selector_config(args)
    try:
        subset = select(table, args.method, cfg, args.k)
        plan = make_fold_plan(table.labels, args.folds, args.seed)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_CONFIG) from None
    lines = []
    for classifier in args.classifiers.split(","):
        classifier = classifier.strip()
        if classifier not in CLASSIFIER_IDS:
            raise CliError(
                f"unknown classifier {classifier!r}; valid: "
                f"{', '.join(CLASSIFIER_IDS)}",
                EXIT_CONFIG,
            )
        result = cross_validate(
            table, subset, classifier, plan,
            strategy=cfg.strategy, bins=cfg.bins,
            global_prep=args.global_prep,
        )
        lines.append(
            f"{table.name} {args.method} {classifier} "
            f"subset={subset.to_one_based()} accuracy={result.accuracy:.4f}"
        )
    resolved = {"command": "evaluate", "data": table.name,
                "method": args.method, "seed": args.seed, "folds": args.folds,
                "strategy": cfg.strategy, "bins": cfg.bins}
    lines.append(f"fingerprint: {config_fingerprint(resolved)}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_bench(args):
    registry = _registry(args)
    datasets = args.datasets.split(",") if args.datasets else None
    cfg = _selector_config(args)
    report = run_benchmark(
        registry,
        datasets=datasets,
        methods=tuple(m.strip() for m in args.methods.split(",")),
        classifiers=tuple(c.strip() for c in args.classifiers.split(",")),
        seed=args.seed,
        folds=args.folds,
        cfg=cfg,
        missing=args.missing,
        global_prep=args.global_prep,
    )
    if args.format == "json":
        rendered = report.to_json() + "\n"
    elif args.format == "csv":
        rendered = render_csv_tables(report)
    else:
        rendered = render_text_tables(report)
    _emit(rendered, args.out)
    if args.out:
        json_path = os.path.splitext(args.out)[0] + ".json"
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        print(f"machine-readable report: {json_path}", file=sys.stderr)
    for err in report.errors:
        print(f"ERROR {error_source(err)}: {err['error']}", file=sys.stderr)
    return EXIT_BENCH_PARTIAL if report.errors else EXIT_OK


def cmd_report(args):
    try:
        with open(args.input, encoding="utf-8") as fh:
            report = EvalReport.from_json(fh.read())
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise CliError(f"cannot read report {args.input!r}: {exc}", EXIT_DATA)
    if args.format == "csv":
        rendered = render_csv_tables(report)
    elif args.format == "json":
        rendered = report.to_json() + "\n"
    else:
        rendered = render_text_tables(report)
    _emit(rendered, args.out)
    return EXIT_OK


def _add_common_selector_flags(p, with_k=True):
    p.add_argument("--bins", type=int, default=3,
                   help="discretization bin count (default: 3)")
    p.add_argument("--strategy", choices=["eqwidth", "eqfreq"], default="eqfreq",
                   help="discretization strategy (default: eqfreq)")
    p.add_argument("--pc-policy", default="var:0.90",
                   help="PC retention: var:F, kaiser or fixed:K (default: var:0.90)")
    if with_k:
        p.add_argument("--k", type=int, default=None,
                       help="number of features for pca/edr (default: none)")
    p.add_argument("--missing", choices=["reject", "impute", "drop"],
                   default="reject",
                   help="missing-value policy at load (default: reject)")
    p.add_argument("--registry", default=None,
                   help="dataset registry file (default: bundled registry, "
                        "or $UNSELECT_DATA_DIR/registry.txt)")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table",
                   help="output format (default: table)")
    p.add_argument("--out", default=None,
                   help="write output to this path instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="unselect",
        description="Unsupervised feature selection and benchmark toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("select", help="select a feature subset")
    p.add_argument("--data", required=True, help="dataset path or registry name")
    p.add_argument("--method", required=True, choices=METHOD_IDS)
    p.add_argument("--label-col", default=None,
                   help="label column (1-based index or name; default: auto)")
    p.add_argument("--dump-model", default=None,
                   help="write the fitted PC model as JSON, pca method only "
                        "(default: no dump)")
    _add_common_selector_flags(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("evaluate", help="cross-validate one method on one dataset")
    p.add_argument("--data", required=True, help="dataset path or registry name")
    p.add_argument("--method", required=True, choices=METHOD_IDS)
    p.add_argument("--label-col", default=None,
                   help="label column (1-based index or name; default: auto)")
    p.add_argument("--classifiers", default="nb",
                   help="comma list of nb,knn,dtable (default: nb)")
    p.add_argument("--folds", type=int, default=10,
                   help="cross-validation folds (default: 10)")
    p.add_argument("--seed", type=int, default=1, help="fold seed (default: 1)")
    p.add_argument("--global-prep", action="store_true",
                   help="fit preprocessing on the full dataset (leaky variant)")
    _add_common_selector_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="run the benchmark cross product")
    p.add_argument("--datasets", default=None,
                   help="comma list of registry names (default: all)")
    p.add_argument("--methods", default=",".join(METHOD_IDS),
                   help=f"comma list of methods (default: all: "
                        f"{','.join(METHOD_IDS)})")
    p.add_argument("--classifiers", default=",".join(CLASSIFIER_IDS),
                   help=f"comma list of classifiers (default: "
                        f"{','.join(CLASSIFIER_IDS)})")
    p.add_argument("--folds", type=int, default=10,
                   help="cross-validation folds (default: 10)")
    p.add_argument("--seed", type=int, default=1, help="fold seed (default: 1)")
    p.add_argument("--global-prep", action="store_true",
                   help="fit preprocessing on the full dataset (leaky variant)")
    _add_common_selector_flags(p, with_k=False)
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
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except DatasetError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:   # noqa: BLE001
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
