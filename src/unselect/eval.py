"""Built-in classifiers, stratified k-fold cross-validation and the
benchmark runner that assembles dataset x method x classifier accuracy
tables.

The three classifiers (Gaussian naive Bayes, k-NN, a discrete decision
table) stand in for the Weka lineup.  Each is a fit function in
``CLASSIFIERS`` with one signature, ``fit(train, prep=None, *, strategy,
bins, knn_k)``, that ignores the options it has no use for and returns a
frozen model whose ``predict(rows)`` labels a whole test matrix.  ``prep``
holds the rows the fold-level preprocessing (k-NN's z-score scaling, the
decision table's cut points) is fit on: the training rows when None, and
every row only under the leaky global-prep variant.  Models fit on class
codes (``train.y``) and ``predict_codes`` answers in them, so folds compare
integers, not strings; a class without training rows is never predicted.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import (
    DataTable,
    DatasetError,
    FeatureSubset,
    Registry,
    apply_cut_points,
    fit_cut_points,
    project,
)
from .selectors import METHOD_IDS, SelectorConfig, select

__all__ = [
    "FoldPlan",
    "make_fold_plan",
    "gaussian_nb_fit",
    "knn_fit",
    "decision_table_fit",
    "CLASSIFIERS",
    "cross_validate",
    "CvResult",
    "EvalReport",
    "run_benchmark",
    "error_source",
    "render_text_tables",
    "render_csv_tables",
    "CLASSIFIER_IDS",
    "EDR_K",
    "PCA_K",
]

CLASSIFIER_NAMES = {"nb": "Naive Bayes", "knn": "k-NN", "dtable": "Decision Table"}

# Feature counts pinned per benchmark dataset for the ranking selectors
# (the greedy methods decide their own size).
EDR_K = {"lung": 6, "breast": 5, "diabetes": 4, "heart": 4, "ecoli": 4}
PCA_K = {"lung": 17, "breast": 6, "diabetes": 3, "heart": 5, "ecoli": 3}

VARIANCE_FLOOR = 1e-9


@dataclass(frozen=True)
class FoldPlan:
    """Deterministic stratified fold assignment for one dataset."""

    seed: int
    k: int
    assignments: tuple[int, ...]
    _folds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Every fold must hold test rows and leave training rows, so no
        # fold is scored on nothing and no model is fit on nothing.
        if self.k < 2:
            raise ValueError(f"fold count must be >= 2, got {self.k}")
        if any(not 0 <= a < self.k for a in self.assignments):
            raise ValueError(f"fold assignments must lie in [0, {self.k})")
        folds = np.asarray(self.assignments, dtype=int)
        sizes = np.bincount(folds, minlength=self.k)
        if not sizes.all():
            raise ValueError(f"fold {int(np.argmin(sizes))} has no objects")
        folds.flags.writeable = False
        object.__setattr__(self, "_folds", folds)

    def fold_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self._folds == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self._folds != fold)


def make_fold_plan(labels, k: int, seed: int) -> FoldPlan:
    """Assign objects to k folds, stratified by class.

    Within each class the shuffled members are dealt round-robin; the
    dealing position carries over between classes so overall fold sizes
    also differ by at most one.  Fully determined by (seed, k, labels).
    """
    classes, codes = np.unique(np.array([str(y) for y in labels], dtype=object),
                               return_inverse=True)
    n = len(codes)
    if not 2 <= k <= n:
        raise ValueError(f"fold count must be in [2, {n}], got {k}")
    rng = np.random.default_rng(seed)
    assignments = np.empty(n, dtype=int)
    position = 0
    for code in range(len(classes)):
        members = np.flatnonzero(codes == code)
        members = members[rng.permutation(len(members))]
        assignments[members] = (position + np.arange(len(members))) % k
        position = (position + len(members)) % k
    return FoldPlan(seed=seed, k=k, assignments=tuple(int(a) for a in assignments))


# ---------------------------------------------------------------------------
# Classifiers

@dataclass(frozen=True)
class _Model:
    classes: tuple[str, ...]        # the training table's sorted classes

    def predict(self, rows) -> list[str]:
        """Class labels of the rows, from their ``predict_codes``."""
        return [self.classes[c] for c in self.predict_codes(rows).tolist()]


@dataclass(frozen=True)
class NbModel(_Model):
    fitted: np.ndarray      # codes of the classes with training rows, sorted
    log_priors: np.ndarray
    means: np.ndarray       # fitted class x attr
    variances: np.ndarray   # fitted class x attr, floored

    def predict_codes(self, rows) -> np.ndarray:
        """argmax of log prior + summed log normal densities; ties resolve
        to the lexicographically first class (classes are stored sorted)."""
        rows = np.asarray(rows, dtype=float)[:, None, :]   # row x 1 x attr
        ll = self.log_priors - 0.5 * np.sum(
            np.log(2.0 * np.pi * self.variances)
            + (rows - self.means) ** 2 / self.variances,
            axis=2,
        )
        return self.fitted[np.argmax(ll, axis=1)]


def gaussian_nb_fit(train: DataTable, prep=None, *, strategy="eqfreq", bins=3,
                    knn_k=3) -> NbModel:
    """Class priors plus per-class, per-attribute normal densities, for
    the classes that have training rows."""
    if train.labels is None:
        raise ValueError("gaussian naive Bayes needs labeled training data")
    fitted = np.flatnonzero(np.bincount(train.y))
    groups = [train.values[train.y == code] for code in fitted]
    return NbModel(
        classes=train.classes,
        fitted=fitted,
        log_priors=np.array([np.log(len(rows) / train.n_objects) for rows in groups]),
        means=np.array([rows.mean(axis=0) for rows in groups]),
        variances=np.array([np.maximum(rows.var(axis=0), VARIANCE_FLOOR) for rows in groups]),
    )


# Cap on block rows x training rows x attributes in one k-NN distance
# broadcast, so prediction memory stays bounded whatever the test size.
KNN_BLOCK_CELLS = 2 ** 16


@dataclass(frozen=True)
class KnnModel(_Model):
    mean: np.ndarray
    std: np.ndarray
    scaled: np.ndarray              # training rows, z-scored
    codes: np.ndarray               # training row -> index into classes
    k: int

    def predict_codes(self, rows) -> np.ndarray:
        """Majority vote among the k nearest training rows (z-scored space).

        Distance ties go to the lower training index (the order of a stable
        argsort), vote ties to the class of the nearest tied row.  Test rows
        are labelled in blocks of at most ``KNN_BLOCK_CELLS`` block rows x
        training rows x attributes (one row when a single row exceeds it),
        so memory is bounded per block rather than growing with the test
        size.  A row holding NaN has no distance and is rejected.
        """
        rows = np.asarray(rows, dtype=float)
        nan_rows = np.flatnonzero(np.isnan(rows).any(axis=1))
        if len(nan_rows):
            raise ValueError(f"k-NN cannot label row {nan_rows[0] + 1}: it holds NaN")
        scaled_rows = (rows - self.mean) / self.std
        step = max(1, KNN_BLOCK_CELLS // self.scaled.size)
        predicted = np.empty(len(scaled_rows), dtype=np.intp)
        for start in range(0, len(scaled_rows), step):
            predicted[start:start + step] = self._predict_block(scaled_rows[start:start + step])
        return predicted

    def _predict_block(self, block: np.ndarray) -> np.ndarray:
        """Class codes of one block of z-scored test rows."""
        b, k, n_classes = len(block), self.k, len(self.classes)
        # The root stays: two different squared distances can round to one
        # root, and those rows must tie exactly as they do row by row.
        dist = np.sqrt(((self.scaled - block[:, None, :]) ** 2).sum(axis=2))
        # The k nearest in stable-argsort order without sorting every
        # training row: all rows closer than the k-th distance, then the
        # lowest-index rows tied at it, then a stable sort of those k.
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
        closer = dist < kth
        tied = dist == kth
        room = k - np.count_nonzero(closer, axis=1)
        chosen = closer | (tied & (np.cumsum(tied, axis=1) <= room[:, None]))
        picked = np.nonzero(chosen)[1].reshape(b, k)        # index order
        order = np.argsort(np.take_along_axis(dist, picked, axis=1), axis=1,
                           kind="stable")
        nearest = self.codes[np.take_along_axis(picked, order, axis=1)]
        votes = np.bincount((nearest + n_classes * np.arange(b)[:, None]).ravel(),
                            minlength=b * n_classes).reshape(b, n_classes)
        top = np.take_along_axis(votes, nearest, axis=1) == votes.max(axis=1, keepdims=True)
        return nearest[np.arange(b), np.argmax(top, axis=1)]


def knn_fit(train: DataTable, prep=None, *, strategy="eqfreq", bins=3,
            knn_k=3) -> KnnModel:
    """Store the training rows z-scored with the mean and std of prep."""
    if train.labels is None:
        raise ValueError("k-NN needs labeled training data")
    if not 1 <= knn_k <= train.n_objects:
        raise ValueError(f"k={knn_k} out of range for {train.n_objects} training rows")
    prep = train.values if prep is None else prep
    mean = prep.mean(axis=0)
    std = prep.std(axis=0, ddof=1) if len(prep) > 1 else np.ones(prep.shape[1])
    std = np.where(std == 0, 1.0, std)
    overflow = ~(np.isfinite(mean) & np.isfinite(std))
    if overflow.any():
        raise ValueError(f"k-NN cannot z-score attribute {np.argmax(overflow) + 1}: "
                         "its mean or spread overflows")
    # votes come from training rows only, so a class without rows never wins
    return KnnModel(mean=mean, std=std, scaled=(train.values - mean) / std,
                    classes=train.classes, codes=train.y, k=knn_k)


@dataclass(frozen=True)
class DecisionTableModel(_Model):
    cuts: tuple[np.ndarray, ...]    # per attribute, fit on prep
    lookup: dict                    # seen code tuple -> class code
    fallback: int                   # class code of the training majority

    def predict_codes(self, rows) -> np.ndarray:
        """Seen code tuple -> its majority class; unseen -> global majority."""
        codes = apply_cut_points(np.asarray(rows, dtype=float), self.cuts)
        return np.array([self.lookup.get(key, self.fallback)
                         for key in map(tuple, codes.tolist())], dtype=np.intp)


def decision_table_fit(train: DataTable, prep=None, *, strategy="eqfreq", bins=3,
                       knn_k=3) -> DecisionTableModel:
    """Bin with cut points fit on prep, then map each training code tuple
    to its majority class (ties: lexicographically smallest)."""
    if train.labels is None:
        raise ValueError("decision table needs labeled training data")
    cuts = tuple(fit_cut_points(train.values if prep is None else prep, strategy, bins))
    groups: dict[tuple, int] = {}
    keys = map(tuple, apply_cut_points(train.values, cuts).tolist())
    group = np.fromiter((groups.setdefault(key, len(groups)) for key in keys),
                        dtype=np.intp, count=train.n_objects)
    n_classes = len(train.classes)
    votes = np.bincount(group * n_classes + train.y,
                        minlength=len(groups) * n_classes).reshape(len(groups), -1)
    # classes are sorted, so argmax's first maximum is the smallest class;
    # every group has a row, so a class without rows never wins
    return DecisionTableModel(
        cuts=cuts,
        classes=train.classes,
        lookup=dict(zip(groups, np.argmax(votes, axis=1).tolist())),
        fallback=int(np.argmax(votes.sum(axis=0))),
    )


CLASSIFIERS = {"nb": gaussian_nb_fit, "knn": knn_fit, "dtable": decision_table_fit}
CLASSIFIER_IDS = tuple(CLASSIFIERS)


# ---------------------------------------------------------------------------
# Cross-validation

@dataclass(frozen=True)
class CvResult:
    accuracy: float                      # percent over all test predictions
    fold_accuracies: tuple[float, ...]   # percent per fold
    fold_sizes: tuple[int, ...]


def cross_validate(table: DataTable, subset: FeatureSubset, classifier: str,
                   plan: FoldPlan, *, strategy: str = "eqfreq", bins: int = 3,
                   knn_k: int = 3, global_prep: bool = False) -> CvResult:
    """Stratified k-fold accuracy of one classifier on a feature subset.

    Each fold fits a model on its training rows and predicts its test rows.
    Preprocessing is fit on the training folds only; ``global_prep=True``
    reproduces the leaky fit-on-everything variant for comparison.
    """
    if table.labels is None:
        raise ValueError("cross-validation needs labeled data")
    if classifier not in CLASSIFIERS:
        raise ValueError(
            f"unknown classifier {classifier!r}; valid: {', '.join(CLASSIFIER_IDS)}"
        )
    if len(plan.assignments) != table.n_objects:
        raise ValueError(
            f"fold plan assigns {len(plan.assignments)} objects, "
            f"table has {table.n_objects}"
        )
    fit = CLASSIFIERS[classifier]
    projected = project(table, subset)
    values, y = projected.values, projected.y
    corrects, fold_sizes = [], []
    for fold in range(plan.k):
        test_idx = plan.fold_indices(fold)
        model = fit(projected.take(plan.train_indices(fold)),
                    values if global_prep else None,
                    strategy=strategy, bins=bins, knn_k=knn_k)
        corrects.append(int(np.count_nonzero(model.predict_codes(values[test_idx])
                                             == y[test_idx])))
        fold_sizes.append(len(test_idx))
    return CvResult(
        accuracy=100.0 * sum(corrects) / table.n_objects,
        fold_accuracies=tuple(100.0 * c / size for c, size in zip(corrects, fold_sizes)),
        fold_sizes=tuple(fold_sizes),
    )


# ---------------------------------------------------------------------------
# Benchmark runner

@dataclass
class EvalReport:
    """All accuracy rows of one benchmark run plus any errors, each of one
    dataset or of one (dataset, method)."""

    rows: list[dict] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {"config": self.config, "errors": self.errors, "rows": self.rows}
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        d = json.loads(text)
        return cls(rows=d["rows"], errors=d["errors"], config=d["config"])

    def datasets(self):
        return sorted({r["dataset"] for r in self.rows})


def config_fingerprint(resolved: dict) -> str:
    """Stable short hash of every resolved parameter, for traceability."""
    blob = json.dumps(resolved, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _pinned_k(method: str, dataset_name: str, d: int, cfg: SelectorConfig):
    if method == "edr":
        if cfg.edr_k is not None:
            return min(cfg.edr_k, d)
        return min(EDR_K.get(dataset_name, 4), d)
    if method == "pca":
        return min(PCA_K.get(dataset_name, 4), d)
    return None


def run_benchmark(registry: Registry, datasets=None, methods=METHOD_IDS,
                  classifiers=CLASSIFIER_IDS, seed: int = 1, folds: int = 10,
                  cfg: SelectorConfig = SelectorConfig(), missing: str = "reject",
                  global_prep: bool = False, knn_k: int = 3) -> EvalReport:
    """Evaluate the full dataset x method x classifier cross product.

    Subsets are selected once per dataset on the full unlabeled data (the
    selectors never see labels), then scored with one shared fold plan.
    A dataset that cannot be loaded is recorded as an error of that
    dataset; a method that fails on it, in selection or in any classifier,
    as an error of that (dataset, method) with none of its rows kept.  The
    rest of the run continues either way.
    """
    names = list(datasets) if datasets is not None else registry.names()
    base_config = {
        "seed": seed,
        "folds": folds,
        "strategy": cfg.strategy,
        "bins": cfg.bins,
        "pc_policy": list(cfg.pc_policy),
        "knn_k": knn_k,
        "global_prep": global_prep,
        "missing": missing,
    }
    report = EvalReport(config=dict(base_config, datasets=sorted(names),
                                    methods=sorted(methods),
                                    classifiers=sorted(classifiers)))
    for dataset_name in names:
        try:
            table = registry.load(dataset_name, missing=missing)
            if table.labels is None:
                raise DatasetError(f"dataset {dataset_name!r} has no labels")
            plan = make_fold_plan(table.labels, folds, seed)
        except (DatasetError, ValueError) as exc:   # data faults become report rows
            report.errors.append({"dataset": dataset_name, "error": str(exc)})
            continue
        for method in methods:
            try:
                k = _pinned_k(method, dataset_name, table.n_attrs, cfg)
                subset = select(table, method, cfg, k)
                results = [
                    cross_validate(table, subset, classifier, plan,
                                   strategy=cfg.strategy, bins=cfg.bins, knn_k=knn_k,
                                   global_prep=global_prep)
                    for classifier in classifiers
                ]
            except (DatasetError, ValueError) as exc:
                report.errors.append({"dataset": dataset_name, "method": method,
                                      "error": str(exc)})
                continue
            for classifier, result in zip(classifiers, results):
                resolved = dict(base_config, dataset=dataset_name,
                                method=method, classifier=classifier,
                                subset=subset.to_one_based())
                report.rows.append({
                    "dataset": dataset_name,
                    "method": method,
                    "classifier": classifier,
                    "accuracy": result.accuracy,
                    "fold_accuracies": list(result.fold_accuracies),
                    "subset": subset.to_one_based(),
                    "fingerprint": config_fingerprint(resolved),
                    "seed": seed,
                })
    report.rows.sort(key=lambda r: (r["dataset"], r["method"], r["classifier"]))
    report.errors.sort(key=lambda r: (r["dataset"], r.get("method", "")))
    return report


def error_source(err: dict) -> str:
    """Where a report error arose: ``dataset`` or ``dataset/method``."""
    method = err.get("method")
    return err["dataset"] if method is None else f"{err['dataset']}/{method}"


def _table_cells(report: EvalReport, dataset: str, methods, classifiers):
    cells = {}
    for row in report.rows:
        if row["dataset"] == dataset:
            cells[(row["classifier"], row["method"])] = row["accuracy"]
    lines = []
    for classifier in classifiers:
        entries = []
        for method in methods:
            acc = cells.get((classifier, method))
            entries.append("" if acc is None else f"{acc:.4f}")
        lines.append((CLASSIFIER_NAMES.get(classifier, classifier), entries))
    return lines


def render_text_tables(report: EvalReport, methods=METHOD_IDS,
                       classifiers=CLASSIFIER_IDS) -> str:
    """One aligned accuracy table per dataset, classifiers x methods."""
    out = []
    for dataset in report.datasets():
        out.append(f"Classification accuracy for {dataset}")
        header = ["Classifier"] + [m.upper() for m in methods]
        body = _table_cells(report, dataset, methods, classifiers)
        widths = [
            max(len(header[0]), *(len(name) for name, _ in body)),
            *(
                max(len(header[j + 1]), *(len(row[j]) for _, row in body))
                for j in range(len(methods))
            ),
        ]
        fmt = "  ".join(f"{{:<{w}}}" for w in widths)
        out.append(fmt.format(*header))
        for name, row in body:
            out.append(fmt.format(name, *row))
        out.append("")
    for err in report.errors:
        out.append(f"ERROR {error_source(err)}: {err['error']}")
    return "\n".join(out).rstrip() + "\n"


def render_csv_tables(report: EvalReport, methods=METHOD_IDS,
                      classifiers=CLASSIFIER_IDS) -> str:
    """Chart-ready CSV: dataset,classifier,<method columns>."""
    lines = ["dataset,classifier," + ",".join(methods)]
    for dataset in report.datasets():
        for name, row in _table_cells(report, dataset, methods, classifiers):
            lines.append(f"{dataset},{name}," + ",".join(row))
    return "\n".join(lines) + "\n"
