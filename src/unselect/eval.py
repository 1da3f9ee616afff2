"""Built-in classifiers, stratified k-fold cross-validation and the
benchmark runner that assembles dataset x method x classifier accuracy
tables.

The three classifiers (Gaussian naive Bayes, k-NN, a discrete decision
table) stand in for the Weka lineup.  Each is a fit function in
``CLASSIFIERS`` with one signature, ``fit(train, prep=None, *, strategy,
bins)``, that ignores the options it has no use for and returns a frozen
model whose ``predict(rows)`` labels a whole test matrix.  ``prep``
holds the rows the fold-level preprocessing (k-NN's z-score scaling, the
decision table's cut points) is fit on: the training rows when None, and
every row only under the leaky global-prep variant.  Models fit on class
codes (``train.y``) and ``predict_codes`` answers in them, so folds compare
integers, not strings; a class without training rows is never predicted.
The decision table groups binned rows by ``roughset.group_ids``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

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
from .roughset import group_ids
from .selectors import METHOD_IDS, SelectorConfig, select

__all__ = [
    "FoldPlan",
    "make_fold_plan",
    "check_cv_settings",
    "check_ids",
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

KNN_K = 3           # neighbours voting in k-NN; only knn_fit itself takes another k


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
        check_cv_settings(self.k, self.seed)
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


def check_cv_settings(folds: int, seed: int) -> None:
    """The run-wide rule for cross-validation settings: at least 2 folds
    and a non-negative fold seed.  Whether there are enough objects for the
    folds only a loaded table can tell (``make_fold_plan``)."""
    if folds < 2:
        raise ValueError(f"fold count must be >= 2, got {folds}")
    if seed < 0:
        raise ValueError(f"fold seed must be >= 0, got {seed}")


def check_ids(ids, valid=None) -> None:
    """The run-wide rule for a list of dataset, method or classifier ids:
    each one of ``valid`` when that is given, and none given twice."""
    for pos, i in enumerate(ids):
        if valid is not None and i not in valid:
            raise ValueError(f"unknown id {i!r}; valid: {', '.join(valid)}")
        if i in ids[:pos]:
            raise ValueError(f"duplicate id {i!r}")


def make_fold_plan(labels, k: int, seed: int) -> FoldPlan:
    """Assign objects to k folds, stratified by class.

    Within each class the shuffled members are dealt round-robin; the
    dealing position carries over between classes so overall fold sizes
    also differ by at most one.  Fully determined by (seed, k, labels).
    """
    classes, codes = np.unique(np.array([str(y) for y in labels], dtype=object),
                               return_inverse=True)
    n = len(codes)
    check_cv_settings(k, seed)
    if k > n:
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


def gaussian_nb_fit(train: DataTable, prep=None, *, strategy="eqfreq", bins=3) -> NbModel:
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


# Cap on block rows x training rows in one k-NN block, so prediction
# memory stays bounded whatever the test size.  The broadcasts of exact
# distances (sub-block rows x most candidates x attributes) stay under the
# same cap, or hold one row.
KNN_BLOCK_CELLS = 2 ** 16


@dataclass(frozen=True)
class KnnModel(_Model):
    mean: np.ndarray
    std: np.ndarray
    scaled: np.ndarray              # training rows, z-scored
    sq_norms: np.ndarray            # squared norm of each scaled training row
    codes: np.ndarray               # training row -> index into classes
    k: int

    def predict_codes(self, rows) -> np.ndarray:
        """Majority vote among the k nearest training rows (z-scored space).

        Distance ties go to the lower training index (the order of a stable
        argsort), vote ties to the class of the nearest tied row; the
        distance is the root of the summed squared differences.  A row
        holding NaN has no distance and is rejected.

        Test rows are labelled in blocks of at most ``KNN_BLOCK_CELLS``
        block rows x training rows (one row when a single row exceeds it),
        so memory is bounded per block rather than growing with the test
        size.  Each block is filtered, then refined (``_predict_block``):
        one matrix product gives approximate squared distances, the
        training rows within a rounding bound of each row's approximate
        k-th distance become its candidates, and the exact distances of the
        candidates alone decide, as they would over every training row.  In
        a block whose distances could overflow every training row is a
        candidate.  The refine step works in sub-blocks of at most
        ``KNN_BLOCK_CELLS`` rows x most candidates x attributes, or one row.
        """
        rows = np.asarray(rows, dtype=float)
        nan_rows = np.flatnonzero(np.isnan(rows).any(axis=1))
        if len(nan_rows):
            raise ValueError(f"k-NN cannot label row {nan_rows[0] + 1}: it holds NaN")
        scaled_rows = (rows - self.mean) / self.std
        step = max(1, KNN_BLOCK_CELLS // len(self.scaled))
        # Every block reuses two block rows x training rows arrays: fresh
        # ones would cost page faults each time malloc hands them back.
        work = np.empty((2, min(step, len(rows)), len(self.scaled)))
        predicted = np.empty(len(scaled_rows), dtype=np.intp)
        for start in range(0, len(scaled_rows), step):
            block = scaled_rows[start:start + step]
            predicted[start:start + step] = self._predict_block(block, work)
        return predicted

    def _predict_block(self, block: np.ndarray, work: np.ndarray) -> np.ndarray:
        """Class codes of one block of z-scored test rows, by filter and
        refine (multi-step k-NN search after Seidl and Kriegel, SIGMOD 1998);
        ``work`` holds two arrays of at least block rows x training rows.

        Why the candidates hold every row the exact search can pick.  Let
        u be the unit roundoff and gamma_n = nu/(1 - nu); a dot product of
        length n, summed in any order, is off by at most gamma_n sum|x_i y_i|
        (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
        2002, section 3.1).  For a test row a and training row b in d
        attributes, let T = |a|^2 + |b|^2, D = |a - b|^2 in exact arithmetic,
        G the Gram-form value |a|^2 + |b|^2 - 2a.b and Q the sum of squares
        the exact path takes the root of.

        - Gram form: |a|^2, |b|^2 and a.b each carry gamma_d (sum|a_i b_i|
          <= T/2), and the addition and subtraction one u each, so
          |G - D| <= gamma_{2d+3} T.
        - Exact path: each term is one difference and one square, and the
          d terms take d - 1 additions, so |Q - D| <= gamma_{d+2} D <=
          2 gamma_{d+2} T.
        - Root: two squares whose roots round to one value differ by at
          most gamma_4 times the smaller, and no Q exceeds
          2T(1 + gamma_{d+2}).

        Let S = max|a|^2 + max|b|^2 over the block, so T <= S for every
        pair up to the rounding of S, and let g be the k-th smallest G of a
        test row.  The k rows with the smallest G have Q <= g + |G - Q|, so
        the k-th exact root is at most the root of that.  A row among the k
        nearest by the exact roots has a root at most the k-th one, so its
        Q exceeds that bound by at most the root term, and its G is at most
        g + 2(gamma_{2d+3} + 2 gamma_{d+2})S + 2 gamma_4 (1 + gamma_{d+2})S.
        Rounding g + 2 tol costs up to u(2S + 2 tol) more.  To first order
        that is g + (8d + 24)uS, so tol = gamma_{4d+16} S covers it; the
        spare 4uS absorbs the second-order terms and the rounding of S and
        of tol.  These bounds need every value finite: D <= 2T, so in a
        block with 4S past the largest float, which also catches every
        block with a non-finite G, every training row is a candidate.
        """
        n, d = self.scaled.shape
        with np.errstate(over="ignore", invalid="ignore"):
            block_sq = (block ** 2).sum(axis=1)
            scale = block_sq.max() + self.sq_norms.max()
        if scale < np.finfo(float).max / 4:
            approx, spare = work[:, :len(block)]
            np.matmul(block, self.scaled.T, out=spare)
            spare *= 2.0
            np.add.outer(block_sq, self.sq_norms, out=approx)
            approx -= spare                             # |a|^2 + |b|^2 - 2a.b
            spare[...] = approx
            spare.partition(self.k - 1, axis=1)
            kth = spare[:, self.k - 1:self.k]
            nu = (4 * d + 16) * np.finfo(float).eps / 2
            tol = nu / (1 - nu) * scale                             # gamma_{4d+16} S
            candidates = approx <= kth + 2.0 * tol
        else:
            candidates = np.ones((len(block), n), dtype=bool)
        row, col = np.divmod(np.flatnonzero(candidates), n)
        counts = np.bincount(row, minlength=len(block))
        m = counts.max()
        # each row's candidates in training-index order, padded at the end
        filled = np.arange(m) < counts[:, None]
        idx = np.zeros((len(block), m), dtype=np.intp)
        idx[filled] = col
        step = max(1, KNN_BLOCK_CELLS // (m * d))
        return np.concatenate([
            self._refine(block[start:start + step], idx[start:start + step],
                         filled[start:start + step])
            for start in range(0, len(block), step)
        ])

    def _refine(self, rows: np.ndarray, idx: np.ndarray, filled: np.ndarray) -> np.ndarray:
        """Class codes of z-scored test rows from exact distances to their
        candidates.  Row i's candidates are ``idx[i][filled[i]]``, in
        training-index order, and include every training row at or under
        its k-th distance; the padding after them is infinitely far.  The
        distances stay roots, so squares that round to one root tie as they
        do row by row, and one stable sort ranks the candidates as a stable
        argsort over every training row would."""
        b, n_classes = len(rows), len(self.classes)
        dist = np.sqrt(((self.scaled[idx] - rows[:, None, :]) ** 2).sum(axis=2))
        dist[~filled] = np.inf
        order = np.argsort(dist, axis=1, kind="stable")[:, :self.k]
        nearest = self.codes[np.take_along_axis(idx, order, axis=1)]
        votes = np.bincount((nearest + n_classes * np.arange(b)[:, None]).ravel(),
                            minlength=b * n_classes).reshape(b, n_classes)
        top = np.take_along_axis(votes, nearest, axis=1) == votes.max(axis=1, keepdims=True)
        return nearest[np.arange(b), np.argmax(top, axis=1)]


def knn_fit(train: DataTable, prep=None, *, strategy="eqfreq", bins=3,
            knn_k=KNN_K) -> KnnModel:
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
    scaled = (train.values - mean) / std
    with np.errstate(over="ignore"):    # an infinite norm makes every row a candidate
        sq_norms = (scaled ** 2).sum(axis=1)
    # votes come from training rows only, so a class without rows never wins
    return KnnModel(mean=mean, std=std, scaled=scaled, sq_norms=sq_norms,
                    classes=train.classes, codes=train.y, k=knn_k)


@dataclass(frozen=True)
class DecisionTableModel(_Model):
    cuts: tuple[np.ndarray, ...]    # per attribute, fit on prep
    binned: np.ndarray              # training rows, binned with cuts
    codes: np.ndarray               # training row -> index into classes

    def predict_codes(self, rows) -> np.ndarray:
        """The majority class of the training rows binned like each row
        (ties: the smallest class), else the training majority."""
        binned = apply_cut_points(np.asarray(rows, dtype=float), self.cuts)
        ids = group_ids(np.vstack([self.binned, binned]), [len(c) + 1 for c in self.cuts])
        n_train, n_classes = len(self.codes), len(self.classes)
        votes = np.bincount(ids[:n_train] * n_classes + self.codes,
                            minlength=(ids.max() + 1) * n_classes).reshape(-1, n_classes)
        # classes are sorted, so argmax's first maximum is the smallest class;
        # votes come from training rows only, so a class without rows never wins
        majority = np.where(votes.any(axis=1), votes.argmax(axis=1), votes.sum(axis=0).argmax())
        return majority[ids[n_train:]]


def decision_table_fit(train: DataTable, prep=None, *, strategy="eqfreq",
                       bins=3) -> DecisionTableModel:
    """Bin with cut points fit on prep and keep the binned training rows."""
    if train.labels is None:
        raise ValueError("decision table needs labeled training data")
    cuts = tuple(fit_cut_points(train.values if prep is None else prep, strategy, bins))
    return DecisionTableModel(cuts=cuts, classes=train.classes,
                              binned=apply_cut_points(train.values, cuts), codes=train.y)


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
                   global_prep: bool = False) -> CvResult:
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
                    strategy=strategy, bins=bins)
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

# The fields of each report row and error that the renderers read.
_ENTRY_FIELDS = {
    "rows": {"dataset": str, "method": str, "classifier": str, "accuracy": (int, float)},
    "errors": {"dataset": str, "error": str},
}


def _check_fields(where: str, entry, fields: dict) -> None:
    for key, kind in fields.items():
        if not (isinstance(entry, dict) and isinstance(entry.get(key), kind)):
            raise ValueError(f"{where} lacks a valid {key!r}")


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
        """The report of ``to_json`` text.  Its config must name the methods
        and classifiers the run covered, and each row and error must hold
        the fields the renderers show; a ``ValueError`` names the first
        entry that does not."""
        d = json.loads(text)
        _check_fields("report", d, {"config": dict, "rows": list, "errors": list})
        _check_fields("report config", d["config"], {"methods": list, "classifiers": list})
        for name, fields in _ENTRY_FIELDS.items():
            for i, entry in enumerate(d[name]):
                _check_fields(f"report {name}[{i}]", entry, fields)
        return cls(rows=d["rows"], errors=d["errors"], config=d["config"])

    def datasets(self):
        return sorted({r["dataset"] for r in self.rows})


def config_fingerprint(resolved: dict) -> str:
    """Stable short hash of every resolved parameter, for traceability."""
    blob = json.dumps(resolved, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _pinned_k(method: str, dataset_name: str, d: int):
    pinned = {"edr": EDR_K, "pca": PCA_K}.get(method)
    return None if pinned is None else min(pinned.get(dataset_name, 4), d)


def run_benchmark(registry: Registry, datasets=None, methods=METHOD_IDS,
                  classifiers=CLASSIFIER_IDS, seed: int = 1, folds: int = 10,
                  cfg: SelectorConfig = SelectorConfig(), missing: str = "reject",
                  global_prep: bool = False) -> EvalReport:
    """Evaluate the full dataset x method x classifier cross product.

    Subsets are selected once per dataset on the full unlabeled data (the
    selectors never see labels), then scored with one shared fold plan.
    A dataset that cannot be loaded is recorded as an error of that
    dataset; a method that fails on it, in selection or in any classifier,
    as an error of that (dataset, method) with none of its rows kept.  The
    rest of the run continues either way.  Settings that ``check_cv_settings``
    or ``check_ids`` reject raise ``ValueError`` before any dataset loads.
    """
    check_cv_settings(folds, seed)
    names = list(datasets) if datasets is not None else registry.names()
    check_ids(names)
    check_ids(methods, METHOD_IDS)
    check_ids(classifiers, CLASSIFIER_IDS)
    base_config = dict(asdict(cfg), seed=seed, folds=folds, knn_k=KNN_K,
                       global_prep=global_prep, missing=missing)
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
                k = _pinned_k(method, dataset_name, table.n_attrs)
                subset = select(table, method, cfg, k)
                results = [
                    cross_validate(table, subset, classifier, plan,
                                   strategy=cfg.strategy, bins=cfg.bins, global_prep=global_prep)
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


def _shown(report: EvalReport):
    """The methods and classifiers of the run, in ``METHOD_IDS`` and
    ``CLASSIFIER_IDS`` order."""
    return ([m for m in METHOD_IDS if m in report.config["methods"]],
            [c for c in CLASSIFIER_IDS if c in report.config["classifiers"]])


def _table_cells(report: EvalReport, dataset: str, methods, classifiers):
    cells = {(row["classifier"], row["method"]): f"{row['accuracy']:.4f}"
             for row in report.rows if row["dataset"] == dataset}
    return [(CLASSIFIER_NAMES[c], [cells.get((c, m), "") for m in methods])
            for c in classifiers]


def render_text_tables(report: EvalReport) -> str:
    """One aligned accuracy table per dataset, the run's classifiers x methods."""
    methods, classifiers = _shown(report)
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


def render_csv_tables(report: EvalReport) -> str:
    """Chart-ready CSV: dataset,classifier,<the run's method columns>."""
    methods, classifiers = _shown(report)
    lines = ["dataset,classifier," + ",".join(methods)]
    for dataset in report.datasets():
        for name, row in _table_cells(report, dataset, methods, classifiers):
            lines.append(f"{dataset},{name}," + ",".join(row))
    return "\n".join(lines) + "\n"
