"""Built-in classifiers, stratified k-fold cross-validation and the
benchmark runner that assembles dataset x method x classifier accuracy
tables.

The three classifiers (Gaussian naive Bayes, k-NN, a discrete decision
table) stand in for the Weka lineup.  Each is a fit function in
``CLASSIFIERS`` with one signature, ``fit(train, prep=None, *, strategy,
bins)``, that ignores the options it has no use for.  ``train`` is a
``FoldStack`` (the training rows of folds of one training size, stacked)
or a labelled ``DataTable``, fit as a stack of one fold by the same code.
The frozen model's ``predict_codes`` labels a folds x rows x attributes
stack of test rows with one set of array operations, and ``predict(rows)``
one fold's test matrix.  Every model takes its input by one rule: a
matrix or a stack, with the attribute and fold counts of the fit and
every cell finite, else a ``ValueError`` names the count or the cell.
``prep`` holds the rows the fold-level preprocessing (k-NN's z-score
scaling, the decision table's cut points) is fit on: each fold's training
rows when None, and every row only under the leaky global-prep variant.
Models fit on class codes and answer in them, so folds compare integers,
not strings; a class without training rows in a fold is never predicted
there.  ``cross_validate`` hands the classifier each run of consecutive
folds of one training size as one stack of at most ``BLOCK_CELLS``
training cells; the results are those of one model per fold, bit for bit,
and a fault is the lowest failing fold's.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from operator import index

import numpy as np

from .dataset import (
    DataTable,
    DatasetError,
    FeatureSubset,
    Registry,
    apply_cut_points,
    check_binning,
    class_codes,
    fit_cut_points,
    project,
)
from .roughset import group_ids
from .selectors import METHOD_IDS, SelectorConfig, select

__all__ = [
    "FoldPlan",
    "FoldStack",
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
KNN_GROUP = 8       # training rows per group whose minimum bounds k-NN's k-th distance


@dataclass(frozen=True)
class FoldPlan:
    """Deterministic stratified fold assignment for one dataset."""

    seed: int
    k: int
    assignments: tuple[int, ...]
    _folds: np.ndarray = field(init=False, repr=False, compare=False)
    _tests: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Every fold must hold test rows and leave training rows, so no
        # fold is scored on nothing and no model is fit on nothing.
        check_cv_settings(self.k, self.seed)
        # a float assignment is refused, never truncated
        folds = np.fromiter(map(index, self.assignments), int, len(self.assignments))
        if ((folds < 0) | (folds >= self.k)).any():
            raise ValueError(f"fold assignments must lie in [0, {self.k})")
        sizes = np.bincount(folds, minlength=self.k)
        if not sizes.all():
            raise ValueError(f"fold {int(np.argmin(sizes))} has no objects")
        # each fold's test rows, built once: they partition the objects, so
        # they take n indices in all (the training rows would take k * n)
        tests = tuple(np.flatnonzero(folds == fold) for fold in range(self.k))
        for idx in (folds, *tests):
            idx.flags.writeable = False
        object.__setattr__(self, "_folds", folds)
        object.__setattr__(self, "_tests", tests)

    def fold_indices(self, fold: int) -> np.ndarray:
        return self._tests[self._check_fold(fold)]

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self._folds != self._check_fold(fold))

    def _check_fold(self, fold: int) -> int:
        if not 0 <= index(fold) < self.k:
            raise ValueError(f"fold must lie in [0, {self.k}), got {fold}")
        return fold


def check_cv_settings(folds: int, seed: int) -> None:
    """The run-wide rule for cross-validation settings: an integer count
    of at least 2 folds and a non-negative integer fold seed (a float is a
    ``TypeError``, never truncated).  Whether there are enough objects for
    the folds only a loaded table can tell (``make_fold_plan``)."""
    if index(folds) < 2:
        raise ValueError(f"fold count must be >= 2, got {folds}")
    if index(seed) < 0:
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
    _, classes, codes = class_codes(labels)
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

# Cap on the cells of every batched array in this module, so memory stays
# bounded whatever the table size: a fold stack's training cells (folds x
# training rows x attributes), a k-NN block's distances (folds x block rows
# x training rows) and the exact-distance broadcasts of k-NN's refine step
# (sub-block rows x most candidates x attributes).  Each holds at most this
# many cells, or one fold or one row.
BLOCK_CELLS = 2 ** 16


@dataclass(frozen=True)
class FoldStack:
    """The training rows of folds of one training size, stacked: ``values``
    is folds x rows x attributes and ``y`` folds x rows of codes into
    ``classes``.  A table fit on its own is a stack of one fold."""

    values: np.ndarray
    y: np.ndarray
    classes: tuple[str, ...]


def _fold_stack(train, who: str) -> FoldStack:
    if isinstance(train, FoldStack):
        return train
    if train.labels is None:
        raise ValueError(f"{who} needs labeled training data")
    return FoldStack(values=train.values[None], y=train.y[None], classes=train.classes)


def _row_counts(codes: np.ndarray, n_classes: int) -> np.ndarray:
    """Rows x classes: how often each class occurs in each row of a matrix
    of class codes."""
    offsets = n_classes * np.arange(len(codes))[:, None]
    return np.bincount((codes + offsets).ravel(),
                       minlength=len(codes) * n_classes).reshape(-1, n_classes)


@dataclass(frozen=True)
class _Model:
    classes: tuple[str, ...]        # the training table's sorted classes

    def predict(self, rows) -> list[str]:
        """Class labels of the rows, from their ``predict_codes``."""
        return [self.classes[c] for c in self.predict_codes(rows).tolist()]

    def predict_codes(self, rows) -> np.ndarray:
        """Class codes of a stack of test rows, folds x rows x attributes
        (one slice per fitted fold), as folds x rows; a model of one fold
        also takes a rows x attributes matrix and gives one code per row.

        The input rule of every model: the attribute and fold counts are
        those of the fit, and every cell is finite.  A ``ValueError`` names
        the wrong count or the first bad cell (1-based).
        """
        rows = np.asarray(rows, dtype=float)
        if rows.ndim not in (2, 3):
            raise ValueError("predict takes a rows x attributes matrix or a folds x rows x "
                             f"attributes stack, not {rows.ndim}-D input")
        stack = rows if rows.ndim == 3 else rows[None]
        folds, d = self._fit_shape
        if stack.shape[2] != d:
            raise ValueError(f"test rows of {stack.shape[2]} attributes; "
                             f"the model was fit on {d}")
        if len(stack) != folds:
            raise ValueError(f"test rows for {len(stack)} folds; the model was fit on {folds}")
        finite = np.isfinite(stack)
        if not finite.all():
            fold, row, col = np.argwhere(~finite)[0]
            where = f"fold {fold + 1}, " if rows.ndim == 3 else ""
            raise ValueError(f"cannot label {where}row {row + 1}, column {col + 1}: "
                             f"it holds {stack[fold, row, col]}")
        predicted = self._predict_stack(stack)
        return predicted if rows.ndim == 3 else predicted[0]


@dataclass(frozen=True)
class NbModel(_Model):
    order: np.ndarray       # fold x class: codes with training rows first, each part sorted
    log_priors: np.ndarray  # fold x class, in order; -inf for a class without rows
    means: np.ndarray       # fold x class x attr, in order
    variances: np.ndarray   # fold x class x attr, in order, floored

    @property
    def _fit_shape(self) -> tuple[int, int]:
        return self.means.shape[0], self.means.shape[2]

    def _predict_stack(self, rows: np.ndarray) -> np.ndarray:
        """argmax of log prior + summed log normal densities; ties resolve
        to the lexicographically first class (classes are stored sorted).
        A class without training rows has a log prior of -inf and sits
        after those with rows, so it never wins."""
        rows = rows[:, :, None, :]                          # fold x row x 1 x attr
        variances = self.variances[:, None]
        ll = self.log_priors[:, None, :] - 0.5 * np.sum(
            np.log(2.0 * np.pi * variances) + (rows - self.means[:, None]) ** 2 / variances,
            axis=3,
        )
        return np.take_along_axis(self.order, np.argmax(ll, axis=2), axis=1)


def gaussian_nb_fit(train, prep=None, *, strategy="eqfreq", bins=3) -> NbModel:
    """Class priors plus per-class, per-attribute normal densities, for
    the classes that have training rows, fit on a ``DataTable`` or on every
    fold of a ``FoldStack``.

    The folds holding a class equally often share one stacked mean and
    variance; a stacked reduction over the row axis gives each fold the
    bits of its own.  A class a fold lacks borrows the statistics of the
    fold's first class with rows, so no new overflow can arise from it.
    """
    stack = _fold_stack(train, "gaussian naive Bayes")
    values, y = stack.values, stack.y
    folds, n, d = values.shape
    counts = _row_counts(y, len(stack.classes))
    means = np.empty(counts.shape + (d,))
    variances = np.empty(counts.shape + (d,))
    for code in np.flatnonzero(counts.any(axis=0)):
        for size in np.unique(counts[:, code]):
            if size:
                same = np.flatnonzero(counts[:, code] == size)
                rows = values[same][y[same] == code].reshape(len(same), size, d)
                means[same, code] = rows.mean(axis=1)
                variances[same, code] = np.maximum(rows.var(axis=1), VARIANCE_FLOOR)
    order = np.argsort(counts == 0, axis=1, kind="stable")
    fold, empty = np.nonzero(counts == 0)
    means[fold, empty] = means[fold, order[fold, 0]]
    variances[fold, empty] = variances[fold, order[fold, 0]]
    with np.errstate(divide="ignore"):      # log 0 = -inf: a class without rows never wins
        log_priors = np.log(np.take_along_axis(counts, order, axis=1) / n)
    return NbModel(
        classes=stack.classes,
        order=order,
        log_priors=log_priors,
        means=np.take_along_axis(means, order[:, :, None], axis=1),
        variances=np.take_along_axis(variances, order[:, :, None], axis=1),
    )


@dataclass(frozen=True)
class KnnModel(_Model):
    mean: np.ndarray                # fold x attr
    std: np.ndarray                 # fold x attr
    scaled: np.ndarray              # every fold's z-scored training rows b, fold after
                                    # fold, in float64: the refine step's exact distances
    filter_rows: np.ndarray         # the same rows as [b | fl|b|^2 | 1] in float32, the
                                    # filter's; fl|b|^2 is b's float64 squared norm
    train_sq: np.ndarray            # fold -> its largest float64 fl|b|^2
    codes: np.ndarray               # training row -> index into classes
    k: int

    @property
    def _fit_shape(self) -> tuple[int, int]:
        return self.mean.shape

    def _predict_stack(self, rows: np.ndarray) -> np.ndarray:
        """Majority vote among the k nearest training rows of each test
        row's fold (z-scored space).

        Distance ties go to the lower training index (the order of a stable
        argsort), vote ties to the class of the nearest tied row; the
        distance is the root of the summed squared differences.

        Test rows are filtered in blocks of at most ``BLOCK_CELLS`` folds x
        block rows x training rows, so memory is bounded per block rather
        than growing with the test size.  A block holds as many of a fold's
        rows as fit (one when a single row exceeds the cap), and then as
        many folds as fit, so each fold's matrix product covers as many
        rows as it can.  The filter (``_candidates``) keeps, for each test
        row, the training rows within a rounding bound of an upper bound on
        its approximate k-th distance: the k-th smallest of its minima over
        groups of about ``KNN_GROUP`` training rows, all from one batched
        float32 matrix product.  The refine step (``_refine_batch``) then
        decides by the exact float64 distances of the candidates alone, as
        they would over every training row of the fold.  It takes the
        candidates of consecutive blocks together, up to ``BLOCK_CELLS``
        rows x most candidates x attributes, and splits a block that alone
        passes the cap into sub-blocks of at most that many cells, or one
        row.
        """
        folds, t, d = rows.shape
        scaled_rows = (rows - self.mean[:, None]) / self.std[:, None]
        # [-2a | 1 | fl|a|^2] in float32, whose product with [b | fl|b|^2 | 1]
        # is |a|^2 + |b|^2 - 2a.b
        queries = np.empty((folds, t, d + 2), dtype=np.float32)
        with np.errstate(over="ignore"):    # past float32's range every row is a candidate
            test_sq = np.sum(scaled_rows ** 2, axis=2)
            np.multiply(scaled_rows, -2.0, out=queries[..., :d])
            queries[..., d + 1] = test_sq
        queries[..., d] = 1.0
        n = len(self.scaled) // folds
        step = max(1, min(t, BLOCK_CELLS // n))             # rows of one fold
        fold_step = max(1, BLOCK_CELLS // (step * n))
        # Every block reuses one folds x block rows x training rows array: a
        # fresh one would cost page faults each time malloc hands it back.
        work = np.empty((min(fold_step, folds), step, n), dtype=np.float32)
        # A block is whole folds or rows of one fold (fold_step is 1 when
        # step < t), so the blocks come in the row order of the flat stack.
        flat = scaled_rows.reshape(-1, d)
        predicted = np.empty(folds * t, dtype=np.intp)
        # rows refined; blocks pending, their rows and most candidates
        done, batch, held, most = 0, [], 0, 0
        for first in range(0, folds, fold_step):
            for start in range(0, t, step):
                counts, cols = self._candidates(
                    queries[first:first + fold_step, start:start + step],
                    test_sq[first:first + fold_step, start:start + step], first, work)
                if batch and (held + len(counts)) * max(most, counts.max()) * d > BLOCK_CELLS:
                    predicted[done:done + held] = self._refine_batch(flat[done:done + held], batch)
                    done, batch, held, most = done + held, [], 0, 0
                batch.append((counts, cols))
                held += len(counts)
                most = max(most, counts.max())
        if batch:
            predicted[done:] = self._refine_batch(flat[done:], batch)
        return predicted.reshape(folds, t)

    def _candidates(self, block: np.ndarray, block_sq: np.ndarray, first: int,
                    work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The filter step of one block of float32 test rows [-2a | 1 |
        fl|a|^2], folds x block rows from fold ``first`` on, after the
        multi-step k-NN search of Seidl and Kriegel (SIGMOD 1998): each
        row's candidate count, and the candidates' training indices, row
        after row, each row's in training-index order.  A training index
        runs over the rows of every fold, fold after fold.  ``block_sq``
        holds the block rows' float64 squared norms fl|a|^2 and ``work`` is
        a float32 array of at least folds x block rows x training rows.

        A row's candidates are the training rows within a rounding bound
        of its group bound g, the k-th smallest of its group minima.  The
        fold's n training rows fall into m = max(k, n // ``KNN_GROUP``)
        groups: group j holds rows j, j + m, j + 2m, ... below n // m * m,
        and row n // m * m + j if that is below n.  A group's minimum is
        its least G (below), so each row partitions m minima, not n
        distances.

        Why the candidates hold every row the exact search can pick.  Let
        u = 2^-24, float32's unit roundoff, and gamma_n = nu/(1 - nu); a
        dot product of length n, summed in any order, is off by at most
        gamma_n sum|x_i y_i|, and gamma_j + gamma_k + gamma_j gamma_k <=
        gamma_{j+k} (Higham, Accuracy and Stability of Numerical
        Algorithms, 2nd ed., 2002, sections 3.1 and 3.4).  For d < 2^23 - 8,
        which gamma_{2d+16} needs, float64 roundings of up to d + 2 steps
        cost at most gamma_1 together, as (d + 2)2^-53 < u.  For a test
        row a and training row b of d attributes, z-scored in float64, let
        T = |a|^2 + |b|^2, D = |a - b|^2 in exact arithmetic, G the float32
        product of [-2a | 1 | fl|a|^2] and [b | fl|b|^2 | 1], every entry
        rounded to float32 from float64, and Q the float64 sum of squares
        the exact path takes the root of.

        - Filter: rounding costs each entry of a and b u, and each norm,
          gamma_1 in float64, gamma_2; the product of length d + 2 adds
          gamma_{d+2}.  So G sums the terms -2a_i b_i, |a|^2 and |b|^2,
          each off by a relative gamma_{d+4}, and since 2 sum|a_i b_i| <= T
          they sum in magnitude to at most 2T: |G - D| <= 2 gamma_{d+4} T.
        - Exact path: a difference, a square and d - 1 additions per
          term, so |Q - D| <= gamma_1 D <= 2 gamma_1 T, and with the filter
          |G - Q| <= 2 gamma_{d+5} T.
        - Root: two squares whose float64 roots round to one value differ
          by at most gamma_1 times the smaller, and no Q exceeds
          2T(1 + gamma_1).
        - Underflow: a float32 value below the smallest normal, 2^-126, is
          off by at most that much, whether underflow is gradual or flushes
          to zero.  G carries at most 4d + 3 such errors, an entry's scaled
          by the other factor; where (d + 2)2^-126 <= u^2 S (S below), they
          move G by less than uS/2 together, and float64's own underflow
          far less.

        Let S = max fl|a|^2 + max fl|b|^2 over one fold of the block, in
        float64, so T <= (1 + gamma_1)S for every pair of that fold, and
        let g be the group bound of a test row.  The k groups whose minima
        are at most g are disjoint, so k distinct rows s have G_s <= g, and
        g is at least the k-th smallest G (it is that G when each row is a
        group of its own).  A row r among the k nearest by the exact roots
        has a root at most that of one of them, so Q_r <= (1 + gamma_1)Q_s,
        and G_r <= g + |G_r - Q_r| + (Q_r - Q_s) + |Q_s - G_s|, which is at
        most g + 4 gamma_{d+7} S + uS.  So tol = gamma_{2d+16} S, taken per
        fold, covers it twice over: 2 gamma_{2d+16} >= 4 gamma_{d+8} >=
        4 gamma_{d+7} + 4u, and the spare 3uS absorbs the float64 rounding
        of tol and of g + 2 tol.  That float64 limit is cast to the nearest
        float32 for the compare, which loses nothing: a float32 G is at or
        under the limit exactly when it is at or under the limit rounded
        down to float32, and the nearest is that or the next float32 up.  A
        larger tol only adds candidates, so it never changes a label.

        These bounds need float32's range.  In a fold with 4S past float32's
        largest finite value, which also catches every fold with a
        non-finite G (|G| <= 2T(1 + gamma_{d+4}) elsewhere), or with
        (d + 2)2^-126 > u^2 S, every training row is a candidate, whatever
        its product gave.
        """
        folds, b, width = block.shape
        n = len(self.scaled) // len(self.mean)
        train = self.filter_rows[first * n:(first + folds) * n].reshape(folds, n, width)
        approx = work[:folds, :b]
        m = max(self.k, n // KNN_GROUP)
        whole = n // m * m
        tail = n - whole                    # < m: leftover row j joins group j
        u = 2.0 ** -24
        nu = (2 * (width - 2) + 16) * u
        gamma = nu / (1 - nu) if nu < 1 else np.inf         # gamma_{2d+16}
        # a fold out of float32's range runs the product too, and ignores it
        with np.errstate(over="ignore", invalid="ignore"):
            scale = block_sq.max(axis=1) + self.train_sq[first:first + folds]      # S
            np.matmul(block, train.transpose(0, 2, 1), out=approx)  # |a|^2 + |b|^2 - 2a.b
            lows = approx[..., :whole].reshape(folds, b, -1, m).min(axis=2)
            np.minimum(lows[..., :tail], approx[..., whole:], out=lows[..., :tail])
            lows.partition(self.k - 1, axis=2)
            limit = lows[:, :, self.k - 1:self.k] + 2.0 * (gamma * scale)[:, None, None]
            candidates = approx <= limit.astype(np.float32)
        in_range = ((scale <= float(np.finfo(np.float32).max) / 4)
                    & (width * 2.0 ** -126 <= u * u * scale))
        candidates[~in_range] = True
        row, col = np.divmod(np.flatnonzero(candidates), n)
        col += (row // b + first) * n
        return np.bincount(row, minlength=folds * b), col

    def _refine_batch(self, rows: np.ndarray, batch) -> np.ndarray:
        """Class codes of the z-scored test rows of consecutive blocks, from
        each block's (candidate counts, candidates) pair of ``_candidates``."""
        counts = np.concatenate([counts for counts, _ in batch])
        m = counts.max()
        # each row's candidates in training-index order, padded at the end
        filled = np.arange(m) < counts[:, None]
        idx = np.zeros((len(rows), m), dtype=np.intp)
        idx[filled] = np.concatenate([cols for _, cols in batch])
        step = max(1, BLOCK_CELLS // (m * rows.shape[1]))
        return np.concatenate([
            self._refine(rows[start:start + step], idx[start:start + step],
                         filled[start:start + step])
            for start in range(0, len(rows), step)
        ])

    def _refine(self, rows: np.ndarray, idx: np.ndarray, filled: np.ndarray) -> np.ndarray:
        """Class codes of z-scored test rows from exact distances to their
        candidates.  Row i's candidates are ``idx[i][filled[i]]``, in
        training-index order, and include every training row at or under
        its k-th distance; the padding after them is infinitely far.  The
        distances stay roots, so squares that round to one root tie as they
        do row by row, and one stable sort ranks the candidates as a stable
        argsort over every training row would."""
        # a distance past the largest float is inf, as it is row by row
        with np.errstate(over="ignore"):
            dist = np.sqrt(((self.scaled[idx] - rows[:, None, :]) ** 2).sum(axis=2))
        dist[~filled] = np.inf
        order = np.argsort(dist, axis=1, kind="stable")[:, :self.k]
        nearest = self.codes[np.take_along_axis(idx, order, axis=1)]
        votes = _row_counts(nearest, len(self.classes))
        top = np.take_along_axis(votes, nearest, axis=1) == votes.max(axis=1, keepdims=True)
        return nearest[np.arange(len(rows)), np.argmax(top, axis=1)]


def knn_fit(train, prep=None, *, strategy="eqfreq", bins=3, knn_k=KNN_K) -> KnnModel:
    """Store the training rows z-scored with the mean and std of prep, for
    a ``DataTable`` or every fold of a ``FoldStack``: in float64 for the
    refine step (``KnnModel.scaled``), and in float32 with each row's
    squared norm and a one for the filter (``KnnModel.filter_rows``).  A
    stacked mean and std over the row axis give each fold the bits of its
    own, and a fault is that of the lowest fold that has one."""
    stack = _fold_stack(train, "k-NN")
    folds, n, d = stack.values.shape
    if not 1 <= knn_k <= n:
        raise ValueError(f"k={knn_k} out of range for {n} training rows")
    prep = stack.values if prep is None else prep
    mean = prep.mean(axis=-2)
    std = prep.std(axis=-2, ddof=1) if prep.shape[-2] > 1 else np.ones(d)
    std = np.where(std == 0, 1.0, std)
    overflow = ~(np.isfinite(mean) & np.isfinite(std))
    if overflow.any():
        raise ValueError(f"k-NN cannot z-score attribute {np.argmax(overflow) % d + 1}: "
                         "its mean or spread overflows")
    mean, std = np.broadcast_to(mean, (folds, d)), np.broadcast_to(std, (folds, d))
    scaled = (stack.values - mean[:, None]) / std[:, None]
    filter_rows = np.empty((folds, n, d + 2), dtype=np.float32)
    with np.errstate(over="ignore"):    # past float32's range every row is a candidate
        train_sq = np.sum(scaled ** 2, axis=2)
        filter_rows[..., :d] = scaled
        filter_rows[..., d] = train_sq
    filter_rows[..., d + 1] = 1.0
    # votes come from training rows only, so a class without rows never wins
    return KnnModel(mean=mean, std=std, scaled=scaled.reshape(folds * n, d),
                    filter_rows=filter_rows.reshape(folds * n, d + 2),
                    train_sq=train_sq.max(axis=1), classes=stack.classes,
                    codes=stack.y.ravel(), k=knn_k)


@dataclass(frozen=True)
class DecisionTableModel(_Model):
    cuts: np.ndarray                # fold x attr x cut, fit on prep
    binned: np.ndarray              # fold x training row x attr, binned with cuts
    codes: np.ndarray               # fold x training row -> index into classes

    @property
    def _fit_shape(self) -> tuple[int, int]:
        return self.cuts.shape[:2]

    def _predict_stack(self, rows: np.ndarray) -> np.ndarray:
        """The majority class of the fold's training rows binned like each
        row (ties: the smallest class), else the fold's training majority.
        One ``group_ids`` call groups every fold, keyed by fold first."""
        folds, n, d = self.binned.shape
        n_classes = len(self.classes)
        # fold x (training rows, then test rows) x [fold | binned row], in one array
        keys = np.empty((folds, n + rows.shape[1], d + 1), dtype=self.binned.dtype)
        keys[..., 0] = np.arange(folds)[:, None]
        keys[:, :n, 1:] = self.binned
        keys[:, n:, 1:] = apply_cut_points(rows, self.cuts)
        ids = group_ids(keys.reshape(-1, d + 1)).reshape(folds, -1)
        votes = np.bincount((ids[:, :n] * n_classes + self.codes).ravel(),
                            minlength=(ids.max() + 1) * n_classes).reshape(-1, n_classes)
        # classes are sorted, so argmax's first maximum is the smallest class;
        # votes come from training rows only, so a class without rows never wins
        test = ids[:, n:]
        fallback = _row_counts(self.codes, n_classes).argmax(axis=1)
        return np.where(votes.any(axis=1)[test], votes.argmax(axis=1)[test], fallback[:, None])


def decision_table_fit(train, prep=None, *, strategy="eqfreq",
                       bins=3) -> DecisionTableModel:
    """Bin with cut points fit on prep and keep the binned training rows,
    for a ``DataTable`` or every fold of a ``FoldStack``."""
    stack = _fold_stack(train, "decision table")
    folds, _, d = stack.values.shape
    cuts = fit_cut_points(stack.values if prep is None else prep, strategy, bins)
    cuts = np.broadcast_to(cuts, (folds, d, cuts.shape[-1]))
    return DecisionTableModel(cuts=cuts, classes=stack.classes,
                              binned=apply_cut_points(stack.values, cuts), codes=stack.y)


CLASSIFIERS = {"nb": gaussian_nb_fit, "knn": knn_fit, "dtable": decision_table_fit}
CLASSIFIER_IDS = tuple(CLASSIFIERS)


# ---------------------------------------------------------------------------
# Cross-validation

@dataclass(frozen=True)
class CvResult:
    accuracy: float                      # percent over all test predictions
    fold_accuracies: tuple[float, ...]   # percent per fold
    fold_sizes: tuple[int, ...]


def _fold_runs(sizes: list[int], n_objects: int, n_attrs: int):
    """The folds as runs of consecutive folds with one test size, hence one
    training size, each cut to at most ``BLOCK_CELLS`` training cells or
    one fold."""
    start = 0
    for fold in range(1, len(sizes) + 1):
        if (fold == len(sizes) or sizes[fold] != sizes[start]
                or (fold - start + 1) * (n_objects - sizes[start]) * n_attrs > BLOCK_CELLS):
            yield range(start, fold)
            start = fold


def cross_validate(table: DataTable, subset: FeatureSubset, classifier: str,
                   plan: FoldPlan, *, strategy: str = "eqfreq", bins: int = 3,
                   global_prep: bool = False) -> CvResult:
    """Stratified k-fold accuracy of one classifier on a feature subset.

    Each fold's model is fit on its training rows and predicts its test
    rows.  Consecutive folds of one training size go to the classifier as
    one ``FoldStack``, which it fits and predicts with one set of array
    operations; the stacks are fit in fold order, so a fault is that of the
    lowest fold that has one.  Preprocessing is fit on the training folds
    only; ``global_prep=True`` reproduces the leaky fit-on-everything
    variant for comparison.
    """
    if table.labels is None:
        raise ValueError("cross-validation needs labeled data")
    check_ids([classifier], CLASSIFIER_IDS)
    if len(plan.assignments) != table.n_objects:
        raise ValueError(
            f"fold plan assigns {len(plan.assignments)} objects, "
            f"table has {table.n_objects}"
        )
    check_binning(strategy, bins)
    fit = CLASSIFIERS[classifier]
    projected = project(table, subset)
    values, y = projected.values, projected.y
    test_idx = [plan.fold_indices(fold) for fold in range(plan.k)]
    sizes = [len(idx) for idx in test_idx]
    corrects = []
    for run in _fold_runs(sizes, table.n_objects, projected.n_attrs):
        train = np.array([plan.train_indices(fold) for fold in run])
        test = np.array([test_idx[fold] for fold in run])
        model = fit(FoldStack(values=values[train], y=y[train], classes=projected.classes),
                    values if global_prep else None, strategy=strategy, bins=bins)
        corrects += np.count_nonzero(model.predict_codes(values[test]) == y[test],
                                     axis=1).tolist()
    return CvResult(
        accuracy=100.0 * sum(corrects) / table.n_objects,
        fold_accuracies=tuple(100.0 * c / size for c, size in zip(corrects, sizes)),
        fold_sizes=tuple(sizes),
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
        """The report of ``to_json`` text.  Its config must name the
        datasets, methods and classifiers the run covered, as ``check_ids``
        takes them, and each row and error must hold the fields the
        renderers show and name a dataset the config lists.  A row's
        accuracy is a finite number in [0, 100], its method and classifier
        are listed in the config, and no two rows share a (dataset, method,
        classifier) cell.  An error of a (dataset, method) names a method
        the config lists.  A ``ValueError`` names the first entry that
        breaks a rule."""
        d = json.loads(text)
        _check_fields("report", d, {"config": dict, "rows": list, "errors": list})
        _check_fields("report config", d["config"],
                      {"datasets": list, "methods": list, "classifiers": list})
        check_ids(d["config"]["datasets"])
        check_ids(d["config"]["methods"], METHOD_IDS)
        check_ids(d["config"]["classifiers"], CLASSIFIER_IDS)
        for name, fields in _ENTRY_FIELDS.items():
            for i, entry in enumerate(d[name]):
                _check_fields(f"report {name}[{i}]", entry, fields)
                if entry["dataset"] not in d["config"]["datasets"]:
                    raise ValueError(f"report {name}[{i}] has a dataset its config lacks")
        cells = {}
        for i, row in enumerate(d["rows"]):
            cell = (row["dataset"], row["method"], row["classifier"])
            if isinstance(row["accuracy"], bool) or not 0 <= row["accuracy"] <= 100:
                raise ValueError(f"report rows[{i}] lacks a valid 'accuracy' in [0, 100]")
            if cell[1] not in d["config"]["methods"] or cell[2] not in d["config"]["classifiers"]:
                raise ValueError(f"report rows[{i}] has a method or classifier its config lacks")
            if cells.setdefault(cell, i) != i:
                raise ValueError(f"report rows[{i}] repeats the cell of rows[{cells[cell]}]")
        for i, err in enumerate(d["errors"]):
            if "method" in err and err["method"] not in d["config"]["methods"]:
                raise ValueError(f"report errors[{i}] has a method its config lacks")
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
    A dataset whose load raises a ``DatasetError`` or ``ValueError`` (a
    file that cannot be read, a cell the loader refuses, no labels) is
    recorded as an error of that dataset; a method that fails on it, in
    selection or in any classifier, as an error of that (dataset, method)
    with none of its rows kept.  The rest of the run continues either way.
    Settings that ``check_cv_settings`` or ``check_ids`` reject raise
    ``ValueError`` before any dataset loads.
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
        rows = [header] + [[name, *cells] for name, cells in body]
        widths = [max(map(len, column)) for column in zip(*rows)]
        fmt = "  ".join(f"{{:<{w}}}" for w in widths)
        out += [fmt.format(*row) for row in rows]
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
