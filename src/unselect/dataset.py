"""Tabular dataset ingestion, normalization, discretization and subsetting.

Loads numeric CSV files and the numeric-attribute subset of ARFF (enough
for the UCI benchmark files), keeps an optional class-label column aside,
and exposes the preprocessing steps the selectors build on.  All tables
are immutable value objects; every function returns a new table.
"""

from __future__ import annotations

import copy
import csv
import os
import re
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "DataTable",
    "DiscreteTable",
    "FeatureSubset",
    "DatasetError",
    "ParseError",
    "EmptyFileError",
    "load_csv",
    "load_arff",
    "load_table",
    "write_csv",
    "zscore_normalize",
    "discretize",
    "fit_cut_points",
    "apply_cut_points",
    "project",
    "Registry",
    "load_registry",
]


class DatasetError(Exception):
    """Base class for data loading / validation failures."""


class ParseError(DatasetError):
    """A cell or row could not be parsed; carries 1-based row/column info."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class EmptyFileError(DatasetError):
    """The input file contained no data rows."""


@dataclass(frozen=True)
class FeatureSubset:
    """An ordered set of attribute indices (0-based internally).

    The order is the selection order, which is meaningful for greedy
    methods.  All user-facing I/O renders indices 1-based.
    """

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate attribute indices in subset: {idx}")
        if any(i < 0 for i in idx):
            raise ValueError(f"negative attribute index in subset: {idx}")
        object.__setattr__(self, "indices", idx)

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def to_one_based(self) -> str:
        """Render as a 1-based comma list, e.g. ``2,7,8``."""
        return ",".join(str(i + 1) for i in self.indices)

    @classmethod
    def from_one_based(cls, text: str) -> "FeatureSubset":
        """Parse a 1-based comma list such as ``2,7,8``."""
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ValueError("empty feature subset text")
        return cls(tuple(int(p) - 1 for p in parts))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class DataTable:
    """A rectangular numeric dataset with optional class labels.

    ``values`` is an (n objects x d attributes) float matrix; ``labels``,
    when present, holds one class identifier per object and never counts
    as an attribute.  ``classes`` holds the sorted distinct labels and ``y``
    each object's read-only index into them (``()`` and None if unlabeled);
    ``take`` and ``project`` keep the source's ``classes``.
    """

    values: np.ndarray
    attr_names: tuple[str, ...]
    labels: tuple[str, ...] | None = None
    name: str = ""
    classes: tuple[str, ...] = field(init=False, repr=False, compare=False)
    y: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        n, d = values.shape
        if n < 1 or d < 1:
            raise ValueError(f"table must be at least 1x1, got {n}x{d}")
        if not np.all(np.isfinite(values)):
            bad = np.argwhere(~np.isfinite(values))[0]
            raise ValueError(
                f"non-finite value at row {bad[0] + 1}, column {bad[1] + 1}"
            )
        names = tuple(str(a) for a in self.attr_names)
        if len(names) != d:
            raise ValueError(f"{len(names)} attribute names for {d} columns")
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique")
        classes, y = (), None
        if self.labels is not None:
            labels = tuple(str(label) for label in self.labels)
            if len(labels) != n:
                raise ValueError(f"{len(labels)} labels for {n} objects")
            classes = tuple(sorted(set(labels)))
            code = {c: i for i, c in enumerate(classes)}
            y = _freeze(np.fromiter(map(code.__getitem__, labels), np.intp, n))
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", _freeze(values))
        object.__setattr__(self, "attr_names", names)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "y", y)

    @property
    def n_objects(self) -> int:
        return self.values.shape[0]

    @property
    def n_attrs(self) -> int:
        return self.values.shape[1]

    def take(self, rows) -> "DataTable":
        """The table with only the rows at the given (non-empty) indices.

        The rows come from this table, already checked, so none of the
        checks of construction runs again.
        """
        sub = copy.copy(self)
        object.__setattr__(sub, "values", _freeze(self.values[rows]))
        if self.y is not None:
            object.__setattr__(sub, "y", _freeze(self.y[rows]))
            object.__setattr__(sub, "labels", tuple(np.array(self.classes, dtype=object)[sub.y]))
        return sub


@dataclass(frozen=True)
class DiscreteTable:
    """An integer-coded table; cell codes lie in [0, bins_per_attr[j])."""

    codes: np.ndarray
    bins_per_attr: tuple[int, ...]
    attr_names: tuple[str, ...]
    name: str = ""

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int64)
        if codes.ndim != 2:
            raise ValueError(f"codes must be 2-D, got shape {codes.shape}")
        n, d = codes.shape
        if n < 1 or d < 1:
            raise ValueError(f"table must be at least 1x1, got {n}x{d}")
        bins = tuple(int(b) for b in self.bins_per_attr)
        if len(bins) != d:
            raise ValueError(f"{len(bins)} bin counts for {d} columns")
        if any(b < 1 for b in bins):
            raise ValueError("bins_per_attr entries must be positive")
        if codes.min() < 0 or np.any(codes >= np.asarray(bins)):
            raise ValueError("codes out of range for bins_per_attr")
        names = tuple(str(a) for a in self.attr_names)
        if len(names) != d or len(set(names)) != len(names):
            raise ValueError("attribute names must be unique and match columns")
        object.__setattr__(self, "codes", _freeze(codes))
        object.__setattr__(self, "bins_per_attr", bins)
        object.__setattr__(self, "attr_names", names)

    @property
    def n_objects(self) -> int:
        return self.codes.shape[0]

    @property
    def n_attrs(self) -> int:
        return self.codes.shape[1]

    def full_subset(self) -> FeatureSubset:
        return FeatureSubset(tuple(range(self.n_attrs)))


_MISSING_TOKENS = {"", "?", "na", "nan", "n/a"}


def _parse_cell(text, row, col):
    token = text.strip()
    if token.lower() in _MISSING_TOKENS:
        return None
    try:
        return float(token)
    except ValueError:
        raise ParseError(
            f"non-numeric cell {token!r} at row {row}, column {col}",
            row=row,
            column=col,
        ) from None


def _parse_label(text, missing, row, col, path):
    """A class cell; None marks a missing label that the drop policy removes."""
    if text.lower() not in _MISSING_TOKENS:
        return text
    if missing == "drop":
        return None
    raise ParseError(
        f"missing label at row {row}, column {col} of {path} (a label cannot "
        "be imputed; pass missing='drop' to remove the row)",
        row=row,
        column=col,
    )


def _resolve_missing(rows, labels, missing, path, row_numbers, columns):
    """Apply the missing-value policy to parsed rows (None marks a hole).

    ``labels`` is None for an unlabeled file; a None label, which only the
    drop policy lets through, drops its row.  ``row_numbers`` and
    ``columns`` give each data row's file row and each feature's 1-based
    file column, so a rejected hole is reported where it sits in the file.
    Returns the kept values and labels.
    """
    data = np.array(
        [[np.nan if c is None else c for c in r] for r in rows], dtype=float
    )
    holes = np.isnan(data)
    keep = ~holes.any(axis=1)
    if labels is not None:
        keep &= np.array([y is not None for y in labels], dtype=bool)
    if keep.all():
        return data, labels
    if missing == "reject":
        r, c = np.argwhere(holes)[0]
        row, column = row_numbers[r], columns[c]
        raise ParseError(
            f"missing value at row {row}, column {column} of {path} "
            "(pass missing='impute' or missing='drop' to handle it)",
            row=row,
            column=column,
        )
    if missing == "impute":
        for j in range(data.shape[1]):
            col = data[:, j]
            if np.isnan(col).all():
                raise ParseError(f"column {columns[j]} of {path} has no observed "
                                 "values", column=columns[j])
            col[np.isnan(col)] = np.nanmean(col)
        return data, labels
    if missing == "drop":
        if not keep.any():
            raise EmptyFileError(f"every row of {path} has missing values")
        if labels is not None:
            labels = [y for y, k in zip(labels, keep) if k]
        return data[keep], labels
    raise ValueError(f"unknown missing-value policy {missing!r}")


def load_csv(path, has_header=True, label_column=None, missing="reject",
             name=None) -> DataTable:
    """Load a comma-separated numeric file into a DataTable.

    Parameters
    ----------
    path : file path
    has_header : first row holds attribute names when true
    label_column : optional class column, as a 0-based index or header name
    missing : one of ``reject`` (default), ``impute`` (column mean), ``drop``
        (remove incomplete rows); a missing label fails under ``impute``
    name : table name; defaults to the file stem
    """
    with open(path, newline="", encoding="utf-8") as fh:
        raw = [row for row in csv.reader(fh) if any(c.strip() for c in row)]
    if not raw:
        raise EmptyFileError(f"no data in {path}")

    header = None
    if has_header:
        header = [c.strip() for c in raw[0]]
        raw = raw[1:]
        if not raw:
            raise EmptyFileError(f"only a header row in {path}")

    width = len(raw[0])
    label_idx = None
    if label_column is not None:
        if isinstance(label_column, str):
            if header is None or label_column not in header:
                raise ParseError(f"label column {label_column!r} not in header")
            label_idx = header.index(label_column)
        else:
            label_idx = int(label_column)
            if not 0 <= label_idx < width:
                raise ParseError(f"label column index {label_idx} out of range")

    first = 1 + int(has_header)
    rows, labels = [], None if label_idx is None else []
    for i, row in enumerate(raw, start=first):
        if len(row) != width:
            raise ParseError(
                f"ragged row {i}: expected {width} cells, got {len(row)}", row=i
            )
        cells = []
        for j, cell in enumerate(row):
            if j == label_idx:
                labels.append(_parse_label(cell.strip(), missing, i, j + 1, path))
            else:
                cells.append(_parse_cell(cell, i, j + 1))
        rows.append(cells)

    data, labels = _resolve_missing(
        rows, labels, missing, path,
        row_numbers=range(first, first + len(rows)),
        columns=[j + 1 for j in range(width) if j != label_idx],
    )

    d = data.shape[1]
    if header is not None:
        attr_names = tuple(h for j, h in enumerate(header) if j != label_idx)
    else:
        attr_names = tuple(f"a{j + 1}" for j in range(d))
    return DataTable(
        values=data,
        attr_names=attr_names,
        labels=None if labels is None else tuple(labels),
        name=name or os.path.splitext(os.path.basename(path))[0],
    )


_ARFF_ATTR = re.compile(r"@attribute\s+('[^']*'|\"[^\"]*\"|\S+)\s+(.+)", re.I)


# One ARFF data cell: a value quoted with ' or " (it may hold commas and
# spaces), or the bare text up to the next comma; then the comma or the end.
_ARFF_CELL = re.compile(r"""\s*(?:(['"])(.*?)\1|([^,]*?))\s*(,|$)""")


def _split_arff_row(line):
    """Split a data line on the commas outside quotes, unquoting each cell.

    ARFF quotes a value holding a comma or a space with ' or ", and one
    line may use both.
    """
    cells, pos = [], 0
    while True:
        m = _ARFF_CELL.match(line, pos)
        cells.append(m[2] if m[1] else m[3])
        if not m[4]:
            return cells
        pos = m.end()


def load_arff(path, missing="reject", name=None) -> DataTable:
    """Load the numeric-attribute subset of an ARFF file.

    Numeric (``real``/``integer``/``numeric``) attributes become table
    columns.  A trailing nominal attribute is taken as the class label
    (the usual position in UCI files); earlier nominal attributes are
    accepted as integer-coded feature columns when their values parse as
    numbers.  Anything fancier (strings, dates, sparse data) is out of
    scope.
    """
    attrs = []          # (name, kind) with kind 'num' | 'nominal'
    data_rows = []
    in_data = False
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            low = line.lower()
            if low.startswith("@attribute"):
                m = _ARFF_ATTR.match(line)
                if not m:
                    raise ParseError(f"bad @attribute line {lineno}", row=lineno)
                attr_name = m.group(1).strip("'\"")
                spec = m.group(2).strip()
                if spec.lower().startswith(("real", "numeric", "integer")):
                    attrs.append((attr_name, "num"))
                elif spec.startswith("{"):
                    attrs.append((attr_name, "nominal"))
                else:
                    raise ParseError(
                        f"unsupported attribute type {spec!r} on line {lineno}",
                        row=lineno,
                    )
            elif low.startswith("@data"):
                in_data = True
            elif low.startswith("@"):
                continue
            elif in_data:
                data_rows.append((lineno, [c.strip() for c in _split_arff_row(line)]))
    if not attrs or not data_rows:
        raise EmptyFileError(f"no data in {path}")

    # Weka convention: the class attribute comes last.  A trailing nominal
    # attribute is the label; earlier nominal attributes are accepted only
    # when their values are all numbers (integer-coded features).
    label_idx = len(attrs) - 1 if attrs[-1][1] == "nominal" else None

    rows, labels = [], None if label_idx is None else []
    for lineno, cells in data_rows:
        if len(cells) != len(attrs):
            raise ParseError(
                f"ragged row at line {lineno}: expected {len(attrs)} cells, "
                f"got {len(cells)}",
                row=lineno,
            )
        parsed = []
        for j, cell in enumerate(cells):
            if j == label_idx:
                labels.append(
                    _parse_label(cell.strip("'\""), missing, lineno, j + 1, path)
                )
            else:
                parsed.append(_parse_cell(cell, lineno, j + 1))
        rows.append(parsed)

    data, labels = _resolve_missing(
        rows, labels, missing, path,
        row_numbers=[lineno for lineno, _ in data_rows],
        columns=[j + 1 for j in range(len(attrs)) if j != label_idx],
    )
    attr_names = tuple(a for j, (a, _) in enumerate(attrs) if j != label_idx)
    return DataTable(
        values=data,
        attr_names=attr_names,
        labels=None if labels is None else tuple(labels),
        name=name or os.path.splitext(os.path.basename(path))[0],
    )


def load_table(path, label_column=None, missing="reject", name=None,
               has_header=True) -> DataTable:
    """Dispatch on extension: .arff via load_arff, anything else as CSV."""
    if str(path).lower().endswith(".arff"):
        return load_arff(path, missing=missing, name=name)
    return load_csv(path, has_header=has_header, label_column=label_column,
                    missing=missing, name=name)


def write_csv(table: DataTable, path, label_name="class"):
    """Write a DataTable back to CSV (header row, repr-precision floats)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = list(table.attr_names)
        if table.labels is not None:
            header.append(label_name)
        writer.writerow(header)
        for i in range(table.n_objects):
            row = [repr(float(v)) for v in table.values[i]]
            if table.labels is not None:
                row.append(table.labels[i])
            writer.writerow(row)


def zscore_normalize(table: DataTable) -> DataTable:
    """Center each column to mean 0 and scale to sample (n-1) std dev 1.

    Constant columns map to all zeros rather than dividing by zero.
    """
    if table.n_objects < 2:
        raise ValueError("z-score normalization needs at least 2 objects")
    # z-scores do not depend on scale.  Scaling each column by a power of
    # two is exact and keeps squared deviations clear of underflow;
    # centering twice removes the rounding error of the first mean, which
    # is not small next to the spread of a nearly constant column.
    _, exponent = np.frexp(np.abs(table.values).max(axis=0))
    scaled = np.ldexp(table.values, -exponent)
    centered = scaled - scaled.mean(axis=0)
    centered -= centered.mean(axis=0)
    std = centered.std(axis=0, ddof=1)
    constant = std == 0
    safe_std = np.where(constant, 1.0, std)
    normed = centered / safe_std
    normed[:, constant] = 0.0
    return replace(table, values=normed)


def fit_cut_points(values: np.ndarray, strategy: str, bins: int) -> list[np.ndarray]:
    """Per-column interior cut points for the given binning strategy.

    ``eqwidth`` spaces cuts evenly over [min, max]; ``eqfreq`` places them
    at empirical quantiles.  A constant column yields no cut points.
    """
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    if strategy not in ("eqwidth", "eqfreq"):
        raise ValueError(f"unknown discretization strategy {strategy!r}")
    lo, hi = values.min(axis=0), values.max(axis=0)
    if strategy == "eqfreq":
        # one call for every column gives the bits of one call per column
        quantiles = np.quantile(values, [i / bins for i in range(1, bins)], axis=0).T
        return [np.empty(0) if lo[j] == hi[j] else quantiles[j] for j in range(len(lo))]
    # per column: np.linspace over all columns at once rounds some cuts
    # differently in the last bit
    return [np.empty(0) if lo[j] == hi[j] else np.linspace(lo[j], hi[j], bins + 1)[1:-1]
            for j in range(len(lo))]


def apply_cut_points(values: np.ndarray, cuts: list[np.ndarray]) -> np.ndarray:
    """Code each cell by its bin: intervals are [low, high), last bin closed.

    A value equal to a cut point lands in the upper bin; values outside
    the fitted range clamp into the first / last bin.
    """
    codes = np.zeros(values.shape, dtype=np.int64)
    for j, edges in enumerate(cuts):
        if len(edges):
            codes[:, j] = np.searchsorted(edges, values[:, j], side="right")
    return codes


def discretize(table: DataTable, strategy: str = "eqfreq", bins: int = 3) -> DiscreteTable:
    """Bin every column of a DataTable into integer codes."""
    cuts = fit_cut_points(table.values, strategy, bins)
    codes = apply_cut_points(table.values, cuts)
    bins_per_attr = tuple(1 if len(c) == 0 else bins for c in cuts)
    return DiscreteTable(
        codes=codes,
        bins_per_attr=bins_per_attr,
        attr_names=table.attr_names,
        name=table.name,
    )


def project(table: DataTable, subset: FeatureSubset) -> DataTable:
    """Keep only the subset's columns, in the subset's order."""
    for i in subset:
        if i >= table.n_attrs:
            raise IndexError(
                f"attribute index {i} out of range for table with "
                f"{table.n_attrs} attributes"
            )
    idx = list(subset)
    # columns of a checked table, so, as in take, no construction check runs
    sub = copy.copy(table)
    object.__setattr__(sub, "values", _freeze(table.values[:, idx]))
    object.__setattr__(sub, "attr_names", tuple(table.attr_names[i] for i in idx))
    return sub


@dataclass(frozen=True)
class Registry:
    """Named datasets resolvable to (path, label column) pairs."""

    entries: dict[str, tuple[str, str]] = field(default_factory=dict)
    root: str = "."

    def names(self):
        return list(self.entries)

    def load(self, dataset_name: str, missing="reject") -> DataTable:
        if dataset_name not in self.entries:
            raise DatasetError(
                f"unknown dataset {dataset_name!r}; registry has "
                f"{sorted(self.entries)}"
            )
        rel_path, label = self.entries[dataset_name]
        path = os.path.join(self.root, rel_path)
        if not os.path.exists(path):
            raise DatasetError(f"dataset {dataset_name!r}: no file at {path}")
        if label == "auto":
            label_column = None
        elif label.isdigit():
            label_column = int(label) - 1          # registry file is 1-based
        else:
            label_column = label
        return load_table(path, label_column=label_column, missing=missing,
                          name=dataset_name)


def load_registry(path) -> Registry:
    """Parse the plain-text registry: ``name, path, label`` per line."""
    entries = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) == 2:
                parts.append("auto")
            if len(parts) != 3:
                raise ParseError(
                    f"registry line {lineno} needs 'name, path, label'",
                    row=lineno,
                )
            entries[parts[0]] = (parts[1], parts[2])
    return Registry(entries=entries, root=os.path.dirname(os.path.abspath(path)))


def default_registry() -> Registry:
    """Bundled benchmark registry, overridable via UNSELECT_DATA_DIR."""
    root = os.environ.get("UNSELECT_DATA_DIR")
    if root:
        candidate = os.path.join(root, "registry.txt")
        if os.path.exists(candidate):
            return load_registry(candidate)
        return Registry(entries={}, root=root)
    here = os.path.dirname(os.path.abspath(__file__))
    for candidate in (
        os.path.join(here, "..", "..", "data", "registry.txt"),
        os.path.join(os.getcwd(), "data", "registry.txt"),
    ):
        if os.path.exists(candidate):
            return load_registry(candidate)
    return Registry()
