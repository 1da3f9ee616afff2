"""Tabular dataset ingestion, normalization, discretization and subsetting.

Loads numeric CSV files and the numeric-attribute subset of ARFF (enough
for the UCI benchmark files), keeps an optional class-label column aside,
and exposes the preprocessing steps the selectors build on.  All tables
are immutable value objects; every function returns a new table.
"""

from __future__ import annotations

import codecs
import copy
import csv
import io
import math
import os
import re
from contextlib import suppress
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from operator import index

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
    methods.  All user-facing I/O renders indices 1-based.  A subset cut
    from a ranking (pca, edr) carries every ``(index, score)`` pair of it,
    best first; a usqr subset carries its ``(index, total, candidates)``
    rounds (``selectors.usqr``).  Equality, hashing and repr ignore both.
    """

    indices: tuple[int, ...]
    ranking: tuple[tuple[int, float], ...] | None = field(default=None, compare=False,
                                                          repr=False)
    rounds: tuple[tuple[int, int, int], ...] | None = field(default=None, compare=False,
                                                            repr=False)

    def __post_init__(self):
        try:        # a float index is refused, never truncated
            idx = tuple(map(index, self.indices))
        except TypeError:
            raise ValueError(f"non-integral attribute index in subset: {self.indices}") from None
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
        parts = [p for p in map(str.strip, text.split(","), repeat(_BLANKS)) if p]
        if not parts:
            raise ValueError("empty feature subset text")
        return cls(tuple(int(p) - 1 for p in parts))


def _freeze(arr: np.ndarray, source=None) -> np.ndarray:
    """``arr`` as a read-only C-contiguous array.  Where ``arr`` is
    writeable and may share memory with ``source``, an array the caller
    passed in, a copy is frozen instead, so the caller's array stays
    writeable; a read-only array is kept as it is."""
    arr = np.ascontiguousarray(arr)
    shared = isinstance(source, np.ndarray) and np.may_share_memory(arr, source)
    if arr.flags.writeable and shared:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def check_codes(codes) -> np.ndarray:
    """The one rule for a code matrix, returned as an array: 2-D, of an
    integer or bool dtype that int64 holds, with no negative cell.  A
    ``ValueError`` names the shape, the dtype or the first negative cell
    (row and column, 1-based)."""
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError(f"codes must be 2-D, got shape {codes.shape}")
    if not np.can_cast(codes.dtype, np.int64):      # a float code is never truncated
        raise ValueError(f"codes must be integers that int64 holds, got dtype {codes.dtype}")
    if codes.min(initial=0) < 0:
        r, c = np.argwhere(codes < 0)[0]
        raise ValueError(f"codes must be non-negative, got {codes[r, c]} at row {r + 1}, "
                         f"column {c + 1}")
    return codes


def class_codes(labels) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """The one rule for class labels: the labels as text, the sorted
    distinct labels, and each label's read-only ``np.intp`` index into
    them."""
    labels = tuple(map(str, labels))
    classes = tuple(sorted(set(labels)))
    code = {c: i for i, c in enumerate(classes)}
    return labels, classes, _freeze(np.fromiter(map(code.__getitem__, labels), np.intp,
                                                len(labels)))


def column_indices(subset, n_attrs: int) -> list[int]:
    """The one rule for a column pick: the subset's indices, each naming
    one of ``n_attrs`` columns, else an ``IndexError`` naming the first
    that does not."""
    attrs = list(subset)
    for a in attrs:
        if not 0 <= a < n_attrs:
            raise IndexError(f"attribute index {a} out of range for {n_attrs} attributes")
    return attrs


@dataclass(frozen=True)
class DataTable:
    """A rectangular numeric dataset with optional class labels.

    ``values`` is an (n objects x d attributes) float matrix; ``labels``,
    when present, holds one class identifier per object and never counts
    as an attribute.  ``classes`` holds the sorted distinct labels and ``y``
    each object's read-only index into them (``()`` and None if unlabeled);
    ``project`` keeps the source's ``classes``.  The table holds its values
    read-only: a read-only float64 array is kept, and any other is copied,
    so the caller's own array stays writeable.
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
            labels, classes, y = class_codes(self.labels)
            if len(labels) != n:
                raise ValueError(f"{len(labels)} labels for {n} objects")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", _freeze(values, self.values))
        object.__setattr__(self, "attr_names", names)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "y", y)

    @property
    def n_objects(self) -> int:
        return self.values.shape[0]

    @property
    def n_attrs(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class DiscreteTable:
    """An integer-coded table; cell codes lie in [0, bins_per_attr[j]).

    The codes pass ``check_codes``, the rule the rough-set kernel holds
    every code matrix to, so float codes are refused, never truncated.
    ``bins_per_attr`` declares each column's code range and is checked
    here, at construction; a code outside it is an error naming its cell.
    Grouping (``roughset.group_ids``, USQR) reads each column's range from
    the codes themselves, so a declared count wider than the codes changes
    no result.  Read-only int64 codes are kept; any others are copied.
    """

    codes: np.ndarray
    bins_per_attr: tuple[int, ...]
    attr_names: tuple[str, ...]
    name: str = ""

    def __post_init__(self):
        codes = check_codes(self.codes)
        n, d = codes.shape
        if n < 1 or d < 1:
            raise ValueError(f"table must be at least 1x1, got {n}x{d}")
        bins = tuple(int(b) for b in self.bins_per_attr)
        if len(bins) != d:
            raise ValueError(f"{len(bins)} bin counts for {d} columns")
        if any(b < 1 for b in bins):
            raise ValueError("bins_per_attr entries must be positive")
        over = codes >= np.asarray(bins)
        if over.any():
            r, c = np.argwhere(over)[0]
            raise ValueError(f"code {codes[r, c]} at row {r + 1}, column {c + 1} is outside "
                             f"its {bins[c]} bins")
        names = tuple(str(a) for a in self.attr_names)
        if len(names) != d or len(set(names)) != len(names):
            raise ValueError("attribute names must be unique and match columns")
        object.__setattr__(self, "codes", _freeze(codes.astype(np.int64, copy=False),
                                                  self.codes))
        object.__setattr__(self, "bins_per_attr", bins)
        object.__setattr__(self, "attr_names", names)

    @property
    def n_objects(self) -> int:
        return self.codes.shape[0]

    @property
    def n_attrs(self) -> int:
        return self.codes.shape[1]


_MISSING_TOKENS = {"", "?", "na", "nan", "n/a"}

MISSING_POLICIES = ("reject", "impute", "drop")


def _check_missing(missing):
    if missing not in MISSING_POLICIES:
        raise ValueError(f"unknown missing-value policy {missing!r}")


def _read_text(path):
    """A UTF-8 file's text, its line ends as they are and a leading byte
    order mark dropped.  A byte that is not UTF-8 is a ParseError at its
    file line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the decoder counts from after a byte order mark
        start = exc.start + len(codecs.BOM_UTF8) * raw.startswith(codecs.BOM_UTF8)
        line = raw.count(b"\n", 0, start) + 1
        raise ParseError(f"byte 0x{raw[start]:02x} at line {line} of {path} is not UTF-8",
                         row=line) from None


# Printable ASCII, tab, CR and LF.  On text of these alone, numpy's reader
# reads each cell as ``float`` does, its blanks are spaces and tabs, and
# ``str.splitlines`` ends lines where file iteration and ``csv`` do.  On
# other text they part: ``splitlines`` ends a line at \x0b, \x0c and
# \x1c-\x1f, and numpy takes \x1c-\x1f for blanks, which ``_BLANKS`` is not.
_PLAIN = bytes(range(0x20, 0x7F)) + b"\t\r\n"


def _plain(text, quotes):
    """Whether ``text`` holds ``_PLAIN`` characters alone and none of ``quotes``."""
    return text.isascii() and not text.encode("ascii").translate(
        None, _PLAIN.translate(None, quotes.encode("ascii")))


# The one blank rule of the readers: the blanks ``float`` and ``int`` take
# around a number, which is every ``str.isspace`` character but the
# separators \x1c-\x1f.  Every cell, label, header name and registry field
# sheds these alone, and a line or record is blank only if it holds them
# alone; ``_B`` is the same set escaped for a regex class.
_BLANKS = ("\t\n\x0b\x0c\r \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007"
           "\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")
_B = re.escape(_BLANKS)


def _parse_cell(text, row, col):
    """A feature cell as a finite float; NaN marks a missing value (a
    non-finite literal is rejected, so NaN means nothing else).  The cell
    loses the ``_BLANKS`` around it, as ``float`` would strip them."""
    token = text.strip(_BLANKS)
    if token.lower() in _MISSING_TOKENS:
        return math.nan
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if math.isfinite(value):        # rejects inf and overflowing literals too
        return value
    raise ParseError(
        f"cell {token!r} at row {row}, column {col} is not a finite number",
        row=row,
        column=col,
    )


def _parse_label(text, missing, row, col, path, classes):
    """A class cell; None marks a missing label that the drop policy removes.
    Any other label must be one of ``classes``, unless that is None."""
    if text.lower() not in _MISSING_TOKENS:
        if classes is None or text in classes:
            return text
        raise ParseError(f"label {text!r} at row {row}, column {col} of {path} is not one of "
                         "its attribute's declared values", row=row, column=col)
    if missing == "drop":
        return None
    raise ParseError(
        f"missing label at row {row}, column {col} of {path} (a label cannot "
        "be imputed; pass missing='drop' to remove the row)",
        row=row,
        column=col,
    )


def _bulk_parse(lines, width, label_idx, classes, domains):
    """The value matrix and labels of a table's data lines in one pass of
    numpy's C text reader, or None when a line has other than ``width``
    comma-separated cells, a cell is not a finite number or, in a column of
    ``domains``, not one of its values, or a label is missing or, given
    ``classes``, not one of them.

    The lines are ``_plain`` and hold no quote, so their cells are their
    comma-separated fields, as ``csv`` and the ARFF split read them, and a
    cell's blanks are spaces and tabs, the ``_BLANKS`` of plain text, which
    numpy strips too.  numpy then parses a number as ``float`` does, and
    every missing token either fails in it or gives NaN, so a finite cell
    here is one ``_parse_cell`` accepts, with the same value.  An empty
    line is no row to either loader.  A line of blanks alone, which the
    loaders skip, is declined: it has too few commas for two or more
    cells, and numpy refuses it as the one value cell of a one-cell row.
    """
    lines = list(filter(None, lines))
    if not lines:
        return None
    # numpy checks no row's width beyond the columns it reads
    if set(map(str.count, lines, repeat(","))) != {width - 1}:
        return None
    usecols = [j for j in range(width) if j != label_idx]
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None, ndmin=2,
                          usecols=usecols)
    except ValueError:
        return None
    if not np.isfinite(data).all() or not all(
            np.isin(data[:, usecols.index(j)], list(domain)).all()
            for j, domain in domains.items()):
        return None
    labels = None
    if label_idx is not None:
        labels = [line.split(",")[label_idx].strip(_BLANKS) for line in lines]
        if not _MISSING_TOKENS.isdisjoint(map(str.lower, labels)) or (
                classes is not None and not classes.issuperset(labels)):
            return None
    return data, labels


def _parse_rows(path, rows, columns, label_idx, missing, classes, domains):
    """The value matrix and labels of ``_build_table``'s rows, read row-major
    one cell at a time, so the first fault in the file is the one raised;
    holes and missing labels then follow the missing-value policy."""
    width = len(columns) + (label_idx is not None)
    values, labels = [], None if label_idx is None else []
    for row, cells in rows:
        if len(cells) != width:
            raise ParseError(
                f"ragged row {row}: expected {width} cells, got {len(cells)}", row=row
            )
        parsed = []
        for j, cell in enumerate(cells):
            if j == label_idx:
                labels.append(_parse_label(cell.strip(_BLANKS), missing, row, j + 1, path,
                                           classes))
            else:
                value = _parse_cell(cell, row, j + 1)
                if j in domains and value not in domains[j] and not math.isnan(value):
                    raise ParseError(f"cell {cell.strip(_BLANKS)!r} at row {row}, column "
                                     f"{j + 1} of {path} is not one of its attribute's "
                                     "declared values", row=row, column=j + 1)
                parsed.append(value)
        values.append(parsed)

    data = np.array(values, dtype=float)
    holes = np.isnan(data)
    keep = ~holes.any(axis=1)
    if labels is not None:
        keep &= np.array([y is not None for y in labels], dtype=bool)
    if not keep.all():
        if missing == "reject":
            r, c = np.argwhere(holes)[0]
            row, column = rows[r][0], columns[c]
            raise ParseError(
                f"missing value at row {row}, column {column} of {path} "
                "(pass missing='impute' or missing='drop' to handle it)",
                row=row,
                column=column,
            )
        elif missing == "impute":
            for j in range(data.shape[1]):
                col = data[:, j]
                if np.isnan(col).all():
                    raise ParseError(f"column {columns[j]} of {path} has no observed "
                                     "values", column=columns[j])
                col[np.isnan(col)] = np.nanmean(col)
        else:       # drop
            if not keep.any():
                raise EmptyFileError(f"every row of {path} has missing values")
            data = data[keep]
            if labels is not None:
                labels = [y for y, k in zip(labels, keep) if k]
    return data, labels


def _build_table(path, lines, rows, names, label_idx, missing, name, classes=None,
                 domains=None):
    """The DataTable of a file's data.

    ``lines`` are the data lines the bulk pass may read, else None;
    ``rows`` are the same data as ``(file row, cells)`` pairs, read only if
    that pass declines.  ``names`` has one entry per file column and sets
    the row width.  ``label_idx`` is the 0-based label column or None; a
    label cell sheds its ``_BLANKS`` and, if ``classes`` is given, must be
    one of them.  ``domains`` maps a 0-based feature column to the set of
    numbers its cells may take.  Holes follow the missing-value policy, and
    a missing label, which only ``drop`` lets through, drops its row.
    Every error names its file row and column.
    """
    domains = domains or {}
    width = len(names)
    columns = [j + 1 for j in range(width) if j != label_idx]
    if not columns:
        raise ParseError(f"{path} has no feature column: its only column is the label",
                         column=label_idx + 1)
    first = {}
    for c in columns:
        if first.setdefault(names[c - 1], c) != c:
            raise ParseError(f"column {c} of {path} repeats the name {names[c - 1]!r} "
                             f"of column {first[names[c - 1]]}", column=c)
    parsed = None if lines is None else _bulk_parse(lines, width, label_idx, classes, domains)
    if parsed is None:
        parsed = _parse_rows(path, list(rows), columns, label_idx, missing, classes, domains)
    data, labels = parsed
    return DataTable(
        values=_freeze(data),
        attr_names=tuple(names[c - 1] for c in columns),
        labels=None if labels is None else tuple(labels),
        name=name or os.path.splitext(os.path.basename(path))[0],
    )


def _csv_records(path):
    """A CSV file's lines if the bulk pass may read them, else None, and
    its non-blank records as ``(file row, cells)`` pairs, read by ``csv``
    as they are consumed.  A record ``csv`` refuses is a ParseError at the
    file row it was reading."""
    text = _read_text(path)
    lines = text.splitlines() if _plain(text, '"') else None
    reader = csv.reader(io.StringIO(text, newline="") if lines is None else lines)
    # csv refuses a cell past its field limit, so the bulk pass takes no
    # line that could hold one
    if lines and len(max(lines, key=len)) > csv.field_size_limit():
        lines = None
    return lines, _numbered_records(reader, path)


def _numbered_records(reader, path):
    # a record, blank or not, starts on the line after the one the record
    # before it ended on, as a quoted cell may span lines
    end = 0
    try:
        for cells in reader:
            row, end = end + 1, reader.line_num
            if "".join(cells).strip(_BLANKS):
                yield row, cells
    except csv.Error as exc:
        raise ParseError(f"cannot read row {reader.line_num} of {path}: {exc}",
                         row=reader.line_num) from None


def load_csv(path, label_column=None, missing="reject", name=None) -> DataTable:
    """Load a comma-separated numeric file with a header row into a DataTable.

    Parameters
    ----------
    path : file path
    label_column : optional class column, as a 0-based index or header name
    missing : one of ``reject`` (default), ``impute`` (column mean), ``drop``
        (remove incomplete rows); a missing label fails under ``impute``
    name : table name; defaults to the file stem
    """
    _check_missing(missing)
    lines, records = _csv_records(path)
    head = next(records, None)
    if head is None:
        raise EmptyFileError(f"no data in {path}")
    first = next(records, None)
    if first is None:
        raise EmptyFileError(f"only a header row in {path}")

    header = [c.strip(_BLANKS) for c in head[1]]
    label_idx = None
    if label_column is not None:
        if isinstance(label_column, str):
            if label_column not in header:
                raise ParseError(f"label column {label_column!r} not in the header of {path}")
            label_idx = header.index(label_column)
        else:
            label_idx = index(label_column)     # a float is refused, never truncated
            if not 0 <= label_idx < len(header):
                raise ParseError(f"label column {label_idx + 1} out of range: {path} has "
                                 f"{len(header)} columns")
    # the data lines follow the header's line; the data records start at ``first``
    return _build_table(path, None if lines is None else lines[head[0]:],
                        chain([first], records), header, label_idx, missing, name)


# The ARFF header grammar, matched whole against a line shorn of its
# blanks, keywords and types in any case: ``@relation`` and an optional
# name; ``@data``; or ``@attribute``, a name (bare, or quoted with ' or ")
# and a numeric type or a ``{...}`` set of nominal values.
_ARFF_HEADER = re.compile(
    rf"""@relation(?:[{_B}].*)?|(?P<data>@data)|@attribute[{_B}]+"""
    rf"""(?P<name>'[^']*'|"[^"]*"|[^'"{_B}][^{_B}]*)[{_B}]+"""
    r"""(?:real|numeric|integer|\{(?P<values>.*)\})""", re.I)


# One ARFF data cell: a value quoted with ' or " (it may hold commas and
# spaces), or the bare text up to the next comma; then that comma.
_ARFF_CELL = re.compile(rf"""[{_B}]*(['"]?)(.*?)\1[{_B}]*,""")


def _split_arff_row(line):
    """Split a data line, or the inside of a ``{...}`` value set, on the
    commas outside quotes, unquoting each cell.

    ARFF quotes a value holding a comma or a space with ' or ", and one
    line may use both.
    """
    return [cell for _, cell in _ARFF_CELL.findall(line + ",")]


def _numbers(values):
    """The declared values of a ``{...}`` set that ``float`` reads, as
    floats.  A cell that is not finite fails before it is compared, so a
    declared ``inf`` or ``nan`` admits nothing."""
    numbers = set()
    for value in values:
        with suppress(ValueError):
            numbers.add(float(value))
    return numbers


def load_arff(path, missing="reject", name=None) -> DataTable:
    """Load the numeric-attribute subset of an ARFF file.

    Before ``@data``, a line that is neither blank nor a ``%`` comment must
    match one header form whole, keywords and types in any case:
    ``@relation`` with an optional name, ``@data``, or ``@attribute``, a
    name (bare, or quoted with ' or ") and a type, which is ``real``,
    ``numeric``, ``integer`` or a ``{...}`` set of nominal values.  Any
    other line is a ParseError naming it; so are strings and dates.
    Numeric attributes become table columns.  A trailing nominal attribute
    is taken as the class label (the usual position in UCI files), and a
    label that is neither missing nor one of its declared values is a
    ParseError naming its row and column.  Earlier nominal attributes are
    integer-coded feature columns: a cell that is neither missing nor, as
    a number, equal to one of the declared values that are numbers is a
    ParseError naming its row and column.  Sparse data is out of scope.
    """
    _check_missing(missing)
    # (file line, line shorn of blanks) for each line that is not blank or a % comment
    numbered = ((i, s) for i, line in enumerate(io.StringIO(_read_text(path), newline=None), 1)
                if (s := line.strip(_BLANKS)) and s[0] != "%")
    attrs = []          # (name, nominal values text, or None for a numeric type)
    for lineno, line in numbered:
        head = _ARFF_HEADER.fullmatch(line)
        if head is None:
            raise ParseError(f"line {lineno} of {path} is neither a % comment nor an @relation, "
                             "@data or @attribute line (of type real, numeric, integer or {...})",
                             row=lineno)
        if head["data"]:
            break
        if attr := head["name"]:
            attrs.append((attr[1:-1] if attr[0] in "'\"" else attr, head["values"]))
    data = list(numbered)       # every line after @data is a data row
    if not attrs or not data:
        raise EmptyFileError(f"no data in {path}")

    # Weka convention: the class attribute comes last.  A trailing nominal
    # attribute is the label; earlier ones are integer-coded features.  Each
    # takes only its declared values.
    declared = [None if values is None else [v.strip(_BLANKS) for v in _split_arff_row(values)]
                for _, values in attrs]
    label_idx = None if declared[-1] is None else len(attrs) - 1
    classes = None if label_idx is None else set(declared[-1])
    domains = {j: _numbers(values) for j, values in enumerate(declared)
               if values is not None and j != label_idx}
    lines = [line for _, line in data]
    rows = ((row, [c.strip(_BLANKS) for c in _split_arff_row(line)]) for row, line in data)
    return _build_table(path, lines if _plain("\n".join(lines), "'\"") else None, rows,
                        [a for a, _ in attrs], label_idx, missing, name, classes, domains)


def load_table(path, label_column=None, missing="reject", name=None) -> DataTable:
    """Dispatch on extension: .arff via load_arff, anything else as CSV."""
    if str(path).lower().endswith(".arff"):
        return load_arff(path, missing=missing, name=name)
    return load_csv(path, label_column=label_column, missing=missing, name=name)


def label_column_from_text(text):
    """``load_csv``'s label_column from a registry field or ``--label-col``:
    None for ``auto`` or None, 0-based for a 1-based number, else a name."""
    if text is None or text == "auto":
        return None
    if text.isdigit():
        return int(text) - 1
    return text


def write_csv(table: DataTable, path):
    """Write a DataTable to CSV: header row, repr-precision floats, labels as ``class``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = list(table.attr_names)
        if table.labels is not None:
            header.append("class")
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
    return replace(table, values=_freeze(normed))


STRATEGIES = ("eqwidth", "eqfreq")


def check_binning(strategy, bins):
    """The one rule for a binning setting: a known strategy and an integer
    count of >= 2 bins (a float is a ``TypeError``, never truncated)."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown discretization strategy {strategy!r}")
    if index(bins) < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")


def fit_cut_points(values: np.ndarray, strategy: str, bins: int) -> np.ndarray:
    """Interior cut points of each column for the given binning strategy.

    ``values`` is rows x attributes, or folds x rows x attributes for a
    stack of folds, each of which gets cuts from its own rows; the cuts
    come as [folds x] attributes x (bins - 1).  The columns are copied
    once, as floats, each to one contiguous row.  ``eqwidth`` spaces the
    cuts evenly over [min, max] of that row, with the bits of
    ``np.linspace`` per column; ``eqfreq`` sorts the row once and reads
    min, max and the cuts from it, at empirical quantiles with the bits of
    ``np.quantile``'s default linear method.  A column constant in its
    rows gets +inf cuts, which no finite value reaches, so it codes to one
    bin.  A zero cut is always +0.0, whichever zero the sort put at its
    place.

    A ``ValueError`` refuses input with no rows, names the first
    non-finite cell ([fold,] row, column, 1-based), or names the first
    column whose range max - min overflows; each would be mis-binned.
    """
    check_binning(strategy, bins)
    n = values.shape[-2]
    if n == 0:
        raise ValueError("cannot fit cut points to no rows")
    # each column as one contiguous float row, [folds x] attrs x rows: an
    # integer range would wrap in its own dtype
    columns = np.array(np.moveaxis(values, -2, -1), dtype=float, order="C")
    if strategy == "eqfreq":
        columns.sort(axis=-1)
        lo, hi = columns[..., 0], columns[..., -1]
    else:
        lo, hi = columns.min(axis=-1), columns.max(axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        spread = hi - lo
    if not np.isfinite(spread).all():
        _refuse_cut_input(values, lo, hi, spread)
    if strategy == "eqfreq":
        # np.quantile's linear method, step by step, on the sorted rows
        virtual = (n - 1) * np.array([i / bins for i in range(1, bins)])
        below = np.floor(virtual)
        gamma = virtual - below
        below = below.astype(np.intp)
        # one row has no next row; its cuts become +inf below anyway
        a, b = columns[..., below], columns[..., np.minimum(below + 1, n - 1)]
        diff = b - a
        cuts = np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)
    else:
        # np.linspace per column: k * step + lo, or, where the step
        # underflows to 0, k / bins * delta + lo (np.linspace over all
        # columns at once takes that branch for every column)
        delta = spread[..., None]
        step = delta / bins
        k = np.arange(1.0, bins)
        cuts = np.where(step == 0, k / bins * delta, k * step) + lo[..., None]
    cuts[lo == hi] = np.inf
    return cuts + 0.0


def _refuse_cut_input(values, lo, hi, spread):
    """Raise the ``fit_cut_points`` error for the first non-finite cell,
    else for the first column whose range overflows."""
    bad = ~np.isfinite(values)
    if bad.any():
        *fold, row, col = np.argwhere(bad)[0]
        at = f"fold {fold[0] + 1}, " if fold else ""
        raise ValueError(f"cannot fit cut points to {at}row {row + 1}, column {col + 1}: "
                         f"it holds {values[(*fold, row, col)]}")
    *fold, col = np.argwhere(~np.isfinite(spread))[0]
    at = f"fold {fold[0] + 1}, " if fold else ""
    raise ValueError(f"cannot fit cut points to {at}column {col + 1}: its range "
                     f"{lo[(*fold, col)]} to {hi[(*fold, col)]} overflows")


def apply_cut_points(values: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Code each cell by its bin: intervals are [low, high), last bin closed.

    ``values`` is rows x attributes with cuts from ``fit_cut_points``, or
    folds x rows x attributes with one set of cuts per fold (or one for
    every fold).  A cell's code is the number of its column's finite cuts
    that it is not below, which for sorted cuts is
    ``np.searchsorted(..., side="right")`` on the finite ones: a value
    equal to a cut point lands in the upper bin, values outside the fitted
    range (NaN above every cut) clamp into the first / last bin, and a
    constant column's +inf cuts count for nothing.
    """
    edges = np.moveaxis(cuts, -1, 0)[..., None, :]
    return (~(values < edges) & (edges < np.inf)).sum(axis=0)


def discretize(table: DataTable, strategy: str = "eqfreq", bins: int = 3) -> DiscreteTable:
    """Bin every column of a DataTable into integer codes; a column has one
    code more than it has finite cut points."""
    cuts = fit_cut_points(table.values, strategy, bins)
    return DiscreteTable(
        codes=_freeze(apply_cut_points(table.values, cuts)),
        bins_per_attr=tuple(((cuts < np.inf).sum(axis=1) + 1).tolist()),
        attr_names=table.attr_names,
        name=table.name,
    )


def project(table: DataTable, subset: FeatureSubset) -> DataTable:
    """Keep only the subset's columns, in the subset's order; a table keeps
    at least one column, so an empty subset is a ``ValueError``."""
    idx = column_indices(subset, table.n_attrs)
    if not idx:
        raise ValueError("cannot project a table onto an empty subset")
    # columns of a checked table, so no construction check runs
    sub = copy.copy(table)
    object.__setattr__(sub, "values", _freeze(table.values[:, idx]))
    object.__setattr__(sub, "attr_names", tuple(table.attr_names[i] for i in idx))
    return sub


@dataclass(frozen=True)
class Registry:
    """Named datasets resolvable to (path, label column) pairs."""

    entries: dict[str, tuple[str, str]]
    root: str

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
        return load_table(path, label_column=label_column_from_text(label),
                          missing=missing, name=dataset_name)


def load_registry(path) -> Registry:
    """Parse the plain-text registry: ``name, path, label`` per line; a
    name may appear once."""
    entries, first = {}, {}
    for lineno, line in enumerate(io.StringIO(_read_text(path), newline=None), 1):
        line = line.strip(_BLANKS)
        if not line or line.startswith("#"):
            continue
        parts = [p.strip(_BLANKS) for p in line.split(",")]
        if len(parts) == 2:
            parts.append("auto")
        if len(parts) != 3:
            raise ParseError(
                f"registry line {lineno} needs 'name, path, label'",
                row=lineno,
            )
        if first.setdefault(parts[0], lineno) != lineno:
            raise ParseError(f"registry line {lineno} of {path} repeats the name "
                             f"{parts[0]!r} of line {first[parts[0]]}", row=lineno)
        entries[parts[0]] = (parts[1], parts[2])
    if not entries:
        raise EmptyFileError(f"registry {path} lists no datasets")
    return Registry(entries=entries, root=os.path.dirname(os.path.abspath(path)))


def default_registry() -> Registry:
    """``$UNSELECT_DATA_DIR/registry.txt`` if set, else the bundled
    ``data/registry.txt``; no file is an error naming every path tried."""
    root = os.environ.get("UNSELECT_DATA_DIR")
    here = os.path.dirname(os.path.abspath(__file__))
    tried = [os.path.join(root, "registry.txt")] if root else [
        os.path.normpath(os.path.join(here, "..", "..", "data", "registry.txt")),
        os.path.join(os.getcwd(), "data", "registry.txt"),
    ]
    for candidate in tried:
        if os.path.exists(candidate):
            return load_registry(candidate)
    raise DatasetError(f"no dataset registry: tried {', '.join(tried)} "
                       "(set UNSELECT_DATA_DIR to a directory holding registry.txt)")
