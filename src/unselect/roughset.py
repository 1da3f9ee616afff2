"""Rough set theory kernel.

Equivalence partitions over discrete attribute values, lower/upper
approximations, positive regions and dependency degrees, plus reduct
verification and an exhaustive minimal-reduct oracle.  Dependency values
are exact rationals (counts over the universe size), so reduct checks
compare integers, never floats.

Objects are grouped by one rule, ``group_ids`` (``eval``'s decision table
uses it too): the columns fold into one mixed-radix key, ranked by one
``np.unique``.  Every dependency is counted by one scorer,
``positive_total``: the decision columns are packed into ``uint64`` words
(``pack_codes``), ``pure_groups`` sorts the condition keys once, and the
AND and the OR of each group's words mark every column the group's rows
disagree on, for all decision columns at once.  Rows carry weights, so a
search may score the table's ``distinct_rows`` in place of their
identical copies; ``selectors.usqr`` does, and settles weight from the
``pure_groups`` flags between rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .dataset import DiscreteTable, FeatureSubset

__all__ = [
    "Partition",
    "indiscernibility_partition",
    "lower_approximation",
    "upper_approximation",
    "positive_region",
    "gamma",
    "mean_dependency_exact",
    "PackedCodes",
    "pack_codes",
    "positive_total",
    "pure_groups",
    "group_ids",
    "distinct_rows",
    "is_superreduct",
    "brute_force_min_reducts",
]

BRUTE_FORCE_MAX_ATTRS = 20


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks of object indices covering {0..n-1}.

    Canonical form: blocks ordered by their smallest member, members
    ascending, so two partitions are equal iff they group identically.
    """

    blocks: tuple[tuple[int, ...], ...]
    universe_size: int

    def __post_init__(self):
        seen = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block in partition")
            seen.update(block)
        if seen != set(range(self.universe_size)):
            raise ValueError("blocks must cover the universe exactly")
        if len(seen) != sum(len(b) for b in self.blocks):
            raise ValueError("blocks must be pairwise disjoint")
        canon = tuple(tuple(sorted(b)) for b in self.blocks)
        object.__setattr__(self, "blocks", tuple(sorted(canon, key=lambda b: b[0])))

    @classmethod
    def from_ids(cls, ids: np.ndarray) -> "Partition":
        """Build from a per-object group-id array."""
        groups: dict[int, list[int]] = {}
        for obj, g in enumerate(ids):
            groups.setdefault(int(g), []).append(obj)
        return cls(tuple(tuple(b) for b in groups.values()), len(ids))


def group_ids(codes: np.ndarray, bins) -> np.ndarray:
    """Group id per row of a code matrix whose column j holds codes in
    [0, bins[j]).

    Rows share an id iff they agree on every column; with no columns every
    row falls into one group (the condition in the indiscernibility
    definition is vacuous).  The columns fold into one mixed-radix key,
    ``key * bins[j] + codes[:, j]``, which orders rows like their code
    tuples; before the key could pass 2**62 it is compressed to its dense
    rank (and a column whose bin count alone would still carry it past, to
    the column's rank).  So the ids stay dense and ordered like the code
    tuples.
    """
    ids = np.zeros(len(codes), dtype=np.int64)
    size = 1        # every key lies in [0, size)
    for j, b in enumerate(map(int, bins)):     # Python ints: size never wraps
        column = codes[:, j]
        if size * b > 2**62:
            keys, ids = np.unique(ids, return_inverse=True)
            size = len(keys)
            if size * b > 2**62:    # a bin count near 2**62: fold the column's rank
                values, column = np.unique(column, return_inverse=True)
                b = len(values)
        ids = ids * b + column
        size *= b
    return np.unique(ids, return_inverse=True)[1]


def _columns(table: DiscreteTable, subset) -> tuple[np.ndarray, list[int]]:
    """The code columns of the subset's attributes and their bin counts."""
    attrs = list(subset)
    for a in attrs:
        if not 0 <= a < table.n_attrs:
            raise IndexError(
                f"attribute index {a} out of range for {table.n_attrs} attributes"
            )
    return table.codes[:, attrs], [table.bins_per_attr[a] for a in attrs]


def indiscernibility_partition(table: DiscreteTable, attrs: FeatureSubset) -> Partition:
    """U/IND(P): objects grouped by identical values on every attr in P."""
    return Partition.from_ids(group_ids(*_columns(table, attrs)))


def lower_approximation(partition: Partition, x: set) -> set:
    """Union of blocks entirely contained in x."""
    x = set(x)
    if not x <= set(range(partition.universe_size)):
        raise ValueError("x must be a subset of the universe")
    out: set[int] = set()
    for block in partition.blocks:
        if set(block) <= x:
            out.update(block)
    return out


def upper_approximation(partition: Partition, x: set) -> set:
    """Union of blocks that intersect x; always contains the lower approximation."""
    x = set(x)
    if not x <= set(range(partition.universe_size)):
        raise ValueError("x must be a subset of the universe")
    out: set[int] = set()
    for block in partition.blocks:
        if x.intersection(block):
            out.update(block)
    return out


def positive_region(cond: Partition, dec: Partition) -> set:
    """Objects classifiable without ambiguity: union over decision blocks
    of their lower approximation under the condition partition."""
    if cond.universe_size != dec.universe_size:
        raise ValueError(
            f"universe mismatch: {cond.universe_size} vs {dec.universe_size}"
        )
    out: set[int] = set()
    for block in dec.blocks:
        out |= lower_approximation(cond, set(block))
    return out


@dataclass(frozen=True)
class PackedCodes:
    """A code matrix packed into ``uint64`` words, ``pack_codes``'s result.

    Every field is ``width`` bits wide; each word holds ``64 // width``
    fields, column j in word ``j // (64 // width)``, and no field crosses a
    word boundary.  ``low`` has the low bit of each of a word's fields set.
    """

    words: np.ndarray       # rows x words, uint64
    low: np.ndarray         # words, uint64
    width: int
    n_cols: int

    def columns(self, flags: np.ndarray) -> np.ndarray:
        """The per-column booleans of one row of low-bit ``flags``."""
        per = 64 // self.width
        j = np.arange(self.n_cols)
        shifts = (j % per * self.width).astype(np.uint64)
        return ((flags[j // per] >> shifts) & np.uint64(1)).astype(bool)


def pack_codes(codes: np.ndarray) -> PackedCodes:
    """Pack each row of a non-negative code matrix into ``uint64`` words, one
    field per column, all as wide as the bit length of the largest code."""
    codes = np.asarray(codes)
    n, d = codes.shape
    width = max(1, int(codes.max(initial=0)).bit_length())
    per = 64 // width
    words = np.zeros((n, -(-d // per)), dtype=np.uint64)
    low = np.zeros(words.shape[1], dtype=np.uint64)
    for j in range(d):
        shift = np.uint64(j % per * width)
        words[:, j // per] |= codes[:, j].astype(np.uint64) << shift
        low[j // per] |= np.uint64(1) << shift
    return PackedCodes(words, low, width, d)


def pure_groups(keys: np.ndarray, packed: PackedCodes):
    """One sort of ``keys``: the row order, the start of each group's run of
    sorted rows, and a groups x words array with the low bit of a field set
    where the group's rows disagree on that column.

    Rows sharing a key form one condition group, and grouping does not
    depend on the order inside a group, so the sort need not be stable.
    The AND and the OR of a group's words differ exactly in the bits where
    its rows disagree; a field with any such bit is OR-folded onto its low
    bit by adding its lower bits into its top bit.
    """
    order = np.argsort(keys)
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1])))
    rows = packed.words[order]
    diff = np.bitwise_and.reduceat(rows, starts) ^ np.bitwise_or.reduceat(rows, starts)
    top = np.uint64(packed.width - 1)
    rest = packed.low * np.uint64((1 << (packed.width - 1)) - 1)
    return order, starts, ((((diff & rest) + rest) | diff) >> top) & packed.low


def positive_total(keys: np.ndarray, weights: np.ndarray, packed: PackedCodes) -> int:
    """Positive-region weight of the grouping ``keys``, summed over every
    packed column taken as the decision.

    A group lies in the positive region of column y iff all its rows agree
    on y, so one sort of the keys serves every column at once.
    ``weights`` counts the objects each row stands for.
    """
    order, starts, impure = pure_groups(keys, packed)
    pure = np.bitwise_count(~impure & packed.low).sum(axis=1, dtype=np.int64)
    return int(pure @ np.add.reduceat(weights[order], starts))


def distinct_rows(table: DiscreteTable) -> tuple[np.ndarray, np.ndarray]:
    """The table's distinct rows and how many objects each stands for.

    Identical rows fall in the same group under every attribute subset,
    so a weighted distinct row scores exactly like its copies.
    """
    ids = group_ids(table.codes, table.bins_per_attr)
    _, first, counts = np.unique(ids, return_index=True, return_counts=True)
    return table.codes[first], counts


def gamma(table: DiscreteTable, p, q) -> Fraction:
    """Degree of dependency of q on p: |POS_p(q)| / |U|, as an exact rational."""
    cond, dec = _columns(table, p), _columns(table, q)
    if not dec[1]:
        raise ValueError("decision attribute set q must be non-empty")
    ones = np.ones(table.n_objects, dtype=np.int64)
    pos = positive_total(group_ids(*cond), ones, pack_codes(group_ids(*dec)[:, None]))
    return Fraction(pos, table.n_objects)


def mean_dependency_exact(table: DiscreteTable, attrs) -> Fraction:
    """Mean of gamma(attrs -> {y}) over all attributes y, as an exact rational.

    Every attribute of the table serves in turn as a pseudo-decision,
    including members of attrs themselves (those contribute 1).
    """
    codes, bins = _columns(table, attrs)
    if not bins:
        raise ValueError("attribute subset must be non-empty")
    ones = np.ones(table.n_objects, dtype=np.int64)
    total = positive_total(group_ids(codes, bins), ones, pack_codes(table.codes))
    return Fraction(total, table.n_objects * table.n_attrs)


def is_superreduct(table: DiscreteTable, subset) -> bool:
    """True iff the subset preserves the full attribute set's mean dependency.

    That dependency is always exactly 1: the full set groups only identical
    rows, which agree on every attribute, so every object is positive for
    every pseudo-decision.
    """
    return mean_dependency_exact(table, subset) == 1


def brute_force_min_reducts(table: DiscreteTable) -> list[FeatureSubset]:
    """All minimum-cardinality subsets preserving the full mean dependency.

    Exhaustive search over subsets by increasing size; the oracle the
    greedy search is validated against.  Guarded to d <= 20.
    """
    d = table.n_attrs
    if d > BRUTE_FORCE_MAX_ATTRS:
        raise ValueError(
            f"exhaustive reduct search refused for d={d} > {BRUTE_FORCE_MAX_ATTRS}"
        )
    for size in range(1, d + 1):
        found = [
            FeatureSubset(combo)
            for combo in combinations(range(d), size)
            if is_superreduct(table, combo)
        ]
        if found:
            return sorted(found, key=lambda s: s.indices)
    raise AssertionError("full attribute set always preserves itself")
