"""Rough set theory kernel.

Equivalence partitions over discrete attribute values, lower/upper
approximations, positive regions and dependency degrees, plus reduct
verification and an exhaustive minimal-reduct oracle.  Dependency values
are exact rationals (counts over the universe size), so reduct checks
compare integers, never floats.

Every code matrix the kernel takes passes ``dataset.check_codes``, the
rule ``DiscreteTable`` holds its codes to as well: 2-D, integers that
int64 holds, none negative.  A float or negative code would fold into a
colliding key, so it is a ``ValueError``, never a wrong group.  Column
picks are checked by ``dataset.column_indices``, the rule ``project``
uses.  Objects are grouped by one rule, ``group_ids`` (``eval``'s decision
table uses it too): the columns fold into one mixed-radix key, ranked by
one ``np.unique``.  Each column's radix is its largest code + 1, read from
the codes by ``key_radixes``, the one guard that keeps every key within
int64; ``selectors.usqr`` takes its radixes from it too.  Every
dependency is counted by one scorer, ``positive_total``: the decision
columns are packed into ``uint64`` words (``pack_codes``), one
``pure_groups`` sort orders each row of a candidates x rows key matrix,
and the AND and the OR of each group's words mark every column the
group's rows disagree on, for all decision columns at once.  The columns
scored are those marked in the packing's ``low`` bits.  ``gamma`` and
``mean_dependency_exact`` score a single key row.  Rows carry weights, so
a search may score the table's ``distinct_rows`` in place of their
identical copies.  ``selectors.usqr`` does: it packs them once per
search, scores each round's candidates in batches of at most
``SCORE_CELLS`` packed words per sort, and between rounds settles weight
from the winner's slice of its batch's ``pure_groups`` flags, dropping
rows from the packing and columns from its ``low`` bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .dataset import DiscreteTable, FeatureSubset, check_codes, column_indices

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
    "SCORE_CELLS",
    "key_radixes",
    "group_ids",
    "distinct_rows",
    "is_superreduct",
    "brute_force_min_reducts",
]

BRUTE_FORCE_MAX_ATTRS = 20
SCORE_CELLS = 2**14     # packed words one pure_groups call of selectors.usqr may gather


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


_KEY_LIMIT = 2**62      # every mixed-radix key stays below it, so int64 never wraps


def key_radixes(codes: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """A code matrix (``check_codes``) and each column's radix, its largest
    code + 1: the one guard on mixed-radix key size.  Dense ids below the
    row count n take a column as ``ids * radix + code`` < n * radix, so a
    column whose radix times n would pass ``_KEY_LIMIT`` is replaced, in a
    copy, by its dense rank, which groups and orders the rows alike."""
    codes = check_codes(codes)
    n, d = codes.shape
    # numpy reduces axis 0 one row at a time, so the rows of a tall matrix
    # are first folded into blocks of k rows, about 1024 cells each
    k = max(1, 1024 // max(d, 1))
    head = n - n % k
    tops = codes[head:].max(axis=0, initial=0)
    if head:
        blocks = codes[:head].reshape(head // k, k * d)
        tops = np.maximum(tops, blocks.max(axis=0).reshape(k, d).max(axis=0))
    radixes = [int(top) + 1 for top in tops]
    ranked = [j for j, r in enumerate(radixes) if n * r > _KEY_LIMIT]
    if ranked:
        codes = codes.copy()
    for j in ranked:
        values, codes[:, j] = np.unique(codes[:, j], return_inverse=True)
        radixes[j] = len(values)
    return codes, radixes


def _row_keys(codes) -> np.ndarray:
    """One int64 key per row of a code matrix, ordered like the rows' code
    tuples, so rows share a key iff they agree on every column.

    The columns fold into one mixed-radix key, ``key * radix + codes[:, j]``
    with the radixes of ``key_radixes``; before the key could pass
    ``_KEY_LIMIT`` it is compressed to its dense rank, which lies below the
    row count.
    """
    codes, radixes = key_radixes(codes)
    keys = np.zeros(len(codes), dtype=np.int64)
    size = 1        # every key lies in [0, size)
    for j, r in enumerate(radixes):
        if size * r > _KEY_LIMIT:
            ranks, keys = np.unique(keys, return_inverse=True)
            size = len(ranks)
        keys = keys * r + codes[:, j]
        size *= r
    return keys


def group_ids(codes) -> np.ndarray:
    """Group id per row of a code matrix: the dense rank of its
    ``_row_keys`` key, so rows share an id iff they agree on every column
    and the ids are ordered like the code tuples.  With no columns every
    row falls into one group (the condition in the indiscernibility
    definition is vacuous)."""
    return np.unique(_row_keys(codes), return_inverse=True)[1]


def indiscernibility_partition(table: DiscreteTable, attrs: FeatureSubset) -> Partition:
    """U/IND(P): objects grouped by identical values on every attr in P."""
    return Partition.from_ids(group_ids(table.codes[:, column_indices(attrs, table.n_attrs)]))


def lower_approximation(partition: Partition, x: set) -> set:
    """Union of blocks entirely contained in x."""
    x = set(x)
    if not x <= set(range(partition.universe_size)):
        raise ValueError("x must be a subset of the universe")
    return set().union(*(block for block in partition.blocks if x.issuperset(block)))


def upper_approximation(partition: Partition, x: set) -> set:
    """Union of blocks that intersect x; always contains the lower approximation."""
    x = set(x)
    if not x <= set(range(partition.universe_size)):
        raise ValueError("x must be a subset of the universe")
    return set().union(*(block for block in partition.blocks if not x.isdisjoint(block)))


def positive_region(cond: Partition, dec: Partition) -> set:
    """Objects classifiable without ambiguity: union over decision blocks
    of their lower approximation under the condition partition."""
    if cond.universe_size != dec.universe_size:
        raise ValueError(
            f"universe mismatch: {cond.universe_size} vs {dec.universe_size}"
        )
    return set().union(*(lower_approximation(cond, block) for block in dec.blocks))


@dataclass(frozen=True)
class PackedCodes:
    """A code matrix packed into ``uint64`` words, ``pack_codes``'s result.

    Every field is ``width`` bits wide; each word holds ``64 // width``
    fields, column j in word ``j // (64 // width)``, and no field crosses a
    word boundary.  ``low`` has the low bit set of each field that counts:
    ``pack_codes`` marks every column, and a search may clear the bits of
    columns it no longer scores (``selectors.usqr`` does).
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
    """Pack each row of a code matrix (``check_codes``) into ``uint64``
    words, one field per column, all as wide as the bit length of the
    largest code."""
    codes = check_codes(codes)
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
    """One sort of a candidates x rows key matrix, one grouping per row of
    ``keys``: the row-wise order, the flat start of each group's run of
    sorted entries, and a groups x words array with the low bit of a field
    set where the group's rows disagree on that column.  Only the columns
    whose bit is set in ``packed.low`` are marked.  Groups run row after
    row, and each row's first entry always starts one, so no group spans
    two key rows.

    Rows sharing a key form one condition group, and grouping does not
    depend on the order inside a group, so the sort need not be stable.
    The AND and the OR of a group's words differ exactly in the bits where
    its rows disagree; a field with any such bit is OR-folded onto its low
    bit by adding its lower bits into its top bit.
    """
    order = np.argsort(keys, axis=1)
    sorted_keys = np.take_along_axis(keys, order, axis=1)
    first = np.ones(keys.shape, dtype=bool)
    np.not_equal(sorted_keys[:, 1:], sorted_keys[:, :-1], out=first[:, 1:])
    starts = np.flatnonzero(first)
    rows = packed.words[order.ravel()]
    diff = np.bitwise_and.reduceat(rows, starts) ^ np.bitwise_or.reduceat(rows, starts)
    top = np.uint64(packed.width - 1)
    rest = packed.low * np.uint64((1 << (packed.width - 1)) - 1)
    return order, starts, ((((diff & rest) + rest) | diff) >> top) & packed.low


def positive_total(groups, weights: np.ndarray, packed: PackedCodes) -> np.ndarray:
    """Positive-region weight of each grouping of ``pure_groups``' result
    ``groups``, summed over every packed column marked in ``packed.low``
    taken as the decision: one ``int64`` total per key row.

    A group lies in the positive region of column y iff all its rows agree
    on y, so one sort of the keys serves every column at once.
    ``weights`` counts the objects each row stands for.
    """
    order, starts, impure = groups
    pure = np.bitwise_count(~impure & packed.low).sum(axis=1, dtype=np.int64)
    group_weight = np.add.reduceat(weights[order].ravel(), starts)
    firsts = np.searchsorted(starts, np.arange(0, order.size, order.shape[1]))
    return np.add.reduceat(pure * group_weight, firsts)


def distinct_rows(table: DiscreteTable) -> tuple[np.ndarray, np.ndarray]:
    """The table's distinct rows and how many objects each stands for.

    Identical rows fall in the same group under every attribute subset,
    so a weighted distinct row scores exactly like its copies.  One
    ``np.unique`` of the rows' keys gives each first copy and its count.
    """
    _, first, counts = np.unique(_row_keys(table.codes), return_index=True, return_counts=True)
    return table.codes[first], counts


def gamma(table: DiscreteTable, p, q) -> Fraction:
    """Degree of dependency of q on p: |POS_p(q)| / |U|, as an exact rational."""
    cond = table.codes[:, column_indices(p, table.n_attrs)]
    dec = table.codes[:, column_indices(q, table.n_attrs)]
    if not dec.shape[1]:
        raise ValueError("decision attribute set q must be non-empty")
    packed = pack_codes(group_ids(dec)[:, None])
    ones = np.ones(table.n_objects, dtype=np.int64)
    pos = positive_total(pure_groups(group_ids(cond)[None], packed), ones, packed)
    return Fraction(int(pos[0]), table.n_objects)


def mean_dependency_exact(table: DiscreteTable, attrs) -> Fraction:
    """Mean of gamma(attrs -> {y}) over all attributes y, as an exact rational.

    Every attribute of the table serves in turn as a pseudo-decision,
    including members of attrs themselves (those contribute 1).
    """
    codes = table.codes[:, column_indices(attrs, table.n_attrs)]
    if not codes.shape[1]:
        raise ValueError("attribute subset must be non-empty")
    packed = pack_codes(table.codes)
    ones = np.ones(table.n_objects, dtype=np.int64)
    total = positive_total(pure_groups(group_ids(codes)[None], packed), ones, packed)
    return Fraction(int(total[0]), table.n_objects * table.n_attrs)


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
