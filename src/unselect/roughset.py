"""Rough set theory kernel.

Equivalence partitions over discrete attribute values, lower/upper
approximations, positive regions and dependency degrees, plus reduct
verification and an exhaustive minimal-reduct oracle.  Dependency values
are exact rationals (counts over the universe size), so reduct checks
compare integers, never floats.

Objects are grouped by one rule, ``group_ids`` (``eval``'s decision table
uses it too), and every dependency is counted by one scorer,
``positive_total``, on the group-id arrays: ``pure_groups`` sorts the
condition keys once, and a minimum and a maximum per group mark the groups
pure for every decision column at once.  Rows carry weights, so a search
may score the table's ``distinct_rows`` in place of their identical
copies; ``selectors.usqr`` does, and settles weight from the
``pure_groups`` matrix between rounds.
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
    definition is vacuous).  Each column refines the groups so far, and the
    ids stay dense and ordered like the code tuples.
    """
    ids = np.zeros(len(codes), dtype=np.int64)
    for j, b in enumerate(bins):
        _, ids = np.unique(ids * b + codes[:, j], return_inverse=True)
    return ids


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


def pure_groups(keys: np.ndarray, decisions: np.ndarray):
    """One stable sort of ``keys``: the row order, the start of each
    group's run of sorted rows, and a groups x columns mask that is true
    where every row of the group agrees on the column.

    Rows sharing a key form one condition group.  The minimum and maximum
    of a group's run of sorted rows are equal exactly on its pure columns.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    rows = decisions[order]
    return order, starts, np.minimum.reduceat(rows, starts) == np.maximum.reduceat(rows, starts)


def positive_total(keys: np.ndarray, weights: np.ndarray, decisions: np.ndarray) -> int:
    """Positive-region weight of the grouping ``keys``, summed over every
    column of ``decisions`` taken as the decision.

    A group lies in the positive region of column y iff all its rows agree
    on y, so one sort of the keys serves every column at once.
    ``weights`` counts the objects each row stands for.
    """
    order, starts, pure = pure_groups(keys, decisions)
    return int(pure.sum(axis=1) @ np.add.reduceat(weights[order], starts))


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
    pos = positive_total(group_ids(*cond), ones, group_ids(*dec)[:, None])
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
    total = positive_total(group_ids(codes, bins), ones, table.codes)
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
