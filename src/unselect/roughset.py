"""Rough set theory kernel.

Equivalence partitions over discrete attribute values, lower/upper
approximations, positive regions and dependency degrees, plus reduct
verification and an exhaustive minimal-reduct oracle.  Dependency values
are exact rationals (counts over the universe size), so reduct checks
compare integers, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .dataset import DiscreteTable, FeatureSubset

__all__ = [
    "Partition",
    "DependencyValue",
    "indiscernibility_partition",
    "lower_approximation",
    "upper_approximation",
    "positive_region",
    "gamma",
    "mean_dependency",
    "mean_dependency_exact",
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

    def to_debug_string(self) -> str:
        """Golden-test form, e.g. ``{0,1}|{2,3}``."""
        return "|".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)


@dataclass(frozen=True)
class DependencyValue:
    """gamma = |POS| / |U| held as exact counts next to the float view."""

    pos_count: int
    universe_size: int

    def __post_init__(self):
        if not 0 <= self.pos_count <= self.universe_size:
            raise ValueError("positive region cannot exceed the universe")

    @property
    def value(self) -> float:
        return self.pos_count / self.universe_size

    @property
    def exact(self) -> Fraction:
        return Fraction(self.pos_count, self.universe_size)


def _group_ids(table: DiscreteTable, attrs) -> np.ndarray:
    """Group id per object under the indiscernibility relation of attrs.

    Objects share an id iff they agree on every attribute in attrs; the
    empty set puts everything into one group (the condition in the
    indiscernibility definition is vacuous).
    """
    attrs = list(attrs)
    n = table.n_objects
    if not attrs:
        return np.zeros(n, dtype=np.int64)
    ids = table.codes[:, attrs[0]].astype(np.int64)
    for a in attrs[1:]:
        combo = ids * table.bins_per_attr[a] + table.codes[:, a]
        _, ids = np.unique(combo, return_inverse=True)
    return ids


def _check_attrs(table: DiscreteTable, subset) -> list[int]:
    attrs = list(subset)
    for a in attrs:
        if not 0 <= a < table.n_attrs:
            raise IndexError(
                f"attribute index {a} out of range for {table.n_attrs} attributes"
            )
    return attrs


def indiscernibility_partition(table: DiscreteTable, attrs: FeatureSubset) -> Partition:
    """U/IND(P): objects grouped by identical values on every attr in P."""
    return Partition.from_ids(_group_ids(table, _check_attrs(table, attrs)))


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


def _pos_count_ids(cond_ids: np.ndarray, dec_ids: np.ndarray) -> int:
    """|POS| from group-id arrays: objects in condition groups that are
    pure with respect to the decision grouping."""
    n_groups = int(cond_ids.max()) + 1
    lo = np.full(n_groups, np.iinfo(np.int64).max, dtype=np.int64)
    hi = np.full(n_groups, np.iinfo(np.int64).min, dtype=np.int64)
    np.minimum.at(lo, cond_ids, dec_ids)
    np.maximum.at(hi, cond_ids, dec_ids)
    counts = np.bincount(cond_ids, minlength=n_groups)
    return int(counts[lo == hi].sum())


def gamma(table: DiscreteTable, p, q) -> DependencyValue:
    """Degree of dependency of q on p: |POS_p(q)| / |U|."""
    p = _check_attrs(table, p)
    q = _check_attrs(table, q)
    if not q:
        raise ValueError("decision attribute set q must be non-empty")
    pos = _pos_count_ids(_group_ids(table, p), _group_ids(table, q))
    return DependencyValue(pos, table.n_objects)


def _mean_dependency_from_ids(table: DiscreteTable, cond_ids: np.ndarray) -> Fraction:
    """Average single-attribute dependency over every attribute of the table."""
    total = 0
    for y in range(table.n_attrs):
        total += _pos_count_ids(cond_ids, table.codes[:, y].astype(np.int64))
    return Fraction(total, table.n_objects * table.n_attrs)


def mean_dependency_exact(table: DiscreteTable, attrs) -> Fraction:
    """Mean of gamma(attrs -> {y}) over all attributes y, as an exact rational.

    Every attribute of the table serves in turn as a pseudo-decision,
    including members of attrs themselves (those contribute 1).
    """
    attrs = _check_attrs(table, attrs)
    if not attrs:
        raise ValueError("attribute subset must be non-empty")
    return _mean_dependency_from_ids(table, _group_ids(table, attrs))


def mean_dependency(table: DiscreteTable, attrs) -> float:
    """Float view of mean_dependency_exact."""
    return float(mean_dependency_exact(table, attrs))


def is_superreduct(table: DiscreteTable, subset) -> bool:
    """True iff the subset preserves the full attribute set's mean dependency.

    Both sides are rationals with denominator n*d, so the comparison is
    exact.
    """
    full = list(range(table.n_attrs))
    return mean_dependency_exact(table, subset) == mean_dependency_exact(table, full)


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
    target = mean_dependency_exact(table, range(d))
    for size in range(1, d + 1):
        found = [
            FeatureSubset(combo)
            for combo in combinations(range(d), size)
            if mean_dependency_exact(table, combo) == target
        ]
        if found:
            return sorted(found, key=lambda s: s.indices)
    raise AssertionError("full attribute set always preserves itself")
