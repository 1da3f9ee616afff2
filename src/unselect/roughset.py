"""Rough set theory kernel.

Equivalence partitions over discrete attribute values, lower/upper
approximations, positive regions and dependency degrees, plus reduct
verification, an exhaustive minimal-reduct oracle and the greedy reduct
search USQR.  Dependency values are exact rationals (counts over the
universe size), so reduct checks compare integers, never floats.

Every code matrix the kernel takes passes ``dataset.check_codes``, the
rule ``DiscreteTable`` holds its codes to as well: 2-D, integers that
int64 holds, none negative.  A float or negative code would fold into a
colliding key, so it is a ``ValueError``, never a wrong group.  Column
picks are checked by ``dataset.column_indices``, the rule ``project``
uses.  Objects are grouped by one rule, ``group_ids`` (``eval``'s decision
table uses it too): the columns fold into one mixed-radix key, ranked by
one ``np.unique``.  Each column's radix is its largest code + 1, read from
the codes by ``_key_radixes``, the one guard that keeps every key within
int64.  Every dependency is counted by one scorer, ``_score``: the
decision columns are packed into ``uint64`` words (``_pack_codes``), one
sort orders each row of a candidates x rows key matrix, and the AND and
the OR of each group's words mark every column the group's rows disagree
on, for all decision columns at once.  ``gamma`` and
``mean_dependency_exact`` score a single key row; ``usqr`` scores batches
of candidates, on the table's ``distinct_rows`` weighted by their copies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    "group_ids",
    "distinct_rows",
    "is_superreduct",
    "brute_force_min_reducts",
    "usqr",
]

BRUTE_FORCE_MAX_ATTRS = 20
_SCORE_CELLS = 2**14    # packed words one _score call of usqr may gather
_NARROW = 2**16         # a usqr round whose keys all lie below it sorts them as uint16


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


def _key_radixes(codes: np.ndarray) -> tuple[np.ndarray, list[int]]:
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
    with the radixes of ``_key_radixes``; before the key could pass
    ``_KEY_LIMIT`` it is compressed to its dense rank, which lies below the
    row count.
    """
    codes, radixes = _key_radixes(codes)
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
class _PackedCodes:
    """A code matrix packed into ``uint64`` words, ``_pack_codes``'s result.

    Every field is ``width`` bits wide; each word holds ``64 // width``
    fields, column j in word ``j // (64 // width)``, and no field crosses a
    word boundary.  ``low`` has the low bit set of each field that counts:
    ``_pack_codes`` marks every column, and a search may clear the bits of
    columns it no longer scores (``usqr`` does).
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


def _pack_codes(codes: np.ndarray) -> _PackedCodes:
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
    return _PackedCodes(words, low, width, d)


def _score(keys: np.ndarray, weights: np.ndarray, packed: _PackedCodes):
    """Positive-region weight of each row of a candidates x rows key
    matrix, summed over every packed column marked in ``packed.low`` taken
    as the decision: one ``int64`` total per key row, and the grouping
    that gave it.  ``weights`` counts the objects each row stands for.

    The grouping is one sort of the keys: the row-wise order, the flat
    start of each group's run of sorted entries, and a groups x words
    array with the low bit of a field set where the group's rows disagree
    on that column.  Only the columns whose bit is set in ``packed.low``
    are marked.  Groups run row after row, and each row's first entry
    always starts one, so no group spans two key rows.

    Rows sharing a key form one condition group, and grouping does not
    depend on the order inside a group, so any sort serves.  ``uint16``
    keys (``usqr``'s narrow rounds) are sorted with ``kind="stable"``,
    which is numpy's O(n) radix sort for 16-bit integers; every other
    dtype takes numpy's default sort.
    The AND and the OR of a group's words differ exactly in the bits where
    its rows disagree; a field with any such bit is OR-folded onto its low
    bit by adding its lower bits into its top bit.  A group lies in the
    positive region of column y iff all its rows agree on y, so one sort
    of the keys serves every column at once.
    """
    order = np.argsort(keys, axis=1, kind="stable" if keys.dtype == np.uint16 else None)
    sorted_keys = np.take_along_axis(keys, order, axis=1)
    first = np.ones(keys.shape, dtype=bool)
    np.not_equal(sorted_keys[:, 1:], sorted_keys[:, :-1], out=first[:, 1:])
    starts = np.flatnonzero(first)
    rows = packed.words[order.ravel()]
    diff = np.bitwise_and.reduceat(rows, starts) ^ np.bitwise_or.reduceat(rows, starts)
    top = np.uint64(packed.width - 1)
    rest = packed.low * np.uint64((1 << (packed.width - 1)) - 1)
    impure = ((((diff & rest) + rest) | diff) >> top) & packed.low
    pure = np.bitwise_count(~impure & packed.low).sum(axis=1, dtype=np.int64)
    group_weight = np.add.reduceat(weights[order].ravel(), starts)
    firsts = np.searchsorted(starts, np.arange(0, order.size, order.shape[1]))
    return np.add.reduceat(pure * group_weight, firsts), (order, starts, impure)


def distinct_rows(table: DiscreteTable) -> tuple[np.ndarray, np.ndarray]:
    """The table's distinct rows and how many objects each stands for.

    Identical rows fall in the same group under every attribute subset,
    so a weighted distinct row scores exactly like its copies.  One
    ``argsort`` of the rows' keys (``_row_keys``) puts the copies of a row
    in one run; each run gives one of its copies, in key order, and its
    length.  Which copy does not matter: all copies have the same codes.
    """
    keys = _row_keys(table.codes)
    order = np.argsort(keys)
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1))     # keys are >= 0
    return table.codes[order[starts]], np.diff(starts, append=len(keys))


def _dependency(cond: np.ndarray, dec: np.ndarray) -> Fraction:
    """The positive region of the ``cond`` columns' groups, summed over
    every column of ``dec`` taken as the decision, over the universe size
    times the decision columns: an exact rational."""
    n = len(dec)
    totals, _ = _score(group_ids(cond)[None], np.ones(n, dtype=np.int64), _pack_codes(dec))
    return Fraction(int(totals[0]), n * dec.shape[1])


def gamma(table: DiscreteTable, p, q) -> Fraction:
    """Degree of dependency of q on p: |POS_p(q)| / |U|, as an exact rational."""
    cond = table.codes[:, column_indices(p, table.n_attrs)]
    dec = table.codes[:, column_indices(q, table.n_attrs)]
    if not dec.shape[1]:
        raise ValueError("decision attribute set q must be non-empty")
    return _dependency(cond, group_ids(dec)[:, None])


def mean_dependency_exact(table: DiscreteTable, attrs) -> Fraction:
    """Mean of gamma(attrs -> {y}) over all attributes y, as an exact rational.

    Every attribute of the table serves in turn as a pseudo-decision,
    including members of attrs themselves (those contribute 1).
    """
    codes = table.codes[:, column_indices(attrs, table.n_attrs)]
    if not codes.shape[1]:
        raise ValueError("attribute subset must be non-empty")
    return _dependency(codes, table.codes)


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


def usqr(table: DiscreteTable) -> FeatureSubset:
    """Unsupervised QuickReduct: greedy forward search on mean dependency.

    Starting from the empty set, each round adds the attribute whose
    addition gives the greatest mean dependency over all attributes as
    pseudo-decisions (ties to the lowest index; when no candidate strictly
    improves, the best one is still added so the search always reaches the
    stopping condition).  Stops when the subset's mean dependency equals
    the full set's, which is always 1.

    Every mean dependency shares the denominator n*d, so the search
    compares integer positive-region totals and stops at total n*d.  It
    works on the distinct rows weighted by their counts, and on the group
    ids of the chosen subset: a candidate x only refines those groups, by
    the key ``ids * radix + code`` of x, with the radixes read from the
    codes once per search (``_key_radixes``), so no key wraps.  Every key
    of a round lies below the previous round's group count times the
    largest live radix; where that bound is at most 2^16 the round builds
    its keys in ``uint16``, which ``_score`` sorts by radix (``uint16``
    arithmetic is exact modulo 2^16, and each key lies below it), and
    otherwise in ``int64``.  The code columns are held as ``uint16`` when
    every radix is at most 2^16.
    The rows are packed into words once per search (``_pack_codes``),
    and the set low bits of ``packed.low`` mark the live columns: the
    pseudo-decisions every candidate is scored on, and the candidates.
    A round scores its candidates in ascending index order, in batches of
    ``_SCORE_CELLS // packed.words.size`` (at least one): one ``_score``
    sort of a batch's candidates x rows key matrix gives each candidate's
    total.  The first of a batch's ties wins it, and a later batch must
    beat the best so far, so ties go to the lowest index; a batch that
    reaches n*d ends the round.  The winner's slice of its batch's sort
    then gives the new dense group ids and marks, per group, the live
    columns its rows disagree on, which settles the weight no refinement
    can change and takes it out of every later round:

    - a group with no such column settles its rows, with ``len(live)``
      times their weight, and they leave the ids, code columns, weights and
      packed words.  It holds exactly one row (the positive-approximation
      accelerator): rows are distinct, and rows of one group already agree
      on every chosen and settled column;
    - a column no group disagrees on settles on the rows left: the OR of
      every group's flags, the new ``packed.low``, drops its bit.

    A settled column also stops being a candidate.  Adding it would leave
    the groups, and so the total, as they are, while adding any column
    that is still live splits a group it varies in and raises the total,
    so a settled column could never win a round.  The chosen attribute
    settles in the round that adds it, so the live columns are exactly the
    candidates left.

    The subset carries its ``rounds``: per round the attribute added, the
    total after it and the number of candidates the round needed: every
    live one or, in the round that reaches n*d, those up to and including
    the winner.  It does not depend on the batch width.  The last total is
    n*d.
    """
    codes, weights = distinct_rows(table)
    codes, radixes = _key_radixes(codes)
    packed = _pack_codes(codes)
    radixes = np.array(radixes)[:, None]
    columns = codes.T.astype(np.uint16 if radixes.max() <= _NARROW else np.int64)
    target = table.n_objects * table.n_attrs
    ids = np.zeros(len(weights), dtype=np.int64)
    n_groups = 1        # every id lies below it
    settled = 0
    chosen: list[int] = []
    rounds: list[tuple[int, int, int]] = []
    while True:
        live = np.flatnonzero(packed.columns(packed.low))
        width = max(1, _SCORE_CELLS // packed.words.size)
        best_total, needed = -1, len(live)
        # every key of the round lies below n_groups * its largest live radix
        key_type = np.uint16 if n_groups * int(radixes[live].max()) <= _NARROW else np.int64
        round_ids, round_radixes = ids.astype(key_type, copy=False), radixes.astype(key_type)
        for lo in range(0, len(live), width):
            batch = live[lo:lo + width]
            keys = round_ids * round_radixes[batch]
            # a uint16 round's codes lie below 2^16, so the cast is exact
            np.add(keys, columns[batch], out=keys, casting="unsafe")
            totals, groups = _score(keys, weights, packed)
            totals += settled
            i = int(np.argmax(totals))      # the first of a batch's ties
            if totals[i] > best_total:      # a later batch must beat it
                best, best_total, best_row, best_groups = int(batch[i]), int(totals[i]), i, groups
            if best_total == target:        # no later candidate can exceed it
                needed = lo + i + 1
                break
        chosen.append(best)
        rounds.append((best, best_total, needed))
        if best_total == target:
            return FeatureSubset(tuple(chosen), rounds=tuple(rounds))
        # the winner's slice of its batch's sort: its groups start at row
        # best_row * n of the flat starts
        n = len(ids)
        order, starts, impure = best_groups
        lo, hi = np.searchsorted(starts, [best_row * n, best_row * n + n])
        order, starts, impure = order[best_row], starts[lo:hi] - best_row * n, impure[lo:hi]
        # dense ids ranked like the keys, so row g of the flags is group g
        ids = np.empty_like(ids)
        n_groups = len(starts)
        ids[order] = np.repeat(np.arange(n_groups), np.diff(starts, append=n))
        keep = impure.any(axis=1)[ids]
        settled += len(live) * int(weights[~keep].sum())
        ids, columns, weights = ids[keep], columns[:, keep], weights[keep]
        packed = replace(packed, words=packed.words[keep], low=np.bitwise_or.reduce(impure))
        settled += (len(live) - int(np.bitwise_count(packed.low).sum())) * int(weights.sum())
