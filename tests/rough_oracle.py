"""The tests' independent rough-set oracle: dict grouping and block
containment, sharing no code with the package's group-id kernel, plus
``dtable`` to build small discrete tables by column."""

import itertools
from fractions import Fraction

import numpy as np

from unselect.dataset import DiscreteTable


def dtable(columns):
    """A DiscreteTable from per-attribute code columns, each attribute with
    one bin more than its largest code."""
    codes = np.asarray(columns, dtype=np.int64).T
    bins = tuple(int(codes[:, j].max()) + 1 for j in range(codes.shape[1]))
    names = tuple(f"a{j + 1}" for j in range(codes.shape[1]))
    return DiscreteTable(codes=codes, bins_per_attr=bins, attr_names=names)


def naive_blocks(codes, attrs):
    groups = {}
    for i, row in enumerate(codes):
        groups.setdefault(tuple(row[a] for a in attrs), set()).add(i)
    return list(groups.values())


def naive_gamma(codes, p, q):
    cond = naive_blocks(codes, p)
    dec = naive_blocks(codes, q)
    pos = set()
    for dec_block in dec:
        for cond_block in cond:
            if cond_block <= dec_block:
                pos |= cond_block
    return Fraction(len(pos), len(codes))


def naive_mean_dependency(codes, attrs):
    d = len(codes[0])
    return sum(naive_gamma(codes, attrs, [y]) for y in range(d)) / d


def naive_min_reducts(codes):
    d = len(codes[0])
    full = naive_mean_dependency(codes, list(range(d)))
    for size in range(1, d + 1):
        hits = [
            combo
            for combo in itertools.combinations(range(d), size)
            if naive_mean_dependency(codes, list(combo)) == full
        ]
        if hits:
            return hits
    raise AssertionError
