import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unselect.dataset import DiscreteTable, FeatureSubset
from unselect.roughset import (
    DependencyValue,
    Partition,
    brute_force_min_reducts,
    distinct_rows,
    gamma,
    indiscernibility_partition,
    is_superreduct,
    lower_approximation,
    mean_dependency,
    mean_dependency_exact,
    positive_region,
    positive_total,
    upper_approximation,
)


def dtable(columns, bins=None):
    """Build a DiscreteTable from per-attribute code columns."""
    codes = np.asarray(columns, dtype=np.int64).T
    if bins is None:
        bins = tuple(int(codes[:, j].max()) + 1 for j in range(codes.shape[1]))
    names = tuple(f"a{j + 1}" for j in range(codes.shape[1]))
    return DiscreteTable(codes=codes, bins_per_attr=bins, attr_names=names)


def blocks(partition):
    return {frozenset(b) for b in partition.blocks}


# ---------------------------------------------------------------------------
# indiscernibility

def test_single_attribute_partition():
    t = dtable([[1, 1, 2, 2]])
    p = indiscernibility_partition(t, FeatureSubset((0,)))
    assert blocks(p) == {frozenset({0, 1}), frozenset({2, 3})}


def test_empty_attribute_set_is_coarsest():
    t = dtable([[1, 1, 2, 2]])
    p = indiscernibility_partition(t, FeatureSubset(()))
    assert blocks(p) == {frozenset({0, 1, 2, 3})}


def test_two_attributes_intersect_blockwise():
    t = dtable([[1, 1, 2, 2], [1, 2, 1, 2]])
    p = indiscernibility_partition(t, FeatureSubset((0, 1)))
    assert blocks(p) == {frozenset({i}) for i in range(4)}


def test_partition_canonical_form_and_debug_string():
    p = Partition(blocks=((3, 2), (1, 0)), universe_size=4)
    assert p.blocks == ((0, 1), (2, 3))
    assert p.to_debug_string() == "{0,1}|{2,3}"


def test_partition_rejects_overlap_and_gaps():
    with pytest.raises(ValueError):
        Partition(blocks=((0, 1), (1, 2)), universe_size=3)
    with pytest.raises(ValueError):
        Partition(blocks=((0,),), universe_size=2)


# ---------------------------------------------------------------------------
# approximations

P22 = Partition(blocks=((0, 1), (2, 3)), universe_size=4)


def test_lower_approximation_direct():
    assert lower_approximation(P22, {0, 1, 2}) == {0, 1}


def test_lower_approximation_universe_and_empty():
    assert lower_approximation(P22, {0, 1, 2, 3}) == {0, 1, 2, 3}
    assert lower_approximation(P22, set()) == set()


def test_upper_approximation_direct():
    assert upper_approximation(P22, {0}) == {0, 1}
    assert upper_approximation(P22, set()) == set()


def test_upper_approximation_discrete_partition_is_identity():
    singletons = Partition(blocks=((0,), (1,), (2,)), universe_size=3)
    assert upper_approximation(singletons, {0, 2}) == {0, 2}


# ---------------------------------------------------------------------------
# positive region and gamma

def test_positive_region_singleton_condition_blocks():
    singles = Partition(blocks=((0,), (1,), (2,), (3,)), universe_size=4)
    dec = Partition(blocks=((0, 1), (2, 3)), universe_size=4)
    assert positive_region(singles, dec) == {0, 1, 2, 3}


def test_positive_region_one_condition_block():
    whole = Partition(blocks=((0, 1, 2, 3),), universe_size=4)
    dec = Partition(blocks=((0, 1), (2, 3)), universe_size=4)
    assert positive_region(whole, dec) == set()


def test_positive_region_hand_enumerated():
    # lower approximations per decision block: {0,1} u {2} inside {0,1,2},
    # {3} inside {3} -> everything is positive
    cond = Partition(blocks=((0, 1), (2,), (3,)), universe_size=4)
    dec = Partition(blocks=((0, 1, 2), (3,)), universe_size=4)
    assert positive_region(cond, dec) == {0, 1, 2, 3}


def test_positive_region_universe_mismatch():
    small = Partition(blocks=((0,),), universe_size=1)
    with pytest.raises(ValueError):
        positive_region(P22, small)


def test_gamma_reflexive_is_one():
    t = dtable([[0, 1, 0, 2]])
    g = gamma(t, FeatureSubset((0,)), FeatureSubset((0,)))
    assert g.value == 1.0 and g.pos_count == 4


def test_gamma_empty_condition_two_classes():
    t = dtable([[0, 1, 0, 1]])
    g = gamma(t, FeatureSubset(()), FeatureSubset((0,)))
    assert g.value == 0.0


def test_gamma_hand_verified_half():
    # blocks of a: {0,1} fits inside decision class {0,1,2}; {2,3} spans both
    t = dtable([[1, 1, 2, 2], [1, 1, 1, 2]])
    g = gamma(t, FeatureSubset((0,)), FeatureSubset((1,)))
    assert g.pos_count == 2 and g.universe_size == 4
    assert g.exact == Fraction(1, 2)


def test_gamma_rejects_empty_decision():
    t = dtable([[0, 1]])
    with pytest.raises(ValueError):
        gamma(t, FeatureSubset((0,)), FeatureSubset(()))


def ones(n):
    return np.ones(n, dtype=np.int64)


def test_positive_total_reflexive_is_every_object():
    col = np.array([0, 1, 0, 2])
    assert positive_total(col, ones(4), col[:, None]) == 4


def test_positive_total_one_group_two_classes_is_zero():
    assert positive_total(np.zeros(4, dtype=np.int64), ones(4),
                          np.array([[0], [1], [0], [1]])) == 0


def test_positive_total_hand_verified_half():
    # groups {0,1} and {2,3}; only the first agrees on the decision
    keys = np.array([1, 1, 2, 2])
    assert positive_total(keys, ones(4), np.array([[1], [1], [1], [2]])) == 2


def test_positive_total_sums_columns_and_weights():
    # groups {0,1}, {2} with weights 1, 1, 2: column 0 is pure in both
    # (weight 4), column 1 only in the singleton (weight 2)
    keys = np.array([7, 7, 3])
    decisions = np.array([[0, 0], [0, 1], [1, 1]])
    assert positive_total(keys, np.array([1, 1, 2]), decisions) == 4 + 2


def test_positive_total_ignores_key_order_and_gaps():
    keys = np.array([9, 2, 9, 2, 40])
    decisions = np.array([[1], [0], [1], [1], [5]])
    assert positive_total(keys, ones(5), decisions) == 3


def test_distinct_rows_weighted_score_like_their_copies():
    rng = np.random.default_rng(19)
    for _ in range(100):
        t = random_table(rng)
        codes = t.codes[rng.integers(0, t.n_objects, size=2 * t.n_objects)]
        t = DiscreteTable(codes=codes, bins_per_attr=t.bins_per_attr,
                          attr_names=t.attr_names)
        rows, weights = distinct_rows(t)
        assert weights.sum() == t.n_objects
        assert len({tuple(r) for r in rows.tolist()}) == len(rows)
        attrs = [a for a in range(t.n_attrs) if rng.random() < 0.5]
        cond = [tuple(r[a] for a in attrs) for r in rows.tolist()]
        keys = np.unique(np.asarray(cond).reshape(len(rows), -1), axis=0,
                         return_inverse=True)[1].ravel()
        want = sum(naive_gamma(t.codes.tolist(), attrs, [y]) for y in range(t.n_attrs))
        assert positive_total(keys, weights, rows) == want * t.n_objects


def test_dependency_value_exact_matches_float():
    v = DependencyValue(pos_count=2, universe_size=3)
    assert abs(v.value - float(v.exact)) < 1e-15


# ---------------------------------------------------------------------------
# mean dependency and reducts

def test_mean_dependency_full_set_is_one():
    t = dtable([[0, 1, 2], [2, 1, 0], [1, 1, 1]])
    assert mean_dependency_exact(t, range(3)) == 1


def test_mean_dependency_single_attribute_table():
    t = dtable([[0, 1, 0]])
    assert mean_dependency(t, [0]) == 1.0


def test_mean_dependency_hand_computed():
    t = dtable([[1, 1, 2, 2], [1, 1, 1, 2]])
    assert mean_dependency_exact(t, [0]) == Fraction(3, 4)


def test_mean_dependency_rejects_empty():
    t = dtable([[0, 1]])
    with pytest.raises(ValueError):
        mean_dependency(t, [])


def test_is_superreduct_full_set():
    t = dtable([[0, 1, 1], [1, 0, 1]])
    assert is_superreduct(t, range(2))


def test_is_superreduct_ignores_duplicate_column():
    t = dtable([[0, 1, 2, 0], [0, 1, 2, 0], [1, 1, 0, 0]])
    assert is_superreduct(t, [0, 2])


def test_is_superreduct_false_when_discernibility_lost():
    # only the third column separates objects 0 and 1
    t = dtable([[0, 0, 1], [0, 0, 1], [0, 1, 0]])
    assert not is_superreduct(t, [0, 1])
    assert is_superreduct(t, [0, 1, 2])


def test_brute_force_single_informative_column():
    t = dtable([[5, 5, 5], [5, 5, 5], [0, 1, 2]])
    assert brute_force_min_reducts(t) == [FeatureSubset((2,))]


def test_brute_force_symmetric_duplicates():
    t = dtable([[0, 1, 2], [0, 1, 2], [0, 0, 0]])
    assert brute_force_min_reducts(t) == [FeatureSubset((0,)), FeatureSubset((1,))]


def test_brute_force_refuses_large_tables():
    t = DiscreteTable(
        codes=np.zeros((2, 21), dtype=np.int64),
        bins_per_attr=(1,) * 21,
        attr_names=tuple(f"a{j}" for j in range(21)),
    )
    with pytest.raises(ValueError):
        brute_force_min_reducts(t)


# Independent oracle: dict-based grouping and block containment, sharing no
# code with the numpy group-id implementation.

def naive_blocks(codes, attrs):
    groups = {}
    for i, row in enumerate(codes):
        key = tuple(row[a] for a in attrs)
        groups.setdefault(key, set()).add(i)
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


def test_brute_force_matches_independent_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = rng.integers(2, 7)
        d = rng.integers(1, 5)
        codes = rng.integers(0, 2, size=(n, d))
        t = DiscreteTable(
            codes=codes,
            bins_per_attr=(2,) * d,
            attr_names=tuple(f"a{j}" for j in range(d)),
        )
        got = [s.indices for s in brute_force_min_reducts(t)]
        want = naive_min_reducts(codes.tolist())
        assert got == want


# ---------------------------------------------------------------------------
# laws

def random_table(rng, n_max=10, d_max=8, bins_max=3):
    n = int(rng.integers(1, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    bins = int(rng.integers(1, bins_max + 1))
    codes = rng.integers(0, bins, size=(n, d))
    return DiscreteTable(
        codes=codes,
        bins_per_attr=(bins,) * d,
        attr_names=tuple(f"a{j}" for j in range(d)),
    )


def test_partition_refinement_law():
    rng = np.random.default_rng(11)
    for _ in range(100):
        t = random_table(rng)
        attrs = list(range(t.n_attrs))
        rng.shuffle(attrs)
        cut = rng.integers(0, len(attrs) + 1)
        p = attrs[:cut]
        pq = attrs
        fine = indiscernibility_partition(t, FeatureSubset(tuple(pq)))
        coarse = indiscernibility_partition(t, FeatureSubset(tuple(p)))
        coarse_sets = [set(b) for b in coarse.blocks]
        for block in fine.blocks:
            assert any(set(block) <= c for c in coarse_sets)


def test_gamma_and_mean_dependency_monotonicity():
    rng = np.random.default_rng(13)
    for _ in range(100):
        t = random_table(rng)
        if t.n_attrs < 2:
            continue
        d = t.n_attrs
        q = [int(rng.integers(0, d))]
        attrs = [a for a in range(d)]
        rng.shuffle(attrs)
        base = attrs[: rng.integers(0, d)]
        extra = next(a for a in range(d) if a not in base)
        assert (
            gamma(t, base, q).exact <= gamma(t, base + [extra], q).exact
        )
        if base:
            assert mean_dependency_exact(t, base) <= mean_dependency_exact(
                t, base + [extra]
            )


def test_lower_subset_upper_sandwich():
    rng = np.random.default_rng(17)
    for _ in range(100):
        t = random_table(rng)
        p = indiscernibility_partition(t, FeatureSubset(tuple(range(t.n_attrs))))
        x = {int(i) for i in rng.integers(0, t.n_objects, size=t.n_objects // 2 + 1)}
        lo = lower_approximation(p, x)
        hi = upper_approximation(p, x)
        assert lo <= x <= hi


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_positive_region_count_identity(data):
    n = data.draw(st.integers(2, 8))
    d = data.draw(st.integers(1, 4))
    rows = data.draw(
        st.lists(
            st.lists(st.integers(0, 2), min_size=d, max_size=d),
            min_size=n,
            max_size=n,
        )
    )
    t = DiscreteTable(
        codes=np.asarray(rows),
        bins_per_attr=(3,) * d,
        attr_names=tuple(f"a{j}" for j in range(d)),
    )
    cond = indiscernibility_partition(t, FeatureSubset((0,)))
    dec = indiscernibility_partition(t, FeatureSubset(tuple(range(d))))
    pos = positive_region(cond, dec)
    total = sum(len(lower_approximation(cond, set(b))) for b in dec.blocks)
    assert len(pos) == total
