from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unselect.dataset import DataTable, DiscreteTable, FeatureSubset, project
from unselect.roughset import (
    Partition,
    brute_force_min_reducts,
    distinct_rows,
    gamma,
    group_ids,
    indiscernibility_partition,
    is_superreduct,
    lower_approximation,
    mean_dependency_exact,
    positive_region,
    upper_approximation,
)
from unselect.roughset import _key_radixes, _pack_codes, _score

from rough_oracle import dtable, naive_blocks, naive_gamma


def blocks(partition):
    return {frozenset(b) for b in partition.blocks}


# ---------------------------------------------------------------------------
# indiscernibility

def test_single_attribute_partition():
    t = dtable([[1, 1, 2, 2]])
    p = indiscernibility_partition(t, FeatureSubset((0,)))
    assert blocks(p) == {frozenset({0, 1}), frozenset({2, 3})}


@st.composite
def code_matrices(draw):
    """An n x (0-4) code matrix and its bin counts; a 1-bin column is constant."""
    n = draw(st.integers(1, 30))
    bins = draw(st.lists(st.integers(1, 3), max_size=4))
    columns = [draw(st.lists(st.integers(0, b - 1), min_size=n, max_size=n)) for b in bins]
    return np.array(columns, dtype=np.int64).reshape(len(bins), n).T, bins


@settings(max_examples=200, deadline=None)
@given(code_matrices())
def test_group_ids_are_the_oracle_blocks_in_code_tuple_order(case):
    codes, bins = case
    ids = group_ids(codes)
    oracle = naive_blocks(codes.tolist(), range(len(bins)))
    assert {frozenset(np.flatnonzero(ids == g).tolist()) for g in set(ids.tolist())} \
        == {frozenset(b) for b in oracle}
    keys = list(map(tuple, codes.tolist()))
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    assert ids.tolist() == [rank[key] for key in keys]


def test_empty_attribute_set_is_coarsest():
    t = dtable([[1, 1, 2, 2]])
    p = indiscernibility_partition(t, FeatureSubset(()))
    assert blocks(p) == {frozenset({0, 1, 2, 3})}


def test_two_attributes_intersect_blockwise():
    t = dtable([[1, 1, 2, 2], [1, 2, 1, 2]])
    p = indiscernibility_partition(t, FeatureSubset((0, 1)))
    assert blocks(p) == {frozenset({i}) for i in range(4)}


def test_partition_canonical_form():
    p = Partition(blocks=((3, 2), (1, 0)), universe_size=4)
    assert p.blocks == ((0, 1), (2, 3))


def test_partition_rejects_overlap_and_gaps():
    with pytest.raises(ValueError):
        Partition(blocks=((0, 1), (1, 2)), universe_size=3)
    with pytest.raises(ValueError):
        Partition(blocks=((0,),), universe_size=2)
    with pytest.raises(ValueError, match=r"^empty block in partition$"):
        Partition(blocks=((0,), ()), universe_size=1)


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


@pytest.mark.parametrize("approximation", [lower_approximation, upper_approximation])
def test_an_approximation_refuses_a_set_outside_the_universe(approximation):
    with pytest.raises(ValueError, match=r"^x must be a subset of the universe$"):
        approximation(P22, {0, 4})


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
    assert g == 1


def test_gamma_empty_condition_two_classes():
    t = dtable([[0, 1, 0, 1]])
    g = gamma(t, FeatureSubset(()), FeatureSubset((0,)))
    assert g == 0


def test_gamma_hand_verified_half():
    # blocks of a: {0,1} fits inside decision class {0,1,2}; {2,3} spans both
    t = dtable([[1, 1, 2, 2], [1, 1, 1, 2]])
    g = gamma(t, FeatureSubset((0,)), FeatureSubset((1,)))
    assert isinstance(g, Fraction) and g == Fraction(1, 2)


def test_gamma_rejects_empty_decision():
    t = dtable([[0, 1]])
    with pytest.raises(ValueError):
        gamma(t, FeatureSubset((0,)), FeatureSubset(()))


def test_an_attribute_index_past_the_table_is_one_error_for_kernel_and_project():
    # the kernel and project check a column pick by one rule, in one text
    codes = dtable([[0, 1]])
    values = DataTable(values=np.zeros((2, 1)), attr_names=("a1",))
    with pytest.raises(IndexError) as kernel:
        gamma(codes, (5,), (0,))
    with pytest.raises(IndexError) as table:
        project(values, FeatureSubset((5,)))
    assert str(kernel.value) == str(table.value)
    assert "5" in str(kernel.value)


def ones(n):
    return np.ones(n, dtype=np.int64)


def scores(keys, weights, packed):
    """The totals of a key matrix (a single key row may be 1-D), scored by
    one _score sort."""
    totals, _ = _score(np.atleast_2d(keys), weights, packed)
    assert totals.dtype == np.int64
    return totals.tolist()


def test_positive_total_reflexive_is_every_object():
    col = np.array([0, 1, 0, 2])
    assert scores(col, ones(4), _pack_codes(col[:, None])) == [4]


def test_positive_total_one_group_two_classes_is_zero():
    assert scores(np.zeros(4, dtype=np.int64), ones(4),
                  _pack_codes(np.array([[0], [1], [0], [1]]))) == [0]


def test_positive_total_hand_verified_half():
    # groups {0,1} and {2,3}; only the first agrees on the decision
    keys = np.array([1, 1, 2, 2])
    assert scores(keys, ones(4), _pack_codes(np.array([[1], [1], [1], [2]]))) == [2]


def test_positive_total_sums_columns_and_weights():
    # groups {0,1}, {2} with weights 1, 1, 2: column 0 is pure in both
    # (weight 4), column 1 only in the singleton (weight 2)
    keys = np.array([7, 7, 3])
    decisions = np.array([[0, 0], [0, 1], [1, 1]])
    assert scores(keys, np.array([1, 1, 2]), _pack_codes(decisions)) == [4 + 2]


def test_positive_total_ignores_key_order_and_gaps():
    keys = np.array([9, 2, 9, 2, 40])
    decisions = np.array([[1], [0], [1], [1], [5]])
    assert scores(keys, ones(5), _pack_codes(decisions)) == [3]


def test_positive_total_scores_each_key_row_alone():
    # each sorted row ends on the key the next one starts with, yet every
    # row's first entry starts a group: row 0 splits {0,1} from {2}, row 1
    # puts every object in one group, and row 2 gives each its own
    keys = np.array([[5, 5, 6], [6, 6, 6], [8, 7, 6]])
    decisions = np.array([[0], [0], [1]])
    assert scores(keys, np.array([1, 2, 4]), _pack_codes(decisions)) == [7, 0, 7]


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
        assert scores(keys, weights, _pack_codes(rows)) == [want * t.n_objects]


def pooled_rows(draw, n, tops):
    """n rows drawn from a smaller pool; column j takes 1-3 codes in
    [0, tops[j]], and the first row holds tops[0]."""
    palettes = [draw(st.lists(st.integers(0, top), min_size=1, max_size=3, unique=True))
                for top in tops]
    pool = [[draw(st.sampled_from(v)) for v in palettes]
            for _ in range(draw(st.integers(1, n)))]
    if tops:
        pool[0][0] = tops[0]
    rows = [pool[0]] + [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n - 1)]
    return np.array(rows, dtype=np.int64).reshape(n, len(tops))


@st.composite
def scored_groupings(draw):
    """1-4 rows of unsorted condition keys with gaps, each row drawn from
    its own pool, row weights and a decision matrix whose largest code has
    bit length ``width``; the column count may fill a word exactly or cross
    into the next one.  Or, with ``as_ids``, the decision is one column of
    the rows' group ids over all those columns, as ``gamma`` scores a
    decision set."""
    width = draw(st.sampled_from([*range(1, 11), 62, 63]))
    per = 64 // width
    d = draw(st.sampled_from([per, per + 1]) | st.integers(1, min(40, 2 * per + 1)))
    n = draw(st.integers(1, 30))
    key_rows = []
    for _ in range(draw(st.integers(1, 4))):
        pool = draw(st.lists(st.integers(0, 2**62), min_size=1, max_size=4, unique=True))
        key_rows.append([draw(st.sampled_from(pool)) for _ in range(n)])
    keys = np.array(key_rows, dtype=np.int64)
    weights = np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    decisions = pooled_rows(draw, n, [2**width - 1] * d)
    return keys, weights, decisions, width, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(scored_groupings())
def test_positive_total_of_packed_codes_counts_like_the_oracle(case):
    keys, weights, decisions, width, as_ids = case
    n, d = decisions.shape
    if as_ids:
        ids = np.unique(decisions, axis=0, return_inverse=True)[1]
        packed = _pack_codes(ids.reshape(n, 1))
    else:
        packed = _pack_codes(decisions)
        assert packed.width == width and packed.n_cols == d
        assert packed.words.shape == (n, -(-d // (64 // width)))
    want = []
    for row in keys.tolist():
        objects = [[k] + r for k, r, w in zip(row, decisions.tolist(), weights)
                   for _ in range(w)]
        if as_ids:
            want.append(naive_gamma(objects, [0], range(1, d + 1)) * len(objects))
        else:
            want.append(sum(naive_gamma(objects, [0], [1 + y]) for y in range(d)) * len(objects))
    assert scores(keys, weights, packed) == want


@pytest.mark.parametrize("bins", [(3, 2**62), (2**62, 2**62, 2), (2**40, 2**40)])
def test_group_ids_of_bin_counts_near_2_to_62_rank_like_the_code_tuples(bins):
    # a key folded from these codes' radixes would wrap in int64; the
    # columns ranked in its place are copies
    rng = np.random.default_rng(29)
    columns = [rng.choice([0, 1, b // 3, b - 2, b - 1], size=40) for b in bins]
    codes = np.array(columns, dtype=np.int64).T
    keys = list(map(tuple, codes.tolist()))
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    assert group_ids(codes).tolist() == [rank[key] for key in keys]
    assert list(map(tuple, codes.tolist())) == keys


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2500), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_key_radixes_are_each_columns_largest_code_plus_one(n, d, seed):
    # tall tables are reduced in blocks of rows, so the largest code may sit
    # in a block or in the rows after the last whole block
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 4, size=(n, d))
    if n and d:
        codes[rng.integers(0, n, size=d), np.arange(d)] = rng.integers(4, 9, size=d)
    ranked, radixes = _key_radixes(codes)
    assert radixes == [int(codes[:, j].max(initial=0)) + 1 for j in range(d)]
    assert ranked is codes


# the three readers of a code matrix, each test id its name without a
# leading underscore
code_readers = pytest.mark.parametrize("fn", [_key_radixes, group_ids, _pack_codes],
                                       ids=["key_radixes", "group_ids", "pack_codes"])


@code_readers
def test_a_negative_code_is_refused_naming_its_cell(fn):
    # a negative code folds into a colliding key (the two rows of the first
    # matrix would share a group), and a packed -1 sets every bit of its word
    # (the second's rows would disagree on column 2, where they agree)
    with pytest.raises(ValueError, match=r"-1 at row 1, column 2"):
        fn(np.array([[1, -1], [0, 1]]))
    with pytest.raises(ValueError, match=r"-1 at row 1, column 1"):
        fn(np.array([[-1, 0], [0, 0]]))


@code_readers
def test_a_code_dtype_int64_cannot_hold_is_refused_by_name(fn):
    # folded, both rows would key to 1.5 and share a group; packed, every
    # cell would be truncated to an integer
    with pytest.raises(ValueError, match="float64"):
        fn(np.array([[0, 1.5], [0.75, 0]]))
    # an int64 key times a radix plus a uint64 code is a float64 in numpy
    with pytest.raises(ValueError, match="uint64"):
        fn(np.array([[0, 1], [1, 0]], dtype=np.uint64))


@code_readers
def test_a_code_vector_is_refused_naming_its_shape(fn):
    with pytest.raises(ValueError, match=r"2-D.*\(3,\)"):
        fn(np.array([0, 1, 2]))


@pytest.mark.parametrize("cells, named", [
    ([(4, 1), (2399, 0)], "row 5, column 2"),      # in a whole block of rows
    ([(2399, 0), (2450, 2)], "row 2400, column 1"),    # after the last whole block
    ([(7, 2), (7, 0)], "row 8, column 1"),
])
def test_key_radixes_names_the_first_negative_cell_of_a_tall_matrix(cells, named):
    # 2500 x 3 is reduced in blocks of 341 rows and a tail of 113
    codes = np.random.default_rng(5).integers(0, 4, size=(2500, 3))
    for r, c in cells:
        codes[r, c] = -3
    with pytest.raises(ValueError, match=f"-3 at {named}"):
        _key_radixes(codes)


def one_unique_per_column(codes, bins):
    """Group ids as one ``np.unique`` per column: each column refines the
    groups so far.  The reference for ``group_ids``' mixed-radix fold."""
    ids = np.zeros(len(codes), dtype=np.int64)
    for j, b in enumerate(bins):
        _, ids = np.unique(ids * b + codes[:, j], return_inverse=True)
    return ids


@st.composite
def radix_cases(draw):
    """Up to 45 columns of 1-3 bins, or up to 4 columns of 2**31 to 2**40
    bins: either can carry the product of the codes' radixes past 2**62."""
    if draw(st.booleans()):
        bins = draw(st.lists(st.integers(1, 3), max_size=45))
    else:
        bins = draw(st.lists(st.sampled_from([2**31, 2**31 + 1, 2**40]), max_size=4))
    n = draw(st.integers(1, 30))
    return pooled_rows(draw, n, [b - 1 for b in bins]), bins


@settings(max_examples=300, deadline=None)
@given(radix_cases())
def test_group_ids_equal_one_unique_per_column(case):
    codes, bins = case
    want = one_unique_per_column(codes, bins)
    assert group_ids(codes).tolist() == want.tolist()


# ---------------------------------------------------------------------------
# mean dependency and reducts

def test_mean_dependency_full_set_is_one():
    t = dtable([[0, 1, 2], [2, 1, 0], [1, 1, 1]])
    assert mean_dependency_exact(t, range(3)) == 1


def test_mean_dependency_single_attribute_table():
    t = dtable([[0, 1, 0]])
    assert mean_dependency_exact(t, [0]) == 1


def test_mean_dependency_hand_computed():
    t = dtable([[1, 1, 2, 2], [1, 1, 1, 2]])
    assert mean_dependency_exact(t, [0]) == Fraction(3, 4)


def test_mean_dependency_rejects_empty():
    t = dtable([[0, 1]])
    with pytest.raises(ValueError):
        mean_dependency_exact(t, [])


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


def test_set_based_positive_region_counts_like_gamma():
    # the set form (Partition, positive_region) is the kernel's reference:
    # it, gamma's group-id scorer and the oracle count the same objects
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        bins = rng.integers(1, 4, size=int(rng.integers(1, 7)))   # 1 code: constant column
        t = DiscreteTable(codes=rng.integers(0, bins, size=(n, len(bins))),
                          bins_per_attr=tuple(int(b) for b in bins),
                          attr_names=tuple(f"a{j}" for j in range(len(bins))))
        p = [a for a in range(t.n_attrs) if rng.random() < 0.5]
        y = int(rng.integers(0, t.n_attrs))
        cond = indiscernibility_partition(t, FeatureSubset(tuple(p)))
        dec = indiscernibility_partition(t, FeatureSubset((y,)))
        pos = len(positive_region(cond, dec))
        assert gamma(t, p, [y]) * n == pos == naive_gamma(t.codes.tolist(), p, [y]) * n


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
            gamma(t, base, q) <= gamma(t, base + [extra], q)
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
