"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The property criteria (1-5) carry the correctness burden; the
reproduction criteria (6-9) compare against the published selections and
accuracy figures at their stated tolerances.
"""

import itertools
import time

import numpy as np

from unselect.dataset import (
    DataTable,
    DiscreteTable,
    FeatureSubset,
    discretize,
    project,
    zscore_normalize,
)
from unselect.eval import cross_validate, make_fold_plan, run_benchmark
from unselect.pca import fit_pca, retain_count
from unselect.roughset import (
    brute_force_min_reducts,
    gamma,
    indiscernibility_partition,
    is_superreduct,
    lower_approximation,
    mean_dependency_exact,
    upper_approximation,
    usqr,
)
from unselect.selectors import (
    SelectorConfig,
    _preselect_covered,
    edr_scores,
    edr_select,
    pca_select,
    rough_pca_select,
)

from rough_oracle import naive_min_reducts

DEFAULT_CFG = SelectorConfig()

# Published selected-feature table, 1-based attribute indices.
PUBLISHED_EDR = {
    "diabetes": ({3, 4, 6, 2}, 4),
    "heart": ({2, 8, 11, 1}, 4),
    "ecoli": ({1, 5, 6, 2}, 4),
    "lung": ({7, 18, 39, 26, 22, 33}, 6),
    "breast": ({5, 8, 22, 9, 2}, 5),
}
PUBLISHED_USQR_CARD = {"lung": 5, "breast": 2, "diabetes": 3, "heart": 3, "ecoli": 3}
PUBLISHED_ROUGHPCA_CARD = {"lung": 4, "breast": 6, "diabetes": 2, "heart": 3, "ecoli": 2}

NB_BANDS = [
    # dataset, method, published accuracy, tolerance
    ("diabetes", "edr", 76.3021, 3.0),
    ("ecoli", "edr", 85.4167, 4.0),
    ("heart", "edr", 71.4815, 4.0),
    ("breast", "pca", 90.8612, 3.0),
]
PCA_K = {"breast": 6}
EDR_K = {"diabetes": 4, "ecoli": 4, "heart": 4, "lung": 6, "breast": 5}

GRID = list(itertools.product(("eqwidth", "eqfreq"), (3, 4, 5)))


def verdict(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    return ok


def random_discrete_table(rng, n_max=10, d_max=8, bins_max=3):
    n = int(rng.integers(1, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    bins = int(rng.integers(2, bins_max + 1))
    return DiscreteTable(
        codes=rng.integers(0, bins, size=(n, d)),
        bins_per_attr=(bins,) * d,
        attr_names=tuple(f"a{j}" for j in range(d)),
    )


def test_criterion_1_rough_set_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for trial in range(200):
        t = random_discrete_table(rng)
        reduct = usqr(t)
        assert is_superreduct(t, reduct.indices), (
            f"trial {trial}: usqr output {reduct.indices} is not a superreduct"
        )
        got = [s.indices for s in brute_force_min_reducts(t)]
        want = naive_min_reducts(t.codes.tolist())
        assert got == want, f"trial {trial}: oracle disagreement"
    elapsed = time.monotonic() - start
    ok = elapsed < 60.0
    assert verdict(1, ok, f"200 random tables cross-checked in {elapsed:.1f}s"), (
        f"runtime {elapsed:.1f}s exceeds 60s"
    )


def test_criterion_2_partition_and_gamma_laws():
    rng = np.random.default_rng(102)

    for _ in range(500):   # refinement
        t = random_discrete_table(rng, n_max=8, d_max=5)
        attrs = list(rng.permutation(t.n_attrs))
        cut = int(rng.integers(0, t.n_attrs + 1))
        fine = indiscernibility_partition(t, FeatureSubset(tuple(attrs)))
        coarse = indiscernibility_partition(t, FeatureSubset(tuple(attrs[:cut])))
        coarse_sets = [set(b) for b in coarse.blocks]
        assert all(
            any(set(b) <= c for c in coarse_sets) for b in fine.blocks
        ), "refinement law violated"

    for _ in range(500):   # monotonicity of gamma and mean dependency
        t = random_discrete_table(rng, n_max=8, d_max=5)
        if t.n_attrs < 2:
            continue
        attrs = list(rng.permutation(t.n_attrs))
        base = attrs[: int(rng.integers(0, t.n_attrs))]
        extra = next(a for a in range(t.n_attrs) if a not in base)
        q = [int(rng.integers(0, t.n_attrs))]
        assert gamma(t, base, q) <= gamma(t, base + [extra], q)
        if base:
            assert mean_dependency_exact(t, base) <= mean_dependency_exact(
                t, base + [extra]
            )

    for _ in range(500):   # lower <= X <= upper sandwich
        t = random_discrete_table(rng, n_max=8, d_max=5)
        p = indiscernibility_partition(t, range(t.n_attrs))
        size = int(rng.integers(0, t.n_objects + 1))
        x = set(int(i) for i in rng.choice(t.n_objects, size=size, replace=False))
        assert lower_approximation(p, x) <= x <= upper_approximation(p, x)

    assert verdict(2, True, "refinement, monotonicity and sandwich on 500 instances each")


def test_criterion_3_pca_numerics(reference_eigen_pca):
    rng = np.random.default_rng(103)
    worst_recon, worst_ortho, worst_rel = 0.0, 0.0, 0.0
    for _ in range(100):
        values = rng.normal(size=(20, 8))
        t = DataTable(values=values, attr_names=tuple(f"a{j}" for j in range(8)))
        svd = fit_pca(t)
        eig_singular, _ = reference_eigen_pca(t)
        centered = values - svd.mean
        rebuilt = (centered @ svd.loadings) @ svd.loadings.T
        worst_recon = max(worst_recon, float(np.max(np.abs(rebuilt - centered))))
        gram = svd.loadings.T @ svd.loadings
        worst_ortho = max(worst_ortho, float(np.max(np.abs(gram - np.eye(8)))))
        rel = np.max(
            np.abs(svd.singular_values - eig_singular)
            / np.maximum(svd.singular_values, 1e-30)
        )
        worst_rel = max(worst_rel, float(rel))
    ok = worst_recon < 1e-8 and worst_ortho < 1e-8 and worst_rel < 1e-6
    assert verdict(
        3, ok,
        f"reconstruction {worst_recon:.2e}, orthonormality {worst_ortho:.2e}, "
        f"svd-vs-eigen {worst_rel:.2e} over 100 random 20x8 matrices",
    )


def test_criterion_4_edr_affine_invariance():
    rng = np.random.default_rng(104)
    for _ in range(100):
        values = rng.integers(-500, 500, size=(15, 6)).astype(float)
        t1 = DataTable(values=values, attr_names=tuple(f"a{j}" for j in range(6)))
        scale = rng.choice([0.25, 0.5, 2.0, 4.0], size=6)
        shift = rng.integers(-50, 50, size=6)
        t2 = DataTable(
            values=values * scale + shift,
            attr_names=t1.attr_names,
        )
        assert edr_scores(t1) == edr_scores(t2)
    assert verdict(4, True, "scores and ranking unchanged over 100 affine trials")


def test_criterion_5_benchmark_determinism(registry):
    first = run_benchmark(registry, seed=1)
    second = run_benchmark(registry, seed=1)
    assert len(first.rows) == 60, "5 datasets x 4 methods x 3 classifiers"
    ok = first.to_json() == second.to_json()
    assert verdict(
        5, ok, "two full benchmark runs (60 rows) are byte-identical JSON"
    )


def test_criterion_6_edr_published_selections(registry):
    failures = []
    for name, (expected, k) in PUBLISHED_EDR.items():
        table = registry.load(name)
        got = set(int(i) + 1 for i in edr_select(table, k).indices)
        if got != expected:
            failures.append(f"{name}: got {sorted(got)} want {sorted(expected)}")
    ok = not failures
    assert verdict(
        6, ok,
        "EDR selected sets vs published table"
        + ("" if ok else " -- " + "; ".join(failures)),
    ), "; ".join(failures)


def test_criterion_7_reduct_cardinalities_and_superreduct(registry):
    failures = []
    for name in PUBLISHED_USQR_CARD:
        table = registry.load(name)
        usqr_cards, roughpca_cards = set(), set()
        for strategy, bins in GRID:
            cfg = SelectorConfig(strategy=strategy, bins=bins)

            discrete = discretize(table, strategy, bins)
            subset = usqr(discrete)
            assert is_superreduct(discrete, subset.indices), (
                f"{name} usqr {strategy}/{bins}: not a superreduct"
            )
            usqr_cards.add(len(subset))

            subset = rough_pca_select(table, cfg)
            model = fit_pca(zscore_normalize(table))
            kept = retain_count(model, cfg.pc_policy)
            preselected = sorted(_preselect_covered(model, kept))
            reduced = discretize(
                project(zscore_normalize(table), FeatureSubset(tuple(preselected))),
                strategy, bins,
            )
            local = tuple(preselected.index(i) for i in subset.indices)
            assert is_superreduct(reduced, local), (
                f"{name} roughpca {strategy}/{bins}: not a superreduct of its "
                "preselected table"
            )
            roughpca_cards.add(len(subset))

        if PUBLISHED_USQR_CARD[name] not in usqr_cards:
            failures.append(
                f"{name} usqr: published |subset|={PUBLISHED_USQR_CARD[name]}, "
                f"grid yields {sorted(usqr_cards)}"
            )
        if PUBLISHED_ROUGHPCA_CARD[name] not in roughpca_cards:
            failures.append(
                f"{name} roughpca: published |subset|={PUBLISHED_ROUGHPCA_CARD[name]}, "
                f"grid yields {sorted(roughpca_cards)}"
            )
    ok = not failures
    assert verdict(
        7, ok,
        "reduct cardinality match within discretization grid"
        + ("" if ok else " -- " + "; ".join(failures)),
    ), "; ".join(failures)


def test_criterion_8_naive_bayes_accuracy_bands(registry):
    failures, details = [], []
    for name, method, published, tol in NB_BANDS:
        table = registry.load(name)
        start = time.monotonic()
        if method == "edr":
            subset = edr_select(table, EDR_K[name])
        else:
            subset = pca_select(table, DEFAULT_CFG, PCA_K[name])
        plan = make_fold_plan(table.labels, 10, seed=1)
        result = cross_validate(table, subset, "nb", plan)
        elapsed = time.monotonic() - start
        details.append(f"{name}/{method} {result.accuracy:.4f} (band {published}±{tol})")
        if abs(result.accuracy - published) > tol:
            failures.append(
                f"{name}/{method}: {result.accuracy:.4f} outside {published}±{tol}"
            )
        if elapsed >= 10.0:
            failures.append(f"{name}/{method}: run took {elapsed:.1f}s (limit 10s)")
    ok = not failures
    assert verdict(
        8, ok, "; ".join(details) + ("" if ok else " -- " + "; ".join(failures))
    ), "; ".join(failures)


def test_criterion_9_edr_beats_rough_pca_with_nb(registry):
    failures, details = [], []
    for name in ("diabetes", "ecoli"):
        table = registry.load(name)
        plan = make_fold_plan(table.labels, 10, seed=1)
        edr_acc = cross_validate(
            table, edr_select(table, EDR_K[name]), "nb", plan
        ).accuracy
        rp_acc = cross_validate(
            table, rough_pca_select(table, DEFAULT_CFG), "nb", plan
        ).accuracy
        details.append(f"{name}: EDR {edr_acc:.4f} vs Rough-PCA {rp_acc:.4f}")
        if edr_acc < rp_acc:
            failures.append(f"{name}: EDR {edr_acc:.4f} < Rough-PCA {rp_acc:.4f}")
    ok = not failures
    assert verdict(9, ok, "; ".join(details)), "; ".join(failures)
