"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Exhaustive enumeration over the design's support is the oracle throughout.
"""

import warnings
from statistics import NormalDist

import numpy as np
import pytest

import dbexp
from dbexp import (
    AssignmentRealization,
    ObservedOutcomes,
    StackedOutcomes,
    add_invprop_column,
    as_bound,
    b_opt,
    b_opt_family,
    b_population,
    batch_points,
    bound_estimate_2r_borrowed,
    bound_estimate_greg,
    bound_estimate_ht,
    cluster_bound,
    coef_2r,
    coef_fixed,
    coef_ols,
    coef_wls_pi,
    design_matrix,
    draw,
    enumerate_assignments,
    fixed_coef_variance,
    greg,
    greg_forms,
    intercept_contrast,
    interval_from_bound,
    iterative_bound,
    make_bernoulli,
    make_cluster,
    make_complete,
    precision_test,
    spec_I,
    spec_II,
    zero_center,
)
from dbexp.simulation import (
    SimConfig,
    build_population,
    calibration_r2,
    covariate_set,
    run_simulation,
)
from conftest import enumeration_moments
from dbexp._linalg import sym_eigvals

SIM_SEED = 7


def _announce(number, description):
    def decorator(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {number:02d}] FAIL {description}")
                raise
            print(f"\n[criterion {number:02d}] PASS {description}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


def _small_designs():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        designs = [make_complete(n, max(1, n // 2)) for n in range(2, 9)]
        designs += [make_complete(n, 1) for n in (3, 5, 8)]
        designs += [
            make_bernoulli([0.2, 0.5, 0.7, 0.9]),
            make_bernoulli([0.3, 0.4, 0.5, 0.6, 0.7]),
            make_cluster([1, 1, 2, 2], 1),
            make_cluster([1, 1, 2, 3], 2),
            make_cluster([1, 2, 3, 4], 2),
            make_cluster([1, 1, 2, 2, 3, 4], 2),
        ]
    return designs


@_announce(1, "exact HT unbiasedness and variance against the enumeration oracle")
def test_c01_ht_unbiasedness_and_variance():
    rng = np.random.default_rng(101)
    for design in _small_designs():
        dmat = design_matrix(design)
        for _ in range(20):
            outcomes = StackedOutcomes.from_arms(
                rng.standard_normal(design.n), rng.standard_normal(design.n)
            )
            mean, var = enumeration_moments(
                design,
                lambda r: dbexp.ht_ate(
                    ObservedOutcomes.from_schedule(outcomes, r), design
                ),
            )
            assert abs(mean - outcomes.ate) <= 1e-10
            target = dmat.quadratic(outcomes.values) / design.n**2
            assert abs(var - target) <= 1e-10


@_announce(2, "fixed-coefficient adjusted estimator variance matches the formula")
def test_c02_fixed_coefficient_variance():
    rng = np.random.default_rng(202)
    for design in _small_designs():
        dmat = design_matrix(design)
        x = zero_center(rng.standard_normal((design.n, 1)))
        spec = spec_II(x)
        outcomes = StackedOutcomes.from_arms(
            rng.standard_normal(design.n), rng.standard_normal(design.n)
        )
        for _ in range(3):
            b = coef_fixed(rng.standard_normal(spec.n_columns), spec)
            mean, var = enumeration_moments(
                design,
                lambda r: greg(
                    ObservedOutcomes.from_schedule(outcomes, r), design, spec, b
                ).point,
            )
            assert abs(mean - outcomes.ate) <= 1e-10
            target = fixed_coef_variance(outcomes, spec, b.values, dmat)
            assert abs(var - target) <= 1e-10


@_announce(3, "intercept-contrast identities (equal-probability OLS, weighted LS, added column)")
def test_c03_intercept_contrast_identities():
    rng = np.random.default_rng(303)
    n = 6
    outcomes = StackedOutcomes.from_arms(rng.standard_normal(n), rng.standard_normal(n))
    x = zero_center(rng.standard_normal((n, 2)))

    equal = make_complete(6, 3)
    for spec in (spec_I(x), spec_II(x)):
        for seed in range(200):
            obs = ObservedOutcomes.from_schedule(outcomes, draw(equal, seed))
            coef = coef_ols(spec, obs)
            est = greg(obs, equal, spec, coef)
            assert abs(intercept_contrast(coef, spec) - est.point) <= 1e-10

    uneven = make_bernoulli([0.2, 0.35, 0.5, 0.65, 0.8, 0.45])
    for spec in (spec_I(x), spec_II(x)):
        for seed in range(200):
            obs = ObservedOutcomes.from_schedule(outcomes, draw(uneven, seed))
            coef = coef_wls_pi(spec, obs, uneven)
            est = greg(obs, uneven, spec, coef)
            assert abs(intercept_contrast(coef, spec) - est.point) <= 1e-10

    augmented = add_invprop_column(spec_II(x), uneven)
    for seed in range(200):
        obs = ObservedOutcomes.from_schedule(outcomes, draw(uneven, seed))
        coef = coef_ols(augmented, obs)
        forms = greg_forms(obs, uneven, augmented, coef)
        assert abs(forms["weighted_residual_term"]) <= 1e-10


@_announce(4, "optimal coefficient: stationarity, minimality, family constancy")
def test_c04_optimal_coefficient_properties():
    rng = np.random.default_rng(404)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        designs = [make_complete(6, 3), make_cluster([1, 1, 2, 2, 3, 3, 4, 4], 2)]
    for design in designs:
        dmat = design_matrix(design)
        x = zero_center(rng.standard_normal((design.n, 1)))
        spec = spec_II(x)
        outcomes = StackedOutcomes.from_arms(
            1.3 * x[:, 0] + rng.standard_normal(design.n),
            0.7 * x[:, 0] + rng.standard_normal(design.n),
        )
        coef = b_opt(spec, dmat, outcomes)
        xd = spec.matrix.T @ dmat.values
        rhs = xd @ outcomes.values
        resid = np.linalg.norm(xd @ spec.matrix @ coef.values - rhs)
        assert resid <= 1e-8 * max(np.linalg.norm(rhs), 1e-12)

        base = fixed_coef_variance(outcomes, spec, coef.values, dmat)
        for _ in range(200):
            direction = rng.standard_normal(spec.n_columns)
            for scale in (1e-2, 1e-1, 1.0):
                other = fixed_coef_variance(
                    outcomes, spec, coef.values + scale * direction, dmat
                )
                assert base <= other + 1e-12

        for _ in range(10):
            member = b_opt_family(spec, dmat, outcomes, rng.standard_normal(spec.n_columns))
            v = fixed_coef_variance(outcomes, spec, member.values, dmat)
            assert abs(v - base) <= 1e-10


@_announce(5, "closed-form population coefficients are optimal; block identities hold")
def test_c05_population_optimality_and_identities():
    rng = np.random.default_rng(505)

    n, n1 = 6, 3
    design = make_complete(n, n1)
    dmat = design_matrix(design)
    x = zero_center(rng.standard_normal((n, 1)))
    y0 = 1.4 * x[:, 0] + rng.standard_normal(n)
    y1 = -0.6 * x[:, 0] + rng.standard_normal(n) + 2.0
    outcomes = StackedOutcomes.from_arms(y0, y1)
    spec2 = spec_II(x)
    spec1 = spec_I(x)
    vopt = fixed_coef_variance(outcomes, spec2, b_opt(spec2, dmat, outcomes).values, dmat)
    for method, spec in (("ols_II", spec2), ("tyranny_II", spec2), ("tyranny_I", spec1)):
        b = b_population(method, x, outcomes, design).values
        v = fixed_coef_variance(outcomes, spec, b, dmat)
        assert abs(v - vopt) <= 1e-10

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cdesign = make_cluster([1, 1, 2, 2, 2, 3, 3, 4], 2)
    cdmat = design_matrix(cdesign)
    xc = zero_center(rng.standard_normal((8, 1)))
    oc = StackedOutcomes.from_arms(
        xc[:, 0] + rng.standard_normal(8), 0.5 * xc[:, 0] + rng.standard_normal(8)
    )
    cspec = spec_II(xc)
    vopt_c = fixed_coef_variance(oc, cspec, b_opt(cspec, cdmat, oc).values, cdmat)
    for method in ("ols_cluster_II", "tyranny_cluster"):
        b = b_population(method, xc, oc, cdesign).values
        v = fixed_coef_variance(oc, cspec, b, cdmat)
        assert abs(v - vopt_c) <= 1e-10

    # de-meaning / covariance identities, unit level
    n0 = n - n1
    xt = np.hstack([np.ones((n, 1)), x])
    mu = xt.mean(axis=0)
    assert np.abs(
        dmat.block(1, 1) @ xt - (n * n0 / ((n - 1) * n1)) * (xt - mu)
    ).max() <= 1e-10
    var = (xt - mu).T @ (xt - mu) / n
    assert np.abs(
        xt.T @ dmat.block(1, 1) @ xt - (n**2 * n0 / ((n - 1) * n1)) * var
    ).max() <= 1e-10

    # cluster analogues
    m, m1 = 4, 2
    m0 = m - m1
    ids = np.array([1, 1, 2, 2, 2, 3, 3, 4])
    index = np.searchsorted(np.unique(ids), ids)
    xtc = np.hstack([np.ones((8, 1)), xc])
    totals = np.zeros((m, 2))
    np.add.at(totals, index, xtc)
    muc = xtc.mean(axis=0)
    assert np.abs(
        cdmat.block(1, 1) @ xtc
        - (m * m0 / ((m - 1) * m1)) * (totals[index] - (8 / m) * muc)
    ).max() <= 1e-10
    y1c = np.bincount(index, weights=oc.treated)
    covc = (totals - totals.mean(0)).T @ (y1c - y1c.mean()) / m
    assert np.abs(
        xtc.T @ cdmat.block(1, 1) @ oc.treated - (m**2 * m0 / ((m - 1) * m1)) * covc
    ).max() <= 1e-10

    # equal-probability block scaling
    for d in (dmat, cdmat):
        pi1 = 0.5 if d is dmat else 0.5
        pi0 = 1 - pi1
        base = pi0**2 * d.block(0, 0)
        assert np.abs(pi1**2 * d.block(1, 1) - base).max() <= 1e-10
        assert np.abs(-pi1 * pi0 * d.block(1, 0) - base).max() <= 1e-10


@_announce(6, "two-stage estimator equals least squares under complete randomization; invariances")
def test_c06_two_stage_equivalence_and_invariance():
    rng = np.random.default_rng(606)
    for n, draws in ((6, None), (20, 60), (100, 60)):
        design = make_complete(n, n // 2)
        x = zero_center(rng.standard_normal((n, 2)))
        spec = spec_II(x)
        outcomes = StackedOutcomes.from_arms(
            x @ [1.0, -0.5] + rng.standard_normal(n),
            x @ [0.5, 0.5] + rng.standard_normal(n) + 1.0,
        )
        if draws is None:
            realizations = [r for r, _ in enumerate_assignments(design)]
        else:
            realizations = [draw(design, seed) for seed in range(draws)]
        for realization in realizations:
            obs = ObservedOutcomes.from_schedule(outcomes, realization)
            p2 = greg(obs, design, spec, coef_2r(spec, obs, design)).point
            pols = greg(obs, design, spec, coef_ols(spec, obs)).point
            assert abs(p2 - pols) <= 1e-8

    # location/scale invariance in outcomes, full-rank transform invariance in layout
    n = 20
    design = make_complete(n, 10)
    x = zero_center(rng.standard_normal((n, 2)))
    spec = spec_II(x)
    outcomes = StackedOutcomes.from_arms(rng.standard_normal(n), rng.standard_normal(n))
    c, f = 3.7, -1.3
    shifted = StackedOutcomes(
        c * np.concatenate([-np.ones(n), np.ones(n)]) + f * outcomes.values, n
    )
    transform = np.eye(spec.n_columns) + 0.3 * rng.standard_normal(
        (spec.n_columns, spec.n_columns)
    )
    from dbexp.covariates import CovariateSpec

    transformed = CovariateSpec(
        spec.matrix @ transform,
        "custom",
        tuple(f"t{j}" for j in range(spec.n_columns)),
        x=x,
    )
    for seed in range(20):
        realization = draw(design, seed)
        obs = ObservedOutcomes.from_schedule(outcomes, realization)
        obs_shifted = ObservedOutcomes.from_schedule(shifted, realization)
        p = greg(obs, design, spec, coef_2r(spec, obs, design)).point
        p_shifted = greg(obs_shifted, design, spec, coef_2r(spec, obs_shifted, design)).point
        assert abs(p_shifted - f * p) <= 1e-8
        p_transformed = greg(obs, design, transformed, coef_2r(transformed, obs, design)).point
        assert abs(p_transformed - p) <= 1e-8


@_announce(7, "bound certification: PSD dominance, masked zeros, sharp-null exactness")
def test_c07_bound_certification():
    rng = np.random.default_rng(707)
    for n, n1 in ((4, 2), (6, 3)):
        design = make_complete(n, n1)
        dmat = design_matrix(design)
        for bound in (as_bound(dmat), iterative_bound(dmat)):
            diff_min = sym_eigvals(bound.values - dmat.values)[0]
            assert diff_min >= -1e-8 * max(1.0, np.abs(dmat.values).max())
            assert np.abs(bound.values[dmat.mask]).max(initial=0.0) == 0.0
        w = rng.standard_normal(n)
        y = np.concatenate([-w, w])
        universal = as_bound(dmat)
        assert abs(y @ universal.values @ y - y @ dmat.values @ y) <= 1e-10

    for ids, m1 in (([1, 1, 2, 3, 4], 2), ([1, 1, 2, 2, 3, 3, 4, 4], 2)):
        design = make_cluster(ids, m1)
        dmat = design_matrix(design)
        clustered = cluster_bound(dmat, ids)
        universal = as_bound(dmat)
        assert clustered.identified
        assert np.abs(clustered.values[dmat.mask]).max() == 0.0
        assert sym_eigvals(clustered.values - dmat.values)[0] >= -1e-8 * max(
            1.0, np.abs(dmat.values).max()
        )
        w = rng.standard_normal(design.n)
        y = np.concatenate([-w, w])
        assert abs(y @ clustered.values @ y - y @ dmat.values @ y) <= 1e-10
        assert sym_eigvals(universal.values - clustered.values)[0] >= -1e-8


@_announce(8, "bound estimators are exactly unbiased for the bound quadratic")
def test_c08_bound_estimator_unbiasedness():
    rng = np.random.default_rng(808)
    cases = []
    complete = make_complete(4, 2)
    dmat_c = design_matrix(complete)
    cases += [(complete, as_bound(dmat_c)), (complete, iterative_bound(dmat_c))]
    bern = make_bernoulli([0.25, 0.5, 0.6, 0.75])
    dmat_b = design_matrix(bern)
    cases += [(bern, as_bound(dmat_b)), (bern, iterative_bound(dmat_b))]
    clustered = make_cluster([1, 1, 2, 3, 4], 2)
    dmat_k = design_matrix(clustered)
    cases += [
        (clustered, as_bound(dmat_k)),
        (clustered, iterative_bound(dmat_k)),
        (clustered, cluster_bound(dmat_k, [1, 1, 2, 3, 4])),
    ]
    for design, bound in cases:
        outcomes = StackedOutcomes.from_arms(
            rng.standard_normal(design.n), rng.standard_normal(design.n)
        )
        target = outcomes.values @ bound.values @ outcomes.values / design.n**2
        mean, _ = enumeration_moments(
            design,
            lambda r: bound_estimate_ht(
                bound, design, ObservedOutcomes.from_schedule(outcomes, r)
            ),
        )
        assert abs(mean - target) <= 1e-12


@_announce(9, "cluster simulation reproduces the published error-reduction profile")
def test_c09_simulation_reproduction():
    config = SimConfig(seed=SIM_SEED)
    result = run_simulation(config)
    assert result.failures.sum() == 0
    assert result.population.size_table() == {
        8: 13, 9: 41, 10: 21, 11: 10, 12: 6, 13: 3, 14: 3, 16: 2, 22: 1,
    }
    table = {(m.estimator, m.spec_set): m for m in result.metrics}
    for estimator in ("two_r", "ols_cluster_totals"):
        for set_id in (1, 2):
            pct = table[(estimator, set_id)].pct_mse_reduction_vs_benchmark
            assert 45.0 <= pct <= 75.0, (estimator, set_id, pct)
    pct3 = table[("two_r", 3)].pct_mse_reduction_vs_benchmark
    assert 3.0 <= pct3 <= 23.0, pct3
    for set_id in (1, 2, 3, 4):
        worst = max(table[(e, set_id)].mse for e in config.estimators)
        assert table[("three_ht", set_id)].mse == worst
        share = table[("three_ht", set_id)].bias_sq / table[("three_ht", set_id)].mse
        assert share >= 0.05, share  # bias is a visible part of its error


@_announce(9, "noise-scale calibration falls in the published window")
def test_c09_r2_calibration():
    # The published fit statistic (0.173) is not reproducible from the stated
    # data-generating process under either reading of the noise scale:
    # variance -> 0.232, standard deviation -> 0.059.  The default follows the
    # best-matching (variance) reading, which also reproduces the error
    # reduction profile.  Asserted as specified; see the decisions ledger.
    r2 = calibration_r2(build_population(SimConfig(seed=SIM_SEED)))
    assert 0.173 - 0.04 <= r2 <= 0.173 + 0.04, f"calibration R^2 = {r2:.4f}"


@_announce(10, "adjusted-estimator variance approaches its limit; draws are near-normal")
def test_c10_empirical_asymptotics():
    rng = np.random.default_rng(1010)
    gaps = {}
    qq = {}
    for n, reps in ((50, 20000), (200, 10000), (1000, 6000)):
        design = make_complete(n, n // 2)
        x = zero_center(rng.standard_normal((n, 1)))
        y0 = x[:, 0] + rng.standard_normal(n)
        y1 = 2.0 + 1.8 * x[:, 0] + rng.standard_normal(n)
        outcomes = StackedOutcomes.from_arms(y0, y1)
        spec = spec_II(x)
        target = fixed_coef_variance(
            outcomes,
            spec,
            b_population("ols_II", x, outcomes, design).values,
            design_matrix(design),
        )
        treated = np.array([draw(design, 10_000 + r).assignment for r in range(reps)])
        points = batch_points(design, outcomes, treated, [spec], ["ols"]).points[:, 0, 0]
        gaps[n] = abs(points.var() / target - 1.0)
        standardized = np.sort((points - points.mean()) / points.std())
        nd = NormalDist()
        quantiles = np.array([nd.inv_cdf((i + 0.5) / reps) for i in range(reps)])
        qq[n] = float(np.corrcoef(standardized, quantiles)[0, 1])
    assert gaps[50] > gaps[200]
    assert gaps[50] > gaps[1000]
    assert gaps[1000] < 0.05
    assert qq[1000] >= 0.99


@_announce(11, "sharp-null cluster intervals are conservative; borrowed bound is narrower")
def test_c11_coverage_conservatism():
    config = SimConfig(seed=SIM_SEED)
    pop = build_population(config)
    design = make_cluster(pop.cluster_ids, config.m1)
    dmat = design_matrix(design)
    x = covariate_set(pop, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = spec_II(x)
    universal = as_bound(dmat)
    clustered = cluster_bound(dmat, pop.cluster_ids)
    reps = 5000
    idx = pop.cluster_index
    y0, y1 = pop.outcomes.control, pop.outcomes.treated
    cover_plain = cover_borrowed = 0
    width_plain = width_borrowed = 0.0
    for r in range(reps):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(1, r))
        )
        picked = np.zeros(pop.m, dtype=bool)
        picked[rng.permutation(pop.m)[: config.m1]] = True
        z = picked[idx].astype(np.int8)
        obs = ObservedOutcomes(np.where(z == 1, y1, y0), AssignmentRealization(z))
        b_wls = coef_wls_pi(spec, obs, design)
        point = greg(obs, design, spec, b_wls).point
        estimate = bound_estimate_greg(universal, design, obs, spec, b_wls)
        lo, hi, _ = interval_from_bound(point, estimate)
        cover_plain += lo <= 0.0 <= hi
        width_plain += hi - lo
        b2 = coef_2r(spec, obs, design)
        point2 = greg(obs, design, spec, b2).point
        estimate2 = bound_estimate_2r_borrowed(clustered, design, obs, spec)
        lo2, hi2, _ = interval_from_bound(point2, estimate2)
        cover_borrowed += lo2 <= 0.0 <= hi2
        width_borrowed += hi2 - lo2
    assert cover_plain / reps >= 0.94
    assert cover_borrowed / reps >= 0.94
    assert width_borrowed / reps < width_plain / reps


@_announce(12, "precision test: exact mean, correct direction for helpful and harmful cases")
def test_c12_precision_test():
    design = make_complete(4, 2)
    dmat = design_matrix(design)
    bound = as_bound(dmat)
    x = zero_center(np.array([1.0, -0.5, 0.25, -0.75]))[:, None]
    spec = spec_II(x)
    y0 = 2.0 * x[:, 0] + np.array([0.1, -0.1, 0.05, -0.05])
    y1 = 2.0 * x[:, 0] + 1.0 + np.array([-0.08, 0.02, 0.1, -0.04])
    outcomes = StackedOutcomes.from_arms(y0, y1)
    base = b_opt(spec, dmat, outcomes).values

    for factor, expectation in ((0.9, "helps"), (40.0, "hurts")):
        b = factor * base
        fitted = spec.matrix @ b
        u = outcomes.values - fitted
        expected_mean = 2.0 * (fitted @ dmat.values @ u) / design.n
        threshold = -(fitted @ dmat.values @ fitted) / design.n
        mean, _ = enumeration_moments(
            design,
            lambda r: precision_test(
                design, ObservedOutcomes.from_schedule(outcomes, r), spec, b, bound
            ).statistic,
        )
        assert abs(mean - expected_mean) <= 1e-10
        if expectation == "helps":
            assert mean > threshold
        else:
            assert mean < threshold
        # the reported threshold matches on every draw
        result = precision_test(
            design,
            ObservedOutcomes.from_schedule(outcomes, draw(design, 0)),
            spec,
            b,
            bound,
        )
        assert result.threshold == pytest.approx(threshold, abs=1e-12)
