import warnings

import numpy as np
import pytest

from dbexp import (
    BoundMatrix,
    StackedOutcomes,
    as_bound,
    b_opt,
    b_opt_family,
    b_population,
    b_sep,
    b_tilde_opt,
    design_matrix,
    fixed_coef_variance,
    make_bernoulli,
    make_cluster,
    make_complete,
    spec_II,
    spec_cluster,
    stack_clusters,
    zero_center,
)
from dbexp.design import cluster_level_design

RNG = np.random.default_rng(2024)

CLUSTER_IDS = np.array([1, 1, 2, 2, 2, 3, 3, 4])


def _cluster_setup():
    design = make_cluster(CLUSTER_IDS, 2)
    rng = np.random.default_rng(99)
    x = zero_center(rng.standard_normal((8, 1)))
    y0 = 1.2 * x[:, 0] + rng.standard_normal(8)
    y1 = y0 + 0.5 + 0.8 * x[:, 0]
    return design, x, StackedOutcomes.from_arms(y0, y1)


def test_b_opt_zero_for_intercept_only_complete():
    design = make_complete(6, 3)
    spec = spec_II(np.empty((6, 0)))
    outcomes = StackedOutcomes.from_arms(RNG.standard_normal(6), RNG.standard_normal(6))
    coef = b_opt(spec, design_matrix(design), outcomes)
    # constants have zero estimator variance, so the normal matrix vanishes
    np.testing.assert_allclose(coef.values, 0.0, atol=1e-12)


def test_b_opt_minimality_and_foc():
    design = make_complete(6, 3)
    dmat = design_matrix(design)
    x = zero_center(RNG.standard_normal((6, 2)))
    spec = spec_II(x)
    outcomes = StackedOutcomes.from_arms(RNG.standard_normal(6), RNG.standard_normal(6))
    coef = b_opt(spec, dmat, outcomes)
    base = fixed_coef_variance(outcomes, spec, coef.values, dmat)
    rng = np.random.default_rng(0)
    for _ in range(200):
        direction = rng.standard_normal(spec.n_columns)
        for scale in (1e-2, 1e-1, 1.0):
            perturbed = fixed_coef_variance(
                outcomes, spec, coef.values + scale * direction, dmat
            )
            assert base <= perturbed + 1e-12


def test_b_opt_matches_population_ols_complete():
    design = make_complete(6, 3)
    dmat = design_matrix(design)
    x = zero_center(RNG.standard_normal((6, 1)))
    y0 = 0.5 * x[:, 0] + RNG.standard_normal(6)
    y1 = 1.0 + 1.5 * x[:, 0] + RNG.standard_normal(6)
    outcomes = StackedOutcomes.from_arms(y0, y1)
    spec = spec_II(x)
    vopt = fixed_coef_variance(outcomes, spec, b_opt(spec, dmat, outcomes).values, dmat)
    pop = b_population("ols_II", x, outcomes, design)
    vpop = fixed_coef_variance(outcomes, spec, pop.values, dmat)
    assert vpop == pytest.approx(vopt, abs=1e-10)


def test_b_opt_matches_population_cluster_totals():
    design, x, outcomes = _cluster_setup()
    dmat = design_matrix(design)
    spec = spec_II(x)
    vopt = fixed_coef_variance(outcomes, spec, b_opt(spec, dmat, outcomes).values, dmat)
    pop = b_population("ols_cluster_II", x, outcomes, design)
    vpop = fixed_coef_variance(outcomes, spec, pop.values, dmat)
    assert vpop == pytest.approx(vopt, abs=1e-10)


def test_family_membership_and_constant_variance():
    design = make_complete(6, 3)
    dmat = design_matrix(design)
    x = zero_center(RNG.standard_normal((6, 2)))
    spec = spec_II(x)
    outcomes = StackedOutcomes.from_arms(RNG.standard_normal(6), RNG.standard_normal(6))
    base = b_opt(spec, dmat, outcomes)
    member0 = b_opt_family(spec, dmat, outcomes, np.zeros(spec.n_columns))
    np.testing.assert_allclose(member0.values, base.values, atol=1e-12)
    absorbed = b_opt_family(spec, dmat, outcomes, base.values)
    np.testing.assert_allclose(absorbed.values, base.values, atol=1e-10)
    v0 = fixed_coef_variance(outcomes, spec, base.values, dmat)
    rng = np.random.default_rng(1)
    for _ in range(10):
        member = b_opt_family(spec, dmat, outcomes, rng.standard_normal(spec.n_columns))
        v = fixed_coef_variance(outcomes, spec, member.values, dmat)
        assert v == pytest.approx(v0, abs=1e-10)


def test_population_formulas_simple_cases():
    design = make_complete(4, 2)
    x = zero_center(np.array([1.0, -1.0, 2.0, -2.0]))[:, None]
    outcomes = StackedOutcomes.from_arms(x[:, 0], x[:, 0])
    ols = b_population("ols_II", x, outcomes, design)
    np.testing.assert_allclose(ols.values, [0.0, 1.0, 0.0, 1.0], atol=1e-12)

    y0 = np.array([1.0, 2.0, 3.0, 4.0])
    y1 = np.array([0.0, 2.0, 1.0, 5.0])
    outcomes = StackedOutcomes.from_arms(y0, y1)
    tyr = b_population("tyranny_I", x, outcomes, design)
    s0 = np.linalg.lstsq(x, y0 - y0.mean(), rcond=None)[0]
    s1 = np.linalg.lstsq(x, y1 - y1.mean(), rcond=None)[0]
    np.testing.assert_allclose(tyr.values, [y0.mean(), y1.mean(), (s0[0] + s1[0]) / 2])


def test_population_methods_satisfy_foc():
    design = make_complete(6, 2)
    dmat = design_matrix(design)
    rng = np.random.default_rng(77)
    x = zero_center(rng.standard_normal((6, 1)))
    y0 = 2.0 * x[:, 0] + rng.standard_normal(6)
    y1 = -1.0 * x[:, 0] + rng.standard_normal(6) + 3.0
    outcomes = StackedOutcomes.from_arms(y0, y1)
    spec = spec_II(x)
    xd = spec.matrix.T @ dmat.values
    rhs = xd @ outcomes.values
    normal = xd @ spec.matrix
    for method in ("ols_II", "tyranny_II"):
        b = b_population(method, x, outcomes, design).values
        assert np.linalg.norm(normal @ b - rhs) <= 1e-8 * np.linalg.norm(rhs)
    # common-slopes layout for the common-slopes method
    from dbexp import spec_I

    spec1 = spec_I(x)
    xd1 = spec1.matrix.T @ dmat.values
    b1 = b_population("tyranny_I", x, outcomes, design).values
    assert np.linalg.norm(xd1 @ spec1.matrix @ b1 - xd1 @ outcomes.values) <= 1e-8 * np.linalg.norm(
        xd1 @ outcomes.values
    )

    design_c, x_c, outcomes_c = _cluster_setup()
    dmat_c = design_matrix(design_c)
    spec_c = spec_II(x_c)
    xdc = spec_c.matrix.T @ dmat_c.values
    rhs_c = xdc @ outcomes_c.values
    normal_c = xdc @ spec_c.matrix
    for method in ("ols_cluster_II", "tyranny_cluster"):
        b = b_population(method, x_c, outcomes_c, design_c).values
        assert np.linalg.norm(normal_c @ b - rhs_c) <= 1e-8 * np.linalg.norm(rhs_c)


def test_population_method_design_mismatch():
    design, x, outcomes = _cluster_setup()
    with pytest.raises(ValueError):
        b_population("ols_II", x, outcomes, design)
    complete = make_complete(8, 4)
    with pytest.raises(ValueError):
        b_population("ols_cluster_II", x, outcomes, complete)
    with pytest.raises(ValueError):
        b_population("nope", x, outcomes, complete)


def test_b_tilde_opt_degenerate_equals_b_opt():
    design = make_complete(6, 3)
    dmat = design_matrix(design)
    x = zero_center(RNG.standard_normal((6, 1)))
    spec = spec_II(x)
    outcomes = StackedOutcomes.from_arms(RNG.standard_normal(6), RNG.standard_normal(6))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        degenerate = BoundMatrix(
            values=dmat.values,
            method="custom",
            identified=False,
            design_matrix=dmat,
        )
    np.testing.assert_allclose(
        b_tilde_opt(spec, degenerate, outcomes).values,
        b_opt(spec, dmat, outcomes).values,
        atol=1e-10,
    )


def test_b_tilde_opt_sandwich_and_exact_fit():
    design = make_complete(6, 3)
    dmat = design_matrix(design)
    rng = np.random.default_rng(4)
    x = zero_center(rng.standard_normal((6, 2)))
    spec = spec_II(x)
    y0 = rng.standard_normal(6)
    y1 = rng.standard_normal(6) + 1.0
    outcomes = StackedOutcomes.from_arms(y0, y1)
    bound = as_bound(dmat)
    bt = b_tilde_opt(spec, bound, outcomes)
    bo = b_opt(spec, dmat, outcomes)
    u = outcomes.values - spec.matrix @ bo.values
    ut = outcomes.values - spec.matrix @ bt.values
    q_var = u @ dmat.values @ u
    q_min = ut @ bound.values @ ut
    q_plug = u @ bound.values @ u
    assert q_var <= q_min + 1e-10
    assert q_min <= q_plug + 1e-10
    # bound-minimizer beats 200 perturbations on the bound quadratic
    for _ in range(200):
        other = bt.values + rng.standard_normal(spec.n_columns) * 0.3
        uo = outcomes.values - spec.matrix @ other
        assert q_min <= uo @ bound.values @ uo + 1e-10

    fitted = StackedOutcomes(spec.matrix @ np.arange(1.0, spec.n_columns + 1), 6)
    bfit = b_tilde_opt(spec, bound, fitted)
    res = fitted.values - spec.matrix @ bfit.values
    assert res @ bound.values @ res == pytest.approx(0.0, abs=1e-10)


def test_b_sep_complete_and_cluster_equivalence():
    design = make_complete(6, 3)
    dmat = design_matrix(design)
    rng = np.random.default_rng(6)
    x = zero_center(rng.standard_normal((6, 1)))
    spec = spec_II(x)
    outcomes = StackedOutcomes.from_arms(rng.standard_normal(6), rng.standard_normal(6))
    sep = b_sep(spec, outcomes, design)
    vopt = fixed_coef_variance(outcomes, spec, b_opt(spec, dmat, outcomes).values, dmat)
    vsep = fixed_coef_variance(outcomes, spec, sep.values, dmat)
    assert vsep == pytest.approx(vopt, abs=1e-10)

    design_c, x_c, outcomes_c = _cluster_setup()
    dmat_c = design_matrix(design_c)
    spec_c = spec_II(x_c)
    sep_c = b_sep(spec_c, outcomes_c, design_c)
    vopt_c = fixed_coef_variance(
        outcomes_c, spec_c, b_opt(spec_c, dmat_c, outcomes_c).values, dmat_c
    )
    vsep_c = fixed_coef_variance(outcomes_c, spec_c, sep_c.values, dmat_c)
    assert vsep_c == pytest.approx(vopt_c, abs=1e-10)

    uneven = make_bernoulli([0.3, 0.5, 0.7, 0.4, 0.6, 0.5])
    with pytest.raises(ValueError):
        b_sep(spec, outcomes, uneven)


def test_b_sep_on_a_cluster_total_layout_uses_the_cluster_level_matrix():
    ids = [1, 1, 2, 2, 2, 3, 4, 4, 5, 5, 6, 6]
    design = make_cluster(ids, 3)
    rng = np.random.default_rng(1)
    spec = spec_cluster(zero_center(rng.standard_normal((12, 1))), ids, "II")
    outcomes = StackedOutcomes.from_arms(rng.standard_normal(12), rng.standard_normal(12))
    dmat = design_matrix(cluster_level_design(design))
    totals = stack_clusters(outcomes, ids)
    vsep = fixed_coef_variance(totals, spec, b_sep(spec, outcomes, design).values, dmat)
    vopt = fixed_coef_variance(totals, spec, b_opt(spec, dmat, outcomes).values, dmat)
    assert vsep == pytest.approx(vopt, rel=1e-10)


def test_demeaning_and_covariance_identities_complete():
    n, n1 = 5, 2
    n0 = n - n1
    design = make_complete(n, n1)
    dmat = design_matrix(design)
    rng = np.random.default_rng(8)
    xt = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 2))])
    mu = xt.mean(axis=0)
    np.testing.assert_allclose(
        dmat.block(1, 1) @ xt, (n * n0 / ((n - 1) * n1)) * (xt - mu), atol=1e-10
    )
    np.testing.assert_allclose(
        dmat.block(0, 0) @ xt, (n * n1 / ((n - 1) * n0)) * (xt - mu), atol=1e-10
    )
    np.testing.assert_allclose(
        dmat.block(1, 0) @ xt, -(n / (n - 1)) * (xt - mu), atol=1e-10
    )
    np.testing.assert_allclose(
        dmat.block(0, 1) @ xt, -(n / (n - 1)) * (xt - mu), atol=1e-10
    )
    # constants are annihilated
    np.testing.assert_allclose(dmat.block(1, 1) @ np.ones(n), 0.0, atol=1e-12)

    var = (xt - mu).T @ (xt - mu) / n
    y1 = rng.standard_normal(n)
    cov = (xt - mu).T @ (y1 - y1.mean()) / n
    np.testing.assert_allclose(
        xt.T @ dmat.block(1, 1) @ xt, (n**2 * n0 / ((n - 1) * n1)) * var, atol=1e-10
    )
    np.testing.assert_allclose(
        xt.T @ dmat.block(1, 1) @ y1, (n**2 * n0 / ((n - 1) * n1)) * cov, atol=1e-10
    )


def test_demeaning_and_covariance_identities_cluster():
    design, x, outcomes = _cluster_setup()
    dmat = design_matrix(design)
    n = design.n
    m, m1 = 4, 2
    m0 = m - m1
    _, counts = np.unique(CLUSTER_IDS, return_counts=True)
    index = np.searchsorted(np.unique(CLUSTER_IDS), CLUSTER_IDS)
    xt = np.hstack([np.ones((n, 1)), x])
    totals_rows = np.zeros((m, xt.shape[1]))
    np.add.at(totals_rows, index, xt)
    per_unit_totals = totals_rows[index]
    mu = xt.mean(axis=0)
    np.testing.assert_allclose(
        dmat.block(1, 1) @ xt,
        (m * m0 / ((m - 1) * m1)) * (per_unit_totals - (n / m) * mu),
        atol=1e-10,
    )
    y1c = np.bincount(index, weights=outcomes.treated)
    cov_c = (totals_rows - totals_rows.mean(0)).T @ (y1c - y1c.mean()) / m
    np.testing.assert_allclose(
        xt.T @ dmat.block(1, 1) @ outcomes.treated,
        (m**2 * m0 / ((m - 1) * m1)) * cov_c,
        atol=1e-10,
    )
    var_c = (totals_rows - totals_rows.mean(0)).T @ (totals_rows - totals_rows.mean(0)) / m
    np.testing.assert_allclose(
        xt.T @ dmat.block(1, 1) @ xt, (m**2 * m0 / ((m - 1) * m1)) * var_c, atol=1e-10
    )


def test_block_scaling_identity_for_equal_probability_designs():
    with pytest.warns(UserWarning, match="fewer than 2 clusters"):
        designs = (make_complete(5, 2), make_cluster([1, 1, 2, 3, 3], 1))
    for design in designs:
        dmat = design_matrix(design)
        pi1 = design.marginals[design.n]
        pi0 = 1.0 - pi1
        base = pi0**2 * dmat.block(0, 0)
        np.testing.assert_allclose(pi1**2 * dmat.block(1, 1), base, atol=1e-12)
        np.testing.assert_allclose(-pi1 * pi0 * dmat.block(1, 0), base, atol=1e-12)
        np.testing.assert_allclose(-pi1 * pi0 * dmat.block(0, 1), base, atol=1e-12)


def test_ols_population_minimizes_universal_bound_complete():
    design = make_complete(6, 3)
    dmat = design_matrix(design)
    rng = np.random.default_rng(15)
    x = zero_center(rng.standard_normal((6, 1)))
    spec = spec_II(x)
    y0 = 0.7 * x[:, 0] + rng.standard_normal(6)
    y1 = -0.3 * x[:, 0] + rng.standard_normal(6)
    outcomes = StackedOutcomes.from_arms(y0, y1)
    bound = as_bound(dmat)
    bt = b_tilde_opt(spec, bound, outcomes)
    pop = b_population("ols_II", x, outcomes, design)
    ut = outcomes.values - spec.matrix @ bt.values
    up = outcomes.values - spec.matrix @ pop.values
    assert up @ bound.values @ up == pytest.approx(ut @ bound.values @ ut, abs=1e-10)


def test_stack_clusters_matches_manual_totals():
    design, x, outcomes = _cluster_setup()
    collapsed = stack_clusters(outcomes, CLUSTER_IDS)
    index = np.searchsorted(np.unique(CLUSTER_IDS), CLUSTER_IDS)
    np.testing.assert_allclose(
        collapsed.control, np.bincount(index, weights=outcomes.control)
    )
    np.testing.assert_allclose(
        collapsed.treated, np.bincount(index, weights=outcomes.treated)
    )
