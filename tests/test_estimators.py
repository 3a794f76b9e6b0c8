import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dbexp import (
    AdjustmentCache,
    AssignmentRealization,
    AteEstimator,
    batch_points,
    ObservedOutcomes,
    StackedOutcomes,
    add_invprop_column,
    b_opt,
    coef_2r,
    coef_3ht,
    coef_by_name,
    coef_fixed,
    coef_ols,
    coef_ols_cluster_totals,
    coef_tyranny,
    coef_wls_pi,
    design_matrix,
    draw,
    enumerate_assignments,
    fixed_coef_variance,
    greg,
    greg_forms,
    ht_ate,
    ht_cov_means,
    intercept_contrast,
    make_bernoulli,
    make_cluster,
    make_complete,
    spec_cluster,
    spec_I,
    spec_II,
    zero_center,
)
from conftest import enumeration_moments, enumeration_vector_mean
from dbexp import estimators
from dbexp._group import Groups, unit_groups
from dbexp._linalg import CERTIFIED_COND, PINV_RCOND, _svd_solve, component_blocks, pinv_solve
from dbexp.design import cluster_level_design
from dbexp.estimators import (
    _Realizations,
    _adjustment,
    _gram,
    _ht,
    _rows,
    _summed,
    _three_ht,
    _two_r,
)


def _observe(outcomes, z):
    realization = AssignmentRealization(np.asarray(z))
    return ObservedOutcomes.from_schedule(outcomes, realization)


TWO_UNIT = StackedOutcomes.from_arms([0.0, 2.0], [1.0, 3.0])


def test_ht_worked_example_and_unbiasedness():
    design = make_complete(2, 1)
    assert ht_ate(_observe(TWO_UNIT, [1, 0]), design) == pytest.approx(-1.0)
    assert ht_ate(_observe(TWO_UNIT, [0, 1]), design) == pytest.approx(3.0)
    mean, _ = enumeration_moments(
        design, lambda r: ht_ate(ObservedOutcomes.from_schedule(TWO_UNIT, r), design)
    )
    assert mean == pytest.approx(TWO_UNIT.ate, abs=1e-12)
    assert TWO_UNIT.ate == pytest.approx(1.0)


def test_ht_zero_outcomes():
    zeros = StackedOutcomes.from_arms(np.zeros(4), np.zeros(4))
    for design in (make_complete(4, 1), make_bernoulli([0.2, 0.4, 0.6, 0.8])):
        assert ht_ate(_observe(zeros, [1, 0, 0, 1]), design) == 0.0


def test_ht_missing_outcome_errors():
    with pytest.raises(ValueError, match="missing observed outcome"):
        ObservedOutcomes(np.array([1.0, np.nan]), AssignmentRealization([1, 0]))


def test_ht_cov_means_intercept_component():
    design = make_complete(6, 2)
    x = zero_center(np.arange(6.0))
    spec = spec_I(x)
    for seed in range(5):
        r = draw(design, seed)
        comps = ht_cov_means(spec, r, design)
        # counts are fixed under complete randomization, so both intercept
        # components vanish on every draw
        assert comps[0] == pytest.approx(0.0, abs=1e-12)
        assert comps[1] == pytest.approx(0.0, abs=1e-12)

    bern = make_bernoulli(np.full(6, 0.4))
    nonzero = ht_cov_means(spec, AssignmentRealization([1, 1, 1, 0, 0, 0]), bern)
    assert abs(nonzero[1]) > 1e-6


def test_ht_cov_means_enumeration_mean_is_zero():
    design = make_complete(4, 2)
    spec = spec_II(zero_center(np.array([0.3, -1.2, 0.8, 0.1])))
    mean = enumeration_vector_mean(design, lambda r: ht_cov_means(spec, r, design))
    np.testing.assert_allclose(mean, 0.0, atol=1e-12)


def test_greg_zero_coefficient_equals_ht():
    design = make_bernoulli([0.3, 0.5, 0.7, 0.6])
    obs = _observe(StackedOutcomes.from_arms([1, 2, 3, 4.0], [2, 1, 5, 3.0]), [1, 0, 1, 0])
    spec = spec_II(zero_center(np.array([1.0, -2.0, 0.5, 0.5])))
    est = greg(obs, design, spec, coef_fixed(np.zeros(4), spec))
    assert est.point == pytest.approx(ht_ate(obs, design), abs=1e-12)


def test_greg_intercept_only_is_difference_of_means():
    design = make_complete(2, 1)
    obs = _observe(TWO_UNIT, [1, 0])
    spec = spec_I(np.empty((2, 0)))
    est = greg(obs, design, spec, coef_ols(spec, obs))
    assert est.point == pytest.approx(1.0 - 2.0)  # observed treated mean minus control mean


def test_greg_fixed_coefficient_is_unbiased():
    design = make_complete(4, 2)
    outcomes = StackedOutcomes.from_arms([0, 1, 2, 3.0], [2, 2, 4, 7.0])
    spec = spec_II(zero_center(np.array([0.5, -0.5, 1.5, -1.5])))
    b = coef_fixed([0.4, -1.1, 2.0, 0.7], spec)
    mean, var = enumeration_moments(
        design,
        lambda r: greg(ObservedOutcomes.from_schedule(outcomes, r), design, spec, b).point,
    )
    assert mean == pytest.approx(outcomes.ate, abs=1e-12)
    # and its enumeration variance is the fixed-coefficient variance formula
    oracle = fixed_coef_variance(outcomes, spec, b.values, design_matrix(design))
    assert var == pytest.approx(oracle, abs=1e-12)


def test_greg_forms_agree():
    rng = np.random.default_rng(5)
    design = make_bernoulli([0.25, 0.5, 0.6, 0.75, 0.4])
    outcomes = StackedOutcomes.from_arms(rng.standard_normal(5), rng.standard_normal(5))
    spec = spec_II(zero_center(rng.standard_normal((5, 2))))
    for seed in range(20):
        obs = ObservedOutcomes.from_schedule(outcomes, draw(design, seed))
        coef = coef_ols(spec, obs)
        forms = greg_forms(obs, design, spec, coef)
        assert forms["form_a"] == pytest.approx(forms["form_b"], abs=1e-10)
        assert forms["form_c"] == pytest.approx(forms["form_b"], abs=1e-10)
        est = greg(obs, design, spec, coef)
        assert est.point == pytest.approx(forms["form_b"], abs=1e-12)


def test_fixed_coef_variance_zero_coefficient():
    design = make_complete(2, 1)
    dmat = design_matrix(design)
    spec = spec_I(np.empty((2, 0)))
    value = fixed_coef_variance(TWO_UNIT, spec, np.zeros(2), dmat)
    assert value == pytest.approx(dmat.quadratic(TWO_UNIT.values) / 4.0, abs=1e-12)
    # enumeration variance of the two HT values {-1, 3} around their mean 1
    assert value == pytest.approx(4.0)


def test_coef_ols_arm_means_and_remark_identity():
    design = make_complete(6, 3)
    rng = np.random.default_rng(11)
    outcomes = StackedOutcomes.from_arms(rng.standard_normal(6), rng.standard_normal(6) + 2)
    spec0 = spec_II(np.empty((6, 0)))
    obs = _observe(outcomes, [1, 0, 1, 0, 1, 0])
    b = coef_ols(spec0, obs).values
    treated = outcomes.treated[[0, 2, 4]]
    control = outcomes.control[[1, 3, 5]]
    assert b[0] == pytest.approx(control.mean())
    assert b[1] == pytest.approx(treated.mean())

    x = zero_center(rng.standard_normal((6, 2)))
    for spec in (spec_I(x), spec_II(x)):
        for seed in range(30):
            obs = ObservedOutcomes.from_schedule(outcomes, draw(design, seed))
            coef = coef_ols(spec, obs)
            est = greg(obs, design, spec, coef)
            assert intercept_contrast(coef, spec) == pytest.approx(est.point, abs=1e-10)


def test_coef_ols_rank_deficiency_flagged():
    x = zero_center(np.array([[1.0, 1.0], [2.0, 2.0], [-1.0, -1.0], [-2.0, -2.0]]))
    spec = spec_II(x)
    obs = _observe(StackedOutcomes.from_arms(np.ones(4), 2 * np.ones(4)), [1, 1, 0, 0])
    coef = coef_ols(spec, obs)
    assert coef.rank_deficient
    assert np.isfinite(coef.values).all()


def test_stacked_pinv_solve_matches_single_solves():
    rng = np.random.default_rng(5)
    a = np.empty((3, 4, 4))
    for k in range(3):
        f = rng.standard_normal((6, 4))
        if k == 1:
            f[:, 3] = f[:, 0] + f[:, 1]  # rank 3
        a[k] = f.T @ f
    b = rng.standard_normal((3, 4))
    x, flags, certified = pinv_solve(a, b)
    assert flags.tolist() == [False, True, False]
    assert certified.tolist() == [True, False, True]
    for k in range(3):
        single, flag, _ = pinv_solve(a[k], b[k])
        assert isinstance(flag, bool) and flag == flags[k]
        np.testing.assert_allclose(x[k], single, rtol=1e-14, atol=1e-14)
    # the rank-deficient system gets the minimum-norm solution
    np.testing.assert_allclose(x[1], np.linalg.pinv(a[1], rcond=1e-12) @ b[1], rtol=1e-10)


def _psd_matrix(rng, l, kind):
    """A PSD (l, l) normal matrix of one kind: well conditioned, condition number
    near the certificate's 1e10 and the cutoff's 1e12, rounded duplicate
    columns, or exactly singular."""
    f = rng.standard_normal((l + 3, l))
    if kind == "near" and l > 1:
        q = np.linalg.qr(rng.standard_normal((l, l)))[0]
        s = np.logspace(0.0, -rng.uniform(9.0, 13.0), l)  # singular values, cond 1e9..1e13
        a = (q * s) @ q.T
        return (a + a.T) / 2.0
    if kind == "duplicate" and l > 1:
        i, j = rng.choice(l, 2, replace=False)
        f[:, j] = f[:, i] * 0.1 / 0.1  # equal up to rounding
    if kind == "singular":
        f[:, rng.integers(l)] = 0.0  # a zero row and column: LU meets an exact zero pivot
    a = f.T @ f
    if kind == "singular":
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(a)
    return a


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 12), st.lists(st.sampled_from(["well", "near", "duplicate", "singular"]),
                                    min_size=1, max_size=6),
       st.integers(-6, 6), st.integers(0, 2**16))
def test_pinv_solve_certified_inverse_against_the_svd(l, kinds, exponent, seed):
    """Each matrix of a PSD stack takes the inverse only where its certificate
    holds, with the SVD rule's flags and its solution to ``l cond eps``, and
    gets the same bits alone as in its stack, even when the stacked ``inv``
    raises on an exactly singular member."""
    rng = np.random.default_rng(seed)
    a = np.stack([_psd_matrix(rng, l, kind) for kind in kinds]) * 10.0**exponent
    b = rng.standard_normal((len(kinds), l)) * 10.0**exponent
    x, deficient, certified = pinv_solve(a, b)
    svd_x, svd_deficient = _svd_solve(a, b)
    s = np.linalg.svd(a, compute_uv=False)
    assert np.array_equal(deficient, (s <= PINV_RCOND * s[:, :1]).any(axis=1))
    assert np.array_equal(deficient, svd_deficient)
    assert not (certified & deficient).any()
    for k in range(len(kinds)):
        if certified[k]:
            cond = s[k, 0] / s[k, -1]
            assert cond <= CERTIFIED_COND
            gap = np.linalg.norm(x[k] - svd_x[k])
            assert gap <= l * cond * np.finfo(float).eps * np.linalg.norm(svd_x[k])
        else:
            assert np.array_equal(x[k], svd_x[k])
        alone = pinv_solve(a[k], b[k])
        assert np.array_equal(alone[0], x[k]) and alone[1:] == (deficient[k], certified[k])
    if "singular" in kinds:
        assert not certified[kinds.index("singular")]


def _block_diagonal(rng, sizes, r, singular):
    """A stack of r PSD matrices, block-diagonal over blocks of ``sizes`` on
    shuffled columns, each block of a random kind and scale; with ``singular``
    the first matrix's first block is exactly singular.  Returns the stack
    and its blocks as ``component_blocks`` groups them."""
    l = sum(sizes)
    slots = np.split(rng.permutation(l), np.cumsum(sizes)[:-1])
    a = np.zeros((r, l, l))
    for k in range(r):
        for b, block in enumerate(slots):
            kind = "singular" if singular and k == b == 0 else rng.choice(
                ["well", "near", "duplicate"])
            a[k][np.ix_(block, block)] = (_psd_matrix(rng, block.size, kind)
                                          * 10.0 ** rng.integers(-3, 4))
    pattern = np.zeros((l, l), dtype=bool)
    for block in slots:
        pattern[np.ix_(block, block)] = True
    return a, component_blocks(pattern)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.sampled_from([1, 3]),
       st.booleans(), st.integers(0, 2**16))
@example([2, 5, 3], 1, True, 0)  # unequal blocks, one exactly singular, R = 1
@example([2, 5, 3], 3, True, 0)  # the same beside two more matrices
def test_blocked_pinv_solve_equals_the_whole_matrix_solve(sizes, r, singular, seed):
    """Solving a block-diagonal stack block by block gives the whole-matrix
    solve's routes and flags and its solutions to the route's tolerance, and
    each matrix the same bits alone as in its stack, also when one block is
    exactly singular (only its own matrix is then inverted alone)."""
    rng = np.random.default_rng(seed)
    a, blocks = _block_diagonal(rng, sizes, r, singular)
    b = rng.standard_normal((r, a.shape[-1]))
    x, deficient, certified = pinv_solve(a, b, blocks)
    whole_x, whole_deficient, whole_certified = pinv_solve(a, b)
    assert np.array_equal(deficient, whole_deficient)
    assert np.array_equal(certified, whole_certified)
    if singular:
        assert not certified[0]
    s = np.linalg.svd(a, compute_uv=False)
    eps = np.finfo(float).eps
    for k in range(r):
        kept = s[k][s[k] > PINV_RCOND * s[k, 0]]
        cond = kept[0] / kept[-1] if kept.size else 1.0  # of the directions kept
        gap = np.linalg.norm(x[k] - whole_x[k])
        assert gap <= 4 * a.shape[-1] * cond * eps * np.linalg.norm(whole_x[k])
        alone = pinv_solve(a[k], b[k], blocks)
        assert np.array_equal(alone[0], x[k]) and alone[1:] == (deficient[k], certified[k])


def test_blocked_pinv_solve_of_a_non_finite_matrix():
    """A NaN in one block fails the stack's solve, as the whole-matrix solve
    does, and the other matrices solve alone as they would in a stack."""
    a, blocks = _block_diagonal(np.random.default_rng(3), [2, 3, 2], 3, False)
    a[1, 0, 0] = np.nan
    b = np.ones((3, a.shape[-1]))
    for given_blocks in (blocks, None):
        with pytest.raises(np.linalg.LinAlgError):
            pinv_solve(a, b, given_blocks)
    clean = pinv_solve(a[[0, 2]], b[[0, 2]], blocks)
    for row, k in enumerate((0, 2)):
        alone = pinv_solve(a[k], b[k], blocks)
        assert np.array_equal(alone[0], clean[0][row])
        assert alone[1:] == (clean[1][row], clean[2][row])


#: An infinite entry in the second matrix of a stack: LAPACK's SVD can loop
#: forever on it, so the solve runs in a child process under a timeout.
_INFINITE_SOLVE = """
import numpy as np
from dbexp._linalg import pinv_solve
from dbexp.estimators import _System, _fit
a = np.stack([np.eye(3)] * 2)
a[1, 0, 0] = np.inf
for blocks in (None, [np.arange(3)[None]], [np.arange(3)[:, None]]):
    try:
        pinv_solve(a, np.ones((2, 3)), blocks)
    except np.linalg.LinAlgError:
        print("raised")
system = _System((1, 3), lambda w: a[w[:, 0].astype(int)], np.ones((1, 3)))
b, deficient, certified, failed = _fit(system, np.array([[0.0], [1.0]]), np.ones((2, 1)))
print(b[0].tolist(), np.isnan(b[1]).all(), failed.tolist())
"""


def test_pinv_solve_of_an_infinite_matrix_raises():
    """An infinite entry raises ``LinAlgError`` before any SVD, as a NaN does,
    with or without blocks, and ``_fit`` then fails only that matrix's row."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", _INFINITE_SOLVE], env=env, capture_output=True,
                          text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["raised"] * 3 + ["[1.0, 1.0, 1.0] True [False, True]", ""]


def test_coef_wls_pi_identities():
    rng = np.random.default_rng(23)
    outcomes = StackedOutcomes.from_arms(rng.standard_normal(6), rng.standard_normal(6))
    x = zero_center(rng.standard_normal((6, 1)))

    equal = make_complete(6, 2)
    spec = spec_II(x)
    obs = ObservedOutcomes.from_schedule(outcomes, draw(equal, 0))
    np.testing.assert_allclose(
        coef_wls_pi(spec, obs, equal).values, coef_ols(spec, obs).values, atol=1e-10
    )

    design = make_bernoulli([0.2, 0.35, 0.5, 0.65, 0.8, 0.45])
    for spec in (spec_I(x), spec_II(x)):
        for seed in range(40):
            obs = ObservedOutcomes.from_schedule(outcomes, draw(design, seed))
            coef = coef_wls_pi(spec, obs, design)
            est = greg(obs, design, spec, coef)
            assert intercept_contrast(coef, spec) == pytest.approx(est.point, abs=1e-10)


def test_coef_wls_pi_weighted_arm_means():
    design = make_bernoulli([0.2, 0.4, 0.6, 0.8])
    outcomes = StackedOutcomes.from_arms([1, 2, 3, 4.0], [5, 6, 7, 8.0])
    z = np.array([1, 0, 0, 1])
    obs = _observe(outcomes, z)
    spec = spec_II(np.empty((4, 0)))
    b = coef_wls_pi(spec, obs, design).values
    w0 = 1.0 / np.array([0.6, 0.4])  # control weights for units 1, 2
    assert b[0] == pytest.approx((w0 @ [2.0, 3.0]) / w0.sum())
    w1 = 1.0 / np.array([0.2, 0.8])
    assert b[1] == pytest.approx((w1 @ [5.0, 8.0]) / w1.sum())


def test_invprop_column_restores_ols_identity():
    rng = np.random.default_rng(7)
    design = make_bernoulli([0.2, 0.35, 0.5, 0.65, 0.8, 0.4])
    outcomes = StackedOutcomes.from_arms(rng.standard_normal(6), rng.standard_normal(6))
    x = zero_center(rng.standard_normal((6, 1)))
    spec = add_invprop_column(spec_II(x), design)
    for seed in range(60):
        obs = ObservedOutcomes.from_schedule(outcomes, draw(design, seed))
        coef = coef_ols(spec, obs)
        forms = greg_forms(obs, design, spec, coef)
        assert forms["weighted_residual_term"] == pytest.approx(0.0, abs=1e-10)


def test_coef_3ht_zero_outcomes_and_unbiasedness():
    design = make_complete(4, 2)
    x = zero_center(np.array([0.7, -0.2, 1.1, -1.6]))
    spec = spec_II(x)
    zeros = StackedOutcomes.from_arms(np.zeros(4), np.zeros(4))
    obs = _observe(zeros, [1, 1, 0, 0])
    np.testing.assert_allclose(coef_3ht(spec, obs, design).values, 0.0, atol=1e-14)

    outcomes = StackedOutcomes.from_arms([1, 0, 2, -1.0], [3, 1, 0, 2.0])
    mean = enumeration_vector_mean(
        design,
        lambda r: coef_3ht(spec, ObservedOutcomes.from_schedule(outcomes, r), design).values,
    )
    from dbexp import b_opt

    target = b_opt(spec, design_matrix(design), outcomes).values
    np.testing.assert_allclose(mean, target, atol=1e-12)


def test_coef_3ht_is_weighted_column_sum_estimator():
    design = make_bernoulli([0.3, 0.6, 0.4, 0.7])
    x = zero_center(np.array([0.2, -0.4, 0.9, -0.7]))
    spec = spec_II(x)
    outcomes = StackedOutcomes.from_arms([1, 2, 0, -1.0], [0, 1, 2, 3.0])
    dmat = design_matrix(design)
    cache = AdjustmentCache.build(spec, design)
    columns = (cache.xdx_pinv @ cache.xd) * outcomes.values  # l x 2n, scaled per slot
    for seed in range(10):
        r = draw(design, seed)
        obs = ObservedOutcomes.from_schedule(outcomes, r)
        direct = coef_3ht(spec, obs, design).values
        w = r.indicator_diagonal() / design.marginals
        np.testing.assert_allclose(direct, columns @ w, atol=1e-12)
    assert dmat.n == 4


def test_coef_2r_exact_fit_kills_residual_term():
    design = make_bernoulli([0.25, 0.4, 0.55, 0.7, 0.6])
    x = zero_center(np.array([0.5, -1.0, 0.25, 0.75, -0.5]))
    spec = spec_I(x)
    c = np.array([0.7, 1.9, -1.2])
    fitted = spec.matrix @ c
    outcomes = StackedOutcomes(fitted, 5)
    for seed in range(10):
        obs = ObservedOutcomes.from_schedule(outcomes, draw(design, seed))
        coef = coef_2r(spec, obs, design)
        residual = outcomes.values - spec.matrix @ coef.values
        np.testing.assert_allclose(residual, 0.0, atol=1e-8)


def test_coef_2r_matches_ols_under_complete_randomization():
    rng = np.random.default_rng(3)
    design = make_complete(6, 3)
    outcomes = StackedOutcomes.from_arms(rng.standard_normal(6), rng.standard_normal(6))
    spec = spec_II(zero_center(rng.standard_normal((6, 2))))
    for realization, _ in enumerate_assignments(design):
        obs = ObservedOutcomes.from_schedule(outcomes, realization)
        p2 = greg(obs, design, spec, coef_2r(spec, obs, design)).point
        pols = greg(obs, design, spec, coef_ols(spec, obs)).point
        assert p2 == pytest.approx(pols, abs=1e-8)


def test_coef_tyranny_structure():
    design = make_complete(4, 2)
    outcomes = StackedOutcomes.from_arms([1, 2, 3, 4.0], [4, 3, 5, 6.0])
    spec0 = spec_I(np.empty((4, 0)))
    obs = _observe(outcomes, [1, 0, 1, 0])
    b = coef_tyranny(spec0, obs, design).values
    bw = coef_wls_pi(spec_II(np.empty((4, 0))), obs, design).values
    assert b[0] == pytest.approx(bw[0], abs=1e-10)
    assert b[1] == pytest.approx(bw[1], abs=1e-10)

    with pytest.raises(ValueError):
        coef_tyranny(spec_II(np.zeros((4, 1))), obs, design)


def test_coef_tyranny_moment_identities():
    # the estimator's building blocks are unbiased for the population moments,
    # whose solution weights each arm's slope by the other arm's share
    rng = np.random.default_rng(9)
    design = make_complete(6, 3)
    x = zero_center(rng.standard_normal((6, 1)))
    spec = spec_I(x)
    outcomes = StackedOutcomes.from_arms(rng.standard_normal(6), rng.standard_normal(6))

    def parts(realization):
        ind = realization.indicator_diagonal()
        w = ind * (1.0 / design.marginals - 1.0)
        normal = spec.matrix.T @ (spec.matrix * w[:, None])
        rhs = spec.matrix.T @ (outcomes.values * ind * (1.0 / design.marginals - 1.0))
        return np.concatenate([normal.ravel(), rhs])

    mean = enumeration_vector_mean(design, parts)
    k = spec.n_columns
    normal_mean = mean[: k * k].reshape(k, k)
    rhs_mean = mean[k * k :]
    pi = design.marginals
    expected_normal = spec.matrix.T @ ((1.0 - pi)[:, None] * spec.matrix)
    expected_rhs = spec.matrix.T @ ((1.0 - pi) * outcomes.values)
    np.testing.assert_allclose(normal_mean, expected_normal, atol=1e-12)
    np.testing.assert_allclose(rhs_mean, expected_rhs, atol=1e-12)

    solution = np.linalg.solve(expected_normal, expected_rhs)
    s0 = np.linalg.lstsq(x, outcomes.control - outcomes.control.mean(), rcond=None)[0]
    s1 = np.linalg.lstsq(x, outcomes.treated - outcomes.treated.mean(), rcond=None)[0]
    np.testing.assert_allclose(solution[2:], (s0 + s1) / 2.0, atol=1e-10)  # n1 == n0


def test_tyranny_matches_separate_slopes_precision():
    # common-slopes minority weighting attains the separate-slopes optimum
    # in the long run under complete randomization
    rng = np.random.default_rng(41)
    n = 60
    design = make_complete(n, 30)
    x = zero_center(rng.standard_normal((n, 1)))
    y0 = 1.5 * x[:, 0] + rng.standard_normal(n)
    y1 = 2.0 + 0.5 * x[:, 0] + rng.standard_normal(n)
    outcomes = StackedOutcomes.from_arms(y0, y1)
    spec1, spec2 = spec_I(x), spec_II(x)
    t_points, o_points = [], []
    for seed in range(3000):
        obs = ObservedOutcomes.from_schedule(outcomes, draw(design, seed))
        t_points.append(greg(obs, design, spec1, coef_tyranny(spec1, obs, design)).point)
        o_points.append(greg(obs, design, spec2, coef_ols(spec2, obs)).point)
    var_t = np.var(t_points)
    var_o = np.var(o_points)
    assert var_t == pytest.approx(var_o, rel=0.15)


def test_cluster_totals_estimator_singletons_and_equal_sizes():
    rng = np.random.default_rng(13)
    n = 6
    y0 = rng.standard_normal(n)
    y1 = y0 + 1.0
    outcomes = StackedOutcomes.from_arms(y0, y1)
    x = zero_center(rng.standard_normal((n, 1)))

    singles = make_cluster(np.arange(n), 3)
    spec_c = spec_cluster(x, np.arange(n), "II")
    obs = ObservedOutcomes.from_schedule(outcomes, draw(singles, 2))
    coef = coef_ols_cluster_totals(spec_c, obs)
    est = greg(obs, singles, spec_c, coef)
    # singleton clusters: the cluster system is the unit system plus a
    # redundant totaled-intercept column, so the fit is unchanged
    unit_design = make_complete(n, 3)
    unit_spec = spec_II(x)
    unit_est = greg(obs, unit_design, unit_spec, coef_ols(unit_spec, obs))
    assert est.point == pytest.approx(unit_est.point, abs=1e-8)

    cluster_ids = np.array([1, 1, 2, 2, 3, 3])
    with pytest.warns(UserWarning):
        equal = make_cluster(cluster_ids, 1)
    spec_eq = spec_cluster(np.empty((n, 0)), cluster_ids, "II")
    obs_eq = ObservedOutcomes.from_schedule(outcomes, draw(equal, 5))
    coef_eq = coef_ols_cluster_totals(spec_eq, obs_eq)
    est_eq = greg(obs_eq, equal, spec_eq, coef_eq)
    z = obs_eq.realization.assignment
    totals = np.bincount([0, 0, 1, 1, 2, 2], weights=obs_eq.outcomes)
    zc = z[[0, 2, 4]]
    m, n_units = 3, 6
    expected = (totals[zc == 1].mean() - totals[zc == 0].mean()) * m / n_units
    assert est_eq.point == pytest.approx(expected, abs=1e-8)


def test_cluster_totals_requires_cluster_level_spec():
    x = zero_center(np.arange(4.0))
    obs = _observe(StackedOutcomes.from_arms(np.zeros(4), np.ones(4)), [1, 0, 1, 0])
    with pytest.raises(ValueError):
        coef_ols_cluster_totals(spec_II(x), obs)


def test_intercept_contrast_positions_and_errors():
    spec1 = spec_I(np.zeros((3, 2)))
    b = coef_fixed([2.0, 5.0, 1.0, 1.0], spec1)
    assert intercept_contrast(b, spec1) == pytest.approx(3.0)
    spec2 = spec_II(np.zeros((3, 1)))
    b2 = coef_fixed([2.0, 9.9, 5.0, 9.9], spec2)
    assert intercept_contrast(b2, spec2) == pytest.approx(3.0)

    from dbexp import CovariateSpec

    custom = CovariateSpec(np.zeros((6, 2)), "custom", ("a", "b"))
    with pytest.raises(ValueError):
        intercept_contrast(coef_fixed([1.0, 2.0], custom), custom)


def test_adjustment_cache_keeps_the_design_side_rank_flag():
    x = zero_center(np.array([0.3, -1.2, 0.8, 2.0, -0.4, 0.5]))[:, None]
    with pytest.warns(UserWarning):
        clustered = make_cluster([1, 1, 2, 2, 3, 3], 1)
    # D annihilates the arm intercepts of the complete and cluster designs
    assert AdjustmentCache.build(spec_II(x), make_complete(6, 3)).rank_deficient
    assert AdjustmentCache.build(spec_II(x), clustered).rank_deficient
    bernoulli = make_bernoulli([0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
    assert not AdjustmentCache.build(spec_II(x), bernoulli).rank_deficient


BATCH_IDS = np.array([1, 1, 2, 2, 2, 3, 4, 4, 5, 5, 6, 6])
RELABELLED_IDS = 7 - BATCH_IDS  # BATCH_IDS' clusters in the reverse id order
SHUFFLED_SINGLETONS = np.array([9, 4, 11, 0, 7, 2, 10, 5, 1, 8, 3, 6])
SINGLE = {
    "ols": lambda spec, obs, design, cache: coef_ols(spec, obs),
    "wls_pi": lambda spec, obs, design, cache: coef_wls_pi(spec, obs, design),
    "three_ht": lambda spec, obs, design, cache: coef_3ht(spec, obs, design, cache),
    "two_r": lambda spec, obs, design, cache: coef_2r(spec, obs, design, cache),
    "tyranny": lambda spec, obs, design, cache: coef_tyranny(spec, obs, design),
    "ols_cluster_totals": lambda spec, obs, design, cache: coef_ols_cluster_totals(spec, obs),
}


def _batch_case(kind):
    rng = np.random.default_rng(31)
    n = 12
    x = zero_center(rng.standard_normal((n, 2)))
    y0 = x @ np.array([1.0, -0.5]) + rng.standard_normal(n)
    outcomes = StackedOutcomes.from_arms(y0, y0 + 1.0 + x[:, 0])
    if kind in ("cluster", "cluster singletons shuffled"):  # the cluster-total layouts
        ids = BATCH_IDS if kind == "cluster" else SHUFFLED_SINGLETONS
        design = make_cluster(ids, 3)
        layouts = (spec_cluster(x, ids, "II"), spec_cluster(x, ids, "I"))
        methods = ("ols_cluster_totals", "ols", "wls_pi", "three_ht", "two_r")
        if kind == "cluster":  # and a layout whose ids label the design's clusters otherwise
            relabelled = ((spec_cluster(x, RELABELLED_IDS, "II"),), ("ols_cluster_totals", "two_r"))
            return design, outcomes, [(layouts, methods), (layouts[1:], ("tyranny",)), relabelled]
    else:
        design = make_complete(n, 5)
        if kind == "bernoulli":
            design = make_bernoulli(rng.uniform(0.2, 0.8, n))
        if kind.startswith("cluster units"):  # unit-level layouts on multi-unit clusters
            design = make_cluster(BATCH_IDS, 3)
        layouts = (spec_II(x), spec_I(x))
        methods = ("ols", "wls_pi", "three_ht", "two_r")
    return design, outcomes, [(layouts, methods), (layouts[1:], ("tyranny",))]


def _batch_treated(design, kind, draws=450):
    """450 draws by default, so the stack crosses a block boundary."""
    treated = np.array([draw(design, 500 + r).assignment for r in range(draws)])
    if kind == "cluster units split":  # every third assignment splits units 0 and 1's cluster
        treated[::3, 0] = 1 - treated[::3, 0]
    return treated


@pytest.mark.parametrize("kind", ["complete", "bernoulli", "cluster", "cluster singletons shuffled",
                                  "cluster units", "cluster units split"])
def test_batch_points_equal_single_realization_estimates(kind):
    """Each point equals its single fit.  A multi-unit cluster design also takes
    the stack as one column per cluster in ascending id order, with results
    equal bit for bit; with singleton clusters (m = n) a stack of width n is
    one of units, whose ids here are out of unit order."""
    design, outcomes, calls = _batch_case(kind)
    treated = _batch_treated(design, kind)
    by_cluster = None
    if kind in ("cluster", "cluster units"):
        by_cluster = treated[:, np.unique(BATCH_IDS, return_index=True)[1]]
        assert by_cluster.shape == (450, 6)
    for specs, methods in calls:
        batch = batch_points(design, outcomes, treated, specs, methods)
        assert batch.points.shape == (450, len(methods), len(specs))
        assert not batch.failed.any()
        if by_cluster is not None:
            grouped = batch_points(design, outcomes, by_cluster, specs, methods)
            for name in ("points", "rank_deficient", "certified", "failed"):
                assert getattr(grouped, name).tobytes() == getattr(batch, name).tobytes(), name
        caches = [AdjustmentCache.build(spec, design) for spec in specs]
        for r, z in enumerate(treated):
            obs = _observe(outcomes, z)
            for m, method in enumerate(methods):
                for s, (spec, cache) in enumerate(zip(specs, caches)):
                    coef = SINGLE[method](spec, obs, design, cache)
                    assert batch.points[r, m, s] == greg(obs, design, spec, coef).point
                    assert batch.rank_deficient[r, m, s] == coef.rank_deficient
        if kind == "cluster" and "ols" in methods:  # 3 rows, 4 columns per arm
            assert batch.rank_deficient[:, methods.index("ols_cluster_totals"), 0].all()


def _batch_runs(kind, draws, worker_counts, monkeypatch):
    """``batch_points`` of the case's first call at each worker count, each on
    fresh layouts, whose kept group sums the first block fills."""
    runs = []
    for workers in worker_counts:
        design, outcomes, calls = _batch_case(kind)
        specs, methods = calls[0]
        monkeypatch.setattr(estimators, "_cpus", lambda workers=workers: workers)
        runs.append(batch_points(design, outcomes, _batch_treated(design, kind, draws),
                                 specs, methods))
    assert [run.workers for run in runs] == list(worker_counts)
    for run in runs[1:]:
        for name in ("points", "rank_deficient", "failed"):
            assert np.array_equal(getattr(runs[0], name), getattr(run, name))


@pytest.mark.parametrize("kind", ["cluster", "cluster units split"])
def test_batch_points_do_not_depend_on_the_worker_count(kind, monkeypatch):
    """Three blocks, run by one thread and then dealt out to two."""
    _batch_runs(kind, 450, (1, 2), monkeypatch)


def test_batch_points_under_thread_stress(monkeypatch):
    """Nine blocks dealt out to eight threads, more than the cores, switching
    every microsecond: a block that wrote another's rows, or read sums the
    first block had not kept yet, would change a result."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _batch_runs("cluster units split", 1800, (1, 8), monkeypatch)
    finally:
        sys.setswitchinterval(interval)


def _cluster_total_results(ids, x, y0, y1, z):
    """An ols_cluster_totals fit under the cluster and AS bounds, and the
    variance of the fixed coefficient b_opt on the same cluster-level layout."""
    design = make_cluster(ids, 4)
    outcome = np.where(z == 1, y1, y0)
    out = []
    for bound in ("cluster", "as"):
        model = AteEstimator(design, "ols_cluster_totals", bound=bound)
        model.fit(outcome, z, covariates=x, cluster_ids=ids)
        out += [model.ate_, model.variance_bound_]
    spec = spec_cluster(x, ids, "II")
    outcomes = StackedOutcomes.from_arms(y0, y1)
    dmat = design_matrix(cluster_level_design(design)[0])
    b = b_opt(spec, dmat, outcomes).values
    return np.array(out + [fixed_coef_variance(outcomes, spec, b, dmat)])


def test_singleton_clusters_collapse_whatever_their_id_order():
    """Every cluster a single unit, ids out of unit order: unit data still
    collapses to the layout's rows in ascending id order, so reordering the
    units to make the ids ascend changes nothing."""
    rng = np.random.default_rng(8)
    ids = np.array([5, 3, 8, 1, 7, 2, 6, 4])
    x = zero_center(rng.standard_normal((8, 1)))
    y0 = x[:, 0] + rng.standard_normal(8)
    y1 = y0 + 1.0
    z = draw(make_cluster(ids, 4), 3).assignment
    order = np.argsort(ids)
    shuffled = _cluster_total_results(ids, x, y0, y1, z)
    ascending = _cluster_total_results(ids[order], x[order], y0[order], y1[order], z[order])
    np.testing.assert_allclose(shuffled, ascending, rtol=1e-12, atol=0.0)


def test_batch_points_rejects_bad_input():
    design, outcomes, calls = _batch_case("cluster")
    specs, methods = calls[0]
    treated = np.array([draw(design, r).assignment for r in range(3)])
    unit_spec = spec_II(np.zeros((12, 1)))
    bad = treated.copy()
    bad[0, 0] = 2
    with pytest.raises(ValueError, match="0/1"):
        batch_points(design, outcomes, bad, specs, methods)
    with pytest.raises(ValueError, match="0/1"):
        batch_points(design, outcomes, treated[:, :-1], specs, methods)
    by_cluster = treated[:, np.unique(BATCH_IDS, return_index=True)[1]]
    bad = by_cluster.copy()
    bad[1, 2] = 2
    for stack in (bad, by_cluster[:, :-1], np.hstack([by_cluster, by_cluster[:, :1]])):
        with pytest.raises(ValueError, match=r"an \(R, 12\) or \(R, 6\) stack of 0/1"):
            batch_points(design, outcomes, stack, specs, methods)
    with pytest.raises(ValueError, match="one level"):
        batch_points(design, outcomes, treated, [unit_spec, specs[0]], ["ols"])
    for name in ("fixed", "bogus"):
        with pytest.raises(ValueError, match=f"'{name}' is not an estimated coefficient method"):
            batch_points(design, outcomes, treated, specs, [name])
    with pytest.raises(ValueError, match="not an estimated coefficient method"):
        coef_by_name("fixed", specs[0], _observe(outcomes, treated[0]), design)
    # units 0 and 1 share cluster 0; a stack of one and one realization alone
    # fail alike
    split = treated[:1].copy()
    split[0, :2] = [0, 1]
    with pytest.raises(ValueError, match="assignment varies within cluster 0"):
        batch_points(design, outcomes, split, specs, ["ols_cluster_totals"])
    with pytest.raises(ValueError, match="assignment varies within cluster 0"):
        coef_ols_cluster_totals(specs[0], _observe(outcomes, split[0]))


# -- products over (arm, group) columns --------------------------------------------


def outer_rows(a, b):
    """Row-wise outer products (rows, l * l'): the reference a weighted Gram is
    the weights times the sums of."""
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)


def _unit_products(matrix, cache, w, wy, divisor, b_wls):
    """HT, adjustment, Gram, WLS right-hand side, 3HT and 2R drift as one-row
    products of unit-level weights ``w`` and weighted outcomes ``wy``; a Gram
    is the stacked product of the weighted rows."""

    def gram(left, right):
        return (left.T * w[:, None, :]) @ right

    drift = gram(cache.xd.T, matrix) - cache.xdx
    return {
        "ht": _rows(wy, np.ones((wy.shape[1], 1)))[:, 0] / divisor,
        "adjustment": _rows(w - 1.0, matrix) / divisor,
        "gram": gram(matrix, matrix),
        "rhs": _rows(wy, matrix),
        "three_ht": _rows(_rows(wy, cache.xd.T), cache.xdx_pinv.T),
        "two_r": -_rows(_rows(b_wls, np.swapaxes(drift, -1, -2)), cache.xdx_pinv.T),
    }


def _grouped_products(spec, cache, obs, divisor, b_wls):
    w, x = obs.w, spec.matrix
    return {
        "ht": _ht(w * obs.y, divisor),
        "adjustment": _adjustment(_summed(spec._sums, obs.groups, x), w, divisor),
        "gram": _gram(spec._sums, obs.groups, w, x, x),
        "rhs": _rows(w * obs.scale, obs.outcome_rows(x)),
        "three_ht": _three_ht(cache, obs),
        "two_r": _two_r(cache, obs, np.zeros_like(b_wls), b_wls),
    }


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 4), min_size=3, max_size=12), st.integers(0, 2**16))
def test_group_column_products_equal_unit_products(ids, seed):
    assume(len(set(ids)) >= 2)
    m = len(set(ids))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # one cluster in an arm
        design = make_cluster(ids, 1 + seed % (m - 1))
    rng = np.random.default_rng(seed)
    n = len(ids)
    x = zero_center(rng.standard_normal((n, 2)))
    y0 = x @ np.array([1.0, -0.5]) + rng.standard_normal(n)
    outcomes = StackedOutcomes.from_arms(y0, y0 + rng.standard_normal(n))
    spec = spec_II(x)
    cache = AdjustmentCache.build(spec, design)
    treated = np.array([draw(design, seed + r).assignment for r in range(3)]) == 1
    b_wls = rng.standard_normal((3, spec.n_columns))
    w = np.concatenate([~treated, treated], axis=1) / design.marginals
    observed = np.where(treated, outcomes.treated, outcomes.control)
    signed = np.concatenate([np.where(treated, 0.0, -observed), np.where(treated, observed, 0.0)], 1)
    wy = signed * w  # the realized signed outcomes, zero at unobserved slots
    want = _unit_products(spec.matrix, cache, w, wy, n, b_wls)
    for groups in (design._assignment_groups, unit_groups(n)):  # each holds group columns
        obs = _Realizations(groups, treated.take(groups.first, axis=1), design.marginals,
                            outcomes.values)
        got = _grouped_products(spec, cache, obs, n, b_wls)
        for key, value in want.items():
            if groups.in_order:  # one unit per group: the unit products themselves
                assert np.array_equal(got[key], value), key
            else:
                np.testing.assert_allclose(got[key], value, rtol=1e-12,
                                           atol=1e-12 * (1.0 + np.abs(value).max()), err_msg=key)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 12), st.integers(1, 5), st.integers(1, 5), st.integers(1, 4),
       st.booleans(), st.integers(0, 2**16))
def test_unit_column_gram_equals_row_wise_outer_products(n, l, l2, r, in_order, seed):
    """The direct weighted Gram on unit columns against the sum of row-wise outer
    products, for l != l' (the 2R drift) and stacks of R weight rows; a unit
    list out of order (singleton clusters with shuffled ids) permutes the rows."""
    rng = np.random.default_rng(seed)
    left, right = rng.standard_normal((2 * n, l)), rng.standard_normal((2 * n, l2))
    w = rng.uniform(0.0, 5.0, (r, 2 * n))
    groups = unit_groups(n) if in_order else Groups(rng.permutation(n))
    got = _gram({}, groups, w, left, right)
    a, b = groups.sum(left), groups.sum(right)
    want = _rows(w, outer_rows(a, b)).reshape(r, l, l2)
    magnitude = (np.abs(a).T * w[:, None, :]) @ np.abs(b)  # the sum of the terms' sizes
    assert np.all(np.abs(got - want) <= 1e-12 * magnitude)
    for i in range(r):  # a row of a stack is the product of that row alone
        assert np.array_equal(got[i], _gram({}, groups, w[i : i + 1], left, right)[0])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 4), min_size=3, max_size=12),
       st.sampled_from(["I", "II", "invprop", "cluster I", "cluster II"]),
       st.integers(1, 3), st.integers(0, 2**16))
def test_pair_gram_equals_the_full_outer_product_gram(ids, kind, r, seed):
    """The Gram formed at the entries it can hold, each on its arm's columns,
    against the weights times the row-wise outer products of every entry:
    exactly zero off them, exactly symmetric, equal to 1e-12 of the terms'
    sizes on them, and each row of a stack the product of that row alone.
    The 2R drift's Gram likewise, and the kept sums take fewer bytes than the
    sums of all l^2 entries."""
    assume(len(set(ids)) >= 2)
    rng = np.random.default_rng(seed)
    n = len(ids)
    x = zero_center(rng.standard_normal((n, 2)))
    cluster_rows = kind.startswith("cluster")
    if cluster_rows:
        spec = spec_cluster(x, ids, kind.split()[1])
        groups = unit_groups(spec.rows_per_arm)  # the collapsed design's units
    else:
        spec = spec_II(x) if kind != "I" else spec_I(x)
        if kind == "invprop":
            spec = add_invprop_column(spec, make_bernoulli(rng.uniform(0.2, 0.8, n)))
        groups = Groups(np.unique(ids, return_inverse=True)[1])
        assume(groups.m < groups.n)  # grouped columns; unit columns take the direct product
    matrix, l = spec.matrix, spec.n_columns
    w = rng.uniform(0.0, 5.0, (r, 2 * groups.m))
    w_rows = w.reshape(r, 2, groups.m)[:, :, groups.index].reshape(r, -1)  # each row's weight
    cache = AdjustmentCache.over(spec, np.eye(matrix.shape[0]) + 0.5)
    # the layout's Gram and the 2R drift's
    for left, pairs in ((matrix, spec.structure.gram_pairs), (cache.dx, spec.structure.cross_pairs)):
        store = {}
        got = _gram(store, groups, w, left, matrix, cluster_rows, pairs)
        want = _rows(w_rows, outer_rows(left, matrix)).reshape(r, l, l)
        magnitude = (np.abs(left).T * w_rows[:, None, :]) @ np.abs(matrix)
        assert np.all(np.abs(got - want) <= 1e-12 * magnitude)
        pattern = np.zeros((l, l), dtype=bool)
        for _, i, j in pairs:
            pattern[i, j] = True
        if left is matrix:
            pattern |= pattern.T
            assert np.array_equal(got, np.swapaxes(got, 1, 2))
        assert np.all(got[:, ~pattern] == 0.0) and np.all(want[:, ~pattern] == 0.0)
        for k in range(r):
            assert np.array_equal(got[k], _gram({}, groups, w[k : k + 1], left, matrix,
                                                cluster_rows, pairs)[0])
        kept = store[(groups.key, False)]
        assert sum(part.nbytes for part in kept) < 2 * groups.m * l * l * 8
