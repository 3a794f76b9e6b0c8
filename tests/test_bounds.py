import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbexp import (
    AdjustmentCache,
    AssignmentRealization,
    BoundConvergenceError,
    BoundMatrix,
    CoefficientEstimate,
    DesignMatrix,
    ObservedOutcomes,
    StackedOutcomes,
    as_bound,
    b_opt,
    bound_estimate_2r_borrowed,
    bound_estimate_greg,
    bound_estimate_ht,
    build_bound,
    cluster_bound,
    coef_2r,
    coef_fixed,
    coef_wls_pi,
    compare_bounds,
    design_matrix,
    draw,
    enumerate_assignments,
    interval_from_bound,
    iterative_bound,
    make_bernoulli,
    make_cluster,
    make_complete,
    make_from_sampler,
    precision_test,
    spec_cluster,
    spec_I,
    spec_II,
    zero_center,
)
from conftest import enumeration_moments
from dense_reference import dense_components, dense_iterative, dense_order_verdict
from dbexp._linalg import block_eigvals, component_blocks, components, pinv, sym_eigvals
from dbexp.bounds import BOUND_METHODS, _order_verdict
from dbexp.estimators import _coef, _observe

CLUSTER_IDS = np.array([1, 1, 2, 3, 4])  # 4 clusters, n = 5


def _cluster_design():
    return make_cluster(CLUSTER_IDS, 2)


def test_as_bound_complete_2_1_structure():
    dmat = design_matrix(make_complete(2, 1))
    bound = as_bound(dmat)
    # every row has two jointly unobservable partners, so the diagonal grows by 2
    np.testing.assert_allclose(np.diag(bound.values - dmat.values), 2.0)
    assert bound.identified
    np.testing.assert_allclose(bound.values[dmat.mask], 0.0)
    assert sym_eigvals(bound.values - dmat.values).min() >= -1e-12


def test_mask_never_empty():
    for design in (make_complete(4, 2), make_bernoulli([0.3, 0.6, 0.5]), _cluster_design()):
        assert design_matrix(design).mask.sum() > 0


def test_as_bound_sharp_null_exact_for_complete_randomization():
    rng = np.random.default_rng(0)
    for n, n1 in ((4, 2), (6, 3), (7, 3)):
        dmat = design_matrix(make_complete(n, n1))
        bound = as_bound(dmat)
        w = rng.standard_normal(n)
        y = np.concatenate([-w, w])
        assert y @ bound.values @ y == pytest.approx(y @ dmat.values @ y, abs=1e-10)


def test_as_bound_gershgorin_diagonal_identity():
    for design in (make_complete(5, 2), make_bernoulli([0.2, 0.5, 0.7, 0.6])):
        dmat = design_matrix(design)
        diff = as_bound(dmat).values - dmat.values
        offdiag_sums = np.abs(diff - np.diag(np.diag(diff))).sum(axis=1)
        np.testing.assert_allclose(np.diag(diff), offdiag_sums, atol=1e-12)


def test_iterative_bound_converges_and_certifies():
    for design in (make_complete(2, 1), make_complete(4, 2)):
        dmat = design_matrix(design)
        bound = iterative_bound(dmat)
        assert bound.identified
        np.testing.assert_allclose(bound.values[dmat.mask], 0.0)
        assert sym_eigvals(bound.values - dmat.values).min() >= -1e-8
        assert len(bound.min_eig_trace) == bound.iterations + 1


def test_iterative_bound_on_two_cluster_design():
    with pytest.warns(UserWarning):
        design = make_cluster([1, 1, 2, 2], 1)
    dmat = design_matrix(design)
    bound = iterative_bound(dmat)
    assert bound.identified  # unlike the analytic cluster bound for this design
    comparison = compare_bounds(bound, as_bound(dmat))
    assert comparison.verdict in ("a_tighter", "tie", "incomparable")
    assert comparison.sharp_null_verdict in ("a_tighter", "tie")


def test_iterative_bound_trivial_fixed_point():
    dmat = design_matrix(make_complete(4, 2))
    clean = DesignMatrix(values=dmat.values, mask=np.zeros_like(dmat.mask), n=dmat.n,
                         joint=dmat.joint)
    bound = iterative_bound(clean)
    assert bound.iterations == 0
    assert bound.min_eig_trace == (0.0,)  # every slot is a block of its own, eigenvalue 0
    assert np.array_equal(bound.values, dmat.values)


def test_iterative_bound_nonconvergence_raises_with_trace():
    dmat = design_matrix(_cluster_design())
    with pytest.raises(BoundConvergenceError) as err:
        iterative_bound(dmat, max_iters=1)
    assert len(err.value.trace) == 1
    with pytest.raises(BoundConvergenceError) as dense:
        dense_iterative(dmat, max_iters=1)
    np.testing.assert_allclose(err.value.trace, dense.value.trace, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("max_iters", [0, -3])
def test_iterative_bound_rejects_fewer_than_one_iteration(max_iters):
    design = make_complete(4, 2)
    for name in BOUND_METHODS:  # before the design matrix is derived
        with pytest.raises(ValueError, match=f"max_iters must be at least 1, got {max_iters}"):
            build_bound(name, design, max_iters=max_iters)
    assert "_design_matrix" not in design.__dict__
    with pytest.raises(ValueError, match=f"max_iters must be at least 1, got {max_iters}"):
        iterative_bound(design_matrix(design), max_iters=max_iters)


def test_cluster_bound_certified_and_sharp_null_exact():
    design = _cluster_design()
    dmat = design_matrix(design)
    bound = cluster_bound(dmat, CLUSTER_IDS)
    assert bound.identified
    np.testing.assert_allclose(bound.values[dmat.mask], 0.0)
    rng = np.random.default_rng(1)
    w = rng.standard_normal(5)
    y = np.concatenate([-w, w])
    assert y @ bound.values @ y == pytest.approx(y @ dmat.values @ y, abs=1e-12)
    # PSD-tighter than the universal bound on cluster designs
    diff = as_bound(dmat).values - bound.values
    assert sym_eigvals(diff).min() >= -1e-8


def test_cluster_bound_two_clusters_not_identified():
    with pytest.warns(UserWarning):
        design = make_cluster([1, 1, 2, 2], 1)
    dmat = design_matrix(design)
    with pytest.warns(UserWarning, match="not identified"):
        bound = cluster_bound(dmat, [1, 1, 2, 2])
    assert not bound.identified
    w = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.concatenate([-w, w])
    assert y @ bound.values @ y == pytest.approx(y @ dmat.values @ y, abs=1e-12)
    assert sym_eigvals(as_bound(dmat).values - bound.values).min() >= -1e-8
    with pytest.raises(ValueError, match="identified"):
        obs = ObservedOutcomes(w, AssignmentRealization([1, 1, 0, 0]))
        bound_estimate_ht(bound, design, obs)


def test_cluster_bound_singletons_match_universal_bound():
    design = make_cluster([1, 2, 3, 4], 2)
    dmat = design_matrix(design)
    c = cluster_bound(dmat, [1, 2, 3, 4])
    np.testing.assert_allclose(c.values, as_bound(dmat).values)


def test_cluster_bound_rejects_non_cluster_designs():
    dmat = design_matrix(make_bernoulli([0.3, 0.5, 0.6, 0.4]))
    with pytest.raises(ValueError):
        cluster_bound(dmat, [1, 1, 2, 2])


def test_compare_bounds_verdicts():
    design = _cluster_design()
    dmat = design_matrix(design)
    universal = as_bound(dmat)
    clustered = cluster_bound(dmat, CLUSTER_IDS)
    comparison = compare_bounds(clustered, universal)
    assert comparison.verdict == "a_tighter"
    assert comparison.sharp_null_verdict in ("a_tighter", "tie")
    flipped = compare_bounds(universal, clustered)
    assert flipped.verdict == "b_tighter"
    assert compare_bounds(universal, universal).verdict == "tie"
    assert comparison.min_eig <= comparison.max_eig


def test_compare_bounds_incomparable_with_heuristics():
    dmat = design_matrix(make_complete(4, 2))
    base = as_bound(dmat)
    u = np.array([1.0, 2.0, 0, 0, 0, 0, 0, 0])
    v = np.array([0, 0, 3.0, 1.0, 0, 0, 0, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bound_u = BoundMatrix(base.values + np.outer(u, u), "custom", True, dmat)
        bound_v = BoundMatrix(base.values + np.outer(v, v), "custom", True, dmat)
    comparison = compare_bounds(bound_u, bound_v)
    assert comparison.verdict == "incomparable"
    assert comparison.min_eig < 0 < comparison.max_eig
    swapped = compare_bounds(bound_v, bound_u)
    assert swapped.min_eig == pytest.approx(-comparison.max_eig)
    assert swapped.eig_sum == pytest.approx(-comparison.eig_sum)


def test_quadratic_ordering_for_all_bounds():
    design = _cluster_design()
    dmat = design_matrix(design)
    rng = np.random.default_rng(3)
    bounds = [as_bound(dmat), iterative_bound(dmat), cluster_bound(dmat, CLUSTER_IDS)]
    for _ in range(100):
        y = rng.standard_normal(10)
        base = y @ dmat.values @ y
        for bound in bounds:
            assert base <= y @ bound.values @ y + 1e-8 * (y @ y)


def test_bound_estimate_ht_unbiased_all_bound_types():
    rng = np.random.default_rng(4)
    design = _cluster_design()
    dmat = design_matrix(design)
    outcomes = StackedOutcomes.from_arms(rng.standard_normal(5), rng.standard_normal(5))
    for bound in (as_bound(dmat), iterative_bound(dmat), cluster_bound(dmat, CLUSTER_IDS)):
        target = outcomes.values @ bound.values @ outcomes.values / 25.0
        mean, _ = enumeration_moments(
            design,
            lambda r: bound_estimate_ht(
                bound, design, ObservedOutcomes.from_schedule(outcomes, r)
            ),
        )
        assert mean == pytest.approx(target, abs=1e-12)

    complete = make_complete(4, 2)
    dmat_c = design_matrix(complete)
    outcomes_c = StackedOutcomes.from_arms(rng.standard_normal(4), rng.standard_normal(4))
    for bound in (as_bound(dmat_c), iterative_bound(dmat_c)):
        target = outcomes_c.values @ bound.values @ outcomes_c.values / 16.0
        mean, _ = enumeration_moments(
            complete,
            lambda r: bound_estimate_ht(
                bound, complete, ObservedOutcomes.from_schedule(outcomes_c, r)
            ),
        )
        assert mean == pytest.approx(target, abs=1e-12)


def test_bound_estimate_ht_zero_outcomes_and_draw_dispersion():
    design = make_complete(4, 2)
    bound = as_bound(design_matrix(design))
    zeros = ObservedOutcomes(np.zeros(4), AssignmentRealization([1, 1, 0, 0]))
    assert bound_estimate_ht(bound, design, zeros) == 0.0
    # only the mean is pinned: individual draws may overshoot the bound
    # (and carry no sign guarantee in general)
    outcomes = StackedOutcomes.from_arms([1.0, -1.0, 2.0, -2.0], [0.5, 1.5, -0.5, 2.5])
    values = [
        bound_estimate_ht(bound, design, ObservedOutcomes.from_schedule(outcomes, r))
        for r, _ in enumerate_assignments(design)
    ]
    target = outcomes.values @ bound.values @ outcomes.values / 16.0
    assert max(values) > target
    assert min(values) < target


def test_bound_estimate_greg_matches_ht_at_zero_and_is_unbiased_fixed_b():
    rng = np.random.default_rng(5)
    design = make_complete(4, 2)
    dmat = design_matrix(design)
    bound = as_bound(dmat)
    x = zero_center(rng.standard_normal((4, 1)))
    spec = spec_II(x)
    outcomes = StackedOutcomes.from_arms(rng.standard_normal(4), rng.standard_normal(4))
    obs = ObservedOutcomes.from_schedule(outcomes, draw(design, 1))
    zero = coef_fixed(np.zeros(spec.n_columns), spec)
    assert bound_estimate_greg(bound, design, obs, spec, zero) == pytest.approx(
        bound_estimate_ht(bound, design, obs), abs=1e-12
    )
    fixed = coef_fixed(rng.standard_normal(spec.n_columns), spec)
    u = outcomes.values - spec.matrix @ fixed.values
    target = u @ bound.values @ u / 16.0
    mean, _ = enumeration_moments(
        design,
        lambda r: bound_estimate_greg(
            bound, design, ObservedOutcomes.from_schedule(outcomes, r), spec, fixed
        ),
    )
    assert mean == pytest.approx(target, abs=1e-12)


def test_borrowed_estimate_reduces_to_plugin_when_bound_is_the_structure():
    rng = np.random.default_rng(6)
    design = make_complete(6, 3)
    dmat = design_matrix(design)
    x = zero_center(rng.standard_normal((6, 1)))
    spec = spec_II(x)
    outcomes = StackedOutcomes.from_arms(rng.standard_normal(6), rng.standard_normal(6))
    obs = ObservedOutcomes.from_schedule(outcomes, draw(design, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        degenerate = BoundMatrix(dmat.values, "custom", True, dmat)
    borrowed = bound_estimate_2r_borrowed(degenerate, design, obs, spec)
    direct = bound_estimate_greg(
        degenerate, design, obs, spec, coef_2r(spec, obs, design)
    )
    assert borrowed == pytest.approx(direct, abs=1e-10)


def _coef_2r_for_bound_reference(bound, spec, observed, design):
    """The two-stage recursion written out over the bound matrix."""
    _, _, sys_obs, sys_design = _observe(observed, design, spec)
    w = sys_obs.indicator() / sys_design.marginals
    xd = spec.matrix.T @ bound.values
    xdx = xd @ spec.matrix
    anchor = float(np.linalg.norm(spec.matrix)) ** 2 * float(np.linalg.norm(bound.values))
    xdx_pinv = pinv(xdx, scale=anchor)
    b_wls = coef_wls_pi(spec, sys_obs, sys_design).values
    b3 = xdx_pinv @ (xd @ (sys_obs.stacked() * w))
    drift = xd @ (spec.matrix * w[:, None]) - xdx
    return CoefficientEstimate(b3 - xdx_pinv @ (drift @ b_wls), "two_r")


@pytest.mark.parametrize(
    "design, methods",
    [
        (make_complete(6, 3), ("as", "iterative")),
        (make_bernoulli([0.3, 0.5, 0.6, 0.4, 0.7]), ("as", "iterative")),
        (_cluster_design(), ("as", "iterative", "cluster")),
    ],
)
def test_borrowed_estimate_matches_the_written_out_recursion(design, methods):
    rng = np.random.default_rng(11)
    x = zero_center(rng.standard_normal((design.n, 1)))
    spec = spec_II(x)
    outcomes = StackedOutcomes.from_arms(*rng.standard_normal((2, design.n)))
    for method in methods:
        bound = build_bound(method, design)
        for seed in range(4):
            obs = ObservedOutcomes.from_schedule(outcomes, draw(design, seed))
            reference = bound_estimate_greg(
                bound, design, obs, spec, _coef_2r_for_bound_reference(bound, spec, obs, design)
            )
            assert bound_estimate_2r_borrowed(bound, design, obs, spec) == pytest.approx(
                reference, abs=1e-12
            )
        # the bound keeps the normal system of the last layout it served: a
        # kept system gives what a freshly built one does, bit for bit
        for seed, layout in enumerate([spec_I(x), spec, spec_I(x), spec_I(x), spec]):
            obs = ObservedOutcomes.from_schedule(outcomes, draw(design, seed))
            cold = _coef("two_r", layout, AdjustmentCache.over(layout, bound.core),
                         _observe(obs, design, layout)[0])
            direct = bound_estimate_greg(bound, design, obs, layout, cold)
            assert bound_estimate_2r_borrowed(bound, design, obs, layout) == direct


def test_bound_estimates_reject_a_bound_built_for_another_design():
    design = make_complete(6, 3)
    own = as_bound(design_matrix(design))
    rng = np.random.default_rng(4)
    x = zero_center(rng.standard_normal((6, 1)))
    spec = spec_II(x)
    outcomes = StackedOutcomes.from_arms(rng.standard_normal(6), rng.standard_normal(6))
    obs = ObservedOutcomes.from_schedule(outcomes, draw(design, 1))
    coefficient = CoefficientEstimate(np.zeros(spec.n_columns), "fixed")
    for other in (make_complete(6, 2), make_complete(4, 2)):
        bound = as_bound(design_matrix(other))
        estimates = [
            lambda: bound_estimate_ht(bound, design, obs),
            lambda: bound_estimate_greg(bound, design, obs, spec, coefficient),
            lambda: bound_estimate_2r_borrowed(bound, design, obs, spec),
            lambda: precision_test(design, obs, spec, coefficient.values, bound),
        ]
        for estimate in estimates:
            with pytest.raises(ValueError, match="the bound was built over a different design"):
                estimate()
        for a, b in ((own, bound), (bound, own)):
            with pytest.raises(ValueError, match="bounds must be built over the same design"):
                compare_bounds(a, b)
    # a unit-level bound does not serve a cluster-total layout, whose system is the clusters
    clustered = make_cluster([1, 1, 2, 3, 3, 4], 2)
    cluster_spec = spec_cluster(x, [1, 1, 2, 3, 3, 4], "II")
    with pytest.raises(ValueError, match="the bound was built over a different design"):
        bound_estimate_greg(
            as_bound(design_matrix(clustered)), clustered,
            ObservedOutcomes.from_schedule(outcomes, draw(clustered, 1)), cluster_spec,
            coef_fixed(np.zeros(cluster_spec.n_columns), cluster_spec),
        )
    # an equal design built again is the same design
    twin = as_bound(design_matrix(make_complete(6, 3)))
    assert compare_bounds(own, twin).verdict == "tie"
    assert bound_estimate_ht(twin, design, obs) == bound_estimate_ht(own, design, obs)


def test_precision_test_degenerate_zero_coefficient():
    design = make_complete(4, 2)
    dmat = design_matrix(design)
    bound = as_bound(dmat)
    x = zero_center(np.array([0.5, -0.5, 1.0, -1.0]))
    spec = spec_II(x)
    outcomes = StackedOutcomes.from_arms(np.ones(4), 2 * np.ones(4))
    obs = ObservedOutcomes.from_schedule(outcomes, draw(design, 0))
    result = precision_test(design, obs, spec, np.zeros(spec.n_columns), bound)
    assert result.degenerate
    assert result.statistic == 0.0
    assert result.threshold == 0.0
    assert result.p_value == 1.0


def test_precision_test_enumeration_mean_and_directions():
    rng = np.random.default_rng(8)
    design = make_complete(4, 2)
    dmat = design_matrix(design)
    bound = as_bound(dmat)
    x = zero_center(rng.standard_normal((4, 1)))
    spec = spec_II(x)
    y0 = 1.3 * x[:, 0] + 0.2 * rng.standard_normal(4)
    y1 = 1.1 * x[:, 0] + 0.2 * rng.standard_normal(4) + 1.0
    outcomes = StackedOutcomes.from_arms(y0, y1)

    helpful = 0.9 * b_opt(spec, dmat, outcomes).values

    def statistic(b):
        def run(realization):
            obs = ObservedOutcomes.from_schedule(outcomes, realization)
            return precision_test(design, obs, spec, b, bound).statistic

        return run

    fitted = spec.matrix @ helpful
    u = outcomes.values - fitted
    expected_mean = 2.0 * (fitted @ dmat.values @ u) / design.n
    mean, _ = enumeration_moments(design, statistic(helpful))
    assert mean == pytest.approx(expected_mean, abs=1e-10)
    threshold = -(fitted @ dmat.values @ fitted) / design.n
    assert mean > threshold  # adjustment genuinely helps at this coefficient

    harmful = 60.0 * b_opt(spec, dmat, outcomes).values
    mean_h, _ = enumeration_moments(design, statistic(harmful))
    fitted_h = spec.matrix @ harmful
    threshold_h = -(fitted_h @ dmat.values @ fitted_h) / design.n
    assert mean_h < threshold_h  # oversized adjustment hurts


def test_interval_truncation():
    lo, hi, truncated = interval_from_bound(1.0, -0.5)
    assert truncated and lo == hi == 1.0
    lo, hi, truncated = interval_from_bound(0.0, 4.0, z=2.0)
    assert not truncated
    assert (lo, hi) == (-4.0, 4.0)


# -- the per-component bound and comparison, pinned to the dense computation ----


def _paired_design(n=8, seed=0):
    """Monte-Carlo matched pairs: each unit's mask component has 4 slots."""
    pairs = np.arange(n).reshape(-1, 2)

    def sample(rng):
        z = np.zeros(n, dtype=np.int8)
        z[pairs[np.arange(n // 2), rng.integers(0, 2, n // 2)]] = 1
        return z

    return make_from_sampler(sample, n, draws=400, seed=seed, mode="monte_carlo")


def _enumerated_design():
    """Six equally likely assignments of 3 of 6 units; components of 2 and 6 slots."""
    support = [[1, 1, 0, 0, 1, 0], [0, 1, 1, 0, 0, 1], [1, 0, 0, 1, 1, 0],
               [0, 0, 1, 1, 0, 1], [1, 0, 1, 0, 0, 1], [0, 1, 0, 1, 1, 0]]
    pairs = ((np.array(z, dtype=np.int8), 1.0 / len(support)) for z in support)
    return make_from_sampler(pairs, 6, mode="enumerate")


def _pinned_designs():
    with pytest.warns(UserWarning, match="fewer than 2 clusters"):
        two_clusters = make_cluster([1, 1, 2, 2], 1)
    return {
        "complete": (make_complete(6, 3), ("as", "iterative")),
        "bernoulli": (make_bernoulli([0.3, 0.5, 0.6, 0.4, 0.7]), ("as", "iterative")),
        "cluster": (make_cluster([1, 1, 1, 2, 2, 3, 4, 4, 4, 5], 2), ("as", "iterative", "cluster")),
        "cluster-two-patterns": (_cluster_design(), ("as", "iterative", "cluster")),
        "two-clusters": (two_clusters, ("as", "iterative")),
        "enumerated": (_enumerated_design(), ("as", "iterative")),
        "paired": (_paired_design(), ("as", "iterative")),
    }


def _assert_pinned(bound, dmat, max_iters=500):
    values, iterations, trace = dense_iterative(dmat, max_iters)
    np.testing.assert_allclose(bound.values, values, rtol=0.0, atol=1e-12)
    assert bound.iterations == iterations
    np.testing.assert_allclose(bound.min_eig_trace, trace, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", list(_pinned_designs()))
def test_iterative_bound_per_component_matches_the_dense_loop(name):
    design, _ = _pinned_designs()[name]
    dmat = design_matrix(design)
    _assert_pinned(iterative_bound(dmat), dmat)


def test_mask_components_of_the_pinned_designs():
    sizes = {
        name: sorted(
            size for slots in component_blocks(design_matrix(d).mask)
            for size in [slots.shape[1]] * slots.shape[0]
        )
        for name, (d, _) in _pinned_designs().items()
    }
    assert sizes["complete"] == [2] * 6
    assert sizes["cluster"] == [2, 2, 4, 6, 6]  # one component per cluster, 2 slots a unit
    assert sizes["cluster-two-patterns"] == [2, 2, 2, 4]
    assert sizes["paired"] == [4] * 4


def test_iterative_bound_with_two_distinct_patterns_of_one_size():
    """A path and a triangle, both on 3 slots, plus two slots outside the mask."""
    base = design_matrix(make_complete(4, 2))
    mask = np.zeros((8, 8), dtype=bool)
    for i, j in ((0, 1), (1, 2), (3, 4), (4, 5), (3, 5)):
        mask[i, j] = mask[j, i] = True
    dmat = DesignMatrix(values=base.values, mask=mask, n=4, joint=base.joint)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the mask is not this design's: not identified
        bound = iterative_bound(dmat)
    assert bound.iterations > 0
    _assert_pinned(bound, dmat)


def _assert_same_comparison(a, b):
    comparison = compare_bounds(a, b)
    verdict, lo, hi, total = dense_order_verdict(b.values - a.values)
    sharp, *_ = dense_order_verdict(b.sharp_null_form() - a.sharp_null_form())
    assert (comparison.verdict, comparison.sharp_null_verdict) == (verdict, sharp)
    scale = max(abs(lo), abs(hi), 1.0)
    for got, want in ((comparison.min_eig, lo), (comparison.max_eig, hi),
                      (comparison.eig_sum, total)):
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10 * scale)


@pytest.mark.parametrize("name", list(_pinned_designs()))
def test_compare_bounds_per_component_matches_the_dense_spectrum(name):
    design, methods = _pinned_designs()[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the two-cluster design's cluster bound
        built = [build_bound(method, design) for method in methods]
    for a in built:
        for b in built:
            _assert_same_comparison(a, b)


def test_compare_bounds_with_a_dense_custom_bound():
    dmat = design_matrix(make_complete(6, 3))
    universal = as_bound(dmat)
    u = np.random.default_rng(12).standard_normal(12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        custom = BoundMatrix(universal.values + np.outer(u, u), "custom", True, dmat)
    # the added rank-one term couples every slot: one component, the dense case
    assert components(custom.values - universal.values != 0.0).max() == 0
    for a, b in ((universal, custom), (custom, universal), (custom, iterative_bound(dmat))):
        _assert_same_comparison(a, b)


def test_block_eigvals_is_the_full_spectrum():
    rng = np.random.default_rng(13)
    a = np.zeros((9, 9))
    a[np.ix_([0, 4, 7], [0, 4, 7])] = rng.standard_normal((3, 3))
    a[np.ix_([2, 5], [2, 5])] = rng.standard_normal((2, 2))
    a[8, 8] = 3.0
    np.testing.assert_allclose(block_eigvals(a), sym_eigvals(a), rtol=0.0, atol=1e-12)
    assert components(a != 0.0).tolist() == [0, 1, 2, 3, 0, 2, 4, 0, 5]
    assert _order_verdict(a)[0] == dense_order_verdict(a)[0]


@st.composite
def symmetric_patterns(draw):
    """Symmetric boolean patterns of order <= 12 with up to 2n links, some on
    the diagonal, in C or Fortran memory order."""
    n = draw(st.integers(1, 12))
    pattern = np.zeros((n, n), dtype=bool)
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n)):
        pattern[i, j] = pattern[j, i] = True
    return np.asfortranarray(pattern) if draw(st.booleans()) else pattern


@settings(max_examples=100, deadline=None, derandomize=True)
@given(symmetric_patterns())
def test_components_label_as_a_search_over_the_2d_nonzero_entries(pattern):
    np.testing.assert_array_equal(components(pattern), dense_components(pattern))
