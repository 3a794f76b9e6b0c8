import gc
import sys
import warnings
import weakref

import numpy as np
import pytest

import dbexp.bounds
from dbexp import (
    AteEstimator,
    DesignError,
    bound_estimate_greg,
    build_bound,
    cluster_bound,
    coef_by_name,
    coef_tyranny,
    coef_wls_pi,
    design_matrix,
    draw,
    greg,
    make_bernoulli,
    make_cluster,
    make_complete,
    make_from_sampler,
    spec_II,
    spec_cluster,
    spec_common_slopes,
    zero_center,
)
from dbexp.api import POINT_ESTIMATORS, check_lengths, check_treatment
from dbexp.design import _cluster_groups
from dbexp.estimators import AssignmentRealization, ObservedOutcomes


def _toy():
    rng = np.random.default_rng(0)
    n = 12
    design = make_complete(n, 6)
    x = rng.standard_normal((n, 2))
    y0 = x @ [1.0, -0.5] + rng.standard_normal(n)
    y1 = y0 + 2.0
    z = draw(design, 4).assignment
    outcome = np.where(z == 1, y1, y0)
    return design, outcome, z, x


def test_get_set_params_roundtrip():
    design = make_complete(4, 2)
    model = AteEstimator(design, estimator="ols", z=2.0)
    params = model.get_params()
    assert params["estimator"] == "ols"
    assert params["z"] == 2.0
    model.set_params(estimator="two_r", bound="none")
    assert model.estimator == "two_r"
    with pytest.raises(ValueError):
        model.set_params(not_a_param=1)


def test_refits_reuse_the_fitted_bound(monkeypatch):
    built = []

    def counting(*args, **kwargs):
        built.append(args[0])
        return build_bound(*args, **kwargs)

    monkeypatch.setattr(dbexp.bounds, "build_bound", counting)
    design, outcome, z, x = _toy()
    model = AteEstimator(design, estimator="two_r", bound="borrowed-as")
    first = model.fit(outcome, z, covariates=x)
    kept = model.bound_matrix_
    results = [(first.ate_, first.variance_bound_, first.ci_low_, first.ci_high_)]
    model.fit(outcome, z, covariates=x)
    results.append((model.ate_, model.variance_bound_, model.ci_low_, model.ci_high_))
    assert built == ["as"]
    assert model.bound_matrix_ is kept
    assert results[0] == results[1]

    model.set_params(bound="iterative").fit(outcome, z, covariates=x)
    assert built == ["as", "iterative"]
    assert model.bound_matrix_.method == "iterative"
    model.set_params(design=make_complete(12, 6)).fit(outcome, z, covariates=x)  # built anew
    assert built == ["as", "iterative", "iterative"]
    assert model.bound_matrix_.joint is model.design.joint
    model.set_params(bound="none").fit(outcome, z, covariates=x)
    assert model.bound_matrix_ is None

    # a cluster-total layout keeps the bound of the cached cluster-level design
    ids = np.repeat(np.arange(6), 2)
    clustered = make_cluster(ids, 3)
    z_c = draw(clustered, 1).assignment
    totals = AteEstimator(clustered, estimator="ols_cluster_totals", bound="cluster")
    totals.fit(outcome, z_c, covariates=x, cluster_ids=ids)
    variance = totals.variance_bound_
    totals.fit(outcome, z_c, covariates=x, cluster_ids=ids)
    assert built[3:] == ["cluster"]
    assert totals.variance_bound_ == variance


def test_fit_sets_sklearn_style_attributes():
    design, outcome, z, x = _toy()
    model = AteEstimator(design, estimator="wls_pi", spec="II", bound="as").fit(
        outcome, z, covariates=x
    )
    assert model is model.fit(outcome, z, covariates=x)
    assert np.isfinite(model.ate_)
    assert model.ci_low_ < model.ate_ < model.ci_high_
    assert model.variance_bound_ >= 0 or model.truncated_ is False
    assert model.n_ == design.n

    # matches the functional path exactly
    spec = spec_II(zero_center(x))
    obs = ObservedOutcomes(outcome, AssignmentRealization(z))
    coef = coef_wls_pi(spec, obs, design)
    assert model.ate_ == pytest.approx(greg(obs, design, spec, coef).point, abs=1e-12)
    from dbexp import as_bound

    vb = bound_estimate_greg(as_bound(design_matrix(design)), design, obs, spec, coef)
    assert model.variance_bound_ == pytest.approx(vb, abs=1e-12)


@pytest.mark.parametrize("estimator", POINT_ESTIMATORS)
def test_fit_rejects_an_unknown_spec_before_any_work(estimator):
    ids = np.repeat(np.arange(6), 2)
    design = make_cluster(ids, 3)
    z = draw(design, 0).assignment
    x = np.random.default_rng(3).standard_normal((12, 1))
    model = AteEstimator(design, estimator=estimator, spec="bogus")
    with pytest.raises(ValueError, match="unknown spec 'bogus'"):
        model.fit(np.ones(12), z, covariates=x, cluster_ids=ids)
    assert not hasattr(model, "ate_") and not hasattr(model, "bound_matrix_")


@pytest.mark.parametrize("spec", ["I", "II"])
def test_tyranny_fits_common_slopes_like_the_functional_path(spec):
    design, outcome, z, x = _toy()
    model = AteEstimator(design, estimator="tyranny", spec=spec, bound="as").fit(
        outcome, z, covariates=x
    )
    layout = spec_common_slopes(zero_center(x))
    obs = ObservedOutcomes(outcome, AssignmentRealization(z))
    coef = coef_tyranny(layout, obs, design)
    np.testing.assert_allclose(model.coefficient_.values, coef.values, rtol=0, atol=1e-12)
    assert model.ate_ == pytest.approx(greg(obs, design, layout, coef).point, abs=1e-12)
    bound = build_bound("as", design)
    vb = bound_estimate_greg(bound, design, obs, layout, coef)
    assert model.variance_bound_ == pytest.approx(vb, abs=1e-12)


def test_fit_ht_without_covariates():
    design, outcome, z, _ = _toy()
    model = AteEstimator(design, estimator="ht", bound="as").fit(outcome, z)
    assert model.coefficient_ is None
    assert model.ci_low_ is not None


def test_fit_two_r_with_borrowed_bound():
    design, outcome, z, x = _toy()
    model = AteEstimator(design, estimator="two_r", bound="borrowed-as").fit(
        outcome, z, covariates=x
    )
    assert model.ci_high_ > model.ci_low_
    with pytest.raises(ValueError, match="borrowed"):
        AteEstimator(design, estimator="ols", bound="borrowed-as").fit(
            outcome, z, covariates=x
        )


def test_fit_cluster_totals_path():
    rng = np.random.default_rng(1)
    cluster_ids = np.repeat(np.arange(8), 3)
    design = make_cluster(cluster_ids, 4)
    n = design.n
    y0 = rng.standard_normal(n)
    z = draw(design, 0).assignment
    outcome = np.where(z == 1, y0 + 1.0, y0)
    x = rng.standard_normal(n)
    model = AteEstimator(design, estimator="ols_cluster_totals", bound="cluster").fit(
        outcome, z, covariates=x, cluster_ids=cluster_ids
    )
    assert model.spec_.level == "cluster"
    assert np.isfinite(model.ate_)
    assert model.ci_low_ is not None

    with pytest.raises(ValueError, match="cluster ids"):
        AteEstimator(design, estimator="ols_cluster_totals").fit(outcome, z, covariates=x)


def test_fit_warns_on_impossible_assignment():
    design = make_complete(4, 2)
    outcome = np.ones(4)
    with pytest.warns(UserWarning, match="probability ~0"):
        AteEstimator(design, estimator="ht", bound="none").fit(outcome, [1, 1, 1, 0])

    enumerated = make_from_sampler(
        [((1, 0, 1, 0), 0.5), ((0, 1, 0, 1), 0.5)], 4, mode="enumerate"
    )
    # (design, assignment outside its support, assignment inside it)
    cases = [
        (make_complete(30, 15), [1] * 14 + [0] * 16, [1] * 15 + [0] * 15),
        (make_cluster([1, 1, 2, 2, 3, 3, 4, 4], 2), [1, 0, 1, 1, 0, 0, 0, 0],
         [1, 1, 0, 0, 1, 1, 0, 0]),
        (enumerated, [1, 1, 0, 0], [0, 1, 0, 1]),
    ]
    for design, impossible, possible in cases:
        model = AteEstimator(design, estimator="ht", bound="none")
        with pytest.warns(UserWarning, match="probability ~0"):
            model.fit(np.ones(design.n), impossible)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model.fit(np.ones(design.n), possible)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        AteEstimator(make_bernoulli([0.2, 0.5, 0.7]), estimator="ht", bound="none").fit(
            np.ones(3), [1, 1, 1]
        )


def test_validation_helpers():
    with pytest.raises(ValueError):
        check_treatment([0, 2, 1])
    with pytest.raises(ValueError, match="covariates"):
        check_lengths(3, covariates=np.ones((4, 1)))
    with pytest.raises(ValueError):
        AteEstimator(make_complete(4, 2), estimator="nope").fit(np.ones(4), [1, 0, 1, 0])
    with pytest.raises(ValueError):
        AteEstimator(make_complete(4, 2), bound="nope").fit(np.ones(4), [1, 0, 1, 0])
    with pytest.raises(ValueError, match="does not match"):
        AteEstimator(make_complete(6, 3), bound="none").fit(np.ones(4), [1, 0, 1, 0])


def test_a_cluster_total_fit_partitions_cluster_ids_at_most_three_times(monkeypatch):
    """make_cluster, spec_cluster and the cluster bound of the cluster-level
    design each partition their ids once; the design and the layout keep
    theirs for draw, in_support and the collapse to the cluster level."""
    rng = np.random.default_rng(4)
    n = 1000
    ids = rng.permutation(np.repeat(np.arange(100), 10))
    calls = []

    def counting(cluster_ids):
        calls.append(len(cluster_ids))
        return _cluster_groups(cluster_ids)

    importers = [module for name, module in list(sys.modules.items())
                 if name.startswith("dbexp") and getattr(module, "_cluster_groups", None)
                 is _cluster_groups]
    assert {module.__name__ for module in importers} >= {"dbexp.design", "dbexp.covariates"}
    for module in importers:
        monkeypatch.setattr(module, "_cluster_groups", counting)
    design = make_cluster(ids, 50)
    z = draw(design, 0).assignment
    x = rng.standard_normal((n, 2))
    outcome = x[:, 0] + z + rng.standard_normal(n)
    model = AteEstimator(design, "ols_cluster_totals", bound="cluster")
    model.fit(outcome, z, covariates=x, cluster_ids=ids)
    assert np.isfinite(model.variance_bound_)
    assert len(calls) <= 3, calls


PAIRED_IDS = np.array([1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6])
CROSSED_IDS = np.array([1, 2, 1, 2, 3, 4, 3, 4, 5, 6, 5, 6])  # a pair of each cluster per id


@pytest.mark.parametrize("seed", range(6))
def test_cluster_ids_that_do_not_name_the_design_clusters_raise(seed):
    """At draw 0 the assignment is constant on the crossed ids too, so a fit
    once ran on them and answered 1.248 against the design's 0.689; at draws
    1-5 it failed with a message naming neither input.  The unit-level
    estimators once ignored the ids: ``two_r`` answered 0.3892 at draw 1, as
    with the design's own ids."""
    design = make_cluster(PAIRED_IDS, 2)
    rng = np.random.default_rng(1)
    y, x = rng.standard_normal(12), rng.standard_normal((12, 1))
    z = draw(design, seed).assignment
    for estimator in POINT_ESTIMATORS:
        with pytest.raises(DesignError, match="do not name the design's clusters"):
            AteEstimator(design, estimator, bound="cluster").fit(
                y, z, covariates=x, cluster_ids=CROSSED_IDS)
        if estimator != "ols_cluster_totals":  # ids naming the design's clusters pass
            unit_level = AteEstimator(design, estimator, bound="cluster")
            assert unit_level.fit(y, z, covariates=x, cluster_ids=70 - 7 * PAIRED_IDS).ate_ == (
                unit_level.fit(y, z, covariates=x).ate_)
    model = AteEstimator(design, "ols_cluster_totals", bound="cluster")
    observed = ObservedOutcomes(y, AssignmentRealization(z))
    with pytest.raises(DesignError, match="do not name the design's clusters"):
        coef_by_name("wls_pi", spec_cluster(x, CROSSED_IDS), observed, design)
    with pytest.raises(DesignError, match="do not name the design's clusters"):
        cluster_bound(design_matrix(design), CROSSED_IDS)
    # other ids that name the same clusters give the same fit, up to the order
    # of the cluster rows
    own = model.fit(y, z, covariates=x, cluster_ids=PAIRED_IDS).ate_
    relabelled = model.fit(y, z, covariates=x, cluster_ids=70 - 7 * PAIRED_IDS).ate_
    assert relabelled == pytest.approx(own, rel=1e-12)
    if seed == 0:
        assert own == pytest.approx(0.689, abs=1e-3)


def test_the_cluster_bound_of_a_design_reads_its_partition(monkeypatch):
    def partition_again(cluster_ids):
        raise AssertionError("cluster ids partitioned again")

    monkeypatch.setattr(dbexp.bounds, "_cluster_groups", partition_again)
    design = make_cluster(PAIRED_IDS, 2)
    assert build_bound("cluster", design).identified


def test_cluster_bound_requires_cluster_design():
    design = make_bernoulli([0.4, 0.5, 0.6, 0.5])
    with pytest.raises(ValueError, match="cluster"):
        AteEstimator(design, estimator="ht", bound="cluster").fit(
            np.ones(4), [1, 0, 1, 0]
        )


def test_estimator_consistency_across_api_and_manual():
    # two-stage point estimate equals separate-slopes least squares here
    design, outcome, z, x = _toy()
    two_r = AteEstimator(design, estimator="two_r", bound="none").fit(
        outcome, z, covariates=x
    )
    ols = AteEstimator(design, estimator="ols", bound="none").fit(
        outcome, z, covariates=x
    )
    assert two_r.ate_ == pytest.approx(ols.ate_, abs=1e-8)


def test_impossible_assignment_warning_points_at_the_caller_of_fit():
    model = AteEstimator(make_complete(4, 2), estimator="ht", bound="none")
    with pytest.warns(UserWarning, match="probability ~0") as record:
        model.fit(np.ones(4), [1, 1, 1, 0])
    assert record[0].filename == __file__


REFCOUNT_DESIGNS = {
    "complete": lambda: make_complete(12, 5),
    "bernoulli": lambda: make_bernoulli(np.linspace(0.3, 0.7, 12)),
    "cluster": lambda: make_cluster([1, 1, 2, 2, 2, 3, 4, 4, 5, 5, 6, 6], 3),
}


@pytest.mark.parametrize(
    "kind, estimator, bound",
    [(kind, "two_r", bound) for bound in ("borrowed-as", "as") for kind in REFCOUNT_DESIGNS]
    + [("cluster", "ols_cluster_totals", "cluster")],
)
def test_a_dropped_fit_frees_its_design_and_layout_without_the_collector(kind, estimator, bound):
    """What a fit keeps (the normal system of the last layout on a design
    matrix and on a bound, the bound on the model) closes no reference cycle,
    so dropping the model and the design frees both and the layout at once."""
    design = REFCOUNT_DESIGNS[kind]()
    rng = np.random.default_rng(5)
    x = rng.standard_normal((design.n, 2))
    z = draw(design, 3).assignment
    outcome = np.where(z == 1, 1.0, 0.0) + x[:, 0] + rng.standard_normal(design.n)
    ids = design.provenance.params["cluster_ids"] if kind == "cluster" else None
    gc.disable()
    try:
        model = AteEstimator(design, estimator, bound=bound).fit(outcome, z, x, ids)
        refs = [weakref.ref(model.spec_), weakref.ref(design)]
        del model, design
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
