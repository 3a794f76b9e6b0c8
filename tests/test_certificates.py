"""Closed-form PSD certificates, pinned to the dense eigendecomposition at small n."""

import warnings

import numpy as np
import pytest

from dbexp import (
    AteEstimator,
    Design,
    DesignError,
    DesignMatrix,
    as_bound,
    cluster_bound,
    design_from_json,
    design_matrix,
    draw,
    make_bernoulli,
    make_cluster,
    make_complete,
    make_from_sampler,
)
from dbexp._linalg import min_max_eig
from dbexp.bounds import PSD_TOL
from dbexp.design import AnalyticProvenance, _closed_form_spectrum


def _quiet(make, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return make(*args)


# (name, design factory, cluster ids for the cluster bound, closed form is the exact spectrum)
SMALL_DESIGNS = [
    ("complete n1=1", lambda: make_complete(12, 1), np.arange(12), True),
    ("complete n1=n-1", lambda: make_complete(12, 11), np.arange(12), True),
    ("complete 7/3", lambda: make_complete(7, 3), np.arange(7), True),
    ("bernoulli", lambda: make_bernoulli(np.linspace(0.05, 0.95, 11)), np.arange(11), True),
    (
        "equal clusters",
        lambda: make_cluster([1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6], 3),
        np.array([1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]),
        True,
    ),
    (
        "unequal clusters",
        lambda: make_cluster([1, 1, 2, 2, 2, 3, 4, 4, 4, 4, 5, 6], 2),
        np.array([1, 1, 2, 2, 2, 3, 4, 4, 4, 4, 5, 6]),
        False,
    ),
    (
        "one cluster in an arm",
        lambda: _quiet(make_cluster, [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4], 1),
        np.array([1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]),
        True,
    ),
]
IDS = [case[0] for case in SMALL_DESIGNS]


@pytest.fixture
def eig_calls(monkeypatch):
    """Count every dense symmetric eigendecomposition made through numpy.linalg."""
    calls = []
    for name in ("eigvalsh", "eigh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _psd_verdict(lo: float, hi: float, tol: float) -> bool:
    return not lo < -tol * max(abs(lo), abs(hi), 1.0)


@pytest.mark.parametrize("name, factory, ids, exact", SMALL_DESIGNS, ids=IDS)
def test_closed_form_design_certificate_matches_dense(name, factory, ids, exact):
    design = factory()
    values = design_matrix(design).values
    spectrum = _closed_form_spectrum(design)
    assert spectrum is not None
    lo, hi = float(spectrum.min()), float(spectrum.max())
    dense_lo, dense_hi = min_max_eig(values)
    assert _psd_verdict(lo, hi, 1e-8) == _psd_verdict(dense_lo, dense_hi, 1e-8)
    if exact:
        scale = max(abs(dense_hi), 1.0)
        assert abs(lo - dense_lo) <= 1e-12 * scale
        assert abs(hi - dense_hi) <= 1e-12 * scale


@pytest.mark.parametrize("name, factory, ids, exact", SMALL_DESIGNS, ids=IDS)
def test_closed_form_bound_certificates_match_dense(name, factory, ids, exact, eig_calls):
    dmat = design_matrix(factory())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the one-cluster-in-an-arm bound is not identified
        bounds = [as_bound(dmat), cluster_bound(dmat, ids)]
    assert eig_calls == []
    for bound in bounds:
        lo, hi = min_max_eig(bound.values - dmat.values)
        assert _psd_verdict(lo, hi, PSD_TOL)


def test_bound_with_a_mask_that_is_not_a_graph_is_certified_numerically(eig_calls):
    dmat = design_matrix(make_complete(4, 2))
    mask = np.array(dmat.mask)
    mask[0, 1] = True  # one-directional: no longer a graph's adjacency matrix
    values = np.array(dmat.values)
    values[0, 1] = -1.0
    lopsided = DesignMatrix(values=values, mask=mask, n=4, joint=dmat.joint)
    with pytest.raises(ValueError, match="not a bound"):
        as_bound(lopsided)
    assert len(eig_calls) == 1


def test_analytic_design_with_a_perturbed_joint_is_certified_densely(eig_calls):
    joint = np.array(make_complete(4, 2).joint)
    joint[4, 5] = joint[5, 4] = 0.5  # both-treated probability of units 0 and 1
    marginals = np.diag(joint).copy()
    with pytest.raises(DesignError, match="not PSD"):
        design_matrix(Design(4, joint, marginals, AnalyticProvenance("complete", {"n1": 2})))
    assert len(eig_calls) == 1


def _cluster_ids_60():
    return np.repeat(np.arange(12), 5)


FIT_CASES = [
    (lambda: make_complete(60, 30), ("two_r", "ht"), ("as", "borrowed-as", "none")),
    (
        lambda: make_bernoulli(np.linspace(0.2, 0.8, 60)),
        ("two_r", "ht"),
        ("as", "borrowed-as", "none"),
    ),
    (
        lambda: make_cluster(_cluster_ids_60(), 6),
        ("two_r", "ols_cluster_totals"),
        ("as", "cluster", "borrowed-as", "borrowed-cluster", "none"),
    ),
]


@pytest.mark.parametrize(
    "factory, estimators, bounds", FIT_CASES, ids=["complete", "bernoulli", "cluster"]
)
def test_analytic_fits_make_no_eigendecomposition(factory, estimators, bounds, eig_calls):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((60, 2))
    outcome = x @ [1.0, -0.5] + rng.standard_normal(60)
    for estimator in estimators:
        for bound in bounds:
            if bound.startswith("borrowed") and estimator != "two_r":
                continue
            design = factory()
            z = draw(design, 3).assignment
            AteEstimator(design, estimator=estimator, bound=bound).fit(
                outcome, z, covariates=x, cluster_ids=_cluster_ids_60()
            )
    assert eig_calls == []


def test_enumerated_design_fit_is_certified_numerically(eig_calls):
    # two blocks of three units, one treated per block, given as a joint:
    # a directly built Design carries no support, so no multinomial proof
    support = []
    for first in np.eye(3, dtype=np.int8):
        for second in np.eye(3, dtype=np.int8):
            support.append((np.concatenate([first, second]), 1.0 / 9.0))
    enumerated = make_from_sampler(iter(support), 6, mode="enumerate")
    design = Design(6, enumerated.joint, enumerated.marginals, enumerated.provenance)
    outcome = np.arange(6.0)
    AteEstimator(design, estimator="ht", bound="as").fit(outcome, support[0][0])
    assert len(eig_calls) >= 1


def _pair_sampler(n):
    """One coin flip per pair of neighbouring units picks its treated member."""
    def sample(rng):
        z = np.zeros(n, dtype=np.int8)
        z[2 * np.arange(n // 2) + rng.integers(0, 2, n // 2)] = 1
        return z
    return sample


def test_support_designs_make_no_eigendecomposition_of_d(eig_calls):
    n = 300
    sampler = _pair_sampler(n)
    rng = np.random.default_rng(5)
    rows = np.unique([sampler(rng) for _ in range(400)], axis=0)
    enumerated = make_from_sampler(((z, 1.0 / len(rows)) for z in rows), n, mode="enumerate")
    monte_carlo = make_from_sampler(sampler, n, draws=400, seed=5, mode="monte_carlo")
    for design in (enumerated, monte_carlo):
        assert design_matrix(design).certificate == "closed_form"
    assert eig_calls == []


def test_deserialized_monte_carlo_design_is_certified_numerically(eig_calls):
    n = 40
    design = make_from_sampler(_pair_sampler(n), n, draws=400, seed=5, mode="monte_carlo")
    clone = design_from_json(design.to_json())
    assert design_matrix(clone).certificate == "dense"
    assert ("eigvalsh", (2 * n, 2 * n)) in eig_calls
