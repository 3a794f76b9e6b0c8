"""The kind form of analytic designs, pinned to the dense path at small n."""

import tracemalloc
import warnings

import numpy as np
import pytest

from dbexp import (
    AteEstimator,
    Design,
    as_bound,
    build_bound,
    cluster_bound,
    design_matrix,
    draw,
    make_bernoulli,
    make_cluster,
    make_complete,
    make_from_sampler,
)
from dense_reference import (
    dense_as_bound,
    dense_bernoulli,
    dense_cluster_bound,
    dense_design_matrix,
    dense_group_design,
    dense_weighted,
)
from dbexp.bounds import _observed_quadratic


def _quiet(make, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # one cluster in an arm
        return make(*args)


EQUAL = [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]
UNEQUAL = [1, 1, 2, 2, 2, 3, 4, 4, 4, 4, 5, 6]
ONE_IN_AN_ARM = [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]
EDGE_PI1 = [1e-9, 0.5, 1.0 - 1e-9, 0.25, 1e-4]

# (name, design factory, dense joint and marginals, cluster ids of the cluster bound)
CASES = [
    ("complete n1=1", lambda: make_complete(12, 1), lambda: dense_group_design(range(12), 1),
     np.arange(12)),
    ("complete n1=n-1", lambda: make_complete(12, 11), lambda: dense_group_design(range(12), 11),
     np.arange(12)),
    ("complete 7/3", lambda: make_complete(7, 3), lambda: dense_group_design(range(7), 3),
     np.arange(7)),
    ("bernoulli", lambda: make_bernoulli(np.linspace(0.05, 0.95, 11)),
     lambda: dense_bernoulli(np.linspace(0.05, 0.95, 11)), np.arange(11)),
    ("bernoulli near 0 and 1", lambda: make_bernoulli(EDGE_PI1),
     lambda: dense_bernoulli(EDGE_PI1), np.arange(5)),
    ("equal clusters", lambda: make_cluster(EQUAL, 3), lambda: dense_group_design(EQUAL, 3),
     np.array(EQUAL)),
    ("unequal clusters", lambda: make_cluster(UNEQUAL, 2), lambda: dense_group_design(UNEQUAL, 2),
     np.array(UNEQUAL)),
    ("one cluster in an arm", lambda: _quiet(make_cluster, ONE_IN_AN_ARM, 1),
     lambda: dense_group_design(ONE_IN_AN_ARM, 1), np.array(ONE_IN_AN_ARM)),
]
IDS = [case[0] for case in CASES]


def _close(got, want, scale):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


def _assert_operator_matches(op, dense, rng):
    """Every method of a kind-form operator against the same product on its dense array."""
    v = rng.standard_normal(dense.shape[0])
    x = rng.standard_normal((dense.shape[0], 3))
    scale = np.abs(dense).max() * np.abs(x).sum()
    assert op.dense().tobytes() == dense.tobytes()
    _close(op.matvec(v), dense @ v, scale)
    _close(op.matvec(x), dense @ x, scale)
    _close(op.gram(x), x.T @ dense @ x, scale * np.abs(x).max())
    _close(op.quadratic(v), v @ dense @ v, scale * np.abs(v).max())
    _close(op.frobenius(), np.linalg.norm(dense), 0.0)


@pytest.mark.parametrize("name, factory, reference, ids", CASES, ids=IDS)
def test_kind_form_equals_the_dense_path(name, factory, reference, ids):
    rng = np.random.default_rng(21)
    design = factory()
    joint, marginals = reference()
    assert design.joint.tobytes() == joint.tobytes()
    values, mask = dense_design_matrix(joint, marginals)
    dmat = design_matrix(design)
    assert dmat.certificate == "closed_form"
    assert dmat.values.tobytes() == values.tobytes()
    assert np.array_equal(dmat.mask, mask)
    _assert_operator_matches(dmat.core, values, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the cluster bound with one cluster in an arm
        bounds = {"as": as_bound(dmat), "cluster": cluster_bound(dmat, ids)}
    references = {"as": dense_as_bound(values, mask), "cluster": dense_cluster_bound(values, ids)}
    for method, bound in bounds.items():
        want = references[method]
        assert bound.certificate == "closed_form"
        assert bound.values.tobytes() == want.tobytes()
        assert np.array_equal(bound.identification_mask, mask)
        assert bound.identified == bool(np.abs(want[mask]).max(initial=0.0) < 1e-12)
        _assert_operator_matches(bound.core, want, rng)
    # the observed quadratics of the bound estimates, D's included
    weighted = {"D": (dmat._form.weigh(dmat.core), dense_weighted(values, joint))}
    for method, bound in bounds.items():
        if bound.identified:
            weighted[method] = (bound._weighted, dense_weighted(references[method], joint))
    vector = rng.standard_normal(2 * design.n)
    for seed in range(3):
        indicator = draw(design, seed).indicator_diagonal()
        masked = vector * indicator
        for method, (op, dense) in weighted.items():
            scale = np.abs(dense).max() * np.abs(masked).sum() ** 2
            _close(op.quadratic(masked), masked @ dense @ masked, scale)
            if method != "D":
                got = _observed_quadratic(bounds[method], design, vector, indicator, 1)
                _close(got, masked @ dense @ masked, scale)


def test_unidentified_cluster_bound_in_kind_form():
    dmat = design_matrix(_quiet(make_cluster, ONE_IN_AN_ARM, 1))
    with pytest.warns(UserWarning, match="not identified"):
        bound = cluster_bound(dmat, ONE_IN_AN_ARM)
    assert not bound.identified and bound.certificate == "closed_form"
    with pytest.raises(ValueError, match="only identified bounds"):
        bound._weighted


@pytest.mark.parametrize(
    "pi1", [[5e-324, 0.5, 0.25], [1e-300, np.nextafter(1.0, 0.0), 1e-17, 1.0 - 1e-9]]
)
def test_extreme_bernoulli_designs_fail_like_their_dense_copies(pi1):
    """Underflowing products of marginals keep the joint's zeros: the design
    matrix fails as a directly built copy of the design fails."""
    design = make_bernoulli(pi1)
    copy = Design(design.n, design.joint, design.marginals, design.provenance)
    for each in (design, copy):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # 0 / 0 and x / 0 in D
            with pytest.raises(np.linalg.LinAlgError):
                design_matrix(each)


def test_cluster_bound_rejects_other_clusters_in_kind_form():
    for design, ids in ((make_complete(6, 3), [1, 1, 2, 3, 4, 5]),
                        (make_cluster([1, 1, 2, 2, 3, 3, 4, 4], 2), np.arange(8)),
                        (make_bernoulli([0.3, 0.5, 0.6, 0.4]), [1, 1, 2, 3])):
        with pytest.raises(ValueError, match="not complete randomization of these clusters"):
            cluster_bound(design_matrix(design), ids)
    # relabelled cluster ids name the same clusters
    design = make_cluster([1, 1, 2, 2, 3, 3, 4, 4], 2)
    relabelled = cluster_bound(design_matrix(design), [9, 9, 4, 4, 7, 7, 5, 5])
    assert relabelled.values.tobytes() == build_bound("cluster", design).values.tobytes()


def test_certificates_are_recorded():
    design = make_complete(4, 2)
    dmat = design_matrix(design)
    assert dmat.certificate == "closed_form"
    assert as_bound(dmat).certificate == "closed_form"
    assert build_bound("iterative", design).certificate == "blocks"
    support = [(np.array(z, dtype=np.int8), 0.25) for z in ([1, 0, 1, 0], [1, 0, 0, 1],
                                                             [0, 1, 1, 0], [0, 1, 0, 1])]
    enumerated = make_from_sampler(iter(support), 4, mode="enumerate")
    assert design_matrix(enumerated).certificate == "dense"
    direct = Design(4, design.joint, design.marginals, design.provenance)
    assert design_matrix(direct).certificate == "dense"


def test_a_design_copies_the_callers_joint():
    joint = np.array(make_complete(4, 2).joint)
    marginals = np.diag(joint).copy()
    design = Design(4, joint, marginals, make_complete(4, 2).provenance)
    assert joint.flags.writeable and marginals.flags.writeable
    before = design.joint.copy()
    joint[0, 0] = 0.25
    marginals[0] = 0.25
    assert np.array_equal(design.joint, before)
    assert design.marginals[0] == 0.5


def _fit_inputs(n=1000):
    rng = np.random.default_rng(5)
    clusters = rng.permutation(np.repeat(np.arange(100), n // 100))
    x = rng.standard_normal((n, 2))
    y0 = x @ [1.0, -0.5] + rng.standard_normal(n)
    return x, y0, y0 + 1.0, rng.uniform(0.2, 0.8, n), clusters


FIT_SHAPES = [
    ("complete", "two_r", "borrowed-as"),
    ("complete", "ht", "as"),
    ("bernoulli", "two_r", "borrowed-as"),
    ("bernoulli", "ht", "as"),
    ("cluster", "two_r", "borrowed-as"),
    ("cluster", "ols_cluster_totals", "cluster"),
]


@pytest.mark.parametrize("kind, estimator, bound", FIT_SHAPES,
                         ids=["/".join(shape) for shape in FIT_SHAPES])
def test_analytic_fits_build_no_dense_array(kind, estimator, bound):
    """One 2000 x 2000 float64 array takes 32 MB."""
    x, y0, y1, pi1, clusters = _fit_inputs()
    tracemalloc.start()
    try:
        design = {
            "complete": lambda: make_complete(1000, 500),
            "bernoulli": lambda: make_bernoulli(pi1),
            "cluster": lambda: make_cluster(clusters, 50),
        }[kind]()
        z = draw(design, 1).assignment
        model = AteEstimator(design, estimator=estimator, bound=bound)
        model.fit(np.where(z == 1, y1, y0), z, covariates=x, cluster_ids=clusters)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(model.variance_bound_)
    assert peak < 16 * 2**20
