"""The kind form of analytic designs, pinned to the dense path at small n."""

import dataclasses
import tracemalloc
import warnings
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dbexp import (
    AteEstimator,
    BoundMatrix,
    Design,
    as_bound,
    build_bound,
    cluster_bound,
    design_matrix,
    draw,
    enumerate_assignments,
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
from dbexp.design import _cluster_groups, _validate_joint, in_support


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


def _assert_kind_form_equals_the_dense_path(design, joint, marginals, ids, rng):
    """The design's joint, D, the AS and cluster bounds (over the clusters
    ``ids``) and their weighted forms in kind form against their dense
    copies; the dense scan accepts the full joint."""
    assert design.joint.tobytes() == joint.tobytes()
    _validate_joint(design.n, design.joint, design.marginals)
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


@pytest.mark.parametrize("name, factory, reference, ids", CASES, ids=IDS)
def test_kind_form_equals_the_dense_path(name, factory, reference, ids):
    _assert_kind_form_equals_the_dense_path(factory(), *reference(), ids,
                                            np.random.default_rng(21))


@st.composite
def group_designs(draw):
    """A complete, Bernoulli or cluster design of n <= 8 units with its dense
    joint and marginals, and ids that name its clusters (its units, unless it
    is a cluster design) under other labels.  Cluster ids come in any order
    and the clusters in unequal sizes."""
    kind = draw(st.sampled_from(["complete", "bernoulli", "cluster"]))
    n = draw(st.integers(2, 8))
    if kind == "bernoulli":
        pi1 = np.array(draw(st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n)))
        design, reference, index = make_bernoulli(pi1), dense_bernoulli(pi1), np.arange(n)
    else:
        ids = (np.arange(n) if kind == "complete"
               else np.array(draw(st.lists(st.integers(-3, 4), min_size=n, max_size=n))))
        index = np.unique(ids, return_inverse=True)[1]
        m = int(index.max()) + 1
        assume(m >= 2)
        m1 = draw(st.integers(1, m - 1))
        design = (_quiet(make_complete, n, m1) if kind == "complete"
                  else _quiet(make_cluster, ids, m1))
        reference = dense_group_design(ids, m1)
    m = int(index.max()) + 1
    labels = draw(st.lists(st.integers(-20, 20), min_size=m, max_size=m, unique=True))
    return design, reference, np.array(labels)[index], draw(st.integers(0, 2**16))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(group_designs())
def test_kind_form_equals_the_dense_path_on_random_designs(case):
    design, (joint, marginals), ids, seed = case
    _assert_kind_form_equals_the_dense_path(design, joint, marginals, ids,
                                            np.random.default_rng(seed))


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


def _dense_copy(design):
    """A directly built copy of ``design``: its dense arrays, no kind form."""
    return Design(design.n, design.joint, design.marginals, design.provenance)


@pytest.mark.parametrize("design, ids", [
    (make_complete(7, 3), np.arange(7)),
    (make_cluster([1, 1, 2, 2, 3, 3, 4, 4], 2), [9, 9, 4, 4, 7, 7, 5, 5]),
    (make_cluster([3, 1, 2, 1, 3, 2, 4, 4, 1], 2), [3, 1, 2, 1, 3, 2, 4, 4, 1]),
    (_quiet(make_cluster, ONE_IN_AN_ARM, 1), ONE_IN_AN_ARM),
], ids=["complete", "cluster", "cluster unordered", "one cluster in an arm"])
def test_dense_cluster_bound_equals_the_kind_form(design, ids):
    dense = design_matrix(_dense_copy(design))
    assert dense._form is None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # one cluster in an arm
        kind, direct = cluster_bound(design_matrix(design), ids), cluster_bound(dense, ids)
    np.testing.assert_allclose(direct.values, kind.values, rtol=0, atol=1e-12)
    assert (direct.identified, direct.certificate) == (kind.identified, kind.certificate)


def test_dense_cluster_bound_rejects_other_clusters():
    for design, ids in ((make_complete(6, 3), [1, 1, 2, 3, 4, 5]),
                        (make_cluster([1, 1, 2, 2, 3, 3, 4, 4], 2), np.arange(8)),
                        (make_bernoulli([0.3, 0.5, 0.6, 0.4]), [1, 1, 2, 3])):
        with pytest.raises(ValueError, match="not complete randomization of these clusters"):
            cluster_bound(design_matrix(_dense_copy(design)), ids)
    dense = design_matrix(_dense_copy(make_cluster([1, 1, 2, 2, 3, 3, 4, 4], 2)))
    for ids in ([1, 1, 2, 2, 3, 3, 4], np.arange(9)):
        with pytest.raises(ValueError, match="cluster ids do not match the design size"):
            cluster_bound(dense, ids)


@pytest.mark.parametrize("kind_form", [True, False], ids=["kind form", "dense"])
def test_a_bound_holds_the_design_matrix_it_was_certified_against(kind_form):
    design = make_cluster([1, 1, 2, 2, 3, 3, 4, 4], 2)
    design = design if kind_form else _dense_copy(design)
    dmat = design_matrix(design)
    for method in ("as", "iterative", "cluster"):
        bound = build_bound(method, design)
        assert bound.design_matrix is dmat
        assert bound.identification_mask is dmat.mask
        assert bound.joint is design.joint
        assert bound.n == design.n
    names = {field.name for field in dataclasses.fields(BoundMatrix)}
    assert "design_matrix" in names and not names & {"identification_mask", "joint"}
    with pytest.raises(ValueError, match="must be 16 x 16"):
        BoundMatrix(np.eye(12), "custom", True, dmat)


def test_certificates_are_recorded():
    design = make_complete(4, 2)
    dmat = design_matrix(design)
    assert dmat.certificate == "closed_form"
    assert as_bound(dmat).certificate == "closed_form"
    assert build_bound("iterative", design).certificate == "blocks"
    support = [(np.array(z, dtype=np.int8), 0.25) for z in ([1, 0, 1, 0], [1, 0, 0, 1],
                                                             [0, 1, 1, 0], [0, 1, 0, 1])]
    enumerated = make_from_sampler(iter(support), 4, mode="enumerate")
    assert design_matrix(enumerated).certificate == "closed_form"  # the multinomial proof
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
    ("unequal clusters", "two_r", "borrowed-as"),
    ("unequal clusters", "wls_pi", "as"),
]


@pytest.mark.parametrize("kind, estimator, bound", FIT_SHAPES,
                         ids=["/".join(shape) for shape in FIT_SHAPES])
def test_analytic_fits_build_no_dense_array(kind, estimator, bound):
    """One 2000 x 2000 float64 array takes 32 MB; with unequal clusters, so
    does padding each cluster's rows to the largest cluster's size."""
    x, y0, y1, pi1, clusters = _fit_inputs()
    if kind == "unequal clusters":  # one cluster of 500 units beside 500 singletons
        clusters = np.concatenate([np.zeros(500, int), np.arange(1, 501)])
    tracemalloc.start()
    try:
        design = {
            "complete": lambda: make_complete(1000, 500),
            "bernoulli": lambda: make_bernoulli(pi1),
            "cluster": lambda: make_cluster(clusters, 50),
            "unequal clusters": lambda: make_cluster(clusters, 250),
        }[kind]()
        z = draw(design, 1).assignment
        model = AteEstimator(design, estimator=estimator, bound=bound)
        model.fit(np.where(z == 1, y1, y0), z, covariates=x, cluster_ids=clusters)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(model.variance_bound_)
    assert peak < 16 * 2**20


@pytest.mark.parametrize("kind", ["complete", "bernoulli"])
def test_unit_column_fits_build_no_outer_product_array(kind):
    """On unit columns a weighted Gram is a direct product: at n = 20 000 with
    four covariates (separate slopes, l = 10 columns) the fit stays below one
    (2n, l * l) float64 array of row-wise outer products, 32 MB."""
    n, l = 20_000, 10
    rng = np.random.default_rng(11)
    x = rng.standard_normal((n, 4))
    y0 = x @ [1.0, -0.5, 0.25, 0.0] + rng.standard_normal(n)
    pi1 = rng.uniform(0.2, 0.8, n)
    tracemalloc.start()
    try:
        design = make_complete(n, n // 2) if kind == "complete" else make_bernoulli(pi1)
        z = draw(design, 1).assignment
        model = AteEstimator(design, estimator="two_r", spec="II", bound="borrowed-as")
        model.fit(np.where(z == 1, y0 + 1.0, y0), z, covariates=x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.coefficient_.values.shape == (l,)
    assert np.isfinite(model.variance_bound_)
    assert peak < 2 * n * l * l * 8


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.integers(-6, 9), min_size=1, max_size=12), st.integers(0, 2**16))
def test_cluster_ids_in_any_order_make_one_partition(ids, seed):
    """Integer ids that may be negative, unsorted or have gaps: the clusters
    are labelled in ascending id order, totals add each cluster's rows in unit
    order, and a cluster design's support treats whole clusters."""
    ids = np.array(ids)
    groups = _cluster_groups(ids)
    labels = np.unique(ids, return_inverse=True)[1]
    assert np.array_equal(groups.index, labels)
    rows = np.random.default_rng(seed).standard_normal((ids.size, 2))
    for v in (rows, rows[:, 0]):
        want = np.zeros((groups.m,) + v.shape[1:])
        np.add.at(want, labels, v)
        assert np.array_equal(groups.totals(v), want)
    m = groups.m
    if m < 2:
        return
    m1 = 1 + seed % (m - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # one cluster in an arm
        design = make_cluster(ids, m1)
    support = enumerate_assignments(design)
    assert len(support) == comb(m, m1)
    for realization, _ in support:
        z = realization.assignment
        assert in_support(design, z)
        assert np.array_equal(z, z[groups.first][groups.index])  # constant within clusters
        assert z[groups.first].sum() == m1
