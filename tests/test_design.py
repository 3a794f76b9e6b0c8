import itertools
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbexp import (
    AssignmentRealization,
    DesignError,
    StackedOutcomes,
    SupportTooLargeError,
    UnidentifiedDesignError,
    batch_points,
    cluster_totals,
    design_from_json,
    design_matrix,
    draw,
    enumerate_assignments,
    make_bernoulli,
    make_cluster,
    make_complete,
    make_from_sampler,
    spec_cluster,
    spec_II,
    stack_clusters,
)
from conftest import weighted_indicator_covariance
from dense_reference import counted_joint, dense_bernoulli, dense_group_design
from dbexp import design as design_module
from dbexp.api import check_treatment
from dbexp.design import cluster_level_design, in_support, support_size


def test_complete_2_1_design_matrix_blocks():
    d = design_matrix(make_complete(2, 1))
    np.testing.assert_allclose(d.block(0, 0), [[1, -1], [-1, 1]])
    np.testing.assert_allclose(d.block(1, 1), [[1, -1], [-1, 1]])
    np.testing.assert_allclose(d.block(0, 1), [[-1, 1], [1, -1]])
    np.testing.assert_allclose(d.block(1, 0), [[-1, 1], [1, -1]])


def test_complete_4_2_joint_treatment_probability():
    design = make_complete(4, 2)
    p11 = design.joint[4:, 4:]
    off = p11[~np.eye(4, dtype=bool)]
    np.testing.assert_allclose(off, 1 / 6)
    np.testing.assert_allclose(np.diag(p11), 0.5)


def test_complete_4_2_matches_enumeration_covariance():
    design = make_complete(4, 2)
    oracle = weighted_indicator_covariance(design)
    np.testing.assert_allclose(design_matrix(design).values, oracle, atol=1e-10)


def test_complete_rejects_degenerate_counts():
    with pytest.raises(UnidentifiedDesignError):
        make_complete(4, 0)
    with pytest.raises(UnidentifiedDesignError):
        make_complete(4, 4)
    with pytest.raises(DesignError):
        make_complete(1, 1)


def test_bernoulli_independence_kills_cross_covariance():
    d = design_matrix(make_bernoulli([0.5, 0.5]))
    cross = d.block(0, 1).copy()
    np.fill_diagonal(cross, 0.0)
    np.testing.assert_allclose(cross, 0.0)


def test_bernoulli_diagonal_values():
    d = design_matrix(make_bernoulli([0.2, 0.5, 0.8]))
    np.testing.assert_allclose(np.diag(d.block(1, 1)), [4.0, 1.0, 0.25])


def test_bernoulli_rejects_tiny_and_boundary():
    with pytest.raises(DesignError):
        make_bernoulli([0.4])
    with pytest.raises(UnidentifiedDesignError):
        make_bernoulli([0.5, 1.0])
    with pytest.raises(UnidentifiedDesignError):
        make_bernoulli([0.0, 0.5])


def test_cluster_same_cluster_entries_and_enumeration():
    with pytest.warns(UserWarning):
        design = make_cluster([1, 1, 2, 2], 1)
    d = design_matrix(design)
    # same-cluster joint probability equals the marginal, so m0/m1 = 1 here
    assert d.block(1, 1)[0, 1] == pytest.approx(1.0)
    assert d.block(1, 1)[2, 3] == pytest.approx(1.0)
    support = enumerate_assignments(design)
    assert len(support) == 2
    np.testing.assert_allclose([p for _, p in support], 0.5)
    oracle = weighted_indicator_covariance(design)
    np.testing.assert_allclose(d.values, oracle, atol=1e-10)


def test_singleton_clusters_reduce_to_complete():
    for n, n1 in ((n, n1) for n in range(2, 9) for n1 in range(1, n)):
        complete = make_complete(n, n1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # one unit in an arm warns for clusters
            cluster = make_cluster(np.arange(n), n1)
        np.testing.assert_array_equal(complete.joint, cluster.joint)
        np.testing.assert_array_equal(complete.marginals, cluster.marginals)
        np.testing.assert_array_equal(design_matrix(complete).values, design_matrix(cluster).values)
        for seed in range(5):
            np.testing.assert_array_equal(
                draw(complete, seed).assignment, draw(cluster, seed).assignment
            )
        assert support_size(complete) == support_size(cluster)
        assert [(z.assignment.tolist(), p) for z, p in enumerate_assignments(complete)] == [
            (z.assignment.tolist(), p) for z, p in enumerate_assignments(cluster)
        ]
        for z in itertools.product((0, 1), repeat=n):
            assert in_support(complete, z) == in_support(cluster, z) == (sum(z) == n1)


def test_cluster_rejects_degenerate_split():
    with pytest.raises(UnidentifiedDesignError):
        make_cluster([1, 1, 2, 2], 0)
    with pytest.raises(UnidentifiedDesignError):
        make_cluster([1, 1, 2, 2], 2)


def test_cluster_level_design_is_built_once(monkeypatch):
    calls = []
    original = design_module.make_complete

    def counting(n, n1):
        calls.append((n, n1))
        return original(n, n1)

    monkeypatch.setattr(design_module, "make_complete", counting)
    design = make_cluster([1, 1, 2, 2, 3, 3, 4], 2)
    first, second = cluster_level_design(design), cluster_level_design(design)
    assert first[0] is second[0] and first[1] is second[1]
    assert calls == [(4, 2)]
    assert not first[1].flags.writeable
    np.testing.assert_array_equal(first[1], [0, 0, 1, 1, 2, 2, 3])


def test_sampler_enumerate_matches_complete():
    support = [(np.array([1, 0]), 0.5), (np.array([0, 1]), 0.5)]
    design = make_from_sampler(iter(support), 2, mode="enumerate")
    np.testing.assert_allclose(design.joint, make_complete(2, 1).joint, atol=1e-12)


def test_sampler_monte_carlo_approximates_complete():
    def sampler(rng):
        z = np.zeros(4, dtype=np.int8)
        z[rng.permutation(4)[:2]] = 1
        return z

    estimated = make_from_sampler(sampler, 4, draws=200_000, seed=7, mode="monte_carlo")
    exact = make_complete(4, 2)
    assert np.abs(estimated.joint - exact.joint).max() < 0.01


def test_sampler_monte_carlo_counts_match_sorted_tuples():
    def sampler(rng):
        return (rng.random(5) < 0.4).astype(np.int64)

    design = make_from_sampler(sampler, 5, draws=3000, seed=11, mode="monte_carlo")
    rng = np.random.default_rng(11)
    rows = [sampler(rng) for _ in range(3000)]
    # each entry is exactly its integer pair count over the draws, in arm blocks
    np.testing.assert_array_equal(design.joint, counted_joint(rows, 5))


@pytest.mark.parametrize("bad", [np.array([0, 1, 2]), np.array([0.0, 0.5, 1.0]), np.array([0, 1])])
def test_sampler_rejects_draws_that_are_not_0_1_vectors_of_length_n(bad):
    with pytest.raises(DesignError, match="sampler must yield 0/1 vectors of length n"):
        make_from_sampler(lambda rng: bad, 3, draws=10, seed=0, mode="monte_carlo")


def test_sampler_rejects_a_draw_of_another_length_after_good_ones():
    count = itertools.count()

    def sampler(rng):
        z = (rng.random(3) < 0.5).astype(np.int8)
        return np.append(z, 1) if next(count) == 2 else z  # the third draw has 4 units

    with pytest.raises(DesignError, match="sampler must yield 0/1 vectors of length n"):
        make_from_sampler(sampler, 3, draws=10, seed=0, mode="monte_carlo")


def test_sampler_errors_propagate_unchanged():
    def sampler(rng):
        raise ValueError("the sampler's own error")

    with pytest.raises(ValueError, match="the sampler's own error"):
        make_from_sampler(sampler, 3, draws=10, seed=0, mode="monte_carlo")


#: Four draws over three units, each unit drawn in both arms.
_DRAWS = [[1, 0, 1], [0, 1, 0], [1, 1, 0], [0, 0, 1]]


def _float_converted_joint(rows, n):
    """The Monte-Carlo joint of ``rows`` read through one float conversion of
    all of them, or the error that conversion or its 0/1 check raises."""
    message = "sampler must yield 0/1 vectors of length n"
    try:
        stack = np.array(rows, dtype=float)
    except ValueError:
        raise DesignError(message) from None
    if stack.shape != (len(rows), n) or not ((stack == 0) | (stack == 1)).all():
        raise DesignError(message)
    return counted_joint(stack, n)


def _joint_or_error(build):
    try:
        return build()
    except Exception as error:  # the type is what is compared
        return type(error)


def _as(dtype, change=lambda k, z: z):
    """The draws as arrays of ``dtype``, draw k passed through ``change(k, z)``."""
    return [change(k, np.array(r, dtype=dtype)) for k, r in enumerate(_DRAWS)]


def _second(value):
    """The draws as floats with the treated units of the second set to ``value``."""
    return _as(float, lambda k, z: np.where(z == 1, value, 0.0) if k == 1 else z)


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param(_as(bool), id="bool"),
        pytest.param(_as(np.int8), id="int8"),
        pytest.param(_as(np.int64), id="int64"),
        pytest.param(_as(np.float64), id="float64"),
        pytest.param(_DRAWS, id="lists"),
        pytest.param(_as(np.uint8, lambda k, z: z.astype((bool, np.int8, float, np.uint64)[k])),
                     id="mixed dtypes"),
        pytest.param(_as(np.float16), id="float16"),
        pytest.param(_as(str), id="strings"),
        pytest.param(_as(bytes), id="bytes"),
        pytest.param(_as(object), id="objects"),
        pytest.param(_as(object, lambda k, z: [Fraction(v) for v in z]), id="fractions"),
        pytest.param(_as(np.longdouble, lambda k, z: z - z * np.longdouble(2.0**-60)),
                     id="longdouble near 1"),
        pytest.param(_as(complex), id="complex"),
        pytest.param(_as(object, lambda k, z: [complex(v) for v in z]), id="python complex"),
        pytest.param(_as(object, lambda k, z: [None if v else 0 for v in z]), id="none"),
        pytest.param(_as(str, lambda k, z: np.where(z == "1", "a", z)), id="non-numeric string"),
        pytest.param(_as(np.int8, lambda k, z: z[:, None]), id="column rows"),
        pytest.param(_as(np.int8, lambda k, z: z[:2] if k == 3 else z), id="ragged"),
        pytest.param(_as(np.int8, lambda k, z: z[:2]), id="wrong length"),
        pytest.param(_second(2.0), id="a 2"),
        pytest.param(_second(-1.0), id="a -1"),
        pytest.param(_as(np.int8, lambda k, z: z - 1 if k == 1 else z), id="int8 -1"),
        pytest.param(_second(np.nan), id="a nan"),
        pytest.param(_second(np.inf), id="an inf"),
    ],
)
def test_monte_carlo_rows_are_read_as_their_float_conversion(rows):
    """Whatever the sampler returns, the joint, or the error, is that of the
    draws converted to floats at once: the native dtypes give the same joint
    bit for bit, and everything else is accepted or rejected as floats."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the complex draws' cast to floats
        stream = iter(rows)
        built = _joint_or_error(lambda: make_from_sampler(
            lambda rng: next(stream), 3, draws=len(rows), mode="monte_carlo").joint)
        expected = _joint_or_error(lambda: _float_converted_joint(rows, 3))
    if isinstance(expected, np.ndarray):
        assert isinstance(built, np.ndarray) and built.shape == expected.shape
        assert built.tobytes() == expected.tobytes()
    else:
        assert built is expected


@pytest.mark.parametrize(
    "values, accepted",
    [
        ([0, 1], True),
        ([False, True], True),
        ([0.0, 1.0], True),
        ([0, 2], False),
        ([-1, 1], False),
        ([0.5, 1.0], False),
        ([np.nan, 1.0], False),
    ],
)
def test_every_0_1_check_accepts_and_rejects_the_same_values(values, accepted):
    z = np.array(values)
    pair = np.stack([z, z[::-1]])  # two assignments, one treated unit each when 0/1
    outcomes = StackedOutcomes.from_arms([1.0, 2.0], [3.0, 4.0])
    checks = [
        ("assignment must be a 0/1 vector", lambda: AssignmentRealization(z)),
        ("treatment must be a one-dimensional 0/1 vector", lambda: check_treatment(z)),
        ("sampler must yield 0/1 vectors of length n", lambda: make_from_sampler(
            lambda rng: pair[rng.integers(2)], 2, draws=20, mode="monte_carlo")),
        ("support assignments must be 0/1 vectors of length n", lambda: make_from_sampler(
            zip(pair, (0.5, 0.5)), 2, mode="enumerate")),
        (r"treated must be an \(R, 2\) stack of 0/1 assignments", lambda: batch_points(
            make_complete(2, 1), outcomes, pair, [spec_II(np.zeros((2, 0)))], ["ols"])),
    ]
    for message, check in checks:
        if accepted:
            check()
        else:
            with pytest.raises(ValueError, match=message):
                check()


#: Rows A = 110, B = 101, C = 011, E = 000, D = 100 and ABC = 111.
SIGNED_SUPPORT = [[1, 1, 0], [1, 0, 1], [0, 1, 1], [0, 0, 0], [1, 0, 0], [1, 1, 1]]


@pytest.mark.parametrize(
    "probs",
    [
        [0.3, 0.3, 0.3, 0.05, -0.05, 0.1],  # sums to one
        [0.3, 0.3, 0.3, 0.05, np.nan, 0.05],
        [0.3, 0.3, 0.3, 0.05, np.inf, 0.05],
    ],
    ids=["negative", "nan", "inf"],
)
def test_support_probabilities_must_be_finite_and_nonnegative(probs):
    pairs = [(np.array(z), p) for z, p in zip(SIGNED_SUPPORT, probs)]
    with pytest.raises(DesignError, match="support probabilities must be finite and nonnegative"):
        make_from_sampler(iter(pairs), 3, mode="enumerate")


def test_sampler_constant_assignment_is_unidentified():
    def sampler(rng):
        return np.array([1, 1, 0], dtype=np.int8)

    with pytest.raises(UnidentifiedDesignError):
        make_from_sampler(sampler, 3, draws=50, seed=0, mode="monte_carlo")


def test_ht_variance_quadratic_matches_enumeration():
    design = make_complete(4, 2)
    outcomes = StackedOutcomes.from_arms([0, 1, 2, 3], [1, 3, 2, 5])
    d = design_matrix(design)

    def ht(realization):
        w = realization.indicator_diagonal() / design.marginals
        return float((outcomes.values * w).sum() / design.n)

    from conftest import enumeration_moments

    mean, var = enumeration_moments(design, ht)
    assert mean == pytest.approx(outcomes.ate, abs=1e-12)
    assert var == pytest.approx(d.quadratic(outcomes.values) / design.n**2, abs=1e-12)


def test_draw_complete_2_1_support_and_determinism():
    design = make_complete(2, 1)
    for seed in range(10):
        z = tuple(draw(design, seed).assignment)
        assert z in {(1, 0), (0, 1)}
    assert np.array_equal(draw(design, 3).assignment, draw(design, 3).assignment)


def test_draw_complete_4_2_marginal_frequencies():
    design = make_complete(4, 2)
    hits = np.zeros(4)
    for seed in range(10_000):
        hits += draw(design, seed).assignment
    np.testing.assert_allclose(hits / 10_000, 0.5, atol=0.02)


def test_draw_cluster_constant_within_cluster():
    with pytest.warns(UserWarning):
        design = make_cluster([1, 1, 2, 2], 1)
    for seed in range(8):
        z = draw(design, seed).assignment
        assert z[0] == z[1] and z[2] == z[3]


def test_enumerate_complete_and_bernoulli_supports():
    support = enumerate_assignments(make_complete(4, 2))
    assert len(support) == 6
    np.testing.assert_allclose([p for _, p in support], 1 / 6)
    probs = {
        tuple(r.assignment.tolist()): p for r, p in enumerate_assignments(make_bernoulli([0.2, 0.5]))
    }
    assert probs[(0, 0)] == pytest.approx(0.4)
    assert probs[(0, 1)] == pytest.approx(0.4)
    assert probs[(1, 0)] == pytest.approx(0.1)
    assert probs[(1, 1)] == pytest.approx(0.1)


def test_enumeration_probabilities_and_reconstruction():
    designs = [make_complete(5, 2), make_bernoulli([0.2, 0.5, 0.7])]
    for design in designs:
        support = enumerate_assignments(design)
        total = sum(p for _, p in support)
        assert total == pytest.approx(1.0, abs=1e-12)
        z = np.array([r.assignment for r, _ in support], dtype=float)
        probs = np.array([p for _, p in support])
        indicators = np.hstack([1 - z, z])
        joint = indicators.T @ (indicators * probs[:, None])
        np.testing.assert_allclose(joint, design.joint, atol=1e-12)


def test_enumeration_support_cap():
    with pytest.raises(SupportTooLargeError):
        enumerate_assignments(make_complete(30, 15))  # C(30, 15) = 155 117 520 > 10**6


def test_fundamental_mask_and_marginal_identities():
    designs = [
        make_complete(4, 2),
        make_complete(5, 1),
        make_bernoulli([0.2, 0.5, 0.7, 0.9]),
    ]
    for design in designs:
        d = design_matrix(design)
        n = design.n
        for i in range(n):
            assert d.values[i, n + i] == -1.0
            assert d.mask[i, n + i]
        np.testing.assert_allclose(
            design.marginals[:n] + design.marginals[n:], 1.0, atol=1e-12
        )


def test_design_matrix_roundtrip_idempotent():
    design = make_complete(5, 2)
    d = design_matrix(design).values
    outer = np.outer(design.marginals, design.marginals)
    joint_back = outer * (1.0 + d)
    np.testing.assert_allclose(joint_back, design.joint, atol=1e-12)
    d_again = (joint_back - outer) / outer
    np.testing.assert_allclose(d_again, d, atol=1e-12)


def test_serialization_roundtrips():
    with pytest.warns(UserWarning):
        designs = [
            make_complete(4, 2),
            make_bernoulli([0.2, 0.5, 0.7]),
            make_cluster([1, 1, 2, 2], 1),
        ]
    support = [(np.array([1, 0, 0]), 0.25), (np.array([0, 1, 1]), 0.75)]
    designs.append(make_from_sampler(iter(support), 3, mode="enumerate"))
    with pytest.warns(UserWarning, match="fewer than 2 clusters"):  # the cluster design's clone
        clones = [design_from_json(design.to_json()) for design in designs]
    for design, clone in zip(designs, clones):
        np.testing.assert_allclose(clone.joint, design.joint, atol=1e-12)
        assert clone.kind == design.kind


def test_enumerated_serialization_writes_its_support_not_its_joint():
    support = [(np.array([1, 0, 0]), 0.25), (np.array([0, 1, 1]), 0.75)]
    design = make_from_sampler(iter(support), 3, mode="enumerate")
    payload = design_module.design_to_dict(design)
    assert "p" not in payload
    # files written with the joint under "p" still load, from their support
    old = {**payload, "p": design.joint.ravel().tolist()}
    np.testing.assert_array_equal(design_module.design_from_dict(old).joint, design.joint)


def test_fewer_than_two_clusters_warning_points_at_the_caller():
    with pytest.warns(UserWarning, match="fewer than 2 clusters") as direct:
        design = make_cluster([1, 1, 2, 2], 1)
    text = design.to_json()
    with pytest.warns(UserWarning, match="fewer than 2 clusters") as loaded:
        design_from_json(text)
    for record in (direct, loaded):
        assert record[0].filename == __file__


def test_enumeration_covariance_matches_design_matrix_all_small_designs():
    with pytest.warns(UserWarning):
        designs = [
            make_complete(n, max(1, n // 2)) for n in range(2, 9)
        ] + [
            make_bernoulli([0.2, 0.5, 0.7, 0.9]),
            make_bernoulli([0.35, 0.5, 0.65]),
            make_cluster([1, 1, 2, 2], 1),
            make_cluster([1, 1, 2, 3], 2),
            make_cluster([1, 1, 2, 2, 3, 4], 2),
        ]
    for design in designs:
        oracle = weighted_indicator_covariance(design)
        np.testing.assert_allclose(
            design_matrix(design).values, oracle, atol=1e-10
        )


def test_block_randomization_via_enumerated_support():
    # two blocks of two units, one treated per block: build it from its support
    support = []
    for first in ((1, 0), (0, 1)):
        for second in ((1, 0), (0, 1)):
            support.append((np.array(first + second, dtype=np.int8), 0.25))
    design = make_from_sampler(iter(support), 4, mode="enumerate")
    np.testing.assert_allclose(design.marginals, 0.5)
    # cross-block assignments are independent, within-block mutually exclusive
    p11 = design.joint[4:, 4:]
    assert p11[0, 1] == pytest.approx(0.0)
    assert p11[0, 2] == pytest.approx(0.25)
    d = design_matrix(design)
    oracle = weighted_indicator_covariance(design)
    np.testing.assert_allclose(d.values, oracle, atol=1e-12)


def test_monte_carlo_serialization_loses_sampler():
    def sampler(rng):
        z = np.zeros(3, dtype=np.int8)
        z[rng.integers(0, 3)] = 1
        return z

    design = make_from_sampler(sampler, 3, draws=500, seed=1, mode="monte_carlo")
    assert draw(design, 0) is not None  # sampler still attached
    clone = design_from_json(design.to_json())
    np.testing.assert_allclose(clone.joint, design.joint, atol=1e-12)
    with pytest.raises(DesignError):
        draw(clone, 0)
    payload = json.loads(design.to_json())
    assert payload["params"]["draws"] == 500


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=2, max_size=6),
)
def test_bernoulli_designs_always_valid(pi1):
    design = make_bernoulli(pi1)
    d = design_matrix(design)
    n = design.n
    np.testing.assert_allclose(d.values, d.values.T, atol=1e-12)
    for i in range(n):
        assert d.values[i, n + i] == -1.0
    oracle = weighted_indicator_covariance(design)
    np.testing.assert_allclose(d.values, oracle, atol=1e-10)


# -- analytic designs are validated from their parameters ---------------------


ANALYTIC_CASES = {
    "complete n1=1": (lambda: make_complete(5, 1), lambda: dense_group_design(range(5), 1)),
    "complete n1=n-1": (lambda: make_complete(5, 4), lambda: dense_group_design(range(5), 4)),
    "complete n=2": (lambda: make_complete(2, 1), lambda: dense_group_design(range(2), 1)),
    "complete 7 of 3": (lambda: make_complete(7, 3), lambda: dense_group_design(range(7), 3)),
    "cluster singletons": (
        lambda: make_cluster(np.arange(6), 3), lambda: dense_group_design(range(6), 3)
    ),
    "cluster unequal sizes": (
        lambda: make_cluster([3, 3, 1, 7, 7, 7, 2, 5], 2),
        lambda: dense_group_design([3, 3, 1, 7, 7, 7, 2, 5], 2),
    ),
    "cluster one in an arm": (
        lambda: make_cluster([1, 1, 2, 2, 2, 4], 1),
        lambda: dense_group_design([1, 1, 2, 2, 2, 4], 1),
    ),
    "bernoulli smallest subnormal": (
        lambda: make_bernoulli([5e-324, 0.5, 0.25]), lambda: dense_bernoulli([5e-324, 0.5, 0.25])
    ),
    "bernoulli near 0 and 1": (
        lambda: make_bernoulli([1e-300, np.nextafter(1.0, 0.0), 1e-17, 1.0 - 1e-9]),
        lambda: dense_bernoulli([1e-300, np.nextafter(1.0, 0.0), 1e-17, 1.0 - 1e-9]),
    ),
    "bernoulli uniform": (
        lambda: make_bernoulli(np.linspace(0.05, 0.95, 7)),
        lambda: dense_bernoulli(np.linspace(0.05, 0.95, 7)),
    ),
}


@pytest.mark.parametrize("case", ANALYTIC_CASES)
def test_analytic_designs_equal_their_dense_construction_bit_for_bit(case):
    build, dense = ANALYTIC_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # one cluster in an arm warns
        design = build()
    joint, marginals = dense()
    for got, want in ((design.joint, joint), (design.marginals, marginals)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    design_module._validate_joint(design.n, design.joint, design.marginals)


@pytest.fixture
def dense_scans(monkeypatch):
    """Orders n of the _validate_joint calls made while the test runs, from a
    cold cache of validated group designs."""
    design_module._validate_group_joint.cache_clear()
    orders = []
    original = design_module._validate_joint

    def counting(n, joint, marginals):
        orders.append(n)
        return original(n, joint, marginals)

    monkeypatch.setattr(design_module, "_validate_joint", counting)
    return orders


def test_analytic_constructors_run_no_dense_scan(dense_scans):
    n = 1000
    make_complete(n, n // 2)
    make_bernoulli(np.linspace(0.2, 0.8, n))
    make_cluster(np.repeat(np.arange(100), n // 100), 50)
    # complete and cluster designs each validate one 3-unit joint
    assert dense_scans == [3, 3]


def test_group_designs_validate_once_per_group_count_and_treated_count(dense_scans):
    make_complete(1000, 500)
    make_complete(1000, 500)
    assert dense_scans == [3]
    make_complete(1000, 400)
    assert dense_scans == [3, 3]
    make_cluster(np.repeat(np.arange(1000), 2), 500)  # 1000 groups, 500 treated
    assert dense_scans == [3, 3]


def test_every_other_design_runs_one_dense_scan(dense_scans):
    n = 4
    complete = make_complete(n, 2)
    support = [(z.assignment, p) for z, p in enumerate_assignments(complete)]

    def sampler(rng):
        return rng.permutation([0, 0, 1, 1])

    monte_carlo = make_from_sampler(sampler, n, draws=200, seed=3, mode="monte_carlo")
    descriptor = design_module.design_to_dict(monte_carlo)
    builds = [
        lambda: make_from_sampler(iter(support), n, mode="enumerate"),
        lambda: make_from_sampler(sampler, n, draws=200, seed=3, mode="monte_carlo"),
        lambda: design_module.design_from_dict(descriptor),
        lambda: design_module.Design(
            n, complete.joint, complete.marginals, complete.provenance
        ),
    ]
    for build in builds:
        dense_scans.clear()
        build()
        assert dense_scans == [n]


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: make_complete(1, 1), DesignError, "complete randomization needs at least 2 units"),
        (lambda: make_complete(4, 0), UnidentifiedDesignError, "1 <= n1 <= n - 1"),
        (lambda: make_complete(4, 4), UnidentifiedDesignError, "1 <= n1 <= n - 1"),
        (lambda: make_cluster([1, 1, 1], 1), DesignError, "needs at least 2 clusters"),
        (lambda: make_cluster([1, 1, 2, 2], 0), UnidentifiedDesignError, "1 <= m1 <= m - 1"),
        (lambda: make_cluster([1, 1, 2, 2], 2), UnidentifiedDesignError, "1 <= m1 <= m - 1"),
        (lambda: make_cluster([1, 1.5, 2, 2], 1), DesignError, "cluster ids must be integers"),
        (lambda: make_bernoulli([0.4]), DesignError, "a design needs at least 2 units"),
        (lambda: make_bernoulli([0.0, 0.5]), UnidentifiedDesignError, "strictly inside (0, 1)"),
        (lambda: make_bernoulli([0.5, 1.0]), UnidentifiedDesignError, "strictly inside (0, 1)"),
        (lambda: make_bernoulli([np.inf, 0.5]), UnidentifiedDesignError, "strictly inside (0, 1)"),
        (lambda: make_bernoulli([0.5, -np.inf]), UnidentifiedDesignError, "strictly inside (0, 1)"),
        (
            lambda: make_bernoulli([0.5, np.nan]),
            DesignError,
            "arm probabilities must sum to one for every unit",
        ),
    ],
)
def test_invalid_analytic_arguments_keep_their_errors(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error
    assert message in str(raised.value)


@pytest.mark.parametrize(
    "entry",
    [
        lambda ids: make_cluster(ids, 1),
        lambda ids: stack_clusters(StackedOutcomes.from_arms(np.zeros(6), np.ones(6)), ids),
        lambda ids: cluster_totals(np.ones(6), ids),
        lambda ids: spec_cluster(np.zeros((6, 1)), ids),
    ],
    ids=["make_cluster", "stack_clusters", "cluster_totals", "spec_cluster"],
)
@pytest.mark.parametrize(
    "bad, message",
    [(np.nan, "cluster ids contain missing values"), (1.5, "cluster ids must be integers")],
)
def test_every_entry_point_checks_cluster_ids_alike(entry, bad, message):
    ids = np.array([1.0, bad, 2.0, 2.0, 3.0, 3.0])
    with pytest.raises(DesignError, match=message):
        entry(ids)


def _joint_breaking(rule: str):
    """(n, joint, marginals) of complete randomization of 2 of 4 units with
    exactly ``rule`` of the dense scan broken."""
    base = make_complete(4, 2)
    n, joint, marginals = 4, base.joint.copy(), base.marginals.copy()

    def pair(i, j, value):
        joint[i, j] = joint[j, i] = value

    if rule == "shape":
        joint = joint[:-1, :-1]
    elif rule == "marginal length":
        marginals = marginals[:-1]
    elif rule == "marginal outside (0, 1)":  # unit 0 always treated
        marginals[n] = joint[n, n] = 1.0
        marginals[0] = joint[0, :n] = joint[:n, 0] = 0.0
    elif rule == "arms sum":
        joint[0, 0] = marginals[0] = 0.4
    elif rule == "diagonal":
        joint[0, 0] = 0.4
    elif rule == "symmetry":
        joint[0, 1] += 0.01
    elif rule == "range":
        pair(0, 1, -0.1)
    elif rule == "both arms":
        pair(0, n, 0.1)
    elif rule == "treated cap":
        pair(n, n + 1, 0.6)
    elif rule == "control cap":
        pair(0, 1, 0.6)
    return n, joint, marginals


@pytest.mark.parametrize(
    "rule, error, message",
    [
        ("shape", DesignError, "joint probability matrix must be 8 x 8"),
        ("marginal length", DesignError, "marginal vector must have length 2n"),
        ("marginal outside (0, 1)", UnidentifiedDesignError,
         "treatment probability must lie strictly inside (0, 1); offending units: 0"),
        ("arms sum", DesignError, "arm probabilities must sum to one for every unit"),
        ("diagonal", DesignError, "diagonal of the joint matrix must equal the marginals"),
        ("symmetry", DesignError, "joint probability matrix must be symmetric"),
        ("range", DesignError, "joint probabilities must lie in [0, 1]"),
        ("both arms", DesignError, "a unit cannot be observed in both arms"),
        ("treated cap", DesignError, "joint treatment probabilities exceed their marginals"),
        ("control cap", DesignError, "joint control probabilities exceed their marginals"),
    ],
)
def test_a_joint_breaking_one_rule_is_rejected_by_that_rule(rule, error, message):
    n, joint, marginals = _joint_breaking(rule)
    with pytest.raises(error) as raised:
        design_module.Design(n, joint, marginals, make_complete(4, 2).provenance)
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_draw_on_an_enumerated_design_picks_a_support_row():
    support = np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.int8)
    design = make_from_sampler(((z, 0.5) for z in support), 4, mode="enumerate")
    drawn = {tuple(draw(design, seed).assignment) for seed in range(8)}
    assert drawn == {tuple(z) for z in support}
