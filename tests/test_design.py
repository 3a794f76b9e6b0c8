import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbexp import (
    DesignError,
    StackedOutcomes,
    SupportTooLargeError,
    UnidentifiedDesignError,
    design_from_json,
    design_matrix,
    draw,
    enumerate_assignments,
    make_bernoulli,
    make_cluster,
    make_complete,
    make_from_sampler,
)
from conftest import weighted_indicator_covariance
from dbexp import design as design_module
from dbexp.design import cluster_level_design


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
    cluster = make_cluster([1, 2, 3], 1)
    complete = make_complete(3, 1)
    np.testing.assert_allclose(cluster.joint, complete.joint, atol=1e-12)


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
    assert estimated.provenance.max_adjustment == 0.0


def test_sampler_monte_carlo_counts_match_sorted_tuples():
    def sampler(rng):
        return (rng.random(5) < 0.4).astype(np.int64)

    design = make_from_sampler(sampler, 5, draws=3000, seed=11, mode="monte_carlo")
    rng = np.random.default_rng(11)
    counts = Counter(tuple(int(v) for v in sampler(rng)) for _ in range(3000))
    support = np.array(sorted(counts), dtype=np.int8)
    probs = np.array([counts[tuple(row)] for row in support], dtype=float) / 3000
    z = support.astype(float)
    indicators = np.hstack([1.0 - z, z])
    joint = indicators.T @ (indicators * probs[:, None])
    np.testing.assert_array_equal(design.joint, np.clip((joint + joint.T) / 2.0, 0.0, 1.0))


@pytest.mark.parametrize("bad", [np.array([0, 1, 2]), np.array([0.0, 0.5, 1.0]), np.array([0, 1])])
def test_sampler_rejects_draws_that_are_not_0_1_vectors_of_length_n(bad):
    with pytest.raises(DesignError, match="sampler must yield 0/1 vectors of length n"):
        make_from_sampler(lambda rng: bad, 3, draws=10, seed=0, mode="monte_carlo")


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
        r.as_tuple(): p for r, p in enumerate_assignments(make_bernoulli([0.2, 0.5]))
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
        enumerate_assignments(make_complete(30, 15), cap=1000)


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
    for design in designs:
        clone = design_from_json(design.to_json())
        np.testing.assert_allclose(clone.joint, design.joint, atol=1e-12)
        assert clone.kind == design.kind


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
