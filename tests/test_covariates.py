import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbexp import (
    CovariateSpec,
    ObservedOutcomes,
    StackedOutcomes,
    add_invprop_column,
    cluster_totals,
    coef_ols_cluster_totals,
    draw,
    greg,
    make_bernoulli,
    make_cluster,
    make_complete,
    spec_cluster,
    spec_I,
    spec_II,
    zero_center,
)


def test_zero_center_basic_cases():
    np.testing.assert_allclose(zero_center(np.array([1.0, 2.0, 3.0])), [-1, 0, 1])
    centered = np.array([-1.0, 0.0, 1.0])
    np.testing.assert_allclose(zero_center(centered), centered)
    np.testing.assert_allclose(zero_center(np.array([5.0, 5.0, 5.0])), 0.0)


def test_spec_I_layouts():
    spec = spec_I(np.empty((2, 0)))
    np.testing.assert_allclose(spec.matrix, [[-1, 0], [-1, 0], [0, 1], [0, 1]])
    spec = spec_I(np.array([-1.0, 1.0]))
    np.testing.assert_allclose(spec.matrix[:, 2], [1, -1, -1, 1])
    # control intercept column mirrors the treatment one with opposite sign
    np.testing.assert_allclose(spec.matrix[:2, 0], -spec.matrix[2:, 1])
    assert spec.intercept_cols == (0, 1)


def test_spec_II_layouts():
    x0 = np.empty((2, 0))
    np.testing.assert_allclose(spec_II(x0).matrix, spec_I(x0).matrix)
    spec = spec_II(np.array([-1.0, 1.0]))
    np.testing.assert_allclose(spec.matrix[:, 0], [-1, -1, 0, 0])
    np.testing.assert_allclose(spec.matrix[:, 1], [1, -1, 0, 0])
    np.testing.assert_allclose(spec.matrix[:, 2], [0, 0, 1, 1])
    np.testing.assert_allclose(spec.matrix[:, 3], [0, 0, -1, 1])
    assert spec.intercept_cols == (0, 2)
    assert spec_II(np.zeros((4, 3))).n_columns == 8


def test_spec_sign_mirror_of_covariate_blocks():
    x = zero_center(np.arange(12.0).reshape(4, 3) ** 1.3)
    s1 = spec_I(x)
    np.testing.assert_allclose(s1.matrix[:4, 2:], -x)
    np.testing.assert_allclose(s1.matrix[4:, 2:], x)
    s2 = spec_II(x)
    np.testing.assert_allclose(s2.matrix[:4, 1:4], -x)
    np.testing.assert_allclose(s2.matrix[4:, 5:], x)
    # for centered x, covariate columns of the treatment half sum to zero
    np.testing.assert_allclose(s2.matrix[4:, 5:].sum(axis=0), 0.0, atol=1e-12)


def test_uncentered_covariates_warn_but_build():
    with pytest.warns(UserWarning):
        spec_I(np.array([1.0, 2.0, 3.0]))


def test_cluster_totals_examples():
    np.testing.assert_allclose(
        cluster_totals(np.array([1.0, 2.0, 3.0]), [1, 1, 2]), [[3.0], [3.0]]
    )
    np.testing.assert_allclose(
        cluster_totals(np.ones(3), [1, 1, 2]), [[2.0], [1.0]]
    )
    x = np.array([[1.0, 10.0], [2.0, 20.0], [4.0, 40.0]])
    np.testing.assert_allclose(
        cluster_totals(x, [2, 1, 2]), [[2.0, 20.0], [5.0, 50.0]]
    )


def test_cluster_totals_singletons_are_identity():
    x = np.arange(8.0).reshape(4, 2)
    np.testing.assert_allclose(cluster_totals(x, [3, 1, 4, 2]), x[[1, 3, 0, 2]])


def test_cluster_totals_rejects_missing_ids():
    with pytest.raises(ValueError):
        cluster_totals(np.ones(3), np.array([1.0, np.nan, 2.0]))


def test_spec_cluster_layout_and_counts():
    spec = spec_cluster(np.empty((3, 0)), [1, 1, 2], "II")
    assert spec.matrix.shape == (4, 4)
    np.testing.assert_allclose(spec.matrix[:, 2], [-2, -1, 0, 0])
    np.testing.assert_allclose(spec.matrix[:, 3], [0, 0, 2, 1])
    assert spec.divisor == 3
    assert spec.level == "cluster"
    assert spec_cluster(np.zeros((4, 1)), [1, 1, 2, 2], "II").n_columns == 6  # 2k+4
    assert spec_cluster(np.zeros((4, 1)), [1, 1, 2, 2], "I").n_columns == 4  # k+3


def test_cluster_layout_derives_its_partition_from_its_cluster_ids():
    spec = spec_cluster(np.zeros((5, 1)), [7, 3, 7, 5, 3], "II")
    np.testing.assert_array_equal(spec.clusters.index, [2, 0, 2, 1, 0])
    assert spec.clusters.m == spec.rows_per_arm == 3
    with pytest.raises(TypeError):  # not a constructor argument, so it cannot disagree
        CovariateSpec(spec.matrix, "II", spec.labels, level="cluster",
                      cluster_ids=spec.cluster_ids, clusters=spec.clusters)
    assert spec_II(np.zeros((5, 1))).clusters is None


def test_spec_cluster_singletons_extend_unit_spec():
    x = zero_center(np.array([0.5, -1.5, 1.0]))
    unit = spec_II(x)
    single = spec_cluster(x, [1, 2, 3], "II")
    # singleton clusters: totals equal unit values, so every unit-level column
    # appears (sizes column = plain intercept totals of ones)
    np.testing.assert_allclose(single.matrix[:, 0], unit.matrix[:, 0])  # control intercept
    np.testing.assert_allclose(single.matrix[:, 1], unit.matrix[:, 2])  # treated intercept
    np.testing.assert_allclose(single.matrix[:, 3], unit.matrix[:, 1])  # -x block
    np.testing.assert_allclose(single.matrix[:, 5], unit.matrix[:, 3])  # +x block
    np.testing.assert_allclose(single.matrix[:3, 2], -1.0)  # totaled intercepts
    np.testing.assert_allclose(single.matrix[3:, 4], 1.0)


def _cluster_layout(totals: np.ndarray, spec_kind: str) -> np.ndarray:
    """The signed layout over [cluster size | covariate totals], built directly."""
    m, k = totals.shape
    one, zm, zk = np.ones((m, 1)), np.zeros((m, 1)), np.zeros((m, k))
    if spec_kind == "I":
        return np.vstack([np.hstack([-one, zm, -totals]), np.hstack([zm, one, totals])])
    return np.vstack([np.hstack([-one, zm, -totals, zk]), np.hstack([zm, one, zk, totals])])


def test_spec_cluster_drops_totals_that_duplicate_an_earlier_column():
    """A cluster-mean covariate totals to the covariate's totals and a covariate
    of ones to the cluster sizes: both columns go with their labels, and the
    cluster-totals point is the one on the full layout."""
    rng = np.random.default_rng(21)
    ids = np.repeat(np.arange(10), [2, 3, 1, 4, 2, 3, 2, 3, 5, 1])
    n = ids.size
    x = rng.standard_normal(n)
    sizes = np.bincount(ids)
    xbar = (np.bincount(ids, weights=x) / sizes)[ids]
    covariates = np.column_stack([x, xbar, np.ones(n)])
    spec = spec_cluster(covariates, ids, "II")
    assert spec.labels == ("intercept_control", "intercept_treated", "cluster_size_control",
                           "x0_control_total", "cluster_size_treated", "x0_treated_total")
    kept = np.column_stack([sizes, np.bincount(ids, weights=x)])
    np.testing.assert_allclose(spec.x, kept, rtol=1e-15)
    np.testing.assert_array_equal(spec.matrix, _cluster_layout(spec.x, "II"))

    full_totals = cluster_totals(np.column_stack([np.ones(n), covariates]), ids)
    full = CovariateSpec(_cluster_layout(full_totals, "II"), "II",
                         tuple(f"c{j}" for j in range(10)), level="cluster", divisor=n,
                         cluster_ids=ids, intercept_cols=(0, 1))
    design = make_cluster(ids, 4)
    y0 = x + rng.standard_normal(n)
    outcomes = StackedOutcomes.from_arms(y0, y0 + 1.0)
    for seed in range(5):
        obs = ObservedOutcomes.from_schedule(outcomes, draw(design, seed))
        point, full_point = (greg(obs, design, layout, coef_ols_cluster_totals(layout, obs)).point
                             for layout in (spec, full))
        assert point == pytest.approx(full_point, abs=1e-9)


@pytest.mark.parametrize("spec_kind, labels", [
    ("I", ("cluster_size", "x0_total", "x1_total")),
    ("II", ("cluster_size_control", "x0_control_total", "x1_control_total",
            "cluster_size_treated", "x0_treated_total", "x1_treated_total")),
])
def test_spec_cluster_keeps_a_layout_without_duplicates(spec_kind, labels):
    ids = np.array([1, 1, 2, 3, 3, 3, 4])
    x = np.column_stack([np.arange(7.0), np.arange(7.0) ** 2])
    spec = spec_cluster(x, ids, spec_kind)
    totals = cluster_totals(np.column_stack([np.ones(7), x]), ids)
    np.testing.assert_array_equal(spec.x, totals)
    np.testing.assert_array_equal(spec.matrix, _cluster_layout(totals, spec_kind))
    assert spec.labels == ("intercept_control", "intercept_treated") + labels


def test_invprop_column_values():
    spec = spec_II(np.empty((2, 0)))
    equal = add_invprop_column(spec, make_complete(2, 1))
    np.testing.assert_allclose(equal.matrix[:, -1], 0.0, atol=1e-14)

    design = make_bernoulli([0.25, 0.75])
    spec2 = add_invprop_column(spec_II(np.empty((2, 0))), design)
    raw_treated = np.array([4.0, 4.0 / 3.0])
    raw_control = 1.0 / np.array([0.75, 0.25])
    expected = np.concatenate(
        [raw_control - raw_control.mean(), raw_treated - raw_treated.mean()]
    )
    np.testing.assert_allclose(spec2.matrix[:, -1], expected)
    assert spec2.labels[-1] == "inv_propensity"
    assert abs(spec2.matrix[:, -1].sum()) < 1e-12


def test_invprop_rejects_cluster_level():
    spec = spec_cluster(np.zeros((4, 1)), [1, 1, 2, 2], "II")
    with pytest.raises(ValueError):
        add_invprop_column(spec, make_complete(2, 1))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_spec_I_is_restriction_of_spec_II(n, k, seed):
    rng = np.random.default_rng(seed)
    x = zero_center(rng.standard_normal((n, k)))
    a0, a1 = rng.standard_normal(2)
    s = rng.standard_normal(k)
    lhs = spec_I(x).matrix @ np.concatenate([[a0, a1], s])
    rhs = spec_II(x).matrix @ np.concatenate([[a0], s, [a1], s])
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
