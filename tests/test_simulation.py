import os

import numpy as np
import pytest

from dbexp import simulation
from dbexp import (
    SimConfig,
    build_population,
    calibration_r2,
    covariate_set,
    emit_report,
    run_simulation,
)

TABLE_1 = {8: 13, 9: 41, 10: 21, 11: 10, 12: 6, 13: 3, 14: 3, 16: 2, 22: 1}

TINY = dict(n_units=60, n_clusters=12, m1=5, replications=200, seed=42)


def test_population_matches_published_size_table_and_sharp_null():
    pop = build_population(SimConfig(seed=3))
    assert pop.size_table() == TABLE_1
    assert pop.m == 100
    assert pop.n == 1000
    np.testing.assert_allclose(pop.outcomes.treated, pop.outcomes.control)
    assert pop.outcomes.ate == 0.0


def test_population_determinism_and_noise_modes():
    a = build_population(SimConfig(seed=5))
    b = build_population(SimConfig(seed=5))
    np.testing.assert_array_equal(a.outcomes.values, b.outcomes.values)
    c = build_population(SimConfig(seed=6))
    assert not np.array_equal(a.outcomes.values, c.outcomes.values)
    sd_mode = build_population(SimConfig(seed=5, noise_interpretation="sd"))
    # larger noise scale, same covariates
    np.testing.assert_array_equal(a.covariate, sd_mode.covariate)
    assert sd_mode.outcomes.control.var() > a.outcomes.control.var()
    # wider noise pushes the explained share down
    assert calibration_r2(sd_mode) < calibration_r2(a)


def test_covariate_sets_are_the_documented_four():
    pop = build_population(SimConfig(seed=1))
    x = pop.covariate
    idx = pop.cluster_index
    xbar = np.array([x[idx == g].mean() for g in range(pop.m)])[idx]
    n_c = pop.cluster_sizes[idx].astype(float)
    np.testing.assert_allclose(covariate_set(pop, 1), x[:, None])
    np.testing.assert_allclose(covariate_set(pop, 2), np.column_stack([x, xbar]))
    np.testing.assert_allclose(covariate_set(pop, 3), np.column_stack([x, xbar, n_c]))
    np.testing.assert_allclose(
        covariate_set(pop, 4), np.column_stack([x, xbar, n_c, n_c**2])
    )
    with pytest.raises(ValueError):
        covariate_set(pop, 5)


def test_simulation_metrics_decomposition_and_determinism():
    config = SimConfig(**TINY)
    result = run_simulation(config)
    assert result.failures.sum() == 0
    for row in result.metrics:
        assert row.mse == pytest.approx(row.bias_sq + row.se_sq, abs=1e-10)
    again = run_simulation(SimConfig(**TINY))
    np.testing.assert_array_equal(result.estimates, again.estimates)


def test_simulation_propagates_errors_that_are_not_numerical(monkeypatch):
    def broken_solver(*args, **kwargs):
        raise RuntimeError("broken solver")

    monkeypatch.setattr("dbexp.simulation.pinv_solve", broken_solver)
    config = SimConfig(**{**TINY, "replications": 2, "estimators": ("ols_cluster_totals",)})
    with pytest.raises(RuntimeError, match="broken solver"):
        run_simulation(config)


def test_simulation_counts_a_failed_wls_solve_against_its_two_estimators(monkeypatch):
    config = SimConfig(**{**TINY, "replications": 3, "spec_sets": (1, 2)})
    expected = run_simulation(config)
    wls_coefficient = simulation._wls_coefficient
    calls = []

    def singular_once(*args):
        calls.append(args)
        if len(calls) == 2:  # replication 0, covariate set 2
            raise np.linalg.LinAlgError("singular")
        return wls_coefficient(*args)

    monkeypatch.setattr("dbexp.simulation._wls_coefficient", singular_once)
    result = run_simulation(config)
    names = list(config.estimators)
    hit = [names.index("wls_ols"), names.index("two_r")]
    failures = np.zeros_like(result.failures)
    failures[hit, 1] = 1
    np.testing.assert_array_equal(result.failures, failures)
    assert np.isnan(result.estimates[0, hit, 1]).all()
    lost = np.zeros(result.estimates.shape, dtype=bool)
    lost[0, hit, 1] = True
    np.testing.assert_array_equal(result.estimates[~lost], expected.estimates[~lost])


def test_simulation_tiny_bias_profile():
    result = run_simulation(SimConfig(**{**TINY, "replications": 500}))
    shares = {
        (m.estimator, m.spec_set): m.bias_sq / m.mse for m in result.metrics
    }
    for (name, _), share in shares.items():
        if name == "three_ht":
            continue
        assert share < 0.10
    three_ht = [v for (name, _), v in shares.items() if name == "three_ht"]
    assert min(three_ht) > 0.10


def test_emit_report_outputs(tmp_path):
    config = SimConfig(**{**TINY, "replications": 20})
    result = run_simulation(config)
    paths = emit_report(result, tmp_path)
    metrics_lines = open(paths["metrics"]).read().strip().splitlines()
    assert metrics_lines[0] == (
        "estimator,spec_set,mse,bias_sq,se_sq,pct_mse_reduction_vs_benchmark"
    )
    assert len(metrics_lines) == 1 + 4 * 4
    reps_lines = open(paths["replications"]).read().strip().splitlines()
    assert len(reps_lines) == 1 + 20 * 4 * 4
    svg = open(paths["figure"]).read()
    for title in ("MSE", "SE²", "Bias²", "% MSE reduction"):
        assert title in svg
    assert "covariate set" in svg


def test_emit_report_empty_estimators(tmp_path):
    config = SimConfig(**{**TINY, "replications": 5, "estimators": ()})
    result = run_simulation(config)
    paths = emit_report(result, tmp_path)
    assert open(paths["metrics"]).read().strip().splitlines() == [
        "estimator,spec_set,mse,bias_sq,se_sq,pct_mse_reduction_vs_benchmark"
    ]
    assert "figure" not in paths
    assert not os.path.exists(os.path.join(tmp_path, "figure.svg"))


def test_emit_report_byte_identical_across_runs(tmp_path):
    config = SimConfig(**{**TINY, "replications": 15})
    first = emit_report(run_simulation(config), tmp_path / "a")
    second = emit_report(run_simulation(config), tmp_path / "b")
    for key in first:
        assert open(first[key], "rb").read() == open(second[key], "rb").read()


def test_simulation_subset_of_sets_and_estimators():
    config = SimConfig(**{**TINY, "replications": 10, "spec_sets": (2,),
                          "estimators": ("wls_ols", "two_r")})
    result = run_simulation(config)
    assert result.estimates.shape == (10, 2, 1)
    cells = {(m.estimator, m.spec_set) for m in result.metrics}
    assert cells == {("wls_ols", 2), ("two_r", 2)}
    table = {m.estimator: m for m in result.metrics}
    assert table["wls_ols"].pct_mse_reduction_vs_benchmark == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(noise_interpretation="precision")
    with pytest.raises(ValueError):
        SimConfig(estimators=("nope",))
    with pytest.raises(ValueError):
        SimConfig(spec_sets=(9,))
    with pytest.raises(ValueError):
        run_simulation(SimConfig(n_units=60, n_clusters=12, m1=12, replications=2))
