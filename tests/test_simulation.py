import dataclasses
import os
import warnings

import numpy as np
import pytest

from dbexp import _linalg, estimators, simulation
from dbexp import (
    AdjustmentCache,
    AssignmentRealization,
    ObservedOutcomes,
    SimConfig,
    build_population,
    calibration_r2,
    coef_2r,
    coef_3ht,
    coef_ols_cluster_totals,
    coef_wls_pi,
    covariate_set,
    emit_report,
    greg,
    run_simulation,
    spec_cluster,
    spec_separate_slopes,
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


def _library_estimates(result, set_id, replications):
    """Single-fit library estimates, (replications, estimators), for one covariate set."""
    config, pop, design = result.config, result.population, result.design
    x = covariate_set(pop, set_id)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # uncentered cluster means and sizes
        spec = spec_separate_slopes(x)
        spec_c = spec_cluster(x, pop.cluster_ids, "II")
    cache = AdjustmentCache.build(spec, design)
    picked = simulation._treated_clusters(config.seed, pop.m, config.m1, replications)
    out = []
    for treated in picked:
        z = treated[pop.cluster_index].astype(np.int64)
        obs = ObservedOutcomes.from_schedule(pop.outcomes, AssignmentRealization(z))
        fits = {
            "wls_ols": (spec, coef_wls_pi(spec, obs, design)),
            "three_ht": (spec, coef_3ht(spec, obs, design, cache)),
            "two_r": (spec, coef_2r(spec, obs, design, cache)),
            "ols_cluster_totals": (spec_c, coef_ols_cluster_totals(spec_c, obs)),
        }
        out.append([greg(obs, design, *fits[name]).point for name in config.estimators])
    return np.array(out)


def test_simulation_runs_the_library_estimators():
    result = run_simulation(SimConfig(**TINY))
    replications = range(result.config.replications)
    for s_pos, set_id in enumerate(result.config.spec_sets):
        np.testing.assert_allclose(
            result.estimates[:, :, s_pos],
            _library_estimates(result, set_id, replications),
            rtol=1e-10,
            atol=1e-12,
        )


def test_simulation_cluster_totals_use_the_library_cutoff():
    # covariate set 4's cluster-total normal matrix is singular (the totals of
    # the cluster-mean column duplicate those of x), so the estimate depends
    # on where the pseudo-inverse cuts; replication 932 is one where the
    # relative and the norm-anchored cutoffs disagree
    config = SimConfig(seed=0, replications=933, spec_sets=(4,),
                       estimators=("ols_cluster_totals",))
    result = run_simulation(config)
    estimate = result.estimates[932, 0, 0]
    assert estimate == pytest.approx(-1.3916382738209403, abs=1e-6)
    library = _library_estimates(result, 4, [932])[0, 0]
    assert library == pytest.approx(estimate, abs=1e-6)


def test_certified_solves_match_an_svd_only_run(monkeypatch):
    """The study against a run whose certificate refuses every matrix, so that
    every solve is an SVD.  The flags are equal, and so are the cluster-total
    estimates of sets 2-4, whose layouts never attempt the inverse; the other
    estimates move by the two routes' rounding."""
    config = SimConfig(**TINY)
    fast = run_simulation(config)
    monkeypatch.setattr(_linalg, "CERTIFIED_COND", -np.inf)
    svd = run_simulation(config)
    assert sum(svd.certified_solves.values()) == 0
    assert sum(fast.certified_solves.values()) > 0
    assert fast.rank_deficient == svd.rank_deficient
    totals = config.estimators.index("ols_cluster_totals")
    sets = [config.spec_sets.index(s) for s in (2, 3, 4)]
    assert np.array_equal(fast.estimates[:, totals][:, sets], svd.estimates[:, totals][:, sets])
    # unit-level set 4 has certified normal matrices up to cond ~1e8 here: its
    # estimates move by ~1e-9 of their largest magnitude, depending on the BLAS kernel
    unit_4 = np.zeros(fast.estimates.shape[1:], bool)
    unit_4[:, config.spec_sets.index(4)] = True
    unit_4[totals] = False
    np.testing.assert_allclose(fast.estimates[:, ~unit_4], svd.estimates[:, ~unit_4],
                               rtol=1e-9, atol=0.0)
    gap = np.abs(fast.estimates[:, unit_4] - svd.estimates[:, unit_4]).max(axis=0)
    assert np.all(gap <= 1e-8 * np.abs(svd.estimates[:, unit_4]).max(axis=0))


def test_simulation_propagates_errors_that_are_not_numerical(monkeypatch):
    def broken_solver(*args, **kwargs):
        raise RuntimeError("broken solver")

    monkeypatch.setattr("dbexp.estimators._wls", broken_solver)
    config = SimConfig(**{**TINY, "replications": 2, "estimators": ("ols_cluster_totals",)})
    with pytest.raises(RuntimeError, match="broken solver"):
        run_simulation(config)


def test_simulation_counts_a_failed_wls_solve_against_its_two_estimators(monkeypatch):
    config = SimConfig(**{**TINY, "replications": 3, "spec_sets": (1, 2)})
    expected = run_simulation(config)
    wls = estimators._wls
    singles = []

    def singular_at_replication_0_of_set_2(x, w, wy):
        # the unit-level layout of covariate set 2: two covariates with
        # separate slopes and intercepts, 6 columns
        if x.shape == (2 * config.n_units, 6):
            if len(w) > 1:  # the stacked solve of the block fails ...
                raise np.linalg.LinAlgError("singular")
            singles.append(w)
            if len(singles) == 1:  # ... and so does replication 0 on its own
                raise np.linalg.LinAlgError("singular")
        return wls(x, w, wy)

    monkeypatch.setattr("dbexp.estimators._wls", singular_at_replication_0_of_set_2)
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


def _lone_replication_of_the_last_block(config):
    """A replication in the last of three blocks whose treated clusters no other
    replication shares, and those clusters: blocks interleave between threads,
    so a fit is told by its weights, not by the order of the calls."""
    population = build_population(config)
    picked = simulation._treated_clusters(config.seed, population.m, config.m1,
                                          range(config.replications))
    for r in range(2 * estimators._BLOCK, config.replications):
        if (picked == picked[r]).all(axis=1).sum() == 1:
            return r, picked[r]
    raise AssertionError("every replication of the last block shares its clusters")


def _treats(w, clusters):
    """Which rows of a fit's (R, 2m) cluster-column weights treat exactly ``clusters``."""
    m = clusters.size
    return w.shape[-1] == 2 * m and ((w[:, m:] > 0) == clusters).all(axis=1)


THREE_BLOCKS = {**TINY, "replications": 450}


def test_simulation_propagates_an_error_from_a_later_block(monkeypatch):
    config = SimConfig(**{**THREE_BLOCKS, "spec_sets": (1,), "estimators": ("ols_cluster_totals",)})
    _, clusters = _lone_replication_of_the_last_block(config)
    wls = estimators._wls

    def broken_at_one_replication(x, w, wy):
        if np.any(_treats(w, clusters)):
            raise RuntimeError("broken solver")
        return wls(x, w, wy)

    monkeypatch.setattr(estimators, "_cpus", lambda: 2)  # the last block runs on the pool
    monkeypatch.setattr(estimators, "_wls", broken_at_one_replication)
    with pytest.raises(RuntimeError, match="broken solver"):
        run_simulation(config)


def test_simulation_counts_a_failed_solve_in_a_later_block(monkeypatch):
    config = SimConfig(**{**THREE_BLOCKS, "spec_sets": (1, 2)})
    expected = run_simulation(config)
    r, clusters = _lone_replication_of_the_last_block(config)
    wls = estimators._wls

    def singular_at_one_replication_of_set_2(x, w, wy):
        # the unit-level layout of covariate set 2 (6 columns) fails, in its
        # block's stacked solve and alone
        if x.shape == (2 * config.n_units, 6) and np.any(_treats(w, clusters)):
            raise np.linalg.LinAlgError("singular")
        return wls(x, w, wy)

    monkeypatch.setattr(estimators, "_cpus", lambda: 2)
    monkeypatch.setattr(estimators, "_wls", singular_at_one_replication_of_set_2)
    result = run_simulation(config)
    names = list(config.estimators)
    hit = [names.index("wls_ols"), names.index("two_r")]
    failures = np.zeros_like(result.failures)
    failures[hit, 1] = 1
    np.testing.assert_array_equal(result.failures, failures)
    lost = np.zeros(result.estimates.shape, dtype=bool)
    lost[r, hit, 1] = True
    assert np.isnan(result.estimates[lost]).all()
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


def test_replications_csv_holds_plain_numbers(tmp_path):
    result = run_simulation(SimConfig(**{**TINY, "replications": 6}))
    estimates = result.estimates.copy()
    estimates[2, 1, 3] = np.nan  # a failed replication
    result = dataclasses.replace(result, estimates=estimates)
    lines = open(emit_report(result, tmp_path)["replications"]).read().splitlines()[1:]
    names, sets = result.config.estimators, result.config.spec_sets
    assert len(lines) == estimates.size
    for line in lines:
        r, name, set_id, text = line.split(",")
        want = estimates[int(r), names.index(name), sets.index(int(set_id))]
        value = float(text)
        assert value == want or (np.isnan(want) and np.isnan(value))


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


@pytest.mark.parametrize("seed", [0, 14, 2**32 - 1, 2**32 + 7, 2**64 + 1, 2**96 + 5, 2**128 + 3])
@pytest.mark.parametrize("replications", [range(450), [449, 0, 17]], ids=["range", "unsorted"])
@pytest.mark.parametrize("m, m1", [(100, 40), (2, 1)])
def test_treated_clusters_are_numpys_per_replication_draws(seed, replications, m, m1):
    want = np.zeros((len(replications), m), dtype=bool)
    for row, r in enumerate(replications):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, r)))
        want[row, rng.permutation(m)[:m1]] = True
    got = simulation._treated_clusters(seed, m, m1, replications)
    assert got.dtype == bool and np.array_equal(got, want)


@pytest.mark.parametrize("replication", [2**32, -1])
def test_treated_clusters_reject_an_index_outside_one_seed_word(replication):
    with pytest.raises(ValueError, match="replication indices"):
        simulation._treated_clusters(0, 10, 4, [replication])


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(noise_interpretation="precision")
    with pytest.raises(ValueError):
        SimConfig(estimators=("nope",))
    with pytest.raises(ValueError):
        SimConfig(spec_sets=(9,))
    with pytest.raises(ValueError):
        run_simulation(SimConfig(n_units=60, n_clusters=12, m1=12, replications=2))
    for field_name in ("n_units", "n_clusters", "m1", "replications", "seed"):
        for value in (2.5, 4.0, True, "4", None):
            with pytest.raises(ValueError, match=field_name):
                SimConfig(**{field_name: value})
    with pytest.raises(ValueError, match="seed"):
        SimConfig(seed=-1)
