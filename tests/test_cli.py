import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

import dbexp.bounds
import dbexp.cli
from dbexp import AteEstimator, SimConfig, build_bound, make_complete
from dbexp.cli import main

TOY_TWO_UNIT = "outcome,treatment\n1,1\n2,0\n"

# complete(4,2) fixture with x already zero-centered; realized z = (1,1,0,0)
PRECISION_CSV = (
    "outcome,treatment,x\n"
    "2.92,1,1.0\n"
    "0.02,1,-0.5\n"
    "0.55,0,0.25\n"
    "-1.55,0,-0.75\n"
)
HELPFUL_B = "[0.0, 1.84, 0.0, 1.84]\n"
HARMFUL_B = "[0.0, 81.76, 0.0, 81.76]\n"


@pytest.fixture
def runner():
    return CliRunner()


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


def test_estimate_ht_worked_example(runner, tmp_path):
    data = _write(tmp_path / "toy.csv", TOY_TWO_UNIT)
    result = runner.invoke(
        main,
        ["estimate", "--data", data, "--design", "complete:n1=1", "--estimator", "ht",
         "--bound", "as", "--out-dir", str(tmp_path / "out")],
    )
    assert result.exit_code == 0, result.output
    lines = open(tmp_path / "out" / "estimates.csv").read().splitlines()
    assert lines[0].startswith("estimator,spec,point,variance_bound,ci_low,ci_high")
    fields = lines[1].split(",")
    assert fields[0] == "ht"
    assert float(fields[2]) == pytest.approx(-1.0)
    assert os.path.exists(tmp_path / "out" / "manifest.json")


def test_estimate_missing_cell_exits_2(runner, tmp_path):
    data = _write(tmp_path / "bad.csv", "outcome,treatment\n1,1\n,0\n")
    result = runner.invoke(
        main, ["estimate", "--data", data, "--design", "complete:n1=1"]
    )
    assert result.exit_code == 2
    assert "row 3" in result.output


def test_estimate_unidentified_design_exits_3(runner, tmp_path):
    data = _write(tmp_path / "toy.csv", TOY_TWO_UNIT)
    result = runner.invoke(
        main, ["estimate", "--data", data, "--design", "complete:n1=0",
               "--out-dir", str(tmp_path / "out")]
    )
    assert result.exit_code == 3


def test_estimate_two_r_with_borrowed_bound_schema(runner, tmp_path):
    rng = np.random.default_rng(2)
    n = 8
    z = np.array([1, 0, 1, 0, 1, 0, 1, 0])
    x = rng.standard_normal(n).round(4)
    y = (x + z + rng.standard_normal(n)).round(4)
    rows = "\n".join(f"{y[i]},{z[i]},{x[i]}" for i in range(n))
    data = _write(tmp_path / "d.csv", "outcome,treatment,x\n" + rows + "\n")
    result = runner.invoke(
        main,
        ["estimate", "--data", data, "--design", "complete:n1=4", "--estimator", "two_r",
         "--bound", "borrowed-as", "--out-dir", str(tmp_path / "out")],
    )
    assert result.exit_code == 0, result.output
    header, row = open(tmp_path / "out" / "estimates.csv").read().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["bound"] == "borrowed-as"
    assert cols["ci_low"] != "" and cols["ci_high"] != ""
    assert float(cols["ci_low"]) < float(cols["point"]) < float(cols["ci_high"])


def test_estimate_borrowed_with_other_estimator_exits_2(runner, tmp_path):
    data = _write(tmp_path / "toy.csv", TOY_TWO_UNIT)
    result = runner.invoke(
        main,
        ["estimate", "--data", data, "--design", "complete:n1=1", "--estimator", "ols",
         "--bound", "borrowed-as", "--out-dir", str(tmp_path / "out")],
    )
    assert result.exit_code == 2


def test_simulate_smoke_and_flag_precedence(runner, tmp_path):
    config = {"n_units": 60, "n_clusters": 12, "m1": 5, "replications": 8, "seed": 1}
    cfg_path = _write(tmp_path / "config.json", json.dumps(config))
    out = tmp_path / "sim"
    result = runner.invoke(
        main,
        ["simulate", "--config", cfg_path, "--replications", "10",
         "--out-dir", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert (out / "metrics.csv").exists()
    assert (out / "replications.csv").exists()
    assert (out / "figure.svg").exists()
    manifest = json.loads(open(out / "manifest.json").read())
    assert manifest["params"]["config_file"]["replications"] == 8
    assert manifest["params"]["flags"]["replications"] == 10
    assert manifest["params"]["resolved"]["replications"] == 10  # flags win
    n_rows = len(open(out / "replications.csv").read().strip().splitlines()) - 1
    assert n_rows == 10 * 4 * 4


def test_simulate_manifest_reports_rank_deficient_solves(runner, tmp_path):
    out = tmp_path / "sim"
    result = runner.invoke(
        main,
        ["simulate", "--n-units", "60", "--n-clusters", "12", "--m1", "5",
         "--replications", "200", "--seed", "42", "--out-dir", str(out)],
    )
    assert result.exit_code == 0, result.output
    params = json.loads(open(out / "manifest.json").read())["params"]
    assert params["failures"] == 0
    deficient = params["rank_deficient"]
    assert set(deficient) == {
        f"{name}/{set_id}"
        for name in ("wls_ols", "two_r", "ols_cluster_totals")
        for set_id in (1, 2, 3, 4)
    }
    # the cluster-mean column's totals, which duplicate those of x, are dropped,
    # so only this small population's ill-conditioned fits read deficient
    assert [deficient[f"ols_cluster_totals/{s}"] for s in (1, 2, 3, 4)] == [1, 1, 99, 200]
    assert deficient["wls_ols/1"] == 0
    # a fit is solved by its certified inverse or by an SVD, never both
    certified = params["certified_solves"]
    assert set(certified) == set(deficient)
    assert all(certified[key] + deficient[key] <= 200 for key in certified)
    assert [certified[f"ols_cluster_totals/{s}"] for s in (2, 3, 4)] == [199, 101, 0]
    assert certified["wls_ols/1"] == certified["two_r/1"] == 200


def test_simulate_writes_stage_timings_beside_byte_identical_reports(runner, tmp_path):
    args = ["simulate", "--n-units", "60", "--n-clusters", "12", "--m1", "5",
            "--replications", "20", "--seed", "7", "--out-dir"]
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        result = runner.invoke(main, args + [str(out)])
        assert result.exit_code == 0, result.output
    timings = json.loads(open(runs[0] / "timings.json").read())
    assert set(timings) == {"population", "draws", "unit_batch_points",
                            "cluster_batch_points", "report"}
    assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
    assert "timings" not in json.loads(open(runs[0] / "manifest.json").read())["params"]
    for name in ("metrics.csv", "replications.csv", "figure.svg", "manifest.json"):
        assert open(runs[0] / name, "rb").read() == open(runs[1] / name, "rb").read()


def test_simulate_invalid_config_exits_2(runner, tmp_path):
    result = runner.invoke(
        main, ["simulate", "--replications", "0", "--out-dir", str(tmp_path / "x")]
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("config", [{"seed": 1.5}, {"seed": True}, {"seed": -1},
                                    {"replications": 2.5}, {"m1": 4.0}])
def test_simulate_non_integer_or_negative_config_value_exits_2(runner, tmp_path, config):
    cfg_path = _write(tmp_path / "config.json", json.dumps(config))
    result = runner.invoke(main, ["simulate", "--config", cfg_path,
                                  "--out-dir", str(tmp_path / "x")])
    assert result.exit_code == 2, result.output
    assert "must be" in result.output


def test_simulate_defaults_runs_the_default_study_at_the_seed_given(runner, tmp_path,
                                                                     monkeypatch):
    class Ran(Exception):
        pass

    def run(config):
        raise Ran(config)

    monkeypatch.setattr(dbexp.cli, "run_simulation", run)
    result = runner.invoke(main, ["simulate", "--defaults", "--seed", "3",
                                  "--out-dir", str(tmp_path / "o")])
    assert isinstance(result.exception, Ran), result.output
    assert result.exception.args == (SimConfig(seed=3),)


def test_simulate_reads_no_environment_setting(runner, tmp_path):
    """The replication count is the run's own (its --config file's 3), whatever
    DBEXP_SIMULATE_REPLICATIONS says: no option is read from the environment."""
    cfg_path = _write(tmp_path / "config.json", json.dumps({"replications": 3}))
    out = tmp_path / "sim"
    result = runner.invoke(
        main,
        ["simulate", "--config", cfg_path, "--n-units", "60", "--n-clusters", "12", "--m1", "5",
         "--spec-sets", "1", "--estimators", "two_r", "--out-dir", str(out)],
        env={"DBEXP_SIMULATE_REPLICATIONS": "2"},
    )
    assert result.exit_code == 0, result.output
    assert len((out / "replications.csv").read_text().splitlines()) - 1 == 3


def test_bounds_compare_cluster_vs_universal(runner, tmp_path):
    rows = ["outcome,treatment,cluster_id"]
    z_by_cluster = {1: 1, 2: 1, 3: 0, 4: 0}
    for unit, cid in enumerate([1, 1, 2, 3, 4]):
        rows.append(f"{unit / 10},{z_by_cluster[cid]},{cid}")
    data = _write(tmp_path / "cluster.csv", "\n".join(rows) + "\n")
    out = tmp_path / "bounds"
    result = runner.invoke(
        main,
        ["bounds-compare", "--design", "cluster:m1=2", "--data", data,
         "--methods", "as,cluster", "--out-dir", str(out)],
    )
    assert result.exit_code == 0, result.output
    header, row = open(out / "bounds_compare.csv").read().splitlines()
    assert header == "bound_a,bound_b,psd_verdict,sharpnull_verdict,min_eig,max_eig,eig_sum"
    fields = row.split(",")
    assert fields[:2] == ["as", "cluster"]
    assert fields[2] == "b_tighter"  # the cluster bound is the tighter one


def test_bounds_compare_iterative_and_self(runner, tmp_path):
    out = tmp_path / "b1"
    result = runner.invoke(
        main,
        ["bounds-compare", "--design", "complete:n1=3,n=6",
         "--methods", "as,iterative", "--out-dir", str(out)],
    )
    assert result.exit_code == 0, result.output
    rows = open(out / "bounds_compare.csv").read().splitlines()[1:]
    verdicts = {r.split(",")[2] for r in rows}
    assert verdicts <= {"a_tighter", "b_tighter", "tie", "incomparable"}
    trace = (out / "iterative_trace.txt").read_text().split()  # written without a flag
    iterations = json.loads((out / "manifest.json").read_text())["params"]["bounds"][
        "iterative"]["iterations"]
    assert len(trace) == iterations + 1  # one smallest eigenvalue per PSD check

    out2 = tmp_path / "b2"
    result = runner.invoke(
        main,
        ["bounds-compare", "--design", "complete:n1=2,n=4", "--methods", "as",
         "--out-dir", str(out2)],
    )
    assert result.exit_code == 0
    row = open(out2 / "bounds_compare.csv").read().splitlines()[1]
    assert row.split(",")[2] == "tie"
    assert not (out2 / "iterative_trace.txt").exists()  # no iterative bound built


def test_bounds_compare_manifest_records_each_bound(runner, tmp_path):
    manifests = []
    for run in ("first", "second"):
        out = tmp_path / run
        result = runner.invoke(
            main,
            ["bounds-compare", "--design", "complete:n=4,n1=2", "--methods", "as,iterative",
             "--out-dir", str(out)],
        )
        assert result.exit_code == 0, result.output
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    iterations = build_bound("iterative", make_complete(4, 2)).iterations
    assert iterations > 0
    assert json.loads(manifests[0])["params"]["bounds"] == {
        "as": {"iterations": 0, "identified": True, "certificate": "closed_form",
               "mask_components": 4},
        "iterative": {"iterations": iterations, "identified": True, "certificate": "blocks",
                      "mask_components": 4},
    }


def test_bounds_compare_nonconvergence_exits_4(runner, tmp_path):
    rows = ["outcome,treatment,cluster_id"]
    for unit, cid in enumerate([1, 1, 1, 2, 2, 3, 3, 4]):
        rows.append(f"{unit},{1 if cid in (1, 2) else 0},{cid}")
    data = _write(tmp_path / "cl.csv", "\n".join(rows) + "\n")
    out = tmp_path / "nc"
    result = runner.invoke(
        main,
        ["bounds-compare", "--design", "cluster:m1=2", "--data", data,
         "--methods", "iterative", "--max-iters", "1", "--out-dir", str(out)],
    )
    assert result.exit_code == 4
    assert (out / "convergence_trace.txt").exists()


def test_precision_test_degenerate(runner, tmp_path):
    data = _write(tmp_path / "p.csv", PRECISION_CSV)
    coef = _write(tmp_path / "b0.json", "[0, 0, 0, 0]\n")
    out = tmp_path / "prec0"
    result = runner.invoke(
        main,
        ["precision-test", "--data", data, "--design", "complete:n1=2",
         "--coefficient", coef, "--out-dir", str(out)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(open(out / "precision_test.json").read())
    assert report["degenerate"] is True
    assert report["p_value"] == 1.0
    assert "retrospective" in report["caveat"]


def test_precision_test_helpful_and_harmful(runner, tmp_path):
    data = _write(tmp_path / "p.csv", PRECISION_CSV)
    out = tmp_path / "prec_help"
    coef = _write(tmp_path / "bh.json", HELPFUL_B)
    result = runner.invoke(
        main,
        ["precision-test", "--data", data, "--design", "complete:n1=2",
         "--coefficient", coef, "--out-dir", str(out)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(open(out / "precision_test.json").read())
    assert report["statistic"] > report["threshold"]

    out2 = tmp_path / "prec_harm"
    coef2 = _write(tmp_path / "bb.json", HARMFUL_B)
    result = runner.invoke(
        main,
        ["precision-test", "--data", data, "--design", "complete:n1=2",
         "--coefficient", coef2, "--out-dir", str(out2)],
    )
    assert result.exit_code == 0, result.output
    report2 = json.loads(open(out2 / "precision_test.json").read())
    assert report2["statistic"] < report2["threshold"]


def test_precision_test_length_mismatch_exits_2(runner, tmp_path):
    data = _write(tmp_path / "p.csv", PRECISION_CSV)
    coef = _write(tmp_path / "short.json", "[1.0, 2.0]\n")
    result = runner.invoke(
        main,
        ["precision-test", "--data", data, "--design", "complete:n1=2",
         "--coefficient", coef, "--out-dir", str(tmp_path / "x")],
    )
    assert result.exit_code == 2


def test_bound_name_errors_exit_2_with_the_library_message(runner, tmp_path, monkeypatch):
    design = make_complete(4, 2)
    data = _write(tmp_path / "p.csv", PRECISION_CSV)
    coef = _write(tmp_path / "b0.json", "[0, 0, 0, 0]\n")
    result = runner.invoke(
        main,
        ["precision-test", "--data", data, "--design", "complete:n1=2", "--coefficient", coef,
         "--bound", "cluster", "--out-dir", str(tmp_path / "p")],
    )
    with pytest.raises(ValueError) as not_cluster:
        AteEstimator(design, estimator="ht", bound="cluster").fit(np.ones(4), [1, 1, 0, 0])
    assert result.exit_code == 2
    assert f"error: {not_cluster.value}" in result.output

    # every name is checked before any bound is built or certified
    work = []
    for target, original in [
        ("dbexp.bounds.design_matrix", dbexp.bounds.design_matrix),
        ("numpy.linalg.eigvalsh", np.linalg.eigvalsh),
    ]:
        def counted(*args, _target=target, _original=original, **kwargs):
            work.append(_target)
            return _original(*args, **kwargs)

        monkeypatch.setattr(target, counted)
    result = runner.invoke(
        main,
        ["bounds-compare", "--design", "complete:n1=2,n=4", "--methods", "as,bogus",
         "--out-dir", str(tmp_path / "b")],
    )
    assert work == []
    with pytest.raises(ValueError) as unknown:
        build_bound("bogus", design)
    assert result.exit_code == 2
    assert f"error: {unknown.value}" in result.output


def test_estimate_rerun_byte_identical(runner, tmp_path):
    data = _write(tmp_path / "toy.csv", TOY_TWO_UNIT)
    args = ["estimate", "--data", data, "--design", "complete:n1=1",
            "--estimator", "ht", "--bound", "as"]
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        result = runner.invoke(main, args + ["--out-dir", str(out)])
        assert result.exit_code == 0
        outs.append(open(out / "estimates.csv", "rb").read())
    assert outs[0] == outs[1]


def test_estimate_writes_stage_timings_beside_byte_identical_reports(runner, tmp_path):
    data = _write(tmp_path / "precision.csv", PRECISION_CSV)
    args = ["estimate", "--data", data, "--design", "complete:n1=2", "--estimator", "ht",
            "--estimator", "two_r", "--bound", "as", "--out-dir"]
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        result = runner.invoke(main, args + [str(out)])
        assert result.exit_code == 0, result.output
    timings = json.loads(open(runs[0] / "timings.json").read())
    assert set(timings) == {"load", "design", "fit/ht", "fit/two_r", "report"}
    assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
    assert "timings" not in json.loads(open(runs[0] / "manifest.json").read())["params"]
    for name in ("estimates.csv", "manifest.json"):
        assert open(runs[0] / name, "rb").read() == open(runs[1] / name, "rb").read()


@pytest.mark.parametrize("args, report, stages", [
    (["bounds-compare", "--design", "complete:n=4,n1=2", "--methods", "as,iterative"],
     "bounds_compare.csv", {"load", "design", "bound/as", "bound/iterative", "compare", "report"}),
    (["precision-test", "--data", "{data}", "--design", "complete:n1=2", "--coefficient", "{coef}"],
     "precision_test.json", {"load", "design", "layout", "bound", "test", "report"}),
])
def test_bounds_and_precision_write_stage_timings_beside_byte_identical_reports(
        runner, tmp_path, args, report, stages):
    paths = {"data": _write(tmp_path / "precision.csv", PRECISION_CSV),
             "coef": _write(tmp_path / "b.json", HELPFUL_B)}
    args = [arg.format(**paths) for arg in args]
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        result = runner.invoke(main, args + ["--out-dir", str(out)])
        assert result.exit_code == 0, result.output
    timings = json.loads(open(runs[0] / "timings.json").read())
    assert set(timings) == stages
    assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
    for name in (report, "manifest.json"):
        assert open(runs[0] / name, "rb").read() == open(runs[1] / name, "rb").read()


def test_custom_design_descriptor(runner, tmp_path):
    support = {
        "n": 2,
        "assignments": [[1, 0], [0, 1]],
        "probabilities": [0.5, 0.5],
    }
    spec_path = _write(tmp_path / "support.json", json.dumps(support))
    data = _write(tmp_path / "toy.csv", TOY_TWO_UNIT)
    result = runner.invoke(
        main,
        ["estimate", "--data", data, "--design", f"custom:file={spec_path}",
         "--estimator", "ht", "--out-dir", str(tmp_path / "out")],
    )
    assert result.exit_code == 0, result.output
    row = open(tmp_path / "out" / "estimates.csv").read().splitlines()[1]
    assert float(row.split(",")[2]) == pytest.approx(-1.0)


def test_custom_design_with_a_non_0_1_assignment_exits_2(runner, tmp_path):
    support = {"n": 2, "assignments": [[0.5, 1], [1, 0], [0, 1]],
               "probabilities": [0.25, 0.25, 0.5]}
    spec_path = _write(tmp_path / "support.json", json.dumps(support))
    data = _write(tmp_path / "toy.csv", TOY_TWO_UNIT)
    result = runner.invoke(
        main,
        ["estimate", "--data", data, "--design", f"custom:file={spec_path}",
         "--estimator", "ht", "--out-dir", str(tmp_path / "out")],
    )
    assert result.exit_code == 2, result.output
    assert "error: support assignments must be 0/1 vectors of length n" in result.output


@pytest.mark.parametrize(
    "probs", ["0.3, 0.3, 0.3, 0.05, -0.05, 0.1", "0.3, 0.3, 0.3, 0.05, NaN, 0.05"],
    ids=["negative", "nan"],
)
def test_custom_design_with_a_negative_or_nan_probability_exits_2(runner, tmp_path, probs):
    # rows A = 110, B = 101, C = 011, E = 000, D = 100, ABC = 111; the negative
    # probabilities sum to one.  JSON text, because NaN is not standard JSON
    support = ('{"n": 3, "assignments": [[1, 1, 0], [1, 0, 1], [0, 1, 1], [0, 0, 0], '
               '[1, 0, 0], [1, 1, 1]], "probabilities": [' + probs + ']}')
    spec_path = _write(tmp_path / "support.json", support)
    data = _write(tmp_path / "toy.csv", "outcome,treatment\n1,1\n2,0\n3,1\n")
    result = runner.invoke(
        main,
        ["estimate", "--data", data, "--design", f"custom:file={spec_path}",
         "--estimator", "ht", "--out-dir", str(tmp_path / "out")],
    )
    assert result.exit_code == 2, result.output
    assert "error: support probabilities must be finite and nonnegative" in result.output


@pytest.mark.parametrize(
    "params, message",
    [({"pi1": 0.5}, "Bernoulli probabilities must form a vector"),
     ({"pi1": [[0.5, 0.5]]}, "Bernoulli probabilities must form a vector"),
     ({"pi1": [0.5, 0.5, 0.5]},
      "bernoulli design description has n = 2 but its parameters give 3 units")],
    ids=["scalar", "matrix", "three units"],
)
def test_custom_bernoulli_design_of_the_wrong_shape_exits_2(runner, tmp_path, params, message):
    spec_path = _write(tmp_path / "design.json",
                       json.dumps({"kind": "bernoulli", "n": 2, "params": params}))
    data = _write(tmp_path / "toy.csv", TOY_TWO_UNIT)
    result = runner.invoke(
        main,
        ["estimate", "--data", data, "--design", f"custom:file={spec_path}",
         "--estimator", "ht", "--out-dir", str(tmp_path / "out")],
    )
    assert result.exit_code == 2, result.output
    assert f"error: {message}" in result.output


def test_custom_monte_carlo_design_with_the_wrong_number_of_entries_exits_2(runner, tmp_path):
    description = {"kind": "monte_carlo", "n": 2, "params": {"draws": 10, "seed": 0},
                   "p": [0.5, 0.5]}
    spec_path = _write(tmp_path / "design.json", json.dumps(description))
    data = _write(tmp_path / "toy.csv", TOY_TWO_UNIT)
    result = runner.invoke(
        main,
        ["estimate", "--data", data, "--design", f"custom:file={spec_path}",
         "--estimator", "ht", "--out-dir", str(tmp_path / "out")],
    )
    assert result.exit_code == 2, result.output
    assert ("error: monte_carlo design description has n = 2, so 4n^2 = 16 joint entries, "
            "but its 'p' holds 2") in result.output


def test_bounds_compare_max_iters_below_one_exits_2(runner, tmp_path):
    result = runner.invoke(
        main,
        ["bounds-compare", "--design", "complete:n1=2,n=4", "--methods", "iterative",
         "--max-iters", "0", "--out-dir", str(tmp_path / "b")],
    )
    assert result.exit_code == 2
    assert "error: max_iters must be at least 1, got 0" in result.output


def test_bounds_compare_duplicate_methods_act_once(runner, tmp_path):
    reports = []
    for methods in ("as,as", "as"):
        out = tmp_path / methods.replace(",", "_")
        result = runner.invoke(
            main,
            ["bounds-compare", "--design", "complete:n1=2,n=4", "--methods", methods,
             "--out-dir", str(out)],
        )
        assert result.exit_code == 0, result.output
        reports.append(open(out / "bounds_compare.csv").read())
    assert reports[0] == reports[1]
    assert len(reports[0].splitlines()) == 2  # header plus the self-comparison


@pytest.mark.parametrize("methods", ["", ","])
def test_bounds_compare_empty_methods_exit_2_before_reading_data(runner, tmp_path, methods):
    result = runner.invoke(
        main,
        ["bounds-compare", "--design", "cluster:m1=2", "--data", str(tmp_path / "missing.csv"),
         "--methods", methods, "--out-dir", str(tmp_path / "b")],
    )
    assert result.exit_code == 2
    assert "error: --methods names no bound method; choose from as, iterative, cluster" in (
        result.output
    )
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
@pytest.mark.parametrize("command", ["estimate", "precision-test"])
def test_non_finite_csv_value_exits_2(runner, tmp_path, cell, command):
    data = _write(tmp_path / "p.csv", PRECISION_CSV.replace("-0.5", cell))
    coef = _write(tmp_path / "b.json", HELPFUL_B)
    args = ["--data", data, "--design", "complete:n1=2", "--out-dir", str(tmp_path / "o")]
    if command == "precision-test":
        args += ["--coefficient", coef]
    result = runner.invoke(main, [command, *args])
    assert result.exit_code == 2
    assert f"error: '{cell}' is not a finite number (row 3, column 'x')" in result.output


@pytest.mark.parametrize("z", ["-1", "0", "nan", "inf"])
def test_estimate_non_positive_or_non_finite_z_exits_2(runner, tmp_path, z):
    data = _write(tmp_path / "p.csv", PRECISION_CSV)
    result = runner.invoke(
        main,
        ["estimate", "--data", data, "--design", "complete:n1=2", "--z", z,
         "--out-dir", str(tmp_path / "o")],
    )
    assert result.exit_code == 2
    assert "error: z must be a positive finite normal quantile, got" in result.output


@pytest.mark.parametrize(
    "descriptor, payload, key",
    [
        ("complete:n=4", None, "n1"),
        ("bernoulli", None, "file"),
        ("custom", None, "file"),
        ("cluster", None, "m1"),
        ("custom:file={path}", {"n": 4, "probabilities": [1.0]}, "assignments"),
        ("custom:file={path}", {"kind": "complete", "n": 4}, "n1"),
    ],
)
def test_design_descriptor_without_a_required_key_exits_2(runner, tmp_path, descriptor, payload,
                                                          key):
    data = _write(tmp_path / "c.csv", "outcome,treatment,cluster_id\n1,1,1\n2,0,1\n3,1,2\n4,0,3\n")
    path = _write(tmp_path / "d.json", json.dumps(payload))
    result = runner.invoke(
        main,
        ["estimate", "--data", data, "--design", descriptor.format(path=path),
         "--out-dir", str(tmp_path / "o")],
    )
    assert result.exit_code == 2, result.output
    assert f"needs the key '{key}'" in result.output


def test_bounds_compare_max_iters_below_one_exits_2_before_reading_data(runner, tmp_path):
    result = runner.invoke(
        main,
        ["bounds-compare", "--design", "cluster:m1=2", "--data", str(tmp_path / "missing.csv"),
         "--max-iters", "0", "--out-dir", str(tmp_path / "b")],
    )
    assert result.exit_code == 2
    assert "error: max_iters must be at least 1, got 0" in result.output
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("simulate", {"bogus": 1}, "--config has an unknown key 'bogus'; choose from n_units"),
        ("simulate", [1, 2], "--config must hold a JSON object, not a list"),
        ("simulate", {"spec_sets": 3}, "spec_sets must be a list, not 3"),
        ("estimate", [[1, 0], [0, 1]],
         "custom design descriptor file must hold a JSON object, not a list"),
    ],
    ids=["unknown key", "array config", "scalar spec_sets", "array design file"],
)
def test_json_input_of_the_wrong_shape_exits_2(runner, tmp_path, command, payload, message):
    path = _write(tmp_path / "input.json", json.dumps(payload))
    if command == "simulate":
        args = ["simulate", "--config", path]
    else:
        args = ["estimate", "--data", _write(tmp_path / "toy.csv", TOY_TWO_UNIT),
                "--design", f"custom:file={path}"]
    result = runner.invoke(main, args + ["--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert f"error: {message}" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "csv_text, message",
    [
        ("", "empty file; a header row is required"),
        ("outcome,x\n1,2\n", "missing required column 'treatment'"),
        ("outcome,treatment\n1,1\n2,0,5\n", "expected 2 fields, found 3 (row 3)"),
        ("outcome,treatment\n1,2\n",
         "treatment must be 0 or 1, found '2' (row 2, column 'treatment')"),
        ("outcome,treatment,cluster_id\n1,1,a\n",
         "cluster id must be an integer, found 'a' (row 2, column 'cluster_id')"),
        ("outcome,treatment\n", "no data rows found"),
        ("outcome,treatment\n1,1\nabc,0\n",
         "could not parse 'abc' as a number (row 3, column 'outcome')"),
    ],
    ids=["empty", "missing column", "ragged row", "treatment 2", "cluster id", "no rows",
         "unparsable"],
)
def test_malformed_experiment_csv_exits_2(runner, tmp_path, csv_text, message):
    data = _write(tmp_path / "bad.csv", csv_text)
    result = runner.invoke(main, ["estimate", "--data", data, "--design", "complete:n1=1",
                                  "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert f"error: {message}" in result.output


# the flags that set the study, which --defaults fixes
_STUDY_FLAGS = [("--n-units", "60"), ("--n-clusters", "12"), ("--m1", "5"), ("--replications", "2"),
                ("--noise", "sd"), ("--spec-sets", "1"), ("--estimators", "two_r")]


@pytest.mark.parametrize(
    "args, message",
    [
        (["estimate", "--data", "{toy}", "--design", "complete:n1"],
         "malformed design descriptor item 'n1'"),
        (["bounds-compare", "--design", "complete:n1=1"],
         "complete design needs the data table or an explicit n"),
        (["estimate", "--data", "{toy}", "--design", "cluster:m1=1"],
         "cluster design needs a cluster_id column in the data CSV"),
        (["estimate", "--data", "{toy}", "--design", "stratified:n1=1"],
         "unknown design kind 'stratified'"),
        (["estimate", "--data", "{toy}", "--design", "complete:n1=1,foo=3"],
         "complete design descriptor has an unknown key 'foo'; choose from n1, n"),
        (["estimate", "--data", "{toy}", "--design", "complete:n1=1,n1=1"],
         "complete design descriptor gives the key 'n1' twice"),
        (["estimate", "--data", "{toy}", "--design", "cluster:m1=1,n=2"],
         "cluster design descriptor has an unknown key 'n'; choose from m1"),
        (["estimate", "--data", "{toy}", "--design", "bernoulli:file={empty},file={empty}"],
         "bernoulli design descriptor gives the key 'file' twice"),
        (["estimate", "--data", "{toy}", "--design", "bernoulli:file={empty}"],
         "empty.txt: empty vector file"),
        (["precision-test", "--data", "{toy}", "--design", "complete:n1=1",
          "--coefficient", "{per_line}"], "could not convert string to float: 'x'"),
        (["precision-test", "--data", "{toy}", "--design", "complete:n1=1",
          "--coefficient", "{nan_json}"], "b.json: non-finite entries at positions 1"),
        (["precision-test", "--data", "{toy}", "--design", "complete:n1=1",
          "--coefficient", "{inf_lines}"], "inf.txt: non-finite entries at positions 0, 2"),
        (["precision-test", "--data", "{toy}", "--design", "complete:n1=1",
          "--coefficient", "{nested_json}"],
         "nested.json: expected a flat vector, found an array of shape (4, 1)"),
        (["simulate", "--spec-sets", "1,x"], "invalid literal for int() with base 10: 'x'"),
        (["simulate", "--spec-sets", "1,5"], "unknown covariate sets: [5]"),
        (["simulate", "--estimators", "two_r,bogus"], "unknown estimators: ['bogus']"),
        (["simulate", "--defaults", "--config", "{config}"],
         "--defaults cannot be combined with --config"),
        (["simulate", "--defaults", "--config", "{empty_config}"],
         "--defaults cannot be combined with --config"),
        *((["simulate", "--defaults", option, value],
           f"--defaults cannot be combined with {option}") for option, value in _STUDY_FLAGS),
    ],
    ids=["malformed item", "complete without n", "cluster without ids", "unknown kind",
         "unknown key", "repeated key", "key of another kind", "repeated file",
         "empty vector", "per-line vector", "NaN vector", "inf vector", "nested vector",
         "spec-sets parse", "spec-sets value", "estimators value", "defaults and config",
         "defaults and empty config",
         *(f"defaults and {option}" for option, _ in _STUDY_FLAGS)],
)
def test_malformed_descriptor_vector_or_flags_exit_2(runner, tmp_path, args, message):
    files = {
        "toy": _write(tmp_path / "toy.csv", TOY_TWO_UNIT),
        "empty": _write(tmp_path / "empty.txt", "\n"),
        "per_line": _write(tmp_path / "b.txt", "0.5\nx\n"),
        "nan_json": _write(tmp_path / "b.json", "[0.0, NaN, 0.0, 1.84]"),
        "inf_lines": _write(tmp_path / "inf.txt", "inf\n0.0\n-inf\n1.84\n"),
        "nested_json": _write(tmp_path / "nested.json", "[[0.1], [0.2], [0.3], [0.4]]"),
        "config": _write(tmp_path / "config.json", json.dumps({"seed": 1})),
        "empty_config": _write(tmp_path / "empty.json", "{}"),
    }
    result = runner.invoke(main, [arg.format(**files) for arg in args]
                           + ["--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: ") and message in result.output, result.output


def test_a_vector_file_reads_as_a_json_array_or_one_value_per_line(runner, tmp_path):
    data = _write(tmp_path / "p.csv", PRECISION_CSV)
    reports = []
    for name, text in (("b.json", HELPFUL_B), ("b.txt", "0.0\n1.84\n\n0.0\n1.84\n")):
        out = tmp_path / f"out-{name}"
        coefficient = _write(tmp_path / name, text)
        result = runner.invoke(main, ["precision-test", "--data", data, "--design", "complete:n1=2",
                                      "--coefficient", coefficient, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        reports.append((out / "precision_test.json").read_text())
    assert reports[0] == reports[1]


def test_simulate_parses_spec_sets_and_estimators(runner, tmp_path):
    out = tmp_path / "sim"
    result = runner.invoke(
        main,
        ["simulate", "--n-units", "60", "--n-clusters", "12", "--m1", "5", "--replications", "4",
         "--spec-sets", "2, 1,", "--estimators", " two_r,wls_ols", "--out-dir", str(out)],
    )
    assert result.exit_code == 0, result.output
    params = json.loads((out / "manifest.json").read_text())["params"]
    assert params["flags"]["spec_sets"] == [2, 1]
    assert params["resolved"]["estimators"] == ["two_r", "wls_ols"]
