"""Command-line surface: estimate, simulate, bounds-compare, precision-test.

Exit codes are a stable contract: 0 success, 2 input error, 3 unidentified
design, 4 algorithmic non-convergence.  Every run writes a manifest.json
recording versions, resolved configuration, and seeds.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict, fields

import click

from ._linalg import components
from .api import AteEstimator, BOUND_CHOICES, POINT_ESTIMATORS
from .bounds import (
    BOUND_METHODS,
    BoundConvergenceError,
    _check_max_iters,
    build_bound,
    check_bound_method,
    compare_bounds,
    precision_test,
)
from .covariates import spec_common_slopes, spec_separate_slopes, zero_center
from .dataio import (
    CsvFormatError,
    load_numeric_vector,
    parse_design_descriptor,
    read_experiment_csv,
    write_csv,
    write_manifest,
)
from .design import DesignError, UnidentifiedDesignError, design_matrix
from .estimators import AssignmentRealization, ObservedOutcomes
from .simulation import ESTIMATOR_NAMES, SimConfig, calibration_r2, emit_report, run_simulation

EXIT_INPUT = 2
EXIT_UNIDENTIFIED = 3
EXIT_NONCONVERGENCE = 4


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _run_guarded(out_dir, body):
    try:
        return body()
    except UnidentifiedDesignError as exc:
        _fail(EXIT_UNIDENTIFIED, str(exc))
    except BoundConvergenceError as exc:
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, "convergence_trace.txt")
        with open(trace_path, "w") as fh:
            fh.write("\n".join(repr(v) for v in exc.trace) + "\n")
        _fail(EXIT_NONCONVERGENCE, f"{exc} (trace written to {trace_path})")
    except (CsvFormatError, DesignError, ValueError, OSError, json.JSONDecodeError) as exc:
        _fail(EXIT_INPUT, str(exc))


class _Stages(dict):
    """Stage wall seconds: ``lap(name)`` adds the time since the previous lap (or
    since the clock was made) to the stage ``name``."""

    def __init__(self):
        super().__init__()
        self._mark = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self[name] = self.get(name, 0.0) + now - self._mark
        self._mark = now


def _write_timings(out_dir, timings: dict) -> None:
    """Write a run's stage wall seconds (and any run facts such as ``workers``) to
    ``timings.json``, kept out of the manifest so that the report files stay
    byte-identical on rerun."""
    with open(os.path.join(out_dir, "timings.json"), "w") as fh:
        fh.write(json.dumps(timings) + "\n")


@click.group()
def main():
    """Design-based estimation and inference for randomized experiments."""


@main.command()
@click.option("--data", "data_path", required=True, type=click.Path(), help="experiment CSV")
@click.option("--design", "descriptor", required=True, help="design descriptor, e.g. complete:n1=20")
@click.option("--estimator", "estimator_names", multiple=True, default=("two_r",),
              type=click.Choice(POINT_ESTIMATORS), help="may be given multiple times")
@click.option("--spec", default="II", type=click.Choice(["I", "II"]), show_default=True)
@click.option("--bound", default="as", type=click.Choice(BOUND_CHOICES), show_default=True)
@click.option("--z", default=1.96, show_default=True, help="normal quantile for intervals")
@click.option("--out-dir", default="dbexp-out", show_default=True)
def estimate(data_path, descriptor, estimator_names, spec, bound, z, out_dir):
    """Estimate the average treatment effect from an experiment CSV."""

    def body():
        stages = _Stages()
        table = read_experiment_csv(data_path)
        stages.lap("load")
        design = parse_design_descriptor(descriptor, table)
        stages.lap("design")
        rows = []
        for name in estimator_names:
            model = AteEstimator(design, estimator=name, spec=spec, bound=bound, z=z)
            model.fit(
                table.outcome,
                table.treatment,
                covariates=table.covariates,
                cluster_ids=table.cluster_ids,
            )
            spec_name = "none" if model.spec_ is None else (
                f"cluster-{model.spec_.kind}" if model.spec_.level == "cluster" else model.spec_.kind
            )
            rows.append([
                name,
                spec_name,
                model.ate_,
                "" if model.variance_bound_ is None else model.variance_bound_,
                "" if model.ci_low_ is None else model.ci_low_,
                "" if model.ci_high_ is None else model.ci_high_,
                bound,
                model.truncated_,
            ])
            stages.lap(f"fit/{name}")  # a repeated estimator adds its fits' time
        os.makedirs(out_dir, exist_ok=True)
        report = os.path.join(out_dir, "estimates.csv")
        write_csv(
            report,
            ["estimator", "spec", "point", "variance_bound", "ci_low", "ci_high", "bound", "truncated"],
            rows,
        )
        write_manifest(out_dir, "estimate", {
            "data": str(data_path), "design": descriptor, "estimators": list(estimator_names),
            "spec": spec, "bound": bound, "z": z,
        })
        stages.lap("report")
        _write_timings(out_dir, stages)
        for row in rows:
            click.echo(f"{row[0]}: point={row[2]:.6g}" + (
                f" ci=[{row[4]:.6g}, {row[5]:.6g}]" if row[4] != "" else ""))
        click.echo(f"report: {report}")

    _run_guarded(out_dir, body)


def _sim_config(file_config, flags: dict) -> SimConfig:
    """The ``SimConfig`` of a ``--config`` JSON object, the flags given winning."""
    if not isinstance(file_config, dict):
        raise ValueError(f"--config must hold a JSON object, not a {type(file_config).__name__}")
    known = [f.name for f in fields(SimConfig)]
    resolved = {**file_config, **{key: value for key, value in flags.items() if value is not None}}
    for key, value in resolved.items():
        if key not in known:
            raise ValueError(f"--config has an unknown key {key!r}; choose from {', '.join(known)}")
        if key in ("spec_sets", "estimators"):
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{key} must be a list, not {value!r}")
            resolved[key] = tuple(value)
    return SimConfig(**resolved)


@main.command()
@click.option("--config", "config_path", type=click.Path(), help="JSON SimConfig (flags win)")
@click.option("--defaults", is_flag=True, help="the default study; only --seed, --out-dir join it")
@click.option("--n-units", type=int, default=None)
@click.option("--n-clusters", type=int, default=None)
@click.option("--m1", type=int, default=None)
@click.option("--replications", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--noise", type=click.Choice(["variance", "sd"]), default=None)
@click.option("--spec-sets", default=None, help="comma list from 1,2,3,4")
@click.option("--estimators", "estimator_csv", default=None,
              help=f"comma list from {','.join(ESTIMATOR_NAMES)}")
@click.option("--out-dir", default="dbexp-sim", show_default=True)
def simulate(config_path, defaults, n_units, n_clusters, m1, replications, seed, noise,
             spec_sets, estimator_csv, out_dir):
    """Run the cluster-randomized replication study and write its reports."""

    def body():
        study = {"--config": config_path, "--n-units": n_units, "--n-clusters": n_clusters,
                 "--m1": m1, "--replications": replications, "--noise": noise,
                 "--spec-sets": spec_sets, "--estimators": estimator_csv}
        given = [option for option, value in study.items() if defaults and value is not None]
        if given:
            raise ValueError(f"--defaults cannot be combined with {', '.join(given)}")
        file_config = {}
        if config_path:
            with open(config_path) as fh:
                file_config = json.load(fh)
        flags = {
            "n_units": n_units,
            "n_clusters": n_clusters,
            "m1": m1,
            "replications": replications,
            "seed": seed,
            "noise_interpretation": noise,
            "spec_sets": None if spec_sets is None else tuple(
                int(v) for v in spec_sets.split(",") if v.strip()
            ),
            "estimators": None if estimator_csv is None else tuple(
                v.strip() for v in estimator_csv.split(",") if v.strip()
            ),
        }
        config = _sim_config(file_config, flags)
        result = run_simulation(config)
        stages = _Stages()
        paths = emit_report(result, out_dir)
        write_manifest(out_dir, "simulate", {
            "config_file": file_config,
            "flags": {k: v for k, v in flags.items() if v is not None},
            "resolved": asdict(config),
            "calibration_r2": calibration_r2(result.population),
            "failures": int(result.failures.sum()),
            "rank_deficient": result.rank_deficient,
            "certified_solves": result.certified_solves,
        })
        stages.lap("report")
        _write_timings(out_dir, {**result.timings, **stages})
        for key, path in paths.items():
            click.echo(f"{key}: {path}")

    _run_guarded(out_dir, body)


@main.command(name="bounds-compare")
@click.option("--design", "descriptor", required=True)
@click.option("--data", "data_path", type=click.Path(), default=None,
              help="experiment CSV (required for cluster designs)")
@click.option("--methods", default="as,iterative", show_default=True,
              help="comma list from as,iterative,cluster")
@click.option("--max-iters", type=int, default=500, show_default=True)
@click.option("--out-dir", default="dbexp-bounds", show_default=True)
def bounds_compare(descriptor, data_path, methods, max_iters, out_dir):
    """Construct variance bounds for a design and compare their tightness (an
    iterative bound also writes its min-eigenvalue trace)."""

    def body():
        names = list(dict.fromkeys(v.strip() for v in methods.split(",") if v.strip()))
        if not names:
            raise ValueError(
                f"--methods names no bound method; choose from {', '.join(BOUND_METHODS)}"
            )
        for name in names:
            check_bound_method(name)
        _check_max_iters(max_iters)
        stages = _Stages()
        table = read_experiment_csv(data_path) if data_path else None
        stages.lap("load")
        design = parse_design_descriptor(descriptor, table)
        stages.lap("design")
        built = {}
        for name in names:
            built[name] = build_bound(name, design, max_iters=max_iters)
            stages.lap(f"bound/{name}")
        rows = []
        for a in names:
            for b in names:
                if a >= b and not (len(names) == 1 and a == b):
                    continue
                comparison = compare_bounds(built[a], built[b])
                rows.append([
                    a, b, comparison.verdict, comparison.sharp_null_verdict,
                    comparison.min_eig, comparison.max_eig, comparison.eig_sum,
                ])
        stages.lap("compare")
        os.makedirs(out_dir, exist_ok=True)
        report = os.path.join(out_dir, "bounds_compare.csv")
        write_csv(
            report,
            ["bound_a", "bound_b", "psd_verdict", "sharpnull_verdict", "min_eig", "max_eig", "eig_sum"],
            rows,
        )
        if "iterative" in built:
            trace_path = os.path.join(out_dir, "iterative_trace.txt")
            with open(trace_path, "w") as fh:
                fh.write("\n".join(repr(v) for v in built["iterative"].min_eig_trace) + "\n")
            click.echo(f"trace: {trace_path}")
        mask_components = int(components(design_matrix(design).mask).max()) + 1
        write_manifest(out_dir, "bounds-compare", {
            "design": descriptor, "data": data_path, "methods": names, "max_iters": max_iters,
            "bounds": {
                name: {
                    "iterations": bound.iterations,
                    "identified": bound.identified,
                    "certificate": bound.certificate,
                    "mask_components": mask_components,
                }
                for name, bound in built.items()
            },
        })
        stages.lap("report")
        _write_timings(out_dir, stages)
        click.echo(f"report: {report}")

    _run_guarded(out_dir, body)


@main.command(name="precision-test")
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--design", "descriptor", required=True)
@click.option("--coefficient", "coef_path", required=True, type=click.Path(),
              help="fixed coefficient vector (JSON array or one value per line)")
@click.option("--spec", default="II", type=click.Choice(["I", "II"]), show_default=True)
@click.option("--bound", default="as", type=click.Choice(BOUND_METHODS), show_default=True)
@click.option("--out-dir", default="dbexp-precision", show_default=True)
def precision_cmd(data_path, descriptor, coef_path, spec, bound, out_dir):
    """Test whether a pre-registered fixed adjustment improves precision."""

    def body():
        stages = _Stages()
        table = read_experiment_csv(data_path)
        stages.lap("load")
        design = parse_design_descriptor(descriptor, table)
        stages.lap("design")
        x = zero_center(table.covariates) if table.covariates.size else table.covariates
        layout = spec_common_slopes(x) if spec == "I" else spec_separate_slopes(x)
        b_f = load_numeric_vector(coef_path)
        if b_f.shape[0] != layout.n_columns:
            raise ValueError(
                f"coefficient has {b_f.shape[0]} entries but the layout has {layout.n_columns} columns"
            )
        stages.lap("layout")
        bound_matrix = build_bound(bound, design)
        stages.lap("bound")
        observed = ObservedOutcomes(table.outcome, AssignmentRealization(table.treatment))
        result = precision_test(design, observed, layout, b_f, bound_matrix)
        stages.lap("test")
        os.makedirs(out_dir, exist_ok=True)
        report = {
            **asdict(result),
            "caveat": (
                "retrospective diagnostic only: the coefficient must be fixed "
                "before outcomes are seen (pre-analysis plan), never chosen after the fact"
            ),
        }
        path = os.path.join(out_dir, "precision_test.json")
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        write_manifest(out_dir, "precision-test", {
            "data": str(data_path), "design": descriptor, "coefficient": str(coef_path),
            "spec": spec, "bound": bound,
        })
        stages.lap("report")
        _write_timings(out_dir, stages)
        if result.degenerate:
            click.echo("degenerate: zero coefficient, no adjustment tested")
        click.echo(
            f"statistic={result.statistic:.6g} threshold={result.threshold:.6g} "
            f"p={result.p_value:.4g}"
        )
        click.echo(f"report: {path}")

    _run_guarded(out_dir, body)


if __name__ == "__main__":
    main()
