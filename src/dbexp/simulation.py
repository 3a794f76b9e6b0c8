"""Cluster-randomized simulation study: population, replications, metrics.

A single skewed-cluster-size population is generated once and held fixed; the
only randomness across replications is the cluster assignment.  The sharp
null holds by construction, so every estimator targets an effect of zero and
mean squared error decomposes into squared bias plus variance.

The study has no estimator code of its own: it draws every replication's
assignment and makes two :func:`dbexp.estimators.batch_points` calls, one for
the separate-slopes layouts of the covariate sets and one for their
cluster-total layouts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import estimators as _est
from .covariates import spec_cluster, spec_separate_slopes
from .design import Design, StackedOutcomes, make_cluster
from .estimators import batch_points

ESTIMATOR_NAMES = ("wls_ols", "three_ht", "two_r", "ols_cluster_totals")
BENCHMARK = "wls_ols"
COVARIATE_SET_IDS = (1, 2, 3, 4)

_POPULATION_STREAM = 0
_REPLICATION_STREAM = 1


@dataclass(frozen=True)
class SimConfig:
    n_units: int = 1000
    n_clusters: int = 100
    m1: int = 40
    replications: int = 5000
    seed: int = 0
    noise_interpretation: str = "variance"  # second parameter of N(0, 5)
    spec_sets: tuple[int, ...] = COVARIATE_SET_IDS
    estimators: tuple[str, ...] = ESTIMATOR_NAMES

    def __post_init__(self):
        if self.noise_interpretation not in ("variance", "sd"):
            raise ValueError("noise_interpretation must be 'variance' or 'sd'")
        unknown = set(self.estimators) - set(ESTIMATOR_NAMES)
        if unknown:
            raise ValueError(f"unknown estimators: {sorted(unknown)}")
        bad_sets = set(self.spec_sets) - set(COVARIATE_SET_IDS)
        if bad_sets:
            raise ValueError(f"unknown covariate sets: {sorted(bad_sets)}")
        if self.replications < 1 or self.n_units < 2:
            raise ValueError("need at least one replication and two units")


@dataclass(frozen=True)
class Population:
    outcomes: StackedOutcomes
    covariate: np.ndarray  # unit-level x
    cluster_ids: np.ndarray  # 1-based ids, ascending with unit index
    cluster_index: np.ndarray  # 0-based position per unit
    cluster_sizes: np.ndarray  # per cluster
    m: int

    @property
    def n(self) -> int:
        return self.outcomes.n

    def size_table(self) -> dict[int, int]:
        """cluster size -> number of clusters of that size."""
        sizes, counts = np.unique(self.cluster_sizes, return_counts=True)
        return {int(s): int(c) for s, c in zip(sizes, counts)}


def assign_cluster_ids(n_units: int, n_clusters: int) -> np.ndarray:
    """Right-skewed cluster membership: trunc(1 + M * ((i - .5) / N)**1.2)."""
    i = np.arange(1, n_units + 1, dtype=float)
    return np.trunc(1.0 + n_clusters * ((i - 0.5) / n_units) ** 1.2).astype(np.int64)


def build_population(config: SimConfig) -> Population:
    """Generate the fixed finite population (sharp null holds exactly).

    The outcome equation nets the cluster intercept out of the covariate, so
    outcome variation comes from the unit-level covariate noise, a concave
    function of cluster size, and idiosyncratic noise.
    """
    cluster_ids = assign_cluster_ids(config.n_units, config.n_clusters)
    unique, counts = np.unique(cluster_ids, return_counts=True)
    index = np.searchsorted(unique, cluster_ids)
    m = unique.shape[0]
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(_POPULATION_STREAM,))
    )
    alpha = rng.standard_normal(m)[index]
    x = alpha + rng.standard_normal(config.n_units)
    noise_scale = math.sqrt(5.0) if config.noise_interpretation == "variance" else 5.0
    eps = noise_scale * rng.standard_normal(config.n_units)
    n_c = counts[index].astype(float)
    y0 = -alpha + x + n_c - 0.025 * n_c**2 + eps
    y1 = y0.copy()
    return Population(
        outcomes=StackedOutcomes.from_arms(y0, y1),
        covariate=x,
        cluster_ids=cluster_ids,
        cluster_index=index,
        cluster_sizes=counts.astype(np.int64),
        m=m,
    )


def covariate_set(population: Population, set_id: int) -> np.ndarray:
    """Covariate sets 1..4: x; +cluster mean; +cluster size; +size squared."""
    x = population.covariate
    idx = population.cluster_index
    sums = np.bincount(idx, weights=x, minlength=population.m)
    xbar = (sums / population.cluster_sizes)[idx]
    n_c = population.cluster_sizes[idx].astype(float)
    columns = {1: [x], 2: [x, xbar], 3: [x, xbar, n_c], 4: [x, xbar, n_c, n_c**2]}
    if set_id not in columns:
        raise ValueError(f"unknown covariate set {set_id}")
    return np.column_stack(columns[set_id])


def calibration_r2(population: Population) -> float:
    """R-squared of outcomes on the full covariate set (noise-scale diagnostic)."""
    y0 = population.outcomes.control
    x = np.column_stack([np.ones(population.n), covariate_set(population, 4)])
    beta, _ = _est._wls(x, np.ones(population.n), y0)
    resid = y0 - x @ beta
    return 1.0 - float(resid.var() / y0.var())


@dataclass(frozen=True)
class MetricsRow:
    estimator: str
    spec_set: int
    mse: float
    bias_sq: float
    se_sq: float
    pct_mse_reduction_vs_benchmark: float


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    population: Population
    design: Design
    estimates: np.ndarray  # (replications, estimators, spec_sets)
    failures: np.ndarray  # failure counts, same trailing shape
    # "estimator/set" -> replications whose least-squares fit was rank deficient
    rank_deficient: dict[str, int]
    metrics: tuple[MetricsRow, ...] = field(default=())


# the study's WLS benchmark is the library's reciprocal-probability weighted fit
_METHOD = {"wls_ols": "wls_pi"}


def _replication_rng(seed: int, replication: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(_REPLICATION_STREAM, replication))
    )


def _treated_clusters(seed: int, m: int, m1: int, replications) -> np.ndarray:
    """(R, m) treated-cluster flags, one row per replication index."""
    picked = np.zeros((len(replications), m), dtype=bool)
    for row, r in enumerate(replications):
        picked[row, _replication_rng(seed, r).permutation(m)[:m1]] = True
    return picked


def run_simulation(config: SimConfig, population: Population | None = None) -> SimResult:
    """Run the replication study; deterministic given the seed.

    A replication whose least-squares fit fails is counted in ``failures``
    against each estimator that needs the fit and left out of the metrics;
    any other error propagates.
    """
    if population is None:
        population = build_population(config)
    m1 = config.m1
    if not 1 <= m1 <= population.m - 1:
        raise ValueError("treated cluster count must leave both arms non-empty")
    design = make_cluster(population.cluster_ids, m1)
    picked = _treated_clusters(config.seed, population.m, m1, range(config.replications))
    treated = picked.take(population.cluster_index, axis=1)

    est_names = list(config.estimators)
    set_ids = list(config.spec_sets)
    shape = (config.replications, len(est_names), len(set_ids))
    estimates = np.full(shape, np.nan)
    failures = np.zeros(shape[1:], dtype=np.int64)
    deficient = np.zeros(shape[1:], dtype=np.int64)
    for cluster_level in (False, True):
        chosen = [e for e, name in enumerate(est_names)
                  if (name == "ols_cluster_totals") == cluster_level]
        if not chosen or not set_ids:
            continue
        with warnings.catch_warnings():
            # cluster means and sizes are deliberately left uncentered; the
            # point estimates are invariant to covariate centering
            warnings.simplefilter("ignore")
            x_sets = [covariate_set(population, set_id) for set_id in set_ids]
            specs = [spec_cluster(x, population.cluster_ids) if cluster_level
                     else spec_separate_slopes(x) for x in x_sets]
        methods = [_METHOD.get(est_names[e], est_names[e]) for e in chosen]
        batch = batch_points(design, population.outcomes, treated, specs, methods)
        estimates[:, chosen] = batch.points
        failures[chosen] = batch.failed.sum(axis=0)
        deficient[chosen] = batch.rank_deficient.sum(axis=0)
    rank_deficient = {  # the estimators with a least-squares fit per replication
        f"{name}/{set_id}": int(deficient[e_pos, s_pos])
        for s_pos, set_id in enumerate(set_ids)
        for e_pos, name in enumerate(est_names)
        if name != "three_ht"
    }

    metrics = _aggregate(config, population, estimates, est_names, set_ids)
    return SimResult(config, population, design, estimates, failures, rank_deficient, metrics)


def _aggregate(config, population, estimates, est_names, set_ids):
    delta = population.outcomes.ate
    rows = []
    mse_table = {}
    for e_pos, name in enumerate(est_names):
        for s_pos, set_id in enumerate(set_ids):
            vals = estimates[:, e_pos, s_pos]
            vals = vals[~np.isnan(vals)]
            err = vals - delta
            mse = float(np.mean(err**2))
            bias_sq = float(np.mean(err)) ** 2
            se_sq = float(np.mean((vals - vals.mean()) ** 2))
            mse_table[(name, set_id)] = mse
            rows.append((name, set_id, mse, bias_sq, se_sq))
    metrics = []
    for name, set_id, mse, bias_sq, se_sq in rows:
        bench = mse_table.get((BENCHMARK, set_id))
        pct = float("nan") if bench is None or bench == 0 else 100.0 * (1.0 - mse / bench)
        metrics.append(MetricsRow(name, set_id, mse, bias_sq, se_sq, pct))
    return tuple(metrics)


# -- reporting -----------------------------------------------------------------


def emit_report(result: SimResult, out_dir) -> dict[str, str]:
    """Write metrics.csv, replications.csv, and figure.svg under out_dir."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    metrics_path = os.path.join(out_dir, "metrics.csv")
    with open(metrics_path, "w", newline="") as fh:
        fh.write("estimator,spec_set,mse,bias_sq,se_sq,pct_mse_reduction_vs_benchmark\n")
        for row in result.metrics:
            fh.write(
                f"{row.estimator},{row.spec_set},{row.mse!r},{row.bias_sq!r},"
                f"{row.se_sq!r},{row.pct_mse_reduction_vs_benchmark!r}\n"
            )
    paths["metrics"] = metrics_path

    reps_path = os.path.join(out_dir, "replications.csv")
    est_names = list(result.config.estimators)
    set_ids = list(result.config.spec_sets)
    with open(reps_path, "w", newline="") as fh:
        fh.write("replication,estimator,spec_set,estimate\n")
        for r in range(result.estimates.shape[0]):
            for e_pos, name in enumerate(est_names):
                for s_pos, set_id in enumerate(set_ids):
                    fh.write(f"{r},{name},{set_id},{result.estimates[r, e_pos, s_pos]!r}\n")
    paths["replications"] = reps_path

    if result.metrics:
        fig_path = os.path.join(out_dir, "figure.svg")
        with open(fig_path, "w") as fh:
            fh.write(render_figure(result))
        paths["figure"] = fig_path
    return paths


_COLORS = ("#1b6ca8", "#c0392b", "#1e8449", "#7d3c98", "#b9770e")


def render_figure(result: SimResult) -> str:
    """Four-panel SVG line chart: MSE, SE^2 (top), Bias^2, %MSE reduction (bottom)."""
    est_names = list(result.config.estimators)
    set_ids = list(result.config.spec_sets)
    table = {(m.estimator, m.spec_set): m for m in result.metrics}

    def series(attr):
        return {
            name: [getattr(table[(name, s)], attr) for s in set_ids] for name in est_names
        }

    # clockwise from top left
    panels = [
        ("MSE", series("mse"), 0, 0),
        ("SE²", series("se_sq"), 1, 0),
        ("% MSE reduction vs benchmark", series("pct_mse_reduction_vs_benchmark"), 1, 1),
        ("Bias²", series("bias_sq"), 0, 1),
    ]
    width, height, pad = 430, 320, 52
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{2 * width}" height="{2 * height}" '
        f'font-family="sans-serif" font-size="12">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for title, data, col, row in panels:
        ox, oy = col * width, row * height
        x0, y0 = ox + pad, oy + height - pad
        x1, y1 = ox + width - pad // 2, oy + pad // 2 + 10
        values = [v for vs in data.values() for v in vs if not math.isnan(v)]
        lo = min(values + [0.0]) if values else 0.0
        hi = max(values + [0.0]) if values else 1.0
        if hi == lo:
            hi = lo + 1.0
        span = hi - lo

        def sx(i):
            if len(set_ids) == 1:
                return (x0 + x1) / 2
            return x0 + (x1 - x0) * i / (len(set_ids) - 1)

        def sy(v):
            return y0 - (y0 - y1) * (v - lo) / span

        parts.append(
            f'<text x="{ox + width / 2:.1f}" y="{oy + 18}" text-anchor="middle" '
            f'font-weight="bold">{title}</text>'
        )
        parts.append(
            f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>'
            f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>'
        )
        for i, set_id in enumerate(set_ids):
            parts.append(
                f'<text x="{sx(i):.1f}" y="{y0 + 16}" text-anchor="middle">set {set_id}</text>'
            )
        for frac in (0.0, 0.5, 1.0):
            v = lo + frac * span
            parts.append(
                f'<text x="{x0 - 6}" y="{sy(v) + 4:.1f}" text-anchor="end">{v:.3g}</text>'
            )
        parts.append(
            f'<text x="{ox + width / 2:.1f}" y="{y0 + 32}" text-anchor="middle">'
            "covariate set</text>"
        )
        for k, name in enumerate(est_names):
            pts = [
                f"{sx(i):.1f},{sy(v):.1f}"
                for i, v in enumerate(data[name])
                if not math.isnan(v)
            ]
            color = _COLORS[k % len(_COLORS)]
            if pts:
                parts.append(
                    f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" '
                    'stroke-width="1.8"/>'
                )
                for pt in pts:
                    cx, cy = pt.split(",")
                    parts.append(f'<circle cx="{cx}" cy="{cy}" r="2.6" fill="{color}"/>')
    for k, name in enumerate(est_names):
        color = _COLORS[k % len(_COLORS)]
        lx, ly = 20 + k * 180, 2 * height - 8
        parts.append(f'<rect x="{lx}" y="{ly - 10}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{lx + 17}" y="{ly}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
