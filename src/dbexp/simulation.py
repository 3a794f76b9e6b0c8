"""Cluster-randomized simulation study: population, replications, metrics.

A single skewed-cluster-size population is generated once and held fixed; the
only randomness across replications is the cluster assignment.  The sharp
null holds by construction, so every estimator targets an effect of zero and
mean squared error decomposes into squared bias plus variance.

The study has no estimator code of its own: it draws every replication's
treated clusters and passes that (replications, clusters) stack to two
:func:`dbexp.estimators.batch_points` calls, one for the separate-slopes
layouts of the covariate sets and one for their cluster-total layouts.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import estimators as _est
from ._group import Groups
from .covariates import spec_cluster, spec_separate_slopes
from .design import Design, StackedOutcomes, _cluster_groups, make_cluster
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
        for name in ("n_units", "n_clusters", "m1", "replications", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
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
    clusters = _cluster_groups(cluster_ids)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(_POPULATION_STREAM,))
    )
    alpha = rng.standard_normal(clusters.m)[clusters.index]
    x = alpha + rng.standard_normal(config.n_units)
    noise_scale = math.sqrt(5.0) if config.noise_interpretation == "variance" else 5.0
    eps = noise_scale * rng.standard_normal(config.n_units)
    n_c = clusters.sizes[clusters.index].astype(float)
    y0 = -alpha + x + n_c - 0.025 * n_c**2 + eps
    y1 = y0.copy()
    return Population(
        outcomes=StackedOutcomes.from_arms(y0, y1),
        covariate=x,
        cluster_ids=cluster_ids,
        cluster_index=clusters.index,
        cluster_sizes=clusters.sizes,
        m=clusters.m,
    )


def covariate_set(population: Population, set_id: int) -> np.ndarray:
    """Covariate sets 1..4: x; +cluster mean; +cluster size; +size squared."""
    x = population.covariate
    idx = population.cluster_index
    xbar = (Groups(idx).totals(x) / population.cluster_sizes)[idx]
    n_c = population.cluster_sizes[idx].astype(float)
    columns = {1: [x], 2: [x, xbar], 3: [x, xbar, n_c], 4: [x, xbar, n_c, n_c**2]}
    if set_id not in columns:
        raise ValueError(f"unknown covariate set {set_id}")
    return np.column_stack(columns[set_id])


def calibration_r2(population: Population) -> float:
    """R-squared of outcomes on the full covariate set (noise-scale diagnostic)."""
    y0 = population.outcomes.control
    x = np.column_stack([np.ones(population.n), covariate_set(population, 4)])
    beta = _est._ols(x, y0)[0]
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
    # "estimator/set" -> replications whose least-squares fit was rank deficient,
    # and those whose fit was solved by its certified inverse instead of an SVD
    rank_deficient: dict[str, int]
    certified_solves: dict[str, int]
    metrics: tuple[MetricsRow, ...] = field(default=())
    # stage -> wall seconds, and ``workers``, the most threads a batch_points call
    # ran on; they vary between runs and machines, so they are kept out of the reports
    timings: dict[str, float] = field(default_factory=dict, compare=False)


_STAGES = ("population", "draws", "unit_batch_points", "cluster_batch_points")

# the study's WLS benchmark is the library's reciprocal-probability weighted fit
_METHOD = {"wls_ols": "wls_pi"}


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64 seeding
# (numpy/random/src/pcg64) constants, which _replication_states reproduces
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1

#: Replications whose states _treated_clusters holds at once, as Python ints:
#: all 5000 of the study's at once grew a pass's peak RSS by about 2 MB.
_SEEDED_AT_ONCE = 200


def _replication_states(prefix: np.random.SeedSequence,
                        replications: np.ndarray) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng(SeedSequence(seed, spawn_key=(1, r)))``
    for each uint32 replication index ``r``, all computed at once, given
    ``prefix = SeedSequence(seed, spawn_key=(1,))``.

    A SeedSequence hashes its entropy words into a pool of four uint32 words in
    order, so every replication's sequence holds the prefix's pool before it
    reaches its last word, ``r``.  Only ``r``'s four mixing steps and
    ``generate_state(4, uint64)`` run per replication, as uint32 array
    arithmetic that wraps as numpy's does; the hash constant of each step is
    the same for every replication.
    """
    seed_words = max(1, -(-prefix.entropy.bit_length() // 32))
    # hash steps before r: 4 to fill the pool and 12 to cross-mix it, then 4 per
    # entropy word beyond it (the seed, padded to the pool's size, and the stream)
    steps = 16 + _POOL_SIZE * (max(_POOL_SIZE, seed_words) + 1 - _POOL_SIZE)
    hash_a = _INIT_A * pow(_MULT_A, steps, 1 << 32) & _MASK32
    pool = []
    for word in prefix.pool.tolist():
        value = replications ^ hash_a
        hash_a = hash_a * _MULT_A & _MASK32
        value *= hash_a
        value ^= value >> 16
        mixed = (_MIX_MULT_L * word & _MASK32) - _MIX_MULT_R * value
        pool.append(mixed ^ (mixed >> 16))
    hash_b, state_words = _INIT_B, []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_b
        hash_b = hash_b * _MULT_B & _MASK32
        value *= hash_b
        state_words.append((value ^ (value >> 16)).astype(np.uint64))
    # little-endian pairs of uint32 words are the uint64 words (init hi, lo, seq hi, lo)
    init_hi, init_lo, seq_hi, seq_lo = (
        (state_words[2 * k] | state_words[2 * k + 1] << 32).tolist() for k in range(4)
    )
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(init_hi, init_lo, seq_hi, seq_lo):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        states.append(((((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _treated_clusters(seed: int, m: int, m1: int, replications) -> np.ndarray:
    """(R, m) treated-cluster flags, one row per replication index.

    Replication ``r`` treats the first ``m1`` of ``default_rng(SeedSequence(
    seed, spawn_key=(1, r))).permutation(m)``; one generator takes each
    replication's state in turn, so none is built per replication.
    """
    if len(replications) and not (min(replications) >= 0 and max(replications) < 1 << 32):
        raise ValueError("replication indices must lie in [0, 2**32)")
    prefix = np.random.SeedSequence(seed, spawn_key=(_REPLICATION_STREAM,))
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    picked = np.zeros((len(replications), m), dtype=bool)
    for start in range(0, len(replications), _SEEDED_AT_ONCE):
        chunk = np.array(replications[start:start + _SEEDED_AT_ONCE], dtype=np.uint32)
        treated = np.empty((len(chunk), m1), dtype=np.intp)
        for row, (state, inc) in enumerate(_replication_states(prefix, chunk)):
            bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
            treated[row] = generator.permutation(m)[:m1]
        np.put_along_axis(picked[start:start + len(chunk)], treated, True, axis=1)
    return picked


def run_simulation(config: SimConfig) -> SimResult:
    """Run the replication study; deterministic given the seed.

    A replication whose least-squares fit fails is counted in ``failures``
    against each estimator that needs the fit and left out of the metrics;
    any other error propagates.
    """
    marks = [time.perf_counter()]  # the end of each stage of _STAGES
    population = build_population(config)
    marks.append(time.perf_counter())
    m1 = config.m1
    if not 1 <= m1 <= population.m - 1:
        raise ValueError("treated cluster count must leave both arms non-empty")
    design = make_cluster(population.cluster_ids, m1)
    picked = _treated_clusters(config.seed, population.m, m1, range(config.replications))

    est_names = list(config.estimators)
    set_ids = list(config.spec_sets)
    shape = (config.replications, len(est_names), len(set_ids))
    estimates = np.full(shape, np.nan)
    failures = np.zeros(shape[1:], dtype=np.int64)
    deficient = np.zeros(shape[1:], dtype=np.int64)
    certified = np.zeros(shape[1:], dtype=np.int64)
    workers = 1
    for cluster_level in (False, True):
        marks.append(time.perf_counter())
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
        batch = batch_points(design, population.outcomes, picked, specs, methods)
        estimates[:, chosen] = batch.points
        failures[chosen] = batch.failed.sum(axis=0)
        deficient[chosen] = batch.rank_deficient.sum(axis=0)
        certified[chosen] = batch.certified.sum(axis=0)
        workers = max(workers, batch.workers)
    marks.append(time.perf_counter())
    rank_deficient, certified_solves = ({  # the estimators with a least-squares fit
        f"{name}/{set_id}": int(counts[e_pos, s_pos])
        for s_pos, set_id in enumerate(set_ids)
        for e_pos, name in enumerate(est_names)
        if name != "three_ht"
    } for counts in (deficient, certified))

    metrics = _aggregate(config, population, estimates, est_names, set_ids)
    timings = {**dict(zip(_STAGES, np.diff(marks).tolist())), "workers": workers}
    return SimResult(config, population, design, estimates, failures, rank_deficient,
                     certified_solves, metrics, timings)


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

#: Replications whose replications.csv lines are formatted at once: the study's
#: 80 000 lines formatted whole peaked at about 13 MB of Python objects.
_REPORT_CHUNK = 500


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
    labels = [f"{name},{set_id}" for name in result.config.estimators
              for set_id in result.config.spec_sets]
    # one replication's lines, "%s,wls_ols,1,%r\n%s,wls_ols,2,%r\n...", filled
    # from its number and estimates in turn
    lines = "".join(f"%s,{label},%r\n" for label in labels)
    flat = result.estimates.reshape(result.estimates.shape[0], -1)
    with open(reps_path, "w", newline="") as fh:
        fh.write("replication,estimator,spec_set,estimate\n")
        for start in range(0, len(flat), _REPORT_CHUNK):
            parts = []
            for r, row in enumerate(flat[start:start + _REPORT_CHUNK].tolist(), start):
                args = [r] * (2 * len(row))
                args[1::2] = row  # Python floats
                parts.append(lines % tuple(args))
            fh.write("".join(parts))
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
