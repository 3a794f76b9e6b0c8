"""Workload inputs and operations for the dbexp benchmark.

Every input is generated here from the workload seed; dbexp only receives the
generated arrays, samplers and supports.  Timed operations use the stable
public surface only: the ``make_*`` constructors, ``make_from_sampler``,
``draw``, ``AteEstimator`` and ``dbexp.cli.main``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile

import numpy as np

#: Reference values exist for input seeds 0 .. REFERENCE_SEEDS - 1; a workload
#: seed picks its input set as ``seed % REFERENCE_SEEDS``.
REFERENCE_SEEDS = 16

#: Relative tolerance of the fit outputs (ate_, variance_bound_, interval)
#: against the reference recorded at the seed commit.
FIT_RTOL = 1e-6

#: Tolerance of the two-stage = OLS identity on complete designs (test c06).
IDENTITY_ATOL = 1e-8

#: metrics.csv tolerance.  mse, bias_sq and se_sq are compared with
#: SIM_RTOL * (row mse); pct_mse_reduction_vs_benchmark with SIM_PCT_ATOL
#: percentage points.  Covariate set 4's cluster-total system has condition
#: number ~1.8e20: moving its pseudo-inverse cutoff moves those estimates by
#: ~1e-7, which shifts the row's mse by ~1e-7 relative and its bias_sq by up to
#: ~1e-4 relative to itself, hence the row-mse scale.  Perturbing every set-4
#: ols_cluster_totals estimate by up to 1e-6 passes; shifting them by 1e-5 fails.
SIM_RTOL = 1e-5
SIM_PCT_ATOL = 1e-3

#: Files of a simulate run that the README promises are byte-identical on rerun.
REPORT_FILES = ("metrics.csv", "replications.csv", "figure.svg", "manifest.json")

WORKLOADS = ("fit-analytic", "fit-dense", "simulate")


def input_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(input_seed(seed), spawn_key=(stream,)))


# -- inputs ------------------------------------------------------------------


def _outcomes(rng: np.random.Generator, x: np.ndarray, group_effect: np.ndarray):
    n = x.shape[0]
    y0 = 1.0 + x @ np.array([1.0, -0.5]) + group_effect + rng.standard_normal(n)
    y1 = y0 + 1.0 + 0.5 * x[:, 0]
    return y0, y1


def analytic_inputs(seed: int) -> dict:
    """n = 1000 units, two covariates, U(0.2, 0.8) propensities, 100 clusters of 10."""
    rng = _rng(seed, 1)
    n = 1000
    clusters = rng.permutation(np.repeat(np.arange(100), 10))
    x = rng.standard_normal((n, 2))
    y0, y1 = _outcomes(rng, x, 0.5 * rng.standard_normal(100)[clusters])
    return {
        "n": n,
        "x": x,
        "y0": y0,
        "y1": y1,
        "pi1": rng.uniform(0.2, 0.8, n),
        "cluster_ids": clusters,
        "draw_seeds": [int(s) for s in rng.integers(0, 2**31, size=3)],
    }


def balanced_support(rng: np.random.Generator, x: np.ndarray, n1: int, size: int) -> np.ndarray:
    """``size`` distinct complete-randomization assignments accepted for balance.

    An assignment is kept when the Mahalanobis distance between the arm means
    of the two columns of ``x`` falls in the lowest quarter of its
    chi-square(2) null law.
    """
    n = x.shape[0]
    n0 = n - n1
    centered = x - x.mean(axis=0)
    precision = np.linalg.inv(np.cov(centered, rowvar=False))
    threshold = -2.0 * math.log(0.75)
    scale = n1 * n0 / n
    # 6x the draws the acceptance rate needs on average, so one batch almost
    # always suffices and set-up time does not depend on the seed
    batch = 6 * size
    accepted: dict[bytes, np.ndarray] = {}
    while len(accepted) < size:
        treated = np.argpartition(rng.random((batch, n)), n1, axis=1)[:, :n1]
        z = np.zeros((batch, n), dtype=np.int8)
        np.put_along_axis(z, treated, 1, axis=1)
        diff = (z @ centered) / n1 - ((1 - z) @ centered) / n0
        distance = scale * np.einsum("ij,jk,ik->i", diff, precision, diff)
        for row in z[distance < threshold]:
            accepted.setdefault(row.tobytes(), row)
            if len(accepted) == size:
                break
    return np.array(sorted(accepted.values(), key=lambda r: r.tobytes()), dtype=np.int8)


def dense_inputs(seed: int) -> dict:
    """n = 300 units: 150 matched pairs and 2000 accepted rerandomizations."""
    rng = _rng(seed, 2)
    n = 300
    pairs = rng.permutation(n).reshape(n // 2, 2)
    pair_of = np.empty(n, dtype=np.int64)
    pair_of[pairs.ravel()] = np.repeat(np.arange(n // 2), 2)
    x = rng.standard_normal((n, 2))
    y0, y1 = _outcomes(rng, x, 0.5 * rng.standard_normal(n // 2)[pair_of])
    return {
        "n": n,
        "x": x,
        "y0": y0,
        "y1": y1,
        "pairs": pairs,
        "support": balanced_support(rng, x, n // 2, 2000),
        "mc_seeds": [int(s) for s in rng.integers(0, 2**31, size=2)],
        "draw_seeds": [int(s) for s in rng.integers(0, 2**31, size=3)],
    }


def pair_sampler(pairs: np.ndarray, n: int):
    """Sampler for ``make_from_sampler``: one coin flip per pair picks its treated member."""
    rows = np.arange(pairs.shape[0])

    def sample(rng: np.random.Generator) -> np.ndarray:
        z = np.zeros(n, dtype=np.int8)
        z[pairs[rows, rng.integers(0, 2, pairs.shape[0])]] = 1
        return z

    return sample


# -- operations ----------------------------------------------------------------


def _fit(dbexp, design, inputs, draw_seed, estimator, bound, spec="II", clusters=None):
    z = dbexp.draw(design, draw_seed).assignment
    outcome = np.where(z == 1, inputs["y1"], inputs["y0"])
    model = dbexp.AteEstimator(design, estimator=estimator, spec=spec, bound=bound)
    model.fit(outcome, z, covariates=inputs["x"], cluster_ids=clusters)
    return {
        "values": [model.ate_, model.variance_bound_, model.ci_low_, model.ci_high_],
        "z": z,
        "outcome": outcome,
    }


def analytic_ops(dbexp, inputs: dict) -> list:
    """Six (name, callable) fit operations on the three analytic design kinds."""
    n, pi1, clusters = inputs["n"], inputs["pi1"], inputs["cluster_ids"]
    s_complete, s_bernoulli, s_cluster = inputs["draw_seeds"]

    def complete(estimator, bound):
        design = dbexp.make_complete(n, n // 2)
        return _fit(dbexp, design, inputs, s_complete, estimator, bound)

    def bernoulli(estimator, bound):
        design = dbexp.make_bernoulli(pi1)
        return _fit(dbexp, design, inputs, s_bernoulli, estimator, bound)

    def cluster(estimator, bound):
        design = dbexp.make_cluster(clusters, 50)
        return _fit(dbexp, design, inputs, s_cluster, estimator, bound, clusters=clusters)

    return [
        ("complete/two_r/borrowed-as", lambda: complete("two_r", "borrowed-as")),
        ("complete/ht/as", lambda: complete("ht", "as")),
        ("bernoulli/two_r/borrowed-as", lambda: bernoulli("two_r", "borrowed-as")),
        ("bernoulli/ht/as", lambda: bernoulli("ht", "as")),
        ("cluster/two_r/borrowed-as", lambda: cluster("two_r", "borrowed-as")),
        ("cluster/ols_cluster_totals/cluster", lambda: cluster("ols_cluster_totals", "cluster")),
    ]


def dense_ops(dbexp, inputs: dict) -> list:
    """Three fit operations on designs without a closed form."""
    n = inputs["n"]
    sampler = pair_sampler(inputs["pairs"], n)
    support = inputs["support"]
    prob = 1.0 / support.shape[0]
    mc_two_r, mc_ht = inputs["mc_seeds"]
    s_two_r, s_ht, s_rerand = inputs["draw_seeds"]

    def paired(mc_seed, draw_seed, estimator, bound):
        design = dbexp.make_from_sampler(sampler, n, draws=5000, seed=mc_seed, mode="monte_carlo")
        return _fit(dbexp, design, inputs, draw_seed, estimator, bound)

    def rerandomized():
        design = dbexp.make_from_sampler(((z, prob) for z in support), n, mode="enumerate")
        return _fit(dbexp, design, inputs, s_rerand, "two_r", "borrowed-iterative")

    return [
        ("paired/two_r/borrowed-iterative",
         lambda: paired(mc_two_r, s_two_r, "two_r", "borrowed-iterative")),
        ("paired/ht/iterative", lambda: paired(mc_ht, s_ht, "ht", "iterative")),
        ("rerandomized/two_r/borrowed-iterative", rerandomized),
    ]


def simulate_ops(dbexp_cli, seed: int, scratch: str) -> list:
    """``dbexp simulate --defaults`` through ``dbexp.cli.main`` into a fresh directory."""
    args = ["simulate", "--defaults", "--seed", str(input_seed(seed)), "--out-dir"]

    def simulate() -> dict:
        out_dir = tempfile.mkdtemp(prefix="simulate-", dir=scratch)
        try:
            try:
                code = dbexp_cli.main.main(args=args + [out_dir], prog_name="dbexp",
                                           standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
            if code not in (0, None):
                raise RuntimeError(f"dbexp simulate exited with code {code}")
            return read_reports(out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    return [("simulate --defaults", simulate)]


def read_reports(out_dir: str) -> dict:
    digests = {}
    for name in REPORT_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    with open(os.path.join(out_dir, "metrics.csv")) as fh:
        lines = fh.read().splitlines()[1:]
    metrics = []
    for line in lines:
        estimator, spec_set, *numbers = line.split(",")
        metrics.append([estimator, int(spec_set)] + [float(v) for v in numbers])
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        failures = json.load(fh)["params"]["failures"]
    return {"metrics": metrics, "failures": failures, "digests": digests}


# -- correctness ---------------------------------------------------------------


def ols_point(x: np.ndarray, z: np.ndarray, outcome: np.ndarray) -> float:
    """Separate-slopes OLS point on centered covariates: the arm intercept contrast."""
    xc = x - x.mean(axis=0)
    intercepts = []
    for arm in (0, 1):
        rows = z == arm
        design = np.column_stack([np.ones(rows.sum()), xc[rows]])
        beta, *_ = np.linalg.lstsq(design, outcome[rows], rcond=None)
        intercepts.append(beta[0])
    return float(intercepts[1] - intercepts[0])


def check_fit(name: str, result: dict, reference: list, x: np.ndarray) -> list[str]:
    """Problems with one fit output; empty when it matches the reference."""
    problems = []
    for label, got, want in zip(("ate", "variance_bound", "ci_low", "ci_high"),
                                result["values"], reference):
        if got is None or not math.isfinite(got) or not math.isclose(
            got, want, rel_tol=FIT_RTOL, abs_tol=1e-12
        ):
            problems.append(f"{name}: {label} {got!r} != reference {want!r}")
    if name.startswith("complete/two_r"):
        gap = abs(result["values"][0] - ols_point(x, result["z"], result["outcome"]))
        if not gap <= IDENTITY_ATOL:
            problems.append(f"{name}: two_r point differs from OLS by {gap:g}")
    return problems


def check_simulate(result: dict, reference: dict, first_digests: dict | None) -> list[str]:
    problems = []
    if result["failures"] != 0:
        problems.append(f"simulate: {result['failures']} failed replications")
    if first_digests is not None and result["digests"] != first_digests:
        changed = sorted(k for k in first_digests if result["digests"].get(k) != first_digests[k])
        problems.append("simulate: rerun reports differ: " + ", ".join(changed))
    got_rows = {(r[0], r[1]): r[2:] for r in result["metrics"]}
    for row in reference["metrics"]:
        key = (row[0], row[1])
        want = row[2:]
        got = got_rows.get(key)
        if got is None:
            problems.append(f"simulate: metrics.csv lacks row {key}")
            continue
        scale = abs(want[0])
        for label, g, w in zip(("mse", "bias_sq", "se_sq"), got[:3], want[:3]):
            if not abs(g - w) <= SIM_RTOL * scale:
                problems.append(f"simulate {key}: {label} {g!r} != reference {w!r}")
        if not abs(got[3] - want[3]) <= SIM_PCT_ATOL:
            problems.append(f"simulate {key}: pct {got[3]!r} != reference {want[3]!r}")
    if len(got_rows) != len(reference["metrics"]):
        problems.append("simulate: metrics.csv row count differs from the reference")
    return problems
