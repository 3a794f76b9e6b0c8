"""Point estimation: inverse-probability estimators and regression adjustment.

Every coefficient estimator here induces a conjugate average-effect estimator
through the same identity: the inverse-probability point estimate minus the
covariate adjustment term.  Cluster-total layouts run through identical code
on the collapsed m-cluster system while keeping the individual count as the
divisor.

One table, ``_METHODS``, says which weights each coefficient method fits with
and which stages it runs: a least-squares fit, 3HT, or both, which is 2R.
:func:`batch_points` runs it over a stack of assignments in blocks, for several
methods and layouts at once, re-solving a failed fit one realization at a
time.  :func:`coef_by_name` and the ``coef_*`` functions run the same code on
a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._group import quadratic
from ._linalg import normal_system, pinv_solve
from .covariates import CovariateSpec
from .design import (
    AssignmentRealization,
    Design,
    DesignMatrix,
    StackedOutcomes,
    _cluster_index,
    _zero_one,
    cluster_level_design,
    design_matrix,
)

COEFFICIENT_METHODS = (
    "fixed",
    "ols",
    "wls_pi",
    "three_ht",
    "two_r",
    "tyranny",
    "ols_cluster_totals",
)


@dataclass(frozen=True)
class ObservedOutcomes:
    """Realized data: one observed outcome per unit plus the assignment."""

    outcomes: np.ndarray
    realization: AssignmentRealization

    def __post_init__(self):
        y = np.asarray(self.outcomes, dtype=float)
        if y.ndim != 1 or y.shape[0] != self.realization.n:
            raise ValueError("need one observed outcome per unit")
        if not np.isfinite(y).all():
            bad = np.flatnonzero(~np.isfinite(y))
            raise ValueError(
                "missing observed outcome for units: " + ", ".join(str(int(i)) for i in bad)
            )
        y = y.copy()
        y.flags.writeable = False
        object.__setattr__(self, "outcomes", y)

    @classmethod
    def from_schedule(
        cls, outcomes: StackedOutcomes, realization: AssignmentRealization
    ) -> "ObservedOutcomes":
        """Reveal one arm of a full schedule (simulation / oracle use)."""
        z = realization.assignment
        y = np.where(z == 1, outcomes.treated, outcomes.control)
        return cls(y, realization)

    @property
    def n(self) -> int:
        return self.realization.n

    def indicator(self) -> np.ndarray:
        return self.realization.indicator_diagonal()

    def stacked(self) -> np.ndarray:
        """Length-2n observed stacked vector: -y at realized control slots,
        +y at realized treatment slots, zeros elsewhere."""
        return _signed_stack(self.realization.assignment == 1, self.outcomes)


@dataclass(frozen=True)
class CoefficientEstimate:
    values: np.ndarray
    method: str
    rank_deficient: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if self.method not in COEFFICIENT_METHODS:
            raise ValueError(f"unknown coefficient method {self.method!r}")


@dataclass(frozen=True)
class AteEstimate:
    point: float
    coefficient: CoefficientEstimate | None
    residuals: np.ndarray  # stacked, zeros at unobserved slots
    observed_mask: np.ndarray
    divisor: int


def coef_fixed(values, spec: CovariateSpec | None = None) -> CoefficientEstimate:
    values = np.asarray(values, dtype=float)
    if spec is not None and values.shape != (spec.n_columns,):
        raise ValueError("coefficient length must match the layout's column count")
    return CoefficientEstimate(values, "fixed")


# -- system resolution --------------------------------------------------------


def _collapse(treated: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Cluster-level (R, m) assignments of a unit-level (R, n) 0/1 stack."""
    picked = treated.take(np.unique(index, return_index=True)[1], axis=1)
    varying = index[(treated != picked.take(index, axis=1)).any(axis=0)]
    if varying.size:
        raise ValueError(f"assignment varies within cluster {varying.min()}: not a cluster design")
    return picked


def _system(observed: ObservedOutcomes, design: Design | None, spec: CovariateSpec | None):
    """Return (observed, design, divisor) at the level the layout expects."""
    if spec is not None and spec.level == "cluster":
        if observed.n != spec.rows_per_arm:  # not yet collapsed by the caller
            _, index = _cluster_index(spec.cluster_ids)
            if observed.n != index.shape[0]:
                raise ValueError("observed data does not match the layout's cluster ids")
            treated = _collapse(observed.realization.assignment[None], index)[0]
            totals = np.bincount(index, weights=observed.outcomes, minlength=spec.rows_per_arm)
            observed = ObservedOutcomes(totals, AssignmentRealization(treated))
            design = cluster_level_design(design)[0] if design is not None else None
        return observed, design, spec.divisor
    if design is not None and observed.n != design.n:
        raise ValueError("observed data and design sizes disagree")
    if spec is not None and observed.n != spec.rows_per_arm:
        raise ValueError("observed data and layout sizes disagree")
    return observed, design, spec.divisor if spec is not None and spec.divisor else observed.n


def stack_clusters(outcomes: StackedOutcomes, cluster_ids) -> StackedOutcomes:
    """Collapse a full schedule to cluster totals (oracle convenience)."""
    _, index = _cluster_index(cluster_ids)
    y0 = np.bincount(index, weights=outcomes.control)
    y1 = np.bincount(index, weights=outcomes.treated)
    return StackedOutcomes.from_arms(y0, y1)


# -- estimator arithmetic -----------------------------------------------------
# One implementation of each estimator on stacked-layout arrays: weights ``w``
# and weighted signed outcomes ``wy`` of shape (2r,) for one realization or
# (R, 2r) for R of them, giving one result per realization.  Products are
# taken row by row (``_rows``), so a result does not depend on the block it
# was computed in.


def _signed_stack(treated: np.ndarray, y: np.ndarray) -> np.ndarray:
    """-y at realized control slots, +y at realized treatment slots, else 0."""
    return np.concatenate([np.where(treated, 0.0, -y), np.where(treated, y, 0.0)], axis=-1)


def _rows(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``a @ m`` as one-row products, rounded alike whatever the number of rows."""
    return (a.reshape(-1, 1, a.shape[-1]) @ m).reshape(a.shape[:-1] + m.shape[-1:])


def _ht(wy: np.ndarray, divisor: int) -> np.ndarray:
    """Inverse-probability (Horvitz-Thompson) estimate(s)."""
    return _rows(wy, np.ones((wy.shape[-1], 1)))[..., 0] / divisor


def _adjustment(x: np.ndarray, w: np.ndarray, divisor: int) -> np.ndarray:
    """Zero-mean adjustment-term vector(s) ``(w - 1) @ X / divisor``."""
    return _rows(w - 1.0, x) / divisor


def _conjugate(ht: np.ndarray, adjustment: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Regression estimate(s): HT minus the adjustment term at coefficient(s) ``b``."""
    return ht - (adjustment * b).sum(axis=-1)


def _gram(left: np.ndarray, w: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left' diag(w) right``: linear in ``w``, so a stack of weights needs one
    product with the row-wise outer products and no (R, rows, l) temporary."""
    outer = (left[:, :, None] * right[:, None, :]).reshape(left.shape[0], -1)
    return _rows(w, outer).reshape(w.shape[:-1] + (left.shape[1], right.shape[1]))


def _wls(x: np.ndarray, w: np.ndarray, wy: np.ndarray):
    """Weighted least squares ``X'diag(w)X b = X'wy``: coefficient(s) and
    rank-deficiency flag(s).  With ``w >= 0`` the cutoff is relative,
    ``PINV_RCOND`` times each normal matrix's largest singular value."""
    return pinv_solve(_gram(x, w, x), _rows(wy, x))


def _three_ht(cache: "AdjustmentCache", wy: np.ndarray) -> np.ndarray:
    """Unbiased optimal-coefficient estimate(s)."""
    return _rows(_rows(wy, cache.xd.T), cache.xdx_pinv.T)


def _two_r(cache: "AdjustmentCache", w: np.ndarray, b3: np.ndarray, b_wls: np.ndarray):
    """Two-stage coefficient(s): 3HT minus its estimated drift at the WLS fit."""
    drift = _gram(cache.xd.T, w, cache.spec.matrix) - cache.xdx
    return b3 - _rows(_rows(b_wls, np.swapaxes(drift, -1, -2)), cache.xdx_pinv.T)


# -- the method table -----------------------------------------------------------

# method -> (weights of its least-squares fit on the observed rows, or None;
# whether it runs 3HT).  A method with both stages is 2R: 3HT corrected at the fit.
_METHODS = {
    "ols": ("indicator", False),
    "wls_pi": ("inverse", False),
    "three_ht": (None, True),
    "two_r": ("inverse", True),
    "tyranny": ("minority", False),
    "ols_cluster_totals": ("indicator", False),
}


def _check_method(method: str, spec: CovariateSpec) -> None:
    if method not in _METHODS:  # including "fixed", which is given, not estimated
        raise ValueError(f"{method!r} is not an estimated coefficient method")
    if method == "tyranny" and spec.kind != "I":
        raise ValueError("the minority-weighted estimator is defined for common-slopes layouts")
    if method == "ols_cluster_totals" and spec.level != "cluster":
        raise ValueError("cluster-totals estimation needs a cluster-level layout")


class _Realizations:
    """R realizations at the layouts' level: (R, 2r) observation indicators,
    signed outcomes and, given the marginals, inverse-probability weights
    ``w`` and weighted outcomes ``wy``."""

    def __init__(self, treated: np.ndarray, y: np.ndarray, marginals: np.ndarray | None):
        treated = treated == 1
        self.indicator = np.concatenate([~treated, treated], axis=1).astype(float)
        self.stacked = _signed_stack(treated, y)
        self.marginals = marginals
        if marginals is not None:
            self.w = self.indicator / marginals
            self.wy = self.stacked * self.w

    def fit_inputs(self, weights: str):
        """Fit weights 1, 1/pi or 1/pi - 1 on the observed rows, and the weighted outcomes."""
        if weights == "inverse":
            return self.w, self.wy
        w = self.indicator
        if weights == "minority":
            w = w * (1.0 / self.marginals - 1.0)
        return w, self.stacked * w


def _fit(x: np.ndarray, w: np.ndarray, wy: np.ndarray):
    """Stacked ``_wls`` fits with rank-deficiency and failure flags; a stack
    whose solve raises ``LinAlgError`` is re-solved one realization at a time,
    and one that fails alone gets NaN coefficients."""
    try:
        return (*_wls(x, w, wy), np.zeros(len(w), dtype=bool))
    except np.linalg.LinAlgError:
        if len(w) == 1:
            return np.full((1, x.shape[1]), np.nan), np.zeros(1, bool), np.ones(1, bool)
    fits = [_fit(x, w[i : i + 1], wy[i : i + 1]) for i in range(len(w))]
    return tuple(np.concatenate(parts) for parts in zip(*fits))


def _coefficients(methods, spec: CovariateSpec, cache, obs: _Realizations) -> dict:
    """``method -> (b, rank_deficient, failed)`` stacks on one layout.  Each
    fit weighting and 3HT runs once, and 2R reuses both; 3HT has no fit, so
    its flags are False."""
    kinds = dict.fromkeys(_METHODS[m][0] for m in methods if _METHODS[m][0])
    fits = {kind: _fit(spec.matrix, *obs.fit_inputs(kind)) for kind in kinds}
    b3 = _three_ht(cache, obs.wy) if any(_METHODS[m][1] for m in methods) else None
    unflagged = np.zeros(len(obs.stacked), dtype=bool)
    out = {}
    for method in methods:
        kind, runs_3ht = _METHODS[method]
        b, deficient, failed = fits[kind] if kind else (b3, unflagged, unflagged)
        out[method] = (_two_r(cache, obs.w, b3, b) if kind and runs_3ht else b, deficient, failed)
    return out


# -- point estimators ----------------------------------------------------------


def ht_ate(observed: ObservedOutcomes, design: Design) -> float:
    """Inverse-probability (Horvitz-Thompson) estimate of the average effect."""
    return greg(observed, design).point


def ht_cov_means(spec: CovariateSpec, realization: AssignmentRealization, design: Design):
    """Zero-mean adjustment-term vector: weighted minus full covariate sums."""
    dummy = ObservedOutcomes(np.zeros(realization.n), realization)
    dummy, design, divisor = _system(dummy, design, spec)
    return _adjustment(spec.matrix, dummy.indicator() / design.marginals, divisor)


def greg(observed: ObservedOutcomes, design: Design, spec: CovariateSpec | None = None,
         coefficient: CoefficientEstimate | None = None) -> AteEstimate:
    """Generalized regression estimate: point = HT - (adjustment term) @ b."""
    sys_obs, sys_design, divisor = _system(observed, design, spec)
    indicator = sys_obs.indicator()
    stacked = sys_obs.stacked()
    w = indicator / sys_design.marginals
    ht = _ht(stacked * w, divisor)
    if coefficient is None:
        return AteEstimate(float(ht), None, stacked, indicator.astype(bool), divisor)
    if spec is None:
        raise ValueError("a coefficient needs a covariate layout")
    b = coefficient.values
    if b.shape != (spec.n_columns,):
        raise ValueError("coefficient length must match the layout's column count")
    point = float(_conjugate(ht, _adjustment(spec.matrix, w, divisor), b))
    residuals = (stacked - spec.matrix @ b) * indicator
    return AteEstimate(point, coefficient, residuals, indicator.astype(bool), divisor)


def greg_forms(observed: ObservedOutcomes, design: Design, spec: CovariateSpec,
               coefficient: CoefficientEstimate) -> dict:
    """All three algebraic forms of the regression estimate, for cross-checks.

    ``weighted_residual_term`` is the inverse-probability mean of observed
    residuals; it vanishes exactly in the estimator/design/layout combinations
    covered by the intercept-contrast identity.
    """
    sys_obs, sys_design, divisor = _system(observed, design, spec)
    stacked = sys_obs.stacked()
    w = sys_obs.indicator() / sys_design.marginals
    b = coefficient.values
    fitted = spec.matrix @ b
    ht = _ht(stacked * w, divisor)
    weighted_residual_term = float(((stacked - fitted) * w).sum() / divisor)
    mean_fit_term = float(fitted.sum() / divisor)
    return {
        "form_a": float((stacked * w - fitted * w + fitted).sum() / divisor),
        "form_b": float(_conjugate(ht, _adjustment(spec.matrix, w, divisor), b)),
        "form_c": weighted_residual_term + mean_fit_term,
        "weighted_residual_term": weighted_residual_term,
        "mean_fit_term": mean_fit_term,
    }


def fixed_coef_variance(outcomes: StackedOutcomes, spec: CovariateSpec, b, dmat: DesignMatrix):
    """Exact variance of the fixed-coefficient estimator: u' M u / divisor**2.

    Requires the full potential-outcome schedule, so this is an oracle or
    simulation tool, not an estimator.
    """
    b = np.asarray(b, dtype=float)
    if spec.level == "cluster" and outcomes.n != spec.rows_per_arm:
        outcomes = stack_clusters(outcomes, spec.cluster_ids)
    if dmat.n != spec.rows_per_arm:
        raise ValueError("design matrix level does not match the layout")
    divisor = spec.divisor or outcomes.n
    u = outcomes.values - spec.matrix @ b
    return quadratic(dmat.core, u) / divisor**2


# -- stacks of assignments -------------------------------------------------------

_BLOCK = 200  # realizations per stacked solve; larger blocks raise peak memory


@dataclass(frozen=True)
class BatchPoints:
    """Results of :func:`batch_points`, each of shape (R, methods, layouts).  ``rank_deficient``
    flags a method's least-squares fit (3HT has none); ``failed`` marks a fit that raised
    ``LinAlgError`` even when solved alone, whose point is NaN."""

    points: np.ndarray
    rank_deficient: np.ndarray
    failed: np.ndarray


def batch_points(design: Design, outcomes: StackedOutcomes, treated, specs, methods) -> BatchPoints:
    """Point estimates of coefficient methods over a stack of assignments.

    ``treated`` is an (R, n) 0/1 stack of unit-level assignments, revealed
    against the full schedule ``outcomes``; ``specs`` are layouts of one level
    (unit, or cluster with shared cluster ids); ``methods`` are names from
    :data:`COEFFICIENT_METHODS` other than ``fixed``.  Each point equals
    :func:`greg` at the method's ``coef_*`` coefficient for that assignment alone.
    """
    specs, methods = tuple(specs), tuple(methods)
    z = np.asarray(treated)
    if z.ndim != 2 or z.shape[1] != design.n or not _zero_one(z):
        raise ValueError(f"treated must be an (R, {design.n}) stack of 0/1 assignments")
    z = z.astype(bool, copy=False)
    if outcomes.n != design.n:
        raise ValueError("outcome schedule and design sizes disagree")
    if len({spec.level for spec in specs}) > 1:
        raise ValueError("the layouts of one call must share one level")
    for spec in specs:
        for method in methods:
            _check_method(method, spec)
    sys_design, index = design, None
    if specs and specs[0].level == "cluster":
        ids = specs[0].cluster_ids
        if any(not np.array_equal(spec.cluster_ids, ids) for spec in specs):
            raise ValueError("the cluster-level layouts of one call must share their cluster ids")
        _, index = _cluster_index(ids)
        sys_design = cluster_level_design(design)[0]
        outcomes = stack_clusters(outcomes, ids)
    if any(spec.rows_per_arm != sys_design.n for spec in specs):
        raise ValueError("layout and design sizes disagree")
    runs_3ht = any(_METHODS[m][1] for m in methods)
    caches = [AdjustmentCache.build(spec, design) if runs_3ht else None for spec in specs]
    divisors = [spec.divisor or design.n for spec in specs]

    shape = (z.shape[0], len(methods), len(specs))
    points, rank_deficient, failed = np.empty(shape), np.zeros(shape, bool), np.zeros(shape, bool)
    for start in range(0, z.shape[0], _BLOCK):
        rows = slice(start, start + _BLOCK)
        t = z[rows] if index is None else _collapse(z[rows], index)
        obs = _Realizations(t, np.where(t, outcomes.treated, outcomes.control), sys_design.marginals)
        ht = {divisor: _ht(obs.wy, divisor) for divisor in dict.fromkeys(divisors)}
        for s, (spec, cache, divisor) in enumerate(zip(specs, caches, divisors)):
            adjustment = _adjustment(spec.matrix, obs.w, divisor)
            fits = _coefficients(methods, spec, cache, obs)
            for m, method in enumerate(methods):
                b, rank_deficient[rows, m, s], failed[rows, m, s] = fits[method]
                points[rows, m, s] = _conjugate(ht[divisor], adjustment, b)
    return BatchPoints(points, rank_deficient, failed)


# -- coefficient estimators ----------------------------------------------------


@dataclass(frozen=True)
class AdjustmentCache:
    """Write-once (layout, core) normal system shared across replications.

    The core is the design's covariance structure for the optimal-coefficient
    estimators, or a bound matrix for the bound-targeting two-stage
    coefficient, which that bound keeps.  ``rank_deficient`` says whether
    ``X'(core)X`` was deficient at the anchored cutoff.
    """

    spec: CovariateSpec
    xdx: np.ndarray
    xdx_pinv: np.ndarray
    xd: np.ndarray
    rank_deficient: bool

    @classmethod
    def build(cls, spec: CovariateSpec, design: Design) -> "AdjustmentCache":
        sys_design = cluster_level_design(design)[0] if spec.level == "cluster" else design
        return cls.over(spec, design_matrix(sys_design).core)

    @classmethod
    def over(cls, spec: CovariateSpec, core) -> "AdjustmentCache":
        """The system over ``core``, a dense array or a kind-form operator."""
        xd, xdx, xdx_pinv, deficient = normal_system(spec.matrix, core)
        return cls(spec=spec, xdx=xdx, xdx_pinv=xdx_pinv, xd=xd, rank_deficient=deficient)


def coef_by_name(method: str, spec: CovariateSpec, observed: ObservedOutcomes,
                 design: Design | None = None, cache: AdjustmentCache | None = None):
    """The coefficient of ``method`` (any but ``fixed``) for one realization: the
    method table on a stack of one.  ``ols`` and ``ols_cluster_totals`` need no
    design; ``cache`` serves 3HT and 2R.  A fit that fails raises ``LinAlgError``."""
    _check_method(method, spec)
    kind, runs_3ht = _METHODS[method]
    if design is None and (runs_3ht or kind != "indicator"):
        raise ValueError(f"the {method} coefficient needs the design")
    if not runs_3ht:
        cache = None
    elif cache is None:
        cache = AdjustmentCache.build(spec, design)
    elif cache.spec is not spec and not np.array_equal(cache.spec.matrix, spec.matrix):
        raise ValueError("cache was built for a different layout")
    sys_obs, sys_design, _ = _system(observed, design, spec)
    marginals = None if sys_design is None else sys_design.marginals
    obs = _Realizations(sys_obs.realization.assignment[None], sys_obs.outcomes[None], marginals)
    b, deficient, failed = _coefficients((method,), spec, cache, obs)[method]
    if failed[0]:
        raise np.linalg.LinAlgError(f"the least-squares fit of the {method} coefficient failed")
    if method == "ols" and spec.level == "cluster":
        method = "ols_cluster_totals"
    return CoefficientEstimate(b[0], method, rank_deficient=bool(deficient[0]))


def coef_ols(spec: CovariateSpec, observed: ObservedOutcomes) -> CoefficientEstimate:
    """Least squares on the observed rows of the signed layout."""
    return coef_by_name("ols", spec, observed)


def coef_wls_pi(spec: CovariateSpec, observed: ObservedOutcomes, design: Design):
    """Weighted least squares with reciprocal assignment-probability weights."""
    return coef_by_name("wls_pi", spec, observed, design)


def coef_3ht(spec: CovariateSpec, observed: ObservedOutcomes, design: Design,
             cache: AdjustmentCache | None = None) -> CoefficientEstimate:
    """Unbiased optimal-coefficient estimator built from weighted indicators.

    Its mean over the design equals the variance-minimizing coefficient, but
    it inherits inverse-probability imprecision; prefer the two-stage
    estimator for point estimation.
    """
    return coef_by_name("three_ht", spec, observed, design, cache)


def coef_2r(spec: CovariateSpec, observed: ObservedOutcomes, design: Design,
            cache: AdjustmentCache | None = None) -> CoefficientEstimate:
    """Two-stage optimal coefficient: regression-adjust the unbiased estimator.

    The first stage is reciprocal-probability weighted least squares; the
    second stage removes its estimated deviation using the same adjustment
    principle, which restores location/scale invariance of the conjugate
    point estimate.  ``rank_deficient`` is the first stage's flag.
    """
    return coef_by_name("two_r", spec, observed, design, cache)


def coef_tyranny(spec: CovariateSpec, observed: ObservedOutcomes, design: Design):
    """Minority-weighted common-slopes estimator.

    Weighted least squares with (1/pi - 1) weights on observed rows; in the
    population limit each arm's slope is weighted by the other arm's share,
    so the smaller arm dominates.
    """
    return coef_by_name("tyranny", spec, observed, design)


def coef_ols_cluster_totals(spec: CovariateSpec, observed: ObservedOutcomes):
    """Least squares on cluster totals (cluster-level layouts only)."""
    return coef_by_name("ols_cluster_totals", spec, observed)


def intercept_contrast(coefficient: CoefficientEstimate, spec: CovariateSpec) -> float:
    """Difference of treatment and control intercept coefficients."""
    if spec.intercept_cols is None:
        raise ValueError("layout has no identifiable per-arm intercept columns")
    ctrl, trt = spec.intercept_cols
    return float(coefficient.values[trt] - coefficient.values[ctrl])
