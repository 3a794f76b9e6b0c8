"""Point estimation: inverse-probability estimators and regression adjustment.

Every coefficient estimator here induces a conjugate average-effect estimator
through the same identity: the inverse-probability point estimate minus the
covariate adjustment term.  Cluster-total layouts run through identical code
on the collapsed m-cluster system while keeping the individual count as the
divisor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import normal_system, pinv_solve
from .covariates import CovariateSpec
from .design import (
    AssignmentRealization,
    Design,
    DesignMatrix,
    StackedOutcomes,
    _cluster_index,
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


def _collapse_observed(observed: ObservedOutcomes, index: np.ndarray, m: int) -> ObservedOutcomes:
    treated = np.bincount(index, weights=observed.realization.assignment, minlength=m)
    varying = np.flatnonzero((treated > 0) & (treated < np.bincount(index, minlength=m)))
    if varying.size:
        raise ValueError(f"assignment varies within cluster {varying[0]}: not a cluster design")
    totals = np.bincount(index, weights=observed.outcomes, minlength=m)
    return ObservedOutcomes(totals, AssignmentRealization((treated > 0).astype(np.int8)))


def _system(
    observed: ObservedOutcomes,
    design: Design | None,
    spec: CovariateSpec | None,
    divisor: int | None,
):
    """Return (observed, design, divisor) at the level the layout expects."""
    if spec is not None and spec.level == "cluster":
        if observed.n != spec.rows_per_arm:  # not yet collapsed by the caller
            _, index = _cluster_index(spec.cluster_ids)
            if observed.n != index.shape[0]:
                raise ValueError("observed data does not match the layout's cluster ids")
            observed = _collapse_observed(observed, index, spec.rows_per_arm)
            design = cluster_level_design(design)[0] if design is not None else None
        return observed, design, divisor or spec.divisor
    if design is not None and observed.n != design.n:
        raise ValueError("observed data and design sizes disagree")
    if spec is not None and observed.n != spec.rows_per_arm:
        raise ValueError("observed data and layout sizes disagree")
    if divisor is None:
        divisor = spec.divisor if (spec is not None and spec.divisor) else observed.n
    return observed, design, divisor


def stack_clusters(outcomes: StackedOutcomes, cluster_ids) -> StackedOutcomes:
    """Collapse a full schedule to cluster totals (oracle convenience)."""
    _, index = _cluster_index(cluster_ids)
    y0 = np.bincount(index, weights=outcomes.control)
    y1 = np.bincount(index, weights=outcomes.treated)
    return StackedOutcomes.from_arms(y0, y1)


# -- estimator arithmetic -----------------------------------------------------
# One implementation of each estimator on stacked-layout arrays: weights ``w``
# and weighted signed outcomes ``wy`` of shape (2r,) for one realization or
# (R, 2r) for R of them, giving one result per realization.  The public
# functions below call them for one realization and the simulation for blocks
# of replications.  Products are taken row by row (``_rows``), so a result does
# not depend on the block it was computed in.


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


# -- point estimators ----------------------------------------------------------


def ht_ate(observed: ObservedOutcomes, design: Design, divisor: int | None = None) -> float:
    """Inverse-probability (Horvitz-Thompson) estimate of the average effect."""
    return greg(observed, design, divisor=divisor).point


def ht_cov_means(
    spec: CovariateSpec,
    realization: AssignmentRealization,
    design: Design,
    divisor: int | None = None,
) -> np.ndarray:
    """Zero-mean adjustment-term vector: weighted minus full covariate sums."""
    dummy = ObservedOutcomes(np.zeros(realization.n), realization)
    dummy, design, divisor = _system(dummy, design, spec, divisor)
    return _adjustment(spec.matrix, dummy.indicator() / design.marginals, divisor)


def greg(
    observed: ObservedOutcomes,
    design: Design,
    spec: CovariateSpec | None = None,
    coefficient: CoefficientEstimate | None = None,
    divisor: int | None = None,
) -> AteEstimate:
    """Generalized regression estimate: point = HT - (adjustment term) @ b."""
    sys_obs, sys_design, divisor = _system(observed, design, spec, divisor)
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


def greg_forms(
    observed: ObservedOutcomes,
    design: Design,
    spec: CovariateSpec,
    coefficient: CoefficientEstimate,
    divisor: int | None = None,
) -> dict:
    """All three algebraic forms of the regression estimate, for cross-checks.

    ``weighted_residual_term`` is the inverse-probability mean of observed
    residuals; it vanishes exactly in the estimator/design/layout combinations
    covered by the intercept-contrast identity.
    """
    sys_obs, sys_design, divisor = _system(observed, design, spec, divisor)
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


def fixed_coef_variance(
    outcomes: StackedOutcomes,
    spec: CovariateSpec,
    b,
    dmat: DesignMatrix,
    divisor: int | None = None,
) -> float:
    """Exact variance of the fixed-coefficient estimator: u' M u / divisor**2.

    Requires the full potential-outcome schedule, so this is an oracle or
    simulation tool, not an estimator.
    """
    b = np.asarray(b, dtype=float)
    if spec.level == "cluster" and outcomes.n != spec.rows_per_arm:
        outcomes = stack_clusters(outcomes, spec.cluster_ids)
    if dmat.n != spec.rows_per_arm:
        raise ValueError("design matrix level does not match the layout")
    if divisor is None:
        divisor = spec.divisor or outcomes.n
    u = outcomes.values - spec.matrix @ b
    return float(u @ dmat.values @ u) / divisor**2


# -- coefficient estimators ----------------------------------------------------


def _weighted_fit(spec: CovariateSpec, observed: ObservedOutcomes, w: np.ndarray, method: str):
    b, deficient = _wls(spec.matrix, w, observed.stacked() * w)
    return CoefficientEstimate(b, method, rank_deficient=deficient)


def coef_ols(spec: CovariateSpec, observed: ObservedOutcomes) -> CoefficientEstimate:
    """Least squares on the observed rows of the signed layout."""
    observed, _, _ = _system(observed, None, spec, None)
    method = "ols_cluster_totals" if spec.level == "cluster" else "ols"
    return _weighted_fit(spec, observed, observed.indicator(), method)


def coef_wls_pi(
    spec: CovariateSpec, observed: ObservedOutcomes, design: Design
) -> CoefficientEstimate:
    """Weighted least squares with reciprocal assignment-probability weights."""
    observed, design, _ = _system(observed, design, spec, None)
    return _weighted_fit(spec, observed, observed.indicator() / design.marginals, "wls_pi")


@dataclass(frozen=True)
class AdjustmentCache:
    """Write-once (layout, core) normal system shared across replications.

    The core is the design's covariance structure for the optimal-coefficient
    estimators, or a bound matrix for the bound-targeting two-stage
    coefficient (see :class:`dbexp.bounds.BoundCache`).
    """

    spec: CovariateSpec
    xdx: np.ndarray
    xdx_pinv: np.ndarray
    xd: np.ndarray

    @classmethod
    def build(cls, spec: CovariateSpec, design: Design) -> "AdjustmentCache":
        sys_design = cluster_level_design(design)[0] if spec.level == "cluster" else design
        return cls.over(spec, design_matrix(sys_design).values)

    @classmethod
    def over(cls, spec: CovariateSpec, core: np.ndarray) -> "AdjustmentCache":
        xd, xdx, xdx_pinv, _ = normal_system(spec.matrix, core)
        return cls(spec=spec, xdx=xdx, xdx_pinv=xdx_pinv, xd=xd)


def _cache_for(spec: CovariateSpec, design: Design, cache: AdjustmentCache | None):
    if cache is None:
        return AdjustmentCache.build(spec, design)
    if cache.spec is not spec and not np.array_equal(cache.spec.matrix, spec.matrix):
        raise ValueError("cache was built for a different layout")
    return cache


def coef_3ht(
    spec: CovariateSpec,
    observed: ObservedOutcomes,
    design: Design,
    cache: AdjustmentCache | None = None,
) -> CoefficientEstimate:
    """Unbiased optimal-coefficient estimator built from weighted indicators.

    Its mean over the design equals the variance-minimizing coefficient, but
    it inherits inverse-probability imprecision; prefer the two-stage
    estimator for point estimation.
    """
    cache = _cache_for(spec, design, cache)
    sys_obs, sys_design, _ = _system(observed, design, spec, None)
    w = sys_obs.indicator() / sys_design.marginals
    return CoefficientEstimate(_three_ht(cache, sys_obs.stacked() * w), "three_ht")


def coef_2r(
    spec: CovariateSpec,
    observed: ObservedOutcomes,
    design: Design,
    cache: AdjustmentCache | None = None,
) -> CoefficientEstimate:
    """Two-stage optimal coefficient: regression-adjust the unbiased estimator.

    The first stage is reciprocal-probability weighted least squares; the
    second stage removes its estimated deviation using the same adjustment
    principle, which restores location/scale invariance of the conjugate
    point estimate.
    """
    cache = _cache_for(spec, design, cache)
    sys_obs, sys_design, _ = _system(observed, design, spec, None)
    w = sys_obs.indicator() / sys_design.marginals
    wy = sys_obs.stacked() * w
    b_wls, _ = _wls(spec.matrix, w, wy)
    return CoefficientEstimate(_two_r(cache, w, _three_ht(cache, wy), b_wls), "two_r")


def coef_tyranny(
    spec: CovariateSpec, observed: ObservedOutcomes, design: Design
) -> CoefficientEstimate:
    """Minority-weighted common-slopes estimator.

    Weighted least squares with (1/pi - 1) weights on observed rows; in the
    population limit each arm's slope is weighted by the other arm's share,
    so the smaller arm dominates.
    """
    if spec.kind != "I":
        raise ValueError("the minority-weighted estimator is defined for common-slopes layouts")
    sys_obs, sys_design, _ = _system(observed, design, spec, None)
    w = sys_obs.indicator() * (1.0 / sys_design.marginals - 1.0)
    return _weighted_fit(spec, sys_obs, w, "tyranny")


def coef_ols_cluster_totals(
    spec: CovariateSpec, observed: ObservedOutcomes
) -> CoefficientEstimate:
    """Least squares on cluster totals (cluster-level layouts only)."""
    if spec.level != "cluster":
        raise ValueError("cluster-totals estimation needs a cluster-level layout")
    return coef_ols(spec, observed)


def intercept_contrast(coefficient: CoefficientEstimate, spec: CovariateSpec) -> float:
    """Difference of treatment and control intercept coefficients."""
    if spec.intercept_cols is None:
        raise ValueError("layout has no identifiable per-arm intercept columns")
    ctrl, trt = spec.intercept_cols
    return float(coefficient.values[trt] - coefficient.values[ctrl])
