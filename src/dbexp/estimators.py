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

from ._linalg import normal_system, pinv_solve, product_scale
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
        z = self.realization.assignment
        top = np.where(z == 0, -self.outcomes, 0.0)
        bottom = np.where(z == 1, self.outcomes, 0.0)
        return np.concatenate([top, bottom])


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


def _check_cluster_match(spec: CovariateSpec, index: np.ndarray) -> None:
    _, spec_index = _cluster_index(spec.cluster_ids)
    if spec_index.shape != index.shape or not np.array_equal(spec_index, index):
        raise ValueError("layout and design disagree about cluster membership")


def _collapse_observed(observed: ObservedOutcomes, index: np.ndarray, m: int) -> ObservedOutcomes:
    z = observed.realization.assignment
    z_cluster = np.full(m, -1, dtype=np.int64)
    for g in range(m):
        members = z[index == g]
        if members.min() != members.max():
            raise ValueError(f"assignment varies within cluster {g}: not a cluster design")
        z_cluster[g] = members[0]
    totals = np.bincount(index, weights=observed.outcomes, minlength=m)
    return ObservedOutcomes(totals, AssignmentRealization(z_cluster))


def _system(
    observed: ObservedOutcomes,
    design: Design | None,
    spec: CovariateSpec | None,
    divisor: int | None,
):
    """Return (observed, design, divisor) at the level the layout expects."""
    if spec is not None and spec.level == "cluster":
        if observed.n == spec.rows_per_arm:
            # already collapsed by the caller
            sys_obs = observed
            sys_design = design
        else:
            _, index = _cluster_index(spec.cluster_ids)
            if observed.n != index.shape[0]:
                raise ValueError("observed data does not match the layout's cluster ids")
            _check_cluster_match(spec, index)
            sys_obs = _collapse_observed(observed, index, spec.rows_per_arm)
            sys_design = cluster_level_design(design)[0] if design is not None else None
        return sys_obs, sys_design, divisor or spec.divisor
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


# -- point estimators ----------------------------------------------------------


def ht_ate(observed: ObservedOutcomes, design: Design, divisor: int | None = None) -> float:
    """Inverse-probability (Horvitz-Thompson) estimate of the average effect."""
    observed, design, divisor = _system(observed, design, None, divisor)
    weighted = observed.stacked() * observed.indicator() / design.marginals
    return float(weighted.sum() / divisor)


def ht_cov_means(
    spec: CovariateSpec,
    realization: AssignmentRealization,
    design: Design,
    divisor: int | None = None,
) -> np.ndarray:
    """Zero-mean adjustment-term vector: weighted minus full covariate sums."""
    dummy = ObservedOutcomes(np.zeros(realization.n), realization)
    dummy, design, divisor = _system(dummy, design, spec, divisor)
    weights = dummy.indicator() / design.marginals - 1.0
    return spec.matrix.T @ weights / divisor


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
    ht = float((stacked * indicator / sys_design.marginals).sum() / divisor)
    if coefficient is None:
        return AteEstimate(ht, None, stacked, indicator.astype(bool), divisor)
    if spec is None:
        raise ValueError("a coefficient needs a covariate layout")
    b = coefficient.values
    if b.shape != (spec.n_columns,):
        raise ValueError("coefficient length must match the layout's column count")
    htx = spec.matrix.T @ (indicator / sys_design.marginals - 1.0) / divisor
    point = ht - float(htx @ b)
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
    indicator = sys_obs.indicator()
    stacked = sys_obs.stacked()
    w = indicator / sys_design.marginals
    b = coefficient.values
    fitted = spec.matrix @ b
    form_a = float((stacked * w - fitted * w + fitted).sum() / divisor)
    ht = float((stacked * w).sum() / divisor)
    htx = spec.matrix.T @ (w - 1.0) / divisor
    form_b = ht - float(htx @ b)
    weighted_residual_term = float(((stacked - fitted) * w).sum() / divisor)
    mean_fit_term = float(fitted.sum() / divisor)
    return {
        "form_a": form_a,
        "form_b": form_b,
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


def _wls(spec: CovariateSpec, observed: ObservedOutcomes, w: np.ndarray, method: str):
    """Weighted least squares X'diag(w)X b = X'diag(w)y on the signed layout."""
    weighted = spec.matrix * w[:, None]
    normal = spec.matrix.T @ weighted
    rhs = spec.matrix.T @ (observed.stacked() * w)
    b, deficient = pinv_solve(normal, rhs, scale=product_scale(spec.matrix, weighted))
    return CoefficientEstimate(b, method, rank_deficient=deficient)


def coef_ols(spec: CovariateSpec, observed: ObservedOutcomes) -> CoefficientEstimate:
    """Least squares on the observed rows of the signed layout."""
    observed, _, _ = _system(observed, None, spec, None)
    method = "ols_cluster_totals" if spec.level == "cluster" else "ols"
    return _wls(spec, observed, observed.indicator(), method)


def coef_wls_pi(
    spec: CovariateSpec, observed: ObservedOutcomes, design: Design
) -> CoefficientEstimate:
    """Weighted least squares with reciprocal assignment-probability weights."""
    observed, design, _ = _system(observed, design, spec, None)
    return _wls(spec, observed, observed.indicator() / design.marginals, "wls_pi")


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
    b = cache.xdx_pinv @ (cache.xd @ (sys_obs.stacked() * w))
    return CoefficientEstimate(b, "three_ht")


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
    b_wls = coef_wls_pi(spec, sys_obs, sys_design).values
    b3 = cache.xdx_pinv @ (cache.xd @ (sys_obs.stacked() * w))
    drift = cache.xd @ (spec.matrix * w[:, None]) - cache.xdx
    b = b3 - cache.xdx_pinv @ (drift @ b_wls)
    return CoefficientEstimate(b, "two_r")


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
    return _wls(spec, sys_obs, w, "tyranny")


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
