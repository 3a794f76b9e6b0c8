"""Identified variance bounds: construction, comparison, and estimation.

The true variance quadratic is never identified (a unit's two potential
outcomes are never co-observed), so inference runs through bound matrices:
replacements for the covariance structure that (a) dominate it in the PSD
order and (b) vanish at every jointly unobservable pair.  Both properties are
certified at construction.  Dominance is proved in closed form where the added
term is PSD by construction: the AS bound adds the signless Laplacian of the
unobservable-pair graph, the cluster bound a Gram matrix.  The iterative bound,
and the PSD-order comparison of two bounds, are decided numerically by a dense
eigendecomposition.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._linalg import min_max_eig, psd_project, sym_eigvals, symmetrize
from .covariates import CovariateSpec
from .design import Design, DesignMatrix, _cluster_index, cluster_level_design, design_matrix
from .estimators import (
    AdjustmentCache,
    CoefficientEstimate,
    ObservedOutcomes,
    _system,
    coef_2r,
)

PSD_TOL = 1e-8

BOUND_METHODS = ("as", "iterative", "cluster")


class BoundConvergenceError(RuntimeError):
    """The iterative tightening loop ran out of iterations."""

    def __init__(self, message: str, trace: list[float]):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class BoundMatrix:
    """A certified variance-bound matrix.

    ``identification_mask`` marks the jointly unobservable pairs; ``identified``
    is False when the construction could not zero all of them (for example the
    cluster bound with a single cluster in some arm), in which case the bound
    quadratic is still valid but cannot be estimated from observed data.
    """

    values: np.ndarray
    method: str  # "as" | "iterative" | "cluster" | "custom"
    identification_mask: np.ndarray
    identified: bool
    iterations: int = 0
    min_eig_trace: tuple[float, ...] = field(default=(), repr=False)

    def __post_init__(self):
        for name in ("values", "identification_mask"):
            arr = np.ascontiguousarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.values.shape[0] // 2

    def block(self, row_arm: int, col_arm: int) -> np.ndarray:
        n = self.n
        return self.values[row_arm * n : (row_arm + 1) * n, col_arm * n : (col_arm + 1) * n]

    def sharp_null_form(self) -> np.ndarray:
        """The n x n matrix whose quadratic gives the bound when both arms share outcomes."""
        return self.block(0, 0) + self.block(1, 1) - self.block(1, 0) - self.block(0, 1)

    def quadratic(self, stacked: np.ndarray) -> float:
        v = np.asarray(stacked, dtype=float)
        return float(v @ self.values @ v)


def _certify(
    values: np.ndarray, dmat: DesignMatrix, method: str, added_psd: bool = False, **kw
) -> BoundMatrix:
    """Certify that ``values`` dominates ``dmat`` and record whether it is identified.

    ``added_psd`` is the caller's closed-form proof that ``values - dmat.values``
    is PSD; without it the difference is eigendecomposed.
    """
    if not added_psd:
        lo, hi = min_max_eig(values - dmat.values)
        scale = max(abs(lo), abs(hi), 1.0)
        if lo < -PSD_TOL * scale:
            raise ValueError(
                f"candidate {method!r} matrix is not a bound: difference has eigenvalue {lo:g}"
            )
    mask = dmat.mask
    identified = bool(np.abs(values[mask]).max(initial=0.0) < 1e-12)
    if not identified:
        warnings.warn(
            f"{method!r} bound is not identified for this design: some jointly "
            "unobservable pairs keep nonzero weight, so it cannot be estimated "
            "from observed data",
            stacklevel=3,
        )
    return BoundMatrix(
        values=values, method=method, identification_mask=mask, identified=identified, **kw
    )


def as_bound(dmat: DesignMatrix) -> BoundMatrix:
    """Universal bound: add the unobservable-pair indicator plus matching diagonal mass.

    When the mask is a graph's adjacency matrix (symmetric, empty diagonal),
    the added matrix is its signless Laplacian diag(deg) + A, whose quadratic
    form is the sum over edges of (v_i + v_j)^2, hence PSD: the result bounds
    the variance for any identified design.  Any other mask is certified
    numerically.
    """
    mask = dmat.mask
    is_graph = not mask.diagonal().any() and np.array_equal(mask, mask.T)
    maskf = mask.astype(float)
    values = dmat.values + maskf + np.diag(maskf.sum(axis=1))
    return _certify(values, dmat, "as", added_psd=is_graph)


def iterative_bound(
    dmat: DesignMatrix, max_iters: int = 500, tol: float = 1e-10
) -> BoundMatrix:
    """Alternating projections between the PSD cone and the mask constraint.

    Starts from the unobservable-pair indicator; alternately projects onto the
    PSD cone and resets masked entries to one.  On convergence the additive
    term is PSD with ones exactly at masked positions, so the sum with the
    covariance structure is an identified bound.  Convergence is not
    guaranteed; failures raise with the min-eigenvalue trace attached.
    """
    mask = dmat.mask
    maskf = mask.astype(float)
    t = maskf.copy()
    trace: list[float] = []
    for iteration in range(max_iters):
        vals = sym_eigvals(t)
        lo = float(vals[0])
        trace.append(lo)
        scale = max(abs(lo), abs(float(vals[-1])), 1.0)
        if lo >= -tol * scale:
            t[mask] = 1.0  # exact, not just converged
            values = dmat.values + t
            return _certify(
                values,
                dmat,
                "iterative",
                iterations=iteration,
                min_eig_trace=tuple(trace),
            )
        t = psd_project(t)
        t[mask] = 1.0
        t = symmetrize(t)
    raise BoundConvergenceError(
        f"no PSD fixed point after {max_iters} iterations (last min eigenvalue {trace[-1]:g})",
        trace,
    )


def cluster_bound(dmat: DesignMatrix, cluster_ids) -> BoundMatrix:
    """Cluster-randomization bound: same-cluster indicator added to all four blocks.

    Exact under the sharp null and PSD-tighter than the universal bound for
    complete randomization of clusters; identified when each arm receives at
    least two clusters.
    """
    _, index = _cluster_index(cluster_ids)
    n = dmat.n
    if index.shape[0] != n:
        raise ValueError("cluster ids do not match the design size")
    same = (index[:, None] == index[None, :])
    # For complete randomization of clusters the cross-arm block is -1 exactly
    # on same-cluster pairs; anything else is not a cluster design.
    if not np.array_equal(dmat.block(0, 1) == -1.0, same):
        raise ValueError("design is not complete randomization of these clusters")
    # The added term is the Gram matrix [E; E][E; E]' of the stacked cluster
    # membership matrix E (same = EE'), hence PSD.
    block = same.astype(float)
    values = dmat.values + np.block([[block, block], [block, block]])
    return _certify(values, dmat, "cluster", added_psd=True)


def check_bound_method(name: str) -> None:
    """Raise ValueError unless ``name`` is one of ``BOUND_METHODS``."""
    if name not in BOUND_METHODS:
        raise ValueError(f"unknown bound method {name!r}; choose from {', '.join(BOUND_METHODS)}")


def build_bound(
    name: str, design: Design, *, cluster_ids=None, max_iters: int = 500
) -> BoundMatrix:
    """Construct the bound named ``as``, ``iterative`` or ``cluster`` for a design.

    The cluster bound takes its cluster ids from ``cluster_ids`` or, when
    that is None, from the provenance of a cluster-randomized design.
    """
    check_bound_method(name)
    if name == "cluster" and cluster_ids is None:
        if design.kind != "cluster":
            raise ValueError("the cluster bound needs a cluster-randomized design")
        cluster_ids = design.provenance.params["cluster_ids"]
    dmat = design_matrix(design)
    if name == "as":
        return as_bound(dmat)
    if name == "iterative":
        return iterative_bound(dmat, max_iters=max_iters)
    return cluster_bound(dmat, cluster_ids)


@dataclass(frozen=True)
class BoundComparison:
    """PSD-order comparison of two bounds, with sharp-null fallback and heuristics.

    Eigenvalue fields describe (second minus first); positive mass favors the
    first argument.
    """

    method_a: str
    method_b: str
    verdict: str  # "a_tighter" | "b_tighter" | "tie" | "incomparable"
    sharp_null_verdict: str
    min_eig: float
    max_eig: float
    eig_sum: float


def _order_verdict(diff: np.ndarray) -> tuple[str, float, float, float]:
    vals = sym_eigvals(diff)
    lo, hi = float(vals[0]), float(vals[-1])
    scale = max(abs(lo), abs(hi), 1.0)
    b_minus_a_psd = lo >= -PSD_TOL * scale
    a_minus_b_psd = hi <= PSD_TOL * scale
    if b_minus_a_psd and a_minus_b_psd:
        verdict = "tie"
    elif b_minus_a_psd:
        verdict = "a_tighter"
    elif a_minus_b_psd:
        verdict = "b_tighter"
    else:
        verdict = "incomparable"
    return verdict, lo, hi, float(vals.sum())


def compare_bounds(a: BoundMatrix, b: BoundMatrix) -> BoundComparison:
    """Decide which bound is tighter, in the PSD order and under the sharp null."""
    if a.values.shape != b.values.shape:
        raise ValueError("bounds must share the same design size")
    verdict, lo, hi, total = _order_verdict(b.values - a.values)
    sharp_verdict, _, _, _ = _order_verdict(b.sharp_null_form() - a.sharp_null_form())
    return BoundComparison(
        method_a=a.method,
        method_b=b.method,
        verdict=verdict,
        sharp_null_verdict=sharp_verdict,
        min_eig=lo,
        max_eig=hi,
        eig_sum=total,
    )


# -- bound estimation ----------------------------------------------------------


def _weighted_bound_matrix(bound: BoundMatrix, design: Design) -> np.ndarray:
    """bound / joint probabilities, with zero-probability slots left harmless."""
    if not bound.identified:
        raise ValueError("only identified bounds can be estimated from observed data")
    safe = design.joint + (design.joint == 0.0)
    return bound.values / safe


@dataclass(frozen=True)
class BoundCache:
    """Write-once (bound, design[, layout]) precomputation for replication loops.

    ``adjustment`` is the layout's normal system over the bound matrix, which
    the bound-targeting two-stage coefficient reuses.
    """

    bound: BoundMatrix
    weighted: np.ndarray
    adjustment: AdjustmentCache | None = None

    @classmethod
    def build(cls, bound: BoundMatrix, design: Design, spec: CovariateSpec | None = None):
        sys_design = design
        if spec is not None and spec.level == "cluster":
            sys_design = cluster_level_design(design)[0]
        weighted = _weighted_bound_matrix(bound, sys_design)
        adjustment = None if spec is None else AdjustmentCache.over(spec, bound.values)
        return cls(bound=bound, weighted=weighted, adjustment=adjustment)


def _observed_quadratic(
    weighted: np.ndarray, vector: np.ndarray, indicator: np.ndarray, divisor: int
) -> float:
    masked = vector * indicator
    return float(masked @ weighted @ masked) / divisor**2


def bound_estimate_ht(bound: BoundMatrix, design: Design, observed: ObservedOutcomes,
                      cache: BoundCache | None = None) -> float:
    """Unbiased estimate of the bound quadratic from one realization.

    Each observed product is weighted by its reciprocal joint observation
    probability.  Individual draws can come out negative; only the mean is
    pinned to the bound.
    """
    observed, design, divisor = _system(observed, design, None)
    weighted = cache.weighted if cache is not None else _weighted_bound_matrix(bound, design)
    return _observed_quadratic(weighted, observed.stacked(), observed.indicator(), divisor)


def bound_estimate_greg(bound: BoundMatrix, design: Design, observed: ObservedOutcomes,
                        spec: CovariateSpec, coefficient: CoefficientEstimate,
                        cache: BoundCache | None = None) -> float:
    """Plug-in bound estimate for a regression estimator: residuals replace outcomes.

    Exactly unbiased for the bound at a fixed coefficient; with an estimated
    coefficient it is a plug-in without an exactness guarantee.
    """
    sys_obs, sys_design, divisor = _system(observed, design, spec)
    weighted = cache.weighted if cache is not None else _weighted_bound_matrix(bound, sys_design)
    residual = sys_obs.stacked() - spec.matrix @ coefficient.values
    return _observed_quadratic(weighted, residual, sys_obs.indicator(), divisor)


def bound_estimate_2r_borrowed(bound: BoundMatrix, design: Design, observed: ObservedOutcomes,
                               spec: CovariateSpec, cache: BoundCache | None = None) -> float:
    """Borrowed bound estimate for the two-stage estimator.

    Estimates the bound-minimizing coefficient by the two-stage recursion run
    with the bound matrix standing in for the covariance structure, then
    plugs its residuals into the bound estimator.  The minimized bound still
    dominates the variance at the optimal coefficient, so pairing this with
    the two-stage point estimate keeps intervals conservative while typically
    much narrower than the plug-in alternative.
    """
    adjustment = cache.adjustment if cache is not None else None
    if adjustment is None:
        adjustment = AdjustmentCache.over(spec, bound.values)
    coefficient = coef_2r(spec, observed, design, cache=adjustment)
    return bound_estimate_greg(bound, design, observed, spec, coefficient, cache=cache)


# -- post-hoc precision test ---------------------------------------------------


@dataclass(frozen=True)
class PrecisionTestResult:
    """One-sided test that a fixed-coefficient adjustment improves precision.

    ``statistic`` estimates the identified variance difference component; the
    adjustment helps when its mean exceeds ``threshold``.  ``degenerate`` marks
    the zero-coefficient case where no adjustment is being tested.
    """

    statistic: float
    threshold: float
    se: float
    z_score: float
    p_value: float
    degenerate: bool
    se_truncated: bool
    scaled_statistic: float  # divisor**2-scale quantities for audit
    scaled_threshold: float


def precision_test(design: Design, dmat: DesignMatrix, observed: ObservedOutcomes,
                   spec: CovariateSpec, b_f, bound: BoundMatrix) -> PrecisionTestResult:
    """Test whether adjusting by the fixed coefficient ``b_f`` reduces variance.

    The variance difference decomposes into an identified part (estimable by
    inverse-probability weighting of a fixed derived vector) plus a known
    quadratic; the null of no improvement is rejected for large statistics.
    Fix the coefficient before seeing outcome data: this is a retrospective
    diagnostic, not a licence to pick adjustments after the fact.
    """
    b_f = np.asarray(b_f, dtype=float)
    sys_obs, sys_design, divisor = _system(observed, design, spec)
    if dmat.n != spec.rows_per_arm:
        raise ValueError("design matrix level does not match the layout")
    fitted = spec.matrix @ b_f
    dxb = dmat.values @ fitted  # fixed 2r vector
    indicator = sys_obs.indicator()
    residual_obs = sys_obs.stacked() - fitted * indicator
    v_obs = 2.0 * dxb * residual_obs * indicator  # observed slots of the fixed vector v
    statistic = float((v_obs / sys_design.marginals).sum() / divisor)
    scaled_threshold = -float(fitted @ dmat.values @ fitted)
    threshold = scaled_threshold / divisor

    degenerate = bool(np.all(fitted == 0.0))
    weighted = _weighted_bound_matrix(bound, sys_design)
    var_est = _observed_quadratic(weighted, v_obs, indicator, divisor)
    truncated = var_est < 0.0
    se = math.sqrt(max(var_est, 0.0))
    if degenerate or se == 0.0:
        z = 0.0
        p = 1.0
    else:
        z = (statistic - threshold) / se
        p = 0.5 * math.erfc(z / math.sqrt(2.0))
    return PrecisionTestResult(
        statistic=statistic,
        threshold=threshold,
        se=se,
        z_score=z,
        p_value=p,
        degenerate=degenerate,
        se_truncated=truncated,
        scaled_statistic=statistic * divisor,
        scaled_threshold=scaled_threshold,
    )


def interval_from_bound(point: float, bound_estimate: float, z: float = 1.96):
    """Normal-theory interval from a bound estimate; negative estimates truncate to zero."""
    truncated = bound_estimate < 0.0
    se = math.sqrt(max(bound_estimate, 0.0))
    return point - z * se, point + z * se, truncated
