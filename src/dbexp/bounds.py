"""Identified variance bounds: construction, comparison, and estimation.

The true variance quadratic is never identified (a unit's two potential
outcomes are never co-observed), so inference runs through bound matrices:
replacements for the covariance structure that (a) dominate it in the PSD
order and (b) vanish at every jointly unobservable pair.  Both properties are
certified at construction.  Dominance is proved in closed form where the added
term is PSD by construction: the AS bound adds the signless Laplacian of the
unobservable-pair graph, the cluster bound a Gram matrix.  The iterative bound
is certified block by block: its added term is block-diagonal over the
connected components of the identification mask, and its distinct blocks'
eigenvalues are its spectrum.  The PSD-order comparison of two bounds
decomposes their difference over the connected components of its nonzero
pattern the same way; a dense difference is the one-component case.

A bound holds the design matrix it was certified against, and is estimated on
and compared within that matrix's design only.  It keeps its
estimation state: the bound weighted by the reciprocal joint probabilities,
built on first use, and the normal system of the last layout it served.

Over a design in kind form the AS and cluster bounds, their weighted forms
and their estimates stay in kind form: the added terms have the design's
group structure (see :mod:`dbexp._group`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._group import GroupOperator, Groups, quadratic, unit_groups
from ._linalg import (
    block_eigvals,
    component_blocks,
    min_max_eig,
    psd_project,
    sym_eigvals,
    symmetrize,
)
from .covariates import CovariateSpec
from .design import (
    Design,
    DesignMatrix,
    _check_clusters,
    _cluster_groups,
    _frozen,
    _KindForm,
    _same_joint,
    design_matrix,
)
from .estimators import (
    AdjustmentCache,
    CoefficientEstimate,
    ObservedOutcomes,
    _coef,
    _observe,
    _system,
)

PSD_TOL = 1e-8
#: Relative min-eigenvalue tolerance at which the iterative bound has converged.
ITERATIVE_TOL = 1e-10

BOUND_METHODS = ("as", "iterative", "cluster")


class BoundConvergenceError(RuntimeError):
    """The iterative tightening loop ran out of iterations."""

    def __init__(self, message: str, trace: list[float]):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class BoundMatrix(_KindForm):
    """A certified variance-bound matrix.

    ``design_matrix`` is the design matrix D the bound was certified against:
    the bound's ``identification_mask``, ``joint`` and size are D's, so the
    bound is estimated on and compared within D's design only.  ``identified``
    is False when the construction could not zero all the jointly unobservable
    pairs (for example the cluster bound with a single cluster in some arm), in
    which case the bound quadratic is still valid but cannot be estimated from
    observed data.  ``certificate`` records how its dominance was proved:
    ``closed_form`` (the added term is PSD by construction), ``blocks``
    (eigenvalues block by block) or ``dense`` (one eigendecomposition); None
    when built directly.  A bound over a design in kind form is built in kind
    form too (``core``) and its values on first read.
    """

    values: np.ndarray = field(repr=False)
    method: str  # "as" | "iterative" | "cluster" | "custom"
    identified: bool
    design_matrix: DesignMatrix = field(repr=False)
    iterations: int = 0
    min_eig_trace: tuple[float, ...] = field(default=(), repr=False)
    certificate: str | None = None

    _op = None  # the bound's GroupOperator, in kind form
    _dense_from = {"values": lambda bound: _frozen(bound._op.dense())}

    def __post_init__(self):
        values = np.ascontiguousarray(self.values)
        n = self.design_matrix.n
        if values.shape != (2 * n, 2 * n):
            raise ValueError(f"bound values must be {2 * n} x {2 * n}, like its design matrix")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def _form(self):
        return self.design_matrix._form

    @property
    def identification_mask(self) -> np.ndarray:
        """The jointly unobservable pairs of the bound's design."""
        return self.design_matrix.mask

    @property
    def joint(self) -> np.ndarray:
        """The joint probability matrix of the bound's design, the design's own array."""
        return self.design_matrix.joint

    @property
    def n(self) -> int:
        return self.design_matrix.n

    @property
    def core(self) -> np.ndarray | GroupOperator:
        """The bound as its operator when in kind form, else as the dense array."""
        return self._op if self._op is not None else self.values

    def block(self, row_arm: int, col_arm: int) -> np.ndarray:
        n = self.n
        return self.values[row_arm * n : (row_arm + 1) * n, col_arm * n : (col_arm + 1) * n]

    def sharp_null_form(self) -> np.ndarray:
        """The n x n matrix whose quadratic gives the bound when both arms share outcomes."""
        return self.block(0, 0) + self.block(1, 1) - self.block(1, 0) - self.block(0, 1)

    @cached_property
    def _weighted(self) -> np.ndarray | GroupOperator:
        """The bound over the joint probabilities, zero-probability slots left harmless."""
        if not self.identified:
            raise ValueError("only identified bounds can be estimated from observed data")
        if self._op is not None:
            return self._form.weigh(self._op)
        return self.values / (self.joint + (self.joint == 0.0))

    def _adjustment(self, spec: CovariateSpec) -> AdjustmentCache:
        """The layout's normal system over the bound, kept for the last layout it served."""
        cache = self.__dict__.get("_last_adjustment")
        if cache is None or (
            cache.spec is not spec and not np.array_equal(cache.spec.matrix, spec.matrix)
        ):
            cache = AdjustmentCache.over(spec, self.core)
            self.__dict__["_last_adjustment"] = cache
        return cache

    def _check_design(self, design: Design) -> None:
        """Raise unless ``design`` is the design the bound was built over."""
        if not _same_joint(self.design_matrix, design):
            raise ValueError("the bound was built over a different design")


def _identified(masked: np.ndarray, method: str) -> bool:
    """Whether the bound's entries at the unobservable pairs vanish; warns when not."""
    identified = bool(np.abs(masked).max(initial=0.0) < 1e-12)
    if not identified:
        warnings.warn(
            f"{method!r} bound is not identified for this design: some jointly "
            "unobservable pairs keep nonzero weight, so it cannot be estimated "
            "from observed data",
            stacklevel=4,
        )
    return identified


def _certify(
    values: np.ndarray, dmat: DesignMatrix, method: str, proof: str | None = None, **kw
) -> BoundMatrix:
    """Certify that ``values`` dominates ``dmat`` and record whether it is identified.

    ``proof`` names the caller's proof that ``values - dmat.values`` is PSD
    (``closed_form`` or ``blocks``); without one the difference is
    eigendecomposed.
    """
    if proof is None:
        lo, hi = min_max_eig(values - dmat.values)
        scale = max(abs(lo), abs(hi), 1.0)
        if lo < -PSD_TOL * scale:
            raise ValueError(
                f"candidate {method!r} matrix is not a bound: difference has eigenvalue {lo:g}"
            )
    identified = _identified(values[dmat.mask], method)
    return BoundMatrix(values=values, method=method, identified=identified, design_matrix=dmat,
                       certificate=proof or "dense", **kw)


def _certify_kinds(op: GroupOperator, dmat: DesignMatrix, method: str) -> BoundMatrix:
    """``_certify`` in kind form, for a bound whose added term is PSD by construction."""
    identified = _identified(op.kinds_where(dmat._form.mask), method)
    return BoundMatrix._lazy(method=method, identified=identified, design_matrix=dmat,
                             iterations=0, min_eig_trace=(), certificate="closed_form", _op=op)


def as_bound(dmat: DesignMatrix) -> BoundMatrix:
    """Universal bound: add the unobservable-pair indicator plus matching diagonal mass.

    When the mask is a graph's adjacency matrix (symmetric, empty diagonal),
    the added matrix is its signless Laplacian diag(deg) + A, whose quadratic
    form is the sum over edges of (v_i + v_j)^2, hence PSD: the result bounds
    the variance for any identified design.  Any other mask is certified
    numerically.
    """
    if dmat._form is not None:
        mask = dmat._form.mask
        if not mask.unit[0, 0].any() and not mask.unit[1, 1].any() and mask.is_symmetric():
            maskf = mask.kindwise(lambda k: k.astype(float))
            values = dmat._form.values.kindwise(np.add, maskf)
            unit = values.unit.copy()
            unit[[0, 1], [0, 1]] += maskf.matvec(np.ones(2 * dmat.n)).reshape(2, -1)
            values = GroupOperator(values.groups, unit, values.same, values.diff)
            return _certify_kinds(values, dmat, "as")
    mask = dmat.mask
    is_graph = not mask.diagonal().any() and np.array_equal(mask, mask.T)
    maskf = mask.astype(float)
    values = dmat.values + maskf + np.diag(maskf.sum(axis=1))
    return _certify(values, dmat, "as", proof="closed_form" if is_graph else None)


def _distinct_blocks(mask: np.ndarray) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """The mask's connected components, grouped by size and then by sub-pattern.

    Returns one entry per component size ``s``: the stack ``(g, s, s)`` of the
    ``g`` distinct sub-patterns, and for each the ``(c, s)`` slots of the
    components that have it.
    """
    blocks = []
    for slots in component_blocks(mask):
        count, size = slots.shape
        subs = mask[slots[:, :, None], slots[:, None, :]].reshape(count, size * size)
        patterns, which = np.unique(subs, axis=0, return_inverse=True)
        which = which.ravel()
        members = [slots[which == j] for j in range(patterns.shape[0])]
        blocks.append((patterns.reshape(-1, size, size), members))
    return blocks


def iterative_bound(dmat: DesignMatrix, max_iters: int = 500) -> BoundMatrix:
    """Alternating projections between the PSD cone and the mask constraint.

    Starts from the unobservable-pair indicator; alternately projects onto the
    PSD cone and resets masked entries to one.  On convergence the additive
    term T is PSD with ones exactly at masked positions, so the sum with the
    covariance structure is an identified bound.  Convergence is not
    guaranteed; failures raise with the min-eigenvalue trace attached.

    T depends only on the mask, and both steps keep the mask's block pattern,
    so T is block-diagonal over the connected components of the mask graph and
    components with the same sub-pattern get the same block.  The projections
    run once per distinct block, all blocks in lockstep: the trace records the
    smallest eigenvalue over all blocks (a slot outside every masked pair is a
    block of its own with eigenvalue 0), which is the smallest eigenvalue of
    the whole T, and a mask with one component is the whole-matrix case.
    """
    _check_max_iters(max_iters)
    blocks = _distinct_blocks(dmat.mask)
    stacks = [patterns.astype(float) for patterns, _ in blocks]
    trace: list[float] = []
    for iteration in range(max_iters):
        spectra = [sym_eigvals(t) for t in stacks]
        lo = min(float(vals[:, 0].min()) for vals in spectra)
        hi = max(float(vals[:, -1].max()) for vals in spectra)
        trace.append(lo)
        scale = max(abs(lo), abs(hi), 1.0)
        if lo >= -ITERATIVE_TOL * scale:
            # The spectrum of block-diagonal T is the union of its blocks'
            # spectra, just computed: every eigenvalue is at least
            # -ITERATIVE_TOL * scale, inside the PSD_TOL certificate.
            added = np.zeros_like(dmat.values)
            for t, (_, members) in zip(stacks, blocks):
                for block, slots in zip(t, members):
                    added[slots[:, :, None], slots[:, None, :]] = block
            return _certify(
                dmat.values + added,
                dmat,
                "iterative",
                proof="blocks",
                iterations=iteration,
                min_eig_trace=tuple(trace),
            )
        for t, (patterns, _) in zip(stacks, blocks):
            t[...] = psd_project(t)
            t[patterns] = 1.0
            t[...] = symmetrize(t)
    raise BoundConvergenceError(
        f"no PSD fixed point after {max_iters} iterations (last min eigenvalue {trace[-1]:g})",
        trace,
    )


def cluster_bound(dmat: DesignMatrix, cluster_ids) -> BoundMatrix:
    """Cluster-randomization bound: same-cluster indicator added to all four blocks.

    Exact under the sharp null and PSD-tighter than the universal bound for
    complete randomization of clusters; identified when each arm receives at
    least two clusters.  ``cluster_ids`` are ids or a partition already made
    (a design's ``_assignment_groups``); given for a design in kind form, they
    must name its clusters.
    """
    clusters = cluster_ids if isinstance(cluster_ids, Groups) else _cluster_groups(cluster_ids)
    n = dmat.n
    if clusters.n != n:
        raise ValueError("cluster ids do not match the design size")
    if dmat._form is not None:
        d = dmat._form.values
        # The cross-arm entry is -1 for a unit with itself, for two units of
        # one group when the same-group kernel says so, and never for units
        # of different groups, whose cross-arm joint is positive.
        grouped = d.same[0, 1] == -1.0
        if not (d.unit[0, 1] == -1.0).all():
            raise ValueError("design is not complete randomization of these clusters")
        _check_clusters(clusters, d.groups if grouped else unit_groups(n))
        ones = np.ones((2, 2))
        added = GroupOperator(d.groups, np.broadcast_to(ones[:, :, None], d.unit.shape),
                              ones * grouped, np.zeros((2, 2)))
        return _certify_kinds(d.kindwise(np.add, added), dmat, "cluster")
    index = clusters.index
    same = (index[:, None] == index[None, :])
    # For complete randomization of clusters the cross-arm block is -1 exactly
    # on same-cluster pairs; anything else is not a cluster design.
    if not np.array_equal(dmat.block(0, 1) == -1.0, same):
        raise ValueError("design is not complete randomization of these clusters")
    # The added term is the Gram matrix [E; E][E; E]' of the stacked cluster
    # membership matrix E (same = EE'), hence PSD.
    block = same.astype(float)
    values = dmat.values + np.block([[block, block], [block, block]])
    return _certify(values, dmat, "cluster", proof="closed_form")


def check_bound_method(name: str) -> None:
    """Raise ValueError unless ``name`` is one of ``BOUND_METHODS``."""
    if name not in BOUND_METHODS:
        raise ValueError(f"unknown bound method {name!r}; choose from {', '.join(BOUND_METHODS)}")


def _check_max_iters(max_iters: int) -> None:
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")


def build_bound(
    name: str, design: Design, *, cluster_ids=None, max_iters: int = 500
) -> BoundMatrix:
    """Construct the bound named ``as``, ``iterative`` or ``cluster`` for a design.

    The cluster bound takes its clusters from ``cluster_ids`` or, when that is
    None, from a cluster-randomized design's own partition.
    """
    check_bound_method(name)
    _check_max_iters(max_iters)
    if name == "cluster" and cluster_ids is None:
        if design.kind != "cluster":
            raise ValueError("the cluster bound needs a cluster-randomized design")
        cluster_ids = design._assignment_groups
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
    vals = block_eigvals(diff)
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
    """Decide which bound is tighter, in the PSD order and under the sharp null.

    Each difference is eigendecomposed block by block over the connected
    components of its nonzero pattern.  Where neither bound adds anything both
    entries are the design matrix's, so the difference is exactly zero there
    and a slot outside every component contributes eigenvalue 0, as in the
    dense spectrum; ``eig_sum`` counts every component.
    """
    if not _same_joint(a.design_matrix, b.design_matrix):
        raise ValueError("bounds must be built over the same design")
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


def _observed_quadratic(bound: BoundMatrix, sys_design: Design, vector: np.ndarray,
                        indicator: np.ndarray, divisor: int) -> float:
    """Inverse-joint-probability weighted quadratic of ``vector`` on the observed slots."""
    bound._check_design(sys_design)
    return quadratic(bound._weighted, vector * indicator) / divisor**2


def bound_estimate_ht(bound: BoundMatrix, design: Design, observed: ObservedOutcomes) -> float:
    """Unbiased estimate of the bound quadratic from one realization.

    Each observed product is weighted by its reciprocal joint observation
    probability.  Individual draws can come out negative; only the mean is
    pinned to the bound.
    """
    observed, design, divisor = _system(observed, design, None)
    return _observed_quadratic(bound, design, observed.stacked(), observed.indicator(), divisor)


def bound_estimate_greg(bound: BoundMatrix, design: Design, observed: ObservedOutcomes,
                        spec: CovariateSpec, coefficient: CoefficientEstimate) -> float:
    """Plug-in bound estimate for a regression estimator: residuals replace outcomes.

    Exactly unbiased for the bound at a fixed coefficient; with an estimated
    coefficient it is a plug-in without an exactness guarantee.
    """
    sys_obs, sys_design, divisor = _system(observed, design, spec)
    residual = sys_obs.stacked() - spec.matrix @ coefficient.values
    return _observed_quadratic(bound, sys_design, residual, sys_obs.indicator(), divisor)


def bound_estimate_2r_borrowed(bound: BoundMatrix, design: Design, observed: ObservedOutcomes,
                               spec: CovariateSpec) -> float:
    """Borrowed bound estimate for the two-stage estimator.

    Estimates the bound-minimizing coefficient by the two-stage recursion run
    with the bound matrix standing in for the covariance structure, then
    plugs its residuals into the bound estimator.  The minimized bound still
    dominates the variance at the optimal coefficient, so pairing this with
    the two-stage point estimate keeps intervals conservative while typically
    much narrower than the plug-in alternative.
    """
    obs, divisor, sys_obs, sys_design = _observe(observed, design, spec)
    bound._check_design(sys_design)
    b = _coef("two_r", spec, bound._adjustment(spec), obs).values
    residual = sys_obs.stacked() - spec.matrix @ b
    return _observed_quadratic(bound, sys_design, residual, sys_obs.indicator(), divisor)


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


def precision_test(design: Design, observed: ObservedOutcomes, spec: CovariateSpec, b_f,
                   bound: BoundMatrix) -> PrecisionTestResult:
    """Test whether adjusting by the fixed coefficient ``b_f`` reduces variance.

    The variance difference decomposes into an identified part (estimable by
    inverse-probability weighting of a fixed derived vector) plus a known
    quadratic; the null of no improvement is rejected for large statistics.
    Fix the coefficient before seeing outcome data: this is a retrospective
    diagnostic, not a licence to pick adjustments after the fact.  The known
    quadratic is over the design matrix of ``design`` at the layout's level.
    """
    b_f = np.asarray(b_f, dtype=float)
    sys_obs, sys_design, divisor = _system(observed, design, spec)
    dmat = design_matrix(sys_design)
    fitted = spec.matrix @ b_f
    dxb = dmat.values @ fitted  # fixed 2r vector
    indicator = sys_obs.indicator()
    residual_obs = sys_obs.stacked() - fitted * indicator
    v_obs = 2.0 * dxb * residual_obs * indicator  # observed slots of the fixed vector v
    statistic = float((v_obs / sys_design.marginals).sum() / divisor)
    scaled_threshold = -float(fitted @ dmat.values @ fitted)
    threshold = scaled_threshold / divisor

    degenerate = bool(np.all(fitted == 0.0))
    var_est = _observed_quadratic(bound, sys_design, v_obs, indicator, divisor)
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
