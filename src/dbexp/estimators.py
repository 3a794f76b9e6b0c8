"""Point estimation: inverse-probability estimators and regression adjustment.

Every coefficient estimator here induces a conjugate average-effect estimator
through the same identity: the inverse-probability point estimate minus the
covariate adjustment term.  Cluster-total layouts run through identical code
on the collapsed m-cluster system while keeping the individual count as the
divisor.  Unit-level data reaches a layout's level only through ``_at_level``,
by the layout's partition (``CovariateSpec.clusters``) and ``Groups.totals``.

Products run over (arm, group) columns.  A cluster design treats each
cluster's units alike, so a unit-level layout is summed by cluster once per
grouping and a realization costs 2m columns, not 2n; any other design's groups
are its units, whose sums are the layout's own rows.  A weighted Gram product
``X'diag(w)X`` is the weights times the (group) sums of the rows' outer
products on grouped columns and for a cluster-total layout's 2m rows; on the
unit columns of a unit-level layout it is a direct product of the weighted
rows, O(n l l') with no (2n, l l') array.

One table, ``_METHODS``, says which weights each coefficient method fits with
and which stages it runs: a least-squares fit, 3HT, or both, which is 2R.
:func:`batch_points` runs it over a stack of assignments in blocks, for several
methods and layouts at once, re-solving a failed fit one realization at a
time; the blocks run concurrently on the process's CPUs, each into its own
rows, so the results do not depend on how many run at once.
:func:`coef_by_name` and the ``coef_*`` functions run the same code on a stack
of one.
"""

from __future__ import annotations

import os
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._group import Groups, quadratic, unit_groups
from ._linalg import certified_inverse, normal_system, pinv_solve
from .covariates import CovariateSpec
from .design import (
    AssignmentRealization,
    Design,
    DesignMatrix,
    StackedOutcomes,
    _check_clusters,
    _cluster_groups,
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
        treated, y = self.realization.assignment == 1, self.outcomes
        return np.concatenate([np.where(treated, 0.0, -y), np.where(treated, y, 0.0)])


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


def _varies(treated: np.ndarray, groups: Groups) -> np.ndarray:
    """Where a unit-level (R, n) 0/1 stack treats a unit unlike its group's first."""
    return treated != treated.take(groups.first[groups.index], axis=1)


def _collapse(treated: np.ndarray, groups: Groups) -> np.ndarray:
    """Group-level (R, m) assignments of a unit-level (R, n) 0/1 stack."""
    varying = groups.index[_varies(treated, groups).any(axis=0)]
    if varying.size:
        raise ValueError(f"assignment varies within cluster {varying.min()}: not a cluster design")
    return treated.take(groups.first, axis=1)


def _at_level(spec: CovariateSpec | None, design: Design | None, data, treated=None):
    """(design, data, treated) at the level of the layout ``spec``: ``data`` is
    an observed realization, or a full schedule with ``treated``, an (R, n)
    assignment stack or None.  A cluster-level layout collapses data on the n
    units of its partition, all-singleton clusters too; other data passes.  The
    layout's clusters must be the design's."""
    clusters = None if spec is None else spec.clusters
    if clusters is None or data.n != clusters.n:
        return design, data, treated
    if design is not None:
        collapsed = cluster_level_design(design)[0]  # only a cluster design has one
        _check_clusters(clusters, design._assignment_groups)
        design = collapsed
    if isinstance(data, ObservedOutcomes):
        z = _collapse(data.realization.assignment[None], clusters)[0]
        data = ObservedOutcomes(clusters.totals(data.outcomes), AssignmentRealization(z))
    else:
        data = _stack(data, clusters)
        treated = None if treated is None else _collapse(treated, clusters)
    return design, data, treated


def _system(observed: ObservedOutcomes, design: Design | None, spec: CovariateSpec | None):
    """Return (observed, design, divisor) at the level the layout expects."""
    design, observed, _ = _at_level(spec, design, observed)
    if design is not None and observed.n != design.n:
        raise ValueError("observed data and design sizes disagree")
    if spec is not None and observed.n != spec.rows_per_arm:
        raise ValueError("observed data and layout sizes disagree")
    return observed, design, spec.divisor if spec is not None and spec.divisor else observed.n


def stack_clusters(outcomes: StackedOutcomes, cluster_ids) -> StackedOutcomes:
    """Collapse a full schedule to cluster totals (oracle convenience)."""
    return _stack(outcomes, _cluster_groups(cluster_ids))


def _stack(outcomes: StackedOutcomes, clusters: Groups) -> StackedOutcomes:
    """A full schedule's cluster totals."""
    return StackedOutcomes.from_arms(clusters.totals(outcomes.control),
                                     clusters.totals(outcomes.treated))


# -- estimator arithmetic -----------------------------------------------------
# One implementation of each estimator.  A realization's weights are constant
# on the design's assignment groups (clusters, else single units), so every
# product runs over the 2m (arm, group) columns: (R, 2m) weights ``w`` against
# a layout's rows summed by group once (``_summed``), row by row (``_rows``,
# and ``_gram``'s stacked products), so a result does not depend on the block
# it was computed in.


def _rows(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``a @ m`` as one-row products, rounded alike whatever the number of rows."""
    return (a.reshape(-1, 1, a.shape[-1]) @ m).reshape(a.shape[:-1] + m.shape[-1:])


def _summed(store: dict, groups: Groups, left: np.ndarray, right: np.ndarray | None = None):
    """Group sums of the rows of ``left`` (2n, l), or of their outer products
    with the rows of ``right``, kept in ``store`` for a grouping with fewer
    groups than units (the outer products of unit rows take l' times the
    layout's memory, so they are rebuilt instead)."""
    key = (groups.key, right is None)
    if key in store:
        return store[key]
    sums = groups.sum(left) if right is None else groups.outer_sums(left, right)
    if groups.m < groups.n:
        store[key] = sums
    return sums


def _ht(wy: np.ndarray, divisor: int) -> np.ndarray:
    """Inverse-probability (Horvitz-Thompson) estimate(s) from weighted outcome sums."""
    return _rows(wy, np.ones((wy.shape[-1], 1)))[..., 0] / divisor


def _adjustment(x: np.ndarray, w: np.ndarray, divisor: int) -> np.ndarray:
    """Zero-mean adjustment-term vector(s) ``(w - 1) @ X / divisor``."""
    return _rows(w - 1.0, x) / divisor


def _conjugate(ht: np.ndarray, adjustment: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Regression estimate(s): HT minus the adjustment term at coefficient(s) ``b``."""
    return ht - (adjustment * b).sum(axis=-1)


def _gram(store: dict, groups: Groups, w: np.ndarray, left: np.ndarray, right: np.ndarray,
          cluster_rows: bool = False):
    """``left' diag(w) right`` (..., l, l') for each row of the weights ``w``
    (..., 2m) over the columns of ``groups``.

    On grouped columns, and for a layout of 2m cluster rows (``cluster_rows``),
    it is each weight row times the (group) sums of the row-wise outer
    products, 2m l l' entries, one matrix-vector product per row.  On the unit
    columns of a unit-level layout, whose outer products would take l' times
    its memory, each weight row's product is one product of the weighted rows
    of ``left``, computed alike whatever the stack; l' rows run at a time, so
    the weighted rows hold no more entries than those outer products.

    The direct product is the faster for one weight row and the outer form for
    a stack of them, but a single fit and a stack must round alike, so the
    layout picks the form, not the stack: cluster-total layouts, whose 2m rows
    are small and which simulation fits in stacks, keep the outer form."""
    if cluster_rows or groups.m < groups.n:
        outer = _summed(store, groups, left, right)
        return _rows(w, outer).reshape(w.shape[:-1] + (left.shape[1], right.shape[1]))
    a, b, rows = groups.sum(left).T, groups.sum(right), w.reshape(-1, w.shape[-1])
    step = max(1, b.shape[1])
    out = np.concatenate([(a * rows[i:i + step, None, :]) @ b for i in range(0, len(rows), step)])
    return out.reshape(w.shape[:-1] + out.shape[1:])


# a layout's shape, its Gram ``w -> X'diag(w)X``, its rows for ``w * scale``
# (outcome_rows) and whether its fits attempt the certified inverse (_certifiable)
_System = namedtuple("_System", "shape gram xy certify")


def _wls(x: _System, w: np.ndarray, wy: np.ndarray):
    """Weighted least squares ``X'diag(w)X b = X'wy``: coefficient(s),
    rank-deficiency flag(s) and certified flag(s).  A layout that passes
    :func:`_certifiable` solves each normal matrix by its inverse where that is
    certified, and every other matrix by an SVD whose cutoff, with ``w >= 0``,
    is relative: ``PINV_RCOND`` times the matrix's largest singular value.  A
    layout that fails the gate never attempts the inverse.  Its columns are
    (near) dependent, as are the simulation study's cluster totals of
    covariate sets 2-4, and then so are those of every weighted normal matrix,
    so the attempt would be wasted.  The gate only saves work: each matrix's
    own certificate decides its route, and its flags are the SVD's."""
    return pinv_solve(x.gram(w), _rows(wy, x.xy), x.certify)


def _certifiable(spec: CovariateSpec) -> bool:
    """Whether the layout's own ``X'X`` passes the inverse's certificate; kept
    with the layout, so a single fit and every block take the same route."""
    if "certified" not in spec._sums:
        x = spec.matrix
        spec._sums["certified"] = bool(certified_inverse((x.T @ x)[None])[1][0])
    return spec._sums["certified"]


def _ols(x: np.ndarray, y: np.ndarray):
    """Unweighted least squares of ``y`` on the columns of ``x``; its one normal
    matrix is the layout's own ``X'X``, so the attempt is its own gate."""
    gram = partial(_gram, {}, unit_groups(x.shape[0]), left=x, right=x)
    return _wls(_System(x.shape, gram, x, True), np.ones(x.shape[0]), y)


def _three_ht(cache: "AdjustmentCache", obs: "_Realizations") -> np.ndarray:
    """Unbiased optimal-coefficient estimate(s)."""
    return _rows(_rows(obs.w * obs.scale, obs.outcome_rows(cache.xd.T)), cache.xdx_pinv.T)


def _two_r(cache: "AdjustmentCache", obs: "_Realizations", b3: np.ndarray, b_wls: np.ndarray):
    """Two-stage coefficient(s): 3HT minus its estimated drift at the WLS fit."""
    drift = _gram(cache._sums, obs.groups, obs.w, cache.xd.T, cache.spec.matrix,
                  cache.spec.level == "cluster") - cache.xdx
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
    """R realizations (an (R, n) boolean stack) on the (arm, group) columns of
    ``groups``: (R, 2m) indicators, weights ``w`` given the marginals, and sums
    ``y`` of the signed outcomes (2n,).  A sum over units of ``w_i y_i v_i`` is
    ``_rows(w * scale, outcome_rows(v))``: with one unit per group ``scale`` is
    ``y`` and the rows are v's, so each unit's weighted outcome is rounded as on
    unit columns; otherwise ``scale`` is 1 and the rows sum ``y_i v_i``."""

    def __init__(self, groups: Groups, treated: np.ndarray, marginals: np.ndarray | None,
                 signed: np.ndarray):
        self.groups, self.treated, self.signed = groups, treated, signed
        t = treated if groups.in_order else treated.take(groups.first, axis=1)
        self.indicator = np.concatenate([~t, t], axis=1).astype(float)
        if marginals is not None:
            self.marginals = (marginals if groups.in_order
                              else marginals.reshape(2, -1)[:, groups.first].ravel())
            self.w = self.indicator / self.marginals
        self.y = groups.sum(signed)
        self.scale = self.y if groups.m == groups.n else 1.0

    def outcome_rows(self, v: np.ndarray) -> np.ndarray:
        return self.groups.sum(v if self.groups.m == self.groups.n else self.signed[:, None] * v)

    def weights(self, kind: str) -> np.ndarray:
        """Fit weights 1, 1/pi or 1/pi - 1 on the observed columns."""
        if kind == "inverse":
            return self.w
        if kind == "minority":
            return self.indicator * (1.0 / self.marginals - 1.0)
        return self.indicator


def _observe(observed: ObservedOutcomes, design: Design | None, spec: CovariateSpec | None):
    """One realization at the layout's level, the divisor, and the data and design
    at that level; an assignment the design cannot draw runs on unit columns."""
    sys_obs, sys_design, divisor = _system(observed, design, spec)
    treated = sys_obs.realization.assignment[None] == 1
    groups = unit_groups(sys_obs.n) if sys_design is None else sys_design._assignment_groups
    if not groups.in_order and _varies(treated, groups).any():
        groups = unit_groups(sys_obs.n)
    marginals = None if sys_design is None else sys_design.marginals
    signed = np.concatenate([-sys_obs.outcomes, sys_obs.outcomes])
    return _Realizations(groups, treated, marginals, signed), divisor, sys_obs, sys_design


def _fit(x: _System, w: np.ndarray, wy: np.ndarray):
    """Stacked ``_wls`` fits with rank-deficiency, certified and failure flags;
    a stack whose solve raises ``LinAlgError`` is re-solved one realization at
    a time, and one that fails alone gets NaN coefficients."""
    try:
        return (*_wls(x, w, wy), np.zeros(len(w), dtype=bool))
    except np.linalg.LinAlgError:
        if len(w) == 1:
            unflagged = np.zeros(1, bool)
            return np.full((1, x.shape[1]), np.nan), unflagged, unflagged, np.ones(1, bool)
    fits = [_fit(x, w[i : i + 1], wy[i : i + 1]) for i in range(len(w))]
    return tuple(np.concatenate(parts) for parts in zip(*fits))


def _coefficients(methods, spec: CovariateSpec, cache, obs: _Realizations) -> dict:
    """``method -> (b, rank_deficient, certified, failed)`` stacks on one
    layout.  Each fit weighting and 3HT runs once, and 2R reuses both; 3HT has
    no fit, so its flags are False.  The indicator-weighted fit needs no
    design, so it runs on unit columns, as it does without one."""
    fits, x = {}, spec.matrix
    for kind in dict.fromkeys(_METHODS[m][0] for m in methods if _METHODS[m][0]):
        o = obs if kind != "indicator" or obs.groups.in_order else _Realizations(
            unit_groups(obs.groups.n), obs.treated, None, obs.signed)
        w = o.weights(kind)
        gram = partial(_gram, spec._sums, o.groups, left=x, right=x,
                       cluster_rows=spec.level == "cluster")
        system = _System(x.shape, gram, o.outcome_rows(x), _certifiable(spec))
        fits[kind] = _fit(system, w, w * o.scale)
    b3 = _three_ht(cache, obs) if any(_METHODS[m][1] for m in methods) else None
    unflagged = np.zeros(len(obs.indicator), dtype=bool)
    out = {}
    for method in methods:
        kind, runs_3ht = _METHODS[method]
        b, *flags = fits[kind] if kind else (b3, unflagged, unflagged, unflagged)
        out[method] = (_two_r(cache, obs, b3, b) if kind and runs_3ht else b, *flags)
    return out


# -- point estimators ----------------------------------------------------------


def ht_ate(observed: ObservedOutcomes, design: Design) -> float:
    """Inverse-probability (Horvitz-Thompson) estimate of the average effect."""
    return greg(observed, design).point


def ht_cov_means(spec: CovariateSpec, realization: AssignmentRealization, design: Design):
    """Zero-mean adjustment-term vector: weighted minus full covariate sums."""
    dummy = ObservedOutcomes(np.zeros(realization.n), realization)
    obs, divisor = _observe(dummy, design, spec)[:2]
    return _adjustment(_summed(spec._sums, obs.groups, spec.matrix), obs.w, divisor)[0]


def greg(observed: ObservedOutcomes, design: Design, spec: CovariateSpec | None = None,
         coefficient: CoefficientEstimate | None = None) -> AteEstimate:
    """Generalized regression estimate: point = HT - (adjustment term) @ b."""
    obs, divisor, sys_obs, _ = _observe(observed, design, spec)
    indicator = sys_obs.indicator()
    stacked = sys_obs.stacked()
    ht = _ht(obs.w * obs.y, divisor)[0]
    if coefficient is None:
        return AteEstimate(float(ht), None, stacked, indicator.astype(bool), divisor)
    if spec is None:
        raise ValueError("a coefficient needs a covariate layout")
    b = coefficient.values
    if b.shape != (spec.n_columns,):
        raise ValueError("coefficient length must match the layout's column count")
    adjustment = _adjustment(_summed(spec._sums, obs.groups, spec.matrix), obs.w, divisor)[0]
    point = float(_conjugate(ht, adjustment, b))
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
    _, outcomes, _ = _at_level(spec, None, outcomes)
    if dmat.n != spec.rows_per_arm:
        raise ValueError("design matrix level does not match the layout")
    divisor = spec.divisor or outcomes.n
    u = outcomes.values - spec.matrix @ b
    return quadratic(dmat.core, u) / divisor**2


# -- stacks of assignments -------------------------------------------------------

_BLOCK = 200  # realizations per stacked solve; larger blocks raise peak memory


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


@dataclass(frozen=True)
class BatchPoints:
    """Results of :func:`batch_points`, each of shape (R, methods, layouts).  ``rank_deficient``
    flags a method's least-squares fit (3HT has none); ``certified`` marks a fit solved by
    its certified inverse rather than an SVD; ``failed`` marks a fit that raised
    ``LinAlgError`` even when solved alone, whose point is NaN.  ``workers`` is the
    number of threads that ran the blocks; the results do not depend on it."""

    points: np.ndarray
    rank_deficient: np.ndarray
    certified: np.ndarray
    failed: np.ndarray
    workers: int = field(compare=False)


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
    if len({spec.clusters.key for spec in specs if spec.clusters is not None}) > 1:
        raise ValueError("the cluster-level layouts of one call must share their clusters")
    sys_design, outcomes, z = _at_level(specs[0] if specs else None, design, outcomes, z)
    if any(spec.rows_per_arm != sys_design.n for spec in specs):
        raise ValueError("layout and design sizes disagree")
    runs_3ht = any(_METHODS[m][1] for m in methods)
    caches = [AdjustmentCache.build(spec, design) if runs_3ht else None for spec in specs]
    divisors = [spec.divisor or design.n for spec in specs]

    shape = (z.shape[0], len(methods), len(specs))
    points = np.empty(shape)
    rank_deficient, certified, failed = (np.zeros(shape, bool) for _ in range(3))
    # assignments that treat a group's units unlike, which the design cannot
    # draw, run on unit columns, as each does alone
    groups = sys_design._assignment_groups
    split = np.zeros(z.shape[0], bool) if groups.in_order else _varies(z, groups).any(axis=1)
    blocks = [(columns, where[start:start + _BLOCK])
              for columns, where in ((groups, np.flatnonzero(~split)),
                                     (unit_groups(sys_design.n), np.flatnonzero(split)))
              for start in range(0, where.size, _BLOCK)]

    def run(share):
        """Each block of ``share``, written to its own rows of the results."""
        for columns, rows in share:
            obs = _Realizations(columns, z[rows], sys_design.marginals, outcomes.values)
            ht = {divisor: _ht(obs.w * obs.y, divisor) for divisor in dict.fromkeys(divisors)}
            for s, (spec, cache, divisor) in enumerate(zip(specs, caches, divisors)):
                adjustment = _adjustment(_summed(spec._sums, columns, spec.matrix), obs.w, divisor)
                fits = _coefficients(methods, spec, cache, obs)
                for m, method in enumerate(methods):
                    b, rank_deficient[rows, m, s], certified[rows, m, s], failed[rows, m, s] = (
                        fits[method])
                    points[rows, m, s] = _conjugate(ht[divisor], adjustment, b)

    # The first block fills the group sums kept on the layouts and caches;
    # the rest are dealt out in turn to this thread and a pool of workers - 1.
    run(blocks[:1])
    rest = blocks[1:]
    workers = max(1, min(len(rest), _cpus()))
    shares = [rest[k::workers] for k in range(workers)]
    # imported here: at the top it would add about 8 ms to every import of dbexp
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max(1, workers - 1)) as pool:  # no thread starts unless submitted
        pending = [pool.submit(run, share) for share in shares[1:]]
        run(shares[0])
        for done in pending:
            done.result()
    return BatchPoints(points, rank_deficient, certified, failed, workers)


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
    # the 2R drift's group sums, kept for each grouping of the layout's rows
    _sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    return _coef(method, spec, cache, _observe(observed, design, spec)[0])


def _coef(method: str, spec: CovariateSpec, cache, obs: _Realizations) -> CoefficientEstimate:
    """:func:`coef_by_name` on a realization already at the layout's level."""
    b, deficient, _, failed = _coefficients((method,), spec, cache, obs)[method]
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
