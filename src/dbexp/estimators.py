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
``X'diag(w)X`` is the weights times the (group) sums of the rows' products on
grouped columns and for a cluster-total layout's 2m rows, formed only at the
entries the layout can hold (``CovariateSpec.structure``: a separate-slopes
layout's entries each lie in one arm's block and sum one arm's columns); on
the unit columns of a unit-level layout it is a direct product of the
weighted rows, O(n l l') with no (2n, l l') array.  Either way the normal
matrix is exactly zero off the layout's column blocks, and ``pinv_solve``
solves each block on its own.  The outcome rows of the layouts and of X'D are
computed once per :func:`batch_points` call.

One table, ``_METHODS``, says which weights each coefficient method fits with
and which stages it runs: a least-squares fit, 3HT, or both, which is 2R.
:func:`batch_points` runs it over a stack of assignments in blocks, for several
methods and layouts at once, one block after another, re-solving a failed
fit one realization at a time.  :func:`coef_by_name` and the ``coef_*``
functions run the same code on a stack of one.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from ._group import Groups, arm_slice, quadratic, unit_groups
from ._linalg import normal_system, pinv_solve
from .covariates import CovariateSpec
from .design import (
    AssignmentRealization,
    Design,
    DesignMatrix,
    StackedOutcomes,
    _check_clusters,
    _cluster_groups,
    _frozen,
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
        object.__setattr__(self, "outcomes", _frozen(y.copy()))

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
    """A point estimate and the coefficient it was adjusted at (None for HT)."""

    point: float
    coefficient: CoefficientEstimate | None


def coef_fixed(values, spec: CovariateSpec | None = None) -> CoefficientEstimate:
    values = np.asarray(values, dtype=float)
    if spec is not None and values.shape != (spec.n_columns,):
        raise ValueError("coefficient length must match the layout's column count")
    return CoefficientEstimate(values, "fixed")


# -- system resolution --------------------------------------------------------


def _varies(treated: np.ndarray, groups: Groups) -> np.ndarray:
    """Where a unit-level (R, n) 0/1 stack treats a unit unlike its group's first."""
    return treated != treated.take(groups.first[groups.index], axis=1)


def _by_group(treated: np.ndarray, groups: Groups):
    """A 0/1 stack at the level of ``groups``: its (R, m) group columns, and the
    rows that treat a group's units unlike, which need unit columns.  A stack
    of width n is one of units, whatever m is; one of width m < n holds group
    columns, which no row splits."""
    if treated.shape[1] != groups.n or groups.in_order:
        return treated, np.zeros(len(treated), dtype=bool)
    return treated.take(groups.first, axis=1), _varies(treated, groups).any(axis=1)


def _collapse(treated: np.ndarray, groups: Groups) -> np.ndarray:
    """Group-level (R, m) assignments of a unit-level (R, n) 0/1 stack."""
    varying = groups.index[_varies(treated, groups).any(axis=0)]
    if varying.size:
        raise ValueError(f"assignment varies within cluster {varying.min()}: not a cluster design")
    return treated.take(groups.first, axis=1)


def _at_level(spec: CovariateSpec | None, design: Design | None, data):
    """(design, data) at the level of the layout ``spec``: ``data`` is an
    observed realization or a full schedule.  A cluster-level layout collapses
    data on the n units of its partition, all-singleton clusters too; other
    data passes.  The layout's clusters must be the design's."""
    clusters = None if spec is None else spec.clusters
    if clusters is None or data.n != clusters.n:
        return design, data
    if design is not None:
        collapsed = cluster_level_design(design)  # only a cluster design has one
        _check_clusters(clusters, design._assignment_groups)
        design = collapsed
    if isinstance(data, ObservedOutcomes):
        z = _collapse(data.realization.assignment[None], clusters)[0]
        return design, ObservedOutcomes(clusters.totals(data.outcomes), AssignmentRealization(z))
    return design, _stack(data, clusters)


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
# it was computed in.  Each row is one BLAS matrix-vector product on a
# column-major operand: BLAS then takes one dot product per column, which for
# a layout's few columns runs 2-3 times faster than the row-major operand's
# column updates, and the rounding does not depend on the caller's memory
# order.  Kept operands (``_summed``, ``_Realizations.outcome_rows``) are
# stored column-major, so the products copy nothing.


def _rows(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``a @ m`` as one-row products, rounded alike whatever the number of rows
    and whatever the memory order of ``m``.  A matrix ``m`` is made
    column-major, a copy only if it is not already, so each row is one BLAS
    call that sums each column as one dot product; a stack of per-row matrices
    (..., k, p) is used as it is, since BLAS takes no column-major stack."""
    if m.ndim == 2:
        m = np.asfortranarray(m)
    return (a.reshape(-1, 1, a.shape[-1]) @ m).reshape(a.shape[:-1] + m.shape[-1:])


def _summed(store: dict, groups: Groups, left: np.ndarray, right: np.ndarray | None = None,
            pairs: Sequence[tuple] | None = None):
    """Group sums of the rows of ``left`` (2n, l), or, for each ``(arm, i, j)``
    of ``pairs``, those of the row-wise products ``left[:, i] * right[:, j]``
    on the arm's (arm, group) columns (:meth:`Groups.pair_sums`), kept in
    ``store`` for each grouping.  Products are summed only on grouped columns
    and for a cluster-total layout's 2m rows (:func:`_gram`), so none takes
    more than l' times the memory of the layout's rows.  Sums are kept
    column-major, the order :func:`_rows` takes.  A store serves one
    ``left``, ``right`` and ``pairs``."""
    key = (groups.key, right is None)
    if key not in store:
        store[key] = (np.asfortranarray(groups.sum(left)) if right is None else
                      [np.asfortranarray(sums) for sums in groups.pair_sums(left, right, pairs)])
    return store[key]


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
          cluster_rows: bool = False, pairs: Sequence[tuple] | None = None):
    """``left' diag(w) right`` (..., l, l') for each row of the weights ``w``
    (..., 2m) over the columns of ``groups``.  ``pairs`` are the entries that
    can be nonzero, as ``(arm, i, j)`` by the arm of the rows they sum
    (``CovariateSpec.structure``), by default every entry on both arms; with
    ``left is right`` the rest of the result is their mirror.

    On grouped columns, and for a layout of 2m cluster rows (``cluster_rows``),
    it is formed at ``pairs``: each weight row times the (group) sums of the
    row-wise products on the m columns of their arm (2m for both), one
    matrix-vector product per row and arm, set into a result that is exactly
    zero elsewhere.  A separate-slopes layout with four covariates forms 15
    of its 100 entries on each arm's columns.  On the unit columns of a
    unit-level layout, whose outer products would take l' times its memory,
    each weight row's product is one product of the weighted rows of
    ``left``, computed alike whatever the stack; l' rows run at a time, so
    the weighted rows hold no more entries than those outer products.

    The direct product is the faster for one weight row and the outer form for
    a stack of them, but a single fit and a stack must round alike, so the
    layout picks the form, not the stack: cluster-total layouts, whose 2m rows
    are small and which simulation fits in stacks, keep the outer form."""
    if cluster_rows or groups.m < groups.n:
        if pairs is None:
            pairs = [(None, *np.indices((left.shape[1], right.shape[1])).reshape(2, -1))]
        out = np.zeros(w.shape[:-1] + (left.shape[1], right.shape[1]))
        for (arm, i, j), sums in zip(pairs, _summed(store, groups, left, right, pairs)):
            out[..., i, j] = products = _rows(w[..., arm_slice(arm, groups.m)], sums)
            if left is right:
                out[..., j, i] = products
        return out
    a, b, rows = groups.sum(left).T, groups.sum(right), w.reshape(-1, w.shape[-1])
    step = max(1, b.shape[1])
    out = np.concatenate([(a * rows[i:i + step, None, :]) @ b for i in range(0, len(rows), step)])
    return out.reshape(w.shape[:-1] + out.shape[1:])


# a layout's shape, its Gram ``w -> X'diag(w)X``, its rows for ``w * scale`` (outcome_rows)
# and the column blocks of its Gram (``CovariateSpec.structure``; None is one block)
_System = namedtuple("_System", "shape gram xy blocks", defaults=(None,))


def _wls(x: _System, w: np.ndarray, wy: np.ndarray):
    """Weighted least squares ``X'diag(w)X b = X'wy``: coefficient(s),
    rank-deficiency flag(s) and certified flag(s).  Each normal matrix is
    solved by its inverse where that is certified, and every other matrix by
    an SVD whose cutoff, with ``w >= 0``, is relative: ``PINV_RCOND`` times
    the matrix's largest singular value; both run block by block."""
    return pinv_solve(x.gram(w), _rows(wy, x.xy), x.blocks)


def _ols(x: np.ndarray, y: np.ndarray):
    """Unweighted least squares of ``y`` on the columns of ``x``."""
    gram = partial(_gram, {}, unit_groups(x.shape[0]), left=x, right=x)
    return _wls(_System(x.shape, gram, x), np.ones(x.shape[0]), y)


def _three_ht(cache: "AdjustmentCache", obs: "_Realizations") -> np.ndarray:
    """Unbiased optimal-coefficient estimate(s)."""
    return _rows(_rows(obs.w * obs.scale, obs.outcome_rows(cache.dx)), cache.xdx_pinv.T)


def _two_r(spec: CovariateSpec, cache, obs: "_Realizations", b3: np.ndarray, b_wls: np.ndarray):
    """Two-stage coefficient(s): 3HT minus its estimated drift at the WLS fit.
    ``spec``, not ``cache.spec`` (an equal matrix), sets the drift's product form."""
    drift = _gram(cache._sums, obs.groups, obs.w, cache.dx, spec.matrix,
                  spec.level == "cluster", spec.structure.cross_pairs) - cache.xdx
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
    """R realizations (an (R, m) boolean stack, one column per group) on the
    (arm, group) columns of ``groups``: (R, 2m) indicators, weights ``w`` given
    the marginals, and sums ``y`` of the signed outcomes (2n,).  A sum over
    units of ``w_i y_i v_i`` is ``_rows(w * scale, outcome_rows(v))``: with one
    unit per group ``scale`` is ``y`` and the rows are v's, so each unit's
    weighted outcome is rounded as on unit columns; otherwise ``scale`` is 1
    and the rows sum ``y_i v_i``.  Each is built on first read: the bound
    estimates read none of them.  The outcome rows of each array ``v`` are
    kept column-major in ``kept``, which the blocks of one schedule share."""

    def __init__(self, groups: Groups, treated: np.ndarray, marginals: np.ndarray | None,
                 signed: np.ndarray, kept: dict | None = None):
        self.groups, self.treated, self.signed = groups, treated, signed
        self.kept = {} if kept is None else kept
        if marginals is not None:
            self.marginals = (marginals if groups.in_order
                              else marginals.reshape(2, -1)[:, groups.first].ravel())

    @cached_property
    def indicator(self) -> np.ndarray:
        return np.concatenate([~self.treated, self.treated], axis=1).astype(float)

    @cached_property
    def w(self) -> np.ndarray:
        return self.indicator / self.marginals

    @cached_property
    def y(self) -> np.ndarray:
        return self.groups.sum(self.signed)

    @cached_property
    def scale(self):
        return self.y if self.groups.m == self.groups.n else 1.0

    def outcome_rows(self, v: np.ndarray) -> np.ndarray:
        key = (self.groups.key, id(v))  # the entry holds v, so its id is not reused
        if key not in self.kept:
            grouped = self.groups.m < self.groups.n
            rows = self.groups.sum(self.signed[:, None] * v if grouped else v)
            self.kept[key] = v, np.asfortranarray(rows)
        return self.kept[key][1]

    def weights(self, kind: str) -> np.ndarray:
        """Fit weights 1, 1/pi or 1/pi - 1 on the observed columns."""
        if kind == "inverse":
            return self.w
        if kind == "minority":
            return self.indicator * (1.0 / self.marginals - 1.0)
        return self.indicator


def _observe(observed: ObservedOutcomes, design: Design | None, spec: CovariateSpec | None):
    """One realization at the layout's level, the divisor, and the data and design
    at that level: the one way a single fit reaches its layout's level.  The
    divisor is the layout's, or the number of units without one; an assignment
    the design cannot draw runs on unit columns."""
    sys_design, sys_obs = _at_level(spec, design, observed)
    if sys_design is not None and sys_obs.n != sys_design.n:
        raise ValueError("observed data and design sizes disagree")
    if spec is not None and sys_obs.n != spec.rows_per_arm:
        raise ValueError("observed data and layout sizes disagree")
    divisor = sys_obs.n if spec is None else spec.divisor
    treated = sys_obs.realization.assignment[None] == 1
    groups = unit_groups(sys_obs.n) if sys_design is None else sys_design._assignment_groups
    grouped, split = _by_group(treated, groups)
    if split[0]:
        groups, grouped = unit_groups(sys_obs.n), treated
    marginals = None if sys_design is None else sys_design.marginals
    signed = np.concatenate([-sys_obs.outcomes, sys_obs.outcomes])
    return _Realizations(groups, grouped, marginals, signed), divisor, sys_obs, sys_design


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
            unit_groups(obs.groups.n), obs.treated.take(obs.groups.index, axis=1), None,
            obs.signed, obs.kept)
        w = o.weights(kind)
        gram = partial(_gram, spec._sums, o.groups, left=x, right=x,
                       cluster_rows=spec.level == "cluster", pairs=spec.structure.gram_pairs)
        system = _System(x.shape, gram, o.outcome_rows(x), spec.structure.blocks)
        fits[kind] = _fit(system, w, w * o.scale)
    b3 = _three_ht(cache, obs) if any(_METHODS[m][1] for m in methods) else None
    unflagged = np.zeros(len(obs.treated), dtype=bool)
    out = {}
    for method in methods:
        kind, runs_3ht = _METHODS[method]
        b, *flags = fits[kind] if kind else (b3, unflagged, unflagged, unflagged)
        out[method] = (_two_r(spec, cache, obs, b3, b) if kind and runs_3ht else b, *flags)
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
    obs, divisor = _observe(observed, design, spec)[:2]
    ht = _ht(obs.w * obs.y, divisor)[0]
    if coefficient is None:
        return AteEstimate(float(ht), None)
    if spec is None:
        raise ValueError("a coefficient needs a covariate layout")
    b = coefficient.values
    if b.shape != (spec.n_columns,):
        raise ValueError("coefficient length must match the layout's column count")
    adjustment = _adjustment(_summed(spec._sums, obs.groups, spec.matrix), obs.w, divisor)[0]
    return AteEstimate(float(_conjugate(ht, adjustment, b)), coefficient)


def greg_forms(observed: ObservedOutcomes, design: Design, spec: CovariateSpec,
               coefficient: CoefficientEstimate) -> dict:
    """All three algebraic forms of the regression estimate, for cross-checks.

    ``weighted_residual_term`` is the inverse-probability mean of observed
    residuals; it vanishes exactly in the estimator/design/layout combinations
    covered by the intercept-contrast identity.
    """
    _, divisor, sys_obs, sys_design = _observe(observed, design, spec)
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
    _, outcomes = _at_level(spec, None, outcomes)
    if dmat.n != spec.rows_per_arm:
        raise ValueError("design matrix level does not match the layout")
    u = outcomes.values - spec.matrix @ b
    return quadratic(dmat.core, u) / spec.divisor**2


# -- stacks of assignments -------------------------------------------------------

_BLOCK = 200  # realizations per stacked solve; larger blocks raise peak memory


@dataclass(frozen=True)
class BatchPoints:
    """Results of :func:`batch_points`, each of shape (R, methods, layouts).  ``rank_deficient``
    flags a method's least-squares fit (3HT has none); ``certified`` marks a fit solved by
    its certified inverse rather than an SVD; ``failed`` marks a fit that raised
    ``LinAlgError`` even when solved alone, whose point is NaN."""

    points: np.ndarray
    rank_deficient: np.ndarray
    certified: np.ndarray
    failed: np.ndarray


def batch_points(design: Design, outcomes: StackedOutcomes, treated, specs, methods) -> BatchPoints:
    """Point estimates of coefficient methods over a stack of assignments.

    ``treated`` is a 0/1 stack of assignments, revealed against the full
    schedule ``outcomes``: (R, n), one column per unit, or, for a design whose
    assignment groups are coarser than its units, (R, m), one column per group,
    which for a cluster design is one per cluster in ascending id order, the
    order of :func:`~dbexp.covariates.cluster_totals`.  Width n always means
    units, so a design of singleton clusters takes unit columns.  Either stack
    is brought to group columns once, here; the rows of an (R, n) stack that
    treat a group's units unlike run on unit columns, as each does alone.  So
    a caller that draws whole clusters holds O(R m) assignments, not O(R n).
    ``specs`` are layouts of one level (unit, or cluster with shared cluster
    ids); ``methods`` are names from :data:`COEFFICIENT_METHODS` other than
    ``fixed``.  Each point equals :func:`greg` at the method's ``coef_*``
    coefficient for that assignment alone.
    """
    specs, methods = tuple(specs), tuple(methods)
    groups = design._assignment_groups
    z = np.asarray(treated)
    widths = dict.fromkeys((design.n, groups.m))
    if z.ndim != 2 or z.shape[1] not in widths or not _zero_one(z):
        shapes = " or ".join(f"(R, {width})" for width in widths)
        raise ValueError(f"treated must be an {shapes} stack of 0/1 assignments")
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
    sys_design, outcomes = _at_level(specs[0] if specs else None, design, outcomes)
    if any(spec.rows_per_arm != sys_design.n for spec in specs):
        raise ValueError("layout and design sizes disagree")
    if sys_design is design:
        grouped, split = _by_group(z, groups)
    else:  # cluster-level layouts: the collapsed design's units are the layouts' clusters
        clusters = specs[0].clusters
        grouped = (_collapse(z, clusters) if z.shape[1] == design.n
                   else z.take(groups.index[clusters.first], axis=1))
        groups, split = sys_design._assignment_groups, np.zeros(len(z), dtype=bool)
    runs_3ht = any(_METHODS[m][1] for m in methods)
    caches = [AdjustmentCache.build(spec, design) if runs_3ht else None for spec in specs]
    divisors = [spec.divisor for spec in specs]

    shape = (z.shape[0], len(methods), len(specs))
    points = np.empty(shape)
    rank_deficient, certified, failed = (np.zeros(shape, bool) for _ in range(3))
    # assignments that treat a group's units unlike, which the design cannot
    # draw, run on unit columns, as each does alone
    blocks = [(columns, stack, where[start:start + _BLOCK])
              for columns, stack, where in ((groups, grouped, np.flatnonzero(~split)),
                                            (unit_groups(sys_design.n), z, np.flatnonzero(split)))
              for start in range(0, where.size, _BLOCK)]

    kept = {}  # the outcome rows of the layouts and of X'D, built once for all blocks
    for columns, stack, rows in blocks:
        obs = _Realizations(columns, stack[rows], sys_design.marginals, outcomes.values, kept)
        ht = {divisor: _ht(obs.w * obs.y, divisor) for divisor in dict.fromkeys(divisors)}
        for s, (spec, cache, divisor) in enumerate(zip(specs, caches, divisors)):
            adjustment = _adjustment(_summed(spec._sums, columns, spec.matrix), obs.w, divisor)
            fits = _coefficients(methods, spec, cache, obs)
            for m, method in enumerate(methods):
                b, rank_deficient[rows, m, s], certified[rows, m, s], failed[rows, m, s] = (
                    fits[method])
                points[rows, m, s] = _conjugate(ht[divisor], adjustment, b)
    return BatchPoints(points, rank_deficient, certified, failed)


# -- coefficient estimators ----------------------------------------------------


@dataclass(frozen=True)
class AdjustmentCache:
    """Write-once normal system ``X'(core)X`` of a layout X over a core.

    The core is the design's covariance structure D for the optimal-coefficient
    estimators, or a bound matrix for the bound-targeting two-stage
    coefficient.  The owner of a core, a :class:`DesignMatrix` or a bound,
    keeps the system of the last layout it served (:func:`_system`).
    ``rank_deficient`` says whether ``X'(core)X`` was deficient at the
    anchored cutoff.
    """

    spec: CovariateSpec
    xdx: np.ndarray
    xdx_pinv: np.ndarray
    xd: np.ndarray
    rank_deficient: bool
    # the 2R drift's group sums, kept for each grouping of the layout's rows
    _sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def dx(self) -> np.ndarray:
        """``(X'D)'``: one array, so the outcome rows kept for it are found again."""
        return self.xd.T

    @classmethod
    def build(cls, spec: CovariateSpec, design: Design) -> "AdjustmentCache":
        """The layout's system over D at its level, as that design matrix keeps it."""
        sys_design = cluster_level_design(design) if spec.level == "cluster" else design
        return _system(design_matrix(sys_design), spec)

    @classmethod
    def over(cls, spec: CovariateSpec, core) -> "AdjustmentCache":
        """The system over ``core``, a dense array or a kind-form operator, built anew."""
        xd, xdx, xdx_pinv, deficient = normal_system(spec.matrix, core)
        return cls(spec=spec, xdx=xdx, xdx_pinv=xdx_pinv, xd=xd, rank_deficient=deficient)


def _system(owner, spec: CovariateSpec) -> AdjustmentCache:
    """The layout's system over ``owner.core`` (a design matrix's D or a bound), kept
    by the owner for its last layout: the same layout object or an equal matrix."""
    system = owner.__dict__.get("_system")
    if system is None or (
        system.spec is not spec and not np.array_equal(system.spec.matrix, spec.matrix)
    ):
        system = AdjustmentCache.over(spec, owner.core)
        owner.__dict__["_system"] = system
    return system


def coef_by_name(method: str, spec: CovariateSpec, observed: ObservedOutcomes,
                 design: Design | None = None):
    """The coefficient of ``method`` (any but ``fixed``) for one realization: the
    method table on a stack of one.  ``ols`` and ``ols_cluster_totals`` need no
    design; 3HT and 2R run over the normal system that the design's matrix keeps
    for its last layout.  A fit that fails raises ``LinAlgError``."""
    _check_method(method, spec)
    kind, runs_3ht = _METHODS[method]
    if design is None and (runs_3ht or kind != "indicator"):
        raise ValueError(f"the {method} coefficient needs the design")
    system = AdjustmentCache.build(spec, design) if runs_3ht else None
    return _coef(method, spec, system, _observe(observed, design, spec)[0])


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


def coef_3ht(spec: CovariateSpec, observed: ObservedOutcomes, design: Design):
    """Unbiased optimal-coefficient estimator built from weighted indicators.

    Its mean over the design equals the variance-minimizing coefficient, but
    it inherits inverse-probability imprecision; prefer the two-stage
    estimator for point estimation.  Its normal system X'DX is the one the
    design's matrix keeps for its last layout (:func:`coef_by_name`).
    """
    return coef_by_name("three_ht", spec, observed, design)


def coef_2r(spec: CovariateSpec, observed: ObservedOutcomes, design: Design):
    """Two-stage optimal coefficient: regression-adjust the unbiased estimator.

    The first stage is reciprocal-probability weighted least squares; the
    second stage removes its estimated deviation using the same adjustment
    principle, which restores location/scale invariance of the conjugate
    point estimate.  ``rank_deficient`` is the first stage's flag.  Its X'DX
    is the normal system the design's matrix keeps for its last layout.
    """
    return coef_by_name("two_r", spec, observed, design)


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
