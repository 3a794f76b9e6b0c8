"""Population-level optimal coefficients.

These need the full potential-outcome schedule, so they serve as oracles for
optimality tests and as inputs to bound tightening, not as estimators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import normal_system
from .covariates import CovariateSpec
from .design import Design, DesignMatrix, StackedOutcomes, design_matrix
from .estimators import _at_level, _ols

FOC_RTOL = 1e-8
PINV_FLOOR = 1e-12


@dataclass(frozen=True)
class OptimalCoefficient:
    values: np.ndarray
    objective: str  # "true_variance" or "bound:<method>"
    note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


def _check_foc(normal, rhs, b, what: str, floor: float) -> None:
    # a numerically-zero right-hand side (the structure annihilates the
    # layout) satisfies the condition within float residue
    resid = float(np.linalg.norm(normal @ b - rhs))
    if resid > max(FOC_RTOL * float(np.linalg.norm(rhs)), PINV_FLOOR * floor):
        raise RuntimeError(f"{what}: first-order condition violated (residual {resid:g})")


def _solve_normal(core, matrix, target, what: str):
    """Solve (X' core X) b = X' core target through the shared normal system
    and check its first-order condition."""
    xd, normal, ginv, deficient = normal_system(matrix, core)
    rhs = xd @ target
    b = ginv @ rhs
    _check_foc(normal, rhs, b, what, floor=_foc_floor(matrix, core, target))
    return b, deficient


def _foc_floor(matrix, core, target) -> float:
    # the scale below which a first-order residual is float residue
    return (
        float(np.linalg.norm(matrix))
        * float(np.linalg.norm(core))
        * max(float(np.linalg.norm(target)), 1.0)
    )


def b_opt(spec: CovariateSpec, dmat: DesignMatrix, outcomes: StackedOutcomes) -> OptimalCoefficient:
    """Variance-minimizing fixed coefficient for this design and layout."""
    outcomes = _match_level(spec, outcomes)
    b, deficient = _solve_normal(dmat.values, spec.matrix, outcomes.values, "optimal coefficient")
    note = "normal matrix rank deficient; minimum-norm member returned" if deficient else ""
    return OptimalCoefficient(b, "true_variance", note)


def b_opt_family(
    spec: CovariateSpec,
    dmat: DesignMatrix,
    outcomes: StackedOutcomes,
    z,
) -> OptimalCoefficient:
    """The solution family member indexed by ``z``.

    Every member solves the same first-order condition, so all conjugate
    variances coincide; ``z`` picks the representative.
    """
    outcomes = _match_level(spec, outcomes)
    z = np.asarray(z, dtype=float)
    if z.shape != (spec.n_columns,):
        raise ValueError("family parameter must have one entry per layout column")
    xd, normal, ginv, _ = normal_system(spec.matrix, dmat.values)
    rhs = xd @ outcomes.values
    b = ginv @ rhs + (np.eye(spec.n_columns) - ginv @ normal) @ z
    floor = _foc_floor(spec.matrix, dmat.values, outcomes.values)
    _check_foc(normal, rhs, b, "optimal-family coefficient", floor=floor)
    return OptimalCoefficient(b, "true_variance", "family member")


def b_tilde_opt(spec: CovariateSpec, bound, outcomes: StackedOutcomes) -> OptimalCoefficient:
    """Coefficient minimizing the *bound* quadratic rather than the variance."""
    outcomes = _match_level(spec, outcomes)
    b, _ = _solve_normal(bound.values, spec.matrix, outcomes.values, "bound-minimizing coefficient")
    return OptimalCoefficient(b, f"bound:{bound.method}")


def b_sep(spec: CovariateSpec, outcomes: StackedOutcomes, design: Design) -> OptimalCoefficient:
    """Arm-separated optimal coefficient for equal-probability designs.

    Each arm's block is fit against its own diagonal block of the covariance
    structure of ``design`` at the layout's level; valid only when every unit
    shares the same treatment probability (separability fails otherwise).
    """
    if spec.kind != "II":
        raise ValueError("the separated solution is defined for separate-slopes layouts")
    design, outcomes, _ = _at_level(spec, design, outcomes)
    pi1 = design.marginals[design.n :]
    if not np.allclose(pi1, pi1[0], atol=1e-12):
        raise ValueError("separated solution requires equal treatment probabilities")
    if outcomes.n != spec.rows_per_arm:
        raise ValueError("outcome schedule does not match the layout's row count")
    dmat = design_matrix(design)
    if spec.x is None:
        raise ValueError("layout does not carry its raw covariates")
    xt = np.hstack([np.ones((spec.rows_per_arm, 1)), spec.x])  # cluster x: [sizes | totals]
    arms = []
    for block, y in ((dmat.block(0, 0), outcomes.control), (dmat.block(1, 1), outcomes.treated)):
        xtd, _, ginv, _ = normal_system(xt, block)
        arms.append(ginv @ (xtd @ y))
    if spec.level == "cluster":  # its layout puts both intercepts first
        arms = [arms[0][:1], arms[1][:1], arms[0][1:], arms[1][1:]]
    b = np.concatenate(arms)
    xd = spec.matrix.T @ dmat.values
    floor = _foc_floor(spec.matrix, dmat.values, outcomes.values)
    _check_foc(xd @ spec.matrix, xd @ outcomes.values, b, "separated coefficient", floor=floor)
    return OptimalCoefficient(b, "true_variance", "arm-separated solution")


def _match_level(spec: CovariateSpec, outcomes: StackedOutcomes) -> StackedOutcomes:
    outcomes = _at_level(spec, None, outcomes)[1]
    if outcomes.n != spec.rows_per_arm:
        raise ValueError("outcome schedule does not match the layout's row count")
    return outcomes


# -- finite-population moment formulas ----------------------------------------

POPULATION_METHODS = ("ols_II", "tyranny_I", "tyranny_II", "ols_cluster_II", "tyranny_cluster")


def _slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares slopes of ``y`` on ``x`` with an intercept."""
    return _ols(x - x.mean(axis=0), y - y.mean())[0]


def b_population(
    method: str,
    x,
    outcomes: StackedOutcomes,
    design: Design,
) -> OptimalCoefficient:
    """Closed-form finite-population coefficients for the named methods.

    Unit-level methods require complete randomization; cluster methods require
    complete randomization of clusters.  The returned vector is laid out for
    the matching standard unit-level layout (common or separate slopes over
    the raw covariates; cluster methods use the covariates-with-intercept
    totals and also slot into the separate-slopes layout).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y0 = outcomes.control
    y1 = outcomes.treated
    n = outcomes.n
    kind = design.kind

    if method in ("ols_II", "tyranny_I", "tyranny_II"):
        if kind != "complete":
            raise ValueError(f"{method} is defined for complete randomization")
        n1 = design.provenance.params["n1"]
        n0 = n - n1
        if method == "ols_II":
            b = np.concatenate(
                [[y0.mean()], _slopes(x, y0), [y1.mean()], _slopes(x, y1)]
            )
        else:
            shared = (n1 / n) * _slopes(x, y0) + (n0 / n) * _slopes(x, y1)
            if method == "tyranny_I":
                b = np.concatenate([[y0.mean()], [y1.mean()], shared])
            else:
                b = np.concatenate([[y0.mean()], shared, [y1.mean()], shared])
        return OptimalCoefficient(b, "true_variance", method)

    if method in ("ols_cluster_II", "tyranny_cluster"):
        if kind != "cluster":
            raise ValueError(f"{method} is defined for cluster randomization")
        clusters, m1 = design._assignment_groups, design.provenance.params["m1"]
        m, m0 = clusters.m, clusters.m - m1
        totals = clusters.totals(np.hstack([np.ones((n, 1)), x]))
        y0c, y1c = clusters.totals(y0), clusters.totals(y1)
        if method == "ols_cluster_II":
            b = np.concatenate([_slopes(totals, y0c), _slopes(totals, y1c)])
        else:
            shared = (m1 / m) * _slopes(totals, y0c) + (m0 / m) * _slopes(totals, y1c)
            b = np.concatenate([shared, shared])
        return OptimalCoefficient(b, "true_variance", method)

    raise ValueError(f"unknown method {method!r}; choose from {POPULATION_METHODS}")
