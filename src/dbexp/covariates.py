"""Signed covariate layouts for regression adjustment.

The stacked outcome convention (control block negated) carries over to the
covariate side: every layout is a 2r x l matrix whose top block is the control
half.  Two unit-level layouts are provided -- common slopes and separate
slopes -- plus cluster-total variants that operate on one row per cluster
while still targeting the individual-level average effect.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from ._group import Groups
from ._linalg import PINV_RCOND, component_blocks
from .design import Design, _cluster_groups


@dataclass(frozen=True)
class CovariateSpec:
    """A signed covariate layout plus the metadata estimators need.

    ``matrix`` has 2r rows where r is the number of rows per arm (n units, or
    m clusters for cluster-total layouts).  ``divisor``, the one divisor of
    every estimate on the layout, is the number of individuals: the count of
    ``cluster_ids`` for a cluster-level layout, so that it still estimates the
    individual-level average effect, else r.  A cluster-level layout derives
    ``clusters``, the partition of the units by ``cluster_ids``, once; it
    collapses unit-level data to the layout's rows.
    """

    matrix: np.ndarray
    kind: str  # "I" | "II" | "custom"
    labels: tuple[str, ...]
    cluster_ids: np.ndarray | None = None
    intercept_cols: tuple[int, int] | None = None  # (control, treatment)
    x: np.ndarray | None = None  # raw covariates the layout was built from
    # kept by the estimators: the layout's group sums for each grouping of its rows
    _sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        matrix = np.ascontiguousarray(np.asarray(self.matrix, dtype=float))
        if matrix.ndim != 2 or matrix.shape[0] % 2:
            raise ValueError("covariate layout must be a 2r x l matrix")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        if len(self.labels) != matrix.shape[1]:
            raise ValueError("one label per column required")

    @property
    def level(self) -> str:
        return "unit" if self.cluster_ids is None else "cluster"

    @property
    def divisor(self) -> int:
        return self.rows_per_arm if self.cluster_ids is None else len(self.cluster_ids)

    @cached_property
    def clusters(self) -> Groups | None:
        """A cluster-level layout's partition of the units by ``cluster_ids``."""
        if self.cluster_ids is None:
            return None
        return _cluster_groups(self.cluster_ids)

    @cached_property
    def structure(self) -> "ColumnStructure":
        """The column structure of the layout's weighted Grams ``X'diag(w)X``,
        from where they can be nonzero through each arm's rows, (X_a != 0)'(X_a
        != 0) for a = control, treated (:func:`_column_structure`)."""
        r = self.rows_per_arm
        nonzero = (self.matrix != 0.0).astype(float)
        control, treated = (part.T @ part > 0.0 for part in (nonzero[:r], nonzero[r:]))
        return _column_structure(control.tobytes(), treated.tobytes(), self.n_columns)

    @property
    def rows_per_arm(self) -> int:
        return self.matrix.shape[0] // 2

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]


# The column blocks over which every weighted Gram is block-diagonal, the
# entries (arm, i, j) of the Gram that can be nonzero, with i <= j (it is
# symmetric), and those of ``A'diag(w)X`` for any A of the layout's shape, such
# as the 2R drift's (X'D)'.  An entry's arm says which rows its row-wise
# products can be nonzero in: 0 the control rows alone, 1 the treated alone,
# None both.
ColumnStructure = namedtuple("ColumnStructure", "blocks gram_pairs cross_pairs")


@lru_cache(maxsize=64)
def _column_structure(control: bytes, treated: bytes, l: int) -> ColumnStructure:
    """The :class:`ColumnStructure` of layouts whose Grams can be nonzero at the
    (l, l) boolean patterns ``control`` and ``treated`` (their bytes) through
    the control and the treated rows.  Its blocks are the connected
    components of the union (:func:`~dbexp._linalg.component_blocks`): a
    separate-slopes layout's two arms, one block for a layout with a column
    that spans both arms.  Kept for the layouts that share it, read-only, as
    every fit of a new layout of one shape would derive it again."""
    control, treated = (np.frombuffer(p, dtype=bool).reshape(l, l) for p in (control, treated))

    def frozen(*arrays):
        for array in arrays:
            array.flags.writeable = False
        return arrays

    def by_arm(i, j, in_control, in_treated):
        return tuple((arm, *frozen(i[rows], j[rows]))
                     for arm, rows in ((0, in_control & ~in_treated), (1, in_treated & ~in_control),
                                       (None, in_control & in_treated))
                     if rows.any())

    i, j = np.nonzero(np.triu(control | treated))
    gram_pairs = by_arm(i, j, control[i, j], treated[i, j])
    i, j = np.indices((l, l)).reshape(2, -1)  # a dense A: the arms of X's column j
    cross_pairs = by_arm(i, j, control.diagonal()[j], treated.diagonal()[j])
    return ColumnStructure(frozen(*component_blocks(control | treated)), gram_pairs, cross_pairs)


def zero_center(x: np.ndarray) -> np.ndarray:
    """Subtract column means; ordering untouched."""
    x = np.asarray(x, dtype=float)
    return x - x.mean(axis=0)


def _as_matrix(x) -> np.ndarray:
    """Covariates as an n x k float matrix, every value finite."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError("covariates must form an n x k matrix")
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise ValueError("non-finite covariate for units: "
                         + ", ".join(str(int(i)) for i in np.flatnonzero(~finite)))
    return x


def _warn_if_uncentered(x: np.ndarray) -> None:
    if x.size == 0:
        return
    scale = max(1.0, float(np.abs(x).max()))
    if np.abs(x.sum(axis=0)).max() > 1e-8 * scale * x.shape[0]:
        warnings.warn(
            "covariates are not zero-centered; intercept contrasts lose their "
            "direct interpretation (estimates remain well-defined)",
            stacklevel=3,
        )


def spec_common_slopes(x) -> CovariateSpec:
    """Common-slopes layout: per-arm intercepts plus one slope per covariate."""
    x = _as_matrix(x)
    _warn_if_uncentered(x)
    n, k = x.shape
    one = np.ones((n, 1))
    zero = np.zeros((n, 1))
    matrix = np.vstack(
        [np.hstack([-one, zero, -x]), np.hstack([zero, one, x])]
    )
    labels = ("intercept_control", "intercept_treated") + tuple(f"x{j}" for j in range(k))
    return CovariateSpec(matrix, "I", labels, intercept_cols=(0, 1), x=x)


def spec_separate_slopes(x) -> CovariateSpec:
    """Separate-slopes layout: each arm gets its own intercept and slopes."""
    x = _as_matrix(x)
    _warn_if_uncentered(x)
    n, k = x.shape
    one = np.ones((n, 1))
    zn = np.zeros((n, 1))
    zk = np.zeros((n, k))
    matrix = np.vstack(
        [np.hstack([-one, -x, zn, zk]), np.hstack([zn, zk, one, x])]
    )
    labels = (
        ("intercept_control",)
        + tuple(f"x{j}_control" for j in range(k))
        + ("intercept_treated",)
        + tuple(f"x{j}_treated" for j in range(k))
    )
    return CovariateSpec(matrix, "II", labels, intercept_cols=(0, k + 1), x=x)


# The two-arm layouts are known as specifications I and II in the design-based
# literature; keep the short aliases callers will reach for.
spec_I = spec_common_slopes
spec_II = spec_separate_slopes


def cluster_totals(x, cluster_ids: Sequence[int]) -> np.ndarray:
    """Per-cluster column totals, clusters ordered by ascending id."""
    return _cluster_groups(cluster_ids).totals(_as_matrix(x))


def spec_cluster(x, cluster_ids: Sequence[int], spec_kind: str = "II") -> CovariateSpec:
    """Cluster-total layout over [cluster size | covariate totals].

    The totaled intercept column turns into cluster sizes, which is what lets
    these layouts absorb size-driven variation.  A column of totals equal to
    an earlier one, within ``PINV_RCOND`` times its own largest magnitude, is
    dropped with its labels: the totals of a cluster-mean covariate are those
    of the covariate, and a constant covariate's are the sizes, so the column
    adds nothing to any fit.  Row count is 2m; the divisor, the ids' count,
    stays at n so estimates target the individual-level average effect.
    Fitted with a cluster design, the ids must name its clusters
    (``DesignError`` otherwise).
    """
    x = _as_matrix(x)
    n = x.shape[0]
    clusters = _cluster_groups(cluster_ids)
    totals = clusters.totals(np.hstack([np.ones((n, 1)), x]))  # m x (k+1), sizes first
    names = ["cluster_size{}"] + [f"x{j}{{}}_total" for j in range(x.shape[1])]
    gap = np.abs(totals[:, :, None] - totals[:, None, :]).max(axis=0, initial=0.0)
    scale = np.abs(totals).max(axis=0, initial=0.0)
    keep = ~np.tril(gap <= PINV_RCOND * scale[:, None], -1).any(axis=1)
    totals, names = totals[:, keep], [name for name, kept in zip(names, keep) if kept]
    m, k = totals.shape
    one = np.ones((m, 1))
    zm = np.zeros((m, 1))
    zk = np.zeros((m, k))
    if spec_kind == "II":
        matrix = np.vstack(
            [np.hstack([-one, zm, -totals, zk]), np.hstack([zm, one, zk, totals])]
        )
        arms = ("_control", "_treated")
    elif spec_kind == "I":
        matrix = np.vstack(
            [np.hstack([-one, zm, -totals]), np.hstack([zm, one, totals])]
        )
        arms = ("",)
    else:
        raise ValueError("spec_kind must be 'I' or 'II'")
    labels = ("intercept_control", "intercept_treated") + tuple(
        name.format(arm) for arm in arms for name in names)
    spec = CovariateSpec(
        matrix,
        spec_kind,
        labels,
        cluster_ids=np.asarray(cluster_ids).astype(np.int64),
        intercept_cols=(0, 1),
        x=totals,
    )
    object.__setattr__(spec, "clusters", clusters)
    return spec


def add_invprop_column(spec: CovariateSpec, design: Design) -> CovariateSpec:
    """Append the zero-centered reciprocal-assignment-probability column.

    With this column in the layout, ordinary least squares satisfies the
    intercept-contrast identity on any identified design: the reciprocal
    probabilities land in the fitted column space, so the weighted residual
    term of the estimator vanishes.  Each arm's block is centered separately
    (the raw values are arm-specific), which keeps the appended column summing
    to zero and makes it identically zero under equal-probability designs.
    """
    if spec.level != "unit":
        raise ValueError("the reciprocal-probability column applies to unit-level layouts")
    n = spec.rows_per_arm
    if design.n != n:
        raise ValueError("design and layout sizes disagree")
    raw = 1.0 / design.marginals
    col = np.concatenate([raw[:n] - raw[:n].mean(), raw[n:] - raw[n:].mean()])
    matrix = np.hstack([spec.matrix, col[:, None]])
    return replace(spec, matrix=matrix, labels=spec.labels + ("inv_propensity",))
