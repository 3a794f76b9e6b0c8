"""Randomization designs as joint assignment-probability structures.

A two-arm design over n units is described by the 2n x 2n matrix of joint
observation probabilities for the stacked outcome vector (control slots first,
treatment slots second).  Everything downstream -- the covariance structure of
inverse-probability-weighted indicators, variance bounds, bound estimators --
is derived from that matrix.

Enumerated, Monte-Carlo and directly built designs store it densely.
Complete, Bernoulli and cluster designs hold it in kind form (see
:mod:`dbexp._group`), built from their parameters, together with their
covariance structure and identification mask; their dense arrays are built
only when read.
"""

from __future__ import annotations

import itertools
import json
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb
from typing import Callable, Iterable, Sequence

import numpy as np

from ._group import GroupOperator, Groups, quadratic, unit_groups
from ._linalg import min_max_eig

#: Largest support that enumerate_assignments will expand by default.
DEFAULT_SUPPORT_CAP = 10**6

#: Most rows ``_co_treated`` multiplies in one float32 product: each partial sum
#: is then an integer of at most 2**24, which float32 holds exactly.
_CO_TREATED_ROWS = 2**24

_CONSISTENCY_ATOL = 1e-9


class DesignError(ValueError):
    """Invalid design construction or use."""


class UnidentifiedDesignError(DesignError):
    """Some unit has probability 0 or 1 of treatment."""


class SupportTooLargeError(DesignError):
    """Exact enumeration was requested for a support above the cap."""


@dataclass(frozen=True)
class StackedOutcomes:
    """Full potential-outcome schedule in stacked form.

    ``values`` has length 2n: the first n entries are the control potential
    outcomes multiplied by -1, the last n the treatment potential outcomes.
    The average treatment effect is then just ``values.sum() / n``.
    """

    values: np.ndarray
    n: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.shape[0] != 2 * self.n:
            raise ValueError(f"expected a vector of length {2 * self.n}")
        object.__setattr__(self, "values", _frozen(values.copy()))

    @classmethod
    def from_arms(cls, y_control: Sequence[float], y_treated: Sequence[float]) -> "StackedOutcomes":
        y0 = np.asarray(y_control, dtype=float)
        y1 = np.asarray(y_treated, dtype=float)
        if y0.shape != y1.shape or y0.ndim != 1:
            raise ValueError("control and treatment outcome vectors must have the same length")
        return cls(np.concatenate([-y0, y1]), len(y0))

    @property
    def control(self) -> np.ndarray:
        return -self.values[: self.n]

    @property
    def treated(self) -> np.ndarray:
        return self.values[self.n :]

    @property
    def ate(self) -> float:
        return float(self.values.sum() / self.n)


def _zero_one(z: np.ndarray) -> bool:
    """Whether every entry of ``z`` is 0 or 1 (booleans included, NaN not); a
    boolean array is, with no pass over its entries."""
    return z.dtype == bool or bool(((z == 0) | (z == 1)).all())


@dataclass(frozen=True)
class AssignmentRealization:
    """One realized assignment; ``assignment[i] == 1`` means unit i is treated."""

    assignment: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.assignment)
        if z.ndim != 1 or not _zero_one(z):
            raise ValueError("assignment must be a 0/1 vector")
        object.__setattr__(self, "assignment", _frozen(z.astype(np.int8)))

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    def indicator_diagonal(self) -> np.ndarray:
        """Diagonal of the 2n x 2n observation-indicator matrix: [1-z ; z]."""
        z = self.assignment.astype(float)
        return np.concatenate([1.0 - z, z])


@dataclass(frozen=True)
class AnalyticProvenance:
    kind: str  # "complete" | "bernoulli" | "cluster"
    params: dict


@dataclass(frozen=True)
class EnumeratedProvenance:
    assignments: np.ndarray  # (support, n) int8
    probabilities: np.ndarray  # (support,)

    @property
    def kind(self) -> str:
        return "enumerated"


@dataclass(frozen=True)
class MonteCarloProvenance:
    draws: int
    seed: int
    sampler: Callable | None = None

    @property
    def kind(self) -> str:
        return "monte_carlo"


class _KindForm:
    """Base of the objects that may hold a design's kind form (``_form``), or
    read it from their design matrix (a bound).

    Such an object is built without its dense arrays; ``_dense_from`` maps
    each array attribute to the function that builds it, which runs on the
    first read and is kept.  Objects built from arrays never reach it.
    """

    _form = None
    _dense_from = {}

    @classmethod
    def _lazy(cls, **fields):
        """An instance holding ``fields``, unchecked: a kind form or valid frozen arrays."""
        obj = object.__new__(cls)
        for name, value in fields.items():
            object.__setattr__(obj, name, value)
        return obj

    def __getattr__(self, name):
        build = type(self)._dense_from.get(name)
        if build is None or self._form is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = build(self)
        object.__setattr__(self, name, value)
        return value


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class DesignMatrix(_KindForm):
    """Covariance matrix of the inverse-probability-weighted indicators.

    Entry (i, j) equals (p_ij - pi_i pi_j) / (pi_i pi_j); it is exactly -1 at
    every jointly unobservable pair, and the quadratic form y'My / n**2 is the
    variance of the inverse-probability estimator of the stacked mean.
    ``joint`` is the design's joint probability matrix p, the same array.
    ``certificate`` records how D was proved PSD: ``closed_form`` from 2 x 2
    spectra or, for a design built from its support, by the multinomial proof
    of ``Design._design_matrix``; ``dense`` by an eigendecomposition; None
    when built directly.
    For a design in kind form, ``core`` is the :class:`GroupOperator` of D
    and the arrays are built on first read.  A design matrix keeps the normal
    system X'DX of the last layout fitted over it (``estimators._system``).
    """

    values: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)  # True where the pair is jointly unobservable (value -1)
    n: int
    joint: np.ndarray = field(repr=False)
    certificate: str | None = None

    _dense_from = {
        "values": lambda dmat: _frozen(dmat._form.values.dense()),
        "mask": lambda dmat: _frozen(dmat._form.mask.dense()),
        "joint": lambda dmat: dmat._form.dense_joint,
    }

    def __post_init__(self):
        for name in ("values", "mask", "joint"):
            object.__setattr__(self, name, _frozen(np.ascontiguousarray(getattr(self, name))))

    @property
    def core(self) -> np.ndarray | GroupOperator:
        """D as the operator of a kind-form design, else as the dense array."""
        return self._form.values if self._form is not None else self.values

    def block(self, row_arm: int, col_arm: int) -> np.ndarray:
        """n x n block; arms indexed 0 (control) and 1 (treatment)."""
        n = self.n
        return self.values[row_arm * n : (row_arm + 1) * n, col_arm * n : (col_arm + 1) * n]

    def quadratic(self, stacked: np.ndarray) -> float:
        return quadratic(self.core, np.asarray(stacked, dtype=float))


@dataclass(frozen=True)
class Design(_KindForm):
    """Joint assignment probabilities for a two-arm design.

    ``joint`` is laid out in 2x2 blocks of n x n matrices: the (0,0) block
    holds both-control probabilities, the (1,1) block both-treated, and the
    off blocks mixed-arm probabilities.  ``marginals`` is its diagonal.

    A design built directly or from a serialized Monte-Carlo joint copies its
    joint and is validated by the dense scan of ``_validate_joint``.
    ``make_complete``, ``make_bernoulli`` and ``make_cluster`` validate from
    their parameters instead and keep the design in kind form (``_form``);
    its ``joint`` is built on first read.

    ``make_from_sampler`` builds its designs through ``_lazy``, with no copy,
    and sets ``_from_support``: the joint of a law over a support proves D
    PSD (see ``_design_matrix``).  A counted joint (Monte-Carlo draws, a
    uniform support) needs no scan either: each entry is an integer count
    over the row count S, correctly rounded, so the blocks are exact
    transposes, entries lie in [0, 1], the diagonal is the marginals, c/S and
    (S - c)/S sum to 1 within rounding, no row observes a unit in both arms,
    and a pair's count is at most either unit's, which monotone rounding
    keeps.  A weighted support's float sums run the scan.
    """

    n: int
    joint: np.ndarray = field(repr=False)
    marginals: np.ndarray
    provenance: AnalyticProvenance | EnumeratedProvenance | MonteCarloProvenance

    _dense_from = {"joint": lambda design: design._form.dense_joint}
    _from_support = False

    def __post_init__(self):
        # copies, so that freezing them leaves the caller's arrays writeable
        joint = np.array(self.joint, dtype=float, order="C")
        marginals = np.array(self.marginals, dtype=float, order="C")
        _validate_joint(self.n, joint, marginals)
        for name, arr in (("joint", joint), ("marginals", marginals)):
            object.__setattr__(self, name, _frozen(arr))

    @property
    def kind(self) -> str:
        return self.provenance.kind

    @cached_property
    def _design_matrix(self) -> DesignMatrix:
        """The covariance structure D, certified PSD.

        For complete and cluster designs (complete being n singleton
        clusters), D = (K_s - K_d) (x) S + K_d (x) J, where S = EE' is the
        same-cluster indicator of the n x m cluster membership matrix E,
        J = 11', and K_s, K_d are the 2 x 2 arm matrices of a same-cluster and
        a different-cluster pair.  So D = B C B' with B = I_2 (x) E of full
        column rank and C = (K_s - K_d) (x) I_m + K_d (x) J_m.  By Sylvester's
        law of inertia D is PSD iff C is, and C's spectrum is that of
        K_s - K_d on the complement of the ones vector plus that of
        K_s - K_d + m K_d on it.  Bernoulli designs make D block-diagonal
        with one 2 x 2 block per unit.  Either way the certificate is a
        handful of closed-form 2 x 2 eigenproblems on the kernels of the kind
        form, which has that structure by construction, and D stays in kind
        form.

        A design built by ``make_from_sampler`` (``_from_support``) has the
        joint p_ij = sum_s q_s Z_si Z_sj of a probability vector q over the S
        rows of its support, where Z is the S x 2n matrix of observation
        indicators [1 - z_s, z_s]; for a Monte-Carlo design q is the empirical
        law, count / draws.  Its marginals are pi = Z'q.  With G = Z diag(1/pi),
        G'q = 1, so D = G' diag(q) G - 11' = G' (diag(q) - qq') G.  The middle
        factor is the covariance of one multinomial draw:
        x'(diag(q) - qq')x = sum_s q_s x_s**2 - (sum_s q_s x_s)**2 >= 0 by
        Jensen's inequality, which needs q >= 0 and sum_s q_s = 1.  So D is
        PSD with no eigendecomposition.  ``_collect_support`` rejects negative
        and non-finite probabilities.  It allows a slack of 1e-9 in their sum
        s, which the rule below does not absorb: weights summing to s give
        D/s - ((s - 1)/s) 11', and where D annihilates 1 (complete
        randomization) that is an eigenvalue near -2n (s - 1), about -6e-7 at
        n = 300, against a tolerance of about 2e-8.  So ``make_from_sampler``
        builds the joint from the probabilities divided by their sum.  What
        is left is rounding.  A counted joint (see ``Design``) has q the
        empirical law of the rows and stores each entry's exact value
        rounded once.  A weighted support's arm blocks are float sums of its
        probabilities, each within a few ulps per row of its exact value, and
        those probabilities sum to 1 to a few ulps.  Either way the computed
        D is within rounding of a PSD matrix, as for the kind-form spectra
        above.

        Any other design, or a kind form whose kernels are not finite, is
        certified by a dense eigendecomposition.
        """
        spectrum = _closed_form_spectrum(self)
        if spectrum is None:
            outer = np.outer(self.marginals, self.marginals)
            values = (self.joint - outer) / outer
            lo, hi = (0.0, 0.0) if self._from_support else min_max_eig(values)
        else:
            lo, hi = float(spectrum.min()), float(spectrum.max())
        if lo < -1e-8 * max(abs(lo), abs(hi), 1.0):
            raise DesignError(f"derived covariance structure is not PSD (min eigenvalue {lo:g})")
        if spectrum is not None:
            return DesignMatrix._lazy(n=self.n, certificate="closed_form", _form=self._form)
        return DesignMatrix(values=values, mask=self.joint == 0.0, n=self.n, joint=self.joint,
                            certificate="closed_form" if self._from_support else "dense")

    @cached_property
    def _cluster_level(self) -> "Design":
        """See :func:`cluster_level_design`."""
        if self.kind != "cluster":
            raise DesignError("cluster-level collapse requires a cluster-randomized design")
        return make_complete(self._assignment_groups.m, self.provenance.params["m1"])

    @cached_property
    def _assignment_groups(self) -> Groups:
        """Units every assignment treats alike, derived once from the provenance:
        the clusters of a cluster design, else each unit alone."""
        if self.kind == "cluster":
            return _cluster_groups(self.provenance.params["cluster_ids"])
        return unit_groups(self.n)

    def to_json(self) -> str:
        return json.dumps(design_to_dict(self))


def _same_joint(a, b) -> bool:
    """Whether two holders of a joint (designs, design matrices) hold one
    design's: their kind forms by identity or equal parameters, else their
    dense joints by identity or value."""
    if a._form is not None and b._form is not None:
        return a._form is b._form or a._form.equals(b._form)
    return a.joint is b.joint or bool(np.array_equal(a.joint, b.joint))


def _validate_joint(n: int, joint: np.ndarray, marginals: np.ndarray) -> None:
    """Check a joint and its marginals entry by entry: the dense scan.

    Directly built designs and weighted supports run it on their full joint,
    group designs on a 3-unit joint that holds every distinct entry of theirs
    (``_group_design``); counted joints (see ``Design``) and checked Bernoulli
    parameters (``make_bernoulli``) hold its rules by construction.  Each
    rule below is a condition on one entry, or on an entry and its
    transpose, which is what makes the small joint a proof for the full one.
    """
    if joint.shape != (2 * n, 2 * n):
        raise DesignError(f"joint probability matrix must be {2 * n} x {2 * n}")
    if marginals.shape != (2 * n,):
        raise DesignError("marginal vector must have length 2n")
    bad = np.flatnonzero((marginals[n:] <= 0.0) | (marginals[n:] >= 1.0))
    if bad.size:
        raise UnidentifiedDesignError(
            "treatment probability must lie strictly inside (0, 1); offending units: "
            + ", ".join(str(int(i)) for i in bad)
        )
    if not np.allclose(marginals[:n] + marginals[n:], 1.0, atol=_CONSISTENCY_ATOL):
        raise DesignError("arm probabilities must sum to one for every unit")
    if not np.allclose(np.diag(joint), marginals, atol=_CONSISTENCY_ATOL):
        raise DesignError("diagonal of the joint matrix must equal the marginals")
    if not np.allclose(joint, joint.T, atol=_CONSISTENCY_ATOL):
        raise DesignError("joint probability matrix must be symmetric")
    if joint.min() < -_CONSISTENCY_ATOL or joint.max() > 1.0 + _CONSISTENCY_ATOL:
        raise DesignError("joint probabilities must lie in [0, 1]")
    cross = joint[:n, n:]
    if not np.allclose(np.diag(cross), 0.0, atol=_CONSISTENCY_ATOL):
        raise DesignError("a unit cannot be observed in both arms")
    p11 = joint[n:, n:]
    pi1 = marginals[n:]
    cap = np.minimum.outer(pi1, pi1)
    if (p11 - cap).max() > _CONSISTENCY_ATOL:
        raise DesignError("joint treatment probabilities exceed their marginals")
    p00 = joint[:n, :n]
    pi0 = marginals[:n]
    cap0 = np.minimum.outer(pi0, pi0)
    if (p00 - cap0).max() > _CONSISTENCY_ATOL:
        raise DesignError("joint control probabilities exceed their marginals")


def design_matrix(design: Design) -> DesignMatrix:
    """Derive (and cache) the design's weighted-indicator covariance matrix."""
    return design._design_matrix


def _arm_kernel(joint: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """(p_ab - pi_a pi_b) / (pi_a pi_b) over the two arms; ``pi`` is (2,) or (2, n)."""
    outer = pi[:, None] * pi[None, :]
    return (joint - outer) / outer


def _eig2(k: np.ndarray) -> np.ndarray:
    """Both eigenvalues of each symmetric 2 x 2 matrix ``k[:, :, ...]``."""
    mid = (k[0, 0] + k[1, 1]) / 2.0
    rad = np.hypot((k[0, 0] - k[1, 1]) / 2.0, k[0, 1])
    return np.concatenate([np.ravel(mid - rad), np.ravel(mid + rad)])


def _closed_form_spectrum(design: Design) -> np.ndarray | None:
    """Eigenvalues that certify a kind-form design's D, or None for a dense design
    (or kernels that are not finite).

    Exactly D's spectrum for complete, Bernoulli and equal-size cluster
    designs; for unequal cluster sizes, C's spectrum scaled by the mean
    cluster size n / m, which has D's inertia (see ``Design._design_matrix``).
    """
    if design._form is None:
        return None
    d = design._form.values
    if d.m == d.n and not d.diff.any():  # independent units: one 2 x 2 block each
        spectrum = _eig2(d.unit)
    elif (d.unit == d.same[:, :, None]).all():  # D = B C B'
        k_same, k_diff, m = d.same, d.diff, d.m
        parts = [_eig2(k_same - k_diff), _eig2(k_same - k_diff + m * k_diff)]
        if d.n > m:
            parts.append(np.zeros(1))  # D vanishes on the complement of B's range
        spectrum = np.concatenate(parts) * (d.n / m)
    else:
        return None
    return spectrum if np.isfinite(spectrum).all() else None


@dataclass(frozen=True, eq=False)
class GroupForm:
    """A complete, Bernoulli or cluster design in kind form.

    ``values`` is the covariance structure D and ``mask`` marks the jointly
    unobservable pairs.  ``joint`` is the joint probabilities of a group
    design; a Bernoulli design has None, because its distinct units are
    independent, so that their joint probability is a product of marginals
    rather than one value per kind.  ``dense_joint`` is built, bit for bit
    as a dense design would hold it, on first read and shared by the design
    and its design matrix.
    """

    marginals: np.ndarray
    joint: GroupOperator | None
    values: GroupOperator
    mask: GroupOperator

    @property
    def n(self) -> int:
        return self.values.n

    @cached_property
    def dense_joint(self) -> np.ndarray:
        if self.joint is not None:
            return _frozen(self.joint.dense())
        n = self.n
        return _frozen(_bernoulli_joint(self.marginals[:n], self.marginals[n:]))

    def weigh(self, bound: GroupOperator) -> GroupOperator:
        """``bound`` over the joint probabilities, kind by kind, zero-probability
        slots left harmless: the kind form of ``values / (joint + (joint == 0))``."""
        if self.joint is not None:
            return bound.kindwise(lambda b, p: b / (p + (p == 0.0)), self.joint)
        # Bernoulli: a bound vanishes on distinct units, whose joints are positive
        if bound.diff.any():
            raise ValueError("a Bernoulli design's bound must vanish on distinct units")
        own = _own_joint(self.marginals.reshape(2, -1))
        return GroupOperator(bound.groups, bound.unit / (own + (own == 0.0)), bound.same, bound.diff)

    def equals(self, other: "GroupForm") -> bool:
        """Whether both forms describe one joint: equal marginals and, for group
        designs, equal joint operators (a Bernoulli joint is its marginals')."""
        if (self.joint is None) != (other.joint is None):
            return False
        if not np.array_equal(self.marginals, other.marginals):
            return False
        return self.joint is None or self.joint.equals(other.joint)


def _own_joint(pi: np.ndarray) -> np.ndarray:
    """The (2, 2, n) joint of each unit with itself, diag(pi0_i, pi1_i), from (2, n) marginals."""
    return pi[:, None, :] * np.eye(2)[:, :, None]


def _group_form(groups: Groups, pi: np.ndarray, pairs: np.ndarray) -> GroupForm:
    """Units inherit their group's arm: two slots of one group have the joint
    ``diag(pi)``, two slots of different groups ``pairs``."""
    n = groups.n
    own = np.diag(pi)  # two units of one group always share its arm

    def per_unit(k):
        return np.broadcast_to(k[:, :, None], (2, 2, n))

    joint = GroupOperator(groups, per_unit(own), own, pairs)
    k_same, k_diff = _arm_kernel(own, pi), _arm_kernel(pairs, pi)
    values = GroupOperator(groups, per_unit(k_same), k_same, k_diff)
    return GroupForm(_frozen(np.repeat(pi, n)), joint, values, joint.kindwise(lambda p: p == 0.0))


def _bernoulli_form(pi1: np.ndarray) -> GroupForm:
    """Independent units as n singleton groups."""
    n = pi1.shape[0]
    pi = np.stack([1.0 - pi1, pi1])
    own = _own_joint(pi)
    zero = np.zeros((2, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        # pi_a_i**2 may underflow: the kernel is then not finite, and the
        # certificate sends the design to the dense path, which warns.  A
        # product of two units' marginals underflows only if the smaller
        # one's square does (fl is monotone), so this covers those too
        d_unit = _arm_kernel(own, pi)
    values = GroupOperator(unit_groups(n), d_unit, zero, zero)
    mask = GroupOperator(values.groups, own == 0.0, zero != 0.0, zero != 0.0)
    return GroupForm(_frozen(pi.ravel()), None, values, mask)


def _bernoulli_joint(pi0: np.ndarray, pi1: np.ndarray) -> np.ndarray:
    # With pi1 in (0, 1), every rule of _validate_joint holds entry by entry:
    # fl(x * y) <= min(x, y) on [0, 1], the blocks are exact transposes and
    # the diagonals are the marginals themselves.
    p11 = np.outer(pi1, pi1)
    np.fill_diagonal(p11, pi1)
    p00 = np.outer(pi0, pi0)
    np.fill_diagonal(p00, pi0)
    p10 = np.outer(pi1, pi0)  # P(i treated, j control); the (0,1) block is its transpose
    np.fill_diagonal(p10, 0.0)
    return np.block([[p00, p10.T], [p10, p11]])


def _form_design(form: GroupForm, provenance: AnalyticProvenance) -> Design:
    """A Design in kind form, validated from its parameters, keeping its form's partition."""
    return Design._lazy(n=form.n, marginals=form.marginals, provenance=provenance, _form=form,
                        _assignment_groups=form.values.groups)


def _treated_groups(design: Design) -> int | None:
    """How many assignment groups a complete or cluster design treats, else None."""
    key = {"complete": "n1", "cluster": "m1"}.get(design.kind)
    return None if key is None else design.provenance.params[key]


def _group_pairs(m: int, m1: int) -> tuple[np.ndarray, np.ndarray]:
    """Arm marginals (2,) and the 2 x 2 arm joint of two different groups when
    ``m1`` of ``m`` groups are treated completely at random."""
    m0 = m - m1
    pi = np.array([m0 / m, m1 / m])
    pairs = np.array([[m0 * (m0 - 1), m0 * m1], [m0 * m1, m1 * (m1 - 1)]]) / (m * (m - 1))
    return pi, pairs


#: Groups of the smallest group design with every kind of joint entry: a unit
#: with itself, two units of one group and two units of different groups.
_ALL_ENTRY_KINDS = Groups(np.array([0, 0, 1]))


def _group_design(groups: Groups, m1: int, provenance: AnalyticProvenance) -> Design:
    """Complete randomization of ``m1`` groups; units inherit their group's arm.

    Every entry of the joint is an entry of ``diag(pi)`` or ``pairs`` at its
    kind of slot pair, and every marginal is ``pi``, so validating the 3-unit
    joint of ``_ALL_ENTRY_KINDS`` validates the full one.
    """
    _validate_group_joint(groups.m, m1)
    return _form_design(_group_form(groups, *_group_pairs(groups.m, m1)), provenance)


@lru_cache(maxsize=64)
def _validate_group_joint(m: int, m1: int) -> None:
    """Validate the 3-unit joint of complete randomization of ``m1`` of ``m``
    groups, once per ``(m, m1)``: the joint depends on nothing else."""
    small = _group_form(_ALL_ENTRY_KINDS, *_group_pairs(m, m1))
    _validate_joint(small.n, small.dense_joint, small.marginals)


def make_complete(n: int, n1: int) -> Design:
    """Complete randomization: exactly ``n1`` of ``n`` units treated."""
    if n < 2:
        raise DesignError("complete randomization needs at least 2 units")
    if not 1 <= n1 <= n - 1:
        raise UnidentifiedDesignError("number treated must satisfy 1 <= n1 <= n - 1")
    return _group_design(unit_groups(n), n1, AnalyticProvenance("complete", {"n1": n1}))


def make_bernoulli(pi1: Sequence[float]) -> Design:
    """Independent assignment with per-unit treatment probabilities."""
    pi1 = np.asarray(pi1, dtype=float)
    if pi1.ndim != 1:
        raise DesignError("Bernoulli probabilities must form a vector")
    if pi1.shape[0] < 2:
        raise DesignError("a design needs at least 2 units")
    if ((pi1 <= 0.0) | (pi1 >= 1.0)).any():
        raise UnidentifiedDesignError("Bernoulli probabilities must lie strictly inside (0, 1)")
    if np.isnan(pi1).any():  # the only value the range check lets through
        raise DesignError("arm probabilities must sum to one for every unit")
    provenance = AnalyticProvenance("bernoulli", {"pi1": pi1.copy()})
    return _form_design(_bernoulli_form(pi1), provenance)


def _cluster_groups(cluster_ids: Sequence[int]) -> Groups:
    """The units partitioned by cluster ids, which are integers or integer-valued
    floats in any order, the clusters labelled in ascending id order."""
    ids = np.asarray(cluster_ids)
    if ids.ndim != 1 or ids.size == 0:
        raise DesignError("cluster ids must form a non-empty vector")
    if np.issubdtype(ids.dtype, np.floating) and np.isnan(ids).any():
        raise DesignError("cluster ids contain missing values")
    integral = np.issubdtype(ids.dtype, np.integer)
    if not (integral or np.array_equal(ids.astype(np.int64, casting="unsafe"), ids)):
        raise DesignError("cluster ids must be integers")
    return Groups(np.unique(ids, return_inverse=True)[1])


def _check_clusters(clusters: Groups, design_clusters: Groups) -> None:
    """Raise unless cluster ids given for a design name its own clusters."""
    if not clusters.same_partition(design_clusters):
        raise DesignError("the cluster ids do not name the design's clusters, so the design is "
                          "not complete randomization of these clusters")


def _outside_this_module() -> int:
    """``stacklevel`` that points a warning raised here at the first caller
    outside this module, however many of its functions lie in between
    (``design_from_json`` reaches ``make_cluster`` through ``design_from_dict``)."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename == __file__:
        frame, level = frame.f_back, level + 1
    return level


def make_cluster(cluster_ids: Sequence[int], m1: int) -> Design:
    """Complete randomization of whole clusters; units inherit their cluster's arm."""
    groups = _cluster_groups(cluster_ids)
    m = groups.m
    if m < 2:
        raise DesignError("cluster randomization needs at least 2 clusters")
    if not 1 <= m1 <= m - 1:
        raise UnidentifiedDesignError("treated cluster count must satisfy 1 <= m1 <= m - 1")
    if m1 < 2 or m - m1 < 2:
        warnings.warn(
            "fewer than 2 clusters in an arm: several cluster-level results "
            "(identified cluster bound, cluster-level moments) need at least 2 per arm",
            stacklevel=_outside_this_module(),
        )
    params = {"cluster_ids": np.asarray(cluster_ids, dtype=np.int64), "m1": m1, "m": m}
    return _group_design(groups, m1, AnalyticProvenance("cluster", params))


def make_from_sampler(
    sampler,
    n: int,
    draws: int = 0,
    seed: int = 0,
    mode: str = "monte_carlo",
) -> Design:
    """Build a design from an assignment generator.

    In ``enumerate`` mode the sampler must be an iterable of
    ``(assignment, probability)`` pairs spanning the full support, with
    finite, nonnegative probabilities summing to one within 1e-9, and the
    joint matrix is exact.  When the probabilities divided by their sum are
    all equal (a rerandomized or an enumerated complete design), the law is
    the empirical law of the support's rows, and each entry is the count of
    rows observing both slots over the number of rows, correctly rounded.
    Any other support keeps the arm blocks of ``_joint_from_support``, built
    from the probabilities divided by their sum.  In ``monte_carlo`` mode the
    sampler is a callable ``sampler(rng) -> assignment`` and the joint matrix
    is the empirical frequency over ``draws`` draws (deterministic given
    ``seed``), each entry an integer count divided by ``draws``.  Both counts
    come from ``_co_treated`` and are valid by construction (see ``Design``);
    a weighted support runs the dense scan.  D is certified PSD by the
    multinomial proof of ``Design._design_matrix``, with no eigendecomposition.
    """
    counted = True
    if mode == "enumerate":
        support, probs = _collect_support(sampler, n)
        law = probs / probs.sum()
        counted = bool((law == law[0]).all())
        joint = (_joint_from_counts(_co_treated(support), len(support)) if counted
                 else _joint_from_support(support, law))
        prov = EnumeratedProvenance(assignments=support, probabilities=probs)
    elif mode == "monte_carlo":
        if draws <= 0:
            raise DesignError("monte_carlo mode needs a positive number of draws")
        rng = np.random.default_rng(seed)
        message = "sampler must yield 0/1 vectors of length n"
        rows = [sampler(rng) for _ in range(draws)]
        try:  # one conversion of all the draws; ragged draws raise ValueError
            stack = np.array(rows)
            if not np.can_cast(stack.dtype, float):  # strings, objects: as floats
                stack = np.array(rows, dtype=float)
        except ValueError:
            raise DesignError(message) from None
        if stack.shape != (draws, n) or not _zero_one(stack):
            raise DesignError(message)
        joint = _joint_from_counts(_co_treated(stack), draws)
        prov = MonteCarloProvenance(draws=draws, seed=seed, sampler=sampler)
    else:
        raise DesignError(f"unknown mode {mode!r}")

    marginals = np.diag(joint).copy()
    bad = np.flatnonzero((marginals[n:] <= 0.0) | (marginals[n:] >= 1.0))
    if bad.size:
        raise UnidentifiedDesignError(
            "estimated treatment probability is 0 or 1 for units: "
            + ", ".join(str(int(i)) for i in bad)
        )
    if not counted:
        _validate_joint(n, joint, marginals)
    return Design._lazy(n=n, joint=_frozen(joint), marginals=_frozen(marginals), provenance=prov,
                        _from_support=True)


def _collect_support(pairs: Iterable, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (S, n) int8 support and its S probabilities, checked."""
    message = "support assignments must be 0/1 vectors of length n"
    rows = []
    probs = []
    for z, prob in pairs:
        z = np.asarray(z)
        if z.shape != (n,):
            raise DesignError(message)
        rows.append(z)
        probs.append(float(prob))
    if not rows:
        raise DesignError("empty support")
    support = np.array(rows)
    if not _zero_one(support):
        raise DesignError(message)
    probs_arr = np.asarray(probs, dtype=float)
    if not (np.isfinite(probs_arr) & (probs_arr >= 0.0)).all():
        raise DesignError("support probabilities must be finite and nonnegative")
    if abs(probs_arr.sum() - 1.0) > 1e-9:
        raise DesignError(f"support probabilities sum to {probs_arr.sum():.12g}, not 1")
    return support.astype(np.int8), probs_arr


def _joint_from_support(support: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """The joint of the law ``probs`` over the rows of ``support``, by arm blocks.

    With Z1 the support, Z0 = 1 - Z1 and P = diag(probs), the blocks are
    Z0'PZ0, Z0'PZ1, its transpose and Z1'PZ1.  Each entry sums nonnegative
    terms, so it is 0 exactly where no assignment of positive probability
    observes both slots.
    """
    n = support.shape[1]
    z1 = support.astype(float)
    z0 = 1.0 - z1
    pz1 = z1 * probs[:, None]
    joint = np.empty((2 * n, 2 * n))
    joint[:n, :n] = z0.T @ (z0 * probs[:, None])
    joint[:n, n:] = z0.T @ pz1
    joint[n:, :n] = joint[:n, n:].T
    joint[n:, n:] = z1.T @ pz1
    return joint


def _co_treated(z: np.ndarray) -> np.ndarray:
    """Z'Z of a 0/1 (S, n) stack in float64: the count of rows treating both
    units i and j.

    Each chunk of at most ``_CO_TREATED_ROWS`` rows is multiplied in float32,
    and the chunks are summed in float64.  Every partial sum is an integer no
    larger than the chunk, held exactly in float32, so the counts are exact on
    any BLAS and in any summation order.
    """
    both = np.zeros((z.shape[1],) * 2)
    for start in range(0, len(z), _CO_TREATED_ROWS):
        x = z[start : start + _CO_TREATED_ROWS].astype(np.float32)
        both += x.T @ x
    return both


def _joint_from_counts(both: np.ndarray, draws: int) -> np.ndarray:
    """The empirical joint of ``draws`` assignments, from ``both``, the (n, n)
    counts of draws that treat units i and j (its diagonal c counts each unit's).

    The arm blocks are integer counts: both treated C_ij, i treated and j
    control c_i - C_ij, both control draws - c_i - c_j + C_ij.  Integers below
    2**53 are exact in float64, so every entry is its count over ``draws``
    correctly rounded, the joint is exactly symmetric, and it is 0 exactly
    where no draw observes both slots.
    """
    n = both.shape[0]
    c = np.diag(both)
    joint = np.empty((2 * n, 2 * n))
    joint[:n, :n] = (draws - c[:, None] - c[None, :]) + both
    joint[:n, n:] = c[None, :] - both
    joint[n:, :n] = c[:, None] - both
    joint[n:, n:] = both
    joint /= draws
    return joint


def draw(design: Design, seed: int) -> AssignmentRealization:
    """Sample one assignment from the design; deterministic given the seed."""
    rng = np.random.default_rng(seed)
    prov = design.provenance
    m1 = _treated_groups(design)
    if m1 is not None:
        groups = design._assignment_groups
        z_group = np.zeros(groups.m, dtype=np.int8)
        z_group[rng.permutation(groups.m)[:m1]] = 1
        z = z_group[groups.index]
    elif prov.kind == "bernoulli":
        z = (rng.random(design.n) < prov.params["pi1"]).astype(np.int8)
    elif isinstance(prov, EnumeratedProvenance):
        pick = rng.choice(prov.assignments.shape[0], p=prov.probabilities)
        z = prov.assignments[pick]
    else:
        if prov.sampler is None:
            raise DesignError("this Monte-Carlo design carries no sampler (deserialized?)")
        z = prov.sampler(rng)
    return AssignmentRealization(z)


def support_size(design: Design) -> int | None:
    """Exact support size when it is cheaply known, else None."""
    prov = design.provenance
    m1 = _treated_groups(design)
    if m1 is not None:
        return comb(design._assignment_groups.m, m1)
    if prov.kind == "bernoulli":
        return 2**design.n
    if isinstance(prov, EnumeratedProvenance):
        return prov.assignments.shape[0]
    return None


def in_support(design: Design, z) -> bool:
    """Whether assignment ``z`` has positive probability under the design.

    Monte-Carlo designs carry no support and always pass; Bernoulli designs
    give every assignment positive probability.
    """
    z = np.asarray(z)
    prov = design.provenance
    m1 = _treated_groups(design)
    if m1 is not None:
        groups = design._assignment_groups
        z_group = np.zeros(groups.m, dtype=z.dtype)
        z_group[groups.index] = z
        return bool(np.array_equal(z_group[groups.index], z)) and int(z_group.sum()) == m1
    if isinstance(prov, EnumeratedProvenance):
        rows = (prov.assignments == z).all(axis=1)
        return bool((prov.probabilities[rows] > 0).any())
    return True


def enumerate_assignments(design: Design) -> list[tuple[AssignmentRealization, float]]:
    """Expand the design's full support with probabilities (the exact oracle)."""
    size = support_size(design)
    if size is None:
        raise DesignError(
            "cannot enumerate a Monte-Carlo design; estimate expectations by sampling instead"
        )
    if size > DEFAULT_SUPPORT_CAP:
        raise SupportTooLargeError(
            f"support has {size} assignments (cap {DEFAULT_SUPPORT_CAP}); "
            "use Monte-Carlo sampling instead"
        )
    prov = design.provenance
    out: list[tuple[AssignmentRealization, float]] = []
    m1 = _treated_groups(design)
    if m1 is not None:
        groups = design._assignment_groups
        for chosen in itertools.combinations(range(groups.m), m1):
            z_group = np.zeros(groups.m, dtype=np.int8)
            z_group[list(chosen)] = 1
            out.append((AssignmentRealization(z_group[groups.index]), 1.0 / size))
        return out
    if prov.kind == "bernoulli":
        pi1 = prov.params["pi1"]
        for bits in itertools.product((0, 1), repeat=design.n):
            z = np.asarray(bits, dtype=np.int8)
            prob = float(np.prod(np.where(z == 1, pi1, 1.0 - pi1)))
            out.append((AssignmentRealization(z), prob))
        return out
    pairs = zip(prov.assignments, prov.probabilities)
    return [(AssignmentRealization(z), float(prob)) for z, prob in pairs]


def cluster_level_design(design: Design) -> Design:
    """Collapse a cluster design to its m-cluster complete-randomization design,
    built once per design."""
    return design._cluster_level


# -- serialization ------------------------------------------------------------


def design_to_dict(design: Design) -> dict:
    prov = design.provenance
    out: dict = {"n": design.n, "kind": prov.kind}
    if isinstance(prov, AnalyticProvenance):
        out["params"] = {key: val.tolist() if isinstance(val, np.ndarray) else val
                         for key, val in prov.params.items()}
    elif isinstance(prov, EnumeratedProvenance):
        out["params"] = {
            "assignments": prov.assignments.tolist(),
            "probabilities": prov.probabilities.tolist(),
        }
    else:
        out["params"] = {"draws": prov.draws, "seed": prov.seed}
        out["p"] = design.joint.ravel().tolist()
    return out


def _key(data: dict, key: str, what: str):
    """``data[key]``, or a DesignError naming the key that ``what`` lacks."""
    if key not in data:
        raise DesignError(f"{what} needs the key {key!r}")
    return data[key]


def _sized(values: np.ndarray, n: int, what: str) -> np.ndarray:
    """Per-unit ``values``; a vector of them must have the description's ``n``."""
    if values.ndim == 1 and values.shape[0] != n:
        raise DesignError(f"{what} description has n = {n} "
                          f"but its parameters give {values.shape[0]} units")
    return values


def design_from_dict(data: dict) -> Design:
    kind = _key(data, "kind", "a design description")
    n = int(_key(data, "n", "a design description"))
    params = data.get("params", {})
    what = f"{kind} design"
    if kind == "complete":
        return make_complete(n, int(_key(params, "n1", what)))
    if kind == "bernoulli":
        return make_bernoulli(_sized(np.asarray(_key(params, "pi1", what), dtype=float), n, what))
    if kind == "cluster":
        ids = _sized(np.asarray(_key(params, "cluster_ids", what)), n, what)
        return make_cluster(ids, int(_key(params, "m1", what)))
    if kind == "enumerated":
        pairs = zip(_key(params, "assignments", what), _key(params, "probabilities", what))
        return make_from_sampler(pairs, n, mode="enumerate")
    if kind == "monte_carlo":
        joint = np.asarray(_key(data, "p", what), dtype=float)
        if joint.size != 4 * n * n:
            raise DesignError(f"{what} description has n = {n}, so 4n^2 = {4 * n * n} "
                              f"joint entries, but its 'p' holds {joint.size}")
        joint = joint.reshape(2 * n, 2 * n)
        draws, seed = int(_key(params, "draws", what)), int(_key(params, "seed", what))
        prov = MonteCarloProvenance(draws=draws, seed=seed)
        return Design(n, joint, np.diag(joint).copy(), prov)
    raise DesignError(f"unknown design kind {kind!r}")


def design_from_json(text: str) -> Design:
    return design_from_dict(json.loads(text))
