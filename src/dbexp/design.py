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
from functools import cached_property
from math import comb
from typing import Callable, Iterable, Sequence

import numpy as np

from ._group import GroupOperator, quadratic
from ._linalg import min_max_eig

#: Largest support that enumerate_assignments will expand by default.
DEFAULT_SUPPORT_CAP = 10**6

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
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

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
    """Whether every entry of ``z`` is 0 or 1 (booleans included, NaN not)."""
    return bool(((z == 0) | (z == 1)).all())


@dataclass(frozen=True)
class AssignmentRealization:
    """One realized assignment; ``assignment[i] == 1`` means unit i is treated."""

    assignment: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.assignment)
        if z.ndim != 1 or not _zero_one(z):
            raise ValueError("assignment must be a 0/1 vector")
        z = z.astype(np.int8)
        z.flags.writeable = False
        object.__setattr__(self, "assignment", z)

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    def indicator_diagonal(self) -> np.ndarray:
        """Diagonal of the 2n x 2n observation-indicator matrix: [1-z ; z]."""
        z = self.assignment.astype(float)
        return np.concatenate([1.0 - z, z])

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(int(v) for v in self.assignment)


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
    max_adjustment: float = 0.0

    @property
    def kind(self) -> str:
        return "monte_carlo"


class _KindForm:
    """Base of the objects that may hold a design's kind form (``_form``).

    Such an object is built without its dense arrays; ``_dense_from`` maps
    each array attribute to the function that builds it, which runs on the
    first read and is kept.  Objects built from arrays never reach it.
    """

    _form = None
    _dense_from = {}

    @classmethod
    def _lazy(cls, **fields):
        """An instance holding ``fields``, ``_form`` among them, and no dense array."""
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

    @property
    def _joint_key(self):
        """The object that identifies the design's joint: its kind form, else its array."""
        return self._form if self._form is not None else self.joint


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
    spectra, or ``dense`` by an eigendecomposition; None when built directly.
    For a design in kind form, ``core`` is the :class:`GroupOperator` of D
    and the arrays are built on first read.
    """

    values: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)  # True where the pair is jointly unobservable (value -1)
    n: int
    joint: np.ndarray = field(repr=False)
    certificate: str | None = None

    _dense_from = {
        "values": lambda dmat: dmat._form.dense_values,
        "mask": lambda dmat: dmat._form.dense_mask,
        "joint": lambda dmat: dmat._form.dense_joint,
    }

    def __post_init__(self):
        for name in ("values", "mask", "joint"):
            arr = getattr(self, name)
            arr = np.ascontiguousarray(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

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

    A design built directly, by ``make_from_sampler`` or from a serialized
    Monte-Carlo joint copies its joint and is validated by the dense scan of
    ``_validate_joint``.  ``make_complete``, ``make_bernoulli`` and
    ``make_cluster`` validate from their parameters instead and keep the
    design in kind form (``_form``); its ``joint`` is built on first read.
    """

    n: int
    joint: np.ndarray = field(repr=False)
    marginals: np.ndarray
    provenance: AnalyticProvenance | EnumeratedProvenance | MonteCarloProvenance

    _dense_from = {"joint": lambda design: design._form.dense_joint}

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
        form.  Any other design, or a kind form whose kernels are not finite,
        is certified by a dense eigendecomposition.
        """
        spectrum = _closed_form_spectrum(self)
        if spectrum is None:
            outer = np.outer(self.marginals, self.marginals)
            values = (self.joint - outer) / outer
            lo, hi = min_max_eig(values)
        else:
            lo, hi = float(spectrum.min()), float(spectrum.max())
        if lo < -1e-8 * max(abs(lo), abs(hi), 1.0):
            raise DesignError(f"derived covariance structure is not PSD (min eigenvalue {lo:g})")
        if spectrum is not None:
            return DesignMatrix._lazy(n=self.n, certificate="closed_form", _form=self._form)
        return DesignMatrix(values=values, mask=self.joint == 0.0, n=self.n, joint=self.joint,
                            certificate="dense")

    @cached_property
    def _cluster_level(self) -> tuple["Design", np.ndarray]:
        """See :func:`cluster_level_design`."""
        if self.kind != "cluster":
            raise DesignError("cluster-level collapse requires a cluster-randomized design")
        index, m, m1 = _groups(self)
        index.flags.writeable = False
        return make_complete(m, m1), index

    def to_json(self) -> str:
        return json.dumps(design_to_dict(self))


def _same_joint(a, b) -> bool:
    """Whether two holders of a joint (designs, design matrices, bounds) hold
    one design's: their kind forms by identity or equal parameters, else
    their dense joints by identity or value."""
    if a._joint_key is b._joint_key:
        return True
    if a._form is not None and b._form is not None:
        return a._form.equals(b._form)
    return a.joint is b.joint or bool(np.array_equal(a.joint, b.joint))


def _validate_joint(n: int, joint: np.ndarray, marginals: np.ndarray) -> None:
    """Check a joint and its marginals entry by entry: the dense scan.

    Every ``Design`` built directly runs it on its full joint.  The analytic
    constructors do not: group designs run it on a 3-unit joint that holds
    every distinct entry of theirs (``_group_design``), and Bernoulli designs
    need only their parameter checks (``make_bernoulli``).  Each rule below
    is a condition on one entry, or on an entry and its transpose, which is
    what makes the small joint a proof for the full one.
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
    rather than one value per kind.  The ``dense_*`` arrays are built, bit
    for bit as a dense design would hold them, on first read.
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

    @cached_property
    def dense_values(self) -> np.ndarray:
        return _frozen(self.values.dense())

    @cached_property
    def dense_mask(self) -> np.ndarray:
        return _frozen(self.mask.dense())

    def weigh(self, bound: GroupOperator) -> GroupOperator:
        """``bound`` over the joint probabilities, kind by kind, zero-probability
        slots left harmless: the kind form of ``values / (joint + (joint == 0))``."""
        if self.joint is not None:
            return bound.kindwise(lambda b, p: b / (p + (p == 0.0)), self.joint)
        # Bernoulli: a bound vanishes on distinct units, whose joints are positive
        if bound.diff.any():
            raise ValueError("a Bernoulli design's bound must vanish on distinct units")
        own = _own_joint(self.marginals.reshape(2, -1))
        return GroupOperator(bound.index, bound.unit / (own + (own == 0.0)), bound.same, bound.diff)

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


def _group_form(index: np.ndarray, pi: np.ndarray, pairs: np.ndarray) -> GroupForm:
    """Units inherit their group's arm: two slots of one group have the joint
    ``diag(pi)``, two slots of different groups ``pairs``."""
    n = index.shape[0]
    own = np.diag(pi)  # two units of one group always share its arm

    def per_unit(k):
        return np.broadcast_to(k[:, :, None], (2, 2, n))

    joint = GroupOperator(index, per_unit(own), own, pairs)
    k_same, k_diff = _arm_kernel(own, pi), _arm_kernel(pairs, pi)
    values = GroupOperator(index, per_unit(k_same), k_same, k_diff)
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
    values = GroupOperator(np.arange(n), d_unit, zero, zero)
    mask = GroupOperator(values.index, own == 0.0, zero != 0.0, zero != 0.0)
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
    """A Design in kind form, validated by its constructor from its parameters."""
    return Design._lazy(n=form.n, marginals=form.marginals, provenance=provenance, _form=form)


def _groups(design: Design) -> tuple[np.ndarray, int, int] | None:
    """(unit -> group index, number of groups, number treated) of a complete or
    cluster design, else None.  A complete design is n singleton groups."""
    prov = design.provenance
    if prov.kind == "complete":
        return np.arange(design.n), design.n, prov.params["n1"]
    if prov.kind == "cluster":
        unique, index = _cluster_index(prov.params["cluster_ids"])
        return index, unique.shape[0], prov.params["m1"]
    return None


def _group_pairs(m: int, m1: int) -> tuple[np.ndarray, np.ndarray]:
    """Arm marginals (2,) and the 2 x 2 arm joint of two different groups when
    ``m1`` of ``m`` groups are treated completely at random."""
    m0 = m - m1
    pi = np.array([m0 / m, m1 / m])
    pairs = np.array([[m0 * (m0 - 1), m0 * m1], [m0 * m1, m1 * (m1 - 1)]]) / (m * (m - 1))
    return pi, pairs


#: Group index of the smallest group design with every kind of joint entry: a
#: unit with itself, two units of one group and two units of different groups.
_ALL_ENTRY_KINDS = np.array([0, 0, 1])


def _group_design(index: np.ndarray, m1: int, provenance: AnalyticProvenance) -> Design:
    """Complete randomization of ``m1`` groups; units inherit their group's arm.

    Every entry of the joint is an entry of ``diag(pi)`` or ``pairs`` at its
    kind of slot pair, and every marginal is ``pi``, so validating the 3-unit
    joint of ``_ALL_ENTRY_KINDS`` validates the full one.
    """
    m = int(index.max()) + 1
    pi, pairs = _group_pairs(m, m1)
    small = _group_form(_ALL_ENTRY_KINDS, pi, pairs)
    _validate_joint(small.n, small.dense_joint, small.marginals)
    return _form_design(_group_form(index, pi, pairs), provenance)


def make_complete(n: int, n1: int) -> Design:
    """Complete randomization: exactly ``n1`` of ``n`` units treated."""
    if n < 2:
        raise DesignError("complete randomization needs at least 2 units")
    if not 1 <= n1 <= n - 1:
        raise UnidentifiedDesignError("number treated must satisfy 1 <= n1 <= n - 1")
    return _group_design(np.arange(n), n1, AnalyticProvenance("complete", {"n1": n1}))


def make_bernoulli(pi1: Sequence[float]) -> Design:
    """Independent assignment with per-unit treatment probabilities."""
    pi1 = np.asarray(pi1, dtype=float)
    n = pi1.shape[0]
    if n < 2:
        raise DesignError("a design needs at least 2 units")
    if ((pi1 <= 0.0) | (pi1 >= 1.0)).any():
        raise UnidentifiedDesignError("Bernoulli probabilities must lie strictly inside (0, 1)")
    if np.isnan(pi1).any():  # the only value the range check lets through
        raise DesignError("arm probabilities must sum to one for every unit")
    if pi1.ndim != 1:
        raise DesignError("Bernoulli probabilities must form a vector")
    provenance = AnalyticProvenance("bernoulli", {"pi1": pi1.copy()})
    return _form_design(_bernoulli_form(pi1), provenance)


def _cluster_index(cluster_ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    ids = np.asarray(cluster_ids)
    if ids.ndim != 1 or ids.size == 0:
        raise DesignError("cluster ids must form a non-empty vector")
    if not np.issubdtype(ids.dtype, np.integer):
        as_int = ids.astype(np.int64, casting="unsafe")
        if not np.array_equal(as_int, ids):
            raise DesignError("cluster ids must be integers")
        ids = as_int
    unique = np.unique(ids)  # ascending id order, the canonical cluster order
    index = np.searchsorted(unique, ids)
    return unique, index


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
    unique, index = _cluster_index(cluster_ids)
    m = unique.shape[0]
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
    return _group_design(index, m1, AnalyticProvenance("cluster", params))


def make_from_sampler(
    sampler,
    n: int,
    draws: int = 0,
    seed: int = 0,
    mode: str = "monte_carlo",
) -> Design:
    """Build a design from an assignment generator.

    In ``enumerate`` mode the sampler must be an iterable of
    ``(assignment, probability)`` pairs spanning the full support; the joint
    matrix is then exact.  In ``monte_carlo`` mode the sampler is a callable
    ``sampler(rng) -> assignment`` and the joint matrix is the empirical
    frequency over ``draws`` draws (deterministic given ``seed``).
    """
    if mode == "enumerate":
        support, probs = _collect_support(sampler, n)
        joint = _joint_from_support(support, probs)
        prov = EnumeratedProvenance(assignments=support, probabilities=probs)
    elif mode == "monte_carlo":
        if draws <= 0:
            raise DesignError("monte_carlo mode needs a positive number of draws")
        rng = np.random.default_rng(seed)
        stack = np.empty((draws, n))
        for row in stack:
            z = np.asarray(sampler(rng))
            if z.shape != (n,):
                raise DesignError("sampler must yield 0/1 vectors of length n")
            row[:] = z
        if not _zero_one(stack):
            raise DesignError("sampler must yield 0/1 vectors of length n")
        # unique rows in lexicographic order, the order of the sorted tuples
        support, counts = np.unique(stack.astype(np.int8), axis=0, return_counts=True)
        probs = counts / draws
        joint = _joint_from_support(support, probs)
        # Accumulation over indicator outer products keeps the estimate
        # symmetric and consistent by construction; record the (zero)
        # adjustment anyway so callers can audit it.
        adjustment = float(np.abs(joint - joint.T).max())
        joint = (joint + joint.T) / 2.0
        joint = np.clip(joint, 0.0, 1.0)
        prov = MonteCarloProvenance(draws=draws, seed=seed, sampler=sampler, max_adjustment=adjustment)
    else:
        raise DesignError(f"unknown mode {mode!r}")

    marginals = np.diag(joint).copy()
    bad = np.flatnonzero((marginals[n:] <= 0.0) | (marginals[n:] >= 1.0))
    if bad.size:
        raise UnidentifiedDesignError(
            "estimated treatment probability is 0 or 1 for units: "
            + ", ".join(str(int(i)) for i in bad)
        )
    return Design(n, joint, marginals, prov)


def _collect_support(pairs: Iterable, n: int) -> tuple[np.ndarray, np.ndarray]:
    support = []
    probs = []
    for z, prob in pairs:
        z = np.asarray(z)
        if z.shape != (n,) or not _zero_one(z):
            raise DesignError("support assignments must be 0/1 vectors of length n")
        support.append(z.astype(np.int8))
        probs.append(float(prob))
    if not support:
        raise DesignError("empty support")
    probs_arr = np.asarray(probs, dtype=float)
    if abs(probs_arr.sum() - 1.0) > 1e-9:
        raise DesignError(f"support probabilities sum to {probs_arr.sum():.12g}, not 1")
    return np.asarray(support, dtype=np.int8), probs_arr


def _joint_from_support(support: np.ndarray, probs: np.ndarray) -> np.ndarray:
    z = support.astype(float)
    indicators = np.hstack([1.0 - z, z])  # (support, 2n)
    return indicators.T @ (indicators * probs[:, None])


def draw(design: Design, seed: int) -> AssignmentRealization:
    """Sample one assignment from the design; deterministic given the seed."""
    rng = np.random.default_rng(seed)
    prov = design.provenance
    groups = _groups(design)
    if groups is not None:
        index, m, m1 = groups
        z_group = np.zeros(m, dtype=np.int8)
        z_group[rng.permutation(m)[:m1]] = 1
        z = z_group[index]
    elif prov.kind == "bernoulli":
        z = (rng.random(design.n) < prov.params["pi1"]).astype(np.int8)
    elif isinstance(prov, EnumeratedProvenance):
        pick = rng.choice(prov.assignments.shape[0], p=prov.probabilities)
        z = prov.assignments[pick]
    else:
        if prov.sampler is None:
            raise DesignError("this Monte-Carlo design carries no sampler (deserialized?)")
        z = np.asarray(prov.sampler(rng), dtype=np.int8)
    return AssignmentRealization(z)


def support_size(design: Design) -> int | None:
    """Exact support size when it is cheaply known, else None."""
    prov = design.provenance
    groups = _groups(design)
    if groups is not None:
        _, m, m1 = groups
        return comb(m, m1)
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
    groups = _groups(design)
    if groups is not None:
        index, m, m1 = groups
        z_group = np.zeros(m, dtype=z.dtype)
        z_group[index] = z
        return bool(np.array_equal(z_group[index], z)) and int(z_group.sum()) == m1
    if isinstance(prov, EnumeratedProvenance):
        rows = (prov.assignments == z).all(axis=1)
        return bool((prov.probabilities[rows] > 0).any())
    return True


def enumerate_assignments(
    design: Design, cap: int = DEFAULT_SUPPORT_CAP
) -> list[tuple[AssignmentRealization, float]]:
    """Expand the design's full support with probabilities (the exact oracle)."""
    size = support_size(design)
    if size is None:
        raise DesignError(
            "cannot enumerate a Monte-Carlo design; estimate expectations by sampling instead"
        )
    if size > cap:
        raise SupportTooLargeError(
            f"support has {size} assignments (cap {cap}); use Monte-Carlo sampling instead"
        )
    prov = design.provenance
    out: list[tuple[AssignmentRealization, float]] = []
    groups = _groups(design)
    if groups is not None:
        index, m, m1 = groups
        for chosen in itertools.combinations(range(m), m1):
            z_group = np.zeros(m, dtype=np.int8)
            z_group[list(chosen)] = 1
            out.append((AssignmentRealization(z_group[index]), 1.0 / size))
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


def cluster_level_design(design: Design) -> tuple[Design, np.ndarray]:
    """Collapse a cluster design to its m-cluster complete-randomization design.

    Returns the cluster-level design and the read-only unit -> cluster position
    index, both built once per design.
    """
    return design._cluster_level


# -- serialization ------------------------------------------------------------


def design_to_dict(design: Design) -> dict:
    prov = design.provenance
    out: dict = {"n": design.n, "kind": prov.kind}
    if isinstance(prov, AnalyticProvenance):
        params = dict(prov.params)
        for key, val in params.items():
            if isinstance(val, np.ndarray):
                params[key] = val.tolist()
        out["params"] = params
    elif isinstance(prov, EnumeratedProvenance):
        out["params"] = {
            "assignments": prov.assignments.tolist(),
            "probabilities": prov.probabilities.tolist(),
        }
        out["p"] = design.joint.ravel().tolist()
    else:
        out["params"] = {"draws": prov.draws, "seed": prov.seed}
        out["p"] = design.joint.ravel().tolist()
    return out


def _key(data: dict, key: str, what: str):
    """``data[key]``, or a DesignError naming the key that ``what`` lacks."""
    if key not in data:
        raise DesignError(f"{what} needs the key {key!r}")
    return data[key]


def design_from_dict(data: dict) -> Design:
    kind = _key(data, "kind", "a design description")
    n = int(_key(data, "n", "a design description"))
    params = data.get("params", {})
    what = f"{kind} design"
    if kind == "complete":
        return make_complete(n, int(_key(params, "n1", what)))
    if kind == "bernoulli":
        return make_bernoulli(np.asarray(_key(params, "pi1", what), dtype=float))
    if kind == "cluster":
        ids = np.asarray(_key(params, "cluster_ids", what))
        return make_cluster(ids, int(_key(params, "m1", what)))
    if kind == "enumerated":
        pairs = zip(_key(params, "assignments", what), _key(params, "probabilities", what))
        return make_from_sampler(
            ((np.asarray(z, dtype=np.int8), p) for z, p in pairs), n, mode="enumerate"
        )
    if kind == "monte_carlo":
        joint = np.asarray(_key(data, "p", what), dtype=float).reshape(2 * n, 2 * n)
        draws, seed = int(_key(params, "draws", what)), int(_key(params, "seed", what))
        prov = MonteCarloProvenance(draws=draws, seed=seed)
        return Design(n, joint, np.diag(joint).copy(), prov)
    raise DesignError(f"unknown design kind {kind!r}")


def design_from_json(text: str) -> Design:
    return design_from_dict(json.loads(text))
