"""Randomization designs as joint assignment-probability structures.

A two-arm design over n units is stored as the 2n x 2n matrix of joint
observation probabilities for the stacked outcome vector (control slots first,
treatment slots second).  Everything downstream -- the covariance structure of
inverse-probability-weighted indicators, variance bounds, bound estimators --
is derived from that matrix.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Callable, Iterable, Sequence

import numpy as np

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


@dataclass(frozen=True)
class AssignmentRealization:
    """One realized assignment; ``assignment[i] == 1`` means unit i is treated."""

    assignment: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.assignment)
        if z.ndim != 1 or not np.isin(z, (0, 1)).all():
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


@dataclass(frozen=True)
class DesignMatrix:
    """Covariance matrix of the inverse-probability-weighted indicators.

    Entry (i, j) equals (p_ij - pi_i pi_j) / (pi_i pi_j); it is exactly -1 at
    every jointly unobservable pair, and the quadratic form y'My / n**2 is the
    variance of the inverse-probability estimator of the stacked mean.
    """

    values: np.ndarray
    mask: np.ndarray  # True where the pair is jointly unobservable (value -1)
    n: int

    def __post_init__(self):
        for name in ("values", "mask"):
            arr = getattr(self, name)
            arr = np.ascontiguousarray(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def block(self, row_arm: int, col_arm: int) -> np.ndarray:
        """n x n block; arms indexed 0 (control) and 1 (treatment)."""
        n = self.n
        return self.values[row_arm * n : (row_arm + 1) * n, col_arm * n : (col_arm + 1) * n]

    def quadratic(self, stacked: np.ndarray) -> float:
        v = np.asarray(stacked, dtype=float)
        return float(v @ self.values @ v)


@dataclass(frozen=True)
class Design:
    """Joint assignment probabilities for a two-arm design.

    ``joint`` is laid out in 2x2 blocks of n x n matrices: the (0,0) block
    holds both-control probabilities, the (1,1) block both-treated, and the
    off blocks mixed-arm probabilities.  ``marginals`` is its diagonal.
    """

    n: int
    joint: np.ndarray
    marginals: np.ndarray
    provenance: AnalyticProvenance | EnumeratedProvenance | MonteCarloProvenance

    def __post_init__(self):
        joint = np.ascontiguousarray(np.asarray(self.joint, dtype=float))
        marginals = np.ascontiguousarray(np.asarray(self.marginals, dtype=float))
        _validate_joint(self.n, joint, marginals)
        joint.flags.writeable = False
        marginals.flags.writeable = False
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "marginals", marginals)

    @property
    def kind(self) -> str:
        return self.provenance.kind

    @property
    def prob_treated(self) -> np.ndarray:
        return self.marginals[self.n :]

    @property
    def prob_control(self) -> np.ndarray:
        return self.marginals[: self.n]

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
        handful of closed-form 2 x 2 eigenproblems, used once ``values`` is
        checked in O(n^2) to have that structure; any other design, or an
        analytic one whose joint does not match its provenance, is certified
        by a dense eigendecomposition.
        """
        outer = np.outer(self.marginals, self.marginals)
        values = (self.joint - outer) / outer
        mask = self.joint == 0.0
        spectrum = _closed_form_spectrum(self, values)
        if spectrum is None:
            lo, hi = min_max_eig(values)
        else:
            lo, hi = float(spectrum.min()), float(spectrum.max())
        if lo < -1e-8 * max(abs(lo), abs(hi), 1.0):
            raise DesignError(f"derived covariance structure is not PSD (min eigenvalue {lo:g})")
        return DesignMatrix(values=values, mask=mask, n=self.n)

    @cached_property
    def _cluster_level(self) -> tuple["Design", np.ndarray]:
        """See :func:`cluster_level_design`."""
        prov = self.provenance
        if not (isinstance(prov, AnalyticProvenance) and prov.kind == "cluster"):
            raise DesignError("cluster-level collapse requires a cluster-randomized design")
        unique, index = _cluster_index(prov.params["cluster_ids"])
        index.flags.writeable = False
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            collapsed = make_complete(unique.shape[0], prov.params["m1"])
        return collapsed, index

    def to_json(self) -> str:
        return json.dumps(design_to_dict(self))


def _validate_joint(n: int, joint: np.ndarray, marginals: np.ndarray) -> None:
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


def _has_structure(values: np.ndarray, same: np.ndarray, k_same, k_diff) -> bool:
    """Whether block (a, b) of ``values`` is k_same[a, b] on ``same`` pairs, else k_diff[a, b]."""
    n = same.shape[0]
    tol = 1e-12 * max(1.0, float(np.abs(k_same).max()), float(np.abs(k_diff).max()))
    for a in range(2):
        for b in range(2):
            block = values[a * n : (a + 1) * n, b * n : (b + 1) * n]
            expected = np.where(same, k_same[a, b], k_diff[a, b])
            if not np.abs(block - expected).max() <= tol:
                return False
    return True


def _closed_form_spectrum(design: Design, values: np.ndarray) -> np.ndarray | None:
    """Eigenvalues that certify an analytic design's D, or None without that structure.

    Exactly D's spectrum for complete, Bernoulli and equal-size cluster
    designs; for unequal cluster sizes, C's spectrum scaled by the mean
    cluster size n / m, which has D's inertia (see ``Design._design_matrix``).
    """
    prov = design.provenance
    if not isinstance(prov, AnalyticProvenance):
        return None
    n = design.n
    if prov.kind == "bernoulli":
        pi1 = np.asarray(prov.params.get("pi1"), dtype=float)
        if pi1.shape != (n,):
            return None
        pi = np.stack([1.0 - pi1, pi1])
        # a unit's own joint is diag(pi0_i, pi1_i); distinct units are independent
        k_same = _arm_kernel(pi[:, None] * np.eye(2)[:, :, None], pi)
        if not _has_structure(values, np.eye(n, dtype=bool), k_same, np.zeros((2, 2))):
            return None
        return _eig2(k_same)
    if prov.kind == "complete":
        index, m1 = np.arange(n), prov.params.get("n1")
    elif prov.kind == "cluster":
        ids, m1 = prov.params.get("cluster_ids"), prov.params.get("m1")
        if ids is None or np.shape(ids) != (n,):
            return None
        index = _cluster_index(ids)[1]
    else:
        return None
    m = int(index.max()) + 1
    if m1 is None or not 1 <= m1 <= m - 1:
        return None
    m0 = m - m1
    pi = np.array([m0 / m, m1 / m])
    k_same = _arm_kernel(np.diag(pi), pi)
    pairs = np.array([[m0 * (m0 - 1), m0 * m1], [m0 * m1, m1 * (m1 - 1)]]) / (m * (m - 1))
    k_diff = _arm_kernel(pairs, pi)
    if not _has_structure(values, index[:, None] == index[None, :], k_same, k_diff):
        return None
    spectrum = [_eig2(k_same - k_diff), _eig2(k_same - k_diff + m * k_diff)]
    if n > m:
        spectrum.append(np.zeros(1))  # D vanishes on the complement of B's range
    return np.concatenate(spectrum) * (n / m)


def _assemble_joint(n: int, p00: np.ndarray, p10: np.ndarray, p11: np.ndarray) -> np.ndarray:
    # p10[i, j] = P(i treated, j control); the (0,1) block is its transpose.
    return np.block([[p00, p10.T], [p10, p11]])


def make_complete(n: int, n1: int) -> Design:
    """Complete randomization: exactly ``n1`` of ``n`` units treated."""
    if n < 2:
        raise DesignError("complete randomization needs at least 2 units")
    if not 1 <= n1 <= n - 1:
        raise UnidentifiedDesignError("number treated must satisfy 1 <= n1 <= n - 1")
    n0 = n - n1
    pi1 = n1 / n
    pi0 = n0 / n
    p11 = np.full((n, n), n1 * (n1 - 1) / (n * (n - 1)))
    np.fill_diagonal(p11, pi1)
    p00 = np.full((n, n), n0 * (n0 - 1) / (n * (n - 1)))
    np.fill_diagonal(p00, pi0)
    p10 = np.full((n, n), n1 * n0 / (n * (n - 1)))
    np.fill_diagonal(p10, 0.0)
    joint = _assemble_joint(n, p00, p10, p11)
    marginals = np.concatenate([np.full(n, pi0), np.full(n, pi1)])
    return Design(n, joint, marginals, AnalyticProvenance("complete", {"n1": n1}))


def make_bernoulli(pi1: Sequence[float]) -> Design:
    """Independent assignment with per-unit treatment probabilities."""
    pi1 = np.asarray(pi1, dtype=float)
    n = pi1.shape[0]
    if n < 2:
        raise DesignError("a design needs at least 2 units")
    if ((pi1 <= 0.0) | (pi1 >= 1.0)).any():
        raise UnidentifiedDesignError("Bernoulli probabilities must lie strictly inside (0, 1)")
    pi0 = 1.0 - pi1
    p11 = np.outer(pi1, pi1)
    np.fill_diagonal(p11, pi1)
    p00 = np.outer(pi0, pi0)
    np.fill_diagonal(p00, pi0)
    p10 = np.outer(pi1, pi0)
    np.fill_diagonal(p10, 0.0)
    joint = _assemble_joint(n, p00, p10, p11)
    marginals = np.concatenate([pi0, pi1])
    return Design(n, joint, marginals, AnalyticProvenance("bernoulli", {"pi1": pi1.copy()}))


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


def make_cluster(cluster_ids: Sequence[int], m1: int) -> Design:
    """Complete randomization of whole clusters; units inherit their cluster's arm."""
    unique, index = _cluster_index(cluster_ids)
    m = unique.shape[0]
    n = index.shape[0]
    if m < 2:
        raise DesignError("cluster randomization needs at least 2 clusters")
    if not 1 <= m1 <= m - 1:
        raise UnidentifiedDesignError("treated cluster count must satisfy 1 <= m1 <= m - 1")
    if m1 < 2 or m - m1 < 2:
        warnings.warn(
            "fewer than 2 clusters in an arm: several cluster-level results "
            "(identified cluster bound, cluster-level moments) need at least 2 per arm",
            stacklevel=2,
        )
    m0 = m - m1
    same = index[:, None] == index[None, :]
    p11 = np.where(same, m1 / m, m1 * (m1 - 1) / (m * (m - 1)))
    p00 = np.where(same, m0 / m, m0 * (m0 - 1) / (m * (m - 1)))
    p10 = np.where(same, 0.0, m1 * m0 / (m * (m - 1)))
    joint = _assemble_joint(n, p00, p10, p11)
    marginals = np.concatenate([np.full(n, m0 / m), np.full(n, m1 / m)])
    params = {"cluster_ids": np.asarray(cluster_ids, dtype=np.int64), "m1": m1, "m": m}
    return Design(n, joint, marginals, AnalyticProvenance("cluster", params))


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
        if not np.isin(stack, (0, 1)).all():
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
        if z.shape != (n,) or not np.isin(z, (0, 1)).all():
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
    if isinstance(prov, AnalyticProvenance):
        if prov.kind == "complete":
            z = np.zeros(design.n, dtype=np.int8)
            z[rng.permutation(design.n)[: prov.params["n1"]]] = 1
        elif prov.kind == "bernoulli":
            z = (rng.random(design.n) < prov.params["pi1"]).astype(np.int8)
        elif prov.kind == "cluster":
            unique, index = _cluster_index(prov.params["cluster_ids"])
            picked = rng.permutation(unique.shape[0])[: prov.params["m1"]]
            z = np.isin(index, picked).astype(np.int8)
        else:  # pragma: no cover - constructors control the kinds
            raise DesignError(f"unknown analytic kind {prov.kind!r}")
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
    if isinstance(prov, EnumeratedProvenance):
        return prov.assignments.shape[0]
    if isinstance(prov, AnalyticProvenance):
        if prov.kind == "complete":
            return comb(design.n, prov.params["n1"])
        if prov.kind == "bernoulli":
            return 2**design.n
        if prov.kind == "cluster":
            return comb(prov.params["m"], prov.params["m1"])
    return None


def in_support(design: Design, z) -> bool:
    """Whether assignment ``z`` has positive probability under the design.

    Monte-Carlo designs carry no support and always pass; Bernoulli designs
    give every assignment positive probability.
    """
    z = np.asarray(z)
    prov = design.provenance
    if isinstance(prov, EnumeratedProvenance):
        rows = (prov.assignments == z).all(axis=1)
        return bool((prov.probabilities[rows] > 0).any())
    if not isinstance(prov, AnalyticProvenance) or prov.kind == "bernoulli":
        return True
    if prov.kind == "complete":
        return int(z.sum()) == prov.params["n1"]
    _, index = _cluster_index(prov.params["cluster_ids"])
    z_cluster = np.zeros(prov.params["m"], dtype=z.dtype)
    z_cluster[index] = z
    return bool(np.array_equal(z_cluster[index], z)) and int(z_cluster.sum()) == prov.params["m1"]


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
    if isinstance(prov, EnumeratedProvenance):
        for z, prob in zip(prov.assignments, prov.probabilities):
            out.append((AssignmentRealization(z), float(prob)))
        return out
    if prov.kind == "complete":
        n1 = prov.params["n1"]
        prob = 1.0 / comb(design.n, n1)
        for chosen in itertools.combinations(range(design.n), n1):
            z = np.zeros(design.n, dtype=np.int8)
            z[list(chosen)] = 1
            out.append((AssignmentRealization(z), prob))
        return out
    if prov.kind == "bernoulli":
        pi1 = prov.params["pi1"]
        for bits in itertools.product((0, 1), repeat=design.n):
            z = np.asarray(bits, dtype=np.int8)
            prob = float(np.prod(np.where(z == 1, pi1, 1.0 - pi1)))
            out.append((AssignmentRealization(z), prob))
        return out
    if prov.kind == "cluster":
        unique, index = _cluster_index(prov.params["cluster_ids"])
        m1 = prov.params["m1"]
        prob = 1.0 / comb(unique.shape[0], m1)
        for chosen in itertools.combinations(range(unique.shape[0]), m1):
            z = np.isin(index, list(chosen)).astype(np.int8)
            out.append((AssignmentRealization(z), prob))
        return out
    raise DesignError(f"unknown analytic kind {prov.kind!r}")  # pragma: no cover


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


def design_from_dict(data: dict) -> Design:
    kind = data["kind"]
    n = int(data["n"])
    params = data.get("params", {})
    if kind == "complete":
        return make_complete(n, int(params["n1"]))
    if kind == "bernoulli":
        return make_bernoulli(np.asarray(params["pi1"], dtype=float))
    if kind == "cluster":
        return make_cluster(np.asarray(params["cluster_ids"]), int(params["m1"]))
    if kind == "enumerated":
        pairs = zip(params["assignments"], params["probabilities"])
        return make_from_sampler(
            ((np.asarray(z, dtype=np.int8), p) for z, p in pairs), n, mode="enumerate"
        )
    if kind == "monte_carlo":
        joint = np.asarray(data["p"], dtype=float).reshape(2 * n, 2 * n)
        prov = MonteCarloProvenance(draws=int(params["draws"]), seed=int(params["seed"]))
        return Design(n, joint, np.diag(joint).copy(), prov)
    raise DesignError(f"unknown design kind {kind!r}")


def design_from_json(text: str) -> Design:
    return design_from_dict(json.loads(text))
