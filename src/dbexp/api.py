"""Estimator-style front end: configure once, fit on realized data.

Follows the scikit-learn conventions (constructor stores parameters verbatim,
``fit`` returns self, fitted attributes carry a trailing underscore,
``get_params``/``set_params`` round-trip) without depending on scikit-learn.
"""

from __future__ import annotations

import inspect
import math
import warnings

import numpy as np

from . import bounds as _bounds
from . import covariates as _cov
from . import estimators as _est
from .design import (Design, _check_clusters, _cluster_groups, _zero_one, cluster_level_design,
                     design_matrix, in_support)
from .estimators import AssignmentRealization, ObservedOutcomes

POINT_ESTIMATORS = ("ht", *_est.COEFFICIENT_METHODS[1:])
BOUND_CHOICES = (
    "none",
    *_bounds.BOUND_METHODS,
    *(f"borrowed-{method}" for method in _bounds.BOUND_METHODS),
)


def check_treatment(treated) -> np.ndarray:
    z = np.asarray(treated)
    if z.ndim != 1 or not _zero_one(z):
        raise ValueError("treatment must be a one-dimensional 0/1 vector")
    return z.astype(np.int8)


def check_lengths(n: int, **named) -> None:
    for name, arr in named.items():
        if arr is not None and np.asarray(arr).shape[0] != n:
            raise ValueError(f"{name} has {np.asarray(arr).shape[0]} rows, expected {n}")


class AteEstimator:
    """Average-treatment-effect estimator for a known randomization design.

    Parameters
    ----------
    design : Design
        The randomization design the data came from.
    estimator : str
        Point estimator: one of ``ht``, ``ols``, ``wls_pi``, ``three_ht``,
        ``two_r``, ``tyranny``, ``ols_cluster_totals``.
    spec : str
        Covariate layout, "I" (common slopes) or "II" (separate slopes);
        ignored by ``ht``, forced to common slopes by ``tyranny`` and to the
        cluster-total layout by ``ols_cluster_totals``.
    bound : str
        Variance bound used for the interval: ``as``, ``iterative``,
        ``cluster``, one of the ``borrowed-*`` variants (two-stage estimator
        only), or ``none``.
    z : float
        Normal quantile for the interval half-width.

    ``fit`` zero-centers the covariates, and its ``cluster_ids``, given with a
    cluster design, must name the design's clusters (``DesignError`` otherwise).
    """

    def __init__(self, design: Design, estimator: str = "two_r", spec: str = "II",
                 bound: str = "as", z: float = 1.96):
        self.design = design
        self.estimator = estimator
        self.spec = spec
        self.bound = bound
        self.z = z

    # -- sklearn-style parameter plumbing --------------------------------
    @classmethod
    def _param_names(cls):
        signature = inspect.signature(cls.__init__)
        return [p for p in signature.parameters if p != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "AteEstimator":
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    # -- estimation -------------------------------------------------------
    def fit(self, outcome, treated, covariates=None, cluster_ids=None) -> "AteEstimator":
        if not isinstance(self.design, Design):
            raise TypeError("design must be a Design instance")
        if self.estimator not in POINT_ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.spec not in ("I", "II"):
            raise ValueError(f"unknown spec {self.spec!r}; choose from I, II")
        if self.bound not in BOUND_CHOICES:
            raise ValueError(f"unknown bound {self.bound!r}")
        if self.bound.startswith("borrowed") and self.estimator != "two_r":
            raise ValueError("borrowed bounds pair with the two-stage estimator only")
        if not 0.0 < self.z < math.inf:
            raise ValueError(f"z must be a positive finite normal quantile, got {self.z!r}")

        z = check_treatment(treated)
        outcome = np.asarray(outcome, dtype=float)
        check_lengths(z.shape[0], outcome=outcome, covariates=covariates, cluster_ids=cluster_ids)
        if z.shape[0] != self.design.n:
            raise ValueError("data size does not match the design")
        if not in_support(self.design, z):
            warnings.warn(
                "the realized assignment has probability ~0 under the declared design",
                stacklevel=2,
            )
        observed = ObservedOutcomes(outcome, AssignmentRealization(z))

        spec = self._build_spec(covariates, cluster_ids)
        if cluster_ids is not None and self.design.kind == "cluster":
            # a cluster-level layout has partitioned the ids already
            clusters = spec.clusters if spec is not None and spec.level == "cluster" else (
                _cluster_groups(cluster_ids))
            _check_clusters(clusters, self.design._assignment_groups)
        coefficient = None if spec is None else _est.coef_by_name(
            self.estimator, spec, observed, self.design
        )
        estimate = _est.greg(observed, self.design, spec, coefficient)
        self.ate_ = estimate.point
        self.coefficient_ = coefficient
        self.spec_ = spec
        self.n_ = self.design.n

        bound_est = self._bound_estimate(spec, observed, coefficient)
        self.variance_bound_ = bound_est
        if bound_est is None:
            self.ci_low_ = self.ci_high_ = None
            self.truncated_ = False
        else:
            lo, hi, truncated = _bounds.interval_from_bound(self.ate_, bound_est, self.z)
            self.ci_low_, self.ci_high_, self.truncated_ = lo, hi, truncated
        return self

    def _build_spec(self, covariates, cluster_ids):
        if self.estimator == "ht":
            return None
        x = _cov._as_matrix(np.empty((self.design.n, 0)) if covariates is None else covariates)
        if x.size:
            x = _cov.zero_center(x)
        if self.estimator == "ols_cluster_totals":
            if cluster_ids is None:
                raise ValueError("ols_cluster_totals needs cluster ids")
            return _cov.spec_cluster(x, cluster_ids, self.spec)
        if self.estimator == "tyranny" or self.spec == "I":
            return _cov.spec_common_slopes(x)
        return _cov.spec_separate_slopes(x)

    def _bound_matrix(self, method: str):
        """The bound built over the system design, kept as ``bound_matrix_`` for later fits.
        A cluster-level layout's system design randomizes the clusters as its units."""
        if self.spec_ is not None and self.spec_.level == "cluster":
            sys_design = cluster_level_design(self.design)
            clusters = sys_design._assignment_groups
        else:
            sys_design, clusters = self.design, None
        kept = getattr(self, "bound_matrix_", None)
        dmat = design_matrix(sys_design)
        if kept is None or kept.method != method or kept.design_matrix is not dmat:
            kept = _bounds.build_bound(method, sys_design, cluster_ids=clusters)
        self.bound_matrix_ = kept
        return kept

    def _bound_estimate(self, spec, observed, coefficient):
        if self.bound == "none":
            self.bound_matrix_ = None
            return None
        if self.bound.startswith("borrowed-"):
            matrix = self._bound_matrix(self.bound.split("-", 1)[1])
            return _bounds.bound_estimate_2r_borrowed(matrix, self.design, observed, spec)
        matrix = self._bound_matrix(self.bound)
        if coefficient is None:
            return _bounds.bound_estimate_ht(matrix, self.design, observed)
        return _bounds.bound_estimate_greg(matrix, self.design, observed, spec, coefficient)
