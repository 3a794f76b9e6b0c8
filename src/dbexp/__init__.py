"""Design-based estimation, regression adjustment, and variance bounds
for randomized experiments with arbitrary (identified) assignment designs."""

__version__ = "0.1.0"

from .api import AteEstimator
from .bounds import (
    BoundCache,
    BoundComparison,
    BoundConvergenceError,
    BoundMatrix,
    PrecisionTestResult,
    as_bound,
    bound_estimate_2r_borrowed,
    bound_estimate_greg,
    bound_estimate_ht,
    build_bound,
    cluster_bound,
    compare_bounds,
    interval_from_bound,
    iterative_bound,
    precision_test,
)
from .covariates import (
    CovariateSpec,
    add_invprop_column,
    cluster_totals,
    spec_cluster,
    spec_common_slopes,
    spec_I,
    spec_II,
    spec_separate_slopes,
    zero_center,
)
from .design import (
    AssignmentRealization,
    Design,
    DesignError,
    DesignMatrix,
    StackedOutcomes,
    SupportTooLargeError,
    UnidentifiedDesignError,
    design_from_dict,
    design_from_json,
    design_matrix,
    design_to_dict,
    draw,
    enumerate_assignments,
    make_bernoulli,
    make_cluster,
    make_complete,
    make_from_sampler,
)
from .estimators import (
    AdjustmentCache,
    AteEstimate,
    BatchPoints,
    CoefficientEstimate,
    ObservedOutcomes,
    batch_points,
    coef_2r,
    coef_by_name,
    coef_3ht,
    coef_fixed,
    coef_ols,
    coef_ols_cluster_totals,
    coef_tyranny,
    coef_wls_pi,
    fixed_coef_variance,
    greg,
    greg_forms,
    ht_ate,
    ht_cov_means,
    intercept_contrast,
    stack_clusters,
)
from .optimal import OptimalCoefficient, b_opt, b_opt_family, b_population, b_sep, b_tilde_opt
from .simulation import (
    Population,
    SimConfig,
    SimResult,
    build_population,
    calibration_r2,
    covariate_set,
    emit_report,
    run_simulation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
