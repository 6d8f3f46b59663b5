"""Stratified resampling for particle filters.

Exact conditional-variance identities of the stratified selection step, the
limit variance of the resampled population (in one step and recursively
across selection/mutation rounds), resampling baselines, estimators with
confidence intervals, and a reproducible config-driven experiment harness.
"""

from .errors import InvalidArgument, InvalidConfig, InvalidModel, SmclabError
from .estimators import EstimateWithCI, mean_estimate, normality_check, variance_estimate
from .filtering import (
    FilterTrajectory,
    StepRecord,
    conjecture2_lhs,
    conjecture2_rhs,
    k_tuple_mean,
    run_filter,
    trajectory_to_csv,
)
from .model import (
    KernelSpec,
    ModelConfig,
    ParticleSystem,
    PotentialSpec,
    build_custom_model,
    build_model,
    mutate,
    sample_initial,
    section7_constants,
    section7_model,
    section7_pf1,
    section7_pf1_sq,
    uniform_shift_kernel,
    weighted_reference_mean,
)
from .resampling import (
    ResampleOutcome,
    SelectionCoefficients,
    WeightProfile,
    baseline_resample,
    conditional_mean,
    conditional_variance_exact,
    conditional_variance_oracle,
    multinomial_conditional_variance,
    residual_conditional_variance,
    selection_coefficients,
    stratified_resample,
    systematic_conditional_variance,
    weight_profile,
)
from .variance import (
    VarianceReport,
    beta0,
    beta0_u_integral,
    beta1,
    beta_pair_u_integral,
    beta_window,
    beta_window_u_integral,
    beta_window_u_integral_numeric,
    correlation_window,
    phi_k_closed,
    recursive_variance_step,
    sigma1_sq,
    sigma2_sq,
    strata_overlap,
)

__version__ = "0.1.0"
