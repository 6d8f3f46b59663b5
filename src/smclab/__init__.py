"""Stratified resampling for particle filters.

Exact conditional-variance identities of the stratified selection step, the
limit variance of the resampled population (in one step and recursively
across selection/mutation rounds), resampling baselines, estimators with
confidence intervals, and a reproducible config-driven experiment harness.
"""

from .errors import InvalidArgument, InvalidConfig, InvalidModel, SmclabError
from .estimators import EstimateWithCI, mean_estimate, normality_check, variance_estimate
from .experiments import VarianceReport, recursive_variance_step, sigma2_sq
from .filtering import FilterTrajectory, StepRecord, run_filter
from .model import (
    KernelSpec,
    ModelConfig,
    PotentialSpec,
    build_model,
    section7_constants,
    section7_pf1,
    uniform_shift_kernel,
    weighted_reference_mean,
)
from .resampling import (
    SelectionCoefficients,
    WeightProfile,
    conditional_variance_exact,
    conditional_variance_oracle,
    multinomial_conditional_variance,
    residual_conditional_variance,
    resample,
    selection_coefficients,
    systematic_conditional_variance,
    weight_profile,
)
from .variance import (
    beta0,
    beta0_u_integral,
    beta1,
    beta_pair_u_integral,
    correlation_window,
    sigma1_sq,
)

__version__ = "0.1.0"
