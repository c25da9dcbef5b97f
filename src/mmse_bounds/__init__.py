"""Bounds on weighted MMSE sums over KL-divergence balls of priors.

Given J additive-Gaussian-noise channels Y_j = X + N_j with weights
lambda_j and a Gaussian reference prior N(mu_0, Sigma_0), this package
computes tight upper and lower bounds on sum_j lambda_j mmse_j(P_X) over
all priors P_X within KL divergence epsilon of the reference, along with
per-channel local bounds, LMMSE and Bayesian Cramer-Rao baselines,
analytic prior families, and a Monte Carlo verification oracle.
"""

from .baselines import cramer_rao_lower, lmmse_upper
from .exceptions import (
    BracketFailure,
    ConfigError,
    DegenerateWeights,
    DimensionMismatch,
    FisherUndefined,
    NegativeRadius,
    NoConvergence,
    NoiseLost,
    NonPositiveWeight,
    NonSymmetric,
    NotPositiveDefinite,
    ProblemValidationError,
    SingularReference,
    SingularSum,
)
from .gaussian import (
    Gaussian,
    MmseSummary,
    kl_same_mean_gaussians,
    linear_estimator_mse,
    mmse_matrix,
    mmse_trace,
    weight_matrix,
    weighted_mmse_sum,
)
from .mc import McEstimate, mc_kl, mc_weighted_sum
from .priors import (
    GeneralizedGaussian,
    PriorSpec,
    UniformBall,
    gaussian_log_density,
    gen_gauss_covariance,
    gen_gauss_epsilon,
    gen_gauss_fisher,
    log_density,
    prior_moments,
    uniform_ball_epsilon,
    uniform_ball_moments,
)
from .problem import (
    ChannelEnsemble,
    DivergenceBall,
    GaussianReference,
    Problem,
    load_config,
    problem_from_config,
    save_config,
    validate_problem,
)
from .solver import (
    BoundResult,
    local_bound,
    local_bounds_weighted,
    opt_covariance_residual,
    solve_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "BracketFailure",
    "ChannelEnsemble",
    "ConfigError",
    "DegenerateWeights",
    "DimensionMismatch",
    "DivergenceBall",
    "FisherUndefined",
    "Gaussian",
    "GaussianReference",
    "GeneralizedGaussian",
    "McEstimate",
    "MmseSummary",
    "NegativeRadius",
    "NoConvergence",
    "NoiseLost",
    "NonPositiveWeight",
    "NonSymmetric",
    "NotPositiveDefinite",
    "PriorSpec",
    "Problem",
    "ProblemValidationError",
    "SingularReference",
    "SingularSum",
    "UniformBall",
    "cramer_rao_lower",
    "gaussian_log_density",
    "gen_gauss_covariance",
    "gen_gauss_epsilon",
    "gen_gauss_fisher",
    "kl_same_mean_gaussians",
    "linear_estimator_mse",
    "lmmse_upper",
    "load_config",
    "local_bound",
    "local_bounds_weighted",
    "log_density",
    "mc_kl",
    "mc_weighted_sum",
    "mmse_matrix",
    "mmse_trace",
    "opt_covariance_residual",
    "prior_moments",
    "problem_from_config",
    "save_config",
    "solve_bound",
    "uniform_ball_epsilon",
    "uniform_ball_moments",
    "validate_problem",
    "weight_matrix",
    "weighted_mmse_sum",
]
