"""Variable selection for sparse linear regression with an
exponential-weights posterior over supports.

The package provides the support posterior and its exact enumeration, a
Metropolis-Hastings sampler with MAP / posterior-mean / thresholded
estimators, subset-penalized and lasso baselines, design diagnostics, and
a reproducible simulation harness.
"""

from .baselines import (L0Config, LassoConfig, default_lasso_penalty,
                        estimate_noise_variance, inverse_gram_sign_norm,
                        irrepresentable_check, l0_select,
                        lasso_coordinate_descent, lasso_duality_gap,
                        lasso_kkt_violation)
from .data import Dataset, rescale_columns
from .diagnostics import (DesignReport, design_report, is_identifiable,
                          max_restricted_singular, min_restricted_singular,
                          signal_strength_threshold, subset_min_singular)
from .errors import (DomainError, EwselectError, NonFiniteError,
                     NotConvergedError, SingularError, TooLargeError)
from .experiments import (ExperimentSpec, ExperimentSummary, MetricRecord,
                          compute_metrics, emit, generate_instance,
                          parse_spec_file, run_experiment)
from .mcmc import (ChainAccumulators, ChainConfig, default_threshold,
                   map_refit, posterior_mean, run_chain,
                   threshold_coefficients)
from .posterior import (ExactEstimators, PosteriorTable, enumerate_posterior,
                        exact_estimators, log_posterior_unnorm)
from .priors import (PosteriorConfig, log_prior, practical_lambda,
                     prediction_lambda, support_lambda)
from .subsets import (SubsetState, empty_state, least_squares_min_norm,
                      make_state, residual_ss, update_add, update_remove)

__version__ = "0.1.0"

__all__ = [
    "ChainAccumulators", "ChainConfig", "Dataset", "DesignReport",
    "DomainError", "EwselectError", "ExactEstimators", "ExperimentSpec",
    "ExperimentSummary", "L0Config", "LassoConfig", "MetricRecord",
    "NonFiniteError", "NotConvergedError", "PosteriorConfig",
    "PosteriorTable", "SingularError", "SubsetState", "TooLargeError",
    "compute_metrics", "default_lasso_penalty", "default_threshold",
    "design_report", "emit", "empty_state", "enumerate_posterior",
    "estimate_noise_variance", "exact_estimators", "generate_instance",
    "inverse_gram_sign_norm", "irrepresentable_check", "is_identifiable",
    "l0_select", "lasso_coordinate_descent", "lasso_duality_gap",
    "lasso_kkt_violation", "least_squares_min_norm",
    "log_posterior_unnorm", "log_prior", "make_state", "map_refit",
    "max_restricted_singular", "min_restricted_singular",
    "parse_spec_file", "posterior_mean", "practical_lambda",
    "prediction_lambda", "rescale_columns", "residual_ss", "run_chain",
    "run_experiment", "signal_strength_threshold", "subset_min_singular",
    "support_lambda", "threshold_coefficients", "update_add",
    "update_remove",
]
