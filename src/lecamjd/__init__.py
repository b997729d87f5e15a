"""Numerical toolkit for comparing discretely observed jump experiments
with their Gaussian accompaniments: simulation, jump filtering, and
closed-form distance bounds with quadrature oracles."""

from .distances import (BoundReport, bernoulli_aggregate_bound,
                        continuous_kernel_aggregate_bound,
                        discrete_kernel_aggregate_bound,
                        drift_discretization_error,
                        hellinger_product_tv_bound, kl_gaussians,
                        l1_gaussian_processes, l1_gaussians_same_var,
                        theorem_rate, tv_gaussians_bound)
from .experiments import (ConvergenceRow, RiskRow, default_drift_estimator,
                          fit_rate_slope, run_convergence, run_risk_transfer)
from .kernels import (TruncateResampleParams, continuous_part,
                      fold_density_to_lattice_cell, jump_case_of,
                      round_to_lattice, transfer_estimator,
                      truncate_resample, truncate_resample_pushforward,
                      weighted_integral_statistic)
from .laws import (Density, bernoulli_density, gaussian_density,
                   increment_cf, increment_density_exact, mixture_density)
from .model import (ContinuousJumps, DiracJump, Grid, HolderClassParams,
                    IncrementSummaries, JumpLaw, LatticeJumps, ModelSpec,
                    QuadratureError, TimeFunction,
                    build_increment_summaries, check_sigma_log_derivative,
                    constant, gaussian_jumps, linear, piecewise_drift, sine,
                    uniform_jumps)
from .oracle import (hellinger_quadrature, l1_quadrature, total_mass,
                     tv_quadrature, tv_quadrature_many)
from .simulate import (PathSample, RngStream, bin_jump_sums,
                       sample_bernoulli_approx, sample_increment_batch,
                       sample_inhomogeneous_poisson, sample_path,
                       sample_white_noise_increments)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "ContinuousJumps", "ConvergenceRow", "Density",
    "DiracJump", "Grid", "HolderClassParams", "IncrementSummaries",
    "JumpLaw", "LatticeJumps", "ModelSpec", "PathSample", "QuadratureError",
    "RiskRow", "RngStream", "TimeFunction", "TruncateResampleParams",
    "bernoulli_aggregate_bound", "bernoulli_density", "bin_jump_sums",
    "build_increment_summaries", "check_sigma_log_derivative", "constant",
    "continuous_kernel_aggregate_bound", "continuous_part",
    "default_drift_estimator", "discrete_kernel_aggregate_bound",
    "drift_discretization_error", "fit_rate_slope",
    "fold_density_to_lattice_cell", "gaussian_density", "gaussian_jumps",
    "hellinger_product_tv_bound", "hellinger_quadrature", "increment_cf",
    "increment_density_exact", "jump_case_of", "kl_gaussians",
    "l1_gaussian_processes", "l1_gaussians_same_var", "l1_quadrature",
    "linear", "mixture_density", "piecewise_drift", "round_to_lattice",
    "run_convergence", "run_risk_transfer", "sample_bernoulli_approx",
    "sample_increment_batch", "sample_inhomogeneous_poisson", "sample_path",
    "sample_white_noise_increments", "sine", "theorem_rate", "total_mass",
    "transfer_estimator", "truncate_resample",
    "truncate_resample_pushforward", "tv_gaussians_bound", "tv_quadrature",
    "tv_quadrature_many", "uniform_jumps", "weighted_integral_statistic",
]
