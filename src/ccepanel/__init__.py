"""Two-step CCE estimation of nonlinear panel models with interactive
fixed effects: factor extraction from cross-sectional covariate averages,
joint MLE of coefficients and loadings, analytical and split-panel
jackknife bias corrections, HAC inference, and a Monte Carlo harness.
"""

from .ape import ApeEstimate, PolicyPair, ape_estimate, partial_effect
from .bias import (
    ApeBiasComponents,
    BetaBiasComponents,
    InferenceResult,
    ape_variance,
    bartlett_weight,
    beta_covariance,
    compute_ape_bias,
    compute_beta_bias,
    confidence_interval,
    correct_ape,
    correct_beta,
)
from .estimation import CceFit, FitOptions, fit_cce, objective
from .exceptions import (
    CcePanelError,
    InitializationError,
    InvalidInputError,
    NumericalError,
    PanelFormatError,
)
from .factors import (
    FactorEstimate,
    default_threshold,
    estimate_factors,
    estimate_rank_ratio,
    estimate_rank_threshold,
)
from .jackknife import SpjResult, spj, spj_combine
from .likelihood import Family, index_derivative, log_density
from .panel import Panel, read_panel_csv, write_panel_csv
from .simulate import DgpConfig, DgpDraw, McTable, generate, run_grid

__version__ = "0.1.0"

__all__ = [
    "ApeBiasComponents",
    "ApeEstimate",
    "BetaBiasComponents",
    "CceFit",
    "CcePanelError",
    "DgpConfig",
    "DgpDraw",
    "FactorEstimate",
    "Family",
    "FitOptions",
    "InferenceResult",
    "InitializationError",
    "InvalidInputError",
    "McTable",
    "NumericalError",
    "Panel",
    "PanelFormatError",
    "PolicyPair",
    "SpjResult",
    "ape_estimate",
    "ape_variance",
    "bartlett_weight",
    "beta_covariance",
    "compute_ape_bias",
    "compute_beta_bias",
    "confidence_interval",
    "correct_ape",
    "correct_beta",
    "default_threshold",
    "estimate_factors",
    "estimate_rank_ratio",
    "estimate_rank_threshold",
    "fit_cce",
    "generate",
    "index_derivative",
    "log_density",
    "objective",
    "partial_effect",
    "read_panel_csv",
    "run_grid",
    "spj",
    "spj_combine",
    "write_panel_csv",
]
