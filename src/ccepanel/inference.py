"""HAC variance estimation and confidence intervals.

The coefficient covariance is the sandwich of the inverted curvature
matrix around a Bartlett-weighted long-run variance of the influence
scores; the APE variance applies the same kernel sum to the scalar APE
influence values.  The same bandwidth drives every kernel sum in the
package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .bias import ApeBiasComponents, BetaBiasComponents, lag_cross_sum
from .estimation import CceFit
from .exceptions import InvalidInputError, NumericalError
from .factors import FactorEstimate
from .likelihood import Family
from .panel import Panel


@dataclass
class InferenceResult:
    """Sandwich covariance, standard errors and normal-quantile intervals."""

    covariance: np.ndarray
    std_errors: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    bandwidth: int
    level: float


def influence_scores(bias: BetaBiasComponents) -> np.ndarray:
    """Cellwise influence scores of the coefficient estimator, (N,T,k).

    Sum of the score in the projected-out regressor directions and the
    factor-estimation-error channel through the covariate idiosyncrasies.
    """
    correction = np.einsum("tkr,ntr->ntk", bias.C_t, bias.e_rot)
    return bias.l1[:, :, None] * bias.xdot + correction


def beta_covariance(
    panel: Panel,
    fit: CceFit,
    factors: FactorEstimate,
    family: Family,
    bias: BetaBiasComponents,
    bandwidth: int,
    level: float = 0.95,
    point: np.ndarray | None = None,
) -> InferenceResult:
    """Sandwich covariance of the coefficients and level-alpha intervals.

    Intervals are centered on ``point`` (the bias-corrected estimate when
    one is supplied; the raw estimate otherwise).
    """
    n, t = panel.outcomes.shape
    w = influence_scores(bias)
    omega = lag_cross_sum(w, w, bandwidth).sum(axis=0) / (n * t)
    omega = 0.5 * (omega + omega.T)  # purge rounding asymmetry
    try:
        half = np.linalg.solve(bias.Delta, omega)
        cov = np.linalg.solve(bias.Delta, half.T).T / (n * t)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"curvature matrix is singular: {exc}") from exc
    cov = 0.5 * (cov + cov.T)
    se = np.sqrt(np.maximum(np.diagonal(cov), 0.0))
    center = fit.beta if point is None else np.asarray(point, dtype=float)
    lo, hi = confidence_interval(center, se, level)
    return InferenceResult(
        covariance=cov,
        std_errors=se,
        ci_lower=lo,
        ci_upper=hi,
        bandwidth=bandwidth,
        level=level,
    )


def ape_variance(
    panel: Panel,
    fit: CceFit,
    factors: FactorEstimate,
    family: Family,
    bias: BetaBiasComponents,
    ape_bias: ApeBiasComponents,
    bandwidth: int,
) -> float:
    """Long-run variance of the APE influence values (the APE standard
    error is sqrt of this divided by N*T)."""
    n, t = panel.outcomes.shape
    w = influence_scores(bias)
    try:
        gd = np.linalg.solve(bias.Delta, ape_bias.gamma)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"curvature matrix is singular: {exc}") from exc
    rf_minus_gt = np.einsum("trq,tq->tr", ape_bias.R_t, factors.factors) - ape_bias.gamma_t
    v = (
        np.einsum("k,ntk->nt", gd, w)
        + np.einsum("tr,ntr->nt", rf_minus_gt, bias.e_rot)
        + bias.l1 * ape_bias.proj_if
    )
    total = float(lag_cross_sum(v[..., None], v[..., None], bandwidth).sum())
    return max(total / (n * t), 0.0)


def confidence_interval(point, std_error, level: float):
    """Two-sided normal interval(s): point +/- z_(1+level)/2 * std_error."""
    if not 0.0 < level < 1.0:
        raise InvalidInputError(f"confidence level must be in (0, 1), got {level}")
    z = float(special.ndtri(0.5 * (1.0 + level)))
    point = np.asarray(point, dtype=float)
    std_error = np.asarray(std_error, dtype=float)
    lo = point - z * std_error
    hi = point + z * std_error
    if lo.ndim == 0:
        return float(lo), float(hi)
    return lo, hi
