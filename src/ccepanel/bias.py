"""Analytical bias correction and HAC inference for the coefficient and
APE estimators.

Everything here is a plug-in sample counterpart evaluated at the
uncorrected fit: per-unit information blocks in the factor directions,
the projected-out regressors, the influence scores of the coefficient
estimator, and the four bias pieces for each of the two estimators (two
of order 1/T from the loading estimation error, two of order 1/N from
the factor estimation error).  Each plug-in is evaluated once, in
``compute_beta_bias`` or ``compute_ape_bias``, and the records carry
exactly what the corrections and the variance estimators read.  Every
kernel-weighted double time sum goes through ``lag_cross_sum``, which
reorganizes it by lag so the cost is linear in the bandwidth instead of
quadratic in T; the equivalence with the naive double sums is
oracle-tested.

The coefficient covariance is the sandwich of the inverted curvature
matrix around a Bartlett-weighted long-run variance of the influence
scores; the APE variance applies the same kernel sum to the scalar APE
influence values.  The same bandwidth drives every kernel sum in the
package.

Per-unit information matrices and the curvature matrix must be well
conditioned: a pseudo-inverse fallback would silently distort the
corrections, so conditioning failures raise ``NumericalError`` (naming the
offending unit for a per-unit block).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .ape import ApeEstimate, PolicyPair, policy_grid
from .estimation import CceFit, _loading_hessian, _row_outer, _sum_outer, _sum_weighted
from .exceptions import InvalidInputError, NumericalError
from .factors import FactorEstimate
from .likelihood import Family, _index_derivatives, validate_outcomes
from .panel import Panel

_COND_LIMIT = 1e10


@dataclass
class BetaBiasComponents:
    """Sample counterparts used by the coefficient bias correction.

    ``xdot`` (N,T,k) is the projected-out regressor, ``Delta`` (k,k) the
    curvature of the concentrated objective, ``b1``, ``b2``, ``d1``,
    ``d2`` (k,) the bias pieces and ``influence`` (N,T,k) the cellwise
    influence scores of the coefficient estimator.

    ``compute_beta_bias`` returns a record only after ``_condition_check``
    has accepted the per-unit blocks A_i and ``Delta`` (finite, with cond at
    most ``_COND_LIMIT``).  That check is the one gate: the corrections and
    the variances solve against these matrices without a guard of their own.
    """

    xdot: np.ndarray
    Delta: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    influence: np.ndarray
    # working arrays reused by the APE bias and the variance estimators
    l1: np.ndarray = field(repr=False)
    l2: np.ndarray = field(repr=False)
    l3: np.ndarray = field(repr=False)
    A_inv: np.ndarray = field(repr=False)
    BA_inv: np.ndarray = field(repr=False)
    e_rot: np.ndarray = field(repr=False)  # Upsilon @ e_hat, (N,T,r)
    e_load: np.ndarray = field(repr=False)  # e_hat' Upsilon' lambda, (N,T)
    quad_AQA: np.ndarray = field(repr=False)  # f' A^-1 (-A) A^-1 f = -f' A^-1 f, (N,T)
    P_t: np.ndarray = field(repr=False)  # sum_i e_rot e_rot', (T,r,r)

    @property
    def b(self) -> np.ndarray:
        return self.b1 + self.b2

    @property
    def d(self) -> np.ndarray:
        return self.d1 + self.d2


@dataclass
class ApeBiasComponents:
    """Sample counterparts for the APE bias correction.

    ``gamma`` (k,), ``gamma_t`` (T,r), ``R_t`` (T,r,r) and ``proj_if``
    (N,T) also enter the APE variance; scalar pieces ``b3``, ``b4``,
    ``d3``, ``d4``.
    """

    gamma: np.ndarray
    gamma_t: np.ndarray
    R_t: np.ndarray
    b3: float
    b4: float
    d3: float
    d4: float
    proj_if: np.ndarray = field(repr=False)  # gamma_i' A^-1 f_t, (N,T)


def bartlett_weight(lag: int, bandwidth: int) -> float:
    """Triangular kernel weight at the given lag; bandwidth 0 keeps lag 0 only."""
    if bandwidth < 0:
        raise InvalidInputError(f"bandwidth must be non-negative, got {bandwidth}")
    lag = abs(int(lag))
    if bandwidth == 0:
        return 1.0 if lag == 0 else 0.0
    return max(0.0, 1.0 - lag / bandwidth)


def lag_cross_sum(a: np.ndarray, b: np.ndarray, bandwidth: int) -> np.ndarray:
    """Bartlett-weighted double time sum per unit (Newey-West 1987).

    ``a`` is (N,T,p) and ``b`` (N,T,q); the result is the (N,p,q) array of
    sum over t, s of k((t-s)/bandwidth) a_it b_is'.  The weight at lag
    equal to the bandwidth is exactly zero and lags at or beyond T pair no
    periods, so only lags below min(bandwidth, T) are visited.
    """
    if bandwidth < 0:
        raise InvalidInputError(f"bandwidth must be non-negative, got {bandwidth}")
    t = a.shape[1]
    at = a.transpose(0, 2, 1)
    total = at @ b
    for lag in range(1, min(bandwidth, t)):
        # s = t + lag, then s = t - lag
        cross = at[:, :, : t - lag] @ b[:, lag:] + at[:, :, lag:] @ b[:, : t - lag]
        total += bartlett_weight(lag, bandwidth) * cross
    return total


def _condition_check(mats: np.ndarray, label: str):
    if mats.ndim == 2:
        cond = np.linalg.cond(mats)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise NumericalError(f"{label} is near-singular (cond={cond:.3g})")
        return
    # batched per-unit blocks share one scale (same factors, same
    # likelihood), so measure each unit's smallest singular value against
    # the largest across the panel; a plain per-unit condition number would
    # miss a uniformly tiny block (e.g. a saturated 1x1 information).
    sv = np.linalg.svd(mats, compute_uv=False)
    scale = sv.max()
    cond = scale / np.maximum(sv.min(axis=-1), np.finfo(float).tiny)
    bad = ~np.isfinite(cond) | (cond > _COND_LIMIT)
    if bad.any():
        unit = int(np.argmax(cond))
        raise NumericalError(f"{label} is near-singular for unit {unit} (cond={cond[unit]:.3g})")


def compute_beta_bias(
    panel: Panel,
    fit: CceFit,
    factors: FactorEstimate,
    family: Family,
    bandwidth: int = 1,
) -> BetaBiasComponents:
    """Evaluate every sample quantity entering the coefficient bias.

    ``bandwidth`` is the HAC truncation parameter shared by all kernel
    sums; 0 keeps only contemporaneous products.

    The quadratic forms of the first bias piece take the per-unit score
    outer product in its information form, the negative curvature block
    -A_i.  For likelihood families the kernel-weighted sample outer
    product estimates the same matrix, but at fitted parameters it is
    deflated by the per-unit first-order conditions, so the curvature form
    is the steadier plug-in.
    """
    if bandwidth < 0:
        raise InvalidInputError(f"bandwidth must be non-negative, got {bandwidth}")
    x = panel.covariates
    y = panel.outcomes
    z = fit.index
    # the derivative kernel trusts its inputs (binary ones fold y into the
    # sign of the index), so check them here as fit_cce does
    validate_outcomes(family, y)
    if z.shape != y.shape:
        raise InvalidInputError(
            f"fit index has shape {z.shape} but the panel outcomes {y.shape}"
        )
    f = factors.factors
    lam = fit.loadings
    n, t, k = x.shape
    r = f.shape[1]

    l1, l2, l3 = _index_derivatives(family, y, z, 3)

    a_i = _loading_hessian(l2, f) / t
    _condition_check(a_i, "per-unit information block in the factor directions")
    a_inv = np.linalg.inv(a_i)
    ba_inv = (x * l2[..., None]).transpose(0, 2, 1) @ f / t @ a_inv  # B_i A_i^-1
    xdot = x - f @ ba_inv.transpose(0, 2, 1)

    delta = _sum_outer(xdot * l2[..., None], xdot) / (n * t)
    _condition_check(delta, "curvature matrix of the concentrated objective")

    # per-unit least squares of the covariates on the factors
    gi_t = np.linalg.solve(f.T @ f, np.einsum("tr,ntk->nrk", f, x))  # (N,r,k)
    e_hat = x - np.einsum("nkr,tr->ntk", gi_t.transpose(0, 2, 1), f)

    # the (N, T, k) products are not kept: they would raise the peak memory below
    c_t = _sum_outer((xdot * l2[..., None]).reshape(n, t * k), lam).reshape(t, k, r) / n
    lam_ba = (ba_inv[:, :, None, :] * lam[:, None, :, None]).reshape(n, k * r * r)
    d_tj = _sum_outer(l2, lam_ba).reshape(t, k, r, r) / n
    g_tj = _sum_outer((xdot * l3[..., None]).reshape(n, t * k), _row_outer(lam, lam))
    g_tj = g_tj.reshape(t, k, r, r) / n

    quad = -(a_inv.reshape(n, r * r) @ _row_outer(f, f).T)
    b1 = -0.5 * _sum_weighted(l3 * quad, xdot) / (n * t)

    # sum over t, s of k((t-s)/L) l2_it l1_is xdot_it f_t' A_i^{-1} f_s
    l2xf = (l2[..., None, None] * xdot[..., None] * f[:, None, :]).reshape(n, t, k * r)
    cross = lag_cross_sum(l2xf, l1[..., None] * f, bandwidth).reshape(n, k, r, r)
    b2 = np.einsum("nkrs,nrs->k", cross, a_inv) / (n * t)

    upsilon = factors.eigenvectors.T  # (r,k)
    e_load = np.einsum("ntk,nk->nt", e_hat, lam @ upsilon)
    d1 = -_sum_weighted(l2 * e_load, xdot) / (n * t)

    e_rot = np.einsum("rk,ntk->ntr", upsilon, e_hat)
    p_t = e_rot.transpose(1, 2, 0) @ e_rot.transpose(1, 0, 2)
    d2 = _sum_weighted(p_t, (d_tj - 0.5 * g_tj).transpose(0, 2, 3, 1)) / (n * t)

    # score in the projected-out regressor directions plus the
    # factor-estimation-error channel through the covariate idiosyncrasies
    influence = l1[:, :, None] * xdot + np.einsum("tkr,ntr->ntk", c_t, e_rot)

    return BetaBiasComponents(
        xdot=xdot, Delta=delta, b1=b1, b2=b2, d1=d1, d2=d2, influence=influence,
        l1=l1, l2=l2, l3=l3, A_inv=a_inv, BA_inv=ba_inv, e_rot=e_rot, e_load=e_load,
        quad_AQA=quad, P_t=p_t,
    )


def correct_beta(fit: CceFit, bias: BetaBiasComponents, n_units: int, n_periods: int) -> np.ndarray:
    """Bias-corrected coefficients: subtract the plug-in 1/T and 1/N terms."""
    adjustment = bias.b / n_periods + bias.d / n_units
    return fit.beta - np.linalg.solve(bias.Delta, adjustment)


def compute_ape_bias(
    panel: Panel,
    fit: CceFit,
    factors: FactorEstimate,
    family: Family,
    policy: PolicyPair,
    beta_bias: BetaBiasComponents,
    bandwidth: int = 1,
) -> ApeBiasComponents:
    """Sample quantities for the APE bias correction (reuses the beta pieces)."""
    f = factors.factors
    lam = fit.loadings
    n, t = panel.outcomes.shape
    r = f.shape[1]
    c_grid = lam @ f.T
    d_c, d_cc, d_beta = policy_grid(family, fit.beta, c_grid, policy)

    gamma_i = np.einsum("nt,tr->nr", d_c, f) / t
    gamma_t = np.einsum("nt,nr->tr", d_c, lam) / n
    gamma = d_beta.mean(axis=(0, 1)) - (beta_bias.BA_inv @ gamma_i[..., None]).mean(0)[:, 0]

    u = np.einsum("nrs,ns->nr", beta_bias.A_inv, gamma_i)  # A_i^{-1} gamma_i
    proj_if = np.einsum("nr,tr->nt", u, f)

    l1, l2, l3 = beta_bias.l1, beta_bias.l2, beta_bias.l3
    r_t = _sum_outer(l2, _row_outer(lam, u)).reshape(t, r, r) / n
    # Both pieces of the curvature bracket are second-order Taylor terms and
    # carry 1/2: the direct curvature of the partial effect in the
    # interactive effect, and the loading-bias response through the third
    # derivative.  (Checked against the measured bias of the APE on
    # simulated panels with known factors; without the 1/2 on the first
    # term the correction overshoots by the full curvature piece.)
    curv = 0.5 * d_cc - 0.5 * l3 * proj_if
    w_t = _sum_outer(curv, _row_outer(lam, lam)).reshape(t, r, r) / n

    b3 = float(np.sum(curv * beta_bias.quad_AQA)) / (n * t)

    cross = lag_cross_sum((l2 * proj_if)[..., None] * f, l1[..., None] * f, bandwidth)
    b4 = float(np.einsum("nrs,nrs->", cross, beta_bias.A_inv)) / (n * t)

    d3 = -float(np.sum(proj_if * l2 * beta_bias.e_load)) / (n * t)

    d4 = float(np.einsum("trq,trq->", w_t - r_t, beta_bias.P_t)) / (n * t)

    return ApeBiasComponents(
        gamma=gamma, gamma_t=gamma_t, R_t=r_t, b3=b3, b4=b4, d3=d3, d4=d4, proj_if=proj_if
    )


def correct_ape(
    ape: ApeEstimate,
    beta_bias: BetaBiasComponents,
    ape_bias: ApeBiasComponents,
    n_units: int,
    n_periods: int,
) -> float:
    """Bias-corrected APE scalar."""
    delta_inv_b = np.linalg.solve(beta_bias.Delta, beta_bias.b)
    delta_inv_d = np.linalg.solve(beta_bias.Delta, beta_bias.d)
    g = ape_bias.gamma
    t_term = (g @ delta_inv_b + ape_bias.b3 + ape_bias.b4) / n_periods
    n_term = (g @ delta_inv_d + ape_bias.d3 + ape_bias.d4) / n_units
    return float(ape.value - t_term - n_term)


@dataclass
class InferenceResult:
    """Sandwich covariance, standard errors and normal-quantile intervals."""

    covariance: np.ndarray
    std_errors: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray


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
    w = bias.influence
    omega = lag_cross_sum(w, w, bandwidth).sum(axis=0) / (n * t)
    omega = 0.5 * (omega + omega.T)  # purge rounding asymmetry
    half = np.linalg.solve(bias.Delta, omega)
    cov = np.linalg.solve(bias.Delta, half.T).T / (n * t)
    cov = 0.5 * (cov + cov.T)
    se = np.sqrt(np.maximum(np.diagonal(cov), 0.0))
    center = fit.beta if point is None else np.asarray(point, dtype=float)
    lo, hi = confidence_interval(center, se, level)
    return InferenceResult(covariance=cov, std_errors=se, ci_lower=lo, ci_upper=hi)


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
    gd = np.linalg.solve(bias.Delta, ape_bias.gamma)
    rf_minus_gt = np.einsum("trq,tq->tr", ape_bias.R_t, factors.factors) - ape_bias.gamma_t
    v = (
        np.einsum("k,ntk->nt", gd, bias.influence)
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
