"""Analytical bias correction for the coefficient and APE estimators.

Everything here is a plug-in sample counterpart evaluated at the
uncorrected fit: per-unit information blocks in the factor directions,
the projected-out regressors, HAC-weighted score outer products, and the
four bias pieces for each of the two estimators (two of order 1/T from
the loading estimation error, two of order 1/N from the factor estimation
error).  Every kernel-weighted double time sum goes through
``lag_cross_sum``, which reorganizes it by lag so the cost is linear in
the bandwidth instead of quadratic in T; the equivalence with the naive
double sums is oracle-tested.

Per-unit information matrices must be well conditioned: a pseudo-inverse
fallback would silently distort the corrections, so conditioning failures
raise ``NumericalError`` naming the offending unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ape import ApeEstimate, PolicyPair, policy_grid
from .estimation import CceFit
from .exceptions import InvalidInputError, NumericalError
from .factors import FactorEstimate
from .likelihood import Family, _index_derivatives
from .panel import Panel

_COND_LIMIT = 1e10


@dataclass
class BetaBiasComponents:
    """Sample counterparts used by the coefficient bias correction.

    Shapes: ``A_i`` (N,r,r), ``B_i`` (N,k,r), ``xdot`` (N,T,k), ``Delta``
    (k,k), ``Q_i`` (N,r,r), ``Gamma_i`` (N,k,r), ``e_hat`` (N,T,k),
    ``Upsilon`` (r,k), ``C_t`` (T,k,r), ``D_tj`` (T,k,r,r), ``G_tj``
    (T,k,r,r), bias pieces ``b1``, ``b2``, ``d1``, ``d2`` all (k,).
    """

    A_i: np.ndarray
    B_i: np.ndarray
    xdot: np.ndarray
    Delta: np.ndarray
    Q_i: np.ndarray
    Gamma_i: np.ndarray
    e_hat: np.ndarray
    Upsilon: np.ndarray
    C_t: np.ndarray
    D_tj: np.ndarray
    G_tj: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    bandwidth: int
    # working arrays reused by the APE bias and the variance estimators
    l1: np.ndarray = field(repr=False, default=None)
    l2: np.ndarray = field(repr=False, default=None)
    l3: np.ndarray = field(repr=False, default=None)
    A_inv: np.ndarray = field(repr=False, default=None)
    BA_inv: np.ndarray = field(repr=False, default=None)
    e_rot: np.ndarray = field(repr=False, default=None)  # Upsilon @ e_hat, (N,T,r)
    e_load: np.ndarray = field(repr=False, default=None)  # e_hat' Upsilon' lambda, (N,T)
    quad_AQA: np.ndarray = field(repr=False, default=None)  # f' A^-1 Q A^-1 f, (N,T)

    @property
    def b(self) -> np.ndarray:
        return self.b1 + self.b2

    @property
    def d(self) -> np.ndarray:
        return self.d1 + self.d2


@dataclass
class ApeBiasComponents:
    """Sample counterparts for the APE bias correction.

    ``gamma`` (k,), ``gamma_i`` (N,r), ``gamma_t`` (T,r), ``R_t`` and
    ``W_t`` (T,r,r), scalar pieces ``b3``, ``b4``, ``d3``, ``d4``; the
    cellwise policy derivatives are kept for the variance estimator.
    """

    gamma: np.ndarray
    gamma_i: np.ndarray
    gamma_t: np.ndarray
    R_t: np.ndarray
    W_t: np.ndarray
    b3: float
    b4: float
    d3: float
    d4: float
    d_c: np.ndarray
    d_cc: np.ndarray
    d_beta: np.ndarray
    proj_if: np.ndarray = field(repr=False, default=None)  # gamma_i' A^-1 f_t, (N,T)


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
        raise NumericalError(
            f"{label} is near-singular for unit {unit} "
            f"(cond={cond[unit]:.3g}); cannot form bias corrections"
        )


def compute_beta_bias(
    panel: Panel,
    fit: CceFit,
    factors: FactorEstimate,
    family: Family,
    bandwidth: int = 1,
    score_outer_product: str = "information",
) -> BetaBiasComponents:
    """Evaluate every sample quantity entering the coefficient bias.

    ``bandwidth`` is the HAC truncation parameter shared by all kernel
    sums; 0 keeps only contemporaneous products.

    ``score_outer_product`` selects the per-unit score outer product used
    inside the quadratic forms of the first bias piece.  For likelihood
    families the information equality makes the kernel-weighted sample
    version and the negative curvature blocks asymptotically identical;
    at fitted parameters the sample version is deflated by the per-unit
    first-order conditions, so the curvature form ("information", the
    default) is steadier and is what the correction uses.  "hac" evaluates
    the kernel-weighted sample version instead.  The ``Q_i`` field always
    carries the kernel-weighted sample matrices.
    """
    if bandwidth < 0:
        raise InvalidInputError(f"bandwidth must be non-negative, got {bandwidth}")
    if score_outer_product not in ("information", "hac"):
        raise InvalidInputError(
            f"score_outer_product must be 'information' or 'hac', got {score_outer_product!r}"
        )
    x = panel.covariates
    y = panel.outcomes
    f = factors.factors
    lam = fit.loadings
    n, t, k = x.shape
    r = f.shape[1]
    z = fit.index

    l1, l2, l3 = _index_derivatives(family, y, z, 3)

    a_i = np.einsum("nt,tr,ts->nrs", l2, f, f, optimize=True) / t
    _condition_check(a_i, "per-unit information block in the factor directions")
    b_i = np.einsum("nt,ntk,tr->nkr", l2, x, f, optimize=True) / t
    a_inv = np.linalg.inv(a_i)
    ba_inv = np.einsum("nkr,nrs->nks", b_i, a_inv)
    xdot = x - np.einsum("nks,ts->ntk", ba_inv, f)

    delta = np.einsum("nt,ntk,ntl->kl", l2, xdot, xdot, optimize=True) / (n * t)
    _condition_check(delta, "curvature matrix of the concentrated objective")

    # per-unit least squares of the covariates on the factors
    ftf = f.T @ f
    try:
        gi_t = np.linalg.solve(ftf, np.einsum("tr,ntk->nrk", f, x))  # (N,r,k)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"factor gram matrix is singular: {exc}") from exc
    gamma_mat = gi_t.transpose(0, 2, 1)  # (N,k,r)
    e_hat = x - np.einsum("nkr,tr->ntk", gamma_mat, f)

    # HAC score outer product per unit in the factor directions
    l1f = l1[..., None] * f
    q_i = lag_cross_sum(l1f, l1f, bandwidth) / t

    c_t = np.einsum("nt,ntk,nr->tkr", l2, xdot, lam, optimize=True) / n
    d_tj = np.einsum("nt,nr,njq->tjrq", l2, lam, ba_inv, optimize=True) / n
    g_tj = np.einsum("nt,ntj,nr,nq->tjrq", l3, xdot, lam, lam, optimize=True) / n

    score_outer = q_i if score_outer_product == "hac" else -a_i
    m_i = np.einsum("nrs,nsu,nuq->nrq", a_inv, score_outer, a_inv, optimize=True)
    quad = np.einsum("tr,nrq,tq->nt", f, m_i, f, optimize=True)
    b1 = -0.5 * np.einsum("nt,ntk->k", l3 * quad, xdot) / (n * t)

    # sum over t, s of k((t-s)/L) l2_it l1_is xdot_it f_t' A_i^{-1} f_s
    l2xf = (l2[..., None, None] * xdot[..., None] * f[:, None, :]).reshape(n, t, k * r)
    cross = lag_cross_sum(l2xf, l1f, bandwidth).reshape(n, k, r, r)
    b2 = np.einsum("nkrs,nrs->k", cross, a_inv) / (n * t)

    upsilon = factors.eigenvectors.T  # (r,k)
    e_load = np.einsum("ntk,nk->nt", e_hat, lam @ upsilon)
    d1 = -np.einsum("nt,ntk->k", l2 * e_load, xdot) / (n * t)

    e_rot = np.einsum("rk,ntk->ntr", upsilon, e_hat)
    p_t = np.einsum("ntr,ntq->trq", e_rot, e_rot, optimize=True)
    d2 = np.einsum("trq,tjrq->j", p_t, d_tj - 0.5 * g_tj, optimize=True) / (n * t)

    return BetaBiasComponents(
        A_i=a_i,
        B_i=b_i,
        xdot=xdot,
        Delta=delta,
        Q_i=q_i,
        Gamma_i=gamma_mat,
        e_hat=e_hat,
        Upsilon=upsilon,
        C_t=c_t,
        D_tj=d_tj,
        G_tj=g_tj,
        b1=b1,
        b2=b2,
        d1=d1,
        d2=d2,
        bandwidth=bandwidth,
        l1=l1,
        l2=l2,
        l3=l3,
        A_inv=a_inv,
        BA_inv=ba_inv,
        e_rot=e_rot,
        e_load=e_load,
        quad_AQA=quad,
    )


def correct_beta(fit: CceFit, bias: BetaBiasComponents, n_units: int, n_periods: int) -> np.ndarray:
    """Bias-corrected coefficients: subtract the plug-in 1/T and 1/N terms."""
    adjustment = bias.b / n_periods + bias.d / n_units
    try:
        shift = np.linalg.solve(bias.Delta, adjustment)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"curvature matrix is singular: {exc}") from exc
    return fit.beta - shift


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
    c_grid = lam @ f.T
    d_c, d_cc, d_beta = policy_grid(family, fit.beta, c_grid, policy)

    gamma_i = np.einsum("nt,tr->nr", d_c, f) / t
    gamma_t = np.einsum("nt,nr->tr", d_c, lam) / n
    gamma = d_beta.mean(axis=(0, 1)) - np.einsum(
        "nkr,nr->nk", beta_bias.BA_inv, gamma_i
    ).mean(axis=0)

    u = np.einsum("nrs,ns->nr", beta_bias.A_inv, gamma_i)  # A_i^{-1} gamma_i
    proj_if = np.einsum("nr,tr->nt", u, f)

    l1, l2, l3 = beta_bias.l1, beta_bias.l2, beta_bias.l3
    r_t = np.einsum("nt,nr,nq->trq", l2, lam, u, optimize=True) / n
    # Both pieces of the curvature bracket are second-order Taylor terms and
    # carry 1/2: the direct curvature of the partial effect in the
    # interactive effect, and the loading-bias response through the third
    # derivative.  (Checked against the measured bias of the APE on
    # simulated panels with known factors; without the 1/2 on the first
    # term the correction overshoots by the full curvature piece.)
    curv = 0.5 * d_cc - 0.5 * l3 * proj_if
    w_t = np.einsum("nt,nr,nq->trq", curv, lam, lam, optimize=True) / n

    b3 = float(np.sum(curv * beta_bias.quad_AQA)) / (n * t)

    cross = lag_cross_sum((l2 * proj_if)[..., None] * f, l1[..., None] * f, bandwidth)
    b4 = float(np.einsum("nrs,nrs->", cross, beta_bias.A_inv)) / (n * t)

    d3 = -float(np.sum(proj_if * l2 * beta_bias.e_load)) / (n * t)

    p_t = np.einsum("ntr,ntq->trq", beta_bias.e_rot, beta_bias.e_rot, optimize=True)
    d4 = float(np.einsum("trq,trq->", w_t - r_t, p_t)) / (n * t)

    return ApeBiasComponents(
        gamma=gamma,
        gamma_i=gamma_i,
        gamma_t=gamma_t,
        R_t=r_t,
        W_t=w_t,
        b3=b3,
        b4=b4,
        d3=d3,
        d4=d4,
        d_c=d_c,
        d_cc=d_cc,
        d_beta=d_beta,
        proj_if=proj_if,
    )


def correct_ape(
    ape: ApeEstimate,
    beta_bias: BetaBiasComponents,
    ape_bias: ApeBiasComponents,
    n_units: int,
    n_periods: int,
) -> float:
    """Bias-corrected APE scalar."""
    try:
        delta_inv_b = np.linalg.solve(beta_bias.Delta, beta_bias.b)
        delta_inv_d = np.linalg.solve(beta_bias.Delta, beta_bias.d)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"curvature matrix is singular: {exc}") from exc
    g = ape_bias.gamma
    t_term = (g @ delta_inv_b + ape_bias.b3 + ape_bias.b4) / n_periods
    n_term = (g @ delta_inv_d + ape_bias.d3 + ape_bias.d4) / n_units
    return float(ape.value - t_term - n_term)
