import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize

import ccepanel as cp
from ccepanel import FitOptions, InitializationError, InvalidInputError
from ccepanel.estimation import (
    _line_search,
    _loading_hessian,
    _loading_score,
    _solve_loadings,
    _solve_neg_definite,
)
from ccepanel.likelihood import Family
from conftest import logit_test_panel, make_factor_estimate

import oracles as orc


def test_objective_gaussian_zero():
    panel = cp.Panel(np.zeros((3, 4)), np.zeros((3, 4, 2)))
    fe = make_factor_estimate(np.ones((4, 1)), k=2)
    assert cp.objective(panel, fe, Family.GAUSSIAN, np.zeros(2), np.zeros((3, 1))) == 0.0


def test_objective_logit_symmetry(rng):
    panel = logit_test_panel(rng)
    fe = make_factor_estimate(rng.standard_normal((panel.n_periods, 1)), k=2)
    beta = rng.standard_normal(2)
    lam = rng.standard_normal((panel.n_units, 1))
    base = cp.objective(panel, fe, Family.LOGIT, beta, lam)
    flipped = cp.Panel(1.0 - panel.outcomes, -panel.covariates)
    fe_neg = make_factor_estimate(-fe.factors, k=2)
    assert_allclose(
        cp.objective(flipped, fe_neg, Family.LOGIT, beta, lam), base, rtol=1e-12
    )


def test_objective_matches_loop_oracle(rng):
    y, x, f, psi, beta, lam = orc.random_panel(rng, "logit", 3, 4, 2, 1)
    panel = cp.Panel(y, x)
    fe = make_factor_estimate(f, psi=psi)
    got = cp.objective(panel, fe, Family.LOGIT, beta, lam)
    assert_allclose(got, orc.objective("logit", y, x, f, beta, lam), atol=1e-12)


def test_objective_poisson_domain_error_names_cell(rng):
    y = np.zeros((2, 2))
    x = np.ones((2, 2, 1))
    panel = cp.Panel(y, x)
    fe = make_factor_estimate(np.ones((2, 1)))
    with pytest.raises(InvalidInputError, match="unit 0, period 0"):
        cp.objective(panel, fe, Family.POISSON, np.array([-2.0]), np.zeros((2, 1)))


def test_fit_gaussian_exact_recovery(rng):
    # no idiosyncratic error: the fit must reproduce the outcomes exactly
    n, t, k, r = 20, 15, 3, 2
    f0 = rng.standard_normal((t, r))
    beta0 = np.array([1.0, -0.5, 0.25])
    lam0 = rng.standard_normal((n, r))
    x = rng.standard_normal((n, t, k))
    y = x @ beta0 + lam0 @ f0.T
    panel = cp.Panel(y, x)
    fe = make_factor_estimate(f0, k=k)
    fit = cp.fit_cce(panel, fe, Family.GAUSSIAN)
    assert fit.converged
    assert np.abs(fit.index - y).max() < 1e-6
    assert np.abs(fit.beta - beta0).max() < 1e-6


def test_fit_gaussian_constant_factor_is_within_estimator(rng):
    # r=1 with a constant factor reduces to unit intercepts
    n, t, k = 12, 9, 2
    c = 1.7
    x = rng.standard_normal((n, t, k))
    y = x @ np.array([0.5, -1.0]) + rng.standard_normal((n, 1)) + 0.3 * rng.standard_normal((n, t))
    panel = cp.Panel(y, x)
    fe = make_factor_estimate(np.full((t, 1), c), k=k)
    fit = cp.fit_cce(panel, fe, Family.GAUSSIAN)
    assert fit.converged
    ybar = panel.outcomes.mean(axis=1)
    xbar = panel.covariates.mean(axis=1)
    assert_allclose(fit.loadings[:, 0] * c, ybar - xbar @ fit.beta, atol=1e-8)


def test_fit_first_order_conditions(rng):
    panel = logit_test_panel(rng, n=25, t=18)
    fe = cp.estimate_factors(panel, 1)
    fit = cp.fit_cce(panel, fe, Family.LOGIT)
    assert fit.converged
    g_beta, g_lam = orc.score_blocks(
        "logit", panel.outcomes, panel.covariates, fe.factors, fit.beta, fit.loadings
    )
    tol = FitOptions().grad_tolerance
    assert np.abs(g_beta).max() <= tol
    assert np.abs(g_lam).max() <= tol
    assert fit.grad_norm <= tol
    # read-back consistency of the index
    index = panel.covariates @ fit.beta + fit.loadings @ fe.factors.T
    assert np.abs(index - fit.index).max() < 1e-12


def test_fit_monotone_ascent(rng):
    panel = logit_test_panel(rng, n=30, t=15, k=2)
    fe = cp.estimate_factors(panel, 1)
    fit = cp.fit_cce(panel, fe, Family.LOGIT)
    path = fit.objective_path
    assert len(path) >= 2
    slack = 1e-10 * (1.0 + np.abs(path).max())
    assert np.all(np.diff(path) >= -slack)
    assert_allclose(path[-1], fit.loglik, atol=1e-10)


def test_fit_objective_gradient_matches_finite_differences(rng):
    panel = logit_test_panel(rng, n=6, t=7, k=2)
    fe = cp.estimate_factors(panel, 1)
    beta = rng.standard_normal(2) * 0.4
    lam = rng.standard_normal((6, 1)) * 0.4
    g_beta, g_lam = orc.score_blocks(
        "logit", panel.outcomes, panel.covariates, fe.factors, beta, lam
    )
    h = 5e-7
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (
            cp.objective(panel, fe, Family.LOGIT, beta + e, lam)
            - cp.objective(panel, fe, Family.LOGIT, beta - e, lam)
        ) / (2 * h)
        assert abs(fd - g_beta[j]) / (1 + abs(g_beta[j])) < 1e-6
    n, t = panel.n_units, panel.n_periods
    for i in (0, 3):
        lam_p, lam_m = lam.copy(), lam.copy()
        lam_p[i, 0] += h
        lam_m[i, 0] -= h
        fd = (
            cp.objective(panel, fe, Family.LOGIT, beta, lam_p)
            - cp.objective(panel, fe, Family.LOGIT, beta, lam_m)
        ) / (2 * h)
        # objective is the grand mean; unit scores are per-period means
        assert abs(fd * n - g_lam[i, 0]) / (1 + abs(g_lam[i, 0])) < 1e-6


def test_fit_rotation_invariance():
    # seed chosen so every unit's outcomes vary (no separated loadings;
    # an unidentified loading direction would make the saturated cells'
    # indices differ freely between the two runs)
    rng = np.random.default_rng(8)
    panel = logit_test_panel(rng, n=20, t=16, k=3)
    assert np.all((panel.outcomes.mean(axis=1) > 0) & (panel.outcomes.mean(axis=1) < 1))
    fe = cp.estimate_factors(panel, 2)
    opts = FitOptions(grad_tolerance=1e-11)
    fit = cp.fit_cce(panel, fe, Family.LOGIT, opts)
    m = np.array([[1.3, -0.4], [0.2, 0.8]])
    fit_rot = cp.fit_cce(panel, dataclasses.replace(fe, factors=fe.factors @ m), Family.LOGIT, opts)
    assert fit.converged and fit_rot.converged
    assert np.abs(fit.beta - fit_rot.beta).max() < 1e-6
    assert np.abs(fit.index - fit_rot.index).max() < 1e-6
    # loadings transform by the inverse transpose
    assert np.abs(fit_rot.loadings - fit.loadings @ np.linalg.inv(m).T).max() < 1e-6


def test_fit_benchmark_dgp_single_dataset():
    draw = cp.generate(cp.DgpConfig(n_units=100, n_periods=100, seed=7))
    fe = cp.estimate_factors(draw.panel, 2)
    fit = cp.fit_cce(draw.panel, fe, Family.LOGIT)
    assert fit.converged
    # first coefficient within 3 reported MC standard deviations of the
    # biased center 1.062
    assert 0.894 <= fit.beta[0] <= 1.230


def test_fit_poisson(rng):
    y, x, f, psi, beta0, lam0 = orc.random_panel(rng, "poisson", 40, 30, 2, 1)
    panel = cp.Panel(y, x)
    fe = make_factor_estimate(f, psi=psi)
    fit = cp.fit_cce(panel, fe, Family.POISSON)
    assert fit.converged
    assert np.all(fit.index > 0)
    g_beta, g_lam = orc.score_blocks(
        "poisson", y, x, f, fit.beta, fit.loadings
    )
    assert np.abs(g_beta).max() <= 1e-8
    assert np.abs(g_lam).max() <= 1e-8


def test_fit_poisson_infeasible_start():
    # sign-flipping factor: no loading direction keeps the index positive
    t = 10
    f = np.empty((t, 1))
    f[:, 0] = [2.0 if s % 2 == 0 else -2.0 for s in range(t)]
    y = np.ones((4, t))
    x = np.full((4, t, 1), 1e-4)
    panel = cp.Panel(y, x)
    fe = make_factor_estimate(f)
    with pytest.raises(InitializationError):
        cp.fit_cce(panel, fe, Family.POISSON)


def test_fit_kkt_at_the_box():
    # unit 0 is all ones under a one-signed factor, so its loading runs to
    # the bound with an outward score; the fit is KKT-converged there, and
    # every other score block is stationary
    rng = np.random.default_rng(0)
    panel = logit_test_panel(rng, n=25, t=18)
    y = panel.outcomes.copy()
    y[0] = 1.0
    panel = cp.Panel(y, panel.covariates)
    f = np.abs(rng.standard_normal((18, 1))) + 0.5
    fit = cp.fit_cce(panel, make_factor_estimate(f, k=2), Family.LOGIT,
                     FitOptions(loading_bound=8.0))
    tol = FitOptions().grad_tolerance
    assert fit.converged and fit.grad_norm <= tol
    assert fit.stop_reason == "converged"
    assert fit.bound_hits == 1 and fit.loadings[0, 0] == 8.0
    g_beta, g_lam = orc.score_blocks("logit", y, panel.covariates, f, fit.beta, fit.loadings)
    assert g_lam[0, 0] > 1e-4  # outward: the bound binds
    assert np.abs(g_beta).max() <= tol and np.abs(g_lam[1:]).max() <= tol


def test_fit_nonconvergence_is_flagged_not_raised(rng):
    panel = logit_test_panel(rng, n=15, t=12)
    fe = cp.estimate_factors(panel, 1)
    fit = cp.fit_cce(panel, fe, Family.LOGIT, FitOptions(max_iterations=1, grad_tolerance=1e-14))
    assert not fit.converged
    assert fit.stop_reason == "max_iterations" and fit.iterations == 1
    assert np.isfinite(fit.loglik)


def test_fit_reports_a_failed_coefficient_line_search(rng):
    # a covariate that is zero in every cell has a zero score, so the
    # coefficient step has no ascent direction; a tolerance below rounding
    # keeps the loading score from ever meeting it first
    panel = logit_test_panel(rng, n=15, t=12, k=1)
    panel = cp.Panel(panel.outcomes, np.zeros_like(panel.covariates))
    fe = make_factor_estimate(rng.standard_normal((12, 1)) + 1.0)
    fit = cp.fit_cce(panel, fe, Family.LOGIT, FitOptions(grad_tolerance=1e-300))
    assert fit.stop_reason == "coefficient_line_search_failed"
    assert not fit.converged and fit.iterations == 0
    assert fit.beta.tolist() == [0.0]


def test_fit_reports_a_singular_coefficient_system(rng, monkeypatch):
    # the ridge fallback of _solve_neg_definite solves every finite
    # negative semi-definite system, so only a non-finite curvature reaches
    # this stop; stand in for that by a NaN direction from every k x k solve
    # (the pooled start then takes gradient steps, the batched loading
    # solves run as is)
    def failing_solve(h, rhs):
        if h.ndim == 2:
            return np.full(np.shape(rhs), np.nan)
        return _solve_neg_definite(h, rhs)

    monkeypatch.setattr("ccepanel.estimation._solve_neg_definite", failing_solve)
    panel = logit_test_panel(rng, n=15, t=12)
    fit = cp.fit_cce(panel, cp.estimate_factors(panel, 1), Family.LOGIT)
    assert fit.stop_reason == "singular_coefficient_system"
    assert not fit.converged and fit.iterations == 0


def test_solve_neg_definite_gives_nan_rows_for_a_non_finite_block():
    # a NaN curvature block has no Newton direction even after the ridge;
    # its row comes back NaN (for the line search to replace by the scaled
    # score) instead of raising, and the other blocks are still solved
    h = np.array([-np.eye(2), -2.0 * np.eye(2), -np.eye(2)])
    h[1, 0, 1] = np.nan
    out = _solve_neg_definite(h, np.ones((3, 2, 1)))[:, :, 0]
    assert np.isnan(out[1]).all()
    assert np.isfinite(out[[0, 2]]).all()
    assert_allclose(out[[0, 2]], -1.0, rtol=1e-9)


def test_fit_options_validation():
    with pytest.raises(InvalidInputError):
        FitOptions(grad_tolerance=0.0)
    with pytest.raises(InvalidInputError):
        FitOptions(max_iterations=0)


@pytest.mark.parametrize("field", ["grad_tolerance", "max_iterations", "loading_bound"])
def test_fit_options_reject_nan(field):
    with pytest.raises(InvalidInputError, match=field):
        FitOptions(**{field: float("nan")})


@pytest.mark.parametrize("kwargs", [
    {"grad_tolerance": float("inf")},
    {"max_iterations": 2.5},
    {"max_iterations": float("inf")},
], ids=["grad_tolerance=inf", "max_iterations=2.5", "max_iterations=inf"])
def test_fit_options_reject_non_finite_and_non_integral(kwargs):
    with pytest.raises(InvalidInputError, match=next(iter(kwargs))):
        FitOptions(**kwargs)


# --------------------------------------------------------------------- #
# the shared Armijo line search
# --------------------------------------------------------------------- #


def test_line_search_fallback_rejection_and_zero_slope():
    # row 0: a descent step, searched along g / scale instead, accepted at
    # alpha = 1/2; row 1: -inf (outside the domain) at every alpha; row 2:
    # zero score, so no ascent direction exists and it is never tried
    obj = np.array([0.0, 1.0, 2.0])
    g = np.array([[4.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    step = np.array([[-1.0, 0.0], [1.0, 1.0], [1.0, 0.0]])
    tried = []

    def trial(rows, step, alpha):
        tried.extend(rows.tolist())
        move = alpha[:, None] * step
        value = obj[rows] + np.sum(g[rows] * move, axis=1) - 2.0 * np.sum(move * move, axis=1)
        return np.where(rows == 1, -np.inf, value)

    new_step, alpha, new_obj, accepted = _line_search(trial, obj, g, step, 2.0, 6)
    assert accepted.tolist() == [True, False, False]
    assert_allclose(new_step[0], [2.0, 0.0], atol=0)
    assert_allclose(new_step[1], [1.0, 1.0], atol=0)  # an ascent step is kept
    assert alpha[0] == 0.5 and alpha[1] == 0.5**6
    assert new_obj.tolist() == [2.0, 1.0, 2.0]
    assert obj.tolist() == [0.0, 1.0, 2.0]  # the input is not modified
    assert 2 not in tried and tried.count(1) == 6 and tried.count(0) == 2


# --------------------------------------------------------------------- #
# per-unit loading updates
# --------------------------------------------------------------------- #


def test_loading_score_pins_only_outward_coordinates_at_the_bound(rng):
    # rows are units; at bound 2 the coordinates are: +bound with an outward
    # (positive) score, +bound with an inward score, -bound with an outward
    # (negative) score, and interior points with either sign
    t, bound = 5, 2.0
    f = rng.standard_normal((t, 3))
    lam = np.array([[2.0, 2.0, -2.0], [0.0, 1.5, -1.9], [-2.0, 2.0, 0.3]])
    raw = np.array([[1.0, -1.0, -1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])
    l1 = np.linalg.lstsq(f.T, raw.T, rcond=None)[0].T  # so that l1 @ f == raw
    g, pinned = _loading_score(l1, f, lam, bound)
    want = np.array([[True, False, True], [False, False, False], [False, True, False]])
    assert pinned.tolist() == want.tolist()
    assert np.all(g[pinned] == 0.0)
    assert_allclose(g[~pinned], raw[~pinned], atol=1e-12)

    l2 = -rng.uniform(0.5, 1.5, size=(3, t))
    h = _loading_hessian(l2, f, pinned)
    plain = np.einsum("nt,tr,ts->nrs", l2, f, f)
    for i in range(3):
        free = ~pinned[i]
        assert_allclose(h[i][np.ix_(free, free)], plain[i][np.ix_(free, free)], rtol=1e-12)
        pin = np.flatnonzero(pinned[i])
        assert np.all(h[i][pin, :][:, free] == 0.0) and np.all(h[i][free, :][:, pin] == 0.0)
        assert h[i][np.ix_(pin, pin)].tolist() == (-np.eye(pin.size)).tolist()

TOL = FitOptions().grad_tolerance


def _solve_unit_loading(family, y, x, f, beta, bound=1e3, inner_max=200):
    """One unit's loading solve at fixed beta, as a 1 x T panel, from zero.

    Returns the loading and the raw (unprojected) scaled score at it.
    """
    t, r = f.shape
    y = np.asarray(y, dtype=float)[None, :]
    lam, z, _, _, _ = _solve_loadings(
        family, y, (x @ beta)[None, :], f, np.zeros((1, r)), bound, TOL,
        inner_max=inner_max,
    )
    raw_score = float(np.abs(cp.index_derivative(family, y, z, 1) @ f).max()) / t
    return lam[0], raw_score


def test_update_loadings_separation_hits_bound():
    # a single binary observation cannot identify the loading; the bound is
    # set below the point where the logistic score numerically underflows,
    # so the box constraint binds
    lam, raw_score = _solve_unit_loading(
        Family.LOGIT, [1.0], np.zeros((1, 1)), np.array([[1.0]]), np.zeros(1),
        bound=8.0, inner_max=300,
    )
    assert np.any(np.abs(lam) >= 8.0)
    assert raw_score > TOL
    assert_allclose(lam, [8.0])


def test_update_loadings_gaussian_mean(rng):
    t = 9
    y = rng.standard_normal(t) + 2.0
    x = rng.standard_normal((t, 2))
    beta = np.array([0.4, -0.2])
    lam, raw_score = _solve_unit_loading(Family.GAUSSIAN, y, x, np.ones((t, 1)), beta)
    assert raw_score <= TOL and np.all(np.abs(lam) < 1e3)
    assert_allclose(lam[0], np.mean(y - x @ beta), atol=1e-10)


def test_update_loadings_matches_grid_search(rng):
    # 2-d logit subproblem vs an independent direct optimizer
    t, r = 6, 2
    f = rng.standard_normal((t, r))
    x = rng.standard_normal((t, 2))
    beta = np.array([0.3, -0.6])
    y = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    lam, raw_score = _solve_unit_loading(Family.LOGIT, y, x, f, beta)
    assert raw_score <= TOL and np.all(np.abs(lam) < 1e3)

    offset = x @ beta

    def negloglik(lam):
        z = offset + f @ lam
        return -float(np.sum(orc.log_density("logit", y, z)))

    grid = np.arange(-3.0, 3.0 + 1e-9, 0.25)
    best = min(
        ((a, b) for a in grid for b in grid), key=lambda ab: negloglik(np.array(ab))
    )
    refined = minimize(negloglik, np.array(best), method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 5000})
    assert np.abs(lam - refined.x).max() < 1e-3
