import dataclasses
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import minimize

import ccepanel as cp
import ccepanel.estimation as est
from ccepanel import FitOptions, InitializationError, InvalidInputError
from ccepanel.estimation import (
    _line_search,
    _loading_hessian,
    _loading_score,
    _row_outer,
    _solve_loadings,
    _solve_neg_definite,
    _sum_outer,
    _sum_weighted,
)
from ccepanel.jackknife import split_half_panels
from ccepanel.likelihood import Family, _index_derivatives
from ccepanel.simulate import replication_seed
from conftest import (
    RecordedDraws,
    assert_einsum,
    draw_panel_shapes,
    duplicated_covariate_panel,
    logit_test_panel,
    make_factor_estimate,
)

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


def test_fit_reports_a_failed_coefficient_line_search(rng, monkeypatch):
    # stand in for a search that finds no increase: every single-row search
    # (the pooled start's and the coefficient step's) fails, the batched
    # loading searches run as is
    def failing_search(trial, obj, g, step, scale):
        if obj.size == 1:
            return step, np.ones(1), obj, np.zeros(1, dtype=bool)
        return _line_search(trial, obj, g, step, scale)

    monkeypatch.setattr("ccepanel.estimation._line_search", failing_search)
    panel = logit_test_panel(rng, n=15, t=12)
    fit = cp.fit_cce(panel, cp.estimate_factors(panel, 1), Family.LOGIT)
    assert fit.stop_reason == "coefficient_line_search_failed"
    assert not fit.converged and fit.iterations == 0 and fit.coefficient_trials == 0
    assert fit.beta.tolist() == [0.0, 0.0]


def test_fit_reports_a_singular_coefficient_system(rng):
    # coefficients that are not identified: a covariate that is zero in
    # every cell has a zero score, which alone would meet the tolerance
    panel = logit_test_panel(rng, n=15, t=12, k=1)
    panel = cp.Panel(panel.outcomes, np.zeros_like(panel.covariates))
    fe = make_factor_estimate(rng.standard_normal((12, 1)) + 1.0)
    fit = cp.fit_cce(panel, fe, Family.LOGIT)
    assert fit.stop_reason == "singular_coefficient_system"
    assert not fit.converged and fit.iterations == 0
    assert fit.beta.tolist() == [0.0]

    # a duplicated covariate: the pooled start takes gradient steps, and
    # the first coefficient system is singular; gaussian included, whose
    # pooled start is the same Newton search on a quadratic objective
    panel = duplicated_covariate_panel()
    for family in (Family.LOGIT, Family.GAUSSIAN):
        fit = cp.fit_cce(panel, cp.estimate_factors(panel, 2), family)
        assert fit.stop_reason == "singular_coefficient_system", family
        assert not fit.converged and fit.iterations == 0


def test_fit_stops_when_an_outer_iteration_gains_nothing():
    # a Poisson MLE on the domain edge: from iteration 35 on, each
    # coefficient step is accepted only at rounding level (alpha near 1e-14,
    # about 45 trials) and the objective stays bit for bit where it was, so
    # without the stop the fit runs to max_iterations at some 8,000 trials
    n, t, k, r = 30, 40, 3, 2
    rng = np.random.default_rng(0)
    x = np.abs(rng.standard_normal((n, t, k))) * 0.2
    beta = rng.uniform(0.2, 0.5, size=k)
    f = rng.uniform(0.5, 1.5, size=(t, r))
    lam = rng.uniform(0.5, 1.0, size=(n, r))
    panel = cp.Panel(rng.poisson(x @ beta + lam @ f.T).astype(float), x)
    fit = cp.fit_cce(panel, cp.estimate_factors(panel, r), Family.POISSON)
    assert fit.stop_reason == "no_progress" and not fit.converged
    assert fit.iterations < 40 and fit.coefficient_trials < 500
    gains = np.diff(fit.objective_path[1::2])
    assert gains[-1] == 0.0 and np.all(gains[:-1] > 0)
    # index and loglik are the optimizer's own last point, which stayed in
    # the domain; a read-back x @ beta + lam @ f.T rounds a y = 0 cell to <= 0
    assert np.isfinite(fit.loglik) and fit.index.min() > 0
    assert fit.loglik == fit.objective_path[-1]


def _neg_definite_blocks(rng, n, r):
    a = rng.standard_normal((n, r, r))
    return -(a @ a.transpose(0, 2, 1) + np.eye(r))


def test_solve_neg_definite_gives_nan_rows_for_a_non_finite_block(rng):
    # a NaN curvature block has no Newton direction; its row comes back NaN
    # (for the line search to replace by the scaled score) instead of
    # raising, and the other blocks keep their exact solution
    h = _neg_definite_blocks(rng, 3, 2)
    h[1, 0, 1] = np.nan
    rhs = rng.standard_normal((3, 2, 1))
    out = _solve_neg_definite(h, rhs)
    assert np.isnan(out[1]).all()
    assert np.array_equal(out[[0, 2]], np.linalg.solve(h[[0, 2]], rhs[[0, 2]]))


def test_solve_neg_definite_gives_nan_rows_for_a_singular_block(rng):
    # an exactly singular block makes the batched solve raise; each block is
    # then solved on its own, and the zero block comes back NaN, as does a
    # block whose solution overflows in one coordinate; the healthy blocks
    # keep np.linalg.solve's exact bits
    h = _neg_definite_blocks(rng, 4, 3)
    h[2] = 0.0
    h[1] = np.diag([-1e-300, -1.0, -1.0])
    rhs = rng.standard_normal((4, 3, 1))
    rhs[1, 0] = 1e10
    out = _solve_neg_definite(h, rhs)
    healthy = [0, 3]
    assert np.array_equal(out[healthy], np.linalg.solve(h[healthy], rhs[healthy]))
    assert np.isnan(out[[1, 2]]).all()
    # a single system, as the pooled start and the coefficient step solve it
    b = rhs[0, :, 0]
    assert np.array_equal(_solve_neg_definite(h[0], b), np.linalg.solve(h[0], b))
    assert np.isnan(_solve_neg_definite(h[2], b)).all()
    assert np.isnan(_solve_neg_definite(h[1], rhs[1, :, 0])).all()


def test_fit_holds_units_whose_curvature_block_is_singular():
    # units with y = 1 in every period run their loadings out; one that sits
    # at the bound with an inward score is not pinned, but its l2 has
    # underflowed and its curvature block is exactly singular: the Schur
    # step holds it, the fit converges and `stalled` counts the held units
    seed = replication_seed(77, 40, 30, False, 0)
    draw = cp.generate(cp.DgpConfig(n_units=40, n_periods=30, seed=seed))
    panel = split_half_panels(draw.panel)[1][1]  # the second half of the periods
    fe = cp.estimate_factors(panel, 2)
    fit = cp.fit_cce(panel, fe, Family.LOGIT, FitOptions(loading_bound=30.0))
    assert fit.converged and fit.stalled > 0
    l1, l2 = _index_derivatives(Family.LOGIT, panel.outcomes, fit.index, 2)
    _, pinned = _loading_score(l1, fe.factors, fit.loadings, 30.0)
    h = _loading_hessian(l2, fe.factors, pinned)
    held = np.flatnonzero(np.isnan(_solve_neg_definite(h, np.ones((len(h), 2, 1)))[:, 0, 0]))
    assert held.size > 0 and np.all(panel.outcomes[held] == 1.0)


def test_fit_reports_loading_rounds_and_stalls(rng):
    panel = logit_test_panel(rng)
    fit = cp.fit_cce(panel, cp.estimate_factors(panel, 1), Family.LOGIT)
    assert fit.converged
    # one loading solve per outer iteration, and one more that met the tolerance
    assert fit.loading_rounds.dtype.kind == "i"
    assert fit.loading_rounds.shape == (fit.iterations + 1,)
    assert fit.loading_rounds[0] >= 1 and np.all(fit.loading_rounds >= 0)
    assert isinstance(fit.stalled, int) and fit.stalled >= 0


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


def test_line_search_fallback_rejection_and_zero_slope(monkeypatch):
    # row 0: a descent step, searched along g / scale instead, accepted at
    # alpha = 1/2; row 1: -inf (outside the domain) at every alpha, here
    # six halvings; row 2: zero score, so no ascent direction exists and it
    # is never tried
    monkeypatch.setattr(est, "_HALVING_MAX", 6)
    obj = np.array([0.0, 1.0, 2.0])
    g = np.array([[4.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    step = np.array([[-1.0, 0.0], [1.0, 1.0], [1.0, 0.0]])
    tried = []

    def trial(rows, step, alpha):
        tried.extend(rows.tolist())
        move = alpha[:, None] * step
        value = obj[rows] + np.sum(g[rows] * move, axis=1) - 2.0 * np.sum(move * move, axis=1)
        return np.where(rows == 1, -np.inf, value)

    new_step, alpha, new_obj, accepted = _line_search(trial, obj, g, step, 2.0)
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


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("inner_max", [1, 50])
@pytest.mark.parametrize("stall", [False, True], ids=["no_stall", "stalling"])
def test_solve_loadings_returns_the_derivatives_at_its_index(family, inner_max, stall,
                                                             monkeypatch):
    # the coefficient step reads l_1 and l_2 from the loading loop instead
    # of evaluating them again; they must be those of the returned index,
    # bit for bit, including the rows of units still active when inner_max
    # ends the loop (inner_max = 1), of units that left early, and of units
    # whose line search failed (forced here by a trial objective of -inf
    # for every third unit of a round)
    if stall:
        line_search = est._line_search

        def stalling(trial, *args):
            def failing(rows, step, alpha):
                return np.where(rows % 3 == 0, -np.inf, trial(rows, step, alpha))
            return line_search(failing, *args)

        monkeypatch.setattr(est, "_line_search", stalling)
    monkeypatch.setattr(est, "_INNER_MAX", inner_max)
    rng = np.random.default_rng(5)
    y, x, f, _, beta, lam = orc.random_panel(rng, family.value, 40, 12, 2, 2)
    if family is not Family.POISSON:
        lam = np.zeros_like(lam)  # poisson keeps its positive index
    z_base = x @ beta
    out = _solve_loadings(family, y, z_base, *_start(family, y, z_base, f, lam), f,
                          lam.copy(), 3.0, TOL)
    lam_out, z, obj, l1, l2, n_stalled, rounds = out
    assert rounds <= inner_max and (n_stalled > 0 or not stall)
    assert_allclose(z, x @ beta + lam_out @ f.T, rtol=1e-12)
    want = _index_derivatives(family, y, z, 2)
    assert np.array_equal(l1, want[0]) and np.array_equal(l2, want[1])
    assert np.array_equal(obj, cp.log_density(family, y, z).sum(axis=1))


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_batched_loading_solve_is_each_unit_solved_alone(family, monkeypatch):
    # the batch keeps its active rows compact and gathers them again as
    # units leave, in different rounds here; each unit's result must be the
    # one it gets as a one-row batch.  One unit's line search always fails:
    # every trial density of its outcome row is -inf, keyed on the unit's
    # data, so it stalls wherever its row sits in the working set
    rng = np.random.default_rng(8)
    y, x, f, _, beta, lam = orc.random_panel(rng, family.value, 30, 12, 2, 2)
    if family is not Family.POISSON:
        lam = np.zeros_like(lam)  # poisson keeps its positive index
    z_base = x @ beta
    z, ld = _start(family, y, z_base, f, lam)  # the batch updates its z in place
    stall = 7
    assert np.all(y == y[stall], axis=1).sum() == 1
    density = est._log_density_unchecked

    def failing(family, y_rows, z):
        d = density(family, y_rows, z)
        d[np.all(y_rows == y[stall], axis=1)] = -np.inf
        return d

    monkeypatch.setattr(est, "_log_density_unchecked", failing)
    alone = [_solve_loadings(family, y[i:i + 1], z_base[i:i + 1], z[i:i + 1].copy(),
                             ld[i:i + 1], f, lam[i:i + 1].copy(), 3.0, TOL)
             for i in range(len(y))]
    lam_b, z_b, obj_b, _, _, stalled_b, rounds_b = _solve_loadings(
        family, y, z_base, z, ld, f, lam.copy(), 3.0, TOL)
    assert_allclose(lam_b, np.concatenate([a[0] for a in alone]), rtol=1e-12)
    assert_allclose(z_b, np.concatenate([a[1] for a in alone]), rtol=1e-12)
    assert_allclose(obj_b, np.concatenate([a[2] for a in alone]), rtol=1e-12)
    assert [a[5] for a in alone][stall] == 1
    assert stalled_b == sum(a[5] for a in alone)
    rounds = [a[6] for a in alone]
    assert rounds_b == max(rounds)
    # units leave in different rounds (gaussian: the stalled unit, then the
    # rest after their one Newton step)
    assert len(set(rounds)) >= (2 if family is Family.GAUSSIAN else 3)


def _start(family, y, z_base, f, lam):
    """The start index of a loading solve and its log densities."""
    z = z_base + lam @ f.T
    return z, est._log_density_unchecked(family, y, z)


def _record_fit(monkeypatch, family, panel, fe):
    """Fit with spies on the loading solves and the coefficient line searches.

    Returns the fit, the index each loading solve starts from (evaluated as
    ``z_base + lam @ f.T`` from its arguments), the index of each accepted
    coefficient trial, and the number of full-panel log-density calls made
    inside a loading solve before its first line search (its entry)."""
    solve, search, density = est._solve_loadings, est._line_search, est._log_density_unchecked
    entries, accepted, last_z = [], [], []
    state = {"loadings": False, "entry": False, "entry_calls": 0}

    def spy_density(family, y, z):
        last_z[:] = [z.copy()]
        if state["entry"]:
            state["entry_calls"] += 1
        return density(family, y, z)

    def spy_solve(family, y, z_base, z, ld, f, lam, *args, **kwargs):
        entries.append(z_base + lam @ f.T)
        state.update(loadings=True, entry=True)
        try:
            return solve(family, y, z_base, z, ld, f, lam, *args, **kwargs)
        finally:
            state.update(loadings=False, entry=False)

    def spy_search(*args):
        state["entry"] = False
        out = search(*args)
        if entries and not state["loadings"] and out[3][0]:
            accepted.append(last_z[0])
        return out

    monkeypatch.setattr(est, "_solve_loadings", spy_solve)
    monkeypatch.setattr(est, "_line_search", spy_search)
    monkeypatch.setattr(est, "_log_density_unchecked", spy_density)
    fit = cp.fit_cce(panel, fe, family)
    return fit, entries, accepted, state["entry_calls"]


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_accepted_coefficient_trial_is_the_next_loading_entry(family, monkeypatch):
    # the accepted trial hands its densities over, so its index must be the
    # one the next loading solve would evaluate at entry, bit for bit
    rng = np.random.default_rng(11)
    y, x, f, psi, _, _ = orc.random_panel(rng, family.value, 40, 30, 2, 1)
    fit, entries, accepted, _ = _record_fit(
        monkeypatch, family, cp.Panel(y, x), make_factor_estimate(f, psi=psi))
    assert fit.converged and fit.iterations >= 1
    assert len(entries) == fit.iterations + 1 and len(accepted) == fit.iterations
    assert fit.coefficient_trials >= fit.iterations
    for trial_z, entry_z in zip(accepted, entries[1:]):
        assert np.array_equal(trial_z, entry_z)


def test_logit_fit_evaluates_no_density_at_loading_entry(monkeypatch):
    panel = logit_test_panel(np.random.default_rng(12))
    fit, entries, _, entry_calls = _record_fit(
        monkeypatch, Family.LOGIT, panel, cp.estimate_factors(panel, 1))
    assert fit.converged and len(entries) == fit.iterations + 1
    assert entry_calls == 0


def test_no_optimized_einsum_in_the_package():
    # the hot contractions are written as GEMMs; numpy's path search and its
    # version-specific contraction layout stay out of the package
    for path in Path(cp.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "optimize=True" not in text and "einsum_path" not in text, path.name


# each contraction of the fit and the plug-ins, keyed by its einsum
# subscripts, in the GEMM form the package computes it in; axis sizes: n
# units, t periods, (k, l, j) covariates, (r, s, q) factors
_GEMM_FORMS = {
    "nt,nr,njq->tjrq": lambda l, a, b: _sum_outer(
        l, (b[:, :, None, :] * a[:, None, :, None]).reshape(len(a), -1)
    ).reshape(l.shape[1], b.shape[1], a.shape[1], b.shape[2]),
    "nt,nr,nq->trq": lambda l, a, b: _sum_outer(l, _row_outer(a, b)).reshape(
        l.shape[1], a.shape[1], b.shape[1]),
    "nt,ntj,nr,nq->tjrq": lambda l, x, a, b: _sum_outer(
        (x * l[..., None]).reshape(len(x), -1), _row_outer(a, b)
    ).reshape(*x.shape[1:], a.shape[1], b.shape[1]),
    "nt,ntk,nr->tkr": lambda l, x, a: _sum_outer(
        (x * l[..., None]).reshape(len(x), -1), a).reshape(*x.shape[1:], a.shape[1]),
    "nt,ntk,ntl->kl": lambda l, x, w: _sum_outer(x * l[..., None], w),
    "nt,ntk,tr->nkr": lambda l, x, f: (f.T @ (x * l[..., None])).transpose(0, 2, 1),
    "nt,tr,ts->nrs": lambda l, f, g: (l @ _row_outer(f, g)).reshape(
        len(l), f.shape[1], g.shape[1]),
    "ntr,ntq->trq": lambda a, b: a.transpose(1, 2, 0) @ b.transpose(1, 0, 2),
    "tr,nrq,tq->nt": lambda f, m, g: m.reshape(len(m), -1) @ _row_outer(f, g).T,
    "trq,tjrq->j": lambda p, d: _sum_weighted(p, d.transpose(0, 2, 3, 1)),
}
_AXES = {"n": "n", "t": "t", "k": "k", "l": "k", "j": "k",
         "r": "r", "s": "r", "q": "r"}


@pytest.mark.parametrize("subscripts", sorted(_GEMM_FORMS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_gemm_form_is_optimized_einsum_bit_for_bit(subscripts, data):
    # the GEMM form against numpy's optimized einsum: bit for bit on small
    # integers, where every summation order is exact, and at rtol 1e-12 on
    # normal draws, where the orders differ in rounding
    n, t, k, r, rng = draw_panel_shapes(data)
    size = {"n": n, "t": t, "k": k, "r": r}
    shapes = [[size[_AXES[c]] for c in term]
              for term in subscripts.split("->")[0].split(",")]
    whole = [rng.integers(-3, 4, shape).astype(float) for shape in shapes]
    got = _GEMM_FORMS[subscripts](*whole)
    assert np.array_equal(got, np.einsum(subscripts, *whole, optimize=True))
    normal = [rng.standard_normal(shape) for shape in shapes]
    assert_einsum(_GEMM_FORMS[subscripts](*normal), subscripts, *normal)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
# a draw on which the k = 1 sum over units and loading coordinates cancels
# to 7.3e-4 from terms of order one, and the GEMM and einsum orders differ
# by 2.5e-15: the slack must scale with the terms, not with the result
@example(data=RecordedDraws(n=34, t=35, k=1, r=3, seed=35, pinned_share=0.3))
def test_gemm_contractions_match_their_einsum_definitions(data):
    # the coefficient score and the Schur step's sums over units and loading
    # coordinates, here on a transposed view; the other contractions are
    # checked one by one above
    n, t, k, r, rng = draw_panel_shapes(data)
    l, x = rng.standard_normal((n, t)), rng.standard_normal((n, t, k))
    f, lam = rng.standard_normal((t, r)), rng.standard_normal((n, r))
    assert_einsum(_sum_weighted(l, x), "nt,ntk->k", l, x)
    hlb, t1 = rng.standard_normal((n, k, r)).transpose(0, 2, 1), rng.standard_normal((n, r, k))
    assert_einsum(_sum_outer(hlb, t1), "nrk,nrl->kl", hlb, t1)
    assert_einsum(_sum_weighted(lam, hlb), "nr,nrk->k", lam, hlb)

    # the loading curvature: plain, then with pinned sets of every density
    plain = np.einsum("nt,tr,ts->nrs", l, f, f)
    slack = 1e-12 * np.einsum("nt,tr,ts->nrs", np.abs(l), np.abs(f), np.abs(f))
    assert_einsum(_loading_hessian(l, f), "nt,tr,ts->nrs", l, f, f)
    share = data.draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]), label="pinned_share")
    pinned = rng.uniform(size=(n, r)) < share
    h = _loading_hessian(l, f, pinned)
    for i in range(n):
        free, pin = np.flatnonzero(~pinned[i]), np.flatnonzero(pinned[i])
        assert np.all(np.abs(h[i] - plain[i])[np.ix_(free, free)] <= slack[i][np.ix_(free, free)])
        assert np.all(h[i][np.ix_(pin, free)] == 0.0) and np.all(h[i][np.ix_(free, pin)] == 0.0)
        assert h[i][np.ix_(pin, pin)].tolist() == (-np.eye(pin.size)).tolist()


def _solve_unit_loading(family, y, x, f, beta, bound=1e3, inner_max=200):
    """One unit's loading solve at fixed beta, as a 1 x T panel, from zero.

    Returns the loading and the raw (unprojected) scaled score at it.
    """
    t, r = f.shape
    y = np.asarray(y, dtype=float)[None, :]
    z_base, lam = (x @ beta)[None, :], np.zeros((1, r))
    with mock.patch.object(est, "_INNER_MAX", inner_max):
        lam, z, _, _, _, _, _ = _solve_loadings(
            family, y, z_base, *_start(family, y, z_base, f, lam), f, lam, bound, TOL
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
