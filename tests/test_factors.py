import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import ccepanel as cp
from ccepanel import InvalidInputError, NumericalError
from ccepanel.factors import rank_from_eigenvalue_ratios, rank_from_eigenvalues


def constant_covariate_panel(xbar):
    """Panel whose covariates equal the given T x k rows for every unit."""
    xbar = np.asarray(xbar, dtype=float)
    t, k = xbar.shape
    x = np.broadcast_to(xbar, (2, t, k)).copy()
    return cp.Panel(np.zeros((2, t)), x)


def loop_means(x):
    """T x k cross-sectional averages of an (N, T, k) array, by loops."""
    n, t, k = x.shape
    want = np.zeros((t, k))
    for s in range(t):
        for j in range(k):
            want[s, j] = sum(x[i, s, j] for i in range(n)) / n
    return want


def loop_second_moment(xbar):
    """Mean over t of the outer products xbar_t xbar_t', by a loop."""
    t, k = xbar.shape
    want = np.zeros((k, k))
    for s in range(t):
        want += np.outer(xbar[s], xbar[s]) / t
    return want


def full_rank_means(panel):
    """The averages recovered from all k factors: factors @ eigenvectors'."""
    fe = cp.estimate_factors(panel, panel.n_covariates)
    return fe.factors @ fe.eigenvectors.T


def full_rank_second_moment(panel):
    """The second moment rebuilt from its full spectrum: V diag(lambda) V'."""
    fe = cp.estimate_factors(panel, panel.n_covariates)
    return fe.eigenvectors @ np.diag(fe.eigenvalues) @ fe.eigenvectors.T


def test_cross_sectional_means_two_units():
    # mean of {3, 5} is 4 in every period
    x = np.zeros((2, 2, 1))
    x[0, :, 0] = 3.0
    x[1, :, 0] = 5.0
    panel = cp.Panel(np.zeros((2, 2)), x)
    assert_allclose(full_rank_means(panel), np.full((2, 1), 4.0))


def test_cross_sectional_means_constant_panel():
    v = np.array([1.5, -2.0, 0.25])
    x = np.tile(v, (4, 5, 1))
    panel = cp.Panel(np.zeros((4, 5)), x)
    assert_allclose(full_rank_means(panel), np.tile(v, (5, 1)), atol=1e-12)


def test_cross_sectional_means_matches_loops(rng):
    x = rng.standard_normal((3, 4, 2))
    panel = cp.Panel(rng.standard_normal((3, 4)), x)
    assert_allclose(full_rank_means(panel), loop_means(x), atol=1e-12)


def test_second_moment_unit_vector_rows():
    xbar = np.tile(np.array([1.0, 0.0, 0.0]), (7, 1))
    want = np.zeros((3, 3))
    want[0, 0] = 1.0
    assert_allclose(full_rank_second_moment(constant_covariate_panel(xbar)), want, atol=1e-12)


def test_second_moment_scalar():
    panel = constant_covariate_panel(np.array([[1.0], [3.0]]))
    assert_allclose(full_rank_second_moment(panel), [[5.0]])


def test_second_moment_matches_loops(rng):
    xbar = rng.standard_normal((50, 3))
    assert_allclose(full_rank_second_moment(constant_covariate_panel(xbar)),
                    loop_second_moment(xbar), atol=1e-12)


def test_estimate_factors_scalar_case(rng):
    x = rng.standard_normal((5, 8, 1)) + 2.0
    panel = cp.Panel(np.zeros((5, 8)), x)
    fe = cp.estimate_factors(panel, 1)
    assert_allclose(abs(fe.eigenvectors[0, 0]), 1.0, atol=1e-12)
    assert fe.eigenvectors[0, 0] > 0
    assert_allclose(fe.factors[:, 0], loop_means(x)[:, 0], atol=1e-12)


def test_estimate_factors_recovers_factor_span(rng):
    # noiseless covariates: the estimated factors span the true ones
    t, k, r = 40, 4, 2
    f0 = rng.standard_normal((t, r))
    gamma = rng.standard_normal((12, k, r))
    x = np.einsum("nkr,tr->ntk", gamma, f0)
    panel = cp.Panel(np.zeros((12, t)), x)
    fe = cp.estimate_factors(panel, r)
    coef, _, _, _ = np.linalg.lstsq(fe.factors, f0, rcond=None)
    resid = f0 - fe.factors @ coef
    assert np.abs(resid).max() < 1e-8


def test_estimate_factors_diagonal_second_moment():
    s8, s2 = np.sqrt(8.0), np.sqrt(2.0)
    xbar = np.array([[s8, 0.0], [-s8, 0.0], [0.0, s2], [0.0, -s2]])
    panel = constant_covariate_panel(xbar)
    fe = cp.estimate_factors(panel, 1)
    assert_allclose(full_rank_second_moment(panel), np.diag([4.0, 1.0]), atol=1e-12)
    assert_allclose(fe.eigenvalues, [4.0, 1.0], atol=1e-12)
    assert_allclose(fe.eigenvectors[:, 0], [1.0, 0.0], atol=1e-12)


def test_estimate_factors_rejects_bad_rank(rng):
    panel = cp.Panel(np.zeros((3, 3)), rng.standard_normal((3, 3, 2)))
    with pytest.raises(InvalidInputError):
        cp.estimate_factors(panel, 3)
    with pytest.raises(InvalidInputError):
        cp.estimate_factors(panel, 0)


def test_estimate_factors_degenerate_panel():
    panel = cp.Panel(np.zeros((3, 3)), np.zeros((3, 3, 2)))
    with pytest.raises(NumericalError, match="degenerate"):
        cp.estimate_factors(panel, 1)


def test_rank_threshold_examples():
    assert rank_from_eigenvalues(np.array([5.0, 3.0, 1e-4, 1e-6]), 0.01) == 2
    assert rank_from_eigenvalues(np.array([1e-8, 1e-9]), 0.5) == 1  # floor rule
    with pytest.raises(InvalidInputError):
        rank_from_eigenvalues(np.array([1.0]), 0.0)
    with pytest.raises(InvalidInputError):
        rank_from_eigenvalues(np.array([1.0]), float("nan"))  # would floor to rank 1


def test_rank_ratio_examples():
    assert rank_from_eigenvalue_ratios(np.array([8.0, 4.0, 0.01, 0.005])) == 2
    assert rank_from_eigenvalue_ratios(np.array([6.0, 3.0])) == 1
    # zero denominator counts as an infinite ratio
    assert rank_from_eigenvalue_ratios(np.array([4.0, 2.0, 0.0])) == 2
    with pytest.raises(InvalidInputError):
        rank_from_eigenvalue_ratios(np.array([1.0]))


def test_rank_ratio_needs_two_covariates(rng):
    panel = cp.Panel(np.zeros((3, 3)), rng.standard_normal((3, 3, 1)))
    with pytest.raises(InvalidInputError):
        cp.estimate_rank_ratio(panel)


def test_default_threshold():
    assert_allclose(cp.default_threshold(200, 50), 50.0 ** (-1.0 / 3.0))


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=0.1, max_value=50.0))
def test_scale_equivariance(scale):
    rng = np.random.default_rng(99)
    x = rng.standard_normal((6, 10, 3)) + 0.5
    panel = cp.Panel(np.zeros((6, 10)), x)
    scaled = cp.Panel(np.zeros((6, 10)), scale * x)
    fe = cp.estimate_factors(panel, 2)
    fe_s = cp.estimate_factors(scaled, 2)
    assert_allclose(fe_s.eigenvalues, scale**2 * fe.eigenvalues, rtol=1e-9)
    assert_allclose(np.abs(fe_s.eigenvectors), np.abs(fe.eigenvectors), atol=1e-9)
    assert_allclose(fe_s.factors, scale * fe.factors * np.sign(
        np.sum(fe_s.eigenvectors * fe.eigenvectors, axis=0)), rtol=1e-8, atol=1e-8)
    p_nt = 0.37
    assert cp.estimate_rank_threshold(panel, p_nt) == cp.estimate_rank_threshold(
        scaled, p_nt * scale**2
    )


def test_rotation_of_covariates(rng):
    x = rng.standard_normal((8, 12, 3))
    panel = cp.Panel(np.zeros((8, 12)), x)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = cp.Panel(np.zeros((8, 12)), np.einsum("ab,ntb->nta", q, x))
    fe = cp.estimate_factors(panel, 2)
    fe_r = cp.estimate_factors(rotated, 2)
    assert_allclose(fe_r.eigenvalues, fe.eigenvalues, rtol=1e-9, atol=1e-12)
    # the span of the eigenvectors maps by the rotation
    mapped = q @ fe.eigenvectors
    proj = fe_r.eigenvectors @ (fe_r.eigenvectors.T @ mapped)
    assert_allclose(proj, mapped, atol=1e-8)


def test_reconstruction_identity(rng):
    x = rng.standard_normal((7, 15, 4)) + 0.3
    panel = cp.Panel(np.zeros((7, 15)), x)
    fe = cp.estimate_factors(panel, 2)
    sigma = loop_second_moment(loop_means(x))
    lhs = sigma @ fe.eigenvectors
    rhs = fe.eigenvectors @ np.diag(fe.eigenvalues[:2])
    assert np.abs(lhs - rhs).max() < 1e-10
    assert np.abs(full_rank_second_moment(panel) - sigma).max() < 1e-10
    # orthonormal columns
    assert_allclose(fe.eigenvectors.T @ fe.eigenvectors, np.eye(2), atol=1e-10)
    # eigenvalues sorted, PSD
    assert np.all(np.diff(fe.eigenvalues) <= 1e-12)
    assert np.all(fe.eigenvalues >= -1e-10)


def test_rank_rules_on_benchmark_dgp_smoke():
    hits_hat = hits_tilde = 0
    seeds = 20
    for s in range(seeds):
        draw = cp.generate(cp.DgpConfig(n_units=200, n_periods=200, seed=1000 + s))
        p_nt = cp.default_threshold(200, 200)
        hits_hat += cp.estimate_rank_threshold(draw.panel, p_nt) == 2
        hits_tilde += cp.estimate_rank_ratio(draw.panel) == 2
    assert hits_hat >= 18
    assert hits_tilde >= 18
