import dataclasses

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

import ccepanel as cp
from ccepanel import InvalidInputError, PolicyPair
from ccepanel.ape import policy_grid
from ccepanel.likelihood import Family
from conftest import logit_test_panel, make_factor_estimate, make_fit

import oracles as orc


def test_policy_pair_validation():
    with pytest.raises(InvalidInputError):
        PolicyPair(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(InvalidInputError):
        PolicyPair(np.array([np.inf]), np.array([1.0]))


def test_partial_effect_identical_points():
    pol = PolicyPair(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
    # distinct x but equal indices under beta = (1, 1)
    assert cp.partial_effect(Family.LOGIT, np.array([1.0, 1.0]), 0.0, pol) == 0.0


def test_partial_effect_cdf_limit():
    pol = PolicyPair(np.array([0.0]), np.array([500.0]))
    beta = np.array([1.0])
    val = cp.partial_effect(Family.LOGIT, beta, 0.0, pol)
    assert_allclose(val, 0.5, atol=1e-12)


def test_partial_effect_probit_value():
    pol = PolicyPair(np.array([-1.0]), np.array([1.0]))
    got = cp.partial_effect(Family.PROBIT, np.array([1.0]), 0.0, pol)
    expected = float(mpmath.ncdf(1) - mpmath.ncdf(-1))
    assert_allclose(got, expected, rtol=1e-12)
    assert_allclose(got, 0.682689, atol=5e-7)


def test_partial_effect_derivs_zero_policy():
    pol = PolicyPair(np.array([0.7, -0.3]), np.array([0.7, -0.3]))
    d_c, d_cc, d_beta = policy_grid(Family.PROBIT, np.array([0.5, 0.5]), 0.4, pol)
    assert_allclose(d_beta, 0.0, atol=1e-15)
    assert d_c == 0.0 and d_cc == 0.0


def test_partial_effect_derivs_logit_at_zero():
    # equal indices at zero: d_c and d_cc vanish, d_beta = g(0) (x1 - x0)
    x0 = np.array([2.0, 0.0])
    x1 = np.array([0.0, 2.0])
    beta = np.array([0.5, 0.5])  # both indices 1 - 1 = 0 at c = -1
    pol = PolicyPair(x0, x1)
    d_c, d_cc, d_beta = policy_grid(Family.LOGIT, beta, -1.0, pol)
    assert_allclose(d_c, 0.0, atol=1e-15)
    assert_allclose(d_cc, 0.0, atol=1e-15)
    assert_allclose(d_beta, 0.25 * (x1 - x0), atol=1e-15)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_partial_effect_derivs_match_finite_differences(family):
    rng = np.random.default_rng(5)
    k = 3
    for _ in range(40):
        if family is Family.POISSON:
            beta = rng.uniform(0.1, 0.4, k)
            x0 = rng.uniform(0.5, 1.5, k)
            x1 = rng.uniform(0.5, 1.5, k)
            c = rng.uniform(0.5, 2.0)
        else:
            beta = rng.standard_normal(k)
            x0 = rng.standard_normal(k)
            x1 = rng.standard_normal(k)
            c = rng.standard_normal()
        pol = PolicyPair(x0, x1)
        d_c, d_cc, d_beta = policy_grid(family, beta, c, pol)
        h = 1e-6
        fd_c = (
            cp.partial_effect(family, beta, c + h, pol)
            - cp.partial_effect(family, beta, c - h, pol)
        ) / (2 * h)
        assert abs(d_c - fd_c) / (1 + abs(d_c)) < 1e-6
        fd_cc = (
            policy_grid(family, beta, c + h, pol)[0]
            - policy_grid(family, beta, c - h, pol)[0]
        ) / (2 * h)
        assert abs(d_cc - fd_cc) / (1 + abs(d_cc)) < 1e-6
        for j in range(k):
            e = np.zeros(k)
            e[j] = h
            fd_b = (
                cp.partial_effect(family, beta + e, c, pol)
                - cp.partial_effect(family, beta - e, c, pol)
            ) / (2 * h)
            assert abs(d_beta[j] - fd_b) / (1 + abs(d_beta[j])) < 1e-6


def test_gaussian_partial_effect_degenerates():
    pol = PolicyPair(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
    beta = np.array([0.5, -0.25])
    for c in (-3.0, 0.0, 7.0):
        assert_allclose(
            cp.partial_effect(Family.GAUSSIAN, beta, c, pol),
            beta @ (pol.x1 - pol.x0),
            rtol=1e-12,
        )
        d_c, d_cc, d_beta = policy_grid(Family.GAUSSIAN, beta, c, pol)
        assert d_c == 0.0 and d_cc == 0.0
        assert_allclose(d_beta, pol.x1 - pol.x0, rtol=1e-12)


def test_ape_constant_interactive_effect(rng):
    panel = logit_test_panel(rng, n=5, t=6, k=2)
    f = np.full((6, 1), 2.0)
    fe = make_factor_estimate(f, k=2)
    lam = np.full((5, 1), 0.35)
    fit = make_fit(np.array([0.4, -0.2]), lam, fe, panel)
    pol = PolicyPair(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    got = cp.ape_estimate(fit, fe, Family.LOGIT, pol)
    single = cp.partial_effect(Family.LOGIT, fit.beta, 0.7, pol)
    assert_allclose(got.value, single, rtol=1e-12)


def test_ape_zero_policy(rng):
    panel = logit_test_panel(rng, n=6, t=5, k=2)
    fe = make_factor_estimate(rng.standard_normal((5, 1)), k=2)
    fit = make_fit(np.array([0.1, 0.2]), rng.standard_normal((6, 1)), fe, panel)
    pol = PolicyPair(np.array([1.0, -1.0]), np.array([1.0, -1.0]))
    assert cp.ape_estimate(fit, fe, Family.LOGIT, pol).value == 0.0


def test_ape_matches_loop_oracle(rng):
    y, x, f, psi, beta, lam = orc.random_panel(rng, "logit", 4, 5, 2, 1)
    panel = cp.Panel(y, x)
    fe = make_factor_estimate(f, psi=psi)
    fit = make_fit(beta, lam, fe, panel)
    pol = PolicyPair(rng.standard_normal(2), rng.standard_normal(2))
    got = cp.ape_estimate(fit, fe, Family.LOGIT, pol).value
    want = 0.0
    for i in range(4):
        for t in range(5):
            c = float(lam[i] @ f[t])
            want += (
                orc.response_curve("logit", beta @ pol.x1 + c, 0)
                - orc.response_curve("logit", beta @ pol.x0 + c, 0)
            ) / 20.0
    assert_allclose(got, want, atol=1e-12)


def test_ape_antisymmetry_exact(rng):
    panel = logit_test_panel(rng, n=8, t=7, k=2)
    fe = cp.estimate_factors(panel, 1)
    fit = cp.fit_cce(panel, fe, Family.LOGIT)
    pol = PolicyPair(np.array([0.0, 0.5]), np.array([1.0, -0.5]))
    a = cp.ape_estimate(fit, fe, Family.LOGIT, pol).value
    b = cp.ape_estimate(fit, fe, Family.LOGIT, PolicyPair(pol.x1, pol.x0)).value
    assert a == -b  # exact antisymmetry


def test_ape_bounded_for_binary(rng):
    panel = logit_test_panel(rng, n=10, t=8, k=2)
    fe = cp.estimate_factors(panel, 1)
    fit = cp.fit_cce(panel, fe, Family.LOGIT)
    pol = PolicyPair(np.array([-40.0, 0.0]), np.array([40.0, 0.0]))
    val = cp.ape_estimate(fit, fe, Family.LOGIT, pol).value
    assert -1.0 <= val <= 1.0


def test_ape_rotation_invariance(rng):
    # the estimate depends on loadings and factors only through their product
    panel = logit_test_panel(rng, n=9, t=8, k=2)
    fe = make_factor_estimate(rng.standard_normal((8, 2)), k=2)
    lam = rng.standard_normal((9, 2))
    fit = make_fit(np.array([0.3, -0.1]), lam, fe, panel)
    m = np.array([[0.9, 0.4], [-0.2, 1.1]])
    fe_rot = dataclasses.replace(fe, factors=fe.factors @ m)
    fit_rot = make_fit(fit.beta, lam @ np.linalg.inv(m).T, fe_rot, panel)
    pol = PolicyPair(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    a = cp.ape_estimate(fit, fe, Family.LOGIT, pol).value
    b = cp.ape_estimate(fit_rot, fe_rot, Family.LOGIT, pol).value
    assert_allclose(a, b, atol=1e-12)


def test_ape_non_positive_poisson_index_names_the_cell():
    # c = lambda_i f_t is -1 at unit 2, period 3, so beta'x0 + c = -0.5 there
    fe = make_factor_estimate(np.array([[1.0], [1.0], [1.0], [-1.0]]))
    fit = make_fit(np.array([1.0]), np.array([[0.2], [0.2], [1.0]]), fe)
    pol = PolicyPair(np.array([0.5]), np.array([1.0]))
    with pytest.raises(InvalidInputError, match="positive.*unit 2, period 3"):
        cp.ape_estimate(fit, fe, Family.POISSON, pol)
