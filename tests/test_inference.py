import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

import ccepanel as cp
from ccepanel import InvalidInputError, PolicyPair
from ccepanel.likelihood import Family
from conftest import make_factor_estimate, make_fit

import oracles as orc


def test_bartlett_weight_examples():
    for L in (1, 2, 5):
        assert cp.bartlett_weight(0, L) == 1.0
        assert cp.bartlett_weight(L, L) == 0.0
        assert cp.bartlett_weight(-L, L) == 0.0
    assert cp.bartlett_weight(1, 3) == pytest.approx(2.0 / 3.0)
    assert cp.bartlett_weight(2, 3) == pytest.approx(1.0 / 3.0)
    assert cp.bartlett_weight(0, 0) == 1.0
    assert cp.bartlett_weight(1, 0) == 0.0
    with pytest.raises(InvalidInputError):
        cp.bartlett_weight(1, -1)


def _instance(rng, family_name, n=4, t=6, k=2, r=1, bw=1):
    y, x, f, psi, beta, lam = orc.random_panel(rng, family_name, n, t, k, r)
    panel = cp.Panel(y, x)
    fe = make_factor_estimate(f, psi=psi)
    fit = make_fit(beta, lam, fe, panel)
    family = Family(family_name)
    bias = cp.compute_beta_bias(panel, fit, fe, family, bandwidth=bw)
    return panel, fe, fit, family, bias, (y, x, f, psi, beta, lam)


@pytest.mark.parametrize("bw", [0, 1, 2, 3])
def test_beta_covariance_matches_triple_loop(bw, rng):
    panel, fe, fit, family, bias, raw = _instance(rng, "logit", bw=bw)
    y, x, f, psi, beta, lam = raw
    n, t = y.shape
    inf = cp.beta_covariance(panel, fit, fe, family, bias, bandwidth=bw)
    omega, _ = orc.omega("logit", y, x, f, psi, beta, lam, bw)
    want = np.linalg.solve(bias.Delta, np.linalg.solve(bias.Delta, omega).T).T / (n * t)
    assert_allclose(inf.covariance, want, atol=1e-10)
    assert_allclose(inf.std_errors, np.sqrt(np.diag(want).clip(0)), atol=1e-12)


@pytest.mark.parametrize("bw", [0, 2])
def test_ape_variance_matches_triple_loop(bw, rng):
    panel, fe, fit, family, bias, raw = _instance(rng, "logit", n=5, t=5, bw=bw)
    y, x, f, psi, beta, lam = raw
    pol = PolicyPair(np.array([0.1, -0.2]), np.array([0.6, 0.4]))
    ape_bias = cp.compute_ape_bias(panel, fit, fe, family, pol, bias, bandwidth=bw)
    got = cp.ape_variance(panel, fit, fe, family, bias, ape_bias, bandwidth=bw)
    want = orc.sigma2("logit", y, x, f, psi, beta, lam, pol.x0, pol.x1, bw)
    assert_allclose(got, want, atol=1e-10)


def test_negative_bandwidth_is_input_error(rng):
    panel, fe, fit, family, bias, _ = _instance(rng, "logit")
    with pytest.raises(InvalidInputError, match="bandwidth"):
        cp.beta_covariance(panel, fit, fe, family, bias, bandwidth=-3)
    pol = PolicyPair(np.array([0.1, -0.2]), np.array([0.6, 0.4]))
    ape_bias = cp.compute_ape_bias(panel, fit, fe, family, pol, bias, bandwidth=1)
    with pytest.raises(InvalidInputError, match="bandwidth"):
        cp.ape_variance(panel, fit, fe, family, bias, ape_bias, bandwidth=-3)
    with pytest.raises(InvalidInputError, match="bandwidth"):
        cp.compute_ape_bias(panel, fit, fe, family, pol, bias, bandwidth=-3)


def test_ape_variance_zero_policy(rng):
    panel, fe, fit, family, bias, _ = _instance(rng, "logit")
    pol = PolicyPair(np.array([0.4, 0.4]), np.array([0.4, 0.4]))
    ape_bias = cp.compute_ape_bias(panel, fit, fe, family, pol, bias, bandwidth=1)
    assert cp.ape_variance(panel, fit, fe, family, bias, ape_bias, 1) == 0.0


def test_covariance_properties(rng):
    panel, fe, fit, family, bias, _ = _instance(rng, "logit", n=6, t=8, bw=2)
    inf = cp.beta_covariance(panel, fit, fe, family, bias, bandwidth=2)
    assert_allclose(inf.covariance, inf.covariance.T, atol=1e-12)
    eig = np.linalg.eigvalsh(inf.covariance)
    assert eig.min() >= -1e-8 * max(np.trace(inf.covariance), 1e-30)


def test_omega_psd_under_bartlett(rng):
    from ccepanel.bias import lag_cross_sum

    for bw in (0, 1, 3):
        panel, fe, fit, family, bias, _ = _instance(rng, "logit", n=5, t=7, bw=bw)
        w = bias.influence
        omega = lag_cross_sum(w, w, bw).sum(axis=0) / w.shape[0] / w.shape[1]
        eig = np.linalg.eigvalsh(0.5 * (omega + omega.T))
        assert eig.min() >= -1e-8 * np.trace(omega)


def test_confidence_interval_examples():
    lo, hi = cp.confidence_interval(1.0, 0.0, 0.95)
    assert lo == hi == 1.0
    lo, hi = cp.confidence_interval(0.0, 1.0, 0.95)
    z = float(mpmath.sqrt(2) * mpmath.erfinv(mpmath.mpf("0.95")))
    assert_allclose([lo, hi], [-z, z], rtol=1e-12)
    assert_allclose([lo, hi], [-1.959964, 1.959964], atol=5e-7)
    lo, hi = cp.confidence_interval(2.0, 1.5, 0.5)
    assert_allclose(0.5 * (lo + hi), 2.0, rtol=1e-14)
    with pytest.raises(InvalidInputError):
        cp.confidence_interval(0.0, 1.0, 1.0)


def test_intervals_centered_on_supplied_point(rng):
    panel, fe, fit, family, bias, _ = _instance(rng, "logit")
    point = np.array([5.0, -5.0])
    inf = cp.beta_covariance(panel, fit, fe, family, bias, bandwidth=1, point=point)
    assert_allclose(0.5 * (inf.ci_lower + inf.ci_upper), point, atol=1e-12)


@pytest.mark.slow
def test_covariance_shrinks_with_sample_size():
    # doubling N roughly halves the covariance diagonal
    def avg_diag(n, reps):
        vals = []
        for s in range(reps):
            draw = cp.generate(cp.DgpConfig(n_units=n, n_periods=60, seed=4000 + s))
            fe = cp.estimate_factors(draw.panel, 2)
            fit = cp.fit_cce(draw.panel, fe, Family.LOGIT, cp.FitOptions(loading_bound=30.0))
            if not fit.converged:
                continue
            try:
                bias = cp.compute_beta_bias(draw.panel, fit, fe, Family.LOGIT, bandwidth=0)
            except cp.NumericalError:
                continue  # separated unit: skip the draw like the harness does
            inf = cp.beta_covariance(draw.panel, fit, fe, Family.LOGIT, bias, bandwidth=0)
            vals.append(np.diag(inf.covariance))
        return np.mean(vals, axis=0)

    small = avg_diag(60, 12)
    big = avg_diag(120, 12)
    ratio = big / small
    assert np.all(ratio > 0.3) and np.all(ratio < 0.7), ratio
