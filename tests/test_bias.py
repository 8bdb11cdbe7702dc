import dataclasses
import zlib

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import ccepanel as cp
from ccepanel import InvalidInputError, NumericalError, PolicyPair
from ccepanel.ape import policy_grid
from ccepanel.bias import lag_cross_sum
from ccepanel.likelihood import Family
from conftest import assert_einsum, draw_panel_shapes, make_factor_estimate, make_fit

import oracles as orc

# record field -> oracle key; the first bias pieces take the information
# form of the score outer product
BETA_FIELDS = {
    "xdot": "xdot", "Delta": "Delta", "b1": "b1_info", "b2": "b2", "d1": "d1", "d2": "d2",
    "influence": "influence", "l1": "l1", "l2": "l2", "l3": "l3", "A_inv": "A_inv",
}
APE_FIELDS = {
    "gamma": "gamma", "gamma_t": "gamma_t", "R_t": "R_t", "b3": "b3_info", "b4": "b4",
    "d3": "d3", "d4": "d4",
}


def _random_instance(rng, family_name):
    n = int(rng.integers(3, 6))
    t = int(rng.integers(4, 7))
    k = int(rng.integers(2, 4))
    r = int(rng.integers(1, min(k, 2) + 1))
    bw = int(rng.integers(0, 4))
    y, x, f, psi, beta, lam = orc.random_panel(rng, family_name, n, t, k, r)
    panel = cp.Panel(y, x)
    fe = make_factor_estimate(f, psi=psi)
    fit = make_fit(beta, lam, fe, panel)
    return panel, fe, fit, (y, x, f, psi, beta, lam), bw


def _random_policy(rng, family_name, k):
    if family_name == "poisson":
        x0 = rng.uniform(0.5, 1.5, k)
        x1 = rng.uniform(0.5, 1.5, k)
    else:
        x0 = rng.standard_normal(k) * 0.5
        x1 = rng.standard_normal(k) * 0.5
    return PolicyPair(x0, x1)


def _oracle_degenerate(family_name, raw):
    """Whether the loop oracle's per-unit information blocks A_i (each
    against the largest across the panel, as the package measures them) or
    its curvature matrix Delta have condition number above 1e10."""
    y, x, f, psi, beta, lam = raw
    with np.errstate(all="ignore"):
        try:
            ob = orc.beta_bias(family_name, y, x, f, psi, beta, lam, 0)
        except np.linalg.LinAlgError:
            return True  # the oracle cannot even invert its blocks
    sv = np.linalg.svd(ob["A_i"], compute_uv=False)
    cond_a = sv.max() / np.maximum(sv.min(axis=-1), np.finfo(float).tiny)
    return bool(cond_a.max() > 1e10 or not np.linalg.cond(ob["Delta"]) <= 1e10)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bias_plug_ins_match_their_einsum_definitions(data):
    # every plug-in sum written as a GEMM, against its plain einsum from the
    # record's own inputs (the loop oracle above checks the formulas)
    n, t, k, r, rng = draw_panel_shapes(data)
    # at T <= r the covariates lie in the factor space, so xdot and e_hat
    # are rounding noise and relative comparisons say nothing
    r = min(r, k)
    n, t = max(n, 2), max(t, r + 2)
    y, x, f, psi, beta, lam = orc.random_panel(rng, "logit", n, t, k, r)
    panel, fe = cp.Panel(y, x), make_factor_estimate(f, psi=psi)
    fit = make_fit(beta, lam, fe, panel)
    policy = PolicyPair(np.zeros(k), np.eye(k)[0])
    try:
        bb = cp.compute_beta_bias(panel, fit, fe, Family.LOGIT, bandwidth=1)
        ab = cp.compute_ape_bias(panel, fit, fe, Family.LOGIT, policy, bb, bandwidth=1)
    except NumericalError:
        reject()  # too few periods for the per-unit information blocks
    l2, l3, xdot, a_inv = bb.l2, bb.l3, bb.xdot, bb.A_inv
    assert_einsum(bb.BA_inv, "nt,ntk,tr,nrs->nks", l2, x, f, a_inv / t)
    assert_einsum(bb.Delta, "nt,ntk,ntl->kl", l2, xdot, xdot / (n * t))
    assert_einsum(bb.quad_AQA, "tr,nrq,tq->nt", f, -a_inv, f)
    assert_einsum(bb.P_t, "ntr,ntq->trq", bb.e_rot, bb.e_rot)
    c_t = np.einsum("nt,ntk,nr->tkr", l2, xdot, lam) / n
    want = bb.l1[..., None] * xdot + np.einsum("tkr,ntr->ntk", c_t, bb.e_rot)
    assert_allclose(bb.influence, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    d_tj = np.einsum("nt,nr,njq->tjrq", l2, lam, bb.BA_inv) / n
    g_tj = np.einsum("nt,ntj,nr,nq->tjrq", l3, xdot, lam, lam) / n
    assert_einsum(bb.d2, "trq,tjrq->j", bb.P_t, (d_tj - 0.5 * g_tj) / (n * t))

    d_c, d_cc, _ = policy_grid(Family.LOGIT, beta, lam @ f.T, policy)
    u = np.einsum("nrs,ns->nr", a_inv, np.einsum("nt,tr->nr", d_c, f) / t)
    assert_einsum(ab.R_t, "nt,nr,nq->trq", l2, lam, u / n)
    w_t = np.einsum("nt,nr,nq->trq", 0.5 * d_cc - 0.5 * l3 * ab.proj_if, lam, lam) / n
    assert_einsum(ab.d4, "trq,trq->", w_t - ab.R_t, bb.P_t / (n * t))


@pytest.mark.parametrize("family_name", ["logit", "poisson", "gaussian"])
def test_bias_components_match_loop_oracle(family_name):
    # a stable seed: str hashes are randomized per process.  Small poisson
    # draws are sometimes degenerate (a unit with fewer positive counts than
    # factors, or a near-singular Delta); the package must refuse exactly
    # those, and drawing continues until six instances have been compared.
    rng = np.random.default_rng(zlib.crc32(family_name.encode()))
    family = Family(family_name)
    compared = 0
    for _ in range(60):
        if compared == 6:
            break
        panel, fe, fit, raw, bw = _random_instance(rng, family_name)
        y, x, f, psi, beta, lam = raw
        try:
            bb = cp.compute_beta_bias(panel, fit, fe, family, bandwidth=bw)
        except NumericalError as exc:
            assert _oracle_degenerate(family_name, raw), f"{family_name}: {exc}"
            continue
        compared += 1
        ob = orc.beta_bias(family_name, y, x, f, psi, beta, lam, bw)
        ob["influence"] = orc.omega(family_name, y, x, f, psi, beta, lam, bw, bb=ob)[1]
        for key, oracle_key in BETA_FIELDS.items():
            assert_allclose(
                np.asarray(getattr(bb, key)), ob[oracle_key], atol=1e-10,
                err_msg=f"{family_name} L={bw} field {key}",
            )
        pol = _random_policy(rng, family_name, x.shape[2])
        ab = cp.compute_ape_bias(panel, fit, fe, family, pol, bb, bandwidth=bw)
        oa = orc.ape_bias(family_name, y, x, f, psi, beta, lam, pol.x0, pol.x1, bw, bb=ob)
        for key, oracle_key in APE_FIELDS.items():
            assert_allclose(
                np.asarray(getattr(ab, key)), np.asarray(oa[oracle_key]), atol=1e-10,
                err_msg=f"{family_name} L={bw} ape field {key}",
            )
    assert compared == 6


def test_lag_cross_sum_matches_double_loop(rng):
    n, t, p, q = 3, 5, 2, 3
    a = rng.standard_normal((n, t, p))
    b = rng.standard_normal((n, t, q))
    for bw in range(t + 3):  # includes bandwidths at and beyond T
        want = np.zeros((n, p, q))
        for i in range(n):
            for s in range(t):
                for u in range(t):
                    want[i] += orc.bartlett(s - u, bw) * np.outer(a[i, s], b[i, u])
        assert_allclose(lag_cross_sum(a, b, bw), want, atol=1e-12, err_msg=f"L={bw}")
    # the weight at the bandwidth itself is zero
    assert_allclose(lag_cross_sum(a, b, 1), lag_cross_sum(a, b, 0), atol=0)
    with pytest.raises(InvalidInputError):
        lag_cross_sum(a, b, -1)


def test_beta_bias_input_errors_come_first(rng):
    panel, fe, fit, _, _ = _random_instance(rng, "logit")
    bad = make_fit(fit.beta, np.full_like(fit.loadings, 600.0), fe, panel)
    # a degenerate fit would raise NumericalError, so these must raise earlier
    with pytest.raises(InvalidInputError, match="bandwidth"):
        cp.compute_beta_bias(panel, bad, fe, Family.LOGIT, bandwidth=-1)


def test_beta_bias_rejects_outcomes_outside_the_family_domain(rng):
    panel, fe, fit, _, _ = _random_instance(rng, "logit")
    y = panel.outcomes.copy()
    y[1, 2] = 0.5
    with pytest.raises(InvalidInputError, match="0, 1"):
        cp.compute_beta_bias(cp.Panel(y, panel.covariates), fit, fe, Family.LOGIT)
    # poisson cells need non-negative integer outcomes
    with pytest.raises(InvalidInputError, match="integer"):
        cp.compute_beta_bias(cp.Panel(y, panel.covariates), fit, fe, Family.POISSON)


def test_beta_bias_rejects_an_index_of_another_shape(rng):
    panel, fe, fit, _, _ = _random_instance(rng, "logit")
    short = dataclasses.replace(fit, index=fit.index[:, 1:])
    with pytest.raises(InvalidInputError, match="shape"):
        cp.compute_beta_bias(panel, short, fe, Family.LOGIT)


def test_correct_beta_identities(rng):
    panel, fe, fit, raw, bw = _random_instance(rng, "gaussian")
    n, t = panel.n_units, panel.n_periods
    bb = cp.compute_beta_bias(panel, fit, fe, Family.GAUSSIAN, bandwidth=bw)
    # zero bias pieces leave the estimate unchanged
    bb.b1[:] = 0; bb.b2[:] = 0; bb.d1[:] = 0; bb.d2[:] = 0
    assert_allclose(cp.correct_beta(fit, bb, n, t), fit.beta, atol=1e-14)
    # with Delta = -I the correction adds the combined bias pieces
    k = panel.n_covariates
    v = rng.standard_normal(k)
    bb.b1[:] = v * t; bb.b2[:] = 0; bb.d1[:] = 0; bb.d2[:] = 0
    bb.Delta = -np.eye(k)
    assert_allclose(cp.correct_beta(fit, bb, n, t), fit.beta + v, atol=1e-12)


def test_ape_bias_zero_policy(rng):
    panel, fe, fit, raw, bw = _random_instance(rng, "logit")
    pol = PolicyPair(np.full(panel.n_covariates, 0.3), np.full(panel.n_covariates, 0.3))
    bb = cp.compute_beta_bias(panel, fit, fe, Family.LOGIT, bandwidth=bw)
    ab = cp.compute_ape_bias(panel, fit, fe, Family.LOGIT, pol, bb, bandwidth=bw)
    assert_allclose(ab.gamma, 0.0, atol=1e-15)
    assert ab.b3 == 0.0 and ab.b4 == 0.0 and ab.d3 == 0.0 and ab.d4 == 0.0
    ape = cp.ape_estimate(fit, fe, Family.LOGIT, pol)
    assert cp.correct_ape(ape, bb, ab, panel.n_units, panel.n_periods) == 0.0


def test_gaussian_ape_bias_degenerates(rng):
    # linear response: d_cc = 0 and l3 = 0, so b3 vanishes without any
    # special-casing
    panel, fe, fit, raw, bw = _random_instance(rng, "gaussian")
    pol = _random_policy(rng, "gaussian", panel.n_covariates)
    bb = cp.compute_beta_bias(panel, fit, fe, Family.GAUSSIAN, bandwidth=bw)
    ab = cp.compute_ape_bias(panel, fit, fe, Family.GAUSSIAN, pol, bb, bandwidth=bw)
    assert ab.b3 == 0.0


def test_correct_ape_sign_flip(rng):
    panel, fe, fit, raw, bw = _random_instance(rng, "logit")
    n, t = panel.n_units, panel.n_periods
    pol = _random_policy(rng, "logit", panel.n_covariates)
    bb = cp.compute_beta_bias(panel, fit, fe, Family.LOGIT, bandwidth=bw)
    ab = cp.compute_ape_bias(panel, fit, fe, Family.LOGIT, pol, bb, bandwidth=bw)
    ape = cp.ape_estimate(fit, fe, Family.LOGIT, pol)
    swapped = PolicyPair(pol.x1, pol.x0)
    abs_ = cp.compute_ape_bias(panel, fit, fe, Family.LOGIT, swapped, bb, bandwidth=bw)
    ape_s = cp.ape_estimate(fit, fe, Family.LOGIT, swapped)
    corrected = cp.correct_ape(ape, bb, ab, n, t)
    corrected_s = cp.correct_ape(ape_s, bb, abs_, n, t)
    assert_allclose(corrected_s, -corrected, atol=1e-14)


def test_residual_orthogonality(rng):
    panel, fe, fit, raw, bw = _random_instance(rng, "logit")
    bb = cp.compute_beta_bias(panel, fit, fe, Family.LOGIT, bandwidth=bw)
    # least-squares identity: factor-weighted residual sums vanish per
    # unit, so they vanish for the rotated residuals e_rot = Upsilon e_hat too
    cross = np.einsum("tr,ntq->nrq", fe.factors, bb.e_rot)
    assert np.abs(cross).max() < 1e-8


def test_structure_of_components(rng):
    panel, fe, fit, raw, _ = _random_instance(rng, "logit")
    bb = cp.compute_beta_bias(panel, fit, fe, Family.LOGIT, bandwidth=2)
    assert_allclose(bb.Delta, bb.Delta.T, atol=1e-10)
    # logit curvature is strictly negative: Delta is negative definite
    assert np.all(np.linalg.eigvalsh(bb.Delta) < 0)


def test_singular_unit_information_raises(rng):
    # saturated loadings wipe out a unit's curvature in the factor directions
    panel, fe, fit, raw, _ = _random_instance(rng, "logit")
    lam = fit.loadings.copy()
    lam[1] = 600.0
    bad = make_fit(fit.beta, lam, fe, panel)
    with pytest.raises(NumericalError, match="unit 1"):
        cp.compute_beta_bias(panel, bad, fe, Family.LOGIT, bandwidth=1)


def test_bandwidth_insensitivity_under_independence():
    # with serially independent data the lagged score products are mean
    # zero, so the second bias piece is bandwidth-insensitive on average
    seeds = 8
    diffs = {1: [], 2: [], 3: []}
    for s in range(seeds):
        rng = np.random.default_rng(700 + s)
        y, x, f, psi, beta, lam = orc.random_panel(rng, "logit", 40, 120, 2, 1)
        panel = cp.Panel(y, x)
        fe = make_factor_estimate(f, psi=psi)
        fit = make_fit(beta, lam, fe, panel)
        b2 = {}
        for bw in (0, 1, 2, 3):
            b2[bw] = cp.compute_beta_bias(panel, fit, fe, Family.LOGIT, bandwidth=bw).b2
        for bw in (1, 2, 3):
            diffs[bw].append(b2[bw] - b2[0])
    for bw in (1, 2, 3):
        arr = np.array(diffs[bw])
        mean = arr.mean(axis=0)
        se = arr.std(axis=0, ddof=1) / np.sqrt(seeds)
        assert np.all(np.abs(mean) <= 4 * se + 1e-12), f"L={bw}: {mean} vs {se}"
