"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure).  The replication-grid criteria run a reduced 200-replication
mode by default (bias tolerance 0.02, SD 0.01, coverage 0.06); set
``CCEPANEL_FULL_ACCEPT=1`` for the 500-replication mode at the tight
tolerances (bias 0.015, coverage 0.04).  The serial-block cell always
runs 500 replications: its raw-coverage statistic sits close to the
tolerance boundary, so it is measured at full precision instead of being
left to replication noise (runtime stays inside the reduced budget).

Everything uses the pre-registered base seed 20260811.
"""

import dataclasses
import os
import zlib

import numpy as np
import pytest
from scipy.special import expit

import ccepanel as cp
from ccepanel import DgpConfig, FitOptions, PolicyPair
from ccepanel.likelihood import Family
from ccepanel.simulate import TRUE_RANK, replication_seed
from conftest import logit_test_panel, make_factor_estimate, make_fit

import oracles as orc

BASE_SEED = 20260811
FULL = os.environ.get("CCEPANEL_FULL_ACCEPT", "") == "1"
N_REPS = 500 if FULL else 200
TOL_BIAS = 0.015 if FULL else 0.02
TOL_SD = 0.01
TOL_COVER = 0.04 if FULL else 0.06
# the grids run on every usable CPU: replication seeds make the table the
# same for any number of workers
N_JOBS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# benchmark values: (N, T) -> estimator -> (bias, sd, coverage)
IID_TARGETS = {
    (100, 100): {"raw": (0.062, 0.056, 0.788), "abc": (0.000, 0.053, 0.974), "spj": (-0.020, 0.056, 0.932)},
    (200, 100): {"raw": (0.067, 0.040, 0.580), "abc": (0.001, 0.037, 0.966), "spj": (-0.017, 0.039, 0.912)},
    (200, 200): {"raw": (0.026, 0.026, 0.848), "abc": (-0.001, 0.025, 0.958), "spj": (-0.006, 0.026, 0.946)},
}
SERIAL_TARGETS = {
    (200, 100): {"raw": (0.067, 0.036, 0.496), "abc": (0.014, 0.034, 0.936), "spj": (-0.017, 0.035, 0.912)},
}


def _report(name: str, ok: bool, detail: str):
    print(f"[{name}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def _check_cells(table, targets, bandwidth, label):
    lines = []
    ok = True
    for (n, t), cells in targets.items():
        for est, (bias0, sd0, cov0) in cells.items():
            cell = table.cell(n, t, bandwidth, est)
            good = (
                abs(cell.bias - bias0) <= TOL_BIAS
                and abs(cell.std_error - sd0) <= TOL_SD
                and abs(cell.coverage95 - cov0) <= TOL_COVER
                and cell.n_failed <= 0.05 * (cell.n_reps + cell.n_failed)
            )
            ok &= good
            lines.append(
                f"({n},{t}) {est}: bias {cell.bias:+.4f} (target {bias0:+.3f}) "
                f"sd {cell.std_error:.4f} ({sd0:.3f}) "
                f"cover {cell.coverage95:.3f} ({cov0:.3f}) fail={cell.n_failed}"
                + ("" if good else "  <-- out of tolerance")
            )
    return ok, "\n    ".join(lines)


@pytest.mark.acceptance
def test_criterion_1_benchmark_iid_block():
    table = cp.run_grid(
        sizes=list(IID_TARGETS), serial=False, l_values=[0], n_reps=N_REPS,
        estimators=("raw", "abc", "spj"), base_seed=BASE_SEED, n_jobs=N_JOBS,
    )
    ok, detail = _check_cells(table, IID_TARGETS, 0, "iid")
    _report("criterion 1: benchmark iid block", ok, "\n    " + detail)


@pytest.mark.acceptance
def test_criterion_2_benchmark_serial_block():
    table = cp.run_grid(
        sizes=list(SERIAL_TARGETS), serial=True, l_values=[1], n_reps=500,
        estimators=("raw", "abc", "spj"), base_seed=BASE_SEED, n_jobs=N_JOBS,
    )
    ok, detail = _check_cells(table, SERIAL_TARGETS, 1, "serial")
    _report("criterion 2: benchmark serial block (L=1)", ok, "\n    " + detail)


@pytest.mark.acceptance
def test_criterion_3_poisson_bias_identity():
    # independent-error poisson panels evaluated at the true parameters:
    # the two loading-channel bias pieces cancel
    n = t = 200
    seeds = 50
    sums = []
    for s in range(seeds):
        rng = np.random.default_rng(replication_seed(BASE_SEED, n, t, False, 10_000 + s))
        f = rng.uniform(0.5, 1.5, size=(t, 2))
        x = rng.uniform(0.5, 1.5, size=(n, t, 3))
        beta = np.array([0.3, 0.2, 0.4])
        lam = rng.uniform(0.5, 1.0, size=(n, 2))
        z = x @ beta + lam @ f.T
        y = rng.poisson(z).astype(float)
        panel = cp.Panel(y, x)
        fe = make_factor_estimate(f, psi=np.linalg.qr(rng.standard_normal((3, 2)))[0])
        fit = make_fit(beta, lam, fe, panel)
        bias = cp.compute_beta_bias(panel, fit, fe, Family.POISSON, bandwidth=0)
        sums.append(bias.b1 + bias.b2)
    sums = np.array(sums)
    mean = sums.mean(axis=0)
    se = sums.std(axis=0, ddof=1) / np.sqrt(seeds)
    ok = bool(np.all(np.abs(mean) < 3 * se))
    _report(
        "criterion 3: poisson b1+b2 = 0 at truth",
        ok,
        f"mean={np.round(mean, 5)} 3se={np.round(3 * se, 5)} over {seeds} seeds",
    )


@pytest.mark.acceptance
def test_criterion_4_rank_selection():
    n = t = 200
    hits = 0
    for s in range(100):
        draw = cp.generate(DgpConfig(n_units=n, n_periods=t, seed=replication_seed(BASE_SEED, n, t, False, 20_000 + s)))
        hits += cp.estimate_rank_threshold(draw.panel, cp.default_threshold(n, t)) == TRUE_RANK
    _report("criterion 4: threshold rank rule", hits >= 95, f"correct rank in {hits}/100 seeds")


@pytest.mark.acceptance
def test_criterion_5_oracle_equivalence_suite():
    rng = np.random.default_rng(BASE_SEED)
    families = ["logit", "poisson", "gaussian"]
    checked = 0
    worst = 0.0
    for idx in range(51):
        fam_name = families[idx % 3]
        family = Family(fam_name)
        n = int(rng.integers(3, 6))
        t = int(rng.integers(4, 7))
        k = int(rng.integers(2, 4))
        r = int(rng.integers(1, min(k, 2) + 1))
        bw = int(rng.integers(0, 4))
        y, x, f, psi, beta, lam = orc.random_panel(rng, fam_name, n, t, k, r)
        panel = cp.Panel(y, x)
        fe = make_factor_estimate(f, psi=psi)
        fit = make_fit(beta, lam, fe, panel)

        diffs = [abs(cp.objective(panel, fe, family, beta, lam) - orc.objective(fam_name, y, x, f, beta, lam))]
        gb, gl = orc.score_blocks(fam_name, y, x, f, beta, lam)
        l1 = cp.index_derivative(family, y, fit.index, 1)
        diffs.append(np.abs(np.einsum("nt,ntk->k", l1, x) / (n * t) - gb).max())
        diffs.append(np.abs(l1 @ f / t - gl).max())

        bb = cp.compute_beta_bias(panel, fit, fe, family, bandwidth=bw)
        ob = orc.beta_bias(fam_name, y, x, f, psi, beta, lam, bw)
        # the first bias pieces take the information form of the score outer product
        for key, oracle_key in (("xdot", "xdot"), ("Delta", "Delta"), ("b1", "b1_info"),
                                ("b2", "b2"), ("d1", "d1"), ("d2", "d2")):
            diffs.append(np.abs(np.asarray(getattr(bb, key)) - ob[oracle_key]).max())

        if fam_name == "poisson":
            x0 = rng.uniform(0.5, 1.5, k)
            x1 = rng.uniform(0.5, 1.5, k)
        else:
            x0 = rng.standard_normal(k) * 0.5
            x1 = rng.standard_normal(k) * 0.5
        pol = PolicyPair(x0, x1)
        ab = cp.compute_ape_bias(panel, fit, fe, family, pol, bb, bandwidth=bw)
        oa = orc.ape_bias(fam_name, y, x, f, psi, beta, lam, x0, x1, bw, bb=ob)
        for key, oracle_key in (("gamma", "gamma"), ("gamma_t", "gamma_t"), ("R_t", "R_t"),
                                ("b3", "b3_info"), ("b4", "b4"), ("d3", "d3"), ("d4", "d4")):
            diffs.append(np.abs(np.asarray(getattr(ab, key)) - np.asarray(oa[oracle_key])).max())

        inf = cp.beta_covariance(panel, fit, fe, family, bb, bandwidth=bw)
        om, _ = orc.omega(fam_name, y, x, f, psi, beta, lam, bw, bb=ob)
        cov_o = np.linalg.solve(ob["Delta"], np.linalg.solve(ob["Delta"], om).T).T / (n * t)
        diffs.append(np.abs(inf.covariance - cov_o).max())
        s2 = cp.ape_variance(panel, fit, fe, family, bb, ab, bandwidth=bw)
        diffs.append(abs(s2 - orc.sigma2(fam_name, y, x, f, psi, beta, lam, x0, x1, bw)))

        worst = max(worst, max(diffs))
        checked += 1
    ok = worst < 1e-10 and checked >= 50
    _report("criterion 5: oracle equivalence", ok, f"{checked} instances, worst |diff| = {worst:.2e}")


@pytest.mark.acceptance
def test_criterion_6_derivative_suite():
    worst = 0.0
    h = 6e-6
    for family in Family:
        rng = np.random.default_rng(BASE_SEED + zlib.crc32(family.value.encode()) % 1000)
        if family is Family.POISSON:
            z = rng.uniform(0.3, 5.0, 1000)
            y = rng.integers(0, 10, 1000).astype(float)
        elif family is Family.GAUSSIAN:
            z = rng.uniform(-5, 5, 1000)
            y = z + rng.standard_normal(1000)
        else:
            z = rng.uniform(-6, 6, 1000)
            y = rng.integers(0, 2, 1000).astype(float)
        for order in (1, 2, 3, 4):
            low = cp.log_density(family, y, z - h) if order == 1 else cp.index_derivative(family, y, z - h, order - 1)
            high = cp.log_density(family, y, z + h) if order == 1 else cp.index_derivative(family, y, z + h, order - 1)
            fd = (high - low) / (2 * h)
            an = cp.index_derivative(family, y, z, order)
            worst = max(worst, float(np.max(np.abs(an - fd) / (1 + np.abs(an)))))

        # policy-effect derivatives over 1000 interactive-effect values
        k = 3
        if family is Family.POISSON:
            beta = rng.uniform(0.1, 0.3, k)
            pol = PolicyPair(rng.uniform(0.5, 1.5, k), rng.uniform(0.5, 1.5, k))
            c = rng.uniform(0.5, 2.0, 1000)
        else:
            beta = rng.standard_normal(k) * 0.5
            pol = PolicyPair(rng.standard_normal(k), rng.standard_normal(k))
            c = rng.uniform(-3, 3, 1000)
        from ccepanel.ape import policy_grid

        d_c, d_cc, _ = policy_grid(family, beta, c, pol)
        pe = lambda cc: np.array([cp.partial_effect(family, beta, ci, pol) for ci in cc])
        fd_c = (pe(c + h) - pe(c - h)) / (2 * h)
        worst = max(worst, float(np.max(np.abs(d_c - fd_c) / (1 + np.abs(d_c)))))
        dcp = policy_grid(family, beta, c + h, pol)[0]
        dcm = policy_grid(family, beta, c - h, pol)[0]
        worst = max(worst, float(np.max(np.abs(d_cc - (dcp - dcm) / (2 * h)) / (1 + np.abs(d_cc)))))

    # optimizer gradient: finite differences of the average log likelihood
    rng = np.random.default_rng(BASE_SEED)
    checks = 0
    while checks < 1000:
        panel = logit_test_panel(rng, n=5, t=6, k=2)
        fe = cp.estimate_factors(panel, 1)
        beta = rng.standard_normal(2) * 0.3
        lam = rng.standard_normal((5, 1)) * 0.3
        gb, gl = orc.score_blocks("logit", panel.outcomes, panel.covariates, fe.factors, beta, lam)
        hh = 5e-7
        for j in range(2):
            e = np.zeros(2)
            e[j] = hh
            fd = (cp.objective(panel, fe, Family.LOGIT, beta + e, lam)
                  - cp.objective(panel, fe, Family.LOGIT, beta - e, lam)) / (2 * hh)
            worst = max(worst, abs(fd - gb[j]) / (1 + abs(gb[j])))
            checks += 1
        for i in range(5):
            lp, lm = lam.copy(), lam.copy()
            lp[i, 0] += hh
            lm[i, 0] -= hh
            fd = (cp.objective(panel, fe, Family.LOGIT, beta, lp)
                  - cp.objective(panel, fe, Family.LOGIT, beta, lm)) / (2 * hh)
            worst = max(worst, abs(fd * 5 - gl[i, 0]) / (1 + abs(gl[i, 0])))
            checks += 1
    ok = worst < 1e-6
    _report("criterion 6: derivative suite", ok, f"worst relative error {worst:.2e}")


@pytest.mark.acceptance
def test_criterion_7_identity_suite():
    msgs = []
    ok = True

    # split-panel jackknife combination is exact arithmetic
    rng = np.random.default_rng(BASE_SEED)
    vals = rng.standard_normal((40, 5))
    exact = all(
        cp.spj_combine(v[0], (v[1], v[2]), (v[3], v[4]))
        == 3.0 * v[0] - 0.5 * (v[1] + v[2]) - 0.5 * (v[3] + v[4])
        for v in vals
    )
    ok &= exact
    msgs.append(f"spj combination exact: {exact}")

    # Bartlett kernel values
    kernel_ok = (
        cp.bartlett_weight(0, 0) == 1.0
        and cp.bartlett_weight(1, 0) == 0.0
        and cp.bartlett_weight(0, 4) == 1.0
        and cp.bartlett_weight(4, 4) == 0.0
        and cp.bartlett_weight(1, 3) == pytest.approx(2 / 3)
        and cp.bartlett_weight(-2, 3) == pytest.approx(1 / 3)
    )
    ok &= kernel_ok
    msgs.append(f"bartlett kernel exact: {kernel_ok}")

    # rotation invariance of coefficients, fitted index, and APE
    rng = np.random.default_rng(8)
    panel = logit_test_panel(rng, n=20, t=16, k=3)
    fe = cp.estimate_factors(panel, 2)
    opts = FitOptions(grad_tolerance=1e-11)
    fit = cp.fit_cce(panel, fe, Family.LOGIT, opts)
    m = np.array([[0.7, -0.5], [0.3, 1.2]])
    fe_rot = dataclasses.replace(fe, factors=fe.factors @ m)
    fit_rot = cp.fit_cce(panel, fe_rot, Family.LOGIT, opts)
    pol = PolicyPair(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    ape_a = cp.ape_estimate(fit, fe, Family.LOGIT, pol).value
    ape_b = cp.ape_estimate(fit_rot, fe_rot, Family.LOGIT, pol).value
    rot_ok = (
        np.abs(fit.beta - fit_rot.beta).max() < 1e-6
        and np.abs(fit.index - fit_rot.index).max() < 1e-6
        and abs(ape_a - ape_b) < 1e-6
    )
    ok &= rot_ok
    msgs.append(
        f"rotation invariance: {rot_ok} (beta {np.abs(fit.beta - fit_rot.beta).max():.1e}, "
        f"index {np.abs(fit.index - fit_rot.index).max():.1e}, ape {abs(ape_a - ape_b):.1e})"
    )

    # APE antisymmetry under policy swap is exact
    anti = cp.ape_estimate(fit, fe, Family.LOGIT, PolicyPair(pol.x1, pol.x0)).value == -ape_a
    ok &= anti
    msgs.append(f"ape antisymmetry exact: {anti}")

    _report("criterion 7: identity suite", ok, "; ".join(msgs))


@pytest.mark.acceptance
def test_criterion_8_information_identities_at_truth():
    # (a) per-unit score outer product vs negative curvature blocks, in the
    # cross-sectional average, on logit panels at the true parameters
    rng = np.random.default_rng(BASE_SEED)
    n, t, r = 300, 80, 1
    f = rng.standard_normal((t, r)) + 1.0
    lam = rng.standard_normal((n, r)) * 0.8
    x = rng.standard_normal((n, t, 2))
    beta = np.array([0.6, -0.4])
    z = x @ beta + lam @ f.T
    y = (rng.uniform(size=(n, t)) < expit(z)).astype(float)
    panel = cp.Panel(y, x)
    fe = make_factor_estimate(f, k=2)
    fit = make_fit(beta, lam, fe, panel)
    bias = cp.compute_beta_bias(panel, fit, fe, Family.LOGIT, bandwidth=0)
    q_i = np.einsum("nt,tr,ts->nrs", bias.l1**2, f, f) / t
    a_i = np.einsum("nt,tr,ts->nrs", bias.l2, f, f) / t
    resid = q_i + a_i  # per-unit, should average to zero
    mean = resid.mean(axis=0)
    se = resid.std(axis=0, ddof=1) / np.sqrt(n)
    q_ok = bool(np.all(np.abs(mean) < 3 * se))

    # (b) observed-factor reduction: the influence variance equals the
    # negative curvature.  Gaussian outcomes with noise sd sqrt(1/2) make
    # the quasi-likelihood -(y-z)^2 an exact log density.
    rng = np.random.default_rng(BASE_SEED + 1)
    f = rng.standard_normal((t, r)) + 0.5
    lam_g = rng.standard_normal((n, r))
    x = rng.standard_normal((n, t, 2))
    y = x @ beta + lam_g @ f.T + rng.normal(0.0, np.sqrt(0.5), size=(n, t))
    panel = cp.Panel(y, x)
    fe = make_factor_estimate(f, k=2)
    fit = make_fit(beta, lam_g, fe, panel)
    bias = cp.compute_beta_bias(panel, fit, fe, Family.GAUSSIAN, bandwidth=0)
    # with the factors treated as observed the influence score drops the
    # covariate-idiosyncrasy channel: w = l1 * xdot
    w = bias.l1[:, :, None] * bias.xdot
    per_unit = (
        np.einsum("ntk,ntl->nkl", w, w) / t
        + np.einsum("nt,ntk,ntl->nkl", bias.l2, bias.xdot, bias.xdot) / t
    )
    mean = per_unit.mean(axis=0)
    se = per_unit.std(axis=0, ddof=1) / np.sqrt(n)
    o_ok = bool(np.all(np.abs(mean) < 3 * se))

    _report(
        "criterion 8: information identities at truth",
        q_ok and o_ok,
        f"score-vs-curvature blocks: {q_ok}; observed-factor variance reduction: {o_ok}",
    )
