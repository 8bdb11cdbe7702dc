import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit

import ccepanel as cp
from ccepanel import DgpConfig, InvalidInputError
from ccepanel.simulate import TRUE_BETA, McCell, replication_seed


def pooled_lag1_autocorr(series):
    """Pooled lag-1 autocorrelation over an (N, T) array."""
    a = series[:, :-1].ravel()
    b = series[:, 1:].ravel()
    a = a - a.mean()
    b = b - b.mean()
    return float(a @ b / np.sqrt((a @ a) * (b @ b)))


def test_generate_is_deterministic():
    cfg = DgpConfig(n_units=20, n_periods=15, serial=True, seed=77)
    d1 = cp.generate(cfg)
    d2 = cp.generate(cfg)
    assert np.array_equal(d1.panel.outcomes, d2.panel.outcomes)
    assert np.array_equal(d1.panel.covariates, d2.panel.covariates)
    assert np.array_equal(d1.true_index, d2.true_index)


def test_generate_config_validation():
    with pytest.raises(InvalidInputError):
        DgpConfig(n_units=3, n_periods=10)


def test_outcomes_are_binary_and_shapes():
    draw = cp.generate(DgpConfig(n_units=30, n_periods=25, seed=5))
    assert set(np.unique(draw.panel.outcomes)) <= {0.0, 1.0}
    assert draw.panel.covariates.shape == (30, 25, 4)
    assert_allclose(TRUE_BETA, np.ones(4))


def test_iid_noise_has_no_serial_correlation():
    draw = cp.generate(DgpConfig(n_units=200, n_periods=200, serial=False, seed=31))
    e3 = draw.panel.covariates[:, :, 2] / 1.5  # third covariate is 1.5 * noise
    assert abs(pooled_lag1_autocorr(e3)) < 0.02


def test_serial_noise_autocorrelation_near_06():
    draw = cp.generate(DgpConfig(n_units=200, n_periods=200, serial=True, seed=32))
    e4 = draw.panel.covariates[:, :, 3]  # fourth covariate is the noise itself
    rho = pooled_lag1_autocorr(e4)
    assert abs(rho - 0.6) < 0.03


def test_outcome_frequency_matches_logistic_probability():
    draw = cp.generate(DgpConfig(n_units=200, n_periods=200, seed=33))
    index = draw.panel.covariates @ TRUE_BETA + draw.true_index
    implied = expit(index).mean()
    assert abs(draw.panel.outcomes.mean() - implied) < 0.01


def test_replication_seed_is_order_free():
    s1 = replication_seed(3, 100, 50, False, 7)
    s2 = replication_seed(3, 100, 50, False, 7)
    assert s1 == s2
    assert s1 != replication_seed(3, 100, 50, False, 8)
    assert s1 != replication_seed(3, 100, 50, True, 7)
    assert s1 != replication_seed(4, 100, 50, False, 7)
    assert 0 <= s1 < 2**64


def test_run_grid_single_replication_identity():
    table = cp.run_grid(
        sizes=[(40, 30)], serial=False, l_values=[0], n_reps=1,
        estimators=("raw",), base_seed=123,
    )
    cell = table.cell(40, 30, 0, "raw")
    assert cell.n_reps == 1
    # recompute the same replication by hand
    seed = replication_seed(123, 40, 30, False, 0)
    draw = cp.generate(DgpConfig(n_units=40, n_periods=30, seed=seed))
    fe = cp.estimate_factors(draw.panel, 2)
    fit = cp.fit_cce(draw.panel, fe, cp.Family.LOGIT, cp.FitOptions(loading_bound=30.0))
    assert_allclose(cell.bias, fit.beta[0] - 1.0, atol=0)


def test_run_grid_reproducible_and_parallel_invariant():
    kwargs = dict(
        sizes=[(36, 24)], serial=False, l_values=[0], n_reps=4,
        estimators=("raw", "abc"), base_seed=55,
    )
    t1 = cp.run_grid(**kwargs, n_jobs=1)
    t2 = cp.run_grid(**kwargs, n_jobs=2)
    for r1, r2 in zip(t1.rows, t2.rows):
        assert r1.estimator == r2.estimator
        assert_allclose(r1.bias, r2.bias, atol=0)
        assert_allclose(r1.coverage95, r2.coverage95, atol=0)


def test_run_grid_validates_inputs():
    with pytest.raises(InvalidInputError):
        cp.run_grid(sizes=[(10, 10)], serial=False, l_values=[0], n_reps=0)
    with pytest.raises(InvalidInputError):
        cp.run_grid(sizes=[(10, 10)], serial=False, l_values=[0], n_reps=1,
                    estimators=("raw", "magic"))
    with pytest.raises(InvalidInputError, match="bandwidth"):
        cp.run_grid(sizes=[(10, 10)], serial=False, l_values=[1, -1], n_reps=1)
    with pytest.raises(InvalidInputError, match="n_jobs"):
        cp.run_grid(sizes=[(10, 10)], serial=False, l_values=[0], n_reps=1, n_jobs=-3)
    with pytest.raises(InvalidInputError, match="no estimators"):
        cp.run_grid(sizes=[(10, 10)], serial=False, l_values=[0], n_reps=1, estimators=())


def test_mctable_csv_round_trip():
    table = cp.run_grid(
        sizes=[(36, 24)], serial=False, l_values=[0, 1], n_reps=2,
        estimators=("raw",), base_seed=9,
    )
    text = table.to_csv()
    assert text.splitlines()[0].startswith("n,t,serial,bandwidth,estimator")
    assert len(text.splitlines()) == 1 + len(table.rows)
    assert "raw" in table.to_text()


def test_cell_is_flagged_above_five_percent_failed():
    # 1 of 20 requested replications failed is 5%, not above it
    cell = McCell(20, 20, False, 0, "raw", 0.0, 0.0, 1.0, n_reps=19, n_failed=1)
    assert not cell.flagged
    cell.n_reps, cell.n_failed = 18, 2
    assert cell.flagged
    assert cp.McTable([cell]).to_csv().splitlines()[1].endswith(",18,2,1")


def test_spj_records_satisfy_combination_identity():
    # run a tiny grid and recompute the jackknife combination by hand
    from ccepanel.jackknife import split_half_panels, spj_combine

    n, t, base = 40, 30, 77
    table = cp.run_grid(sizes=[(n, t)], serial=False, l_values=[0], n_reps=2,
                        estimators=("raw", "spj"), base_seed=base)
    raw_cell = table.cell(n, t, 0, "raw")
    spj_cell = table.cell(n, t, 0, "spj")
    opts = cp.FitOptions(loading_bound=30.0)
    errs_raw, errs_spj = [], []
    for rep in range(2):
        seed = replication_seed(base, n, t, False, rep)
        draw = cp.generate(DgpConfig(n_units=n, n_periods=t, seed=seed))
        fe = cp.estimate_factors(draw.panel, 2)
        fit = cp.fit_cce(draw.panel, fe, cp.Family.LOGIT, opts)
        halves = []
        (h1, h2), (h3, h4) = split_half_panels(draw.panel)
        for sub in (h1, h2, h3, h4):
            sfe = cp.estimate_factors(sub, 2)
            halves.append(float(cp.fit_cce(sub, sfe, cp.Family.LOGIT, opts).beta[0]))
        errs_raw.append(fit.beta[0] - 1)
        errs_spj.append(
            spj_combine(fit.beta[0], (halves[0], halves[1]), (halves[2], halves[3])) - 1
        )
    assert_allclose(raw_cell.bias, np.mean(errs_raw), atol=1e-12)
    assert_allclose(spj_cell.bias, np.mean(errs_spj), atol=1e-12)
