"""Monte Carlo checks of the APE correction machinery against DGP truth.

The raw APE estimator is already first-order unbiased across logit
designs (its coefficient-channel and curvature-channel biases cancel
internally), so the meaningful properties to pin are: the corrections do
not degrade accuracy, and the corrected confidence intervals attain
their nominal coverage at sizes where the first-order variance
dominates.  An unhalved curvature term in the correction (a tempting
misreading) triples the corrected MAE and fails these bounds.
"""

import numpy as np
import pytest

import ccepanel as cp
from ccepanel import DgpConfig, FitOptions, PolicyPair
from ccepanel.likelihood import Family
from ccepanel.simulate import TRUE_BETA, TRUE_RANK, replication_seed

POLICY = PolicyPair(np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]))
OPTS = FitOptions(loading_bound=30.0)


def _ape_replications(n, t, reps, base_seed, with_spj=False):
    rows = []
    for rep in range(reps):
        seed = replication_seed(base_seed, n, t, False, rep)
        draw = cp.generate(DgpConfig(n_units=n, n_periods=t, seed=seed))
        true_ape = float(np.mean(
            cp.partial_effect(Family.LOGIT, TRUE_BETA, draw.true_index, POLICY)
        ))
        fe = cp.estimate_factors(draw.panel, TRUE_RANK)
        fit = cp.fit_cce(draw.panel, fe, Family.LOGIT, OPTS)
        if not fit.converged:
            continue
        try:
            bias = cp.compute_beta_bias(draw.panel, fit, fe, Family.LOGIT, bandwidth=0)
        except cp.NumericalError:
            continue
        ape = cp.ape_estimate(fit, fe, Family.LOGIT, POLICY)
        ape_bias = cp.compute_ape_bias(draw.panel, fit, fe, Family.LOGIT, POLICY, bias, bandwidth=0)
        corrected = cp.correct_ape(ape, bias, ape_bias, n, t)
        sigma2 = cp.ape_variance(draw.panel, fit, fe, Family.LOGIT, bias, ape_bias, 0)
        se = np.sqrt(sigma2 / (n * t))
        row = {
            "raw": ape.value - true_ape,
            "abc": corrected - true_ape,
            "cover": abs(corrected - true_ape) <= 1.959963984540054 * se,
        }
        if with_spj:
            _, spj = cp.spj(draw.panel, Family.LOGIT, TRUE_RANK, OPTS, POLICY, full=(fe, fit))
            if not spj.converged:
                continue
            row["spj"] = spj.corrected - true_ape
        rows.append(row)
    return rows


@pytest.mark.slow
def test_analytical_ape_correction_tracks_truth():
    rows = _ape_replications(100, 100, 200, base_seed=424242)
    assert len(rows) >= 190
    raw = np.array([r["raw"] for r in rows])
    abc = np.array([r["abc"] for r in rows])
    # the raw APE is first-order unbiased here; the correction must not
    # push the estimate away from the truth nor inflate the error
    se_mean = raw.std(ddof=1) / np.sqrt(len(raw))
    assert abs(abc.mean()) <= abs(raw.mean()) + 3 * se_mean
    assert np.abs(abc).mean() <= 1.15 * np.abs(raw).mean()


@pytest.mark.slow
def test_ape_interval_coverage_near_nominal():
    rows = _ape_replications(150, 150, 200, base_seed=31415)
    cover = np.mean([r["cover"] for r in rows])
    assert 0.90 <= cover <= 1.0, cover


@pytest.mark.slow
def test_spj_ape_tracks_truth():
    rows = _ape_replications(100, 100, 200, base_seed=424242, with_spj=True)
    assert len(rows) >= 185
    raw = np.array([r["raw"] for r in rows])
    spj = np.array([r["spj"] for r in rows])
    se_mean = raw.std(ddof=1) / np.sqrt(len(raw))
    assert abs(spj.mean()) <= abs(raw.mean()) + 3 * se_mean
    assert np.abs(spj).mean() <= 1.25 * np.abs(raw).mean()
