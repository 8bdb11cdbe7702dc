import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import ccepanel as cp
from ccepanel import InvalidInputError, PolicyPair
from ccepanel.jackknife import split_half_panels, spj_combine
from ccepanel.likelihood import Family
from conftest import logit_test_panel

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(full=finite, a=finite, b=finite, c=finite, d=finite)
def test_combination_identity(full, a, b, c, d):
    got = spj_combine(full, (a, b), (c, d))
    assert got == 3.0 * full - 0.5 * (a + b) - 0.5 * (c + d)


def test_combination_identity_on_equal_estimates():
    v = np.array([1.2, -0.7])
    assert_allclose(spj_combine(v, (v, v), (v, v)), v, atol=0)


def test_split_sizes_odd():
    panel = cp.Panel(np.zeros((5, 7)), np.ones((5, 7, 1)))
    (n1, n2), (t1, t2) = split_half_panels(panel)
    assert (n1.n_units, n2.n_units) == (3, 2)
    assert (t1.n_periods, t2.n_periods) == (4, 3)
    # cross-section halves keep all periods; time halves keep all units
    assert n1.n_periods == n2.n_periods == 7
    assert t1.n_units == t2.n_units == 5
    # time halves are contiguous blocks
    assert_allclose(t1.outcomes, panel.outcomes[:, :4])
    assert_allclose(t2.outcomes, panel.outcomes[:, 4:])


def test_split_requires_minimum_size():
    panel = cp.Panel(np.zeros((3, 8)), np.ones((3, 8, 1)))
    with pytest.raises(InvalidInputError):
        split_half_panels(panel)


def _full_fit(panel, r, opts=None):
    fe = cp.estimate_factors(panel, r)
    return fe, cp.fit_cce(panel, fe, Family.LOGIT, opts)


def test_spj_beta_small_panel(rng):
    panel = logit_test_panel(rng, n=24, t=20, k=2)
    res, _ = cp.spj(panel, Family.LOGIT, _full_fit(panel, 1))
    assert res.converged
    assert_allclose(
        res.corrected,
        spj_combine(res.full, res.half_n, res.half_t),
        atol=0,
    )


def test_spj_reuses_supplied_full_fit(rng):
    panel = logit_test_panel(rng, n=16, t=14, k=2)
    pol = PolicyPair(np.zeros(2), np.array([1.0, 0.0]))
    fe, fit = _full_fit(panel, 1)
    res, ape = cp.spj(panel, Family.LOGIT, (fe, fit), policy=pol)
    assert_allclose(res.full, fit.beta, atol=0)
    assert ape.full == cp.ape_estimate(fit, fe, Family.LOGIT, pol).value
    assert ape.failures is res.failures


def test_spj_reports_unconverged_supplied_full_fit(rng):
    panel = logit_test_panel(rng, n=16, t=14, k=2)
    full = _full_fit(panel, 1, cp.FitOptions(max_iterations=1))
    assert not full[1].converged
    beta, ape = cp.spj(panel, Family.LOGIT, full)
    assert ape is None
    assert not beta.converged
    assert beta.failures[0] == "full"


def test_spj_ape_zero_policy(rng):
    panel = logit_test_panel(rng, n=12, t=12, k=2)
    pol = PolicyPair(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    _, res = cp.spj(panel, Family.LOGIT, _full_fit(panel, 1), policy=pol)
    assert res.full == 0.0
    assert res.corrected == 0.0
    assert res.half_n == (0.0, 0.0) and res.half_t == (0.0, 0.0)


def test_unit_permutation_changes_only_unit_halves(rng):
    panel = logit_test_panel(rng, n=20, t=16, k=2)
    perm = rng.permutation(panel.n_units)
    shuffled = cp.Panel(panel.outcomes[perm], panel.covariates[perm])
    a, _ = cp.spj(panel, Family.LOGIT, _full_fit(panel, 1))
    b, _ = cp.spj(shuffled, Family.LOGIT, _full_fit(shuffled, 1))
    # the full estimate and the time halves are symmetric in unit order
    assert_allclose(a.full, b.full, atol=1e-7)
    assert_allclose(a.half_t[0], b.half_t[0], atol=1e-7)
    assert_allclose(a.half_t[1], b.half_t[1], atol=1e-7)
    # the unit halves generally differ
    assert not np.allclose(a.half_n[0], b.half_n[0], atol=1e-4)


def test_spj_fits_every_half_at_the_rank_of_the_full_fit(rng, monkeypatch):
    # every half is fit at the rank of the fit it corrects: a rank-2 full
    # fit gives four rank-2 halves
    panel = logit_test_panel(rng, n=24, t=20, k=3, r=2)
    full = _full_fit(panel, 2)
    ranks = []

    def recording(sub, r):
        ranks.append((sub.outcomes.shape, r))
        return cp.estimate_factors(sub, r)

    monkeypatch.setattr("ccepanel.jackknife.estimate_factors", recording)
    cp.spj(panel, Family.LOGIT, full)
    assert ranks == [((12, 20), 2), ((12, 20), 2), ((24, 10), 2), ((24, 10), 2)]
