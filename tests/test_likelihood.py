import math
import warnings
import zlib

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose
from scipy import special

from ccepanel import InvalidInputError, index_derivative, log_density
from ccepanel.likelihood import (
    Family,
    _index_derivatives,
    _log_density_unchecked,
    _log_expit,
    response_curve,
    validate_outcomes,
)

import oracles as orc

FAMILIES = list(Family)


def _draw_points(family, rng, size):
    """Random interior evaluation points for each family."""
    if family is Family.POISSON:
        z = rng.uniform(0.3, 5.0, size)
        y = rng.integers(0, 10, size).astype(float)
    elif family is Family.GAUSSIAN:
        z = rng.uniform(-5.0, 5.0, size)
        y = z + rng.standard_normal(size)
    else:
        z = rng.uniform(-6.0, 6.0, size)
        y = rng.integers(0, 2, size).astype(float)
    return y, z


# --------------------------------------------------------------------- #
# pinned examples
# --------------------------------------------------------------------- #


def test_log_density_examples():
    assert_allclose(log_density(Family.LOGIT, 1, 0.0), math.log(0.5), rtol=1e-12)
    assert_allclose(log_density(Family.POISSON, 0, 1.0), -1.0, rtol=1e-12)
    # high-precision normal-CDF oracle for log Phi(1.5)
    expected = float(mpmath.log(mpmath.ncdf(1.5)))
    assert_allclose(log_density(Family.PROBIT, 1, 1.5), expected, rtol=1e-10)
    assert_allclose(log_density(Family.PROBIT, 1, 1.5), -0.0691434556, atol=1e-9)


def test_index_derivative_examples():
    assert_allclose(index_derivative(Family.LOGIT, 1, 0.0, 1), 0.5, rtol=1e-12)
    assert_allclose(index_derivative(Family.POISSON, 2, 1.0, 3), 4.0, rtol=1e-12)
    assert_allclose(index_derivative(Family.GAUSSIAN, 1.0, 0.3, 2), -2.0, rtol=1e-12)


def test_poisson_third_derivative_matches_nested_differences():
    h = 1e-3
    y, z = 2.0, 1.0
    stencil = [log_density(Family.POISSON, y, z + j * h) for j in range(-2, 3)]
    third = (stencil[4] - 2 * stencil[3] + 2 * stencil[1] - stencil[0]) / (2 * h**3)
    assert_allclose(index_derivative(Family.POISSON, y, z, 3), third, rtol=1e-4)


# --------------------------------------------------------------------- #
# domain validation
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT])
def test_binary_outcome_domain(family):
    with pytest.raises(InvalidInputError, match="0, 1"):
        log_density(family, 2.0, 0.0)
    with pytest.raises(InvalidInputError):
        validate_outcomes(family, np.array([0.0, 0.5]))


def test_poisson_domain():
    with pytest.raises(InvalidInputError, match="positive"):
        log_density(Family.POISSON, 1, 0.0)
    with pytest.raises(InvalidInputError, match="positive"):
        log_density(Family.POISSON, 1, -2.0)
    with pytest.raises(InvalidInputError, match="integer"):
        log_density(Family.POISSON, 1.5, 1.0)
    with pytest.raises(InvalidInputError, match="integer"):
        log_density(Family.POISSON, -1, 1.0)


def test_poisson_density_is_minus_inf_outside_domain():
    # line searches reject trial points through this value, so it must be
    # -inf (not nan) and must not warn
    z = np.array([0.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y in (0.0, 3.0):
            vals = _log_density_unchecked(Family.POISSON, np.full(2, y), z)
            assert np.all(vals == -np.inf)


def test_index_domain_error_names_the_cell():
    z = np.ones((3, 4))
    z[2, 1] = 0.0
    with pytest.raises(InvalidInputError, match="unit 2, period 1"):
        log_density(Family.POISSON, np.ones((3, 4)), z)
    z[1, 3] = np.nan
    with pytest.raises(InvalidInputError, match="finite.*unit 1, period 3"):
        index_derivative(Family.LOGIT, np.ones((3, 4)), z, 1)


def test_unsupported_order():
    with pytest.raises(InvalidInputError, match="order"):
        index_derivative(Family.LOGIT, 1, 0.0, 5)
    with pytest.raises(InvalidInputError, match="order"):
        index_derivative(Family.LOGIT, 1, 0.0, 0)


# --------------------------------------------------------------------- #
# finite-difference consistency (acceptance criterion backbone)
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_derivatives_match_finite_differences(family):
    rng = np.random.default_rng(zlib.crc32(family.value.encode()))
    y, z = _draw_points(family, rng, 1000)
    h = 6e-6
    for order in (1, 2, 3, 4):
        lower = log_density(family, y, z - h) if order == 1 else index_derivative(family, y, z - h, order - 1)
        upper = log_density(family, y, z + h) if order == 1 else index_derivative(family, y, z + h, order - 1)
        fd = (upper - lower) / (2 * h)
        analytic = index_derivative(family, y, z, order)
        err = np.abs(analytic - fd) / (1.0 + np.abs(analytic))
        assert err.max() < 1e-6, f"{family.value} order {order}: {err.max():.2e}"


@pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT])
def test_response_mean_derivs_match_finite_differences(family):
    rng = np.random.default_rng(3)
    z = rng.uniform(-6, 6, 500)
    h = 6e-6
    lower, upper = response_curve(family, z - h, 2), response_curve(family, z + h, 2)
    analytic = response_curve(family, z, 3)
    for order in (1, 2, 3):
        fd = (upper[order - 1] - lower[order - 1]) / (2 * h)
        err = np.abs(analytic[order] - fd) / (1.0 + np.abs(analytic[order]))
        assert err.max() < 1e-6


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_ladders_match_oracle_derivatives(family):
    rng = np.random.default_rng(zlib.crc32(b"ladder-" + family.value.encode()))
    y, z = _draw_points(family, rng, 60)
    if family is Family.PROBIT:
        tails = np.array([-40.0, -20.0, -12.0, -8.0, 8.0, 12.0, 20.0, 40.0])
        y = np.concatenate([y, np.zeros(tails.size), np.ones(tails.size)])
        z = np.concatenate([z, tails, tails])
    # the probit hazard recursion cancels in the far tail: at |z| = 40 its
    # fourth order is 2.3e-7 off; the other families are closed forms
    bound = 1e-6 if family is Family.PROBIT else 1e-12
    ladder = _index_derivatives(family, y, z, 4)
    assert len(ladder) == 4
    for order, got in enumerate(ladder, start=1):
        if family is Family.PROBIT:
            want = orc.probit_derivs_mp(y, z, order)
        else:
            want = orc.derivs(family.value, y, z, order)
        err = np.abs(got - want) / (1.0 + np.abs(want))
        assert err.max() < bound, f"{family.value} order {order}: {err.max():.2e}"
    curve = response_curve(family, z, 3)
    assert len(curve) == 4
    for order, got in enumerate(curve):
        want = orc.response_curve(family.value, z, order)
        err = np.abs(got - want) / (1.0 + np.abs(want))
        assert err.max() < 1e-12, f"{family.value} response order {order}: {err.max():.2e}"


# --------------------------------------------------------------------- #
# the binary kernels fold the outcome into the sign of the index: exactly
# the values of the two-branch form y F(z) + (1 - y) F(-z)
# --------------------------------------------------------------------- #

_SIGN_GRID = np.array(
    [0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 8.0, -8.0, 40.0, -40.0,
     300.0, -300.0, 1e4, -1e4]
)
# beyond |z| ~ 1e154 the two-branch reference itself turns nan (0 * inf in
# its dropped branch), so the draws stay inside the grid's range
_draw_z = hnp.arrays(
    np.float64, hnp.array_shapes(max_dims=2, max_side=12),
    elements=st.floats(-1e4, 1e4, allow_nan=False),
)


def _assert_fold_matches_two_branch(family, y, z):
    got = log_density(family, y, z)
    want = orc.binary_log_density_two_branch(family.value, y, z)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # signed zeros too
    if family is Family.PROBIT:
        # equal values; where the hazard underflows (y = 0, z < -38) an odd
        # order is -0.0 where the two-branch sum made it +0.0
        for order in (1, 2, 3, 4):
            got = index_derivative(family, y, z, order)
            assert np.array_equal(got, orc.probit_derivs_two_branch(y, z, order))


@pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT])
def test_binary_fold_is_exact_on_the_grid(family):
    for y in (0.0, 1.0):
        _assert_fold_matches_two_branch(family, y, _SIGN_GRID)
    yy, zz = np.meshgrid([0.0, 1.0], _SIGN_GRID)
    _assert_fold_matches_two_branch(family, yy, zz)


@pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_binary_fold_is_exact_on_drawn_arrays(family, data):
    z = data.draw(_draw_z)
    y = data.draw(st.sampled_from([0.0, 1.0]))
    _assert_fold_matches_two_branch(family, y, z)
    y = data.draw(hnp.arrays(np.float64, z.shape, elements=st.sampled_from([0.0, 1.0])))
    _assert_fold_matches_two_branch(family, y, z)


# the logistic log-CDF is numpy's exp and log1p, not scipy's scalar
# log_expit: the two must agree within a few ulp, and exactly where either
# value is zero (or infinite), up to the sign of a zero
_LOG_EXPIT_ULPS = 4
_LOG_EXPIT_GRID = np.array(
    [0.0, 5e-324, 1e-300, 36.0, 37.0, 709.0, 745.0, 1e300, np.inf]
)


def _assert_log_expit_matches_scipy(u):
    got, want = _log_expit(u), special.log_expit(u)
    edge = (got == 0.0) | (want == 0.0) | np.isinf(got) | np.isinf(want)
    assert np.array_equal(got[edge], want[edge])
    # both negative: the distance of their bit patterns counts the ulps
    got, want = got[~edge], want[~edge]
    assert np.all((got < 0.0) & (want < 0.0))
    ulps = np.abs(got.view(np.int64) - want.view(np.int64))
    assert np.all(ulps <= _LOG_EXPIT_ULPS), ulps.max()


def test_log_expit_is_within_ulps_of_scipy_on_the_grid():
    _assert_log_expit_matches_scipy(np.concatenate([_LOG_EXPIT_GRID, -_LOG_EXPIT_GRID]))


@settings(max_examples=200, deadline=None)
@given(u=hnp.arrays(np.float64, hnp.array_shapes(max_dims=1, max_side=64),
                    elements=st.floats(allow_nan=False)))
def test_log_expit_is_within_ulps_of_scipy_on_drawn_arrays(u):
    _assert_log_expit_matches_scipy(u)


def test_binary_fold_stays_finite_where_the_two_branch_form_does_not():
    # log Phi(-1e200) is -inf, which the two-branch form multiplied by 0
    z = np.array([1e200, -1e200])
    assert log_density(Family.PROBIT, np.array([1.0, 0.0]), z).tolist() == [0.0, 0.0]


# --------------------------------------------------------------------- #
# the probit hazard read from the log density the caller already holds is
# the same bits as the one the ladder evaluates itself
# --------------------------------------------------------------------- #


def _assert_hazard_reuse_is_exact(y, z):
    plain = _index_derivatives(Family.PROBIT, y, z, 4)
    reused = _index_derivatives(
        Family.PROBIT, y, z, 4, log_density=log_density(Family.PROBIT, y, z)
    )
    for got, want in zip(reused, plain):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_probit_hazard_from_the_log_density_is_exact_in_the_tails():
    # past |z| = 38 the hazard at y = 0, z > 0 (and y = 1, z < 0) underflows
    tails = np.array([-1e4, -300.0, -60.0, -40.0, -38.5, -38.0, -37.5, 37.5, 38.0,
                      38.5, 40.0, 60.0, 300.0, 1e4])
    yy, zz = np.meshgrid([0.0, 1.0], np.concatenate([_SIGN_GRID, tails]))
    _assert_hazard_reuse_is_exact(yy, zz)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_probit_hazard_from_the_log_density_is_exact_on_drawn_arrays(data):
    z = data.draw(_draw_z)
    y = data.draw(hnp.arrays(np.float64, z.shape, elements=st.sampled_from([0.0, 1.0])))
    _assert_hazard_reuse_is_exact(y, z)


# --------------------------------------------------------------------- #
# statistical identities
# --------------------------------------------------------------------- #


def _draw_outcomes(family, rng, z, size):
    if family.is_binary:
        return (rng.uniform(size=size) < response_curve(family, z, 0)[0]).astype(float)
    if family is Family.POISSON:
        return rng.poisson(z, size).astype(float)
    # the gaussian objective -(y-z)^2 is the log density of N(z, 1/2)
    return z + rng.normal(0.0, math.sqrt(0.5), size)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_bartlett_identity_in_sample(family):
    rng = np.random.default_rng(11)
    z = 0.7 if family is not Family.POISSON else 1.3
    n = 100_000
    y = _draw_outcomes(family, rng, z, n)
    l1 = index_derivative(family, y, np.full(n, z), 1)
    l2 = index_derivative(family, y, np.full(n, z), 2)
    resid = l1**2 + l2
    se = resid.std(ddof=1) / math.sqrt(n)
    assert abs(resid.mean()) < 3 * max(se, 1e-12)


def test_poisson_conditional_moment_identities():
    rng = np.random.default_rng(17)
    z = 1.7
    n = 100_000
    y = rng.poisson(z, n).astype(float)
    zz = np.full(n, z)
    l3 = index_derivative(Family.POISSON, y, zz, 3)
    se3 = l3.std(ddof=1) / math.sqrt(n)
    assert abs(l3.mean() - 2.0 / z**2) < 3 * se3
    prod = index_derivative(Family.POISSON, y, zz, 2) * index_derivative(Family.POISSON, y, zz, 1)
    se_p = prod.std(ddof=1) / math.sqrt(n)
    assert abs(prod.mean() + 1.0 / z**2) < 3 * se_p


@pytest.mark.parametrize("family", [Family.LOGIT, Family.PROBIT])
def test_binary_log_concavity(family):
    z = np.linspace(-12, 12, 4001)
    for y in (0.0, 1.0):
        l2 = index_derivative(family, np.full_like(z, y), z, 2)
        assert np.all(l2 < 0)


def test_probit_tail_stability():
    # naive Phi underflows past |z| ~ 8; the log-CDF path must stay finite
    z = np.array([-40.0, -12.0, -8.0, 8.0, 12.0, 40.0])
    for y in (0.0, 1.0):
        vals = log_density(Family.PROBIT, np.full_like(z, y), z)
        assert np.all(np.isfinite(vals))
        for order in (1, 2, 3, 4):
            d = index_derivative(Family.PROBIT, np.full_like(z, y), z, order)
            assert np.all(np.isfinite(d))
    # deep-tail hazard: l1(y=1, z) ~ -z as z -> -inf
    assert abs(index_derivative(Family.PROBIT, 1.0, -35.0, 1) - 35.0) < 0.1
