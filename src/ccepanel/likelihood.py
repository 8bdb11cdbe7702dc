"""Model families and derivatives of the log density in the single index.

Every supported family is driven by a scalar index z (the sum of the
regression part and the interactive-effect part).  This module evaluates
the log density log L(y, z) and its first four derivatives with respect
to z, which feed the optimizer, the bias formulas, and the variance
estimators.  All functions broadcast over numpy arrays.

Families
--------
logit     binary y, G(z) = exp(z) / (1 + exp(z))
probit    binary y, G(z) = standard normal CDF
poisson   count y, intensity equal to the index itself (requires z > 0)
gaussian  real y, least-squares objective -(y - z)^2

Both binary families are symmetric, 1 - G(z) = G(-z), so with the outcome
sign s = 2y - 1 the log density is log G(s z) and its j-th index
derivative is s^j times the j-th derivative of log G at s z.  The binary
kernels make one evaluation at s z per cell instead of one per branch.
The values are those of the two-branch form y F(z) + (1 - y) F(-z): s z
is exactly +-z, and the dropped branch only added a zero (or, past
|z| ~ 1e154, a nan from 0 * inf that the fold no longer makes).  This
holds for y in {0, 1} only, so every entry point validates the outcomes
before a kernel runs.
"""

from __future__ import annotations

import enum
import itertools
import math

import numpy as np
from scipy import special

from .exceptions import InvalidInputError

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class Family(enum.Enum):
    """Supported model families, selectable by name on the CLI."""

    LOGIT = "logit"
    PROBIT = "probit"
    POISSON = "poisson"
    GAUSSIAN = "gaussian"

    @property
    def is_binary(self) -> bool:
        return self in (Family.LOGIT, Family.PROBIT)


def validate_outcomes(family: Family, y: np.ndarray) -> None:
    """Raise ``InvalidInputError`` if outcomes are outside the family domain."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise InvalidInputError("outcomes must be finite")
    if family.is_binary:
        if not np.all((y == 0.0) | (y == 1.0)):
            raise InvalidInputError(
                f"{family.value} outcomes must lie in {{0, 1}}"
            )
    elif family is Family.POISSON:
        if np.any(y < 0) or np.any(y != np.floor(y)):
            raise InvalidInputError(
                "poisson outcomes must be non-negative integers"
            )
    # gaussian accepts any real outcome


def validate_index(family: Family, z: np.ndarray) -> None:
    """Raise if any index value is outside the family domain (finite; poisson:
    z > 0), naming the first offending (unit, period) of a 2-d index."""
    z = np.asarray(z, dtype=float)
    bad = ~np.isfinite(z)
    message = "index values must be finite"
    if family is Family.POISSON and not bad.any():
        bad = z <= 0.0
        message = "poisson requires a strictly positive index (z > 0)"
    if bad.any():
        if z.ndim == 2:
            i, t = np.argwhere(bad)[0]
            message += f"; first at unit {i}, period {t} (z={z[i, t]:.6g})"
        raise InvalidInputError(message)


def _norm_logpdf(z):
    return -0.5 * z * z - _LOG_SQRT_2PI


def _log_expit(u):
    """log G(u) for the logistic CDF G, as min(u, 0) - log1p(exp(-|u|)).

    numpy's vectorized exp and log1p make this several times faster per
    cell than ``special.log_expit``, within a few ulp of it; exp(-|u|)
    never overflows, and log1p keeps full precision where it underflows
    toward 0 (u -> +inf), so there is no cancellation in either tail.
    """
    return np.minimum(u, 0.0) - np.log1p(np.exp(-np.abs(u)))


def _outcome_sign(y):
    """s = 2y - 1: +1 at y = 1 and -1 at y = 0 (binary outcomes only)."""
    return 2.0 * y - 1.0


# --------------------------------------------------------------------- #
# derivative ladders: each yields one order after another from a single
# transcendental evaluation, so a caller pays for the orders it takes.
# --------------------------------------------------------------------- #


def _logistic_curve(z):
    """Yield the logistic CDF G = expit(z), then g = G(1 - G), g', g''."""
    G = special.expit(z)
    yield G
    g = G * (1.0 - G)
    yield g
    u = 1.0 - 2.0 * G
    yield g * u
    yield g * u ** 2 - 2.0 * g * g


def _logphi_ladder(z, log_cdf=None):
    """Yield the derivatives of log Phi at z through the hazard h = phi / Phi.

    h satisfies h' = -z h - h^2, so higher orders follow by recursion; the
    log-CDF is evaluated with log_ndtr so the tails (|z| > 6) stay accurate,
    unless the caller passes log_ndtr(z) as ``log_cdf``.
    """
    if log_cdf is None:
        log_cdf = special.log_ndtr(z)
    h = np.exp(_norm_logpdf(z) - log_cdf)
    yield h
    d2 = -h * (z + h)
    yield d2
    zh = z + 2.0 * h
    d3 = -h - zh * d2
    yield d3
    yield -2.0 * d2 - 2.0 * d2 * d2 - zh * d3


def _index_ladder(family: Family, y, z, log_density=None):
    """Yield l_1, l_2, l_3, l_4: the derivatives of log L(y, z) in z.

    ``log_density``, if given, is ``_log_density_unchecked(family, y, z)``;
    the probit ladder takes its hazard from it (it is log Phi(s z) itself).
    """
    if family is Family.LOGIT:
        # l = y z - log(1 + e^z): l_1 = y - G, then l_(j+1) = -G^(j)
        curve = _logistic_curve(z)
        yield y - next(curve)
        for d in curve:
            yield -d
    elif family is Family.PROBIT:
        # l(y, z) = log Phi(s z) with s = 2y - 1, so l_j = s^j psi_j(s z)
        s = _outcome_sign(y)
        for j, d in enumerate(_logphi_ladder(s * z, log_density), start=1):
            yield s * d if j % 2 else d
    elif family is Family.POISSON:
        yield y / z - 1.0
        yield -y / z**2
        yield 2.0 * y / z**3
        yield -6.0 * y / z**4
    else:  # gaussian: -(y - z)^2
        shape = np.broadcast_shapes(np.shape(y), np.shape(z))
        yield 2.0 * (y - z)
        yield np.full(shape, -2.0)
        yield np.zeros(shape)
        yield np.zeros(shape)


def _reads_log_density(family: Family) -> bool:
    """Whether ``_index_derivatives`` reads a ``log_density`` it is given."""
    return family is Family.PROBIT


def _index_derivatives(family: Family, y, z, order: int, log_density=None) -> tuple:
    """(l_1, ..., l_order) at one index, for float arrays in the domain.

    Outcomes are not checked here: a binary y outside {0, 1} would give
    wrong numbers silently, so callers validate them first.  A caller that
    holds the log density at (y, z) passes it as ``log_density``; the values
    are the same bits, and probit saves its one log-CDF per cell.
    """
    return tuple(itertools.islice(_index_ladder(family, y, z, log_density), order))


# --------------------------------------------------------------------- #
# log density and index derivatives
# --------------------------------------------------------------------- #


def log_density(family: Family, y, z):
    """Log density log L(y, z) of the outcome given the index.

    Parameters
    ----------
    family : Family
    y : scalar or ndarray
        Outcomes, in the family's domain.
    z : scalar or ndarray
        Index values, broadcastable against ``y``.

    Returns
    -------
    scalar or ndarray of log-density values.
    """
    y_arr = np.asarray(y, dtype=float)
    z_arr = np.asarray(z, dtype=float)
    validate_outcomes(family, y_arr)
    validate_index(family, z_arr)
    out = _log_density_unchecked(family, y_arr, z_arr)
    return out if out.ndim else float(out)


def _log_density_unchecked(family: Family, y, z):
    """Log density at validated outcomes (one log-CDF per binary cell, at
    s z); -inf at poisson cells with z <= 0, so a line-search trial outside
    the domain is rejected by its objective."""
    if family is Family.LOGIT:
        # log G(z) at y = 1, log(1 - G(z)) = log G(-z) at y = 0
        return np.asarray(_log_expit(_outcome_sign(y) * z))
    if family is Family.PROBIT:
        return np.asarray(special.log_ndtr(_outcome_sign(y) * z))
    if family is Family.POISSON:
        inside = z > 0.0
        log_z = np.log(np.where(inside, z, 1.0))
        return np.where(inside, y * log_z - z - special.gammaln(y + 1.0), -np.inf)
    return np.asarray(-((y - z) ** 2))


def index_derivative(family: Family, y, z, order: int):
    """Analytic d^order/dz^order of log L(y, z), order in 1..4."""
    if order not in (1, 2, 3, 4):
        raise InvalidInputError(f"derivative order must be in 1..4, got {order}")
    y_arr = np.asarray(y, dtype=float)
    z_arr = np.asarray(z, dtype=float)
    validate_outcomes(family, y_arr)
    validate_index(family, z_arr)
    out = np.asarray(_index_derivatives(family, y_arr, z_arr, order)[-1])
    return out if out.ndim else float(out)


# --------------------------------------------------------------------- #
# response curve: the conditional mean of y as a function of the index,
# and its derivatives.  Partial effects are differences of this curve.
# --------------------------------------------------------------------- #


def _response_ladder(family: Family, z):
    if family is Family.LOGIT:
        yield from _logistic_curve(z)
    elif family is Family.PROBIT:
        yield special.ndtr(z)
        phi = np.exp(_norm_logpdf(z))
        yield phi
        yield -z * phi
        yield (z * z - 1.0) * phi
    else:
        yield z
        yield np.ones_like(z)
        yield np.zeros_like(z)
        yield np.zeros_like(z)


def response_curve(family: Family, z, order: int) -> tuple:
    """E[y | index = z] and its derivatives in z up to ``order`` (0..3).

    Returns (G, g, g', g'') truncated after ``order``: for the binary
    families G is the CDF; for poisson and gaussian the curve is the
    index itself, so g is 1 and higher derivatives are 0.
    """
    if order not in (0, 1, 2, 3):
        raise InvalidInputError(f"response derivative order must be in 0..3, got {order}")
    z = np.asarray(z, dtype=float)
    return tuple(itertools.islice(_response_ladder(family, z), order + 1))
