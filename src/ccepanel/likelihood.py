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

    @classmethod
    def from_string(cls, name: str) -> "Family":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(f.value for f in cls)
            raise InvalidInputError(
                f"unknown family {name!r}; expected one of: {valid}"
            ) from None

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


def _logphi_ladder(z):
    """Yield the derivatives of log Phi at z through the hazard h = phi / Phi.

    h satisfies h' = -z h - h^2, so higher orders follow by recursion; the
    log-CDF is evaluated with log_ndtr so the tails (|z| > 6) stay accurate.
    """
    h = np.exp(_norm_logpdf(z) - special.log_ndtr(z))
    yield h
    d2 = -h * (z + h)
    yield d2
    zh = z + 2.0 * h
    d3 = -h - zh * d2
    yield d3
    yield -2.0 * d2 - 2.0 * d2 * d2 - zh * d3


def _index_ladder(family: Family, y, z):
    """Yield l_1, l_2, l_3, l_4: the derivatives of log L(y, z) in z."""
    if family is Family.LOGIT:
        # l = y z - log(1 + e^z): l_1 = y - G, then l_(j+1) = -G^(j)
        curve = _logistic_curve(z)
        yield y - next(curve)
        for d in curve:
            yield -d
    elif family is Family.PROBIT:
        # l(1, z) = log Phi(z), l(0, z) = log Phi(-z); combine both branches
        # through the symmetry d^j/dz^j log Phi(-z) = (-1)^j psi_j(-z).
        sign = 1.0
        for pos, neg in zip(_logphi_ladder(z), _logphi_ladder(-z)):
            sign = -sign
            yield y * pos + (1.0 - y) * (neg * sign)
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


def _index_derivatives(family: Family, y, z, order: int) -> tuple:
    """(l_1, ..., l_order) at one index, for float arrays in the domain."""
    return tuple(itertools.islice(_index_ladder(family, y, z), order))


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
    """Log density at valid outcomes; -inf at poisson cells with z <= 0, so
    a line-search trial outside the domain is rejected by its objective."""
    if family is Family.LOGIT:
        # log G(z) = log_expit(z), log(1 - G(z)) = log_expit(-z)
        return np.asarray(
            y * special.log_expit(z) + (1.0 - y) * special.log_expit(-z)
        )
    if family is Family.PROBIT:
        return np.asarray(
            y * special.log_ndtr(z) + (1.0 - y) * special.log_ndtr(-z)
        )
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
