"""Partial effects of a regressor move x0 -> x1 and their sample average.

The partial effect at interactive-effect value c is the change in the
response mean between the two index values beta'x0 + c and beta'x1 + c.
For binary families that is a difference of CDF values; for poisson and
gaussian the response mean is the index itself, so the effect degenerates
to beta'(x1 - x0) and every c-derivative vanishes (the downstream bias
formulas consume those zeros without special-casing).

The average partial effect fixes (x0, x1) and averages only over the
estimated interactive effects of the sample cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import CceFit
from .exceptions import InvalidInputError
from .factors import FactorEstimate
from .likelihood import Family, response_mean, response_mean_deriv, validate_index


@dataclass(frozen=True)
class PolicyPair:
    """Regressor values before (x0) and after (x1) the intervention."""

    x0: np.ndarray
    x1: np.ndarray

    def __post_init__(self):
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        x1 = np.atleast_1d(np.asarray(self.x1, dtype=float))
        if x0.ndim != 1 or x0.shape != x1.shape:
            raise InvalidInputError("policy vectors must be 1-d with equal length")
        if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(x1))):
            raise InvalidInputError("policy vectors must be finite")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x1", x1)

    def swapped(self) -> "PolicyPair":
        return PolicyPair(self.x1, self.x0)


@dataclass(frozen=True)
class ApeEstimate:
    value: float
    policy: PolicyPair


def _policy_indices(beta, c, policy: PolicyPair):
    beta = np.asarray(beta, dtype=float)
    if beta.shape != policy.x0.shape:
        raise InvalidInputError(
            f"beta has shape {beta.shape} but policy vectors have {policy.x0.shape}"
        )
    c = np.asarray(c, dtype=float)
    return beta @ policy.x0 + c, beta @ policy.x1 + c


def partial_effect(family: Family, beta, c, policy: PolicyPair) -> float:
    """Response-mean difference between the two policy index values."""
    z0, z1 = _policy_indices(beta, c, policy)
    validate_index(family, np.stack([z0, z1]))
    out = response_mean(family, z1) - response_mean(family, z0)
    return float(out) if np.ndim(out) == 0 else np.asarray(out)


def policy_grid(family: Family, beta, c_grid: np.ndarray, policy: PolicyPair):
    """Cellwise partial-effect derivatives over a grid of interactive effects.

    Returns (d_c, d_cc, d_beta) with shapes matching ``c_grid`` for the
    scalars and ``c_grid.shape + (k,)`` for the beta gradient.
    """
    z0, z1 = _policy_indices(beta, c_grid, policy)
    validate_index(family, np.stack([z0, z1]))
    g0 = response_mean_deriv(family, z0, 1)
    g1 = response_mean_deriv(family, z1, 1)
    g0p = response_mean_deriv(family, z0, 2)
    g1p = response_mean_deriv(family, z1, 2)
    d_c = g1 - g0
    d_cc = g1p - g0p
    d_beta = g1[..., None] * policy.x1 - g0[..., None] * policy.x0
    return d_c, d_cc, d_beta


def ape_estimate(
    fit: CceFit, factors: FactorEstimate, family: Family, policy: PolicyPair
) -> ApeEstimate:
    """Plain average of the partial effect over all (i, t) cells.

    The effect is evaluated at each cell's estimated interactive effect
    (loading times factor), so it is invariant to invertible rotations of
    the factor/loading pair.
    """
    c = fit.loadings @ factors.factors.T
    z0, z1 = _policy_indices(fit.beta, c, policy)
    if family is Family.POISSON:
        bad = np.stack([z0, z1])
        if np.any(bad <= 0):
            which = np.argwhere((z0 <= 0) | (z1 <= 0))[0]
            raise InvalidInputError(
                "poisson index non-positive at policy evaluation for unit "
                f"{which[0]}, period {which[1]}"
            )
    value = float(np.mean(response_mean(family, z1) - response_mean(family, z0)))
    return ApeEstimate(value=value, policy=policy)
