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
from .likelihood import Family, response_curve, validate_index


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


@dataclass(frozen=True)
class ApeEstimate:
    value: float


def _policy_indices(family: Family, beta, c, policy: PolicyPair):
    beta = np.asarray(beta, dtype=float)
    if beta.shape != policy.x0.shape:
        raise InvalidInputError(
            f"beta has shape {beta.shape} but policy vectors have {policy.x0.shape}"
        )
    c = np.asarray(c, dtype=float)
    z0, z1 = beta @ policy.x0 + c, beta @ policy.x1 + c
    validate_index(family, z0)
    validate_index(family, z1)
    return z0, z1


def partial_effect(family: Family, beta, c, policy: PolicyPair) -> float:
    """Response-mean difference between the two policy index values."""
    z0, z1 = _policy_indices(family, beta, c, policy)
    out = response_curve(family, z1, 0)[0] - response_curve(family, z0, 0)[0]
    return float(out) if np.ndim(out) == 0 else np.asarray(out)


def policy_grid(family: Family, beta, c_grid: np.ndarray, policy: PolicyPair):
    """Cellwise partial-effect derivatives over a grid of interactive effects.

    Returns (d_c, d_cc, d_beta) with shapes matching ``c_grid`` for the
    scalars and ``c_grid.shape + (k,)`` for the beta gradient.
    """
    z0, z1 = _policy_indices(family, beta, c_grid, policy)
    _, g0, g0p = response_curve(family, z0, 2)
    _, g1, g1p = response_curve(family, z1, 2)
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
    value = float(np.mean(partial_effect(family, fit.beta, c, policy)))
    return ApeEstimate(value=value)
