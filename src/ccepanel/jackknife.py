"""Split-panel jackknife bias correction.

The corrected estimate combines the full-panel estimate with estimates
from the two cross-section halves (all periods kept) and the two
contiguous time halves (all units kept):

    corrected = 3 * full - (half_n1 + half_n2) / 2 - (half_t1 + half_t2) / 2

Every subsample run repeats the complete two-step pipeline at the rank of
the full-panel fit, including the re-estimation of the factors from the
subsample's own cross-sectional averages; with an odd dimension the first
half gets the extra row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ape import PolicyPair, ape_estimate
from .estimation import CceFit, FitOptions, fit_cce
from .exceptions import InvalidInputError
from .factors import FactorEstimate, estimate_factors
from .likelihood import Family
from .panel import Panel


@dataclass
class SpjResult:
    """Full and half-panel estimates, and the names of the fits among them
    that did not converge."""

    full: np.ndarray | float
    half_n: tuple
    half_t: tuple
    failures: list = field(default_factory=list)

    @property
    def corrected(self) -> np.ndarray | float:
        """The jackknife combination of the five estimates."""
        return spj_combine(self.full, self.half_n, self.half_t)

    @property
    def converged(self) -> bool:
        return not self.failures


def spj_combine(full, half_n, half_t):
    """Exact jackknife combination of the five estimates."""
    out = 3.0 * np.asarray(full) - 0.5 * (
        np.asarray(half_n[0]) + np.asarray(half_n[1])
    ) - 0.5 * (np.asarray(half_t[0]) + np.asarray(half_t[1]))
    return float(out) if np.ndim(out) == 0 else out


def split_half_panels(panel: Panel):
    """The four half panels: two unit halves, two contiguous period halves."""
    n, t = panel.n_units, panel.n_periods
    if n < 4 or t < 4:
        raise InvalidInputError(
            f"split-panel jackknife needs N >= 4 and T >= 4, got N={n}, T={t}"
        )
    n_cut = (n + 1) // 2
    t_cut = (t + 1) // 2
    return (
        (panel.subpanel(units=slice(0, n_cut)), panel.subpanel(units=slice(n_cut, n))),
        (panel.subpanel(periods=slice(0, t_cut)), panel.subpanel(periods=slice(t_cut, t))),
    )


def spj(
    panel: Panel,
    family: Family,
    full: tuple[FactorEstimate, CceFit],
    opts: FitOptions | None = None,
    policy: PolicyPair | None = None,
) -> tuple[SpjResult, SpjResult | None]:
    """Jackknife-corrected coefficients and, given ``policy``, APE.

    ``full`` is the ``(factors, fit)`` of the full-panel fit to correct; it
    is used as is, and reported in ``failures`` if it did not converge.
    The four halves are fit at its rank, ``full[0].r``, with ``opts``, and
    both results come from the same five fits.  Returns ``(beta, ape)``;
    ``ape`` is None without a policy.
    """
    halves = split_half_panels(panel)
    names = ("full", "units-1", "units-2", "periods-1", "periods-2")
    runs = [full]
    for sub in (*halves[0], *halves[1]):
        fe = estimate_factors(sub, full[0].r)
        runs.append((fe, fit_cce(sub, fe, family, opts)))
    failures = [name for name, (_, fit) in zip(names, runs) if not fit.converged]

    def combine(stats):
        return SpjResult(stats[0], (stats[1], stats[2]), (stats[3], stats[4]), failures)

    beta = combine([fit.beta for _, fit in runs])
    if policy is None:
        return beta, None
    return beta, combine([ape_estimate(fit, fe, family, policy).value for fe, fit in runs])
