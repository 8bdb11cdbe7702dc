"""First estimation step: factors from cross-sectional covariate averages.

The T x k matrix of cross-sectional averages is summarized by its raw
second-moment matrix (not demeaned); the estimated factors are the
projections of the averages onto the leading eigenvectors.  Rank selection
offers a threshold rule on the eigenvalues and an eigenvalue-ratio rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, NumericalError
from .panel import Panel


@dataclass(frozen=True)
class FactorEstimate:
    """Output of the eigendecomposition step.

    Attributes
    ----------
    factors : ndarray, shape (T, r)
        Row t is the estimated factor vector for period t.
    eigenvectors : ndarray, shape (k, r)
        Orthonormal columns; sign convention: largest-magnitude entry of
        each column is positive.
    eigenvalues : ndarray, shape (k,)
        Full spectrum of the second-moment matrix, non-increasing.
    """

    factors: np.ndarray
    eigenvectors: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.factors, dtype=float)
        v = np.asarray(self.eigenvectors, dtype=float)
        if f.ndim != 2 or v.ndim != 2 or f.shape[1] != v.shape[1]:
            raise InvalidInputError("factor estimate has inconsistent dimensions")
        object.__setattr__(self, "factors", f)
        object.__setattr__(self, "eigenvectors", v)

    @property
    def r(self) -> int:
        """Number of factors."""
        return self.factors.shape[1]


def _spectrum(panel: Panel):
    """(xbar, eigenvalues non-increasing, eigenvectors) of the raw second
    moment of the cross-sectional averages xbar (T x k)."""
    xbar = panel.covariates.mean(axis=0)
    try:
        eigvals, eigvecs = np.linalg.eigh(xbar.T @ xbar / xbar.shape[0])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(eigvals)[::-1]
    return xbar, eigvals[order], eigvecs[:, order]


def estimate_factors(panel: Panel, r: int) -> FactorEstimate:
    """Top-r eigenvectors of the second-moment matrix and the implied factors.

    The sign of each eigenvector column is fixed so that its
    largest-magnitude entry is positive, which makes the output
    reproducible across eigensolver implementations.
    """
    k = panel.n_covariates
    if not 1 <= r <= k:
        raise InvalidInputError(f"need 1 <= r <= k, got r={r}, k={k}")
    xbar, eigvals, eigvecs = _spectrum(panel)
    if eigvals[0] <= 0.0:
        raise NumericalError(
            "covariate averages are degenerate (largest eigenvalue is not positive); "
            "factors cannot be extracted"
        )
    psi = eigvecs[:, :r].copy()
    for j in range(r):
        top = np.argmax(np.abs(psi[:, j]))
        if psi[top, j] < 0:
            psi[:, j] = -psi[:, j]
    return FactorEstimate(factors=xbar @ psi, eigenvectors=psi, eigenvalues=eigvals)


def default_threshold(n_units: int, n_periods: int) -> float:
    """Default eigenvalue threshold min(N, T)^(-1/3)."""
    return float(min(n_units, n_periods)) ** (-1.0 / 3.0)


def rank_from_eigenvalues(eigenvalues: np.ndarray, p_nt: float) -> int:
    """Count of eigenvalues at or above the threshold, floored at 1."""
    if not p_nt > 0:  # NaN fails this too
        raise InvalidInputError(f"threshold must be positive, got {p_nt}")
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    return max(int(np.sum(eigenvalues >= p_nt)), 1)


def rank_from_eigenvalue_ratios(eigenvalues: np.ndarray) -> int:
    """Index j maximizing eigenvalue[j] / eigenvalue[j+1]; ties to the smallest j.

    A denominator at or below 1e-15 makes that ratio +inf.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    k = eigenvalues.shape[0]
    if k < 2:
        raise InvalidInputError("eigenvalue-ratio rank rule needs k >= 2")
    num = eigenvalues[:-1]
    den = eigenvalues[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(den <= 1e-15, np.inf, num / np.where(den <= 1e-15, 1.0, den))
    return int(np.argmax(ratios)) + 1


def estimate_rank_threshold(panel: Panel, p_nt: float) -> int:
    """Threshold rank rule applied to the panel's eigenvalue spectrum."""
    _, eigvals, _ = _spectrum(panel)
    return rank_from_eigenvalues(eigvals, p_nt)


def estimate_rank_ratio(panel: Panel) -> int:
    """Eigenvalue-ratio rank rule; undefined for k = 1."""
    if panel.n_covariates < 2:
        raise InvalidInputError("eigenvalue-ratio rank rule needs k >= 2")
    _, eigvals, _ = _spectrum(panel)
    return rank_from_eigenvalue_ratios(eigvals)
