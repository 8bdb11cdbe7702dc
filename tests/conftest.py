import numpy as np
import pytest

import ccepanel as cp
from ccepanel.likelihood import Family


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def make_factor_estimate(f, k=None, psi=None):
    """Wrap a raw factor matrix (optionally with eigenvectors) for tests."""
    f = np.asarray(f, dtype=float)
    t, r = f.shape
    if k is None:
        k = psi.shape[0] if psi is not None else r
    if psi is None:
        psi = np.eye(k)[:, :r]
    return cp.FactorEstimate(
        factors=f,
        eigenvectors=np.asarray(psi, dtype=float),
        eigenvalues=np.ones(k),
    )


def make_fit(beta, loadings, factors, panel=None, family=None):
    """CceFit at an arbitrary parameter point (for formula tests)."""
    beta = np.asarray(beta, dtype=float)
    loadings = np.asarray(loadings, dtype=float)
    index = (panel.covariates @ beta if panel is not None else 0.0) + loadings @ factors.factors.T
    return cp.CceFit(
        beta=beta,
        loadings=loadings,
        index=index,
        loglik=0.0,
        grad_norm=0.0,
        iterations=0,
        stop_reason="converged",
    )


def logit_test_panel(rng, n=30, t=20, k=2, r=1, beta=None):
    """Small well-behaved logit panel with a genuine factor structure."""
    from scipy.special import expit

    beta = np.full(k, 0.5) if beta is None else np.asarray(beta, dtype=float)
    f = rng.standard_normal((t, r)) + 1.0
    gamma = rng.standard_normal((n, k, r)) * 0.5
    e = rng.standard_normal((n, t, k))
    x = np.einsum("nkr,tr->ntk", gamma, f) + e
    lam = rng.standard_normal((n, r)) * 0.7
    z = x @ beta + lam @ f.T
    y = (rng.uniform(size=(n, t)) < expit(z)).astype(float)
    return cp.Panel(y, x)


FAMILY_NAMES = [f.value for f in Family]
