import numpy as np
import pytest
from hypothesis import strategies as st

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


def draw_panel_shapes(data):
    """Hypothesis draw of panel sizes with N < T, N = T and N > T (numpy's
    contraction order once depended on which), k 1-5, r 1-3, and a generator."""
    n = data.draw(st.integers(1, 40), label="n")
    t = data.draw(st.sampled_from([
        st.integers(n + 1, 60), st.just(n), st.integers(1, max(n - 1, 1))
    ]).flatmap(lambda s: s), label="t")
    k = data.draw(st.integers(1, 5), label="k")
    r = data.draw(st.integers(1, 3), label="r")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    return n, t, k, r, rng


class RecordedDraws:
    """Stands in for ``st.data()`` in a hypothesis ``@example``: each draw
    returns the value recorded under its label, so that a draw hypothesis
    once found is replayed on every run."""

    def __init__(self, **values):
        self.values = values

    def draw(self, strategy, label):
        return self.values[label]


def assert_einsum(got, subscripts, *operands):
    """``got`` equals the plain ``np.einsum`` to 1e-12 of the same sum over
    the absolute operands in each entry: a reordered sum can differ by that
    much in rounding, also where terms of mixed signs cancel to near zero."""
    want = np.einsum(subscripts, *operands)
    slack = 1e-12 * np.einsum(subscripts, *map(np.abs, operands))
    assert np.shape(got) == want.shape
    excess = np.abs(got - want) - slack
    assert np.all(excess <= 0.0), f"{subscripts}: off by {excess.max():.3g} beyond its slack"


def duplicated_covariate_panel(jitter=0.0):
    """The 60 x 60 seed-21 DGP panel with its fourth covariate a copy of its
    third plus ``jitter`` times N(0, 1) noise; at zero jitter the
    coefficients on the two are not identified."""
    panel = cp.generate(cp.DgpConfig(n_units=60, n_periods=60, seed=21)).panel
    x = panel.covariates.copy()
    x[:, :, 3] = x[:, :, 2] + jitter * np.random.default_rng(0).standard_normal(x.shape[:2])
    return cp.Panel(panel.outcomes, x)
