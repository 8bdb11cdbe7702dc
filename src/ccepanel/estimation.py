"""Second estimation step: joint MLE of coefficients and factor loadings.

Given estimated factors, the sample average log likelihood is maximized
over the common coefficient vector and one loading vector per unit by
block alternation: every unit's loading subproblem is solved by its own
damped Newton iteration (batched across units, each with its own
backtracking line search), then the coefficients take a Newton step whose
curvature matrix is the Schur complement of the loading blocks -- the
Hessian of the profile objective -- so the outer loop inherits Newton
convergence.  For logit, probit, and gaussian families the objective is
concave given the factors and the stationary point is the global maximum.

Loadings live in the box |lambda_ij| <= loading_bound.  Binary units whose
outcomes the index can perfectly separate push their loadings outward;
steps are capped per iteration.  A coordinate at the bound whose score
points outward is pinned: it leaves the Newton systems and the convergence
test, so a fit with separated units can still converge in the KKT sense.
Units with a loading at the bound are counted in ``bound_hits``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import InitializationError, InvalidInputError
from .factors import FactorEstimate
from .likelihood import (
    Family,
    _index_derivatives,
    _log_density_unchecked,
    log_density,
    validate_outcomes,
)
from .panel import Panel

_ARMIJO = 1e-4
_STEP_CAP = 16.0  # max loading move per inner iteration, per coordinate
# Sufficient-increase tests run at objective values of order N*T; gains of a
# final Newton polish sit below the floating resolution of those sums, so the
# tests allow rounding-level slack instead of rejecting the step.
_EPS_SLACK = 64.0 * np.finfo(float).eps
_HALVING_MAX = 50  # step halvings per line search


@dataclass
class FitOptions:
    """Optimizer knobs; defaults suit panels up to a few hundred units/periods."""

    grad_tolerance: float = 1e-8
    max_iterations: int = 200
    loading_bound: float = 1e3

    def __post_init__(self):
        for name in ("grad_tolerance", "max_iterations", "loading_bound"):
            if not getattr(self, name) > 0:  # NaN fails this too
                raise InvalidInputError(f"FitOptions.{name} must be positive")
        if not np.isfinite(self.grad_tolerance):
            raise InvalidInputError("FitOptions.grad_tolerance must be finite")
        if not isinstance(self.max_iterations, (int, np.integer)):
            raise InvalidInputError("FitOptions.max_iterations must be an integer")


@dataclass
class CceFit:
    """Converged (or best-effort) two-step fit.

    ``index`` is always consistent with (beta, loadings, factors) at
    read-back.  ``grad_norm`` is the sup-norm of the scaled score blocks
    (coefficients scaled by 1/(NT), each unit's loading block by 1/T),
    projected at active loading bounds.  ``objective_path`` records the
    average log likelihood after every accepted update phase.
    ``stop_reason`` says why the outer iteration ended: ``"converged"``,
    ``"max_iterations"``, ``"singular_coefficient_system"`` (the
    coefficient Newton system could not be solved) or
    ``"coefficient_line_search_failed"``.
    """

    beta: np.ndarray
    loadings: np.ndarray
    index: np.ndarray
    loglik: float
    grad_norm: float
    iterations: int
    stop_reason: str
    bound_hits: int = 0
    objective_path: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def _check_dimensions(panel: Panel, factors: FactorEstimate, beta, loadings):
    n, t, k = panel.covariates.shape
    f = factors.factors
    if f.shape[0] != t:
        raise InvalidInputError(f"factors have {f.shape[0]} periods but panel has {t}")
    beta = np.asarray(beta, dtype=float)
    loadings = np.asarray(loadings, dtype=float)
    if beta.shape != (k,):
        raise InvalidInputError(f"beta must have shape ({k},), got {beta.shape}")
    if loadings.shape != (n, factors.r):
        raise InvalidInputError(
            f"loadings must have shape ({n}, {factors.r}), got {loadings.shape}"
        )
    return beta, loadings


def objective(panel: Panel, factors: FactorEstimate, family: Family, beta, loadings) -> float:
    """Average log likelihood over all N*T cells at the given parameters."""
    beta, loadings = _check_dimensions(panel, factors, beta, loadings)
    z = panel.covariates @ beta + loadings @ factors.factors.T
    return float(log_density(family, panel.outcomes, z).mean())


def _solve_neg_definite(h, rhs):
    """Solve h a = rhs for (batched) negative-definite h, with ridge fallback.

    Never raises: when even the ridged solve fails, the blocks it could not
    solve come back NaN (all of them if it raises), and callers treat a NaN
    direction as a failed Newton step.
    """
    try:
        out = np.linalg.solve(h, rhs)
        if np.all(np.isfinite(out)):
            return out
    except np.linalg.LinAlgError:
        pass
    diag = np.abs(np.diagonal(h, axis1=-2, axis2=-1)).max(axis=-1)
    ridge = 1e-10 * (1.0 + diag)
    eye = np.eye(h.shape[-1])
    h_reg = h - (ridge[..., None, None] * eye if h.ndim == 3 else ridge * eye)
    try:
        return np.linalg.solve(h_reg, rhs)
    except np.linalg.LinAlgError:
        return np.full(np.shape(rhs), np.nan)


def _loading_score(l1, f, lam, bound):
    """Per-unit loading score, zeroed at pinned coordinates, and the pinned mask.

    A coordinate is pinned when it sits at the box bound with an outward score.
    """
    g = l1 @ f
    pinned = (lam >= bound) & (g > 0) | (lam <= -bound) & (g < 0)
    return np.where(pinned, 0.0, g), pinned


def _loading_hessian(l2, f, pinned):
    """Per-unit curvature sum_t l2 f_t f_t'; pinned rows and columns are zero
    with -1 on the diagonal, so Newton solves leave those coordinates put."""
    h = np.einsum("nt,tr,ts->nrs", l2, f, f, optimize=True)
    if pinned.any():
        h[pinned[:, :, None] | pinned[:, None, :]] = 0.0
        unit, coord = np.nonzero(pinned)
        h[unit, coord, coord] = -1.0
    return h


def _line_search(trial, obj, g, step, scale, halving_max):
    """Batched backtracking Armijo search, one row per subproblem.

    Rows whose ``step`` is not an ascent direction for the score ``g`` (a
    NaN step included) search along ``g / scale``; rows without a positive
    slope even then are not accepted.  ``trial(rows, step, alpha)`` gives those rows'
    objectives at ``alpha * step`` (-inf outside the domain); alpha halves
    from 1 until the sufficient-increase test passes up to rounding-level
    slack.  Returns steps, step sizes, objectives and accepted rows.
    """
    step = np.where((np.sum(g * step, axis=1) > 0)[:, None], step, g / scale)
    slope = np.sum(g * step, axis=1)
    alpha, obj = np.ones(obj.size), obj.copy()
    pending = slope > 0
    for _ in range(halving_max):
        rows = np.flatnonzero(pending)
        if rows.size == 0:
            break
        obj_trial = trial(rows, step[rows], alpha[rows])
        slack = _EPS_SLACK * (1.0 + np.abs(obj[rows]))
        ok = np.isfinite(obj_trial) & (
            obj_trial >= obj[rows] + _ARMIJO * alpha[rows] * slope[rows] - slack
        )
        obj[rows[ok]] = obj_trial[ok]
        pending[rows[ok]] = False
        alpha[rows[~ok]] *= 0.5
    return step, alpha, obj, (slope > 0) & ~pending


def _solve_loadings(family, y, z_base, f, lam, bound, tol, inner_max):
    """Batched per-unit Newton for the loading subproblems at fixed beta.

    ``z_base`` is the covariate part of the index.  Units whose projected
    score meets the tolerance leave the active set, so late iterations
    only touch the stragglers (separated units crawling to the bound).
    Returns updated loadings, the per-cell index, per-unit objective sums,
    and the number of units whose line search stalled.
    """
    n, t = y.shape
    z = z_base + lam @ f.T
    obj = _log_density_unchecked(family, y, z).sum(axis=1)
    n_stalled = 0
    act = np.arange(n)
    rounds = 0

    for _ in range(inner_max):
        if act.size == 0:
            break
        rounds += 1
        l1, l2 = _index_derivatives(family, y[act], z[act], 2)
        g, pinned = _loading_score(l1, f, lam[act], bound)
        live = np.abs(g).max(axis=1) / t > tol
        act, g, pinned, l2 = act[live], g[live], pinned[live], l2[live]
        if act.size == 0:
            break
        ya, lama = y[act], lam[act]
        step = -_solve_neg_definite(_loading_hessian(l2, f, pinned), g[:, :, None])[:, :, 0]
        big = np.abs(step).max(axis=1)
        over = big > _STEP_CAP
        if over.any():
            step[over] *= (_STEP_CAP / big[over])[:, None]

        lam_c, z_c = np.empty_like(lama), np.empty((act.size, t))

        def trial(rows, step, alpha):
            lam_c[rows] = np.clip(lama[rows] + alpha[:, None] * step, -bound, bound)
            z_c[rows] = z_base[act[rows]] + lam_c[rows] @ f.T
            return _log_density_unchecked(family, ya[rows], z_c[rows]).sum(axis=1)

        _, _, obj[act], ok = _line_search(trial, obj[act], g, step, t, _HALVING_MAX)
        lam[act[ok]] = lam_c[ok]
        z[act[ok]] = z_c[ok]
        n_stalled += int((~ok).sum())
        act = act[ok]

    return lam, z, obj, n_stalled, rounds


def _pooled_beta(family: Family, y, x) -> np.ndarray:
    """Coefficients from a no-loading pooled fit (deterministic warm start)."""
    n, t, k = x.shape
    if family is Family.GAUSSIAN:
        return np.linalg.lstsq(x.reshape(n * t, k), y.reshape(n * t), rcond=None)[0]
    beta = np.zeros(k)
    z = x @ beta
    obj = float(_log_density_unchecked(family, y, z).sum())
    for _ in range(50):
        l1, l2 = _index_derivatives(family, y, z, 2)
        g = np.einsum("nt,ntk->k", l1, x)
        if np.max(np.abs(g)) / (n * t) <= 1e-6:
            break
        h = np.einsum("nt,ntk,ntl->kl", l2, x, x, optimize=True)
        step = -_solve_neg_definite(h, g)

        def trial(rows, step, alpha):
            return _log_density_unchecked(family, y, x @ (beta + alpha * step[0])).sum()[None]

        step, alpha, obj_c, ok = _line_search(
            trial, np.array([obj]), g[None], step[None], n * t, _HALVING_MAX
        )
        if not ok[0]:
            break
        beta = beta + alpha[0] * step[0]
        z, obj = x @ beta, float(obj_c[0])
    return beta


def _poisson_feasible_loadings(y, f, margin):
    """Initial loadings with a strictly positive index everywhere (beta = 0).

    Starts from per-unit least squares of the outcomes on the factors and,
    if needed, shifts every unit along the direction whose factor
    projection is positive in all periods.
    """
    ftf = f.T @ f
    try:
        lam = np.linalg.solve(ftf, f.T @ y.T).T  # (N, r)
    except np.linalg.LinAlgError as exc:
        raise InitializationError(f"factor gram matrix is singular: {exc}") from exc
    z = lam @ f.T
    if np.all(z.min(axis=1) > margin):
        return lam
    shift_dir = np.linalg.solve(ftf, f.sum(axis=0))
    s = f @ shift_dir
    if s.min() <= 1e-8:
        raise InitializationError(
            "cannot construct a positive poisson index: no factor combination "
            "is positive in every period"
        )
    need = (margin - z) / s
    c = np.maximum(need.max(axis=1), 0.0)
    return lam + c[:, None] * shift_dir


def fit_cce(
    panel: Panel,
    factors: FactorEstimate,
    family: Family,
    opts: FitOptions | None = None,
) -> CceFit:
    """Maximize the average log likelihood over coefficients and loadings.

    Parameters
    ----------
    panel : Panel
    factors : FactorEstimate
        First-step factors; only ``factors.factors`` enters the objective.
    family : Family
    opts : FitOptions, optional

    Returns
    -------
    CceFit
        With ``converged=False`` (never an exception) and the cause in
        ``stop_reason`` when the iteration cap is reached, the coefficient
        system is singular or the coefficient line search fails.
    """
    opts = opts or FitOptions()
    y = panel.outcomes
    x = panel.covariates
    f = factors.factors
    n, t, k = x.shape
    r = factors.r
    if r > k:
        raise InvalidInputError(f"number of factors r={r} exceeds k={k}")
    if f.shape[0] != t:
        raise InvalidInputError("factors and panel disagree on the number of periods")
    validate_outcomes(family, y)

    bound = opts.loading_bound
    tol = opts.grad_tolerance
    if family is Family.POISSON:
        beta = np.zeros(k)
        margin = 1e-2 * (1.0 + float(y.mean()))
        lam = np.clip(_poisson_feasible_loadings(y, f, margin), -bound, bound)
    else:
        beta = _pooled_beta(family, y, x)
        lam = np.zeros((n, r))

    z_base = x @ beta
    path = [float(_log_density_unchecked(family, y, z_base + lam @ f.T).mean())]
    if not np.isfinite(path[0]):
        raise InitializationError(f"{family.value} start is infeasible (non-finite objective)")
    stop_reason = "max_iterations"
    grad_norm = np.inf
    iterations = 0

    for _ in range(opts.max_iterations):
        lam, z, obj_units, _, _ = _solve_loadings(
            family, y, z_base, f, lam, bound, tol, inner_max=50
        )
        obj = float(obj_units.sum())
        path.append(obj / (n * t))

        l1, l2 = _index_derivatives(family, y, z, 2)
        gb = np.einsum("nt,ntk->k", l1, x)
        gl, pinned = _loading_score(l1, f, lam, bound)
        grad_norm = max(float(np.abs(gb).max()) / (n * t), float(np.abs(gl).max()) / t)
        if grad_norm <= tol:
            stop_reason = "converged"
            break

        # profile Newton step for the coefficients, pinned loadings held fixed
        hb = np.einsum("nt,ntk,ntl->kl", l2, x, x, optimize=True)
        hbl = np.einsum("nt,ntk,tr->nkr", l2, x, f, optimize=True)
        if pinned.any():
            hbl = np.where(pinned[:, None, :], 0.0, hbl)
        hll = _loading_hessian(l2, f, pinned)
        t1 = _solve_neg_definite(hll, hbl.transpose(0, 2, 1))  # Hll^-1 Hlb
        t2 = _solve_neg_definite(hll, gl[:, :, None])[:, :, 0]
        schur = hb - np.einsum("nkr,nrl->kl", hbl, t1)
        rhs = gb - np.einsum("nkr,nr->k", hbl, t2)
        db = -_solve_neg_definite(schur, rhs)
        if not np.all(np.isfinite(db)):
            stop_reason = "singular_coefficient_system"
            break

        def trial(rows, step, alpha):
            z_c = z + alpha[0] * (x @ step[0])
            return np.array([_log_density_unchecked(family, y, z_c).sum()])

        db, alpha, obj_c, ok = _line_search(
            trial, np.array([obj]), gb[None], db[None], n * t, _HALVING_MAX
        )
        if not ok[0]:
            stop_reason = "coefficient_line_search_failed"
            break
        beta = beta + alpha[0] * db[0]
        z_base = z_base + alpha[0] * (x @ db[0])
        iterations += 1
        path.append(float(obj_c[0]) / (n * t))

    index = x @ beta + lam @ f.T
    bound_hits = int(np.sum(np.any(np.abs(lam) >= bound, axis=1)))
    return CceFit(
        beta=beta,
        loadings=lam,
        index=index,
        loglik=float(_log_density_unchecked(family, y, index).mean()),
        grad_norm=float(grad_norm),
        iterations=iterations,
        stop_reason=stop_reason,
        bound_hits=bound_hits,
        objective_path=np.asarray(path),
    )

