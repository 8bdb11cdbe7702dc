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
    _reads_log_density,
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
_INNER_MAX = 50  # Newton rounds per loading solve


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

    ``index`` is the index at the optimizer's last point, not a read-back
    (``x @ beta + loadings @ factors.T`` up to rounding), and ``loglik``
    its average log likelihood, ``objective_path[-1]``.  ``grad_norm`` is
    the sup-norm of the scaled score blocks (coefficients scaled by 1/(NT),
    each unit's loading block by 1/T), projected at active loading bounds.
    ``objective_path`` records the average log likelihood at the start and
    after every accepted update phase; a coefficient-step entry is the
    objective at the index the next loading solve starts from.
    ``stop_reason`` says why the outer iteration ended: ``"converged"``,
    ``"max_iterations"``, ``"singular_coefficient_system"`` (the
    coefficient Newton system is singular: the coefficients are not
    identified, say a covariate duplicates another),
    ``"coefficient_line_search_failed"`` or ``"no_progress"`` (an outer
    iteration, a coefficient step and the loading solve after it, left the
    objective where it was).  ``loading_rounds`` holds the
    inner Newton rounds of each loading solve, one per outer iteration, and
    ``stalled`` the number of unit line searches that failed in them plus
    the units held out of a coefficient system, whose loading curvature
    block could not be solved.
    ``coefficient_trials`` counts the trials of the coefficient line
    searches, each one full-panel log-density evaluation.
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
    loading_rounds: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    stalled: int = 0
    coefficient_trials: int = 0

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
    """Solve h a = rhs for (batched) negative-definite h; never raises.

    ``np.linalg.solve`` on the batch; if that raises, block by block.  A
    block that is singular or whose solution is not finite comes back all
    NaN, and callers treat a NaN direction as a failed Newton step.
    """
    if h.ndim == 2:  # one system, 1-d rhs: a batch of one
        return _solve_neg_definite(h[None], rhs[None, :, None])[0, :, 0]
    try:
        out = np.linalg.solve(h, rhs)
    except np.linalg.LinAlgError:
        out = np.full(np.shape(rhs), np.nan)
        for i in range(len(h)):
            try:
                out[i] = np.linalg.solve(h[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
    out[~np.isfinite(out).reshape(len(out), -1).all(axis=1)] = np.nan
    return out


def _loading_score(l1, f, lam, bound):
    """Per-unit loading score, zeroed at pinned coordinates, and the pinned mask.

    A coordinate is pinned when it sits at the box bound with an outward score.
    """
    g = l1 @ f
    pinned = (lam >= bound) & (g > 0) | (lam <= -bound) & (g < 0)
    return np.where(pinned, 0.0, g), pinned


def _row_outer(a, b):
    """Each row's outer product a_i b_i', flattened: (m, p), (m, q) -> (m, p*q)."""
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)


def _sum_weighted(w, a):
    """sum of w_m a_m over every leading index m, one GEMV: (...), (..., p) -> (p,)."""
    return w.reshape(-1) @ a.reshape(-1, a.shape[-1])


def _sum_outer(a, b):
    """sum of a_m b_m' over every leading index m, one GEMM: (..., p), (..., q) -> (p, q)."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def _loading_hessian(l2, f, pinned=None):
    """Per-unit curvature sum_t l2 f_t f_t'; pinned rows and columns are zero
    with -1 on the diagonal, so Newton solves leave those coordinates put."""
    h = (l2 @ _row_outer(f, f)).reshape(len(l2), f.shape[1], -1)
    if pinned is not None and pinned.any():
        h[pinned[:, :, None] | pinned[:, None, :]] = 0.0
        unit, coord = np.nonzero(pinned)
        h[unit, coord, coord] = -1.0
    return h


def _line_search(trial, obj, g, step, scale):
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
    for _ in range(_HALVING_MAX):
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


def _solve_loadings(family, y, z_base, z, ld, f, lam, bound, tol):
    """Batched per-unit Newton for the loading subproblems at fixed beta.

    ``z_base`` is the covariate part of the index, ``z`` the start index
    ``z_base + lam @ f.T`` (updated in place) and ``ld`` its log densities,
    which the caller has already evaluated.  Units whose projected
    score meets the tolerance leave the active set, so late iterations
    only touch the stragglers (separated units crawling to the bound).

    The active units' rows (outcomes, index parts, loadings, objectives
    and, for probit, log densities) are kept as compact arrays, gathered
    again only when units leave; a line-search trial over every active
    unit, the first of each round, then works on them with no gather or
    scatter, and an accepted round takes its trial arrays as they are.
    Each cell's log density, l_1 and l_2 are evaluated once per point.  For
    a family whose derivatives read the log density (probit), the line
    search keeps the densities of the points it accepts for the next
    round; for the others keeping them would only cost a copy per trial.
    A unit's point and its l_1 and l_2 rows are stored when it leaves the
    active set; if ``_INNER_MAX`` ends the loop right after accepted steps,
    only those units' rows are evaluated again.
    Returns updated loadings, the per-cell index, per-unit objective sums,
    l_1 and l_2 at that index, the number of unit line searches that
    failed, and the number of rounds.
    """
    n, t = y.shape
    obj = ld.sum(axis=1)
    keep_ld = _reads_log_density(family)
    l1_out, l2_out = np.empty((n, t)), np.empty((n, t))
    n_stalled = 0
    rounds = 0
    # the working set: one row per active unit, never written in place
    act = np.arange(n)
    ya, zba, za, lama, obja = y, z_base, z, lam, obj
    lda = ld if keep_ld else None

    def leave(go, l1, l2):
        """Store the point and derivatives of the active rows ``go``."""
        units = act[go]
        lam[units], z[units], obj[units] = lama[go], za[go], obja[go]
        l1_out[units], l2_out[units] = l1, l2

    for _ in range(_INNER_MAX):
        if act.size == 0:
            break
        rounds += 1
        l1, l2 = _index_derivatives(family, ya, za, 2, lda)
        g, pinned = _loading_score(l1, f, lama, bound)
        live = np.abs(g).max(axis=1) / t > tol
        rows_live = np.flatnonzero(live)
        if rows_live.size < act.size:
            leave(~live, l1[~live], l2[~live])
            act, ya, zba, za, lama, obja = (
                a[rows_live] for a in (act, ya, zba, za, lama, obja))
            lda = lda[rows_live] if keep_ld else None
            g, pinned, l2 = g[rows_live], pinned[rows_live], l2[rows_live]
            if act.size == 0:
                break
        m = act.size
        step = -_solve_neg_definite(_loading_hessian(l2, f, pinned), g[:, :, None])[:, :, 0]
        big = np.abs(step).max(axis=1)
        over = big > _STEP_CAP
        if over.any():
            step[over] *= (_STEP_CAP / big[over])[:, None]

        lam_c = np.empty_like(lama)
        z_c = np.empty((m, t))
        ld_c = np.empty((m, t)) if keep_ld else None

        def trial(rows, step, alpha):
            sel = slice(None) if rows.size == m else rows
            lam_c[sel] = np.clip(lama[sel] + alpha[:, None] * step, -bound, bound)
            z_c[sel] = zba[sel] + lam_c[sel] @ f.T
            d = _log_density_unchecked(family, ya[sel], z_c[sel])
            if keep_ld:
                ld_c[sel] = d
            return d.sum(axis=1)

        _, _, obj_c, ok = _line_search(trial, obja, g, step, t)
        if not ok.all():
            stalled = ~ok
            leave(stalled, l1[rows_live[stalled]], l2[stalled])
            n_stalled += int(stalled.sum())
            act, ya, zba, lam_c, z_c, obj_c = (
                a[ok] for a in (act, ya, zba, lam_c, z_c, obj_c))
            ld_c = ld_c[ok] if keep_ld else None
        lama, za, obja, lda = lam_c, z_c, obj_c, ld_c

    if act.size:
        leave(slice(None), *_index_derivatives(family, ya, za, 2, lda))
    return lam, z, obj, l1_out, l2_out, n_stalled, rounds


def _pooled_beta(family: Family, y, x):
    """Coefficients from a no-loading pooled fit (deterministic warm start),
    with the index ``x @ beta`` and its log densities."""
    n, t, k = x.shape
    beta = np.zeros(k)
    z = z_c = x @ beta
    ld = ld_c = _log_density_unchecked(family, y, z)
    obj = float(ld.sum())
    for _ in range(50):
        l1, l2 = _index_derivatives(family, y, z, 2, ld)
        g = _sum_weighted(l1, x)
        if np.max(np.abs(g)) / (n * t) <= 1e-6:
            break
        h = _sum_outer(x * l2[..., None], x)
        step = -_solve_neg_definite(h, g)

        def trial(rows, step, alpha):
            # the last trial is the accepted one, at the index x @ beta below
            nonlocal z_c, ld_c
            z_c = x @ (beta + alpha * step[0])
            ld_c = _log_density_unchecked(family, y, z_c)
            return ld_c.sum()[None]

        step, alpha, obj_c, ok = _line_search(trial, np.array([obj]), g[None], step[None], n * t)
        if not ok[0]:
            break
        beta = beta + alpha[0] * step[0]
        z, obj, ld = z_c, float(obj_c[0]), ld_c
    return beta, z, ld


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
        system is singular, the coefficient line search fails or an outer
        iteration gains nothing.
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
    # every loading solve starts from densities evaluated here: those of
    # the start, then those of the accepted coefficient trial
    if family is Family.POISSON:
        beta = np.zeros(k)
        margin = 1e-2 * (1.0 + float(y.mean()))
        lam = np.clip(_poisson_feasible_loadings(y, f, margin), -bound, bound)
        z_base = x @ beta
        z = z_base + lam @ f.T
        ld = _log_density_unchecked(family, y, z)
    else:
        # at zero loadings the index is the pooled one, where ld was evaluated
        beta, z_base, ld = _pooled_beta(family, y, x)
        lam = np.zeros((n, r))
        z = z_base + lam @ f.T
    path = [float(ld.mean())]
    if not np.isfinite(path[0]):
        raise InitializationError(f"{family.value} start is infeasible (non-finite objective)")
    stop_reason = "max_iterations"
    grad_norm = np.inf
    iterations = stalled = coefficient_trials = 0
    loading_rounds = []
    obj_last = -np.inf

    for _ in range(opts.max_iterations):
        lam, z, obj_units, l1, l2, n_stalled, rounds = _solve_loadings(
            family, y, z_base, z, ld, f, lam, bound, tol
        )
        stalled += n_stalled
        loading_rounds.append(rounds)
        obj = float(obj_units.sum())
        path.append(obj / (n * t))

        gb = _sum_weighted(l1, x)
        gl, pinned = _loading_score(l1, f, lam, bound)
        grad_norm = max(float(np.abs(gb).max()) / (n * t), float(np.abs(gl).max()) / t)

        # profile Newton step for the coefficients, pinned loadings held
        # fixed; solved before the stop tests, so that a fit whose
        # coefficients are not identified never reports convergence
        xw = x * l2[..., None]
        hlb = f.T @ xw  # per-unit sum_t l2 f_t x_t'
        if pinned.any():
            hlb = np.where(pinned[:, :, None], 0.0, hlb)
        hll = _loading_hessian(l2, f, pinned)
        t1 = _solve_neg_definite(hll, hlb)  # Hll^-1 Hlb
        t2 = _solve_neg_definite(hll, gl[:, :, None])[:, :, 0]
        # a unit whose block cannot be solved (all NaN) is held in this step,
        # as a pinned coordinate is: its rows leave the Schur system
        held = np.isnan(t1[:, 0, 0]) | np.isnan(t2[:, 0])
        t1[held], t2[held] = 0.0, 0.0
        stalled += int(held.sum())
        schur = _sum_outer(xw, x) - _sum_outer(hlb, t1)
        rhs = gb - _sum_weighted(t2, hlb)
        db = -_solve_neg_definite(schur, rhs)
        if not np.all(np.isfinite(db)):
            stop_reason = "singular_coefficient_system"
            break
        if grad_norm <= tol:
            stop_reason = "converged"
            break
        # the last coefficient step and this loading solve gained nothing, as
        # at a Poisson MLE on the domain edge, where further iterations take
        # steps of rounding size at dozens of line-search trials each
        if obj <= obj_last:
            stop_reason = "no_progress"
            break
        obj_last = obj

        # the trial index is summed as the next loading solve would sum it
        # at entry, so the accepted (last) trial hands over its densities
        lam_f, x_step = lam @ f.T, None
        z_base_c = z_c = ld_c = None

        def trial(rows, step, alpha):
            nonlocal x_step, z_base_c, z_c, ld_c, coefficient_trials
            if x_step is None:  # the search direction is fixed within a search
                x_step = x @ step[0]
            z_base_c = z_base + alpha[0] * x_step
            z_c = z_base_c + lam_f
            ld_c = _log_density_unchecked(family, y, z_c)
            coefficient_trials += 1
            return ld_c.sum()[None]

        db, alpha, obj_c, ok = _line_search(trial, np.array([obj]), gb[None], db[None], n * t)
        if not ok[0]:
            stop_reason = "coefficient_line_search_failed"
            break
        beta = beta + alpha[0] * db[0]
        z_base, z, ld = z_base_c, z_c, ld_c
        iterations += 1
        path.append(float(obj_c[0]) / (n * t))

    bound_hits = int(np.sum(np.any(np.abs(lam) >= bound, axis=1)))
    return CceFit(
        beta=beta,
        loadings=lam,
        index=z,
        loglik=path[-1],
        grad_norm=float(grad_norm),
        iterations=iterations,
        stop_reason=stop_reason,
        bound_hits=bound_hits,
        objective_path=np.asarray(path),
        loading_rounds=np.asarray(loading_rounds, dtype=int),
        stalled=stalled,
        coefficient_trials=coefficient_trials,
    )

