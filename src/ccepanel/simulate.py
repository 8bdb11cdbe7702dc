"""Monte Carlo harness: the benchmark logit data generating process and a
replication grid over panel sizes and estimators.

The DGP has two AR(1) factors, four covariates (two factor-loaded, two
idiosyncratic), standard-normal loadings and slopes centered at one, unit
coefficients, and a logistic threshold outcome.  Covariate noise is either
i.i.d. standard normal or an AR(1) with coefficient 0.6.  Replication
seeds are derived from (base seed, cell, replication index), so results
are invariant to execution order and to the degree of parallelism.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import os
from dataclasses import dataclass, field

import numpy as np

from .bias import compute_beta_bias, correct_beta
from .estimation import FitOptions, fit_cce
from .exceptions import InvalidInputError, NumericalError
from .factors import estimate_factors
from .inference import beta_covariance
from .jackknife import spj
from .likelihood import Family
from .panel import Panel, write_panel_csv

TRUE_BETA = np.ones(4)
TRUE_RANK = 2
_FACTOR_CONST = np.array([0.3, 0.6])
_FACTOR_AR = np.array([0.7, 0.4])
_NOISE_AR = 0.6
_BURN_IN = 100  # AR(1) periods drawn and discarded before the first kept one
ESTIMATORS = ("raw", "abc", "spj")

# Binary units whose outcomes never vary have divergent loadings; the
# plug-in bias pieces grow with wherever the optimizer leaves them, so the
# replication harness stops such units where standard GLM software
# effectively does (index magnitudes ~ 30, far beyond any identified
# loading in this DGP) instead of at the loose library default.
_FIT_OPTIONS = FitOptions(loading_bound=30.0)


@dataclass(frozen=True)
class DgpConfig:
    """One simulated panel's parameters; ``serial=True`` switches the
    covariate noise from i.i.d. to AR(1)."""

    n_units: int
    n_periods: int
    serial: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n_units < 4 or self.n_periods < 4:
            raise InvalidInputError("DGP needs N >= 4 and T >= 4")


@dataclass(frozen=True)
class DgpDraw:
    """One panel drawn at coefficients ``TRUE_BETA``."""

    panel: Panel
    true_index: np.ndarray  # interactive effects lambda'f, (N,T)


def generate(config: DgpConfig) -> DgpDraw:
    """Draw one panel; deterministic given the seed."""
    rng = np.random.default_rng(config.seed)
    n, t, burn = config.n_units, config.n_periods, _BURN_IN

    shocks = rng.standard_normal((burn + t, 2))
    f_full = np.empty((burn + t, 2))
    state = np.array([1.0, 1.0])  # stationary means of both factor processes
    for s in range(burn + t):
        state = _FACTOR_CONST + _FACTOR_AR * state + shocks[s]
        f_full[s] = state
    f = f_full[burn:]

    lam = rng.normal(1.0, 1.0, size=(n, 2))
    theta = rng.normal(1.0, 1.0, size=(n, 2))

    if config.serial:
        h = rng.standard_normal((n, burn + t, 4))
        e_full = np.empty((n, burn + t, 4))
        prev = np.zeros((n, 4))
        for s in range(burn + t):
            prev = _NOISE_AR * prev + h[:, s]
            e_full[:, s] = prev
        e = e_full[:, burn:]
    else:
        e = rng.standard_normal((n, t, 4))

    x = np.empty((n, t, 4))
    x[:, :, 0] = theta[:, :1] * f[:, 0] + f[:, 1] + e[:, :, 0]
    x[:, :, 1] = theta[:, 1:] * f[:, 1] + e[:, :, 1]
    x[:, :, 2] = 1.5 * e[:, :, 2]
    x[:, :, 3] = e[:, :, 3]

    c0 = lam @ f.T
    index = x @ TRUE_BETA + c0
    eps = rng.logistic(0.0, 1.0, size=(n, t))
    y = (index - eps >= 0.0).astype(float)
    return DgpDraw(panel=Panel(y, x), true_index=c0)


def replication_seed(base_seed: int, n: int, t: int, serial: bool, rep: int) -> int:
    """Counter-based 64-bit seed: stable under execution order and parallelism."""
    ss = np.random.SeedSequence(entropy=(int(base_seed), n, t, int(serial), rep))
    lo, hi = ss.generate_state(2, dtype=np.uint32)
    return int(lo) | (int(hi) << 32)


@dataclass
class McCell:
    """Aggregated results for one (size, bandwidth, estimator) cell."""

    n_units: int
    n_periods: int
    serial: bool
    bandwidth: int
    estimator: str
    bias: float
    std_error: float
    coverage95: float
    n_reps: int
    n_failed: int

    @property
    def flagged(self) -> bool:
        """More than 5% of the requested replications failed."""
        return self.n_failed > 0.05 * (self.n_reps + self.n_failed)


@dataclass
class McTable:
    rows: list = field(default_factory=list)

    def cell(self, n: int, t: int, bandwidth: int, estimator: str) -> McCell:
        for row in self.rows:
            if (
                row.n_units == n
                and row.n_periods == t
                and row.bandwidth == bandwidth
                and row.estimator == estimator
            ):
                return row
        raise KeyError(f"no cell ({n}, {t}, L={bandwidth}, {estimator})")

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["n", "t", "serial", "bandwidth", "estimator", "bias",
             "std_error", "coverage95", "n_reps", "n_failed", "flagged"]
        )
        for r in self.rows:
            writer.writerow(
                [r.n_units, r.n_periods, int(r.serial), r.bandwidth, r.estimator,
                 repr(float(r.bias)), repr(float(r.std_error)), repr(float(r.coverage95)),
                 r.n_reps, r.n_failed, int(r.flagged)]
            )
        return buf.getvalue()

    def to_text(self) -> str:
        head = (
            f"{'N':>5} {'T':>5} {'L':>3} {'estimator':>9} {'bias':>9} "
            f"{'sd':>9} {'cover95':>8} {'reps':>5} {'fail':>5}"
        )
        lines = [head, "-" * len(head)]
        for r in self.rows:
            flag = " *" if r.flagged else ""
            lines.append(
                f"{r.n_units:>5} {r.n_periods:>5} {r.bandwidth:>3} {r.estimator:>9} "
                f"{r.bias:>9.4f} {r.std_error:>9.4f} {r.coverage95:>8.3f} "
                f"{r.n_reps:>5} {r.n_failed:>5}{flag}"
            )
        return "\n".join(lines)


def _replicate_once(base_seed, n, t, serial, l_values, estimators, rep, emit_dir=None):
    """One full replication: {bandwidth: {estimator: (error, covered)}},
    empty when the full-panel fit does not converge."""
    seed = replication_seed(base_seed, n, t, serial, rep)
    draw = generate(DgpConfig(n_units=n, n_periods=t, serial=serial, seed=seed))
    panel = draw.panel
    if emit_dir is not None:
        write_panel_csv(panel, os.path.join(emit_dir, f"panel_n{n}_t{t}_rep{rep:04d}.csv"))

    family = Family.LOGIT
    fe = estimate_factors(panel, TRUE_RANK)
    fit = fit_cce(panel, fe, family, _FIT_OPTIONS)
    if not fit.converged:
        return {}
    err_raw = float(fit.beta[0] - TRUE_BETA[0])

    spj_value = None
    if "spj" in estimators:
        spj_beta = spj(panel, family, TRUE_RANK, _FIT_OPTIONS, full=(fe, fit))[0]
        if spj_beta.converged:
            spj_value = spj_beta.corrected[0]

    records = {}
    for bw in l_values:
        try:
            bias = compute_beta_bias(panel, fit, fe, family, bandwidth=bw)
            inf = beta_covariance(panel, fit, fe, family, bias, bandwidth=bw)
        except NumericalError:
            continue  # conditioning failure: rep counts as failed for this bandwidth
        half_width = 1.959963984540054 * float(inf.std_errors[0])
        rec = {}
        if "raw" in estimators:
            rec["raw"] = (err_raw, abs(err_raw) <= half_width)
        if "abc" in estimators:
            err_abc = float(correct_beta(fit, bias, n, t)[0] - TRUE_BETA[0])
            rec["abc"] = (err_abc, abs(err_abc) <= half_width)
        if "spj" in estimators and spj_value is not None:
            err_spj = float(spj_value - TRUE_BETA[0])
            rec["spj"] = (err_spj, abs(err_spj) <= half_width)
        records[bw] = rec
    return records


def _worker(packed):
    return _replicate_once(*packed)


def run_grid(
    sizes,
    serial: bool,
    l_values,
    n_reps: int,
    estimators=ESTIMATORS,
    base_seed: int = 0,
    n_jobs: int = 1,
    emit_dir: str | None = None,
) -> McTable:
    """Replication study over panel sizes; reports the first coefficient.

    Parameters
    ----------
    sizes : iterable of (N, T)
    serial : bool
        Covariate-noise case of the DGP.
    l_values : iterable of int
        HAC bandwidths; the same draws are reused across bandwidths.
    n_reps : int
    estimators : non-empty subset of {"raw", "abc", "spj"}
    base_seed : int
    n_jobs : int
        Worker processes, at least 1; replication seeds make the output
        identical for any value.
    emit_dir : str, optional
        Directory receiving one long-format CSV per generated panel.

    Returns
    -------
    McTable
        Mean bias, the Monte Carlo standard deviation of the point
        estimates, and empirical 95% CI coverage per cell; replications
        whose fits fail to converge are counted and excluded, and a cell
        is flagged when more than 5% of its replications failed.
    """
    if n_reps < 1:
        raise InvalidInputError("n_reps must be at least 1")
    if n_jobs < 1:
        raise InvalidInputError(f"n_jobs must be at least 1, got {n_jobs}")
    if not estimators:
        raise InvalidInputError("no estimators requested")
    bad = set(estimators) - set(ESTIMATORS)
    if bad:
        raise InvalidInputError(f"unknown estimators: {sorted(bad)}")
    l_values = [int(v) for v in l_values]
    if min(l_values, default=0) < 0:
        raise InvalidInputError(f"bandwidths must be non-negative, got {l_values}")
    if emit_dir is not None:
        os.makedirs(emit_dir, exist_ok=True)

    table = McTable()
    for n, t in sizes:
        tasks = [
            (base_seed, n, t, serial, tuple(l_values), tuple(estimators), rep, emit_dir)
            for rep in range(n_reps)
        ]
        if n_jobs > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=n_jobs) as pool:
                results = list(pool.map(_worker, tasks, chunksize=max(1, n_reps // (4 * n_jobs))))
        else:
            results = [_replicate_once(*task) for task in tasks]

        for bw in l_values:
            for est in estimators:
                kept = [rec[bw][est] for rec in results if est in rec.get(bw, {})]
                errs = [err for err, _ in kept]
                covers = [cover for _, cover in kept]
                used = len(kept)
                table.rows.append(
                    McCell(
                        n_units=n,
                        n_periods=t,
                        serial=serial,
                        bandwidth=bw,
                        estimator=est,
                        bias=float(np.mean(errs)) if used else float("nan"),
                        std_error=float(np.std(errs, ddof=1)) if used > 1 else float("nan"),
                        coverage95=float(np.mean(covers)) if used else float("nan"),
                        n_reps=used,
                        n_failed=n_reps - used,
                    )
                )
    return table
