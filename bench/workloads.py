"""The benchmark's workloads.

Each workload drives ccepanel only through public entry points
(``run_grid``, the ``ccepanel estimate`` command, the library functions of
the README) and replays a fixed list of inputs derived from the workload
seed.  ``construct(seed)`` makes the inputs at set-up, ``prepare(j)``
readies input j outside the timed interval, and ``op(j)`` runs operation j
and returns ``(values, errors)``: the named estimates that are compared
with the reference, and the correctness checks that failed.
"""

from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
import zlib

import numpy as np

import ccepanel as cp
from tracing import binders

HERE = os.path.dirname(os.path.abspath(__file__))
RANK = 2  # factors in the package's DGP
K = 4  # covariates in the package's DGP
TRUE_BETA = np.ones(K)
FIT_OPTIONS = cp.FitOptions(loading_bound=30.0)
CLI_ENTRY = "import sys; from ccepanel.cli import main; sys.exit(main())"
# |corrected - (3 full - sum(half units)/2 - sum(half periods)/2)|
SPJ_IDENTITY_TOL = 1e-12


def derive_seeds(seed: int, tag: str, count: int) -> list[int]:
    """``count`` input seeds determined by the workload seed and name."""
    ss = np.random.SeedSequence([seed, zlib.crc32(tag.encode())])
    return [int(v) for v in ss.generate_state(count, dtype=np.uint64)]


def spj_identity(full, half_units, half_periods):
    return (3.0 * np.asarray(full) - 0.5 * np.sum(half_units, axis=0)
            - 0.5 * np.sum(half_periods, axis=0))


def non_finite(values: dict) -> list[str]:
    return [k for k, v in values.items() if not all(math.isfinite(x) for x in v)]


def outside(name, point, lo, hi) -> list[str]:
    return [f"{name}[{i}] CI [{a}, {b}] misses its point {p}"
            for i, (p, a, b) in enumerate(zip(point, lo, hi)) if not a <= p <= b]


def panel_bytes(n: int, t: int) -> int:
    """Computed size of one panel's arrays: outcomes (N,T) + covariates (N,T,k)."""
    return 8 * n * t * (1 + K)


class McLogitAr1:
    """One op is two replications of the paper's serial-noise table cell."""

    name = "mc_logit_ar1"
    ops_in_child = False
    family = cp.Family.LOGIT
    shape = (200, 100)
    n_inputs = 96
    # Two replications an op, not one: a replication's fits take 4 to 19
    # outer iterations, so single-replication op times are spread wide and
    # lumpy, and the median op time of 40 replications moved 12% (quartile
    # spread over ten seeds) with the inputs alone; that of 20 pairs, 7.5%.
    reps = 2

    def __init__(self, workdir: str):
        # The SPJ identity is checked on the fits of each replication, so
        # every fit_cce result is observed, with its panel's shape, at every
        # name a caller can look fit_cce up by.  The observer takes no timings.
        self._fits = []
        for module in binders("fit_cce"):
            module.fit_cce = self._observed(module.fit_cce)

    def _observed(self, fit_cce):
        @functools.wraps(fit_cce)
        def observed(panel, *args, **kwargs):
            fit = fit_cce(panel, *args, **kwargs)
            self._fits.append((panel.outcomes.shape, fit))
            return fit

        return observed

    def construct(self, seed: int):
        self.inputs = derive_seeds(seed, self.name, self.n_inputs)

    def prepare(self, j: int):
        """Nothing: run_grid draws its panel inside the op."""

    def sizes(self) -> dict:
        n, t = self.shape
        return {"panel": f"{n}x{t}x{K}", "panels_resident": 1,
                "computed_panel_bytes": panel_bytes(n, t)}

    def op(self, j: int, tracer=None):
        self._fits.clear()
        r = self.reps
        table = cp.run_grid([self.shape], serial=True, l_values=[1], n_reps=r,
                            estimators=("raw", "abc", "spj"),
                            base_seed=self.inputs[j % self.n_inputs])
        n, t = self.shape
        role = {(n, t): "full", (n // 2, t): "half_units", (n, t // 2): "half_periods"}
        fits = {"full": [], "half_units": [], "half_periods": []}
        for shape, fit in self._fits:
            fits.setdefault(role.get(shape, f"other {shape}"), []).append(fit)
        counts = {k: len(v) for k, v in fits.items()}
        if counts != {"full": r, "half_units": 2 * r, "half_periods": 2 * r}:
            return {}, [f"expected {r} full-panel fits and {2 * r} of each half, saw {counts}"]
        errors = [f"{k} fit {i} did not converge"
                  for k, v in fits.items() for i, f in enumerate(v) if not f.converged]
        values = {"beta_full": [float(v) for f in fits["full"] for v in f.beta]}
        for est in ("raw", "abc", "spj"):
            row = table.cell(*self.shape, 1, est)
            if row.n_reps != r or row.n_failed:
                errors.append(f"{est}: replication failed (n_failed={row.n_failed})")
            if not 0.0 <= row.coverage95 <= 1.0:
                errors.append(f"{est}: coverage {row.coverage95} outside [0, 1]")
            values[est] = [float(row.bias + TRUE_BETA[0])]
        errors += [f"{k} is not finite" for k in non_finite(values)]
        # The table holds means over the op's replications.
        raw = np.mean([f.beta[0] for f in fits["full"]])
        if abs(values["raw"][0] - raw) > SPJ_IDENTITY_TOL:
            errors.append("raw estimate differs from the full-panel fits")
        spj = spj_identity(raw, [f.beta[0] / r for f in fits["half_units"]],
                           [f.beta[0] / r for f in fits["half_periods"]])
        if not abs(spj - values["spj"][0]) <= SPJ_IDENTITY_TOL:
            errors.append(f"SPJ identity: {values['spj'][0]} != {spj}")
        return values, errors


class CliSpjCsv:
    """One op is one fresh-process ``ccepanel estimate --correction spj``
    on one of a few 100k-row CSVs written at set-up, taken in turn."""

    name = "cli_spj_csv"
    ops_in_child = True
    family = cp.Family.LOGIT
    # 250x400 rather than 500x200 (the same 100k rows): at T=200 the
    # period halves of most panels take 12-19 outer iterations instead of
    # 4, so op times split into two modes (about 3.2 and 5 s) and the
    # median of a run's few ops jumps between them from seed to seed.
    shape = (250, 400)
    n_inputs = 4

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.paths = [os.path.join(workdir, f"panel{i}.csv") for i in range(self.n_inputs)]
        self.report_path = os.path.join(workdir, "report.json")
        self.trace_path = os.path.join(workdir, "spans.json")

    def construct(self, seed: int):
        for path, s in zip(self.paths, derive_seeds(seed, self.name, self.n_inputs)):
            draw = cp.generate(cp.DgpConfig(*self.shape, serial=True, seed=s))
            cp.write_panel_csv(draw.panel, path)

    def prepare(self, j: int):
        """Nothing: the CSVs are written at set-up."""

    def sizes(self) -> dict:
        n, t = self.shape
        return {"panel": f"{n}x{t}x{K}", "panels_resident": 1,
                "computed_panel_bytes": panel_bytes(n, t), "csv_files": self.n_inputs,
                "csv_bytes": [os.path.getsize(p) for p in self.paths]}

    def command(self, j: int, traced: bool) -> list[str]:
        args = ["estimate", "--input", self.paths[j % self.n_inputs], "--family", "logit",
                "--correction", "spj", "--bandwidth", "1",
                "--policy-x0", "0,0,0,0", "--policy-x1", "1,0,0,0", "--json", self.report_path]
        if traced:
            return [sys.executable, os.path.join(HERE, "cli_child.py"), self.trace_path] + args
        return [sys.executable, "-c", CLI_ENTRY] + args

    def op(self, j: int, tracer=None):
        for path in (self.report_path, self.trace_path):
            if os.path.exists(path):
                os.remove(path)
        proc = subprocess.run(self.command(j, tracer is not None), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=100)
        if tracer is not None and os.path.exists(self.trace_path):
            with open(self.trace_path, encoding="utf-8") as fh:
                tracer.absorb(json.load(fh))
        if proc.returncode != 0:
            return {}, [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        with open(self.report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        beta, ape, spj = report["beta"], report["ape"], report["spj"]
        values = {
            "beta_raw": beta["raw"], "beta_spj": beta["corrected"],
            "beta_se": beta["std_errors"], "ape": [ape["estimate"]],
            "ape_spj": [ape["corrected"]], "ape_se": [ape["std_error"]],
        }
        errors = [] if report["fit"]["converged"] else ["full-panel fit did not converge"]
        errors += [f"{k} is not finite" for k in non_finite(values)]
        errors += outside("beta", beta["corrected"], beta["ci_lower"], beta["ci_upper"])
        errors += outside("ape", [ape["corrected"]], [ape["ci_lower"]], [ape["ci_upper"]])
        identity = spj_identity(spj["full"], spj["half_units"], spj["half_periods"])
        if not np.all(np.abs(identity - np.asarray(spj["corrected"])) <= SPJ_IDENTITY_TOL):
            errors.append("SPJ identity fails on the report's spj block")
        return values, errors


class AbcProbitHac:
    """One op is the analytical pipeline on an in-memory probit panel at
    HAC bandwidth 4, policy e1 against 0."""

    name = "abc_probit_hac"
    ops_in_child = False
    family = cp.Family.PROBIT
    # 100x200 rather than 200x100 (the same cells): at T=100 about one
    # panel in twenty has a unit whose outcomes its index separates, and
    # compute_beta_bias refuses it with a NumericalError (singular A_i);
    # none of 360 panels at T=200 did.
    shape = (100, 200)
    n_inputs = 64
    bandwidth = 4
    policy = cp.PolicyPair(np.zeros(K), np.eye(K)[0])

    def __init__(self, workdir: str):
        self.panel = None

    def construct(self, seed: int):
        self.inputs = derive_seeds(seed, self.name, self.n_inputs)

    def prepare(self, j: int):
        """Draw input j, replacing the previous one: covariates and
        interactive effects from the package's AR(1) DGP, outcomes
        y = 1{x'beta + lambda'f - N(0,1) >= 0} drawn here.  Only one panel
        is resident, so peak_rss_mb is the op's memory, not the inputs'."""
        s = self.inputs[j % self.n_inputs]
        self.panel = None
        draw = cp.generate(cp.DgpConfig(*self.shape, serial=True, seed=s))
        x = draw.panel.covariates
        noise = np.random.default_rng([s, 1]).standard_normal(draw.true_index.shape)
        y = (x @ TRUE_BETA + draw.true_index - noise >= 0.0).astype(float)
        self.panel = cp.Panel(y, x)

    def sizes(self) -> dict:
        n, t = self.shape
        return {"panel": f"{n}x{t}x{K}", "panels_resident": 1,
                "computed_panel_bytes": panel_bytes(n, t)}

    def op(self, j: int, tracer=None):
        panel = self.panel
        family, bw, policy = self.family, self.bandwidth, self.policy
        n, t = self.shape
        fe = cp.estimate_factors(panel, RANK)
        fit = cp.fit_cce(panel, fe, family, FIT_OPTIONS)
        if not fit.converged:
            return {}, [f"fit did not converge after {fit.iterations} iterations"]
        bias = cp.compute_beta_bias(panel, fit, fe, family, bandwidth=bw)
        beta_abc = cp.correct_beta(fit, bias, n, t)
        inference = cp.beta_covariance(panel, fit, fe, family, bias, bandwidth=bw,
                                       point=beta_abc)
        ape = cp.ape_estimate(fit, fe, family, policy)
        ape_bias = cp.compute_ape_bias(panel, fit, fe, family, policy, bias, bw)
        ape_abc = cp.correct_ape(ape, bias, ape_bias, n, t)
        ape_se = math.sqrt(cp.ape_variance(panel, fit, fe, family, bias, ape_bias, bw) / (n * t))
        lo, hi = cp.confidence_interval(ape_abc, ape_se, 0.95)
        values = {
            "beta_raw": [float(v) for v in fit.beta],
            "beta_abc": [float(v) for v in beta_abc],
            "beta_se": [float(v) for v in inference.std_errors],
            "ape": [ape.value], "ape_abc": [float(ape_abc)], "ape_se": [ape_se],
        }
        errors = [f"{k} is not finite" for k in non_finite(values)]
        errors += outside("beta", beta_abc, inference.ci_lower, inference.ci_upper)
        errors += outside("ape", [ape_abc], [lo], [hi])
        return values, errors


WORKLOADS = {w.name: w for w in (McLogitAr1, CliSpjCsv, AbcProbitHac)}
