"""Command-line front end.

Three subcommands: ``estimate`` runs the two-step estimator with optional
bias correction and APE output on a long-format CSV panel; ``factors``
reports the eigenvalue spectrum and rank estimates; ``simulate`` drives
the Monte Carlo grid.  Exit codes: 0 success, 2 input error (an
unwritable output path included), 3 numerical or convergence error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .ape import PolicyPair, ape_estimate
from .bias import (
    ape_variance,
    beta_covariance,
    compute_ape_bias,
    compute_beta_bias,
    confidence_interval,
    correct_ape,
    correct_beta,
)
from .estimation import FitOptions, fit_cce
from .exceptions import InvalidInputError, NumericalError
from .factors import (
    default_threshold,
    estimate_factors,
    estimate_rank_ratio,
    estimate_rank_threshold,
)
from .jackknife import spj
from .likelihood import Family
from .panel import Panel, read_panel_csv
from .simulate import run_grid

SCHEMA_VERSION = 4


def _parse_vector(text: str, name: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise InvalidInputError(f"{name} must be a comma-separated numeric list") from None


def _check_threshold(threshold: float | None):
    if threshold is not None and not threshold > 0:  # NaN fails this too
        raise InvalidInputError(f"threshold must be positive, got {threshold}")


def _rank_rules(panel: Panel, threshold: float | None) -> dict:
    """The threshold (default min(N,T)^(-1/3)) and both rank-rule estimates."""
    if threshold is None:
        threshold = default_threshold(panel.n_units, panel.n_periods)
    return {
        "threshold": threshold,
        "r_threshold": estimate_rank_threshold(panel, threshold),
        "r_ratio": estimate_rank_ratio(panel) if panel.n_covariates >= 2 else None,
    }


def run_estimate(args) -> dict:
    if args.bandwidth < 0:
        raise InvalidInputError(f"bandwidth must be non-negative, got {args.bandwidth}")
    if not 0.0 < args.level < 1.0:
        raise InvalidInputError(f"confidence level must be in (0, 1), got {args.level}")
    _check_threshold(args.threshold)
    opts = FitOptions(loading_bound=args.loading_bound)
    if (args.policy_x0 is None) != (args.policy_x1 is None):
        raise InvalidInputError("--policy-x0 and --policy-x1 must be given together")
    flags = {"--policy-x0": args.policy_x0, "--policy-x1": args.policy_x1}
    policy_vectors = {name: _parse_vector(text, name) for name, text in flags.items()
                      if text is not None}
    panel = read_panel_csv(args.input)
    k = panel.n_covariates
    for name, vals in policy_vectors.items():
        if vals.shape != (k,):
            raise InvalidInputError(f"{name} must have {k} entries, got {vals.shape[0]}")
    policy = PolicyPair(*policy_vectors.values()) if policy_vectors else None
    family = Family(args.family)
    rules = _rank_rules(panel, args.threshold)
    if args.rank is None:
        rank_info = {"used": rules["r_threshold"], "method": "threshold", **rules}
    else:
        rank_info = {"used": args.rank, "method": "user", **rules}
    fe = estimate_factors(panel, rank_info["used"])
    fit = fit_cce(panel, fe, family, opts)
    if not fit.converged:
        raise NumericalError(
            f"estimation did not converge ({fit.stop_reason}) after "
            f"{fit.iterations} iterations (gradient norm {fit.grad_norm:.3g}); "
            f"{fit.bound_hits} unit(s) at the loading bound"
        )

    n, t = panel.n_units, panel.n_periods
    try:
        bias = compute_beta_bias(panel, fit, fe, family, bandwidth=args.bandwidth)
    except NumericalError as exc:
        # the plug-in record gives every run its standard errors
        needs = ("bias corrections and standard errors"
                 if args.correction == "analytical" else "standard errors")
        message = f"{exc}; cannot form {needs}"
        if fit.bound_hits:  # without runaway loadings the hint would mislead
            message += (
                f"; {fit.bound_hits} unit(s) at the loading bound (units with "
                "runaway loadings usually mean perfect separation; a smaller "
                "--loading-bound, e.g. 30, stops them where their contribution "
                "is negligible)"
            )
        raise NumericalError(message) from exc
    ape = ape_bias = None
    if policy is not None:
        ape = ape_estimate(fit, fe, family, policy)
        ape_bias = compute_ape_bias(panel, fit, fe, family, policy, bias, args.bandwidth)

    beta_corrected = ape_corrected = spj_block = None
    if args.correction == "analytical":
        beta_corrected = correct_beta(fit, bias, n, t)
        if ape is not None:
            ape_corrected = correct_ape(ape, bias, ape_bias, n, t)
    elif args.correction == "spj":
        spj_beta, spj_ape = spj(panel, family, (fe, fit), opts, policy)
        if not spj_beta.converged:
            raise NumericalError(
                f"jackknife subsample fits failed to converge: {spj_beta.failures}"
            )
        beta_corrected = np.asarray(spj_beta.corrected)
        if spj_ape is not None:
            ape_corrected = float(spj_ape.corrected)
        spj_block = {
            "full": list(spj_beta.full),
            "half_units": [list(np.asarray(v)) for v in spj_beta.half_n],
            "half_periods": [list(np.asarray(v)) for v in spj_beta.half_t],
            "corrected": list(beta_corrected),
        }

    point = fit.beta if beta_corrected is None else beta_corrected
    inference = beta_covariance(
        panel, fit, fe, family, bias, bandwidth=args.bandwidth,
        level=args.level, point=point,
    )

    ape_block = None
    if ape is not None:
        sigma2 = ape_variance(panel, fit, fe, family, bias, ape_bias, args.bandwidth)
        se = float(np.sqrt(sigma2 / (n * t)))
        ape_point = ape.value if ape_corrected is None else ape_corrected
        lo, hi = confidence_interval(ape_point, se, args.level)
        ape_block = {
            "x0": list(policy.x0),
            "x1": list(policy.x1),
            "estimate": ape.value,
            "corrected": ape_corrected,
            "std_error": se,
            "ci_lower": lo,
            "ci_upper": hi,
        }

    lam = fit.loadings
    report = {
        "schema_version": SCHEMA_VERSION,
        "family": family.value,
        "panel": {"n_units": n, "n_periods": t, "n_covariates": panel.n_covariates},
        "rank": rank_info,
        "eigenvalues": list(fe.eigenvalues),
        "fit": {
            "converged": fit.converged,
            "stop_reason": fit.stop_reason,
            "iterations": fit.iterations,
            "grad_norm": fit.grad_norm,
            "loglik": fit.loglik,
            "bound_hits": fit.bound_hits,
            "loading_rounds": fit.loading_rounds.tolist(),
            "stalled": fit.stalled,
            "coefficient_trials": fit.coefficient_trials,
        },
        "correction": args.correction,
        "bandwidth": args.bandwidth,
        "level": args.level,
        "beta": {
            "raw": list(fit.beta),
            "corrected": None if beta_corrected is None else list(beta_corrected),
            "std_errors": list(inference.std_errors),
            "ci_lower": list(inference.ci_lower),
            "ci_upper": list(inference.ci_upper),
        },
        "loadings_summary": {
            "column_means": list(lam.mean(axis=0)),
            "column_sds": list(lam.std(axis=0)),
            "min": float(lam.min()),
            "max": float(lam.max()),
        },
        "spj": spj_block,
        "ape": ape_block,
    }
    return report


def _print_estimate_report(report: dict):
    p = report["panel"]
    print(f"family={report['family']}  N={p['n_units']}  T={p['n_periods']}  "
          f"k={p['n_covariates']}")
    rank = report["rank"]
    print(
        f"rank: used r={rank['used']} ({rank['method']}); "
        f"threshold rule={rank['r_threshold']} at P={rank['threshold']:.4g}; "
        f"ratio rule={rank['r_ratio']}"
    )
    print("eigenvalues: " + ", ".join(f"{v:.6g}" for v in report["eigenvalues"]))
    fit = report["fit"]
    print(
        f"fit: converged={fit['converged']} stop_reason={fit['stop_reason']} "
        f"iterations={fit['iterations']} "
        f"grad_norm={fit['grad_norm']:.3g} loglik={fit['loglik']:.6f} "
        f"bound_hits={fit['bound_hits']}"
    )
    beta = report["beta"]
    corrected = beta["corrected"] or beta["raw"]
    print(f"coefficients (correction={report['correction']}, L={report['bandwidth']}, "
          f"level={report['level']}):")
    for j, (raw, pt, se, lo, hi) in enumerate(
        zip(beta["raw"], corrected, beta["std_errors"], beta["ci_lower"], beta["ci_upper"]),
        start=1,
    ):
        print(f"  x{j}: raw={raw:.6f} point={pt:.6f} se={se:.6f} ci=[{lo:.6f}, {hi:.6f}]")
    if report["ape"] is not None:
        a = report["ape"]
        pt = a["corrected"] if a["corrected"] is not None else a["estimate"]
        print(
            f"ape: estimate={a['estimate']:.6f} point={pt:.6f} se={a['std_error']:.6f} "
            f"ci=[{a['ci_lower']:.6f}, {a['ci_upper']:.6f}]"
        )


def run_factors(args) -> dict:
    _check_threshold(args.threshold)
    panel = read_panel_csv(args.input)
    rules = _rank_rules(panel, args.threshold)
    fe = estimate_factors(panel, rules["r_threshold"])
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(",".join(f"f{j}" for j in range(1, fe.r + 1)) + "\n")
            for row in fe.factors:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return {
        "schema_version": SCHEMA_VERSION,
        "eigenvalues": list(fe.eigenvalues),
        **rules,
        "factors_csv": args.output,
    }


def _print_factors_report(report: dict):
    print("eigenvalues: " + ", ".join(f"{v:.6g}" for v in report["eigenvalues"]))
    print(f"r (threshold rule, P={report['threshold']:.4g}): {report['r_threshold']}; "
          f"r (ratio rule): {report['r_ratio']}")
    if report["factors_csv"]:
        print(f"factors written to {report['factors_csv']}")


def run_simulate(args) -> dict:
    estimators = tuple(s.strip() for s in args.estimators.split(",") if s.strip())
    table = run_grid(
        sizes=[(args.n, args.t)],
        serial=args.serial,
        l_values=[args.bandwidth],
        n_reps=args.reps,
        estimators=estimators,
        base_seed=args.seed,
        n_jobs=args.jobs,
        emit_dir=args.emit_csv,
    )
    table_csv = table.to_csv()
    if args.table_csv:
        with open(args.table_csv, "w", encoding="utf-8") as fh:
            fh.write(table_csv)
    return {
        "schema_version": SCHEMA_VERSION,
        "table_text": table.to_text(),
        "table_csv": table_csv,
    }


def _print_simulate_report(report: dict):
    print(report["table_text"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccepanel",
        description="Two-step CCE estimation of nonlinear panel models "
        "with interactive fixed effects",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate a model from a CSV panel")
    est.add_argument("--input", required=True, help="long-format CSV: id,time,y,x1..xk")
    est.add_argument("--family", required=True,
                     choices=[f.value for f in Family])
    est.add_argument("--rank", type=int, default=None,
                     help="number of factors (default: threshold rule)")
    est.add_argument("--threshold", type=float, default=None,
                     help="eigenvalue threshold (default min(N,T)^(-1/3))")
    est.add_argument("--correction", choices=["none", "analytical", "spj"],
                     default="none")
    est.add_argument("--bandwidth", type=int, default=1, help="HAC bandwidth L")
    est.add_argument("--level", type=float, default=0.95)
    est.add_argument("--loading-bound", type=float, default=1e3,
                     help="box bound on loadings (separation guard)")
    est.add_argument("--policy-x0", default=None, help="comma-separated k-vector")
    est.add_argument("--policy-x1", default=None, help="comma-separated k-vector")
    est.add_argument("--json", default=None, help="write the report as JSON here")
    est.set_defaults(func=run_estimate, printer=_print_estimate_report)

    fac = sub.add_parser("factors", help="eigenvalue spectrum and rank estimates")
    fac.add_argument("--input", required=True)
    fac.add_argument("--threshold", type=float, default=None)
    fac.add_argument("--output", default=None, help="write estimated factors as CSV")
    fac.add_argument("--json", default=None)
    fac.set_defaults(func=run_factors, printer=_print_factors_report)

    sim = sub.add_parser("simulate", help="Monte Carlo replication study")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--t", type=int, required=True)
    sim.add_argument("--serial", action="store_true")
    sim.add_argument("--reps", type=int, default=500)
    sim.add_argument("--bandwidth", type=int, default=1)
    sim.add_argument("--estimators", default="raw,abc,spj")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--emit-csv", default=None, help="directory for generated panels")
    sim.add_argument("--table-csv", default=None, help="write the results table here")
    sim.add_argument("--jobs", type=int, default=1)
    sim.add_argument("--json", default=None)
    sim.set_defaults(func=run_simulate, printer=_print_simulate_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2)
    # reads fail as PanelFormatError, so an OSError here is a failed write
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    args.printer(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
