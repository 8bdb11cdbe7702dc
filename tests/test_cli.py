import json
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ccepanel as cp
from ccepanel.cli import main
from ccepanel.jackknife import spj_combine
from conftest import duplicated_covariate_panel


@pytest.fixture(scope="module")
def sim_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "panel.csv"
    draw = cp.generate(cp.DgpConfig(n_units=60, n_periods=60, seed=21))
    cp.write_panel_csv(draw.panel, path)
    return str(path)


def test_estimate_end_to_end(sim_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "estimate", "--input", sim_csv, "--family", "logit",
        "--correction", "analytical", "--bandwidth", "0",
        "--policy-x0", "0,0,0,0", "--policy-x1", "1,0,0,0",
        "--json", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == 4
    assert report["rank"]["used"] == 2  # threshold rule finds both factors
    beta = np.array(report["beta"]["corrected"])
    # within 4 Monte Carlo standard deviations of the unit coefficients
    assert np.all(np.abs(beta - 1.0) < 4 * 0.134)
    assert report["ape"] is not None
    assert report["ape"]["std_error"] > 0
    assert report["fit"]["converged"] is True
    assert report["fit"]["stop_reason"] == "converged"
    text = capsys.readouterr().out
    assert "coefficients" in text and "ape:" in text


def test_estimate_analytical_matches_library_pipeline(sim_csv, tmp_path):
    # the CLI report carries exactly what the library chain gives
    out = tmp_path / "report.json"
    code = main([
        "estimate", "--input", sim_csv, "--family", "logit", "--correction", "analytical",
        "--bandwidth", "2", "--policy-x0", "0,0,0,0", "--policy-x1", "1,0,0,0",
        "--json", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())

    family = cp.Family.LOGIT
    panel = cp.read_panel_csv(sim_csv)
    n, t = panel.n_units, panel.n_periods
    r = cp.estimate_rank_threshold(panel, cp.default_threshold(n, t))
    fe = cp.estimate_factors(panel, r)
    fit = cp.fit_cce(panel, fe, family)
    bias = cp.compute_beta_bias(panel, fit, fe, family, bandwidth=2)
    beta_abc = cp.correct_beta(fit, bias, n, t)
    inference = cp.beta_covariance(panel, fit, fe, family, bias, bandwidth=2, point=beta_abc)
    policy = cp.PolicyPair(np.zeros(4), np.eye(4)[0])
    ape = cp.ape_estimate(fit, fe, family, policy)
    ape_bias = cp.compute_ape_bias(panel, fit, fe, family, policy, bias, 2)
    ape_abc = cp.correct_ape(ape, bias, ape_bias, n, t)
    ape_se = float(np.sqrt(cp.ape_variance(panel, fit, fe, family, bias, ape_bias, 2) / (n * t)))
    lo, hi = cp.confidence_interval(ape_abc, ape_se, 0.95)

    assert report["rank"]["used"] == r
    assert report["fit"]["loading_rounds"] == fit.loading_rounds.tolist()
    assert report["fit"]["stalled"] == fit.stalled
    assert report["fit"]["coefficient_trials"] == fit.coefficient_trials
    assert report["beta"]["raw"] == list(fit.beta)
    assert report["beta"]["corrected"] == list(beta_abc)
    assert report["beta"]["std_errors"] == list(inference.std_errors)
    assert report["beta"]["ci_lower"] == list(inference.ci_lower)
    assert report["beta"]["ci_upper"] == list(inference.ci_upper)
    assert report["ape"]["estimate"] == ape.value
    assert report["ape"]["corrected"] == ape_abc
    assert report["ape"]["std_error"] == ape_se
    assert [report["ape"]["ci_lower"], report["ape"]["ci_upper"]] == [lo, hi]


def test_estimate_requires_both_policy_vectors(sim_csv):
    assert main([
        "estimate", "--input", sim_csv, "--family", "logit", "--policy-x0", "0,0,0,0",
    ]) == 2


def test_estimate_missing_file_is_input_error(tmp_path, capsys):
    code = main(["estimate", "--input", str(tmp_path / "none.csv"), "--family", "logit"])
    assert code == 2


def test_estimate_unbalanced_is_input_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,time,y,x1\n1,1,0,1\n1,2,1,2\n2,1,0,1\n")
    assert main(["estimate", "--input", str(path), "--family", "logit"]) == 2


def test_estimate_non_utf8_csv_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes("id,time,y,x1\nM\xfcller,1,0,1\n".encode("latin-1"))
    code = main(["estimate", "--input", str(path), "--family", "logit"])
    assert code == 2
    err = capsys.readouterr().err
    assert "latin1.csv: not UTF-8 text" in err and "0xfc" in err


def test_poisson_on_sign_flipping_panel_is_numerical_error(tmp_path, capsys):
    # binary outcomes are valid poisson counts, but the index cannot be
    # made positive in every period: the error comes from the likelihood
    # domain via initialization, exit code 3
    rng = np.random.default_rng(2)
    t = 24
    x = np.empty((10, t, 1))
    x[:, :, 0] = np.where(np.arange(t) % 2 == 0, 2.0, -2.0) + 0.01 * rng.standard_normal((10, t))
    y = rng.integers(0, 2, size=(10, t)).astype(float)
    path = tmp_path / "flip.csv"
    cp.write_panel_csv(cp.Panel(y, x), path)
    code = main(["estimate", "--input", str(path), "--family", "poisson"])
    assert code == 3
    assert "positive" in capsys.readouterr().err


def test_estimate_duplicated_covariate_is_a_singular_system(tmp_path, capsys):
    # the coefficients on a duplicated covariate are not identified: the fit
    # stops on the singular coefficient system, and no separation is blamed
    path = tmp_path / "dup.csv"
    cp.write_panel_csv(duplicated_covariate_panel(), path)
    code = main(["estimate", "--input", str(path), "--family", "logit"])
    assert code == 3
    err = capsys.readouterr().err
    assert "did not converge (singular_coefficient_system)" in err
    assert "separation" not in err


def test_separation_hint_needs_a_unit_at_the_loading_bound(tmp_path, capsys):
    # nearly collinear covariates: the concentrated curvature is
    # ill-conditioned with no unit at the bound, so no separation is blamed
    path = tmp_path / "near.csv"
    cp.write_panel_csv(duplicated_covariate_panel(jitter=1e-5), path)
    code = main(["estimate", "--input", str(path), "--family", "logit", "--rank", "2"])
    assert code == 3
    err = capsys.readouterr().err
    assert "near-singular" in err and "separation" not in err

    # a perfectly separated probit unit runs its loading to the bound, and
    # its information block cannot be inverted: the hint stays
    draw = cp.generate(cp.DgpConfig(n_units=50, n_periods=40, seed=5))
    x = draw.panel.covariates
    noise = np.random.default_rng(3).standard_normal(x.shape[:2])
    y = (x @ np.ones(4) + draw.true_index - noise >= 0).astype(float)
    path = tmp_path / "separated.csv"
    cp.write_panel_csv(cp.Panel(y, x), path)
    code = main(["estimate", "--input", str(path), "--family", "probit",
                 "--loading-bound", "30"])
    assert code == 3
    err = capsys.readouterr().err
    assert "for unit 23" in err and "1 unit(s) at the loading bound" in err
    assert "perfect separation" in err


@pytest.mark.parametrize("correction, needs", [
    ("none", "cannot form standard errors"),
    ("spj", "cannot form standard errors"),
    ("analytical", "cannot form bias corrections and standard errors"),
])
def test_refusal_names_what_the_run_needed(correction, needs, tmp_path, capsys):
    # a unit's information block is near-singular, so the plug-in record
    # cannot be formed; every run needs it for its standard errors, and only
    # the analytical one for its correction too
    draw = cp.generate(cp.DgpConfig(n_units=60, n_periods=40, serial=True, seed=5))
    path = tmp_path / "near_singular.csv"
    cp.write_panel_csv(draw.panel, path)
    code = main(["estimate", "--input", str(path), "--family", "logit",
                 "--correction", correction, "--bandwidth", "2"])
    assert code == 3
    err = capsys.readouterr().err
    assert "near-singular for unit 42" in err
    assert err.count("cannot form") == 1 and needs + "\n" in err


def test_estimate_spj_report_carries_identity(sim_csv, tmp_path):
    out = tmp_path / "spj.json"
    code = main([
        "estimate", "--input", sim_csv, "--family", "logit",
        "--correction", "spj", "--json", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    spj = report["spj"]
    assert spj is not None
    full = np.array(spj["full"])
    half_n = [np.array(v) for v in spj["half_units"]]
    half_t = [np.array(v) for v in spj["half_periods"]]
    assert_allclose(
        np.array(spj["corrected"]),
        spj_combine(full, half_n, half_t),
        atol=0,
    )
    assert_allclose(np.array(report["beta"]["corrected"]), np.array(spj["corrected"]))


def _record_fits(monkeypatch) -> list:
    """Wrap fit_cce in every ccepanel module that binds it; returns the
    list that receives each call's FitOptions."""
    opts_seen = []
    modules = [m for name, m in sorted(sys.modules.items())
               if name.split(".")[0] == "ccepanel" and callable(vars(m).get("fit_cce"))]
    for module in modules:
        def recording(panel, factors, family, opts=None, _fit=module.fit_cce):
            opts_seen.append(opts)
            return _fit(panel, factors, family, opts)

        monkeypatch.setattr(module, "fit_cce", recording)
    return opts_seen


def test_estimate_spj_fits_every_subsample_once_with_the_loading_bound(
    sim_csv, tmp_path, monkeypatch
):
    # the full fit and the four half-panel fits, each under --loading-bound
    opts_seen = _record_fits(monkeypatch)
    code = main([
        "estimate", "--input", sim_csv, "--family", "logit", "--correction", "spj",
        "--loading-bound", "30", "--policy-x0", "0,0,0,0", "--policy-x1", "1,0,0,0",
        "--json", str(tmp_path / "spj.json"),
    ])
    assert code == 0
    assert len(opts_seen) == 5
    assert all(opts is not None and opts.loading_bound == 30 for opts in opts_seen)


def test_factors_command(sim_csv, tmp_path, capsys):
    out = tmp_path / "factors.csv"
    code = main(["factors", "--input", sim_csv, "--output", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "eigenvalues:" in text and "threshold" in text
    lines = out.read_text().splitlines()
    assert lines[0] == "f1,f2"
    assert len(lines) == 61  # header + one row per period


def test_simulate_command(tmp_path, capsys):
    emit = tmp_path / "draws"
    table_csv = tmp_path / "table.csv"
    report_json = tmp_path / "sim.json"
    code = main([
        "simulate", "--n", "40", "--t", "60", "--reps", "2", "--bandwidth", "0",
        "--estimators", "raw", "--seed", "11",
        "--emit-csv", str(emit), "--table-csv", str(table_csv), "--json", str(report_json),
    ])
    assert code == 0
    assert "raw" in capsys.readouterr().out
    table_text = table_csv.read_text()
    assert table_text.startswith("n,t,serial,bandwidth,estimator")
    assert table_text == json.loads(report_json.read_text())["table_csv"]
    panels = sorted(emit.glob("*.csv"))
    assert len(panels) == 2
    # emitted panels re-parse and re-estimate cleanly
    code = main(["estimate", "--input", str(panels[0]), "--family", "logit", "--rank", "2"])
    assert code == 0


def test_estimate_negative_bandwidth_is_input_error(sim_csv, tmp_path, capsys, monkeypatch):
    # all are rejected before the panel is read, so no fit runs
    fits = _record_fits(monkeypatch)
    code = main(["estimate", "--input", sim_csv, "--family", "logit", "--bandwidth", "-1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "bandwidth" in err and "separation" not in err
    code = main([
        "estimate", "--input", sim_csv, "--family", "logit", "--correction", "spj",
        "--level", "1.5",
    ])
    assert code == 2
    assert "level" in capsys.readouterr().err
    # a missing input file would be the first error if these came after the read
    missing = str(tmp_path / "none.csv")
    cases = [
        (["estimate", "--loading-bound", "0"], "loading_bound"),
        (["estimate", "--loading-bound", "nan"], "loading_bound"),
        (["estimate", "--threshold", "0"], "threshold"),
        (["estimate", "--threshold", "nan"], "threshold"),
        (["factors", "--threshold", "0"], "threshold"),
    ]
    for (command, *flags), name in cases:
        extra = ["--family", "logit"] if command == "estimate" else []
        assert main([command, "--input", missing, *extra, *flags]) == 2
        err = capsys.readouterr().err
        assert name in err and "cannot read" not in err, (flags, err)
    assert fits == []


def test_estimate_rank_outside_1_to_k_is_input_error(sim_csv, capsys, monkeypatch):
    # sim_csv has 4 covariates, so a rank must lie in 1..4; no fit runs
    fits = _record_fits(monkeypatch)
    for rank in ("5", "0"):
        assert main(["estimate", "--input", sim_csv, "--family", "logit", "--rank", rank]) == 2
        err = capsys.readouterr().err
        assert f"r={rank}" in err and "k=4" in err, err
    assert fits == []


def test_estimate_policy_errors_come_before_any_fit(sim_csv, capsys, monkeypatch):
    # pairing and parsing are checked before the panel is read, the length
    # (sim_csv has 4 covariates) right after it, so no fit runs
    fits = _record_fits(monkeypatch)
    cases = [
        (["--policy-x0", "0,0,0,0"], "must be given together"),
        (["--policy-x0", "0,0,0,0", "--policy-x1", "1,one,0,0"], "--policy-x1 must be a"),
        (["--policy-x0", "0,0,0", "--policy-x1", "1,0,0"], "--policy-x0 must have 4 entries"),
    ]
    for flags, message in cases:
        code = main(["estimate", "--input", sim_csv, "--family", "logit", *flags])
        assert code == 2
        assert message in capsys.readouterr().err
    assert fits == []


def test_simulate_negative_bandwidth_is_input_error(capsys):
    code = main(["simulate", "--n", "30", "--t", "30", "--reps", "2", "--bandwidth", "-1"])
    assert code == 2
    assert "bandwidth" in capsys.readouterr().err


def test_unknown_estimator_is_input_error(capsys):
    base = ["simulate", "--n", "20", "--t", "20", "--reps", "1"]
    for flags, message in [
        (["--estimators", "raw,bogus"], "unknown estimators"),
        (["--estimators", ""], "no estimators"),
        (["--jobs", "-3"], "n_jobs"),
    ]:
        assert main(base + flags) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["estimate --json", "factors --output",
                                  "simulate --table-csv", "simulate --emit-csv"])
def test_unwritable_output_is_input_error(flag, sim_csv, tmp_path, capsys):
    command, option = flag.split()
    target = str(tmp_path / "missing-dir" / "out")
    if option == "--emit-csv":
        target = sim_csv  # an existing file, not a directory
    args = {
        "estimate": ["--input", sim_csv, "--family", "logit", "--rank", "2"],
        "factors": ["--input", sim_csv],
        "simulate": ["--n", "20", "--t", "20", "--reps", "1", "--estimators", "raw"],
    }[command]
    assert main([command, *args, option, target]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_over_long_csv_field_is_input_error(tmp_path, capsys):
    # a field over the csv module's 128 KiB limit is an error naming its row
    path = tmp_path / "long.csv"
    path.write_text("id,time,y,x1\n1,1,0,1\n1,2,0,1\n2,1,0,1\n2,2,0," + "1" * 200_000 + "\n")
    assert main(["estimate", "--input", str(path), "--family", "logit"]) == 2
    assert f"{path}: row 5 cannot be read" in capsys.readouterr().err
