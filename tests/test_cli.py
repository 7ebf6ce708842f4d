import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from curvlab import cli, sde
from curvlab.cli import (PRESETS, ExperimentConfig, list_catalogs, main,
                         parse_config, run)
from curvlab.errors import ParameterError


def _summary_core(path):
    d = json.loads((path / "summary.json").read_text())
    d.pop("timestamp")
    d.pop("wall_time_s")
    return d


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

def test_parse_flat_config():
    cfg = parse_config(PRESETS["doublewell-falsify"])
    assert cfg.potential == "double-well"
    assert cfg.engine == "grid"
    assert cfg.checks == ("local",)
    assert cfg.mfunctions == ("y",)
    assert cfg.expected_fail is True
    assert cfg.engine_params["m"] == 2001
    assert isinstance(cfg.engine_params["m"], int)
    assert cfg.engine_params["lo"] == -6.0
    assert cfg.rho == 0.5


def test_parse_json_config_same_hash_as_flat():
    flat = parse_config("potential = gaussian\nchecks = local\n"
                        "mfunctions = poincare\nfunctions = linear\n"
                        "rho = 1.0\n")
    as_json = parse_config(json.dumps({
        "potential": "gaussian", "checks": ["local"],
        "mfunctions": ["poincare"], "functions": ["linear"], "rho": 1.0}))
    assert flat == as_json
    assert flat.config_hash == as_json.config_hash


def test_config_hash_stable_under_field_reordering():
    a = parse_config("potential = gaussian\nrho = 1.0\nseed = 3\n"
                     "checks = local\nmfunctions = poincare\n"
                     "functions = linear\n")
    b = parse_config("seed = 3\nfunctions = linear\nmfunctions = poincare\n"
                     "checks = local\nrho = 1.0\npotential = gaussian\n")
    assert a.config_hash == b.config_hash


def test_config_hash_sees_content():
    a = parse_config("checks = local\nmfunctions = poincare\n"
                     "functions = linear\nrho = 1.0\n")
    b = parse_config("checks = local\nmfunctions = poincare\n"
                     "functions = linear\nrho = 0.9\n")
    assert a.config_hash != b.config_hash


def test_empty_schedule_is_validation_error():
    with pytest.raises(ParameterError):
        ExperimentConfig(ts=())
    with pytest.raises(ParameterError):
        parse_config("checks = local\nmfunctions = poincare\n"
                     "functions = linear\nts =\n")


def test_bad_config_lines_rejected():
    with pytest.raises(ParameterError):
        parse_config("this is not a key value line\n")
    with pytest.raises(ParameterError):
        parse_config("unknown_key = 3\n")
    with pytest.raises(ParameterError):
        parse_config("checks = nonsense\nmfunctions = poincare\n"
                     "functions = linear\n")
    with pytest.raises(ParameterError):
        parse_config("engine = warp-drive\nchecks = local\n"
                     "mfunctions = poincare\nfunctions = linear\n")
    with pytest.raises(ParameterError):
        ExperimentConfig(tol=0.0)


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# header\n\npotential = gaussian  # trailing\n"
                       "checks = local\nmfunctions = poincare\n"
                       "functions = linear\n")
    assert cfg.potential == "gaussian"


# ---------------------------------------------------------------------------
# presets through the full pipeline
# ---------------------------------------------------------------------------

def test_ou_local_suite_all_pass(tmp_path):
    code = main(["run", "ou-local-suite", "--out", str(tmp_path)])
    assert code == 0
    d = json.loads((tmp_path / "summary.json").read_text())
    assert d["all_pass"] is True
    assert d["succeeded"] is True
    assert d["expected_fail"] is False
    assert d["engine"]["kind"] == "mehler"
    ids = [c["id"] for c in d["checks"]]
    assert ids == sorted(ids)
    assert all(c["pass"] for c in d["checks"])


def test_doublewell_falsify_fails_and_exits_zero(tmp_path):
    code = main(["run", "doublewell-falsify", "--out", str(tmp_path)])
    assert code == 0
    d = json.loads((tmp_path / "summary.json").read_text())
    assert d["all_pass"] is False
    assert d["expected_fail"] is True
    assert d["succeeded"] is True
    worst = d["checks"][0]["min_margin"]
    assert worst <= -1e-3


def test_rerun_byte_identical_reports(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "ou-local-suite", "--out", str(a)]) == 0
    assert main(["run", "ou-local-suite", "--out", str(b)]) == 0
    assert _summary_core(a) == _summary_core(b)
    for fa in sorted(a.iterdir()):
        if fa.name == "summary.json":
            continue
        fb = b / fa.name
        assert fb.exists()
        assert fa.read_bytes() == fb.read_bytes()


def test_run_config_from_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("checks = local\nmfunctions = poincare\n"
                   "functions = linear\nrho = 1.0\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert (out / "summary.json").exists()


def test_run_unknown_config_name_is_error(capsys):
    assert main(["run", "no-such-preset"]) == 2
    assert "error:" in capsys.readouterr().err


def test_failing_run_without_expected_fail_exits_one(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("potential = double-well\nengine = grid\n"
                   "engine.lo = -6\nengine.hi = 6\nengine.m = 2001\n"
                   "checks = local\nmfunctions = y\nfunctions = linear\n"
                   "rho = 0.5\n")
    assert main(["run", str(cfg)]) == 1


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------

def test_hs_plot_csv_has_s_count_rows(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("checks = monotone\nmfunctions = poincare\n"
                   "functions = sine\ns_count = 7\nt = 0.6\nalpha = 0.2\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    files = list(out.glob("plot-hs-*.csv"))
    assert len(files) == 1
    lines = files[0].read_text().strip().splitlines()
    assert len(lines) == 1 + 7  # header + one row per s value
    s = [float(row.split(",")[0]) for row in lines[1:]]
    assert s == pytest.approx(list(np.linspace(0.0, 0.6, 7)), abs=1e-12)


def test_malformed_id_segments_name_what_they_identify(capsys):
    # potential and M-function ids share one parser and keep their messages
    assert main(["psd-check", "--mfunction", "beckner:p"]) == 2
    assert ("malformed M-function id segment 'p' in 'beckner:p'"
            in capsys.readouterr().err)
    assert main(["verify", "--potential", "spherical:alpha", "--mfunction",
                 "poincare", "--function", "sine"]) == 2
    assert ("malformed potential id segment 'alpha' in 'spherical:alpha'"
            in capsys.readouterr().err)


def test_hs_plot_ends_at_t(tmp_path):
    # the last s is the check's t itself, not s_0 plus s_count - 1 steps,
    # which rounds to 0.6999999999999998 here
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("checks = monotone\nmfunctions = poincare\n"
                   "functions = sine\nt = 0.7\ns_count = 11\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    [plot] = out.glob("plot-hs-*.csv")
    assert plot.read_text().splitlines()[-1].split(",")[0] == "0.7"


def test_equality_case_gives_zero_margin_curve(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("checks = local\nmfunctions = poincare\n"
                   "functions = linear\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    files = list(out.glob("plot-margin-vs-t-*.csv"))
    assert len(files) == 1
    for row in files[0].read_text().strip().splitlines()[1:]:
        t, margin = (float(v) for v in row.split(","))
        assert abs(margin) <= 1e-9


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_list_contains_required_names(capsys):
    assert main(["list"]) == 0
    text = capsys.readouterr().out
    assert "log-sobolev" in text
    assert "bobkov" in text
    assert "ou-local-suite" in text
    assert text == list_catalogs() + "\n"


def test_verify_subcommand_writes_reports(tmp_path):
    code = main(["verify", "--mfunction", "poincare", "--function",
                 "linear", "--format", "csv", "--out", str(tmp_path)])
    assert code == 0
    files = list(tmp_path.glob("*.csv"))
    assert len(files) == 1
    header = files[0].read_text().splitlines()[0]
    assert header == "x,t,alpha,s,lhs,rhs,margin,stderr"


def test_global_flags_accepted_on_either_side(tmp_path):
    a = main(["--format", "csv", "--out", str(tmp_path / "a"), "verify",
              "--mfunction", "poincare", "--function", "linear"])
    b = main(["verify", "--mfunction", "poincare", "--function", "linear",
              "--format", "csv", "--out", str(tmp_path / "b")])
    assert a == b == 0
    fa = next((tmp_path / "a").glob("*.csv"))
    fb = next((tmp_path / "b").glob("*.csv"))
    assert fa.read_bytes() == fb.read_bytes()


def test_verify_reverse_subcommand(capsys):
    code = main(["verify-reverse", "--mfunction", "reverse-poincare",
                 "--function", "linear"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["pass"] is True


def test_monotone_subcommand(capsys):
    code = main(["monotone", "--mfunction", "poincare", "--function",
                 "sine", "--t", "0.6", "--s-count", "5"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["pass"] is True
    assert len(rep["records"]) == 4 * 7  # (s_count - 1) x default xs


def test_integrated_subcommand(capsys):
    code = main(["integrated", "--check", "limit", "--mfunction",
                 "poincare", "--function", "linear"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert abs(rep["records"][0]["margin"]) < 1e-9


def test_psd_check_subcommand(capsys):
    code = main(["psd-check", "--mfunction", "bobkov", "--kind", "A-forward"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["pass"] is True


@pytest.mark.parametrize("kind", ["A", "forward", "integrated-enhanced"])
def test_psd_check_refuses_a_kind_outside_the_matrix_kinds(capsys, kind):
    with pytest.raises(SystemExit) as exc:
        main(["psd-check", "--mfunction", "bobkov", "--kind", kind])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("mfunction,kind", [("reverse-poincare", "B-reverse"),
                                            ("bobkov", "A-forward")])
def test_psd_check_default_kind_follows_the_mfunction(capsys, mfunction,
                                                      kind):
    assert main(["psd-check", "--mfunction", mfunction]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == kind
    # an explicit --kind still wins
    assert main(["psd-check", "--mfunction", mfunction,
                 "--kind", "A-forward"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "A-forward"


def test_feynman_kac_subcommand(capsys):
    code = main(["feynman-kac", "--check", "supermartingale", "--cert",
                 "unit", "--paths", "500", "--ts", "0.25"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["pass"] is True


def test_houdre_kagan_subcommand(tmp_path):
    code = main(["houdre-kagan", "--coeffs", "0,0,1", "--N", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "houdre-kagan.csv").read_text().strip().splitlines()
    assert rows[0] == "k,partial_sum,variance"
    k1 = rows[1].split(",")
    assert float(k1[1]) == pytest.approx(4.0)
    assert float(k1[2]) == pytest.approx(2.0)


def test_lyapunov_scan_pass_and_fail(tmp_path, capsys):
    assert main(["lyapunov-scan", "--kind", "spherical",
                 "--alpha", "1.5"]) == 0
    capsys.readouterr()
    assert main(["lyapunov-scan", "--kind", "spherical",
                 "--alpha", "1.0"]) == 1
    d = json.loads(capsys.readouterr().out)
    assert d["min_margin"] == pytest.approx(-0.0628188765636874, abs=1e-12)


def test_unresolved_potential_id_is_clean_error(capsys):
    code = main(["verify", "--mfunction", "poincare", "--function",
                 "linear", "--potential", "mexican-hat"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_tol_flag_overrides_report_tolerance(capsys):
    code = main(["--tol", "0.5", "verify", "--mfunction", "poincare",
                 "--function", "sine", "--engine", "grid"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["tolerance"] == 0.5


@pytest.mark.parametrize("argv", [
    # rho = 5 is a false claim for the gaussian (exit 1 without --tol)
    ["verify", "--mfunction", "poincare", "--function", "sine", "--rho", "5",
     "--tol", "inf"],
    ["--tol", "inf", "verify", "--mfunction", "poincare", "--function",
     "sine", "--rho", "5"],
    ["run", "doublewell-falsify", "--tol", "inf"],
    ["verify", "--mfunction", "poincare", "--function", "sine", "--tol",
     "-1"],
    ["verify", "--mfunction", "poincare", "--function", "sine", "--tol",
     "nan"],
    ["psd-check", "--mfunction", "poincare", "--tol", "0"],
])
def test_tol_must_be_finite_and_positive(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --tol: must be a finite number > 0" \
        in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_config_tol_must_be_finite_and_positive(tmp_path, capsys, tol):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("checks = local\nmfunctions = poincare\n"
                   f"functions = sine\nrho = 5\ntol = {tol}\n")
    assert main(["run", str(cfg)]) == 2
    assert f"error: tol must be a finite number > 0, got {float(tol)}" \
        in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_lyapunov_scan_checks_the_dimension_first(capsys, n):
    assert main(["lyapunov-scan", "--kind", "spherical", "--alpha", "1.5",
                 "--n", n]) == 2
    assert f"error: dimension must be >= 1, got {n}" \
        in capsys.readouterr().err


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_monte_carlo_run_independent_of_thread_env(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("checks = local\nmfunctions = poincare\n"
                   "functions = sine\nengine = monte-carlo\n"
                   "engine.n_paths = 2000\nts = 0.3\nalphas = 0.5\n"
                   "seed = 11\n")
    prev = os.environ.get("CURVLAB_THREADS")
    try:
        os.environ["CURVLAB_THREADS"] = "1"
        out1 = tmp_path / "t1"
        assert main(["run", str(cfg), "--out", str(out1)]) == 0
        os.environ["CURVLAB_THREADS"] = "4"
        out4 = tmp_path / "t4"
        assert main(["run", str(cfg), "--out", str(out4)]) == 0
    finally:
        if prev is None:
            os.environ.pop("CURVLAB_THREADS", None)
        else:
            os.environ["CURVLAB_THREADS"] = prev
    fa = next(out1.glob("margins-*.csv"))
    fb = out4 / fa.name
    assert fa.read_bytes() == fb.read_bytes()
    assert _summary_core(out1) == _summary_core(out4)


def test_run_summary_round_trips_config_hash(tmp_path):
    cfg = parse_config("checks = local\nmfunctions = poincare\n"
                       "functions = linear\n")
    summary = run(cfg, out_dir=None)
    assert summary.config_hash == cfg.config_hash
    assert summary.all_pass and summary.succeeded


# ---------------------------------------------------------------------------
# one executor for run and the check subcommands
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv,config", [
    (["verify", "--mfunction", "poincare", "--function", "sine"],
     "checks = local\nmfunctions = poincare\nfunctions = sine\n"),
    (["verify-reverse", "--mfunction", "reverse-poincare", "--function",
      "linear"],
     "checks = reverse\nmfunctions = reverse-poincare\nfunctions = linear\n"),
    (["monotone", "--mfunction", "reverse-log-sobolev", "--function",
      "shifted-sine", "--s-count", "5", "--t", "0.4"],
     "checks = monotone\nmfunctions = reverse-log-sobolev\n"
     "functions = shifted-sine\ns_count = 5\nt = 0.4\n"),
    (["integrated", "--check", "limit", "--mfunction", "log-sobolev",
      "--function", "shifted-sine"],
     "checks = integrated-limit\nmfunctions = log-sobolev\n"
     "functions = shifted-sine\n"),
    (["integrated", "--check", "condition", "--variant", "enhanced",
      "--mfunction", "y", "--function", "sine"],
     "checks = integrated-condition\nmfunctions = y\nfunctions = sine\n"
     "variant = enhanced\n"),
])
def test_subcommand_report_equals_run_report(tmp_path, argv, config):
    sub = tmp_path / "sub"
    assert main([*argv, "--format", "csv", "--out", str(sub)]) == 0
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config)
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    (report,) = sub.glob("*.csv")
    (margins,) = out.glob("margins-*.csv")
    assert report.read_bytes() == margins.read_bytes()


def test_subcommand_reports_keep_argument_order(capsys):
    assert main(["verify", "--mfunction", "y", "--mfunction", "poincare",
                 "--function", "linear", "--format", "csv"]) == 0
    labels = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("# ")]
    assert [label.split("[")[1].split("|")[0] for label in labels] == \
        ["y", "poincare"]


def test_monotone_direction_follows_the_mfunction(capsys):
    assert main(["monotone", "--mfunction", "reverse-poincare", "--function",
                 "sine", "--s-count", "3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["label"].startswith("monotone-reverse[reverse-poincare|")


def test_verify_rejects_a_reverse_mfunction(capsys):
    assert main(["verify", "--mfunction", "reverse-poincare", "--function",
                 "linear"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("verify", "--rho", "-400", "--mfunction", "poincare"),
    ("verify-reverse", "--rho", "400", "--mfunction", "reverse-poincare"),
    ("monotone", "--rho", "-400", "--t", "1", "--mfunction", "poincare")],
    ids=["verify", "verify-reverse", "monotone"])
def test_an_interpolation_factor_beyond_a_float_exits_2(capsys, argv):
    # e^{2 |rho| t} = e^800 at t = 1: a typed error, not a traceback
    assert main([*argv, "--function", "sine"]) == 2
    assert "overflows a float" in capsys.readouterr().err


@pytest.mark.parametrize("engine", ["grid", "monte-carlo"])
def test_a_time_step_that_is_not_positive_exits_2(tmp_path, capsys, engine):
    # refused when the engine is built, so even a check at t = 0 alone,
    # which takes no step, writes no report
    assert main(["verify", "--engine", engine, "--dt", "-1", "--ts", "0",
                 "--mfunction", "poincare", "--function", "sine",
                 "--out", str(tmp_path)]) == 2
    assert "need a finite dt > 0, got dt=-1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_run_rejects_an_mfunction_no_check_takes(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("checks = local\nmfunctions = poincare, reverse-poincare\n"
                   "functions = linear\n")
    assert main(["run", str(cfg)]) == 2
    assert "reverse-poincare" in capsys.readouterr().err


@pytest.mark.parametrize("lists", [
    "mfunctions = poincare, zzz\nfunctions = linear\n",
    "mfunctions = poincare\nfunctions = linear, zzz\n",
])
def test_unknown_ids_are_rejected_before_any_check(tmp_path, capsys,
                                                   monkeypatch, lists):
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return verify_local(*args, **kwargs)

    verify_local = cli.verify_local
    monkeypatch.setattr(cli, "verify_local", spy)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("checks = local\n" + lists)
    assert main(["run", str(cfg)]) == 2
    assert "zzz" in capsys.readouterr().err
    assert calls == []


def test_integrated_only_config_builds_no_engine(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("potential = double-well\nchecks = integrated-limit\n"
                   "mfunctions = poincare\nfunctions = linear\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) in (0, 1)
    d = json.loads((out / "summary.json").read_text())
    assert d["engine"] is None
    assert [c["id"] for c in d["checks"]] == \
        ["integrated-limit:poincare:linear"]


@pytest.mark.parametrize("flag,seed", [((), 11), (("--seed", "0"), 0),
                                       (("--seed", "5"), 5)])
def test_run_seed_flag_overrides_the_config(tmp_path, flag, seed):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("checks = local\nmfunctions = poincare\nfunctions = sine\n"
                   "engine = monte-carlo\nengine.n_paths = 200\nts = 0.3\n"
                   "alphas = 0.5\nxs = 0\nseed = 11\n")
    out = tmp_path / "out"
    main(["run", str(cfg), *flag, "--out", str(out)])
    d = json.loads((out / "summary.json").read_text())
    assert d["engine"]["seed"] == seed


# ---------------------------------------------------------------------------
# malformed configs fail before any computation
# ---------------------------------------------------------------------------

def _expect_config_error(tmp_path, capsys, text):
    with pytest.raises(ParameterError):
        parse_config(text)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_engine_parameter_is_config_error(tmp_path, capsys):
    _expect_config_error(tmp_path, capsys,
                         "engine = grid\nengine.foo = 1\nchecks = local\n"
                         "mfunctions = poincare\nfunctions = linear\n")


def test_non_integral_engine_parameter_is_config_error(tmp_path, capsys):
    _expect_config_error(tmp_path, capsys,
                         "engine = grid\nengine.m = 2001.5\nchecks = local\n"
                         "mfunctions = poincare\nfunctions = linear\n")


def test_unknown_json_key_is_config_error(tmp_path, capsys):
    _expect_config_error(tmp_path, capsys,
                         json.dumps({"checks": ["local"], "bogus": 1}))


def test_supermartingale_needs_one_start_point(capsys):
    assert main(["feynman-kac", "--check", "supermartingale", "--x0", "0,1",
                 "--paths", "200"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--mfunction", "beckner:p=abc", "--function", "linear"],
    ["psd-check", "--mfunction", "beckner:p=abc"],
    ["verify", "--potential", "gaussian:n=abc", "--mfunction", "poincare",
     "--function", "linear"],
    ["verify", "--potential", "spherical:alpha=x", "--engine", "grid",
     "--mfunction", "poincare", "--function", "linear"],
])
def test_non_numeric_id_parameters_exit_2(capsys, argv):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("lists", [
    "checks = local, local\nmfunctions = poincare\nfunctions = linear\n",
    "checks = local\nmfunctions = poincare, poincare\nfunctions = linear\n",
    "checks = local\nmfunctions = poincare\nfunctions = sine, sine\n",
])
def test_repeated_names_are_config_errors(tmp_path, capsys, lists):
    _expect_config_error(tmp_path, capsys, lists)


def test_repeated_subcommand_flag_exits_2(capsys):
    assert main(["verify", "--mfunction", "poincare", "--mfunction",
                 "poincare", "--function", "linear"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["supermartingale", "gradient",
                                   "commutation"])
def test_feynman_kac_path_count_floor(capsys, check):
    assert main(["feynman-kac", "--check", check, "--paths", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_numeric_values_and_bad_json_are_config_errors():
    for text in ("rho = abc\n", "seed = 1.5\n", "xs = 0, one\n",
                 '{"checks": ["local"],'):
        with pytest.raises(ParameterError):
            parse_config(text)


@pytest.mark.parametrize("config", [
    {"engine_params": 3},
    {"rho": "abc", "checks": ["local"]},
    {"s_count": "x", "checks": ["monotone"]},
])
def test_json_field_types_are_config_errors(tmp_path, capsys, config):
    _expect_config_error(tmp_path, capsys, json.dumps(config))


def test_json_numbers_follow_the_flat_rules():
    flat = parse_config("rho = 1\nseed = 3\nts = 0.1, 1\n")
    as_json = parse_config(json.dumps({"rho": 1, "seed": "3",
                                       "ts": [0.1, 1], "tol": None}))
    assert flat.config_hash == as_json.config_hash
    with pytest.raises(ParameterError):
        parse_config(json.dumps({"s_count": 2.5}))


def test_integrated_limit_outside_the_mfunction_domain_exits_2(capsys):
    # sine vanishes at 0, where log-sobolev needs x > 0
    assert main(["integrated", "--check", "limit", "--mfunction",
                 "log-sobolev", "--function", "sine"]) == 2
    assert "log-sobolev needs x in (0, inf)" in capsys.readouterr().err


def test_integrated_condition_outside_the_mfunction_domain_exits_2(capsys):
    # affine = 1 + x/2 crosses 0 at x = -2, where log-sobolev needs x > 0
    assert main(["integrated", "--check", "condition", "--mfunction",
                 "log-sobolev", "--function", "affine"]) == 2
    assert "log-sobolev needs x in (0, inf)" in capsys.readouterr().err


def test_plain_integrated_condition_of_a_y_open_mfunction_runs(capsys):
    # exp-integrability's M_y is 0/0 where Gamma(f) = 0: at gauss-bump's
    # critical point 0, the centre node of the window, which must split it
    assert main(["integrated", "--check", "condition", "--mfunction",
                 "exp-integrability", "--function", "gauss-bump"]) == 0
    assert math.isfinite(json.loads(capsys.readouterr().out)["min_margin"])


def test_no_engine_loads_scipy(tmp_path):
    # a fresh interpreter, because this test process has already imported
    # every backend.  Each optional backend loads with the engine or
    # command that runs it: numpy.random with a Monte Carlo engine,
    # numpy.polynomial with a Mehler engine, the thread pool only in a
    # threaded walk and spectral only in houdre-kagan.  Once the engines
    # are built, the MC, Mehler, grid and integrated checks import nothing;
    # no command loads scipy but a lyapunov-scan in n >= 2, whose Sobol
    # points load scipy.stats
    script = f"""
import json, sys
import curvlab
from curvlab.cli import main
LAZY = ("numpy.random", "numpy.polynomial", "concurrent.futures",
        "curvlab.spectral", "scipy")
def scipy_loaded():
    return sorted({{m.split(".")[1] for m in sys.modules
                   if m.startswith("scipy.")}})
# dir() lists the spectral names without importing them
listed = set(curvlab.__all__) | {{"spectral"}} <= set(dir(curvlab))
at_import = [m for m in LAZY if m in sys.modules]
from curvlab.potentials import make_example_potential
from curvlab.semigroup import GridEngine, MehlerEngine, MonteCarloEngine
def build(engine, module):
    before = module in sys.modules
    engine(make_example_potential("gaussian"))
    return [before, module in sys.modules]
built = [build(MonteCarloEngine, "numpy.random"),
         build(MehlerEngine, "numpy.polynomial"),
         build(GridEngine, "scipy")]
at_engines = set(sys.modules)
codes = [main(argv + ["--out", {str(tmp_path)!r}]) for argv in (
    ["verify", "--engine", "monte-carlo", "--n-paths", "100",
     "--mfunction", "poincare", "--function", "sine"],
    ["verify", "--mfunction", "bobkov", "--function", "unit-gauss"],
    ["verify", "--mfunction", "exp-integrability", "--function", "gauss-bump"],
    ["integrated", "--check", "condition", "--variant", "enhanced",
     "--mfunction", "y", "--function", "sine"],
    ["run", "ou-local-suite"],
    ["run", "doublewell-falsify"],
    ["monotone", "--engine", "grid", "--potential", "spherical:alpha=1.5",
     "--mfunction", "poincare", "--function", "sine", "--s-count", "4"])]
checks_load = sorted(set(sys.modules) - at_engines)
codes += [main(["houdre-kagan", "--coeffs", "0,0,0,1", "--out",
                {str(tmp_path)!r}]), main(["list"])]
all_load = sorted(set(sys.modules) - at_engines)
scipy_before_scan = scipy_loaded()
codes.append(main(["lyapunov-scan", "--kind", "spherical", "--alpha", "1.5",
                   "--n", "2", "--out", {str(tmp_path)!r}]))
from curvlab import *
print(json.dumps([at_import, built, codes, checks_load, all_load,
                  scipy_before_scan, scipy_loaded(), listed,
                  curvlab.houdre_kagan is houdre_kagan,
                  callable(variance_bracket_check)]))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    (at_import, built, codes, checks_load, all_load, scipy_before_scan,
     scipy_after_scan, *resolved) = json.loads(
        out.stdout.strip().splitlines()[-1])
    assert at_import == []
    assert built == [[False, True], [False, True], [False, False]]
    assert codes == [0] * 10
    assert checks_load == []
    assert all_load == ["curvlab.spectral"]  # houdre-kagan's own module
    assert scipy_before_scan == []
    assert "stats" in scipy_after_scan
    assert resolved == [True, True, True]
    import curvlab
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        curvlab.nonesuch


@pytest.mark.parametrize("argv", [
    ["verify", "--engine", "monte-carlo", "--n-paths", "100", "--ts", "nan",
     "--mfunction", "poincare", "--function", "sine"],
    ["verify", "--ts", "inf", "--mfunction", "poincare", "--function",
     "sine"],
    ["verify", "--alphas", "0,inf", "--mfunction", "poincare", "--function",
     "sine"],
    ["feynman-kac", "--check", "supermartingale", "--paths", "100",
     "--ts", "nan"],
    ["feynman-kac", "--check", "supermartingale", "--paths", "100",
     "--ts", "inf"],
    ["feynman-kac", "--check", "gradient", "--paths", "100", "--engine",
     "grid", "--m", "101", "--ts", "inf"],
])
def test_non_finite_times_exit_2(capsys, argv):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--rho", "0.3"], ["--n-paths", "7"]])
def test_feynman_kac_refuses_flags_it_never_reads(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["feynman-kac", "--check", "supermartingale", "--paths", "100",
              *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--potential", "gaussian:n=2", "--xs", "0,1", "--mfunction",
     "poincare", "--function", "sine"],
    ["verify", "--potential", "gaussian:n=2", "--xs", "0,1", "--engine",
     "monte-carlo", "--n-paths", "100", "--mfunction", "poincare",
     "--function", "sine"],
    ["feynman-kac", "--check", "gradient", "--potential", "gaussian:n=2",
     "--xs", "0,1", "--paths", "200", "--ts", "0.1"],
])
def test_function_of_another_dimension_exits_2(capsys, argv):
    # sine is a function on R, the potential lives on R^2
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "monotone"])
def test_dimension_is_checked_before_the_points(capsys, command):
    # the default schedule's 7 points on a line are not named: f is
    assert main([command, "--potential", "gaussian:n=2", "--mfunction",
                 "poincare", "--function", "sine"]) == 2
    assert "sine is a function on R^1" in capsys.readouterr().err


@pytest.mark.parametrize("function", ["linear", "quadratic", "hermite3",
                                      "cos-mix"])
def test_mc_verify_passes_at_time_zero(tmp_path, function):
    # at t = 0 both sides are M(f, alpha Gamma(f)) at the points: the
    # margins are exactly 0, not a finite-difference error
    out = tmp_path / "out"
    assert main(["verify", "--engine", "monte-carlo", "--n-paths", "200",
                 "--mfunction", "poincare", "--function", function,
                 "--format", "json", "--out", str(out)]) == 0
    (report,) = [p for p in out.glob("*.json") if p.name != "summary.json"]
    at_0 = [r for r in json.loads(report.read_text())["records"]
            if r["t"] == 0.0]
    assert at_0 and all(r["margin"] == 0.0 for r in at_0)


@pytest.mark.parametrize("argv", [
    ["feynman-kac", "--check", "supermartingale", "--ts", ","],
    ["feynman-kac", "--check", "gradient", "--ts", ","],
    ["houdre-kagan", "--coeffs", ","],
])
def test_empty_lists_exit_2(capsys, argv):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--engine", "monte-carlo", "--n-paths", "100", "--seed", "-1",
     "--ts", "0.1", "--mfunction", "poincare", "--function", "sine"],
    ["feynman-kac", "--check", "commutation", "--paths", "100", "--seed",
     "-3", "--ts", "0.1"],
    ["feynman-kac", "--check", "supermartingale", "--paths", "100",
     "--seed", "-1", "--ts", "0.1"],
])
def test_negative_seed_exits_2(capsys, argv):
    assert main(argv) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["seed = -1\n", "engine = monte-carlo\n"
                                  "engine.seed = -2\n"])
def test_negative_config_seed_is_config_error(tmp_path, capsys, text):
    _expect_config_error(tmp_path, capsys, text)


@pytest.mark.parametrize("argv,message", [
    (["verify", "--mfunction", "poincare", "--function", "sine", "--rho",
      "nan"], "rho must be a finite number"),
    (["verify", "--mfunction", "poincare", "--function", "sine", "--rho",
      "inf"], "rho must be a finite number"),
    (["psd-check", "--mfunction", "poincare", "--rho", "nan"],
     "rho must be a finite number"),
    (["integrated", "--check", "exp-bound", "--function", "linear", "--rho",
      "inf"], "rho must be a finite number"),
    (["monotone", "--mfunction", "poincare", "--function", "sine", "--t",
      "inf"], "t must be a finite number >= 0"),
    (["monotone", "--mfunction", "poincare", "--function", "sine",
      "--alpha", "-1"], "alpha must be a finite number >= 0"),
])
def test_non_finite_rho_t_or_negative_alpha_exits_2(capsys, argv, message):
    # each of these once wrote a report (NaN margins, or a pass) instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err


@pytest.mark.parametrize("text", ["rho = nan\n", "t = inf\n", "t = -1\n",
                                  "alpha = -inf\n"])
def test_non_finite_config_number_is_config_error(tmp_path, capsys, text):
    _expect_config_error(tmp_path, capsys, text)


@pytest.mark.parametrize("text", ["s_count = 1\n",
                                  "checks = monotone\ns_count = 0\n"])
def test_s_count_below_2_is_config_error(tmp_path, capsys, text):
    # the monotonicity grid needs both endpoints; the config refuses less
    # before any check runs, whichever checks it holds
    _expect_config_error(tmp_path, capsys, text)


@pytest.mark.parametrize("engine,code", [
    (["mehler"], 2), (["monte-carlo", "--n-paths", "200"], 2), (["grid"], 0)])
def test_right_sides_that_are_not_finite_exit_2(capsys, engine, code):
    # at rho = -352 the factor g_alpha(1) is about 1e303, and M(f, c Gamma(f))
    # overflows at the Mehler engine's far nodes and in the Monte Carlo
    # stderr: both once passed with margin inf.  The grid's right sides stay
    # finite (about 1e306) and its check passes.  No overflow warning escapes
    argv = ["verify", "--engine", *engine, "--ts", "1", "--rho", "-352",
            "--mfunction", "poincare", "--function", "quadratic"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == code
    out = capsys.readouterr()
    if code:
        assert out.out == ""
        assert "error:" in out.err and "finite" in out.err
    else:
        rep = json.loads(out.out)
        assert rep["pass"]
        assert all(math.isfinite(r["rhs"]) and math.isfinite(r["margin"])
                   for r in rep["records"])


def test_parser_is_built_once_and_survives_a_rejection(capsys):
    argv = ["verify", "--mfunction", "poincare", "--function", "sine",
            "--format", "csv"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("command,mfunctions", [
    ("verify", ("poincare", "log-sobolev")),
    ("verify-reverse", ("reverse-poincare", "reverse-log-sobolev"))])
def test_mc_checks_of_one_function_share_one_simulation(
        tmp_path, monkeypatch, command, mfunctions):
    # two M-functions make one path walk and write the files of two
    # single-M runs, byte for byte: the runs always shared the seed
    calls = []
    walk = sde._walk

    def counted(*args, **kwargs):
        calls.append(1)
        return walk(*args, **kwargs)

    monkeypatch.setattr(sde, "_walk", counted)
    base = [command, "--engine", "monte-carlo", "--n-paths", "200",
            "--function", "shifted-sine", "--format", "csv", "--seed", "2"]
    flags = [x for m in mfunctions for x in ("--mfunction", m)]
    assert main([*base, *flags, "--out", str(tmp_path / "grouped")]) == 0
    assert len(calls) == 1
    for m in mfunctions:
        assert main([*base, "--mfunction", m, "--out",
                     str(tmp_path / "single")]) == 0
    grouped = sorted((tmp_path / "grouped").iterdir())
    assert [p.name for p in grouped] == \
        sorted(p.name for p in (tmp_path / "single").iterdir())
    for p in grouped:
        assert p.read_bytes() == (tmp_path / "single" / p.name).read_bytes()


def test_run_groups_the_engine_checks_of_each_function(monkeypatch):
    # ou-local-suite: the local and reverse checks of shifted-sine make one
    # verify_local call, its 4 monotone checks one verify_H_monotone call
    calls = []
    for name in ("verify_local", "verify_H_monotone"):
        def spy(mfs, *args, real=getattr(cli, name), name=name, **kwargs):
            calls.append((name, [mf.label for mf in mfs]))
            return real(mfs, *args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    summary = run(parse_config(PRESETS["ou-local-suite"]))
    assert sorted(calls) == [
        ("verify_H_monotone", ["log-sobolev", "poincare",
                               "reverse-log-sobolev", "reverse-poincare"]),
        ("verify_local", ["log-sobolev", "poincare", "reverse-log-sobolev",
                          "reverse-poincare"])]
    assert summary.all_pass
