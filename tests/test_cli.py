"""Command-line interface: config schema, subcommands, exit codes, formats."""

import errno
import json
import math
import os
import stat
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nssol import (
    NonFiniteFieldError,
    NssolError,
    SolutionField,
    StepFailureError,
    build_solution,
    cli,
    derived_s,
    eval_grid,
    profiles,
    scaling,
    theta_required,
)
from nssol.cli import ConfigError, RunConfig, main
from tests import cases


def _blowup_config(**overrides):
    cfg = {
        "model": {"N": 3, "gamma": 5.0 / 3.0, "theta": 1.0, "K": 1.0,
                  "kappa": 1.0, "delta": 1},
        "family": {"kind": "with_pressure_power_law", "m": -1.0, "n": 1.0,
                   "sigma": 1.0, "alpha": 1.0},
        "grid": {"t_min": 0.05, "t_max": 0.3, "n_t": 5, "r_min": 0.1,
                 "r_max": 1.0, "n_r": 4},
        "verify": {"window": {"t_min": 0.05, "t_max": 0.3, "r_min": 0.1,
                              "r_max": 1.0},
                   "resolutions": [[1e-3, 1e-3], [5e-4, 5e-4]],
                   "lattice": 17},
        "output": {"format": "csv"},
    }
    cfg.update(overrides)
    return cfg


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_describe_blowup_family(tmp_path, capsys):
    path = _write(tmp_path, _blowup_config())
    assert main(["describe", "--config", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["s"] == pytest.approx(0.5)
    params = RunConfig(_blowup_config()).params
    assert doc["s"] == derived_s(params)
    assert doc["theta_required"] == theta_required(params)
    assert doc["vanishing_time"] == pytest.approx(1.0)
    assert "-n/m" in doc["vanishing_time_note"]


def test_describe_invalid_family_exits_2(tmp_path, capsys):
    cfg = _blowup_config()
    cfg["model"]["theta"] = 2.0  # wrong theta for this family
    path = _write(tmp_path, cfg)
    assert main(["describe", "--config", path]) == 2
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["ok"] is False
    assert "s" not in doc and "theta_required" not in doc
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert "gamma/2" in err["message"]


def test_describe_polytropic_theta_mismatch_exits_2(tmp_path, capsys):
    cfg = {
        "model": {"N": 3, "gamma": 2.0, "theta": 1.5, "delta": 1},
        "family": {"kind": "with_pressure_polytropic", "alpha": 1.0,
                   "a0": 1.0, "a1": 0.0},
    }
    path = _write(tmp_path, cfg)
    assert main(["describe", "--config", path]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "theta=gamma>1" in err["message"]


def test_describe_reports_root_of_linear_factor(tmp_path, capsys):
    cfg = _blowup_config()
    cfg["family"]["n"] = 2.0
    path = _write(tmp_path, cfg)
    assert main(["describe", "--config", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vanishing_time"] == pytest.approx(2.0)  # -n/m for m=-1, n=2


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = _blowup_config()
    cfg["model"]["gamm"] = 1.0  # typo must not be silently ignored
    path = _write(tmp_path, cfg)
    assert main(["describe", "--config", path]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "gamm" in err["message"]


def test_r_min_zero_rejected(tmp_path, capsys):
    cfg = _blowup_config()
    cfg["grid"]["r_min"] = 0.0
    path = _write(tmp_path, cfg)
    assert main(["field", "--config", path]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "r_min must be > 0" in err["message"]


def test_blowup_command(tmp_path, capsys):
    path = _write(tmp_path, _blowup_config())
    assert main(["blowup", "--config", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vanishing_time"] == pytest.approx(1.0)

    growing = _blowup_config()
    growing["family"]["m"] = 1.0
    path2 = _write(tmp_path, growing, "growing.json")
    assert main(["blowup", "--config", path2]) == 0
    doc2 = json.loads(capsys.readouterr().out)
    assert doc2["vanishing_time"] is None


def test_profile_csv_format(tmp_path, capsys):
    path = _write(tmp_path, _blowup_config())
    out = tmp_path / "profile.csv"
    assert main(["profile", "--config", path, "--out", str(out), "--quiet"]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw  # LF line endings only
    lines = raw.decode().splitlines()
    assert lines[0] == "z,y,dy"
    assert len(lines) == 1 + 4  # header + n_r samples
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0)  # y(0) = alpha
    # 17 significant digits round-trip binary64 exactly
    for token in lines[2].split(","):
        assert float(token) == float(f"{float(token):.17g}")


def test_profile_builds_no_scaling(tmp_path, monkeypatch):
    # the shape alone is written: a scaling integration that fails (or
    # that would run for seconds on a stiff instance) is never started
    path = _write(tmp_path, _isothermal_config(B=-1.0, t_max=0.3))
    expected = tmp_path / "expected.csv"
    assert main(["profile", "--config", path, "--out", str(expected), "--quiet"]) == 0

    def fail(*args, **kwargs):
        raise StepFailureError("integration started")

    monkeypatch.setattr(scaling, "_integrate", fail)
    out = tmp_path / "profile.csv"
    assert main(["profile", "--config", path, "--out", str(out), "--quiet"]) == 0
    assert out.read_bytes() == expected.read_bytes()
    assert main(["scale", "--config", path, "--quiet"]) == 3


def test_profile_spans_r_max_for_power_law(tmp_path):
    cfg = _blowup_config()
    cfg["grid"].update(r_max=20.0, n_r=5)
    path = _write(tmp_path, cfg)
    out = tmp_path / "profile.csv"
    assert main(["profile", "--config", path, "--out", str(out), "--quiet"]) == 0
    zs = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert zs == ["0", "5", "10", "15", "20"]


def test_power_law_field_far_out_in_z_exits_0(tmp_path):
    # at t = 0.3, r = 9 is z = r/a near 10.8
    cfg = _blowup_config()
    cfg["grid"]["r_max"] = 9.0
    path = _write(tmp_path, cfg)
    out = tmp_path / "field.csv"
    assert main(["field", "--config", path, "--out", str(out), "--quiet"]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 1 + 5 * 4 and rows[-1].startswith("0.29999999999999999,9,")


def test_scale_csv_and_status(tmp_path, capsys):
    path = _write(tmp_path, _blowup_config())
    out = tmp_path / "scale.csv"
    assert main(["scale", "--config", path, "--out", str(out)]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["ok"] is True
    assert status["vanishing_time"] == pytest.approx(1.0)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,a,adot"
    t0, a0, adot0 = (float(x) for x in lines[1].split(","))
    assert a0 == pytest.approx((1.0 - t0) ** 0.5, rel=1e-12)


def test_field_csv(tmp_path, capsys):
    path = _write(tmp_path, _blowup_config())
    out = tmp_path / "field.csv"
    assert main(["field", "--config", path, "--out", str(out), "--quiet"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,r,rho,u"
    assert len(lines) == 1 + 5 * 4


def test_verify_command_report(tmp_path, capsys):
    path = _write(tmp_path, _blowup_config())
    out = tmp_path / "report.json"
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["ok"] is True
    report = json.loads(out.read_text())
    assert report["resolutions"][0]["mass_linf"] < 1e-4
    assert report["lattice"] == [17, 17]
    assert 1.7 < report["order_mass"] < 2.3


def test_verify_exact_solution_end_to_end(tmp_path):
    # a Gaussian-decaying exponential family is an exact solution: both
    # residual norms sit below 1e-5 at h = 1e-3
    cfg = {
        "model": {"N": 3, "gamma": 1.0, "theta": 1.0, "K": 1.0,
                  "kappa": 1.0, "delta": 1},
        "family": {"kind": "with_pressure_isothermal", "A": 1.0, "B": -1.0,
                   "C": 0.0, "a0": 1.0, "a1": 0.0},
        "verify": {"window": {"t_min": 0.1, "t_max": 0.5, "r_min": 0.1,
                              "r_max": 2.0},
                   "resolutions": [[1e-3, 1e-3]]},
    }
    path = _write(tmp_path, cfg)
    out = tmp_path / "report.json"
    assert main(["verify", "--config", path, "--out", str(out), "--quiet"]) == 0
    report = json.loads(out.read_text())
    assert report["mass_linf"] < 1e-5
    assert report["mom_linf"] < 1e-5


@pytest.mark.parametrize("theta", [100.0, 100.5])
def test_verify_l2_norms_stay_finite_past_the_square_root_of_the_float_range(
        tmp_path, capsys, theta):
    # a collapse braked by a thin layer at a ~ 0.1: momentum residuals near
    # 1e279, whose squares overflow; the report must still be strict JSON
    def strict(literal):
        raise ValueError(f"non-finite number {literal} in the payload")

    window = {"t_min": 0.1, "t_max": 2.0, "r_min": 0.1, "r_max": 2.0}
    cfg = {
        "model": {"N": 3, "gamma": 1.0, "theta": theta, "K": 1.0, "kappa": 1.0,
                  "delta": 0},
        "family": {"kind": "pressureless_theta_not1", "lam": 1e-295, "alpha": 1.0,
                   "a0": 1.0, "a1": -1.0},
        "verify": {"window": window,
                   "resolutions": [list(h) for h in cases.RESOLUTIONS], "lattice": 9},
    }
    path = _write(tmp_path, cfg)
    out = tmp_path / "report.json"
    assert main(["verify", "--config", path, "--out", str(out), "--format", "json"]) == 0
    json.loads(capsys.readouterr().out, parse_constant=strict)
    report = json.loads(out.read_text(), parse_constant=strict)
    assert report["mom_linf"] > 1e200
    for entry in report["resolutions"]:
        for name in ("mass", "mom"):
            assert math.isfinite(entry[f"{name}_l2"])
            assert entry[f"{name}_l2"] <= entry[f"{name}_linf"]


def test_json_format_payload(tmp_path):
    path = _write(tmp_path, _blowup_config())
    out = tmp_path / "field.json"
    assert main(["field", "--config", path, "--out", str(out),
                 "--format", "json", "--quiet"]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["rho"]) == 5 * 4


def test_outputs_are_deterministic(tmp_path):
    path = _write(tmp_path, _blowup_config())
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["field", "--config", path, "--out", str(out1), "--quiet"]) == 0
    assert main(["field", "--config", path, "--out", str(out2), "--quiet"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_schema_validation(tmp_path, capsys):
    with pytest.raises(ConfigError):
        RunConfig({"model": {"N": 3, "gamma": 1.0, "theta": 1.0}})  # no family
    for mutate in (
            lambda c: c.update(extra=1),
            lambda c: c.update(numerics={"z_max": 7.5}),  # no such section
            lambda c: c["family"].update(kind="no_such_family"),
            lambda c: c["family"].update(lam=1.0),  # key from another family
            lambda c: c["verify"].update(resolutions=[]),
            lambda c: c["verify"].update(resolutions=[[1e-3]]),
            lambda c: c["verify"].update(lattice=1),
            lambda c: c["output"].update(format="xml"),
            lambda c: c["grid"].update(n_t=0),
            lambda c: [c],  # a root that is not an object
            lambda c: c.update(grid=[0.05, 0.3]),  # a section that is not an object
            lambda c: c["model"].update(N=3.0),  # not an integer
            lambda c: c["output"].update(format=1),  # not a string
            lambda c: c["verify"].update(resolutions=[[1e-3, 1e-3], [5e-4, 0.0]]),
            lambda c: c["grid"].update(t_min=0.3),  # t_min = t_max
            lambda c: c["grid"].update(r_min=2.0),  # r_min > r_max
            lambda c: c["verify"]["window"].update(t_min=0.5),  # t_min > t_max
            lambda c: c["family"].update(m=10**400),  # past the float range
            lambda c: c["grid"].update(t_max=-10**400),
            lambda c: c["model"].update(N=10**400)):  # an integer, but no float
        cfg = _blowup_config()
        cfg = mutate(cfg) or cfg
        with pytest.raises(ConfigError):
            RunConfig(cfg)
        assert main(["describe", "--config", _write(tmp_path, cfg)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
    # an integer past int()'s 4300-digit limit fails inside json.load
    cfg = _blowup_config()
    cfg["family"]["m"] = "HUGE"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg).replace('"HUGE"', "1" + "0" * 5000))
    assert main(["describe", "--config", str(path)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and str(path) in err["message"]


def _without(section):
    return {k: v for k, v in _blowup_config().items() if k != section}


@pytest.mark.parametrize("command, text, match", [
    ("describe", '{"model": {"N": 3', "is not valid JSON"),
    *[(command, json.dumps(_without("grid")), "needs a 'grid' section")
      for command in ("profile", "scale", "field")],
    ("verify", json.dumps(_without("verify")), "needs a 'verify' section"),
], ids=["invalid json", "profile without grid", "scale without grid",
        "field without grid", "verify without verify"])
def test_unreadable_or_incomplete_config_exits_2(tmp_path, capsys, command, text, match):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and match in err["message"]


def test_missing_family_constant_rejected():
    cfg = _blowup_config()
    del cfg["family"]["sigma"]
    with pytest.raises(ConfigError) as err:
        RunConfig(cfg)
    assert "sigma" in str(err.value)


def test_steep_collapse_blowup_exits_0(tmp_path, capsys):
    cfg = {"model": {"N": 3, "gamma": 2.0, "theta": 2.0},
           "family": {"kind": "with_pressure_polytropic", "alpha": 1.0,
                      "a0": 1.0, "a1": 0.0}}
    path = _write(tmp_path, cfg)
    assert main(["blowup", "--config", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "vanished"
    assert doc["vanishing_time"] == pytest.approx(0.330751636, abs=1e-8)
    # at K = kappa = 1e-6 the same collapse ends at t ~ 644, where a step
    # floor of 10 ulp(t) is still a vanishing (scipy's DOP853 at rtol
    # 1e-13 puts it at 644.3875631888623)
    cfg["model"].update(K=1e-6, kappa=1e-6)
    cfg["grid"] = {**_blowup_config()["grid"], "t_max": 1e9}
    path = _write(tmp_path, cfg)
    assert main(["blowup", "--config", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    # the tail, integrated in a, serves up to the last float short of t*
    assert doc["status"] == "vanished" and doc["searched_until"] < doc["vanishing_time"]
    assert doc["vanishing_time"] == pytest.approx(644.3875631888623, rel=1e-9)


def test_stiff_relaxation_blowup_exits_3(tmp_path, capsys):
    # a' + lam/a is conserved: a relaxes toward a* ~ 1e-9, never to 0,
    # at steps RK45's stability limit holds near 3e-9
    cfg = {"model": {"N": 1, "gamma": 1.4, "theta": 1.0, "delta": 0},
           "family": {"kind": "pressureless_theta1", "lam": -1e-9, "alpha": 0.0,
                      "a0": 1.0, "a1": -1.0}}
    path = _write(tmp_path, cfg)
    assert main(["blowup", "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "StepFailureError",
        "message": ("scaling integration (pressureless_theta1) failed: the problem"
                    " is stiff, h*lambda over 3.25 on 15 steps.")}


def test_vacuum_reaching_power_law_field_exits_0(tmp_path, capsys):
    # N = 3, gamma = 3, m = 3: the shape falls to vacuum at z ~ 2.211
    cfg = _blowup_config()
    cfg["model"].update(gamma=3.0, theta=5.0 / 3.0)
    cfg["family"]["m"] = 3.0
    cfg["grid"].update(r_max=4.0, n_r=40)
    path = _write(tmp_path, cfg)
    out = tmp_path / "field.csv"
    assert main(["field", "--config", path, "--out", str(out), "--quiet"]) == 0
    rho = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
    assert min(rho) == 0.0 and max(rho) > 0.0


def test_non_finite_config_numbers_exit_2(tmp_path, capsys):
    text = json.dumps(_blowup_config())
    for literal in ("NaN", "Infinity", "-Infinity", "1e400"):
        path = tmp_path / "nonfinite.json"
        path.write_text(text.replace('"alpha": 1.0', f'"alpha": {literal}'))
        assert main(["describe", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
    cfg = _blowup_config()
    cfg["model"]["gamma"] = float("nan")
    with pytest.raises(ConfigError):
        RunConfig(cfg)
    cfg = _blowup_config()
    cfg["verify"]["resolutions"] = [[1e-3, float("inf")]]
    with pytest.raises(ConfigError):
        RunConfig(cfg)


def test_import_leaves_scipy_out(tmp_path):
    # nssol imports no scipy: not on import, which every CLI call pays
    # for, not in any family's build (the scaling ODEs run on the
    # package's own stepper), and not in any subcommand
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = _isothermal_config(1.0, 0.3)
    cfg["verify"] = {"window": {"t_min": 0.1, "t_max": 0.3, "r_min": 0.1, "r_max": 1.0},
                     "resolutions": [[1e-3, 1e-3], [5e-4, 5e-4]], "lattice": 5}
    path = _write(tmp_path, cfg)
    out = str(tmp_path / "payload")
    code = ("import sys, nssol, nssol.cli\n"
            "from tests import cases\n"
            "for make in (cases.isothermal_stated, cases.isothermal_gaussian,\n"
            "             cases.polytropic_n1, cases.powerlaw_blowup,\n"
            "             cases.pressureless_theta1, cases.pressureless_theta2):\n"
            "    params, family, _ = make()\n"
            "    nssol.build_solution(params, family, t_end=0.5).field()(0.2, 0.7)\n"
            "codes = [nssol.cli.main([cmd, '--config', sys.argv[1], '--out', sys.argv[2],\n"
            "                         '--quiet']) for cmd in ('describe', 'profile',\n"
            "         'scale', 'field', 'verify', 'blowup')]\n"
            "print(codes, 'scipy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code, path, out],
                            capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                                [os.path.join(root, "src"), root])})
    assert result.stdout.strip() == "[0, 0, 0, 0, 0, 0] False"


def test_runtime_failure_exits_3(tmp_path, capsys):
    # m = 10/9 makes c(alpha) vanish: the singular power-law shape has no
    # value at z > 0, a runtime numeric failure
    cfg = _blowup_config()
    cfg["family"]["m"] = 10.0 / 9.0
    path = _write(tmp_path, cfg)
    assert main(["field", "--config", path]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "OutOfRangeError"


def test_steep_collapse_exits_3_without_a_warning(tmp_path):
    # the scaling's steps in t grow too short for their quartics
    # (cases.STEEP_COLLAPSE): a runtime failure, not a config error
    c = cases.STEEP_COLLAPSE
    cfg = {"model": {"N": c["N"], "gamma": 1.0, "theta": c["theta"], "K": 1.0,
                     "kappa": 1.0, "delta": 0},
           "family": {"kind": "pressureless_theta_not1", "lam": c["lam"], "alpha": 1.0,
                      "a0": c["a0"], "a1": c["a1"]},
           "grid": {"t_min": 0.0, "t_max": c["t_end"], "n_t": 2, "r_min": 0.1,
                    "r_max": 1.0, "n_r": 2}}
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "nssol.cli", "blowup",
         "--config", _write(tmp_path, cfg)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(root, "src")})
    assert result.returncode == 3, result.stderr
    assert "Warning" not in result.stderr
    assert json.loads(result.stderr.strip())["error"] == "StepFailureError"


def test_overflowing_profile_exits_3_without_payload(tmp_path, capsys):
    # with A = 1e10, A*exp(B*z**2) leaves the float range before z = 26.6
    cfg = {
        "model": {"N": 3, "gamma": 1.0, "theta": 1.0, "K": 1.0, "kappa": 1.0,
                  "delta": 1},
        "family": {"kind": "with_pressure_isothermal", "A": 1e10, "B": 1.0,
                   "C": 0.0, "a0": 1.0, "a1": 0.0},
        "grid": {"t_min": 0.0, "t_max": 0.1, "n_t": 3, "r_min": 0.1,
                 "r_max": 26.6, "n_r": 5},
    }
    path = _write(tmp_path, cfg)
    for fmt in ("csv", "json"):
        out = tmp_path / f"profile.{fmt}"
        assert main(["profile", "--config", path, "--format", fmt,
                     "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"] == "DomainError"
        assert "z=26.6" in err["message"]
        assert not out.exists()


def test_missing_config_file(capsys):
    assert main(["describe", "--config", "/nonexistent/cfg.json"]) == 2


#: numbers whose %.17g text is easy to get wrong in an array-wide writer:
#: the decade of the truncated 17-digit value (1e-07 is 9.99...95e-08 as a
#: double), exact ties rounding half-even, a rounding that carries into the
#: next decade (1e-14, below the writer's integer window), both sides of
#: that window's edges (1e-11 < |x| < 1e17), the largest double and the
#: smallest subnormal
EDGES = [1e-07, 1e-06, 1234000000000000.25, 123400000000.015625, 1e-14,
         math.nextafter(1e-11, 0.0), 1e-11, math.nextafter(1e-11, math.inf),
         math.nextafter(1e17, 0.0), 1e17, math.nextafter(1e17, math.inf),
         1.7976931348623157e308, 5e-324]

#: values whose text is easy to get wrong: a signed zero, the smallest
#: subnormal, a near-overflow, integral floats, 17-digit mantissas and EDGES
AWKWARD = [-0.0, 5e-324, 1e308, 2.0, -3.0, 0.1, 1.0 / 3.0, 1.0000000000000002,
           123456789.0, -2.5e-17, 6.02214076e23, 0.0] + EDGES[:-1]


def _reference_csv(header, rows):
    return "\n".join([",".join(header)]
                     + [",".join(f"{float(v):.17g}" for v in row) for row in rows]) + "\n"


def _reference_json(header, rows, **extra):
    columns = {name: [row[k] for row in rows] for k, name in enumerate(header)}
    return json.dumps({**columns, **extra}, indent=2) + "\n"


def _table(*args, **extra):
    # a table's payload, joined from the blocks the writer yields
    return b"".join(cli._table(*args, **extra)).decode()


def _lines(text):
    # compared as lists, a failing payload reports its first wrong line
    # at once, where a diff of two long strings takes minutes
    return text.split("\n")


def test_table_writers_match_reference_bytes():
    # field payload: keys t and r on a product grid, two value columns,
    # on a square-ish grid, a single row and a single column
    for n_t, n_r in ((4, 6), (1, 24), (24, 1)):
        ts, rs = np.array(AWKWARD[:n_t]), np.array(AWKWARD[-n_r:])
        rho = np.array(AWKWARD).reshape(n_t, n_r)
        u = -rho[::-1]
        header = ("t", "r", "rho", "u")
        rows = [(t, r, rho[i, j], u[i, j])
                for i, t in enumerate(ts) for j, r in enumerate(rs)]
        assert _table(header, [ts, rs], [rho, u], "csv") == _reference_csv(header, rows)
        assert _table(header, [ts, rs], [rho, u], "json") == _reference_json(header, rows)
    # scale payload: one key column and the nested status object
    ts, a, adot = (np.array(AWKWARD[k::3]) for k in range(3))
    rows = list(zip(ts, a, adot))
    for status in ({"status": "completed", "vanishing_time": None},
                   {"status": "vanished", "vanishing_time": 0.33075163160000003}):
        header = ("t", "a", "adot")
        assert (_table(header, [ts], [a, adot], "json", status=status)
                == _reference_json(header, rows, status=status))
        assert _table(header, [ts], [a, adot], "csv") == _reference_csv(header, rows)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
@example([-0.0, 0.0])
@example(EDGES)
@example([-x for x in EDGES])
@example([1e-07])
@example([1e-06])
@example([1234000000000000.25])
@example([123400000000.015625])
@example([1e-14])
@example([math.nextafter(1e-11, 0.0), math.nextafter(1e-11, math.inf)])
@example([math.nextafter(1e17, 0.0), 1e17])
@example([5e-324, 1.7976931348623157e308])
@example([float(f"1e{m}") for m in range(-12, 19)])
@example([math.nextafter(float(f"1e{m}"), 0.0) for m in range(-12, 19)])
def test_csv_numbers_are_printf_17g(xs):
    # every finite double, subnormals and signed zeros included, as the
    # key and as a value column of a scale table
    ts = np.array(xs)
    text = _table(("t", "a", "adot"), [ts], [ts, -ts], "csv")
    assert text == "t,a,adot\n" + "".join(f"{x:.17g},{x:.17g},{-x:.17g}\n" for x in xs)


def _double(sign, exponent, mantissa):
    return struct.unpack("<d", struct.pack("<Q", sign << 63 | exponent << 52 | mantissa))[0]


#: finite float64 bit patterns: a biased exponent of 0 gives the zeros and
#: subnormals; the narrower range, 9e-10 < |x| < 2e19, spans the writer's
#: window
_bit_patterns = st.builds(_double, st.integers(0, 1),
                          st.one_of(st.integers(0, 2046), st.integers(993, 1086)),
                          st.integers(0, 2**52 - 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(_bit_patterns, min_size=1, max_size=40))
@example(EDGES)
@example([-x for x in EDGES])
@example([2.0**k for k in range(-1074, 1024)])
@example([float(f"1e{m}") for m in range(-12, 19)])
@example([math.nextafter(float(f"1e{m}"), 0.0) for m in range(-12, 19)])
@example([2.0**53 - 1.0, 2.0**53, 2.0**53 + 2.0, -(2.0**53 - 1.0)])
@example([math.nextafter(1e-4, 0.0), 1e-4, math.nextafter(1e-4, 1.0),
          math.nextafter(1e16, 0.0), 1e16, math.nextafter(1e16, math.inf)])
@example([893292487130228.25])  # a tie at 16 digits: repr keeps the even one
@example([0.30000000000000004, 123456789012345.67, 0.1, 5e-324])
def test_json_numbers_are_repr(xs):
    # every finite double, as the key and as a value column of a scale
    # table, exactly as json.dumps writes it: repr, the shortest digits
    # that read back
    ts = np.array(xs)
    rows = list(zip(xs, xs, (-x for x in xs)))
    assert (_lines(_table(("t", "a", "adot"), [ts], [ts, -ts], "json"))
            == _lines(_reference_json(("t", "a", "adot"), rows)))


#: the benchmark's field exports, on their 256 x 256 grids: a Gaussian
#: shape, a power-law blow-up and the pressureless theta = 2 family
FIELD_EXPORTS = [
    ({"N": 3, "gamma": 1.0, "theta": 1.0},
     {"kind": "with_pressure_isothermal", "A": 1.0, "B": -1.0, "C": 0.0,
      "a0": 1.0, "a1": 0.0}, (0.1, 0.5)),
    ({"N": 3, "gamma": 5.0 / 3.0, "theta": 1.0},
     {"kind": "with_pressure_power_law", "m": -1.0, "n": 1.0, "sigma": 1.0,
      "alpha": 1.0}, (0.05, 0.5)),
    ({"N": 3, "gamma": 1.0, "theta": 2.0},
     {"kind": "pressureless_theta_not1", "lam": 1.0, "alpha": 1.0, "a0": 1.0,
      "a1": 0.5}, (0.1, 0.5)),
]


@pytest.mark.parametrize("model, family, times", FIELD_EXPORTS)
def test_full_size_field_csv_matches_reference_bytes(model, family, times):
    config = RunConfig({"model": model, "family": family})
    solution = build_solution(config.params, config.family, t_end=times[1])
    ts, rs = np.linspace(*times, 256), np.linspace(0.1, 2.0, 256)
    rho, u = eval_grid(solution.profile, solution.scaling, config.params.N, ts, rs)
    header = ("t", "r", "rho", "u")
    rows = zip(np.repeat(ts, rs.size), np.tile(rs, ts.size), rho.ravel(), u.ravel())
    assert (_lines(_table(header, [ts, rs], [rho, u], "csv"))
            == _lines(_reference_csv(header, rows)))


@pytest.mark.parametrize("model, family, times", FIELD_EXPORTS)
def test_full_size_field_json_matches_reference_bytes(model, family, times):
    config = RunConfig({"model": model, "family": family})
    solution = build_solution(config.params, config.family, t_end=times[1])
    ts, rs = np.linspace(*times, 256), np.linspace(0.1, 2.0, 256)
    rho, u = eval_grid(solution.profile, solution.scaling, config.params.N, ts, rs)
    header = ("t", "r", "rho", "u")
    rows = zip(np.repeat(ts, rs.size).tolist(), np.tile(rs, ts.size).tolist(),
               rho.ravel().tolist(), u.ravel().tolist())
    assert (_lines(_table(header, [ts, rs], [rho, u], "json"))
            == _lines(_reference_json(header, list(rows))))


def test_csv_rows_past_one_block_match_reference_bytes():
    # a key column longer than the writer's block, cut unevenly, and
    # values spread over 40 decades with both signs
    rng = np.random.default_rng(5)
    ts = np.sort(rng.uniform(0.0, 3.0, 20001))
    a = np.exp(rng.uniform(-46.0, 46.0, ts.size)) * rng.choice([-1.0, 1.0], ts.size)
    header = ("t", "a", "adot")
    assert (_lines(_table(header, [ts], [a, 1.0 / a], "csv"))
            == _lines(_reference_csv(header, zip(ts, a, 1.0 / a))))


def test_json_columns_past_one_block_match_reference_bytes():
    # the JSON twin: a key column longer than the writer's block, cut
    # unevenly, and values spread over 40 decades with both signs
    rng = np.random.default_rng(5)
    ts = np.sort(rng.uniform(0.0, 3.0, 20001))
    a = np.exp(rng.uniform(-46.0, 46.0, ts.size)) * rng.choice([-1.0, 1.0], ts.size)
    header = ("t", "a", "adot")
    rows = list(zip(ts.tolist(), a.tolist(), (1.0 / a).tolist()))
    assert (_lines(_table(header, [ts], [a, 1.0 / a], "json"))
            == _lines(_reference_json(header, rows)))
    # and a grid whose rows do not fill the last block
    ts, rs = ts[:61], np.sort(rng.uniform(0.1, 2.0, 301))
    rho = a[:ts.size * rs.size].reshape(ts.size, rs.size)
    header = ("t", "r", "rho", "u")
    rows = list(zip(np.repeat(ts, rs.size).tolist(), np.tile(rs, ts.size).tolist(),
                    rho.ravel().tolist(), (-rho).ravel().tolist()))
    assert (_lines(_table(header, [ts, rs], [rho, -rho], "json"))
            == _lines(_reference_json(header, rows)))


def _case_config(make):
    # a case of tests/cases.py as a config whose grid is the first half of
    # its window in t (the stated Gaussian collapses at t ~ 0.41)
    params, family, window = make()
    t_mid = 0.5 * (window.t_min + window.t_max)
    return {"model": asdict(params), "family": {"kind": family.tag, **asdict(family)},
            "grid": {"t_min": window.t_min, "t_max": t_mid, "n_t": 7,
                     "r_min": window.r_min, "r_max": window.r_max, "n_r": 9}}


@pytest.mark.parametrize("command", ["profile", "scale", "field"])
@pytest.mark.parametrize("make", [
    cases.isothermal_stated, cases.isothermal_gaussian, cases.polytropic_n1,
    cases.powerlaw_blowup, cases.pressureless_theta1, cases.pressureless_theta2,
], ids=lambda make: make.__name__)
def test_json_payloads_are_canonical_json_dumps(tmp_path, make, command):
    # whatever writes the table, the bytes of a JSON payload are those
    # json.dumps(..., indent=2) gives for the document it holds
    path = _write(tmp_path, _case_config(make))
    out = tmp_path / "payload.json"
    assert main([command, "--config", path, "--out", str(out), "--format", "json",
                 "--quiet"]) == 0
    payload = out.read_text(encoding="utf-8")
    assert payload == json.dumps(json.loads(payload), indent=2) + "\n"


def test_table_refuses_non_finite_values():
    ts, rs = np.array([0.1, 0.2]), np.array([1.0, 2.0, 3.0])
    rho = np.ones((2, 3))
    for bad in (np.inf, -np.inf, np.nan):
        u = np.zeros((2, 3))
        u[1, 2] = bad
        # a transposed copy: refuse reads a mask that is not C-contiguous
        for u in (u, np.asfortranarray(u)):
            for fmt in ("csv", "json"):
                with pytest.raises(NonFiniteFieldError,
                                   match=rf"u at \(t=0.2, r=3.0\) is not finite: {bad!r}"):
                    cli._table(("t", "r", "rho", "u"), [ts, rs], [rho, u], fmt)
    with pytest.raises(NonFiniteFieldError, match=r"adot at \(t=0.2\)"):
        cli._table(("t", "a", "adot"), [ts], [ts, np.array([0.0, np.nan])], "json")


def test_non_finite_payload_exits_3_without_payload(tmp_path, capsys, monkeypatch):
    # a shape that returned inf instead of refusing must not reach a payload
    def evaluate(self, z):
        z = np.abs(np.asarray(z, dtype=float))
        return np.where(z > 0.5, np.inf, 1.0), np.zeros_like(z)

    monkeypatch.setattr(profiles.ExpQuadratic, "evaluate", evaluate)
    path = _write(tmp_path, _isothermal_config(B=-1.0, t_max=0.3))
    for fmt in ("csv", "json"):
        out = tmp_path / f"profile.{fmt}"
        assert main(["profile", "--config", path, "--format", fmt,
                     "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"] == "NonFiniteFieldError"
        assert not out.exists()


def _isothermal_config(B, t_max):
    # B = -1 expands and completes; B = +1 collapses, vanishing at t ~ 0.41
    return {"model": {"N": 3, "gamma": 1.0, "theta": 1.0},
            "family": {"kind": "with_pressure_isothermal", "A": 1.0, "B": B,
                       "C": 0.0, "a0": 1.0, "a1": 0.0},
            "grid": {"t_min": 0.05, "t_max": t_max, "n_t": 7, "r_min": 0.1,
                     "r_max": 1.0, "n_r": 4}}


@pytest.mark.parametrize("m, keys", [
    (-1.0, ["vanishing_time", "vanishing_time_note"]),
    (0.0, ["vanishing_time"]),
    (1.0, ["vanishing_time"]),
])
def test_describe_power_law_keys(tmp_path, capsys, m, keys):
    cfg = _blowup_config()
    cfg["family"]["m"] = m
    assert main(["describe", "--config", _write(tmp_path, cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["family", "ok", "violations", "model", "s",
                         "theta_required", *keys]
    assert doc["vanishing_time"] == (1.0 if m < 0.0 else None)


def test_describe_other_families_add_no_keys(tmp_path, capsys):
    assert main(["describe", "--config",
                 _write(tmp_path, _isothermal_config(-1.0, 0.5))]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["family", "ok", "violations", "model", "s",
                         "theta_required"]


@pytest.mark.parametrize("cfg, status, t_last", [
    # a power law is sampled up to just short of its t* = 1
    (_blowup_config(grid={"t_min": 0.05, "t_max": 2.0, "n_t": 5, "r_min": 0.1,
                          "r_max": 1.0, "n_r": 4}), "completed", 1.0 - 1e-9),
    (_blowup_config(), "completed", 0.3),
    (_isothermal_config(-1.0, 0.5), "completed", 0.5),
    (_isothermal_config(1.0, 1.5), "vanished", None),  # its last node
])
def test_scale_status_and_last_time(tmp_path, capsys, cfg, status, t_last):
    out = tmp_path / "scale.csv"
    assert main(["scale", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert list(summary) == ["ok", "status", "vanishing_time", "path"]
    assert summary["status"] == status
    t = float(out.read_text().splitlines()[-1].split(",")[0])
    if t_last is None:
        config = RunConfig(cfg)
        t_last = build_solution(config.params, config.family, t_end=1.5).scaling.t_end
        assert t_last < summary["vanishing_time"] < 0.42
    assert t == t_last


@pytest.mark.parametrize("cfg, keys, status", [
    (_blowup_config(), ["vanishing_time"], None),
    (_isothermal_config(-1.0, 0.5), ["vanishing_time", "status", "searched_until"],
     "completed"),
    # a collapse's tail adds its law a ~ C*(T - t)**(1/e)
    (_isothermal_config(1.0, 1.5), ["vanishing_time", "status", "searched_until",
                                    "collapse_exponent", "collapse_constant"],
     "vanished"),
])
def test_blowup_keys(tmp_path, capsys, cfg, keys, status):
    out = tmp_path / "blowup.json"
    assert main(["blowup", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert list(doc) == keys
    assert list(json.loads(capsys.readouterr().out)) == ["ok", *keys, "path"]
    if status is not None:
        assert doc["status"] == status
        t_max = cfg["grid"]["t_max"]
        if status == "completed":
            assert doc["vanishing_time"] is None and doc["searched_until"] == t_max
        else:
            assert doc["searched_until"] < doc["vanishing_time"] < t_max
            # e = 2 and e*V/(e - 1) = 2*(2*B*N*kappa) at B = 1, N = 3
            assert doc["collapse_exponent"] == 0.5
            assert doc["collapse_constant"] == pytest.approx(12.0 ** 0.5, rel=1e-15)


def _grid_config(cfg, t_min, t_max, n_t, r_min, r_max, n_r):
    cfg["grid"] = {"t_min": t_min, "t_max": t_max, "n_t": n_t,
                   "r_min": r_min, "r_max": r_max, "n_r": n_r}
    return cfg


def _whole_grid_record(cfg):
    # the error record of the field evaluated in one whole-grid call
    config = RunConfig(cfg)
    grid = config.grid
    solution = build_solution(config.params, config.family, t_end=grid["t_max"])
    ts = np.linspace(grid["t_min"], grid["t_max"], grid["n_t"])
    rs = np.linspace(grid["r_min"], grid["r_max"], grid["n_r"])
    with pytest.raises(NssolError) as exc:
        SolutionField(solution.profile, solution.scaling, config.params.N)(ts[:, None], rs)
    return {"error": type(exc.value).__name__, "message": str(exc.value)}


def _non_finite_in_last_block(monkeypatch):
    # a shape that gives inf instead of refusing, at the largest z only:
    # the last point of a collapsing power-law field, in its second block
    cfg = _grid_config(_blowup_config(), 0.05, 0.5, 40, 0.1, 1.0, 300)
    config = RunConfig(cfg)
    a_last = build_solution(config.params, config.family, t_end=0.5).scaling.pair(0.5)[0]
    z_cut = 1.0 / a_last * (1.0 - 1e-9)
    evaluate = profiles.ImplicitProfile.evaluate

    def broken(self, z):
        y, dy = evaluate(self, z)
        return np.where(np.abs(z) >= z_cut, np.inf, y), dy

    monkeypatch.setattr(profiles.ImplicitProfile, "evaluate", broken)
    return "field", cfg, {"error": "NonFiniteFieldError",
                          "message": "grid contains non-finite field values"}


def _profile_overflow_far_out(monkeypatch):
    # the rising power-law shape overflows from z ~ 2.5e103 on: in the
    # second of three blocks of 20001 points
    cfg = _grid_config(_blowup_config(), 0.05, 0.5, 3, 0.1, 4e103, 20001)
    config = RunConfig(cfg)
    zs = np.linspace(0.0, 4e103, 20001)
    with pytest.raises(NssolError) as exc:
        build_solution(config.params, config.family, t_end=0.5).profile.evaluate(zs)
    return "profile", cfg, {"error": type(exc.value).__name__, "message": str(exc.value)}


def _past_vanished(monkeypatch):
    # the stated Gaussian collapses at t ~ 0.41, and its shape overflows
    # (z > 26.6) from the first row on: the time is refused first
    cfg = _grid_config(_isothermal_config(B=1.0, t_max=0.5), 0.1, 0.5, 40, 0.1, 30.0, 300)
    return "field", cfg, _whole_grid_record(cfg)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("existing", [False, True], ids=["absent", "existing"])
@pytest.mark.parametrize("refusal", [
    _non_finite_in_last_block, _profile_overflow_far_out, _past_vanished,
], ids=lambda refusal: refusal.__name__.lstrip("_"))
def test_refused_run_writes_no_payload(tmp_path, capsys, monkeypatch, refusal, existing, fmt):
    # every refusal comes before the first byte of the payload: an
    # existing --out file is left as it was, and none is created
    command, cfg, record = refusal(monkeypatch)
    path = _write(tmp_path, cfg)
    out = tmp_path / f"payload.{fmt}"
    if existing:
        out.write_bytes(b"an earlier payload\n")
    assert main([command, "--config", path, "--format", fmt, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == json.dumps(record) + "\n"
    if existing:
        assert out.read_bytes() == b"an earlier payload\n"
    else:
        assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_unwritable_out_exits_2(tmp_path, capsys, fmt):
    # --out in a directory that does not exist, and --out naming a
    # directory: a JSON record and exit 2, not a traceback
    path = _write(tmp_path, _grid_config(_blowup_config(), 0.05, 0.5, 4, 0.1, 1.0, 5))
    (tmp_path / "dir").mkdir()
    for out, error in ((tmp_path / "missing" / "x.out", "FileNotFoundError"),
                       (tmp_path / "dir", "IsADirectoryError")):
        assert main(["field", "--config", path, "--format", fmt, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert sorted(record) == ["error", "message"]
        assert record["error"] == error and repr(str(out)) in record["message"]
    assert not (tmp_path / "missing").exists()
    assert list((tmp_path / "dir").iterdir()) == []


def _failing_open(monkeypatch, fails, written):
    """Patch cli.open so the file opened "wb" hands each chunk to
    fails(written, chunk) before writing it, and calls fails(written,
    None) after closing."""
    real_open = open

    class Failing:
        def __init__(self, file):
            self.file = file

        def fileno(self):
            return self.file.fileno()

        def write(self, chunk):
            fails(written, chunk)
            written.append(chunk)
            return self.file.write(chunk)

        def close(self):
            self.file.close()
            fails(written, None)

    def opener(file, mode="r", **kwargs):
        opened = real_open(file, mode, **kwargs)
        return Failing(opened) if mode == "wb" else opened

    monkeypatch.setattr(cli, "open", opener, raising=False)


def _disk_full():
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("failing", ["second_write", "close"])
def test_a_payload_that_fails_part_way_is_removed(tmp_path, capsys, monkeypatch, fmt,
                                                   failing):
    # the disk fills at the second chunk of a two-block field, or when
    # the file's last buffer is flushed: no part of the payload is left
    path = _write(tmp_path, _grid_config(_blowup_config(), 0.05, 0.5, 40, 0.1, 1.0, 300))
    out = tmp_path / f"field.{fmt}"
    written = []

    def fails(written, chunk):
        if (chunk is None) == (failing == "close") and (chunk is None or written):
            raise _disk_full()

    _failing_open(monkeypatch, fails, written)
    assert main(["field", "--config", path, "--format", fmt, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "OSError", "message": f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"}
    assert written and not out.exists()
    assert len(written) == 1 if failing == "second_write" else len(written) > 2


def test_a_payload_interrupted_part_way_is_removed(tmp_path, monkeypatch):
    # any exception after the first chunk, not only an OSError, discards
    # the part written, and propagates as it was
    path = _write(tmp_path, _grid_config(_blowup_config(), 0.05, 0.5, 40, 0.1, 1.0, 300))
    out = tmp_path / "field.csv"
    written = []

    def fails(written, chunk):
        if chunk is not None and written:
            raise KeyboardInterrupt

    _failing_open(monkeypatch, fails, written)
    with pytest.raises(KeyboardInterrupt):
        main(["field", "--config", path, "--out", str(out)])
    assert len(written) == 1 and not out.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_failing_out_that_is_not_a_regular_file_is_left_in_place(
        tmp_path, capsys, monkeypatch):
    # --out naming a FIFO whose reader goes away before the first chunk:
    # the write fails with EPIPE, the run exits 2, and the FIFO, which
    # this run did not create, is still there
    path = _write(tmp_path, _grid_config(_blowup_config(), 0.05, 0.5, 40, 0.1, 1.0, 300))
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    readers = [os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)]
    written = []

    def fails(written, chunk):
        while readers:
            os.close(readers.pop())

    _failing_open(monkeypatch, fails, written)
    try:
        assert main(["field", "--config", path, "--out", str(fifo)]) == 2
    finally:
        fails(written, None)
    assert json.loads(capsys.readouterr().err)["error"] == "BrokenPipeError"
    assert written and stat.S_ISFIFO(os.stat(fifo).st_mode)


@pytest.mark.parametrize("n_t, n_r", [(40, 300), (1, 9000), (3, 5)])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("family", [
    _blowup_config()["family"], FIELD_EXPORTS[2][1],
], ids=["power_law", "theta2"])
def test_streamed_field_matches_reference_bytes(tmp_path, capsys, family, fmt, n_t, n_r):
    # several blocks of rows cut unevenly, one row wider than a block, and
    # less than a block: the file, stdout and the reference agree
    model = FIELD_EXPORTS[1][0] if family["kind"] == "with_pressure_power_law" \
        else FIELD_EXPORTS[2][0]
    cfg = _grid_config({"model": model, "family": family}, 0.05, 0.5, n_t, 0.1, 2.0, n_r)
    path = _write(tmp_path, cfg)
    out = tmp_path / f"field.{fmt}"
    assert main(["field", "--config", path, "--format", fmt, "--out", str(out), "--quiet"]) == 0
    assert main(["field", "--config", path, "--format", fmt]) == 0
    printed = capsys.readouterr().out
    config = RunConfig(cfg)
    solution = build_solution(config.params, config.family, t_end=0.5)
    ts, rs = np.linspace(0.05, 0.5, n_t), np.linspace(0.1, 2.0, n_r)
    rho, u = SolutionField(solution.profile, solution.scaling, config.params.N)(ts[:, None], rs)
    rows = list(zip(np.repeat(ts, n_r).tolist(), np.tile(rs, n_t).tolist(),
                    rho.ravel().tolist(), u.ravel().tolist()))
    reference = (_reference_csv if fmt == "csv" else _reference_json)(("t", "r", "rho", "u"), rows)
    assert _lines(out.read_bytes().decode()) == _lines(reference)
    assert _lines(printed) == _lines(reference)
    assert out.read_bytes() == printed.encode() == reference.encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_field_export_memory_stays_within_a_block_of_the_grid(tmp_path, fmt):
    # a 512 x 512 power-law field: its rho and u take 4 MiB, and its
    # payload about 20 MB, which a writer holding it whole (some three
    # times, near 48 MiB) would show; numpy's buffers are counted
    cfg = _grid_config(_blowup_config(), 0.05, 0.5, 512, 0.1, 2.0, 512)
    path = _write(tmp_path, cfg)
    out = tmp_path / f"field.{fmt}"
    tracemalloc.start()
    try:
        assert main(["field", "--config", path, "--format", fmt, "--out", str(out),
                     "--quiet"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 15 * 2**20
    assert peak < 16 * 2**20
