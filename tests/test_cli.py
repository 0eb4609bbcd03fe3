import copy
import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import normshift
from normshift.cli import main
from normshift.experiment import MAX_COUNT


def run(args):
    return main([str(a) for a in args])


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def subprocess_env():
    """The environment for a child Python that imports this tree's ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_catalogue_listing(capsys):
    assert run(["catalogue"]) == 0
    out = capsys.readouterr().out
    for name in ("gravity", "oscillator", "mdtype", "disc_invariant"):
        assert name in out


def test_catalogue_json(capsys):
    assert run(["catalogue", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    names = {r["name"] for r in rows}
    assert {"gravity", "oscillator", "mdtype", "disc_invariant"} <= names
    for r in rows:
        assert set(r) == {"name", "claims_normality", "params", "description"}


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # the parser is built once, by the first call, and a bad flag leaves it
    # fit for the next one
    from normshift import cli
    assert run(["simulate", "--no-such-flag"]) == 2
    parser = cli.make_parser()
    cfg = write_config(tmp_path, "cfg.json", {**_BASE["simulate"], "n_t": 3})
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 0
    assert (tmp_path / "o" / "trajectory.csv").exists()
    assert run(["shift", "--no-such-flag"]) == 2
    assert cli.make_parser() is parser
    assert capsys.readouterr().err.count("unrecognized arguments: --no-such-flag") == 2


def test_missing_config_exits_2(capsys):
    assert run(["simulate"]) == 2


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {"field": {"catalogue": "nope"},
                                              "init": {"r": [0, 0], "v": [1, 0]},
                                              "t_span": [0, 1]})
    assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 2
    missing = tmp_path / "not_there.json"
    assert run(["simulate", "--config", missing, "--out", tmp_path]) == 2


@pytest.mark.parametrize("content", [
    pytest.param(None, id="directory"),
    pytest.param(b"\xff\xfe{}", id="not-utf8"),
    pytest.param(b'{"n_t": ' + b"1" * 5000 + b"}", id="integer-too-long"),
    pytest.param(b"[" * 100000 + b"]" * 100000, id="nested-too-deep"),
])
def test_unreadable_config_exits_2(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    if content is None:
        cfg.mkdir()
    else:
        cfg.write_bytes(content)
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "config error" in capsys.readouterr().err


def test_simulate_gravity_with_oracle(tmp_path):
    cfg = write_config(tmp_path, "grav.json", {
        "field": {"catalogue": "gravity"},
        "init": {"r": [0.5, 0.0], "v": [0.0, -1.0]},
        "t_span": [0.0, 1.0],
        "n_t": 11,
        "oracle": {"kind": "gravity_constant_nu", "s": 0.5, "tol": 1e-8},
    })
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "o",
                "--check-oracle"]) == 0
    rows = list(csv.DictReader((tmp_path / "o" / "trajectory.csv").read_text().splitlines()))
    assert len(rows) == 11
    assert float(rows[-1]["y"]) == pytest.approx(-1.5, abs=1e-10)
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["oracle"]["passed"] is True


def test_simulate_zero_field_straight_rows(tmp_path):
    cfg = write_config(tmp_path, "zero.json", {
        "field": {"ansatz": {"kind": "speed_profile",
                             "profile": {"kind": "constant", "value": 0.0}}},
        "init": {"r": [0.0, 0.0], "v": [0.5, 0.25]},
        "t_span": [0.0, 2.0],
        "n_t": 5,
        "oracle": {"kind": "zero_field", "tol": 1e-10},
    })
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "z",
                "--check-oracle"]) == 0
    rows = list(csv.DictReader((tmp_path / "z" / "trajectory.csv").read_text().splitlines()))
    for row in rows:
        t = float(row["t"])
        assert float(row["x"]) == pytest.approx(0.5 * t, abs=1e-12)
        assert float(row["y"]) == pytest.approx(0.25 * t, abs=1e-12)


def test_simulate_cycloid_oracle(tmp_path):
    th0, v0, a0 = math.pi / 3, 1.0, 1.0
    omega = a0 * math.sin(th0) / v0
    t_hi = 0.9 * (math.pi - th0) / omega
    cfg = write_config(tmp_path, "cyc.json", {
        "field": {"catalogue": "anisotropic",
                  "params": {"profile": {"kind": "constant", "value": a0}}},
        "init": {"r": [0.0, 0.0], "v": [v0 * math.cos(th0), v0 * math.sin(th0)]},
        "t_span": [0.0, t_hi],
        "n_t": 21,
        "oracle": {"kind": "cycloid", "x0": 0.0, "y0": 0.0, "theta0": th0,
                   "v0": v0, "a0": a0, "tol": 1e-6},
    })
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "c",
                "--check-oracle"]) == 0


def test_oracle_mismatch_exits_3(tmp_path):
    cfg = write_config(tmp_path, "bad_oracle.json", {
        "field": {"catalogue": "oscillator", "params": {"omega": 2.0}},
        "init": {"r": [0.0, 0.5], "v": [0.0, -1.0]},
        "t_span": [0.0, 1.0],
        "oracle": {"kind": "gravity_constant_nu", "s": 0.0, "tol": 1e-8},
    })
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "m",
                "--check-oracle"]) == 3


def test_shift_gravity_constant_nu_normal(tmp_path):
    cfg = write_config(tmp_path, "shift.json", {
        "field": {"catalogue": "gravity"},
        "curve": {"kind": "segment_on_axis", "normal": "right"},
        "nu": {"kind": "solve", "s0": 0.0, "nu0": 1.0},
        "t_span": [0.0, 1.0],
        "n_s": 9, "n_t": 11,
    })
    assert run(["shift", "--config", cfg, "--out", tmp_path / "s"]) == 0
    report = json.loads((tmp_path / "s" / "normality_report.json").read_text())
    assert report["verdict"] == "normal"
    assert report["max_abs_phi"] < 1e-8
    rows = list(csv.DictReader((tmp_path / "s" / "shift_grid.csv").read_text().splitlines()))
    assert len(rows) == 9 * 11


def test_shift_gravity_linear_nu_not_normal(tmp_path):
    cfg = write_config(tmp_path, "shift2.json", {
        "field": {"catalogue": "gravity"},
        "curve": {"kind": "segment_on_axis", "normal": "right"},
        "nu": {"kind": "affine", "a0": 0.75, "a1": -0.25},
        "t_span": [0.0, 1.0],
        "n_s": 9, "n_t": 11,
    })
    assert run(["shift", "--config", cfg, "--out", tmp_path / "s2"]) == 0
    report = json.loads((tmp_path / "s2" / "normality_report.json").read_text())
    assert report["verdict"] == "not normal"


def test_shift_oscillator_tilted_line_not_normal(tmp_path):
    cfg = write_config(tmp_path, "shift3.json", {
        "field": {"catalogue": "oscillator", "params": {"omega": 1.0}},
        "curve": {"kind": "tilted_line"},
        "nu": {"kind": "solve", "s0": 0.0, "nu0": 1.0},
        "t_span": [0.0, 1.0],
        "n_s": 9, "n_t": 11,
    })
    assert run(["shift", "--config", cfg, "--out", tmp_path / "s3"]) == 0
    report = json.loads((tmp_path / "s3" / "normality_report.json").read_text())
    assert report["verdict"] == "not normal"


def test_shift_mdtype_spline_normal(tmp_path):
    rng = np.random.default_rng(3)
    pts = [[-1.0, -0.4], [-0.4, 0.3], [0.2, -0.1], [0.8, 0.5], [1.2, 0.1]]
    cfg = write_config(tmp_path, "shift4.json", {
        "field": {"catalogue": "mdtype",
                  "params": {"f": {"kind": "sin_cos", "amplitude": 0.2},
                             "h": {"kind": "poly", "coeffs": [0.1, 0.2]}}},
        "curve": {"kind": "spline", "points": pts},
        "nu": {"kind": "solve", "s0": 0.5, "nu0": 1.0},
        "t_span": [0.0, 0.5],
        "n_s": 10, "n_t": 11,
    })
    assert run(["shift", "--config", cfg, "--out", tmp_path / "s4"]) == 0
    report = json.loads((tmp_path / "s4" / "normality_report.json").read_text())
    assert report["verdict"] == "normal"


def test_shift_zero_metric_is_the_flat_shift(tmp_path):
    spec = {
        "field": {"catalogue": "metrizable",
                  "params": {"f": {"kind": "linear", "ax": 0.2, "ay": -0.1},
                             "H": {"kind": "poly", "coeffs": [0.1, 0.2]}}},
        "curve": {"kind": "spline", "points": [[-1, 0], [0, 0.4], [1, -0.2]]},
        "nu": {"kind": "solve", "s0": 0.5, "nu0": 1.0},
        "t_span": [0.0, 0.5],
        "n_s": 6, "n_t": 7,
    }
    reports = []
    for name, metric in (("omitted", None), ("zero", {"kind": "zero"})):
        payload = dict(spec) if metric is None else {**spec, "metric": metric}
        cfg = write_config(tmp_path, f"{name}.json", payload)
        assert run(["shift", "--config", cfg, "--out", tmp_path / name]) == 0
        reports.append((tmp_path / name / "normality_report.json").read_text())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["verdict"] == "normal"


def test_shift_metric_nu_solve_off_level_line(tmp_path):
    # geodesics launched normally at constant metric speed shift normally
    # (Gauss lemma), so the solved nu is nu0 exp(f(r(s)) - f(r(s0)))
    cfg = write_config(tmp_path, "offlevel.json", {
        "field": {"ansatz": {"kind": "speed_profile",
                             "profile": {"kind": "constant", "value": 0.0}}},
        "metric": {"kind": "sin_cos", "amplitude": 0.3},
        "curve": {"kind": "segment", "p0": [-0.8, 0.1], "p1": [0.8, 0.1]},
        "nu": {"kind": "solve", "s0": 0.8, "nu0": 1.2},
        "t_span": [0.0, 0.75],
        "n_s": 9, "n_t": 11,
    })
    assert run(["shift", "--config", cfg, "--out", tmp_path / "m"]) == 0
    report = json.loads((tmp_path / "m" / "normality_report.json").read_text())
    assert report["verdict"] == "normal"

    def f(s):
        return 0.3 * math.sin(-0.8 + s) * math.cos(0.1)

    s_nodes = np.linspace(0.0, 1.6, 9)
    expected = [1.2 * math.exp(f(s) - f(0.8)) for s in s_nodes]
    assert np.max(np.abs(np.array(report["nu_per_s_node"]) - expected)) < 1e-8


def test_a_metric_shift_starts_at_its_working_step(tmp_path):
    # geodesics of the sin_cos metric: DOP853's first step from Hairer,
    # Norsett & Wanner's estimate alone, about 0.03, only confirmed that the
    # flow allows one five times longer, and the solve took 5 steps and 89
    # right sides where 4 and 74 do
    cfg = write_config(tmp_path, "metric.json", {
        "field": {"ansatz": {"kind": "speed_profile",
                             "profile": {"kind": "constant", "value": 0.0}}},
        "metric": {"kind": "sin_cos", "amplitude": 0.3},
        "curve": {"kind": "segment", "p0": [0.0, 0.2], "p1": [0.0, 0.9], "normal": "right"},
        "nu": {"kind": "constant", "value": 1.0}, "t_span": [0.0, 0.75], "n_s": 8, "n_t": 50,
    })
    assert run(["shift", "--config", cfg, "--out", tmp_path / "o"]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["integrator"]["accepted_nodes"] - 1 <= 4
    assert manifest["verdict"] == "normal" and manifest["max_abs_phi"] < 1e-9


def test_check_mdtype_sweep(tmp_path, capsys):
    cfg = write_config(tmp_path, "check.json", {
        "field": {"catalogue": "mdtype",
                  "params": {"f": {"kind": "sin_cos", "amplitude": 0.2},
                             "h": {"kind": "poly", "coeffs": [0.1, 0.2]}}},
        "probes": {"count": 40, "seed": 5},
    })
    assert run(["check", "--config", cfg, "--out", tmp_path / "c", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["r1"]["max"] < 1e-5
    assert summary["r2"]["max"] < 1e-5


def test_check_disc_invariant_reduced_sweep(tmp_path):
    cfg = write_config(tmp_path, "check2.json", {
        "field": {"ansatz": {"kind": "disc_invariant", "R": 2.0,
                             "profile": {"kind": "poly", "coeffs": [1.0, 0.3]}}},
        "probes": {"count": 40, "seed": 6,
                   "box": {"x": [-0.8, 0.8], "y": [-0.8, 0.8],
                           "v": [0.5, 3.0], "theta": [-3.1, 3.1]}},
    })
    assert run(["check", "--config", cfg, "--out", tmp_path / "c2"]) == 0
    summary = json.loads((tmp_path / "c2" / "residual_summary.json").read_text())
    assert summary["r_reduced"]["max"] < 1e-7


def test_check_nonsolution_reports_nonzero(tmp_path):
    # A = v^2 theta does not solve the reduced equation
    cfg = write_config(tmp_path, "check3.json", {
        "field": {"ansatz": {"kind": "angular_monomial", "coef": 1.0, "power": 2.0}},
        "probes": {"count": 20, "seed": 7},
    })
    assert run(["check", "--config", cfg, "--out", tmp_path / "c3"]) == 0
    summary = json.loads((tmp_path / "c3" / "residual_summary.json").read_text())
    assert summary["r_reduced"]["max"] > 1e-3
    assert summary["r_reduced"]["mean"] > 1e-4


def test_check_rerun_bit_identical(tmp_path):
    cfg = write_config(tmp_path, "check4.json", {
        "field": {"catalogue": "gravity"},
        "probes": {"count": 25, "seed": 9},
    })
    assert run(["check", "--config", cfg, "--out", tmp_path / "a"]) == 0
    assert run(["check", "--config", cfg, "--out", tmp_path / "b"]) == 0
    assert (tmp_path / "a" / "residuals.csv").read_bytes() == \
        (tmp_path / "b" / "residuals.csv").read_bytes()


def test_check_under_a_metric_sweeps_the_flat_field(tmp_path, capsys):
    # a conformal metric keeps angles, so F is normal in g exactly when its
    # flat field is; check reports r1 and r2 of that field, the one shift
    # integrates (r2 = |grad f|^2 = 0.1), not of F in the flat metric (3.1e-16)
    from normshift.experiment import build_metric, catalogue
    from normshift.forces import flat_from_covariant
    from normshift.normality import probe_points, residual_sweep
    params, metric = {"profile": 0.5}, {"kind": "linear", "ax": 0.3, "ay": 0.1}
    cfg = write_config(tmp_path, "check.json", {
        "field": {"catalogue": "anisotropic", "params": params}, "metric": metric,
        "probes": {"count": 200, "seed": 0}})
    assert run(["check", "--config", cfg, "--out", tmp_path / "c", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert sorted(summary) == ["r1", "r2"] and summary["r2"]["max"] > 0.05
    want = residual_sweep(probe_points(200, seed=0),
                          field=flat_from_covariant(catalogue("anisotropic", params),
                                                    build_metric(metric)))
    table = np.loadtxt(tmp_path / "c" / "residuals.csv", delimiter=",", skiprows=1)
    assert np.array_equal(table[:, 4], want["r1"]) and np.array_equal(table[:, 5], want["r2"])


def test_check_of_an_ansatz_under_a_metric_reports_only_the_weak_residuals(tmp_path, capsys):
    # A generates F, not the flat field, so no generator residual is reported,
    # and asking for the complex one is a config error
    spec = {"field": {"ansatz": {"kind": "cos_profile", "profile": 1.0}},
            "metric": {"kind": "sin_cos", "amplitude": 0.2},
            "probes": {"count": 20, "seed": 1}}
    cfg = write_config(tmp_path, "check.json", spec)
    assert run(["check", "--config", cfg, "--out", tmp_path / "c"]) == 0
    summary = json.loads((tmp_path / "c" / "residual_summary.json").read_text())
    assert sorted(summary) == ["r1", "r2"]
    header = (tmp_path / "c" / "residuals.csv").read_text().splitlines()[0]
    assert header == "x,y,v,theta,r1,r2"
    capsys.readouterr()
    cfg = write_config(tmp_path, "complex.json", {**spec, "include_complex": True})
    assert run(["check", "--config", cfg, "--out", tmp_path / "d"]) == 2
    assert "'include_complex' needs a scalar generator" in capsys.readouterr().err


def test_check_of_a_catalogue_field_rejects_include_complex(tmp_path, capsys):
    # a catalogue field has no scalar generator whose complex residual to take
    cfg = write_config(tmp_path, "check.json", {
        "field": {"catalogue": "gravity"}, "include_complex": True,
        "probes": {"count": 5, "seed": 1}})
    assert run(["check", "--config", cfg, "--out", tmp_path / "c"]) == 2
    assert "'include_complex' needs a scalar generator" in capsys.readouterr().err


def test_emit_plotdata(tmp_path):
    cfg = write_config(tmp_path, "plot.json", {
        "field": {"catalogue": "gravity"},
        "init": {"r": [0.0, 0.0], "v": [1.0, 1.0]},
        "t_span": [0.0, 1.0], "n_t": 6,
    })
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "p",
                "--emit-plotdata"]) == 0
    lines = (tmp_path / "p" / "plot_xy.dat").read_text().strip().splitlines()
    assert len(lines) == 6
    assert len(lines[0].split()) == 2


def test_csv_seventeen_significant_digits(tmp_path):
    cfg = write_config(tmp_path, "digits.json", {
        "field": {"catalogue": "gravity"},
        "init": {"r": [1.0 / 3.0, 0.0], "v": [0.0, -1.0]},
        "t_span": [0.0, 1.0], "n_t": 3,
    })
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "d"]) == 0
    rows = list(csv.DictReader((tmp_path / "d" / "trajectory.csv").read_text().splitlines()))
    assert float(rows[0]["x"]) == 1.0 / 3.0


_BASE = {
    "shift": {"field": {"catalogue": "gravity"},
              "curve": {"kind": "segment_on_axis", "normal": "right"},
              "nu": 1.0, "t_span": [0.0, 1.0], "n_s": 3, "n_t": 4},
    "simulate": {"field": {"catalogue": "gravity"},
                 "init": {"r": [0.0, 0.0], "v": [1.0, 1.0]}, "t_span": [0.0, 1.0]},
    "check": {"field": {"catalogue": "gravity"}, "probes": {"count": 5, "seed": 1}},
}
_BOX = {"x": [-1, 1], "y": [-1, 1], "v": [0.5, 2], "theta": [-3, 3]}


@pytest.mark.parametrize("command, change", [
    pytest.param("shift", {"n_t": "x"}, id="n_t-string"),
    pytest.param("shift", {"n_s": [4]}, id="n_s-list"),
    pytest.param("shift", {"n_s": 0}, id="n_s-zero"),
    pytest.param("shift", {"tolerances": [1e-8, 1e-8]}, id="tolerances-list"),
    pytest.param("simulate", {"n_t": 2.5}, id="simulate-n_t-float"),
    pytest.param("simulate", {"tolerances": "tight"}, id="simulate-tolerances-string"),
    pytest.param("check", {"probes": [5]}, id="probes-list"),
    pytest.param("check", {"probes": {"count": "many"}}, id="count-string"),
    pytest.param("check", {"probes": {"count": 0}}, id="count-zero"),
    pytest.param("check", {"probes": {"seed": -1}}, id="seed-negative"),
    pytest.param("check", {"probes": {"box": {k: _BOX[k] for k in ("x", "v", "theta")}}},
                 id="box-without-y"),
    pytest.param("check", {"probes": {"box": {**_BOX, "v": [0.5]}}}, id="box-short-pair"),
    pytest.param("check", {"probes": {"box": {**_BOX, "theta": ["a", 1]}}},
                 id="box-non-number"),
    pytest.param("shift", {"nu": {"kind": "constant", "value": "x"}}, id="nu-value-string"),
    pytest.param("shift", {"nu": {"kind": "solve", "s0": "x"}}, id="nu-s0-string"),
    pytest.param("shift", {"nu": {"kind": "solve", "nu0": "x"}}, id="nu0-string"),
    pytest.param("shift", {"nu": {"kind": "affine", "a0": "x"}}, id="nu-a0-string"),
    pytest.param("shift", {"nu": {"kind": "solve", "s0": 5.0}}, id="nu-s0-off-curve"),
    pytest.param("shift", {"phi_tol": "x"}, id="phi_tol-string"),
    pytest.param("simulate --check-oracle",
                 {"oracle": {"kind": "gravity_constant_nu", "tol": "x"}}, id="oracle-tol-string"),
    pytest.param("simulate --check-oracle", {"oracle": ["gravity_constant_nu"]},
                 id="oracle-list"),
    pytest.param("simulate --check-oracle",
                 {"oracle": {"kind": "cycloid", "y0": 0, "theta0": 1.0, "v0": 1, "a0": 1}},
                 id="cycloid-oracle-without-x0"),
    pytest.param("shift", {"metric": "foo"}, id="metric-string"),
    pytest.param("simulate", {"metric": {"kind": "sin_cos", "amplitude": "x"}},
                 id="metric-amplitude-string"),
    pytest.param("simulate", {"field": {"catalogue": ["gravity"]}}, id="catalogue-name-list"),
    pytest.param("simulate", {"field": {"catalogue": "gravity", "params": [1.0]}},
                 id="catalogue-params-list"),
    pytest.param("simulate", {"field": {"catalogue": "oscillator", "params": {"omega": "x"}}},
                 id="omega-string"),
    pytest.param("simulate", {"field": {"catalogue": "anisotropic", "params": {
        "profile": {"kind": "constant", "value": "x"}}}}, id="profile-value-string"),
    pytest.param("simulate", {"field": {"catalogue": "anisotropic", "params": {
        "profile": {"kind": "poly", "coeffs": "x"}}}}, id="profile-coeffs-string"),
    pytest.param("simulate", {"field": {"catalogue": "anisotropic", "params": {
        "profile": 1.0, "m": "x"}}}, id="anisotropic-m-string"),
    pytest.param("check", {"field": {"ansatz": "cos_profile"}}, id="ansatz-string"),
    pytest.param("check", {"include_complex": "no"}, id="include_complex-string"),
    pytest.param("check", {"include_complex": 1}, id="include_complex-number"),
    pytest.param("check", {"probes": {"box": {**_BOX, "x": [1, -1]}}}, id="box-reversed"),
    pytest.param("shift", {"phi_tol": 0}, id="phi_tol-zero"),
    pytest.param("simulate --check-oracle",
                 {"oracle": {"kind": "gravity_constant_nu", "tol": -1}}, id="oracle-tol-negative"),
    pytest.param("simulate", {"field": {"catalogue": "anisotropic", "params": {
        "profile": 1.0, "m": [True, False]}}}, id="anisotropic-m-booleans"),
    pytest.param("simulate", {"field": {"catalogue": "anisotropic", "params": {
        "profile": 1.0, "m": ["1", "0"]}}}, id="anisotropic-m-strings"),
    pytest.param("simulate", {"field": {"catalogue": "anisotropic", "params": {
        "profile": 1.0, "m": [0, 0]}}}, id="anisotropic-m-zero"),
    pytest.param("simulate", {"field": {"catalogue": "disc_invariant", "params": {"R": -1}}},
                 id="disc-radius-negative"),
    pytest.param("simulate", {"field": {"catalogue": "oscillator",
                                        "params": {"omega": 10**400}}}, id="omega-huge-integer"),
    pytest.param("shift", {"curve": {"kind": "segment", "p0": [0, 0], "p1": [1e400, 0]}},
                 id="segment-p1-infinite"),
    pytest.param("shift", {"curve": {"kind": "segment", "p0": {"x": 0}, "p1": [1, 0]}},
                 id="segment-p0-object"),
    pytest.param("shift", {"curve": {"kind": "segment", "p0": [False, 0], "p1": [1, 0]}},
                 id="segment-p0-boolean"),
    pytest.param("shift", {"curve": {"kind": "segment", "p0": [1, 0], "p1": [1, 0]}},
                 id="segment-degenerate"),
    pytest.param("shift", {"curve": {"kind": "circle", "radius": 1, "center": [1e400, 0]}},
                 id="circle-center-infinite"),
    pytest.param("shift", {"curve": {"kind": "circle", "radius": 1, "center": {"x": 0}}},
                 id="circle-center-object"),
    pytest.param("shift", {"curve": {"kind": "circle", "radius": 1, "s_range": [0, 1e400]}},
                 id="circle-s_range-infinite"),
    pytest.param("shift", {"curve": {"kind": "circle", "radius": 1, "s_range": None}},
                 id="circle-s_range-null"),
    pytest.param("shift", {"curve": {"kind": "circle", "radius": 1, "s_range": [0, 1, 2]}},
                 id="circle-s_range-three-numbers"),
    pytest.param("shift", {"curve": {"kind": "circle", "radius": 0}}, id="circle-radius-zero"),
    pytest.param("shift", {"curve": {"kind": "circle", "radius": -1}},
                 id="circle-radius-negative"),
    # 1/R and s/R overflow
    pytest.param("shift", {"curve": {"kind": "circle", "radius": 5e-324}},
                 id="circle-radius-subnormal"),
    pytest.param("shift", {"curve": {"kind": "circle", "radius": 1, "normal": "up"}},
                 id="curve-normal-unknown"),
    pytest.param("shift", {"curve": {"kind": "spline", "points": {"a": 1}}},
                 id="spline-points-object"),
    pytest.param("shift", {"curve": {"kind": "spline", "points": [[0, 0], [1, 1]]}},
                 id="spline-two-points"),
    pytest.param("check", {"field": {"ansatz": {"kind": "disc_invariant", "R": 1e300}}},
                 id="disc-radius-overflows"),
    pytest.param("shift", {"t_span": [1e308, -1e308]}, id="t_span-overflows"),
    # finite ends whose width overflows, which the probe generator refuses
    pytest.param("check", {"field": {"ansatz": {"kind": "cos_profile", "profile": 1.0}},
                           "probes": {"count": 5, "box": {**_BOX, "y": [-1e308, 1e308]}}},
                 id="box-wider-than-float-range"),
    # omega = a0 sin(theta0) / v0, whose square underflows: the closed form divides by it
    pytest.param("simulate --check-oracle", {"oracle": {
        "kind": "cycloid", "x0": 0, "y0": 0, "theta0": 1.0, "v0": 1, "a0": 1e-300}},
        id="cycloid-a0-tiny"),
    pytest.param("simulate --check-oracle", {"oracle": {
        "kind": "cycloid", "x0": 0, "y0": 0, "theta0": 1.0, "v0": 1e300, "a0": 1}},
        id="cycloid-v0-huge"),
    pytest.param("simulate --check-oracle", {"oracle": {
        "kind": "cycloid", "x0": 0, "y0": 0, "theta0": 1e-300, "v0": 1, "a0": 1}},
        id="cycloid-theta0-tiny"),
    # 4 omega^2 is a normal float, but a0 / (4 omega^2), the cycloid's size, overflows
    pytest.param("simulate --check-oracle", {"oracle": {
        "kind": "cycloid", "x0": 0, "y0": 0, "theta0": 1.0, "v0": 1e305, "a0": 1e300}},
        id="cycloid-size-overflows"),
    # counts past experiment.MAX_COUNT, refused before anything is allocated
    pytest.param("simulate", {"n_t": 10**400}, id="n_t-beyond-float-range"),
    pytest.param("simulate", {"n_t": MAX_COUNT + 1}, id="n_t-above-ceiling"),
    pytest.param("check", {"probes": {"count": 10**400}}, id="count-beyond-float-range"),
    pytest.param("check", {"probes": {"count": MAX_COUNT + 1}}, id="count-above-ceiling"),
    pytest.param("shift", {"n_s": 10**400}, id="n_s-beyond-float-range"),
    pytest.param("shift", {"n_s": 2000, "n_t": MAX_COUNT // 2000 + 1}, id="grid-above-ceiling"),
])
def test_malformed_config_exits_2(tmp_path, capsys, command, change):
    command, *flags = command.split()
    cfg = write_config(tmp_path, "bad.json", {**_BASE[command], **change})
    assert run([command, "--config", cfg, "--out", tmp_path / "o", *flags]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("curve", [
    pytest.param({"kind": "tilted_line", "s_min": 0.5, "s_max": 0.5}, id="tilted_line-empty"),
    # its default nu s0, the middle of the range, lies in the reversed range's hull
    pytest.param({"kind": "circle", "radius": 1, "s_range": [2, 1]}, id="circle-reversed"),
])
def test_empty_or_reversed_s_range_exits_2(tmp_path, capsys, curve):
    cfg = write_config(tmp_path, "range.json", {**_BASE["shift"], "curve": curve,
                                                "nu": {"kind": "solve"}})
    assert run(["shift", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "s_range" in capsys.readouterr().err


def test_an_arc_that_turns_too_often_is_refused_at_build_time(tmp_path):
    # radius 1e-300 on the default s_range [0, pi] turns about 3e300 radians;
    # the work of a nu solve grows with the turning: without the bound, a solve
    # on this arc ran for more than 15 s
    from normshift.experiment import ConfigError, build_curve

    with pytest.raises(ConfigError, match="more than 1e4"):
        build_curve({"kind": "circle", "radius": 1e-300})
    with pytest.raises(ConfigError, match="more than 1e4"):
        build_curve({"kind": "circle", "radius": 0.999, "s_range": [0.0, 1e4]})
    assert build_curve({"kind": "circle", "radius": 1.0, "s_range": [0.0, 1e4]}).s_range[1] == 1e4
    cfg = write_config(tmp_path, "arc.json", {**_BASE["shift"], "nu": {"kind": "solve"},
                                              "curve": {"kind": "circle", "radius": 1e-300}})
    # a hang fails the test at the timeout instead of stalling the suite
    done = subprocess.run([sys.executable, "-m", "normshift.cli", "shift", "--config", str(cfg),
                           "--out", str(tmp_path / "o")], env=subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "config error" in done.stderr, done.stderr


@pytest.mark.parametrize("r, code", [
    pytest.param([0.5, 0.0], 0, id="pair"),
    pytest.param([[0.5, 0.0]], 0, id="row"),
    pytest.param([[0.5], [0.0]], 0, id="column"),
    pytest.param([True, False], 2, id="booleans"),
    pytest.param(["0", "0"], 2, id="strings"),
    pytest.param({"x": 0.5}, 2, id="object"),
    pytest.param([0.5, 0.0, 1.0], 2, id="three-numbers"),
    pytest.param([[0.5, 0.0], [1.0, 1.0]], 2, id="two-points"),
    pytest.param("ab", 2, id="string"),
    pytest.param(None, 2, id="null"),
    pytest.param([1e400, 0.0], 2, id="infinite"),
])
def test_init_takes_one_point_of_two_numbers(tmp_path, r, code):
    cfg = write_config(tmp_path, "init.json", {**_BASE["simulate"],
                                               "init": {"r": r, "v": [1.0, 1.0]}})
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == code


def recording(monkeypatch, name):
    """The solutions that each call of ``odesolve.<name>`` returns, in a list
    that grows as the solver is called."""
    from normshift import odesolve
    solves, solve = [], getattr(odesolve, name)

    def recorded(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(odesolve, name, recorded)
    return solves


def step_sizes(steps) -> dict:
    """The manifest's step-size keys for accepted steps of these lengths."""
    return {"first_step": steps[0], "min_step": min(steps), "max_step": max(steps)}


@pytest.mark.parametrize("integrator, solver, per_attempt, per_accepted, start", [
    ({"integrator": "dopri-adaptive"}, "solve_dopri", 12, 3, 2),
    ({"integrator": "rk4-fixed", "step": 0.05}, "solve_rk4", 4, 0, 1)],
    ids=["dopri-adaptive", "rk4-fixed"])
def test_simulate_manifest_records_the_integrators_work(tmp_path, monkeypatch, integrator, solver,
                                                        per_attempt, per_accepted, start):
    solves = recording(monkeypatch, solver)
    cfg = write_config(tmp_path, "osc.json", {
        "field": {"catalogue": "oscillator", "params": {"omega": 1.0}},
        "init": {"r": [0.0, 0.5], "v": [1.0, 0.0]}, "t_span": [0.0, 2.0], "n_t": 5,
        **integrator})
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 0
    work = json.loads((tmp_path / "o" / "manifest.json").read_text())["integrator"]
    steps, rejected = work["accepted_nodes"] - 1, work["rejected_steps"]
    assert steps > 0
    assert work["rhs_calls"] == (start + per_attempt * (steps + rejected)
                                 + per_accepted * steps)
    (sol,) = solves
    assert {key: work[key] for key in ("first_step", "min_step", "max_step")} == step_sizes(
        np.abs(np.diff(sol.ts)).tolist())


def test_a_run_that_takes_no_step_records_null_step_sizes(tmp_path):
    cfg = write_config(tmp_path, "osc.json", {**_BASE["simulate"], "t_span": [0.5, 0.5]})
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 0
    work = json.loads((tmp_path / "o" / "manifest.json").read_text())["integrator"]
    assert (work["accepted_nodes"], work["rhs_calls"]) == (1, 1)
    assert work["first_step"] is work["min_step"] is work["max_step"] is None


# Small valid configs: each run is short (n_t and n_s at most 5, t_span at
# most 0.2), so that no replaced value can make one allocate or step much.
_FUZZ_BASE = {
    "simulate": {
        "field": {"catalogue": "oscillator", "params": {"omega": 1.0}},
        "init": {"r": [0.0, 0.5], "v": [1.0, 0.0]},
        "t_span": [0.0, 0.2], "n_t": 5,
        "integrator": "rk4-fixed", "step": 0.05,
    },
    "simulate --check-oracle": {
        "field": {"catalogue": "anisotropic",
                  "params": {"profile": {"kind": "poly", "coeffs": [1.0, 0.0]}, "m": [1.0, 0.0]}},
        "metric": {"kind": "constant", "value": 0.5},
        "init": {"r": [0.0, 0.0], "v": [0.5, 0.5]},
        "t_span": [0.0, 0.2], "n_t": 5,
        "integrator": "dopri-adaptive", "tolerances": {"abs": 1e-8, "rel": 1e-8},
        "oracle": {"kind": "cycloid", "x0": 0.0, "y0": 0.0, "theta0": math.pi / 4,
                   "v0": math.sqrt(0.5), "a0": 1.0, "tol": 1e-6},
    },
    "shift": {
        "field": {"catalogue": "gravity", "params": {"magnitude": 1.0}},
        "curve": {"kind": "circle", "center": [0.0, 0.0], "radius": 1.0, "s_range": [0.0, 0.2],
                  "normal": "left"},
        "nu": {"kind": "solve", "s0": 0.1, "nu0": 1.0},
        "t_span": [0.0, 0.2], "n_s": 3, "n_t": 3, "phi_tol": 1e-6,
        "tolerances": {"abs": 1e-8, "rel": 1e-8},
    },
    "check": {
        "field": {"ansatz": {"kind": "disc_invariant", "R": 2.0,
                             "profile": {"kind": "poly", "coeffs": [1.0, 0.3]}}},
        "probes": {"count": 5, "seed": 1, "box": {"x": [-0.5, 0.5], "y": [-0.5, 0.5],
                                                 "v": [0.5, 2.0], "theta": [-3.0, 3.0]}},
        "include_complex": True,
    },
}
_FUZZ_POOL = [None, True, "x", {}, [], -1, 0, 5e-324, [1e400, 0], [[0, 0]]]


def key_paths(node, prefix=()):
    """The path of every object member and list entry below ``node``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from key_paths(value, prefix + (key,))


@pytest.mark.parametrize("command", sorted(_FUZZ_BASE))
def test_any_value_anywhere_exits_0_2_or_3(tmp_path, command):
    base = _FUZZ_BASE[command]
    command, *flags = command.split()
    argv = [command, "--config", tmp_path / "cfg.json", "--out", tmp_path / "o", *flags]
    write_config(tmp_path, "cfg.json", base)
    assert run(argv) == 0
    broken = []
    for path in key_paths(base):
        for value in _FUZZ_POOL:
            cfg = copy.deepcopy(base)
            node = cfg
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            write_config(tmp_path, "cfg.json", cfg)
            try:
                code = run(argv)
            except Exception as exc:
                code = f"{type(exc).__name__}: {exc}"
            if code not in (0, 2, 3):
                broken.append(f"{'.'.join(map(str, path))} = {value!r}: {code}")
    assert broken == []


def test_check_formulation_mismatch_exits_3(tmp_path, capsys, monkeypatch):
    from normshift import normality
    # the Cartesian assembly of one evaluation of the field disagrees
    monkeypatch.setattr(normality, "_weak_cartesian", lambda *sample: (1.0, 1.0))
    cfg = write_config(tmp_path, "mismatch.json", _BASE["check"])
    assert run(["check", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert "numeric failure: FormulationMismatch" in capsys.readouterr().err


def test_non_finite_residuals_exit_3(tmp_path, capsys):
    # the field's magnitude overflows the weak residuals: inf or NaN in every
    # row is no result, and a NaN would pass the formulations' cross-check
    cfg = write_config(tmp_path, "huge.json", {
        "field": {"catalogue": "gravity", "params": {"magnitude": 1e308}},
        "probes": {"count": 5}})
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(["check", "--config", cfg, "--out", tmp_path / "o"]) == 3
    err = capsys.readouterr().err
    assert "numeric failure: InvalidParams: the r1 residual is not finite at 1 of 5 probes" in err
    assert "first (x, y, v, theta) = (" in err
    assert not (tmp_path / "o" / "residual_summary.json").exists()


def test_non_finite_residuals_exit_3_with_one_line_of_stderr(tmp_path):
    # under Python's default warning filters: the overflowing assembly of the
    # residuals is refused by the sweep, not warned about first
    cfg = write_config(tmp_path, "huge.json", {
        "field": {"catalogue": "gravity", "params": {"magnitude": 1e308}},
        "probes": {"count": 5}})
    done = subprocess.run([sys.executable, "-m", "normshift.cli", "check", "--config", str(cfg),
                           "--out", str(tmp_path / "o")], env=subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 3
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric failure: "), done.stderr


@pytest.mark.parametrize("name", ["metrizable", "mdtype"])
@pytest.mark.parametrize("f", [800, -800])
def test_a_w_v_off_the_float_range_exits_2_with_one_line_of_stderr(tmp_path, name, f):
    # under Python's default warning filters: W_v = exp(-f) underflows to 0
    # or overflows to inf at the probe points, and both names refuse it
    # with one line, before a step is taken
    cfg = write_config(tmp_path, "steep.json", {
        **_BASE["simulate"],
        "field": {"catalogue": name, "params": {"f": {"kind": "constant", "value": f}}}})
    done = subprocess.run([sys.executable, "-m", "normshift.cli", "simulate", "--config",
                           str(cfg), "--out", str(tmp_path / "o")], env=subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr == "config error: W_v vanishes or is not finite at a probe point\n"


def test_tolerances_that_overflow_the_error_scale_run_without_a_warning(tmp_path):
    # abs + rel |y| overflows to inf in the starting-step estimate, which is
    # handled there; under the suite's error::RuntimeWarning a warning fails
    cfg = write_config(tmp_path, "loose.json", {
        **_BASE["simulate"], "tolerances": {"abs": 1e308, "rel": 1e308}})
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 0


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_a_config_with_a_non_json_constant_exits_2(tmp_path, capsys, literal):
    # Python's json reads these, and the manifest would echo them back
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_BASE["simulate"])[:-1] + f', "note": {literal}}}')
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert f"config error: config is not valid JSON: {literal} is not a JSON value" in (
        capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def strict_json(path) -> dict:
    """The JSON in ``path``; ValueError on NaN, Infinity or -Infinity, which
    Python's json writes but no JSON reader takes."""

    def refuse(name):
        raise ValueError(f"{name} is not a JSON value")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


def test_a_mean_whose_sum_overflows_is_finite(tmp_path, capsys):
    # |r2| and |r_reduced| near 1.2e307 at 50 probes: their sum overflows,
    # and the mean once read Infinity at exit 0, after an overflow warning
    cfg = write_config(tmp_path, "huge.json", {
        "field": {"ansatz": {"kind": "angular_monomial", "coef": 1e153, "power": 0}},
        "probes": {"count": 50, "box": {"x": [0, 1], "y": [0, 1], "v": [0.5, 0.6],
                                        "theta": [3.0, 3.1]}}})
    assert run(["check", "--config", cfg, "--out", tmp_path / "o", "--json"]) == 0
    summary = strict_json(tmp_path / "o" / "residual_summary.json")
    assert strict_json(tmp_path / "o" / "manifest.json")["summary"] == summary
    assert json.loads(capsys.readouterr().out) == summary
    table = np.loadtxt(tmp_path / "o" / "residuals.csv", delimiter=",", skiprows=1)
    for name, column in (("r2", 5), ("r_reduced", 6)):
        mags = np.abs(table[:, column])
        assert summary[name]["max"] == mags.max() > 1e307
        assert 0.5 * mags.max() < summary[name]["mean"] <= mags.max()
        assert summary[name]["mean"] == pytest.approx(np.mean(mags / mags.max()) * mags.max(),
                                                      rel=1e-15)


def test_residuals_that_overflow_exit_3_with_one_line(tmp_path, capsys):
    # r2, r_reduced and r_complex overflow at every probe: the sweep refuses
    # them, and the reduced and complex residuals once warned before it did
    cfg = write_config(tmp_path, "overflow.json", {
        "field": {"ansatz": {"kind": "angular_monomial", "coef": 1e154, "power": 0}},
        "include_complex": True,
        "probes": {"count": 50, "box": {"x": [0, 1], "y": [0, 1], "v": [0.5, 0.6],
                                        "theta": [3.0, 3.1]}}})
    assert run(["check", "--config", cfg, "--out", tmp_path / "o"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: InvalidParams: the r2 residual is not finite at "
                          "50 of 50 probes")
    assert err.count("\n") == 1


def test_an_angle_whose_norms_overflow_is_finite(tmp_path, capsys):
    # tau and v near 5e199: |tau| |v| overflows, and the worst angle once read
    # NaN at exit 0, after three warnings; tau' = nu' n makes tau parallel to v
    cfg = write_config(tmp_path, "steep.json", {
        "field": {"catalogue": "gravity"},
        "curve": {"kind": "segment", "p0": [0, 0], "p1": [1, 0]},
        "nu": {"kind": "affine", "a0": 1.0, "a1": 1e200},
        "t_span": [0, 0.5], "n_s": 4, "n_t": 3})
    assert run(["shift", "--config", cfg, "--out", tmp_path / "o", "--json"]) == 0
    report = strict_json(tmp_path / "o" / "normality_report.json")
    assert json.loads(capsys.readouterr().out) == report
    assert report["max_tau_norm"] > 1e199
    assert report["max_angle_deviation_deg"] == pytest.approx(90.0, abs=1e-6)


def test_a_nu_solve_that_reaches_only_s0_exits_3(tmp_path, capsys):
    # both branches stop at s0 = 0.5: the grid was once n_s copies of the
    # column at s0, written at exit 0
    cfg = write_config(tmp_path, "stuck.json", {
        "field": {"catalogue": "gravity", "params": {"magnitude": 1e300}},
        "curve": {"kind": "spline", "points": [[-1, 0], [0, 0.4], [1, -0.2]]},
        "nu": {"kind": "solve", "s0": 0.5, "nu0": 1.0},
        "t_span": [0, 0.5], "n_s": 8, "n_t": 10})
    assert run(["shift", "--config", cfg, "--out", tmp_path / "o"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: NuBlowup: nu(s) reached [0.5, 0.5], ")
    assert "on [0.5, 0], stopped at s=0.5: StepFailure: step size underflow" in err
    assert "on [0.5, 1], stopped at s=0.5: StepFailure: step size underflow" in err
    assert not (tmp_path / "o" / "shift_grid.csv").exists()


def test_an_oracle_mismatch_writes_every_output_it_lists(tmp_path, capsys):
    # the manifest of a mismatch once came from a second path, which listed
    # trajectory.csv alone and wrote no plot file
    cfg = write_config(tmp_path, "off.json", {
        "field": {"catalogue": "gravity"}, "init": {"r": [0, 1], "v": [0.3, 0]},
        "t_span": [0, 1], "n_t": 20, "oracle": {"kind": "zero_field", "tol": 1e-6}})
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "o", "--check-oracle",
                "--emit-plotdata"]) == 3
    assert capsys.readouterr().err.startswith("oracle mismatch: ")
    manifest = strict_json(tmp_path / "o" / "manifest.json")
    assert manifest["outputs"] == ["trajectory.csv", "plot_xy.dat", "manifest.json"]
    assert all((tmp_path / "o" / name).is_file() for name in manifest["outputs"])
    assert manifest["oracle"]["passed"] is False


@pytest.mark.parametrize("command", ["simulate", "shift"])
def test_rk4_step_count_over_budget_exits_3(tmp_path, capsys, command):
    # 1 / 5e-324 steps overflow to inf
    cfg = write_config(tmp_path, "cfg.json", {**_BASE[command], "integrator": "rk4-fixed",
                                              "step": 5e-324})
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert "numeric failure: StepFailure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "shift"])
def test_a_span_the_steps_cannot_cover_exits_3_without_a_warning(tmp_path, capsys, command):
    # DOP853's steps grow until its own stage sums overflow; that rejects
    # them, down to an underflow, instead of raising NumPy's overflow warning
    cfg = write_config(tmp_path, "cfg.json", {**_BASE[command], "t_span": [0.0, 1e300]})
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert "numeric failure: StepFailure: step size underflow" in capsys.readouterr().err


@pytest.mark.parametrize("command, t_span, launch", [
    ("simulate", [0.0, 1e-15], {"t": 0.0, "x": 0.0, "y": 0.0, "vx": 1.0, "vy": 1.0}),
    ("simulate", [1e6, 1e6 + 1e-9], {"t": 1e6, "x": 0.0, "y": 0.0, "vx": 1.0, "vy": 1.0}),
    # the first column: the curve's point at s = -1, launched along n = (0, -1)
    # with nu = 1, and tau = r_s = (1, 0) = M
    ("shift", [0.0, 1e-15], {"t": 0.0, "s": -1.0, "x": -1.0, "y": 0.0, "vx": 0.0, "vy": -1.0,
                             "phi": 0.0, "psi": 1.0, "nu": 1.0}),
], ids=["simulate-from-0", "simulate-from-1e6", "shift-from-0"])
def test_a_span_below_the_underflow_step_is_one_step(tmp_path, command, t_span, launch):
    # a span shorter than 1e-14 max(1, |t|) once failed as a step-size underflow
    cfg = write_config(tmp_path, "cfg.json", {**_BASE[command], "t_span": t_span})
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 0
    table = "trajectory.csv" if command == "simulate" else "shift_grid.csv"
    rows = list(csv.DictReader((tmp_path / "o" / table).read_text().splitlines()))
    assert {key: float(value) for key, value in rows[0].items()} == launch


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NumPy warns as nu overflows
def test_nonfinite_launch_data_exits_3(tmp_path, capsys):
    # finite a0 and a1, but nu(1) = a0 + a1 overflows
    cfg = write_config(tmp_path, "cfg.json", {**_BASE["shift"],
                                              "nu": {"kind": "affine", "a0": 1e308, "a1": 1e308}})
    assert run(["shift", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert "numeric failure: StepFailure: launch data" in capsys.readouterr().err


def test_shift_reports_why_nu_solve_stopped(tmp_path):
    # F = -m with m = (1, 0), launched down the y axis: M = m and B = -1, so
    # nu nu' = 1 and nu^2 = nu0^2 + 2 s, which reaches zero at s = -nu0^2 / 2
    reports = {}
    for nu0 in (0.5, 2.0):
        cfg = write_config(tmp_path, f"nu{nu0}.json", {
            "field": {"catalogue": "anisotropic", "params": {"profile": 1.0}},
            "curve": {"kind": "segment_on_axis", "normal": "right"},
            "nu": {"kind": "solve", "s0": 0.0, "nu0": nu0},
            "t_span": [0.0, 0.2], "n_s": 5, "n_t": 3,
        })
        assert run(["shift", "--config", cfg, "--out", tmp_path / str(nu0)]) == 0
        reports[nu0] = json.loads((tmp_path / str(nu0) / "normality_report.json").read_text())
    truncated, full = reports[0.5], reports[2.0]
    assert truncated["nu_truncated"] is True
    assert -0.125 < truncated["nu_interval"][0] < -0.1
    assert "fell below" in truncated["nu_stop_reason"]
    assert full["nu_truncated"] is False
    assert "nu_stop_reason" not in full


@pytest.mark.parametrize("nu0, truncated", [(0.5, True), (2.0, False)],
                         ids=["truncated", "whole"])
def test_shift_manifest_records_the_nu_solves_work(tmp_path, monkeypatch, nu0, truncated):
    # the field of test_shift_reports_why_nu_solve_stopped: from nu0 = 0.5
    # the lower branch stops, which drops the stacked solve of both
    # branches, and each branch is then solved alone
    from normshift import odesolve
    from normshift.errors import StepFailure
    calls, solves, solve = [], [], odesolve.solve_chebyshev

    def recorded(rhs, *args, **kwargs):
        calls.append(0)  # the right sides of this solve

        def counted(*rhs_args):
            calls[-1] += 1
            return rhs(*rhs_args)

        try:
            solves.append(solve(counted, *args, **kwargs))
        except StepFailure as exc:
            solves.append(exc.solution)
            raise
        return solves[-1]

    monkeypatch.setattr(odesolve, "solve_chebyshev", recorded)
    cfg = write_config(tmp_path, "cfg.json", {
        "field": {"catalogue": "anisotropic", "params": {"profile": 1.0}},
        "curve": {"kind": "segment_on_axis", "normal": "right"},
        "nu": {"kind": "solve", "s0": 0.0, "nu0": nu0},
        "t_span": [0.0, 0.2], "n_s": 5, "n_t": 3})
    assert run(["shift", "--config", cfg, "--out", tmp_path / "o"]) == 0
    report = json.loads((tmp_path / "o" / "normality_report.json").read_text())
    work = json.loads((tmp_path / "o" / "manifest.json").read_text())["nu_solve"]
    assert report["nu_truncated"] is truncated and len(solves) == (3 if truncated else 1)
    # the dropped attempt ended in its right side, with no steps kept; the
    # solves that made the solution are the rest, one per branch
    kept = solves[1:] if truncated else solves
    assert [sol.ys.shape[1] for sol in kept] == ([1, 1] if truncated else [2])
    assert [sol.rhs_calls for sol in kept] == calls[-len(kept):] and min(calls) > 0
    # every right side counts, the dropped attempt's included
    assert work["rhs_calls"] == sum(calls)
    assert work["rejected_steps"] == sum(sol.rejected_steps for sol in kept)
    assert (work["rejected_steps"] > 0) is truncated
    # a solve's steps belong to each of its rows' branches
    assert work["accepted_nodes"] == 1 + sum((len(sol.ts) - 1) * sol.ys.shape[1]
                                             for sol in kept)
    # s = s0 + sigma (end - s0) = +-sigma exactly, so the steps in s are the
    # solves' steps in sigma; the joined solution ascends in s, and its
    # first step, at s_lo, is the lower branch's last, taken in the first
    # kept solve
    steps = [abs(step) for sol in kept for step in np.diff(sol.ts).tolist()]
    assert {key: work[key] for key in ("first_step", "min_step", "max_step")} == {
        **step_sizes(steps), "first_step": abs(float(np.diff(kept[0].ts)[-1]))}


@pytest.mark.parametrize("integrator, solver", [
    ({"integrator": "dopri-adaptive", "tolerances": {"abs": 1e-9, "rel": 1e-9}}, "solve_dopri"),
    ({"integrator": "rk4-fixed", "step": 0.05}, "solve_rk4")], ids=["dopri-adaptive", "rk4-fixed"])
def test_shift_manifest_records_the_deviation_solves_work(tmp_path, monkeypatch, integrator,
                                                          solver):
    # mdtype has no analytic Jacobians, so its deviations take the complex step;
    # on this span DOP853 rejects one attempt
    solves = recording(monkeypatch, solver)
    cfg = write_config(tmp_path, "cfg.json", {
        "field": {"catalogue": "mdtype", "params": {"f": {"kind": "linear", "ax": 0.2, "ay": -0.1},
                                                    "h": {"kind": "poly", "coeffs": [0.2, 0.1]}}},
        "curve": {"kind": "spline", "points": [[0.0, 0.0], [0.4, 0.3], [0.9, 0.1]]},
        "nu": {"kind": "solve", "s0": 0.5, "nu0": 1.0}, "t_span": [0.0, 1.5], "n_s": 6, "n_t": 4,
        **integrator})
    assert run(["shift", "--config", cfg, "--out", tmp_path / "o"]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    (sol,) = solves
    assert sol.rhs_calls > 0 and len(sol.ts) > 2
    assert manifest["integrator"] == {
        "method": integrator["integrator"], "abs_tol": 1e-9 if solver == "solve_dopri" else 1e-10,
        "rel_tol": 1e-9 if solver == "solve_dopri" else 1e-10, "accepted_nodes": len(sol.ts),
        "rhs_calls": sol.rhs_calls, "rejected_steps": sol.rejected_steps,
        **step_sizes(np.abs(np.diff(sol.ts)).tolist())}
    assert {"nu_solve", "verdict", "max_abs_phi"} <= set(manifest)


@pytest.mark.parametrize("field, y0, error", [
    ({"catalogue": "disc_invariant", "params": {"R": 1.0, "profile": 2.0}}, 0.6,
     "InvalidParams: evaluation point too close to the disc boundary"),
    ({"catalogue": "marked_point", "params": {"profile": 0.5, "center": [0.0, 1.0]}}, 0.0,
     "DegenerateVelocity"),
], ids=["disc-boundary", "marked-point-center"])
def test_shift_into_a_singularity_exits_3_naming_the_s_range(tmp_path, capsys, field, y0, error):
    # the fronts run into the disc's boundary circle or onto the marked point
    cfg = write_config(tmp_path, "cfg.json", {
        "field": field,
        "curve": {"kind": "segment", "p0": [-0.3, y0], "p1": [0.3, y0], "normal": "left"},
        "nu": {"kind": "constant", "value": 1.0}, "t_span": [0, 2], "n_s": 7, "n_t": 5})
    assert run(["shift", "--config", cfg, "--out", tmp_path / "out"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numeric failure: {error}")
    assert err.rstrip().endswith("(at s in [0, 0.6])")


def test_a_column_that_comes_to_rest_exits_3_naming_t(tmp_path, capsys):
    # F = -m with m = (1, 0): the column launched from s = 0 with nu = 0.3
    # falls below V_MIN before t = 0.5, while the columns from s >= 0.5 do not
    cfg = write_config(tmp_path, "cfg.json", {
        "field": {"catalogue": "anisotropic", "params": {"profile": 1.0}},
        "curve": {"kind": "segment_on_axis", "normal": "right"},
        "nu": {"kind": "solve", "s0": 0.0, "nu0": 0.3},
        "t_span": [0.0, 0.5], "n_s": 5, "n_t": 3})
    assert run(["shift", "--config", cfg, "--out", tmp_path / "out"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: DegenerateVelocity")
    found = re.search(r"\(at t=(\S+), last accepted t=(\S+)\) \(at s in \[\S+, 1\]\)$",
                      err.rstrip())
    assert found, err
    stage, accepted = map(float, found.groups())
    assert 0.0 < accepted <= stage < 0.5


SCIPY_FREE_RUN = """
import importlib, json, math, pkgutil, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import normshift
from normshift.cli import main
from normshift.closedform import marked_point_quadrature
from normshift.forces import Profile


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                  and sys.modules[m] is not None)


out, results = sys.argv[1], []
for cmd, name in (("simulate", "sim"), ("shift", "shift"), ("check", "check")):
    extra = ["--check-oracle"] if cmd == "simulate" else []
    code = main([cmd, "--config", f"{out}/{name}.json", "--out", f"{out}/{name}", *extra])
    results.append([cmd, code, scipy_modules()])
modules = [info.name for info in pkgutil.iter_modules(normshift.__path__)]
for name in modules:
    importlib.import_module(f"normshift.{name}")
# test_closedform's marked-point table, read halfway through
table = marked_point_quadrature(Profile.constant(1.0), (1.0, 0.0, 1.5, math.pi / 3), 0.35)
state = table.state_at(0.5 * table.duration)
results.append(["import " + ",".join(modules),
                all(map(math.isfinite, [*state.r, *state.v])), scipy_modules()])
print(json.dumps(results))
"""


def test_cli_runs_without_scipy(tmp_path):
    write_config(tmp_path, "sim.json", {
        "field": {"catalogue": "anisotropic",
                  "params": {"profile": {"kind": "constant", "value": 1.0}}},
        "init": {"r": [0.0, 0.0], "v": [0.5, 0.5 * math.sqrt(3.0)]},
        "t_span": [0.0, 1.0], "n_t": 11,
        "oracle": {"kind": "cycloid", "x0": 0.0, "y0": 0.0, "theta0": math.pi / 3,
                   "v0": 1.0, "a0": 1.0, "tol": 1e-6}})
    write_config(tmp_path, "shift.json", {
        "field": {"catalogue": "mdtype",
                  "params": {"f": {"kind": "sin_cos", "amplitude": 0.2},
                             "h": {"kind": "poly", "coeffs": [0.1, 0.2]}}},
        "curve": {"kind": "spline",
                  "points": [[-1.0, -0.4], [-0.4, 0.3], [0.2, -0.1], [0.8, 0.5]]},
        "nu": {"kind": "solve", "s0": 0.5, "nu0": 1.0},
        "t_span": [0.0, 0.5], "n_s": 6, "n_t": 5})
    write_config(tmp_path, "check.json", {
        "field": {"catalogue": "mdtype",
                  "params": {"f": {"kind": "sin_cos", "amplitude": 0.2},
                             "h": {"kind": "poly", "coeffs": [0.1, 0.2]}}},
        "probes": {"count": 20, "seed": 5}})
    done = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUN, str(tmp_path)],
                          env=subprocess_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    modules = sorted(p.stem for p in Path(normshift.__file__).parent.glob("*.py")
                     if p.stem != "__init__")
    assert json.loads(done.stdout.splitlines()[-1]) == [
        ["simulate", 0, []], ["shift", 0, []], ["check", 0, []],
        ["import " + ",".join(modules), True, []]]
