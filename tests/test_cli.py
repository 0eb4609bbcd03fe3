import copy
import csv
import json
import math

import numpy as np
import pytest

from normshift.cli import main


def run(args):
    return main([str(a) for a in args])


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


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
    pytest.param("shift", {"curve": {"kind": "circle", "radius": 1, "normal": "up"}},
                 id="curve-normal-unknown"),
    pytest.param("shift", {"curve": {"kind": "spline", "points": {"a": 1}}},
                 id="spline-points-object"),
    pytest.param("shift", {"curve": {"kind": "spline", "points": [[0, 0], [1, 1]]}},
                 id="spline-two-points"),
    pytest.param("check", {"field": {"ansatz": {"kind": "disc_invariant", "R": 1e300}}},
                 id="disc-radius-overflows"),
    pytest.param("shift", {"t_span": [1e308, -1e308]}, id="t_span-overflows"),
])
def test_malformed_config_exits_2(tmp_path, capsys, command, change):
    command, *flags = command.split()
    cfg = write_config(tmp_path, "bad.json", {**_BASE[command], **change})
    assert run([command, "--config", cfg, "--out", tmp_path / "o", *flags]) == 2
    assert "config error" in capsys.readouterr().err


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


# Small valid configs: each run is short (n_t and n_s at most 5, t_span at
# most 0.2), so that no replaced value can make one allocate or step much.
_FUZZ_BASE = {
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
_FUZZ_POOL = [None, True, "x", {}, [], -1, 0, [1e400, 0], [[0, 0]]]


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
