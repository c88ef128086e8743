"""End-to-end command line behavior: schemas, formats, exit codes."""

import json
import math

import numpy as np
import pytest

import curvatur.catalog as cat
import curvatur.intrinsic as ig
import curvatur.numkit as nk
import curvatur.verify as vf
from curvatur import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out)
    for key in ("command", "geometry", "inputs", "results", "diagnostics"):
        assert key in doc
    diag = doc["diagnostics"]
    for key in ("tolerances", "error_estimates", "warnings"):
        assert key in diag
    return doc


def test_surface_report_sphere(capsys):
    doc = run_json(capsys, "surface", "report", "--builtin", "sphere",
                   "--param", "R=1", "--at", "1.0,0.5")
    res = doc["results"]
    assert res["lambda_plus"] == pytest.approx(1.0, abs=1e-9)
    assert res["lambda_minus"] == pytest.approx(1.0, abs=1e-9)
    assert res["gauss_curvature"] == pytest.approx(1.0, abs=1e-9)
    assert res["scalar_curvature"] == pytest.approx(2.0, abs=1e-9)
    assert doc["geometry"]["name"] == "sphere"


def test_json_output_is_deterministic(capsys):
    argv = ("curvature", "riemann", "--builtin", "graph", "--at", "0.3,-0.2")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_trace_csv_schema(capsys):
    code, out, _ = run(capsys, "geodesic", "trace", "--builtin", "torus",
                       "--param", "R=2", "--param", "r=1",
                       "--from", "0,0", "--dir", "1,1",
                       "--length", "20", "--format", "csv",
                       "--samples", "40")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,u,v,x,y,z"
    assert len(lines) == 41
    first = [float(p) for p in lines[1].split(",")]
    assert first == pytest.approx([0, 0, 0, 3, 0, 0], abs=1e-12)


def test_trace_json_reports_early_exit(capsys):
    doc = run_json(capsys, "geodesic", "trace", "--builtin", "saddle",
                   "--from", "0,0", "--dir", "1,0", "--length", "50",
                   "--samples", "3")
    assert doc["results"]["reason"] == "domain-exit"
    assert doc["diagnostics"]["warnings"]
    assert doc["diagnostics"]["tolerances"]["ode_rtol"] == 1e-10


def test_geodesic_distance_plane(capsys):
    doc = run_json(capsys, "geodesic", "distance", "--builtin", "plane",
                   "--from", "0,0", "--to", "1.0,1.2")
    assert doc["results"]["distance"] == pytest.approx(math.hypot(1.0, 1.2),
                                                       abs=1e-9)


def test_geodesic_circle_plane(capsys):
    doc = run_json(capsys, "geodesic", "circle", "--builtin", "plane",
                   "--at", "0,0", "--radius", "0.5")
    assert doc["results"]["length"] == pytest.approx(math.pi, abs=1e-7)
    assert "length" in doc["diagnostics"]["error_estimates"]


def test_curve_analyze_helix(capsys):
    doc = run_json(capsys, "curve", "analyze", "--builtin", "helix",
                   "--at", "0.5")
    pt = doc["results"]["points"][0]
    assert pt["curvature"] == pytest.approx(0.8, abs=1e-10)
    assert pt["torsion"] == pytest.approx(0.4, abs=1e-10)


def test_curve_reconstruct_csv_closes_circle(capsys):
    code, out, _ = run(capsys, "curve", "reconstruct", "--curvature", "1",
                       "--length", str(2 * math.pi), "--samples", "9",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,x,y"
    last = [float(p) for p in lines[-1].split(",")]
    assert last[1] == pytest.approx(0.0, abs=1e-8)
    assert last[2] == pytest.approx(0.0, abs=1e-8)


def test_transport_along_plane_is_identity(capsys):
    doc = run_json(capsys, "transport", "along", "--builtin", "plane",
                   "--via", "0,0", "--via", "1,0", "--via", "1,1",
                   "--vector", "1,0")
    assert doc["results"]["transported"] == pytest.approx([1.0, 0.0],
                                                          abs=1e-10)


def test_transport_along_outside_chart_exits_1(capsys):
    code, out, err = run(capsys, "transport", "along", "--builtin",
                         "lobachevsky_halfplane", "--via", "0,1", "--via",
                         "0,-0.5", "--via", "1,1", "--vector", "1,0")
    assert code == 1
    assert out == ""
    info = json.loads(err)["error"]
    assert info["type"] == "PreconditionError"
    assert "outside the chart domain" in info["message"]


def test_transport_holonomy_closes_loop(capsys):
    doc = run_json(capsys, "transport", "holonomy", "--builtin", "sphere",
                   "--loop", "0,1.4707963267948965", "--loop", "0,0.1",
                   "--loop", "1.5707963267948966,0.1",
                   "--loop", "1.5707963267948966,1.4707963267948965")
    # ccw chart rectangle: angle equals the enclosed total curvature
    expected = (math.pi / 2) * (math.cos(0.1) - math.cos(1.4707963267948965))
    assert doc["results"]["angle"] == pytest.approx(expected, abs=1e-6)


def test_curvature_scalar_halfplane(capsys):
    doc = run_json(capsys, "curvature", "scalar", "--builtin",
                   "lobachevsky_halfplane", "--at", "0.5,2.0")
    assert doc["results"]["tau"] == pytest.approx(-2.0, abs=2e-3)
    assert doc["results"]["routes_agree"] is True
    assert doc["diagnostics"]["error_estimates"]["tau"] < 1e-3


def test_curvature_ricci_s3(capsys):
    doc = run_json(capsys, "curvature", "ricci", "--builtin", "s3_round",
                   "--at", "0.2,-0.3,0.5")
    assert doc["results"]["tau"] == pytest.approx(6.0, abs=1e-9)


def test_curvature_sectional_sphere(capsys):
    doc = run_json(capsys, "curvature", "sectional", "--builtin", "sphere",
                   "--at", "1.0,1.1", "--u", "1,0", "--v", "0,1")
    assert doc["results"]["sectional"] == pytest.approx(1.0, abs=1e-9)


def test_hyperbolic_distance_matches_closed_form(capsys):
    doc = run_json(capsys, "hyperbolic", "distance",
                   "--from", "0,1", "--to", "3,1")
    assert doc["results"]["distance"] == pytest.approx(
        cat.hyperbolic_distance(1j, 3 + 1j), abs=1e-14)


def test_file_geometry_round_trip(capsys, tmp_path):
    path = tmp_path / "hyp.txt"
    path.write_text("metric hyp (x,y in [-5,5]x[0.1,10]) = "
                    "[[1/y^2,0],[0,1/y^2]]\n")
    doc = run_json(capsys, "curvature", "ricci", "--file", str(path),
                   "--at", "0.5,2.0")
    assert doc["results"]["tau"] == pytest.approx(-2.0, abs=1e-9)
    assert doc["geometry"]["source"] == "parsed"


def test_parse_check_good_file(capsys, tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text("param R = 2\n"
                    "curve c (t in [0,1]) = (R*t, t^2)\n")
    doc = run_json(capsys, "parse", "--check", str(path))
    assert doc["results"]["ok"] is True
    assert doc["geometry"]["params"] == {"R": 2}


def test_parse_check_bad_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("curve c (t in [0,1]) = (t, )\n")
    code, out, err = run(capsys, "parse", "--check", str(path))
    assert code == 1
    info = json.loads(err)["error"]
    assert info["type"] == "ParseError"
    assert info["line"] == 1
    assert info["col"] == 28
    assert info["expected"]


def test_output_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run(capsys, "surface", "area", "--builtin", "torus",
                       "--output", str(path))
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["results"]["area"] == pytest.approx(8 * math.pi ** 2,
                                                   abs=1e-8)


def test_verify_text_lines(capsys):
    code, out, err = run(capsys, "verify", "--suite", "euler-meusnier")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


def test_verify_json_document(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "curve-roundtrip",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["failed"] == 0
    assert all(c["passed"] for c in doc["results"]["checks"])


def test_verify_failure_exits_3(capsys, monkeypatch):
    fake = [vf.CheckResult("demo", "forced failure", 1.0, 0.5, False)]
    monkeypatch.setitem(vf.SUITES, "demo", lambda seed=0: fake)
    code, out, err = run(capsys, "verify", "--suite", "demo")
    assert code == 3
    assert out.startswith("FAIL")
    info = json.loads(err)["error"]
    assert "1 of 1" in info["message"]


def test_verify_streams_each_check(capsys, monkeypatch):
    printed = []

    def suite(seed=0):
        yield vf.CheckResult("demo", "first", 0.0, 1.0, True)
        printed.append(capsys.readouterr().out)
        yield vf.CheckResult("demo", "second", 0.0, 1.0, True)

    monkeypatch.setitem(vf.SUITES, "demo", suite)
    code, out, _ = run(capsys, "verify", "--suite", "demo")
    assert code == 0
    assert printed == ["PASS demo: first (value 0, bound 1)\n"]
    assert out == "PASS demo: second (value 0, bound 1)\n"


def test_numerical_failure_keeps_diagnostics(capsys, monkeypatch):
    def stalled(*args, **kwargs):
        raise nk.NonConvergenceError("forced stall", residual=0.5)

    monkeypatch.setattr(ig, "geodesic_distance", stalled)
    code, _, err = run(capsys, "geodesic", "distance", "--builtin", "plane",
                       "--from", "0,0", "--to", "1,1")
    assert code == 1
    info = json.loads(err)["error"]
    assert info["type"] == "NonConvergenceError"
    assert info["residual"] == 0.5
    assert "best" not in info


def test_failed_shooting_reports_best_velocity(capsys, monkeypatch):
    shoot = ig.geodesic_distance
    monkeypatch.setattr(ig, "geodesic_distance",
                        lambda *a, **kw: shoot(*a, **kw, max_iter=1))
    code, _, err = run(capsys, "geodesic", "distance", "--builtin",
                       "lobachevsky_halfplane", "--from", "0,1", "--to", "3,1")
    assert code == 1
    info = json.loads(err)["error"]
    assert info["type"] == "NonConvergenceError"
    assert len(info["best"]) == 2
    assert 0.0 < info["residual"] < 3.0


def test_usage_errors_exit_2(capsys):
    cases = [
        ("surface", "report", "--at", "1,1"),
        ("surface", "report", "--builtin", "nosuch", "--at", "1,1"),
        ("surface", "report", "--builtin", "sphere", "--at", "1.0"),
        ("surface", "report", "--builtin", "sphere", "--at", "1,1",
         "--unknown-flag"),
        ("surface", "area", "--builtin", "sphere", "--format", "csv"),
        ("transport", "along", "--builtin", "plane", "--via", "0,0",
         "--vector", "1,0"),
        ("verify", "--suite", "nosuch"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert json.loads(err)["error"]["type"], argv


def test_missing_file_exits_1(capsys, tmp_path):
    code, _, err = run(capsys, "parse", "--check",
                       str(tmp_path / "absent.txt"))
    assert code == 1
    assert json.loads(err)["error"]["type"] == "FileNotFoundError"


def test_negative_coordinates_accepted(capsys):
    doc = run_json(capsys, "curvature", "scalar", "--builtin",
                   "lobachevsky_halfplane", "--at", "-1.5,0.8")
    assert doc["results"]["tau"] == pytest.approx(-2.0, abs=2e-3)


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "surface", "area", "--builtin", "torus",
                       "--threads", "3")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "UsageError"


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "geodesic", "--help")[0] == 0
