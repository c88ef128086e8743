"""End-to-end command line behavior: schemas, formats, exit codes."""

import itertools
import json
import math
import pathlib
import re
import shlex
import types

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
    # every error document any CLI test produces names a public type
    assert '"type": "_' not in captured.err, captured.err
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


def test_trace_cost_block_is_deterministic(capsys):
    argv = ("geodesic", "trace", "--builtin", "torus", "--param", "R=2",
            "--param", "r=1", "--from", "0,0", "--dir", "1,1",
            "--length", "20", "--samples", "40")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    cost = json.loads(first)["diagnostics"]["cost"]
    assert set(cost) == {"solves", "accepted_steps", "rejected_steps",
                         "rhs_evals"}
    assert all(type(v) is int for v in cost.values())
    assert cost["solves"] == 1 and cost["accepted_steps"] > 0
    # DOP853: 2 + 12 per attempted step, plus 3 per step read densely
    steps = cost["accepted_steps"] + cost["rejected_steps"]
    assert (2 + 12 * steps < cost["rhs_evals"]
            <= 2 + 12 * steps + 3 * cost["accepted_steps"])


def test_distance_cost_block_sums_its_solves(capsys, monkeypatch):
    # each shot that ran to its end costs its pair's stages per attempted
    # step (DOPRI5 6, DOP853 12), one call at t = 0 and, unless it starts
    # at its hint h0, one Euler probe: DOP853 probes every start, and
    # DOPRI5 this pair's first, where no nonzero component moves.  The
    # block adds them all up
    shots = []
    integrate = nk.integrate_ode

    def metered(problem, *a):
        with nk.solver_cost() as cost:
            traj = integrate(problem, *a)
        shots.append((problem, traj, cost))
        return traj

    monkeypatch.setattr(nk, "integrate_ode", metered)
    doc = run_json(capsys, "geodesic", "distance", "--builtin",
                   "lobachevsky_halfplane", "--from", "0,1", "--to", "3,1")
    assert {p.h0 is None for p, _, _ in shots} == {True, False}
    for problem, t, cost in shots:
        first = 1 if problem.h0 is not None else 2
        per_step = 6 if t.pair is nk.DOPRI5 else 12
        assert t.pair in (nk.DOPRI5, nk.DOP853)
        assert cost["solves"] == 1
        assert cost["accepted_steps"] == len(t.ts) - 1
        assert t.stopped or cost["rhs_evals"] == first + per_step * (
            cost["accepted_steps"] + cost["rejected_steps"])
    total = np.sum([list(cost.values()) for _, _, cost in shots],
                   axis=0).tolist()
    assert doc["diagnostics"]["cost"] == dict(zip(
        ("solves", "accepted_steps", "rejected_steps", "rhs_evals"), total))


def test_scalar_cost_block_is_deterministic(capsys):
    argv = ("curvature", "scalar", "--builtin", "sphere", "--at", "1.0,1.2")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    cost = json.loads(first)["diagnostics"]["cost"]
    assert list(cost) == ["solves", "accepted_steps", "rejected_steps",
                          "rhs_evals"]
    assert all(type(v) is int for v in cost.values())
    # one DOPRI5 fan: 1 + 6 RHS evaluations per attempted step
    assert cost["solves"] == 1 and cost["accepted_steps"] > 0
    assert cost["rhs_evals"] == 1 + 6 * (cost["accepted_steps"]
                                         + cost["rejected_steps"])


def test_scalar_3d_takes_the_sphere_area_route(capsys):
    # a 3D chart reads tau off the areas of geodesic spheres: one 24-lane
    # DOPRI5 fan (9 accepted steps, 55 RHS evaluations), no circle routes
    argv = ("curvature", "scalar", "--builtin", "s3_round",
            "--at", "0.2,-0.1,0.3")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    doc = json.loads(first)
    res, diag = doc["results"], doc["diagnostics"]
    assert abs(res["tau"] - 6.0) <= diag["error_estimates"]["tau"]
    assert res["tau_circle"] is None and res["tau_disk"] is None
    assert doc["inputs"]["samples"] == 8
    cost = diag["cost"]
    assert cost["solves"] == 1 and cost["accepted_steps"] > 0
    assert cost["rhs_evals"] == 1 + 6 * (cost["accepted_steps"]
                                         + cost["rejected_steps"])


@pytest.mark.parametrize("radius", ["nan", "inf"])
def test_circle_radius_that_is_not_finite_exits_1(capsys, radius):
    code, out, err = run(capsys, "geodesic", "circle", "--builtin", "sphere",
                         "--at", "1.0,1.2", "--radius", radius)
    assert (code, out) == (1, "")
    info = json.loads(err)["error"]
    assert info["type"] == "PreconditionError"
    assert "positive and finite" in info["message"]


def test_circle_cost_block_is_deterministic(capsys):
    argv = ("geodesic", "circle", "--builtin", "sphere", "--at", "1.0,1.2",
            "--radius", "0.4")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    cost = json.loads(first)["diagnostics"]["cost"]
    assert list(cost) == ["solves", "accepted_steps", "rejected_steps",
                          "rhs_evals"]
    assert all(type(v) is int for v in cost.values())
    # one DOPRI5 fan: 1 + 6 RHS evaluations per attempted step
    assert cost["solves"] == 1 and cost["accepted_steps"] > 0
    assert cost["rhs_evals"] == 1 + 6 * (cost["accepted_steps"]
                                         + cost["rejected_steps"])


@pytest.mark.parametrize("argv,start", [
    (("--curvature", "1", "--length", "6.283185307179586"), 1),
    (("--curvature", "1+0.3*s", "--torsion", "0.5", "--length", "5"), 2),
], ids=["plane", "space"])
def test_reconstruct_cost_block_is_deterministic(capsys, argv, start):
    _, first, _ = run(capsys, "curve", "reconstruct", *argv)
    _, second, _ = run(capsys, "curve", "reconstruct", *argv)
    assert first == second
    cost = json.loads(first)["diagnostics"]["cost"]
    assert list(cost) == ["solves", "accepted_steps", "rejected_steps",
                          "rhs_evals"]
    assert all(type(v) is int for v in cost.values())
    # one DOPRI5 solve of the frame equations: one call at s = 0, 6 per
    # attempted step and, for the space frame, whose nonzero components do
    # not move at s = 0, one Euler probe
    assert cost["solves"] == 1 and cost["accepted_steps"] > 0
    assert cost["rhs_evals"] == start + 6 * (cost["accepted_steps"]
                                             + cost["rejected_steps"])


def test_distance_cost_block_is_deterministic(capsys):
    argv = ("geodesic", "distance", "--builtin", "lobachevsky_halfplane",
            "--from", "0,1", "--to", "3,1")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    diag = json.loads(first)["diagnostics"]
    cost = diag["cost"]
    assert list(cost) == ["solves", "accepted_steps", "rejected_steps",
                          "rhs_evals"]
    assert all(type(v) is int for v in cost.values())
    assert 1 <= cost["solves"] <= 7 and cost["rhs_evals"] > 0
    assert 0.0 <= diag["error_estimates"]["miss"] <= 1e-10


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


def test_geodesic_circle_disk_area_error_covers_true_error(capsys):
    # unit sphere: S(R) = 2 pi (1 - cos R)
    doc = run_json(capsys, "geodesic", "circle", "--builtin", "sphere",
                   "--at", "1.0,1.2", "--radius", "0.4")
    true = abs(doc["results"]["disk_area"] - 2 * math.pi * (1 - math.cos(0.4)))
    est = doc["diagnostics"]["error_estimates"]["disk_area"]
    print(f"disk_area error estimate {est:.3g}, true {true:.3g}, "
          f"ratio {est / max(true, 1e-300):.3g}")
    assert true <= est


@pytest.mark.parametrize("argv", [
    ("geodesic", "circle", "--builtin", "plane", "--at", "0,0",
     "--radius", "0.5", "--samples", "0"),
    ("geodesic", "circle", "--builtin", "plane", "--at", "0,0",
     "--radius", "0.5", "--samples", "-4"),
    ("curvature", "scalar", "--builtin", "s3_round", "--at", "0,0,0",
     "--samples", "9"),
])
def test_fan_samples_are_validated(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    info = json.loads(err)["error"]
    assert info["type"] == "UsageError"
    assert "even integer >= 8" in info["message"]


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


@pytest.mark.parametrize("argv", [
    ("transport", "along", "--builtin", "sphere", "--via", "0.3,1.2",
     "--via", "1.0,1.0", "--via", "1.4,0.6", "--vector", "1,0"),
    ("transport", "holonomy", "--builtin", "lobachevsky_halfplane",
     "--loop", "0,1", "--loop", "1,1", "--loop", "1,2", "--loop", "0,2")])
def test_transport_cost_block_is_deterministic(capsys, argv):
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    cost = json.loads(first)["diagnostics"]["cost"]
    assert list(cost) == ["solves", "accepted_steps", "rejected_steps",
                          "rhs_evals"]
    assert all(type(v) is int for v in cost.values())
    # one DOPRI5 solve of every piece's propagator
    assert cost["solves"] == 1 and cost["accepted_steps"] > 0
    assert cost["rhs_evals"] == 1 + 6 * (cost["accepted_steps"]
                                         + cost["rejected_steps"])


@pytest.mark.parametrize("depth", [100, 1000])
def test_parse_nesting_depth(tmp_path, capsys, depth):
    # past MAX_NESTING levels the parser stops at the offending token with
    # a ParseError document, before it could exhaust the recursion limit
    text = ("metric m (x,y in [-1,1]x[-1,1]) = [[1 + " + "(" * depth + "x"
            + ")" * depth + "^2, 0], [0, 1]]\n")
    path = tmp_path / "deep.txt"
    path.write_text(text)
    code, out, err = run(capsys, "parse", "--check", str(path))
    if depth <= cat.MAX_NESTING:
        assert code == 0 and json.loads(out)["results"]["ok"], err
        return
    assert code == 1 and out == ""
    info = json.loads(err)["error"]
    assert info["type"] == "ParseError"
    assert (info["line"], info["col"]) == (
        1, text.index("(((") + cat.MAX_NESTING + 1)


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


def test_circle_leaving_the_chart_exits_1(capsys):
    # the fan runs down from y = 0.1 toward the box's edge y = 0.05, which
    # the geodesic x = 0, y = 0.1 exp(-s) reaches at s = ln 2
    code, out, err = run(capsys, "geodesic", "circle", "--builtin",
                         "lobachevsky_halfplane", "--at", "0,0.1",
                         "--radius", "2")
    assert (code, out) == (1, "")
    info = json.loads(err)["error"]
    assert info["type"] == "PreconditionError"
    reach = re.fullmatch(r"the geodesic fan leaves the chart; all lanes "
                         r"stay inside to radius (\S+)", info["message"])
    assert float(reach[1]) == pytest.approx(math.log(2.0), abs=1e-6)


def test_trace_leaving_at_its_start_point_exits_1(capsys):
    code, out, err = run(capsys, "geodesic", "trace", "--builtin",
                         "lobachevsky_halfplane", "--from", "0,0.05",
                         "--dir", "0,-1", "--length", "1")
    assert (code, out) == (1, "")
    info = json.loads(err)["error"]
    assert info["type"] == "PreconditionError"
    assert info["message"] == ("the geodesic leaves the chart at its start "
                               "point")


def test_trace_of_infinite_length_exits_1(capsys):
    code, out, err = run(capsys, "geodesic", "trace", "--builtin", "sphere",
                         "--from", "1.0,1.2", "--dir", "1,0", "--length",
                         "inf")
    assert (code, out) == (1, "")
    info = json.loads(err)["error"]
    assert info == {"type": "PreconditionError",
                    "message": "t_span must be finite"}


@pytest.mark.parametrize("argv", [
    ("geodesic", "circle", "--at", "1.0,1.2", "--radius", "1e-300"),
    ("geodesic", "circle", "--at", "1.0,1.2", "--radius", "1e-160"),
    ("curvature", "scalar", "--at", "1.0,1.2", "--r0", "1e-160"),
    ("curvature", "scalar", "--at", "0.2,-0.1,0.3", "--rungs", "300"),
], ids=["circle-1e-300", "circle-1e-160", "scalar-r0", "scalar-rungs"])
@pytest.mark.filterwarnings("error")
def test_fan_whose_gram_determinant_underflows_exits_1(capsys, argv):
    # a Jacobi Gram determinant scales like r^(2c): below the smallest
    # normal float the fan refuses, instead of reading 0, inf or nan
    builtin = "s3_round" if "0.2,-0.1,0.3" in argv else "sphere"
    code, out, err = run(capsys, *argv[:2], "--builtin", builtin, *argv[2:])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "type": "PreconditionError",
        "message": "the fan's Gram determinant underflows; the radius is "
                   "too small"}


def test_sphere_samples_off_the_nested_rule_exit_2(capsys):
    # --samples 10 is a valid circle fan, but its 4 polar nodes do not nest:
    # a usage error once the chart's dimension is known, as --samples 9 is
    code, out, err = run(capsys, "curvature", "scalar", "--builtin",
                         "s3_round", "--at", "0.2,-0.1,0.3", "--samples", "10")
    assert (code, out) == (2, "")
    info = json.loads(err)["error"]
    assert info["type"] == "UsageError"
    assert "multiple of 4" in info["message"]


def test_scalar_curvature_with_no_ladder_exits_1(capsys):
    code, out, err = run(capsys, "curvature", "scalar", "--builtin", "sphere",
                         "--at", "1.0,1.2", "--rungs", "0")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["type"] == "PreconditionError"


def test_transport_holonomy_closes_loop(capsys):
    doc = run_json(capsys, "transport", "holonomy", "--builtin", "sphere",
                   "--loop", "0,1.4707963267948965", "--loop", "0,0.1",
                   "--loop", "1.5707963267948966,0.1",
                   "--loop", "1.5707963267948966,1.4707963267948965")
    # ccw chart rectangle: angle equals the enclosed total curvature
    expected = (math.pi / 2) * (math.cos(0.1) - math.cos(1.4707963267948965))
    assert doc["results"]["angle"] == pytest.approx(expected, abs=1e-6)


def test_transport_holonomy_keeps_a_loop_closed_modulo_the_period(capsys):
    # (2 pi, 1) is the start on the cone, so the loop is not run back
    doc = run_json(capsys, "transport", "holonomy", "--builtin", "cone",
                   "--loop", "0,1", "--loop", "6.283185307179586,1")
    assert doc["inputs"]["loop"] == [[0.0, 1.0], [2 * math.pi, 1.0]]
    angle = doc["results"]["angle"]
    assert abs(angle) == pytest.approx(2 * math.pi * (1 - 1 / math.sqrt(2)),
                                       abs=1e-6)
    cone = ig.pullback_metric(cat.builtin("cone").build())
    assert angle == ig.holonomy(cone, [[0.0, 1.0], [2 * math.pi, 1.0]]).angle


def test_transport_holonomy_closes_a_loop_that_ends_near_its_start(capsys):
    # 1e-6 from the start is within np.allclose but not within the
    # library's closure tolerance, so the CLI closes the loop
    doc = run_json(capsys, "transport", "holonomy", "--builtin",
                   "lobachevsky_halfplane", "--loop", "0,1", "--loop", "1,1",
                   "--loop", "1,2", "--loop", "0,1.000001")
    assert doc["inputs"]["loop"][-1] == [0.0, 1.0]
    assert len(doc["inputs"]["loop"]) == 5


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


def test_three_coordinate_metric_file(capsys, tmp_path):
    # hyperbolic 3-space in the upper half-space: scalar curvature -6
    path = tmp_path / "h3.txt"
    path.write_text("metric h3 (x,y,z in [-2,2]x[-2,2]x[0.2,4]) =\n"
                    "  [[1/z^2, 0, 0], [0, 1/z^2, 0], [0, 0, 1/z^2]]\n")
    doc = run_json(capsys, "parse", "--check", str(path))
    assert doc["results"] == {"ok": True, "kind": "metric", "name": "h3"}
    assert doc["geometry"]["coords"] == ["x", "y", "z"]
    assert doc["diagnostics"]["warnings"] == []
    doc = run_json(capsys, "curvature", "ricci", "--file", str(path),
                   "--at", "0.3,-0.2,1.5")
    assert doc["results"]["tau"] == pytest.approx(-6.0, abs=1e-9)
    assert np.allclose(doc["results"]["rho_tilde"], -2 * np.eye(3),
                       rtol=0, atol=1e-9)


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
    assert lines[:-1] and all(line.startswith("PASS") for line in lines[:-1])
    assert re.fullmatch(r"TIME euler-meusnier: \d+\.\d\d s", lines[-1])


def test_verify_format_text_is_the_default(capsys):
    def checks(*flags):
        code, out, err = run(capsys, "verify", "--suite", "parser", *flags)
        assert (code, err) == (0, "")
        return [line for line in out.splitlines()
                if not line.startswith("TIME")]

    assert checks("--format", "text") == checks()
    assert "(default text)" in run(capsys, "verify", "--help")[1]


def test_verify_times_suites_in_text_mode_only(capsys):
    # text: each suite's time follows its last check; JSON: no times, and
    # a rerun gives the same bytes
    code, out, _ = run(capsys, "verify", "--suite", "parser",
                       "--suite", "curve-roundtrip")
    assert code == 0
    lines = out.splitlines()
    stamps = [i for i, line in enumerate(lines) if line.startswith("TIME")]
    assert [lines[i].split(":")[0] for i in stamps] == [
        "TIME parser", "TIME curve-roundtrip"]
    assert stamps[1] == len(lines) - 1
    assert all(line.startswith("PASS parser")
               for line in lines[:stamps[0]])
    assert all(line.startswith("PASS curve-roundtrip")
               for line in lines[stamps[0] + 1:stamps[1]])
    argv = ("verify", "--suite", "parser", "--suite", "curve-roundtrip",
            "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    assert "TIME" not in first


def test_verify_circle_law_json_is_byte_stable(capsys):
    argv = ("verify", "--suite", "circle-law", "--format", "json")
    code, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert code == 0 and first == second
    rows = {c["name"]: c for c in json.loads(first)["results"]["checks"]}
    assert rows["runtime in seconds"]["value"] is None
    assert rows["runtime in seconds"]["passed"]


def test_verify_circle_law_fails_over_its_time_bound(capsys, monkeypatch):
    clock = itertools.count(0.0, 11.0)     # every reading 11 s later
    monkeypatch.setattr(vf, "time",
                        types.SimpleNamespace(perf_counter=lambda: next(clock)))
    code, out, _ = run(capsys, "verify", "--suite", "circle-law")
    assert code == 3
    assert ("FAIL circle-law: runtime in seconds (value 11, bound 10)"
            in out.splitlines())


def test_surface_offset_sphere(capsys):
    argv = ("surface", "offset", "--builtin", "sphere", "--eps", "0.1")
    doc = run_json(capsys, *argv)
    res = doc["results"]
    assert doc["diagnostics"]["warnings"] == []
    assert res["offset_area"] == pytest.approx(res["predicted_area"],
                                               rel=1e-6, abs=0.0)
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


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
    second, stamp = out.splitlines()
    assert second == "PASS demo: second (value 0, bound 1)"
    assert re.fullmatch(r"TIME demo: \d+\.\d\d s", stamp)


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


def test_non_numeric_param_is_a_usage_error(capsys):
    # parameter names are checked before their values are converted
    for source, param, message in (
            ("torus", "R=abc", "torus: parameter R must be a number, got "
             "'abc'"),
            ("graph", "g=abc", "graph has no parameter 'g'")):
        code, out, err = run(capsys, "surface", "area", "--builtin", source,
                             "--param", param)
        assert (code, out) == (2, "")
        info = json.loads(err)["error"]
        assert (info["type"], info["message"]) == ("UsageError", message)


@pytest.mark.parametrize("argv, name", [
    (("verify", "--seed", "x"), "verify"),
    (("parse", "--bogus"), "parse"),
    (("surface", "report", "--bogus"), "surface report"),
    (("surface", "--bogus"), "surface"),
    (("nosuch", "op"), "curvatur"),
])
def test_argparse_failures_name_the_command(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["command"] == name


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


# the fewest arguments each command's parser accepts; the dispatcher's
# refusals come before any geometry is loaded, so nothing here is computed
_MINIMAL = {
    "curve analyze": ("--builtin", "helix", "--at", "0.5"),
    "curve reconstruct": ("--curvature", "1", "--length", "1"),
    "surface report": ("--builtin", "sphere", "--at", "1,1"),
    "surface area": ("--builtin", "sphere"),
    "surface offset": ("--builtin", "sphere", "--eps", "0.1"),
    "geodesic trace": ("--builtin", "plane", "--from", "0,0", "--dir", "1,0",
                       "--length", "1"),
    "geodesic distance": ("--builtin", "plane", "--from", "0,0",
                          "--to", "1,1"),
    "geodesic circle": ("--builtin", "plane", "--at", "0,0",
                        "--radius", "0.5"),
    "transport along": ("--builtin", "plane", "--via", "0,0", "--via", "1,0",
                        "--vector", "1,0"),
    "transport holonomy": ("--builtin", "plane", "--loop", "0,0",
                           "--loop", "1,0", "--loop", "1,1"),
    "curvature scalar": ("--builtin", "plane", "--at", "0,0"),
    "curvature riemann": ("--builtin", "plane", "--at", "0,0"),
    "curvature ricci": ("--builtin", "plane", "--at", "0,0"),
    "curvature sectional": ("--builtin", "plane", "--at", "0,0",
                            "--u", "1,0", "--v", "0,1"),
    "hyperbolic distance": ("--from", "0,1", "--to", "3,1"),
    "verify": (),
    "parse": ("--check", "geometry.txt"),
}


def test_minimal_arguments_cover_the_command_table():
    assert sorted(_MINIMAL) == sorted(c.name for c in cli.COMMANDS)


@pytest.mark.parametrize("cmd", cli.COMMANDS, ids=lambda c: c.name)
def test_dispatcher_protocol(capsys, cmd):
    argv = (*cmd.name.split(), *_MINIMAL[cmd.name])
    assert run(capsys, *argv, "--help")[0] == 0
    if cmd.csv:
        assert cmd.name in ("geodesic trace", "curve reconstruct")
        return
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert (code, out) == (2, "")
    info = json.loads(err)
    assert info["command"] == cmd.name
    assert info["error"] == {
        "type": "UsageError", "exit_code": 2,
        "message": f"{cmd.name} does not support --format csv"}


@pytest.mark.parametrize("name, builtin, needs", [
    ("curve analyze", "sphere", "a curve"),
    ("surface area", "lobachevsky_halfplane", "a surface"),
    ("curvature riemann", "helix", "a surface or metric"),
])
def test_dispatcher_checks_the_geometry_kind(capsys, name, builtin, needs):
    argv = [*name.split(), *_MINIMAL[name]]
    argv[argv.index("--builtin") + 1] = builtin
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    message = json.loads(err)["error"]["message"]
    assert message.endswith(f"but this command needs {needs}")


@pytest.mark.parametrize("group", sorted(
    {c.name.split()[0] for c in cli.COMMANDS if " " in c.name}))
def test_help_exits_zero_for_every_group(capsys, group):
    code, out, _ = run(capsys, group, "--help")
    assert code == 0 and out.startswith(f"usage: curvatur {group}")


def _readme_command_lines():
    """The ``curvatur ...`` lines of README's "Command line" code block,
    with backslash continuations joined."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```", 2)[1].replace("\\\n", " ")
    return [line.strip() for line in block.splitlines()
            if line.strip().startswith("curvatur ")]


def test_readme_command_block_matches_the_command_table():
    lines = _readme_command_lines()
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.command in cli.COMMANDS, line
    shown = {" ".join(shlex.split(line)[1:3]) for line in lines}
    shown |= {line.split()[1] for line in lines}
    missing = [c.name for c in cli.COMMANDS if c.name not in shown]
    assert not missing, f"README's command block lacks {missing}"
