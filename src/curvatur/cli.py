"""Command-line front end.

Every subcommand writes a single JSON document (or a CSV table for path
exports) with the stable field layout::

    {"command": ..., "geometry": ..., "inputs": ..., "results": ...,
     "diagnostics": {"tolerances": ..., "error_estimates": ..., "warnings": [...]}}

Numbers are serialized with 17 significant digits so identical invocations
produce byte-identical output.  Angles are radians; coordinates are listed
in chart order as declared.  Exit codes: 0 success, 1 computation failure,
2 usage error, 3 verification-suite failure.  Every failure also writes a
JSON error document to stderr.  A command whose handler ran at least one
ODE solve gets a ``cost`` block in ``diagnostics``: the solver counters of
:func:`numkit.solver_cost`, integers only; ``verify`` instead gets a
``suite_costs`` map of one such block per suite, by name.  Wall times
appear only in ``verify``'s text mode, never in JSON.

Each command is one row of :data:`COMMANDS`: its help, the geometry kind
it reads, whether ``--format csv`` applies, its own options and its
handler.  One dispatcher, :func:`main`, decides what the commands
share: the document envelope, geometry resolution (load the source, build
it, check its kind, pull a surface back to a chart), CSV eligibility and
the exit codes and the cost block.  Handlers compute; they return the
``inputs``, ``results`` and diagnostics of the document.
"""

import argparse
import csv
import io
import json
import math
import re
import sys
import time
from typing import NamedTuple

import numpy as np

from . import catalog as cat
from . import curves as cv
from . import intrinsic as ig
from . import numkit as nk
from . import surface_patch as sp
from . import tensors as tn
from . import verify as vf


class UsageError(Exception):
    """Bad command line; maps to exit code 2."""


# ---------------------------------------------------------------------------
# deterministic JSON serialization
# ---------------------------------------------------------------------------


def _format_float(x):
    x = float(x)
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _dump(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  {json.dumps(str(k))}: {_dump(v, indent + 1)}'
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        return _dump(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dump(v, indent) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _write(args, text):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _document(command, geometry, inputs, results, tolerances=None,
              error_estimates=None, warnings=None):
    return {
        "command": command,
        "geometry": geometry,
        "inputs": inputs,
        "results": results,
        "diagnostics": {
            "tolerances": tolerances or {},
            "error_estimates": error_estimates or {},
            "warnings": [str(w) for w in (warnings or [])],
        },
    }


def _emit_csv(args, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(float(x), ".17g") for x in row])
    _write(args, buf.getvalue().rstrip("\n"))


def _error_doc(command, exc, extra=None):
    info = {"type": type(exc).__name__, "message": str(exc)}
    # diagnostic state carried by numerical failures (see numkit)
    for key in ("t", "y", "estimate", "error_estimate", "best", "residual"):
        if getattr(exc, key, None) is not None:
            info[key] = getattr(exc, key)
    if extra:
        info.update(extra)
    sys.stderr.write(_dump({"command": command, "error": info}) + "\n")


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        # let coordinate tuples like -5.9,0.06 pass as option values
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?"
            r"(,[-+]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)*$")

    def error(self, message):
        raise UsageError(message)


def _floats(text, n=None, label="value"):
    try:
        vals = [float(p) for p in str(text).split(",")]
    except ValueError:
        raise UsageError(
            f"could not parse {label} {text!r} as comma-separated numbers")
    if n is not None and len(vals) != n:
        raise UsageError(
            f"{label} needs {n} comma-separated numbers, got {len(vals)}")
    return np.array(vals, dtype=float)


def _fan_samples(args, dim):
    """``--samples`` by :func:`intrinsic.fan_samples`, or a usage error."""
    try:
        return ig.fan_samples(args.samples, dim)
    except nk.PreconditionError as exc:
        raise UsageError(str(exc))


def _parse_param(text):
    if "=" not in text:
        raise UsageError(f"--param expects name=value, got {text!r}")
    key, raw = text.split("=", 1)
    key = key.strip()
    if not key:
        raise UsageError(f"--param expects name=value, got {text!r}")
    try:
        return key, float(raw)
    except ValueError:
        return key, raw.strip()


def _load_spec(args):
    builtin, path = args.builtin, args.file
    if (builtin is None) == (path is None):
        raise UsageError(
            "provide exactly one geometry source: --builtin NAME or --file PATH")
    params = dict(_parse_param(p) for p in (args.param or []))
    if builtin is not None:
        try:
            return cat.builtin(builtin, params)
        except nk.PreconditionError as exc:
            raise UsageError(str(exc))
    with open(path) as fh:
        spec = cat.parse_geometry(fh.read())
    strings = sorted(k for k, v in params.items() if isinstance(v, str))
    if strings:
        raise UsageError(
            "expression-valued --param overrides only apply to builtins: "
            + ", ".join(strings))
    return spec.with_params(**params) if params else spec


def _geometry_doc(spec, note=None):
    doc = {
        "name": spec.name,
        "kind": spec.kind,
        "coords": list(spec.coords),
        "domain": [[float(a), float(b)] for a, b in spec.domain],
        "params": {k: spec.params[k] for k in sorted(spec.params)},
        "source": spec.provenance,
    }
    if spec.periods and any(p is not None for p in spec.periods):
        doc["periods"] = list(spec.periods)
    if note:
        doc["metric"] = note
    return doc


# ---------------------------------------------------------------------------
# command handlers: (args, Geometry or None) -> _document keywords, or the
# exit code of a handler that wrote its own output
# ---------------------------------------------------------------------------


class Geometry(NamedTuple):
    """A loaded geometry source and what the command reads of it."""

    spec: cat.GeometrySpec
    obj: object          # the curve, surface or metric chart
    surface: object      # the patch a chart was pulled back from, else None


def _curve_analyze(args, g):
    ts = [float(t) for t in (args.at or [])]
    if not ts:
        raise UsageError("curve analyze needs at least one --at T")
    curve = g.obj
    total = cv.arc_length(curve, tol=args.tol)
    points = []
    for t in ts:
        fr = cv.frenet_frame(curve, t)
        entry = {"t": t, "point": fr.point, "speed": cv.speed(curve, t),
                 "tangent": fr.tangent, "normal": fr.normal,
                 "binormal": fr.binormal, "curvature": fr.curvature,
                 "torsion": fr.torsion}
        if curve.dim == 2:
            entry["signed_curvature"] = cv.plane_curvature(curve, t)
        points.append(entry)
    return dict(inputs={"at": ts},
                results={"arc_length": total, "points": points},
                tolerances={"arc_length_tol": args.tol})


def _curve_reconstruct(args, _):
    kbar = cat.parse_expression(args.curvature, variables=("s",))
    taubar = (None if args.torsion is None
              else cat.parse_expression(args.torsion, variables=("s",)))
    s_max = float(args.length)
    if s_max <= 0:
        raise UsageError("--length must be positive")
    n = max(2, int(args.samples))
    curve = (cv.reconstruct_plane_curve(kbar, s_max) if taubar is None
             else cv.reconstruct_space_curve(kbar, taubar, s_max))
    svals = np.linspace(0.0, s_max, n)
    pts = np.array([curve.point(s) for s in svals])
    header = ["s", "x", "y", "z"][: 1 + curve.dim]
    rows = [[s, *p] for s, p in zip(svals, pts)]
    if args.format == "csv":
        _emit_csv(args, header, rows)
        return 0
    return dict(geometry={"name": "reconstructed", "kind": "curve",
                          "coords": ["s"], "domain": [[0.0, s_max]],
                          "params": {}, "source": "reconstruction"},
                inputs={"curvature": args.curvature, "torsion": args.torsion,
                        "length": s_max, "samples": n},
                results={"endpoint": pts[-1],
                         "samples": {"columns": header, "rows": rows}},
                tolerances={"ode_rtol": cv._FRAME_RTOL,
                            "ode_atol": cv._FRAME_ATOL})


def _surface_report(args, g):
    uv = _floats(args.at, 2, "--at")
    rep = sp.principal_at(g.obj, uv)
    return dict(inputs={"at": uv}, results={
        "point": rep.point, "normal": rep.normal,
        "lambda_plus": rep.lam_plus, "lambda_minus": rep.lam_minus,
        "dir_plus": rep.dir_plus, "dir_minus": rep.dir_minus,
        "dirs_chart": rep.dirs_chart,
        "mean_curvature": rep.mean_avg, "mean_density": rep.mean_density,
        "gauss_curvature": rep.gauss, "scalar_curvature": rep.scalar,
        "umbilic": rep.umbilic, "orientation": rep.orientation})


def _surface_area(args, g):
    return dict(inputs={}, results={"area": sp.area(g.obj, tol=args.tol)},
                tolerances={"quadrature_tol": args.tol})


def _surface_offset(args, g):
    eps = float(args.eps)
    report = sp.total_curvatures(g.obj, fit_tol=args.fit_tol)
    offset_area = sp.area(sp.offset_surface(g.obj, eps))
    predicted = (report.area + report.mean_total * eps
                 + report.gauss_total * eps ** 2)
    warnings = []
    scale = max(abs(offset_area), 1.0)
    if abs(offset_area - predicted) / scale > 10 * args.fit_tol:
        warnings.append(
            f"offset area deviates from the quadratic expansion by "
            f"{abs(offset_area - predicted):.3g}; eps may be beyond the "
            "focal radius")
    return dict(inputs={"eps": eps, "fit_epsilons": list(report.epsilons)},
                results={"eps": eps, "offset_area": offset_area,
                         "predicted_area": predicted, "base_area": report.area,
                         "mean_total": report.mean_total,
                         "gauss_total": report.gauss_total,
                         "fit_area": report.fit_area,
                         "fit_mean": report.fit_mean,
                         "fit_gauss": report.fit_gauss,
                         "orientation": report.orientation},
                tolerances={"fit_tol": args.fit_tol},
                error_estimates={"fit_rel_mismatch": report.rel_mismatch},
                warnings=warnings)


def _geodesic_trace(args, g):
    chart, surface = g.obj, g.surface
    x0 = _floats(getattr(args, "from"), chart.dim, "--from")
    v0 = _floats(args.dir, chart.dim, "--dir")
    length = float(args.length)
    path = ig.geodesic_trace(chart, x0, v0, length,
                             rtol=args.rtol, atol=args.atol)
    n = max(2, int(args.samples))
    ts = np.linspace(0.0, path.length, n)
    rows = [[t, *x] for t, x in zip(ts, path.position(ts))]
    header = ["t", *g.spec.coords]
    if surface is not None:
        header += ["x", "y", "z"]
        rows = [[*row, *surface.point(*row[1:])] for row in rows]
    if args.format == "csv":
        _emit_csv(args, header, rows)
        return 0
    warnings = []
    if path.reason != "completed":
        warnings.append(f"trace stopped early ({path.reason}) "
                        f"at length {path.length:.17g}")
    return dict(inputs={"from": x0, "dir": v0, "length": length,
                        "samples": n},
                results={"length_traced": path.length,
                         "reason": path.reason,
                         "end": path.end,
                         "end_velocity": path.end_velocity,
                         "samples": {"columns": header, "rows": rows}},
                tolerances={"ode_rtol": args.rtol, "ode_atol": args.atol},
                error_estimates={"speed_drift": path.speed_drift()},
                warnings=warnings)


def _geodesic_distance(args, g):
    p = _floats(getattr(args, "from"), g.obj.dim, "--from")
    q = _floats(args.to, g.obj.dim, "--to")
    miss = np.zeros(1)
    dist = ig.geodesic_distance(g.obj, p, q, tol=args.tol, miss=miss)
    return dict(inputs={"from": p, "to": q}, results={"distance": dist},
                tolerances={"shooting_tol": args.tol},
                error_estimates={"miss": float(miss[0])})


def _geodesic_circle(args, g):
    center = _floats(args.at, g.obj.dim, "--at")
    M = _fan_samples(args, 2)
    res = ig.geodesic_circle(g.obj, center, args.radius, samples=M)
    return dict(inputs={"at": center, "radius": args.radius, "samples": M},
                results={"length": res.length, "disk_area": res.disk_area},
                error_estimates={"length": res.length_error,
                                 "disk_area": res.disk_area_error,
                                 "ds_dr_residual": res.ds_dr_residual},
                warnings=res.warnings)


def _waypoints(items, dim, label):
    pts = [_floats(p, dim, label) for p in items]
    if len(pts) < 2:
        raise UsageError(f"{label} needs at least two waypoints")
    return np.array(pts)


def _transport_along(args, g):
    pts = _waypoints(args.via or [], g.obj.dim, "--via")
    a0 = _floats(args.vector, g.obj.dim, "--vector")
    res = ig.parallel_transport(g.obj, pts, a0)
    return dict(inputs={"via": pts, "vector": a0},
                results={"transported": res.final,
                         "path_kind": res.path_kind},
                error_estimates={"gram_drift": res.gram_drift})


def _transport_holonomy(args, g):
    pts = _waypoints(args.loop or [], g.obj.dim, "--loop")
    if ig._closure_defect(g.obj, pts[0], pts[-1]) > ig._CLOSURE_TOL:
        pts = np.vstack([pts, pts[:1]])
    res = ig.holonomy(g.obj, pts)
    return dict(inputs={"loop": pts},
                results={"matrix": res.matrix, "angle": res.angle,
                         "basis": res.basis},
                error_estimates={
                    "orthogonality_residual": res.orthogonality_residual,
                    "gram_drift": res.gram_drift})


def _curvature_scalar(args, g):
    x = _floats(args.at, g.obj.dim, "--at")
    M = _fan_samples(args, g.obj.dim)
    est = ig.scalar_curvature_estimate(g.obj, x, r0=args.r0,
                                       rungs=args.rungs, samples=M)
    return dict(inputs={"at": x, "r0": args.r0, "rungs": args.rungs,
                        "samples": M},
                results={"tau": est.tau,
                         "tau_circle": est.tau_circle,
                         "tau_disk": est.tau_disk,
                         "routes_agree": est.routes_agree,
                         "monotone": est.monotone},
                tolerances={"radii": list(est.radii)},
                error_estimates={"tau": est.error},
                warnings=est.warnings)


def _curvature_riemann(args, g):
    x = _floats(args.at, g.obj.dim, "--at")
    riem = tn.riemann_at(g.obj, x)
    return dict(inputs={"at": x},
                results={"R_up": riem.R_up, "R_down": riem.R_down,
                         "metric": riem.g, "convention": riem.convention})


def _curvature_ricci(args, g):
    x = _floats(args.at, g.obj.dim, "--at")
    ric = tn.ricci_at(g.obj, x)
    return dict(inputs={"at": x},
                results={"rho": ric.rho, "rho_tilde": ric.rho_tilde,
                         "tau": ric.tau, "metric": ric.g})


def _curvature_sectional(args, g):
    x = _floats(args.at, g.obj.dim, "--at")
    u = _floats(args.u, g.obj.dim, "--u")
    v = _floats(args.v, g.obj.dim, "--v")
    return dict(inputs={"at": x, "u": u, "v": v},
                results={"sectional": tn.sectional_at(g.obj, x, u, v)})


def _hyperbolic_distance(args, _):
    p = _floats(getattr(args, "from"), 2, "--from")
    q = _floats(args.to, 2, "--to")
    if p[1] <= 0 or q[1] <= 0:
        raise UsageError("half-plane points need y > 0")
    dist = cat.hyperbolic_distance(complex(p[0], p[1]), complex(q[0], q[1]))
    return dict(geometry={"name": "lobachevsky_halfplane", "kind": "model",
                          "coords": ["x", "y"], "domain": [], "params": {},
                          "source": "closed-form"},
                inputs={"from": p, "to": q}, results={"distance": dist})


def _verify(args, _):
    names = args.suite or ["all"]
    text = args.format == "text"
    stream = text and not args.output
    lines, checks, costs = [], [], {}

    def say(line):
        if stream:
            sys.stdout.write(line + "\n")
            sys.stdout.flush()
        else:
            lines.append(line)

    for name in vf.suite_names(names):
        t0 = time.perf_counter()
        cost = costs[name] = {}
        checks += vf.run_suite(name, seed=args.seed, report=(
            lambda c: say(vf.format_check(c))) if text else None, cost=cost)
        if text:
            say(f"TIME {name}: {time.perf_counter() - t0:.2f} s")
            say(f"COST {name}: {cost['solves']} solves, "
                f"{cost['accepted_steps']} accepted and "
                f"{cost['rejected_steps']} rejected steps, "
                f"{cost['rhs_evals']} RHS calls")
    failed = [c for c in checks if not c.passed]
    if args.format == "json":
        rows = [{"suite": c.suite, "name": c.name,
                 "value": None if c.timed else c.value,
                 "bound": c.bound, "passed": c.passed, "detail": c.detail}
                for c in checks]
        geometry = {"name": "catalog", "kind": "suite", "coords": [],
                    "domain": [], "params": {}, "source": "builtin"}
        doc = _document(
            "verify", geometry, {"suites": list(names), "seed": args.seed},
            {"checks": rows, "passed": len(checks) - len(failed),
             "failed": len(failed)})
        doc["diagnostics"]["suite_costs"] = costs
        _write(args, _dump(doc))
    elif not stream:
        _write(args, "\n".join(lines))
    if failed:
        _error_doc("verify", nk.NumericalError(
            f"{len(failed)} of {len(checks)} checks failed"),
            extra={"failed": [f"{c.suite}: {c.name}" for c in failed]})
        return 3
    return 0


def _parse(args, _):
    with open(args.check) as fh:
        spec = cat.parse_geometry(fh.read())
    spec.build()
    return dict(geometry=_geometry_doc(spec), inputs={"file": args.check},
                results={"ok": True, "kind": spec.kind, "name": spec.name},
                warnings=spec.warnings)


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------


class Command(NamedTuple):
    """One row of the command table."""

    name: str            # "group op", or a command without a group
    help: str
    kind: str | None     # geometry the handler reads: a key of _KINDS
    csv: bool            # whether --format csv applies
    run: object          # the handler
    options: tuple = ()  # _opt(...) entries after the common options


def _opt(*flags, **kw):
    """One ``add_argument`` call.

    A callable ``choices`` is called when the parser is built, so that it
    sees names registered after import (``verify --suite``)."""
    return flags, kw


_KINDS = {"curve": (cv.ParamCurve, "a curve"),
          "surface": (sp.SurfacePatch, "a surface"),
          "chart": (ig.MetricChart, "a surface or metric")}

_GROUPS = {"curve": "parametric curve operations",
           "surface": "embedded surface operations",
           "geodesic": "geodesics on charts and surfaces",
           "transport": "parallel transport",
           "curvature": "curvature tensors",
           "hyperbolic": "half-plane closed forms"}

_OUTPUT = (_opt("--format", choices=("json", "csv"), default="json",
                help="output format (default json)"),
           _opt("--output", metavar="PATH",
                help="write output to PATH instead of stdout"))
_SOURCE = (_opt("--builtin", metavar="NAME",
                help="use a catalog builtin geometry"),
           _opt("--file", metavar="PATH",
                help="load a geometry definition file"),
           _opt("--param", action="append", metavar="NAME=VALUE",
                help="bind a geometry parameter (repeatable); values parse "
                     "as numbers, else as expressions for builtins that "
                     "accept them"))
_AT = _opt("--at", required=True, metavar="P")

COMMANDS = (
    Command("curve analyze", "Frenet data and arc length", "curve", False,
            _curve_analyze, (
                _opt("--at", action="append", metavar="T",
                     help="curve parameter (repeatable)"),
                _opt("--tol", type=float, default=1e-10,
                     help="arc-length quadrature tolerance"))),
    Command("curve reconstruct", "rebuild a curve from natural equations",
            None, True, _curve_reconstruct, (
                _opt("--curvature", required=True, metavar="EXPR",
                     help="curvature as an expression in s"),
                _opt("--torsion", metavar="EXPR",
                     help="torsion as an expression in s; giving it "
                          "selects a space curve"),
                _opt("--length", required=True, type=float,
                     help="arc length to integrate"),
                _opt("--samples", type=int, default=200,
                     help="number of output samples"))),
    Command("surface report", "principal curvature report", "surface",
            False, _surface_report, (
                _opt("--at", required=True, metavar="U,V"),)),
    Command("surface area", "patch area", "surface", False, _surface_area, (
        _opt("--tol", type=float, default=1e-9, help="quadrature tolerance"),
    )),
    Command("surface offset", "offset area and curvature totals", "surface",
            False, _surface_offset, (
                _opt("--eps", required=True, type=float,
                     help="offset distance along the unit normal"),
                _opt("--fit-tol", type=float, default=1e-4,
                     help="relative tolerance for the offset-area "
                          "cross-check"))),
    Command("geodesic trace", "trace a geodesic from initial data", "chart",
            True, _geodesic_trace, (
                _opt("--from", required=True, metavar="X0",
                     help="start point, comma-separated chart coordinates"),
                _opt("--dir", required=True, metavar="V0",
                     help="initial direction in chart coordinates"),
                _opt("--length", required=True, type=float,
                     help="arc length to trace"),
                _opt("--samples", type=int, default=200,
                     help="number of output samples"),
                _opt("--rtol", type=float, default=1e-10),
                _opt("--atol", type=float, default=1e-12))),
    Command("geodesic distance", "two-point geodesic distance", "chart",
            False, _geodesic_distance, (
                _opt("--from", required=True, metavar="P"),
                _opt("--to", required=True, metavar="Q"),
                _opt("--tol", type=float, default=1e-10,
                     help="shooting tolerance on the endpoint miss"))),
    Command("geodesic circle", "geodesic circle length and disk area",
            "chart", False, _geodesic_circle, (
                _opt("--at", required=True, metavar="P", help="center"),
                _opt("--radius", required=True, type=float),
                _opt("--samples", type=int,
                     help="directions around the center (default 24, even, "
                          ">= 8; every other one gives the error "
                          "estimate)"))),
    Command("transport along", "transport a vector along a polyline",
            "chart", False, _transport_along, (
                _opt("--via", action="append", metavar="PT", required=True,
                     help="waypoint (repeatable, at least two)"),
                _opt("--vector", required=True, metavar="V",
                     help="vector to transport, in chart coordinates"))),
    Command("transport holonomy", "holonomy of a closed loop", "chart",
            False, _transport_holonomy, (
                _opt("--loop", action="append", metavar="PT", required=True,
                     help="loop waypoint (repeatable; closed "
                          "automatically)"),)),
    Command("curvature scalar", "limit-based scalar curvature", "chart",
            False, _curvature_scalar, (
                _AT,
                _opt("--r0", type=float, default=0.2,
                     help="largest ladder radius"),
                _opt("--rungs", type=int, default=3,
                     help="halving ladder length"),
                _opt("--samples", type=int,
                     help="directions per circle in 2D (default 24, even, "
                          ">= 8); azimuths by samples/2 - 1 polar nodes "
                          "per sphere in 3D (default 8, a multiple of 4)"))),
    Command("curvature riemann", "Riemann tensor components", "chart",
            False, _curvature_riemann, (_AT,)),
    Command("curvature ricci", "Ricci form, operator, and scalar", "chart",
            False, _curvature_ricci, (_AT,)),
    Command("curvature sectional", "sectional curvature of a 2-plane",
            "chart", False, _curvature_sectional, (
                _AT,
                _opt("--u", required=True, metavar="U",
                     help="first span vector"),
                _opt("--v", required=True, metavar="V",
                     help="second span vector"))),
    Command("hyperbolic distance", "closed-form half-plane distance", None,
            False, _hyperbolic_distance, (
                _opt("--from", required=True, metavar="X,Y"),
                _opt("--to", required=True, metavar="X,Y"))),
    Command("verify", "run verification suites", None, False, _verify, (
        _opt("--suite", action="append", metavar="NAME",
             choices=lambda: sorted(vf.SUITES) + ["all"],
             help="suite name or 'all' (repeatable; default all)"),
        _opt("--seed", type=int, default=0,
             help="seed for randomized property checks"),
        # csv stays a choice so that the dispatcher refuses it, as it does
        # for every command without csv
        _opt("--format", choices=("text", "json", "csv"), default="text",
             metavar="{text,json}", help="output format (default text)"))),
    Command("parse", "check a geometry definition file", None, False,
            _parse, (
                _opt("--check", required=True, metavar="FILE",
                     help="file to parse and compile"),)),
)


def build_parser():
    root = _Parser(prog="curvatur",
                   description="Numerical curve, surface, and metric "
                               "geometry toolkit. Angles are radians; "
                               "coordinates are in declared chart order.")
    sub = root.add_subparsers(metavar="COMMAND", required=True)
    groups = {}
    for cmd in COMMANDS:
        group, _, op = cmd.name.partition(" ")
        if op and group not in groups:
            groups[group] = sub.add_parser(group, help=_GROUPS[group]) \
                .add_subparsers(metavar="OP", required=True)
        # "resolve": a command's own option replaces a common option of the
        # same flag (verify's --format)
        p = (groups[group] if op else sub).add_parser(
            op or group, help=cmd.help, conflict_handler="resolve")
        common = _OUTPUT + (_SOURCE if cmd.kind else ())
        for flags, kw in common + cmd.options:
            if callable(kw.get("choices")):
                kw = {**kw, "choices": kw["choices"]()}
            p.add_argument(*flags, **kw)
        p.set_defaults(command=cmd)
    return root


# ---------------------------------------------------------------------------
# the dispatcher
# ---------------------------------------------------------------------------


def _command_name(argv):
    """The name an error document gives a command line that may not parse:
    the row of :data:`COMMANDS` or the group it starts with, else the
    program."""
    known = {c.name for c in COMMANDS} | set(_GROUPS)
    for n in (2, 1):
        if " ".join(argv[:n]) in known:
            return " ".join(argv[:n])
    return "curvatur"


def main(argv=None):
    """Parse one command line and run it; returns the exit code.

    The one place for the protocol every command shares: refuse
    ``--format csv`` where it does not apply, load the geometry source and
    build the geometry of the command's kind (a surface read as a chart is
    pulled back through its first fundamental form, and the geometry
    document says so), wrap what the handler returns in the document
    envelope, add the cost block when the handler ran an ODE solve, and
    map failures to exit codes and error documents.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    name = _command_name(argv)
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:          # --help
            return int(exc.code or 0)
        cmd = args.command
        name = cmd.name
        if args.format == "csv" and not cmd.csv:
            raise UsageError(f"{name} does not support --format csv")
        g = geo = None
        if cmd.kind:
            spec = _load_spec(args)
            obj, surface = spec.build(), None
            if cmd.kind == "chart" and isinstance(obj, sp.SurfacePatch):
                obj, surface = ig.pullback_metric(obj), obj
            cls, needs = _KINDS[cmd.kind]
            if not isinstance(obj, cls):
                raise UsageError(f"geometry {spec.name!r} is a {spec.kind}, "
                                 f"but this command needs {needs}")
            g = Geometry(spec, obj, surface)
            geo = _geometry_doc(spec, "surface pullback" if surface else None)
        with nk.solver_cost() as cost:
            out = cmd.run(args, g)
        if isinstance(out, int):
            return out
        doc = _document(name, **{"geometry": geo, **out})
        if cost["solves"]:
            doc["diagnostics"]["cost"] = cost
        _write(args, _dump(doc))
        return 0
    except UsageError as exc:
        _error_doc(name, exc, extra={"exit_code": 2})
        return 2
    except cat.ParseError as exc:
        _error_doc(name, exc, extra={
            "line": exc.line, "col": exc.col,
            "expected": list(exc.expected)})
        return 1
    except (nk.NumericalError, nk.PreconditionError, ValueError,
            OSError, ZeroDivisionError) as exc:
        _error_doc(name, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
