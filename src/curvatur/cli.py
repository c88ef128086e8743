"""Command-line front end.

Every subcommand writes a single JSON document (or a CSV table for path
exports) with the stable field layout::

    {"command": ..., "geometry": ..., "inputs": ..., "results": ...,
     "diagnostics": {"tolerances": ..., "error_estimates": ..., "warnings": [...]}}

Numbers are serialized with 17 significant digits so identical invocations
produce byte-identical output.  Angles are radians; coordinates are listed
in chart order as declared.  Exit codes: 0 success, 1 computation failure,
2 usage error, 3 verification-suite failure.  Every failure also writes a
JSON error document to stderr.  Commands that integrate ODEs may add a
``cost`` block to ``diagnostics``: solver counters, integers only.  Wall
times appear only in ``verify``'s text mode, never in JSON.
"""

import argparse
import csv
import io
import json
import math
import re
import sys
import time

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
    path = getattr(args, "output", None)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _emit(args, command, geometry, inputs, results, tolerances=None,
          error_estimates=None, warnings=None, cost=None):
    doc = {
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
    if cost is not None:
        doc["diagnostics"]["cost"] = cost
    _write(args, _dump(doc))


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
    for key in ("t", "y", "nan_seen", "estimate", "error_estimate", "best",
                "residual"):
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


def _fan_samples(text):
    try:
        return ig.fan_samples(int(text))
    except (ValueError, nk.PreconditionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


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
    builtin = getattr(args, "builtin", None)
    path = getattr(args, "file", None)
    if (builtin is None) == (path is None):
        raise UsageError(
            "provide exactly one geometry source: --builtin NAME or --file PATH")
    params = dict(_parse_param(p) for p in (getattr(args, "param", None) or []))
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
    if spec.flip_normal:
        doc["flip_normal"] = True
    if note:
        doc["metric"] = note
    return doc


def _require_csv_off(args, command):
    if getattr(args, "format", "json") == "csv":
        raise UsageError(f"{command} does not support --format csv")


def _as_surface(spec):
    obj = spec.build()
    if not isinstance(obj, sp.SurfacePatch):
        raise UsageError(f"geometry {spec.name!r} is a {spec.kind}, "
                         "but this command needs a surface")
    return obj


def _as_curve(spec):
    obj = spec.build()
    if not isinstance(obj, cv.ParamCurve):
        raise UsageError(f"geometry {spec.name!r} is a {spec.kind}, "
                         "but this command needs a curve")
    return obj


def _as_chart(spec):
    """Build a metric chart, pulling back surfaces through their first form."""
    obj = spec.build()
    if isinstance(obj, ig.MetricChart):
        return obj, None
    if isinstance(obj, sp.SurfacePatch):
        return ig.pullback_metric(obj), obj
    raise UsageError(f"geometry {spec.name!r} is a {spec.kind}, "
                     "but this command needs a surface or metric")


# ---------------------------------------------------------------------------
# curve commands
# ---------------------------------------------------------------------------


def _cmd_curve_analyze(args):
    _require_csv_off(args, "curve analyze")
    spec = _load_spec(args)
    curve = _as_curve(spec)
    ts = [float(t) for t in (args.at or [])]
    if not ts:
        raise UsageError("curve analyze needs at least one --at T")
    total = cv.arc_length(curve, tol=args.tol)
    points = []
    for t in ts:
        fr = cv.frenet_frame(curve, t)
        entry = {
            "t": t,
            "point": fr.point,
            "speed": cv.speed(curve, t),
            "tangent": fr.tangent,
            "normal": fr.normal,
            "binormal": fr.binormal,
            "curvature": fr.curvature,
            "torsion": fr.torsion,
        }
        if curve.dim == 2:
            entry["signed_curvature"] = cv.plane_curvature(curve, t)
        points.append(entry)
    _emit(args, "curve analyze", _geometry_doc(spec),
          {"at": ts},
          {"arc_length": total, "points": points},
          tolerances={"arc_length_tol": args.tol})
    return 0


def _cmd_curve_reconstruct(args):
    kbar = cat.parse_expression(args.curvature, variables=("s",))
    taubar = None
    if args.torsion is not None:
        taubar = cat.parse_expression(args.torsion, variables=("s",))
    s_max = float(args.length)
    if s_max <= 0:
        raise UsageError("--length must be positive")
    n = max(2, int(args.samples))
    if taubar is None:
        curve = cv.reconstruct_plane_curve(kbar, s_max)
    else:
        curve = cv.reconstruct_space_curve(kbar, taubar, s_max)
    svals = np.linspace(0.0, s_max, n)
    pts = np.array([curve.point(s) for s in svals])
    header = ["s", "x", "y", "z"][: 1 + curve.dim]
    rows = [[s, *p] for s, p in zip(svals, pts)]
    if args.format == "csv":
        _emit_csv(args, header, rows)
        return 0
    geometry = {"name": "reconstructed", "kind": "curve",
                "coords": ["s"], "domain": [[0.0, s_max]],
                "params": {}, "source": "reconstruction"}
    inputs = {"curvature": args.curvature, "torsion": args.torsion,
              "length": s_max, "samples": n}
    _emit(args, "curve reconstruct", geometry, inputs,
          {"endpoint": pts[-1],
           "samples": {"columns": header, "rows": rows}},
          tolerances={"ode_rtol": 1e-10, "ode_atol": 1e-12})
    return 0


# ---------------------------------------------------------------------------
# surface commands
# ---------------------------------------------------------------------------


def _cmd_surface_report(args):
    _require_csv_off(args, "surface report")
    spec = _load_spec(args)
    surface = _as_surface(spec)
    uv = _floats(args.at, 2, "--at")
    rep = sp.principal_at(surface, uv)
    results = {
        "point": rep.point,
        "normal": rep.normal,
        "lambda_plus": rep.lam_plus,
        "lambda_minus": rep.lam_minus,
        "dir_plus": rep.dir_plus,
        "dir_minus": rep.dir_minus,
        "dirs_chart": rep.dirs_chart,
        "mean_curvature": rep.mean_avg,
        "mean_density": rep.mean_density,
        "gauss_curvature": rep.gauss,
        "scalar_curvature": rep.scalar,
        "umbilic": rep.umbilic,
        "orientation": rep.orientation,
    }
    _emit(args, "surface report", _geometry_doc(spec),
          {"at": uv}, results)
    return 0


def _cmd_surface_area(args):
    _require_csv_off(args, "surface area")
    spec = _load_spec(args)
    surface = _as_surface(spec)
    value = sp.area(surface, tol=args.tol)
    _emit(args, "surface area", _geometry_doc(spec), {},
          {"area": value},
          tolerances={"quadrature_tol": args.tol})
    return 0


def _cmd_surface_offset(args):
    _require_csv_off(args, "surface offset")
    spec = _load_spec(args)
    surface = _as_surface(spec)
    eps = float(args.eps)
    report = sp.total_curvatures(surface, fit_tol=args.fit_tol)
    offset_area = sp.area(sp.offset_surface(surface, eps))
    predicted = (report.area + report.mean_total * eps
                 + report.gauss_total * eps ** 2)
    results = {
        "eps": eps,
        "offset_area": offset_area,
        "predicted_area": predicted,
        "base_area": report.area,
        "mean_total": report.mean_total,
        "gauss_total": report.gauss_total,
        "fit_area": report.fit_area,
        "fit_mean": report.fit_mean,
        "fit_gauss": report.fit_gauss,
        "orientation": report.orientation,
    }
    warnings = []
    scale = max(abs(offset_area), 1.0)
    if abs(offset_area - predicted) / scale > 10 * args.fit_tol:
        warnings.append(
            f"offset area deviates from the quadratic expansion by "
            f"{abs(offset_area - predicted):.3g}; eps may be beyond the "
            "focal radius")
    _emit(args, "surface offset", _geometry_doc(spec),
          {"eps": eps, "fit_epsilons": list(report.epsilons)},
          results,
          tolerances={"fit_tol": args.fit_tol},
          error_estimates={"fit_rel_mismatch": report.rel_mismatch},
          warnings=warnings)
    return 0


# ---------------------------------------------------------------------------
# geodesic commands
# ---------------------------------------------------------------------------


def _trace_columns(spec, surface):
    cols = ["t"] + list(spec.coords)
    if surface is not None:
        cols += ["x", "y", "z"]
    return cols


def _cmd_geodesic_trace(args):
    spec = _load_spec(args)
    chart, surface = _as_chart(spec)
    x0 = _floats(getattr(args, "from"), chart.dim, "--from")
    v0 = _floats(args.dir, chart.dim, "--dir")
    length = float(args.length)
    path = ig.geodesic_trace(chart, x0, v0, length,
                             rtol=args.rtol, atol=args.atol)
    n = max(2, int(args.samples))
    ts = np.linspace(0.0, path.length, n)
    xs = path.position(ts)
    rows = []
    for t, x in zip(ts, xs):
        row = [t, *x]
        if surface is not None:
            row += list(surface.point(*x))
        rows.append(row)
    header = _trace_columns(spec, surface)
    if args.format == "csv":
        _emit_csv(args, header, rows)
        return 0
    warnings = []
    if path.reason != "completed":
        warnings.append(f"trace stopped early ({path.reason}) "
                        f"at length {path.length:.17g}")
    drift = path.speed_drift()
    traj = path.trajectory         # read last: dense output adds RHS calls
    _emit(args, "geodesic trace",
          _geometry_doc(spec, note="surface pullback" if surface else None),
          {"from": x0, "dir": v0, "length": length, "samples": n},
          {"length_traced": path.length,
           "reason": path.reason,
           "end": path.end,
           "end_velocity": path.end_velocity,
           "samples": {"columns": header, "rows": rows}},
          tolerances={"ode_rtol": args.rtol, "ode_atol": args.atol},
          error_estimates={"speed_drift": drift},
          warnings=warnings,
          cost=dict(zip(ig._COST, ig._counters(traj))))
    return 0


def _cmd_geodesic_distance(args):
    _require_csv_off(args, "geodesic distance")
    spec = _load_spec(args)
    chart, surface = _as_chart(spec)
    p = _floats(getattr(args, "from"), chart.dim, "--from")
    q = _floats(args.to, chart.dim, "--to")
    cost, miss = np.zeros(len(ig._COST), int), np.zeros(1)
    dist = ig.geodesic_distance(chart, p, q, tol=args.tol, cost=cost,
                                miss=miss)
    _emit(args, "geodesic distance",
          _geometry_doc(spec, note="surface pullback" if surface else None),
          {"from": p, "to": q},
          {"distance": dist},
          tolerances={"shooting_tol": args.tol},
          error_estimates={"miss": float(miss[0])},
          cost=dict(zip(ig._COST, cost.tolist())))
    return 0


def _cmd_geodesic_circle(args):
    _require_csv_off(args, "geodesic circle")
    spec = _load_spec(args)
    chart, surface = _as_chart(spec)
    center = _floats(args.at, chart.dim, "--at")
    radius = float(args.radius)
    res = ig.geodesic_circle(chart, center, radius, samples=args.samples)
    _emit(args, "geodesic circle",
          _geometry_doc(spec, note="surface pullback" if surface else None),
          {"at": center, "radius": radius, "samples": args.samples},
          {"length": res.length, "disk_area": res.disk_area},
          error_estimates={"length": res.length_error,
                           "ds_dr_residual": res.ds_dr_residual},
          warnings=res.warnings, cost=res.cost)
    return 0


# ---------------------------------------------------------------------------
# transport commands
# ---------------------------------------------------------------------------


def _waypoints(items, dim, label):
    pts = [_floats(p, dim, label) for p in items]
    if len(pts) < 2:
        raise UsageError(f"{label} needs at least two waypoints")
    return np.array(pts)


def _cmd_transport_along(args):
    _require_csv_off(args, "transport along")
    spec = _load_spec(args)
    chart, surface = _as_chart(spec)
    pts = _waypoints(args.via or [], chart.dim, "--via")
    a0 = _floats(args.vector, chart.dim, "--vector")
    res = ig.parallel_transport(chart, pts, a0)
    _emit(args, "transport along",
          _geometry_doc(spec, note="surface pullback" if surface else None),
          {"via": pts, "vector": a0},
          {"transported": res.final,
           "path_kind": res.path_kind},
          error_estimates={"gram_drift": res.gram_drift}, cost=res.cost)
    return 0


def _cmd_transport_holonomy(args):
    _require_csv_off(args, "transport holonomy")
    spec = _load_spec(args)
    chart, surface = _as_chart(spec)
    pts = _waypoints(args.loop or [], chart.dim, "--loop")
    if not np.allclose(pts[0], pts[-1]):
        pts = np.vstack([pts, pts[:1]])
    res = ig.holonomy(chart, pts)
    _emit(args, "transport holonomy",
          _geometry_doc(spec, note="surface pullback" if surface else None),
          {"loop": pts},
          {"matrix": res.matrix,
           "angle": res.angle,
           "basis": res.basis},
          error_estimates={"orthogonality_residual": res.orthogonality_residual,
                           "gram_drift": res.gram_drift},
          cost=res.cost)
    return 0


# ---------------------------------------------------------------------------
# curvature commands
# ---------------------------------------------------------------------------


def _cmd_curvature_scalar(args):
    _require_csv_off(args, "curvature scalar")
    spec = _load_spec(args)
    chart, surface = _as_chart(spec)
    x = _floats(args.at, chart.dim, "--at")
    est = ig.scalar_curvature_estimate(chart, x, r0=args.r0,
                                       rungs=args.rungs,
                                       samples=args.samples)
    _emit(args, "curvature scalar",
          _geometry_doc(spec, note="surface pullback" if surface else None),
          {"at": x, "r0": args.r0, "rungs": args.rungs,
           "samples": args.samples},
          {"tau": est.tau,
           "tau_circle": est.tau_circle,
           "tau_disk": est.tau_disk,
           "routes_agree": est.routes_agree,
           "monotone": est.monotone},
          tolerances={"radii": list(est.radii)},
          error_estimates={"tau": est.error},
          warnings=est.warnings, cost=est.cost)
    return 0


def _cmd_curvature_riemann(args):
    _require_csv_off(args, "curvature riemann")
    spec = _load_spec(args)
    chart, surface = _as_chart(spec)
    x = _floats(args.at, chart.dim, "--at")
    riem = tn.riemann_at(chart, x)
    _emit(args, "curvature riemann",
          _geometry_doc(spec, note="surface pullback" if surface else None),
          {"at": x},
          {"R_up": riem.R_up,
           "R_down": riem.R_down,
           "metric": riem.g,
           "convention": riem.convention})
    return 0


def _cmd_curvature_ricci(args):
    _require_csv_off(args, "curvature ricci")
    spec = _load_spec(args)
    chart, surface = _as_chart(spec)
    x = _floats(args.at, chart.dim, "--at")
    ric = tn.ricci_at(chart, x)
    _emit(args, "curvature ricci",
          _geometry_doc(spec, note="surface pullback" if surface else None),
          {"at": x},
          {"rho": ric.rho,
           "rho_tilde": ric.rho_tilde,
           "tau": ric.tau,
           "metric": ric.g})
    return 0


def _cmd_curvature_sectional(args):
    _require_csv_off(args, "curvature sectional")
    spec = _load_spec(args)
    chart, surface = _as_chart(spec)
    x = _floats(args.at, chart.dim, "--at")
    u = _floats(args.u, chart.dim, "--u")
    v = _floats(args.v, chart.dim, "--v")
    sigma = tn.sectional_at(chart, x, u, v)
    _emit(args, "curvature sectional",
          _geometry_doc(spec, note="surface pullback" if surface else None),
          {"at": x, "u": u, "v": v},
          {"sectional": sigma})
    return 0


# ---------------------------------------------------------------------------
# hyperbolic, verify, parse
# ---------------------------------------------------------------------------


def _cmd_hyperbolic_distance(args):
    _require_csv_off(args, "hyperbolic distance")
    p = _floats(getattr(args, "from"), 2, "--from")
    q = _floats(args.to, 2, "--to")
    if p[1] <= 0 or q[1] <= 0:
        raise UsageError("half-plane points need y > 0")
    dist = cat.hyperbolic_distance(complex(p[0], p[1]), complex(q[0], q[1]))
    geometry = {"name": "lobachevsky_halfplane", "kind": "model",
                "coords": ["x", "y"], "domain": [], "params": {},
                "source": "closed-form"}
    _emit(args, "hyperbolic distance", geometry,
          {"from": p, "to": q}, {"distance": dist})
    return 0


def _cmd_verify(args):
    _require_csv_off(args, "verify")
    names = args.suite or ["all"]
    text = args.format != "json"
    stream = text and not args.output
    lines, checks = [], []

    def say(line):
        if stream:
            sys.stdout.write(line + "\n")
            sys.stdout.flush()
        else:
            lines.append(line)

    for name in vf.suite_names(names):
        t0 = time.perf_counter()
        checks += vf.run_suite(name, seed=args.seed, report=(
            lambda c: say(vf.format_check(c))) if text else None)
        if text:
            say(f"TIME {name}: {time.perf_counter() - t0:.2f} s")
    failed = [c for c in checks if not c.passed]
    if args.format == "json":
        rows = [{"suite": c.suite, "name": c.name,
                 "value": None if c.timed else c.value,
                 "bound": c.bound, "passed": c.passed, "detail": c.detail}
                for c in checks]
        geometry = {"name": "catalog", "kind": "suite", "coords": [],
                    "domain": [], "params": {}, "source": "builtin"}
        _emit(args, "verify", geometry,
              {"suites": list(names), "seed": args.seed},
              {"checks": rows,
               "passed": len(checks) - len(failed),
               "failed": len(failed)})
    elif not stream:
        _write(args, "\n".join(lines))
    if failed:
        _error_doc("verify", nk.NumericalError(
            f"{len(failed)} of {len(checks)} checks failed"),
            extra={"failed": [f"{c.suite}: {c.name}" for c in failed]})
        return 3
    return 0


def _cmd_parse(args):
    _require_csv_off(args, "parse")
    with open(args.check) as fh:
        text = fh.read()
    spec = cat.parse_geometry(text)
    spec.build()
    _emit(args, "parse", _geometry_doc(spec),
          {"file": args.check},
          {"ok": True, "kind": spec.kind, "name": spec.name},
          warnings=spec.warnings)
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_common(p, geometry=True):
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format (default json)")
    p.add_argument("--output", metavar="PATH",
                   help="write output to PATH instead of stdout")
    if geometry:
        p.add_argument("--builtin", metavar="NAME",
                       help="use a catalog builtin geometry")
        p.add_argument("--file", metavar="PATH",
                       help="load a geometry definition file")
        p.add_argument("--param", action="append", metavar="NAME=VALUE",
                       help="bind a geometry parameter (repeatable); "
                            "values parse as numbers, else as expressions "
                            "for builtins that accept them")


def build_parser():
    root = _Parser(prog="curvatur",
                   description="Numerical curve, surface, and metric "
                               "geometry toolkit. Angles are radians; "
                               "coordinates are in declared chart order.")
    sub = root.add_subparsers(dest="group", metavar="COMMAND")
    sub.required = True

    curve = sub.add_parser("curve", help="parametric curve operations")
    csub = curve.add_subparsers(dest="op", metavar="OP")
    csub.required = True
    p = csub.add_parser("analyze", help="Frenet data and arc length")
    _add_common(p)
    p.add_argument("--at", action="append", metavar="T",
                   help="curve parameter (repeatable)")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="arc-length quadrature tolerance")
    p.set_defaults(func=_cmd_curve_analyze)
    p = csub.add_parser("reconstruct",
                        help="rebuild a curve from natural equations")
    _add_common(p, geometry=False)
    p.add_argument("--curvature", required=True, metavar="EXPR",
                   help="curvature as an expression in s")
    p.add_argument("--torsion", metavar="EXPR",
                   help="torsion as an expression in s; giving it selects "
                        "a space curve")
    p.add_argument("--length", required=True, type=float,
                   help="arc length to integrate")
    p.add_argument("--samples", type=int, default=200,
                   help="number of output samples")
    p.set_defaults(func=_cmd_curve_reconstruct)

    surface = sub.add_parser("surface", help="embedded surface operations")
    ssub = surface.add_subparsers(dest="op", metavar="OP")
    ssub.required = True
    p = ssub.add_parser("report", help="principal curvature report")
    _add_common(p)
    p.add_argument("--at", required=True, metavar="U,V")
    p.set_defaults(func=_cmd_surface_report)
    p = ssub.add_parser("area", help="patch area")
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="quadrature tolerance")
    p.set_defaults(func=_cmd_surface_area)
    p = ssub.add_parser("offset", help="offset area and curvature totals")
    _add_common(p)
    p.add_argument("--eps", required=True, type=float,
                   help="offset distance along the unit normal")
    p.add_argument("--fit-tol", type=float, default=1e-4,
                   help="relative tolerance for the offset-area cross-check")
    p.set_defaults(func=_cmd_surface_offset)

    geod = sub.add_parser("geodesic", help="geodesics on charts and surfaces")
    gsub = geod.add_subparsers(dest="op", metavar="OP")
    gsub.required = True
    p = gsub.add_parser("trace", help="trace a geodesic from initial data")
    _add_common(p)
    p.add_argument("--from", required=True, metavar="X0",
                   help="start point, comma-separated chart coordinates")
    p.add_argument("--dir", required=True, metavar="V0",
                   help="initial direction in chart coordinates")
    p.add_argument("--length", required=True, type=float,
                   help="arc length to trace")
    p.add_argument("--samples", type=int, default=200,
                   help="number of output samples")
    p.add_argument("--rtol", type=float, default=1e-10)
    p.add_argument("--atol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_geodesic_trace)
    p = gsub.add_parser("distance", help="two-point geodesic distance")
    _add_common(p)
    p.add_argument("--from", required=True, metavar="P")
    p.add_argument("--to", required=True, metavar="Q")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="shooting tolerance on the endpoint miss")
    p.set_defaults(func=_cmd_geodesic_distance)
    p = gsub.add_parser("circle", help="geodesic circle length and disk area")
    _add_common(p)
    p.add_argument("--at", required=True, metavar="P", help="center")
    p.add_argument("--radius", required=True, type=float)
    p.add_argument("--samples", type=_fan_samples, default=24,
                   help="directions around the center (even, >= 8; "
                   "every other one gives the error estimate)")
    p.set_defaults(func=_cmd_geodesic_circle)

    trans = sub.add_parser("transport", help="parallel transport")
    tsub = trans.add_subparsers(dest="op", metavar="OP")
    tsub.required = True
    p = tsub.add_parser("along", help="transport a vector along a polyline")
    _add_common(p)
    p.add_argument("--via", action="append", metavar="PT", required=True,
                   help="waypoint (repeatable, at least two)")
    p.add_argument("--vector", required=True, metavar="V",
                   help="vector to transport, in chart coordinates")
    p.set_defaults(func=_cmd_transport_along)
    p = tsub.add_parser("holonomy", help="holonomy of a closed loop")
    _add_common(p)
    p.add_argument("--loop", action="append", metavar="PT", required=True,
                   help="loop waypoint (repeatable; closed automatically)")
    p.set_defaults(func=_cmd_transport_holonomy)

    curvature = sub.add_parser("curvature", help="curvature tensors")
    ksub = curvature.add_subparsers(dest="op", metavar="OP")
    ksub.required = True
    p = ksub.add_parser("scalar", help="limit-based scalar curvature")
    _add_common(p)
    p.add_argument("--at", required=True, metavar="P")
    p.add_argument("--r0", type=float, default=0.2,
                   help="largest ladder radius")
    p.add_argument("--rungs", type=int, default=3,
                   help="halving ladder length")
    p.add_argument("--samples", type=_fan_samples, default=24,
                   help="directions per circle in 2D, azimuths by "
                   "samples/2 polar nodes per sphere in 3D (even, >= 8)")
    p.set_defaults(func=_cmd_curvature_scalar)
    p = ksub.add_parser("riemann", help="Riemann tensor components")
    _add_common(p)
    p.add_argument("--at", required=True, metavar="P")
    p.set_defaults(func=_cmd_curvature_riemann)
    p = ksub.add_parser("ricci", help="Ricci form, operator, and scalar")
    _add_common(p)
    p.add_argument("--at", required=True, metavar="P")
    p.set_defaults(func=_cmd_curvature_ricci)
    p = ksub.add_parser("sectional", help="sectional curvature of a 2-plane")
    _add_common(p)
    p.add_argument("--at", required=True, metavar="P")
    p.add_argument("--u", required=True, metavar="U", help="first span vector")
    p.add_argument("--v", required=True, metavar="V", help="second span vector")
    p.set_defaults(func=_cmd_curvature_sectional)

    hyp = sub.add_parser("hyperbolic", help="half-plane closed forms")
    hsub = hyp.add_subparsers(dest="op", metavar="OP")
    hsub.required = True
    p = hsub.add_parser("distance", help="closed-form half-plane distance")
    _add_common(p, geometry=False)
    p.add_argument("--from", required=True, metavar="X,Y")
    p.add_argument("--to", required=True, metavar="X,Y")
    p.set_defaults(func=_cmd_hyperbolic_distance)

    p = sub.add_parser("verify", help="run verification suites")
    _add_common(p, geometry=False)
    p.add_argument("--suite", action="append", metavar="NAME",
                   choices=sorted(vf.SUITES) + ["all"],
                   help="suite name or 'all' (repeatable; default all)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized property checks")
    p.set_defaults(func=_cmd_verify, format="text")

    p = sub.add_parser("parse", help="check a geometry definition file")
    _add_common(p, geometry=False)
    p.add_argument("--check", required=True, metavar="FILE",
                   help="file to parse and compile")
    p.set_defaults(func=_cmd_parse)

    return root


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    command = " ".join(argv[:2]) if argv else "curvatur"
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _error_doc(command, exc, extra={"exit_code": 2})
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)

    command = " ".join(p for p in (args.group, getattr(args, "op", None)) if p)
    try:
        return int(args.func(args) or 0)
    except UsageError as exc:
        _error_doc(command, exc, extra={"exit_code": 2})
        return 2
    except cat.ParseError as exc:
        _error_doc(command, exc, extra={
            "line": exc.line, "col": exc.col,
            "expected": list(exc.expected)})
        return 1
    except (nk.NumericalError, nk.PreconditionError, ValueError,
            OSError, ZeroDivisionError) as exc:
        _error_doc(command, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
