"""Executable verification suites for the library's mathematical claims.

Each suite exercises one cluster of results at fixed tolerances and yields
one :class:`CheckResult` per claim as soon as it is measured.  The command
line front end prints one line per check as it lands and signals failure
with a dedicated exit code; the test suite asserts the same records, so
there is a single source of truth for what the package promises
numerically.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import catalog as cat
from . import curves as cv
from . import intrinsic as ig
from . import numkit as nk
from . import surface_patch as sp
from . import tensors as tn

TWO_PI = 2.0 * math.pi


@dataclass
class CheckResult:
    """One verified claim: ``value <= bound`` when the check passed.
    JSON leaves out the value of a ``timed`` (wall-clock) check."""

    suite: str
    name: str
    value: float
    bound: float
    passed: bool
    detail: str = ""
    timed: bool = False


def _check(suite, name, value, bound, detail="", timed=False):
    v = float(value)
    ok = bool(np.isfinite(v) and v <= float(bound))
    return CheckResult(suite, name, v, float(bound), ok, detail, timed)


def format_check(c: CheckResult) -> str:
    tag = "PASS" if c.passed else "FAIL"
    line = f"{tag} {c.suite}: {c.name} (value {c.value:.4g}, bound {c.bound:.4g})"
    if c.detail:
        line += f" [{c.detail}]"
    return line


def _interior_point(chart, rng, band=(0.3, 0.7)):
    """A deterministic point in the middle band of the chart box."""
    return np.array([lo + rng.uniform(*band) * (hi - lo)
                     for lo, hi in chart.domain])


def _catalog_charts():
    """Every builtin geometry as a metric chart (patches via pullback)."""
    objs = [(name, cat.builtin(name).build()) for name in cat.BUILTIN_NAMES]
    return [(name, ig.pullback_metric(obj)
             if isinstance(obj, sp.SurfacePatch) else obj) for name, obj in objs
            if isinstance(obj, (sp.SurfacePatch, ig.MetricChart))]


# -- circle-law -----------------------------------------------------------

def suite_circle_law(seed=0):
    """Geodesic circle length and disk area laws on the unit sphere.

    The ten radii share one batched geodesic fan through
    :func:`intrinsic.circles_and_disks`; the full single-radius entry
    point is exercised separately at R = 1.
    """
    suite = "circle-law"
    t0 = time.perf_counter()
    chart = ig.pullback_metric(cat.builtin("sphere").build())
    P = np.array([1.0, math.pi / 2])
    radii = [0.1 * k for k in range(1, 11)]
    lengths, areas, _, _ = ig.circles_and_disks(chart, P, radii)
    worst_l = np.abs(lengths - TWO_PI * np.sin(radii)).max()
    worst_s = np.abs(areas - TWO_PI * (1 - np.cos(radii))).max()
    res = ig.geodesic_circle(chart, P, 1.0)
    worst_l = max(worst_l, abs(res.length - TWO_PI * math.sin(1.0)))
    worst_s = max(worst_s, abs(res.disk_area - TWO_PI * (1 - math.cos(1.0))))
    elapsed = time.perf_counter() - t0
    yield _check(suite, "L(R) vs 2 pi sin R for R in 0.1..1.0", worst_l, 1e-6)
    yield _check(suite, "S(R) vs 2 pi (1 - cos R)", worst_s, 1e-6)
    yield _check(suite, "derivative law S'(R) = L(R)", res.ds_dr_residual, 1e-5)
    yield _check(suite, "runtime in seconds", elapsed, 10.0, timed=True)


# -- scalar-curvature -----------------------------------------------------

def suite_scalar_curvature(seed=0):
    """Limit-based scalar curvature against closed-form targets."""
    suite = "scalar-curvature"
    cases = [
        ("plane", ig.pullback_metric(cat.builtin("plane").build()),
         np.array([0.1, -0.2]), 0.0, 1e-6),
        ("unit sphere", ig.pullback_metric(cat.builtin("sphere").build()),
         np.array([1.0, math.pi / 2]), 2.0, 2e-3),
        ("half-plane", cat.builtin("lobachevsky_halfplane").build(),
         np.array([0.3, 2.0]), -2.0, 2e-3),
        ("hyperboloid pullback", cat.builtin("hyperboloid_pullback").build(),
         np.array([0.4, -0.3]), -2.0, 5e-3),
        ("round 3-sphere", cat.builtin("s3_round").build(),
         np.array([0.2, -0.3, 0.5]), 6.0, 2e-3),
    ]
    for name, chart, P, target, tol in cases:
        est = ig.scalar_curvature_estimate(chart, P)
        yield _check(suite, f"tau on {name}", abs(est.tau - target), tol,
                     detail=f"tau={est.tau:.6f}")
        if chart.dim == 2:
            yield _check(suite, f"circle and disk routes agree on {name}",
                         abs(est.tau_circle - est.tau_disk),
                         max(est.error, 1e-9))


# -- egregium -------------------------------------------------------------

def _rect_loop(a, b, c, d):
    return np.array([[a, c], [b, c], [b, d], [a, d], [a, c]])


def suite_egregium(seed=0):
    """Intrinsic curvature agrees with extrinsic invariants.

    The scalar-curvature limit of the pullback metric must reproduce twice
    the product of the principal curvatures, and the holonomy angle of a
    small counterclockwise coordinate loop must equal the Gauss-map signed
    area of the enclosed piece of surface.
    """
    suite = "egregium"
    torus_pts = [(u, v) for u in np.linspace(0.6, 5.6, 5)
                 for v in (0.0, math.pi, 0.9, 2.3)]
    cases = [
        ("sphere", [(0.8, 0.9), (2.0, 1.4), (4.0, 2.2), (5.5, 1.0),
                    (1.5, 2.0)]),
        ("torus", torus_pts),
        ("saddle", [(0.2, 0.3), (-0.4, 0.1), (0.5, -0.5), (0.0, 0.0),
                    (-0.6, -0.2)]),
    ]
    for name, pts in cases:
        surf = cat.builtin(name).build()
        chart = ig.pullback_metric(surf)
        worst = 0.0
        for uv in pts:
            rep = sp.principal_at(surf, uv)
            est = ig.scalar_curvature_estimate(chart, np.array(uv))
            worst = max(worst, abs(est.tau - 2.0 * rep.gauss))
        yield _check(suite,
                     f"tau = 2 lam+ lam- at {len(pts)} points on {name}",
                     worst, 2e-3)

    rng = np.random.default_rng([seed, 3])
    surfs = [cat.builtin(n).build() for n in ("sphere", "torus", "saddle")]
    worst = 0.0
    for i in range(10):
        surf = surfs[i % 3]
        (u0, u1), (v0, v1) = surf.domain
        du, dv = u1 - u0, v1 - v0
        a = u0 + rng.uniform(0.2, 0.6) * du
        c = v0 + rng.uniform(0.2, 0.6) * dv
        b = a + rng.uniform(0.1, 0.2) * min(du, 2.0)
        d = c + rng.uniform(0.1, 0.2) * min(dv, 2.0)
        chart = ig.pullback_metric(surf)
        h = ig.holonomy(chart, _rect_loop(a, b, c, d))
        sub = sp.SurfacePatch(surf._fn, [(a, b), (c, d)],
                              flip_normal=surf.flip_normal)
        ga = sp.gauss_map_signed_area(sub)
        worst = max(worst, abs(h.angle - ga))
    yield _check(suite,
                 "holonomy angle = Gauss-map signed area, 10 loops",
                 worst, 1e-3)


# -- euler-meusnier -------------------------------------------------------

def suite_euler_meusnier(seed=0):
    """Normal and inclined plane sections against the slicing oracle."""
    suite = "euler-meusnier"
    cases = [("sphere", (1.0, 1.1)), ("torus", (0.7, 0.9)),
             ("saddle", (0.2, -0.3))]
    for name, uv in cases:
        surf = cat.builtin(name).build()
        worst = 0.0
        for phi in np.linspace(0.0, TWO_PI, 64, endpoint=False):
            kn = sp.section_curvature(surf, uv, phi, 0.0, method="euler")
            ks = sp.section_curvature(surf, uv, phi, 0.0, method="slice")
            worst = max(worst, abs(kn - ks))
        yield _check(suite, f"Euler formula vs slices on {name}, 64 angles",
                     worst, 1e-6)
    for name, uv in (("sphere", (1.0, 1.1)), ("torus", (0.7, 0.9))):
        surf = cat.builtin(name).build()
        worst = 0.0
        for phi in (0.3, 1.2):
            kn = sp.section_curvature(surf, uv, phi, 0.0, method="euler")
            for theta in (0.2, 0.6, 1.0):
                k = sp.section_curvature(surf, uv, phi, theta, method="slice")
                worst = max(worst, abs(k * math.cos(theta) - kn))
        yield _check(suite,
                     f"inclined sections k cos(theta) = k_n on {name}",
                     worst, 1e-6)


# -- offset-expansion -----------------------------------------------------

def suite_offset_expansion(seed=0):
    """Offset-area quadratic fit against the direct curvature totals."""
    suite = "offset-expansion"

    m = 1e-4

    def sphere_fn(u, v):
        return [u.cos() * v.sin(), u.sin() * v.sin(), v.cos()]

    near_full = sp.SurfacePatch(sphere_fn, [(0, TWO_PI), (m, math.pi - m)],
                                periods=(TWO_PI, None), name="sphere")
    outward = near_full.flipped()
    patches = [("sphere (outward, near-full)", outward),
               ("cylinder", cat.builtin("cylinder").build()),
               ("torus", cat.builtin("torus").build())]
    for name, patch in patches:
        try:
            rep = sp.total_curvatures(patch)
        except sp.VerificationError as exc:
            rep = exc.report      # a failed fit still reports its numbers
        yield _check(suite, f"offset fit vs totals on {name}",
                     rep.rel_mismatch, 1e-4)
        if name.startswith("sphere"):
            dev = max(abs(rep.area - 4 * math.pi),
                      abs(rep.mean_total - 8 * math.pi),
                      abs(rep.gauss_total - 4 * math.pi))
            yield _check(suite, "sphere totals are (4pi, 8pi, 4pi)",
                         dev, 1e-6)
        if name == "torus":
            yield _check(suite, "closed torus has zero total Gaussian "
                         "curvature", abs(rep.gauss_total), 1e-6)


# -- geodesic -------------------------------------------------------------

def suite_geodesic(seed=0):
    """Geodesic integration quality: closure, Clairaut, speed."""
    suite = "geodesic"

    sphere = ig.pullback_metric(cat.builtin("sphere").build())
    path = ig.geodesic_trace(sphere, np.array([0.3, math.pi / 2]),
                             np.array([1.0, 0.0]), TWO_PI)
    defect = ig._closure_defect(sphere, path.end, path.start)
    yield _check(suite, "great-circle closure after length 2 pi",
                 defect, 1e-7)
    yield _check(suite, "great-circle speed drift",
                 path.speed_drift(), 1e-8)

    rev = cat.builtin("revolution").build()
    chart = ig.pullback_metric(rev)
    x0 = np.array([0.5, 0.2])
    v0 = np.array([1.0, 0.25])
    path = ig.geodesic_trace(chart, x0, v0, 50.0, rtol=1e-12, atol=1e-14)
    if path.reason != "completed":
        yield _check(suite, "revolution geodesic stays in the chart",
                     1.0, 0.0, detail=f"reason={path.reason}")
    ts = np.linspace(path.ts[0], path.ts[-1], 400)
    xs = np.stack([path.position(t) for t in ts], axis=1)
    vs = np.stack([path.velocity(t) for t in ts], axis=1)
    g11 = chart.g_at(xs)[0, 0]
    inv = g11 * vs[0]
    yield _check(suite,
                 "Clairaut invariant drift over length 50 (revolution)",
                 np.abs(inv - inv[0]).max(), 1e-7)
    yield _check(suite, "revolution geodesic speed drift",
                 path.speed_drift(), 1e-8)

    torus = ig.pullback_metric(cat.builtin("torus").build())
    path = ig.geodesic_trace(torus, np.array([1.0, 0.7]),
                             np.array([0.6, 1.0]), 30.0,
                             rtol=1e-12, atol=1e-14)
    yield _check(suite, "torus geodesic speed drift",
                 path.speed_drift(), 1e-8)


# -- transport ------------------------------------------------------------

def _tilted_sphere_chart():
    """Unit-sphere pullback chart whose poles avoid the octant corners."""
    a = np.array([1.0, -1.0, 0.0]) / math.sqrt(2)
    b = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
    c = np.array([0.0, 0.0, 1.0])

    def fn(u, v):
        sv, cu, su = v.sin(), u.cos(), u.sin()
        cv = v.cos()
        return [sv * cu * b[i] + sv * su * c[i] + cv * a[i] for i in range(3)]

    patch = sp.SurfacePatch(fn, [(0, TWO_PI),
                                 (math.pi / 4 - 0.2, 3 * math.pi / 4 + 0.2)],
                            periods=(TWO_PI, None), name="tilted-sphere")

    def to_chart(p):
        return np.array([math.atan2(p @ c, p @ b),
                         math.acos(float(np.clip(p @ a, -1, 1)))])

    def chart_vel(uv, w):
        basis = patch.tangent_basis(uv[0], uv[1])
        return np.linalg.lstsq(basis.T, w, rcond=None)[0]

    return ig.pullback_metric(patch), to_chart, chart_vel


def suite_transport(seed=0):
    """Holonomy of classic loops against closed-form rotation angles."""
    suite = "transport"

    chart, to_chart, chart_vel = _tilted_sphere_chart()
    verts = np.eye(3)
    sides = []
    miss = 0.0
    for i in range(3):
        p, q = verts[i], verts[(i + 1) % 3]
        w = q - (p @ q) * p
        w = w / np.linalg.norm(w)
        uv = to_chart(p)
        sides.append(ig.geodesic_trace(chart, uv, chart_vel(uv, w),
                                       math.pi / 2))
        miss = max(miss, float(np.abs(sides[i].end
                                      - to_chart(q)).max()))
    yield _check(suite, "octant triangle vertex hits", miss, 1e-8)
    h = ig.holonomy(chart, sides)
    yield _check(suite, "octant triangle rotation = pi/2",
                 abs(abs(h.angle) - math.pi / 2), 1e-4)
    yield _check(suite, "octant holonomy orthogonality",
                 h.orthogonality_residual, 1e-8)

    # unrolling oracle: the cone (v cos u, v sin u, v) flattens to a sector
    # of angle 2 pi * radius / slant, so one turn rotates by the complement
    cone = ig.pullback_metric(cat.builtin("cone").build())
    slant = math.sqrt(2.0)
    expected = TWO_PI - TWO_PI / slant
    h = ig.holonomy(cone, np.array([[0.0, 1.0], [TWO_PI, 1.0]]))
    yield _check(suite, "cone parallel rotation vs unrolling",
                 abs(abs(h.angle) - expected), 1e-4)
    yield _check(suite, "cone holonomy orthogonality",
                 h.orthogonality_residual, 1e-8)

    sphere = ig.pullback_metric(cat.builtin("sphere").build())
    theta0 = 1.1
    h = ig.holonomy(sphere, np.array([[0.0, theta0], [TWO_PI, theta0]]))
    expect = TWO_PI * (1 - math.cos(theta0))
    dev = min(abs(abs(h.angle) - expect), abs(TWO_PI - abs(h.angle) - expect))
    yield _check(suite, "sphere parallel circle rotation", dev, 1e-6)
    yield _check(suite, "transport preserves inner products",
                 h.gram_drift, 1e-9)


# -- riemann --------------------------------------------------------------

def suite_riemann(seed=0):
    """Riemann tensor: holonomy oracle, symmetries, Bianchi, space forms."""
    suite = "riemann"
    charts = _catalog_charts()
    rng = np.random.default_rng([seed, 8])

    worst_oracle, worst_name = 0.0, ""
    for name, chart in charts:
        x = _interior_point(chart, rng)
        if name == "lobachevsky_halfplane":
            x = np.array([0.3, 2.0])
        riem = tn.riemann_at(chart, x)
        pairs = [(0, 1)] if chart.dim == 2 else [(0, 1), (0, 2), (1, 2)]
        for i, j in pairs:
            u, v = np.eye(chart.dim)[[i, j]]
            mat, _ = tn.riemann_holonomy_oracle(chart, x, u, v)
            dev = float(np.abs(mat - riem.operator(u, v)).max())
            if dev > worst_oracle:
                worst_oracle, worst_name = dev, f"{name} ({i},{j})"
    yield _check(suite, "components vs holonomy oracle, all geometries",
                 worst_oracle, 1e-3, detail=f"worst at {worst_name}")

    worst_sym = worst_b2 = 0.0
    for name, chart in charts:
        for _ in range(20):
            x = _interior_point(chart, rng, band=(0.25, 0.75))
            riem = tn.riemann_at(chart, x)
            Rd = riem.R_down
            scale = max(float(np.abs(Rd).max()), 1.0)
            worst_sym = max(
                worst_sym,
                float(np.abs(Rd + np.einsum('jikl->ijkl', Rd)).max()) / scale,
                float(np.abs(Rd + np.einsum('ijlk->ijkl', Rd)).max()) / scale,
                float(np.abs(Rd - np.einsum('klij->ijkl', Rd)).max()) / scale,
                float(np.abs(Rd + np.einsum('iklj->ijkl', Rd)
                             + np.einsum('iljk->ijkl', Rd)).max()) / scale)
        for _ in range(2):
            x = _interior_point(chart, rng, band=(0.35, 0.65))
            resid, _ = tn.second_bianchi_residual(chart, x)
            worst_b2 = max(worst_b2, resid)
    yield _check(suite, "symmetries and first Bianchi, 20 points each",
                 worst_sym, 1e-9)
    yield _check(suite, "second Bianchi residual", worst_b2, 1e-4)

    s3 = cat.builtin("s3_round").build()
    worst = 0.0
    for x in (np.zeros(3), np.array([0.2, -0.1, 0.3])):
        riem = tn.riemann_at(s3, x)
        g = s3.g_at(x)
        for _ in range(5):
            u, v, w = rng.normal(size=(3, 3))
            lhs = riem.action(u, v, w)
            rhs = (g @ w @ v) * u - (g @ w @ u) * v
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    yield _check(suite, "round 3-sphere curvature formula", worst, 1e-6)


# -- ricci ----------------------------------------------------------------

def suite_ricci(seed=0):
    """Ricci form: volume oracle, trace identities, section sums."""
    suite = "ricci"
    rng = np.random.default_rng([seed, 9])

    cases = [("half-plane", cat.builtin("lobachevsky_halfplane").build(),
              np.array([0.3, 2.0])),
             ("sphere", ig.pullback_metric(cat.builtin("sphere").build()),
              np.array([1.0, math.pi / 2])),
             ("round 3-sphere", cat.builtin("s3_round").build(),
              np.array([0.2, 0.1, -0.3]))]
    worst, errors = 0.0, []
    for name, chart, x in cases:
        rho, err = tn.ricci_volume_oracle(chart, x)
        riem = tn.ricci_at(chart, x)
        worst = max(worst, float(np.abs(rho - riem.rho).max()))
        errors.append(f"{name} {err:.3g}")
    yield _check(suite, "contraction vs volume-defect oracle",
                 worst, 5e-3, detail="oracle errors " + ", ".join(errors))

    worst_tr = worst_2d = 0.0
    for name, chart in _catalog_charts():
        x = _interior_point(chart, rng)
        if name == "lobachevsky_halfplane":
            x = np.array([-0.5, 1.5])
        r = tn.ricci_at(chart, x)
        worst_tr = max(worst_tr, abs(r.tau - float(np.trace(r.rho_tilde))))
        if chart.dim == 2:
            g = chart.g_at(x)
            worst_2d = max(worst_2d,
                           float(np.abs(2.0 * r.rho - r.tau * g).max()))
    yield _check(suite, "tau equals trace of the mixed Ricci form",
                 worst_tr, 1e-9)
    yield _check(suite, "2 rho = tau g on 2D charts", worst_2d, 1e-6)

    s3 = cat.builtin("s3_round").build()
    x = np.array([0.1, -0.2, 0.25])
    g = s3.g_at(x)
    E = s3.orthonormal_basis(x)
    w = rng.normal(size=3)
    u = E @ (w / np.linalg.norm(w))
    # complete u to a g-orthonormal triple by Gram-Schmidt
    basis = [u]
    for v in E.T:
        for b in basis:
            v = v - (b @ g @ v) * b
        nrm = math.sqrt(float(v @ g @ v))
        if nrm > 1e-8:
            basis.append(v / nrm)
    tau12, err12 = ig.plane_scalar_estimate(s3, x, basis[0], basis[1])
    tau13, err13 = ig.plane_scalar_estimate(s3, x, basis[0], basis[2])
    r = tn.ricci_at(s3, x)
    lhs = 2.0 * float(u @ r.rho @ u)
    yield _check(suite, "2 rho(u,u) equals the sum of section scalars",
                 abs(lhs - (tau12 + tau13)), 2e-3,
                 detail=f"lhs={lhs:.6f}, errors {err12:.3g} {err13:.3g}")


# -- curve-roundtrip ------------------------------------------------------

def suite_curve_roundtrip(seed=0):
    """Curves rebuilt from curvature data reproduce that data."""
    suite = "curve-roundtrip"
    s_max = 6.0
    grid = np.linspace(0.05, s_max - 0.05, 40)

    profiles = [("constant", lambda s: nk.as_jet(0.7, s)
                 if isinstance(s, nk.Jet) else 0.7),
                ("linear", lambda s: s * 0.2 + 0.3),
                ("sinusoidal", lambda s: nk.sin(s))]
    for name, kbar in profiles:
        curve = cv.reconstruct_plane_curve(kbar, s_max)
        worst = max(abs(cv.plane_curvature(curve, s)
                        - float(nk.value_of(kbar(s)))) for s in grid)
        speed_dev = max(abs(cv.speed(curve, s) - 1.0) for s in grid)
        yield _check(suite, f"plane curvature round-trip ({name})",
                     worst, 1e-7)
        yield _check(suite, f"unit speed ({name})", speed_dev, 1e-9)

    kfn = lambda s: nk.sin(s) * 0.3 + 1.0          # noqa: E731
    taufn = lambda s: nk.cos(s) * 0.4              # noqa: E731
    curve = cv.reconstruct_space_curve(kfn, taufn, s_max)
    worst_k = worst_tau = 0.0
    for s in grid:
        k, tau = cv.space_curvature_torsion(curve, s)
        worst_k = max(worst_k, abs(k - float(nk.value_of(kfn(s)))))
        worst_tau = max(worst_tau, abs(tau - float(nk.value_of(taufn(s)))))
    yield _check(suite, "space curvature round-trip", worst_k, 1e-6)
    yield _check(suite, "space torsion round-trip", worst_tau, 1e-6)

    rng = np.random.default_rng([seed, 10])
    worst = 0.0
    for _ in range(10):
        r = rng.uniform(0.5, 2.0)
        om = rng.uniform(0.5, 2.0)
        vz = rng.uniform(0.2, 1.5)
        hel = cat.builtin("helix", {"r": r, "omega": om, "v": vz}).build()
        t = rng.uniform(*hel.domain)
        _, tau = cv.space_curvature_torsion(hel, t)
        worst = max(worst, abs(tau - vz * om / (r * r * om * om + vz * vz)))
    yield _check(suite, "helix torsion closed form, 10 draws",
                 worst, 1e-9)


# -- hyperbolic -----------------------------------------------------------

def suite_hyperbolic(seed=0):
    """Lobachevsky half-plane: distances, Pythagoras, circles."""
    suite = "hyperbolic"
    rng = np.random.default_rng([seed, 11])
    chart = cat.builtin("lobachevsky_halfplane").build()

    P, Q = np.empty((2, 100, 2))
    for i in range(100):
        P[i, 0], Q[i, 0] = rng.uniform(-2.0, 2.0, size=2)
        P[i, 1], Q[i, 1] = np.exp(rng.uniform(math.log(0.3), math.log(3.0),
                                              size=2))
    d_closed = [cat.hyperbolic_distance(complex(*p), complex(*q))
                for p, q in zip(P, Q)]
    worst = np.max(np.abs(ig.geodesic_distances(chart, P, Q).distance
                          - d_closed))
    yield _check(suite, "shooting vs closed-form distance, 100 pairs",
                 worst, 1e-6)

    worst_leg = worst_pyth = 0.0
    for _ in range(50):
        P = complex(rng.uniform(-1, 1), rng.uniform(0.5, 3.0))
        la, lb = rng.uniform(0.2, 1.5, size=2)
        A, B = cat.hyperbolic_right_triangle(P, la, lb)
        a = cat.hyperbolic_distance(P, A)
        b = cat.hyperbolic_distance(P, B)
        c = cat.hyperbolic_distance(A, B)
        worst_leg = max(worst_leg, abs(a - la), abs(b - lb))
        worst_pyth = max(worst_pyth,
                         abs(math.cosh(c) - math.cosh(a) * math.cosh(b)))
    yield _check(suite, "right-triangle legs are exact", worst_leg, 1e-12)
    yield _check(suite, "Pythagoras ch c = ch a ch b, 50 triangles",
                 worst_pyth, 1e-9)

    worst_shift = worst_inv = 0.0
    for _ in range(20):
        z1 = complex(rng.uniform(-2, 2), rng.uniform(0.3, 3.0))
        z2 = complex(rng.uniform(-2, 2), rng.uniform(0.3, 3.0))
        d0 = cat.hyperbolic_distance(z1, z2)
        a = rng.uniform(-3, 3)
        worst_shift = max(worst_shift,
                          abs(cat.hyperbolic_distance(z1 + a, z2 + a) - d0))
        worst_inv = max(worst_inv,
                        abs(cat.hyperbolic_distance(-1 / z1, -1 / z2) - d0))
    yield _check(suite, "distance invariance under shifts",
                 worst_shift, 1e-10)
    yield _check(suite, "distance invariance under inversion",
                 worst_inv, 1e-10)

    P = np.array([0.0, 2.0])
    worst = 0.0
    for R in (0.5, 1.0, 1.5):
        res = ig.geodesic_circle(chart, P, R)
        worst = max(worst, abs(res.length - cat.hyperbolic_circle_length(R)))
    yield _check(suite, "circle length 2 pi sinh R up to R=1.5",
                 worst, 1e-6)


# -- calculus -------------------------------------------------------------

def _poly_field(rng, n, kind):
    """Random polynomial field of degree two on n coordinates."""
    rows = 1 if kind == "scalar" else n
    c0 = rng.uniform(-1, 1, size=rows)
    cl = rng.uniform(-1, 1, size=(rows, n))
    cq = rng.uniform(-1, 1, size=(rows, n, n))

    def comp(xj, r):
        acc = c0[r] * nk.as_jet(1.0, xj[0])
        for i in range(n):
            acc = acc + cl[r, i] * xj[i]
            for j in range(n):
                acc = acc + cq[r, i, j] * (xj[i] * xj[j])
        return acc

    if kind == "scalar":
        return tn.Field("scalar", lambda xj: comp(xj, 0))
    return tn.Field(kind, lambda xj: [comp(xj, r) for r in range(n)])


def suite_calculus(seed=0):
    """Covariant-calculus identities on seeded polynomial fields."""
    suite = "calculus"
    charts = [("half-plane", cat.builtin("lobachevsky_halfplane").build(),
               [(0.5, 2.0), (0.8, 2.2)]),
              ("round 3-sphere", cat.builtin("s3_round").build(),
               [(-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5)])]
    for label, chart, box in charts:
        n = chart.dim
        rng = np.random.default_rng([seed, 12, n])
        pts = [np.array([rng.uniform(lo + 0.1, hi - 0.1) for lo, hi in box])
               for _ in range(2)]
        res = {"bracket": 0.0, "leibniz-product": 0.0, "leibniz-pairing": 0.0,
               "curvature-commutator": 0.0, "alt-nabla": 0.0}
        n_fields = 25
        for i in range(n_fields):
            X = _poly_field(rng, n, "vector")
            Y = _poly_field(rng, n, "vector")
            W = _poly_field(rng, n, "vector")
            f = _poly_field(rng, n, "scalar")
            phi = _poly_field(rng, n, "covector")
            for x in pts:
                lhs = tn.field_values(tn.commutator(X, Y), x, order=2)
                rhs = (tn.field_values(tn.directional(chart, X, Y), x, order=3)
                       - tn.field_values(tn.directional(chart, Y, X), x,
                                         order=3))
                res["bracket"] = max(res["bracket"],
                                     float(np.abs(lhs - rhs).max()))

                fX = tn.Field("vector", lambda xj, f=f, X=X: f(xj) * X(xj))
                L = tn.field_values(tn.covariant_derivative(chart, fX), x,
                                    order=3)
                df = tn.field_values(tn.covariant_derivative(chart, f), x,
                                     order=3)
                Xv = tn.field_values(X, x)
                fv = tn.field_values(f, x)
                NX = tn.field_values(tn.covariant_derivative(chart, X), x,
                                     order=3)
                rhs = np.einsum('j,i->ij', df, Xv) + fv * NX
                res["leibniz-product"] = max(res["leibniz-product"],
                                             float(np.abs(L - rhs).max()))

                def pair_fn(xj, X=X, Y=Y):
                    gY = nk.jet_einsum("ab...,b...->a...",
                                       chart.metric_jet(xj), Y(xj))
                    return nk.jet_einsum("a...,a...->...", X(xj), gY)
                pair = tn.Field("scalar", pair_fn)
                dpair = tn.field_values(tn.directional(chart, W, pair), x,
                                        order=3)
                t1 = tn.field_values(tn.directional(chart, W, X), x, order=3)
                t2 = tn.field_values(tn.directional(chart, W, Y), x, order=3)
                g = chart.g_at(x)
                Yv = tn.field_values(Y, x)
                rhs = float(t1 @ g @ Yv + Xv @ g @ t2)
                res["leibniz-pairing"] = max(res["leibniz-pairing"],
                                             abs(float(dpair) - rhs))

                if i < 5:
                    riem = tn.riemann_at(chart, x)
                    Wv = tn.field_values(W, x)
                    c1 = tn.field_values(
                        tn.directional(chart, X, tn.directional(chart, Y, W)),
                        x, order=4)
                    c2 = tn.field_values(
                        tn.directional(chart, Y, tn.directional(chart, X, W)),
                        x, order=4)
                    c3 = tn.field_values(
                        tn.directional(chart, tn.commutator(X, Y), W),
                        x, order=4)
                    dev = (c1 - c2 - c3) - riem.action(Xv, Yv, Wv)
                    res["curvature-commutator"] = max(
                        res["curvature-commutator"], float(np.abs(dev).max()))

                d1 = tn.field_values(tn.exterior_derivative(phi), x, order=2)
                d2 = tn.field_values(tn.alt_of_nabla(chart, phi), x, order=3)
                res["alt-nabla"] = max(res["alt-nabla"],
                                       float(np.abs(d1 - d2).max()))
        yield _check(suite, f"bracket = nabla antisymmetrized ({label})",
                     res["bracket"], 1e-9)
        yield _check(suite, f"Leibniz rule for products ({label})",
                     res["leibniz-product"], 1e-9)
        yield _check(suite, f"Leibniz rule for the pairing ({label})",
                     res["leibniz-pairing"], 1e-9)
        yield _check(suite, f"curvature commutator identity ({label})",
                     res["curvature-commutator"], 1e-9)
        yield _check(suite, f"d phi = Alt(nabla phi) ({label})",
                     res["alt-nabla"], 1e-12)

        ng = tn.field_values(
            tn.covariant_derivative(chart, tn.metric_field(chart)), pts[0],
            order=3)
        yield _check(suite, f"metric compatibility nabla g = 0 ({label})",
                     float(np.abs(ng).max()), 1e-12)

        f = _poly_field(rng, n, "scalar")
        exact = tn.Field("covector",
                         tn.covariant_derivative(chart, f).fn)
        dex = tn.field_values(tn.exterior_derivative(exact), pts[0], order=3)
        yield _check(suite, f"exact covectors are closed ({label})",
                     float(np.abs(dex).max()), 1e-12)
        F = tn.potential_on_box(exact, box)
        worst = 0.0
        for _ in range(3):
            pt = np.array([rng.uniform(lo + 0.15, hi - 0.15)
                           for lo, hi in box])
            grad = tn.field_values(exact, pt, order=2)
            h = 1e-6
            for k, e in enumerate(h * np.eye(n)):
                gk = (F(pt + e) - F(pt - e)) / (2 * h)
                worst = max(worst, abs(gk - grad[k]))
        yield _check(suite, f"closed covectors integrate back ({label})",
                     worst, 1e-8)

        def bad_fn(xj):
            return [xj[1]] + [0.0] * (n - 1)
        dbad = tn.field_values(tn.exterior_derivative(
            tn.Field("covector", bad_fn)), pts[0], order=2)
        flagged = float(np.abs(dbad).max()) > 1e-6
        yield _check(suite, f"non-closed covector is flagged ({label})",
                     0.0 if flagged else 1.0, 0.5)


# -- parser ---------------------------------------------------------------

def _random_expr(rng, depth):
    r = rng.random()
    if depth <= 0 or r < 0.25:
        if rng.random() < 0.5:
            return cat.Num(float(round(rng.uniform(0, 10), 3)))
        return cat.Name(rng.choice(["u", "v", "a", "pi"]))
    if r < 0.35:
        return cat.Unary("-", _random_expr(rng, depth - 1))
    if r < 0.5:
        return cat.Call(rng.choice(list(cat.FUNCTIONS)),
                        _random_expr(rng, depth - 1))
    op = rng.choice(["+", "-", "*", "/", "^"])
    return cat.Binary(op, _random_expr(rng, depth - 1),
                      _random_expr(rng, depth - 1))


_MALFORMED = [
    ("surface s (u,v in [0,1]x[0,1]) = (u, v, w)", "unbound name"),
    ("surface s (u,v in [0,1]x[0,1]) = (u, v)", "3 components"),
    ("metric m (x,y in [0,1]x[0,1]) = [[1,0],[0]]", "expected"),
    ("surface s (u,v in [0,1]) = (u, v, 0)", "expected"),
    ("curve c (t in [1,0]) = (t, t)", "empty domain"),
    ("surface s (u,v in [0,1]x[0,1]) = (u, v, 0", "end of input"),
    ("geodesic g (t in [0,1]) = (t)", "expected"),
    ("curve c (t in [0,1]) = (t, @)", "unexpected character"),
]


def suite_parser(seed=0):
    """Expression round-trips, diagnostics, and builtin twins."""
    suite = "parser"
    import random as _random
    rng = _random.Random(seed + 13)
    bad = 0
    for _ in range(1000):
        e = _random_expr(rng, rng.randint(1, 6))
        text = cat.print_expr(e)
        p = cat._Parser(cat.tokenize(text))
        e2 = p.parse_expr()
        if p.peek().kind != "eof" or e2 != e:
            bad += 1
    yield _check(suite, "1000 printed expressions parse back exactly",
                 float(bad), 0.0)

    wrong = 0
    for text, needle in _MALFORMED:
        try:
            cat.parse_geometry(text)
            wrong += 1
        except cat.ParseError as exc:
            if exc.line < 1 or exc.col < 1 or needle not in str(exc):
                wrong += 1
    yield _check(suite, "malformed inputs give line/column diagnostics",
                 float(wrong), 0.0)

    sph = cat.parse_geometry(
        "surface sph (u,v in [0.1,3.04]x[0,6.28]) = "
        "(sin(u)*cos(v), sin(u)*sin(v), cos(u))").build()
    twin = cat.builtin("sphere").build().flipped()
    worst = 0.0
    for p, q in [(0.8, 1.0), (1.6, 2.5), (2.4, 4.0)]:
        a = sp.principal_at(sph, (p, q))
        b = sp.principal_at(twin, (q, p))       # twin coordinates swapped
        worst = max(worst,
                    float(np.abs(a.point - b.point).max()),
                    abs(a.lam_plus - b.lam_plus),
                    abs(a.lam_minus - b.lam_minus),
                    abs(a.gauss - b.gauss),
                    abs(a.mean_density - b.mean_density))
    yield _check(suite, "parsed sphere matches the builtin twin",
                 worst, 1e-10)

    hyp = cat.parse_geometry(
        "metric hyp (x,y in [-5,5]x[0.1,10]) = "
        "[[1/y^2,0],[0,1/y^2]]").build()
    twin = cat.builtin("lobachevsky_halfplane").build()
    worst = 0.0
    for x in [np.array([0.5, 1.2]), np.array([-2.0, 4.0]),
              np.array([3.0, 0.7])]:
        worst = max(worst,
                    float(np.abs(hyp.g_at(x) - twin.g_at(x)).max()),
                    float(np.abs(ig.christoffel_at(hyp, x)
                                 - ig.christoffel_at(twin, x)).max()))
    yield _check(suite, "parsed half-plane matches the builtin twin",
                 worst, 1e-10)

    hel = cat.parse_geometry(
        "curve helix (t in [0,10]) = (cos(t), sin(t), 0.5*t)").build()
    twin = cat.builtin("helix").build()
    worst = 0.0
    for t in (0.5, 2.0, 5.5):
        a = cv.frenet_frame(hel, t)
        b = cv.frenet_frame(twin, t)
        worst = max(worst,
                    float(np.abs(a.point - b.point).max()),
                    abs(a.curvature - b.curvature),
                    abs(a.torsion - b.torsion))
    yield _check(suite, "parsed helix matches the builtin twin",
                 worst, 1e-10)


SUITES = {
    "circle-law": suite_circle_law,
    "scalar-curvature": suite_scalar_curvature,
    "egregium": suite_egregium,
    "euler-meusnier": suite_euler_meusnier,
    "offset-expansion": suite_offset_expansion,
    "geodesic": suite_geodesic,
    "transport": suite_transport,
    "riemann": suite_riemann,
    "ricci": suite_ricci,
    "curve-roundtrip": suite_curve_roundtrip,
    "hyperbolic": suite_hyperbolic,
    "calculus": suite_calculus,
    "parser": suite_parser,
}


def run_suite(name, seed=0, report=None):
    """Run one named suite; ``report`` receives each CheckResult as it lands."""
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise nk.PreconditionError(f"unknown suite {name!r} (known: {known})")
    results = []
    for c in SUITES[name](seed=seed):
        if report is not None:
            report(c)
        results.append(c)
    return results


def suite_names(names):
    """Suite names in run order; 'all' expands to every suite."""
    names = [names] if isinstance(names, str) else names
    return [s for n in names for s in (SUITES if n == "all" else [n])]
