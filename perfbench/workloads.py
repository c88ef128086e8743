"""The four benchmark workloads: seeded inputs, the library call, the check.

Each workload is a closed loop with one caller.  Op ``k`` of a run is drawn
from ``numpy.random.default_rng(seed)`` after ops ``0..k-1``, so the input
sequence depends on the seed alone, never on timing.  Ops cycle through the
workload's geometries in a fixed order (the op mix).  Each geometry's inputs
are stratified (see ``StratifiedDraws``), so every run covers the input
bands about evenly however few ops it holds.  Every result is
compared with a closed form; ``Op.error_ratio`` returns the worst
|result - reference| / tolerance of that op, so an op passes when it is at
most 1.

The library is reached only through its public modules, by attribute lookup
at call time (``ig.geodesic_distance(...)``), so the tracer in
``tracer.py`` sees every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Callable

import numpy as np

from curvatur import catalog as cat
from curvatur import intrinsic as ig
from curvatur import numkit as nk
from curvatur import surface_patch as sp
from curvatur import tensors as tn

# What an op may raise without aborting the run.  VerificationError and
# NonConvergenceError are NumericalError subclasses; PreconditionError is a
# ValueError subclass.
OP_FAILURES = (nk.NumericalError, nk.PreconditionError)

TWO_PI = 2.0 * math.pi
STRATA = 4                           # ops per stratified block of one geometry
STRATIFIED_DIMS = 8                  # scalars per op drawn from the strata


@dataclass
class Op:
    """One timed library call with its closed-form check."""

    label: str                       # geometry of the op mix
    inputs: tuple                    # plain floats, for determinism checks
    run: Callable[[], object]
    error_ratio: Callable[[object], float]


class StratifiedDraws:
    """Seeded draws for one geometry, spread evenly over the input bands.

    The ops of a geometry come in blocks of ``STRATA``.  Within a block, the
    d-th scalar the op asks for falls once into each of ``STRATA`` equal
    slices of [0, 1), in a seeded order and at a seeded place in the slice
    (Latin hypercube sampling); uniforms, directions and integers are
    mapped from it.  Op cost depends on the inputs and a run holds only a few ops
    per geometry, so plain draws would let one seed land on the cheap end of
    a band and the next on the dear end.  Scalars past ``STRATIFIED_DIMS``
    (an op that redraws) come from the generator directly.
    """

    def __init__(self, rng):
        self.rng = rng
        self.block = []
        self.row = None

    def next_op(self):
        """Start the next op's draws."""
        if not self.block:
            order = np.argsort(self.rng.random((STRATA, STRATIFIED_DIMS)),
                               axis=0)
            u = (order + self.rng.random(order.shape)) / STRATA
            self.block = list(u)
        self.row = list(self.block.pop(0))
        return self

    def _u(self):
        u = self.row.pop(0) if self.row else self.rng.random()
        return min(max(u, 1e-12), 1.0 - 1e-12)

    def _many(self, fn, size):
        if size is None:
            return fn(self._u())
        return np.array([fn(self._u()) for _ in range(size)])

    def uniform(self, lo, hi, size=None):
        return self._many(lambda u: lo + (hi - lo) * u, size)

    def direction(self, n):
        """A unit vector, uniform on the circle (n = 2) or sphere (n = 3)."""
        phi = TWO_PI * self._u()
        if n == 2:
            return np.array([math.cos(phi), math.sin(phi)])
        z = 2.0 * self._u() - 1.0
        s = math.sqrt(1.0 - z * z)
        return np.array([s * math.cos(phi), s * math.sin(phi), z])

    def integers(self, n):
        return int(self._u() * n)


@dataclass
class Workload:
    name: str
    labels: tuple                    # the op mix, one op per label per cycle
    build: Callable[[], dict]        # label -> geometry; timed in setup_s
    make_op: Callable[[dict, str, StratifiedDraws], Op]

    def ops(self, geoms, seed):
        """Endless op stream for ``seed``; op k is the same on every run."""
        rng = np.random.default_rng(seed)
        draws = {label: StratifiedDraws(rng) for label in self.labels}
        for k in count():
            label = self.labels[k % len(self.labels)]
            yield self.make_op(geoms, label, draws[label].next_op())


def _err(value, reference, tol):
    return abs(float(value) - float(reference)) / tol


def _floats(*parts):
    return tuple(float(x) for part in parts for x in part)


def _charts(table):
    """Build step for a workload whose geometries are one chart per label."""
    return lambda: {label: spec[0]() for label, spec in table.items()}


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _sphere_xyz(p):
    """Builtin sphere chart (u, v) -> unit vector (cos u sin v, sin u sin v, cos v)."""
    u, v = p
    return np.array([math.cos(u) * math.sin(v), math.sin(u) * math.sin(v),
                     math.cos(v)])


def _s3_point(x):
    """s3_round chart point -> unit vector in R^4.

    The chart metric is |dx|^2 / (1 + |x|^2/4)^2, the round metric in
    stereographic coordinates y = x / 2, whose inverse image is
    (2y, 1 - |y|^2) / (1 + |y|^2).
    """
    y = np.asarray(x, dtype=float) / 2.0
    r2 = float(y @ y)
    return np.concatenate([2.0 * y, [1.0 - r2]]) / (1.0 + r2)


def _angle(a, b):
    return math.acos(min(1.0, max(-1.0, float(a @ b))))


def _halfplane_distance(p, q):
    return cat.hyperbolic_distance(complex(*p), complex(*q))


def _sphere_distance(p, q):
    return _angle(_sphere_xyz(p), _sphere_xyz(q))


def _s3_distance(p, q):
    return _angle(_s3_point(p), _s3_point(q))


# ---------------------------------------------------------------------------
# geometries
# ---------------------------------------------------------------------------


def _halfplane():
    return cat.builtin("lobachevsky_halfplane").build()


def _sphere_chart():
    return ig.pullback_metric(cat.builtin("sphere").build())


def _s3():
    return cat.builtin("s3_round").build()


def _hyperboloid():
    return cat.builtin("hyperboloid_pullback").build()


# Central boxes the seeded points are drawn from.  They keep every op well
# inside its chart, so that no op fails for leaving the domain.
def _halfplane_point(rng):
    return np.array([rng.uniform(-1.0, 1.0),
                     math.exp(rng.uniform(math.log(0.7), math.log(2.5)))])


def _sphere_point(rng):
    return np.array([rng.uniform(0.0, TWO_PI), rng.uniform(1.0, 2.1)])


def _s3_chart_point(rng):
    return rng.uniform(-0.5, 0.5, size=3)


# ---------------------------------------------------------------------------
# shooting: geodesic_distance, overhead-bound
# ---------------------------------------------------------------------------

# Pairs sit at a seeded geodesic distance in this range.  Shooting cost grows
# with the distance and with closeness to the chart edge (pairs up to 2.8
# apart on the sphere chart took 5-22 s per op), so the range is what keeps
# one run's op count, and hence its figures, steady.
SHOOT_DISTANCE = (0.9, 1.1)
SHOOT_TOL = 1e-6                     # criterion 11 (hyperbolic)

def _parallel_ray(rng):
    """East or west along a parallel, tilted by at most 20 degrees.

    Steeper rays leave the sphere chart's band before distance 1, so they
    would only be redrawn.  One stratified scalar picks both the side and
    the tilt, so each block of ops goes east and west equally often.
    """
    t = rng.uniform(0.0, 2.0)
    side, t = (1.0, t) if t < 1.0 else (-1.0, t - 1.0)
    tilt = math.radians(20.0) * (2.0 * t - 1.0)
    return np.array([side * math.cos(tilt), math.sin(tilt)])


_SHOOT = {
    # label: (chart, point sampler, ray sampler, closed-form distance,
    #         inside check)
    "halfplane": (_halfplane, _halfplane_point, lambda rng: rng.direction(2),
                  _halfplane_distance,
                  lambda q: -3.0 < q[0] < 3.0 and 0.2 < q[1] < 8.0),
    # pairs stay near the equator: a pair at v ~ 1.05 cost 2.5k RHS
    # evaluations, and over v in [1.25, 1.9] one op cost 1x-3.5x another
    "sphere": (_sphere_chart,
               lambda rng: np.array([rng.uniform(0.0, TWO_PI),
                                     rng.uniform(1.4, 1.75)]),
               _parallel_ray, _sphere_distance,
               lambda q: 1.0 < q[1] < math.pi - 1.0),
    "s3_round": (_s3, _s3_chart_point, lambda rng: rng.direction(3),
                 _s3_distance, lambda q: float(np.abs(q).max()) < 1.5),
}


def _pair_at_distance(rng, sample, ray, dist, inside):
    """P from the sampler, Q on a seeded coordinate ray at a seeded distance.

    The ray's direction is stratified as one angle in 2D, two in 3D: shooting
    upward in the half-plane takes 12 solves against 8-10 downward, so
    plain draws would let a seed's share of upward pairs move the figures.

    The ray parameter is found by bisection on the closed-form distance, so
    the reference for the pair is the closed form at (P, Q), not the target.
    """
    while True:
        P = sample(rng)
        w = ray(rng)
        target = rng.uniform(*SHOOT_DISTANCE)
        lo, hi = 0.0, 0.05
        while inside(P + hi * w) and dist(P, P + hi * w) < target:
            lo, hi = hi, 2.0 * hi
        if not inside(P + hi * w):
            continue                 # the ray leaves the box first: redraw
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if dist(P, P + mid * w) < target:
                lo = mid
            else:
                hi = mid
        return P, P + hi * w


def _shooting_op(geoms, label, rng):
    _, sample, ray, dist, inside = _SHOOT[label]
    chart = geoms[label]
    P, Q = _pair_at_distance(rng, sample, ray, dist, inside)
    reference = dist(P, Q)
    return Op(label, _floats(P, Q),
              lambda: ig.geodesic_distance(chart, P, Q),
              lambda d: _err(d, reference, SHOOT_TOL))


# ---------------------------------------------------------------------------
# fans: scalar_curvature_estimate, kernel-bound
# ---------------------------------------------------------------------------

_FANS = {
    # label: (chart, point sampler, scalar curvature, tolerance) -- criterion 02
    "sphere": (_sphere_chart, _sphere_point, 2.0, 2e-3),
    "halfplane": (_halfplane, _halfplane_point, -2.0, 2e-3),
    "hyperboloid": (_hyperboloid,
                    lambda rng: rng.uniform(-0.5, 0.5, size=2), -2.0, 5e-3),
    "s3_round": (_s3, _s3_chart_point, 6.0, 2e-3),
}


def _fans_op(geoms, label, rng):
    _, sample, tau, tol = _FANS[label]
    chart = geoms[label]
    P = sample(rng)

    def error_ratio(est):
        worst = _err(est.tau, tau, tol)
        if est.tau_circle is not None:        # 2D: the two routes must agree
            worst = max(worst, _err(est.tau_circle, est.tau_disk,
                                    max(est.error, 1e-9)))
        return worst

    return Op(label, _floats(P),
              lambda: ig.scalar_curvature_estimate(chart, P), error_ratio)


# ---------------------------------------------------------------------------
# surfaces: total_curvatures + area, quadrature-bound
# ---------------------------------------------------------------------------

SURFACE_FIT_TOL = 1e-4               # criterion 05 bound on rel_mismatch
SURFACE_TOTAL_TOL = 1e-6             # criterion 05 bound on the totals
SPHERE_CAP = 1e-4                    # near-full sphere: v in [m, pi - m]


def _near_full_sphere(rho):
    def fn(u, v):
        return [rho * u.cos() * v.sin(), rho * u.sin() * v.sin(),
                rho * v.cos()]

    patch = sp.SurfacePatch(fn, [(0.0, TWO_PI), (SPHERE_CAP,
                                                 math.pi - SPHERE_CAP)],
                            periods=(TWO_PI, None), name="sphere")
    return patch.flipped()           # outward, as in criterion 05


def _surfaces_build():
    return {"torus": cat.builtin("torus"), "cylinder": cat.builtin("cylinder"),
            "sphere": _near_full_sphere}


def _surfaces_op(geoms, label, rng):
    if label == "torus":
        R, r = rng.uniform(2.0, 2.4), rng.uniform(0.7, 0.9)
        patch = geoms[label].with_params(R=R, r=r).build()
        radii = (R, r)
        ref_area, ref_gauss = 4.0 * math.pi ** 2 * R * r, 0.0
    elif label == "cylinder":
        R = rng.uniform(0.8, 1.2)
        patch = geoms[label].with_params(R=R).build()
        radii = (R,)
        ref_area, ref_gauss = 8.0 * math.pi * R, 0.0      # height 4
    else:
        rho = rng.uniform(0.9, 1.1)
        patch = geoms[label](rho)
        radii = (rho,)
        cap = math.cos(SPHERE_CAP)
        ref_area, ref_gauss = 4.0 * math.pi * rho ** 2 * cap, 4.0 * math.pi * cap

    def run():
        try:
            rep = sp.total_curvatures(patch)
        except sp.VerificationError as exc:
            # The failed fit still carries its report; keep it so the miss
            # shows in the error ratio instead of aborting the op.
            rep = exc.report
        return rep, sp.area(patch)

    def error_ratio(result):
        rep, direct = result
        tol_a = SURFACE_TOTAL_TOL * max(1.0, ref_area)
        return max(rep.rel_mismatch / SURFACE_FIT_TOL,
                   _err(rep.area, ref_area, tol_a),
                   _err(direct, ref_area, tol_a),
                   _err(rep.gauss_total, ref_gauss, SURFACE_TOTAL_TOL))

    return Op(label, _floats(radii), run, error_ratio)


# ---------------------------------------------------------------------------
# transport: riemann_holonomy_oracle vs riemann_at, polyline transport
# ---------------------------------------------------------------------------

ORACLE_TOL = 1e-3                    # criterion 08 (riemann)
RICCI_TOL = 1e-6

# Holonomy cost on the sphere chart grows with the distance from the equator
# (3.2k RHS evaluations per op at v = 1.5, 4.0k at v = 1.1 or 2.0), so the
# band hugs the equator.
_TRANSPORT = {
    # label: (chart, point sampler, scalar curvature)
    "sphere": (_sphere_chart, lambda rng: np.array(
        [rng.uniform(0.0, TWO_PI), rng.uniform(1.45, 1.7)]), 2.0),
    "halfplane": (_halfplane, _halfplane_point, -2.0),
    "s3_round": (_s3, _s3_chart_point, 6.0),
}


def _transport_op(geoms, label, rng):
    _, sample, tau = _TRANSPORT[label]
    chart = geoms[label]
    x = sample(rng)
    n = chart.dim
    i, j = (0, 1) if n == 2 else [(0, 1), (0, 2), (1, 2)][rng.integers(3)]
    u, v = np.eye(n)[i], np.eye(n)[j]

    def run():
        mat, _ = tn.riemann_holonomy_oracle(chart, x, u, v)
        riem = tn.riemann_at(chart, x)
        return mat, riem.operator(u, v), tn.ricci_at(chart, x, riem).tau

    def error_ratio(result):
        mat, op, scalar = result
        return max(float(np.abs(mat - op).max()) / ORACLE_TOL,
                   _err(scalar, tau, RICCI_TOL))

    return Op(label, _floats(x, (i, j)), run, error_ratio)


WORKLOADS = {w.name: w for w in [
    Workload("shooting", tuple(_SHOOT), _charts(_SHOOT), _shooting_op),
    Workload("fans", tuple(_FANS), _charts(_FANS), _fans_op),
    Workload("surfaces", ("torus", "cylinder", "sphere"), _surfaces_build,
             _surfaces_op),
    Workload("transport", tuple(_TRANSPORT), _charts(_TRANSPORT),
             _transport_op),
]}
