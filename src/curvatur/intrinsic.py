"""Intrinsic geometry over metric charts.

A :class:`MetricChart` is a coordinate box with a metric evaluator that
produces jet-valued entries.  The Christoffel symbols have one derivation,
:func:`christoffel_jet`: the entries are stacked into one matrix-valued jet,
differentiated, and contracted with the jet inverse of the metric, so the
symbols come out as one jet, exact (within roundoff) rather than
differenced.  Every consumer reads off that jet: :func:`christoffel_at`
takes its value, :func:`christoffel_and_grad` its value and gradient (which
is all the Riemann tensor needs), and the covariant calculus of
:mod:`curvatur.tensors` its higher coefficients.  On top of that sit
geodesics, the exponential map (with optional variational state for
derivatives of exp), parallel transport, holonomy, geodesic circles, the
comparison-limit scalar curvature, and two-point distance by shooting.

Heavy sampling paths (circles, spheres, volume grids) integrate whole
batches of geodesics in one flat ODE system with shared step control, which
is what keeps the limit-based estimators fast.  Polyline transport is
batched the same way: every segment's transport map is one lane of a single
solve, and the segments are chained afterwards; so is distance shooting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import numkit as nk
from .numkit import Jet, PreconditionError


class DomainExitError(nk.NumericalError):
    """A trace left the chart's coordinate box; carries the partial path."""

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


class MetricChart:
    """A metric on a coordinate box in R^n, n in {2, 3}.

    Parameters
    ----------
    dim : int
    domain : sequence of (lo, hi) pairs, one per coordinate
    gfn : callable
        Receives a list of ``dim`` fresh coordinate jets (possibly batched)
        and returns the metric matrix as nested lists of jets (constants
        allowed).  Entries must be symmetric.
    provenance : str
        One of "pullback-from-patch", "builtin", "parsed".
    periods : tuple of float or None
        Period per coordinate for charts that close up (angles); used for
        loop-closure tests and distance representatives.
    name : str
    """

    # unit-ball volumes and unit-sphere areas used by the n-dimensional
    # scalar-curvature limit: V_2 = pi, V_3 = 4pi/3, S_2 = 2pi, S_3 = 4pi
    BALL_VOLUME = {2: math.pi, 3: 4.0 * math.pi / 3.0}
    SPHERE_AREA = {2: 2.0 * math.pi, 3: 4.0 * math.pi}

    def __init__(self, dim, domain, gfn, provenance="builtin", periods=None,
                 name=""):
        if dim not in (2, 3):
            raise PreconditionError("charts support dimension 2 or 3")
        self.dim = dim
        self.domain = [(float(lo), float(hi)) for lo, hi in domain]
        if len(self.domain) != dim:
            raise PreconditionError("domain must provide one interval per axis")
        self._gfn = gfn
        self.provenance = provenance
        self.periods = tuple(periods) if periods is not None else (None,) * dim
        self.name = name

    def contains(self, x, margin=0.0):
        x = np.asarray(x, dtype=float)
        ok = np.ones(x.shape[1:], dtype=bool)
        for i, (lo, hi) in enumerate(self.domain):
            if self.periods[i] is not None:
                continue
            ok &= (x[i] >= lo + margin) & (x[i] <= hi - margin)
        return ok

    def entries(self, xj):
        """Metric matrix as nested lists of jets at the seed variables
        ``xj`` (from :meth:`Jet.variables`), constants promoted to jets."""
        rows = self._gfn(list(xj))
        return [[nk.as_jet(rows[i][j], xj[0]) for j in range(self.dim)]
                for i in range(self.dim)]

    def metric_jets(self, x, order=1):
        """Metric entries as jets of the given order at point(s) x."""
        return self.entries(Jet.variables(np.asarray(x, dtype=float), order))

    def metric_jet(self, xj):
        """The metric as one jet with coefficients (K, n, n, ...batch),
        truncated to the common order of its entries."""
        rows = self.entries(xj)
        m = min(e.order for row in rows for e in row)
        return Jet(self.dim, m, np.stack([np.stack(
            [nk.truncate(e, m).coef for e in row], axis=1) for row in rows],
            axis=1))

    def g_at(self, x):
        """Metric matrix, shape (n, n, ...batch)."""
        return self.metric_jet(Jet.variables(np.asarray(x, dtype=float),
                                             1)).value

    def metric_arrays(self, x, order=1):
        """(g, dg[, d2g]) arrays; dg[k,i,j] = d g_ij / d x_k, batch axes last."""
        G = self.metric_jet(Jet.variables(np.asarray(x, dtype=float), order))
        if order == 1:
            return G.value, G.grad()
        return G.value, G.grad(), G.hessian()

    def orthonormal_basis(self, x):
        """Columns form a positively oriented g-orthonormal basis at x."""
        g = self.g_at(np.asarray(x, dtype=float))
        L = np.linalg.cholesky(np.moveaxis(g, (0, 1), (-2, -1)))
        E = np.swapaxes(np.linalg.inv(L), -2, -1)
        return np.moveaxis(E, (-2, -1), (0, 1))


def christoffel_jet(chart: MetricChart, xj):
    """Christoffel symbols as one jet, one order below the metric entries.

    Coefficients have shape (K, k, i, j, ...batch) and hold
    Gamma^k_ij = g^kl (d_i g_lj + d_j g_li - d_l g_ij) / 2 at the seed
    variables ``xj``.  This is the only derivation of the symbols: values,
    gradients and higher jets are all read off it.
    """
    g = chart.metric_jet(xj)
    dg = np.stack([nk.derivative_nd(g, a).coef for a in range(chart.dim)],
                  axis=1)                                # d_a g_ij at [:, a, i, j]
    sym = (np.einsum('Kilj...->Klij...', dg) + np.einsum('Kjli...->Klij...', dg)
           - dg)
    ginv = nk.jet_inv(nk.truncate(g, g.order - 1))
    return 0.5 * nk.jet_matmul(ginv, Jet(g.nvars, g.order - 1, sym))


def christoffel_at(chart: MetricChart, x):
    """Christoffel symbols, shape (n, n, n, ...batch), index order [k, i, j]."""
    return christoffel_jet(chart, Jet.variables(np.asarray(x, dtype=float),
                                                1)).value


def christoffel_and_grad(chart: MetricChart, x):
    """(Gamma, dGamma) with dGamma[a,k,i,j] = d Gamma^k_ij / d x_a."""
    gamma = christoffel_jet(chart, Jet.variables(np.asarray(x, dtype=float), 2))
    return gamma.value, gamma.grad()


def pullback_metric(surface) -> MetricChart:
    """First fundamental form of a patch as a 2D metric chart."""

    def gfn(xj):
        uj, vj = xj
        # one jet order is spent on d/du, d/dv of the embedding, so the
        # entries top out one below the jet capacity
        m = min(uj.order, nk.MAX_ORDER - 1)
        uv = np.stack([np.asarray(uj.value, dtype=float)
                       * np.ones_like(vj.value),
                       np.asarray(vj.value, dtype=float)
                       * np.ones_like(uj.value)])
        bu, bv = Jet.variables(uv, m + 1)
        r = [nk.as_jet(c, bu) for c in surface._fn(bu, bv)]
        # the entries are jets in seed variables at the chart's point, the
        # same variables as xj truncated to order m
        basis = ([nk.derivative_nd(c, 0) for c in r],
                 [nk.derivative_nd(c, 1) for c in r])
        return [[nk.vdot(basis[i], basis[j]) for j in range(2)]
                for i in range(2)]

    return MetricChart(2, surface.domain, gfn,
                       provenance="pullback-from-patch",
                       periods=surface.periods,
                       name=surface.name or "pullback")


def christoffel_embedded(surface, uv):
    """Christoffel symbols of a patch from ambient second derivatives.

    Independent of the metric-derivative formula: solves the tangential
    part of r_ij = Gamma^1_ij r_1 + Gamma^2_ij r_2 + q_ij n through its
    2x2 normal equations.  Used as a cross-check oracle for
    :func:`christoffel_at` on pullback charts.
    """
    js = surface.jets(float(uv[0]), float(uv[1]), order=2)
    r = np.array([[c.partial(a) for c in js] for a in ((1, 0), (0, 1))])
    rdd = np.array([[[c.partial((2 - i - j, i + j)) for c in js]
                     for j in range(2)] for i in range(2)])
    return np.linalg.solve(r @ r.T, np.einsum('la,ija->lij', r, rdd)
                           .reshape(2, 4)).reshape(2, 2, 2)


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------


@dataclass
class GeodesicPath:
    """A traced geodesic with dense output.

    ``ts`` is arc length (the trace normalizes to unit speed), ``xs`` and
    ``vs`` are coordinates and coordinate velocities at the accepted nodes
    (plus the exit point after a domain exit).  ``trajectory`` is the
    solver's own dense output; after a domain exit it may run past
    ``length``, so it is read on [0, length] only.
    """

    chart: MetricChart
    ts: np.ndarray
    xs: np.ndarray
    vs: np.ndarray
    length: float
    reason: str
    trajectory: nk.Trajectory

    @property
    def start(self):
        return self.xs[0]

    @property
    def end(self):
        return self.xs[-1]

    @property
    def end_velocity(self):
        return self.vs[-1]

    def position(self, t):
        y = self.trajectory.eval(t)
        return y[..., : self.chart.dim]

    def velocity(self, t):
        y = self.trajectory.eval(t)
        return y[..., self.chart.dim: 2 * self.chart.dim]

    def speed_drift(self, samples=64):
        """Max relative drift of g(x', x') along the path."""
        ts = np.linspace(self.ts[0], self.ts[-1], samples)
        y = self.trajectory.eval(ts)
        n = self.chart.dim
        x, v = y[:, :n].T, y[:, n:2 * n].T
        g = self.chart.g_at(x)
        sq = np.einsum('ij...,i...,j...->...', g, v, v)
        return float(np.abs(sq - sq[0]).max() / abs(sq[0]))


def _geodesic_rhs(chart: MetricChart, lanes: int):
    n = chart.dim

    def rhs(t, y):
        z = y.reshape(lanes, 2, n)
        x = np.ascontiguousarray(z[:, 0, :].T)
        v = np.ascontiguousarray(z[:, 1, :].T)
        inside = chart.contains(x, margin=-1e-9)
        gamma = christoffel_at(chart, x)
        acc = -np.einsum('kij...,i...,j...->k...', gamma, v, v)
        out = np.empty_like(z)
        out[:, 0, :] = v.T
        out[:, 1, :] = np.where(inside[:, None], acc.T, np.nan)
        return out.ravel()

    return rhs


def g_norm(chart: MetricChart, x, v):
    g = chart.g_at(np.asarray(x, dtype=float))
    v = np.asarray(v, dtype=float)
    return float(np.sqrt(np.einsum('ij,i,j->', g, v, v)))


def geodesic_trace(chart: MetricChart, x0, v0, length, rtol=1e-10,
                   atol=1e-12) -> GeodesicPath:
    """Trace the unit-speed geodesic from x0 in direction v0 for ``length``.

    The initial velocity is normalized in g, so the parameter is arc
    length.  If the trace leaves the coordinate box the path is truncated
    at the last state inside and marked with reason "domain-exit".
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if not chart.contains(x0[:, None])[0]:
        raise PreconditionError("geodesic start point lies outside the chart")
    nrm = g_norm(chart, x0, v0)
    if nrm <= 0 or not np.isfinite(nrm):
        raise PreconditionError("initial velocity must have positive g-norm")
    v0 = v0 / nrm
    n = chart.dim
    y0 = np.concatenate([x0, v0])
    rhs = _geodesic_rhs(chart, 1)
    reason = "completed"
    try:
        traj = nk.integrate_ode(nk.OdeProblem(rhs, y0, (0.0, float(length)),
                                              rtol, atol))
    except nk.StepUnderflowError as e:
        if not e.nan_seen:
            raise
        traj = e.trajectory
        reason = "domain-exit"

    ts, ys = traj.ts, traj.ys
    inside = chart.contains(ys[:, :n].T)
    if not inside.all():
        first_out = int(np.argmax(~inside))
        t_lo = traj.ts[max(first_out - 1, 0)]
        t_hi = traj.ts[first_out]
        for _ in range(60):
            mid = 0.5 * (t_lo + t_hi)
            if chart.contains(traj.eval(mid)[:n, None])[0]:
                t_lo = mid
            else:
                t_hi = mid
        keep = traj.ts <= t_lo
        ts = np.append(traj.ts[keep], t_lo)
        ys = np.vstack([traj.ys[keep], traj.eval(t_lo)])
        reason = "domain-exit"

    return GeodesicPath(chart, ts, ys[:, :n], ys[:, n:], float(ts[-1]),
                        reason, traj)


def exp_map(chart: MetricChart, P, u):
    """Endpoint of the geodesic with initial velocity u at parameter 1."""
    P = np.asarray(P, dtype=float)
    u = np.asarray(u, dtype=float)
    nrm = g_norm(chart, P, u)
    if nrm == 0.0:
        return P.copy()
    path = geodesic_trace(chart, P, u, nrm)
    if path.reason != "completed":
        raise DomainExitError("geodesic left the chart before parameter 1",
                              path)
    return path.end


def _exp_batch(chart: MetricChart, P, U, rtol=1e-10, atol=1e-12):
    """Integrate exp_P(t U) for a batch of velocities U (n, L), t in [0,1].

    ``P`` is one base point (n,) or one per lane (n, L).  Returns the flat
    trajectory; callers reshape states as (L, 2, n).
    """
    n = chart.dim
    L = U.shape[1]
    y0 = np.stack([np.broadcast_to(np.asarray(P, dtype=float).T, (L, n)),
                   np.ascontiguousarray(U.T)], axis=1).ravel()
    rhs = _geodesic_rhs(chart, L)
    return nk.integrate_ode(nk.OdeProblem(rhs, y0, (0.0, 1.0), rtol, atol))


def _variational_rhs(chart: MetricChart, lanes: int, ncols: int,
                     freeze=False):
    """RHS for geodesics carrying d(exp)/d(parameters) columns.

    State per lane: x (n), v (n), J (n x ncols), Jdot (n x ncols) where J
    solves the linearized geodesic equation along the lane.  With
    ``freeze`` a lane outside the box or with a non-finite derivative stops
    (zero derivative) instead of stalling the step all lanes share.
    """
    n = chart.dim

    def rhs(t, y):
        z = y.reshape(lanes, 2 + 2 * ncols, n)
        x = np.ascontiguousarray(z[:, 0, :].T)
        v = np.ascontiguousarray(z[:, 1, :].T)
        J = np.moveaxis(z[:, 2:2 + ncols, :], 0, -1)        # (ncols, n, L)
        Jd = np.moveaxis(z[:, 2 + ncols:, :], 0, -1)
        gamma, dgamma = christoffel_and_grad(chart, x)
        acc = -np.einsum('kij...,i...,j...->k...', gamma, v, v)
        # linearized: Jdd^k = -dGamma^k_ij/dx_a J^a v^i v^j - 2 Gamma^k_ij v^i Jd^j
        Jdd = (-np.einsum('akijL,caL,iL,jL->ckL', dgamma, J, v, v)
               - 2.0 * np.einsum('kijL,iL,cjL->ckL', gamma, v, Jd))
        out = np.empty_like(z)
        out[:, 0, :] = v.T
        out[:, 1, :] = acc.T
        out[:, 2:2 + ncols, :] = np.moveaxis(Jd, -1, 0)
        out[:, 2 + ncols:, :] = np.moveaxis(Jdd, -1, 0)
        if freeze:
            out[~(chart.contains(x, margin=-1e-9)
                  & np.isfinite(out).all(axis=(1, 2)))] = 0.0
        return out.ravel()

    return rhs


def _exp_batch_variational(chart: MetricChart, P, U, dU, rtol=1e-10,
                           atol=1e-12, shooting=False):
    """Like :func:`_exp_batch` but carrying J = dx/d(param_c) columns.

    ``dU`` has shape (ncols, n, L): derivative of the initial velocity with
    respect to each variation parameter.  J(0) = 0, Jdot(0) = dU.  With
    ``shooting`` lanes freeze outside the box and the error norm covers
    x and v only, for callers that read lane endpoints and columns.
    """
    n = chart.dim
    ncols, _, L = dU.shape
    z0 = np.zeros((L, 2 + 2 * ncols, n))
    z0[:, 0, :] = np.asarray(P, dtype=float).T
    z0[:, 1, :] = U.T
    z0[:, 2 + ncols:, :] = np.moveaxis(dU, -1, 0)
    norm = np.flatnonzero(np.indices(z0.shape)[1] < 2) if shooting else None
    return nk.integrate_ode(nk.OdeProblem(
        _variational_rhs(chart, L, ncols, freeze=shooting), z0.ravel(),
        (0.0, 1.0), rtol, atol, error_index=norm))


# ---------------------------------------------------------------------------
# parallel transport and holonomy
# ---------------------------------------------------------------------------


@dataclass
class TransportResult:
    """Vectors parallel-transported along a path.

    ``vectors`` holds the transported columns at each sample; ``final`` is
    the last sample.  ``gram_drift`` is the max relative drift of the
    g-Gram matrix of the transported columns, which transport should
    preserve.
    """

    chart: MetricChart
    ts: np.ndarray
    positions: np.ndarray
    vectors: np.ndarray          # (samples, n, ncols)
    final: np.ndarray            # (n, ncols)
    path_kind: str
    gram_drift: float


def _transport_gram_drift(chart, ts, xs, vecs):
    g = chart.g_at(xs.T)                       # (n, n, S)
    gram = np.einsum('ijS,Sia,Sjb->Sab', g, vecs, vecs)
    scale = max(np.abs(gram[0]).max(), 1e-300)
    return float(np.abs(gram - gram[0]).max() / scale)


def _segment_propagators(chart: MetricChart, P0, DQ, rtol=1e-10, atol=1e-12):
    """Transport maps of the coordinate segments p_s + t dq_s, t in [0, 1].

    Transport is linear in the transported vectors, so each segment's
    propagator Phi_s (started from the identity) is independent of the
    others, and all S segments integrate as the lanes of one batched solve
    with one :func:`christoffel_at` call over every lane per RHS.  The
    solver's error norm is an RMS over the whole state, so the tolerances
    are divided by sqrt(S): that bounds each lane's own RMS error by
    ``rtol``/``atol``, as if it had been solved alone.

    ``P0`` and ``DQ`` have shape (S, n).  Returns the shared mesh ``taus``
    (T,) and ``Phi`` (T, S, n, n), Phi[m, s] = Phi_s(taus[m]).
    """
    n = chart.dim
    S = len(P0)
    x0, dq = np.ascontiguousarray(P0.T), np.ascontiguousarray(DQ.T)   # (n, S)

    def rhs(t, y):
        gamma = christoffel_at(chart, x0 + t * dq)
        # row c of lane s holds column c of Phi_s
        return -np.einsum('kijS,iS,Scj->Sck', gamma, dq,
                          y.reshape(S, n, n)).ravel()

    y0 = np.tile(np.eye(n), (S, 1, 1)).ravel()
    scale = math.sqrt(S)
    traj = nk.integrate_ode(nk.OdeProblem(rhs, y0, (0.0, 1.0), rtol / scale,
                                          atol / scale))
    return traj.ts, traj.ys.reshape(len(traj.ts), S, n, n).swapaxes(-2, -1)


def parallel_transport(chart: MetricChart, path, a0, rtol=1e-10,
                       atol=1e-12) -> TransportResult:
    """Transport vector(s) a0 along a geodesic path or a coordinate polyline.

    ``path`` is either a :class:`GeodesicPath` (the geodesic is re-run as an
    augmented system so positions and vectors share one error control) or an
    (M, n) array of waypoints joined by straight coordinate segments.
    ``a0`` may be a single vector (n,) or a matrix of columns (n, k).

    A polyline is one solve: :func:`_segment_propagators` integrates every
    segment's propagator Phi_s as a lane of one batch (each lane held to
    ``rtol``/``atol``), and the vectors chain as A_{s+1} = Phi_s(1) A_s.
    The samples are the shared mesh on every segment, at times s + tau, with
    vectors Phi_s(tau) A_s.  Waypoints outside the chart's box raise
    :class:`PreconditionError` (the box is convex, so the segments stay
    inside too).
    """
    a0 = np.asarray(a0, dtype=float)
    single = a0.ndim == 1
    A0 = a0[:, None] if single else a0
    n = chart.dim
    k = A0.shape[1]

    if isinstance(path, GeodesicPath):
        x0, v0 = path.xs[0], path.vs[0]

        def rhs(t, y):
            z = y.reshape(2 + k, n)
            x, v = z[0], z[1]
            gamma = christoffel_at(chart, x[:, None])[..., 0]
            acc = -np.einsum('kij,i,j->k', gamma, v, v)
            dA = -np.einsum('kij,i,cj->ck', gamma, v, z[2:])
            return np.concatenate([v, acc, dA.ravel()])

        y0 = np.concatenate([x0, v0, A0.T.ravel()])
        traj = nk.integrate_ode(nk.OdeProblem(rhs, y0,
                                              (0.0, path.length), rtol, atol))
        ts = traj.ts
        xs = traj.ys[:, :n]
        vecs = traj.ys[:, 2 * n:].reshape(len(ts), k, n).swapaxes(1, 2)
        kind = "geodesic"
    else:
        pts = np.asarray(path, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != n or len(pts) < 2:
            raise PreconditionError("polyline must be an (M, n) array, M >= 2")
        outside = ~chart.contains(pts.T)
        if outside.any():
            i = int(np.argmax(outside))
            at = ",".join(f"{c:.4g}" for c in pts[i])
            raise PreconditionError(
                f"polyline waypoint {i} ({at}) lies outside the chart domain")
        dq = np.diff(pts, axis=0)
        taus, Phi = _segment_propagators(chart, pts[:-1], dq, rtol, atol)
        A = [A0]
        for P in Phi[-1]:
            A.append(P @ A[-1])
        vecs = np.einsum('msij,sjc->smic', Phi[1:], np.stack(A[:-1]))
        ts = np.concatenate([[0.0], (np.arange(len(dq))[:, None]
                                     + taus[1:]).ravel()])
        xs = np.vstack([pts[:1], (pts[:-1, None] + taus[1:, None] * dq[:, None])
                        .reshape(-1, n)])
        vecs = np.concatenate([A0[None], vecs.reshape(-1, n, k)])
        kind = "polyline"

    drift = _transport_gram_drift(chart, ts, xs, vecs)
    final = vecs[-1]
    return TransportResult(chart, ts, xs, vecs,
                           final[:, 0] if single else final, kind, drift)


def transport_chain(chart: MetricChart, paths: Sequence[GeodesicPath], a0):
    """Transport a0 along consecutive geodesic paths; returns final vector(s)."""
    a = np.asarray(a0, dtype=float)
    drift = 0.0
    for p in paths:
        res = parallel_transport(chart, p, a)
        a = res.final
        drift = max(drift, res.gram_drift)
    return a, drift


@dataclass
class HolonomyResult:
    matrix: np.ndarray           # in the g-orthonormal basis at the basepoint
    angle: Optional[float]       # rotation angle for 2D charts
    basis: np.ndarray            # columns: the orthonormal basis used
    orthogonality_residual: float
    gram_drift: float


def _closure_defect(chart: MetricChart, a, b):
    d = np.abs(np.asarray(b, dtype=float) - np.asarray(a, dtype=float))
    for i, per in enumerate(chart.periods):
        if per is not None:
            d[i] = min(d[i] % per, per - d[i] % per)
    return float(d.max())


def holonomy(chart: MetricChart, loop, closure_tol=1e-9) -> HolonomyResult:
    """Parallel transport around a closed coordinate polyline.

    The loop must close within ``closure_tol`` (coordinates compared modulo
    the chart's periods).  The returned matrix expresses the transport in a
    positively oriented g-orthonormal basis at the basepoint; for 2D charts
    the rotation angle atan2(M[1,0], M[0,0]) is included.  A loop of
    geodesic sides can be passed as a list of :class:`GeodesicPath`.
    """
    if isinstance(loop, (list, tuple)) and loop and isinstance(loop[0],
                                                               GeodesicPath):
        paths = list(loop)
        base = paths[0].xs[0]
        endpt = paths[-1].xs[-1]
        if _closure_defect(chart, base, endpt) > closure_tol:
            raise PreconditionError("geodesic loop does not close")
        E = chart.orthonormal_basis(base)
        final, drift = transport_chain(chart, paths, E)
    else:
        pts = np.asarray(loop, dtype=float)
        if _closure_defect(chart, pts[0], pts[-1]) > closure_tol:
            raise PreconditionError("loop is not closed in chart coordinates")
        E = chart.orthonormal_basis(pts[0])
        res = parallel_transport(chart, pts, E)
        final, drift = res.final, res.gram_drift
    M = np.linalg.solve(E, final)
    orth = float(np.abs(M.T @ M - np.eye(chart.dim)).max())
    ang = float(math.atan2(M[1, 0], M[0, 0])) if chart.dim == 2 else None
    return HolonomyResult(M, ang, E, orth, drift)


# ---------------------------------------------------------------------------
# geodesic circles, disks, and the scalar-curvature limit
# ---------------------------------------------------------------------------


def _polygon_length(chart: MetricChart, pts):
    """Metric length of the closed polygon through pts (L, n), midpoint rule."""
    nxt = np.roll(pts, -1, axis=0)
    mid = 0.5 * (pts + nxt)
    d = nxt - pts
    g = chart.g_at(mid.T)
    seg = np.sqrt(np.einsum('ijL,Li,Lj->L', g, d, d))
    return float(seg.sum())


def _circle_lengths(chart: MetricChart, P, radii, M, frame):
    """Geodesic-circle lengths at the given radii with M direction samples
    in the plane of the g-orthonormal ``frame`` (n, 2).

    One batched integration serves every radius: lanes are directions and
    circle points are read off the solver's dense output at t = r/r_max.
    """
    P = np.asarray(P, dtype=float)
    n = chart.dim
    rmax = max(radii)
    phis = 2.0 * math.pi * np.arange(M) / M
    dirs = np.cos(phis) * frame[:, :1] + np.sin(phis) * frame[:, 1:2]  # (n, M)
    traj = _exp_batch(chart, P, rmax * dirs)
    out = {}
    for r in radii:
        pts = traj.eval(float(r) / rmax).reshape(M, 2, n)[:, 0, :]
        out[float(r)] = _polygon_length(chart, pts)
    return out


def geodesic_circle_lengths(chart: MetricChart, P, radii, samples=256,
                            frame=None):
    """Richardson-refined circle lengths L(r) for each radius.

    The circles lie in exp_P of the plane spanned by the g-orthonormal
    columns of ``frame`` (n, 2), by default the first two columns of
    :meth:`MetricChart.orthonormal_basis`.  Every radius is read from the
    same two geodesic fans (M and 2M directions out to the largest radius).
    Returns (lengths dict, error dict): the polygon law has only even
    powers of 1/M, so one doubling of the direction count removes the
    leading term and leaves ~ (1/M)^4.
    """
    radii = [float(r) for r in radii]
    if frame is None:
        frame = chart.orthonormal_basis(np.asarray(P, dtype=float))[:, :2]
    lo = _circle_lengths(chart, P, radii, samples, frame)
    hi = _circle_lengths(chart, P, radii, 2 * samples, frame)
    out, err = {}, {}
    for r in radii:
        out[r] = (4.0 * hi[r] - lo[r]) / 3.0
        err[r] = abs(hi[r] - lo[r]) / 3.0
    return out, err


def circles_and_disks(chart: MetricChart, P, radii, samples=256,
                      radial_nodes=24):
    """Circle lengths L(R), disk areas S(R) and the lengths' error
    estimates for each R in ``radii``, as three dicts keyed by R.

    S(R) integrates L(rho) over [0, R] with ``radial_nodes`` Gauss-Legendre
    nodes; every length comes from one :func:`geodesic_circle_lengths`
    call over the union of the radii and their nodes.
    """
    radii = [float(R) for R in radii]
    rules = {R: nk.gauss_legendre(radial_nodes, 0.0, R) for R in radii}
    all_r = sorted(set(radii) | set(float(x) for xs, _ in rules.values()
                                    for x in xs))
    lengths, errors = geodesic_circle_lengths(chart, P, all_r,
                                              samples=samples)
    areas = {R: float(sum(w * lengths[float(x)] for x, w in zip(xs, ws)))
             for R, (xs, ws) in rules.items()}
    return ({R: lengths[R] for R in radii}, areas,
            {R: errors[R] for R in radii})


@dataclass
class CircleResult:
    """Geodesic circle circumference and disk area with diagnostics."""

    radius: float
    length: float
    disk_area: float
    length_error: float
    ds_dr_residual: float
    warnings: list


def geodesic_circle(chart: MetricChart, P, R, samples=256,
                    radial_nodes=24) -> CircleResult:
    """Circumference L(R) and disk area S(R) of a geodesic circle.

    L comes from Richardson-refined polygon lengths over direction samples;
    S integrates L(rho) over [0, R] with Gauss-Legendre nodes read from the
    same batched geodesic fan.  The derivative law S'(R) = L(R) is checked
    by central differences and reported as ``ds_dr_residual``.
    """
    if chart.dim != 2:
        raise PreconditionError("geodesic circles are defined on 2D charts")
    R = float(R)
    if R <= 0:
        raise PreconditionError("radius must be positive")
    delta = 1e-3 * R
    lengths, areas, errors = circles_and_disks(
        chart, P, (R - delta, R, R + delta), samples, radial_nodes)
    dS = (areas[R + delta] - areas[R - delta]) / (2 * delta)
    resid = abs(dS - lengths[R]) / max(abs(lengths[R]), 1e-300)
    warnings = []
    if resid > 1e-5:
        warnings.append(f"dS/dR check off by {resid:.3g} relative")
    return CircleResult(R, lengths[R], areas[R], errors[R], float(resid),
                        warnings)


@dataclass
class TauEstimate:
    """Limit-based scalar curvature with route diagnostics.

    ``tau`` is the headline estimate (circle route for 2D, sphere-area
    route for 3D).  For 2D charts ``tau_circle`` and ``tau_disk`` hold the
    two independent comparison limits, which must agree within the combined
    ``error``.
    """

    tau: float
    error: float
    tau_circle: Optional[float]
    tau_disk: Optional[float]
    radii: tuple
    monotone: bool
    warnings: list

    @property
    def routes_agree(self):
        if self.tau_circle is None or self.tau_disk is None:
            return True
        return abs(self.tau_circle - self.tau_disk) <= max(self.error, 1e-9)


def _shrink_radii(chart: MetricChart, P, r0):
    """Scale the ladder down until the largest circle stays in the domain."""
    P = np.asarray(P, dtype=float)
    for _ in range(8):
        try:
            E = chart.orthonormal_basis(P)
            probe = np.concatenate([E, -E], axis=1) * r0
            for c in range(probe.shape[1]):
                exp_map(chart, P, probe[:, c])
            return r0
        except (DomainExitError, nk.NumericalError):
            r0 *= 0.5
    raise PreconditionError("no usable circle radius inside the domain")


def scalar_curvature_estimate(chart: MetricChart, P, r0=0.2, rungs=3,
                              samples=256) -> TauEstimate:
    """Scalar curvature at P from comparison limits of circles or spheres.

    For 2D charts: both 6 (2 pi R - L(R)) / (pi R^3) and the disk variant
    24 (pi R^2 - S(R)) / (pi R^4) are Richardson-extrapolated over the
    halving ladder {r0, r0/2, ...}; the circle route is the headline value
    and the two routes must agree within the combined error.  For 3D
    charts the geodesic-sphere area defect 6 (4 pi R^2 - S(R)) /
    ((4 pi / 3) R^4) is used instead.
    """
    P = np.asarray(P, dtype=float)
    r0 = _shrink_radii(chart, P, float(r0))
    ladder = [r0 / 2 ** k for k in range(rungs)]
    warnings = []

    if chart.dim == 2:
        lengths, areas, _ = circles_and_disks(chart, P, ladder, samples)
        d_circle, d_disk = [], []
        for R in ladder:
            L, S = lengths[R], areas[R]
            d_circle.append(6.0 * (2 * math.pi * R - L) / (math.pi * R ** 3))
            d_disk.append(24.0 * (math.pi * R ** 2 - S) / (math.pi * R ** 4))
        rc = nk.richardson(nk.ExtrapolationLadder(np.array(ladder),
                                                  np.array(d_circle), p=2))
        rd = nk.richardson(nk.ExtrapolationLadder(np.array(ladder),
                                                  np.array(d_disk), p=2))
        err = rc.error + rd.error + abs(rc.value - rd.value)
        if not (rc.monotone and rd.monotone):
            warnings.append("extrapolation ladder not monotone")
        return TauEstimate(rc.value, float(err), rc.value, rd.value,
                           tuple(ladder), rc.monotone and rd.monotone,
                           warnings)

    # 3D: geodesic-sphere area defect
    areas = _geodesic_sphere_areas(chart, P, ladder)
    defect = [6.0 * (4 * math.pi * R ** 2 - areas[R])
              / (MetricChart.BALL_VOLUME[3] * R ** 4) for R in ladder]
    rr = nk.richardson(nk.ExtrapolationLadder(np.array(ladder),
                                              np.array(defect), p=2))
    if not rr.monotone:
        warnings.append("extrapolation ladder not monotone")
    return TauEstimate(rr.value, float(rr.error), None, None, tuple(ladder),
                       rr.monotone, warnings)


def _geodesic_sphere_areas(chart: MetricChart, P, radii, n_theta=24,
                           n_phi=48):
    """Areas of geodesic spheres via one variational geodesic fan.

    Directions are a Gauss-Legendre (polar) x trapezoid (azimuth) grid on
    the unit g-sphere; the surface element uses d(exp)/d(direction) from
    the variational state, so no differencing across lanes is needed.
    """
    P = np.asarray(P, dtype=float)
    E = chart.orthonormal_basis(P)
    rmax = max(radii)
    thetas, tw = nk.gauss_legendre(n_theta, 0.0, math.pi)
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    pw = 2.0 * math.pi / n_phi
    T, F = np.meshgrid(thetas, phis, indexing="ij")
    Tf, Ff = T.ravel(), F.ravel()
    u = np.stack([np.sin(Tf) * np.cos(Ff), np.sin(Tf) * np.sin(Ff),
                  np.cos(Tf)])
    du_dT = np.stack([np.cos(Tf) * np.cos(Ff), np.cos(Tf) * np.sin(Ff),
                      -np.sin(Tf)])
    du_dF = np.stack([-np.sin(Tf) * np.sin(Ff), np.sin(Tf) * np.cos(Ff),
                      np.zeros_like(Tf)])
    U = rmax * (E @ u)
    dU = np.stack([rmax * (E @ du_dT), rmax * (E @ du_dF)])
    traj = _exp_batch_variational(chart, P, U, dU)
    lanes = U.shape[1]
    n = chart.dim
    W = (tw[:, None] * np.full(n_phi, pw)[None, :]).ravel()
    out = {}
    for r in radii:
        z = traj.eval(float(r) / rmax).reshape(lanes, 2 + 2 * 2, n)
        x = z[:, 0, :].T
        J = np.moveaxis(z[:, 2:4, :], 0, -1)        # (2, n, lanes)
        g = chart.g_at(x)
        a = np.einsum('cnL,nmL,dmL->cdL', J, g, J)
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        out[float(r)] = float(np.sum(W * np.sqrt(np.maximum(det, 0.0))))
    return out


def plane_scalar_estimate(chart: MetricChart, P, u, v, r0=0.2, rungs=3,
                          samples=256):
    """Scalar curvature of the geodesic surface spanned by u, v at P.

    Radial geodesics of the ambient chart lying in exp(span(u, v)) are
    geodesics of that surface, so its circle-length defect is computed
    with the same machinery restricted to directions in the plane.
    Returns (tau, error).
    """
    P = np.asarray(P, dtype=float)
    g = chart.g_at(P)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    f1 = u / math.sqrt(u @ g @ u)
    w = v - (f1 @ g @ v) * f1
    nv = math.sqrt(w @ g @ w)
    if nv <= 1e-12 * math.sqrt(float(v @ g @ v)):
        raise PreconditionError("directions do not span a plane")
    f2 = w / nv
    ladder = [float(r0) / 2 ** k for k in range(rungs)]
    lengths, _ = geodesic_circle_lengths(chart, P, ladder, samples,
                                         np.stack([f1, f2], axis=1))
    d = [6.0 * (2 * math.pi * r - lengths[r]) / (math.pi * r ** 3)
         for r in ladder]
    rr = nk.richardson(nk.ExtrapolationLadder(np.array(ladder), np.array(d),
                                              p=2))
    return rr.value, rr.error


# ---------------------------------------------------------------------------
# distance by shooting
# ---------------------------------------------------------------------------


def _nearest_representatives(chart: MetricChart, P, Q):
    Q = Q.copy()
    for i, per in enumerate(chart.periods):
        if per is not None:
            Q[:, i] -= np.round((Q[:, i] - P[:, i]) / per) * per
    return Q


@dataclass
class DistanceBatch:
    """Per pair: the distance (NaN if shooting failed), and the initial
    coordinate velocity (N, n) and endpoint miss (max-norm) of the
    converged shot, else of the least-miss shot (NaN, inf if none)."""

    distance: np.ndarray
    velocity: np.ndarray
    miss: np.ndarray


_HALVINGS = 0.5 ** np.arange(1, 7)          # backtracking step fractions
_RETRY_TURNS = (0.15, -0.15, 0.4, -0.4)     # radians
_RTOLS = np.array([1e-6, 1e-8, 1e-10])      # shot rtol (atol 1e-2 rtol)


def _shoot(chart, P, Q, E, first, pair, tol, max_iter, out):
    """Newton shooting for tasks in lockstep, one solve per iterate.

    Task t shoots pair ``pair[t]`` from w = 0 (endpoint P) with the step
    ``first[t]``.  A step that lowers the miss is taken, and its Jacobi
    columns give the next Newton step; one that does not is retried at
    1/2 ... 1/64 as lanes of the next solve, and if none of those helps
    the task stops.  Inexact Newton: a task asks for the loosest of
    ``_RTOLS`` at or below 1e-2 miss^2 and only a shot at the last one can
    converge.  Each solve runs the tasks that ask for the loosest one
    present, so the dear tight solves come last and carry every pair.
    """
    n = chart.dim
    w = np.zeros((len(pair), n))
    miss = np.abs(P[pair] - Q[pair]).max(axis=1)
    step, iters = np.array(first, dtype=float), np.zeros(len(pair), int)
    halving, live = np.zeros(len(pair), bool), np.ones(len(pair), bool)
    while True:
        live &= np.isnan(out.distance[pair]) & (iters < max_iter)
        if not live.any():
            return
        level = np.minimum(np.searchsorted(-_RTOLS, -1e-2 * miss ** 2),
                           len(_RTOLS) - 1)
        tasks = np.flatnonzero(live & (level == level[live].min()))
        rtol = _RTOLS[level[tasks[0]]]
        iters[tasks] += 1
        lanes = np.repeat(tasks, np.where(halving[tasks], len(_HALVINGS), 1))
        W = w[lanes] + step[lanes] * np.concatenate(
            [_HALVINGS if halving[t] else [1.0] for t in tasks])[:, None]
        p, El = pair[lanes], E[pair[lanes]]
        try:
            z = _exp_batch_variational(
                chart, P[p].T, np.einsum('Lic,Lc->iL', El, W),
                np.transpose(El, (2, 1, 0)), rtol, 1e-2 * rtol,
                shooting=True).final
        except nk.StepUnderflowError:
            z = np.full(len(lanes) * (2 + 2 * n) * n, np.nan)
        z = z.reshape(len(lanes), 2 + 2 * n, n)
        X, Jac = z[:, 0], np.swapaxes(z[:, 2:2 + n], 1, 2)   # columns dx/dw_c
        lane_miss = np.abs(X - Q[p]).max(axis=1)
        lane_miss[~(chart.contains(X.T) & np.isfinite(Jac).all(axis=(1, 2))
                    & np.isfinite(lane_miss))] = np.inf
        for t in tasks:
            k = np.flatnonzero(lanes == t)[np.argmin(lane_miss[lanes == t])]
            m, q = lane_miss[k], pair[t]
            if not np.isnan(out.distance[q]):
                continue                         # a sibling task converged
            if m <= tol[q] and rtol == _RTOLS[-1]:
                out.distance[q] = np.linalg.norm(W[k])
            if m < out.miss[q] or not np.isnan(out.distance[q]):
                out.miss[q], out.velocity[q] = m, El[k] @ W[k]
            if m < miss[t]:
                w[t], miss[t], halving[t] = W[k], m, False
                try:
                    step[t] = np.linalg.solve(Jac[k], Q[q] - X[k])
                except np.linalg.LinAlgError:
                    live[t] = False
            else:
                live[t], halving[t] = not halving[t], True


def geodesic_distances(chart: MetricChart, Ps, Qs, tol=1e-10, max_iter=64):
    """Geodesic distances of (P, Q) pairs, (N, n) each: a DistanceBatch.

    The unknown is w, the initial velocity in the g-orthonormal frame E at
    P; the distance is |w| once exp_P(E w) meets Q (nearest representative
    on periodic charts) within ``max(tol, 1e-12 |Q - P|)`` per coordinate.
    The Jacobian d exp_P(E w)/dw is exact: Jacobi fields with J(0) = 0,
    J'(0) = E, integrated with each geodesic (do Carmo, *Riemannian
    Geometry*, ch. 5).  All pairs iterate in lockstep (:func:`_shoot`), each
    start for at most ``max_iter`` solves.  The first shot is the Newton
    step from w = 0, where the Jacobian is E: w = E^-1 (Q - P); unconverged
    pairs retry, as one batch, from it turned by ``_RETRY_TURNS`` about each
    normal axis.  Pairs with an end outside the box, or that fail, read NaN.
    """
    P = np.asarray(Ps, dtype=float).reshape(-1, chart.dim)
    Q = _nearest_representatives(
        chart, P, np.asarray(Qs, dtype=float).reshape(P.shape))
    N, n = P.shape
    out = DistanceBatch(np.full(N, np.nan), np.full((N, n), np.nan),
                        np.full(N, np.inf))
    todo = np.flatnonzero(chart.contains(P.T) & chart.contains(Q.T))
    if not todo.size:
        return out
    E = np.full((N, n, n), np.nan)
    E[todo] = np.moveaxis(chart.orthonormal_basis(P[todo].T), -1, 0)
    gap = np.abs(Q - P).max(axis=1)
    tol = np.maximum(tol, 1e-12 * np.maximum(gap, 1e-6))
    aim = np.linalg.solve(E[todo], (Q - P)[todo, :, None])[..., 0]
    _shoot(chart, P, Q, E, aim, todo, tol, max_iter, out)
    retry = np.isnan(out.distance[todo])
    turned = [math.cos(a) * w + math.sin(a) * np.linalg.norm(w) * e
              for w in aim[retry] for a in _RETRY_TURNS
              for e in np.linalg.svd(w[None])[2][1:]]
    if turned:
        _shoot(chart, P, Q, E, turned,
               np.repeat(todo[retry], len(_RETRY_TURNS) * (n - 1)), tol,
               max_iter, out)
    return out


def geodesic_distance(chart: MetricChart, P, Q, tol=1e-10, max_iter=64):
    """Two-point geodesic distance: the one-pair :func:`geodesic_distances`.

    Raises :class:`PreconditionError` when P or Q lies outside the box, and
    :class:`NonConvergenceError` with the best miss (``residual``) and its
    initial coordinate velocity (``best``) when shooting fails.
    """
    P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    if not chart.contains(np.stack([P, Q], axis=1)).all():
        raise PreconditionError("distance end points must lie in the chart")
    res = geodesic_distances(chart, P[None], Q[None], tol, max_iter)
    d, best, m = res.distance[0], res.velocity[0], float(res.miss[0])
    if np.isnan(d):
        raise nk.NonConvergenceError(
            f"distance shooting did not converge (best miss {m:.3g})",
            best=best if np.isfinite(best).all() else None, residual=m)
    return float(d)
