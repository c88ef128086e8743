"""Intrinsic geometry over metric charts.

A :class:`MetricChart` is a coordinate box with a metric evaluator that
returns the whole metric as one matrix-valued jet per call: parsed charts,
every builtin metric among them, run a compiled program of
:mod:`curvatur.catalog`, and pullback charts contract the stacked tangent
jets of their patch.  The Christoffel symbols
have one derivation, :func:`christoffel_jet`: the metric jet is
differentiated and the symbols solved against it order by order, so they
come out as one jet, exact (within roundoff) rather than differenced.
Every consumer reads off that jet: :func:`christoffel_at` takes its value,
the variational equations the jet of Gamma^k_ij v^i that the same
derivation solves for a given velocity v, :func:`riemann_jet` builds the
curvature tensor as one jet from it, and the covariant calculus of
:mod:`curvatur.tensors` uses its higher coefficients.  On top of that sit
geodesics, the exponential map (with optional variational state for
derivatives of exp), parallel transport, holonomy, geodesic circles, the
comparison-limit scalar curvature, and two-point distance by shooting.

Each job is one batched solve: whole batches of geodesics integrate in one
flat ODE system with shared step control, which is what keeps the
limit-based estimators fast (circles, spheres, volume grids: one Jacobi fan
each, which is its own radius probe).  Transport has one rule: a path is
pieces on tau in [0, 1], polyline segments or geodesic sides, every piece's
transport map is one lane of a single solve, and the pieces are chained
afterwards; holonomy is that transport around a closed path.  Distance
shooting batches its pairs the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import numkit as nk
from .numkit import Jet, PreconditionError


class MetricChart:
    """A metric on a coordinate box in R^n, n in {2, 3}.

    Parameters
    ----------
    dim : int
    domain : sequence of (lo, hi) pairs, one per coordinate
    gfn : callable
        Receives a list of ``dim`` fresh coordinate jets (possibly batched)
        and returns the metric as one jet with coefficients
        (K, dim, dim, ...batch), written once per call.  Hand-written
        evaluators may return nested lists of jets and constants instead,
        which :meth:`metric_jet`, the chart's one evaluator boundary, stacks
        and checks once.  Entries must be symmetric.
    periods : tuple of float or None
        Period per coordinate for charts that close up (angles); used for
        loop-closure tests and distance representatives.
    name : str
    """

    def __init__(self, dim, domain, gfn, periods=None, name=""):
        if dim not in (2, 3):
            raise PreconditionError("charts support dimension 2 or 3")
        self.dim = dim
        self.domain = [(float(lo), float(hi)) for lo, hi in domain]
        if len(self.domain) != dim:
            raise PreconditionError("domain must provide one interval per axis")
        self._gfn = gfn
        self.periods = tuple(periods) if periods is not None else (None,) * dim
        self.name = name
        self._box = np.array([(-np.inf, np.inf) if p is not None else b
                              for p, b in zip(self.periods, self.domain)])
        self._bounds = {}

    def contains(self, x):
        """Whether the points x (n, ...batch) lie in the closed box
        (periodic axes never bound), shape (...batch)."""
        x = np.asarray(x, dtype=float)
        bounds = self._bounds.get(x.ndim)
        if bounds is None:     # a contiguous copy: strided views test slower
            bounds = self._bounds[x.ndim] = tuple(np.ascontiguousarray(
                self._box.T.reshape((2, self.dim) + (1,) * (x.ndim - 1))))
        lo, hi = bounds
        return ((x >= lo) & (x <= hi)).all(axis=0)

    def base_point(self, x):
        """The point x (n,) as a float array, refused with
        :class:`PreconditionError` outside the closed box: the check every
        estimator and oracle at a point makes before any fan, solve or
        metric read."""
        x = np.asarray(x, dtype=float)
        if not self.contains(x[:, None])[0]:
            raise PreconditionError("base point lies outside the chart")
        return x

    def metric_jet(self, xj):
        """The metric as one jet with coefficients (K, n, n, ...batch) at
        the seed variables ``xj`` (from :meth:`Jet.variables`)."""
        xj = list(xj)
        g = self._gfn(xj)
        if not isinstance(g, Jet):
            g = nk.jet_stack(g, xj[0])
        if g.coef.shape[1:3] != (self.dim, self.dim):
            raise PreconditionError(
                f"metric evaluator must return a {self.dim}x{self.dim} matrix")
        return g

    def metric_jets(self, x, order=1):
        """The metric jet of the given order at point(s) x.  Nothing in the
        library calls it; it stays as the patch point of the benchmark's
        traced run."""
        return self.metric_jet(Jet.variables(np.asarray(x, dtype=float), order))

    def g_at(self, x):
        """Metric matrix, shape (n, n, ...batch)."""
        return self.metric_jet(Jet.variables(np.asarray(x, dtype=float),
                                             0)).value

    def metric_arrays(self, x, order=1):
        """(g, dg[, d2g]) arrays; dg[k,i,j] = d g_ij / d x_k, batch axes last."""
        G = self.metric_jet(Jet.variables(np.asarray(x, dtype=float), order))
        if order == 1:
            return G.value, G.grad()
        return G.value, G.grad(), nk.gradient(nk.gradient(G)).value

    def orthonormal_basis(self, x):
        """Columns form a positively oriented g-orthonormal basis at x."""
        g = self.g_at(np.asarray(x, dtype=float))
        L = np.linalg.cholesky(np.moveaxis(g, (0, 1), (-2, -1)))
        E = np.swapaxes(np.linalg.inv(L), -2, -1)
        return np.moveaxis(E, (-2, -1), (0, 1))


@lru_cache(maxsize=None)
def _christoffel_tables(nvars: int, order: int):
    """For a metric jet of ``order``: per degree d = 2 .. order - 1 of the
    symbols its slot range (lo, hi) and Taylor triples (I, J, M), i != 0."""
    idx, _, (I, J, M), mask, _ = nk._index_space(nvars, order - 1)
    deg = np.array([sum(a) for a in idx])
    k = deg[np.nonzero(mask)[0]]                  # degree of each triple's k
    sel = [(k == d) & (I != 0) for d in range(2, order)]
    return tuple((*np.searchsorted(deg, (d, d + 1)), I[s], J[s],
                  M[deg == d][:, s]) for d, s in enumerate(sel, 2))


def christoffel_jet(chart: MetricChart, xj, v=None):
    """Christoffel symbols as one jet, one order below the metric entries.

    Coefficients have shape (K, k, i, j, ...batch) and hold Gamma^k_ij =
    g^kl S_lij, S_lij = (d_i g_lj + d_j g_li - d_l g_ij) / 2, at the seed
    variables ``xj``, solved from g Gamma = S degree by degree: Gamma_d =
    g_0^-1 (S_d - sum_{i != 0} g_i Gamma_j) (jet division; Griewank &
    Walther, Evaluating Derivatives, ch. 13).  Degree 1 is solved
    directly, as its only triples are (k, k, 0), so its known term is
    g_k Gamma_0; the Taylor tables serve degrees 2 and up, and a metric of
    order 2 or less (values, and the gradient the geodesic equations read)
    needs none.  This is the only derivation of the symbols: values,
    gradients and higher jets are all read off it.

    Given a vector field ``v`` (n, ...batch), constant in x, the jet is
    that of Gamma^k_ij v^i instead, coefficients (K, k, j, ...batch): the
    same division solves it against S(v)_lj = S_lij v^i = (d_v g_lj +
    d_j (g v)_l - d_l (g v)_j) / 2, a right-hand side n times smaller, with
    d_v g summed one axis at a time.
    """
    G = chart.metric_jet(xj)
    src, fac = nk._gradient_table(G.nvars, G.order)
    g = G.coef
    n = G.nvars
    if v is None:
        dg = nk._lower(g, src, fac)                  # d_a g_ij at [:, a, i, j]
        A = dg.swapaxes(1, 2)                        # d_i g_lj at [:, l, i, j]
        S = 0.5 * (A + A.swapaxes(2, 3) - dg)
    else:                       # S(v) at [:, l, j], its 1/2 folded into v
        v = 0.5 * v
        dgv = nk._lower(np.einsum('Kls...,s...->Kl...', g, v), src,
                        fac)                         # d_j (g v)_l
        S = dgv.swapaxes(1, 2) - dgv
        w = fac.reshape(fac.shape + (1,) * (v.ndim - 1)) * v
        for a in range(n):                      # d_v g, one axis at a time
            S += g[src[:, a]] * w[:, a, None, None]
    ginv = nk._matrix_inv(g[0])
    gamma = np.einsum('rs...,s...->r...', ginv, S[0])[None]
    if G.order > 1:
        known = np.einsum('Prs...,s...->Pr...', g[1:n + 1], gamma[0])
        gamma = np.concatenate([gamma, np.einsum('rs...,Ps...->Pr...', ginv,
                                                 S[1:n + 1] - known)])
    for lo, hi, I, J, M in _christoffel_tables(n, G.order):
        known = nk._taylor_sum(M, np.einsum('Prs...,Ps...->Pr...', g[I],
                                            gamma[J]))
        gamma = np.concatenate([gamma, np.einsum('rs...,Ps...->Pr...', ginv,
                                                 S[lo:hi] - known)])
    return Jet(n, G.order - 1, gamma)


def riemann_jet(chart: MetricChart, xj):
    """Curvature tensor as one jet, two orders below the metric entries.

    Coefficients have shape (K, i, j, k, l, ...batch) and hold

        R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj
                  + Gamma^i_km Gamma^m_lj - Gamma^i_lm Gamma^m_kj

    with every term read off :func:`christoffel_jet`, so the tensor and its
    derivatives are exact Taylor coefficients.
    """
    gamma = christoffel_jet(chart, xj)
    dgamma = nk.gradient(gamma).coef        # d_a Gamma^i_lj at [:, a, i, l, j]
    low = nk.truncate(gamma, gamma.order - 1)
    quad = nk.jet_einsum("ikm...,mlj...->ijkl...", low, low).coef
    return Jet(gamma.nvars, low.order,
               np.einsum('Kkilj...->Kijkl...', dgamma)
               - np.einsum('Klikj...->Kijkl...', dgamma)
               + quad - np.einsum('Kijlk...->Kijkl...', quad))


def christoffel_at(chart: MetricChart, x):
    """Christoffel symbols, shape (n, n, n, ...batch), index order [k, i, j]."""
    return christoffel_jet(chart, Jet.variables(np.asarray(x, dtype=float),
                                                1)).value


def christoffel_and_grad(chart: MetricChart, x):
    """(Gamma, dGamma) with dGamma[a,k,i,j] = d Gamma^k_ij / d x_a."""
    gamma = christoffel_jet(chart, Jet.variables(np.asarray(x, dtype=float), 2))
    return gamma.value, gamma.grad()


def pullback_metric(surface) -> MetricChart:
    """First fundamental form of a patch as a 2D metric chart: the patch
    seeded once at the chart's point, one order above the metric (whose
    entries top out one below the jet capacity), its gradient D[a, c] =
    d_a r_c one gather, and g_ab = sum_c D[a, c] D[b, c] one contraction."""

    def gfn(xj):
        m = min(xj[0].order, nk.MAX_ORDER - 1)
        r = surface._evaluate(*Jet.variables(np.stack([x.value for x in xj]),
                                             m + 1))
        d = nk.gradient(r)
        return nk.jet_einsum("ac...,bc...->ab...", d, d)

    return MetricChart(2, surface.domain, gfn, periods=surface.periods,
                       name=surface.name or "pullback")


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------


_TRANSPORT_RTOL, _TRANSPORT_ATOL = 1e-10, 1e-12     # per transported lane
_CLOSURE_TOL = 1e-9      # joins and loop closure, coordinates modulo periods


@dataclass
class GeodesicPath:
    """A traced geodesic with dense output.

    ``ts`` is arc length (the trace normalizes to unit speed), ``xs`` and
    ``vs`` are coordinates and coordinate velocities at the solver's
    accepted nodes, all inside the chart's box; ``trajectory`` is the
    solver's own dense output on [0, length].
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
        return self.trajectory.eval(t)[..., :self.chart.dim]

    def velocity(self, t):
        return self.trajectory.eval(t)[..., self.chart.dim:2 * self.chart.dim]

    def speed_drift(self):
        """Max relative drift of g(x', x') along the path, at 64 samples."""
        ts = np.linspace(self.ts[0], self.ts[-1], 64)
        y = self.trajectory.eval(ts)
        n = self.chart.dim
        x, v = y[:, :n].T, y[:, n:2 * n].T
        g = self.chart.g_at(x)
        sq = np.einsum('ij...,i...,j...->...', g, v, v)
        return float(np.abs(sq - sq[0]).max() / abs(sq[0]))


def g_norm(chart: MetricChart, x, v):
    g = chart.g_at(np.asarray(x, dtype=float))
    v = np.asarray(v, dtype=float)
    return float(np.sqrt(np.einsum('ij,i,j->', g, v, v)))


def geodesic_trace(chart: MetricChart, x0, v0, length, rtol=1e-10,
                   atol=1e-12) -> GeodesicPath:
    """Trace the unit-speed geodesic from x0 in direction v0 for ``length``.

    The initial velocity is normalized in g, so the parameter is arc
    length.  A trace that leaves the coordinate box stops at its last
    accepted node, within the solver's step floor of the box's edge, with
    reason "domain-exit"; one that leaves at its start point raises
    :class:`PreconditionError`.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if not chart.contains(x0[:, None])[0]:
        raise PreconditionError("geodesic start point lies outside the chart")
    nrm = g_norm(chart, x0, v0)
    if nrm <= 0 or not np.isfinite(nrm):
        raise PreconditionError("initial velocity must have positive g-norm")
    n = chart.dim
    y0 = np.concatenate([x0, v0 / nrm])
    traj = nk.integrate_ode(nk.OdeProblem(_variational_rhs(chart, 1, 0), y0,
                                          (0.0, float(length)), rtol, atol,
                                          pair=nk.DOP853))
    if len(traj.ts) < 2:
        raise PreconditionError("the geodesic leaves the chart at its start "
                                "point")
    return GeodesicPath(chart, traj.ts, traj.ys[:, :n], traj.ys[:, n:],
                        float(traj.ts[-1]),
                        "domain-exit" if traj.stopped else "completed", traj)


def _variational_rhs(chart: MetricChart, lanes: int, ncols: int,
                     freeze=False):
    """RHS for geodesics carrying d(exp)/d(parameters) columns.

    State per lane: x (n), v (n), J (n x ncols), Jdot (n x ncols) where J
    solves the linearized geodesic equation along the lane, which reads
    Gamma^k_ij v^i and its gradient only: one :func:`christoffel_jet` with
    the lanes' velocities, no full symbols and no dGamma.  With ``ncols``
    = 0 it is the geodesic equation alone, which reads Gamma only.  A lane
    outside the closed box has a NaN derivative, so the solver rejects any
    step that ends with a lane outside and every accepted node lies in the
    chart; with ``freeze`` such a lane stops instead (zero derivative), as
    does a lane with a non-finite derivative, rather than stalling the step
    all lanes share.
    """
    n = chart.dim

    def rhs(t, y):
        # the state is lane-major, (lanes, 2 + 2 ncols, n); the kernels read
        # it as one contiguous (2 + 2 ncols, n, lanes) copy, a view at one
        # lane, and write the derivative in that layout too
        z = np.ascontiguousarray(
            y.reshape(lanes, 2 + 2 * ncols, n).transpose(1, 2, 0))
        dz = np.empty_like(z)
        x, v = z[0], z[1]
        inside = chart.contains(x)
        dz[0] = v
        if not ncols:
            gamma = christoffel_at(chart, x)
            dz[1] = -np.einsum('kij...,i...,j...->k...', gamma, v, v)
        else:
            J, Jd = z[2:2 + ncols], z[2 + ncols:]            # (ncols, n, L)
            # gv^k_j = Gamma^k_ij v^i, as one jet with v held constant,
            # serves acc and the linearized equation
            # Jdd^k = -dGamma^k_ij/dx_a J^a v^i v^j - 2 Gamma^k_ij v^i Jd^j
            Gv = christoffel_jet(chart, Jet.variables(x, 2), v)
            gv = Gv.value                                    # (k, j, L)
            dgvv = (Gv.grad() * v).sum(2)                    # (a, k, L)
            dz[1] = -(gv * v).sum(1)
            dz[2:2 + ncols] = Jd
            dz[2 + ncols:] = (-(dgvv * J[:, :, None]).sum(1)
                              - 2.0 * (gv * Jd[:, None]).sum(2))
        if freeze:
            inside &= np.isfinite(dz).all(axis=(0, 1))
        if not inside.all():
            dz[..., ~inside] = 0.0 if freeze else np.nan
        return dz.transpose(2, 0, 1).ravel()

    return rhs


def _exp_batch(chart: MetricChart, P, U, dU=None, rtol=1e-10, atol=1e-12,
               freeze=False, steer=True, pair=nk.DOPRI5, h0=None):
    """Integrate exp_P(t U) for a batch of velocities U (n, L), t in [0,1].

    ``P`` is one base point (n,) or one per lane (n, L).  Given ``dU``
    (ncols, n, L), the derivative of the initial velocity in each variation
    parameter, each lane also carries the columns J = dx/d(param_c), with
    J(0) = 0 and Jdot(0) = dU.  With ``freeze`` lanes stop outside the box
    (see :func:`_variational_rhs`); else one that leaves stops the solve at
    its last accepted node, where every lane is still inside.
    Unless ``steer``, the error norm covers x and v only and the columns,
    which solve a linear equation along each lane, leave step control to
    the geodesics (as sensitivities do in CVODES).  ``h0`` is the solve's
    first step (:class:`numkit.OdeProblem`).  Returns the trajectory,
    ``stopped`` or not; states reshape as (L, 2 + 2 ncols, n).
    """
    n = chart.dim
    L = U.shape[1]
    ncols = 0 if dU is None else len(dU)
    z0 = np.zeros((L, 2 + 2 * ncols, n))
    z0[:, 0, :] = np.asarray(P, dtype=float).T
    z0[:, 1, :] = U.T
    if ncols:
        z0[:, 2 + ncols:, :] = np.moveaxis(dU, -1, 0)
    norm = None if steer or not ncols else np.flatnonzero(
        np.indices(z0.shape)[1] < 2)
    return nk.integrate_ode(nk.OdeProblem(
        _variational_rhs(chart, L, ncols, freeze), z0.ravel(), (0.0, 1.0),
        rtol, atol, error_index=norm, pair=pair, h0=h0))


# ---------------------------------------------------------------------------
# parallel transport and holonomy
# ---------------------------------------------------------------------------


@dataclass
class TransportResult:
    """Vectors parallel-transported along a path.

    The path is S pieces (polyline segments or geodesic sides), each run on
    tau in [0, 1]; ``ts`` holds piece index + tau at every sample, and
    ``positions`` and ``vectors`` the point and the transported columns
    there.  ``final`` is the last sample.  ``gram_drift`` is the max
    relative drift of the g-Gram matrix of the transported columns, which
    transport should preserve.
    """

    chart: MetricChart
    ts: np.ndarray
    positions: np.ndarray
    vectors: np.ndarray          # (samples, n, ncols)
    final: np.ndarray            # (n, ncols)
    path_kind: str
    gram_drift: float


def _transport_gram_drift(chart, xs, vecs):
    g = chart.g_at(xs.T)                       # (n, n, S)
    gram = np.einsum('ijS,Sia,Sjb->Sab', g, vecs, vecs)
    scale = max(np.abs(gram[0]).max(), 1e-300)
    return float(np.abs(gram - gram[0]).max() / scale)


def _propagators(chart: MetricChart, curve, S):
    """Transport maps along S curves on tau in [0, 1], as one batched solve.

    ``curve(tau)`` returns the curves' positions and velocities, (n, S)
    each.  Transport is linear in the transported vectors, so each curve's
    propagator Phi_s (started from the identity) is independent of the
    others, and all S integrate as the lanes of one solve with one
    :func:`christoffel_at` call over every lane per RHS.  The solver's
    error norm is an RMS over the whole state, so the tolerances are divided
    by sqrt(S): that bounds each lane's own RMS error by
    ``_TRANSPORT_RTOL``/``_TRANSPORT_ATOL``, as if it had been solved alone.

    Returns the shared mesh ``taus`` (T,) and ``Phi`` (T, S, n, n),
    Phi[m, s] = Phi_s(taus[m]).
    """
    n = chart.dim

    def rhs(t, y):
        x, dx = curve(t)
        # Gamma^k_ij dx^i with the lanes first, then its product with the
        # propagators summed over j in order, the sum an einsum would form,
        # up to 3x faster at 384 lanes; row c of lane s is column c of Phi_s
        gdx = np.einsum('kijS,iS->Sjk', christoffel_at(chart, x), dx)
        phi = y.reshape(S, n, n)
        acc = phi[:, :, 0, None] * gdx[:, None, 0]
        for j in range(1, n):
            acc += phi[:, :, j, None] * gdx[:, None, j]
        return -acc.ravel()

    y0 = np.tile(np.eye(n), (S, 1, 1)).ravel()
    scale = math.sqrt(S)
    traj = nk.integrate_ode(nk.OdeProblem(rhs, y0, (0.0, 1.0),
                                          _TRANSPORT_RTOL / scale,
                                          _TRANSPORT_ATOL / scale))
    if traj.stopped:
        raise PreconditionError("the Christoffel symbols turn non-finite "
                                f"along the path near tau={traj.ts[-1]:.6g}")
    return traj.ts, traj.ys.reshape(len(traj.ts), S, n, n).swapaxes(-2, -1)


def _pieces(chart: MetricChart, path):
    """A transport path as S pieces on tau in [0, 1].

    Returns (start, end, S, curve, kind) with ``curve`` as
    :func:`_propagators` takes it.  A polyline's segments are
    p_s + tau dq_s; a geodesic side of length L is x(tau L), and its
    velocity L v(tau L), read off the side's own dense output.
    """
    n = chart.dim
    if isinstance(path, GeodesicPath):
        path = [path]
    if isinstance(path, (list, tuple)) and path and isinstance(path[0],
                                                               GeodesicPath):
        for i in range(1, len(path)):
            gap = _closure_defect(chart, path[i - 1].end, path[i].start)
            if gap > _CLOSURE_TOL:
                raise PreconditionError(
                    f"geodesic side {i} starts {gap:.3g} away from the end "
                    f"of side {i - 1}")
        lengths = np.array([p.length for p in path])

        def curve(t):
            y = np.stack([p.trajectory.eval(t * p.length) for p in path],
                         axis=1)
            return y[:n], lengths * y[n:2 * n]

        return path[0].start, path[-1].end, len(path), curve, "geodesic"

    pts = np.asarray(path, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != n or len(pts) < 2:
        raise PreconditionError("polyline must be an (M, n) array, M >= 2")
    outside = ~chart.contains(pts.T)
    if outside.any():
        i = int(np.argmax(outside))
        at = ",".join(f"{c:.4g}" for c in pts[i])
        raise PreconditionError(
            f"polyline waypoint {i} ({at}) lies outside the chart domain")
    x0 = np.ascontiguousarray(pts[:-1].T)
    dq = np.ascontiguousarray(np.diff(pts, axis=0).T)
    return pts[0], pts[-1], len(pts) - 1, lambda t: (x0 + t * dq, dq), \
        "polyline"


def parallel_transport(chart: MetricChart, path, a0) -> TransportResult:
    """Transport vector(s) a0 along a coordinate polyline or geodesic sides.

    ``path`` is an (M, n) array of waypoints joined by straight coordinate
    segments, a :class:`GeodesicPath`, or a list of them that join end to
    start (within ``_CLOSURE_TOL``, modulo the chart's periods, else
    :class:`PreconditionError` names the side).  ``a0`` may be a single
    vector (n,) or a matrix of columns (n, k).

    Every path is one solve: :func:`_propagators` integrates each piece's
    propagator Phi_s as a lane of one batch (each lane held to rtol 1e-10
    and atol 1e-12), and the vectors chain as A_{s+1} = Phi_s(1) A_s.
    The samples are the shared mesh on every piece, at times s + tau, with
    vectors Phi_s(tau) A_s.  Waypoints outside the chart's box raise
    :class:`PreconditionError` (the box is convex, so the segments stay
    inside too).
    """
    a0 = np.asarray(a0, dtype=float)
    single = a0.ndim == 1
    A0 = a0[:, None] if single else a0
    n = chart.dim
    k = A0.shape[1]
    start, _, S, curve, kind = _pieces(chart, path)
    taus, Phi = _propagators(chart, curve, S)
    A = [A0]
    for P in Phi[-1]:
        A.append(P @ A[-1])
    vecs = np.einsum('msij,sjc->smic', Phi[1:], np.stack(A[:-1]))
    ts = np.concatenate([[0.0], (np.arange(S)[:, None] + taus[1:]).ravel()])
    xs = np.stack([curve(t)[0] for t in taus[1:]], axis=1)    # (n, T-1, S)
    xs = np.vstack([start[None], xs.T.reshape(-1, n)])
    vecs = np.concatenate([A0[None], vecs.reshape(-1, n, k)])
    drift = _transport_gram_drift(chart, xs, vecs)
    final = vecs[-1]
    return TransportResult(chart, ts, xs, vecs,
                           final[:, 0] if single else final, kind, drift)


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


def holonomy(chart: MetricChart, loop) -> HolonomyResult:
    """Parallel transport around a closed loop.

    ``loop`` is any path :func:`parallel_transport` takes: a coordinate
    polyline or a list of geodesic sides.  It must close within
    ``_CLOSURE_TOL`` (coordinates compared modulo the chart's periods).  The
    returned matrix expresses the transport in a positively oriented
    g-orthonormal basis at the basepoint; for 2D charts the rotation angle
    atan2(M[1,0], M[0,0]) is included.
    """
    start, end, _, _, _ = _pieces(chart, loop)
    if _closure_defect(chart, start, end) > _CLOSURE_TOL:
        raise PreconditionError("loop is not closed in chart coordinates")
    E = chart.orthonormal_basis(start)
    res = parallel_transport(chart, loop, E)
    M = np.linalg.solve(E, res.final)
    orth = float(np.abs(M.T @ M - np.eye(chart.dim)).max())
    ang = float(math.atan2(M[1, 0], M[0, 0])) if chart.dim == 2 else None
    return HolonomyResult(M, ang, E, orth, res.gram_drift)


# ---------------------------------------------------------------------------
# geodesic circles, disks, and the scalar-curvature limit
# ---------------------------------------------------------------------------


_FAN_RTOL = 1e-10                           # rtol of every Jacobi fan


def fan_samples(samples, dim=2):
    """A fan's direction count M on a ``dim``-chart, checked: M directions
    per geodesic circle (None: 24), or M azimuths by M/2 - 1 polar nodes
    per geodesic sphere (None: 8).  M is an even integer >= 8, and in 3D a
    multiple of 4, so that the polar rule nests (:func:`_fejer2`)."""
    if samples is None:
        return 24 if dim == 2 else 8
    if samples != int(samples) or samples < 8 or samples % 2:
        raise PreconditionError(
            f"samples must be an even integer >= 8, got {samples}")
    if dim == 3 and samples % 4:
        raise PreconditionError(
            f"samples must be a multiple of 4 on a 3D chart, got {samples}")
    return int(samples)


def _jacobi_elements(chart: MetricChart, P, radii, U, dU, steer):
    """Length, area or volume elements of exp_P(r U) at every radius r.

    ``U`` (n, L) are directions and ``dU`` (c, n, L) their derivatives in
    the c parameters of a circle (c = 1), sphere (c = 2) or cube (c = n).
    One variational fan out to the largest radius carries the Jacobi
    columns J = d exp_P(r U) / d(params), every radius is read off its
    dense output, and one metric read gives sqrt(det(J^T g J)), shape
    (radii, L).  ``steer`` goes to :func:`_exp_batch`.  A fan that leaves
    the box stops at its last node inside and raises
    :class:`PreconditionError` with ``reach``, that node's share of the
    largest radius; a Gram determinant under the smallest normal float (a
    tiny radius) raises it without ``reach``.
    """
    radii = np.asarray(radii, dtype=float)
    rmax = radii.max()
    n = chart.dim
    c, _, L = dU.shape
    traj = _exp_batch(chart, P, rmax * U, rmax * dU, _FAN_RTOL, steer=steer)
    if traj.stopped:
        reach = traj.ts[-1]
        exc = PreconditionError("the geodesic fan leaves the chart; all lanes "
                                f"stay inside to radius {reach * rmax:.6g}")
        exc.reach = reach
        raise exc
    z = traj.eval(radii / rmax).reshape(len(radii), L, 2 + 2 * c, n)
    J = z[:, :, 2:2 + c]                                  # (R, L, c, n)
    det = np.linalg.det(np.einsum('RLcn,nmRL,RLdm->RLcd', J, chart.g_at(
        np.moveaxis(z[:, :, 0], -1, 0)), J))
    if not (det >= np.finfo(float).tiny).all():
        raise PreconditionError("the fan's Gram determinant underflows; "
                                "the radius is too small")
    return np.sqrt(det)


def _azimuth_rule(f):
    """2 pi times the mean of f over its last axis, the M azimuths, and its
    error: the change when every other azimuth is dropped (the trapezoid
    rule's embedded estimate; Trefethen & Weideman, SIAM Review 56, 2014)
    plus the fan's rtol times the sum."""
    full = 2.0 * math.pi * f.mean(axis=-1)
    half = 2.0 * math.pi * f[..., ::2].mean(axis=-1)
    return full, np.abs(full - half) + _FAN_RTOL * full


def geodesic_circle_lengths(chart: MetricChart, P, radii, samples=24,
                            frame=None):
    """Circle lengths L(r) and their error estimates, two arrays aligned
    with ``radii``.

    The circles lie in exp_P of the plane spanned by the g-orthonormal
    columns of ``frame`` (n, 2), by default the first two columns of
    :meth:`MetricChart.orthonormal_basis`.  L(r) is :func:`_azimuth_rule`
    over |J_theta(r)|_g at M = ``samples`` directions u(theta), where
    J_theta = d exp_P(r u(theta)) / d theta is the Jacobi column of one
    variational fan (do Carmo, Riemannian Geometry, ch. 5).
    """
    P = chart.base_point(P)
    M = fan_samples(samples)
    if frame is None:
        frame = chart.orthonormal_basis(P)[:, :2]
    phis = 2.0 * math.pi * np.arange(M) / M
    c, s = np.cos(phis), np.sin(phis)
    U = c * frame[:, :1] + s * frame[:, 1:2]
    dU = (c * frame[:, 1:2] - s * frame[:, :1])[None]
    return _azimuth_rule(_jacobi_elements(chart, P, radii, U, dU, False))


_RADIAL_NODES = 24         # Gauss-Legendre nodes of each disk area


def circles_and_disks(chart: MetricChart, P, radii, samples=24):
    """Circle lengths L(R), disk areas S(R) and the error estimates of
    both, four arrays aligned with ``radii``.

    S(R) integrates L(rho) over [0, R] with ``_RADIAL_NODES`` Gauss-Legendre
    nodes, summed in node order, and its error estimate integrates the
    lengths' estimates alike; every length comes from one
    :func:`geodesic_circle_lengths` call over the radii and their nodes.
    """
    radii = np.asarray(radii, dtype=float)
    n = len(radii)
    xs, ws = nk.gauss_legendre(_RADIAL_NODES, 0.0, radii[:, None])
    f = np.stack(geodesic_circle_lengths(
        chart, P, np.concatenate([radii, xs.ravel()]), samples))
    S = (ws * f[:, n:].reshape(2, n, -1)).cumsum(axis=2)[:, :, -1]
    return f[0, :n], S[0], f[1, :n], S[1]


@dataclass
class CircleResult:
    """Geodesic circle circumference and disk area with diagnostics."""

    radius: float
    length: float
    disk_area: float
    length_error: float
    disk_area_error: float
    ds_dr_residual: float
    warnings: list


def geodesic_circle(chart: MetricChart, P, R, samples=24) -> CircleResult:
    """Circumference L(R) and disk area S(R) of a geodesic circle.

    L integrates the Jacobi-column speed over ``samples`` directions
    (:func:`geodesic_circle_lengths`); S integrates L(rho) over [0, R] with
    Gauss-Legendre nodes read from the same batched geodesic fan, and
    ``disk_area_error`` integrates the lengths' error estimates alike.  The
    derivative law S'(R) = L(R) is checked by central differences and
    reported as ``ds_dr_residual``.
    """
    if chart.dim != 2:
        raise PreconditionError("geodesic circles are defined on 2D charts")
    R = float(R)
    if not 0 < R < math.inf:                  # NaN fails both comparisons
        raise PreconditionError(f"radius must be positive and finite, got {R}")
    delta = 1e-3 * R
    L, S, eL, eS = circles_and_disks(chart, P, (R - delta, R, R + delta),
                                     samples)
    dS = (S[2] - S[0]) / (2 * delta)
    resid = abs(dS - L[1]) / max(abs(L[1]), 1e-300)
    warnings = []
    if resid > 1e-5:
        warnings.append(f"dS/dR check off by {resid:.3g} relative")
    return CircleResult(R, float(L[1]), float(S[1]), float(eL[1]),
                        float(eS[1]), float(resid), warnings)


@dataclass
class TauEstimate:
    """Limit-based scalar curvature with route diagnostics.

    ``tau`` is the headline estimate (circle route for 2D, sphere-area
    route for 3D).  For 2D charts ``tau_circle`` and ``tau_disk`` hold the
    two independent comparison limits, which must agree within ``error``:
    the sum of both routes' errors.
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
        return self.tau_disk is None or abs(
            self.tau_circle - self.tau_disk) <= max(self.error, 1e-9)


_BALL_VOLUME_3 = 4.0 * math.pi / 3.0        # volume of the unit 3-ball


def _comparison_limit(ladder, defects, deltas, p=2):
    """:func:`numkit.richardson` of the defects, whose error adds the
    samples' errors through the weights w: sum_k |w_k| deltas_k (Sidi,
    Practical Extrapolation Methods, CUP 2003, ch. 1)."""
    rr = nk.richardson(ladder, defects, p)
    rr.error = rr.error + np.abs(rr.weights) @ np.asarray(deltas, float)
    return rr


def _circle_limit(ladder, lengths, errors):
    """The limit of the circle defect 6 (2 pi R - L(R)) / (pi R^3), from
    lengths and errors aligned with ``ladder``."""
    R = np.asarray(ladder)
    return _comparison_limit(
        ladder, 6.0 * (2 * math.pi * R - lengths) / (math.pi * R ** 3),
        6.0 * errors / (math.pi * R ** 3))


def _within_reach(fan, r0, rungs):
    """(ladder, fan(ladder)) for the first ladder {r0 / 2^k, ...} whose fan
    stays inside.  The fan is its own radius probe: one that leaves the box
    reruns at the largest r0 / 2^k, k <= 7, that all its lanes reached (at
    least one halving lower)."""
    k = 0
    while k < 8:
        ladder = [float(r0) / 2 ** (k + j) for j in range(rungs)]
        nk.halving_ladder(ladder)     # a bad ladder raises before any fan
        try:
            return ladder, fan(ladder)
        except PreconditionError as e:  # the largest r0 / 2^k in its reach
            if not hasattr(e, "reach"):
                raise
            k += max(1, math.ceil(-math.log2(max(e.reach, 2.0 ** -8))))
    raise PreconditionError("no usable circle radius inside the domain")


def scalar_curvature_estimate(chart: MetricChart, P, r0=0.2, rungs=3,
                              samples=None) -> TauEstimate:
    """Scalar curvature at P from comparison limits of circles or spheres.

    For 2D charts: both 6 (2 pi R - L(R)) / (pi R^3) and the disk variant
    24 (pi R^2 - S(R)) / (pi R^4) are Richardson-extrapolated over the
    halving ladder {r0, r0/2, ...}; the circle route is the headline value
    and the two routes must agree within the combined error.  For 3D
    charts the geodesic-sphere area defect 6 (4 pi R^2 - S(R)) /
    ((4 pi / 3) R^4) is used instead.  Each defect and its error is one
    array over the ladder (:func:`_comparison_limit`).  ``samples``, the
    fan's direction count M (24 per circle, 8 azimuths per sphere unless
    given), is checked by :func:`fan_samples` before any fan, and P by
    :meth:`MetricChart.base_point`.  A fan that leaves the chart reruns at
    a smaller r0 (:func:`_within_reach`).
    """
    P = chart.base_point(P)
    fan = circles_and_disks if chart.dim == 2 else _geodesic_sphere_areas
    M = fan_samples(samples, chart.dim)
    ladder, out = _within_reach(lambda radii: fan(chart, P, radii, M), r0,
                                rungs)
    R = np.asarray(ladder)
    if chart.dim == 2:
        lengths, areas, errors, area_errors = out
        head = _circle_limit(ladder, lengths, errors)
        rd = _comparison_limit(
            ladder, 24.0 * (math.pi * R ** 2 - areas) / (math.pi * R ** 4),
            24.0 * area_errors / (math.pi * R ** 4))
        err = head.error + rd.error
        routes = (head.value, rd.value)
        monotone = head.monotone and rd.monotone
    else:                              # 3D: geodesic-sphere area defect
        areas, errors = out
        head = _comparison_limit(
            ladder, 6.0 * (4 * math.pi * R ** 2 - areas)
            / (_BALL_VOLUME_3 * R ** 4),
            6.0 * errors / (_BALL_VOLUME_3 * R ** 4))
        err, routes, monotone = head.error, (None, None), head.monotone
    warnings = [] if monotone else ["extrapolation ladder not monotone"]
    return TauEstimate(head.value, float(err), *routes, tuple(ladder),
                       monotone, warnings)


def _fejer2(n):
    """Nodes theta_j = j pi / (n + 1), j = 1..n, of Fejer's second rule in
    x = cos theta, and its weights over sin theta_j, so that sum_j w_j
    f(theta_j) integrates f over [0, pi] exactly when f / sin theta is a
    polynomial of degree < n in cos theta (Waldvogel, BIT 46, 2006)."""
    thetas = math.pi * np.arange(1, n + 1) / (n + 1)
    k = np.arange(1, n + 1, 2)[:, None]
    return thetas, 4.0 / (n + 1) * (np.sin(k * thetas) / k).sum(axis=0)


def _geodesic_sphere_areas(chart: MetricChart, P, radii, samples=None):
    """Areas of geodesic spheres and their error estimates, two arrays
    aligned with ``radii``, from one variational geodesic fan.

    Directions are a Fejer (n = M/2 - 1 polar nodes, :func:`_fejer2`) x
    trapezoid (M = ``samples`` azimuths) grid on the unit g-sphere; the
    surface element uses d(exp)/d(direction) from the variational state.
    The polar sum comes first, then :func:`_azimuth_rule`, whose error
    gains 2 pi |mean over azimuths of (full - half)|, the half rule being
    every other polar node.
    """
    M = fan_samples(samples, 3)
    n = M // 2 - 1
    E = chart.orthonormal_basis(np.asarray(P, dtype=float))
    thetas, tw = _fejer2(n)
    st, ct = np.repeat(np.sin(thetas), M), np.repeat(np.cos(thetas), M)
    phis = np.tile(2.0 * math.pi * np.arange(M) / M, n)
    sf, cf = np.sin(phis), np.cos(phis)
    u = np.stack([st * cf, st * sf, ct])
    du = np.stack([[ct * cf, ct * sf, -st], [-st * sf, st * cf, 0.0 * st]])
    area = _jacobi_elements(chart, P, radii, E @ u, E @ du,
                            True).reshape(-1, n, M)
    polar = tw @ area
    S, err = _azimuth_rule(polar)
    gap = polar - _fejer2(n // 2)[1] @ area[:, 1::2]        # full - half
    return S, err + 2.0 * math.pi * np.abs(gap.mean(axis=-1))


def plane_scalar_estimate(chart: MetricChart, P, u, v, r0=0.2, rungs=3,
                          samples=24):
    """Scalar curvature of the geodesic surface spanned by u, v at P.

    Radial geodesics of the ambient chart lying in exp(span(u, v)) are
    geodesics of that surface, so its circle-length defect is the circle
    route of :func:`scalar_curvature_estimate` (:func:`_circle_limit` of
    the lengths array) over a g-orthonormal frame of the plane, error and
    chart-edge shrink included.  A P outside the chart raises
    :class:`PreconditionError` before any metric read.  Returns
    (tau, error).
    """
    P = chart.base_point(P)
    g = chart.g_at(P)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = math.sqrt(u @ g @ u)
    if not nu > 0:                           # u = 0, or NaN
        raise PreconditionError("directions do not span a plane")
    f1 = u / nu
    w = v - (f1 @ g @ v) * f1
    nv = math.sqrt(w @ g @ w)
    if nv <= 1e-12 * math.sqrt(float(v @ g @ v)):
        raise PreconditionError("directions do not span a plane")
    frame = np.stack([f1, w / nv], axis=1)
    ladder, out = _within_reach(
        lambda radii: geodesic_circle_lengths(chart, P, radii, samples, frame),
        r0, rungs)
    rr = _circle_limit(ladder, *out)
    return rr.value, float(rr.error)


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
# Newton levels: shot rtol (atol 1e-2 rtol) and pair.  The loose levels
# stay on DOPRI5: frozen lanes put jumps in the derivative of their wide
# early shots, which cost DOP853 about twice the RHS evaluations.  Once a
# shot at the last level improves, its Jacobian is kept for chord steps.
_LEVELS = ((1e-4, nk.DOPRI5), (1e-6, nk.DOPRI5), (1e-10, nk.DOP853))
_RTOLS = np.array([rtol for rtol, _ in _LEVELS])


def _shoot(chart, P, Q, E, first, pair, tol, max_iter, out):
    """Newton shooting for tasks in lockstep, one solve per iterate.

    Task t shoots pair ``pair[t]`` from w = 0 (endpoint P) with the step
    ``first[t]``.  A step that lowers the miss is taken, and its Jacobi
    columns give the next Newton step; one that does not is retried at
    1/2 ... 1/64 as lanes of the next solve, and if none of those helps
    the task stops.  Inexact Newton: a task asks for the loosest of
    ``_RTOLS`` at or below 1e-2 miss^2, solved with that level's
    Runge-Kutta pair in ``_LEVELS``, and only a shot at the last one can
    converge.  A task whose last improving shot ran at the last level
    shoots without columns and steps with that shot's Jacobian (a chord
    step; Deuflhard, *Newton Methods for Nonlinear Problems*, 2.1).  Each
    solve runs the tasks that ask for the loosest level present, column
    shots before chord shots, so the dear tight solves come last and carry
    every pair.  A task keeps the largest accepted step of its last solve,
    short of that solve's final step onto t = 1, and the solve's level.  A
    solve starts at the least of its tasks' steps, each scaled by
    (rtol / rtol_prev)^(1/(q + 1)) for the pair's error order q, when every
    task has one from a solve on the same pair; else the solver picks its
    start.
    """
    n = chart.dim
    w, jac = np.zeros((len(pair), n)), np.zeros((len(pair), n, n))
    miss = np.abs(P[pair] - Q[pair]).max(axis=1)
    step, iters = np.array(first, dtype=float), np.zeros(len(pair), int)
    halving, live = np.zeros(len(pair), bool), np.ones(len(pair), bool)
    chord = np.zeros(len(pair), bool)
    hint, hint_level = np.full(len(pair), np.nan), np.zeros(len(pair), int)
    while True:
        live &= np.isnan(out.distance[pair]) & (iters < max_iter)
        if not live.any():
            return
        level = np.minimum(np.searchsorted(-_RTOLS, -1e-2 * miss ** 2),
                           len(_RTOLS) - 1)
        key = 2 * level + chord
        tasks = np.flatnonzero(live & (key == key[live].min()))
        lv = level[tasks[0]]
        rtol, rk = _LEVELS[lv]
        last = lv == len(_LEVELS) - 1
        was, h0 = hint_level[tasks], None
        if np.isfinite(hint[tasks]).all() and all(
                _LEVELS[k][1] is rk for k in was):
            h0 = float(np.min(hint[tasks]
                              * (rtol / _RTOLS[was]) ** -rk.exponent))
        c = 0 if chord[tasks[0]] else n
        iters[tasks] += 1
        lanes = np.repeat(tasks, np.where(halving[tasks], len(_HALVINGS), 1))
        W = w[lanes] + step[lanes] * np.concatenate(
            [_HALVINGS if halving[t] else [1.0] for t in tasks])[:, None]
        p, El = pair[lanes], E[pair[lanes]]
        try:
            traj = _exp_batch(
                chart, P[p].T, np.einsum('Lic,Lc->iL', El, W),
                np.transpose(El, (2, 1, 0))[:c], rtol, 1e-2 * rtol,
                freeze=True, steer=False, pair=rk, h0=h0)
        except nk.StepUnderflowError as e:
            traj = e.trajectory
        steps = np.diff(traj.ts)
        if not traj.stopped:
            steps = steps[:-1]          # the last one was clamped onto t = 1
        hint[tasks] = steps.max() if steps.size else np.nan
        hint_level[tasks] = lv
        z = np.where(traj.stopped, np.nan, traj.final).reshape(
            len(lanes), 2 + 2 * c, n)
        X = z[:, 0]
        Jac = np.swapaxes(z[:, 2:2 + c], 1, 2) if c else jac[lanes]
        lane_miss = np.abs(X - Q[p]).max(axis=1)
        lane_miss[~(chart.contains(X.T) & np.isfinite(Jac).all(axis=(1, 2))
                    & np.isfinite(lane_miss))] = np.inf
        for t in tasks:
            k = np.flatnonzero(lanes == t)[np.argmin(lane_miss[lanes == t])]
            m, q = lane_miss[k], pair[t]
            if not np.isnan(out.distance[q]):
                continue                         # a sibling task converged
            if m <= tol[q] and last:
                out.distance[q] = np.linalg.norm(W[k])
            if m < out.miss[q] or not np.isnan(out.distance[q]):
                out.miss[q], out.velocity[q] = m, El[k] @ W[k]
            if m < miss[t]:
                w[t], miss[t], halving[t] = W[k], m, False
                jac[t], chord[t] = Jac[k], last
                try:
                    step[t] = np.linalg.solve(jac[t], Q[q] - X[k])
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


def geodesic_distance(chart: MetricChart, P, Q, tol=1e-10, max_iter=64,
                      miss=None):
    """Two-point geodesic distance: the one-pair :func:`geodesic_distances`.

    Raises :class:`PreconditionError` when P or Q lies outside the box, and
    :class:`NonConvergenceError` with the best miss (``residual``) and its
    initial coordinate velocity (``best``) when shooting fails.  Given
    ``miss`` (float array of one entry) it stores there the endpoint miss
    of the converged shot.
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
    if miss is not None:
        miss[0] = m
    return float(d)
