"""Parametric curves: length, curvature, torsion, frames, reconstruction.

A :class:`ParamCurve` wraps an evaluator that maps a parameter jet to one
jet of all coordinates, so every derived quantity (speed, curvature,
torsion, frames) is computed by exact jet arithmetic at the query point.
Reconstruction from curvature data integrates the frame equations with the
adaptive RK45 integrator and exposes the result as an ordinary curve whose
higher derivatives come from the frame equations themselves rather than
from differencing the trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numkit as nk
from .numkit import Jet, PreconditionError


class ParamCurve:
    """A parametric curve t -> (x_1(t), ..., x_dim(t)).

    Parameters
    ----------
    fn : callable
        Maps one parameter jet to the curve as one jet with coefficients
        (K, dim, ...batch), as compiled and reconstructed curves write it.
        Hand-written evaluators may return a list of ``dim`` jets and
        constants instead, which the curve stacks and checks once, at
        :meth:`_evaluate`.  Any evaluator built from :mod:`curvatur.numkit`
        operations automatically supports batched jets and orders up to 4.
    domain : (float, float)
        Parameter interval.
    dim : int
        Ambient dimension, 2 or 3.
    """

    def __init__(self, fn, domain, dim):
        if dim not in (2, 3):
            raise PreconditionError("curves live in dimension 2 or 3")
        lo, hi = map(float, domain)
        if not hi > lo:
            raise PreconditionError("empty parameter domain")
        self._fn = fn
        self.domain = (lo, hi)
        self.dim = dim

    def _evaluate(self, tj):
        """The curve at the parameter jet as one jet with coefficients
        (K, dim, ...batch): the evaluator's output, stacked once if it is a
        list, with its component count checked."""
        c = self._fn(tj)
        if not isinstance(c, Jet):
            c = nk.jet_stack(list(c), tj)
        if c.coef.shape[1:2] != (self.dim,):
            raise PreconditionError("curve evaluator returned wrong dimension")
        return c

    def jets(self, t, order=3):
        """The curve as one jet at parameter value(s) ``t``, coefficients
        (K, dim, ...batch)."""
        return self._evaluate(Jet.variables(np.asarray(t, dtype=float)[None],
                                            order)[0])

    def point(self, t):
        return self.jets(t, order=1).value.T

    def velocity(self, t):
        return self.jets(t, order=1).partial((1,)).T

    def derivatives(self, t, order=3):
        """Array of derivatives sigma, sigma', ..., shape (order+1, dim)."""
        js = self.jets(t, order)
        return np.stack([js.partial((k,)) for k in range(order + 1)])


def speed(curve: ParamCurve, t):
    v = curve.velocity(np.atleast_1d(np.asarray(t, dtype=float)))
    s = np.sqrt((v * v).sum(axis=-1))
    return float(s[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else s


def arc_length(curve: ParamCurve, tol=1e-10):
    """Length of the curve over its parameter domain."""
    value, _ = nk.quadrature(lambda t: speed(curve, t), *curve.domain,
                             tol=tol)
    return value


def plane_curvature(curve: ParamCurve, t):
    """Signed curvature of a plane curve (positive where the tangent turns
    counterclockwise); a counterclockwise circle of radius R gives +1/R."""
    if curve.dim != 2:
        raise PreconditionError("plane_curvature needs a 2d curve")
    d = curve.derivatives(t, order=2)
    (x1, y1), (x2, y2) = d[1], d[2]
    sp2 = x1 * x1 + y1 * y1
    if sp2 <= 0:
        raise PreconditionError("curve is not regular at this parameter")
    return float((x1 * y2 - y1 * x2) / sp2 ** 1.5)


_BIREGULAR_TOL = 1e-12     # |v x a| / |v|^3 below this is not biregular
_FRAME_RTOL, _FRAME_ATOL = 1e-10, 1e-12     # of the frame-equation solves


def space_curvature_torsion(curve: ParamCurve, t):
    """Curvature and torsion of a space curve at parameter ``t``.

    Returns (k, kappa).  Raises :class:`PreconditionError` at points that
    are not biregular (velocity and acceleration parallel), where torsion
    is undefined.
    """
    if curve.dim != 3:
        raise PreconditionError("space_curvature_torsion needs a 3d curve")
    d = curve.derivatives(t, order=3)
    v, acc, jerk = d[1], d[2], d[3]
    cr = np.cross(v, acc)
    sp = float(np.linalg.norm(v))
    cn = float(np.linalg.norm(cr))
    if sp <= 0:
        raise PreconditionError("curve is not regular at this parameter")
    if cn <= _BIREGULAR_TOL * sp ** 3:
        raise PreconditionError("curve is not biregular at this parameter")
    k = cn / sp ** 3
    kappa = float(np.dot(cr, jerk)) / cn ** 2
    return k, kappa


@dataclass
class FrenetFrame:
    """Frenet data at one curve point.

    ``binormal`` and ``torsion`` are None for plane curves.  The normal is
    the principal normal (direction of the curvature vector), which needs
    nonzero curvature.
    """

    point: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    binormal: Optional[np.ndarray]
    curvature: float
    torsion: Optional[float]


def frenet_frame(curve: ParamCurve, t) -> FrenetFrame:
    d = curve.derivatives(t, order=3)
    p, v, acc = d[0], d[1], d[2]
    sp = float(np.linalg.norm(v))
    if sp <= 0:
        raise PreconditionError("curve is not regular at this parameter")
    tang = v / sp
    a_perp = acc - np.dot(acc, tang) * tang
    an = float(np.linalg.norm(a_perp))
    if an <= 1e-14 * (1.0 + float(np.linalg.norm(acc))):
        raise PreconditionError("principal normal undefined where curvature vanishes")
    normal = a_perp / an
    if curve.dim == 2:
        k = plane_curvature(curve, t)
        return FrenetFrame(p, tang, normal, None, abs(k), None)
    k, kappa = space_curvature_torsion(curve, t)
    binormal = np.cross(tang, normal)
    return FrenetFrame(p, tang, normal, binormal, k, kappa)


class _FrameODECurve(ParamCurve):
    """Common plumbing for curves rebuilt from curvature data.

    Position comes from the dense trajectory; derivative jets come from the
    frame equations evaluated exactly at the query point, so curvature and
    torsion of the reconstruction agree with the inputs to integrator
    accuracy.
    """

    def __init__(self, traj, dim, s_max, jet_builder):
        if traj.stopped:        # kbar non-finite, or <= 0 for a space curve
            raise PreconditionError("the frame equations turn non-finite "
                                    f"near s={traj.ts[-1]:.6g}")
        self._traj = traj
        self._build = jet_builder
        super().__init__(self._eval, (0.0, s_max), dim)

    def _eval(self, s_jet: Jet):
        s0 = np.asarray(s_jet.value, dtype=float)
        state = self._traj.eval(s0)
        return self._build(s_jet, s0, state)


def _as_fn(data):
    """Curvature data as a callable of s: a constant c becomes s -> c."""
    if callable(data):
        return data
    const = float(data)
    return lambda s: const


def reconstruct_plane_curve(kbar, s_max) -> ParamCurve:
    """Plane curve with prescribed signed curvature kbar(s), unit speed.

    Starts at the origin with tangent (1, 0).  ``kbar`` may be a constant
    or a callable accepting jets (any evaluator composed of numkit
    operations qualifies).
    """
    kbar = _as_fn(kbar)

    def rhs(s, y):
        k = float(nk.value_of(kbar(s)))
        return np.array([math.cos(y[2]), math.sin(y[2]), k])

    traj = nk.integrate_ode(nk.OdeProblem(rhs, np.array([0.0, 0.0, 0.0]),
                                          (0.0, float(s_max)), _FRAME_RTOL,
                                          _FRAME_ATOL))

    def build(s_jet, s0, state):
        alpha0 = state[..., 2]
        order = s_jet.order
        sj = Jet.variables(np.asarray(s0, dtype=float)[None],
                           max(order - 1, 1))[0]
        kj = nk.as_jet(kbar(sj), sj)
        acoef = np.zeros((order + 1,) + np.shape(alpha0))
        acoef[0] = alpha0
        for k in range(min(order, kj.order + 1)):
            acoef[k + 1] = kj.coef[k] / (k + 1)
        sin_a, cos_a = Jet(1, order, acoef).sincos()
        # the unit tangent (cos alpha, sin alpha), integrated from the
        # trajectory's (x, y)
        tangent = Jet(1, order, np.stack([cos_a.coef, sin_a.coef], axis=1))
        return nk.compose1d(nk.antiderivative1d(
            tangent, np.moveaxis(state[..., :2], -1, 0)), s_jet)

    return _FrameODECurve(traj, 2, float(s_max), build)


def reconstruct_space_curve(kbar, taubar, s_max) -> ParamCurve:
    """Space curve with prescribed curvature and torsion, unit speed.

    Integrates the frame equations v' = k n, n' = -k v + tau (v x n)
    starting from the origin with the standard frame (e1, e2, e3).
    ``kbar`` must stay positive on [0, s_max].
    """
    kbar, taubar = _as_fn(kbar), _as_fn(taubar)

    def rhs(s, y):
        x, v, n = y[0:3], y[3:6], y[6:9]
        k = float(nk.value_of(kbar(s)))
        tau = float(nk.value_of(taubar(s)))
        if k <= 0:
            return np.full(9, math.nan)
        b = np.cross(v, n)
        return np.concatenate([v, k * n, -k * v + tau * b])

    y0 = np.concatenate([np.zeros(3), np.array([1.0, 0.0, 0.0]),
                         np.array([0.0, 1.0, 0.0])])
    traj = nk.integrate_ode(nk.OdeProblem(rhs, y0, (0.0, float(s_max)),
                                          _FRAME_RTOL, _FRAME_ATOL))

    def build(s_jet, s0, state):
        x = state[..., 0:3]
        v = state[..., 3:6]
        n = state[..., 6:9]
        b = np.cross(v, n)
        s1 = Jet.variables(np.asarray(s0, dtype=float)[None], 2)[0]
        kj, tj = (nk.as_jet(f(s1), s1) for f in (kbar, taubar))
        # k, k' and tau, broadcast against the frame vectors' last axis
        k0, k1, tau0 = (np.asarray(a)[..., None]
                        for a in (kj.value, kj.partial((1,)), tj.value))
        # derivatives from the frame equations
        nprime = -k0 * v + tau0 * b
        coef = np.stack([x, v, k0 * n / 2.0, (k1 * n + k0 * nprime) / 6.0])
        return nk.compose1d(Jet(1, 3, np.moveaxis(coef, -1, 1)), s_jet)

    return _FrameODECurve(traj, 3, float(s_max), build)
