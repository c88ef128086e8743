"""Extrinsic geometry of cooriented surface patches in R^3.

A patch is an immersion evaluator on a rectangle, differentiated by jets.
Everything extrinsic lives here: fundamental forms, principal curvatures
as the eigenvalues of the second fundamental form against the first,
section curvatures with a plane-slicing oracle, areas, offset surfaces, and
total curvature integrals with their offset-area expansion check.

Orientation matters throughout: the default unit normal is
r_u x r_v / |r_u x r_v| and can be flipped per patch.  Every report records
which orientation produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from . import curves as cv
from .numkit import Jet, PreconditionError


class VerificationError(nk.NumericalError):
    """A built-in cross-check failed; carries the offending report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SurfacePatch:
    """A cooriented immersed patch (u, v) -> R^3.

    Parameters
    ----------
    fn : callable
        Maps a pair of coordinate jets to the immersion as one jet with
        coefficients (K, 3, ...batch), as compiled patches write it.
        Hand-written evaluators may return a list of three jets and
        constants instead, which the patch stacks and checks once, at
        :meth:`_evaluate`.  Evaluators composed from :mod:`curvatur.numkit`
        operations support any order up to 4 and batched jets
        automatically.
    domain : ((u0, u1), (v0, v1))
        Parameter rectangle.
    flip_normal : bool
        When True the coorientation is -(r_u x r_v) normalized.
    periods : (float or None, float or None)
        Coordinate periods for charts that close up (angles), used by
        intrinsic loops; None for non-periodic coordinates.
    name : str
        Label echoed in reports.
    """

    def __init__(self, fn, domain, flip_normal=False, periods=(None, None),
                 name=""):
        (u0, u1), (v0, v1) = domain
        if not (u1 > u0 and v1 > v0):
            raise PreconditionError("empty parameter rectangle")
        self._fn = fn
        self.domain = ((float(u0), float(u1)), (float(v0), float(v1)))
        self.flip_normal = bool(flip_normal)
        self.periods = tuple(periods)
        self.name = name

    @property
    def orientation(self) -> str:
        return "flipped" if self.flip_normal else "r_u x r_v"

    def flipped(self) -> "SurfacePatch":
        return SurfacePatch(self._fn, self.domain,
                            flip_normal=not self.flip_normal,
                            periods=self.periods, name=self.name)

    # -- evaluation -----------------------------------------------------

    def _evaluate(self, uj, vj):
        """The immersion at the parameter jets as one jet with
        coefficients (K, 3, ...batch): the evaluator's output, stacked
        once if it is a list, with its component count checked."""
        r = self._fn(uj, vj)
        if not isinstance(r, Jet):
            r = nk.jet_stack(list(r), uj)
        if r.coef.shape[1:2] != (3,):
            raise PreconditionError("surface evaluator must return 3 components")
        return r

    def jets(self, u, v, order=3):
        """The immersion as one jet in the two surface parameters, with
        coefficients (K, 3, ...batch)."""
        uv = np.stack([np.asarray(u, dtype=float), np.asarray(v, dtype=float)])
        return self._evaluate(*Jet.variables(uv, order))

    def point(self, u, v):
        return self.jets(u, v, order=1).value

    def tangent_basis(self, u, v):
        """(r_u, r_v) as ambient vectors, stacked shape (2, 3, ...)."""
        js = self.jets(u, v, order=1)
        return np.stack([js.partial((1, 0)), js.partial((0, 1))])

    def _unit_normal(self, r):
        """Cooriented unit normal, one order below the immersion jet r."""
        d = nk.gradient(r)                      # d_a r at [:, a]
        cr = nk.vcross(Jet(r.nvars, d.order, d.coef[:, 0]),
                       Jet(r.nvars, d.order, d.coef[:, 1]))
        inv = nk.vdot(cr, cr).sqrt().reciprocal()
        sign = -1.0 if self.flip_normal else 1.0
        return cr * inv * sign


@dataclass
class FormsAtPoint:
    """First and second fundamental forms at one patch point."""

    point: np.ndarray
    basis: np.ndarray       # rows r_u, r_v
    normal: np.ndarray
    g: np.ndarray           # 2x2, g_ij = r_i . r_j
    q: np.ndarray           # 2x2, q_ij = r_ij . n
    orientation: str


def forms_at(surface: SurfacePatch, uv) -> FormsAtPoint:
    u, v = float(uv[0]), float(uv[1])
    js = surface.jets(u, v, order=2)
    p, ru, rv = js.value, js.partial((1, 0)), js.partial((0, 1))
    n = np.cross(ru, rv)
    nrm = np.linalg.norm(n)
    if nrm <= 1e-12 * max(np.linalg.norm(ru), np.linalg.norm(rv), 1.0):
        raise PreconditionError(
            f"patch is not regular at (u,v)=({u:.4g},{v:.4g})")
    n = n / nrm
    if surface.flip_normal:
        n = -n
    g = np.array([[ru @ ru, ru @ rv], [ru @ rv, rv @ rv]])
    ruu, ruv, rvv = (js.partial(a) for a in ((2, 0), (1, 1), (0, 2)))
    q = np.array([[ruu @ n, ruv @ n], [ruv @ n, rvv @ n]])
    return FormsAtPoint(p, np.stack([ru, rv]), n, g, q, surface.orientation)


@dataclass
class ExtrinsicReport:
    """Principal-curvature data at one patch point.

    ``mean_density`` is the mean curvature in the density convention (the
    linear coefficient of the offset-area expansion), related to the average
    convention by mean_density = -2 * mean_avg.  ``scalar`` is the scalar
    curvature 2 * gauss of the induced metric.
    """

    point: np.ndarray
    normal: np.ndarray
    lam_plus: float
    lam_minus: float
    dir_plus: np.ndarray          # ambient unit tangent vector
    dir_minus: np.ndarray
    dirs_chart: np.ndarray        # columns: chart coordinates of the two dirs
    mean_avg: float
    mean_density: float
    gauss: float
    scalar: float
    umbilic: bool
    orientation: str


def principal_at(surface: SurfacePatch, uv) -> ExtrinsicReport:
    f = forms_at(surface, uv)
    lams, vecs, degenerate = nk.generalized_symmetric_eigen(f.q, f.g)
    amb = f.basis.T @ vecs           # ambient vectors, columns
    lp, lm = float(lams[0]), float(lams[1])
    return ExtrinsicReport(
        point=f.point,
        normal=f.normal,
        lam_plus=lp,
        lam_minus=lm,
        dir_plus=amb[:, 0],
        dir_minus=amb[:, 1],
        dirs_chart=vecs,
        mean_avg=0.5 * (lp + lm),
        mean_density=-(lp + lm),
        gauss=lp * lm,
        scalar=2.0 * lp * lm,
        umbilic=bool(degenerate),
        orientation=f.orientation,
    )


def _slice_curve(surface: SurfacePatch, uv, w, m_tilt):
    """Plane-section curve through the patch point, as a space curve.

    The cutting plane passes through the point and is spanned by the unit
    tangent ``w`` and the in-plane normal ``m_tilt``.  The intersection is
    parametrized by the coordinate xi = (r - P) . w and solved order by
    order for the chart functions u(xi), v(xi); this construction never
    consults curvature formulas, so it can act as an independent oracle.
    """
    order = 3
    u0, v0 = float(uv[0]), float(uv[1])
    f = forms_at(surface, uv)
    P = f.point
    c = np.cross(w, m_tilt)
    jac = np.array([[f.basis[0] @ c, f.basis[1] @ c],
                    [f.basis[0] @ w, f.basis[1] @ w]])
    if abs(np.linalg.det(jac)) < 1e-12:
        raise PreconditionError("cutting plane is tangent to the surface")

    a = np.zeros(order + 1)   # u(xi) Taylor coefficients
    b = np.zeros(order + 1)   # v(xi)
    a[0], b[0] = u0, v0
    xi = Jet(1, order, np.eye(order + 1)[1])  # the variable xi itself
    for m in range(1, order + 1):
        d = surface._evaluate(Jet(1, order, a.copy()),
                              Jet(1, order, b.copy())) - P
        f1 = nk.vdot(d, c)
        f2 = nk.vdot(d, w) - xi
        resid = np.array([f1.coef[m], f2.coef[m]])
        corr = np.linalg.solve(jac, -resid)
        a[m] += corr[0]
        b[m] += corr[1]

    def fn(x_jet):
        return surface._evaluate(nk.compose1d(Jet(1, order, a), x_jet),
                                 nk.compose1d(Jet(1, order, b), x_jet))

    return cv.ParamCurve(fn, (-1.0, 1.0), 3), a, b


def section_curvature(surface: SurfacePatch, uv, phi, theta, method="euler"):
    """Signed curvature of the plane section at angle ``phi`` and tilt ``theta``.

    ``phi`` is measured from the lam_plus principal direction inside the
    tangent plane; ``theta`` in [0, pi/2) tilts the cutting plane away from
    the normal-section plane.  The sign is taken against the in-plane normal
    cos(theta) n + sin(theta) (n x w), so the normal-section value at
    theta=0 is lam_plus cos^2(phi) + lam_minus sin^2(phi).

    ``method="euler"`` evaluates that closed form divided by cos(theta);
    ``method="slice"`` actually cuts the surface with the plane and measures
    the signed curvature of the intersection curve, for use as an
    independent cross-check.
    """
    theta = float(theta)
    if not 0.0 <= theta < math.pi / 2:
        raise PreconditionError("tilt must lie in [0, pi/2)")
    rep = principal_at(surface, uv)
    w = math.cos(phi) * rep.dir_plus + math.sin(phi) * rep.dir_minus
    w = w / np.linalg.norm(w)
    if method == "euler":
        kn = rep.lam_plus * math.cos(phi) ** 2 + rep.lam_minus * math.sin(phi) ** 2
        return kn / math.cos(theta)
    if method != "slice":
        raise PreconditionError(f"unknown section method {method!r}")
    n = rep.normal
    e_perp = np.cross(n, w)
    m_tilt = math.cos(theta) * n + math.sin(theta) * e_perp
    curve, _, _ = _slice_curve(surface, uv, w, m_tilt)
    # signed plane curvature of the section inside its own plane
    js = curve.jets(0.0, order=2)
    d1, d2 = js.partial((1,)), js.partial((2,))
    x1, y1 = d1 @ w, d1 @ m_tilt
    x2, y2 = d2 @ w, d2 @ m_tilt
    return float((x1 * y2 - y1 * x2) / (x1 * x1 + y1 * y1) ** 1.5)


def area(surface: SurfacePatch, tol=1e-9):
    """Patch area by 2D Gauss-Legendre quadrature of |r_u x r_v|."""
    (u0, u1), (v0, v1) = surface.domain

    def integrand(u, v):
        cr = nk.vcross(*surface.tangent_basis(u, v))
        return np.sqrt(nk.vdot(cr, cr))

    value, _ = nk.quadrature2d(integrand, u0, u1, v0, v1, tol=tol)
    return value


_FOCAL_GRID = 16           # focal-set check samples per coordinate
_TOTALS_TOL = 1e-9         # quadrature tolerance of the curvature totals
_OFFSET_EPSILONS = (1e-2, 5e-3, 2.5e-3)    # offsets +-eps, largest first


def _check_focal(surface: SurfacePatch, eps):
    """The focal-set check of :func:`offset_surface`."""
    (u0, u1), (v0, v1) = surface.domain
    U, V = np.meshgrid(np.linspace(u0, u1, _FOCAL_GRID),
                       np.linspace(v0, v1, _FOCAL_GRID), indexing="ij")
    js = surface.jets(U.ravel(), V.ravel(), order=2)
    d = {a: js.partial(a) for a in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))}
    ru, rv = d[(1, 0)], d[(0, 1)]
    E, F, G = nk.vdot(ru, ru), nk.vdot(ru, rv), nk.vdot(rv, rv)
    cr = nk.vcross(ru, rv)
    nrm = np.sqrt(nk.vdot(cr, cr))
    regular = nrm > 1e-12 * np.sqrt(np.maximum(np.maximum(E, G), 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        n = cr / nrm
        L, M, N = (nk.vdot(d[a], n) for a in ((2, 0), (1, 1), (0, 2)))
        det = E * G - F * F
        H = (E * N - 2.0 * F * M + G * L) / (2.0 * det)
        lam = np.abs(H) + np.sqrt(np.maximum(H * H - (L * N - M * M) / det, 0.0))
    bad = ~regular | (abs(eps) * lam >= 1.0)
    if bad.any():
        i = int(np.argmax(bad))               # first offender, u-major order
        u, v = U.flat[i], V.flat[i]
        if not regular[i]:
            raise PreconditionError(
                f"patch is not regular at (u,v)=({u:.4g},{v:.4g})")
        raise PreconditionError(
            f"offset {eps} crosses the focal set at (u,v)=({u:.4g},{v:.4g})")


def offset_surface(surface: SurfacePatch, eps) -> SurfacePatch:
    """Parallel surface r + eps * n with jets routed through the normal.

    Fails when |eps| reaches the focal distance (|eps * lambda| >= 1 at a
    sample point), where the offset stops being an immersion.  The check
    runs on one batched jet evaluation over a _FOCAL_GRID x _FOCAL_GRID grid,
    with max |lambda| = |H| + sqrt(H^2 - K) from the fundamental forms.
    """
    eps = float(eps)
    _check_focal(surface, eps)

    def fn(uj: Jet, vj: Jet):
        order = min(uj.order + 1, nk.MAX_ORDER)
        r = surface._evaluate(*Jet.variables(np.stack(
            [uj.value * np.ones_like(vj.value),
             vj.value * np.ones_like(uj.value)]), order))
        return nk.compose_nd(nk.truncate(r, order - 1)
                             + surface._unit_normal(r) * eps, [uj, vj])

    return SurfacePatch(fn, surface.domain, flip_normal=surface.flip_normal,
                        periods=surface.periods,
                        name=f"{surface.name}+offset({eps})" if surface.name
                        else f"offset({eps})")


@dataclass
class TotalCurvatureReport:
    """Total curvature integrals with their offset-area cross-check.

    ``area``, ``mean_total`` and ``gauss_total`` are the direct integrals;
    the fit fields come from a least-squares quadratic in eps through the
    measured ``offset_areas``, one per entry of ``epsilons``.
    ``rel_mismatch`` is the worst relative deviation between the two routes
    and ``ok`` records whether it stayed under the verification tolerance.
    """

    area: float
    mean_total: float
    gauss_total: float
    fit_area: float
    fit_mean: float
    fit_gauss: float
    epsilons: tuple
    rel_mismatch: float
    ok: bool
    orientation: str
    offset_areas: tuple = ()


def gauss_map_signed_area(surface: SurfacePatch):
    """Signed area of the Gauss-map image, the total Gaussian curvature.

    The triple product is projected onto the natural r_u x r_v direction so
    that the result is the integral of K against the unsigned area element,
    independent of the coorientation choice.
    """
    (u0, u1), (v0, v1) = surface.domain
    sign = -1.0 if surface.flip_normal else 1.0

    def integrand(u, v):
        nj = surface._unit_normal(surface.jets(u, v, 2))
        return sign * nk.vtriple(nj.partial((1, 0)), nj.partial((0, 1)),
                                 nj.value)

    value, _ = nk.quadrature2d(integrand, u0, u1, v0, v1, tol=_TOTALS_TOL)
    return value


def total_curvatures(surface: SurfacePatch, fit_tol=1e-4) -> TotalCurvatureReport:
    """Area, total mean curvature and total Gaussian curvature of a patch.

    The two curvature totals are the surface integrals whose first-order
    and second-order roles in the offset-area expansion
    area(eps) = area + mean_total * eps + gauss_total * eps^2
    are verified against a quadratic fit through the report's
    ``offset_areas`` at +-``_OFFSET_EPSILONS``.  A mismatch above
    ``fit_tol`` (relative) raises :class:`VerificationError` carrying the
    report.

    One quadrature takes the area element, both curvature densities and
    each offset's |(r_u + eps n_u) x (r_v + eps n_v)| from one order-2 jet
    evaluation per node.  :func:`offset_surface`'s focal-set check runs
    once, at the largest |eps|, and raises the same error.
    """
    (u0, u1), (v0, v1) = surface.domain
    # The offset walks along the cooriented normal, but the signed area
    # element must stay positive against the natural r_u x r_v direction,
    # so flipped patches need the projection sign compensated.
    sign = -1.0 if surface.flip_normal else 1.0
    eps_all = [e for mag in _OFFSET_EPSILONS for e in (mag, -mag)]
    _check_focal(surface, _OFFSET_EPSILONS[0])

    def integrands(u, v):
        """|r_u x r_v|, mean density, Gauss density, offset area elements."""
        r = surface.jets(u, v, order=2)
        nj = surface._unit_normal(r)
        n = nj.value
        n_u, n_v, r_u, r_v = (js.partial(a) for js in (nj, r)
                              for a in ((1, 0), (0, 1)))
        cr = nk.vcross(r_u, r_v)
        h = nk.vtriple(r_u, n_v, n) + nk.vtriple(n_u, r_v, n)
        k = nk.vtriple(n_u, n_v, n)
        offsets = [nk.vcross(r_u + e * n_u, r_v + e * n_v) for e in eps_all]
        return np.stack([np.sqrt(nk.vdot(cr, cr)), sign * h, sign * k]
                        + [np.sqrt(nk.vdot(c, c)) for c in offsets])

    totals, _ = nk.quadrature2d(integrands, u0, u1, v0, v1, tol=_TOTALS_TOL)
    S, H, K = map(float, totals[:3])
    areas = tuple(map(float, totals[3:]))
    A = np.column_stack([np.ones(len(eps_all)), eps_all,
                         np.square(eps_all)])
    coeffs, *_ = np.linalg.lstsq(A, np.array(areas), rcond=None)
    fit_area, fit_mean, fit_gauss = map(float, coeffs)

    scale = max(abs(S), abs(H), abs(K), 1.0)
    mism = max(abs(fit_area - S), abs(fit_mean - H), abs(fit_gauss - K)) / scale
    report = TotalCurvatureReport(S, H, K, fit_area, fit_mean, fit_gauss,
                                  tuple(eps_all), float(mism), mism <= fit_tol,
                                  surface.orientation, areas)
    if not report.ok:
        raise VerificationError(
            f"offset-area fit disagrees with curvature totals "
            f"(relative mismatch {mism:.3g})", report)
    return report
