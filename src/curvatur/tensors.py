"""Curvature tensors and covariant calculus on metric charts.

The Riemann tensor here is the value of :func:`intrinsic.riemann_jet`, which
contracts the one Christoffel jet of :func:`intrinsic.christoffel_jet` with
itself and adds its exact derivatives, with the index convention

    R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj}
                + sum_m (Gamma^i_{km} Gamma^m_{lj} - Gamma^i_{lm} Gamma^m_{kj})

paired as (R(u, v) w)^i = R^i_{jkl} w^j u^k v^l.  With this choice the unit
sphere has R_1212 = +sin^2(rho) and sectional curvature +1, and the
holonomy of a small parallelogram spanned by (h u, h v), traversed with the
v-side first, is E + h^2 R(u, v) + O(h^3).  Two independent oracles are
provided: parallelogram holonomy for the full tensor and geodesic-cube
volumes for the Ricci form.  They reach Gamma and dGamma only through the
geodesic and variational right-hand sides of :mod:`curvatur.intrinsic`;
they never assemble curvature from the symbols.  Each reads its halving
ladder of sizes h off one fan of geodesics out to the largest size (one
fan per oracle call, every cube's lanes in one), through the solver's
dense output at h / max(h); the holonomy oracle then chains each rung's
segment propagators.  A :func:`numkit.solver_cost` block around either
oracle reads its solver work.

Fields (scalar, vector, covector, bilinear) are callables from coordinate
jets to one tensor jet, which makes covariant derivatives composable to
the depth the jet order allows.  Every covariant derivative, of a field or
of the curvature tensor itself (second Bianchi identity), is one rule: the
tensor jet is contracted with the Christoffel jet through
:func:`numkit.jet_einsum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import numkit as nk
from . import intrinsic as ig
from .numkit import Jet, PreconditionError


_CONVENTION = ("R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj + Gamma^i_km "
               "Gamma^m_lj - Gamma^i_lm Gamma^m_kj; "
               "(R(u,v)w)^i = R^i_jkl w^j u^k v^l")


@dataclass
class RiemannAt:
    """The curvature tensor at a point.

    ``R_up[i,j,k,l]`` holds R^i_{jkl}; ``R_down`` lowers the first index
    with the metric.  ``convention`` records the index/pairing choice so
    downstream comparisons are unambiguous.
    """

    x: np.ndarray
    g: np.ndarray
    R_up: np.ndarray
    R_down: np.ndarray
    convention: str = _CONVENTION

    def operator(self, u, v):
        """Matrix of w -> R(u, v) w in coordinate components."""
        return np.einsum('ijkl,k,l->ij', self.R_up, u, v)

    def action(self, u, v, w):
        return np.einsum('ijkl,j,k,l->i', self.R_up, w, u, v)

    def pairing(self, u, v, w, z):
        """g(R(u, v) w, z)."""
        return float(np.einsum('ijkl,i,j,k,l->', self.R_down, z, w, u, v))


def riemann_at(chart: ig.MetricChart, x) -> RiemannAt:
    """Curvature tensor at x: the value of :func:`intrinsic.riemann_jet`.
    An x outside the chart raises :class:`PreconditionError`
    (:meth:`intrinsic.MetricChart.base_point`)."""
    x = chart.base_point(x)
    R = ig.riemann_jet(chart, Jet.variables(x, 2)).value
    g = chart.g_at(x)
    R_down = np.einsum('im,mjkl->ijkl', g, R)
    return RiemannAt(x, g, R, R_down)


def sectional_at(chart: ig.MetricChart, x, u, v) -> float:
    """Sectional curvature of the plane spanned by u and v at x."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    riem = riemann_at(chart, x)
    g = riem.g
    uu, vv, uv = u @ g @ u, v @ g @ v, u @ g @ v
    area2 = uu * vv - uv * uv
    if area2 <= 1e-12 * max(uu * vv, 1e-300):
        raise PreconditionError("sectional curvature needs independent "
                                "directions")
    return riem.pairing(u, v, v, u) / area2


@dataclass
class RicciAt:
    """Ricci form, its g-raised operator, and the scalar curvature."""

    x: np.ndarray
    g: np.ndarray
    rho: np.ndarray
    rho_tilde: np.ndarray
    tau: float


def ricci_at(chart: ig.MetricChart, x, riem: Optional[RiemannAt] = None):
    """Ricci as the trace rho_jl = R^k_{jkl} of the curvature tensor."""
    x = np.asarray(x, dtype=float)
    if riem is None:
        riem = riemann_at(chart, x)
    rho = np.einsum('kjkl->jl', riem.R_up)
    rho_tilde = np.linalg.solve(riem.g, rho)
    return RicciAt(x, riem.g, rho, rho_tilde, float(np.trace(rho_tilde)))


# ---------------------------------------------------------------------------
# oracle 1: parallelogram holonomy
# ---------------------------------------------------------------------------


_SIDE_SAMPLES = 4          # exponential-map points per parallelogram side
_CUBE_NODES = 3            # Gauss-Legendre nodes per cube axis


def _loop_tangents(u, v, h):
    """The (4 S + 1, n) tangent vectors whose exponentials are the loop
    vertices of rung h: S = ``_SIDE_SAMPLES`` per side of the parallelogram
    spanned by (h u, h v), v-side first, and the closing zero."""
    ss = np.linspace(0.0, 1.0, _SIDE_SAMPLES, endpoint=False)[:, None]
    corners = h * np.array([np.zeros_like(u), v, u + v, u, np.zeros_like(u)])
    return np.vstack([a + ss * (b - a)
                      for a, b in zip(corners[:-1], corners[1:])]
                     + [corners[-1:]])


def riemann_holonomy_oracle(chart: ig.MetricChart, x, u, v,
                            hs=(0.1, 0.05, 0.025, 0.0125)):
    """R(u, v) as a matrix, from holonomy of shrinking parallelograms.

    The loop exp_x of the boundary of the parallelogram spanned by
    (h u, h v), traversed v-side first, transports the coordinate basis to
    sigma(h) = E + h^2 R(u, v) + O(h^3); the quotient is Richardson
    extrapolated over the halving ladder ``hs`` (largest first).  The whole
    ladder costs two solves.  The loop vertices of every rung come from one
    exponential-map fan of the largest rung's tangent vectors T, since
    exp_x(s T) is the geodesic of T at time s: rung h reads the fan's dense
    output at s = h / max(hs).  One batch of segment propagators
    (:func:`intrinsic._propagators`, each segment held to the transport
    tolerance on its own) follows, and each rung's holonomy is the ordered
    product of its propagators.  Their chords between the S =
    ``_SIDE_SAMPLES`` points of a side add O(h / S^2) to the quotient, an
    O(h) term the p = 1 ladder removes.  Parallel u, v give the zero
    operator by convention.  A base point outside the box or a ladder
    that :func:`nk.halving_ladder` rejects raises
    :class:`PreconditionError` before any solve; a loop whose fan stops at
    the chart's edge raises it too.  Returns (matrix, error_estimate).
    """
    x = chart.base_point(x)
    hs = nk.halving_ladder(hs)
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    n = chart.dim
    g = chart.g_at(x)
    gram = np.array([[u @ g @ u, u @ g @ v], [u @ g @ v, v @ g @ v]])
    if np.linalg.det(gram) <= 1e-12 * max(gram[0, 0] * gram[1, 1], 1e-300):
        return np.zeros((n, n)), 0.0

    traj = ig._exp_batch(chart, x, _loop_tangents(u, v, hs[0]).T)
    if traj.stopped:
        raise PreconditionError("the holonomy loop leaves the chart")
    pts = traj.eval(hs / hs[0]).reshape(len(hs), -1, 2, n)[:, :, 0, :]
    x0 = np.ascontiguousarray(pts[:, :-1].reshape(-1, n).T)
    dq = np.ascontiguousarray(np.diff(pts, axis=1).reshape(-1, n).T)
    _, Phi = ig._propagators(chart, lambda t: (x0 + t * dq, dq), x0.shape[1])
    M = np.eye(n)
    for seg in np.moveaxis(Phi[-1].reshape(len(hs), -1, n, n), 1, 0):
        M = seg @ M                           # the later factor on the left
    mats = (M - np.eye(n)) / hs[:, None, None] ** 2

    rr = nk.richardson(hs, mats, p=1)
    return rr.value, float(rr.error.max())


# ---------------------------------------------------------------------------
# oracle 2: geodesic-cube volumes for the Ricci form
# ---------------------------------------------------------------------------


def _cube_systems(n):
    """Tangent cubes whose volume defects determine the Ricci form."""
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    if n == 2:
        return [np.eye(2), np.diag([1.0, -1.0]), np.array([[c, -s], [s, c]])]
    r12 = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    r23 = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    r13 = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    return [np.eye(3), np.diag([1.0, -1.0, 1.0]), np.diag([1.0, 1.0, -1.0]),
            np.diag([-1.0, 1.0, 1.0]), r12, r23, r13]


def ricci_volume_oracle(chart: ig.MetricChart, x, hs=(0.2, 0.1, 0.05)):
    """Ricci form from volume defects of small geodesic cubes.

    For a cube spanned by h-scaled orthonormal combinations C, the volume
    satisfies 6 (h^n - V(h)) / h^(n+2) -> integral of rho(C xi, C xi) over
    the unit cube, a known linear functional of the Ricci entries.  Several
    cubes give a full-rank linear system.  Each cube's volume is a
    Gauss-Legendre sum (``_CUBE_NODES`` per axis) of the exact volume
    element; one variational fan (:func:`intrinsic._jacobi_elements`)
    carries every cube's nodes, read at every h off its dense output.  All
    cubes' defects, one (h, cube) array, are Richardson extrapolated in h
    in one call before solving, each volume carrying the fan's rtol as its
    error (:func:`intrinsic._comparison_limit`).  A bad base point or
    ladder ``hs`` (given in any order) raises :class:`PreconditionError` as in
    :func:`riemann_holonomy_oracle`, and so does a cube that leaves the
    chart, chained from its fan's error, which states the fan's reach; the
    fan's other errors, such as a Gram determinant that underflows, pass
    through as they are.
    Returns (rho_matrix, error_estimate), the largest cube's limit error.
    """
    x = chart.base_point(x)
    hs = nk.halving_ladder(sorted(hs, reverse=True))
    n = chart.dim
    E = chart.orthonormal_basis(x)
    cubes = np.array(_cube_systems(n))
    cols = E @ cubes                                    # (cube, n, n)
    xs, ws = nk.gauss_legendre(_CUBE_NODES, 0.0, 1.0)
    XI = np.stack([a.ravel() for a in
                   np.meshgrid(*([xs] * n), indexing="ij")])  # (n, N)
    W = np.prod(np.meshgrid(*([ws] * n), indexing="ij"), axis=0).ravel()
    try:                      # one fan, lane cube * N + node: (h, cube)
        vols = ig._jacobi_elements(
            chart, x, hs, (cols @ XI).transpose(1, 0, 2).reshape(n, -1),
            np.repeat(cols.transpose(2, 1, 0), len(W), axis=2),
            True).reshape(len(hs), len(cubes), -1) @ W
    except PreconditionError as e:     # only a fan's exit carries its reach
        if not hasattr(e, "reach"):
            raise
        raise PreconditionError("the geodesic cube leaves the chart") from e
    h = hs[:, None]
    rr = ig._comparison_limit(hs, 6.0 * (h ** n - vols) / h ** (n + 2),
                              6.0 * ig._FAN_RTOL * vols / h ** (n + 2), p=1)
    # integral of rho_hat(C xi, C xi) over the unit cube, with moments
    # E[xi_a xi_b] = 1/4 + delta_ab / 12, paired over the upper triangle
    i, j = np.triu_indices(n)
    rows = (2.0 - np.eye(n)) * (cubes @ (0.25 + np.eye(n) / 12.0)
                                @ cubes.transpose(0, 2, 1))
    vech = np.linalg.lstsq(rows[:, i, j], rr.value, rcond=None)[0]
    rho_hat = np.zeros((n, n))
    rho_hat[i, j] = rho_hat[j, i] = vech
    Einv = np.linalg.inv(E)
    return Einv.T @ rho_hat @ Einv, float(rr.error.max())


# ---------------------------------------------------------------------------
# jet-valued fields and covariant calculus
# ---------------------------------------------------------------------------


@dataclass
class Field:
    """A tensor field given by a jet evaluator.

    ``fn`` maps a list of coordinate jets to one jet, with coefficients
    (K, ...batch) for scalars, (K, n, ...batch) for vectors and covectors
    and (K, n, n, ...batch) for bilinear forms and (1,1) tensors.
    Hand-written evaluators may return (nested) lists of jets and
    constants instead, which :meth:`__call__` stacks.  Evaluating through
    jets keeps fields composable under differentiation; each covariant
    derivative consumes one order of the incoming jets.
    """

    kind: str                    # scalar | vector | covector | bilinear | mixed
    fn: Callable
    name: str = ""

    def __call__(self, xj):
        """The field as one tensor jet at the coordinate jets ``xj``."""
        xj = list(xj)
        out = self.fn(xj)
        return out if isinstance(out, Jet) else nk.jet_stack(out, xj[0])

    def at(self, x, order=0):
        return self(Jet.variables(np.asarray(x, dtype=float), max(order, 1)))


def field_values(field: Field, x, order=1):
    """Component values of a field at a point (plain arrays)."""
    return field.at(np.asarray(x, dtype=float), order=order).value


def _align(jets):
    """Truncate a collection of jets to the smallest order among them."""
    m = min(j.order for j in jets)
    return [nk.truncate(j, m) for j in jets]


def _partials(T: Jet, rank: int, m: int) -> Jet:
    """d_c T of a tensor jet with ``rank`` slots, c as the new last slot,
    truncated to order m: the gradient jet, copied C-contiguous, since
    :func:`numkit.jet_einsum` sums in the order of its operands' strides."""
    d = nk.gradient(nk.truncate(T, m + 1)).coef
    return Jet(T.nvars, m, np.ascontiguousarray(np.moveaxis(d, 1, rank + 1)))


def commutator(X: Field, Y: Field) -> Field:
    """Lie bracket [X, Y]^i = X^j d_j Y^i - Y^j d_j X^i of vector fields."""
    if X.kind != "vector" or Y.kind != "vector":
        raise PreconditionError("commutator takes vector fields")

    def fn(xj):
        Xs, Ys = _align([X(xj), Y(xj)])
        m = Xs.order - 1
        Xm, Ym = nk.truncate(Xs, m), nk.truncate(Ys, m)
        return (nk.jet_einsum("j...,ij...->i...", Xm, _partials(Ys, 1, m))
                - nk.jet_einsum("j...,ij...->i...", Ym, _partials(Xs, 1, m)))

    return Field("vector", fn, name=f"[{X.name},{Y.name}]")


def _nabla(gamma: Jet, T: Jet, rank: int, up) -> Jet:
    """Covariant derivative of a tensor jet T with coefficients
    (K, a_1..a_rank, ...batch): d_z T, plus Gamma^a_yz T[..y..] for each
    upper slot a (its position in ``up``), minus Gamma^y_az T[..y..] for each
    lower slot a.  The direction z becomes the new last slot; the order
    drops by one.
    """
    m = min(T.order - 1, gamma.order)
    G = nk.truncate(gamma, m)
    Tm = nk.truncate(T, m)
    out = _partials(T, rank, m)
    slots = "abcdefgh"[:rank]
    for s, a in enumerate(slots):
        sign, g = (1.0, f"{a}yz") if s in up else (-1.0, f"y{a}z")
        moved = slots[:s] + "y" + slots[s + 1:]
        out = out + sign * nk.jet_einsum(
            f"{g}...,{moved}...->{slots}z...", G, Tm)
    return out


# kind -> (rank, upper slots, kind of the covariant derivative)
_NABLA_KINDS = {"vector": (1, (0,), "mixed"),
                "covector": (1, (), "bilinear"),
                "bilinear": (2, (), "trilinear")}


def covariant_derivative(chart: ig.MetricChart, field: Field) -> Field:
    """Covariant derivative; the extra (last) index is the direction.

    Layouts: scalar -> covector (d_j f); vector -> mixed T^i_j = d_j v^i +
    Gamma^i_kj v^k; covector -> bilinear T_ij = d_j phi_i - Gamma^k_ij phi_k;
    bilinear -> T_ijk = d_k b_ij - Gamma^l_ik b_lj - Gamma^l_jk b_il.
    """
    if field.kind == "scalar":
        def fn(xj):
            f = field(xj)
            return _partials(f, 0, f.order - 1)
        return Field("covector", fn, name=f"grad {field.name}")

    if field.kind not in _NABLA_KINDS:
        raise PreconditionError(
            f"cannot differentiate field kind {field.kind}")
    rank, up, kind = _NABLA_KINDS[field.kind]

    def fn(xj):
        return _nabla(ig.christoffel_jet(chart, xj), field(xj), rank, up)

    return Field(kind, fn, name=f"nabla {field.name}")


def directional(chart: ig.MetricChart, X: Field, field: Field) -> Field:
    """nabla_X of a scalar or vector field, as a field."""
    if field.kind not in ("scalar", "vector"):
        raise PreconditionError("directional derivative supports scalar and "
                                "vector fields")
    D = covariant_derivative(chart, field)
    rank = 0 if field.kind == "scalar" else 1
    free = "i" * rank

    def fn(xj):
        T, Xs = _align([D(xj), X(xj)])
        return nk.jet_einsum(f"{free}j...,j...->{free}...", T, Xs)

    return Field(field.kind, fn, name=f"D_{X.name} {field.name}")


def metric_field(chart: ig.MetricChart) -> Field:
    """The metric itself as a bilinear field."""

    return Field("bilinear", chart.metric_jet, name="g")


def exterior_derivative(phi: Field) -> Field:
    """(d phi)_ij = d_i phi_j - d_j phi_i, no combinatorial factor."""
    if phi.kind != "covector":
        raise PreconditionError("exterior derivative here takes covectors")

    def fn(xj):
        P = phi(xj)
        dP = _partials(P, 1, P.order - 1).coef     # d_j phi_i at [:, i, j]
        return Jet(P.nvars, P.order - 1, np.swapaxes(dP, 1, 2) - dP)

    return Field("bilinear", fn, name=f"d {phi.name}")


def alt_of_nabla(chart: ig.MetricChart, phi: Field) -> Field:
    """Antisymmetrization of nabla phi; equals d phi by Gamma symmetry."""
    D = covariant_derivative(chart, phi)

    def fn(xj):
        t = D(xj)                           # nabla_j phi_i at [:, i, j]
        return Jet(t.nvars, t.order, np.swapaxes(t.coef, 1, 2) - t.coef)

    return Field("bilinear", fn, name=f"alt nabla {phi.name}")


def potential_on_box(phi: Field, box):
    """A potential for a closed covector field on a coordinate box.

    Integrates phi first along the x-axis from the box's lower corner,
    then along each remaining axis.  If phi is exact (d phi = 0), the
    gradient of the result reproduces phi; the caller checks that.  Returns
    a scalar callable f(x).
    """
    n = len(box)
    base = np.array([lo for lo, hi in box], dtype=float)

    def comp(k, x):
        def f(s):
            pts = np.repeat(x[:, None], len(s), axis=1)
            pts[k] = s
            # order 2 leaves headroom for phi being itself a derived field
            return phi(Jet.variables(pts, 2)).value[k]
        return f

    def f(x):
        x = np.asarray(x, dtype=float)
        total = 0.0
        cur = base.copy()
        for k in range(n):
            if abs(x[k] - cur[k]) > 0:
                val, _ = nk.quadrature(comp(k, np.where(
                    np.arange(n) > k, base, x).astype(float)), cur[k], x[k],
                    tol=1e-10)
                total += val
            cur[k] = x[k]
        return total

    return f


def second_bianchi_residual(chart: ig.MetricChart, x):
    """Max residual of the cyclic identity for the covariant derivative of R.

    nabla_m R^i_jkl is the covariant derivative rule of every field here,
    applied to the order-1 jet of :func:`intrinsic.riemann_jet`, so no
    finite difference enters; the residual of

        nabla_m R^i_jkl + nabla_k R^i_jlm + nabla_l R^i_jmk = 0

    is returned relative to the largest component of nabla R, together
    with that component.
    """
    xj = Jet.variables(np.asarray(x, dtype=float), 3)
    R = ig.riemann_jet(chart, xj)
    nab = _nabla(ig.christoffel_jet(chart, xj), R, 4, (0,)).value
    # nab[i, j, k, l, m] = nabla_m R^i_jkl; add nabla_k R^i_jlm, nabla_l R^i_jmk
    resid = (nab + np.einsum('ijlmk->ijklm', nab)
             + np.einsum('ijmkl->ijklm', nab))
    # locally symmetric spaces have nabla R = 0, so guard the scale with
    # the tensor magnitude itself
    scale = max(np.abs(nab).max(), np.abs(R.value).max(), 1e-300)
    return float(np.abs(resid).max() / scale), float(np.abs(nab).max())
