"""Numerical kernel: jets, ODE integration, quadrature, extrapolation, eigen.

Design notes
------------
All derivatives in this package flow through :class:`Jet`, a truncated
multivariate Taylor expansion with numpy-array coefficients.  A jet carries
every mixed partial of its function up to ``order`` at one point (or at a
whole batch of points at once: coefficients may have trailing batch axes).
Arithmetic on jets is exact Taylor arithmetic, so no step-size tuning and no
cancellation error ever enters a derivative.  A jet whose batch axes start
with matrix axes is a matrix-valued jet: :func:`jet_matmul` multiplies two
of them and :func:`jet_inv` inverts one, each in a single batched pass.
Finite differences appear in this package only inside clearly named
cross-check oracles.

The ODE integrator is an embedded Dormand-Prince 4(5) pair with adaptive
steps and the pair's own 4th-order dense output.  It integrates flat state
vectors; callers that want many geodesics at once flatten a (lanes, dim)
state and share step control across lanes, which is how the circle and
volume routines stay fast.

Quadrature is a tensor Gauss-Legendre rule that doubles its nodes per axis
until two successive rules agree.  Integrands see whole node arrays, so a
surface integral costs a few batched jet evaluations, not one per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Sequence

import numpy as np


MAX_VARS = 4
MAX_ORDER = 4


class NumericalError(Exception):
    """Base class for numerical failures that carry diagnostic state."""


class StepUnderflowError(NumericalError):
    """Raised when the adaptive step controller cannot make progress.

    Attributes
    ----------
    t : float
        Time of the last accepted state.
    y : ndarray
        Last accepted state vector.
    nan_seen : bool
        True when failure was driven by NaN/inf in the right hand side
        (typically the trajectory left the domain of the problem), False
        when the error estimate itself refused to shrink.
    trajectory : Trajectory
        The accepted steps up to ``t``, with their dense output.
    """

    def __init__(self, message, t, y, nan_seen, trajectory):
        super().__init__(message)
        self.t = t
        self.y = np.asarray(y)
        self.nan_seen = nan_seen
        self.trajectory = trajectory


class QuadratureError(NumericalError):
    """Quadrature did not reach the requested tolerance.

    Carries ``estimate`` and ``error_estimate`` so callers can decide
    whether the partial result is still usable.
    """

    def __init__(self, message, estimate, error_estimate):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


class NonConvergenceError(NumericalError):
    """An iterative solver ran out of iterations.  ``best`` holds the
    least-bad iterate seen."""

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class PreconditionError(ValueError):
    """An input violates a documented precondition."""


# ---------------------------------------------------------------------------
# multi-index machinery
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _index_space(nvars: int, order: int):
    """Tables for truncated Taylor arithmetic in ``nvars`` variables.

    Returns
    -------
    idx : tuple of multi-indices, graded lexicographic
    pos : dict multi-index -> slot
    gather : (K, K) int array, gather[k, j] = slot of idx[k] - idx[j], or 0
    mask : (K, K) float array, 1.0 where the subtraction above is valid
    fact : (K,) float array of multi-index factorials
    """
    if not (1 <= nvars <= MAX_VARS):
        raise PreconditionError(f"jet supports 1..{MAX_VARS} variables, got {nvars}")
    if not (0 <= order <= MAX_ORDER):
        raise PreconditionError(f"jet supports order 0..{MAX_ORDER}, got {order}")
    all_idx = [a for a in product(range(order + 1), repeat=nvars) if sum(a) <= order]
    all_idx.sort(key=lambda a: (sum(a), a))
    idx = tuple(all_idx)
    pos = {a: i for i, a in enumerate(idx)}
    K = len(idx)
    gather = np.zeros((K, K), dtype=np.intp)
    mask = np.zeros((K, K))
    for k, ak in enumerate(idx):
        for j, aj in enumerate(idx):
            diff = tuple(x - y for x, y in zip(ak, aj))
            if min(diff) >= 0:
                gather[k, j] = pos[diff]
                mask[k, j] = 1.0
    fact = np.array([math.prod(math.factorial(e) for e in a) for a in idx], dtype=float)
    return idx, pos, gather, mask, fact


class Jet:
    """Truncated Taylor expansion of a function at a point.

    Coefficients are stored in Taylor normal form: ``coef[pos(alpha)]`` is
    the mixed partial of multi-index ``alpha`` divided by ``alpha!``.  The
    coefficient array may carry trailing batch axes, in which case the jet
    represents the same function expanded at a whole batch of points and
    all arithmetic maps over the batch.

    Parameters
    ----------
    nvars : int
        Number of independent variables (1..4).
    order : int
        Truncation order (0..4).
    coef : ndarray, shape (K, ...) with K = number of multi-indices
        Taylor coefficients; trailing axes are batch axes.
    """

    __slots__ = ("nvars", "order", "coef")

    def __init__(self, nvars, order, coef):
        self.nvars = nvars
        self.order = order
        self.coef = np.asarray(coef, dtype=float)

    # -- construction -------------------------------------------------

    @staticmethod
    def constant(value, nvars, order, batch_shape=()):
        K = len(_index_space(nvars, order)[0])
        value = np.asarray(value, dtype=float)
        coef = np.zeros((K,) + tuple(batch_shape or value.shape))
        coef[0] = value
        return Jet(nvars, order, coef)

    @staticmethod
    def variables(values, order):
        """Seed one jet per independent variable.

        Parameters
        ----------
        values : array_like, shape (nvars, ...) or sequence of scalars
            Expansion point; trailing axes become batch axes.
        order : int

        Returns
        -------
        list of Jet, one per variable
        """
        if order < 1:
            raise PreconditionError(f"seed variables need order >= 1, got {order}")
        values = np.asarray(values, dtype=float)
        nvars = values.shape[0]
        idx, pos, _, _, _ = _index_space(nvars, order)
        K = len(idx)
        out = []
        for i in range(nvars):
            coef = np.zeros((K,) + values.shape[1:])
            coef[0] = values[i]
            unit = tuple(1 if j == i else 0 for j in range(nvars))
            coef[pos[unit]] = 1.0
            out.append(Jet(nvars, order, coef))
        return out

    @staticmethod
    def variable(value, i, nvars, order):
        vals = np.zeros((nvars,) + np.shape(value))
        vals[i] = value
        return Jet.variables(vals, order)[i]

    def _like_const(self, value):
        coef = np.zeros_like(self.coef)
        coef[0] = value
        return Jet(self.nvars, self.order, coef)

    # -- extraction ---------------------------------------------------

    @property
    def value(self):
        return self.coef[0]

    def partial(self, alpha):
        """Mixed partial derivative for multi-index ``alpha`` (tuple)."""
        alpha = tuple(alpha)
        idx, pos, _, _, fact = _index_space(self.nvars, self.order)
        if alpha not in pos:
            raise PreconditionError(f"multi-index {alpha} outside order {self.order}")
        return self.coef[pos[alpha]] * fact[pos[alpha]]

    def grad(self):
        """First partials, shape (nvars, ...)."""
        _, pos, _, _, _ = _index_space(self.nvars, self.order)
        units = [tuple(1 if j == i else 0 for j in range(self.nvars))
                 for i in range(self.nvars)]
        return np.stack([self.coef[pos[u]] for u in units])

    def hessian(self):
        """Second partials, shape (nvars, nvars, ...)."""
        n = self.nvars
        out = np.stack([np.stack([self.partial(tuple(
            (1 if a == i else 0) + (1 if a == j else 0) for a in range(n)))
            for j in range(n)]) for i in range(n)])
        return out

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.nvars != self.nvars or other.order != self.order:
                raise PreconditionError("jet variable/order mismatch")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is not None:
            return Jet(self.nvars, self.order, self.coef + o.coef)
        coef = self.coef.copy()
        coef[0] = coef[0] + other
        return Jet(self.nvars, self.order, coef)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.nvars, self.order, -self.coef)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return Jet(self.nvars, self.order, self.coef * np.asarray(other))
        _, _, gather, mask, _ = _index_space(self.nvars, self.order)
        a = self.coef[gather]                     # (K, K, ...batch)
        if a.ndim > 2:
            m = mask.reshape(mask.shape + (1,) * (a.ndim - 2))
        else:
            m = mask
        return Jet(self.nvars, self.order, np.sum(a * m * o.coef[None], axis=1))

    __rmul__ = __mul__

    def reciprocal(self):
        v = self.coef[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            derivs = [1.0 / v]
            for k in range(1, self.order + 1):
                derivs.append(derivs[-1] * (-k) / v)
        return self._compose(derivs)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return Jet(self.nvars, self.order, self.coef / np.asarray(other))
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, (int, np.integer)):
            if p == 0:
                return self._like_const(np.ones_like(self.coef[0]))
            if p < 0:
                return self.reciprocal() ** (-p)
            out = self
            for _ in range(p - 1):
                out = out * self
            return out
        # real exponent through the power series of t**p at the point value
        v = self.coef[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            derivs = [np.power(v, p)]
            c = p
            for k in range(1, self.order + 1):
                derivs.append(derivs[0] * c / np.power(v, k))
                c = c * (p - k)
        return self._compose(derivs)

    # -- composition with a scalar function ---------------------------

    def _compose(self, derivs):
        """Compose ``f(self)`` given derivatives of f at ``self.value``.

        ``derivs[k]`` is the k-th derivative of f at the point value;
        entries beyond ``self.order`` are ignored.
        """
        u = Jet(self.nvars, self.order, self.coef.copy())
        u.coef[0] = np.zeros_like(u.coef[0])
        out = self._like_const(np.asarray(derivs[0], dtype=float)
                               * np.ones_like(self.coef[0]))
        upow = None
        for k in range(1, self.order + 1):
            upow = u if upow is None else upow * u
            out = out + upow * (np.asarray(derivs[k], dtype=float) / math.factorial(k))
        return out

    def sin(self):
        v = self.coef[0]
        s, c = np.sin(v), np.cos(v)
        return self._compose([s, c, -s, -c, s][: self.order + 1])

    def cos(self):
        v = self.coef[0]
        s, c = np.sin(v), np.cos(v)
        return self._compose([c, -s, -c, s, c][: self.order + 1])

    def tan(self):
        t = np.tan(self.coef[0])
        sec2 = 1.0 + t * t
        derivs = [t, sec2, 2 * t * sec2, sec2 * (2 + 6 * t * t),
                  sec2 * (16 * t + 24 * t ** 3)]
        return self._compose(derivs[: self.order + 1])

    def exp(self):
        e = np.exp(self.coef[0])
        return self._compose([e] * (self.order + 1))

    def log(self):
        v = self.coef[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            derivs = [np.log(v)]
            for k in range(1, self.order + 1):
                derivs.append(((-1.0) ** (k - 1)) * math.factorial(k - 1)
                              / np.power(v, k))
        return self._compose(derivs)

    def sqrt(self):
        v = self.coef[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.sqrt(v)
            derivs = [s]
            c = 0.5
            for k in range(1, self.order + 1):
                derivs.append(c * s / np.power(v, k))
                c = c * (0.5 - k)
        return self._compose(derivs)

    def sinh(self):
        v = self.coef[0]
        s, c = np.sinh(v), np.cosh(v)
        return self._compose([s, c, s, c, s][: self.order + 1])

    def cosh(self):
        v = self.coef[0]
        s, c = np.sinh(v), np.cosh(v)
        return self._compose([c, s, c, s, c][: self.order + 1])

    def __repr__(self):
        return (f"Jet(nvars={self.nvars}, order={self.order}, "
                f"value={np.asarray(self.coef[0])!r})")


def as_jet(x, like: Jet) -> Jet:
    """``x`` itself if it is a jet, else the constant jet ``x`` shaped like
    ``like`` (same variables, order and batch shape)."""
    if isinstance(x, Jet):
        return x
    return like._like_const(np.asarray(x, dtype=float)
                            * np.ones_like(like.coef[0]))


def compose1d(outer: Jet, inner: Jet) -> Jet:
    """Compose a univariate jet with an arbitrary jet: ``outer(inner)``.

    ``outer`` must be a 1-variable jet expanded at ``inner.value``.
    """
    if outer.nvars != 1:
        raise PreconditionError("outer jet must be univariate")
    derivs = [outer.partial((k,)) for k in range(min(outer.order, inner.order) + 1)]
    derivs += [np.zeros_like(derivs[0])] * (inner.order - len(derivs) + 1)
    return inner._compose(derivs)


def invert_univariate(j: Jet, t0: float) -> Jet:
    """Jet of the inverse function of a univariate jet.

    Given the jet of s(t) at t0 (with s'(t0) != 0), returns the jet of the
    inverse t(s) at s0 = s(t0), carrying t0 as its value.  Supports order
    up to 3, which covers reparametrization of curves.
    """
    if j.nvars != 1:
        raise PreconditionError("inversion needs a univariate jet")
    if j.order > 3:
        raise PreconditionError("inversion implemented through order 3")
    s1 = j.partial((1,))
    derivs = [np.asarray(t0, dtype=float), 1.0 / s1]
    if j.order >= 2:
        s2 = j.partial((2,))
        derivs.append(-s2 / s1 ** 3)
    if j.order >= 3:
        s3 = j.partial((3,))
        derivs.append((3 * s2 ** 2 - s1 * s3) / s1 ** 5)
    coef = np.zeros_like(j.coef)
    for k in range(j.order + 1):
        coef[k] = derivs[k] / math.factorial(k) if k < len(derivs) else 0.0
    return Jet(1, j.order, coef)


# dispatching math functions: work on jets, floats and arrays alike

def _dispatch(name):
    np_fn = getattr(np, name)

    def fn(x):
        if isinstance(x, Jet):
            return getattr(x, name)()
        return np_fn(x)

    fn.__name__ = name
    fn.__doc__ = f"{name}(x) for floats, arrays and jets."
    return fn


sin = _dispatch("sin")
cos = _dispatch("cos")
tan = _dispatch("tan")
exp = _dispatch("exp")
log = _dispatch("log")
sqrt = _dispatch("sqrt")
sinh = _dispatch("sinh")
cosh = _dispatch("cosh")


def value_of(x):
    """Point value of a jet, passthrough for plain numbers."""
    return x.value if isinstance(x, Jet) else x


def derivative1d(j: Jet) -> Jet:
    """Jet of the derivative of a univariate jet (order drops by one)."""
    if j.nvars != 1:
        raise PreconditionError("derivative1d needs a univariate jet")
    if j.order < 2:
        raise PreconditionError("cannot lower a first order jet")
    coef = np.array([j.coef[k + 1] * (k + 1) for k in range(j.order)])
    return Jet(1, j.order - 1, coef)


def antiderivative1d(j: Jet, value0) -> Jet:
    """Jet of the antiderivative of a univariate jet (order grows by one)."""
    if j.nvars != 1:
        raise PreconditionError("antiderivative1d needs a univariate jet")
    coef = np.zeros((j.order + 2,) + j.coef.shape[1:])
    coef[0] = value0
    for k in range(j.order + 1):
        coef[k + 1] = j.coef[k] / (k + 1)
    return Jet(1, j.order + 1, coef)


def derivative_nd(j: Jet, axis: int) -> Jet:
    """Jet of the partial derivative along ``axis`` (order drops by one)."""
    if j.order < 1:
        raise PreconditionError("cannot lower an order-0 jet")
    idx_lo, pos_lo, _, _, _ = _index_space(j.nvars, j.order - 1)
    _, pos_hi, _, _, _ = _index_space(j.nvars, j.order)
    coef = np.zeros((len(idx_lo),) + j.coef.shape[1:])
    for a in idx_lo:
        up = tuple(e + (1 if i == axis else 0) for i, e in enumerate(a))
        coef[pos_lo[a]] = j.coef[pos_hi[up]] * up[axis]
    return Jet(j.nvars, j.order - 1, coef)


def truncate(j: Jet, order: int) -> Jet:
    """Drop coefficients above ``order`` (graded layout makes this a prefix)."""
    if order > j.order:
        raise PreconditionError("cannot truncate upward")
    if order == j.order:
        return j
    K = len(_index_space(j.nvars, order)[0])
    return Jet(j.nvars, order, j.coef[:K].copy())


def compose_nd(outer: Jet, inners: Sequence[Jet]) -> Jet:
    """Compose a multivariate jet with inner jets: outer(inner_1, ..., inner_m).

    Each inner jet must be expanded where ``outer`` is, i.e. its value must
    equal the corresponding variable's value in ``outer``'s expansion point.
    The result lives in the inner jets' variable space, truncated at their
    order.  This is plain evaluation of the outer Taylor polynomial in jet
    arithmetic, which is exact because the shifted inners are nilpotent.
    """
    if len(inners) != outer.nvars:
        raise PreconditionError("need one inner jet per outer variable")
    idx, pos, _, _, _ = _index_space(outer.nvars, outer.order)
    deltas = [u - u.value for u in inners]
    proto = inners[0]
    out = proto._like_const(outer.coef[0] * np.ones_like(proto.coef[0]))
    pows: dict[tuple, Jet] = {}
    for a in idx[1:]:
        i = next(k for k, e in enumerate(a) if e > 0)
        pred = tuple(e - (1 if k == i else 0) for k, e in enumerate(a))
        if sum(pred) == 0:
            pj = deltas[i]
        else:
            pj = pows[pred] * deltas[i]
        pows[a] = pj
        out = out + pj * outer.coef[pos[a]]
    return out


def jet_matmul(a: Jet, b: Jet) -> Jet:
    """Matrix product of matrix-valued jets, truncated at their order.

    ``a`` has coefficients (K, r, s, ...batch) and ``b`` (K, s, ...); the
    product (K, r, ...) contracts ``s`` inside the Cauchy product of the
    Taylor coefficients.  Trailing axes broadcast as in ``np.einsum``.
    """
    _, _, gather, mask, _ = _index_space(a.nvars, a.order)
    return Jet(a.nvars, a.order,
               np.einsum('kq,kqrs...,qs...->kr...', mask, a.coef[gather], b.coef))


def jet_inv(a: Jet) -> Jet:
    """Inverse of a matrix-valued jet with coefficients (K, n, n, ...batch).

    With a = a0 (1 + a0^-1 d), where d = a - a0 has no constant term,
    a^-1 = sum_p (-a0^-1 d)^p a0^-1; the series ends at the jet order
    because d^(order+1) truncates to zero.
    """
    a0 = np.linalg.inv(np.moveaxis(a.coef[0], (0, 1), (-2, -1)))
    inv0 = Jet.constant(np.moveaxis(a0, (-2, -1), (0, 1)), a.nvars, a.order)
    d = Jet(a.nvars, a.order, a.coef.copy())
    d.coef[0] = 0.0
    out = inv0
    for _ in range(a.order):
        out = inv0 - jet_matmul(inv0, jet_matmul(d, out))
    return out


# small vector helpers that work on sequences of jets or plain numbers

def vdot(a, b):
    return sum(x * y for x, y in zip(a, b))


def vcross(a, b):
    return [a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def vtriple(a, b, c):
    """Determinant of three 3-vectors (scalar triple product a . (b x c))."""
    return vdot(a, vcross(b, c))


# ---------------------------------------------------------------------------
# ODE integration: embedded Dormand-Prince 4(5)
# ---------------------------------------------------------------------------

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                   187 / 2100, 1 / 40])
_DP_E = _DP_B5 - _DP_B4
# continuous extension (Hairer, Norsett & Wanner, Solving ODEs I, II.6)
_DP_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
                  -10690763975 / 1880347072, 701980252875 / 199316789632,
                  -1453857185 / 822651844, 69997945 / 29380423])


@dataclass
class OdeProblem:
    """An initial value problem y' = rhs(t, y).

    Parameters
    ----------
    rhs : callable (t, y) -> ndarray
        Right hand side; must return an array of ``y``'s shape.  NaN or inf
        in the output makes the controller shrink the step, so evaluating
        slightly outside the natural domain is tolerated.
    y0 : ndarray
        Initial state (flat vector).
    t_span : (float, float)
        Integration interval; t1 > t0.
    rtol, atol : float
        Error-control tolerances for the embedded pair.
    error_index : ndarray of int or None
        State components the error norm covers (all when None), so that
        sensitivities can stay out of step control, as in CVODES.
    """

    rhs: Callable[[float, np.ndarray], np.ndarray]
    y0: np.ndarray
    t_span: tuple[float, float]
    rtol: float = 1e-10
    atol: float = 1e-12
    error_index: np.ndarray | None = None


@dataclass
class Trajectory:
    """Dense solution of an :class:`OdeProblem`.

    Stores the accepted nodes ``ts``, states ``ys`` and derivatives ``fs``,
    plus one vector per step, ``dense``, that lifts the cubic Hermite
    interpolant of the step to Dormand-Prince's 4th-order continuous
    extension.  :meth:`eval` is therefore accurate to the integrator's
    tolerance everywhere and returns ``ys`` exactly at the nodes.
    ``n_rhs`` counts right-hand-side evaluations, ``n_accepted`` accepted
    steps and ``n_rejected`` steps retried with a smaller size (failed
    error test or non-finite stage).
    """

    ts: np.ndarray
    ys: np.ndarray
    fs: np.ndarray
    dense: np.ndarray
    n_rhs: int = 0
    n_accepted: int = 0
    n_rejected: int = 0

    @property
    def final(self):
        return self.ys[-1]

    def eval(self, t):
        """Dense output at scalar or array times inside the span."""
        if len(self.ts) < 2:
            raise PreconditionError("no accepted step to interpolate")
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tq = np.atleast_1d(t)
        k = np.clip(np.searchsorted(self.ts, tq, side="right") - 1, 0,
                    len(self.ts) - 2)
        t0, t1 = self.ts[k], self.ts[k + 1]
        h = t1 - t0
        s = ((tq - t0) / h)[..., None]
        y0, y1 = self.ys[k], self.ys[k + 1]
        f0, f1 = self.fs[k], self.fs[k + 1]
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        out = (h00 * y0 + h10 * h[..., None] * f0 + h01 * y1
               + h11 * h[..., None] * f1 + (s * (1 - s)) ** 2 * self.dense[k])
        return out[0] if scalar else out


def integrate_ode(problem: OdeProblem, must_hit: Sequence[float] = ()) -> Trajectory:
    """Integrate an :class:`OdeProblem` with the Dormand-Prince 4(5) pair.

    Parameters
    ----------
    problem : OdeProblem
    must_hit : sequence of float
        Interior times the accepted mesh must land on exactly.

    Returns
    -------
    Trajectory

    Raises
    ------
    StepUnderflowError
        When the controller cannot make progress; the exception carries the
        accepted part of the trajectory, its last state and whether NaNs
        drove the failure.
    """
    t0, t1 = map(float, problem.t_span)
    if not t1 > t0:
        raise PreconditionError("t_span must satisfy t1 > t0")
    y = np.array(problem.y0, dtype=float)
    rtol, atol = problem.rtol, problem.atol
    sel = slice(None) if problem.error_index is None else problem.error_index
    hits = sorted(t for t in set(float(t) for t in must_hit) if t0 < t < t1)
    hits.append(t1)

    n_rhs = 0

    def f(t, yy):
        nonlocal n_rhs
        n_rhs += 1
        out = np.asarray(problem.rhs(t, yy), dtype=float)
        return out

    k1 = f(t0, y)
    scale0 = atol + rtol * np.abs(y)
    d0 = np.sqrt(np.mean((y[sel] / scale0[sel]) ** 2)) if y.size else 0.0
    d1 = np.sqrt(np.mean((k1[sel] / scale0[sel]) ** 2))
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    h = min(h, t1 - t0)

    ts, ys, fs, dense = [t0], [y.copy()], [k1.copy()], []
    t = t0
    hmin = 1e-14 * max(abs(t0), abs(t1), 1.0)
    hit_i = 0
    nan_fail = 0
    n_rejected = 0

    def trajectory():
        return Trajectory(np.array(ts), np.array(ys), np.array(fs),
                          np.reshape(dense, (len(ts) - 1,) + y.shape),
                          n_rhs=n_rhs, n_accepted=len(ts) - 1,
                          n_rejected=n_rejected)

    def underflow(message, nan_seen):
        return StepUnderflowError(message, t, y, nan_seen, trajectory())

    while t < t1 - hmin:
        while hit_i < len(hits) and hits[hit_i] <= t + hmin:
            hit_i += 1
        target = hits[hit_i] if hit_i < len(hits) else t1
        clamped = False
        if t + h >= target - hmin:
            h = target - t
            clamped = True
        if h < hmin:
            raise underflow(f"step size underflow at t={t:.6g}", nan_fail > 0)

        ks = [k1]
        bad = False
        for i in range(1, 7):
            yi = y + h * sum(a * k for a, k in zip(_DP_A[i], ks))
            if not np.all(np.isfinite(yi)):
                bad = True
                break
            ki = f(t + _DP_C[i] * h, yi)
            if not np.all(np.isfinite(ki)):
                bad = True
                break
            ks.append(ki)
        if bad:
            nan_fail += 1
            n_rejected += 1
            h *= 0.5
            if h < hmin:
                raise underflow("right hand side produced non-finite values "
                                f"near t={t:.6g}", True)
            continue

        y_new = yi  # stage 7 state equals the 5th order solution (FSAL)
        err_vec = h * sum(e * k for e, k in zip(_DP_E, ks))
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = np.sqrt(np.mean((err_vec[sel] / scale[sel]) ** 2))

        if err <= 1.0:
            dense.append(h * sum(d * k for d, k in zip(_DP_D, ks)))
            t = t + h
            y = y_new
            k1 = ks[6]
            ts.append(t)
            ys.append(y.copy())
            fs.append(k1.copy())
            nan_fail = 0
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            if clamped:
                factor = max(factor, 1.0)
            h = h * factor
        else:
            n_rejected += 1
            h *= min(1.0, max(0.1, 0.9 * err ** -0.2))
            if h < hmin:
                raise underflow(f"error control stalled at t={t:.6g}", False)

    return trajectory()


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def _gauss_legendre_rule(fn, box, tol):
    """Tensor Gauss-Legendre integral of ``fn`` over ``box``, a list of
    (lo, hi) intervals.

    ``fn`` receives one node array per axis (the ``indexing="ij"`` grid)
    and returns values of the grid's shape, optionally with leading
    component axes.  The nodes per axis double from 8 to 256 until two
    successive rules agree within ``max(tol, tol * max|value|)``; the finer
    rule's value is returned with that difference as its error estimate.
    """
    previous = None
    for n in (8, 16, 32, 64, 128, 256):
        rules = [gauss_legendre(n, lo, hi) for lo, hi in box]
        nodes = np.meshgrid(*(x for x, _ in rules), indexing="ij")
        weights = rules[0][1]
        for _, w in rules[1:]:
            weights = np.multiply.outer(weights, w)
        value = np.tensordot(np.asarray(fn(*nodes), dtype=float), weights,
                             axes=len(box))
        if previous is not None:
            err = float(np.max(np.abs(value - previous)))
            if err <= max(tol, tol * float(np.max(np.abs(value)))):
                return (float(value) if value.ndim == 0 else value), err
        previous = value
    raise QuadratureError(
        f"Gauss-Legendre rule did not converge at {n} nodes per axis "
        f"(error estimate {err:.3g})", value, err)


def quadrature(fn, a, b, tol=1e-10):
    """Integral of ``fn`` on [a, b]; ``fn`` maps an array of nodes to an
    array of values (with optional leading component axes).

    Returns (value, error_estimate).  Raises :class:`QuadratureError` when
    256 Gauss-Legendre nodes do not reach the tolerance.
    """
    return _gauss_legendre_rule(fn, [(a, b)], tol)


def quadrature2d(fn, a, b, c, d, tol=1e-9):
    """Double integral of fn(u, v) over [a,b] x [c,d]; ``u`` and ``v`` are
    the node grids and the result is as for :func:`quadrature`."""
    return _gauss_legendre_rule(fn, [(a, b), (c, d)], tol)


def gauss_legendre(n, a, b):
    """Nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


# ---------------------------------------------------------------------------
# Richardson extrapolation
# ---------------------------------------------------------------------------


@dataclass
class ExtrapolationLadder:
    """Samples f(h) on a halving ladder of step sizes.

    Parameters
    ----------
    hs : array of step sizes, strictly decreasing, ratio 2 between rungs
    fs : corresponding samples
    p : leading error order of the expansion f(h) = L + c h^p + ...
    stride : gap between consecutive error orders (defaults to p, so p=2
        models even-power expansions h^2, h^4, ... and p=1 models full
        expansions h, h^2, ...)
    """

    hs: np.ndarray
    fs: np.ndarray
    p: int = 2
    stride: int | None = None


@dataclass
class RichardsonResult:
    value: float
    error: float
    monotone: bool
    table: list


def richardson(ladder: ExtrapolationLadder) -> RichardsonResult:
    """Richardson-extrapolate a ladder of samples.

    Builds the standard triangular tableau assuming error orders
    p, p+stride, p+2*stride, ... and a step ratio of 2.  The returned
    ``error`` is the last diagonal increment; ``monotone`` is False when
    the diagonal increments fail to shrink, which flags ladders whose
    asymptotic regime was not reached (callers surface this as a warning).
    """
    hs = np.asarray(ladder.hs, dtype=float)
    fs = np.asarray(ladder.fs, dtype=float)
    if len(hs) < 2:
        raise PreconditionError("ladder needs at least two rungs")
    ratios = hs[:-1] / hs[1:]
    if not np.allclose(ratios, 2.0, rtol=1e-8):
        raise PreconditionError("ladder must halve the step between rungs")
    stride = ladder.stride if ladder.stride is not None else ladder.p
    rows = [list(fs)]
    col = list(fs)
    for j in range(1, len(fs)):
        power = 2.0 ** (ladder.p + (j - 1) * stride)
        col = [(power * col[i + 1] - col[i]) / (power - 1.0)
               for i in range(len(col) - 1)]
        rows.append(list(col))
    diag = [rows[j][-1] for j in range(len(rows))]
    increments = [abs(diag[j + 1] - diag[j]) for j in range(len(diag) - 1)]
    monotone = all(increments[i + 1] <= increments[i] * 1.5
                   for i in range(len(increments) - 1))
    error = increments[-1] if increments else math.inf
    return RichardsonResult(diag[-1], error, monotone, rows)


# ---------------------------------------------------------------------------
# generalized symmetric eigenproblem (2x2)
# ---------------------------------------------------------------------------


def generalized_symmetric_eigen(q, g, tie_tol=1e-10):
    """Solve det(q - lam*g) = 0 for symmetric 2x2 ``q`` and SPD 2x2 ``g``.

    Returns
    -------
    lams : ndarray (2,)
        Eigenvalues, descending.
    vecs : ndarray (2, 2)
        Columns are g-orthonormal eigenvectors (g(v, v) = 1), sign-fixed so
        the first nonzero component is positive.
    degenerate : bool
        True when the eigenvalues are equal to within ``tie_tol`` relative
        to their scale; in that case any direction is an eigendirection and
        the returned basis is the canonical one: the first coordinate
        direction normalized, and its g-orthogonal complement.
    """
    q = np.asarray(q, dtype=float)
    g = np.asarray(g, dtype=float)
    if q.shape != (2, 2) or g.shape != (2, 2):
        raise PreconditionError("q and g must be 2x2")
    if abs(q[0, 1] - q[1, 0]) > 1e-12 * (1 + np.abs(q).max()):
        raise PreconditionError("q must be symmetric")
    detg = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if g[0, 0] <= 0 or detg <= 0:
        raise PreconditionError("g must be symmetric positive definite")

    a = detg
    b = -(q[0, 0] * g[1, 1] + q[1, 1] * g[0, 0] - 2.0 * q[0, 1] * g[0, 1])
    c = q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0]
    disc = max(b * b - 4 * a * c, 0.0)
    root = math.sqrt(disc)
    lam_hi = (-b + root) / (2 * a)
    lam_lo = (-b - root) / (2 * a)

    scale = max(abs(lam_hi), abs(lam_lo), 1e-300)
    degenerate = abs(lam_hi - lam_lo) <= tie_tol * max(scale, 1.0)

    def g_normalize(v):
        nrm = math.sqrt(max(v @ g @ v, 0.0))
        v = v / nrm
        lead = v[0] if abs(v[0]) > 1e-14 else v[1]
        return v if lead > 0 else -v

    if degenerate:
        v1 = g_normalize(np.array([1.0, 0.0]))
        # g-orthogonal complement of the first coordinate direction
        w = np.array([-g[0, 1], g[0, 0]])
        v2 = g_normalize(w)
        return np.array([lam_hi, lam_lo]), np.column_stack([v1, v2]), True

    vecs = []
    for lam in (lam_hi, lam_lo):
        m = q - lam * g
        r = 0 if np.hypot(*m[0]) >= np.hypot(*m[1]) else 1
        v = np.array([-m[r, 1], m[r, 0]])
        vecs.append(g_normalize(v))
    return np.array([lam_hi, lam_lo]), np.column_stack(vecs), False
