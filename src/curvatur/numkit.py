"""Numerical kernel: jets, ODE integration, quadrature, extrapolation, eigen.

Design notes
------------
All derivatives in this package flow through :class:`Jet`, a truncated
multivariate Taylor expansion with numpy-array coefficients.  A jet carries
every mixed partial of its function up to ``order`` at one point (or at a
whole batch of points at once: coefficients may have trailing batch axes).
Arithmetic on jets is exact Taylor arithmetic, so no step-size tuning and no
cancellation error ever enters a derivative.  Every Taylor product, in
``Jet.__mul__`` and in :func:`jet_einsum`, runs over the valid (k, i, j)
triples of the truncated Cauchy product only (Griewank & Walther, Evaluating
Derivatives, 2nd ed., ch. 13): one gather of the P products a_i b_j per call,
then one (K x P) 0/1 matrix that sums them into their K output slots.  The
triples are cached per (nvars, order) by :func:`_index_space`.  Batch axes
of two operands broadcast as numpy broadcasts array axes, aligned from the
right.  Elementary functions sum their series in Horner form over the
nilpotent u - u0, except sin, cos, sinh and cosh, whose pairs share one
chain of powers of u through the addition theorem; :func:`gradient` reads
all first partials in one gather.  A jet whose batch axes start with tensor axes is a tensor-valued
jet, the one form of vectors and tensors of jets in the package:
:func:`jet_stack` builds one from an evaluator's lists, :func:`jet_einsum`
contracts two in a single batched pass, :func:`vdot` and :func:`vcross`
act on its component axis, and the compositions take all its components
at once; a jet solved against a matrix-valued one (the Christoffel
symbols against the metric) is solved order by order.
Finite differences appear in this package only inside clearly named
cross-check oracles.

The ODE integrator is one adaptive step loop over two embedded pairs,
Dormand-Prince 5(4) (DOPRI5, the default, with its 4th-order dense output)
and 8(5,3) (DOP853, with its 7th-order dense output computed on first
read).  DOP853 serves the long tight geodesic traces and the tight distance
shots; DOPRI5 the short fans and everything else.  It integrates flat state
vectors; callers that want many geodesics at once flatten a (lanes, dim)
state and share step control across lanes, which is how the circle and
volume routines stay fast.  Every solve adds its counters to one running
total, which a :func:`solver_cost` block reads around any computation.

Quadrature is a tensor Gauss-Legendre rule that doubles its nodes per axis
until two successive rules agree.  Integrands see whole node arrays, so a
surface integral costs a few batched jet evaluations, not one per point.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
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
    """Raised when error control stalls; a solve stopped by non-finite
    stages returns instead (:func:`integrate_ode`).

    Attributes
    ----------
    t : float
        Time of the last accepted state.
    y : ndarray
        Last accepted state vector.
    trajectory : Trajectory
        The accepted steps up to ``t``, with their dense output.
    """

    def __init__(self, message, t, y, trajectory):
        super().__init__(message)
        self.t = t
        self.y = np.asarray(y)
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
    triples : (I, J, M), the P valid triples (k, i, j) with idx[i] + idx[j]
        = idx[k], ordered by k, then j: ``I`` and ``J`` are (P,) int arrays
        of the slots i and j, and ``M`` is the (K, P) 0/1 matrix that sums
        each triple's product into slot k
    mask : (K, K) float array, 1.0 where idx[k] - idx[j] is a multi-index
        (P = mask.sum())
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
    mask = np.zeros((K, K))
    I = []
    for k, ak in enumerate(idx):
        for j, aj in enumerate(idx):
            diff = tuple(x - y for x, y in zip(ak, aj))
            if min(diff) >= 0:
                mask[k, j] = 1.0
                I.append(pos[diff])
    rows, J = np.nonzero(mask)
    M = (rows == np.arange(K)[:, None]).astype(float)
    fact = np.array([math.prod(math.factorial(e) for e in a) for a in idx], dtype=float)
    return idx, pos, (np.array(I, dtype=np.intp), J, M), mask, fact


@lru_cache(maxsize=None)
def _unit_slots(nvars: int):
    """(variable, slot) index arrays of the unit multi-index of each variable:
    the graded lexicographic layout puts variable i at slot nvars - i."""
    return np.arange(nvars), np.arange(nvars, 0, -1)


def _taylor_sum(M, terms):
    """Sum the per-triple products ``terms`` (P, ...) into their K slots."""
    return (M @ terms.reshape(len(terms), -1)).reshape(M.shape[:1] + terms.shape[1:])


_INV_FACT = (1.0, 1.0, 1 / 2, 1 / 6, 1 / 24)      # 1 / k!, k = 0 .. MAX_ORDER


def _broadcast(a, b):
    """Two coefficient arrays with their batch axes aligned from the right:
    the lower-rank one gains unit axes right after its Taylor axis."""
    d = a.ndim - b.ndim
    if d > 0:
        b = b.reshape(b.shape[:1] + (1,) * d + b.shape[1:])
    elif d < 0:
        a = a.reshape(a.shape[:1] + (1,) * -d + a.shape[1:])
    return a, b


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
        self.coef = coef if type(coef) is np.ndarray and coef.dtype == float \
            else np.asarray(coef, dtype=float)

    # -- construction -------------------------------------------------

    @staticmethod
    def variables(values, order):
        """One jet per independent variable, seeded at ``values`` (nvars,
        ...) or a sequence of scalars, whose trailing axes become batch axes,
        to ``order`` 0 .. MAX_ORDER (0 carries values only, for plain reads).
        The jets are views of one (nvars, K, ...) array, written with the
        values and the unit slots in two stores."""
        values = np.asarray(values, dtype=float)
        nvars = values.shape[0]
        K = len(_index_space(nvars, order)[0])
        coef = np.zeros((nvars, K) + values.shape[1:])
        coef[:, 0] = values
        if order:
            coef[_unit_slots(nvars)] = 1.0
        return [Jet(nvars, order, c) for c in coef]

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
        """First partials, shape (nvars, ...): a view of slots nvars .. 1,
        which the graded lexicographic layout gives the unit multi-indices
        of the last variable first."""
        if self.order < 1:
            raise PreconditionError("an order-0 jet has no gradient")
        return self.coef[self.nvars:0:-1]

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
            a, b = _broadcast(self.coef, o.coef)
            return Jet(self.nvars, self.order, a + b)
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
        a, b = _broadcast(self.coef, o.coef)
        _, _, (I, J, M), _, _ = _index_space(self.nvars, self.order)
        return Jet(self.nvars, self.order, _taylor_sum(M, a[I] * b[J]))

    __rmul__ = __mul__

    def reciprocal(self):
        v = self.coef[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._binomial(-1.0, 1.0 / v, v)

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
        v = self.coef[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._binomial(p, np.power(v, p), v)

    # -- composition with a scalar function ---------------------------

    def _compose(self, *series):
        """``f(self)`` for each series c_k = f^(k)(value) / k!, k = 0 ..
        order, of an f: one jet per series, each summed in Horner form
        c_0 + u (c_1 + u (c_2 + ...)) over the nilpotent u = self - value,
        so order m costs m - 1 Taylor products sharing one gather of u
        (Griewank & Walther, Evaluating Derivatives, 13.2).  The c_k
        broadcast against the batch axes of ``self``, tensor axes of a
        composition included."""
        n = self.order
        u = self.coef.copy()
        u[0] = 0.0
        if not n:                       # values only
            return [Jet(self.nvars, 0, u + c[0]) for c in series]
        _, _, (I, J, M), _, _ = _index_space(self.nvars, n)
        uI = u[I]
        outs = []
        for c in series:
            acc = u * c[n]
            for k in range(n - 1, 0, -1):
                acc[0] += c[k]
                acc = _taylor_sum(M, uI * acc[J])
            acc[0] += c[0]
            outs.append(Jet(self.nvars, n, acc))
        return outs

    def _binomial(self, p, head, v):
        """``self ** p`` from head = v^p at the value v, through the
        coefficients binom(p, k) head / v^k of the binomial series."""
        c = [head]
        for k in range(1, self.order + 1):
            c.append(c[-1] * ((p - k + 1) / k) / v)
        return self._compose(c)[0]

    def _cycle(self, f, g, sign, *starts):
        """One jet per start (0: f, 1: g) of a pair with f' = g, g' = sign f
        (sin and cos, or sinh and cosh), by the addition theorem
        f(x0 + u) = f0 C(u) + g0 S(u), g(x0 + u) = g0 C(u) + sign f0 S(u)
        over the nilpotent u = self - x0, where C and S are the pair's even
        and odd series at 0.  Both read one chain of powers u^2 .. u^order,
        so order m costs m - 1 Taylor products for the whole pair."""
        n = self.order
        x0 = self.coef[0]
        S = self.coef.copy()            # u, then S(u)
        S[0] = 0.0
        C = None                        # C(u) - 1
        if n > 1:
            _, _, (I, J, M), _, _ = _index_space(self.nvars, n)
            uI, power = S[I], S
            for k in range(2, n + 1):
                power = _taylor_sum(M, uI * power[J])
                term = power * (sign ** (k // 2) * _INV_FACT[k])
                if k % 2:
                    S += term
                elif C is None:
                    C = term
                else:
                    C += term
        f0, g0 = f(x0), g(x0)
        outs = []
        for i, m in enumerate(starts):
            a, b = (f0, g0) if m == 0 else (g0, sign * f0)
            last = i == len(starts) - 1    # S and C are free to overwrite
            out = np.multiply(b, S, out=S if last else None)
            if C is not None:
                out += np.multiply(a, C, out=C if last else None)
            out[0] = a                  # S(0) = C(0) - 1 = 0
            outs.append(Jet(self.nvars, n, out))
        return outs

    def sin(self):
        return self._cycle(np.sin, np.cos, -1, 0)[0]

    def cos(self):
        return self._cycle(np.sin, np.cos, -1, 1)[0]

    def sincos(self):
        """``(self.sin(), self.cos())``, from one sin and cos of the value."""
        return tuple(self._cycle(np.sin, np.cos, -1, 0, 1))

    def tan(self):
        t = np.tan(self.coef[0])
        sec2 = 1.0 + t * t
        c = [t, sec2, t * sec2, sec2 * (1 / 3 + t * t),
             sec2 * t * (2 / 3 + t * t)]
        return self._compose(c[: self.order + 1])[0]

    def exp(self):
        e = np.exp(self.coef[0])
        return self._compose([e * f for f in _INV_FACT[: self.order + 1]])[0]

    def log(self):
        v = self.coef[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            w = -1.0 / v                # c_k = (-1)^(k-1) / (k v^k)
            return self._compose([np.log(v)] + [-w ** k / k for k in range(
                1, self.order + 1)])[0]

    def sqrt(self):
        v = self.coef[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._binomial(0.5, np.sqrt(v), v)

    def sinh(self):
        return self._cycle(np.sinh, np.cosh, 1, 0)[0]

    def cosh(self):
        return self._cycle(np.sinh, np.cosh, 1, 1)[0]

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

    ``outer`` must be a 1-variable jet expanded at ``inner.value``; a
    tensor-valued one keeps its tensor axes, all in one Horner sum.
    """
    if outer.nvars != 1:
        raise PreconditionError("outer jet must be univariate")
    u, c = _broadcast(inner.coef, outer.coef)
    c = list(c[: inner.order + 1])
    c += [np.zeros_like(c[0])] * (inner.order + 1 - len(c))
    return Jet(inner.nvars, inner.order, u)._compose(c)[0]


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


def antiderivative1d(j: Jet, value0) -> Jet:
    """Jet of the antiderivative of a univariate jet (order grows by one)."""
    if j.nvars != 1:
        raise PreconditionError("antiderivative1d needs a univariate jet")
    coef = np.zeros((j.order + 2,) + j.coef.shape[1:])
    coef[0] = value0
    for k in range(j.order + 1):
        coef[k + 1] = j.coef[k] / (k + 1)
    return Jet(1, j.order + 1, coef)


@lru_cache(maxsize=None)
def _gradient_table(nvars: int, order: int):
    """For a jet of ``order`` and each slot of an order ``order - 1`` jet:
    the slot that d/d(axis a) moves there and its exponent factor, as two
    (K', nvars) arrays over (slot, a)."""
    if order < 1:
        raise PreconditionError("cannot lower an order-0 jet")
    pos_hi = _index_space(nvars, order)[1]
    up = [[tuple(e + (i == a) for i, e in enumerate(m)) for a in range(nvars)]
          for m in _index_space(nvars, order - 1)[0]]
    return (np.array([[pos_hi[u] for u in row] for row in up], dtype=np.intp),
            np.array([[u[a] for a, u in enumerate(row)] for row in up], float))


def _lower(coef, src, fac):
    """``coef[src]`` times the exponent factors ``fac`` of a gradient table
    (or of one of its columns), over the trailing axes of ``coef``."""
    return coef[src] * fac.reshape(fac.shape + (1,) * (coef.ndim - 1))


def gradient(j: Jet) -> Jet:
    """Jet of all first partials, one order lower, with the derivative axis
    a as a new tensor axis right after the Taylor axis: coefficients
    (K', nvars, ...), one gather for every axis."""
    return Jet(j.nvars, j.order - 1,
               _lower(j.coef, *_gradient_table(j.nvars, j.order)))


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
    A tensor-valued ``outer`` keeps its tensor axes.
    """
    if len(inners) != outer.nvars:
        raise PreconditionError("need one inner jet per outer variable")
    idx, pos, _, _, _ = _index_space(outer.nvars, outer.order)
    # the inners gain unit axes where outer has tensor axes
    padded = [_broadcast(u.coef, outer.coef)[0] for u in inners]
    deltas = [Jet(u.nvars, u.order, c) - c[0] for u, c in zip(inners, padded)]
    coef = np.zeros(padded[0].shape[:1] + np.broadcast_shapes(
        padded[0].shape[1:], outer.coef.shape[1:]))
    coef[0] = outer.coef[0]
    out = Jet(inners[0].nvars, inners[0].order, coef)
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


@lru_cache(maxsize=None)
def _triple_spec(subscripts: str) -> str:
    """``subscripts`` with the triple axis P prepended to every operand."""
    inputs, out = subscripts.split("->")
    sa, sb = inputs.split(",")
    return f"P{sa},P{sb}->P{out}"


def jet_einsum(subscripts: str, a: Jet, b: Jet) -> Jet:
    """Contraction of two tensor-valued jets, truncated at their order.

    ``subscripts`` is an ``np.einsum`` spec over the tensor and batch axes
    only, e.g. ``"rs...,s...->r..."`` for a matrix product; the Taylor axes
    are contracted inside the Cauchy product, over the valid triples under
    the reserved label P.  Trailing axes broadcast as in ``np.einsum``.
    """
    _, _, (I, J, M), _, _ = _index_space(a.nvars, a.order)
    return Jet(a.nvars, a.order, _taylor_sum(
        M, np.einsum(_triple_spec(subscripts), a.coef[I], b.coef[J])))


def jet_stack(nested, like: Jet) -> Jet:
    """One jet from nested lists of jets and constants, at their common
    (lowest) order; constants become constant jets shaped like ``like``.

    Each level of nesting becomes a tensor axis right after the Taylor
    axis, so ``[[g11, g12], [g21, g22]]`` gives coefficients (K, 2, 2, ...).
    """
    if not isinstance(nested, (list, tuple)):
        return as_jet(nested, like)
    parts = [jet_stack(p, like) for p in nested]
    m = min(p.order for p in parts)
    return Jet(like.nvars, m,
               np.stack([truncate(p, m).coef for p in parts], axis=1))


_NEXT, _AFTER = [1, 2, 0], [2, 0, 1]
_CHECKER = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _matrix_inv(m):
    """Inverses of the (n, n, ...batch) matrices ``m``, n in {2, 3}, from the
    adjugate: whole-array products over the batch axes, no per-lane solve."""
    n = m.shape[0]
    if n == 2:
        # [[m11, -m01], [-m10, m00]]: m flipped on both axes, transposed
        adj = m[::-1, ::-1].swapaxes(0, 1) * _CHECKER.reshape(
            (2, 2) + (1,) * (m.ndim - 2))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    elif n == 3:
        # cyclic cofactors carry their own signs: C_ij = m[i+1, j+1] m[i+2, j+2]
        # - m[i+1, j+2] m[i+2, j+1], indices mod 3
        m1, m2 = m.take(_NEXT, 0), m.take(_AFTER, 0)
        cof = (m1.take(_NEXT, 1) * m2.take(_AFTER, 1)
               - m1.take(_AFTER, 1) * m2.take(_NEXT, 1))
        adj = cof.swapaxes(0, 1)
        det = (m[0] * cof[0]).sum(axis=0)
    else:
        raise PreconditionError(f"matrix inverse supports n = 2 or 3, got {n}")
    if not np.all(det):
        raise np.linalg.LinAlgError("Singular matrix")
    return np.divide(adj, det, order="C")   # C order for the batched einsums


# vector helpers on the component axis: axis 1 of a tensor-valued jet's
# coefficients (right after the Taylor axis), axis 0 of an array


def _components(x, which):
    """The components ``which`` (a list of indices) of a jet or an array."""
    if isinstance(x, Jet):
        return Jet(x.nvars, x.order, x.coef[:, which])
    return x[which]


def vdot(a, b):
    """sum_i a_i b_i over the component axis, summed in component order."""
    p = a * b
    if isinstance(p, Jet):
        return Jet(p.nvars, p.order, p.coef.sum(axis=1))
    return p.sum(axis=0)


def vcross(a, b):
    """a x b of 3-vectors, all three components in two products."""
    return (_components(a, _NEXT) * _components(b, _AFTER)
            - _components(a, _AFTER) * _components(b, _NEXT))


def vtriple(a, b, c):
    """Determinant of three 3-vectors (scalar triple product a . (b x c))."""
    return vdot(a, vcross(b, c))


# ---------------------------------------------------------------------------
# ODE integration: embedded Runge-Kutta pairs DOPRI5 and DOP853
# ---------------------------------------------------------------------------
# Tableau rows are written with their nonzero entries only, as {stage:
# coefficient}; a pair holds them as dense arrays, so that a stage input, an
# error vector or a dense vector is one product with the stages.


def _combine(rows, ks):
    """sum_j rows[..., j] ks[j] over the stages ks (s, N), summed in stage
    order as a Python sum would be, so it rounds as that sum does."""
    return np.einsum("...j,jn->...n", rows, ks)


def _dense(rows, width):
    """Tableau rows {stage: coefficient} as one (len(rows), width) array."""
    out = np.zeros((len(rows), width))
    for r, row in enumerate(rows):
        out[r, list(row)] = list(row.values())
    return out


class RungeKuttaPair:
    """An explicit embedded Runge-Kutta pair in first-same-as-last form.

    Stage i < ``stages`` of a step of size h from (t, y) is
    k_i = f(t + c_i h, y + h sum_j a_ij k_j); rows of ``a`` past them are
    dense-output stages.  The last stage row holds the solution weights, so
    the last stage is f(t + h, y_new) and starts the next step.  ``e`` and
    ``d`` hold the rows of the error estimates and dense vectors.
    ``exponent`` is -1/(q + 1) for an error estimate of order q, and
    ``grow`` the largest factor by which h grows after an accepted step.  A
    pair picks its first step, computes its scaled error norm, says what an
    accepted step stores for dense output and interpolates between nodes.
    """

    def __init__(self, c, a, stages, e, d, exponent, grow):
        self.c, self.a, self.stages = c, _dense(a, len(a)), stages
        self.e, self.d = _dense(e, stages), _dense(d, len(a))
        self.exponent, self.grow = exponent, grow

    def first_step(self, f, t0, y, k1, h, rms):
        return h


class _Dopri5(RungeKuttaPair):
    """Dormand-Prince 5(4): 6 new stages per step and the pair's 4th-order
    continuous extension, one stored vector per step."""

    def error_norm(self, h, ks, scale, sel):
        err_vec = h * _combine(self.e[0], ks)
        return np.sqrt(np.mean((err_vec[sel] / scale[sel]) ** 2))

    def step_dense(self, h, ks):
        return h * _combine(self.d[0], ks)

    def interpolate(self, traj, k, s):
        """Cubic Hermite on the step plus s^2 (1 - s)^2 times its vector."""
        h = (traj.ts[k + 1] - traj.ts[k])[..., None]
        y0, y1 = traj.ys[k], traj.ys[k + 1]
        f0, f1 = traj.fs[k], traj.fs[k + 1]
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return (h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1
                + (s * (1 - s)) ** 2 * np.array([traj.dense[i] for i in k]))


class _Dop853(RungeKuttaPair):
    """Dormand-Prince 8(5,3): 12 new stages per step, and the 7th-order
    interpolant, whose 3 extra stages are computed on the first read of a
    step (Hairer, Norsett & Wanner, Solving ODEs I, II.10)."""

    def first_step(self, f, t0, y, k1, h, rms):
        """Hairer's starting step for order 8: one explicit Euler probe of
        size ``h`` estimates y'' (Solving ODEs I, II.4)."""
        d2 = rms(f(t0 + h, y + h * k1) - k1) / h
        if not np.isfinite(d2):
            return h
        d = max(rms(k1), d2)
        return min(100 * h, (0.01 / d) ** (1 / 8) if d > 1e-15
                   else max(1e-6, 1e-3 * h))

    def error_norm(self, h, ks, scale, sel):
        """The 5th- and 3rd-order estimates combined as in dop853.f."""
        e5, e3 = (_combine(row, ks)[sel] / scale[sel] for row in self.e)
        # einsum, not a BLAS dot, whose rounding hangs on operand placement
        n5, n3 = (float(np.einsum('i,i->', e, e)) for e in (e5, e3))
        den = n5 + 0.01 * n3
        return abs(h) * n5 / math.sqrt(den * e5.size) if den > 0 else 0.0

    def step_dense(self, h, ks):
        return ks                 # the stages, until the step is first read

    def interpolate(self, traj, k, s):
        """r y0 + s y1 + s r (F1 + s (F2 + r (F3 + s (F4 + r (F5 + s F6)))))
        with r = 1 - s, F3..F6 the step's dense vectors and F1, F2 from the
        end values and slopes; exact at both nodes."""
        for i in np.unique(k):
            if len(traj.dense[i]) == self.stages:
                traj.dense[i] = self._dense_vectors(traj, i)
        F = np.array([traj.dense[i] for i in k])             # (Q, 4, N)
        h = (traj.ts[k + 1] - traj.ts[k])[:, None]
        y0, y1 = traj.ys[k], traj.ys[k + 1]
        dy = y1 - y0
        r = 1 - s
        p = F[:, 2] + s * F[:, 3]
        p = F[:, 1] + r * p
        p = F[:, 0] + s * p
        p = 2 * dy - h * (traj.fs[k] + traj.fs[k + 1]) + r * p
        p = h * traj.fs[k] - dy + s * p
        return r * y0 + s * y1 + s * r * p

    def _dense_vectors(self, traj, i):
        """Step i's four dense vectors, from its stages and 3 dense ones."""
        t, h, y = traj.ts[i], traj.ts[i + 1] - traj.ts[i], traj.ys[i]
        ks = np.empty((len(self.a), len(y)))
        ks[:self.stages] = traj.dense[i]
        for j in range(self.stages, len(self.a)):
            ks[j] = traj.rhs(t + self.c[j] * h,
                             y + h * _combine(self.a[j, :j], ks[:j]))
        _charge(0, 0, 0, len(self.a) - self.stages)
        return h * _combine(self.d, ks)


_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    {},
    {0: 1 / 5},
    {0: 3 / 40, 1: 9 / 40},
    {0: 44 / 45, 1: -56 / 15, 2: 32 / 9},
    {0: 19372 / 6561, 1: -25360 / 2187, 2: 64448 / 6561, 3: -212 / 729},
    {0: 9017 / 3168, 1: -355 / 33, 2: 46732 / 5247, 3: 49 / 176,
     4: -5103 / 18656},
    {0: 35 / 384, 2: 500 / 1113, 3: 125 / 192, 4: -2187 / 6784, 5: 11 / 84},
]
_DP_B4 = {0: 5179 / 57600, 2: 7571 / 16695, 3: 393 / 640, 4: -92097 / 339200,
          5: 187 / 2100, 6: 1 / 40}
_DP_E = {j: _DP_A[6].get(j, 0.0) - b for j, b in _DP_B4.items()}
# continuous extension (Hairer, Norsett & Wanner, Solving ODEs I, II.6)
_DP_D = {0: -12715105075 / 11282082432, 2: 87487479700 / 32700410799,
         3: -10690763975 / 1880347072, 4: 701980252875 / 199316789632,
         5: -1453857185 / 822651844, 6: 69997945 / 29380423}

# DOP853 (Hairer's dop853.f), rounded to the nearest double.  Rows 0-12 are
# the step, row 12 the solution weights; rows 13-15 are the dense stages.
_DOP853_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778])
_DOP853_A = [
    {},
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596,
     5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
     5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
     5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
     8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
     5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
     8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
     5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
     8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
     7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
     10: 0.20136540080403034, 11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
     7: -0.05492374857139099, 10: -0.00010834732869724932,
     11: 0.0003825710908356584, 12: -0.00034046500868740456,
     13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
     7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
     13: 2.9475147891527724, 14: -9.15095847217987},
]
_DOP853_E5 = {0: 0.01312004499419488, 5: -1.2251564463762044,
              6: -0.4957589496572502, 7: 1.6643771824549864,
              8: -0.35032884874997366, 9: 0.3341791187130175,
              10: 0.08192320648511571, 11: -0.022355307863886294}
_DOP853_D = [
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
     7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973,
     10: 2.2404374302607883, 11: 0.6315787787694688, 12: -0.08899033645133331,
     13: 18.148505520854727, 14: -9.194632392478356, 15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
     7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
     10: -30.674084731089398, 11: -9.332130526430229, 12: 15.697238121770845,
     13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
     7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963,
     10: -1.0006050966910838, 11: 0.7777137798053443, 12: -2.778205752353508,
     13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
     7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163,
     10: 104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114,
     13: 96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564},
]
# 3rd-order estimate: the solution weights less dop853.f's bhh1..bhh3
_DOP853_E3 = {**_DOP853_A[12], 0: _DOP853_A[12][0] - 0.2440944881889764,
              8: _DOP853_A[12][8] - 0.7338466882816118,
              11: _DOP853_A[12][11] - 0.022058823529411766}

DOPRI5 = _Dopri5(_DP_C, _DP_A, 7, [_DP_E], [_DP_D], -0.2, 5.0)
DOP853 = _Dop853(_DOP853_C, _DOP853_A, 13, [_DOP853_E5, _DOP853_E3],
                 _DOP853_D, -1 / 8, 10.0)


@dataclass
class OdeProblem:
    """An initial value problem y' = rhs(t, y).

    Parameters
    ----------
    rhs : callable (t, y) -> ndarray
        Right hand side; must return an array of ``y``'s shape.  NaN or inf
        in the output halves the step, so evaluating slightly outside the
        natural domain is tolerated, and a solve that cannot pass them stops.
    y0 : ndarray
        Initial state (flat vector).
    t_span : (float, float)
        Integration interval: finite, with t1 > t0.
    rtol, atol : float
        Error-control tolerances for the embedded pair.
    error_index : ndarray of int or None
        State components the error norm covers (all when None), so that
        sensitivities can stay out of step control, as in CVODES.
    pair : RungeKuttaPair
        :data:`DOPRI5` (6 RHS evaluations per step) or :data:`DOP853` (12
        per step, plus 3 for each step whose dense output is read).  Since
        a pair of order p takes steps growing like tol^(-1/p), DOP853 pays
        at tight tolerances on smooth right-hand sides: the geodesic traces
        and the distance shots at rtol 1e-10.  DOPRI5 stays cheaper on
        short solves (fans, transport) and on right-hand sides with
        derivative jumps, such as the loose distance shots (rtol 1e-4 and
        1e-6) whose lanes freeze at the chart's edge.
    """

    rhs: Callable[[float, np.ndarray], np.ndarray]
    y0: np.ndarray
    t_span: tuple[float, float]
    rtol: float = 1e-10
    atol: float = 1e-12
    error_index: np.ndarray | None = None
    pair: RungeKuttaPair = DOPRI5


@dataclass
class Trajectory:
    """Dense solution of an :class:`OdeProblem`.

    Stores the accepted nodes ``ts``, states ``ys`` and derivatives ``fs``,
    plus per step the ``dense`` data of the pair's interpolant: under
    DOPRI5 one vector that lifts the cubic Hermite interpolant of the step
    to the pair's 4th-order continuous extension; under DOP853 the step's
    stages, replaced by its four 7th-order dense vectors when :meth:`eval`
    first reads the step (3 more RHS evaluations, through ``rhs``).
    :meth:`eval` is therefore accurate to the integrator's tolerance
    everywhere and returns ``ys`` exactly at the nodes.  ``stopped`` marks
    a solve that ended before the end of its span, at the last accepted
    node.  Its work is counted by :func:`solver_cost`.
    """

    ts: np.ndarray
    ys: np.ndarray
    fs: np.ndarray
    dense: list
    pair: RungeKuttaPair
    rhs: Callable[[float, np.ndarray], np.ndarray]
    stopped: bool = False

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
        s = ((tq - self.ts[k]) / (self.ts[k + 1] - self.ts[k]))[..., None]
        out = self.pair.interpolate(self, k, s)
        return out[0] if scalar else out


_KEYS = ("solves", "accepted_steps", "rejected_steps", "rhs_evals")
_TOTAL = [0, 0, 0, 0]            # all solver work so far, in _KEYS order


@contextmanager
def solver_cost():
    """Yield a dict of ints keyed ``solves``, ``accepted_steps``,
    ``rejected_steps`` and ``rhs_evals``, filled in when the block closes
    with the work of every :func:`integrate_ode` solve that ended inside it
    (returned, stopped or raised) and every DOP853 dense stage computed
    inside it.  Blocks nest, each counting all the work inside it; a block
    keeps counts, no trajectory."""
    cost, start = dict.fromkeys(_KEYS, 0), list(_TOTAL)
    try:
        yield cost
    finally:
        cost.update(zip(_KEYS, (n - n0 for n, n0 in zip(_TOTAL, start))))


def _charge(*counts):
    """Add ``counts``, in ``_KEYS`` order, to the running total."""
    for i, n in enumerate(counts):
        _TOTAL[i] += n


def integrate_ode(problem: OdeProblem, must_hit: Sequence[float] = ()) -> Trajectory:
    """Integrate an :class:`OdeProblem` with its embedded pair.

    One adaptive step loop serves both pairs.  The first step is
    0.01 |y0| / |f(t0, y0)| in the error norm over the components with a
    nonzero initial value, or 1e-6 if none is (Solving ODEs I, II.4): one
    starting at 0 is weighted by 1/atol alone and would set it.  DOP853
    refines it with one Euler probe.  A step passes when its scaled error
    norm is at most 1; h then scales by 0.9 err^(-1/(q+1)) within [0.2,
    grow] (grow 5 for DOPRI5, 10 for DOP853), and within [0.1, 1] after a
    failure.  A new step ending within 10 % of its length of t1 or of a
    ``must_hit`` time is stretched onto it, a retry only clamped (ode45's
    rule).  A step with a non-finite stage is halved; the RHS never sees a
    non-finite input, and once the halved step is below its floor the
    solve stops: it returns its accepted part marked ``stopped``.  Without
    non-finite stages, a solve makes 1 + 6 (accepted + rejected) RHS calls
    under DOPRI5 and 2 + 12 (accepted + rejected) under DOP853, before any
    dense stage is read.

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
        When error control stalls; the exception carries the accepted part
        of the trajectory, marked ``stopped``, and its last state.
    """
    t0, t1 = map(float, problem.t_span)
    if not t1 > t0:
        raise PreconditionError("t_span must satisfy t1 > t0")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise PreconditionError("t_span must be finite")
    y = np.array(problem.y0, dtype=float)
    rtol, atol, pair = problem.rtol, problem.atol, problem.pair
    sel = slice(None) if problem.error_index is None else problem.error_index
    hits = sorted(t for t in set(float(t) for t in must_hit) if t0 < t < t1)
    hits.append(t1)

    n_rhs = 0

    def f(t, yy):
        nonlocal n_rhs
        n_rhs += 1
        return problem.rhs(t, yy)

    k1 = np.asarray(f(t0, y), dtype=float)
    start = np.arange(y.size)[sel]
    start = start[y[start] != 0] if y[start].any() else start
    scale0 = atol + rtol * np.abs(y[start])

    def rms(v):
        return np.sqrt(np.mean((v[start] / scale0) ** 2))

    d0 = rms(y) if start.size else 0.0
    d1 = rms(k1)
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    h = pair.first_step(f, t0, y, k1, h, rms)

    ts, ys, fs, dense = [t0], [y.copy()], [k1.copy()], []
    t = t0
    hmin = 1e-14 * max(abs(t0), abs(t1), 1.0)
    hit_i = 0
    nan_fail = 0
    n_rejected = 0
    err = 0.0

    def trajectory(stopped=False):         # every exit builds one, once
        _charge(1, len(ts) - 1, n_rejected, n_rhs)
        return Trajectory(np.array(ts), np.array(ys), np.array(fs), dense,
                          pair, problem.rhs, stopped)

    while t < t1 - hmin:
        while hit_i < len(hits) and hits[hit_i] <= t + hmin:
            hit_i += 1
        target = hits[hit_i] if hit_i < len(hits) else t1
        clamped = False
        if t + (h if nan_fail or err > 1.0 else 1.1 * h) >= target - hmin:
            h = target - t
            clamped = True
        if h < hmin:
            if nan_fail:
                return trajectory(True)
            raise StepUnderflowError(f"step size underflow at t={t:.6g}", t,
                                     y, trajectory(True))

        # a non-finite stage reaches the next input through the tableau's
        # nonzero subdiagonal, so only the last stage needs its own check
        ks = np.empty((pair.stages, y.size))
        ks[0] = k1
        for i in range(1, pair.stages):
            yi = y + h * _combine(pair.a[i, :i], ks[:i])
            bad = not np.isfinite(yi).all()
            if bad:
                break
            ks[i] = f(t + pair.c[i] * h, yi)
        if bad or not np.isfinite(ks[-1]).all():
            nan_fail += 1
            n_rejected += 1
            h *= 0.5
            if h < hmin:
                return trajectory(True)
            continue

        y_new = yi  # the last stage's state is the solution (FSAL)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = pair.error_norm(h, ks, scale, sel)

        if err <= 1.0:
            dense.append(pair.step_dense(h, ks))
            t = t + h
            y = y_new
            k1 = ks[-1]
            ts.append(t)
            ys.append(y)
            fs.append(k1.copy())          # not a view that keeps ks alive
            nan_fail = 0
            factor = pair.grow if err == 0.0 else min(
                pair.grow, max(0.2, 0.9 * err ** pair.exponent))
            if clamped:
                factor = max(factor, 1.0)
            h = h * factor
        else:
            n_rejected += 1
            h *= min(1.0, max(0.1, 0.9 * err ** pair.exponent))
            if h < hmin:
                raise StepUnderflowError(f"error control stalled at t={t:.6g}",
                                         t, y, trajectory(True))

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


@lru_cache(maxsize=None)
def _legendre_rule(n):
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(n, a, b):
    """Nodes and weights on [a, b], scaled from the n-point rule on
    [-1, 1], which is computed once per ``n`` and cached read-only."""
    x, w = _legendre_rule(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


# ---------------------------------------------------------------------------
# Richardson extrapolation
# ---------------------------------------------------------------------------


@dataclass
class RichardsonResult:
    value: float
    error: float
    monotone: bool
    weights: np.ndarray


def halving_ladder(hs):
    """``hs`` as a float array, checked to be a ladder :func:`richardson`
    takes: at least two positive step sizes, each half the one before."""
    hs = np.asarray(hs, dtype=float)
    if hs.ndim != 1 or len(hs) < 2:
        raise PreconditionError("ladder needs at least two rungs")
    if not (hs > 0).all() or not np.allclose(hs[:-1] / hs[1:], 2.0,
                                             rtol=1e-8):
        raise PreconditionError("ladder must be positive and halve the step "
                                "between rungs")
    return hs


def richardson(hs, fs, p=2) -> RichardsonResult:
    """Richardson-extrapolate samples f(h) on a halving ladder of steps.

    ``hs`` are the step sizes, strictly decreasing with ratio 2 between
    rungs; ``fs`` the samples, one per rung along axis 0, with any trailing
    axes extrapolated elementwise.  The tableau assumes the expansion
    f(h) = L + c h^p + ... with error orders p, 2p, 3p, ... (p=2 for
    even-power expansions, p=1 for full ones).  ``value``, ``error`` and
    ``monotone`` take the trailing shape of ``fs``.  ``error`` is the last
    diagonal increment; ``monotone`` is False when the diagonal increments
    fail to shrink, which flags ladders whose asymptotic regime was not
    reached (callers surface this as a warning).  The tableau is linear:
    ``weights``, the tableau carried on the unit samples, sum to 1 and give
    ``value`` as ``weights @ fs``.
    """
    hs = halving_ladder(hs)
    fs = np.asarray(fs, dtype=float)
    if len(fs) != len(hs):
        raise PreconditionError("ladder needs one sample per rung")
    col, diag, w = fs, [fs[-1]], np.eye(len(fs))
    for j in range(1, len(fs)):
        power = 2.0 ** (p * j)
        col = (power * col[1:] - col[:-1]) / (power - 1.0)
        w = (power * w[1:] - w[:-1]) / (power - 1.0)
        diag.append(col[-1])
    increments = np.abs(np.diff(diag, axis=0))
    monotone = np.all(increments[1:] <= increments[:-1] * 1.5, axis=0)
    return RichardsonResult(diag[-1], increments[-1], monotone, w[-1])


# ---------------------------------------------------------------------------
# generalized symmetric eigenproblem (2x2)
# ---------------------------------------------------------------------------


_TIE_TOL = 1e-10           # relative eigenvalue gap read as a tie


def generalized_symmetric_eigen(q, g):
    """Solve det(q - lam*g) = 0 for symmetric 2x2 ``q`` and SPD 2x2 ``g``.

    Returns
    -------
    lams : ndarray (2,)
        Eigenvalues, descending.
    vecs : ndarray (2, 2)
        Columns are g-orthonormal eigenvectors (g(v, v) = 1), sign-fixed so
        the first nonzero component is positive.
    degenerate : bool
        True when the eigenvalues are equal to within ``_TIE_TOL`` relative
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
    degenerate = abs(lam_hi - lam_lo) <= _TIE_TOL * max(scale, 1.0)

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
