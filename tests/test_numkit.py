"""Jets, quadrature, ODE integration, extrapolation, and eigen helpers."""

import math
import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

import curvatur.intrinsic as ig
import curvatur.numkit as nk


def f_ref(x, y):
    return math.sin(x * y) + x * x * math.exp(y)


def test_jet_partials_match_hand_derivatives():
    x, y = 0.7, -0.3
    xj, yj = nk.Jet.variables([x, y], order=3)
    j = nk.sin(xj * yj) + xj * xj * nk.exp(yj)
    e = math.exp(y)
    s, c = math.sin(x * y), math.cos(x * y)
    assert j.value == pytest.approx(f_ref(x, y), abs=1e-15)
    assert j.partial((1, 0)) == pytest.approx(y * c + 2 * x * e, abs=1e-14)
    assert j.partial((0, 1)) == pytest.approx(x * c + x * x * e, abs=1e-14)
    assert j.partial((2, 0)) == pytest.approx(-y * y * s + 2 * e, abs=1e-14)
    assert j.partial((0, 2)) == pytest.approx(-x * x * s + x * x * e, abs=1e-14)
    assert j.partial((1, 1)) == pytest.approx(c - x * y * s + 2 * x * e,
                                              abs=1e-14)


def test_jet_division_and_sqrt():
    t = nk.Jet.variables([2.0], 4)[0]
    j = nk.sqrt(t * t + 1.0) / t
    # d/dt sqrt(t^2+1)/t = 1/sqrt(t^2+1) - sqrt(t^2+1)/t^2 at t=2
    expected = 1 / math.sqrt(5) - math.sqrt(5) / 4
    assert j.partial((1,)) == pytest.approx(expected, abs=1e-14)


def test_sincos_is_sin_and_cos_bit_for_bit():
    x = np.array([[0.3, -1.2, 2.5], [0.7, 0.1, -0.4]])
    for order in range(nk.MAX_ORDER + 1):
        u, v = nk.Jet.variables(x, order)
        arg = u * v + 0.5 * u
        s, c = arg.sincos()
        assert s.coef.tobytes() == arg.sin().coef.tobytes()
        assert c.coef.tobytes() == arg.cos().coef.tobytes()


def _binom(p, k):
    return math.prod(p - i for i in range(k)) / math.factorial(k)


# closed-form univariate Taylor coefficients f^(k)(x) / k!, k = 0 .. 4
_TAYLOR = {
    "sin": lambda x: [np.sin(x), np.cos(x), -np.sin(x) / 2, -np.cos(x) / 6,
                      np.sin(x) / 24],
    "cos": lambda x: [np.cos(x), -np.sin(x), -np.cos(x) / 2, np.sin(x) / 6,
                      np.cos(x) / 24],
    "tan": lambda x: (lambda t: [t, 1 + t * t, t * (1 + t * t),
                                 (1 + t * t) * (1 + 3 * t * t) / 3,
                                 t * (1 + t * t) * (2 + 3 * t * t) / 3])(
                                     np.tan(x)),
    "exp": lambda x: [np.exp(x) / math.factorial(k) for k in range(5)],
    "log": lambda x: [np.log(x)] + [(-1) ** (k - 1) / (k * x ** k)
                                    for k in range(1, 5)],
    "sqrt": lambda x: [_binom(0.5, k) * x ** (0.5 - k) for k in range(5)],
    "sinh": lambda x: [np.sinh(x), np.cosh(x), np.sinh(x) / 2,
                       np.cosh(x) / 6, np.sinh(x) / 24],
    "cosh": lambda x: [np.cosh(x), np.sinh(x), np.cosh(x) / 2,
                       np.sinh(x) / 6, np.cosh(x) / 24],
    "reciprocal": lambda x: [(-1) ** k / x ** (k + 1) for k in range(5)],
    "pow": lambda x: [_binom(1.7, k) * x ** (1.7 - k) for k in range(5)],
}


def _linear_image(c, w, nvars, order):
    """Coefficients of f(x0 + w . t) from f's univariate coefficients c_k at
    x0: slot alpha holds c_|alpha| |alpha|! / alpha! w^alpha."""
    idx = nk._index_space(nvars, order)[0]
    return np.stack([c[sum(a)] * math.factorial(sum(a))
                     / math.prod(math.factorial(e) for e in a)
                     * math.prod(wi ** e for wi, e in zip(w, a))
                     for a in idx])


@pytest.mark.parametrize("name", sorted(_TAYLOR))
@pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "lanes"])
def test_elementary_functions_match_closed_form_taylor(name, batched):
    # each function of a linear inner jet x0 + w . t against its closed-form
    # univariate series, at every order and variable count
    x0 = np.array([0.7, 1.3, 0.45, 1.05]) if batched else np.array(0.7)
    w = (0.3, -0.6, 1.1)
    for nvars, order in product(range(1, 4), range(nk.MAX_ORDER + 1)):
        t = nk.Jet.variables(np.zeros((nvars,) + x0.shape), order)
        inner = sum((ti * wi for ti, wi in zip(t[1:], w[1:])), t[0] * w[0]) + x0
        got = (inner ** 1.7 if name == "pow" else getattr(inner, name)()).coef
        ref = _linear_image(_TAYLOR[name](x0), w, nvars, order)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref)), \
            (name, nvars, order)


@pytest.mark.parametrize("name", ["sinh", "cosh", "exp"])
def test_order0_overflow_keeps_the_infinite_value(name):
    # an order-0 jet is its value alone: sinh(800) is inf, and the empty
    # higher series must not turn it into inf * 0 = nan
    x = nk.Jet.variables([[800.0, -800.0, 0.3]], 0)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        got = getattr(x, name)().coef
        ref = getattr(np, name)(x.coef[0])
    assert np.array_equal(got, ref[None])


def test_compose1d_keeps_tensor_axes_of_the_outer():
    # a 3-vector-valued outer series over 4 lanes, composed with a linear
    # inner jet in 2 variables: slot alpha is outer_|alpha| |alpha|!/alpha!
    # w^alpha, for every component and lane
    rng = np.random.default_rng(5)
    x0 = np.array([0.2, -0.4, 1.0, 0.6])
    w = (0.8, -1.3)
    for outer_order, order in ((4, 3), (2, 4), (3, 3), (0, 2)):
        outer = nk.Jet(1, outer_order, rng.normal(size=(outer_order + 1, 3, 4)))
        t = nk.Jet.variables(np.zeros((2, 4)), order)
        inner = t[0] * w[0] + t[1] * w[1] + x0
        got = nk.compose1d(outer, inner).coef
        c = list(outer.coef) + [np.zeros((3, 4))] * (order - outer_order)
        ref = _linear_image(c, w, 2, order)
        assert got.shape == (len(ref), 3, 4)
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


def test_compose1d_chain_rule():
    t = nk.Jet.variables([0.4], 3)[0]
    inner = t * t + 1.0
    outer = nk.Jet.variables([inner.value], 3)[0]
    composed = nk.compose1d(nk.log(outer), inner)
    direct = nk.log(t * t + 1.0)
    assert np.allclose(composed.coef, direct.coef, atol=1e-14)


def test_derivative_antiderivative_round_trip():
    t = nk.Jet.variables([1.1], 3)[0]
    j = nk.sin(t) * t
    back = nk.gradient(nk.antiderivative1d(j, 5.0))
    assert np.allclose(back.coef[:, 0], nk.truncate(j, 3).coef, atol=1e-14)


def test_jet_order_bounds():
    with pytest.raises(nk.PreconditionError):
        nk.Jet.variables([0.0, 0.0], order=nk.MAX_ORDER + 1)
    with pytest.raises(nk.PreconditionError):
        nk.Jet.variables([0.0], order=-1)
    # order 0 carries values only
    x, y = nk.Jet.variables([[0.3, 1.0], [2.0, -0.5]], order=0)
    assert x.order == 0 and x.coef.shape == (1, 2)
    assert np.array_equal((nk.sin(x) * y + 1.0).value,
                          np.sin([0.3, 1.0]) * [2.0, -0.5] + 1.0)


def _cauchy_terms(nvars, order):
    """(k, i, j) slot triples of the truncated product, found by plain
    multi-index arithmetic over ``idx`` and ``pos`` alone."""
    idx, pos = nk._index_space(nvars, order)[:2]
    return [(k, pos[tuple(x - y for x, y in zip(ak, aj))], j)
            for k, ak in enumerate(idx) for j, aj in enumerate(idx)
            if all(x >= y for x, y in zip(ak, aj))]


@pytest.mark.parametrize("nvars,order", list(product(range(1, 5), range(5))))
def test_jet_product_matches_python_cauchy_product(nvars, order):
    rng = np.random.default_rng([nvars, order])
    K = len(nk._index_space(nvars, order)[0])
    terms = _cauchy_terms(nvars, order)
    for batch in ((), (3,), (2, 3)):
        a = rng.uniform(-1, 1, (K,) + batch)
        b = rng.uniform(-1, 1, (K,) + batch)
        got = (nk.Jet(nvars, order, a) * nk.Jet(nvars, order, b)).coef
        assert got.shape == a.shape
        for lane in np.ndindex(batch):
            ref, scale = [0.0] * K, [0.0] * K
            for k, i, j in terms:
                t = float(a[(i,) + lane]) * float(b[(j,) + lane])
                ref[k] += t
                scale[k] += abs(t)
            for k in range(K):
                assert abs(got[(k,) + lane] - ref[k]) <= 1e-15 * scale[k]


@pytest.mark.parametrize("nvars,order", [(1, 4), (2, 3), (3, 2), (4, 1)])
def test_jet_einsum_matches_per_slot_loop(nvars, order):
    rng = np.random.default_rng([nvars, order, 7])
    K = len(nk._index_space(nvars, order)[0])
    terms = _cauchy_terms(nvars, order)
    for spec, sa, sb in (("rs...,s...->r...", (2, 3, 4), (3, 3, 4)),
                         ("j...,ij...->i...", (3, 4), (2, 3, 4)),
                         ("ikm...,mlj...->ijkl...", (2, 2, 2, 4), (2, 2, 2, 1))):
        a = rng.uniform(-1, 1, (K,) + sa)
        b = rng.uniform(-1, 1, (K,) + sb)
        got = nk.jet_einsum(spec, nk.Jet(nvars, order, a),
                            nk.Jet(nvars, order, b)).coef
        ref = np.zeros_like(got)
        scale = np.zeros_like(got)
        for k, i, j in terms:
            ref[k] += np.einsum(spec, a[i], b[j])
            scale[k] += np.einsum(spec, np.abs(a[i]), np.abs(b[j]))
        assert np.all(np.abs(got - ref) <= 1e-15 * scale)


@pytest.mark.parametrize("lanes", [3, 5])
def test_mixed_batch_products_broadcast_per_lane(lanes):
    # an unbatched jet against a batch whose length equals K (3) or not
    rng = np.random.default_rng(lanes)
    x = nk.Jet(2, 1, [0.3, 1.0, 0.0])
    y = nk.Jet(2, 1, rng.uniform(-1, 1, (3, lanes)))
    for got in (x * y, y * x):
        assert got.coef.shape == (3, lanes)
        for lane in range(lanes):
            ref = x * nk.Jet(2, 1, y.coef[:, lane])
            assert np.array_equal(got.coef[:, lane], ref.coef)
    for got in (x + y, y + x):
        assert np.array_equal(got.coef, x.coef[:, None] + y.coef)
    # a lane-batched scalar jet scales a lane-batched vector jet per lane
    v = nk.Jet(2, 1, rng.uniform(-1, 1, (3, 2, lanes)))
    for got in (y * v, v * y):
        for c in range(2):
            ref = y * nk.Jet(2, 1, v.coef[:, c])
            assert np.array_equal(got.coef[:, c], ref.coef)


@pytest.mark.parametrize("nvars,order", [(1, 4), (2, 3), (3, 4), (4, 2)])
def test_derivative_nd_moves_each_slot(nvars, order):
    idx, pos_hi = nk._index_space(nvars, order)[:2]
    idx_lo, pos_lo = nk._index_space(nvars, order - 1)[:2]
    j = nk.Jet(nvars, order, np.arange(len(idx) * 2.0).reshape(len(idx), 2))
    d = nk.gradient(j)
    for axis in range(nvars):
        for a in idx_lo:
            up = tuple(e + (i == axis) for i, e in enumerate(a))
            assert np.array_equal(d.coef[pos_lo[a], axis],
                                  j.coef[pos_hi[up]] * up[axis])
        assert np.array_equal(j.grad()[axis], d.value[axis])


@pytest.mark.parametrize("nvars,order,n", [(2, 3, 2), (3, 2, 3)])
def test_matrix_jets_match_scalar_jet_arithmetic(nvars, order, n):
    rng = np.random.default_rng([nvars, order])
    K = len(nk._index_space(nvars, order)[0])
    a = nk.Jet(nvars, order, rng.uniform(-1, 1, (K, n, n, 4)))
    b = nk.Jet(nvars, order, rng.uniform(-1, 1, (K, n, n, 4)))

    def entry(m, r, c):
        return nk.Jet(nvars, order, m.coef[:, r, c])

    prod = nk.jet_einsum("rs...,s...->r...", a, b)
    for r in range(n):
        for c in range(n):
            ref = sum(entry(a, r, s) * entry(b, s, c) for s in range(n))
            assert np.allclose(prod.coef[:, r, c], ref.coef, atol=1e-14)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("lanes", [1, 512])
def test_order_zero_inverse_matches_lapack(n, lanes):
    rng = np.random.default_rng([n, lanes])
    a = rng.uniform(-1, 1, (n, n, lanes)) + 4.0 * np.eye(n)[:, :, None]
    ref = np.moveaxis(np.linalg.inv(np.moveaxis(a, -1, 0)), 0, -1)
    got = nk._matrix_inv(a)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    with pytest.raises(nk.PreconditionError):
        nk._matrix_inv(np.eye(4))
    a[:, :, -1] = 0.0                   # one singular lane, as np.linalg.inv
    with pytest.raises(np.linalg.LinAlgError):
        nk._matrix_inv(a)


@pytest.mark.parametrize("nvars,order,n", [(2, 3, 2), (3, 2, 3)])
def test_jet_einsum_contracts_tensor_slots(nvars, order, n):
    # the quadratic term of the curvature tensor, on batched 3-index jets
    rng = np.random.default_rng([nvars, order, n])
    K = len(nk._index_space(nvars, order)[0])
    a = nk.Jet(nvars, order, rng.uniform(-1, 1, (K, n, n, n, 4)))
    b = nk.Jet(nvars, order, rng.uniform(-1, 1, (K, n, n, n, 4)))
    out = nk.jet_einsum("ikm...,mlj...->ijkl...", a, b)
    for i, j, k, l in product(range(n), repeat=4):
        ref = sum(nk.Jet(nvars, order, a.coef[:, i, k, m])
                  * nk.Jet(nvars, order, b.coef[:, m, l, j]) for m in range(n))
        assert np.allclose(out.coef[:, i, j, k, l], ref.coef, atol=1e-14)
    mixed = nk.jet_stack([a, nk.truncate(b, 1)], a)
    assert mixed.order == 1 and mixed.coef.shape[:2] == (nvars + 1, 2)


def test_dense_output_accuracy():
    # harmonic oscillator y'' = -y: the continuous extension keeps the
    # integrator's accuracy between nodes (cubic Hermite reaches ~4e-9)
    prob = nk.OdeProblem(lambda t, y: np.array([y[1], -y[0]]),
                         np.array([0.0, 1.0]), (0.0, 10.0),
                         rtol=1e-10, atol=1e-12)
    traj = nk.integrate_ode(prob)
    ts = np.linspace(0.0, 10.0, 1001)
    exact = np.stack([np.sin(ts), np.cos(ts)], axis=1)
    assert np.abs(traj.eval(ts) - exact).max() < 5e-10
    assert np.array_equal(traj.eval(traj.ts), traj.ys)


def test_gauss_legendre_polynomial_exactness():
    xs, ws = nk.gauss_legendre(5, 0.0, 2.0)
    # 5 nodes integrate degree 9 exactly: int_0^2 x^9 dx = 102.4
    assert float(np.sum(ws * xs ** 9)) == pytest.approx(102.4, abs=1e-11)


def test_gauss_legendre_rules_are_cached(monkeypatch):
    built = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: built.append(n) or leggauss(n))
    nk._legendre_rule.cache_clear()
    first, _ = nk.gauss_legendre(7, 0.0, 1.0)
    expected = first.copy()
    first[:] = -1.0                 # the caller owns the returned arrays
    for _ in range(3):
        xs, _ = nk.gauss_legendre(7, 0.0, 1.0)
        assert np.array_equal(xs, expected)
        nk.gauss_legendre(9, -1.0, 2.0)
    assert built == [7, 9]


def test_quadrature_smooth():
    val, err = nk.quadrature(np.exp, 0.0, 1.0, tol=1e-12)
    assert val == pytest.approx(math.e - 1.0, abs=1e-12)
    assert err < 1e-10


def test_quadrature2d_separable():
    val, _ = nk.quadrature2d(lambda x, y: np.sin(x) * y,
                             0.0, math.pi, 0.0, 2.0, tol=1e-10)
    assert val == pytest.approx(4.0, abs=1e-8)


def test_quadrature2d_vector_valued():
    # leading component axis: (1, x y, exp(x) cos(y)) on [0,1] x [0,pi/2]
    val, err = nk.quadrature2d(
        lambda x, y: np.stack([np.ones_like(x), x * y, np.exp(x) * np.cos(y)]),
        0.0, 1.0, 0.0, math.pi / 2, tol=1e-12)
    want = [math.pi / 2, math.pi ** 2 / 16, math.e - 1.0]
    assert val.shape == (3,)
    assert np.allclose(val, want, rtol=0.0, atol=1e-12)
    assert err < 1e-10


def test_quadrature_nonconvergence_carries_estimate():
    with pytest.raises(nk.QuadratureError) as info:
        nk.quadrature(lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), 0.0, 1.0,
                      tol=1e-14)
    exact = 2.0 / 3.0 * ((1.0 / 3.0) ** 1.5 + (2.0 / 3.0) ** 1.5)
    assert info.value.estimate == pytest.approx(exact, abs=1e-4)
    assert 1e-14 < info.value.error_estimate < 1e-3


def test_import_leaves_scipy_out():
    code = "import sys, curvatur; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(
                             sys.path)})
    assert out.stdout.strip() == "False"


def test_integrate_ode_exponential():
    prob = nk.OdeProblem(lambda t, y: y, np.array([1.0]), (0.0, 1.0),
                         rtol=1e-12, atol=1e-14)
    traj = nk.integrate_ode(prob)
    assert traj.final[0] == pytest.approx(math.e, abs=1e-10)
    assert traj.eval(0.5)[0] == pytest.approx(math.sqrt(math.e), abs=1e-9)


def _metered(problem, *must_hit):
    """A solve's trajectory and the solver_cost block around it."""
    with nk.solver_cost() as cost:
        traj = nk.integrate_ode(problem, *must_hit)
    return traj, cost


def test_integrate_ode_step_counters():
    # harmonic oscillator y'' = -25 y: smooth, but the controller rejects
    # a few steps on the way
    prob = nk.OdeProblem(lambda t, y: np.array([y[1], -25.0 * y[0]]),
                         np.array([1.0, 0.0]), (0.0, 3.0),
                         rtol=1e-10, atol=1e-12)
    traj, cost = _metered(prob)
    assert cost["accepted_steps"] == len(traj.ts) - 1
    assert cost["rejected_steps"] > 0
    assert cost["rhs_evals"] == 1 + 6 * (cost["accepted_steps"]
                                         + cost["rejected_steps"])


def test_solver_cost_blocks_nest():
    calls = []
    prob = nk.OdeProblem(lambda t, y: calls.append(t) or y, np.array([1.0]),
                         (0.0, 1.0))
    with nk.solver_cost() as outer:
        with nk.solver_cost() as inner:
            traj = nk.integrate_ode(prob)
        nk.integrate_ode(prob)
    assert list(outer) == ["solves", "accepted_steps", "rejected_steps",
                           "rhs_evals"]
    assert all(type(v) is int for v in outer.values())
    assert inner["solves"] == 1
    assert inner["accepted_steps"] == len(traj.ts) - 1
    assert inner["rhs_evals"] == len(calls) / 2 == 1 + 6 * (
        inner["accepted_steps"] + inner["rejected_steps"])
    assert outer == {k: 2 * v for k, v in inner.items()}


def test_solver_cost_counts_a_raised_solve_and_closes_on_it():
    # y' jumps by 1e10 at t = 0.5, where error control stalls
    calls = []
    stall = nk.OdeProblem(lambda t, y: calls.append(t) or np.array(
        [0.0 if t < 0.5 else 1e10]), np.array([0.0]), (0.0, 1.0))
    with pytest.raises(nk.StepUnderflowError) as info:
        with nk.solver_cost() as outer, nk.solver_cost() as inner:
            nk.integrate_ode(stall)
    # no stage is non-finite: DOPRI5 makes 1 + 6 calls per attempted step
    accepted = len(info.value.trajectory.ts) - 1
    steps, rest = divmod(len(calls) - 1, 6)
    counted = {"solves": 1, "accepted_steps": accepted,
               "rejected_steps": steps - accepted, "rhs_evals": len(calls)}
    assert rest == 0
    assert outer == inner == counted and counted["rejected_steps"] > 0
    nk.integrate_ode(nk.OdeProblem(lambda t, y: y, np.array([1.0]),
                                   (0.0, 1.0)))
    assert outer == inner == counted          # both blocks are closed


def _oscillator(pair, rtol, T=20.0):
    return nk.integrate_ode(nk.OdeProblem(
        lambda t, y: np.array([y[1], -y[0]]), np.array([0.0, 1.0]),
        (0.0, T), rtol=rtol, atol=rtol, pair=pair))


@pytest.mark.parametrize("pair,order", [(nk.DOPRI5, 5), (nk.DOP853, 8)],
                         ids=["DOPRI5", "DOP853"])
def test_empirical_order(pair, order):
    # y'' = -y: the global error falls like steps^-order as rtol tightens
    runs = [_oscillator(pair, rtol) for rtol in (1e-10, 1e-13)]
    errs = [np.abs(tr.final - [math.sin(20.0), math.cos(20.0)]).max()
            for tr in runs]
    slope = (math.log(errs[0] / errs[1])
             / math.log((len(runs[1].ts) - 1) / (len(runs[0].ts) - 1)))
    assert abs(slope - order) < 0.5


def test_dop853_counts_and_lazy_dense_output():
    with nk.solver_cost() as solve:
        traj = _oscillator(nk.DOP853, 1e-10)
    # one start derivative, one Euler probe for the first step, 12 per step
    assert solve["rhs_evals"] == 2 + 12 * (solve["accepted_steps"]
                                           + solve["rejected_steps"])
    # reading every step adds its 3 dense stages once
    with nk.solver_cost() as first:
        assert np.array_equal(traj.eval(traj.ts), traj.ys)
    assert first["rhs_evals"] == 3 * solve["accepted_steps"]
    ts = np.linspace(0.0, 20.0, 2001)
    exact = np.stack([np.sin(ts), np.cos(ts)], axis=1)
    with nk.solver_cost() as again:
        assert np.abs(traj.eval(ts) - exact).max() < 1e-9
    assert again["rhs_evals"] == 0


def test_solver_cost_counts_dense_stages_read_inside_it():
    with nk.solver_cost() as cost:
        with nk.solver_cost() as solve:
            traj = _oscillator(nk.DOP853, 1e-10)
        traj.eval(traj.ts[:2].mean())             # step 0's dense stages
    assert cost["rhs_evals"] == solve["rhs_evals"] + 3
    with nk.solver_cost() as after:
        traj.eval(traj.ts)                        # the rest, after the block
    assert after["rhs_evals"] == 3 * (solve["accepted_steps"] - 1)
    assert cost["rhs_evals"] == solve["rhs_evals"] + 3


def test_integrate_ode_must_hit_and_forward_only():
    prob = nk.OdeProblem(lambda t, y: -y, np.array([1.0]), (0.0, 2.0),
                         rtol=1e-10, atol=1e-12)
    traj = nk.integrate_ode(prob, must_hit=[0.7])
    assert any(abs(t - 0.7) < 1e-12 for t in traj.ts)
    back = nk.OdeProblem(lambda t, y: y, np.array([1.0]), (1.0, 0.0),
                         rtol=1e-10, atol=1e-12)
    with pytest.raises(nk.PreconditionError):
        nk.integrate_ode(back)


@pytest.mark.parametrize("t_span", [(0.0, math.inf), (-math.inf, 1.0),
                                    (0.0, math.nan)])
def test_integrate_ode_refuses_a_span_that_is_not_finite(t_span):
    prob = nk.OdeProblem(lambda t, y: -y, np.array([1.0]), t_span)
    with pytest.raises(nk.PreconditionError, match="t_span must"):
        nk.integrate_ode(prob)


def test_zero_step_trajectory_eval_raises_precondition():
    prob = nk.OdeProblem(lambda t, y: np.full_like(y, np.nan),
                         np.array([1.0, 2.0]), (0.0, 1.0))
    traj, cost = _metered(prob)
    assert traj.stopped and cost["accepted_steps"] == 0
    assert np.array_equal(traj.ys, [[1.0, 2.0]])
    for t in (0.0, 0.5):
        with pytest.raises(nk.PreconditionError):
            traj.eval(t)


def test_error_index_limits_step_control():
    # component 1 oscillates fast; left out of the norm it no longer sets
    # the step, and component 0 still meets the tolerance
    def rhs(t, y):
        return np.array([-y[0], 50.0 * math.cos(50.0 * t)])

    y0 = np.array([1.0, 0.0])
    full = nk.integrate_ode(nk.OdeProblem(rhs, y0, (0.0, 1.0)))
    same = nk.integrate_ode(nk.OdeProblem(rhs, y0, (0.0, 1.0),
                                          error_index=np.array([0, 1])))
    part = nk.integrate_ode(nk.OdeProblem(rhs, y0, (0.0, 1.0),
                                          error_index=np.array([0])))
    assert np.array_equal(same.ys, full.ys)
    assert len(part.ts) - 1 < (len(full.ts) - 1) / 2
    assert part.final[0] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_integrate_ode_blowup_raises():
    prob = nk.OdeProblem(lambda t, y: y * y, np.array([1.0]), (0.0, 2.0),
                         rtol=1e-10, atol=1e-12)
    with pytest.raises(nk.NumericalError):
        nk.integrate_ode(prob)


def test_non_finite_stages_never_reach_the_rhs():
    # the RHS turns NaN past t = 0.5: the solve stops there, and no stage
    # input it is called on is ever non-finite
    seen = []

    def rhs(t, y):
        seen.append(np.isfinite(y).all())
        return -y if t <= 0.5 else np.full_like(y, np.nan)

    for pair in (nk.DOPRI5, nk.DOP853):
        seen.clear()
        traj, cost = _metered(nk.OdeProblem(rhs, np.ones(12), (0.0, 1.0),
                                            pair=pair))
        assert traj.stopped and traj.ts[-1] <= 0.5
        assert cost["rhs_evals"] == len(seen) and all(seen)
        assert cost["rejected_steps"] > 0


@pytest.mark.parametrize("pair,start,per_step", [(nk.DOPRI5, 1, 6),
                                                 (nk.DOP853, 2, 12)],
                         ids=["DOPRI5", "DOP853"])
def test_rhs_counter_identity_with_error_index(pair, start, per_step):
    # 12 floats, error norm over the first 4, two of them and one other
    # starting at exactly 0, with rejected steps: the counters obey the
    # pair's identity, and the RHS is called rhs_evals times
    calls = []

    def rhs(t, y):
        calls.append(t)
        x, v = y[:2], y[2:4]         # an oscillator whose stiffness varies
        return np.concatenate([v, -25.0 * (1.0 + 0.5 * np.sin(3.0 * t)) * x,
                               np.cos(20.0 * t) * y[4:]])

    y0 = np.linspace(1.0, 2.0, 12)
    y0[[1, 3, 6]] = 0.0
    _, cost = _metered(nk.OdeProblem(
        rhs, y0, (0.0, 3.0), 1e-10, 1e-12, error_index=np.arange(4),
        pair=pair))
    assert cost["rhs_evals"] == len(calls)
    assert cost["rhs_evals"] == start + per_step * (cost["accepted_steps"]
                                                    + cost["rejected_steps"])
    assert cost["rejected_steps"] > 0


def test_dop853_error_norm_ignores_buffer_offset():
    # the same stage values at other offsets in memory give the same norm,
    # bit for bit, with the norm over every component or over a subset
    rng = np.random.default_rng(3)
    ks = rng.normal(size=(13, 9)) * 10.0 ** rng.uniform(-3, 4, size=9)
    scale = 1e-12 + 1e-10 * np.abs(rng.normal(size=9))
    for sel in (slice(None), np.array([0, 2, 3, 5, 8])):
        want = nk.DOP853.error_norm(0.1, ks, scale, sel)
        for off in range(1, 8):
            buf = np.empty(ks.size + off)
            buf[off:] = ks.ravel()
            got = nk.DOP853.error_norm(0.1, buf[off:].reshape(ks.shape),
                                       scale, sel)
            assert got == want


def test_propagator_from_the_identity_takes_one_step():
    # Phi' = -A(t) Phi, Phi(0) = I: the off-diagonals start at exactly 0
    # and do not set the first step, so one DOPRI5 step covers [0, 1]
    A0 = np.array([[1.0, 2.0, -0.5], [0.3, -1.0, 1.5], [-2.0, 0.7, 0.5]])
    A1 = np.array([[0.5, -1.0, 0.2], [1.0, 0.4, -0.3], [0.6, -0.8, 1.0]])

    def rhs(t, y):
        return -(1e-4 * (A0 + t * A1) @ y.reshape(3, 3)).ravel()

    traj, cost = _metered(nk.OdeProblem(rhs, np.eye(3).ravel(), (0.0, 1.0)))
    assert (cost["accepted_steps"], cost["rejected_steps"],
            cost["rhs_evals"]) == (1, 0, 7)
    ref = nk.integrate_ode(nk.OdeProblem(rhs, np.eye(3).ravel(), (0.0, 1.0),
                                         rtol=1e-13, atol=1e-16))
    assert np.abs(traj.final - ref.final).max() < 1e-12


def _decay_steps():
    """y' = -y from 1: its first node and the regular step after it."""
    traj = nk.integrate_ode(nk.OdeProblem(lambda t, y: -y, np.ones(1),
                                          (0.0, 10.0)))
    return traj.ts[1], traj.ts[2] - traj.ts[1]


def test_last_step_stretches_over_a_sliver():
    # the regular step from node 1 would leave 5 % of itself before t1
    t_a, h = _decay_steps()
    t1 = t_a + 1.05 * h
    traj, cost = _metered(nk.OdeProblem(lambda t, y: -y, np.ones(1),
                                        (0.0, t1)))
    assert traj.ts.tolist() == [0.0, t_a, t1]
    assert cost["rejected_steps"] == 0
    assert traj.final[0] == pytest.approx(math.exp(-t1), rel=1e-10)


def test_rejected_stretched_step_is_retried_shorter():
    # a kink just past the regular step fails the stretched last step; the
    # retry ends before the kink instead of being stretched to t1 again
    t_a, h = _decay_steps()
    kink, t1 = t_a + h, t_a + 1.05 * h
    traj, cost = _metered(nk.OdeProblem(
        lambda t, y: -y + 1e-4 * max(0.0, t - kink), np.ones(1), (0.0, t1)))
    assert cost["rejected_steps"] == 1
    assert traj.ts[1] == t_a and traj.ts[2] < kink
    assert traj.ts[-1] == t1


def test_richardson_even_powers():
    hs = np.array([0.4, 0.2, 0.1, 0.05])
    fs = math.pi + 3 * hs ** 2 - 2 * hs ** 4
    res = nk.richardson(hs, fs, p=2)
    assert res.value == pytest.approx(math.pi, abs=1e-12)
    assert res.error < 1e-10
    assert res.monotone
    # the tableau is linear: its weights on the samples reproduce the value
    assert res.weights @ fs == pytest.approx(res.value, abs=1e-14)
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-14)
    # and carry each sample's error into the comparison limit's error
    deltas = np.array([4e-9, 1e-9, 3e-9, 2e-9])
    lim = ig._comparison_limit(hs, fs, deltas)
    assert lim.value == res.value
    assert lim.error == pytest.approx(
        res.error + np.abs(res.weights) @ deltas, rel=1e-15)


def test_richardson_requires_halving():
    with pytest.raises(nk.PreconditionError):
        nk.richardson([0.4, 0.3], [1.0, 1.0], p=2)


def test_generalized_symmetric_eigen():
    q = np.array([[2.0, 1.0], [1.0, 3.0]])
    g = np.array([[1.0, 0.2], [0.2, 2.0]])
    lams, vecs, tie = nk.generalized_symmetric_eigen(q, g)
    assert not tie
    assert lams[0] >= lams[1]
    for k in range(2):
        resid = q @ vecs[:, k] - lams[k] * (g @ vecs[:, k])
        assert np.abs(resid).max() < 1e-12
    gram = vecs.T @ g @ vecs
    assert np.allclose(gram, np.eye(2), atol=1e-12)


def test_generalized_eigen_tie():
    g = np.array([[1.5, 0.3], [0.3, 0.9]])
    lams, vecs, tie = nk.generalized_symmetric_eigen(2.0 * g, g)
    assert tie
    assert np.allclose(lams, [2.0, 2.0], atol=1e-12)
    assert np.allclose(vecs.T @ g @ vecs, np.eye(2), atol=1e-12)


def test_vector_helpers():
    # arrays carry their components on axis 0
    e = np.eye(3)
    assert nk.vtriple(e[0], e[1], e[2]) == pytest.approx(1.0)
    assert nk.vtriple(e[0], 2 * e[0], e[2]) == pytest.approx(0.0)
    assert np.allclose(nk.vcross(e[0], e[1]), e[2])
    assert nk.vdot(np.array([1, 2, 3]), np.array([4, 5, 6])) == 32
    rng = np.random.default_rng(5)
    a, b = rng.uniform(-1, 1, (2, 3, 4, 5))
    assert np.allclose(nk.vcross(a, b), np.cross(a, b, axis=0), atol=1e-15)
    # batched jets carry them on axis 1 of the coefficients: every helper
    # is the per-component Taylor products, summed in component order
    K = len(nk._index_space(2, 3)[0])
    a, b, c = (nk.Jet(2, 3, rng.uniform(-1, 1, (K, 3, 4))) for _ in range(3))

    def comp(j, i):
        return nk.Jet(2, 3, j.coef[:, i])

    dot = comp(a, 0) * comp(b, 0) + comp(a, 1) * comp(b, 1) \
        + comp(a, 2) * comp(b, 2)
    assert np.allclose(nk.vdot(a, b).coef, dot.coef, rtol=0, atol=1e-14)
    cross = nk.vcross(b, c)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        ref = comp(b, j) * comp(c, k) - comp(b, k) * comp(c, j)
        assert np.allclose(cross.coef[:, i], ref.coef, rtol=0, atol=1e-14)
    triple = sum((comp(a, i) * comp(cross, i) for i in range(1, 3)),
                 comp(a, 0) * comp(cross, 0))
    assert np.allclose(nk.vtriple(a, b, c).coef, triple.coef, rtol=0,
                       atol=1e-14)
