"""Jets, quadrature, ODE integration, extrapolation, and eigen helpers."""

import math
import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

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
    t = nk.Jet.variable(2.0, 0, 1, 4)
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


def test_compose1d_chain_rule():
    t = nk.Jet.variable(0.4, 0, 1, 3)
    inner = t * t + 1.0
    outer = nk.Jet.variable(inner.value, 0, 1, 3)
    composed = nk.compose1d(nk.log(outer), inner)
    direct = nk.log(t * t + 1.0)
    assert np.allclose(composed.coef, direct.coef, atol=1e-14)


def test_invert_univariate_round_trip():
    t0 = 0.3
    t = nk.Jet.variable(t0, 0, 1, 3)
    j = nk.exp(t) - 1.0                  # strictly monotone near t0
    inv = nk.invert_univariate(j, t0)
    back = nk.compose1d(inv, j)
    ident = nk.Jet.variable(t0, 0, 1, 3)
    assert np.allclose(back.coef, ident.coef, atol=1e-12)
    with pytest.raises(nk.PreconditionError):
        nk.invert_univariate(nk.Jet.variable(t0, 0, 1, 4), t0)


def test_derivative_antiderivative_round_trip():
    t = nk.Jet.variable(1.1, 0, 1, 3)
    j = nk.sin(t) * t
    back = nk.derivative_nd(nk.antiderivative1d(j, 5.0), 0)
    assert np.allclose(back.coef, nk.truncate(j, 3).coef, atol=1e-14)


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
    for axis in range(nvars):
        d = nk.derivative_nd(j, axis)
        for a in idx_lo:
            up = tuple(e + (i == axis) for i, e in enumerate(a))
            assert np.array_equal(d.coef[pos_lo[a]],
                                  j.coef[pos_hi[up]] * up[axis])
        assert np.array_equal(j.grad()[axis], d.value)


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


def test_integrate_ode_step_counters():
    # harmonic oscillator y'' = -25 y: smooth, but the controller rejects
    # a few steps on the way
    prob = nk.OdeProblem(lambda t, y: np.array([y[1], -25.0 * y[0]]),
                         np.array([1.0, 0.0]), (0.0, 3.0),
                         rtol=1e-10, atol=1e-12)
    traj = nk.integrate_ode(prob)
    assert traj.n_accepted == len(traj.ts) - 1
    assert traj.n_rejected > 0
    assert traj.n_rhs == 1 + 6 * (traj.n_accepted + traj.n_rejected)


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
             / math.log(runs[1].n_accepted / runs[0].n_accepted))
    assert abs(slope - order) < 0.5


def test_dop853_counts_and_lazy_dense_output():
    traj = _oscillator(nk.DOP853, 1e-10)
    # one start derivative, one Euler probe for the first step, 12 per step
    assert traj.n_rhs == 2 + 12 * (traj.n_accepted + traj.n_rejected)
    solve = traj.n_rhs
    # reading every step adds its 3 dense stages once
    assert np.array_equal(traj.eval(traj.ts), traj.ys)
    assert traj.n_rhs == solve + 3 * traj.n_accepted
    ts = np.linspace(0.0, 20.0, 2001)
    exact = np.stack([np.sin(ts), np.cos(ts)], axis=1)
    assert np.abs(traj.eval(ts) - exact).max() < 1e-9
    assert traj.n_rhs == solve + 3 * traj.n_accepted


def test_integrate_ode_must_hit_and_forward_only():
    prob = nk.OdeProblem(lambda t, y: -y, np.array([1.0]), (0.0, 2.0),
                         rtol=1e-10, atol=1e-12)
    traj = nk.integrate_ode(prob, must_hit=[0.7])
    assert any(abs(t - 0.7) < 1e-12 for t in traj.ts)
    back = nk.OdeProblem(lambda t, y: y, np.array([1.0]), (1.0, 0.0),
                         rtol=1e-10, atol=1e-12)
    with pytest.raises(nk.PreconditionError):
        nk.integrate_ode(back)


def test_zero_step_trajectory_eval_raises_precondition():
    prob = nk.OdeProblem(lambda t, y: np.full_like(y, np.nan),
                         np.array([1.0, 2.0]), (0.0, 1.0))
    with pytest.raises(nk.StepUnderflowError) as info:
        nk.integrate_ode(prob)
    traj = info.value.trajectory
    assert traj.n_accepted == 0
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
    assert part.n_accepted < full.n_accepted / 2
    assert part.final[0] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_integrate_ode_blowup_raises():
    prob = nk.OdeProblem(lambda t, y: y * y, np.array([1.0]), (0.0, 2.0),
                         rtol=1e-10, atol=1e-12)
    with pytest.raises(nk.NumericalError):
        nk.integrate_ode(prob)


def test_richardson_even_powers():
    hs = np.array([0.4, 0.2, 0.1, 0.05])
    fs = math.pi + 3 * hs ** 2 - 2 * hs ** 4
    res = nk.richardson(nk.ExtrapolationLadder(hs, fs, p=2))
    assert res.value == pytest.approx(math.pi, abs=1e-12)
    assert res.error < 1e-10
    assert res.monotone


def test_richardson_requires_halving():
    with pytest.raises(nk.PreconditionError):
        nk.richardson(nk.ExtrapolationLadder(np.array([0.4, 0.3]),
                                             np.array([1.0, 1.0]), p=2))


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
