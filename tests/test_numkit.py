"""Jets, quadrature, ODE integration, extrapolation, and eigen helpers."""

import math
import os
import subprocess
import sys

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
    back = nk.derivative1d(nk.antiderivative1d(j, 5.0))
    assert np.allclose(back.coef, nk.truncate(j, 3).coef, atol=1e-14)


def test_jet_order_bounds():
    with pytest.raises(nk.PreconditionError):
        nk.Jet.variables([0.0, 0.0], order=5)
    with pytest.raises(nk.PreconditionError):
        nk.Jet.variables([0.0], order=0)


@pytest.mark.parametrize("nvars,order,n", [(2, 3, 2), (3, 2, 3)])
def test_matrix_jets_match_scalar_jet_arithmetic(nvars, order, n):
    rng = np.random.default_rng([nvars, order])
    K = len(nk._index_space(nvars, order)[0])
    a = nk.Jet(nvars, order, rng.uniform(-1, 1, (K, n, n, 4)))
    a.coef[0] += 3.0 * np.eye(n)[:, :, None]        # keep a0 well conditioned
    b = nk.Jet(nvars, order, rng.uniform(-1, 1, (K, n, n, 4)))

    def entry(m, r, c):
        return nk.Jet(nvars, order, m.coef[:, r, c])

    prod = nk.jet_matmul(a, b)
    ainv = nk.jet_inv(a)
    for r in range(n):
        for c in range(n):
            ref = sum(entry(a, r, s) * entry(b, s, c) for s in range(n))
            assert np.allclose(prod.coef[:, r, c], ref.coef, atol=1e-14)
            eye = sum(entry(a, r, s) * entry(ainv, s, c) for s in range(n))
            assert np.allclose(eye.coef[0], float(r == c), atol=1e-14)
            assert np.allclose(eye.coef[1:], 0.0, atol=1e-13)


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
    assert nk.vtriple([1, 0, 0], [0, 1, 0], [0, 0, 1]) == pytest.approx(1.0)
    assert nk.vtriple([1, 0, 0], [2, 0, 0], [0, 0, 1]) == pytest.approx(0.0)
    assert np.allclose(nk.vcross([1, 0, 0], [0, 1, 0]), [0, 0, 1])
    assert nk.vdot([1, 2, 3], [4, 5, 6]) == pytest.approx(32.0)
