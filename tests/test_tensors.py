"""Riemann and Ricci tensors, their oracles, and covariant calculus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import curvatur.catalog as cat
import curvatur.intrinsic as ig
import curvatur.numkit as nk
import curvatur.tensors as tn


@pytest.fixture(scope="module")
def halfplane():
    return cat.builtin("lobachevsky_halfplane").build()


@pytest.fixture(scope="module")
def s3():
    return cat.builtin("s3_round").build()


def test_halfplane_riemann_closed_form(halfplane):
    x = np.array([0.4, 2.0])
    riem = tn.riemann_at(halfplane, x)
    # constant curvature -1: R_1212 = K (g11 g22 - g12^2) = -1/y^4
    assert riem.R_down[0, 1, 0, 1] == pytest.approx(-1 / 16, abs=1e-12)
    assert "R^i_jkl" in riem.convention


def test_riemann_symmetries(halfplane):
    riem = tn.riemann_at(halfplane, np.array([-1.0, 3.0]))
    r = riem.R_down
    assert np.abs(r + r.transpose(1, 0, 2, 3)).max() < 1e-12
    assert np.abs(r + r.transpose(0, 1, 3, 2)).max() < 1e-12
    assert np.abs(r - r.transpose(2, 3, 0, 1)).max() < 1e-12
    bianchi = r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2)
    assert np.abs(bianchi).max() < 1e-12


def test_sphere_sectional_curvature_is_one():
    chart = ig.pullback_metric(cat.builtin("sphere").build())
    for x in [np.array([1.0, 0.9]), np.array([4.0, 2.0])]:
        sigma = tn.sectional_at(chart, x, np.array([1.0, 0.2]),
                                np.array([-0.3, 1.0]))
        assert sigma == pytest.approx(1.0, abs=1e-10)


def test_sphere_ricci_proportional_to_metric():
    chart = ig.pullback_metric(cat.builtin("sphere").build())
    x = np.array([2.0, 1.2])
    ric = tn.ricci_at(chart, x)
    assert np.abs(2 * ric.rho - ric.tau * ric.g).max() < 1e-10
    assert ric.tau == pytest.approx(2.0, abs=1e-10)


def test_s3_round_curvature(s3):
    x = np.array([0.2, -0.3, 0.5])
    ric = tn.ricci_at(s3, x)
    assert ric.tau == pytest.approx(6.0, abs=1e-10)
    assert np.abs(ric.rho - 2 * ric.g).max() < 1e-10
    riem = tn.riemann_at(s3, x)
    u = np.array([1.0, 0.0, 0.2])
    v = np.array([0.1, 1.0, -0.4])
    w = np.array([-0.3, 0.6, 1.0])
    g = riem.g
    # constant curvature one: R(u,v)w = <v,w> u - <u,w> v
    rhs = (v @ g @ w) * u - (u @ g @ w) * v
    assert np.abs(riem.action(u, v, w) - rhs).max() < 1e-9


def test_holonomy_oracle_flat_chart():
    plane = ig.pullback_metric(cat.builtin("plane").build())
    x = np.array([0.3, -0.2])
    m, err = tn.riemann_holonomy_oracle(plane, x, np.array([1.0, 0.0]),
                                        np.array([0.0, 1.0]))
    assert np.abs(m).max() < 1e-9
    assert err < 1e-6


def test_holonomy_oracle_matches_components(halfplane):
    x = np.array([0.3, 2.0])
    u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    riem = tn.riemann_at(halfplane, x)
    m, err = tn.riemann_holonomy_oracle(halfplane, x, u, v)
    assert np.abs(m - riem.operator(u, v)).max() < max(1e-3, 10 * err)


def test_holonomy_oracle_matches_components_3d(s3):
    x = np.array([0.3, -0.2, 0.4])
    u, v = np.eye(3)[0], np.eye(3)[2]
    m, err = tn.riemann_holonomy_oracle(s3, x, u, v)
    assert np.abs(m - tn.riemann_at(s3, x).operator(u, v)).max() < 1e-3


def test_holonomy_oracle_is_two_solves(halfplane, solves, rhs_evals,
                                      monkeypatch):
    each = []
    integrate = nk.integrate_ode

    def metered(problem, *a):
        with nk.solver_cost() as cost:
            traj = integrate(problem, *a)
        each.append(cost["rhs_evals"])
        return traj

    monkeypatch.setattr(nk, "integrate_ode", metered)
    with nk.solver_cost() as cost:
        tn.riemann_holonomy_oracle(halfplane, np.array([0.3, 2.0]),
                                   np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert len(solves) == 2 == cost["solves"]
    # one exponential-map fan of 4 * 4 side samples and the closing zero,
    # (x, v) per lane, serves every rung
    assert solves[0].y0.size == 17 * 2 * 2
    # 25 for the fan; the 64 propagators from the identity take one step
    assert each == [25, 7]
    assert len(rhs_evals) == 32 == cost["rhs_evals"]


def test_volume_oracle_cost(halfplane, s3, solves, rhs_evals):
    # one fan carries every cube's 3^n nodes: 3 cubes of 9 in 2D, 7 of 27
    # in 3D, with (x, v, n Jacobi columns and their rates) per lane
    for chart, x, lanes, rhs in [(halfplane, (0.3, 2.0), 27, 115),
                                 (s3, (0.2, 0.1, -0.3), 189, 73)]:
        solves.clear()
        rhs_evals.clear()
        with nk.solver_cost() as cost:
            tn.ricci_volume_oracle(chart, np.array(x))
        n = chart.dim
        assert len(solves) == 1 == cost["solves"]
        assert solves[0].y0.size == lanes * (2 + 2 * n) * n
        assert len(rhs_evals) == cost["rhs_evals"] == rhs


@pytest.fixture(scope="module")
def sphere():
    return ig.pullback_metric(cat.builtin("sphere").build())


# (chart fixture, base point, the two basis directions spanning the loop)
_ORACLE_POINTS = [
    ("halfplane", (0.3, 2.0), (0, 1)), ("halfplane", (-0.5, 0.8), (0, 1)),
    ("halfplane", (0.7, 2.4), (0, 1)),
    ("s3", (0.3, -0.2, 0.4), (0, 2)), ("s3", (0.0, 0.0, 0.0), (0, 1)),
    ("s3", (-0.4, 0.4, 0.1), (1, 2)),
    ("sphere", (1.0, 1.5), (0, 1)), ("sphere", (4.0, 1.6), (0, 1)),
    ("sphere", (2.0, 1.45), (0, 1)),
]


@pytest.mark.parametrize("name, x, ij", _ORACLE_POINTS[::3])
def test_holonomy_ladder_is_one_fan(name, x, ij, request):
    # exp_x(s T) is the geodesic of T at time s, so the largest rung's fan
    # read at s = h / max(hs) gives rung h's vertices
    chart = request.getfixturevalue(name)
    u, v = np.eye(chart.dim)[list(ij)]
    T = tn._loop_tangents(u, v, 0.1).T
    fan = ig._exp_batch(chart, np.array(x), T)
    for s in (0.5, 0.25, 0.125):
        alone = ig._exp_batch(chart, np.array(x), s * T).final
        read = fan.eval(s)
        assert np.abs((read - alone).reshape(-1, 2, chart.dim)[:, 0]).max() \
            < 1e-9


@pytest.mark.parametrize("name, x, ij", _ORACLE_POINTS)
def test_holonomy_oracle_error_covers_true_error(name, x, ij, request):
    chart = request.getfixturevalue(name)
    x = np.array(x)
    u, v = np.eye(chart.dim)[list(ij)]
    m, err = tn.riemann_holonomy_oracle(chart, x, u, v)
    assert isinstance(err, float)
    assert err >= np.abs(m - tn.riemann_at(chart, x).operator(u, v)).max()


@pytest.mark.parametrize("oracle, args", [
    ("holonomy", ((9.0, 2.0),)), ("ricci", ((9.0, 2.0),)),
    ("holonomy", ((0.3, 2.0), (0.1, 0.0))),
    ("ricci", ((0.3, 2.0), (0.1, 0.0))),
    ("holonomy", ((0.3, 2.0), (0.1,))),
    ("holonomy", ((0.3, 2.0), (0.05, 0.1))),
    ("holonomy", ((0.3, 2.0), (-0.1, -0.05))),
])
def test_oracles_reject_bad_input_before_solving(halfplane, solves, oracle,
                                                 args):
    e1, e2 = np.eye(2)
    with pytest.raises(nk.PreconditionError, match="outside|ladder"):
        if oracle == "holonomy":
            x, *hs = args
            tn.riemann_holonomy_oracle(halfplane, x, e1, e2, *hs)
        else:
            tn.ricci_volume_oracle(halfplane, *args)
    assert not solves


def test_oracles_report_leaving_the_chart(halfplane):
    x = np.array([0.3, 0.06])             # 0.01 above the box's lower edge
    with pytest.raises(nk.PreconditionError, match="loop leaves"):
        tn.riemann_holonomy_oracle(halfplane, x, *np.eye(2))
    with pytest.raises(nk.PreconditionError, match="cube leaves"):
        tn.ricci_volume_oracle(halfplane, x)


@pytest.mark.parametrize("name, x", [
    ("s3", (0.2, 0.1, -0.3)), ("s3", (1.0, 0.5, -0.7)),
    ("sphere", (1.0, 1.2)), ("halfplane", (0.5, 2.0))])
def test_volume_oracle_error_covers_true_error(name, x, request):
    chart = request.getfixturevalue(name)
    x = np.array(x)
    rho, err = tn.ricci_volume_oracle(chart, x)
    assert err >= np.abs(rho - tn.ricci_at(chart, x).rho).max()


def test_volume_oracle_matches_ricci(sphere):
    x = np.array([2.0, 1.3])
    ric = tn.ricci_at(sphere, x)
    rho, err = tn.ricci_volume_oracle(sphere, x)
    assert np.abs(rho - ric.rho).max() < 5e-3
    assert isinstance(err, float)


@pytest.mark.parametrize("name, x", [("lobachevsky_halfplane", (0.3, 2.0)),
                                     ("s3_round", (0.2, 0.1, -0.3))])
def test_volume_oracle_inverts_the_cube_moments(monkeypatch, name, x):
    # cube volumes whose defect is exactly row(C) . vech(rho_hat), with each
    # row built by the moment loop the oracle's closed form replaced: the
    # oracle must give back rho_hat in coordinates
    chart = cat.builtin(name).build()
    n, x = chart.dim, np.array(x)
    E = chart.orthonormal_basis(x)
    A = np.random.default_rng(1).normal(size=(n, n))
    rho_hat = A + A.T
    pairs = [(p, q) for p in range(n) for q in range(p, n)]

    def row(C):
        out = np.zeros(len(pairs))
        for col, (p, q) in enumerate(pairs):
            for a in range(n):
                for b in range(n):
                    mom = (1.0 / 3.0) if a == b else 0.25
                    out[col] += mom * (C[p, a] * C[q, b] + (
                        C[q, a] * C[p, b] if p != q else 0.0))
        return out

    def volumes(chart, P, radii, U, dU, steer):
        # each lane carries its cube's columns in dU; the defect is constant
        # over the cube's nodes, whose weights sum to one
        d = np.array([row(np.linalg.solve(E, dU[:, :, lane].T))
                      for lane in range(U.shape[1])]) @ np.array(
                          [rho_hat[p, q] for p, q in pairs])
        radii = np.asarray(radii)[:, None]
        return radii ** n - radii ** (n + 2) * d / 6.0

    monkeypatch.setattr(ig, "_jacobi_elements", volumes)
    rho, _ = tn.ricci_volume_oracle(chart, x)
    Einv = np.linalg.inv(E)
    assert np.abs(rho - Einv.T @ rho_hat @ Einv).max() < 1e-9


def test_second_bianchi_residual(halfplane):
    resid, scale = tn.second_bianchi_residual(halfplane, np.array([0.2, 1.5]))
    assert resid < 1e-4


def varying_chart():
    """A 3D metric whose curvature varies, so nabla R does not vanish."""
    def gfn(xj):
        x, y, z = xj
        return [[1 + x ** 2 / 4, y / 5, 0.0],
                [y / 5, nk.exp(x / 3), z / 7],
                [0.0, z / 7, 1 + y ** 2 / 5]]
    return ig.MetricChart(3, [(-1.0, 1.0)] * 3, gfn, name="varying")


def test_second_bianchi_identity_with_varying_curvature():
    chart = varying_chart()
    x = np.array([0.3, -0.2, 0.4])
    resid, nabla_max = tn.second_bianchi_residual(chart, x)
    assert nabla_max > 0.05
    assert resid < 1e-13
    # the order-1 Riemann coefficients are its derivatives
    dR = ig.riemann_jet(chart, nk.Jet.variables(x, 3)).grad()
    h = 1e-3
    for a in range(3):
        e = h * np.eye(3)[a]
        fd = (tn.riemann_at(chart, x + e).R_up
              - tn.riemann_at(chart, x - e).R_up) / (2 * h)
        assert np.abs(dR[a] - fd).max() < 1e-6


_PAIRS = [(i, j) for i in range(3) for j in range(i, 3)]


@settings(max_examples=25, deadline=None)
@given(diag=st.lists(st.integers(5, 20), min_size=3, max_size=3),
       coeffs=st.lists(st.integers(-100, 100), min_size=18, max_size=18),
       point=st.lists(st.integers(-50, 50), min_size=3, max_size=3))
def test_curvature_identities_on_random_metrics(diag, coeffs, point):
    # diagonal SPD constant plus small symmetric polynomial terms; with
    # |x_i| <= 0.5 every entry moves by at most 0.1, so g stays diagonally
    # dominant at x
    c = np.array(coeffs).reshape(6, 3) / 1000

    def gfn(xj):
        g = [[0.0] * 3 for _ in range(3)]
        for p, (i, j) in enumerate(_PAIRS):
            a, b, d = xj[p % 3], xj[(p + 1) % 3], xj[(p + 2) % 3]
            g[i][j] = g[j][i] = (diag[i] / 10 if i == j else 0.0) + (
                c[p, 0] * a ** 2 + c[p, 1] * b * d + c[p, 2] * a)
        return g

    chart = ig.MetricChart(3, [(-1.0, 1.0)] * 3, gfn, name="random")
    x = np.array(point) / 100
    r = tn.riemann_at(chart, x).R_down
    assert np.abs(r + r.transpose(1, 0, 2, 3)).max() < 1e-12
    assert np.abs(r + r.transpose(0, 1, 3, 2)).max() < 1e-12
    assert np.abs(r - r.transpose(2, 3, 0, 1)).max() < 1e-12
    assert np.abs(r + r.transpose(0, 2, 3, 1)
                  + r.transpose(0, 3, 1, 2)).max() < 1e-12
    assert tn.second_bianchi_residual(chart, x)[0] < 1e-12


def linear_field(coeffs, const):
    coeffs = np.asarray(coeffs, dtype=float)
    const = np.asarray(const, dtype=float)

    def fn(xj):
        return [sum(coeffs[r, i] * xj[i] for i in range(len(xj)))
                + const[r] * xj[0] ** 0 for r in range(len(const))]

    return tn.Field("vector", fn)


def test_commutator_is_antisymmetrized_derivative(halfplane):
    X = linear_field([[0.5, -0.2], [0.1, 0.3]], [1.0, 0.2])
    Y = linear_field([[-0.3, 0.7], [0.4, -0.1]], [0.5, 1.5])
    x = np.array([0.6, 1.8])
    lhs = tn.field_values(tn.commutator(X, Y), x, order=2)
    rhs = tn.field_values(tn.directional(halfplane, X, Y), x, order=3) \
        - tn.field_values(tn.directional(halfplane, Y, X), x, order=3)
    assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("name,x", [("halfplane", [0.7, 2.2]),
                                    ("s3", [0.2, -0.3, 0.5])],
                         ids=["halfplane", "s3"])
def test_metric_is_parallel(name, x, request):
    chart = request.getfixturevalue(name)
    nabla_g = tn.covariant_derivative(chart, tn.metric_field(chart))
    vals = tn.field_values(nabla_g, np.array(x), order=3)
    assert np.abs(vals).max() < 1e-12


def test_hessian_of_a_function_is_symmetric(s3):
    f = tn.Field("scalar", lambda xj: nk.sin(xj[0]) * xj[1] + xj[2] ** 3)
    hess = tn.covariant_derivative(s3, tn.covariant_derivative(s3, f))
    vals = tn.field_values(hess, np.array([0.2, -0.3, 0.5]), order=3)
    assert np.abs(vals).max() > 0.5
    assert np.abs(vals - vals.T).max() < 1e-12


def test_mixed_field_has_no_covariant_derivative(halfplane):
    X = linear_field([[0.5, -0.2], [0.1, 0.3]], [1.0, 0.2])
    mixed = tn.covariant_derivative(halfplane, X)
    assert mixed.kind == "mixed"
    with pytest.raises(nk.PreconditionError):
        tn.covariant_derivative(halfplane, mixed)


def test_constant_field_components_are_promoted(halfplane):
    x = np.array([0.5, 1.5])
    phi = tn.Field("covector", lambda xj: [xj[1], 0.0])
    phi_jet = tn.Field("covector", lambda xj: [xj[1], 0.0 * xj[0]])
    assert np.array_equal(
        tn.field_values(tn.covariant_derivative(halfplane, phi), x, order=2),
        tn.field_values(tn.covariant_derivative(halfplane, phi_jet), x,
                        order=2))
    d = tn.field_values(tn.exterior_derivative(phi), x, order=2)
    assert np.array_equal(d, [[0.0, -1.0], [1.0, 0.0]])
    X = tn.Field("vector", lambda xj: [1.0, xj[0]])
    Y = tn.Field("vector", lambda xj: [xj[1], 0.0])
    bracket = tn.field_values(tn.commutator(X, Y), x, order=2)
    assert np.allclose(bracket, [0.5, -1.5], atol=1e-15)
    # d(2 x + y^2 / 2) has a constant first component
    pot = tn.potential_on_box(tn.Field("covector", lambda xj: [2.0, xj[1]]),
                              [(0.2, 1.0), (1.0, 2.0)])
    got = pot(x) - pot(np.array([0.2, 1.0]))
    assert got == pytest.approx(2 * 0.3 + (1.5 ** 2 - 1.0) / 2, abs=1e-10)


def test_exact_covector_is_closed(halfplane):
    f = tn.Field("scalar", lambda xj: xj[0] ** 2 * xj[1] + xj[1] ** 2)
    df = tn.covariant_derivative(halfplane, f)
    ddf = tn.exterior_derivative(df)
    vals = tn.field_values(ddf, np.array([0.5, 1.5]), order=3)
    assert np.abs(vals).max() < 1e-12


def test_closed_covector_integrates_back(halfplane):
    # phi = d(x^2 y) has components (2xy, x^2)
    phi = tn.Field("covector",
                   lambda xj: [2.0 * xj[0] * xj[1], xj[0] ** 2])
    box = [(0.2, 1.0), (1.0, 2.0)]
    pot = tn.potential_on_box(phi, box)
    for pt in [(0.5, 1.5), (0.9, 1.2)]:
        got = pot(np.array(pt)) - pot(np.array([0.2, 1.0]))
        want = (pt[0] ** 2 * pt[1]) - (0.2 ** 2 * 1.0)
        assert got == pytest.approx(want, abs=1e-8)


def test_non_closed_covector_is_flagged(halfplane):
    phi = tn.Field("covector", lambda xj: [xj[1], 0.0 * xj[0]])
    d = tn.field_values(tn.exterior_derivative(phi),
                        np.array([0.5, 1.5]), order=2)
    assert np.abs(d).max() > 0.5
