"""Charts, geodesics, transport, circles, and limit-based curvature."""

import math

import numpy as np
import pytest

import curvatur.catalog as cat
import curvatur.intrinsic as ig
import curvatur.numkit as nk


@pytest.fixture(scope="module")
def halfplane():
    return cat.builtin("lobachevsky_halfplane").build()


@pytest.fixture(scope="module")
def plane():
    return ig.pullback_metric(cat.builtin("plane").build())


@pytest.fixture(scope="module")
def sphere_chart():
    return ig.pullback_metric(cat.builtin("sphere").build())


@pytest.fixture(scope="module")
def s3():
    return cat.builtin("s3_round").build()


def test_sphere_pullback_metric(sphere_chart):
    x = np.array([1.2, 0.8])
    g = sphere_chart.g_at(x)
    assert np.allclose(g, np.diag([math.sin(0.8) ** 2, 1.0]), atol=1e-12)


def test_halfplane_christoffel_closed_form(halfplane):
    x = np.array([0.4, 2.0])
    y = x[1]
    # for g = diag(1/y^2, 1/y^2): G^x_xy = G^x_yx = -1/y,
    # G^y_xx = 1/y, G^y_yy = -1/y, so Gamma = C / y
    C = np.zeros((2, 2, 2))
    C[0, 0, 1] = C[0, 1, 0] = -1.0
    C[1, 0, 0] = 1.0
    C[1, 1, 1] = -1.0
    assert np.allclose(ig.christoffel_at(halfplane, x), C / y, atol=1e-12)
    gamma, dgamma = ig.christoffel_and_grad(halfplane, x)
    assert np.allclose(gamma, C / y, atol=1e-12)
    assert np.allclose(dgamma[0], 0.0, atol=1e-12)
    assert np.allclose(dgamma[1], -C / y ** 2, atol=1e-12)
    jet = ig.christoffel_jet(halfplane, nk.Jet.variables(x, 3))
    assert jet.order == 2
    assert np.allclose(jet.partial((0, 2)), 2 * C / y ** 3, atol=1e-12)
    for alpha in ((1, 0), (2, 0), (1, 1)):
        assert np.allclose(jet.partial(alpha), 0.0, atol=1e-12)


def test_sphere_christoffel_gradient_closed_form(sphere_chart):
    v = 1.1
    gamma, dgamma = ig.christoffel_and_grad(sphere_chart, np.array([0.7, v]))
    # g = diag(sin^2 v, 1): G^u_uv = cot v and G^v_uu = -sin v cos v
    assert gamma[0, 0, 1] == pytest.approx(1 / math.tan(v), abs=1e-13)
    assert gamma[1, 0, 0] == pytest.approx(-math.sin(v) * math.cos(v),
                                           abs=1e-13)
    expected = np.zeros((2, 2, 2, 2))
    expected[1, 0, 0, 1] = expected[1, 0, 1, 0] = -1 / math.sin(v) ** 2
    expected[1, 1, 0, 0] = -math.cos(2 * v)
    assert np.allclose(dgamma, expected, atol=1e-13)


def test_christoffel_routes_agree_on_sphere(sphere_chart):
    surface = cat.builtin("sphere").build()
    uv = np.array([2.0, 1.1])
    a = ig.christoffel_at(sphere_chart, uv)
    b = ig.christoffel_embedded(surface, uv)
    assert np.abs(a - b).max() < 1e-10


def test_christoffel_matches_embedded_on_torus():
    surface = cat.builtin("torus").build()
    uvs = np.array([[0.3, 0.0], [1.7, 2.2], [3.0, 4.4], [4.6, 1.1],
                    [5.9, 5.3]]).T
    batch = ig.christoffel_at(ig.pullback_metric(surface), uvs)
    for c in range(uvs.shape[1]):
        ref = ig.christoffel_embedded(surface, uvs[:, c])
        assert np.abs(batch[..., c] - ref).max() < 1e-12


def test_plane_geodesics_are_straight(plane):
    path = ig.geodesic_trace(plane, [0.0, 0.0], [3.0, 4.0], 1.0)
    assert path.reason == "completed"
    # trace normalizes to unit speed, so length 1 along direction (3,4)/5
    assert np.allclose(path.end, [0.6, 0.8], atol=1e-10)
    assert path.speed_drift() < 1e-10


def test_halfplane_vertical_ray_closed_form(halfplane):
    path = ig.geodesic_trace(halfplane, [0.0, 1.0], [0.0, 1.0], 1.5)
    assert np.allclose(path.end, [0.0, math.exp(1.5)], atol=1e-8)


def test_trace_reports_domain_exit(plane):
    path = ig.geodesic_trace(plane, [0.0, 0.0], [1.0, 0.0], 10.0)
    assert path.reason == "domain-exit"
    assert path.length < 10.0
    assert path.end[0] == pytest.approx(2.0, abs=1e-6)


def test_domain_exit_keeps_accepted_path(halfplane):
    # the vertical geodesic y = e^-t leaves the chart at y = 0.05
    path = ig.geodesic_trace(halfplane, [0.0, 1.0], [0.0, -1.0], 5.0)
    assert path.reason == "domain-exit"
    assert path.length == pytest.approx(-math.log(0.05), abs=1e-8)
    assert len(path.ts) > 10
    ts = np.linspace(0.0, path.length, 201)
    exact = np.stack([np.zeros_like(ts), np.exp(-ts)], axis=1)
    assert np.abs(path.position(ts) - exact).max() < 1e-8


def test_trace_from_outside_chart_rejected(halfplane):
    with pytest.raises(nk.PreconditionError):
        ig.geodesic_trace(halfplane, [0.0, 0.01], [0.0, 1.0], 1.0)


def test_exp_map_matches_trace(halfplane):
    P = np.array([0.3, 1.0])
    u = np.array([0.0, 0.7])
    end = ig.exp_map(halfplane, P, u)
    # g-norm of (0, 0.7) at y=1 is 0.7, so exp lands at (0.3, e^0.7)
    assert np.allclose(end, [0.3, math.exp(0.7)], atol=1e-8)


def test_transport_single_vector_polyline(plane):
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    res = ig.parallel_transport(plane, pts, np.array([1.0, 0.0]))
    assert res.path_kind == "polyline"
    assert np.allclose(res.final, [1.0, 0.0], atol=1e-12)
    assert res.gram_drift < 1e-12


def test_transport_preserves_inner_products(sphere_chart):
    pts = np.array([[0.2, 1.0], [1.0, 1.3], [1.5, 0.9]])
    A0 = np.array([[1.0, 0.0], [0.0, 1.0]])
    res = ig.parallel_transport(sphere_chart, pts, A0)
    g0 = sphere_chart.g_at(pts[0])
    g1 = sphere_chart.g_at(pts[-1])
    gram0 = A0.T @ g0 @ A0
    gram1 = res.final.T @ g1 @ res.final
    assert np.abs(gram0 - gram1).max() < 1e-9
    assert res.gram_drift < 1e-9


def test_latitude_holonomy_closed_form(sphere_chart):
    v0 = 1.0
    loop = np.array([[0.0, v0], [math.pi, v0], [2 * math.pi, v0]])
    res = ig.holonomy(sphere_chart, loop)
    expected = 2 * math.pi * (1 - math.cos(v0))
    assert abs(res.angle) == pytest.approx(expected, abs=1e-8)
    assert res.orthogonality_residual < 1e-9


def _segment_chain(chart, pts, a0):
    a = a0
    for p, q in zip(pts[:-1], pts[1:]):
        a = ig.parallel_transport(chart, np.array([p, q]), a).final
    return a


@pytest.mark.parametrize("a0", [np.array([1.0, 0.5]),
                                np.array([[1.0, 0.3], [0.5, -1.0]])],
                         ids=["k=1", "k=n"])
def test_polyline_transport_matches_segment_chain(sphere_chart, a0):
    pts = np.array([[0.2, 1.0], [1.0, 1.3], [1.5, 0.9], [2.4, 1.6],
                    [3.0, 1.1], [3.1, 0.4]])
    res = ig.parallel_transport(sphere_chart, pts, a0)
    assert res.final.shape == a0.shape
    assert np.abs(res.final - _segment_chain(sphere_chart, pts, a0)).max() \
        < 1e-10


def test_polyline_transport_matches_segment_chain_s3(s3):
    pts = np.array([[0.3, 0.2, 0.1], [-0.5, 0.4, 0.2], [0.1, -0.6, 0.7],
                    [0.8, 0.3, -0.4], [0.0, 0.0, 0.0]])
    res = ig.parallel_transport(s3, pts, np.eye(3))
    assert np.abs(res.final - _segment_chain(s3, pts, np.eye(3))).max() < 1e-10
    assert res.gram_drift < 1e-9


def test_uneven_polyline_latitude_holonomy(sphere_chart):
    # 40 short segments in u in [0, 0.01], then one segment round to 2 pi:
    # every segment shares one mesh, yet each keeps its own tolerance
    u = np.append(np.linspace(0.0, 0.01, 41), 2 * math.pi)
    loop = np.stack([u, np.ones_like(u)], axis=1)
    res = ig.holonomy(sphere_chart, loop)
    assert abs(res.angle) == pytest.approx(2 * math.pi * (1 - math.cos(1.0)),
                                           abs=1e-10)
    assert res.gram_drift < 1e-9
    final = ig.parallel_transport(sphere_chart, loop, np.eye(2)).final
    assert np.abs(final - _segment_chain(sphere_chart, loop, np.eye(2))).max() \
        < 1e-10


def test_polyline_transport_samples(sphere_chart):
    pts = np.array([[0.2, 1.0], [1.0, 1.3], [1.0, 1.3005], [1.5, 0.9]])
    res = ig.parallel_transport(sphere_chart, pts, np.eye(2))
    assert np.all(np.diff(res.ts) > 0)
    assert res.ts[0] == 0.0 and res.ts[-1] == len(pts) - 1
    at = [int(np.argmin(np.abs(res.ts - i))) for i in range(len(pts))]
    assert np.array_equal(res.ts[at], np.arange(len(pts)))
    assert np.abs(res.positions[at] - pts).max() < 1e-14
    assert res.vectors.shape == (len(res.ts), 2, 2)
    assert np.array_equal(res.vectors[0], np.eye(2))


def test_polyline_transport_is_one_solve(sphere_chart, monkeypatch):
    solves = []
    integrate = nk.integrate_ode
    monkeypatch.setattr(nk, "integrate_ode",
                        lambda *a, **kw: solves.append(1) or integrate(*a, **kw))
    pts = np.array([[0.2, 1.0], [1.0, 1.3], [1.5, 0.9], [2.4, 1.6]])
    ig.parallel_transport(sphere_chart, pts, np.eye(2))
    assert len(solves) == 1


def test_polyline_outside_chart_rejected(halfplane):
    pts = np.array([[0.0, 1.0], [0.0, -0.5], [1.0, 1.0]])
    with pytest.raises(nk.PreconditionError, match="waypoint 1"):
        ig.parallel_transport(halfplane, pts, np.array([1.0, 0.0]))


def test_holonomy_rejects_open_loops(plane):
    loop = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(nk.PreconditionError):
        ig.holonomy(plane, loop)


def test_plane_circles_are_euclidean(plane):
    res = ig.geodesic_circle(plane, [0.1, -0.2], 0.8)
    assert res.length == pytest.approx(2 * math.pi * 0.8, abs=1e-8)
    assert res.disk_area == pytest.approx(math.pi * 0.64, abs=1e-8)
    assert res.ds_dr_residual < 1e-6
    assert not res.warnings


def test_circle_lengths_batch_matches_single(halfplane):
    P = np.array([0.0, 2.0])
    lengths, errs = ig.geodesic_circle_lengths(halfplane, P, [0.3, 0.6])
    single = ig.geodesic_circle(halfplane, P, 0.6)
    assert lengths[0.6] == pytest.approx(single.length, abs=1e-9)
    assert all(e < 1e-3 for e in errs.values())


def test_scalar_curvature_plane_and_halfplane(plane, halfplane):
    flat = ig.scalar_curvature_estimate(plane, [0.2, 0.3])
    assert abs(flat.tau) < 1e-6
    assert flat.routes_agree
    hyp = ig.scalar_curvature_estimate(halfplane, [0.5, 2.0])
    assert hyp.tau == pytest.approx(-2.0, abs=2e-3)
    assert hyp.routes_agree


def test_geodesic_distance_plane_is_euclidean(plane):
    d = ig.geodesic_distance(plane, [0.1, 0.2], [1.0, 1.4])
    assert d == pytest.approx(math.hypot(0.9, 1.2), abs=1e-10)


def test_geodesic_distance_wraps_periodic_charts():
    chart = ig.pullback_metric(cat.builtin("torus").build())
    # outer equator is a geodesic; shortest arc crosses the u seam
    d = ig.geodesic_distance(chart, [0.05, 0.0],
                             [2 * math.pi - 0.05, 0.0])
    assert d == pytest.approx(0.3, abs=1e-8)


def test_halfplane_distance_closed_form(halfplane):
    z1, z2 = complex(0.0, 1.0), complex(3.0, 1.0)
    d = ig.geodesic_distance(halfplane, [z1.real, z1.imag],
                             [z2.real, z2.imag])
    assert d == pytest.approx(cat.hyperbolic_distance(z1, z2), abs=1e-8)


def _s3_closed_form(p, q):
    # s3_round is the unit 3-sphere through stereographic coordinates x/2
    def lift(x):
        y = np.asarray(x, dtype=float) / 2.0
        r2 = y @ y
        return np.append(2.0 * y, r2 - 1.0) / (r2 + 1.0)

    return math.acos(np.clip(lift(p) @ lift(q), -1.0, 1.0))


@pytest.mark.parametrize("name,P,w", [
    ("lobachevsky_halfplane", [0.2, 1.1], [0.9, -0.4]),
    ("s3_round", [0.3, -0.2, 0.1], [0.5, 0.6, -0.4]),
])
def test_jacobi_columns_match_exp_differences(name, P, w):
    chart = cat.builtin(name).build()
    P, w = np.array(P), np.array(w)
    E = chart.orthonormal_basis(P)
    traj = ig._exp_batch_variational(chart, P, (E @ w)[:, None],
                                     E.T[:, :, None], shooting=True)
    n = chart.dim
    jac = traj.final.reshape(2 + 2 * n, n)[2:2 + n].T      # columns d/dw_c
    h = 1e-4
    fd = np.stack([(ig.exp_map(chart, P, E @ (w + h * e))
                    - ig.exp_map(chart, P, E @ (w - h * e))) / (2 * h)
                   for e in np.eye(n)], axis=1)
    assert np.abs(jac - fd).max() <= 1e-6 * np.abs(fd).max()


def test_shooting_solve_freezes_a_lane_that_leaves(halfplane):
    # lane 1 heads for y = e^-5, below the box; it must stop outside the
    # box without stalling lane 0, which keeps its solo endpoint
    P = np.array([0.0, 1.0])
    U = np.array([[0.5, 0.0], [0.2, -5.0]])
    dU = np.repeat(np.eye(2)[:, :, None], 2, axis=2)
    both = ig._exp_batch_variational(halfplane, P, U, dU, shooting=True)
    solo = ig._exp_batch_variational(halfplane, P, U[:, :1], dU[..., :1],
                                     shooting=True)
    z = both.final.reshape(2, 6, 2)
    assert np.isfinite(z).all()
    assert not halfplane.contains(z[1, 0][:, None])[0]
    assert np.abs(z[0, 0] - solo.final[:2]).max() < 1e-9


def test_distance_of_nearby_points_is_not_zero(halfplane):
    # points 1e-6 apart are distinct: no relative closeness test may
    # round their distance to 0
    d = ig.geodesic_distance(halfplane, [1.0, 1.0], [1.0, 1.000001])
    assert d == pytest.approx(math.log(1.000001), abs=1e-10)
    assert ig.geodesic_distance(halfplane, [1.0, 1.0], [1.0, 1.0]) == 0.0


def test_s3_distance_closed_form(s3):
    P, Q = np.array([0.4, -0.3, 0.2]), np.array([-0.5, 0.6, 0.7])
    d = ig.geodesic_distance(s3, P, Q)
    assert d == pytest.approx(_s3_closed_form(P, Q), abs=1e-8)


def test_distance_batch_matches_single_pairs(halfplane):
    P = np.array([[0.0, 1.0], [-1.5, 0.4], [1.2, 2.5]])
    Q = np.array([[3.0, 1.0], [0.5, 2.2], [0.9, 0.6]])
    res = ig.geodesic_distances(halfplane, P, Q)
    single = [ig.geodesic_distance(halfplane, p, q) for p, q in zip(P, Q)]
    assert np.abs(res.distance - single).max() <= 1e-10
    assert (res.miss <= 1e-10).all()
    for p, u, d in zip(P, res.velocity, res.distance):
        assert ig.g_norm(halfplane, p, u) == pytest.approx(d, rel=1e-12)


def test_distance_batch_fails_only_the_pair_outside(halfplane):
    P = np.array([[0.0, 1.0], [0.5, 1.0], [-1.0, 2.0]])
    Q = np.array([[1.0, 1.5], [0.5, 0.01], [0.0, 0.5]])     # 0.01 < 0.05
    res = ig.geodesic_distances(halfplane, P, Q)
    assert np.isnan(res.distance[1]) and res.miss[1] == math.inf
    for i in (0, 2):
        exact = cat.hyperbolic_distance(complex(*P[i]), complex(*Q[i]))
        assert res.distance[i] == pytest.approx(exact, abs=1e-8)
    with pytest.raises(nk.PreconditionError):
        ig.geodesic_distance(halfplane, P[1], Q[1])


def test_failed_shooting_keeps_best_velocity(halfplane):
    P, Q = np.array([0.0, 1.0]), np.array([3.0, 1.0])
    with pytest.raises(nk.NonConvergenceError) as info:
        ig.geodesic_distance(halfplane, P, Q, max_iter=1)
    best, miss = info.value.best, info.value.residual
    assert best.shape == (2,) and np.isfinite(best).all()
    assert 0.0 < miss < np.abs(Q - P).max()
    end = ig.exp_map(halfplane, P, best)
    assert np.abs(end - Q).max() == pytest.approx(miss, rel=1e-3)
