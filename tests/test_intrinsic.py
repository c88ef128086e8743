"""Charts, geodesics, transport, circles, and limit-based curvature."""

import math
import tracemalloc

import numpy as np
import pytest

import curvatur.catalog as cat
import curvatur.intrinsic as ig
import curvatur.numkit as nk
import curvatur.surface_patch as sp
import curvatur.verify as vf


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


@pytest.fixture(scope="module")
def octant():
    """The geodesic octant triangle of the unit sphere on a tilted chart."""
    chart, to_chart, chart_vel = vf._tilted_sphere_chart()
    verts = np.eye(3)
    sides = []
    for p, q in zip(verts, np.roll(verts, -1, axis=0)):
        uv = to_chart(p)
        sides.append(ig.geodesic_trace(chart, uv, chart_vel(uv, q),
                                       math.pi / 2))
    return chart, sides


def test_metric_reads_at_order_0_match_order_1():
    rng = np.random.default_rng(4)
    for name, chart in vf._catalog_charts():
        box = np.array(chart.domain)
        x = box[:, :1] + (box[:, 1:] - box[:, :1]) * rng.uniform(
            0.2, 0.8, size=(chart.dim, 50))
        first = chart.metric_jet(nk.Jet.variables(x, 1)).value
        assert np.array_equal(chart.g_at(x), first), name


def test_evaluator_boundaries_check_component_counts():
    # a 2-component surface evaluator fails at every read, the pullback
    # chart's first metric read included
    flat = sp.SurfacePatch(lambda u, v: [u, v], [(0, 1), (0, 1)])
    with pytest.raises(nk.PreconditionError, match="must return 3 components"):
        flat.jets(0.5, 0.5)
    chart = ig.pullback_metric(flat)
    with pytest.raises(nk.PreconditionError, match="must return 3 components"):
        chart.g_at(np.array([0.5, 0.5]))
    with pytest.raises(nk.PreconditionError, match="must return 3 components"):
        ig.christoffel_at(chart, np.array([0.5, 0.5]))
    wide = ig.MetricChart(2, [(0, 1), (0, 1)],
                          lambda xj: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(nk.PreconditionError, match="2x2 matrix"):
        wide.g_at(np.array([0.5, 0.5]))


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


def _christoffel_embedded(surface, uv):
    """Christoffel symbols of a patch from ambient second derivatives.

    Independent of the metric-derivative formula: solves the tangential
    part of r_ij = Gamma^1_ij r_1 + Gamma^2_ij r_2 + q_ij n through its
    2x2 normal equations.
    """
    js = surface.jets(float(uv[0]), float(uv[1]), order=2)
    r = np.stack([js.partial(a) for a in ((1, 0), (0, 1))])
    rdd = np.array([[js.partial((2 - i - j, i + j)) for j in range(2)]
                    for i in range(2)])
    return np.linalg.solve(r @ r.T, np.einsum('la,ija->lij', r, rdd)
                           .reshape(2, 4)).reshape(2, 2, 2)


def test_christoffel_routes_agree_on_sphere(sphere_chart):
    surface = cat.builtin("sphere").build()
    uv = np.array([2.0, 1.1])
    a = ig.christoffel_at(sphere_chart, uv)
    b = _christoffel_embedded(surface, uv)
    assert np.abs(a - b).max() < 1e-10


def test_christoffel_matches_embedded_on_torus():
    surface = cat.builtin("torus").build()
    uvs = np.array([[0.3, 0.0], [1.7, 2.2], [3.0, 4.4], [4.6, 1.1],
                    [5.9, 5.3]]).T
    batch = ig.christoffel_at(ig.pullback_metric(surface), uvs)
    for c in range(uvs.shape[1]):
        ref = _christoffel_embedded(surface, uvs[:, c])
        assert np.abs(batch[..., c] - ref).max() < 1e-12


def _christoffel_by_inverse_series(chart, xj):
    """Reference Christoffel jet: the metric's jet inverse, from the series
    a^-1 = sum_p (-a0^-1 d)^p a0^-1 with d = a - a0, contracted with the
    lowered symbols as Taylor products."""
    g = chart.metric_jet(xj)
    dg = np.stack([nk.derivative_nd(g, a).coef for a in range(chart.dim)],
                  axis=1)
    sym = (np.einsum('Kilj...->Klij...', dg)
           + np.einsum('Kjli...->Klij...', dg) - dg)
    low = nk.truncate(g, g.order - 1)
    inv0 = nk.Jet.constant(nk._matrix_inv(low.coef[0]), low.nvars, low.order)
    d = nk.Jet(low.nvars, low.order, low.coef.copy())
    d.coef[0] = 0.0
    ginv = inv0
    for _ in range(low.order):
        ginv = inv0 - nk.jet_einsum("rs...,s...->r...", inv0, nk.jet_einsum(
            "rs...,s...->r...", d, ginv))
    return 0.5 * nk.jet_einsum("rs...,s...->r...", ginv,
                               nk.Jet(g.nvars, low.order, sym))


@pytest.mark.parametrize("lanes", [1, 24])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_christoffel_jet_matches_inverse_series(order, lanes, halfplane,
                                                sphere_chart, s3):
    # the symbols solved against g degree by degree equal the inverse-series
    # derivation: the values exactly, every coefficient to roundoff
    rng = np.random.default_rng([order, lanes])
    torus = ig.pullback_metric(cat.builtin("torus").build())
    for chart in (halfplane, sphere_chart, torus, s3):
        box = np.array(chart.domain)
        x = box[:, :1] + (box[:, 1:] - box[:, :1]) * rng.uniform(
            0.2, 0.8, (chart.dim, lanes))
        got = ig.christoffel_jet(chart, nk.Jet.variables(x, order))
        ref = _christoffel_by_inverse_series(chart, nk.Jet.variables(x, order))
        assert got.order == ref.order == order - 1
        assert np.array_equal(got.coef[0], ref.coef[0]), chart.name
        assert (np.abs(got.coef - ref.coef).max()
                <= 1e-14 * np.abs(ref.coef).max()), chart.name


@pytest.mark.parametrize("lanes", [1, 24, 288])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_contracted_christoffel_matches_full(order, lanes, halfplane,
                                             sphere_chart, s3):
    # Gamma^k_ij v^i solved against S(v) equals the full symbols contracted
    # with v, every coefficient to roundoff
    rng = np.random.default_rng([order, lanes, 7])
    hyperboloid = cat.builtin("hyperboloid_pullback").build()
    for chart in (halfplane, sphere_chart, hyperboloid, s3):
        box = np.array(chart.domain)
        x = box[:, :1] + (box[:, 1:] - box[:, :1]) * rng.uniform(
            0.2, 0.8, (chart.dim, lanes))
        v = rng.normal(size=(chart.dim, lanes))
        got = ig.christoffel_jet(chart, nk.Jet.variables(x, order), v)
        full = ig.christoffel_jet(chart, nk.Jet.variables(x, order))
        ref = np.einsum('Kkij...,i...->Kkj...', full.coef, v)
        assert got.order == order - 1
        assert got.coef.shape == ref.shape
        assert (np.abs(got.coef - ref).max()
                <= 1e-14 * np.abs(ref).max()), chart.name


def test_christoffel_jet_constructions(monkeypatch, halfplane, sphere_chart,
                                       s3):
    # deterministic cost guard: Jet objects built per Christoffel evaluation
    # stay at the counts of metrics written as one stacked jet per call and
    # symbols assembled on whole coefficient arrays
    built = []
    init = nk.Jet.__init__

    def counted(jet, nvars, order, coef):
        built.append(1)
        init(jet, nvars, order, coef)

    monkeypatch.setattr(nk.Jet, "__init__", counted)
    ig.christoffel_and_grad(halfplane, np.array([0.2, 1.3]))
    assert len(built) <= 8
    built.clear()
    ig.christoffel_at(sphere_chart, np.array([0.2, 1.3]))
    assert len(built) <= 22         # sin and cos of one angle: one sincos
    built.clear()
    ig.christoffel_and_grad(s3, np.array([1.0, 0.5, 0.3]))
    assert len(built) <= 16
    # one 1-lane variational RHS with 2 columns: its contracted symbols
    for chart, bound in ((halfplane, 7), (s3, 15)):
        n = chart.dim
        y = np.full(6 * n, 0.3)
        y[:n] = [0.2, 1.3, 0.4][:n]
        rhs = ig._variational_rhs(chart, 1, 2)
        built.clear()
        rhs(0.0, y)
        assert len(built) <= bound, chart.name


def test_variational_rhs_peak_memory(s3):
    # deterministic cost guard: the numpy temporaries of one 2-column RHS
    # over a 288-lane s3_round fan (1,732 KB with the full symbols and
    # their gradient; the contracted symbols need about 920 KB)
    rng = np.random.default_rng(0)
    z = rng.normal(size=(288, 6, 3)) * 0.3
    z[:, 0] = [0.2, -0.1, 0.3] + 0.05 * rng.normal(size=(288, 3))
    rhs = ig._variational_rhs(s3, 288, 2)
    rhs(0.0, z.ravel())                    # fill the cached tables first
    tracemalloc.start()
    try:
        rhs(0.0, z.ravel())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1100 * 1024


def test_distance_rhs_budget(halfplane, rhs_evals, monkeypatch):
    # deterministic cost guard: 1,287 RHS evaluations here (1,883 with
    # levels 1e-6, 1e-8, 1e-10 and Jacobi columns in every shot); after the
    # first improving 1e-10 shot, chord shots carry x and v only
    shots = []
    integrate = nk.integrate_ode
    monkeypatch.setattr(nk, "integrate_ode", lambda problem, *a: shots.append(
        (problem.rtol, problem.y0.size)) or integrate(problem, *a))
    ig.geodesic_distance(halfplane, [0.0, 1.0], [3.0, 1.0])
    assert len(rhs_evals) <= 1325
    tight = [size for rtol, size in shots if rtol == 1e-10]
    assert sum(size > 4 for size in tight) == 1     # 4: x and v, one lane


def test_revolution_trace_rhs_budget(rhs_evals):
    # deterministic cost guard on criterion 06's rtol 1e-12 trace: 2,414 RHS
    # evaluations under DOP853 (12,127 under DOPRI5), and 3 more per step
    # only once its dense output is read
    chart = ig.pullback_metric(cat.builtin("revolution").build())
    path = ig.geodesic_trace(chart, [0.5, 0.2], [1.0, 0.25], 50.0,
                             rtol=1e-12, atol=1e-14)
    assert len(rhs_evals) <= 2450
    path.position(np.linspace(0.0, path.length, 400))
    assert len(rhs_evals) <= 3050
    assert len(rhs_evals) == path.trajectory.n_rhs


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
    # exp_P(u) as a one-lane batch and as the unit-speed trace of length
    # |u|_g: the g-norm of (0, 0.7) at y=1 is 0.7, so both land at
    # (0.3, e^0.7)
    end = ig._exp_batch(halfplane, P, u[:, None]).final[:2]
    path = ig.geodesic_trace(halfplane, P, u, ig.g_norm(halfplane, P, u))
    for x in (end, path.end):
        assert np.allclose(x, [0.3, math.exp(0.7)], atol=1e-8)


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


def test_polyline_transport_is_one_solve(sphere_chart, solves):
    pts = np.array([[0.2, 1.0], [1.0, 1.3], [1.5, 0.9], [2.4, 1.6]])
    ig.parallel_transport(sphere_chart, pts, np.eye(2))
    assert len(solves) == 1


@pytest.mark.parametrize("name, x0, v0, length",
                         [("sphere_chart", [0.3, 1.0], [1.0, 0.4], 2.0),
                          ("halfplane", [0.0, 1.0], [1.0, 0.5], 2.5)])
def test_geodesic_transports_its_velocity(request, name, x0, v0, length):
    chart = request.getfixturevalue(name)
    path = ig.geodesic_trace(chart, x0, v0, length)
    assert path.reason == "completed"
    res = ig.parallel_transport(chart, path, path.vs[0])
    assert res.path_kind == "geodesic"
    assert res.ts[0] == 0.0 and res.ts[-1] == 1.0
    assert np.array_equal(res.positions[0], path.start)
    assert np.abs(res.final - path.end_velocity).max() < 1e-9


def test_octant_holonomy_is_one_solve(octant, solves):
    chart, sides = octant
    h = ig.holonomy(chart, sides)
    assert len(solves) == 1
    assert abs(abs(h.angle) - math.pi / 2) < 1e-9
    assert h.orthogonality_residual < 1e-8


def test_geodesic_sides_must_join(octant, sphere_chart):
    chart, sides = octant
    short = ig.geodesic_trace(chart, sides[1].start, sides[1].vs[0],
                              math.pi / 2 - 1e-3)
    with pytest.raises(nk.PreconditionError, match="side 2"):
        ig.holonomy(chart, [sides[0], short, sides[2]])
    # along the equator the second side starts one period back
    a = ig.geodesic_trace(sphere_chart, [5.0, math.pi / 2], [1.0, 0.0], 1.5)
    b = ig.geodesic_trace(sphere_chart, a.end - [2 * math.pi, 0.0],
                          [1.0, 0.0], 1.0)
    res = ig.parallel_transport(sphere_chart, [a, b], [1.0, 0.0])
    assert np.abs(res.final - [1.0, 0.0]).max() < 1e-9


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


@pytest.mark.parametrize("name, P, law", [
    ("sphere_chart", [1.0, 1.2], math.sin),
    ("halfplane", [0.0, 2.0], math.sinh),
    ("plane", [0.1, -0.2], lambda r: r),
])
def test_circle_length_error_covers_true_error(request, name, P, law):
    radii = [0.1, 0.3, 0.6]
    lengths, errors = ig.geodesic_circle_lengths(
        request.getfixturevalue(name), P, radii)
    for r in radii:
        true = abs(lengths[r] - 2 * math.pi * law(r))
        assert true <= errors[r] <= max(100 * true, 1e-9)


def test_jacobi_circle_length_matches_polygon():
    """L(R) from Jacobi columns against the elementary definition: fine
    polygons through exp_P(R u(theta)), midpoint metric, one Richardson
    step over the point count."""
    chart = ig.pullback_metric(cat.builtin("torus").build())
    P, R, N = np.array([0.6, 0.9]), 0.4, 512
    E = chart.orthonormal_basis(P)
    th = 2 * math.pi * np.arange(N) / N
    fan = ig._exp_batch(chart, P, R * (np.cos(th) * E[:, :1]
                                       + np.sin(th) * E[:, 1:]))
    pts = fan.final.reshape(N, 2, 2)[:, 0].T

    def polygon(q):
        d = np.roll(q, -1, axis=1) - q
        return np.sqrt(np.einsum('ijL,iL,jL->L', chart.g_at(q + d / 2),
                                 d, d)).sum()

    lengths, _ = ig.geodesic_circle_lengths(chart, P, [R])
    fine = (4 * polygon(pts) - polygon(pts[:, ::2])) / 3
    assert lengths[R] == pytest.approx(fine, rel=1e-9)


def test_sphere_areas_converge_in_samples(s3):
    s2r = ig.MetricChart(3, [(0.3, 2.8), (-3.0, 3.0), (-2.0, 2.0)],
                         lambda x: [[1.0, 0.0, 0.0],
                                    [0.0, nk.sin(x[0]) ** 2, 0.0],
                                    [0.0, 0.0, 1.0]], name="S2xR")
    radii = [0.05, 0.1, 0.2]
    for chart, P in ((s3, [0.2, -0.3, 0.5]), (s2r, [1.1, 0.4, 0.2])):
        coarse = ig._geodesic_sphere_areas(chart, np.array(P), radii, 24)
        fine = ig._geodesic_sphere_areas(chart, np.array(P), radii, 48)
        for r in radii:
            assert coarse[r] == pytest.approx(fine[r], rel=1e-12)


def test_circle_leaving_the_chart_fails(halfplane):
    with pytest.raises(nk.StepUnderflowError, match="non-finite"):
        ig.geodesic_circle(halfplane, [0.0, 0.1], 2.0)


@pytest.mark.parametrize("samples", [0, -4, 6, 9, 12.5])
def test_fan_samples_must_be_even_and_at_least_8(plane, samples):
    with pytest.raises(nk.PreconditionError, match="even integer >= 8"):
        ig.geodesic_circle(plane, [0.0, 0.0], 0.5, samples=samples)


@pytest.mark.parametrize("name, P, count", [("halfplane", [0.5, 2.0], 1),
                                            ("s3", [0.2, -0.3, 0.5], 1)])
def test_scalar_curvature_solve_count(request, solves, name, P, count):
    # the Jacobi fan is its own radius probe
    est = ig.scalar_curvature_estimate(request.getfixturevalue(name), P)
    assert len(solves) == count == est.cost["solves"]


@pytest.mark.parametrize("name, P, budget", [("sphere_chart", [1.0, 1.2], 45),
                                             ("halfplane", [0.5, 2.0], 70),
                                             ("s3", [0.2, -0.3, 0.5], 70)])
def test_scalar_curvature_rhs_budget(request, rhs_evals, name, P, budget):
    # deterministic cost guard: one fan, no probe solve (43, 67 and 67 RHS
    # evaluations here; the probe added 55, 73 and 43)
    est = ig.scalar_curvature_estimate(request.getfixturevalue(name), P)
    assert len(rhs_evals) == est.cost["rhs_evals"] <= budget


@pytest.mark.parametrize("samples", [6, 9])
def test_scalar_curvature_checks_samples_before_solving(halfplane, s3, solves,
                                                        samples):
    for chart, P in ((halfplane, [0.5, 2.0]), (s3, [0.2, -0.3, 0.5])):
        with pytest.raises(nk.PreconditionError, match="even integer >= 8"):
            ig.scalar_curvature_estimate(chart, P, samples=samples)
    assert not solves


def test_shrink_radii_at_chart_edges(sphere_chart, halfplane):
    # a fan that leaves the box reruns at the largest r0 / 2^k its lanes
    # reached, which is the radius a separate probe found
    hyperboloid = cat.builtin("hyperboloid_pullback").build()
    for chart, P, r0 in ((sphere_chart, [1.0, 0.25], 0.1),
                         (hyperboloid, [1.9, 0.0], 0.025),
                         (halfplane, [0.0, 0.12], 0.2)):
        est = ig.scalar_curvature_estimate(chart, np.array(P), 0.2)
        assert est.radii[0] == r0
        assert est.cost["solves"] == (1 if r0 == 0.2 else 2)


def test_scalar_curvature_on_a_skewed_chart_edge():
    # probing the +-E frame directions passed here, and then a fan lane
    # between them left the box; the fan now finds the radius itself
    skew = ig.MetricChart(2, [(-1.0, 1.0), (-1.0, 1.0)],
                          lambda x: [[1.0, 0.9], [0.9, 1.0]])
    est = ig.scalar_curvature_estimate(skew, np.array([0.55, 0.0]))
    assert est.radii[0] == 0.1
    assert abs(est.tau) < 1e-9 and est.cost["solves"] == 2


def test_scalar_curvature_outside_the_chart_fails(halfplane):
    with pytest.raises(nk.PreconditionError, match="no usable circle radius"):
        ig.scalar_curvature_estimate(halfplane, np.array([0.0, -1.0]))


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
    traj = ig._exp_batch(chart, P, (E @ w)[:, None], E.T[:, :, None],
                         freeze=True, steer=False)
    n = chart.dim
    jac = traj.final.reshape(2 + 2 * n, n)[2:2 + n].T      # columns d/dw_c
    h = 1e-4
    U = np.stack([E @ (w + sign * h * e) for e in np.eye(n)
                  for sign in (1, -1)], axis=1)
    ends = ig._exp_batch(chart, P, U).final.reshape(n, 2, 2, n)[:, :, 0]
    fd = ((ends[:, 0] - ends[:, 1]) / (2 * h)).T
    assert np.abs(jac - fd).max() <= 1e-6 * np.abs(fd).max()


@pytest.mark.parametrize("ncols", [2, 0])
def test_shooting_solve_freezes_a_lane_that_leaves(halfplane, ncols):
    # lane 1 heads for y = e^-5, below the box; it must stop outside the
    # box without stalling lane 0, which keeps its solo endpoint, with
    # Jacobi columns and without them (a chord shot)
    P = np.array([0.0, 1.0])
    U = np.array([[0.5, 0.0], [0.2, -5.0]])
    dU = np.repeat(np.eye(2)[:, :, None], 2, axis=2)[:ncols]
    both = ig._exp_batch(halfplane, P, U, dU, freeze=True, steer=False)
    solo = ig._exp_batch(halfplane, P, U[:, :1], dU[..., :1], freeze=True,
                         steer=False)
    z = both.final.reshape(2, 2 + 2 * ncols, 2)
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
    end = ig._exp_batch(halfplane, P, best[:, None]).final[:2]
    assert np.abs(end - Q).max() == pytest.approx(miss, rel=1e-3)
