"""Frenet data, arc length, and natural-equation reconstruction."""

import math

import numpy as np
import pytest

import curvatur.catalog as cat
import curvatur.curves as cv
import curvatur.numkit as nk


def circle(radius=1.0, clockwise=False):
    s = -1.0 if clockwise else 1.0
    return cv.ParamCurve(lambda t: [radius * nk.cos(t),
                                    s * radius * nk.sin(t)],
                         (0.0, 2 * math.pi), dim=2)


def test_circle_length_and_signed_curvature():
    c = circle(2.0)
    assert cv.arc_length(c) == pytest.approx(4 * math.pi, abs=1e-10)
    assert cv.plane_curvature(c, 0.7) == pytest.approx(0.5, abs=1e-12)
    assert cv.plane_curvature(circle(2.0, clockwise=True), 0.7) == \
        pytest.approx(-0.5, abs=1e-12)


def test_parabola_vertex_curvature():
    c = cv.ParamCurve(lambda t: [t, t * t], (-1.0, 1.0), dim=2)
    # k = 2a / (1 + 4 a^2 t^2)^(3/2) with a=1
    assert cv.plane_curvature(c, 0.0) == pytest.approx(2.0, abs=1e-12)
    assert cv.plane_curvature(c, 0.5) == pytest.approx(
        2.0 / (1 + 1) ** 1.5, abs=1e-12)


def test_cycloid_arc_length_closed_form():
    c = cat.builtin("cycloid").build()
    a, b = c.domain
    # |velocity| = 2 |sin(t/2)|, so length = 4 (cos(a/2) - cos(b/2))
    expected = 4 * (math.cos(a / 2) - math.cos(b / 2))
    assert cv.arc_length(c) == pytest.approx(expected, abs=1e-10)


def test_helix_curvature_torsion_closed_form():
    r, omega, v = 1.3, 0.8, 0.6
    c = cat.builtin("helix", {"r": r, "omega": omega, "v": v}).build()
    denom = r * r * omega * omega + v * v
    for t in (0.3, 1.7, 5.0):
        k, kappa = cv.space_curvature_torsion(c, t)
        assert k == pytest.approx(r * omega * omega / denom, abs=1e-12)
        assert kappa == pytest.approx(v * omega / denom, abs=1e-12)
    assert cv.speed(c, 2.0) == pytest.approx(math.sqrt(denom), abs=1e-12)


def test_frenet_frame_is_orthonormal_and_dextral():
    c = cat.builtin("viviani").build()
    fr = cv.frenet_frame(c, 0.7)
    basis = np.stack([fr.tangent, fr.normal, fr.binormal])
    assert np.allclose(basis @ basis.T, np.eye(3), atol=1e-12)
    assert np.allclose(np.cross(fr.tangent, fr.normal), fr.binormal,
                       atol=1e-12)
    k, kappa = cv.space_curvature_torsion(c, 0.7)
    assert fr.curvature == pytest.approx(k, abs=1e-12)
    assert fr.torsion == pytest.approx(kappa, abs=1e-12)


def test_plane_frenet_has_no_binormal():
    fr = cv.frenet_frame(circle(), 0.4)
    assert fr.binormal is None and fr.torsion is None
    assert fr.curvature == pytest.approx(1.0, abs=1e-12)


def test_frenet_rejects_straight_points():
    line = cv.ParamCurve(lambda t: [t, 2.0 * t, -t], (0.0, 1.0), dim=3)
    with pytest.raises(nk.PreconditionError):
        cv.frenet_frame(line, 0.5)


def test_natural_reparametrization_is_unit_speed():
    ellipse = cv.ParamCurve(lambda t: [2.0 * nk.cos(t), nk.sin(t)],
                            (0.0, 2 * math.pi), dim=2)
    nat = cv.NaturalCurve(ellipse)
    total = cv.arc_length(ellipse)
    assert nat.domain[1] == pytest.approx(total, abs=1e-9)
    for s in np.linspace(0.1, total - 0.1, 7):
        assert cv.speed(nat, float(s)) == pytest.approx(1.0, abs=1e-9)


def test_natural_curve_of_a_parsed_curve_with_a_constant():
    c = cat.parse_geometry("curve c (t in [0,1]) = (t, 1)").build()
    assert cv.speed(cv.NaturalCurve(c), 0.3) == pytest.approx(1.0, abs=1e-12)


def test_evaluator_boundary_checks_the_dimension():
    bent = cv.ParamCurve(lambda t: [t, t * t, 1.0], (0.0, 1.0), dim=2)
    with pytest.raises(nk.PreconditionError, match="wrong dimension"):
        bent.jets(0.5)
    with pytest.raises(nk.PreconditionError, match="wrong dimension"):
        cv.NaturalCurve(bent)


def test_reconstruct_plane_circle_closes():
    c = cv.reconstruct_plane_curve(1.0, 2 * math.pi)
    start, end = np.array(c.point(0.0)), np.array(c.point(2 * math.pi))
    assert np.abs(end - start).max() < 1e-9
    assert cv.plane_curvature(c, 1.0) == pytest.approx(1.0, abs=1e-10)


def test_reconstruct_space_constants_give_helix():
    k, kappa = 0.8, 0.4
    c = cv.reconstruct_space_curve(k, kappa, 5.0)
    for s in (0.5, 2.5, 4.5):
        kk, tt = cv.space_curvature_torsion(c, s)
        assert kk == pytest.approx(k, abs=1e-7)
        assert tt == pytest.approx(kappa, abs=1e-7)
        assert cv.speed(c, s) == pytest.approx(1.0, abs=1e-8)


def test_reconstruct_variable_curvature_round_trip():
    kbar = lambda s: 1.0 + 0.3 * nk.sin(s)
    c = cv.reconstruct_plane_curve(kbar, 4.0)
    for s in (0.2, 1.9, 3.7):
        assert cv.plane_curvature(c, s) == pytest.approx(
            1.0 + 0.3 * math.sin(s), abs=1e-9)
