"""Fundamental forms, principal curvatures, areas, and offsets."""

import math

import numpy as np
import pytest

import curvatur.catalog as cat
import curvatur.numkit as nk
import curvatur.surface_patch as sp


@pytest.fixture(scope="module")
def sphere():
    return cat.builtin("sphere").build()


@pytest.fixture(scope="module")
def torus():
    return cat.builtin("torus").build()


def test_sphere_first_form(sphere):
    uv = (1.2, 0.8)
    f = sp.forms_at(sphere, uv)
    expected = np.diag([math.sin(uv[1]) ** 2, 1.0])
    assert np.allclose(f.g, expected, atol=1e-12)
    assert np.allclose(f.basis @ f.normal, 0.0, atol=1e-12)
    assert np.linalg.norm(f.normal) == pytest.approx(1.0, abs=1e-12)


def test_sphere_is_umbilic(sphere):
    rep = sp.principal_at(sphere, (2.0, 1.1))
    assert rep.umbilic
    assert rep.lam_plus == pytest.approx(1.0, abs=1e-10)
    assert rep.lam_minus == pytest.approx(1.0, abs=1e-10)
    assert rep.gauss == pytest.approx(1.0, abs=1e-10)
    assert rep.scalar == pytest.approx(2.0, abs=1e-10)


def test_cylinder_principal_curvatures():
    cyl = cat.builtin("cylinder").build()
    rep = sp.principal_at(cyl, (0.7, 0.5))
    lams = sorted([rep.lam_plus, rep.lam_minus], key=abs)
    assert lams[0] == pytest.approx(0.0, abs=1e-12)
    assert abs(lams[1]) == pytest.approx(1.0, abs=1e-12)
    assert rep.gauss == pytest.approx(0.0, abs=1e-12)


def test_torus_equator_curvatures(torus):
    # outer equator v=0: principal curvatures 1/r and cos v/(R + r cos v)
    rep = sp.principal_at(torus, (0.4, 0.0))
    lams = sorted([abs(rep.lam_plus), abs(rep.lam_minus)])
    assert lams[0] == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert lams[1] == pytest.approx(1.0, abs=1e-10)
    assert abs(rep.gauss) == pytest.approx(1.0 / 3.0, abs=1e-10)
    # inner equator v=pi has negative Gaussian curvature
    inner = sp.principal_at(torus, (0.4, math.pi))
    assert inner.gauss == pytest.approx(-1.0, abs=1e-10)


def test_saddle_origin(sphere):
    saddle = cat.builtin("saddle").build()
    rep = sp.principal_at(saddle, (0.0, 0.0))
    assert rep.gauss == pytest.approx(-1.0, abs=1e-12)
    assert rep.lam_plus == pytest.approx(1.0, abs=1e-12)
    assert rep.lam_minus == pytest.approx(-1.0, abs=1e-12)


def test_euler_formula_section_curvatures(torus):
    uv = (0.9, 1.4)
    rep = sp.principal_at(torus, uv)
    for phi in (0.0, 0.4, 1.1):
        kn = sp.section_curvature(torus, uv, phi, 0.0)
        euler = rep.lam_plus * math.cos(phi) ** 2 \
            + rep.lam_minus * math.sin(phi) ** 2
        assert kn == pytest.approx(euler, abs=1e-8)


def test_meusnier_inclined_sections(torus):
    uv, phi = (0.9, 1.4), 0.5
    kn = sp.section_curvature(torus, uv, phi, 0.0)
    for theta in (0.3, 0.9):
        k = sp.section_curvature(torus, uv, phi, theta, method="slice")
        assert k * math.cos(theta) == pytest.approx(kn, abs=1e-7)


def test_sphere_cap_area(sphere):
    (u0, u1), (v0, v1) = sphere.domain
    expected = (u1 - u0) * (math.cos(v0) - math.cos(v1))
    assert sp.area(sphere) == pytest.approx(expected, abs=1e-9)


def test_cylinder_area_closed_form():
    spec = cat.builtin("cylinder")
    (u0, u1), (v0, v1) = spec.domain
    r = spec.params["R"]
    patch = spec.build()
    assert sp.area(patch) == pytest.approx(r * (u1 - u0) * (v1 - v0),
                                           abs=1e-9)


def test_offset_sphere_area_shrinks_inward(sphere):
    eps = 0.05
    off = sp.offset_surface(sphere, eps)
    assert sp.area(off) == pytest.approx((1 - eps) ** 2 * sp.area(sphere),
                                         abs=1e-8)


def test_offset_of_constant_component_patch():
    plane = cat.builtin("plane").build()          # (u, v, 0)
    off = sp.offset_surface(plane, 0.3)
    assert off.point(0.5, -1.0) == pytest.approx([0.5, -1.0, 0.3], abs=1e-15)
    assert sp.area(off) == pytest.approx(sp.area(plane), abs=1e-12)


def test_offset_beyond_focal_distance_rejected(sphere):
    with pytest.raises(nk.PreconditionError):
        sp.offset_surface(sphere, 1.2)


def test_offset_of_patch_through_cone_apex_rejected():
    cone = sp.SurfacePatch(lambda u, v: [v * u.cos(), v * u.sin(), v],
                           [(0.0, 2 * math.pi), (0.0, 2.0)])
    with pytest.raises(nk.PreconditionError, match="not regular"):
        sp.offset_surface(cone, 0.01)


def test_forms_at_cone_apex_names_the_point():
    cone = sp.SurfacePatch(lambda u, v: [v * u.cos(), v * u.sin(), v],
                           [(0.0, 2 * math.pi), (0.0, 2.0)])
    with pytest.raises(nk.PreconditionError) as exc:
        sp.forms_at(cone, tuple(np.zeros(2)))   # numpy scalars
    assert str(exc.value) == "patch is not regular at (u,v)=(0,0)"


def test_total_curvatures_orientation_consistency(sphere):
    natural = sp.total_curvatures(sphere)
    flipped = sp.total_curvatures(sphere.flipped())
    s = sp.area(sphere)
    assert natural.area == pytest.approx(s, abs=1e-9)
    assert natural.mean_total == pytest.approx(-2 * s, abs=1e-7)
    assert flipped.mean_total == pytest.approx(2 * s, abs=1e-7)
    assert natural.gauss_total == pytest.approx(s, abs=1e-7)
    assert flipped.gauss_total == pytest.approx(s, abs=1e-7)
    assert natural.ok and flipped.ok


def test_gauss_map_area_is_coorientation_free(sphere):
    a = sp.gauss_map_signed_area(sphere)
    b = sp.gauss_map_signed_area(sphere.flipped())
    assert a == pytest.approx(b, abs=1e-10)
    assert a == pytest.approx(sp.area(sphere), abs=1e-7)


def test_graph_normal_is_unit_and_orthogonal():
    graph = cat.builtin("graph").build()
    for uv in [(0.3, -0.4), (-0.7, 0.2)]:
        f = sp.forms_at(graph, uv)
        assert np.linalg.norm(f.normal) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(f.basis @ f.normal).max() < 1e-12


def _outward_near_full_sphere():
    """The outward unit sphere minus polar caps of 1e-4, as in criterion 05."""
    m = 1e-4
    patch = sp.SurfacePatch(
        lambda u, v: [u.cos() * v.sin(), u.sin() * v.sin(), v.cos()],
        [(0, 2 * math.pi), (m, math.pi - m)], periods=(2 * math.pi, None))
    return patch.flipped()


@pytest.mark.parametrize("name", ["torus", "cylinder", "sphere"])
def test_fused_offset_areas_match_offset_patches(name):
    patch = (_outward_near_full_sphere() if name == "sphere"
             else cat.builtin(name).build())
    rep = sp.total_curvatures(patch)
    assert len(rep.offset_areas) == len(rep.epsilons) == 6
    for eps, fused in zip(rep.epsilons, rep.offset_areas):
        direct = sp.area(sp.offset_surface(patch, eps))
        assert fused == pytest.approx(direct, rel=1e-12, abs=0.0)


def test_total_curvatures_keeps_the_focal_error():
    small = cat.builtin("sphere").with_params(R=0.008).build()
    with pytest.raises(nk.PreconditionError) as via_offset:
        sp.offset_surface(small, 0.01)
    with pytest.raises(nk.PreconditionError) as via_totals:
        sp.total_curvatures(small)
    assert str(via_totals.value) == str(via_offset.value)
    assert str(via_totals.value) == (
        "offset 0.01 crosses the focal set at (u,v)=(0,0.1)")


def test_total_curvatures_is_one_quadrature(torus, quad_grids):
    sp.total_curvatures(torus)
    assert quad_grids == [[(8, 8), (16, 16)]]
