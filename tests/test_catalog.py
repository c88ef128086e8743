"""Geometry grammar, builtins, and hyperbolic closed forms."""

import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvatur.catalog as cat
import curvatur.curves as cv
import curvatur.intrinsic as ig
import curvatur.numkit as nk
import curvatur.surface_patch as sp


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


def test_eval_expr_matches_math():
    fn = cat.parse_expression("sin(u)*v^2 + pi/2", variables=("u", "v"))
    assert fn(0.7, 1.3) == pytest.approx(
        math.sin(0.7) * 1.69 + math.pi / 2, abs=1e-14)


def test_parse_expression_works_on_jets():
    fn = cat.parse_expression("exp(s)*s", variables=("s",))
    j = fn(nk.Jet.variables([0.4], 2)[0])
    assert j.value == pytest.approx(0.4 * math.exp(0.4), abs=1e-14)
    assert j.partial((1,)) == pytest.approx(1.4 * math.exp(0.4), abs=1e-14)


def test_parse_expression_rejects_trailing_input():
    with pytest.raises(cat.ParseError):
        cat.parse_expression("1 + 2 3")


def test_parse_expression_rejects_unbound_names():
    with pytest.raises(nk.PreconditionError):
        cat.parse_expression("a*s", variables=("s",))
    fn = cat.parse_expression("a*s", variables=("s",), params={"a": 2.0})
    assert fn(3.0) == pytest.approx(6.0)


def leaf_exprs():
    return st.one_of(
        st.floats(min_value=0.0, max_value=9.0,
                  allow_nan=False).map(lambda v: cat.Num(round(v, 3))),
        st.sampled_from(["u", "v", "a", "pi"]).map(cat.Name))


def exprs():
    return st.recursive(
        leaf_exprs(),
        lambda sub: st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", "/", "^"]), sub, sub)
            .map(lambda t: cat.Binary(t[0], t[1], t[2])),
            sub.map(lambda e: cat.Unary("-", e)),
            st.tuples(st.sampled_from(list(cat.FUNCTIONS)), sub)
            .map(lambda t: cat.Call(t[0], t[1]))),
        max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(exprs())
def test_printed_expressions_parse_back(e):
    text = cat.print_expr(e)
    parser = cat._Parser(cat.tokenize(text))
    back = parser.parse_expr()
    assert parser.peek().kind == "eof"
    assert back == e


# ---------------------------------------------------------------------------
# compiled programs
# ---------------------------------------------------------------------------


_PARSED = {
    "curve": "param a = 0.5\ncurve c (t in [0.1,2]) = "
             "(a*t^3 - 2*t/(1 + t^2), exp(-t)/t + log(t), "
             "sqrt(1 + t^2)*cosh(t) - sinh(a*t)/(1 + t^2))",
    "surface": "param k = 3\nsurface s (u,v in [0.1,1]x[0.1,1]) = "
               "(u*cos(v)^2, tan(u/k)*v, (u - v)^-2 + (u - v)^0.5*pi)",
    "metric": "metric m (x,y in [0.1,1]x[0.1,1]) = "
              "[[exp(x*y)/(1 + x^2), -x*y/(1 + x^2)], "
              "[-x*y/(1 + x^2), 2 + sin(pi*y)]]",
    "3-coordinate metric": "param a = 2\nmetric m3 (x,y,z in [0.1,1]x[0.1,1]"
                           "x[0.1,1]) = [[1 + x^2, x*y, 0], "
                           "[x*y, a, sin(z)/4], [0, sin(z)/4, exp(z)]]",
    "curve with a constant": "curve k (t in [0.1,1]) = (t^2, 1)",
    "surface with a constant": "param c = 2\nsurface z (u,v in [0.1,1]x"
                               "[0.1,1]) = (sin(u)*v, c^2, sin(u)*v)",
}


def _specs():
    for name in cat.BUILTIN_NAMES:
        yield name, cat.builtin(name)
    for label, text in _PARSED.items():
        yield "parsed " + label, cat.parse_geometry(text)


def _bits(v):
    """Type, shape and bytes of a float, array or jet value."""
    a = np.asarray(v.coef if isinstance(v, nk.Jet) else v)
    return type(v), a.shape, a.tobytes()


def _stacked(obj, x, xs):
    """The stacked jet a built curve, surface or metric writes at the seed
    variables ``xs`` of the point(s) ``x``."""
    if isinstance(obj, ig.MetricChart):
        return obj.metric_jet(xs)
    return obj.jets(*x, order=xs[0].order)


@pytest.mark.parametrize("lanes", [None, 1, 7])
def test_compiled_programs_match_eval_expr(lanes):
    rng = np.random.default_rng(7)
    for name, spec in _specs():
        flat = ([e for row in spec.exprs for e in row]
                if spec.kind == "metric" else list(spec.exprs))
        program = cat.Program(flat, spec.coords, spec.params)
        built = spec.build()
        lo, hi = np.array(spec.domain).T[:, :, None]
        x = lo + rng.uniform(0.2, 0.8, (spec.dim, lanes or 1)) * (hi - lo)
        if lanes is None:
            x = x[:, 0]
        inputs = [[float(c) for c in x]] if lanes is None else []
        inputs += [nk.Jet.variables(x, order) for order in (1, 2, 3, 4)]
        for xs in inputs:
            env = dict(spec.params, **dict(zip(spec.coords, xs)))
            ref = [cat.eval_expr(e, env) for e in flat]
            got = program(*xs)
            assert list(map(_bits, got)) == list(map(_bits, ref)), name
            if isinstance(xs[0], nk.Jet):
                # the stacked write equals the stack of the promoted outputs
                n = spec.dim
                nested = ([ref[k:k + n] for k in range(0, n * n, n)]
                          if spec.kind == "metric" else ref)
                assert (_bits(_stacked(built, x, xs))
                        == _bits(nk.jet_stack(nested, xs[0]))), name


def test_jet_power_needs_a_constant_exponent():
    # floats take any exponent; a jet program refuses a varying one, with
    # a PreconditionError, when it binds
    f = cat.parse_expression("x^y", variables=("x", "y"))
    assert f(1.5, 0.5) == 1.5 ** 0.5
    with pytest.raises(nk.PreconditionError, match="constant exponent"):
        f(*nk.Jet.variables([1.5, 0.5], 1))
    with pytest.raises(nk.PreconditionError, match="constant exponent"):
        cat.parse_geometry("metric m (x,y in [0.5,2]x[0.5,2]) = "
                           "[[x^y, 0], [0, 1]]").build()


def test_program_refuses_numbers_among_jets():
    # a program runs all-number inputs or all-jet inputs, whichever input
    # comes first: one quotient, sin and cos, so every number-only
    # instruction is on the tape
    f = cat.parse_expression("sin(y)/x + cos(y)", variables=("x", "y"))
    x, y = nk.Jet.variables([1.5, 0.5], 2)
    for args in ((1.5, y), (x, 0.5)):
        with pytest.raises(nk.PreconditionError, match="all jets or all"):
            f(*args)
    assert f(1.5, 0.5) == math.sin(0.5) / 1.5 + math.cos(0.5)
    assert f(x, y).value == f(1.5, 0.5)


def _s3_reference(xj):
    """The round 3-sphere's metric written out by hand: the conformal factor
    1/(1 + |x|^2/4)^2 on the diagonal, the off-diagonal zeros written rather
    than computed as 0 * f, which can give -0.0."""
    x, y, z = xj
    r2 = x * x + y * y + z * z
    f = ((nk.as_jet(1.0, x) + 0.25 * r2) ** 2).reciprocal()
    coef = np.zeros(f.coef.shape[:1] + (3, 3) + f.coef.shape[1:])
    for i in range(3):
        coef[:, i, i] = f.coef
    return nk.Jet(f.nvars, f.order, coef)


@pytest.mark.parametrize("lanes", [None, 1, 24, 288])
def test_s3_round_matches_the_hand_written_metric(lanes):
    chart = cat.builtin("s3_round").build()
    rng = np.random.default_rng(11)
    x = rng.uniform(-2.5, 2.5, (3, lanes or 1))
    x[:, 0] = (0.0, -1.3, 2.5)          # a zero, a negative and an edge
    if lanes is None:
        x = x[:, 0]
    for order in range(4):
        xj = nk.Jet.variables(x, order)
        assert _bits(chart.metric_jet(xj)) == _bits(_s3_reference(xj)), order


def test_pi_parameter_shadows_the_constant():
    assert cat.parse_expression("pi*s")(2.0) == 2 * math.pi
    assert cat.parse_expression("pi*s", params={"pi": 3.0})(2.0) == 6.0
    spec = cat.parse_geometry("param pi = 3\n"
                              "curve c (t in [0,1]) = (pi*t, t)")
    assert spec.build().jets(0.5, order=1).value[0] == 1.5


def _counted(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def _count_kernels(monkeypatch, **instructions):
    """Calls of the coefficient kernel that jet programs bind to each
    instruction function, counted under the given names."""
    calls = dict.fromkeys(instructions, 0)
    for name, fn in instructions.items():
        monkeypatch.setitem(cat._JET_KERNELS, fn, _counted(
            calls, name, cat._JET_KERNELS[fn]))
    return calls


def test_programs_share_subexpressions(monkeypatch):
    halfplane = cat.builtin("lobachevsky_halfplane").build()
    hyperboloid = cat.builtin("hyperboloid_pullback").build()
    # jet programs run the coefficient kernels, bound on a program's first
    # jet call: count the reciprocal and the float + jet sum (nk._shift)
    calls = _count_kernels(monkeypatch, reciprocal=cat._reciprocal)
    monkeypatch.setattr(nk, "_shift", _counted(calls, "shift", nk._shift))
    xj = nk.Jet.variables(np.array([0.3, 1.2]), 2)
    halfplane.metric_jet(xj)
    # 1/y^2 appears in both diagonal entries
    assert calls["reciprocal"] == 1
    calls.update(reciprocal=0, shift=0)
    hyperboloid.metric_jet(xj)
    # 1 + x^2 is the only float + jet sum of the hyperboloid metric, so it
    # and 1 + x^2 + y^2 are evaluated once, and the three quotients by that
    # sum share one reciprocal
    assert calls == {"reciprocal": 1, "shift": 1}


def test_compile_is_linear_in_expression_size(monkeypatch):
    # a 300-term sum nests 300 deep; compiling it walks each node once
    # (274,206 node visits when every node's free names were re-walked)
    e = cat._parse_alone(" + ".join(f"{k}*x^{k % 3}" for k in range(1, 301)))
    nodes = sum(1 for _ in cat._subtrees(e))
    visits = []
    subtrees = cat._subtrees
    monkeypatch.setattr(cat, "_subtrees",
                        lambda s: visits.append(s) or subtrees(s))
    program = cat.Program([e], ["x"], {})
    assert len(visits) <= 2 * nodes
    assert program(0.7) == [cat.eval_expr(e, {"x": 0.7})]


def test_long_sums_compile_without_recursion(monkeypatch):
    # a 2,000-term sum nests 2,000 deep, far past the interpreter's
    # recursion limit: parsing, equality, printing, evaluation and the
    # compile all walk it with explicit stacks, visiting each node once
    terms = " + ".join(f"{k}*x^{k % 3}" for k in range(1, 2001))
    spec = cat.parse_geometry("metric m (x,y in [-1,1]x[-1,1]) = "
                              f"[[1 + 0*({terms}), 0], [0, 1 + ({terms})^2]]")
    nodes = sum(1 for row in spec.exprs for e in row
                for _ in cat._subtrees(e))
    visits = []
    subtrees = cat._subtrees
    monkeypatch.setattr(cat, "_subtrees", lambda s: (
        visits.append(1) or n for n in subtrees(s)))
    chart = spec.build()
    assert len(visits) <= 2 * nodes
    x = np.array([0.3, -0.2])
    ref = [[cat.eval_expr(e, dict(zip(spec.coords, x))) for e in row]
           for row in spec.exprs]
    assert np.array_equal(chart.g_at(x), ref)
    e = spec.exprs[1][1]
    assert cat._parse_alone(cat.print_expr(e)) == e


def test_compile_hashes_each_node_a_constant_number_of_times(monkeypatch):
    # a node's hash is cached from its children's, so a memo lookup does
    # not rehash the subtree (2.17 M hash calls for a 600-term sum when it
    # did); equality stays structural, which common subexpressions rely on
    hashes = []
    for cls in (cat.Num, cat.Name, cat.Unary, cat.Binary, cat.Call):
        monkeypatch.setattr(cls, "__hash__", lambda s, _h=cls.__hash__:
                            hashes.append(1) or _h(s))
    per_node = []
    for terms in (100, 300):
        e = cat._parse_alone(" + ".join(f"sin({k}*x)*cos({k}*x)/(1 + x^2)"
                                        for k in range(1, terms + 1)))
        hashes.clear()
        program = cat.Program([e], ["x"], {})
        per_node.append(len(hashes) / sum(1 for _ in cat._subtrees(e)))
        assert program(0.7) == [cat.eval_expr(e, {"x": 0.7})]
    assert max(per_node) <= 2.0
    assert per_node[1] <= per_node[0] + 0.01
    a, b = cat._parse_alone("x*(1 + y)"), cat._parse_alone(" x * ( 1+y )")
    assert a == b and hash(a) == hash(b) and a.pos != b.pos


def test_programs_share_sin_and_cos(monkeypatch):
    calls = _count_kernels(monkeypatch, sin=nk.sin, cos=nk.cos,
                           sincos=cat._sincos)
    spec = cat.parse_geometry("surface s (u,v in [0,1]x[0,1]) = "
                              "(sin(u)*v, cos(u)*v, sin(2*v))")
    spec.build().jets(0.3, 0.6, order=2)
    # sin and cos of u share one chain; sin(2*v) has no cos partner
    assert calls == {"sin": 1, "cos": 0, "sincos": 1}
    calls.update(sin=0, cos=0, sincos=0)
    cat.builtin("sphere").build().jets(0.3, 1.2, order=2)
    assert calls == {"sin": 0, "cos": 0, "sincos": 2}


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def test_parse_geometry_surface_document():
    spec = cat.parse_geometry("""
        # paraboloid of revolution
        param a = 0.5
        surface bowl (u,v in [-1,1]x[-1,1]) = (u, v, a*(u^2 + v^2))
    """)
    assert spec.kind == "surface"
    assert spec.coords == ("u", "v")
    assert spec.params == {"a": 0.5}
    patch = spec.build()
    assert isinstance(patch, sp.SurfacePatch)
    assert np.allclose(patch.point(0.4, -0.2), [0.4, -0.2, 0.1], atol=1e-14)


def test_parse_geometry_metric_document():
    spec = cat.parse_geometry(
        "metric m (x,y in [0.1,2]x[0.1,2]) = [[1+x^2, x*y], [x*y, 2]]")
    chart = spec.build()
    assert isinstance(chart, ig.MetricChart)
    g = chart.g_at(np.array([0.5, 1.0]))
    assert np.allclose(g, [[1.25, 0.5], [0.5, 2.0]], atol=1e-14)


def test_parse_geometry_curve_document():
    spec = cat.parse_geometry("curve c (t in [0,1]) = (t, t^2)")
    curve = spec.build()
    assert isinstance(curve, cv.ParamCurve)
    assert curve.dim == 2


@pytest.mark.parametrize("text, needle", [
    ("surface s (u,v in [0,1]x[0,1]) = (u, v, w)", "unbound"),
    ("curve c (t in [1,0]) = (t, t)", "empty"),
    ("surface s (u,v in [0,1]x[0,1]) = (u, v, 0", "end of input"),
    ("curve c (t in [0,1]) = (t, @)", "unexpected character"),
    ("", "no geometry declaration"),
])
def test_malformed_documents_raise(text, needle):
    with pytest.raises((cat.ParseError, nk.PreconditionError)) as exc:
        cat.parse_geometry(text).build()
    assert needle in str(exc.value)


@pytest.mark.parametrize("text, at, needle", [
    ("metric m (x,y,z in [0,1]x[0,1]x[0,1]) =\n  [[1, 0], [0, 1]]", (2, 9),
     "found ']'"),
    ("metric m (w,x,y,z in [0,1]x[0,1]x[0,1]x[0,1]) = [[1]]", (1, 19),
     "two or three coordinates"),
    ("surface s (u,v,w in [0,1]x[0,1]x[0,1]) = (u, v, w)", (1, 18),
     "exactly two coordinates"),
], ids=["3-coordinate metric, 2x2 matrix", "4-coordinate metric",
        "3-coordinate surface"])
def test_coordinate_count_errors_carry_location(text, at, needle):
    with pytest.raises(cat.ParseError) as exc:
        cat.parse_geometry(text)
    assert (exc.value.line, exc.value.col) == at
    assert needle in str(exc.value)


def test_parse_error_carries_location():
    bad = "surface s (u,v in [0,1]x[0,1]) =\n  (u, v, 1 +)"
    with pytest.raises(cat.ParseError) as exc:
        cat.parse_geometry(bad)
    assert exc.value.line == 2
    assert exc.value.col == 13
    assert exc.value.expected


def test_non_spd_metric_warns_but_builds():
    spec = cat.parse_geometry(
        "metric bad (x,y in [-1,1]x[-1,1]) = [[x, 0], [0, 1]]")
    spec.build()
    assert any("positive definite" in w for w in spec.warnings)


def _readme_documents():
    """The documents of README's text-format block, one per paragraph."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("`catalog.parse_geometry`:", 1)[1].split("```")[1]
    return [doc for doc in block.split("\n\n") if doc.strip()]


def test_readme_text_format_block_parses_and_builds():
    docs = _readme_documents()
    dims = set()
    for doc in docs:
        spec = cat.parse_geometry(doc)
        spec.build()
        assert not spec.warnings, (spec.name, spec.warnings)
        dims.add((spec.kind, spec.dim))
    assert ("metric", 3) in dims


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------


def test_all_builtins_build():
    kinds = {"curve": cv.ParamCurve, "surface": sp.SurfacePatch,
             "metric": ig.MetricChart}
    for name in cat.BUILTIN_NAMES:
        spec = cat.builtin(name)
        obj = spec.build()
        assert isinstance(obj, kinds[spec.kind]), name
        assert not spec.warnings, (name, spec.warnings)


def test_unknown_builtin_message_lists_names():
    with pytest.raises(nk.PreconditionError) as exc:
        cat.builtin("nosuch")
    assert "sphere" in str(exc.value)


@pytest.mark.parametrize("name, params", [("sphere", {"Q": 2.0}),
                                          ("conformal", {"R": 2.0})],
                         ids=["sphere", "conformal"])
def test_unknown_parameter_rejected(name, params):
    with pytest.raises(nk.PreconditionError, match="no parameter"):
        cat.builtin(name, params)


def test_builtin_periods_attached():
    assert cat.builtin("sphere").periods == (2 * math.pi, None)
    assert cat.builtin("torus").periods == (2 * math.pi, 2 * math.pi)
    assert cat.builtin("revolution").periods == (2 * math.pi, None)


def test_expression_parameter_builtin():
    # K = -f'' / (f (1 + f'^2)^2) at v = 0.2
    v = 0.2
    f, fp, fpp = 3 + math.cos(v), -math.sin(v), -math.cos(v)
    for params in ({"f": "3+cos(v)"}, {"f": "a + cos(v)", "a": 3}):
        patch = cat.builtin("revolution", params).build()
        rep = sp.principal_at(patch, (0.5, v))
        assert rep.gauss == pytest.approx(-fpp / (f * (1 + fp * fp) ** 2),
                                          abs=1e-10)


@pytest.mark.parametrize("params, col, needle", [
    ({"f": "b*u^2"}, 1, "unbound name 'b'"),
    ({"f": "b*u^2", "R": 2.0}, 1, "unbound name 'b'"),
    ({"f": "a*u^2 + b*v", "a": 2.0}, 9, "unbound name 'b'"),
    ({"f": "u^2 +"}, 6, "end of input"),
    ({"f": "u^2 +", "a": 2.0}, 6, "end of input"),
])
def test_expression_parameter_errors_point_into_the_parameter(params, col,
                                                              needle):
    with pytest.raises(cat.ParseError) as exc:
        cat.builtin("graph", params)
    assert (exc.value.line, exc.value.col) == (1, col)
    assert str(exc.value).startswith(f"line 1, column {col}: parameter 'f': ")
    assert needle in str(exc.value)


def test_scaled_sphere_params():
    spec = cat.builtin("sphere", {"R": 2.0})
    rep = sp.principal_at(spec.build(), (1.0, 1.0))
    assert rep.gauss == pytest.approx(0.25, abs=1e-10)


# ---------------------------------------------------------------------------
# hyperbolic closed forms
# ---------------------------------------------------------------------------


def test_hyperbolic_distance_formula():
    z1, z2 = complex(0, 1), complex(3, 1)
    expected = math.acosh(1 + abs(z2 - z1) ** 2 / (2 * z1.imag * z2.imag))
    assert cat.hyperbolic_distance(z1, z2) == pytest.approx(expected,
                                                            abs=1e-14)
    assert cat.hyperbolic_distance(z2, z1) == pytest.approx(expected,
                                                            abs=1e-14)
    assert cat.hyperbolic_distance(z1, z1) == 0.0


def test_hyperbolic_distance_isometries():
    z1, z2 = complex(0.3, 0.8), complex(-1.2, 2.5)
    d = cat.hyperbolic_distance(z1, z2)
    assert cat.hyperbolic_distance(z1 + 5, z2 + 5) == pytest.approx(d,
                                                                    abs=1e-12)
    assert cat.hyperbolic_distance(-1 / z1, -1 / z2) == pytest.approx(
        d, abs=1e-12)


def test_hyperbolic_right_triangle_pythagoras():
    P = complex(0.0, 1.0)
    a, b = 0.7, 1.1
    A, B = cat.hyperbolic_right_triangle(P, a, b)
    assert cat.hyperbolic_distance(P, A) == pytest.approx(a, abs=1e-12)
    assert cat.hyperbolic_distance(P, B) == pytest.approx(b, abs=1e-12)
    c = cat.hyperbolic_distance(A, B)
    assert math.cosh(c) == pytest.approx(math.cosh(a) * math.cosh(b),
                                         abs=1e-12)


def test_hyperbolic_circle_length():
    assert cat.hyperbolic_circle_length(1.5) == pytest.approx(
        2 * math.pi * math.sinh(1.5), abs=1e-14)
