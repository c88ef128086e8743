"""Layer spans for the traced run, wrapped around curvatur from outside.

``Tracer.install()`` replaces the public functions of each layer (module
attributes and class attributes) with wrappers that record a span per call;
``uninstall()`` puts the originals back.  Nothing under ``src/`` changes: the
library reaches its own layers by attribute lookup at call time, so it runs
through the wrappers too.

A span's self time is its duration minus the durations of the spans opened
inside it.  A call that re-enters the layer it is already in (the recursive
``eval_expr``, ``Jet.__sub__`` calling ``__add__``) is folded into the outer
span, so ``calls`` counts calls into a layer, not recursion.
"""

from __future__ import annotations

import dataclasses
import sys
import time

import numpy as np

from curvatur import catalog as cat
from curvatur import intrinsic as ig
from curvatur import numkit as nk
from curvatur import surface_patch as sp
from curvatur import tensors as tn

# Jet methods by layer group.  __truediv__/__rtruediv__ are left out: they
# are one reciprocal (elem) and one product (mul), both traced.
_JET_GROUPS = {
    "numkit.jet.mul": ("__mul__", "__rmul__"),
    "numkit.jet.add": ("__add__", "__radd__", "__sub__", "__rsub__",
                       "__neg__"),
    "numkit.jet.elem": ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh",
                        "cosh", "reciprocal", "__pow__"),
}

SPANS = ("numkit.jet.mul", "numkit.jet.add", "numkit.jet.elem",
         "numkit.compose_nd", "numkit.ode", "numkit.quad",
         "surface_patch.integrand", "catalog.eval_expr",
         "intrinsic.metric_jets", "intrinsic.metric_arrays",
         "intrinsic.christoffel", "intrinsic.rhs", "surface_patch.jets",
         "tensors.riemann_at", "tensors.ricci_at")


def _lanes(arr):
    a = np.shape(arr)
    return int(np.prod(a[1:])) if len(a) > 1 else 1


class Tracer:
    """Span stack plus per-layer counters for one traced run."""

    def __init__(self):
        # stack entries are [span name, time covered by child spans]
        self._stack = [[None, 0.0]]
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.incl_s = dict.fromkeys(SPANS, 0.0)
        self.count = dict.fromkeys(
            ("jet_alloc", "mul_lanes", "christoffel_lanes", "ode_rhs",
             "ode_steps", "ode_steps_rhs", "ode_state", "quad_evals",
             "distance_calls", "distance_solves", "transport_calls",
             "transport_solves"), 0)
        self._saved = []

    # -- spans ----------------------------------------------------------

    def covered_s(self):
        """Time under any layer span since the tracer was made."""
        return self._stack[0][1]

    def span(self, name, fn, on_call=None):
        name = sys.intern(name)      # re-entry is tested by identity
        stack, calls, self_s, incl_s = (self._stack, self.calls, self.self_s,
                                        self.incl_s)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack[-1][0] is name:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            entry = [name, 0.0]
            stack.append(entry)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dur - entry[1]
                incl_s[name] += dur
                stack[-1][1] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install --------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        count = self.count

        for group, methods in _JET_GROUPS.items():
            seen = {}
            for m in methods:
                fn = nk.Jet.__dict__[m]
                if fn not in seen:        # __rmul__ is __mul__, and so on
                    hook = None
                    if group == "numkit.jet.mul":
                        def hook(args):
                            count["mul_lanes"] += _lanes(args[0].coef)
                    seen[fn] = self.span(group, fn, hook)
                self._patch(nk.Jet, m, seen[fn])

        init = nk.Jet.__init__

        def counted_init(jet, nvars, order, coef):
            count["jet_alloc"] += 1
            init(jet, nvars, order, coef)

        self._patch(nk.Jet, "__init__", counted_init)
        self._patch(nk, "compose_nd",
                    self.span("numkit.compose_nd", nk.compose_nd))

        def counted_rhs(args):
            count["ode_rhs"] += 1

        ode = nk.integrate_ode

        def integrate_ode(problem, must_hit=()):
            rhs = self.span("intrinsic.rhs", problem.rhs, counted_rhs)
            traced = dataclasses.replace(problem, rhs=rhs)
            rhs0 = count["ode_rhs"]
            count["ode_state"] += np.size(problem.y0)
            traj = ode(traced, must_hit)
            count["ode_steps"] += len(traj.ts) - 1
            count["ode_steps_rhs"] += count["ode_rhs"] - rhs0
            return traj

        self._patch(nk, "integrate_ode",
                    self.span("numkit.ode", integrate_ode))

        def counted_integrand(args):
            count["quad_evals"] += 1

        for attr in ("quadrature", "quadrature2d"):
            quad = nk.__dict__[attr]

            def traced_quad(fn, *args, _quad=quad, **kwargs):
                integrand = self.span("surface_patch.integrand", fn,
                                      counted_integrand)
                return _quad(integrand, *args, **kwargs)

            self._patch(nk, attr, self.span("numkit.quad", traced_quad))

        self._patch(cat, "eval_expr",
                    self.span("catalog.eval_expr", cat.eval_expr))
        for attr in ("metric_jets", "metric_arrays"):
            self._patch(ig.MetricChart, attr,
                        self.span(f"intrinsic.{attr}",
                                  ig.MetricChart.__dict__[attr]))

        def christoffel_lanes(args):
            count["christoffel_lanes"] += _lanes(args[1])

        for attr in ("christoffel_at", "christoffel_and_grad"):
            self._patch(ig, attr, self.span("intrinsic.christoffel",
                                            ig.__dict__[attr],
                                            christoffel_lanes))

        for attr, key in (("geodesic_distance", "distance"),
                          ("parallel_transport", "transport")):
            self._patch(ig, attr, self._solve_counter(ig.__dict__[attr], key))

        self._patch(sp.SurfacePatch, "jets",
                    self.span("surface_patch.jets",
                              sp.SurfacePatch.__dict__["jets"]))
        for attr in ("riemann_at", "ricci_at"):
            self._patch(tn, attr, self.span(f"tensors.{attr}",
                                            tn.__dict__[attr]))

    def _solve_counter(self, fn, key):
        """Calls of ``fn`` and the integrate_ode solves made inside them."""
        count, calls = self.count, self.calls

        def wrapper(*args, **kwargs):
            solves0 = calls["numkit.ode"]
            try:
                return fn(*args, **kwargs)
            finally:
                count[key + "_calls"] += 1
                count[key + "_solves"] += calls["numkit.ode"] - solves0

        return wrapper

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- metrics --------------------------------------------------------

    def per_call_us(self, name):
        """Inclusive microseconds per call of a span, 0 when never called."""
        calls = self.calls[name]
        return 1e6 * self.incl_s[name] / calls if calls else 0.0

    def metrics(self, n_ops, op_s):
        """Per-layer metrics for ``n_ops`` traced ops that took ``op_s``.

        Work is counted per op and self time is a share of the traced op
        time, so that runs which fit different numbers of ops, or ran on a
        slower or faster spell of the host, stay comparable.  A layer a
        workload does not use reads 0.  Returns name -> (value, unit).
        """
        c, calls = self.count, self.calls
        ratio = lambda a, b: a / b if b else 0.0
        out = {}
        for name in SPANS:
            what = "solves" if name == "numkit.ode" else "calls"
            out[f"{name}.{what}_per_op"] = (calls[name] / n_ops, "count/op")
            out[f"{name}.self_frac"] = (self.self_s[name] / op_s, "ratio")
        out["numkit.jet.alloc_per_op"] = (c["jet_alloc"] / n_ops, "count/op")
        out["numkit.jet.mul.lanes_mean"] = (
            ratio(c["mul_lanes"], calls["numkit.jet.mul"]), "lanes")
        out["numkit.jet.mul.incl_us_per_call"] = (
            self.per_call_us("numkit.jet.mul"), "us")
        out["numkit.ode.rhs_evals_per_op"] = (c["ode_rhs"] / n_ops, "count/op")
        out["numkit.ode.steps_per_op"] = (c["ode_steps"] / n_ops, "count/op")
        out["numkit.ode.rhs_per_step"] = (
            ratio(c["ode_steps_rhs"], c["ode_steps"]), "ratio")
        out["numkit.ode.state_size_mean"] = (
            ratio(c["ode_state"], calls["numkit.ode"]), "floats")
        out["numkit.quad.integrand_evals_per_op"] = (c["quad_evals"] / n_ops,
                                                     "count/op")
        out["intrinsic.christoffel.lanes_mean"] = (
            ratio(c["christoffel_lanes"], calls["intrinsic.christoffel"]),
            "lanes")
        for key, name in (("distance", "geodesic_distance"),
                          ("transport", "parallel_transport")):
            out[f"intrinsic.{name}.solves_per_call"] = (
                ratio(c[key + "_solves"], c[key + "_calls"]), "solves")
        return out


# ---------------------------------------------------------------------------
# kernel grid
# ---------------------------------------------------------------------------

# (nvars, order, lanes), cut from the ROADMAP direction-1 grid
GRID = ((1, 1, 1), (2, 3, 1), (2, 3, 512), (3, 4, 512))


def _triples(nvars, order):
    """Valid (k, i, j) index triples of the truncated product: the useful
    multiply-adds of one Taylor product per lane."""
    _, _, _, mask, _ = nk._index_space(nvars, order)
    return int(mask.sum())


def _grid_flops(op, nvars, order, lanes):
    """Computed useful flops of one call (a multiply and an add per term).

    ``sin`` composes through ``order - 1`` products of the shifted jet plus
    one scaled add of K coefficients per order.
    """
    k = len(nk._index_space(nvars, order)[0])
    prod = 2 * _triples(nvars, order) * lanes
    if op == "mul":
        return prod
    return (order - 1) * prod + order * 2 * k * lanes


def kernel_grid(rng, budget_s=0.2, repeats=5):
    """Untraced per-call time of Jet.__mul__ and Jet.sin on the grid.

    Each cell times batches of calls for about ``budget_s / repeats`` and
    reports the median batch; returns name -> (value, unit).
    """
    out = {}
    for nvars, order, lanes in GRID:
        k = len(nk._index_space(nvars, order)[0])
        shape = (k, lanes) if lanes > 1 else (k,)
        a = nk.Jet(nvars, order, rng.uniform(-1, 1, size=shape))
        b = nk.Jet(nvars, order, rng.uniform(-1, 1, size=shape))
        cell = f"v{nvars}o{order}l{lanes}"
        for op, call in (("mul", lambda: a * b), ("sin", a.sin)):
            call()
            t0 = time.perf_counter()
            call()
            once = max(time.perf_counter() - t0, 1e-7)
            n = max(1, int(budget_s / repeats / once))
            samples = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                for _ in range(n):
                    call()
                samples.append((time.perf_counter() - t0) / n)
            per_call = float(np.median(samples))
            flops = _grid_flops(op, nvars, order, lanes)
            out[f"numkit.jet.{op}.us.{cell}"] = (1e6 * per_call, "us")
            out[f"numkit.jet.{op}.flop_computed.{cell}"] = (flops, "flop")
            out[f"numkit.jet.{op}.mflops.{cell}"] = (flops / per_call / 1e6,
                                                     "Mflop/s")
    return out
