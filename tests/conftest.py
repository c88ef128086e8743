"""Shared fixtures."""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

import curvatur.intrinsic as ig
import curvatur.numkit as nk


@pytest.fixture
def solves(monkeypatch):
    """A list that gains the problem of each ``nk.integrate_ode`` call."""
    calls = []
    integrate = nk.integrate_ode
    monkeypatch.setattr(nk, "integrate_ode",
                        lambda problem, *a, **kw: calls.append(problem)
                        or integrate(problem, *a, **kw))
    return calls


@pytest.fixture
def fans(monkeypatch):
    """A list that gains the arguments of each ``intrinsic._exp_batch``
    call: one per geodesic fan."""
    calls = []
    exp_batch = ig._exp_batch
    monkeypatch.setattr(ig, "_exp_batch", lambda *a, **kw: calls.append(a)
                        or exp_batch(*a, **kw))
    return calls


@pytest.fixture
def rhs_evals(monkeypatch):
    """A list that gains one entry per right-hand-side evaluation of any
    ``nk.integrate_ode`` solve, dense-output stages read later included."""
    calls = []
    integrate = nk.integrate_ode

    def counted(problem, *a, **kw):
        rhs = problem.rhs
        return integrate(dataclasses.replace(
            problem, rhs=lambda t, y: calls.append(1) or rhs(t, y)), *a, **kw)

    monkeypatch.setattr(nk, "integrate_ode", counted)
    return calls


@pytest.fixture
def quad_grids(monkeypatch):
    """A list that gains one list per ``nk.quadrature2d`` call, holding the
    node-grid shape of each of that call's integrand evaluations."""
    calls = []
    quadrature2d = nk.quadrature2d

    def recorded(fn, *a, **kw):
        grids = []
        calls.append(grids)
        return quadrature2d(
            lambda u, v: grids.append(np.shape(u)) or fn(u, v), *a, **kw)

    monkeypatch.setattr(nk, "quadrature2d", recorded)
    return calls


@pytest.fixture
def tracer(monkeypatch):
    """The benchmark's ``perfbench/tracer.py`` module, freshly imported."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer
    return tracer
