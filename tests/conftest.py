"""Shared fixtures."""

import pytest

import curvatur.numkit as nk


@pytest.fixture
def solves(monkeypatch):
    """A list that gains one entry per ``nk.integrate_ode`` call."""
    calls = []
    integrate = nk.integrate_ode
    monkeypatch.setattr(nk, "integrate_ode",
                        lambda *a, **kw: calls.append(1) or integrate(*a, **kw))
    return calls
