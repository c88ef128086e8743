"""The benchmark's traced run patches library attributes by name."""

import sys
from pathlib import Path

import pytest


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer
    return tracer


def test_tracer_patches_and_restores_every_attribute(tracer):
    # a deleted or renamed library name fails install() here, not in the
    # next traced benchmark run
    t = tracer.Tracer()
    try:
        t.install()
        saved = list(t._saved)
        assert saved
        for owner, attr, original in saved:
            assert owner.__dict__[attr] is not original, attr
    finally:
        t.uninstall()
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, attr
