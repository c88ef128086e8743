"""Failure paths of the verify suites: a failing check reports FAIL; and
each suite's solver cost."""

import pytest

import curvatur.surface_patch as sp
import curvatur.verify as vf

# (solves, accepted steps, rejected steps, RHS calls) of every suite that
# integrates an ODE, at seed 0.  A change that moves one names the cause.
SUITE_COSTS = {
    "circle-law": (2, 56, 0, 338),
    "scalar-curvature": (5, 40, 1, 251),
    "egregium": (40, 266, 21, 1763),
    "geodesic": (3, 352, 13, 5154),
    "transport": (6, 316, 6, 2219),
    "riemann": (28, 104, 7, 696),
    "ricci": (5, 57, 1, 353),
    "curve-roundtrip": (4, 465, 4, 2819),
    "hyperbolic": (16, 400, 137, 3623),
}


@pytest.mark.parametrize("suite", sorted(SUITE_COSTS))
def test_suite_cost_is_pinned(suite):
    cost = {}
    checks = vf.run_suite(suite, seed=0, cost=cost)
    assert all(c.passed for c in checks)
    assert tuple(cost[k] for k in ("solves", "accepted_steps",
                                   "rejected_steps", "rhs_evals")) \
        == SUITE_COSTS[suite]
    assert all(type(n) is int for n in cost.values())


def test_failed_offset_fit_reports_fail(monkeypatch):
    real = sp.total_curvatures

    def mismatched(patch, *args, **kwargs):
        rep = real(patch, *args, **kwargs)
        bad = sp.TotalCurvatureReport(
            rep.area, rep.mean_total, rep.gauss_total, rep.fit_area,
            rep.fit_mean, rep.fit_gauss, rep.epsilons, 0.5, False,
            rep.orientation)
        raise sp.VerificationError("forced offset-fit mismatch", bad)

    monkeypatch.setattr(sp, "total_curvatures", mismatched)
    checks = list(vf.suite_offset_expansion())
    fits = [c for c in checks if c.name.startswith("offset fit vs totals")]
    assert len(fits) == 3
    assert all(not c.passed and c.value == 0.5 for c in fits)
    # the totals checks still run on the report the failure carried
    assert all(c.passed for c in checks if c not in fits)
