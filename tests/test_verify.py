"""Failure paths of the verify suites: a failing check reports FAIL."""

import curvatur.surface_patch as sp
import curvatur.verify as vf


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
