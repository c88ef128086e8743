"""The benchmark's own tests.

    python3 perfbench/selftest.py

Runs every ``test_*`` function below and exits 1 if any fails.  The smoke
runs use ``--seconds 1``, so the whole file takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import traceback

import benchenv

benchenv.prepare()

import numpy as np  # noqa: E402  (after the thread pinning in prepare)
import run  # noqa: E402  (needs the path set up by prepare)
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

ROOT = benchenv.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, workload, seed=0, seconds=1, trace=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_matches_runner():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_smoke_runs_emit_every_declared_metric():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        for name in run.WORKLOAD_NAMES:
            out = _bench(ROOT, name, trace=trace)
            assert out.returncode == 0, out.stderr
            res = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] and res["failed"] == 0, out.stdout
            assert res["attempted"] >= 1
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == declared, (name, trace, set(got) ^ set(declared))
            if trace == 0:
                assert all(v["value"] > 0 for v in res["metrics"].values())


def _first_ops(name, seed, n):
    w = workloads.WORKLOADS[name]
    stream = w.ops(w.build(), seed)
    return [next(stream) for _ in range(n)]


def test_seed_fixes_inputs():
    for name, w in workloads.WORKLOADS.items():
        n = 2 * len(w.labels)
        a = [op.inputs for op in _first_ops(name, 0, n)]
        b = [op.inputs for op in _first_ops(name, 0, n)]
        c = [op.inputs for op in _first_ops(name, 1, n)]
        assert a == b, name
        assert a != c, name


def test_strata_cover_every_slice_of_each_band():
    """In each block of STRATA ops, every stratified scalar falls once into
    each of the STRATA equal slices of its band; later scalars still vary."""
    draws = workloads.StratifiedDraws(np.random.default_rng(0))
    extra = []
    for _ in range(3):
        block = []
        for _ in range(workloads.STRATA):
            op = draws.next_op()
            block.append(op.uniform(2.0, 4.0,
                                    size=workloads.STRATIFIED_DIMS))
            extra.append(op.uniform(2.0, 4.0))
        slices = np.floor((np.array(block) - 2.0) / 2.0 * workloads.STRATA)
        for d in range(workloads.STRATIFIED_DIMS):
            assert sorted(slices[:, d]) == list(range(workloads.STRATA))
    assert len(set(extra)) == len(extra)
    assert all(2.0 <= x < 4.0 for x in extra)


def test_reference_loop_scales_op_times():
    rec = run.Record("x", 2.0, 0.0, (), ref_s=0.01)
    assert rec.refs == 200.0
    assert 0.0 < run.ref_seconds() < 1.0


def test_seed_fixes_counts_and_errors():
    """Same seed, same first op: identical layer counts and error ratio."""
    for name in run.WORKLOAD_NAMES:
        seen = []
        for _ in range(2):
            op = _first_ops(name, 0, 1)[0]
            t = tr.Tracer()
            t.install()
            try:
                ratio = op.error_ratio(op.run())
            finally:
                t.uninstall()
            seen.append((dict(t.count), dict(t.calls), ratio))
        assert seen[0] == seen[1], name
        assert seen[0][2] <= 1.0, (name, seen[0][2])
    counts = seen[0][0]
    assert counts["ode_rhs"] > 0 and counts["ode_steps"] > 0


def test_tracer_restores_the_library():
    ig, nk = workloads.ig, workloads.nk
    jet_before = dict(vars(nk.Jet))
    christoffel = ig.christoffel_at
    t = tr.Tracer()
    t.install()
    assert ig.christoffel_at is not christoffel
    assert nk.Jet.__mul__ is not jet_before["__mul__"]
    t.uninstall()
    assert ig.christoffel_at is christoffel
    assert dict(vars(nk.Jet)) == jet_before


def test_fails_without_the_library():
    """In a directory holding only BENCHMARK.json and perfbench/, the runner
    exits non-zero and prints no result."""
    bare = ROOT / ".perfbench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = _bench(bare, "shooting")
        assert out.returncode != 0
        assert '"correct"' not in out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    tests = [(k, v) for k, v in globals().items() if k.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}", flush=True)
        except Exception:
            failures += 1
            print(f"FAIL {name}\n{traceback.format_exc()}", flush=True)
    print(f"{len(tests) - failures} passed, {failures} failed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
