"""curvatur benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of shooting, fans, surfaces, transport, or ``all``, which runs
each workload in turn in a fresh process.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(name -> value and unit).

``--trace 0`` measures the end-to-end metrics with no tracing.  Op times
are divided by the time of a fixed pure-Python reference loop timed just
before and just after the op, so a run measures the library's cost relative
to the host's speed at that moment (see ``ref_seconds``).  ``--trace 1``
is the separate traced run: it times the kernel grid, runs the op stream
untraced for half of ``--seconds``, then runs the same ops again with layer
spans installed, and reports the per-layer metrics and the tracing overhead.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import benchenv

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("shooting", "fans", "surfaces", "transport")
SETUP_PROBES = 5
REF_ITERATIONS = 100_000             # one reference loop: about 10 ms
REF_REPEATS = 3


@dataclass
class Record:
    label: str
    seconds: float
    error_ratio: float               # inf when the op raised
    inputs: tuple
    ref_s: float                     # reference-loop time around the op
    covered_s: float = 0.0           # time under layer spans (traced run)
    note: str = ""

    @property
    def refs(self):
        """Op time in reference loops: the host-speed-independent cost."""
        return self.seconds / self.ref_s


def _reference_loop():
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    return s


def ref_seconds():
    """The host's current speed: the fastest of a few reference loops.

    The loop is fixed pure-Python integer arithmetic that no library change
    can reach.  On a shared host the speed of a core swings by 1.3-1.6x over
    tens of seconds; op time divided by the reference time measured next to
    it takes most of that swing out.  The fastest of the repeats drops the
    loops that were interrupted outright.
    """
    best = math.inf
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def run_ops(workload, geoms, seed, seconds=None, n_ops=None, tracer=None,
            pauses=()):
    """Run the op stream until ``seconds`` have passed or ``n_ops`` are done.

    Ops that raise a library failure are recorded with an infinite error
    ratio; the run goes on.  The reference loop is timed before the first op
    and after every op; each op is scaled by the mean of the two readings
    around it.  ``pauses`` are called between ops, spread evenly over the
    ``seconds`` window, the first before the first op; their time does not
    count against the window.
    """
    from workloads import OP_FAILURES

    records = []
    pending = list(pauses)
    stream = workload.ops(geoms, seed)
    start = time.perf_counter()
    paused = 0.0
    ref_before = ref_seconds()

    def elapsed():
        return time.perf_counter() - start - paused

    while ((n_ops is None or len(records) < n_ops)
           and (seconds is None or elapsed() < seconds)):
        if pending and elapsed() >= seconds * (1 - len(pending) / len(pauses)):
            p0 = time.perf_counter()
            pending.pop(0)()
            paused += time.perf_counter() - p0
            ref_before = ref_seconds()
        op = next(stream)
        covered0 = tracer.covered_s() if tracer else 0.0
        note = ""
        t0 = time.perf_counter()
        try:
            result = op.run()
            dt = time.perf_counter() - t0
            ratio = op.error_ratio(result)
        except OP_FAILURES as exc:
            dt = time.perf_counter() - t0
            ratio, note = math.inf, f"{type(exc).__name__}: {exc}"
        covered = tracer.covered_s() - covered0 if tracer else 0.0
        ref_after = ref_seconds()
        records.append(Record(op.label, dt, ratio, op.inputs,
                              0.5 * (ref_before + ref_after), covered, note))
        ref_before = ref_after
    for pause in pending:
        pause()
    return records


def failed(rec):
    return not rec.error_ratio <= 1.0


def max_err_ratio(records):
    """Worst error ratio of the ops that returned; failures count apart."""
    return max((r.error_ratio for r in records
                if math.isfinite(r.error_ratio)), default=0.0)


def p50(values):
    """Harrell-Davis estimate of the median: a weighted mean of the order
    statistics.  A geometry gets five to twelve ops in a run, and shooting
    costs cluster by solve count, so the plain middle value jumps from one
    cluster to the next between runs."""
    import numpy as np
    from scipy.special import betainc

    n = len(values)
    a = (n + 1) / 2.0
    weights = np.diff(betainc(a, a, np.arange(n + 1) / n))
    return float(weights @ np.sort(values))


def mix_times(records, key):
    """Per-label (mean, median) of ``key(record)``, in op-mix order."""
    by_label = {}
    for r in records:
        by_label.setdefault(r.label, []).append(key(r))
    return {k: (sum(v) / len(v), p50(v)) for k, v in by_label.items()}


def mix_rate_and_p50(mix):
    """Throughput and median at the fixed mix: every geometry weighs the
    same, however many of its ops fit in the window."""
    return (len(mix) / sum(m for m, _ in mix.values()),
            sum(p for _, p in mix.values()) / len(mix))


def setup_probe(name, samples):
    """One set-up in a fresh interpreter; its seconds go to ``samples``."""
    out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name],
                         capture_output=True, text=True, check=True,
                         timeout=120)
    samples.append(float(out.stdout.strip().splitlines()[-1]))


def end_to_end(workload, seed, seconds):
    geoms = workload.build()
    # The set-up probes are spread over the run, so that their median does
    # not hang on the host's speed in one moment.
    samples = []
    probes = [lambda: setup_probe(workload.name, samples)] * SETUP_PROBES
    records = run_ops(workload, geoms, seed, seconds=seconds, pauses=probes)
    setup = median(samples)
    mix = mix_times(records, lambda r: r.refs)
    rate, p50 = mix_rate_and_p50(mix)
    raw = mix_times(records, lambda r: r.seconds)
    raw_rate, raw_p50 = mix_rate_and_p50(raw)
    refs = [r.ref_s for r in records]
    bad = [r for r in records if failed(r)]
    worst = max_err_ratio(records)
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_kref": (1000.0 * rate, "1/kref"),
        "op_p50_ref": (p50, "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    print(f"setup samples (s): {' '.join(f'{s:.4f}' for s in samples)}")
    print("op mix (label: ops, mean ref, median ref, mean s, median s): "
          + ", ".join(f"{k}: {sum(r.label == k for r in records)}, "
                      f"{m:.1f}, {p:.1f}, {raw[k][0]:.3f}, {raw[k][1]:.3f}"
                      for k, (m, p) in mix.items()))
    print(f"reference loop (ms): median {1e3 * median(refs):.3f}, "
          f"min {1e3 * min(refs):.3f}, max {1e3 * max(refs):.3f}; "
          f"in seconds: ops_per_s {raw_rate:.4g} (1/s), "
          f"op_p50_s {raw_p50:.4g} (s)")
    print(f"ops attempted {len(records)}, failed {len(bad)}, "
          f"fail_frac {len(bad) / len(records):.4f} (ratio), "
          f"max_err_ratio {worst:.4g} (ratio)")
    for r in bad:
        print(f"FAILED {r.label} inputs={r.inputs} ratio={r.error_ratio:.4g}"
              f" {r.note}")
    return records, metrics


def traced(workload, seed, seconds):
    import numpy as np
    import tracer as tr

    geoms = workload.build()
    metrics = tr.kernel_grid(np.random.default_rng(seed))
    plain = run_ops(workload, geoms, seed, seconds=seconds / 2.0)
    # whole cycles of the op mix, so per-op figures do not shift with where
    # the untraced half happened to stop
    cycle = len(workload.labels)
    n_traced = -(-len(plain) // cycle) * cycle
    t = tr.Tracer()
    t.install()
    try:
        spanned = run_ops(workload, geoms, seed, n_ops=n_traced, tracer=t)
    finally:
        t.uninstall()
    plain_s = sum(r.seconds for r in plain)
    same_ops_s = sum(r.seconds for r in spanned[:len(plain)])
    plain_refs = sum(r.refs for r in plain)
    same_ops_refs = sum(r.refs for r in spanned[:len(plain)])
    traced_s = sum(r.seconds for r in spanned)
    covered_s = sum(r.covered_s for r in spanned)
    metrics.update(t.metrics(len(spanned), traced_s))
    metrics["trace.overhead_frac"] = (same_ops_refs / plain_refs - 1.0,
                                      "ratio")
    metrics["trace.covered_frac"] = (covered_s / traced_s, "ratio")
    records = plain + spanned
    metrics["check.max_err_ratio"] = (max_err_ratio(records), "ratio")
    print(f"ops {len(plain)} untraced in {plain_s:.3f} s, the same ops "
          f"traced in {same_ops_s:.3f} s; {len(spanned)} traced ops in "
          f"{traced_s:.3f} s")
    print("traced layers (calls, self s, share of traced op time, "
          "inclusive us per call):")
    for name in tr.SPANS:
        s = t.self_s[name]
        print(f"  {name:26s} {t.calls[name]:9d} {s:9.4f} {s / traced_s:7.2%}"
              f" {t.per_call_us(name):10.1f}")
    rest = traced_s - covered_s
    print(f"  {'(uncovered remainder)':26s} {'':9s} {rest:9.4f} "
          f"{rest / traced_s:7.2%}")
    for r in records:
        if failed(r):
            print(f"FAILED {r.label} inputs={r.inputs} ratio="
                  f"{r.error_ratio:.4g} {r.note}")
    return records, metrics


def run_one(name, seed, seconds, trace):
    import workloads

    workload = workloads.WORKLOADS[name]
    print(f"# env {json.dumps(benchenv.record(seed))}")
    measure = traced if trace else end_to_end
    records, metrics = measure(workload, seed, seconds)
    for key, (value, unit) in metrics.items():
        print(f"{name}.{key} = {value:.6g} {unit}")
    n_failed = sum(failed(r) for r in records)
    return {"correct": n_failed == 0, "attempted": len(records),
            "failed": n_failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def run_all(seed, seconds, trace):
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)], capture_output=True, text=True,
            timeout=600)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            sys.exit(out.returncode)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for key, metric in res["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    return total


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    benchenv.prepare()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
