"""Time one set-up in a fresh interpreter and print it in seconds.

Set-up is ``import curvatur`` (with numpy and scipy) plus building the
workload's geometries.  ``run.py`` starts this several times per run and
reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py WORKLOAD
"""

import sys
import time

import benchenv

if __name__ == "__main__":
    benchenv.prepare()
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[sys.argv[1]].build()
    print(repr(time.perf_counter() - t0))
