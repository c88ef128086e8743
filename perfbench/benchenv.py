"""Process set-up shared by the benchmark's entry points.

``prepare()`` must run before numpy is imported: it pins the BLAS and OpenMP
pools to one thread, so a run measures the single-threaded library and not
the machine's core count, and it puts the checkout's ``src/`` first on
``sys.path``, so the benchmark measures the source tree it sits in.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare():
    """Pin thread pools and locate the library; exit 2 if it is missing."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "curvatur" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no curvatur sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _commit():
    """HEAD commit read from .git without running git, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def record(seed):
    """What a result depends on besides the code: machine and versions."""
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": _commit(), "seed": seed,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}
