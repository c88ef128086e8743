"""Compare the CLI's JSON output of two source trees, leaf by leaf.

    python tools/cli_json_ab.py OLD_SRC NEW_SRC

Runs every invocation in ``INVOCATIONS``, a fixed sample with at least
one invocation of each command that reports a cost block, ``curve
analyze`` and ``surface report`` (the curve and surface modules' own
commands), ``verify --suite all --format json``, a scalar estimate at
the sphere point (2.0, 1.5), where its error covers the true error by
the least margin, two ``s3_round`` estimates at ``--samples`` 12 and 10
(a nested polar rule, and one refused because its M/2 - 1 polar nodes
are even), two at chart edges (a circle fan and a sphere fan that leave
the box and rerun at a smaller radius), one circle that fails by leaving
the chart, one refused for its NaN radius and one at radius 1e-300 whose
fan's Gram determinant underflows, a sphere estimate at ``--r0 1e-160``
refused alike, ``surface offset`` (the offset-area totals), ``curvature
sectional`` (the sectional curvature of a 3D chart), a torus ``geodesic
distance`` that converges only from a turned start (the shooting retry
phase), a cone ``transport holonomy`` whose loop closes modulo the
period, two ``geodesic trace`` runs that leave the chart (a saddle ray
and a half-plane ray) and one refused for its infinite ``--length``, as
``python -m curvatur.cli`` with each tree first on ``PYTHONPATH``, and
prints every JSON leaf that differs, with its relative change.  An
invocation whose stdout is not JSON, such as a failing circle, is
compared by its exit code and its raw stdout and stderr.  The sample is
not derived from the test suite: a new command has to be added to it by
hand.  A leaf is named by its path; a list item that carries a unique
``name`` is named by it, so an inserted check moves one leaf, not every
later one.  Exits 0 when no leaf moved, 1 when one did, and 2, before
any run, when either tree holds no ``curvatur`` package.  Standard
library only.
"""

import json
import os
import subprocess
import sys

INVOCATIONS = (
    ("geodesic", "trace", "--builtin", "torus", "--param", "R=2",
     "--param", "r=1", "--from", "0,0", "--dir", "1,1", "--length", "20",
     "--samples", "40"),
    ("curvature", "scalar", "--builtin", "sphere", "--at", "1.0,1.2"),
    ("curvature", "scalar", "--builtin", "sphere", "--at", "2.0,1.5"),
    ("curvature", "scalar", "--builtin", "s3_round", "--at", "0.2,-0.1,0.3"),
    ("curvature", "scalar", "--builtin", "s3_round", "--at", "0.2,-0.1,0.3",
     "--samples", "12"),
    ("curvature", "scalar", "--builtin", "s3_round", "--at", "0.2,-0.1,0.3",
     "--samples", "10"),
    ("curvature", "scalar", "--builtin", "s3_round", "--at", "2.3,0,0"),
    ("curvature", "scalar", "--builtin", "sphere", "--at", "1.0,0.25"),
    ("geodesic", "circle", "--builtin", "lobachevsky_halfplane", "--at",
     "0,0.1", "--radius", "2"),
    ("geodesic", "circle", "--builtin", "sphere", "--at", "1.0,1.2",
     "--radius", "0.4"),
    ("geodesic", "circle", "--builtin", "sphere", "--at", "1.0,1.2",
     "--radius", "nan"),
    ("geodesic", "circle", "--builtin", "sphere", "--at", "1.0,1.2",
     "--radius", "1e-300"),
    ("curvature", "scalar", "--builtin", "sphere", "--at", "1.0,1.2",
     "--r0", "1e-160"),
    ("curve", "reconstruct", "--curvature", "1", "--length",
     "6.283185307179586"),
    ("curve", "reconstruct", "--curvature", "1+0.3*s", "--torsion", "0.5",
     "--length", "5"),
    ("geodesic", "distance", "--builtin", "lobachevsky_halfplane",
     "--from", "0,1", "--to", "3,1"),
    ("geodesic", "distance", "--builtin", "torus", "--from", "4.1,4.4",
     "--to", "3.9,5.8"),
    ("transport", "along", "--builtin", "sphere", "--via", "0.3,1.2",
     "--via", "1.0,1.0", "--via", "1.4,0.6", "--vector", "1,0"),
    ("transport", "holonomy", "--builtin", "lobachevsky_halfplane",
     "--loop", "0,1", "--loop", "1,1", "--loop", "1,2", "--loop", "0,2"),
    ("transport", "holonomy", "--builtin", "cone", "--loop", "0,1",
     "--loop", "6.283185307179586,1"),
    ("curve", "analyze", "--builtin", "helix", "--at", "0.5", "--at", "1.5"),
    ("surface", "report", "--builtin", "torus", "--at", "1.3,2.1"),
    ("surface", "offset", "--builtin", "torus", "--eps", "0.1"),
    ("curvature", "sectional", "--builtin", "s3_round", "--at", "0.2,-0.1,0.3",
     "--u", "1,0,0", "--v", "0,1,0"),
    ("geodesic", "trace", "--builtin", "saddle", "--from", "0,0", "--dir",
     "1,0", "--length", "50", "--samples", "3"),
    ("geodesic", "trace", "--builtin", "lobachevsky_halfplane", "--from",
     "0,1", "--dir", "0,-1", "--length", "5", "--samples", "7"),
    ("geodesic", "trace", "--builtin", "sphere", "--from", "1.0,1.2", "--dir",
     "1,0", "--length", "inf"),
    ("verify", "--suite", "all", "--format", "json"),
)


def run(src, argv):
    """The JSON document that one invocation prints on stdout with ``src``
    first on the import path or, when stdout is not JSON, its exit code
    and raw output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "curvatur.cli", *argv],
                          capture_output=True, text=True, env=env)
    try:
        return json.loads(proc.stdout)
    except ValueError:
        return {"exit": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr}


def leaves(doc, path=""):
    """(path, value) for every scalar leaf of a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        names = [v.get("name") if isinstance(v, dict) else None for v in doc]
        for i, (name, value) in enumerate(zip(names, doc)):
            key = name if name and names.count(name) == 1 else i
            yield from leaves(value, f"{path}[{key}]")
    else:
        yield path, doc


def moved(old, new):
    """(path, old value, new value, relative change or None) per leaf that
    differs; a leaf present on one side only reads None on the other."""
    a, b = dict(leaves(old)), dict(leaves(new))
    out = []
    for path in list(a) + [p for p in b if p not in a]:
        x, y = a.get(path), b.get(path)
        if type(x) is type(y) and (x == y or x != x and y != y):
            continue                # equal, or NaN on both sides
        rel = None
        if all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in (x, y)) and x:
            rel = (y - x) / abs(x)
        out.append((path, x, y, rel))
    return out


def compare(old_src, new_src, invocations=INVOCATIONS):
    """{invocation: moved leaves} for the invocations whose JSON differs."""
    diffs = {}
    for argv in invocations:
        rows = moved(run(old_src, argv), run(new_src, argv))
        if rows:
            diffs[" ".join(argv)] = rows
    return diffs


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for src in args:        # a tree that cannot import runs nothing to compare
        if not os.path.isfile(os.path.join(src, "curvatur", "__init__.py")):
            print(f"no curvatur package in {src!r}: pass a source tree such "
                  "as src/, not a repository root", file=sys.stderr)
            return 2
    diffs = compare(*args)
    for cmd, rows in diffs.items():
        print(cmd)
        for path, x, y, rel in rows:
            change = "" if rel is None else f"  ({rel:+.3g} relative)"
            print(f"  {path}: {x!r} -> {y!r}{change}")
    print(f"{len(INVOCATIONS) - len(diffs)} of {len(INVOCATIONS)} "
          "invocations identical in every JSON leaf")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
