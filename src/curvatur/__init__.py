"""curvatur: numerical differential geometry for curves, surfaces, and metric charts.

The package is organized bottom-up:

- :mod:`curvatur.numkit` -- forward-mode jets, an embedded Dormand-Prince
  4(5) integrator, batched Gauss-Legendre quadrature, Richardson
  extrapolation, and a 2x2 generalized symmetric eigensolver.  Everything
  above differentiates through jets, except nabla R in
  :func:`curvatur.tensors.second_bianchi_residual`; other differences only
  check results.
- :mod:`curvatur.curves` -- parametric curves: length, curvature, torsion,
  Frenet frames, and reconstruction from curvature data.
- :mod:`curvatur.surface_patch` -- embedded surface patches: fundamental
  forms, shape operator, principal curvatures, areas, offsets, Gauss map.
- :mod:`curvatur.intrinsic` -- metric charts: Christoffel symbols,
  geodesics, parallel transport, holonomy, geodesic circles, scalar
  curvature by comparison limits, and two-point distance.
- :mod:`curvatur.tensors` -- Riemann and Ricci tensors with independent
  loop-transport and volume-defect oracles, covariant calculus, exterior
  derivative, Bianchi residuals.
- :mod:`curvatur.catalog` -- built-in geometries and a small text format
  for user-defined ones.
- :mod:`curvatur.cli` -- the ``curvatur`` command line tool.
"""

from curvatur import numkit
from curvatur import curves
from curvatur import surface_patch
from curvatur import intrinsic
from curvatur import tensors
from curvatur import catalog

__all__ = [
    "numkit",
    "curves",
    "surface_patch",
    "intrinsic",
    "tensors",
    "catalog",
]

__version__ = "0.1.0"
