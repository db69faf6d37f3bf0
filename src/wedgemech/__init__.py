"""Coordinate-level dynamics on bivector bundles.

The package provides, in rough dependency order:

* `wedgemech.geometry` - bivectors, momenta, point and fiber metrics;
* `wedgemech.tulczyjew` - the canonical maps between phase prolongations and
  cotangent bundles, for curves and for surfaces;
* `wedgemech.fields` - Lagrangian fields (area functionals, quadratic curve
  Lagrangians) with derivative access, the Morse family that generates the
  Hamiltonian side of the area dynamics, and both phase residuals;
* `wedgemech.variational` - sampled curves/surfaces and discrete
  Euler-Lagrange residuals;
* `wedgemech.constraints` - affine velocity constraints, annihilators, and
  d'Alembert-type force decompositions;
* `wedgemech.plateau` - Newton solvers for graph minimal surfaces, free and
  constrained;
* `wedgemech.cli` - the `wedgemech` command-line front end with
  deterministic text reports.
"""

__version__ = "0.1.0"
