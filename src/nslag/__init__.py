"""1D compressible Navier-Stokes in Lagrangian mass coordinates.

Constant viscosity, temperature-degenerate heat conduction, an outer
pressure held at the wall, and a graded far zone whose end is pinned to
the constant state.  The package pairs the solver with diagnostics for the
structures that govern the long-time behaviour: the energy-dissipation
balance, entropy-based point bounds, a multiplicative representation of
the volume along particle paths, and norm decay.
"""

__version__ = "0.1.0"
