"""1D compressible Navier-Stokes in Lagrangian mass coordinates.

Constant viscosity, temperature-degenerate heat conduction, an outer
pressure held at the wall, and a graded far zone whose end is pinned to
the constant state.  The package pairs the solver with diagnostics for the
structures that govern the long-time behaviour: the energy-dissipation
balance, entropy-based point bounds, a multiplicative representation of
the volume along particle paths, and norm decay.
"""

from .core import (ConfigError, DomainError, Grid, ICSpec, Params, State,
                   Violation, build_grid, equilibrium_state,
                   make_initial_data, validate_state)
from .diagnostics import (JensenBand, decay_report, dissipation_functional,
                          energy_functional, entropy_roots, make_repr_probe,
                          reconstruct_v, sample_bounds, sample_energy,
                          unit_interval_averages, update_repr_probe)
from .harness import (RunConfig, RunReport, acceptance_suite, default_config,
                      load_config, mms_convergence, run_simulation, sweep,
                      write_config, write_snapshot)
from .model import MmsProfile, cell_stress, face_conductance, mms_source
from .stepper import (PositivityViolation, StepControl, StepFailure, advance,
                      check_dominant, solve_tridiagonal, stable_dt, step_imex)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DomainError", "Grid", "ICSpec", "Params", "State",
    "Violation", "build_grid", "equilibrium_state", "make_initial_data",
    "validate_state",
    "JensenBand", "decay_report", "dissipation_functional",
    "energy_functional", "entropy_roots", "make_repr_probe",
    "reconstruct_v", "sample_bounds", "sample_energy",
    "unit_interval_averages", "update_repr_probe",
    "RunConfig", "RunReport", "acceptance_suite", "default_config",
    "load_config", "mms_convergence", "run_simulation", "sweep",
    "write_config", "write_snapshot",
    "MmsProfile", "cell_stress", "face_conductance", "mms_source",
    "PositivityViolation", "StepControl", "StepFailure", "advance",
    "check_dominant", "solve_tridiagonal", "stable_dt", "step_imex",
    "__version__",
]
