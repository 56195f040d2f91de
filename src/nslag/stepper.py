"""Time integration: explicit volume transport, implicit diffusion.

One step advances v forward in time (exact telescoping of the strain rate),
then solves a tridiagonal system for the new velocity (viscosity implicit
on the fresh v, pressure gradient explicit at the old temperature), then a
tridiagonal system for the new temperature (conduction implicit with face
conductivities frozen at the old temperature, compression work and viscous
heating explicit with the fresh strain rate), which the new state carries
for the running integrals and the next step's v.  A step that fails any
guard (positivity, dominance, the solve) raises ArithmeticError; advance
rejects it and retries at half the step.

Viscosity and conduction are in divergence form, so weighting each row by
its control mass (dm_i/dt for a face velocity, cv*h_j/dt for a cell
temperature) makes the matrix symmetric: two neighbours couple through the
one cell (velocity) or face (temperature) coefficient between them.  Each
diagonal is its weight plus its positive couplings, so both matrices are
strictly diagonally dominant with a positive diagonal, hence symmetric
positive definite, for every positive state and step size, and the linear
solves cannot break down.  Each system is assembled into the diagonal,
off-diagonal and load that LAPACK's ptsv takes (LDL^T, no pivoting), and
solve_tridiagonal hands them to ptsv between a dominance check before and
a residual check after.
Each extremum is taken as x[x.argmin()] or x[x.argmax()]: the same float
as x.min() or x.max(), a NaN included (argmin and argmax return the first
NaN), without the set-up of a ufunc reduce, which costs as much as the
arithmetic on a few thousand values.  ptsv comes from scipy's LAPACK
extension module, loaded on its own from scipy's linalg directory, without
importing scipy: importing it through scipy.linalg would first run the
__init__ of scipy and of scipy.linalg, which load much of scipy (and
subprocess, tempfile, zipfile) for routines nslag never calls.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, State
from .model import face_conductance, mms_source, mms_tables, strain_rate


def _load_flapack():
    """scipy.linalg._flapack, the extension module behind scipy.linalg.lapack,
    loaded without importing scipy: find_spec locates the top-level package
    without running its __init__, and the module is loaded from its linalg
    directory.  It is registered under its own name, so a later import of
    scipy.linalg reuses it."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        scipy_dirs = importlib.util.find_spec("scipy").submodule_search_locations
        where = [os.path.join(d, "linalg") for d in scipy_dirs]
        spec = importlib.machinery.PathFinder.find_spec(name, where)
        if spec is None:
            raise ImportError(f"no module named {name!r}", name=name)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


# looked up at call time by solve_tridiagonal, so it can be wrapped or
# replaced as a module attribute
dptsv = _load_flapack().dptsv

# a step fails when it leaves v or theta at or below this floor; advance
# retries a failed step with half the step at most MAX_RETRIES times
POSITIVITY_FLOOR = 1e-8
MAX_RETRIES = 20


@dataclass(frozen=True)
class StepControl:
    """Step-size policy: acoustic CFL number and the smallest step."""

    cfl_hyp: float = 0.4
    dt_min: float = 1e-12

    def __post_init__(self):
        for name in ("cfl_hyp", "dt_min"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
        if self.cfl_hyp > 1.0:
            raise ConfigError("cfl_hyp must not exceed 1")


class PositivityViolation(ArithmeticError):
    """A substep left v or theta at or below the floor."""


class StepFailure(RuntimeError):
    """Retries of a rejected step ran out: more than MAX_RETRIES tries, or
    the step halved below dt_min, as the message says with the last step
    size tried.  Carries the last good state and dt, half that size."""

    def __init__(self, msg, state, dt):
        super().__init__(msg)
        self.state = state
        self.dt = dt
        self.snapshot_path = None   # set where the state is written out


def check_dominant(diag, off):
    """Raise ArithmeticError, naming the least dominant row, unless every
    row's diagonal diag[k] exceeds the magnitudes of its couplings off[k-1]
    and off[k] (ptsv's d and e); a non-positive diagonal fails.  Returns the
    check's scratch array, one value per row, for the caller to overwrite.
    """
    gap = diag.copy()
    mag = np.abs(off)
    gap[:-1] -= mag
    gap[1:] -= mag
    k = gap.argmin()   # the first NaN, if any
    if not gap[k] > 0.0:
        raise ArithmeticError(f"tridiagonal row {k} is not strictly dominant")
    return gap


def solve_tridiagonal(diag, off, rhs):
    """Solve a symmetric strictly dominant tridiagonal system with LAPACK ptsv.

    Assembly must give a positive diagonal and strict dominance, hence a
    positive-definite matrix; check_dominant verifies it first.  ptsv
    factors LDL^T without pivoting; the arrays are left untouched.  A
    nonzero ptsv info raises ArithmeticError, and so does a residual that
    is not at most 1e-12 * (|rhs|_inf + 2*max(diag)*|x|_inf) plus the
    smallest normal float, a NaN included.  The solve is backward stable,
    so its residual is about eps*|A|_inf*|x|_inf, and 2*max(diag) bounds
    |A|_inf of a dominant matrix: the bound scales with the couplings, as
    strong conduction makes them large.  The absolute term admits
    subnormal data, whose rounding error is absolute.
    """
    work = check_dominant(diag, off)
    _, _, x, info = dptsv(diag, off, rhs)
    if info != 0:
        raise ArithmeticError(f"tridiagonal solve failed: ptsv info {info}")
    res = diag * x
    res -= rhs
    band = work[:-1]
    res[:-1] += np.multiply(off, x[1:], out=band)
    res[1:] += np.multiply(off, x[:-1], out=band)
    np.abs(rhs, out=work)
    rhs_max = work[work.argmax()]
    np.abs(x, out=work)
    bound = 1e-12 * (rhs_max + 2.0 * diag[diag.argmax()] * work[work.argmax()])
    bound += sys.float_info.min
    np.abs(res, out=res)
    if not res[res.argmax()] <= bound:
        raise ArithmeticError("tridiagonal solve lost accuracy")
    return x


def stable_dt(s, grid, params, ctl):
    """Acoustic step bound: min over cells of cfl * h_j * v / c.

    c = sqrt(R (1 + R/cv) theta) is the adiabatic sound speed in mass
    coordinates (up to the 1/v factor shown explicitly).  Diffusion is
    implicit, so no parabolic restriction enters.  Never returns less
    than dt_min.
    """
    c = params.R * (1.0 + params.R / params.cv) * s.theta
    np.sqrt(c, out=c)
    np.divide(s.v, c, out=c)
    c *= grid.scaled_dx(ctl.cfl_hyp)
    return max(float(c[c.argmin()]), ctl.dt_min)


def _require_above_floor(name, x):
    # positivity and finiteness in two extrema: a NaN is the minimum, +inf
    # shows in the maximum
    lo = x[x.argmin()]
    if not (lo > POSITIVITY_FLOOR and x[x.argmax()] < np.inf):
        raise PositivityViolation(f"{name} reached {float(lo)}")


def step_imex(s, dt, grid, params, mms=None):
    """One first-order step of size dt: the new State, with its strain rate.
    Every failed guard raises ArithmeticError: solve_tridiagonal's, or
    PositivityViolation when v or theta is not finite and above the floor.

    Update order v -> u -> theta, each substep on the freshest fields.  In
    verification mode (mms set, a manufactured profile that meets the
    boundary closures) the forcing enters the loads: Sv at the old time
    (forward part), Su and Stheta at the new time (backward parts).
    """
    if not dt > 0.0:
        raise ConfigError(f"step size must be positive, got {dt}")
    n = grid.n_cells
    h = grid.dx
    mu, gas_r, cv = params.mu, params.R, params.cv
    t1 = s.t + dt

    v1 = np.multiply(s.strain(h), dt)
    v1 += s.v
    if mms is not None:
        at_centers, at_faces = mms_tables(grid, mms)
        v1 += dt * mms_source(at_centers, s.t, mms, params, 0)
    _require_above_floor("v", v1)

    # velocity solve: viscosity implicit on v1, pressure explicit at theta^n.
    # Row i, weighted by its control mass w_i = dm_i/dt, with the negated
    # couplings a = -mu/(h v1), which are the off-diagonal:
    #   (w_i - a_{i-1} - a_i) u_i + a_{i-1} u_{i-1} + a_i u_{i+1}
    #       = w_i u_i - (pe_i - pe_{i-1});
    # the wall row has no a_{-1} and pe_{-1} = R (prescribed stress -R), and
    # the pinned u[n] = 0 drops out of the last row
    a = h * v1
    np.divide(-mu, a, out=a)
    pe = np.empty(n + 1)
    pe[0] = gas_r
    r_th = gas_r * s.theta   # shared with the temperature load
    np.divide(r_th, v1, out=pe[1:])
    w = grid.dm[:n] / dt
    load = s.u[:n] * w
    load -= np.subtract(pe[1:], pe[:-1])
    diag = w
    diag -= a
    diag[1:] -= a[:-1]
    if mms is not None:
        su = mms_source(at_faces, t1, mms, params, 1)
        load += grid.dm[:n] * su[:n]
    u1 = np.empty(n + 1)
    u1[n] = 0.0
    u1[:n] = solve_tridiagonal(diag, a[:-1], load)
    ux1 = strain_rate(u1, h)

    # temperature solve: conduction implicit, conductivities c frozen at
    # theta^n.  Row j, weighted by its heat capacity q_j = cv h_j/dt:
    #   (q_j + c_j + c_{j+1}) th_j - c_j th_{j-1} - c_{j+1} th_{j+1}
    #       = q_j th^n_j + h_j (mu u_x - R th^n) u_x / v1;
    # c_0 = 0 at the adiabatic wall, and the far ghost's term c_N * 1 moves
    # to the last load.  The state's numerator is read once and dropped, so
    # it is not kept alive through the solve
    thn = s.theta
    cond = face_conductance(s.conduction_numerator(params, keep=False), v1,
                            grid.dc)
    q = h * (cv / dt)
    load2 = mu * ux1
    load2 -= r_th
    load2 *= ux1
    load2 /= v1
    load2 *= h
    load2 += q * thn
    load2[-1] += cond[n]
    if mms is not None:
        sth = mms_source(at_centers, t1, mms, params, 2)
        sth *= cv * h
        load2 += sth
    diag2 = np.add(cond[:n], cond[1:])
    diag2 += q
    th1 = solve_tridiagonal(diag2, np.negative(cond[1:n]), load2)
    _require_above_floor("theta", th1)

    return State(t1, v1, th1, u1, ux1)


def advance(s, t_target, grid, params, ctl=None, on_step=None):
    """March the state to t_target with adaptive steps and retries.

    The last step is truncated to land on t_target exactly.  A step that
    raises ArithmeticError, any of step_imex's guards, is rejected and
    retried at half the size.  After every accepted step on_step, when
    given, is called as on_step(prev_state, new_state, dt); it must not
    mutate its arguments.  When the retries run out, after MAX_RETRIES
    retries or at a step below ctl.dt_min, StepFailure names the limit and
    carries the last good state.
    """
    ctl = StepControl() if ctl is None else ctl
    if t_target < s.t:
        raise ConfigError(f"t_target {t_target} lies before current time {s.t}")
    state = s
    while state.t < t_target:
        remaining = t_target - state.t
        dt = min(stable_dt(state, grid, params, ctl), remaining)
        hits_target = dt >= remaining
        tries = 0
        while True:
            try:
                new = step_imex(state, dt, grid, params)
                break
            except ArithmeticError as exc:
                tries += 1
                tried, dt = dt, 0.5 * dt
                hits_target = False
                if tries > MAX_RETRIES:
                    limit = (f"no step accepted in {tries} tries, the last "
                             f"with dt = {tried}")
                elif dt < ctl.dt_min:
                    limit = (f"step size underflowed: dt = {tried} halves to "
                             f"{dt}, below dt_min = {ctl.dt_min}")
                else:
                    continue
                raise StepFailure(f"{limit}, at t = {state.t} ({exc})",
                                  state, dt) from exc
        if hits_target:
            new.t = t_target  # land exactly, no roundoff creep
        if on_step is not None:
            on_step(state, new, dt)
        state = new
    return state
