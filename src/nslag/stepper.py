"""Time integration: explicit volume transport, implicit diffusion.

step_imex composes three substeps, each looked up through this module when
called: update_volume, solve_velocity and solve_temperature.  A step that
fails any guard raises ArithmeticError; advance rejects it and retries at
half the step.  advance steps at the acoustic bound stable_dt, taken at
the CFL number CFL = 0.4, or at up to STEP_CAP = 16 times it while no
cell's volume changes by more than VOLUME_CHANGE and r dt^2, r the largest
relative volume rate, stays within STEP_ERROR^2.

Viscosity and conduction are in divergence form, so weighting each row by
its control mass makes the matrix symmetric, and each diagonal is its
weight plus its positive couplings: both matrices are strictly diagonally
dominant with a positive diagonal, hence positive definite, for every
positive state and step size.  solve_tridiagonal hands each to LAPACK's
ptsv (LDL^T, no pivoting) between a dominance check and a residual check.
Each extremum is taken as x[x.argmin()] or x[x.argmax()]: the same float
as x.min() or x.max(), a NaN included, without a ufunc reduce's set-up,
which costs as much as the arithmetic on a few thousand values.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

from .core import ConfigError, State
from .model import (face_conductance, face_denominator, mms_source,
                    mms_tables, strain_rate)


def _load_flapack():
    """scipy.linalg._flapack, the extension module behind scipy.linalg.lapack,
    loaded without importing scipy, whose __init__ and scipy.linalg's load
    much of scipy (and subprocess, tempfile, zipfile) for routines nslag
    never calls: find_spec locates the top-level package without running
    its __init__, and the module is loaded from its linalg directory.  It
    is registered under its own name, so a later import of scipy.linalg
    reuses it."""
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
# retries a failed step with half the step at most MAX_RETRIES times, and
# never below DT_MIN, which is also the least step stable_dt returns; the
# acoustic step is taken at the CFL number CFL, and a step longer than it
# changes no cell's volume by more than the fraction VOLUME_CHANGE (eta),
# keeps r dt^2 within STEP_ERROR^2 (K, in s^(1/2)), and is at most
# STEP_CAP acoustic steps
POSITIVITY_FLOOR = 1e-8
MAX_RETRIES = 20
DT_MIN = 1e-12
VOLUME_CHANGE = 3e-4
STEP_ERROR = 1.5e-3
STEP_CAP = 16.0
CFL = 0.4


class PositivityViolation(ArithmeticError):
    """A substep left v or theta at or below the floor."""


class StepFailure(RuntimeError):
    """Retries of a rejected step ran out: more than MAX_RETRIES tries, or
    the step halved below DT_MIN, as the message says with the last step
    size tried.  Carries the last good state."""

    def __init__(self, msg, state):
        super().__init__(msg)
        self.state = state


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
    smallest normal float, a NaN included, or a bound that is not finite,
    as an infinity in x makes the bound and the residual.  The solve is
    backward stable, so its residual is about eps*|A|_inf*|x|_inf, and
    2*max(diag) bounds |A|_inf of a dominant matrix: the bound scales with
    the couplings, as strong conduction makes them large.  The absolute
    term admits subnormal data, whose rounding error is absolute.

    The bound is first taken at the worst row k alone, with |rhs[k]|,
    diag[k] and |x[k]| in place of the three maxima, which it accepts
    without computing them.  Each of the three is at most its maximum and
    every rounding is monotone, so the row's bound never exceeds the full
    one: when the row's finite bound admits the largest residual, so does
    the full bound.  Otherwise the full bound decides.  A NaN anywhere in
    rhs or x makes a NaN residual, which the row's bound never admits, so
    every verdict is the full bound's.
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
    np.abs(res, out=res)
    k = res.argmax()   # the first NaN, if any
    tiny = sys.float_info.min
    if res[k] <= 1e-12 * (abs(rhs[k]) + 2.0 * diag[k] * abs(x[k])) + tiny \
            < math.inf:
        return x
    np.abs(rhs, out=work)
    rhs_max = work[work.argmax()]
    np.abs(x, out=work)
    bound = 1e-12 * (rhs_max + 2.0 * diag[diag.argmax()] * work[work.argmax()])
    if not res[k] <= bound + tiny < math.inf:
        raise ArithmeticError("tridiagonal solve lost accuracy")
    return x


def stable_dt(s, grid, params):
    """Acoustic step bound: min over cells of CFL * h_j * v / c.

    c = sqrt(R (1 + R/cv) theta) is the adiabatic sound speed in mass
    coordinates (up to the 1/v factor shown explicitly).  Diffusion is
    implicit, so no parabolic restriction enters.  CFL * h_j is kept per
    grid (Grid.scaled_dx).  Never returns less than DT_MIN.
    """
    c = params.R * (1.0 + params.R / params.cv) * s.theta
    np.sqrt(c, out=c)
    np.divide(s.v, c, out=c)
    c *= grid.scaled_dx(CFL)
    return max(float(c[c.argmin()]), DT_MIN)


def controlled_dt(s, acoustic, h):
    """The step advance chooses at s: max(a, min(16a, eta/r, K/sqrt(r))), a
    the acoustic step, 16 = STEP_CAP, eta = VOLUME_CHANGE, K = STEP_ERROR
    and r = max_j |u_x,j|/v_j from the state's kept strain rate; 16a at
    rest.  v^{n+1} = v^n + dt u_x^n, so a step longer than a changes no
    cell's volume by more than the fraction eta.  Taking r dt^2 as a
    first-order step's local error, K/sqrt(r) holds it within K^2: the
    elementary controller dt ~ error^(-1/2) (Gustafsson, Lundh & Soderlind,
    BIT 28, 1988), with short steps where the fields move and long ones
    where they relax."""
    r = np.abs(s.strain(h))
    np.divide(r, s.v, out=r)
    r = float(r[r.argmax()])
    cap = STEP_CAP * acoustic
    if not r > 0.0:   # at rest
        return cap
    return max(acoustic,
               min(cap, VOLUME_CHANGE / r, STEP_ERROR / math.sqrt(r)))


def _require_above_floor(name, x):
    # positivity and finiteness in two extrema: a NaN is the minimum, +inf
    # shows in the maximum
    lo = x[x.argmin()]
    if not (lo > POSITIVITY_FLOOR and x[x.argmax()] < np.inf):
        raise PositivityViolation(f"{name} reached {float(lo)}")


def update_volume(s, dt, grid, source=None):
    """v^{n+1} = v^n + dt u_x^n, the exact telescoping of the strain rate,
    plus dt*source (the forcing Sv at t^n) when given.  Raises
    PositivityViolation unless it is finite and above the floor."""
    v1 = np.multiply(s.strain(grid.dx), dt)
    v1 += s.v
    if source is not None:
        v1 += dt * source
    _require_above_floor("v", v1)
    return v1


def solve_velocity(s, v1, r_th, dt, grid, params, source=None):
    """u^{n+1} on the faces: viscosity implicit on v1, pressure explicit at
    r_th = R theta^n, plus the forcing Su on the faces when given.

    Row i, weighted by its control mass w_i = dm_i/dt, with the negated
    couplings a = -mu/(h v1), which are the off-diagonal:
      (w_i - a_{i-1} - a_i) u_i + a_{i-1} u_{i-1} + a_i u_{i+1}
          = w_i u_i - (pe_i - pe_{i-1});
    the wall row has no a_{-1} and pe_{-1} = R (prescribed stress -R), and
    the pinned u[N] = 0 drops out of the last row.
    """
    n = grid.n_cells
    a = grid.dx * v1
    np.divide(-params.mu, a, out=a)
    pe = np.empty(n + 1)
    pe[0] = params.R
    np.divide(r_th, v1, out=pe[1:])
    w = grid.dm[:n] / dt
    load = s.u[:n] * w
    load -= np.subtract(pe[1:], pe[:-1])
    diag = w
    diag -= a
    diag[1:] -= a[:-1]
    if source is not None:
        load += grid.dm[:n] * source[:n]
    u1 = np.empty(n + 1)
    u1[n] = 0.0
    u1[:n] = solve_tridiagonal(diag, a[:-1], load)
    return u1


def solve_temperature(s, v1, ux1, r_th, num, den, dt, grid, params,
                      source=None):
    """theta^{n+1}: conduction implicit with the face conductances c, the
    numerator num over den, v1's face_denominator, compression work and
    viscous heating explicit with ux1 and r_th = R theta^n, and the forcing
    Stheta when given.  Raises PositivityViolation unless finite and above
    the floor.

    Row j, weighted by its heat capacity q_j = cv h_j/dt:
      (q_j + c_j + c_{j+1}) th_j - c_j th_{j-1} - c_{j+1} th_{j+1}
          = q_j th^n_j + h_j (mu u_x - R th^n) u_x / v1;
    c_0 = 0 at the adiabatic wall, and the far ghost's term c_N * 1 moves
    to the last load.
    """
    n = grid.n_cells
    h = grid.dx
    cond = face_conductance(num, den)
    q = h * (params.cv / dt)
    load = params.mu * ux1
    load -= r_th
    load *= ux1
    load /= v1
    load *= h
    load += q * s.theta
    load[-1] += cond[n]
    if source is not None:
        load += source * (params.cv * h)
    diag = np.add(cond[:n], cond[1:])
    diag += q
    th1 = solve_tridiagonal(diag, np.negative(cond[1:n]), load)
    _require_above_floor("theta", th1)
    return th1


def step_imex(s, dt, grid, params, mms=None):
    """One first-order step of size dt: the new State, with its strain rate,
    face denominator and conduction numerator; every failed guard raises
    ArithmeticError.

    The substeps run v -> u -> theta, each on the freshest fields, with
    conduction frozen at theta^n and R theta^n computed once for both
    loads.  The face denominator of v^{n+1} is made once per try: the
    temperature rows divide theta^n's numerator by it, and the new state
    keeps it for its dissipation, with theta^{n+1}'s numerator.  With mms,
    a manufactured profile that meets the boundary closures, the forcing
    enters the loads: Sv at the old time (forward part), Su and Stheta at
    the new time (backward parts).
    """
    if not dt > 0.0:
        raise ConfigError(f"step size must be positive, got {dt}")
    t1 = s.t + dt
    sv = su = sth = None
    if mms is not None:
        at_centers, at_faces = mms_tables(grid, mms)
        sv = mms_source(at_centers, s.t, mms, params, 0)
        su = mms_source(at_faces, t1, mms, params, 1)
        sth = mms_source(at_centers, t1, mms, params, 2)
    v1 = update_volume(s, dt, grid, sv)
    r_th = params.R * s.theta
    u1 = solve_velocity(s, v1, r_th, dt, grid, params, su)
    ux1 = strain_rate(u1, grid.dx)
    den = face_denominator(v1, grid.dc)
    th1 = solve_temperature(s, v1, ux1, r_th, s.conduction_numerator(params),
                            den, dt, grid, params, sth)
    out = State(t1, v1, th1, u1, ux1, den)
    out.conduction_numerator(params)   # for its dissipation and next step
    return out


def advance(s, t_target, grid, params, on_step=None):
    """March the state to t_target with adaptive steps and retries.

    Each step is min(remaining, controlled_dt(state, a)), a = stable_dt
    at CFL: from a to 16a, and controlled_dt runs only when a falls short
    of the remaining interval.  The last step is truncated to land on
    t_target exactly.  A step that raises ArithmeticError, any of
    step_imex's guards, is rejected and retried at half the size.  After
    every accepted step on_step, when given, is called as
    on_step(prev_state, new_state, dt); it must not mutate its arguments.
    When the retries run out, after MAX_RETRIES retries or at a step below
    DT_MIN, StepFailure names the limit and carries the last good state.
    """
    if t_target < s.t:
        raise ConfigError(f"t_target {t_target} lies before current time {s.t}")
    state = s
    while state.t < t_target:
        remaining = t_target - state.t
        dt = stable_dt(state, grid, params)
        if dt < remaining:
            dt = controlled_dt(state, dt, grid.dx)
        dt = min(dt, remaining)
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
                elif dt < DT_MIN:
                    limit = (f"step size underflowed: dt = {tried} halves to "
                             f"{dt}, below DT_MIN = {DT_MIN}")
                else:
                    continue
                raise StepFailure(f"{limit}, at t = {state.t} ({exc})",
                                  state) from exc
        if hits_target:
            new.t = t_target  # land exactly, no roundoff creep
        if on_step is not None:
            on_step(state, new, dt)
        state = new
    return state
