"""Time integration: explicit volume transport, implicit diffusion.

One step advances v forward in time (exact telescoping of the strain rate),
then solves a tridiagonal system for the new velocity (viscosity implicit
on the fresh v, pressure gradient explicit at the old temperature), then a
tridiagonal system for the new temperature (conduction implicit with face
conductivities frozen at the old temperature, compression work and viscous
heating explicit with the fresh strain rate).  Both matrices are strictly
diagonally dominant for every positive state and step size, so the linear
solves cannot break down.  Steps that drive v or theta to the positivity
floor are rejected and retried with a halved step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .core import ConfigError, State
from .model import face_conductance, mms_source


@dataclass(frozen=True)
class StepControl:
    """Step-size policy and positivity retry limits."""

    cfl_hyp: float = 0.4
    dt_min: float = 1e-12
    positivity_floor: float = 1e-8
    max_retries: int = 20

    def __post_init__(self):
        for name in ("cfl_hyp", "dt_min", "positivity_floor"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be positive")
        if self.cfl_hyp > 1.0:
            raise ConfigError("cfl_hyp must not exceed 1")
        if self.max_retries < 1:
            raise ConfigError("max_retries must be at least 1")


class PositivityViolation(Exception):
    """Internal retry signal: a substep left v or theta at or below the floor."""

    def __init__(self, name, value):
        super().__init__(f"{name} reached {value}")
        self.name = name
        self.value = value


class StepFailure(RuntimeError):
    """Step size underflowed during positivity retries; carries the last good state."""

    def __init__(self, msg, state, dt):
        super().__init__(msg)
        self.state = state
        self.dt = dt


@dataclass
class TriDiag:
    """Tridiagonal system; lower[k] multiplies x[k-1], upper[k] x[k+1].

    lower[0] and upper[-1] are structural zeros.  Assembly must produce
    strict diagonal dominance; solve_tridiagonal checks it.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray

    def check_dominant(self):
        gap = np.abs(self.diag) - np.abs(self.lower) - np.abs(self.upper)
        if not np.all(gap > 0.0):
            k = int(np.argmin(gap))
            raise ValueError(f"tridiagonal row {k} is not strictly dominant")


def solve_tridiagonal(sys):
    """Solve a strictly dominant tridiagonal system by banded elimination.

    The residual is checked against 1e-12 * (|rhs|_inf + |x|_inf); under
    dominance the factorization is stable and this cannot trip.
    """
    sys.check_dominant()
    n = sys.diag.size
    ab = np.zeros((3, n))
    ab[0, 1:] = sys.upper[:-1]
    ab[1, :] = sys.diag
    ab[2, :-1] = sys.lower[1:]
    x = solve_banded((1, 1), ab, sys.rhs, overwrite_ab=True, check_finite=False)
    res = sys.diag * x - sys.rhs
    res[1:] += sys.lower[1:] * x[:-1]
    res[:-1] += sys.upper[:-1] * x[1:]
    bound = 1e-12 * (np.abs(sys.rhs).max() + np.abs(x).max())
    if np.abs(res).max() > bound:
        raise ArithmeticError("tridiagonal solve lost accuracy")
    return x


def stable_dt(s, grid, params, ctl):
    """Acoustic step bound: min over cells of cfl * h * v / c.

    c = sqrt(R (1 + R/cv) theta) is the adiabatic sound speed in mass
    coordinates (up to the 1/v factor shown explicitly).  Diffusion is
    implicit, so no parabolic restriction enters.  Never returns less
    than dt_min.
    """
    c = np.sqrt(params.R * (1.0 + params.R / params.cv) * s.theta)
    dt = ctl.cfl_hyp * grid.h * float(np.min(s.v / c))
    return max(dt, ctl.dt_min)


def step_imex(s, dt, grid, params, mms=None, floor=0.0):
    """One first-order step of size dt; raises PositivityViolation on failure.

    Update order v -> u -> theta, each substep on the freshest fields.  In
    verification mode (mms set) the two velocity rows are pinned to exact
    traces, the far ghost takes exact values and the forcing enters the
    loads: Sv at the old time (forward part), Su and Stheta at the new time
    (backward parts).
    """
    if not dt > 0.0:
        raise ConfigError(f"step size must be positive, got {dt}")
    n = grid.n_cells
    h = grid.h
    mu, gas_r, cv = params.mu, params.R, params.cv
    t1 = s.t + dt

    ux_n = (s.u[1:] - s.u[:-1]) / h
    v1 = s.v + dt * ux_n
    if mms is not None:
        sv, _, _ = mms_source(grid.centers(), s.t, mms, params)
        v1 = v1 + dt * sv
    if not np.all(np.isfinite(v1)) or v1.min() <= floor:
        raise PositivityViolation("v", float(v1.min()))

    # velocity solve: viscosity implicit on v1, pressure explicit at theta^n
    a = mu / (h * v1)
    pe = gas_r * s.theta / v1
    r = dt / h
    lower = np.zeros(n + 1)
    diag = np.ones(n + 1)
    upper = np.zeros(n + 1)
    load = np.zeros(n + 1)
    lower[1:n] = -r * a[: n - 1]
    diag[1:n] = 1.0 + r * (a[: n - 1] + a[1:n])
    upper[1:n] = -r * a[1:n]
    load[1:n] = s.u[1:n] - r * (pe[1:n] - pe[: n - 1])
    if mms is None:
        # wall row: half-cell closure against the prescribed stress -R
        diag[0] = 1.0 + 2.0 * r * a[0]
        upper[0] = -2.0 * r * a[0]
        load[0] = s.u[0] + 2.0 * r * (gas_r - pe[0])
        # far-field row stays pinned: u[n] = 0
    else:
        load[0] = float(mms.u_exact(0.0, t1))
        load[n] = float(mms.u_exact(grid.length, t1))
        _, su, _ = mms_source(grid.faces(), t1, mms, params)
        load[1:n] += dt * su[1:n]
    u1 = solve_tridiagonal(TriDiag(lower, diag, upper, load))
    ux1 = (u1[1:] - u1[:-1]) / h

    # temperature solve: conduction implicit, conductivities frozen at theta^n
    thn = s.theta
    theta_ghost_old = 1.0
    theta_ghost_new = 1.0
    v_ghost = 1.0
    if mms is not None:
        xg = grid.length + 0.5 * h
        theta_ghost_old = float(mms.theta_exact(xg, s.t))
        theta_ghost_new = float(mms.theta_exact(xg, t1))
        v_ghost = float(mms.v_exact(xg, t1))
    cond = face_conductance(thn, v1, params, h, theta_ghost_old, v_ghost)
    work = (-gas_r * thn * ux1 + mu * ux1 * ux1) / v1
    rr = dt / (cv * h)
    lower2 = np.zeros(n)
    upper2 = np.zeros(n)
    lower2[1:] = -rr * cond[1:n]
    upper2[:-1] = -rr * cond[1:n]
    diag2 = 1.0 + rr * (cond[:n] + cond[1:])
    load2 = thn + dt * work / cv
    load2[-1] += rr * cond[n] * theta_ghost_new
    if mms is not None:
        _, _, sth = mms_source(grid.centers(), t1, mms, params)
        load2 = load2 + dt * sth
    th1 = solve_tridiagonal(TriDiag(lower2, diag2, upper2, load2))
    if not np.all(np.isfinite(th1)) or th1.min() <= floor:
        raise PositivityViolation("theta", float(th1.min()))

    return State(t1, v1, th1, u1)


def advance(s, t_target, grid, params, ctl=None, callbacks=(), mms=None):
    """March the state to t_target with adaptive steps and positivity retries.

    The last step is truncated to land on t_target exactly.  After every
    accepted step each callback is invoked as cb(prev_state, new_state, dt);
    callbacks must not mutate either state.  Step-size underflow during
    retries raises StepFailure with the last good state attached.
    """
    if ctl is None:
        ctl = StepControl()
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
                new = step_imex(state, dt, grid, params, mms=mms,
                                floor=ctl.positivity_floor)
                break
            except PositivityViolation as exc:
                tries += 1
                dt *= 0.5
                hits_target = False
                if tries > ctl.max_retries or dt < ctl.dt_min:
                    raise StepFailure(
                        f"step size underflowed at t = {state.t} ({exc})",
                        state, dt) from exc
        if hits_target:
            new.t = t_target  # land exactly, no roundoff creep
        for cb in callbacks:
            cb(state, new, dt)
        state = new
    return state
