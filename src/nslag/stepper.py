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

Each system is assembled in place into the three diagonals and the load
that LAPACK's gtsv takes, and solve_tridiagonal hands them to gtsv
directly, between a dominance check before and a residual check after.
Reductions call the ufuncs' reduce: the array methods' reduction without
their Python wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .core import ConfigError, State
from .model import face_conductance, mms_source, strain_rate

# an adaptive step is rejected when it leaves v or theta at or below this
# floor, and retried with half the step at most MAX_RETRIES times
POSITIVITY_FLOOR = 1e-8
MAX_RETRIES = 20


@dataclass(frozen=True)
class StepControl:
    """Step-size policy: acoustic CFL number and the smallest step."""

    cfl_hyp: float = 0.4
    dt_min: float = 1e-12

    def __post_init__(self):
        for name in ("cfl_hyp", "dt_min"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be positive")
        if self.cfl_hyp > 1.0:
            raise ConfigError("cfl_hyp must not exceed 1")


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
        self.snapshot_path = None   # set where the state is written out


@dataclass
class TriDiag:
    """Tridiagonal system; lower[k] multiplies x[k-1], upper[k] x[k+1].

    lower[0] and upper[-1] are structural zeros, so lower[1:], diag and
    upper[:-1] are gtsv's dl, d and du.  Assembly must produce strict
    diagonal dominance; solve_tridiagonal checks it.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray

    def check_dominant(self):
        """Raise ValueError, naming the least dominant row, unless every
        row is strictly dominant.

        Returns the scratch array the check used, one value per row, for
        the caller to overwrite.
        """
        gap = np.abs(self.diag)
        work = np.abs(self.lower)
        gap -= work
        gap -= np.abs(self.upper, out=work)
        if not np.minimum.reduce(gap) > 0.0:
            k = int(np.argmin(gap))
            raise ValueError(f"tridiagonal row {k} is not strictly dominant")
        return work


def solve_tridiagonal(sys):
    """Solve a strictly dominant tridiagonal system with LAPACK gtsv.

    gtsv eliminates with partial pivoting; the system's arrays are left
    untouched.  A nonzero gtsv info raises ArithmeticError, and so does a
    residual that is not at most 1e-12 * (|rhs|_inf + |x|_inf), a NaN
    included; under dominance and finite data the elimination is stable
    and neither can trip.
    """
    work = sys.check_dominant()
    lower, diag, upper, rhs = sys.lower, sys.diag, sys.upper, sys.rhs
    _, _, _, x, info = dgtsv(lower[1:], diag, upper[:-1], rhs)
    if info != 0:
        raise ArithmeticError(f"tridiagonal solve failed: gtsv info {info}")
    res = diag * x
    res -= rhs
    res[1:] += np.multiply(lower[1:], x[:-1], out=work[1:])
    res[:-1] += np.multiply(upper[:-1], x[1:], out=work[:-1])
    bound = 1e-12 * (np.maximum.reduce(np.abs(rhs, out=work))
                     + np.maximum.reduce(np.abs(x, out=work)))
    if not np.maximum.reduce(np.abs(res, out=res)) <= bound:
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
    c *= ctl.cfl_hyp * grid.dx
    return max(float(np.minimum.reduce(c)), ctl.dt_min)


def _require_above(name, x, floor):
    # positivity and finiteness in two reductions: a NaN propagates into the
    # minimum, +inf shows in the maximum
    lo = np.minimum.reduce(x)
    if not (lo > floor and np.maximum.reduce(x) < np.inf):
        raise PositivityViolation(name, float(lo))


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
    h = grid.dx
    mu, gas_r, cv = params.mu, params.R, params.cv
    t1 = s.t + dt

    # v1 = v + dt*u_x, built in the strain rate's buffer
    v1 = strain_rate(s.u, h)
    v1 *= dt
    v1 += s.v
    if mms is not None:
        sv, _, _ = mms_source(grid.centers(), s.t, mms, params)
        v1 += dt * sv
    _require_above("v", v1, floor)

    # velocity solve: viscosity implicit on v1, pressure explicit at theta^n;
    # face rows are divided by their control mass, a half cell at the wall;
    # rows 1..n-1 are written in place; (-r)*a is -(r*a) exactly
    a = h * v1
    np.divide(mu, a, out=a)
    pe = gas_r * s.theta
    pe /= v1
    r = dt / grid.dm
    ri = r[1:n]
    nri = np.negative(ri)
    lower = np.empty(n + 1)
    diag = np.empty(n + 1)
    upper = np.empty(n + 1)
    load = np.empty(n + 1)
    np.multiply(nri, a[:-1], out=lower[1:n])
    np.multiply(nri, a[1:], out=upper[1:n])
    d = diag[1:n]
    np.add(a[:-1], a[1:], out=d)
    d *= ri
    d += 1.0
    b = load[1:n]
    np.subtract(pe[1:], pe[:-1], out=b)
    b *= ri
    np.subtract(s.u[1:n], b, out=b)
    lower[0] = upper[n] = 0.0
    # far-field row stays pinned: u[n] = 0, or its exact trace under mms
    lower[n] = load[n] = 0.0
    diag[n] = 1.0
    if mms is None:
        # wall row: half-cell closure against the prescribed stress -R
        ra = r[0] * a[0]
        diag[0] = 1.0 + ra
        upper[0] = -ra
        load[0] = s.u[0] + r[0] * (gas_r - pe[0])
    else:
        diag[0] = 1.0
        upper[0] = 0.0
        load[0] = float(mms.u_exact(0.0, t1))
        load[n] = float(mms.u_exact(grid.far_length, t1))
        _, su, _ = mms_source(grid.faces(), t1, mms, params)
        b += dt * su[1:n]
    u1 = solve_tridiagonal(TriDiag(lower, diag, upper, load))
    ux1 = strain_rate(u1, h)

    # temperature solve: conduction implicit, conductivities frozen at theta^n
    thn = s.theta
    theta_ghost_old = 1.0
    theta_ghost_new = 1.0
    v_ghost = 1.0
    if mms is not None:
        xg = grid.far_length + 0.5 * h[-1]
        theta_ghost_old = float(mms.theta_exact(xg, s.t))
        theta_ghost_new = float(mms.theta_exact(xg, t1))
        v_ghost = float(mms.v_exact(xg, t1))
    cond = face_conductance(thn, v1, params, grid.dc, theta_ghost_old,
                            v_ghost)
    # load2 = theta^n + dt*work/cv, work = (-R theta^n u_x + mu u_x^2)/v1
    load2 = -gas_r * thn
    load2 *= ux1
    heat = mu * ux1
    heat *= ux1
    load2 += heat
    load2 /= v1
    load2 *= dt
    load2 /= cv
    load2 += thn
    rr = cv * h
    np.divide(dt, rr, out=rr)
    nrr = np.negative(rr)
    lower2 = np.empty(n)
    upper2 = np.empty(n)
    lower2[0] = upper2[-1] = 0.0
    np.multiply(nrr[1:], cond[1:n], out=lower2[1:])
    np.multiply(nrr[:-1], cond[1:n], out=upper2[:-1])
    diag2 = np.add(cond[:n], cond[1:])
    diag2 *= rr
    diag2 += 1.0
    load2[-1] += rr[-1] * cond[n] * theta_ghost_new
    if mms is not None:
        _, _, sth = mms_source(grid.centers(), t1, mms, params)
        load2 += dt * sth
    th1 = solve_tridiagonal(TriDiag(lower2, diag2, upper2, load2))
    _require_above("theta", th1, floor)

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
                                floor=POSITIVITY_FLOOR)
                break
            except PositivityViolation as exc:
                tries += 1
                dt *= 0.5
                hits_target = False
                if tries > MAX_RETRIES or dt < ctl.dt_min:
                    raise StepFailure(
                        f"step size underflowed at t = {state.t} ({exc})",
                        state, dt) from exc
        if hits_target:
            new.t = t_target  # land exactly, no roundoff creep
        for cb in callbacks:
            cb(state, new, dt)
        state = new
    return state
