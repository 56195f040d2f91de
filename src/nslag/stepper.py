"""Time integration: explicit volume transport, implicit diffusion.

One step advances v forward in time (exact telescoping of the strain rate),
then solves a tridiagonal system for the new velocity (viscosity implicit
on the fresh v, pressure gradient explicit at the old temperature), then a
tridiagonal system for the new temperature (conduction implicit with face
conductivities frozen at the old temperature, compression work and viscous
heating explicit with the fresh strain rate), which the step returns for
the running integrals and the next step's v.  Steps that drive v or theta
to the positivity floor are rejected and retried with a halved step.

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
Reductions call the ufuncs' reduce: the array methods' reduction without
their Python wrapper.  At 2210 cells a step costs about 339 us on a 2-vCPU
KVM guest: each solve about 70, the rest of step_imex about 92, and under
mms its three forcing terms about 28 each at c02's sizes (BENCH_8.json).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dptsv

from .core import ConfigError, State
from .model import face_conductance, mms_source, mms_tables, strain_rate

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

    def __reduce__(self):
        # args holds only the message; rebuild from all three, then restore
        # the attributes (snapshot_path included) from __dict__
        return type(self), (self.args[0], self.state, self.dt), self.__dict__


def check_dominant(diag, off):
    """Raise ValueError, naming the least dominant row, unless every row's
    diagonal diag[k] exceeds the magnitudes of its couplings off[k-1] and
    off[k] (ptsv's d and e); a non-positive diagonal fails.  Returns the
    check's scratch array, one value per row, for the caller to overwrite.
    """
    gap = diag.copy()
    mag = np.abs(off)
    gap[:-1] -= mag
    gap[1:] -= mag
    if not np.minimum.reduce(gap) > 0.0:
        k = int(np.argmin(gap))
        raise ValueError(f"tridiagonal row {k} is not strictly dominant")
    return gap


def solve_tridiagonal(diag, off, rhs):
    """Solve a symmetric strictly dominant tridiagonal system with LAPACK ptsv.

    Assembly must give a positive diagonal and strict dominance, hence a
    positive-definite matrix; check_dominant verifies it first.  ptsv
    factors LDL^T without pivoting; the arrays are left untouched.  A
    nonzero ptsv info raises ArithmeticError, and so does a residual that
    is not at most 1e-12 * (|rhs|_inf + |x|_inf), a NaN included; under
    finite data neither can trip.
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
    c *= grid.scaled_dx(ctl.cfl_hyp)
    return max(float(np.minimum.reduce(c)), ctl.dt_min)


def _require_above(name, x, floor):
    # positivity and finiteness in two reductions: a NaN propagates into the
    # minimum, +inf shows in the maximum
    lo = np.minimum.reduce(x)
    if not (lo > floor and np.maximum.reduce(x) < np.inf):
        raise PositivityViolation(name, float(lo))


def step_imex(s, dt, grid, params, mms=None, floor=0.0, ux=None):
    """One first-order step of size dt; raises PositivityViolation on failure.

    Update order v -> u -> theta, each substep on the freshest fields.  In
    verification mode (mms set) both end velocities are exact traces and
    leave the velocity system, the far ghost takes exact values and the
    forcing enters the loads: Sv at the old time (forward part), Su and
    Stheta at the new time (backward parts).  ux, the strain rate of s.u,
    is computed when not passed in; returns the new state and its own.
    """
    if not dt > 0.0:
        raise ConfigError(f"step size must be positive, got {dt}")
    n = grid.n_cells
    h = grid.dx
    mu, gas_r, cv = params.mu, params.R, params.cv
    t1 = s.t + dt

    v1 = np.multiply(strain_rate(s.u, h) if ux is None else ux, dt)
    v1 += s.v
    if mms is not None:
        at_centers, at_faces = mms_tables(grid, mms)
        v1 += dt * mms_source(at_centers, s.t, mms, params, 0)
    _require_above("v", v1, floor)

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
    off = a[:-1]
    u1 = np.empty(n + 1)
    if mms is None:
        u1[n] = 0.0
        u1[:n] = solve_tridiagonal(diag, off, load)
    else:
        # both end velocities are exact traces: rows 1..n-1 remain, and the
        # couplings to the ends move into their loads
        u1[0] = float(mms.u_exact(0.0, t1))
        u1[n] = float(mms.u_exact(grid.far_length, t1))
        su = mms_source(at_faces, t1, mms, params, 1)
        b = load[1:]
        b += grid.dm[1:n] * su[1:n]
        b[0] -= a[0] * u1[0]
        b[-1] -= a[-1] * u1[n]
        u1[1:n] = solve_tridiagonal(diag[1:], off[1:], b)
    ux1 = strain_rate(u1, h)

    # temperature solve: conduction implicit, conductivities c frozen at
    # theta^n.  Row j, weighted by its heat capacity q_j = cv h_j/dt:
    #   (q_j + c_j + c_{j+1}) th_j - c_j th_{j-1} - c_{j+1} th_{j+1}
    #       = q_j th^n_j + h_j (mu u_x - R th^n) u_x / v1;
    # c_0 = 0 at the adiabatic wall, and the far ghost's term moves to the
    # last load
    thn = s.theta
    theta_ghost_old = theta_ghost_new = v_ghost = 1.0
    if mms is not None:
        xg = grid.far_length + 0.5 * h[-1]
        theta_ghost_old = float(mms.theta_exact(xg, s.t))
        theta_ghost_new = float(mms.theta_exact(xg, t1))
        v_ghost = float(mms.v_exact(xg, t1))
    cond = face_conductance(thn, v1, params, grid.dc, theta_ghost_old,
                            v_ghost)
    q = h * (cv / dt)
    load2 = mu * ux1
    load2 -= r_th
    load2 *= ux1
    load2 /= v1
    load2 *= h
    load2 += q * thn
    load2[-1] += cond[n] * theta_ghost_new
    if mms is not None:
        sth = mms_source(at_centers, t1, mms, params, 2)
        sth *= cv * h
        load2 += sth
    diag2 = np.add(cond[:n], cond[1:])
    diag2 += q
    th1 = solve_tridiagonal(diag2, np.negative(cond[1:n]), load2)
    _require_above("theta", th1, floor)

    return State(t1, v1, th1, u1), ux1


def advance(s, t_target, grid, params, ctl=None, ux=None, on_step=None):
    """March the state to t_target with adaptive steps and positivity retries.

    The last step is truncated to land on t_target exactly.  After every
    accepted step on_step, when given, is called as on_step(prev_state,
    new_state, dt, new_ux); it must not mutate its arguments.  ux, the
    strain rate of s.u, is computed when not passed in; each step hands
    its own, new_ux, to the next.  Step-size underflow raises StepFailure
    with the last good state attached.
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
                new, new_ux = step_imex(state, dt, grid, params,
                                        floor=POSITIVITY_FLOOR, ux=ux)
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
        if on_step is not None:
            on_step(state, new, dt, new_ux)
        state, ux = new, new_ux
    return state
