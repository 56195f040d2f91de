"""Observables: energy and dissipation, norms, entropy bands, reconstruction.

Everything here evaluates or accumulates the quantities whose boundedness
and decay the run reports check: the entropy-energy functional and its
dissipation, field extrema and norms, positive-part maxima, running time
integrals, unit-interval averages against the entropy band, and the probe
machinery that reconstructs v from the wall-stress exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DomainError
from .model import cell_stress


class DiagnosticsError(RuntimeError):
    """A report was requested from insufficient or inconsistent samples."""


# positive-part threshold for the (theta - 3/2)_+^2 monitor
POSPART_THRESHOLD = 1.5


@dataclass
class EnergyRecord:
    """Energy E, instantaneous dissipation V, running integral of V."""

    t: float
    E: float
    V: float
    cumV: float


@dataclass
class BoundsRecord:
    """Extrema, norms, positive-part maxima and running integrals at one time."""

    t: float
    vmin: float
    vmax: float
    thmin: float
    thmax: float
    n2_vm1: float
    n2_u: float
    n2_thm1: float
    ninf_vm1: float
    ninf_u: float
    ninf_thm1: float
    g2_vx: float
    g2_ux: float
    g2_thx: float
    pospart: float
    cum_ux2: float
    cum_pospart: float
    farfield_dev: float


@dataclass(frozen=True)
class JensenBand:
    """Roots alpha1 <= 1 <= alpha2 of y - ln y - 1 = e0."""

    e0: float
    alpha1: float
    alpha2: float


def energy_functional(s, grid, params):
    """Entropy energy: sum of h*(ubar^2/2 + R*(v - ln v - 1) + cv*(theta - ln theta - 1)).

    ubar is the face average on each cell.  Zero exactly at (1, 0, 1); the
    R weight on the volume term makes d/dt E = -V an identity of the
    continuum system for any R.
    """
    ubar = 0.5 * (s.u[:-1] + s.u[1:])
    ent_v = s.v - np.log(s.v) - 1.0
    ent_th = s.theta - np.log(s.theta) - 1.0
    total = 0.5 * ubar * ubar + params.R * ent_v + params.cv * ent_th
    return grid.h * float(np.sum(total))


def dissipation_functional(s, grid, params):
    """Dissipation: h*sum(mu*u_x^2/(v*theta)) + interior-face conduction part.

    The face part uses arithmetic means of theta and v and the squared
    one-sided temperature difference, matching the conduction stencil's
    stagger.
    """
    h = grid.h
    ux = (s.u[1:] - s.u[:-1]) / h
    cell = params.mu * ux * ux / (s.v * s.theta)
    thf = 0.5 * (s.theta[:-1] + s.theta[1:])
    vf = 0.5 * (s.v[:-1] + s.v[1:])
    dth = (s.theta[1:] - s.theta[:-1]) / h
    face = params.kappa * thf ** params.beta * dth * dth / (vf * thf * thf)
    return h * float(np.sum(cell)) + h * float(np.sum(face))


def sample_energy(s, grid, params, prev=None):
    """EnergyRecord at the state's time; cumV advanced from prev by trapezoid."""
    e = energy_functional(s, grid, params)
    v = dissipation_functional(s, grid, params)
    if prev is None:
        cum = 0.0
    else:
        cum = prev.cumV + 0.5 * (s.t - prev.t) * (prev.V + v)
    return EnergyRecord(s.t, e, v, cum)


def _bisect(f, lo, hi):
    # plain bisection to one ulp of the bracket; f(lo) > 0 > f(hi) or reverse
    flo = f(lo)
    for _ in range(200):
        if hi - lo <= np.spacing(lo):
            break
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def entropy_roots(e0):
    """Both roots of y - ln y - 1 = e0, bracketing 1.

    Bisection runs to machine precision of the bracket so the residual
    stays below 1e-12 even for roots near zero, where the function is
    steep.  e0 = 0 returns the double root (1, 1).
    """
    e0 = float(e0)
    if e0 < 0.0:
        raise DomainError(f"entropy level must be nonnegative, got {e0}")
    if e0 == 0.0:
        return JensenBand(0.0, 1.0, 1.0)

    def f(y):
        return y - math.log(y) - 1.0 - e0

    lo = 0.5
    while f(lo) <= 0.0:
        lo *= 0.5
    alpha1 = _bisect(f, lo, 1.0)
    hi = 2.0
    while f(hi) <= 0.0:
        hi *= 2.0
    alpha2 = _bisect(f, 1.0, hi)
    for root in (alpha1, alpha2):
        if abs(f(root)) > 1e-12:
            raise ArithmeticError(f"entropy root {root} has residual {f(root)}")
    if not alpha1 <= 1.0 <= alpha2:
        raise ArithmeticError("entropy roots failed to bracket 1")
    return JensenBand(e0, alpha1, alpha2)


def unit_interval_averages(s, grid):
    """Cell averages of v and theta over each unit mass interval [i, i+1).

    Requires the cell size to divide the unit interval and a domain of
    length at least 2.
    """
    if grid.length < 2.0:
        raise ConfigError("unit-interval averages need length >= 2")
    k = round(1.0 / grid.h)
    if k < 1 or abs(k * grid.h - 1.0) > 1e-9:
        raise ConfigError(
            f"cell size {grid.h} does not divide the unit mass interval")
    n_int = grid.n_cells // k
    m = n_int * k
    vbar = s.v[:m].reshape(n_int, k).mean(axis=1)
    tbar = s.theta[:m].reshape(n_int, k).mean(axis=1)
    return list(zip(vbar.tolist(), tbar.tolist()))


@dataclass
class ReprProbe:
    """Reconstruction probe over one unit mass interval [i, i+1].

    Carries the wall-of-interval stress exponential Y, the accumulated
    time integral I per probe point, and the spatial factor D recomputed
    from the current state.  The running integral grows like e^{R t}, so
    the probe is meant for moderate horizons (R*t well below 700).
    """

    i: int
    xs: np.ndarray
    cells: np.ndarray
    fi: int
    v0: np.ndarray
    u0: np.ndarray
    D: np.ndarray
    Y: float
    I: np.ndarray
    t: float
    logY_series: list


def make_repr_probe(s0, grid, i, n_points=5):
    """Probe over [i, i+1] with n_points interior sample points.

    The interval must sit at least one mass unit away from both boundaries
    and i must land on a grid face.
    """
    i = int(i)
    if not (1 <= i and i + 1 <= grid.length - 1):
        raise ConfigError(
            f"probe interval [{i}, {i + 1}] must keep one mass unit of "
            f"clearance inside (0, {grid.length})")
    fi = round(i / grid.h)
    if abs(fi * grid.h - i) > 1e-9:
        raise ConfigError(f"probe base {i} does not land on a grid face")
    xs = i + (np.arange(n_points) + 0.5) / n_points
    cells = np.minimum((xs / grid.h).astype(int), grid.n_cells - 1)
    v0 = s0.v[cells].copy()
    return ReprProbe(i=i, xs=xs, cells=cells, fi=fi, v0=v0, u0=s0.u.copy(),
                     D=v0.copy(), Y=1.0, I=np.zeros(n_points), t=s0.t,
                     logY_series=[(s0.t, 0.0)])


def _sigma_at_face(s, fi, h, params):
    # face value of the cell stress: mean of the two adjacent cells, on
    # scalars (array slices cost more than the arithmetic here)
    def cell_sigma(j):
        return cell_stress((s.u[j + 1] - s.u[j]) / h, s.theta[j], s.v[j],
                           params)

    return 0.5 * (cell_sigma(fi - 1) + cell_sigma(fi))


def _probe_d(p, s, grid):
    # D(x, t) = v0(x) * exp(int_i^x (u - u0) dy), trapezoid over faces plus
    # a half-cell tail from the last face to the cell center
    h = grid.h
    w = s.u - p.u0
    j0 = p.fi
    jmax = int(p.cells.max())
    seg = w[j0:jmax + 2]
    cum = np.concatenate(
        ([0.0], np.cumsum(0.5 * h * (seg[:-1] + seg[1:]))))
    jrel = p.cells - j0
    wl = w[p.cells]
    wr = w[p.cells + 1]
    tail = 0.25 * h * (1.5 * wl + 0.5 * wr)
    return p.v0 * np.exp(cum[jrel] + tail)


def update_repr_probe(p, s, s_prev, dt, grid, params):
    """Advance the probe across one accepted step; mutates and returns p.

    Y picks up exp(dt * sigma_mid) with the stress averaged over the two
    time levels.  The integral of theta/(D Y) treats theta/D as constant
    over the step and Y as the exact exponential of sigma_mid, which keeps
    the rest-state reconstruction exact up to roundoff.
    """
    if dt == 0.0:
        return p
    h = grid.h
    s_mid = 0.5 * (_sigma_at_face(s_prev, p.fi, h, params)
                   + _sigma_at_face(s, p.fi, h, params))
    d_new = _probe_d(p, s, grid)
    th_mid = 0.5 * (s_prev.theta[p.cells] + s.theta[p.cells])
    d_mid = 0.5 * (p.D + d_new)
    if s_mid == 0.0:
        growth = dt
    else:
        growth = -math.expm1(-s_mid * dt) / s_mid
    p.I += th_mid / d_mid * (growth / p.Y)
    p.Y *= math.exp(s_mid * dt)
    p.D = d_new
    p.t = s.t
    p.logY_series.append((s.t, math.log(p.Y)))
    return p


def reconstruct_v(p, s, params):
    """Reconstruct v at the probe points and report the worst relative error.

    v_rec = D * Y * (1 + R * I); the probe must have been updated through
    the state's time (D is taken from the last update).
    """
    v_rec = p.D * p.Y * (1.0 + params.R * p.I)
    v_act = s.v[p.cells]
    rel = float(np.max(np.abs(v_rec - v_act) / v_act))
    return v_rec, v_act, rel


def sample_bounds(s, grid, prev=None, pos_threshold=POSPART_THRESHOLD):
    """BoundsRecord at the state's time; running integrals advanced from prev.

    Gradient norms use one-sided differences at their natural stagger:
    v_x and theta_x on interior faces, u_x on cells.  The u norm uses
    trapezoid face weights.  The far-field deviation covers the last tenth
    of the cells (and the faces spanning them).
    """
    h = grid.h
    n = grid.n_cells
    v, th, u = s.v, s.theta, s.u
    ux = (u[1:] - u[:-1]) / h
    dvx = (v[1:] - v[:-1]) / h
    dthx = (th[1:] - th[:-1]) / h
    wface = np.full(n + 1, h)
    wface[0] = wface[-1] = 0.5 * h

    vm1 = v - 1.0
    thm1 = th - 1.0
    g2_ux = math.sqrt(h * float(np.sum(ux * ux)))
    pos = np.maximum(th - pos_threshold, 0.0)
    pospart = float(np.max(pos * pos))

    m = -(-n // 10)
    farfield = max(float(np.max(np.abs(vm1[-m:]))),
                   float(np.max(np.abs(thm1[-m:]))),
                   float(np.max(np.abs(u[-(m + 1):]))))

    if prev is None:
        cum_ux2 = 0.0
        cum_pospart = 0.0
    else:
        dt = s.t - prev.t
        cum_ux2 = prev.cum_ux2 + 0.5 * dt * (prev.g2_ux ** 2 + g2_ux ** 2)
        cum_pospart = prev.cum_pospart + 0.5 * dt * (prev.pospart + pospart)

    return BoundsRecord(
        t=s.t,
        vmin=float(v.min()), vmax=float(v.max()),
        thmin=float(th.min()), thmax=float(th.max()),
        n2_vm1=math.sqrt(h * float(np.sum(vm1 * vm1))),
        n2_u=math.sqrt(float(np.sum(wface * u * u))),
        n2_thm1=math.sqrt(h * float(np.sum(thm1 * thm1))),
        ninf_vm1=float(np.max(np.abs(vm1))),
        ninf_u=float(np.max(np.abs(u))),
        ninf_thm1=float(np.max(np.abs(thm1))),
        g2_vx=math.sqrt(h * float(np.sum(dvx * dvx))),
        g2_ux=g2_ux,
        g2_thx=math.sqrt(h * float(np.sum(dthx * dthx))),
        pospart=pospart,
        cum_ux2=cum_ux2,
        cum_pospart=cum_pospart,
        farfield_dev=farfield,
    )


_NORM_FIELDS = ("n2_vm1", "n2_u", "n2_thm1", "ninf_vm1", "ninf_u",
                "ninf_thm1", "g2_vx", "g2_ux", "g2_thx")


# norms at or below this count as zero: rounding noise of O(1) fields,
# far below anything a physical trajectory produces
_ZERO_NORM = 1e-13


def _ratio(first, last):
    if first <= _ZERO_NORM:
        return ("identically zero" if last <= _ZERO_NORM
                else "undefined (initial zero)")
    return last / first


def decay_report(series, energy, logy=None):
    """Long-time summary of a sampled trajectory.

    Needs at least 10 bounds samples spanning at least half the run.
    Reports final/initial norm ratios, the least-squares slope of ln Y over
    the second half (when a log-Y series is supplied), the worst energy
    inequality margin max_t (E + cumV - E(0)), the fraction of each running
    integral accumulated after half time, and the relative drift of each
    extremum between the window means over [T/4, T/2] and [T/2, T].
    """
    if len(series) < 10:
        raise DiagnosticsError(f"need at least 10 samples, got {len(series)}")
    t_end = series[-1].t
    if series[-1].t - series[0].t < 0.5 * t_end:
        raise DiagnosticsError("samples span less than half the run")
    if len(energy) < 2:
        raise DiagnosticsError("need at least 2 energy samples")

    ratios = {name: _ratio(getattr(series[0], name), getattr(series[-1], name))
              for name in _NORM_FIELDS}

    e0 = energy[0].E
    margin = max(rec.E + rec.cumV - e0 for rec in energy)

    ts = np.array([rec.t for rec in series])
    half = 0.5 * t_end

    def plateau(tgrid, values):
        # totals below the floor are rounding residue, not accumulation
        total = values[-1]
        if total <= 1e-20:
            return 0.0
        at_half = float(np.interp(half, tgrid, values))
        return (total - at_half) / total

    ets = np.array([rec.t for rec in energy])
    plateaus = {
        "cumV": plateau(ets, np.array([rec.cumV for rec in energy])),
        "cum_ux2": plateau(ts, np.array([rec.cum_ux2 for rec in series])),
        "cum_pospart": plateau(
            ts, np.array([rec.cum_pospart for rec in series])),
    }

    quarter = 0.25 * t_end
    win1 = (ts >= quarter) & (ts <= half)
    win2 = ts >= half
    drift = {}
    for name in ("vmin", "vmax", "thmin", "thmax"):
        vals = np.array([getattr(rec, name) for rec in series])
        m1 = float(vals[win1].mean()) if win1.any() else float("nan")
        m2 = float(vals[win2].mean()) if win2.any() else float("nan")
        if m1 == 0.0:
            drift[name] = 0.0 if m2 == 0.0 else float("inf")
        else:
            drift[name] = abs(m2 - m1) / abs(m1)

    y_slope = None
    if logy is not None:
        pts = [(t, ly) for t, ly in logy if t >= half]
        if len(pts) >= 2:
            tt = np.array([p[0] for p in pts])
            yy = np.array([p[1] for p in pts])
            y_slope = float(np.polyfit(tt, yy, 1)[0])

    return {
        "n_samples": len(series),
        "t_final": t_end,
        "ratios": ratios,
        "y_slope": y_slope,
        "energy_margin": margin,
        "plateau": plateaus,
        "extremum_drift": drift,
    }
