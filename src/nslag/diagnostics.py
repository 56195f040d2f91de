"""Observables: energy and dissipation, norms, entropy bands, reconstruction.

Everything here evaluates or accumulates the quantities whose boundedness
and decay the run reports check: the entropy-energy functional and its
dissipation, field extrema and norms, positive-part maxima, running time
integrals, unit-interval averages against the entropy band, and the probe
machinery that reconstructs v from the wall-stress exponential.

The functions a run calls every step or sample write their temporaries in
place, sum with np.add.reduce, the array method's reduction without its
Python wrapper, and take each extremum by argmin or argmax, as
nslag.stepper's docstring says; each keeps the operations and their order
of the formula it states, so the floats are those of the formula.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import ConfigError
from .model import cell_stress, face_conductance


# positive-part threshold for the (theta - 3/2)_+^2 monitor
POSPART_THRESHOLD = 1.5

MIN_SAMPLES = 10   # for decay_report; harness._set_up enforces it
MAX_SAMPLES = 10 ** 6   # most samples a run may take, one series row each


@dataclass(frozen=True)
class JensenBand:
    """Roots alpha1 <= 1 <= alpha2 of y - ln y - 1 = e0."""

    e0: float
    alpha1: float
    alpha2: float


def energy_functional(s, grid, params):
    """Entropy energy: sum_i dm_i*u_i^2/2 + sum_j h_j*(R*(v - ln v - 1) + cv*(theta - ln theta - 1)).

    The kinetic term weighs each face velocity by its control mass dm_i,
    as the velocity rows of the step do.  Zero exactly at (1, 0, 1); the
    R weight on the volume term makes d/dt E = -V an identity of the
    continuum system for any R.
    """
    kin = grid.dm * s.u
    kin *= s.u
    ent_v = s.v - np.log(s.v) - 1.0
    ent_th = s.theta - np.log(s.theta) - 1.0
    total = params.R * ent_v + params.cv * ent_th
    total *= grid.dx
    return 0.5 * float(kin.sum()) + float(total.sum())


def dissipation_functional(s, grid, params):
    """Dissipation: sum_j h_j*mu*u_x^2/(v*theta) + sum_i c_i*(theta_i - theta_{i-1})^2/(theta_{i-1}*theta_i).

    The face sum runs over the interior faces i = 1..N-1, and c is the
    step's conduction coefficient: face_conductance of the numerator and
    the face denominator on the grid's center distances that the step
    which made the state kept on it (s.conduction_numerator,
    s.face_denominator).  u_x is the state's strain rate, s.strain.
    """
    h = grid.dx
    v, th = s.v, s.theta
    ux = s.strain(h)
    # cell = mu*ux*ux/(v*th) and face = c*dth*dth/(th_left*th_right)
    cell = params.mu * ux
    cell *= ux
    cell /= v * th
    cell *= h
    face = face_conductance(s.conduction_numerator(params),
                            s.face_denominator(grid.dc))[1:-1]
    dth = np.subtract(th[1:], th[:-1])
    face *= dth
    face *= dth
    face /= np.multiply(th[:-1], th[1:], out=dth)
    return float(np.add.reduce(cell)) + float(np.add.reduce(face))


def _trapezoid(cum, dt, before, after):
    # one trapezoid step of a running time integral
    return cum + 0.5 * dt * (before + after)


def _norm2(weights, x):
    # weighted discrete L2 norm sqrt(sum(w * x^2))
    wx2 = weights * x
    wx2 *= x
    return math.sqrt(float(np.add.reduce(wx2)))


def _pospart(theta, threshold):
    # max over cells of (theta - threshold)_+^2; the map is monotone in
    # theta, and so is each rounding, so the hottest cell gives it exactly
    pos = max(float(theta[theta.argmax()]) - threshold, 0.0)
    return pos * pos


def running_integrals(s, grid, params, prev=None):
    """Series columns t, V, g2_ux and pospart at the state's time, and
    cumV, cum_ux2 and cum_pospart, the trapezoid integrals of V, g2_ux^2
    and pospart: zero without prev, else advanced from prev, these
    columns at an earlier state.

    The only place the time integrals advance: a run calls it every step.
    V is the dissipation, g2_ux the L2 norm of u_x and pospart the
    positive-part maximum; they share one u_x, the state's strain rate.
    """
    ux = s.strain(grid.dx)
    v = dissipation_functional(s, grid, params)
    g2_ux = _norm2(grid.dx, ux)
    pospart = _pospart(s.theta, POSPART_THRESHOLD)
    if prev is None:
        cum_v = cum_ux2 = cum_pospart = 0.0
    else:
        dt = s.t - prev["t"]
        cum_v = _trapezoid(prev["cumV"], dt, prev["V"], v)
        cum_ux2 = _trapezoid(prev["cum_ux2"], dt, prev["g2_ux"] ** 2,
                             g2_ux ** 2)
        cum_pospart = _trapezoid(prev["cum_pospart"], dt, prev["pospart"],
                                 pospart)
    return {"t": s.t, "V": v, "g2_ux": g2_ux, "pospart": pospart,
            "cumV": cum_v, "cum_ux2": cum_ux2, "cum_pospart": cum_pospart}


def sample_energy(s, grid, params):
    """Series column E, the entropy energy, at the state's time."""
    return {"E": energy_functional(s, grid, params)}


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
    steep.  e0 = 0 returns the double root (1, 1).  A level that is not
    nonnegative, or whose lower root lies below the normal float range (e0
    above about 707), is a ConfigError naming the level.
    """
    e0 = float(e0)
    if not e0 >= 0.0:
        raise ConfigError(f"entropy level must be nonnegative, got {e0}")
    if e0 == 0.0:
        return JensenBand(0.0, 1.0, 1.0)

    def f(y):
        return y - math.log(y) - 1.0 - e0

    lo = 0.5
    while f(lo) <= 0.0:
        lo *= 0.5
        if lo < sys.float_info.min:
            raise ConfigError(f"entropy level {e0} puts the lower root "
                              f"below the normal float range")
    # the last halving brackets the root: f(lo) > 0 >= f(2 lo)
    alpha1 = _bisect(f, lo, min(2.0 * lo, 1.0))
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
    """Averages of v and theta over unit mass intervals, an (n, 2) array.

    The resolved zone gives one row per whole interval [i, i+1) inside
    (0, length), which requires the cell size to divide the unit interval;
    each unit interval of the far zone, if any, gives one more row.
    """
    k = grid.unit_cells
    n_int = grid.n_resolved // k
    m = n_int * k
    starts, counts = grid.far_windows
    out = np.empty((n_int + counts.size, 2))
    # window sums, then one division by k: what mean(axis=1) does
    np.add.reduce(s.v[:m].reshape(n_int, k), axis=1, out=out[:n_int, 0])
    np.add.reduce(s.theta[:m].reshape(n_int, k), axis=1, out=out[:n_int, 1])
    out[:n_int] /= k
    np.divide(np.add.reduceat(s.v, starts), counts, out=out[n_int:, 0])
    np.divide(np.add.reduceat(s.theta, starts), counts,
              out=out[n_int:, 1])
    return out


# Y decays like e^{-R t} and I grows like e^{R t}: once Y falls below
# 2^-512, both are rescaled by that exact power of two
_RESCALE_BITS = 512
PROBE_POINTS = 5   # sample points of the probe, equally spaced in [i, i+1]


@dataclass
class ReprProbe:
    """Reconstruction probe over one unit mass interval [i, i+1].

    Carries the wall-of-interval stress exponential Y, the accumulated
    time integral I per probe point, and the spatial factor D recomputed
    from the current state.  The true values are Y * 2^Y_exp and
    I * 2^-Y_exp, which keeps both in range at any horizon.  seg is the
    face range from mass i to the face right of the last probe cell, u0
    the initial velocity on it, jrel each probe cell's offset in it.
    sigma and theta are the face stress and probe-cell temperatures of
    the state the probe last reached.  logY_t and logY are float columns
    of (t, ln Y), one value per update.
    """

    cells: np.ndarray
    v0: np.ndarray
    u0: np.ndarray
    D: np.ndarray
    Y: float
    I: np.ndarray
    logY_t: array
    logY: array
    seg: slice
    jrel: tuple
    sigma: float
    theta: np.ndarray
    Y_exp: int = 0


def make_repr_probe(s0, grid, params, i):
    """Probe over [i, i+1] at PROBE_POINTS interior sample points.

    The interval must lie one mass unit inside (0, length), where cells
    are uniform, as harness._set_up checks before a run; the cell size
    must divide the unit interval.
    """
    i = int(i)
    fi = i * grid.unit_cells
    xs = i + (np.arange(PROBE_POINTS) + 0.5) / PROBE_POINTS
    cells = (xs / grid.h).astype(int)
    v0 = s0.v[cells].copy()
    seg = slice(fi, int(cells[-1]) + 2)
    return ReprProbe(cells=cells, v0=v0, u0=s0.u[seg].copy(),
                     D=v0.copy(), Y=1.0, I=np.zeros(PROBE_POINTS),
                     logY_t=array("d", [s0.t]), logY=array("d", [0.0]),
                     seg=seg, jrel=tuple((cells - fi).tolist()),
                     sigma=_sigma_at_face(s0, fi, grid.h, params),
                     theta=s0.theta[cells])


def _sigma_at_face(s, fi, h, params):
    # face value of the cell stress: mean of the two adjacent cells, in
    # Python floats (array slices cost more than the arithmetic here)
    ul, um, ur = s.u[fi - 1:fi + 2].tolist()
    thl, thr = s.theta[fi - 1:fi + 1].tolist()
    vl, vr = s.v[fi - 1:fi + 1].tolist()
    return 0.5 * (cell_stress((um - ul) / h, thl, vl, params)
                  + cell_stress((ur - um) / h, thr, vr, params))


def _probe_d(p, s, grid):
    # D(x, t) = v0(x) * exp(int_i^x (u - u0) dy), trapezoid over faces plus
    # a half-cell tail from the last face to the cell center; the few
    # values are summed in order in Python floats, as cumsum sums them
    h = grid.h
    w = (s.u[p.seg] - p.u0).tolist()
    cum = [0.0, *accumulate([0.5 * h * (a + b) for a, b in zip(w, w[1:])])]
    qh = 0.25 * h
    return p.v0 * np.exp([cum[j] + qh * (1.5 * w[j] + 0.5 * w[j + 1])
                          for j in p.jrel])


def update_repr_probe(p, s, dt, grid, params):
    """Advance the probe from the state it last reached to s, dt later;
    mutates and returns p.

    Y picks up exp(dt * sigma_mid) with the stress averaged over the
    step's two states.  The integral of theta/(D Y) treats theta/D as constant
    over the step and Y as the exact exponential of sigma_mid, which keeps
    the rest-state reconstruction exact up to roundoff.
    """
    sigma = _sigma_at_face(s, p.seg.start, grid.h, params)
    theta = s.theta[p.cells]
    s_mid = 0.5 * (p.sigma + sigma)
    d_new = _probe_d(p, s, grid)
    th_mid = 0.5 * (p.theta + theta)
    d_mid = 0.5 * (p.D + d_new)
    if s_mid == 0.0:
        growth = dt
    else:
        growth = -math.expm1(-s_mid * dt) / s_mid
    p.I += th_mid / d_mid * (growth / p.Y)
    p.Y *= math.exp(s_mid * dt)
    if p.Y < math.ldexp(1.0, -_RESCALE_BITS):
        p.Y = math.ldexp(p.Y, _RESCALE_BITS)
        p.I = np.ldexp(p.I, -_RESCALE_BITS)
        p.Y_exp -= _RESCALE_BITS
    p.D = d_new
    p.logY_t.append(s.t)
    p.logY.append(math.log(p.Y) + p.Y_exp * math.log(2.0))
    p.sigma, p.theta = sigma, theta
    return p


def reconstruct_v(p, s, params):
    """Series columns Y_probe, the true Y, and repr_relerr, the worst
    relative error of v reconstructed at the probe points.

    v_rec = D * Y * (1 + R * I) in true values; the probe must have been
    updated through the state's time (D is taken from the last update).
    """
    v_rec = p.D * p.Y * (math.ldexp(1.0, p.Y_exp) + params.R * p.I)
    v_act = s.v[p.cells]
    err = np.abs(v_rec - v_act)
    err /= v_act
    return {"Y_probe": math.ldexp(p.Y, p.Y_exp),
            "repr_relerr": float(err[err.argmax()])}


def sample_bounds(s, grid):
    """Series columns of the extrema, norms and gradient norms, g2_ux
    aside, and farfield_dev, at the state's time.

    Gradient norms use one-sided differences at their natural stagger:
    v_x and theta_x on interior faces, u_x on cells; cells weigh h_j and
    faces their control mass m_i (the u norm's weights form the trapezoid
    rule).  The far-field deviation covers the cells whose right face lies
    past 0.9*far_length (and the faces spanning them): the outer tenth.
    """
    h = grid.dx
    wface = grid.dm
    mi = wface[1:-1]
    v, th, u = s.v, s.theta, s.u
    dvx = np.subtract(v[1:], v[:-1])
    dvx /= mi
    dthx = np.subtract(th[1:], th[:-1])
    dthx /= mi
    vm1 = v - 1.0
    thm1 = th - 1.0
    # one absolute value per field serves its inf-norm and the far field
    avm1, athm1, au = np.abs(vm1), np.abs(thm1), np.abs(u)
    j = grid.farfield_start
    far = avm1[j:], athm1[j:], au[j:]
    return {
        "vmin": float(v[v.argmin()]), "vmax": float(v[v.argmax()]),
        "thmin": float(th[th.argmin()]), "thmax": float(th[th.argmax()]),
        "n2_vm1": _norm2(h, vm1), "n2_u": _norm2(wface, u),
        "n2_thm1": _norm2(h, thm1),
        "ninf_vm1": float(avm1[avm1.argmax()]),
        "ninf_u": float(au[au.argmax()]),
        "ninf_thm1": float(athm1[athm1.argmax()]),
        "g2_vx": _norm2(mi, dvx), "g2_thx": _norm2(mi, dthx),
        "farfield_dev": max(float(x[x.argmax()]) for x in far),
    }


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


def decay_report(series, logy):
    """Long-time summary of a sampled trajectory.

    series maps series column names to float columns, logy is the columns
    (t, ln Y).  The samples span [0, T], at least MIN_SAMPLES of them, as
    harness._set_up enforces before a run, so at least two probe times lie
    in the second half and each window below holds a sample.  Reports
    final/initial norm ratios, the least-squares slope of ln Y over the
    second half, the worst energy inequality margin max_t (E + cumV - E(0)),
    the fraction of each running integral accumulated after half time, and
    the relative drift of each extremum between the window means over
    [T/4, T/2] and [T/2, T]; the extrema are positive, as the stepper keeps
    v and theta.  The slope is the centered sum
    sum((t - mean t)(ln Y - mean ln Y)) / sum((t - mean t)^2), which calls
    neither LAPACK nor BLAS: a least-squares solver would add about 1 MB to
    a run's peak memory for a two-parameter fit.
    """
    ts = np.asarray(series["t"])
    t_end = float(ts[-1])

    ratios = {name: _ratio(series[name][0], series[name][-1])
              for name in _NORM_FIELDS}

    e0 = series["E"][0]
    margin = max(e + cum - e0 for e, cum in zip(series["E"], series["cumV"]))
    half = 0.5 * t_end

    def plateau(name):
        # totals below the floor are rounding residue, not accumulation
        values = np.asarray(series[name])
        total = values[-1]
        if total <= 1e-20:
            return 0.0
        at_half = float(np.interp(half, ts, values))
        return (total - at_half) / total

    plateaus = {name: plateau(name)
                for name in ("cumV", "cum_ux2", "cum_pospart")}

    quarter = 0.25 * t_end
    win1 = (ts >= quarter) & (ts <= half)
    win2 = ts >= half
    drift = {}
    for name in ("vmin", "vmax", "thmin", "thmax"):
        vals = np.asarray(series[name])
        m1 = float(vals[win1].mean())
        drift[name] = abs(float(vals[win2].mean()) - m1) / abs(m1)

    tt, yy = (np.asarray(col) for col in logy)
    late = tt >= half
    tt, yy = tt[late], yy[late]
    dt = tt - np.add.reduce(tt) / tt.size
    dy = yy - np.add.reduce(yy) / yy.size
    y_slope = float(np.add.reduce(dt * dy) / np.add.reduce(dt * dt))

    return {
        "n_samples": len(ts),
        "t_final": t_end,
        "ratios": ratios,
        "y_slope": y_slope,
        "energy_margin": margin,
        "plateau": plateaus,
        "extremum_drift": drift,
    }
