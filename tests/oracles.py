"""Independent reference routes for the numerical kernels.

Everything here is deliberately written without the package's vectorized
code paths: dense elimination instead of banded solves, plain loops with
compensated summation instead of numpy reductions, mpmath bisection at
50 digits instead of float bisection, sympy differentiation instead of
hand-derived source formulas.  Tests compare the package against these.
"""

import math
import sys
from dataclasses import replace

import mpmath as mp
import numpy as np


def dense_solve(lower, diag, upper, rhs):
    """Gaussian elimination with partial pivoting on the dense matrix.

    Row k reads lower[k], diag[k] and upper[k] as its entries in columns
    k - 1, k and k + 1, so lower[0] and upper[-1] are unused and all three
    bands have length n.
    """
    n = len(diag)
    a = [[0.0] * n for _ in range(n)]
    b = [float(r) for r in rhs]
    for k in range(n):
        a[k][k] = float(diag[k])
        if k > 0:
            a[k][k - 1] = float(lower[k])
        if k < n - 1:
            a[k][k + 1] = float(upper[k])
    for col in range(n - 1):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
        for row in range(col + 1, n):
            if a[row][col] == 0.0:
                continue
            m = a[row][col] / a[col][col]
            for j in range(col, n):
                a[row][j] -= m * a[col][j]
            b[row] -= m * b[col]
    x = [0.0] * n
    for row in range(n - 1, -1, -1):
        acc = b[row]
        for j in range(row + 1, n):
            acc -= a[row][j] * x[j]
        x[row] = acc / a[row][row]
    return np.array(x)


def _largest(values):
    # the largest of values, a NaN if any is one
    out = -math.inf
    for a in values:
        if math.isnan(a):
            return math.nan
        out = a if a > out else out
    return out


def normwise_residual_accepts(diag, off, rhs, x):
    """The residual guard's verdict on x for the symmetric tridiagonal
    system (diag, off, rhs): True iff max|res| <= 1e-12*(max|rhs| +
    2*max(diag)*max|x|) plus the smallest normal float, with no NaN
    anywhere and that bound finite.  Row k's residual is summed in the
    guard's order: diag[k]*x[k] - rhs[k], then off[k]*x[k+1], then
    off[k-1]*x[k-1]."""
    n = len(diag)
    res = []
    for k in range(n):
        r = float(diag[k]) * float(x[k]) - float(rhs[k])
        if k < n - 1:
            r += float(off[k]) * float(x[k + 1])
        if k > 0:
            r += float(off[k - 1]) * float(x[k - 1])
        res.append(abs(r))
    bound = 1e-12 * (_largest(abs(float(b)) for b in rhs)
                     + 2.0 * _largest(float(d) for d in diag)
                     * _largest(abs(float(a)) for a in x))
    bound += sys.float_info.min
    return _largest(res) <= bound and math.isfinite(bound)


def dense_step(v, theta, u, h, dt, mu, kappa, beta, R, cv, forced=None):
    """One implicit-explicit step, each system solved by dense_solve.

    The rows are assembled one by one in the row-scaled form: a velocity
    row divided by its control mass over dt, a temperature row by cv*h_j
    over dt, the pinned far velocity kept as an identity row.  h holds the
    cell widths.  forced, for a verification step, holds the forcing (sv
    on cells at the old time, su on faces and sth on cells at the new
    time), which enters every row's load.  Returns (v1, u1, theta1).
    """
    f = forced or {}
    n = len(v)
    dm = [0.5 * h[0]] + [0.5 * (h[i - 1] + h[i]) for i in range(1, n)] \
        + [0.5 * h[n - 1]]
    v1 = [v[j] + dt * (u[j + 1] - u[j]) / h[j] for j in range(n)]
    if forced is not None:
        v1 = [v1[j] + dt * f["sv"][j] for j in range(n)]
    a = [mu / (h[j] * v1[j]) for j in range(n)]
    pe = [R * theta[j] / v1[j] for j in range(n)]

    lower, diag, upper, rhs = [0.0] * (n + 1), [1.0] * (n + 1), \
        [0.0] * (n + 1), [0.0] * (n + 1)
    for i in range(n):
        # the wall row's missing left neighbour is the outer pressure R
        r = dt / dm[i]
        a_left, pe_left = (a[i - 1], pe[i - 1]) if i > 0 else (0.0, R)
        lower[i], upper[i] = -r * a_left, -r * a[i]
        diag[i] = 1.0 + r * (a_left + a[i])
        rhs[i] = u[i] - r * (pe[i] - pe_left)
        if forced is not None:
            rhs[i] += dt * f["su"][i]
    u1 = dense_solve(lower, diag, upper, rhs)

    cond = [0.0] * (n + 1)
    for i in range(1, n + 1):
        # the far ghost holds (theta, v) = (1, 1)
        th_r, v_r, d = (theta[i], v1[i], 0.5 * (h[i - 1] + h[i])) if i < n \
            else (1.0, 1.0, h[n - 1])
        cond[i] = (kappa * 0.5 * (theta[i - 1] ** beta + th_r ** beta)
                   / (d * 0.5 * (v1[i - 1] + v_r)))
    lower, diag, upper, rhs = [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n
    for j in range(n):
        r = dt / (cv * h[j])
        ux = (u1[j + 1] - u1[j]) / h[j]
        lower[j] = -r * cond[j]
        upper[j] = -r * cond[j + 1]
        diag[j] = 1.0 + r * (cond[j] + cond[j + 1])
        rhs[j] = theta[j] + dt * (-R * theta[j] * ux + mu * ux * ux) \
            / (v1[j] * cv)
        if forced is not None:
            rhs[j] += dt * f["sth"][j]
    rhs[n - 1] += dt / (cv * h[n - 1]) * cond[n]
    return np.array(v1), u1, dense_solve(lower, diag, upper, rhs)


def copy_state(s):
    """A copy of the state s that shares no array with it and keeps none
    of its derived arrays: no strain rate, face denominator or conduction
    numerator."""
    return replace(s, v=s.v.copy(), theta=s.theta.copy(), u=s.u.copy(),
                   ux=None, den=None)


def admissible(s):
    """True when every entry of the state is finite, v and theta are
    positive and the far-field velocity u[N] is pinned to zero."""
    return (all(np.isfinite(a).all() for a in (s.v, s.theta, s.u))
            and s.v.min() > 0.0 and s.theta.min() > 0.0 and s.u[-1] == 0.0)


def fsum_energy(v, theta, u, h, R, cv):
    """Entropy energy: the face velocities weighed by their control masses
    (h_{i-1} + h_i)/2, half a cell at either end, plus the cells' entropy
    terms.  h holds the cell widths."""
    n = len(v)
    terms = []
    for i in range(n, -1, -1):
        dm = 0.5 * ((h[i - 1] if i > 0 else 0.0) + (h[i] if i < n else 0.0))
        terms.append(0.5 * dm * u[i] * u[i])
    for j in range(n - 1, -1, -1):
        terms.append(h[j] * (R * (v[j] - math.log(v[j]) - 1.0)
                             + cv * (theta[j] - math.log(theta[j]) - 1.0)))
    return math.fsum(terms)


def fsum_dissipation(v, theta, u, h, mu, kappa, beta):
    """Viscous cell terms plus, on each interior face, its conductance
    kappa*mean(theta^beta)/(d*mean(v)), d the distance between the two
    centers, times (theta_i - theta_{i-1})^2/(theta_{i-1}*theta_i).  h
    holds the cell widths."""
    n = len(v)
    terms = []
    for j in range(n - 1, -1, -1):
        ux = (u[j + 1] - u[j]) / h[j]
        terms.append(h[j] * mu * ux * ux / (v[j] * theta[j]))
    for i in range(n - 1, 0, -1):
        d = 0.5 * (h[i - 1] + h[i])
        c = kappa * 0.5 * (theta[i - 1] ** beta + theta[i] ** beta) \
            / (d * 0.5 * (v[i - 1] + v[i]))
        dth = theta[i] - theta[i - 1]
        terms.append(c * dth * dth / (theta[i - 1] * theta[i]))
    return math.fsum(terms)


def fsum_bounds(v, theta, u, h, pos_threshold=1.5):
    """Instantaneous norm fields of a state, loop-and-fsum route."""
    n = len(v)
    out = {
        "vmin": min(v), "vmax": max(v),
        "thmin": min(theta), "thmax": max(theta),
        "ninf_vm1": max(abs(x - 1.0) for x in v),
        "ninf_u": max(abs(x) for x in u),
        "ninf_thm1": max(abs(x - 1.0) for x in theta),
    }
    out["n2_vm1"] = math.sqrt(math.fsum(
        h * (v[j] - 1.0) ** 2 for j in range(n - 1, -1, -1)))
    out["n2_thm1"] = math.sqrt(math.fsum(
        h * (theta[j] - 1.0) ** 2 for j in range(n - 1, -1, -1)))
    wu = [h] * (n + 1)
    wu[0] = wu[-1] = 0.5 * h
    out["n2_u"] = math.sqrt(math.fsum(
        wu[i] * u[i] * u[i] for i in range(n, -1, -1)))
    out["g2_vx"] = math.sqrt(math.fsum(
        ((v[i] - v[i - 1]) / h) ** 2 * h for i in range(n - 1, 0, -1)))
    out["g2_thx"] = math.sqrt(math.fsum(
        ((theta[i] - theta[i - 1]) / h) ** 2 * h for i in range(n - 1, 0, -1)))
    out["g2_ux"] = math.sqrt(math.fsum(
        ((u[j + 1] - u[j]) / h) ** 2 * h for j in range(n - 1, -1, -1)))
    out["pospart"] = max(max(t - pos_threshold, 0.0) ** 2 for t in theta)
    m = -(-n // 10)
    devs = [abs(v[j] - 1.0) for j in range(n - m, n)]
    devs += [abs(theta[j] - 1.0) for j in range(n - m, n)]
    devs += [abs(u[i]) for i in range(n - m, n + 1)]
    out["farfield_dev"] = max(devs)
    return out


def first_extrema(v, theta, u, faces):
    """Extrema of the fields and of their distances from the rest state,
    from plain loops over Python floats: the first extremal entry, as
    Python's min and max give it.  The far-field deviation covers the
    cells whose right face lies past 0.9 times the last face, by more than
    rounding, and the faces from the first of them on.  faces holds the
    face coordinates."""
    v, theta, u = v.tolist(), theta.tolist(), u.tolist()
    cut = faces[-1] * (0.9 + 1e-9)
    j = next(k for k in range(len(v)) if faces[k + 1] > cut)
    dev_v = [abs(x - 1.0) for x in v]
    dev_th = [abs(x - 1.0) for x in theta]
    dev_u = [abs(x) for x in u]
    return {"vmin": min(v), "vmax": max(v),
            "thmin": min(theta), "thmax": max(theta),
            "ninf_vm1": max(dev_v), "ninf_u": max(dev_u),
            "ninf_thm1": max(dev_th),
            "farfield_dev": max(dev_v[j:] + dev_th[j:] + dev_u[j:])}


def mp_entropy_roots(e0, dps=50):
    """Both roots of y - ln y - 1 = e0 at high precision, as floats."""
    with mp.workdps(dps):
        e0 = mp.mpf(e0)
        if e0 == 0:
            return 1.0, 1.0
        f = lambda y: y - mp.log(y) - 1 - e0
        lo = mp.mpf("0.5")
        while f(lo) <= 0:
            lo /= 2
        a1 = mp.findroot(f, (lo, mp.mpf(1)), solver="bisect",
                         tol=mp.mpf(10) ** (-dps + 5))
        hi = mp.mpf(2)
        while f(hi) <= 0:
            hi *= 2
        a2 = mp.findroot(f, (mp.mpf(1), hi), solver="bisect",
                         tol=mp.mpf(10) ** (-dps + 5))
        return float(a1), float(a2)


def sympy_mms_sources(xv, tv, amp, length, mu, kappa, beta, R, cv):
    """Forcing terms derived symbolically from the manufactured fields."""
    import sympy as sp

    x, t = sp.symbols("x t", real=True)
    a = sp.Rational(amp).limit_denominator(10 ** 12)
    L = sp.Rational(length).limit_denominator(10 ** 12)
    q = (1 + sp.cos(sp.pi * x / L)) / 2
    v = 1 + a * sp.exp(-t) * q ** 4
    u = a * sp.exp(-t) * sp.sin(sp.pi * x / L) ** 2
    th = 1 + a * sp.exp(-t) * q ** 2

    P = R * th / v
    kap = kappa * th ** beta
    sv = sp.diff(v, t) - sp.diff(u, x)
    su = sp.diff(u, t) + sp.diff(P, x) - mu * sp.diff(sp.diff(u, x) / v, x)
    sth = sp.diff(th, t) - (-R * th * sp.diff(u, x) / v
                            + sp.diff(kap * sp.diff(th, x) / v, x)
                            + mu * sp.diff(u, x) ** 2 / v) / cv
    pt = {x: sp.Float(xv, 30), t: sp.Float(tv, 30)}
    return (float(sp.N(sv.subs(pt), 30)),
            float(sp.N(su.subs(pt), 30)),
            float(sp.N(sth.subs(pt), 30)))


def reference_state():
    """Deterministic trig state used for the frozen-value comparisons."""
    n, length = 16, 8.0
    h = length / n
    xc = (np.arange(n) + 0.5) * h
    xf = np.arange(n + 1) * h
    v = 1.0 + 0.3 * np.sin(xc)
    theta = 1.1 + 0.2 * np.cos(xc)
    u = 0.25 * np.sin(3.0 * xf)
    u[-1] = 0.0
    return v, theta, u, h, length, n
