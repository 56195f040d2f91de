"""Discrete operator pieces shared by the stepper and the diagnostics.

Index conventions (0-based): cell j of width h_j sits between faces j and
j+1, so the strain rate of cell j is (u[j+1] - u[j])/h_j and interior face
i separates cells i-1 and i.  The wall face 0 carries the prescribed
stress -R (the outer pressure equals R) and zero heat flux; face N is
closed with the far-field ghost state (1, 1) for (v, theta) and a pinned
velocity u[N] = 0.  Also the manufactured solution and its forcing for
verification runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def strain_rate(u, h):
    """Cell strain rates (u[j+1] - u[j])/h_j from face velocities."""
    return (u[1:] - u[:-1]) / h


def face_conductance(theta, v, params, d, theta_ghost=1.0, v_ghost=1.0):
    """Conduction coefficients kappa*mean(theta**beta)/(d*mean(v)) on faces 0..N.

    d is the distance between the centers on either side of faces 1..N:
    one scalar, the width h of a uniform grid, or one per face, the grid's
    dc.  Interior face i averages the two adjacent cells.  The wall face 0
    stays adiabatic (conductance 0).  Face N pairs the last cell with a
    ghost cell one width beyond its center; physically the ghost holds the
    far-field values (1, 1), verification runs override them.  The heat
    flux through a face is its conductance times the temperature jump.
    """
    kt, beta = params.kappa, params.beta
    n = theta.size
    thb = theta ** beta
    cond = np.empty(n + 1)
    cond[0] = 0.0
    num = cond[1:]
    np.add(thb[:-1], thb[1:], out=num[:-1])
    num[-1] = thb[-1] + theta_ghost ** beta
    num *= kt
    den = np.empty(n)
    np.add(v[:-1], v[1:], out=den[:-1])
    den[-1] = v[-1] + v_ghost
    den *= d
    num /= den   # the means' halves cancel exactly: scaling by 1/2 is exact
    return cond


def cell_stress(ux, theta, v, params):
    """Total stress (mu*u_x - R*theta)/v of a cell, elementwise."""
    return (params.mu * ux - params.R * theta) / v


@dataclass(frozen=True)
class MmsProfile:
    """Manufactured solution: a decaying smooth perturbation of (1, 0, 1).

    v = 1 + a e^{-t} cos(pi x / L)
    u =     a e^{-t} sin(pi x / L)
    theta = 1 + a e^{-t} cos(2 pi x / L)

    u vanishes at x = 0 and x = L and theta_x vanishes at x = 0, so the
    verification boundary closures reduce to exact Dirichlet traces plus an
    exact far ghost for the heat flux.
    """

    amp: float = 0.1
    length: float = 20.0

    def v_exact(self, x, t):
        return 1.0 + self.amp * math.exp(-t) * np.cos(np.pi * np.asarray(x) / self.length)

    def u_exact(self, x, t):
        return self.amp * math.exp(-t) * np.sin(np.pi * np.asarray(x) / self.length)

    def theta_exact(self, x, t):
        return 1.0 + self.amp * math.exp(-t) * np.cos(2.0 * np.pi * np.asarray(x) / self.length)


def _trig(x, prof):
    # (cos, sin) of pi x/L, then of 2 pi x/L: what mms_source reads of x
    k1, k2 = math.pi / prof.length, 2.0 * math.pi / prof.length
    x = np.asarray(x, dtype=float)
    return np.cos(k1 * x), np.sin(k1 * x), np.cos(k2 * x), np.sin(k2 * x)


@lru_cache(maxsize=8)
def mms_tables(grid, prof):
    """Read-only trig tables of prof at the grid's centers and faces, made
    once per value of the frozen, hashable grid and profile."""
    tables = _trig(grid.centers(), prof), _trig(grid.faces(), prof)
    for arr in tables[0] + tables[1]:
        arr.flags.writeable = False
    return tables


def mms_source(trig, t, prof, params, term):
    """Forcing that makes the manufactured profile an exact solution.

    Returns term 0, 1 or 2 of (Sv, Su, Stheta) at the points whose trig
    values, _trig(x, prof) or an mms_tables entry, trig holds: the time
    derivative of that exact field minus the continuous operator applied
    to the exact fields, Stheta divided by cv.
    """
    c1, s1, c2, s2 = trig
    k1, k2 = math.pi / prof.length, 2.0 * math.pi / prof.length
    e = prof.amp * math.exp(-t)
    mu, kt, beta, gas_r, cv = params.mu, params.kappa, params.beta, params.R, params.cv

    u_x = e * k1 * c1
    if term == 0:
        return -e * c1 - u_x   # v_t - u_x
    v = 1.0 + e * c1
    v_x = -e * k1 * s1
    th = 1.0 + e * c2
    th_x = -e * k2 * s2
    if term == 1:
        u_xx = -e * k1 * k1 * s1
        u_t = -e * s1
        p_x = gas_r * (th_x * v - th * v_x) / (v * v)
        visc_x = mu * (u_xx * v - u_x * v_x) / (v * v)
        return u_t + p_x - visc_x
    th_xx = -e * k2 * k2 * c2
    th_t = -e * c2
    kap = kt * th ** beta
    kap_x = kt * beta * th ** (beta - 1.0) * th_x
    flux_x = (kap_x * th_x + kap * th_xx) / v - kap * th_x * v_x / (v * v)
    return th_t - (-gas_r * th * u_x / v + flux_x + mu * u_x * u_x / v) / cv
