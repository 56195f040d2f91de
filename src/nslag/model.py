"""Discrete operator pieces shared by the stepper and the diagnostics.

Index conventions (0-based): cell j of width h_j sits between faces j and
j+1, so the strain rate of cell j is (u[j+1] - u[j])/h_j and interior face
i separates cells i-1 and i.  The wall face 0 carries the prescribed
stress -R (the outer pressure equals R) and zero heat flux; face N is
closed with the far-field ghost state (1, 1) for (v, theta) and a pinned
velocity u[N] = 0.  Also the manufactured solution, which meets these
closures, and the forcing that verification runs add.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def strain_rate(u, h):
    """Cell strain rates (u[j+1] - u[j])/h_j from face velocities."""
    return (u[1:] - u[:-1]) / h


def conduction_numerator(theta, params):
    """kappa*(theta**beta) summed over the two cells beside faces 1..N.

    Face N pairs the last cell with the far-field ghost, theta = 1.  Twice
    the mean conductivity, face_conductance's numerator; core.State keeps
    it per state (State.conduction_numerator), for the dissipation of that
    state and the temperature rows of the step from it.
    """
    thb = theta ** params.beta
    num = np.empty(theta.size)
    np.add(thb[:-1], thb[1:], out=num[:-1])
    num[-1] = thb[-1] + 1.0
    num *= params.kappa
    return num


def face_denominator(v, d):
    """d*(v_left + v_right) on faces 1..N, face_conductance's denominator.

    d is the center distance across each face: the scalar h of a uniform
    grid, or the grid's dc.  Face N pairs the last cell with the far
    ghost, v = 1.  The step makes it once per try for the new volume, for
    its temperature rows, and keeps it on the new state (core.State.den)
    for that state's dissipation.
    """
    den = np.empty(v.size)
    np.add(v[:-1], v[1:], out=den[:-1])
    den[-1] = v[-1] + 1.0
    den *= d
    return den


def face_conductance(num, den):
    """Conduction coefficients kappa*mean(theta**beta)/(d*mean(v)) on faces 0..N.

    num is conduction_numerator of theta and den face_denominator of v;
    the means' halves cancel exactly, scaling by 1/2 being exact.  Interior
    face i averages the two adjacent cells.  The wall face 0 stays
    adiabatic (conductance 0).  Face N pairs the last cell with a ghost
    cell one width beyond its center that holds the far-field values
    (1, 1).  The heat flux through a face is its conductance times the
    temperature jump.  The step's temperature rows and the dissipation D
    (diagnostics.dissipation_functional) both read these coefficients.
    """
    cond = np.empty(num.size + 1)
    cond[0] = 0.0
    np.divide(num, den, out=cond[1:])
    return cond


def cell_stress(ux, theta, v, params):
    """Total stress (mu*u_x - R*theta)/v of a cell, elementwise."""
    return (params.mu * ux - params.R * theta) / v


@dataclass(frozen=True)
class MmsProfile:
    """Manufactured solution: a decaying smooth perturbation of (1, 0, 1).

    With q = (1 + cos(pi x / L))/2:
    v = 1 + a e^-t q^4,  u = a e^-t sin^2(pi x/L),  theta = 1 + a e^-t q^2

    It meets the production closures: at x = 0, u_x = 0 and theta = v, so
    the wall stress is -R, and theta_x = 0; at x = L, u = 0, and theta - 1
    and v - 1 vanish to fourth and eighth order, so the far ghost (1, 1)
    is exact to O(h^4).
    """

    amp: float = 0.1
    length: float = 20.0

    def _q(self, x):
        return 0.5 * (1.0 + np.cos(np.pi * np.asarray(x) / self.length))

    def v_exact(self, x, t):
        return 1.0 + self.amp * math.exp(-t) * self._q(x) ** 4

    def u_exact(self, x, t):
        return self.amp * math.exp(-t) * np.sin(np.pi * np.asarray(x) / self.length) ** 2

    def theta_exact(self, x, t):
        return 1.0 + self.amp * math.exp(-t) * self._q(x) ** 2


def _factors(x, prof):
    # the profile's time-independent factors at x, in the order mms_source
    # unpacks them; with e = a e^{-t}: v - 1 = e q4, theta - 1 = e q2,
    # u = e s2, u_x = e ux, u_xx = e uxx, v_x = -e vx, theta_x = -e thx,
    # theta_xx = e thxx, and v_t - u_x = -e sv
    k = math.pi / prof.length
    kx = k * np.asarray(x, dtype=float)
    c, s = np.cos(kx), np.sin(kx)
    q = 0.5 * (1.0 + c)
    q2, s2, ux = q * q, s * s, 2.0 * k * s * c
    vx, thx = 2.0 * k * q2 * q * s, k * q * s
    return (q2, q2 * q2, s2, q2 * q2 + ux, ux, vx, thx,
            2.0 * k * k * (c * c - s2), k * k * (0.5 * s2 - q * c),
            ux * vx, thx * thx, thx * vx, ux * ux)


@lru_cache(maxsize=8)
def mms_tables(grid, prof):
    """Read-only factor tables of prof at the grid's centers and faces,
    made once per value of the frozen, hashable grid and profile."""
    tables = _factors(grid.centers(), prof), _factors(grid.faces(), prof)
    for arr in tables[0] + tables[1]:
        arr.flags.writeable = False
    return tables


def mms_source(factors, t, prof, params, term):
    """Forcing that makes the manufactured profile an exact solution.

    Returns term 0, 1 or 2 of (Sv, Su, Stheta) at the points whose
    factors, _factors(x, prof) or an mms_tables entry, are given: the time
    derivative of that exact field minus the continuous operator applied
    to the exact fields, Stheta divided by cv.
    """
    q2, q4, s2, sv, ux, vx, thx, uxx, thxx, uxvx, thx2, thxvx, ux2 = factors
    e = prof.amp * math.exp(-t)
    if term == 0:
        return sv * -e
    mu, gas_r, beta = params.mu, params.R, params.beta
    v, th = e * q4 + 1.0, e * q2 + 1.0
    if term == 1:   # u_t + (R theta/v)_x - (mu u_x/v)_x
        return e * ((gas_r * (th * vx - thx * v) - mu * (uxx * v + e * uxvx))
                    / (v * v) - s2)
    # theta_t - (-R theta u_x/v + (kappa theta^beta theta_x/v)_x
    # + mu u_x^2/v)/cv, the flux term as v/e times its derivative
    flux = params.kappa * th ** (beta - 1.0) \
        * (th * thxx + beta * e * thx2 - e * th * thxvx / v)
    return -e * ((flux + mu * e * ux2 - gas_r * th * ux) / (params.cv * v)
                 + q2)
