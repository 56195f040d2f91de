import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslag.core import Grid, Params, State, build_grid, equilibrium_state
from nslag.model import MmsProfile, cell_stress, face_conductance, mms_source
from nslag.stepper import step_imex
from oracles import sympy_mms_sources

# frozen spot values of the forcing terms, derived symbolically
# (amp 0.1, length 20); keyed by (params set, x, t)
MMS_FROZEN = {
    ("default", 10.0, 0.0): (0.0,
                             -0.08339543195857359,
                             0.09111735603901958),
    ("default", 3.7, 0.25): (-0.07531748687479423,
                             -0.05680644901259745,
                             -0.018512868165545654),
    ("general", 10.0, 0.0): (0.0,
                             -0.08130821890042448,
                             0.09452256962059760),
    ("general", 3.7, 0.25): (-0.07531748687479423,
                             -0.06008114944215592,
                             -0.022927551997911750),
}
GENERAL = dict(mu=0.7, kappa=1.3, beta=2.5, R=1.2, cv=1.8)


def _stress(s, grid, params):
    return cell_stress((s.u[1:] - s.u[:-1]) / grid.h, s.theta, s.v, params)


def _heat_flux(s, grid, params, theta_ghost=1.0, v_ghost=1.0):
    # conductance times the temperature jump across each face
    cond = face_conductance(s.theta, s.v, params, grid.h, theta_ghost, v_ghost)
    jump = np.diff(np.concatenate(([s.theta[0]], s.theta, [theta_ghost])))
    return cond * jump


def test_pressure_values():
    """Without strain the cell stress is minus the pressure R*theta/v."""
    assert cell_stress(0.0, 1.0, 1.0, Params()) == -1.0
    assert cell_stress(0.0, 1.0, 2.0, Params()) == -0.5
    assert cell_stress(0.0, 2.0, 0.5, Params(R=2.0)) == -8.0


def _interior_conductance(theta, params):
    return face_conductance(np.full(2, theta), np.ones(2), params, 1.0)[1]


def test_conductivity_values():
    """Between equal cells the conductance is kappa*theta**beta/(h*v)."""
    assert _interior_conductance(1.0, Params(beta=3.7)) == 1.0
    assert _interior_conductance(4.0, Params(beta=0.5)) == 2.0


@given(theta=st.floats(1e-6, 1e6))
def test_conductivity_constant_when_exponent_zero(theta):
    assert _interior_conductance(theta, Params(beta=0.0, kappa=3.0)) == 3.0


def test_strain_and_stress_at_equilibrium():
    grid = build_grid(10.0, 8)
    params = Params()
    s = equilibrium_state(grid)
    assert np.all(s.u[1:] - s.u[:-1] == 0.0)
    np.testing.assert_allclose(_stress(s, grid, params), -params.R,
                               rtol=0, atol=0)


def test_stress_vanishes_for_balanced_strain():
    # slope-1 velocity, mu = R = 1: viscous stress cancels the pressure
    grid = build_grid(10.0, 8)
    s = equilibrium_state(grid)
    s.u = grid.faces().copy()
    np.testing.assert_allclose(_stress(s, grid, Params()), 0.0, atol=1e-15)
    s.v = np.full(8, 2.0)
    np.testing.assert_allclose(_stress(s, grid, Params()), 0.0, atol=1e-15)
    s.theta = np.full(8, 3.0)
    np.testing.assert_allclose(_stress(s, grid, Params()), -1.0, rtol=1e-15)


def test_heat_flux_zero_at_equilibrium():
    grid = build_grid(10.0, 8)
    q = _heat_flux(equilibrium_state(grid), grid, Params())
    np.testing.assert_allclose(q, 0.0, atol=0)


def _two_cells():
    return Grid(2.0, 2, 1.0), State(0.0, np.array([1.0, 1.0]),
                                     np.array([1.0, 3.0]), np.zeros(3))


def test_heat_flux_two_cell_value():
    grid, s = _two_cells()
    cond = face_conductance(s.theta, s.v, Params(), grid.h)
    assert cond[0] == 0.0   # adiabatic wall
    assert cond[1] == 2.0   # mean conductivity 2 over h * mean v = 1
    assert _heat_flux(s, grid, Params())[1] == 4.0   # gradient 2


def test_heat_flux_far_face_uses_ghost():
    grid, s = _two_cells()
    # ghost (v, theta) = (1, 1): mean conductivity 2, gradient -2
    assert _heat_flux(s, grid, Params())[2] == -4.0
    # ghost (3, 2): mean conductivity 2.5 over mean v 2, gradient -1
    cond = face_conductance(s.theta, s.v, Params(), grid.h,
                            theta_ghost=2.0, v_ghost=3.0)
    assert cond[2] == 1.25
    assert _heat_flux(s, grid, Params(), 2.0, 3.0)[2] == -1.25


@settings(max_examples=60)
@given(data=st.data())
def test_heat_flux_antisymmetric_under_cell_swap(data):
    """Swapping the two cells adjacent to a face keeps its conductance
    and so negates its flux."""
    n = 6
    grid = build_grid(6.0, n)
    pos = st.floats(0.2, 5.0)
    v = np.array(data.draw(st.lists(pos, min_size=n, max_size=n)))
    th = np.array(data.draw(st.lists(pos, min_size=n, max_size=n)))
    i = data.draw(st.integers(1, n - 1))
    params = Params(beta=data.draw(st.floats(0.0, 3.0)))
    v2, th2 = v.copy(), th.copy()
    v2[i - 1], v2[i] = v[i], v[i - 1]
    th2[i - 1], th2[i] = th[i], th[i - 1]
    cond = face_conductance(th, v, params, grid.h)
    assert face_conductance(th2, v2, params, grid.h)[i] == cond[i]
    q = _heat_flux(State(0.0, v, th, np.zeros(n + 1)), grid, params)
    q2 = _heat_flux(State(0.0, v2, th2, np.zeros(n + 1)), grid, params)
    assert q2[i] == -q[i]


def _width_conductance(theta, v, params, h, theta_ghost, v_ghost):
    # the conductance written from the cell widths: the centers of cells
    # i-1 and i lie (h[i-1] + h[i])/2 apart, the ghost's h[N-1] beyond
    kt, beta = params.kappa, params.beta
    h = np.broadcast_to(h, theta.shape)
    thb = theta ** beta
    cond = np.zeros(theta.size + 1)
    cond[1:-1] = 0.5 * kt * (thb[:-1] + thb[1:]) \
        / (0.5 * (h[:-1] + h[1:]) * 0.5 * (v[:-1] + v[1:]))
    cond[-1] = 0.5 * kt * (thb[-1] + theta_ghost ** beta) \
        / (h[-1] * 0.5 * (v[-1] + v_ghost))
    return cond


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.5])
@pytest.mark.parametrize("far_length", [None, 225.0])
def test_conductance_geometry_matches_widths(beta, far_length):
    """The grid's center distances give the same conductances, bit for
    bit, as the widths they come from; so does a scalar width."""
    grid = build_grid(50.0, 2000, far_length)
    rng = np.random.default_rng(int(10 * beta))
    params = Params(beta=beta, kappa=1.3)
    for ghosts in ((1.0, 1.0), (1.7, 0.6)):
        th = rng.uniform(0.2, 4.0, grid.n_cells)
        v = rng.uniform(0.2, 4.0, grid.n_cells)
        want = _width_conductance(th, v, params, grid.dx, *ghosts)
        assert np.array_equal(face_conductance(th, v, params, grid.dc,
                                               *ghosts), want)
        if far_length is None:
            assert np.array_equal(face_conductance(th, v, params, grid.h,
                                                   *ghosts), want)


def _sources(x, t, prof, params):
    # the three forcing terms (Sv, Su, Stheta) at the points x
    return [mms_source(x, t, prof, params, k) for k in range(3)]


def test_mms_sources_vanish_at_zero_amplitude():
    prof = MmsProfile(amp=0.0, length=20.0)
    x = np.linspace(0.0, 20.0, 11)
    for term in _sources(x, 0.7, prof, Params()):
        np.testing.assert_allclose(term, 0.0, atol=0)


def test_mms_sources_decay_in_time():
    prof = MmsProfile(amp=0.1, length=20.0)
    x = np.linspace(0.0, 20.0, 11)
    late = _sources(x, 40.0, prof, Params())
    assert max(np.max(np.abs(term)) for term in late) < 1e-15


def test_mms_source_frozen_spot_values():
    prof = MmsProfile(amp=0.1, length=20.0)
    for (tag, xv, tv), expected in MMS_FROZEN.items():
        params = Params(**GENERAL) if tag == "general" else Params()
        got = _sources(xv, tv, prof, params)
        for g, e in zip(got, expected):
            assert abs(float(g) - e) <= 1e-12


def test_mms_source_matches_symbolic_oracle():
    """Independent sympy differentiation agrees at the midpoint spot."""
    prof = MmsProfile(amp=0.1, length=20.0)
    got = _sources(10.0, 0.0, prof, Params())
    want = sympy_mms_sources(10.0, 0.0, 0.1, 20.0, 1, 1, 1, 1, 1)
    for g, w in zip(got, want):
        assert abs(float(g) - w) <= 1e-12


def _mms_state(grid, prof, t):
    xc, xf = grid.centers(), grid.faces()
    return State(t, np.asarray(prof.v_exact(xc, t)),
                 np.asarray(prof.theta_exact(xc, t)),
                 np.asarray(prof.u_exact(xf, t)))


def _l2(grid, dv, du, dtheta):
    h = grid.h
    wf = np.full(grid.n_cells + 1, h)
    wf[0] = wf[-1] = 0.5 * h
    return math.sqrt(h * float(np.sum(dv ** 2)) + float(np.sum(wf * du ** 2))
                     + h * float(np.sum(dtheta ** 2)))


def _mms_step_residual(n, t=0.3):
    """One-step residual |step_imex(exact(t), dt) - exact(t + dt)|/dt."""
    prof = MmsProfile(amp=0.1, length=20.0)
    grid = build_grid(prof.length, n)
    dt = 0.2 * grid.h ** 2
    out, _ = step_imex(_mms_state(grid, prof, t), dt, grid, Params(),
                       mms=prof)
    ex = _mms_state(grid, prof, t + dt)
    return _l2(grid, out.v - ex.v, out.u - ex.u, out.theta - ex.theta) / dt


def test_rhs_truncation_error_second_order():
    """The right-hand side the stepper applies is second order in space.

    Measured as the one-step residual of step_imex on the manufactured
    solution: with dt tied to h^2 it falls as h^2.
    """
    res = [_mms_step_residual(n) for n in (100, 200, 400)]
    for coarse, fine in zip(res[:-1], res[1:]):
        assert 3.5 <= coarse / fine <= 4.5
