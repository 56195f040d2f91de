import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslag.core import (ConfigError, Grid, ICSpec, Params, build_grid,
                        equilibrium_state, make_initial_data)
from oracles import admissible


def test_build_grid_spacing():
    grid = build_grid(50.0, 2000)
    assert grid.h == 0.025
    assert grid.n_cells == 2000


def test_build_grid_faces():
    grid = build_grid(1.0, 4)
    np.testing.assert_allclose(grid.faces(), [0.0, 0.25, 0.5, 0.75, 1.0],
                               rtol=0, atol=0)


def test_grid_center_arithmetic():
    # coordinate formulas hold for any cell count when built directly
    grid = Grid(10.0, 3, 10.0 / 3.0)
    np.testing.assert_allclose(grid.centers(), [5.0 / 3.0, 5.0, 25.0 / 3.0],
                               rtol=1e-15)


def test_build_grid_rejects_bad_input():
    with pytest.raises(ConfigError):
        build_grid(0.0, 100)
    with pytest.raises(ConfigError):
        build_grid(-1.0, 100)
    with pytest.raises(ConfigError):
        build_grid(10.0, 3)


def test_build_grid_graded_far_zone():
    grid = build_grid(50.0, 2000, far_length=225.0)
    assert (grid.n_resolved, grid.n_cells, grid.far_length) == (2000, 2210,
                                                                225.0)
    assert grid.far_counts[:7] == (20, 10, 5, 3, 2, 1, 1)
    assert set(grid.far_counts[5:]) == {1}
    faces = grid.faces()
    assert faces[-1] == 225.0 and np.all(np.diff(faces) > 0.0)
    # every far unit interval ends on a face; no cell is wider than one unit
    assert set(np.arange(50.0, 226.0)) <= set(faces.tolist())
    assert grid.dx.max() == 1.0
    np.testing.assert_allclose(grid.dx, np.diff(faces), rtol=1e-12)
    np.testing.assert_allclose(grid.centers(), 0.5 * (faces[:-1] + faces[1:]),
                               rtol=1e-15)
    # far field: the cells whose right face lies past 0.9 * 225
    assert faces[grid.farfield_start] == 202.0
    # a far length equal to the length adds nothing
    assert build_grid(50.0, 2000, far_length=50.0) == build_grid(50.0, 2000)


def test_build_grid_rejects_bad_far_length():
    with pytest.raises(ConfigError):
        build_grid(50.0, 2000, far_length=49.0)
    with pytest.raises(ConfigError):
        build_grid(50.0, 2000, far_length=60.5)
    with pytest.raises(ConfigError):
        build_grid(3.0, 7, far_length=10.0)    # h does not divide 1


@given(n=st.integers(4, 5000), length=st.floats(0.1, 1e4))
def test_last_face_lands_on_length(n, length):
    grid = build_grid(length, n)
    assert abs(grid.faces()[-1] - length) <= 4 * np.finfo(float).eps * length


def test_params_defaults():
    p = Params()
    assert (p.mu, p.kappa, p.beta, p.R, p.cv) == (1.0, 1.0, 1.0, 1.0, 1.0)


def test_params_rejects_nonpositive():
    for kw in ({"mu": 0.0}, {"kappa": -1.0}, {"R": 0.0}, {"cv": -2.0},
               {"beta": -0.5}, {"beta": math.nan}, {"beta": math.inf},
               {"mu": math.inf}, {"cv": math.inf}, {"kappa": math.nan},
               {"R": math.inf}):
        with pytest.raises(ConfigError):
            Params(**kw)


def test_equilibrium_state_values():
    grid = build_grid(10.0, 8)
    s = equilibrium_state(grid)
    assert s.t == 0.0
    assert np.all(s.v == 1.0) and np.all(s.theta == 1.0)
    assert np.all(s.u == 0.0)
    assert s.u.shape == (9,)


def test_equilibrium_stress_matches_outer_pressure():
    """The rest state's cell stress equals the wall stress -R."""
    from nslag.model import cell_stress
    grid = build_grid(10.0, 8)
    params = Params(R=1.7)
    s = equilibrium_state(grid)
    sigma = cell_stress((s.u[1:] - s.u[:-1]) / grid.h, s.theta, s.v, params)
    np.testing.assert_allclose(sigma, -1.7, rtol=0, atol=0)


def test_equilibrium_energy_is_zero():
    from nslag.diagnostics import energy_functional
    grid = build_grid(10.0, 8)
    assert energy_functional(equilibrium_state(grid), grid, Params()) == 0.0


def test_equilibrium_kind_matches_equilibrium_state():
    grid = build_grid(10.0, 8)
    s = make_initial_data(grid, ICSpec(kind="equilibrium"))
    ref = equilibrium_state(grid)
    assert np.array_equal(s.v, ref.v)
    assert np.array_equal(s.theta, ref.theta)
    assert np.array_equal(s.u, ref.u)


def test_bump_amplitude_respects_floor():
    grid = build_grid(50.0, 200)
    spec = ICSpec(kind="bump", amp_v=-0.3, center=6.0, width=1.0, floor=0.5)
    s = make_initial_data(grid, spec)
    assert s.v.min() >= 0.5
    assert abs(s.v.min() - 0.7) < 0.02   # trough of the 0.3 dip, grid-sampled


def test_bump_amplitude_violating_floor_rejected():
    grid = build_grid(50.0, 200)
    spec = ICSpec(kind="bump", amp_theta=0.95, center=6.0, width=1.0,
                  floor=0.1)
    with pytest.raises(ConfigError):
        make_initial_data(grid, spec)


@pytest.mark.parametrize("name", ["amp_v", "amp_u", "amp_theta"])
@pytest.mark.parametrize("amp", [math.nan, math.inf, -math.inf])
def test_ic_amplitude_must_be_finite(name, amp):
    """A non-finite amplitude is refused by its key before a profile is
    scaled by it, which would warn on inf*0."""
    grid = build_grid(50.0, 200)
    spec = replace(ICSpec(kind="bump", center=6.0), **{name: amp})
    with pytest.raises(ConfigError, match=rf"^ic\.{name} = "):
        make_initial_data(grid, spec)


def test_ic_must_decay_before_midpoint():
    grid = build_grid(50.0, 200)
    with pytest.raises(ConfigError):
        make_initial_data(grid, ICSpec(kind="bump", amp_v=0.1, center=26.0,
                                       width=1.0, floor=0.1))


@pytest.mark.parametrize("kind", ["bump", "packet"])
@pytest.mark.parametrize("center", [math.nan, -math.inf, -5.0])
def test_ic_center_must_reach_into_domain(kind, center):
    """A center that is not finite, or whose support ends left of the wall,
    would start the run from the exact rest state; it is refused by name.
    A support that just reaches in is kept."""
    grid = build_grid(50.0, 200)
    spec = ICSpec(kind=kind, amp_v=0.1, center=center, width=1.0, floor=0.1)
    with pytest.raises(ConfigError, match=r"ic\.center"):
        make_initial_data(grid, spec)
    reach = 1.0 if kind == "bump" else 4.0
    s = make_initial_data(grid, replace(spec, center=0.5 - reach))
    assert np.any(s.v != 1.0)


def test_unknown_ic_kind_rejected():
    grid = build_grid(50.0, 200)
    with pytest.raises(ConfigError):
        make_initial_data(grid, ICSpec(kind="wavelet"))


def test_packet_profile_valid():
    grid = build_grid(50.0, 500)
    spec = ICSpec(kind="packet", amp_v=0.2, amp_u=0.2, amp_theta=0.2,
                  center=8.0, width=1.5, floor=0.1)
    s = make_initial_data(grid, spec)
    assert admissible(s)
    assert s.v.min() > 0.1 and s.theta.min() > 0.1


ic_amps = st.floats(-0.85, 0.85).filter(lambda a: abs(a) <= 0.85)


@settings(deadline=None, max_examples=40)
@given(amp_v=ic_amps, amp_u=ic_amps, amp_theta=ic_amps,
       kind=st.sampled_from(["bump", "packet"]),
       width=st.floats(0.5, 2.0))
def test_generated_data_positive_and_valid(amp_v, amp_u, amp_theta, kind,
                                           width):
    """Generated data keeps both fields at or above the floor."""
    grid = build_grid(50.0, 250)
    spec = ICSpec(kind=kind, amp_v=amp_v, amp_u=amp_u, amp_theta=amp_theta,
                  center=10.0, width=width, floor=0.1)
    s = make_initial_data(grid, spec)
    assert s.v.min() >= 0.1 and s.theta.min() >= 0.1
    assert admissible(s)
