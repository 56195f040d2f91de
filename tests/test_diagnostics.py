import math
from array import array

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslag.core import ConfigError, Grid, ICSpec, Params, \
    State, build_grid, equilibrium_state, make_initial_data
from nslag.diagnostics import (POSPART_THRESHOLD, _pospart, decay_report,
                               dissipation_functional, energy_functional,
                               entropy_roots, make_repr_probe, reconstruct_v,
                               running_integrals, sample_bounds,
                               sample_energy, unit_interval_averages,
                               update_repr_probe)
from nslag.stepper import advance, stable_dt, step_imex
from oracles import (copy_state, first_extrema, fsum_bounds, fsum_dissipation,
                     fsum_energy, mp_entropy_roots, reference_state)

# frozen reference values on the trig state from oracles.reference_state,
# and on its profiles over a graded grid (_graded_state_and_grid), params
# mu=0.9 kappa=1.1 beta=1.5 R=1.2 cv=1.6, fsum route
FROZEN_E = 0.5296090545143843
FROZEN_V = 1.6557617611654674
FROZEN_E_GRADED = 1.339477069980017
FROZEN_V_GRADED = 4.073296292885846

# roots of y - ln y - 1 = e0, mpmath bisection at 50 digits
FROZEN_ROOTS = {
    0.5: (0.301709562684336, 2.357676673945899),
    math.e - 2.0: (0.22452829808295763, math.e),
}

REF_PARAMS = Params(mu=0.9, kappa=1.1, beta=1.5, R=1.2, cv=1.6)


def _ref_state_and_grid():
    v, theta, u, h, length, n = reference_state()
    return State(0.0, v, theta, u), build_grid(length, n)


def _graded_state_and_grid():
    # the reference state's profiles on a grid with a graded far zone
    grid = build_grid(10.0, 40, far_length=20.0)
    xc, xf = grid.centers(), grid.faces()
    u = 0.25 * np.sin(3.0 * xf)
    u[-1] = 0.0
    return State(0.0, 1.0 + 0.3 * np.sin(xc), 1.1 + 0.2 * np.cos(xc), u), grid


def test_energy_zero_at_equilibrium():
    grid = build_grid(10.0, 8)
    assert energy_functional(equilibrium_state(grid), grid, Params()) == 0.0


def test_energy_single_cell_volume_term():
    grid = Grid(1.0, 1, 1.0)
    s = State(0.0, np.array([math.e]), np.array([1.0]), np.zeros(2))
    assert abs(energy_functional(s, grid, Params()) - (math.e - 2.0)) < 1e-15


def test_energy_single_cell_kinetic_term():
    # each face carries half the cell's mass: u = (1, 0) gives 0.25, where
    # the kinetic energy of the cell-averaged velocity would give 0.125
    grid = Grid(1.0, 1, 1.0)
    for u, expected in (((1.0, 1.0), 0.5), ((1.0, 0.0), 0.25)):
        s = State(0.0, np.ones(1), np.ones(1), np.array(u))
        assert energy_functional(s, grid, Params()) == expected


@pytest.mark.parametrize("make, frozen", [
    (_ref_state_and_grid, FROZEN_E), (_graded_state_and_grid, FROZEN_E_GRADED)],
    ids=["uniform", "graded"])
def test_energy_matches_fsum_oracle(make, frozen):
    s, grid = make()
    e = energy_functional(s, grid, REF_PARAMS)
    oracle = fsum_energy(s.v, s.theta, s.u, grid.dx, REF_PARAMS.R,
                         REF_PARAMS.cv)
    assert abs(e - oracle) <= 1e-12
    assert abs(e - frozen) <= 1e-14


def test_dissipation_zero_at_equilibrium():
    grid = build_grid(10.0, 8)
    s = equilibrium_state(grid)
    assert dissipation_functional(s, grid, Params()) == 0.0


def test_dissipation_uniform_strain():
    # u_x = c on v = theta = 1 over unit total mass gives exactly c^2
    grid = build_grid(1.0, 4)
    c = 0.5
    s = equilibrium_state(grid)
    s.u = c * grid.faces()
    assert dissipation_functional(s, grid, Params()) == c * c


@pytest.mark.parametrize("make, frozen", [
    (_ref_state_and_grid, FROZEN_V), (_graded_state_and_grid, FROZEN_V_GRADED)],
    ids=["uniform", "graded"])
def test_dissipation_matches_fsum_oracle(make, frozen):
    s, grid = make()
    v = dissipation_functional(s, grid, REF_PARAMS)
    oracle = fsum_dissipation(s.v, s.theta, s.u, grid.dx, REF_PARAMS.mu,
                              REF_PARAMS.kappa, REF_PARAMS.beta)
    assert abs(v - oracle) <= 1e-12
    assert abs(v - frozen) <= 1e-14


def test_sample_energy_trapezoid_accumulation():
    s, grid = _ref_state_and_grid()
    first = running_integrals(s, grid, REF_PARAMS)
    assert first["cumV"] == 0.0
    assert first["V"] == dissipation_functional(s, grid, REF_PARAMS)
    assert sample_energy(s, grid, REF_PARAMS) == {
        "E": energy_functional(s, grid, REF_PARAMS)}
    later = copy_state(s)
    later.t = 0.5
    second = running_integrals(later, grid, REF_PARAMS, first)
    assert second["t"] == 0.5
    assert abs(second["cumV"] - 0.5 * 0.5 * (first["V"] + second["V"])) \
        <= 1e-15


def test_entropy_roots_at_zero():
    band = entropy_roots(0.0)
    assert (band.alpha1, band.alpha2) == (1.0, 1.0)


def test_entropy_roots_frozen_values():
    for e0, (a1, a2) in FROZEN_ROOTS.items():
        band = entropy_roots(e0)
        assert abs(band.alpha1 - a1) <= 1e-14
        assert abs(band.alpha2 - a2) <= 1e-14


def test_entropy_roots_match_mpmath_oracle():
    for e0 in (0.01, 0.7, 3.0, 10.0):
        band = entropy_roots(e0)
        a1, a2 = mp_entropy_roots(e0)
        assert abs(band.alpha1 - a1) <= 1e-13 * max(1.0, a1)
        assert abs(band.alpha2 - a2) <= 1e-13 * a2


def test_entropy_roots_reject_negative():
    with pytest.raises(ConfigError, match="-0.1"):
        entropy_roots(-0.1)


def test_entropy_roots_resolve_large_levels():
    """Up to e0 = 700 (lower root near 4e-305) both roots solve the
    equation to 1e-12, the residual taken at 50 digits."""
    for e0 in np.geomspace(1e-3, 700.0, 60):
        band = entropy_roots(e0)
        assert band.alpha1 <= 1.0 <= band.alpha2
        for root in (band.alpha1, band.alpha2):
            with mp.workdps(50):
                res = mp.mpf(root) - mp.log(root) - 1 - mp.mpf(float(e0))
            assert abs(res) <= 1e-12, (e0, root)


@pytest.mark.parametrize("e0", [707.5, 744.0, 1e4, math.inf, math.nan])
def test_entropy_roots_beyond_float_range(e0):
    """A lower root below the normal floats, or no level at all, is a
    ConfigError naming the level, not a residual or log failure."""
    with pytest.raises(ConfigError, match=str(e0)):
        entropy_roots(e0)


@given(e0=st.floats(1e-8, 50.0))
def test_entropy_roots_residual_and_order(e0):
    band = entropy_roots(e0)
    assert band.alpha1 <= 1.0 <= band.alpha2
    for root in (band.alpha1, band.alpha2):
        assert abs(root - math.log(root) - 1.0 - e0) <= 1e-12


def test_unit_averages_equilibrium():
    grid = build_grid(10.0, 40)
    for vbar, tbar in unit_interval_averages(equilibrium_state(grid), grid):
        assert vbar == 1.0 and tbar == 1.0


def test_unit_averages_alternating():
    grid = build_grid(2.0, 8)
    v = np.tile([0.5, 1.5], 4)
    s = State(0.0, v, np.ones(8), np.zeros(9))
    for vbar, _ in unit_interval_averages(s, grid):
        assert vbar == 1.0


def test_unit_averages_match_direct_summation():
    grid = build_grid(50.0, 250)
    spec = ICSpec(kind="bump", amp_v=0.3, amp_theta=-0.2, center=6.0,
                  width=1.0)
    s = make_initial_data(grid, spec)
    k = round(1.0 / grid.h)
    for i, (vbar, tbar) in enumerate(unit_interval_averages(s, grid)):
        cells = slice(i * k, (i + 1) * k)
        assert abs(vbar - math.fsum(s.v[cells]) / k) <= 1e-14
        assert abs(tbar - math.fsum(s.theta[cells]) / k) <= 1e-14


def test_unit_averages_cover_far_zone():
    grid = build_grid(10.0, 40, far_length=20.0)
    assert all(vbar == 1.0 and tbar == 1.0 for vbar, tbar in
               unit_interval_averages(equilibrium_state(grid), grid))
    xc = grid.centers()
    s = State(0.0, 1.0 + 0.3 * np.sin(xc), 1.0 + 0.2 * np.cos(3.0 * xc),
              np.zeros(grid.n_cells + 1))
    averages = unit_interval_averages(s, grid)
    assert averages.shape == (20, 2)
    for i, (vbar, tbar) in enumerate(averages):
        cells = (xc > i) & (xc < i + 1)
        k = int(cells.sum())
        assert abs(vbar - math.fsum(s.v[cells]) / k) <= 1e-14
        assert abs(tbar - math.fsum(s.theta[cells]) / k) <= 1e-14


def test_unit_averages_require_compatible_grid():
    grid = build_grid(3.0, 7)
    with pytest.raises(ConfigError):
        unit_interval_averages(equilibrium_state(grid), grid)


def test_unit_interval_check_shared_by_averages_and_probe():
    """A cell size that does not divide the unit interval is rejected by
    the grid's one check, with one error for both callers."""
    grid = build_grid(50.0, 120)
    s = equilibrium_state(grid)
    with pytest.raises(ConfigError) as averages:
        unit_interval_averages(s, grid)
    with pytest.raises(ConfigError) as probe:
        make_repr_probe(s, grid, Params(), 12)
    assert str(averages.value) == str(probe.value)
    assert "does not divide the unit mass interval" in str(probe.value)


def test_probe_equilibrium_closed_form():
    """At rest Y = exp(-R t) and I = (exp(R t) - 1)/R."""
    grid = build_grid(50.0, 200)
    params = Params(R=1.7)
    s = equilibrium_state(grid)
    p = make_repr_probe(s, grid, params, 12)
    dt, steps = 0.05, 40
    state = s
    for _ in range(steps):
        nxt = copy_state(state)
        nxt.t = state.t + dt
        update_repr_probe(p, nxt, dt, grid, params)
        state = nxt
    t = steps * dt
    assert abs(p.Y - math.exp(-params.R * t)) <= 1e-13
    want_i = (math.exp(params.R * t) - 1.0) / params.R
    assert np.max(np.abs(p.I - want_i)) <= 1e-11
    # v = 1 at rest, so the relative error is the distance of v_rec from 1
    probe = reconstruct_v(p, state, params)
    assert probe["repr_relerr"] <= 1e-12
    assert probe["Y_probe"] == p.Y


def test_probe_initial_reconstruction_exact():
    grid = build_grid(50.0, 200)
    spec = ICSpec(kind="bump", amp_v=0.25, amp_theta=0.2, center=6.0,
                  width=1.0)
    s = make_initial_data(grid, spec)
    p = make_repr_probe(s, grid, Params(), 12)
    probe = reconstruct_v(p, s, Params())
    assert probe["Y_probe"] == 1.0 and probe["repr_relerr"] <= 1e-14
    # the probe keeps the initial velocity of its own faces, from mass 12
    assert p.seg.start == 12 * grid.unit_cells
    assert len(p.u0) == p.seg.stop - p.seg.start < len(s.u)
    assert np.array_equal(p.u0, s.u[p.seg])


def test_probe_tracks_evolved_run():
    grid = build_grid(50.0, 400)
    params = Params()
    spec = ICSpec(kind="bump", amp_v=0.3, amp_u=0.3, amp_theta=0.3,
                  center=6.0, width=1.0)
    s = make_initial_data(grid, spec)
    p = make_repr_probe(s, grid, params, 12)

    def cb(prev, new, dt):
        update_repr_probe(p, new, dt, grid, params)

    out = advance(s, 5.0, grid, params, on_step=cb)
    assert reconstruct_v(p, out, params)["repr_relerr"] <= 0.05


def test_bounds_equilibrium():
    grid = build_grid(10.0, 40)
    s = equilibrium_state(grid)
    b = {**running_integrals(s, grid, Params()), **sample_bounds(s, grid)}
    assert (b["vmin"], b["vmax"], b["thmin"], b["thmax"]) == (1.0,) * 4
    for name in ("n2_vm1", "n2_u", "n2_thm1", "ninf_vm1", "ninf_u",
                 "ninf_thm1", "g2_vx", "g2_ux", "g2_thx", "pospart",
                 "farfield_dev"):
        assert b[name] == 0.0


def test_bounds_positive_part_literal():
    grid = build_grid(10.0, 40)
    s = equilibrium_state(grid)
    s.theta[:] = 2.0
    assert running_integrals(s, grid, Params())["pospart"] == 0.25
    assert POSPART_THRESHOLD == 1.5


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 10 ** 6), threshold=st.floats(0.5, 3.0))
def test_pospart_equals_elementwise_maximum(seed, threshold):
    """pospart comes from the hottest cell alone; the elementwise maximum of
    (theta - threshold)_+^2 must give the same float."""
    grid = build_grid(10.0, 40)
    s = equilibrium_state(grid)
    s.theta = np.random.default_rng(seed).uniform(0.2, 4.0, grid.n_cells)
    pos = np.maximum(s.theta - threshold, 0.0)
    got = _pospart(s.theta, threshold)
    assert got == float(np.max(pos * pos))


def test_bounds_match_fsum_oracle():
    s, grid = _ref_state_and_grid()
    b = {**running_integrals(s, grid, REF_PARAMS), **sample_bounds(s, grid)}
    oracle = fsum_bounds(s.v, s.theta, s.u, grid.h)
    for name, want in oracle.items():
        assert abs(b[name] - want) <= 1e-12, name


def _extrema_cases(grid):
    # the rest state, fields holding -0.0 and 0.0, random states
    rest = equilibrium_state(grid)
    yield rest
    zeros = copy_state(rest)
    zeros.u[:] = -0.0
    zeros.u[1::4] = 0.0
    zeros.v[::3] = -0.0
    zeros.v[1::3] = 0.0
    zeros.theta[::2] = 0.0
    zeros.theta[1::2] = -0.0
    yield zeros
    rng = np.random.default_rng(7)
    n = grid.n_cells
    for _ in range(20):
        u = rng.normal(0.0, 0.5, n + 1)
        u[-1] = 0.0
        yield State(0.0, rng.uniform(0.2, 4.0, n), rng.uniform(0.2, 4.0, n),
                    u)


@pytest.mark.parametrize("far_length", [None, 225.0])
def test_bounds_extrema_match_first_extrema(far_length):
    """The extrema, inf-norms and far-field deviation of sample_bounds are,
    bit for bit, those of abs-then-max over Python floats, on a uniform
    and a graded grid."""
    grid = build_grid(50.0, 250, far_length)
    faces = grid.faces().tolist()
    for s in _extrema_cases(grid):
        got = sample_bounds(s, grid)
        for name, want in first_extrema(s.v, s.theta, s.u, faces).items():
            assert got[name].hex() == want.hex(), name


def test_stepped_state_matches_fresh_state_bits():
    """A stepped state keeps the conduction numerator and the face
    denominator its step computed; its dissipation and the next step are
    bit for bit those of fresh states holding copies of its fields, which
    make both on first use."""
    grid = build_grid(50.0, 250, 225.0)
    spec = ICSpec(kind="bump", amp_v=0.3, amp_u=0.3, amp_theta=0.3)
    params = REF_PARAMS
    s = make_initial_data(grid, spec)
    dt = stable_dt(s, grid, params)
    out = step_imex(s, dt, grid, params)
    fresh_d, fresh_s = copy_state(out), copy_state(out)
    assert out.den is not None and fresh_d.den is None
    assert dissipation_functional(out, grid, params).hex() == \
        dissipation_functional(fresh_d, grid, params).hex()
    assert fresh_d.den.tobytes() == out.den.tobytes()
    got = step_imex(out, dt, grid, params)
    want = step_imex(fresh_s, dt, grid, params)
    for name in ("v", "theta", "u", "ux", "den"):
        assert getattr(got, name).tobytes() == \
            getattr(want, name).tobytes(), name


def test_bounds_running_integrals_trapezoid():
    s, grid = _ref_state_and_grid()
    first = running_integrals(s, grid, REF_PARAMS)
    assert first["cum_ux2"] == 0.0 and first["cum_pospart"] == 0.0
    later = copy_state(s)
    later.t = 0.25
    later.theta = s.theta + 1.0     # lifts pospart above zero
    second = running_integrals(later, grid, REF_PARAMS, first)
    want_ux2 = 0.5 * 0.25 * (first["g2_ux"] ** 2 + second["g2_ux"] ** 2)
    want_pp = 0.5 * 0.25 * (first["pospart"] + second["pospart"])
    assert abs(second["cum_ux2"] - want_ux2) <= 1e-15
    assert abs(second["cum_pospart"] - want_pp) <= 1e-15


def _synthetic_series(t_end=20.0, n=41, rate=0.1):
    # series columns of an exponential decay at the given rate
    t = [t_end * k / (n - 1) for k in range(n)]
    amp = [math.exp(-rate * x) for x in t]
    rest = [0.0] * n
    series = {"t": t, "E": amp, "V": rest, "cumV": [1.0 - a for a in amp],
              "vmin": [0.8] * n, "vmax": [1.2] * n, "thmin": [0.9] * n,
              "thmax": [1.1] * n, "pospart": rest,
              "cum_ux2": [1.0 - a for a in amp], "cum_pospart": rest,
              "farfield_dev": rest}
    for name in ("n2_vm1", "n2_u", "n2_thm1", "ninf_vm1", "ninf_u",
                 "ninf_thm1", "g2_vx", "g2_ux", "g2_thx"):
        series[name] = amp
    return series


def test_decay_report_synthetic_exponential():
    series = _synthetic_series()
    logy = (series["t"], [-0.7 * t for t in series["t"]])
    rep = decay_report(series, logy=logy)
    want = math.exp(-0.1 * 20.0)
    for name, ratio in rep["ratios"].items():
        assert abs(ratio - want) <= 0.01 * want, name
    assert abs(rep["y_slope"] + 0.7) <= 1e-9
    # E + cumV is constant 1 here, and E(0) = 1: zero margin
    assert abs(rep["energy_margin"]) <= 1e-12
    # exponential with rate 0.1 leaves e^-1 - e^-2 of the mass after T/2
    want_frac = (math.exp(-1.0) - math.exp(-2.0)) / (1.0 - math.exp(-2.0))
    assert abs(rep["plateau"]["cum_ux2"] - want_frac) <= 0.01
    assert rep["plateau"]["cum_pospart"] == 0.0
    for name in ("vmin", "vmax", "thmin", "thmax"):
        assert rep["extremum_drift"][name] <= 1e-12


def _equilibrium_run(params):
    # (series columns, ln Y columns) of 12 unit samples of the rest state
    grid = build_grid(10.0, 40)
    s = equilibrium_state(grid)
    p = make_repr_probe(s, grid, params, 3)
    running = running_integrals(s, grid, params)
    series = {}

    def sample(state):
        # append the state's running-integral, energy and bounds values
        # to their columns
        row = {**running, **sample_energy(state, grid, params),
               **sample_bounds(state, grid)}
        for name, value in row.items():
            series.setdefault(name, array("d")).append(value)

    sample(s)
    state = s
    for _ in range(12):
        nxt = advance(state, state.t + 1.0, grid, params)
        update_repr_probe(p, nxt, nxt.t - state.t, grid, params)
        running = running_integrals(nxt, grid, params, running)
        sample(nxt)
        state = nxt
    return series, (p.logY_t, p.logY)


def test_decay_report_equilibrium_trajectory():
    params = Params(R=2.0)
    series, logy = _equilibrium_run(params)
    rep = decay_report(series, logy=logy)
    for name, ratio in rep["ratios"].items():
        assert ratio == "identically zero", name
    assert abs(rep["energy_margin"]) <= 1e-20
    assert abs(rep["y_slope"] + params.R) <= 1e-6


def _noisy_decay_logy(n=401, t_end=20.0):
    # ln of a decaying column with 5% multiplicative noise
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, t_end, n)
    return t, np.log(np.exp(-0.4 * t) * (1.0 + 0.05 * rng.standard_normal(n)))


@pytest.mark.parametrize("case", ["equilibrium", "noisy"])
def test_decay_report_slope_matches_polyfit(case):
    """The centered slope agrees with numpy's least-squares line fit over
    the second half, to 1e-12 relative."""
    if case == "equilibrium":
        series, logy = _equilibrium_run(Params(R=2.0))
    else:
        logy = _noisy_decay_logy()
        series = _synthetic_series()
    t, y = (np.asarray(col) for col in logy)
    late = t >= 0.5 * series["t"][-1]
    want = np.polyfit(t[late], y[late], 1)[0]
    got = decay_report(series, logy=logy)["y_slope"]
    assert abs(got - want) <= 1e-12 * abs(want)
    if case == "equilibrium":
        assert abs(got + 2.0) <= 1e-6


def test_decay_report_calls_no_least_squares_solver(monkeypatch):
    """The slope is a centered sum: decay_report runs with numpy's
    least-squares solver, and the line fit that calls it, raising."""
    def no_lstsq(*args, **kwargs):
        raise AssertionError("least-squares solver called")

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    monkeypatch.setattr(np, "polyfit", no_lstsq)
    series = _synthetic_series()
    rep = decay_report(series, logy=_noisy_decay_logy())
    assert -0.5 < rep["y_slope"] < -0.3


def _energy_margin(n_cells):
    grid = build_grid(50.0, n_cells)
    params = Params()
    spec = ICSpec(kind="bump", amp_v=0.3, amp_u=0.3, amp_theta=0.3,
                  center=6.0, width=1.0)
    s = make_initial_data(grid, spec)
    recs = [{**running_integrals(s, grid, params),
             **sample_energy(s, grid, params)}]

    def cb(prev, new, dt):
        recs.append({**running_integrals(new, grid, params, recs[-1]),
                     **sample_energy(new, grid, params)})

    advance(s, 10.0, grid, params, on_step=cb)
    e0 = recs[0]["E"]
    return max(r["E"] + r["cumV"] - e0 for r in recs)


def test_energy_dissipation_identity_first_order():
    """d/dt E = -V for the continuous flow; the discrete defect of
    E + cumV - E(0) shrinks at first order as the step is refined."""
    coarse = _energy_margin(400)
    fine = _energy_margin(800)
    assert coarse > 0.0 and fine > 0.0
    assert 1.5 <= coarse / fine <= 2.8
