import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dptsv

from nslag.core import ConfigError, ICSpec, Params, State, build_grid, \
    equilibrium_state, make_initial_data
from nslag import core, stepper
from nslag.model import (MmsProfile, _factors, mms_source, mms_tables,
                         strain_rate)
from nslag.stepper import (PositivityViolation, StepControl, StepFailure,
                           advance, check_dominant, solve_tridiagonal,
                           stable_dt, step_imex)
from oracles import admissible, copy_state, dense_solve, dense_step


def _tridiag(diag, off, rhs):
    # (diag, off, rhs) as solve_tridiagonal takes them
    return tuple(np.asarray(x, float) for x in (diag, off, rhs))


def _dominant_system(n=40, seed=3):
    # symmetric, strictly dominant, positive diagonal: what step_imex builds
    rng = np.random.default_rng(seed)
    off = rng.uniform(-1, 1, n - 1)
    diag = rng.uniform(0.5, 2.0, n)
    diag[:-1] += np.abs(off)
    diag[1:] += np.abs(off)
    return _tridiag(diag, off, rng.uniform(-1, 1, n))


def test_solve_identity():
    rhs = np.array([3.0, -1.0, 2.5])
    sys = _tridiag([1, 1, 1], [0, 0], rhs)
    np.testing.assert_array_equal(solve_tridiagonal(*sys), rhs)


def test_solve_accepts_subnormal_load():
    """A load below the normal float range solves: its rounding error is
    absolute, so the residual guard's relative bound alone would trip."""
    diag, off, _ = _dominant_system()
    rhs = np.full(diag.size, 5e-324)
    x = solve_tridiagonal(diag, off, rhs)
    assert np.all(np.isfinite(x)) and np.max(np.abs(x)) <= 1e-320


def test_solve_two_by_two():
    sys = _tridiag([2, 2], [1], [3, 3])
    np.testing.assert_allclose(solve_tridiagonal(*sys), [1.0, 1.0],
                               rtol=1e-14)


def test_solve_matches_dense_oracle():
    for seed in range(10):
        diag, off, rhs = _dominant_system(n=50, seed=seed)
        x = solve_tridiagonal(diag, off, rhs)
        # off is both bands: lower[0] and upper[-1] are unused
        ref = dense_solve(np.concatenate(([0.0], off)), diag,
                          np.concatenate((off, [0.0])), rhs)
        assert np.max(np.abs(x - ref)) <= 1e-10


def test_solve_strongly_coupled_system_matches_dense_oracle():
    """Couplings of about 5e5 against unit weights, as strong conduction
    assembles them: the residual of a correct solve is about
    eps*|A|*|x|, and the guard admits it."""
    rng = np.random.default_rng(5)
    n = 40
    c = rng.uniform(0.5, 1.0, n - 1) * 5e5
    diag = rng.uniform(0.5, 2.0, n)
    diag[:-1] += c
    diag[1:] += c
    sys = _tridiag(diag, -c, rng.uniform(-1, 1, n))
    x = solve_tridiagonal(*sys)
    ref = dense_solve(np.concatenate(([0.0], -c)), diag,
                      np.concatenate((-c, [0.0])), sys[2])
    assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_dominance_check_names_offending_row():
    diag, off, _ = _tridiag([3.0, 1.0], [2.0], [0, 0])
    with pytest.raises(ArithmeticError, match="row 1"):
        check_dominant(diag, off)


@pytest.mark.parametrize("row", [0, 17, 39])
def test_dominance_check_names_nan_row(row):
    """A NaN on a diagonal fails the check, which names its row, even when
    a later row is not dominant either."""
    diag, off, _ = _dominant_system()
    diag[row] = np.nan
    if row < 39:
        diag[39] = -1.0
    with pytest.raises(ArithmeticError, match=f"row {row} is not"):
        check_dominant(diag, off)


def test_dominance_check_rejects_negative_diagonal():
    """|diag| would dominate row 0, but ptsv needs a positive diagonal."""
    sys = _tridiag([-5.0, 3.0], [1.0], [1.0, 1.0])
    with pytest.raises(ArithmeticError, match="row 0"):
        solve_tridiagonal(*sys)


def test_solve_leaves_system_untouched():
    sys = _dominant_system()
    before = [a.copy() for a in sys]
    solve_tridiagonal(*sys)
    for was, now in zip(before, sys):
        assert np.array_equal(was, now)


def test_residual_guard_catches_perturbed_solution(monkeypatch):
    def perturbed(d, e, b):
        d2, e2, x, info = dptsv(d, e, b)
        x[len(x) // 2] += 1e-6
        return d2, e2, x, info

    monkeypatch.setattr(stepper, "dptsv", perturbed)
    with pytest.raises(ArithmeticError, match="lost accuracy"):
        solve_tridiagonal(*_dominant_system())


def test_nonzero_ptsv_info_raises(monkeypatch):
    def failing(d, e, b):
        d2, e2, x, _ = dptsv(d, e, b)
        return d2, e2, x, 3

    monkeypatch.setattr(stepper, "dptsv", failing)
    with pytest.raises(ArithmeticError, match="info 3"):
        solve_tridiagonal(*_dominant_system())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 17, 39])
def test_nonfinite_load_raises(bad, row):
    """The residual guard fails closed: a NaN or an infinity in the load
    makes max|res| <= bound false, and that must raise, not pass."""
    sys = _dominant_system()
    sys[2][row] = bad
    with np.errstate(invalid="ignore"):
        with pytest.raises(ArithmeticError):
            solve_tridiagonal(*sys)


def test_stable_dt_equilibrium_formula():
    grid = build_grid(50.0, 2000)
    ctl = StepControl(cfl_hyp=0.4)
    s = equilibrium_state(grid)
    dt = stable_dt(s, grid, Params(), ctl)
    assert abs(dt - 0.4 * 0.025 / math.sqrt(2.0)) < 1e-17


def test_stable_dt_scalings():
    grid = build_grid(50.0, 2000)
    ctl = StepControl()
    s = equilibrium_state(grid)
    dt0 = stable_dt(s, grid, Params(), ctl)
    hot = copy_state(s)
    hot.theta = 2.0 * hot.theta
    assert abs(stable_dt(hot, grid, Params(), ctl)
               - dt0 / math.sqrt(2.0)) < 1e-16
    wide = copy_state(s)
    wide.v = 2.0 * wide.v
    assert stable_dt(wide, grid, Params(), ctl) == 2.0 * dt0


def test_stable_dt_floor():
    """At the least CFL number the acoustic step is subnormal; stable_dt
    returns DT_MIN in its place."""
    grid = build_grid(50.0, 2000)
    ctl = StepControl(cfl_hyp=5e-324)
    assert stable_dt(equilibrium_state(grid), grid, Params(),
                     ctl) == stepper.DT_MIN


def test_step_preserves_equilibrium():
    grid = build_grid(50.0, 500)
    params = Params(R=1.4, cv=1.6, beta=2.0)
    s = equilibrium_state(grid)
    for dt in (1e-4, 1e-2, 0.5):
        out = step_imex(s, dt, grid, params)
        assert np.max(np.abs(out.v - 1.0)) <= 1e-14
        assert np.max(np.abs(out.theta - 1.0)) <= 1e-14
        assert np.max(np.abs(out.u)) <= 1e-14


def test_step_conduction_maximum_principle():
    """Pressure-balanced state: one step is pure backward-Euler conduction.

    With v = theta the pressure is uniform and equals the outer pressure,
    so u stays exactly zero and the theta update is a monotone implicit
    heat step: no new extrema beyond the data and the far-field value.
    """
    grid = build_grid(40.0, 160)
    params = Params(beta=0.0)
    xc = grid.centers()
    prof = 1.0 + 0.8 * np.exp(-((xc - 8.0) / 2.0) ** 2)
    s = State(0.0, prof.copy(), prof.copy(), np.zeros(161))
    for dt in (0.01, 0.3, 5.0):
        out = step_imex(s, dt, grid, params)
        assert np.array_equal(out.u, np.zeros(161))
        assert np.array_equal(out.v, s.v)
        assert out.theta.max() <= max(s.theta.max(), 1.0) + 1e-13
        assert out.theta.min() >= min(s.theta.min(), 1.0) - 1e-13


class _MovingEndsProfile(MmsProfile):
    """The manufactured profile with its velocity shifted off zero at both
    ends; the forcing terms must not depend on u_exact."""

    def u_exact(self, x, t):
        return super().u_exact(x, t) + 0.05


@pytest.mark.parametrize("profile", [MmsProfile, _MovingEndsProfile])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("graded", [False, True])
def test_mms_source_terms_match_full_tuple(graded, beta, profile):
    """Each forcing term evaluated on the grid's cached tables is bit for
    bit the same term evaluated at the points."""
    grid = (build_grid(50.0, 200, far_length=225.0) if graded
            else build_grid(20.0, 80))
    prof = profile(amp=0.1, length=grid.far_length)
    params = Params(beta=beta)
    at_centers, at_faces = mms_tables(grid, prof)
    for tables, x in ((at_centers, grid.centers()), (at_faces, grid.faces())):
        for t in (0.0, 0.37):
            for k in range(3):
                alone = mms_source(tables, t, prof, params, k)
                at_x = mms_source(_factors(x, prof), t, prof, params, k)
                assert alone.tobytes() == at_x.tobytes(), (k, t)


def test_step_zero_amplitude_mms_stays_at_rest():
    """At amplitude zero the manufactured solution is the rest state and
    every forcing term vanishes: forced steps from rest stay at rest."""
    grid = build_grid(20.0, 80)
    prof = MmsProfile(amp=0.0)
    s = equilibrium_state(grid)
    for dt in (1e-3, 0.05, 0.5):
        s = step_imex(s, dt, grid, Params(), mms=prof)
    assert s.t == pytest.approx(0.551, rel=1e-15)
    for dev in (s.v - 1.0, s.u, s.theta - 1.0):
        assert np.max(np.abs(dev)) <= 1e-14


def test_mms_tables_cached_by_value():
    """Equal grids and profiles built apart share one read-only entry."""
    tables = mms_tables(build_grid(20.0, 80), MmsProfile(amp=0.2))
    assert mms_tables(build_grid(20.0, 80), MmsProfile(amp=0.2)) is tables
    assert mms_tables(build_grid(20.0, 80), MmsProfile(amp=0.3)) is not tables
    assert not any(arr.flags.writeable for part in tables for arr in part)


def test_step_hands_on_its_strain_rate():
    """The state step_imex returns carries the strain rate of its velocity
    bit for bit; the next step from it is the step from a copy without it,
    and leaves it unchanged."""
    grid = build_grid(50.0, 200, far_length=225.0)
    spec = ICSpec(kind="bump", amp_v=0.2, amp_u=0.2, amp_theta=0.2,
                  center=6.0, width=1.0)
    s = make_initial_data(grid, spec)
    params = Params(beta=2.5)
    dt = stable_dt(s, grid, params, StepControl())
    out = step_imex(s, dt, grid, params)
    assert out.ux.tobytes() == strain_rate(out.u, grid.dx).tobytes()
    kept = out.ux.copy()
    nxt = step_imex(out, dt, grid, params)
    again = step_imex(copy_state(out), dt, grid, params)
    assert np.array_equal(out.ux, kept)
    for a, b in ((nxt.v, again.v), (nxt.u, again.u),
                 (nxt.theta, again.theta), (nxt.ux, again.ux)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.5])
@pytest.mark.parametrize("graded", [False, True])
def test_step_matches_dense_row_scaled_oracle(graded, beta, forced):
    """step_imex solves each system weighted by its control masses; the
    dense reference assembles the same step row-scaled by dt over them.
    The two agree to roundoff, so a wrong weight on any row, the wall and
    far rows included, fails; forced, the manufactured forcing enters
    every load, the wall row's included.  The graded grid has the default
    lengths and far zone at a tenth of the cells."""
    grid = (build_grid(50.0, 200, far_length=225.0) if graded
            else build_grid(20.0, 80))
    params = Params(beta=beta)
    xc, xf = grid.centers(), grid.faces()
    s = State(0.3, 1.0 + 0.3 * np.sin(xc), 1.1 + 0.2 * np.cos(xc),
              0.25 * np.sin(3.0 * xf))
    s.u[-1] = 0.0
    dt = 0.05
    t1 = s.t + dt
    prof = data = None
    if forced:
        prof = MmsProfile(amp=0.1, length=grid.far_length)
        tc, tf = _factors(xc, prof), _factors(xf, prof)
        data = {"sv": mms_source(tc, s.t, prof, params, 0).tolist(),
                "su": mms_source(tf, t1, prof, params, 1).tolist(),
                "sth": mms_source(tc, t1, prof, params, 2).tolist()}
    out = step_imex(s, dt, grid, params, mms=prof)
    refs = dense_step(s.v.tolist(), s.theta.tolist(), s.u.tolist(),
                      grid.dx.tolist(), dt, params.mu, params.kappa, beta,
                      params.R, params.cv, forced=data)
    for got, ref in zip((out.v, out.u, out.theta), refs):
        np.testing.assert_allclose(got, ref, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(ref)))


def test_step_telescoping_volume_update():
    grid = build_grid(12.0, 12)
    s = equilibrium_state(grid)
    s.u = 0.3 * np.cos(grid.faces())
    s.u[-1] = 0.0
    dt = 0.01
    out = step_imex(s, dt, grid, Params())
    change = grid.h * math.fsum((out.v - s.v).tolist())
    assert abs(change - (-dt * s.u[0])) <= 1e-15


def test_step_signals_positivity_loss():
    grid = build_grid(12.0, 12)
    s = equilibrium_state(grid)
    s.u = -grid.faces().copy()    # strong uniform compression
    s.u[-1] = 0.0
    with pytest.raises(PositivityViolation):
        step_imex(s, 2.0, grid, Params())


@pytest.mark.parametrize("cell", [0, 5, 11])
def test_step_signals_nan_volume(cell):
    """A NaN anywhere in v^1 = v + dt*u_x is a positivity loss."""
    grid = build_grid(12.0, 12)
    s = equilibrium_state(grid)
    s.ux = np.zeros(grid.n_cells)
    s.ux[cell] = np.nan
    with pytest.raises(PositivityViolation, match="v reached nan"):
        step_imex(s, 0.01, grid, Params())


def test_step_rejects_nonpositive_dt():
    grid = build_grid(12.0, 12)
    with pytest.raises(ConfigError):
        step_imex(equilibrium_state(grid), 0.0, grid, Params())


def test_advance_degenerate_interval():
    grid = build_grid(12.0, 12)
    s = equilibrium_state(grid)
    calls = []
    out = advance(s, 0.0, grid, Params(),
                  on_step=lambda a, b, dt: calls.append(dt))
    assert out.t == 0.0 and not calls
    assert np.array_equal(out.v, s.v)


def test_advance_rejects_past_target():
    grid = build_grid(12.0, 12)
    s = equilibrium_state(grid)
    s.t = 5.0
    with pytest.raises(ConfigError):
        advance(s, 4.0, grid, Params())


def test_advance_equilibrium_long_run():
    grid = build_grid(50.0, 200)
    out = advance(equilibrium_state(grid), 10.0, grid, Params())
    assert out.t == 10.0
    assert np.max(np.abs(out.v - 1.0)) <= 1e-10
    assert np.max(np.abs(out.theta - 1.0)) <= 1e-10
    assert np.max(np.abs(out.u)) <= 1e-10


def test_graded_grid_keeps_rest_state():
    """The rest state stays exact to roundoff on a graded grid, through the
    junction where the far zone's cells widen."""
    grid = build_grid(50.0, 500, far_length=225.0)
    params = Params()
    ctl = StepControl()
    s = equilibrium_state(grid)
    for _ in range(2000):
        s = step_imex(s, stable_dt(s, grid, params, ctl), grid, params)
    assert np.max(np.abs(s.v - 1.0)) <= 1e-12
    assert np.max(np.abs(s.theta - 1.0)) <= 1e-12
    assert np.max(np.abs(s.u)) <= 1e-12


def test_graded_run_matches_uniform_on_resolved_zone():
    """At h = 0.1 the graded far zone stands in for uniform cells out to the
    same depth: on (0, length) the two runs agree to 1e-4 at T = 30, while
    the bump's wave there is of order 1e-2."""
    spec = ICSpec(kind="bump", amp_v=0.3, amp_u=0.3, amp_theta=0.3,
                  center=6.0, width=1.0)
    graded = build_grid(50.0, 500, far_length=225.0)
    uniform = build_grid(225.0, 2250)
    a = advance(make_initial_data(graded, spec), 30.0, graded, Params())
    b = advance(make_initial_data(uniform, spec), 30.0, uniform, Params())
    n = graded.n_resolved
    assert np.max(np.abs(a.v[:n] - b.v[:n])) <= 1e-4
    assert np.max(np.abs(a.theta[:n] - b.theta[:n])) <= 1e-4
    assert np.max(np.abs(a.u[:n + 1] - b.u[:n + 1])) <= 1e-4


def test_advance_bump_run_stays_valid():
    grid = build_grid(50.0, 400)
    spec = ICSpec(kind="bump", amp_v=0.3, amp_u=0.3, amp_theta=0.3,
                  center=6.0, width=1.0)
    s = make_initial_data(grid, spec)
    out = advance(s, 5.0, grid, Params())
    assert out.t == 5.0
    assert admissible(out)


def test_advance_strong_conduction_stays_valid():
    """beta = 50 on the bump makes the hot cells' conductances dwarf
    their weights cv*h/dt; the solves stay within the residual guard."""
    grid = build_grid(50.0, 100, far_length=225.0)
    spec = ICSpec(kind="bump", amp_v=0.3, amp_u=0.3, amp_theta=0.3,
                  center=6.0, width=1.0)
    out = advance(make_initial_data(grid, spec), 0.2, grid,
                  Params(beta=50.0))
    assert out.t == 0.2
    assert admissible(out)


def test_advance_lands_exactly_and_reports_steps():
    grid = build_grid(50.0, 200)
    seen = []
    out = advance(equilibrium_state(grid), 0.1, grid, Params(),
                  on_step=lambda prev, new, dt: seen.append((prev.t,
                                                             new.t, dt)))
    assert out.t == 0.1
    assert seen[-1][1] == 0.1
    for prev_t, new_t, dt in seen:
        assert new_t > prev_t and dt > 0


def test_advance_underflow_raises_with_state(monkeypatch):
    monkeypatch.setattr(stepper, "DT_MIN", 1e-3)
    grid = build_grid(12.0, 12)
    s = equilibrium_state(grid)
    s.v[:] = 1e-7                 # near the positivity floor already
    s.u = -10.0 * grid.faces()    # compression no small step survives
    s.u[-1] = 0.0
    with pytest.raises(StepFailure) as err:
        advance(s, 1.0, grid, Params())
    assert err.value.state is not None
    msg = str(err.value)
    assert msg.startswith("step size underflowed: dt = ")
    assert float(msg.split(" halves to ")[1].split(",")[0]) < 1e-3


def _always_rejected(monkeypatch):
    # every try fails a step guard
    def fail(s, dt, grid, params):
        raise ArithmeticError("guard failed")

    monkeypatch.setattr(stepper, "step_imex", fail)


def test_step_failure_names_retry_limit(monkeypatch):
    """Retries that run out with the step above DT_MIN say so, with the
    last step size tried, not that the step size underflowed."""
    _always_rejected(monkeypatch)
    grid = build_grid(50.0, 200)
    s = equilibrium_state(grid)
    dt0 = stable_dt(s, grid, Params(), StepControl())
    with pytest.raises(StepFailure) as err:
        advance(s, 1.0, grid, Params())
    last = dt0 / 2 ** stepper.MAX_RETRIES
    assert str(err.value) == (
        f"no step accepted in {stepper.MAX_RETRIES + 1} tries, the last "
        f"with dt = {last}, at t = 0.0 (guard failed)")
    assert err.value.state is s


def test_step_failure_names_dt_min(monkeypatch):
    """Retries that halve the step below DT_MIN say the step size
    underflowed, with the last step size tried and DT_MIN."""
    _always_rejected(monkeypatch)
    grid = build_grid(50.0, 200)
    s = equilibrium_state(grid)
    dt0 = stable_dt(s, grid, Params(), StepControl())
    monkeypatch.setattr(stepper, "DT_MIN", 0.3 * dt0)
    with pytest.raises(StepFailure) as err:
        advance(s, 1.0, grid, Params())
    assert str(err.value) == (
        f"step size underflowed: dt = {dt0 / 2} halves to {dt0 / 4}, below "
        f"DT_MIN = {0.3 * dt0}, at t = 0.0 (guard failed)")
    assert err.value.state is s


def _counting_step_imex(monkeypatch, module, name="step_imex"):
    # wrap a step function at the name the caller looks up, as a profiler
    # would
    outcomes = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        try:
            out = inner(*args, **kwargs)
        except ArithmeticError:
            outcomes.append("rejected")
            raise
        outcomes.append("accepted")
        return out

    monkeypatch.setattr(module, name, counted)
    return outcomes


def test_advance_looks_up_step_imex_every_step(monkeypatch):
    """advance calls step_imex through the stepper module on every try, so
    a wrapper there sees every accepted and every rejected step."""
    outcomes = _counting_step_imex(monkeypatch, stepper)
    grid = build_grid(50.0, 200)
    spec = ICSpec(kind="bump", amp_v=0.2, amp_u=0.2, amp_theta=0.2,
                  center=6.0, width=1.0)
    seen = []
    advance(make_initial_data(grid, spec), 1.0, grid, Params(),
            on_step=lambda prev, new, dt: seen.append(dt))
    assert len(seen) > 10
    assert outcomes == ["accepted"] * len(seen)

    # a compression near the floor: retries, some steps accepted, then
    # underflow
    outcomes.clear()
    seen.clear()
    grid = build_grid(12.0, 12)
    s = equilibrium_state(grid)
    s.v[:] = 1e-7
    s.u = -10.0 * grid.faces()
    s.u[-1] = 0.0
    with pytest.raises(StepFailure):
        advance(s, 1e-7, grid, Params(),
                on_step=lambda prev, new, dt: seen.append(dt))
    assert outcomes.count("accepted") == len(seen) > 0
    assert outcomes.count("rejected") > len(seen)


def _beta150_bump():
    # the default bump on which beta = 150 fails dominance in rounding
    grid = build_grid(50.0, 500)
    spec = ICSpec(kind="bump", amp_v=0.3, amp_u=0.3, amp_theta=0.3,
                  center=6.0, width=1.0)
    return make_initial_data(grid, spec), grid, Params(beta=150.0)


def test_advance_retries_steps_that_fail_dominance(monkeypatch):
    """At beta = 150 conduction swamps the hot rows of the default bump:
    the first try fails dominance in rounding and is counted as rejected,
    and advance halves the step until a try is accepted, then completes.
    At beta = 400 no try within the retries passes, and advance fails
    with the last good state."""
    s, grid, params = _beta150_bump()
    dt = stable_dt(s, grid, params, StepControl())
    with pytest.raises(ArithmeticError, match="not strictly dominant"):
        step_imex(s, dt, grid, params)

    outcomes = _counting_step_imex(monkeypatch, stepper)
    seen = []
    out = advance(s, 0.5, grid, params,
                  on_step=lambda prev, new, dt: seen.append(dt))
    assert out.t == 0.5 and admissible(out)
    k = outcomes.index("accepted")
    assert k > 0 and seen[0] == dt / 2 ** k
    assert outcomes.count("accepted") == len(seen)

    with pytest.raises(StepFailure, match="not strictly dominant") as err:
        advance(s, 0.5, grid, Params(beta=400.0))
    assert err.value.state.t == 0.0 and admissible(err.value.state)


def test_step_looks_up_substeps_on_every_try(monkeypatch):
    """step_imex calls its three substeps through the stepper module, so
    wrappers there see every try of advance, the rejected ones included:
    at beta = 150 the rejected tries fail in the temperature rows, after
    the volume update and the velocity solve have run."""
    s, grid, params = _beta150_bump()
    tries = _counting_step_imex(monkeypatch, stepper)
    seen = {name: _counting_step_imex(monkeypatch, stepper, name)
            for name in ("update_volume", "solve_velocity",
                         "solve_temperature")}
    advance(s, 0.5, grid, params)
    assert tries.count("rejected") > 0
    assert seen["update_volume"] == seen["solve_velocity"] == \
        ["accepted"] * len(tries)
    assert seen["solve_temperature"] == tries


def test_rejected_try_reuses_conduction_numerator(monkeypatch):
    """theta**beta once per accepted state under retries: the step that
    makes a state computes its numerator only once every guard has
    passed, and a rejected try leaves the old state's numerator kept."""
    s, grid, params = _beta150_bump()
    calls = []
    inner = core.conduction_numerator
    monkeypatch.setattr(core, "conduction_numerator",
                        lambda theta, p: calls.append(p) or inner(theta, p))
    tries = _counting_step_imex(monkeypatch, stepper)
    advance(s, 0.5, grid, params)
    assert tries.count("rejected") > 0
    assert len(calls) == tries.count("accepted") + 1 == 21


def test_trajectories_deterministic():
    grid = build_grid(50.0, 200)
    spec = ICSpec(kind="bump", amp_v=0.2, amp_u=0.2, amp_theta=0.2,
                  center=6.0, width=1.0)
    a = advance(make_initial_data(grid, spec), 3.0, grid, Params())
    b = advance(make_initial_data(grid, spec), 3.0, grid, Params())
    assert np.array_equal(a.v, b.v)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.u, b.u)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10 ** 6), dt=st.floats(1e-4, 0.2))
def test_step_keeps_positive_states_positive_or_signals(seed, dt):
    """A step either returns a valid positive state or raises the retry
    signal; it never silently returns garbage."""
    rng = np.random.default_rng(seed)
    n = 24
    grid = build_grid(24.0, n)
    s = State(0.0,
              rng.uniform(0.5, 2.0, n),
              rng.uniform(0.5, 2.0, n),
              np.concatenate([rng.uniform(-1.0, 1.0, n), [0.0]]))
    try:
        out = step_imex(s, dt, grid, Params())
    except PositivityViolation:
        return
    assert np.all(out.v > 0) and np.all(out.theta > 0)
    assert np.all(np.isfinite(out.v)) and np.all(np.isfinite(out.theta))
    assert np.all(np.isfinite(out.u)) and out.u[-1] == 0.0


ic_amps = st.floats(-0.85, 0.85)    # 1 - |amp| stays above IC_FLOOR = 0.1


@settings(deadline=None, max_examples=30)
@given(n=st.integers(12, 96),
       cfl=st.floats(0.0, 1.0, exclude_min=True),
       beta=st.floats(0.0, 3.0),
       amp_v=ic_amps, amp_u=st.floats(-1.5, 1.5), amp_theta=ic_amps,
       kind=st.sampled_from(["bump", "packet"]))
def test_advance_keeps_states_valid_or_fails_with_one(n, cfl, beta, amp_v,
                                                      amp_u, amp_theta, kind):
    """advance, at any admitted cell count, CFL number, beta and initial
    data, returns a valid state or raises StepFailure carrying one."""
    grid = build_grid(24.0, n)
    params = Params(beta=beta)
    ctl = StepControl(cfl_hyp=cfl)
    spec = ICSpec(kind=kind, amp_v=amp_v, amp_u=amp_u, amp_theta=amp_theta,
                  center=4.0, width=0.75)
    s = make_initial_data(grid, spec)
    t_target = 100 * stable_dt(s, grid, params, ctl)   # about 100 steps
    try:
        out = advance(s, t_target, grid, params, ctl)
    except StepFailure as exc:
        out = exc.state
        assert out.t < t_target
    else:
        assert out.t == t_target
    assert admissible(out)


def _mms_error(n, dt_factor, t_end=0.5):
    prof = MmsProfile(amp=0.1, length=20.0)
    params = Params()
    grid = build_grid(prof.length, n)
    xc, xf = grid.centers(), grid.faces()
    s = State(0.0, np.asarray(prof.v_exact(xc, 0.0)),
              np.asarray(prof.theta_exact(xc, 0.0)),
              np.asarray(prof.u_exact(xf, 0.0)))
    dt = dt_factor * grid.h
    while s.t < t_end:
        step = min(dt, t_end - s.t)
        last = step >= t_end - s.t
        s = step_imex(s, step, grid, params, mms=prof)
        if last:
            s.t = t_end
    ev = s.v - prof.v_exact(xc, t_end)
    eu = s.u - prof.u_exact(xf, t_end)
    eth = s.theta - prof.theta_exact(xc, t_end)
    wf = np.full(n + 1, grid.h)
    wf[0] = wf[-1] = 0.5 * grid.h
    return math.sqrt(grid.h * float(np.sum(ev * ev))
                     + float(np.sum(wf * eu * eu))
                     + grid.h * float(np.sum(eth * eth)))


def test_step_first_order_with_dt_tied_to_h():
    # dt proportional to h: the first-order time error dominates, halving
    # h should roughly halve the error
    errs = [_mms_error(n, 0.1) for n in (100, 200, 400)]
    for coarse, fine in zip(errs[:-1], errs[1:]):
        assert 1.7 <= coarse / fine <= 2.5
