import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import RK45, solve_ivp

from islmsim import dynamics
from islmsim.dynamics import (
    FULL_MODE,
    IntegrationError,
    Leg,
    Trajectory,
    _window_traversals,
    attach_to_branch,
    cycle_points,
    densify_polyline,
    detect_cycle,
    detect_jumps,
    excess_money_scale,
    hausdorff_distance,
    integrate,
    reduced_simulate,
)
from islmsim.geometry import find_equilibria, shift_lm, trace_lm_isocline
from islmsim.model import excess_goods, excess_money, excess_money_many
from islmsim.policy import FiscalDrive, Scenario, apply_scenario
from islmsim.reference import no_trap_spec, reference_spec, steep_is_spec, three_window_spec

from oracles import full_period_by_events, reduced_leg_time, reduced_period_by_quadrature


# ---------------------------------------------------------------------------
# full-system integration

def test_trajectory_requires_increasing_time():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0, 1.0]), np.zeros(3), np.zeros(3),
                   "full-epsilon", "x")


def test_trajectory_samples_are_read_only(ref_spec, ref_reduced_cycle):
    traj, _ = ref_reduced_cycle
    with pytest.raises(ValueError):
        traj.r[0] = 1.0
    full = integrate(ref_spec, 1.5, 0.01, 1.0, stride=0.1)
    with pytest.raises(ValueError):
        full.r[:] = 0.0
    # the caller's own array keeps its flags
    t = np.array([0.0, 1.0])
    Trajectory(t, np.zeros(2), np.zeros(2), "full-epsilon", "x")
    t[0] = -1.0


@pytest.mark.parametrize("make_spec, eps, t_start, t_end, stride, drive_slope", [
    pytest.param(reference_spec, 1e-2, 0.0, 2 * 6.1 / 1e-2, 1.0, None, id="reference-free"),
    pytest.param(three_window_spec, 1e-2, 0.0, 2 * 6.1 / 1e-2, 1.0, None,
                 id="three-window-free"),
    pytest.param(reference_spec, 1e-3, 0.0, 300.0, 1.0, 0.01, id="reference-ramp"),
    # several samples in each step, as at eps 1e-2 and stride 0.1
    pytest.param(reference_spec, 1e-2, 0.0, 2 * 6.1 / 1e-2, 0.1, None,
                 id="reference-free-dense"),
    # a later start, as in every full-mode scenario part after the first
    pytest.param(reference_spec, 1e-2, 3.3, 3.3 + 6.1 / 1e-2, 0.37, None,
                 id="reference-free-late-start"),
])
def test_integrate_matches_an_independent_rk45_run(make_spec, eps, t_start, t_end, stride,
                                                   drive_slope):
    # the same RK45 problem with a right-hand side from the public excess
    # functions, income clamped at 0, gives the same samples bit for bit
    spec = make_spec(epsilon=eps)
    p = spec.params
    y0, r0, rtol, atol = 1.5, 0.01, 1e-8, 1e-10
    traj = integrate(spec, y0, r0, t_end, rtol=rtol, atol=atol, stride=stride,
                     t_start=t_start, drive_slope=drive_slope)

    def rhs(_t, state):
        y, r = max(state[0], 0.0), state[1]
        dy = (p.epsilon * p.alpha * excess_goods(y, r, spec) if drive_slope is None
              else drive_slope)
        return dy, p.beta * excess_money(y, r, spec)

    t_eval = np.linspace(t_start, t_end, int(round((t_end - t_start) / stride)) + 1)
    sol = solve_ivp(rhs, (t_start, t_end), (y0, r0), method="RK45", rtol=rtol, atol=atol,
                    t_eval=t_eval)
    assert sol.success
    assert np.array_equal(traj.t, sol.t)
    assert np.array_equal(traj.y, sol.y[0])
    assert np.array_equal(traj.r, sol.y[1])


def test_rk45_has_what_integrate_reads_and_sets():
    # integrate reads each step's stages K, the interpolant matrix P, t_old
    # and y_old, and sets fun so that RK45 calls the right-hand side directly
    floor = "integrate needs scipy >= 1.9 (pyproject.toml)"
    calls = []

    def rhs(t, y):
        calls.append(t)
        return (-y[0], 0.0)

    solver = RK45(lambda t, y: (-y[0], 0.0), 0.0, (1.0, 0.0), 1.0)
    solver.fun = rhs
    solver.step()
    for name in ("K", "P", "t_old", "y_old"):
        assert hasattr(solver, name), f"RK45 has no {name}: {floor}"
    assert solver.K.shape == (7, 2) and solver.P.shape == (7, 4), floor
    assert len(calls) == 6, f"RK45 did not call the fun set on it once a stage: {floor}"


def test_a_failure_mid_run_reports_the_last_sample(monkeypatch):
    # the samples of sampled steps are written BATCH_STEPS steps at a time;
    # a failure after more than one batch, part-way into the next, must
    # still report the last grid sample the steps before it covered
    spec = reference_spec(epsilon=1e-2)
    t_end, stride = 2 * 6.1 / 1e-2, 0.1
    whole = integrate(spec, 1.5, 0.01, t_end, stride=stride)
    grid = whole.t
    step, reached, sampled = dynamics.RK45.step, [], []
    fail_at = 2 * dynamics.BATCH_STEPS + dynamics.BATCH_STEPS // 2

    def failing_step(self):
        if len(sampled) == fail_at:
            self.status = "failed"
            return "forced failure"
        t_old = self.t
        message = step(self)
        reached.append(self.t)
        if np.any((grid > t_old) & (grid <= self.t)):
            sampled.append(self.t)
        return message

    monkeypatch.setattr(dynamics.RK45, "step", failing_step)
    with pytest.raises(IntegrationError, match="forced failure") as failure:
        integrate(spec, 1.5, 0.01, t_end, stride=stride)
    k = int(np.searchsorted(grid, reached[-1], side="right")) - 1
    t, y, r = re.match(r"integration failed at t=(\S+) \(y=(\S+), r=(\S+)\):",
                       str(failure.value)).groups()
    assert (float(t), float(y), float(r)) == (grid[k], whole.y[k], whole.r[k])


@pytest.mark.parametrize("kw, name", [
    ({"stride": 0.0}, "stride"),
    ({"stride": -1.0}, "stride"),
    ({"stride": math.nan}, "stride"),
    ({"stride": math.inf}, "stride"),
    ({"stride": 1e-320}, "stride"),
    ({"t_end": math.inf}, "t_end"),
    ({"t_end": math.nan}, "t_end"),
    ({"t_start": -math.inf}, "t_start"),
    ({"t_start": math.nan}, "t_start"),
])
def test_integrate_rejects_a_bad_time_grid_by_name(ref_spec, kw, name):
    args = {"t_end": 10.0, **kw}
    with pytest.raises(ValueError, match=name):
        integrate(ref_spec, 1.5, 0.01, **args)


def test_integrate_fails_on_steps_that_could_never_reach_the_horizon():
    # a money slope of 1e300 holds RK45's steps near 1e-299; the validator
    # rejects such a model, so only a direct call integrates it
    spec = no_trap_spec()
    spec = dataclasses.replace(spec, money=dataclasses.replace(spec.money, l_slope=1e300))
    with pytest.raises(IntegrationError, match="integration failed at t=0.0 .* steps in a row"):
        integrate(spec, 1.5, 0.01, 20.0)


def test_integrate_holds_each_sample_once():
    # At eps 1e-3 and stride 1.0 RK45 takes many steps per sample; a chunk
    # of samples kept per sampled step, stacked at the end, peaks at about
    # 14x the output.  Samples written in place peak near 1.4x.
    # A first, untraced run builds the model's evaluators and fills the
    # interpreter's free lists, which tracemalloc would count as held.
    spec = reference_spec(epsilon=1e-3)
    integrate(spec, 1.5, 0.01, 3000.0, stride=1.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        traj = integrate(spec, 1.5, 0.01, 3000.0, stride=1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(traj) == 3001
    assert peak <= 2 * (traj.t.nbytes + traj.y.nbytes + traj.r.nbytes)


def test_integrate_raises_when_income_leaves_the_domain(ref_spec):
    # a falling drive takes income from 0.5 to -0.5
    with pytest.raises(IntegrationError, match="income left the domain"):
        integrate(ref_spec, 0.5, 0.01, 100.0, stride=1.0, drive_slope=-0.01)


def test_integration_stays_at_stable_equilibrium(ref_domain):
    spec = no_trap_spec()
    eq = find_equilibria(spec, ref_domain["y_range"])[0]
    traj = integrate(spec, eq.y, eq.r, 500.0, stride=1.0)
    assert np.max(np.abs(traj.y - eq.y)) < 1e-6
    assert np.max(np.abs(traj.r - eq.r)) < 1e-6


def test_integration_self_convergence(ref_domain):
    spec = no_trap_spec()
    final = []
    for factor in (1.0, 0.5):
        traj = integrate(spec, 2.0, 0.02, 300.0, rtol=1e-8 * factor,
                         atol=1e-10 * factor, stride=1.0)
        final.append((traj.y[-1], traj.r[-1]))
    dy = abs(final[0][0] - final[1][0])
    dr = abs(final[0][1] - final[1][1])
    assert dy < 10 * 1e-8 * max(1.0, abs(final[0][0]))
    assert dr < 10 * 1e-8


def test_integration_rejects_bad_horizon(ref_spec):
    with pytest.raises(ValueError):
        integrate(ref_spec, 1.0, 0.01, 0.0)


# ---------------------------------------------------------------------------
# singular limit

def test_reduced_cycle_skeleton(ref_spec, ref_isocline, ref_reduced_cycle):
    traj, cycle = ref_reduced_cycle
    assert len(traj.jumps) >= 4
    fold_ys = sorted(f.y for f in ref_isocline.folds)
    for j in traj.jumps:
        nearest = min(fold_ys, key=lambda fy: abs(fy - j.y_at_jump))
        assert j.y_at_jump == pytest.approx(nearest, abs=1e-9)
        # both jump endpoints sit on the isocline at the same income
        assert abs(excess_money(j.y_at_jump, j.r_from, ref_spec)) < 1e-10
        assert abs(excess_money(j.y_at_jump, j.r_to, ref_spec)) < 1e-10
    ups = {j.y_at_jump for j in traj.jumps if j.direction == "up"}
    downs = {j.y_at_jump for j in traj.jumps if j.direction == "down"}
    assert ups == {max(fold_ys)}
    assert downs == {min(fold_ys)}


def test_reduced_requires_stable_branch(ref_spec, ref_isocline):
    unstable = next(b for b in ref_isocline.branches if b.stability == "unstable")
    with pytest.raises(ValueError):
        reduced_simulate(ref_spec, 2.0, unstable, 5.0, ref_isocline)


def test_reduced_converges_to_equilibrium_when_is_crosses_the_arc(ref_domain):
    spec = steep_is_spec()
    iso = trace_lm_isocline(spec, ref_domain["y_range"], 700,
                            ref_domain["r_range"], 500)
    eqs = find_equilibria(spec, ref_domain["y_range"], iso)
    e_low = next(e for e in eqs if e.classification.startswith("stable")
                 and e.y > 2.5)
    branch, _ = attach_to_branch(spec, iso, 1.6, 0.0)
    traj = reduced_simulate(spec, 1.6, branch, 60.0, iso)
    assert len(traj.jumps) == 0
    # parks at the crossing, up to the branch interpolation resolution
    assert traj.y[-1] == pytest.approx(e_low.y, abs=1e-3)
    assert abs(traj.y[-1] - traj.y[-2]) < 1e-9
    assert detect_cycle(traj, spec) is None


def test_attach_resolves_fast_flow_direction(ref_spec, ref_isocline):
    # between the unstable arc and the top branch the flow relaxes upward
    branch, r = attach_to_branch(ref_spec, ref_isocline, 2.0, 0.09)
    assert branch.stability == "stable"
    assert r > 0.09
    # below the unstable arc it relaxes down to the bottom branch
    branch2, r2 = attach_to_branch(ref_spec, ref_isocline, 2.0, 0.03)
    assert r2 < 0.03
    assert branch2.index != branch.index


def test_attach_at_a_knee_income_lands_on_the_knee_of_a_stable_branch(ref_spec, ref_isocline):
    # at a fold income the flow from the stable side stops at the knee, the
    # end of the stable branch; the unstable branch ends there too
    for i, knee in enumerate(ref_isocline.folds):
        below = knee.kind == "lower-knee"
        branch, r = attach_to_branch(ref_spec, ref_isocline, knee.y,
                                     knee.r - 0.01 if below else knee.r + 0.01)
        assert r == knee.r
        assert branch.stability == "stable"
        assert (branch.hi_end if below else branch.lo_end) == ("fold", i)


def test_attach_past_the_traced_income_range_raises(ref_spec, ref_isocline):
    # the money market has a root at income 5.5, but the isocline covers
    # incomes 0-5 only, so no branch holds it
    with pytest.raises(ValueError, match="no isocline branch holds the root"):
        attach_to_branch(ref_spec, ref_isocline, 5.5, 0.05)


def test_reduced_samples_lie_exactly_on_the_isocline(ref_spec, ref_reduced_cycle):
    traj, _ = ref_reduced_cycle
    assert np.abs(excess_money_many(traj.y, traj.r, ref_spec)).max() <= 1e-10


def test_reduced_period_matches_the_rate_quadrature(ref_spec, ref_domain, ref_reduced_cycle):
    _, cycle = ref_reduced_cycle
    want = reduced_period_by_quadrature(ref_spec, ref_domain["y_range"], ref_domain["r_range"])
    assert want == pytest.approx(6.0104710, abs=1e-7)
    assert cycle.period == pytest.approx(want, abs=1e-8)


def test_reduced_up_jumps_repeat_at_one_period(ref_reduced_cycle):
    traj, _ = ref_reduced_cycle
    gaps = np.diff([j.t_start for j in traj.jumps if j.direction == "up"])
    assert len(gaps) >= 6
    assert np.ptp(gaps[:6]) <= 1e-12


def test_ramp_reaches_its_fold_at_the_closed_form_time(ref_spec, ref_isocline, ref_domain):
    fold = next(f for f in ref_isocline.folds if f.kind == "lower-knee")
    y0, t0, t1, y_to = 1.5, 0.5, 3.5, fold.y + 0.6
    _, r0 = attach_to_branch(ref_spec, ref_isocline, y0, 0.01)
    ramp = FiscalDrive(t0, t1, y_to=y_to)
    result = apply_scenario(ref_spec, Scenario((ramp,), 4.0), y0, r0,
                            y_range=ref_domain["y_range"], r_range=ref_domain["r_range"])
    # the state drifts freely until t0, where the ramp takes it from y_a
    traj = result.trajectory
    (y_a,) = traj.y[traj.t == t0]
    jump = result.jumps[0]
    assert jump.direction == "up"
    assert jump.t_start == pytest.approx(t0 + (fold.y - y_a) / ((y_to - y_a) / (t1 - t0)),
                                         abs=1e-12)


def test_reduced_free_flow_settles_on_the_equilibrium_from_one_side(ref_domain):
    spec = steep_is_spec()
    iso = trace_lm_isocline(spec, ref_domain["y_range"], 700,
                            ref_domain["r_range"], 500)
    e_low = next(e for e in find_equilibria(spec, ref_domain["y_range"], iso)
                 if e.classification.startswith("stable") and e.y > 2.5)
    branch, _ = attach_to_branch(spec, iso, 1.6, 0.0)
    traj = reduced_simulate(spec, 1.6, branch, 60.0, iso)
    # income rises towards the crossing, never passes it and ends on it
    assert np.all(np.diff(traj.y) >= 0.0)
    assert np.all(traj.y <= e_low.y)
    assert traj.y[-1] == pytest.approx(e_low.y, abs=1e-9)
    assert np.abs(excess_money_many(traj.y, traj.r, spec)).max() <= 1e-10


@pytest.mark.parametrize("make_spec, y0, r0", [
    pytest.param(steep_is_spec, 1.6, 0.0, id="steep-is"),
    pytest.param(no_trap_spec, 0.5, 0.0, id="no-trap-from-below"),
    pytest.param(no_trap_spec, 4.95, 0.2, id="no-trap-from-above"),
])
def test_equilibrium_bound_leg_keeps_the_quadrature_clock(make_spec, y0, r0, ref_domain):
    # a leg heading for an equilibrium never reaches it in finite time; the
    # sample times on the way are the slow time of dt/dR from the start rate
    spec = make_spec()
    iso = trace_lm_isocline(spec, ref_domain["y_range"], 700, ref_domain["r_range"], 500)
    branch, _ = attach_to_branch(spec, iso, y0, r0)
    traj = reduced_simulate(spec, y0, branch, 60.0, iso)
    assert len(traj.jumps) == 0 and len(traj) == 2001
    for t in (1.0, 3.0, 10.0, 20.0):
        k = int(np.searchsorted(traj.t, t))
        assert traj.t[k] - traj.t[0] == pytest.approx(
            reduced_leg_time(spec, traj.r[0], traj.r[k]), abs=1e-10)


def test_a_leg_reads_the_instant_of_its_own_incomes_and_rates(ref_spec, ref_isocline,
                                                              ref_domain):
    # free legs of the relaxation cycle and the driven leg of a ramp: the
    # instant a leg gives for an income or rate on its way is the one at
    # which its motion is there
    free = apply_scenario(ref_spec, Scenario((), 8.0), 1.5, 0.01,
                          y_range=ref_domain["y_range"], r_range=ref_domain["r_range"])
    driven = apply_scenario(ref_spec, Scenario((FiscalDrive(0.0, 3.5, y_to=3.5),), 3.5), 2.8,
                            0.02, y_range=ref_domain["y_range"], r_range=ref_domain["r_range"])
    legs = [leg for leg in free.legs + driven.legs if isinstance(leg, Leg)]
    assert {leg.clock is None for leg in legs} == {True, False}
    for leg in legs:
        for s in (0.25, 0.5, 0.75):
            y = leg.y0 + s * (leg.y1 - leg.y0)
            t = leg.time_at_income(y)
            assert leg.t0 < t < leg.t1
            (y_t,), (r_t,) = leg.at(np.array([t]))
            assert y_t == pytest.approx(y, rel=1e-9)
            assert leg.time_at_rate(r_t) == pytest.approx(t, rel=1e-9)


def test_reduced_runs_solve_no_ode(monkeypatch, ref_spec, ref_isocline, ref_domain):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a singular-limit run called an ODE solver")

    monkeypatch.setattr(dynamics, "solve_ivp", refuse)
    monkeypatch.setattr(dynamics, "RK45", refuse)
    # free: the relaxation cycle, through folds and jumps
    branch, r0 = attach_to_branch(ref_spec, ref_isocline, 1.5, 0.01)
    assert len(reduced_simulate(ref_spec, 1.5, branch, 20.0, ref_isocline).jumps) >= 4
    # driven: a fiscal ramp through the lower knee
    fold = next(f for f in ref_isocline.folds if f.kind == "lower-knee")
    result = apply_scenario(ref_spec, Scenario((FiscalDrive(0.5, 3.5, y_to=fold.y + 0.6),), 4.0),
                            1.5, r0, y_range=ref_domain["y_range"],
                            r_range=ref_domain["r_range"])
    assert result.jumps[0].direction == "up"
    # equilibrium-bound: the steep IS line crosses the lower stable arc
    spec = steep_is_spec()
    iso = trace_lm_isocline(spec, ref_domain["y_range"], 700, ref_domain["r_range"], 500)
    branch, _ = attach_to_branch(spec, iso, 1.6, 0.0)
    traj = reduced_simulate(spec, 1.6, branch, 60.0, iso)
    assert traj.y[-1] == pytest.approx(3.2150690951772174, abs=1e-9)


def test_reduced_run_started_on_the_equilibrium_rests_there(ref_domain):
    # starts within a few ulps of R*, where the goods excess is rounding:
    # the leg cannot resolve its clock and the state rests
    spec = steep_is_spec()
    iso = trace_lm_isocline(spec, ref_domain["y_range"], 700, ref_domain["r_range"], 500)
    e_low = next(e for e in find_equilibria(spec, ref_domain["y_range"], iso)
                 if e.classification.startswith("stable") and e.y > 2.5)
    branch = iso.branches[e_low.branch_index]
    for y0 in (e_low.y, np.nextafter(e_low.y, 0.0), np.nextafter(e_low.y, 9.0)):
        traj = reduced_simulate(spec, y0, branch, 10.0, iso)
        assert np.all(np.isfinite(traj.r))
        assert np.abs(traj.r - e_low.r).max() <= 1e-14
        assert np.abs(traj.y - e_low.y).max() <= 1e-12


# ---------------------------------------------------------------------------
# jump detection

def test_no_jumps_at_equilibrium(ref_domain):
    spec = no_trap_spec()
    eq = find_equilibria(spec, ref_domain["y_range"])[0]
    traj = integrate(spec, eq.y, eq.r, 200.0, stride=0.5)
    assert detect_jumps(traj, spec) == []


def test_two_jumps_per_reduced_period(ref_spec, ref_reduced_cycle):
    traj, cycle = ref_reduced_cycle
    events = detect_jumps(traj, ref_spec)
    assert len(events) == len(traj.jumps)
    per_period = [j for j in events
                  if cycle.t_start <= j.t_start <= cycle.t_start + cycle.period]
    assert len(per_period) == 2
    assert {j.direction for j in per_period} == {"up", "down"}


def _synthetic(t, r, y=3.0):
    t = np.asarray(t, dtype=float)
    return Trajectory(t, np.full(len(t), y), np.asarray(r, dtype=float), FULL_MODE, "synthetic")


def test_excursion_that_returns_to_its_gap_is_no_jump(ref_spec):
    # the reference window spans rates (0.04, 0.10); a canard enters it from
    # below and falls back, the later excursion crosses it
    r = [0.02, 0.03, 0.05, 0.08, 0.09, 0.06, 0.03, 0.035, 0.07, 0.12, 0.13]
    jumps = detect_jumps(_synthetic(range(len(r)), r), ref_spec)
    assert [(j.t_start, j.t_end, j.r_from, j.r_to, j.direction) for j in jumps] == \
        [(7.0, 9.0, 0.035, 0.12, "up")]


def test_first_exit_of_a_run_started_inside_a_window_is_no_jump(ref_spec):
    r = [0.07, 0.09, 0.11, 0.13, 0.12, 0.08, 0.05, 0.03]
    jumps = detect_jumps(_synthetic(range(len(r)), r), ref_spec)
    assert [(j.t_start, j.t_end, j.direction) for j in jumps] == [(4.0, 7.0, "down")]


def test_a_crossing_cut_by_a_spec_change_is_one_jump(ref_spec):
    # the step moves the window to (0.035, 0.095): the rate 0.07 at the cut
    # is inside it under both specs
    shifted = shift_lm(ref_spec, d_pi=0.005)
    a = _synthetic([0.0, 1.0, 2.0, 3.0], [0.02, 0.03, 0.05, 0.07])
    b = _synthetic([3.0, 4.0, 5.0], [0.07, 0.09, 0.12])
    jumps = _window_traversals([(a, ref_spec), (b, shifted)])
    assert [(j.t_start, j.t_end, j.r_from, j.r_to, j.direction) for j in jumps] == \
        [(1.0, 5.0, 0.03, 0.12, "up")]


def test_a_spec_change_that_moves_a_window_across_the_state_is_no_jump(ref_spec):
    # the step moves the window to (-0.03, 0.03), below the state at 0.035
    shifted = shift_lm(ref_spec, d_pi=0.07)
    a = _synthetic([0.0, 1.0, 2.0], [0.02, 0.03, 0.035])
    b = _synthetic([2.0, 3.0, 4.0], [0.035, 0.034, 0.033])
    assert _window_traversals([(a, ref_spec), (b, shifted)]) == []


def test_reduced_jumps_are_found_again_from_the_fold_rate(ref_spec, ref_reduced_cycle):
    traj, _ = ref_reduced_cycle
    found = detect_jumps(traj, ref_spec)
    assert len(found) == len(traj.jumps)
    for j, want in zip(found, traj.jumps):
        assert (j.direction, j.y_at_jump, j.r_from, j.r_to, j.t_end) == \
            (want.direction, want.y_at_jump, want.r_from, want.r_to, want.t_start)


def test_full_run_jump_directions_match_reduced(ref_spec, eps_ladder, ref_isocline):
    spec, traj, cycle = eps_ladder[1e-3]
    assert len(cycle.jumps) == 2
    fold_ys = sorted(f.y for f in ref_isocline.folds)
    for j in cycle.jumps:
        if j.direction == "up":
            assert j.y_at_jump == pytest.approx(max(fold_ys), rel=0.02)
        else:
            assert j.y_at_jump == pytest.approx(min(fold_ys), rel=0.02)


# ---------------------------------------------------------------------------
# cycle detection

def test_cycle_counterclockwise_and_reversal(ref_spec, ref_reduced_cycle):
    traj, cycle = ref_reduced_cycle
    assert cycle.orientation == "counterclockwise"
    # reversing the arrow of time flips the orientation
    t_rev = traj.t[-1] - traj.t[::-1]
    keep = np.concatenate([[True], np.diff(t_rev) > 0])
    rev = Trajectory(t_rev[keep], traj.y[::-1][keep], traj.r[::-1][keep],
                     traj.mode, traj.spec_id)
    back = detect_cycle(rev, ref_spec)
    assert back is not None
    assert back.orientation == "clockwise"


def test_cycle_orientation_start_invariance(ref_spec, ref_isocline):
    for y0, r0 in ((1.5, 0.01), (2.6, 0.12), (3.0, 0.005)):
        branch, _ = attach_to_branch(ref_spec, ref_isocline, y0, r0)
        traj = reduced_simulate(ref_spec, y0, branch, 40.0, ref_isocline)
        cycle = detect_cycle(traj, ref_spec)
        assert cycle is not None
        assert cycle.orientation == "counterclockwise"
        assert cycle.period == pytest.approx(6.011, rel=0.01)


def test_no_cycle_without_trap_window(ref_domain):
    spec = no_trap_spec()
    for y0, r0 in ((0.5, 0.0), (2.0, 0.1), (4.8, -0.02)):
        traj = integrate(spec, y0, r0, 800.0, stride=1.0)
        assert detect_cycle(traj, spec) is None
        # the relaxation onto the only branch crosses no window
        assert detect_jumps(traj, spec) == []


def test_every_epsilon_cycle_has_one_jump_each_way_away_from_its_edges(eps_ladder):
    for eps, (spec, traj, cycle) in eps_ladder.items():
        assert sorted(j.direction for j in cycle.jumps) == ["down", "up"], eps
        stride = traj.t[1] - traj.t[0]
        for j in detect_jumps(traj, spec):
            for edge in (cycle.t_start, cycle.t_start + cycle.period):
                assert abs(j.t_start - edge) > stride, (eps, j)


def test_full_period_does_not_move_with_the_stride(eps_ladder):
    # the run of the eps_ladder fixture, there sampled at stride 0.1
    spec, _, fine = eps_ladder[1e-2]
    t_end = 3.0 * 6.1 / 1e-2
    coarse = detect_cycle(integrate(spec, 1.5, 0.01, t_end, stride=1.0), spec)
    assert coarse is not None
    assert coarse.period == pytest.approx(fine.period, rel=1e-7)
    # both match an LSODA run that locates the crossings as events
    # (measured: 2.2e-9 at stride 0.1, 1.8e-8 at stride 1.0)
    exact = full_period_by_events(spec, 1.5, 0.01, t_end)
    for cycle in (fine, coarse):
        assert cycle.period == pytest.approx(exact, rel=1e-7)


def test_reduced_and_full_periods_agree(ref_reduced_cycle, eps_ladder):
    _, reduced_cycle = ref_reduced_cycle
    for eps, (_, _, cycle) in eps_ladder.items():
        assert cycle.period * eps == pytest.approx(reduced_cycle.period, rel=0.06)


# ---------------------------------------------------------------------------
# slow-fast structure

def test_slow_manifold_attachment(ref_spec, ref_domain, eps_ladder):
    scale = excess_money_scale(ref_spec, ref_domain["y_range"], ref_domain["r_range"])
    for eps in (1e-3, 1e-4):
        spec, traj, _ = eps_ladder[eps]
        bound = 10.0 * np.sqrt(eps) * scale
        mask = np.ones(len(traj), dtype=bool)
        pad = 20.0 * eps / 1e-3
        for j in detect_jumps(traj, spec):
            mask &= ~((traj.t >= j.t_start - pad) & (traj.t <= j.t_end + pad))
        resid = np.abs(excess_money_many(np.maximum(traj.y[mask], 0.0),
                                         traj.r[mask], spec))
        assert float(resid.max()) < bound


def test_jump_verticality_shrinks_with_epsilon(eps_ladder):
    slips = {}
    for eps in (1e-2, 1e-4):
        spec, traj, cycle = eps_ladder[eps]
        slips[eps] = max(abs(j.y_at_jump * 0.0) +
                         _jump_y_slip(traj, j) for j in cycle.jumps)
    assert slips[1e-4] < slips[1e-2]


def _jump_y_slip(traj, jump):
    m = (traj.t >= jump.t_start) & (traj.t <= jump.t_end)
    return float(np.ptp(traj.y[m])) if m.any() else 0.0


# ---------------------------------------------------------------------------
# geometry helpers

def test_hausdorff_basics():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 0.5], [1.0, 0.5]])
    assert hausdorff_distance(a, a) == 0.0
    assert hausdorff_distance(a, b) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        hausdorff_distance(a, np.empty((0, 2)))


def test_hausdorff_matches_the_pairwise_formula():
    rng = np.random.default_rng(7)
    for n_a, n_b in ((1, 1), (3, 50), (200, 17), (400, 400)):
        a, b = rng.normal(size=(n_a, 2)), rng.uniform(-2.0, 2.0, size=(n_b, 2))
        d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
        want = max(d.min(axis=1).max(), d.min(axis=0).max())
        assert hausdorff_distance(a, b) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_densify_polyline_bounds_gaps():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    dense = densify_polyline(pts, 0.05, closed=False)
    scaled = dense / np.array([1.0, 1.0])
    steps = np.hypot(*np.diff(scaled, axis=0).T)
    assert steps.max() <= 0.05 + 1e-12


def test_cycle_points_include_jump_verticals(ref_reduced_cycle):
    traj, cycle = ref_reduced_cycle
    pts = cycle_points(traj, cycle)
    up = next(j for j in cycle.jumps if j.direction == "up")
    r_probe = 0.5 * (up.r_from + up.r_to)
    near = pts[np.abs(pts[:, 0] - up.y_at_jump) < 1e-3]
    assert np.min(np.abs(near[:, 1] - r_probe)) < 5e-3


def test_cycle_counts_a_jump_cut_by_the_window_once():
    # the window starts half-way along a slow leg, so it cuts no jump
    spec = reference_spec(epsilon=1e-2)
    traj = integrate(spec, 1.5, 0.01, 3.0 * 6.1 / 1e-2, stride=0.1)
    cycle = detect_cycle(traj, spec)
    assert cycle is not None
    assert sorted(j.direction for j in cycle.jumps) == ["down", "up"]
    for j in cycle.jumps:
        assert cycle.t_start <= j.t_start < cycle.t_start + cycle.period
