from unittest import mock

import numpy as np
import pytest

from islmsim import dynamics, geometry, policy
from islmsim.dynamics import Trajectory, attach_to_branch, reduced_simulate
from islmsim.geometry import find_equilibria, is_curve, lm_roots, shift_lm, trace_lm_isocline
from islmsim.model import _LMGraph, excess_money
from islmsim.output import isocline_document, isocline_from_document
from islmsim.policy import (
    FiscalDrive,
    FiscalShift,
    MonetaryStep,
    Scenario,
    ScenarioError,
    apply_scenario,
    is_shift_equivalence_check,
    negative_rate_probe,
    plan_stabilization,
    run_with_controller,
)
from islmsim.reference import (census_runs, multiwindow_domain, reference_spec, three_window_spec,
                               two_window_spec)


@pytest.fixture
def kw(ref_domain):
    return dict(y_range=ref_domain["y_range"], r_range=ref_domain["r_range"])


@pytest.fixture
def lower_fold(ref_isocline):
    return next(f for f in ref_isocline.folds if f.kind == "lower-knee")


# ---------------------------------------------------------------------------
# scenario mechanics

def test_scenario_validation():
    with pytest.raises(ScenarioError):
        Scenario((FiscalDrive(2.0, 1.0, 3.0),), 5.0)  # inverted interval
    with pytest.raises(ScenarioError):
        Scenario((MonetaryStep(9.0),), 5.0)  # beyond horizon
    with pytest.raises(ScenarioError):
        Scenario((MonetaryStep(1.0), MonetaryStep(1.0)), 5.0)  # equal times
    with pytest.raises(ScenarioError):
        Scenario((FiscalDrive(0.0, 2.0, 3.0), FiscalDrive(1.0, 3.0, 2.0)), 5.0)


def test_empty_scenario_matches_plain_simulation(ref_spec, ref_isocline, kw):
    branch, r0 = attach_to_branch(ref_spec, ref_isocline, 1.5, 0.01)
    plain = reduced_simulate(ref_spec, 1.5, branch, 8.0, ref_isocline)
    result = apply_scenario(ref_spec, Scenario((), 8.0), 1.5, r0,
                            "singular-limit", **kw)
    traj = result.trajectory
    assert len(traj.jumps) == len(plain.jumps)
    for a, b in zip(traj.jumps, plain.jumps):
        assert a.t_start == pytest.approx(b.t_start, abs=1e-9)
        assert a.y_at_jump == pytest.approx(b.y_at_jump, abs=1e-12)
    # same final state
    assert traj.y[-1] == pytest.approx(plain.y[-1], abs=1e-9)
    assert traj.r[-1] == pytest.approx(plain.r[-1], abs=1e-9)


def test_drive_across_upper_fold_has_one_upward_jump(ref_spec, ref_isocline, kw,
                                                     lower_fold):
    ramp = FiscalDrive(0.0, 3.0, y_to=3.45, y_from=2.9)
    result = apply_scenario(ref_spec, Scenario((ramp,), 3.0), 2.9, 0.02,
                            "singular-limit", **kw)
    assert len(result.jumps) == 1
    j = result.jumps[0]
    assert j.direction == "up"
    assert j.y_at_jump == pytest.approx(lower_fold.y, abs=1e-9)
    assert j.r_from == pytest.approx(lower_fold.r, abs=1e-9)


def test_monetary_step_shifts_branches_exactly(ref_spec, ref_isocline, kw):
    delta = 0.015
    steps = (MonetaryStep(3.0, d_pi=delta),)
    result = apply_scenario(ref_spec, Scenario(steps, 6.0), 1.5, 0.01,
                            "singular-limit", **kw)
    shifted = result.final_spec
    assert shifted.params.expected_inflation == pytest.approx(
        ref_spec.params.expected_inflation + delta)
    wide = (kw["r_range"][0] - 2 * delta, kw["r_range"][1])
    for y in (1.4, 2.2, 3.0):
        base = lm_roots(y, ref_spec, wide)
        moved = lm_roots(y, shifted, wide)
        for a, b in zip(base, moved):
            assert b - a == pytest.approx(-delta, abs=1e-9)
    # income is continuous across the step; only the rate re-slaves, which is
    # recorded as a reattach event at the step instant
    reattach = [e for e in result.events if e["kind"] == "reattach"]
    assert len(reattach) == 1
    assert reattach[0]["t"] == pytest.approx(3.0, abs=1e-12)
    # each zero-time move, the fold jump and the reattachment, is drawn as a
    # corner at its rate before the move, then the landing at its instant
    moves = [(e["t"], e["r_from"], e["r_to"]) for e in result.events
             if e["kind"] in ("jump", "reattach")]
    assert len(moves) == 2
    tr = result.trajectory
    corners = np.nonzero(np.diff(tr.t) < 1e-6)[0]
    assert len(corners) == 2
    for k, (t_move, r_from, r_to) in zip(corners.tolist(), moves):
        assert tr.t[k + 1] == t_move
        assert tr.y[k + 1] == tr.y[k]
        assert (tr.r[k], tr.r[k + 1]) == (r_from, r_to)


@pytest.mark.parametrize("mode", ["singular-limit", "full-epsilon"])
def test_a_step_at_the_horizon_is_applied(ref_spec, kw, mode):
    result = apply_scenario(ref_spec, Scenario((MonetaryStep(2.0, d_pi=0.01),), 2.0),
                            1.5, 0.01, mode, **kw)
    steps = [e for e in result.events if e["kind"] == "monetary-step"]
    assert [e["t"] for e in steps] == [2.0]
    assert result.final_spec.params.expected_inflation == pytest.approx(0.03, abs=1e-15)
    assert result.trajectory.t[-1] == 2.0
    if mode == "singular-limit":
        # the reattachment lands on the shifted branch at the horizon itself;
        # both rates are read off sampled branches, hence the tolerance
        (move,) = [e for e in result.events if e["kind"] == "reattach"]
        assert move["r_to"] == pytest.approx(move["r_from"] - 0.01, abs=1e-6)
        assert result.trajectory.r[-1] == move["r_to"]


@pytest.mark.parametrize("mode", ["singular-limit", "full-epsilon"])
def test_scenario_result_keeps_the_model_timeline(ref_spec, kw, mode):
    steps = (FiscalShift(0.5, 0.05), MonetaryStep(1.0, d_pi=0.01),
             MonetaryStep(1.5, d_ms=0.1))
    result = apply_scenario(ref_spec, Scenario(steps, 2.0), 1.5, 0.01, mode, **kw)
    # the start, then one model after each instantaneous step
    assert [t for t, _ in result.models] == [0.0, 0.5, 1.0, 1.5]
    start, shifted, inflated, stocked = (m for _, m in result.models)
    assert start is ref_spec
    assert shifted.is_block.i0 == ref_spec.is_block.i0 + 0.05
    assert inflated.params.expected_inflation == ref_spec.params.expected_inflation + 0.01
    assert stocked.params.m_stock == ref_spec.params.m_stock + 0.1
    assert result.final_spec is stocked


def test_intermediate_spec_validation_names_the_step(ref_spec, kw):
    steps = (MonetaryStep(1.0, d_ms=-1.0),)  # stock drops to 1.0, still valid
    apply_scenario(ref_spec, Scenario(steps, 2.0), 1.5, 0.01,
                   "singular-limit", **kw)
    # a stock of 0.01 lifts the lowest LM branch above the IS line at low
    # income, which the validator rejects; one below zero is no model at all
    with pytest.raises(ScenarioError, match="step 0 at t=1.0 produced an invalid model: "
                                            r"\['R_IS above lowest LM branch"):
        apply_scenario(ref_spec, Scenario((MonetaryStep(1.0, d_ms=-1.99),), 2.0),
                       1.5, 0.01, "singular-limit", **kw)
    with pytest.raises(ScenarioError, match="step 0"):
        apply_scenario(ref_spec, Scenario((MonetaryStep(1.0, d_ms=-2.5),), 2.0),
                       1.5, 0.01, "singular-limit", **kw)


def test_order_sensitivity_of_money_step_and_fold_crossing(ref_spec, kw, lower_fold):
    # the drive crosses the fold at t = 2.0 without intervention
    ramp = FiscalDrive(0.0, 4.0, y_to=3.65, y_from=2.85)
    slope = (3.65 - 2.85) / 4.0
    t_cross = (lower_fold.y - 2.85) / slope
    assert 1.0 < t_cross < 3.2
    early = apply_scenario(
        ref_spec, Scenario((ramp, MonetaryStep(1.0, d_ms=0.25)), 4.0),
        2.85, 0.02, "singular-limit", **kw)
    late = apply_scenario(
        ref_spec, Scenario((ramp, MonetaryStep(3.2, d_ms=0.25)), 4.0),
        2.85, 0.02, "singular-limit", **kw)
    n_early = len([j for j in early.jumps])
    n_late = len([j for j in late.jumps])
    assert n_early == 0   # the fold moved out of the ramp's reach in time
    assert n_late == 1    # the jump had already fired


@pytest.mark.parametrize("epsilon, mode, r0, horizon, t_step, stride", [
    (None, "singular-limit", 0.02, 3.5, 1.0, None),
    (1e-2, "full-epsilon", 0.0247, 350.0, 100.0, 0.25),
], ids=["singular-limit", "full-epsilon"])
def test_a_null_step_inside_a_drive_keeps_its_end_and_jumps(epsilon, mode, r0, horizon,
                                                            t_step, stride, kw):
    # the drive's slope is set when it starts, not again at the step
    spec = reference_spec() if epsilon is None else reference_spec(epsilon=epsilon)
    ramp = FiscalDrive(0.0, horizon, y_to=3.5)
    plain, stepped = (
        apply_scenario(spec, Scenario(steps, horizon), 2.8, r0, mode, stride=stride, **kw)
        for steps in ((ramp,), (ramp, MonetaryStep(t_step))))
    assert stepped.trajectory.y[-1] == pytest.approx(3.5, abs=1e-9)
    assert [j.direction for j in stepped.jumps] == [j.direction for j in plain.jumps] == ["up"]
    for a, b in zip(stepped.jumps, plain.jumps):
        assert a.t_start == pytest.approx(b.t_start, abs=1e-9)
        assert a.y_at_jump == pytest.approx(b.y_at_jump, abs=1e-9)


# ---------------------------------------------------------------------------
# fiscal representations

def test_is_shift_equivalence_values(ref_spec):
    rep = is_shift_equivalence_check(ref_spec, 0.0)
    assert rep["predicted_shift"] == 0.0
    assert rep["consistent"]
    rep = is_shift_equivalence_check(ref_spec, 0.15)
    assert rep["predicted_shift"] == pytest.approx(0.01)
    assert rep["max_error"] < 1e-15
    assert rep["consistent"]


def test_fiscal_shift_moves_is_curve_only(ref_spec, kw):
    result = apply_scenario(ref_spec, Scenario((FiscalShift(1.0, 0.15),), 2.0),
                            1.5, 0.01, "singular-limit", **kw)
    shifted = result.final_spec
    assert is_curve(shifted).intercept - is_curve(ref_spec).intercept \
        == pytest.approx(0.01)
    for y in (1.0, 2.5):
        assert lm_roots(y, shifted, kw["r_range"]) == \
            lm_roots(y, ref_spec, kw["r_range"])


# ---------------------------------------------------------------------------
# stabilization

def test_inflation_plan_is_exact_jump_height(ref_spec, ref_isocline, lower_fold, kw):
    plan = plan_stabilization(ref_spec, lower_fold, "inflation", ref_isocline)
    landing = [r for r in lm_roots(lower_fold.y, ref_spec, kw["r_range"])
               if r > lower_fold.r + 1e-6]
    assert plan.delta == pytest.approx(min(landing) - lower_fold.r, abs=1e-12)
    assert plan.matched
    assert plan.mode == "branch-match"
    assert plan.residual < 1e-8
    # shifting down to catch an upward jump: positive delta
    assert plan.jump_direction == "up"
    assert plan.delta > 0.0
    # verify by retrace: the shifted isocline's top branch passes through the
    # fold point
    shifted = shift_lm(ref_spec, d_pi=plan.delta)
    assert abs(excess_money(lower_fold.y, lower_fold.r, shifted)) < 1e-10


def test_fall_protection_plan_has_negative_delta(ref_spec, ref_isocline, kw):
    upper = next(f for f in ref_isocline.folds if f.kind == "upper-knee")
    plan = plan_stabilization(ref_spec, upper, "inflation", ref_isocline)
    assert plan.jump_direction == "down"
    assert plan.delta < 0.0  # shift the curve upwards to catch a fall
    assert plan.matched


def test_money_plan_reports_structural_no_solution(ref_spec, ref_isocline,
                                                   lower_fold):
    plan = plan_stabilization(ref_spec, lower_fold, "money-stock", ref_isocline,
                              protect_to_y=3.6)
    assert not plan.matched
    assert plan.mode == "fold-relocation"
    assert "no stock change" in plan.diagnosis
    # the fallback delta relocates the fold exactly to the protected income
    assert plan.delta == pytest.approx(
        excess_money(3.6, lower_fold.r, ref_spec), abs=1e-12)
    assert plan.delta > 0.0


@pytest.mark.parametrize("instrument", ["inflation", "money-stock"])
def test_a_fold_read_back_from_a_document_carries_no_landing_to_plan(ref_spec, ref_isocline,
                                                                      instrument):
    # a document stores a fold's point and kind only: the fold read back
    # equals the traced one, carries no landing, and no plan can start at it
    back = isocline_from_document(isocline_document(ref_isocline))
    for fold, traced in zip(back.folds, ref_isocline.folds):
        assert fold == traced and hash(fold) == hash(traced)
        assert (fold.endpoint, fold.landing) == (-1, None)
        assert traced.endpoint >= 0 and isinstance(traced.landing, tuple)
        with pytest.raises(ValueError, match="carries no landing"):
            plan_stabilization(ref_spec, fold, instrument, back)


def test_controller_prevents_the_jump(ref_spec, lower_fold, kw):
    ramp = FiscalDrive(0.0, 3.5, y_to=3.5)
    for instrument, protect in (("inflation", None), ("money-stock", 3.6)):
        iso = trace_lm_isocline(ref_spec, kw["y_range"], 700, kw["r_range"], 500)
        plan = plan_stabilization(ref_spec, lower_fold, instrument, iso,
                                  protect_to_y=protect)
        report = run_with_controller(ref_spec, ramp, plan, 2.8, 0.02,
                                     mode="singular-limit", margin_frac=0.05,
                                     **kw)
        assert report.jumps_uncontrolled == 1
        assert report.jumps_controlled == 0
        assert not report.controller_late
        assert report.r_band_controlled <= abs(
            plan.r_target - lower_fold.r) + 1e-9
        assert report.y_fired == pytest.approx(0.95 * lower_fold.y, abs=1e-6)


def test_singular_limit_max_rates_leave_the_zero_time_moves_out(ref_spec, ref_isocline,
                                                                lower_fold, kw):
    # the uncontrolled run jumps and the controlled one reattaches, each in no
    # time; the offset of a move's corner sample (CORNER_DT) only draws it, so
    # the slow-flow rates reported do not move with it
    plan = plan_stabilization(ref_spec, lower_fold, "inflation", ref_isocline)
    ramp = FiscalDrive(0.0, 3.5, y_to=3.5)

    def max_rates():
        report = run_with_controller(ref_spec, ramp, plan, 2.8, 0.02,
                                     mode="singular-limit", **kw)
        assert (report.jumps_uncontrolled, report.jumps_controlled) == (1, 0)
        return report.max_rate_uncontrolled, report.max_rate_controlled

    want = max_rates()
    for corner_dt in (1e-7, 1e-11):
        with mock.patch.object(dynamics, "CORNER_DT", corner_dt):
            assert max_rates() == want


def test_a_reused_plan_is_unchanged_by_controller_runs(ref_spec, ref_isocline, lower_fold, kw):
    fresh = plan_stabilization(ref_spec, lower_fold, "inflation", ref_isocline)
    plan = plan_stabilization(ref_spec, lower_fold, "inflation", ref_isocline)
    ramp = FiscalDrive(0.0, 3.5, y_to=3.5)
    for _ in range(2):
        report = run_with_controller(ref_spec, ramp, plan, 2.8, 0.02,
                                     mode="singular-limit", **kw)
        assert report.t_fired is not None
    assert plan == fresh


def test_controller_traces_the_start_model_once(ref_spec, lower_fold, kw):
    # the caller traces the start model to plan; the controller's uncontrolled
    # and controlled runs reuse that trace, and only the shifted model is new
    geometry._trace_lm_isocline.cache_clear()
    iso = trace_lm_isocline(ref_spec, kw["y_range"], 700, kw["r_range"], 500)
    plan = plan_stabilization(ref_spec, lower_fold, "inflation", iso)
    report = run_with_controller(ref_spec, FiscalDrive(0.0, 3.5, y_to=3.5), plan,
                                 2.8, 0.02, mode="singular-limit", **kw)
    assert report.t_fired is not None
    info = geometry._trace_lm_isocline.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_margin_zero_full_mode_is_flagged_late(ref_spec, ref_isocline,
                                               lower_fold, kw):
    plan = plan_stabilization(ref_spec, lower_fold, "inflation", ref_isocline)
    spec = reference_spec(epsilon=1e-3)
    ramp = FiscalDrive(0.0, 50.0, y_to=3.5)
    report = run_with_controller(spec, ramp, plan, 2.8, 0.0247,
                                 mode="full-epsilon", margin_frac=0.0,
                                 horizon=50.0, stride=0.05, monitor_stride=8.0,
                                 **kw)
    assert report.controller_late
    assert any(j.t_start <= report.t_fired for j in report.controlled.jumps)


def test_controller_firing_is_no_jump_in_full_mode(ref_spec, ref_isocline,
                                                   lower_fold, kw):
    plan = plan_stabilization(ref_spec, lower_fold, "inflation", ref_isocline)
    spec = reference_spec(epsilon=1e-3)
    ramp = FiscalDrive(0.0, 50.0, y_to=3.5)
    # fired late, after the up jump: the rate's move onto the shifted branch
    # above the window is no jump, and the monitoring cuts split none
    late = run_with_controller(spec, ramp, plan, 2.8, 0.0247,
                               mode="full-epsilon", margin_frac=0.0,
                               horizon=50.0, stride=0.05, monitor_stride=8.0, **kw)
    assert [j.direction for j in late.controlled.jumps] == ["up"]
    assert late.controlled.jumps[0].t_start == pytest.approx(
        late.uncontrolled.jumps[0].t_start, abs=1e-9)
    # fired in time: the step moves the window from above the state to
    # below it, which is no jump either
    in_time = run_with_controller(spec, ramp, plan, 2.8, 0.0247,
                                  mode="full-epsilon", margin_frac=0.05,
                                  horizon=50.0, stride=0.05, monitor_stride=1.0, **kw)
    assert in_time.jumps_uncontrolled == 1
    assert in_time.jumps_controlled == 0
    assert not in_time.controller_late


def test_full_mode_controlled_drive_stops_at_its_end(ref_spec, ref_isocline,
                                                     lower_fold, kw):
    # the drive ends at t = 45, between the monitoring instants 40 and 48: the
    # controlled run stops driving there, and income stays near the target
    plan = plan_stabilization(ref_spec, lower_fold, "inflation", ref_isocline)
    ramp = FiscalDrive(0.0, 45.0, y_to=3.4)
    report = run_with_controller(reference_spec(epsilon=1e-3), ramp, plan, 2.8, 0.0247,
                                 mode="full-epsilon", margin_frac=0.05,
                                 horizon=50.0, stride=0.05, monitor_stride=8.0, **kw)
    assert report.jumps_controlled == 0
    tr = report.controlled.trajectory
    k = int(np.argmin(np.abs(tr.t - 48.0)))
    assert tr.t[k] == pytest.approx(48.0, abs=1e-9)
    assert tr.y[k] == pytest.approx(ramp.y_to, abs=0.005)


def test_full_mode_controlled_run_follows_the_uncontrolled_one_until_firing(
        ref_spec, ref_isocline, lower_fold, kw):
    plan = plan_stabilization(ref_spec, lower_fold, "inflation", ref_isocline)
    ramp = FiscalDrive(0.0, 50.0, y_to=3.5)
    report = run_with_controller(reference_spec(epsilon=1e-3), ramp, plan, 2.8, 0.0247,
                                 mode="full-epsilon", margin_frac=0.0,
                                 horizon=50.0, stride=0.05, monitor_stride=8.0, **kw)
    assert report.t_fired == 40.0
    ctrl, base = report.controlled.trajectory, report.uncontrolled.trajectory
    n = int(np.count_nonzero(base.t < report.t_fired))
    np.testing.assert_array_equal(ctrl.t[:n], base.t[:n])
    np.testing.assert_allclose(ctrl.r[:n], base.r[:n], rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("n_windows, make_spec", [(2, two_window_spec),
                                                  (3, three_window_spec)])
def test_full_mode_census_counts_one_jump_per_fold(n_windows, make_spec):
    # the outer jumps cross two or three windows and the gaps between them;
    # the extra three-window ramp lands between windows, then jumps on
    eps = 1e-2
    spec, dom = make_spec(epsilon=eps), multiwindow_domain()
    horizon = 4.0 / eps
    runs = [(run["y0"], run["r0_hint"], run["y_to"], [run["direction"]])
            for run in census_runs(n_windows)]
    if n_windows == 3:
        runs.append((3.3, 0.062, 4.05, ["up", "up"]))
    for y0, r0, y_to, directions in runs:
        ramp = FiscalDrive(0.0, horizon, y_to=y_to)
        result = apply_scenario(spec, Scenario((ramp,), horizon), y0, r0, "full-epsilon",
                                y_range=dom["y_range"], r_range=dom["r_range"],
                                stride=horizon / 2000.0)
        assert [j.direction for j in result.jumps] == directions, (y0, r0, y_to)


# ---------------------------------------------------------------------------
# negative-rate probe

def test_probe_reports_no_crossing_above_zero(ref_spec, kw):
    report = negative_rate_probe(ref_spec, None, 1.5, 0.01, horizon=40.0, **kw)
    assert report["status"] == "above-zero"
    assert report["crossings"] == []
    assert report["min_rate"] > 0.0


def test_full_mode_probe_books_every_zero_crossing(kw):
    # the rate crosses zero four times: down and back up in the initial
    # relaxation, in the fast fall after the down jump's arrival sample
    # (0.032 and below) and in the drift back up
    spec = shift_lm(reference_spec(epsilon=1e-2), d_pi=0.008)
    report = negative_rate_probe(spec, None, 1.5, 0.01, mode="full-epsilon",
                                 horizon=1220.0, stride=0.25, **kw)
    assert len(report["crossings"]) == 4
    assert report["status"] == "crossing"


def test_full_mode_probe_books_the_jump_crossing_at_every_stride(kw):
    # the down jump's arrival sample is above zero and its landing below: the
    # fall through zero is the jump's whether or not a sample shows it first
    spec = shift_lm(reference_spec(epsilon=1e-2), d_pi=0.008)
    kinds = {}
    for stride in (0.1, 0.25, 0.5, 1.0):
        report = negative_rate_probe(spec, None, 1.5, 0.01, mode="full-epsilon",
                                     horizon=1220.0, stride=stride, **kw)
        kinds[stride] = [c["kind"] for c in report["crossings"]]
    assert all(k == kinds[0.1] for k in kinds.values()), kinds
    assert kinds[0.1].count("jump-crossing") == 1


def test_probe_reports_crossing_after_inflation_shift(ref_spec, kw):
    low = shift_lm(ref_spec, d_pi=0.008)
    report = negative_rate_probe(low, None, 1.5, 0.01, horizon=40.0, **kw)
    assert report["min_rate"] < 0.0
    kinds = {c["kind"] for c in report["crossings"]}
    assert "jump-crossing" in kinds
    jump_cross = next(c for c in report["crossings"] if c["kind"] == "jump-crossing")
    assert jump_cross["level_from"] > 0.0 > jump_cross["level_to"]


@pytest.mark.parametrize("d_pi", [0.002, -0.002])
def test_full_mode_probe_lands_on_the_range_its_model_was_validated_on(kw, d_pi):
    # one rate range per model of a run: a jump after an inflation step lands
    # on the range the run validated the shifted model on, which widens
    # r_range on one side only
    validated, searched = {}, []
    validate, landings = policy.validate_properties, _LMGraph.landings

    def recording_validate(spec, y_range, r_range, grid_n=200):
        validated[spec._lm_graph] = tuple(r_range)
        return validate(spec, y_range, r_range, grid_n)

    def recording_landings(lm, starts, r_lo, r_hi):
        searched.append((lm, (r_lo, r_hi)))
        return landings(lm, starts, r_lo, r_hi)
    with mock.patch.object(policy, "validate_properties", recording_validate), \
            mock.patch.object(_LMGraph, "landings", recording_landings):
        report = negative_rate_probe(reference_spec(epsilon=1e-2),
                                     Scenario((MonetaryStep(100.0, d_pi=d_pi),), 700.0),
                                     1.5, 0.01, mode="full-epsilon", **kw)
    assert report["crossings"] == []
    (r_lo, r_hi), shifted = kw["r_range"], list(validated.values())[1]
    assert shifted == (min(r_lo, r_lo - d_pi), max(r_hi, r_hi - d_pi))
    assert len(validated) == 2 and len(searched) > 2
    assert all(r_range == validated[lm] for lm, r_range in searched)


def test_probe_touching_classification(ref_spec, kw):
    base = negative_rate_probe(ref_spec, None, 1.5, 0.01, horizon=40.0, **kw)
    touched = shift_lm(ref_spec, d_pi=base["min_rate"])
    report = negative_rate_probe(touched, None, 1.5, 0.01, horizon=40.0,
                                 touch_tol=1e-6, **kw)
    assert report["touching"]
    assert report["status"] == "touching"


# ---------------------------------------------------------------------------
# sample density

def _sample_density_results(spec, lower_fold, kw, y_steps, scan_n=500):
    """Every result of the reduced runs and the geometry, traced at y_steps
    incomes on a scan_n rate grid."""
    iso = trace_lm_isocline(spec, kw["y_range"], y_steps, kw["r_range"], scan_n)
    runs = dict(y_steps=y_steps, scan_n=scan_n, **kw)
    branch, r0 = attach_to_branch(spec, iso, 2.8, 0.02)
    driven = apply_scenario(spec, Scenario((FiscalDrive(0.0, 6.0, y_to=3.5),
                                            MonetaryStep(2.0, d_pi=0.004),
                                            MonetaryStep(4.0, d_ms=0.05)), 8.0),
                            2.8, 0.02, "singular-limit", **runs)
    out = [branch.interval, branch.y_lo, branch.y_hi, r0, driven.events,
           find_equilibria(spec, kw["y_range"], iso),
           reduced_simulate(spec, 2.8, branch, 4.0, iso)]
    for instrument, protect in (("inflation", None), ("money-stock", 3.6)):
        plan = plan_stabilization(spec, lower_fold, instrument, iso, protect_to_y=protect)
        report = run_with_controller(spec, FiscalDrive(0.0, 3.5, y_to=3.5), plan,
                                     2.8, 0.02, mode="singular-limit", **runs)
        out += [plan, report.to_dict(), report.controlled.trajectory]
    probe = negative_rate_probe(shift_lm(spec, d_pi=0.008),
                                Scenario((FiscalDrive(0.0, 2.0, y_to=1.0),), 12.0),
                                1.5, 0.01, **kw)
    out += [probe, driven.trajectory]
    return out


def test_results_do_not_depend_on_the_sample_density(ref_spec, lower_fold, kw):
    # the samples are drawing output: every number below comes from the
    # rate-interval table and the branches' exact end points, the one at
    # the income edge included, so neither the income sweep nor the rate
    # grid that brackets its roots moves a result
    want = _sample_density_results(ref_spec, lower_fold, kw, 700)
    for y_steps, scan_n in ((500, 500), (1400, 500), (700, 2000)):
        got = _sample_density_results(ref_spec, lower_fold, kw, y_steps, scan_n)
        for a, b in zip(got, want):
            if isinstance(a, Trajectory):  # equality is identity
                for name in ("t", "y", "r"):
                    np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
                assert a.jumps == b.jumps
            else:
                assert a == b, (y_steps, scan_n)
