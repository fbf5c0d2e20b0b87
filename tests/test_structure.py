"""Structural rules of the model, checked against the oracles only.

Folds sit at trap-window endpoint rates, so the jump released at a fold and
the money-stock plan for it follow from the window layout; the money excess
is linear in income, so one rate scan serves every income of a trace; frozen
model objects cannot change after construction.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from islmsim.dynamics import (Trajectory, _fold_landing, attach_to_branch, detect_cycle,
                              reduced_simulate)
from islmsim.geometry import (FoldPoint, _trace_lm_isocline, find_equilibria, is_curve,
                              lm_roots, shift_lm, trace_lm_isocline)
from islmsim.model import (FD_STEP_FRACTION, SIGN_DEGENERACY_TOL, ISBlock, ModelParams,
                           ModelSpec, MoneyBlock, TrapWindow, _LMGraph, build_three_phase_money,
                           excess_money, excess_money_many, excess_money_slope, short_rate,
                           start_condition, validate_properties)
from islmsim.policy import FiscalDrive, Scenario, apply_scenario, plan_stabilization
from islmsim.reference import no_trap_spec

from oracles import (_breakpoints, brute_force_equilibria, dense_scan_roots,
                     excess_money_by_quadrature, fold_positions, grid_validation,
                     rate_gap_slope, reduced_period_by_quadrature)

WIDE_Y = (0.0, 40.0)
WIDE_R = (-0.1, 0.6)


@st.composite
def trap_specs(draw, min_windows=1, max_windows=3):
    """Specs with `min_windows`-`max_windows` trap windows of random position,
    width, gap and bumps."""
    windows = []
    p = draw(st.floats(0.015, 0.05))
    for _ in range(draw(st.integers(min_windows, max_windows))):
        q = p + draw(st.floats(0.02, 0.06))
        windows.append(TrapWindow(p=p, q=q, amp_l=draw(st.floats(8.0, 25.0)),
                                  amp_m=draw(st.floats(8.0, 25.0))))
        p = q + draw(st.floats(0.015, 0.04))
    money = build_three_phase_money(0.5, 0.1, 20.0, 20.0, 2.2, 0.5, windows)
    params = ModelParams(alpha=1.0, beta=0.25, epsilon=1e-3,
                         m_stock=draw(st.floats(2.0, 2.6)),
                         maturity_premium=0.02,
                         expected_inflation=draw(st.floats(0.0, 0.03)))
    # a falling IS line (i_y < s_y) starting at R_IS(0) in (0.02, 0.6)
    i_y = draw(st.floats(0.05, 0.45))
    s_y = draw(st.floats(i_y + 0.05, 0.95))
    i_r, s_r = draw(st.floats(1.0, 15.0)), draw(st.floats(1.0, 15.0))
    i0 = 0.5 + draw(st.floats(0.02, 0.6)) * (i_r + s_r)
    is_block = ISBlock(i0=i0, i_y=i_y, i_r=i_r, s0=0.5, s_y=s_y, s_r=s_r)
    return ModelSpec(params=params, is_block=is_block, money=money)


def _window_rates(spec, r_fold, kind):
    """Endpoint rates of the window whose start (lower knee) or end (upper
    knee) is the fold rate."""
    off = spec.params.maturity_premium - spec.params.expected_inflation
    k = 0 if kind == "lower-knee" else 1
    w = min(spec.money.windows, key=lambda w: abs((w.p, w.q)[k] + off - r_fold))
    return w.p + off, w.q + off


# Two windows whose upper knees sit at one income, 2.46875 in exact arithmetic:
# the jump down from the knee at 0.1175 meets the other knee, at 0.0825, where
# the LM graph only touches that income, before the sign change at 0.03719.
TWO_KNEES_AT_ONE_INCOME = ModelSpec(
    ModelParams(1.0, 0.25, 1e-3, 2.0, 0.02, 0.0), ISBlock(1.5, 0.25, 1.0, 0.5, 0.5, 1.0),
    MoneyBlock(0.5, 0.1, 20.0, 20.0, 2.2, 0.5, (TrapWindow(0.03125, 0.0625, 8.0, 8.0),
                                                TrapWindow(0.0775, 0.0975, 8.0, 25.0))))
# A touch within rounding of the fold income can read as a touch, stopping the
# flow within the graph's quartically flat neighbourhood of that fold, or as an
# ulp's miss.
TOUCH_INCOME_TOL = 1e-12
TOUCH_RATE_TOL = 1e-4


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trap_specs())
@example(TWO_KNEES_AT_ONE_INCOME)
def test_fold_jump_lands_on_first_root_beyond_the_window(spec):
    folds = fold_positions(spec, WIDE_Y)
    assume(len(folds) == 2 * len(spec.money.windows))
    off = spec.params.maturity_premium - spec.params.expected_inflation
    for y_f, r_f, kind in folds:
        direction, _, landing = _fold_landing(spec, FoldPoint(y_f, r_f, kind), WIDE_R)
        # past the fold in its travel direction the fast flow pushes the rate
        travel = 1e-6 if kind == "lower-knee" else -1e-6
        push = excess_money_by_quadrature(spec, y_f + travel, r_f)
        assert direction == ("up" if push > 0.0 else "down")
        r_p, r_q = _window_rates(spec, r_f, kind)
        roots = dense_scan_roots(spec, y_f, WIDE_R)
        if direction == "up":
            want = [r for r in roots if r > r_q][0]
        else:
            want = [r for r in roots if r < r_p][-1]
        # dR/dt = beta E cannot pass a zero of E, so another window's fold at
        # this income stops the jump before the sign change the scan sees
        start = r_q if direction == "up" else r_p
        touches = sorted((r for y, r, _ in folds if abs(y - y_f) <= TOUCH_INCOME_TOL
                          and min(start, want) < r < max(start, want)),
                         key=lambda r: abs(r - start))
        if touches and abs(landing - touches[0]) <= TOUCH_RATE_TOL:
            assert rate_gap_slope(spec, landing - off) <= 0.0
            continue
        assert landing == pytest.approx(want, abs=1e-10)
        assert rate_gap_slope(spec, landing - off) < 0.0


def test_a_fold_jump_stops_at_another_fold_at_its_income():
    # handed the income at which the graph touches the other knee, the jump
    # lands on that knee, not on the sign change at 0.03719 below it
    lm = TWO_KNEES_AT_ONE_INCOME._lm_graph
    y_touch = float(lm.income(lm.ends[1])[()])
    assert _fold_landing(TWO_KNEES_AT_ONE_INCOME, FoldPoint(y_touch, lm.ends[3], "upper-knee"),
                         WIDE_R) == ("down", 2, lm.ends[1])


# the tracer's number of incomes on WIDE_Y
TRACE_STEPS = 700


def _assert_oracle_folds_and_monotone_branches(spec, iso):
    """The traced folds are the oracle's; stable branches rise with income and
    unstable ones fall."""
    folds = fold_positions(spec, WIDE_Y)
    assert [f.kind for f in iso.folds] == [k for _, _, k in folds]
    for f, (y_f, r_f, _) in zip(iso.folds, folds):
        assert f.y == pytest.approx(y_f, abs=1e-8)
        assert f.r == pytest.approx(r_f, abs=1e-12)
    for b in iso.branches:
        steps = np.diff(b.rs)
        rising = bool(np.all(steps > 0.0))
        falling = bool(np.all(steps < 0.0))
        assert (rising if b.stability == "stable" else falling), (b.index, b.stability)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trap_specs(min_windows=0), st.lists(st.floats(*WIDE_Y), min_size=3, max_size=3),
       st.lists(st.floats(1e-7, 1e-2), min_size=1, max_size=2))
def test_shared_rate_scan_matches_the_oracles(spec, incomes, fold_offsets):
    # random incomes, and incomes on both sides of every fold, where the
    # merging root pair closes onto the window-endpoint rate
    near = [y_f + s * off for y_f, _, _ in fold_positions(spec, WIDE_Y)
            for off in fold_offsets for s in (-1.0, 1.0)]
    for y in incomes + [y for y in near if y >= 0.0]:
        roots = lm_roots(y, spec, WIDE_R)
        want = dense_scan_roots(spec, y, WIDE_R)
        assert len(roots) == len(want), y
        assert roots == pytest.approx(want, abs=1e-9)
        # the LM graph's own roots, which landings read
        graph = [r for _, r in spec._lm_graph.roots(y, *WIDE_R)]
        assert graph == pytest.approx(want, abs=1e-9), y

    iso = trace_lm_isocline(spec, WIDE_Y, TRACE_STEPS, WIDE_R)
    _assert_oracle_folds_and_monotone_branches(spec, iso)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trap_specs(max_windows=1), st.floats(0.1, 0.9))
def test_one_window_reduced_cycle_matches_the_period_quadrature(spec, frac):
    # a relaxation oscillation: the IS line re-aimed through the window's
    # unstable arc, kept when the model is valid, both knees lie in the
    # income range and the line crosses no stable branch
    w, b = spec.money.windows[0], spec.is_block
    r_t = w.p + frac * (w.q - w.p) + spec.params.maturity_premium - spec.params.expected_inflation
    y_t = -excess_money(0.0, r_t, spec) / (spec.money.l_y - spec.money.m_y)
    i0 = b.s0 + (b.i_r + b.s_r) * r_t - (b.i_y - b.s_y) * y_t
    spec = dataclasses.replace(spec, is_block=dataclasses.replace(b, i0=i0))
    assume(validate_properties(spec, WIDE_Y, WIDE_R).passed)
    iso = trace_lm_isocline(spec, WIDE_Y, TRACE_STEPS, WIDE_R)
    assume(len(iso.folds) == 2)
    eqs = find_equilibria(spec, WIDE_Y, iso)
    assume(all(iso.branches[e.branch_index].stability == "unstable" for e in eqs))
    want = reduced_period_by_quadrature(spec, WIDE_Y, WIDE_R)
    y_mid = 0.5 * (iso.folds[0].y + iso.folds[1].y)
    for branch in (arc for arc in iso.branches if arc.stability == "stable"):
        traj = reduced_simulate(spec, y_mid, branch, 3.0 * want, iso)
        cycle = detect_cycle(traj, spec)
        assert cycle is not None
        assert sorted(j.direction for j in cycle.jumps) == ["down", "up"]
        assert cycle.orientation == "counterclockwise"
        assert cycle.period == pytest.approx(want, abs=1e-8)


@st.composite
def rate_ranges(draw):
    """Rate ranges from wide to cut close above or below the windows, so some
    fold jumps find no branch inside them."""
    r_lo = draw(st.floats(-0.1, 0.06))
    return r_lo, r_lo + draw(st.floats(0.05, 0.5))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trap_specs(), rate_ranges())
def test_fold_landing_condition_fails_exactly_when_a_jump_would_raise(spec, r_range):
    iso = trace_lm_isocline(spec, WIDE_Y, TRACE_STEPS, r_range)
    raised, landed = [], {}
    for fold in iso.folds:
        try:
            _, k, x = _fold_landing(spec, fold, r_range)
            landed[fold.r] = (k, x.hex())
        except ValueError as exc:  # a ModelDomainError, or a non-attracting landing
            raised.append(exc)
            landed[fold.r] = str(exc)
    # the landings the condition reads, fold by fold
    seen = []
    land_folds = _LMGraph.land_folds

    def recording(self, folds, *args):
        landings = land_folds(self, folds, *args)
        seen.append({r: (x[0], x[1].hex()) if isinstance(x, tuple) else str(x)
                     for (_, r, _), x in zip(folds, landings)})
        return landings
    with mock.patch.object(_LMGraph, "land_folds", recording):
        cond = next((c for c in validate_properties(spec, WIDE_Y, r_range).conditions
                     if c.condition == "fold jumps land inside r_range"), None)
    if not iso.folds:
        assert cond is None and not seen
        return
    assert seen == [landed]
    assert cond.n_checked == len(iso.folds)
    assert cond.passed == (not raised)
    if raised:  # the condition names one of the jumps
        assert cond.detail in {str(exc) for exc in raised}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trap_specs(min_windows=0), rate_ranges(), st.floats(0.0, 40.0), st.floats(-0.2, 0.6))
def test_start_condition_passes_exactly_when_the_start_attaches(spec, r_range, y0, r0):
    iso = trace_lm_isocline(spec, WIDE_Y, TRACE_STEPS, r_range)
    cond = start_condition(spec, y0, r0, WIDE_Y, r_range)
    try:
        _, r_rest = attach_to_branch(spec, iso, y0, r0)
    except ValueError as exc:  # a ModelDomainError, or an unstable landing
        assert not cond.passed, exc
    else:
        assert cond.passed, cond.detail
        assert cond.worst_point == (y0, r_rest)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trap_specs(min_windows=0))
def test_validator_low_income_root_is_the_lowest_dense_scan_root(spec):
    # the boundary check's LM root at the low-income edge, on the rate range
    # it widens below WIDE_R by the range's width
    cond = next(c for c in validate_properties(spec, WIDE_Y, WIDE_R).conditions
                if c.condition == "R_IS above lowest LM branch at low income")
    y0, r_lm = cond.worst_point
    r_lo = min(WIDE_R[0], is_curve(spec).intercept) - (WIDE_R[1] - WIDE_R[0])
    roots = dense_scan_roots(spec, y0, (r_lo, WIDE_R[1]))
    assert roots
    assert r_lm == pytest.approx(roots[0], abs=1e-10)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trap_specs(min_windows=0), st.just(0.0) | st.floats(0.0, 5.0))
def test_validator_boundary_root_is_a_sign_change_to_a_few_ulps(spec, y_lo):
    # the LM graph inverted to a few ulps, not a bisection stopped at an
    # absolute width of 1e-14, thousands of ulps for rates this small
    cond = next(c for c in validate_properties(spec, (y_lo, y_lo + 35.0), WIDE_R).conditions
                if c.condition == "R_IS above lowest LM branch at low income")
    y0, r_lm = cond.worst_point
    width = 4 * np.spacing(abs(r_lm))
    if y0 > 0.0:
        # E(y0, .) adds k_y y0 to the graph's E(0, .) in another order, so
        # its sign change may sit anywhere in its own rounding band
        m, p = spec.money, spec.params
        f_l, f_m = m.level_parts(short_rate(r_lm, p))
        terms = abs(m.l0 - m.m0) + abs((m.l_y - m.m_y) * y0) + abs(f_l - f_m) + p.m_stock
        width += 4 * np.spacing(terms) / abs(excess_money_slope(r_lm, spec))
    near = [excess_money(y0, r, spec) for r in np.linspace(r_lm - width, r_lm + width, 17)]
    assert min(near) <= 0.0 <= max(near)


@st.composite
def validation_cases(draw):
    """A 0-3 window spec, intact or broken the way `test_model.py` breaks
    one (an investment slope above one, or money supply more income-responsive
    than demand), on a drawn domain and grid density."""
    spec = draw(trap_specs(min_windows=0))
    broken = draw(st.sampled_from([None, "investment", "income-ordering"]))
    if broken == "investment":
        spec = dataclasses.replace(spec, is_block=dataclasses.replace(spec.is_block, i_y=1.2))
    elif broken == "income-ordering":
        spec = dataclasses.replace(spec, money=dataclasses.replace(spec.money, l_y=0.1, m_y=0.5))
    y_lo, r_lo = draw(st.floats(0.0, 5.0)), draw(st.floats(-0.15, 0.05))
    y_range = (y_lo, y_lo + draw(st.floats(1.0, 40.0)))
    r_range = (r_lo, r_lo + draw(st.floats(0.1, 0.7)))
    return spec, y_range, r_range, draw(st.sampled_from([100, 137, 200]))


def _rate_slopes_near_the_tolerance(spec, y_range, r_range, grid_n):
    """For the L and the M rate slopes: how many rate nodes have a slope,
    taken at the lowest income, within rounding of SIGN_DEGENERACY_TOL, and
    that rounding band.  The grid oracle takes the same difference at every
    income, each row rounding L + l_y Y with its own ulp, so it can count such
    a node's column part signed, part degenerate."""
    m = spec.money
    rs = np.linspace(*r_range, grid_n)
    h_r = FD_STEP_FRACTION * max(1.0, r_range[1] - r_range[0])
    up = m.level_parts_many(short_rate(rs + h_r, spec.params))
    dn = m.level_parts_many(short_rate(rs - h_r, spec.params))
    near = []
    for c0, c_y, k in ((m.l0, m.l_y, 0), (m.m0, m.m_y, 1)):
        c = c0 + c_y * y_range[0]
        slope = ((c + up[k]) - (c + dn[k])) / (2 * h_r)
        top = abs(c0) + abs(c_y) * y_range[1] + max(np.abs(up[k]).max(), np.abs(dn[k]).max())
        band = 1e-10 + 2 * np.spacing(top) / (2 * h_r)
        near.append((int((np.abs(np.abs(slope) - SIGN_DEGENERACY_TOL) <= band).sum()), band))
    return dict(zip(("dL_di_S", "dM_di_S"), near))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(validation_cases())
def test_validator_matches_the_grid_oracle(case):
    spec, y_range, r_range, grid_n = case
    got = validate_properties(spec, y_range, r_range, grid_n)
    want = grid_validation(spec, y_range, r_range, grid_n)
    assert got.passed == want.passed
    assert [c.condition for c in got.conditions] == [c.condition for c in want.conditions]
    near_tol = _rate_slopes_near_the_tolerance(spec, y_range, r_range, grid_n)
    for a, b in zip(got.conditions, want.conditions):
        near, band = near_tol.get(a.condition[:7], (0, 0.0))
        assert a.passed == b.passed, a.condition
        assert a.n_checked + a.n_degenerate == b.n_checked + b.n_degenerate, a.condition
        assert abs(a.n_degenerate - b.n_degenerate) <= grid_n * near, a.condition
        if near and abs(abs(b.worst_value) - SIGN_DEGENERACY_TOL) <= band:
            continue  # the oracle's worst may be one row of a split column
        assert a.worst_point == pytest.approx(b.worst_point, abs=0.0, nan_ok=True), a.condition
        assert a.worst_value == pytest.approx(b.worst_value, abs=1e-8, nan_ok=True), a.condition


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trap_specs(min_windows=0), st.integers(0, 3))
def test_equilibria_match_the_brute_force_oracle(spec, through):
    if through < len(spec.money.windows):
        # re-aim the IS line through the middle of one window's unstable arc
        w, b = spec.money.windows[through], spec.is_block
        r_t = 0.5 * (w.p + w.q) + spec.params.maturity_premium - spec.params.expected_inflation
        y_t = -excess_money(0.0, r_t, spec) / (spec.money.l_y - spec.money.m_y)
        assume(WIDE_Y[0] < y_t < WIDE_Y[1])
        i0 = b.s0 + (b.i_r + b.s_r) * r_t - (b.i_y - b.s_y) * y_t
        spec = dataclasses.replace(spec, is_block=dataclasses.replace(b, i0=i0))
    eqs = find_equilibria(spec, WIDE_Y)
    # a root pair inside one cell of the oracle's 400 x 400 grid is beyond
    # its resolution, and so is a tangency; its finite differences and its
    # Newton steps need a few cells of room from the ends of the income range
    assume(not any(e.degenerate for e in eqs))
    assume(all(WIDE_Y[0] + 0.5 < e.y < WIDE_Y[1] - 0.5 for e in eqs))
    oracle = brute_force_equilibria(spec, WIDE_Y, WIDE_R)
    assert [e.classification for e in eqs] == [cls for _, _, cls in oracle]
    for e, (oy, orr, _) in zip(eqs, oracle):
        assert e.y == pytest.approx(oy, abs=1e-7)
        assert e.r == pytest.approx(orr, abs=1e-8)
    # each equilibrium's branch is the one of its rate interval, and covers it
    iso = trace_lm_isocline(spec, WIDE_Y, TRACE_STEPS, WIDE_R)
    for e in find_equilibria(spec, WIDE_Y, iso):
        assert e.branch_index >= 0
        assert iso.branches[e.branch_index].covers(e.y)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trap_specs(), st.data())
def test_fast_flow_lands_on_the_first_root_in_its_direction(spec, data):
    # the money excess pushes the rate up when positive and down when
    # negative; the flow stops at the first root that way, on a stable branch.
    # Starts are drawn around the folds and windows, where the rate lines
    # hold several roots, inside windows too
    iso = trace_lm_isocline(spec, WIDE_Y, TRACE_STEPS, WIDE_R)
    fold_ys = [f.y for f in iso.folds] or list(WIDE_Y)
    off = spec.params.maturity_premium - spec.params.expected_inflation
    ws = spec.money.windows
    y = data.draw(st.floats(max(min(fold_ys) - 1.0, WIDE_Y[0]),
                            min(max(fold_ys) + 1.0, WIDE_Y[1])))
    r = data.draw(st.floats(max(ws[0].p + off - 0.05, WIDE_R[0]),
                            min(ws[-1].q + off + 0.05, WIDE_R[1])))
    # within rounding of a fold income the excess at the knee is flat down to
    # rounding noise, below the scan's resolution (an exact fold income has
    # its own test in test_dynamics.py)
    assume(all(abs(y - f.y) > 1e-9 for f in iso.folds))
    roots = dense_scan_roots(spec, y, WIDE_R)
    e = excess_money(y, r, spec)
    if e > 0.0:
        ahead = [x for x in roots if x >= r]
    elif e < 0.0:
        ahead = [x for x in reversed(roots) if x <= r]
    else:
        ahead = sorted(roots, key=lambda x: abs(x - r))
    if not ahead:
        with pytest.raises(ValueError):
            attach_to_branch(spec, iso, y, r)
        return
    branch, target = attach_to_branch(spec, iso, y, r)
    assert target == pytest.approx(ahead[0], abs=1e-10)
    assert branch.stability == "stable"
    assert branch.covers(y)
    assert min(branch.rs[0], branch.rs[-1]) <= target <= max(branch.rs[0], branch.rs[-1])


def test_a_landing_on_the_income_edge_is_its_branch_end():
    # the flow from (0, 0) lands on the lowest branch at income 0, the edge of
    # WIDE_Y, where the branch ends on the graph inverted to a few ulps.  A
    # landing bracketed on a rate grid and bisected to an absolute width of
    # 1e-14 fell 436 ulps below that end, outside its own branch
    spec = ModelSpec(ModelParams(1.0, 0.25, 1e-3, 2.25, 0.02, 0.0),
                     ISBlock(1.5, 0.25, 1.0, 0.5, 0.5, 1.0),
                     MoneyBlock(0.5, 0.1, 20.0, 20.0, 2.2, 0.5,
                                (TrapWindow(0.015625, 0.0703125, 8.0, 9.0),
                                 TrapWindow(0.1015625, 0.1328125, 8.0, 8.0))))
    iso = trace_lm_isocline(spec, WIDE_Y, TRACE_STEPS, WIDE_R)
    branch, target = attach_to_branch(spec, iso, 0.0, 0.0)
    end = branch.rs[0] if branch.ys[0] == 0.0 else branch.rs[-1]
    assert branch.lo_end == ("boundary", "y_lo")
    assert target == end
    assert min(branch.rs[0], branch.rs[-1]) <= target <= max(branch.rs[0], branch.rs[-1])


def test_brute_force_oracle_finds_an_equilibrium_next_to_income_zero():
    # the equilibrium lies in the oracle's first income cell, so its Newton
    # steps take the Jacobian closer to income 0 than the difference step
    spec = dataclasses.replace(no_trap_spec(), is_block=ISBlock(
        i0=0.51, i_y=0.25, i_r=1.0, s0=0.5, s_y=0.5, s_r=1.0))
    eqs = find_equilibria(spec, WIDE_Y)
    assert len(eqs) == 1 and eqs[0].y < 0.1
    oracle = brute_force_equilibria(spec, WIDE_Y, WIDE_R)
    assert [e.classification for e in eqs] == [cls for _, _, cls in oracle]
    for e, (oy, orr, _) in zip(eqs, oracle):
        assert e.y == pytest.approx(oy, abs=1e-7)
        assert e.r == pytest.approx(orr, abs=1e-8)


def _rounded_spec(m_stock, pi_e, windows):
    money = build_three_phase_money(0.5, 0.1, 20.0, 20.0, 2.2, 0.5,
                                    [TrapWindow(*w) for w in windows])
    params = ModelParams(alpha=1.0, beta=0.25, epsilon=1e-3, m_stock=m_stock,
                         maturity_premium=0.02, expected_inflation=pi_e)
    is_block = ISBlock(i0=2.0, i_y=0.3, i_r=10.0, s0=0.5, s_y=0.5, s_r=5.0)
    return ModelSpec(params=params, is_block=is_block, money=money)


# rounded specs of the family above that root-to-branch continuation got
# wrong: it gave the lower stable branch the upper branch's root next to the
# fold at r = 0.028; it traced 3 of 4 folds when the folds at incomes 1.2728
# and 1.2883 shared one income step; it failed to link the branches at all
@pytest.mark.parametrize("m_stock, pi_e, windows", [
    pytest.param(2.397, 0.021, [(0.029, 0.059, 22.4, 20.6)], id="root-beside-a-fold"),
    pytest.param(2.2958, 0.0203, [(0.0169, 0.0522, 14.94, 8.77),
                                  (0.0684, 0.1284, 19.09, 11.99),
                                  (0.1543, 0.2132, 23.26, 22.35)],
                 id="two-folds-in-one-income-step"),
    pytest.param(2.214, 0.0088, [(0.0201, 0.0563, 12.09, 15.12),
                                 (0.0884, 0.1315, 12.14, 20.09),
                                 (0.1642, 0.201, 15.81, 10.94)],
                 id="continuation-linkage-failure"),
])
def test_isocline_topology_follows_the_window_layout(m_stock, pi_e, windows):
    spec = _rounded_spec(m_stock, pi_e, windows)
    iso = trace_lm_isocline(spec, WIDE_Y, TRACE_STEPS, WIDE_R, 500)
    _assert_oracle_folds_and_monotone_branches(spec, iso)


@settings(max_examples=60, deadline=None)
@given(trap_specs(min_windows=1), st.floats(-0.05, 0.4))
def test_scalar_and_vector_money_paths_agree_on_random_specs(spec, i):
    money = spec.money
    v_l, v_m = money.level_parts_many(np.array([i]))
    assert money.level_parts(i) == (v_l[0], v_m[0])
    w_l, w_m = money.slope_parts_many(np.array([i]))
    assert money.slope_parts(i) == (w_l[0], w_m[0])


@settings(max_examples=60, deadline=None)
@given(trap_specs(min_windows=0), st.floats(0.0, 40.0), st.floats(-0.1, 0.6))
def test_scalar_and_vector_money_excess_agree_exactly(spec, y, r):
    # the scalar evaluator bypasses `level_parts`; it must match the vector
    # path bit for bit, also one ulp either side of every segment break and
    # window endpoint (as long rates)
    off = spec.params.maturity_premium - spec.params.expected_inflation
    rates = [r]
    for b in _breakpoints(spec, -1.0, 1.0) or []:
        r_b = b + off
        rates += [np.nextafter(r_b, -np.inf), r_b, np.nextafter(r_b, np.inf)]
    for x in rates:
        assert excess_money(y, float(x), spec) == excess_money_many(y, x, spec)[()], (y, x)


@settings(max_examples=40, deadline=None)
@given(trap_specs(min_windows=1))
def test_money_parts_are_continuous_across_segment_boundaries(spec):
    money = spec.money
    # shoulder starts, window endpoints, bump midpoints and shoulder ends
    boundaries = _breakpoints(spec, -1.0, 1.0)
    assert len(boundaries) == 5 * len(money.windows)
    for b in boundaries:
        below, above = np.nextafter(b, -np.inf), np.nextafter(b, np.inf)
        for parts in (money.level_parts, money.slope_parts):
            at = parts(b)
            for x in (below, above):
                assert np.allclose(parts(float(x)), at, rtol=0.0, atol=1e-12), (parts, b, x)


def test_money_stock_plan_relocates_the_fold(all_window_specs):
    for n in (1, 2, 3):
        spec, dom = all_window_specs[n]
        iso = trace_lm_isocline(spec, dom["y_range"], dom["y_steps"], dom["r_range"],
                                dom["scan_n"])
        for y_f, r_f, kind in fold_positions(spec, dom["y_range"]):
            protect = y_f + (0.2 if kind == "lower-knee" else -0.2)
            plan = plan_stabilization(spec, FoldPoint(y_f, r_f, kind), "money-stock",
                                      iso, protect_to_y=protect)
            r_p, r_q = _window_rates(spec, r_f, kind)
            assert plan.mode == "fold-relocation"
            assert not plan.matched
            assert plan.residual == pytest.approx(r_q - r_p, abs=1e-15)
            assert "no stock change" in plan.diagnosis
            moved = fold_positions(shift_lm(spec, d_ms=plan.delta), WIDE_Y)
            y_new = next(y for y, r, k in moved if k == kind and abs(r - r_f) < 1e-12)
            assert y_new == pytest.approx(protect, abs=1e-9)


def test_model_objects_are_frozen(ref_isocline):
    traj = Trajectory(np.array([0.0, 1.0]), np.zeros(2), np.zeros(2), "full-epsilon", "x")
    for obj in (ref_isocline.branches[0], ref_isocline, traj):
        for f in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))
    assert isinstance(ref_isocline.branches, tuple)
    assert isinstance(ref_isocline.folds, tuple)
    assert [b.index for b in ref_isocline.branches] == list(range(len(ref_isocline.branches)))


def test_model_objects_compare_and_hash_by_identity(ref_spec, ref_domain, ref_reduced_cycle):
    # two tracings of one model, their branches, and a trajectory and its slice
    args = (ref_spec, ref_domain["y_range"], ref_domain["y_steps"], ref_domain["r_range"],
            ref_domain["scan_n"])
    _trace_lm_isocline.cache_clear()
    first = trace_lm_isocline(*args)
    _trace_lm_isocline.cache_clear()
    second = trace_lm_isocline(*args)
    traj, _ = ref_reduced_cycle
    for a, b in ((first, second), (first.branches[0], second.branches[0]),
                 (traj, traj.slice(traj.t[0], traj.t[-1]))):
        assert a is not b
        assert not a == b
        assert a == a
        assert len({a, b, a}) == 2


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trap_specs(), st.booleans())
def test_singular_limit_samples_lie_on_the_isocline(spec, upward):
    # a census-style ramp across every fold, then free flow: every sample,
    # jump corners and landings included, solves the money market
    iso = trace_lm_isocline(spec, WIDE_Y, TRACE_STEPS, WIDE_R)
    assume(len(iso.folds) == 2 * len(spec.money.windows))
    fold_ys = [f.y for f in iso.folds]
    y_lo, y_hi = max(min(fold_ys) - 0.5, 0.0), min(max(fold_ys) + 0.5, WIDE_Y[1])
    y0, y_to = (y_lo, y_hi) if upward else (y_hi, y_lo)
    roots = lm_roots(y0, spec, WIDE_R)
    ramp = FiscalDrive(0.0, 2.0, y_to=y_to)
    result = apply_scenario(spec, Scenario((ramp,), 4.0), y0, roots[0] if upward else roots[-1],
                            y_range=WIDE_Y, r_range=WIDE_R, y_steps=TRACE_STEPS)
    traj = result.trajectory
    assert result.jumps
    assert np.abs(excess_money_many(traj.y, traj.r, spec)).max() <= 1e-10
