"""Policy engine: timed fiscal and monetary interventions, and the
stabilization controller that shifts the LM curve to pre-empt fold jumps.

Fiscal policy appears in two equivalent guises: driving income directly
(natural in the singular limit, where income is the driven parameter) and
shifting the goods-market excess additively (natural in the full system).
Monetary steps change the expected inflation rate or the money stock at an
instant; the state stays continuous while the isocline moves under it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    CORNER_DT,
    FULL_MODE,
    REDUCED_MODE,
    JumpEvent,
    Trajectory,
    _append_vertical_move,
    _window_traversals,
    advance_reduced,
    attach_to_branch,
    detect_cycle,
    integrate,
)
# `lm_roots` stays bound here, unused: bench/test_inputs.py::
# test_tracer_wraps_every_binding_and_restores_them asserts this binding
from .geometry import FoldPoint, LMIsocline, is_curve, lm_roots, shift_lm, trace_lm_isocline
from .model import ModelSpec, excess_money, start_condition, validate_properties

__all__ = [
    "ScenarioError",
    "FiscalDrive",
    "FiscalShift",
    "MonetaryStep",
    "Scenario",
    "ScenarioResult",
    "StabilizationPlan",
    "ControllerReport",
    "preflight",
    "apply_scenario",
    "is_shift_equivalence_check",
    "plan_stabilization",
    "run_with_controller",
    "negative_rate_probe",
]


# A plan matches its branch when the shifted post-jump branch passes this close
# to the fold point.
MATCH_TOL = 1e-8


class ScenarioError(ValueError):
    """A scenario is malformed or produced an invalid intermediate model."""


@dataclass(frozen=True)
class FiscalDrive:
    """Drive income along a linear ramp between two instants.

    The slope is fixed when the drive starts, from `y_from` or else the
    income then, so a step inside the drive leaves its end point at `y_to`.
    """

    t_start: float
    t_end: float
    y_to: float
    y_from: float | None = None  # defaults to the state's income at t_start

    def __post_init__(self):
        if self.t_end <= self.t_start:
            raise ScenarioError("drive interval must have positive length")


@dataclass(frozen=True)
class FiscalShift:
    """Additive shift g to the goods excess I - S, moving the IS curve."""

    time: float
    g: float


@dataclass(frozen=True)
class MonetaryStep:
    """Instantaneous change of expected inflation and/or money stock."""

    time: float
    d_pi: float = 0.0
    d_ms: float = 0.0


@dataclass(frozen=True)
class Scenario:
    steps: tuple = ()
    horizon: float = 10.0

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ScenarioError("horizon must be positive")
        times = []
        drives = []
        for s in self.steps:
            if isinstance(s, FiscalDrive):
                if not (0.0 <= s.t_start and s.t_end <= self.horizon):
                    raise ScenarioError("drive interval must lie within the horizon")
                drives.append((s.t_start, s.t_end))
            else:
                if not 0.0 <= s.time <= self.horizon:
                    raise ScenarioError("step time must lie within the horizon")
                times.append(s.time)
        if any(t2 <= t1 for t1, t2 in zip(sorted(times), sorted(times)[1:])):
            raise ScenarioError("instantaneous step times must be strictly increasing")
        drives.sort()
        for (a1, b1), (a2, b2) in zip(drives, drives[1:]):
            if a2 < b1:
                raise ScenarioError("drive intervals must not overlap")

    def instantaneous(self):
        return sorted((s for s in self.steps if not isinstance(s, FiscalDrive)),
                      key=lambda s: s.time)

    def drives(self):
        return sorted((s for s in self.steps if isinstance(s, FiscalDrive)),
                      key=lambda s: s.t_start)


@dataclass
class ScenarioResult:
    """A scenario run; `models` holds the models in force as (t, spec) pairs:
    the start, then one after each applied step."""

    trajectory: Trajectory
    events: list[dict]
    models: list[tuple[float, ModelSpec]]

    @property
    def jumps(self) -> tuple[JumpEvent, ...]:
        return self.trajectory.jumps

    @property
    def final_spec(self) -> ModelSpec:
        return self.models[-1][1]


def _with_fiscal_shift(spec: ModelSpec, g: float) -> ModelSpec:
    return replace(spec, is_block=replace(spec.is_block, i0=spec.is_block.i0 + g))


def _r_range_after(r_range: tuple[float, float], steps) -> tuple[float, float]:
    """The rate range of the model in force after `steps`: r_range widened by
    each monetary step in turn, whose inflation shift moves branches by -d_pi."""
    r_lo, r_hi = r_range
    for d_pi in (s.d_pi for s in steps if isinstance(s, MonetaryStep)):
        r_lo, r_hi = min(r_lo, r_lo - d_pi), max(r_hi, r_hi - d_pi)
    return r_lo, r_hi


def _drive_slope(drive: FiscalDrive, y_now: float) -> float:
    y_from = drive.y_from if drive.y_from is not None else y_now
    return (drive.y_to - y_from) / (drive.t_end - drive.t_start)


def _concat(parts: list[tuple[Trajectory, ModelSpec]], spec_id: str) -> Trajectory:
    """One full-system trajectory from consecutive parts and their models,
    with the jumps across all of them."""
    ts = [parts[0][0].t]
    ys = [parts[0][0].y]
    rs = [parts[0][0].r]
    for p, _ in parts[1:]:
        skip = 1 if len(p.t) and len(ts[-1]) and p.t[0] <= ts[-1][-1] else 0
        ts.append(p.t[skip:])
        ys.append(p.y[skip:])
        rs.append(p.r[skip:])
    return Trajectory(np.concatenate(ts), np.concatenate(ys), np.concatenate(rs),
                      FULL_MODE, spec_id, tuple(_window_traversals(parts)))


def _failed(conditions) -> list[str]:
    """Each failed condition's name, with its reason when it has one."""
    return [c.condition + (f" ({c.detail})" if c.detail else "")
            for c in conditions if not c.passed]


def preflight(spec: ModelSpec, y0: float, r0: float, *,
              y_range: tuple[float, float], r_range: tuple[float, float],
              grid_n: int = 100) -> None:
    """Refuse a run before it starts, with a `ScenarioError`: the model must
    pass `validate_properties` and the start `start_condition`, the checks
    that the `validate` subcommand reports."""
    failed = _failed(validate_properties(spec, y_range, r_range, grid_n).conditions)
    if failed:
        raise ScenarioError(f"initial model fails validation: {failed}")
    failed = _failed([start_condition(spec, y0, r0, y_range, r_range)])
    if failed:
        raise ScenarioError(f"the start fails validation: {failed}")


def apply_scenario(spec: ModelSpec, scenario: Scenario, y0: float, r0: float,
                   mode: str = REDUCED_MODE, *,
                   y_range: tuple[float, float], r_range: tuple[float, float],
                   y_steps: int = 700, scan_n: int = 500,
                   stride: float | None = None,
                   grid_n: int = 100, rtol: float = 1e-8, atol: float = 1e-10
                   ) -> ScenarioResult:
    """Piecewise simulation of a timed intervention schedule.

    The state (income, rate) is continuous across every step; only the model
    changes discontinuously.  The run starts only after its `preflight`, and
    every model a step puts in force must pass property validation, at
    `grid_n` points per axis, with the state as its start; failures name the
    offending step.
    """
    if mode not in (REDUCED_MODE, FULL_MODE):
        raise ValueError(f"unknown mode {mode!r}")
    if stride is None:
        stride = scenario.horizon / 2000.0
    events: list[dict] = []
    jumps: list[JumpEvent] = []
    models = [(0.0, spec)]
    preflight(spec, y0, r0, y_range=y_range, r_range=r_range, grid_n=grid_n)

    # timeline boundaries: step instants plus drive starts/ends
    instants = scenario.instantaneous()
    drives = scenario.drives()
    cuts = {0.0, scenario.horizon}
    cuts.update(s.time for s in instants)
    for d in drives:
        cuts.add(d.t_start)
        cuts.add(d.t_end)
    timeline = sorted(cuts)

    cur_spec = spec
    t, y, r = 0.0, y0, r0
    reduced = mode == REDUCED_MODE

    if reduced:
        isocline = trace_lm_isocline(cur_spec, y_range, y_steps, r_range, scan_n)
        branch, r = attach_to_branch(cur_spec, isocline, y, r)
        ts, ys_, rs_ = [t], [y], [r]
    else:
        parts: list[tuple[Trajectory, ModelSpec]] = []
        ts, ys_, rs_ = [], [], []  # unused in full mode

    def active_drive(t_seg):
        for d in drives:
            if d.t_start <= t_seg < d.t_end:
                return d
        return None

    slope = None
    for t_a, t_b in zip(timeline, [*timeline[1:], None]):
        # apply instantaneous steps scheduled at t_a
        for step_i, s in enumerate(instants):
            if s.time != t_a:
                continue
            if isinstance(s, FiscalShift):
                cur_spec = _with_fiscal_shift(cur_spec, s.g)
                events.append({"t": t_a, "kind": "fiscal-shift", "g": s.g})
            else:
                try:
                    cur_spec = shift_lm(cur_spec, d_pi=s.d_pi, d_ms=s.d_ms)
                except ValueError as exc:
                    raise ScenarioError(f"step {step_i}: {exc}") from exc
                events.append({"t": t_a, "kind": "monetary-step",
                               "d_pi": s.d_pi, "d_ms": s.d_ms})
            models.append((t_a, cur_spec))
            cur_r_range = _r_range_after(r_range, instants[:step_i + 1])
            # the model in force, and the state, which must come to rest under it
            failed = _failed([*validate_properties(cur_spec, y_range, cur_r_range,
                                                   grid_n).conditions,
                              start_condition(cur_spec, y, r, y_range, cur_r_range, "step")])
            if failed:
                raise ScenarioError(
                    f"step {step_i} at t={t_a} produced an invalid model: {failed}")
            if reduced:
                isocline = trace_lm_isocline(cur_spec, y_range, y_steps, cur_r_range, scan_n)
                branch, r_new = attach_to_branch(cur_spec, isocline, y, r)
                if abs(r_new - r) > 1e-12:
                    events.append({"t": t_a, "kind": "reattach", "y": y,
                                   "r_from": r, "r_to": r_new})
                    _append_vertical_move(ts, ys_, rs_, t_a, y, r, r_new)
                r = r_new
        if t_b is None:  # steps at the horizon start no segment
            break

        # a drive's slope is fixed when it starts, so a step inside it
        # leaves the ramp's end point where it was
        drive = active_drive(t_a)
        if drive is None:
            slope = None
        elif drive.t_start == t_a:
            slope = _drive_slope(drive, y)
        if reduced:
            branch, y, r, t, status = advance_reduced(
                cur_spec, isocline, branch, y, r, t_a, t_b, stride,
                ts, ys_, rs_, jumps, slope)
            if status == "domain-exit":
                events.append({"t": t, "kind": "domain-exit", "y": y})
                break
        else:
            part = integrate(cur_spec, y, r, t_b, rtol=rtol, atol=atol,
                             stride=stride, t_start=t_a, drive_slope=slope)
            parts.append((part, cur_spec))
            y, r, t = float(part.y[-1]), float(part.r[-1]), float(part.t[-1])

    if reduced:
        traj = Trajectory(np.asarray(ts), np.asarray(ys_), np.asarray(rs_),
                          REDUCED_MODE, spec.spec_id, tuple(jumps))
    else:
        traj = _concat(parts, spec.spec_id)
    for j in traj.jumps:
        events.append({"t": j.t_start, "kind": "jump", "y": j.y_at_jump,
                       "r_from": j.r_from, "r_to": j.r_to,
                       "direction": j.direction})
    events.sort(key=lambda e: e["t"])
    return ScenarioResult(traj, events, models)


# ---------------------------------------------------------------------------

def is_shift_equivalence_check(spec: ModelSpec, g: float,
                               y_probe: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0)
                               ) -> dict:
    """Verify that the additive goods shift moves the IS curve by g/(i_r+s_r)."""
    base = is_curve(spec)
    shifted = is_curve(_with_fiscal_shift(spec, g))
    predicted = g / (spec.is_block.i_r + spec.is_block.s_r)
    measured = [float(shifted.r_at(y) - base.r_at(y)) for y in y_probe]
    max_err = max(abs(m - predicted) for m in measured)
    return {
        "g": g,
        "predicted_shift": predicted,
        "measured_shift": measured[0],
        "max_error": max_err,
        "consistent": max_err < 1e-12 * max(1.0, abs(predicted)),
    }


@dataclass(frozen=True)
class StabilizationPlan:
    fold: FoldPoint
    instrument: str               # "inflation" | "money-stock"
    delta: float
    matched: bool                 # True when the exact branch match was achieved
    mode: str                     # "branch-match" | "fold-relocation"
    jump_direction: str
    r_target: float               # rate the uncontrolled jump would land on
    residual: float               # |shifted branch value at the fold - fold rate|;
                                  # for money-stock its floor, the window width q - p
    diagnosis: str = ""


def plan_stabilization(spec: ModelSpec, fold: FoldPoint, instrument: str,
                       isocline: LMIsocline, *,
                       protect_to_y: float | None = None) -> StabilizationPlan:
    """Compute the monetary shift that defuses the jump at a fold.

    The target is the shift after which the post-jump stable branch passes
    through the pre-jump point, so the state has nowhere to jump to.  The
    inflation instrument achieves this in closed form via the exact vertical
    shift law.  The money-stock instrument cannot: a stock change dM moves
    every branch horizontally by dM / (l_y - m_y), so the post-jump branch
    keeps its rate interval, which starts at the window's other endpoint
    rate, and never reaches the fold rate.  That plan relocates the fold
    beyond a protected income instead.  `fold` is one of the isocline's
    folds, which carries its jump's landing (a fold read back from a document
    carries none, and raises); of the isocline only its rate range is read,
    so it may be the `lm_branches` table or a trace.
    """
    if instrument not in ("inflation", "money-stock"):
        raise ValueError(f"unknown instrument {instrument!r}")
    direction, k, r_target = fold.jump()

    if instrument == "inflation":
        delta = r_target - fold.r
        # the post-jump branch is the one of the landing interval k: the
        # shift moves the window-endpoint rates but does not renumber the
        # intervals, so its value at the fold income is the shifted graph's
        # root on interval k, the fold rate, inside the isocline's rate range
        roots = shift_lm(spec, d_pi=delta)._lm_graph.roots(fold.y, *isocline.r_range)
        check = next((x for j, x in roots if j == k), None)
        residual = abs(check - fold.r) if check is not None else math.inf
        return StabilizationPlan(fold, instrument, delta, residual <= MATCH_TOL,
                                 "branch-match", direction, r_target, residual)

    # The stock change that places the fold exactly at income y* equals the
    # money-market excess at (y*, fold rate) under the current model.
    j = fold.endpoint // 2 * 2  # the window's start
    r_p, r_q = spec._lm_graph.ends[j:j + 2]
    gap = r_q - r_p
    if protect_to_y is None:
        protect_to_y = fold.y * (1.10 if direction == "up" else 0.90)
    delta = excess_money(protect_to_y, fold.r, spec)
    diagnosis = (
        "no stock change puts the post-jump branch through the fold point: it "
        f"moves branches horizontally only, and the post-jump branch's rates "
        f"stay {gap:g} beyond the fold rate; relocating the fold to income "
        f"{protect_to_y:g} instead")
    return StabilizationPlan(fold, instrument, delta, False, "fold-relocation",
                             direction, r_target, gap, diagnosis)


@dataclass
class ControllerReport:
    uncontrolled: ScenarioResult
    controlled: ScenarioResult
    plan: StabilizationPlan
    t_fired: float | None
    y_fired: float | None
    jumps_uncontrolled: int
    jumps_controlled: int
    max_rate_uncontrolled: float
    max_rate_controlled: float
    r_band_controlled: float      # max |R - R at trigger| after the trigger
    controller_late: bool

    def to_dict(self) -> dict:
        return {
            "instrument": self.plan.instrument,
            "delta": self.plan.delta,
            "plan_mode": self.plan.mode,
            "t_fired": self.t_fired,
            "y_fired": self.y_fired,
            "jumps_uncontrolled": self.jumps_uncontrolled,
            "jumps_controlled": self.jumps_controlled,
            "max_rate_uncontrolled": self.max_rate_uncontrolled,
            "max_rate_controlled": self.max_rate_controlled,
            "r_band_controlled": self.r_band_controlled,
            "controller_late": self.controller_late,
        }


def _max_rate(result: ScenarioResult) -> float:
    """The largest |dR/dt| between consecutive samples.  A singular-limit
    run's jumps and reattachments take no time, so they are left out: the
    step onto each landing counts for nothing, and a pre-move corner sample
    (at the landing's income) is read at the move's own instant, so the value
    is a slow-flow rate that no `CORNER_DT` sets."""
    traj = result.trajectory
    if len(traj) < 2:
        return 0.0
    t, dr = traj.t, np.abs(np.diff(traj.r))
    if traj.mode == REDUCED_MODE:
        moves = [e["t"] for e in result.events if e["kind"] in ("jump", "reattach")]
        landing = np.isin(t[1:], moves)  # the step into sample i + 1 is a move
        corner = landing[1:] & (traj.y[1:-1] == traj.y[2:])
        t = t.copy()
        t[1:-1][corner] = t[2:][corner]
        dr[landing] = 0.0
    return float(np.max(dr / np.maximum(np.diff(t), 1e-300)))


def _first_crossing_time(traj: Trajectory, level: float, upward: bool) -> float | None:
    y, t = traj.y, traj.t
    if upward:
        hits = np.nonzero((y[:-1] < level) & (y[1:] >= level))[0]
    else:
        hits = np.nonzero((y[:-1] > level) & (y[1:] <= level))[0]
    if len(hits) == 0:
        if len(y) and ((y[0] >= level) if upward else (y[0] <= level)):
            return float(t[0])
        return None
    k = int(hits[0])
    frac = (level - y[k]) / (y[k + 1] - y[k])
    return float(t[k] + frac * (t[k + 1] - t[k]))


def _first_monitored_crossing(traj: Trajectory, level: float, upward: bool,
                              every: float, horizon: float
                              ) -> tuple[float | None, float | None]:
    """First instant k * every (k = 1, 2, ...), or the horizon, at which the
    income is at or past the level, and the income there."""
    t_mon = np.append(np.arange(1, math.ceil(horizon / every)) * every, horizon)
    y_mon = np.interp(t_mon, traj.t, traj.y)
    hits = np.nonzero(y_mon >= level if upward else y_mon <= level)[0]
    if len(hits) == 0:
        return None, None
    return float(t_mon[hits[0]]), float(y_mon[hits[0]])


def run_with_controller(spec: ModelSpec, ramp: FiscalDrive, plan: StabilizationPlan,
                        y0: float, r0: float, *,
                        y_range: tuple[float, float], r_range: tuple[float, float],
                        mode: str = REDUCED_MODE, margin_frac: float = 0.05,
                        stride: float | None = None, monitor_stride: float | None = None,
                        horizon: float | None = None, y_steps: int = 700,
                        scan_n: int = 500, grid_n: int = 100) -> ControllerReport:
    """Run the fiscal ramp with and without the planned monetary response.

    The controller watches the uncontrolled run's income and fires the plan's
    step when it comes within the trigger margin of the watched fold.  In the
    singular limit the firing time is the exact crossing of the trigger
    level.  In the full system income is monitored at the instants
    k * monitor_stride (k = 1, 2, ...) and at the horizon, and the step fires
    at the first of them at which income is at or past the trigger, so a late
    trigger is possible and is reported.  The controlled run is
    `apply_scenario` on the ramp and that step; both runs validate at
    `grid_n` points per axis.
    """
    if horizon is None:
        horizon = ramp.t_end
    if stride is None:
        stride = horizon / 2000.0
    fold = plan.fold
    margin = margin_frac * abs(fold.y)
    kwargs = dict(y_range=y_range, r_range=r_range, y_steps=y_steps,
                  scan_n=scan_n, stride=stride, grid_n=grid_n)

    base = apply_scenario(spec, Scenario((ramp,), horizon), y0, r0, mode, **kwargs)

    approaching_up = _drive_slope(ramp, y0) > 0
    trigger_y = fold.y - margin if approaching_up else fold.y + margin
    if mode == REDUCED_MODE:
        t_fired = _first_crossing_time(base.trajectory, trigger_y, approaching_up)
        y_fired = None if t_fired is None else trigger_y
    else:
        t_fired, y_fired = _first_monitored_crossing(
            base.trajectory, trigger_y, approaching_up,
            monitor_stride or stride * 10.0, horizon)

    controlled = base
    late = bool(base.jumps)
    r_band = 0.0
    if t_fired is not None:
        instrument = "d_pi" if plan.instrument == "inflation" else "d_ms"
        step = MonetaryStep(t_fired, **{instrument: plan.delta})
        controlled = apply_scenario(spec, Scenario((ramp, step), horizon), y0, r0,
                                    mode, **kwargs)
        late = any(j.t_start <= t_fired for j in controlled.jumps)
        tr = controlled.trajectory
        after = tr.t >= t_fired
        if after.any():
            k0 = int(np.argmax(after))
            r_ref = float(tr.r[max(k0 - 1, 0)])
            r_band = float(np.max(np.abs(tr.r[after] - r_ref)))

    return ControllerReport(
        uncontrolled=base, controlled=controlled, plan=plan,
        t_fired=t_fired, y_fired=y_fired,
        jumps_uncontrolled=len(base.jumps), jumps_controlled=len(controlled.jumps),
        max_rate_uncontrolled=_max_rate(base),
        max_rate_controlled=_max_rate(controlled),
        r_band_controlled=r_band,
        controller_late=late,
    )


def negative_rate_probe(spec: ModelSpec, scenario: Scenario | None,
                        y0: float, r0: float, *,
                        y_range: tuple[float, float], r_range: tuple[float, float],
                        mode: str = REDUCED_MODE, horizon: float = 40.0,
                        touch_tol: float = 1e-6, stride: float | None = None) -> dict:
    """Report whether the run's cycle or any jump crosses the zero rate."""
    if scenario is None:
        scenario = Scenario((), horizon)
    result = apply_scenario(spec, scenario, y0, r0, mode, y_range=y_range,
                            r_range=r_range, stride=stride)
    traj = result.trajectory
    r = traj.r
    flips = list(np.nonzero(np.sign(r[:-1]) * np.sign(r[1:]) < 0)[0])
    # A jump crosses zero when it departs and lands on opposite sides, and the
    # first sign change after its departure (in the singular limit, its
    # pre-jump corner) is its own.  A full-system jump's r_to is only its
    # arrival sample, so its landing is the first root from r_to on under the
    # model in force at the jump, in the rate range the run validated it on;
    # whether the samples show the fall below zero before or after the
    # arrival then does not depend on the stride.
    crossings: list[dict] = []
    for j in traj.jumps:
        landing = j.r_to
        if mode == FULL_MODE:
            i = max(i for i, (t_m, _) in enumerate(result.models) if t_m <= j.t_start)
            (found,) = result.models[i][1]._lm_graph.landings(
                [(j.y_at_jump, j.r_to, j.direction == "up")],
                *_r_range_after(r_range, scenario.instantaneous()[:i]))
            if found is not None:
                landing = found[1]
        if np.sign(j.r_from) * np.sign(landing) < 0:
            crossings.append({"t": j.t_start, "kind": "jump-crossing",
                              "level_from": j.r_from, "level_to": landing})
            departure = j.t_start - CORNER_DT * max(1.0, abs(j.t_start))
            own = next((k for k in flips if traj.t[k] >= departure), None)
            if own is not None:
                flips.remove(own)
    for k in flips:
        frac = r[k] / (r[k] - r[k + 1])
        crossings.append({"t": float(traj.t[k] + frac * (traj.t[k + 1] - traj.t[k])),
                          "kind": "drift-crossing",
                          "level_from": float(r[k]), "level_to": float(r[k + 1])})
    crossings.sort(key=lambda c: c["t"])

    cycle = detect_cycle(traj, result.final_spec)
    if cycle is not None:
        min_r = cycle.r_extent[0]
    else:
        tail = r[int(0.2 * len(r)):]
        min_r = float(np.min(tail)) if len(tail) else float(np.min(r))
    touching = abs(min_r) <= touch_tol
    status = "touching" if touching else ("crossing" if crossings else
                                          ("above-zero" if min_r > 0 else "below-zero"))
    return {
        "crossings": crossings,
        "min_rate": min_r,
        "touching": touching,
        "status": status,
        "cycle_period": None if cycle is None else cycle.period,
    }
