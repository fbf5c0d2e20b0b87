"""Slow-fast dynamics: the full two-speed system, its singular limit, and
jump/cycle detection.

The full system integrates income on the slow timescale (scaled by epsilon)
against the fast rate adjustment.  The singular limit slaves the rate to a
stable isocline branch, moves income by the slow flow alone, and transfers
the rate vertically (in zero slow time) whenever the branch ends in a fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# `solve_ivp` stays bound here, unused: the bench/tracer.py target
# `dynamics.solve_ivp` needs it, and the traced CI smoke fails on an absent one
from scipy.integrate import RK45, solve_ivp
from scipy.spatial import cKDTree

# `lm_roots` stays bound here, unused: bench/test_inputs.py::
# test_tracer_wraps_every_binding_and_restores_them asserts this binding
from .geometry import Branch, LMIsocline, _interval_branch, lm_roots
from .model import (ModelDomainError, ModelSpec, _fast_rest, _invert, _read_only,
                    excess_money, excess_money_many)

__all__ = [
    "IntegrationError",
    "FoldStallError",
    "Trajectory",
    "JumpEvent",
    "Leg",
    "Move",
    "CycleSummary",
    "integrate",
    "reduced_simulate",
    "render_legs",
    "detect_jumps",
    "detect_cycle",
    "attach_to_branch",
    "hausdorff_distance",
    "cycle_points",
    "densify_polyline",
    "excess_money_scale",
]

# Time offset of the corner sample that `render_legs` draws before each
# zero-time move of a singular-limit table, strictly before its landing.
CORNER_DT = 1e-9

# A full-system run whose steps stay below this fraction of its horizon for
# more than STALL_STEPS steps in a row cannot finish (a money slope of 1e300
# holds the steps near 1e-299), so it fails instead of running on.
STALL_STEP_FRACTION = 1e-12
STALL_STEPS = 100

# A full-system run holds this many sampled steps before it evaluates their
# interpolants together (`_write_steps`).
BATCH_STEPS = 64

# Gauss-Legendre order of the free-leg time integral, and the panels it puts
# on each piece of the integrand between segment breaks.
QUAD_ORDER = 16
QUAD_PANELS = 8

# `Leg.max_rate`: grid points per piece of a leg's rate span, and the rounds
# of as many points between the best point's neighbours.
SUP_GRID = 33
SUP_ROUNDS = 6

# The longest segment `cycle_points` keeps, relative to the loop's extents.
CYCLE_MAX_GAP = 0.002


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], by
    Newton steps on the Legendre recurrence.  Unlike an eigensolver, this
    sets up no LAPACK workspace (about 0.9 MB of resident memory) at import."""
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(8):
        p, p_prev = x, np.ones_like(x)
        for k in range(2, n + 1):
            p, p_prev = ((2 * k - 1) * x * p - (k - 1) * p_prev) / k, p
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(QUAD_ORDER)

FULL_MODE = "full-epsilon"
REDUCED_MODE = "singular-limit"


class IntegrationError(RuntimeError):
    """The integrator failed (step underflow or non-finite state)."""


class FoldStallError(RuntimeError):
    """The slow flow vanished exactly at a fold; the jump is undefined."""


@dataclass(frozen=True)
class JumpEvent:
    """One jump: the fast flow carrying the rate across a trap window.

    In a singular-limit run the jump takes no time: `t_start == t_end` is
    the instant the slow flow reaches the fold, `y_at_jump` the fold income,
    `r_from` the fold rate and `r_to` the landing on the next stable branch.

    In a full-system run the fields come from two samples (`detect_jumps`):

    - `t_start`, `r_from`: the departure sample, the last one in the rate
      gap the jump leaves (at or below the window start for an up jump).
    - `t_end`, `r_to`: the arrival sample, the first one past the far end
      of the window.  `r_to` is not the settled landing: on the reference
      model at eps 1e-2 and stride 0.1 up jumps read 0.114-0.120 there and
      settle at 0.137.
    - `y_at_jump`: the mean income of the two samples.
    - `direction`: "up" when the arrival lies above the window, else "down".
    """

    t_start: float
    t_end: float
    y_at_jump: float
    r_from: float
    r_to: float
    direction: str  # "up" | "down"

    @property
    def height(self) -> float:
        return abs(self.r_to - self.r_from)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled run of the state; the sample arrays are read-only.  Equality
    is identity, and a trajectory hashes by identity."""

    t: np.ndarray
    y: np.ndarray
    r: np.ndarray
    mode: str
    spec_id: str
    jumps: tuple[JumpEvent, ...] = ()

    def __post_init__(self):
        for name in ("t", "y", "r"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        if len(self.t) and np.any(np.diff(self.t) <= 0.0):
            raise ValueError("trajectory times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)

    def slice(self, t0: float, t1: float) -> "Trajectory":
        m = (self.t >= t0) & (self.t <= t1)
        jumps = tuple(j for j in self.jumps if t0 <= j.t_start <= t1)
        return Trajectory(self.t[m], self.y[m], self.r[m], self.mode, self.spec_id, jumps)

    def points(self) -> np.ndarray:
        return np.column_stack([self.y, self.r])


@dataclass(frozen=True)
class CycleSummary:
    """One period of a relaxation cycle (`detect_cycle`), on the run's clock:
    slow time in a singular-limit run, the full system's time otherwise.

    - `period`: the time between the departures of two jumps in the same
      direction from the same rate gap: a singular-limit jump departs at its
      exact fold arrival, a full-system jump where the rate crosses the
      gap's edge (the fold's window-endpoint rate), read on the cubic
      Hermite of its departure sample and the next sample (`_departure`).
    - `t_start`: the start of the window [t_start, t_start + period),
      half-way along the slow leg after the earlier jump of that pair.
    - `jumps`: the whole jumps that depart inside the window, in time order.
    - `y_turning`: their sorted distinct incomes to 9 decimals (fold incomes
      in a singular-limit run, mean sample incomes in a full-system one).
    - `r_extent`, `orientation`: the lowest and highest sampled rate in the
      window, and the sense its samples go round (the sign of their Y dR).
    """

    period: float
    orientation: str  # "counterclockwise" | "clockwise"
    jumps: tuple[JumpEvent, ...]
    y_turning: tuple[float, ...]
    r_extent: tuple[float, float]
    t_start: float


# ---------------------------------------------------------------------------
# full-system integration

def integrate(spec: ModelSpec, y0: float, r0: float, t_end: float,
              rtol: float = 1e-8, atol: float = 1e-10,
              stride: float | None = None, t_start: float = 0.0,
              drive_slope: float | None = None) -> Trajectory:
    """Integrate the two-speed system with an adaptive embedded RK pair.

    Local error control shrinks steps automatically through the fast layers,
    so jumps are resolved without any special handling.  Each step's quartic
    interpolant is evaluated at the `stride` grid points it covers (default
    stride: horizon / 2000), BATCH_STEPS sampled steps at a time, with the
    arithmetic of scipy's `RkDenseOutput` (`_write_steps`); this reads RK45's
    `K`, `P`, `t_old` and `y_old` and sets its `fun` (scipy >= 1.9), and the
    samples equal `solve_ivp`'s with `t_eval` bit for bit.  They are written
    into arrays sized for the whole run, so memory follows the number of
    samples, not the number of steps.  With a `drive_slope`, income follows
    the ramp dY/dt = drive_slope and only the rate obeys the money market.
    """
    t_start, t_end = float(t_start), float(t_end)
    for name, value in (("t_start", t_start), ("t_end", t_end), ("stride", stride)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if t_end <= t_start:
        raise ValueError("t_end must exceed t_start")
    if stride is None:
        stride = (t_end - t_start) / 2000.0
    elif stride <= 0.0:
        raise ValueError(f"stride must be positive, got {stride}")
    count = (t_end - t_start) / stride
    if not math.isfinite(count):
        raise ValueError(f"stride {stride} is too small for the horizon "
                         f"[{t_start}, {t_end}]")
    if y0 < 0.0:
        raise ValueError("income must start non-negative")
    p = spec.params
    fa = p.beta
    money, goods = spec._excess_money, spec._excess_goods

    if drive_slope is None:
        sl = p.epsilon * p.alpha

        def rhs(_t, state):
            y, r = state.tolist()
            y_eval = y if y > 0.0 else 0.0
            return (sl * goods(y_eval, r), fa * money(y_eval, r))
    else:
        def rhs(_t, state):
            y, r = state.tolist()
            return (drive_slope, fa * money(y if y > 0.0 else 0.0, r))

    n_eval = max(2, int(round(count)) + 1)
    t = np.linspace(t_start, t_end, n_eval)
    samples = np.empty((2, n_eval))

    # The steps solve_ivp takes with t_eval, with each step's samples written
    # in place instead of kept in per-step chunks and stacked at the end.
    # RK45 calls `fun` once a stage; set to rhs itself, it skips scipy's two
    # wrappers, which only count the call and convert the tuple to an array.
    solver = RK45(rhs, t_start, (y0, r0), t_end, rtol=rtol, atol=atol)
    solver.fun = rhs
    pending = []  # (t_old, h, y_old, sample count) of each sampled step not yet written
    stages = np.empty((BATCH_STEPS, *solver.K.shape))  # and its RK stages K
    n = stalled = 0  # n: the grid points covered by the steps so far
    t_next = t_start  # the first grid point no step has covered yet
    t_prev, h_stall = t_start, STALL_STEP_FRACTION * (t_end - t_start)
    while solver.status == "running":
        message = solver.step()
        t_new = solver.t
        stalled = stalled + 1 if t_new - t_prev < h_stall else 0
        t_prev = t_new
        if solver.status == "failed" or stalled > STALL_STEPS:
            _write_steps(samples, t, n, solver.P, pending, stages)
            t_last, (y_last, r_last) = (t[n - 1], samples[:, n - 1]) if n else (t_start, (y0, r0))
            raise IntegrationError(
                f"integration failed at t={t_last} (y={y_last}, r={r_last}): "
                + (message or f"{stalled} steps in a row below {h_stall:g}, "
                              f"{STALL_STEP_FRACTION:g} of the horizon"))
        if t_next <= t_new:
            # the grid points up to and including t_new, as searchsorted(side="right")
            m = n + 1
            while m < n_eval and t.item(m) <= t_new:
                m += 1
            t_old = solver.t_old
            stages[len(pending)] = solver.K
            # y_old is the step's start state, an array RK45 never writes again
            pending.append((t_old, t_new - t_old, solver.y_old, m - n))
            n = m
            t_next = t.item(n) if n < n_eval else math.inf
            if len(pending) == BATCH_STEPS:
                _write_steps(samples, t, n, solver.P, pending, stages)
    _write_steps(samples, t, n, solver.P, pending, stages)
    if not np.all(np.isfinite(samples)):
        raise IntegrationError("non-finite state encountered during integration")
    if np.any(samples[0] < -1e-9):
        k = int(np.argmax(samples[0] < -1e-9))
        raise IntegrationError(
            f"income left the domain (y={samples[0][k]} at t={t[k]})")
    return Trajectory(t, samples[0], samples[1], FULL_MODE, spec.spec_id)


def _write_steps(samples: np.ndarray, t: np.ndarray, stop: int, P: np.ndarray,
                 pending: list, stages: np.ndarray) -> None:
    """Write the samples of the pending steps, which cover the grid points of
    `t` up to index `stop`, and empty `pending`.

    Each step's interpolant is evaluated as scipy's `RkDenseOutput` does it:
    Q = K^T P, the powers x, x^2, ... as cumprod forms them, then
    h Q p + y_old.  The products are stacked, Q over all steps and the rest
    over the steps with the same number of samples; a stacked `np.matmul`
    gives each slice the BLAS call `np.dot` makes, so the samples are the
    same bit for bit.
    """
    if not pending:
        return
    t_old, h, y_old, counts = (np.array(a) for a in zip(*pending))
    q = np.matmul(stages[:len(pending)].transpose(0, 2, 1), P)
    starts = stop - np.cumsum(counts[::-1])[::-1]
    for k in np.unique(counts).tolist():
        sel = np.flatnonzero(counts == k)
        at = starts[sel, None] + np.arange(k)
        p = np.empty((len(sel), q.shape[2], k))
        np.divide(t[at] - t_old[sel, None], h[sel, None], out=p[:, 0])
        for i in range(1, p.shape[1]):
            np.multiply(p[:, i - 1], p[:, 0], out=p[:, i])
        y = h[sel, None, None] * np.matmul(q[sel], p) + y_old[sel, :, None]
        samples[:, at] = y.transpose(1, 0, 2)
    pending.clear()


# ---------------------------------------------------------------------------
# singular limit

def attach_to_branch(spec: ModelSpec, isocline: LMIsocline, y: float, r: float
                     ) -> tuple[Branch, float]:
    """Resolve the fast flow from (y, r) to the branch it relaxes onto.

    A positive money excess pushes the rate up, a negative one down, to the
    first root that way; at zero excess the nearer of the first roots either
    way is taken, the lower one on a tie (`model._fast_rest`, the rule the
    validator's start condition checks).
    """
    found = _fast_rest(spec, y, r, isocline.r_range)
    if found is None:
        raise ModelDomainError(f"fast flow from (y={y}, r={r}) escapes the scanned range")
    k, target = found
    branch = _landing_branch(isocline, k, y, target)
    if branch.stability != "stable":
        raise ValueError(
            f"fast flow from (y={y}, r={r}) lands on an unstable branch; "
            "start from a point attracted to a stable arc")
    return branch, target


def _landing_branch(isocline: LMIsocline, k: int, y: float, r: float) -> Branch:
    """The branch of rate interval k through the root (y, r)."""
    branch = _interval_branch(isocline, k, y)
    if branch is None:
        raise ModelDomainError(f"no isocline branch holds the root ({y}, {r})")
    return branch


def _branch_rates(spec: ModelSpec, ends, rates, y: np.ndarray) -> np.ndarray:
    """Rates where a branch with end points (ends, rates) reaches the
    incomes y: the LM graph inverted, started from the chord between the
    branch's exact end points and bracketed by their rates, so the result
    does not depend on the sample density."""
    return spec._lm_graph.rates_at(y, rates[0], rates[1], np.interp(y, ends, rates),
                                   1e-13 * np.maximum(1.0, np.abs(y)))


class _FreeLeg:
    """Slow time t(R) along a branch from (r0, t0) towards r_end.

    On a stable branch the rate parametrizes the LM graph Y(R), and the slow
    flow dY/dt = alpha G, with G(R) the goods excess at (Y(R), R), reads
    dt/dR = Y'(R) / (alpha G(R)), a smooth function of R between the money
    block's segment breaks; finite at a fold, where Y' vanishes.  The clock
    is its Gauss-Legendre quadrature, QUAD_PANELS panels to each piece
    between the breaks.  When G has opposite signs g0 at r0 and g_end at
    r_end (and the end is no fold where it vanishes), the leg heads for the
    equilibrium R* between them.  G' = g_y Y' - g_r is nonzero on a stable
    branch, so dt/dR has a simple pole at R* with residue
    c = Y'(R*) / (alpha G'(R*)).  No ODE is solved: the clock is
    c log((R - R*) / (r0 - R*)) plus the quadrature of the rest."""

    def __init__(self, spec: ModelSpec, r0: float, r_end: float, t0: float,
                 g0: float, g_end: float, to_fold: bool):
        b = spec.is_block
        lm = self.lm = spec._lm_graph
        self.goods, self.alpha, self.c = spec._excess_goods, spec.params.alpha, 0.0
        g_y, g_r = b.i_y - b.s_y, b.i_r + b.s_r
        if (g_end > 0.0) != (g0 > 0.0) and not (g_end == 0.0 and to_fold):
            # G = 0 from the chord; G falls as R rises, so x_lo is the upper rate
            problem = np.array([[0.0], [max(r0, r_end)], [min(r0, r_end)],
                                [r0 + (r_end - r0) * g0 / (g0 - g_end)], [1e-15]])
            r_end = float(_invert(lambda r, _k: self.goods_along(r),
                                  lambda r, _k: g_y * lm.income_slope(r) - g_r,
                                  *problem)[0])
            y_s = float(lm.income_slope(np.array([r_end]))[0])
            self.c = y_s / (self.alpha * (g_y * y_s - g_r))
        lo, hi = sorted((r0, r_end))
        cuts = [r0, *lm.breaks[(lm.breaks > lo) & (lm.breaks < hi)][::1 if r_end > r0 else -1],
                r_end]
        self.r_end, self.ends = r_end, np.concatenate(
            [np.linspace(a, b, QUAD_PANELS + 1)[:-1] for a, b in zip(cuts[:-1], cuts[1:])]
            + [[r_end]])
        with np.errstate(divide="ignore", invalid="ignore"):
            self.times = t0 + np.concatenate(
                [[0.0], np.cumsum(self.time_from(self.ends[:-1], self.ends[1:]))])
        self.t_end = float(self.times[-1])
        if self.c and not np.all(self.times[1:] > self.times[:-1]):  # r0 is R* to rounding
            self.t_end, self.rates_at = math.inf, lambda t: np.full(len(t), r0)

    def goods_along(self, r):
        """G(R), the goods excess at (Y(R), R)."""
        return self.goods(self.lm.income(r), r)

    def time_slope(self, r):
        """dt/dR along the branch."""
        return self.lm.income_slope(r) / (self.alpha * self.goods_along(r))

    def time_from(self, r_a, r):
        """Slow time from rate r_a to rate r (elementwise) by one Gauss-Legendre
        rule of dt/dR, less the pole at R* and plus its log when there is one."""
        half = 0.5 * (r - r_a)
        nodes = (r_a + half)[:, None] + half[:, None] * _GL_NODES
        slope = self.time_slope(nodes.ravel()).reshape(nodes.shape)
        if not self.c:
            return half * (slope @ _GL_WEIGHTS)
        return (half * ((slope - self.c / (nodes - self.r_end)) @ _GL_WEIGHTS)
                + self.c * np.log((r - self.r_end) / (r_a - self.r_end)))

    def time_at(self, r: float) -> float:
        """When the leg reaches the rate r: the clock at the start of the
        panel that holds r, plus the rule across the rest of that panel."""
        ascending = self.ends[-1] > self.ends[0]
        j = int(np.clip(np.searchsorted(self.ends if ascending else -self.ends,
                                        r if ascending else -r, side="right") - 1,
                        0, len(self.ends) - 2))
        with np.errstate(divide="ignore"):  # the log is -inf at R* itself
            return float(self.times[j] + self.time_from(self.ends[j:j + 1], np.array([r]))[0])

    def rates_at(self, t: np.ndarray) -> np.ndarray:
        """Rates reached at the times t: the panel ends interpolated, or the
        log model R* + (r_a - R*) exp((t - t_a) / c) within the panel, then
        polished by Newton steps on t(R) - t, whose derivative is dt/dR."""
        j = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, len(self.times) - 2)
        r_a, r_b, t_a, t_b = self.ends[j], self.ends[j + 1], self.times[j], self.times[j + 1]
        if self.c:
            inner = np.nextafter(r_b, r_a)  # short of R*, where the clock is inf
            x0 = np.clip(self.r_end + (r_a - self.r_end) * np.exp((t - t_a) / self.c),
                         np.minimum(r_a, inner), np.maximum(r_a, inner))
        else:
            x0 = r_a + (r_b - r_a) * np.clip((t - t_a) / (t_b - t_a), 0.0, 1.0)
        tol = 1e-13 * np.maximum(1.0, np.abs(t))
        with np.errstate(divide="ignore"):  # the log is -inf at R* itself
            return _invert(lambda r, k: t_a[k] + self.time_from(r_a[k], r),
                           lambda r, _k: self.time_slope(r), t, r_a, r_b, x0, tol)


@dataclass(frozen=True)
class Move:
    """A zero-time move of the rate at income `y` and slow time `t`: a fold
    jump (`kind` "jump") or a reattachment after a model change
    ("reattach")."""

    t: float
    y: float
    r_from: float
    r_to: float
    kind: str  # "jump" | "reattach"

    def event(self) -> JumpEvent:
        """The move as a `JumpEvent` that takes no time."""
        return JumpEvent(self.t, self.t, self.y, self.r_from, self.r_to,
                         "up" if self.r_to > self.r_from else "down")


@dataclass(frozen=True, eq=False)
class Leg:
    """One slow leg of a singular-limit run on one stable branch, from
    (t0, y0, r0) to (t1, y1, r1), with the rate slaved to the branch.

    A free leg has its `clock` (`_FreeLeg`), a driven leg the ramp's `slope`
    (income linear in time), and a leg at rest neither.  `end` says how it
    ends: "fold" (a jump follows), "domain-exit" (a branch end that is no
    fold) or "horizon" (its run segment's stop, where the end state is the
    leg's own at t1).  `bracket` holds the branch's end points, which bracket
    a driven leg's rates.  Equality is identity."""

    spec: ModelSpec
    bracket: tuple[tuple[float, float], tuple[float, float]]  # (Y ends, R ends)
    t0: float
    y0: float
    r0: float
    t1: float
    end: str  # "fold" | "domain-exit" | "horizon"
    slope: float | None = None
    clock: _FreeLeg | None = None
    y1: float | None = None
    r1: float | None = None

    def __post_init__(self):
        if self.y1 is None:
            (y1,), (r1,) = self.at(np.array([self.t1]))
            object.__setattr__(self, "y1", float(y1))
            object.__setattr__(self, "r1", float(r1))

    def at(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Incomes and rates at the times t."""
        if self.clock is not None:
            r = self.clock.rates_at(t)
            return self.spec._lm_graph.income(r), r
        if self.slope is not None:
            y = self.y0 + self.slope * (t - self.t0)
            return y, _branch_rates(self.spec, *self.bracket, y)
        return np.full(len(t), self.y0), np.full(len(t), self.r0)

    def time_at_rate(self, r: float) -> float:
        """When the leg reaches the rate r: the free leg's clock, or the
        ramp's closed form at the income Y_LM(r)."""
        if self.clock is not None:
            return self.clock.time_at(r)
        return self.time_at_income(float(self.spec._lm_graph.income(np.array([r]))[0]))

    def time_at_income(self, y: float) -> float:
        """When the leg reaches the income y: t0 + (y - y0) / slope on a
        driven leg, the clock at the branch's rate for y on a free one."""
        if self.clock is None:
            return self.t0 + (y - self.y0) / self.slope
        return self.time_at_rate(float(_branch_rates(self.spec, *self.bracket,
                                                     np.array([y]))[0]))

    def max_rate(self) -> float:
        """The supremum of |dR/dt| over the leg.  A leg that reaches a fold
        has none: Y_LM' vanishes there like (R - R_f)^3, so the speed is
        unbounded (inf).  Otherwise it is the largest of |slope / Y_LM'(R)|
        (driven) or |alpha G(R) / Y_LM'(R)| (free) over the leg's rates."""
        if self.end == "fold":
            return math.inf
        if self.clock is None and self.slope is None:
            return 0.0
        lm = self.spec._lm_graph

        def speed(r):
            clock = self.clock
            push = self.slope if clock is None else clock.alpha * clock.goods_along(r)
            with np.errstate(divide="ignore"):
                return np.abs(push / lm.income_slope(r))
        return _largest(speed, self.r0, self.r1, lm.breaks)


def _largest(f, a: float, b: float, breaks: np.ndarray) -> float:
    """The largest value of f on the rates between a and b: SUP_GRID points
    on each piece between the breaks, then SUP_ROUNDS grids of as many points
    between the best point's neighbours."""
    lo, hi = min(a, b), max(a, b)
    cuts = [lo, *breaks[(breaks > lo) & (breaks < hi)], hi]
    x = np.concatenate([np.linspace(p, q, SUP_GRID) for p, q in zip(cuts[:-1], cuts[1:])])
    best = -math.inf
    for _ in range(SUP_ROUNDS):
        v = f(x)
        i = int(np.argmax(v))
        best = max(best, float(v[i]))
        x = np.linspace(x[max(i - 1, 0)], x[min(i + 1, len(x) - 1)], SUP_GRID)
    return best


def advance_reduced(spec: ModelSpec, isocline: LMIsocline, branch: Branch,
                    y: float, r: float, t: float, t_stop: float, slope: float | None = None
                    ) -> tuple[list[Leg | Move], Branch, float, float, float, str]:
    """Advance the singular-limit state (y, r) on `branch` to t_stop.

    Income follows the slow flow, or the ramp dY/dt = slope when a slope is
    given; the rate stays slaved to the branch and jumps at its folds.  No
    ODE is integrated: each leg runs in the rate coordinate.  A ramp reaches
    the branch end at a closed-form time; a free leg takes its clock from
    the quadrature of dt/dR = Y'(R) / (alpha G(R)), on a log clock towards
    an equilibrium (`_FreeLeg`).

    Returns the legs and fold jumps (`Leg`, `Move`) in time order, then the
    final (branch, income, rate, time, status); status is "horizon" when
    t_stop was reached and "domain-exit" when the state drifted off the
    traced income range through a non-fold branch end.  `render_legs` draws
    the legs into a table.
    """
    goods = spec._excess_goods
    legs: list[Leg | Move] = []
    while t < t_stop - 1e-12:
        drift = goods(y, r) if slope is None else slope
        up = drift > 0.0
        end = branch.hi_end if up else branch.lo_end
        y_end = branch.y_hi if up else branch.y_lo
        r_end = float(branch.rs[-1] if up else branch.rs[0])
        g_end = goods(y_end, r_end)
        bracket = (tuple(branch.ys[[0, -1]].tolist()), tuple(branch.rs[[0, -1]].tolist()))
        clock = None
        if drift == 0.0:  # at rest: an equilibrium, or a flat ramp
            t_hit = math.inf
        elif slope is not None:
            t_hit = t + (y_end - y) / slope
        else:
            clock = _FreeLeg(spec, r, r_end, t, drift, g_end, end[0] == "fold")
            t_hit = clock.t_end
        ramp = None if drift == 0.0 else slope

        if t_hit > t_stop:
            legs.append(Leg(spec, bracket, t, y, r, t_stop, "horizon", ramp, clock))
            return legs, branch, legs[-1].y1, legs[-1].r1, t_stop, "horizon"
        legs.append(Leg(spec, bracket, t, y, r, t_hit, end[0], ramp, clock, y_end, r_end))
        if end[0] != "fold":
            return legs, branch, y_end, r_end, t_hit, "domain-exit"
        if slope is None and g_end == 0.0:
            raise FoldStallError(
                f"slow flow is exactly zero at the fold (y={y_end}); "
                "the continuation is undefined")
        fold = isocline.folds[end[1]]
        _, k, landing = fold.jump()
        legs.append(Move(t_hit, fold.y, fold.r, landing, "jump"))
        branch = _landing_branch(isocline, k, fold.y, landing)
        t, y, r = t_hit, fold.y, landing
    return legs, branch, y, r, t, "horizon"


def render_legs(start: tuple[float, float, float], legs, stride: float,
                spec_id: str) -> Trajectory:
    """Draw a singular-limit run, its legs and moves in time order, into
    its sampled table, which opens with the start state (t, y, r).

    Each leg is sampled at the stride from the last sample on, short of its
    end.  A leg cut by the horizon adds its state there, unless a sample is
    already within 1e-12 of it; one that leaves the traced income range adds
    its end.  Every move (`Move`) is drawn the same way: a corner sample
    (t - CORNER_DT max(1, |t|), y, r_from), when it falls after the last
    sample, then the landing (t, y, r_to).  A last sample already at t (the
    state at a scenario step) moves back to the corner instead, unless that
    would reach the sample before it; where no corner could go in, the
    landing overwrites the last sample.  The jumps of the table are the
    run's fold-jump moves.
    """
    ts, ys, rs = ([v] for v in start)
    for piece in legs:
        if isinstance(piece, Move):
            t = piece.t
            corner_t = t - CORNER_DT * max(1.0, abs(t))
            if corner_t > ts[-1]:
                ts.append(corner_t)
                ys.append(piece.y)
                rs.append(piece.r_from)
            elif ts[-1] == t and len(ts) > 1 and corner_t > ts[-2]:
                ts[-1] = corner_t
            if t > ts[-1]:
                ts.append(t)
                ys.append(piece.y)
                rs.append(piece.r_to)
            else:
                ys[-1] = piece.y
                rs[-1] = piece.r_to
            continue
        times = np.arange(ts[-1] + stride, piece.t1, stride)
        cut = piece.end == "horizon"
        if cut:
            times = np.append(times, piece.t1)
        y_k, r_k = piece.at(times)
        n = len(times)
        if cut and (times[-2] if n > 1 else ts[-1]) >= piece.t1 - 1e-12:
            n -= 1  # the state at the horizon is a sample unless the last one is there
        ts.extend(times[:n].tolist())
        ys.extend(y_k[:n].tolist())
        rs.extend(r_k[:n].tolist())
        if piece.end == "domain-exit" and piece.t1 > ts[-1]:
            ts.append(piece.t1)
            ys.append(piece.y1)
            rs.append(piece.r1)
    jumps = tuple(m.event() for m in legs if isinstance(m, Move) and m.kind == "jump")
    return Trajectory(np.asarray(ts), np.asarray(ys), np.asarray(rs), REDUCED_MODE,
                      spec_id, jumps)


def reduced_simulate(spec: ModelSpec, y0: float, branch0: int | Branch, t_end: float,
                     isocline: LMIsocline) -> Trajectory:
    """Singular-limit simulation from slow time 0 to t_end, sampled at a stride
    of t_end / 2000: slow drift along stable arcs, vertical jumps.

    Stored times are slow time (the epsilon-scaled clock of the full system).
    The run's legs (`advance_reduced`) are drawn by `render_legs`.
    """
    branch = isocline.branches[branch0] if isinstance(branch0, int) else branch0
    if branch.stability != "stable":
        raise ValueError("the starting branch must be stable")
    if not branch.covers(y0):
        raise ValueError(f"income {y0} is outside the starting branch domain")

    r0 = float(_branch_rates(spec, branch.ys[[0, -1]], branch.rs[[0, -1]],
                             np.array([float(y0)]))[0])
    legs = advance_reduced(spec, isocline, branch, y0, r0, 0.0, t_end)[0]
    return render_legs((0.0, y0, r0), legs, t_end / 2000.0, spec.spec_id)


# ---------------------------------------------------------------------------
# event detection

def detect_jumps(traj: Trajectory, spec: ModelSpec) -> list[JumpEvent]:
    """Jumps of a trajectory under one model, as trap-window traversals.

    On a full-system run each event departs at the last sample in the rate
    gap it leaves (`t_start`, `r_from`) and arrives at the first sample past
    the window's far end (`t_end`, `r_to`: where the rate crossed, not where
    it settles); `y_at_jump` is their mean income.  On a singular-limit run
    the departure is the pre-jump corner, so `r_from` is exactly the fold
    rate.  The rule is `_window_traversals`.
    """
    return _window_traversals([(traj, spec)])


def _window_traversals(parts: list[tuple[Trajectory, ModelSpec]]) -> list[JumpEvent]:
    """Jumps across consecutive (trajectory, spec) parts of one run.

    The stable branches lie in the rate gaps between the trap windows, so
    the fast flow moves the state from gap to gap only by jumping.  A
    sample's level is its rate interval under its own part's model
    (`_LMGraph.intervals`): even in a gap, odd inside a window.  A jump
    joins two consecutive samples in different gaps, so a canard (an
    excursion that returns to its gap) is no jump, nor is the first exit of
    a run that starts inside a window.  Besides:

    - a part whose first sample, the state at a spec change, changes level
      restarts the count, since the change moved a window, not the state;
    - an up jump goes on through the gap it arrives in when the money excess
      at the arrival income is still positive at the gap's top, so no branch
      can stop it there; likewise down.
    """
    t, y, r, level, fresh, part_of = [], [], [], [], [], []
    for n, (traj, spec) in enumerate(parts):
        if not len(traj):
            continue
        lv = spec._lm_graph.intervals(traj.r)
        cut = np.zeros(len(lv), dtype=bool)
        cut[0] = bool(level) and lv[0] != level[-1][-1]
        for a, v in ((t, traj.t), (y, traj.y), (r, traj.r), (level, lv), (fresh, cut),
                     (part_of, np.full(len(lv), n))):
            a.append(v)
    if not t:
        return []
    t, y, r, level, part_of = (np.concatenate(a) for a in (t, y, r, level, part_of))
    epoch = np.cumsum(np.concatenate(fresh))
    outside = np.nonzero(level % 2 == 0)[0]
    moves = np.nonzero(np.diff(level[outside]) != 0)[0]

    events: list[JumpEvent] = []
    dep = arr = 0
    for i, j in zip(outside[moves], outside[moves + 1]):
        if epoch[i] != epoch[j]:
            continue
        up = bool(level[j] > level[i])
        if events and (events[-1].direction == "up") == up and epoch[arr] == epoch[i]:
            spec, k = parts[part_of[arr]][1], level[arr]
            edge = spec._lm_graph.ends[k if up else k - 1]
            if (excess_money(max(float(y[arr]), 0.0), edge, spec) > 0.0) == up:
                events.pop()
                i = dep
        dep, arr = i, j
        events.append(JumpEvent(float(t[i]), float(t[j]), 0.5 * (float(y[i]) + float(y[j])),
                                float(r[i]), float(r[j]), "up" if up else "down"))
    return events


def detect_cycle(traj: Trajectory, spec: ModelSpec) -> CycleSummary | None:
    """The run's last whole cycle (`CycleSummary`), read off its jumps.

    The jumps are `traj.jumps`, or else `detect_jumps(traj, spec)`, each
    labelled by its direction and the rate gap it departs (its interval
    under `spec`, a window's read as the gap below it).  The latest jump
    whose label an earlier one bears pairs with the latest such earlier
    jump; the latest pair whose window fits in the run gives the cycle.  A
    run with no repeated label (an equilibrium, no trap window, a short
    horizon) has none: None.
    """
    jumps = list(traj.jumps or detect_jumps(traj, spec))
    gaps = spec._lm_graph.intervals([j.r_from for j in jumps]) // 2 * 2
    last: dict[tuple[str, int], int] = {}
    pairs = []
    for k, label in enumerate(zip((j.direction for j in jumps), gaps.tolist())):
        if label in last:
            pairs.append((last[label], k, label[1]))
        last[label] = k
    for e, k, gap in reversed(pairs):
        period = (_departure(traj, jumps[k], gap, spec)
                  - _departure(traj, jumps[e], gap, spec))
        t0 = 0.5 * (jumps[e].t_end + jumps[e + 1].t_start)
        if t0 + period <= traj.t[-1]:
            break
    else:
        return None
    window = traj.slice(t0, t0 + period)
    orientation = "counterclockwise" if _loop_area(window.y, window.r) > 0.0 else "clockwise"
    inside = tuple(j for j in jumps if t0 <= j.t_start < t0 + period)
    y_turning = tuple(sorted({round(j.y_at_jump, 9) for j in inside}))
    r_extent = (float(np.min(window.r)), float(np.max(window.r)))
    return CycleSummary(period, orientation, inside, y_turning, r_extent, t0)


def _departure(traj: Trajectory, jump: JumpEvent, gap: int, spec: ModelSpec) -> float:
    """When a jump leaves the gap of rate interval `gap`: its own time if it
    takes none, else when the rate crosses the gap's edge, read on the cubic
    Hermite of the departure sample and the next one.  Its end slopes are the
    rate's own, dR/dt = beta E(max(Y, 0), R), the same in free and driven
    runs; the two samples bracket the edge, so bisection finds the crossing."""
    if jump.t_end == jump.t_start:
        return jump.t_start
    up = jump.direction == "up"
    edge = spec._lm_graph.ends[gap if up else gap - 1]
    i = int(np.searchsorted(traj.t, jump.t_start))
    (t0, t1), (y0, y1), (r0, r1) = (a[i:i + 2].tolist() for a in (traj.t, traj.y, traj.r))
    h, money = t1 - t0, spec._excess_money
    d0, d1 = (h * spec.params.beta * money(max(y, 0.0), r) for y, r in ((y0, r0), (y1, r1)))
    lo, hi = 0.0, 1.0
    for _ in range(60):
        s = 0.5 * (lo + hi)
        # the Hermite basis on [0, 1]: r0, d0, r1, d1 weighted
        r = ((2.0 * s - 3.0) * s * s + 1.0) * r0 + ((s - 2.0) * s + 1.0) * s * d0 \
            + (3.0 - 2.0 * s) * s * s * r1 + (s - 1.0) * s * s * d1
        if (r > edge) == up:
            hi = s
        else:
            lo = s
    return t0 + h * 0.5 * (lo + hi)


def _loop_area(y: np.ndarray, r: np.ndarray) -> float:
    # signed area of the closed loop via the circulation of Y dR
    y_c = np.concatenate([y, y[:1]])
    r_c = np.concatenate([r, r[:1]])
    return float(np.sum(0.5 * (y_c[:-1] + y_c[1:]) * np.diff(r_c)))


# ---------------------------------------------------------------------------
# helpers

def cycle_points(traj: Trajectory, summary: CycleSummary) -> np.ndarray:
    """(Y, R) points along one detected loop, including jump verticals.

    Segments longer than CYCLE_MAX_GAP (measured relative to the loop
    extents) are subdivided so that instantaneous jumps and sparsely sampled
    fast layers contribute full polylines, not just their endpoints.
    """
    pts = traj.slice(summary.t_start, summary.t_start + summary.period).points()
    if len(pts) < 2:
        return pts
    return densify_polyline(pts, CYCLE_MAX_GAP, closed=True)


def densify_polyline(pts: np.ndarray, max_step: float, closed: bool = False) -> np.ndarray:
    """Subdivide polyline segments to at most `max_step` in extent-scaled units."""
    scale = pts.max(axis=0) - pts.min(axis=0)
    scale[scale == 0.0] = 1.0
    seq = np.vstack([pts, pts[:1]]) if closed else pts
    out = [seq[0]]
    for a, b in zip(seq[:-1], seq[1:]):
        gap = math.hypot(*((b - a) / scale))
        n = max(1, int(math.ceil(gap / max_step)))
        for k in range(1, n + 1):
            out.append(a + (b - a) * (k / n))
    return np.asarray(out)


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two planar point sets."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("point sets must be non-empty")
    return float(max(cKDTree(b).query(a)[0].max(), cKDTree(a).query(b)[0].max()))


def excess_money_scale(spec: ModelSpec, y_range: tuple[float, float],
                       r_range: tuple[float, float], n: int = 101) -> float:
    """Magnitude scale of the money-market excess over a rectangle."""
    ys = np.linspace(max(y_range[0], 0.0), y_range[1], n)
    rs = np.linspace(r_range[0], r_range[1], n)
    yy, rr = np.meshgrid(ys, rs, indexing="ij")
    return float(np.max(np.abs(excess_money_many(yy, rr, spec))))
