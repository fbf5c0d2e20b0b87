"""Model core: behavioral functions, parameters, and numerical sign validation.

The goods market is linear: I(Y,R) = i0 + i_y*Y - i_r*R, S(Y,R) = s0 + s_y*Y + s_r*R.
The money market is built derivative-first: money demand L and endogenous supply M
depend on the short rate i_S through piecewise-polynomial slope functions that are
negative (L) / positive (M) in normal regimes and reverse sign inside liquidity-trap
windows, with the slopes exactly zero at each window endpoint.  Integrating the
slopes in closed form gives continuous, C1 level functions.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from bisect import bisect_right
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from itertools import count

import numpy as np

__all__ = [
    "SLOWFAST_EPSILON_THRESHOLD",
    "SIGN_DEGENERACY_TOL",
    "ConstructionError",
    "ModelDomainError",
    "ModelParams",
    "ISBlock",
    "TrapWindow",
    "MoneyBlock",
    "ModelSpec",
    "short_rate",
    "excess_goods",
    "excess_money",
    "excess_money_many",
    "excess_money_slope",
    "build_three_phase_money",
    "validate_properties",
    "start_condition",
    "ConditionResult",
    "ValidationReport",
]

# Epsilon at or below this value marks a model as a slow-fast configuration.
SLOWFAST_EPSILON_THRESHOLD = 0.01

# |finite difference| below this is reported "degenerate" rather than signed.
SIGN_DEGENERACY_TOL = 1e-9

# Sampled condition values this close to the worst one tie for the reported
# worst point (finite-difference rounding reaches about 1e-9 on rate slopes).
WORST_TIE_TOL = 1e-7

# Finite-difference step, as a fraction of the axis scale.
FD_STEP_FRACTION = 1e-6

# Iteration cap of the safeguarded Newton inversions (`_invert`), and the
# iterations after which the elements still open bisect their brackets in the
# order of the floats, which closes any bracket in 64 more.
NEWTON_MAX_ITER = 100
NEWTON_BISECT_AFTER = 16

# Shoulder sizing for the slope transitions flanking each trap window: half the
# window width, capped so neighbouring windows never share a transition zone.
SHOULDER_WIDTH_FRACTION = 0.5
SHOULDER_GAP_FRACTION = 0.45


class ConstructionError(ValueError):
    """A block violates its structural invariants at build time."""


class ModelDomainError(ValueError):
    """An evaluation was requested outside the model domain (income < 0), or
    a jump leaves the rate range with no branch inside it to catch it.  A
    model and start that pass validation raise neither in a run."""


# ---------------------------------------------------------------------------
# the money block's piece shapes: plain arithmetic, so one evaluator serves
# floats and numpy arrays alike
#
# On its piece a row of the money table (`_build_rows`) gives the levels
# f + c w P(v) and the slopes c P'(v), with v = (i - anchor) / w.  A flat
# piece has P(v) = v.  A smooth piece has G(v) = 2.5 v^4 - 3 v^5 + v^6, the
# integral of the quintic smoothstep s(v) = 10 v^3 - 15 v^4 + 6 v^5, which
# climbs from 0 to 1 on [0, 1] with zero slope at both ends; G(1) = 1/2.  A
# row's weight `smooth`, 0 or 1, picks the shape by arithmetic:
# P(v) = (1 - smooth) v + G(smooth v), each evaluated by Horner, is v or G(v)
# to the bit, and G never sees the unbounded v of a flat piece.


def _row_levels(row, i):
    """(f_L(i), f_M(i)) on one row of the money table.  `row` is a row tuple
    for a float i, or the rows gathered column by column for an array i; the
    arithmetic is the same."""
    anchor, w, f_l, f_m, c_l, c_m, smooth = row
    v = (i - anchor) / w
    u = smooth * v
    u2 = u * u
    g = w * ((1.0 - smooth) * v + ((u - 3.0) * u + 2.5) * u2 * u2)
    return f_l + c_l * g, f_m + c_m * g


def _row_slopes(row, i):
    """(f_L'(i), f_M'(i)) on one row, as `_row_levels`."""
    anchor, w, _, _, c_l, c_m, smooth = row
    u = smooth * ((i - anchor) / w)
    s = (1.0 - smooth) + ((6.0 * u - 15.0) * u + 10.0) * u * u * u
    return c_l * s, c_m * s


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class ModelParams:
    """Dynamics parameters and the constants entering the short-rate identity."""

    alpha: float
    beta: float
    epsilon: float
    m_stock: float
    maturity_premium: float
    expected_inflation: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ConstructionError("adjustment speeds alpha and beta must be positive")
        if self.m_stock <= 0:
            raise ConstructionError("exogenous money stock must be positive")
        if not 0.0 < self.epsilon <= 1.0:
            raise ConstructionError("epsilon must lie in (0, 1]")

    @property
    def is_slow_fast(self) -> bool:
        return self.epsilon <= SLOWFAST_EPSILON_THRESHOLD


@dataclass(frozen=True)
class ISBlock:
    """Linear investment and saving schedules.

    Sign conditions (0 < i_y < 1, i_r > 0, 0 < s_y < 1, s_r > 0, i_y < s_y) are
    deliberately not enforced here; `validate_properties` reports them so that
    broken configurations produce diagnoses instead of constructor errors.
    """

    i0: float
    i_y: float
    i_r: float
    s0: float
    s_y: float
    s_r: float

    def investment(self, y: float, r: float) -> float:
        return self.i0 + self.i_y * y - self.i_r * r

    def saving(self, y: float, r: float) -> float:
        return self.s0 + self.s_y * y + self.s_r * r


@dataclass(frozen=True)
class TrapWindow:
    """One liquidity-trap interval (p, q) of the short rate with bump strengths."""

    p: float
    q: float
    amp_l: float
    amp_m: float

    def __post_init__(self):
        if not 0.0 < self.p < self.q:
            raise ConstructionError(f"window bounds must satisfy 0 < p < q, got ({self.p}, {self.q})")
        if self.amp_l <= 0.0 or self.amp_m <= 0.0:
            raise ConstructionError(
                "bump amplitudes must be positive, otherwise the slopes never "
                "reverse sign inside the window and no S-bend forms"
            )


def _fields_state(self) -> dict:
    """Pickle and copy state of a frozen dataclass: its fields only.  The
    tables and evaluators cached on it are derived from them and rebuilt on
    first use."""
    return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class MoneyBlock:
    """Money demand L(Y, i_S) and endogenous supply M(Y, i_S).

    L = l0 + l_y*Y + f_L(i_S) and M = m0 + m_y*Y + f_M(i_S), where the slope
    functions f_L' and f_M' equal -l_slope / +m_slope away from the trap
    windows, reverse sign inside each window and vanish exactly at every
    window endpoint.  Both are read off one table of rows, one per piece
    between the `breaks` (`_build_rows`): the `*_parts` methods take a float
    and its row, the `*_parts_many` methods an array and its rows gathered
    by one `searchsorted`, and both run the same arithmetic on them
    (`_row_levels`, `_row_slopes`), so their results agree bit for bit.
    """

    l_y: float
    m_y: float
    l_slope: float
    m_slope: float
    l0: float
    m0: float
    windows: tuple[TrapWindow, ...] = ()

    def __post_init__(self):
        # a tuple, so that every spec can be hashed (the isocline memo keys on it)
        object.__setattr__(self, "windows", tuple(self.windows))
        # income-response sign conditions (0 < m_y < l_y) are validator
        # territory so broken configurations get diagnosed, not rejected here
        if self.l_slope <= 0.0 or self.m_slope <= 0.0:
            raise ConstructionError("baseline slope magnitudes must be positive")
        prev_q = None
        for w in self.windows:
            if prev_q is not None and w.p <= prev_q:
                raise ConstructionError("trap windows must be disjoint and sorted ascending")
            prev_q = w.q

    __getstate__ = _fields_state

    @cached_property
    def _table(self) -> tuple[list[float], list[tuple], tuple[np.ndarray, np.ndarray]]:
        """(breaks, rows, columns): the piece start rates (the first piece's,
        -inf, left out), one row per piece (`_build_rows`), and for gathers
        the breaks as an array and the rows as the columns of a second."""
        return _build_rows(self)

    def level_parts(self, i: float) -> tuple[float, float]:
        """Return (f_L(i), f_M(i)), the rate-dependent parts of L and M."""
        breaks, rows, _ = self._table
        return _row_levels(rows[bisect_right(breaks, i)], i)

    def slope_parts(self, i: float) -> tuple[float, float]:
        """Return (f_L'(i), f_M'(i)), the slopes with respect to the short rate."""
        breaks, rows, _ = self._table
        return _row_slopes(rows[bisect_right(breaks, i)], i)

    def level_parts_many(self, i) -> tuple[np.ndarray, np.ndarray]:
        return _row_levels(*self._gather(i))

    def slope_parts_many(self, i) -> tuple[np.ndarray, np.ndarray]:
        return _row_slopes(*self._gather(i))

    def _gather(self, i) -> tuple[np.ndarray, np.ndarray]:
        """The rows of an array of short rates, gathered column by column, and
        the rates as an array."""
        i = np.asarray(i, dtype=float)
        at, table = self._table[2]
        return table.take(np.searchsorted(at, i, side="right"), axis=1), i

    def demand(self, y: float, i: float) -> float:
        return self.l0 + self.l_y * y + self.level_parts(i)[0]

    def supply_endogenous(self, y: float, i: float) -> float:
        return self.m0 + self.m_y * y + self.level_parts(i)[1]

    def window_spans(self) -> list[tuple[float, float]]:
        return [(w.p, w.q) for w in self.windows]


def _build_rows(block: MoneyBlock
                ) -> tuple[list[float], list[tuple], tuple[np.ndarray, np.ndarray]]:
    """Lay out the pieces of the slope functions and integrate them exactly.

    Each window gets an inward-tapering shoulder on both sides over which the
    normal slopes fall smoothly to zero, so the integrated levels are C1
    while the slopes still vanish exactly at the window endpoints.  The
    reversed-slope bump inside the window rises to its peak at the midpoint
    and falls back.

    Each piece is a row (anchor, w, f_l, f_m, c_l, c_m, smooth): levels
    (f_l, f_m) at the anchor rate, slope scales (c_l, c_m), and the shape
    weight, 1 on a smooth piece and 0 on a flat one (`_row_levels`).  A
    smooth piece is anchored at its window endpoint, where its slope
    vanishes, and its signed width w reaches its other end, so v runs from 0
    to 1 across it: a falling piece is a rising one read from its end, since
    s(1 - u) = 1 - s(u).  There v = 0 gives the slope exactly 0 and the
    levels exactly the anchor's, and the slope keeps its relative accuracy.
    A flat piece is anchored at its start (the unbounded head piece at its
    end) with w = 1, so v is i minus the anchor.  The levels accumulate from
    zero at the head piece's end: a flat piece adds c times its length and a
    smooth one c times half its length, since G(1) = 1/2.  Last, they are
    re-anchored so that f_L(0) = f_M(0) = 0 exactly.
    """
    windows = block.windows
    n = len(windows)
    normal = (-block.l_slope, block.m_slope)
    # (start, end, anchor, slope scales) left to right; a flat piece has no anchor
    pieces: list[tuple[float, float, float | None, tuple[float, float]]] = []
    cursor = -math.inf
    for j, w in enumerate(windows):
        width = w.q - w.p
        gap_l = w.p if j == 0 else w.p - windows[j - 1].q
        gap_r = math.inf if j == n - 1 else windows[j + 1].p - w.q
        w_l = min(SHOULDER_WIDTH_FRACTION * width,
                  gap_l if j == 0 else SHOULDER_GAP_FRACTION * gap_l)
        w_r = min(SHOULDER_WIDTH_FRACTION * width, SHOULDER_GAP_FRACTION * gap_r)
        mid = 0.5 * (w.p + w.q)
        bump = (w.amp_l, -w.amp_m)
        pieces += [(cursor, w.p - w_l, None, normal),
                   (w.p - w_l, w.p, w.p, normal),
                   (w.p, mid, w.p, bump),
                   (mid, w.q, w.q, bump),
                   (w.q, w.q + w_r, w.q, normal)]
        cursor = w.q + w_r
    pieces.append((cursor, math.inf, None, normal))

    # the levels start at zero where the head piece ends (at zero without windows)
    rows = [(pieces[0][1] if windows else 0.0, 1.0, 0.0, 0.0, *normal, 0.0)]
    f_l = f_m = 0.0  # the levels at the start of the piece, then at its end
    for lo, hi, anchor, (c_l, c_m) in pieces[1:]:
        start, gain = (f_l, f_m), (hi - lo) * (1.0 if anchor is None else 0.5)
        f_l, f_m = f_l + c_l * gain, f_m + c_m * gain  # inf past the tail piece, unused
        if anchor is None:
            rows.append((lo, 1.0, *start, c_l, c_m, 0.0))
        else:  # v runs from 0 at the anchor to 1 at the piece's other end
            far, levels = (hi, start) if anchor == lo else (lo, (f_l, f_m))
            rows.append((anchor, far - anchor, *levels, c_l, c_m, 1.0))
    breaks = [lo for lo, *_ in pieces[1:]]

    # re-anchor so that f_L(0) = f_M(0) = 0 exactly
    off_l, off_m = _row_levels(rows[bisect_right(breaks, 0.0)], 0.0)
    rows = [(a, w, f_l - off_l, f_m - off_m, *rest) for a, w, f_l, f_m, *rest in rows]
    return breaks, rows, (np.array(breaks), np.array(rows).T)


class _LMGraph:
    """The LM isocline of one model as an explicit graph over the long rate R.

    The money excess is linear in income, E(Y, R) = E(0, R) + k_y Y with
    k_y = l_y - m_y, so the isocline is Y_LM(R) = -E(0, R) / k_y with slope
    -E_R(R) / k_y, both exact from the money block.  The rate enters through
    the short rate R - `offset`, offset = MP - pi_e.  The slope vanishes only
    at the window-endpoint rates `ends` (ascending; the folds sit there), so
    Y_LM is strictly monotone on each interval k, from ends[k - 1] to
    ends[k], and smooth between the money block's segment `breaks`; both are
    in long-rate terms.  `_cuts` lays out the intervals of a rate range and
    `intervals` places rates in them; `rates_at` inverts the graph on one
    interval; `folds` lists a domain's folds and lands their jumps.
    Each `ModelSpec` builds its graph once (`ModelSpec._lm_graph`); the graph
    keeps the blocks it reads, not the spec.
    """

    __slots__ = ("offset", "k_y", "ends", "breaks", "_params", "_money", "_c")

    def __init__(self, params: ModelParams, money: MoneyBlock):
        self.offset = params.maturity_premium - params.expected_inflation
        self.k_y = money.l_y - money.m_y
        self.ends = tuple(r + self.offset for span in money.window_spans() for r in span)
        self.breaks = np.asarray(money._table[0]) + self.offset
        self._params, self._money = params, money
        self._c = money.l0 - money.m0

    def income(self, r) -> np.ndarray:
        """Y_LM(R) for a float or an array, as an array.  E(0, R) is
        `excess_money_many`'s arithmetic at Y = 0, so the two agree bit for
        bit."""
        f_l, f_m = self._money.level_parts_many(short_rate(np.asarray(r, dtype=float),
                                                           self._params))
        return -(self._c + (f_l - f_m) - self._params.m_stock) / self.k_y

    def income_slope(self, r) -> np.ndarray:
        """Y_LM'(R) = -E_R(R) / k_y."""
        d_l, d_m = self._money.slope_parts_many(short_rate(np.asarray(r, dtype=float),
                                                           self._params))
        return (d_m - d_l) / self.k_y

    def rates_at(self, y, r_lo, r_hi, x0=None, tol=0.0) -> np.ndarray:
        """The rates R where Y_LM(R) = y, elementwise, on a rate interval where
        Y_LM is monotone with Y_LM(r_lo) <= y <= Y_LM(r_hi) (either end may be
        the larger rate).  Newton steps start at x0, or by default on the
        chord across the one segment between `breaks` that holds the root
        (`_segment_chord`), and stop when |Y_LM(R) - y| <= tol or the bracket
        is a few ulps wide (`_invert`)."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        r_lo, r_hi = (np.broadcast_to(np.asarray(v, dtype=float), y.shape) for v in (r_lo, r_hi))
        if x0 is None:
            r_lo, r_hi, x0 = self._segment_chord(y, r_lo, r_hi)
        return _invert(lambda r, _k: self.income(r), lambda r, _k: self.income_slope(r),
                       y, r_lo, r_hi, np.broadcast_to(x0, y.shape),
                       np.broadcast_to(np.asarray(tol, dtype=float), y.shape))

    def _segment_chord(self, y: np.ndarray, r_lo: np.ndarray, r_hi: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each `rates_at` bracket cut to the segment between `breaks` that
        holds its root, and the chord's root there, from one `income` call.

        Y_LM is monotone on a bracket, so its new ends are the breaks inside
        it nearest y in income from below and from above.  The chord is
        taken from the end nearer y, as a fraction of the segment's width, so
        it cannot overflow; on an outer segment, where Y_LM is linear, it is
        the closed-form root off the break.
        """
        b = self.breaks
        y_b, y_lo, y_hi = np.split(self.income(np.concatenate([b, r_lo, r_hi])),
                                   [len(b), len(b) + len(y)])
        if len(b):
            inside = (b > np.minimum(r_lo, r_hi)[:, None]) & (b < np.maximum(r_lo, r_hi)[:, None])
            below, above = inside & (y_b <= y[:, None]), inside & (y_b > y[:, None])
            i = np.where(below, y_b, -np.inf).argmax(axis=1)
            j = np.where(above, y_b, np.inf).argmin(axis=1)
            cut_lo, cut_hi = below.any(axis=1), above.any(axis=1)
            r_lo, y_lo = np.where(cut_lo, b[i], r_lo), np.where(cut_lo, y_b[i], y_lo)
            r_hi, y_hi = np.where(cut_hi, b[j], r_hi), np.where(cut_hi, y_b[j], y_hi)
        near_lo = y - y_lo <= y_hi - y
        e, y_e = np.where(near_lo, r_lo, r_hi), np.where(near_lo, y_lo, y_hi)
        far, y_far = np.where(near_lo, r_hi, r_lo), np.where(near_lo, y_hi, y_lo)
        return r_lo, r_hi, e + (y - y_e) / (y_far - y_e) * (far - e)

    def intervals(self, r) -> np.ndarray:
        """The interval index k of each rate (even between windows, odd inside
        one): a window start is in the gap below it, a window end above it."""
        r = np.asarray(r, dtype=float)
        return (np.searchsorted(self.ends[0::2], r, "left")
                + np.searchsorted(self.ends[1::2], r, "right"))

    def _cuts(self, r_lo: float, r_hi: float) -> tuple[int, list[float], list[float]]:
        """(k0, cuts, incomes): the range ends and the window-endpoint rates
        strictly inside them, and Y_LM at each from one `income` call (none
        when k_y = 0); cut pair i bounds interval k0 + i."""
        k0 = bisect_right(self.ends, r_lo)
        cuts = [r_lo, *(r for r in self.ends[k0:] if r < r_hi), r_hi]
        return k0, cuts, self.income(cuts).tolist() if self.k_y else []

    @staticmethod
    def _crossings(y: float, cut) -> list[object]:
        """Where the graph reaches y on each interval of a `_cuts` range whose
        end incomes lie on both sides of y, ascending in rate: an interval
        end at which the graph equals y (listed once, by the interval above
        it, or by the top one on r_hi), or else the bracket that holds the
        root, as its rates of lower and higher income."""
        _, cuts, incomes = cut
        found = []
        for a, b, y_a, y_b in zip(cuts, cuts[1:], incomes, incomes[1:]):
            if y_a == y or (y_b == y and b == cuts[-1]):
                found.append(a if y_a == y else b)
            elif y_a < y < y_b or y_b < y < y_a:
                found.append((a, b) if y_a < y_b else (b, a))
        return found

    def _solve(self, ys: list[float], rows: list[list], cut) -> list[list[tuple[int, float]]]:
        """Each row of `_crossings` on the range `cut` at its income of ys, as
        (k, R) pairs: the brackets solved in one `rates_at` call from its
        default start, so a root equals a branch end inverted on the same
        bracket, and k R's interval (`intervals`), kept to the range's own:
        a range end on a window endpoint holds none of the gap beyond it."""
        brackets = [(y, x) for y, row in zip(ys, rows) for x in row if isinstance(x, tuple)]
        solved = iter(())
        if brackets:
            y = np.array([y for y, _ in brackets])
            lo, hi = np.array([x for _, x in brackets]).T
            solved = iter(self.rates_at(y, lo, hi).tolist())
        xs = [[next(solved) if isinstance(x, tuple) else x for x in row] for row in rows]
        k0, cuts, _ = cut
        ks = iter(np.clip(self.intervals([x for row in xs for x in row]),
                          k0, k0 + len(cuts) - 2).tolist())
        return [[(next(ks), x) for x in row] for row in xs]

    def roots(self, y: float, r_lo: float, r_hi: float) -> list[tuple[int, float]]:
        """Every (k, R) with r_lo <= R <= r_hi and Y_LM(R) = y, ascending in R,
        with k the index of R's interval (`_solve`)."""
        cut = self._cuts(r_lo, r_hi)
        return self._solve([y], [self._crossings(y, cut)], cut)[0]

    def landings(self, starts: list[tuple[float, float, bool]], r_lo: float, r_hi: float
                 ) -> list[tuple[int, float] | None]:
        """Where the fast flow from each start (y, r, up) comes to rest: the
        interval index k and the lowest root x >= r going up (the highest
        x <= r going down) in [r_lo, r_hi], or None (`_land`)."""
        return self._land(starts, self._cuts(r_lo, r_hi))

    def _land(self, starts: list[tuple[float, float, bool]], cut
              ) -> list[tuple[int, float] | None]:
        """`landings` on a `_cuts` range, from one `_solve` call.  dR/dt =
        beta E cannot pass a zero of E, so a root where the graph only
        touches y (another fold at the same income) stops the flow too."""
        if (y := min((y for y, _, _ in starts), default=0.0)) < 0.0:
            raise ModelDomainError(f"income must be non-negative, got {y}")
        walks = []
        for y, r, up in starts:
            found, walk = self._crossings(y, cut), []
            for x in found if up else reversed(found):
                a, b = sorted(x) if isinstance(x, tuple) else (x, x)
                if b >= r if up else a <= r:  # not behind the start
                    walk.append(x)
                    # a bracket around the start may hold its root behind it,
                    # so the walk ends at the first root wholly beyond it
                    if a >= r if up else b <= r:
                        break
            walks.append(walk)
        solved = self._solve([y for y, _, _ in starts], walks, cut)
        return [next(((k, x) for k, x in walk if (x >= r if up else x <= r)), None)
                for (_, r, up), walk in zip(starts, solved)]

    def folds(self, y_range: tuple[float, float], cut
              ) -> list[tuple[int, float, float, tuple[int, float] | ValueError]]:
        """The fold table of a `_cuts` range, ascending in rate: (j, R, Y,
        landing) for each window-endpoint rate R = ends[j] strictly inside it
        with its income Y in y_range.  A window start (j even, a lower knee)
        jumps up from the window's end, a window end down from its start, so
        the fold's own double root is never a candidate; one `_land` call
        lands them all, each as its interval and rate or the error it raises:
        a `ModelDomainError` if it leaves the range, a `ValueError` if it
        lands inside a window, where branches repel."""
        k0, cuts, incomes = cut
        found = [(j, r, y) for j, r, y in zip(count(k0), cuts[1:-1], incomes[1:-1])
                 if y_range[0] <= y <= y_range[1]]
        starts = [(y, self.ends[j + 1 if j % 2 == 0 else j - 1], j % 2 == 0) for j, _, y in found]
        table = []
        for (j, r, y), landing in zip(found, self._land(starts, cut)):
            where = f"the {'down' if j % 2 else 'up'} jump at (y={y}, r={r})"
            if landing is None:
                landing = ModelDomainError(f"{where} leaves the rate range [{cuts[0]}, "
                                           f"{cuts[-1]}]: no branch inside it catches the jump")
            elif landing[0] % 2:
                landing = ValueError(f"malformed isocline: {where} lands on a non-attracting "
                                     f"branch at r={landing[1]}")
            table.append((j, r, y, landing))
        return table


def _invert(f, df, target: np.ndarray, x_lo: np.ndarray, x_hi: np.ndarray,
            x0: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Solve f(x, k) = target elementwise by safeguarded Newton steps.

    `k` holds the indices of the elements still open.  f - target is at most
    zero at x_lo and at least zero at x_hi (either may be the larger x); each
    residual narrows that bracket, and a Newton step that would leave it is
    replaced by bisection.  Newton steps that converge from one side never
    move the far end, so a step that stalls on the end it has just set takes
    the next float towards the other end instead.  Where f in floats does
    not follow its derivative (it rounds to one value over a vast number of
    ulps, as Y_LM does near its zero, or is flat to high order at the root)
    those steps creep, so an element still open after NEWTON_BISECT_AFTER
    iterations halves its bracket in the order of the floats from then on
    (`_float_midpoint`).  An element is done when its residual is within
    `tol` or its bracket is a few ulps wide; with tol 0 it ends on such a
    bracket, inside NEWTON_MAX_ITER.
    """
    x, x_lo, x_hi = x0.copy(), x_lo.copy(), x_hi.copy()
    k = np.arange(len(x))
    for i in range(NEWTON_MAX_ITER):
        res = f(x[k], k) - target[k]
        lo, hi = np.where(res < 0.0, x[k], x_lo[k]), np.where(res > 0.0, x[k], x_hi[k])
        x_lo[k], x_hi[k] = lo, hi
        open_ = ((np.abs(res) > tol[k])
                 & (np.abs(hi - lo) > 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))))
        k, res, lo, hi = k[open_], res[open_], lo[open_], hi[open_]
        if not len(k):
            break
        if i >= NEWTON_BISECT_AFTER:
            x[k] = _float_midpoint(lo, hi)
            continue
        x_k = x[k]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x_k - res / df(x_k, k)
        inside = np.isfinite(step) & (step > np.minimum(lo, hi)) & (step < np.maximum(lo, hi))
        stalled = np.nextafter(x_k, np.where(res < 0.0, hi, lo))
        x[k] = np.where(inside, step, np.where(step == x_k, stalled, 0.5 * (lo + hi)))
    return x


def _float_midpoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The float halfway between a and b in the order of the floats: the
    midpoint of their ranks, with -0.0 and 0.0 one rank."""
    bits = np.stack([a, b]).view(np.int64)
    rank = np.where(bits < 0, -(bits & np.int64(0x7FFFFFFFFFFFFFFF)), bits)
    mid = (rank[0] >> 1) + (rank[1] >> 1) + (rank[0] & rank[1] & 1)
    return np.where(mid < 0, -np.abs(mid).view(float), mid.view(float))


@dataclass(frozen=True)
class ModelSpec:
    """Complete parameterization of the model."""

    params: ModelParams
    is_block: ISBlock
    money: MoneyBlock

    __getstate__ = _fields_state

    # the model's evaluators, built on first use (closures, so pickles and
    # copies leave them out)
    @cached_property
    def _excess_money(self):
        return _money_excess(self)

    @cached_property
    def _excess_goods(self):
        return _goods_excess(self.is_block)

    @cached_property
    def _lm_graph(self) -> _LMGraph:
        return _LMGraph(self.params, self.money)

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def spec_id(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        money = d["money"]
        return ModelSpec(
            params=ModelParams(**d["params"]),
            is_block=ISBlock(**d["is_block"]),
            money=MoneyBlock(
                l_y=money["l_y"], m_y=money["m_y"],
                l_slope=money["l_slope"], m_slope=money["m_slope"],
                l0=money["l0"], m0=money["m0"],
                windows=tuple(TrapWindow(**w) for w in money["windows"]),
            ),
        )


def _read_only(a) -> np.ndarray:
    """A read-only view of an array, for the samples a frozen object holds;
    the caller's array keeps its own flags."""
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


# ---------------------------------------------------------------------------
# operations

def short_rate(r: float, params: ModelParams) -> float:
    """Short nominal rate implied by the long real rate: r - MP + pi_e."""
    return r - params.maturity_premium + params.expected_inflation


def _goods_excess(b: ISBlock):
    """The goods excess G(y, r) = I - S of one model, for floats and arrays
    alike, with no domain check (`excess_goods` adds one)."""
    g0, g_y, g_r = b.i0 - b.s0, b.i_y - b.s_y, b.i_r + b.s_r

    def excess(y, r):
        return g0 + g_y * y - g_r * r
    return excess


def excess_goods(y: float, r: float, spec: ModelSpec) -> float:
    """I(y, r) - S(y, r); its sign drives the slow income variable."""
    if y < 0.0:
        raise ModelDomainError(f"income must be non-negative, got {y}")
    return spec._excess_goods(y, r)


def excess_money(y: float, r: float, spec: ModelSpec) -> float:
    """L - M - M_S at the implied short rate; its sign drives the fast rate."""
    return spec._excess_money(y, r)


def _money_excess(spec: ModelSpec):
    """The scalar money excess E(y, r) of one model: one `bisect_right` finds
    the row of the money table, and `_row_levels`' arithmetic, inlined on
    this hot path, evaluates it.  The arithmetic is `excess_money_many`'s, in
    the same order, so the two agree bit for bit.  Scalar hot loops take it
    once per model (`ModelSpec._excess_money`) and call it directly."""
    p, m = spec.params, spec.money
    mp, pi_e, m_stock = p.maturity_premium, p.expected_inflation, p.m_stock
    c0, k_y = m.l0 - m.m0, m.l_y - m.m_y
    breaks, rows, _ = m._table

    def excess(y, r):
        if y < 0.0:
            raise ModelDomainError(f"income must be non-negative, got {y}")
        i = r - mp + pi_e  # `short_rate`
        anchor, w, f_l, f_m, c_l, c_m, smooth = rows[bisect_right(breaks, i)]
        v = (i - anchor) / w
        u = smooth * v
        u2 = u * u
        g = w * ((1.0 - smooth) * v + ((u - 3.0) * u + 2.5) * u2 * u2)
        return c0 + k_y * y + ((f_l + c_l * g) - (f_m + c_m * g)) - m_stock
    return excess


def excess_money_many(y, r, spec: ModelSpec) -> np.ndarray:
    """Vectorised excess_money; y and r broadcast against each other."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0.0):
        raise ModelDomainError("income must be non-negative")
    i = short_rate(np.asarray(r, dtype=float), spec.params)
    m = spec.money
    f_l, f_m = m.level_parts_many(i)
    return (m.l0 - m.m0) + (m.l_y - m.m_y) * y + (f_l - f_m) - spec.params.m_stock


def excess_money_slope(r: float, spec: ModelSpec) -> float:
    """d(excess_money)/dR, exact from the derivative-first construction."""
    i = short_rate(r, spec.params)
    d_l, d_m = spec.money.slope_parts(i)
    return d_l - d_m


def build_three_phase_money(l_y: float, m_y: float, l_slope: float, m_slope: float,
                            l0: float, m0: float,
                            windows: list[TrapWindow] | tuple[TrapWindow, ...]) -> MoneyBlock:
    """Construct the three-phase money block from its slope description.

    Rejects unsorted or overlapping windows and non-positive bump amplitudes
    (the slopes would never reverse sign inside the window).
    """
    return MoneyBlock(l_y=l_y, m_y=m_y, l_slope=l_slope, m_slope=m_slope,
                      l0=l0, m0=m0, windows=windows)


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class ConditionResult:
    condition: str
    passed: bool
    n_checked: int
    n_degenerate: int
    worst_value: float
    worst_point: tuple[float, float]
    detail: str = ""

    def to_dict(self) -> dict:
        return {**asdict(self), "worst_point": list(self.worst_point)}


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    conditions: tuple[ConditionResult, ...]
    y_range: tuple[float, float]
    r_range: tuple[float, float]
    grid_n: int

    def failures(self) -> list[ConditionResult]:
        return [c for c in self.conditions if not c.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "y_range": list(self.y_range),
            "r_range": list(self.r_range),
            "grid_n": self.grid_n,
            "conditions": [c.to_dict() for c in self.conditions],
        }


def _signed_check(name: str, values: np.ndarray, want_positive: bool, y: float,
                  rs: np.ndarray, weight: int) -> ConditionResult:
    """Check the sign of derivative values taken at income `y` and the rates
    `rs`, each value standing for `weight` grid points; degenerate values are
    counted, not signed."""
    signed = np.abs(values) > SIGN_DEGENERACY_TOL
    n_signed = int(signed.sum())
    vals = values if want_positive else -values
    passed = bool(np.all(vals[signed] > 0.0))
    masked = np.where(signed, vals, np.inf)
    k = int(np.argmin(masked))
    # values within WORST_TIE_TOL of the worst tie up to rounding; every value
    # is taken at the lowest income, and the lowest-rate tie is reported, so
    # the point does not follow noise
    tie = int(np.argmax(masked <= masked[k] + WORST_TIE_TOL))
    return ConditionResult(name, passed, weight * n_signed,
                           weight * (values.size - n_signed), float(values[k]),
                           (y, float(rs[tie])))


def _finite_range(name: str, pair) -> tuple[float, float]:
    lo, hi = map(float, pair)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"{name} must be a finite increasing range, got {pair!r}")
    return lo, hi


def _domain(y_range, r_range) -> tuple[tuple[float, float], tuple[float, float]]:
    """The domain rectangle as float pairs; income is never negative."""
    y_lo, y_hi = _finite_range("y_range", y_range)
    if y_lo < 0.0:
        raise ValueError(f"y_range must start at a non-negative income, got {y_range!r}")
    return (y_lo, y_hi), _finite_range("r_range", r_range)


def validate_properties(spec: ModelSpec, y_range: tuple[float, float],
                        r_range: tuple[float, float], grid_n: int = 200) -> ValidationReport:
    """Numerically verify every behavioural sign condition on a grid of
    `grid_n` incomes by `grid_n` rates.

    All derivatives are taken by central finite differences, so the checks are
    independent of the closed forms used elsewhere.  The model is separable:
    the goods block is linear, and L and M are linear in income plus a
    function of the short rate.  So each difference is taken once along the
    axis it varies on, at the lowest income, and counted over the grid: a
    constant slope stands for all grid_n**2 points, a rate slope at one rate
    for that rate's grid_n points.  A rate slope differences f_L or f_M
    alone, without the income terms, so its rounding does not depend on
    income.  Trap-window interiors are held to the reversed rate-slope
    signs, exteriors to the standard ones.  Two conditions of the domain
    follow: the IS line starts above the lowest LM branch, and every fold's
    jump lands inside r_range (`_fold_landing_condition`), which a run
    would otherwise meet only at the fold.
    Never raises; malformed inputs, an income range below zero among them,
    come back as a failed report that carries them as given.
    """
    try:
        n = operator.index(grid_n)
        if n < 100:
            raise ValueError("grid_n must be at least 100 per axis")
        (y_lo, y_hi), (r_lo, r_hi) = _domain(y_range, r_range)
        rs = np.linspace(r_lo, r_hi, n)
        h_y = FD_STEP_FRACTION * max(1.0, y_hi - y_lo)
        h_r = FD_STEP_FRACTION * max(1.0, r_hi - r_lo)

        inv, sav = spec.is_block.investment, spec.is_block.saving
        di_dy = (inv(y_lo + h_y, r_lo) - inv(y_lo - h_y, r_lo)) / (2 * h_y)
        di_dr = (inv(y_lo, r_lo + h_r) - inv(y_lo, r_lo - h_r)) / (2 * h_r)
        ds_dy = (sav(y_lo + h_y, r_lo) - sav(y_lo - h_y, r_lo)) / (2 * h_y)
        ds_dr = (sav(y_lo, r_lo + h_r) - sav(y_lo, r_lo - h_r)) / (2 * h_r)

        money, i_lo = spec.money, short_rate(r_lo, spec.params)
        demand, supply = money.demand, money.supply_endogenous
        dl_dy = (demand(y_lo + h_y, i_lo) - demand(y_lo - h_y, i_lo)) / (2 * h_y)
        dm_dy = (supply(y_lo + h_y, i_lo) - supply(y_lo - h_y, i_lo)) / (2 * h_y)
        up_l, up_m = money.level_parts_many(short_rate(rs + h_r, spec.params))
        dn_l, dn_m = money.level_parts_many(short_rate(rs - h_r, spec.params))
        dl_di = (up_l - dn_l) / (2 * h_r)
        dm_di = (up_m - dn_m) / (2 * h_r)

        ii = short_rate(rs, spec.params)
        inside = np.zeros(n, dtype=bool)
        for p, q in money.window_spans():
            inside |= (ii > p) & (ii < q)
        outside = ~inside

        def constant(name, value, want_positive):
            return _signed_check(name, np.array([value]), want_positive, y_lo, rs[:1], n * n)

        def rate_slope(name, values, where, want_positive):
            return _signed_check(name, values[where], want_positive, y_lo, rs[where], n)

        conds = [
            constant("dI_dY > 0", di_dy, True),
            constant("dI_dY < 1", 1.0 - di_dy, True),
            constant("dI_dR < 0", di_dr, False),
            constant("dS_dY > 0", ds_dy, True),
            constant("dS_dY < 1", 1.0 - ds_dy, True),
            constant("dS_dR > 0", ds_dr, True),
            constant("dI_dY < dS_dY (decreasing IS)", ds_dy - di_dy, True),
            constant("dL_dY > 0", dl_dy, True),
            constant("dM_dY > 0", dm_dy, True),
            constant("dM_dY < dL_dY", dl_dy - dm_dy, True),
        ]
        if outside.any():
            conds.append(rate_slope("dL_di_S < 0 outside trap windows", dl_di, outside, False))
            conds.append(rate_slope("dM_di_S > 0 outside trap windows", dm_di, outside, True))
        if inside.any():
            conds.append(rate_slope("dL_di_S > 0 inside trap windows (reversed)",
                                    dl_di, inside, True))
            conds.append(rate_slope("dM_di_S < 0 inside trap windows (reversed)",
                                    dm_di, inside, False))

        conds.append(_boundary_condition(spec, y_range, r_range))
        folds = _fold_landing_condition(spec, (y_lo, y_hi), (r_lo, r_hi))
        if folds is not None:
            conds.append(folds)
        passed = all(c.passed for c in conds)
        return ValidationReport(passed, tuple(conds), tuple(y_range), tuple(r_range), n)
    except Exception as exc:  # contract: report, never raise
        fail = ConditionResult("validation run", False, 0, 0, math.nan,
                               (math.nan, math.nan), detail=str(exc))
        return ValidationReport(False, (fail,), y_range, r_range, grid_n)


def _boundary_condition(spec: ModelSpec, y_range, r_range) -> ConditionResult:
    """Intersection guarantee: the IS curve starts above the lowest LM branch."""
    y0 = max(y_range[0], 0.0)
    b = spec.is_block
    denom = b.i_r + b.s_r
    r_is = ((b.i0 - b.s0) + (b.i_y - b.s_y) * y0) / denom if denom else math.nan
    roots = spec._lm_graph.roots(y0, min(r_range[0], r_is) - abs(r_range[1] - r_range[0]),
                                 r_range[1])
    if not roots:
        return ConditionResult("R_IS above lowest LM branch at low income", False, 1, 0,
                               math.nan, (y0, math.nan),
                               detail="no LM root found at the low-income edge")
    r_lm = roots[0][1]
    margin = r_is - r_lm
    return ConditionResult("R_IS above lowest LM branch at low income",
                           bool(margin > 0), 1, 0, float(margin), (float(y0), float(r_lm)))


def _fold_landing_condition(spec: ModelSpec, y_range, r_range) -> ConditionResult | None:
    """Every fold of the domain releases a jump that lands inside r_range.

    The folds and their jumps are the LM graph's fold table (`_LMGraph.folds`),
    which the branch table and the tracer read too, so a run's jump at a fold
    is the one checked here; the first failure in endpoint order carries its
    error.  The worst value is the least distance of a landing from the edges
    of r_range.  None when the domain shows no fold.
    """
    (r_lo, r_hi), lm = r_range, spec._lm_graph
    folds = lm.folds(y_range, lm._cuts(r_lo, r_hi))
    if not folds:
        return None
    name = "fold jumps land inside r_range"
    for _, r_f, y_f, landing in folds:
        if isinstance(landing, ValueError):
            return ConditionResult(name, False, len(folds), 0, math.nan, (y_f, r_f), str(landing))
    gaps = [min(x - r_lo, r_hi - x) for *_, (_, x) in folds]
    i = gaps.index(min(gaps))
    return ConditionResult(name, True, len(folds), 0, gaps[i], (folds[i][2], folds[i][3][1]))


def _fast_rest(spec: ModelSpec, y: float, r: float, r_range) -> tuple[int, float] | None:
    """Where the fast flow from (y, r) comes to rest, as (interval, rate).

    A positive money excess pushes the rate up, a negative one down, to the
    first root that way (`_LMGraph.landings`); at zero excess the nearer of
    the first roots either way is taken, the lower one on a tie.  None when
    no root in r_range catches the flow.
    """
    e = excess_money(y, r, spec)
    ways = (False, True) if e == 0.0 else (e > 0.0,)
    found = [kx for kx in spec._lm_graph.landings([(y, r, up) for up in ways], *r_range) if kx]
    return min(found, key=lambda kx: abs(kx[1] - r), default=None)


def start_condition(spec: ModelSpec, y0: float, r0: float, y_range, r_range,
                    section: str = "run") -> ConditionResult:
    """Whether a run may start at (y0, r0): its income lies in y_range, and
    its fast flow comes to rest inside r_range (`_fast_rest`) on a stable
    branch.  `section` names the run in the condition.  The worst value is
    the distance of the resting rate from the edges of r_range.  Never
    raises; a failure carries its reason in `detail`.
    """
    name = f"{section} start comes to rest inside the domain"
    point = (y0, r0)
    try:
        (y_lo, y_hi), (r_lo, r_hi) = _domain(y_range, r_range)
        if not y_lo <= y0 <= y_hi:
            detail = f"the start income {y0} lies outside y_range [{y_lo}, {y_hi}]"
        elif (rest := _fast_rest(spec, y0, r0, (r_lo, r_hi))) is None:
            detail = (f"the fast flow from (y={y0}, r={r0}) finds no branch inside "
                      f"r_range [{r_lo}, {r_hi}]")
        elif rest[0] % 2:
            detail = (f"the fast flow from (y={y0}, r={r0}) comes to rest on an "
                      f"unstable branch at r={rest[1]}")
        else:
            x = rest[1]
            return ConditionResult(name, True, 1, 0, min(x - r_lo, r_hi - x), (y0, x))
    except Exception as exc:  # contract: report, never raise
        detail = str(exc)
    return ConditionResult(name, False, 1, 0, math.nan, point, detail)
