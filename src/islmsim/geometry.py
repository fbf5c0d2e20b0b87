"""Curve geometry: IS curve, the multivalued LM isocline, folds, and equilibria.

The LM isocline's topology is read off the trap-window layout.  The excess
slope vanishes only at the window-endpoint rates, so those rates cut the rate
axis into intervals on which the excess is strictly monotone: each interval
is one branch, stable (the fast dynamics attract to it) outside a window and
unstable inside one, and each endpoint rate inside the domain is a fold, at
the income where the excess vanishes there.

Roots come from the same intervals, not from grid sign scans: an interval
holds a root at a given income exactly when the excess signs at its ends
differ, and the root is on that interval's branch.  The fast flow from a
point lands on the first root beyond it in the direction the excess pushes
the rate (`_LMGraph.landings`, on the LM graph's inverse), on the branch of
that root's interval.  Equilibria are the zeros of the excess along the IS line,
which is convex or concave between the money block's segment breaks mapped
onto that line.  Root counts are exact up to the folds, so nothing warns
about tangencies.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .model import (
    ModelDomainError,
    ModelSpec,
    _read_only,
    excess_money,
    excess_money_many,
    excess_money_slope,
)

__all__ = [
    "ISCurve",
    "Branch",
    "FoldPoint",
    "LMIsocline",
    "Equilibrium",
    "is_curve",
    "lm_roots",
    "trace_lm_isocline",
    "find_equilibria",
    "shift_lm",
]

# Equilibria with |det| below this are flagged degenerate instead of classified.
DEGENERATE_DET_TOL = 1e-10
# Node-versus-focus discriminant band.
DISCRIMINANT_BAND = 1e-12
# |excess| at an extremum of the IS-line excess below which it touches zero.
TANGENCY_EXCESS_TOL = 1e-7
ROOT_SCAN_N = 500  # default rate grid of `lm_roots`


@dataclass(frozen=True)
class ISCurve:
    """Closed form of the goods-market equilibrium locus R_IS(Y)."""

    intercept: float
    slope: float

    def r_at(self, y):
        return self.intercept + self.slope * y


@dataclass(frozen=True, eq=False)
class Branch:
    """One single-valued piece of the LM isocline.  Its samples are read-only
    drawing output: results read only its end points, which are exact.
    Equality is identity, and a branch hashes by identity.  `interval` is the
    index k of its rate interval (even k between windows, stable; odd k inside
    one), or -1 for a branch rebuilt from samples alone."""

    ys: np.ndarray
    rs: np.ndarray
    stability: str                       # "stable" | "unstable"
    lo_end: tuple[str, int | str]        # ("fold", index) or ("boundary", side)
    hi_end: tuple[str, int | str]
    index: int = -1
    interval: int = -1

    def __post_init__(self):
        for name in ("ys", "rs"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    def covers(self, y: float) -> bool:
        return self.ys[0] <= y <= self.ys[-1]

    @property
    def y_lo(self) -> float:
        return float(self.ys[0])

    @property
    def y_hi(self) -> float:
        return float(self.ys[-1])


@dataclass(frozen=True)
class FoldPoint:
    """Income/rate pair where two isocline branches meet and vanish."""

    y: float
    r: float
    kind: str  # "lower-knee" | "upper-knee"


@dataclass(frozen=True, eq=False)
class LMIsocline:
    """The traced isocline: its branches and folds over one domain.  Equality
    is identity, and an isocline hashes by identity."""

    branches: tuple[Branch, ...]
    folds: tuple[FoldPoint, ...]
    y_range: tuple[float, float]
    r_range: tuple[float, float]

    def branches_at(self, y: float) -> list[Branch]:
        return [b for b in self.branches if b.covers(y)]

    def max_branch_count(self) -> int:
        ys = sorted({b.y_lo for b in self.branches} | {b.y_hi for b in self.branches})
        best = 0
        for a, b in zip(ys[:-1], ys[1:]):
            mid = 0.5 * (a + b)
            best = max(best, len(self.branches_at(mid)))
        return best


@dataclass(frozen=True)
class Equilibrium:
    y: float
    r: float
    classification: str
    eigenvalues: tuple[complex, complex]
    trace: float
    det: float
    disc: float
    degenerate: bool = False
    branch_index: int = -1


# ---------------------------------------------------------------------------

def is_curve(spec: ModelSpec) -> ISCurve:
    """Closed-form IS curve R_IS(Y) = (i0 - s0 - (s_y - i_y) Y) / (i_r + s_r)."""
    b = spec.is_block
    denom = b.i_r + b.s_r
    return ISCurve(intercept=(b.i0 - b.s0) / denom, slope=(b.i_y - b.s_y) / denom)


def _bisect(f, lo: float, hi: float, f_lo: float, rtol: float) -> float:
    """Bisection of f on [lo, hi], where f(lo) = f_lo and f(hi) differ in
    sign; runs to a relative width of rtol, near machine width."""
    for _ in range(100):
        if hi - lo <= rtol * max(1.0, abs(lo), abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo > 0) != (f_mid > 0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _rate_scan(spec: ModelSpec, r_range: tuple[float, float],
               scan_n: int) -> tuple[list[float], list[float], list[tuple]]:
    """The rate grid, the money excess E(0, .) on it, and the interval table.

    E(y, r) = E(0, r) + (l_y - m_y) y, so one grid evaluation serves every
    income of a trace.  Each table row is one interval between window-endpoint
    rates, where E(0, .) is strictly monotone: its index k among them, its
    ends a < b, E(0, .) at both ends, and the grid nodes [i0, i1) inside it.
    """
    if scan_n < 200:
        raise ValueError("scan_n must be at least 200")
    r_lo, r_hi = r_range
    nodes = np.linspace(r_lo, r_hi, scan_n + 1)
    grid, base = nodes.tolist(), excess_money_many(0.0, nodes, spec).tolist()
    bounds = [-math.inf, *spec._lm_graph.ends, math.inf]
    table = []
    for k in range(len(bounds) - 1):
        a, b = max(r_lo, bounds[k]), min(r_hi, bounds[k + 1])
        if a < b:
            table.append((k, a, b, excess_money(0.0, a, spec), excess_money(0.0, b, spec),
                          bisect_right(grid, a), bisect_left(grid, b)))
    return grid, base, table


def _interval_root(y: float, spec: ModelSpec, scan, row) -> float | None:
    """The root of the monotone E(y, .) in one table interval, if its end signs
    differ (a root on an end belongs to the interval above it, or to the top
    one on the rate edge); binary search narrows the bracket to a grid cell."""
    grid, base, _ = scan
    _, a, b, e_a, e_b, i0, i1 = row
    c = spec._lm_graph.k_y * y
    f_a, f_b = e_a + c, e_b + c
    if f_a == 0.0:
        return a
    if f_b == 0.0:
        return b if b == grid[-1] else None
    up = f_a > 0.0
    if (f_b > 0.0) == up:
        return None
    lo, hi, f_lo = a, b, f_a
    while i0 < i1:
        m = (i0 + i1) // 2
        f_m = base[m] + c
        if f_m == 0.0:
            return grid[m]
        if (f_m > 0.0) == up:
            lo, f_lo, i0 = grid[m], f_m, m + 1
        else:
            hi, i1 = grid[m], m
    return _bisect(partial(spec._excess_money, y), lo, hi, f_lo, 1e-14)


def _scan_roots(y: float, spec: ModelSpec, scan) -> list[tuple[int, float]]:
    """(interval index, rate) of every root at one income on a `_rate_scan`,
    ascending in rate."""
    if y < 0.0:
        raise ModelDomainError(f"income must be non-negative, got {y}")
    return [(row[0], r) for row in scan[2]
            if (r := _interval_root(y, spec, scan, row)) is not None]


def lm_roots(y: float, spec: ModelSpec, r_range: tuple[float, float],
             scan_n: int = ROOT_SCAN_N) -> list[float]:
    """All rates solving the money-market equation at the given income.

    Each interval between window-endpoint rates, where the excess is strictly
    monotone, holds at most one root, found by bisection to an absolute width
    of 1e-14 below rate 1; roots return ascending.  `scan_n` (at least 200)
    sets the rate grid that narrows each bracket.  Landings and the validator
    read the LM graph's own inverse instead (`_LMGraph.landings`), which ends on
    a bracket a few ulps wide, so a small root here may differ from it by
    thousands of ulps.
    """
    return [r for _, r in _scan_roots(y, spec, _rate_scan(spec, r_range, scan_n))]


def _interval_branch(isocline: LMIsocline, k: int, y: float) -> Branch | None:
    """The branch of rate interval k that covers income y, if there is one."""
    return next((b for b in isocline.branches if b.interval == k and b.covers(y)), None)


def trace_lm_isocline(spec: ModelSpec, y_range: tuple[float, float],
                      y_steps: int = 700, r_range: tuple[float, float] | None = None,
                      scan_n: int = 500) -> LMIsocline:
    """Read folds and branches off the window layout; sample them by an income sweep.

    The sorted window-endpoint rates cut the rate axis into intervals on which
    the excess slope keeps one sign, so each interval is one branch (stable
    outside a window, unstable inside one) and each endpoint rate inside the
    domain is a fold.  A branch's ends follow from its interval and the LM
    graph: a fold, the rate edge, placed exactly at (Y_LM(edge), edge), or the
    end of the income range, where the graph is inverted to a few ulps.  At
    each income of the sweep, each interval whose end signs differ gives its
    branch one sample.

    The last result is remembered: a call that repeats the previous call's
    model and domain (equal, not necessarily the same objects) returns the
    same read-only isocline, and any other call traces afresh.  One slot
    covers a model that is traced and then run, and holds one isocline;
    `functools.lru_cache` keeps it, so threads may share the tracer.
    """
    if y_steps < 500:
        raise ValueError("y_steps must be at least 500")
    if r_range is None:
        raise ValueError("r_range is required to bound the rate scan")
    (y_lo, y_hi), (r_lo, r_hi) = y_range, r_range
    return _trace_lm_isocline(spec, (float(y_lo), float(y_hi)), y_steps,
                              (float(r_lo), float(r_hi)), scan_n)


@lru_cache(maxsize=1)
def _trace_lm_isocline(spec: ModelSpec, y_range: tuple[float, float], y_steps: int,
                       r_range: tuple[float, float], scan_n: int) -> LMIsocline:
    """`trace_lm_isocline` on float range pairs, memoised on its last call."""
    lm = spec._lm_graph
    if lm.k_y == 0.0:
        raise ModelDomainError("l_y equals m_y: the money excess does not depend on "
                               "income, so the LM isocline is no graph over income")
    (y_lo, y_hi), (r_lo, r_hi) = y_range, r_range
    scan = _rate_scan(spec, r_range, scan_n)
    table = scan[2]
    # Y_LM at the ends (a, b) of each interval
    end_ys = lm.income([row[1:3] for row in table]).tolist()

    # the graph's fold table, by income: endpoint j is the low end of
    # interval j + 1; even endpoints start a window (lower knee), odd ones end
    # it (upper knee)
    found = sorted((y, r, j) for j, r, y in lm.folds(y_range, r_range))
    folds = tuple(FoldPoint(y, r, ("lower-knee", "upper-knee")[j % 2]) for y, r, j in found)
    fold_of = {j: i for i, (_, _, j) in enumerate(found)}

    samples: dict[int, list[tuple[float, float]]] = {row[0]: [] for row in table}
    for y in np.linspace(y_lo, y_hi, y_steps):
        for k, r in _scan_roots(float(y), spec, scan):
            samples[k].append((float(y), r))

    def end_at(r: float, j: int | None, y: float, bracket: tuple[float, float]):
        """The branch end towards rate r, where the graph reaches income y (j:
        the window endpoint at r, None on the rate edge), and its exact point:
        a fold, the rate edge, or the income edge, where the graph is inverted
        on the interval `bracket` (its rates of lower and higher income)."""
        if j in fold_of:
            return ("fold", fold_of[j]), (y, r)
        if not y_lo <= y <= y_hi:
            y_e = y_lo if y < y_lo else y_hi
            return (("boundary", "y_lo" if y < y_lo else "y_hi"),
                    (y_e, float(lm.rates_at(y_e, *bracket)[0])))
        return ("boundary", "r_lo" if r == r_lo else "r_hi"), (y, r)

    pieces = []
    for row, (y_a, y_b) in zip(table, end_ys):
        k, a, b = row[:3]
        pts = samples[k]
        lo, hi = sorted([(a, k - 1 if a > r_lo else None, y_a),
                         (b, k if b < r_hi else None, y_b)], key=lambda e: e[2])
        if lo[2] > y_hi or hi[2] < y_lo:
            continue
        bracket = (lo[0], hi[0])
        (lo_end, lo_pt), (hi_end, hi_pt) = end_at(*lo, bracket), end_at(*hi, bracket)
        # a geometric sample ladder towards a fold keeps interpolation honest
        # where the branch is steep: it halves the gap from the sweep's sample
        # nearest that end, taken before either ladder adds samples
        anchors = ((pts[0][0], pts[-1][0]) if pts else
                   (min(max(hi[2], y_lo), y_hi), min(max(lo[2], y_lo), y_hi)))
        for end, pt, sign, anchor in ((lo_end, lo_pt, 1.0, anchors[0]),
                                      (hi_end, hi_pt, -1.0, anchors[1])):
            if end[0] == "fold":
                for n in range(1, 11):
                    y_n = pt[0] + sign * abs(anchor - pt[0]) * 0.5 ** n
                    if (r := _interval_root(y_n, spec, scan, row)) is not None:
                        pts.append((y_n, r))
                pts.append(pt)
            else:  # an edge; a sweep sample at its income gives way to it
                pts = [p for p in pts if p[0] != pt[0]]
                pts.insert(0 if sign > 0 else len(pts), pt)
        arr = np.asarray(pts)[np.argsort([y for y, _ in pts])]
        ys_arr, rs_arr = _dedupe_samples(arr[:, 0], arr[:, 1])
        pieces.append((ys_arr, rs_arr, "unstable" if k % 2 else "stable", lo_end, hi_end, k))

    pieces.sort(key=lambda piece: (float(piece[0][0]), float(piece[1][0]),
                                   float(piece[0][-1])))
    branches = tuple(Branch(*piece[:5], index=i, interval=piece[5])
                     for i, piece in enumerate(pieces))
    return LMIsocline(branches, folds, y_range, r_range)


def _dedupe_samples(ys: np.ndarray, rs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keep = np.ones(len(ys), dtype=bool)
    keep[1:] = np.diff(ys) > 1e-13
    return ys[keep], rs[keep]


# ---------------------------------------------------------------------------

def _jacobian(spec: ModelSpec, r: float) -> tuple[float, float, float, float]:
    p, b = spec.params, spec.is_block
    j11 = p.alpha * (b.i_y - b.s_y)
    j12 = -p.alpha * (b.i_r + b.s_r)
    j21 = p.beta * spec._lm_graph.k_y
    j22 = p.beta * excess_money_slope(r, spec)
    return j11, j12, j21, j22


def classify_jacobian(j11: float, j12: float, j21: float, j22: float
                      ) -> tuple[str, tuple[complex, complex], float, float, float, bool]:
    """Trace/determinant classification of a 2x2 Jacobian."""
    tr = j11 + j22
    det = j11 * j22 - j12 * j21
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        s = math.sqrt(disc)
        eig = (complex((tr + s) / 2.0), complex((tr - s) / 2.0))
    else:
        s = math.sqrt(-disc)
        eig = (complex(tr / 2.0, s / 2.0), complex(tr / 2.0, -s / 2.0))
    if abs(det) < DEGENERATE_DET_TOL:
        return "center-degenerate", eig, tr, det, disc, True
    if det < 0.0:
        return "saddle", eig, tr, det, disc, False
    if tr == 0.0:
        return "center-degenerate", eig, tr, det, disc, True
    side = "stable" if tr < 0.0 else "unstable"
    if abs(disc) <= DISCRIMINANT_BAND:
        # inside the node/focus threshold band; report as focus, degenerate
        return f"{side}-focus", eig, tr, det, disc, True
    shape = "node" if disc > 0.0 else "focus"
    return f"{side}-{shape}", eig, tr, det, disc, False


def find_equilibria(spec: ModelSpec, y_range: tuple[float, float],
                    isocline: LMIsocline | None = None,
                    scan_n: int = 2001) -> list[Equilibrium]:
    """Intersections of the IS curve with the LM isocline, classified.

    The equilibria are the zeros of phi(Y) = excess_money(Y, R_IS(Y)).  The
    money block's segment breaks, mapped onto the IS line, cut the income
    range into pieces on which the excess slope is monotone, so phi' is
    monotone and phi convex or concave there: a piece holds at most two
    roots, one on each side of the root Y* of phi', and each side whose ends
    differ in sign is bisected.  Degeneracy rule: when |phi(Y*)| is below
    TANGENCY_EXCESS_TOL, or the two roots lie within one income step
    (y_hi - y_lo) / (scan_n - 1) of each other, the pair is one tangent
    equilibrium at Y*, reported "center-degenerate" with degenerate set.
    Each equilibrium's branch is the one of its rate interval that covers its
    income; a window-endpoint rate belongs to the interval above it, as in
    `_interval_root`.
    """
    if scan_n < 2:
        raise ValueError("scan_n must be at least 2")
    curve = is_curve(spec)
    lm = spec._lm_graph
    y_lo, y_hi = y_range

    money = spec._excess_money

    def phi(y: float) -> float:
        return money(y, curve.r_at(y))

    def dphi(y: float) -> float:
        return lm.k_y + curve.slope * excess_money_slope(curve.r_at(y), spec)

    knots = [y_lo, y_hi]
    if curve.slope != 0.0:
        knots[1:1] = sorted(y for r in lm.breaks.tolist()
                            if y_lo < (y := (r - curve.intercept) / curve.slope) < y_hi)

    found: list[tuple[float, bool]] = []   # (income, tangent)
    step = (y_hi - y_lo) / (scan_n - 1)
    for u, v in zip(knots[:-1], knots[1:]):
        f_u, f_v = phi(u), phi(v)
        # a root on a knot belongs to the piece it starts, or to the last one
        if f_u == 0.0:
            found.append((u, False))
        if f_v == 0.0 and v == y_hi:
            found.append((v, False))
        sides, touching = [(u, f_u, v, f_v)], False
        d_u, d_v = dphi(u), dphi(v)
        if d_u != 0.0 and d_v != 0.0 and (d_u > 0.0) != (d_v > 0.0):
            y_x = _bisect(dphi, u, v, d_u, 1e-15)
            f_x = phi(y_x)
            sides = [(u, f_u, y_x, f_x), (y_x, f_x, v, f_v)]
            touching = abs(f_x) < TANGENCY_EXCESS_TOL
        pair = [_bisect(phi, a, b, f_a, 1e-15) for a, f_a, b, f_b in sides
                if f_a != 0.0 and f_b != 0.0 and (f_a > 0.0) != (f_b > 0.0)]
        if touching or len(pair) == 2 and pair[1] - pair[0] < step:
            found.append((y_x, True))
        else:
            found.extend((y, False) for y in pair)

    results: list[Equilibrium] = []
    for y_star, tangent in sorted(found):
        r_star = float(curve.r_at(y_star))
        cls, eig, tr, det, disc, degen = classify_jacobian(*_jacobian(spec, r_star))
        if tangent:
            cls, degen = "center-degenerate", True
        branch = (None if isocline is None
                  else _interval_branch(isocline, bisect_right(lm.ends, r_star), y_star))
        results.append(Equilibrium(y_star, r_star, cls, eig, tr, det, disc, degen,
                                   -1 if branch is None else branch.index))
    return results


def shift_lm(spec: ModelSpec, d_pi: float = 0.0, d_ms: float = 0.0) -> ModelSpec:
    """New spec with the inflation expectation and/or money stock shifted.

    A pure inflation shift moves every LM branch down by exactly d_pi (the
    rate enters the money market only through i_S = R - MP + pi_e); a money
    stock increase moves every branch weakly downward at fixed income.
    """
    p = spec.params
    if p.m_stock + d_ms <= 0.0:
        raise ValueError(f"money stock must stay positive; {p.m_stock} + {d_ms} <= 0")
    return replace(spec, params=replace(p, m_stock=p.m_stock + d_ms,
                                        expected_inflation=p.expected_inflation + d_pi))
