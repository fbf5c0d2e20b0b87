"""Curve geometry: IS curve, the multivalued LM isocline, folds, and equilibria.

The LM isocline's topology is read off the trap-window layout.  The excess
slope vanishes only at the window-endpoint rates, so those rates cut the rate
axis into intervals on which the excess is strictly monotone: each interval
is one branch, stable (the fast dynamics attract to it) outside a window and
unstable inside one, and each endpoint rate inside the domain is a fold, at
the income where the excess vanishes there.  The LM graph (`_LMGraph`) lays
out those intervals and says which one holds a rate; this module reads it.

Roots come from the same intervals, not from grid sign scans: an interval
holds a root at a given income exactly when the excess signs at its ends
differ, and the root is on that interval's branch.  The fast flow from a
point lands on the first root beyond it in the direction the excess pushes
the rate (`_LMGraph.landings`, on the LM graph's inverse), on the branch of
that root's interval.  Equilibria are the zeros of the excess along the IS line,
which is convex or concave between the money block's segment breaks mapped
onto that line.  Root counts are exact up to the folds, so nothing warns
about tangencies.

`lm_branches` gives the branches and folds as a table, each branch with only
its two exact ends, for results; `trace_lm_isocline` samples the same
branches between those ends, for drawing.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import count

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
    "lm_branches",
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
    drawing output (a `lm_branches` branch holds just its two ends): results
    read only its end points, which are exact.
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
    """Income/rate pair where two isocline branches meet and vanish.  A fold
    of `lm_branches` or a trace also carries its index j in the LM graph's
    `ends` and its jump's landing from the fold table (`_LMGraph.folds`),
    which no equality, hash, repr or document reads; a fold read back from
    a document has neither (-1, None)."""

    y: float
    r: float
    kind: str  # "lower-knee" | "upper-knee"
    endpoint: int = field(default=-1, compare=False, repr=False)
    landing: tuple | ValueError | None = field(default=None, compare=False, repr=False)

    def jump(self) -> tuple[str, int, float]:
        """(direction, landing interval, landing rate) of the jump, or its error."""
        if self.landing is None:
            raise ValueError(f"the fold at (y={self.y}, r={self.r}) carries no landing: "
                             "only a fold of `lm_branches` or a trace has one")
        if isinstance(self.landing, ValueError):
            raise type(self.landing)(*self.landing.args)
        return ("up" if self.kind == "lower-knee" else "down"), *self.landing


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
    sign; runs to a relative width of rtol, near machine width, which any
    finite bracket reaches within 1100 halvings (1e308 to 1e-15: 1075)."""
    for _ in range(1100):
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
    income of a trace.  Each table row is one interval of the LM graph's
    layout (`_LMGraph._cuts`), where E(0, .) is strictly monotone: its index
    k, ends a < b, E(0, .) at both, and the grid nodes [i0, i1) inside it.
    """
    if scan_n < 200:
        raise ValueError("scan_n must be at least 200")
    nodes = np.linspace(*r_range, scan_n + 1)
    grid, base = nodes.tolist(), excess_money_many(0.0, nodes, spec).tolist()
    k0, cuts, _ = spec._lm_graph._cuts(*r_range)
    table = [(k, a, b, excess_money(0.0, a, spec), excess_money(0.0, b, spec),
              bisect_right(grid, a), bisect_left(grid, b))
             for k, a, b in zip(count(k0), cuts, cuts[1:])]
    return grid, base, table


def _interval_root(y: float, spec: ModelSpec, scan, row) -> float | None:
    """The root of the monotone E(y, .) in one table interval, if its end signs
    differ (a root on an end is listed once, by the interval above it or the
    top one on the rate edge); binary search narrows the bracket to a cell."""
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


def lm_branches(spec: ModelSpec, y_range: tuple[float, float],
                r_range: tuple[float, float]) -> LMIsocline:
    """The LM isocline's branch table over one domain, read off the window
    layout in closed form, with no sampling.

    The sorted window-endpoint rates cut the rate axis into intervals on which
    the excess slope keeps one sign, so each interval that reaches the domain
    is one branch (stable outside a window, unstable inside one) and each
    endpoint rate inside the domain is a fold.  A branch's ends follow from
    its interval and the LM graph: a fold, the rate edge, placed exactly at
    (Y_LM(edge), edge), or the end of the income range, where the graph is
    inverted to a few ulps.  Each branch's samples are just those two ends,
    so the table is for results, never for drawing: its branches, indices,
    intervals, end kinds and folds are the ones `trace_lm_isocline` samples,
    bit for bit, and `find_equilibria` and `plan_stabilization` read either.
    """
    lm = spec._lm_graph
    if lm.k_y == 0.0:
        raise ModelDomainError("l_y equals m_y: the money excess does not depend on "
                               "income, so the LM isocline is no graph over income")
    y_lo, y_hi = y_range = (float(y_range[0]), float(y_range[1]))
    r_lo, r_hi = r_range = (float(r_range[0]), float(r_range[1]))
    # the intervals, Y_LM at their ends, and the fold table, from one layout
    cut = k0, cuts, incomes = lm._cuts(r_lo, r_hi)

    # the fold table by income: endpoint j is the low end of interval j + 1;
    # even endpoints start a window (lower knee), odd ones end it (upper knee)
    folds = tuple(FoldPoint(y, r, ("lower-knee", "upper-knee")[j % 2], j, landing)
                  for j, r, y, landing in sorted(lm.folds(y_range, cut),
                                                 key=lambda f: (f[2], f[1])))
    fold_of = {f.endpoint: i for i, f in enumerate(folds)}

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
    for k, a, b, y_a, y_b in zip(count(k0), cuts, cuts[1:], incomes, incomes[1:]):
        lo, hi = sorted([(a, k - 1 if a > r_lo else None, y_a),
                         (b, k if b < r_hi else None, y_b)], key=lambda e: e[2])
        if lo[2] > y_hi or hi[2] < y_lo:
            continue
        bracket = (lo[0], hi[0])
        (lo_end, lo_pt), (hi_end, hi_pt) = end_at(*lo, bracket), end_at(*hi, bracket)
        pieces.append((np.array([lo_pt[0], hi_pt[0]]), np.array([lo_pt[1], hi_pt[1]]),
                       "unstable" if k % 2 else "stable", lo_end, hi_end, k))

    pieces.sort(key=lambda piece: (float(piece[0][0]), float(piece[1][0]),
                                   float(piece[0][-1])))
    branches = tuple(Branch(*piece[:5], index=i, interval=piece[5])
                     for i, piece in enumerate(pieces))
    return LMIsocline(branches, folds, y_range, r_range)


def trace_lm_isocline(spec: ModelSpec, y_range: tuple[float, float], y_steps: int,
                      r_range: tuple[float, float], scan_n: int = 500) -> LMIsocline:
    """The branch table of `lm_branches`, each branch sampled for drawing.

    Between each branch's two exact ends go the samples of an income sweep
    (at each income, each interval whose end signs differ gives its branch
    one sample) and a geometric ladder towards each fold end, so a branch's
    first and last samples are the table's ends.

    The last result is remembered: a call that repeats the previous call's
    model and domain (equal, not necessarily the same objects) returns the
    same read-only isocline, and any other call traces afresh.  One slot
    covers a model that is traced and then run, and holds one isocline;
    `functools.lru_cache` keeps it, so threads may share the tracer.
    """
    if y_steps < 500:
        raise ValueError("y_steps must be at least 500")
    (y_lo, y_hi), (r_lo, r_hi) = y_range, r_range
    return _trace_lm_isocline(spec, (float(y_lo), float(y_hi)), y_steps,
                              (float(r_lo), float(r_hi)), scan_n)


@lru_cache(maxsize=1)
def _trace_lm_isocline(spec: ModelSpec, y_range: tuple[float, float], y_steps: int,
                       r_range: tuple[float, float], scan_n: int) -> LMIsocline:
    """`trace_lm_isocline` on float range pairs, memoised on its last call."""
    table = lm_branches(spec, y_range, r_range)
    scan = _rate_scan(spec, r_range, scan_n)
    rows = {row[0]: row for row in scan[2]}
    samples: dict[int, list[tuple[float, float]]] = {k: [] for k in rows}
    for y in np.linspace(*y_range, y_steps):
        for k, r in _scan_roots(float(y), spec, scan):
            samples[k].append((float(y), r))

    branches = []
    for b in table.branches:
        pts, row = samples[b.interval], rows[b.interval]
        y_a, y_b = b.ys.tolist()
        # a geometric sample ladder towards a fold keeps interpolation honest
        # where the branch is steep: it halves the gap from the sweep's sample
        # nearest that end, taken before either ladder adds samples
        anchors = (pts[0][0], pts[-1][0]) if pts else (y_b, y_a)
        for end, y_e, sign, anchor in ((b.lo_end, y_a, 1.0, anchors[0]),
                                       (b.hi_end, y_b, -1.0, anchors[1])):
            if end[0] == "fold":
                for n in range(1, 11):
                    y_n = y_e + sign * abs(anchor - y_e) * 0.5 ** n
                    if (r := _interval_root(y_n, spec, scan, row)) is not None:
                        pts.append((y_n, r))
        inner = np.array([p for p in pts if y_a < p[0] < y_b]).reshape(-1, 2)
        inner = inner[np.argsort(inner[:, 0], kind="stable")]
        ys, rs = _dedupe_samples(np.insert(b.ys, 1, inner[:, 0]),
                                 np.insert(b.rs, 1, inner[:, 1]))
        branches.append(Branch(ys, rs, b.stability, b.lo_end, b.hi_end,
                               index=b.index, interval=b.interval))
    return LMIsocline(tuple(branches), table.folds, table.y_range, table.r_range)


def _dedupe_samples(ys: np.ndarray, rs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop each sample within 1e-13 in income above the one before it, and
    each one within 1e-13 below the last, which stays: the first and last
    samples are a branch's exact ends."""
    keep = np.ones(len(ys), dtype=bool)
    keep[1:] = np.diff(ys) > 1e-13
    keep[1:-1] &= ys[-1] - ys[1:-1] > 1e-13
    keep[-1] = True
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
                    isocline: LMIsocline | None = None) -> list[Equilibrium]:
    """Intersections of the IS curve with the LM isocline, classified.

    The equilibria are the zeros of phi(Y) = excess_money(Y, R_IS(Y)).  The
    money block's segment breaks, mapped onto the IS line, cut the income
    range into pieces on which the excess slope is monotone, so phi' is
    monotone and phi convex or concave there: a piece holds at most two
    roots, one on each side of the root Y* of phi', and each side whose ends
    differ in sign is bisected.  Degeneracy rule: when |phi(Y*)| is below
    TANGENCY_EXCESS_TOL the pair is one tangent equilibrium at Y*, reported
    "center-degenerate" with degenerate set; no sampling density enters.
    Each equilibrium's branch is the one of its rate interval
    (`_LMGraph.intervals`) that covers its income.  Only the branches'
    intervals, indices and ends are read, so `isocline` may be the
    `lm_branches` table or a trace.
    """
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
    for u, v in zip(knots[:-1], knots[1:]):
        f_u, f_v = phi(u), phi(v)
        # a root on a knot belongs to the piece it starts, or to the last one
        if f_u == 0.0:
            found.append((u, False))
        if f_v == 0.0 and v == y_hi:
            found.append((v, False))
        sides = [(u, f_u, v, f_v)]
        d_u, d_v = dphi(u), dphi(v)
        if d_u != 0.0 and d_v != 0.0 and (d_u > 0.0) != (d_v > 0.0):
            y_x = _bisect(dphi, u, v, d_u, 1e-15)
            f_x = phi(y_x)
            if abs(f_x) < TANGENCY_EXCESS_TOL:
                found.append((y_x, True))
                continue
            sides = [(u, f_u, y_x, f_x), (y_x, f_x, v, f_v)]
        found.extend((_bisect(phi, a, b, f_a, 1e-15), False) for a, f_a, b, f_b in sides
                     if f_a != 0.0 and f_b != 0.0 and (f_a > 0.0) != (f_b > 0.0))

    results: list[Equilibrium] = []
    found.sort()
    rates = [float(curve.r_at(y)) for y, _ in found]
    for (y_star, tangent), r_star, k in zip(found, rates, lm.intervals(rates).tolist()):
        cls, eig, tr, det, disc, degen = classify_jacobian(*_jacobian(spec, r_star))
        if tangent:
            cls, degen = "center-degenerate", True
        branch = None if isocline is None else _interval_branch(isocline, k, y_star)
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
