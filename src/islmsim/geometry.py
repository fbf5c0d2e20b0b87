"""Curve geometry: IS curve, the multivalued LM isocline, folds, and equilibria.

The LM isocline's topology is read off the trap-window layout.  The excess
slope vanishes only at the window-endpoint rates, so those rates cut the rate
axis into intervals on which it keeps one sign: each interval is one branch,
stable (the fast dynamics attract to it) outside a window and unstable inside
one, and each endpoint rate inside the domain is a fold, at the income where
the excess vanishes there.  The branches are sampled by sweeping income; the
excess is linear in income, so one scan of the rate grid serves the whole
sweep, and each root goes to the branch whose interval holds it.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .model import (
    ModelDomainError,
    ModelSpec,
    ModelParams,
    excess_money,
    excess_money_many,
    excess_money_slope,
)

logger = logging.getLogger("islmsim")

__all__ = [
    "TracingError",
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
# |excess| threshold for accepting a near-tangent equilibrium candidate.
TANGENCY_EXCESS_TOL = 1e-7


class TracingError(RuntimeError):
    """Isocline tracing failed.  Kept for API compatibility: the tracer reads
    its topology off the window layout and no longer raises it."""


@dataclass(frozen=True)
class ISCurve:
    """Closed form of the goods-market equilibrium locus R_IS(Y)."""

    intercept: float
    slope: float
    y_range: tuple[float, float] | None = None

    def r_at(self, y):
        return self.intercept + self.slope * y

    def shifted(self, dr: float) -> "ISCurve":
        return ISCurve(self.intercept + dr, self.slope, self.y_range)


@dataclass(frozen=True)
class Branch:
    """One single-valued piece of the LM isocline."""

    ys: np.ndarray
    rs: np.ndarray
    stability: str                       # "stable" | "unstable"
    lo_end: tuple[str, int | str]        # ("fold", index) or ("boundary", side)
    hi_end: tuple[str, int | str]
    index: int = -1

    def r_at(self, y: float) -> float:
        if not self.covers(y):
            raise ValueError(f"income {y} outside branch domain "
                             f"[{self.ys[0]}, {self.ys[-1]}]")
        return float(np.interp(y, self.ys, self.rs))

    def covers(self, y: float) -> bool:
        return self.ys[0] - 1e-12 <= y <= self.ys[-1] + 1e-12

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


@dataclass(frozen=True)
class LMIsocline:
    branches: tuple[Branch, ...]
    folds: tuple[FoldPoint, ...]
    y_range: tuple[float, float]
    r_range: tuple[float, float]

    def branches_at(self, y: float) -> list[Branch]:
        return [b for b in self.branches if b.covers(y)]

    def stable_branches_at(self, y: float) -> list[Branch]:
        return [b for b in self.branches_at(y) if b.stability == "stable"]

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

def is_curve(spec: ModelSpec, y_range: tuple[float, float] | None = None) -> ISCurve:
    """Closed-form IS curve R_IS(Y) = (i0 - s0 - (s_y - i_y) Y) / (i_r + s_r)."""
    b = spec.is_block
    denom = b.i_r + b.s_r
    return ISCurve(intercept=(b.i0 - b.s0) / denom,
                   slope=(b.i_y - b.s_y) / denom,
                   y_range=y_range)


def _bisect_root(spec: ModelSpec, y: float, lo: float, hi: float,
                 f_lo: float | None = None) -> float:
    """Bisection on excess_money(y, .); runs to near machine width."""
    if f_lo is None:
        f_lo = excess_money(y, lo, spec)
    if f_lo == 0.0:
        return lo
    for _ in range(100):
        if hi - lo <= 1e-14 * max(1.0, abs(lo), abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        f_mid = excess_money(y, mid, spec)
        if f_mid == 0.0:
            return mid
        if (f_lo > 0) != (f_mid > 0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _window_rates(spec: ModelSpec) -> list[tuple[float, float]]:
    """Long rates (p, q) + MP - pi_e of each trap window's endpoints.

    The excess slope vanishes there and nowhere else, so every fold of the
    LM isocline sits at one of these rates: a lower knee at a window start,
    an upper knee at a window end.
    """
    off = spec.params.maturity_premium - spec.params.expected_inflation
    return [(p + off, q + off) for p, q in spec.money.window_spans()]


def _rate_scan(spec: ModelSpec, r_range: tuple[float, float],
               scan_n: int) -> tuple[np.ndarray, np.ndarray]:
    """The rate grid of the root scan and the money excess on it at zero income.

    The excess is linear in income, E(y, r) = E(0, r) + (l_y - m_y) y, so one
    grid evaluation serves every income of a trace.
    """
    if scan_n < 200:
        raise ValueError("scan_n must be at least 200")
    grid = np.linspace(r_range[0], r_range[1], scan_n + 1)
    return grid, excess_money_many(0.0, grid, spec)


def _scan_roots(y: float, spec: ModelSpec, scan: tuple[np.ndarray, np.ndarray],
                warn: bool) -> list[float]:
    """lm_roots at one income on a precomputed `_rate_scan`."""
    if y < 0.0:
        raise ModelDomainError(f"income must be non-negative, got {y}")
    grid, base = scan
    vals = base + (spec.money.l_y - spec.money.m_y) * y
    roots: list[float] = []
    endpoint_rates = [r for span in _window_rates(spec) for r in span]
    exact = np.nonzero(vals == 0.0)[0]
    for k in exact:
        roots.append(float(grid[k]))
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    for k in flips:
        lo, hi = float(grid[k]), float(grid[k + 1])
        if warn:
            for w in endpoint_rates:
                if lo < w < hi:
                    logger.warning(
                        "root bracket [%g, %g] at income %g straddles a trap-window "
                        "endpoint rate %g; tangency risk", lo, hi, y, w)
        roots.append(_bisect_root(spec, y, lo, hi, float(vals[k])))
    roots.sort()
    if warn and roots and len(roots) % 2 == 0:
        logger.warning("even root count %d at income %g suggests a tangency",
                       len(roots), y)
    return roots


def lm_roots(y: float, spec: ModelSpec, r_range: tuple[float, float],
             scan_n: int = 500, warn: bool = True) -> list[float]:
    """All rates solving the money-market equation at the given income.

    Uniform sign-change scan followed by bisection; roots return ascending.
    Emits warnings when a bracket straddles a trap-window endpoint (where the
    excess has zero slope, so a tangency could hide a root pair) and when the
    root count is even, which generically signals a tangency.
    """
    return _scan_roots(y, spec, _rate_scan(spec, r_range, scan_n), warn)


def trace_lm_isocline(spec: ModelSpec, y_range: tuple[float, float],
                      y_steps: int = 700, r_range: tuple[float, float] | None = None,
                      scan_n: int = 500) -> LMIsocline:
    """Read folds and branches off the window layout; sample them by an income sweep.

    The sorted window-endpoint rates cut the rate axis into intervals on which
    the excess slope keeps one sign, so each interval is one branch (stable
    outside a window, unstable inside one) and each endpoint rate inside the
    domain is a fold.  A branch's ends follow from its interval: a fold, the
    end of the income grid, or the rate edge, placed exactly at
    (Y_LM(edge), edge).  Every root of the sweep goes to the branch whose
    interval holds it.
    """
    if y_steps < 500:
        raise ValueError("y_steps must be at least 500")
    if r_range is None:
        raise ValueError("r_range is required to bound the rate scan")
    k_y = spec.money.l_y - spec.money.m_y
    if k_y == 0.0:
        raise ModelDomainError("l_y equals m_y: the money excess does not depend on "
                               "income, so the LM isocline is no graph over income")
    (y_lo, y_hi), (r_lo, r_hi) = y_range, r_range
    ends = [r for span in _window_rates(spec) for r in span]

    def income(r: float) -> float:
        return -excess_money(0.0, r, spec) / k_y

    # even endpoints start a window (lower knee), odd ones end it (upper knee)
    found = sorted((y, r, j) for j, r in enumerate(ends)
                   if r_lo < r < r_hi and y_lo <= (y := income(r)) <= y_hi)
    folds = tuple(FoldPoint(y, r, ("lower-knee", "upper-knee")[j % 2]) for y, r, j in found)
    fold_of = {j: i for i, (_, _, j) in enumerate(found)}

    scan = _rate_scan(spec, r_range, scan_n)
    samples: list[list[tuple[float, float]]] = [[] for _ in range(len(ends) + 1)]
    for y in np.linspace(y_lo, y_hi, y_steps):
        for r in _scan_roots(float(y), spec, scan, warn=False):
            samples[bisect_right(ends, r)].append((float(y), r))

    def end_at(r: float, j: int | None, y: float):
        """The branch end at rate r and income y (j: the window endpoint at r,
        None on the rate edge), with its exact point if it has one."""
        if j in fold_of:
            f = folds[fold_of[j]]
            return ("fold", fold_of[j]), (f.y, f.r)
        if not y_lo <= y <= y_hi:
            return ("boundary", "y_lo" if y < y_lo else "y_hi"), None
        return ("boundary", "r_lo" if r == r_lo else "r_hi"), (y, r)

    pieces = []
    bounds = [-math.inf, *ends, math.inf]
    for k, pts in enumerate(samples):
        a, b = max(r_lo, bounds[k]), min(r_hi, bounds[k + 1])
        if a >= b:
            continue
        lo, hi = sorted([(a, k - 1 if a > r_lo else None, income(a)),
                         (b, k if b < r_hi else None, income(b))], key=lambda e: e[2])
        if lo[2] > y_hi or hi[2] < y_lo:
            continue
        (lo_end, lo_pt), (hi_end, hi_pt) = end_at(*lo), end_at(*hi)
        for end, pt, sign, far in ((lo_end, lo_pt, 1.0, hi[2]), (hi_end, hi_pt, -1.0, lo[2])):
            if end[0] == "fold":
                # a geometric sample ladder towards the fold keeps interpolation
                # honest where the branch is steep; it halves the gap from the
                # first sample to a low end, from the last one placed to a high
                # end (the low fold, on a branch between two folds)
                anchor = pts[0 if sign > 0 else -1][0] if pts else min(max(far, y_lo), y_hi)
                for n in range(1, 11):
                    y_n = pt[0] + sign * abs(anchor - pt[0]) * 0.5 ** n
                    pts.extend((y_n, r) for r in _scan_roots(y_n, spec, scan, warn=False)
                               if bisect_right(ends, r) == k)
                pts.append(pt)
            elif pt is not None:  # the rate edge
                pts.insert(0 if sign > 0 else len(pts), pt)
        arr = np.asarray(pts)[np.argsort([y for y, _ in pts])]
        ys_arr, rs_arr = _dedupe_samples(arr[:, 0], arr[:, 1])
        pieces.append((ys_arr, rs_arr, "unstable" if k % 2 else "stable", lo_end, hi_end))

    pieces.sort(key=lambda piece: (float(piece[0][0]), float(piece[1][0]),
                                   float(piece[0][-1])))
    branches = tuple(Branch(*piece, index=i) for i, piece in enumerate(pieces))
    return LMIsocline(branches, folds, tuple(y_range), tuple(r_range))


def _dedupe_samples(ys: np.ndarray, rs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keep = np.ones(len(ys), dtype=bool)
    keep[1:] = np.diff(ys) > 1e-13
    return ys[keep], rs[keep]


# ---------------------------------------------------------------------------

def _jacobian(spec: ModelSpec, r: float) -> tuple[float, float, float, float]:
    p, b = spec.params, spec.is_block
    j11 = p.alpha * (b.i_y - b.s_y)
    j12 = -p.alpha * (b.i_r + b.s_r)
    j21 = p.beta * (spec.money.l_y - spec.money.m_y)
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

    Works on the scalar function excess_money(Y, R_IS(Y)): its zeros are
    exactly the equilibria.  Sign-change roots are polished by bisection;
    touching (tangent) zeros are picked up by a local-minimum probe and
    reported as degenerate instead of classified.
    """
    curve = is_curve(spec)
    ys = np.linspace(y_range[0], y_range[1], scan_n)
    phi = excess_money_many(ys, curve.r_at(ys), spec)

    results: list[Equilibrium] = []
    roots: list[float] = [float(ys[k]) for k in np.nonzero(phi == 0.0)[0]]
    flips = np.nonzero(np.sign(phi[:-1]) * np.sign(phi[1:]) < 0)[0]
    for k in flips:
        a, b = float(ys[k]), float(ys[k + 1])
        fa = float(phi[k])
        for _ in range(100):
            if b - a <= 1e-15 * max(1.0, abs(a), abs(b)):
                break
            mid = 0.5 * (a + b)
            fm = excess_money(mid, curve.r_at(mid), spec)
            if fm == 0.0:
                a = b = mid
                break
            if (fa > 0) != (fm > 0):
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    for y_star in sorted(roots):
        r_star = curve.r_at(y_star)
        cls, eig, tr, det, disc, degen = classify_jacobian(*_jacobian(spec, r_star))
        results.append(Equilibrium(y_star, float(r_star), cls, eig, tr, det, disc, degen,
                                   _nearest_branch(isocline, y_star, float(r_star))))

    # tangency probe: interior local minima of |phi| that nearly touch zero
    absphi = np.abs(phi)
    for k in range(1, len(ys) - 1):
        if absphi[k] <= absphi[k - 1] and absphi[k] <= absphi[k + 1]:
            if np.sign(phi[k - 1]) * np.sign(phi[k + 1]) < 0:
                continue  # a sign change already handled above
            y_min, f_min = _minimize_absphi(spec, curve, float(ys[k - 1]), float(ys[k + 1]))
            if f_min < TANGENCY_EXCESS_TOL:
                r_min = float(curve.r_at(y_min))
                if any(abs(e.y - y_min) < 1e-6 for e in results):
                    continue
                _, eig, tr, det, disc, _ = classify_jacobian(*_jacobian(spec, r_min))
                results.append(Equilibrium(y_min, r_min, "center-degenerate", eig,
                                           tr, det, disc, True,
                                           _nearest_branch(isocline, y_min, r_min)))
    results.sort(key=lambda e: e.y)
    return results


def _minimize_absphi(spec: ModelSpec, curve: ISCurve, a: float, b: float
                     ) -> tuple[float, float]:
    f = lambda y: abs(excess_money(y, curve.r_at(y), spec))
    # golden-section search
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if abs(b - a) < 1e-13 * max(1.0, abs(a), abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    y = 0.5 * (a + b)
    return y, f(y)


def _nearest_branch(isocline: LMIsocline | None, y: float, r: float) -> int:
    if isocline is None:
        return -1
    best, best_d = -1, math.inf
    for b in isocline.branches:
        if b.covers(y):
            d = abs(b.r_at(y) - r)
            if d < best_d:
                best, best_d = b.index, d
    return best


def shift_lm(spec: ModelSpec, d_pi: float = 0.0, d_ms: float = 0.0) -> ModelSpec:
    """New spec with the inflation expectation and/or money stock shifted.

    A pure inflation shift moves every LM branch down by exactly d_pi (the
    rate enters the money market only through i_S = R - MP + pi_e); a money
    stock increase moves every branch weakly downward at fixed income.
    """
    p = spec.params
    if p.m_stock + d_ms <= 0.0:
        raise ValueError(f"money stock must stay positive; {p.m_stock} + {d_ms} <= 0")
    new_params = ModelParams(
        alpha=p.alpha, beta=p.beta, epsilon=p.epsilon,
        m_stock=p.m_stock + d_ms,
        maturity_premium=p.maturity_premium,
        expected_inflation=p.expected_inflation + d_pi,
    )
    return ModelSpec(params=new_params, is_block=spec.is_block, money=spec.money)
