"""Curve geometry: IS curve, the multivalued LM isocline, folds, and equilibria.

The LM isocline is traced by sweeping income, root-finding the money-market
excess in the rate, and linking roots into branches by continuation; where
the branch count changes, the fold is placed in closed form at the trap-window
endpoint rate between the merging roots.  The excess is linear in
income, so one scan of the rate grid serves the whole sweep.  Arc stability
is the sign of the rate-derivative of the money excess: negative means the
fast dynamics attract to the branch.
"""

from __future__ import annotations

import logging
import math
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
    """Branch continuation failed (discontinuous linkage or malformed data)."""


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


def _stability_sign(spec: ModelSpec, r: float) -> int:
    s = excess_money_slope(r, spec)
    return -1 if s < 0 else (1 if s > 0 else 0)


@dataclass
class _OpenBranch:
    ys: list[float]
    rs: list[float]
    stab: int
    lo_end: tuple[str, int | str] = ("boundary", "y_lo")
    hi_end: tuple[str, int | str] = ("boundary", "y_hi")

    def last_r(self) -> float:
        return self.rs[-1]

    def first_r(self) -> float:
        return self.rs[0]

    def allowed_step(self, fallback: float) -> float:
        # branches bend fast right after a fold, so give young branches slack
        if len(self.rs) < 3:
            return 100.0 * fallback
        d1 = abs(self.rs[-1] - self.rs[-2])
        d2 = abs(self.rs[-2] - self.rs[-3])
        return 10.0 * max(d1, d2, fallback)


def _fold_between(spec: ModelSpec, pair: tuple[float, float]) -> FoldPoint:
    """The fold where a merging root pair meets, in closed form.

    Its rate is the one window-endpoint rate between the pair; the excess is
    linear in income, so its income solves E(0, r) + (l_y - m_y) y = 0.
    """
    r_lo, r_hi = min(pair), max(pair)
    ends = [(r, kind) for span in _window_rates(spec)
            for r, kind in zip(span, ("lower-knee", "upper-knee")) if r_lo <= r <= r_hi]
    if len(ends) != 1:
        raise TracingError(
            f"{len(ends)} trap-window endpoint rates inside root pair ({r_lo}, {r_hi}); "
            "discontinuous branch linkage")
    r_fold, kind = ends[0]
    y_fold = -excess_money(0.0, r_fold, spec) / (spec.money.l_y - spec.money.m_y)
    return FoldPoint(y_fold, r_fold, kind)


def trace_lm_isocline(spec: ModelSpec, y_range: tuple[float, float],
                      y_steps: int = 700, r_range: tuple[float, float] | None = None,
                      scan_n: int = 500) -> LMIsocline:
    """Sweep income, link money-market roots into branches, and place the folds."""
    if y_steps < 500:
        raise ValueError("y_steps must be at least 500")
    if r_range is None:
        raise ValueError("r_range is required to bound the rate scan")
    ys = np.linspace(y_range[0], y_range[1], y_steps)
    scan = _rate_scan(spec, r_range, scan_n)
    fallback_step = (r_range[1] - r_range[0]) / scan_n
    boundary_pad = 2.0 * fallback_step

    open_branches: list[_OpenBranch] = []
    closed: list[_OpenBranch] = []
    # (y_prev, y_curr, dead branches, born branches)
    events: list[tuple[float, float, list[_OpenBranch], list[_OpenBranch]]] = []

    for k, y in enumerate(ys):
        roots = _scan_roots(float(y), spec, scan, warn=False)
        stabs = [_stability_sign(spec, r) for r in roots]

        # pair roots with open branches: greedy nearest with stability tie-break
        unmatched_roots = list(range(len(roots)))
        unmatched_branches = list(range(len(open_branches)))
        cands = []
        for bi in unmatched_branches:
            br = open_branches[bi]
            for ri in unmatched_roots:
                d = abs(roots[ri] - br.last_r())
                stab_penalty = 0 if stabs[ri] == br.stab else 1
                cands.append((d, stab_penalty, bi, ri))
        for d, _, bi, ri in sorted(cands, key=lambda t: (t[0], t[1])):
            if bi in unmatched_branches and ri in unmatched_roots:
                br = open_branches[bi]
                if d > br.allowed_step(fallback_step):
                    continue  # beyond the continuation allowance; leave unmatched
                br.ys.append(float(y))
                br.rs.append(roots[ri])
                unmatched_branches.remove(bi)
                unmatched_roots.remove(ri)

        dead = [open_branches[bi] for bi in unmatched_branches]
        born = [_OpenBranch([float(y)], [roots[ri]], stabs[ri]) for ri in unmatched_roots]
        if k > 0 and (dead or born):
            events.append((float(ys[k - 1]), float(y), dead, born))
        for bi in sorted(unmatched_branches, reverse=True):
            closed.append(open_branches.pop(bi))
        open_branches.extend(born)

    closed.extend(open_branches)

    # resolve each branch-count event into a fold or a scan-boundary exit
    folds: list[FoldPoint] = []
    for y_prev, y_curr, dead, born in events:
        group = dead if len(dead) == 2 else (born if len(born) == 2 else None)
        if group is None:
            lone = (dead + born)[0]
            r_end = lone.last_r() if dead else lone.first_r()
            if r_end < r_range[0] + boundary_pad or r_end > r_range[1] - boundary_pad:
                side = "r_lo" if r_end < r_range[0] + boundary_pad else "r_hi"
                if dead:
                    lone.hi_end = ("boundary", side)
                else:
                    lone.lo_end = ("boundary", side)
                continue
            raise TracingError(
                f"discontinuous branch linkage between incomes {y_prev} and "
                f"{y_curr}: a single branch (rate {r_end}) appeared or vanished "
                "away from the scan boundary")
        pair = (group[0].last_r(), group[1].last_r()) if dead == group else \
               (group[0].first_r(), group[1].first_r())
        fi = len(folds)
        folds.append(_fold_between(spec, pair))
        for ob in group:
            if dead == group:
                ob.hi_end = ("fold", fi)
            else:
                ob.lo_end = ("fold", fi)

    # materialise branches, appending exact fold endpoints plus a geometric
    # sample ladder so interpolation stays honest where the branch is steep
    pieces = []
    for ob in closed:
        ys_list, rs_list = list(ob.ys), list(ob.rs)
        for end, side in ((ob.lo_end, "lo"), (ob.hi_end, "hi")):
            if end[0] != "fold":
                continue
            f = folds[end[1]]
            anchor = ys_list[0] if side == "lo" else ys_list[-1]
            span = abs(anchor - f.y)
            last_r = rs_list[0] if side == "lo" else rs_list[-1]
            for j in range(1, 11):
                y_j = f.y + (span * 0.5 ** j) * (1 if side == "lo" else -1)
                cands = _scan_roots(float(y_j), spec, scan, warn=False)
                # near the fold the sibling root is closer than the tracking
                # gap; the merging pair always has opposite stability, so the
                # branch's own sign disambiguates
                own = [r for r in cands if _stability_sign(spec, r) == ob.stab]
                if not own:
                    continue
                r_near = min(own, key=lambda r: abs(r - last_r))
                ys_list.append(float(y_j))
                rs_list.append(float(r_near))
                last_r = r_near
            ys_list.append(f.y)
            rs_list.append(f.r)
        order = np.argsort(ys_list)
        ys_arr = np.asarray(ys_list)[order]
        rs_arr = np.asarray(rs_list)[order]
        ys_arr, rs_arr = _dedupe_samples(ys_arr, rs_arr)
        stability = "stable" if ob.stab < 0 else "unstable"
        pieces.append((ys_arr, rs_arr, stability, ob.lo_end, ob.hi_end))

    pieces.sort(key=lambda piece: (float(piece[0][0]), float(piece[1][0])))
    branches = tuple(Branch(*piece, index=i) for i, piece in enumerate(pieces))
    return LMIsocline(branches, tuple(folds), tuple(y_range), tuple(r_range))


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
