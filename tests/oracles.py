"""Independent oracles for the test suite.

Everything here recomputes expected values through routes the library does
not use: numerical quadrature of the slope functions instead of closed-form
integrals, brute-force dense scans instead of continuation, finite-difference
Jacobians and eigenvalue classification instead of the analytic trace and
determinant shortcut.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from islmsim.model import ModelSpec, excess_goods, excess_money


def rate_gap_slope(spec: ModelSpec, i: float) -> float:
    """d(L - M)/d(i_S) straight from the block's slope description."""
    d_l, d_m = spec.money.slope_parts(i)
    return d_l - d_m


def rate_gap_by_quadrature(spec: ModelSpec, i: float) -> float:
    """f_L(i) - f_M(i) by adaptive quadrature of the slopes from zero."""
    val, err = quad(lambda s: rate_gap_slope(spec, s), 0.0, i, limit=800,
                    points=_breakpoints(spec, 0.0, i))
    assert err < 5e-10
    return val


def _breakpoints(spec: ModelSpec, a: float, b: float) -> list[float]:
    # piece boundaries per the documented shoulder sizing rule: half the
    # window width, capped at 45% of the gap to the neighbouring window
    ws = spec.money.windows
    pts = []
    for j, w in enumerate(ws):
        width = w.q - w.p
        gap_l = w.p if j == 0 else w.p - ws[j - 1].q
        gap_r = math.inf if j == len(ws) - 1 else ws[j + 1].p - w.q
        w_l = min(0.5 * width, gap_l if j == 0 else 0.45 * gap_l)
        w_r = min(0.5 * width, 0.45 * gap_r)
        for x in (w.p - w_l, w.p, 0.5 * (w.p + w.q), w.q, w.q + w_r):
            if min(a, b) < x < max(a, b):
                pts.append(x)
    return sorted(pts) or None


def excess_money_by_quadrature(spec: ModelSpec, y: float, r: float) -> float:
    """Money-market excess rebuilt from quadrature instead of closed forms."""
    p = spec.params
    i = r - p.maturity_premium + p.expected_inflation
    m = spec.money
    return ((m.l0 - m.m0) + (m.l_y - m.m_y) * y
            + rate_gap_by_quadrature(spec, i) - p.m_stock)


def fold_positions(spec: ModelSpec, y_range: tuple[float, float]) -> list[tuple[float, float, str]]:
    """Exact fold points from first principles.

    The excess slope vanishes exactly at the trap-window endpoints, so each
    endpoint rate is a fold rate; the fold income solves excess = 0 there,
    found by bracketing the quadrature-based excess in income.
    """
    p = spec.params
    offset = p.maturity_premium - p.expected_inflation
    folds = []
    for w in spec.money.windows:
        for i_s, kind in ((w.p, "lower-knee"), (w.q, "upper-knee")):
            r = i_s + offset
            f = lambda y: excess_money_by_quadrature(spec, y, r)
            lo, hi = y_range
            if f(lo) * f(hi) > 0:
                continue
            y_fold = brentq(f, lo, hi, xtol=1e-14, rtol=1e-15)
            folds.append((y_fold, r, kind))
    folds.sort()
    return folds


def dense_scan_roots(spec: ModelSpec, y: float, r_range: tuple[float, float],
                     n: int = 100_000, refine: int = 80) -> list[float]:
    """Brute-force root isolation on a very dense rate grid."""
    grid = np.linspace(r_range[0], r_range[1], n + 1)
    p = spec.params
    i = grid - p.maturity_premium + p.expected_inflation
    m = spec.money
    f_l, f_m = m.level_parts_many(i)
    vals = (m.l0 - m.m0) + (m.l_y - m.m_y) * y + (f_l - f_m) - p.m_stock
    roots = [float(grid[k]) for k in np.nonzero(vals == 0.0)[0]]
    for k in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
        lo, hi = float(grid[k]), float(grid[k + 1])
        f_lo = float(vals[k])
        for _ in range(refine):
            mid = 0.5 * (lo + hi)
            f_mid = excess_money(y, mid, spec)
            if f_mid == 0.0:
                lo = hi = mid
                break
            if (f_lo > 0) != (f_mid > 0):
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        roots.append(0.5 * (lo + hi))
    return sorted(roots)


def fd_jacobian(spec: ModelSpec, y: float, r: float, h: float = 1e-7) -> np.ndarray:
    """Finite-difference Jacobian of (alpha*(I-S), beta*(L-M-M_S)).

    Within h of income 0 the income column is a forward difference, which
    stays in the model domain; both excesses are linear in income, so it is
    exact to rounding.
    """
    p = spec.params

    def f(yy, rr):
        return np.array([p.alpha * excess_goods(yy, rr, spec),
                         p.beta * excess_money(yy, rr, spec)])

    j = np.empty((2, 2))
    if y < h:
        j[:, 0] = (f(y + h, r) - f(y, r)) / h
    else:
        j[:, 0] = (f(y + h, r) - f(y - h, r)) / (2 * h)
    j[:, 1] = (f(y, r + h) - f(y, r - h)) / (2 * h)
    return j


def classify_by_eigenvalues(eigs: np.ndarray, det_tol: float = 1e-10) -> str:
    """Classification from the eigenvalues alone."""
    det = float(np.prod(eigs).real)
    if abs(det) < det_tol:
        return "center-degenerate"
    re = np.real(eigs)
    im = np.imag(eigs)
    if det < 0.0:
        return "saddle"
    if np.allclose(re, 0.0, atol=1e-12):
        return "center-degenerate"
    side = "stable" if np.all(re < 0.0) else "unstable"
    shape = "focus" if np.any(np.abs(im) > 0.0) else "node"
    return f"{side}-{shape}"


def brute_force_equilibria(spec: ModelSpec, y_range: tuple[float, float],
                           r_range: tuple[float, float], ny: int = 400,
                           nr: int = 400) -> list[tuple[float, float, str]]:
    """Grid search for simultaneous zeros of both excess functions, polished
    by damped Newton on the finite-difference Jacobian."""
    ys = np.linspace(max(y_range[0], 0.0) + 1e-9, y_range[1], ny)
    rs = np.linspace(r_range[0], r_range[1], nr)
    found: list[tuple[float, float, str]] = []
    p = spec.params
    b = spec.is_block
    gy, gr = np.meshgrid(ys, rs, indexing="ij")
    goods = (b.i0 - b.s0) + (b.i_y - b.s_y) * gy - (b.i_r + b.s_r) * gr
    from islmsim.model import excess_money_many
    money = excess_money_many(gy, gr, spec)
    sign_change = (
        (np.sign(goods[:-1, :-1]) != np.sign(goods[1:, 1:])) |
        (np.sign(goods[:-1, 1:]) != np.sign(goods[1:, :-1]))
    ) & (
        (np.sign(money[:-1, :-1]) != np.sign(money[1:, 1:])) |
        (np.sign(money[:-1, 1:]) != np.sign(money[1:, :-1]))
    )
    for ki, kj in zip(*np.nonzero(sign_change)):
        y, r = float(ys[ki]), float(rs[kj])
        ok = True
        for _ in range(80):
            f = np.array([p.alpha * excess_goods(max(y, 0.0), r, spec),
                          p.beta * excess_money(max(y, 0.0), r, spec)])
            if np.max(np.abs(f)) < 1e-13:
                break
            j = fd_jacobian(spec, max(y, 1e-9), r)
            try:
                step = np.linalg.solve(j, f)
            except np.linalg.LinAlgError:
                ok = False
                break
            limit = max(float(ys[1] - ys[0]), float(rs[1] - rs[0]))
            norm = float(np.max(np.abs(step)))
            if norm > 4 * limit:
                step *= 4 * limit / norm
            y, r = y - step[0], r - step[1]
        else:
            ok = False
        if not ok or not (y_range[0] - 1e-6 <= y <= y_range[1] + 1e-6):
            continue
        if any(abs(y - fy) < 1e-6 and abs(r - fr) < 1e-6 for fy, fr, _ in found):
            continue
        eigs = np.linalg.eigvals(fd_jacobian(spec, y, r))
        found.append((y, r, classify_by_eigenvalues(eigs)))
    found.sort()
    return found


def reduced_period_by_quadrature(spec: ModelSpec, y_range: tuple[float, float],
                                 r_range: tuple[float, float]) -> float:
    """Singular-limit period of a one-window relaxation cycle by adaptive
    quadrature of dt = Y'(R) dR / (alpha (I - S)) in the rate coordinate.

    The cycle climbs the lower stable arc from the down-jump landing to the
    lower knee and descends the upper arc from the up-jump landing to the
    upper knee; the landings come from dense scans at the fold incomes.
    """
    (y_up, r_up, _), (y_down, r_down, _) = sorted(
        fold_positions(spec, y_range), key=lambda f: f[2] != "lower-knee")
    k_y = spec.money.l_y - spec.money.m_y
    off = spec.params.maturity_premium - spec.params.expected_inflation

    def dt_dr(r: float) -> float:
        y = -excess_money(0.0, r, spec) / k_y
        return -rate_gap_slope(spec, r - off) / k_y / (spec.params.alpha
                                                      * excess_goods(y, r, spec))

    def leg(r_a: float, r_b: float) -> float:
        pts = _breakpoints(spec, r_a - off, r_b - off)
        val, err = quad(dt_dr, r_a, r_b, limit=800,
                        points=None if pts is None else [x + off for x in pts])
        assert err < 1e-10
        return abs(val)

    land_up = [r for r in dense_scan_roots(spec, y_up, r_range) if r > r_down][0]
    land_down = [r for r in dense_scan_roots(spec, y_down, r_range) if r < r_up][-1]
    return leg(land_down, r_up) + leg(land_up, r_down)
