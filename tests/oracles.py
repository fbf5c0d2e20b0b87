"""Independent oracles for the test suite.

Everything here recomputes expected values through routes the library does
not use: numerical quadrature of the slope functions instead of closed-form
integrals, brute-force dense scans instead of continuation, finite-difference
Jacobians and eigenvalue classification instead of the analytic trace and
determinant shortcut, and sign validation at every point of the full grid
instead of once along the axis each derivative varies on.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from islmsim.model import (FD_STEP_FRACTION, SIGN_DEGENERACY_TOL, WORST_TIE_TOL,
                           ConditionResult, ModelSpec, ValidationReport, _boundary_condition,
                           excess_goods, excess_money, short_rate)


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


def reduced_leg_time(spec: ModelSpec, r_a: float, r_b: float) -> float:
    """Slow time of a singular-limit leg from rate r_a to rate r_b on one
    stable branch: adaptive quadrature of dt = Y'(R) dR / (alpha (I - S)) in
    the rate coordinate, broken at the money block's piece boundaries.  The
    time is positive when the slow flow carries r_a towards r_b."""
    k_y = spec.money.l_y - spec.money.m_y
    off = spec.params.maturity_premium - spec.params.expected_inflation

    def dt_dr(r: float) -> float:
        y = -excess_money(0.0, r, spec) / k_y
        return -rate_gap_slope(spec, r - off) / k_y / (spec.params.alpha
                                                      * excess_goods(y, r, spec))

    pts = _breakpoints(spec, r_a - off, r_b - off)
    val, err = quad(dt_dr, r_a, r_b, limit=800, epsabs=1e-13, epsrel=1e-13,
                    points=None if pts is None else [x + off for x in pts])
    assert err < 1e-10
    return val


def reduced_period_by_quadrature(spec: ModelSpec, y_range: tuple[float, float],
                                 r_range: tuple[float, float]) -> float:
    """Singular-limit period of a one-window relaxation cycle: the slow time
    of its two legs by `reduced_leg_time`.

    The cycle climbs the lower stable arc from the down-jump landing to the
    lower knee and descends the upper arc from the up-jump landing to the
    upper knee; the landings come from dense scans at the fold incomes.
    """
    (y_up, r_up, _), (y_down, r_down, _) = sorted(
        fold_positions(spec, y_range), key=lambda f: f[2] != "lower-knee")
    land_up = [r for r in dense_scan_roots(spec, y_up, r_range) if r > r_down][0]
    land_down = [r for r in dense_scan_roots(spec, y_down, r_range) if r < r_up][-1]
    return reduced_leg_time(spec, land_down, r_up) + reduced_leg_time(spec, land_up, r_down)


# ---------------------------------------------------------------------------
# sign validation on the full grid

def _grid_signed_check(name: str, values: np.ndarray, want_positive: bool,
                       ys: np.ndarray, rs: np.ndarray, detail: str = "") -> ConditionResult:
    """Check the sign of sampled derivative values, skipping degenerate points."""
    signed = np.abs(values) > SIGN_DEGENERACY_TOL
    n_deg = int(values.size - signed.sum())
    vals = values if want_positive else -values
    ok = vals[signed] > 0.0
    passed = bool(ok.all()) if ok.size else True
    if vals.size:
        masked = np.where(signed, vals, np.inf).ravel()
        k = int(np.argmin(masked))
        worst_value = float(values.flat[k])
        # values within WORST_TIE_TOL of the worst tie up to rounding; the
        # lowest-income one is reported, so the point does not follow noise
        tied = np.flatnonzero(masked <= masked[k] + WORST_TIE_TOL)
        k = int(tied[np.argmin(ys.ravel()[tied])])
        worst_point = (float(ys.flat[k]), float(rs.flat[k]))
    else:
        worst_value, worst_point = math.nan, (math.nan, math.nan)
    return ConditionResult(name, passed, int(signed.sum()), n_deg, worst_value, worst_point, detail)


def grid_validation(spec: ModelSpec, y_range: tuple[float, float],
                    r_range: tuple[float, float], grid_n: int = 200) -> ValidationReport:
    """`validate_properties` by brute force: every central difference is
    taken at each of the grid_n x grid_n points, with no use of the model's
    separability, and each point is counted and tie-broken on its own.

    Trap-window interiors are held to the reversed rate-slope signs,
    exteriors to the standard ones; the boundary condition is the library's.
    """
    try:
        if grid_n < 100:
            raise ValueError("grid_n must be at least 100 per axis")
        ys = np.linspace(y_range[0], y_range[1], grid_n)
        rs = np.linspace(r_range[0], r_range[1], grid_n)
        yy, rr = np.meshgrid(ys, rs, indexing="ij")
        h_y = FD_STEP_FRACTION * max(1.0, abs(y_range[1] - y_range[0]))
        h_r = FD_STEP_FRACTION * max(1.0, abs(r_range[1] - r_range[0]))

        b = spec.is_block
        inv = lambda y, r: b.i0 + b.i_y * y - b.i_r * r
        sav = lambda y, r: b.s0 + b.s_y * y + b.s_r * r

        di_dy = (inv(yy + h_y, rr) - inv(yy - h_y, rr)) / (2 * h_y)
        di_dr = (inv(yy, rr + h_r) - inv(yy, rr - h_r)) / (2 * h_r)
        ds_dy = (sav(yy + h_y, rr) - sav(yy - h_y, rr)) / (2 * h_y)
        ds_dr = (sav(yy, rr + h_r) - sav(yy, rr - h_r)) / (2 * h_r)

        money = spec.money
        demand = lambda y, f_l: money.l0 + money.l_y * y + f_l
        supply = lambda y, f_m: money.m0 + money.m_y * y + f_m

        ii = short_rate(rr, spec.params)
        f_l, f_m = money.level_parts_many(ii)
        dl_dy = (demand(yy + h_y, f_l) - demand(yy - h_y, f_l)) / (2 * h_y)
        dm_dy = (supply(yy + h_y, f_m) - supply(yy - h_y, f_m)) / (2 * h_y)
        del f_l, f_m  # grid-sized; free each level pair once it is used
        up_l, up_m = money.level_parts_many(short_rate(rr + h_r, spec.params))
        dn_l, dn_m = money.level_parts_many(short_rate(rr - h_r, spec.params))
        dl_di = (demand(yy, up_l) - demand(yy, dn_l)) / (2 * h_r)
        dm_di = (supply(yy, up_m) - supply(yy, dn_m)) / (2 * h_r)
        del up_l, up_m, dn_l, dn_m

        inside = np.zeros_like(ii, dtype=bool)
        for p, q in money.window_spans():
            inside |= (ii > p) & (ii < q)
        outside = ~inside

        conds = [
            _grid_signed_check("dI_dY > 0", di_dy, True, yy, rr),
            _grid_signed_check("dI_dY < 1", 1.0 - di_dy, True, yy, rr),
            _grid_signed_check("dI_dR < 0", di_dr, False, yy, rr),
            _grid_signed_check("dS_dY > 0", ds_dy, True, yy, rr),
            _grid_signed_check("dS_dY < 1", 1.0 - ds_dy, True, yy, rr),
            _grid_signed_check("dS_dR > 0", ds_dr, True, yy, rr),
            _grid_signed_check("dI_dY < dS_dY (decreasing IS)", ds_dy - di_dy, True, yy, rr),
            _grid_signed_check("dL_dY > 0", dl_dy, True, yy, rr),
            _grid_signed_check("dM_dY > 0", dm_dy, True, yy, rr),
            _grid_signed_check("dM_dY < dL_dY", dl_dy - dm_dy, True, yy, rr),
        ]
        if outside.any():
            conds.append(_grid_signed_check(
                "dL_di_S < 0 outside trap windows", dl_di[outside], False,
                yy[outside], rr[outside]))
            conds.append(_grid_signed_check(
                "dM_di_S > 0 outside trap windows", dm_di[outside], True,
                yy[outside], rr[outside]))
        if inside.any():
            conds.append(_grid_signed_check(
                "dL_di_S > 0 inside trap windows (reversed)", dl_di[inside], True,
                yy[inside], rr[inside]))
            conds.append(_grid_signed_check(
                "dM_di_S < 0 inside trap windows (reversed)", dm_di[inside], False,
                yy[inside], rr[inside]))

        conds.append(_boundary_condition(spec, y_range, r_range))
        passed = all(c.passed for c in conds)
        return ValidationReport(passed, tuple(conds), tuple(y_range), tuple(r_range), grid_n)
    except Exception as exc:  # contract: report, never raise
        fail = ConditionResult("validation run", False, 0, 0, math.nan,
                               (math.nan, math.nan), detail=str(exc))
        return ValidationReport(False, (fail,), tuple(y_range), tuple(r_range), int(grid_n))
