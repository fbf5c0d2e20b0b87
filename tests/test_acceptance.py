"""Acceptance suite: one test per shipped criterion, each printing a summary
line with its measured runtime where the criterion carries a budget.

Expected values come from independent oracles (quadrature-based fold
positions, dense scans, brute-force grid equilibria, eigenvalue
classification), never from the code paths under test.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from islmsim.cli import run_command
from islmsim.config import parse_config_dict, serialize_config
from islmsim.dynamics import (
    attach_to_branch,
    cycle_points,
    detect_cycle,
    hausdorff_distance,
    integrate,
    reduced_simulate,
)
from islmsim.geometry import find_equilibria, lm_roots, shift_lm, trace_lm_isocline
from islmsim.model import ISBlock, ModelSpec, build_three_phase_money, validate_properties
from islmsim.policy import (
    FiscalDrive,
    Scenario,
    apply_scenario,
    negative_rate_probe,
    plan_stabilization,
    run_with_controller,
)
from islmsim.reference import census_runs, reference_spec, steep_is_spec

from oracles import (
    brute_force_equilibria,
    classify_by_eigenvalues,
    dense_scan_roots,
    fd_jacobian,
    fold_positions,
    rate_gap_by_quadrature,
)


def _report(n, name, elapsed=None, note=""):
    stamp = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    suffix = f" -- {note}" if note else ""
    print(f"ACCEPTANCE {n}: {name}: PASS{stamp}{suffix}")


# ---------------------------------------------------------------------------

def test_c01_property_validation(ref_spec, ref_domain):
    t0 = time.perf_counter()
    report = validate_properties(ref_spec, ref_domain["y_range"],
                                 ref_domain["r_range"], 200)
    elapsed = time.perf_counter() - t0
    assert report.passed
    names = {c.condition for c in report.conditions}
    assert {"dI_dY > 0", "dI_dY < 1", "dI_dR < 0", "dS_dY > 0", "dS_dY < 1",
            "dS_dR > 0", "dI_dY < dS_dY (decreasing IS)", "dL_dY > 0",
            "dM_dY > 0", "dM_dY < dL_dY",
            "dL_di_S < 0 outside trap windows",
            "dM_di_S > 0 outside trap windows",
            "dL_di_S > 0 inside trap windows (reversed)",
            "dM_di_S < 0 inside trap windows (reversed)"} <= names
    assert elapsed < 1.0

    # deliberately broken specs fail with the right diagnosis
    bad_is = ModelSpec(params=ref_spec.params,
                       is_block=ISBlock(2.0, 1.2, 10.0, 0.5, 0.5, 5.0),
                       money=ref_spec.money)
    rep = validate_properties(bad_is, ref_domain["y_range"], ref_domain["r_range"], 200)
    assert not rep.passed
    assert "dI_dY < 1" in {c.condition for c in rep.failures()}

    bad_money = ModelSpec(
        params=ref_spec.params, is_block=ref_spec.is_block,
        money=build_three_phase_money(0.1, 0.5, 20.0, 20.0, 2.2, 0.5,
                                      ref_spec.money.windows))
    rep = validate_properties(bad_money, ref_domain["y_range"],
                              ref_domain["r_range"], 200)
    assert not rep.passed
    assert "dM_dY < dL_dY" in {c.condition for c in rep.failures()}
    _report(1, "property validation", elapsed)


def test_c02_isocline_geometry(all_window_specs):
    t0 = time.perf_counter()
    expected = {0: (0, 1), 1: (2, 3), 2: (4, 5), 3: (6, 7)}
    for k, (spec, dom) in all_window_specs.items():
        iso = trace_lm_isocline(spec, dom["y_range"], dom["y_steps"],
                                dom["r_range"], dom["scan_n"])
        n_folds, max_branches = expected[k]
        assert len(iso.folds) == n_folds, f"k={k}"
        assert iso.max_branch_count() == max_branches, f"k={k}"
        ordered = sorted(iso.branches, key=lambda b: float(np.min(b.rs)))
        labels = [b.stability for b in ordered]
        assert labels[0] == "stable"
        assert all(a != b for a, b in zip(labels, labels[1:]))
        # fold locations against the first-principles oracle
        oracle = fold_positions(spec, dom["y_range"])
        got = sorted((f.y, f.r, f.kind) for f in iso.folds)
        for (gy, gr, gk), (oy, orr, ok) in zip(got, oracle):
            assert gy == pytest.approx(oy, abs=1e-8)
            assert gr == pytest.approx(orr, abs=1e-6)
            assert gk == ok
        # traced branch samples against an independent dense scan
        fold_ys = [f.y for f in iso.folds]
        for b in iso.branches:
            take = slice(None, None, max(1, len(b.ys) // 12))
            for y, r in zip(b.ys[take], b.rs[take]):
                if any(abs(y - fy) < 1e-9 for fy in fold_ys):
                    continue
                nearest = min(dense_scan_roots(spec, float(y), dom["r_range"],
                                               n=60_000),
                              key=lambda x: abs(x - r))
                assert r == pytest.approx(nearest, abs=1e-8)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, "isocline geometry for 0..3 trap windows", elapsed)


def test_c03_exact_lm_shift_law(ref_spec, ref_domain, ref_isocline):
    t0 = time.perf_counter()
    fold_ys = [f.y for f in ref_isocline.folds]
    ys = [y for y in np.linspace(0.05, 4.95, 120)
          if all(abs(y - fy) > 1e-4 for fy in fold_ys)]
    lo, hi = ref_domain["r_range"]
    worst = 0.0
    for delta in (0.01, -0.01, 0.05, -0.05):
        shifted = shift_lm(ref_spec, d_pi=delta)
        wide = (lo - 2 * abs(delta), hi + 2 * abs(delta))
        for y in ys:
            base = lm_roots(float(y), ref_spec, wide)
            moved = lm_roots(float(y), shifted, wide)
            assert len(base) == len(moved), (delta, y)
            for a, b in zip(base, moved):
                worst = max(worst, abs(b - a + delta))
    assert worst < 1e-9
    _report(3, "exact LM shift law", time.perf_counter() - t0,
            f"max deviation {worst:.2e}")


def _equilibrium_count(i0: float, y_range) -> int:
    return len([e for e in find_equilibria(steep_is_spec(i0), y_range)
                if not e.degenerate])


def _tangency_oracle(y_range) -> float:
    """Income-intercept at which the two interior crossings merge.

    Rebuilt from first principles: parameterize the middle arc by the short
    rate, express the crossing gap through the quadrature-based money levels,
    and find where its interior minimum touches zero.
    """
    from scipy.optimize import minimize_scalar

    spec0 = steep_is_spec(0.0)
    b = spec0.is_block
    p = spec0.params
    k_level = p.m_stock - (spec0.money.l0 - spec0.money.m0)
    w = spec0.money.windows[0]
    offset = p.maturity_premium - p.expected_inflation

    def gap(i_s: float, i0: float) -> float:
        g = rate_gap_by_quadrature(spec0, i_s)
        y = (k_level - g) / (spec0.money.l_y - spec0.money.m_y)
        r_is = ((i0 - b.s0) + (b.i_y - b.s_y) * y) / (b.i_r + b.s_r)
        return r_is - (i_s + offset)

    def gap_min(i0: float) -> float:
        grid = np.linspace(w.p + 1e-6, w.q - 1e-6, 121)
        vals = [gap(float(i), i0) for i in grid]
        k = int(np.argmin(vals))
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, len(grid) - 1)]
        res = minimize_scalar(lambda i: gap(float(i), i0), bounds=(lo, hi),
                              method="bounded",
                              options={"xatol": 1e-12})
        return float(res.fun)

    return brentq(gap_min, 1.30, 1.48, xtol=1e-9)


def test_c04_equilibrium_progression(ref_domain):
    t0 = time.perf_counter()
    y_range = ref_domain["y_range"]

    # three equilibria in the middle of the band, middle one a saddle
    eqs = find_equilibria(steep_is_spec(1.30), y_range)
    assert len(eqs) == 3
    assert eqs[1].classification == "saddle"
    assert eqs[0].classification.startswith("stable")
    assert eqs[2].classification.startswith("stable")
    oracle = brute_force_equilibria(steep_is_spec(1.30), y_range,
                                    ref_domain["r_range"])
    assert [cls for _, _, cls in oracle] == [e.classification for e in eqs]
    for e in eqs:
        eigs = np.linalg.eigvals(fd_jacobian(steep_is_spec(1.30), e.y, e.r))
        assert classify_by_eigenvalues(eigs) == e.classification

    # single equilibrium on both flanks of the band
    assert _equilibrium_count(1.15, y_range) == 1
    assert _equilibrium_count(1.48, y_range) == 1

    # locate the tangency by bisection on the non-degenerate count
    lo, hi = 1.30, 1.48
    assert _equilibrium_count(lo, y_range) == 3
    for _ in range(60):
        if hi - lo < 1e-8:
            break
        mid = 0.5 * (lo + hi)
        if _equilibrium_count(mid, y_range) >= 3:
            lo = mid
        else:
            hi = mid
    i0_tangent = _tangency_oracle(y_range)
    assert 0.5 * (lo + hi) == pytest.approx(i0_tangent, abs=1e-6)

    # exactly at the tangency: two equilibria, the merged one degenerate
    eqs_t = find_equilibria(steep_is_spec(i0_tangent), y_range)
    assert len(eqs_t) == 2
    degenerate = [e for e in eqs_t if e.degenerate]
    assert len(degenerate) == 1
    assert degenerate[0].classification == "center-degenerate"
    _report(4, "equilibrium multiplicity progression 3 -> tangency(2) -> 1",
            time.perf_counter() - t0)


def test_c05_relaxation_oscillation(ref_spec, ref_isocline):
    t0 = time.perf_counter()
    # the IS curve crosses only the unstable arc
    eqs = find_equilibria(ref_spec, ref_isocline.y_range, ref_isocline)
    assert len(eqs) == 1
    assert ref_isocline.branches[eqs[0].branch_index].stability == "unstable"

    branch, _ = attach_to_branch(ref_spec, ref_isocline, 1.5, 0.01)
    reduced = reduced_simulate(ref_spec, 1.5, branch, 40.0, ref_isocline)
    red_cycle = detect_cycle(reduced, ref_spec)
    assert red_cycle is not None
    assert red_cycle.orientation == "counterclockwise"
    assert len(red_cycle.jumps) == 2

    spec_eps = reference_spec(epsilon=1e-3)
    full = integrate(spec_eps, 1.5, 0.01, 16000.0, stride=1.0)
    full_cycle = detect_cycle(full, spec_eps)
    assert full_cycle is not None
    assert full_cycle.orientation == "counterclockwise"
    assert len(full_cycle.jumps) == 2

    fold_ys = sorted(f.y for f in ref_isocline.folds)
    for cycle in (red_cycle, full_cycle):
        ups = [j for j in cycle.jumps if j.direction == "up"]
        downs = [j for j in cycle.jumps if j.direction == "down"]
        assert len(ups) == 1 and len(downs) == 1
        assert ups[0].y_at_jump == pytest.approx(max(fold_ys), rel=0.02)
        assert downs[0].y_at_jump == pytest.approx(min(fold_ys), rel=0.02)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(5, "counterclockwise relaxation oscillation, 2 jumps per period",
            elapsed)


def test_c06_singular_limit_convergence(ref_reduced_cycle, eps_ladder):
    t0 = time.perf_counter()
    reduced_traj, reduced_cycle = ref_reduced_cycle
    reduced_pts = cycle_points(reduced_traj, reduced_cycle)
    distances = {}
    for eps, (spec, traj, cycle) in eps_ladder.items():
        distances[eps] = hausdorff_distance(cycle_points(traj, cycle), reduced_pts)
    assert distances[1e-2] >= distances[1e-3] >= distances[1e-4]
    _report(6, "Hausdorff distance to the singular limit is non-increasing",
            time.perf_counter() - t0,
            " >= ".join(f"{distances[e]:.4f}" for e in (1e-2, 1e-3, 1e-4)))


def _census_for(n_windows: int, spec, dom):
    iso = trace_lm_isocline(spec, dom["y_range"], dom["y_steps"],
                            dom["r_range"], dom["scan_n"])
    oracle_folds = fold_positions(spec, dom["y_range"])
    seen = []
    for run in census_runs(n_windows):
        ramp = FiscalDrive(0.0, 4.0, y_to=run["y_to"])
        result = apply_scenario(spec, Scenario((ramp,), 4.0), run["y0"],
                                run["r0_hint"], "singular-limit",
                                y_range=dom["y_range"], r_range=dom["r_range"],
                                y_steps=dom["y_steps"], scan_n=dom["scan_n"])
        assert len(result.jumps) == 1, run["label"]
        j = result.jumps[0]
        assert j.direction == run["direction"], run["label"]
        # the jump sits at an oracle fold and lands on the first attracting
        # branch in its direction, scanned independently
        y_f, r_f, _ = min(oracle_folds, key=lambda f: abs(f[0] - j.y_at_jump))
        assert j.y_at_jump == pytest.approx(y_f, abs=1e-6), run["label"]
        assert j.r_from == pytest.approx(r_f, abs=1e-6), run["label"]
        roots = dense_scan_roots(spec, j.y_at_jump, dom["r_range"], n=60_000)
        if j.direction == "up":
            beyond = [r for r in roots if r > j.r_from + 1e-4]
            assert beyond and j.r_to == pytest.approx(beyond[0], abs=1e-6), run["label"]
        else:
            beyond = [rize for rize in roots if rize < j.r_from - 1e-4]
            assert beyond and j.r_to == pytest.approx(beyond[-1], abs=1e-6), run["label"]
        seen.append((round(j.y_at_jump, 6), j.direction))
    assert len(set(seen)) == len(seen), "jump segments must be distinct"
    return seen


def test_c07_multibend_jump_census(all_window_specs):
    t0 = time.perf_counter()
    spec2, dom2 = all_window_specs[2]
    spec3, dom3 = all_window_specs[3]
    four = _census_for(2, spec2, dom2)
    assert len(four) == 4
    six = _census_for(3, spec3, dom3)
    assert len(six) == 6
    _report(7, "four and six distinct jump segments on the multi-bend curves",
            time.perf_counter() - t0)


def test_c08_stabilization_controller(ref_spec, ref_isocline, ref_domain):
    t0 = time.perf_counter()
    fold = next(f for f in ref_isocline.folds if f.kind == "lower-knee")
    kw = dict(y_range=ref_domain["y_range"], r_range=ref_domain["r_range"])
    ramp = FiscalDrive(0.0, 3.5, y_to=3.5)

    plan_pi = plan_stabilization(ref_spec, fold, "inflation", ref_isocline)
    assert plan_pi.matched and plan_pi.residual < 1e-8
    rep = run_with_controller(ref_spec, ramp, plan_pi, 2.8, 0.02,
                              mode="singular-limit", margin_frac=0.05, **kw)
    assert rep.jumps_uncontrolled == 1
    assert rep.jumps_controlled == 0
    assert not rep.controller_late
    jump_height = abs(plan_pi.r_target - fold.r)
    assert rep.r_band_controlled <= jump_height

    plan_ms = plan_stabilization(ref_spec, fold, "money-stock", ref_isocline,
                                 protect_to_y=3.6)
    rep_ms = run_with_controller(ref_spec, ramp, plan_ms, 2.8, 0.02,
                                 mode="singular-limit", margin_frac=0.05, **kw)
    assert rep_ms.jumps_uncontrolled == 1
    assert rep_ms.jumps_controlled == 0
    assert not rep_ms.controller_late
    assert rep_ms.r_band_controlled <= jump_height
    _report(8, "stabilization controller: 1 jump uncontrolled, 0 controlled",
            time.perf_counter() - t0,
            f"money instrument via {plan_ms.mode}")


@pytest.mark.xfail(
    strict=True,
    reason="structurally unattainable: the post-jump branch's rate floor is "
           "the upper window endpoint, which always sits above the fold rate, "
           "so no money-stock change can route that branch through the "
           "pre-jump point; the plan reports no-solution and stabilizes by "
           "relocating the fold instead")
def test_c08_money_stock_exact_branch_match(ref_spec, ref_isocline):
    fold = next(f for f in ref_isocline.folds if f.kind == "lower-knee")
    plan = plan_stabilization(ref_spec, fold, "money-stock", ref_isocline)
    assert plan.matched
    assert plan.residual < 1e-8


def test_c09_negative_rate_crossing(ref_spec, ref_domain, ref_isocline):
    t0 = time.perf_counter()
    kw = dict(y_range=ref_domain["y_range"], r_range=ref_domain["r_range"])

    base = negative_rate_probe(ref_spec, None, 1.5, 0.01, horizon=40.0, **kw)
    assert base["status"] == "above-zero" and not base["crossings"]

    crossing = negative_rate_probe(shift_lm(ref_spec, d_pi=0.008), None,
                                   1.5, 0.01, horizon=40.0, **kw)
    assert crossing["min_rate"] < 0.0
    assert any(c["kind"] == "jump-crossing" for c in crossing["crossings"])

    # bisect the inflation shift until the cycle minimum touches zero
    def cycle_min(d):
        rep = negative_rate_probe(shift_lm(ref_spec, d_pi=d), None, 1.5, 0.01,
                                  horizon=40.0, **kw)
        return rep["min_rate"]

    lo, hi = 0.0, 0.008
    assert cycle_min(lo) > 0.0 > cycle_min(hi)
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if cycle_min(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    d_touch = 0.5 * (lo + hi)

    # oracle: the cycle bottom is the lowest branch's value at the upper fold
    upper = min(fold_positions(ref_spec, ref_domain["y_range"]))
    r_bot = dense_scan_roots(ref_spec, upper[0] - 1e-9, ref_domain["r_range"],
                             n=60_000)[0]
    assert d_touch == pytest.approx(r_bot, abs=1e-6)

    touched = negative_rate_probe(shift_lm(ref_spec, d_pi=d_touch), None,
                                  1.5, 0.01, horizon=40.0, touch_tol=1e-5, **kw)
    assert touched["touching"]
    _report(9, "negative-rate crossing and touching shift located",
            time.perf_counter() - t0, f"touching shift {d_touch:.7f}")


def test_c10_determinism_and_round_trip(tmp_path):
    t0 = time.perf_counter()
    from importlib import resources
    raw = json.loads(resources.files("islmsim")
                     .joinpath("configs/fiscal_ramp.json").read_text())
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")

    def data_files(d: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())
                if p.name != "provenance.json"}

    for cmd in ("isocline", "scenario"):
        out_a, out_b = tmp_path / f"{cmd}-a", tmp_path / f"{cmd}-b"
        assert run_command([cmd, "--config", str(cfg), "--out", str(out_a),
                            "--quiet"]) == 0
        assert run_command([cmd, "--config", str(cfg), "--out", str(out_b),
                            "--quiet"]) == 0
        a, b = data_files(out_a), data_files(out_b)
        assert a and a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], f"{cmd}/{name} not byte-identical"

    # structured outputs round-trip through their parsers
    config = parse_config_dict(raw)
    assert parse_config_dict(json.loads(serialize_config(config))) == config
    from islmsim.output import isocline_from_document
    doc = json.loads((tmp_path / "isocline-a" / "isocline.json").read_text())
    iso = isocline_from_document(doc)
    assert len(iso.branches) == len(doc["branches"])
    assert len(iso.folds) == len(doc["folds"])
    _report(10, "byte-identical reruns and document round-trips",
            time.perf_counter() - t0)
