import numpy as np
import pytest

from islmsim import geometry
from islmsim.geometry import (
    classify_jacobian,
    find_equilibria,
    is_curve,
    lm_roots,
    shift_lm,
    trace_lm_isocline,
)
from islmsim.model import ModelDomainError, excess_money, excess_money_slope
from islmsim.reference import reference_spec

from oracles import (
    brute_force_equilibria,
    classify_by_eigenvalues,
    dense_scan_roots,
    fd_jacobian,
    fold_positions,
)


# ---------------------------------------------------------------------------
# IS curve

def test_is_curve_closed_form(ref_spec):
    curve = is_curve(ref_spec)
    assert curve.r_at(0.0) == pytest.approx(0.1)
    assert curve.r_at(7.5) == pytest.approx(0.0, abs=1e-15)
    assert curve.r_at(5.0) > curve.r_at(6.0)


def test_is_curve_strictly_decreasing(ref_spec):
    curve = is_curve(ref_spec)
    ys = np.linspace(0.0, 10.0, 57)
    vals = curve.r_at(ys)
    assert np.all(np.diff(vals) < 0.0)


# ---------------------------------------------------------------------------
# root finding

def test_lm_roots_counts_by_region(ref_spec, ref_domain, ref_isocline):
    folds = sorted(f.y for f in ref_isocline.folds)
    y_mid = 0.5 * (folds[0] + folds[1])
    assert len(lm_roots(y_mid, ref_spec, ref_domain["r_range"])) == 3
    assert len(lm_roots(0.3, ref_spec, ref_domain["r_range"])) == 1
    assert len(lm_roots(4.8, ref_spec, ref_domain["r_range"])) == 1


def test_lm_roots_match_dense_scan_oracle(ref_spec, ref_domain):
    for y in (0.4, 1.4, 2.25, 3.1, 4.5):
        fast = lm_roots(y, ref_spec, ref_domain["r_range"], scan_n=500)
        slow = dense_scan_roots(ref_spec, y, ref_domain["r_range"], n=100_000)
        assert len(fast) == len(slow)
        for a, b in zip(fast, slow):
            assert a == pytest.approx(b, abs=1e-10)


def test_lm_roots_unique_without_trap(all_window_specs):
    spec, dom = all_window_specs[0]
    for y in np.linspace(0.0, 5.0, 23):
        assert len(lm_roots(float(y), spec, dom["r_range"])) == 1


def test_lm_roots_rejects_coarse_scan(ref_spec, ref_domain):
    with pytest.raises(ValueError):
        lm_roots(1.0, ref_spec, ref_domain["r_range"], scan_n=100)


def test_negative_income_is_outside_the_model_domain(ref_spec, ref_domain):
    with pytest.raises(ModelDomainError):
        lm_roots(-1e-3, ref_spec, ref_domain["r_range"])
    # also where the rate range holds no root, so no bisection runs
    with pytest.raises(ModelDomainError):
        lm_roots(-1e-3, ref_spec, (0.5, 0.6))
    with pytest.raises(ModelDomainError):
        trace_lm_isocline(ref_spec, (-0.5, ref_domain["y_range"][1]),
                          ref_domain["y_steps"], ref_domain["r_range"],
                          ref_domain["scan_n"])


def test_isocline_needs_an_income_dependent_money_excess(ref_spec, ref_domain):
    from dataclasses import replace
    flat = replace(ref_spec, money=replace(ref_spec.money, m_y=ref_spec.money.l_y))
    with pytest.raises(ModelDomainError, match="l_y equals m_y"):
        trace_lm_isocline(flat, ref_domain["y_range"], ref_domain["y_steps"],
                          ref_domain["r_range"], ref_domain["scan_n"])


def test_lm_roots_counts_roots_right_up_to_the_fold(ref_spec, ref_domain):
    # approaching the lower-knee fold, the merging pair closes onto the
    # window-endpoint rate, inside one cell of the 500-point rate grid
    for off in np.geomspace(1e-9, 1e-6, 40):
        y = 3.25 - float(off)
        want = dense_scan_roots(ref_spec, y, ref_domain["r_range"])
        assert len(lm_roots(y, ref_spec, ref_domain["r_range"])) == len(want), off


def test_lm_roots_residuals(ref_spec, ref_domain):
    for y in (1.7, 2.6, 3.0):
        for r in lm_roots(y, ref_spec, ref_domain["r_range"]):
            assert abs(excess_money(y, r, ref_spec)) < 1e-10


# ---------------------------------------------------------------------------
# isocline tracing

def test_fold_and_branch_counts(all_window_specs):
    expected = {0: (0, 1), 1: (2, 3), 2: (4, 5), 3: (6, 7)}
    for k, (spec, dom) in all_window_specs.items():
        iso = trace_lm_isocline(spec, dom["y_range"], dom["y_steps"],
                                dom["r_range"], dom["scan_n"])
        n_folds, max_branches = expected[k]
        assert len(iso.folds) == n_folds, f"k={k}"
        assert iso.max_branch_count() == max_branches, f"k={k}"


def test_stability_alternates_with_rate(all_window_specs):
    for k, (spec, dom) in all_window_specs.items():
        iso = trace_lm_isocline(spec, dom["y_range"], dom["y_steps"],
                                dom["r_range"], dom["scan_n"])
        ordered = sorted(iso.branches, key=lambda b: float(np.min(b.rs)))
        labels = [b.stability for b in ordered]
        assert labels[0] == "stable"
        assert all(a != b for a, b in zip(labels, labels[1:])), f"k={k}: {labels}"


def test_folds_match_first_principles_oracle(all_window_specs):
    for k, (spec, dom) in all_window_specs.items():
        if k == 0:
            continue
        iso = trace_lm_isocline(spec, dom["y_range"], dom["y_steps"],
                                dom["r_range"], dom["scan_n"])
        oracle = fold_positions(spec, dom["y_range"])
        assert len(iso.folds) == len(oracle)
        got = sorted((f.y, f.r, f.kind) for f in iso.folds)
        for (gy, gr, gk), (oy, orr, ok) in zip(got, oracle):
            assert gy == pytest.approx(oy, abs=1e-8)
            # the rate is pinned by the slope zero; the slope meets zero with
            # cubic contact, so double precision resolves it to ~1e-7
            assert gr == pytest.approx(orr, abs=1e-6)
            assert gk == ok


def test_traced_folds_sit_exactly_at_window_endpoint_rates(all_window_specs):
    for k in (1, 2, 3):
        spec, dom = all_window_specs[k]
        iso = trace_lm_isocline(spec, dom["y_range"], dom["y_steps"],
                                dom["r_range"], dom["scan_n"])
        off = spec.params.maturity_premium - spec.params.expected_inflation
        endpoints = sorted([(w.p + off, "lower-knee") for w in spec.money.windows]
                           + [(w.q + off, "upper-knee") for w in spec.money.windows])
        assert sorted((f.r, f.kind) for f in iso.folds) == endpoints, f"k={k}"
        for f in iso.folds:
            assert abs(excess_money(f.y, f.r, spec)) <= 1e-12, f"k={k}: {f}"


def test_branch_samples_agree_with_independent_rescan(ref_spec, ref_domain, ref_isocline):
    fold_ys = [f.y for f in ref_isocline.folds]
    for b in ref_isocline.branches:
        take = slice(None, None, max(1, len(b.ys) // 25))
        for y, r in zip(b.ys[take], b.rs[take]):
            if any(abs(y - fy) < 1e-9 for fy in fold_ys):
                continue  # at a fold ordinate the root pair is degenerate
            expected = dense_scan_roots(ref_spec, float(y), ref_domain["r_range"],
                                        n=50_000)
            nearest = min(expected, key=lambda x: abs(x - r))
            assert r == pytest.approx(nearest, abs=1e-8)


def test_root_multiplicity_matches_rescan_on_generic_grid(ref_spec, ref_domain, ref_isocline):
    fold_ys = [f.y for f in ref_isocline.folds]
    for y in np.linspace(0.07, 4.93, 24):
        if any(abs(y - fy) < 1e-6 for fy in fold_ys):
            continue
        expected = dense_scan_roots(ref_spec, float(y), ref_domain["r_range"], n=50_000)
        got = sorted(float(np.interp(y, b.ys, b.rs))
                     for b in ref_isocline.branches_at(float(y)))
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            # interpolated between samples; the fold-adjacent zones bend hard
            assert a == pytest.approx(b, abs=1e-4)


def test_branch_ends_reference_their_folds(ref_isocline):
    fold_refs = [end for b in ref_isocline.branches for end in (b.lo_end, b.hi_end)
                 if end[0] == "fold"]
    # one knee joins two branch ends
    assert len(fold_refs) == 2 * len(ref_isocline.folds)
    for _, fi in fold_refs:
        assert 0 <= fi < len(ref_isocline.folds)


def test_branch_stability_criterion_is_fast_subsystem_sign(ref_spec, ref_isocline):
    for b in ref_isocline.branches:
        mid = len(b.ys) // 2
        slope = excess_money_slope(float(b.rs[mid]), ref_spec)
        assert (slope < 0.0) == (b.stability == "stable")


def test_tracer_ends_a_clipped_branch_on_the_rate_edge(ref_spec, ref_domain):
    # the scan ceiling sits just above the upper knee, so the upper stable
    # branch leaves the rate range before the income grid ends
    iso = trace_lm_isocline(ref_spec, ref_domain["y_range"], 700, (-0.06, 0.1025), 500)
    assert sorted(f.r for f in iso.folds) == [0.04, 0.10]
    knee = next(i for i, f in enumerate(iso.folds) if f.kind == "upper-knee")
    upper = max(iso.branches, key=lambda b: b.rs[-1])
    assert upper.stability == "stable"
    assert upper.lo_end == ("fold", knee)
    assert upper.hi_end == ("boundary", "r_hi")
    assert upper.rs[-1] == 0.1025
    assert abs(excess_money(float(upper.ys[-1]), 0.1025, ref_spec)) <= 1e-12


def test_tracer_ends_a_branch_on_the_income_edge_by_the_graph_inverse(all_window_specs):
    # the end point is the LM graph inverted at the edge income to a few
    # ulps, the same at any scan density
    ends = 0
    for spec, dom in all_window_specs.values():
        lm = spec._lm_graph
        traces = [trace_lm_isocline(spec, dom["y_range"], 700, dom["r_range"], scan_n)
                  for scan_n in (500, 2000)]
        for b, dense in zip(*(iso.branches for iso in traces)):
            for end, i in ((b.lo_end, 0), (b.hi_end, -1)):
                if end[1] not in ("y_lo", "y_hi"):
                    continue
                ends += 1
                y, r = float(b.ys[i]), float(b.rs[i])
                assert y == dom["y_range"][end[1] == "y_hi"]
                near = lm.income(r + np.arange(-4, 5) * np.spacing(r))
                assert near.min() <= y <= near.max()
                assert (dense.ys[i], dense.rs[i]) == (b.ys[i], b.rs[i])
    assert ends >= 4


def test_tracer_requires_minimum_resolution(ref_spec, ref_domain):
    with pytest.raises(ValueError):
        trace_lm_isocline(ref_spec, ref_domain["y_range"], 100,
                          ref_domain["r_range"], 500)


# ---------------------------------------------------------------------------
# the memo of the last trace

def _ref_trace_args(ref_domain):
    return (ref_domain["y_range"], ref_domain["y_steps"], ref_domain["r_range"],
            ref_domain["scan_n"])


def test_a_repeated_trace_returns_the_remembered_isocline(ref_domain):
    y_range, y_steps, r_range, scan_n = _ref_trace_args(ref_domain)
    assert y_range == (0.0, 5.0)
    first = trace_lm_isocline(reference_spec(), y_range, y_steps, r_range, scan_n)
    # an equal model in a new object, and the income range given as ints
    again = trace_lm_isocline(reference_spec(), (0, 5), y_steps, list(r_range), scan_n)
    assert again is first
    assert all(type(v) is float for v in (*again.y_range, *again.r_range))

    geometry._trace_lm_isocline.cache_clear()
    fresh = trace_lm_isocline(reference_spec(), y_range, y_steps, r_range, scan_n)
    assert fresh is not first
    assert (fresh.folds, fresh.y_range, fresh.r_range) == (first.folds, first.y_range,
                                                           first.r_range)
    assert len(fresh.branches) == len(first.branches)
    for a, b in zip(fresh.branches, first.branches):
        assert (a.stability, a.lo_end, a.hi_end, a.index) == (b.stability, b.lo_end,
                                                              b.hi_end, b.index)
        assert np.array_equal(a.ys, b.ys) and np.array_equal(a.rs, b.rs)


def test_a_changed_model_or_domain_traces_afresh(ref_spec, ref_domain):
    y_range, y_steps, r_range, scan_n = _ref_trace_args(ref_domain)
    base = (ref_spec, y_range, y_steps, r_range, scan_n)
    changed = [
        (shift_lm(ref_spec, d_pi=0.001), y_range, y_steps, r_range, scan_n),
        (ref_spec, (y_range[0], y_range[1] + 0.5), y_steps, r_range, scan_n),
        (ref_spec, y_range, y_steps, (r_range[0], r_range[1] + 0.01), scan_n),
        (ref_spec, y_range, y_steps + 1, r_range, scan_n),
        (ref_spec, y_range, y_steps, r_range, scan_n + 1),
    ]
    for args in changed:
        first = trace_lm_isocline(*base)
        misses = geometry._trace_lm_isocline.cache_info().misses
        other = trace_lm_isocline(*args)
        assert other is not first
        assert geometry._trace_lm_isocline.cache_info().misses == misses + 1


def test_bad_trace_arguments_raise_on_every_call(ref_spec, ref_domain):
    y_range, y_steps, r_range, scan_n = _ref_trace_args(ref_domain)
    for _ in range(2):
        trace_lm_isocline(ref_spec, y_range, y_steps, r_range, scan_n)
        with pytest.raises(ValueError, match="y_steps"):
            trace_lm_isocline(ref_spec, y_range, 100, r_range, scan_n)
        with pytest.raises(ValueError, match="r_range"):
            trace_lm_isocline(ref_spec, y_range, y_steps, None, scan_n)


def test_traced_branch_samples_are_read_only(ref_isocline):
    branch = ref_isocline.branches[0]
    with pytest.raises(ValueError):
        branch.ys[0] = 1.0
    with pytest.raises(ValueError):
        branch.rs[:] = 0.0


def test_fold_ladders_reach_both_folds_of_a_branch():
    from pathlib import Path

    from islmsim.config import parse_config

    cfg = parse_config(Path(__file__).parents[1] / "src/islmsim/configs/reference.json")
    dom = cfg.domain
    iso = trace_lm_isocline(cfg.model, dom.y_range, dom.y_steps, dom.r_range, dom.scan_n)
    step = (dom.y_range[1] - dom.y_range[0]) / (dom.y_steps - 1)
    (branch,) = [b for b in iso.branches if b.stability == "unstable"]
    for end in (branch.lo_end, branch.hi_end):
        fold = iso.folds[end[1]]
        gaps = np.abs(branch.ys - fold.y)
        assert gaps.min() == 0.0  # the fold itself
        assert np.sort(gaps)[1] <= step / 1024, fold


# ---------------------------------------------------------------------------
# equilibria

def test_reference_equilibrium_unique_and_unstable(ref_spec, ref_domain, ref_isocline):
    eqs = find_equilibria(ref_spec, ref_domain["y_range"], ref_isocline)
    assert len(eqs) == 1
    e = eqs[0]
    assert e.classification.startswith("unstable")
    branch = ref_isocline.branches[e.branch_index]
    assert branch.stability == "unstable"
    assert abs(excess_money(e.y, e.r, ref_spec)) < 1e-10


def test_no_trap_equilibrium_unique_and_stable(all_window_specs):
    spec, dom = all_window_specs[0]
    iso = trace_lm_isocline(spec, dom["y_range"], dom["y_steps"],
                            dom["r_range"], dom["scan_n"])
    eqs = find_equilibria(spec, dom["y_range"], iso)
    assert len(eqs) == 1
    assert eqs[0].classification.startswith("stable")


def test_steep_spec_three_equilibria_with_saddle_middle(steep_spec, ref_domain):
    iso = trace_lm_isocline(steep_spec, ref_domain["y_range"], 700,
                            ref_domain["r_range"], 500)
    eqs = find_equilibria(steep_spec, ref_domain["y_range"], iso)
    assert len(eqs) == 3
    assert eqs[1].classification == "saddle"
    assert eqs[0].classification.startswith("stable")
    assert eqs[2].classification.startswith("stable")


def test_equilibria_match_brute_force_oracle(steep_spec, ref_domain):
    eqs = find_equilibria(steep_spec, ref_domain["y_range"])
    oracle = brute_force_equilibria(steep_spec, ref_domain["y_range"],
                                    ref_domain["r_range"])
    assert len(eqs) == len(oracle)
    for e, (oy, orr, ocls) in zip(eqs, oracle):
        assert e.y == pytest.approx(oy, abs=1e-7)
        assert e.r == pytest.approx(orr, abs=1e-8)
        assert e.classification == ocls


def test_classification_against_eigenvalue_oracle(ref_spec, steep_spec, ref_domain):
    for spec in (ref_spec, steep_spec):
        for e in find_equilibria(spec, ref_domain["y_range"]):
            eigs = np.linalg.eigvals(fd_jacobian(spec, e.y, e.r))
            assert classify_by_eigenvalues(eigs) == e.classification
            got = sorted([ev.real for ev in e.eigenvalues])
            want = sorted(np.real(eigs))
            assert got == pytest.approx(want, abs=1e-4)


def test_classify_jacobian_quadrants():
    cls, *_ = classify_jacobian(1.0, 0.0, 0.0, -2.0)
    assert cls == "saddle"
    cls, *_ = classify_jacobian(-1.0, 0.0, 0.0, -2.0)
    assert cls == "stable-node"
    cls, *_ = classify_jacobian(-0.5, -2.0, 2.0, -0.5)
    assert cls == "stable-focus"
    cls, *_ = classify_jacobian(0.5, -2.0, 2.0, 0.5)
    assert cls == "unstable-focus"
    cls, eig, tr, det, disc, degen = classify_jacobian(0.0, -1.0, 1.0, 0.0)
    assert cls == "center-degenerate" and degen
    cls, *_, degen = classify_jacobian(1e-13, 1.0, -1e-14, 1e-13)
    assert degen


# ---------------------------------------------------------------------------
# LM shifts

def test_shift_identity(ref_spec, ref_domain):
    same = shift_lm(ref_spec, 0.0, 0.0)
    for y in (0.5, 2.0, 3.5):
        assert lm_roots(y, same, ref_domain["r_range"]) == \
            lm_roots(y, ref_spec, ref_domain["r_range"])


def test_inflation_shift_law_pointwise(ref_spec, ref_domain):
    delta = 0.02
    shifted = shift_lm(ref_spec, d_pi=delta)
    lo, hi = ref_domain["r_range"]
    wide = (lo - 2 * abs(delta), hi + 2 * abs(delta))
    for y in np.linspace(0.1, 4.9, 25):
        base = lm_roots(float(y), ref_spec, wide)
        moved = lm_roots(float(y), shifted, wide)
        assert len(base) == len(moved)
        for a, b in zip(base, moved):
            assert b - a == pytest.approx(-delta, abs=1e-9)


def test_money_stock_shift_moves_branches_weakly_down(ref_spec, ref_domain):
    shifted = shift_lm(ref_spec, d_ms=0.5)
    for y in np.linspace(0.1, 4.9, 25):
        base = lm_roots(float(y), ref_spec, ref_domain["r_range"])
        moved = lm_roots(float(y), shifted, ref_domain["r_range"])
        paired = min(len(base), len(moved))
        # compare the extremal stable roots, which persist under the shift
        if base and moved:
            assert moved[0] <= base[0] + 1e-12
            assert moved[-1] <= base[-1] + 1e-12
        assert paired >= 1


def test_shift_rejects_nonpositive_stock(ref_spec):
    with pytest.raises(ValueError):
        shift_lm(ref_spec, d_ms=-ref_spec.params.m_stock)
