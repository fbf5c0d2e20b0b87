import ast
import copy
import dataclasses
import math
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import islmsim.model
from islmsim.config import parse_config
from islmsim.geometry import shift_lm, trace_lm_isocline
from islmsim.model import (
    NEWTON_MAX_ITER,
    ConstructionError,
    ISBlock,
    ModelDomainError,
    ModelParams,
    ModelSpec,
    MoneyBlock,
    TrapWindow,
    build_three_phase_money,
    _invert,
    excess_goods,
    excess_money,
    excess_money_many,
    excess_money_slope,
    short_rate,
    validate_properties,
)
from islmsim.reference import reference_spec, three_window_spec, two_window_spec

from oracles import dense_scan_roots


def make_params(**over):
    base = dict(alpha=1.0, beta=0.25, epsilon=1e-3, m_stock=2.0,
                maturity_premium=0.02, expected_inflation=0.02)
    base.update(over)
    return ModelParams(**base)


# ---------------------------------------------------------------------------
# short rate and goods market

def test_short_rate_values():
    assert short_rate(0.05, make_params(maturity_premium=0.02, expected_inflation=0.02)) == 0.05
    assert short_rate(0.0, make_params(maturity_premium=0.0, expected_inflation=0.0)) == 0.0
    # negative long rate still yields a positive short rate
    assert short_rate(-0.01, make_params(maturity_premium=0.01, expected_inflation=0.04)) == pytest.approx(0.02)


@pytest.fixture
def example_is_spec():
    block = ISBlock(i0=2.0, i_y=0.3, i_r=10.0, s0=0.5, s_y=0.5, s_r=5.0)
    money = build_three_phase_money(0.5, 0.1, 20.0, 20.0, 2.2, 0.5, [])
    return ModelSpec(params=make_params(), is_block=block, money=money)


def test_excess_goods_direct_evaluation(example_is_spec):
    assert excess_goods(0.0, 0.0, example_is_spec) == pytest.approx(1.5)
    assert excess_goods(10.0, 0.0, example_is_spec) == pytest.approx(-0.5)


def test_excess_goods_vanishes_on_is_curve(example_is_spec):
    for y in (0.0, 1.0, 3.7, 7.5, 12.0):
        r = (1.5 - 0.2 * y) / 15.0
        assert excess_goods(y, r, example_is_spec) == pytest.approx(0.0, abs=1e-14)


def test_excess_functions_reject_negative_income(example_is_spec):
    with pytest.raises(ModelDomainError):
        excess_goods(-0.5, 0.0, example_is_spec)
    with pytest.raises(ModelDomainError):
        excess_money(-0.5, 0.0, example_is_spec)


# ---------------------------------------------------------------------------
# three-phase money construction

def test_no_window_slope_is_constant():
    money = build_three_phase_money(0.5, 0.1, 20.0, 20.0, 2.2, 0.5, [])
    for i in np.linspace(-0.05, 0.3, 997):
        d_l, d_m = money.slope_parts(float(i))
        assert d_l == -20.0
        assert d_m == 20.0


def test_one_window_sign_pattern():
    money = build_three_phase_money(
        0.5, 0.1, 20.0, 20.0, 2.2, 0.5,
        [TrapWindow(p=0.04, q=0.08, amp_l=15.0, amp_m=15.0)])
    d_p = money.slope_parts(0.04)
    d_q = money.slope_parts(0.08)
    assert d_p == (0.0, 0.0)
    assert d_q == (0.0, 0.0)
    inside = np.linspace(0.04, 0.08, 1001)[1:-1]
    d_l_in, d_m_in = money.slope_parts_many(inside)
    assert np.all(d_l_in > 0.0)
    assert np.all(d_m_in < 0.0)
    outside = np.concatenate([np.linspace(-0.02, 0.04, 500, endpoint=False),
                              np.linspace(0.0801, 0.3, 500)])
    d_l_out, d_m_out = money.slope_parts_many(outside)
    assert np.all(d_l_out < 0.0)
    assert np.all(d_m_out > 0.0)


def test_two_window_sign_pattern():
    spec = two_window_spec()
    money = spec.money
    signs = []
    grid = np.linspace(0.0, 0.2, 40001)
    d_l, _ = money.slope_parts_many(grid)
    sign = np.sign(d_l)
    # compress consecutive identical signs, dropping exact zeros between runs
    compressed = [sign[0]]
    for s in sign[1:]:
        if s != compressed[-1]:
            compressed.append(s)
    nonzero = [s for s in compressed if s != 0]
    assert nonzero == [-1, 1, -1, 1, -1]
    for w in money.windows:
        assert money.slope_parts(w.p) == (0.0, 0.0)
        assert money.slope_parts(w.q) == (0.0, 0.0)


def test_endpoint_slopes_are_exact_zeros():
    for spec in (reference_spec(), two_window_spec()):
        for w in spec.money.windows:
            for i in (w.p, w.q):
                d_l, d_m = spec.money.slope_parts(i)
                assert abs(d_l) < 1e-12
                assert abs(d_m) < 1e-12


def test_levels_are_continuously_differentiable():
    spec = two_window_spec()
    money = spec.money
    h = 1e-7
    grid = np.linspace(-0.02, 0.25, 1513)
    for i in grid:
        f_hi = money.level_parts(float(i) + h)
        f_lo = money.level_parts(float(i) - h)
        fd_l = (f_hi[0] - f_lo[0]) / (2 * h)
        fd_m = (f_hi[1] - f_lo[1]) / (2 * h)
        d_l, d_m = money.slope_parts(float(i))
        assert fd_l == pytest.approx(d_l, abs=5e-6)
        assert fd_m == pytest.approx(d_m, abs=5e-6)


def test_construction_rejections():
    with pytest.raises(ConstructionError):
        TrapWindow(p=0.08, q=0.04, amp_l=1.0, amp_m=1.0)  # unsorted bounds
    with pytest.raises(ConstructionError):
        TrapWindow(p=0.04, q=0.08, amp_l=0.0, amp_m=1.0)  # no sign reversal
    with pytest.raises(ConstructionError):
        build_three_phase_money(0.5, 0.1, 20.0, 20.0, 2.2, 0.5, [
            TrapWindow(0.04, 0.08, 15.0, 15.0),
            TrapWindow(0.06, 0.12, 15.0, 15.0),  # overlap
        ])
    with pytest.raises(ConstructionError):
        build_three_phase_money(0.5, 0.1, -20.0, 20.0, 2.2, 0.5, [])
    with pytest.raises(ConstructionError):
        make_params(epsilon=-1.0)
    with pytest.raises(ConstructionError):
        make_params(m_stock=0.0)


def test_a_block_built_from_a_list_hashes_and_traces(ref_domain):
    spec = reference_spec()
    m = spec.money
    fields = dict(l_y=m.l_y, m_y=m.m_y, l_slope=m.l_slope, m_slope=m.m_slope,
                  l0=m.l0, m0=m.m0)
    block = MoneyBlock(**fields, windows=list(m.windows))
    assert block.windows == m.windows and isinstance(block.windows, tuple)
    assert block == MoneyBlock(**fields, windows=tuple(m.windows))
    assert hash(block) == hash(m)
    listed = ModelSpec(spec.params, spec.is_block, block)
    assert hash(listed) == hash(spec)
    iso = trace_lm_isocline(listed, ref_domain["y_range"], ref_domain["y_steps"],
                            ref_domain["r_range"], ref_domain["scan_n"])
    assert len(iso.folds) == 2


def test_slow_fast_flag():
    assert make_params(epsilon=1e-3).is_slow_fast
    assert not make_params(epsilon=0.5).is_slow_fast


# ---------------------------------------------------------------------------
# rate-dependence invariants

@settings(max_examples=60, deadline=None)
@given(r=st.floats(-0.1, 0.3), delta=st.floats(-0.1, 0.1), y=st.floats(0.0, 6.0))
def test_money_market_depends_on_rate_only_through_short_rate(r, delta, y):
    spec = reference_spec()
    p = spec.params
    shifted = ModelParams(alpha=p.alpha, beta=p.beta, epsilon=p.epsilon,
                          m_stock=p.m_stock, maturity_premium=p.maturity_premium,
                          expected_inflation=p.expected_inflation + delta)
    spec2 = ModelSpec(params=shifted, is_block=spec.is_block, money=spec.money)
    assert excess_money(y, r, spec) == pytest.approx(
        excess_money(y, r - delta, spec2), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(i=st.floats(-0.05, 0.3))
def test_scalar_and_vector_money_paths_agree(i):
    money = reference_spec().money
    f_l, f_m = money.level_parts(i)
    v_l, v_m = money.level_parts_many(np.array([i]))
    assert f_l == v_l[0]
    assert f_m == v_m[0]
    d_l, d_m = money.slope_parts(i)
    w_l, w_m = money.slope_parts_many(np.array([i]))
    assert d_l == w_l[0]
    assert d_m == w_m[0]


def test_an_evaluated_spec_pickles_and_copies_unchanged():
    # the evaluators cached on a spec and its money block are closures;
    # pickles and copies carry the fields only
    spec = two_window_spec()
    points = [(y, r) for y in (0.0, 1.3, 4.2) for r in (-0.05, 0.031, 0.07, 0.2)]
    before = [(excess_money(y, r, spec), excess_goods(y, r, spec)) for y, r in points]
    spec.money.level_parts(0.05)
    for copied in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec), copy.copy(spec)):
        assert copied == spec
        assert hash(copied) == hash(spec)
        assert copied.spec_id == spec.spec_id
        assert copied.to_dict() == spec.to_dict()
        assert [(excess_money(y, r, copied), excess_goods(y, r, copied))
                for y, r in points] == before
    assert pickle.loads(pickle.dumps(spec.money)) == spec.money


def test_a_shifted_spec_evaluates_like_a_fresh_one():
    # shift_lm shares the money block but no evaluator of the source spec
    spec = two_window_spec()
    points = [(y, r) for y in (0.0, 1.3, 4.2) for r in (-0.05, 0.031, 0.07, 0.2)]
    [excess_money(y, r, spec) for y, r in points]
    shifted = shift_lm(spec, d_pi=0.013, d_ms=-0.21)
    fresh = ModelSpec.from_dict(shifted.to_dict())
    assert fresh == shifted
    for y, r in points:
        assert excess_money(y, r, shifted) == excess_money(y, r, fresh)
        assert excess_goods(y, r, shifted) == excess_goods(y, r, fresh)
    assert excess_money(1.3, 0.07, shifted) != excess_money(1.3, 0.07, spec)


def test_excess_money_monotonicity_pattern(ref_spec):
    offset = ref_spec.params.maturity_premium - ref_spec.params.expected_inflation
    w = ref_spec.money.windows[0]
    h = 1e-8
    inside = np.linspace(w.p + 1e-4, w.q - 1e-4, 101) + offset
    outside = np.concatenate([np.linspace(-0.04, w.p - 1e-4, 101),
                              np.linspace(w.q + 1e-4, 0.2, 101)]) + offset
    for r in inside:
        fd = (excess_money(2.0, r + h, ref_spec) - excess_money(2.0, r - h, ref_spec)) / (2 * h)
        assert fd > 0.0
    for r in outside:
        fd = (excess_money(2.0, r + h, ref_spec) - excess_money(2.0, r - h, ref_spec)) / (2 * h)
        assert fd < 0.0


def test_excess_money_sign_far_from_branches(ref_spec, ref_domain):
    # above every branch the excess is negative, below the lowest positive
    roots = dense_scan_roots(ref_spec, 0.5, ref_domain["r_range"], n=20_000)
    assert len(roots) == 1
    assert excess_money(0.5, roots[0] + 0.05, ref_spec) < 0.0
    assert excess_money(0.5, roots[0] - 0.02, ref_spec) > 0.0


def test_excess_money_vanishes_on_branch_samples(ref_spec, ref_isocline):
    for b in ref_isocline.branches:
        take = slice(None, None, max(1, len(b.ys) // 40))
        for y, r in zip(b.ys[take], b.rs[take]):
            assert abs(excess_money(float(y), float(r), ref_spec)) < 1e-10


# ---------------------------------------------------------------------------
# property validation

def test_reference_spec_passes_validation(ref_spec, ref_domain):
    report = validate_properties(ref_spec, ref_domain["y_range"],
                                 ref_domain["r_range"], 200)
    assert report.passed
    assert all(c.passed for c in report.conditions)


def test_rate_slope_checks_report_the_lowest_income_worst_point(ref_spec, ref_domain):
    # the rate slopes do not depend on income, so every income at the worst
    # rate ties up to rounding; the lowest one is reported
    report = validate_properties(ref_spec, ref_domain["y_range"],
                                 ref_domain["r_range"], 200)
    checks = [c for c in report.conditions
              if c.condition.startswith(("dL_di_S", "dM_di_S"))]
    assert len(checks) == 4
    for c in checks:
        assert c.worst_point[0] == ref_domain["y_range"][0], c.condition


def test_validation_rejects_small_grid(ref_spec, ref_domain):
    report = validate_properties(ref_spec, ref_domain["y_range"],
                                 ref_domain["r_range"], 10)
    assert not report.passed


def test_broken_investment_slope_is_diagnosed(ref_spec, ref_domain):
    bad = ModelSpec(
        params=ref_spec.params,
        is_block=ISBlock(i0=2.0, i_y=1.2, i_r=10.0, s0=0.5, s_y=0.5, s_r=5.0),
        money=ref_spec.money)
    report = validate_properties(bad, ref_domain["y_range"], ref_domain["r_range"], 120)
    assert not report.passed
    failed = {c.condition for c in report.failures()}
    assert "dI_dY < 1" in failed
    worst = next(c for c in report.failures() if c.condition == "dI_dY < 1")
    assert math.isfinite(worst.worst_point[0])


def test_broken_income_response_ordering_is_diagnosed(ref_spec, ref_domain):
    money = build_three_phase_money(0.1, 0.5, 20.0, 20.0, 2.2, 0.5,
                                    ref_spec.money.windows)
    bad = ModelSpec(params=ref_spec.params, is_block=ref_spec.is_block, money=money)
    report = validate_properties(bad, ref_domain["y_range"], ref_domain["r_range"], 120)
    assert not report.passed
    assert "dM_dY < dL_dY" in {c.condition for c in report.failures()}


def test_validation_never_raises_on_garbage():
    spec = reference_spec()
    report = validate_properties(spec, (0.0, 5.0), (0.3, 0.3 + 0.0), 120)
    assert not report.passed  # degenerate range reported, not raised


@pytest.mark.parametrize("y_range, r_range, grid_n", [
    ((0.0, 5.0), (-0.1, 0.2), None),
    ((0.0, 5.0), (-0.1, 0.2), "200"),
    ((0.0, 5.0), (-0.1, 0.2), 200.5),
    (None, (-0.1, 0.2), 200),
    ((0.0, 5.0), None, 200),
])
def test_malformed_arguments_give_a_failed_report(ref_spec, y_range, r_range, grid_n):
    report = validate_properties(ref_spec, y_range, r_range, grid_n)
    assert not report.passed
    assert [c.condition for c in report.conditions] == ["validation run"]
    assert (report.y_range, report.r_range, report.grid_n) == (y_range, r_range, grid_n)


@pytest.mark.parametrize("y_range, r_range", [
    ((0.0, math.nan), (-0.06, 0.22)),
    ((math.nan, 5.0), (-0.06, 0.22)),
    ((0.0, 5.0), (-0.06, math.inf)),
    ((-math.inf, 5.0), (-0.06, 0.22)),
    ((5.0, 0.0), (-0.06, 0.22)),
    ((0.0, 5.0), (0.22, -0.06)),
])
def test_a_non_finite_or_decreasing_range_fails_validation(ref_spec, y_range, r_range):
    # on a NaN range every sample would read "degenerate" and every check pass
    report = validate_properties(ref_spec, y_range, r_range, 200)
    assert not report.passed
    assert "finite increasing range" in report.conditions[0].detail


@pytest.mark.parametrize("grid_n", [200, 1000])
def test_validation_memory_does_not_grow_with_the_grid(ref_spec, ref_domain, grid_n):
    # each difference is taken once per rate node or once in all, never at
    # every grid point: one grid-sized array is 0.32 MB at 200 and 8 MB at 1000
    validate_properties(ref_spec, ref_domain["y_range"], ref_domain["r_range"], grid_n)
    tracemalloc.start()
    try:
        report = validate_properties(ref_spec, ref_domain["y_range"],
                                     ref_domain["r_range"], grid_n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 0.5e6


def test_validation_counts_every_grid_point(ref_spec, ref_domain):
    # a constant slope stands for all grid_n**2 points, a rate slope for its
    # rate node's column of grid_n; inside and outside split the columns
    n = 150
    report = validate_properties(ref_spec, ref_domain["y_range"], ref_domain["r_range"], n)
    counts = {c.condition: c.n_checked + c.n_degenerate for c in report.conditions}
    assert counts["dI_dY > 0"] == counts["dM_dY < dL_dY"] == n * n
    for money in ("dL_di_S", "dM_di_S"):
        split = [v for k, v in counts.items() if k.startswith(money)]
        assert len(split) == 2 and sum(split) == n * n and all(v % n == 0 for v in split)


def test_boundary_condition_checked(ref_spec, ref_domain):
    report = validate_properties(ref_spec, ref_domain["y_range"],
                                 ref_domain["r_range"], 120)
    cond = next(c for c in report.conditions
                if c.condition == "R_IS above lowest LM branch at low income")
    assert cond.passed
    assert cond.worst_value > 0.0


def test_validator_reports_the_reference_boundary_root_to_a_few_ulps():
    # E(0, -0.0075) = 0 exactly on the shipped reference config
    config = parse_config(Path(islmsim.model.__file__).parent / "configs" / "reference.json")
    dom = config.domain
    report = validate_properties(config.model, dom.y_range, dom.r_range, dom.grid_n)
    cond = next(c for c in report.conditions
                if c.condition == "R_IS above lowest LM branch at low income")
    y0, r_lm = cond.worst_point
    assert y0 == 0.0
    assert abs(r_lm - -0.0075) <= 4 * np.spacing(0.0075)
    assert cond.worst_value == 0.1 - r_lm


def test_validator_lands_every_fold_in_one_solve(monkeypatch):
    # one inversion for the boundary root, one for the six fold landings
    config = parse_config(Path(islmsim.model.__file__).parent / "configs" / "three_window.json")
    dom = config.domain
    calls = []
    invert = islmsim.model._invert

    def counting(*args):
        calls.append(len(args[2]))
        return invert(*args)
    monkeypatch.setattr(islmsim.model, "_invert", counting)
    report = validate_properties(config.model, dom.y_range, dom.r_range, 100)
    cond = next(c for c in report.conditions if c.condition == "fold jumps land inside r_range")
    assert report.passed and cond.n_checked == 6
    assert len(calls) <= 2, calls


def test_validator_reports_no_lm_root_without_an_lm_graph(ref_spec, ref_domain):
    spec = ModelSpec(ref_spec.params, ref_spec.is_block,
                     dataclasses.replace(ref_spec.money, m_y=ref_spec.money.l_y))
    report = validate_properties(spec, ref_domain["y_range"], ref_domain["r_range"])
    cond = next(c for c in report.conditions
                if c.condition == "R_IS above lowest LM branch at low income")
    assert not cond.passed and cond.detail == "no LM root found at the low-income edge"


# ---------------------------------------------------------------------------
# the LM graph

@pytest.mark.parametrize("spec", [reference_spec(), two_window_spec(), three_window_spec()])
def test_lm_graph_is_the_money_excess_at_zero_income(spec):
    lm = spec._lm_graph
    k_y = spec.money.l_y - spec.money.m_y
    off = spec.params.maturity_premium - spec.params.expected_inflation
    assert lm.k_y == k_y and lm.offset == off
    assert lm.ends == tuple(r + off for w in spec.money.windows for r in (w.p, w.q))
    assert lm.breaks.tolist() == [i + off for i in spec.money._table[0]]
    rs = np.linspace(-0.1, 0.3, 4001)
    assert np.array_equal(lm.income(rs), -excess_money_many(0.0, rs, spec) / k_y)
    assert np.array_equal(lm.income_slope(rs),
                          [-excess_money_slope(float(r), spec) / k_y for r in rs])
    # the folds: the slope vanishes at every window-endpoint rate, to rounding
    assert np.all(np.abs(lm.income_slope(np.asarray(lm.ends))) < 1e-30)


def test_lm_graph_inverse_lands_on_the_graph(ref_spec):
    lm = ref_spec._lm_graph
    r_p = lm.ends[0]
    ys = np.linspace(0.0, float(lm.income(r_p)), 50)
    rs = lm.rates_at(ys, -0.06, r_p)
    for y, r in zip(ys.tolist(), rs.tolist()):
        near = lm.income(r + np.arange(-4, 5) * np.spacing(r))
        assert near.min() <= y <= near.max(), y


def test_inversion_ends_on_a_few_ulp_bracket_well_inside_the_cap():
    # Newton on the convex x**3 converges to the cube root of 7 from above and
    # never moves the lower end of the bracket; bisecting that gap by turns
    # took 58 residuals
    calls = []

    def cube(x, _k):
        calls.append(len(x))
        return x ** 3

    x = _invert(cube, lambda x, _k: 3.0 * x * x, np.array([7.0]), np.array([0.0]),
                np.array([3.0]), np.array([3.0]), np.array([0.0]))[0]
    assert abs(x - 7.0 ** (1 / 3)) <= 4 * np.spacing(7.0 ** (1 / 3))
    assert len(calls) <= 12 < NEWTON_MAX_ITER


def test_model_imports_no_other_islmsim_module():
    # geometry, dynamics and policy import the model; an import back is a cycle
    tree = ast.parse(Path(islmsim.model.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not node.module.startswith("islmsim"), node.module
        elif isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "islmsim" for a in node.names)


# Bindings a library module keeps unused, each for a benchmark target that
# needs it until the benchmark drops it.
PINNED_IMPORTS = {
    ("dynamics", "solve_ivp"): "the tracer target dynamics.solve_ivp wraps this binding",
    ("dynamics", "lm_roots"): "bench/test_inputs.py asserts that dynamics binds lm_roots",
    ("policy", "lm_roots"): "bench/test_inputs.py asserts that policy binds lm_roots",
}


def test_library_modules_import_only_what_they_use():
    # every imported name is used in its module, or exported in its __all__
    unused = set()
    for path in sorted(Path(islmsim.model.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {a.asname or a.name.split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used |= set(ast.literal_eval(node.value))
        unused |= {(path.stem, name) for name in imported - used - {"annotations"}}
    assert unused == set(PINNED_IMPORTS)
