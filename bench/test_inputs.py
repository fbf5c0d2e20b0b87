"""Tests for the benchmark's input generator and tracer.

Run with `PYTHONPATH=src python -m pytest -q bench/test_inputs.py`.
"""

import pytest

from islmsim import dynamics, geometry, model, policy
from islmsim.config import parse_config

import inputs as I
from tracer import Tracer


def _valid(spec, dom) -> bool:
    return model.validate_properties(spec, dom.y_range, dom.r_range, dom.grid_n).passed


def test_geometry_specs_repeat_for_a_seed_and_all_validate():
    a = I.geometry_specs(3, 1)
    b = I.geometry_specs(3, 1)
    assert [(s.to_dict(), d) for s, d in a] == [(s.to_dict(), d) for s, d in b]
    assert [len(s.money.windows) for s, _ in a] == list(I.GEOMETRY_STRATA)
    assert all(_valid(s, d) for s, d in a)
    other = I.geometry_specs(4, 1)
    assert [s.spec_id for s, _ in other] != [s.spec_id for s, _ in a]
    assert len({s.spec_id for s, _ in a + I.geometry_specs(3, 2)}) == 2 * len(a)


def test_sweep_specs_keep_fold_incomes_apart_for_the_tracer():
    # seed 10, round 1 drew a 3-window spec with two folds 0.45 income steps
    # apart before the fold-gap rule; its replacement must trace every fold
    for spec, dom in I.geometry_specs(10, 1):
        money, p = spec.money, spec.params
        ends = [x for w in money.windows for x in (w.p, w.q)]
        ys = sorted(I._lm_income(money, p.m_stock - (money.l0 - money.m0), ends))
        step = (dom.y_range[1] - dom.y_range[0]) / (dom.y_steps - 1)
        assert all(b - a >= I.FOLD_GAP_STEPS * step * (1 - 1e-6) for a, b in zip(ys, ys[1:]))
    iso = geometry.trace_lm_isocline(spec, dom.y_range, dom.y_steps, dom.r_range, dom.scan_n)
    assert len(iso.folds) == len(ends) == 6


def test_full_cases_repeat_validate_and_keep_the_period_band():
    a, b = I.full_cases(5, 0), I.full_cases(5, 0)
    assert a == b
    for case in a:
        assert _valid(case.spec, case.domain)
        assert I.PERIOD_BAND[0] <= case.period <= I.PERIOD_BAND[1]
    assert I.full_cases(6, 0) != a


def test_reduced_period_matches_the_singular_limit_cycle():
    from islmsim.reference import reference_domain, reference_spec
    spec, d = reference_spec(), reference_domain()
    iso = geometry.trace_lm_isocline(spec, d["y_range"], d["y_steps"], d["r_range"],
                                     d["scan_n"])
    branch, _ = dynamics.attach_to_branch(spec, iso, 1.5, 0.01)
    traj = dynamics.reduced_simulate(spec, 1.5, branch, 40.0, iso)
    cycle = dynamics.detect_cycle(traj, spec)
    assert I.reduced_period(spec) == pytest.approx(cycle.period, rel=1e-3)


def test_policy_cases_repeat_and_every_model_validates():
    a, b = I.policy_cases(2, 0), I.policy_cases(2, 0)
    assert a == b
    kinds = [type(c).__name__ for c in a]
    assert kinds == ["ScenarioCase", "ScenarioCase", "ControllerCase", "ControllerCase",
                     "ProbeCase"]
    for case in a:
        assert _valid(case.spec, I.Domain(case.domain.y_range, case.domain.r_range, 100))
        if isinstance(case, I.ScenarioCase):
            assert I._scenario_steps_valid(case)
    assert I.policy_cases(3, 0) != a


def test_cli_cases_repeat_and_every_config_validates(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    a, b = I.cli_cases(9, 0, a_dir), I.cli_cases(9, 0, b_dir)
    assert [c.command for c in a] == [p[0] for p in I.CLI_PLAN]
    for ca, cb in zip(a, b):
        assert ca.config_path.read_bytes() == cb.config_path.read_bytes()
        cfg = parse_config(ca.config_path)
        d = cfg.domain
        assert model.validate_properties(cfg.model, d.y_range, d.r_range, d.grid_n).passed


def test_tracer_wraps_every_binding_and_restores_them():
    originals = (geometry.lm_roots, dynamics.lm_roots, policy.lm_roots, model.excess_money)
    assert geometry.lm_roots is dynamics.lm_roots is policy.lm_roots
    tracer = Tracer()
    tracer.install()
    try:
        assert geometry.lm_roots is dynamics.lm_roots is policy.lm_roots
        assert geometry.lm_roots is not originals[0]
        from islmsim.reference import reference_spec
        spec = reference_spec()
        tracer.run_item("probe", lambda: policy.lm_roots(2.0, spec, (-0.06, 0.22)))
    finally:
        tracer.uninstall()
    assert (geometry.lm_roots, dynamics.lm_roots, policy.lm_roots,
            model.excess_money) == originals
    assert tracer.counts["geometry.lm_roots.calls"] == 1
    assert tracer.counts["model.excess_money_many.calls"] == 1
    assert tracer.counts["model.excess_money.calls"] > 0
    self_s = tracer.self_times()
    assert self_s["geometry.lm_roots"] > 0.0
    assert [s[0] for s in tracer.spans] == ["item", "geometry.lm_roots"]
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == "probe"
    assert tracer.absent == []
