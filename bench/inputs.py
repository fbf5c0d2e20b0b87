"""Seeded inputs for the benchmark workloads.

Every generator takes a seed and a round index and returns fresh objects, so
the same pair always gives the same inputs and a cache keyed by object
identity never carries over between rounds.  Candidates are built through the
library's own constructors and kept only when `validate_properties` passes;
all rejection happens here, before any timing starts.  The library receives
nothing but the generated specs, domains, schedules and config files.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from islmsim import geometry as G
from islmsim import model as M
from islmsim import policy as P
from islmsim import reference as REF
from islmsim.config import Domain, parse_config_dict

WORKLOAD_TAGS = {"geometry-sweep": 1, "full-epsilon": 2, "policy-reduced": 3, "cli": 4}

# Window counts of the specs in one geometry-sweep round.  The mix is fixed so
# that the cost of a round depends on the seed only through jitter inside
# each stratum, not through how many multi-window specs were drawn; the
# two-window majority keeps the median item inside one stratum.
GEOMETRY_STRATA = (0, 1, 2, 2, 2, 2, 3)
# The tracer links money-market roots between neighbouring income samples, so
# it cannot always tell apart two folds that lie within one sample step in
# income: it then raises TracingError or drops a fold (seen at up to 0.81
# steps, never at 0.88 steps or more).  Sweep specs keep their fold incomes this many steps
# apart, which makes the workload one on which the tracer is expected to work.
FOLD_GAP_STEPS = 2.0

# Full-epsilon horizons in slow time, as in the epsilon-ladder fixture:
# 3.0 and 2.6 periods of the reference cycle (6.1 slow-time units).
REFERENCE_PERIOD = 6.1
FULL_RUNS = ((1e-2, 3.0 * REFERENCE_PERIOD, 0.1), (1e-3, 2.6 * REFERENCE_PERIOD, 1.0))
# Variants are kept only when their singular-limit period lies in this band,
# so that the horizons above stay between about 2.4 and 3.3 periods.
PERIOD_BAND = (5.6, 6.6)

MAX_DRAWS = 500


class GenerationError(RuntimeError):
    """The generator could not find a valid candidate (a generator defect)."""


def rng_for(workload: str, seed: int, round_idx: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOAD_TAGS[workload], int(round_idx)])


def _validated(spec: M.ModelSpec, dom: Domain) -> bool:
    return M.validate_properties(spec, dom.y_range, dom.r_range, dom.grid_n).passed


def _lm_income(money: M.MoneyBlock, k_level: float, i) -> np.ndarray:
    """Income on the LM isocline at short rate i: the money excess is linear
    in income, so Y = (K - (f_L - f_M)(i)) / (l_y - m_y)."""
    f_l, f_m = money.level_parts_many(np.asarray(i, dtype=float))
    return (k_level - (f_l - f_m)) / (money.l_y - money.m_y)


# ---------------------------------------------------------------------------
# geometry-sweep

def _draw_windows(rng: np.random.Generator, n: int) -> list[M.TrapWindow]:
    windows = []
    p = rng.uniform(0.025, 0.04)
    for _ in range(n):
        q = p + rng.uniform(0.025, 0.05)
        windows.append(M.TrapWindow(p=float(p), q=float(q),
                                    amp_l=float(rng.uniform(12.0, 25.0)),
                                    amp_m=float(rng.uniform(12.0, 25.0))))
        p = q + rng.uniform(0.015, 0.03)
    return windows


def _draw_sweep_spec(rng: np.random.Generator, n_windows: int
                     ) -> tuple[M.ModelSpec, Domain]:
    money = M.build_three_phase_money(
        l_y=float(rng.uniform(0.45, 0.55)), m_y=float(rng.uniform(0.08, 0.12)),
        l_slope=float(rng.uniform(16.0, 24.0)), m_slope=float(rng.uniform(16.0, 24.0)),
        l0=2.2, m0=0.5, windows=_draw_windows(rng, n_windows))
    mp, pi_e = 0.02, float(rng.uniform(0.0, 0.04))
    offset = mp - pi_e  # r = i_S + offset

    # place the money stock so that the lowest fold income (or, without
    # windows, the zero-rate income) lands at a drawn level inside the domain
    ends = [x for w in money.windows for x in (w.p, w.q)] or [0.0]
    g_ends = _lm_income(money, 0.0, ends)           # Y at K = 0
    y_low = float(rng.uniform(0.6, 1.2))
    k_level = (y_low - float(np.min(g_ends))) * (money.l_y - money.m_y)
    y_top = float(np.max(g_ends)) + k_level / (money.l_y - money.m_y)
    y_hi = y_top + float(rng.uniform(0.8, 1.6)) if money.windows else float(rng.uniform(4.5, 5.5))
    fold_ys = np.sort(g_ends) + k_level / (money.l_y - money.m_y)
    y_step = y_hi / (Domain.y_steps - 1)
    if len(fold_ys) > 1 and float(np.min(np.diff(fold_ys))) < FOLD_GAP_STEPS * y_step:
        raise ValueError("two fold incomes closer than the tracer's income step resolves")

    # rate range covering every isocline point with income in [0, y_hi]
    i_grid = np.linspace(-0.5, 0.8, 26001)
    y_grid = _lm_income(money, k_level, i_grid)
    inside = (y_grid >= 0.0) & (y_grid <= y_hi)
    if not inside.any():
        raise ValueError("isocline misses the income range")
    r_lo = float(i_grid[inside].min()) + offset - float(rng.uniform(0.02, 0.04))
    r_hi = float(i_grid[inside].max()) + offset + float(rng.uniform(0.02, 0.04))

    params = M.ModelParams(alpha=1.0, beta=0.25, epsilon=1e-3,
                           m_stock=k_level + (money.l0 - money.m0),
                           maturity_premium=mp, expected_inflation=pi_e)
    s_y = float(rng.uniform(0.45, 0.6))
    is_block = M.ISBlock(i0=float(rng.uniform(1.6, 2.4)),
                         i_y=float(rng.uniform(0.2, s_y - 0.1)),
                         i_r=float(rng.uniform(6.0, 14.0)),
                         s0=float(rng.uniform(0.3, 0.7)), s_y=s_y,
                         s_r=float(rng.uniform(3.0, 7.0)))
    spec = M.ModelSpec(params=params, is_block=is_block, money=money)
    return spec, Domain((0.0, round(y_hi, 6)), (round(r_lo, 6), round(r_hi, 6)))


def geometry_specs(seed: int, round_idx: int) -> list[tuple[M.ModelSpec, Domain]]:
    """One round of distinct valid specs, one per entry of GEOMETRY_STRATA."""
    rng = rng_for("geometry-sweep", seed, round_idx)
    out = []
    for n_windows in GEOMETRY_STRATA:
        for _ in range(MAX_DRAWS):
            try:
                spec, dom = _draw_sweep_spec(rng, n_windows)
            except ValueError:  # ConstructionError, empty income range, close folds
                continue
            if _validated(spec, dom):
                out.append((spec, dom))
                break
        else:
            raise GenerationError(f"no valid {n_windows}-window spec in {MAX_DRAWS} draws")
    return out


# ---------------------------------------------------------------------------
# full-epsilon

def reduced_period(spec: M.ModelSpec) -> float:
    """Singular-limit period of the one-window relaxation cycle.

    Integrates dt = dY / (alpha (I - S)) along the lower stable arc from the
    down-jump landing to the lower knee, and along the upper arc from the
    up-jump landing back to the upper knee, parametrized by the short rate.
    Used only to pick horizons; the benchmark's checks do not rely on it.
    """
    money, p, b = spec.money, spec.params, spec.is_block
    w = money.windows[0]
    k_level = p.m_stock - (money.l0 - money.m0)
    offset = p.maturity_premium - p.expected_inflation
    y_knee_lo, y_knee_hi = (float(v) for v in _lm_income(money, k_level, [w.p, w.q]))

    def leg(i_a: float, i_b: float) -> float:
        i = np.linspace(i_a, i_b, 40001)
        y = _lm_income(money, k_level, i)
        goods = (b.i0 - b.s0) + (b.i_y - b.s_y) * y - (b.i_r + b.s_r) * (i + offset)
        integrand = np.abs(np.gradient(y, i) / (p.alpha * goods))
        return float(np.sum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(i)))

    def solve(y_target: float, lo: float, hi: float) -> float:
        f = lambda x: float(_lm_income(money, k_level, x)) - y_target
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (f(lo) > 0) == (f(mid) > 0):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    i_land_lo = solve(y_knee_hi, -1.0, w.p)   # lower arc at the upper-knee income
    i_land_hi = solve(y_knee_lo, w.q, 2.0)    # upper arc at the lower-knee income
    return leg(i_land_lo, w.p) + leg(w.q, i_land_hi)


def _crosses_only_unstable_arc(spec: M.ModelSpec, dom: Domain) -> bool:
    b, p, w = spec.is_block, spec.params, spec.money.windows[0]
    ys = np.linspace(dom.y_range[0], dom.y_range[1], 20001)
    rs = ((b.i0 - b.s0) + (b.i_y - b.s_y) * ys) / (b.i_r + b.s_r)
    phi = M.excess_money_many(ys, rs, spec)
    flips = np.nonzero(np.sign(phi[:-1]) * np.sign(phi[1:]) < 0)[0]
    if len(flips) != 1:
        return False
    i_cross = float(rs[flips[0]]) - p.maturity_premium + p.expected_inflation
    return w.p + 0.1 * (w.q - w.p) < i_cross < w.q - 0.1 * (w.q - w.p)


@dataclass(frozen=True)
class FullCase:
    spec: M.ModelSpec          # epsilon is set per run
    domain: Domain
    y0: float
    r0: float
    period: float


def full_cases(seed: int, round_idx: int, n: int = 1) -> list[FullCase]:
    """Reference-family variants whose IS curve crosses only the unstable arc."""
    rng = rng_for("full-epsilon", seed, round_idx)
    base = REF.reference_spec()
    dom = Domain(REF.REFERENCE_Y_RANGE, REF.REFERENCE_R_RANGE)
    out = []
    for _ in range(n):
        for _ in range(MAX_DRAWS):
            w = base.money.windows[0]
            try:
                window = M.TrapWindow(p=w.p + float(rng.uniform(-0.004, 0.004)),
                                      q=w.q + float(rng.uniform(-0.006, 0.006)),
                                      amp_l=w.amp_l * float(rng.uniform(0.9, 1.1)),
                                      amp_m=w.amp_m * float(rng.uniform(0.9, 1.1)))
                money = M.build_three_phase_money(
                    l_y=base.money.l_y, m_y=base.money.m_y,
                    l_slope=base.money.l_slope, m_slope=base.money.m_slope,
                    l0=base.money.l0, m0=base.money.m0, windows=[window])
                bp = base.params
                params = M.ModelParams(
                    alpha=bp.alpha, beta=bp.beta, epsilon=bp.epsilon,
                    m_stock=bp.m_stock * float(rng.uniform(0.98, 1.02)),
                    maturity_premium=bp.maturity_premium,
                    expected_inflation=bp.expected_inflation)
                bi = base.is_block
                is_block = M.ISBlock(i0=bi.i0 + float(rng.uniform(-0.05, 0.05)),
                                     i_y=bi.i_y, i_r=bi.i_r, s0=bi.s0, s_y=bi.s_y,
                                     s_r=bi.s_r)
                spec = M.ModelSpec(params=params, is_block=is_block, money=money)
            except M.ConstructionError:
                continue
            if not (_crosses_only_unstable_arc(spec, dom) and _validated(spec, dom)):
                continue
            period = reduced_period(spec)
            if not PERIOD_BAND[0] <= period <= PERIOD_BAND[1]:
                continue
            out.append(FullCase(spec, dom, 1.5 + float(rng.uniform(-0.1, 0.1)),
                                0.01 + float(rng.uniform(-0.004, 0.004)), period))
            break
        else:
            raise GenerationError(f"no full-epsilon variant in {MAX_DRAWS} draws")
    return out


def with_epsilon(spec: M.ModelSpec, epsilon: float) -> M.ModelSpec:
    return M.ModelSpec(params=dataclasses.replace(spec.params, epsilon=epsilon),
                       is_block=spec.is_block, money=spec.money)


# ---------------------------------------------------------------------------
# policy-reduced

@dataclass(frozen=True)
class ScenarioCase:
    spec: M.ModelSpec
    domain: Domain
    scenario: P.Scenario
    y0: float
    r0: float
    label: str


@dataclass(frozen=True)
class ControllerCase:
    spec: M.ModelSpec
    domain: Domain
    instrument: str
    ramp: P.FiscalDrive
    y0: float
    r0: float
    margin_frac: float
    protect_to_y: float


@dataclass(frozen=True)
class ProbeCase:
    spec: M.ModelSpec           # reference spec shifted by a drawn d_pi
    domain: Domain
    y0: float
    r0: float
    horizon: float


def _census_scenario(rng: np.random.Generator, n_windows: int, spec: M.ModelSpec,
                     dom: Domain, step_kind: str) -> ScenarioCase:
    runs = REF.census_runs(n_windows)
    run = runs[int(rng.integers(len(runs)))]
    horizon = 4.0
    ramp = P.FiscalDrive(0.0, horizon, y_to=run["y_to"] + float(rng.uniform(-0.03, 0.03)))
    t_step = float(rng.uniform(0.5, 3.5))
    if step_kind == "inflation":
        step = P.MonetaryStep(t_step, d_pi=float(rng.uniform(-0.003, 0.003)))
    else:
        step = P.MonetaryStep(t_step, d_ms=float(rng.uniform(-0.03, 0.03)))
    return ScenarioCase(spec, dom, P.Scenario((ramp, step), horizon),
                        run["y0"], run["r0_hint"], f"{n_windows}w-{run['label']}")


def policy_cases(seed: int, round_idx: int) -> list:
    """One round: a census ramp with a monetary step on each multi-window
    spec, the controller with each instrument, and one negative-rate probe."""
    rng = rng_for("policy-reduced", seed, round_idx)
    ref_dom = Domain(**REF.reference_domain())
    multi = Domain(**REF.multiwindow_domain())
    cases: list = []
    for _ in range(MAX_DRAWS):
        c2 = _census_scenario(rng, 2, REF.two_window_spec(), multi, "inflation")
        c3 = _census_scenario(rng, 3, REF.three_window_spec(), multi, "money-stock")
        if all(_scenario_steps_valid(c) for c in (c2, c3)):
            cases += [c2, c3]
            break
    else:
        raise GenerationError("no valid census scenarios")
    t_end = float(rng.uniform(3.3, 3.7))
    y_to = float(rng.uniform(3.4, 3.7))
    y0 = float(rng.uniform(2.7, 2.9))
    margin = float(rng.uniform(0.04, 0.07))
    for instrument in ("inflation", "money-stock"):
        cases.append(ControllerCase(REF.reference_spec(), ref_dom, instrument,
                                    P.FiscalDrive(0.0, t_end, y_to=y_to), y0, 0.02,
                                    margin, y_to + 0.1))
    d_pi = float(rng.uniform(0.0, 0.008))
    cases.append(ProbeCase(G.shift_lm(REF.reference_spec(), d_pi=d_pi), ref_dom,
                           1.5, 0.01, 40.0))
    return cases


def widened(r_range: tuple[float, float], d_pi: float) -> tuple[float, float]:
    """Rate range after an inflation step, widened as `apply_scenario` does."""
    return (min(r_range[0], r_range[0] - d_pi), max(r_range[1], r_range[1] - d_pi))


def _scenario_steps_valid(case: ScenarioCase) -> bool:
    """Every model the scenario passes through must validate, as
    `apply_scenario` requires; checked here so no item is drawn invalid."""
    step = case.scenario.instantaneous()[0]
    try:
        shifted = G.shift_lm(case.spec, d_pi=step.d_pi, d_ms=step.d_ms)
    except ValueError:  # the step would make the money stock non-positive
        return False
    y_range, r_range = case.domain.y_range, case.domain.r_range
    return (_validated(case.spec, Domain(y_range, r_range, 100))
            and _validated(shifted, Domain(y_range, widened(r_range, step.d_pi), 100)))


# ---------------------------------------------------------------------------
# cli

# (subcommand, shipped config, config overrides, extra arguments).  simulate
# runs in full mode only, at epsilon 1e-2 over the 1e-2 horizon and stride of
# FULL_RUNS, which still writes an 18k-row trajectory table (METRICS.md says
# why reduced mode is left out).
CLI_PLAN = (
    ("validate", "two_window.json", {}, ()),
    ("isocline", "three_window.json", {}, ()),
    ("equilibria", "steep_is.json", {}, ()),
    ("portrait", "fiscal_ramp.json", {}, ()),
    ("scenario", "fiscal_ramp.json", {}, ()),
    ("stabilize", "fiscal_ramp.json", {}, ()),
    ("simulate", "reference.json",
     {"simulate": {"t_end": FULL_RUNS[0][1] / FULL_RUNS[0][0], "stride": FULL_RUNS[0][2]}},
     ("--mode", "full", "--epsilon", "1e-2")),
)


@dataclass(frozen=True)
class CliCase:
    command: str
    config_path: Path
    out_dir: Path
    argv: tuple[str, ...]


def shipped_configs_dir() -> Path:
    return Path(M.__file__).resolve().parent / "configs"


def _jitter_config(raw: dict, rng: np.random.Generator) -> dict:
    cfg = copy.deepcopy(raw)
    model = cfg["model"]
    model["params"]["m_stock"] *= float(rng.uniform(0.995, 1.005))
    model["is_block"]["i0"] *= float(rng.uniform(0.995, 1.005))
    for key in ("simulate", "scenario", "stabilize"):
        if key in cfg:
            cfg[key]["y0"] += float(rng.uniform(-0.02, 0.02))
    if "scenario" in cfg:
        for s in cfg["scenario"]["steps"]:
            if s["kind"] == "fiscal-drive":
                s["y_to"] += float(rng.uniform(-0.03, 0.03))
    if "stabilize" in cfg:
        cfg["stabilize"]["ramp"]["y_to"] += float(rng.uniform(-0.03, 0.03))
    return cfg


def cli_cases(seed: int, round_idx: int, work_dir: Path) -> list[CliCase]:
    """Seeded variants of the shipped configs written under work_dir, one per
    subcommand, each with its own output directory."""
    rng = rng_for("cli", seed, round_idx)
    src = shipped_configs_dir()
    cases = []
    for k, (command, name, overrides, extra) in enumerate(CLI_PLAN):
        raw = json.loads((src / name).read_text(encoding="utf-8"))
        for section, values in overrides.items():
            raw[section].update(values)
        for _ in range(MAX_DRAWS):
            cfg = _jitter_config(raw, rng)
            parsed = parse_config_dict(cfg)
            if _validated(parsed.model, parsed.domain):
                break
        else:
            raise GenerationError(f"no valid variant of {name}")
        path = work_dir / f"r{round_idx}-{k}-{command}.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        out = work_dir / f"r{round_idx}-{k}-{command}-out"
        argv = (command, "--config", str(path), "--out", str(out), "--quiet",
                "--format", "csv,json,svg") + tuple(extra)
        cases.append(CliCase(command, path, out, argv))
    return cases
