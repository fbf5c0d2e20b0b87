"""Run configuration: strict JSON parsing with precise error locations.

Unknown keys are rejected everywhere so a mistyped tolerance name can never
silently fall back to a default.  Parsed configurations echo their resolved
values (defaults filled in) for the run's provenance record.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .model import ConstructionError, ModelSpec
from .policy import FiscalDrive, FiscalShift, MonetaryStep, Scenario, ScenarioError

__all__ = ["ConfigError", "Domain", "SimulateOptions", "ScenarioOptions",
           "StabilizeOptions", "RunConfig", "parse_config", "parse_config_dict",
           "serialize_config"]

MODE_NAMES = {"full": "full-epsilon", "reduced": "singular-limit"}
MODE_LABELS = {v: k for k, v in MODE_NAMES.items()}
OUTPUT_FORMATS = {"csv", "json", "svg"}
# the largest grid_n, y_steps and scan_n, and the most samples a stride may
# put on a run: one array of that many points is 8 MB, and a sweep of that
# many incomes takes minutes
MAX_DENSITY = 1_000_000


class ConfigError(ValueError):
    """Configuration file is unreadable, malformed, or invalid."""

    def __init__(self, message: str, path: str = "", location: str = ""):
        self.path = path
        self.location = location
        prefix = f"{path}: " if path else ""
        suffix = f" ({location})" if location else ""
        super().__init__(f"{prefix}{message}{suffix}")


def _require_keys(obj: dict, allowed: set[str], required: set[str], path: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"expected an object, got {type(obj).__name__}", path)
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}",
                          path)
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing required key(s) {sorted(missing)}", path)


def _finite(x, key: str, path: str) -> float:
    """A JSON number as a float; NaN, infinities and integers too large for a
    float are rejected."""
    try:
        x = float(x)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"'{key}' must be finite, got {x}", path)
    return x


def _number(obj: dict, key: str, path: str, default=None, positive=False,
            nonnegative=False):
    if key not in obj:
        if default is None:
            raise ConfigError(f"missing required key '{key}'", path)
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"'{key}' must be a number, got {v!r}", path)
    v = _finite(v, key, path)
    if positive and v <= 0.0:
        raise ConfigError(f"'{key}' must be positive, got {v}", path)
    if nonnegative and v < 0.0:
        raise ConfigError(f"'{key}' must be non-negative, got {v}", path)
    return v


def _whole(obj: dict, key: str, path: str, default: float) -> int:
    """A positive whole number, such as a grid density; 700.0 reads as 700,
    but 699.5 is rejected rather than truncated."""
    v = _number(obj, key, path, default=default, positive=True)
    if not v.is_integer():
        raise ConfigError(f"'{key}' must be a whole number, got {v}", path)
    return int(v)


def _stride(obj: dict, span_key: str, span: float, path: str) -> float | None:
    """The optional sample stride of a run over `span`, capped like the
    densities: it may put at most MAX_DENSITY samples on the span."""
    if obj.get("stride") is None:
        return None
    stride = _number(obj, "stride", path, positive=True)
    if span / stride > MAX_DENSITY:
        raise ConfigError(f"'stride' must put at most {MAX_DENSITY} samples on "
                          f"'{span_key}', got {span / stride:g}", path)
    return stride


def _mode(obj: dict, default: str, path: str) -> str:
    mode = obj.get("mode", default)
    if not isinstance(mode, str) or mode not in MODE_NAMES:
        raise ConfigError(f"'mode' must be one of {sorted(MODE_NAMES)}, got {mode!r}", path)
    return MODE_NAMES[mode]


def _drive(obj: dict, path: str, extra: frozenset[str] = frozenset()) -> FiscalDrive:
    """A fiscal drive: a `fiscal-drive` scenario step or a stabilize ramp."""
    required = {"t_start", "t_end", "y_to"} | extra
    _require_keys(obj, required | {"y_from"}, required, path)
    try:
        return FiscalDrive(
            t_start=_number(obj, "t_start", path, nonnegative=True),
            t_end=_number(obj, "t_end", path, positive=True),
            y_to=_number(obj, "y_to", path, nonnegative=True),
            y_from=None if "y_from" not in obj else _number(obj, "y_from", path))
    except ScenarioError as exc:
        raise ConfigError(str(exc), path) from exc


def _drive_dict(d: FiscalDrive) -> dict:
    out = {"t_start": d.t_start, "t_end": d.t_end, "y_to": d.y_to}
    if d.y_from is not None:
        out["y_from"] = d.y_from
    return out


def _pair(obj: dict, key: str, path: str, default=None) -> tuple[float, float]:
    if key not in obj:
        if default is None:
            raise ConfigError(f"missing required key '{key}'", path)
        return default
    v = obj[key]
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in v)):
        raise ConfigError(f"'{key}' must be a pair of numbers", path)
    lo, hi = _finite(v[0], key, path), _finite(v[1], key, path)
    if hi <= lo:
        raise ConfigError(f"'{key}' must be a non-degenerate range, got [{lo}, {hi}]",
                          path)
    return lo, hi


@dataclass(frozen=True)
class Domain:
    y_range: tuple[float, float]
    r_range: tuple[float, float]
    grid_n: int = 200
    y_steps: int = 700
    scan_n: int = 500

    def to_dict(self) -> dict:
        return {"y_range": list(self.y_range), "r_range": list(self.r_range),
                "grid_n": self.grid_n, "y_steps": self.y_steps, "scan_n": self.scan_n}


@dataclass(frozen=True)
class SimulateOptions:
    y0: float
    r0: float
    t_end: float
    mode: str = "full-epsilon"
    stride: float | None = None
    rtol: float = 1e-8
    atol: float = 1e-10

    def to_dict(self) -> dict:
        return {"y0": self.y0, "r0": self.r0, "t_end": self.t_end,
                "mode": MODE_LABELS[self.mode], "stride": self.stride,
                "rtol": self.rtol, "atol": self.atol}


@dataclass(frozen=True)
class ScenarioOptions:
    scenario: Scenario
    y0: float
    r0: float
    mode: str = "singular-limit"
    stride: float | None = None

    def to_dict(self) -> dict:
        steps = []
        for s in self.scenario.steps:
            if isinstance(s, FiscalDrive):
                steps.append({"kind": "fiscal-drive", **_drive_dict(s)})
            elif isinstance(s, FiscalShift):
                steps.append({"kind": "fiscal-shift", "time": s.time, "g": s.g})
            else:
                steps.append({"kind": "monetary-step", "time": s.time,
                              "d_pi": s.d_pi, "d_ms": s.d_ms})
        return {"horizon": self.scenario.horizon, "y0": self.y0, "r0": self.r0,
                "mode": MODE_LABELS[self.mode], "stride": self.stride,
                "steps": steps}


@dataclass(frozen=True)
class StabilizeOptions:
    fold: str                  # "lower-knee" | "upper-knee"
    instrument: str
    ramp: FiscalDrive
    y0: float
    r0: float
    margin_frac: float = 0.05
    mode: str = "singular-limit"
    protect_to_y: float | None = None

    def to_dict(self) -> dict:
        d = {"fold": self.fold, "instrument": self.instrument,
             "ramp": _drive_dict(self.ramp),
             "y0": self.y0, "r0": self.r0, "margin_frac": self.margin_frac,
             "mode": MODE_LABELS[self.mode]}
        if self.protect_to_y is not None:
            d["protect_to_y"] = self.protect_to_y
        return d


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    domain: Domain
    simulate: SimulateOptions | None = None
    scenario: ScenarioOptions | None = None
    stabilize: StabilizeOptions | None = None
    formats: tuple[str, ...] = ("csv", "json")

    def resolved(self) -> dict:
        out = {"model": self.model.to_dict(), "domain": self.domain.to_dict(),
               "output": {"formats": list(self.formats)}}
        if self.simulate is not None:
            out["simulate"] = self.simulate.to_dict()
        if self.scenario is not None:
            out["scenario"] = self.scenario.to_dict()
        if self.stabilize is not None:
            out["stabilize"] = self.stabilize.to_dict()
        return out


def _parse_model(obj: dict, path: str) -> ModelSpec:
    _require_keys(obj, {"params", "is_block", "money"},
                  {"params", "is_block", "money"}, path)
    params = obj["params"]
    _require_keys(params, {"alpha", "beta", "epsilon", "m_stock",
                           "maturity_premium", "expected_inflation"},
                  {"alpha", "beta", "epsilon", "m_stock"}, f"{path}.params")
    is_block = obj["is_block"]
    _require_keys(is_block, {"i0", "i_y", "i_r", "s0", "s_y", "s_r"},
                  {"i0", "i_y", "i_r", "s0", "s_y", "s_r"}, f"{path}.is_block")
    money = obj["money"]
    _require_keys(money, {"l_y", "m_y", "l_slope", "m_slope", "l0", "m0", "windows"},
                  {"l_y", "m_y", "l_slope", "m_slope", "l0", "m0"}, f"{path}.money")
    windows = money.get("windows", [])
    if not isinstance(windows, list):
        raise ConfigError("'windows' must be a list", f"{path}.money")
    for i, w in enumerate(windows):
        _require_keys(w, {"p", "q", "amp_l", "amp_m"}, {"p", "q", "amp_l", "amp_m"},
                      f"{path}.money.windows[{i}]")
    d = {
        "params": {k: _number(params, k, f"{path}.params",
                              default=params.get(k, 0.0))
                   for k in ("alpha", "beta", "epsilon", "m_stock",
                             "maturity_premium", "expected_inflation")},
        "is_block": {k: _number(is_block, k, f"{path}.is_block")
                     for k in ("i0", "i_y", "i_r", "s0", "s_y", "s_r")},
        "money": {
            **{k: _number(money, k, f"{path}.money")
               for k in ("l_y", "m_y", "l_slope", "m_slope", "l0", "m0")},
            "windows": [{k: _number(w, k, f"{path}.money.windows[{i}]")
                         for k in ("p", "q", "amp_l", "amp_m")}
                        for i, w in enumerate(windows)],
        },
    }
    d["params"].setdefault("maturity_premium", 0.0)
    d["params"].setdefault("expected_inflation", 0.0)
    try:
        return ModelSpec.from_dict(d)
    except ConstructionError as exc:
        raise ConfigError(str(exc), path) from exc


def _parse_steps(raw, horizon: float, path: str) -> Scenario:
    if not isinstance(raw, list):
        raise ConfigError("'steps' must be a list", path)
    steps = []
    for i, s in enumerate(raw):
        p = f"{path}.steps[{i}]"
        if not isinstance(s, dict) or "kind" not in s:
            raise ConfigError("each step needs a 'kind'", p)
        kind = s["kind"]
        if kind == "fiscal-drive":
            steps.append(_drive(s, p, frozenset({"kind"})))
        elif kind == "fiscal-shift":
            _require_keys(s, {"kind", "time", "g"}, {"kind", "time", "g"}, p)
            steps.append(FiscalShift(time=_number(s, "time", p, nonnegative=True),
                                     g=_number(s, "g", p)))
        elif kind == "monetary-step":
            _require_keys(s, {"kind", "time", "d_pi", "d_ms"}, {"kind", "time"}, p)
            steps.append(MonetaryStep(time=_number(s, "time", p, nonnegative=True),
                                      d_pi=_number(s, "d_pi", p, default=0.0),
                                      d_ms=_number(s, "d_ms", p, default=0.0)))
        else:
            raise ConfigError(f"unknown step kind {kind!r}", p)
    try:
        return Scenario(tuple(steps), horizon)
    except Exception as exc:
        raise ConfigError(str(exc), path) from exc


def parse_config_dict(raw: dict, path_label: str = "config") -> RunConfig:
    _require_keys(raw, {"model", "domain", "simulate", "scenario", "stabilize",
                        "output"}, {"model", "domain"}, path_label)
    model = _parse_model(raw["model"], f"{path_label}.model")

    dom_raw = raw["domain"]
    _require_keys(dom_raw, {"y_range", "r_range", "grid_n", "y_steps", "scan_n"},
                  {"y_range", "r_range"}, f"{path_label}.domain")
    dp = f"{path_label}.domain"
    domain = Domain(
        y_range=_pair(dom_raw, "y_range", dp),
        r_range=_pair(dom_raw, "r_range", dp),
        grid_n=_whole(dom_raw, "grid_n", dp, default=200.0),
        y_steps=_whole(dom_raw, "y_steps", dp, default=700.0),
        scan_n=_whole(dom_raw, "scan_n", dp, default=500.0),
    )
    for key, least in (("grid_n", 100), ("y_steps", 500), ("scan_n", 200)):
        if not least <= getattr(domain, key) <= MAX_DENSITY:
            raise ConfigError(f"'{key}' must be at least {least} and at most {MAX_DENSITY}", dp)

    simulate = None
    if "simulate" in raw:
        sp = f"{path_label}.simulate"
        s = raw["simulate"]
        _require_keys(s, {"y0", "r0", "t_end", "mode", "stride", "rtol", "atol"},
                      {"y0", "r0", "t_end"}, sp)
        mode = _mode(s, "full", sp)
        t_end = _number(s, "t_end", sp, nonnegative=True)
        simulate = SimulateOptions(
            y0=_number(s, "y0", sp, nonnegative=True),
            r0=_number(s, "r0", sp),
            t_end=t_end,
            mode=mode,
            stride=_stride(s, "t_end", t_end, sp),
            rtol=_number(s, "rtol", sp, default=1e-8, positive=True),
            atol=_number(s, "atol", sp, default=1e-10, positive=True),
        )

    scenario = None
    if "scenario" in raw:
        cp = f"{path_label}.scenario"
        c = raw["scenario"]
        _require_keys(c, {"horizon", "y0", "r0", "mode", "stride", "steps"},
                      {"horizon", "y0", "r0"}, cp)
        mode = _mode(c, "reduced", cp)
        horizon = _number(c, "horizon", cp, positive=True)
        scenario = ScenarioOptions(
            scenario=_parse_steps(c.get("steps", []), horizon, cp),
            y0=_number(c, "y0", cp, nonnegative=True),
            r0=_number(c, "r0", cp),
            mode=mode,
            stride=_stride(c, "horizon", horizon, cp),
        )

    stabilize = None
    if "stabilize" in raw:
        tp = f"{path_label}.stabilize"
        t = raw["stabilize"]
        _require_keys(t, {"fold", "instrument", "ramp", "y0", "r0", "margin_frac",
                          "mode", "protect_to_y"},
                      {"fold", "instrument", "ramp", "y0", "r0"}, tp)
        if t["fold"] not in ("lower-knee", "upper-knee"):
            raise ConfigError("'fold' must be 'lower-knee' or 'upper-knee'", tp)
        if t["instrument"] not in ("inflation", "money-stock"):
            raise ConfigError("'instrument' must be 'inflation' or 'money-stock'", tp)
        ramp = _drive(t["ramp"], f"{tp}.ramp")
        mode = _mode(t, "reduced", tp)
        stabilize = StabilizeOptions(
            fold=t["fold"], instrument=t["instrument"], ramp=ramp,
            y0=_number(t, "y0", tp, nonnegative=True),
            r0=_number(t, "r0", tp),
            margin_frac=_number(t, "margin_frac", tp, default=0.05, nonnegative=True),
            mode=mode,
            protect_to_y=None if "protect_to_y" not in t else _number(t, "protect_to_y", tp))

    formats: tuple[str, ...] = ("csv", "json")
    if "output" in raw:
        op = f"{path_label}.output"
        o = raw["output"]
        _require_keys(o, {"formats"}, set(), op)
        fmts = o.get("formats", ["csv", "json"])
        if not isinstance(fmts, list) or not all(isinstance(f, str) for f in fmts):
            raise ConfigError("'formats' must be a list of strings", op)
        bad = set(fmts) - OUTPUT_FORMATS
        if bad:
            raise ConfigError(f"unknown format(s) {sorted(bad)}", op)
        formats = tuple(fmts)

    return RunConfig(model=model, domain=domain, simulate=simulate,
                     scenario=scenario, stabilize=stabilize, formats=formats)


def parse_config(path: str | Path) -> RunConfig:
    """Parse and validate a configuration file.

    Syntax errors carry the line and column; validation errors carry the
    offending key path.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(exc.msg, str(path),
                          f"line {exc.lineno}, column {exc.colno}") from exc
    return parse_config_dict(raw, str(path))


def serialize_config(config: RunConfig) -> str:
    return json.dumps(config.resolved(), indent=2, sort_keys=True) + "\n"
