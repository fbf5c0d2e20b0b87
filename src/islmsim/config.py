"""Run configuration: strict JSON parsing with precise error locations.

Every field is declared once, in the table `_CONFIG` at the end of this
module: its key, its kind, which carries its bounds and caps, and its
default.  Parsing, the resolved echo that `RunConfig.resolved` writes to each
run's provenance record, and the CLI's overrides all walk that table.
Unknown keys are rejected everywhere, so a mistyped tolerance name can never
silently fall back to a default.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path

from .dynamics import FULL_MODE, REDUCED_MODE
from .model import ConstructionError, ISBlock, ModelParams, ModelSpec, MoneyBlock, TrapWindow
from .policy import FiscalDrive, FiscalShift, MonetaryStep, Scenario, ScenarioError

__all__ = ["ConfigError", "Domain", "SimulateOptions", "ScenarioOptions",
           "StabilizeOptions", "RunConfig", "parse_config", "parse_config_dict",
           "serialize_config"]

MODE_NAMES = {"full": FULL_MODE, "reduced": REDUCED_MODE}
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


@dataclass(frozen=True)
class Domain:
    y_range: tuple[float, float]
    r_range: tuple[float, float]
    grid_n: int = 200
    y_steps: int = 700
    scan_n: int = 500


@dataclass(frozen=True)
class SimulateOptions:
    y0: float
    r0: float
    t_end: float
    mode: str = FULL_MODE
    stride: float | None = None
    rtol: float = 1e-8
    atol: float = 1e-10


@dataclass(frozen=True)
class ScenarioOptions:
    scenario: Scenario
    y0: float
    r0: float
    mode: str = REDUCED_MODE
    stride: float | None = None


@dataclass(frozen=True)
class StabilizeOptions:
    fold: str                  # "lower-knee" | "upper-knee"
    instrument: str
    ramp: FiscalDrive
    y0: float
    r0: float
    margin_frac: float = 0.05
    mode: str = REDUCED_MODE
    protect_to_y: float | None = None


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    domain: Domain
    simulate: SimulateOptions | None = None
    scenario: ScenarioOptions | None = None
    stabilize: StabilizeOptions | None = None
    formats: tuple[str, ...] = ("csv", "json")

    def resolved(self) -> dict:
        """The configuration with its defaults filled in, as JSON values."""
        return _CONFIG.write(self)


# ---------------------------------------------------------------------------
# field kinds

_REQUIRED = object()  # the default of a field that a config must give


class _Kind:
    """How a field reads and writes.  `read(v, key, where, got)` checks the
    JSON value `v` of field `key` in the object at path `where`, given the
    values `got` read before it there, and returns what the config holds; it
    raises ConfigError at `where`.  `write` turns that back into JSON."""

    bound = ""
    nullable = False  # null reads as unset, so an unset value is written as null

    def write(self, x):
        return x


@dataclass(frozen=True)
class _Number(_Kind):
    """A finite number (not a boolean, NaN or infinity) of at least `least`
    (above it when `strict`) and at most `most`.  A `whole` one reads as an
    int: 700.0 reads as 700, but 699.5 is rejected rather than truncated.  A
    time names its `clock`, "fast" or "slow"."""

    least: float | None = None
    strict: bool = False
    most: float | None = None
    whole: bool = False
    clock: str = ""

    @property
    def bound(self) -> str:
        if self.most is not None:
            return f"at least {self.least} and at most {self.most}"
        if self.least == 0.0:
            return "positive" if self.strict else "non-negative"
        return "finite" if self.least is None else f"at least {self.least!r}"

    def read(self, v, key: str, where: str, got: dict):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"'{key}' must be a number, got {v!r}", where)
        try:
            x = float(v)
        except OverflowError:  # an integer too large for a float
            x = math.inf
        if not math.isfinite(x):
            raise ConfigError(f"'{key}' must be finite, got {x}", where)
        if self.whole and not x.is_integer():
            raise ConfigError(f"'{key}' must be a whole number, got {x}", where)
        low = self.least is not None and (x <= self.least if self.strict else x < self.least)
        if low or (self.most is not None and x > self.most):
            raise ConfigError(f"'{key}' must be {self.bound}, got {x}", where)
        return int(x) if self.whole else x


class _Range(_Kind):
    bound = "finite, low < high"

    def read(self, v, key: str, where: str, got: dict) -> tuple[float, float]:
        if not isinstance(v, (list, tuple)) or len(v) != 2:
            raise ConfigError(f"'{key}' must be a pair of numbers", where)
        lo, hi = (_ANY.read(x, key, where, got) for x in v)
        if hi <= lo:
            raise ConfigError(f"'{key}' must be a non-degenerate range, got [{lo}, {hi}]",
                              where)
        return lo, hi

    def write(self, pair) -> list:
        return list(pair)


@dataclass(frozen=True)
class _Choice(_Kind):
    """One of the keys of `names`, read as the value it maps to."""

    names: dict

    @property
    def bound(self) -> str:
        return f"one of {sorted(self.names)}"

    def read(self, v, key: str, where: str, got: dict):
        if not isinstance(v, str) or v not in self.names:
            raise ConfigError(f"'{key}' must be {self.bound}, got {v!r}", where)
        return self.names[v]

    def write(self, value) -> str:
        return next(name for name, x in self.names.items() if x == value)


@dataclass(frozen=True)
class _Stride(_Kind):
    """The optional sample stride of a run over the object's `span` field,
    capped like the densities: it may put at most MAX_DENSITY samples on the
    span.  It is a time on the span's `clock`."""

    span: str
    clock: str
    nullable = True

    @property
    def bound(self) -> str:
        return f"positive, at most {MAX_DENSITY} samples on '{self.span}'"

    def read(self, v, key: str, where: str, got: dict) -> float | None:
        if v is None:
            return None
        stride = _POSITIVE.read(v, key, where, got)
        samples = got[self.span] / stride
        if samples > MAX_DENSITY:
            raise ConfigError(f"'{key}' must put at most {MAX_DENSITY} samples on "
                              f"'{self.span}', got {samples:g}", where)
        return stride


@dataclass(frozen=True)
class _List(_Kind):
    item: _Kind

    def read(self, v, key: str, where: str, got: dict) -> tuple:
        if not isinstance(v, list):
            raise ConfigError(f"'{key}' must be a list", where)
        return tuple(self.item.read(x, f"{key}[{i}]", where, got) for i, x in enumerate(v))

    def write(self, items) -> list:
        return [self.item.write(x) for x in items]


@dataclass(frozen=True)
class _Field:
    key: str
    kind: _Kind
    default: object = _REQUIRED
    # where the built object keeps the value: "" for its attribute `key`, a dotted
    # attribute path, or None for a section whose fields are the object's own
    attr: str | None = ""


@dataclass(frozen=True)
class _Record(_Kind):
    """A JSON object of `fields`, built by `build(**values)`.  A rule that the
    builder enforces across fields, its `bound`, fails as a config error at
    the object's path."""

    build: object
    fields: tuple[_Field, ...]
    bound: str = ""

    def read(self, v, key: str, where: str, got: dict):
        here = f"{where}.{key}" if where else key
        if not isinstance(v, dict):
            raise ConfigError(f"expected an object, got {type(v).__name__}", here)
        allowed = {f.key for f in self.fields}
        if set(v) - allowed:
            raise ConfigError(f"unknown key(s) {sorted(set(v) - allowed)}; "
                              f"allowed: {sorted(allowed)}", here)
        missing = {f.key for f in self.fields if f.default is _REQUIRED} - set(v)
        if missing:
            raise ConfigError(f"missing required key(s) {sorted(missing)}", here)
        values = {}
        for f in self.fields:
            x = f.kind.read(v[f.key], f.key, here, values) if f.key in v else f.default
            if f.attr is None:
                values.update(x)
            else:
                values[f.key] = x
        try:
            return self.build(**values)
        except (ConstructionError, ScenarioError) as exc:
            raise ConfigError(str(exc), here) from exc

    def write(self, obj) -> dict:
        out = {}
        for f in self.fields:
            x = obj if f.attr is None else attrgetter(f.attr or f.key)(obj)
            if x is not None or f.kind.nullable:  # an unset optional field is left out
                out[f.key] = f.kind.write(x)
        return out


class _Tagged(_Choice):
    """An object whose 'kind' names the record it reads as."""

    def read(self, v, key: str, where: str, got: dict):
        if not isinstance(v, dict) or "kind" not in v:
            raise ConfigError("each step needs a 'kind'", f"{where}.{key}")
        record = super().read(v["kind"], "kind", f"{where}.{key}", got)
        return record.read({k: x for k, x in v.items() if k != "kind"}, key, where, got)

    def write(self, obj) -> dict:
        kind, record = next((k, r) for k, r in self.names.items() if isinstance(obj, r.build))
        return {"kind": kind, **record.write(obj)}


# ---------------------------------------------------------------------------
# the table

_ANY = _Number()
_POSITIVE = _Number(0.0, strict=True)
_NONNEGATIVE = _Number(0.0)
# `simulate` states its times in fast time, the full system's clock;
# `scenario` and `stabilize` in slow time, the singular limit's, which is
# epsilon times fast time
_FAST_TIME = _Number(0.0, clock="fast")
_SLOW_TIME = _Number(0.0, clock="slow")
_POSITIVE_SLOW_TIME = _Number(0.0, strict=True, clock="slow")
_MODE = _Choice(MODE_NAMES)


def _numbers(*keys: str) -> tuple[_Field, ...]:
    return tuple(_Field(key, _ANY) for key in keys)


def _scenario_options(horizon: float, steps: tuple, **rest) -> ScenarioOptions:
    return ScenarioOptions(Scenario(steps, horizon), **rest)


# a `fiscal-drive` scenario step or a stabilize ramp
_DRIVE = _Record(FiscalDrive, (
    _Field("t_start", _SLOW_TIME), _Field("t_end", _POSITIVE_SLOW_TIME),
    _Field("y_to", _NONNEGATIVE), _Field("y_from", _ANY, None)),
    bound="t_start < t_end")

_CONFIG = _Record(RunConfig, (
    _Field("model", _Record(ModelSpec, (
        _Field("params", _Record(ModelParams, (
            _Field("alpha", _POSITIVE), _Field("beta", _POSITIVE),
            _Field("epsilon", _ANY), _Field("m_stock", _POSITIVE),
            _Field("maturity_premium", _ANY, 0.0),
            _Field("expected_inflation", _ANY, 0.0)),
            bound="0 < epsilon <= 1")),
        _Field("is_block", _Record(ISBlock, _numbers("i0", "i_y", "i_r", "s0", "s_y", "s_r"))),
        _Field("money", _Record(MoneyBlock, (
            *_numbers("l_y", "m_y"),
            _Field("l_slope", _POSITIVE), _Field("m_slope", _POSITIVE),
            *_numbers("l0", "m0"),
            _Field("windows", _List(_Record(TrapWindow, (
                _Field("p", _POSITIVE), _Field("q", _ANY),
                _Field("amp_l", _POSITIVE), _Field("amp_m", _POSITIVE)),
                bound="p < q")), ())),
            bound="windows disjoint and ascending"))))),
    _Field("domain", _Record(Domain, (
        _Field("y_range", _Range()), _Field("r_range", _Range()),
        _Field("grid_n", _Number(100, most=MAX_DENSITY, whole=True), Domain.grid_n),
        _Field("y_steps", _Number(500, most=MAX_DENSITY, whole=True), Domain.y_steps),
        _Field("scan_n", _Number(200, most=MAX_DENSITY, whole=True), Domain.scan_n)))),
    _Field("simulate", _Record(SimulateOptions, (
        _Field("y0", _NONNEGATIVE), _Field("r0", _ANY), _Field("t_end", _FAST_TIME),
        _Field("mode", _MODE, SimulateOptions.mode),
        _Field("stride", _Stride("t_end", clock="fast"), None),
        # RK45 raises a smaller relative tolerance to this floor, with a warning
        _Field("rtol", _Number(100 * sys.float_info.epsilon), SimulateOptions.rtol),
        _Field("atol", _POSITIVE, SimulateOptions.atol))), None),
    _Field("scenario", _Record(_scenario_options, (
        _Field("horizon", _POSITIVE_SLOW_TIME, attr="scenario.horizon"),
        _Field("y0", _NONNEGATIVE), _Field("r0", _ANY),
        _Field("mode", _MODE, ScenarioOptions.mode),
        _Field("stride", _Stride("horizon", clock="slow"), None),
        _Field("steps", _List(_Tagged({
            "fiscal-drive": _DRIVE,
            "fiscal-shift": _Record(FiscalShift, (
                _Field("time", _SLOW_TIME), _Field("g", _ANY))),
            "monetary-step": _Record(MonetaryStep, (
                _Field("time", _SLOW_TIME), _Field("d_pi", _ANY, 0.0),
                _Field("d_ms", _ANY, 0.0)))})),
            (), attr="scenario.steps")),
        bound="steps lie within the horizon; step times strictly increase; "
             "drives do not overlap"), None),
    _Field("stabilize", _Record(StabilizeOptions, (
        _Field("fold", _Choice({k: k for k in ("lower-knee", "upper-knee")})),
        _Field("instrument", _Choice({k: k for k in ("inflation", "money-stock")})),
        _Field("ramp", _DRIVE), _Field("y0", _NONNEGATIVE), _Field("r0", _ANY),
        _Field("margin_frac", _NONNEGATIVE, StabilizeOptions.margin_frac),
        _Field("mode", _MODE, StabilizeOptions.mode),
        _Field("protect_to_y", _ANY, None))), None),
    _Field("output", _Record(dict, (
        _Field("formats", _List(_Choice({f: f for f in sorted(OUTPUT_FORMATS)})),
               RunConfig.formats),)), {}, attr=None),
))


def _override(config: RunConfig, flag: str, key: str, value) -> RunConfig:
    """`config` with `value`, read by the table's kind for `key`, in every
    field `key` of a section the config has; `flag` names the value's source
    in an error."""
    try:
        return _set(_CONFIG, config, key, value, flag)
    except (ConstructionError, ScenarioError) as exc:
        raise ConfigError(str(exc), flag) from exc


def _set(record: _Record, obj, key: str, value, flag: str):
    for f in record.fields:
        if f.key == key:
            obj = replace(obj, **{key: f.kind.read(value, key, flag, {})})
        elif isinstance(f.kind, _Record):
            part = obj if f.attr is None else getattr(obj, f.key)
            new = part if part is None else _set(f.kind, part, key, value, flag)
            if new is not part:
                obj = new if f.attr is None else replace(obj, **{f.key: new})
    return obj


def parse_config_dict(raw: dict, path_label: str = "config") -> RunConfig:
    return _CONFIG.read(raw, path_label, "", {})


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
