"""Command-line interface.

Subcommands: validate, isocline, equilibria, simulate, scenario, stabilize,
portrait.  Data goes to files in the output directory; diagnostics go to the
error stream.  Exit codes: 0 success, 1 validation failure, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, MODE_NAMES, RunConfig, _override, parse_config
from .dynamics import FoldStallError, IntegrationError, REDUCED_MODE, Trajectory, detect_cycle
from .geometry import find_equilibria, is_curve, trace_lm_isocline
from .model import ModelDomainError, ValidationReport, start_condition, validate_properties
from .output import (
    RunLockError,
    acquire_run_lock,
    emit_outputs,
    equilibria_document,
    isocline_document,
    release_run_lock,
    simulation_document,
    validation_document,
    write_provenance,
)
from .policy import (FiscalDrive, Scenario, ScenarioError, ScenarioResult, apply_scenario,
                     plan_stabilization, preflight, run_with_controller)
from .svg import render_portrait

import numpy as np

logger = logging.getLogger("islmsim")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

# the config sections that start a run, each from its own (y0, r0)
RUN_SECTIONS = ("simulate", "scenario", "stabilize")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="islmsim",
        description="Slow-fast IS-LM simulator: isocline geometry, relaxation "
                    "oscillations, and policy scenarios.")
    parser.add_argument("command",
                        choices=["validate", "isocline", "equilibria", "simulate",
                                 "scenario", "stabilize", "portrait"])
    parser.add_argument("--config", required=True, help="configuration file (JSON)")
    parser.add_argument("--out", default="islm-out", help="output directory")
    parser.add_argument("--format", default=None,
                        help="comma-separated outputs: csv,json,svg")
    parser.add_argument("--mode", choices=sorted(MODE_NAMES), default=None,
                        help="override the mode of every section that has one")
    parser.add_argument("--epsilon", type=float, default=None,
                        help="override the slow-fast ratio")
    parser.add_argument("--quiet", action="store_true", help="suppress progress logs")
    return parser


def _configure_logging(quiet: bool) -> None:
    level_name = os.environ.get("ISLM_LOG", "INFO" if not quiet else "ERROR").upper()
    level = getattr(logging, level_name, logging.INFO)
    if quiet:
        level = max(level, logging.ERROR)
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="islmsim: %(levelname)s: %(message)s")


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    """The config with each flag given read into every field it overrides."""
    formats = (None if args.format is None
               else [f.strip() for f in args.format.split(",") if f.strip()])
    for flag, key, value in (("--epsilon", "epsilon", args.epsilon),
                             ("--mode", "mode", args.mode),
                             ("--format", "formats", formats)):
        if value is not None:
            config = _override(config, flag, key, value)
    return config


def run_command(argv: list[str] | None = None) -> int:
    """Parse arguments, execute one subcommand, and return the exit status."""
    args = _build_parser().parse_args(argv)
    _configure_logging(args.quiet)
    try:
        config = parse_config(args.config)
        config = _apply_overrides(config, args)
    except ConfigError as exc:
        print(f"islmsim: config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    out_dir = Path(args.out)
    try:
        lock = acquire_run_lock(out_dir)
    except RunLockError as exc:
        print(f"islmsim: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    try:
        return _dispatch(args.command, config, out_dir)
    except (ConfigError, ScenarioError, ModelDomainError) as exc:
        print(f"islmsim: validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (IntegrationError, FoldStallError) as exc:
        print(f"islmsim: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    finally:
        release_run_lock(lock)


def _dispatch(command: str, config: RunConfig, out_dir: Path) -> int:
    dom = config.domain
    spec = config.model
    write_provenance(out_dir, config.resolved(), command)
    docs: dict = {}
    trajs: dict = {}
    svgs: dict = {}
    want = set(config.formats)
    status = EXIT_OK

    if command == "validate":
        report = _validation_report(config)
        docs["validation"] = validation_document(report)
        if not report.passed:
            status = EXIT_VALIDATION
            for c in report.failures():
                print(f"islmsim: failed: {c.condition} (worst {c.worst_value:g} at "
                      f"y={c.worst_point[0]:g}, r={c.worst_point[1]:g}) {c.detail}",
                      file=sys.stderr)
        else:
            logger.info("all property checks passed")

    elif command in ("isocline", "equilibria", "portrait"):
        iso = trace_lm_isocline(spec, dom.y_range, dom.y_steps, dom.r_range,
                                dom.scan_n)
        eqs = find_equilibria(spec, dom.y_range, iso)
        if command == "isocline":
            docs["isocline"] = isocline_document(iso, eqs)
        elif command == "equilibria":
            docs["equilibria"] = equilibria_document(eqs)
        else:
            traj = _maybe_simulate(config, spec, dom)
            svgs["portrait"] = render_portrait(
                iso, is_curve(spec), eqs, traj, dom.y_range, dom.r_range,
                title=f"phase portrait (spec {spec.spec_id})")
            if traj is not None and "json" in want:
                cycle = detect_cycle(traj, spec)
                docs["simulation"] = simulation_document(traj, cycle, None)

    elif command == "simulate":
        if config.simulate is None:
            raise ConfigError("the 'simulate' section is required for this command")
        traj = _run_simulation(config, spec, dom)
        cycle = detect_cycle(traj, spec)
        docs["simulation"] = simulation_document(
            traj, cycle, "trajectory.csv" if "csv" in want else None)
        if "csv" in want:
            trajs["trajectory"] = traj

    elif command == "scenario":
        if config.scenario is None:
            raise ConfigError("the 'scenario' section is required for this command")
        result = _run_scenario(config, spec, dom)
        traj = result.trajectory
        cycle = detect_cycle(traj, result.final_spec)
        doc = simulation_document(traj, cycle, "trajectory.csv" if "csv" in want else None)
        doc["kind"] = "scenario"
        doc["events"] = result.events
        docs["scenario"] = doc
        if "csv" in want:
            trajs["trajectory"] = traj

    elif command == "stabilize":
        if config.stabilize is None:
            raise ConfigError("the 'stabilize' section is required for this command")
        st = config.stabilize
        iso = trace_lm_isocline(spec, dom.y_range, dom.y_steps, dom.r_range,
                                dom.scan_n)
        folds = [f for f in iso.folds if f.kind == st.fold]
        if not folds:
            raise ScenarioError(f"the isocline has no {st.fold} fold")
        fold = folds[0]
        plan = plan_stabilization(spec, fold, st.instrument, iso,
                                  protect_to_y=st.protect_to_y)
        ramp_run, _ = _on_clock(spec, st.mode, "stabilize", Scenario((st.ramp,), st.ramp.t_end))
        (ramp,) = ramp_run.steps
        report = run_with_controller(spec, ramp, plan, st.y0, st.r0,
                                     y_range=dom.y_range, r_range=dom.r_range,
                                     mode=st.mode, margin_frac=st.margin_frac,
                                     y_steps=dom.y_steps, scan_n=dom.scan_n,
                                     grid_n=dom.grid_n)
        doc = {
            "schema_version": "1",
            "kind": "stabilize",
            "fold": {"y": fold.y, "r": fold.r, "kind": fold.kind},
            "plan": {"instrument": plan.instrument, "delta": plan.delta,
                     "mode": plan.mode, "matched": plan.matched,
                     "residual": plan.residual, "diagnosis": plan.diagnosis,
                     "jump_direction": plan.jump_direction,
                     "r_target": plan.r_target},
            "comparison": report.to_dict(),
        }
        docs["stabilize"] = doc
        if "csv" in want:
            trajs["uncontrolled"] = report.uncontrolled.trajectory
            trajs["controlled"] = report.controlled.trajectory

    if "json" not in want:
        docs = {}
    written = emit_outputs(out_dir, docs, trajs, svgs)
    for path in written:
        logger.info("wrote %s", path)
    return status


def _validation_report(config: RunConfig) -> ValidationReport:
    """The model's validation report, with a start condition for each run
    section the config has: the checks every run makes before it starts."""
    dom = config.domain
    report = validate_properties(config.model, dom.y_range, dom.r_range, dom.grid_n)
    starts = tuple(start_condition(config.model, s.y0, s.r0, dom.y_range, dom.r_range, name)
                   for name in RUN_SECTIONS if (s := getattr(config, name)) is not None)
    return replace(report, passed=report.passed and all(c.passed for c in starts),
                   conditions=report.conditions + starts)


def _on_clock(spec, mode: str, section: str, scenario: Scenario,
              stride: float | None = None) -> tuple[Scenario, float | None]:
    """A section's scenario and stride on the clock its mode runs on.

    The full system runs in fast time and the singular limit in slow time,
    epsilon times fast time.  `simulate` gives its times in fast time, and
    `scenario` and `stabilize` in slow time, so a reduced simulate scales
    them by epsilon and a full-mode scenario or stabilize by 1 / epsilon:
    the horizon, every step and drive time, and the stride.
    """
    eps = spec.params.epsilon
    if section != "simulate":
        c = 1.0 if mode == REDUCED_MODE else 1.0 / eps
    else:
        c = eps if mode == REDUCED_MODE else 1.0
    if c == 1.0:
        return scenario, stride
    horizon, stride = c * scenario.horizon, None if stride is None else c * stride
    if not all(math.isfinite(x) for x in (horizon, stride or 0.0)):
        raise ConfigError(f"epsilon {eps:g} puts the run's times beyond the float range "
                          "in fast time", section)
    steps = tuple(replace(s, t_start=c * s.t_start, t_end=c * s.t_end)
                  if isinstance(s, FiscalDrive) else replace(s, time=c * s.time)
                  for s in scenario.steps)
    return Scenario(steps, horizon), stride


def _run_simulation(config: RunConfig, spec, dom) -> Trajectory:
    so = config.simulate
    if so.t_end <= 0.0:
        preflight(spec, so.y0, so.r0, y_range=dom.y_range, r_range=dom.r_range,
                  grid_n=dom.grid_n)
        return Trajectory(np.empty(0), np.empty(0), np.empty(0), so.mode, spec.spec_id)
    scenario, stride = _on_clock(spec, so.mode, "simulate", Scenario((), so.t_end), so.stride)
    return apply_scenario(spec, scenario, so.y0, so.r0, so.mode,
                          y_range=dom.y_range, r_range=dom.r_range,
                          y_steps=dom.y_steps, scan_n=dom.scan_n, stride=stride,
                          grid_n=dom.grid_n, rtol=so.rtol, atol=so.atol).trajectory


def _run_scenario(config: RunConfig, spec, dom) -> ScenarioResult:
    so = config.scenario
    scenario, stride = _on_clock(spec, so.mode, "scenario", so.scenario, so.stride)
    return apply_scenario(spec, scenario, so.y0, so.r0, so.mode,
                          y_range=dom.y_range, r_range=dom.r_range,
                          y_steps=dom.y_steps, scan_n=dom.scan_n, stride=stride,
                          grid_n=dom.grid_n)


def _maybe_simulate(config: RunConfig, spec, dom) -> Trajectory | None:
    if config.scenario is not None:
        return _run_scenario(config, spec, dom).trajectory
    return None if config.simulate is None else _run_simulation(config, spec, dom)


def main(argv: list[str] | None = None) -> int:
    return run_command(argv)


if __name__ == "__main__":
    sys.exit(main())
