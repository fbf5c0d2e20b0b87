"""Slow-fast IS-LM simulator.

A macrodynamic model where the money market adjusts much faster than the
goods market and liquidity-trap windows bend the LM curve into S-shapes.
The package traces the resulting multivalued LM isocline, classifies
equilibria, integrates both the full two-speed system and its singular
limit, detects relaxation-oscillation cycles and their characteristic rate
jumps, and simulates fiscal/monetary interventions including a stabilizing
central-bank controller.
"""

__version__ = "0.1.0"

from .model import (
    ConstructionError,
    ISBlock,
    ModelDomainError,
    ModelParams,
    ModelSpec,
    MoneyBlock,
    TrapWindow,
    ValidationReport,
    build_three_phase_money,
    excess_goods,
    excess_money,
    short_rate,
    start_condition,
    validate_properties,
)
from .geometry import (
    Branch,
    Equilibrium,
    FoldPoint,
    ISCurve,
    LMIsocline,
    find_equilibria,
    is_curve,
    lm_roots,
    shift_lm,
    trace_lm_isocline,
)
from .dynamics import (
    CycleSummary,
    FoldStallError,
    IntegrationError,
    JumpEvent,
    Trajectory,
    attach_to_branch,
    cycle_points,
    detect_cycle,
    detect_jumps,
    hausdorff_distance,
    integrate,
    reduced_simulate,
)
from .policy import (
    ControllerReport,
    FiscalDrive,
    FiscalShift,
    MonetaryStep,
    Scenario,
    ScenarioError,
    ScenarioResult,
    StabilizationPlan,
    apply_scenario,
    is_shift_equivalence_check,
    negative_rate_probe,
    plan_stabilization,
    preflight,
    run_with_controller,
)
from .config import ConfigError, RunConfig, parse_config, serialize_config
from .output import emit_outputs

__all__ = [
    "__version__",
    # model core
    "ConstructionError", "ModelDomainError", "ModelParams", "ISBlock",
    "TrapWindow", "MoneyBlock", "ModelSpec", "ValidationReport",
    "short_rate", "excess_goods", "excess_money", "build_three_phase_money",
    "validate_properties", "start_condition",
    # curve geometry
    "ISCurve", "Branch", "FoldPoint", "LMIsocline", "Equilibrium",
    "is_curve", "lm_roots", "trace_lm_isocline", "find_equilibria", "shift_lm",
    # slow-fast dynamics
    "Trajectory", "JumpEvent", "CycleSummary", "IntegrationError",
    "FoldStallError", "integrate", "reduced_simulate", "detect_jumps",
    "detect_cycle", "attach_to_branch", "cycle_points", "hausdorff_distance",
    # policy engine
    "Scenario", "FiscalDrive", "FiscalShift", "MonetaryStep", "ScenarioError",
    "ScenarioResult", "StabilizationPlan", "ControllerReport",
    "preflight", "apply_scenario", "is_shift_equivalence_check", "plan_stabilization",
    "run_with_controller", "negative_rate_probe",
    # configuration and IO
    "ConfigError", "RunConfig", "parse_config", "serialize_config",
    "emit_outputs",
]
