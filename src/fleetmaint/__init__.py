"""Scenario-based maintenance scheduling for multi-asset fleets.

The package models a small fleet over a finite horizon, samples usage and
remaining-life uncertainty into a frozen scenario set, prices candidate
maintenance dates with a four-part risk cost, and compares threshold
baselines against schedules optimized by expected cost or CVaR.
"""

__version__ = "0.1.0"

from .criteria import CostDistribution, cvar_alpha, expected_cost, var_alpha
from .fleet import (
    AssetSpec,
    FleetGenConfig,
    FleetSpec,
    Schedule,
    generate_fleet,
    validate_schedule,
)
from .optimize import (
    EvaluationMatrix,
    build_matrix,
    schedule_cost_distribution,
)
from .policies import (
    PolicyKind,
    calendar_only,
    integrated_cvar,
    integrated_expected,
    rul_threshold,
    usage_only,
)
from .report import EcdfCurve, PolicySummary, ecdf, emit_outputs, summarize_policy
from .riskcost import RiskParams, failure_probability, performance_penalty
from .scenario import (
    PricingInputs,
    ScenarioSet,
    cell_stream,
    generate_scenarios,
    sample_gamma,
    sample_pricing_inputs,
    sample_truncated_normal,
)

__all__ = [
    "__version__",
    "AssetSpec",
    "FleetGenConfig",
    "FleetSpec",
    "Schedule",
    "generate_fleet",
    "validate_schedule",
    "ScenarioSet",
    "PricingInputs",
    "cell_stream",
    "generate_scenarios",
    "sample_pricing_inputs",
    "sample_gamma",
    "sample_truncated_normal",
    "RiskParams",
    "failure_probability",
    "performance_penalty",
    "CostDistribution",
    "expected_cost",
    "var_alpha",
    "cvar_alpha",
    "PolicyKind",
    "calendar_only",
    "usage_only",
    "rul_threshold",
    "integrated_expected",
    "integrated_cvar",
    "EvaluationMatrix",
    "build_matrix",
    "schedule_cost_distribution",
    "EcdfCurve",
    "PolicySummary",
    "ecdf",
    "emit_outputs",
    "summarize_policy",
]
