"""Maintenance scheduling policies: three threshold baselines and two
optimization-based integrated policies.

The baselines mimic common practice by triggering on a single indicator
(calendar age, mean usage, or remaining-life quantile) and never consult
the cost model. The integrated policies minimize the full scenario-based
cost, by expected value or by CVaR. All five return a complete schedule
for the fleet and are deterministic given their inputs.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .criteria import CUM_TOL
from .fleet import FleetSpec, Schedule
from .optimize import (
    DEFAULT_EXHAUSTIVE_BUDGET,
    BudgetExceededError,
    EvaluationMatrix,
    build_matrix,
    coordinate_descent_cvar,
    exhaustive_cvar_argmin,
    schedule_from_indices,
)
from .riskcost import RiskParams
from .scenario import ScenarioSet

__all__ = [
    "PolicyKind",
    "DEFAULT_TRIGGER_PROB",
    "DEFAULT_ALPHA",
    "calendar_only",
    "usage_only",
    "rul_threshold",
    "integrated_expected",
    "integrated_cvar",
    "run_policy",
]

DEFAULT_TRIGGER_PROB = 0.60
DEFAULT_ALPHA = 0.90

# Slack for threshold crossings computed from weighted scenario averages;
# absorbs float accumulation without moving any genuine crossing.
_CROSS_TOL = 1e-9


class PolicyKind(str, Enum):
    CALENDAR_ONLY = "calendar_only"
    USAGE_ONLY = "usage_only"
    RUL_THRESHOLD = "rul_threshold"
    INTEGRATED_EXPECTED = "integrated_expected"
    INTEGRATED_CVAR = "integrated_cvar"


def calendar_only(fleet: FleetSpec) -> Schedule:
    """Maintain each asset in the first period its age reaches the calendar limit.

    Assets already at or past the limit go first thing (period 1); assets
    whose limit lies beyond the horizon are left unscheduled.
    """
    dates: dict[str, int | None] = {}
    for asset in fleet.assets:
        gap = asset.calendar_limit - asset.initial_age
        tau = max(1, math.ceil(gap - _CROSS_TOL))
        dates[asset.id] = None if tau > fleet.horizon else tau
    return Schedule(dates=dates)


def usage_only(fleet: FleetSpec, scenarios: ScenarioSet) -> Schedule:
    """Maintain when the scenario-mean cumulative usage crosses the limit.

    The trigger uses the weighted ensemble mean of the usage path, so a
    single forecast drives the decision, as a usage-counter rule would in
    practice. Assets whose mean path never crosses stay unscheduled.
    """
    dates: dict[str, int | None] = {}
    for i, asset in enumerate(fleet.assets):
        mean_inc = scenarios.weights @ scenarios.usage_increments[i]
        path = asset.initial_usage + np.cumsum(mean_inc)
        crossed = np.nonzero(path >= asset.usage_limit - _CROSS_TOL)[0]
        dates[asset.id] = None if crossed.size == 0 else int(crossed[0]) + 1
    return Schedule(dates=dates)


def rul_threshold(
    fleet: FleetSpec,
    scenarios: ScenarioSet,
    trigger_prob: float = DEFAULT_TRIGGER_PROB,
) -> Schedule:
    """Maintain once the scenario probability of life running out by t
    reaches the trigger level.

    P(R <= t) is estimated from the weighted latent-RUL sample per asset.
    The rule reacts to remaining-life uncertainty but still ignores costs.
    """
    if not 0.0 < trigger_prob < 1.0:
        raise ValueError("trigger_prob must lie strictly between 0 and 1")
    t_grid = np.arange(1, fleet.horizon + 1)
    dates: dict[str, int | None] = {}
    for i, asset in enumerate(fleet.assets):
        probs = scenarios.weights @ (scenarios.latent_rul[i][:, None] <= t_grid[None, :])
        hit = np.nonzero(probs >= trigger_prob - CUM_TOL)[0]
        dates[asset.id] = None if hit.size == 0 else int(hit[0]) + 1
    return Schedule(dates=dates)


def _expected_indices(matrix: EvaluationMatrix, weights: np.ndarray) -> tuple[int, ...]:
    out = []
    for i in range(matrix.fleet.n_assets):
        expected = matrix.costs[i] @ weights
        out.append(int(np.argmin(expected)))  # first minimum: earliest date wins ties
    return tuple(out)


def integrated_expected(
    fleet: FleetSpec,
    scenarios: ScenarioSet,
    params: RiskParams = RiskParams(),
    *,
    matrix: EvaluationMatrix | None = None,
) -> Schedule:
    """Exact minimizer of expected fleet cost.

    Additivity over assets and a latent RUL drawn once per scenario make
    the expected cost separable, so a per-asset argmin over the T+1
    candidates is the global optimum; no joint search is needed. Ties
    resolve to the earliest date, with "none" ranked after date T.
    """
    m = matrix if matrix is not None else build_matrix(fleet, scenarios, params)
    return schedule_from_indices(fleet, _expected_indices(m, scenarios.weights))


def integrated_cvar(
    fleet: FleetSpec,
    scenarios: ScenarioSet,
    params: RiskParams = RiskParams(),
    alpha: float = DEFAULT_ALPHA,
    *,
    matrix: EvaluationMatrix | None = None,
    budget: int = DEFAULT_EXHAUSTIVE_BUDGET,
) -> Schedule:
    """Minimize the CVaR of fleet cost over joint schedules.

    CVaR does not decompose over assets, so this is a genuine joint
    problem. Within the evaluation budget the result is the exact optimum
    over the full lattice: since CVaR is never below the expected cost,
    the search prices only schedules whose expected cost does not exceed
    a coordinate-descent incumbent (plus 1e-9 relative slack), and every
    skipped schedule provably cannot win or tie. Beyond the budget,
    coordinate descent starts from the expected-cost schedule and accepts
    strict improvements, which keeps the result at least as good (in
    CVaR) as that warm start. Ties resolve toward the lexicographically
    earliest schedule, or the incumbent during descent.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    m = matrix if matrix is not None else build_matrix(fleet, scenarios, params)
    try:
        indices, _ = exhaustive_cvar_argmin(m, scenarios.weights, alpha, budget=budget)
    except BudgetExceededError:
        warm = _expected_indices(m, scenarios.weights)
        indices, _ = coordinate_descent_cvar(m, scenarios.weights, alpha, warm)
    return schedule_from_indices(fleet, indices)


def run_policy(
    kind: PolicyKind,
    fleet: FleetSpec,
    scenarios: ScenarioSet,
    params: RiskParams = RiskParams(),
    *,
    trigger_prob: float = DEFAULT_TRIGGER_PROB,
    alpha: float = DEFAULT_ALPHA,
    matrix: EvaluationMatrix | None = None,
    budget: int = DEFAULT_EXHAUSTIVE_BUDGET,
) -> Schedule:
    """Dispatch a policy by kind with shared defaults."""
    kind = PolicyKind(kind)
    if kind is PolicyKind.CALENDAR_ONLY:
        return calendar_only(fleet)
    if kind is PolicyKind.USAGE_ONLY:
        return usage_only(fleet, scenarios)
    if kind is PolicyKind.RUL_THRESHOLD:
        return rul_threshold(fleet, scenarios, trigger_prob)
    if kind is PolicyKind.INTEGRATED_EXPECTED:
        return integrated_expected(fleet, scenarios, params, matrix=matrix)
    return integrated_cvar(fleet, scenarios, params, alpha, matrix=matrix, budget=budget)
