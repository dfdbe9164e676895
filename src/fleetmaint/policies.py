"""Maintenance scheduling policies: three threshold baselines and two
optimization-based integrated policies.

The baselines mimic common practice by triggering on a single indicator
(calendar age, mean usage, or remaining-life quantile) and never consult
the cost model, so they take the fleet and, where they need it, the
scenario set's :class:`~fleetmaint.scenario.PricingInputs` (a
:class:`~fleetmaint.scenario.ScenarioSet` is one), of which the usage
rule reads only the usage mean and the RUL rule only the latent RUL
sample. The integrated policies minimize the full scenario-based
cost, by expected value or by CVaR, and take only the
:class:`~fleetmaint.optimize.EvaluationMatrix`, which holds the fleet and
the pricing inputs it was priced on. All five return a complete schedule for
the fleet and are deterministic given their inputs. :func:`run_policy`
runs any of them by kind with the settings of one :class:`PolicyParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .criteria import CUM_TOL, weighted_sum
from .fleet import FleetSpec, Schedule
from .optimize import (
    DEFAULT_EXHAUSTIVE_BUDGET,
    EvaluationMatrix,
    coordinate_descent_cvar,
    exhaustive_cvar_argmin,
    schedule_from_indices,
)
from .scenario import PricingInputs

__all__ = [
    "PolicyKind",
    "PolicyParams",
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


@dataclass(frozen=True)
class PolicyParams:
    """Settings every policy run shares: the RUL rule's trigger level, the
    CVaR level alpha, and the largest (T+1)^N the CVaR policy enumerates."""

    trigger_prob: float = DEFAULT_TRIGGER_PROB
    alpha: float = DEFAULT_ALPHA
    exhaustive_budget: int = DEFAULT_EXHAUSTIVE_BUDGET

    def __post_init__(self) -> None:
        if not 0.0 < self.trigger_prob < 1.0:
            raise ValueError("trigger_prob must lie strictly between 0 and 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.exhaustive_budget < 1:
            raise ValueError("exhaustive_budget must be >= 1")


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


def usage_only(fleet: FleetSpec, scenarios: PricingInputs) -> Schedule:
    """Maintain when the scenario-mean cumulative usage crosses the limit.

    The trigger uses the ensemble mean of the usage path
    (``scenarios.usage_mean``), so a single forecast drives the decision,
    as a usage-counter rule would in practice. Assets whose mean path
    never crosses stay unscheduled.
    """
    dates: dict[str, int | None] = {}
    for i, asset in enumerate(fleet.assets):
        path = asset.initial_usage + np.cumsum(scenarios.usage_mean[i])
        crossed = np.nonzero(path >= asset.usage_limit - _CROSS_TOL)[0]
        dates[asset.id] = None if crossed.size == 0 else int(crossed[0]) + 1
    return Schedule(dates=dates)


def rul_threshold(
    fleet: FleetSpec,
    scenarios: PricingInputs,
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
        probs = weighted_sum(t_grid[:, None] >= scenarios.latent_rul[i], scenarios.weights)
        hit = np.nonzero(probs >= trigger_prob - CUM_TOL)[0]
        dates[asset.id] = None if hit.size == 0 else int(hit[0]) + 1
    return Schedule(dates=dates)


def _expected_indices(matrix: EvaluationMatrix) -> tuple[int, ...]:
    # first minimum per asset: earliest date wins ties
    return tuple(int(np.argmin(row)) for row in matrix.means)


def integrated_expected(matrix: EvaluationMatrix) -> Schedule:
    """Exact minimizer of expected fleet cost on the matrix's scenario set.

    Additivity over assets and a latent RUL drawn once per scenario make
    the expected cost separable, so a per-asset argmin over the T+1
    candidates is the global optimum; no joint search is needed. Ties
    resolve to the earliest date, with "none" ranked after date T.
    """
    return schedule_from_indices(matrix.fleet, _expected_indices(matrix))


def integrated_cvar(
    matrix: EvaluationMatrix,
    alpha: float = DEFAULT_ALPHA,
    *,
    budget: int = DEFAULT_EXHAUSTIVE_BUDGET,
) -> Schedule:
    """Minimize the CVaR of fleet cost over joint schedules on the matrix's
    scenario set.

    CVaR does not decompose over assets, so this is a genuine joint
    problem. Coordinate descent always runs first: it starts from the
    expected-cost schedule and accepts only strict improvements, which
    keeps its result at least as good (in CVaR) as that warm start, with
    ties kept at the incumbent. When the (T+1)^N schedules fit the
    budget, the pruned enumeration then starts from the descent's
    schedule: since CVaR is never below the expected cost, it prices only
    schedules whose expected cost does not exceed that schedule's CVaR
    (plus 1e-9 relative slack), and returns the exact optimum over the
    full lattice, earliest in enumeration order among ties. Beyond the
    budget the descent's schedule is the answer.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    fleet = matrix.fleet
    indices, _ = coordinate_descent_cvar(matrix, alpha, _expected_indices(matrix))
    if (fleet.horizon + 1) ** fleet.n_assets <= budget:
        indices, _ = exhaustive_cvar_argmin(matrix, alpha, indices)
    return schedule_from_indices(fleet, indices)


def run_policy(
    kind: PolicyKind, matrix: EvaluationMatrix, params: PolicyParams = PolicyParams()
) -> Schedule:
    """Dispatch a policy by kind; every policy sees the matrix's fleet and
    scenario set, and takes from ``params`` the settings it uses."""
    kind = PolicyKind(kind)
    fleet, scenarios = matrix.fleet, matrix.scenarios
    if kind is PolicyKind.CALENDAR_ONLY:
        return calendar_only(fleet)
    if kind is PolicyKind.USAGE_ONLY:
        return usage_only(fleet, scenarios)
    if kind is PolicyKind.RUL_THRESHOLD:
        return rul_threshold(fleet, scenarios, params.trigger_prob)
    if kind is PolicyKind.INTEGRATED_EXPECTED:
        return integrated_expected(matrix)
    return integrated_cvar(matrix, params.alpha, budget=params.exhaustive_budget)
