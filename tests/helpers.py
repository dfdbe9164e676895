"""Shared factories for hand-built fleets and scenario sets, and the
reference implementations that tests compare the library against.

The scalar cost model (``asset_scenario_cost``, ``total_cost`` and
``failure_proxy``) prices one asset, date and scenario at a time, period
by period. The library prices every cell at once in
:func:`fleetmaint.optimize.build_matrix`; these functions are the oracle
for it. ``var_alpha_merged`` and ``cvar_alpha_merged`` compute the risk
measures by merging tied values first, an independent route to the same
numbers as :func:`fleetmaint.criteria.batch_cvar`. ``reference_walk``
and ``reference_descent`` are the two CVaR searches over every date of a
whole (N, T+1, S) table: the walk pricing every survivor's rows from that
table, the descent pricing all T+1 dates at every visit and sweeping
until a whole sweep makes no move. ``walk_survivors`` gives the walk's
surviving schedules, and ``bound_dates`` recomputes, from its definition,
the dates a descent visit prices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from fleetmaint.criteria import CUM_TOL, CostDistribution, _check_alpha, batch_cvar
from fleetmaint.fleet import AssetSpec, FleetSpec, Schedule, validate_schedule
from fleetmaint.optimize import _PRUNE_SLACK, DEFAULT_EXHAUSTIVE_BUDGET, schedule_from_indices
from fleetmaint.riskcost import RiskParams, failure_probability, performance_penalty
from fleetmaint.scenario import ScenarioSet


def make_asset(**overrides) -> AssetSpec:
    params = dict(
        id="A1",
        calendar_limit=10.0,
        usage_limit=200.0,
        rul_mean=8.0,
        rul_std=1.5,
        usage_mean_per_period=15.0,
        usage_cv=0.25,
        initial_age=3.0,
        initial_usage=60.0,
    )
    params.update(overrides)
    return AssetSpec(**params)


def make_fleet(n_assets: int = 1, horizon: int = 12, **asset_overrides) -> FleetSpec:
    assets = tuple(
        make_asset(id=f"A{j + 1}", **asset_overrides) for j in range(n_assets)
    )
    return FleetSpec(assets=assets, horizon=horizon)


def const_scenarios(
    fleet: FleetSpec,
    ruls,
    n_scenarios: int | None = None,
    increment: float = 1.0,
) -> ScenarioSet:
    """Scenario set with fixed latent RULs and constant usage increments.

    ``ruls`` is either one value per asset (broadcast over scenarios) or a
    full (N, S) array.
    """
    ruls = np.asarray(ruls, dtype=float)
    if ruls.ndim == 1:
        s = n_scenarios or 1
        ruls = np.repeat(ruls[:, None], s, axis=1)
    n, s = ruls.shape
    assert n == fleet.n_assets
    return ScenarioSet(
        usage_increments=np.full((n, s, fleet.horizon), increment),
        latent_rul=ruls,
    )


def random_scenarios(fleet: FleetSpec, n_scenarios: int, seed: int) -> ScenarioSet:
    """Loosely structured random scenario set for property-style checks."""
    rng = np.random.default_rng(seed)
    n, t = fleet.n_assets, fleet.horizon
    inc = rng.uniform(5.0, 25.0, size=(n, n_scenarios, t))
    rul = rng.uniform(0.0, t + 3.0, size=(n, n_scenarios))
    return ScenarioSet(usage_increments=inc, latent_rul=rul)


@dataclass(frozen=True)
class CostBreakdown:
    """Cost components for one asset in one scenario."""

    pm: float
    fail: float
    perf: float
    early: float

    def __post_init__(self) -> None:
        for name in ("pm", "fail", "perf", "early"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} component must be >= 0")

    @property
    def total(self) -> float:
        return self.pm + self.fail + self.perf + self.early


def effective_rul(latent_rul: float, period: int):
    """Remaining life margin at a period; negative once nominal life is spent."""
    if period < 1:
        raise ValueError("period must be >= 1")
    return latent_rul - period


def early_penalty(latent_rul, maintenance_time: int, rul_mean: float, cost_early: float):
    """Opportunity cost of maintaining while useful life remains.

    Proportional to the remaining life given up at the action date, in
    units of the asset's mean life so assets of different longevity are
    penalized comparably. Zero when the action happens at or past the
    latent RUL.
    """
    if maintenance_time < 1:
        raise ValueError("maintenance_time must be >= 1")
    if rul_mean <= 0:
        raise ValueError("rul_mean must be > 0")
    if cost_early < 0:
        raise ValueError("cost_early must be >= 0")
    r = np.asarray(latent_rul, dtype=float)
    out = cost_early * np.maximum(0.0, r - maintenance_time) / rul_mean
    if np.ndim(latent_rul) == 0:
        return float(out)
    return out


def _hazard(asset: AssetSpec, margin: float, params: RiskParams) -> tuple[float, float]:
    fail = asset.cost_fail * failure_probability(margin, params)
    perf = performance_penalty(margin, asset.cost_perf, params)
    return fail, perf


def asset_scenario_cost(
    asset: AssetSpec,
    date: int | None,
    latent_rul: float,
    horizon: int,
    params: RiskParams = RiskParams(),
) -> CostBreakdown:
    """Cost breakdown for one asset, candidate date, and latent RUL.

    A dated action charges the maintenance fee plus hazard over periods
    1..date-1 plus the early penalty at the date. No action charges hazard
    over the whole horizon and nothing else.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if date is not None:
        if isinstance(date, bool) or int(date) != date:
            raise ValueError(f"date must be an integer period, got {date!r}")
        if not 1 <= date <= horizon:
            raise ValueError(f"date {date} out of horizon 1..{horizon}")
    last_accrual = horizon if date is None else date - 1
    fail = 0.0
    perf = 0.0
    for t in range(1, last_accrual + 1):
        f, p = _hazard(asset, effective_rul(latent_rul, t), params)
        fail += f
        perf += p
    if date is None:
        return CostBreakdown(pm=0.0, fail=fail, perf=perf, early=0.0)
    early = early_penalty(latent_rul, date, asset.rul_mean, asset.cost_early)
    return CostBreakdown(pm=asset.cost_pm, fail=fail, perf=perf, early=early)


def total_cost(
    schedule: Schedule,
    fleet: FleetSpec,
    scenarios: ScenarioSet,
    scenario: int,
    params: RiskParams = RiskParams(),
) -> float:
    """Fleet cost of a schedule under one scenario: the assets' totals
    summed in fleet order."""
    violations = validate_schedule(schedule, fleet)
    if violations:
        raise ValueError("invalid schedule: " + "; ".join(violations))
    if not 0 <= scenario < scenarios.n_scenarios:
        raise ValueError(f"scenario {scenario} out of range")
    return sum(
        asset_scenario_cost(
            asset,
            schedule.date_for(asset.id),
            float(scenarios.latent_rul[i, scenario]),
            fleet.horizon,
            params,
        ).total
        for i, asset in enumerate(fleet.assets)
    )


def failure_proxy(
    schedule: Schedule,
    fleet: FleetSpec,
    scenarios: ScenarioSet,
    params: RiskParams = RiskParams(),
) -> float:
    """Scenario-weighted accumulated failure probability of a schedule.

    Sums the per-period failure probabilities over each asset's accrual
    window (up to the action date, or the whole horizon when unscheduled)
    and averages over scenarios. A unitless exposure measure for reporting;
    it is not a cost term.
    """
    violations = validate_schedule(schedule, fleet)
    if violations:
        raise ValueError("invalid schedule: " + "; ".join(violations))
    t_grid = np.arange(1, fleet.horizon + 1)
    acc = 0.0
    for i, asset in enumerate(fleet.assets):
        date = schedule.date_for(asset.id)
        last_accrual = fleet.horizon if date is None else date - 1
        if last_accrual < 1:
            continue
        margins = scenarios.latent_rul[i][:, None] - t_grid[None, :last_accrual]
        probs = failure_probability(margins, params)
        acc += float(scenarios.weights @ probs.sum(axis=1))
    return acc


def enumerate_schedules(fleet: FleetSpec, budget: int = DEFAULT_EXHAUSTIVE_BUDGET) -> Iterator[Schedule]:
    """All (T+1)^N schedules in lexicographic candidate order.

    Dates run 1..T then "none" for each asset, with the first asset as the
    most significant position. Raises ValueError up front, rather than
    truncating, when the count would exceed the budget.
    """
    count = (fleet.horizon + 1) ** fleet.n_assets
    if count > budget:
        raise ValueError(
            f"{count} schedules exceed the enumeration budget of {budget}"
        )

    def _iter() -> Iterator[Schedule]:
        for combo in itertools.product(range(fleet.horizon + 1), repeat=fleet.n_assets):
            yield schedule_from_indices(fleet, combo)

    return _iter()


def asset_cost_table(asset, latent_rul: np.ndarray, horizon: int, params: RiskParams) -> np.ndarray:
    """(T+1, S) cost rows for one asset, vectorized over scenarios.

    The library's cost arithmetic without its failure table. The rows of
    build_matrix must equal these bit for bit, because the study outputs
    are pinned on them.
    """
    t_grid = np.arange(1, horizon + 1)
    margins = latent_rul[:, None] - t_grid[None, :]
    hazard = asset.cost_fail * failure_probability(margins, params)
    hazard += performance_penalty(margins, asset.cost_perf, params)
    # accrued[:, k] charges hazard for periods 1..k; column 0 is the empty sum.
    accrued = np.concatenate(
        [np.zeros((latent_rul.size, 1)), np.cumsum(hazard, axis=1)], axis=1
    )
    early = asset.cost_early * np.maximum(0.0, latent_rul[:, None] - t_grid[None, :]) / asset.rul_mean
    table = np.empty((horizon + 1, latent_rul.size))
    table[:horizon] = (asset.cost_pm + early + accrued[:, :horizon]).T
    table[horizon] = accrued[:, horizon]
    return table


def var_alpha_merged(dist: CostDistribution, alpha: float) -> float:
    """Lower alpha-quantile: smallest value whose cumulative weight reaches alpha.

    Equal values are merged before the quantile walk so duplicated support
    points behave exactly like a single point with the combined weight.
    """
    _check_alpha(alpha)
    uniq, inverse = np.unique(dist.values, return_inverse=True)
    merged = np.bincount(inverse, weights=dist.weights)
    cum = np.cumsum(merged)
    idx = int(np.searchsorted(cum, alpha - CUM_TOL, side="left"))
    idx = min(idx, uniq.size - 1)
    return float(uniq[idx])


def cvar_alpha_merged(dist: CostDistribution, alpha: float) -> float:
    """Mean cost over the upper tail {z : z >= VaR_alpha}, weight-normalized."""
    v = var_alpha_merged(dist, alpha)
    tail = dist.values >= v
    tail_weight = float(dist.weights[tail].sum())
    return float(dist.weights[tail] @ dist.values[tail]) / tail_weight


def _table_totals(costs: np.ndarray, indices) -> np.ndarray:
    indices = np.asarray(indices)
    totals = np.zeros((len(indices), costs.shape[2]))
    for i in range(costs.shape[0]):
        totals += costs[i][indices[:, i]]
    return totals


def _mean_bound(matrix, bound: float) -> tuple[np.ndarray, float]:
    """The weight-normalized row means and a bound plus the searches' slack."""
    weights = matrix.scenarios.weights
    means = np.asarray(matrix.costs) @ weights / weights.sum()
    return means, bound + _PRUNE_SLACK * max(1.0, abs(bound))


def walk_survivors(matrix, alpha: float, incumbent) -> np.ndarray:
    """The (M, N) dates of the schedules the pruned enumeration keeps, in
    enumeration order: each level extends the surviving prefixes by all
    T+1 dates of the next asset."""
    costs = np.asarray(matrix.costs)
    k1 = costs.shape[1]
    weights = matrix.scenarios.weights
    bound = float(batch_cvar(_table_totals(costs, [list(incumbent)]), weights, alpha)[0])
    means, threshold = _mean_bound(matrix, bound)
    lows = means.min(axis=1)
    partial = np.zeros(1)
    chosen = np.zeros((1, 0), dtype=np.intp)
    for i in range(len(means)):
        partial = np.add.outer(partial, means[i]).ravel()
        reach = partial
        for low in lows[i + 1:]:
            reach = reach + low
        keep = np.flatnonzero(reach <= threshold)
        prefix, dates = np.divmod(keep, k1)
        partial = partial[keep]
        chosen = np.column_stack([chosen[prefix], dates])
    return chosen


def reference_walk(matrix, alpha: float, incumbent) -> tuple[tuple[int, ...], float]:
    """The pruned enumeration, pricing its survivors on the whole table."""
    chosen = walk_survivors(matrix, alpha, incumbent)
    totals = _table_totals(np.asarray(matrix.costs), chosen)
    cvars = batch_cvar(totals, matrix.scenarios.weights, alpha)
    best = int(np.argmin(cvars))
    return tuple(int(c) for c in chosen[best]), float(cvars[best])


def reference_descent(
    matrix, alpha: float, start, trace: list | None = None
) -> tuple[tuple[int, ...], float]:
    """Coordinate descent that prices all T+1 dates of an asset at every
    move, and sweeps until a whole sweep makes none. ``trace``, if given,
    receives each visit's (asset, date moved to), the date None where the
    visit makes no move."""
    costs = np.asarray(matrix.costs)
    weights = matrix.scenarios.weights
    current = [int(c) for c in start]
    totals = _table_totals(costs, [current])[0]
    current_val = float(batch_cvar(totals, weights, alpha)[0])
    improved = True
    while improved:
        improved = False
        for i in range(costs.shape[0]):
            without = totals - costs[i, current[i]]
            cvars = batch_cvar(without + costs[i], weights, alpha)
            c_best = int(np.argmin(cvars))
            moves = float(cvars[c_best]) < current_val
            if trace is not None:
                trace.append((i, c_best if moves else None))
            if moves:
                current[i] = c_best
                totals = without + costs[i, c_best]
                current_val = float(cvars[c_best])
                improved = True
    return tuple(current), float(batch_cvar(_table_totals(costs, [current]), weights, alpha)[0])


def bound_dates(matrix, objective: float, current, i: int) -> list[int]:
    """The dates a descent visit to asset i prices at ``objective``: its
    current date and each date c whose normalized row mean, added to the
    other assets' at their ``current`` dates summed in asset order from
    0, is at most the objective plus the searches' relative slack."""
    means, threshold = _mean_bound(matrix, objective)
    others = 0.0
    for j, c in enumerate(current):
        if j != i:
            others += float(means[j, c])
    return [c for c, mean in enumerate(means[i]) if c == current[i] or others + mean <= threshold]
