"""Schedule evaluation engine: precomputed cost tables and joint search.

Because fleet cost is additive over assets and each asset's cost depends
only on its own date and latent RUL, every schedule's cost distribution is
a sum of precomputed rows. The evaluation matrix stores, for each asset,
one row of per-scenario costs per candidate date (dates 1..T, then the
"no maintenance" candidate last). Joint search over all (T+1)^N schedules
then reduces to row sums, which makes exhaustive enumeration practical at
small fleet sizes.

Exhaustive search is exact but prices only schedules that can still win.
CVaR is a tail mean, so it is never below the expected cost, and the
expected cost of a schedule is the sum of its assets' row means. The
caller's incumbent schedule therefore rules out every schedule whose mean
exceeds its CVaR (up to a 1e-9 relative slack for rounding). The search
grows schedules one asset at a time and drops a prefix as soon as its
cheapest completion is over that bound, so it never holds all (T+1)^N
means; from a coordinate-descent incumbent about 400 of the default
profile's 371,293 schedules survive. The caller decides whether (T+1)^N
is small enough to enumerate.
Candidate indices are ordered lexicographically by (asset order, date
order with "none" last); ties on the objective resolve to the earliest
schedule in that order. One helper sums a schedule's cost rows, in
asset order, for every schedule priced here, one or a block at a time,
and both searches price those totals with
:func:`fleetmaint.criteria.batch_cvar`, so the value each returns is its
schedule's :func:`~fleetmaint.criteria.cvar_alpha` bit for bit.

The matrix build is the one place that evaluates the hazard. Next to the
cost rows it keeps each asset's expected accrued failure probability per
candidate date, so a schedule's failure proxy is a sum of N lookups.
The matrix also holds the fleet and what it was priced on of the scenario
set, a plain :class:`~fleetmaint.scenario.PricingInputs` (the latent RUL
sample and the usage mean, never the (N, S, T) usage increments that a
:class:`~fleetmaint.scenario.ScenarioSet` adds to them), and checks
that they agree with its tables, so everything that prices a schedule
takes the matrix alone and reads the scenario weights from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .criteria import CostDistribution, batch_cvar
from .fleet import FleetSpec, Schedule, validate_schedule
from .riskcost import RiskParams, failure_probability, performance_penalty
from .scenario import PricingInputs, ScenarioSet, _size_error

__all__ = [
    "EvaluationMatrix",
    "DEFAULT_EXHAUSTIVE_BUDGET",
    "build_matrix",
    "schedule_cost_distribution",
    "schedule_from_indices",
    "indices_from_schedule",
    "exhaustive_cvar_argmin",
    "coordinate_descent_cvar",
]

DEFAULT_EXHAUSTIVE_BUDGET = 1_000_000

# Cost cells per block of surviving schedules priced at once: a block has
# max(1, _BLOCK_ELEMENTS // S) rows, so each (rows, S) float array that
# pricing it allocates stays near 128 KiB whatever S and the survivor
# count, under which the C allocator reuses freed memory (as for
# _TABLE_BLOCK). batch_cvar prices each row on its own, so the result
# does not depend on the block size.
_BLOCK_ELEMENTS = 1 << 14

# Scenarios per block of the matrix build. Its (block, T) temporaries then
# stay below 128 KiB, under which the C allocator reuses freed memory
# rather than mapping, and faulting in, fresh pages for each array.
_TABLE_BLOCK = 1024

# Relative slack on the incumbent when pruning by expected cost. Rounding
# in the summed means and in the CVaR sums is many orders smaller, so no
# schedule that could tie the optimum is pruned.
_PRUNE_SLACK = 1e-9


@dataclass(frozen=True)
class EvaluationMatrix:
    """Per-asset, per-candidate-date, per-scenario cost table.

    ``costs[i, c, w]`` is asset i's cost in scenario w when maintained at
    date c+1 for c < T, or never maintained for c == T. ``failure[i, c]``
    is the scenario-weighted sum of asset i's per-period failure
    probabilities over the same candidate's accrual window: periods
    1..c, which for c == T is the whole horizon. ``fleet`` and
    ``scenarios`` are what the tables were priced on; their shapes must
    agree with the tables', and every cell must be finite. A
    :class:`~fleetmaint.scenario.ScenarioSet` given as ``scenarios`` is
    kept as its :class:`~fleetmaint.scenario.PricingInputs`, so the
    matrix never holds the (N, S, T) usage increments.
    """

    fleet: FleetSpec
    scenarios: PricingInputs
    costs: np.ndarray
    failure: np.ndarray

    def __post_init__(self) -> None:
        fleet, scenarios = self.fleet, self.scenarios
        if isinstance(scenarios, ScenarioSet):
            scenarios = PricingInputs(scenarios.latent_rul, scenarios.usage_mean)
            object.__setattr__(self, "scenarios", scenarios)
        if scenarios.n_assets != fleet.n_assets or scenarios.horizon != fleet.horizon:
            raise ValueError("scenario set shape does not match the fleet")
        c = np.asarray(self.costs, dtype=float)
        f = np.asarray(self.failure, dtype=float)
        expected = (fleet.n_assets, fleet.horizon + 1)
        if c.shape != (*expected, scenarios.n_scenarios):
            raise ValueError(
                f"costs must have shape ({expected[0]}, {expected[1]}, {scenarios.n_scenarios})"
            )
        if f.shape != expected:
            raise ValueError(f"failure must have shape {expected}")
        # one asset at a time, so no boolean temporary of the full table
        for i, asset_id in enumerate(fleet.ids):
            finite = np.isfinite(c[i]).all(axis=1) & np.isfinite(f[i])
            if not finite.all():
                k = int(np.argmin(finite))
                date = "none" if k == fleet.horizon else k + 1
                raise ValueError(
                    f"asset {asset_id!r} at date {date}: a cost or failure value is not finite"
                )
        c.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "costs", c)
        object.__setattr__(self, "failure", f)


def _asset_tables(
    asset,
    latent_rul: np.ndarray,
    weights: np.ndarray,
    horizon: int,
    params: RiskParams,
    table: np.ndarray,
    failure: np.ndarray,
) -> None:
    """Write one asset's (T+1, S) cost rows into ``table`` and its (T+1,)
    failure row into ``failure``.

    Every cost cell depends on its own scenario alone, so the rows are
    built in blocks of ``_TABLE_BLOCK`` scenarios, whose temporaries the
    allocator serves again from its heap instead of mapping fresh pages
    for each. The failure row, like the cost rows, accrues period by
    period: a running sum of each period's scenario-weighted probability.
    """
    t_grid = np.arange(1, horizon + 1)
    n_scenarios = latent_rul.size
    per_period = np.empty((horizon, n_scenarios))
    for lo in range(0, n_scenarios, _TABLE_BLOCK):
        hi = min(lo + _TABLE_BLOCK, n_scenarios)
        margins = latent_rul[lo:hi, None] - t_grid[None, :]
        probs = failure_probability(margins, params)
        per_period[:, lo:hi] = probs.T
        hazard = asset.cost_fail * probs
        hazard += performance_penalty(margins, asset.cost_perf, params)
        # accrued[:, k] charges hazard for periods 1..k; column 0 is the empty sum.
        accrued = np.concatenate([np.zeros((hi - lo, 1)), np.cumsum(hazard, axis=1)], axis=1)
        early = asset.cost_early * np.maximum(0.0, margins) / asset.rul_mean
        table[:horizon, lo:hi] = (asset.cost_pm + early + accrued[:, :horizon]).T
        table[horizon, lo:hi] = accrued[:, horizon]
    # weighted over all S scenarios at once, so the row does not depend on the blocks
    failure[0] = 0.0
    np.cumsum(per_period @ weights, out=failure[1:])


def build_matrix(
    fleet: FleetSpec,
    scenarios: PricingInputs,
    params: RiskParams = RiskParams(),
) -> EvaluationMatrix:
    """Precompute every asset's cost and failure rows against a frozen scenario set.

    Pricing reads only the latent RUL sample of ``scenarios``, a
    :class:`~fleetmaint.scenario.PricingInputs`, of which a full
    :class:`~fleetmaint.scenario.ScenarioSet` is one. The matrix is allocated
    once and each asset's rows are written into it in place, so it is
    never held twice. A scenario set whose shape does not
    match the fleet is rejected by the matrix itself, as is a cell that
    overflows to infinity: the build lets it overflow without a warning.
    A table that cannot be allocated raises a MemoryError naming N, S
    and T.
    """
    shape = (fleet.n_assets, fleet.horizon + 1)
    try:
        costs = np.empty((*shape, scenarios.n_scenarios))
    except (MemoryError, ValueError):  # numpy says ValueError past the address space
        nbytes = math.prod(shape) * scenarios.n_scenarios * 8
        raise _size_error(
            "cost table", nbytes, fleet.n_assets, scenarios.n_scenarios, fleet.horizon
        ) from None
    failure = np.empty(shape)
    weights = scenarios.weights
    with np.errstate(over="ignore"):
        for i, (asset, rul) in enumerate(zip(fleet.assets, scenarios.latent_rul)):
            _asset_tables(asset, rul, weights, fleet.horizon, params, costs[i], failure[i])
    return EvaluationMatrix(fleet=fleet, scenarios=scenarios, costs=costs, failure=failure)


def indices_from_schedule(schedule: Schedule, fleet: FleetSpec) -> tuple[int, ...]:
    """Map a schedule to candidate indices (date-1, or T for unscheduled)."""
    violations = validate_schedule(schedule, fleet)
    if violations:
        raise ValueError("invalid schedule: " + "; ".join(violations))
    out = []
    for asset in fleet.assets:
        date = schedule.date_for(asset.id)
        out.append(fleet.horizon if date is None else date - 1)
    return tuple(out)


def schedule_from_indices(fleet: FleetSpec, indices: Sequence[int]) -> Schedule:
    dates: dict[str, int | None] = {}
    for asset, c in zip(fleet.assets, indices):
        dates[asset.id] = None if c == fleet.horizon else int(c) + 1
    return Schedule(dates=dates)


def schedule_cost_distribution(matrix: EvaluationMatrix, schedule: Schedule) -> CostDistribution:
    """Fleet cost distribution of one schedule via precomputed row sums."""
    indices = indices_from_schedule(schedule, matrix.fleet)
    totals = _schedule_totals(matrix.costs, [indices])[0]
    return CostDistribution(values=totals, weights=matrix.scenarios.weights)


def _schedule_totals(costs: np.ndarray, indices: Sequence[Sequence[int]]) -> np.ndarray:
    """(M, S) per-scenario fleet costs of the M schedules in the (M, N)
    candidate ``indices``, each row its assets' cost rows summed in asset order."""
    indices = np.asarray(indices)
    totals = np.zeros((len(indices), costs.shape[2]))
    for i in range(costs.shape[0]):
        totals += costs[i][indices[:, i]]
    return totals


def _checked_indices(indices: Sequence[int], shape: tuple[int, int], name: str) -> list[int]:
    """``indices`` as ints, if it holds one integer in 0..T per asset."""
    n, k1 = shape
    out = list(indices)
    if len(out) != n:
        raise ValueError(f"{name} must hold one index per asset ({n}), got {len(out)}")
    for i, c in enumerate(out):
        if isinstance(c, bool) or not isinstance(c, (int, np.integer)) or not 0 <= c < k1:
            raise ValueError(f"{name} index {c} of asset {i} is not an integer in 0..{k1 - 1}")
    return [int(c) for c in out]


def exhaustive_cvar_argmin(
    matrix: EvaluationMatrix, alpha: float, incumbent: Sequence[int]
) -> tuple[tuple[int, ...], float]:
    """Global CVaR minimizer over every schedule: bound, then price survivors.

    The bound is the CVaR of the ``incumbent`` schedule. A schedule whose
    expected cost exceeds it (plus 1e-9 relative slack) has CVaR >= mean >
    bound >= optimum, so it can be neither the minimizer nor a tie, and is
    skipped. Schedules grow one asset at a time: each surviving prefix's
    mean is extended by every date of the next asset, in the same order
    of additions as a full (T+1)^N sum would use, and a prefix is dropped
    once its cheapest completion, its mean plus each later asset's least
    row mean added one at a time in asset order, is over the bound. Float
    addition is monotone, so that sum is never above the computed mean of
    any of the prefix's completions: exactly the schedules with mean at
    most the bound survive, in enumeration order. They are priced in
    blocks of about 128 KiB per array, with totals summed in asset order,
    and only a strictly lower CVaR replaces the best so far. The result
    is the exact optimum, earliest in enumeration order among ties,
    whichever incumbent set the bound; a better one only prices fewer.
    Raises ValueError unless ``incumbent`` holds one integer index in
    0..T per asset.
    """
    costs = matrix.costs
    n, k1, s = costs.shape
    incumbent = _checked_indices(incumbent, (n, k1), "incumbent")
    weights = matrix.scenarios.weights
    # CVaR is a weight-normalized tail mean, so bound it by the normalized mean.
    means = costs @ weights / weights.sum()
    lows = means.min(axis=1)
    bound = float(batch_cvar(_schedule_totals(costs, [incumbent]), weights, alpha)[0])
    threshold = bound + _PRUNE_SLACK * max(1.0, abs(bound))
    # One index column per asset, so no flat index into (T+1)^N can overflow.
    partial = np.zeros(1)
    chosen = np.zeros((1, 0), dtype=np.intp)
    for i in range(n):
        partial = np.add.outer(partial, means[i]).ravel()
        reach = partial
        for low in lows[i + 1:]:  # one at a time: lows[i + 1:].sum() rounds otherwise
            reach = reach + low
        keep = np.flatnonzero(reach <= threshold)
        prefix, dates = np.divmod(keep, k1)
        partial = partial[keep]
        chosen = np.column_stack([chosen[prefix], dates])
    block = max(1, _BLOCK_ELEMENTS // s)
    best_val, best_row = np.inf, -1
    for start in range(0, len(chosen), block):
        cvars = batch_cvar(_schedule_totals(costs, chosen[start:start + block]), weights, alpha)
        m = int(np.argmin(cvars))
        if cvars[m] < best_val:
            best_val, best_row = float(cvars[m]), start + m
    return tuple(int(c) for c in chosen[best_row]), best_val


def coordinate_descent_cvar(
    matrix: EvaluationMatrix, alpha: float, start: Sequence[int]
) -> tuple[tuple[int, ...], float]:
    """Asset-at-a-time CVaR descent from a warm start.

    Sweeps assets in fleet order, re-optimizing one date against the rest
    of the incumbent schedule, and accepts only strict improvements (ties
    keep the incumbent). Each accepted move lowers the objective on a
    finite lattice, so termination is guaranteed; the result is never
    worse than the warm start. The moves are judged on running totals,
    but the returned value is the final schedule's CVaR, priced on its
    rows summed in asset order. Raises ValueError unless ``start`` holds
    one integer index in 0..T per asset.
    """
    costs = matrix.costs
    n, k1, _ = costs.shape
    weights = matrix.scenarios.weights
    current = _checked_indices(start, (n, k1), "start")
    totals = _schedule_totals(costs, [current])[0]
    current_val = float(batch_cvar(totals, weights, alpha)[0])

    # one buffer for every move's candidate rows, not a fresh (T+1, S) array each
    candidates = np.empty((k1, costs.shape[2]))
    improved = True
    while improved:
        improved = False
        for i in range(n):
            without = totals - costs[i, current[i]]
            np.add(without, costs[i], out=candidates)
            cvars = batch_cvar(candidates, weights, alpha)
            c_best = int(np.argmin(cvars))
            if float(cvars[c_best]) < current_val:
                current[i] = c_best
                totals = without + costs[i, c_best]
                current_val = float(cvars[c_best])
                improved = True
    return tuple(current), float(batch_cvar(_schedule_totals(costs, [current]), weights, alpha)[0])
