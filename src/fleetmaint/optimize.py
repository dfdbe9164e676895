"""Schedule evaluation engine: per-asset cost rows and joint search.

Because fleet cost is additive over assets and each asset's cost depends
only on its own date and latent RUL, every schedule's cost distribution is
a sum of per-asset rows: for each asset, one row of per-scenario costs per
candidate date (dates 1..T, then the "no maintenance" candidate last).
Joint search over all (T+1)^N schedules then reduces to row sums, which
makes exhaustive enumeration practical at small fleet sizes.

No (N, T+1, S) table of those costs is ever held. One function,
``_asset_tables``, evaluates the hazard and builds an asset's rows, period
by period in blocks of ``_TABLE_BLOCK`` scenarios.
:func:`build_matrix` runs it on one asset at a time, into one reused
buffer, and keeps what the policies read of the rows: each row's
scenario-weighted sum (``means``), each asset's expected accrued failure
probability per candidate date (``failure``, so a schedule's failure
proxy is a sum of N lookups), and the check that every cell is finite.
``matrix.costs`` is a :class:`CostTable`, whose one method, ``take``,
builds some of an asset's rows again, bit for bit the same, stopping
after the last period they read. Each pass over the fleet prices every
(asset, date) pair it reads once: a study makes four such passes (the
build, the descent's start and its result, and
:func:`cost_distributions` of the five schedules, from the candidate
indices that each was mapped to once), six when the walk runs too (its
incumbent, and the rows its survivors use), and each descent visit
prices some of one asset's rows; ``optimize --criterion cvar`` makes
the same passes for its one schedule. At N=40, T=12, S=10,000 with two
sampling workers, a study peaks at about 43 MB RSS (2 vCPUs, Python
3.11, numpy 2.4), against 83 MB when the 41.6 MB cost table was held,
and 123 MB when the (N, S, T) usage increments were too.

CVaR is a tail mean, so it is never below the expected cost, and the
expected cost of a schedule is the sum of its assets' row means. Each
CVaR search prices a schedule only if its summed normalized row mean is
at or under a threshold: the CVaR of the schedule to beat, plus a 1e-9
relative slack for rounding. A schedule over the threshold has a CVaR
over that CVaR, so it can neither beat the schedule nor tie the optimum.
Coordinate descent holds no rows: a visit to one asset prices, into a
reused (T+1, S) buffer, its current date and each date that keeps the
schedule's mean within the current objective's threshold, so its memory
does not grow with N. The enumeration grows schedules one asset at a
time over all T+1 dates and drops a prefix as soon as its cheapest
completion is over the threshold, so it never holds all (T+1)^N means;
from a coordinate-descent incumbent 400 of the default profile's
371,293 schedules survive (seed 1). It sums survivors across all
assets, so it alone holds rows: each asset's rows at the dates its
survivors use, priced once into one block, so its memory grows with
those, not with N*(T+1)*S.
The caller decides whether (T+1)^N is small enough to enumerate.
Candidate indices are ordered lexicographically by (asset order, date
order with "none" last); ties on the objective resolve to the earliest
schedule in that order. Every schedule priced here is its assets' cost
rows summed in asset order, and both searches price those totals with
:func:`fleetmaint.criteria.batch_cvar`, so the value each returns is its
schedule's :func:`~fleetmaint.criteria.cvar_alpha` bit for bit.

The matrix also holds the fleet and what it was priced on of the scenario
set, a plain :class:`~fleetmaint.scenario.PricingInputs` (the latent RUL
sample and the usage mean, never the (N, S, T) usage increments that a
:class:`~fleetmaint.scenario.ScenarioSet` adds to them), and checks
that they agree with its tables, so everything that prices a schedule
takes the matrix alone and reads N, T, S and the scenario weights from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .criteria import CostDistribution, batch_cvar, weighted_sum
from .fleet import FleetSpec, Schedule, validate_schedule
from .riskcost import RiskParams, failure_probability, performance_penalty
from .scenario import PricingInputs, ScenarioSet, _size_error

__all__ = [
    "EvaluationMatrix",
    "CostTable",
    "DEFAULT_EXHAUSTIVE_BUDGET",
    "build_matrix",
    "cost_distributions",
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

# Scenarios per block of an asset's cost rows. Its (block,) temporaries,
# one per period and step, then stay below 128 KiB, under which the C
# allocator reuses freed memory rather than mapping, and faulting in,
# fresh pages for each array.
_TABLE_BLOCK = 15_000

# Relative slack on the incumbent when pruning by expected cost. Rounding
# in the summed means and in the CVaR sums is many orders smaller, so no
# schedule that could tie the optimum is pruned.
_PRUNE_SLACK = 1e-9


def _asset_tables(
    asset,
    latent_rul: np.ndarray,
    horizon: int,
    params: RiskParams,
    rows: Sequence[np.ndarray | None],
    per_period: np.ndarray | None = None,
) -> None:
    """Write one asset's cost rows into ``rows`` and, if given, its (T, S)
    per-period failure probabilities into ``per_period``.

    ``rows[c]``, for each candidate c in 0..T, is the (S,) array that
    receives candidate c's row, or None to skip it. Every cell depends on
    its own scenario alone, so the rows are built in blocks of
    ``_TABLE_BLOCK`` scenarios, period by period: at period t the margin
    is m = rul - t and the hazard is cost_fail * p(m) plus the performance
    ramp, and a running sum accrues the hazards. Before period t adds its
    own, that sum is the accrual of periods 1..t-1, which row t-1
    (maintained at date t) adds to its charges
    cost_pm + cost_early * max(0, m) / rul_mean; row T, never maintained,
    is the whole sum. Periods after the last one a wanted row reads are
    skipped, unless ``per_period`` is given.
    """
    last = max((c + 1 for c, row in enumerate(rows) if row is not None), default=0)
    periods = horizon if per_period is not None else min(last, horizon)
    for lo in range(0, latent_rul.size, _TABLE_BLOCK):
        block = slice(lo, lo + _TABLE_BLOCK)
        rul = latent_rul[block]
        accrued = np.zeros(rul.size)
        for t in range(1, periods + 1):
            margins = rul - t
            hazard = failure_probability(margins, params)
            if per_period is not None:
                per_period[t - 1, block] = hazard
            hazard *= asset.cost_fail
            hazard += performance_penalty(margins, asset.cost_perf, params)
            if rows[t - 1] is not None:
                # in place, each step as in (cost_pm + cost_early * max(0, m) / rul_mean)
                # + accrued: IEEE products and sums do not depend on operand order
                charges = np.maximum(0.0, margins, out=rows[t - 1][block])
                charges *= asset.cost_early
                charges /= asset.rul_mean
                charges += asset.cost_pm
                charges += accrued
            accrued += hazard
        if rows[horizon] is not None:
            rows[horizon][block] = accrued


class CostTable:
    """A fleet's cost rows on a latent RUL sample, priced where they are
    read: nothing is stored, and :meth:`take` builds rows by the same
    arithmetic as :func:`build_matrix`, so every read has the same bits.
    """

    def __init__(self, fleet: FleetSpec, latent_rul: np.ndarray, params: RiskParams) -> None:
        self.fleet, self.latent_rul, self.params = fleet, latent_rul, params

    def take(self, i: int, dates: Sequence[int], out: np.ndarray) -> None:
        """Write asset i's rows at the candidate ``dates`` into ``out``,
        one row each, pricing no other row. The dates must be distinct,
        each in 0..T, in any order; of two equal dates only the later
        row is written."""
        targets: list[np.ndarray | None] = [None] * (self.fleet.horizon + 1)
        for row, c in zip(out, dates):
            targets[c] = row
        with np.errstate(over="ignore"):
            _asset_tables(
                self.fleet.assets[i], self.latent_rul[i], self.fleet.horizon, self.params, targets
            )


def _check_finite(fleet: FleetSpec, i: int, rows: np.ndarray, failure: np.ndarray) -> None:
    """Name asset i's first date with a cost or failure value that is not finite."""
    finite = np.isfinite(rows).all(axis=1) & np.isfinite(failure)
    if not finite.all():
        k = int(np.argmin(finite))
        date = "none" if k == fleet.horizon else k + 1
        raise ValueError(
            f"asset {fleet.ids[i]!r} at date {date}: a cost or failure value is not finite"
        )


@dataclass(frozen=True)
class EvaluationMatrix:
    """Per-asset, per-candidate-date cost rows of a fleet on its scenarios.

    ``costs`` is the row source: ``costs.take(i, dates, out)`` writes
    asset i's (S,) cost rows at the candidate ``dates`` into ``out``,
    where row c is its cost in each scenario when maintained at date c+1
    for c < T, or never maintained for c == T. :func:`build_matrix` gives
    a :class:`CostTable`, which prices the rows where they are read and
    holds none. ``means[i, c]`` is the scenario-weighted sum
    (:func:`~fleetmaint.criteria.weighted_sum`) of row c of asset i.
    ``failure[i, c]`` is the scenario-weighted sum of asset i's
    per-period failure probabilities over the same candidate's accrual
    window: periods 1..c, which for c == T is the whole horizon.
    ``fleet`` and ``scenarios`` are what the
    tables were priced on; their N and T must agree with each other and
    with the (N, T+1) tables, which are made read-only.
    """

    fleet: FleetSpec
    scenarios: PricingInputs
    costs: CostTable
    failure: np.ndarray
    means: np.ndarray

    def __post_init__(self) -> None:
        fleet, scenarios = self.fleet, self.scenarios
        if scenarios.n_assets != fleet.n_assets or scenarios.horizon != fleet.horizon:
            raise ValueError("scenario set shape does not match the fleet")
        expected = (fleet.n_assets, fleet.horizon + 1)
        for name in ("failure", "means"):
            table = np.asarray(getattr(self, name), dtype=float)
            if table.shape != expected:
                raise ValueError(f"{name} must have shape {expected}")
            table.setflags(write=False)
            object.__setattr__(self, name, table)


def build_matrix(
    fleet: FleetSpec,
    scenarios: PricingInputs,
    params: RiskParams = RiskParams(),
) -> EvaluationMatrix:
    """Price every asset's cost rows once against a frozen scenario set.

    Pricing reads only the latent RUL sample of ``scenarios``, a
    :class:`~fleetmaint.scenario.PricingInputs`; a full
    :class:`~fleetmaint.scenario.ScenarioSet` is kept as the
    :class:`~fleetmaint.scenario.PricingInputs` of its RULs and mean, so
    the matrix never holds the (N, S, T) usage increments. One pass over
    the assets prices each one's (T+1, S) rows into one reused buffer and
    keeps, from them, the failure row, the finiteness check and the row
    means, each a :func:`~fleetmaint.criteria.weighted_sum` that weights
    the buffers in place; the rows themselves are dropped, and the
    matrix's :class:`CostTable` prices them again where they are read. A
    scenario set whose shape does not match the fleet is rejected by the
    matrix itself, and a cell that overflows to infinity (the build lets
    it overflow without a warning) by its asset and date. Buffers that
    cannot be allocated raise a MemoryError naming N, S and T.
    """
    if isinstance(scenarios, ScenarioSet):
        scenarios = PricingInputs(scenarios.latent_rul, scenarios.usage_mean)
    n, horizon, s = fleet.n_assets, fleet.horizon, scenarios.n_scenarios
    try:
        rows, per_period = np.empty((horizon + 1, s)), np.empty((horizon, s))
    except (MemoryError, ValueError):  # numpy says ValueError past the address space
        nbytes = (2 * horizon + 1) * s * 8
        raise _size_error("per-asset cost rows", nbytes, n, s, horizon) from None
    means, failure = np.empty((n, horizon + 1)), np.empty((n, horizon + 1))
    weights = scenarios.weights
    with np.errstate(over="ignore"):
        for i, (asset, rul) in enumerate(zip(fleet.assets, scenarios.latent_rul)):
            _asset_tables(asset, rul, horizon, params, list(rows), per_period)
            # a weight of 1/S keeps each cell finite or not, so the check may follow
            weighted_sum(rows, weights, out=means[i], products=rows)
            failure[i, 0] = 0.0
            np.cumsum(weighted_sum(per_period, weights, products=per_period), out=failure[i, 1:])
            _check_finite(fleet, i, rows, failure[i])
    costs = CostTable(fleet, scenarios.latent_rul, params)
    return EvaluationMatrix(fleet, scenarios, costs, failure, means)


def indices_from_schedule(schedule: Schedule, fleet: FleetSpec) -> tuple[int, ...]:
    """Map a schedule to candidate indices (date-1, or T for unscheduled).

    An invalid schedule is a ValueError with one ``invalid schedule: …``
    line per violation that :func:`~fleetmaint.fleet.validate_schedule` finds."""
    violations = validate_schedule(schedule, fleet)
    if violations:
        raise ValueError("\n".join(f"invalid schedule: {v}" for v in violations))
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


def cost_distributions(
    matrix: EvaluationMatrix, indices: Sequence[Sequence[int]]
) -> list[CostDistribution]:
    """Fleet cost distributions of the schedules at candidate ``indices``, one
    integer in 0..T per asset (else ValueError), priced in one pass over the rows."""
    indices = [_checked_indices(chosen, matrix.means.shape, "schedule") for chosen in indices]
    totals = _schedule_totals(matrix, indices)
    return [CostDistribution(values=row, weights=matrix.scenarios.weights) for row in totals]


def schedule_cost_distribution(matrix: EvaluationMatrix, schedule: Schedule) -> CostDistribution:
    """Fleet cost distribution of one schedule via its assets' row sums: the
    Python API's shorthand for :func:`indices_from_schedule`, then
    :func:`cost_distributions`, which the CLI calls itself."""
    return cost_distributions(matrix, [indices_from_schedule(schedule, matrix.fleet)])[0]


def _schedule_totals(matrix: EvaluationMatrix, indices: Sequence[Sequence[int]]) -> np.ndarray:
    """(M, S) per-scenario fleet costs of the M schedules in the (M, N)
    ``indices``, each its assets' cost rows summed in asset order. Each
    asset's rows are priced once, at the dates the schedules use, one
    asset at a time; M may be 0."""
    indices = np.asarray(indices).reshape(len(indices), matrix.fleet.n_assets)
    s = matrix.scenarios.n_scenarios
    totals = np.zeros((len(indices), s))
    for i in range(matrix.fleet.n_assets):
        dates, at = np.unique(indices[:, i], return_inverse=True)
        used = np.empty((dates.size, s))
        matrix.costs.take(i, dates, used)
        totals += used[at]
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


def _threshold(value: float) -> float:
    """``value`` plus the prune slack. A schedule whose normalized row
    means, summed in any order, exceed it has a mean, and so a CVaR, over
    ``value`` by more than any rounding."""
    return value + _PRUNE_SLACK * max(1.0, abs(value))


def _block_rows(matrix: EvaluationMatrix, dates: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Each asset i's rows at ``dates[i]``, each asset's a view of one
    block, priced once. A block that cannot be allocated raises a
    MemoryError naming N, S and T."""
    n, horizon, s = matrix.fleet.n_assets, matrix.fleet.horizon, matrix.scenarios.n_scenarios
    size = sum(used.size for used in dates)
    try:
        block = np.empty((size, s))
    except (MemoryError, ValueError):  # numpy says ValueError past the address space
        nbytes = size * s * 8
        raise _size_error("cost rows of the CVaR enumeration", nbytes, n, s, horizon) from None
    rows, start = [], 0
    for i, used in enumerate(dates):
        rows.append(block[start:start + used.size])
        start += used.size
        matrix.costs.take(i, used, rows[i])
    return rows


def exhaustive_cvar_argmin(
    matrix: EvaluationMatrix, alpha: float, incumbent: Sequence[int]
) -> tuple[tuple[int, ...], float]:
    """Global CVaR minimizer over every schedule: bound, then price survivors.

    The bound is the CVaR of the ``incumbent`` schedule. A schedule whose
    expected cost exceeds it (plus 1e-9 relative slack) has CVaR >= mean >
    bound >= optimum, so it can be neither the minimizer nor a tie, and is
    skipped. Schedules grow one asset at a time: each surviving prefix's
    normalized mean is extended by all T+1 dates of the next asset, in the
    same order of additions as a full (T+1)^N sum would use, and a prefix
    is dropped once its cheapest completion, its mean plus each later
    asset's least row mean added one at a time in asset order, is over the
    bound. Float addition is monotone, so that sum is never above the
    computed mean of any of the prefix's completions: exactly the
    schedules with mean at most the bound survive, in enumeration order.
    They are priced in blocks of about 128 KiB per array, with totals
    summed in asset order, and only a strictly lower CVaR replaces the
    best so far. The result is the exact optimum, earliest in enumeration
    order among ties, whichever incumbent set the bound; a better one only
    prices fewer schedules and holds fewer rows. Raises ValueError unless
    ``incumbent`` holds one integer index in 0..T per asset.

    A block of survivors mixes every asset's dates, so this is the one
    search that holds rows: once the walk is done, each asset's rows at
    the dates its survivors use, priced once into one block
    (:func:`_block_rows`). At the default profile (N=5, T=12, S=800,
    seed 1), from the descent's schedule, 400 of the 371,293 schedules
    survive and the block holds 23 rows, 0.15 MB; the largest level held
    1,222 prefixes at commit d334120. Prefixes that cannot be allocated,
    as under a budget far past what memory holds, raise a MemoryError
    naming N, S, T and ``policies.exhaustive_budget``.
    """
    n, k1, s = matrix.fleet.n_assets, matrix.fleet.horizon + 1, matrix.scenarios.n_scenarios
    incumbent = _checked_indices(incumbent, (n, k1), "incumbent")
    weights = matrix.scenarios.weights
    bound = float(batch_cvar(_schedule_totals(matrix, [incumbent]), weights, alpha)[0])
    threshold = _threshold(bound)
    # CVaR is a weight-normalized tail mean, so bound it by the normalized mean.
    means = matrix.means / weights.sum()
    lows = means.min(axis=1)
    # One date column per asset, so no flat index into (T+1)^N can overflow.
    partial = np.zeros(1)
    chosen = np.zeros((1, 0), dtype=np.intp)
    for i in range(n):
        width = partial.size * k1
        try:
            partial = np.add.outer(partial, means[i]).ravel()
            reach = partial
            for low in lows[i + 1:]:  # one at a time: lows[i + 1:].sum() rounds otherwise
                reach = reach + low
            keep = np.flatnonzero(reach <= threshold)
            prefix, dates = np.divmod(keep, k1)
            partial = partial[keep]
            chosen = np.column_stack([chosen[prefix], dates])
        except (MemoryError, ValueError):  # numpy says ValueError past the address space
            # the level's candidates at most: a mean and i + 1 dates each
            nbytes = width * (i + 2) * 8
            error = _size_error("schedule prefixes of the CVaR enumeration", nbytes, n, s, k1 - 1)
            raise MemoryError(
                f"{error}; lower policies.exhaustive_budget to search by coordinate descent alone"
            ) from None
    # each asset's dates in use; each survivor's become positions among them
    used = []
    for i in range(n):
        dates, chosen[:, i] = np.unique(chosen[:, i], return_inverse=True)
        used.append(dates)
    rows = _block_rows(matrix, used)
    block = max(1, _BLOCK_ELEMENTS // s)
    best_val, best_row = np.inf, -1
    for start in range(0, len(chosen), block):
        survivors = chosen[start:start + block]
        totals = np.zeros((len(survivors), s))
        for held, at in zip(rows, survivors.T):
            totals += held[at]
        cvars = batch_cvar(totals, weights, alpha)
        m = int(np.argmin(cvars))
        if cvars[m] < best_val:
            best_val, best_row = float(cvars[m]), start + m
    return tuple(int(d[p]) for d, p in zip(used, chosen[best_row])), best_val


def coordinate_descent_cvar(
    matrix: EvaluationMatrix, alpha: float, start: Sequence[int]
) -> tuple[tuple[int, ...], float]:
    """Asset-at-a-time CVaR descent from a warm start.

    Visits the assets in fleet order, round and round, re-optimizing one
    date against the rest of the incumbent schedule, and accepts only
    strict improvements (ties keep the incumbent). Each accepted move
    lowers the objective on a finite lattice, so termination is
    guaranteed; the result is never worse than the warm start. The moves
    are judged on running totals, but the returned value is the final
    schedule's CVaR, priced on its rows summed in asset order. Raises
    ValueError unless ``start`` holds one integer index in 0..T per asset.

    A visit to asset i prices, in date order, its current date and every
    date c at which the other assets' normalized row means at their
    current dates, summed in asset order, plus asset i's at c, are at
    most the objective plus the prune slack. A date left out gives a
    schedule whose CVaR, at least its mean, is over the objective, so it
    is never a strict improvement. A date whose CVaR is under the
    objective has its mean under it too, so when a scan of all T+1 dates
    has an improving first minimizer, that date and every earlier one
    that ties it are priced, and the first minimizer among the priced
    dates is the scan's; when no date improves, no priced date does. The
    moves are those of a full scan.

    No rows are held. A visit prices its dates' rows into one reused
    (T+1, S) buffer and judges all of them in one
    :func:`~fleetmaint.criteria.batch_cvar` call, which sums each row on
    its own: the bits are those of pricing each candidate alone. At N=40,
    T=12, S=10,000 and fleet seed 1, its visits priced 786 rows in all at
    scenario seed 1 and 425 at seed 2 (commit d334120), against 40 x 13
    per sweep.

    The descent stops after N consecutive visits without a strict
    improvement, and returns what sweeping until a whole sweep is quiet
    returns: the same moves, ties and ``(indices, value)``. A visit to
    asset i reads only the running totals, the objective and the assets'
    dates (asset i's, and the others' for the bound), and changes none of
    them unless it improves. After N quiet visits in a row, each asset
    has been visited once since the last change, against the totals,
    objective and dates that still hold, and did not improve. Any later
    visit to asset j repeats j's visit among those N on the same inputs,
    bit for bit, so it does not improve either, and no move is ever made
    again. Sweeping makes the same visits in the same order up to this
    point, since it stops only after a whole quiet sweep, which is N
    quiet visits in a row; past it, sweeping makes only such repeats
    before it stops. A move's own asset is among the N visits because
    its next visit need not repeat the move's: ``totals`` less the row
    of the date moved to need not be the bits of the ``without`` the
    move was judged on. At N=40, T=12, S=10,000, seed 2, it stopped after
    68 visits where sweeping makes 80 (commit d334120).
    """
    n, k1, s = matrix.fleet.n_assets, matrix.fleet.horizon + 1, matrix.scenarios.n_scenarios
    weights = matrix.scenarios.weights
    current = _checked_indices(start, (n, k1), "start")
    totals = _schedule_totals(matrix, [current])[0]
    current_val = float(batch_cvar(totals, weights, alpha)[0])
    # CVaR is a weight-normalized tail mean, so bound it by the normalized mean.
    means = matrix.means / weights.sum()
    buffer = np.empty((k1, s))  # the size of the matrix build's row buffer
    i = quiet = 0
    while quiet < n:
        others = sum(means[j, c] for j, c in enumerate(current) if j != i)
        inside = others + means[i] <= _threshold(current_val)
        inside[current[i]] = True
        dates = np.flatnonzero(inside)
        rows = buffer[:dates.size]
        matrix.costs.take(i, dates, rows)
        without = totals - rows[np.searchsorted(dates, current[i])]
        cvars = batch_cvar(without + rows, weights, alpha)
        best = int(np.argmin(cvars))
        if cvars[best] < current_val:
            current[i], current_val, quiet = int(dates[best]), float(cvars[best]), 0
            totals = without + rows[best]
        else:
            quiet += 1
        i = (i + 1) % n
    final = _schedule_totals(matrix, [current])
    return tuple(current), float(batch_cvar(final, weights, alpha)[0])
