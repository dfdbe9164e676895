"""Schedule evaluation engine: per-asset cost rows and joint search.

Because fleet cost is additive over assets and each asset's cost depends
only on its own date and latent RUL, every schedule's cost distribution is
a sum of per-asset rows: for each asset, one row of per-scenario costs per
candidate date (dates 1..T, then the "no maintenance" candidate last).
Joint search over all (T+1)^N schedules then reduces to row sums, which
makes exhaustive enumeration practical at small fleet sizes.

No (N, T+1, S) table of those costs is ever held. One function,
``_asset_tables``, evaluates the hazard and builds an asset's rows.
:func:`build_matrix` runs it on one asset at a time, into one reused
buffer, and keeps what the policies read of the rows: each row's
scenario-weighted sum (``means``), each asset's expected accrued failure
probability per candidate date (``failure``, so a schedule's failure
proxy is a sum of N lookups), and the check that every cell is finite.
``matrix.costs`` is a :class:`CostTable`: reading ``costs[i]`` builds
asset i's rows again, bit for bit the same. Each pass over the fleet (the
build, each search's incumbent, the walk's room, the pricing of a study's
schedules) prices every (asset, date) pair it reads once; the descent
prices one asset's room at each visit.

CVaR is a tail mean, so it is never below the expected cost, and the
expected cost of a schedule is the sum of its assets' row means. Each
CVaR search first prices its incumbent schedule; its CVaR, plus a 1e-9
relative slack for rounding, is the threshold. An asset's room is every
date whose normalized row mean, with each other asset's least row mean
added in asset order, stays at or under the threshold: a schedule
through any other date has a mean, and so a CVaR, over the threshold, so
it can neither beat the incumbent nor tie the optimum. Both searches
keep each asset's room dates. Coordinate descent holds no room rows: at
each visit it prices that one asset's room into a reused (T+1, S)
buffer, so its memory does not grow with N. The enumeration sums
survivors across all assets, so it alone holds its room's rows, and its
memory grows with the room, not with N*(T+1)*S. It grows schedules one
asset at a time over room dates and drops a prefix as soon as its
cheapest completion is over the threshold, so it never holds all (T+1)^N
means; from a coordinate-descent incumbent about 400 of the default
profile's 371,293 schedules survive.
The caller decides whether (T+1)^N is small enough to enumerate.
Candidate indices are ordered lexicographically by (asset order, date
order with "none" last); ties on the objective resolve to the earliest
schedule in that order. One helper sums a schedule's cost rows, in
asset order, for every schedule priced here, one or a block at a time,
and both searches price those totals with
:func:`fleetmaint.criteria.batch_cvar`, so the value each returns is its
schedule's :func:`~fleetmaint.criteria.cvar_alpha` bit for bit.

The matrix also holds the fleet and what it was priced on of the scenario
set, a plain :class:`~fleetmaint.scenario.PricingInputs` (the latent RUL
sample and the usage mean, never the (N, S, T) usage increments that a
:class:`~fleetmaint.scenario.ScenarioSet` adds to them), and checks
that they agree with its tables, so everything that prices a schedule
takes the matrix alone and reads the scenario weights from it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .criteria import CostDistribution, batch_cvar
from .fleet import FleetSpec, Schedule, validate_schedule
from .riskcost import RiskParams, failure_probability, performance_penalty
from .scenario import PricingInputs, ScenarioSet, _size_error

__all__ = [
    "EvaluationMatrix",
    "CostTable",
    "DEFAULT_EXHAUSTIVE_BUDGET",
    "build_matrix",
    "schedule_cost_distribution",
    "schedule_cost_distributions",
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
    """The (N, T+1, S) cost table of a fleet on a latent RUL sample,
    priced one asset at a time where it is read.

    ``table[i]`` is a fresh (T+1, S) array of asset i's cost rows, built
    by the same arithmetic as :func:`build_matrix`, so every read has the
    same bits; ``table[i, c]`` and ``table[i, c, w]`` index into it. The
    first index must be one integer; nothing is stored, so no cell can be
    assigned. ``shape`` and ``nbytes`` are the table's logical ones, as
    numpy reports them for a broadcast view, and ``np.asarray(table)``
    builds the whole table, which only tests should need.
    """

    dtype = np.dtype(np.float64)

    def __init__(self, fleet: FleetSpec, latent_rul: np.ndarray, params: RiskParams) -> None:
        self.fleet, self.latent_rul, self.params = fleet, latent_rul, params
        self.shape = (fleet.n_assets, fleet.horizon + 1, latent_rul.shape[1])

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * self.dtype.itemsize

    def __getitem__(self, key):
        i, rest = (key[0], key[1:]) if isinstance(key, tuple) else (key, ())
        rows = np.empty(self.shape[1:])
        self.take(operator.index(i), range(self.shape[1]), rows)
        return rows[rest] if rest else rows

    def take(self, i: int, dates: Sequence[int], out: np.ndarray) -> None:
        """Write asset i's rows at the candidate ``dates`` into ``out``,
        one row each, pricing no other row."""
        targets: list[np.ndarray | None] = [None] * self.shape[1]
        for row, c in zip(out, dates):
            targets[c] = row
        with np.errstate(over="ignore"):
            _asset_tables(
                self.fleet.assets[i], self.latent_rul[i], self.fleet.horizon, self.params, targets
            )

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        table = np.stack([self[i] for i in range(self.shape[0])])
        return table.astype(dtype or self.dtype, copy=False)


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

    ``costs[i]`` is asset i's (T+1, S) cost rows: ``costs[i, c, w]`` is
    its cost in scenario w when maintained at date c+1 for c < T, or
    never maintained for c == T. :func:`build_matrix` gives a
    :class:`CostTable`, which prices the rows where they are read and
    holds none; a hand-built matrix may give the whole (N, T+1, S) array.
    ``means[i, c]`` is ``costs[i][c] @ weights``, the row's scenario-weighted
    sum. ``failure[i, c]`` is the scenario-weighted sum of asset i's
    per-period failure probabilities over the same candidate's accrual
    window: periods 1..c, which for c == T is the whole horizon.
    ``fleet`` and ``scenarios`` are what the tables were priced on; their
    shapes must agree with the tables', and every cell must be finite.
    Given an array, the matrix checks its cells and computes ``means``
    itself, one asset at a time; a :class:`CostTable` comes with the
    means and the check of the one pass that built it. A
    :class:`~fleetmaint.scenario.ScenarioSet` given as ``scenarios`` is
    kept as its :class:`~fleetmaint.scenario.PricingInputs`, so the
    matrix never holds the (N, S, T) usage increments.
    """

    fleet: FleetSpec
    scenarios: PricingInputs
    costs: np.ndarray | CostTable
    failure: np.ndarray
    means: np.ndarray | None = None

    def __post_init__(self) -> None:
        fleet, scenarios = self.fleet, self.scenarios
        if isinstance(scenarios, ScenarioSet):
            scenarios = PricingInputs(scenarios.latent_rul, scenarios.usage_mean)
            object.__setattr__(self, "scenarios", scenarios)
        if scenarios.n_assets != fleet.n_assets or scenarios.horizon != fleet.horizon:
            raise ValueError("scenario set shape does not match the fleet")
        c = self.costs if isinstance(self.costs, CostTable) else np.asarray(self.costs, float)
        f = np.asarray(self.failure, dtype=float)
        expected = (fleet.n_assets, fleet.horizon + 1)
        if c.shape != (*expected, scenarios.n_scenarios):
            raise ValueError(
                f"costs must have shape ({expected[0]}, {expected[1]}, {scenarios.n_scenarios})"
            )
        if f.shape != expected:
            raise ValueError(f"failure must have shape {expected}")
        if isinstance(c, CostTable):
            means = np.asarray(self.means, dtype=float)
            if means.shape != expected:
                raise ValueError(f"means must have shape {expected}")
        else:
            c.setflags(write=False)
            means = np.empty(expected)
            for i in range(fleet.n_assets):
                _check_finite(fleet, i, c[i], f[i])
                means[i] = c[i] @ scenarios.weights
        f.setflags(write=False)
        means.setflags(write=False)
        object.__setattr__(self, "costs", c)
        object.__setattr__(self, "failure", f)
        object.__setattr__(self, "means", means)


def build_matrix(
    fleet: FleetSpec,
    scenarios: PricingInputs,
    params: RiskParams = RiskParams(),
) -> EvaluationMatrix:
    """Price every asset's cost rows once against a frozen scenario set.

    Pricing reads only the latent RUL sample of ``scenarios``, a
    :class:`~fleetmaint.scenario.PricingInputs`, of which a full
    :class:`~fleetmaint.scenario.ScenarioSet` is one. One pass over the
    assets prices each one's (T+1, S) rows into one reused buffer and
    keeps, from them, the failure row, the finiteness check and the row
    means ``rows @ weights``; the rows themselves are dropped, and the
    matrix's :class:`CostTable` prices them again where they are read. A
    scenario set whose shape does not match the fleet is rejected by the
    matrix itself, and a cell that overflows to infinity (the build lets
    it overflow without a warning) by its asset and date. Buffers that
    cannot be allocated raise a MemoryError naming N, S and T.
    """
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
            means[i] = rows @ weights
            failure[i, 0] = 0.0
            np.cumsum(per_period @ weights, out=failure[i, 1:])
            _check_finite(fleet, i, rows, failure[i])
    costs = CostTable(fleet, scenarios.latent_rul, params)
    return EvaluationMatrix(fleet, scenarios, costs, failure, means)


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


def schedule_cost_distributions(
    matrix: EvaluationMatrix, schedules: Sequence[Schedule]
) -> list[CostDistribution]:
    """Fleet cost distributions of several schedules, priced together in
    one pass over the assets' cost rows."""
    indices = [indices_from_schedule(schedule, matrix.fleet) for schedule in schedules]
    totals = _schedule_totals(matrix.costs, indices, matrix.scenarios.n_scenarios)
    return [CostDistribution(values=row, weights=matrix.scenarios.weights) for row in totals]


def schedule_cost_distribution(matrix: EvaluationMatrix, schedule: Schedule) -> CostDistribution:
    """Fleet cost distribution of one schedule via its assets' row sums."""
    return schedule_cost_distributions(matrix, [schedule])[0]


def _take(costs: Sequence[np.ndarray] | CostTable, i: int, dates, out: np.ndarray) -> None:
    """Write asset i's rows at ``dates`` into ``out``: priced by a
    :class:`CostTable`, copied from a whole table or a room's rows."""
    if isinstance(costs, CostTable):
        costs.take(i, dates, out)
    else:
        np.take(costs[i], dates, axis=0, out=out)


def _schedule_totals(
    rows: Sequence[np.ndarray], indices: Sequence[Sequence[int]], n_scenarios: int
) -> np.ndarray:
    """(M, S) per-scenario fleet costs of the M schedules in the (M, N)
    ``indices``, each its assets' cost rows summed in asset order.

    ``rows[i]`` is asset i's (k, S) rows and ``indices[:, i]`` index into
    them: a matrix's ``costs`` or the walk's room rows. A
    :class:`CostTable` prices only the dates the schedules use.
    """
    indices = np.asarray(indices)
    totals = np.zeros((len(indices), n_scenarios))
    for i in range(indices.shape[1]):
        if isinstance(rows, CostTable):
            dates, at = np.unique(indices[:, i], return_inverse=True)
            used = np.empty((dates.size, n_scenarios))
            rows.take(i, dates, used)
            totals += used[at]
        else:
            totals += rows[i][indices[:, i]]
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


@dataclass(frozen=True)
class _Room:
    """What a CVaR search keeps of the matrix, given its incumbent's CVaR.

    ``means`` are the weight-normalized row means, ``lows`` each asset's
    least one and ``threshold`` the incumbent's CVaR plus the prune
    slack. ``dates[i]`` is asset i's room, ascending. No row is priced:
    the walk prices every room row once, into one block
    (:func:`_room_rows`), and the descent one asset's at each visit.
    """

    means: np.ndarray
    lows: np.ndarray
    threshold: float
    dates: list[np.ndarray]


def _room(matrix: EvaluationMatrix, bound: float, incumbent: Sequence[int]) -> _Room:
    """The room of a search whose incumbent schedule has CVaR ``bound``.

    Asset i's room is every date c at which ``reach[i, c]``, the sum
    0 + lows[0] + ... + lows[i-1] + means[i, c] + lows[i+1] + ... +
    lows[N-1], added one term at a time in that order, is at most the
    threshold, and the incumbent's own date. Float addition is monotone,
    so any schedule through date c at asset i has a summed mean, and
    every prefix of it through asset i a cheapest completion as the
    enumeration sums it, at least ``reach[i, c]``. Outside the room, that
    is over the threshold, and the true CVaR, at least the true mean,
    exceeds the bound by more than any rounding: such a schedule can
    neither beat the incumbent nor tie the optimum. The incumbent itself
    lies inside by the same slack, as its mean is at most its CVaR; it is
    added anyway, so a search always prices its own schedule's rows.
    Only the (N, T+1) means are read; no cost row is priced.
    """
    n = matrix.fleet.n_assets
    # CVaR is a weight-normalized tail mean, so bound it by the normalized mean.
    means = matrix.means / matrix.scenarios.weights.sum()
    lows = means.min(axis=1)
    threshold = bound + _PRUNE_SLACK * max(1.0, abs(bound))
    # add.accumulate is sequential: row i starts from 0 + lows[0] + ... + lows[i-1]
    reach = np.cumsum(np.concatenate(([0.0], lows[:-1])))[:, None] + means
    for j in range(1, n):
        reach[:j] += lows[j]
    inside = reach <= threshold
    inside[np.arange(n), incumbent] = True
    return _Room(means, lows, threshold, [np.flatnonzero(row) for row in inside])


def _room_rows(matrix: EvaluationMatrix, room: _Room) -> list[np.ndarray]:
    """Every asset's room rows, each asset's a view of one block, priced
    once. A block that cannot be allocated raises a MemoryError naming N,
    S and T."""
    n, k1, s = matrix.costs.shape
    size = sum(dates.size for dates in room.dates)
    try:
        block = np.empty((size, s))
    except (MemoryError, ValueError):  # numpy says ValueError past the address space
        raise _size_error("CVaR search room", size * s * 8, n, s, k1 - 1) from None
    rows, start = [], 0
    for i, dates in enumerate(room.dates):
        rows.append(block[start:start + dates.size])
        start += dates.size
        _take(matrix.costs, i, dates, rows[i])
    return rows


def exhaustive_cvar_argmin(
    matrix: EvaluationMatrix, alpha: float, incumbent: Sequence[int]
) -> tuple[tuple[int, ...], float]:
    """Global CVaR minimizer over every schedule: bound, then price survivors.

    The bound is the CVaR of the ``incumbent`` schedule. A schedule whose
    expected cost exceeds it (plus 1e-9 relative slack) has CVaR >= mean >
    bound >= optimum, so it can be neither the minimizer nor a tie, and is
    skipped. Schedules grow one asset at a time over the dates of each
    asset's room (see :func:`_room`): each surviving prefix's mean is
    extended by every room date of the next asset, in the same order of
    additions as a full (T+1)^N sum would use, and a prefix is dropped
    once its cheapest completion, its mean plus each later asset's least
    row mean added one at a time in asset order, is over the bound. Float
    addition is monotone, so that sum is never above the computed mean of
    any of the prefix's completions, and a date outside the room would
    drop every prefix through it at its own level: exactly the schedules
    with mean at most the bound survive, in enumeration order, as a walk
    over all dates would keep them. They are priced in blocks of about
    128 KiB per array, with totals summed in asset order, and only a
    strictly lower CVaR replaces the best so far. The result is the exact
    optimum, earliest in enumeration order among ties, whichever
    incumbent set the bound; a better one only prices fewer schedules and
    holds fewer rows. Raises ValueError unless ``incumbent`` holds one
    integer index in 0..T per asset.

    A block of survivors mixes every asset's dates, so this is the one
    search that holds its room's rows: every room row, priced once into
    one block (:func:`_room_rows`). Prefixes that cannot be allocated, as
    under a budget far past what memory holds, raise a MemoryError naming
    N, S, T and ``policies.exhaustive_budget``.
    """
    n, k1, s = matrix.costs.shape
    incumbent = _checked_indices(incumbent, (n, k1), "incumbent")
    weights = matrix.scenarios.weights
    bound = float(batch_cvar(_schedule_totals(matrix.costs, [incumbent], s), weights, alpha)[0])
    room = _room(matrix, bound, incumbent)
    rows = _room_rows(matrix, room)
    # One position column per asset, so no flat index into (T+1)^N can overflow.
    partial = np.zeros(1)
    chosen = np.zeros((1, 0), dtype=np.intp)
    for i, dates in enumerate(room.dates):
        width = partial.size * dates.size
        try:
            partial = np.add.outer(partial, room.means[i, dates]).ravel()
            reach = partial
            for low in room.lows[i + 1:]:  # one at a time: lows[i + 1:].sum() rounds otherwise
                reach = reach + low
            keep = np.flatnonzero(reach <= room.threshold)
            prefix, positions = np.divmod(keep, dates.size)
            partial = partial[keep]
            chosen = np.column_stack([chosen[prefix], positions])
        except (MemoryError, ValueError):  # numpy says ValueError past the address space
            # the level's candidates at most: a mean and i + 1 positions each
            nbytes = width * (i + 2) * 8
            error = _size_error("schedule prefixes of the CVaR enumeration", nbytes, n, s, k1 - 1)
            raise MemoryError(
                f"{error}; lower policies.exhaustive_budget to search by coordinate descent alone"
            ) from None
    block = max(1, _BLOCK_ELEMENTS // s)
    best_val, best_row = np.inf, -1
    for start in range(0, len(chosen), block):
        totals = _schedule_totals(rows, chosen[start:start + block], s)
        cvars = batch_cvar(totals, weights, alpha)
        m = int(np.argmin(cvars))
        if cvars[m] < best_val:
            best_val, best_row = float(cvars[m]), start + m
    return tuple(int(d[p]) for d, p in zip(room.dates, chosen[best_row])), best_val


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

    Each move is taken over the dates of the asset's room (see
    :func:`_room`) for the start's CVaR, in date order, and gives the
    move a scan of all T+1 dates would. The objective never rises above
    the start's CVaR, and a date outside the room gives a schedule whose
    CVaR is over it by more than rounding, so it is never a strict
    improvement. A move therefore goes to a room date whenever a full
    scan's first minimizer improves, and every minimizer is then in the
    room, so the first one in the room is the scan's; when no date
    improves, none in the room does. The current date stays in the room,
    as the start's dates are in it and moves go only to room dates.

    No room rows are held. A visit prices its asset's room rows into one
    reused (T+1, S) buffer and judges all of them in one
    :func:`~fleetmaint.criteria.batch_cvar` call, which sums each row on
    its own: the bits are those of pricing each candidate alone.

    The descent stops after N consecutive visits without a strict
    improvement, and returns what sweeping until a whole sweep is quiet
    returns: the same moves, ties and ``(indices, value)``. A visit to
    asset i reads only the running totals, the objective and asset i's
    date, and changes none of them unless it improves. After N quiet
    visits in a row, each asset has been visited once since the last
    change, against the totals and objective that still hold, at the
    date it still has, and did not improve. Any later visit to asset j
    repeats j's visit among those N on the same inputs, bit for bit, so
    it does not improve either, and no move is ever made again. Sweeping
    makes the same visits in the same order up to this point, since it
    stops only after a whole quiet sweep, which is N quiet visits in a
    row; past it, sweeping makes only such repeats before it stops. A
    move's own asset is among the N visits because its next visit need
    not repeat the move's: ``totals - rows[best]`` after the move need
    not be the bits of the ``without`` the move was judged on.
    """
    n, k1, s = matrix.costs.shape
    weights = matrix.scenarios.weights
    current = _checked_indices(start, (n, k1), "start")
    totals = _schedule_totals(matrix.costs, [current], s)[0]
    current_val = float(batch_cvar(totals, weights, alpha)[0])
    room = _room(matrix, current_val, current)
    buffer = np.empty((k1, s))  # the size of the matrix build's row buffer
    # each asset's date as a position in its room
    at = [int(np.searchsorted(dates, c)) for dates, c in zip(room.dates, current)]
    i = quiet = 0
    while quiet < n:
        rows = buffer[:room.dates[i].size]
        _take(matrix.costs, i, room.dates[i], rows)
        without = totals - rows[at[i]]
        cvars = batch_cvar(without + rows, weights, alpha)
        best = int(np.argmin(cvars))
        if cvars[best] < current_val:
            at[i], totals, current_val, quiet = best, without + rows[best], float(cvars[best]), 0
        else:
            quiet += 1
        i = (i + 1) % n
    indices = tuple(int(dates[p]) for dates, p in zip(room.dates, at))
    final = _schedule_totals(matrix.costs, [indices], s)
    return indices, float(batch_cvar(final, weights, alpha)[0])
