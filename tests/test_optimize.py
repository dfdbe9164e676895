"""Evaluation matrix, schedule enumeration, and CVaR search."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetmaint import optimize
from fleetmaint.criteria import CostDistribution, batch_cvar, cvar_alpha, expected_cost
from fleetmaint.optimize import (
    _BLOCK_ELEMENTS,
    _PRUNE_SLACK,
    EvaluationMatrix,
    build_matrix,
    coordinate_descent_cvar,
    exhaustive_cvar_argmin,
    indices_from_schedule,
    schedule_cost_distribution,
    schedule_from_indices,
)
from fleetmaint.fleet import Schedule
from fleetmaint.riskcost import RiskParams, failure_probability
from fleetmaint.scenario import generate_scenarios
from helpers import (
    asset_cost_table,
    asset_scenario_cost,
    const_scenarios,
    cvar_alpha_merged,
    enumerate_schedules,
    make_fleet,
    random_scenarios,
    reference_descent,
    reference_walk,
    room_dates,
    total_cost,
)


def cost_only_matrix(fleet, costs):
    """A matrix over hand-made cost rows on equally likely scenarios; the
    search never reads the failure table or the latent RULs."""
    costs = np.asarray(costs, dtype=float)
    scenarios = const_scenarios(fleet, np.zeros(fleet.n_assets), costs.shape[2])
    return EvaluationMatrix(fleet, scenarios, costs, np.zeros(costs.shape[:2]))


@pytest.fixture(scope="module")
def small_setup():
    fleet = make_fleet(n_assets=2, horizon=4)
    scenarios = random_scenarios(fleet, n_scenarios=12, seed=81)
    matrix = build_matrix(fleet, scenarios, RiskParams())
    return fleet, scenarios, matrix


class TestMatrixCells:
    def test_shape(self, small_setup):
        fleet, scenarios, matrix = small_setup
        assert matrix.costs.shape == (2, 5, 12)
        assert matrix.failure.shape == (2, 5)
        assert matrix.scenarios.n_scenarios == 12

    @pytest.mark.parametrize("n_assets, horizon, seed", [(2, 4, 81), (3, 12, 5), (1, 9, 2)])
    def test_costs_equal_reference_table_bit_for_bit(self, n_assets, horizon, seed):
        fleet = make_fleet(n_assets=n_assets, horizon=horizon)
        scenarios = generate_scenarios(fleet, n_scenarios=50, seed=seed)
        params = RiskParams()
        matrix = build_matrix(fleet, scenarios, params)
        reference = np.stack([
            asset_cost_table(asset, scenarios.latent_rul[i], horizon, params)
            for i, asset in enumerate(fleet.assets)
        ])
        assert np.array_equal(matrix.costs, reference)

    @pytest.mark.parametrize("block", [1, 7, 49])
    def test_blocked_build_is_bit_identical(self, block, monkeypatch):
        # 50 scenarios fit one default block; smaller blocks split them,
        # the last block a partial one
        fleet = make_fleet(n_assets=3, horizon=12)
        scenarios = generate_scenarios(fleet, n_scenarios=50, seed=5)
        whole = build_matrix(fleet, scenarios)
        table = np.asarray(whole.costs)  # the rows are priced where they are read
        monkeypatch.setattr(optimize, "_TABLE_BLOCK", block)
        blocked = build_matrix(fleet, scenarios)
        assert np.asarray(blocked.costs).tobytes() == table.tobytes()
        assert blocked.means.tobytes() == whole.means.tobytes()
        assert blocked.failure.tobytes() == whole.failure.tobytes()

    def test_failure_row_accrues_across_blocks(self, monkeypatch):
        # 2,500 scenarios make three blocks of 1,024, the last a partial
        # one; the row is a running sum of weighted per-period sums
        monkeypatch.setattr(optimize, "_TABLE_BLOCK", 1024)
        fleet = make_fleet(n_assets=2, horizon=12)
        scenarios = generate_scenarios(fleet, n_scenarios=2500, seed=4)
        assert 2 * optimize._TABLE_BLOCK < 2500 < 3 * optimize._TABLE_BLOCK
        failure = build_matrix(fleet, scenarios).failure
        assert np.all(failure[:, 0] == 0.0)
        assert np.all(np.diff(failure, axis=1) >= 0.0)
        t_grid = np.arange(1, fleet.horizon + 1)
        for i in range(fleet.n_assets):
            probs = failure_probability(scenarios.latent_rul[i][:, None] - t_grid, RiskParams())
            terms = scenarios.weights[:, None] * probs
            for c in range(1, fleet.horizon + 1):
                exact = math.fsum(terms[:, :c].ravel())
                # measured at most 2.4e-15 relative over 20 seeds
                assert abs(failure[i, c] - exact) <= 1e-13 * exact, (i, c)

    def test_every_cell_matches_direct_evaluation(self, small_setup):
        fleet, scenarios, matrix = small_setup
        params = RiskParams()
        horizon = fleet.horizon
        for i, asset in enumerate(fleet.assets):
            for row in range(horizon + 1):
                date = row + 1 if row < horizon else None
                for w in range(scenarios.n_scenarios):
                    direct = asset_scenario_cost(
                        asset, date, float(scenarios.latent_rul[i, w]), horizon, params
                    )
                    assert matrix.costs[i, row, w] == pytest.approx(
                        direct.total, abs=1e-9
                    )

    def test_spot_cells_on_larger_instance(self):
        fleet = make_fleet(n_assets=4, horizon=10)
        scenarios = random_scenarios(fleet, n_scenarios=40, seed=5)
        matrix = build_matrix(fleet, scenarios, RiskParams())
        rng = np.random.default_rng(7)
        for _ in range(100):
            i = int(rng.integers(0, 4))
            row = int(rng.integers(0, 11))
            w = int(rng.integers(0, 40))
            date = row + 1 if row < 10 else None
            direct = asset_scenario_cost(
                fleet.assets[i], date, float(scenarios.latent_rul[i, w]), 10
            )
            assert matrix.costs[i, row, w] == pytest.approx(direct.total, abs=1e-9)

    def test_costs_read_only(self, small_setup):
        fleet, _, matrix = small_setup
        # the built table stores no cell to assign; every read prices afresh
        with pytest.raises(TypeError):
            matrix.costs[0, 0, 0] = 1.0
        matrix.costs[0][0, 0] = -1.0
        assert matrix.costs[0, 0, 0] > 0.0
        with pytest.raises(ValueError):
            matrix.failure[0, 0] = 1.0
        with pytest.raises(ValueError):
            matrix.means[0, 0] = 1.0
        hand_built = cost_only_matrix(fleet, np.ones((2, 5, 3)))
        with pytest.raises(ValueError):
            hand_built.costs[0, 0, 0] = 1.0

    def test_shape_mismatch_rejected(self, small_setup):
        fleet, scenarios, _ = small_setup
        other = make_fleet(n_assets=3, horizon=4)
        with pytest.raises(ValueError):
            build_matrix(other, scenarios, RiskParams())
        with pytest.raises(ValueError):
            EvaluationMatrix(fleet, scenarios, np.ones((2, 5, 12)), np.zeros((2, 4)))
        # a hand-built matrix checks its scenario set's N, T and S as well
        costs, failure = np.ones((2, 5, 12)), np.zeros((2, 5))
        for n_assets, horizon, n_scenarios in ((3, 4, 12), (2, 6, 12), (2, 4, 11)):
            fleet_like = make_fleet(n_assets=n_assets, horizon=horizon)
            wrong = random_scenarios(fleet_like, n_scenarios=n_scenarios, seed=81)
            with pytest.raises(ValueError, match="does not match the fleet|costs must have shape"):
                EvaluationMatrix(fleet, wrong, costs, failure)

    @pytest.mark.parametrize(
        "table, cell, value, named",
        [
            pytest.param("costs", (1, 2, 7), np.nan, "asset 'A2' at date 3", id="nan-cost"),
            pytest.param("costs", (0, 4, 0), np.inf, "asset 'A1' at date none", id="inf-cost"),
            pytest.param("failure", (1, 0), np.nan, "asset 'A2' at date 1", id="nan-failure"),
        ],
    )
    def test_non_finite_cell_rejected_by_name(self, small_setup, table, cell, value, named):
        # past the matrix, a NaN cost makes descent return nan and leaves
        # the enumeration no survivor to return
        fleet, scenarios, matrix = small_setup
        tables = {"costs": np.array(matrix.costs), "failure": matrix.failure.copy()}
        tables[table][cell] = value
        with pytest.raises(ValueError, match=f"{named}: a cost or failure value is not finite"):
            EvaluationMatrix(fleet, scenarios, tables["costs"], tables["failure"])


class TestIndexMapping:
    def test_round_trip(self, small_setup):
        fleet, _, _ = small_setup
        for schedule in (
            Schedule({"A1": 1, "A2": 4}),
            Schedule({"A1": None, "A2": 2}),
            Schedule({}),
        ):
            indices = indices_from_schedule(schedule, fleet)
            back = schedule_from_indices(fleet, indices)
            for asset_id in fleet.ids:
                assert back.date_for(asset_id) == schedule.date_for(asset_id)

    def test_none_maps_to_last_row(self, small_setup):
        fleet, _, _ = small_setup
        indices = indices_from_schedule(Schedule({"A1": None, "A2": 3}), fleet)
        assert list(indices) == [4, 2]


class TestScheduleDistribution:
    def test_matches_total_cost(self, small_setup):
        fleet, scenarios, matrix = small_setup
        schedule = Schedule({"A1": 2, "A2": None})
        dist = schedule_cost_distribution(matrix, schedule)
        for w in range(scenarios.n_scenarios):
            assert dist.values[w] == pytest.approx(
                total_cost(schedule, fleet, scenarios, w), abs=1e-9
            )

    def test_mean_agrees_with_expected_cost(self, small_setup):
        fleet, scenarios, matrix = small_setup
        schedule = Schedule({"A1": 1, "A2": 3})
        dist = schedule_cost_distribution(matrix, schedule)
        manual = sum(
            float(scenarios.weights[w]) * total_cost(schedule, fleet, scenarios, w)
            for w in range(scenarios.n_scenarios)
        )
        assert expected_cost(dist) == pytest.approx(manual, abs=1e-9)

    def test_prefix_stable_under_scenario_doubling(self):
        # enlarging a generated scenario set must not disturb cost columns
        # already computed for the shared prefix
        fleet = make_fleet(n_assets=2, horizon=5)
        small = generate_scenarios(fleet, n_scenarios=20, seed=3)
        large = generate_scenarios(fleet, n_scenarios=40, seed=3)
        m_small = build_matrix(fleet, small, RiskParams())
        m_large = build_matrix(fleet, large, RiskParams())
        np.testing.assert_array_equal(m_small.costs, np.asarray(m_large.costs)[:, :, :20])


class TestEnumeration:
    def test_single_asset_order(self):
        fleet = make_fleet(n_assets=1, horizon=2)
        dates = [s.date_for("A1") for s in enumerate_schedules(fleet)]
        assert dates == [1, 2, None]

    def test_two_asset_count_and_order(self):
        fleet = make_fleet(n_assets=2, horizon=2)
        schedules = list(enumerate_schedules(fleet))
        assert len(schedules) == 9
        # first asset is the most significant digit
        assert [s.date_for("A1") for s in schedules[:3]] == [1, 1, 1]
        assert [s.date_for("A2") for s in schedules[:3]] == [1, 2, None]
        assert schedules[-1].date_for("A1") is None
        assert schedules[-1].date_for("A2") is None

    def test_budget_checked_eagerly(self):
        fleet = make_fleet(n_assets=3, horizon=9)
        with pytest.raises(ValueError):
            enumerate_schedules(fleet, budget=999)

    def test_default_budget_admits_reference_scale(self):
        fleet = make_fleet(n_assets=5, horizon=12)
        gen = enumerate_schedules(fleet)
        assert next(gen).date_for("A1") == 1


class TestBatchCvar:
    def test_matches_scalar_on_uniform_weights(self):
        rng = np.random.default_rng(31)
        totals = rng.uniform(0, 100, size=(50, 17))
        weights = np.full(17, 1.0 / 17)
        for alpha in (0.5, 0.8, 0.9, 0.95):
            batch = batch_cvar(totals, weights, alpha)
            for row in range(50):
                dist = CostDistribution(totals[row], weights)
                assert batch[row] == pytest.approx(cvar_alpha_merged(dist, alpha), abs=1e-9)

    def test_matches_scalar_on_ragged_weights(self):
        rng = np.random.default_rng(37)
        totals = rng.uniform(0, 100, size=(40, 23))
        weights = rng.uniform(0.1, 1.0, 23)
        weights /= weights.sum()
        for alpha in (0.6, 0.9):
            batch = batch_cvar(totals, weights, alpha)
            for row in range(40):
                dist = CostDistribution(totals[row], weights)
                assert batch[row] == pytest.approx(cvar_alpha_merged(dist, alpha), abs=1e-9)

    def test_handles_duplicate_totals(self):
        totals = np.array([[1.0, 1.0, 2.0, 2.0, 3.0]] * 3)
        weights = np.full(5, 0.2)
        dist = CostDistribution(totals[0], weights)
        batch = batch_cvar(totals, weights, 0.8)
        assert np.allclose(batch, cvar_alpha_merged(dist, 0.8))


def brute_force_cvar_argmin(matrix, fleet, alpha):
    best = None
    for schedule in enumerate_schedules(fleet):
        dist = schedule_cost_distribution(matrix, schedule)
        value = cvar_alpha(dist, alpha)
        if best is None or value < best[1] - 0.0:
            if best is None or value < best[1]:
                best = (schedule, value)
    return best


def full_scan_cvar_argmin(matrix, weights, alpha):
    """Unpruned oracle: price every schedule in one batch, first minimum wins."""
    rows = [indices_from_schedule(s, matrix.fleet) for s in enumerate_schedules(matrix.fleet)]
    totals = np.zeros((len(rows), matrix.scenarios.n_scenarios))
    for r, indices in enumerate(rows):
        for i, c in enumerate(indices):
            totals[r] += matrix.costs[i, c]
    cvars = batch_cvar(totals, weights, alpha)
    best = int(np.argmin(cvars))
    return rows[best], float(cvars[best])


def lattice_survivors(matrix, weights, alpha, incumbent):
    """How many schedules the incumbent's bound keeps, read off the full mean lattice.

    Every one of the (T+1)^N means is summed in asset order and compared
    with the incumbent's CVaR plus the search's relative slack.
    """
    means = matrix.means / weights.sum()
    lattice = np.zeros(())
    for row in means:
        lattice = np.add.outer(lattice, row)
    totals = np.zeros(matrix.scenarios.n_scenarios)
    for i, c in enumerate(incumbent):
        totals += matrix.costs[i, c]
    bound = float(batch_cvar(totals, weights, alpha)[0])
    return int((lattice <= bound + _PRUNE_SLACK * max(1.0, abs(bound))).sum())


def priced_rows(matrix, alpha, incumbent):
    """The search's result and the row count of each batch it prices."""
    rows = []

    def counting(totals, *args):
        rows.append(np.atleast_2d(totals).shape[0])
        return batch_cvar(totals, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "batch_cvar", counting)
        result = exhaustive_cvar_argmin(matrix, alpha, incumbent)
    return result, rows


def assert_exact_search(matrix, weights, alpha, start):
    """The search returns the full scan's argmin and value, and prices the
    incumbent plus exactly the schedules the full mean lattice keeps."""
    (indices, value), rows = priced_rows(matrix, alpha, start)
    ref_indices, ref_value = full_scan_cvar_argmin(matrix, weights, alpha)
    assert indices == tuple(ref_indices)
    assert value == ref_value
    assert sum(rows) == 1 + lattice_survivors(matrix, weights, alpha, start)


def descended(matrix, weights, alpha):
    """Descent's schedule from the per-asset expected argmin, as integrated_cvar runs it."""
    warm = np.argmin(matrix.means, axis=1)
    return coordinate_descent_cvar(matrix, alpha, warm)[0]


# Incumbents that set the enumeration's bound; none may change its result.
INCUMBENTS = {
    "descent": descended,
    "first-date": lambda matrix, weights, alpha: (0,) * matrix.fleet.n_assets,
    "none": lambda matrix, weights, alpha: (matrix.fleet.horizon,) * matrix.fleet.n_assets,
}


@st.composite
def small_instances(draw, exact: bool):
    """Random (matrix, weights, alpha) with N <= 3, T <= 4 and copied cost rows.

    With ``exact``, costs are small integers and S is a power of two, so
    the equal weights 1/S are dyadic and every sum and product is exact:
    ties between schedules sharing a copied row are then true ties whatever
    the summation order, and the earliest one must win.
    """
    n = draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 4))
    s = draw(st.sampled_from([1, 2, 4, 8]) if exact else st.integers(1, 8))
    size = n * (horizon + 1) * s
    if exact:
        cells = st.integers(0, 30).map(float)
    else:
        cells = st.floats(0.0, 1000.0, allow_nan=False, allow_infinity=False)
    costs = np.array(draw(st.lists(cells, min_size=size, max_size=size))).reshape(
        n, horizon + 1, s
    )
    for _ in range(draw(st.integers(0, 3))):
        src = (draw(st.integers(0, n - 1)), draw(st.integers(0, horizon)))
        dst = (draw(st.integers(0, n - 1)), draw(st.integers(0, horizon)))
        costs[dst] = costs[src]
    alpha = draw(st.sampled_from([0.1, 0.5, 0.75, 0.9, 0.99]))
    matrix = cost_only_matrix(make_fleet(n_assets=n, horizon=horizon), costs)
    return matrix, matrix.scenarios.weights, alpha


class TestExhaustiveSearch:
    @pytest.mark.parametrize("incumbent", INCUMBENTS.values(), ids=INCUMBENTS.keys())
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(small_instances(exact=True))
    def test_matches_unpruned_scan_with_exact_ties(self, incumbent, instance):
        matrix, weights, alpha = instance
        assert_exact_search(matrix, weights, alpha, incumbent(matrix, weights, alpha))

    @pytest.mark.parametrize("incumbent", INCUMBENTS.values(), ids=INCUMBENTS.keys())
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(small_instances(exact=False))
    def test_matches_unpruned_scan_value_on_float_costs(self, incumbent, instance):
        # batch_cvar prices each row on its own, so the pruned walk's blocks
        # and the one-batch scan agree bit for bit on float costs too
        matrix, weights, alpha = instance
        assert_exact_search(matrix, weights, alpha, incumbent(matrix, weights, alpha))

    def test_all_survivors_span_blocks(self):
        # constant costs put every schedule at the bound, so all 9^4 survive
        # and the walk crosses block boundaries
        fleet = make_fleet(n_assets=4, horizon=8)
        s = 64
        matrix = cost_only_matrix(fleet, np.ones((4, 9, s)))
        assert 9 ** 4 > _BLOCK_ELEMENTS // s
        (indices, value), rows = priced_rows(matrix, 0.9, (8, 8, 8, 8))
        assert indices == (0, 0, 0, 0)
        assert value == 4.0
        assert sum(rows) == 1 + 9 ** 4 and len(rows) > 2

    def test_peak_memory_is_capped_by_the_block(self, monkeypatch):
        # neither the (T+1)^N means nor all survivors' cost rows are held at
        # once: beside its room's rows, a few block-sized arrays at a time,
        # whatever S
        fleet = make_fleet(n_assets=5, horizon=12)
        scenarios = generate_scenarios(fleet, n_scenarios=2000, seed=1)
        matrix = build_matrix(fleet, scenarios, RiskParams())
        start = descended(matrix, scenarios.weights, 0.9)
        rooms = []
        room_rows = optimize._room_rows
        monkeypatch.setattr(
            optimize, "_room_rows", lambda *args: rooms.append(room_rows(*args)) or rooms[-1]
        )
        tracemalloc.start()
        try:
            exhaustive_cvar_argmin(matrix, 0.9, start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(rows.nbytes for rows in rooms[0])
        assert held < matrix.costs.nbytes
        assert peak < held + 4 * _BLOCK_ELEMENTS * 8

    @pytest.mark.parametrize(
        "search", [exhaustive_cvar_argmin, coordinate_descent_cvar], ids=["exhaustive", "descent"]
    )
    @pytest.mark.parametrize(
        "indices, message",
        [
            pytest.param((0, 0), "one index per asset \\(3\\), got 2", id="short"),
            pytest.param((0, 0, 0, 0), "one index per asset \\(3\\), got 4", id="long"),
            pytest.param((0, -1, 0), "index -1 of asset 1 is not an integer in 0..3", id="minus-one"),
            pytest.param((0, 0, 4), "index 4 of asset 2 is not an integer in 0..3", id="past-none"),
        ],
    )
    def test_bad_indices_rejected_by_name(self, search, indices, message):
        matrix = cost_only_matrix(make_fleet(n_assets=3, horizon=3), np.ones((3, 4, 2)))
        with pytest.raises(ValueError, match=message):
            search(matrix, 0.9, indices)

    @pytest.mark.parametrize(
        "alpha, n_assets, horizon, n_scenarios, seed",
        [
            pytest.param(0.6, 2, 3, 30, 13, id="0.6"),
            pytest.param(0.9, 2, 3, 30, 13, id="0.9"),
            pytest.param(0.9, 3, 4, 25, 19, id="three-assets"),
        ],
    )
    def test_agrees_with_schedule_scan(self, alpha, n_assets, horizon, n_scenarios, seed):
        fleet = make_fleet(n_assets=n_assets, horizon=horizon)
        scenarios = random_scenarios(fleet, n_scenarios=n_scenarios, seed=seed)
        matrix = build_matrix(fleet, scenarios, RiskParams())
        start = descended(matrix, scenarios.weights, alpha)
        indices, value = exhaustive_cvar_argmin(matrix, alpha, start)
        _, ref_value = brute_force_cvar_argmin(matrix, fleet, alpha)
        assert value == pytest.approx(ref_value, abs=1e-9)
        dist = schedule_cost_distribution(matrix, schedule_from_indices(fleet, indices))
        assert cvar_alpha(dist, alpha) == value

    def test_deterministic_tie_break_is_enumeration_order(self):
        # constant costs make every schedule optimal; the reported argmin
        # must be the first schedule in enumeration order
        fleet = make_fleet(n_assets=2, horizon=3)
        costs = np.ones((2, 4, 4))
        matrix = cost_only_matrix(fleet, costs)
        indices, value = exhaustive_cvar_argmin(matrix, 0.9, (3, 3))
        assert list(indices) == [0, 0]
        assert value == pytest.approx(2.0)


class TestCoordinateDescent:
    def test_never_worse_than_start(self):
        fleet = make_fleet(n_assets=3, horizon=6)
        scenarios = random_scenarios(fleet, n_scenarios=60, seed=29)
        matrix = build_matrix(fleet, scenarios, RiskParams())
        start = np.array([0, 0, 0])
        start_dist = schedule_cost_distribution(matrix, schedule_from_indices(fleet, start))
        start_value = cvar_alpha(start_dist, 0.9)
        indices, value = coordinate_descent_cvar(matrix, 0.9, start)
        assert value <= start_value + 1e-12

    def test_bounded_below_by_exhaustive(self):
        fleet = make_fleet(n_assets=2, horizon=4)
        scenarios = random_scenarios(fleet, n_scenarios=40, seed=41)
        matrix = build_matrix(fleet, scenarios, RiskParams())
        exact_indices, exact = exhaustive_cvar_argmin(matrix, 0.9, (4, 4))
        _, descended = coordinate_descent_cvar(matrix, 0.9, np.array([0, 0]))
        assert descended >= exact - 1e-9

    def test_result_is_coordinate_wise_optimal(self):
        fleet = make_fleet(n_assets=3, horizon=5)
        scenarios = random_scenarios(fleet, n_scenarios=50, seed=43)
        matrix = build_matrix(fleet, scenarios, RiskParams())
        indices, value = coordinate_descent_cvar(matrix, 0.9, np.array([2, 2, 2]))
        for i in range(3):
            for row in range(6):
                trial = list(indices)
                trial[i] = row
                dist = schedule_cost_distribution(matrix, schedule_from_indices(fleet, trial))
                assert cvar_alpha(dist, 0.9) >= value - 1e-9

    def test_deterministic(self):
        fleet = make_fleet(n_assets=3, horizon=6)
        scenarios = random_scenarios(fleet, n_scenarios=60, seed=47)
        matrix = build_matrix(fleet, scenarios, RiskParams())
        runs = [
            coordinate_descent_cvar(matrix, 0.9, np.array([1, 3, 5]))
            for _ in range(2)
        ]
        assert list(runs[0][0]) == list(runs[1][0])
        assert runs[0][1] == runs[1][1]


def descent_trace(matrix, alpha, start):
    """The descent's result and each visit's (asset, date moved to), the
    date None where the visit makes no move, read off the rows each visit
    prices and the CVaRs it judges them by."""
    calls = []
    take = optimize._take

    def taking(costs, i, dates, out):
        calls.append((i, list(dates)))
        return take(costs, i, dates, out)

    def judging(totals, *args):
        cvars = batch_cvar(totals, *args)
        calls.append(cvars)
        return cvars

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "_take", taking)
        mp.setattr(optimize, "batch_cvar", judging)
        result = coordinate_descent_cvar(matrix, alpha, start)
    # the start's CVaR, then one (rows, CVaRs) pair per visit, then the result's
    current, trace = float(calls[0][0]), []
    for (i, dates), cvars in zip(calls[1:-1:2], calls[2:-1:2]):
        best = int(np.argmin(cvars))
        moves = float(cvars[best]) < current
        trace.append((i, dates[best] if moves else None))
        current = float(cvars[best]) if moves else current
    return result, trace


class TestDescentVisits:
    """The descent prices one asset's room at a visit and stops after N
    quiet visits; it moves as sweeping over every date until a quiet sweep."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_moves_and_result_are_the_full_sweeps(self, data):
        matrix, weights, alpha = data.draw(small_instances(exact=data.draw(st.booleans())))
        n, k1, _ = matrix.costs.shape
        start = data.draw(st.tuples(*[st.integers(0, k1 - 1)] * n))
        reference = []
        expected = reference_descent(matrix, alpha, start, reference)
        result, trace = descent_trace(matrix, alpha, start)
        assert result == expected
        moves = [visit for visit in trace if visit[1] is not None]
        assert moves == [visit for visit in reference if visit[1] is not None]
        assert len(trace) <= len(reference)
        # the last N visits are quiet, one to each asset
        assert sorted(i for i, _ in trace[-n:]) == list(range(n))
        assert all(c is None for _, c in trace[-n:])

    def test_each_visit_prices_one_assets_room(self, monkeypatch):
        fleet = make_fleet(n_assets=4, horizon=6)
        scenarios = random_scenarios(fleet, n_scenarios=64, seed=3)
        matrix = build_matrix(fleet, scenarios, RiskParams())
        start = (6, 6, 6, 6)
        rooms = room_dates(matrix, 0.9, start)
        events = []
        take = optimize.CostTable.take

        def taking(table, i, dates, out):
            events.append((i, list(dates)))
            return take(table, i, dates, out)

        def judging(totals, *args):
            events.append(None)
            return batch_cvar(totals, *args)

        monkeypatch.setattr(optimize.CostTable, "take", taking)
        monkeypatch.setattr(optimize, "batch_cvar", judging)
        coordinate_descent_cvar(matrix, 0.9, start)
        calls = [k for k, event in enumerate(events) if event is None]
        # the start's rows, one asset at a time, then its CVaR
        assert calls[0] == fleet.n_assets
        visits = [events[a + 1:b] for a, b in zip(calls[:-2], calls[1:-1])]
        assert len(visits) >= fleet.n_assets
        for k, priced in enumerate(visits):
            # one asset's room rows, in fleet order round and round
            assert priced == [(k % fleet.n_assets, rooms[k % fleet.n_assets])]


class TestReturnedValues:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.data())
    def test_value_is_cvar_of_returned_schedule(self, data):
        # descent judges moves on running totals; what it returns must still
        # be its schedule's CVaR summed in asset order, as enumeration's is
        matrix, weights, alpha = data.draw(small_instances(exact=False))
        n, k1, _ = matrix.costs.shape
        start = data.draw(st.tuples(*[st.integers(0, k1 - 1)] * n))
        for search in (coordinate_descent_cvar, exhaustive_cvar_argmin):
            indices, value = search(matrix, alpha, start)
            schedule = schedule_from_indices(matrix.fleet, indices)
            dist = schedule_cost_distribution(matrix, schedule)
            assert value == cvar_alpha(dist, alpha)


class TestRoom:
    """Both searches look only at their room's dates and answer as they
    did over every date of the whole table."""

    @staticmethod
    def check(matrix, alpha, start):
        for search, reference in (
            (coordinate_descent_cvar, reference_descent),
            (exhaustive_cvar_argmin, reference_walk),
        ):
            rooms = room_dates(matrix, alpha, start)
            indices, value = search(matrix, alpha, start)
            assert (indices, value) == reference(matrix, alpha, start)
            assert all(c in room for c, room in zip(indices, rooms))
            assert all(c in room for c, room in zip(start, rooms))
        _, rows = priced_rows(matrix, alpha, start)
        assert sum(rows) == 1 + lattice_survivors(matrix, matrix.scenarios.weights, alpha, start)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_all_dates_with_exact_ties(self, data):
        matrix, weights, alpha = data.draw(small_instances(exact=True))
        n, k1, _ = matrix.costs.shape
        self.check(matrix, alpha, data.draw(st.tuples(*[st.integers(0, k1 - 1)] * n)))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_all_dates_on_float_costs(self, data):
        matrix, weights, alpha = data.draw(small_instances(exact=False))
        n, k1, _ = matrix.costs.shape
        self.check(matrix, alpha, data.draw(st.tuples(*[st.integers(0, k1 - 1)] * n)))

    @pytest.mark.parametrize("start", ["expected", "first-date", "none"])
    def test_matches_all_dates_on_a_built_matrix(self, start):
        fleet = make_fleet(n_assets=4, horizon=6)
        scenarios = random_scenarios(fleet, n_scenarios=64, seed=3)
        matrix = build_matrix(fleet, scenarios, RiskParams())
        indices = {
            "expected": tuple(int(c) for c in np.argmin(matrix.means, axis=1)),
            "first-date": (0,) * 4,
            "none": (6,) * 4,
        }[start]
        self.check(matrix, 0.9, indices)

    def test_room_rows_are_the_tables_rows(self):
        fleet = make_fleet(n_assets=3, horizon=5)
        scenarios = random_scenarios(fleet, n_scenarios=40, seed=9)
        matrix = build_matrix(fleet, scenarios, RiskParams())
        start = (5, 5, 5)
        bound = cvar_alpha(schedule_cost_distribution(
            matrix, schedule_from_indices(fleet, start)), 0.9)
        room = optimize._room(matrix, bound, start)
        table = np.asarray(matrix.costs)
        assert [list(d) for d in room.dates] == room_dates(matrix, 0.9, start)
        for i, (dates, rows) in enumerate(zip(room.dates, optimize._room_rows(matrix, room))):
            assert rows.tobytes() == table[i, dates].tobytes()
