"""Evaluation matrix, schedule enumeration, and CVaR search."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetmaint import optimize
from fleetmaint.criteria import CUM_TOL, CostDistribution, batch_cvar, cvar_alpha, expected_cost
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
from fleetmaint.config import parse_config
from fleetmaint.fleet import FleetGenConfig, Schedule, generate_fleet
from fleetmaint.policies import integrated_cvar
from fleetmaint.riskcost import RiskParams, failure_probability
from fleetmaint.scenario import PricingInputs, generate_scenarios, sample_pricing_inputs
from helpers import (
    TableRows,
    asset_cost_table,
    asset_scenario_cost,
    cvar_alpha_merged,
    enumerate_schedules,
    hand_matrix,
    make_fleet,
    random_scenarios,
    bound_dates,
    reference_descent,
    reference_walk,
    total_cost,
    walk_survivors,
    whole_table,
)


@pytest.fixture(scope="module")
def small_setup():
    fleet = make_fleet(n_assets=2, horizon=4)
    scenarios = random_scenarios(fleet, n_scenarios=12, seed=81)
    matrix = build_matrix(fleet, scenarios, RiskParams())
    return fleet, scenarios, matrix


class TestMatrixCells:
    def test_shape(self, small_setup):
        fleet, scenarios, matrix = small_setup
        assert whole_table(matrix).shape == (2, 5, 12)
        assert matrix.failure.shape == matrix.means.shape == (2, 5)
        assert matrix.scenarios.n_scenarios == 12
        # a scenario set is kept as its pricing inputs, without the increments
        assert type(matrix.scenarios) is PricingInputs

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
        assert np.array_equal(whole_table(matrix), reference)

    @pytest.mark.parametrize("block", [1, 7, 49])
    def test_blocked_build_is_bit_identical(self, block, monkeypatch):
        # 50 scenarios fit one default block; smaller blocks split them,
        # the last block a partial one
        fleet = make_fleet(n_assets=3, horizon=12)
        scenarios = generate_scenarios(fleet, n_scenarios=50, seed=5)
        whole = build_matrix(fleet, scenarios)
        table = whole_table(whole)  # the rows are priced where they are read
        monkeypatch.setattr(optimize, "_TABLE_BLOCK", block)
        blocked = build_matrix(fleet, scenarios)
        assert whole_table(blocked).tobytes() == table.tobytes()
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
        table = whole_table(matrix)
        for i, asset in enumerate(fleet.assets):
            for row in range(horizon + 1):
                date = row + 1 if row < horizon else None
                for w in range(scenarios.n_scenarios):
                    direct = asset_scenario_cost(
                        asset, date, float(scenarios.latent_rul[i, w]), horizon, params
                    )
                    assert table[i, row, w] == pytest.approx(direct.total, abs=1e-9)

    def test_spot_cells_on_larger_instance(self):
        fleet = make_fleet(n_assets=4, horizon=10)
        scenarios = random_scenarios(fleet, n_scenarios=40, seed=5)
        table = whole_table(build_matrix(fleet, scenarios, RiskParams()))
        rng = np.random.default_rng(7)
        for _ in range(100):
            i = int(rng.integers(0, 4))
            row = int(rng.integers(0, 11))
            w = int(rng.integers(0, 40))
            date = row + 1 if row < 10 else None
            direct = asset_scenario_cost(
                fleet.assets[i], date, float(scenarios.latent_rul[i, w]), 10
            )
            assert table[i, row, w] == pytest.approx(direct.total, abs=1e-9)

    def test_costs_read_only(self, small_setup):
        fleet, _, matrix = small_setup
        # the built source stores no cell; every read prices afresh
        rows = np.empty((1, 12))
        matrix.costs.take(0, [0], rows)
        rows[0, 0] = -1.0
        matrix.costs.take(0, [0], rows)
        assert rows[0, 0] > 0.0
        with pytest.raises(ValueError):
            matrix.failure[0, 0] = 1.0
        with pytest.raises(ValueError):
            matrix.means[0, 0] = 1.0
        hand_built = hand_matrix(fleet, np.ones((2, 5, 3)))
        with pytest.raises(ValueError):
            hand_built.means[0, 0] = 1.0

    @pytest.mark.parametrize("n_assets", [1, 2, 3])
    def test_take_on_shuffled_dates_equals_whole_table_rows(self, n_assets):
        # distinct dates in any order, every one of them or a few
        fleet = make_fleet(n_assets=n_assets, horizon=6)
        matrix = build_matrix(fleet, generate_scenarios(fleet, n_scenarios=40, seed=n_assets))
        table = whole_table(matrix)
        rng = np.random.default_rng(n_assets)
        for i in range(n_assets):
            for size in (7, 3, 1):
                dates = rng.permutation(7)[:size]
                out = np.full((size, 40), np.nan)
                matrix.costs.take(i, dates, out)
                assert out.tobytes() == table[i, dates].tobytes()
        # the tests' own source rejects what the contract leaves undefined
        with pytest.raises(AssertionError, match="repeated dates"):
            TableRows(table).take(0, [5, 2, 5], np.empty((3, 40)))

    def test_shape_mismatch_rejected(self, small_setup):
        fleet, scenarios, _ = small_setup
        other = make_fleet(n_assets=3, horizon=4)
        with pytest.raises(ValueError):
            build_matrix(other, scenarios, RiskParams())
        rows, tables = TableRows(np.ones((2, 5, 12))), np.zeros((2, 5))
        with pytest.raises(ValueError, match="failure must have shape"):
            EvaluationMatrix(fleet, scenarios, rows, np.zeros((2, 4)), tables)
        with pytest.raises(ValueError, match="means must have shape"):
            EvaluationMatrix(fleet, scenarios, rows, tables, np.zeros((3, 5)))
        # a hand-built matrix checks its scenario set's N and T as well
        for n_assets, horizon in ((3, 4), (2, 6)):
            fleet_like = make_fleet(n_assets=n_assets, horizon=horizon)
            wrong = random_scenarios(fleet_like, n_scenarios=12, seed=81)
            with pytest.raises(ValueError, match="does not match the fleet"):
                EvaluationMatrix(fleet, wrong, rows, tables, tables)

    @pytest.mark.parametrize(
        "table, cell, value, named",
        [
            pytest.param("costs", (1, 2, 7), np.nan, "asset 'A2' at date 3", id="nan-cost"),
            pytest.param("costs", (0, 4, 0), np.inf, "asset 'A1' at date none", id="inf-cost"),
            # a period-1 probability enters every accrual from date 2 on
            pytest.param("failure", (1, 0, 7), np.nan, "asset 'A2' at date 2", id="nan-failure"),
        ],
    )
    def test_non_finite_cell_rejected_by_name(
        self, small_setup, monkeypatch, table, cell, value, named
    ):
        # past the matrix, a NaN cost makes descent return nan and leaves
        # the enumeration no survivor to return
        fleet, scenarios, _ = small_setup
        i, row, w = cell
        asset_tables = optimize._asset_tables

        def corrupting(asset, rul, horizon, params, rows, per_period=None):
            asset_tables(asset, rul, horizon, params, rows, per_period)
            if asset.id == fleet.ids[i]:
                (rows[row] if table == "costs" else per_period[row])[w] = value

        monkeypatch.setattr(optimize, "_asset_tables", corrupting)
        with pytest.raises(ValueError, match=f"{named}: a cost or failure value is not finite"):
            build_matrix(fleet, scenarios)


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
        np.testing.assert_array_equal(whole_table(m_small), whole_table(m_large)[:, :, :20])

    def test_no_schedules_give_no_distributions(self, small_setup):
        _, _, matrix = small_setup
        assert optimize.cost_distributions(matrix, []) == []


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
    table = whole_table(matrix)
    totals = np.zeros((len(rows), matrix.scenarios.n_scenarios))
    for r, indices in enumerate(rows):
        for i, c in enumerate(indices):
            totals[r] += table[i, c]
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
    table = whole_table(matrix)
    totals = np.zeros(matrix.scenarios.n_scenarios)
    for i, c in enumerate(incumbent):
        totals += table[i, c]
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
    matrix = hand_matrix(make_fleet(n_assets=n, horizon=horizon), costs)
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
        matrix = hand_matrix(fleet, np.ones((4, 9, s)))
        assert 9 ** 4 > _BLOCK_ELEMENTS // s
        (indices, value), rows = priced_rows(matrix, 0.9, (8, 8, 8, 8))
        assert indices == (0, 0, 0, 0)
        assert value == 4.0
        assert sum(rows) == 1 + 9 ** 4 and len(rows) > 2

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_ties_across_blocks_go_to_the_earliest(self, data):
        # costs in 0..2 on S a power of two tie exactly and often, and blocks
        # of one or two survivors put tied schedules in different blocks
        n, horizon = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        s = data.draw(st.sampled_from([1, 2, 4]))
        size = n * (horizon + 1) * s
        cells = data.draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
        matrix = hand_matrix(
            make_fleet(n_assets=n, horizon=horizon),
            np.array(cells, dtype=float).reshape(n, horizon + 1, s),
        )
        alpha = data.draw(st.sampled_from([0.5, 0.75, 0.9]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimize, "_BLOCK_ELEMENTS", data.draw(st.integers(1, 2)) * s)
            indices, value = exhaustive_cvar_argmin(matrix, alpha, (horizon,) * n)
        ref_indices, ref_value = full_scan_cvar_argmin(matrix, matrix.scenarios.weights, alpha)
        assert indices == tuple(ref_indices)
        assert value == ref_value

    def test_peak_memory_is_capped_by_the_block(self, monkeypatch):
        # neither the (T+1)^N means nor all survivors' cost rows are held at
        # once: beside the rows its survivors use, a few block-sized arrays
        # at a time, whatever S
        fleet = make_fleet(n_assets=5, horizon=12)
        scenarios = generate_scenarios(fleet, n_scenarios=2000, seed=1)
        matrix = build_matrix(fleet, scenarios, RiskParams())
        start = descended(matrix, scenarios.weights, 0.9)
        blocks = []
        block_rows = optimize._block_rows
        monkeypatch.setattr(
            optimize, "_block_rows", lambda *args: blocks.append(block_rows(*args)) or blocks[-1]
        )
        tracemalloc.start()
        try:
            exhaustive_cvar_argmin(matrix, 0.9, start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(rows.nbytes for rows in blocks[0])
        assert held < fleet.n_assets * (fleet.horizon + 1) * scenarios.n_scenarios * 8
        assert peak < held + 4 * _BLOCK_ELEMENTS * 8

    @pytest.mark.parametrize(
        "search",
        [
            exhaustive_cvar_argmin,
            coordinate_descent_cvar,
            lambda matrix, alpha, indices: optimize.cost_distributions(matrix, [indices]),
        ],
        ids=["exhaustive", "descent", "distributions"],
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
        matrix = hand_matrix(make_fleet(n_assets=3, horizon=3), np.ones((3, 4, 2)))
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
        matrix = hand_matrix(fleet, costs)
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
    prices and the CVaRs it judges them by, after checking that each
    visit priced the dates its mean bound keeps."""
    calls = []
    take = matrix.costs.take

    def taking(i, dates, out):
        calls.append((i, list(dates)))
        return take(i, dates, out)

    def judging(totals, *args):
        cvars = batch_cvar(totals, *args)
        calls.append(cvars)
        return cvars

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix.costs, "take", taking)
        mp.setattr(optimize, "batch_cvar", judging)
        result = coordinate_descent_cvar(matrix, alpha, start)
    # the start's N rows and CVaR, then one (rows, CVaRs) pair per visit,
    # then the result's N rows and CVaR
    n = matrix.fleet.n_assets
    visits = calls[n + 1:-(n + 1)]
    current, dates_now, trace = float(calls[n][0]), list(start), []
    for (i, dates), cvars in zip(visits[::2], visits[1::2]):
        # each visit prices the dates of its mean bound
        assert dates == bound_dates(matrix, current, dates_now, i)
        best = int(np.argmin(cvars))
        moves = float(cvars[best]) < current
        trace.append((i, dates[best] if moves else None))
        if moves:
            current, dates_now[i] = float(cvars[best]), dates[best]
    return result, trace


class TestDescentVisits:
    """The descent prices the dates of one asset that its mean bound keeps
    at a visit and stops after N quiet visits; it moves as sweeping over
    every date until a quiet sweep."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_moves_and_result_are_the_full_sweeps(self, data):
        matrix, weights, alpha = data.draw(small_instances(exact=data.draw(st.booleans())))
        n, k1 = matrix.means.shape
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

    def test_each_visit_prices_the_dates_its_mean_bound_keeps(self, monkeypatch):
        # a generated fleet, on which visits price anywhere from 1 to 7 dates
        fleet = generate_fleet(FleetGenConfig(n_assets=4, horizon=6, seed=1))
        scenarios = generate_scenarios(fleet, n_scenarios=64, seed=2)
        matrix = build_matrix(fleet, scenarios, RiskParams())
        start = (6, 6, 6, 6)
        events = []
        take = optimize.CostTable.take

        def taking(table, i, dates, out):
            events.append((i, list(dates)))
            return take(table, i, dates, out)

        def judging(totals, *args):
            cvars = batch_cvar(totals, *args)
            events.append(cvars)
            return cvars

        monkeypatch.setattr(optimize.CostTable, "take", taking)
        monkeypatch.setattr(optimize, "batch_cvar", judging)
        coordinate_descent_cvar(matrix, 0.9, start)
        calls = [k for k, event in enumerate(events) if not isinstance(event, tuple)]
        # the start's rows, one asset at a time, then its CVaR
        assert calls[0] == fleet.n_assets
        visits = [events[a + 1:b + 1] for a, b in zip(calls[:-2], calls[1:-1])]
        assert len(visits) >= fleet.n_assets
        current, objective = list(start), float(events[calls[0]][0])
        for k, (priced, cvars) in enumerate(visits):
            # one call per visit, to one asset's dates, in fleet order round
            # and round: those whose mean, with the other assets' current
            # means, stays within the current objective, and the asset's own
            i, dates = priced
            assert i == k % fleet.n_assets
            assert dates == bound_dates(matrix, objective, current, i)
            best = int(np.argmin(cvars))
            if cvars[best] < objective:
                current[i], objective = dates[best], float(cvars[best])
        assert sum(len(priced[1]) for priced, _ in visits) < len(visits) * 7


class TestReturnedValues:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.data())
    def test_value_is_cvar_of_returned_schedule(self, data):
        # descent judges moves on running totals; what it returns must still
        # be its schedule's CVaR summed in asset order, as enumeration's is
        matrix, weights, alpha = data.draw(small_instances(exact=False))
        n, k1 = matrix.means.shape
        start = data.draw(st.tuples(*[st.integers(0, k1 - 1)] * n))
        for search in (coordinate_descent_cvar, exhaustive_cvar_argmin):
            indices, value = search(matrix, alpha, start)
            schedule = schedule_from_indices(matrix.fleet, indices)
            dist = schedule_cost_distribution(matrix, schedule)
            assert value == cvar_alpha(dist, alpha)


class TestQuotedCounts:
    """The walk's counts that the fleetmaint.optimize docstrings quote for
    the default profile (N=5, T=12, S=800, seed 1), counted as the
    hypothesis tests count rows priced."""

    def test_walk_from_the_descent_at_the_default_profile(self, monkeypatch):
        config = parse_config({}).with_seed(1)
        fleet = config.build_fleet()
        inputs = sample_pricing_inputs(fleet, config.n_scenarios, config.scenario_seed)
        matrix = build_matrix(fleet, inputs, config.risk)
        alpha = config.policies.alpha
        start = tuple(int(c) for c in np.argmin(matrix.means, axis=1))
        incumbent, _ = coordinate_descent_cvar(matrix, alpha, start)
        blocks = []
        block_rows = optimize._block_rows

        def recording(matrix, dates):
            blocks.append(sum(used.size for used in dates))
            return block_rows(matrix, dates)

        monkeypatch.setattr(optimize, "_block_rows", recording)
        (indices, _), rows = priced_rows(matrix, alpha, incumbent)
        assert blocks == [23]
        assert sum(rows) == 1 + 400  # the incumbent, then the survivors
        assert schedule_from_indices(fleet, indices) == integrated_cvar(matrix, alpha)


class TestRoom:
    """Both searches price only the rows the mean bound leaves them, and
    answer as they do over every date of the whole table."""

    @staticmethod
    def check(matrix, alpha, start):
        for search, reference in (
            (coordinate_descent_cvar, reference_descent),
            (exhaustive_cvar_argmin, reference_walk),
        ):
            assert search(matrix, alpha, start) == reference(matrix, alpha, start)
        _, rows = priced_rows(matrix, alpha, start)
        assert sum(rows) == 1 + lattice_survivors(matrix, matrix.scenarios.weights, alpha, start)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_all_dates_with_exact_ties(self, data):
        matrix, weights, alpha = data.draw(small_instances(exact=True))
        n, k1 = matrix.means.shape
        self.check(matrix, alpha, data.draw(st.tuples(*[st.integers(0, k1 - 1)] * n)))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_all_dates_on_float_costs(self, data):
        matrix, weights, alpha = data.draw(small_instances(exact=False))
        n, k1 = matrix.means.shape
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

    @pytest.mark.parametrize("start", ["expected", "none"])
    def test_block_holds_the_rows_its_survivors_use(self, start, monkeypatch):
        fleet = make_fleet(n_assets=3, horizon=5)
        scenarios = random_scenarios(fleet, n_scenarios=40, seed=9)
        matrix = build_matrix(fleet, scenarios, RiskParams())
        incumbent = {
            "expected": tuple(int(c) for c in np.argmin(matrix.means, axis=1)),
            "none": (5, 5, 5),
        }[start]
        blocks = []
        block_rows = optimize._block_rows

        def recording(matrix, dates):
            blocks.append(([list(used) for used in dates], block_rows(matrix, dates)))
            return blocks[-1][1]

        monkeypatch.setattr(optimize, "_block_rows", recording)
        exhaustive_cvar_argmin(matrix, 0.9, incumbent)
        survivors = walk_survivors(matrix, 0.9, incumbent)
        [(dates, rows)] = blocks
        assert dates == [sorted(set(column.tolist())) for column in survivors.T]
        table = whole_table(matrix)
        for i, (used, held) in enumerate(zip(dates, rows)):
            assert held.tobytes() == table[i, used].tobytes()
        # one block, and each asset's rows a view of it
        assert all(held.base is rows[0].base for held in rows)


def exact_cvar(costs, indices, alpha):
    """A schedule's CVaR on equally likely scenarios in exact rationals:
    the mean of its totals at or above their lower alpha-quantile."""
    totals = sorted(
        sum(Fraction(float(costs[i, c, w])) for i, c in enumerate(indices))
        for w in range(costs.shape[2])
    )
    s = len(totals)
    k = min(j for j in range(s) if Fraction(j + 1, s) >= Fraction(alpha) - Fraction(CUM_TOL))
    tail = [v for v in totals if v >= totals[k]]
    return sum(tail) / len(tail)


class TestMetamorphic:
    """Changes to the costs whose effect on every schedule's CVaR is known
    exactly. On the exact instances every total is an exact sum, so each
    CVaR is one correctly rounded division of exact sums: schedules with
    different CVaRs stay apart, ties stay ties, and both searches must
    return the same schedule and the transformed exact value."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def test_shift_scale_and_repeat_move_only_the_value(self, data):
        matrix, _, alpha = data.draw(small_instances(exact=True))
        costs = whole_table(matrix)
        n, k1, _ = costs.shape
        start = data.draw(st.tuples(*[st.integers(0, k1 - 1)] * n))
        asset = data.draw(st.integers(0, n - 1))
        shift = Fraction(data.draw(st.integers(1, 41)), 2)
        power = data.draw(st.integers(-4, 4))
        shifted = costs.copy()
        shifted[asset] += float(shift)
        changes = [
            (shifted, lambda value: value + shift),
            (costs * 2.0 ** power, lambda value: value * Fraction(2) ** power),
            (np.repeat(costs, 2, axis=2), lambda value: value),
        ]
        for search in (coordinate_descent_cvar, exhaustive_cvar_argmin):
            indices, value = search(matrix, alpha, start)
            exact = exact_cvar(costs, indices, alpha)
            assert value == float(exact)
            for changed, image in changes:
                result = search(hand_matrix(matrix.fleet, changed), alpha, start)
                # fl(v) + shift need not be fl(v + shift), so the shift is
                # checked against the exact value
                assert result == (indices, float(image(exact)))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def test_permuting_assets_permutes_the_walks_argmin(self, data):
        matrix, weights, alpha = data.draw(small_instances(exact=True))
        costs = whole_table(matrix)
        n, k1, _ = costs.shape
        start = data.draw(st.tuples(*[st.integers(0, k1 - 1)] * n))
        order = data.draw(st.permutations(range(n)))
        indices, value = exhaustive_cvar_argmin(matrix, alpha, start)
        permuted = hand_matrix(matrix.fleet, costs[order])
        result = exhaustive_cvar_argmin(permuted, alpha, tuple(start[j] for j in order))
        # exact totals do not depend on the order of their terms
        assert result[1] == value
        # ties resolve to the earliest schedule, which a permutation moves;
        # the descent's path depends on the visiting order too
        schedules = list(itertools.product(range(k1), repeat=n))
        totals = np.array([sum(costs[i, c] for i, c in enumerate(x)) for x in schedules])
        if np.count_nonzero(batch_cvar(totals, weights, alpha) == value) == 1:
            assert result[0] == tuple(indices[j] for j in order)
