"""Baseline rules and the two cost-driven scheduling policies."""

import itertools

import numpy as np
import pytest

from fleetmaint.criteria import CostDistribution, cvar_alpha, expected_cost
from fleetmaint.fleet import Schedule
from fleetmaint import policies
from fleetmaint.optimize import build_matrix, schedule_cost_distribution
from fleetmaint.policies import (
    PolicyKind,
    PolicyParams,
    calendar_only,
    integrated_cvar,
    integrated_expected,
    rul_threshold,
    run_policy,
    usage_only,
)
from fleetmaint.riskcost import RiskParams
from helpers import (
    asset_scenario_cost,
    const_scenarios,
    make_asset,
    make_fleet,
    random_scenarios,
    total_cost,
)


class TestCalendarOnly:
    def test_gap_to_limit(self):
        fleet = make_fleet(calendar_limit=10.0, initial_age=6.0)
        assert calendar_only(fleet).date_for("A1") == 4

    def test_already_past_limit_maintains_immediately(self):
        fleet = make_fleet(calendar_limit=10.0, initial_age=11.0)
        assert calendar_only(fleet).date_for("A1") == 1

    def test_limit_beyond_horizon_gives_no_date(self):
        fleet = make_fleet(horizon=12, calendar_limit=16.0, initial_age=1.0)
        assert calendar_only(fleet).date_for("A1") is None

    def test_fractional_gap_rounds_up(self):
        fleet = make_fleet(calendar_limit=10.5, initial_age=6.0)
        assert calendar_only(fleet).date_for("A1") == 5

    def test_exact_integer_gap_not_inflated_by_float_noise(self):
        # 0.1 + 0.2 style arithmetic must not push the date to 5
        fleet = make_fleet(calendar_limit=10.3, initial_age=6.3)
        assert calendar_only(fleet).date_for("A1") == 4

    def test_per_asset_independence(self):
        fleet = make_fleet(n_assets=2)
        schedule = calendar_only(fleet)
        assert schedule.date_for("A1") == schedule.date_for("A2")


class TestUsageOnly:
    def test_mean_path_crossing(self):
        fleet = make_fleet(usage_limit=200.0, initial_usage=170.0)
        scenarios = const_scenarios(fleet, [8.0], increment=15.0)
        assert usage_only(fleet, scenarios).date_for("A1") == 2

    def test_mean_over_scenarios_drives_the_date(self):
        fleet = make_fleet(usage_limit=200.0, initial_usage=170.0)
        # scenario increments 10 and 20 average to 15 per period
        inc = np.empty((1, 2, fleet.horizon))
        inc[0, 0] = 10.0
        inc[0, 1] = 20.0
        scenarios = const_scenarios(fleet, np.array([[8.0, 8.0]]))
        scenarios = type(scenarios)(usage_increments=inc, latent_rul=scenarios.latent_rul)
        assert usage_only(fleet, scenarios).date_for("A1") == 2

    def test_never_crossing_gives_no_date(self):
        fleet = make_fleet(usage_limit=10_000.0, initial_usage=0.0)
        scenarios = const_scenarios(fleet, [8.0], increment=15.0)
        assert usage_only(fleet, scenarios).date_for("A1") is None

    def test_limit_already_reached(self):
        fleet = make_fleet(usage_limit=200.0, initial_usage=230.0)
        scenarios = const_scenarios(fleet, [8.0], increment=15.0)
        assert usage_only(fleet, scenarios).date_for("A1") == 1

    def test_exact_boundary_counts_as_crossed(self):
        fleet = make_fleet(usage_limit=200.0, initial_usage=155.0)
        scenarios = const_scenarios(fleet, [8.0], increment=15.0)
        # cumulative usage after period 3 is exactly 200
        assert usage_only(fleet, scenarios).date_for("A1") == 3


class TestRulThreshold:
    def test_degenerate_rul_triggers_at_expiry(self):
        fleet = make_fleet()
        scenarios = const_scenarios(fleet, [5.0])
        assert rul_threshold(fleet, scenarios).date_for("A1") == 5

    def test_uniform_sample_quantile(self):
        fleet = make_fleet()
        ruls = np.arange(3.0, 13.0)[None, :]
        scenarios = const_scenarios(fleet, ruls)
        # P(R <= t) reaches 0.6 first at t=8 (six of ten values)
        assert rul_threshold(fleet, scenarios, 0.6).date_for("A1") == 8

    def test_all_lives_outlast_horizon(self):
        fleet = make_fleet(horizon=12)
        scenarios = const_scenarios(fleet, np.array([[30.0, 25.0, 40.0]]))
        assert rul_threshold(fleet, scenarios).date_for("A1") is None

    def test_trigger_level_shifts_the_date(self):
        fleet = make_fleet()
        ruls = np.arange(3.0, 13.0)[None, :]
        scenarios = const_scenarios(fleet, ruls)
        assert rul_threshold(fleet, scenarios, 0.2).date_for("A1") == 4
        assert rul_threshold(fleet, scenarios, 0.95).date_for("A1") == 12

    def test_invalid_trigger_rejected(self):
        fleet = make_fleet()
        scenarios = const_scenarios(fleet, [5.0])
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                rul_threshold(fleet, scenarios, bad)


class TestBaselinesIgnoreCosts:
    def test_schedules_unchanged_under_cost_rescaling(self):
        base = make_fleet(n_assets=2, horizon=10)
        pricey = make_fleet(
            n_assets=2,
            horizon=10,
            cost_pm=900.0,
            cost_fail=1.0,
            cost_perf=0.0,
            cost_early=500.0,
        )
        scenarios = random_scenarios(base, n_scenarios=30, seed=2)
        for policy in (calendar_only,):
            assert policy(base).dates == policy(pricey).dates
        assert usage_only(base, scenarios).dates == usage_only(pricey, scenarios).dates
        assert (
            rul_threshold(base, scenarios).dates
            == rul_threshold(pricey, scenarios).dates
        )


def matrix_for(fleet, scenarios):
    return build_matrix(fleet, scenarios, RiskParams())


def scan_schedules(fleet, scenarios, objective):
    """First-wins strict argmin over the full lattice, via direct
    per-scenario cost evaluation (no shared matrix code)."""
    candidates = list(range(1, fleet.horizon + 1)) + [None]
    best_schedule, best_value = None, None
    for dates in itertools.product(candidates, repeat=fleet.n_assets):
        schedule = Schedule(dict(zip(fleet.ids, dates)))
        totals = np.array(
            [
                total_cost(schedule, fleet, scenarios, w)
                for w in range(scenarios.n_scenarios)
            ]
        )
        value = objective(CostDistribution(totals, scenarios.weights.copy()))
        if best_value is None or value < best_value - 1e-12:
            best_schedule, best_value = schedule, value
    return best_schedule, best_value


class TestIntegratedExpected:
    def test_zero_costs_tie_resolves_to_first_date(self):
        fleet = make_fleet(
            cost_pm=0.0, cost_fail=0.0, cost_perf=0.0, cost_early=0.0, horizon=5
        )
        scenarios = const_scenarios(fleet, [3.0])
        schedule = integrated_expected(matrix_for(fleet, scenarios))
        assert schedule.date_for("A1") == 1

    def test_single_asset_candidate_table(self):
        fleet = make_fleet(horizon=8)
        scenarios = random_scenarios(fleet, n_scenarios=25, seed=9)
        schedule = integrated_expected(matrix_for(fleet, scenarios))
        asset = fleet.assets[0]
        table = {}
        for date in list(range(1, 9)) + [None]:
            table[date] = sum(
                float(scenarios.weights[w])
                * asset_scenario_cost(
                    asset, date, float(scenarios.latent_rul[0, w]), 8
                ).total
                for w in range(25)
            )
        best = min(table.values())
        assert table[schedule.date_for("A1")] == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_joint_enumeration(self, seed):
        fleet = make_fleet(n_assets=2, horizon=3)
        scenarios = random_scenarios(fleet, n_scenarios=50, seed=seed)
        matrix = matrix_for(fleet, scenarios)
        schedule = integrated_expected(matrix)
        ref_schedule, ref_value = scan_schedules(fleet, scenarios, expected_cost)
        value = expected_cost(
            schedule_cost_distribution(matrix, schedule)
        )
        assert value == pytest.approx(ref_value, abs=1e-9)
        assert schedule.dates == ref_schedule.dates

    def test_cost_scaling_leaves_schedule_unchanged(self):
        fleet = make_fleet(n_assets=2, horizon=6)
        scaled = make_fleet(
            n_assets=2,
            horizon=6,
            cost_pm=20.0 * 3.7,
            cost_fail=100.0 * 3.7,
            cost_perf=5.0 * 3.7,
            cost_early=12.0 * 3.7,
        )
        scenarios = random_scenarios(fleet, n_scenarios=40, seed=21)
        assert (
            integrated_expected(matrix_for(fleet, scenarios)).dates
            == integrated_expected(matrix_for(scaled, scenarios)).dates
        )


class TestIntegratedCvar:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_joint_enumeration(self, seed):
        fleet = make_fleet(n_assets=2, horizon=3)
        scenarios = random_scenarios(fleet, n_scenarios=50, seed=seed)
        matrix = matrix_for(fleet, scenarios)
        schedule = integrated_cvar(matrix, alpha=0.9)
        _, ref_value = scan_schedules(
            fleet, scenarios, lambda d: cvar_alpha(d, 0.9)
        )
        value = cvar_alpha(
            schedule_cost_distribution(matrix, schedule), 0.9
        )
        assert value == pytest.approx(ref_value, abs=1e-9)

    def test_single_scenario_reduces_to_expected(self):
        fleet = make_fleet(n_assets=2, horizon=6)
        scenarios = const_scenarios(fleet, [4.0, 9.0])
        matrix = matrix_for(fleet, scenarios)
        a = integrated_expected(matrix)
        b = integrated_cvar(matrix, alpha=0.9)
        assert a.dates == b.dates

    def test_descent_fallback_not_worse_than_warm_start(self):
        fleet = make_fleet(n_assets=3, horizon=6)
        scenarios = random_scenarios(fleet, n_scenarios=60, seed=55)
        matrix = matrix_for(fleet, scenarios)
        warm = integrated_expected(matrix)
        warm_val = cvar_alpha(
            schedule_cost_distribution(matrix, warm), 0.9
        )
        descended = integrated_cvar(matrix, alpha=0.9, budget=1)
        desc_val = cvar_alpha(
            schedule_cost_distribution(matrix, descended), 0.9
        )
        exact = integrated_cvar(matrix, alpha=0.9)
        exact_val = cvar_alpha(
            schedule_cost_distribution(matrix, exact), 0.9
        )
        assert exact_val <= desc_val + 1e-9
        assert desc_val <= warm_val + 1e-9

    @pytest.mark.parametrize(
        "below, enumerates", [(1, False), (0, True)], ids=["(T+1)^N-1", "(T+1)^N"]
    )
    def test_enumerates_only_when_lattice_fits(self, monkeypatch, below, enumerates):
        fleet = make_fleet(n_assets=2, horizon=3)
        scenarios = random_scenarios(fleet, n_scenarios=30, seed=13)
        search, calls = policies.exhaustive_cvar_argmin, []
        monkeypatch.setattr(
            policies, "exhaustive_cvar_argmin", lambda *args: calls.append(args) or search(*args)
        )
        budget = (fleet.horizon + 1) ** fleet.n_assets - below
        integrated_cvar(matrix_for(fleet, scenarios), budget=budget)
        assert len(calls) == int(enumerates)

    def test_invalid_alpha_rejected(self):
        fleet = make_fleet()
        scenarios = const_scenarios(fleet, [5.0])
        with pytest.raises(ValueError):
            integrated_cvar(matrix_for(fleet, scenarios), alpha=1.0)


class TestDispatcher:
    def test_every_kind_routes(self):
        fleet = make_fleet(n_assets=2, horizon=4)
        scenarios = random_scenarios(fleet, n_scenarios=20, seed=71)
        matrix = matrix_for(fleet, scenarios)
        for kind in PolicyKind:
            schedule = run_policy(kind, matrix)
            assert set(schedule.dates) == set(fleet.ids)

    def test_forwards_every_param(self, monkeypatch):
        fleet = make_fleet(n_assets=3, horizon=6)
        scenarios = random_scenarios(fleet, n_scenarios=60, seed=71)
        matrix = matrix_for(fleet, scenarios)
        params = PolicyParams(trigger_prob=0.2, alpha=0.7, exhaustive_budget=1)

        rul = run_policy(PolicyKind.RUL_THRESHOLD, matrix, params)
        assert rul.dates == rul_threshold(fleet, scenarios, trigger_prob=0.2).dates
        assert rul.dates != rul_threshold(fleet, scenarios).dates

        expected = integrated_cvar(matrix, alpha=0.7, budget=1)
        calls = []
        descent, search = policies.coordinate_descent_cvar, policies.exhaustive_cvar_argmin
        monkeypatch.setattr(
            policies, "coordinate_descent_cvar",
            lambda *args: calls.append(args[1]) or descent(*args),
        )
        monkeypatch.setattr(
            policies, "exhaustive_cvar_argmin", lambda *args: calls.append(args) or search(*args)
        )
        cvar = run_policy(PolicyKind.INTEGRATED_CVAR, matrix, params)
        assert cvar.dates == expected.dates
        # descent at alpha 0.7, and a budget of 1 leaves nothing to enumerate
        assert calls == [0.7]

    def test_accepts_plain_strings(self):
        fleet = make_fleet()
        scenarios = const_scenarios(fleet, [5.0])
        direct = calendar_only(fleet)
        matrix = matrix_for(fleet, scenarios)
        assert run_policy("calendar_only", matrix).dates == direct.dates

    def test_unknown_kind_rejected(self):
        fleet = make_fleet()
        scenarios = const_scenarios(fleet, [5.0])
        with pytest.raises(ValueError):
            run_policy("oldest_first", matrix_for(fleet, scenarios))
