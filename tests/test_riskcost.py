"""Cost model: fixed points, accrual windows, additivity, proxy measure.

The scalar cost model under test here is the reference implementation in
``helpers``; the library's matrix build is checked against it in
test_optimize.py. The failure proxy is checked on the library's path,
the evaluation matrix as summarize_policy reads it.
"""

import math

import numpy as np
import pytest

from fleetmaint.fleet import Schedule
from fleetmaint.optimize import build_matrix, schedule_cost_distribution
from fleetmaint.report import summarize_policy
from fleetmaint.riskcost import RiskParams, failure_probability, performance_penalty
from helpers import (
    CostBreakdown,
    asset_scenario_cost,
    const_scenarios,
    early_penalty,
    effective_rul,
    enumerate_schedules,
    failure_proxy,
    make_asset,
    make_fleet,
    random_scenarios,
    total_cost,
)

# Frozen from direct evaluation of p_max * exp(-decay_rate * m) at m=1.
P_FAIL_MARGIN_1 = 0.44874822510396395


def brute_force_cost(asset, date, latent_rul, horizon, params=RiskParams()):
    """Slow reference: literal per-period accumulation of the four terms."""
    pm = fail = perf = early = 0.0
    last = horizon if date is None else date - 1
    for t in range(1, last + 1):
        m = latent_rul - t
        if m <= 0:
            p = params.p_max
        else:
            p = min(params.p_max, params.p_max * math.exp(-params.decay_rate * m))
        fail += asset.cost_fail * p
        ramp = (params.perf_window - m) / params.perf_window
        perf += asset.cost_perf * min(1.0, max(0.0, ramp))
    if date is not None:
        pm = asset.cost_pm
        early = asset.cost_early * max(0.0, latent_rul - date) / asset.rul_mean
    return pm, fail, perf, early


def matrix_proxy(schedule, fleet, scenarios, params=RiskParams()):
    """The failure proxy as a study reports it: N lookups in the matrix."""
    matrix = build_matrix(fleet, scenarios, params)
    dist = schedule_cost_distribution(matrix, schedule)
    return summarize_policy("p", schedule, dist, matrix, 0.9).mean_failure_proxy


class TestEffectiveRul:
    def test_values(self):
        assert effective_rul(9.0, 4) == 5.0
        assert effective_rul(2.5, 4) == -1.5
        assert effective_rul(7.0, 7) == 0.0

    def test_bad_period(self):
        with pytest.raises(ValueError):
            effective_rul(5.0, 0)


class TestFailureProbability:
    def test_saturates_at_zero_margin(self):
        assert failure_probability(0.0) == 0.95

    def test_saturates_for_negative_margin(self):
        assert failure_probability(-3.0) == 0.95

    def test_unit_margin_fixed_point(self):
        assert failure_probability(1.0) == pytest.approx(P_FAIL_MARGIN_1, abs=1e-15)

    def test_monotone_nonincreasing_and_bounded(self):
        grid = [-5.0, -1.0, 0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0]
        values = [failure_probability(m) for m in grid]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert all(0 < v <= 0.95 for v in values)

    def test_vectorized_matches_scalar(self):
        edges = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]
        grid = np.concatenate([np.linspace(-4, 12, 33), edges])
        vec = failure_probability(grid)
        assert vec.shape == grid.shape
        for m, v in zip(grid, vec):
            assert failure_probability(float(m)) == v
        # saturated at p_max up to the smallest positive margin, then decaying
        assert vec[-6:].tolist() == [0.95, 0.95, 0.95, 0.95, 0.0, 0.95]

    def test_respects_params(self):
        params = RiskParams(p_max=0.5, decay_rate=1.0, perf_window=2.0)
        assert failure_probability(0.0, params) == 0.5
        assert failure_probability(2.0, params) == pytest.approx(0.5 * math.exp(-2.0))

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            RiskParams(p_max=0.96)
        with pytest.raises(ValueError):
            RiskParams(p_max=0.0)
        with pytest.raises(ValueError):
            RiskParams(decay_rate=0.0)
        with pytest.raises(ValueError):
            RiskParams(perf_window=0.0)


class TestPerformancePenalty:
    def test_zero_at_window_margin(self):
        assert performance_penalty(4.0, 5.0) == 0.0

    def test_zero_above_window(self):
        assert performance_penalty(11.0, 5.0) == 0.0

    def test_midpoint_of_ramp(self):
        assert performance_penalty(2.0, 5.0) == 2.5

    def test_saturates_below_zero_margin(self):
        assert performance_penalty(0.0, 5.0) == 5.0
        assert performance_penalty(-2.0, 5.0) == 5.0

    def test_monotone_nonincreasing_in_margin(self):
        grid = np.linspace(-2, 8, 41)
        values = performance_penalty(grid, 5.0)
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestEarlyPenalty:
    def test_full_example(self):
        assert early_penalty(8.0, 2, 6.0, 12.0) == 12.0

    def test_zero_when_life_spent(self):
        assert early_penalty(8.0, 8, 6.0, 12.0) == 0.0
        assert early_penalty(3.0, 8, 6.0, 12.0) == 0.0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            early_penalty(8.0, 0, 6.0, 12.0)
        with pytest.raises(ValueError):
            early_penalty(8.0, 2, 0.0, 12.0)


class TestAssetScenarioCost:
    def test_immediate_date_charges_pm_and_early_only(self):
        asset = make_asset()
        out = asset_scenario_cost(asset, 1, 6.0, 12)
        assert out.pm == asset.cost_pm
        assert out.fail == 0.0
        assert out.perf == 0.0
        assert out.early == pytest.approx(asset.cost_early * 5.0 / asset.rul_mean)
        assert out.total == pytest.approx(out.pm + out.early)

    @pytest.mark.parametrize("date", [None, 1, 2, 5, 11, 12])
    @pytest.mark.parametrize("rul", [0.0, 1.3, 4.0, 9.7, 15.0])
    def test_matches_brute_force(self, date, rul):
        asset = make_asset()
        out = asset_scenario_cost(asset, date, rul, 12)
        pm, fail, perf, early = brute_force_cost(asset, date, rul, 12)
        assert out.pm == pytest.approx(pm, abs=1e-12)
        assert out.fail == pytest.approx(fail, abs=1e-9)
        assert out.perf == pytest.approx(perf, abs=1e-9)
        assert out.early == pytest.approx(early, abs=1e-12)

    def test_no_action_has_no_pm_or_early(self):
        out = asset_scenario_cost(make_asset(), None, 5.0, 12)
        assert out.pm == 0.0 and out.early == 0.0
        assert out.fail > 0 and out.perf > 0

    def test_last_date_versus_none_identity(self):
        # maintaining in the final period differs from not maintaining by
        # +pm +early -hazard(T), since period T's hazard is no longer accrued
        asset = make_asset()
        params = RiskParams()
        for rul in (0.5, 3.0, 8.2, 14.0):
            at_t = asset_scenario_cost(asset, 12, rul, 12, params)
            none = asset_scenario_cost(asset, None, rul, 12, params)
            m = rul - 12
            hazard_t = asset.cost_fail * failure_probability(m, params)
            hazard_t += performance_penalty(m, asset.cost_perf, params)
            expected_delta = asset.cost_pm + at_t.early - hazard_t
            assert at_t.total - none.total == pytest.approx(expected_delta, abs=1e-9)

    def test_delay_by_one_identity(self):
        asset = make_asset()
        params = RiskParams()
        rng = np.random.default_rng(5)
        for _ in range(25):
            rul = float(rng.uniform(0, 15))
            tau = int(rng.integers(1, 12))
            a = asset_scenario_cost(asset, tau, rul, 12, params)
            b = asset_scenario_cost(asset, tau + 1, rul, 12, params)
            m = rul - tau
            hazard_tau = asset.cost_fail * failure_probability(m, params)
            hazard_tau += performance_penalty(m, asset.cost_perf, params)
            early_delta = (
                early_penalty(rul, tau + 1, asset.rul_mean, asset.cost_early)
                - early_penalty(rul, tau, asset.rul_mean, asset.cost_early)
            )
            assert b.total - a.total == pytest.approx(hazard_tau + early_delta, abs=1e-9)

    def test_components_nonnegative(self):
        rng = np.random.default_rng(3)
        asset = make_asset()
        for _ in range(50):
            date = rng.choice([None, *range(1, 13)])
            date = None if date is None else int(date)
            out = asset_scenario_cost(asset, date, float(rng.uniform(0, 20)), 12)
            assert out.pm >= 0 and out.fail >= 0 and out.perf >= 0 and out.early >= 0

    def test_invalid_dates_rejected(self):
        asset = make_asset()
        for bad in (0, 13, -2, 3.5):
            with pytest.raises(ValueError):
                asset_scenario_cost(asset, bad, 5.0, 12)

    def test_breakdown_rejects_negative_component(self):
        with pytest.raises(ValueError):
            CostBreakdown(pm=-1.0, fail=0.0, perf=0.0, early=0.0)


class TestTotalCost:
    def test_single_asset_matches_component(self):
        fleet = make_fleet(n_assets=1)
        scenarios = const_scenarios(fleet, [6.0])
        total = total_cost(Schedule({"A1": 3}), fleet, scenarios, 0)
        direct = asset_scenario_cost(fleet.assets[0], 3, 6.0, 12)
        assert total == pytest.approx(direct.total, abs=1e-12)

    def test_additive_over_assets(self):
        fleet = make_fleet(n_assets=3)
        scenarios = const_scenarios(fleet, [6.0, 2.0, 11.0])
        schedule = Schedule({"A1": 2, "A2": None, "A3": 7})
        total = total_cost(schedule, fleet, scenarios, 0)
        parts = [
            asset_scenario_cost(fleet.assets[i], schedule.date_for(f"A{i + 1}"), r, 12).total
            for i, r in enumerate((6.0, 2.0, 11.0))
        ]
        assert total == pytest.approx(sum(parts), abs=1e-9)

    def test_missing_asset_treated_as_none(self):
        fleet = make_fleet(n_assets=2)
        scenarios = const_scenarios(fleet, [6.0, 2.0])
        explicit = total_cost(Schedule({"A1": 2, "A2": None}), fleet, scenarios, 0)
        implicit = total_cost(Schedule({"A1": 2}), fleet, scenarios, 0)
        assert implicit == explicit

    def test_invalid_schedule_rejected(self):
        fleet = make_fleet(n_assets=1)
        scenarios = const_scenarios(fleet, [6.0])
        with pytest.raises(ValueError):
            total_cost(Schedule({"A1": 13}), fleet, scenarios, 0)

    def test_bad_scenario_index_rejected(self):
        fleet = make_fleet(n_assets=1)
        scenarios = const_scenarios(fleet, [6.0])
        with pytest.raises(ValueError):
            total_cost(Schedule({"A1": 1}), fleet, scenarios, 5)


class TestFailureProxy:
    def test_all_immediate_dates_accrue_nothing(self):
        fleet = make_fleet(n_assets=2)
        scenarios = const_scenarios(fleet, [6.0, 3.0])
        schedule = Schedule({"A1": 1, "A2": 1})
        assert matrix_proxy(schedule, fleet, scenarios) == 0.0

    def test_two_term_hand_value(self):
        # single scenario with latent RUL 2 and a date of 3 accrues the
        # failure probabilities at margins 1 and 0
        fleet = make_fleet(n_assets=1)
        scenarios = const_scenarios(fleet, [2.0])
        proxy = matrix_proxy(Schedule({"A1": 3}), fleet, scenarios)
        assert proxy == pytest.approx(P_FAIL_MARGIN_1 + 0.95, abs=1e-12)

    def test_scenario_weighting(self):
        fleet = make_fleet(n_assets=1)
        scenarios = const_scenarios(fleet, np.array([[2.0, 30.0]]))
        proxy = matrix_proxy(Schedule({"A1": 3}), fleet, scenarios)
        lhs = 0.5 * (P_FAIL_MARGIN_1 + 0.95)
        rhs = 0.5 * sum(
            0.95 * math.exp(-0.75 * (30.0 - t)) for t in (1, 2)
        )
        assert proxy == pytest.approx(lhs + rhs, rel=1e-12)

    def test_unscheduled_accrues_whole_horizon(self):
        fleet = make_fleet(n_assets=1)
        scenarios = const_scenarios(fleet, [5.0])
        none_proxy = matrix_proxy(Schedule({"A1": None}), fleet, scenarios)
        expected = sum(failure_probability(5.0 - t) for t in range(1, 13))
        assert none_proxy == pytest.approx(expected, rel=1e-12)

    def test_none_dominates_every_dated_schedule(self):
        fleet = make_fleet(n_assets=2)
        rng = np.random.default_rng(11)
        scenarios = const_scenarios(fleet, rng.uniform(0, 14, size=(2, 6)))
        none_proxy = matrix_proxy(Schedule({}), fleet, scenarios)
        for date1 in (1, 5, 12):
            for date2 in (None, 2, 9):
                dated = matrix_proxy(
                    Schedule({"A1": date1, "A2": date2}), fleet, scenarios
                )
                assert dated <= none_proxy + 1e-12

    @pytest.mark.parametrize(
        "n_assets, horizon, seed",
        [(1, 4, 3), (2, 3, 5), (3, 4, 7), (3, 2, 9)],
    )
    def test_matches_scalar_oracle_on_every_schedule(self, n_assets, horizon, seed):
        fleet = make_fleet(n_assets=n_assets, horizon=horizon)
        scenarios = random_scenarios(fleet, n_scenarios=9, seed=seed)
        params = RiskParams(p_max=0.8, decay_rate=0.5, perf_window=3.0)
        matrix = build_matrix(fleet, scenarios, params)
        for schedule in enumerate_schedules(fleet):
            dist = schedule_cost_distribution(matrix, schedule)
            proxy = summarize_policy("p", schedule, dist, matrix, 0.9).mean_failure_proxy
            assert proxy == pytest.approx(
                failure_proxy(schedule, fleet, scenarios, params), rel=1e-12, abs=0.0
            )
