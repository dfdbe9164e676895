"""Fleet model: schedule validation, spec validation, synthetic generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetmaint.fleet import (
    FleetGenConfig,
    FleetSpec,
    Schedule,
    generate_fleet,
    validate_schedule,
)
from helpers import make_asset, make_fleet


class TestValidateSchedule:
    def test_all_none_is_valid(self):
        fleet = make_fleet(n_assets=2)
        assert validate_schedule(Schedule({"A1": None, "A2": None}), fleet) == []

    def test_empty_map_is_valid(self):
        assert validate_schedule(Schedule({}), make_fleet(n_assets=2)) == []

    def test_date_past_horizon_flagged(self):
        fleet = make_fleet(n_assets=1, horizon=12)
        violations = validate_schedule(Schedule({"A1": 13}), fleet)
        assert len(violations) == 1
        assert "horizon" in violations[0]

    def test_date_zero_flagged(self):
        violations = validate_schedule(Schedule({"A1": 0}), make_fleet())
        assert len(violations) == 1

    def test_unknown_asset_flagged(self):
        violations = validate_schedule(Schedule({"A9": 3}), make_fleet(n_assets=2))
        assert violations and "A9" in violations[0]

    def test_non_integer_date_flagged(self):
        violations = validate_schedule(Schedule({"A1": 2.5}), make_fleet())
        assert violations and "integer" in violations[0]

    def test_valid_mixed_schedule(self):
        fleet = make_fleet(n_assets=3, horizon=12)
        schedule = Schedule({"A1": 1, "A2": 12, "A3": None})
        assert validate_schedule(schedule, fleet) == []


class TestSpecValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec(assets=(make_asset(), make_asset()), horizon=12)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec(assets=(), horizon=12)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec(assets=(make_asset(),), horizon=0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("calendar_limit", 0.0),
            ("usage_limit", -1.0),
            ("rul_mean", 0.0),
            ("rul_std", 0.0),
            ("usage_mean_per_period", 0.0),
            ("usage_cv", 1.0),
            ("usage_cv", -0.1),
            ("initial_age", -1.0),
            ("cost_fail", -5.0),
        ],
    )
    def test_bad_asset_params_rejected(self, field, value):
        with pytest.raises(ValueError):
            make_asset(**{field: value})

    @pytest.mark.parametrize("cv", [1e-200, 1e-158], ids=["square-underflows", "shape-overflows"])
    def test_usage_cv_with_no_finite_gamma_shape_rejected(self, cv):
        message = r"^asset A1: usage_cv .* is too small: 1/usage_cv\*\*2 is not finite$"
        with pytest.raises(ValueError, match=message):
            make_asset(usage_cv=cv)

    def test_small_usage_cv_with_a_finite_gamma_shape_accepted(self):
        assert make_asset(usage_cv=1e-150).usage_cv == 1e-150

    def test_carriage_return_in_id_rejected(self):
        with pytest.raises(ValueError, match=r"asset id 'a\\rb' must not contain a carriage return"):
            make_asset(id="a\rb")


class TestGenerateFleet:
    def test_collapsed_ranges_give_exact_parameters(self):
        config = FleetGenConfig(
            n_assets=3,
            horizon=12,
            calendar_limit_range=(10, 10),
            usage_limit_range=(200, 200),
            rul_mean_range=(8, 8),
            rul_std_range=(1.5, 1.5),
            usage_mean_range=(15, 15),
            usage_cv_range=(0.25, 0.25),
            initial_fraction_range=(0.5, 0.5),
            seed=7,
        )
        fleet = generate_fleet(config)
        for asset in fleet.assets:
            assert asset.calendar_limit == 10.0
            assert asset.usage_limit == 200.0
            assert asset.rul_mean == 8.0
            assert asset.rul_std == 1.5
            assert asset.usage_mean_per_period == 15.0
            assert asset.usage_cv == 0.25
            assert asset.initial_age == pytest.approx(5.0)
            assert asset.initial_usage == pytest.approx(100.0)

    def test_deterministic_for_same_config(self):
        config = FleetGenConfig(n_assets=5, seed=123)
        assert generate_fleet(config) == generate_fleet(config)

    def test_different_seeds_differ(self):
        a = generate_fleet(FleetGenConfig(n_assets=5, seed=1))
        b = generate_fleet(FleetGenConfig(n_assets=5, seed=2))
        assert a != b

    def test_default_profile_respects_ranges(self):
        config = FleetGenConfig(n_assets=40, seed=11)
        fleet = generate_fleet(config)
        assert fleet.ids == tuple(f"A{j + 1}" for j in range(40))
        for a in fleet.assets:
            assert 8 <= a.calendar_limit <= 16
            assert a.calendar_limit == int(a.calendar_limit)
            assert 160 <= a.usage_limit <= 320
            assert 4 <= a.rul_mean <= 13
            assert 0.8 <= a.rul_std <= 2.4
            assert 10 <= a.usage_mean_per_period <= 22
            assert 0.15 <= a.usage_cv <= 0.35
            assert 0.3 * a.calendar_limit <= a.initial_age <= 0.8 * a.calendar_limit
            assert 0.3 * a.usage_limit <= a.initial_usage <= 0.8 * a.usage_limit

    def test_independent_initial_fractions(self):
        # age and usage fractions come from separate draws, so the implied
        # fractions should not be identical across a whole fleet
        fleet = generate_fleet(FleetGenConfig(n_assets=10, seed=3))
        age_fracs = [a.initial_age / a.calendar_limit for a in fleet.assets]
        usage_fracs = [a.initial_usage / a.usage_limit for a in fleet.assets]
        assert any(abs(x - y) > 1e-6 for x, y in zip(age_fracs, usage_fracs))

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            FleetGenConfig(rul_mean_range=(13, 4))
        with pytest.raises(ValueError):
            FleetGenConfig(usage_cv_range=(0.5, 1.2))
        with pytest.raises(ValueError):
            FleetGenConfig(n_assets=0)
