"""Fleet model: asset parameters and maintenance schedules.

Each asset carries three kinds of maintenance-relevant information: a
calendar limit on the time since the last overhaul, a usage limit in
operating cycles, and an uncertain remaining-useful-life (RUL) estimate
summarized by a mean and a standard deviation. A schedule assigns each
asset at most one maintenance date within the planning horizon; assets
absent from a schedule are treated as unscheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "MaintenanceDate",
    "AssetSpec",
    "FleetSpec",
    "Schedule",
    "FleetGenConfig",
    "validate_schedule",
    "generate_fleet",
    "DEFAULT_COST_PM",
    "DEFAULT_COST_FAIL",
    "DEFAULT_COST_PERF",
    "DEFAULT_COST_EARLY",
]

# A maintenance date is a period in {1..T}; None means "do not maintain".
MaintenanceDate = int | None

# Calibration defaults for the four cost coefficients. These are tuning
# knobs, not measured quantities.
DEFAULT_COST_PM = 20.0
DEFAULT_COST_FAIL = 100.0
DEFAULT_COST_PERF = 5.0
DEFAULT_COST_EARLY = 12.0


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _cost_names(record) -> list[str]:
    """The cost coefficient fields (``cost_*``) of a dataclass record."""
    return [f.name for f in fields(record) if f.name.startswith("cost_")]


@dataclass(frozen=True)
class AssetSpec:
    """Static parameters of one maintainable asset.

    Attributes:
        id: short identifier, e.g. "A1".
        calendar_limit: recommended overhaul interval in periods.
        usage_limit: recommended usage limit in cycles.
        rul_mean: mean of the remaining-life estimate, in periods.
        rul_std: standard deviation of the remaining-life estimate.
        usage_mean_per_period: mean usage increment per period, in cycles.
        usage_cv: coefficient of variation of the usage increment, in [0, 1).
        initial_age: calendar age at the start of the horizon.
        initial_usage: accumulated usage at the start of the horizon.
        cost_pm, cost_fail, cost_perf, cost_early: cost coefficients for
            preventive maintenance, failure risk, performance loss, and
            early intervention.
    """

    id: str
    calendar_limit: float
    usage_limit: float
    rul_mean: float
    rul_std: float
    usage_mean_per_period: float
    usage_cv: float
    initial_age: float = 0.0
    initial_usage: float = 0.0
    cost_pm: float = DEFAULT_COST_PM
    cost_fail: float = DEFAULT_COST_FAIL
    cost_perf: float = DEFAULT_COST_PERF
    cost_early: float = DEFAULT_COST_EARLY

    def __post_init__(self) -> None:
        _require(bool(self.id), "asset id must be nonempty")
        # csv.writer leaves a lone "\r" unquoted, so csv.reader would split the row there.
        _require("\r" not in self.id, f"asset id {self.id!r} must not contain a carriage return")
        _require(self.calendar_limit > 0, f"asset {self.id}: calendar_limit must be > 0")
        _require(self.usage_limit > 0, f"asset {self.id}: usage_limit must be > 0")
        _require(self.rul_mean > 0, f"asset {self.id}: rul_mean must be > 0")
        _require(self.rul_std > 0, f"asset {self.id}: rul_std must be > 0")
        _require(
            self.usage_mean_per_period > 0,
            f"asset {self.id}: usage_mean_per_period must be > 0",
        )
        _require(
            0.0 <= self.usage_cv < 1.0,
            f"asset {self.id}: usage_cv must lie in [0, 1)",
        )
        _require(self.initial_age >= 0, f"asset {self.id}: initial_age must be >= 0")
        _require(self.initial_usage >= 0, f"asset {self.id}: initial_usage must be >= 0")
        for name in _cost_names(self):
            _require(getattr(self, name) >= 0, f"asset {self.id}: {name} must be >= 0")


@dataclass(frozen=True)
class FleetSpec:
    """An ordered collection of assets and the shared planning horizon."""

    assets: tuple[AssetSpec, ...]
    horizon: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "assets", tuple(self.assets))
        _require(len(self.assets) >= 1, "fleet must contain at least one asset")
        _require(int(self.horizon) == self.horizon and self.horizon >= 1,
                 "horizon must be a positive integer")
        ids = [a.id for a in self.assets]
        _require(len(set(ids)) == len(ids), "asset ids must be unique")

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.assets)


@dataclass(frozen=True)
class Schedule:
    """Per-asset maintenance dates: period in {1..T} or None for no action.

    The map structure enforces at most one action per asset. Assets missing
    from the map are treated as unscheduled (same as an explicit None).
    """

    dates: dict[str, MaintenanceDate] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", dict(self.dates))

    def date_for(self, asset_id: str) -> MaintenanceDate:
        return self.dates.get(asset_id)


def validate_schedule(schedule: Schedule, fleet: FleetSpec) -> list[str]:
    """Check a schedule against a fleet; returns a list of violations.

    An empty list means the schedule is valid. Violations are reported as
    data rather than raised, so callers can surface all problems at once.
    """
    violations: list[str] = []
    known = set(fleet.ids)
    for asset_id, date in schedule.dates.items():
        if asset_id not in known:
            violations.append(f"unknown asset {asset_id!r}")
            continue
        if date is None:
            continue
        if isinstance(date, bool) or not isinstance(date, (int, np.integer)):
            violations.append(f"asset {asset_id!r}: date {date!r} is not an integer period")
        elif not 1 <= date <= fleet.horizon:
            violations.append(
                f"asset {asset_id!r}: date {date} out of horizon 1..{fleet.horizon}"
            )
    return violations


def _as_range(value, name: str) -> tuple[float, float]:
    try:
        lo, hi = (float(value[0]), float(value[1]))
    except (TypeError, ValueError, IndexError):
        raise ValueError(f"{name} must be a [lo, hi] pair") from None
    _require(0 <= lo <= hi, f"{name} must satisfy 0 <= lo <= hi, got [{lo}, {hi}]")
    return lo, hi


@dataclass(frozen=True)
class FleetGenConfig:
    """Recipe for sampling a synthetic heterogeneous fleet.

    Every per-asset parameter is drawn uniformly from its [lo, hi] range;
    initial age and usage are independent random fractions of the sampled
    limits. Defaults reproduce the standard small-fleet study profile.
    """

    n_assets: int = 5
    horizon: int = 12
    calendar_limit_range: tuple[float, float] = (8.0, 16.0)
    usage_limit_range: tuple[float, float] = (160.0, 320.0)
    rul_mean_range: tuple[float, float] = (4.0, 13.0)
    rul_std_range: tuple[float, float] = (0.8, 2.4)
    usage_mean_range: tuple[float, float] = (10.0, 22.0)
    usage_cv_range: tuple[float, float] = (0.15, 0.35)
    initial_fraction_range: tuple[float, float] = (0.3, 0.8)
    cost_pm: float = DEFAULT_COST_PM
    cost_fail: float = DEFAULT_COST_FAIL
    cost_perf: float = DEFAULT_COST_PERF
    cost_early: float = DEFAULT_COST_EARLY
    seed: int = 0

    def __post_init__(self) -> None:
        _require(int(self.n_assets) == self.n_assets and self.n_assets >= 1,
                 "n_assets must be a positive integer")
        _require(int(self.horizon) == self.horizon and self.horizon >= 1,
                 "horizon must be a positive integer")
        for f in fields(self):
            if f.name.endswith("_range"):
                object.__setattr__(self, f.name, _as_range(getattr(self, f.name), f.name))
        _require(self.usage_cv_range[1] < 1.0, "usage_cv_range must stay below 1")
        for name in _cost_names(self):
            _require(getattr(self, name) >= 0, f"{name} must be >= 0")


def generate_fleet(config: FleetGenConfig) -> FleetSpec:
    """Sample a fleet deterministically from a generation config.

    The generator stream is seeded with ``config.seed`` alone, so identical
    configs yield bit-identical fleets. Per asset, draws are taken in a
    fixed order: calendar limit, usage limit, RUL mean, RUL std, usage
    mean, usage cv, initial-age fraction, initial-usage fraction. Calendar
    limits are rounded to whole periods; assets are named "A1".."AN".
    """
    rng = np.random.default_rng(config.seed)
    assets = []
    for j in range(config.n_assets):
        calendar = float(round(rng.uniform(*config.calendar_limit_range)))
        usage_limit = float(rng.uniform(*config.usage_limit_range))
        rul_mean = float(rng.uniform(*config.rul_mean_range))
        rul_std = float(rng.uniform(*config.rul_std_range))
        usage_mean = float(rng.uniform(*config.usage_mean_range))
        usage_cv = float(rng.uniform(*config.usage_cv_range))
        age_frac = float(rng.uniform(*config.initial_fraction_range))
        usage_frac = float(rng.uniform(*config.initial_fraction_range))
        assets.append(
            AssetSpec(
                id=f"A{j + 1}",
                calendar_limit=calendar,
                usage_limit=usage_limit,
                rul_mean=rul_mean,
                rul_std=rul_std,
                usage_mean_per_period=usage_mean,
                usage_cv=usage_cv,
                initial_age=age_frac * calendar,
                initial_usage=usage_frac * usage_limit,
                **{name: getattr(config, name) for name in _cost_names(config)},
            )
        )
    return FleetSpec(assets=tuple(assets), horizon=config.horizon)
