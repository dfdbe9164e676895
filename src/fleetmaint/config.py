"""Run configuration: JSON schema, defaults, and strict parsing.

Configs are plain JSON with six optional sections (fleet, scenarios,
risk, costs, policies, output). Missing keys fall back to the default
small-fleet study profile; unknown keys are rejected by name rather than
ignored, so typos fail loudly. The fleet section either lists explicit
assets or gives sampling ranges for a generated fleet.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .fleet import (
    DEFAULT_COST_EARLY,
    DEFAULT_COST_FAIL,
    DEFAULT_COST_PERF,
    DEFAULT_COST_PM,
    AssetSpec,
    FleetGenConfig,
    FleetSpec,
    generate_fleet,
)
from .policies import DEFAULT_ALPHA, DEFAULT_TRIGGER_PROB
from .optimize import DEFAULT_EXHAUSTIVE_BUDGET
from .riskcost import RiskParams

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config", "DEFAULT_SEED"]

DEFAULT_SEED = 1
DEFAULT_N_SCENARIOS = 800
DEFAULT_OUT_DIR = "out"

_TOP_KEYS = {"fleet", "scenarios", "risk", "costs", "policies", "output"}
_FLEET_GEN_KEYS = {
    "n_assets",
    "horizon",
    "calendar_limit_range",
    "usage_limit_range",
    "rul_mean_range",
    "rul_std_range",
    "usage_mean_range",
    "usage_cv_range",
    "initial_fraction_range",
    "seed",
}
_FLEET_EXPLICIT_KEYS = {"assets", "horizon"}
_ASSET_REQUIRED_KEYS = {
    "id",
    "calendar_limit",
    "usage_limit",
    "rul_mean",
    "rul_std",
    "usage_mean_per_period",
    "usage_cv",
}
_ASSET_OPTIONAL_KEYS = {
    "initial_age",
    "initial_usage",
    "cost_pm",
    "cost_fail",
    "cost_perf",
    "cost_early",
}
_SCENARIO_KEYS = {"n_scenarios", "seed"}
_RISK_KEYS = {"p_max", "decay_rate", "perf_window"}
_COST_KEYS = {"pm", "fail", "perf", "early", "per_asset"}
_COST_OVERRIDE_KEYS = {"pm", "fail", "perf", "early"}
_POLICY_KEYS = {"trigger_prob", "alpha", "exhaustive_budget"}
_OUTPUT_KEYS = {"directory", "formats"}


class ConfigError(Exception):
    """A configuration problem: bad file, bad key, or bad value."""


def _check_keys(section: str, data: dict, allowed: set[str]) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be a JSON object")
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in section {section!r}")


def _get_number(section: str, data: dict, key: str, default: float) -> float:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number")
    return float(value)


def _get_int(section: str, data: dict, key: str, default: int) -> int:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{section}.{key} must be an integer")
    return int(value)


def _get_seed(section: str, data: dict) -> int:
    seed = _get_int(section, data, "seed", DEFAULT_SEED)
    if seed < 0:
        raise ConfigError(f"{section}.seed must be >= 0")
    return seed


def _get_range(section: str, data: dict, key: str, default) -> tuple[float, float]:
    value = data.get(key, None)
    if value is None:
        return default
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in value)
    ):
        raise ConfigError(f"{section}.{key} must be a [lo, hi] number pair")
    return float(value[0]), float(value[1])


@dataclass
class RunConfig:
    """Fully resolved study configuration."""

    fleet_gen: FleetGenConfig | None
    explicit_assets: tuple[AssetSpec, ...] | None
    horizon: int
    n_scenarios: int
    scenario_seed: int
    risk: RiskParams
    cost_defaults: dict[str, float]
    cost_overrides: dict[str, dict[str, float]]
    trigger_prob: float
    alpha: float
    exhaustive_budget: int
    out_dir: str
    formats: tuple[str, ...]

    def with_seed(self, seed: int) -> "RunConfig":
        """Copy with both the fleet and scenario seeds forced to one value."""
        if seed < 0:
            raise ConfigError("--seed must be >= 0")
        gen = self.fleet_gen
        if gen is not None:
            gen = dataclasses.replace(gen, seed=seed)
        return dataclasses.replace(self, fleet_gen=gen, scenario_seed=seed)

    def build_fleet(self) -> FleetSpec:
        if self.explicit_assets is not None:
            return FleetSpec(assets=self.explicit_assets, horizon=self.horizon)
        fleet = generate_fleet(self.fleet_gen)
        if not self.cost_overrides:
            return fleet
        assets = []
        for asset in fleet.assets:
            override = self.cost_overrides.get(asset.id)
            if override:
                asset = dataclasses.replace(
                    asset, **{f"cost_{k}": v for k, v in override.items()}
                )
            assets.append(asset)
        return FleetSpec(assets=tuple(assets), horizon=fleet.horizon)

    def to_json_dict(self) -> dict:
        """The effective config as a loadable JSON document."""
        if self.explicit_assets is not None:
            fleet: dict = {
                "horizon": self.horizon,
                "assets": [
                    {
                        "id": a.id,
                        "calendar_limit": a.calendar_limit,
                        "usage_limit": a.usage_limit,
                        "rul_mean": a.rul_mean,
                        "rul_std": a.rul_std,
                        "usage_mean_per_period": a.usage_mean_per_period,
                        "usage_cv": a.usage_cv,
                        "initial_age": a.initial_age,
                        "initial_usage": a.initial_usage,
                        "cost_pm": a.cost_pm,
                        "cost_fail": a.cost_fail,
                        "cost_perf": a.cost_perf,
                        "cost_early": a.cost_early,
                    }
                    for a in self.explicit_assets
                ],
            }
        else:
            gen = self.fleet_gen
            fleet = {
                "n_assets": gen.n_assets,
                "horizon": gen.horizon,
                "calendar_limit_range": list(gen.calendar_limit_range),
                "usage_limit_range": list(gen.usage_limit_range),
                "rul_mean_range": list(gen.rul_mean_range),
                "rul_std_range": list(gen.rul_std_range),
                "usage_mean_range": list(gen.usage_mean_range),
                "usage_cv_range": list(gen.usage_cv_range),
                "initial_fraction_range": list(gen.initial_fraction_range),
                "seed": gen.seed,
            }
        costs = dict(self.cost_defaults)
        if self.cost_overrides:
            costs["per_asset"] = {k: dict(v) for k, v in self.cost_overrides.items()}
        return {
            "fleet": fleet,
            "scenarios": {"n_scenarios": self.n_scenarios, "seed": self.scenario_seed},
            "risk": {
                "p_max": self.risk.p_max,
                "decay_rate": self.risk.decay_rate,
                "perf_window": self.risk.perf_window,
            },
            "costs": costs,
            "policies": {
                "trigger_prob": self.trigger_prob,
                "alpha": self.alpha,
                "exhaustive_budget": self.exhaustive_budget,
            },
            "output": {"directory": self.out_dir, "formats": list(self.formats)},
        }


def _parse_asset(entry, defaults: dict[str, float], index: int) -> AssetSpec:
    if not isinstance(entry, dict):
        raise ConfigError(f"fleet.assets[{index}] must be a JSON object")
    section = f"fleet.assets[{index}]"
    _check_keys(section, entry, _ASSET_REQUIRED_KEYS | _ASSET_OPTIONAL_KEYS)
    missing = _ASSET_REQUIRED_KEYS - set(entry)
    if missing:
        raise ConfigError(f"{section} missing required keys: {sorted(missing)}")
    if not isinstance(entry["id"], str):
        raise ConfigError(f"{section}.id must be a string")
    kwargs = {"id": entry["id"]}
    for key in (
        "calendar_limit",
        "usage_limit",
        "rul_mean",
        "rul_std",
        "usage_mean_per_period",
        "usage_cv",
    ):
        kwargs[key] = _get_number(section, entry, key, None)
    kwargs["initial_age"] = _get_number(section, entry, "initial_age", 0.0)
    kwargs["initial_usage"] = _get_number(section, entry, "initial_usage", 0.0)
    for short in ("pm", "fail", "perf", "early"):
        kwargs[f"cost_{short}"] = _get_number(
            section, entry, f"cost_{short}", defaults[short]
        )
    try:
        return AssetSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed JSON document and resolve all defaults."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys("top level", data, _TOP_KEYS)

    costs_raw = data.get("costs", {})
    _check_keys("costs", costs_raw, _COST_KEYS)
    cost_defaults = {
        "pm": _get_number("costs", costs_raw, "pm", DEFAULT_COST_PM),
        "fail": _get_number("costs", costs_raw, "fail", DEFAULT_COST_FAIL),
        "perf": _get_number("costs", costs_raw, "perf", DEFAULT_COST_PERF),
        "early": _get_number("costs", costs_raw, "early", DEFAULT_COST_EARLY),
    }
    overrides_raw = costs_raw.get("per_asset", {})
    if not isinstance(overrides_raw, dict):
        raise ConfigError("costs.per_asset must be a JSON object")
    cost_overrides: dict[str, dict[str, float]] = {}
    for asset_id, entry in overrides_raw.items():
        section = f"costs.per_asset.{asset_id}"
        _check_keys(section, entry, _COST_OVERRIDE_KEYS)
        cost_overrides[asset_id] = {k: _get_number(section, entry, k, None) for k in entry}
        for k, v in cost_overrides[asset_id].items():
            if v < 0:
                raise ConfigError(f"{section}.{k} must be >= 0")

    fleet_raw = data.get("fleet", {})
    if not isinstance(fleet_raw, dict):
        raise ConfigError("section 'fleet' must be a JSON object")
    explicit_assets = None
    fleet_gen = None
    if "assets" in fleet_raw:
        _check_keys("fleet", fleet_raw, _FLEET_EXPLICIT_KEYS)
        if not isinstance(fleet_raw["assets"], list) or not fleet_raw["assets"]:
            raise ConfigError("fleet.assets must be a nonempty list")
        horizon = _get_int("fleet", fleet_raw, "horizon", 12)
        assets = [
            _parse_asset(entry, cost_defaults, i)
            for i, entry in enumerate(fleet_raw["assets"])
        ]
        for asset_id, entry in cost_overrides.items():
            assets = [
                dataclasses.replace(a, **{f"cost_{k}": v for k, v in entry.items()})
                if a.id == asset_id
                else a
                for a in assets
            ]
        try:
            explicit_assets = FleetSpec(assets=assets, horizon=horizon).assets
        except ValueError as exc:
            raise ConfigError(f"fleet: {exc}") from exc
        known_ids = {a.id for a in explicit_assets}
    else:
        _check_keys("fleet", fleet_raw, _FLEET_GEN_KEYS)
        horizon = _get_int("fleet", fleet_raw, "horizon", 12)
        base = FleetGenConfig()
        try:
            fleet_gen = FleetGenConfig(
                n_assets=_get_int("fleet", fleet_raw, "n_assets", base.n_assets),
                horizon=horizon,
                calendar_limit_range=_get_range(
                    "fleet", fleet_raw, "calendar_limit_range", base.calendar_limit_range
                ),
                usage_limit_range=_get_range(
                    "fleet", fleet_raw, "usage_limit_range", base.usage_limit_range
                ),
                rul_mean_range=_get_range(
                    "fleet", fleet_raw, "rul_mean_range", base.rul_mean_range
                ),
                rul_std_range=_get_range(
                    "fleet", fleet_raw, "rul_std_range", base.rul_std_range
                ),
                usage_mean_range=_get_range(
                    "fleet", fleet_raw, "usage_mean_range", base.usage_mean_range
                ),
                usage_cv_range=_get_range(
                    "fleet", fleet_raw, "usage_cv_range", base.usage_cv_range
                ),
                initial_fraction_range=_get_range(
                    "fleet", fleet_raw, "initial_fraction_range", base.initial_fraction_range
                ),
                cost_pm=cost_defaults["pm"],
                cost_fail=cost_defaults["fail"],
                cost_perf=cost_defaults["perf"],
                cost_early=cost_defaults["early"],
                seed=_get_seed("fleet", fleet_raw),
            )
        except ValueError as exc:
            raise ConfigError(f"fleet: {exc}") from exc
        known_ids = {f"A{j + 1}" for j in range(fleet_gen.n_assets)}

    unknown_overrides = set(cost_overrides) - known_ids
    if unknown_overrides:
        raise ConfigError(
            f"costs.per_asset references unknown assets: {sorted(unknown_overrides)}"
        )

    scen_raw = data.get("scenarios", {})
    _check_keys("scenarios", scen_raw, _SCENARIO_KEYS)
    n_scenarios = _get_int("scenarios", scen_raw, "n_scenarios", DEFAULT_N_SCENARIOS)
    if n_scenarios < 1:
        raise ConfigError("scenarios.n_scenarios must be >= 1")
    scenario_seed = _get_seed("scenarios", scen_raw)

    risk_raw = data.get("risk", {})
    _check_keys("risk", risk_raw, _RISK_KEYS)
    try:
        risk = RiskParams(
            p_max=_get_number("risk", risk_raw, "p_max", 0.95),
            decay_rate=_get_number("risk", risk_raw, "decay_rate", 0.75),
            perf_window=_get_number("risk", risk_raw, "perf_window", 4.0),
        )
    except ValueError as exc:
        raise ConfigError(f"risk: {exc}") from exc

    pol_raw = data.get("policies", {})
    _check_keys("policies", pol_raw, _POLICY_KEYS)
    trigger_prob = _get_number("policies", pol_raw, "trigger_prob", DEFAULT_TRIGGER_PROB)
    if not 0.0 < trigger_prob < 1.0:
        raise ConfigError("policies.trigger_prob must lie strictly between 0 and 1")
    alpha = _get_number("policies", pol_raw, "alpha", DEFAULT_ALPHA)
    if not 0.0 < alpha < 1.0:
        raise ConfigError("policies.alpha must lie strictly between 0 and 1")
    budget = _get_int("policies", pol_raw, "exhaustive_budget", DEFAULT_EXHAUSTIVE_BUDGET)
    if budget < 1:
        raise ConfigError("policies.exhaustive_budget must be >= 1")

    out_raw = data.get("output", {})
    _check_keys("output", out_raw, _OUTPUT_KEYS)
    out_dir = out_raw.get("directory", DEFAULT_OUT_DIR)
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("output.directory must be a nonempty string")
    formats_raw = out_raw.get("formats", ["csv"])
    if not isinstance(formats_raw, list) or not formats_raw:
        raise ConfigError("output.formats must be a nonempty list")
    for fmt in formats_raw:
        if fmt != "csv":
            raise ConfigError(f"unsupported output format {fmt!r}")

    return RunConfig(
        fleet_gen=fleet_gen,
        explicit_assets=explicit_assets,
        horizon=horizon,
        n_scenarios=n_scenarios,
        scenario_seed=scenario_seed,
        risk=risk,
        cost_defaults=cost_defaults,
        cost_overrides=cost_overrides,
        trigger_prob=trigger_prob,
        alpha=alpha,
        exhaustive_budget=budget,
        out_dir=out_dir,
        formats=tuple(formats_raw),
    )


def load_config(path) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)
