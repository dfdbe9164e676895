"""Run configuration: JSON schema, defaults, and strict parsing.

Configs are plain JSON with six optional sections (fleet, scenarios,
risk, costs, policies, output). Missing keys fall back to the default
small-fleet study profile; unknown keys and non-finite numbers are
rejected by name rather than ignored, so typos fail loudly. The fleet
section either lists explicit assets or gives sampling ranges for a
generated fleet. The keys, types and defaults of ``fleet``,
``fleet.assets[]``, ``risk`` and ``policies`` are the fields of
FleetGenConfig, AssetSpec, RiskParams and PolicyParams, each read by
:func:`_read_section`; the ``costs`` keys are AssetSpec's ``cost_*``
fields without the prefix, and ``costs`` is the one place that sets the
costs of a generated fleet. ``output.formats`` must be ``["csv"]``.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, replace

from .fleet import AssetSpec, FleetGenConfig, FleetSpec, generate_fleet
from .policies import PolicyParams
from .riskcost import RiskParams
from .scenario import SCENARIO_LIMIT

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config", "DEFAULT_SEED"]

DEFAULT_SEED = 1
DEFAULT_N_SCENARIOS = 800
DEFAULT_OUT_DIR = "out"

_ASSET_FIELDS = fields(AssetSpec)
_ASSET_DEFAULTS = {f.name: f.default for f in _ASSET_FIELDS if f.default is not MISSING}
_COST_NAMES = [f.name[5:] for f in _ASSET_FIELDS if f.name.startswith("cost_")]
_FLEET_GEN_FIELDS = fields(FleetGenConfig)
# Horizon first, as in the explicit branch, so its error is named first; _get_seed reads the seed.
_FLEET_GEN_READ = [f for f in _FLEET_GEN_FIELDS if f.name != "seed"]
_FLEET_GEN_READ.sort(key=lambda f: f.name != "horizon")
# Both config seeds default to DEFAULT_SEED, not to the generator's own 0.
_FLEET_GEN_DEFAULTS = asdict(FleetGenConfig()) | {"seed": DEFAULT_SEED}

_TOP_KEYS = {"fleet", "scenarios", "risk", "costs", "policies", "output"}
_FLEET_EXPLICIT_KEYS = {"assets", "horizon"}
_SCENARIO_KEYS = {"n_scenarios", "seed"}
_OUTPUT_KEYS = {"directory", "formats"}


class ConfigError(Exception):
    """A configuration problem: bad file, bad key, or bad value."""


def _check_keys(section: str, data: dict, allowed: set[str]) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be a JSON object")
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in section {section!r}")


def _get_str(section: str, data: dict, key: str, default: str | None) -> str:
    value = data.get(key, default)
    if not isinstance(value, str):
        raise ConfigError(f"{section}.{key} must be a string")
    return value


def _get_number(section: str, data: dict, key: str, default: float | None) -> float:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number")
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key} must be a finite number")
    return float(value)


def _get_int(section: str, data: dict, key: str, default: int) -> int:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{section}.{key} must be an integer")
    return int(value)


def _get_cost(section: str, data: dict, key: str, default: float | None) -> float:
    value = _get_number(section, data, key, default)
    if value < 0:
        raise ConfigError(f"{section}.{key} must be >= 0")
    return value


def _get_seed(section: str, data: dict) -> int:
    seed = _get_int(section, data, "seed", DEFAULT_SEED)
    if seed < 0:
        raise ConfigError(f"{section}.seed must be >= 0")
    return seed


def _get_range(section: str, data: dict, key: str, default) -> tuple[float, float]:
    if key not in data:
        return default
    value = data[key]
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in value)
    ):
        raise ConfigError(f"{section}.{key} must be a [lo, hi] number pair")
    if not all(math.isfinite(x) for x in value):
        raise ConfigError(f"{section}.{key} must be a finite number pair")
    return float(value[0]), float(value[1])


# By field annotation, a string under the dataclass modules' postponed annotations.
_READERS = {"str": _get_str, "int": _get_int, "float": _get_number,
            "tuple[float, float]": _get_range}


def _read_section(section: str, data, record, schema, defaults: dict):
    """Build ``record`` from a section whose keys are its fields. Each field of
    ``schema`` is read in order, as its annotation says, and is required if
    ``defaults`` lacks it; the other fields take their ``defaults``."""
    _check_keys(section, data, {f.name for f in fields(record)})
    missing = {f.name for f in schema} - defaults.keys() - data.keys()
    if missing:
        raise ConfigError(f"{section} missing required keys: {sorted(missing)}")
    values = {f.name: _READERS[f.type](section, data, f.name, defaults.get(f.name)) for f in schema}
    try:
        return record(**defaults | values)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _cost_fields(costs: dict[str, float]) -> dict[str, float]:
    return {f"cost_{k}": v for k, v in costs.items()}


def _with_costs(
    assets, defaults: dict[str, float], overrides: dict[str, dict[str, float]]
) -> tuple[AssetSpec, ...]:
    """Set each asset's costs to ``defaults`` updated by its ``costs.per_asset`` entry."""
    return tuple(replace(a, **_cost_fields(defaults | overrides.get(a.id, {}))) for a in assets)


@dataclass
class RunConfig:
    """Fully resolved study configuration.

    Exactly one of ``fleet_gen`` and ``explicit_fleet`` is set. An explicit
    fleet already carries its resolved costs; a generated one takes
    ``cost_defaults`` and ``cost_overrides`` in :meth:`build_fleet`.
    CSV is the one output format, so no field holds ``output.formats``.
    """

    fleet_gen: FleetGenConfig | None
    explicit_fleet: FleetSpec | None
    n_scenarios: int
    scenario_seed: int
    risk: RiskParams
    cost_defaults: dict[str, float]
    cost_overrides: dict[str, dict[str, float]]
    policies: PolicyParams
    out_dir: str

    def with_seed(self, seed: int) -> "RunConfig":
        """Copy with both the fleet and scenario seeds forced to one value."""
        if seed < 0:
            raise ConfigError("--seed must be >= 0")
        gen = self.fleet_gen
        if gen is not None:
            gen = replace(gen, seed=seed)
        return replace(self, fleet_gen=gen, scenario_seed=seed)

    def build_fleet(self) -> FleetSpec:
        """The fleet to study; a generated asset that its draws make invalid
        is a config error."""
        if self.explicit_fleet is not None:
            return self.explicit_fleet
        try:
            fleet = generate_fleet(self.fleet_gen)
        except ValueError as exc:
            raise ConfigError(f"fleet: {exc}") from exc
        assets = _with_costs(fleet.assets, self.cost_defaults, self.cost_overrides)
        return replace(fleet, assets=assets)

    def to_json_dict(self) -> dict:
        """The effective config as a loadable JSON document."""
        if self.explicit_fleet is not None:
            fleet: dict = {
                "horizon": self.explicit_fleet.horizon,
                "assets": [asdict(a) for a in self.explicit_fleet.assets],
            }
        else:
            gen = asdict(self.fleet_gen)
            fleet = {
                f.name: list(gen[f.name]) if f.type.startswith("tuple") else gen[f.name]
                for f in _FLEET_GEN_FIELDS
            }
        costs = dict(self.cost_defaults)
        if self.cost_overrides:
            costs["per_asset"] = {k: dict(v) for k, v in self.cost_overrides.items()}
        return {
            "fleet": fleet,
            "scenarios": {"n_scenarios": self.n_scenarios, "seed": self.scenario_seed},
            "risk": asdict(self.risk),
            "costs": costs,
            "policies": asdict(self.policies),
            "output": {"directory": self.out_dir, "formats": ["csv"]},
        }


def _parse_asset(entry, cost_defaults: dict[str, float], index: int) -> AssetSpec:
    if not isinstance(entry, dict):
        raise ConfigError(f"fleet.assets[{index}] must be a JSON object")
    defaults = _ASSET_DEFAULTS | _cost_fields(cost_defaults)
    return _read_section(f"fleet.assets[{index}]", entry, AssetSpec, _ASSET_FIELDS, defaults)


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed JSON document and resolve all defaults."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys("top level", data, _TOP_KEYS)

    costs_raw = data.get("costs", {})
    _check_keys("costs", costs_raw, {*_COST_NAMES, "per_asset"})
    cost_defaults = {
        k: _get_cost("costs", costs_raw, k, _ASSET_DEFAULTS[f"cost_{k}"]) for k in _COST_NAMES
    }
    overrides_raw = costs_raw.get("per_asset", {})
    if not isinstance(overrides_raw, dict):
        raise ConfigError("costs.per_asset must be a JSON object")
    cost_overrides: dict[str, dict[str, float]] = {}
    for asset_id, entry in overrides_raw.items():
        section = f"costs.per_asset.{asset_id}"
        _check_keys(section, entry, set(_COST_NAMES))
        cost_overrides[asset_id] = {k: _get_cost(section, entry, k, None) for k in entry}

    fleet_raw = data.get("fleet", {})
    if not isinstance(fleet_raw, dict):
        raise ConfigError("section 'fleet' must be a JSON object")
    explicit_fleet = None
    fleet_gen = None
    if "assets" in fleet_raw:
        _check_keys("fleet", fleet_raw, _FLEET_EXPLICIT_KEYS)
        if not isinstance(fleet_raw["assets"], list) or not fleet_raw["assets"]:
            raise ConfigError("fleet.assets must be a nonempty list")
        horizon = _get_int("fleet", fleet_raw, "horizon", _FLEET_GEN_DEFAULTS["horizon"])
        assets = [_parse_asset(a, cost_defaults, i) for i, a in enumerate(fleet_raw["assets"])]
        try:
            explicit_fleet = FleetSpec(_with_costs(assets, {}, cost_overrides), horizon)
        except ValueError as exc:
            raise ConfigError(f"fleet: {exc}") from exc
        known_ids = set(explicit_fleet.ids)
    else:
        defaults = _FLEET_GEN_DEFAULTS | {"seed": _get_seed("fleet", fleet_raw)}
        fleet_gen = _read_section("fleet", fleet_raw, FleetGenConfig, _FLEET_GEN_READ, defaults)
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
    if n_scenarios >= SCENARIO_LIMIT:
        raise ConfigError(f"scenarios.n_scenarios must be below {SCENARIO_LIMIT} (2**32)")
    scenario_seed = _get_seed("scenarios", scen_raw)

    risk_raw, pol_raw = data.get("risk", {}), data.get("policies", {})
    risk = _read_section("risk", risk_raw, RiskParams, fields(RiskParams), asdict(RiskParams()))
    policies = _read_section(
        "policies", pol_raw, PolicyParams, fields(PolicyParams), asdict(PolicyParams())
    )

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
            raise ConfigError(f"output.formats: unsupported output format {fmt!r}")

    return RunConfig(
        fleet_gen=fleet_gen,
        explicit_fleet=explicit_fleet,
        n_scenarios=n_scenarios,
        scenario_seed=scenario_seed,
        risk=risk,
        cost_defaults=cost_defaults,
        cost_overrides=cost_overrides,
        policies=policies,
        out_dir=out_dir,
    )


def load_config(path) -> RunConfig:
    """Read and validate a JSON config file. A key repeated in one object is
    rejected by name, where ``json`` would keep the last value silently."""

    def unique_keys(pairs: list) -> dict:
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ConfigError(f"config {path} repeats key {key!r} in one object")
            seen.add(key)
        return dict(pairs)

    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)
