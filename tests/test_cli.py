"""Config parsing, the study driver, and the command-line interface."""

import contextlib
import io
import json
import mmap
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import fleetmaint.cli
from fleetmaint import optimize, scenario
from fleetmaint.cli import POLICY_ORDER, compute_study, run_study
from fleetmaint.config import ConfigError, load_config, parse_config
from fleetmaint.fleet import AssetSpec, FleetGenConfig
from fleetmaint.policies import PolicyKind, PolicyParams
from fleetmaint.riskcost import RiskParams
from fleetmaint.scenario import (
    PricingInputs,
    generate_scenarios,
    read_scenario_csvs,
    sample_pricing_inputs,
)

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"

SMALL_CONFIG = {
    "fleet": {"n_assets": 3, "horizon": 6, "seed": 5},
    "scenarios": {"n_scenarios": 100, "seed": 5},
}

EXPLICIT_ASSET = {
    "id": "pump-1",
    "calendar_limit": 9,
    "usage_limit": 150,
    "rul_mean": 6,
    "rul_std": 1.2,
    "usage_mean_per_period": 12,
    "usage_cv": 0.2,
}


# Sets every optional asset key, a per-asset cost override and every risk key.
EXPLICIT_CONFIG = {
    "fleet": {
        "horizon": 5,
        "assets": [
            EXPLICIT_ASSET,
            {
                **EXPLICIT_ASSET,
                "id": "fan-2",
                "initial_age": 2,
                "initial_usage": 30.5,
                "cost_pm": 11,
                "cost_fail": 90.5,
                "cost_perf": 3,
                "cost_early": 7,
            },
        ],
    },
    "costs": {"pm": 25, "per_asset": {"pump-1": {"fail": 400, "early": 0}}},
    "risk": {"p_max": 0.9, "decay_rate": 0.5, "perf_window": 3},
    "scenarios": {"n_scenarios": 50, "seed": 4},
}

# Sets every *_range key of a generated fleet.
RANGES_CONFIG = {
    "fleet": {
        "n_assets": 4,
        "horizon": 7,
        "seed": 9,
        "calendar_limit_range": [5, 9],
        "usage_limit_range": [100, 200],
        "rul_mean_range": [3, 8],
        "rul_std_range": [0.5, 1],
        "usage_mean_range": [5, 15],
        "usage_cv_range": [0, 0.5],
        "initial_fraction_range": [0.1, 0.2],
    },
}


def _other_value(value):
    """A valid value of the same type as ``value`` that differs from it."""
    if isinstance(value, str):
        return value + "-b"
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list):
        return [_other_value(v) for v in value]
    return value * 0.5 + 0.25


def run_cli(args, cwd, **env_overrides):
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "fleetmaint", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def run_limited(args, cwd, address_space=1 << 30, timeout=60):
    """``fleetmaint args`` in a child whose address space is capped, so a
    runaway allocation fails in the child, and a hang fails the test,
    rather than straining the machine."""
    code = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({address_space}, {address_space}))\n"
        "from fleetmaint.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    # one BLAS thread, so the library's own buffers stay small under the cap
    threads = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, **threads)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def run_sized(command, document, cwd, threads=1):
    """``fleetmaint command`` on the config ``document`` with ``threads``
    sampling workers, through :func:`run_limited` with a 15 s timeout,
    writing to ``cwd / "out"``; evaluate prices a schedule that dates the
    first asset."""
    (cwd / "sized.json").write_text(json.dumps(document))
    (cwd / "schedule.csv").write_text("asset_id,date\nA1,1\n")
    extra = {"evaluate": ["--schedule", "schedule.csv"], "optimize": ["--criterion", "cvar"]}
    argv = [command, "--config", "sized.json", "--out", "out", "--threads", str(threads),
            *extra.get(command, [])]
    return run_limited(argv, cwd, timeout=15)


def mapped_piece(config, command, monkeypatch):
    """The bytes :func:`fleetmaint.cli._sized_fleet` maps last for
    ``command`` on ``config``: the larger of the matrix build's piece and
    the solved state's."""
    lengths, real = [], mmap.mmap

    def recording(fileno, length, *args, **kwargs):
        lengths.append(length)
        return real(fileno, length, *args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(mmap, "mmap", recording)
        fleetmaint.cli._sized_fleet(config, command)
    return lengths[-1]


def one_asset_inputs(config):
    """The config's one-asset fleet and pricing inputs of normal RULs around
    its RUL mean: the build and the solve hold the same without the
    sampler's cost."""
    fleet = config.build_fleet()
    asset, s = fleet.assets[0], config.n_scenarios
    rul = np.abs(np.random.default_rng(0).normal(asset.rul_mean, asset.rul_std, (1, s)))
    return fleet, PricingInputs(rul, np.ones((1, fleet.horizon)))


def live_group_members(pgid):
    """The pids of the processes in group ``pgid`` that have not exited; a
    zombie, exited but not yet reaped, does not count."""
    members = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:  # exited since the listing
            continue
        state, _, group = stat.rsplit(")", 1)[1].split()[:3]
        if int(group) == pgid and state != "Z":
            members.append(int(entry))
    return members


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


# Each rejected document with the part of the message that names its key.
# The ids stay document<k> in list order, so append new cases at the end.
_BAD_VALUES = [
    ({"scenarios": {"n_scenarios": 0}}, "scenarios.n_scenarios must be >= 1"),
    ({"fleet": {"horizon": 0}}, "fleet: horizon must be a positive integer"),
    ({"policies": {"alpha": 1.5}}, "policies: alpha must lie strictly between 0 and 1"),
    ({"policies": {"trigger_prob": 0}}, "policies: trigger_prob must lie strictly"),
    ({"risk": {"p_max": 2.0}}, "risk: p_max must lie in (0, 0.95]"),
    ({"output": {"formats": ["xml"]}}, "output.formats: unsupported output format 'xml'"),
    (
        {"fleet": {"n_assets": 3, "usage_cv_range": [0.5, 1.2]}},
        "fleet: usage_cv_range must stay below 1",
    ),
    ({"risk": {"decay_rate": float("nan")}}, "risk.decay_rate must be a finite number"),
    ({"costs": {"pm": float("inf")}}, "costs.pm must be a finite number"),
    (
        {"fleet": {"n_assets": 3, "usage_limit_range": [160, float("inf")]}},
        "fleet.usage_limit_range must be a finite number pair",
    ),
    (
        {"fleet": {"assets": [{**EXPLICIT_ASSET, "calendar_limit": float("inf")}]}},
        "fleet.assets[0].calendar_limit must be a finite number",
    ),
    (
        {"fleet": {"n_assets": 2}, "costs": {"per_asset": {"A1": {"fail": float("inf")}}}},
        "costs.per_asset.A1.fail must be a finite number",
    ),
    ({"fleet": {"rul_mean_range": None}}, "fleet.rul_mean_range must be a [lo, hi]"),
    (
        {"fleet": {"assets": [{**EXPLICIT_ASSET, "id": "a\rb"}]}},
        "fleet.assets[0]: asset id 'a\\rb' must not contain a carriage return",
    ),
    ({"policies": {"exhaustive_budget": 0}}, "policies: exhaustive_budget must be >= 1"),
    ({"output": {"formats": "csv"}}, "output.formats must be a nonempty list"),
    ({"risk": {"p_max": "0.5"}}, "risk.p_max must be a number"),
    ({"scenarios": {"n_scenarios": 10.0}}, "scenarios.n_scenarios must be an integer"),
    ({"risk": [0.5]}, "section 'risk' must be a JSON object"),
    ({"fleet": {"assets": []}}, "fleet.assets must be a nonempty list"),
    ({"fleet": {"assets": [1]}}, "fleet.assets[0] must be a JSON object"),
    (
        {"fleet": {"assets": [{**EXPLICIT_ASSET, "rul_mean": None}]}},
        "fleet.assets[0].rul_mean must be a number",
    ),
    (
        {"fleet": {"assets": [
            {k: v for k, v in EXPLICIT_ASSET.items() if k != "rul_mean"}
        ]}},
        "fleet.assets[0] missing required keys: ['rul_mean']",
    ),
    (
        {"fleet": {"assets": [{**EXPLICIT_ASSET, "id": 7}]}},
        "fleet.assets[0].id must be a string",
    ),
    ({"costs": {"per_asset": ["A1"]}}, "costs.per_asset must be a JSON object"),
    ({"output": {"directory": ""}}, "output.directory must be a nonempty string"),
]


class TestParseConfig:
    def test_empty_document_gets_full_defaults(self):
        config = parse_config({})
        assert config.explicit_fleet is None
        assert config.fleet_gen.horizon == 12
        assert config.n_scenarios == 800
        assert config.scenario_seed == 1
        assert config.policies.alpha == 0.9
        assert config.policies.trigger_prob == 0.6
        assert config.policies.exhaustive_budget == 1_000_000
        assert config.out_dir == "out"
        assert config.fleet_gen is not None
        assert config.fleet_gen.n_assets == 5

    def test_scenario_count_below_the_limit(self):
        # Parsed only: a set this large is never sampled here.
        assert parse_config({"scenarios": {"n_scenarios": 2**32 - 1}}).n_scenarios == 2**32 - 1
        message = r"^scenarios\.n_scenarios must be below 4294967296 \(2\*\*32\)$"
        for n_scenarios in (2**32, 2**40):
            with pytest.raises(ConfigError, match=message):
                parse_config({"scenarios": {"n_scenarios": n_scenarios}})

    def test_asset_count_below_the_limit(self):
        # the sampler hashes an asset index as one uint32 word
        message = r"^fleet\.n_assets must be below 4294967296 \(2\*\*32\)$"
        for n_assets in (2**32, 2**40):
            with pytest.raises(ConfigError, match=message):
                parse_config({"fleet": {"n_assets": n_assets}})

    def test_unknown_top_level_key_named_in_error(self):
        with pytest.raises(ConfigError, match="fleets"):
            parse_config({"fleets": {}})

    def test_unknown_nested_key_named_in_error(self):
        with pytest.raises(ConfigError, match="n_asset"):
            parse_config({"fleet": {"n_asset": 3}})

    def test_explicit_assets(self):
        config = parse_config(
            {
                "fleet": {
                    "horizon": 8,
                    "assets": [
                        {
                            "id": "pump-1",
                            "calendar_limit": 9,
                            "usage_limit": 150,
                            "rul_mean": 6,
                            "rul_std": 1.2,
                            "usage_mean_per_period": 12,
                            "usage_cv": 0.2,
                            "initial_age": 2,
                        }
                    ],
                }
            }
        )
        fleet = config.build_fleet()
        assert fleet.n_assets == 1
        assert fleet.ids == ("pump-1",)
        assert fleet.assets[0].initial_age == 2
        assert fleet.horizon == 8

    def test_per_asset_cost_overrides(self):
        config = parse_config(
            {
                "fleet": {"n_assets": 2, "horizon": 6, "seed": 3},
                "costs": {"pm": 30, "per_asset": {"A2": {"fail": 500}}},
            }
        )
        fleet = config.build_fleet()
        assert fleet.assets[0].cost_pm == 30
        assert fleet.assets[0].cost_fail == 100
        assert fleet.assets[1].cost_fail == 500

    def test_override_for_unknown_asset_rejected(self):
        with pytest.raises(ConfigError, match="A9"):
            parse_config(
                {
                    "fleet": {"n_assets": 2, "horizon": 6},
                    "costs": {"per_asset": {"A9": {"fail": 500}}},
                }
            )

    @pytest.mark.parametrize(
        "asset_id, known",
        [
            ("A0", False),
            ("A01", False),
            ("A10000001", False),
            ("A1" + "0" * 5000, False),
            ("A\u0661", False),
            ("a1", False),
            ("A1", True),
            ("A10000000", True),
        ],
        ids=["zero", "leading-zero", "past-the-fleet", "5000-digits", "arabic-digit", "lower-case",
             "first", "last"],
    )
    def test_generated_ids_checked_in_bounded_memory(self, asset_id, known):
        # at n_assets 10^7 no set of the fleet's ids is built
        document = {"fleet": {"n_assets": 10**7}, "costs": {"per_asset": {asset_id: {"pm": 30}}}}
        tracemalloc.start()
        try:
            if known:
                config = parse_config(document)
                assert config.cost_overrides == {asset_id: {"pm": 30.0}}
            else:
                message = f"^costs\\.per_asset references unknown assets: \\[{asset_id!r}\\]$"
                with pytest.raises(ConfigError, match=message):
                    parse_config(document)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_with_seed_touches_both_streams(self):
        config = parse_config(SMALL_CONFIG).with_seed(99)
        assert config.fleet_gen.seed == 99
        assert config.scenario_seed == 99

    @pytest.mark.parametrize(
        "document",
        [SMALL_CONFIG, EXPLICIT_CONFIG, RANGES_CONFIG],
        ids=["small-generated", "explicit-every-key", "generated-every-range"],
    )
    def test_effective_echo_round_trips(self, document):
        config = parse_config(document)
        echoed = parse_config(config.to_json_dict())
        assert echoed.to_json_dict() == config.to_json_dict()
        assert echoed.build_fleet() == config.build_fleet()

    @pytest.mark.parametrize(
        "document, named", _BAD_VALUES, ids=[f"document{k}" for k in range(len(_BAD_VALUES))]
    )
    def test_bad_values_rejected(self, document, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            parse_config(document)

    @pytest.mark.parametrize(
        "record, document, section",
        [
            (
                AssetSpec,
                lambda **keys: {"fleet": {"assets": [{**EXPLICIT_ASSET, **keys}]}},
                lambda echo: echo["fleet"]["assets"][0],
            ),
            (FleetGenConfig, lambda **keys: {"fleet": keys}, lambda echo: echo["fleet"]),
            (RiskParams, lambda **keys: {"risk": keys}, lambda echo: echo["risk"]),
            (PolicyParams, lambda **keys: {"policies": keys}, lambda echo: echo["policies"]),
        ],
        ids=["asset", "fleet-generation", "risk", "policies"],
    )
    def test_every_field_is_a_config_key(self, record, document, section):
        names = [f.name for f in fields(record)]
        base = section(parse_config(document()).to_json_dict())
        assert set(base) == set(names)
        for name in names:
            value = _other_value(base[name])
            assert value != base[name]
            echoed = section(parse_config(document(**{name: value})).to_json_dict())
            assert echoed[name] == value, name

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2, 3])


def _readme_config_examples() -> list[dict]:
    """The JSON blocks of README's "## Configuration" section, in order."""
    section = README.read_text(encoding="utf-8").split("\n## Configuration\n")[1]
    section = section.split("\n## ")[0]
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", section, re.S)]


class TestReadmeConfig:
    def test_defaults_example_is_the_default_config(self):
        document = _readme_config_examples()[0]
        # the one value in the example that is not a default
        del document["costs"]["per_asset"]
        assert parse_config(document).to_json_dict() == parse_config({}).to_json_dict()

    def test_explicit_fleet_example_loads(self):
        fleet = parse_config(_readme_config_examples()[1]).build_fleet()
        assert fleet.ids == ("pump-1",)
        assert fleet.horizon == 8


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_valid_file(self, config_file):
        config = load_config(config_file)
        assert config.n_scenarios == 100

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"scenarios": {"n_scenarios": 10}, "scenarios": {"seed": 2}}', "scenarios"),
            ('{"scenarios": {"n_scenarios": 10, "n_scenarios": 20}}', "n_scenarios"),
            (
                '{"fleet": {"horizon": 6, "assets": [{"id": "p", "calendar_limit": 9,'
                ' "usage_limit": 150, "rul_mean": 6, "rul_std": 1.2, "rul_mean": 7,'
                ' "usage_mean_per_period": 12, "usage_cv": 0.2}]}}',
                "rul_mean",
            ),
            (
                '{"fleet": {"n_assets": 2},'
                ' "costs": {"per_asset": {"A1": {"fail": 500}, "A1": {"pm": 20}}}}',
                "A1",
            ),
        ],
        ids=["top-level-section", "scenarios", "fleet-asset", "per-asset-costs"],
    )
    def test_repeated_key_named_with_file(self, tmp_path, text, key):
        path = tmp_path / "twice.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"config {path} repeats key {key!r}")):
            load_config(path)

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
            ('{"a": ' * 100_000 + "1" + "}" * 100_000, "maximum recursion depth exceeded"),
            ('{"scenarios": {"n_scenarios": ' + "9" * 5000 + "}}", "Exceeds the limit"),
        ],
        ids=["deep-array", "deep-object", "long-integer"],
    )
    def test_undecodable_file_exits_2_naming_it(self, tmp_path, capsys, text, reason):
        path = tmp_path / "odd.json"
        path.write_text(text)
        assert fleetmaint.cli.main(["study", "--config", str(path), "--out", "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config {path} is not valid JSON: {reason}"), err

    def test_repeated_key_exits_2(self, tmp_path):
        path = tmp_path / "twice.json"
        path.write_text('{"scenarios": {"n_scenarios": 10, "n_scenarios": 20}}')
        proc = run_cli(["study", "--config", str(path), "--out", "out"], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert f"config {path} repeats key 'n_scenarios'" in proc.stderr
        assert not (tmp_path / "out").exists()


class TestStudyDriver:
    def test_summaries_follow_policy_order(self):
        result = compute_study(parse_config(SMALL_CONFIG))
        assert [s.policy for s in result.summaries] == [k.value for k in POLICY_ORDER]
        assert set(result.schedules) == {k.value for k in POLICY_ORDER}

    def test_run_study_meta_echo_is_loadable(self, tmp_path):
        config = parse_config(SMALL_CONFIG)
        _, paths = run_study(config, out_dir=tmp_path)
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["seed"] == 5
        echoed = parse_config(meta["config"])
        assert echoed.build_fleet() == config.build_fleet()
        assert {p.name for p in paths} >= {"summary.csv", "schedules.csv"}


    def test_study_prices_without_the_usage_array(self):
        config = parse_config(SMALL_CONFIG)
        fleet = fleetmaint.cli._sized_fleet(config)
        inputs = fleetmaint.cli._setup(config, fleet, 1).scenarios
        values = fleet.n_assets * config.n_scenarios * fleet.horizon
        assert isinstance(inputs, PricingInputs)
        arrays = [v for v in vars(inputs).values() if isinstance(v, np.ndarray)]
        assert arrays and all(a.size < values for a in arrays)
        # the RULs live in the sampler's shared map, smaller than N*S*T values
        shared = inputs.latent_rul
        while isinstance(shared, np.ndarray):
            shared = shared.base
        assert 0 < len(shared) < values * 8
        full = generate_scenarios(fleet, config.n_scenarios, config.scenario_seed)
        assert inputs.latent_rul.tobytes() == full.latent_rul.tobytes()
        assert inputs.usage_mean.tobytes() == full.usage_mean.tobytes()

    def test_study_scenarios_drawn_on_first_access_are_the_sampled_set(self, monkeypatch):
        calls = []
        generate = fleetmaint.cli.generate_scenarios

        def counting(*args, **kwargs):
            calls.append(args)
            return generate(*args, **kwargs)

        monkeypatch.setattr(fleetmaint.cli, "generate_scenarios", counting)
        config = parse_config(SMALL_CONFIG)
        result = compute_study(config, workers=2)
        assert calls == []
        expected = generate_scenarios(config.build_fleet(), 100, 5)
        scenarios = result.scenarios
        assert scenarios.usage_increments.tobytes() == expected.usage_increments.tobytes()
        assert scenarios.latent_rul.tobytes() == expected.latent_rul.tobytes()
        assert result.scenarios is scenarios
        assert len(calls) == 1

    def test_study_prices_its_schedules_in_one_pass(self, monkeypatch):
        # the five schedules are priced together from their candidate
        # indices: each asset's rows once
        takes = []
        take = optimize.CostTable.take

        def counting(self, i, *args):
            takes.append(i)
            return take(self, i, *args)

        monkeypatch.setattr(optimize.CostTable, "take", counting)
        priced = []
        price = fleetmaint.cli.cost_distributions

        def pricing(matrix, indices):
            before = len(takes)
            dists = price(matrix, indices)
            priced.append((len(indices), takes[before:]))
            return dists

        monkeypatch.setattr(fleetmaint.cli, "cost_distributions", pricing)
        compute_study(parse_config(SMALL_CONFIG))
        assert priced == [(5, [0, 1, 2])]

    @pytest.mark.parametrize(
        "command, schedules", [("study", 5), ("optimize", 1), ("evaluate", 1)]
    )
    def test_each_solved_schedule_is_mapped_once(
        self, command, schedules, config_file, tmp_path, monkeypatch
    ):
        # one validation and one mapping to candidate indices per schedule,
        # which then prices it and, for study and optimize, summarizes it
        mapped, validated = [], []
        index, validate = fleetmaint.cli.indices_from_schedule, optimize.validate_schedule
        monkeypatch.setattr(
            fleetmaint.cli, "indices_from_schedule", lambda *a: mapped.append(a) or index(*a)
        )
        for module in (fleetmaint.cli, optimize):  # every module that may validate
            monkeypatch.setattr(
                module, "validate_schedule", lambda *a: validated.append(a) or validate(*a),
                raising=False,
            )
        (tmp_path / "schedule.csv").write_text("asset_id,date\nA1,2\nA2,none\nA3,4\n")
        argv = [command, "--config", str(config_file), "--out", str(tmp_path / "out")]
        argv += {
            "optimize": ["--criterion", "cvar"],
            "evaluate": ["--schedule", str(tmp_path / "schedule.csv")],
        }.get(command, [])
        with contextlib.redirect_stdout(io.StringIO()):
            assert fleetmaint.cli.main(argv) == 0
        assert len(mapped) == len(validated) == schedules

    def test_each_summary_reads_its_own_schedule(self):
        result = compute_study(parse_config(SMALL_CONFIG))
        horizon = result.fleet.horizon
        times = {s.policy: s.mean_maintenance_time for s in result.summaries}
        assert len(set(times.values())) > 1  # the policies' schedules differ
        for name, schedule in result.schedules.items():
            dates = [schedule.date_for(asset_id) for asset_id in result.fleet.ids]
            assert times[name] == np.mean([horizon + 1 if d is None else d for d in dates])

    def test_memory_after_sampling_stays_under_six_assets_rows(self, monkeypatch):
        # N=40, S=2000, T=12, so past the enumeration budget: the study holds
        # no (N, T+1, S) cost table, only a few (T+1, S) blocks of one
        # asset's rows at a time
        config = parse_config({"fleet": {"n_assets": 40}, "scenarios": {"n_scenarios": 2000}})
        fleet = config.build_fleet()
        inputs = sample_pricing_inputs(fleet, config.n_scenarios, config.scenario_seed)
        monkeypatch.setattr(fleetmaint.cli, "sample_pricing_inputs", lambda *a, **k: inputs)
        tracemalloc.start()
        try:
            compute_study(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = (fleet.horizon + 1) * config.n_scenarios * 8
        assert peak < 6 * rows

    def test_build_and_solves_hold_one_block_of_rows(self, monkeypatch):
        # N=6, T=12 is past the enumeration budget, so the CVaR policy is the
        # descent alone. Above the pricing inputs, the build and the five
        # solves hold one (T+1, S) block of cost rows at a time, four (S,)
        # rows beside it and the row kernel's three (block,) temporaries:
        # no copy of the candidates a descent visit prices
        s = 40_000
        config = parse_config({"fleet": {"n_assets": 6}, "scenarios": {"n_scenarios": s}})
        fleet = config.build_fleet()
        # each asset's RULs spread evenly from 0 to twice its mean, so that
        # the CVaR sits far above the mean and a visit prices several dates
        rul = np.array([np.linspace(0.0, 2 * asset.rul_mean, s) for asset in fleet.assets])
        inputs = PricingInputs(rul, np.ones((fleet.n_assets, fleet.horizon)))
        priced = []
        take = optimize.CostTable.take
        monkeypatch.setattr(
            optimize.CostTable, "take",
            lambda self, i, dates, out: priced.append(len(dates)) or take(self, i, dates, out),
        )
        tracemalloc.start()
        try:
            matrix = optimize.build_matrix(fleet, inputs, config.risk)
            fleetmaint.cli._solve(POLICY_ORDER, config, matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(priced) >= 3
        row = 8 * s
        block = (fleet.horizon + 1) * row
        # a few KiB of Python objects beside the arrays, as for the build
        assert peak <= block + 4 * row + 3 * 8 * optimize._TABLE_BLOCK + 2**16

    def test_study_writes_each_ecdf_as_it_is_built(self, monkeypatch, tmp_path):
        # N=1, T=1, so the matrix build takes 32 bytes a scenario: above the
        # built matrix the study holds its five cost distributions, which
        # share the matrix's weights, and at most one ECDF curve (about 96
        # bytes a scenario), not all five curves (about 152)
        n_scenarios = 10**5
        config = parse_config(
            {"fleet": {"n_assets": 1, "horizon": 1}, "scenarios": {"n_scenarios": n_scenarios}}
        )
        matrix = fleetmaint.cli._setup(config, config.build_fleet(), 1)
        monkeypatch.setattr(fleetmaint.cli, "_setup", lambda *a: matrix)
        tracemalloc.start()
        try:
            run_study(config, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 110 * n_scenarios

    @pytest.mark.parametrize("horizon, n_scenarios", [(1, 4 * 10**5), (12, 2 * 10**5)])
    def test_matrix_build_stays_within_its_mapped_piece(self, horizon, n_scenarios, monkeypatch):
        # the build holds its one block of rows, one period's failure
        # probabilities and the weight vector it first reads, beside
        # _asset_tables' fixed (block,) temporaries; evaluate's solved state
        # is no larger at any T, so its last piece is the build's
        config = parse_config({
            "fleet": {"n_assets": 1, "horizon": horizon},
            "scenarios": {"n_scenarios": n_scenarios},
        })
        piece = mapped_piece(config, "evaluate", monkeypatch)
        fleet, inputs = one_asset_inputs(config)
        tracemalloc.start()
        try:
            optimize.build_matrix(fleet, inputs, config.risk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= piece + 2**16  # a few KiB of Python objects beside the arrays

    @pytest.mark.parametrize("horizon", range(1, 9))
    def test_optimize_holds_no_more_than_its_mapped_piece(self, horizon, monkeypatch):
        # once the build's buffers are freed, optimize --criterion cvar holds
        # the matrix's weight vector and what its solve allocates: the
        # descent's one block of rows and the (S,) rows beside it
        n_scenarios = 10**5
        config = parse_config({
            "fleet": {"n_assets": 1, "horizon": horizon},
            "scenarios": {"n_scenarios": n_scenarios},
        })
        piece = mapped_piece(config, "optimize", monkeypatch)
        matrix = optimize.build_matrix(*one_asset_inputs(config), config.risk)
        tracemalloc.start()
        try:
            fleetmaint.cli._solve([PolicyKind.INTEGRATED_CVAR], config, matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few KiB of Python objects beside the arrays, as for the build
        assert peak + matrix.scenarios.weights.nbytes <= piece + 2**16


class TestCliCommands:
    def test_study_end_to_end(self, config_file, tmp_path):
        proc = run_cli(
            ["study", "--config", str(config_file), "--out", "run1"], tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        assert "integrated_expected" in proc.stdout
        out = tmp_path / "run1"
        for name in ("summary.csv", "schedules.csv", "run_meta.json"):
            assert (out / name).exists()
        for kind in POLICY_ORDER:
            assert (out / f"ecdf_{kind.value}.csv").exists()

    def test_study_reruns_byte_identical(self, config_file, tmp_path):
        for out in ("a", "b"):
            proc = run_cli(
                ["study", "--config", str(config_file), "--out", out], tmp_path
            )
            assert proc.returncode == 0, proc.stderr
        for name in ["summary.csv", "schedules.csv"] + [
            f"ecdf_{k.value}.csv" for k in POLICY_ORDER
        ]:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_seed_override_changes_results(self, config_file, tmp_path):
        for seed, out in ((7, "s7"), (8, "s8")):
            proc = run_cli(
                [
                    "study",
                    "--config",
                    str(config_file),
                    "--seed",
                    str(seed),
                    "--out",
                    out,
                ],
                tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "s7" / "summary.csv").read_bytes() != (
            tmp_path / "s8" / "summary.csv"
        ).read_bytes()

    def test_gen_fleet(self, config_file, tmp_path):
        proc = run_cli(
            ["gen-fleet", "--config", str(config_file), "--out", "fleet_out"], tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "fleet_out" / "fleet.csv").read_text().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("id,")

    def test_gen_scenarios_match_in_process_generation(self, config_file, tmp_path):
        proc = run_cli(
            ["gen-scenarios", "--config", str(config_file), "--out", "scen"], tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        config = load_config(config_file)
        fleet = config.build_fleet()
        expected = generate_scenarios(fleet, 100, 5)
        loaded = read_scenario_csvs(
            fleet,
            tmp_path / "scen" / "scenario_usage.csv",
            tmp_path / "scen" / "scenario_rul.csv",
        )
        import numpy as np

        np.testing.assert_array_equal(loaded.usage_increments, expected.usage_increments)
        np.testing.assert_array_equal(loaded.latent_rul, expected.latent_rul)

    def test_gen_scenarios_exports_do_not_depend_on_threads(self, config_file, tmp_path):
        for threads in ("1", "2"):
            proc = run_cli(
                ["gen-scenarios", "--config", str(config_file), "--out", f"t{threads}",
                 "--threads", threads],
                tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
        for name in ("scenario_usage.csv", "scenario_rul.csv"):
            assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()

    def test_failed_sampling_worker_exits_3_and_writes_nothing(
        self, config_file, tmp_path, monkeypatch, capsys
    ):
        sample_cells = scenario._sample_cells

        def fail_outside_first_block(fleet, seed, draws, start, stop, *parent):
            if start:
                raise ValueError("injected worker failure")
            sample_cells(fleet, seed, draws, start, stop, *parent)

        monkeypatch.setattr(scenario, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(scenario, "_sample_cells", fail_outside_first_block)
        out = tmp_path / "scen"
        code = fleetmaint.cli.main(
            ["gen-scenarios", "--config", str(config_file), "--out", str(out), "--threads", "2"]
        )
        assert code == 3
        assert "error: scenario sampling worker for block 1 of 2" in capsys.readouterr().err
        assert not out.exists()

    def test_sampling_worker_exits_with_its_killed_parent(self, tmp_path):
        # each of two workers has seconds of draws at N=40, S=80,000, so one
        # that outlived its parent would still be drawing 2 s later
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("one usable CPU: the sampler forks no worker")
        if not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists():
            pytest.skip("/proc/<pid>/task/<pid>/children is absent: no list of a process's children")
        config = tmp_path / "long.json"
        config.write_text(json.dumps({
            "fleet": {"n_assets": 40}, "scenarios": {"n_scenarios": 80_000}
        }))
        argv = ["study", "--config", str(config), "--out", str(tmp_path / "out"), "--threads", "2"]
        env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.Popen(
            [sys.executable, "-m", "fleetmaint", *argv], env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        try:
            deadline = time.monotonic() + 30
            while not children.read_text().split():
                assert proc.poll() is None, "the study ended before it forked a worker"
                assert time.monotonic() < deadline, "no sampling worker within 30 s"
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 2
            while live_group_members(proc.pid):
                assert time.monotonic() < deadline, "a sampling worker outlived its parent by 2 s"
                time.sleep(0.02)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    def test_failed_gen_scenarios_rerun_keeps_previous_export(
        self, config_file, tmp_path, monkeypatch
    ):
        out = tmp_path / "scen"
        argv = ["gen-scenarios", "--config", str(config_file), "--out", str(out)]
        assert fleetmaint.cli.main(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def fail_after_usage(scenarios, fleet, usage_path, rul_path):
            Path(usage_path).write_text("partial\n")
            raise OSError("disk full")

        monkeypatch.setattr(fleetmaint.cli, "write_scenario_csvs", fail_after_usage)
        assert fleetmaint.cli.main(argv) == 3
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_non_ascii_ids_do_not_depend_on_the_locale(self, tmp_path):
        ascii_locale = {"LC_ALL": "C", "PYTHONUTF8": "0"}
        probe = subprocess.run(
            [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
            env=dict(os.environ, **ascii_locale), capture_output=True, text=True,
        )
        assert "utf" not in probe.stdout.lower().replace("-", "")
        ids = ["Pumpé", "Lüfter-2"]
        document = {
            "fleet": {"horizon": 4, "assets": [{**EXPLICIT_ASSET, "id": i} for i in ids]},
            "costs": {"per_asset": {ids[0]: {"pm": 30}}},
            "scenarios": {"n_scenarios": 20, "seed": 3},
        }
        # Raw UTF-8 in the config, not \u escapes.
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document, ensure_ascii=False), encoding="utf-8")
        outputs = {}
        for mode, env in (("ascii", ascii_locale), ("utf8", {"PYTHONUTF8": "1"})):
            for command in ("gen-scenarios", "study"):
                out = tmp_path / mode / command
                proc = run_cli([command, "--config", str(config), "--out", str(out)], tmp_path, **env)
                assert proc.returncode == 0, proc.stderr
            outputs[mode] = {
                p.relative_to(tmp_path / mode): p.read_bytes()
                for p in sorted((tmp_path / mode).rglob("*.csv"))
            }
        assert outputs["ascii"] == outputs["utf8"]
        for name in ("gen-scenarios/scenario_usage.csv", "study/schedules.csv"):
            written = outputs["utf8"][Path(name)]
            assert all(f"{i},".encode("utf-8") in written for i in ids)

    def test_optimize_then_evaluate_round_trip(self, config_file, tmp_path):
        proc = run_cli(
            [
                "optimize",
                "--config",
                str(config_file),
                "--criterion",
                "cvar",
                "--out",
                "opt",
            ],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        objective = None
        for line in proc.stdout.splitlines():
            if line.startswith("criterion=cvar"):
                objective = float(line.split("objective=")[1])
        assert objective is not None
        schedule_path = tmp_path / "opt" / "schedule.csv"
        assert schedule_path.exists()

        check = run_cli(
            [
                "evaluate",
                "--config",
                str(config_file),
                "--schedule",
                str(schedule_path),
                "--out",
                "eval",
            ],
            tmp_path,
        )
        assert check.returncode == 0, check.stderr
        cvar_line = [
            line for line in check.stdout.splitlines() if line.startswith("cvar_0.9=")
        ]
        assert len(cvar_line) == 1
        assert float(cvar_line[0].split("=")[1]) == pytest.approx(objective, abs=1e-9)

    @pytest.mark.parametrize(
        "criterion, policy, column",
        [("expected", "integrated_expected", "expected_cost"), ("cvar", "integrated_cvar", "cvar")],
    )
    def test_optimize_objective_is_the_study_summary_row(
        self, criterion, policy, column, config_file, tmp_path
    ):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = fleetmaint.cli.main(
                ["optimize", "--config", str(config_file), "--criterion", criterion,
                 "--out", str(tmp_path / "opt")]
            )
        assert code == 0
        summaries = compute_study(load_config(config_file)).summaries
        row = next(s for s in summaries if s.policy == policy)
        assert f"objective={getattr(row, column):.12g}" in stdout.getvalue().split()

    def test_optimize_expected_beats_or_ties_cvar_on_mean(self, config_file, tmp_path):
        values = {}
        for criterion in ("expected", "cvar"):
            proc = run_cli(
                [
                    "optimize",
                    "--config",
                    str(config_file),
                    "--criterion",
                    criterion,
                    "--out",
                    f"opt_{criterion}",
                ],
                tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
            for line in proc.stdout.splitlines():
                if line.startswith("criterion="):
                    values[criterion] = float(line.split("objective=")[1])
        # expected-cost objective is a mean, CVaR a tail mean of the same fleet
        assert values["expected"] <= values["cvar"] + 1e-9

    def test_evaluate_rejects_invalid_schedule(self, config_file, tmp_path):
        bad = tmp_path / "bad_schedule.csv"
        bad.write_text("asset_id,date\nA1,99\nA2,1\nA3,1\n")
        proc = run_cli(
            [
                "evaluate",
                "--config",
                str(config_file),
                "--schedule",
                str(bad),
                "--out",
                "eval_bad",
            ],
            tmp_path,
        )
        assert proc.returncode == 3
        assert "invalid schedule" in proc.stderr

    def test_evaluate_checks_the_schedule_before_sampling(
        self, config_file, tmp_path, monkeypatch, capsys
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the schedule was checked")

        monkeypatch.setattr(fleetmaint.cli, "generate_scenarios", no_sampling)
        monkeypatch.setattr(fleetmaint.cli, "sample_pricing_inputs", no_sampling)
        bad = tmp_path / "bad_schedule.csv"
        bad.write_text("asset_id,date\nA1,99\nZ9,1\n")
        argv = ["evaluate", "--config", str(config_file), "--schedule", str(bad),
                "--out", str(tmp_path / "eval_bad")]
        assert fleetmaint.cli.main(argv) == 3
        assert capsys.readouterr().err.splitlines() == [
            "invalid schedule: asset 'A1': date 99 out of horizon 1..6",
            "invalid schedule: unknown asset 'Z9'",
        ]

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"fleet": {"n_asset": 3}}))
        proc = run_cli(["study", "--config", str(bad)], tmp_path)
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    @pytest.mark.parametrize(
        "fleet",
        [
            {"horizon": 0, "assets": [EXPLICIT_ASSET]},
            {"horizon": 6, "assets": [EXPLICIT_ASSET, EXPLICIT_ASSET]},
            {"horizon": 6, "assets": [EXPLICIT_ASSET, {**EXPLICIT_ASSET, "id": "a\rb"}]},
        ],
        ids=["zero-horizon", "repeated-id", "carriage-return-id"],
    )
    def test_bad_explicit_fleet_exits_2(self, fleet, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"fleet": fleet}))
        proc = run_cli(["gen-fleet", "--config", str(bad), "--out", "fleet_out"], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "config error" in proc.stderr

    def test_evaluate_rejects_repeated_asset(self, config_file, tmp_path):
        repeated = tmp_path / "repeated.csv"
        repeated.write_text("asset_id,date\nA1,3\nA2,1\nA3,1\nA1,5\n")
        proc = run_cli(
            ["evaluate", "--config", str(config_file), "--schedule", str(repeated),
             "--out", "eval_repeated"],
            tmp_path,
        )
        assert proc.returncode == 3
        assert "'A1'" in proc.stderr and str(repeated) in proc.stderr
        assert not (tmp_path / "eval_repeated" / "eval_distribution.csv").exists()

    @pytest.mark.parametrize(
        "body, line",
        [
            ("asset_id,date\nA1\nA2,1\nA3,1\n", 2),
            ("asset_id,date\nA1,1,9\nA2,1\nA3,1\n", 2),
            ("asset_id,date\nA1,3\nA2,1\nA3,1,\n", 4),
        ],
        ids=["missing-field", "extra-field", "trailing-comma"],
    )
    def test_evaluate_rejects_row_of_wrong_length(self, body, line, config_file, tmp_path):
        bad = tmp_path / "bad_row.csv"
        bad.write_text(body)
        proc = run_cli(
            ["evaluate", "--config", str(config_file), "--schedule", str(bad),
             "--out", "eval_bad_row"],
            tmp_path,
        )
        assert proc.returncode == 3
        assert f"line {line}" in proc.stderr and str(bad) in proc.stderr
        assert not (tmp_path / "eval_bad_row" / "eval_distribution.csv").exists()

    def test_evaluate_names_the_schedule_file_on_an_oversized_field(self, config_file, tmp_path):
        bad = tmp_path / "huge_field.csv"
        bad.write_text(f"asset_id,date\nA1,3\n{'x' * 200_000},1\nA3,1\n")
        proc = run_cli(
            ["evaluate", "--config", str(config_file), "--schedule", str(bad),
             "--out", "eval_huge"],
            tmp_path,
        )
        assert proc.returncode == 3
        assert f"error: schedule file {bad}, line 3: field larger than field limit" in proc.stderr
        assert not (tmp_path / "eval_huge" / "eval_distribution.csv").exists()

    def test_evaluate_rejects_repeated_column(self, config_file, tmp_path):
        bad = tmp_path / "repeated_column.csv"
        bad.write_text("asset_id,date,date\nA1,3,4\nA2,1,1\nA3,1,1\n")
        proc = run_cli(
            ["evaluate", "--config", str(config_file), "--schedule", str(bad),
             "--out", "eval_repeated_column"],
            tmp_path,
        )
        assert proc.returncode == 3
        assert "must have exactly the columns asset_id,date" in proc.stderr
        assert str(bad) in proc.stderr
        assert not (tmp_path / "eval_repeated_column" / "eval_distribution.csv").exists()

    @pytest.mark.parametrize(
        "document, key",
        [
            (
                {"fleet": {"n_assets": 2}, "costs": {"per_asset": {"A1": {"pm": -5}}}},
                "costs.per_asset.A1.pm",
            ),
            (
                {
                    "fleet": {"horizon": 6, "assets": [EXPLICIT_ASSET]},
                    "costs": {"per_asset": {"pump-1": {"fail": -1}}},
                },
                "costs.per_asset.pump-1.fail",
            ),
            ({"fleet": {"n_assets": 2}, "costs": {"pm": -5}}, "costs.pm must be >= 0"),
            (
                # the asset sets every cost itself, so no asset carries the -5
                {"fleet": {"assets": [EXPLICIT_CONFIG["fleet"]["assets"][1]]}, "costs": {"pm": -5}},
                "costs.pm must be >= 0",
            ),
        ],
        ids=["generated-fleet", "explicit-fleet", "generated-fleet-level", "explicit-fleet-level"],
    )
    def test_negative_cost_override_exits_2(self, document, key, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        proc = run_cli(["gen-fleet", "--config", str(bad), "--out", "fleet_out"], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "config error" in proc.stderr and key in proc.stderr

    @pytest.mark.parametrize(
        "document, extra, key",
        [
            ({"fleet": {"n_assets": 2, "seed": -1}}, [], "fleet.seed"),
            ({"scenarios": {"n_scenarios": 10, "seed": -2}}, [], "scenarios.seed"),
            ({"scenarios": {"n_scenarios": 10}}, ["--seed", "-3"], "--seed"),
        ],
        ids=["fleet-seed", "scenario-seed", "seed-flag"],
    )
    def test_negative_seed_exits_2(self, document, extra, key, tmp_path):
        config = tmp_path / "negative_seed.json"
        config.write_text(json.dumps(document))
        proc = run_cli(
            ["gen-scenarios", "--config", str(config), "--out", "scen_out", *extra], tmp_path
        )
        assert proc.returncode == 2, proc.stderr
        assert "config error" in proc.stderr and f"{key} must be >= 0" in proc.stderr
        assert not (tmp_path / "scen_out" / "scenario_usage.csv").exists()

    def test_non_finite_config_number_exits_2(self, tmp_path):
        config = tmp_path / "nan.json"
        config.write_text(
            '{"fleet": {"n_assets": 2, "horizon": 4}, "scenarios": {"n_scenarios": 20},'
            ' "risk": {"decay_rate": NaN}}'
        )
        proc = run_cli(["study", "--config", str(config), "--out", "nan_out"], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "risk.decay_rate must be a finite number" in proc.stderr

    @pytest.mark.parametrize(
        "command",
        [["study"], ["optimize", "--criterion", "expected"], ["optimize", "--criterion", "cvar"]],
        ids=["study", "optimize-expected", "optimize-cvar"],
    )
    def test_overflowing_cost_exits_3_naming_the_asset(self, command, tmp_path, capsys):
        # every number in range, but hazard sums overflow to inf in the matrix
        config = tmp_path / "overflow.json"
        config.write_text(json.dumps({
            "fleet": {"n_assets": 2, "horizon": 4},
            "scenarios": {"n_scenarios": 20},
            "costs": {"fail": 1e308},
        }))
        out = tmp_path / "overflow_out"
        code = fleetmaint.cli.main([*command, "--config", str(config), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: asset 'A1' at date 3: a cost or failure value is not finite\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("cv", [1e-200, 1e-158], ids=["square-underflows", "shape-overflows"])
    @pytest.mark.parametrize(
        "fleet, named",
        [
            ({"horizon": 4, "assets": [EXPLICIT_ASSET]}, "fleet.assets[0]: asset pump-1: usage_cv"),
            ({"n_assets": 2, "horizon": 4}, "fleet: asset A1: usage_cv"),
        ],
        ids=["explicit-fleet", "generated-fleet"],
    )
    def test_tiny_usage_cv_exits_2_naming_the_asset(self, fleet, named, cv, tmp_path, capsys):
        # 1/cv**2, the gamma shape of the usage draws, is not finite
        if "assets" in fleet:
            fleet = {**fleet, "assets": [{**EXPLICIT_ASSET, "usage_cv": cv}]}
        else:
            fleet = {**fleet, "usage_cv_range": [cv, cv]}
        config = tmp_path / "tiny_cv.json"
        config.write_text(json.dumps({"fleet": fleet, "scenarios": {"n_scenarios": 10}}))
        out = tmp_path / "tiny_cv_out"
        code = fleetmaint.cli.main(["study", "--config", str(config), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: {named} {cv!r} is too small: 1/usage_cv**2 is not finite\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("command", ["study", "gen-scenarios"])
    def test_overflowing_increment_exits_3_naming_the_asset(
        self, command, threads, tmp_path, monkeypatch, capfd
    ):
        # fan-2's increments overflow to inf; at two threads a forked worker
        # draws them, and the parent names the asset from the worker's flags
        monkeypatch.setattr(scenario, "_usable_cpus", lambda: 2)
        config = tmp_path / "overflow.json"
        overflowing = {**EXPLICIT_ASSET, "id": "fan-2", "usage_mean_per_period": 1.7e308}
        config.write_text(json.dumps({
            "fleet": {"horizon": 4, "assets": [EXPLICIT_ASSET, overflowing]},
            "scenarios": {"n_scenarios": 20},
        }))
        out = tmp_path / "overflow_out"
        argv = [command, "--config", str(config), "--out", str(out), "--threads", threads]
        assert fleetmaint.cli.main(argv) == 3
        assert capfd.readouterr().err == (
            "error: asset 'fan-2': usage increments must be finite and > 0\n"
        )
        assert not out.exists()

    def test_huge_increments_keep_a_finite_usage_mean(self, tmp_path, capfd):
        # 800 increments near 1e306: a plain sum of 256 of them overflows,
        # their 1/S-weighted sum does not, and every usage_only date is 1
        config = tmp_path / "huge_usage.json"
        config.write_text(json.dumps({
            "fleet": {"n_assets": 3, "usage_mean_range": [1e306, 1e306]},
            "scenarios": {"n_scenarios": 800},
        }))
        out = tmp_path / "huge_out"
        assert fleetmaint.cli.main(["study", "--config", str(config), "--out", str(out)]) == 0
        assert capfd.readouterr().err == ""
        rows = (out / "schedules.csv").read_text().splitlines()
        assert [r for r in rows if r.startswith("usage_only,")] == [
            "usage_only,A1,1", "usage_only,A2,1", "usage_only,A3,1"
        ]

    @pytest.mark.parametrize("command", ["study", "gen-scenarios"])
    def test_unallocatable_draws_exit_3_naming_the_sizes(
        self, command, tmp_path, monkeypatch, capsys
    ):
        def no_memory(*args, **kwargs):
            raise OSError(12, "Cannot allocate memory")

        monkeypatch.setattr(scenario.mmap, "mmap", no_memory)
        config = tmp_path / "huge.json"
        # The largest S a config accepts is 2**32 - 1; the draws at S=4e9 would
        # take about 2 TB.
        config.write_text(json.dumps({"scenarios": {"n_scenarios": 4_000_000_000}}))
        out = tmp_path / "huge_out"
        assert fleetmaint.cli.main([command, "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: cannot allocate [\d,]+ bytes for the scenario draws of N=5 assets,"
            r" S=4000000000 scenarios and T=12 periods \(config keys fleet\.n_assets,"
            r" scenarios\.n_scenarios and fleet\.horizon\)\n",
            err,
        ), err
        assert not out.exists()

    def test_unallocatable_chunk_buffer_exits_3_naming_the_horizon(
        self, config_file, tmp_path, monkeypatch, capsys
    ):
        empty = np.empty

        def no_buffer(shape, *args, **kwargs):
            # the lean sampler's (min(256, S), T) buffer at SMALL_CONFIG's S=100, T=6
            if shape == (100, 6):
                raise MemoryError("Unable to allocate")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", no_buffer)
        out = tmp_path / "buffer_out"
        argv = ["study", "--config", str(config_file), "--out", str(out)]
        assert fleetmaint.cli.main(argv) == 3
        assert capsys.readouterr().err == (
            "error: cannot allocate 4,800 bytes for the usage chunk buffer of N=3 assets,"
            " S=100 scenarios and T=6 periods (config keys fleet.n_assets,"
            " scenarios.n_scenarios and fleet.horizon)\n"
        )
        assert not out.exists()

    def test_rul_overflow_exits_3_naming_the_asset(self, tmp_path, capsys):
        config = tmp_path / "huge_rul.json"
        fleet = {"n_assets": 3, "rul_mean_range": [1e308, 1e308], "rul_std_range": [1e308, 1e308]}
        config.write_text(json.dumps({"fleet": fleet, "scenarios": {"n_scenarios": 50}}))
        out = tmp_path / "rul_out"
        assert fleetmaint.cli.main(["study", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "error: asset 'A1': latent RUL values must be finite and >= 0\n"
        assert not out.exists()

    def test_unallocatable_walk_rows_exit_3_naming_the_sizes(
        self, config_file, tmp_path, monkeypatch, capsys
    ):
        empty = np.empty

        def no_rows(shape, *args, **kwargs):
            # the one block of the rows the enumeration's survivors use, whatever its size
            if sys._getframe(1).f_code is optimize._block_rows.__code__:
                raise MemoryError("Unable to allocate")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", no_rows)
        out = tmp_path / "rows_out"
        argv = ["study", "--config", str(config_file), "--out", str(out)]
        assert fleetmaint.cli.main(argv) == 3
        named = re.fullmatch(
            r"error: cannot allocate ([0-9,]+) bytes for the cost rows of the CVaR enumeration"
            r" of N=3 assets, S=100 scenarios and T=6 periods \(config keys fleet.n_assets,"
            r" scenarios.n_scenarios and fleet.horizon\)\n",
            capsys.readouterr().err,
        )
        assert named is not None
        # at least one row per asset, at most all 3 * 7 rows, of 100 cells
        nbytes = int(named[1].replace(",", ""))
        assert nbytes % 800 == 0 and 3 <= nbytes // 800 <= 21
        assert not out.exists()

    def test_runaway_enumeration_exits_3_naming_the_budget(self, tmp_path):
        # a budget of 10^20 admits all 13^12 schedules of 12 assets to the
        # walk, whose prefixes outgrow a 1 GiB address space
        config = tmp_path / "walk.json"
        config.write_text(json.dumps({
            "fleet": {"n_assets": 12},
            "scenarios": {"n_scenarios": 50},
            "policies": {"exhaustive_budget": 10**20},
        }))
        proc = run_limited(["study", "--config", str(config), "--out", "walk_out"], tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert re.fullmatch(
            r"error: cannot allocate [\d,]+ bytes for the schedule prefixes of the CVaR"
            r" enumeration of N=12 assets, S=50 scenarios and T=12 periods \(config keys"
            r" fleet\.n_assets, scenarios\.n_scenarios and fleet\.horizon\); lower"
            r" policies\.exhaustive_budget to search by coordinate descent alone\n",
            proc.stderr,
        ), proc.stderr
        assert not (tmp_path / "walk_out").exists()

    @pytest.mark.parametrize("command", ["gen-scenarios", "evaluate", "optimize", "study"])
    def test_unallocatable_fleet_exits_3_before_it_is_built(self, command, tmp_path):
        # building 2**32 - 1 assets would take hours; the draws' map is sized
        # from the config first and fails at once
        config = tmp_path / "wide.json"
        config.write_text(json.dumps({
            "fleet": {"n_assets": 2**32 - 1}, "scenarios": {"n_scenarios": 1}
        }))
        extra = {
            "evaluate": ["--schedule", "never_read.csv"],
            "optimize": ["--criterion", "cvar"],
        }.get(command, [])
        argv = [command, "--config", str(config), "--out", "wide_out", *extra]
        proc = run_limited(argv, tmp_path, timeout=15)
        assert proc.returncode == 3, proc.stderr
        assert re.fullmatch(
            r"error: cannot allocate [\d,]+ bytes for the scenario draws of N=4294967295"
            r" assets, S=1 scenarios and T=12 periods \(config keys fleet\.n_assets,"
            r" scenarios\.n_scenarios and fleet\.horizon\)\n",
            proc.stderr,
        ), proc.stderr
        assert not (tmp_path / "wide_out").exists()

    def test_unallocatable_fleet_file_exits_3_before_it_is_built(self, tmp_path):
        # gen-fleet maps its peak for 10**8 assets, about 140 GB, before it
        # builds the first, so the 1 GiB cap fails it at once
        config = tmp_path / "wide.json"
        config.write_text(json.dumps({"fleet": {"n_assets": 10**8}}))
        argv = ["gen-fleet", "--config", str(config), "--out", "wide_out"]
        proc = run_limited(argv, tmp_path, timeout=15)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == (
            "error: cannot allocate 140,000,000,000 bytes for the fleet of"
            " N=100000000 assets (config key fleet.n_assets)\n"
        )
        assert not (tmp_path / "wide_out").exists()

    def test_unallocatable_row_buffers_exit_3_naming_the_sizes(
        self, config_file, tmp_path, monkeypatch, capsys
    ):
        empty = np.empty

        def no_buffers(shape, *args, **kwargs):
            # the matrix build's (T+1, S) block of rows for one asset
            if sys._getframe(1).f_code is optimize.build_matrix.__code__:
                raise MemoryError("Unable to allocate")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", no_buffers)
        out = tmp_path / "rows_out"
        argv = ["study", "--config", str(config_file), "--out", str(out)]
        assert fleetmaint.cli.main(argv) == 3
        assert capsys.readouterr().err == (
            "error: cannot allocate 5,600 bytes for the per-asset cost rows of N=3 assets,"
            " S=100 scenarios and T=6 periods (config keys fleet.n_assets,"
            " scenarios.n_scenarios and fleet.horizon)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-scenarios", "evaluate", "optimize", "study"])
    def test_unallocatable_generated_fleet_exits_3_before_it_is_built(self, command, tmp_path):
        # the draws for 2 * 10**7 assets at S=1, T=1 fit a 1 GiB address
        # space and the fleet's 28 GB does not, so the check fails at the
        # fleet before any asset is built, as gen-fleet's does
        document = {
            "fleet": {"n_assets": 2 * 10**7, "horizon": 1}, "scenarios": {"n_scenarios": 1}
        }
        proc = run_sized(command, document, tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == (
            "error: cannot allocate 28,000,000,000 bytes for the fleet of"
            " N=20000000 assets (config key fleet.n_assets)\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, n_scenarios, what, nbytes",
        [
            ("gen-scenarios", 4 * 10**6, "scenario CSV row templates", "864,000,000"),
            ("evaluate", 2 * 10**7, "per-asset cost rows", "2,400,360,000"),
            ("optimize", 2 * 10**7, "per-asset cost rows", "2,720,360,000"),
            ("study", 2 * 10**7, "per-asset cost rows", "2,720,360,000"),
        ],
    )
    def test_unallocatable_buffers_beside_the_draws_exit_3_before_sampling(
        self, command, n_scenarios, what, nbytes, tmp_path
    ):
        # one asset's draws fit a 1 GiB address space; what the command then
        # holds beside them, the export's row templates or the one (T+1, S)
        # block of cost rows, does not, and is checked before any cell is
        # drawn. Beside its block the build holds two (S,) rows and the
        # CVaR search four, and the row kernel 360,000 bytes of (block,)
        # temporaries
        document = {"fleet": {"n_assets": 1}, "scenarios": {"n_scenarios": n_scenarios}}
        proc = run_sized(command, document, tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == (
            f"error: cannot allocate {nbytes} bytes for the {what} of N=1 assets,"
            f" S={n_scenarios} scenarios and T=12 periods (config keys fleet.n_assets,"
            " scenarios.n_scenarios and fleet.horizon)\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, what, nbytes",
        [
            ("optimize", "per-asset cost rows", "960,360,000"),
            ("study", "schedule cost distributions", "1,940,000,000"),
        ],
    )
    def test_unallocatable_cost_distributions_exit_3_before_sampling(
        self, command, what, nbytes, tmp_path
    ):
        # at T=1 the matrix build takes 32 bytes a scenario; optimize's CVaR
        # search holds its one block of rows and four (S,) rows beside it (48
        # bytes), more than its solved schedule's distribution, and the study
        # then holds the weights, its five distributions and one ECDF (97
        # bytes); beside one asset's draws neither fits a 1 GiB address space
        document = {
            "fleet": {"n_assets": 1, "horizon": 1}, "scenarios": {"n_scenarios": 2 * 10**7}
        }
        proc = run_sized(command, document, tmp_path, threads=2)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == (
            f"error: cannot allocate {nbytes} bytes for the {what} of"
            " N=1 assets, S=20000000 scenarios and T=1 periods (config keys fleet.n_assets,"
            " scenarios.n_scenarios and fleet.horizon)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_evaluate_streams_its_distribution_rows(self, tmp_path):
        # at T=1 the matrix build's row buffers take 24 bytes a scenario; a
        # list of every (scenario, cost, weight) row would take about ten times that
        n_scenarios = 10**5
        config = tmp_path / "long.json"
        config.write_text(json.dumps({
            "fleet": {"n_assets": 1, "horizon": 1}, "scenarios": {"n_scenarios": n_scenarios}
        }))
        schedule = tmp_path / "schedule.csv"
        schedule.write_text("asset_id,date\nA1,1\n")
        out = tmp_path / "eval"
        argv = ["evaluate", "--config", str(config), "--schedule", str(schedule),
                "--out", str(out)]
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert fleetmaint.cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * (3 * n_scenarios * 8)
        lines = (out / "eval_distribution.csv").read_text().splitlines()
        assert lines[0] == "scenario,cost,weight" and len(lines) == n_scenarios + 1

    @pytest.mark.parametrize("command", ["gen-fleet", "study"])
    @pytest.mark.parametrize(
        "key, bounds, message",
        [
            ("rul_std_range", [0, 0], "rul_std must be > 0"),
            ("calendar_limit_range", [0, 0.4], "calendar_limit must be > 0"),
            ("usage_mean_range", [0, 0], "usage_mean_per_period must be > 0"),
        ],
        ids=["rul-std", "calendar-limit", "usage-mean"],
    )
    def test_invalid_generated_asset_exits_2(self, key, bounds, message, command, tmp_path, capsys):
        # each range is valid on its own; every asset drawn from it is not
        config = tmp_path / "draws.json"
        config.write_text(json.dumps({"fleet": {"n_assets": 2, key: bounds}}))
        out = tmp_path / "draws_out"
        assert fleetmaint.cli.main([command, "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: fleet: asset A1: {message}\n"
        assert not out.exists()

    def test_zero_threads_exits_2(self, config_file, tmp_path):
        proc = run_cli(
            ["study", "--config", str(config_file), "--threads", "0"], tmp_path
        )
        assert proc.returncode == 2

    def test_missing_subcommand_is_usage_error(self, tmp_path):
        proc = run_cli([], tmp_path)
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()
