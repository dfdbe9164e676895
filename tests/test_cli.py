"""Config parsing, the study driver, and the command-line interface."""

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import fleetmaint.cli
from fleetmaint import scenario
from fleetmaint.cli import POLICY_ORDER, compute_study, run_study
from fleetmaint.config import ConfigError, load_config, parse_config
from fleetmaint.fleet import AssetSpec, FleetGenConfig
from fleetmaint.riskcost import RiskParams
from fleetmaint.scenario import generate_scenarios, read_scenario_csvs

SRC = Path(__file__).resolve().parent.parent / "src"

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


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


class TestParseConfig:
    def test_empty_document_gets_full_defaults(self):
        config = parse_config({})
        assert config.explicit_fleet is None
        assert config.fleet_gen.horizon == 12
        assert config.n_scenarios == 800
        assert config.scenario_seed == 1
        assert config.alpha == 0.9
        assert config.trigger_prob == 0.6
        assert config.out_dir == "out"
        assert config.fleet_gen is not None
        assert config.fleet_gen.n_assets == 5
        assert config.formats == ("csv",)

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
        "document",
        [
            {"scenarios": {"n_scenarios": 0}},
            {"fleet": {"horizon": 0}},
            {"policies": {"alpha": 1.5}},
            {"policies": {"trigger_prob": 0}},
            {"risk": {"p_max": 2.0}},
            {"output": {"formats": ["xml"]}},
            {"fleet": {"n_assets": 3, "usage_cv_range": [0.5, 1.2]}},
            {"risk": {"decay_rate": float("nan")}},
            {"costs": {"pm": float("inf")}},
            {"fleet": {"n_assets": 3, "usage_limit_range": [160, float("inf")]}},
            {"fleet": {"assets": [{**EXPLICIT_ASSET, "calendar_limit": float("inf")}]}},
            {"fleet": {"n_assets": 2}, "costs": {"per_asset": {"A1": {"fail": float("inf")}}}},
            {"fleet": {"rul_mean_range": None}},
            {"fleet": {"assets": [{**EXPLICIT_ASSET, "id": "a\rb"}]}},
        ],
    )
    def test_bad_values_rejected(self, document):
        with pytest.raises(ConfigError):
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
        ],
        ids=["asset", "fleet-generation", "risk"],
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

        def fail_outside_first_block(fleet, seed, inc, rul, start, stop):
            if start:
                raise ValueError("injected worker failure")
            sample_cells(fleet, seed, inc, rul, start, stop)

        monkeypatch.setattr(scenario, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(scenario, "_sample_cells", fail_outside_first_block)
        out = tmp_path / "scen"
        code = fleetmaint.cli.main(
            ["gen-scenarios", "--config", str(config_file), "--out", str(out), "--threads", "2"]
        )
        assert code == 3
        assert "error: scenario sampling worker for block 1 of 2" in capsys.readouterr().err
        assert not out.exists()

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

    def test_zero_threads_exits_2(self, config_file, tmp_path):
        proc = run_cli(
            ["study", "--config", str(config_file), "--threads", "0"], tmp_path
        )
        assert proc.returncode == 2

    def test_missing_subcommand_is_usage_error(self, tmp_path):
        proc = run_cli([], tmp_path)
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()
