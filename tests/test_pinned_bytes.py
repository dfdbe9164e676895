"""Byte-for-byte pins: study outputs against bench/digests.json, one export,
and the files and metric lines of optimize and evaluate."""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from fleetmaint.cli import main
from fleetmaint.config import load_config
from fleetmaint.scenario import generate_scenarios

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

from workloads import (  # noqa: E402
    DIGESTS_FILE,
    PROFILES,
    scenario_digest,
    study_digests,
    write_config,
)

# gen-scenarios with this config writes these bytes (N=2, T=4, S=6).
SMALL_EXPORT = {
    "fleet": {"n_assets": 2, "horizon": 4, "seed": 5},
    "scenarios": {"n_scenarios": 6, "seed": 5},
}
SMALL_EXPORT_SHA256 = {
    "scenario_usage.csv": "8bc050128b795df732903646377f39f960a06f1924f2079095f0729227f445eb",
    "scenario_rul.csv": "4db98f9c46064189bd2317c8bddfe3982252539a26ede284a7ca663bd129234b",
}

# generate_scenarios on the study_large fleet (N=40, T=12) at S=500 and
# scenario seed 2 hashes to this (bench/workloads.scenario_digest), with
# one sampling worker or two. In 23 of its 20,000 cells the truncated
# normal rejects its first draw.
LARGE_FLEET_S500_SHA256 = "054141a784de03fc6fbd03cdaa53bfc92fab6b9939d4e9da45da3d3b2644a60b"

# optimize and evaluate with this config (N=3, T=6, S=100) write these
# files and print these metric lines; evaluate prices SMALL_SCHEDULE.
SMALL_STUDY = {
    "fleet": {"n_assets": 3, "horizon": 6, "seed": 5},
    "scenarios": {"n_scenarios": 100, "seed": 5},
}
SMALL_SCHEDULE = "asset_id,date\nA1,2\nA2,none\nA3,5\n"
PINNED_COMMANDS = {
    "optimize-expected": (
        ["optimize", "--criterion", "expected"],
        "schedule.csv",
        "6854085e631a82a930a523c6fbf2ac6c5c9338582fee31f2143389e1c492b6d7",
        ["criterion=expected alpha=0.9 objective=56.5267269686"],
    ),
    "optimize-cvar": (
        ["optimize", "--criterion", "cvar"],
        "schedule.csv",
        "05fb9d8c19f4851ab52bfc500302376ce4908e74e86e20175b3e2f4b3eae437b",
        ["criterion=cvar alpha=0.9 objective=88.6419916916"],
    ),
    "evaluate": (
        ["evaluate", "--schedule", "schedule.csv"],
        "eval_distribution.csv",
        "e4807042f9834e43530c134d2ffdf3f6f69b3d6c6efa80bc0008c1e390080e1b",
        ["expected_cost=72.1484893212", "var_0.9=86.5306385048", "cvar_0.9=110.405382296"],
    ),
}


def run_captured(argv) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return code, stdout.getvalue()


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("seed", range(100))
def test_default_study_matches_pinned_digests(seed, tmp_path):
    config = write_config(tmp_path / "config.json", PROFILES["full"]["default"], seed)
    out = tmp_path / "out"
    assert run_quietly(["study", "--config", str(config), "--out", str(out)]) == 0
    pinned = json.loads(DIGESTS_FILE.read_text())["default"][str(seed)]
    assert study_digests(out) == pinned


def test_gen_scenarios_export_is_pinned(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_EXPORT))
    out = tmp_path / "out"
    assert run_quietly(["gen-scenarios", "--config", str(config), "--out", str(out)]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in SMALL_EXPORT_SHA256
    }
    assert digests == SMALL_EXPORT_SHA256


@pytest.mark.parametrize("workers", [1, 2])
def test_large_fleet_scenarios_are_pinned(workers, tmp_path):
    config = write_config(tmp_path / "config.json", PROFILES["full"]["large"], 2)
    scenarios = generate_scenarios(load_config(config).build_fleet(), 500, 2, workers=workers)
    assert scenario_digest(scenarios) == LARGE_FLEET_S500_SHA256


@pytest.mark.parametrize("command", list(PINNED_COMMANDS))
def test_optimize_and_evaluate_are_pinned(command, tmp_path):
    args, name, sha256, metric_lines = PINNED_COMMANDS[command]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_STUDY))
    (tmp_path / "schedule.csv").write_text(SMALL_SCHEDULE)
    args = [str(tmp_path / a) if a == "schedule.csv" else a for a in args]
    out = tmp_path / "out"
    code, stdout = run_captured([*args, "--config", str(config), "--out", str(out)])
    assert code == 0
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha256
    assert [line for line in stdout.splitlines() if not line.startswith("wrote ")] == metric_lines
