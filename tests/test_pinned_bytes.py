"""Byte-for-byte pins: study outputs against bench/digests.json, and one export."""

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


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("seed", [0, 1, 50, 99])
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
