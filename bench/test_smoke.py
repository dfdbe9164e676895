"""Smoke test of the benchmark at a tiny size (N=2, S=50).

    python3 -m pytest bench/test_smoke.py

Runs every workload end to end and traced, with all outputs in temporary
directories, and checks that each run reports a correct result carrying
exactly the metrics BENCHMARK.json declares.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(script: Path, workdir: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, str(script), *args, "--workdir", str(workdir)],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_workload_runs_and_checks(workload, trace, tmp_path):
    proc = _run(BENCH / "run.py", tmp_path, "--workload", workload, "--seed", "5",
                "--seconds", "0", "--trace", trace, "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / "bench" / "run.py", tmp_path, "--workload", "study_default")
    assert proc.returncode != 0
    assert proc.stdout == ""
