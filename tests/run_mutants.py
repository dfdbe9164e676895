"""Apply each mutant of tests/mutants.json and run the tests that should kill it.

    python3 tests/run_mutants.py [NAME ...]

For every mutant (or only those named), copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, replaces the mutant's old text
by its new text in its file there, and runs its tests in a child pytest.
``tests/`` is copied too because ``tests/conftest.py`` puts its sibling
``src/`` first on ``sys.path``. Prints one line per mutant: killed (a test
failed), survived (every test passed), error (pytest could not run them,
or the old text does not occur exactly once) or timeout, with the seconds
it took. Exits 1 if any mutant was not killed.

Each mutant costs one run of its tests, so this is not part of tier-1;
tests/test_mutants.py checks in tier-1 that every mutant still applies.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = ROOT / "tests" / "mutants.json"
# Seconds one mutant's tests may run before it counts as a timeout.
TIMEOUT = 900


def run_mutant(mutant: dict) -> str:
    """Apply ``mutant`` to a fresh copy of the sources and run its tests."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        target = copy / mutant["file"]
        text = target.read_text()
        if text.count(mutant["old"]) != 1:
            return "error (old text does not occur exactly once)"
        target.write_text(text.replace(mutant["old"], mutant["new"]))
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                *mutant["tests"]]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
        try:
            proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timeout"
    # pytest exits 1 when a test failed and 0 when all passed; other codes
    # mean it did not run the tests (a usage error, or no test collected).
    outcomes = {0: "survived", 1: "killed"}
    return outcomes.get(proc.returncode, f"error (pytest exit {proc.returncode})")


def main(names: list[str]) -> int:
    mutants = json.loads(MUTANTS.read_text())
    unknown = set(names) - {m["name"] for m in mutants}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    outcomes = []
    for mutant in mutants:
        if names and mutant["name"] not in names:
            continue
        start = time.perf_counter()
        outcome = run_mutant(mutant)
        print(f"{mutant['name']}: {outcome} in {time.perf_counter() - start:.1f} s", flush=True)
        outcomes.append(outcome)
    return 0 if all(outcome == "killed" for outcome in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
