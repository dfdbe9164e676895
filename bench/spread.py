"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py WORKLOAD [WORKLOAD ...] [--seeds 1-10] [--seconds S]

Runs ``bench/run.py`` once per seed and workload, one run at a time, and
prints for each metric the median over seeds and the distance between the
first and third quartile as a share of that median, next to the metric's
bound from BENCHMARK.json. A spread above a third of the bound means the
benchmark is not steady enough on this machine to resolve that bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=DECLARED["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            ok &= proc.returncode == 0 and result["correct"] and result["failed"] == 0
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  f"run took {time.perf_counter() - started:.1f} s", file=sys.stderr, flush=True)
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / median
            print(f"{workload:<20}{name:<16}median {median:<12.6g}spread {share:8.4f}"
                  f"  bound {bounds[name]}  {'ok' if share < bounds[name] / 3 else 'WIDE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
