"""fleetmaint benchmark: end-to-end runs of the CLI and a traced run.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is taken from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A readable report,
with quartiles and sample counts, goes to standard error. The record of
each run, with the machine it ran on, is written to
``.bench_work/results/`` and the spans of a traced run to
``.bench_work/trace/``.

Workloads (see BENCHMARK.json for why each is there):

- study_default       ``fleetmaint study`` N=5, T=12, S=800, --threads 1
- study_default_t2    the same study with --threads 2
- study_large         ``fleetmaint study`` N=40, T=12, S=10000, --threads 2
- scenario_roundtrip  ``fleetmaint gen-scenarios`` N=10, T=12, S=5000, then
                      ``read_scenario_csvs`` of the files in a second child

``--trace 0`` (end to end): the workload runs in child processes, one
after the other (closed loop, one client), until ``--seconds`` have passed
and at least a minimum number of samples exist. Set-up is timed in child
processes of its own, spread over the run. Every metric is a median:

- wall_s: one sample (both children for the round trip)
- setup_s: interpreter start, ``import fleetmaint.cli``, config load and
  ``build_fleet``
- peak_rss_mb: the child's ru_maxrss (the larger child for the round trip)
- cvar_objective: integrated_cvar's CVaR from summary.csv; for the round
  trip, of integrated_cvar on the sampled set the reloaded set must equal

The error rate is ``failed / attempted`` of the result line and of the
report; it is not a metric, since a metric must never read 0.

``--trace 1`` (per layer): the workload runs in this process through the
CLI's own ``main``: a warm-up pass, a pass with spans around the public
calls of every module (bench/tracing.py), and an untraced pass. The
traced minus the untraced wall time is the tracing overhead.

Both modes run with the thread variables of the numeric libraries pinned
to 1 (workloads.THREAD_ENV), so ``--threads`` is the only parallelism.

Every run checks its outputs. A study must match the digests pinned in
bench/digests.json for its seed (seeds 0-99); at a seed not pinned, every
sample must match the first. Its schedules must be valid and its integrated
policies no worse than the others on their own criterion. The traced run
repeats the exhaustive CVaR walk at the other thread count, which must
return the same argmin. The scenario round trip must reload bit-equal to
direct sampling. A failed check counts as a failed operation. Counts must
repeat within a run: across samples, and between the traced pass and the
walk at the other thread count; counts that follow from the profile's
shapes must match their formula. A drift makes the run not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import (
    BENCH,
    DEFAULT_SEED,
    PROFILES,
    ROOT,
    SRC,
    THREAD_ENV,
    WORKLOADS,
    CheckError,
    Profile,
    Workload,
    check_study,
    child_env,
    cli_argv,
    load_pinned,
    run_child,
    scenario_digest,
    study_digests,
    write_config,
)
from tracing import PER_LAYER_UNITS, run_traced

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cvar_objective": "cost"}

# Per scale: timed set-up children per run, and the fewest workload samples
# a run takes even when --seconds has already passed.
SETUP_REPS = {"full": 12, "smoke": 1}
MIN_SAMPLES = {"full": 2, "smoke": 1}
CHILD_TIMEOUT_S = 150.0
# No new sample starts once it would likely end past this point of a run.
RUN_BUDGET_S = 140.0

# What a failed sample or check raises; anything else is a defect of the
# benchmark itself and ends it with a traceback.
SAMPLE_ERRORS = (CheckError, OSError, ValueError, KeyError, IndexError)

@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)  # do not make a run incorrect

    def record(self, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.problems.append(error)
        return error is None


def _exit_error(name: str, result) -> str | None:
    if result.returncode == 0:
        return None
    return f"{name} exited {result.returncode}: {result.stderr.strip()[-400:]}"


def _study_sample(workload: Workload, profile: Profile, config: Path, run_dir: Path,
                  threads: int, index: int):
    """One CLI study; returns (child result, digests, CVaR of integrated_cvar)."""
    out = run_dir / f"out{index}"
    result = run_child(cli_argv(sys.executable, "study", config, out, threads), run_dir,
                       CHILD_TIMEOUT_S)
    error = _exit_error("study", result)
    if error:
        raise CheckError(error)
    try:
        return result, study_digests(out), check_study(out, profile)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _roundtrip_sample(profile: Profile, config: Path, run_dir: Path, index: int,
                      reference: str):
    """gen-scenarios then a reader child; returns (wall, peak RSS, bytes written)."""
    out = run_dir / f"out{index}"
    usage, rul = out / "scenario_usage.csv", out / "scenario_rul.csv"
    try:
        gen = run_child(cli_argv(sys.executable, "gen-scenarios", config, out, 1), run_dir,
                        CHILD_TIMEOUT_S)
        error = _exit_error("gen-scenarios", gen)
        if error:
            raise CheckError(error)
        written = usage.stat().st_size + rul.stat().st_size
        read = run_child(
            [sys.executable, str(BENCH / "child.py"), "read", str(config), str(usage), str(rul)],
            run_dir, CHILD_TIMEOUT_S,
        )
        error = _exit_error("reader", read)
        if error:
            raise CheckError(error)
        info = json.loads(read.stdout.splitlines()[-1])
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if info["sha256"] != reference:
        raise CheckError("reloaded scenario set differs from direct sampling")
    rows = profile.n_assets * profile.n_scenarios * (profile.horizon + 1)
    if info["rows"] != rows:
        raise CheckError(f"reader saw {info['rows']} rows, expected {rows}")
    return gen.wall_s + read.wall_s, max(gen.peak_rss_mb, read.peak_rss_mb), written


def run_untraced(workload: Workload, profile: Profile, scale: str, seed: int,
                 seconds: float, config: Path, run_dir: Path, tally: Tally) -> dict:
    """End-to-end metrics of one run; samples are kept for the report."""
    setup_argv = [sys.executable, str(BENCH / "child.py"), "setup", str(config)]
    setup = []

    def time_setup(keep: bool = True) -> None:
        result = run_child(setup_argv, run_dir, CHILD_TIMEOUT_S)
        if tally.record(_exit_error("setup", result)) and keep:
            setup.append(result.wall_s)

    # The first start-up compiles bytecode and fills the page cache; later
    # CLI runs never pay that again, so it is not a sample.
    time_setup(keep=False)

    walls, rss, cvar, written = [], [], [], set()
    reference = None
    if workload.command == "study":
        # None at a seed not pinned: the first sample becomes the reference.
        reference = load_pinned(scale, workload.profile, seed)
    else:
        result = run_child([sys.executable, str(BENCH / "child.py"), "reference", str(config)],
                           run_dir, CHILD_TIMEOUT_S)
        try:
            error = _exit_error("reference", result)
            if error:
                raise CheckError(error)
            info = json.loads(result.stdout.splitlines()[-1])
            reference = info["sha256"]
            cvar.append(info["cvar"])
            tally.record(None)
        except SAMPLE_ERRORS as exc:
            tally.record(f"reference study: {exc}")

    started = time.perf_counter()
    index = 0
    while index < MIN_SAMPLES[scale] or time.perf_counter() - started < seconds:
        elapsed = time.perf_counter() - started
        if walls and elapsed + max(walls) > RUN_BUDGET_S:
            break
        # Set-up samples are spread over the run in step with its time, so
        # that their median sees the same machine as the workload samples.
        share = min(1.0, elapsed / seconds) if seconds > 0 else 1.0
        for _ in range(min(SETUP_REPS[scale], 1 + int(SETUP_REPS[scale] * share)) - len(setup)):
            time_setup()
        try:
            if workload.command == "study":
                result, digests, objective = _study_sample(
                    workload, profile, config, run_dir, workload.threads, index)
                if reference is None:
                    reference = digests
                if digests != reference:
                    differ = sorted(k for k in digests if digests[k] != reference.get(k))
                    raise CheckError(f"study outputs differ from the reference: {differ}")
                walls.append(result.wall_s)
                rss.append(result.peak_rss_mb)
                cvar.append(objective)
            else:
                wall, peak, nbytes = _roundtrip_sample(profile, config, run_dir, index, reference)
                walls.append(wall)
                rss.append(peak)
                written.add(nbytes)
            tally.record(None)
        except SAMPLE_ERRORS as exc:
            tally.record(f"sample {index}: {exc}")
        index += 1
    for _ in range(SETUP_REPS[scale] - len(setup)):
        time_setup()
    if len(written) > 1:
        tally.problems.append(f"scenario.write_bytes drifted across samples: {sorted(written)}")

    samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss, "cvar_objective": cvar}
    metrics = {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}
    return {"metrics": metrics, "samples": samples}


def run_traced_workload(workload: Workload, profile: Profile, scale: str, seed: int,
                        config: Path, run_dir: Path, tally: Tally) -> dict:
    """Per-layer metrics from the in-process traced run, with output checks."""
    try:
        trace = run_traced(workload, config, run_dir)
    except Exception as exc:  # the program failed inside this process
        traceback.print_exc()
        tally.record(f"traced run raised {exc!r}")
        return {"metrics": dict.fromkeys(PER_LAYER_UNITS, 0.0), "samples": {}}
    pinned = load_pinned(scale, workload.profile, seed)
    digests = {}
    for name, run in trace.runs.items():
        error = None
        try:
            if run["code"] != 0:
                raise CheckError(f"CLI exited {run['code']}")
            if workload.command == "study":
                check_study(run["out"], profile)
                digests[name] = study_digests(run["out"])
                if pinned is not None and digests[name] != pinned:
                    raise CheckError("study outputs differ from the pinned digests")
            elif scenario_digest(run["reloaded"]) != trace.reference_digest:
                raise CheckError("reloaded scenario set differs from direct sampling")
        except SAMPLE_ERRORS as exc:
            error = f"{name} pass: {exc}"
        tally.record(error)
    if len({json.dumps(d, sort_keys=True) for d in digests.values()}) > 1:
        tally.problems.append("study outputs differ between passes")
    tally.problems.extend(trace.problems)
    tally.notes.extend(trace.notes)

    m = trace.metrics
    if workload.command == "roundtrip" and m["scenario.write_bytes"]:
        untraced_out = trace.runs["untraced"]["out"]
        written = sum((untraced_out / f).stat().st_size
                      for f in ("scenario_usage.csv", "scenario_rul.csv"))
        if written != m["scenario.write_bytes"]:
            tally.problems.append(f"scenario.write_bytes {m['scenario.write_bytes']} "
                                  f"vs {written} untraced")
    tally.problems.extend(_count_problems(m, workload, profile))
    _write_spans(trace.spans, run_dir.parent, workload, seed)
    return {"metrics": m, "samples": {}}


def _count_problems(m: dict, workload: Workload, profile: Profile) -> list[str]:
    """Shape counts against the formulas that follow from the profile.

    Only counts fixed by the problem's shape are checked; how many schedules
    a search looks at is the solver's business. A count of 0 means the call
    was not made (or not traced) and is not checked.
    """
    n, t, s = profile.n_assets, profile.horizon, profile.n_scenarios
    expect = {"scenario.cells": n * s}
    if workload.command == "study":
        expect["optimize.matrix_bytes"] = n * (t + 1) * s * 8
    else:
        expect["scenario.read_rows"] = n * s * (t + 1)
    return [f"{k} = {m[k]}, expected {v}" for k, v in expect.items() if m[k] and m[k] != v]


def _write_spans(spans: list[dict], workdir: Path, workload: Workload, seed: int) -> None:
    path = workdir / "trace" / f"{workload.name}-s{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(spans) + "\n")


def machine_info() -> dict:
    """The machine and libraries a result was measured with."""
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
    try:
        with open("/proc/cpuinfo") as f:
            info["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                platform.processor(),
            )
    except OSError:
        info["cpu_model"] = platform.processor()
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    info["caches"] = caches
    probe = (
        "import json, numpy, scipy; d = numpy.show_config(mode='dicts');"
        "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
        "'blas': d['Build Dependencies']['blas'].get('name'),"
        "'blas_version': d['Build Dependencies']['blas'].get('version')}))"
    )
    try:
        out = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                             capture_output=True, text=True, timeout=60)
        info.update(json.loads(out.stdout))
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
        info["git_commit"] = out.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        info["git_commit"] = None
    return info


def _report(record: dict) -> None:
    err = sys.stderr
    print(f"fleetmaint benchmark: {record['workload']} seed={record['seed']} "
          f"scale={record['scale']} trace={record['trace']}", file=err)
    units = record["units"]
    for name, value in record["metrics"].items():
        line = f"  {name:<36}{value:>16.6g} {units[name]}"
        samples = record["samples"].get(name)
        if samples and len(samples) > 1:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            line += f"   median of n={len(samples)}, q1={q1:.6g} q3={q3:.6g}"
        elif samples:
            line += "   n=1"
        print(line, file=err)
    attempted, failed = record["attempted"], record["failed"]
    print(f"  {'error_rate':<36}{failed / attempted:>16.6g} ratio"
          f"   {failed} of {attempted} operations failed", file=err)
    for problem in record["problems"]:
        print(f"  problem: {problem}", file=err)
    for note in record["notes"]:
        print(f"  note: {note}", file=err)
    print(f"  correct: {str(record['correct']).lower()}", file=err)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(PROFILES), default="full",
                        help="problem sizes; 'smoke' is the tiny size of the smoke test")
    parser.add_argument("--workdir", type=Path, default=ROOT / ".bench_work",
                        help="scratch, records and spans (default: .bench_work)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fleetmaint" / "__init__.py").is_file():
        print(f"error: fleetmaint sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    profile = PROFILES[args.scale][workload.profile]
    run_dir = args.workdir / f"run-{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    tally = Tally()
    try:
        config = write_config(run_dir / "config.json", profile, args.seed)
        if args.trace:
            # The traced run loads numpy here, so it needs the children's
            # thread settings before that import.
            assert "numpy" not in sys.modules
            os.environ.update(THREAD_ENV)
            result = run_traced_workload(workload, profile, args.scale, args.seed, config,
                                         run_dir, tally)
            units = PER_LAYER_UNITS
        else:
            result = run_untraced(workload, profile, args.scale, args.seed, args.seconds,
                                  config, run_dir, tally)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": workload.threads,
        "units": units,
        "metrics": result["metrics"],
        "samples": result["samples"],
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "problems": tally.problems,
        "notes": tally.notes,
        "correct": not tally.problems and tally.attempted > 0,
        "child_env": {k: child_env().get(k) for k in (*THREAD_ENV, "PYTHONPATH")},
        "machine": machine_info(),
    }
    results = args.workdir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    _report(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
