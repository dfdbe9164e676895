"""Command-line interface and study pipeline.

Subcommands: gen-fleet, gen-scenarios, evaluate, optimize, study. All of
them accept --config (JSON), --seed (overrides the config seeds) and --out;
:func:`main` loads the config and resolves the output directory once for
all of them. evaluate, optimize and study sample the scenario set and
build the evaluation matrix of the config's fleet through :func:`_setup`,
and optimize and study solve and price each policy through :func:`_solve`.
--threads K (>= 1) sets how many worker processes sample the scenario
set (:func:`fleetmaint.scenario.generate_scenarios`); everything else runs
on one thread, and no output depends on K. Exit codes: 0 on success, 2 for
configuration problems, 3 for runtime failures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .config import ConfigError, RunConfig, load_config, parse_config
from .csvio import write_csv
from .criteria import CostDistribution, cvar_alpha, expected_cost, var_alpha
from .fleet import AssetSpec, FleetSpec, Schedule, validate_schedule
from .optimize import EvaluationMatrix, build_matrix, schedule_cost_distribution
from .policies import PolicyKind, run_policy
from .report import (
    EcdfCurve,
    PolicySummary,
    ecdf,
    emit_outputs,
    read_schedule_csv,
    staged_outputs,
    summarize_policy,
    write_schedule_csv,
)
from .scenario import ScenarioSet, generate_scenarios, write_scenario_csvs

__all__ = ["main", "run_study", "compute_study", "StudyResult", "POLICY_ORDER"]

POLICY_ORDER = (
    PolicyKind.INTEGRATED_EXPECTED,
    PolicyKind.INTEGRATED_CVAR,
    PolicyKind.CALENDAR_ONLY,
    PolicyKind.RUL_THRESHOLD,
    PolicyKind.USAGE_ONLY,
)


@dataclass
class StudyResult:
    """Everything a full study computes, before any files are written."""

    fleet: FleetSpec
    scenarios: ScenarioSet
    schedules: dict[str, Schedule]
    summaries: list[PolicySummary]
    curves: dict[str, EcdfCurve]


def _setup(
    config: RunConfig, fleet: FleetSpec, workers: int
) -> tuple[ScenarioSet, EvaluationMatrix]:
    """The fleet's scenario set, sampled by ``workers`` processes, and
    their evaluation matrix."""
    scenarios = generate_scenarios(fleet, config.n_scenarios, config.scenario_seed, workers)
    return scenarios, build_matrix(fleet, scenarios, config.risk)


def _solve(
    kind: PolicyKind,
    config: RunConfig,
    fleet: FleetSpec,
    scenarios: ScenarioSet,
    matrix: EvaluationMatrix,
) -> tuple[Schedule, CostDistribution, PolicySummary]:
    """One policy's schedule, its cost distribution and its summary row."""
    schedule = run_policy(
        kind,
        fleet,
        scenarios,
        config.risk,
        trigger_prob=config.trigger_prob,
        alpha=config.alpha,
        matrix=matrix,
        budget=config.exhaustive_budget,
    )
    dist = schedule_cost_distribution(matrix, schedule, scenarios.weights)
    return schedule, dist, summarize_policy(kind.value, schedule, dist, matrix, config.alpha)


def compute_study(config: RunConfig, workers: int = 1) -> StudyResult:
    """Run every policy against one shared scenario set, sampled by
    ``workers`` processes."""
    fleet = config.build_fleet()
    scenarios, matrix = _setup(config, fleet, workers)
    schedules: dict[str, Schedule] = {}
    summaries: list[PolicySummary] = []
    curves: dict[str, EcdfCurve] = {}
    for kind in POLICY_ORDER:
        schedule, dist, summary = _solve(kind, config, fleet, scenarios, matrix)
        schedules[kind.value] = schedule
        summaries.append(summary)
        curves[kind.value] = ecdf(dist)
    return StudyResult(
        fleet=fleet,
        scenarios=scenarios,
        schedules=schedules,
        summaries=summaries,
        curves=curves,
    )


def run_study(
    config: RunConfig, out_dir=None, workers: int = 1
) -> tuple[StudyResult, list[Path]]:
    """Compute a study and emit its output files."""
    result = compute_study(config, workers)
    meta = {"seed": config.scenario_seed, "config": config.to_json_dict()}
    paths = emit_outputs(
        result.summaries,
        result.curves,
        result.schedules,
        out_dir if out_dir is not None else config.out_dir,
        result.fleet,
        meta,
    )
    return result, paths


def _print_summary_table(summaries: list[PolicySummary]) -> None:
    print(
        f"{'policy':<22}{'expected_cost':>14}{'cvar':>12}"
        f"{'mean_time':>11}{'failure_proxy':>15}"
    )
    for s in summaries:
        print(
            f"{s.policy:<22}{s.expected_cost:>14.6g}{s.cvar:>12.6g}"
            f"{s.mean_maintenance_time:>11.6g}{s.mean_failure_proxy:>15.6g}"
        )


def _cmd_gen_fleet(args, config: RunConfig, out: Path) -> int:
    header = [f.name for f in fields(AssetSpec)]
    rows = [
        [a.id, *(format(getattr(a, k), ".17g") for k in header[1:])]
        for a in config.build_fleet().assets
    ]
    with staged_outputs(out) as stage:
        write_csv(stage / "fleet.csv", header, rows)
    print(f"wrote {out / 'fleet.csv'}")
    return 0


def _cmd_gen_scenarios(args, config: RunConfig, out: Path) -> int:
    fleet = config.build_fleet()
    scenarios = generate_scenarios(
        fleet, config.n_scenarios, config.scenario_seed, args.threads
    )
    names = ("scenario_usage.csv", "scenario_rul.csv")
    with staged_outputs(out) as stage:
        write_scenario_csvs(scenarios, fleet, stage / names[0], stage / names[1])
    for name in names:
        print(f"wrote {out / name}")
    return 0


def _cmd_evaluate(args, config: RunConfig, out: Path) -> int:
    fleet = config.build_fleet()
    schedule = read_schedule_csv(Path(args.schedule))
    violations = validate_schedule(schedule, fleet)
    if violations:
        for v in violations:
            print(f"invalid schedule: {v}", file=sys.stderr)
        return 3
    scenarios, matrix = _setup(config, fleet, args.threads)
    dist = schedule_cost_distribution(matrix, schedule, scenarios.weights)
    print(f"expected_cost={expected_cost(dist):.12g}")
    print(f"var_{config.alpha:g}={var_alpha(dist, config.alpha):.12g}")
    print(f"cvar_{config.alpha:g}={cvar_alpha(dist, config.alpha):.12g}")
    with staged_outputs(out) as stage:
        write_csv(
            stage / "eval_distribution.csv",
            ("scenario", "cost", "weight"),
            [
                [w, format(dist.values[w], ".17g"), format(dist.weights[w], ".17g")]
                for w in range(dist.values.size)
            ],
        )
    print(f"wrote {out / 'eval_distribution.csv'}")
    return 0


def _cmd_optimize(args, config: RunConfig, out: Path) -> int:
    expected = args.criterion == "expected"
    kind = PolicyKind.INTEGRATED_EXPECTED if expected else PolicyKind.INTEGRATED_CVAR
    fleet = config.build_fleet()
    scenarios, matrix = _setup(config, fleet, args.threads)
    schedule, _, summary = _solve(kind, config, fleet, scenarios, matrix)
    objective = summary.expected_cost if expected else summary.cvar
    with staged_outputs(out) as stage:
        write_schedule_csv(stage / "schedule.csv", schedule, fleet)
    print(f"criterion={args.criterion} alpha={config.alpha:g} objective={objective:.12g}")
    print(f"wrote {out / 'schedule.csv'}")
    return 0


def _cmd_study(args, config: RunConfig, out: Path) -> int:
    result, paths = run_study(config, out_dir=out, workers=args.threads)
    _print_summary_table(result.summaries)
    for p in paths:
        print(f"wrote {p}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetmaint",
        description="Scenario-based maintenance scheduling for multi-asset fleets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--config", help="JSON config file (defaults apply if omitted)")
        sp.add_argument("--seed", type=int, help="override the fleet and scenario seeds")
        sp.add_argument("--out", help="output directory (default from config)")
        sp.add_argument(
            "--threads", type=int, default=1,
            help="worker processes for scenario sampling; outputs do not depend on it",
        )

    sp = sub.add_parser("gen-fleet", help="sample a fleet and write fleet.csv")
    add_common(sp)
    sp.set_defaults(func=_cmd_gen_fleet)

    sp = sub.add_parser("gen-scenarios", help="sample scenarios and export them as CSV")
    add_common(sp)
    sp.set_defaults(func=_cmd_gen_scenarios)

    sp = sub.add_parser("evaluate", help="cost distribution of a schedule file")
    add_common(sp)
    sp.add_argument("--schedule", required=True, help="CSV with asset_id,date rows")
    sp.set_defaults(func=_cmd_evaluate)

    sp = sub.add_parser("optimize", help="find a schedule by expected cost or CVaR")
    add_common(sp)
    sp.add_argument("--criterion", choices=("expected", "cvar"), required=True)
    sp.set_defaults(func=_cmd_optimize)

    sp = sub.add_parser("study", help="full policy comparison with report files")
    add_common(sp)
    sp.set_defaults(func=_cmd_study)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        config = load_config(args.config) if args.config else parse_config({})
        if args.seed is not None:
            config = config.with_seed(args.seed)
        return args.func(args, config, Path(args.out or config.out_dir))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to a distinct exit code
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
