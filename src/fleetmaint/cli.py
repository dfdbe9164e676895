"""Command-line interface and study pipeline.

Subcommands: gen-fleet, gen-scenarios, evaluate, optimize, study. All of
them accept --config (JSON), --seed (overrides the config seeds) and --out;
:func:`main` loads the config and resolves the output directory once for
all of them. evaluate, optimize and study build the evaluation matrix of
the config's fleet through :func:`_setup`, which samples only what pricing
reads of the scenario set, its latent RULs and usage mean
(:func:`fleetmaint.scenario.sample_pricing_inputs`), never the (N, S, T)
usage increments, and returns the matrix alone: it holds the fleet and
those pricing inputs. optimize and study solve each policy on that matrix
through :func:`_solve`, which prices all their schedules in one pass over
the assets' cost rows. gen-scenarios samples and exports the
full set (:func:`fleetmaint.scenario.generate_scenarios`). All four map
the sampler's draws from the N, S and T the config holds before they
build the fleet (:func:`_sized_fleet`), and gen-fleet maps its own peak
for a generated fleet's N, so a size that cannot be held exits 3 at once,
however long the fleet would take to build.
--threads K (>= 1) sets how many worker processes sample; everything else
runs on one thread, and no output depends on K. Exit codes: 0 on success,
2 for configuration problems, 3 for runtime failures.
"""

from __future__ import annotations

import argparse
import mmap
import sys
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

from .config import ConfigError, RunConfig, load_config, parse_config
from .csvio import write_csv
from .criteria import CostDistribution, cvar_alpha, expected_cost, var_alpha
from .fleet import AssetSpec, FleetSpec, Schedule, validate_schedule
from .optimize import (
    EvaluationMatrix,
    build_matrix,
    schedule_cost_distribution,
    schedule_cost_distributions,
)
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
from .scenario import (
    ScenarioSet,
    _Draws,
    _map_draws,
    generate_scenarios,
    sample_pricing_inputs,
    write_scenario_csvs,
)

__all__ = ["main", "run_study", "compute_study", "StudyResult", "POLICY_ORDER"]

# gen-fleet's peak memory per asset, its AssetSpec and fleet.csv row: 1,337
# bytes at N=10^5 and 1,447 at N=10^4 (tracemalloc, CPython 3.11).
_GEN_FLEET_BYTES_PER_ASSET = 1_400

POLICY_ORDER = (
    PolicyKind.INTEGRATED_EXPECTED,
    PolicyKind.INTEGRATED_CVAR,
    PolicyKind.CALENDAR_ONLY,
    PolicyKind.RUL_THRESHOLD,
    PolicyKind.USAGE_ONLY,
)


@dataclass
class StudyResult:
    """Everything a full study computes, before any files are written.

    The policies were priced on the latent RULs and the usage mean alone.
    ``scenarios`` is the full set of ``n_scenarios`` scenarios they come
    from, drawn from ``scenario_seed`` on first access and then kept:
    every cell is a pure function of (seed, asset, scenario), so it is
    the set the study sampled, to the bit.
    """

    fleet: FleetSpec
    n_scenarios: int
    scenario_seed: int
    schedules: dict[str, Schedule]
    summaries: list[PolicySummary]
    curves: dict[str, EcdfCurve]

    @cached_property
    def scenarios(self) -> ScenarioSet:
        return generate_scenarios(self.fleet, self.n_scenarios, self.scenario_seed)


def _sized_fleet(config: RunConfig, usage: bool = False) -> tuple[FleetSpec, _Draws]:
    """The config's fleet and the scenario map to sample it into, with
    room for every usage increment only if ``usage`` is true. The map is
    allocated first, from the N, S and T that the config holds, so a size
    that cannot be held exits 3 by name before any asset is built."""
    sizes = config.explicit_fleet or config.fleet_gen
    draws = _map_draws(sizes.n_assets, config.n_scenarios, sizes.horizon, usage)
    return config.build_fleet(), draws


def _setup(config: RunConfig, fleet: FleetSpec, draws: _Draws, workers: int) -> EvaluationMatrix:
    """The evaluation matrix of the fleet on the latent RULs and usage mean
    of its scenario set, sampled by ``workers`` processes into ``draws``
    (see :func:`_sized_fleet`)."""
    inputs = sample_pricing_inputs(
        fleet, config.n_scenarios, config.scenario_seed, workers, draws=draws
    )
    return build_matrix(fleet, inputs, config.risk)


def _solve(
    kinds: Sequence[PolicyKind], config: RunConfig, matrix: EvaluationMatrix
) -> list[tuple[Schedule, CostDistribution, PolicySummary]]:
    """Each policy's schedule, its cost distribution and its summary row.
    The schedules are priced together, in one pass over the assets' rows."""
    params = config.policies
    schedules = [run_policy(kind, matrix, params) for kind in kinds]
    dists = schedule_cost_distributions(matrix, schedules)
    return [
        (schedule, dist, summarize_policy(kind.value, schedule, dist, matrix, params.alpha))
        for kind, schedule, dist in zip(kinds, schedules, dists)
    ]


def compute_study(config: RunConfig, workers: int = 1) -> StudyResult:
    """Run every policy against one shared scenario set, sampled by
    ``workers`` processes."""
    fleet, draws = _sized_fleet(config)
    matrix = _setup(config, fleet, draws, workers)
    solved = _solve(POLICY_ORDER, config, matrix)
    return StudyResult(
        fleet=matrix.fleet,
        n_scenarios=config.n_scenarios,
        scenario_seed=config.scenario_seed,
        schedules={kind.value: schedule for kind, (schedule, _, _) in zip(POLICY_ORDER, solved)},
        summaries=[summary for _, _, summary in solved],
        curves={kind.value: ecdf(dist) for kind, (_, dist, _) in zip(POLICY_ORDER, solved)},
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
    if config.fleet_gen is not None:
        # Map the peak first, so a fleet too large to hold exits 3 before any asset is built.
        n = config.fleet_gen.n_assets
        nbytes = n * _GEN_FLEET_BYTES_PER_ASSET
        try:
            mmap.mmap(-1, nbytes).close()
        except (OSError, OverflowError):
            raise MemoryError(
                f"cannot allocate {nbytes:,} bytes for the fleet of N={n} assets"
                " (config key fleet.n_assets)"
            ) from None
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
    fleet, draws = _sized_fleet(config, usage=True)
    scenarios = generate_scenarios(
        fleet, config.n_scenarios, config.scenario_seed, args.threads, draws=draws
    )
    names = ("scenario_usage.csv", "scenario_rul.csv")
    with staged_outputs(out) as stage:
        write_scenario_csvs(scenarios, fleet, stage / names[0], stage / names[1])
    for name in names:
        print(f"wrote {out / name}")
    return 0


def _cmd_evaluate(args, config: RunConfig, out: Path) -> int:
    fleet, draws = _sized_fleet(config)
    schedule = read_schedule_csv(Path(args.schedule))
    violations = validate_schedule(schedule, fleet)
    if violations:
        for v in violations:
            print(f"invalid schedule: {v}", file=sys.stderr)
        return 3
    dist = schedule_cost_distribution(_setup(config, fleet, draws, args.threads), schedule)
    print(f"expected_cost={expected_cost(dist):.12g}")
    alpha = config.policies.alpha
    print(f"var_{alpha:g}={var_alpha(dist, alpha):.12g}")
    print(f"cvar_{alpha:g}={cvar_alpha(dist, alpha):.12g}")
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
    fleet, draws = _sized_fleet(config)
    matrix = _setup(config, fleet, draws, args.threads)
    [(schedule, _, summary)] = _solve([kind], config, matrix)
    objective = summary.expected_cost if expected else summary.cvar
    with staged_outputs(out) as stage:
        write_schedule_csv(stage / "schedule.csv", schedule, matrix.fleet)
    print(f"criterion={args.criterion} alpha={config.policies.alpha:g} objective={objective:.12g}")
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
