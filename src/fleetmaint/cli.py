"""Command-line interface and study pipeline.

Subcommands: gen-fleet, gen-scenarios, evaluate, optimize, study. All of
them accept --config (JSON), --seed (overrides the config seeds) and --out;
:func:`main` loads the config and resolves the output directory once for
all of them. evaluate, optimize and study build the evaluation matrix of
the config's fleet through :func:`_setup`, which samples only what pricing
reads of the scenario set, its latent RULs and usage mean
(:func:`fleetmaint.scenario.sample_pricing_inputs`), never the (N, S, T)
usage increments, and returns the matrix alone: it holds the fleet and
those pricing inputs. Each of them validates and maps every schedule it
prices to candidate indices once
(:func:`fleetmaint.optimize.indices_from_schedule`) and prices them from
those indices in one pass over the assets' cost rows
(:func:`fleetmaint.optimize.cost_distributions`). evaluate maps its
schedule file before it samples, and prints one ``invalid schedule: …``
line per violation; optimize and study solve each policy on the matrix
through :func:`_solve`, which also summarizes each schedule from the
indices that priced it. study keeps the five cost distributions, and
:func:`fleetmaint.report.emit_outputs` builds each ECDF curve as it
writes that curve's file. gen-scenarios samples and exports the full set
(:func:`fleetmaint.scenario.generate_scenarios`). Before any asset is
built, every command maps, and releases, what it will hold for the N, S
and T the config holds (:func:`_sized_fleet`): the sampler's draws, a
generated fleet, and the scenario export's row templates or the larger
of the matrix build's row buffers and the solved schedules' cost
distributions. So a size that cannot be held exits 3 at once, however
long the fleet or the sampling would take.
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
from .fleet import AssetSpec, FleetSpec, Schedule
from .optimize import EvaluationMatrix, build_matrix, cost_distributions, indices_from_schedule
from .policies import PolicyKind, run_policy
from .report import (
    PolicySummary,
    emit_outputs,
    read_schedule_csv,
    staged_outputs,
    summarize_policy,
    write_schedule_csv,
)
from .scenario import (
    ScenarioSet,
    _map_draws,
    _size_error,
    generate_scenarios,
    sample_pricing_inputs,
    write_scenario_csvs,
)

__all__ = ["main", "run_study", "compute_study", "StudyResult", "POLICY_ORDER"]

# gen-fleet's peak memory per asset, its AssetSpec and fleet.csv row: 1,337
# bytes at N=10^5 and 1,447 at N=10^4 (tracemalloc, CPython 3.11). It also
# bounds build_fleet's own peak, 705 and 807 bytes there, for every command.
_GEN_FLEET_BYTES_PER_ASSET = 1_400

# What each pricing command holds, per scenario, at its peak once the matrix
# is built: the scenario weight vector that the matrix keeps (8 bytes) and,
# above the matrix, its schedules' cost distributions, which share that
# vector, and for study the one ECDF curve it is writing. tracemalloc at N=1,
# S=10^5 (CPython 3.11, numpy 2.4) read, above the built matrix, 24.1 bytes
# for evaluate and 96.1 for study at every T up to 13, and for optimize 66.7,
# 74.7, 72.1 and 80.1 at T=1..4, then 8 more a period (112.1 at T=8), which
# the build's piece, 17(T+1) bytes a scenario, covers from T=5 on.
_SOLVED_BYTES_PER_SCENARIO = {"evaluate": 33, "optimize": 89, "study": 105}

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

    ``distributions`` maps each policy to its fleet cost distribution;
    :func:`fleetmaint.report.emit_outputs` builds its ECDF curve as it
    writes it, so no curve is held here. The policies were priced on the
    latent RULs and the usage mean alone.
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
    distributions: dict[str, CostDistribution]

    @cached_property
    def scenarios(self) -> ScenarioSet:
        return generate_scenarios(self.fleet, self.n_scenarios, self.scenario_seed)


def _sized_fleet(config: RunConfig, command: str = "study") -> FleetSpec:
    """The config's fleet, built only once each piece the ``command`` will
    hold has been mapped, in turn, for the N, S and T that the config
    holds: the sampler's draws (all but gen-fleet), with room for every
    usage increment for gen-scenarios; a generated fleet, at
    :data:`_GEN_FLEET_BYTES_PER_ASSET` per asset; then the scenario CSVs'
    row templates (gen-scenarios), or the larger of the matrix build's
    peak, its per-asset cost rows with their finiteness mask and the
    weight vector, and what the command holds once the rows are freed,
    the weights and its schedules' cost distributions (evaluate, optimize
    and study, at :data:`_SOLVED_BYTES_PER_SCENARIO`). Every piece stays
    mapped until the last one is, so under an address-space cap
    (``ulimit -v``) their sum is checked; without one the kernel weighs
    each map on its own, against about the RAM. The first piece that
    cannot be held exits 3 by name before any asset is built. The maps
    are released at once, before a page of any is touched; the sampler
    maps its own."""
    sizes = config.explicit_fleet or config.fleet_gen
    n, s, t = sizes.n_assets, config.n_scenarios, sizes.horizon
    draws, usage = command != "gen-fleet", command == "gen-scenarios"
    held = [_map_draws(n, s, t, usage)] if draws else []
    pieces = []
    if config.fleet_gen is not None:
        nbytes = n * _GEN_FLEET_BYTES_PER_ASSET
        message = f"cannot allocate {nbytes:,} bytes for the fleet of N={n} assets"
        pieces.append((nbytes, MemoryError(message + " (config key fleet.n_assets)")))
    if usage:  # write_scenario_csvs' ",w,k,%.17g" rows, at most this long
        nbytes = s * t * (9 + len(str(s)) + len(str(t)))
        pieces.append((nbytes, _size_error("scenario CSV row templates", nbytes, n, s, t)))
    elif draws:  # build_matrix's (T+1, S) and (T, S) buffers, the (T+1, S) finiteness
        # mask and the weight vector it first reads; all but the weights are freed by the solves
        rows = (((2 * t + 1) * 8 + (t + 1) + 8) * s, "per-asset cost rows")
        solved = (_SOLVED_BYTES_PER_SCENARIO[command] * s, "schedule cost distributions")
        nbytes, what = max(rows, solved, key=lambda piece: piece[0])
        pieces.append((nbytes, _size_error(what, nbytes, n, s, t)))
    for nbytes, error in pieces:
        try:
            held.append(mmap.mmap(-1, nbytes))
        except (OSError, OverflowError):
            raise error from None
    del held
    return config.build_fleet()


def _setup(config: RunConfig, fleet: FleetSpec, workers: int) -> EvaluationMatrix:
    """The evaluation matrix of the fleet on the latent RULs and usage mean
    of its scenario set, sampled by ``workers`` processes."""
    inputs = sample_pricing_inputs(fleet, config.n_scenarios, config.scenario_seed, workers)
    return build_matrix(fleet, inputs, config.risk)


def _solve(
    kinds: Sequence[PolicyKind], config: RunConfig, matrix: EvaluationMatrix
) -> list[tuple[Schedule, CostDistribution, PolicySummary]]:
    """Each policy's schedule, its cost distribution and its summary row, both
    from the schedule's candidate indices, mapped once and priced in one pass."""
    params = config.policies
    schedules = [run_policy(kind, matrix, params) for kind in kinds]
    indices = [indices_from_schedule(schedule, matrix.fleet) for schedule in schedules]
    dists = cost_distributions(matrix, indices)
    return [
        (schedule, dist, summarize_policy(kind.value, chosen, dist, matrix, params.alpha))
        for kind, schedule, chosen, dist in zip(kinds, schedules, indices, dists)
    ]


def compute_study(config: RunConfig, workers: int = 1) -> StudyResult:
    """Run every policy against one shared scenario set, sampled by
    ``workers`` processes."""
    fleet = _sized_fleet(config)
    matrix = _setup(config, fleet, workers)
    solved = _solve(POLICY_ORDER, config, matrix)
    return StudyResult(
        fleet=matrix.fleet,
        n_scenarios=config.n_scenarios,
        scenario_seed=config.scenario_seed,
        schedules={kind.value: schedule for kind, (schedule, _, _) in zip(POLICY_ORDER, solved)},
        summaries=[summary for _, _, summary in solved],
        distributions={kind.value: dist for kind, (_, dist, _) in zip(POLICY_ORDER, solved)},
    )


def run_study(
    config: RunConfig, out_dir=None, workers: int = 1
) -> tuple[StudyResult, list[Path]]:
    """Compute a study and emit its output files."""
    result = compute_study(config, workers)
    meta = {"seed": config.scenario_seed, "config": config.to_json_dict()}
    paths = emit_outputs(
        result.summaries,
        result.distributions,
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
        for a in _sized_fleet(config, "gen-fleet").assets
    ]
    with staged_outputs(out) as stage:
        write_csv(stage / "fleet.csv", header, rows)
    print(f"wrote {out / 'fleet.csv'}")
    return 0


def _cmd_gen_scenarios(args, config: RunConfig, out: Path) -> int:
    fleet = _sized_fleet(config, "gen-scenarios")
    scenarios = generate_scenarios(fleet, config.n_scenarios, config.scenario_seed, args.threads)
    names = ("scenario_usage.csv", "scenario_rul.csv")
    with staged_outputs(out) as stage:
        write_scenario_csvs(scenarios, fleet, stage / names[0], stage / names[1])
    for name in names:
        print(f"wrote {out / name}")
    return 0


def _cmd_evaluate(args, config: RunConfig, out: Path) -> int:
    fleet = _sized_fleet(config, "evaluate")
    schedule = read_schedule_csv(Path(args.schedule))
    try:
        chosen = indices_from_schedule(schedule, fleet)
    except ValueError as exc:  # one "invalid schedule: ..." line per violation
        print(exc, file=sys.stderr)
        return 3
    [dist] = cost_distributions(_setup(config, fleet, args.threads), [chosen])
    print(f"expected_cost={expected_cost(dist):.12g}")
    alpha = config.policies.alpha
    print(f"var_{alpha:g}={var_alpha(dist, alpha):.12g}")
    print(f"cvar_{alpha:g}={cvar_alpha(dist, alpha):.12g}")
    with staged_outputs(out) as stage:
        write_csv(
            stage / "eval_distribution.csv",
            ("scenario", "cost", "weight"),
            (
                [w, format(dist.values[w], ".17g"), format(dist.weights[w], ".17g")]
                for w in range(dist.values.size)
            ),
        )
    print(f"wrote {out / 'eval_distribution.csv'}")
    return 0


def _cmd_optimize(args, config: RunConfig, out: Path) -> int:
    expected = args.criterion == "expected"
    kind = PolicyKind.INTEGRATED_EXPECTED if expected else PolicyKind.INTEGRATED_CVAR
    fleet = _sized_fleet(config, "optimize")
    matrix = _setup(config, fleet, args.threads)
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
