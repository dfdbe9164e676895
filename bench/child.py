"""Child processes of the benchmark that are not the fleetmaint CLI itself.

    python3 bench/child.py setup CONFIG
        Start-up only: import the CLI, load the config, build the fleet.
    python3 bench/child.py read CONFIG USAGE_CSV RUL_CSV
        Load exported scenario CSVs and print one JSON line with the
        SHA-256 of the loaded arrays and the number of rows they came from.
    python3 bench/child.py reference CONFIG
        Run the CLI's study path (``cli.compute_study``) on the configured
        scenario set and print one JSON line with the set's SHA-256 and the
        CVaR of the integrated_cvar policy from its summary.

All expect ``src`` on PYTHONPATH, as the benchmark sets it.
"""

import json
import sys


def main(argv: list[str]) -> int:
    import fleetmaint.cli
    from fleetmaint.config import load_config

    config = load_config(argv[1])
    if argv[0] == "setup":
        config.build_fleet()
        return 0
    from workloads import scenario_digest

    if argv[0] == "reference":
        study = fleetmaint.cli.compute_study(config)
        cvar = next(s.cvar for s in study.summaries if s.policy == "integrated_cvar")
        print(json.dumps({"sha256": scenario_digest(study.scenarios), "cvar": cvar}))
        return 0
    from fleetmaint.scenario import read_scenario_csvs

    scenarios = read_scenario_csvs(config.build_fleet(), argv[2], argv[3])
    rows = scenarios.usage_increments.size + scenarios.latent_rul.size
    print(json.dumps({"sha256": scenario_digest(scenarios), "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
