"""Acceptance gate: ten checks against the reference study profile.

Each test prints one "[acceptance] criterion N <name>: PASS/FAIL" line
(visible under pytest -s) and then asserts. Criteria 1 to 5 share one set
of full-profile studies over the frozen seed block; the remaining checks
exercise the optimizer oracle, the risk measures, the samplers, the cost
model, and end-to-end determinism.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fleetmaint.cli import compute_study
from fleetmaint.config import parse_config
from fleetmaint.criteria import CostDistribution, cvar_alpha, expected_cost, var_alpha
from fleetmaint.fleet import FleetGenConfig, Schedule, generate_fleet
from fleetmaint.optimize import build_matrix, schedule_cost_distribution
from fleetmaint.policies import integrated_cvar, integrated_expected
from fleetmaint.riskcost import RiskParams, failure_probability, performance_penalty
from fleetmaint.scenario import generate_scenarios, sample_gamma, sample_truncated_normal
from helpers import asset_scenario_cost, total_cost

# Frozen evaluation seeds for the default-profile studies. The criteria
# describe typical draws from the default generator ranges; this block is
# pinned so the gate is reproducible run to run.
STUDY_SEEDS = tuple(range(3, 13))

BASELINES = ("calendar_only", "usage_only", "rul_threshold")
INTEGRATED = ("integrated_expected", "integrated_cvar")

IDENTITY_TOL = 1e-9          # risk-ordering and oracle value comparisons
MEAN_REL_TOL = 0.02          # sampler mean, relative
CV_REL_TOL = 0.05            # sampler coefficient of variation, relative
RATIO_CUTOFF = 0.5           # integrated vs best baseline expected cost
PROXY_FRACTION = 0.05        # integrated vs baseline failure proxy
SECONDS_PER_SEED = 60.0

SRC = Path(__file__).resolve().parent.parent / "src"


def _report(number: int, name: str, ok: bool) -> bool:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} {name}: {verdict}")
    return ok


@pytest.fixture(scope="module")
def seed_studies():
    """Full five-policy studies at the default profile, one per seed."""
    records = []
    for seed in STUDY_SEEDS:
        config = parse_config({}).with_seed(seed)
        started = time.perf_counter()
        result = compute_study(config)
        elapsed = time.perf_counter() - started
        records.append(
            {
                "seed": seed,
                "elapsed": elapsed,
                "summaries": {s.policy: s for s in result.summaries},
                "schedules": result.schedules,
            }
        )
    return records


def test_criterion_1_expected_cost_dominance(seed_studies):
    strict_every_seed = True
    ratio_hits = 0
    runtime_ok = True
    for record in seed_studies:
        summaries = record["summaries"]
        integrated = summaries["integrated_expected"].expected_cost
        baseline_costs = [summaries[b].expected_cost for b in BASELINES]
        if not all(integrated < c for c in baseline_costs):
            strict_every_seed = False
        if integrated < RATIO_CUTOFF * min(baseline_costs):
            ratio_hits += 1
        if record["elapsed"] >= SECONDS_PER_SEED:
            runtime_ok = False
    ok = strict_every_seed and ratio_hits >= 8 and runtime_ok
    assert _report(1, "expected-cost dominance", ok), (
        f"strict_every_seed={strict_every_seed} "
        f"ratio_hits={ratio_hits}/10 runtime_ok={runtime_ok}"
    )


def test_criterion_2_tail_below_baseline_means(seed_studies):
    ok = True
    worst = None
    for record in seed_studies:
        summaries = record["summaries"]
        for policy in INTEGRATED:
            for baseline in BASELINES:
                margin = summaries[baseline].expected_cost - summaries[policy].cvar
                if worst is None or margin < worst:
                    worst = margin
                if margin <= 0:
                    ok = False
    assert _report(2, "tail risk below baseline means", ok), f"worst margin {worst}"


def test_criterion_3_risk_ordering_identities(seed_studies):
    ok = True
    for record in seed_studies:
        summaries = record["summaries"]
        tail_opt = summaries["integrated_cvar"]
        mean_opt = summaries["integrated_expected"]
        if tail_opt.cvar > mean_opt.cvar + IDENTITY_TOL:
            ok = False
        if mean_opt.expected_cost > tail_opt.expected_cost + IDENTITY_TOL:
            ok = False
    assert _report(3, "risk ordering identities", ok)


def test_criterion_4_integrated_schedules_nearly_coincide(seed_studies):
    close_seeds = 0
    for record in seed_studies:
        a = record["schedules"]["integrated_expected"]
        b = record["schedules"]["integrated_cvar"]
        assets = sorted(a.dates)
        differing = sum(1 for x in assets if a.date_for(x) != b.date_for(x))
        if differing <= 2:
            close_seeds += 1
    ok = close_seeds > len(seed_studies) // 2
    assert _report(4, "integrated schedules nearly coincide", ok), (
        f"close on {close_seeds}/{len(seed_studies)} seeds"
    )


def test_criterion_5_failure_proxy_separation(seed_studies):
    ok = True
    worst = None
    for record in seed_studies:
        summaries = record["summaries"]
        for policy in INTEGRATED:
            for baseline in BASELINES:
                bound = PROXY_FRACTION * summaries[baseline].mean_failure_proxy
                value = summaries[policy].mean_failure_proxy
                if worst is None or bound - value < worst:
                    worst = bound - value
                if value >= bound:
                    ok = False
    assert _report(5, "failure proxy separation", ok), f"worst margin {worst}"


def test_criterion_6_small_instance_oracle_equivalence():
    ok = True
    detail = ""
    for seed in range(20):
        gen = FleetGenConfig(n_assets=2, horizon=3, seed=seed)
        fleet = generate_fleet(gen)
        scenarios = generate_scenarios(fleet, n_scenarios=50, seed=seed)
        matrix = build_matrix(fleet, scenarios, RiskParams())
        candidates = list(range(1, fleet.horizon + 1)) + [None]

        def scan(objective):
            best_schedule, best_value = None, None
            for dates in itertools.product(candidates, repeat=fleet.n_assets):
                schedule = Schedule(dict(zip(fleet.ids, dates)))
                totals = np.array(
                    [
                        total_cost(schedule, fleet, scenarios, w)
                        for w in range(scenarios.n_scenarios)
                    ]
                )
                value = objective(
                    CostDistribution(totals, scenarios.weights.copy())
                )
                if best_value is None or value < best_value:
                    best_schedule, best_value = schedule, value
            return best_schedule, best_value

        mean_schedule = integrated_expected(matrix)
        mean_ref, mean_ref_value = scan(expected_cost)
        tail_schedule = integrated_cvar(matrix, alpha=0.9)
        tail_ref, tail_ref_value = scan(lambda d: cvar_alpha(d, 0.9))

        if mean_schedule.dates != mean_ref.dates:
            ok = False
            detail = f"seed {seed}: expected argmin mismatch"
        if tail_schedule.dates != tail_ref.dates:
            ok = False
            detail = f"seed {seed}: cvar argmin mismatch"
        mean_value = expected_cost(
            schedule_cost_distribution(matrix, mean_schedule)
        )
        tail_value = cvar_alpha(
            schedule_cost_distribution(matrix, tail_schedule), 0.9
        )
        if abs(mean_value - mean_ref_value) > IDENTITY_TOL:
            ok = False
            detail = f"seed {seed}: expected value gap"
        if abs(tail_value - tail_ref_value) > IDENTITY_TOL:
            ok = False
            detail = f"seed {seed}: cvar value gap"
    assert _report(6, "small-instance oracle equivalence", ok), detail


def _brute_force_tail(values, weights, alpha):
    order = np.argsort(values)
    cum = 0.0
    var = values[order[-1]]
    for idx in order:
        cum += weights[idx]
        if cum >= alpha - 1e-12:
            var = values[idx]
            break
    tail = values >= var
    return var, float(np.sum(values[tail] * weights[tail]) / np.sum(weights[tail]))


def test_criterion_7_risk_measure_functional_suite():
    ok = True
    detail = ""
    rng = np.random.default_rng(2718)
    for case in range(100):
        n = int(rng.integers(1, 40))
        # half-integer support keeps shifted and scaled values exactly
        # representable, so the identities hold at float precision
        values = rng.integers(-2000, 2000, n) / 2.0
        weights = rng.uniform(0.05, 1.0, n)
        weights /= weights.sum()
        dist = CostDistribution(values, weights)
        alpha = float(rng.uniform(0.05, 0.99))

        point = CostDistribution(values[:1], np.array([1.0]))
        if not (
            cvar_alpha(point, alpha) == values[0] == var_alpha(point, alpha)
        ):
            ok, detail = False, f"case {case}: degenerate identity"
        mean = expected_cost(dist)
        var = var_alpha(dist, alpha)
        cvar = cvar_alpha(dist, alpha)
        if cvar < mean - IDENTITY_TOL or cvar < var - IDENTITY_TOL:
            ok, detail = False, f"case {case}: dominance"
        shift = float(rng.integers(-400, 400)) / 2.0
        shifted = CostDistribution(values + shift, weights)
        if abs(cvar_alpha(shifted, alpha) - (cvar + shift)) > IDENTITY_TOL:
            ok, detail = False, f"case {case}: translation"
        scale = float(rng.choice([0.25, 0.5, 2.0, 4.0]))
        scaled = CostDistribution(values * scale, weights)
        if abs(cvar_alpha(scaled, alpha) - cvar * scale) > IDENTITY_TOL:
            ok, detail = False, f"case {case}: homogeneity"
        lo, hi = sorted(rng.uniform(0.05, 0.99, 2))
        if cvar_alpha(dist, hi) < cvar_alpha(dist, lo) - IDENTITY_TOL:
            ok, detail = False, f"case {case}: alpha monotonicity"

    ten = CostDistribution(np.arange(1.0, 11.0), np.full(10, 0.1))
    for alpha, expected_value in ((0.9, 9.5), (0.8, 9.0)):
        brute_var, brute_cvar = _brute_force_tail(ten.values, ten.weights, alpha)
        if abs(cvar_alpha(ten, alpha) - expected_value) > IDENTITY_TOL:
            ok, detail = False, f"fixed case alpha={alpha}"
        if abs(brute_cvar - expected_value) > IDENTITY_TOL:
            ok, detail = False, f"brute force disagrees at alpha={alpha}"
        if var_alpha(ten, alpha) != brute_var:
            ok, detail = False, f"fixed var case alpha={alpha}"
    assert _report(7, "risk measure functional suite", ok), detail


def test_criterion_8_sampler_moments_and_determinism():
    ok = True
    detail = ""
    draws = 10_000
    corners = [(10.0, 0.15), (10.0, 0.35), (22.0, 0.15), (22.0, 0.35), (16.0, 0.25)]
    for mean, cv in corners:
        rng = np.random.default_rng(314)
        sample = np.array([sample_gamma(mean, cv, rng) for _ in range(draws)])
        sample_mean = sample.mean()
        sample_cv = sample.std(ddof=1) / sample_mean
        if abs(sample_mean - mean) > MEAN_REL_TOL * mean:
            ok, detail = False, f"gamma mean off at {(mean, cv)}"
        if abs(sample_cv - cv) > CV_REL_TOL * cv:
            ok, detail = False, f"gamma cv off at {(mean, cv)}"

    rng = np.random.default_rng(159)
    truncated = np.array(
        [sample_truncated_normal(1.0, 2.5, 0.0, rng) for _ in range(draws)]
    )
    if not np.all(truncated >= 0.0):
        ok, detail = False, "truncated normal produced a negative draw"

    gen = FleetGenConfig(seed=11)
    fleet = generate_fleet(gen)
    first = generate_scenarios(fleet, n_scenarios=64, seed=11)
    second = generate_scenarios(fleet, n_scenarios=64, seed=11)
    if not np.array_equal(first.usage_increments, second.usage_increments):
        ok, detail = False, "usage draws not bit-identical"
    if not np.array_equal(first.latent_rul, second.latent_rul):
        ok, detail = False, "life draws not bit-identical"
    assert _report(8, "sampler moments and determinism", ok), detail


def test_criterion_9_cost_model_unit_suite():
    ok = True
    detail = ""
    if failure_probability(0.0) != 0.95:
        ok, detail = False, "saturation at zero margin"
    if abs(failure_probability(1.0) - 0.95 * math.exp(-0.75)) > 1e-12:
        ok, detail = False, "unit margin value"
    if performance_penalty(4.0, 5.0) != 0.0 or performance_penalty(6.0, 5.0) != 0.0:
        ok, detail = False, "ramp start"
    if performance_penalty(2.0, 5.0) != 2.5:
        ok, detail = False, "ramp midpoint"
    if performance_penalty(0.0, 5.0) != 5.0 or performance_penalty(-3.0, 5.0) != 5.0:
        ok, detail = False, "ramp saturation"

    fleet = generate_fleet(FleetGenConfig(n_assets=4, seed=2))
    asset = fleet.assets[0]
    boundary = asset_scenario_cost(asset, 1, 6.0, fleet.horizon)
    if boundary.fail != 0.0 or boundary.perf != 0.0:
        ok, detail = False, "hazard accrued before an immediate action"
    if boundary.pm != asset.cost_pm:
        ok, detail = False, "action cost at the boundary"
    expected_early = asset.cost_early * (6.0 - 1.0) / asset.rul_mean
    if abs(boundary.early - expected_early) > 1e-12:
        ok, detail = False, "early margin at the boundary"

    scenarios = generate_scenarios(fleet, n_scenarios=30, seed=2)
    rng = np.random.default_rng(7)
    for _ in range(20):
        dates = {
            a.id: rng.choice([None, *range(1, fleet.horizon + 1)])
            for a in fleet.assets
        }
        schedule = Schedule(
            {k: (None if v is None else int(v)) for k, v in dates.items()}
        )
        w = int(rng.integers(0, 30))
        total = total_cost(schedule, fleet, scenarios, w)
        parts = sum(
            asset_scenario_cost(
                a,
                schedule.date_for(a.id),
                float(scenarios.latent_rul[i, w]),
                fleet.horizon,
            ).total
            for i, a in enumerate(fleet.assets)
        )
        if abs(total - parts) > IDENTITY_TOL:
            ok, detail = False, "fleet total not additive"
    assert _report(9, "cost model unit suite", ok), detail


def test_criterion_10_end_to_end_determinism(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    runs = {"first": "1", "second": "1", "threaded": "4"}
    for name, threads in runs.items():
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "fleetmaint",
                "study",
                "--seed",
                "3",
                "--threads",
                threads,
                "--out",
                str(tmp_path / name),
            ],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    ok = True
    detail = ""
    reference = sorted(
        p.name for p in (tmp_path / "first").iterdir() if p.suffix == ".csv"
    )
    for other in ("second", "threaded"):
        names = sorted(
            p.name for p in (tmp_path / other).iterdir() if p.suffix == ".csv"
        )
        if names != reference:
            ok, detail = False, f"{other}: file set differs"
            continue
        for name in reference:
            a = (tmp_path / "first" / name).read_bytes()
            b = (tmp_path / other / name).read_bytes()
            if a != b:
                ok, detail = False, f"{other}/{name}: bytes differ"
    meta = [
        json.loads((tmp_path / run / "run_meta.json").read_text()) for run in runs
    ]
    for payload in meta:
        payload.pop("timestamp", None)
    if not (meta[0] == meta[1] == meta[2]):
        ok, detail = False, "metadata differs beyond the timestamp"
    assert _report(10, "end-to-end determinism", ok), detail
