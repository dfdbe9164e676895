"""Summary rows, ECDF curves, and the on-disk output set."""

import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fleetmaint.criteria import CostDistribution, cvar_alpha, expected_cost
from fleetmaint.fleet import Schedule
from fleetmaint.optimize import build_matrix, indices_from_schedule, schedule_cost_distribution
from fleetmaint.report import (
    SUMMARY_COLUMNS,
    EcdfCurve,
    ecdf,
    emit_outputs,
    staged_outputs,
    summarize_policy,
)
from fleetmaint.riskcost import RiskParams
from helpers import make_fleet, random_scenarios


@pytest.fixture(scope="module")
def setup():
    fleet = make_fleet(n_assets=3, horizon=6)
    scenarios = random_scenarios(fleet, n_scenarios=30, seed=14)
    matrix = build_matrix(fleet, scenarios, RiskParams())
    return fleet, scenarios, matrix


def summarize(setup, schedule, name="demo"):
    _, scenarios, matrix = setup
    dist = schedule_cost_distribution(matrix, schedule)
    return summarize_policy(name, indices_from_schedule(schedule, matrix.fleet), dist, matrix, 0.9)


class TestSummarize:
    def test_values_match_direct_computation(self, setup):
        fleet, scenarios, matrix = setup
        schedule = Schedule({"A1": 2, "A2": 5, "A3": None})
        dist = schedule_cost_distribution(matrix, schedule)
        indices = indices_from_schedule(schedule, fleet)
        summary = summarize_policy("demo", indices, dist, matrix, 0.9)
        assert summary.policy == "demo"
        assert summary.expected_cost == pytest.approx(expected_cost(dist))
        assert summary.cvar == pytest.approx(cvar_alpha(dist, 0.9))
        assert summary.alpha == 0.9
        assert summary.cvar >= summary.expected_cost - 1e-9

    def test_unscheduled_assets_counted_past_horizon(self, setup):
        schedule = Schedule({"A1": 2, "A2": 5, "A3": None})
        summary = summarize(setup, schedule)
        assert summary.mean_maintenance_time == pytest.approx((2 + 5 + 7) / 3)

    def test_all_scheduled_mean(self, setup):
        schedule = Schedule({"A1": 1, "A2": 1, "A3": 4})
        summary = summarize(setup, schedule)
        assert summary.mean_maintenance_time == pytest.approx(2.0)


class TestEcdf:
    def test_point_mass(self):
        dist = CostDistribution(np.array([4.0]), np.array([1.0]))
        curve = ecdf(dist)
        assert list(curve.costs) == [4.0]
        assert list(curve.cum_probs) == [1.0]

    def test_duplicates_merge(self):
        dist = CostDistribution(
            np.array([3.0, 1.0, 3.0, 2.0]), np.array([0.25] * 4)
        )
        curve = ecdf(dist)
        assert list(curve.costs) == [1.0, 2.0, 3.0]
        assert np.allclose(curve.cum_probs, [0.25, 0.5, 1.0])

    def test_terminates_at_one(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=40)
        weights = rng.uniform(0.1, 1, size=40)
        curve = ecdf(CostDistribution(values, weights / weights.sum()))
        assert curve.cum_probs[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(curve.costs) > 0)
        assert np.all(np.diff(curve.cum_probs) >= 0)

    def test_tail_integral_recovers_mean(self):
        # E[X] = z_0 + sum (1 - F(z_k)) (z_{k+1} - z_k) over the support
        rng = np.random.default_rng(9)
        values = np.round(rng.uniform(0, 20, 25), 1)
        weights = rng.uniform(0.1, 1, 25)
        dist = CostDistribution(values, weights / weights.sum())
        curve = ecdf(dist)
        mean = curve.costs[0] + np.sum(
            (1.0 - curve.cum_probs[:-1]) * np.diff(curve.costs)
        )
        assert mean == pytest.approx(expected_cost(dist), abs=1e-9)


def run_emit(setup, out):
    fleet, scenarios, matrix = setup
    schedules = {
        "calendar_only": Schedule({"A1": 2, "A2": 2, "A3": 2}),
        "integrated_expected": Schedule({"A1": 1, "A2": None, "A3": 4}),
    }
    summaries = []
    distributions = {}
    for name, schedule in schedules.items():
        summaries.append(summarize(setup, schedule, name))
        distributions[name] = schedule_cost_distribution(matrix, schedule)
    return emit_outputs(
        summaries, distributions, schedules, out, fleet, meta={"seed": 14}
    )


class TestEmitOutputs:
    def test_file_set(self, setup, tmp_path):
        paths = run_emit(setup, tmp_path / "out")
        names = sorted(p.name for p in paths)
        assert names == [
            "ecdf_calendar_only.csv",
            "ecdf_integrated_expected.csv",
            "run_meta.json",
            "schedules.csv",
            "summary.csv",
        ]
        for p in paths:
            assert p.exists()

    def test_summary_layout(self, setup, tmp_path):
        run_emit(setup, tmp_path)
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[0] == ",".join(SUMMARY_COLUMNS)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "calendar_only"
        # floats carry at most 6 significant digits
        for cell in first[1:]:
            mantissa = cell.replace("-", "").replace(".", "").split("e")[0]
            assert len(mantissa.lstrip("0")) <= 6

    def test_schedules_spell_out_unscheduled(self, setup, tmp_path):
        run_emit(setup, tmp_path)
        body = (tmp_path / "schedules.csv").read_text()
        assert "integrated_expected,A2,none" in body
        assert body.startswith("policy,asset_id,date\n")

    def test_ecdf_rows_track_curve(self, setup, tmp_path):
        fleet, scenarios, matrix = setup
        run_emit(setup, tmp_path)
        lines = (tmp_path / "ecdf_calendar_only.csv").read_text().splitlines()
        curve = ecdf(schedule_cost_distribution(matrix, Schedule({"A1": 2, "A2": 2, "A3": 2})))
        assert lines[0] == "cost,cum_prob"
        assert len(lines) == 1 + curve.costs.size
        last_cost, last_prob = lines[-1].split(",")
        assert float(last_cost) == pytest.approx(curve.costs[-1], rel=1e-5)
        assert float(last_prob) == pytest.approx(1.0)

    def test_ecdf_blocks_write_csv_writer_bytes(self, setup, tmp_path):
        # 2,500 rows, three blocks with a partial last one, and floats whose
        # %.6g text takes each form: exponents both ways, integers, -0
        fleet, _, _ = setup
        rng = np.random.default_rng(3)
        costs = rng.lognormal(0.0, 12.0, 2500) * rng.choice([-1.0, 1.0], 2500)
        costs[:3] = [-1e300, -0.0, 5.0]
        dist = CostDistribution(costs, np.full(2500, 1 / 2500))
        emit_outputs([], {"wide": dist}, {}, tmp_path, fleet)
        curve = ecdf(dist)
        assert curve.costs.size == 2500
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(("cost", "cum_prob"))
        writer.writerows(
            [format(c, ".6g"), format(p, ".6g")] for c, p in zip(curve.costs, curve.cum_probs)
        )
        assert (tmp_path / "ecdf_wide.csv").read_bytes() == expected.getvalue().encode()

    def test_run_meta_content(self, setup, tmp_path):
        run_emit(setup, tmp_path)
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["seed"] == 14
        assert "version" in meta and "timestamp" in meta
        assert "horizon + 1" in meta["notes"]["mean_maintenance_time_none_convention"]

    def test_reruns_byte_identical_outside_timestamp(self, setup, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_emit(setup, a)
        run_emit(setup, b)
        for name in (
            "summary.csv",
            "schedules.csv",
            "ecdf_calendar_only.csv",
            "ecdf_integrated_expected.csv",
        ):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        meta_a = json.loads((a / "run_meta.json").read_text())
        meta_b = json.loads((b / "run_meta.json").read_text())
        meta_a.pop("timestamp")
        meta_b.pop("timestamp")
        assert meta_a == meta_b

    def test_newlines_are_unix(self, setup, tmp_path):
        run_emit(setup, tmp_path)
        raw = (tmp_path / "summary.csv").read_bytes()
        assert b"\r" not in raw

    @pytest.fixture
    def third_write_fails(self, monkeypatch):
        # counts the files written by either CSV writer (ECDFs go through write_lines)
        import fleetmaint.report as report_module

        calls = {"n": 0}

        def flaky(original):
            def write(path, header, rows):
                calls["n"] += 1
                if calls["n"] == 3:
                    raise OSError("disk full")
                original(path, header, rows)

            return write

        def patch():
            for name in ("write_csv", "write_lines"):
                monkeypatch.setattr(report_module, name, flaky(getattr(report_module, name)))

        return patch

    def test_failure_removes_partial_outputs(self, setup, tmp_path, third_write_fails):
        third_write_fails()
        with pytest.raises(OSError):
            run_emit(setup, tmp_path / "broken")
        assert list((tmp_path / "broken").iterdir()) == []

    def test_failed_rerun_keeps_previous_outputs(self, setup, tmp_path, third_write_fails):
        out = tmp_path / "out"
        run_emit(setup, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        third_write_fails()
        with pytest.raises(OSError, match="disk full"):
            run_emit(setup, out)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_stage_is_named_after_its_process(self, tmp_path):
        with staged_outputs(tmp_path) as stage:
            assert stage.parent == tmp_path
            assert stage.name.startswith(f".staging-{os.getpid()}-")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "name, pid, error, kept",
        [
            (".staging-101-x1y2", 101, ProcessLookupError, False),
            (".staging-102-x1y2", 102, None, True),
            (".staging-103-x1y2", 103, PermissionError, True),
            (".staging-x1y2z3w4", None, None, True),
            (".staging-no-pid", None, None, True),
            (".staging-\u0661\u0662-x1y2", None, None, True),
        ],
        ids=["gone", "live", "not-permitted", "random-name", "no-pid", "arabic-digits"],
    )
    def test_stale_stages_of_gone_processes_are_swept(
        self, name, pid, error, kept, tmp_path, monkeypatch
    ):
        # a run killed inside staged_outputs left its stage with a file in it
        stale = tmp_path / name
        stale.mkdir()
        (stale / "summary.csv").write_text("stale\n")
        signalled = []

        def kill(target, sig):
            signalled.append((target, sig))
            if error is not None:
                raise error

        monkeypatch.setattr(os, "kill", kill)
        with staged_outputs(tmp_path) as stage:
            (stage / "summary.csv").write_text("fresh\n")
        assert stale.exists() == kept
        assert signalled == ([] if pid is None else [(pid, 0)])
        assert (tmp_path / "summary.csv").read_text() == "fresh\n"

    def test_stage_of_an_exited_process_is_swept(self, tmp_path):
        child = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                               capture_output=True, text=True, check=True)
        stale = tmp_path / f".staging-{int(child.stdout)}-x1y2"
        stale.mkdir()
        live = tmp_path / f".staging-{os.getpid()}-x1y2"
        live.mkdir()
        with staged_outputs(tmp_path):
            pass
        assert not stale.exists() and live.exists()

    def test_curve_type_is_reexported(self):
        assert EcdfCurve.__name__ == "EcdfCurve"
