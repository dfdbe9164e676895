"""Study outputs: policy summaries, ECDF curves, and deterministic files.

All CSV output uses a fixed column order, 6 significant digits for floats,
and "\n" line endings, so reruns with the same seed and config are
byte-identical. The run metadata JSON carries the only nondeterministic
field (a timestamp).
"""

from __future__ import annotations

import csv
import datetime
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .criteria import CostDistribution, cvar_alpha, expected_cost
from .fleet import FleetSpec, Schedule
from .optimize import EvaluationMatrix, indices_from_schedule

__all__ = [
    "PolicySummary",
    "EcdfCurve",
    "summarize_policy",
    "ecdf",
    "emit_outputs",
    "SUMMARY_COLUMNS",
]

SUMMARY_COLUMNS = (
    "policy",
    "expected_cost",
    "cvar",
    "alpha",
    "mean_maintenance_time",
    "mean_failure_proxy",
)


@dataclass(frozen=True)
class PolicySummary:
    """One row of the study summary table."""

    policy: str
    expected_cost: float
    cvar: float
    alpha: float
    mean_maintenance_time: float
    mean_failure_proxy: float


@dataclass(frozen=True)
class EcdfCurve:
    """Empirical CDF of a cost distribution: merged support and cumulative mass."""

    costs: np.ndarray
    cum_probs: np.ndarray


def summarize_policy(
    name: str,
    schedule: Schedule,
    dist: CostDistribution,
    matrix: EvaluationMatrix,
    alpha: float,
) -> PolicySummary:
    """Headline numbers for one policy's schedule and its cost distribution.

    Unscheduled assets enter the mean maintenance time as horizon + 1; the
    convention is recorded in the run metadata so the summary stays a flat
    table. The failure proxy is the scenario-weighted failure probability
    accrued before each asset's date (over the whole horizon when
    unscheduled), summed over assets; it is an exposure measure, not a
    cost term.
    """
    indices = indices_from_schedule(schedule, matrix.fleet)
    proxy = 0.0
    for i, c in enumerate(indices):
        proxy += float(matrix.failure[i, c])
    return PolicySummary(
        policy=name,
        expected_cost=expected_cost(dist),
        cvar=cvar_alpha(dist, alpha),
        alpha=alpha,
        mean_maintenance_time=float(np.mean([c + 1 for c in indices])),
        mean_failure_proxy=proxy,
    )


def ecdf(dist: CostDistribution) -> EcdfCurve:
    """Cumulative distribution over the merged, sorted cost support."""
    uniq, inverse = np.unique(dist.values, return_inverse=True)
    merged = np.bincount(inverse, weights=dist.weights)
    return EcdfCurve(costs=uniq, cum_probs=np.cumsum(merged))


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _write_csv(path: Path, header, rows) -> None:
    try:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        Path(path).unlink(missing_ok=True)
        raise OSError(f"failed writing {path}: {exc}") from exc


def emit_outputs(
    summaries: list[PolicySummary],
    curves: dict[str, EcdfCurve],
    schedules: dict[str, Schedule],
    output_dir,
    fleet: FleetSpec,
    meta: dict | None = None,
) -> list[Path]:
    """Write summary.csv, per-policy ECDF files, schedules.csv, run_meta.json.

    Files are written into output_dir (created if needed). On failure the
    files already written by this call are removed before re-raising, so a
    broken run leaves no partial output set behind.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        path = out / "summary.csv"
        rows = [
            [
                s.policy,
                _fmt(s.expected_cost),
                _fmt(s.cvar),
                _fmt(s.alpha),
                _fmt(s.mean_maintenance_time),
                _fmt(s.mean_failure_proxy),
            ]
            for s in summaries
        ]
        _write_csv(path, SUMMARY_COLUMNS, rows)
        written.append(path)

        for name, curve in curves.items():
            path = out / f"ecdf_{name}.csv"
            _write_csv(
                path,
                ("cost", "cum_prob"),
                [[_fmt(c), _fmt(p)] for c, p in zip(curve.costs, curve.cum_probs)],
            )
            written.append(path)

        path = out / "schedules.csv"
        rows = []
        for name, schedule in schedules.items():
            for asset in fleet.assets:
                date = schedule.date_for(asset.id)
                rows.append([name, asset.id, "none" if date is None else date])
        _write_csv(path, ("policy", "asset_id", "date"), rows)
        written.append(path)

        path = out / "run_meta.json"
        payload = dict(meta or {})
        payload.setdefault("version", __version__)
        payload.setdefault(
            "timestamp", datetime.datetime.now(datetime.timezone.utc).isoformat()
        )
        notes = payload.setdefault("notes", {})
        notes.setdefault("cost_coefficients", "calibration defaults, not fitted values")
        notes.setdefault(
            "mean_maintenance_time_none_convention",
            "unscheduled assets counted as horizon + 1",
        )
        try:
            with open(path, "w", newline="") as f:
                json.dump(payload, f, indent=2, sort_keys=True)
                f.write("\n")
        except OSError as exc:
            Path(path).unlink(missing_ok=True)
            raise OSError(f"failed writing {path}: {exc}") from exc
        written.append(path)
    except BaseException:
        for p in written:
            p.unlink(missing_ok=True)
        raise
    return written
