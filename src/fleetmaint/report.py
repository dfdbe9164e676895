"""Study outputs: policy summaries, ECDF curves, and deterministic files.

Every CSV goes through :func:`fleetmaint.csvio.write_csv` with a fixed
column order, so reruns with the same seed and config are byte-identical.
The study files here carry 6 significant digits for floats; ``fleet.csv``,
``eval_distribution.csv`` and the scenario CSVs carry 17, so their float64
values round-trip exactly. The run metadata JSON carries the only
nondeterministic field (a timestamp). Every command writes its files
through :func:`staged_outputs`, so a failed run leaves the previous run's
files as they were.
"""

from __future__ import annotations

import contextlib
import datetime
import json
import os
import shutil
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .criteria import CostDistribution, cvar_alpha, expected_cost
from .csvio import write_csv
from .fleet import FleetSpec, Schedule
from .optimize import EvaluationMatrix, indices_from_schedule

__all__ = [
    "PolicySummary",
    "EcdfCurve",
    "summarize_policy",
    "ecdf",
    "emit_outputs",
    "staged_outputs",
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


@contextlib.contextmanager
def staged_outputs(output_dir) -> Iterator[Path]:
    """A fresh staging directory inside output_dir (created if needed).

    The block writes its files into the staging directory. When it finishes,
    each file replaces its namesake in output_dir through ``os.replace``.
    The staging directory is removed either way, so a block that fails
    leaves output_dir as it found it; an OSError is re-raised naming
    output_dir.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
    try:
        yield stage
        for path in stage.iterdir():
            os.replace(path, out / path.name)
    except OSError as exc:
        raise OSError(f"failed writing outputs to {out}: {exc}") from exc
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def emit_outputs(
    summaries: list[PolicySummary],
    curves: dict[str, EcdfCurve],
    schedules: dict[str, Schedule],
    output_dir,
    fleet: FleetSpec,
    meta: dict | None = None,
) -> list[Path]:
    """Write summary.csv, per-policy ECDF files, schedules.csv, run_meta.json.

    The files are staged (:func:`staged_outputs`) and then moved into
    output_dir together; the return value lists their final paths in that
    order. A failure leaves output_dir's earlier files untouched.
    """
    names = [
        "summary.csv",
        *(f"ecdf_{name}.csv" for name in curves),
        "schedules.csv",
        "run_meta.json",
    ]
    with staged_outputs(output_dir) as stage:
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
        write_csv(stage / "summary.csv", SUMMARY_COLUMNS, rows)

        for name, curve in curves.items():
            write_csv(
                stage / f"ecdf_{name}.csv",
                ("cost", "cum_prob"),
                [[_fmt(c), _fmt(p)] for c, p in zip(curve.costs, curve.cum_probs)],
            )

        rows = []
        for name, schedule in schedules.items():
            for asset in fleet.assets:
                date = schedule.date_for(asset.id)
                rows.append([name, asset.id, "none" if date is None else date])
        write_csv(stage / "schedules.csv", ("policy", "asset_id", "date"), rows)

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
        with open(stage / "run_meta.json", "w", newline="", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
    return [Path(output_dir) / name for name in names]
