"""The traced run: spans around the public calls of each fleetmaint module.

The package is imported into this process and the module attributes that
its own code calls through (``fleetmaint.cli.build_matrix``,
``fleetmaint.optimize.batch_cvar`` and so on) are rebound to wrappers that
record a span per call. Nothing under ``src/`` changes; the wrappers are
removed again before this module returns.

A span records its name, start, end, parent span, thread and run id, plus
counts computed from the shapes of the call's arguments or result. Spans
stay in memory and are written by the caller when the benchmark ends. The
layer of a span is the module named before the dot.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from workloads import SRC, Workload, scenario_digest

LAYERS = ("config", "fleet", "scenario", "riskcost", "criteria", "optimize", "policies", "report", "cli")
POLICY_SPANS = ("calendar_only", "usage_only", "rul_threshold", "integrated_expected", "integrated_cvar")

# Every per-layer metric and its unit, in report order. A metric whose
# layer the workload never enters reads 0.
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "config.load_s": "s",
    "fleet.generate_s": "s",
    "scenario.sample_s": "s",
    "scenario.cells": "count",
    "scenario.cells_per_s": "1/s",
    "scenario.write_s": "s",
    "scenario.write_bytes": "B",
    "scenario.read_s": "s",
    "scenario.read_rows": "count",
    "optimize.build_matrix_s": "s",
    "optimize.matrix_bytes": "B",
    "optimize.exhaustive_s": "s",
    "optimize.schedules_evaluated": "count",
    "optimize.schedules_per_s": "1/s",
    "optimize.batch_cvar_calls": "count",
    "optimize.batch_cvar_rows": "count",
    "optimize.batch_cvar_s": "s",
    "optimize.batch_cvar_bytes": "B",
    "optimize.descent_s": "s",
    "optimize.descent_batch_cvar_calls": "count",
    "optimize.parallel_efficiency": "ratio",
    **{f"policies.{p}_s": "s" for p in POLICY_SPANS},
    "criteria.cvar_alpha_calls": "count",
    "criteria.cvar_alpha_s": "s",
    "riskcost.failure_proxy_s": "s",
    "report.summarize_s": "s",
    "report.emit_s": "s",
    "report.bytes_written": "B",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Tracer:
    """In-memory span recorder with per-thread parent tracking.

    A span opened on a worker thread with nothing open on that thread takes
    the innermost span open on the thread that created the tracer as its
    parent, so blocks run by a thread pool nest under the call that
    submitted them.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run_id = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches: list[tuple[object, str, object]] = []
        # What could not be traced: missing attributes, failed measures.
        self.notes: list[str] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        owner = stack or self._main_stack
        record = {
            "id": next(self._ids),
            "name": name,
            "run": self.run_id,
            "parent": owner[-1] if owner else None,
            "thread": threading.get_ident(),
            "attrs": {},
        }
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def patch(self, module, attr: str, name, measure=None) -> None:
        """Rebind module.attr to a wrapper that records one span per call.

        ``name`` is the span name, or a function of the call's arguments
        returning it. ``measure(result, *args, **kwargs)`` returns counts
        to attach to the span.

        The benchmark follows the package, not the other way round: if the
        attribute is gone, nothing is patched, and if a name or measure
        function no longer fits the call, the call runs without it. Either
        way a note is kept, and the metrics of that span read 0.
        """
        where = f"{module.__name__}.{attr}"
        original = getattr(module, attr, None)
        if original is None:
            self.notes.append(f"{where} not found; not traced")
            return

        def guarded(fn, default, *args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:  # a changed signature or result type
                note = f"{where}: {fn.__name__} failed ({exc!r}); left out"
                if note not in self.notes:
                    self.notes.append(note)
                return default

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = guarded(name, where, *args, **kwargs) if callable(name) else name
            with self.span(span_name) as record:
                result = original(*args, **kwargs)
                if measure is not None:
                    record["attrs"].update(guarded(measure, {}, result, *args, **kwargs))
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def _batch_rows(result, totals, *args, **kwargs) -> dict:
    rows = totals.shape[0] if totals.ndim == 2 else 1
    return {"rows": rows, "bytes": rows * totals.shape[-1] * 8}


def instrument(tracer: Tracer, fm, captured: dict) -> None:
    """Wrap the public calls of every layer of the package ``fm``.

    ``captured`` receives results the traced run reuses: the matrix, the
    scenario set and the first CVaR argmin.
    """

    def matrix(result, *args, **kwargs):
        captured["matrix"] = result
        return {"bytes": result.costs.nbytes}

    def cells(result, *args, **kwargs):
        captured["scenarios"] = result
        return {"cells": result.n_assets * result.n_scenarios}

    def exhaustive(result, matrix, *args, **kwargs):
        captured.setdefault("argmin", result)
        n, k1, _ = matrix.costs.shape
        return {"schedules": k1 ** n}

    def file_bytes(paths):
        return sum(os.path.getsize(p) for p in paths)

    t = tracer
    t.patch(fm.cli, "load_config", "config.load")
    t.patch(fm.config, "load_config", "config.load")
    t.patch(fm.config, "generate_fleet", "fleet.generate")
    t.patch(fm.cli, "generate_scenarios", "scenario.sample", cells)
    t.patch(fm.cli, "write_scenario_csvs", "scenario.write",
            lambda r, scen, fleet, usage, rul: {"bytes": file_bytes((usage, rul))})
    t.patch(fm.scenario, "read_scenario_csvs", "scenario.read",
            lambda r, *a, **k: {"rows": r.usage_increments.size + r.latent_rul.size})
    t.patch(fm.cli, "build_matrix", "optimize.build_matrix", matrix)
    t.patch(fm.cli, "compute_study", "cli.compute_study")
    t.patch(fm.cli, "run_policy", lambda kind, *a, **k: f"policies.{getattr(kind, 'value', kind)}")
    t.patch(fm.policies, "exhaustive_cvar_argmin", "optimize.exhaustive", exhaustive)
    t.patch(fm.policies, "coordinate_descent_cvar", "optimize.descent")
    t.patch(fm.optimize, "batch_cvar", "optimize.batch_cvar", _batch_rows)
    t.patch(fm.cli, "schedule_cost_distribution", "optimize.cost_distribution")
    t.patch(fm.report, "schedule_cost_distribution", "optimize.cost_distribution")
    t.patch(fm.cli, "summarize_policy", "report.summarize")
    t.patch(fm.report, "cvar_alpha", "criteria.cvar_alpha")
    t.patch(fm.report, "expected_cost", "criteria.expected_cost")
    t.patch(fm.report, "failure_proxy", "riskcost.failure_proxy")
    t.patch(fm.cli, "ecdf", "report.ecdf")
    t.patch(fm.cli, "emit_outputs", "report.emit", lambda r, *a, **k: {"bytes": file_bytes(r)})


def run_pipeline(
    fm, workload: Workload, config: Path, out: Path, tracer: Tracer | None = None
) -> dict:
    """One pass of the workload through the CLI's own entry point.

    Returns the exit code, the wall time, the output directory and, for the
    round trip, the reloaded scenario set.
    """
    argv = ["--config", str(config), "--out", str(out), "--threads", str(workload.threads)]
    command = "study" if workload.command == "study" else "gen-scenarios"
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        with tracer.span("cli.main") if tracer else contextlib.nullcontext():
            code = fm.cli.main([command, *argv])
        reloaded = None
        if workload.command == "roundtrip":
            fleet = fm.config.load_config(config).build_fleet()
            reloaded = fm.scenario.read_scenario_csvs(
                fleet, out / "scenario_usage.csv", out / "scenario_rul.csv"
            )
    return {
        "code": code,
        "wall_s": time.perf_counter() - started,
        "out": out,
        "reloaded": reloaded,
    }


@dataclass
class TraceResult:
    metrics: dict[str, float]
    spans: list[dict]
    runs: dict[str, dict]  # pipeline passes, for the caller's output checks
    reference_digest: str | None = None
    problems: list[str] = field(default_factory=list)  # wrong results
    notes: list[str] = field(default_factory=list)  # what could not be traced


def _self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children[s["id"]]):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-function totals, counts and per-layer self time of one run."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def attr(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name[name])

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    descent_ids = {s["id"] for s in by_name["optimize.descent"]}
    m = {
        "config.load_s": total("config.load"),
        "fleet.generate_s": total("fleet.generate"),
        "scenario.sample_s": total("scenario.sample"),
        "scenario.cells": attr("scenario.sample", "cells"),
        "scenario.write_s": total("scenario.write"),
        "scenario.write_bytes": attr("scenario.write", "bytes"),
        "scenario.read_s": total("scenario.read"),
        "scenario.read_rows": attr("scenario.read", "rows"),
        "optimize.build_matrix_s": total("optimize.build_matrix"),
        "optimize.matrix_bytes": attr("optimize.build_matrix", "bytes"),
        "optimize.exhaustive_s": total("optimize.exhaustive"),
        "optimize.schedules_evaluated": attr("optimize.exhaustive", "schedules"),
        "optimize.batch_cvar_calls": len(by_name["optimize.batch_cvar"]),
        "optimize.batch_cvar_rows": attr("optimize.batch_cvar", "rows"),
        "optimize.batch_cvar_s": total("optimize.batch_cvar"),
        "optimize.batch_cvar_bytes": attr("optimize.batch_cvar", "bytes"),
        "optimize.descent_s": total("optimize.descent"),
        "optimize.descent_batch_cvar_calls": sum(
            1 for s in by_name["optimize.batch_cvar"] if s["parent"] in descent_ids
        ),
        **{f"policies.{p}_s": total(f"policies.{p}") for p in POLICY_SPANS},
        "criteria.cvar_alpha_calls": len(by_name["criteria.cvar_alpha"]),
        "criteria.cvar_alpha_s": total("criteria.cvar_alpha"),
        "riskcost.failure_proxy_s": total("riskcost.failure_proxy"),
        "report.summarize_s": total("report.summarize"),
        "report.emit_s": total("report.emit"),
        "report.bytes_written": attr("report.emit", "bytes"),
        "trace.spans": len(spans),
    }
    m["scenario.cells_per_s"] = rate(m["scenario.cells"], m["scenario.sample_s"])
    m["optimize.schedules_per_s"] = rate(
        m["optimize.schedules_evaluated"], m["optimize.exhaustive_s"]
    )
    self_time = _self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            self_time[s["id"]] for s in spans if s["name"].split(".")[0] == layer
        )
    return m


def run_traced(workload: Workload, config: Path, workdir: Path) -> TraceResult:
    """Import, then three passes of the workload: untraced, traced, untraced.

    The first pass only warms up (a first pass in a process runs slower);
    the tracing overhead is the traced pass minus the last one. On the study
    workloads with an exhaustive search, the CVaR walk is also timed at the
    other thread count (1 or 2) on the same matrix, which gives the parallel
    efficiency and a cross-check of the argmin and the counts between
    thread counts.
    """
    tracer = Tracer()
    tracer.run_id = "import"
    sys.path.insert(0, str(SRC))
    with tracer.span("cli.import"):
        import fleetmaint.cli
    import fleetmaint as fm  # the CLI import loaded every submodule used below
    cfg = fm.config.load_config(config)
    reference = None
    if workload.command == "roundtrip":
        reference = scenario_digest(
            fm.scenario.generate_scenarios(cfg.build_fleet(), cfg.n_scenarios, cfg.scenario_seed)
        )

    runs = {"warmup": run_pipeline(fm, workload, config, workdir / "out-warmup")}
    captured: dict = {}
    problems = []
    instrument(tracer, fm, captured)
    try:
        tracer.run_id = "traced"
        runs["traced"] = run_pipeline(fm, workload, config, workdir / "out-traced", tracer)
        metrics = layer_metrics([s for s in tracer.spans if s["run"] == "traced"])
        metrics["optimize.parallel_efficiency"] = 0.0
        if captured.get("argmin"):
            other = 2 if workload.threads == 1 else 1
            tracer.run_id = f"threads{other}"
            try:
                argmin = fm.policies.exhaustive_cvar_argmin(
                    captured["matrix"], captured["scenarios"].weights, cfg.alpha,
                    budget=cfg.exhaustive_budget, threads=other,
                )
            except (AttributeError, KeyError, TypeError) as exc:  # the search's signature changed
                tracer.notes.append(f"CVaR walk at {other} threads not run: {exc!r}")
                captured.clear()
        if captured.get("argmin"):
            extra = layer_metrics([s for s in tracer.spans if s["run"] == tracer.run_id])
            if argmin != captured["argmin"]:
                problems.append(f"CVaR argmin differs between 1 and 2 threads: "
                                f"{captured['argmin']} vs {argmin}")
            for key in ("optimize.schedules_evaluated", "optimize.batch_cvar_rows"):
                if extra[key] != metrics[key]:
                    problems.append(f"{key} differs between thread counts: "
                                    f"{metrics[key]} vs {extra[key]}")
            by_threads = {workload.threads: metrics["optimize.exhaustive_s"],
                          other: extra["optimize.exhaustive_s"]}
            metrics["optimize.parallel_efficiency"] = by_threads[1] / (2 * by_threads[2])
    finally:
        tracer.unpatch()
    captured.clear()
    runs["untraced"] = run_pipeline(fm, workload, config, workdir / "out-untraced")

    metrics["cli.import_s"] = tracer.spans[0]["end"] - tracer.spans[0]["start"]
    metrics["trace.wall_s"] = runs["traced"]["wall_s"]
    metrics["trace.untraced_wall_s"] = runs["untraced"]["wall_s"]
    metrics["trace.overhead_s"] = runs["traced"]["wall_s"] - runs["untraced"]["wall_s"]
    return TraceResult(
        metrics={k: metrics[k] for k in PER_LAYER_UNITS},
        spans=tracer.spans,
        runs=runs,
        reference_digest=reference,
        problems=problems,
        notes=tracer.notes,
    )
