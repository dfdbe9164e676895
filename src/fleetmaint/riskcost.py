"""Hazard shape of the degradation-risk cost model.

The model prices one asset-scenario trajectory as four nonnegative terms:
a fixed preventive-maintenance charge, an expected-failure charge, a
performance-loss charge, and an early-intervention penalty. Risk accrues
period by period from the start of the horizon up to, but not including,
the maintenance date; maintaining at the start of period tau means no
hazard is charged for tau itself, and nothing after the action is modeled
within the horizon. An unscheduled asset accrues hazard over the full
horizon and pays neither the maintenance charge nor the early penalty.

The hazard at period t depends on the effective remaining life margin
m = R - t of the scenario's latent RUL R:

* failure probability: p_max * exp(-lambda * max(m, 0)), so p_max for m <= 0,
* performance loss: a linear ramp that switches on once m falls below a
  wear-in window W and saturates at m <= 0.

Usage affects maintenance timing only through the usage-threshold policy;
it does not enter the hazard, which is driven by the latent RUL alone.

This module holds the hazard functions and their constants. The cost
terms are assembled one asset at a time, for its candidate dates and
scenarios, by :func:`fleetmaint.optimize.build_matrix`, which also keeps
the scenario-weighted accrued failure probability that summary.csv
reports as the failure proxy, and again, with the same bits, wherever
the matrix's cost rows are read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RiskParams", "failure_probability", "performance_penalty"]


@dataclass(frozen=True)
class RiskParams:
    """Shared hazard-shape constants.

    p_max caps the per-period failure probability, decay_rate sets how fast
    risk falls off with positive margin, and perf_window is the margin below
    which performance loss starts to accrue.
    """

    p_max: float = 0.95
    decay_rate: float = 0.75
    perf_window: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 < self.p_max <= 0.95:
            raise ValueError("p_max must lie in (0, 0.95]")
        if self.decay_rate <= 0:
            raise ValueError("decay_rate must be > 0")
        if self.perf_window <= 0:
            raise ValueError("perf_window must be > 0")


def failure_probability(margin, params: RiskParams = RiskParams()):
    """Per-period failure probability at a remaining-life margin.

    Saturates at p_max for exhausted margins and decays exponentially with
    positive margin. Accepts scalars or arrays; scalar in, float out.
    """
    # exp(-0.0) == 1 and p_max * x <= p_max for x <= 1, so no branch or cap is needed;
    # every step after the first works in place on its result
    p = np.maximum(margin, 0.0, out=np.empty(np.shape(margin)))
    p *= -params.decay_rate
    np.exp(p, out=p)
    p *= params.p_max
    if np.ndim(margin) == 0:
        return float(p)
    return p


def performance_penalty(margin, cost_perf: float, params: RiskParams = RiskParams()):
    """Performance-loss charge at a margin: a clamped linear ramp.

    Zero while the margin is at least perf_window, rising linearly to the
    full coefficient as the margin reaches zero. Accepts scalars or arrays.
    """
    if cost_perf < 0:
        raise ValueError("cost_perf must be >= 0")
    w = params.perf_window
    out = np.subtract(w, margin, out=np.empty(np.shape(margin)))
    out /= w
    np.clip(out, 0.0, 1.0, out=out)
    out *= cost_perf
    if np.ndim(margin) == 0:
        return float(out)
    return out
