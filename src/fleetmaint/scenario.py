"""Monte Carlo scenario generation for usage and latent remaining life.

A scenario set holds, for every (asset, scenario) pair, T positive usage
increments and one latent remaining-useful-life value, plus one weight per
scenario. Uncertainty is sampled once up front; every downstream policy is
evaluated against the same frozen set, so policy comparisons share common
random numbers.

Determinism contract: the random stream for cell (asset i, scenario w) is
derived only from (seed, i, w), via
``numpy.random.SeedSequence(seed, spawn_key=(i, w))``. Cells can therefore
be generated in any order, or in parallel, without changing a single draw.
Within a cell the T usage increments are drawn first, then the latent RUL.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .fleet import FleetSpec

__all__ = [
    "ScenarioSet",
    "sample_gamma",
    "sample_truncated_normal",
    "cell_stream",
    "generate_scenarios",
    "write_scenario_csvs",
    "read_scenario_csvs",
]

# Rejection attempts before switching to inverse-CDF sampling. The study
# profile keeps truncation mass tiny, so the fallback almost never fires,
# but it guarantees termination for far-tail parameter choices.
_MAX_REJECTS = 256


@dataclass(frozen=True)
class ScenarioSet:
    """Frozen scenario data for one fleet.

    Attributes:
        n_scenarios: number of scenarios S.
        weights: shape (S,), nonnegative, summing to 1.
        usage_increments: shape (N, S, T), strictly positive.
        latent_rul: shape (N, S), nonnegative.
        seed: seed used for generation, or None for hand-built sets.
    """

    n_scenarios: int
    weights: np.ndarray
    usage_increments: np.ndarray
    latent_rul: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        inc = np.asarray(self.usage_increments, dtype=float)
        rul = np.asarray(self.latent_rul, dtype=float)
        s = int(self.n_scenarios)
        if s < 1:
            raise ValueError("n_scenarios must be >= 1")
        if w.shape != (s,):
            raise ValueError(f"weights must have shape ({s},), got {w.shape}")
        if inc.ndim != 3 or inc.shape[1] != s:
            raise ValueError(f"usage_increments must have shape (N, {s}, T), got {inc.shape}")
        if rul.shape != (inc.shape[0], s):
            raise ValueError(f"latent_rul must have shape ({inc.shape[0]}, {s}), got {rul.shape}")
        if np.any(w < 0):
            raise ValueError("scenario weights must be >= 0")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("scenario weights must sum to 1 within 1e-12")
        if not np.all(inc > 0):
            raise ValueError("usage increments must be > 0")
        if np.any(rul < 0):
            raise ValueError("latent RUL values must be >= 0")
        for arr, name in ((w, "weights"), (inc, "usage_increments"), (rul, "latent_rul")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "n_scenarios", s)

    @property
    def n_assets(self) -> int:
        return self.usage_increments.shape[0]

    @property
    def horizon(self) -> int:
        return self.usage_increments.shape[2]


def sample_gamma(
    mean: float, cv: float, rng: np.random.Generator, size: int | None = None
) -> float | np.ndarray:
    """Gamma draws with the given mean and coefficient of variation.

    Moment matching: shape k = 1/cv^2 and scale theta = mean * cv^2, so
    k * theta = mean and 1/sqrt(k) = cv. A zero cv is the exact point mass
    at the mean and consumes no draws from the stream. Returns one float
    when ``size`` is None, else an array of ``size`` draws (which equal
    ``size`` scalar draws taken in turn from the same stream).
    """
    if mean <= 0:
        raise ValueError("mean must be > 0")
    if not 0.0 <= cv < 1.0:
        raise ValueError("cv must lie in [0, 1)")
    if cv == 0.0:
        return float(mean) if size is None else np.full(size, float(mean))
    shape = 1.0 / (cv * cv)
    scale = mean * cv * cv
    return rng.gamma(shape, scale, size=size)


def sample_truncated_normal(
    mean: float, std: float, lower: float, rng: np.random.Generator
) -> float:
    """One draw from a normal(mean, std) conditioned on the result >= lower.

    Uses rejection against the untruncated normal, which is exact and cheap
    when the truncated mass is small. After _MAX_REJECTS misses it switches
    to one inverse-CDF draw from the conditional distribution, still exact
    and still a pure function of the stream state. A zero std is the point
    mass at the mean (an error if the mean lies below the truncation point).
    """
    if std < 0:
        raise ValueError("std must be >= 0")
    if std == 0.0:
        if mean < lower:
            raise ValueError("degenerate distribution has empty support above the bound")
        return float(mean)
    for _ in range(_MAX_REJECTS):
        x = rng.normal(mean, std)
        if x >= lower:
            return float(x)
    # Conditional inverse CDF, written against the upper tail so precision
    # survives even when nearly all mass is truncated away.
    a = (lower - mean) / std
    tail = float(ndtr(-a))
    u = rng.uniform()
    z = -float(ndtri((1.0 - u) * tail))
    return max(float(mean + std * z), float(lower))


def cell_stream(seed: int, asset_index: int, scenario_index: int) -> np.random.Generator:
    """The documented per-(asset, scenario) substream derivation rule."""
    seq = np.random.SeedSequence(seed, spawn_key=(asset_index, scenario_index))
    return np.random.default_rng(seq)


def generate_scenarios(fleet: FleetSpec, n_scenarios: int, seed: int) -> ScenarioSet:
    """Draw an equally weighted scenario set for a fleet.

    Each (asset, scenario) cell uses its own substream from
    :func:`cell_stream`: T usage increments from :func:`sample_gamma` with
    the asset's mean and cv, then one truncated-normal latent RUL bounded
    below by zero. The latent RUL is drawn once per cell and reused by
    every candidate maintenance date downstream.
    """
    if n_scenarios < 1:
        raise ValueError("n_scenarios must be >= 1")
    n, t = fleet.n_assets, fleet.horizon
    inc = np.empty((n, n_scenarios, t))
    rul = np.empty((n, n_scenarios))
    for i, asset in enumerate(fleet.assets):
        for w in range(n_scenarios):
            rng = cell_stream(seed, i, w)
            inc[i, w, :] = sample_gamma(asset.usage_mean_per_period, asset.usage_cv, rng, size=t)
            rul[i, w] = sample_truncated_normal(asset.rul_mean, asset.rul_std, 0.0, rng)
    weights = np.full(n_scenarios, 1.0 / n_scenarios)
    return ScenarioSet(
        n_scenarios=n_scenarios,
        weights=weights,
        usage_increments=inc,
        latent_rul=rul,
        seed=seed,
    )


def write_scenario_csvs(
    scenarios: ScenarioSet, fleet: FleetSpec, usage_path, rul_path
) -> None:
    """Export a scenario set to two CSV files.

    Usage rows are (asset_id, scenario, period, usage_increment) with
    1-based periods; RUL rows are (asset_id, scenario, latent_rul). Values
    are written with 17 significant digits so float64 data round-trips
    exactly.
    """
    with open(usage_path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["asset_id", "scenario", "period", "usage_increment"])
        for i, asset in enumerate(fleet.assets):
            for w in range(scenarios.n_scenarios):
                for t in range(scenarios.horizon):
                    writer.writerow(
                        [asset.id, w, t + 1, format(scenarios.usage_increments[i, w, t], ".17g")]
                    )
    with open(rul_path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["asset_id", "scenario", "latent_rul"])
        for i, asset in enumerate(fleet.assets):
            for w in range(scenarios.n_scenarios):
                writer.writerow([asset.id, w, format(scenarios.latent_rul[i, w], ".17g")])


def read_scenario_csvs(fleet: FleetSpec, usage_path, rul_path) -> ScenarioSet:
    """Rebuild an equally weighted scenario set from exported CSVs.

    Every (asset, scenario, period) cell must be present exactly once, and
    every RUL row must name a scenario the usage file defines; missing,
    duplicate, negative or out-of-range entries raise a ValueError.
    """
    t = fleet.horizon
    index = {a.id: i for i, a in enumerate(fleet.assets)}

    usage_rows: dict[tuple[int, int, int], float] = {}
    n_scen = 0
    with open(usage_path, newline="") as f:
        reader = csv.DictReader(f)
        for row in reader:
            asset_id = row["asset_id"]
            if asset_id not in index:
                raise ValueError(f"usage file references unknown asset {asset_id!r}")
            w, period = int(row["scenario"]), int(row["period"])
            if w < 0:
                raise ValueError(f"usage file scenario {w} is negative")
            if not 1 <= period <= t:
                raise ValueError(f"usage file period {period} outside 1..{t}")
            cell = (index[asset_id], w, period - 1)
            if cell in usage_rows:
                raise ValueError(
                    f"usage file repeats asset {asset_id!r} scenario {w} period {period}"
                )
            usage_rows[cell] = float(row["usage_increment"])
            n_scen = max(n_scen, w + 1)
    if n_scen == 0:
        raise ValueError("usage file contains no scenarios")
    if len(usage_rows) != fleet.n_assets * n_scen * t:
        raise ValueError("usage file does not cover every (asset, scenario, period) cell")

    inc = np.empty((fleet.n_assets, n_scen, t))
    for (i, w, k), value in usage_rows.items():
        inc[i, w, k] = value

    rul = np.full((fleet.n_assets, n_scen), np.nan)
    rul_seen = np.zeros((fleet.n_assets, n_scen), dtype=bool)
    with open(rul_path, newline="") as f:
        reader = csv.DictReader(f)
        for row in reader:
            asset_id = row["asset_id"]
            if asset_id not in index:
                raise ValueError(f"RUL file references unknown asset {asset_id!r}")
            w = int(row["scenario"])
            if not 0 <= w < n_scen:
                raise ValueError(f"RUL file scenario {w} outside 0..{n_scen - 1}")
            i = index[asset_id]
            if rul_seen[i, w]:
                raise ValueError(f"RUL file repeats asset {asset_id!r} scenario {w}")
            rul_seen[i, w] = True
            rul[i, w] = float(row["latent_rul"])
    if np.any(np.isnan(rul)):
        raise ValueError("RUL file does not cover every (asset, scenario) cell")

    weights = np.full(n_scen, 1.0 / n_scen)
    return ScenarioSet(
        n_scenarios=n_scen,
        weights=weights,
        usage_increments=inc,
        latent_rul=rul,
        seed=None,
    )
