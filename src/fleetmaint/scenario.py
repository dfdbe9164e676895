"""Monte Carlo scenario generation for usage and latent remaining life.

A scenario set holds, for every (asset, scenario) pair, T positive usage
increments and one latent remaining-useful-life value; its S scenarios are
equally likely. Uncertainty is sampled once up front; every downstream
policy is evaluated against the same frozen set, so policy comparisons
share common random numbers.

Determinism contract: the random stream for cell (asset i, scenario w) is
derived only from (seed, i, w), via
``numpy.random.SeedSequence(seed, spawn_key=(i, w))`` seeding a PCG64
generator (:func:`cell_stream`). Cells can therefore be generated in any
order, or in parallel, without changing a single draw. Within a cell the T
usage increments are drawn first, then the latent RUL.

:func:`generate_scenarios` keeps that contract without building one
``SeedSequence`` and one ``Generator`` per cell. SeedSequence's hash and
PCG64's seeding step are pure functions of the seed words, so the state of
every cell of an asset is computed in array passes over all its cells: the
hash in uint32 arithmetic (:func:`_cell_seed_words`), then PCG64's 128-bit
seeding step in Python's exact integers (:func:`_pcg64_states`). Each cell's
state is set on one reused generator before its draws, and its gamma draws
are written straight into the output array.

Since every cell is a pure function of (seed, i, w), :func:`generate_scenarios`
can also split the cells into contiguous blocks in (asset, scenario) order
and sample the blocks in forked worker processes at once. The workers write
into one shared anonymous memory map that backs the returned arrays, so the
set is the same to the bit whatever the number of workers.

A set leaves and re-enters fleetmaint as two CSV files, and both directions
work a column at a time. :func:`write_scenario_csvs` renders each asset's
rows as one string from keys built once per file. :func:`read_scenario_csvs`
takes converted columns from :func:`fleetmaint.csvio.read_csv` in chunks of
``csvio.CHUNK_ROWS`` rows and extends typed buffers with them, so reading
holds the buffers and one small chunk at a time. Its converters are the
plain ``float`` and ``int`` a row-wise parser would apply, so it accepts
exactly the files such a parser accepts.
"""

from __future__ import annotations

import math
import mmap
import operator
import os
import sys
from array import array
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .csvio import line_number, quote, read_csv, write_lines
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

# The standard normal quantile function (Wichura's AS241 algorithm).
_normal_quantile = NormalDist().inv_cdf

# numpy's SeedSequence: pool size, hash constants and the xorshift of its
# hashmix/mix steps (numpy/random/bit_generator.pyx, after M. E. O'Neill's
# randutils seed_seq_fe).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64) and its modulus mask.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


# The exported CSV columns, with the converters the reader applies to them
# (csvio keeps int columns within int64).
_USAGE_COLUMNS = {"asset_id": str, "scenario": int, "period": int, "usage_increment": float}
_RUL_COLUMNS = {"asset_id": str, "scenario": int, "latent_rul": float}


@dataclass(frozen=True)
class ScenarioSet:
    """Frozen scenario data for one fleet, every scenario equally likely.

    The set does not record how it was made: the run config, echoed in
    ``run_meta.json``, holds the seed of a sampled set. The scenario count
    S and the weights follow from the arrays.

    Attributes:
        usage_increments: shape (N, S, T) with S >= 1, strictly positive.
        latent_rul: shape (N, S), nonnegative.
    """

    usage_increments: np.ndarray
    latent_rul: np.ndarray

    def __post_init__(self) -> None:
        inc = np.asarray(self.usage_increments, dtype=float)
        rul = np.asarray(self.latent_rul, dtype=float)
        if inc.ndim != 3:
            raise ValueError(f"usage_increments must have shape (N, S, T), got {inc.shape}")
        if inc.shape[1] < 1:
            raise ValueError("n_scenarios must be >= 1")
        if rul.shape != inc.shape[:2]:
            raise ValueError(f"latent_rul must have shape {inc.shape[:2]}, got {rul.shape}")
        # written so that NaN fails each test: every comparison with NaN is False
        if not (np.all(inc > 0) and np.all(inc < np.inf)):
            raise ValueError("usage increments must be finite and > 0")
        if not (np.all(rul >= 0) and np.all(rul < np.inf)):
            raise ValueError("latent RUL values must be finite and >= 0")
        for arr, name in ((inc, "usage_increments"), (rul, "latent_rul")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_scenarios(self) -> int:
        return self.latent_rul.shape[1]

    @property
    def weights(self) -> np.ndarray:
        """The read-only weight 1/S of each scenario, shape (S,)."""
        w = np.full(self.n_scenarios, 1.0 / self.n_scenarios)
        w.setflags(write=False)
        return w

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
    params = _gamma_params(mean, cv)
    if params is None:
        return float(mean) if size is None else np.full(size, float(mean))
    shape, scale = params
    return rng.gamma(shape, scale, size=size)


def _gamma_params(mean: float, cv: float) -> tuple[float, float] | None:
    """The moment-matched (shape, scale) of :func:`sample_gamma`, or None
    when cv is zero: the point mass at the mean, which takes no draws."""
    if mean <= 0:
        raise ValueError("mean must be > 0")
    if not 0.0 <= cv < 1.0:
        raise ValueError("cv must lie in [0, 1)")
    if cv == 0.0:
        return None
    return 1.0 / (cv * cv), mean * cv * cv


def _normal_upper_tail(a: float) -> float:
    """P(Z >= a) for a standard normal Z, with full relative precision in the upper tail."""
    return 0.5 * math.erfc(a / math.sqrt(2.0))


def sample_truncated_normal(
    mean: float, std: float, lower: float, rng: np.random.Generator
) -> float:
    """One draw from a normal(mean, std) conditioned on the result >= lower.

    Uses rejection against the untruncated normal, which is exact and cheap
    when the truncated mass is small. After _MAX_REJECTS misses it switches
    to one inverse-CDF draw from the conditional distribution, still exact
    and still a pure function of the stream state: the upper-tail mass above
    the standardized bound a comes from ``math.erfc`` and its quantile from
    the standard library's ``NormalDist().inv_cdf``. Past a of about 38.5
    the tail mass underflows to zero; the draw is then ``lower``, the limit
    of the conditional law, after the same one uniform draw. A zero std is
    the point mass at the mean (an error if the mean lies below the
    truncation point).
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
    p = (1.0 - rng.uniform()) * _normal_upper_tail(a)
    if not 0.0 < p < 1.0:
        # p underflows to 0 in the far tail (always once the tail mass does),
        # and reaches 1 only when the tail mass rounds to 1 and u is 0; in
        # both cases the draw's limit is the bound.
        return float(lower)
    z = -_normal_quantile(p)
    return max(float(mean + std * z), float(lower))


def cell_stream(seed: int, asset_index: int, scenario_index: int) -> np.random.Generator:
    """The documented per-(asset, scenario) substream derivation rule."""
    seq = np.random.SeedSequence(seed, spawn_key=(asset_index, scenario_index))
    return np.random.default_rng(seq)


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative integer, as SeedSequence splits it."""
    if value < 0:
        raise ValueError(f"seed and spawn key must be >= 0, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash_constants(start: int, mult: int):
    """The (current, next) hash constant pairs of SeedSequence's hashmix."""
    const = start
    while True:
        following = (const * mult) & _MASK32
        yield np.uint32(const), np.uint32(following)
        const = following


def _cell_seed_words(seed: int, asset_index: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(asset_index, w)).generate_state(4, uint64)``
    for every w in start..stop-1, as a (stop - start, 4) uint64 array.

    The entropy of cell w is the seed's words, zero-padded to the pool size,
    then the asset index's words, then w (one word: scenario counts stay
    below 2^32). Every cell runs the same hash steps with the same
    constants, so the steps run once on columns of uint32 arrays, whose
    products wrap modulo 2^32 as the reference's do.
    """
    run = _uint32_words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    n_cells = stop - start
    entropy = [np.full(n_cells, word, np.uint32) for word in run + _uint32_words(asset_index)]
    entropy.append(np.arange(start, stop, dtype=np.uint32))

    def hashmix(value, consts):
        const, following = next(consts)
        value = (value ^ const) * following
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[k], consts) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src], consts))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word, consts))

    consts = _hash_constants(_INIT_B, _MULT_B)
    state = np.empty((n_cells, 8), dtype=np.uint32)
    for k in range(8):
        state[:, k] = hashmix(pool[k % _POOL_SIZE], consts)
    return state.view("<u8").astype(np.uint64)


def _pcg64_states(words: np.ndarray) -> tuple[list[int], list[int]]:
    """The (state, inc) ``PCG64`` takes when seeded with each row of four
    SeedSequence words, for an (n, 4) uint64 array.

    PCG64 reads words 0-1 as the 128-bit initial state and words 2-3 as
    the stream selector (high word first), then runs pcg_setseq_128_srandom:
    ``inc = (initseq << 1) | 1``, ``state = (inc + initstate) * MULT + inc``,
    both mod 2^128. The 64-bit shifts run in uint64 arrays; the halves are
    then joined and the rest runs in Python's exact integers, on object
    arrays.
    """
    w0, w1, w2, w3 = words.T
    one = np.uint64(1)
    hi = ((w2 << one) | (w3 >> np.uint64(63))).astype(object)
    lo = ((w3 << one) | one).astype(object)
    inc = hi << 64 | lo
    state = ((w0.astype(object) << 64 | w1.astype(object)) + inc) * _PCG64_MULT + inc & _MASK128
    return state.tolist(), inc.tolist()


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _sample_cells(
    fleet: FleetSpec, seed: int, inc: np.ndarray, rul: np.ndarray, start: int, stop: int
) -> None:
    """Draw cells start..stop-1, counted in (asset, scenario) order, into
    ``inc`` (N, S, T) and ``rul`` (N, S).

    Per asset, the seed words and PCG64 states of the block's cells come
    in one array pass each. Each cell's state is set on one reused
    generator from one reused dict, and its standard gammas go straight
    into its row of ``inc``. The block's rows of the asset are then scaled
    once (numpy's gamma is ``scale * standard_gamma``), the same multiply
    of each value whatever the block bounds.
    """
    n_scenarios = rul.shape[1]
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    # The state setter copies the values out, so one dict serves every cell.
    cell = {"state": 0, "inc": 0}
    generator_state = {"bit_generator": "PCG64", "state": cell, "has_uint32": 0, "uinteger": 0}
    for i in range(start // n_scenarios, -(-stop // n_scenarios)):
        asset = fleet.assets[i]
        lo = max(start - i * n_scenarios, 0)
        hi = min(stop - i * n_scenarios, n_scenarios)
        gamma = _gamma_params(asset.usage_mean_per_period, asset.usage_cv)
        states, increments = _pcg64_states(_cell_seed_words(seed, i, lo, hi))
        for w, (cell["state"], cell["inc"]) in enumerate(zip(states, increments), lo):
            bit_generator.state = generator_state
            if gamma is not None:
                rng.standard_gamma(gamma[0], out=inc[i, w])
            rul[i, w] = sample_truncated_normal(asset.rul_mean, asset.rul_std, 0.0, rng)
        if gamma is None:
            inc[i, lo:hi] = asset.usage_mean_per_period
        else:
            inc[i, lo:hi] *= gamma[1]


def _fork_block(*args) -> int:
    """Run ``_sample_cells(*args)`` in a forked child; return its pid.

    The child never returns into the caller's code: it ends in
    ``os._exit``, with status 0 once the block is drawn, or 1 after
    printing the traceback to stderr if anything at all was raised.
    """
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        _sample_cells(*args)
        status = 0
    except BaseException:  # not re-raised: unwinding would run the caller's code twice
        sys.__excepthook__(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(status)


def generate_scenarios(
    fleet: FleetSpec, n_scenarios: int, seed: int, workers: int = 1
) -> ScenarioSet:
    """Draw an equally weighted scenario set for a fleet.

    Each (asset, scenario) cell draws from its own :func:`cell_stream`
    substream: T usage increments from :func:`sample_gamma` with the
    asset's mean and cv, then one truncated-normal latent RUL bounded below
    by zero. The latent RUL is drawn once per cell and reused by every
    candidate maintenance date downstream. The substreams are derived in
    bulk by :func:`_sample_cells`; the draws are bit-identical to building
    each cell's ``cell_stream``.

    The N*S cells are split, in (asset, scenario) order, into
    ``min(workers, usable CPUs, N*S)`` contiguous blocks. The caller samples
    the first block itself and forks one child process per other block;
    all of them write into one shared anonymous memory map, which backs the
    returned arrays. Every child is reaped before this returns or raises,
    and a child that fails raises a RuntimeError naming its block. With
    one block, or where ``os.fork`` does not exist, nothing is forked. The
    result never depends on ``workers``.
    """
    if n_scenarios < 1:
        raise ValueError("n_scenarios must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n, t = fleet.n_assets, fleet.horizon
    cells = n * n_scenarios
    shared = mmap.mmap(-1, cells * (t + 1) * 8)
    inc = np.frombuffer(shared, np.float64, cells * t).reshape(n, n_scenarios, t)
    rul = np.frombuffer(shared, np.float64, cells, cells * t * 8).reshape(n, n_scenarios)
    blocks = min(workers, _usable_cpus(), cells) if hasattr(os, "fork") else 1
    bounds = [cells * b // blocks for b in range(blocks + 1)]
    children: dict[int, int] = {}
    try:
        for b in range(1, blocks):
            children[_fork_block(fleet, seed, inc, rul, bounds[b], bounds[b + 1])] = b
        _sample_cells(fleet, seed, inc, rul, bounds[0], bounds[1])
    finally:
        statuses = {b: os.waitpid(pid, 0)[1] for pid, b in children.items()}
    for b, status in statuses.items():
        if status:
            raise RuntimeError(
                f"scenario sampling worker for block {b} of {blocks} (cells"
                f" {bounds[b]}..{bounds[b + 1] - 1}) exited with status"
                f" {os.waitstatus_to_exitcode(status)}"
            )
    return ScenarioSet(usage_increments=inc, latent_rul=rul)


def write_scenario_csvs(scenarios: ScenarioSet, fleet: FleetSpec, usage_path, rul_path) -> None:
    """Export a scenario set to two CSV files.

    Usage rows are (asset_id, scenario, period, usage_increment) with
    1-based periods; RUL rows are (asset_id, scenario, latent_rul). Values
    are written with 17 significant digits so float64 data round-trips
    exactly.

    The bytes are those of ``csv.writer`` on the same rows, rendered an
    asset at a time: the ",scenario,period," keys are built once per file
    and shared by every asset, each asset id is quoted once by
    :func:`fleetmaint.csvio.quote`, and an asset's values are formatted by
    one ``map`` and its rows joined into one string.
    """
    n_scenarios, horizon = scenarios.n_scenarios, scenarios.horizon
    usage_keys = [f",{w},{k}," for w in range(n_scenarios) for k in range(1, horizon + 1)]
    rul_keys = [f",{w}," for w in range(n_scenarios)]

    def blocks(values, keys):
        for asset, block in zip(fleet.assets, values):
            rows = map(operator.add, keys, map("{:.17g}".format, block.ravel().tolist()))
            asset_id = quote(asset.id)
            yield asset_id + ("\n" + asset_id).join(rows) + "\n"

    write_lines(usage_path, _USAGE_COLUMNS, blocks(scenarios.usage_increments, usage_keys))
    write_lines(rul_path, _RUL_COLUMNS, blocks(scenarios.latent_rul, rul_keys))


def _read_columns(name: str, path, columns: dict, index: dict) -> list[np.ndarray]:
    """A scenario file's columns in file order: fleet indices, int64 keys, float64 values.

    :func:`fleetmaint.csvio.read_csv` hands over converted columns a chunk
    at a time; each is mapped or copied into a typed buffer by one
    ``extend``, so no Python code runs once per row.
    """
    buffers = [array("q") for _ in range(len(columns) - 1)] + [array("d")]
    for ids, *values in read_csv(path, name, columns):
        try:
            buffers[0].extend(map(index.__getitem__, ids))
        except KeyError as exc:
            unknown = exc.args[0]
            # The value buffer holds one entry per row before this chunk.
            line = line_number(path, len(buffers[-1]) + ids.index(unknown))
            raise ValueError(
                f"{name} references unknown asset {unknown!r}: {path}, line {line}"
            ) from None
        for buffer, column in zip(buffers[1:], values):
            buffer.extend(column)
    return [np.frombuffer(buffer, dtype=buffer.typecode) for buffer in buffers]


def _repeated_neighbours(keys: list, order: np.ndarray) -> np.ndarray:
    """Whether each row in ``order`` agrees with the one before on every key.

    Each key is sorted into one reused buffer, freed on return, so the
    reader never holds more than one sorted copy of a key column. (With
    mode="clip", which changes nothing for indices in range, ``take``
    writes into ``out`` without a buffer of its own.)
    """
    ordered = np.empty_like(keys[0])
    same = np.ones(max(order.size - 1, 0), dtype=bool)
    for key in keys:
        np.take(key, order, out=ordered, mode="clip")
        same &= ordered[1:] == ordered[:-1]
    return same


def _cell_values(
    fleet: FleetSpec, name: str, path, columns: dict, rows, label: str, bound: tuple, shape
):
    """A scenario file's values in (asset, scenario[, period]) order, as ``shape``.

    ``rows`` come from :func:`_read_columns`, every index in range. One stable
    sort by the keys finds repeated cells and, once the count shows the rows
    cover ``shape``, puts the values in cell order. Every value must be
    finite and meet ``bound``, a (comparison against 0, its text) pair; the
    first that does not is named with its cell.
    """
    *keys, values = rows
    key_names = ["asset", *list(columns)[1:-1]]

    def cell(k) -> str:
        described = [f"{key_name} {key[k]}" for key_name, key in zip(key_names[1:], keys[1:])]
        return " ".join([f"asset {fleet.assets[keys[0][k]].id!r}", *described])

    order = np.lexsort(keys[::-1])
    same = _repeated_neighbours(keys, order)
    if same.any():
        raise ValueError(f"{name} repeats {cell(order[1:][same].min())}: {path}")
    if values.size != math.prod(shape):
        raise ValueError(f"{name} does not cover every ({', '.join(key_names)}) cell: {path}")
    values = values[order]
    compare, bound_text = bound
    bad = np.flatnonzero(~(np.isfinite(values) & compare(values, 0.0)))
    if bad.size:
        value, where = float(values[bad[0]]), cell(order[bad[0]])
        if not math.isfinite(value):
            raise ValueError(f"{name} {path}: non-finite {label} {value!r} for {where}")
        raise ValueError(f"{name} {path}: {label} {value!r} for {where} must be {bound_text}")
    return values.reshape(shape)


def read_scenario_csvs(fleet: FleetSpec, usage_path, rul_path) -> ScenarioSet:
    """Rebuild an equally weighted scenario set from exported CSVs.

    Every (asset, scenario, period) cell must be present exactly once, and
    every RUL row must name a scenario the usage file defines; missing,
    duplicate, negative or out-of-range entries raise a ValueError naming
    the file, as does a value ``ScenarioSet`` would refuse: a non-finite
    one (``inf`` or ``nan``), a usage increment <= 0 or a negative latent
    RUL, named with the first bad cell in (asset, scenario, period) order.
    The files are read by :func:`fleetmaint.csvio.read_csv` with the
    columns :func:`write_scenario_csvs` writes; a row that does not parse,
    or names an asset outside the fleet, is named with its line. No array
    is sized by a scenario index before the rows are known to cover every
    cell.
    """
    n, t = fleet.n_assets, fleet.horizon
    index = {a.id: i for i, a in enumerate(fleet.assets)}

    usage = _read_columns("usage file", usage_path, _USAGE_COLUMNS, index)
    scen, period = usage[1], usage[2]
    if np.any(scen < 0):
        raise ValueError(f"usage file scenario {scen[scen < 0][0]} is negative: {usage_path}")
    outside = (period < 1) | (period > t)
    if np.any(outside):
        raise ValueError(f"usage file period {period[outside][0]} outside 1..{t}: {usage_path}")
    if scen.size == 0:
        raise ValueError(f"usage file contains no scenarios: {usage_path}")
    n_scen = int(scen.max()) + 1
    inc = _cell_values(
        fleet, "usage file", usage_path, _USAGE_COLUMNS, usage, "usage increment",
        (np.greater, "> 0"), (n, n_scen, t),
    )

    rows = _read_columns("RUL file", rul_path, _RUL_COLUMNS, index)
    outside = (rows[1] < 0) | (rows[1] >= n_scen)
    if np.any(outside):
        raise ValueError(
            f"RUL file scenario {rows[1][outside][0]} outside 0..{n_scen - 1}: {rul_path}"
        )
    rul = _cell_values(
        fleet, "RUL file", rul_path, _RUL_COLUMNS, rows, "latent RUL",
        (np.greater_equal, ">= 0"), (n, n_scen),
    )

    return ScenarioSet(usage_increments=inc, latent_rul=rul)
