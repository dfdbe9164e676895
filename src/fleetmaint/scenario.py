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

The sampler keeps that contract without building one ``SeedSequence`` and
one ``Generator`` per cell. SeedSequence's hash and PCG64's seeding step
are pure functions of the seed words, so the states of a group of cells,
``_GROUP`` or a few more and possibly of several assets, are computed in
array passes. numpy's ``SeedSequence(seed)`` mixes the seed's words, once
per group; the sampler adds only each cell's (i, w) words and the state
step, in uint32 arithmetic (:func:`_cell_seed_words`), then PCG64's
128-bit seeding step in Python's exact integers (:func:`_pcg64_states`).
Each cell's state is set on one reused generator before its draws, and
its gamma draws are written straight into their destination row. No
working array grows with N or S.

Since every cell is a pure function of (seed, i, w), the cells can also be
split into contiguous blocks in (asset, scenario) order and sampled in
forked worker processes at once. The workers write into one shared
anonymous memory map that backs the returned arrays, so the draws are the
same to the bit whatever the number of workers.

Pricing reads only the latent RUL and the scenario mean of the usage
increments, so :func:`sample_pricing_inputs` keeps only those, as a
:class:`PricingInputs`, while :func:`generate_scenarios` adds every
increment to them in a :class:`ScenarioSet`. Both run one sampler,
:func:`_sample_cells`; only where the usage draws go differs. The sampler
takes an asset's scenarios in chunks of ``_CHUNK`` rows, drawn into a view
of the (N, S, T) array or into one reused (min(``_CHUNK``, S), T) buffer. It
scales and checks each chunk and stores the chunk's term of the usage
mean, its values weighted by 1/S and summed by
:func:`fleetmaint.criteria.weighted_sum`. Worker blocks start and end on
chunk bounds, and the terms are added in scenario order
(:func:`_usage_mean`), so the mean is the same bits for every number of
workers and equals :attr:`ScenarioSet.usage_mean` of the full set.

A set leaves and re-enters fleetmaint as two CSV files, and both directions
work a column at a time in bounded memory. :func:`write_scenario_csvs`
renders each asset a block of ``_CHUNK`` scenarios at a time, with one
``%`` of the block's values into the block's row template, built once per
file; it holds no more than the templates and one block beyond the set.
:func:`read_scenario_csvs` takes typed columns from
:func:`fleetmaint.csvio.read_csv` in chunks of ``csvio.CHUNK_ROWS`` rows and
extends one buffer per column with them, each key in the narrowest type
its bound allows: the asset index by N, the period by T, the scenario as
uint32 (:data:`SCENARIO_LIMIT`). A key that does not fit its type is kept
aside and named after the whole file is parsed, in the order of the range
checks. Once the keys are in range and there are as many rows as cells,
a file in export order, checked a block of rows at a time, is returned in
its value buffer itself. A file in any other order takes one stable sort
by its keys, which names its first repeated row or, with none, gives the
order its values are taken in. At its peak, reading an export holds the
values as read and the narrow keys.
Its converters are the plain ``float`` and ``int`` a row-wise parser would
apply, so it accepts exactly the files such a parser accepts.
"""

from __future__ import annotations

import math
import mmap
import operator
import os
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .criteria import weighted_sum
from .csvio import IntKey, line_number, quote, read_csv, write_lines
from .fleet import FleetSpec

__all__ = [
    "ScenarioSet",
    "PricingInputs",
    "sample_gamma",
    "sample_truncated_normal",
    "cell_stream",
    "generate_scenarios",
    "sample_pricing_inputs",
    "write_scenario_csvs",
    "read_scenario_csvs",
    "SCENARIO_LIMIT",
]

# A scenario set has fewer scenarios than this: the sampler hashes a
# scenario index as one uint32 word (:func:`_cell_seed_words`), and the
# reader keeps scenario keys as uint32.
SCENARIO_LIMIT = 2**32

# Rejection attempts before switching to inverse-CDF sampling. The study
# profile keeps truncation mass tiny, so the fallback almost never fires,
# but it guarantees termination for far-tail parameter choices.
_MAX_REJECTS = 256


def _normal_quantile(p: float) -> float:
    """The standard normal quantile function (Wichura's AS241 algorithm).

    ``statistics``, and the ``fractions`` and ``decimal`` modules it
    loads, are imported on the first call: only the sampler's far-tail
    branch makes one."""
    from statistics import NormalDist

    return NormalDist().inv_cdf(p)


# numpy's SeedSequence: pool size, hash constants and the xorshift of its
# hashmix/mix steps (numpy/random/bit_generator.pyx, after M. E. O'Neill's
# randutils seed_seq_fe).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64) and its modulus mask.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


# Scenarios per chunk of an asset's usage rows: the sampler draws, scales
# and checks the rows a chunk at a time, and the usage mean adds one term
# per chunk. The lean sampler's (min(256, S), T) float64 buffer is 24 KiB
# at T = 12.
_CHUNK = 256
# Cells per group of the sampler's stream derivation, at least: a group's
# seed words and PCG64 states, about 300 bytes per cell at their peak, are
# derived at once, so the sampler's memory does not grow with N or S.
_GROUP = 512

# The exported CSV columns.
_USAGE_COLUMNS = ("asset_id", "scenario", "period", "usage_increment")
_RUL_COLUMNS = ("asset_id", "scenario", "latent_rul")
# The array type of the reader's scenario keys: uint32.
_SCENARIO_KEY = np.min_scalar_type(SCENARIO_LIMIT - 1).char
# Rows per block of the reader's export-order check and value check.
_CHECK_BLOCK = 8192


def _freeze(record, **arrays: np.ndarray) -> None:
    """Set each array read-only and store it on the frozen ``record``."""
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(record, name, arr)


@dataclass(frozen=True)
class PricingInputs:
    """What pricing and the policies read of a scenario set: the latent
    RUL sample and the usage mean, every scenario equally likely.

    :func:`sample_pricing_inputs` draws it without holding the (N, S, T)
    usage increments; a :class:`ScenarioSet` is one that holds them too.
    The scenario count S and the weights follow from the arrays.

    Attributes:
        latent_rul: shape (N, S) with S >= 1, nonnegative.
        usage_mean: shape (N, T), the scenario mean of the usage
            increments, finite and nonnegative.
    """

    latent_rul: np.ndarray
    usage_mean: np.ndarray

    def __post_init__(self) -> None:
        rul = np.asarray(self.latent_rul, dtype=float)
        mean = np.asarray(self.usage_mean, dtype=float)
        if rul.ndim != 2:
            raise ValueError(f"latent_rul must have shape (N, S), got {rul.shape}")
        if rul.shape[1] < 1:
            raise ValueError("n_scenarios must be >= 1")
        if mean.ndim != 2 or mean.shape[0] != rul.shape[0]:
            raise ValueError(f"usage_mean must have shape ({rul.shape[0]}, T), got {mean.shape}")
        # written so that NaN fails each test: min() and max() return NaN if any value is,
        # and every comparison with NaN is False; their initial values pass an empty array
        if not (rul.min(initial=np.inf) >= 0 and rul.max(initial=-np.inf) < np.inf):
            raise ValueError("latent RUL values must be finite and >= 0")
        if not (mean.min(initial=np.inf) >= 0 and mean.max(initial=-np.inf) < np.inf):
            raise ValueError("the usage mean must be finite and >= 0")
        _freeze(self, latent_rul=rul, usage_mean=mean)

    @property
    def n_scenarios(self) -> int:
        return self.latent_rul.shape[1]

    @cached_property
    def weights(self) -> np.ndarray:
        """The read-only weight 1/S of each scenario, shape (S,), built on
        first read and shared by every later one."""
        w = np.full(self.n_scenarios, 1.0 / self.n_scenarios)
        w.setflags(write=False)
        return w

    @property
    def n_assets(self) -> int:
        return self.latent_rul.shape[0]

    @property
    def horizon(self) -> int:
        return self.usage_mean.shape[1]


@dataclass(frozen=True, init=False)
class ScenarioSet(PricingInputs):
    """Frozen scenario data for one fleet: its pricing inputs and every
    usage increment they were taken from.

    The set does not record how it was made: the run config, echoed in
    ``run_meta.json``, holds the seed of a sampled set. The usage mean is
    computed once, chunk by chunk by the rule the sampler applies
    (:func:`~fleetmaint.criteria.weighted_sum`, :func:`_usage_mean`), so
    a sampled set's mean is the same bits as :func:`sample_pricing_inputs`
    gives.

    Attributes:
        usage_increments: shape (N, S, T) with S >= 1, strictly positive.
    """

    usage_increments: np.ndarray

    def __init__(self, usage_increments: np.ndarray, latent_rul: np.ndarray) -> None:
        inc = np.asarray(usage_increments, dtype=float)
        rul = np.asarray(latent_rul, dtype=float)
        if inc.ndim != 3:
            raise ValueError(f"usage_increments must have shape (N, S, T), got {inc.shape}")
        if inc.shape[1] < 1:
            raise ValueError("n_scenarios must be >= 1")
        if rul.shape != inc.shape[:2]:
            raise ValueError(f"latent_rul must have shape {inc.shape[:2]}, got {rul.shape}")
        if not (inc.min(initial=np.inf) > 0 and inc.max(initial=-np.inf) < np.inf):  # as above
            raise ValueError("usage increments must be finite and > 0")
        n, s, t = inc.shape
        terms = np.empty((n, -(-s // _CHUNK), t))
        for i, k in np.ndindex(terms.shape[:2]):
            weighted_sum(inc[i, k * _CHUNK:(k + 1) * _CHUNK].T, 1.0 / s, out=terms[i, k])
        super().__init__(rul, _usage_mean(terms))
        _freeze(self, usage_increments=inc)


def _usage_mean(terms: np.ndarray) -> np.ndarray:
    """The (N, T) usage mean from the (N, K, T) terms of each asset's K
    chunks, each period's K terms added, in scenario order, by numpy's
    pairwise summation over a contiguous copy."""
    return np.ascontiguousarray(terms.transpose(0, 2, 1)).sum(axis=2)


def _size_error(what: str, nbytes: int, n: int, s: int, t: int) -> MemoryError:
    """The error for an allocation of ``nbytes`` for ``what`` that failed,
    naming N, S and T and the config keys that set them."""
    return MemoryError(
        f"cannot allocate {nbytes:,} bytes for the {what} of N={n} assets,"
        f" S={s} scenarios and T={t} periods (config keys fleet.n_assets,"
        f" scenarios.n_scenarios and fleet.horizon)"
    )


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
    when cv is zero: the point mass at the mean, which takes no draws. A
    cv so small that the shape 1/cv^2 is not finite is a ValueError."""
    if mean <= 0:
        raise ValueError("mean must be > 0")
    if not 0.0 <= cv < 1.0:
        raise ValueError("cv must lie in [0, 1)")
    if cv == 0.0:
        return None
    square = cv * cv
    if not (square > 0.0 and 1.0 / square < math.inf):
        raise ValueError(f"cv {cv!r} is too small: the gamma shape 1/cv**2 is not finite")
    return 1.0 / square, mean * cv * cv


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


def _hash_constants(start: int, mult: int):
    """The (current, next) hash constant pairs of SeedSequence's hashmix."""
    const = start
    while True:
        following = (const * mult) & _MASK32
        yield const, following
        const = following


def _cell_seed_words(seed: int, n_scenarios: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(i, w)).generate_state(4, uint64)``
    for every cell start..stop-1, cell c being (i, w) = divmod(c,
    n_scenarios), as a (stop - start, 4) uint64 array.

    The entropy of a cell is the seed's words, zero-padded to the pool size,
    then i and w, one word each: both stay below :data:`SCENARIO_LIMIT`,
    2**32, which the config and :func:`_map_draws` check for S and this checks
    for i (a ValueError). The seed's words are the same for every cell, so
    numpy's ``SeedSequence(seed)`` mixes them: its ``pool`` is every cell's
    pool before i and w. The hash constant goes on from the step that
    mixing ended on, 4 steps per word of the seed zero-padded to the pool
    size: 4 fill the pool, 12 cross-mix it, and each word past the fourth
    takes 4. Each of i and w is then mixed into the four pool words by one
    pass over a (4, cells) uint32 array, whose products wrap modulo 2^32 as
    the reference's do, and the state is generated from the pool.
    """
    if (stop - 1) // n_scenarios >= SCENARIO_LIMIT:
        raise ValueError(f"asset index {(stop - 1) // n_scenarios} is not below 2**32")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    steps = _POOL_SIZE * max(_POOL_SIZE, -(-seed.bit_length() // 32))

    def hashmix(value, consts):
        # one constant pair per pool word, in rows
        pairs = [next(consts) for _ in range(_POOL_SIZE)]
        const, following = np.array(pairs, np.uint32).T[:, :, None]
        value = (value ^ const) * following & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x, y):
        result = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
        return result ^ result >> _XSHIFT

    consts = _hash_constants(_INIT_A * pow(_MULT_A, steps, 1 << 32) & _MASK32, _MULT_A)
    pool = np.random.SeedSequence(seed).pool[:, None]
    for key in np.divmod(np.arange(start, stop, dtype=np.uint64), n_scenarios):
        pool = mix(pool, hashmix(key.astype(np.uint32), consts))

    consts = _hash_constants(_INIT_B, _MULT_B)
    state = np.concatenate([hashmix(pool, consts), hashmix(pool, consts)]).T
    return np.ascontiguousarray(state).view("<u8").astype(np.uint64)


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


@dataclass(frozen=True)
class _Draws:
    """Where the sampler puts its draws.

    ``rul`` (N, S) takes the latent RULs, ``terms`` (N, K, T) each of the K
    chunks' term of the usage mean, and ``valid`` (N, K) for each chunk 1
    if its increments are all finite and > 0, plus 2 if its latent RULs
    are all finite. ``usage`` (N, S, T), when present, takes every
    increment; without it each chunk's rows are drawn into ``buffer``, a
    (min(``_CHUNK``, S), T) array. All but ``buffer`` are views of one
    shared map; each forked worker writes its own copy of ``buffer``.
    """

    rul: np.ndarray
    terms: np.ndarray
    valid: np.ndarray
    usage: np.ndarray | None
    buffer: np.ndarray | None


@np.errstate(over="ignore")  # once per call: each chunk's scaling may overflow
def _sample_cells(
    fleet: FleetSpec, seed: int, draws: _Draws, start: int, stop: int, parent: int | None = None
) -> None:
    """Draw cells start..stop-1, counted in (asset, scenario) order, into
    ``draws``; both bounds lie on chunk bounds within their asset.

    The cells are taken in groups of whole chunks, at least ``_GROUP``
    cells or up to ``stop``, which may span several assets; the seed
    words and PCG64 states of a group's cells come in one array pass
    each. Each cell's state is set on one reused generator from one
    reused dict, and its standard gammas go straight into its row of the
    chunk: a view of ``draws.usage``, or ``draws.buffer`` without it.
    Each chunk is then scaled (numpy's gamma is ``scale * standard_gamma``,
    the same multiply of each value whatever the chunk), an overflow to
    infinity left to the validity flags, and its term of the usage mean
    stored.

    A forked worker is given, as ``parent``, the pid of the process that
    forked it. Before each group it ends in ``os._exit(1)`` if that
    process is no longer its parent: nothing is left to read its draws,
    so a killed run leaves no worker drawing for more than one group.
    """
    n_scenarios = draws.rul.shape[1]
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    # The state setter copies the values out, so one dict serves every cell.
    cell = {"state": 0, "inc": 0}
    generator_state = {"bit_generator": "PCG64", "state": cell, "has_uint32": 0, "uinteger": 0}
    end = start
    while end < stop:
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        begin, chunks = end, []
        while end < stop and end - begin < _GROUP:
            i, first = divmod(end, n_scenarios)
            last = min(first + _CHUNK, n_scenarios)
            chunks.append((i, first, last))
            end += last - first
        states = zip(*_pcg64_states(_cell_seed_words(seed, n_scenarios, begin, end)))
        for i, first, last in chunks:
            asset = fleet.assets[i]
            gamma = _gamma_params(asset.usage_mean_per_period, asset.usage_cv)
            rows = draws.buffer[:last - first] if draws.usage is None else draws.usage[i, first:last]
            for w in range(first, last):
                cell["state"], cell["inc"] = next(states)
                bit_generator.state = generator_state
                if gamma is not None:
                    rng.standard_gamma(gamma[0], out=rows[w - first])
                draws.rul[i, w] = sample_truncated_normal(asset.rul_mean, asset.rul_std, 0.0, rng)
            if gamma is None:
                rows[:] = asset.usage_mean_per_period
            else:
                rows *= gamma[1]
            k, rul = first // _CHUNK, draws.rul[i, first:last]
            # written so that NaN fails each test: min() and max() return NaN if any value is
            usage_ok = rows.min() > 0 and rows.max() < np.inf
            rul_ok = rul.min() >= 0 and rul.max() < np.inf
            draws.valid[i, k] = int(usage_ok) | int(rul_ok) << 1
            weighted_sum(rows.T, 1.0 / n_scenarios, out=draws.terms[i, k])


def _fork_block(*args) -> int:
    """Run ``_sample_cells(*args, parent)`` in a forked child, ``parent``
    being the caller's pid; return the child's pid.

    The child never returns into the caller's code: it ends in
    ``os._exit``, with status 0 once the block is drawn, or 1 after
    printing the traceback to stderr if anything at all was raised, or
    once the caller is gone (:func:`_sample_cells`).
    """
    parent = os.getpid()
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        _sample_cells(*args, parent)
        status = 0
    except BaseException:  # not re-raised: unwinding would run the caller's code twice
        sys.__excepthook__(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(status)


def _map_draws(n: int, n_scenarios: int, t: int, usage: bool) -> _Draws:
    """Unfilled draws for N assets, S scenarios and T periods, with room
    for every usage increment only if ``usage`` is true.

    The arrays of :class:`_Draws`, but for its chunk buffer, are views of
    one shared anonymous memory map. Only the sizes are read, so a caller
    can check that the draws can be held before it builds the fleet, and
    drop them: mapping touches no page of the map. A scenario count of
    :data:`SCENARIO_LIMIT` or more is named with the limit before anything
    is mapped; a map or chunk buffer that cannot be allocated raises a
    MemoryError naming N, S and T.
    """
    if n_scenarios < 1:
        raise ValueError("n_scenarios must be >= 1")
    if n_scenarios >= SCENARIO_LIMIT:
        raise ValueError(f"n_scenarios must be below {SCENARIO_LIMIT} (2**32)")
    chunks = -(-n_scenarios // _CHUNK)
    shapes = [(n, n_scenarios), (n, chunks, t)] + ([(n, n_scenarios, t)] if usage else [])
    offsets = [0]
    for shape in shapes:
        offsets.append(offsets[-1] + math.prod(shape) * 8)
    nbytes = offsets[-1] + n * chunks
    try:
        shared = mmap.mmap(-1, nbytes)
    except (OSError, OverflowError):
        raise _size_error("scenario draws", nbytes, n, n_scenarios, t) from None
    arrays = [
        np.frombuffer(shared, np.float64, math.prod(shape), offset).reshape(shape)
        for shape, offset in zip(shapes, offsets)
    ]
    valid = np.frombuffer(shared, np.uint8, n * chunks, offsets[-1]).reshape(n, chunks)
    rows = min(_CHUNK, n_scenarios)
    try:
        buffer = None if usage else np.empty((rows, t))
    except MemoryError:
        raise _size_error("usage chunk buffer", rows * t * 8, n, n_scenarios, t) from None
    return _Draws(arrays[0], arrays[1], valid, arrays[2] if usage else None, buffer)


def _draw(fleet: FleetSpec, n_scenarios: int, seed: int, workers: int, usage: bool) -> _Draws:
    """Sample every cell of the fleet into draws mapped here by
    :func:`_map_draws`, keeping every usage increment only if ``usage``
    is true.

    The N*K (asset, chunk) pairs are split, in order, into
    ``min(workers, usable CPUs, N*K)`` contiguous blocks. The caller
    samples the first block itself and forks one child process per other
    block. Every child is reaped before this returns or raises, and a
    child that fails raises a RuntimeError naming its block. A child
    whose parent dies exits within one seed group. With one block, or
    where ``os.fork`` does not exist, nothing is forked. The draws never
    depend on ``workers``. Once every block is drawn, the first asset
    with an increment that is not finite and > 0 is named in a
    ValueError, and then the first with a latent RUL that is not finite.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    draws = _map_draws(fleet.n_assets, n_scenarios, fleet.horizon, usage)
    n, chunks = draws.valid.shape
    units = n * chunks
    blocks = min(workers, _usable_cpus(), units) if hasattr(os, "fork") else 1
    # the first cell of each block's first (asset, chunk) pair
    bounds = []
    for b in range(blocks + 1):
        i, k = divmod(units * b // blocks, chunks)
        bounds.append(i * n_scenarios + k * _CHUNK)
    children: dict[int, int] = {}
    try:
        for b in range(1, blocks):
            children[_fork_block(fleet, seed, draws, bounds[b], bounds[b + 1])] = b
        _sample_cells(fleet, seed, draws, bounds[0], bounds[1])
    finally:
        statuses = {b: os.waitpid(pid, 0)[1] for pid, b in children.items()}
    for b, status in statuses.items():
        if status:
            raise RuntimeError(
                f"scenario sampling worker for block {b} of {blocks} (cells"
                f" {bounds[b]}..{bounds[b + 1] - 1}) exited with status"
                f" {os.waitstatus_to_exitcode(status)}"
            )
    for flag, message in ((1, "usage increments must be finite and > 0"),
                          (2, "latent RUL values must be finite and >= 0")):
        bad = np.flatnonzero(~(draws.valid & flag).all(axis=1))
        if bad.size:
            raise ValueError(f"asset {fleet.assets[bad[0]].id!r}: {message}")
    return draws


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

    ``workers`` processes sample the cells (:func:`_draw`); the result
    never depends on it. The shared memory map they were drawn into
    backs the returned arrays.
    """
    draws = _draw(fleet, n_scenarios, seed, workers, True)
    return ScenarioSet(usage_increments=draws.usage, latent_rul=draws.rul)


def sample_pricing_inputs(
    fleet: FleetSpec, n_scenarios: int, seed: int, workers: int = 1
) -> PricingInputs:
    """The latent RULs and the usage mean of ``generate_scenarios(fleet,
    n_scenarios, seed)``, sampled without holding its (N, S, T) usage
    increments.

    Every gamma is still drawn, since each cell's RUL draw follows them
    in its stream, but only into one reused chunk buffer. Both arrays are
    the same bits as the full set's ``latent_rul`` and ``usage_mean`` for
    every ``workers``. The RULs stay in the shared map they were drawn
    into.
    """
    draws = _draw(fleet, n_scenarios, seed, workers, False)
    return PricingInputs(latent_rul=draws.rul, usage_mean=_usage_mean(draws.terms))


def write_scenario_csvs(scenarios: ScenarioSet, fleet: FleetSpec, usage_path, rul_path) -> None:
    """Export a scenario set to two CSV files.

    Usage rows are (asset_id, scenario, period, usage_increment) with
    1-based periods; RUL rows are (asset_id, scenario, latent_rul). Values
    are written with 17 significant digits so float64 data round-trips
    exactly. The set must have the fleet's asset count and horizon.

    The bytes are those of ``csv.writer`` on the same rows, rendered a
    block of ``_CHUNK`` scenarios of one asset at a time. Each block's
    rows have one template, ",scenario,period,%.17g" rows joined by
    "\\n", built once per file. The asset's id, quoted by
    :func:`fleetmaint.csvio.quote` with ``%`` escaped, is spliced in front
    of every row of it by one ``replace``, and the block's values fill the
    result with one ``%``. So beyond the set, the writer holds the
    templates (about 14 bytes per scenario and period) and one block. For
    finite floats ``"%.17g" % x`` is ``format(x, ".17g")``.
    """
    if scenarios.n_assets != fleet.n_assets or scenarios.horizon != fleet.horizon:
        raise ValueError("scenario set shape does not match the fleet")
    n_scenarios, periods = scenarios.n_scenarios, range(1, scenarios.horizon + 1)
    firsts = range(0, n_scenarios, _CHUNK)

    def blocks(values, row):
        templates = ["\n".join(map(row, range(w, min(w + _CHUNK, n_scenarios)))) for w in firsts]
        for asset, cells in zip(fleet.assets, values):
            asset_id = quote(asset.id).replace("%", "%%")
            for w, template in zip(firsts, templates):
                rows = asset_id + template.replace("\n", "\n" + asset_id) + "\n"
                yield rows % tuple(cells[w:w + _CHUNK].ravel().tolist())

    def usage_row(w):
        return "\n".join(f",{w},{k},%.17g" for k in periods)

    write_lines(usage_path, _USAGE_COLUMNS, blocks(scenarios.usage_increments, usage_row))
    write_lines(rul_path, _RUL_COLUMNS, blocks(scenarios.latent_rul, ",{},%.17g".format))


def _read_columns(name: str, path, columns: dict, index: dict) -> list[np.ndarray]:
    """A scenario file's columns in file order: fleet indices, the keys in
    the types of their :class:`fleetmaint.csvio.IntKey`, float64 values.

    :func:`fleetmaint.csvio.read_csv` hands over each chunk's columns as
    typed arrays, each appended to the file's buffer of that column by one
    ``extend``; the asset ids are mapped to fleet indices, held in the
    narrowest unsigned type that fits the fleet. No Python code runs once
    per row.
    """
    keys = list(columns.values())[1:-1]
    typecodes = [np.min_scalar_type(len(index) - 1).char, *(k.typecode for k in keys), "d"]
    buffers = [array(typecode) for typecode in typecodes]
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


def _first_outside(spec: IntKey, key: np.ndarray, low: int, high: int) -> int | None:
    """The first key of a file, in file order, outside low..high, as the
    file gives it; None if every key is inside.

    A field that did not fit the key's type, kept by ``spec``, is outside;
    ``key`` holds 0 in its row.
    """
    found = [kept for kept in (spec.below, spec.above) if kept]
    if key.size and not low <= int(key.min()) <= int(key.max()) <= high:
        row = int(np.flatnonzero((key < low) | (key > high))[0])
        found.append((row, int(key[row])))
    # min keeps the first of equal rows: a kept field over the 0 in its row.
    return min(found, key=lambda kept: kept[0])[1] if found else None


def _in_export_order(keys: list, shape: tuple) -> bool:
    """Whether row r of a file with one row per cell of ``shape`` names
    cell r, the order :func:`write_scenario_csvs` writes.

    The flat cell index is formed and compared a block of rows at a time,
    so no index of the whole file is held.
    """
    n_rows = keys[0].size
    for lo in range(0, n_rows, _CHECK_BLOCK):
        hi = min(lo + _CHECK_BLOCK, n_rows)
        flat = keys[0][lo:hi].astype(np.int64)
        for key, size in zip(keys[1:], shape[1:]):
            flat *= size
            flat += key[lo:hi]
        if not np.array_equal(flat, np.arange(lo, hi)):
            return False
    return True


def _cell_values(fleet: FleetSpec, name: str, path, keys: list, values, label: str, bound, shape):
    """A scenario file's values in (asset, scenario[, period]) order, as ``shape``.

    ``keys`` are the file's asset, scenario [and period] columns, each
    counted from 0 and within its axis of ``shape``. When there are as many
    rows as cells and they are in export order (:func:`_in_export_order`),
    ``values`` itself is the result. Any other file takes one stable sort
    by the keys, which names the first row in file order that repeats a
    cell; with no repeat, a file with as many rows as cells is its values
    taken in sorted order, and any other reports missing cells. Every value
    must be finite and meet ``bound``, a (comparison against 0, its text)
    pair; the first that does not, in cell order, is named with its cell.
    The values are checked a block at a time.
    """
    key_names = ("asset", "scenario", "period")[: len(keys)]

    def cell(index) -> str:
        asset, scenario, *period = map(int, index)
        text = f"asset {fleet.assets[asset].id!r} scenario {scenario}"
        return text + "".join(f" period {k + 1}" for k in period)

    if values.size == math.prod(shape) and _in_export_order(keys, shape):
        placed = values.reshape(shape)
    else:
        order = np.lexsort(keys[::-1])
        same = np.ones(max(order.size - 1, 0), dtype=bool)
        for key in keys:
            ordered = key[order]
            same &= ordered[1:] == ordered[:-1]
        if same.any():
            row = order[1:][same].min()
            raise ValueError(f"{name} repeats {cell(key[row] for key in keys)}: {path}")
        if order.size != math.prod(shape):
            raise ValueError(f"{name} does not cover every ({', '.join(key_names)}) cell: {path}")
        placed = values[order].reshape(shape)
    compare, bound_text = bound
    flat = placed.reshape(-1)
    for lo in range(0, flat.size, _CHECK_BLOCK):
        block = flat[lo:lo + _CHECK_BLOCK]
        bad = np.flatnonzero(~(np.isfinite(block) & compare(block, 0.0)))
        if bad.size:
            value, where = float(block[bad[0]]), cell(np.unravel_index(lo + bad[0], shape))
            if not math.isfinite(value):
                raise ValueError(f"{name} {path}: non-finite {label} {value!r} for {where}")
            raise ValueError(f"{name} {path}: {label} {value!r} for {where} must be {bound_text}")
    return placed


def _read_usage(fleet: FleetSpec, index: dict, path) -> np.ndarray:
    """The (N, S, T) usage increments of a usage file."""
    n, t = fleet.n_assets, fleet.horizon
    scenario, period = IntKey(_SCENARIO_KEY), IntKey(np.min_scalar_type(t).char)
    columns = dict(zip(_USAGE_COLUMNS, (str, scenario, period, float)))
    *keys, values = _read_columns("usage file", path, columns, index)
    if scenario.below:
        raise ValueError(f"usage file scenario {scenario.below[1]} is negative: {path}")
    outside = _first_outside(period, keys[2], 1, t)
    if outside is not None:
        raise ValueError(f"usage file period {outside} outside 1..{t}: {path}")
    if scenario.above:
        raise ValueError(
            f"usage file scenario {scenario.above[1]} is not below {SCENARIO_LIMIT},"
            f" the limit on scenarios (2**32): {path}"
        )
    if values.size == 0:
        raise ValueError(f"usage file contains no scenarios: {path}")
    keys[2] -= 1  # every key counts from 0 from here on
    return _cell_values(
        fleet, "usage file", path, keys, values, "usage increment", (np.greater, "> 0"),
        (n, int(keys[1].max()) + 1, t),
    )


def _read_rul(fleet: FleetSpec, index: dict, path, n_scenarios: int) -> np.ndarray:
    """The (N, S) latent RULs of a RUL file, S given by the usage file."""
    scenario = IntKey(_SCENARIO_KEY)
    columns = dict(zip(_RUL_COLUMNS, (str, scenario, float)))
    *keys, values = _read_columns("RUL file", path, columns, index)
    outside = _first_outside(scenario, keys[1], 0, n_scenarios - 1)
    if outside is not None:
        raise ValueError(f"RUL file scenario {outside} outside 0..{n_scenarios - 1}: {path}")
    return _cell_values(
        fleet, "RUL file", path, keys, values, "latent RUL", (np.greater_equal, ">= 0"),
        (fleet.n_assets, n_scenarios),
    )


def read_scenario_csvs(fleet: FleetSpec, usage_path, rul_path) -> ScenarioSet:
    """Rebuild an equally weighted scenario set from exported CSVs.

    Every (asset, scenario, period) cell must be present exactly once, and
    every RUL row must name a scenario the usage file defines; missing,
    duplicate, negative or out-of-range entries raise a ValueError naming
    the file, as does a value ``ScenarioSet`` would refuse: a non-finite
    one (``inf`` or ``nan``), a usage increment <= 0 or a negative latent
    RUL, named with the first bad cell in (asset, scenario, period) order.
    A scenario of :data:`SCENARIO_LIMIT` (2**32) or more is named with the
    limit. The files are read by :func:`fleetmaint.csvio.read_csv` with the
    columns :func:`write_scenario_csvs` writes; a row that does not parse,
    or names an asset outside the fleet, is named with its line. The whole
    file is parsed before any key is range-checked.

    Memory: each key is held as it streams in, in the narrowest unsigned
    type its bound allows (the asset index by N, the period by T, the
    scenario as uint32), and the values as float64. A file in export order
    is returned in that value buffer itself; any other order pays for the
    sort's int64 row order and a sorted copy. No array is sized by a
    scenario index before the rows are known to cover every cell.
    """
    index = {a.id: i for i, a in enumerate(fleet.assets)}
    inc = _read_usage(fleet, index, usage_path)
    rul = _read_rul(fleet, index, rul_path, inc.shape[1])
    return ScenarioSet(usage_increments=inc, latent_rul=rul)
