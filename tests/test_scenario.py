"""Samplers, scenario generation, substream determinism, CSV round-trips."""

import csv
import io
import math
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fleetmaint import csvio, scenario
from fleetmaint.fleet import FleetSpec
from fleetmaint.optimize import build_matrix
from fleetmaint.policies import rul_threshold, usage_only
from fleetmaint.scenario import (
    SCENARIO_LIMIT,
    PricingInputs,
    ScenarioSet,
    _cell_seed_words,
    _pcg64_states,
    cell_stream,
    generate_scenarios,
    read_scenario_csvs,
    sample_gamma,
    sample_pricing_inputs,
    sample_truncated_normal,
    write_scenario_csvs,
)
from helpers import make_asset, make_fleet

# One- to five-word seeds. The pool holds four words: shorter seeds are
# zero-padded, and a five-word seed mixes its fifth word in before the
# spawn key, four hash steps later. 2**128 - 1 and 2**128 sit on that
# boundary; numpy integers are seeds as their values are.
SEEDS = [
    0, 1, 2**32 - 1, 2**32, 2**70 + 5, 2**130 + 7,
    2**96, 2**128 - 1, 2**128, np.int64(3), np.uint64(2**64 - 1),
]

# Asset kinds for the property test. "wide" keeps 49% of its RUL mass below
# zero, so with one rejection allowed about half its cells take the
# inverse-CDF fallback of sample_truncated_normal.
ASSET_KINDS = {
    "typical": {},
    "zero_cv": {"usage_cv": 0.0},
    "wide": {"rul_mean": 0.5, "rul_std": 20.0},
}


def oracle_scenarios(fleet, n_scenarios, seed):
    """Each cell drawn from its own cell_stream, in turn."""
    inc = np.empty((fleet.n_assets, n_scenarios, fleet.horizon))
    rul = np.empty((fleet.n_assets, n_scenarios))
    for i, asset in enumerate(fleet.assets):
        for w in range(n_scenarios):
            rng = cell_stream(seed, i, w)
            inc[i, w] = sample_gamma(
                asset.usage_mean_per_period, asset.usage_cv, rng, size=fleet.horizon
            )
            rul[i, w] = sample_truncated_normal(asset.rul_mean, asset.rul_std, 0.0, rng)
    return inc, rul


def mixed_fleet(kinds, horizon):
    assets = tuple(
        make_asset(id=f"A{j + 1}", **ASSET_KINDS[kind]) for j, kind in enumerate(kinds)
    )
    return FleetSpec(assets=assets, horizon=horizon)


def fallbacks_when_generating(fleet, n_scenarios, seed):
    """Generate with one rejection allowed; check against the oracle bit for bit.

    Returns how many draws took the inverse-CDF fallback (its only quantile call).
    """
    with mock.patch.object(scenario, "_MAX_REJECTS", 1):
        with mock.patch.object(
            scenario, "_normal_quantile", wraps=scenario._normal_quantile
        ) as spy:
            s = generate_scenarios(fleet, n_scenarios, seed)
        inc, rul = oracle_scenarios(fleet, n_scenarios, seed)
    assert np.array_equal(s.usage_increments, inc)
    assert np.array_equal(s.latent_rul, rul)
    return spy.call_count


class TestSampleGamma:
    def test_zero_cv_is_point_mass(self):
        rng = np.random.default_rng(0)
        assert sample_gamma(12.0, 0.0, rng) == 12.0
        assert sample_gamma(12.0, 0.0, rng, size=4).tolist() == [12.0] * 4
        assert rng.uniform() == np.random.default_rng(0).uniform()  # no draws taken

    def test_invalid_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_gamma(0.0, 0.2, rng)
        with pytest.raises(ValueError):
            sample_gamma(10.0, 1.0, rng)
        with pytest.raises(ValueError):
            sample_gamma(10.0, -0.2, rng)

    @pytest.mark.parametrize("cv", [1e-200, 1e-158], ids=["square-underflows", "shape-overflows"])
    def test_cv_with_no_finite_shape_rejected(self, cv):
        message = r"^cv .* is too small: the gamma shape 1/cv\*\*2 is not finite$"
        with pytest.raises(ValueError, match=message):
            sample_gamma(12.0, cv, np.random.default_rng(0))

    def test_small_cv_with_a_finite_shape_draws(self):
        draws = sample_gamma(12.0, 1e-150, np.random.default_rng(0), size=4)
        assert np.all(np.isfinite(draws))
        assert draws == pytest.approx(12.0, rel=1e-12)

    def test_moments_match_at_scale(self):
        rng = np.random.default_rng(42)
        draws = np.array([sample_gamma(16.0, 0.25, rng) for _ in range(100_000)])
        mean = draws.mean()
        cv = draws.std(ddof=1) / mean
        assert 15.84 <= mean <= 16.16
        assert 0.2375 <= cv <= 0.2625
        assert np.all(draws > 0)

    def test_same_stream_same_draws(self):
        a = [sample_gamma(16.0, 0.25, np.random.default_rng(7)) for _ in range(1)]
        b = [sample_gamma(16.0, 0.25, np.random.default_rng(7)) for _ in range(1)]
        assert a == b

    def test_sized_draws_equal_scalar_draws(self):
        rng = np.random.default_rng(7)
        scalars = [sample_gamma(16.0, 0.25, rng) for _ in range(12)]
        sized = sample_gamma(16.0, 0.25, np.random.default_rng(7), size=12)
        assert sized.shape == (12,)
        assert sized.tolist() == scalars


class TestSampleTruncatedNormal:
    def test_zero_std_is_point_mass(self):
        rng = np.random.default_rng(0)
        assert sample_truncated_normal(5.0, 0.0, 0.0, rng) == 5.0

    def test_zero_std_below_bound_rejected(self):
        with pytest.raises(ValueError):
            sample_truncated_normal(-1.0, 0.0, 0.0, np.random.default_rng(0))

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            sample_truncated_normal(5.0, -1.0, 0.0, np.random.default_rng(0))

    def test_bounded_and_unbiased_at_scale(self):
        rng = np.random.default_rng(9)
        draws = np.array(
            [sample_truncated_normal(8.0, 1.5, 0.0, rng) for _ in range(100_000)]
        )
        assert np.all(draws >= 0)
        assert 7.92 <= draws.mean() <= 8.08

    def test_far_tail_parameters_terminate(self):
        # nearly all mass truncated away: the rejection loop gives up and the
        # inverse-CDF fallback must still produce valid, deterministic draws
        draws = [
            sample_truncated_normal(-20.0, 1.0, 0.0, np.random.default_rng(s))
            for s in range(20)
        ]
        assert all(d >= 0 for d in draws)
        again = [
            sample_truncated_normal(-20.0, 1.0, 0.0, np.random.default_rng(s))
            for s in range(20)
        ]
        assert draws == again

    @pytest.mark.parametrize("mean", [-38.0, -45.0])
    def test_underflowing_tail_mass_gives_finite_draws(self, mean):
        # the upper-tail mass above a = 38 is subnormal and above a = 45 it
        # is 0; the draw must stay a finite value at or above the bound
        draws = [
            sample_truncated_normal(mean, 1.0, 0.0, np.random.default_rng(s))
            for s in range(20)
        ]
        assert all(math.isfinite(d) and d >= 0.0 for d in draws)
        again = [
            sample_truncated_normal(mean, 1.0, 0.0, np.random.default_rng(s))
            for s in range(20)
        ]
        assert draws == again

    def test_fallback_tail_mass_and_quantile_match_scipy(self):
        special = pytest.importorskip("scipy.special")
        a = np.linspace(-40.0, 37.5, 2001)
        tail = [scenario._normal_upper_tail(x) for x in a]
        np.testing.assert_allclose(tail, special.ndtr(-a), rtol=1e-12, atol=0.0)
        p = np.logspace(-300.0, math.log10(0.5), 2001)
        quantile = [scenario._normal_quantile(x) for x in p]
        np.testing.assert_allclose(quantile, special.ndtri(p), rtol=1e-14, atol=1e-15)


class TestGenerateScenarios:
    def test_shapes_and_weights(self):
        fleet = make_fleet(n_assets=3, horizon=12)
        s = generate_scenarios(fleet, 50, seed=1)
        assert s.usage_increments.shape == (3, 50, 12)
        assert s.latent_rul.shape == (3, 50)
        assert s.weights.shape == (50,)
        assert np.all(s.weights == 1.0 / 50)
        assert abs(s.weights.sum() - 1.0) <= 1e-12
        with pytest.raises(ValueError):
            s.weights[0] = 0.5
        with pytest.raises(AttributeError):
            s.weights = np.full(50, 0.02)
        assert np.all(s.usage_increments > 0)
        assert np.all(s.latent_rul >= 0)

    def test_single_scenario_weight(self):
        fleet = make_fleet()
        s = generate_scenarios(fleet, 1, seed=4)
        assert s.weights.tolist() == [1.0]

    def test_bit_identical_reruns(self):
        fleet = make_fleet(n_assets=2, horizon=6)
        a = generate_scenarios(fleet, 40, seed=5)
        b = generate_scenarios(fleet, 40, seed=5)
        assert np.array_equal(a.usage_increments, b.usage_increments)
        assert np.array_equal(a.latent_rul, b.latent_rul)

    def test_seed_changes_data(self):
        fleet = make_fleet(n_assets=2, horizon=6)
        a = generate_scenarios(fleet, 40, seed=5)
        b = generate_scenarios(fleet, 40, seed=6)
        assert not np.array_equal(a.usage_increments, b.usage_increments)

    def test_cells_depend_only_on_seed_and_indices(self):
        # rebuild a handful of cells from their documented substreams, in a
        # scrambled order, and compare against the generated set
        fleet = make_fleet(n_assets=3, horizon=8)
        s = generate_scenarios(fleet, 30, seed=77)
        cells = [(2, 17), (0, 0), (1, 29), (2, 3), (0, 12)]
        for i, w in cells:
            asset = fleet.assets[i]
            rng = cell_stream(77, i, w)
            shape = 1.0 / asset.usage_cv**2
            scale = asset.usage_mean_per_period * asset.usage_cv**2
            incs = rng.gamma(shape, scale, size=8)
            rul = sample_truncated_normal(asset.rul_mean, asset.rul_std, 0.0, rng)
            assert np.array_equal(incs, s.usage_increments[i, w])
            assert rul == s.latent_rul[i, w]

    def test_prefix_stable_when_scenario_count_grows(self):
        fleet = make_fleet(n_assets=2, horizon=5)
        small = generate_scenarios(fleet, 20, seed=3)
        large = generate_scenarios(fleet, 40, seed=3)
        assert np.array_equal(small.usage_increments, large.usage_increments[:, :20])
        assert np.array_equal(small.latent_rul, large.latent_rul[:, :20])

    def test_empirical_moments_per_asset(self):
        fleet = make_fleet(n_assets=3, horizon=12)
        s = generate_scenarios(fleet, 10_000, seed=2)
        for i, asset in enumerate(fleet.assets):
            draws = s.usage_increments[i].ravel()
            mean = draws.mean()
            cv = draws.std(ddof=1) / mean
            assert abs(mean - asset.usage_mean_per_period) <= 0.02 * asset.usage_mean_per_period
            assert abs(cv - asset.usage_cv) <= 0.05 * asset.usage_cv

    def test_zero_cv_assets_get_constant_usage(self):
        fleet = make_fleet(n_assets=1, horizon=4, usage_cv=0.0)
        s = generate_scenarios(fleet, 10, seed=1)
        assert np.all(s.usage_increments == 15.0)

    def test_invalid_scenario_count(self):
        with pytest.raises(ValueError):
            generate_scenarios(make_fleet(), 0, seed=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            generate_scenarios(make_fleet(), 3, seed=-1)

    @pytest.mark.parametrize("sampler", [generate_scenarios, sample_pricing_inputs])
    @pytest.mark.parametrize("seed_type", [np.int64, np.uint64, np.int32])
    def test_numpy_integer_seed_is_its_value(self, sampler, seed_type):
        fleet = make_fleet(n_assets=2, horizon=4)
        a, b = sampler(fleet, 5, seed_type(3)), sampler(fleet, 5, 3)
        assert np.array_equal(a.latent_rul, b.latent_rul)
        assert np.array_equal(a.usage_mean, b.usage_mean)
        if sampler is generate_scenarios:
            assert np.array_equal(a.usage_increments, b.usage_increments)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kinds=st.lists(st.sampled_from(sorted(ASSET_KINDS)), min_size=1, max_size=3),
        n_scenarios=st.integers(min_value=1, max_value=40),
        horizon=st.integers(min_value=1, max_value=8),
        seed=st.one_of(
            st.integers(min_value=0, max_value=2**32 - 1),
            st.integers(min_value=2**32, max_value=2**160),
        ),
    )
    @example(kinds=["zero_cv", "wide", "typical"], n_scenarios=40, horizon=8, seed=2**130 + 7)
    def test_matches_cell_stream_oracle(self, kinds, n_scenarios, horizon, seed):
        fallbacks_when_generating(mixed_fleet(kinds, horizon), n_scenarios, seed)

    def test_oracle_check_covers_inverse_cdf_fallback(self):
        fleet = mixed_fleet(["wide", "zero_cv"], horizon=4)
        assert fallbacks_when_generating(fleet, 40, seed=2**70 + 5) > 0


@pytest.fixture()
def four_cpus(monkeypatch):
    """Let up to four sampling workers take effect whatever the host's CPU count."""
    monkeypatch.setattr(scenario, "_usable_cpus", lambda: 4)


@pytest.fixture()
def forks(monkeypatch):
    """The pids of the children forked through ``os.fork`` from this process."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def assert_same_draws(a, b):
    assert np.array_equal(a.usage_increments, b.usage_increments)
    assert np.array_equal(a.latent_rul, b.latent_rul)


class TestParallelSampling:
    """Blocks of cells sampled in forked workers give the same set, bit for bit."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_counts_match_cell_stream_oracle(self, workers, four_cpus, forks):
        # At three workers each block is one asset, so the wide asset's
        # inverse-CDF fallbacks run wholly in a forked child, which inherits
        # the patched _MAX_REJECTS.
        fleet = mixed_fleet(["zero_cv", "wide", "typical"], horizon=8)
        with mock.patch.object(scenario, "_MAX_REJECTS", 1):
            s = generate_scenarios(fleet, 40, 2**130 + 7, workers=workers)
            inc, rul = oracle_scenarios(fleet, 40, 2**130 + 7)
        assert np.array_equal(s.usage_increments, inc)
        assert np.array_equal(s.latent_rul, rul)
        assert len(forks) == workers - 1

    @pytest.mark.parametrize("workers", [2, 3])
    def test_blocks_split_inside_one_asset(self, workers, four_cpus, forks):
        # blocks are cut on chunk bounds: three chunks, the last a partial one
        fleet = mixed_fleet(["typical"], horizon=5)
        n_scenarios = 2 * scenario._CHUNK + 7
        one = generate_scenarios(fleet, n_scenarios, seed=11)
        split = generate_scenarios(fleet, n_scenarios, seed=11, workers=workers)
        assert_same_draws(split, one)
        assert len(forks) == workers - 1

    def test_more_workers_than_cells(self, four_cpus, forks):
        fleet = mixed_fleet(["wide"], horizon=3)
        one = generate_scenarios(fleet, 2, seed=4)
        assert_same_draws(generate_scenarios(fleet, 2, seed=4, workers=3), one)
        assert len(forks) <= 2 - 1

    def test_failed_worker_raises_once_and_is_reaped(
        self, four_cpus, monkeypatch, tmp_path, capfd
    ):
        sample_cells = scenario._sample_cells

        def fail_outside_first_block(fleet, seed, draws, start, stop, *parent):
            if start:
                raise ValueError("injected worker failure")
            sample_cells(fleet, seed, draws, start, stop, *parent)

        monkeypatch.setattr(scenario, "_sample_cells", fail_outside_first_block)
        fleet = mixed_fleet(["typical", "wide"], horizon=3)
        failure = r"block 1 of 2 \(cells 10\.\.19\) exited with status 1"
        with pytest.raises(RuntimeError, match=failure):
            generate_scenarios(fleet, 10, seed=1, workers=2)
        with open(tmp_path / "after_call", "a") as f:
            print(os.getpid(), file=f)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert (tmp_path / "after_call").read_text().split() == [str(os.getpid())]
        assert "ValueError: injected worker failure" in capfd.readouterr().err

    def test_failed_first_block_still_reaps_workers(self, four_cpus, monkeypatch):
        def fail_first_block(fleet, seed, draws, start, stop, *parent):
            if not start:
                raise ValueError("injected failure in the first block")

        monkeypatch.setattr(scenario, "_sample_cells", fail_first_block)
        with pytest.raises(ValueError, match="first block"):
            generate_scenarios(make_fleet(n_assets=2, horizon=3), 10, seed=1, workers=3)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_whose_parent_is_gone_exits_before_drawing(self):
        # a block handed a pid that is not its parent's draws no group
        draws = scenario._map_draws(2, 10, 3, True)
        pid = os.fork()
        if not pid:
            try:
                fleet = make_fleet(n_assets=2, horizon=3)
                scenario._sample_cells(fleet, 1, draws, 0, 20, os.getppid() + 1)
            finally:
                os._exit(0)
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 1
        assert not draws.valid.any()
        assert not draws.usage.any()

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            generate_scenarios(make_fleet(), 3, seed=1, workers=0)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "n_assets, n_scenarios, first_groups",
        # S=1: a group is 512 assets; S=300: the first group's third chunk is
        # asset 1's first, so the second group starts inside asset 1
        [(2 * 512 + 3, 1, [(0, 512), (512, 1024)]), (3, 300, [(0, 556), (556, 900)])],
        ids=["groups-of-assets", "group-inside-an-asset"],
    )
    def test_groups_match_cell_stream_oracle(
        self, n_assets, n_scenarios, first_groups, workers, four_cpus, monkeypatch
    ):
        groups = []
        seed_words = scenario._cell_seed_words

        def spy(seed, s, start, stop):
            groups.append((start, stop))
            return seed_words(seed, s, start, stop)

        monkeypatch.setattr(scenario, "_cell_seed_words", spy)
        fleet = mixed_fleet([list(ASSET_KINDS)[j % 3] for j in range(n_assets)], horizon=3)
        s = generate_scenarios(fleet, n_scenarios, 2**70 + 5, workers=workers)
        inc, rul = oracle_scenarios(fleet, n_scenarios, 2**70 + 5)
        assert np.array_equal(s.usage_increments, inc)
        assert np.array_equal(s.latent_rul, rul)
        assert (scenario._GROUP, scenario._CHUNK) == (512, 256)
        if workers == 1:  # a forked worker's groups are not seen here
            assert groups[:2] == first_groups

    def test_seed_passes_at_one_scenario(self, monkeypatch):
        # a wide, shallow fleet derives its streams a group of assets at a time
        passes = []
        seed_words = scenario._cell_seed_words

        def spy(*args):
            passes.append(args)
            return seed_words(*args)

        monkeypatch.setattr(scenario, "_cell_seed_words", spy)
        sample_pricing_inputs(make_fleet(n_assets=1000, horizon=2), 1, seed=3)
        assert len(passes) <= math.ceil(1000 / scenario._GROUP)


CHUNK = scenario._CHUNK


def usage_mean_reference(inc):
    """The scenario mean of an (N, S, T) array, each 1/S-weighted value
    summed exactly (math.fsum) and rounded once."""
    weighted = inc * (1.0 / inc.shape[1])
    return np.array([[math.fsum(weighted[i, :, t]) for t in range(inc.shape[2])]
                     for i in range(inc.shape[0])])


class TestPricingInputs:
    """The lean sampler keeps the full set's RULs and usage mean, bit for bit."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n_scenarios", [1, CHUNK - 1, CHUNK, CHUNK + 1, 800])
    def test_lean_draws_equal_the_full_set(self, n_scenarios, workers, four_cpus):
        # an explicit fleet whose first asset has usage_cv 0, the point mass
        fleet = mixed_fleet(["zero_cv", "wide", "typical"], horizon=4)
        full = generate_scenarios(fleet, n_scenarios, seed=2**70 + 5)
        lean = sample_pricing_inputs(fleet, n_scenarios, seed=2**70 + 5, workers=workers)
        assert isinstance(lean, PricingInputs)
        assert lean.latent_rul.tobytes() == full.latent_rul.tobytes()
        assert lean.usage_mean.tobytes() == full.usage_mean.tobytes()
        assert lean.usage_mean.shape == (3, 4)
        point_mass = fleet.assets[0].usage_mean_per_period
        np.testing.assert_allclose(lean.usage_mean[0], point_mass, rtol=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("n_scenarios", [1, 7, CHUNK + 1, 800])
    def test_usage_mean_rounds_near_the_exact_mean(self, n_scenarios):
        # pairwise sums of weighted values: a few ulp from the exact sum
        fleet = make_fleet(n_assets=2, horizon=5)
        s = generate_scenarios(fleet, n_scenarios, seed=8)
        reference = usage_mean_reference(s.usage_increments)
        np.testing.assert_allclose(s.usage_mean, reference, rtol=4 * np.finfo(float).eps, atol=0)

    def test_usage_mean_of_any_layout(self):
        # the same values in a Fortran-ordered array give the same bits
        s = generate_scenarios(make_fleet(n_assets=2, horizon=3), CHUNK + 9, seed=5)
        fortran = ScenarioSet(np.asfortranarray(s.usage_increments), s.latent_rul)
        assert fortran.usage_mean.tobytes() == s.usage_mean.tobytes()

    def test_mean_of_huge_increments_does_not_overflow(self):
        # 800 values near 1e306: their plain sum overflows, their mean does not
        inc = np.full((1, 800, 2), 1e306)
        inc[0, ::2] = 1.5e306
        mean = ScenarioSet(inc, np.ones((1, 800))).usage_mean
        np.testing.assert_allclose(mean, 1.25e306, rtol=1e-15)

    @pytest.mark.parametrize("usage", [True, False], ids=["full", "lean"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflowing_increment_named_by_asset(self, usage, workers, four_cpus, capfd):
        # the second asset's increments overflow to inf; at two workers it
        # is sampled in the forked child, and the parent names it
        assets = (make_asset(id="A1"), make_asset(id="B2", usage_mean_per_period=1.7e308))
        fleet = FleetSpec(assets=assets, horizon=3)
        sample = generate_scenarios if usage else sample_pricing_inputs
        with pytest.raises(ValueError, match=r"^asset 'B2': usage increments must be finite and > 0$"):
            sample(fleet, 20, seed=1, workers=workers)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("usage", [True, False], ids=["full", "lean"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflowing_rul_named_by_asset(self, usage, workers, four_cpus, capfd):
        # RULs near 1e308 overflow to inf in about a fifth of the second asset's cells
        assets = (make_asset(id="A1"), make_asset(id="B2", rul_mean=1e308, rul_std=1e308))
        fleet = FleetSpec(assets=assets, horizon=3)
        sample = generate_scenarios if usage else sample_pricing_inputs
        with pytest.raises(ValueError, match=r"^asset 'B2': latent RUL values must be finite and >= 0$"):
            sample(fleet, 20, seed=1, workers=workers)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unallocatable_chunk_buffer_named(self, workers, four_cpus, forks, monkeypatch):
        # the lean sampler's buffer is (min(256, S), T), allocated before any fork
        empty = np.empty

        def no_buffer(shape, *args, **kwargs):
            if shape == (3, 10**6):
                raise MemoryError("Unable to allocate")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", no_buffer)
        message = (
            "cannot allocate 24,000,000 bytes for the usage chunk buffer of N=2 assets,"
            " S=3 scenarios and T=1000000 periods (config keys fleet.n_assets,"
            " scenarios.n_scenarios and fleet.horizon)"
        )
        with pytest.raises(MemoryError, match=f"^{re.escape(message)}$"):
            sample_pricing_inputs(make_fleet(n_assets=2, horizon=10**6), 3, seed=1, workers=workers)
        assert forks == []

    def test_sampling_memory_does_not_grow_with_scenarios(self):
        # the streams are derived a group of cells at a time, so beyond what
        # it returns the sampler's peak is bounded whatever S: about 0.25 MB
        # here, where deriving an asset's streams at once peaked at about
        # 325 bytes per scenario (3.3 and 12.9 MB)
        fleet = make_fleet(n_assets=1, horizon=12)
        peaks = []
        for n_scenarios in (10**4, 4 * 10**4):
            tracemalloc.start()
            try:
                inputs = sample_pricing_inputs(fleet, n_scenarios, seed=1)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert inputs.n_scenarios == n_scenarios
            peaks.append(peak - held)
        assert max(peaks) < 2**20, peaks

    @pytest.mark.parametrize("usage", [True, False], ids=["full", "lean"])
    def test_unallocatable_map_named(self, usage, monkeypatch):
        def no_memory(*args, **kwargs):
            raise OSError(12, "Cannot allocate memory")

        monkeypatch.setattr(scenario.mmap, "mmap", no_memory)
        sample = generate_scenarios if usage else sample_pricing_inputs
        nbytes = 2 * 4 * 10**9 * 8 + 2 * 15_625_000 * 4 * 8 + 2 * 15_625_000
        nbytes += 2 * 4 * 10**9 * 4 * 8 if usage else 0
        message = (
            f"cannot allocate {nbytes:,} bytes for the scenario draws of N=2 assets,"
            " S=4000000000 scenarios and T=4 periods (config keys fleet.n_assets,"
            " scenarios.n_scenarios and fleet.horizon)"
        )
        with pytest.raises(MemoryError, match=f"^{re.escape(message)}$"):
            sample(make_fleet(n_assets=2, horizon=4), 4 * 10**9, seed=1)

    @pytest.mark.parametrize("usage", [True, False], ids=["full", "lean"])
    def test_scenario_limit_named_before_mapping(self, usage, monkeypatch):
        def mapped(*args, **kwargs):
            pytest.fail("the sampler mapped memory for a count past the limit")

        monkeypatch.setattr(scenario.mmap, "mmap", mapped)
        sample = generate_scenarios if usage else sample_pricing_inputs
        message = "n_scenarios must be below 4294967296 (2**32)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample(make_fleet(n_assets=2, horizon=4), SCENARIO_LIMIT, seed=1)

    def test_scenario_set_is_its_pricing_inputs(self):
        # the matrix keeps a plain PricingInputs, the lean twin's bits
        fleet = make_fleet(n_assets=3, horizon=6)
        full = generate_scenarios(fleet, CHUNK + 3, seed=4)
        lean = sample_pricing_inputs(fleet, CHUNK + 3, seed=4)
        assert isinstance(full, PricingInputs)
        kept = build_matrix(fleet, full).scenarios
        assert type(kept) is PricingInputs
        assert not hasattr(kept, "usage_increments")
        assert kept.latent_rul.tobytes() == lean.latent_rul.tobytes()
        assert kept.usage_mean.tobytes() == lean.usage_mean.tobytes()
        assert usage_only(fleet, full) == usage_only(fleet, lean)
        assert rul_threshold(fleet, full) == rul_threshold(fleet, lean)

    def test_rul_and_mean_checked(self):
        with pytest.raises(ValueError, match="latent RUL values must be finite"):
            PricingInputs(np.array([[1.0, np.nan]]), np.ones((1, 3)))
        with pytest.raises(ValueError, match="latent RUL values must be finite"):
            PricingInputs(np.array([[np.inf, 1.0]]), np.ones((1, 3)))
        with pytest.raises(ValueError, match="usage mean must be finite"):
            PricingInputs(np.ones((1, 2)), np.array([[1.0, np.inf, 1.0]]))
        with pytest.raises(ValueError, match="usage mean must be finite"):
            PricingInputs(np.ones((1, 2)), np.array([[1.0, 1.0, np.nan]]))
        with pytest.raises(ValueError, match=r"usage_mean must have shape \(1, T\)"):
            PricingInputs(np.ones((1, 2)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="n_scenarios must be >= 1"):
            PricingInputs(np.ones((1, 0)), np.ones((1, 3)))
        inputs = PricingInputs(np.ones((2, 4)), np.ones((2, 3)))
        assert (inputs.n_assets, inputs.n_scenarios, inputs.horizon) == (2, 4, 3)
        assert inputs.weights.tolist() == [0.25] * 4
        with pytest.raises(ValueError):
            inputs.usage_mean[0, 0] = 2.0


MASK64 = 2**64 - 1
MASK128 = 2**128 - 1
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# Seed words at the edges of the 128-bit seeding step: all zeros, all ones
# (whose sum and product wrap past 2^128), and the top bit set in each of
# the four words.
EDGE_WORDS = [[0, 0, 0, 0], [MASK64] * 4] + [
    [2**63 if k == j else 0 for k in range(4)] for j in range(4)
]


def pcg64_seeding_oracle(words):
    """pcg_setseq_128_srandom on Python ints: the (state, inc) four words seed."""
    w0, w1, w2, w3 = (int(w) for w in words)
    inc = ((((w2 << 64) | w3) << 1) | 1) & MASK128
    return ((inc + ((w0 << 64) | w1)) * PCG64_MULT + inc) & MASK128, inc


def pcg64_state_dict(state, inc):
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


class FixedWords:
    """A seed sequence that hands PCG64 four given words."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, np.dtype(dtype)) == (4, np.dtype(np.uint64))
        return self.words.copy()


np.random.bit_generator.ISeedSequence.register(FixedWords)


class TestBulkStreamDerivation:
    """The bulk derivation against numpy's own SeedSequence and PCG64.

    These fail if a numpy release changes how either derives its state.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seed_words_match_seed_sequence(self, seed):
        for asset_index in (0, 1, 39):
            words = _cell_seed_words(seed, 40, asset_index * 40 + 7, asset_index * 40 + 32)
            expected = np.array(
                [
                    np.random.SeedSequence(seed, spawn_key=(asset_index, w)).generate_state(
                        4, np.uint64
                    )
                    for w in range(7, 32)
                ]
            )
            assert words.dtype == np.uint64
            assert np.array_equal(words, expected)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pcg64_state_matches_seeded_generator(self, seed):
        states, incs = _pcg64_states(_cell_seed_words(seed, 6, 12, 18))
        for w in range(6):
            expected = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(2, w))).state
            assert pcg64_state_dict(states[w], incs[w]) == expected

    def test_asset_index_past_the_limit_raises(self):
        # the last asset index that fits one uint32 word, then the first that does not
        words = _cell_seed_words(5, 2, 2 * (2**32 - 1) + 1, 2 * 2**32)
        expected = np.random.SeedSequence(5, spawn_key=(2**32 - 1, 1)).generate_state(4, np.uint64)
        assert np.array_equal(words[0], expected)
        with pytest.raises(ValueError, match=r"^asset index 4294967296 is not below 2\*\*32$"):
            _cell_seed_words(5, 2, 2 * (2**32 - 1), 2 * 2**32 + 1)

    def test_seeding_step_on_edge_words(self):
        states, incs = _pcg64_states(np.array(EDGE_WORDS, dtype=np.uint64))
        for words, state, inc in zip(EDGE_WORDS, states, incs):
            assert (state, inc) == pcg64_seeding_oracle(words)
            expected = np.random.PCG64(FixedWords(words)).state
            assert pcg64_state_dict(state, inc) == expected


class TestScenarioSetValidation:
    def test_no_scenarios_rejected(self):
        with pytest.raises(ValueError, match="n_scenarios must be >= 1"):
            ScenarioSet(usage_increments=np.ones((1, 0, 3)), latent_rul=np.ones((1, 0)))

    def test_nonpositive_increment_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSet(usage_increments=np.zeros((1, 1, 3)), latent_rul=np.ones((1, 1)))

    @pytest.mark.parametrize(
        "field, index, value, name",
        [
            ("latent_rul", (0, 1), np.nan, "latent RUL values"),
            ("latent_rul", (0, 0), np.inf, "latent RUL values"),
            ("usage_increments", (0, 0, 2), np.inf, "usage increments"),
            ("usage_increments", (0, 1, 0), np.nan, "usage increments"),
        ],
        ids=["nan-rul", "inf-rul", "inf-increment", "nan-increment"],
    )
    def test_non_finite_rejected(self, field, index, value, name):
        arrays = {"usage_increments": np.ones((1, 2, 3)), "latent_rul": np.ones((1, 2))}
        arrays[field][index] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ScenarioSet(**arrays)

    def test_arrays_frozen(self):
        fleet = make_fleet()
        s = generate_scenarios(fleet, 5, seed=1)
        with pytest.raises(ValueError):
            s.latent_rul[0, 0] = 99.0


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        fleet = make_fleet(n_assets=2, horizon=5)
        s = generate_scenarios(fleet, 12, seed=21)
        usage, rul = tmp_path / "usage.csv", tmp_path / "rul.csv"
        write_scenario_csvs(s, fleet, usage, rul)
        back = read_scenario_csvs(fleet, usage, rul)
        assert back.n_scenarios == 12
        assert np.array_equal(back.usage_increments, s.usage_increments)
        assert np.array_equal(back.latent_rul, s.latent_rul)
        assert np.all(back.weights == 1.0 / 12)

    def test_missing_cells_rejected(self, tmp_path):
        fleet = make_fleet(n_assets=2, horizon=5)
        s = generate_scenarios(fleet, 3, seed=2)
        usage, rul = tmp_path / "usage.csv", tmp_path / "rul.csv"
        write_scenario_csvs(s, fleet, usage, rul)
        lines = usage.read_text().splitlines()
        usage.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError) as info:
            read_scenario_csvs(fleet, usage, rul)
        assert str(usage) in str(info.value)

    @pytest.fixture
    def exported(self, tmp_path):
        fleet = make_fleet(n_assets=2, horizon=5)
        s = generate_scenarios(fleet, 4, seed=3)
        usage, rul = tmp_path / "usage.csv", tmp_path / "rul.csv"
        write_scenario_csvs(s, fleet, usage, rul)
        return fleet, usage, rul

    def test_negative_scenario_cannot_stand_in_for_missing_cell(self, exported):
        fleet, usage, rul = exported
        lines = usage.read_text().splitlines()
        lines.remove(next(line for line in lines if line.startswith("A1,2,2,")))
        lines.append("A1,-1,2,999.0")
        usage.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="scenario -1 is negative") as info:
            read_scenario_csvs(fleet, usage, rul)
        assert str(usage) in str(info.value)

    def test_duplicate_usage_cell_rejected(self, exported):
        fleet, usage, rul = exported
        lines = usage.read_text().splitlines()
        lines[1] = lines[2].rsplit(",", 1)[0] + ",999.0"
        usage.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="repeats asset 'A1' scenario 0 period 2") as info:
            read_scenario_csvs(fleet, usage, rul)
        assert str(usage) in str(info.value)

    @pytest.mark.parametrize("extra_rows", [False, True], ids=["as-many-rows-as-cells", "extra"])
    def test_first_repeating_row_in_file_order_is_named(self, exported, extra_rows):
        # Two cells repeat. The repeat of A2,1,1 comes first in the file,
        # though A1,0,3 sorts first; the earliest repeating row decides.
        fleet, usage, rul = exported
        lines = usage.read_text().splitlines()
        later = next(line for line in lines if line.startswith("A2,1,1,"))
        earlier = next(line for line in lines if line.startswith("A1,0,3,"))
        if extra_rows:
            lines += [later, earlier]
        else:
            lines[1], lines[-1] = later, earlier
        usage.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="repeats asset 'A2' scenario 1 period 1:"):
            read_scenario_csvs(fleet, usage, rul)

    @pytest.mark.parametrize("scenario", [-1, 4])
    def test_rul_scenario_out_of_range_rejected(self, exported, scenario):
        fleet, usage, rul = exported
        with rul.open("a") as f:
            f.write(f"A2,{scenario},7.5\n")
        with pytest.raises(ValueError, match=f"RUL file scenario {scenario} outside 0..3") as info:
            read_scenario_csvs(fleet, usage, rul)
        assert str(rul) in str(info.value)

    def test_duplicate_rul_row_rejected(self, exported):
        fleet, usage, rul = exported
        with rul.open("a") as f:
            f.write("A2,1,7.5\n")
        with pytest.raises(ValueError, match="repeats asset 'A2' scenario 1") as info:
            read_scenario_csvs(fleet, usage, rul)
        assert str(rul) in str(info.value)

    @pytest.mark.parametrize(
        "target, prefix, value, message",
        [
            ("usage", "A2,1,3,", "inf", "usage increment inf for asset 'A2' scenario 1 period 3"),
            ("usage", "A1,3,5,", "nan", "usage increment nan for asset 'A1' scenario 3 period 5"),
            ("rul", "A2,2,", "inf", "latent RUL inf for asset 'A2' scenario 2"),
            ("rul", "A1,0,", "nan", "latent RUL nan for asset 'A1' scenario 0"),
        ],
        ids=["usage-inf", "usage-nan", "rul-inf", "rul-nan"],
    )
    def test_non_finite_value_rejected(self, exported, target, prefix, value, message):
        fleet, usage, rul = exported
        path = usage if target == "usage" else rul
        lines = path.read_text().splitlines()
        row = next(k for k, line in enumerate(lines) if line.startswith(prefix))
        lines[row] = prefix + value
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="non-finite " + message) as info:
            read_scenario_csvs(fleet, usage, rul)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "target, prefix, value, message",
        [
            ("usage", "A2,1,3,", "-1.5", "usage increment -1.5 for asset 'A2' scenario 1 period 3"
             " must be > 0"),
            ("usage", "A1,3,5,", "0", "usage increment 0.0 for asset 'A1' scenario 3 period 5"
             " must be > 0"),
            ("rul", "A2,2,", "-2", "latent RUL -2.0 for asset 'A2' scenario 2 must be >= 0"),
        ],
        ids=["usage-negative", "usage-zero", "rul-negative"],
    )
    def test_out_of_range_value_rejected(self, exported, target, prefix, value, message):
        fleet, usage, rul = exported
        path = usage if target == "usage" else rul
        lines = path.read_text().splitlines()
        row = next(k for k, line in enumerate(lines) if line.startswith(prefix))
        lines[row] = prefix + value
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message) as info:
            read_scenario_csvs(fleet, usage, rul)
        assert str(path) in str(info.value)

    def test_first_bad_value_in_cell_order_is_named(self, exported):
        fleet, usage, rul = exported
        lines = usage.read_text().splitlines()
        for prefix, value in (("A2,0,1,", "nan"), ("A1,3,2,", "-1"), ("A1,3,4,", "inf")):
            row = next(k for k, line in enumerate(lines) if line.startswith(prefix))
            lines[row] = prefix + value
        usage.write_text("\n".join([lines[0], *reversed(lines[1:])]) + "\n")
        with pytest.raises(ValueError, match="-1.0 for asset 'A1' scenario 3 period 2 must be"):
            read_scenario_csvs(fleet, usage, rul)

    @pytest.mark.parametrize(
        "target, prefix, value, message",
        [
            ("usage", "A1,0,2,", None, "line 3: bad scenario '0.5'"),
            ("usage", "A2,1,3,", "abc", "line 29: bad usage_increment 'abc'"),
            ("rul", "A2,3,", "x", "line 9: bad latent_rul 'x'"),
        ],
        ids=["usage-fractional-scenario", "usage-bad-increment", "rul-bad-value"],
    )
    def test_unparsable_field_named(self, exported, target, prefix, value, message):
        fleet, usage, rul = exported
        path = usage if target == "usage" else rul
        lines = path.read_text().splitlines()
        row = next(k for k, line in enumerate(lines) if line.startswith(prefix))
        lines[row] = "A1,0.5,2,1.0" if value is None else prefix + value
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message) as info:
            read_scenario_csvs(fleet, usage, rul)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "target, prefix, line, short",
        [
            ("usage", "A1,0,1,", 2, False),
            ("rul", "A2,1,", 7, False),
            ("usage", "A1,0,1,", 2, True),
            ("rul", "A1,0,", 2, True),
        ],
        ids=["usage", "rul", "usage-short", "rul-short"],
    )
    def test_extra_field_rejected(self, exported, target, prefix, line, short):
        fleet, usage, rul = exported
        path = usage if target == "usage" else rul
        lines = path.read_text().splitlines()
        row = next(k for k, text in enumerate(lines) if text.startswith(prefix))
        lines[row] = prefix.rstrip(",") if short else lines[row] + ",999"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"line {line}: a row must have exactly") as info:
            read_scenario_csvs(fleet, usage, rul)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "target, header",
        [
            ("rul", "asset_id,scenario,rul"),
            ("usage", "asset_id,scenario,usage_increment"),
        ],
        ids=["rul-without-latent_rul", "usage-without-period"],
    )
    def test_wrong_header_rejected(self, exported, target, header):
        fleet, usage, rul = exported
        path = usage if target == "usage" else rul
        lines = path.read_text().splitlines()
        path.write_text("\n".join([header, *lines[1:]]) + "\n")
        with pytest.raises(ValueError, match="must have exactly the columns") as info:
            read_scenario_csvs(fleet, usage, rul)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "target, prefix, row, message",
        [
            ("usage", "A1,0,1,", "Z9,0,1,1.0", "usage file references unknown asset 'Z9'"),
            ("rul", "A2,1,", "Z9,1,7.5", "RUL file references unknown asset 'Z9'"),
            ("usage", "A1,0,1,", "A1,0,6,1.0", "usage file period 6 outside 1..5"),
            # T=5 keeps periods as uint8, which 300 does not fit.
            ("usage", "A1,0,1,", "A1,0,300,1.0", "usage file period 300 outside 1..5"),
            ("usage", "A1,0,1,", f"A1,{2**32},1,1.0",
             f"usage file scenario {2**32} is not below {2**32}, the limit on scenarios"),
            ("usage", "A", None, "usage file contains no scenarios"),
            ("rul", "A2,3,", "", "RUL file does not cover every"),
        ],
        ids=["usage-unknown-asset", "rul-unknown-asset", "period-out-of-range",
             "period-beyond-key-type", "scenario-at-the-limit", "no-scenarios",
             "rul-missing-cell"],
    )
    def test_rejection_names_file(self, exported, target, prefix, row, message):
        fleet, usage, rul = exported
        path = usage if target == "usage" else rul
        lines = path.read_text().splitlines()
        if row is None:
            lines = lines[:1]
        else:
            lines[next(k for k, text in enumerate(lines) if text.startswith(prefix))] = row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message) as info:
            read_scenario_csvs(fleet, usage, rul)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("scenario", [10**12, 2**70], ids=["10**12", "2**70"])
    @pytest.mark.parametrize(
        "target, prefix", [("usage", "A1,0,1,"), ("rul", "A1,0,")], ids=["usage", "rul"]
    )
    def test_huge_scenario_rejected_without_allocating(self, exported, target, prefix, scenario):
        fleet, usage, rul = exported
        path = usage if target == "usage" else rul
        lines = path.read_text().splitlines()
        row = next(k for k, text in enumerate(lines) if text.startswith(prefix))
        lines[row] = lines[row].replace(",0,", f",{scenario},", 1)
        path.write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                read_scenario_csvs(fleet, usage, rul)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(path) in str(info.value)
        assert peak < 2**20

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n_assets=st.integers(min_value=1, max_value=3),
        horizon=st.integers(min_value=1, max_value=4),
        n_scenarios=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    def test_shuffled_rows_and_columns_reload_bit_equal(
        self, tmp_path_factory, n_assets, horizon, n_scenarios, seed, data
    ):
        fleet = make_fleet(n_assets=n_assets, horizon=horizon)
        s = generate_scenarios(fleet, n_scenarios, seed)
        tmp = tmp_path_factory.mktemp("shuffled")
        usage, rul = tmp / "usage.csv", tmp / "rul.csv"
        write_scenario_csvs(s, fleet, usage, rul)
        for path in (usage, rul):
            header, *rows = [line.split(",") for line in path.read_text().splitlines()]
            columns = data.draw(st.permutations(range(len(header))))
            rows = data.draw(st.permutations(rows))
            path.write_text(
                "".join(",".join(fields[c] for c in columns) + "\n" for fields in [header, *rows])
            )
        back = read_scenario_csvs(fleet, usage, rul)
        assert back.usage_increments.tobytes() == s.usage_increments.tobytes()
        assert back.latent_rul.tobytes() == s.latent_rul.tobytes()
        assert back.weights.tobytes() == s.weights.tobytes()

    def test_unparsable_field_beats_an_earlier_negative_scenario(self, exported):
        # The whole file is parsed before any key is range-checked.
        fleet, usage, rul = exported
        lines = usage.read_text().splitlines()
        lines[1] = lines[1].replace("A1,0,", "A1,-1,", 1)
        lines[30] = lines[30].rsplit(",", 1)[0] + ",abc"
        usage.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 31: bad usage_increment 'abc'$"):
            read_scenario_csvs(fleet, usage, rul)

    def test_first_period_outside_in_file_order_named(self, exported):
        # 0 fits the period's key type and 300 does not; the first in the
        # file is named, whichever it is.
        fleet, usage, rul = exported
        lines = usage.read_text().splitlines()
        lines[7], lines[9] = "A1,1,300,1.0", "A1,1,0,1.0"
        usage.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="usage file period 300 outside 1..5"):
            read_scenario_csvs(fleet, usage, rul)
        lines[5], lines[7] = "A1,1,-7,1.0", "A1,1,6,1.0"
        usage.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="usage file period -7 outside 1..5"):
            read_scenario_csvs(fleet, usage, rul)

    def test_long_horizon_round_trip(self, tmp_path):
        # T=300 keeps periods as uint16.
        fleet = make_fleet(n_assets=2, horizon=300)
        s = generate_scenarios(fleet, 3, seed=5)
        usage, rul = tmp_path / "usage.csv", tmp_path / "rul.csv"
        write_scenario_csvs(s, fleet, usage, rul)
        back = read_scenario_csvs(fleet, usage, rul)
        assert back.usage_increments.tobytes() == s.usage_increments.tobytes()
        assert back.latent_rul.tobytes() == s.latent_rul.tobytes()

    def test_negative_scenario_beats_an_earlier_one_at_the_limit(self, exported):
        # The range checks run in their order after the whole file is read:
        # negative scenarios first, whatever comes earlier in the file.
        fleet, usage, rul = exported
        lines = usage.read_text().splitlines()
        lines[2] = lines[2].replace("A1,0,", f"A1,{SCENARIO_LIMIT},", 1)
        usage.write_text("\n".join([*lines, "A2,-1,1,1.0"]) + "\n")
        with pytest.raises(ValueError, match="usage file scenario -1 is negative") as info:
            read_scenario_csvs(fleet, usage, rul)
        assert str(usage) in str(info.value)

    def test_rul_scenario_at_the_limit_rejected(self, exported):
        fleet, usage, rul = exported
        # Of four scenarios outside 0..3, the first in the file is named.
        with rul.open("a") as f:
            for scenario in (SCENARIO_LIMIT, -3, 2**33, 9):
                f.write(f"A2,{scenario},7.5\n")
        with pytest.raises(ValueError, match=f"RUL file scenario {2**32} outside 0..3"):
            read_scenario_csvs(fleet, usage, rul)

    @pytest.mark.parametrize("target", ["usage", "rul"])
    def test_last_two_rows_swapped_reload_bit_equal(self, tmp_path, target):
        # 36,000 usage and 9,000 RUL rows: each file's order is checked in
        # more than one block.
        fleet = make_fleet(n_assets=3, horizon=4)
        s = generate_scenarios(fleet, 3000, seed=9)
        usage, rul = tmp_path / "usage.csv", tmp_path / "rul.csv"
        write_scenario_csvs(s, fleet, usage, rul)
        path = usage if target == "usage" else rul
        lines = path.read_text().splitlines()
        lines[-2], lines[-1] = lines[-1], lines[-2]
        path.write_text("\n".join(lines) + "\n")
        back = read_scenario_csvs(fleet, usage, rul)
        assert back.usage_increments.tobytes() == s.usage_increments.tobytes()
        assert back.latent_rul.tobytes() == s.latent_rul.tobytes()

    @pytest.mark.parametrize(
        "n_assets, horizon", [(2, 5), (3, 4)], ids=["fewer-assets", "other-horizon"]
    )
    def test_export_rejects_another_fleet(self, tmp_path, n_assets, horizon):
        s = generate_scenarios(make_fleet(n_assets=3, horizon=5), 4, seed=3)
        fleet = make_fleet(n_assets=n_assets, horizon=horizon)
        usage, rul = tmp_path / "usage.csv", tmp_path / "rul.csv"
        with pytest.raises(ValueError, match="scenario set shape does not match the fleet"):
            write_scenario_csvs(s, fleet, usage, rul)

    # One block of 256 scenarios and less, exactly one, one and a bit, and
    # two and a bit.
    @pytest.mark.parametrize("n_scenarios", [1, 255, 256, 257, 519])
    def test_quoted_ids_write_csv_writer_bytes(self, tmp_path, n_scenarios):
        ids = ["a,b", 'say "hi"', "two\nlines", " lead", "Pumpé", "100%", "%s", "%%d"]
        fleet = FleetSpec(assets=tuple(make_asset(id=i) for i in ids), horizon=3)
        s = generate_scenarios(fleet, n_scenarios, seed=8)
        usage, rul = tmp_path / "usage.csv", tmp_path / "rul.csv"
        write_scenario_csvs(s, fleet, usage, rul)
        usage_rows = [
            (asset_id, w, k + 1, format(x, ".17g"))
            for asset_id, cells in zip(ids, s.usage_increments)
            for w, periods in enumerate(cells.tolist())
            for k, x in enumerate(periods)
        ]
        rul_rows = [
            (asset_id, w, format(x, ".17g"))
            for asset_id, values in zip(ids, s.latent_rul)
            for w, x in enumerate(values.tolist())
        ]
        for path, header, rows in (
            (usage, ["asset_id", "scenario", "period", "usage_increment"], usage_rows),
            (rul, ["asset_id", "scenario", "latent_rul"], rul_rows),
        ):
            oracle = io.StringIO()
            writer = csv.writer(oracle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            assert path.read_bytes() == oracle.getvalue().encode("utf-8")
        back = read_scenario_csvs(fleet, usage, rul)
        assert back.usage_increments.tobytes() == s.usage_increments.tobytes()
        assert back.latent_rul.tobytes() == s.latent_rul.tobytes()

    def test_export_memory_stays_bounded(self, tmp_path):
        fleet = make_fleet(n_assets=2)
        s = generate_scenarios(fleet, 4000, seed=7)
        usage, rul = tmp_path / "usage.csv", tmp_path / "rul.csv"
        tracemalloc.start()
        try:
            write_scenario_csvs(s, fleet, usage, rul)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The writer holds its block templates, about 14 characters per
        # (scenario, period), and one block of 256 scenarios: about 19
        # bytes per (scenario, period) in all at this size, so 32 leaves a
        # margin of two thirds. A list of one template string per
        # (scenario, period) would take about 68 bytes each on its own.
        assert peak < 32 * s.n_scenarios * s.horizon

    def test_reload_memory_stays_bounded(self, tmp_path):
        fleet = make_fleet(n_assets=2)
        s = generate_scenarios(fleet, 4000, seed=7)
        usage, rul = tmp_path / "usage.csv", tmp_path / "rul.csv"
        write_scenario_csvs(s, fleet, usage, rul)
        header, *rows = usage.read_text().splitlines(keepends=True)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(header + "".join(rows[1::2] + rows[::2]))
        peaks = []
        tracemalloc.start()
        try:
            for path in (usage, shuffled):
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                back = read_scenario_csvs(fleet, path, rul)
                peaks.append(tracemalloc.get_traced_memory()[1] - held)
                del back
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            columns = {"asset_id": str, "scenario": int, "period": int, "usage_increment": float}
            for _ in csvio.read_csv(usage, "usage file", columns):
                pass
            stream_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        returned = s.usage_increments.nbytes + s.latent_rul.nbytes + s.weights.nbytes
        # In export order the usage values are returned in the buffer they
        # were read into; the peak, about 1.74 times the returned bytes, is
        # that buffer with its growth room and the keys (uint8 asset and
        # period, uint32 scenario). 2 leaves a margin of a seventh.
        assert peaks[0] < 2 * returned
        # A reordered file takes the reader's stable sort by its keys and
        # needs about 3.60 times the returned bytes: the values as read,
        # the sort's int64 row order and the values taken in that order,
        # with the keys; 4 leaves a margin of a tenth. Streaming the 96,000
        # usage rows alone, with chunks of 256 rows, needs a fifth of them.
        assert peaks[1] < 4 * returned
        assert stream_peak < returned


def _usage_rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def _write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def _line_of(path, ordinal):
    """csv.reader's line_num at data row ``ordinal``, blank lines not counted."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        next(reader)
        data = 0
        for row in reader:
            if row:
                if data == ordinal:
                    return reader.line_num
                data += 1
    raise AssertionError(f"no data row {ordinal}")


# Ways to spoil one usage row (asset_id, scenario, period, usage_increment),
# each with the error it must raise at that row's line.
SPOILERS = {
    "unparsable": (
        lambda row: [*row[:3], "abc"],
        lambda path, line: f"usage file {path}, line {line}: bad usage_increment 'abc'",
    ),
    "short": (
        lambda row: row[:3],
        lambda path, line: (
            f"usage file {path}, line {line}: a row must have exactly 4 fields,"
            " asset_id,scenario,period,usage_increment"
        ),
    ),
    "unknown": (
        lambda row: ["Z9", *row[1:]],
        lambda path, line: f"usage file references unknown asset 'Z9': {path}, line {line}",
    ),
    "overflow": (
        lambda row: [row[0], str(2**63), *row[2:]],
        lambda path, line: f"usage file {path}, line {line}: bad scenario '{2**63}'",
    ),
}


class TestChunkedReader:
    """Errors in an export of six read_csv chunks whose line numbers drift
    from its row numbers: a blank line in the second chunk, and the rows of
    the second asset, from the fourth chunk on, each spanning two lines."""

    CHUNK = csvio.CHUNK_ROWS
    BLANK = CHUNK + 44  # the data row the blank line precedes
    # The middle of the fourth chunk, then its last row and the fifth's first:
    # the blank line moves every later row one reader row on.
    POSITIONS = [3 * CHUNK + 100, 4 * CHUNK - 2, 4 * CHUNK - 1]

    @pytest.fixture
    def export(self, tmp_path):
        fleet = FleetSpec(assets=(make_asset(id="A1"), make_asset(id="two\nlines")), horizon=3)
        s = generate_scenarios(fleet, self.CHUNK, seed=11)
        usage, rul = tmp_path / "usage.csv", tmp_path / "rul.csv"
        write_scenario_csvs(s, fleet, usage, rul)
        return fleet, usage, rul

    def spoil(self, usage, spoiled, columns=None):
        """Apply {data row: spoiler} to the usage file and insert the blank line."""
        header, *rows = _usage_rows(usage)
        assert len(rows) == 6 * self.CHUNK and rows[3 * self.CHUNK][0] == "two\nlines"
        for ordinal, kind in spoiled.items():
            rows[ordinal] = SPOILERS[kind][0](rows[ordinal])
        rows.insert(self.BLANK, [])
        if columns is not None:
            header = [header[c] for c in columns]
            rows = [[row[c] for c in columns] if row else row for row in rows]
        _write_rows(usage, [header, *rows])

    def expect(self, fleet, usage, rul, ordinal, kind):
        message = SPOILERS[kind][1](usage, _line_of(usage, ordinal))
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            read_scenario_csvs(fleet, usage, rul)

    @pytest.mark.parametrize("ordinal", POSITIONS)
    @pytest.mark.parametrize("kind", list(SPOILERS))
    def test_error_names_reader_line(self, export, kind, ordinal):
        fleet, usage, rul = export
        self.spoil(usage, {ordinal: kind})
        self.expect(fleet, usage, rul, ordinal, kind)

    @pytest.mark.parametrize("gap", [3, CHUNK], ids=["same-chunk", "later-chunk"])
    @pytest.mark.parametrize(
        "first, second",
        [(a, b) for a in SPOILERS for b in SPOILERS if a != b],
    )
    def test_first_bad_row_wins(self, export, first, second, gap):
        fleet, usage, rul = export
        ordinal = 4 * self.CHUNK - 10
        self.spoil(usage, {ordinal: first, ordinal + gap: second})
        self.expect(fleet, usage, rul, ordinal, first)

    def test_first_column_in_column_order_wins(self, export):
        fleet, usage, rul = export
        ordinal = 4 * self.CHUNK - 1
        header, *rows = _usage_rows(usage)
        rows[ordinal] = [rows[ordinal][0], str(-(2**63) - 1), rows[ordinal][2], "x"]
        rows.insert(self.BLANK, [])
        # The file lists usage_increment before scenario; the reader's column
        # order, asset_id, scenario, period, usage_increment, decides.
        _write_rows(usage, [[row[c] for c in (3, 2, 1, 0)] if row else row
                            for row in [header, *rows]])
        line = _line_of(usage, ordinal)
        message = f"line {line}: bad scenario '{-(2**63) - 1}'"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_scenario_csvs(fleet, usage, rul)

    def test_bad_field_wins_over_unknown_asset_in_its_row(self, export):
        fleet, usage, rul = export
        ordinal = 4 * self.CHUNK + 7
        header, *rows = _usage_rows(usage)
        rows[ordinal] = ["Z9", *rows[ordinal][1:3], "abc"]
        rows.insert(self.BLANK, [])
        _write_rows(usage, [header, *rows])
        self.expect(fleet, usage, rul, ordinal, "unparsable")

    def test_int64_bounds_accepted(self, export):
        fleet, usage, rul = export
        header, *rows = _usage_rows(usage)
        rows[5][1], rows[9][1] = str(2**63 - 1), str(-(2**63))
        _write_rows(usage, [header, *rows])
        with pytest.raises(ValueError, match="scenario -9223372036854775808 is negative"):
            read_scenario_csvs(fleet, usage, rul)

    @pytest.mark.parametrize("columns", [None, (2, 0, 3, 1)], ids=["file-order", "shuffled"])
    def test_clean_export_reloads_bit_equal(self, export, columns):
        fleet, usage, rul = export
        expected = read_scenario_csvs(fleet, usage, rul)
        self.spoil(usage, {}, columns)
        back = read_scenario_csvs(fleet, usage, rul)
        assert back.usage_increments.tobytes() == expected.usage_increments.tobytes()
        assert back.latent_rul.tobytes() == expected.latent_rul.tobytes()
