"""Risk measures on weighted empirical distributions."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetmaint.criteria import (
    CUM_TOL,
    CostDistribution,
    _batch_var,
    _equal_weight_index,
    batch_cvar,
    cvar_alpha,
    expected_cost,
    var_alpha,
    weighted_sum,
)
from helpers import cvar_alpha_merged, var_alpha_merged


def oracle_var(values, weights, alpha):
    """Walk the merged CDF and return the first value whose cumulative
    weight reaches alpha (ties merged, tiny slack for float cumsums)."""
    order = np.argsort(values)
    merged = {}
    for v, w in zip(np.asarray(values)[order], np.asarray(weights)[order]):
        merged[float(v)] = merged.get(float(v), 0.0) + float(w)
    cum = 0.0
    for v in sorted(merged):
        cum += merged[v]
        if cum >= alpha - 1e-12:
            return v
    return max(merged)


def oracle_cvar(values, weights, alpha):
    var = oracle_var(values, weights, alpha)
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    tail = values >= var
    return float(np.sum(values[tail] * weights[tail]) / np.sum(weights[tail]))


def uniform_dist(values):
    values = np.asarray(values, dtype=float)
    return CostDistribution(values, np.full(values.size, 1.0 / values.size))


weighted_dists = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
            min_size=n,
            max_size=n,
        ),
        st.lists(
            st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
            min_size=n,
            max_size=n,
        ),
    )
)

# Half-integer supports keep sums and products exactly representable, so
# translating or scaling never merges two distinct atoms through rounding.
grid_dists = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.integers(min_value=-20000, max_value=20000).map(lambda k: k / 2),
            min_size=n,
            max_size=n,
        ),
        st.lists(
            st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
            min_size=n,
            max_size=n,
        ),
    )
)
half_integer_shifts = st.integers(min_value=-1000, max_value=1000).map(lambda k: k / 2)


def build(values, raw_weights):
    weights = np.asarray(raw_weights, dtype=float)
    return CostDistribution(np.asarray(values, dtype=float), weights / weights.sum())


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CostDistribution(np.array([]), np.array([]))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            CostDistribution(np.array([1.0, 2.0]), np.array([1.0]))

    def test_unnormalized_weights_rejected(self):
        with pytest.raises(ValueError):
            CostDistribution(np.array([1.0, 2.0]), np.array([0.5, 0.6]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            CostDistribution(np.array([1.0, 2.0]), np.array([1.5, -0.5]))

    def test_arrays_read_only(self):
        dist = uniform_dist([1.0, 2.0])
        with pytest.raises(ValueError):
            dist.values[0] = 9.0

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            CostDistribution(np.ones((2, 2)), np.full((2, 2), 0.25))

    @pytest.mark.parametrize(
        "values, weights, name",
        [
            ([1.0, np.nan], [0.5, 0.5], "values"),
            ([1.0, np.inf], [0.5, 0.5], "values"),
            ([1.0, 2.0], [1.0, np.nan], "weights"),
        ],
        ids=["nan-value", "inf-value", "nan-weight"],
    )
    def test_non_finite_rejected(self, values, weights, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            CostDistribution(np.array(values), np.array(weights))


class TestExpectedCost:
    def test_uniform(self):
        assert expected_cost(uniform_dist(range(1, 11))) == pytest.approx(5.5)

    def test_weighted(self):
        dist = build([10.0, 20.0], [3.0, 1.0])
        assert expected_cost(dist) == pytest.approx(12.5)


class TestFixedQuantiles:
    """Uniform support {1, ..., 10}: the 0.9 cut lands exactly on the
    boundary, so 9 absorbs the tie and the tail is {9, 10}."""

    dist = uniform_dist(range(1, 11))

    def test_var_090(self):
        assert var_alpha(self.dist, 0.9) == 9.0

    def test_var_085(self):
        assert var_alpha(self.dist, 0.85) == 9.0

    def test_var_080(self):
        assert var_alpha(self.dist, 0.8) == 8.0

    def test_cvar_090(self):
        assert cvar_alpha(self.dist, 0.9) == pytest.approx(9.5)

    def test_cvar_080(self):
        assert cvar_alpha(self.dist, 0.8) == pytest.approx(9.0)

    def test_matches_oracle_on_alpha_sweep(self):
        values = np.arange(1.0, 11.0)
        weights = np.full(10, 0.1)
        for alpha in np.linspace(0.05, 0.999, 97):
            assert var_alpha(self.dist, alpha) == oracle_var(values, weights, alpha)
            assert cvar_alpha(self.dist, alpha) == pytest.approx(
                oracle_cvar(values, weights, alpha), abs=1e-9
            )


class TestDegenerate:
    def test_point_mass(self):
        dist = CostDistribution(np.array([7.0]), np.array([1.0]))
        assert var_alpha(dist, 0.9) == 7.0
        assert cvar_alpha(dist, 0.9) == 7.0
        assert expected_cost(dist) == 7.0

    def test_all_values_equal(self):
        dist = uniform_dist([3.0] * 8)
        assert var_alpha(dist, 0.5) == 3.0
        assert cvar_alpha(dist, 0.5) == 3.0

    def test_zero_weight_values_ignored_in_tail(self):
        dist = CostDistribution(
            np.array([1.0, 2.0, 100.0]), np.array([0.5, 0.5, 0.0])
        )
        assert var_alpha(dist, 0.5) == 1.0
        # 100 sits above VaR with zero weight; it must not drag CVaR up
        assert cvar_alpha(dist, 0.9) == pytest.approx(2.0)


class TestAlphaValidation:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.7])
    def test_out_of_range(self, alpha):
        dist = uniform_dist([1.0, 2.0])
        with pytest.raises(ValueError):
            var_alpha(dist, alpha)
        with pytest.raises(ValueError):
            cvar_alpha(dist, alpha)


class TestRandomAgainstOracle:
    def test_many_weighted_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(150):
            n = int(rng.integers(1, 30))
            values = np.round(rng.normal(50, 20, n), 2)
            weights = rng.uniform(0.05, 1.0, n)
            weights /= weights.sum()
            dist = CostDistribution(values, weights)
            alpha = float(rng.uniform(0.05, 0.99))
            assert var_alpha(dist, alpha) == oracle_var(values, weights, alpha)
            assert cvar_alpha(dist, alpha) == pytest.approx(
                oracle_cvar(values, weights, alpha), abs=1e-9
            )

    def test_duplicate_heavy_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(2, 25))
            values = rng.integers(0, 5, n).astype(float)
            weights = rng.uniform(0.05, 1.0, n)
            weights /= weights.sum()
            dist = CostDistribution(values, weights)
            alpha = float(rng.uniform(0.05, 0.99))
            assert var_alpha(dist, alpha) == oracle_var(values, weights, alpha)
            assert cvar_alpha(dist, alpha) == pytest.approx(
                oracle_cvar(values, weights, alpha), abs=1e-9
            )


class TestProperties:
    @settings(max_examples=120, deadline=None)
    @given(weighted_dists, st.floats(min_value=0.05, max_value=0.99))
    def test_cvar_dominates_var(self, data, alpha):
        dist = build(*data)
        assert cvar_alpha(dist, alpha) >= var_alpha(dist, alpha) - 1e-9

    @settings(max_examples=120, deadline=None)
    @given(weighted_dists, st.floats(min_value=0.05, max_value=0.99))
    def test_cvar_dominates_mean(self, data, alpha):
        dist = build(*data)
        assert cvar_alpha(dist, alpha) >= expected_cost(dist) - 1e-9

    @settings(max_examples=120, deadline=None)
    @given(weighted_dists, st.floats(min_value=0.05, max_value=0.99))
    def test_var_within_support(self, data, alpha):
        dist = build(*data)
        v = var_alpha(dist, alpha)
        assert v in dist.values

    @settings(max_examples=100, deadline=None)
    @given(
        grid_dists,
        st.floats(min_value=0.05, max_value=0.99),
        half_integer_shifts,
    )
    def test_translation_equivariance(self, data, alpha, shift):
        values, weights = data
        base = build(values, weights)
        moved = build([v + shift for v in values], weights)
        assert var_alpha(moved, alpha) == var_alpha(base, alpha) + shift
        assert cvar_alpha(moved, alpha) == pytest.approx(
            cvar_alpha(base, alpha) + shift, abs=1e-9
        )

    @settings(max_examples=100, deadline=None)
    @given(
        grid_dists,
        st.floats(min_value=0.05, max_value=0.99),
        st.floats(min_value=0.1, max_value=50),
    )
    def test_positive_homogeneity(self, data, alpha, scale):
        values, weights = data
        base = build(values, weights)
        scaled = build([v * scale for v in values], weights)
        assert cvar_alpha(scaled, alpha) == pytest.approx(
            cvar_alpha(base, alpha) * scale, rel=1e-9, abs=1e-9
        )

    @settings(max_examples=100, deadline=None)
    @given(weighted_dists)
    def test_monotone_in_alpha(self, data):
        dist = build(*data)
        grid = [0.1, 0.3, 0.5, 0.7, 0.9, 0.97]
        vars_ = [var_alpha(dist, a) for a in grid]
        cvars = [cvar_alpha(dist, a) for a in grid]
        assert all(b >= a - 1e-9 for a, b in zip(vars_, vars_[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(cvars, cvars[1:]))


@st.composite
def kernel_batches(draw, exact: bool):
    """(rows, weights, alpha): 1-4 cost rows over one ragged weight vector.

    Values come from a coarse grid, so rows are full of ties. Weights are
    small integers, zeros included, normalized. With ``exact`` the values
    are half-integers and the weights dyadic fractions, so every sum and
    product is exact and the kernel must match the oracle bit for bit.
    """
    s = draw(st.integers(1, 30))
    m = draw(st.integers(1, 4))
    if exact:
        cells = st.integers(-40, 40).map(lambda k: k / 2)
    else:
        cells = st.integers(-40, 40).map(lambda k: k / 3) | st.floats(-1e3, 1e3)
    rows = np.array(draw(st.lists(cells, min_size=m * s, max_size=m * s))).reshape(m, s)
    raw = draw(st.lists(st.integers(0, 4), min_size=s, max_size=s).filter(any))
    if exact:
        total = sum(raw)
        raw[raw.index(max(raw))] += (1 << (total - 1).bit_length()) - total
    weights = np.array(raw, dtype=float) / sum(raw)
    alpha = draw(st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9, 0.99]) | st.floats(0.01, 0.99))
    return rows, weights, alpha


class TestOneKernel:
    """cvar_alpha and batch_cvar are one kernel; the oracle merges ties first."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(kernel_batches(exact=True))
    def test_exact_on_half_integers_with_dyadic_weights(self, batch):
        rows, weights, alpha = batch
        cvars = batch_cvar(rows, weights, alpha)
        for row, value in zip(rows, cvars):
            dist = CostDistribution(row, weights)
            assert var_alpha(dist, alpha) == var_alpha_merged(dist, alpha)
            assert cvar_alpha(dist, alpha) == cvar_alpha_merged(dist, alpha)
            assert value == cvar_alpha_merged(dist, alpha)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(kernel_batches(exact=False))
    def test_within_1e12_relative_otherwise(self, batch):
        rows, weights, alpha = batch
        cvars = batch_cvar(rows, weights, alpha)
        for row, value in zip(rows, cvars):
            dist = CostDistribution(row, weights)
            expected = cvar_alpha_merged(dist, alpha)
            assert var_alpha(dist, alpha) == var_alpha_merged(dist, alpha)
            assert cvar_alpha(dist, alpha) == pytest.approx(expected, rel=1e-12, abs=1e-12)
            assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("m, s", [(2, 7), (33, 800), (500, 1001), (7, 10000), (3, 16385)])
    @pytest.mark.parametrize("equal", [True, False], ids=["equal", "unequal"])
    def test_every_row_equals_its_single_row_value(self, m, s, equal):
        # bit for bit, wherever the row sits in the batch and whatever the
        # alignment of the batch in memory
        rng = np.random.default_rng(m * s)
        weights = np.full(s, 1.0 / s) if equal else rng.random(s) + 0.01
        weights /= weights.sum()
        rows = rng.gamma(2.0, 100.0, size=(m, s))
        shifted = np.empty(m * s + 1)[1:].reshape(m, s)
        shifted[:] = rows
        singles = [batch_cvar(row, weights, 0.9)[0] for row in rows]
        assert batch_cvar(rows, weights, 0.9).tolist() == singles
        assert batch_cvar(shifted, weights, 0.9).tolist() == singles

    def test_batch_holds_one_partitioned_copy(self):
        # the VaR column is copied out of the partitioned batch, so that
        # copy is freed before the tail buffer is allocated
        rows = np.random.default_rng(0).gamma(2.0, 100.0, size=(400, 800))
        weights = np.full(800, 1.0 / 800)
        tracemalloc.start()
        try:
            batch_cvar(rows, weights, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestEqualWeightIndex:
    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99, 1 - 1e-12])
    @pytest.mark.parametrize("s", [1, 2, 3, 7, 800, 10_000])
    def test_cached_index_is_the_cumsum_rule(self, s, alpha):
        # the first position whose cumulative weight reaches alpha, or the last
        weights = np.full(s, 1.0 / s)
        rule = min(int(np.searchsorted(np.cumsum(weights), alpha - CUM_TOL)), s - 1)
        for _ in range(2):  # computed, then read from the cache
            assert _equal_weight_index(s, 1.0 / s, alpha) == rule
        # the quantile is the rule's order statistic, here the value rule itself
        ranks = np.random.default_rng(s).permutation(s).astype(float)
        assert _batch_var(ranks[None, :], weights, alpha)[0] == rule


class TestWeightedSum:
    def test_each_row_is_summed_as_on_its_own(self):
        # a (7, S) transposed view is weighted into a C-ordered array, so each
        # row's products are added by the pairwise rule of a contiguous (S,) sum
        rng = np.random.default_rng(3)
        values = rng.random((1000, 7)).T * 1e3
        weights = rng.random(1000)
        one_by_one = [np.add.reduce(np.ascontiguousarray(row) * weights) for row in values]
        assert weighted_sum(values, weights).tolist() == one_by_one
        buffer = np.array(values, order="C")
        assert weighted_sum(buffer, weights, products=buffer).tolist() == one_by_one
        np.testing.assert_array_equal(buffer, values * weights)  # weighted in place

    def test_expected_cost_is_the_weighted_sum(self):
        dist = CostDistribution(np.array([3.0, 1.0, 2.0]), np.array([0.5, 0.25, 0.25]))
        assert expected_cost(dist) == 2.25
