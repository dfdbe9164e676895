"""Scalar ranking criteria over discrete cost distributions.

VaR here is the lower alpha-quantile of the discrete distribution: the
smallest support value whose cumulative weight reaches alpha. CVaR is the
weight-normalized mean of all outcomes at or above that value (the literal
tail conditional expectation, evaluated directly on the support rather
than through a minimization form). On discrete distributions this choice
is exact, needs no auxiliary variable, and keeps ties well defined.

One kernel computes both: :func:`batch_cvar` prices a batch of cost rows
that share one weight vector, and the schedule search in
:mod:`fleetmaint.optimize` calls it directly. :func:`cvar_alpha` is its
one-row case and :func:`var_alpha` its quantile step, so a schedule found
by the search reports the same objective when re-evaluated here.

Every scenario-weighted sum is taken by one rule, :func:`weighted_sum`:
the expected cost and the CVaR tail here, the matrix's row means and
failure table, the RUL rule's probabilities and the sampler's usage
mean. Each value is weighted first, and the products are added by
numpy's pairwise summation along the last axis of a C-ordered array,
whose order is fixed by the code and the length alone. So no value that
decides or prints goes through BLAS, whose kernels, and so whose bits,
depend on the CPU.

Cumulative-weight comparisons allow 1e-12 of absolute slack; without it,
accumulated rounding in equal weights (ten 0.1 entries sum to just under
1) would shift quantiles off their exact discrete values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CostDistribution",
    "expected_cost",
    "weighted_sum",
    "var_alpha",
    "cvar_alpha",
    "batch_cvar",
    "CUM_TOL",
]

CUM_TOL = 1e-12


@dataclass(frozen=True)
class CostDistribution:
    """A finite weighted distribution of schedule costs."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if v.ndim != 1 or w.ndim != 1 or v.shape != w.shape:
            raise ValueError("values and weights must be 1-D arrays of equal length")
        if v.size == 0:
            raise ValueError("distribution must be nonempty")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        if not np.all(w >= 0):  # False for NaN; an infinite weight fails the sum
            raise ValueError("weights must be finite and >= 0")
        if abs(float(w.sum()) - 1.0) > CUM_TOL:
            raise ValueError("weights must sum to 1 within 1e-12")
        v.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weights", w)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")


def weighted_sum(values, weights, out=None, products=None) -> np.ndarray:
    """The sum over the last axis of ``values`` times ``weights``.

    Every product is formed first, into ``products`` if given (a
    C-ordered array, which may be ``values`` itself) or else into a new
    C-ordered array, so no partial sum overflows where the weighted sum
    does not. The products are then added along their last axis by
    ``np.add.reduce``, numpy's pairwise summation, whose order of
    additions depends only on the axis length. ``weights`` broadcasts
    against ``values``: one weight per scenario, a scalar, or one per
    value. The result goes to ``out`` if given.
    """
    products = np.multiply(values, weights, out=products, order="C")
    return np.add.reduce(products, axis=-1, out=out)


def expected_cost(dist: CostDistribution) -> float:
    """Weight-averaged cost (:func:`weighted_sum`)."""
    return float(weighted_sum(dist.values, dist.weights))


@functools.lru_cache(maxsize=32)
def _equal_weight_index(s: int, weight: float, alpha: float) -> int:
    """The quantile position of S equal weights: the first whose
    cumulative weight reaches alpha, or the last. It depends on S, the
    weight and alpha alone, so it is accumulated once per triple."""
    cum = np.cumsum(np.full(s, weight))
    return min(int(np.searchsorted(cum, alpha - CUM_TOL, side="left")), s - 1)


def _batch_var(totals: np.ndarray, weights: np.ndarray, alpha: float) -> np.ndarray:
    """Lower alpha-quantile of each row of a (M, S) cost array.

    Equal weights share one quantile index (:func:`_equal_weight_index`)
    and use a partition instead of a full sort. Otherwise each row is
    sorted and its weights accumulated in that order; tied values need no
    merging, because the first position whose cumulative weight reaches
    alpha holds the same value whichever order the ties take.
    """
    s = weights.size
    if np.all(weights == weights[0]):
        k = _equal_weight_index(s, float(weights[0]), float(alpha))
        return np.partition(totals, k, axis=1)[:, k].copy()  # frees the (M, S) copy
    order = np.argsort(totals, axis=1)
    sorted_vals = np.take_along_axis(totals, order, axis=1)
    cum = np.cumsum(weights[order], axis=1)
    k = np.minimum((cum < alpha - CUM_TOL).sum(axis=1), s - 1)
    return sorted_vals[np.arange(totals.shape[0]), k]


def batch_cvar(totals: np.ndarray, weights: np.ndarray, alpha: float) -> np.ndarray:
    """CVaR_alpha of each row of a (M, S) cost array sharing one weight vector.

    The VaR of each row is its lower alpha-quantile; the CVaR is the
    weight-normalized mean over the row's values at or above it. Each row
    is summed on its own, so its value does not depend on its position or
    on the other rows of the batch.
    """
    totals = np.atleast_2d(np.asarray(totals, dtype=float))
    weights = np.asarray(weights, dtype=float)
    var = _batch_var(totals, weights, alpha)
    tail = (totals >= var[:, None]) * weights
    tail_weight = tail.sum(axis=1)
    # weighted in place, so the batch needs one (M, S) buffer
    return weighted_sum(totals, tail, products=tail) / tail_weight


def var_alpha(dist: CostDistribution, alpha: float) -> float:
    """Lower alpha-quantile: smallest value whose cumulative weight reaches alpha."""
    _check_alpha(alpha)
    return float(_batch_var(dist.values[None, :], dist.weights, alpha)[0])


def cvar_alpha(dist: CostDistribution, alpha: float) -> float:
    """Mean cost over the upper tail {z : z >= VaR_alpha}, weight-normalized."""
    _check_alpha(alpha)
    return float(batch_cvar(dist.values, dist.weights, alpha)[0])
