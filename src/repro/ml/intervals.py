"""The interval algebra shared by every layer of the prediction path.

The paper's uncertainty story (Section 2.1: downstream consumers "need a
confidence interval to ensure good worst-case behavior") is threaded
through the whole stack in this repo: the exec-time cache derives a
prediction interval from its Welford statistics, the local Bayesian
ensemble derives member-spread quantile intervals, and the global model
carries a residual-variance head fit at training time.  This module owns
the arithmetic all three share, plus the empirical-coverage estimator
and the fixed-bin width histogram the serving stats roll up.

Every function here is engineered for the repo's bit-parity contracts:

- :func:`member_quantile_bounds` reduces over the member axis with
  ``np.quantile``'s linear method (a per-column partition + elementwise
  interpolation), so the bounds are *permutation-stable* across member
  order and a row predicted in any batch is bit-identical to predicting
  it alone;
- :func:`welford_interval` is scalar arithmetic on ``(count,
  sample_variance)`` — its half-width shrinks monotonically with the
  observation count for a fixed variance;
- the width histogram uses fixed bin edges and integer counts, so
  per-instance histograms merge across gateway shards by elementwise
  addition without any float reduction-order sensitivity.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "NOMINAL_CONFIDENCE",
    "WIDTH_BIN_EDGES",
    "empirical_coverage",
    "member_quantile_bounds",
    "merge_width_bins",
    "new_width_bins",
    "welford_interval",
    "width_bin_index",
    "width_percentile_from_bins",
    "z_for",
]

#: the one confidence level carried end to end (cache -> gateway); the
#: calibration scorecard checks empirical coverage against this nominal
NOMINAL_CONFIDENCE = 0.9

_Z_CACHE: dict = {}

# ---------------------------------------------------------------------------
# standard-normal quantile: a pure-Python port of the Cephes ``ndtri``
# ---------------------------------------------------------------------------
# Rational approximations from Cephes (S. L. Moshier): the C routine's
# coefficients, branches and evaluation order, so the port returns its
# floats bit for bit (tests/test_ml_intervals.py cross-checks the central
# branch and both tails against the compiled routine).

_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2): the central/tail boundary

# |y - 0.5| <= 3/8
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (  # leading 1.0 implied (p1evl)
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# z = sqrt(-2 log y) in [2, 8): y in [exp(-32), exp(-2))
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# z in [8, 64): y down to exp(-2048), below the smallest double
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polevl(x: float, coef: Tuple[float, ...]) -> float:
    """Horner evaluation of ``coef[0] x^N + ... + coef[N]``."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: Tuple[float, ...]) -> float:
    """:func:`_polevl` with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """Inverse of the standard-normal CDF for ``y0`` in ``[0, 1]``."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


def z_for(confidence: float) -> float:
    """Two-sided standard-normal quantile for ``confidence`` coverage.

    Pure Python (:func:`_ndtri`): a serving process needs this one
    constant, not a compiled special-functions library (~19 MB resident
    per shard) to compute it.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    z = _Z_CACHE.get(confidence)
    if z is None:
        z = _Z_CACHE[confidence] = _ndtri(0.5 + confidence / 2.0)
    return z


# ---------------------------------------------------------------------------
# cache: Welford-variance prediction intervals (seconds domain)
# ---------------------------------------------------------------------------
def welford_interval(
    point: float,
    count: int,
    sample_variance: float,
    confidence: float = NOMINAL_CONFIDENCE,
) -> Tuple[float, float]:
    """Prediction interval around a cache estimate, from Welford stats.

    Uses the classic prediction-interval half-width ``z * sqrt(s2 * (1 +
    1/n))`` — the spread of the *next* observation, not of the mean — so
    for a fixed sample variance the interval shrinks strictly
    monotonically as ``n`` grows (the Hypothesis property suite pins
    this).  Entries with fewer than two observations (or zero variance)
    collapse to the point; the lower bound is clamped at 0 because
    exec-times cannot be negative.
    """
    if count < 2 or sample_variance <= 0.0:
        return (point, point)
    half = z_for(confidence) * math.sqrt(sample_variance * (1.0 + 1.0 / count))
    return (max(point - half, 0.0), point + half)


# ---------------------------------------------------------------------------
# ensemble: member-spread quantile bounds (log space, vectorized)
# ---------------------------------------------------------------------------
def member_quantile_bounds(
    mus: np.ndarray,
    sigma2s: np.ndarray,
    mean: np.ndarray | None = None,
    confidence: float = NOMINAL_CONFIDENCE,
) -> Tuple[np.ndarray, np.ndarray]:
    """Quantile interval bounds over the member axis of an ensemble.

    ``mus``/``sigma2s`` are ``(K, N)``: member ``k``'s Gaussian mean and
    variance for each of ``N`` queries.  Each member contributes its own
    ``mu_k +- z * sigma_k`` band; the ensemble bounds are the
    ``alpha/2`` / ``1 - alpha/2`` quantiles of those per-member bounds,
    widened (elementwise) to always contain the ensemble mean.

    ``np.quantile(..., axis=0)`` partitions each column independently,
    which gives the two invariants the parity contracts need: the result
    is identical under any permutation of the members, and each column's
    bound never depends on which other columns share the batch.  The
    bounds are :func:`_member_quantile`, ``np.quantile`` without its
    dispatch.
    """
    z = z_for(confidence)
    mus = np.asarray(mus, dtype=np.float64)
    spread = z * np.sqrt(np.maximum(np.asarray(sigma2s, dtype=np.float64), 0.0))
    alpha = (1.0 - confidence) / 2.0
    low = _member_quantile(mus - spread, alpha)
    high = _member_quantile(mus + spread, 1.0 - alpha)
    if mean is None:
        # member-order-stable ensemble mean (same accumulation order as
        # BayesianGBMEnsemble.predict) so the containment widening is exact
        mean = np.zeros(mus.shape[1])
        for k in range(mus.shape[0]):
            mean += mus[k]
        mean /= mus.shape[0]
    return np.minimum(low, mean), np.maximum(high, mean)


def _member_quantile(values, q):
    """``np.quantile(values, q, axis=0)`` for a float ``q``, bit for bit.

    The members are few and ``q`` is fixed, so each column's quantile is
    two order statistics and numpy's linear interpolation between them.
    This takes them as ``np.quantile`` does: the same virtual index and
    weight, the same partition of each column, the same ``_lerp``
    arithmetic and the same NaN rule (a column holding a NaN answers
    NaN); only the dispatch around them is left out.
    """
    n = values.shape[0]
    virtual = (n - 1) * np.float64(q)
    below = np.floor(virtual)
    if virtual >= n - 1:  # at or past the last member: the largest value
        below = above = -1
    else:
        above = below + 1
        if virtual < 0:
            below = above = 0
    t = float(virtual - below)
    below, above = int(below), int(above)
    ordered = values.copy()
    ordered.partition(np.unique(np.array([0, -1, below, above])), axis=0)
    a, b = ordered[below], ordered[above]
    diff = b - a
    result = a + diff * t
    if t >= 0.5:
        result = np.subtract(b, diff * (1 - t))
    np.copyto(result, ordered[-1], where=np.isnan(ordered[-1]))
    return result


# ---------------------------------------------------------------------------
# scorecard: empirical coverage
# ---------------------------------------------------------------------------
def empirical_coverage(true, low, high) -> float:
    """Fraction of ``true`` values inside ``[low, high]``.

    Rows where any of the three is NaN are excluded (a NaN bound means
    the source never answered that query); all-NaN input returns NaN.
    Matches the brute-force per-row count exactly — the Hypothesis suite
    checks the equivalence.
    """
    true = np.asarray(true, dtype=np.float64)
    low = np.asarray(low, dtype=np.float64)
    high = np.asarray(high, dtype=np.float64)
    valid = ~(np.isnan(true) | np.isnan(low) | np.isnan(high))
    n = int(valid.sum())
    if n == 0:
        return float("nan")
    inside = (true[valid] >= low[valid]) & (true[valid] <= high[valid])
    return float(int(inside.sum()) / n)


# ---------------------------------------------------------------------------
# serving stats: fixed-bin interval-width histogram (mergeable)
# ---------------------------------------------------------------------------
#: fixed seconds-domain bin edges; bin ``i`` holds widths in
#: ``[edges[i-1], edges[i])`` with an open first and last bin
WIDTH_BIN_EDGES = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 300.0, 1800.0)

#: number of counters in a width histogram
N_WIDTH_BINS = len(WIDTH_BIN_EDGES) + 1


def new_width_bins() -> list:
    """A zeroed width histogram (one counter per bin)."""
    return [0] * N_WIDTH_BINS


def width_bin_index(width: float) -> int:
    """The histogram bin holding ``width`` (seconds)."""
    return bisect_right(WIDTH_BIN_EDGES, width)


def merge_width_bins(a: Sequence[int], b: Sequence[int]) -> list:
    """Elementwise sum of two width histograms (gateway fleet roll-up)."""
    if len(a) != len(b):
        raise ValueError(f"width histograms differ in size: {len(a)} vs {len(b)}")
    return [int(x) + int(y) for x, y in zip(a, b)]


def width_percentile_from_bins(bins: Sequence[int], q: float) -> float:
    """Deterministic percentile readout of a width histogram.

    Returns the upper edge of the bin containing the ``q``-quantile
    observation (integer rank arithmetic only — merge order can never
    change the answer); the open top bin reports ``inf`` and an empty
    histogram reports 0.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    total = sum(int(c) for c in bins)
    if total == 0:
        return 0.0
    rank = max(1, math.ceil(q * total))
    seen = 0
    for i, count in enumerate(bins):
        seen += int(count)
        if seen >= rank:
            return float(WIDTH_BIN_EDGES[i]) if i < len(WIDTH_BIN_EDGES) else float("inf")
    return float("inf")
