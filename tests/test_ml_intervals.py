"""The standard-normal quantile behind every interval (``z_for``) and
the ensemble's member quantiles.

``z_for`` evaluates a pure-Python port of the Cephes ``ndtri`` rather
than importing scipy, so it is held to scipy's own ``ndtri`` bit for bit:
golden values for a few confidences, and (where scipy is installed) a
cross-check over probabilities spanning the central branch and both
tails of the approximation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.intervals import (
    NOMINAL_CONFIDENCE,
    _member_quantile,
    _ndtri,
    member_quantile_bounds,
    z_for,
)

#: confidence -> z, as ``float.hex`` of ``scipy.special.ndtri(0.5 + c / 2)``;
#: 0.999999 lands in the first tail branch, 1 - 1e-14 in the second
GOLDEN = {
    1e-9: "0x1.58822631fc51fp-30",
    0.5: "0x1.5956b87528a49p-1",
    0.8: "0x1.4813c36e26d32p+0",
    0.9: "0x1.a515209676abbp+0",
    0.95: "0x1.f5c0331eeff84p+0",
    0.99: "0x1.49b4c64d69160p+1",
    0.999999: "0x1.39109ad33734ep+2",
    1 - 1e-14: "0x1.ef51a42dc43ddp+2",
}


class TestZFor:
    def test_nominal_confidence_golden(self):
        assert z_for(NOMINAL_CONFIDENCE) == float.fromhex("0x1.a515209676abbp+0")

    @pytest.mark.parametrize("confidence", sorted(GOLDEN))
    def test_golden_values(self, confidence):
        assert z_for(confidence) == float.fromhex(GOLDEN[confidence])

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_confidence_outside_unit_interval_rejected(self, confidence):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            z_for(confidence)

    def test_endpoints_and_domain(self):
        assert _ndtri(0.0) == -math.inf
        assert _ndtri(1.0) == math.inf
        assert _ndtri(0.5) == 0.0
        assert math.isnan(_ndtri(-0.5)) and math.isnan(_ndtri(2.0))

    def test_bit_identical_to_scipy_ndtri(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(0)
        exp_m2 = math.exp(-2.0)
        probs = np.concatenate(
            [
                rng.random(40_000),
                # the central branch, edge to edge
                np.linspace(exp_m2, 1.0 - exp_m2, 20_001),
                # lower tail: exp(-32) splits the two tail approximations
                10.0 ** rng.uniform(-300.0, -0.9, 20_000),
                # upper tail, up to the last double below 1
                1.0 - 10.0 ** rng.uniform(-16.0, -0.9, 20_000),
                [
                    5e-324,
                    1e-300,
                    math.exp(-32.0),
                    np.nextafter(math.exp(-32.0), 0.0),
                    exp_m2,
                    np.nextafter(exp_m2, 1.0),
                    1.0 - exp_m2,
                    np.nextafter(1.0 - exp_m2, 0.0),
                    1.0 - 1e-16,
                    np.nextafter(1.0, 0.0),
                ],
            ]
        )
        assert probs.size >= 100_000
        expected = special.ndtri(probs)
        got = np.array([_ndtri(float(p)) for p in probs])
        mismatch = np.flatnonzero(got != expected)
        assert mismatch.size == 0, (
            f"{mismatch.size} mismatches, e.g. p={probs[mismatch[0]]!r}: "
            f"{got[mismatch[0]]!r} != {expected[mismatch[0]]!r}"
        )


@st.composite
def _member_columns(draw):
    """``(K, N)`` member values rich in NaN, +-inf, ties and signed zeros."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    shape = (draw(st.integers(min_value=1, max_value=12)), draw(st.integers(1, 9)))
    pool = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0, 1e308, -1e308, 5e-324])
    values = np.where(
        rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 1.0])),
        rng.choice(pool, size=shape),
        rng.normal(size=shape),
    )
    q = draw(st.sampled_from([0.0, 0.05, 0.25, 0.5, 0.95, 1.0, 1 / 3]) | st.floats(0.0, 1.0))
    return values, q


class TestMemberQuantile:
    @given(_member_columns())
    @settings(max_examples=300, deadline=None)
    def test_equals_np_quantile_bit_for_bit(self, problem):
        values, q = problem
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.quantile(values, q, axis=0)
            got = _member_quantile(values, q)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(_member_columns())
    @settings(max_examples=100, deadline=None)
    def test_bounds_equal_np_quantile_bounds(self, problem):
        mus, _ = problem
        sigma2s = np.abs(np.nan_to_num(mus[::-1], nan=1.0, posinf=2.0, neginf=0.5))
        z = z_for(NOMINAL_CONFIDENCE)
        spread = z * np.sqrt(np.maximum(sigma2s, 0.0))
        alpha = (1.0 - NOMINAL_CONFIDENCE) / 2.0
        mean = np.zeros(mus.shape[1])
        with np.errstate(invalid="ignore", over="ignore"):
            want_low = np.minimum(np.quantile(mus - spread, alpha, axis=0), mean)
            want_high = np.maximum(np.quantile(mus + spread, 1.0 - alpha, axis=0), mean)
            low, high = member_quantile_bounds(mus, sigma2s, mean=mean)
        assert low.tobytes() == want_low.tobytes()
        assert high.tobytes() == want_high.tobytes()
