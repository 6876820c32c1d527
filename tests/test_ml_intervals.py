"""The standard-normal quantile behind every interval: ``z_for``.

``z_for`` evaluates a pure-Python port of the Cephes ``ndtri`` rather
than importing scipy, so it is held to scipy's own ``ndtri`` bit for bit:
golden values for a few confidences, and (where scipy is installed) a
cross-check over probabilities spanning the central branch and both
tails of the approximation.
"""

import math

import numpy as np
import pytest

from repro.ml.intervals import NOMINAL_CONFIDENCE, _ndtri, z_for

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
