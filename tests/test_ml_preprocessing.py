"""Tests for scalers and target transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.preprocessing import LogTargetTransform, StandardScaler, clip_features


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(loc=5, scale=3, size=(500, 4))
        Z = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_not_divided_by_zero(self):
        X = np.column_stack([np.ones(10), np.arange(10, dtype=float)])
        Z = StandardScaler().fit_transform(X)
        assert np.isfinite(Z).all()

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 3))
        scaler = StandardScaler().fit(X)
        np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(X)), X, atol=1e-9)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((2, 2)))


class TestLogTargetTransform:
    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e5, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, values):
        t = LogTargetTransform()
        y = np.asarray(values)
        np.testing.assert_allclose(t.inverse(t.transform(y)), y, rtol=1e-9, atol=1e-9)

    def test_negative_inputs_clamped(self):
        t = LogTargetTransform()
        assert t.transform(np.array([-5.0]))[0] == 0.0

    def test_inverse_clipped_at_max(self):
        t = LogTargetTransform(max_seconds=100.0)
        assert t.inverse(np.array([40.0]))[0] == 100.0


class TestClipFeatures:
    def test_replaces_nan_and_inf(self):
        X = np.array([[np.nan, np.inf, -np.inf, 1.0]])
        out = clip_features(X, low=-10, high=10)
        np.testing.assert_allclose(out, [[0.0, 10.0, -10.0, 1.0]])

    def test_clips_range(self):
        out = clip_features(np.array([[1e20, -1e20]]), low=-5, high=5)
        np.testing.assert_allclose(out, [[5.0, -5.0]])
