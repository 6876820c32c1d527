"""Feature/target preprocessing shared by the predictors.

Execution times in Redshift span seven orders of magnitude (Figure 1b), so
every learned model here regresses in log space; :class:`LogTargetTransform`
centralizes the transform and its inverse.  :class:`StandardScaler` is the
usual zero-mean/unit-variance scaler for the GCN's dense inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RunningMoments",
    "StandardScaler",
    "LogTargetTransform",
    "clip_features",
]


class RunningMoments:
    """Mergeable per-column mean/variance moments (parallel Welford).

    The vector analogue of :class:`repro.cache.welford.RunningStats`:
    ``(count, mean, M2)`` per feature column, with a pairwise ``merge``
    (Chan et al. 1982) so shards of a dataset can be reduced into the
    exact moments of the concatenation.  Used by the sharded global-model
    trainer: each worker computes one trace's moments, the parent merges
    them **in trace order**, so the fitted scaler is bit-identical for
    any shard assignment (floating-point addition is not associative —
    a fixed merge order is what makes the reduction shard-stable).
    """

    def __init__(self, n_features: int):
        self.count = 0
        self.mean = np.zeros(n_features, dtype=np.float64)
        self.m2 = np.zeros(n_features, dtype=np.float64)

    def update(self, X) -> "RunningMoments":
        """Fold a batch of rows into the moments (one merge per batch)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.mean.shape[0]:
            raise ValueError(f"expected (n, {self.mean.shape[0]}) rows, got {X.shape}")
        if X.shape[0] == 0:
            return self
        batch = RunningMoments(X.shape[1])
        batch.count = X.shape[0]
        batch.mean = X.mean(axis=0)
        batch.m2 = ((X - batch.mean) ** 2).sum(axis=0)
        return self.merge(batch)

    def merge(self, other: "RunningMoments") -> "RunningMoments":
        """Fold ``other``'s moments into ``self`` (in place)."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean.copy()
            self.m2 = other.m2.copy()
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean = self.mean + delta * (other.count / total)
        self.m2 = self.m2 + other.m2 + delta**2 * (self.count * other.count / total)
        self.count = total
        return self

    @property
    def variance(self) -> np.ndarray:
        """Population (``ddof=0``) variance per column."""
        if self.count < 1:
            return np.zeros_like(self.mean)
        return np.maximum(self.m2 / self.count, 0.0)

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.variance)


class StandardScaler:
    """Per-column standardization with variance floor."""

    def __init__(self):
        self.mean_ = None
        self.scale_ = None

    def fit(self, X):
        X = np.asarray(X, dtype=np.float64)
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        std[std < 1e-12] = 1.0
        self.scale_ = std
        return self

    @classmethod
    def from_moments(cls, moments: RunningMoments) -> "StandardScaler":
        """Build a fitted scaler from accumulated :class:`RunningMoments`."""
        if moments.count < 1:
            raise ValueError("cannot fit a scaler from zero observations")
        scaler = cls()
        scaler.mean_ = moments.mean.copy()
        std = moments.std
        std[std < 1e-12] = 1.0
        scaler.scale_ = std
        return scaler

    def transform(self, X):
        if self.mean_ is None:
            raise RuntimeError("StandardScaler.transform called before fit")
        return (np.asarray(X, dtype=np.float64) - self.mean_) / self.scale_

    def fit_transform(self, X):
        return self.fit(X).transform(X)

    def inverse_transform(self, X):
        if self.mean_ is None:
            raise RuntimeError("StandardScaler.inverse_transform called before fit")
        return np.asarray(X, dtype=np.float64) * self.scale_ + self.mean_


class LogTargetTransform:
    """``log1p``/``expm1`` transform for heavy-tailed exec-time targets.

    Predictions are clipped at ``max_seconds`` on the way back so that one
    wild model output cannot produce astronomically large estimates.
    """

    def __init__(self, max_seconds=1e6):
        self.max_seconds = max_seconds

    def transform(self, y):
        y = np.asarray(y, dtype=np.float64)
        return np.log1p(np.maximum(y, 0.0))

    def inverse(self, z):
        z = np.asarray(z, dtype=np.float64)
        return np.minimum(np.expm1(np.minimum(z, 50.0)), self.max_seconds)


def clip_features(X, low=-1e12, high=1e12):
    """Replace NaN/inf with zeros and clip extreme magnitudes."""
    X = np.asarray(X, dtype=np.float64)
    X = np.nan_to_num(X, nan=0.0, posinf=high, neginf=low)
    return np.clip(X, low, high)
