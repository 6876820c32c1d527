"""The instance-optimized local model (paper Section 4.3).

A Bayesian ensemble of Gaussian-NLL gradient-boosting models trained on
the instance's own training pool.  Targets are regressed in ``log1p``
space (Redshift latencies span seven decades); the returned uncertainty
is therefore a *relative* (log-space) spread, which is exactly what the
Stage router needs to decide when to escalate to the global model.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.config import LocalModelConfig, TrainingPoolConfig
from repro.core.interfaces import Prediction, PredictionSource
from repro.ml.ensemble import BayesianGBMEnsemble
from repro.ml.preprocessing import LogTargetTransform

from .training_pool import TrainingPool

__all__ = ["FrozenLocalModel", "LocalModel"]


class FrozenLocalModel:
    """Read-only view of one trained ensemble (one retrain window).

    Between two retrains the ensemble is immutable, so predictions for
    any query that arrived inside that window can be deferred and served
    later in a single batched call — even after the live
    :class:`LocalModel` has retrained and replaced its ensemble.  The
    replay harness uses this to turn per-query component collection into
    one ensemble invocation per retrain window.
    """

    def __init__(
        self,
        ensemble: BayesianGBMEnsemble,
        transform: LogTargetTransform,
        generation: int,
    ):
        self.ensemble = ensemble
        self.transform = transform
        #: the ``n_retrains`` value this snapshot was taken at
        self.generation = generation

    def predict_batch(self, X: np.ndarray) -> List[Prediction]:
        """Predict a batch of feature rows in one ensemble call.

        Row ``i`` of the result is bit-identical to
        ``LocalModel.predict(X[i])`` against the same ensemble.  Each
        member walks every (row, tree) pair of its packed forest on its
        own and sums a row's leaf values with a ``cumsum`` along the tree
        axis, in tree order; the ensemble moments then accumulate member
        by member, per row.  No sum ever runs across rows, so a row's
        answer is the same arithmetic in any batch.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = self.ensemble.predict(X)
        exec_times = self.transform.inverse(out.mean)
        # the member-spread quantile bounds ride through the same
        # (monotone) inverse transform as the mean; exec-times are
        # non-negative, so the lower bound is clamped at zero
        interval_low = np.maximum(self.transform.inverse(out.interval_low), 0.0)
        interval_high = self.transform.inverse(out.interval_high)
        return [
            Prediction(
                exec_time=float(exec_times[i]),
                variance=float(out.total_uncertainty[i]),
                source=PredictionSource.LOCAL,
                model_uncertainty=float(out.model_uncertainty[i]),
                data_uncertainty=float(out.data_uncertainty[i]),
                interval_low=float(interval_low[i]),
                interval_high=float(interval_high[i]),
            )
            for i in range(X.shape[0])
        ]


class LocalModel:
    """Online wrapper: pool management + periodic ensemble retraining."""

    def __init__(
        self,
        config: LocalModelConfig | None = None,
        pool_config: TrainingPoolConfig | None = None,
        random_state: int = 0,
    ):
        self.config = config or LocalModelConfig()
        self.pool = TrainingPool(pool_config)
        self.random_state = random_state
        self.transform = LogTargetTransform()
        self._ensemble: Optional[BayesianGBMEnsemble] = None
        self._samples_since_train = 0
        self.n_retrains = 0

    # ------------------------------------------------------------------
    @property
    def is_ready(self) -> bool:
        """True once an ensemble has been trained."""
        return self._ensemble is not None

    @property
    def retrain_due(self) -> bool:
        """Whether :meth:`add_example` would retrain right now.

        The deferral hook's probe: a caller holding retrains back
        (``allow_retrain=False``) checks this to know when a release
        (an explicit :meth:`retrain`) is owed.
        """
        if len(self.pool) < self.config.min_train_size:
            return False
        return not self.is_ready or self._samples_since_train >= self.config.retrain_interval

    def add_example(
        self,
        features: np.ndarray,
        exec_time: float,
        cache_hit: bool = False,
        allow_retrain: bool = True,
    ) -> None:
        """Record one executed query; may trigger a retrain.

        ``allow_retrain=False`` holds a due *warm* retrain back (the
        forecaster's trough-deferral path calls :meth:`retrain` itself
        later); the bootstrap train — the model has no ensemble yet — is
        never deferred, since until it runs every prediction falls
        through to the global/default tier.
        """
        if self.pool.add(features, exec_time, cache_hit=cache_hit):
            self._samples_since_train += 1
        cfg = self.config
        pool_size = len(self.pool)
        if pool_size < cfg.min_train_size:
            return
        if not self.is_ready:
            self.retrain()
            return
        if allow_retrain and self._samples_since_train >= cfg.retrain_interval:
            self.retrain()

    def retrain(self) -> None:
        """Fit a fresh ensemble on the current pool contents."""
        X, y = self.pool.dataset()
        if X.shape[0] < 2:
            return
        cfg = self.config
        ensemble = BayesianGBMEnsemble(
            n_members=cfg.n_members,
            random_state=self.random_state + self.n_retrains,
            n_estimators=cfg.n_estimators,
            max_depth=cfg.max_depth,
            learning_rate=cfg.learning_rate,
            validation_fraction=cfg.validation_fraction,
            early_stopping_rounds=cfg.early_stopping_rounds,
            subsample=cfg.subsample,
        )
        ensemble.fit(X, self.transform.transform(y))
        self._ensemble = ensemble
        self._samples_since_train = 0
        self.n_retrains += 1

    # ------------------------------------------------------------------
    def predict(self, features: np.ndarray) -> Prediction:
        """Predict exec-time with decomposed uncertainty and interval.

        The batch-size-1 case of :meth:`FrozenLocalModel.predict_batch`
        — one construction path, so the per-query and batched answers
        (point, variance decomposition *and* interval bounds) cannot
        drift.  Raises ``RuntimeError`` if called before the first
        retrain; use :attr:`is_ready` to guard.
        """
        if self._ensemble is None:
            raise RuntimeError("local model has no trained ensemble yet")
        return self.frozen().predict_batch(np.asarray(features)[None, :])[0]

    def frozen(self) -> Optional[FrozenLocalModel]:
        """Snapshot of the current ensemble, or ``None`` if not ready.

        The snapshot stays valid (and keeps answering from the same
        ensemble) across later retrains of this model.
        """
        if self._ensemble is None:
            return None
        return FrozenLocalModel(self._ensemble, self.transform, self.n_retrains)

    def byte_size(self) -> int:
        if self._ensemble is None:
            return 0
        return self._ensemble.byte_size()
