"""Tests for the local model wrapper (online retraining + uncertainty)."""

import numpy as np
import pytest

from repro.core.config import LocalModelConfig
from repro.core.interfaces import PredictionSource
from repro.local_model import LocalModel


def _fast_config(**overrides):
    base = dict(
        n_members=3,
        n_estimators=15,
        max_depth=3,
        min_train_size=20,
        retrain_interval=50,
    )
    base.update(overrides)
    return LocalModelConfig(**base)


def _make_examples(n, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    y = np.exp(1.0 + X[:, 0]) * rng.lognormal(0, 0.1, size=n)
    return X, y


class TestLifecycle:
    def test_not_ready_until_min_train_size(self):
        model = LocalModel(_fast_config())
        X, y = _make_examples(19)
        for i in range(19):
            model.add_example(X[i], y[i])
        assert not model.is_ready
        with pytest.raises(RuntimeError):
            model.predict(X[0])

    def test_trains_at_min_size(self):
        model = LocalModel(_fast_config())
        X, y = _make_examples(20)
        for i in range(20):
            model.add_example(X[i], y[i])
        assert model.is_ready
        assert model.n_retrains == 1

    def test_retrain_interval(self):
        model = LocalModel(_fast_config())
        X, y = _make_examples(120)
        for i in range(120):
            model.add_example(X[i], y[i])
        # first train at 20, then retrains every 50 additions: 70, 120
        assert model.n_retrains == 3

    def test_cache_hits_do_not_count_toward_retraining(self):
        model = LocalModel(_fast_config())
        X, y = _make_examples(30)
        for i in range(30):
            model.add_example(X[i], y[i], cache_hit=True)
        assert not model.is_ready
        assert len(model.pool) == 0


class TestPrediction:
    @pytest.fixture(scope="class")
    def trained(self):
        model = LocalModel(_fast_config(), random_state=1)
        X, y = _make_examples(300, seed=1)
        for i in range(300):
            model.add_example(X[i], y[i])
        return model, X, y

    def test_prediction_fields(self, trained):
        model, X, _ = trained
        pred = model.predict(X[0])
        assert pred.source == PredictionSource.LOCAL
        assert pred.exec_time >= 0
        assert pred.variance >= 0
        assert pred.variance == pytest.approx(pred.model_uncertainty + pred.data_uncertainty)

    def test_tracks_target(self, trained):
        model, X, y = trained
        preds = np.array([model.predict(X[i]).exec_time for i in range(100)])
        assert np.corrcoef(np.log1p(preds), np.log1p(y[:100]))[0, 1] > 0.7

    def test_byte_size(self, trained):
        model, _, _ = trained
        assert model.byte_size() > 0
        assert LocalModel(_fast_config()).byte_size() == 0

    def test_predict_batch_rowwise_equals_predict(self, trained):
        """One batched ensemble call must be bit-identical, row by row,
        to looping :meth:`predict` — the replay harness relies on this
        to defer component inference without changing any array."""
        model, X, _ = trained
        batch = model.frozen().predict_batch(X[:50])
        assert len(batch) == 50
        for i, bp in enumerate(batch):
            lp = model.predict(X[i])
            assert bp.exec_time == lp.exec_time
            assert bp.variance == lp.variance
            assert bp.model_uncertainty == lp.model_uncertainty
            assert bp.data_uncertainty == lp.data_uncertainty
            assert bp.source == PredictionSource.LOCAL

    def test_predict_batch_requires_trained_model(self):
        """Before the first retrain there is no frozen ensemble to batch
        against, and the one-row predict raises."""
        model = LocalModel(_fast_config())
        assert model.frozen() is None
        with pytest.raises(RuntimeError):
            model.predict(np.zeros(6))

    def test_frozen_snapshot_survives_retrain(self):
        """A frozen snapshot keeps answering from its own ensemble even
        after the live model retrains (per-retrain-window batching)."""
        model = LocalModel(_fast_config(), random_state=3)
        X, y = _make_examples(60, seed=2)
        for i in range(60):
            model.add_example(X[i], y[i])
        frozen = model.frozen()
        assert frozen is not None and frozen.generation == model.n_retrains
        before = frozen.predict_batch(X[:5])
        model.retrain()
        assert model.n_retrains == frozen.generation + 1
        after = frozen.predict_batch(X[:5])
        for a, b in zip(before, after):
            assert a.exec_time == b.exec_time and a.variance == b.variance

    def test_uncertainty_higher_off_distribution(self, trained):
        """Novel feature regions should carry higher total uncertainty on
        average than the densest training region."""
        model, X, _ = trained
        in_dist = np.mean([model.predict(X[i]).variance for i in range(60)])
        rng = np.random.default_rng(5)
        off = np.mean([model.predict(rng.normal(loc=8.0, size=6)).variance for _ in range(60)])
        assert off > in_dist * 0.5  # at minimum, not dramatically lower
