"""Tests for the gradient boosting machine."""

import hashlib

import numpy as np
import pytest

from repro import FleetConfig, FleetGenerator, fast_profile
from repro.core.autowlm import AutoWLMPredictor
from repro.local_model import LocalModel
from repro.ml.gbm import GradientBoostingModel
from repro.ml.tree import Binner


@pytest.fixture(scope="module")
def regression_data():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(600, 6))
    y = 2 * X[:, 0] - X[:, 1] ** 2 + 0.3 * rng.normal(size=600)
    return X, y


class TestFitBasics:
    def test_improves_over_constant(self, regression_data):
        X, y = regression_data
        model = GradientBoostingModel(n_estimators=50, max_depth=3, random_state=0)
        model.fit(X, y)
        mse = np.mean((model.predict(X) - y) ** 2)
        assert mse < 0.5 * np.var(y)

    def test_train_loss_non_increasing_without_subsample(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 4))
        y = X[:, 0] + rng.normal(size=300) * 0.1
        model = GradientBoostingModel(
            n_estimators=30,
            max_depth=3,
            subsample=1.0,
            early_stopping_rounds=None,
            random_state=0,
        )
        model.fit(X, y)
        losses = np.array(model.train_losses_)
        assert (np.diff(losses) <= 1e-9).all()

    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError, match="empty"):
            GradientBoostingModel().fit(np.zeros((0, 3)), np.zeros(0))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            GradientBoostingModel().fit(np.zeros((5, 3)), np.zeros(4))

    def test_1d_x_raises(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            GradientBoostingModel().fit(np.zeros(5), np.zeros(5))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            GradientBoostingModel().predict(np.zeros((2, 2)))

    def test_tiny_dataset_trains(self):
        """Below the early-stopping row threshold the model still fits."""
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 1.0, 2.0, 3.0])
        model = GradientBoostingModel(n_estimators=10, random_state=0)
        model.fit(X, y)
        assert model.predict(X).shape == (4,)


class TestEarlyStopping:
    def test_early_stopping_limits_rounds(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(400, 3))
        y = rng.normal(size=400)  # pure noise: should stop early
        model = GradientBoostingModel(
            n_estimators=200,
            early_stopping_rounds=5,
            random_state=0,
        )
        model.fit(X, y)
        assert model.best_iteration_ < 200
        assert len(model.trees_) == model.best_iteration_

    def test_explicit_eval_set(self, regression_data):
        X, y = regression_data
        model = GradientBoostingModel(n_estimators=40, early_stopping_rounds=5, random_state=0)
        model.fit(X[:400], y[:400], eval_set=(X[400:], y[400:]))
        assert len(model.val_losses_) >= model.best_iteration_

    def test_disabled_early_stopping_runs_all_rounds(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 2))
        y = rng.normal(size=100)
        model = GradientBoostingModel(n_estimators=15, early_stopping_rounds=None, random_state=0)
        model.fit(X, y)
        assert len(model.trees_) == 15


class TestObjectives:
    def test_absolute_error_objective(self, regression_data):
        X, y = regression_data
        model = GradientBoostingModel(
            objective="absolute_error",
            n_estimators=60,
            max_depth=3,
            random_state=0,
        )
        model.fit(X, y)
        mae = np.mean(np.abs(model.predict(X) - y))
        assert mae < np.mean(np.abs(y - np.median(y)))

    def test_gaussian_nll_outputs_mean_and_variance(self, regression_data):
        X, y = regression_data
        model = GradientBoostingModel(
            objective="gaussian_nll",
            n_estimators=40,
            max_depth=3,
            random_state=0,
        )
        model.fit(X, y)
        mean, var = model.predict_dist(X)
        assert mean.shape == var.shape == y.shape
        assert (var > 0).all()
        # the mean head should still track the target
        assert np.corrcoef(mean, y)[0, 1] > 0.8

    def test_gaussian_nll_variance_tracks_noise(self):
        """Heteroscedastic data: predicted variance should be larger in the
        high-noise region than in the low-noise region."""
        rng = np.random.default_rng(3)
        n = 2000
        X = rng.uniform(-1, 1, size=(n, 1))
        noise = np.where(X[:, 0] > 0, 2.0, 0.1)
        y = rng.normal(scale=noise)
        model = GradientBoostingModel(
            objective="gaussian_nll",
            n_estimators=60,
            max_depth=2,
            learning_rate=0.2,
            random_state=0,
        )
        model.fit(X, y)
        _, var = model.predict_dist(np.array([[0.5], [-0.5]]))
        assert var[0] > var[1]


class TestSampling:
    def test_subsample_and_colsample(self, regression_data):
        X, y = regression_data
        model = GradientBoostingModel(
            n_estimators=40,
            subsample=0.7,
            colsample=0.5,
            max_depth=3,
            random_state=0,
        )
        model.fit(X, y)
        assert np.mean((model.predict(X) - y) ** 2) < np.var(y)

    def test_seed_reproducibility(self, regression_data):
        X, y = regression_data
        preds = []
        for _ in range(2):
            model = GradientBoostingModel(n_estimators=20, subsample=0.8, random_state=42)
            model.fit(X, y)
            preds.append(model.predict(X[:20]))
        np.testing.assert_allclose(preds[0], preds[1])

    def test_different_seeds_differ(self, regression_data):
        X, y = regression_data
        models = [
            GradientBoostingModel(
                n_estimators=20, subsample=0.8, random_state=s
            ).fit(X, y)
            for s in (0, 1)
        ]
        assert not np.allclose(models[0].predict(X[:50]), models[1].predict(X[:50]))


class TestIntrospection:
    def test_n_trees_counts_params(self, regression_data):
        X, y = regression_data
        model = GradientBoostingModel(
            objective="gaussian_nll",
            n_estimators=10,
            early_stopping_rounds=None,
            random_state=0,
        )
        model.fit(X, y)
        assert model.n_trees == 2 * len(model.trees_)

    def test_byte_size_positive(self, regression_data):
        X, y = regression_data
        model = GradientBoostingModel(n_estimators=5, random_state=0)
        assert model.byte_size() == 0
        model.fit(X, y)
        assert model.byte_size() > 0


# ---------------------------------------------------------------------------
# golden model digests
# ---------------------------------------------------------------------------
#: SHA-256 of every tree array of two models fit on a fixed trace prefix,
#: recorded before the split search was vectorized.  Any change to the fit
#: kernel that moves one bit of one tree changes them.  They fingerprint a
#: numpy build too (featurization and the Gaussian-NLL gradients go through
#: its exp/log kernels), like the drift-gated results/*.txt do.
GOLDEN_LOCAL_ENSEMBLE = "f77a3a784b14d240dffcdf484ac8390599d835dabb6b4b14974591f428b7486e"
GOLDEN_AUTOWLM = "27e106571f3a07b08d4a5bd4c62117c09b5432cf16d0a4c1476817e522c5b7dc"


def _tree_digest(models, binners):
    """Hash ``models``' trees as the digests were recorded: with each
    split's bin index beside its raw threshold.  A tree stores only the
    threshold, the bin's upper edge, so the index is rebuilt from the
    edges of ``binners``, the binner each model's fit used."""
    digest = hashlib.sha256()
    for model, binner in zip(models, binners, strict=True):
        digest.update(np.asarray(model.init_raw_, dtype=np.float64).tobytes())
        for round_trees in model.trees_:
            for tree in round_trees:
                threshold_bin = np.zeros(tree.n_nodes_, dtype=np.int32)
                for nid in np.flatnonzero(~tree.is_leaf_):
                    edges = binner.bin_edges_[tree.feature_[nid]]
                    threshold_bin[nid] = np.searchsorted(edges, tree.threshold_[nid])
                    assert edges[threshold_bin[nid]] == tree.threshold_[nid]
                for array in (
                    tree.feature_,
                    tree.threshold_,
                    threshold_bin,
                    tree.left_,
                    tree.right_,
                    tree.value_,
                    tree.is_leaf_,
                ):
                    digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.fixture
def fitted_binners(monkeypatch):
    """Every :class:`Binner` fit while the test runs, in fit order: a
    boosting fit bins its rows once, so a model's binner is the one fit
    with it."""
    fitted = []
    fit = Binner.fit

    def spy(self, X):
        fitted.append(self)
        return fit(self, X)

    monkeypatch.setattr(Binner, "fit", spy)
    return fitted


@pytest.fixture(scope="module")
def trace_prefix():
    gen = FleetGenerator(FleetConfig(seed=1, volume_scale=0.3))
    trace = gen.generate_trace(gen.sample_instance(0), 2.0)
    return [trace[i] for i in range(400)]


class TestGoldenDigests:
    def test_fast_profile_local_ensemble(self, trace_prefix, fitted_binners):
        profile = fast_profile()
        model = LocalModel(profile.local, profile.pool, random_state=3)
        for record in trace_prefix:
            model.add_example(record.features, record.exec_time)
        assert model.n_retrains == 3
        # the last retrain fit the members in order, one binner each
        members = model._ensemble.members_
        binners = fitted_binners[-len(members) :]
        assert _tree_digest(members, binners) == GOLDEN_LOCAL_ENSEMBLE

    def test_autowlm_gbm(self, trace_prefix, fitted_binners):
        predictor = AutoWLMPredictor(fast_profile().local, random_state=5)
        for record in trace_prefix:
            predictor.observe(record)
        assert predictor.n_retrains == 3
        assert _tree_digest([predictor._model], fitted_binners[-1:]) == GOLDEN_AUTOWLM
