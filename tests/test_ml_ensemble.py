"""Tests for the Bayesian GBM ensemble (paper Eq. 1-2)."""

import numpy as np
import pytest

from repro.ml.ensemble import BayesianGBMEnsemble


@pytest.fixture(scope="module")
def fitted_ensemble():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(500, 5))
    y = X[:, 0] * 3 + np.abs(X[:, 1]) + 0.2 * rng.normal(size=500)
    ens = BayesianGBMEnsemble(n_members=5, n_estimators=30, max_depth=3, random_state=0)
    ens.fit(X, y)
    return ens, X, y


class TestConstruction:
    def test_invalid_member_count(self):
        with pytest.raises(ValueError):
            BayesianGBMEnsemble(n_members=0)

    def test_objective_cannot_be_overridden(self):
        ens = BayesianGBMEnsemble(n_members=2, objective="squared_error")
        assert "objective" not in ens.gbm_kwargs

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            BayesianGBMEnsemble(n_members=2).predict(np.zeros((1, 3)))


class TestUncertaintyDecomposition:
    def test_total_is_sum_of_parts(self, fitted_ensemble):
        ens, X, _ = fitted_ensemble
        p = ens.predict(X[:50])
        np.testing.assert_allclose(p.total_uncertainty, p.model_uncertainty + p.data_uncertainty)

    def test_uncertainties_non_negative(self, fitted_ensemble):
        ens, X, _ = fitted_ensemble
        p = ens.predict(X[:100])
        assert (p.model_uncertainty >= 0).all()
        assert (p.data_uncertainty >= 0).all()

    def test_std_is_sqrt_total(self, fitted_ensemble):
        ens, X, _ = fitted_ensemble
        p = ens.predict(X[:20])
        np.testing.assert_allclose(p.std, np.sqrt(p.total_uncertainty))

    def test_single_member_has_zero_model_uncertainty(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        y = X[:, 0] + 0.1 * rng.normal(size=200)
        ens = BayesianGBMEnsemble(n_members=1, n_estimators=20, random_state=0)
        ens.fit(X, y)
        p = ens.predict(X[:30])
        np.testing.assert_allclose(p.model_uncertainty, 0.0, atol=1e-12)

    def test_mean_is_average_of_members(self, fitted_ensemble):
        ens, X, _ = fitted_ensemble
        p = ens.predict(X[:10])
        member_means = np.array([m.predict_dist(X[:10])[0] for m in ens.members_])
        np.testing.assert_allclose(p.mean, member_means.mean(axis=0))

    def test_less_data_means_more_model_uncertainty(self):
        """The paper's motivation for the local model: model uncertainty is
        high when there are few training examples (Section 4.3)."""
        rng = np.random.default_rng(4)
        X = rng.normal(size=(800, 5))
        y = X[:, 0] * 3 + np.abs(X[:, 1]) + 0.2 * rng.normal(size=800)
        X_test = rng.normal(size=(300, 5))

        small = BayesianGBMEnsemble(
            n_members=5, n_estimators=30, max_depth=3, random_state=0
        ).fit(X[:40], y[:40])
        large = BayesianGBMEnsemble(
            n_members=5, n_estimators=30, max_depth=3, random_state=0
        ).fit(X, y)
        small_unc = small.predict(X_test).model_uncertainty.mean()
        large_unc = large.predict(X_test).model_uncertainty.mean()
        assert small_unc > large_unc


class TestAccuracy:
    def test_tracks_target(self, fitted_ensemble):
        ens, X, y = fitted_ensemble
        pred = ens.predict(X).mean
        assert np.corrcoef(pred, y)[0, 1] > 0.9

    def test_is_fitted_flag(self):
        ens = BayesianGBMEnsemble(n_members=2)
        assert not ens.is_fitted

    def test_byte_size(self, fitted_ensemble):
        ens, _, _ = fitted_ensemble
        assert ens.byte_size() > 0
        assert BayesianGBMEnsemble(n_members=2).byte_size() == 0
