"""Bayesian ensemble of probabilistic GBMs with uncertainty decomposition.

Implements the ensemble scheme the paper adapts from Malinin et al. (2021)
("Uncertainty in Gradient Boosting via Ensembles", the paper's [31]) for
the Stage local model, Section 4.3:

- ``K`` gradient-boosting models are trained independently with a Gaussian
  log-likelihood loss, each producing ``(mu_k, sigma2_k)`` per query;
- the final prediction is ``y_hat = mean_k(mu_k)``            (paper Eq. 1);
- *model* uncertainty is ``mean_k((y_hat - mu_k)^2)``;
- *data* uncertainty is ``mean_k(sigma2_k)``;
- total prediction uncertainty is their sum                   (paper Eq. 2).

The members are fit in one joint boosting run (:func:`~repro.ml.gbm.fit_models`):
each round grows every live member's two Gaussian-NLL trees together, level
by level, and each member ends up bit-identical to a fit of it alone.

Each member is a packed forest (:mod:`repro.ml.gbm`): one walk sorts every
(row, tree) pair into its leaf and a ``cumsum`` along the tree axis adds
the leaf values in tree order, so a member's ``(mu_k, sigma2_k)`` for a row
never depends on the other rows of the batch.  The moments above then
accumulate member by member (see :meth:`BayesianGBMEnsemble.predict`), so
the whole prediction is batch-size-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gbm import GradientBoostingModel, fit_models
from .intervals import member_quantile_bounds

__all__ = ["EnsemblePrediction", "BayesianGBMEnsemble"]


@dataclass
class EnsemblePrediction:
    """Decomposed ensemble output for a batch of queries.

    ``interval_low``/``interval_high`` are the member-spread quantile
    bounds (:func:`~repro.ml.intervals.member_quantile_bounds`) at the
    pipeline-wide nominal confidence, in the same (log) space as
    ``mean`` — callers map them through the target transform alongside
    the mean.
    """

    mean: np.ndarray
    model_uncertainty: np.ndarray
    data_uncertainty: np.ndarray
    interval_low: np.ndarray = None
    interval_high: np.ndarray = None

    @property
    def total_uncertainty(self):
        return self.model_uncertainty + self.data_uncertainty

    @property
    def std(self):
        return np.sqrt(self.total_uncertainty)


class BayesianGBMEnsemble:
    """``K`` independently trained Gaussian-NLL GBMs (paper Section 4.3).

    Diversity between members comes from different random seeds, which
    randomize each member's internal validation split and row/column
    subsampling — the same source of diversity as retraining CatBoost with
    different seeds.

    Parameters
    ----------
    n_members:
        Ensemble size ``K`` (the paper uses 10).
    random_state:
        Base seed; member ``k`` uses ``random_state + k``.
    **gbm_kwargs:
        Forwarded to every :class:`~repro.ml.gbm.GradientBoostingModel`.
        The objective is forced to ``gaussian_nll``.
    """

    def __init__(self, n_members=10, random_state=0, **gbm_kwargs):
        if n_members < 1:
            raise ValueError("n_members must be >= 1")
        self.n_members = n_members
        self.random_state = random_state
        gbm_kwargs.pop("objective", None)
        gbm_kwargs.setdefault("subsample", 0.8)
        self.gbm_kwargs = gbm_kwargs
        self.members_ = None

    def fit(self, X, y):
        """Fit the ``K`` members in one joint boosting run (:func:`~repro.ml.gbm.fit_models`)."""
        self.members_ = fit_models(
            [
                GradientBoostingModel(
                    objective="gaussian_nll",
                    random_state=None if self.random_state is None else self.random_state + k,
                    **self.gbm_kwargs,
                )
                for k in range(self.n_members)
            ],
            X,
            y,
        )
        return self

    def predict(self, X):
        """Return an :class:`EnsemblePrediction` for ``X``.

        Two orders keep a row's answer independent of its batch.  Within
        a member, the packed walk sorts each (row, tree) pair on its own
        and a sequential ``cumsum`` along the tree axis adds the leaf
        values in tree order.  Across members, the moments accumulate
        member by member rather than via ``ndarray.mean(axis=0)``:
        numpy's axis reductions pick different summation orders for
        different shapes (pairwise for a single column, sequential
        otherwise), which would make batched predictions differ from
        per-row predictions in the last ulp.  A row predicted in any
        batch is therefore bit-identical to predicting it alone — the
        replay harness depends on this to defer and batch inference.
        """
        if self.members_ is None:
            raise RuntimeError("ensemble is not fitted")
        X = np.asarray(X, dtype=np.float64)
        mus = np.empty((self.n_members, X.shape[0]))
        sigma2s = np.empty_like(mus)
        for k, model in enumerate(self.members_):
            mu, sigma2 = model.predict_dist(X)
            mus[k] = mu
            sigma2s[k] = sigma2
        mean = np.zeros(X.shape[0])
        data_unc = np.zeros(X.shape[0])
        for k in range(self.n_members):
            mean += mus[k]
            data_unc += sigma2s[k]
        mean /= self.n_members
        data_unc /= self.n_members
        model_unc = np.zeros(X.shape[0])
        for k in range(self.n_members):
            model_unc += (mean - mus[k]) ** 2
        model_unc /= self.n_members
        # member-spread quantile bounds: np.quantile partitions per column, so
        # the bounds share both invariants — permutation-stable across
        # member order and batch-size-invariant per row
        interval_low, interval_high = member_quantile_bounds(mus, sigma2s, mean=mean)
        return EnsemblePrediction(
            mean=mean,
            model_uncertainty=model_unc,
            data_uncertainty=data_unc,
            interval_low=interval_low,
            interval_high=interval_high,
        )

    @property
    def is_fitted(self):
        return self.members_ is not None

    def byte_size(self):
        if self.members_ is None:
            return 0
        return int(sum(m.byte_size() for m in self.members_))
