"""Gradient boosting machine on numpy histogram trees.

This stands in for XGBoost/CatBoost in the paper: the AutoWLM baseline is a
single :class:`GradientBoostingModel` with the absolute-error objective, and
the Stage local model is a Bayesian ensemble of models with the Gaussian
negative-log-likelihood objective (see :mod:`repro.ml.ensemble`).

Supports multi-parameter objectives (one tree per raw parameter per round),
row/column subsampling, and early stopping on a held-out validation split —
matching the paper's "20% of training data as a validation set for early
stopping" setup (Section 5.1).

A fitted model is a packed forest: every tree is packed into one flat node
table as the fit accepts it (LightGBM's layout: internal nodes'
``feature``/``threshold``/``left``/``right``, a child that is a leaf stored
as ``~leaf``, one ``leaf_value`` array and one root per tree), and no
:class:`~repro.ml.tree.RegressionTree` outlives the fit.  Inference is one
walk of every (row, tree) pair together, at most ``max_depth`` vectorized
steps, then a ``cumsum`` of each parameter's scaled leaf values along the
tree axis, in tree order and starting from the initial score.  ``cumsum``
adds sequentially, so a raw score is the same sum, in the same order, as
adding one tree at a time — and a row's score never depends on the other
rows of its batch.  The fit scores its early-stopping rows through the same
walk.
"""

from __future__ import annotations

import numpy as np

from .losses import get_objective
from .tree import Binner, PackedForest, RegressionTree

__all__ = ["GradientBoostingModel"]


class GradientBoostingModel:
    """Additive regression-tree model trained with Newton boosting.

    Parameters
    ----------
    objective:
        Objective name (``"squared_error"``, ``"absolute_error"``,
        ``"gaussian_nll"``) or an :class:`~repro.ml.losses.Objective`.
    n_estimators:
        Maximum boosting rounds (each round fits ``objective.n_params``
        trees).
    learning_rate:
        Shrinkage applied to each tree's contribution.
    max_depth, min_samples_leaf, min_child_weight, reg_lambda:
        Tree learner settings (see :class:`~repro.ml.tree.RegressionTree`).
    subsample, colsample:
        Row / column sampling fractions per round.
    early_stopping_rounds:
        Stop when validation loss has not improved for this many rounds.
        ``None`` disables early stopping even if a validation set is given.
    validation_fraction:
        Fraction of training rows held out for early stopping when no
        explicit ``eval_set`` is passed to :meth:`fit`.
    max_bins:
        Histogram resolution.
    random_state:
        Seed for subsampling and the validation split.
    """

    def __init__(
        self,
        objective="squared_error",
        n_estimators=200,
        learning_rate=0.1,
        max_depth=6,
        min_samples_leaf=5,
        min_child_weight=1e-3,
        reg_lambda=1.0,
        subsample=1.0,
        colsample=1.0,
        early_stopping_rounds=10,
        validation_fraction=0.2,
        max_bins=64,
        random_state=None,
    ):
        self.objective = get_objective(objective)
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.subsample = subsample
        self.colsample = colsample
        self.early_stopping_rounds = early_stopping_rounds
        self.validation_fraction = validation_fraction
        self.max_bins = max_bins
        self.random_state = random_state

        # tree ``t`` of the forest is round ``t // n_params``'s tree for
        # parameter ``t % n_params``
        self.forest_ = None
        self.init_raw_ = None
        self.best_iteration_ = None
        self.train_losses_ = None
        self.val_losses_ = None

    # ------------------------------------------------------------------
    def fit(self, X, y, eval_set=None):
        """Fit on ``(X, y)``.

        ``eval_set`` may be a ``(X_val, y_val)`` tuple; otherwise an
        internal split of ``validation_fraction`` rows is carved out when
        early stopping is enabled and there is enough data.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have mismatched lengths")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        rng = np.random.default_rng(self.random_state)

        X_val = y_val = None
        if eval_set is not None:
            X_val = np.asarray(eval_set[0], dtype=np.float64)
            y_val = np.asarray(eval_set[1], dtype=np.float64)
        elif (
            self.early_stopping_rounds is not None
            and self.validation_fraction
            and X.shape[0] >= 20
        ):
            n_val = max(1, int(X.shape[0] * self.validation_fraction))
            perm = rng.permutation(X.shape[0])
            val_idx, train_idx = perm[:n_val], perm[n_val:]
            X_val, y_val = X[val_idx], y[val_idx]
            X, y = X[train_idx], y[train_idx]

        n, n_features = X.shape
        binner = Binner(max_bins=self.max_bins).fit(X)
        binned = binner.transform(X)

        obj = self.objective
        self.init_raw_ = obj.init_raw(y)
        raw = np.tile(self.init_raw_, (n, 1))
        raw_val = np.tile(self.init_raw_, (X_val.shape[0], 1)) if X_val is not None else None

        trees = []  # one packed tree per parameter per round, in fit order
        self.train_losses_ = []
        self.val_losses_ = []
        best_val = np.inf
        best_round = 0
        rounds_since_best = 0

        for _ in range(self.n_estimators):
            grad, hess = obj.grad_hess(y, raw)
            if self.subsample < 1.0:
                mask = rng.random(n) < self.subsample
                if not mask.any():
                    mask[rng.integers(n)] = True
                sample_w = mask.astype(np.float64)
            else:
                sample_w = None
            if self.colsample < 1.0:
                k = max(1, int(round(self.colsample * n_features)))
                feature_indices = np.sort(rng.choice(n_features, size=k, replace=False))
            else:
                feature_indices = None

            for p in range(obj.n_params):
                g = grad[:, p]
                h = hess[:, p]
                if sample_w is not None:
                    g = g * sample_w
                    h = h * sample_w
                tree = RegressionTree(
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                    min_child_weight=self.min_child_weight,
                    reg_lambda=self.reg_lambda,
                )
                update = tree.fit_predict(binned, g, h, binner, feature_indices)
                raw[:, p] += self.learning_rate * update
                packed = tree.packed()
                trees.append(packed)
                if raw_val is not None:
                    leaves = packed.leaves(X_val)[:, 0]
                    raw_val[:, p] += self.learning_rate * packed.leaf_value[leaves]
            self.train_losses_.append(obj.loss(y, raw))

            if raw_val is not None:
                val_loss = obj.loss(y_val, raw_val)
                self.val_losses_.append(val_loss)
                if val_loss < best_val - 1e-12:
                    best_val = val_loss
                    best_round = len(self.train_losses_)
                    rounds_since_best = 0
                else:
                    rounds_since_best += 1
                    if (
                        self.early_stopping_rounds is not None
                        and rounds_since_best >= self.early_stopping_rounds
                    ):
                        break

        if raw_val is not None and self.early_stopping_rounds is not None:
            self.best_iteration_ = max(1, best_round)
        else:
            self.best_iteration_ = len(self.train_losses_)
        self.forest_ = PackedForest.join(trees[: self.best_iteration_ * obj.n_params])
        return self

    # ------------------------------------------------------------------
    def predict_raw(self, X):
        """Raw scores of shape ``(n, n_params)``.

        One walk sorts every (row, tree) pair into its leaf; each
        parameter's score is then the initial score followed by its
        trees' scaled leaf values, summed by a ``cumsum`` along the tree
        axis — the sequential, batch-independent order of adding one
        tree at a time.
        """
        forest = self.forest_
        if forest is None:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        n, n_params = X.shape[0], self.init_raw_.size
        n_rounds = forest.roots.size // n_params
        steps = np.empty((n, 1 + n_rounds, n_params))
        steps[:, 0] = self.init_raw_
        contributions = self.learning_rate * forest.leaf_value[forest.leaves(X)]
        steps[:, 1:] = contributions.reshape(n, n_rounds, n_params)
        return np.cumsum(steps, axis=1)[:, -1]

    def predict(self, X):
        """Point prediction (mean parameter)."""
        mean, _ = self.objective.raw_to_prediction(self.predict_raw(X))
        return mean

    def predict_dist(self, X):
        """``(mean, variance)`` per sample.

        Point objectives return zero variance.
        """
        return self.objective.raw_to_prediction(self.predict_raw(X))

    # ------------------------------------------------------------------
    @property
    def n_trees(self):
        return 0 if self.forest_ is None else int(self.forest_.roots.size)

    def byte_size(self):
        """In-memory model size (bytes): every array the fitted model holds."""
        if self.forest_ is None:
            return 0
        return int(sum(a.nbytes for a in self.forest_) + self.init_raw_.nbytes)
