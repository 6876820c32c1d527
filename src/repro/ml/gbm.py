"""Gradient boosting machine on numpy histogram trees.

This stands in for XGBoost/CatBoost in the paper: the AutoWLM baseline is a
single :class:`GradientBoostingModel` with the absolute-error objective, and
the Stage local model is a Bayesian ensemble of models with the Gaussian
negative-log-likelihood objective (see :mod:`repro.ml.ensemble`).

Supports multi-parameter objectives (one tree per raw parameter per round),
row/column subsampling, and early stopping on a held-out validation split —
matching the paper's "20% of training data as a validation set for early
stopping" setup (Section 5.1).

:func:`fit_models` fits several models with the same settings in one
boosting run: each round grows one tree per raw parameter of every model
still running, all in one :class:`~repro.ml.tree.ForestGrower` call, and
each model ends up exactly as a fit of it alone would leave it.
:meth:`GradientBoostingModel.fit` is its one-model case, so there is one
fit path; the Bayesian ensemble fits its members through it.

A fitted model is a packed forest: its kept trees in one flat node table
(LightGBM's layout: internal nodes' ``feature``/``threshold``/``left``/
``right``, a child that is a leaf stored as ``~leaf``, one ``leaf_value``
array and one root per tree).  Inference is one
walk of every (row, tree) pair together, at most ``max_depth`` vectorized
steps, then a ``cumsum`` of each parameter's scaled leaf values along the
tree axis, in tree order and starting from the initial score.  ``cumsum``
adds sequentially, so a raw score is the same sum, in the same order, as
adding one tree at a time — and a row's score never depends on the other
rows of its batch.  The fit routes its early-stopping rows down each tree
as it grows, by the walk's rule (``x <= threshold`` goes left).
"""

from __future__ import annotations

import numpy as np

from .losses import get_objective
from .tree import Binner, ForestGrower, PackedForest, TreeParams

__all__ = ["GradientBoostingModel", "fit_models"]


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
        Tree learner settings (see :class:`~repro.ml.tree.TreeParams`).
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
        return fit_models([self], X, y, eval_set)[0]

    def _joint_settings(self):
        settings = {k: v for k, v in vars(self).items() if not k.endswith("_")}
        settings["objective"] = type(self.objective)
        del settings["random_state"]
        return settings

    def _tree_params(self):
        return TreeParams(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            min_child_weight=self.min_child_weight,
            reg_lambda=self.reg_lambda,
        )

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


class _Member:
    """One model's side of a joint fit: its rows, binner and running scores."""

    def __init__(self, model, X, y, eval_set):
        self.model = model
        self.rng = np.random.default_rng(model.random_state)
        self.X_val = self.y_val = None
        if eval_set is not None:
            self.X_val = np.asarray(eval_set[0], dtype=np.float64)
            self.y_val = np.asarray(eval_set[1], dtype=np.float64)
        elif (
            model.early_stopping_rounds is not None
            and model.validation_fraction
            and X.shape[0] >= 20
        ):
            n_val = max(1, int(X.shape[0] * model.validation_fraction))
            perm = self.rng.permutation(X.shape[0])
            val_idx, train_idx = perm[:n_val], perm[n_val:]
            self.X_val, self.y_val = X[val_idx], y[val_idx]
            X, y = X[train_idx], y[train_idx]
        self.X, self.y = X, y
        model.init_raw_ = model.objective.init_raw(y)
        model.train_losses_ = []
        model.val_losses_ = []
        self.best_val = np.inf
        self.best_round = 0
        self.rounds_since_best = 0

    def draw_round(self, n_features):
        """This round's row weights (or ``None``) and feature mask (or ``None``)."""
        model, rng, n = self.model, self.rng, self.y.shape[0]
        sample_w = feature_ok = None
        if model.subsample < 1.0:
            mask = rng.random(n) < model.subsample
            if not mask.any():
                mask[rng.integers(n)] = True
            sample_w = mask.astype(np.float64)
        if model.colsample < 1.0:
            k = max(1, int(round(model.colsample * n_features)))
            feature_ok = np.zeros(n_features, dtype=bool)
            feature_ok[rng.choice(n_features, size=k, replace=False)] = True
        return sample_w, feature_ok

    def end_round(self, train_loss, val_loss):
        """Record the round's losses; ``True`` when early stopping ends the fit."""
        model = self.model
        model.train_losses_.append(train_loss)
        if val_loss is None:
            return False
        model.val_losses_.append(val_loss)
        if val_loss < self.best_val - 1e-12:
            self.best_val = val_loss
            self.best_round = len(model.train_losses_)
            self.rounds_since_best = 0
            return False
        self.rounds_since_best += 1
        return (
            model.early_stopping_rounds is not None
            and self.rounds_since_best >= model.early_stopping_rounds
        )


def _mean_losses(obj, y, raw):
    """``obj.loss`` of every member: ``y`` is ``(K, n)`` and ``raw`` ``(K, n, P)``.

    The per-sample losses are elementwise, and a row-wise mean of a
    C-contiguous matrix is ``np.mean`` of each row.
    """
    n_members, n = y.shape
    losses = obj.sample_loss(y.reshape(-1), raw.reshape(n_members * n, -1))
    return np.ascontiguousarray(losses.reshape(n_members, n)).mean(axis=1).tolist()


def fit_models(models, X, y, eval_set=None):
    """Fit every model of ``models`` on ``(X, y)`` in one joint boosting run.

    The models must agree on every setting but ``random_state``; each
    draws its validation split, row subsample and feature subsample from
    its own seed, in the order a fit of that model alone draws them.  Each
    boosting round grows one tree per parameter of every model still
    running, all in one :class:`~repro.ml.tree.ForestGrower` call; a model
    whose early stopping fires leaves the run after that round.  Every
    fitted model equals the model fit alone, bit for bit.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y have mismatched lengths")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    ref = models[0]
    if any(m._joint_settings() != ref._joint_settings() for m in models):
        raise ValueError("jointly fit models must share every setting but random_state")
    obj = ref.objective
    n_params, lr = obj.n_params, ref.learning_rate
    members = [_Member(model, X, y, eval_set) for model in models]
    n_features = X.shape[1]
    n_rows = members[0].y.shape[0]
    has_val = members[0].X_val is not None
    n_members = len(members)
    y_train = np.stack([m.y for m in members])
    raw = np.stack([np.tile(m.model.init_raw_, (n_rows, 1)) for m in members])
    if has_val:
        y_val = np.stack([m.y_val for m in members])
        raw_val = np.stack([np.tile(m.model.init_raw_, (y_val.shape[1], 1)) for m in members])
    # one binner over every member's columns side by side: each column's
    # edges depend on that column alone
    X_all = np.concatenate([m.X for m in members], axis=1)
    binner = Binner(max_bins=ref.max_bins).fit(X_all)
    codes = binner.transform(X_all).reshape(n_rows, n_members, n_features).transpose(1, 0, 2)
    grower = ForestGrower(
        np.ascontiguousarray(codes),
        binner.edges_.reshape(n_members, n_features, -1),
        binner.n_bins_.reshape(n_members, n_features),
        ref._tree_params(),
        np.stack([m.X_val for m in members]) if has_val else None,
    )

    live = list(range(n_members))
    tree_member, tree_round = [], []  # per grown tree, in grow order
    for round_ in range(ref.n_estimators):
        at = slice(None) if len(live) == n_members else live
        grad, hess = obj.grad_hess(y_train[at].ravel(), raw[at].reshape(-1, n_params))
        # one (n_params, n_rows) block per live member
        grad = np.ascontiguousarray(grad.reshape(len(live), n_rows, n_params).transpose(0, 2, 1))
        hess = np.ascontiguousarray(hess.reshape(len(live), n_rows, n_params).transpose(0, 2, 1))
        sample_w, feature_ok = zip(*(members[k].draw_round(n_features) for k in live))
        if ref.subsample < 1.0:
            sample_w = np.stack(sample_w)[:, None, :]
            grad *= sample_w
            hess *= sample_w
        if ref.colsample < 1.0:
            feature_ok = np.stack(feature_ok).repeat(n_params, axis=0)
        else:
            feature_ok = None
        member = np.repeat(live, n_params)
        param = np.tile(np.arange(n_params), len(live))
        train_value, val_value = grower.grow(
            member, grad.reshape(-1, n_rows), hess.reshape(-1, n_rows), feature_ok
        )
        raw[member, :, param] += lr * train_value
        val_loss = [None] * len(live)
        if has_val:
            raw_val[member, :, param] += lr * val_value
            val_loss = _mean_losses(obj, y_val[at], raw_val[at])
        train_loss = _mean_losses(obj, y_train[at], raw[at])
        tree_member.append(member)
        tree_round.append(np.full(member.size, round_))
        live = [k for k, t, v in zip(live, train_loss, val_loss) if not members[k].end_round(t, v)]
        if not live:
            break

    grown = bool(tree_member)
    if grown:
        table = grower.table()
        tree_member = np.concatenate(tree_member)[table.tree]
        tree_round = np.concatenate(tree_round)[table.tree]
    for k, m in enumerate(members):
        model = m.model
        if has_val and model.early_stopping_rounds is not None:
            model.best_iteration_ = max(1, m.best_round)
        else:
            model.best_iteration_ = len(model.train_losses_)
        if grown:
            keep = (tree_member == k) & (tree_round < model.best_iteration_)
            model.forest_ = PackedForest.pack(table.select(keep))
        else:  # a fit with no boosting rounds keeps only its initial score
            model.forest_ = PackedForest.empty()
    return models
