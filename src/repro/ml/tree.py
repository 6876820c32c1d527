"""Histogram-based regression trees.

This is the tree learner underneath :mod:`repro.ml.gbm`.  Features are
quantile-binned once per boosting run (:class:`Binner`), and each tree finds
greedy splits over bin histograms of gradient/Hessian sums — the same
strategy as LightGBM/XGBoost's ``hist`` mode.  Trees are grown depth-wise
into node-indexed arrays; a fitted tree is then handed over in the packed
layout (:meth:`RegressionTree.packed`) that a boosting model concatenates
into one flat node table and walks for all its trees at once.  The learner
itself never predicts: a tree's only answers are the training rows' leaf
values that :meth:`RegressionTree.fit_predict` returns.

The split search evaluates every candidate feature of a node in one pass
(:class:`_SplitCandidates`): each feature's bin codes are offset into their
own row of a ``(features, width)`` grid, so one ``np.bincount`` per
statistic builds every histogram and one ``cumsum`` along the bins gives
every left-side sum.  The gains of all real split cells then go through one
``argmax``, whose first maximum in feature-major order is the split a
per-feature loop with a sequential strict ``>`` scan picks.  ``bincount``
adds a cell's samples in input order and ``cumsum`` accumulates
sequentially, so every sum adds the same values in the same order as that
loop, and the fitted trees are bit-identical to it (``tests/test_ml_tree.py``
keeps the loop as the oracle).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["Binner", "PackedForest", "RegressionTree"]

_MAX_BINS_LIMIT = 255


class Binner:
    """Quantile feature binning shared by all trees in one boosting run.

    Parameters
    ----------
    max_bins:
        Upper bound on the number of bins per feature (including one
        implicit bin for values above the last edge).
    """

    def __init__(self, max_bins=64):
        if not 2 <= max_bins <= _MAX_BINS_LIMIT:
            raise ValueError(f"max_bins must be in [2, {_MAX_BINS_LIMIT}]")
        self.max_bins = max_bins
        self.bin_edges_ = None
        self.n_bins_ = None

    def fit(self, X):
        """Compute per-feature quantile bin edges."""
        X = np.asarray(X, dtype=np.float64)
        n_features = X.shape[1]
        self.bin_edges_ = []
        quantiles = np.linspace(0, 1, self.max_bins + 1)[1:-1]
        for j in range(n_features):
            col = X[:, j]
            col = col[np.isfinite(col)]
            if col.size == 0:
                edges = np.array([0.0])
            else:
                edges = np.unique(np.quantile(col, quantiles))
            self.bin_edges_.append(edges)
        self.n_bins_ = np.array([len(e) + 1 for e in self.bin_edges_], dtype=np.intp)
        return self

    def transform(self, X):
        """Map raw features to uint8 bin indices."""
        X = np.asarray(X, dtype=np.float64)
        if self.bin_edges_ is None:
            raise RuntimeError("Binner.transform called before fit")
        binned = np.empty(X.shape, dtype=np.uint8)
        for j, edges in enumerate(self.bin_edges_):
            binned[:, j] = np.searchsorted(edges, X[:, j], side="left")
        return binned

    def fit_transform(self, X):
        return self.fit(X).transform(X)

    def n_bins(self, feature):
        """Number of distinct bin indices feature ``feature`` can take."""
        return int(self.n_bins_[feature])

    def threshold_value(self, feature, bin_index):
        """Raw-space threshold for a split at ``bin <= bin_index``."""
        return float(self.bin_edges_[feature][bin_index])


class _SplitCandidates:
    """The features one tree may split on, laid out for a single-pass search.

    Features with fewer than two bins cannot split and are dropped.  Each
    remaining feature ``k`` owns cells ``[k * width, (k + 1) * width)`` of
    a flat histogram, where ``width`` is the widest feature's bin count;
    row ``i`` of ``codes`` holds training row ``i``'s offset bin code for
    every feature, so a node's histograms are one ``bincount`` over its
    rows' codes.  A split can follow any bin of a feature but its top one;
    ``cells`` lists those grid cells in feature-major order, and
    ``cell_feature`` / ``cell_bin`` map each back to its position.
    """

    __slots__ = ("features", "codes", "width", "cells", "cell_feature", "cell_bin")

    def __init__(self, binned, binner, feature_indices):
        feature_indices = np.asarray(feature_indices, dtype=np.intp)
        n_bins = binner.n_bins_[feature_indices]
        keep = n_bins >= 2
        self.features = feature_indices[keep]
        n_bins = n_bins[keep]
        self.width = int(n_bins.max()) if n_bins.size else 0
        offsets = np.arange(self.features.size, dtype=np.intp) * self.width
        self.codes = binned[:, self.features].astype(np.intp) + offsets
        splits = np.arange(self.width - 1) < (n_bins - 1)[:, None]
        self.cell_feature, self.cell_bin = np.nonzero(splits)
        self.cells = self.cell_feature * self.width + self.cell_bin


class _NodeBatch:
    """Work item while growing a tree: one node and its sample indices."""

    __slots__ = ("node_id", "indices", "depth", "grad_sum", "hess_sum")

    def __init__(self, node_id, indices, depth, grad_sum, hess_sum):
        self.node_id = node_id
        self.indices = indices
        self.depth = depth
        self.grad_sum = grad_sum
        self.hess_sum = hess_sum


class RegressionTree:
    """A single histogram-split regression tree fit to (grad, hess).

    The leaf value is the Newton step ``-G / (H + reg_lambda)``; the split
    gain is the standard XGBoost gain.  A split is found on bin codes
    (``bin <= k``) but stored as its raw threshold, the bin's upper edge
    ``edges[k]``, so a walk over raw feature matrices follows it and the
    fitted tree holds no binning state.  The two rules send every value
    the same way: ``Binner.transform`` codes ``x`` as the number of edges
    below it, which is at most ``k`` exactly when ``x <= edges[k]`` (NaN
    and +inf code past every edge and go right, -inf goes left).

    The tree is the learner only.  :meth:`fit_predict` grows it into
    node-indexed arrays (``value_`` on every node, ``is_leaf_`` flags)
    and :meth:`packed` hands it over in the layout a
    :class:`~repro.ml.gbm.GradientBoostingModel` stores and walks.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = depth 0).
    min_samples_leaf:
        Minimum number of samples on each side of a split.
    min_child_weight:
        Minimum Hessian mass on each side of a split.
    reg_lambda:
        L2 regularization added to the Hessian in leaf values and gains.
    min_gain:
        Minimum split gain; nodes below this become leaves.
    """

    def __init__(
        self,
        max_depth=6,
        min_samples_leaf=5,
        min_child_weight=1e-3,
        reg_lambda=1.0,
        min_gain=1e-7,
    ):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.min_gain = min_gain
        # flat node storage, filled by fit()
        self.feature_ = None
        self.threshold_ = None
        self.left_ = None
        self.right_ = None
        self.value_ = None
        self.is_leaf_ = None
        self.n_nodes_ = 0

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(self, binned, grad, hess, binner, feature_indices=None):
        """Fit the tree on pre-binned data.

        Parameters
        ----------
        binned:
            uint8 matrix of bin indices, shape ``(n, n_features)``.
        grad, hess:
            Per-sample gradient and Hessian vectors.
        binner:
            The :class:`Binner` that produced ``binned`` (for thresholds).
        feature_indices:
            Optional subset of feature columns to consider (column
            subsampling), given as indices into ``binned``'s columns.
        """
        self.fit_predict(binned, grad, hess, binner, feature_indices)
        return self

    def fit_predict(self, binned, grad, hess, binner, feature_indices=None):
        """:meth:`fit`, then return the leaf value of every training row.

        Growing the tree already sorts each training row into its leaf,
        so the result equals a raw-threshold walk of the rows ``binned``
        was coded from, without a second walk down the tree.
        """
        n_samples, n_features = binned.shape
        if feature_indices is None:
            feature_indices = np.arange(n_features)
        candidates = _SplitCandidates(binned, binner, feature_indices)
        leaf_of_row = np.zeros(n_samples, dtype=np.intp)

        max_nodes = 2 ** (self.max_depth + 2)
        self.feature_ = np.full(max_nodes, -1, dtype=np.int32)
        self.threshold_ = np.zeros(max_nodes, dtype=np.float64)
        self.left_ = np.full(max_nodes, -1, dtype=np.int32)
        self.right_ = np.full(max_nodes, -1, dtype=np.int32)
        self.value_ = np.zeros(max_nodes, dtype=np.float64)
        self.is_leaf_ = np.ones(max_nodes, dtype=bool)
        self.n_nodes_ = 1

        root = _NodeBatch(0, np.arange(n_samples), 0, float(grad.sum()), float(hess.sum()))
        stack = [root]
        while stack:
            node = stack.pop()
            self.value_[node.node_id] = self._leaf_value(node.grad_sum, node.hess_sum)
            # children overwrite this if the node splits
            leaf_of_row[node.indices] = node.node_id
            if node.depth >= self.max_depth or node.indices.size < 2 * self.min_samples_leaf:
                continue
            split = self._best_split(grad, hess, node, candidates)
            if split is None:
                continue
            feat, bin_idx, gain = split
            go_left = binned[node.indices, feat] <= bin_idx
            left_idx = node.indices[go_left]
            right_idx = node.indices[~go_left]
            if left_idx.size < self.min_samples_leaf or right_idx.size < self.min_samples_leaf:
                continue

            nid = node.node_id
            left_id = self.n_nodes_
            right_id = self.n_nodes_ + 1
            self.n_nodes_ += 2
            self.is_leaf_[nid] = False
            self.feature_[nid] = feat
            self.threshold_[nid] = binner.threshold_value(feat, bin_idx)
            self.left_[nid] = left_id
            self.right_[nid] = right_id

            gl = float(grad[left_idx].sum())
            hl = float(hess[left_idx].sum())
            stack.append(_NodeBatch(left_id, left_idx, node.depth + 1, gl, hl))
            stack.append(
                _NodeBatch(
                    right_id,
                    right_idx,
                    node.depth + 1,
                    node.grad_sum - gl,
                    node.hess_sum - hl,
                )
            )

        self._trim()
        return self.value_[leaf_of_row]

    def _leaf_value(self, grad_sum, hess_sum):
        return -grad_sum / max(hess_sum + self.reg_lambda, 1e-12)

    def _score(self, g, h):
        denom = h + self.reg_lambda
        return g * g / np.maximum(denom, 1e-12)

    def _best_split(self, grad, hess, node, candidates):
        """Best ``(feature, bin, gain)`` over every candidate, or ``None``.

        Ties resolve as a sequential scan with a strict ``>`` would: the
        lowest bin within a feature, then the earliest feature in
        ``candidates.features`` order.
        """
        n_feat = candidates.features.size
        if n_feat == 0:
            return None
        idx = node.indices
        n_cells = n_feat * candidates.width
        codes = candidates.codes[idx].ravel()
        shape = (n_feat, candidates.width)
        g_hist = np.bincount(codes, weights=grad[idx].repeat(n_feat), minlength=n_cells)
        h_hist = np.bincount(codes, weights=hess[idx].repeat(n_feat), minlength=n_cells)
        c_hist = np.bincount(codes, minlength=n_cells)

        cells = candidates.cells
        g_left = np.cumsum(g_hist.reshape(shape), axis=1).take(cells)
        h_left = np.cumsum(h_hist.reshape(shape), axis=1).take(cells)
        c_left = np.cumsum(c_hist.reshape(shape), axis=1).take(cells)
        g_right = node.grad_sum - g_left
        h_right = node.hess_sum - h_left

        valid = (
            (c_left >= self.min_samples_leaf)
            & (c_left <= idx.size - self.min_samples_leaf)
            & (h_left >= self.min_child_weight)
            & (h_right >= self.min_child_weight)
        )
        parent_score = self._score(node.grad_sum, node.hess_sum)
        gains = np.where(
            valid,
            self._score(g_left, h_left) + self._score(g_right, h_right) - parent_score,
            -np.inf,
        )
        # The first maximum in feature-major order is the first feature
        # whose best gain beats every earlier one, at its lowest best bin.
        # A NaN gain voids its whole feature, as a per-feature argmax that
        # lands on it and then fails ``>`` would.
        k = int(np.argmax(gains))
        if np.isnan(gains[k]):
            nan_features = candidates.cell_feature[np.isnan(gains)]
            gains[np.isin(candidates.cell_feature, nan_features)] = -np.inf
            k = int(np.argmax(gains))
        gain = float(gains[k])
        if not gain > self.min_gain:
            return None
        feat = candidates.features[candidates.cell_feature[k]]
        return int(feat), int(candidates.cell_bin[k]), gain

    def _trim(self):
        n = self.n_nodes_
        self.feature_ = self.feature_[:n]
        self.threshold_ = self.threshold_[:n]
        self.left_ = self.left_[:n]
        self.right_ = self.right_[:n]
        self.value_ = self.value_[:n]
        self.is_leaf_ = self.is_leaf_[:n]

    # ------------------------------------------------------------------
    # hand-over
    # ------------------------------------------------------------------
    def packed(self):
        """This tree as a one-tree :class:`PackedForest`.

        Internal nodes and leaves are each numbered from 0 in node order;
        a stump whose root is a leaf has root ``~0 == -1``.  Internal
        nodes keep no value: no walk reads one.
        """
        internal = ~self.is_leaf_
        ref = np.where(internal, np.cumsum(internal) - 1, ~(np.cumsum(self.is_leaf_) - 1))
        ref = ref.astype(np.int32)
        return PackedForest(
            self.feature_[internal],
            self.threshold_[internal],
            ref[self.left_[internal]],
            ref[self.right_[internal]],
            self.value_[self.is_leaf_],
            ref[:1],
        )


class PackedForest(NamedTuple):
    """Fitted trees as one flat node table, in LightGBM's layout.

    ``feature``/``threshold``/``left``/``right`` describe the internal
    nodes of every tree; a child reference ``c >= 0`` is internal node
    ``c`` and ``c < 0`` is leaf ``~c`` of ``leaf_value``.  ``roots``
    holds one reference per tree, in tree order.
    """

    feature: np.ndarray  # int32, per internal node
    threshold: np.ndarray  # float64: go left when x <= threshold
    left: np.ndarray  # int32 node references
    right: np.ndarray
    leaf_value: np.ndarray  # float64, per leaf
    roots: np.ndarray  # int32, per tree

    @classmethod
    def join(cls, forests):
        """Concatenate ``forests`` into one, their trees in order.

        Each forest's node references are renumbered past the internal
        nodes and leaves of the ones before it (``~leaf`` shifts down by
        the leaves before).
        """
        if not forests:  # a fit with no boosting rounds keeps only its initial score
            no_refs, no_values = np.empty(0, dtype=np.int32), np.empty(0)
            return cls(no_refs, no_values, no_refs, no_refs, no_values, no_refs)
        feature, threshold, left, right, leaf_value, roots = zip(*forests)
        n_internal = np.array([a.size for a in feature], dtype=np.int32)
        n_leaves = np.array([a.size for a in leaf_value], dtype=np.int32)
        internal_before = np.cumsum(n_internal, dtype=np.int32) - n_internal
        leaves_before = np.cumsum(n_leaves, dtype=np.int32) - n_leaves

        def renumber(refs, per_forest):
            refs = np.concatenate(refs)
            shift = np.where(
                refs >= 0,
                np.repeat(internal_before, per_forest),
                -np.repeat(leaves_before, per_forest),
            )
            return refs + shift

        return cls(
            np.concatenate(feature),
            np.concatenate(threshold),
            renumber(left, n_internal),
            renumber(right, n_internal),
            np.concatenate(leaf_value),
            renumber(roots, [a.size for a in roots]),
        )

    def leaves(self, X):
        """The leaf every (row, tree) pair of ``X`` reaches, shape ``(n, trees)``.

        All pairs step down together, one vectorized step per tree level
        (at most ``max_depth`` steps); a pair leaves the active set once
        its node reference is a leaf.  A row goes left when
        ``x <= threshold``, so NaN goes right.
        """
        n, n_features = X.shape
        n_trees = self.roots.size
        node = np.tile(self.roots, n)  # pair ``i`` is row ``i // n_trees``
        values = X.ravel()
        active = np.flatnonzero(node >= 0)
        while active.size:
            nid = node[active]
            x = values[active // n_trees * n_features + self.feature[nid]]
            child = np.where(x <= self.threshold[nid], self.left[nid], self.right[nid])
            node[active] = child
            active = active[child >= 0]
        return ~node.reshape(n, n_trees)
