"""Histogram-based regression trees, grown many at a time.

This is the tree learner underneath :mod:`repro.ml.gbm`.  Features are
quantile-binned once per boosting run (:class:`Binner`, every column in
one pass), and trees find greedy splits over bin histograms of
gradient/Hessian sums — the same strategy as LightGBM/XGBoost's ``hist``
mode.

:class:`ForestGrower` grows every tree of a boosting round together, level
by level: the two Gaussian-NLL parameter trees of one model, and the trees
of every model of an ensemble, each on its own binned rows.  One level is
a fixed handful of array operations, whatever the number of trees and
nodes:

- each statistic's histograms for every node of the level come from one
  ``np.bincount`` over the rows' bin codes offset by (node, feature);
- one ``cumsum`` along the bins gives every left-side sum, and one
  ``argmax`` per node over its feature-major cells picks its split;
- one pass routes every row of a split node to its child.

The fitted trees are bit-identical to growing each tree on its own, node
by node, off a depth-first stack (``tests/gbm_oracle.py`` keeps that
learner as the oracle):

- ``bincount`` adds a cell's samples in row order and ``cumsum``
  accumulates sequentially, so every histogram sum adds the same values
  in the same order; gains are elementwise;
- the first maximum in feature-major order is the split a per-feature
  scan with a strict ``>`` picks;
- a node's gradient and Hessian sums are numpy's pairwise ``np.sum`` over
  its rows in row order, taken row-wise from C-contiguous matrices (a
  row-wise sum of a C-contiguous matrix is ``np.sum`` of each row);
- nodes are numbered in the node-by-node learner's depth-first order
  before they leave the grower (:meth:`ForestGrower.table`).

A fitted model keeps only its packed node table (:class:`PackedForest`),
walked for all its trees at once; the grower itself never predicts.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["Binner", "ForestGrower", "PackedForest", "TreeParams", "TreeTable"]

_MAX_BINS_LIMIT = 255

#: cells (node x feature x bin) one split search holds at a time; a level
#: with more is searched in groups of whole trees
_MAX_SEARCH_CELLS = 1 << 18


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
        self.edges_ = None
        self.bin_edges_ = None
        self.n_bins_ = None

    def fit(self, X):
        """Compute per-feature quantile bin edges, all columns in one pass.

        A column's edges are the distinct quantiles of its finite values.
        Columns with the same number of finite values share one
        ``np.quantile`` call along the row axis, each column holding its
        finite values in row order, so every column's quantiles are the
        ones a call on that column alone returns; a column with no finite
        value gets the single edge ``0.0``.
        """
        X = np.asarray(X, dtype=np.float64)
        n_features = X.shape[1]
        quantiles = np.linspace(0, 1, self.max_bins + 1)[1:-1]
        finite = np.isfinite(X)
        counts = finite.sum(axis=0)
        values = X.T[finite.T]  # each column's finite values, in row order
        starts = np.cumsum(counts) - counts
        q = np.zeros((quantiles.size, n_features))
        for count in np.unique(counts[counts > 0]):
            cols = np.flatnonzero(counts == count)
            block = values[starts[cols] + np.arange(count)[:, None]]
            q[:, cols] = np.quantile(block, quantiles, axis=0)
        # distinct values per column, NaNs collapsed into one as np.unique does
        q = np.sort(q, axis=0)
        keep = np.ones(q.shape, dtype=bool)
        keep[1:] = (q[1:] != q[:-1]) & ~(np.isnan(q[1:]) & np.isnan(q[:-1]))
        keep[1:, counts == 0] = False
        n_edges = keep.sum(axis=0)
        rank = np.cumsum(keep, axis=0) - 1
        qi, fi = np.nonzero(keep)
        edges = np.full((n_features, int(n_edges.max(initial=1))), np.inf)
        edges[fi, rank[qi, fi]] = q[qi, fi]
        self.edges_ = edges  # column j's edges, then +inf
        self.bin_edges_ = [edges[j, : n_edges[j]] for j in range(n_features)]
        self.n_bins_ = (n_edges + 1).astype(np.intp)
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


class TreeParams(NamedTuple):
    """Settings of the tree learner.

    The leaf value is the Newton step ``-G / (H + reg_lambda)``; the split
    gain is the standard XGBoost gain.
    """

    #: maximum tree depth (root = depth 0)
    max_depth: int = 6
    #: minimum number of samples on each side of a split
    min_samples_leaf: int = 5
    #: minimum Hessian mass on each side of a split
    min_child_weight: float = 1e-3
    #: L2 regularization added to the Hessian in leaf values and gains
    reg_lambda: float = 1.0
    #: minimum split gain; nodes below this become leaves
    min_gain: float = 1e-7


class TreeTable(NamedTuple):
    """Grown trees as one node table: trees in the order they were grown,
    each tree's nodes numbered in depth-first order.

    ``left``/``right`` index the table (``-1`` at a leaf); ``feature`` is
    ``-1`` and ``threshold`` ``0.0`` at a leaf; ``value`` is every node's
    Newton step.  ``tree`` names each node's tree and ``root`` flags each
    tree's first node.
    """

    tree: np.ndarray  # intp, per node
    feature: np.ndarray  # int32
    threshold: np.ndarray  # float64: go left when x <= threshold
    left: np.ndarray  # intp
    right: np.ndarray
    value: np.ndarray  # float64
    is_leaf: np.ndarray  # bool
    root: np.ndarray  # bool

    def select(self, keep):
        """The sub-table of the nodes ``keep`` (a mask of whole trees) flags."""
        index = np.cumsum(keep) - 1  # table position -> sub-table position
        return TreeTable(
            self.tree[keep],
            self.feature[keep],
            self.threshold[keep],
            index[self.left[keep]],  # read at internal nodes only
            index[self.right[keep]],
            self.value[keep],
            self.is_leaf[keep],
            self.root[keep],
        )


def _score(g, h, reg_lambda):
    return g * g / np.maximum(h + reg_lambda, 1e-12)


def _node_sums(stats, rows, sizes):
    """``np.sum`` of ``stats[:, rows]`` over each consecutive run of
    ``rows`` ``sizes`` long: one column per run, one row per statistic.

    ``np.take`` lays the gathered rows out C-contiguous, and a row-wise
    sum of a C-contiguous matrix is ``np.sum`` of each row.
    """
    values = np.take(stats, rows, axis=1)
    ends = sizes.cumsum().tolist()
    return np.array([values[:, e - n : e].sum(axis=1) for n, e in zip(sizes.tolist(), ends)]).T


class _Level(NamedTuple):
    """One level of one :meth:`ForestGrower.grow` call, as it was grown.

    ``parent`` and ``split`` are table indices (nodes in grow order);
    ``feature``/``threshold`` belong to the ``split`` nodes.
    """

    tree: np.ndarray
    parent: np.ndarray
    is_right: np.ndarray
    depth: int
    value: np.ndarray
    split: np.ndarray = np.empty(0, dtype=np.intp)
    feature: np.ndarray = np.empty(0, dtype=np.int32)
    threshold: np.ndarray = np.empty(0)


class ForestGrower:
    """Grows trees on several binned datasets at once, level by level.

    Parameters
    ----------
    codes:
        ``(K, n, F)`` uint8 bin codes of ``K`` datasets of ``n`` rows.
    edges, n_bins:
        ``(K, F, E)`` bin edges and ``(K, F)`` bin counts of the datasets'
        features, as :class:`Binner` keeps them (``edges_``, ``n_bins_``).
    params:
        The :class:`TreeParams` every tree is grown with.
    x_val:
        Optional ``(K, m, F)`` raw validation rows per dataset; each
        grown tree then also reports the leaf value each of its dataset's
        validation rows reaches (``x <= threshold`` goes left, so NaN goes
        right — the packed walk's rule).

    Every :meth:`grow` call appends its trees to the grower;
    :meth:`table` hands all of them over.

    A bin no row of a dataset falls in is dropped from its histograms
    when ``min_samples_leaf >= 1``.  The split search cannot tell: such a
    bin's left-side sums equal those of the occupied bin below it (adding
    the empty bin's ``0.0`` changes at most the sign of a zero sum, which
    no gain sees), so the first maximum never lands on it, and below
    every occupied bin its left side is empty, which ``min_samples_leaf``
    rejects.
    """

    def __init__(self, codes, edges, n_bins, params, x_val=None):
        self.params = params
        n_sets, _, n_feat = codes.shape
        # ``bin_of[k, j, c]`` is the bin that code ``c`` of dataset k's
        # feature j stands for: the occupied bins in order, or every bin
        max_bins = int(n_bins.max(initial=1))
        if params.min_samples_leaf >= 1:
            occupied = np.zeros((n_sets, n_feat, max_bins), dtype=bool)
            occupied[np.arange(n_sets)[:, None, None], np.arange(n_feat), codes] = True
        else:
            occupied = np.arange(max_bins) < n_bins[:, :, None]
        rank = occupied.cumsum(axis=2) - 1
        n_codes = rank[:, :, -1:] + 1
        self.width = width = max(int(n_codes.max(initial=0)), 2)
        ks, js, bs = occupied.nonzero()
        bin_of = np.zeros((n_sets, n_feat, width), dtype=np.intp)
        bin_of[ks, js, rank[ks, js, bs]] = bs
        codes = np.take_along_axis(rank, codes.transpose(0, 2, 1).astype(np.intp), axis=2)
        self.n_features = n_feat
        # row i of dataset k codes its bins as cells of one node's
        # feature-major (F, W) grid
        self.cells = (codes.transpose(0, 2, 1) + np.arange(n_feat) * width).reshape(-1, n_feat)
        # a split can follow any bin of a feature but its top one
        cell_ok = (bin_of < n_bins[:, :, None] - 1) & (np.arange(width) < n_codes)
        self.cell_ok = cell_ok.reshape(n_sets, -1)
        thresholds = np.take_along_axis(edges, np.minimum(bin_of, edges.shape[2] - 1), axis=2)
        self.thresholds = np.where(cell_ok, thresholds, np.inf).reshape(n_sets, -1)
        self.x_val = None
        if x_val is not None:
            self.n_val = x_val.shape[1]
            self.x_val = x_val.reshape(-1, n_feat)
        self._levels = []  # every level grown, oldest first
        self._n_trees = self._n_nodes = 0

    def grow(self, member, grad, hess, feature_ok=None):
        """Grow one tree per entry of ``member``; return each tree's leaf
        value for every training row and, with validation rows, for every
        validation row (``(T, n)`` and ``(T, m)``, or ``None``).

        Tree ``t`` fits ``grad[t]``/``hess[t]`` (``(T, n)``) on dataset
        ``member[t]``; ``feature_ok`` (``(T, F)`` bool) optionally limits
        the features each tree may split on.
        """
        # a row-wise sum of a C-contiguous matrix is np.sum of each row
        grad, hess = np.ascontiguousarray(grad), np.ascontiguousarray(hess)
        with np.errstate(invalid="ignore", over="ignore"):  # inf Hessians give NaN gains
            return self._grow(np.asarray(member, dtype=np.intp), grad, hess, feature_ok)

    def _grow(self, member, grad, hess, feature_ok):
        p = self.params
        n_trees, n = grad.shape
        # cells the count rule cannot reject: top bins pass it only when
        # min_samples_leaf is 0
        cell_ok = None
        if p.min_samples_leaf < 1 or feature_ok is not None:
            cell_ok = self.cell_ok[member]
            if feature_ok is not None:
                cell_ok &= feature_ok.repeat(self.width, axis=1)
        # pair ``t * n + i`` is tree t's training row i
        pair_row = (member[:, None] * n + np.arange(n)).ravel()
        g_flat, h_flat = grad.ravel(), hess.ravel()
        stats = np.stack((g_flat, h_flat))
        train_value = np.empty(n_trees * n)
        live = np.arange(n_trees * n)  # the pairs on a node of this level
        node_of = np.arange(n_trees).repeat(n)  # and their nodes in it
        validating = self.x_val is not None
        if validating:
            m = self.n_val
            val_row = (member[:, None] * m + np.arange(m)).ravel()
            val_value = np.empty(n_trees * m)
            live_val = np.arange(n_trees * m)
            node_of_val = np.arange(n_trees).repeat(m)

        tree = np.arange(n_trees)
        g_sum, h_sum = grad.sum(axis=1), hess.sum(axis=1)
        size = np.full(n_trees, n)
        parent = np.full(n_trees, -1)
        is_right = np.zeros(n_trees, dtype=bool)
        first = self._n_nodes  # table index of the level's first node
        for depth in range(p.max_depth + 1):
            value = -g_sum / np.maximum(h_sum + p.reg_lambda, 1e-12)
            train_value[live] = value[node_of]
            if validating:
                val_value[live_val] = value[node_of_val]
            level = _Level(tree + self._n_trees, parent, is_right, depth, value)
            self._levels.append(level)
            searched = (size >= 2 * p.min_samples_leaf).nonzero()[0]
            if depth == p.max_depth or searched.size == 0:
                break
            if searched.size < size.size:  # rows of unsearched nodes sit out
                slot = np.full(size.size, -1)
                slot[searched] = np.arange(searched.size)
                rows = slot[node_of]
                keep = rows >= 0
                pairs, rows = live[keep], rows[keep]
                g_node, h_node, n_node = g_sum[searched], h_sum[searched], size[searched]
            else:
                pairs, rows = live, node_of
                g_node, h_node, n_node = g_sum, h_sum, size
            feat, cell, n_left = self._search(
                rows, g_flat[pairs], h_flat[pairs], self.cells[pair_row[pairs]],
                g_node, h_node, n_node, None if cell_ok is None else cell_ok[tree[searched]],
            )  # fmt: skip
            found = (feat >= 0).nonzero()[0]
            n_split = found.size
            if n_split == 0:
                break
            split = searched[found]
            feat, cell, n_left = feat[found], cell[found], n_left[found]
            threshold = self.thresholds[member[tree[split]], cell]
            self._levels[-1] = level._replace(
                split=first + split, feature=feat.astype(np.int32), threshold=threshold
            )

            # the r-th split node's rows go to its children: left child r
            # and right child n_split + r of the next level
            child = np.full(size.size, -1)
            child[split] = np.arange(n_split)
            rank = child[node_of]
            moves = rank >= 0
            live, rank = live[moves], rank[moves]
            go_right = self.cells[pair_row[live], feat[rank]] > cell[rank]
            node_of = rank + n_split * go_right
            if validating:
                rank = child[node_of_val]
                moves = rank >= 0
                live_val, rank = live_val[moves], rank[moves]
                x = self.x_val[val_row[live_val], feat[rank]]
                node_of_val = rank + n_split * ~(x <= threshold[rank])

            # a left child's sums are np.sum over its rows in row order (a
            # stable sort by child keeps it), the right child's the remainder
            left = ~go_right
            left_pairs = live[left][node_of[left].argsort(kind="stable")]
            g_left, h_left = _node_sums(stats, left_pairs, n_left)
            tree = tree[split]
            tree = np.concatenate((tree, tree))
            parent = first + split
            parent = np.concatenate((parent, parent))
            is_right = np.arange(2 * n_split) >= n_split
            g_sum = np.concatenate((g_left, g_sum[split] - g_left))
            h_sum = np.concatenate((h_left, h_sum[split] - h_left))
            first += size.size
            size = np.concatenate((n_left, size[split] - n_left))
        self._n_trees += n_trees
        self._n_nodes = first + size.size
        train_value = train_value.reshape(n_trees, n)
        return train_value, val_value.reshape(n_trees, m) if validating else None

    def _search(self, node_of, g_rows, h_rows, row_cells, g_sum, h_sum, size, cell_ok):
        """Best split of each node of a level: ``(feature, cell, n_left)``.

        ``node_of`` names each row's node; ``feature`` is ``-1`` where no
        split beats ``min_gain``, and ``cell`` is the split's cell in the
        node's (F, W) grid.  Ties resolve as a sequential scan with a
        strict ``>`` would: the lowest bin within a feature, then the
        lowest feature.  A level with more than ``_MAX_SEARCH_CELLS`` cells
        is searched in groups of nodes.
        """
        n_nodes = size.size
        per_group = max(1, _MAX_SEARCH_CELLS // (self.n_features * self.width))
        if n_nodes <= per_group:
            return self._search_group(
                node_of, g_rows, h_rows, row_cells, g_sum, h_sum, size, cell_ok
            )
        out = []
        for lo in range(0, n_nodes, per_group):
            hi = min(lo + per_group, n_nodes)
            rows = (node_of >= lo) & (node_of < hi)
            out.append(
                self._search_group(
                    node_of[rows] - lo, g_rows[rows], h_rows[rows], row_cells[rows],
                    g_sum[lo:hi], h_sum[lo:hi], size[lo:hi],
                    None if cell_ok is None else cell_ok[lo:hi],
                )  # fmt: skip
            )
        return tuple(np.concatenate(parts) for parts in zip(*out))

    def _search_group(self, node_of, g_rows, h_rows, row_cells, g_sum, h_sum, size, cell_ok):
        p = self.params
        n_nodes, n_feat, width = size.size, self.n_features, self.width
        node_cells = n_feat * width
        n_cells = n_nodes * node_cells
        shape = (n_nodes, n_feat, width)
        cells = (row_cells + (node_of * node_cells)[:, None]).ravel()
        g_hist = np.bincount(cells, weights=g_rows.repeat(n_feat), minlength=n_cells)
        h_hist = np.bincount(cells, weights=h_rows.repeat(n_feat), minlength=n_cells)
        c_left = np.bincount(cells, minlength=n_cells).reshape(shape).cumsum(axis=2)
        c_left = c_left.reshape(n_nodes, node_cells)
        # the split cells that leave enough rows on each side, node-major
        # and feature-major within a node; every other cell's gain is -inf
        ok = (c_left >= p.min_samples_leaf) & (c_left <= (size - p.min_samples_leaf)[:, None])
        if cell_ok is not None:
            ok &= cell_ok
        cand = ok.ravel().nonzero()[0]
        g_left = g_hist.reshape(shape).cumsum(axis=2).ravel()[cand]
        h_left = h_hist.reshape(shape).cumsum(axis=2).ravel()[cand]
        node = cand // node_cells
        g_right = g_sum[node] - g_left
        h_right = h_sum[node] - h_left
        gains = np.where(
            (h_left >= p.min_child_weight) & (h_right >= p.min_child_weight),
            _score(g_left, h_left, p.reg_lambda)
            + _score(g_right, h_right, p.reg_lambda)
            - _score(g_sum, h_sum, p.reg_lambda)[node],
            -np.inf,
        )
        # A NaN gain voids its whole feature, as a per-feature argmax that
        # lands on it and then fails ``>`` would.
        nan = np.isnan(gains)
        if nan.any():
            node_feature = cand // width
            gains[np.isin(node_feature, node_feature[nan])] = -np.inf
        # The first maximum in feature-major order is the first feature
        # whose best gain beats every earlier one, at its lowest best bin.
        grid = np.full(n_cells, -np.inf)
        grid[cand] = gains
        grid = grid.reshape(n_nodes, node_cells)
        best = grid.argmax(axis=1)
        nodes = np.arange(n_nodes)
        feat = best // width
        feat[~(grid[nodes, best] > p.min_gain)] = -1
        return feat, best, c_left[nodes, best]

    def table(self):
        """Every tree grown so far as one :class:`TreeTable`.

        Levels are grown breadth first; the node-by-node learner pops
        nodes off a stack, right child first, and a node that splits
        numbers its children ``2j + 1`` (left) and ``2j + 2`` (right),
        ``j`` counting the splits before it in pop order.  Pop order is
        pre-order with the right subtree first: the lexicographic order
        of root paths written with digits 1 (right) and 2 (left), padded
        with 0.
        """
        tree, parent, is_right, value, split, feat, thr = (
            np.concatenate([getattr(level, name) for level in self._levels])
            for name in ("tree", "parent", "is_right", "value", "split", "feature", "threshold")
        )
        levels = self._levels
        depth = np.repeat([level.depth for level in levels], [level.tree.size for level in levels])
        n_nodes = tree.size
        feature = np.full(n_nodes, -1, dtype=np.int32)
        feature[split] = feat
        threshold = np.zeros(n_nodes)
        threshold[split] = thr
        child = (parent >= 0).nonzero()[0]
        left = np.full(n_nodes, -1)
        right = np.full(n_nodes, -1)
        right_child = is_right[child]
        left[parent[child[~right_child]]] = child[~right_child]
        right[parent[child[right_child]]] = child[right_child]
        path = np.zeros((max(int(depth.max()), 1), n_nodes), dtype=np.int8)
        for d in range(1, int(depth.max()) + 1):
            at = (depth == d).nonzero()[0]
            path[:, at] = path[:, parent[at]]
            path[d - 1, at] = np.where(is_right[at], 1, 2)
        order = split[np.lexsort((*path[::-1][:, split], tree[split]))]
        tree_of = tree[order]
        rank = np.empty(n_nodes, dtype=np.intp)
        rank[order] = np.arange(order.size) - np.searchsorted(tree_of, tree_of)
        node_id = np.zeros(n_nodes, dtype=np.intp)
        node_id[child] = 2 * rank[parent[child]] + 1 + is_right[child]
        layout = np.lexsort((node_id, tree))
        position = np.empty(n_nodes + 1, dtype=np.intp)
        position[layout] = np.arange(n_nodes)
        position[-1] = -1  # a leaf's -1 child stays -1
        return TreeTable(
            tree[layout],
            feature[layout],
            threshold[layout],
            position[left[layout]],
            position[right[layout]],
            value[layout],
            feature[layout] < 0,
            node_id[layout] == 0,
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
    def empty(cls):
        """A forest of no trees."""
        no_refs, no_values = np.empty(0, dtype=np.int32), np.empty(0)
        return cls(no_refs, no_values, no_refs, no_refs, no_values, no_refs)

    @classmethod
    def pack(cls, table):
        """Pack a :class:`TreeTable`.

        Internal nodes and leaves are each numbered in table order, so the
        trees keep their order and each tree its nodes' order; a stump
        whose root is a leaf has root ``~leaf``.  Internal nodes keep no
        value: no walk reads one.
        """
        internal = ~table.is_leaf
        ref = np.where(internal, np.cumsum(internal) - 1, ~(np.cumsum(table.is_leaf) - 1))
        ref = ref.astype(np.int32)
        return cls(
            table.feature[internal],
            table.threshold[internal],
            ref[table.left[internal]],
            ref[table.right[internal]],
            table.value[table.is_leaf],
            ref[table.root],
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
