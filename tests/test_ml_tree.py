"""Tests for the histogram binner and the level-wise tree grower.

The grower is held to ``gbm_oracle``'s node-by-node learner and to the
per-feature split search that learner replaced, array for array.
"""

import gbm_oracle
import numpy as np
import pytest
from gbm_oracle import _NodeBatch, _SplitCandidates
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import tree as tree_module
from repro.ml.tree import Binner, ForestGrower, PackedForest, TreeParams, _node_sums


class RegressionTree:
    """One tree grown by :class:`ForestGrower`, with the node-indexed
    arrays of ``gbm_oracle.RegressionTree``: ``feature_``,
    ``threshold_``, ``left_``, ``right_``, ``value_`` (every node's
    Newton value) and ``is_leaf_``, nodes in depth-first order."""

    def __init__(self, **params):
        self.params = TreeParams(**params)
        self.reg_lambda = self.params.reg_lambda

    def fit(self, binned, grad, hess, binner, feature_indices=None):
        self.fit_predict(binned, grad, hess, binner, feature_indices)
        return self

    def fit_predict(self, binned, grad, hess, binner, feature_indices=None):
        feature_ok = None
        if feature_indices is not None:
            feature_ok = np.zeros((1, binned.shape[1]), dtype=bool)
            feature_ok[0, feature_indices] = True
        grower = ForestGrower(binned[None], binner.edges_[None], binner.n_bins_[None], self.params)
        leaf_values, _ = grower.grow([0], grad[None], hess[None], feature_ok)
        table = grower.table()
        self._table = table
        self.n_nodes_ = table.tree.size
        self.feature_ = table.feature
        self.threshold_ = table.threshold
        self.left_ = table.left.astype(np.int32)
        self.right_ = table.right.astype(np.int32)
        self.value_ = table.value
        self.is_leaf_ = table.is_leaf
        return leaf_values[0]

    def packed(self):
        table = self._table._replace(value=self.value_)
        return PackedForest.pack(table)


def tree_predict(tree, X):
    """The per-tree raw-feature walk, kept as the oracle for the packed
    forest's walk (:meth:`PackedForest.leaves`): each level moves the
    rows still at an internal node to a child, ``x <= threshold`` going
    left, and every row ends on its leaf's value."""
    X = np.asarray(X, dtype=np.float64)
    node_ids = np.zeros(X.shape[0], dtype=np.int32)
    active = ~tree.is_leaf_[node_ids]
    while active.any():
        rows = np.nonzero(active)[0]
        nids = node_ids[rows]
        go_left = X[rows, tree.feature_[nids]] <= tree.threshold_[nids]
        node_ids[rows[go_left]] = tree.left_[nids[go_left]]
        node_ids[rows[~go_left]] = tree.right_[nids[~go_left]]
        active = ~tree.is_leaf_[node_ids]
    return tree.value_[node_ids]


def packed_predict(tree, X):
    """Leaf values ``X`` reaches through ``tree`` packed as a one-tree forest."""
    forest = tree.packed()
    return forest.leaf_value[forest.leaves(np.asarray(X, dtype=np.float64))[:, 0]]


def _fit_tree_to_targets(X, y, **kwargs):
    """Helper: fit a tree directly to squared-loss gradients of y."""
    binner = Binner(max_bins=32).fit(X)
    binned = binner.transform(X)
    # For squared loss starting at raw=0: grad = -y, hess = 1, so the
    # Newton leaf value approximates the mean of y within the leaf.
    grad = -y
    hess = np.ones_like(y)
    tree = RegressionTree(reg_lambda=0.0, min_samples_leaf=1, **kwargs)
    tree.fit(binned, grad, hess, binner)
    return tree


class TestBinner:
    def test_bins_within_range(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        binner = Binner(max_bins=16).fit(X)
        binned = binner.transform(X)
        for j in range(3):
            assert binned[:, j].max() < binner.n_bins(j)

    def test_monotone_in_feature_value(self):
        X = np.linspace(0, 1, 100)[:, None]
        binner = Binner(max_bins=8).fit(X)
        binned = binner.transform(X)[:, 0]
        assert (np.diff(binned.astype(int)) >= 0).all()

    def test_constant_feature_single_bin(self):
        X = np.full((50, 1), 7.0)
        binner = Binner(max_bins=8).fit(X)
        assert binner.n_bins(0) <= 2

    def test_invalid_max_bins(self):
        with pytest.raises(ValueError):
            Binner(max_bins=1)
        with pytest.raises(ValueError):
            Binner(max_bins=1000)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            Binner().transform(np.zeros((2, 2)))

    def test_threshold_value_matches_edges(self):
        X = np.arange(100, dtype=float)[:, None]
        binner = Binner(max_bins=4).fit(X)
        t = binner.threshold_value(0, 0)
        assert X.min() < t < X.max()


@st.composite
def _binning_columns(draw):
    """Matrices whose columns exercise the one-pass quantile fit: NaN and
    +-inf among finite values, columns with no finite value, constant
    and low-cardinality columns, signed zeros and extreme magnitudes, and
    columns with different counts of finite values."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(min_value=1, max_value=80))
    columns = []
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        kind = draw(st.sampled_from(["normal", "ints", "zeros", "constant", "huge", "nonfinite"]))
        if kind == "normal":
            col = rng.normal(size=n)
        elif kind == "ints":
            col = rng.integers(-2, 3, size=n).astype(float)
        elif kind == "zeros":
            col = rng.choice([-0.0, 0.0, 1.0], size=n)
        elif kind == "constant":
            col = np.full(n, rng.normal())
        elif kind == "huge":
            col = rng.choice([-1e308, 1e308, 0.0, 5e-324], size=n)
        else:
            col = rng.choice([np.nan, np.inf, -np.inf], size=n)
        if draw(st.booleans()):
            col[rng.random(n) < 0.3] = rng.choice([np.nan, np.inf, -np.inf])
        columns.append(col)
    return np.column_stack(columns), draw(st.integers(min_value=2, max_value=64))


class TestOnePassBinner:
    @given(_binning_columns())
    @settings(max_examples=150, deadline=None)
    def test_edges_match_column_by_column_fit(self, problem):
        X, max_bins = problem
        with np.errstate(invalid="ignore", over="ignore"):
            got = Binner(max_bins=max_bins).fit(X)
            want = gbm_oracle.Binner(max_bins=max_bins).fit(X)
        assert got.n_bins_.tolist() == want.n_bins_.tolist()
        for g, w in zip(got.bin_edges_, want.bin_edges_, strict=True):
            assert g.tobytes() == w.tobytes()
        assert got.transform(X).tobytes() == want.transform(X).tobytes()


class TestRegressionTree:
    def test_perfect_split_on_step_function(self):
        X = np.concatenate([np.zeros(50), np.ones(50)])[:, None]
        y = np.concatenate([np.full(50, -1.0), np.full(50, 3.0)])
        tree = _fit_tree_to_targets(X, y, max_depth=2)
        pred = tree_predict(tree, X)
        np.testing.assert_allclose(pred, y, atol=1e-9)

    def test_depth_zero_returns_mean(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 2))
        y = rng.normal(size=100)
        tree = _fit_tree_to_targets(X, y, max_depth=0)
        pred = tree_predict(tree, X)
        np.testing.assert_allclose(pred, np.full(100, y.mean()), atol=1e-9)

    def test_min_samples_leaf_respected(self):
        X = np.arange(20, dtype=float)[:, None]
        y = np.where(X[:, 0] >= 19, 100.0, 0.0)  # one extreme point
        binner = Binner(max_bins=32).fit(X)
        binned = binner.transform(X)
        tree = RegressionTree(min_samples_leaf=5, reg_lambda=0.0, max_depth=4)
        tree.fit(binned, -y, np.ones_like(y), binner)
        # No leaf may contain fewer than 5 training rows.
        leaves = {}
        pred_bins = tree_predict(tree, X)
        for v in pred_bins:
            leaves[v] = leaves.get(v, 0) + 1
        assert min(leaves.values()) >= 5

    def test_raw_walk_is_the_split_rule(self):
        """A split is found as ``bin <= k`` on bin codes and stored as its
        raw threshold ``edges[k]``; the raw walk must send every value
        where the bin rule does.  Training rows must land on the leaf
        values the fit returned, and adversarial probes (every edge, its
        float neighbours, NaN, +-inf and -0.0) on the leaf a walk over
        ``Binner.transform`` codes with ``searchsorted(edges, x) <= k``
        picks."""
        rng = np.random.default_rng(2)
        n = 300
        X = np.column_stack(
            [
                rng.normal(size=n),
                rng.integers(-2, 3, size=n).astype(float),  # 0.0 is an edge
                np.where(rng.random(n) < 0.2, np.nan, rng.exponential(size=n)),
                rng.choice([-np.inf, np.inf, np.nan], size=n),  # edges == [0.0]
                rng.choice([-np.inf, np.inf, 1.0], size=n),
            ]
        )
        y = 2 * np.nan_to_num(X[:, 0]) + X[:, 1] + np.isnan(X[:, 2]) + rng.normal(size=n) * 0.1
        y += np.sign(X[:, 4]) + 3.0 * np.isneginf(X[:, 3])
        binner = Binner(max_bins=32).fit(X)
        binned = binner.transform(X)
        specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
        for depth in (1, 3, 6):
            tree = RegressionTree(max_depth=depth, min_samples_leaf=2)
            leaf_values = tree.fit_predict(binned, -y, np.ones(n), binner)
            assert leaf_values.tobytes() == tree_predict(tree, X).tobytes()
            assert not tree.is_leaf_[0]

            probes = [X[:8]]
            for j, edges in enumerate(binner.bin_edges_):
                values = np.concatenate(
                    [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), specials]
                )
                block = np.repeat(X[:4], values.size, axis=0)
                block[:, j] = np.tile(values, 4)
                probes.append(block)
            probes.append(np.repeat(specials[:, None], X.shape[1], axis=1))
            P = np.concatenate(probes)

            codes = binner.transform(P)
            want = np.empty(P.shape[0], dtype=np.intp)
            for r, row in enumerate(codes):
                nid = 0
                while not tree.is_leaf_[nid]:
                    feat = tree.feature_[nid]
                    k = np.searchsorted(binner.bin_edges_[feat], tree.threshold_[nid])
                    assert binner.bin_edges_[feat][k] == tree.threshold_[nid]
                    nid = tree.left_[nid] if row[feat] <= k else tree.right_[nid]
                want[r] = nid
            # number the nodes so both raw walks report the leaf they reached
            tree.value_ = np.arange(tree.n_nodes_, dtype=np.float64)
            assert (tree_predict(tree, P) == want).all()
            assert (packed_predict(tree, P) == want).all()

    def test_reduces_squared_loss_vs_constant(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(400, 3))
        y = np.sin(X[:, 0]) + 0.5 * X[:, 1]
        tree = _fit_tree_to_targets(X, y, max_depth=5)
        pred = tree_predict(tree, X)
        assert np.mean((pred - y) ** 2) < np.var(y)

    def test_packed_keeps_splits_and_leaves(self):
        """The packed tree holds the internal nodes' splits and the
        leaves' values in node order, children of leaves as ``~leaf``."""
        X = np.arange(100, dtype=float)[:, None]
        y = (X[:, 0] > 50).astype(float) + (X[:, 0] > 80)
        tree = _fit_tree_to_targets(X, y, max_depth=3)
        forest = tree.packed()
        internal = np.flatnonzero(~tree.is_leaf_)
        leaves = np.flatnonzero(tree.is_leaf_)
        assert leaves.size >= 2
        assert forest.feature.tolist() == tree.feature_[internal].tolist()
        assert forest.threshold.tobytes() == tree.threshold_[internal].tobytes()
        assert forest.leaf_value.tobytes() == tree.value_[leaves].tobytes()
        ref = {int(nid): k for k, nid in enumerate(internal)}
        ref.update({int(nid): ~k for k, nid in enumerate(leaves)})
        assert forest.left.tolist() == [ref[c] for c in tree.left_[internal]]
        assert forest.right.tolist() == [ref[c] for c in tree.right_[internal]]
        assert forest.roots.tolist() == [0]
        assert packed_predict(tree, X).tobytes() == tree_predict(tree, X).tobytes()

    def test_packed_stump_root_is_a_leaf(self):
        X = np.arange(30, dtype=float)[:, None]
        y = np.arange(30, dtype=float)
        tree = _fit_tree_to_targets(X, y, max_depth=0)
        forest = tree.packed()
        assert forest.feature.size == forest.left.size == forest.right.size == 0
        assert forest.roots.tolist() == [-1]
        assert forest.leaf_value.tobytes() == tree.value_.tobytes()
        assert packed_predict(tree, X).tobytes() == tree_predict(tree, X).tobytes()

    @given(
        st.integers(min_value=10, max_value=80),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_leaf_predictions_bounded_by_target_range(self, n, depth):
        """With reg_lambda=0, Newton leaves are in-leaf means, hence within
        the global min/max of the targets."""
        rng = np.random.default_rng(n * depth)
        X = rng.normal(size=(n, 2))
        y = rng.uniform(-5, 5, size=n)
        tree = _fit_tree_to_targets(X, y, max_depth=depth)
        pred = tree_predict(tree, X)
        assert pred.min() >= y.min() - 1e-9
        assert pred.max() <= y.max() + 1e-9


# ---------------------------------------------------------------------------
# single-pass split search vs the per-feature reference loop
# ---------------------------------------------------------------------------
def _reference_best_split(tree, binned, grad, hess, node, binner, feature_indices):
    """The per-feature split search the single-pass kernel replaced.

    One histogram, cumsum and argmax per feature, then a sequential
    strict ``>`` scan across features.  Kept here as the oracle.
    """
    idx = node.indices
    g = grad[idx]
    h = hess[idx]
    parent_score = tree._score(node.grad_sum, node.hess_sum)
    best = None
    best_gain = tree.min_gain
    for feat in feature_indices:
        bins = binned[idx, feat].astype(np.int64)
        n_bins = binner.n_bins(feat)
        if n_bins < 2:
            continue
        g_hist = np.bincount(bins, weights=g, minlength=n_bins)
        h_hist = np.bincount(bins, weights=h, minlength=n_bins)
        c_hist = np.bincount(bins, minlength=n_bins)

        g_left = np.cumsum(g_hist)[:-1]
        h_left = np.cumsum(h_hist)[:-1]
        c_left = np.cumsum(c_hist)[:-1]
        g_right = node.grad_sum - g_left
        h_right = node.hess_sum - h_left
        c_right = idx.size - c_left

        valid = (
            (c_left >= tree.min_samples_leaf)
            & (c_right >= tree.min_samples_leaf)
            & (h_left >= tree.min_child_weight)
            & (h_right >= tree.min_child_weight)
        )
        if not valid.any():
            continue
        gains = np.where(
            valid,
            tree._score(g_left, h_left) + tree._score(g_right, h_right) - parent_score,
            -np.inf,
        )
        j = int(np.argmax(gains))
        if gains[j] > best_gain:
            best_gain = float(gains[j])
            best = (int(feat), j, best_gain)
    return best


class _ReferenceTree(gbm_oracle.RegressionTree):
    """A tree grown with :func:`_reference_best_split` at every node."""

    def fit_predict(self, binned, grad, hess, binner, feature_indices=None):
        if feature_indices is None:
            feature_indices = np.arange(binned.shape[1])
        self._reference_args = (binned, binner, feature_indices)
        return super().fit_predict(binned, grad, hess, binner, feature_indices)

    def _best_split(self, grad, hess, node, candidates):
        binned, binner, feature_indices = self._reference_args
        return _reference_best_split(self, binned, grad, hess, node, binner, feature_indices)


_TREE_ARRAYS = (
    "feature_",
    "threshold_",
    "left_",
    "right_",
    "value_",
    "is_leaf_",
)


@st.composite
def _split_problems(draw):
    """Small binned problems rich in the split search's edge cases.

    Low-cardinality columns give constant (single-bin) features and exact
    gain ties, a duplicated column gives equal gains across features,
    zero Hessian/gradient rows stand in for the subsample mask, and
    integral Hessians put ``min_child_weight`` exactly on bin boundaries.
    ``min_samples_leaf=0`` with a negative ``min_gain`` leaves only the
    split-cell list to reject empty splits, and constant gradients with
    ``min_gain=0`` leave only the strict ``>`` to reject zero-gain ones.
    """
    n = draw(st.integers(min_value=2, max_value=60))
    n_features = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    cards = [draw(st.sampled_from([1, 2, 3, 8, 50])) for _ in range(n_features)]
    X = np.column_stack([rng.integers(0, c, size=n) for c in cards]).astype(float)
    if draw(st.booleans()):
        X = np.column_stack([X, X[:, :1]])  # equal gains across features
    binner = Binner(max_bins=draw(st.integers(min_value=2, max_value=16))).fit(X)
    binned = binner.transform(X)
    grad_kind = draw(st.sampled_from(["discrete", "normal", "constant"]))
    if grad_kind == "discrete":
        grad = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 3.0], size=n)
    elif grad_kind == "normal":
        grad = rng.normal(size=n)
    else:
        grad = np.ones(n)  # with reg_lambda=0 every split gains exactly 0
    hess = rng.choice([0.5, 1.0, 2.0], size=n)
    if draw(st.booleans()):
        mask = (rng.random(n) < 0.7).astype(np.float64)  # subsample mask
        grad, hess = grad * mask, hess * mask
    k = draw(st.integers(min_value=1, max_value=binned.shape[1]))
    feature_indices = np.sort(rng.choice(binned.shape[1], size=k, replace=False))
    if draw(st.booleans()):
        feature_indices = None
    params = dict(
        max_depth=draw(st.integers(min_value=0, max_value=4)),
        min_samples_leaf=draw(st.integers(min_value=0, max_value=8)),
        min_child_weight=draw(st.sampled_from([0.0, 1e-3, 0.5, 1.0, 2.0, 3.0])),
        reg_lambda=draw(st.sampled_from([0.0, 1.0])),
        min_gain=draw(st.sampled_from([1e-7, 0.0, -1.0])),
    )
    return X, binned, grad, hess, binner, feature_indices, params, rng


def grown_root_split(params, binned, grad, hess, binner, feature_indices, idx):
    """The root split ``(feature, bin)`` the grower finds on rows ``idx``,
    or ``None``: the bin is read back from the split's raw threshold."""
    tree = RegressionTree(**dict(params, max_depth=1))
    tree.fit(binned[idx], grad[idx], hess[idx], binner, feature_indices)
    if tree.is_leaf_[0]:
        return None
    feat = int(tree.feature_[0])
    edges = binner.bin_edges_[feat]
    bin_idx = int(np.searchsorted(edges, tree.threshold_[0]))
    assert edges[bin_idx] == tree.threshold_[0]
    return feat, bin_idx


class TestSinglePassSplitSearch:
    @given(_split_problems())
    @settings(max_examples=150, deadline=None)
    def test_split_matches_reference_bit_for_bit(self, problem):
        """The grower's root split on all rows and on a subset equals the
        per-feature reference search on that node."""
        _, binned, grad, hess, binner, feature_indices, params, rng = problem
        n, n_features = binned.shape
        fi = np.arange(n_features) if feature_indices is None else feature_indices
        oracle = gbm_oracle.RegressionTree(**params)
        nodes = [np.arange(n), np.sort(rng.choice(n, size=max(1, n // 2), replace=False))]
        for idx in nodes:
            node = _NodeBatch(0, idx, 0, float(grad[idx].sum()), float(hess[idx].sum()))
            want = _reference_best_split(oracle, binned, grad, hess, node, binner, fi)
            got = grown_root_split(params, binned, grad, hess, binner, feature_indices, idx)
            assert got == (None if want is None else want[:2])

    @given(_split_problems())
    @settings(max_examples=150, deadline=None)
    def test_oracle_split_matches_reference_bit_for_bit(self, problem):
        """The oracle learner's single-pass search equals the per-feature
        loop, gain bits included."""
        _, binned, grad, hess, binner, feature_indices, params, rng = problem
        n, n_features = binned.shape
        fi = np.arange(n_features) if feature_indices is None else feature_indices
        tree = gbm_oracle.RegressionTree(**params)
        candidates = _SplitCandidates(binned, binner, fi)
        nodes = [np.arange(n), np.sort(rng.choice(n, size=max(1, n // 2), replace=False))]
        for idx in nodes:
            node = _NodeBatch(0, idx, 0, float(grad[idx].sum()), float(hess[idx].sum()))
            got = tree._best_split(grad, hess, node, candidates)
            want = _reference_best_split(tree, binned, grad, hess, node, binner, fi)
            assert got == want
            if got is not None:
                assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()

    @given(_split_problems())
    @settings(max_examples=100, deadline=None)
    def test_tree_matches_reference_array_for_array(self, problem):
        X, binned, grad, hess, binner, feature_indices, params, _ = problem
        tree = RegressionTree(**params)
        reference = _ReferenceTree(**params)
        leaf_values = tree.fit_predict(binned, grad, hess, binner, feature_indices)
        reference.fit(binned, grad, hess, binner, feature_indices)
        assert tree.n_nodes_ == reference.n_nodes_
        for name in _TREE_ARRAYS:
            got, want = getattr(tree, name), getattr(reference, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), name
        assert leaf_values.tobytes() == tree_predict(reference, X).tobytes()

    def test_only_constant_features_gives_a_leaf(self):
        X = np.column_stack([np.full(40, 2.0), np.full(40, -1.0)])
        binner = Binner(max_bins=8).fit(X)
        binned = binner.transform(X)
        y = np.arange(40.0)
        tree = RegressionTree(min_samples_leaf=1).fit(binned, -y, np.ones(40), binner)
        assert tree.n_nodes_ == 1
        assert tree.value_[0] == -(-y.sum()) / (40 + tree.reg_lambda)

    def test_padding_cells_never_split(self):
        """A narrow feature's grid cells past its last bin hold an empty
        right side with gain 0; when every real split loses gain and the
        leaf-size guards are off, only the split-cell list excludes them."""
        # the outlier lands above feature 0's last edge, so its top bin is
        # occupied and every cell past it is padding
        X = np.column_stack([np.repeat([0.0, 5.0], [7, 1]), np.arange(8.0)])
        binner = Binner(max_bins=8).fit(X)
        binned = binner.transform(X)
        assert binner.n_bins(0) < binner.n_bins(1)
        grad, hess = np.ones(8), np.ones(8)
        params = dict(max_depth=1, min_samples_leaf=0, min_child_weight=0.0, min_gain=-1.0)
        tree = RegressionTree(**params).fit(binned, grad, hess, binner)
        reference = _ReferenceTree(**params).fit(binned, grad, hess, binner)
        for name in _TREE_ARRAYS:
            assert getattr(tree, name).tobytes() == getattr(reference, name).tobytes()
        assert tree.feature_[0] == reference.feature_[0] >= 0

    def test_nan_gains_void_only_their_feature(self):
        """Huge gradients with an infinite Hessian give NaN gains in the
        features that separate them; the reference skips exactly those
        features and still splits on the others."""
        params = dict(min_samples_leaf=1)
        oracle = gbm_oracle.RegressionTree(**params)
        for seed in range(1500):
            rng = np.random.default_rng(seed)
            X = rng.integers(0, 3, size=(10, 3)).astype(float)
            binner = Binner(max_bins=8).fit(X)
            binned = binner.transform(X)
            grad = rng.choice([1e200, -1e200, 1.0, -2.0], size=10)
            hess = rng.choice([np.inf, 1.0, 1.0, 1.0], size=10)
            idx = np.arange(10)
            node = _NodeBatch(0, idx, 0, float(grad.sum()), float(hess.sum()))
            fi = np.arange(3)
            with np.errstate(all="ignore"):
                want = _reference_best_split(oracle, binned, grad, hess, node, binner, fi)
            got = grown_root_split(params, binned, grad, hess, binner, None, idx)
            assert got == (None if want is None else want[:2]), seed

    def test_first_feature_wins_a_tie(self):
        col = np.repeat([0.0, 1.0], 20)
        X = np.column_stack([np.zeros(40), col, col])
        binner = Binner(max_bins=8).fit(X)
        binned = binner.transform(X)
        y = col * 5.0
        tree = RegressionTree(max_depth=1, min_samples_leaf=1)
        tree.fit(binned, -y, np.ones(40), binner)
        assert tree.feature_[0] == 1
        tree.fit(binned, -y, np.ones(40), binner, feature_indices=np.array([2]))
        assert tree.feature_[0] == 2
        # the node-by-node learner scans candidates in the order given
        oracle = gbm_oracle.RegressionTree(max_depth=1, min_samples_leaf=1)
        oracle.fit(binned, -y, np.ones(40), binner, feature_indices=np.array([2, 1]))
        assert oracle.feature_[0] == 2


class TestNodeSums:
    @given(
        st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_each_run_sums_as_np_sum(self, sizes, seed):
        """A node's sums are np.sum over its rows in row order, whatever
        the run's length (numpy's pairwise blocks start at 8 and 128)."""
        rng = np.random.default_rng(seed)
        sizes = np.array(sizes)
        n = int(sizes.sum()) + 3
        stats = rng.normal(size=(2, n)) * 10.0 ** rng.integers(-8, 8, size=(2, n))
        stats[rng.random(stats.shape) < 0.1] = -0.0
        rows = rng.permutation(n)[: sizes.sum()]
        got = _node_sums(stats, rows, sizes)
        ends = np.cumsum(sizes)
        for k, (start, end) in enumerate(zip(ends - sizes, ends)):
            for c in range(2):
                want = np.sum(stats[c, rows[start:end]])
                assert got[c, k].tobytes() == want.tobytes()


def test_level_searched_in_groups_matches_reference(monkeypatch):
    """A level holding more than ``_MAX_SEARCH_CELLS`` cells is searched in
    groups of nodes; the trees do not change."""
    rng = np.random.default_rng(12)
    X = rng.normal(size=(300, 5))
    X[:, 0] = rng.integers(0, 4, size=300)
    binner = Binner(max_bins=32).fit(X)
    binned = binner.transform(X)
    grad, hess = rng.normal(size=300), rng.random(300) + 0.5
    params = dict(max_depth=5, min_samples_leaf=3)
    reference = _ReferenceTree(**params).fit(binned, grad, hess, binner)
    monkeypatch.setattr(tree_module, "_MAX_SEARCH_CELLS", 100)
    tree = RegressionTree(**params).fit(binned, grad, hess, binner)
    assert reference.n_nodes_ > 15
    for name in _TREE_ARRAYS:
        assert getattr(tree, name).tobytes() == getattr(reference, name).tobytes(), name
