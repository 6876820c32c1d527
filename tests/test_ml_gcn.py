"""Tests for the directed GCN over plan graphs."""

import pickle

import numpy as np
import pytest

from repro.ml.gcn import DirectedGCN, GraphBatch, PlanGraph
from repro.ml.nn import huber_loss


def _chain_graph(n, n_features=4, seed=0, sys_dim=2):
    """A chain plan: node i+1 is the child of node i; root is node 0."""
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, n_features))
    if n > 1:
        edges = np.array([list(range(1, n)), list(range(n - 1))])
    else:
        edges = np.zeros((2, 0), dtype=int)
    return PlanGraph(
        node_features=feats,
        edges=edges,
        root=0,
        sys_features=rng.normal(size=sys_dim),
    )


def _random_tree(n, seed, n_features=4, sys_dim=2):
    rng = np.random.default_rng(seed)
    feats = np.abs(rng.normal(size=(n, n_features)))
    parents = [int(rng.integers(0, k)) for k in range(1, n)]
    edges = np.array([list(range(1, n)), parents]) if n > 1 else np.zeros((2, 0), dtype=int)
    return PlanGraph(
        node_features=feats,
        edges=edges,
        root=0,
        sys_features=np.abs(rng.normal(size=sys_dim)),
    )


class TestPlanGraph:
    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError, match="edge index"):
            PlanGraph(
                node_features=np.zeros((2, 3)),
                edges=np.array([[5], [0]]),
                root=0,
                sys_features=np.zeros(1),
            )

    def test_rejects_bad_root(self):
        with pytest.raises(ValueError, match="root index"):
            PlanGraph(
                node_features=np.zeros((2, 3)),
                edges=np.zeros((2, 0)),
                root=9,
                sys_features=np.zeros(1),
            )


class TestGraphBatch:
    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            GraphBatch([])

    def test_offsets_are_applied(self):
        g1 = _chain_graph(3, seed=1)
        g2 = _chain_graph(2, seed=2)
        batch = GraphBatch([g1, g2])
        assert batch.n_nodes == 5
        assert list(batch.roots) == [0, 3]
        assert batch.src.max() < 5

    def test_single_node_graphs(self):
        batch = GraphBatch([_chain_graph(1, seed=3)])
        assert batch.src.size == 0
        assert batch.n_nodes == 1

    def test_mean_aggregation_weights(self):
        g = _random_tree(5, seed=4)
        batch = GraphBatch([g], aggregation="mean")
        # weights for edges into the same parent must sum to 1
        for parent in np.unique(batch.dst):
            mask = batch.dst == parent
            assert batch.edge_weight[mask].sum() == pytest.approx(1.0)

    def test_invalid_aggregation(self):
        with pytest.raises(ValueError):
            GraphBatch([_chain_graph(2)], aggregation="max")


class TestDirectedGCN:
    def test_forward_shape(self):
        gcn = DirectedGCN(4, 2, hidden_dim=8, n_conv_layers=2, random_state=0)
        graphs = [_chain_graph(n, seed=n) for n in (1, 3, 6)]
        preds = gcn.predict_graphs(graphs)
        assert preds.shape == (3,)
        assert np.isfinite(preds).all()

    def test_gradient_check_tiny_graph(self):
        gcn = DirectedGCN(3, 1, hidden_dim=4, n_conv_layers=1, dropout=0.0, random_state=0)
        g = PlanGraph(
            node_features=np.array([[0.5, -1.0, 2.0], [1.0, 0.3, -0.2]]),
            edges=np.array([[1], [0]]),
            root=0,
            sys_features=np.array([0.7]),
        )
        target = np.array([2.0])
        batch = GraphBatch([g])

        pred = gcn.forward(batch)
        _, dpred = huber_loss(pred, target)
        for p in gcn.parameters():
            p.zero_grad()
        gcn.backward(dpred)

        eps = 1e-6
        for p in gcn.parameters():
            it = np.nditer(p.value, flags=["multi_index"])
            checked = 0
            while not it.finished and checked < 6:
                idx = it.multi_index
                orig = p.value[idx]
                p.value[idx] = orig + eps
                hi, _ = huber_loss(gcn.forward(batch), target)
                p.value[idx] = orig - eps
                lo, _ = huber_loss(gcn.forward(batch), target)
                p.value[idx] = orig
                num = (hi - lo) / (2 * eps)
                assert p.grad[idx] == pytest.approx(num, abs=1e-5)
                checked += 1
                it.iternext()

    def test_learns_additive_target(self):
        """Sum-aggregation GCN learns a target that is a sum over nodes."""
        rng = np.random.default_rng(5)
        graphs = [_random_tree(int(rng.integers(2, 9)), seed=i) for i in range(250)]
        targets = np.array([g.node_features[:, 0].sum() for g in graphs])
        gcn = DirectedGCN(4, 2, hidden_dim=16, n_conv_layers=3, dropout=0.0, random_state=0)
        gcn.fit(graphs, targets, epochs=50, batch_size=32, lr=3e-3)
        pred = gcn.predict_graphs(graphs)
        assert np.corrcoef(pred, targets)[0, 1] > 0.9

    def test_early_stopping_restores_best(self):
        graphs = [_random_tree(4, seed=i) for i in range(60)]
        targets = np.random.default_rng(0).normal(size=60)  # noise
        gcn = DirectedGCN(4, 2, hidden_dim=8, n_conv_layers=1, random_state=0)
        history = gcn.fit(
            graphs,
            targets,
            epochs=40,
            early_stopping_epochs=3,
            lr=1e-2,
        )
        assert len(history) < 40

    def test_target_length_mismatch_raises(self):
        gcn = DirectedGCN(4, 2, hidden_dim=8, n_conv_layers=1, random_state=0)
        with pytest.raises(ValueError, match="length mismatch"):
            gcn.fit([_chain_graph(2)], np.zeros(5), epochs=1)

    def test_sys_features_affect_prediction(self):
        gcn = DirectedGCN(4, 2, hidden_dim=8, n_conv_layers=1, random_state=0)
        g1 = _chain_graph(3, seed=1)
        g2 = PlanGraph(
            node_features=g1.node_features.copy(),
            edges=g1.edges.copy(),
            root=g1.root,
            sys_features=g1.sys_features + 10.0,
        )
        p1, p2 = gcn.predict_graphs([g1, g2])
        assert p1 != pytest.approx(p2)

    def test_byte_size_positive(self):
        gcn = DirectedGCN(4, 2, hidden_dim=8, n_conv_layers=1, random_state=0)
        assert gcn.byte_size() > 0


def held_caches(module):
    """Every forward cache in ``module``'s tree that is not ``None``."""
    held = [(type(module).__name__, n) for n in module._CACHES if getattr(module, n) is not None]
    for child in module._children():
        held.extend(held_caches(child))
    return held


class TestWeightsOnly:
    def test_fit_leaves_weights_alone(self):
        graphs = [_random_tree(5, seed=i) for i in range(80)]
        targets = np.random.default_rng(1).normal(size=80)
        gcn = DirectedGCN(4, 2, hidden_dim=8, n_conv_layers=2, dropout=0.2, random_state=0)
        gcn.fit(graphs, targets, epochs=3)
        assert held_caches(gcn) == []
        gcn.predict_graphs(graphs)
        assert held_caches(gcn) == []

    def test_pickle_drops_caches_and_gradients(self):
        gcn = DirectedGCN(4, 2, hidden_dim=8, n_conv_layers=2, dropout=0.2, random_state=0)
        batch = GraphBatch([_random_tree(6, seed=i) for i in range(4)])
        pred = gcn.forward(batch, training=True)
        gcn.backward(np.ones_like(pred))
        assert held_caches(gcn)  # a raw forward keeps what backward reads
        assert any(p.grad.any() for p in gcn.parameters())
        loaded = pickle.loads(pickle.dumps(gcn))
        assert held_caches(loaded) == []
        for original, param in zip(gcn.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(param.value, original.value)
            assert not param.grad.any()
        graphs = [_random_tree(n, seed=n) for n in (1, 3, 7)]
        np.testing.assert_array_equal(
            loaded.predict_graphs(graphs), gcn.predict_graphs(graphs)
        )
        # the live network still backpropagates after the pickle
        gcn.forward(batch, training=True)
        gcn.backward(np.ones_like(pred))
