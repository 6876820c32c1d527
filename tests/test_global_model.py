"""Tests for the global model: featurization, trainer, transfer."""

import pickle

import numpy as np
import pytest

from repro.core.config import GlobalModelConfig
from repro.core.interfaces import PredictionSource
from repro.global_model import (
    GlobalModelTrainer,
    SYS_FEATURE_DIM,
    load_global_model,
    record_to_graph,
    records_to_graphs,
    save_global_model,
    system_features,
)
from repro.workload import FleetConfig, FleetGenerator

from test_ml_gcn import held_caches


@pytest.fixture(scope="module")
def fleet():
    gen = FleetGenerator(FleetConfig(seed=21, volume_scale=0.4))
    train = gen.generate_fleet_traces(8, 2.0, start_index=50)
    held_out = gen.generate_trace(gen.sample_instance(0), 1.5)
    return gen, train, held_out


@pytest.fixture(scope="module")
def trained_model(fleet):
    _, train, __ = fleet
    cfg = GlobalModelConfig(hidden_dim=40, n_conv_layers=3, epochs=25, max_queries_per_instance=300)
    return GlobalModelTrainer(cfg).train(train)


class TestFeaturization:
    def test_system_features_dim(self, fleet):
        _, train, __ = fleet
        record = train[0][0]
        sys = system_features(record.plan, train[0].instance)
        assert sys.shape == (SYS_FEATURE_DIM,)

    def test_graph_has_plan_shape(self, fleet):
        _, train, __ = fleet
        record = train[0][0]
        g = record_to_graph(record.plan, train[0].instance)
        assert g.node_features.shape[0] == record.plan.n_nodes
        assert g.sys_features.shape == (SYS_FEATURE_DIM,)

    def test_latent_speed_not_in_features(self, fleet):
        """The hidden instance factor must be invisible to the global model."""
        _, train, __ = fleet
        import dataclasses

        inst = train[0].instance
        doubled = dataclasses.replace(inst, latent_speed=inst.latent_speed * 4)
        record = train[0][0]
        np.testing.assert_array_equal(
            record_to_graph(record.plan, inst).sys_features,
            record_to_graph(record.plan, doubled).sys_features,
        )


class TestTrainer:
    def test_dataset_respects_per_instance_cap(self, fleet):
        _, train, __ = fleet
        cfg = GlobalModelConfig(max_queries_per_instance=20)
        graphs, targets = GlobalModelTrainer(cfg).build_dataset(train)
        assert len(graphs) <= 20 * len(train)
        assert len(graphs) == targets.shape[0]

    def test_dataset_deduplicates_identities(self, fleet):
        _, train, __ = fleet
        cfg = GlobalModelConfig(max_queries_per_instance=10_000)
        graphs, _ = GlobalModelTrainer(cfg).build_dataset(train)
        n_identities = sum(len({r.identity for r in trace}) for trace in train)
        assert len(graphs) == n_identities

    def test_empty_traces_raise(self):
        with pytest.raises(ValueError, match="empty traces"):
            GlobalModelTrainer().train([])


class TestTrainedModel:
    def test_predicts_positive_seconds(self, trained_model, fleet):
        _, __, held_out = fleet
        pred = trained_model.predict(held_out[0].plan, held_out.instance)
        assert pred.source == PredictionSource.GLOBAL
        assert pred.exec_time > 0

    def test_transfer_beats_constant_on_unseen_instance(self, trained_model, fleet):
        """Zero-shot transfer: on a *held-out* instance the global model
        should rank queries far better than a constant predictor."""
        _, __, held_out = fleet
        records = list(held_out)[:300]
        answers = trained_model.predict_many([r.plan for r in records], held_out.instance)
        preds = np.array([p.exec_time for p in answers])
        true = np.array([r.exec_time for r in records])
        corr = np.corrcoef(np.log1p(preds), np.log1p(true))[0, 1]
        # the hidden per-instance speed factor bounds what zero-shot
        # transfer can achieve (the paper's Section 5.4 discussion), but
        # plan difficulty must still rank clearly better than chance
        assert corr > 0.5

    def test_batch_and_single_predictions_match(self, trained_model, fleet):
        _, __, held_out = fleet
        plans = [r.plan for r in list(held_out)[:5]]
        batch = trained_model.predict_many(plans, held_out.instance)
        singles = [trained_model.predict(plan, held_out.instance) for plan in plans]
        assert batch == singles

    def test_byte_size(self, trained_model):
        assert trained_model.byte_size() > 0

    def test_records_to_graphs_matches_singles(self, fleet):
        _, __, held_out = fleet
        records = list(held_out)[:8]
        batch = records_to_graphs(records, held_out.instance)
        for graph, record in zip(batch, records):
            single = record_to_graph(record.plan, held_out.instance)
            np.testing.assert_array_equal(graph.node_features, single.node_features)
            np.testing.assert_array_equal(graph.sys_features, single.sys_features)


class TestSerialization:
    """Save → load → identical predictions; the sweeper's pool
    initializer and any fleet-wide deployment depend on this artifact
    being faithful."""

    def test_round_trip_predictions_identical(self, trained_model, fleet, tmp_path):
        _, __, held_out = fleet
        plans = [r.plan for r in list(held_out)[:50]]
        path = str(tmp_path / "global_model.npz")
        save_global_model(trained_model, path)
        loaded = load_global_model(path)
        assert loaded.predict_many(plans, held_out.instance) == trained_model.predict_many(
            plans, held_out.instance
        )

    def test_round_trip_preserves_scalers_and_architecture(self, trained_model, tmp_path):
        path = str(tmp_path / "global_model.npz")
        save_global_model(trained_model, path)
        loaded = load_global_model(path)
        np.testing.assert_array_equal(trained_model.node_scaler.mean_, loaded.node_scaler.mean_)
        np.testing.assert_array_equal(trained_model.node_scaler.scale_, loaded.node_scaler.scale_)
        np.testing.assert_array_equal(trained_model.sys_scaler.mean_, loaded.sys_scaler.mean_)
        np.testing.assert_array_equal(trained_model.sys_scaler.scale_, loaded.sys_scaler.scale_)
        assert loaded.gcn.hidden_dim == trained_model.gcn.hidden_dim
        assert len(loaded.gcn.convs) == len(trained_model.gcn.convs)
        assert loaded.transform.max_seconds == trained_model.transform.max_seconds

    def test_round_trip_survives_pickle(self, trained_model, fleet, tmp_path):
        """The loaded artifact must also pickle cleanly — that is how
        the pool initializer ships it to worker processes."""
        _, __, held_out = fleet
        plans = [r.plan for r in list(held_out)[:10]]
        path = str(tmp_path / "global_model.npz")
        save_global_model(trained_model, path)
        loaded = pickle.loads(pickle.dumps(load_global_model(path)))
        assert loaded.predict_many(plans, held_out.instance) == trained_model.predict_many(
            plans, held_out.instance
        )

    def test_version_mismatch_rejected(self, trained_model, tmp_path):
        path = str(tmp_path / "global_model.npz")
        save_global_model(trained_model, path)
        with np.load(path) as data:
            arrays = {k: data[k].copy() for k in data.files}
        arrays["meta"][0] = 999
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="format version"):
            load_global_model(path)


class TestWeightsOnly:
    """A trained model is its weights, scalers and residual head: no
    activations, masks or batch caches outlive ``fit`` or a predict, and
    a pickle (how every tier ships the model to its shards) carries
    nothing else."""

    def test_trained_model_holds_no_caches(self, trained_model, fleet):
        _, __, held_out = fleet
        trained_model.predict_many([r.plan for r in list(held_out)[:20]], held_out.instance)
        assert held_caches(trained_model.gcn) == []

    def test_pickle_is_weights_scalers_and_head(self, trained_model):
        assert len(pickle.dumps(trained_model)) <= trained_model.byte_size() + 16 * 1024

    def test_pickle_round_trip_predicts_bit_identically(self, trained_model, fleet):
        _, __, held_out = fleet
        plans = [r.plan for r in list(held_out)[:40]]
        loaded = pickle.loads(pickle.dumps(trained_model))
        expected = trained_model.predict_many(plans, held_out.instance)
        assert loaded.predict_many(plans, held_out.instance) == expected
        assert loaded.residual_variance == trained_model.residual_variance

    def test_unpickled_gradients_are_zero(self, trained_model):
        loaded = pickle.loads(pickle.dumps(trained_model))
        for original, param in zip(trained_model.gcn.parameters(), loaded.gcn.parameters()):
            np.testing.assert_array_equal(param.value, original.value)
            assert param.grad.shape == param.value.shape
            assert not param.grad.any()
