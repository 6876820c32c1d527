"""Tests for what-if reasoning with the global model (paper Section 6.1)."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import GlobalModelConfig
from repro.global_model import GlobalModelTrainer
from repro.workload import FleetConfig, FleetGenerator


@pytest.fixture(scope="module")
def setup():
    gen = FleetGenerator(FleetConfig(seed=61, volume_scale=0.35))
    train = gen.generate_fleet_traces(8, 2.0, start_index=300)
    model = GlobalModelTrainer(
        GlobalModelConfig(hidden_dim=40, n_conv_layers=3, epochs=20)
    ).train(train)
    trace = gen.generate_trace(gen.sample_instance(1), 1.0)
    return model, trace


class TestWhatIfScaling:
    def test_more_nodes_predicts_not_slower_on_heavy_queries(self, setup):
        """Across the fleet, bigger clusters run the same plan faster; a
        trained global model should reflect that direction when asked a
        counterfactual node count (aggregate over heavy queries)."""
        model, trace = setup
        heavy = sorted(trace, key=lambda r: r.exec_time, reverse=True)[:10]
        instance = trace.instance
        small = dataclasses.replace(instance, n_nodes=2)
        large = dataclasses.replace(instance, n_nodes=max(8, instance.n_nodes * 2))
        plans = [r.plan for r in heavy]
        pred_small = np.array([p.exec_time for p in model.predict_many(plans, small)])
        pred_large = np.array([p.exec_time for p in model.predict_many(plans, large)])
        # direction on the geometric mean (individual queries may wiggle)
        assert np.exp(np.mean(np.log1p(pred_large))) <= np.exp(
            np.mean(np.log1p(pred_small))
        ) * 1.05

    def test_counterfactual_changes_prediction(self, setup):
        """The node count must actually be part of the model's input."""
        model, trace = setup
        record = max(trace, key=lambda r: r.exec_time)
        instance = trace.instance
        a = model.predict(record.plan, dataclasses.replace(instance, n_nodes=2))
        b = model.predict(record.plan, dataclasses.replace(instance, n_nodes=32))
        assert a.exec_time != pytest.approx(b.exec_time)
