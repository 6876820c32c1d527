"""Tests for the extension features: model serialization and WLM
concurrency scaling."""

import os

import numpy as np
import pytest

from repro.core.config import GlobalModelConfig
from repro.global_model import GlobalModelTrainer, load_global_model, save_global_model
from repro.wlm import WLMConfig, simulate_wlm
from repro.workload import FleetConfig, FleetGenerator


class TestGlobalModelSerialization:
    @pytest.fixture(scope="class")
    def model_and_trace(self):
        gen = FleetGenerator(FleetConfig(seed=71, volume_scale=0.25))
        train = gen.generate_fleet_traces(4, 1.5, start_index=40)
        model = GlobalModelTrainer(
            GlobalModelConfig(hidden_dim=24, n_conv_layers=2, epochs=6)
        ).train(train)
        trace = gen.generate_trace(gen.sample_instance(0), 1.0)
        return model, trace

    def test_roundtrip_identical_predictions(self, model_and_trace, tmp_path):
        model, trace = model_and_trace
        path = os.path.join(tmp_path, "global.npz")
        save_global_model(model, path)
        loaded = load_global_model(path)
        plans = [r.plan for r in list(trace)[:20]]
        assert loaded.predict_many(plans, trace.instance) == model.predict_many(
            plans, trace.instance
        )

    def test_file_is_reasonably_small(self, model_and_trace, tmp_path):
        model, _ = model_and_trace
        path = os.path.join(tmp_path, "global.npz")
        save_global_model(model, path)
        assert 0 < os.path.getsize(path) < 5 * 1024 * 1024

    def test_version_check(self, model_and_trace, tmp_path):
        model, _ = model_and_trace
        path = os.path.join(tmp_path, "global.npz")
        save_global_model(model, path)
        data = dict(np.load(path))
        data["meta"] = data["meta"].copy()
        data["meta"][0] = 99
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="format version"):
            load_global_model(path)


class TestConcurrencyScaling:
    def test_disabled_by_default(self):
        arrivals = [0.0, 0.0, 0.0]
        execs = [10.0, 10.0, 10.0]
        result = simulate_wlm(arrivals, execs, execs, WLMConfig(long_slots=1))
        assert all(o.queue != "burst" for o in result.outcomes)

    def test_burst_reduces_latency_under_contention(self):
        rng = np.random.default_rng(3)
        n = 100
        arrivals = np.sort(rng.uniform(0, 50, n))
        execs = rng.exponential(20.0, n) + 6.0  # all long-ish
        preds = execs
        base = simulate_wlm(arrivals, execs, preds, WLMConfig(long_slots=2))
        burst = simulate_wlm(
            arrivals,
            execs,
            preds,
            WLMConfig(long_slots=2, burst_slots=4, burst_startup_s=5.0),
        )
        assert burst.mean_latency < base.mean_latency
        assert any(o.queue == "burst" for o in burst.outcomes)

    def test_burst_only_used_when_long_slots_busy(self):
        # two long queries, two long slots: no need for burst
        arrivals = [0.0, 0.0]
        execs = [10.0, 10.0]
        result = simulate_wlm(
            arrivals,
            execs,
            execs,
            WLMConfig(long_slots=2, burst_slots=2),
        )
        assert all(o.queue == "long" for o in result.outcomes)

    def test_burst_startup_delays_finish(self):
        # one long slot busy; second query overflows to burst with startup
        arrivals = [0.0, 0.0]
        execs = [100.0, 10.0]
        result = simulate_wlm(
            arrivals,
            execs,
            [100.0, 99.0],  # both predicted long; SJF runs qid=1 second
            WLMConfig(long_slots=1, burst_slots=1, burst_startup_s=30.0),
        )
        by_id = {o.query_id: o for o in result.outcomes}
        assert by_id[1].queue == "burst"
        assert by_id[1].latency == pytest.approx(30.0 + 10.0)

    def test_invalid_burst_config(self):
        with pytest.raises(ValueError):
            WLMConfig(burst_slots=-1)
        with pytest.raises(ValueError):
            WLMConfig(burst_startup_s=-1.0)
