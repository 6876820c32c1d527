"""Tests for the Stage predictor's hierarchical routing."""

import numpy as np
import pytest

from repro.core import (
    AutoWLMPredictor,
    OptimalPredictor,
    PredictionSource,
    StagePredictor,
    fast_profile,
)
from repro.core.config import LocalModelConfig, paper_profile
from repro.workload import FleetConfig, FleetGenerator


@pytest.fixture(scope="module")
def trace():
    gen = FleetGenerator(FleetConfig(seed=33, volume_scale=0.3))
    # instance 0 with seed 33 is repetition-heavy; good for cache tests
    return gen.generate_trace(gen.sample_instance(0), 1.5)


def _fast_stage(trace, **overrides):
    cfg = fast_profile()
    if overrides:
        import dataclasses

        cfg = dataclasses.replace(cfg, **overrides)
    return StagePredictor(trace.instance, global_model=None, config=cfg)


class TestProfiles:
    def test_paper_profile_matches_publication(self):
        cfg = paper_profile()
        assert cfg.cache.capacity == 2000
        assert cfg.cache.alpha == 0.8
        assert cfg.local.n_members == 10
        assert cfg.local.n_estimators == 200
        assert cfg.local.max_depth == 6
        assert cfg.local.validation_fraction == 0.2

    def test_fast_profile_is_smaller(self):
        fast, paper = fast_profile(), paper_profile()
        assert fast.local.n_members < paper.local.n_members
        assert fast.local.n_estimators < paper.local.n_estimators


class TestRouting:
    def test_cold_start_uses_default(self, trace):
        stage = _fast_stage(trace)
        pred = stage.predict(trace[0])
        assert pred.source == PredictionSource.DEFAULT

    def test_repeat_hits_cache(self, trace):
        stage = _fast_stage(trace)
        first = trace[0]
        stage.observe(first)
        # identical query again (same features object)
        pred = stage.predict(first)
        assert pred.source == PredictionSource.CACHE
        assert pred.exec_time == pytest.approx(first.exec_time)

    def test_cache_prediction_blends_history(self, trace):
        stage = _fast_stage(trace)
        record = trace[0]
        key = stage.cache.key_for(record.features)
        stage.cache.observe(key, 1.0)
        stage.cache.observe(key, 3.0)
        pred = stage.predict(record)
        # alpha=0.8: 0.8 * mean(1,3) + 0.2 * last(3) = 2.2
        assert pred.exec_time == pytest.approx(0.8 * 2.0 + 0.2 * 3.0)

    def test_local_serves_after_warmup(self, trace):
        stage = _fast_stage(trace)
        for record in list(trace)[:200]:
            stage.predict(record)
            stage.observe(record)
        assert stage.local.is_ready
        counts = stage.source_counts
        assert counts[PredictionSource.LOCAL] > 0
        assert counts[PredictionSource.GLOBAL] == 0  # no global attached

    def test_source_accounting_sums(self, trace):
        stage = _fast_stage(trace)
        n = 150
        for record in list(trace)[:n]:
            stage.predict(record)
            stage.observe(record)
        assert sum(stage.source_counts.values()) == n

    def test_observe_dedup_rule(self, trace):
        """A cache-hit execution must not enter the local training pool."""
        stage = _fast_stage(trace)
        record = trace[0]
        stage.observe(record)  # miss -> pooled
        pool_after_first = len(stage.local.pool)
        stage.observe(record)  # hit -> deduplicated
        assert len(stage.local.pool) == pool_after_first
        assert stage.local.pool.skipped_duplicates >= 1


class TestPredictWithComponents:
    def test_cache_hit_exposes_value_without_local_call(self, trace):
        stage = _fast_stage(trace)
        first = trace[0]
        stage.observe(first)
        routed = stage.predict_with_components(first)
        assert routed.prediction.source == PredictionSource.CACHE
        assert routed.cache is not None
        assert routed.cache.exec_time == pytest.approx(routed.prediction.exec_time)
        assert routed.local is None

    def test_miss_reuses_router_local_answer(self, trace):
        stage = _fast_stage(trace)
        records = list(trace)
        for record in records[:200]:
            stage.predict(record)
            stage.observe(record)
        assert stage.local.is_ready
        # find a record that misses the cache
        routed = None
        for record in records[200:]:
            routed = stage.predict_with_components(record)
            if routed.cache is None:
                break
        assert routed is not None and routed.cache is None
        assert routed.local is not None
        assert routed.local_ready
        assert routed.local_generation == stage.local.n_retrains
        # the routed answer IS the local answer (no global attached)
        assert routed.prediction.exec_time == routed.local.exec_time

    def test_counters_match_plain_predict(self, trace):
        """The component-exposing path must account identically to
        ``predict`` — same source counts, same cache hits/misses."""
        a, b = _fast_stage(trace), _fast_stage(trace)
        for record in list(trace)[:150]:
            a.predict(record)
            b.predict_with_components(record)
            a.observe(record)
            b.observe(record)
        assert a.source_counts == b.source_counts
        assert a.cache.hits == b.cache.hits
        assert a.cache.misses == b.cache.misses
        assert a.cache.hits + a.cache.misses == 150


class _FixedGlobal:
    """Stub global model returning a constant, for routing tests."""

    def __init__(self, value=42.0):
        self.value = value
        self.calls = 0

    def predict(self, plan, instance, n_concurrent=0.0):
        from repro.core.interfaces import Prediction, PredictionSource

        self.calls += 1
        return Prediction(exec_time=self.value, source=PredictionSource.GLOBAL)

    def predict_many(self, plans, instance, n_concurrent=0.0):
        return [self.predict(plan, instance, n_concurrent) for plan in plans]

    def byte_size(self):
        return 123


class TestGlobalRouting:
    def test_uncertain_long_queries_go_global(self, trace):
        """With an impossible certainty bar, every non-short local
        prediction must escalate to the global model."""
        gm = _FixedGlobal()
        cfg = fast_profile()
        import dataclasses

        cfg = dataclasses.replace(cfg, uncertainty_threshold=0.0, short_circuit_seconds=0.0)
        stage = StagePredictor(trace.instance, global_model=gm, config=cfg)
        for record in list(trace)[:120]:
            stage.predict(record)
            stage.observe(record)
        assert gm.calls > 0
        assert stage.source_counts[PredictionSource.GLOBAL] > 0

    def test_certain_short_queries_stay_local(self, trace):
        gm = _FixedGlobal()
        cfg = fast_profile()
        import dataclasses

        # infinitely tolerant: local is always "certain"
        cfg = dataclasses.replace(cfg, uncertainty_threshold=np.inf)
        stage = StagePredictor(trace.instance, global_model=gm, config=cfg)
        records = list(trace)
        warmup = records[:-50]
        for record in warmup:
            stage.predict(record)
            stage.observe(record)
        assert stage.local.is_ready
        calls_after_warmup = gm.calls
        for record in records[-50:]:
            stage.predict(record)
        # with local ready and always certain, no query escalates
        assert gm.calls == calls_after_warmup
        assert stage.source_counts[PredictionSource.LOCAL] > 0

    def test_components_expose_local_on_escalation(self, trace):
        """When the router escalates to the global model, the local
        answer it computed on the way is still surfaced for reuse."""
        gm = _FixedGlobal()
        cfg = fast_profile()
        import dataclasses

        cfg = dataclasses.replace(cfg, uncertainty_threshold=0.0, short_circuit_seconds=0.0)
        stage = StagePredictor(trace.instance, global_model=gm, config=cfg)
        records = list(trace)
        for record in records[:200]:
            stage.predict(record)
            stage.observe(record)
        assert stage.local.is_ready
        routed = None
        for record in records[200:]:
            routed = stage.predict_with_components(record)
            if routed.cache is None:
                break
        assert routed is not None and routed.cache is None
        assert routed.prediction.source == PredictionSource.GLOBAL
        assert routed.local is not None  # computed and escalated past

    def test_global_used_before_local_ready(self, trace):
        gm = _FixedGlobal()
        stage = StagePredictor(trace.instance, global_model=gm, config=fast_profile())
        pred = stage.predict(trace[0])
        assert pred.source == PredictionSource.GLOBAL
        assert pred.exec_time == 42.0

    def test_global_use_fraction(self, trace):
        gm = _FixedGlobal()
        stage = StagePredictor(trace.instance, global_model=gm, config=fast_profile())
        stage.predict(trace[0])
        assert stage.global_use_fraction == 1.0

    def test_byte_size_excludes_global(self, trace):
        gm = _FixedGlobal()
        stage = StagePredictor(trace.instance, global_model=gm, config=fast_profile())
        for record in list(trace)[:100]:
            stage.observe(record)
        assert stage.byte_size() > 0
        # the shared global model's 123 bytes must not be counted
        assert stage.byte_size() == stage.cache.byte_size() + stage.local.byte_size()


class TestBaselines:
    def test_optimal_returns_truth(self, trace):
        optimal = OptimalPredictor()
        for record in list(trace)[:10]:
            assert optimal.predict(record).exec_time == record.exec_time
            optimal.observe(record)

    def test_autowlm_cold_start_default(self, trace):
        auto = AutoWLMPredictor(config=LocalModelConfig(min_train_size=30))
        pred = auto.predict(trace[0])
        assert pred.source == PredictionSource.DEFAULT

    def test_autowlm_trains_and_predicts(self, trace):
        auto = AutoWLMPredictor(
            config=LocalModelConfig(
                n_estimators=15, max_depth=3, min_train_size=25, retrain_interval=50
            )
        )
        for record in list(trace)[:150]:
            auto.predict(record)
            auto.observe(record)
        assert auto.n_retrains >= 1
        pred = auto.predict(trace[0])
        assert pred.source == PredictionSource.AUTOWLM
        assert pred.exec_time >= 0
        assert auto.byte_size() > 0

    def test_autowlm_no_uncertainty(self, trace):
        auto = AutoWLMPredictor(config=LocalModelConfig(n_estimators=10, min_train_size=20))
        for record in list(trace)[:60]:
            auto.observe(record)
        assert auto.predict(trace[0]).variance == 0.0
