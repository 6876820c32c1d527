"""Tests for the parallel fleet-sweep engine and batched component inference.

The engine's contract is bit-identical results: any ``n_jobs`` and the
batched component inference must reproduce a per-query reference
replay exactly, and component collection must never perturb the
predictors' accounting (exactly one counted cache lookup per query).
"""

import pickle

import numpy as np
import pytest

from repro.core.config import GlobalModelConfig, fast_profile
from repro.core.stage import BatchRouter, RoutedComponents, StagePredictor
from repro.global_model import GlobalModelTrainer
from repro.harness import (
    FleetSweeper,
    SweepConfig,
    replay_instance,
    resolve_n_jobs,
    run_sweep,
)
from repro.harness.replay import assemble_replay
from repro.workload import FleetConfig, FleetGenerator

from replay_parity import assert_replays_identical
from test_batched_paths import route_per_record


def replay_per_query(trace, config):
    """Reference replay the batched path must match: per-query routing
    through the per-record oracle (``route_per_record``, flushed after
    every query), probing the cache again — via the non-mutating peek,
    so the router's lookup stays the only counted one — and re-running
    the local ensemble on every local-ready query."""
    stage = StagePredictor(trace.instance, config=config)
    router = BatchRouter(stage)
    components = []
    for record in trace:
        slot = route_per_record(router, record)
        router.flush()
        routed = slot.components
        components.append(
            RoutedComponents(
                prediction=routed.prediction,
                cache=stage.cache.peek_prediction(stage.cache.key_for(record.features)),
                local=stage.local.predict(record.features) if stage.local.is_ready else None,
                local_ready=stage.local.is_ready,
                local_generation=stage.local.n_retrains,
            )
        )
        stage.observe(record)
    return assemble_replay(trace, components, stage.stats(), config=config)


@pytest.fixture(scope="module")
def small_trace():
    gen = FleetGenerator(FleetConfig(seed=9, volume_scale=0.12))
    return gen.generate_trace(gen.sample_instance(0), 1.0)


class TestResolveNJobs:
    def test_one_means_one(self):
        assert resolve_n_jobs(1, 100) == 1

    def test_capped_by_tasks(self):
        assert resolve_n_jobs(8, 3) == 3

    def test_nonpositive_means_all_cores(self):
        import os

        cores = os.cpu_count() or 1
        assert resolve_n_jobs(0, 1000) == min(cores, 1000)
        assert resolve_n_jobs(None, 1000) == min(cores, 1000)

    def test_never_below_one(self):
        assert resolve_n_jobs(4, 0) == 1


class TestComponentModes:
    def test_batched_matches_per_query(self, small_trace):
        cfg = fast_profile()
        batched = replay_instance(small_trace, config=cfg)
        assert_replays_identical(batched, replay_per_query(small_trace, cfg))

    def test_one_counted_lookup_per_query(self, small_trace):
        """Regression for the stat double-count bug: ``hits + misses``
        equals exactly one lookup per query regardless of component
        collection, and the stage stats are identical with and without
        it (and in the per-query reference)."""
        cfg = fast_profile()
        results = {
            "off": replay_instance(small_trace, config=cfg, collect_components=False),
            "batched": replay_instance(small_trace, config=cfg),
            "per_query": replay_per_query(small_trace, cfg),
        }
        n = len(small_trace)
        for name, replay in results.items():
            stats = replay.stage_stats
            assert stats["cache_hits"] + stats["cache_misses"] == n, name
        assert (
            results["off"].stage_stats
            == results["batched"].stage_stats
            == results["per_query"].stage_stats
        )

    def test_routed_arrays_unaffected_by_collection(self, small_trace):
        cfg = fast_profile()
        with_components = replay_instance(small_trace, config=cfg)
        without = replay_instance(small_trace, config=cfg, collect_components=False)
        for attr in ("stage_pred", "stage_source", "autowlm_pred"):
            assert np.array_equal(getattr(with_components, attr), getattr(without, attr))


class TestFleetSweeper:
    def test_indices_and_traces_agree(self, small_trace):
        fleet_cfg = FleetConfig(seed=9, volume_scale=0.12)
        sweeper = FleetSweeper(fleet_config=fleet_cfg, stage_config=fast_profile())
        by_index = sweeper.replay_indices([0], 1.0)
        by_trace = sweeper.replay_traces([small_trace])
        assert_replays_identical(by_index[0], by_trace[0])

    def test_parallel_traces_match_sequential(self):
        fleet_cfg = FleetConfig(seed=21, volume_scale=0.1)
        kwargs = dict(fleet_config=fleet_cfg, stage_config=fast_profile())
        seq = FleetSweeper(n_jobs=1, **kwargs).replay_indices(range(3), 1.0)
        par = FleetSweeper(n_jobs=2, **kwargs).replay_indices(range(3), 1.0)
        assert len(seq) == len(par) == 3
        for a, b in zip(seq, par):
            assert_replays_identical(a, b)


class TestPoolInitializer:
    """The global model ships to each worker once, via the pool
    initializer — never inside per-task payloads."""

    @pytest.fixture(scope="class")
    def tiny_model(self):
        gen = FleetGenerator(FleetConfig(seed=11, volume_scale=0.1))
        train = gen.generate_fleet_traces(2, 1.0, start_index=500)
        cfg = GlobalModelConfig(
            hidden_dim=12, n_conv_layers=2, epochs=2,
            max_queries_per_instance=50,
        )
        return GlobalModelTrainer(cfg).train(train)

    def test_task_payloads_never_carry_the_model(self, tiny_model):
        sweeper = FleetSweeper(
            fleet_config=FleetConfig(seed=11, volume_scale=0.1),
            stage_config=fast_profile(),
            global_model=tiny_model,
            n_jobs=2,
        )
        pool_settings = sweeper._settings(inline=False)
        assert pool_settings.use_global_model
        assert pool_settings.global_model is None
        # the per-task payload is config + scalars: orders of magnitude
        # below the model it used to embed
        settings_bytes = len(pickle.dumps(pool_settings))
        model_bytes = len(pickle.dumps(tiny_model))
        assert settings_bytes < 4096
        assert settings_bytes * 10 < model_bytes

    def test_inline_path_keeps_the_model_unpickled(self, tiny_model):
        sweeper = FleetSweeper(global_model=tiny_model)
        inline_settings = sweeper._settings(inline=True)
        assert inline_settings.global_model is tiny_model

    def test_pool_results_match_inline_with_global_model(self, tiny_model):
        """Replay outputs are unchanged by the initializer path: the
        pooled sweep (worker-installed model) reproduces the inline
        sweep (direct model reference) bit for bit."""
        kwargs = dict(
            fleet_config=FleetConfig(seed=11, volume_scale=0.1),
            stage_config=fast_profile(),
            global_model=tiny_model,
        )
        seq = FleetSweeper(n_jobs=1, **kwargs).replay_indices(range(3), 1.0)
        par = FleetSweeper(n_jobs=2, **kwargs).replay_indices(range(3), 1.0)
        assert all(np.isfinite(r.global_pred).any() for r in seq)
        for a, b in zip(seq, par):
            assert_replays_identical(a, b)

    def test_missing_worker_model_is_an_error(self):
        from repro.harness.parallel import (
            _ReplaySettings,
            _resolve_global_model,
        )

        orphan = _ReplaySettings(
            stage_config=None,
            random_state=0,
            collect_components=False,
            use_global_model=True,
            global_model=None,
        )
        with pytest.raises(RuntimeError, match="no global model"):
            _resolve_global_model(orphan)


class TestParallelFleetGeneration:
    def test_generate_fleet_traces_n_jobs_parity(self):
        gen = FleetGenerator(FleetConfig(seed=4, volume_scale=0.1))
        seq = gen.generate_fleet_traces(3, 1.0, n_jobs=1)
        par = gen.generate_fleet_traces(3, 1.0, n_jobs=2)
        assert [t.instance.instance_id for t in seq] == [t.instance.instance_id for t in par]
        for a, b in zip(seq, par):
            assert len(a) == len(b)
            np.testing.assert_array_equal([r.exec_time for r in a], [r.exec_time for r in b])
            np.testing.assert_array_equal(
                np.vstack([r.features for r in a]),
                np.vstack([r.features for r in b]),
            )


class TestSweepParity:
    def test_run_sweep_n_jobs_2_matches_sequential(self):
        """A 3-instance sweep (with a trained global model) is array-for-
        array identical under ``n_jobs=2`` and ``n_jobs=1``."""
        cfg = SweepConfig(
            seed=5,
            n_eval_instances=3,
            n_train_instances=2,
            duration_days=1.0,
            volume_scale=0.12,
            global_model=GlobalModelConfig(
                hidden_dim=16,
                n_conv_layers=2,
                epochs=4,
                max_queries_per_instance=80,
            ),
        )
        seq = run_sweep(cfg, n_jobs=1)
        par = run_sweep(cfg, n_jobs=2)
        assert len(seq.replays) == len(par.replays) == 3
        for a, b in zip(seq.replays, par.replays):
            assert_replays_identical(a, b)
