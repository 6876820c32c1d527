"""Determinism/parity suite for the sharded global-model trainer.

The trainer's contract mirrors the fleet sweeper's: any ``n_jobs`` (and
therefore any shard assignment) must produce a **bit-identical** dataset,
scaler moments, and trained model, and the dataset drawn from each trace
must not depend on where that trace sits in the input ordering.  The two
invariants under test:

- per-trace subsampling is seeded from ``(random_state, instance id)``
  alone (the regression here: it used to be seeded from the running
  graph count, so any reordering or sharding changed the sample);
- scaler moments are computed per trace and merged in trace order, so
  the reduction never sees shard boundaries.
"""

import numpy as np
import pytest

from repro.core.config import GlobalModelConfig
from repro.global_model import GlobalModelTrainer
from repro.global_model.trainer import subsample_trace
from repro.ml.preprocessing import RunningMoments
from repro.workload import FleetConfig, FleetGenerator

#: five traces so that 2 and 3 shards both split unevenly
N_TRACES = 5

TRAINER_CONFIG = GlobalModelConfig(
    hidden_dim=16,
    n_conv_layers=2,
    epochs=3,
    max_queries_per_instance=60,
)


def assert_graphs_identical(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.node_features, y.node_features)
        assert np.array_equal(x.sys_features, y.sys_features)
        assert np.array_equal(x.edges, y.edges)
        assert x.root == y.root


@pytest.fixture(scope="module")
def traces():
    gen = FleetGenerator(FleetConfig(seed=3, volume_scale=0.1))
    return gen.generate_fleet_traces(N_TRACES, 1.0, start_index=100)


@pytest.fixture(scope="module")
def trainer():
    return GlobalModelTrainer(TRAINER_CONFIG)


@pytest.fixture(scope="module")
def sequential_dataset(trainer, traces):
    return trainer.build_dataset(traces, n_jobs=1)


@pytest.fixture(scope="module")
def sequential_model(trainer, traces):
    return trainer.train(traces, n_jobs=1)


class TestRunningMoments:
    def test_matches_numpy_on_one_batch(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        m = RunningMoments(3).update(X)
        np.testing.assert_allclose(m.mean, X.mean(axis=0))
        np.testing.assert_allclose(m.std, X.std(axis=0))

    def test_merge_matches_concatenation(self):
        rng = np.random.default_rng(1)
        X, Y = rng.normal(size=(30, 4)), rng.normal(size=(17, 4))
        merged = RunningMoments(4).update(X).merge(RunningMoments(4).update(Y))
        both = np.vstack([X, Y])
        assert merged.count == 47
        np.testing.assert_allclose(merged.mean, both.mean(axis=0))
        np.testing.assert_allclose(merged.variance, both.var(axis=0))

    def test_premerged_grouping_is_equivalent_but_not_bit_guaranteed(self):
        """Floating-point merging is not associative: pre-merging a
        shard's batches before the final reduction (what a worker would
        do if it reduced its shard before returning) is mathematically
        equivalent but has no bitwise guarantee — on this platform it
        differs at the ulp level.  That is why workers return
        *per-trace* moments and the parent owns the merge order; the
        bitwise enforcement lives in ``TestShardedParity`` and
        ``test_worker_returns_are_split_invariant``, which exercise the
        real protocol."""
        rng = np.random.default_rng(2)
        batches = [rng.normal(size=(n, 2)) for n in (7, 12, 3, 9)]
        per_batch = [RunningMoments(2).update(b) for b in batches]

        flat = RunningMoments(2)
        for m in per_batch:
            flat.merge(m)
        # shard [0,1] and shard [2,3], each pre-merged, then combined
        head = RunningMoments(2).merge(per_batch[0]).merge(per_batch[1])
        tail = RunningMoments(2).merge(per_batch[2]).merge(per_batch[3])
        grouped = head.merge(tail)
        assert flat.count == grouped.count == sum(len(b) for b in batches)
        np.testing.assert_allclose(flat.mean, grouped.mean)
        np.testing.assert_allclose(flat.m2, grouped.m2)

    def test_worker_returns_are_split_invariant(self, traces, trainer):
        """The actual worker protocol: per-trace tuples from any shard
        split, merged in trace order by the parent, give bitwise
        identical scaler moments."""
        from repro.global_model.trainer import _featurize_shard_worker
        from repro.plans.graph import NODE_FEATURE_DIM

        def moments_via(splits):
            per_trace = []
            for lo, hi in splits:
                per_trace.extend(_featurize_shard_worker((traces[lo:hi], trainer.config, True)))
            merged = RunningMoments(NODE_FEATURE_DIM)
            for _, __, node_m, ___ in per_trace:
                merged.merge(node_m)
            return merged

        uneven = moments_via([(0, 2), (2, 5)])
        lopsided = moments_via([(0, 4), (4, 5)])
        assert uneven.count == lopsided.count
        assert np.array_equal(uneven.mean, lopsided.mean)
        assert np.array_equal(uneven.m2, lopsided.m2)

    def test_empty_and_zero_guards(self):
        m = RunningMoments(2)
        assert np.array_equal(m.variance, np.zeros(2))
        m.update(np.zeros((0, 2)))
        assert m.count == 0
        with pytest.raises(ValueError):
            m.update(np.zeros((4, 3)))


class TestSubsampleSeeding:
    def test_sample_independent_of_trace_position(self, trainer, traces):
        """The regression: each trace must draw the same subsample no
        matter what precedes it in the input ordering."""
        per_trace = {t.instance.instance_id: subsample_trace(t, trainer.config) for t in traces}
        for order in ([4, 1, 3, 0, 2], [2, 3, 0, 4, 1]):
            for trace in (traces[i] for i in order):
                again = subsample_trace(trace, trainer.config)
                expected = per_trace[trace.instance.instance_id]
                assert [r.query_id for r in again] == [r.query_id for r in expected]

    def test_permuted_traces_build_same_dataset(self, trainer, traces, sequential_dataset):
        """Trace-order permutation permutes whole per-trace blocks but
        changes nothing inside them: the permuted dataset equals the
        concatenation of each trace's individually built dataset."""
        order = [3, 0, 4, 1, 2]
        permuted = [traces[i] for i in order]
        graphs_p, targets_p = trainer.build_dataset(permuted, n_jobs=1)

        blocks = [trainer.build_dataset([t], n_jobs=1) for t in traces]
        expected_graphs = [g for i in order for g in blocks[i][0]]
        expected_targets = np.concatenate([blocks[i][1] for i in order])
        assert_graphs_identical(graphs_p, expected_graphs)
        assert np.array_equal(targets_p, expected_targets)

        # and the original order concatenates the same blocks
        graphs_s, targets_s = sequential_dataset
        assert_graphs_identical(graphs_s, [g for b in blocks for g in b[0]])
        assert np.array_equal(targets_s, np.concatenate([b[1] for b in blocks]))

    def test_cap_still_enforced(self, trainer, traces):
        cfg = GlobalModelConfig(max_queries_per_instance=15)
        for trace in traces:
            assert len(subsample_trace(trace, cfg)) <= 15


@pytest.mark.parametrize("n_jobs", [2, 3])
class TestShardedParity:
    def test_build_dataset_bit_identical(self, trainer, traces, sequential_dataset, n_jobs):
        graphs_s, targets_s = sequential_dataset
        graphs_p, targets_p = trainer.build_dataset(traces, n_jobs=n_jobs)
        assert_graphs_identical(graphs_s, graphs_p)
        assert np.array_equal(targets_s, targets_p)

    def test_scaler_moments_bit_identical(self, trainer, traces, sequential_model, n_jobs):
        parallel = trainer.train(traces, n_jobs=n_jobs)
        for attr in ("node_scaler", "sys_scaler"):
            seq_scaler = getattr(sequential_model, attr)
            par_scaler = getattr(parallel, attr)
            assert np.array_equal(seq_scaler.mean_, par_scaler.mean_)
            assert np.array_equal(seq_scaler.scale_, par_scaler.scale_)

    def test_model_predictions_bit_identical(self, trainer, traces, sequential_model, n_jobs):
        parallel = trainer.train(traces, n_jobs=n_jobs)
        probe = [r.plan for r in list(traces[0])[:40]]
        instance = traces[0].instance
        assert parallel.predict_many(probe, instance) == sequential_model.predict_many(
            probe, instance
        )


class TestTrainKnobs:
    def test_config_n_jobs_is_the_default(self, traces, sequential_dataset):
        """``n_jobs=None`` defers to ``GlobalModelConfig.n_jobs``."""
        from dataclasses import replace

        cfg = replace(TRAINER_CONFIG, n_jobs=2)
        graphs, targets = GlobalModelTrainer(cfg).build_dataset(traces)
        graphs_s, targets_s = sequential_dataset
        assert_graphs_identical(graphs, graphs_s)
        assert np.array_equal(targets, targets_s)

    def test_single_trace_runs_inline(self, trainer, traces):
        """One task never pays for a pool, whatever n_jobs says."""
        graphs, targets = trainer.build_dataset([traces[0]], n_jobs=4)
        block_graphs, block_targets = trainer.build_dataset([traces[0]], n_jobs=1)
        assert_graphs_identical(graphs, block_graphs)
        assert np.array_equal(targets, block_targets)

    def test_empty_traces_still_raise(self, trainer):
        with pytest.raises(ValueError, match="empty traces"):
            trainer.train([], n_jobs=2)
