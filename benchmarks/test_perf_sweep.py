"""Perf: fleet-sweep and trainer wall clock, sequential vs parallel.

Two experiments share ``results/perf_sweep.txt``:

1. The *replay* benchmark replays an 8-instance fleet with full
   component collection (the router's own ensemble answers plus one
   batched ensemble call per retrain window) over identical pre-built
   traces, sequentially and with ``n_jobs=2`` (the process-pool engine).
   Both wall clocks are recorded with no speedup floor — on a
   single-core machine the pool cannot win — while bit-identical
   replays are asserted.

2. The *trainer* benchmark times sharded global-model dataset
   construction (``GlobalModelTrainer.build_dataset``, dedup +
   subsample + graph featurization) sequentially vs over a process
   pool.  Sharding is pure parallelism, so the wall clock is recorded
   with its overhead context (no speedup floor: on a small/single-core
   machine pool spin-up and trace pickling dominate, which is why the
   knob defaults to 1) while bit-identical output is asserted — the
   parity contract is what the sharded path must never break.
"""

import os
import time

import numpy as np

from conftest import append_result
from replay_parity import assert_replays_identical

from repro.core.config import (
    CacheConfig,
    GlobalModelConfig,
    LocalModelConfig,
    StageConfig,
    TrainingPoolConfig,
)
from repro.global_model import GlobalModelTrainer
from repro.harness import FleetSweeper
from repro.workload import FleetConfig, FleetGenerator


N_INSTANCES = 8
DURATION_DAYS = 2.0

#: paper-sized ensemble (10 members) with a moderate tree budget
PERF_STAGE = StageConfig(
    cache=CacheConfig(capacity=500),
    pool=TrainingPoolConfig(max_size=600),
    local=LocalModelConfig(
        n_members=10,
        n_estimators=40,
        max_depth=3,
        min_train_size=30,
        retrain_interval=300,
    ),
)
PERF_FLEET = FleetConfig(seed=7, volume_scale=0.25)


def test_batched_component_inference_speedup(results_dir):
    traces = FleetGenerator(PERF_FLEET).generate_fleet_traces(N_INSTANCES, DURATION_DAYS)
    n_queries = sum(len(t) for t in traces)

    def sweep(n_jobs):
        sweeper = FleetSweeper(
            fleet_config=PERF_FLEET,
            stage_config=PERF_STAGE,
            collect_components=True,
            n_jobs=n_jobs,
        )
        t0 = time.perf_counter()
        replays = sweeper.replay_traces(traces)
        return time.perf_counter() - t0, replays

    t_batched, r_batched = sweep(1)
    t_parallel, r_parallel = sweep(2)

    for a, b in zip(r_batched, r_parallel):
        assert_replays_identical(a, b)

    lines = [
        f"fleet sweep: {N_INSTANCES} instances, {n_queries} queries, "
        f"collect_components=True",
        f"batched component inference   (n_jobs=1): {t_batched:8.2f} s",
        f"batched component inference   (n_jobs=2): {t_parallel:8.2f} s",
        "replay arrays bit-identical across both paths",
    ]
    append_result(results_dir, "perf_sweep", "batched component inference", "\n".join(lines))
    print("\n" + "\n".join(lines))


# ---------------------------------------------------------------------------
# trainer scaling: sequential vs sharded dataset construction
# ---------------------------------------------------------------------------
N_TRAIN_INSTANCES = 8
#: dataset-construction settings only — build_dataset never touches the
#: GCN architecture/epoch knobs
TRAINER_CONFIG = GlobalModelConfig(max_queries_per_instance=300)


def test_trainer_sharded_build_dataset(results_dir):
    traces = FleetGenerator(PERF_FLEET).generate_fleet_traces(
        N_TRAIN_INSTANCES, DURATION_DAYS, start_index=10_000
    )
    trainer = GlobalModelTrainer(TRAINER_CONFIG)

    def build(n_jobs):
        t0 = time.perf_counter()
        graphs, targets = trainer.build_dataset(traces, n_jobs=n_jobs)
        return time.perf_counter() - t0, graphs, targets

    t_seq, g_seq, y_seq = build(1)
    t_par2, g_par2, y_par2 = build(2)
    t_par4, g_par4, y_par4 = build(4)

    for graphs, targets in ((g_par2, y_par2), (g_par4, y_par4)):
        assert len(graphs) == len(g_seq)
        assert np.array_equal(targets, y_seq)
        for a, b in zip(g_seq, graphs):
            assert np.array_equal(a.node_features, b.node_features)
            assert np.array_equal(a.sys_features, b.sys_features)

    per_graph_us = t_seq / max(len(g_seq), 1) * 1e6
    lines = [
        f"trainer dataset construction: {N_TRAIN_INSTANCES} train instances, "
        f"{sum(len(t) for t in traces)} queries -> {len(g_seq)} graphs "
        f"(dedup + cap {TRAINER_CONFIG.max_queries_per_instance})",
        f"sequential build_dataset (n_jobs=1): {t_seq:8.2f} s "
        f"({per_graph_us:.0f} us/graph)",
        f"sharded build_dataset    (n_jobs=2): {t_par2:8.2f} s",
        f"sharded build_dataset    (n_jobs=4): {t_par4:8.2f} s",
        f"(this machine: {os.cpu_count()} core(s); at this scale pool "
        "spin-up + trace pickling dominate — sharding pays off at fleet "
        "scale on multi-core hosts, hence the n_jobs=1 default)",
        "datasets bit-identical across all shard counts "
        "(per-trace seeding + ordered moment merge) — the asserted contract",
    ]
    append_result(results_dir, "perf_sweep", "sharded trainer build_dataset", "\n".join(lines))
    print("\n" + "\n".join(lines))
