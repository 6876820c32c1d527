"""Tests for the sharded multi-process fleet gateway.

The headline contract is fleet-level bit-parity: ``FleetSweeper``
direct, service and gateway replays (``ReplayBackend`` modes) of the
shared tier fleet produce identical arrays and cache/counter accounting
for any shard count and client count — shard assignment, process
boundaries, queue bounds and client interleaving are all invisible.
Every registered scenario's gateway parity is a row of the
backend-parity matrix (``tests/test_backend_parity.py``).  On top of that,
shard routing (golden values + cross-process stability), permutation
invariance of whole-fleet replays, fleet metrics aggregation and the
whole-fleet snapshot/restore path (same-process, re-sharded and
fresh-spawn-process) are covered individually, as is the one snapshot
format: a service snapshot restores as a gateway and a one-instance
gateway snapshot as a service.  Crash/backpressure
semantics live in ``tests/test_gateway_faults.py``.
"""

import multiprocessing
import pickle
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from replay_parity import assert_replays_identical

# the warm-restart helpers live with the service suite
from test_service import _held_out_predictions, _warm_service

from repro.core.config import (
    GatewayConfig,
    GlobalModelConfig,
    ReplayBackend,
    ServiceConfig,
    fast_profile,
)
from repro.global_model import GlobalModelTrainer
from repro.parallelism import pool_map
from repro.service import FleetGateway, ModelRegistry, PredictionService, shard_for
from repro.service.scheduler import OBSERVE, PREDICT
from repro.workload import FleetGenerator


def gateway_backend(n_shards=2, clients=1, **kwargs):
    return ReplayBackend(
        mode="gateway", clients=clients, gateway=GatewayConfig(n_shards=n_shards), **kwargs
    )


@pytest.fixture(scope="module")
def via_service_replays(traces, make_sweeper):
    return make_sweeper(backend=ReplayBackend(mode="service", clients=2)).replay_traces(traces)


# ---------------------------------------------------------------------------
# shard routing: pure, stable, cross-process
# ---------------------------------------------------------------------------
def _shard_worker(args):
    """Module-level so it pickles by reference under any start method."""
    instance_id, n_shards = args
    return shard_for(instance_id, n_shards)


class TestShardRouting:
    def test_golden_values(self):
        """The map is part of the snapshot format: restoring a fleet
        relies on every process computing the same assignment, so pin
        concrete values (a salted/processwise hash would break these)."""
        golden = {
            ("inst-0000", 2): 1,
            ("inst-0001", 2): 0,
            ("inst-0002", 2): 1,
            ("inst-0000", 3): 2,
            ("inst-0001", 3): 0,
            ("inst-0003", 3): 1,
            ("prod-eu-7781", 4): 2,
            ("prod-eu-7781", 8): 6,
        }
        for (instance_id, n_shards), want in golden.items():
            assert shard_for(instance_id, n_shards) == want

    def test_stable_across_processes(self):
        tasks = [
            (f"inst-{i:04d}", n_shards) for i in range(12) for n_shards in (1, 2, 3, 5)
        ]
        want = [_shard_worker(task) for task in tasks]
        got = pool_map(_shard_worker, tasks, n_jobs=2)
        assert got == want

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError, match="n_shards"):
            shard_for("inst-0000", 0)


# ---------------------------------------------------------------------------
# fleet bit-parity: direct vs service vs gateway replays
# ---------------------------------------------------------------------------
class TestGatewayParity:
    @pytest.mark.parametrize(
        "n_shards,service_clients", [(1, 1), (2, 2), (3, 3), (2, 4)]
    )
    def test_bit_identical_for_any_shards_and_clients(
        self, traces, direct_replays, via_service_replays, make_sweeper, n_shards, service_clients
    ):
        via_gateway = make_sweeper(
            backend=gateway_backend(
                n_shards, service_clients, service=ServiceConfig(max_batch_size=7)
            )
        ).replay_traces(traces)
        for direct, via_svc, via_gw in zip(direct_replays, via_service_replays, via_gateway):
            assert_replays_identical(direct, via_gw)
            assert_replays_identical(via_svc, via_gw)

    def test_concurrent_instance_submitters_bit_identical(
        self, traces, direct_replays, make_sweeper
    ):
        """n_jobs > 1 replays several instances' streams through the
        gateway at once (thread submitters over the shard processes);
        per-instance sequencing keeps it bit-identical."""
        via = make_sweeper(backend=gateway_backend(2, 2), n_jobs=3).replay_traces(traces)
        for direct, replay in zip(direct_replays, via):
            assert_replays_identical(direct, replay)

    def test_replay_indices_matches_replay_traces(self, traces, direct_replays, make_sweeper):
        via = make_sweeper(backend=gateway_backend()).replay_indices(
            range(len(traces)), traces[0].duration_days
        )
        for direct, replay in zip(direct_replays, via):
            assert_replays_identical(direct, replay)

    def test_permutation_of_instances_is_invisible(self, traces, direct_replays, make_sweeper):
        """Feeding the fleet through the gateway in any instance order
        yields the same per-instance arrays (per-instance op streams are
        independent; shard assignment ignores arrival order)."""
        order = [2, 0, 1]
        permuted = make_sweeper(backend=gateway_backend()).replay_traces([traces[i] for i in order])
        for position, replay in zip(order, permuted):
            assert_replays_identical(direct_replays[position], replay)


# ---------------------------------------------------------------------------
# the live client API and fleet metrics
# ---------------------------------------------------------------------------
class TestGatewayService:
    def test_register_and_predict_roundtrip(self, traces):
        with FleetGateway(GatewayConfig(n_shards=2), stage_config=fast_profile()) as gateway:
            trace = traces[0]
            shard = gateway.register_instance(trace.instance)
            assert shard == shard_for(trace.instance.instance_id, 2)
            assert gateway.instance_ids == (trace.instance.instance_id,)
            prediction = gateway.predict(trace.instance.instance_id, trace[0], timeout=60)
            assert prediction.exec_time >= 0.0

    def test_duplicate_registration_rejected(self, traces):
        with FleetGateway(GatewayConfig(n_shards=2), stage_config=fast_profile()) as gateway:
            gateway.register_instance(traces[0].instance)
            with pytest.raises(ValueError, match="already registered"):
                gateway.register_instance(traces[0].instance)

    def test_unknown_instance_rejected(self, traces):
        with FleetGateway(GatewayConfig(n_shards=2), stage_config=fast_profile()) as gateway:
            with pytest.raises(KeyError, match="not registered"):
                gateway.predict_async("no-such-instance", traces[0][0])

    def test_bad_config_rejected(self):
        # validation lives on GatewayConfig itself, so a bad config dies
        # at construction — before any shard process could be spawned
        with pytest.raises(ValueError, match="n_shards"):
            GatewayConfig(n_shards=0)
        with pytest.raises(ValueError, match="n_shards"):
            GatewayConfig(n_shards=-2)
        with pytest.raises(ValueError, match="queue_size"):
            GatewayConfig(queue_size=0)
        with pytest.raises(ValueError, match="enqueue_timeout_s"):
            GatewayConfig(enqueue_timeout_s=0.0)
        with pytest.raises(ValueError, match="drain_timeout_s"):
            GatewayConfig(drain_timeout_s=-1.0)

    def test_idle_close_returns_promptly(self, traces):
        """Closing an idle fleet must not wait out any poll interval.

        Regression test for the listener busy-wait: ``_listen`` used to
        poll ``response_q.get(timeout=0.2)``, quantizing close latency
        to the poll period (and spinning 5x/s per shard while idle).
        With the blocking get + sentinel wakeup, an idle two-shard
        fleet's shutdown handshake completes in milliseconds.
        """
        gateway = FleetGateway(GatewayConfig(n_shards=2), stage_config=fast_profile())
        gateway.register_instance(traces[0].instance)
        gateway.predict(traces[0].instance.instance_id, traces[0][0], timeout=60)
        t0 = time.monotonic()
        gateway.close()
        assert time.monotonic() - t0 < 1.0

    def test_fleet_metrics_aggregate_across_shards(self, traces):
        with FleetGateway(GatewayConfig(n_shards=2), stage_config=fast_profile()) as gateway:
            n_ops = 0
            for trace in traces:
                gateway.register_instance(trace.instance)
            for trace in traces:
                instance_id = trace.instance.instance_id
                for i in range(min(len(trace), 15)):
                    gateway.predict_async(instance_id, trace[i])
                    gateway.observe(instance_id, trace[i])
                    n_ops += 1
            gateway.drain()
            stats = gateway.stats()
        assert stats["n_shards"] == 2
        assert stats["n_instances"] == len(traces)
        assert stats["fleet"]["n_predicts"] == n_ops
        assert stats["fleet"]["n_observes"] == n_ops
        assert stats["fleet"]["cache_hits"] + stats["fleet"]["cache_misses"] == n_ops
        assert len(stats["instances"]) == len(traces)
        # the per-shard rows cover every shard and agree on instance count
        assert [row["shard"] for row in stats["shards"]] == [0, 1]
        assert sum(row["n_instances"] for row in stats["shards"]) == len(traces)
        # per-instance accounting sums to the fleet roll-up
        per_instance = stats["instances"].values()
        assert stats["fleet"]["n_predicts"] == sum(
            s["scheduler"]["n_predicts"] for s in per_instance
        )
        assert stats["fleet"]["byte_size"] == sum(s["stage"]["byte_size"] for s in per_instance)


    def test_batch_for_one_shard_ships_one_request_envelope(self, traces):
        """A submit batch holds its ops and flushes once: N ops for
        instances on one shard cost that shard exactly one envelope,
        and the shard rows count it."""
        with FleetGateway(GatewayConfig(n_shards=2), stage_config=fast_profile()) as gateway:
            for trace in traces:
                gateway.register_instance(trace.instance)
            shard = shard_for(traces[0].instance.instance_id, 2)
            on_shard = [t for t in traces if shard_for(t.instance.instance_id, 2) == shard]
            ops = [
                (kind, trace.instance.instance_id, trace[i], None)
                for i in range(4)
                for trace in on_shard
                for kind in (PREDICT, OBSERVE)
            ]
            before = gateway.stats()["shards"]
            outcomes = gateway.submit_batch(ops)
            for future in outcomes:
                future.result(timeout=60)
            stats = gateway.stats()
        after = stats["shards"]
        # each stats() call ships one STATS op to every shard
        assert after[shard]["request_envelopes"] - before[shard]["request_envelopes"] == 1 + 1
        assert after[shard]["request_ops"] - before[shard]["request_ops"] == len(ops) + 1
        assert after[1 - shard]["request_envelopes"] - before[1 - shard]["request_envelopes"] == 1
        assert after[shard]["response_envelopes"] > before[shard]["response_envelopes"]
        # the transport counters stay out of what the parity suites compare
        for per_instance in stats["instances"].values():
            assert "request_envelopes" not in per_instance["stage"]


# ---------------------------------------------------------------------------
# whole-fleet snapshot/restore
# ---------------------------------------------------------------------------
def _warm_gateway(traces, n_shards, n_warm_fraction=0.5, global_model=None):
    gateway = FleetGateway(
        GatewayConfig(n_shards=n_shards, service=ServiceConfig(max_batch_size=8)),
        stage_config=fast_profile(),
        global_model=global_model,
        random_state=0,
    )
    for trace in traces:
        gateway.register_instance(trace.instance)
    for trace in traces:
        instance_id = trace.instance.instance_id
        for i in range(int(len(trace) * n_warm_fraction)):
            gateway.predict_async(instance_id, trace[i])
            gateway.observe(instance_id, trace[i])
    gateway.drain()
    return gateway


def _held_out_fleet_predictions(gateway, traces, n_warm_fraction=0.5):
    """Fused predict+observe over every instance's held-out segment
    (observes included so post-restore retrains are exercised too)."""
    futures = {}
    for trace in traces:
        instance_id = trace.instance.instance_id
        futures[instance_id] = []
        for i in range(int(len(trace) * n_warm_fraction), len(trace)):
            futures[instance_id].append(gateway.predict_async(instance_id, trace[i]))
            gateway.observe(instance_id, trace[i])
    gateway.drain()
    return {
        instance_id: [f.result(timeout=60).prediction for f in fs]
        for instance_id, fs in futures.items()
    }


def _restore_fleet_and_predict(args):
    """Spawn-able worker: restore a whole fleet cold and serve it."""
    registry_root, name, n_shards, traces = args
    registry = ModelRegistry(registry_root)
    gateway = FleetGateway.restore(registry, name, config=GatewayConfig(n_shards=n_shards))
    try:
        predictions = _held_out_fleet_predictions(gateway, traces)
        stats = {
            instance_id: s["stage"] for instance_id, s in gateway.stats()["instances"].items()
        }
    finally:
        gateway.close()
    return pickle.dumps((predictions, stats))


class TestFleetSnapshot:
    def test_snapshot_restore_resharded_same_process(self, traces, tmp_path):
        """Warm restart is bit-for-bit even under a different shard
        count — shard assignment is not part of the fleet's state."""
        registry = ModelRegistry(str(tmp_path))
        gateway = _warm_gateway(traces, n_shards=2)
        gateway.snapshot(registry, "warm")
        want = _held_out_fleet_predictions(gateway, traces)
        want_stats = {i: s["stage"] for i, s in gateway.stats()["instances"].items()}
        gateway.close()

        manifest = registry.load_manifest("warm")
        assert manifest["instances"] == sorted(t.instance.instance_id for t in traces)
        assert manifest["n_shards"] == 2
        assert not manifest["has_global_model"]
        assert registry.list_snapshots() == ["warm"]

        restored = FleetGateway.restore(registry, "warm", config=GatewayConfig(n_shards=3))
        got = _held_out_fleet_predictions(restored, traces)
        got_stats = {i: s["stage"] for i, s in restored.stats()["instances"].items()}
        restored.close()
        assert got == want
        assert got_stats == want_stats

    def test_snapshot_restore_fresh_spawn_process(self, traces, tmp_path):
        """The PR 3 fresh-process pattern, extended to the multi-shard
        manifest: a brand-new interpreter restores the whole fleet and
        reproduces predictions and retrain behavior bit-for-bit."""
        registry = ModelRegistry(str(tmp_path))
        gateway = _warm_gateway(traces, n_shards=2)
        gateway.snapshot(registry, "warm")
        want = _held_out_fleet_predictions(gateway, traces)
        want_stats = {i: s["stage"] for i, s in gateway.stats()["instances"].items()}
        gateway.close()

        with ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            payload = pool.submit(
                _restore_fleet_and_predict, (str(tmp_path), "warm", 3, traces)
            ).result(timeout=600)
        got, got_stats = pickle.loads(payload)
        assert got == want
        assert got_stats == want_stats

    def test_truncated_member_fails_restore_and_closes_the_gateway(
        self, traces, tmp_path, monkeypatch
    ):
        """A member's bytes are decoded by the shard that imports them;
        the shard's error names the member, and restore closes the
        half-built gateway (no shard process outlives the failure)."""
        registry = ModelRegistry(str(tmp_path))
        gateway = _warm_gateway(traces, n_shards=2)
        gateway.snapshot(registry, "warm")
        gateway.close()
        states = {
            trace.instance.instance_id: registry.load_state("warm", trace.instance.instance_id)
            for trace in traces
        }
        victim = traces[1].instance.instance_id
        states[victim] = states[victim][: len(states[victim]) // 2]
        registry.save("warm", states, n_shards=2)

        built = []
        close = FleetGateway.close

        def spy_close(self, timeout=None):
            built.append(self)
            close(self, timeout)

        monkeypatch.setattr(FleetGateway, "close", spy_close)
        with pytest.raises(ValueError, match=f"snapshot member 'warm/{victim}' is corrupt"):
            FleetGateway.restore(registry, "warm", config=GatewayConfig(n_shards=2))
        assert len(built) == 1 and built[0].closed
        assert not any(shard.process.is_alive() for shard in built[0]._shards)

    def test_unsupported_fleet_version_rejected(self, traces, tmp_path):
        import json
        import os

        registry = ModelRegistry(str(tmp_path))
        gateway = _warm_gateway(traces[:1], n_shards=1)
        gateway.snapshot(registry, "v-test")
        gateway.close()
        manifest_path = os.path.join(registry.snapshot_path("v-test"), "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["format_version"] = 999
        json.dump(manifest, open(manifest_path, "w"))
        with pytest.raises(ValueError, match="version"):
            registry.load_manifest("v-test")


# ---------------------------------------------------------------------------
# one snapshot format: a service snapshot is a one-instance fleet snapshot
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def global_model(fleet_config, traces):
    gen = FleetGenerator(fleet_config)
    train = gen.generate_fleet_traces(2, traces[0].duration_days, start_index=10_000)
    return GlobalModelTrainer(
        GlobalModelConfig(hidden_dim=16, n_conv_layers=2, epochs=2, max_queries_per_instance=60)
    ).train(train)


class TestOneSnapshotFormat:
    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_service_snapshot_restores_as_a_gateway(self, traces, global_model, tmp_path, n_shards):
        registry = ModelRegistry(str(tmp_path))
        trace = traces[0]
        instance_id = trace.instance.instance_id
        n_warm = len(trace) // 2
        service = _warm_service(trace, global_model, n_warm, max_batch_size=8)
        service.snapshot(registry, "service")
        want = _held_out_predictions(service, [trace[i] for i in range(n_warm, len(trace))])
        want_stats = service.stats()["stage"]
        service.close()
        assert want_stats["source_counts"]["global"] > 0

        gateway = FleetGateway.restore(registry, "service", config=GatewayConfig(n_shards=n_shards))
        try:
            got = _held_out_fleet_predictions(gateway, [trace])[instance_id]
            got_stats = gateway.stats()["instances"][instance_id]["stage"]
        finally:
            gateway.close()
        assert got == want
        assert got_stats == want_stats

    def test_one_instance_gateway_snapshot_restores_as_a_service(
        self, traces, global_model, tmp_path
    ):
        registry = ModelRegistry(str(tmp_path))
        trace = traces[1]
        instance_id = trace.instance.instance_id
        gateway = _warm_gateway([trace], n_shards=2, global_model=global_model)
        try:
            gateway.snapshot(registry, "fleet")
            want = _held_out_fleet_predictions(gateway, [trace])[instance_id]
            want_stats = gateway.stats()["instances"][instance_id]["stage"]
        finally:
            gateway.close()

        service = PredictionService.restore(
            registry, "fleet", service_config=ServiceConfig(max_batch_size=3)
        )
        got = _held_out_predictions(service, [trace[i] for i in range(len(trace) // 2, len(trace))])
        got_stats = service.stats()["stage"]
        service.close()
        assert got == want
        assert got_stats == want_stats

    def test_two_instance_snapshot_does_not_restore_as_a_service(self, traces, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        gateway = _warm_gateway(traces[:2], n_shards=1, n_warm_fraction=0.1)
        try:
            gateway.snapshot(registry, "pair")
        finally:
            gateway.close()
        with pytest.raises(ValueError, match="holds 2 instances"):
            PredictionService.restore(registry, "pair")
