"""Tests for the elastic fleet control plane.

The headline contract is **reshard parity**: live migrations and shard-set
resizes injected at arbitrary points of a fleet replay leave every
instance's arrays and accounting bit-identical to the static fleet — the
routing table only decides *where* an instance's sequenced op stream
runs, never what it computes.  Every registered scenario's
mid-replay-reshard parity is a row of the backend-parity matrix
(``tests/test_backend_parity.py``); here the hook reshards a socket
replay, fails, or is refused.  Around that: the versioned routing table
(seeded from ``shard_for``, so an untouched fleet is byte-identical to
the static map), the cut-sequence migration protocol under live traffic,
the load-watching rebalancer (pure planning + the executing controller),
the per-shard queue-depth stats, and the MIGRATE/RESIZE/ROUTES wire ops.
"""

import threading
import time

import numpy as np
import pytest

# the one replay-parity check every parity suite shares
from replay_parity import assert_replays_identical

# the mid-replay reshard the backend-parity matrix runs on every scenario
from test_backend_parity import reshard_hook

from repro.core.config import (
    ControlConfig,
    GatewayConfig,
    ReplayBackend,
    ServiceConfig,
    fast_profile,
)
from repro.harness.replay import replay_instance
from repro.service import (
    FleetController,
    FleetGateway,
    WireClient,
    WireServer,
    instance_loads,
    plan_rebalance,
    shard_for,
)


def fleet_gateway(n_shards=2, **kwargs):
    return FleetGateway(
        GatewayConfig(n_shards=n_shards), stage_config=fast_profile(), **kwargs
    )


# ---------------------------------------------------------------------------
# the versioned routing table
# ---------------------------------------------------------------------------
class TestRoutingTable:
    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    def test_untouched_fleet_matches_shard_for(self, traces, n_shards):
        """Before any control-plane action the routing table *is* the
        static ``shard_for`` map, at version 0 — a fleet nobody reshards
        behaves byte-identically to the pre-elastic gateway."""
        with fleet_gateway(n_shards) as gateway:
            for trace in traces:
                gateway.register_instance(trace.instance)
            routes = gateway.routes()
        assert routes["version"] == 0
        assert routes["n_shards"] == n_shards
        assert routes["assignments"] == {
            trace.instance.instance_id: shard_for(trace.instance.instance_id, n_shards)
            for trace in traces
        }

    def test_migration_moves_route_and_bumps_version(self, traces):
        with fleet_gateway(2) as gateway:
            trace = traces[0]
            instance_id = trace.instance.instance_id
            source = gateway.register_instance(trace.instance)
            gateway.predict(instance_id, trace[0], timeout=60)
            info = gateway.migrate_instance(instance_id, 1 - source)
            assert info["source"] == source
            assert info["target"] == 1 - source
            routes = gateway.routes()
            assert routes["version"] == 1
            assert routes["assignments"][instance_id] == 1 - source
            # the instance keeps serving from its new shard
            assert gateway.predict(instance_id, trace[1], timeout=60).exec_time >= 0.0

    def test_migrate_validations(self, traces):
        with fleet_gateway(2) as gateway:
            trace = traces[0]
            instance_id = trace.instance.instance_id
            source = gateway.register_instance(trace.instance)
            with pytest.raises(KeyError, match="not registered"):
                gateway.migrate_instance("no-such-instance", 0)
            with pytest.raises(ValueError, match="shard"):
                gateway.migrate_instance(instance_id, 7)
            # same-shard migration is a no-op, not an error
            info = gateway.migrate_instance(instance_id, source)
            assert info["source"] == info["target"] == source
            assert gateway.routes()["version"] == 0

    def test_resize_rehashes_to_canonical_map(self, traces):
        """After a resize the placement equals a fresh ``n_shards``-sized
        fleet's — growth and shrink converge on the static map."""
        with fleet_gateway(2) as gateway:
            for trace in traces:
                gateway.register_instance(trace.instance)
            info = gateway.resize(3)
            assert info["n_shards"] == 3 and info["previous"] == 2
            assert gateway.routes()["assignments"] == {
                t.instance.instance_id: shard_for(t.instance.instance_id, 3)
                for t in traces
            }
            gateway.resize(1)
            assert gateway.n_shards == 1
            assert set(gateway.routes()["assignments"].values()) == {0}
            # the shrunken fleet still serves every instance
            for trace in traces:
                prediction = gateway.predict(trace.instance.instance_id, trace[0], timeout=60)
                assert prediction.exec_time >= 0.0

    def test_stats_report_queue_depth_and_routes(self, traces):
        with fleet_gateway(2) as gateway:
            for trace in traces:
                gateway.register_instance(trace.instance)
            for trace in traces:
                gateway.predict_async(trace.instance.instance_id, trace[0])
            gateway.drain()
            stats = gateway.stats()
        for row in stats["shards"]:
            assert row["queue_depth"] == 0  # drained
            assert row["n_predicts"] >= 0
        assert sum(row["n_predicts"] for row in stats["shards"]) == len(traces)
        assert stats["routes"]["version"] == 0
        assert len(stats["routes"]["assignments"]) == len(traces)


# ---------------------------------------------------------------------------
# reshard parity: migrations/resizes mid-replay are invisible in results
# ---------------------------------------------------------------------------
class TestReshardParity:
    def test_reshard_parity_over_the_socket(self, traces, direct_replays, make_sweeper):
        """The hook reshards the gateway *behind* a live wire server
        while TCP connections replay through it — still bit-identical."""
        via = make_sweeper(
            backend=ReplayBackend(
                mode="socket", clients=2, gateway=GatewayConfig(n_shards=2)
            ),
            reshard_hook=reshard_hook(2),
            n_jobs=2,
        ).replay_traces(traces)
        for direct, replay in zip(direct_replays, via):
            assert_replays_identical(direct, replay)

    def test_reshard_hook_requires_fleet_backend(self, traces, make_sweeper):
        with pytest.raises(ValueError, match="reshard_hook"):
            make_sweeper(reshard_hook=lambda gateway: None).replay_traces(traces)

    def test_hook_failure_fails_the_sweep(self, traces, make_sweeper):
        def bad_hook(gateway):
            raise RuntimeError("injected reshard failure")

        with pytest.raises(RuntimeError, match="injected reshard failure"):
            make_sweeper(
                backend=ReplayBackend(mode="gateway", gateway=GatewayConfig(n_shards=2)),
                reshard_hook=bad_hook,
            ).replay_traces(traces)

    def test_backend_rejects_gateway_embedded_service_knobs(self):
        """A replay's micro-batching knobs have one home: a customised
        ``gateway.service`` is refused instead of silently ignored."""
        with pytest.raises(ValueError, match=r"ReplayBackend\.service"):
            ReplayBackend(
                mode="gateway",
                gateway=GatewayConfig(n_shards=2, service=ServiceConfig(max_batch_size=7)),
            )
        # the one spelling: knobs on ReplayBackend.service, for every mode
        ReplayBackend(mode="gateway", service=ServiceConfig(max_batch_size=7))

    def test_replay_instance_gateway_backend(self, traces, direct_replays):
        """`replay_instance` gains the gateway tier through the unified
        backend parameter (previously only reachable via the sweeper)."""
        via = replay_instance(
            traces[0],
            config=fast_profile(),
            backend=ReplayBackend(
                mode="gateway", clients=2, gateway=GatewayConfig(n_shards=2)
            ),
        )
        assert_replays_identical(direct_replays[0], via)


class TestLiveMigrationParity:
    def test_live_streams_with_migrations_bit_identical(self, traces, direct_replays):
        """One submitter thread per instance in *live* mode (seq=None —
        ops claimed one at a time, so migrations really do cut streams
        mid-flight and buffer the tail) while every instance is migrated
        concurrently; predictions must match the direct replay exactly."""
        results = {}
        errors = []
        with fleet_gateway(3) as gateway:
            for trace in traces:
                gateway.register_instance(trace.instance)

            def submit_live(trace):
                instance_id = trace.instance.instance_id
                try:
                    futures = []
                    for record in trace:
                        futures.append(gateway.predict_async(instance_id, record))
                        gateway.observe(instance_id, record)
                    results[instance_id] = [f.result(timeout=120) for f in futures]
                except BaseException as exc:  # surfaced after join
                    errors.append(exc)

            threads = [
                threading.Thread(target=submit_live, args=(trace,)) for trace in traces
            ]
            for thread in threads:
                thread.start()
            # migrate every instance while its stream is in flight
            for trace in traces:
                instance_id = trace.instance.instance_id
                source = gateway.routes()["assignments"][instance_id]
                info = gateway.migrate_instance(instance_id, (source + 1) % 3, timeout=120)
                assert info["buffered_ops"] >= 0
            for thread in threads:
                thread.join()
            assert not errors, errors
            gateway.drain()
            assert gateway.routes()["version"] == len(traces)
            stats = gateway.stats()

        for trace, direct in zip(traces, direct_replays):
            instance_id = trace.instance.instance_id
            got = np.array([c.prediction.exec_time for c in results[instance_id]])
            assert np.array_equal(got, direct.stage_pred)
            # accounting (cache counters, retrains) survives the handoff
            stage = stats["instances"][instance_id]["stage"]
            assert stage["cache_hits"] == direct.stage_stats["cache_hits"]
            assert stage["n_local_retrains"] == direct.stage_stats["n_local_retrains"]


# ---------------------------------------------------------------------------
# the load-watching rebalancer
# ---------------------------------------------------------------------------
def _stats(assignments, op_counts, queue_depths=None, n_shards=None, forecast_loads=None):
    """A synthetic gateway stats snapshot for planner unit tests."""
    n_shards = n_shards or (max(assignments.values()) + 1 if assignments else 1)
    queue_depths = queue_depths or {}
    forecast_loads = forecast_loads or {}
    return {
        "shards": [
            {"shard": i, "alive": True, "queue_depth": queue_depths.get(i, 0)}
            for i in range(n_shards)
        ],
        "routes": {"version": 0, "n_shards": n_shards, "assignments": dict(assignments)},
        "instances": {
            instance_id: {
                "scheduler": {"n_predicts": ops, "n_observes": 0},
                "stage": {"forecast_load": forecast_loads.get(instance_id, 0.0)},
            }
            for instance_id, ops in op_counts.items()
        },
    }


class TestRebalancePlanning:
    def test_balanced_fleet_plans_nothing(self):
        stats = _stats({"a": 0, "b": 1}, {"a": 100, "b": 100})
        plan = plan_rebalance(stats, ControlConfig())
        assert plan.empty
        assert plan.total_ops == 200

    def test_moves_from_hot_to_cold(self):
        stats = _stats({"a": 0, "b": 0, "c": 1}, {"a": 900, "b": 100, "c": 10})
        plan = plan_rebalance(stats, ControlConfig(imbalance_tolerance=0.25))
        assert len(plan.migrations) == 1
        move = plan.migrations[0]
        assert move.source == 0 and move.target == 1
        # the largest instance fitting in half the gap is chosen
        assert move.instance_id == "b"

    def test_respects_min_total_ops(self):
        stats = _stats({"a": 0, "b": 1}, {"a": 3, "b": 0})
        assert plan_rebalance(stats, ControlConfig(min_total_ops=100)).empty

    def test_respects_max_migrations_per_cycle(self):
        stats = _stats(
            {"a": 0, "b": 0, "c": 0, "d": 1}, {"a": 400, "b": 300, "c": 200, "d": 0}
        )
        config = ControlConfig(max_migrations_per_cycle=2, imbalance_tolerance=0.01)
        plan = plan_rebalance(stats, config)
        assert 1 <= len(plan.migrations) <= 2

    def test_queue_depth_weighs_into_load(self):
        # equal op history, but shard 0 has a deep queue: it is hotter
        stats = _stats(
            {"a": 0, "b": 1},
            {"a": 100, "b": 100},
            queue_depths={0: 50},
        )
        plan = plan_rebalance(stats, ControlConfig(imbalance_tolerance=0.1))
        assert plan.shard_loads[0] > plan.shard_loads[1]

    def test_planning_is_deterministic(self):
        stats = _stats({"a": 0, "b": 0, "c": 1}, {"a": 500, "b": 200, "c": 0})
        config = ControlConfig()
        assert plan_rebalance(stats, config) == plan_rebalance(stats, config)

    def test_single_shard_plans_nothing(self):
        stats = _stats({"a": 0, "b": 0}, {"a": 900, "b": 100}, n_shards=1)
        assert plan_rebalance(stats, ControlConfig()).empty


class TestForecastLoadSource:
    """``ControlConfig.load_source="forecast"`` rebalances on where load
    is *going* (each instance's ``forecast_load`` stage stat) instead of
    where it has been (trailing op totals)."""

    def test_trailing_is_the_default(self):
        stats = _stats(
            {"a": 0, "b": 1},
            {"a": 100, "b": 50},
            forecast_loads={"a": 1.0, "b": 99.0},
        )
        assert instance_loads(stats) == {"a": 100.0, "b": 50.0}

    def test_forecast_source_reads_stage_forecast_load(self):
        stats = _stats(
            {"a": 0, "b": 1},
            {"a": 100, "b": 50},
            forecast_loads={"a": 1.0, "b": 99.0},
        )
        config = ControlConfig(load_source="forecast")
        assert instance_loads(stats, config) == {"a": 1.0, "b": 99.0}

    def test_all_cold_forecasts_fall_back_to_trailing(self):
        """Forecasting off (or every forecaster cold) reports all-zero
        loads — the planner must not balance on a zero signal."""
        stats = _stats({"a": 0, "b": 1}, {"a": 100, "b": 50})
        config = ControlConfig(load_source="forecast")
        assert instance_loads(stats, config) == {"a": 100.0, "b": 50.0}

    def test_forecast_source_flips_the_plan(self):
        """Trailing history says shard 0 is hot; the forecast says the
        load is moving to shard 1 — the planner must follow the source."""
        stats = _stats(
            {"a": 0, "b": 0, "c": 1, "d": 1},
            {"a": 900, "b": 300, "c": 10, "d": 10},
            forecast_loads={"a": 5.0, "b": 5.0, "c": 800.0, "d": 300.0},
        )
        trailing = plan_rebalance(stats, ControlConfig(imbalance_tolerance=0.25))
        forecast = plan_rebalance(
            stats, ControlConfig(imbalance_tolerance=0.25, load_source="forecast")
        )
        assert trailing.migrations and trailing.migrations[0].source == 0
        assert forecast.migrations and forecast.migrations[0].source == 1

    def test_bad_load_source_rejected(self):
        with pytest.raises(ValueError, match="load_source"):
            ControlConfig(load_source="chaos")


# ---------------------------------------------------------------------------
# watcher-thread resilience (the control-plane bugfix sweep)
# ---------------------------------------------------------------------------
def _wait_until(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestWatcherResilience:
    """The background watcher must outlive failed control cycles: a
    transient planning/migration error is recorded and the loop keeps
    cycling — only the clean gateway-closed signal (RuntimeError) exits."""

    def make_controller(self):
        # no gateway needed: these tests inject step() directly
        return FleetController(None, ControlConfig(cycle_interval_s=0.01))

    def test_fault_injected_step_keeps_the_watcher_alive(self):
        controller = self.make_controller()

        def flaky_step():
            raise ValueError("injected plan failure")

        controller.step = flaky_step
        controller.start()
        try:
            assert _wait_until(lambda: controller.stats()["n_errors"] >= 3)
            stats = controller.stats()
            assert stats["watcher_alive"]
            assert stats["last_error"] == "ValueError: injected plan failure"
            assert stats["n_cycles"] >= stats["n_errors"]
        finally:
            assert controller.stop() is True
        assert not controller.stats()["watcher_alive"]

    def test_runtime_error_still_exits_cleanly(self):
        controller = self.make_controller()

        def closed_gateway_step():
            raise RuntimeError("gateway closed")

        controller.step = closed_gateway_step
        controller.start()
        assert _wait_until(lambda: not controller.stats()["watcher_alive"])
        stats = controller.stats()
        assert stats["n_errors"] == 0  # a clean exit is not an error
        assert stats["last_error"] is None
        assert controller.stop() is True

    def test_stop_reports_failed_join_and_keeps_the_thread(self):
        controller = self.make_controller()
        entered = threading.Event()
        blocker = threading.Event()

        def wedged_step():
            entered.set()
            blocker.wait(30)

        controller.step = wedged_step
        controller.start()
        try:
            assert entered.wait(5)
            # the watcher is wedged inside step(): the join must time out,
            # report failure, and keep the thread reference so a later
            # start() cannot leak a second watcher
            assert controller.stop(timeout=0.05) is False
            assert controller.stats()["watcher_alive"]
            controller.start()  # no-op while the old watcher lives
            assert controller.stats()["watcher_alive"]
        finally:
            blocker.set()
        assert controller.stop(timeout=5) is True
        assert not controller.stats()["watcher_alive"]

    def test_stop_without_watcher_is_a_trivial_success(self):
        assert self.make_controller().stop() is True

    def test_stats_shape(self):
        stats = self.make_controller().stats()
        assert stats == {
            "n_cycles": 0,
            "n_errors": 0,
            "last_error": None,
            "n_migrations": 0,
            "watcher_alive": False,
        }


class TestFleetController:
    def test_step_executes_planned_moves(self, traces):
        with fleet_gateway(2) as gateway:
            for trace in traces:
                gateway.register_instance(trace.instance)
            # skew the fleet: everything onto shard 0, then warm it up
            for trace in traces:
                gateway.migrate_instance(trace.instance.instance_id, 0)
            for trace in traces:
                instance_id = trace.instance.instance_id
                for i in range(10):
                    gateway.predict_async(instance_id, trace[i])
                    gateway.observe(instance_id, trace[i])
            gateway.drain()
            controller = FleetController(
                gateway, ControlConfig(imbalance_tolerance=0.1, min_total_ops=1)
            )
            plan = controller.step()
            assert not plan.empty
            assert controller.history  # the move actually executed
            moved = controller.history[0]
            assert gateway.routes()["assignments"][moved["instance_id"]] == moved["target"]
            # the moved instance still serves
            trace = next(
                t for t in traces if t.instance.instance_id == moved["instance_id"]
            )
            assert gateway.predict(moved["instance_id"], trace[10], timeout=60).exec_time >= 0.0

    def test_background_watcher_starts_and_stops(self, traces):
        with fleet_gateway(2) as gateway:
            gateway.register_instance(traces[0].instance)
            config = ControlConfig(cycle_interval_s=0.05, min_total_ops=10**9)
            with FleetController(gateway, config) as controller:
                time.sleep(0.2)  # a few idle cycles
                assert controller.history == []
            controller.stop()  # idempotent


# ---------------------------------------------------------------------------
# admin ops over the wire
# ---------------------------------------------------------------------------
class TestWireAdminOps:
    def test_migrate_resize_routes_over_tcp(self, traces):
        gateway = fleet_gateway(2)
        server = WireServer(gateway)
        try:
            for trace in traces:
                gateway.register_instance(trace.instance)
            host, port = server.start()
            with WireClient(host, port, name="admin") as client:
                routes = client.routes()
                assert routes == gateway.routes()
                instance_id = traces[0].instance.instance_id
                source = routes["assignments"][instance_id]
                info = client.migrate_instance(instance_id, 1 - source)
                assert info["target"] == 1 - source
                assert client.routes()["assignments"][instance_id] == 1 - source
                resized = client.resize(3)
                assert resized["n_shards"] == 3
                assert client.routes()["n_shards"] == 3
                # the resharded fleet keeps serving over the same session
                prediction = client.predict(instance_id, traces[0][0])
                assert prediction.exec_time >= 0.0
        finally:
            server.close()
            gateway.close()
