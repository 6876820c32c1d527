"""Tests for the online serving layer (scheduler, service, registry).

The headline contract is serving/replay parity: replaying an instance
through a service backend — any ``max_batch_size``, any client concurrency —
yields bit-identical predictions and cache/counter accounting to the
direct :func:`~repro.harness.replay.replay_instance` path, and every
registered scenario replays through the service exactly as its
backend-parity-matrix reference (``tests/test_backend_parity.py``).
On top of that, the scheduler's sequencing semantics, the batch
router's flush invariance and the registry's bit-for-bit warm restart
are covered individually.
"""

import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.config import GlobalModelConfig, ReplayBackend, ServiceConfig, fast_profile
from repro.core.stage import BatchRouter, RoutedSlot, StagePredictor
from repro.global_model import GlobalModelTrainer, save_global_model
from repro.harness import replay_instance
from repro.scenarios import registered_scenarios
from repro.service import (
    ModelRegistry,
    PredictionService,
    replay_trace_via_client,
    shared_client,
)
from repro.service.scheduler import OBSERVE, PREDICT, MicroBatchScheduler
from repro.workload import FleetConfig, FleetGenerator

from replay_parity import assert_replays_identical
from test_batched_paths import route_per_record


@pytest.fixture(scope="module")
def trace():
    """A trace that exercises every route: cache, local, global, default."""
    gen = FleetGenerator(FleetConfig(seed=3, volume_scale=0.2))
    return gen.generate_trace(gen.sample_instance(0), 1.5)


@pytest.fixture(scope="module")
def global_model():
    gen = FleetGenerator(FleetConfig(seed=3, volume_scale=0.2))
    train = gen.generate_fleet_traces(2, 1.0, start_index=10_000)
    return GlobalModelTrainer(
        GlobalModelConfig(
            hidden_dim=24, n_conv_layers=2, epochs=4, max_queries_per_instance=100
        )
    ).train(train)


@pytest.fixture(scope="module")
def reference_replay(trace, global_model):
    return replay_instance(trace, global_model=global_model, config=fast_profile())


# ---------------------------------------------------------------------------
# serving/replay parity
# ---------------------------------------------------------------------------
class TestViaServiceParity:
    @pytest.mark.parametrize(
        "max_batch_size,service_clients",
        [(1, 1), (7, 3), (64, 2), (16, 5)],
    )
    def test_bit_identical_to_direct_replay(
        self, trace, global_model, reference_replay, max_batch_size, service_clients
    ):
        via = replay_instance(
            trace,
            global_model=global_model,
            config=fast_profile(),
            backend=ReplayBackend(
                mode="service",
                clients=service_clients,
                service=ServiceConfig(max_batch_size=max_batch_size),
            ),
        )
        assert_replays_identical(reference_replay, via)

    def test_parity_without_global_model(self, trace):
        direct = replay_instance(trace, config=fast_profile())
        via = replay_instance(
            trace,
            config=fast_profile(),
            backend=ReplayBackend(
                mode="service",
                clients=2,
                service=ServiceConfig(max_batch_size=9),
            ),
        )
        assert_replays_identical(direct, via)

    def test_parity_without_component_collection(self, trace, global_model):
        direct = replay_instance(
            trace,
            global_model=global_model,
            config=fast_profile(),
            collect_components=False,
        )
        via = replay_instance(
            trace,
            global_model=global_model,
            config=fast_profile(),
            collect_components=False,
            backend=ReplayBackend(
                mode="service",
                clients=3,
                service=ServiceConfig(max_batch_size=12),
            ),
        )
        assert_replays_identical(direct, via)

    def test_every_route_exercised(self, reference_replay):
        counts = reference_replay.stage_stats["source_counts"]
        assert counts["cache"] > 0
        assert counts["local"] > 0
        assert counts["global"] > 0
        assert reference_replay.stage_stats["n_local_retrains"] >= 1


# ---------------------------------------------------------------------------
# serving/replay parity under every registered stress scenario
# ---------------------------------------------------------------------------
class TestScenarioServingParity:
    """A scenario can never ship that drifts serving from replay.

    Every registered scenario's matrix fleet must replay through a live
    2-client service at ``max_batch_size=6`` bit-identically to its
    direct reference (``scenario_references``), arrays *and*
    cache/counter accounting.  New scenarios are covered automatically:
    the parametrization reads the registry.
    """

    @pytest.mark.parametrize("scenario", registered_scenarios(), ids=lambda s: s.name)
    def test_scenario_bit_identical_via_service(self, scenario, assert_scenario_parity):
        backend = ReplayBackend(mode="service", clients=2, service=ServiceConfig(max_batch_size=6))
        assert_scenario_parity(scenario, backend=backend)


# ---------------------------------------------------------------------------
# the batch router: flush points never change results
# ---------------------------------------------------------------------------
class TestBatchRouter:
    @pytest.mark.parametrize("flush_every", [1, 3, 17])
    def test_flush_cadence_invariance(self, trace, flush_every):
        cfg = fast_profile()
        sequential = StagePredictor(trace.instance, config=cfg, random_state=0)
        oracle = BatchRouter(sequential)
        seq_preds = []
        for record in trace:
            slot = route_per_record(oracle, record)
            oracle.flush()
            seq_preds.append(slot.components)
            oracle.observe(record)

        batched = StagePredictor(trace.instance, config=cfg, random_state=0)
        router = BatchRouter(batched)
        slots = []
        for i, record in enumerate(trace):
            slots.append(router.route(record))
            router.observe(record)
            if (i + 1) % flush_every == 0:
                router.flush()
        router.flush()

        for want, slot in zip(seq_preds, slots):
            got = slot.components
            assert got.prediction == want.prediction
            assert got.cache == want.cache
            assert got.local == want.local
        assert sequential.source_counts == batched.source_counts
        assert sequential.cache.hits == batched.cache.hits
        assert sequential.cache.misses == batched.cache.misses


# ---------------------------------------------------------------------------
# the scheduler
# ---------------------------------------------------------------------------
def _scheduler_service(trace, **kwargs):
    service = PredictionService(
        trace.instance,
        stage_config=fast_profile(),
        service_config=ServiceConfig(**kwargs),
    )
    return service


class TestServiceConfigValidation:
    """Bad knobs die at config construction, before any thread spawns."""

    def test_zero_batch_size_rejected(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            ServiceConfig(max_batch_size=0)

    def test_negative_batch_size_rejected(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            ServiceConfig(max_batch_size=-4)

    def test_negative_batch_latency_rejected(self):
        with pytest.raises(ValueError, match="max_batch_latency_ms"):
            ServiceConfig(max_batch_latency_ms=-0.5)

    def test_nonpositive_drain_timeout_rejected(self):
        with pytest.raises(ValueError, match="drain_timeout_s"):
            ServiceConfig(drain_timeout_s=0.0)

    def test_defaults_are_valid(self):
        ServiceConfig()  # must not raise


class TestScheduler:
    def test_out_of_order_submission_executes_in_sequence(self, trace):
        with _scheduler_service(trace, max_batch_size=4) as service:
            records = [trace[i] for i in range(20)]
            # submit the fused stream from the back: the sequencer must
            # hold early arrivals until the gap fills
            futures = {}
            for i in reversed(range(len(records))):
                futures[i] = service.predict_async(records[i], seq=2 * i)
                service.observe(records[i], seq=2 * i + 1)
            got = [futures[i].result(timeout=60).prediction for i in range(len(records))]
            service.drain()

        stage = StagePredictor(trace.instance, config=fast_profile())
        want = []
        for record in records:
            want.append(stage.predict(record))
            stage.observe(record)
        assert got == want

    def test_duplicate_sequence_number_rejected(self, trace):
        with _scheduler_service(trace) as service:
            service.predict_async(trace[0], seq=5)
            with pytest.raises(ValueError, match="already used"):
                service.predict_async(trace[1], seq=5)

    def test_unknown_op_kind_rejected(self, trace):
        with _scheduler_service(trace) as service:
            with pytest.raises(ValueError, match="unknown op kind"):
                service.scheduler.submit("retrain", trace[0])

    def test_submit_after_close_rejected(self, trace):
        service = _scheduler_service(trace)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.predict_async(trace[0])

    def test_close_fails_ops_stranded_behind_gap(self, trace):
        service = _scheduler_service(trace)
        service.predict_async(trace[0], seq=0).result(timeout=60)
        stranded = service.predict_async(trace[1], seq=7)  # gap at 1..6
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            stranded.result(timeout=60)

    def test_replay_components_on_warm_service(self, trace):
        """The replay driver bases its sequence numbers at the scheduler's
        next slot, so it works after live traffic (and back-to-back)."""
        with _scheduler_service(trace, max_batch_size=4) as service:
            for i in range(10):
                service.predict_async(trace[i])
                service.observe(trace[i])
            service.drain()
            first = replay_trace_via_client(shared_client(service), trace, n_clients=2)
            second = replay_trace_via_client(shared_client(service), trace, n_clients=3)
            assert len(first) == len(second) == len(trace)
            n_ops = service.stats()["scheduler"]["n_predicts"]
        assert n_ops == 10 + 2 * len(trace)

    def test_batching_counters(self, trace):
        with _scheduler_service(trace, max_batch_size=8) as service:
            for record in trace:
                service.predict_async(record)
                service.observe(record)
            service.drain()
            stats = service.stats()
        sched = stats["scheduler"]
        assert sched["n_predicts"] == len(trace)
        assert sched["n_observes"] == len(trace)
        assert sched["n_immediate"] + sched["n_deferred"] == sched["n_predicts"]
        assert sched["max_batch_size"] <= 8
        # accounting matches the stage predictor exactly
        counts = stats["stage"]["source_counts"]
        assert sum(counts.values()) == len(trace)

    def test_cold_service_lifecycle_never_hangs(self, trace, tmp_path):
        """A never-started service (no op ever submitted, so no worker
        thread exists) must drain, snapshot, close and re-close without
        blocking or raising anything implicit."""
        service = _scheduler_service(trace)
        assert service.scheduler._worker is None  # genuinely cold
        service.drain()  # nothing to wait for
        registry = ModelRegistry(str(tmp_path))
        service.snapshot(registry, "cold")  # pause/quiesce with no worker
        assert registry.list_snapshots() == ["cold"]
        service.close()
        assert service.closed
        service.close()  # double-close is a no-op
        assert service.scheduler._worker is None

    def test_replay_components_on_closed_service_raises(self, trace):
        service = _scheduler_service(trace)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            replay_trace_via_client(shared_client(service), trace)

    def test_submit_after_close_on_cold_service_rejected(self, trace):
        service = _scheduler_service(trace)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.predict_async(trace[0])

    def test_drain_after_close_returns_immediately(self, trace):
        service = _scheduler_service(trace)
        service.predict_async(trace[0]).result(timeout=60)
        service.close()
        t0 = time.monotonic()
        service.drain(timeout=60)  # closed + empty: nothing to wait for
        assert time.monotonic() - t0 < 5.0

    def test_drain_with_dead_worker_raises_instead_of_hanging(self, trace):
        """Queued ops with no live worker are undrainable; drain must say
        so immediately rather than waiting out the full timeout."""
        service = _scheduler_service(trace)
        service.predict_async(trace[0]).result(timeout=60)
        scheduler = service.scheduler
        scheduler.close()
        # simulate a worker that died with work still queued (the close
        # above cleanly stopped the thread; re-arm the queue behind it)
        scheduler._closed = False
        scheduler._ops[scheduler._next_exec_seq] = object()
        with pytest.raises(RuntimeError, match="can never drain"):
            scheduler.drain(timeout=60)
        scheduler._ops.clear()
        scheduler._closed = True

    def test_double_close_after_traffic_is_noop(self, trace):
        service = _scheduler_service(trace)
        service.predict_async(trace[0]).result(timeout=60)
        service.close()
        service.close()
        assert service.closed

    def test_concurrent_live_clients_make_progress(self, trace):
        # live mode: auto-assigned sequence numbers, blocking clients
        with _scheduler_service(
            trace, max_batch_size=4, max_batch_latency_ms=1.0
        ) as service:
            records = [trace[i] for i in range(40)]
            results = [None] * len(records)
            position = {"next": 0}
            lock = threading.Lock()

            def client():
                while True:
                    with lock:
                        i = position["next"]
                        if i >= len(records):
                            return
                        position["next"] = i + 1
                    results[i] = service.predict(records[i], timeout=60)

            threads = [threading.Thread(target=client) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(r is not None for r in results)
            assert service.stats()["scheduler"]["n_predicts"] == len(records)


class _ScriptedRouter:
    """Router stand-in: the record ``"hit"`` is answered at once, any
    other record defers to the next flush, which logs the rows it
    serves."""

    def __init__(self):
        self.flushes = []
        self._pending = []

    @property
    def has_pending(self):
        return bool(self._pending)

    def route_batch(self, records):
        slots = [RoutedSlot(record if record == "hit" else None) for record in records]
        self._pending += [(slot, record) for slot, record in zip(slots, records) if not slot.ready]
        return slots

    def observe(self, record):
        pass

    def flush(self):
        self.flushes.append([record for _, record in self._pending])
        for slot, record in self._pending:
            slot.components = record
        self._pending = []


class TestBatchHold:
    """A stalled batch holds for the client of an immediate answer, and
    only for it, bounded by ``max_batch_latency_ms``."""

    def _scheduler(self, window_ms=60_000.0):
        router = _ScriptedRouter()
        config = ServiceConfig(max_batch_size=16, max_batch_latency_ms=window_ms)
        return router, MicroBatchScheduler(router, config)

    def test_lone_client_deferred_predict_never_waits(self):
        # one request-at-a-time client: a hit, then a model-bound query;
        # its deferred predict is the last one pulled, so the batch
        # flushes at once instead of holding for the 60 s window
        router, scheduler = self._scheduler()
        try:
            with scheduler.paused():
                hit = scheduler.submit(PREDICT, "hit")
                scheduler.submit(OBSERVE, "hit")
                deferred = scheduler.submit(PREDICT, "q0")
                scheduler.submit(OBSERVE, "q0")
            assert hit.result(timeout=10) == "hit"
            assert deferred.result(timeout=10) == "q0"
        finally:
            scheduler.close()
        assert router.flushes == [["q0"]]

    def test_batch_holds_for_an_answered_client(self):
        router, scheduler = self._scheduler()
        try:
            with scheduler.paused():
                first = scheduler.submit(PREDICT, "q0")
                scheduler.submit(PREDICT, "hit")
            time.sleep(0.2)
            # the hit's client is on its way back, so q0 waits for it
            assert not first.done()
            second = scheduler.submit(PREDICT, "q1")
            assert first.result(timeout=10) == "q0"
            assert second.result(timeout=10) == "q1"
        finally:
            scheduler.close()
        # q1 joined q0's batch: one ensemble call served both
        assert router.flushes == [["q0", "q1"]]

    def test_hold_ends_at_the_batch_window(self):
        router, scheduler = self._scheduler(window_ms=50.0)
        try:
            start = time.monotonic()
            with scheduler.paused():
                deferred = scheduler.submit(PREDICT, "q0")
                scheduler.submit(PREDICT, "hit")
            # the hit's client never comes back: q0 is served once the
            # window runs out
            assert deferred.result(timeout=10) == "q0"
            assert time.monotonic() - start >= 0.05
        finally:
            scheduler.close()
        assert router.flushes == [["q0"]]


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------
def _warm_service(trace, global_model, n_warm, **service_kwargs):
    service = PredictionService(
        trace.instance,
        global_model=global_model,
        stage_config=fast_profile(),
        service_config=ServiceConfig(**service_kwargs),
        random_state=0,
    )
    for i in range(n_warm):
        service.predict_async(trace[i])
        service.observe(trace[i])
    service.drain()
    return service


def _held_out_predictions(service, records):
    """Fused predict+observe over ``records``; returns the predictions."""
    futures = [None] * len(records)
    for i, record in enumerate(records):
        futures[i] = service.predict_async(record)
        service.observe(record)
    service.drain()
    return [f.result(timeout=60).prediction for f in futures]


def _restore_and_predict(args):
    """Spawn-able worker: restore a snapshot cold and serve a stream."""
    registry_root, name, records = args
    registry = ModelRegistry(registry_root)
    service = PredictionService.restore(
        registry, name, service_config=ServiceConfig(max_batch_size=5)
    )
    predictions = _held_out_predictions(service, records)
    stats = service.stats()["stage"]
    service.close()
    return pickle.dumps((predictions, stats))


class TestModelRegistry:
    def test_global_model_round_trip(self, global_model, trace, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        service = _warm_service(trace, global_model, 0)
        service.snapshot(registry, "fleet")
        service.close()
        assert registry.load_manifest("fleet")["has_global_model"]
        restored = PredictionService.restore(registry, "fleet")
        restored.close()
        loaded = restored.stage.global_model
        record = trace[0]
        want = global_model.predict(record.plan, trace.instance)
        got = loaded.predict(record.plan, trace.instance)
        assert got.exec_time == want.exec_time

    def test_snapshot_round_trip_same_process(self, trace, global_model, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        n_warm = len(trace) // 2
        held = [trace[i] for i in range(n_warm, len(trace))]

        service = _warm_service(trace, global_model, n_warm, max_batch_size=8)
        service.snapshot(registry, "warm")
        assert registry.list_snapshots() == ["warm"]
        want = _held_out_predictions(service, held)
        want_stats = service.stats()["stage"]
        service.close()

        restored = PredictionService.restore(
            registry, "warm", service_config=ServiceConfig(max_batch_size=3)
        )
        got = _held_out_predictions(restored, held)
        got_stats = restored.stats()["stage"]
        restored.close()

        assert got == want
        assert got_stats == want_stats

    def test_snapshot_round_trip_fresh_process(self, trace, global_model, tmp_path):
        """Warm restart in a brand-new interpreter is bit-for-bit."""
        registry = ModelRegistry(str(tmp_path))
        n_warm = len(trace) // 2
        held = [trace[i] for i in range(n_warm, len(trace))]

        service = _warm_service(trace, global_model, n_warm, max_batch_size=8)
        service.snapshot(registry, "warm")
        want = _held_out_predictions(service, held)
        want_stats = service.stats()["stage"]
        service.close()

        with ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            payload = pool.submit(
                _restore_and_predict, (str(tmp_path), "warm", held)
            ).result(timeout=300)
        got, got_stats = pickle.loads(payload)

        assert got == want
        assert got_stats == want_stats

    def test_snapshot_under_concurrent_traffic(self, trace, tmp_path):
        """snapshot() pauses the scheduler: live clients never corrupt it."""
        registry = ModelRegistry(str(tmp_path))
        service = _warm_service(trace, None, len(trace) // 2, max_batch_size=4)
        stop = threading.Event()

        def hammer():
            i = 0
            while not stop.is_set():
                record = trace[i % len(trace)]
                service.predict(record, timeout=60)
                service.observe(record)
                i += 1

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            for round_index in range(3):
                name = f"live-{round_index}"
                service.snapshot(registry, name)
                restored = PredictionService.restore(registry, name)
                # the restored copy serves immediately
                assert restored.predict(trace[0], timeout=60).exec_time >= 0.0
                restored.close()
        finally:
            stop.set()
            thread.join()
        service.drain()
        service.close()

    def test_snapshot_without_global_model(self, trace, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        service = _warm_service(trace, None, len(trace) // 2, max_batch_size=4)
        path = service.snapshot(registry, "local-only")
        service.close()
        import os

        assert not os.path.exists(os.path.join(path, "global.npz"))
        assert not registry.load_manifest("local-only")["has_global_model"]
        restored = PredictionService.restore(registry, "local-only")
        assert restored.stage.global_model is None
        restored.close()

    def test_unsupported_snapshot_version_rejected(self, trace, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        service = _warm_service(trace, None, 10, max_batch_size=4)
        service.snapshot(registry, "v-test")
        service.close()
        import os

        state_path = os.path.join(
            registry.snapshot_path("v-test"), "instances", trace.instance.instance_id, "state.pkl"
        )
        payload = pickle.load(open(state_path, "rb"))
        payload["format_version"] = 999
        pickle.dump(payload, open(state_path, "wb"))
        with pytest.raises(ValueError, match="version"):
            PredictionService.restore(registry, "v-test")


#: a fresh interpreter that imports the serving package and answers one
#: interval from each Stage component, the global model loaded from the
#: ``.npz`` artifact the way a restored tier loads it
_LEAN_SERVING_SCRIPT = textwrap.dedent(
    """
    import sys

    import numpy as np

    import repro.service  # noqa: F401  (everything a serving process imports)
    from repro.cache import ExecTimeCache
    from repro.core.config import fast_profile
    from repro.global_model import load_global_model
    from repro.local_model import LocalModel
    from repro.workload import FleetConfig, FleetGenerator

    def widened(prediction):
        return prediction.interval_low < prediction.exec_time < prediction.interval_high

    cache = ExecTimeCache()
    for seconds in (1.0, 1.5, 2.5):
        cache.observe("q", seconds)
    assert widened(cache.lookup_prediction("q"))

    rng = np.random.default_rng(0)
    local = LocalModel(fast_profile().local)
    X = rng.random((60, 6))
    for row in X:
        local.add_example(row, 1.0 + 10.0 * float(row[0]))
    assert local.is_ready and widened(local.predict(X[0]))

    gen = FleetGenerator(FleetConfig(seed=3, volume_scale=0.1))
    trace = gen.generate_trace(gen.sample_instance(0), 0.1)
    model = load_global_model(sys.argv[1])
    plans = [record.plan for record in trace.records[:8]]
    assert all(widened(p) for p in model.predict_many(plans, trace.instance))

    leaked = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    assert not leaked, leaked[:5]
    """
)


class TestLeanServingProcess:
    def test_serving_path_never_imports_scipy(self, global_model, tmp_path):
        path = str(tmp_path / "global.npz")
        save_global_model(global_model, path)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", _LEAN_SERVING_SCRIPT, path],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
