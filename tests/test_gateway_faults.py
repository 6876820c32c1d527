"""Fault-injection tests for the fleet gateway.

A production fleet tier is judged on what happens when things go wrong:
a shard process dying must fail exactly that shard's in-flight work —
with a precise error naming the instance — while every other shard keeps
serving and ``close()`` still drains and joins cleanly.  These tests
kill real worker processes (SIGKILL, mid-stream) and fill real bounded
queues; they run under both fork and spawn start methods in CI's
``parallel-parity`` job.

The ``FleetGateway._stall`` hook (a sleep op processed in shard queue
order) is the instrumentation that makes queue states deterministic:
while a shard sleeps, its queue holds whatever the test enqueued.  The
fleet is the shared tier fleet (``traces`` in ``conftest.py``).
"""

import random
import sys
import threading
import time

import pytest

from repro.core.config import GatewayConfig, fast_profile
from repro.service import (
    FleetGateway,
    GatewayBackpressureError,
    ShardCrashedError,
    replay_trace_via_client,
    shard_for,
    shared_client,
)
from repro.service.scheduler import PREDICT


def two_shard_gateway(traces, **config_kwargs):
    """A 2-shard gateway with every instance registered; returns the
    gateway plus one (instance_id, trace) per populated shard."""
    gateway = FleetGateway(
        GatewayConfig(n_shards=2, **config_kwargs), stage_config=fast_profile()
    )
    per_shard = {}
    for trace in traces:
        shard = gateway.register_instance(trace.instance)
        per_shard.setdefault(shard, trace)
    assert len(per_shard) == 2, "fixture fleet must populate both shards"
    return gateway, per_shard


class TestShardCrash:
    def test_crash_fails_pending_with_instance_id_and_contains(self, traces):
        gateway, per_shard = two_shard_gateway(traces)
        victim_shard = min(per_shard)
        victim = per_shard[victim_shard]
        survivor_shard = max(per_shard)
        survivor = per_shard[survivor_shard]
        try:
            # hold the victim shard busy so the next ops are genuinely
            # in flight (queued, unanswered) when the process dies
            gateway._stall(victim_shard, 30.0)
            pending = [
                gateway.predict_async(victim.instance.instance_id, victim[i])
                for i in range(3)
            ]
            gateway._shards[victim_shard].process.kill()

            for future in pending:
                with pytest.raises(ShardCrashedError) as err:
                    future.result(timeout=30)
                assert err.value.shard_index == victim_shard
                assert err.value.instance_id == victim.instance.instance_id

            # new ops to the dead shard fail fast, with the instance id
            with pytest.raises(ShardCrashedError):
                gateway.predict_async(victim.instance.instance_id, victim[0])

            # the other shard keeps serving live traffic and replays
            prediction = gateway.predict(
                survivor.instance.instance_id, survivor[0], timeout=60
            )
            assert prediction.exec_time >= 0.0
            components = replay_trace_via_client(shared_client(gateway), survivor, n_clients=2)
            assert len(components) == len(survivor)

            # fleet drain/metrics still work, reporting only live shards
            gateway.drain()
            stats = gateway.stats()
            rows = {row["shard"]: row for row in stats["shards"]}
            assert rows[victim_shard]["alive"] is False
            assert rows[survivor_shard]["alive"] is True
        finally:
            gateway.close()

    def test_close_after_crash_drains_and_joins(self, traces):
        gateway, per_shard = two_shard_gateway(traces)
        victim_shard = min(per_shard)
        gateway._stall(victim_shard, 30.0)
        stranded = gateway.predict_async(
            per_shard[victim_shard].instance.instance_id, per_shard[victim_shard][0]
        )
        gateway._shards[victim_shard].process.kill()
        t0 = time.monotonic()
        gateway.close()
        assert time.monotonic() - t0 < 30.0, "close must not wait out the stall"
        with pytest.raises(ShardCrashedError):
            stranded.result(timeout=1)
        for shard in gateway._shards:
            assert not shard.process.is_alive()
        # idempotent after a crash too
        gateway.close()

    def test_snapshot_with_crashed_shard_fails_before_writing(self, traces, tmp_path):
        """A crash must fail the snapshot up front — partially saving
        under an existing name would mix snapshot epochs on disk."""
        from repro.service import FleetGateway, ModelRegistry

        registry = ModelRegistry(str(tmp_path))
        gateway, per_shard = two_shard_gateway(traces)
        try:
            gateway.snapshot(registry, "fleet")  # healthy first epoch
            victim_shard = min(per_shard)
            gateway._shards[victim_shard].process.kill()
            deadline = time.monotonic() + 10
            while not gateway._shards[victim_shard].crashed:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            with pytest.raises(RuntimeError, match="crashed shards"):
                gateway.snapshot(registry, "fleet")
        finally:
            gateway.close()
        # the first epoch survived untouched and still restores whole
        restored = FleetGateway.restore(registry, "fleet")
        try:
            assert restored.instance_ids == tuple(
                sorted(t.instance.instance_id for t in traces)
            )
        finally:
            restored.close()


class TestShutdownAndBackpressure:
    def test_enqueue_after_shutdown_rejected(self, traces):
        gateway, per_shard = two_shard_gateway(traces)
        trace = next(iter(per_shard.values()))
        instance_id = trace.instance.instance_id
        gateway.close()
        with pytest.raises(RuntimeError, match="closed"):
            gateway.predict_async(instance_id, trace[0])
        with pytest.raises(RuntimeError, match="closed"):
            gateway.observe(instance_id, trace[0])
        with pytest.raises(RuntimeError, match="closed"):
            gateway.register_instance(traces[0].instance)
        with pytest.raises(RuntimeError, match="closed"):
            replay_trace_via_client(shared_client(gateway), trace)
        with pytest.raises(RuntimeError, match="closed"):
            gateway.drain()

    def test_reserve_sequence_after_shutdown_rejected(self, traces):
        """Like every other public op, a sequence reservation on a
        closed gateway fails with the "closed" error instead of handing
        out slots nothing can ever serve."""
        gateway, per_shard = two_shard_gateway(traces)
        instance_id = next(iter(per_shard.values())).instance.instance_id
        assert gateway.reserve_sequence(instance_id, 2) == 0
        gateway.close()
        with pytest.raises(RuntimeError, match="gateway is closed"):
            gateway.reserve_sequence(instance_id, 2)

    def test_full_queue_backpressure_times_out_then_recovers(self, traces):
        gateway, per_shard = two_shard_gateway(
            traces, queue_size=1, enqueue_timeout_s=0.2
        )
        try:
            shard = min(per_shard)
            trace = per_shard[shard]
            instance_id = trace.instance.instance_id
            gateway._stall(shard, 1.5)
            time.sleep(0.3)  # let the shard pick the sleep op up
            first = gateway.predict_async(instance_id, trace[0])  # fills the queue
            with pytest.raises(GatewayBackpressureError) as err:
                gateway.predict_async(instance_id, trace[1])
            assert err.value.shard_index == shard
            # machine-readable context for protocol layers: the shed
            # op's instance plus the configured back-off hint
            assert err.value.instance_id == instance_id
            assert err.value.timeout_s == pytest.approx(0.2)
            assert err.value.retry_after_s == pytest.approx(
                gateway.config.retry_after_s
            )
            # the failed enqueue rolled its sequence slot back: once the
            # stall clears, the stream continues with no gap to stall on
            assert first.result(timeout=30).prediction.exec_time >= 0.0
            follow_up = gateway.predict(instance_id, trace[1], timeout=30)
            assert follow_up.exec_time >= 0.0
            gateway.drain()
        finally:
            gateway.close()

    def test_concurrent_batches_ship_before_waiting(self, traces):
        """Threads submitting interleaved batches over shared instances
        against a two-credit window.  A batch holds credits for ops it
        has not shipped, so one that blocked on another batch's
        instance lock, or on a credit, while still holding them could
        starve that batch's credit wait into a shed.  Every batch ships
        what it holds before any wait, so nothing sheds and every op is
        answered."""
        gateway, _ = two_shard_gateway(traces, queue_size=2, enqueue_timeout_s=3.0)
        n_threads, n_batches, batch_size = 6, 6, 6
        outcomes = []

        def submitter(seed):
            rng = random.Random(seed)
            for _ in range(n_batches):
                batch = []
                for _ in range(batch_size):
                    trace = rng.choice(traces)
                    record = trace[rng.randrange(len(trace))]
                    batch.append((PREDICT, trace.instance.instance_id, record, None))
                outcomes.extend(gateway.submit_batch(batch))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=submitter, args=(k,)) for k in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in threads)
            shed = [o for o in outcomes if isinstance(o, BaseException)]
            assert shed == []
            for future in outcomes:
                assert future.result(timeout=60).prediction.exec_time >= 0.0
            gateway.drain()
            n_ops = n_threads * n_batches * batch_size
            assert gateway.stats()["fleet"]["n_predicts"] == n_ops
        finally:
            gateway.close()

    def test_close_timeout_bounded_with_wedged_shard(self, traces):
        """``close(timeout=T)`` must stay ~T even when one shard is both
        stalled (mid 30s sleep) and wedged (request queue full), because
        the shutdown broadcast and the join sweep share one monotonic
        deadline instead of compounding per-shard waits."""
        gateway, per_shard = two_shard_gateway(traces, queue_size=1, enqueue_timeout_s=0.2)
        shard = min(per_shard)
        trace = per_shard[shard]
        gateway._stall(shard, 30.0)
        time.sleep(0.3)  # shard picks the sleep up, emptying the queue
        gateway.predict_async(trace.instance.instance_id, trace[0])  # re-fill it
        t0 = time.monotonic()
        gateway.close(timeout=2.0)
        elapsed = time.monotonic() - t0
        # deadline (2s) + hard-terminate join; never the 30s stall, and
        # never the per-shard shutdown-enqueue budget summed over shards
        assert elapsed < 10.0, f"close took {elapsed:.1f}s against a 2s deadline"
        for s in gateway._shards:
            assert not s.process.is_alive()

    def test_double_close_is_noop(self, traces):
        gateway, _ = two_shard_gateway(traces)
        gateway.close()
        gateway.close()
        assert gateway.closed


class TestCrashRaceCheck:
    def test_raises_only_when_winning_the_pending_pop(self, traces):
        """The enqueue-vs-failure-sweep race, pinned deterministically:
        flip the crash flag by hand (no SIGKILL, no sweep timing) and
        drive ``_crash_race_check`` through both outcomes for both the
        instance-op and control-op submission paths."""
        gateway, per_shard = two_shard_gateway(traces)
        try:
            shard_index = min(per_shard)
            shard = gateway._shards[shard_index]
            instance_id = per_shard[shard_index].instance.instance_id
            shard.crashed = True

            # we win the pop: raise, carrying the instance id (or None
            # for control ops), and leave no dangling pending entry
            op_id, _ = gateway._register_pending(shard, instance_id)
            with pytest.raises(ShardCrashedError) as err:
                gateway._crash_race_check(shard, op_id, instance_id)
            assert err.value.shard_index == shard_index
            assert err.value.instance_id == instance_id
            assert op_id not in shard.pending

            op_id, _ = gateway._register_pending(shard, None)
            with pytest.raises(ShardCrashedError) as err:
                gateway._crash_race_check(shard, op_id, None)
            assert err.value.instance_id is None
            assert op_id not in shard.pending

            # the sweep won: the future already carries the error, so
            # the check must stay silent rather than double-report
            op_id, future = gateway._register_pending(shard, instance_id)
            gateway._mark_crashed(shard)  # the listener's failure sweep
            assert isinstance(future.exception(timeout=5), ShardCrashedError)
            gateway._crash_race_check(shard, op_id, instance_id)
        finally:
            # the flagged shard never saw a real crash, so it gets no
            # shutdown broadcast: keep the terminate path bounded
            gateway.close(timeout=2.0)


class TestRoutingConsistency:
    def test_registration_uses_shard_for(self, traces):
        gateway, _ = two_shard_gateway(traces)
        try:
            with gateway._registry_lock:
                assignment = dict(gateway._instances)
            for instance_id, shard in assignment.items():
                assert shard == shard_for(instance_id, 2)
        finally:
            gateway.close()
