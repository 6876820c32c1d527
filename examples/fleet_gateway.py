"""Fleet serving: many instances behind one sharded gateway.

Stage runs inside *every* Redshift instance in a fleet, so the
production deployment is thousands of per-instance predictors behind a
single front door.  This example stands a small fleet up behind a
:class:`~repro.service.FleetGateway` — per-instance services sharded
across worker OS processes — drives interleaved traffic from concurrent
client threads, prints the aggregated fleet metrics, then snapshots the
whole warm fleet into a :class:`~repro.service.ModelRegistry` and
restores it under a *different* shard count, showing the warm restart
reproduces predictions exactly (shard assignment is not part of the
fleet's state).

Run:  python examples/fleet_gateway.py
"""

import tempfile
import threading

from repro import FleetConfig, FleetGenerator, fast_profile
from repro.core.config import GatewayConfig, ServiceConfig
from repro.service import FleetGateway, ModelRegistry, shard_for


def main() -> None:
    # 1. A small fleet: four synthetic customer instances.
    generator = FleetGenerator(FleetConfig(seed=11, volume_scale=0.25))
    traces = [
        generator.generate_trace(generator.sample_instance(i), duration_days=1.0)
        for i in range(4)
    ]

    # 2. One gateway, two shard processes; every instance registered on
    #    its hash-assigned shard.
    gateway = FleetGateway(
        GatewayConfig(n_shards=2, service=ServiceConfig(max_batch_size=16)),
        stage_config=fast_profile(),
    )
    for trace in traces:
        shard = gateway.register_instance(trace.instance)
        print(
            f"instance {trace.instance.instance_id}: {len(trace)} queries "
            f"-> shard {shard} (shard_for agrees: "
            f"{shard_for(trace.instance.instance_id, 2)})"
        )

    # 3. Warm the fleet with the first half of every instance's traffic
    #    (fused predict + observe, the feedback path).
    for trace in traces:
        instance_id = trace.instance.instance_id
        for record in trace[: len(trace) // 2]:
            gateway.predict_async(instance_id, record)
            gateway.observe(instance_id, record)
    gateway.drain()

    # 4. Serve interleaved fleet traffic from four concurrent clients.
    live = sorted(
        (
            (trace.instance.instance_id, record)
            for trace in traces
            for record in trace[len(trace) // 2 :]
        ),
        key=lambda pair: pair[1].arrival_time,
    )
    position = {"next": 0}
    lock = threading.Lock()
    predictions = [None] * len(live)

    def client() -> None:
        while True:
            with lock:
                i = position["next"]
                if i >= len(live):
                    return
                position["next"] = i + 1
            instance_id, record = live[i]
            predictions[i] = gateway.predict(instance_id, record).exec_time

    threads = [threading.Thread(target=client) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    gateway.drain()

    stats = gateway.stats()
    fleet = stats["fleet"]
    print(
        f"\nfleet metrics: {stats['n_instances']} instances on "
        f"{stats['n_shards']} shards, {fleet['n_predicts']} predicts, "
        f"cache hit rate {fleet['cache_hit_rate']:.0%}, "
        f"{fleet['n_local_retrains']} local retrains, "
        f"{fleet['n_batches']} micro-batches"
    )

    # 5. Snapshot the warm fleet, restore it under THREE shards, and
    #    verify the restored fleet answers identically.
    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(tmp)
        gateway.snapshot(registry, "warm-fleet")
        manifest = registry.load_manifest("warm-fleet")
        print(
            f"\nsnapshot 'warm-fleet': {len(manifest['instances'])} member "
            f"states + one manifest (saved from {manifest['n_shards']} shards)"
        )

        probe = [(iid, record) for iid, record in live[:50]]
        want = [gateway.predict(iid, record).exec_time for iid, record in probe]
        gateway.close()

        restored = FleetGateway.restore(
            registry, "warm-fleet", config=GatewayConfig(n_shards=3)
        )
        got = [restored.predict(iid, record).exec_time for iid, record in probe]
        restored.close()

    assert got == want
    print("restored under 3 shards: 50/50 probe predictions bit-identical")


if __name__ == "__main__":
    main()
