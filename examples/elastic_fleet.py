"""Elastic fleet: live resharding under traffic, no dropped ops.

The production fleet's capacity tracks its workload: shards are added
and removed, and hot instances move to cooler shards, all while every
instance keeps serving.  This example stands a small fleet up behind a
:class:`~repro.service.FleetGateway`, drives live traffic from one
thread per instance, and — mid-stream — migrates an instance between
shards, grows and shrinks the shard set, and runs one
:class:`~repro.service.FleetController` rebalance cycle.  The routing
table is versioned and every cutover buffers the in-flight tail of the
moving instance's op stream, so the predictions are exactly what a
static fleet would have produced.

Run:  python examples/elastic_fleet.py
"""

import threading

from repro import FleetConfig, FleetGenerator, fast_profile
from repro.core.config import ControlConfig, GatewayConfig
from repro.service import FleetController, FleetGateway


def main() -> None:
    # 1. A small fleet: three synthetic customer instances, two shards.
    generator = FleetGenerator(FleetConfig(seed=11, volume_scale=0.25))
    traces = [
        generator.generate_trace(generator.sample_instance(i), duration_days=1.0)
        for i in range(3)
    ]
    gateway = FleetGateway(GatewayConfig(n_shards=2), stage_config=fast_profile())
    try:
        for trace in traces:
            shard = gateway.register_instance(trace.instance)
            print(f"instance {trace.instance.instance_id}: shard {shard}")
        print(f"routing table v{gateway.routes()['version']}: "
              f"{gateway.routes()['assignments']}")

        # 2. Live traffic: one submitter thread per instance (arrival
        #    order is sequence order — no replay reservations here).
        results = {}

        def serve(trace):
            instance_id = trace.instance.instance_id
            futures = [
                (gateway.predict_async(instance_id, record),
                 gateway.observe(instance_id, record))[0]
                for record in trace
            ]
            results[instance_id] = [f.result(timeout=300) for f in futures]

        threads = [threading.Thread(target=serve, args=(t,)) for t in traces]
        for thread in threads:
            thread.start()

        # 3. Reshard while the streams are in flight.  Each migration
        #    quiesces the instance on its source shard, ships its state
        #    bytes to the target shard, buffers the tail of its stream,
        #    and atomically flips the routing-table entry.
        hot = traces[0].instance.instance_id
        source = gateway.routes()["assignments"][hot]
        info = gateway.migrate_instance(hot, 1 - source, timeout=300)
        print(f"migrated {hot}: shard {info['source']} -> {info['target']} "
              f"(cut seq {info['cut_seq']}, {info['buffered_ops']} ops buffered, "
              f"routes v{info['routes_version']})")

        grown = gateway.resize(3, timeout=300)
        print(f"grew fleet to {grown['n_shards']} shards "
              f"(moved: {grown['migrated']}, routes v{grown['routes_version']})")

        # 4. One load-watching rebalance cycle over the live stats
        #    (per-shard queue depth + cumulative per-instance op totals).
        controller = FleetController(
            gateway, ControlConfig(imbalance_tolerance=0.1, min_total_ops=1)
        )
        plan = controller.step()
        print(f"rebalancer: shard loads {plan.shard_loads} -> "
              f"{len(plan.migrations)} migration(s) executed")

        shrunk = gateway.resize(2, timeout=300)
        print(f"shrank fleet to {shrunk['n_shards']} shards "
              f"(moved: {shrunk['migrated']})")

        for thread in threads:
            thread.join()
        gateway.drain()

        # 5. Every op of every stream was answered, in sequence, despite
        #    the resharding happening underneath.
        stats = gateway.stats()
        for trace in traces:
            instance_id = trace.instance.instance_id
            served = len(results[instance_id])
            counters = stats["instances"][instance_id]["scheduler"]
            print(f"{instance_id}: {served}/{len(trace)} predictions served, "
                  f"{counters['n_predicts']} predicts + "
                  f"{counters['n_observes']} observes executed")
            assert served == len(trace)
        print(f"final routing table v{stats['routes']['version']}: "
              f"{stats['routes']['assignments']}")
    finally:
        gateway.close()


if __name__ == "__main__":
    main()
