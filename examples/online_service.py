"""Online serving: the Stage predictor as a long-lived service.

Runs one synthetic instance's traffic through a :class:`PredictionService`
the way Redshift sees it — concurrent clients submitting queries, cache
hits answered immediately, model-bound predictions micro-batched, and
execution outcomes fed back through ``observe`` (dedup rule + local
retrains on the service's worker thread).  Then snapshots the warm
service into a :class:`ModelRegistry` and restarts it, showing the
warm restart reproduces predictions exactly — whether it comes back as
a service or, from the same one-instance snapshot, as a two-shard
:class:`FleetGateway`.

Run:  python examples/online_service.py
"""

import tempfile
import threading

from repro import FleetConfig, FleetGenerator, fast_profile
from repro.core.config import GatewayConfig, ServiceConfig
from repro.service import FleetGateway, ModelRegistry, PredictionService


def main() -> None:
    # 1. One synthetic customer instance and two days of queries.
    generator = FleetGenerator(FleetConfig(seed=11, volume_scale=0.5))
    instance = generator.sample_instance(0)
    trace = generator.generate_trace(instance, duration_days=2.0)
    warmup, live = trace[: len(trace) // 2], trace[len(trace) // 2 :]
    print(
        f"instance {instance.instance_id}: {instance.hardware.name} "
        f"x{instance.n_nodes}, {len(trace)} queries "
        f"({len(warmup)} warmup + {len(live)} live)"
    )

    # 2. Stand the service up and warm it with the first half of the traffic.
    service_config = ServiceConfig(max_batch_size=16, max_batch_latency_ms=5.0)
    service = PredictionService(
        instance, stage_config=fast_profile(), service_config=service_config
    )
    for record in warmup:
        service.predict_async(record)
        service.observe(record)
    service.drain()

    # 3. Serve the second half from four concurrent clients.
    position = {"next": 0}
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                i = position["next"]
                if i >= len(live):
                    return
                position["next"] = i + 1
            record = live[i]
            prediction = service.predict(record)
            if i % 200 == 0:
                print(
                    f"  q{record.query_id}: predicted "
                    f"{prediction.exec_time:8.2f}s via {prediction.source:<7}"
                    f" (actual {record.exec_time:8.2f}s)"
                )
            service.observe(record)

    threads = [threading.Thread(target=client) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    service.drain()

    stats = service.stats()
    stage, sched = stats["stage"], stats["scheduler"]
    print(
        f"\nserved {sched['n_predicts']} predictions: "
        f"{sched['n_immediate']} immediate (cache/cold-start), "
        f"{sched['n_deferred']} micro-batched into {sched['n_batches']} "
        f"ensemble calls (largest batch {sched['max_batch_size']})"
    )
    print(
        f"cache hit rate {stage['cache_hit_rate']:.1%}, "
        f"local retrains {stage['n_local_retrains']}, "
        f"sources {stage['source_counts']}"
    )

    # 4. Warm restart: snapshot, reload, and verify identical behavior.
    #    The serving knobs come from the restoring caller, not the snapshot.
    with tempfile.TemporaryDirectory() as root:
        registry = ModelRegistry(root)
        service.snapshot(registry, "end-of-day")
        probe = live[-5:]
        before = [service.predict(r).exec_time for r in probe]
        service.close()

        restarted = PredictionService.restore(
            registry, "end-of-day", service_config=service_config
        )
        after = [restarted.predict(r).exec_time for r in probe]
        restarted.close()

        # the same snapshot is a one-instance fleet snapshot
        fleet = FleetGateway.restore(
            registry, "end-of-day", config=GatewayConfig(n_shards=2, service=service_config)
        )
        as_fleet = [fleet.predict(instance.instance_id, r).exec_time for r in probe]
        fleet.close()
    assert before == after == as_fleet
    print(
        f"\nwarm restart: snapshot reloaded as a service and as a 2-shard "
        f"gateway, {len(probe)} probe predictions reproduced bit-for-bit"
    )


if __name__ == "__main__":
    main()
