"""The network front door: predictions over real TCP.

Stage answers a prediction per arriving query *inside* Redshift, so the
outermost deployment shape is a socket, not an in-process call.  This
example stands a :class:`~repro.service.WireServer` (asyncio, compact
length-prefixed binary frames) in front of a sharded
:class:`~repro.service.FleetGateway` and shows (a) live predict/observe
traffic from a :class:`~repro.service.WireClient` — registration,
predictions with calibrated intervals and feedback all ride the wire,
(b) the fleet + per-session stats roll-up fetched over the same socket,
and (c) the determinism contract extending across TCP: a socket-backed
replay over multiple concurrent connections is bit-identical to the
direct in-process replay.

Run:  python examples/wire_serving.py
"""

import numpy as np

from repro.core.config import GatewayConfig, ReplayBackend, WireConfig, fast_profile
from repro.harness import replay_instance
from repro.service import FleetGateway, WireClient, WireServer
from repro.workload import FleetConfig, FleetGenerator


def main() -> None:
    gen = FleetGenerator(FleetConfig(seed=23, volume_scale=0.15))
    traces = [gen.generate_trace(gen.sample_instance(i), 1.0) for i in range(2)]

    gateway = FleetGateway(GatewayConfig(n_shards=2), stage_config=fast_profile())
    server = WireServer(gateway, WireConfig())  # port=0: ephemeral bind
    try:
        host, port = server.start()
        print(f"wire front door listening on {host}:{port}")

        # --- (a) live traffic over the socket --------------------------
        with WireClient(host, port, name="example-client") as client:
            for trace in traces:
                client.register_instance(trace.instance)
            trace = traces[0]
            instance_id = trace.instance.instance_id
            print(f"\nserving {trace.instance.instance_id} over TCP "
                  f"(session #{client.session_info['session_id']}):")
            for record in trace[:40]:
                p = client.predict(instance_id, record)
                client.observe(instance_id, record)
            print(
                f"  last prediction: {p.exec_time:.2f}s "
                f"[{p.interval_low:.2f}, {p.interval_high:.2f}]  {p.source}"
            )

            # --- (b) stats round-trip the same socket -------------------
            gateway.drain()
            stats = client.stats()
            fleet = stats["gateway"]["fleet"]
            session = stats["wire"]["sessions"][client.session_info["session_id"]]
            print(
                f"  fleet: {fleet['n_predicts']} predicts, "
                f"{fleet['cache_hits']} cache hits over "
                f"{stats['gateway']['n_shards']} shards"
            )
            print(
                f"  this session: {session['predicts']} predicts, "
                f"{session['observes']} observes, "
                f"{session['retry_after']} backpressure retries"
            )
    finally:
        server.close()
        gateway.close()

    # --- (c) bit-parity across the socket ------------------------------
    print("\nreplaying the same trace direct and over the socket (3 shards, "
          "3 concurrent TCP connections)...")
    direct = replay_instance(traces[0], config=fast_profile())
    over_socket = replay_instance(
        traces[0],
        config=fast_profile(),
        backend=ReplayBackend(mode="socket", clients=3, gateway=GatewayConfig(n_shards=3)),
    )
    assert np.array_equal(direct.stage_pred, over_socket.stage_pred)
    assert np.array_equal(direct.stage_source, over_socket.stage_source)
    assert direct.stage_stats == over_socket.stage_stats
    print(
        "bit-identical arrays and accounting: the frame protocol, shard "
        "processes and connection interleaving are all invisible."
    )


if __name__ == "__main__":
    main()
