"""Command-line entry point: ``python -m repro.service``.

Modes
-----
``bench --tier {service,gateway,socket}`` (default: ``bench --tier service``)
    Stand a generated fleet up on one serving tier and sweep
    ``backends × clients × in-flight`` with fused predict+observe
    traffic through one closed-loop driver (:func:`~repro.service.run_bench`),
    verifying bit-identical predictions across the grid while measuring
    throughput, latency percentiles and micro-batch sizes.  Every flag
    left out takes the tier's default from
    :data:`~repro.service.bench.TIER_DEFAULTS`.  Writes
    ``results/service_bench.txt``, ``results/gateway_bench.txt`` or
    ``results/wire_bench.txt`` (``--out`` to change, ``--no-write`` to
    print only).

``serve``
    The network front door: bind a :class:`~repro.service.WireServer`
    (asyncio TCP, length-prefixed binary frames) over a fresh
    :class:`~repro.service.FleetGateway` and serve until interrupted.
    Clients register instances and submit predictions over the wire —
    see ``repro.service.wire`` for the protocol.

Examples
--------
::

    PYTHONPATH=src python -m repro.service bench --tier service \\
        --clients 1 16 --batch-size 16 --latency-ms 5
    PYTHONPATH=src python -m repro.service bench --tier gateway \\
        --shards 1 2 4 --clients 4 16
    PYTHONPATH=src python -m repro.service bench --tier socket \\
        --clients 1 4 --inflight 1 8
    PYTHONPATH=src python -m repro.service serve --port 7171 --shards 2
"""

from __future__ import annotations

import argparse
import os
import time
from dataclasses import replace

from .bench import TIER_DEFAULTS, run_bench

#: report file under ``results/`` for each tier
REPORTS = {
    "service": "service_bench.txt",
    "gateway": "gateway_bench.txt",
    "socket": "wire_bench.txt",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="online prediction-service utilities",
    )
    sub = parser.add_subparsers(dest="mode")
    bench = sub.add_parser("bench", help="serving throughput/latency benchmark over one tier")
    bench.add_argument("--tier", choices=sorted(TIER_DEFAULTS), default="service")
    # every default below is the tier's (TIER_DEFAULTS)
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--instances", type=int, default=None, help="fleet size")
    bench.add_argument("--duration-days", type=float, default=None)
    bench.add_argument("--volume-scale", type=float, default=None)
    bench.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=None,
        help="shard counts to sweep (gateway and socket tiers)",
    )
    bench.add_argument(
        "--clients",
        type=int,
        nargs="+",
        default=None,
        help="closed-loop client counts to sweep (TCP connections on the socket tier)",
    )
    bench.add_argument(
        "--inflight",
        type=int,
        nargs="+",
        default=None,
        help="per-client in-flight predict counts to sweep",
    )
    bench.add_argument("--batch-size", type=int, default=None)
    bench.add_argument("--latency-ms", type=float, default=None)
    bench.add_argument(
        "--out",
        default=None,
        help="report path (defaults to results/<tier report>.txt)",
    )
    bench.add_argument(
        "--no-write",
        action="store_true",
        help="print the report without writing --out",
    )

    serve = sub.add_parser(
        "serve", help="asyncio TCP front door over a fresh FleetGateway"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7171, help="TCP port (0 binds an ephemeral one)"
    )
    serve.add_argument("--shards", type=int, default=2)
    serve.add_argument("--queue-size", type=int, default=256)
    serve.add_argument("--idle-timeout", type=float, default=300.0)
    serve.add_argument(
        "--paper-profile",
        action="store_true",
        help="serve the published hyper-parameters instead of the fast profile",
    )
    return parser


def _run_serve(args) -> int:
    from repro.core.config import GatewayConfig, WireConfig, fast_profile, paper_profile
    from repro.service import FleetGateway, WireServer

    stage = paper_profile() if args.paper_profile else fast_profile()
    gateway = FleetGateway(
        GatewayConfig(n_shards=args.shards, queue_size=args.queue_size),
        stage_config=stage,
    )
    server = WireServer(
        gateway,
        WireConfig(host=args.host, port=args.port, idle_timeout_s=args.idle_timeout),
    )
    try:
        host, port = server.start()
        print(
            f"wire front door listening on {host}:{port} "
            f"({args.shards} shard(s), {'paper' if args.paper_profile else 'fast'} "
            "profile); Ctrl-C to stop"
        )
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.close()
        gateway.close()
    return 0


def _bench_config(args):
    """The tier's default grid with the given flags applied."""
    defaults = TIER_DEFAULTS[args.tier]
    base = defaults.backends[0]
    service = base.service
    if args.batch_size is not None:
        service = replace(service, max_batch_size=args.batch_size)
    if args.latency_ms is not None:
        service = replace(service, max_batch_latency_ms=args.latency_ms)
    if args.shards is None:
        backends = tuple(replace(b, service=service) for b in defaults.backends)
    elif args.tier == "service":
        raise SystemExit("--shards applies to the gateway and socket tiers only")
    else:
        backends = tuple(
            replace(base, service=service, gateway=replace(base.gateway, n_shards=n))
            for n in args.shards
        )
    overrides = {
        "seed": args.seed,
        "n_instances": args.instances,
        "duration_days": args.duration_days,
        "volume_scale": args.volume_scale,
        "client_counts": tuple(args.clients) if args.clients else None,
        "inflight_counts": tuple(args.inflight) if args.inflight else None,
    }
    return replace(
        defaults,
        backends=backends,
        **{key: value for key, value in overrides.items() if value is not None},
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.mode is None:
        # bare ``python -m repro.service`` runs the benchmark defaults
        args = parser.parse_args(["bench"])
    if args.mode == "serve":
        return _run_serve(args)
    # argparse rejects unknown modes, so only "bench" reaches here
    result = run_bench(_bench_config(args))
    report = result.render()
    print(report)
    if not args.no_write:
        out = args.out or os.path.join("results", REPORTS[args.tier])
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        with open(out, "w") as f:
            f.write(report + "\n")
        print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
