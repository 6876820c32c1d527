"""Online serving layer: the paper's predictor as a long-lived service.

The Stage predictor is not an offline artifact — in Redshift it answers
a prediction per arriving query under strict latency budgets.  This
package provides that deployment shape:

- :class:`PredictionService` — micro-batching, many-client serving over
  one :class:`~repro.core.stage.StagePredictor`, bit-identical to the
  offline replay for the same op stream;
- :class:`MicroBatchScheduler` — the sequenced batch scheduler;
- :class:`FleetGateway` — the sharded multi-process fleet tier: one
  service per instance, all behind one thread-safe front door, with
  crash containment, backpressure and whole-fleet warm restart;
- :class:`ModelRegistry` — bit-for-bit warm-restart snapshots in one
  format for both tiers (a service snapshot is a one-instance fleet
  snapshot);
- :class:`WireServer` / :class:`WireClient` — the network front door:
  an asyncio TCP server speaking a length-prefixed binary frame
  protocol in front of the gateway, with per-session lifecycle,
  ingress sequencing (the determinism contract extends over the
  socket), RETRY_AFTER admission control and fleet admin ops
  (MIGRATE / RESIZE / ROUTES — see ``repro.service.wire`` and
  ``python -m repro.service serve``);
- :class:`PredictorClient` — the one futures-based client protocol all
  three serving tiers implement (:func:`shared_client` adapts an
  in-process tier into the client-factory shape, and
  :func:`replay_trace_via_client` is the single replay driver every
  ``ReplayBackend`` mode of the harness runs through);
- :func:`open_tier` — stands up the serving tier a ``ReplayBackend``
  names, for the replay harness and the benchmark alike;
- :class:`FleetController` / :func:`plan_rebalance` — the elastic
  control plane: a load-watching rebalancer over the gateway's
  versioned routing table, executing live cut-sequence migrations and
  shard-set resizes without dropping in-flight ops;
- :func:`run_bench` — the throughput/latency benchmark behind
  ``python -m repro.service bench --tier {service,gateway,socket}``
  (``results/service_bench.txt``, ``results/gateway_bench.txt`` and
  ``results/wire_bench.txt``): one closed-loop driver of fused
  predict+observe traffic over any tier.

Predictions served by every tier carry calibrated intervals
(``Prediction.interval_low/interval_high``) derived per source —
Welford variance for cache hits, ensemble member spread for the local
model, a residual-variance head for the global model — and both
``PredictionService.stats()`` and the gateway's fleet roll-up report
interval-width percentiles from mergeable fixed-bin histograms.  The
interval arrays obey the same bit-parity contracts as the points
(direct vs service vs gateway replays, any shard/batch/client count);
see ``examples/uncertainty_serving.py``.
"""

from repro.core.config import ControlConfig, GatewayConfig, ServiceConfig, WireConfig

from .bench import BenchConfig, BenchResult, run_bench
from .client import PredictorClient, replay_trace_via_client, shared_client
from .control import (
    FleetController,
    PlannedMigration,
    RebalancePlan,
    instance_loads,
    plan_rebalance,
    shard_loads,
)
from .gateway import FleetGateway, GatewayBackpressureError, ShardCrashedError, shard_for
from .registry import ModelRegistry
from .scheduler import MicroBatchScheduler
from .server import PredictionService
from .tier import open_tier
from .wire import AsyncWireClient, WireClient, WireError, WireServer

__all__ = [
    "AsyncWireClient",
    "BenchConfig",
    "BenchResult",
    "ControlConfig",
    "FleetController",
    "FleetGateway",
    "GatewayBackpressureError",
    "GatewayConfig",
    "ModelRegistry",
    "MicroBatchScheduler",
    "PlannedMigration",
    "PredictionService",
    "PredictorClient",
    "RebalancePlan",
    "ServiceConfig",
    "ShardCrashedError",
    "WireClient",
    "WireConfig",
    "WireError",
    "WireServer",
    "instance_loads",
    "open_tier",
    "plan_rebalance",
    "replay_trace_via_client",
    "run_bench",
    "shard_for",
    "shard_loads",
    "shared_client",
]
