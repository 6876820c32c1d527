"""Serving benchmark: one closed-loop driver over every serving tier.

Stage answers a prediction on each query's admission path, so its
serving cost is measured under the traffic production sends: every
query is a predict plus its feedback observe, so local-model retrains
land inside the measurement window.  :func:`run_bench` sweeps a
``backends × client_counts × inflight_counts`` grid, where each backend
(a :class:`~repro.core.config.ReplayBackend`) names the tier —
``service``, ``gateway`` or ``socket`` — and carries its knobs.

At every grid point a fresh fleet is stood up on the tier
(:func:`~repro.service.open_tier`) and warmed through it with feedback;
then :func:`drive_closed_loop` fires the measured segment:

- each instance's sequence slots are reserved up front (predict at
  ``base + 2k``, observe at ``base + 2k + 1``), so any client
  interleaving executes each instance's ops in trace order;
- clients have per-instance affinity, like the per-cluster connections
  production traffic arrives on;
- each client keeps ``inflight`` predicts outstanding; observes are
  fire-and-forget, and latency is the client-observed predict round
  trip.

The grid is walked ``repeats`` times, interleaved, and each row reports
the median of its repeats.  The determinism contract makes the measured
predictions bit-identical across the whole grid — asserted, not assumed
(:attr:`BenchResult.predictions_identical`).

``python -m repro.service bench --tier {service,gateway,socket}`` runs
the per-tier defaults in :data:`TIER_DEFAULTS` and writes
``results/service_bench.txt``, ``results/gateway_bench.txt`` or
``results/wire_bench.txt``.
"""

from __future__ import annotations

import statistics
import threading
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import (
    CacheConfig,
    GatewayConfig,
    LocalModelConfig,
    ReplayBackend,
    ServiceConfig,
    StageConfig,
    TrainingPoolConfig,
)
from repro.workload.fleet import FleetConfig, FleetGenerator
from repro.workload.trace import Trace

from .client import ClientFactory
from .tier import open_tier

__all__ = [
    "TIER_DEFAULTS",
    "BenchConfig",
    "BenchResult",
    "drive_closed_loop",
    "run_bench",
]


#: paper-sized local ensemble at a moderate tree budget — the operating
#: point where per-request single-row inference hurts most (same shape
#: as the replay perf benchmark)
_BENCH_STAGE = StageConfig(
    cache=CacheConfig(capacity=500),
    pool=TrainingPoolConfig(max_size=600),
    local=LocalModelConfig(
        n_members=10,
        n_estimators=40,
        max_depth=3,
        min_train_size=30,
        retrain_interval=300,
    ),
)

#: fraction of each instance's trace warmed (with feedback) before measuring
_WARMUP_FRACTION = 0.5

#: how often a waiting client checks whether a sibling has failed (s)
_POLL_S = 0.1


def _backend(mode: str, n_shards: int = 2) -> ReplayBackend:
    return ReplayBackend(
        mode=mode,
        service=ServiceConfig(max_batch_size=16, max_batch_latency_ms=5.0),
        gateway=GatewayConfig(n_shards=n_shards, queue_size=512),
    )


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark grid: ``backends × client_counts × inflight_counts``."""

    seed: int = 7
    n_instances: int = 1
    duration_days: float = 2.0
    volume_scale: float = 0.25
    #: the tiers under test, with their knobs (micro-batching on
    #: ``service``, sharding on ``gateway``); ``clients`` stays default —
    #: the bench's client counts are ``client_counts``
    backends: tuple = (_backend("service"),)
    #: closed-loop clients (TCP connections on the socket tier)
    client_counts: tuple = (1, 16)
    #: predicts each client keeps outstanding
    inflight_counts: tuple = (1,)
    #: interleaved passes over the grid; each row is the median of its
    #: passes, so drifting machine load lands on every point evenly
    repeats: int = 3
    stage: StageConfig = field(default_factory=lambda: _BENCH_STAGE)

    def __post_init__(self):
        for backend in self.backends:
            if backend.mode == "direct":
                raise ValueError('the bench drives serving tiers; mode "direct" has none')
            if backend.clients != ReplayBackend().clients:
                raise ValueError(
                    "set the bench's client counts on BenchConfig.client_counts, "
                    "not ReplayBackend.clients"
                )
            if backend.mode == "service" and self.n_instances != 1:
                raise ValueError(
                    f"the service tier serves one instance, got n_instances={self.n_instances}"
                )
        if not self.backends or not self.client_counts or not self.inflight_counts:
            raise ValueError("backends, client_counts and inflight_counts must be non-empty")
        if min(self.client_counts) < 1 or min(self.inflight_counts) < 1:
            raise ValueError("client and in-flight counts must be >= 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


#: the default grid of each tier, as ``python -m repro.service bench`` runs it
TIER_DEFAULTS: Dict[str, BenchConfig] = {
    "service": BenchConfig(),
    "gateway": BenchConfig(
        n_instances=6,
        duration_days=1.0,
        volume_scale=0.15,
        backends=tuple(_backend("gateway", n_shards) for n_shards in (1, 2, 4)),
        client_counts=(4, 16),
    ),
    "socket": BenchConfig(
        n_instances=4,
        duration_days=1.0,
        volume_scale=0.15,
        backends=(_backend("socket"),),
        client_counts=(1, 4),
        inflight_counts=(1, 8),
        repeats=1,
    ),
}


@dataclass
class BenchResult:
    """Median throughput/latency per grid point."""

    n_instances: int
    n_warmup: int
    n_measured: int
    repeats: int
    #: one row per grid point in grid order: the labels ``tier``,
    #: ``shards`` (``None`` on the service tier), ``clients`` and
    #: ``inflight``, then the median metrics
    rows: List[dict]
    #: every grid point produced bit-identical measured predictions
    predictions_identical: bool

    def render(self) -> str:
        lines = [
            f"serving bench: {self.n_instances} instance(s), {self.n_warmup} warmup + "
            f"{self.n_measured} measured queries of fused predict+observe traffic "
            f"(a fresh fleet warmed through the tier per grid point; median of "
            f"{self.repeats} interleaved repeat(s) per row); cache answers "
            f"{self.rows[0]['hit_frac']:.0%} of measured predicts",
        ]
        base_qps = self.rows[0]["qps"]
        for row in self.rows:
            tier = row["tier"] if row["shards"] is None else f"{row['tier']} shards={row['shards']}"
            lines.append(
                f"{tier:<16} clients={row['clients']:<3} inflight={row['inflight']:<3} "
                f"{row['qps']:8.0f} q/s   "
                f"p50={row['p50_ms']:7.2f} ms  p95={row['p95_ms']:7.2f} ms  "
                f"p99={row['p99_ms']:7.2f} ms   "
                f"{row['n_batches']:4.0f} batches (mean {row['mean_batch']:.2f})   "
                f"{row['qps'] / base_qps:5.2f}x vs first row"
            )
        verdict = "bit-identical" if self.predictions_identical else "DIVERGED (bug!)"
        lines.append(f"measured predictions across the whole grid: {verdict}")
        return "\n".join(lines)


def _wait_any(futures, stop: threading.Event, timeout: float):
    """Futures of ``futures`` done so far, waiting for at least one; empty
    once ``stop`` is set (a sibling client failed)."""
    deadline = time.monotonic() + timeout
    while not stop.is_set():
        done, _ = wait(futures, timeout=_POLL_S, return_when=FIRST_COMPLETED)
        if done:
            return done
        if time.monotonic() >= deadline:
            raise TimeoutError(f"no response within {timeout} s")
    return ()


def drive_closed_loop(
    connect: ClientFactory,
    streams: Dict[str, list],
    n_clients: int,
    inflight: int,
    timeout: float,
) -> Tuple[float, List[float], Dict[str, List[float]]]:
    """Fire each instance's fused predict/observe stream from closed-loop clients.

    ``streams`` maps instance id to its records in trace order.  The
    whole sequence range is reserved up front (record ``k``'s predict at
    ``base + 2k``, its observe at ``base + 2k + 1``).  Client ``w``
    serves the instances with index ≡ w (mod ``n_clients``), round
    robin, or shares one instance's stream when there are more clients
    than instances: a single cursor in global arrival order would pile
    every client onto whichever instance is mid-retrain.  Each client
    opens its own client from ``connect`` and keeps ``inflight``
    predicts outstanding.

    Returns ``(wall_s, latencies_s, predictions)``, where ``wall_s``
    ends when the last predict resolves and ``predictions`` maps each
    instance to its predicted exec-times.  A failed client stops its
    siblings, and the first client error is re-raised.
    """
    instance_ids = list(streams)
    with connect() as admin:
        bases = {iid: admin.reserve_sequence(iid, 2 * len(recs)) for iid, recs in streams.items()}
    cursors = {iid: 0 for iid in instance_ids}
    lock = threading.Lock()
    predictions = {iid: [None] * len(recs) for iid, recs in streams.items()}
    latencies: List[List[float]] = [[] for _ in range(n_clients)]
    finished = [0.0] * n_clients
    errors: List[BaseException] = []
    stop = threading.Event()

    def claim(mine: List[str]):
        """The next ``(instance_id, k)`` from ``mine``, round robin."""
        with lock:
            while mine:
                iid = mine.pop(0)
                k = cursors[iid]
                if k < len(streams[iid]):
                    cursors[iid] = k + 1
                    mine.append(iid)
                    return iid, k
        return None

    def client(w: int) -> None:
        if n_clients <= len(instance_ids):
            mine = instance_ids[w::n_clients]
        else:
            mine = [instance_ids[w % len(instance_ids)]]
        lat = latencies[w]
        observes = []
        try:
            with connect() as conn:
                outstanding = {}
                while not stop.is_set():
                    while len(outstanding) < inflight:
                        claimed = claim(mine)
                        if claimed is None:
                            break
                        iid, k = claimed
                        record, seq = streams[iid][k], bases[iid] + 2 * k
                        t0 = time.perf_counter()
                        outstanding[conn.predict_async(iid, record, seq=seq)] = (iid, k, t0)
                        observes.append(conn.observe_async(iid, record, seq=seq + 1))
                    if not outstanding:
                        break
                    done = _wait_any(outstanding, stop, timeout)
                    now = time.perf_counter()
                    for future in done:
                        iid, k, t0 = outstanding.pop(future)
                        predictions[iid][k] = future.result().prediction.exec_time
                        lat.append(now - t0)
                finished[w] = time.perf_counter()
                # a connection-scoped client stays open until its
                # feedback lands (and a failed observe fails the bench)
                pending = set(observes)
                while pending and not stop.is_set():
                    for future in _wait_any(pending, stop, timeout):
                        pending.discard(future)
                        future.result()
        except BaseException as exc:
            with lock:
                errors.append(exc)
            stop.set()

    threads = [
        threading.Thread(target=client, args=(w,), name=f"bench-client-{w}")
        for w in range(n_clients)
    ]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    merged = [v for lat in latencies for v in lat]
    return max(finished) - t0, merged, predictions


def _counters(instance_stats: Dict[str, dict]) -> Tuple[int, int, int]:
    """Fleet-summed (batches, deferred predicts, cache hits)."""
    return (
        sum(s["scheduler"]["n_batches"] for s in instance_stats.values()),
        sum(s["scheduler"]["n_deferred"] for s in instance_stats.values()),
        sum(s["stage"]["cache_hits"] for s in instance_stats.values()),
    )


def _measure(
    config: BenchConfig,
    backend: ReplayBackend,
    warmups: List[Trace],
    streams: Dict[str, list],
    n_clients: int,
    inflight: int,
) -> Tuple[dict, Dict[str, List[float]]]:
    """One grid point on a fresh, freshly warmed fleet; returns the row
    and the measured predictions (for the parity check)."""
    instances = [warmup.instance for warmup in warmups]
    with open_tier(backend, instances, stage_config=config.stage, random_state=config.seed) as tier:
        tier.replay(warmups, n_clients=1, n_submitters=len(warmups))
        tier.drain()
        batches0, deferred0, hits0 = _counters(tier.instance_stats())
        wall, latencies, predictions = drive_closed_loop(
            tier.connect, streams, n_clients, inflight, tier.timeout
        )
        tier.drain()
        batches1, deferred1, hits1 = _counters(tier.instance_stats())
    n_measured = sum(len(records) for records in streams.values())
    lat_ms = np.array(latencies) * 1000.0
    row = {
        "tier": backend.mode,
        "shards": None if backend.mode == "service" else backend.gateway.n_shards,
        "clients": n_clients,
        "inflight": inflight,
        "wall_s": wall,
        "qps": n_measured / wall,
        "p50_ms": float(np.percentile(lat_ms, 50)),
        "p95_ms": float(np.percentile(lat_ms, 95)),
        "p99_ms": float(np.percentile(lat_ms, 99)),
        "n_batches": float(batches1 - batches0),
        "mean_batch": (deferred1 - deferred0) / max(batches1 - batches0, 1),
        "hit_frac": (hits1 - hits0) / n_measured,
    }
    return row, predictions


_LABELS = ("tier", "shards", "clients", "inflight")


def run_bench(config: Optional[BenchConfig] = None) -> BenchResult:
    """Sweep the grid; see the module docstring."""
    config = config or BenchConfig()
    gen = FleetGenerator(FleetConfig(seed=config.seed, volume_scale=config.volume_scale))
    warmups: List[Trace] = []
    streams: Dict[str, list] = {}
    for index in range(config.n_instances):
        trace = gen.generate_trace(gen.sample_instance(index), config.duration_days)
        n_warmup = int(len(trace) * _WARMUP_FRACTION)
        warmups.append(Trace(trace.instance, trace.records[:n_warmup], trace.duration_days))
        streams[trace.instance.instance_id] = trace.records[n_warmup:]
    n_measured = sum(len(records) for records in streams.values())
    if not n_measured:
        raise ValueError("bench has no measurement segment — raise duration_days/volume_scale")

    grid = [
        (backend, n_clients, inflight)
        for backend in config.backends
        for n_clients in config.client_counts
        for inflight in config.inflight_counts
    ]
    samples: List[List[dict]] = [[] for _ in grid]
    reference = None
    identical = True
    for _ in range(config.repeats):
        for point, (backend, n_clients, inflight) in enumerate(grid):
            row, predictions = _measure(config, backend, warmups, streams, n_clients, inflight)
            samples[point].append(row)
            if reference is None:
                reference = predictions
            elif predictions != reference:
                identical = False
    rows = []
    for reps in samples:
        row = dict(reps[0])
        for key in row.keys() - set(_LABELS):
            row[key] = float(statistics.median(r[key] for r in reps))
        rows.append(row)
    return BenchResult(
        n_instances=config.n_instances,
        n_warmup=sum(len(warmup) for warmup in warmups),
        n_measured=n_measured,
        repeats=config.repeats,
        rows=rows,
        predictions_identical=identical,
    )
