"""Configuration dataclasses for every Stage component.

Defaults follow the paper's hyper-parameters (Section 5.1): cache size
2,000 and alpha 0.8; local model = 10 GBMs x 200 estimators x depth 6
with a 20% early-stopping validation split; global model = directed GCN
with 8 conv layers (hidden width scaled down from 512 for CPU training).

``fast_profile()`` shrinks everything for tests and quick experiments;
``paper_profile()`` restores the published settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

# ScenarioConfig lives with the workload layer it mutates (the fleet
# generator consumes it), but it is part of the configuration surface:
# re-exported here next to every other component config.
from repro.workload.scenario import ScenarioConfig

__all__ = [
    "CacheConfig",
    "ControlConfig",
    "ForecastConfig",
    "TrainingPoolConfig",
    "LocalModelConfig",
    "GatewayConfig",
    "GlobalModelConfig",
    "ReplayBackend",
    "ScenarioConfig",
    "ServiceConfig",
    "StageConfig",
    "WireConfig",
    "fast_profile",
    "paper_profile",
]


@dataclass(frozen=True)
class CacheConfig:
    """Exec-time cache settings (paper Section 4.2)."""

    capacity: int = 2000
    alpha: float = 0.8


@dataclass(frozen=True)
class TrainingPoolConfig:
    """Local training pool settings (paper Section 4.3).

    The pool is bounded, deduplicated against the cache, and partitioned
    into exec-time buckets with per-bucket caps to preserve duration
    diversity.
    """

    max_size: int = 2000
    #: (upper bound seconds, share of max_size); the paper's example
    #: buckets are 0-10s, 10-60s and 60s+
    bucket_shares: tuple = ((10.0, 0.6), (60.0, 0.25), (float("inf"), 0.15))


@dataclass(frozen=True)
class LocalModelConfig:
    """Bayesian GBM ensemble settings (paper Sections 4.3, 5.1)."""

    n_members: int = 10
    n_estimators: int = 200
    max_depth: int = 6
    learning_rate: float = 0.1
    validation_fraction: float = 0.2
    early_stopping_rounds: int = 10
    subsample: float = 0.8
    #: minimum pool size before the local model is considered usable
    min_train_size: int = 40
    #: retrain after this many new pool additions
    retrain_interval: int = 250


@dataclass(frozen=True)
class GlobalModelConfig:
    """Global GCN settings (paper Sections 4.4, 5.1)."""

    hidden_dim: int = 64
    n_conv_layers: int = 8
    dropout: float = 0.2
    epochs: int = 25
    batch_size: int = 64
    learning_rate: float = 1e-3
    weight_decay: float = 1e-5
    #: cap on training queries sampled from each training instance
    max_queries_per_instance: int = 400
    random_state: int = 0
    #: worker processes for dataset construction (dedup + subsample +
    #: graph featurization); 1 = inline, ``<=0`` = all cores.  Any value
    #: builds a bit-identical dataset (per-trace seeding + ordered
    #: moment merging make sharding invisible).  Used when calling
    #: ``GlobalModelTrainer`` directly; ``run_sweep`` overrides it with
    #: the sweep-wide ``SweepConfig.n_jobs``, which governs every
    #: parallel stage of a sweep.
    n_jobs: int = 1


@dataclass(frozen=True)
class ForecastConfig:
    """Workload-forecasting (:mod:`repro.forecast`) settings.

    The forecaster folds each instance's arrival stream onto a seasonal
    cycle of fixed-width time bins (``repro.forecast.model.BUCKET_MINUTES``)
    and tracks which cache keys recur per bin, then drives three
    proactive consumers: cache pre-warming
    (:class:`~repro.core.stage.StagePredictor` refreshes or restores
    forecast-hot entries at every bin boundary), retrain scheduling
    (warm local retrains wait for a forecast load trough), and
    forecast-driven rebalancing (``ControlConfig.load_source="forecast"``).

    Determinism: every forecast input is the op stream itself — arrival
    times and cache keys carried by the sequenced records, never
    wall-clock — so forecast state, and everything it triggers, is a
    pure function of each instance's op stream.  The bit-parity
    contract (any ``n_jobs``, any backend tier, fork or spawn) holds
    for every forecast-on path.  Offline fits subsample oversized
    histories with a ``derive_seed(instance_seed, "forecast", ...)``
    stream, like every other seeded stage.
    """

    #: seasonal fold period (days); daily cycles by default
    period_days: float = 1.0
    #: pre-warm budget: forecast-hot cache keys refreshed per bin
    top_templates: int = 16
    #: evicted-entry archive the pre-warmer may restore from (0 = keep
    #: the cache's default drop-on-evict behavior)
    archive_capacity: int = 512
    #: defer warm local retrains into forecast load troughs (the
    #: bootstrap train is never deferred); default-off so committed
    #: results cannot drift
    defer_retrains: bool = False
    #: a bin is a trough when its forecast rate is at most this
    #: fraction of the mean per-bin rate
    trough_fraction: float = 0.75
    #: a due retrain held this many bins runs even without a trough
    max_retrain_defer_bins: int = 8
    #: observations before trough calls are trusted (cold forecasters
    #: never defer)
    min_history: int = 20
    #: offline fits subsample histories larger than this (seeded)
    max_fit_events: int = 100_000
    #: distinct cache keys tracked before the mix forecaster prunes
    max_keys_tracked: int = 4096

    def __post_init__(self):
        if self.period_days <= 0:
            raise ValueError("period_days must be > 0")
        if self.top_templates < 0:
            raise ValueError("top_templates must be >= 0")
        if self.archive_capacity < 0:
            raise ValueError("archive_capacity must be >= 0")
        if not 0 <= self.trough_fraction <= 1:
            raise ValueError("trough_fraction must be in [0, 1]")
        if self.max_retrain_defer_bins < 1:
            raise ValueError("max_retrain_defer_bins must be >= 1")
        if self.min_history < 0:
            raise ValueError("min_history must be >= 0")
        if self.max_fit_events < 1:
            raise ValueError("max_fit_events must be >= 1")
        if self.max_keys_tracked < 1:
            raise ValueError("max_keys_tracked must be >= 1")


@dataclass(frozen=True)
class StageConfig:
    """Routing thresholds and sub-model configs (paper Section 4.1)."""

    cache: CacheConfig = field(default_factory=CacheConfig)
    pool: TrainingPoolConfig = field(default_factory=TrainingPoolConfig)
    local: LocalModelConfig = field(default_factory=LocalModelConfig)
    #: local predictions below this many seconds are trusted outright
    #: ("short or certain" rule) — the paper trusts short predictions
    short_circuit_seconds: float = 2.0
    #: log-space std above which the local model counts as *uncertain*;
    #: at 1.5 the global model serves a few percent of queries, matching
    #: the paper's "rarely used (3% of the time)" operating point
    uncertainty_threshold: float = 1.5
    #: workload forecasting (:mod:`repro.forecast`): ``None`` (the
    #: default, so committed results cannot drift) disables it; a
    #: :class:`ForecastConfig` turns on per-instance forecasting and
    #: proactive cache pre-warming
    forecast: Optional[ForecastConfig] = None


@dataclass(frozen=True)
class ServiceConfig:
    """Online :class:`~repro.service.PredictionService` settings.

    The service collects concurrent ``predict`` calls into micro-batches:
    cache hits are answered immediately, while queries that need the
    local ensemble are deferred and served by one batched ensemble call
    once ``max_batch_size`` of them are pending or the sequenced op
    stream stalls with nothing left to pull.  ``max_batch_latency_ms``
    only bounds how long a stalled batch may hold for work on its way:
    a sequence gap with later ops already queued behind it, or the
    client of an immediately answered predict coming back.  Batch
    boundaries never change any prediction bit (the ensemble is frozen
    between retrains), so these are pure latency/throughput knobs.
    """

    #: deferred (model-bound) predictions served per batched model call
    max_batch_size: int = 32
    #: how long a stalled batch may hold for work on its way — a
    #: sequence gap with later ops queued behind it, or the client of
    #: an immediately answered predict coming back (ms)
    max_batch_latency_ms: float = 2.0
    #: also compute local-ensemble answers for cache hits (component
    #: collection, used by the replay harness's serving modes)
    collect_components: bool = False
    #: default timeout for :meth:`PredictionService.drain` (seconds)
    drain_timeout_s: float = 120.0

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_batch_latency_ms < 0:
            raise ValueError("max_batch_latency_ms must be >= 0")
        if self.drain_timeout_s <= 0:
            raise ValueError("drain_timeout_s must be > 0")


@dataclass(frozen=True)
class GatewayConfig:
    """Fleet-gateway (:class:`~repro.service.FleetGateway`) settings.

    The gateway shards many per-instance services across ``n_shards``
    worker processes.  Shard assignment is a pure function of the
    instance id, and the determinism contract makes every knob here a
    pure capacity/latency dial: results depend only on each instance's
    sequenced op stream — never on shard count, queue bounds, client
    threading or enqueue timing.
    """

    #: shard worker processes; each owns its instances' predictor state
    n_shards: int = 2
    #: bound of each shard's request queue — the backpressure budget
    queue_size: int = 256
    #: how long an enqueue may wait on a full shard queue before raising
    enqueue_timeout_s: float = 30.0
    #: default timeout for whole-fleet drain/close/snapshot barriers
    drain_timeout_s: float = 120.0
    #: machine-readable retry hint carried by
    #: :class:`~repro.service.GatewayBackpressureError` (and surfaced in
    #: the wire protocol's RETRY_AFTER frames) when a shard queue sheds
    #: an op — how long a well-behaved client should back off
    retry_after_s: float = 0.5
    #: per-instance micro-batching knobs, forwarded to every shard's
    #: :class:`~repro.service.PredictionService` instances
    service: ServiceConfig = field(default_factory=ServiceConfig)

    def __post_init__(self):
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if self.enqueue_timeout_s <= 0:
            raise ValueError("enqueue_timeout_s must be > 0")
        if self.drain_timeout_s <= 0:
            raise ValueError("drain_timeout_s must be > 0")
        if self.retry_after_s <= 0:
            raise ValueError("retry_after_s must be > 0")


@dataclass(frozen=True)
class WireConfig:
    """Wire front-door (:class:`~repro.service.WireServer`) settings.

    The wire layer is an asyncio TCP server speaking a length-prefixed
    binary frame protocol in front of a
    :class:`~repro.service.FleetGateway`.  Sequence numbers are assigned
    at session ingress (frame arrival order), so the determinism
    contract extends over the socket and every knob here is a pure
    capacity/robustness dial — none affects a prediction bit.
    """

    host: str = "127.0.0.1"
    #: TCP port to bind; 0 binds an ephemeral port (the bound address is
    #: returned by ``WireServer.start()``)
    port: int = 0
    #: a session with no inbound frame for this long is closed — unless
    #: it still has ops in flight (a client waiting on responses is
    #: never idle)
    idle_timeout_s: float = 300.0
    #: hard cap on a single frame body; oversized length prefixes are
    #: rejected with a structured error before any allocation
    max_frame_bytes: int = 64 * 1024 * 1024
    #: a session whose socket send buffer stays full for this long (a
    #: client that stopped reading its responses) is reaped: it gets a
    #: best-effort structured rid-0 ERROR frame and a hard disconnect,
    #: so one slow reader can never wedge the server's write path
    write_timeout_s: float = 30.0

    def __post_init__(self):
        if not self.host:
            raise ValueError("host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in [0, 65535]")
        if self.idle_timeout_s <= 0:
            raise ValueError("idle_timeout_s must be > 0")
        if self.max_frame_bytes < 1024:
            raise ValueError("max_frame_bytes must be >= 1024")
        if self.write_timeout_s <= 0:
            raise ValueError("write_timeout_s must be > 0")


@dataclass(frozen=True)
class ControlConfig:
    """Fleet control-plane (:class:`~repro.service.FleetController`)
    settings.

    The controller watches :meth:`~repro.service.FleetGateway.stats`
    (per-shard live queue depth plus cumulative per-instance op totals)
    and plans instance migrations that even out shard load.  Because a
    migration only moves *where* an instance's sequenced op stream
    executes — never the stream itself — every knob here is a pure
    placement/latency dial: no plan changes a prediction bit.
    """

    #: a shard pair is balanced when the load gap between the hottest
    #: and coldest shard is within this fraction of the mean shard load
    imbalance_tolerance: float = 0.25
    #: migrations planned (and executed) per control cycle
    max_migrations_per_cycle: int = 1
    #: seconds between control cycles of the background watcher
    cycle_interval_s: float = 5.0
    #: do nothing until the fleet has seen at least this many ops —
    #: avoids thrashing on an idle or barely-warm fleet
    min_total_ops: int = 1
    #: per-migration timeout handed to
    #: :meth:`~repro.service.FleetGateway.migrate_instance`
    migration_timeout_s: float = 120.0
    #: per-instance load signal the planner balances on:
    #: ``"trailing"`` — cumulative op totals (history); ``"forecast"`` —
    #: each instance's forecast near-term load (``forecast_load`` in its
    #: stage stats), falling back to trailing totals when no instance
    #: reports a forecast (forecasting off or still cold)
    load_source: str = "trailing"

    def __post_init__(self):
        if self.load_source not in ("trailing", "forecast"):
            raise ValueError(
                f'load_source must be "trailing" or "forecast", got {self.load_source!r}'
            )
        if self.imbalance_tolerance < 0:
            raise ValueError("imbalance_tolerance must be >= 0")
        if self.max_migrations_per_cycle < 1:
            raise ValueError("max_migrations_per_cycle must be >= 1")
        if self.cycle_interval_s <= 0:
            raise ValueError("cycle_interval_s must be > 0")
        if self.min_total_ops < 0:
            raise ValueError("min_total_ops must be >= 0")
        if self.migration_timeout_s <= 0:
            raise ValueError("migration_timeout_s must be > 0")


#: serving tiers a replay can route through (``ReplayBackend.mode``)
_REPLAY_MODES = ("direct", "service", "gateway", "socket")


@dataclass(frozen=True)
class ReplayBackend:
    """Which serving tier a replay routes through, with its knobs.

    One picklable value, taken by ``replay_instance``, ``FleetSweeper``
    and ``ScenarioSweepConfig``.  The determinism contract makes the
    choice invisible in results: every mode replays the same sequenced
    op stream, so arrays and accounting are bit-identical across modes
    (and the parity suites assert exactly that).
    """

    #: one of ``"direct"`` (in-process, no service layer),
    #: ``"service"`` (micro-batching :class:`PredictionService`),
    #: ``"gateway"`` (multi-process :class:`FleetGateway`) or
    #: ``"socket"`` (TCP :class:`WireServer` front door)
    mode: str = "direct"
    #: concurrent replay clients per instance (ignored by ``direct``)
    clients: int = 1
    #: micro-batching knobs, for every mode that serves (the sharded
    #: modes hand them to each shard's services)
    service: ServiceConfig = field(default_factory=ServiceConfig)
    #: fleet sharding knobs (``gateway`` and ``socket`` modes); its
    #: ``service`` field must stay default — set ``service`` above
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    #: TCP front-door knobs (``socket`` mode)
    wire: WireConfig = field(default_factory=WireConfig)

    def __post_init__(self):
        if self.mode not in _REPLAY_MODES:
            raise ValueError(
                f"mode must be one of {_REPLAY_MODES}, got {self.mode!r}"
            )
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.gateway.service != ServiceConfig():
            raise ValueError(
                "set a replay's micro-batching knobs on ReplayBackend.service, "
                "not ReplayBackend.gateway.service"
            )


def fast_profile() -> StageConfig:
    """Small models for unit tests and quick experiments."""
    return StageConfig(
        cache=CacheConfig(capacity=500),
        pool=TrainingPoolConfig(max_size=600),
        local=LocalModelConfig(
            n_members=4,
            n_estimators=30,
            max_depth=3,
            min_train_size=30,
            retrain_interval=150,
        ),
    )


def paper_profile() -> StageConfig:
    """The published hyper-parameters (slow on CPU; for completeness)."""
    return StageConfig()
