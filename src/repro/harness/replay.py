"""Replay evaluation, exactly as deployed (paper Section 5.1).

Queries are replayed in arrival order: each predictor predicts *before*
seeing the outcome, then observes it.  Besides the Stage and AutoWLM
predictions, the replay records every component's answer on every query
(cache hit value, local mean/uncertainty, global estimate), which is what
the ablation tables (paper Tables 3-6) slice on afterwards.

Component collection never perturbs the predictors it is measuring:

- the cache answer is the router's own (single, counted) lookup, so
  ``hits + misses`` equals exactly one lookup per query whether or not
  components are collected;
- the local ensemble's answer is reused from the router wherever the
  router consulted it (every cache miss with a ready local model);
- for queries the router never routed locally (cache hits), inference is
  deferred and served by **one batched ensemble call per retrain
  window** (the ensemble is frozen between retrains, so deferral changes
  no arithmetic — results are bit-identical to per-query calls).

The batched path is :class:`~repro.core.stage.BatchRouter` — the same
engine the online :class:`~repro.service.PredictionService` schedules
micro-batches through.  ``backend=ReplayBackend(mode="service")`` replays
the trace *through* a live service (concurrent clients, micro-batch
scheduler and all) and must reproduce the direct replay bit-for-bit;
``tests/test_service.py`` enforces that parity, and
``tests/test_parallel.py`` holds the batched path to a per-query
reference replay (one extra ensemble inference per eligible query).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.autowlm import AutoWLMPredictor
from repro.core.config import ReplayBackend, StageConfig
from repro.core.interfaces import PredictionSource
from repro.core.stage import BatchRouter, RoutedComponents, StagePredictor
from repro.global_model.model import GlobalModel
from repro.workload.trace import Trace

__all__ = [
    "InstanceReplay",
    "assemble_replay",
    "replay_fleet",
    "replay_instance",
]


@dataclass
class InstanceReplay:
    """Per-query replay outputs for one instance (parallel arrays)."""

    instance_id: str
    true: np.ndarray
    arrival: np.ndarray
    kind: np.ndarray  # archetype labels
    stage_pred: np.ndarray
    stage_source: np.ndarray  # PredictionSource labels
    autowlm_pred: np.ndarray
    cache_pred: np.ndarray  # NaN on cache miss
    local_pred: np.ndarray  # NaN before the local model is ready
    local_std: np.ndarray  # log-space std; NaN when local_pred is NaN
    global_pred: np.ndarray  # NaN when no global model was supplied
    #: True where the routing rule would escalate to the global model
    #: (local ready, prediction long, uncertainty above threshold)
    uncertain: np.ndarray
    #: calibrated interval bounds (seconds) for the routed prediction
    #: and each component column, NaN exactly where the corresponding
    #: point column is NaN; same parity contract as the point arrays
    stage_interval_low: np.ndarray = None
    stage_interval_high: np.ndarray = None
    cache_interval_low: np.ndarray = None
    cache_interval_high: np.ndarray = None
    local_interval_low: np.ndarray = None
    local_interval_high: np.ndarray = None
    global_interval_low: np.ndarray = None
    global_interval_high: np.ndarray = None
    #: summary from the Stage predictor after the replay
    stage_stats: dict = field(default_factory=dict)

    def __len__(self):
        return self.true.shape[0]

    # ------------------------------------------------------------------
    @property
    def cache_hit_mask(self) -> np.ndarray:
        return ~np.isnan(self.cache_pred)

    @property
    def cache_miss_mask(self) -> np.ndarray:
        return np.isnan(self.cache_pred)

    @property
    def local_ready_mask(self) -> np.ndarray:
        return ~np.isnan(self.local_pred)

    @property
    def global_available_mask(self) -> np.ndarray:
        return ~np.isnan(self.global_pred)


def assemble_replay(
    trace: Trace,
    components: List[RoutedComponents],
    stage_stats: dict,
    config: StageConfig | None = None,
    global_model: Optional[GlobalModel] = None,
    random_state: int = 0,
    collect_components: bool = True,
) -> InstanceReplay:
    """Build an :class:`InstanceReplay` from per-query routed components.

    The one assembly path behind every replay mode — direct, service,
    gateway and socket replays all produce a :class:`RoutedComponents`
    list plus the predictor's final accounting, and everything
    downstream (arrays, the independent AutoWLM baseline, the batched
    global-model column) is derived here, so the modes cannot drift in
    how results are reported.
    """
    config = config or StageConfig()
    n = len(trace)
    if len(components) != n:
        raise ValueError(f"expected {n} routed components, got {len(components)}")
    true = np.empty(n)
    arrival = np.empty(n)
    kind = np.empty(n, dtype=object)
    stage_pred = np.empty(n)
    stage_source = np.empty(n, dtype=object)
    autowlm_pred = np.empty(n)
    cache_pred = np.full(n, np.nan)
    local_pred = np.full(n, np.nan)
    local_std = np.full(n, np.nan)
    global_pred = np.full(n, np.nan)
    uncertain = np.zeros(n, dtype=bool)
    stage_interval_low = np.empty(n)
    stage_interval_high = np.empty(n)
    cache_interval_low = np.full(n, np.nan)
    cache_interval_high = np.full(n, np.nan)
    local_interval_low = np.full(n, np.nan)
    local_interval_high = np.full(n, np.nan)
    global_interval_low = np.full(n, np.nan)
    global_interval_high = np.full(n, np.nan)

    for i, record in enumerate(trace):
        true[i] = record.exec_time
        arrival[i] = record.arrival_time
        kind[i] = record.kind

    # The AutoWLM baseline shares no state with Stage, so its replay is
    # an independent loop regardless of how Stage predictions are routed.
    autowlm = AutoWLMPredictor(config=config.local, random_state=random_state)
    for i, record in enumerate(trace):
        autowlm_pred[i] = autowlm.predict(record).exec_time
        autowlm.observe(record)

    for i, routed in enumerate(components):
        sp = routed.prediction
        stage_pred[i] = sp.exec_time
        stage_source[i] = sp.source
        stage_interval_low[i] = sp.interval_low
        stage_interval_high[i] = sp.interval_high
        if collect_components:
            if routed.cache is not None:
                cache_pred[i] = routed.cache.exec_time
                cache_interval_low[i] = routed.cache.interval_low
                cache_interval_high[i] = routed.cache.interval_high
            if routed.local is not None:
                lp = routed.local
                local_pred[i] = lp.exec_time
                local_std[i] = lp.std
                local_interval_low[i] = lp.interval_low
                local_interval_high[i] = lp.interval_high
                uncertain[i] = (
                    lp.exec_time >= config.short_circuit_seconds
                    and lp.std >= config.uncertainty_threshold
                )
        elif sp.source == PredictionSource.CACHE:
            cache_pred[i] = sp.exec_time
            cache_interval_low[i] = sp.interval_low
            cache_interval_high[i] = sp.interval_high

    if collect_components and global_model is not None:
        # The global model is trained offline and frozen during replay, so
        # its per-query answers can be computed in one batch; the batch is
        # bit-identical per plan to the answers Stage routed to it.
        answers = global_model.predict_many([r.plan for r in trace], trace.instance)
        for i, gp in enumerate(answers):
            global_pred[i] = gp.exec_time
            global_interval_low[i] = gp.interval_low
            global_interval_high[i] = gp.interval_high

    return InstanceReplay(
        instance_id=trace.instance.instance_id,
        true=true,
        arrival=arrival,
        kind=kind,
        stage_pred=stage_pred,
        stage_source=stage_source,
        autowlm_pred=autowlm_pred,
        cache_pred=cache_pred,
        local_pred=local_pred,
        local_std=local_std,
        global_pred=global_pred,
        uncertain=uncertain,
        stage_interval_low=stage_interval_low,
        stage_interval_high=stage_interval_high,
        cache_interval_low=cache_interval_low,
        cache_interval_high=cache_interval_high,
        local_interval_low=local_interval_low,
        local_interval_high=local_interval_high,
        global_interval_low=global_interval_low,
        global_interval_high=global_interval_high,
        stage_stats=stage_stats,
    )


def replay_fleet(
    traces: Sequence[Trace],
    backend: ReplayBackend,
    global_model: Optional[GlobalModel] = None,
    config: StageConfig | None = None,
    random_state: int = 0,
    collect_components: bool = True,
    n_submitters: int = 1,
    reshard_hook: Optional[Callable[[object], None]] = None,
) -> List[InstanceReplay]:
    """Replay every trace through one shared serving tier.

    The tier is whatever :func:`~repro.service.open_tier` stands up for
    ``backend``: one :class:`~repro.service.PredictionService`
    (``"service"``, a single trace), a multi-process
    :class:`~repro.service.FleetGateway` (``"gateway"``) or that gateway
    behind a TCP :class:`~repro.service.WireServer` (``"socket"``,
    ``backend.clients`` wire connections per instance, with registration
    and accounting over an admin connection so they cross the socket
    too).  Each instance's op stream goes through the one
    :func:`~repro.service.replay_trace_via_client` driver, and its
    accounting is read back from the tier that owns it.
    ``n_submitters`` instances' streams are in flight at once.

    While the submitters run, ``reshard_hook`` (if any; ``gateway`` and
    ``socket`` only) executes on its own thread against the live
    gateway — it may migrate instances and resize the shard set
    *mid-replay*, and the determinism contract requires the results to
    stay bit-identical anyway.  The hook is joined before final
    accounting is read, so its moves are fully settled in the stats,
    and any exception it raises fails the replay.
    """
    # lazy: direct replays (and their pool workers) never load the
    # serving stack
    from repro.service import open_tier

    with open_tier(
        backend,
        [trace.instance for trace in traces],
        stage_config=config,
        global_model=global_model,
        random_state=random_state,
        collect_components=collect_components,
    ) as tier:
        hook_errors: List[BaseException] = []
        hook_thread: Optional[threading.Thread] = None
        if reshard_hook is not None:

            def run_hook():
                try:
                    reshard_hook(tier.gateway)
                except BaseException as exc:
                    hook_errors.append(exc)

            hook_thread = threading.Thread(target=run_hook, name="reshard-hook", daemon=True)
            hook_thread.start()

        components_per_trace = tier.replay(traces, backend.clients, n_submitters)
        if hook_thread is not None:
            # the hook must settle before accounting is read (and a
            # failed reshard must fail the replay, not pass silently)
            hook_thread.join()
            if hook_errors:
                raise hook_errors[0]
        tier.drain()
        instance_stats = tier.instance_stats()
    return [
        assemble_replay(
            trace,
            components,
            instance_stats[trace.instance.instance_id]["stage"],
            config=config,
            global_model=global_model,
            random_state=random_state,
            collect_components=collect_components,
        )
        for trace, components in zip(traces, components_per_trace)
    ]


def replay_instance(
    trace: Trace,
    global_model: Optional[GlobalModel] = None,
    config: StageConfig | None = None,
    random_state: int = 0,
    collect_components: bool = True,
    backend: ReplayBackend | None = None,
) -> InstanceReplay:
    """Replay one instance's trace through Stage and AutoWLM.

    When ``collect_components`` is set, the local and global models are
    additionally recorded on *every* eligible query (not only when the
    router would have consulted them), so ablations can compare the
    components on identical query sets: the router's own inference
    answers cache misses, and one batched ensemble call per retrain
    window answers cache hits.

    ``backend`` selects which serving tier the Stage predictions route
    through (:class:`~repro.core.config.ReplayBackend`): ``"direct"``
    (default — no service layer), ``"service"`` (an online
    :class:`~repro.service.PredictionService` with ``backend.clients``
    concurrent submitters), ``"gateway"`` (a sharded multi-process
    :class:`~repro.service.FleetGateway`) or ``"socket"`` (real TCP
    connections against a :class:`~repro.service.WireServer` fronting a
    gateway); every serving mode is :func:`replay_fleet` with one trace.
    The determinism contract makes every mode bit-identical to the
    direct path — arrays *and* accounting — for any batch size, shard
    count or client/connection count.
    """
    backend = backend or ReplayBackend()
    config = config or StageConfig()
    if backend.mode != "direct":
        return replay_fleet(
            [trace],
            backend,
            global_model=global_model,
            config=config,
            random_state=random_state,
            collect_components=collect_components,
        )[0]

    stage = StagePredictor(
        trace.instance,
        global_model=global_model,
        config=config,
        random_state=random_state,
    )
    # fused predict+observe through the shared batch router
    router = BatchRouter(stage, collect_cache_hit_local=collect_components)
    slots = []
    for record in trace:
        slots.append(router.route(record))
        router.observe(record)
    router.flush()
    return assemble_replay(
        trace,
        [slot.components for slot in slots],
        stage.stats(),
        config=config,
        global_model=global_model,
        random_state=random_state,
        collect_components=collect_components,
    )
