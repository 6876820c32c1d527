"""The long-lived, many-client prediction service.

:class:`PredictionService` is the online face of one instance's
:class:`~repro.core.stage.StagePredictor` — the deployment shape the
paper describes (the predictor runs *inside* the cluster, answering a
prediction per arriving query under tight latency budgets).  It wires
the predictor into the micro-batch scheduler and exposes:

- :meth:`predict` / :meth:`predict_async` — route one query; cache hits
  answer immediately, model-bound queries ride the current micro-batch;
- :meth:`observe` — the feedback path: applies the paper's dedup rule
  (cache hits never enter the training pool) and triggers local retrains
  on the worker thread, never on a client thread;
- :meth:`snapshot` / :meth:`restore` — warm restart through a
  :class:`~repro.service.registry.ModelRegistry`: a restarted service
  reproduces the pre-restart service's predictions bit-for-bit;
- :meth:`stats` — cache/routing accounting plus scheduler batching
  counters.

Determinism contract (inherited from the scheduler + batch router):
results depend only on the sequence-ordered op stream, never on batch
sizes, latency budgets, client threading or flush timing.  The replay
harness's service mode and ``tests/test_service.py`` hold the service to
bit-identical parity with the offline replay.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Optional

from repro.core.config import ServiceConfig, StageConfig
from repro.core.interfaces import Prediction
from repro.core.stage import BatchRouter, StagePredictor
from repro.global_model.model import GlobalModel
from repro.workload.instance import InstanceProfile
from repro.workload.query import QueryRecord

from .registry import ModelRegistry, decode_state, encode_state
from .scheduler import OBSERVE, PREDICT, MicroBatchScheduler

__all__ = ["PredictionService"]


class PredictionService:
    """Online, batch-scheduling serving layer over one Stage predictor.

    Parameters
    ----------
    instance:
        The cluster this service serves.
    global_model:
        The fleet-shared model (or ``None`` for cache+local only).
    stage_config / random_state:
        Forwarded to :class:`StagePredictor`.
    service_config:
        Micro-batching knobs (:class:`~repro.core.config.ServiceConfig`).
    """

    def __init__(
        self,
        instance: InstanceProfile,
        global_model: Optional[GlobalModel] = None,
        stage_config: Optional[StageConfig] = None,
        service_config: Optional[ServiceConfig] = None,
        random_state: int = 0,
    ):
        stage = StagePredictor(
            instance,
            global_model=global_model,
            config=stage_config,
            random_state=random_state,
        )
        self._init_from_stage(stage, service_config)

    def _init_from_stage(
        self, stage: StagePredictor, service_config: Optional[ServiceConfig]
    ) -> None:
        self.config = service_config or ServiceConfig()
        self.stage = stage
        self.router = BatchRouter(stage, collect_cache_hit_local=self.config.collect_components)
        self.scheduler = MicroBatchScheduler(self.router, self.config)

    @classmethod
    def from_stage(
        cls,
        stage: StagePredictor,
        service_config: Optional[ServiceConfig] = None,
    ) -> "PredictionService":
        """Serve an existing (e.g. snapshot-restored) Stage predictor."""
        service = cls.__new__(cls)
        service._init_from_stage(stage, service_config)
        return service

    # ------------------------------------------------------------------
    # the online protocol
    # ------------------------------------------------------------------
    @property
    def instance_id(self) -> str:
        """The one instance this service serves."""
        return self.stage.instance.instance_id

    def _resolve_record(self, record, addressed_record):
        """Accept both calling forms of the submission methods.

        The single-service form is ``predict_async(record, seq=...)``;
        the :class:`~repro.service.PredictorClient` protocol form is
        ``predict_async(instance_id, record, seq=...)`` (instance ids
        are strings, query records never are).  The addressed form must
        name this service's own instance — a one-instance tier still
        rejects misrouted traffic instead of silently absorbing it.
        """
        if isinstance(record, str):
            if record != self.instance_id:
                raise KeyError(
                    f"instance {record!r} is not served by this service "
                    f"(it serves {self.instance_id!r})"
                )
            if addressed_record is None:
                raise TypeError("the addressed form requires a record")
            return addressed_record
        if addressed_record is not None:
            raise TypeError("unexpected second positional argument (record given twice?)")
        return record

    def predict_async(
        self, record, addressed_record=None, seq: Optional[int] = None
    ) -> Future:
        """Submit one prediction; the future resolves to its
        :class:`~repro.core.stage.RoutedComponents`.

        Callable as ``predict_async(record)`` or, per the
        :class:`~repro.service.PredictorClient` protocol, as
        ``predict_async(instance_id, record)``.
        """
        record = self._resolve_record(record, addressed_record)
        return self.scheduler.submit(PREDICT, record, seq=seq)

    def predict(
        self,
        record: QueryRecord,
        seq: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Prediction:
        """Blocking :meth:`predict_async`; returns the routed prediction."""
        if timeout is None:
            timeout = self.config.drain_timeout_s
        return self.predict_async(record, seq=seq).result(timeout).prediction

    def observe(
        self, record, addressed_record=None, seq: Optional[int] = None
    ) -> Future:
        """Feed back one executed query (dedup rule, cache update,
        possibly a local retrain — all on the worker thread).  Accepts
        both calling forms, like :meth:`predict_async`."""
        record = self._resolve_record(record, addressed_record)
        return self.scheduler.submit(OBSERVE, record, seq=seq)

    #: protocol-name alias (:class:`~repro.service.PredictorClient`)
    observe_async = observe

    def reserve_sequence(self, instance_id: str, count: int) -> int:
        """Claim ``count`` consecutive sequence slots (protocol form of
        :meth:`MicroBatchScheduler.reserve`); returns the base."""
        if instance_id != self.instance_id:
            raise KeyError(
                f"instance {instance_id!r} is not served by this service "
                f"(it serves {self.instance_id!r})"
            )
        return self.scheduler.reserve(count)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (new ops are rejected)."""
        return self.scheduler.closed

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted op is applied and flushed."""
        self.scheduler.drain(timeout)

    def close(self, timeout: Optional[float] = None) -> None:
        self.scheduler.close(timeout)

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # persistence (warm restart)
    # ------------------------------------------------------------------
    def snapshot(self, registry: ModelRegistry, name: str) -> str:
        """Drain, then persist this service as the one-instance snapshot
        ``name``; returns its path.

        The scheduler is paused for the duration of the write, so the
        snapshot is a consistent op-stream prefix even with concurrent
        clients: late submissions queue and execute after the snapshot.
        The layout is a gateway's, so the snapshot restores as a
        :class:`~repro.service.FleetGateway` under any shard count too.
        """
        self.drain()
        with self.scheduler.paused():
            state = encode_state(self.stage)
        return registry.save(
            name, {self.instance_id: state}, n_shards=1, global_model=self.stage.global_model
        )

    @classmethod
    def restore(
        cls,
        registry: ModelRegistry,
        name: str,
        service_config: Optional[ServiceConfig] = None,
    ) -> "PredictionService":
        """Rebuild a service from a one-instance snapshot (bit-for-bit
        warm restart), serving with ``service_config``.

        Any one-instance snapshot works, a gateway's included; a
        snapshot of any other number of instances raises ``ValueError``.
        """
        manifest = registry.load_manifest(name)
        instance_ids = manifest["instances"]
        if len(instance_ids) != 1:
            raise ValueError(
                f"snapshot {name!r} holds {len(instance_ids)} instances; "
                "a PredictionService restores exactly one"
            )
        global_model = registry.load_global(name) if manifest["has_global_model"] else None
        member = f"{name}/{instance_ids[0]}"
        stage = decode_state(
            registry.load_state(name, instance_ids[0]),
            global_model,
            f"snapshot member {member!r}",
        )
        return cls.from_stage(stage, service_config=service_config)

    # ------------------------------------------------------------------
    def maintenance_window(self) -> Optional[dict]:
        """The forecast-recommended slot for heavy maintenance.

        ANALYZE-style refreshes (statistics rebuilds, vacuum passes —
        anything that competes with serving) should land in a forecast
        load trough.  Returns ``{"start_s": ..., "bin_seconds": ...}``
        for the next trough bin after the last observed arrival, or
        ``None`` when forecasting is off, the forecaster is cold, or no
        trough exists within one seasonal cycle.  Purely advisory: reads
        forecast state, changes nothing, so it never perturbs parity.
        """
        forecast = self.stage.forecast
        if forecast is None or forecast.arrivals.last_bin is None:
            return None
        last_seen = forecast.arrivals.last_bin * forecast.bin_seconds
        start = forecast.next_trough(last_seen)
        if start is None:
            return None
        return {"start_s": start, "bin_seconds": forecast.bin_seconds}

    def stats(self) -> dict:
        """Routing/cache accounting plus scheduler batching counters.

        The ``stage`` sub-dict *is* the ``stage_stats`` the replay
        harness reports (one shared definition), so serving and replay
        accounting line up key-for-key.
        """
        return {
            "stage": self.stage.stats(),
            "scheduler": dict(self.scheduler.stats),
        }
