"""The Stage predictor: cache -> local model -> global model.

The paper's core contribution (Section 4).  Routing for a query ``Q``:

1. flatten ``Q``'s physical plan to the 33-dim vector and hash it; on an
   exec-time-cache hit, return the cached blend (near-zero latency);
2. otherwise ask the instance-optimized local model; if the prediction is
   *short* (below ``short_circuit_seconds``) or *certain* (log-space std
   below ``uncertainty_threshold``), return it;
3. otherwise fall back to the fleet-trained global model (expensive but
   robust exactly where the local model is weak).

After execution, the observed time updates the cache, and — only when the
query *missed* the cache (dedup rule) — the local training pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.cache import ExecTimeCache
from repro.forecast import WorkloadForecast
from repro.global_model.model import GlobalModel
from repro.local_model.model import LocalModel
from repro.ml.intervals import new_width_bins, width_bin_index, width_percentile_from_bins
from repro.workload.instance import InstanceProfile
from repro.workload.query import QueryRecord
from repro.workload.seeding import derive_seed

from .config import StageConfig
from .interfaces import Prediction, PredictionSource, Predictor, RunningMedian

__all__ = ["BatchRouter", "RoutedComponents", "RoutedSlot", "StagePredictor"]


@dataclass
class RoutedComponents:
    """One routed prediction plus the component answers the router saw.

    Produced by :meth:`StagePredictor.predict_with_components`: exactly
    the same routing (and the same cache/counter accounting — one counted
    cache lookup, at most one local-ensemble inference) as
    :meth:`StagePredictor.predict`, but the intermediate answers are
    surfaced instead of discarded.  This is what lets the replay harness
    collect per-component arrays without re-invoking any model.
    """

    #: the answer Stage actually routed to
    prediction: Prediction
    #: the cache's full answer (blended point + Welford interval), or
    #: ``None`` on a cache miss; on a hit this is the very object routed
    #: as ``prediction``
    cache: Optional[Prediction]
    #: the local ensemble's answer where the router consulted it
    #: (i.e. on every cache miss with a ready local model, and on cache
    #: hits when the router collects their local answers); ``None``
    #: otherwise and before the first local retrain
    local: Optional[Prediction]
    #: whether the local model had a trained ensemble at prediction time
    local_ready: bool
    #: ``LocalModel.n_retrains`` at prediction time — identifies the
    #: retrain window a deferred (batched) local inference must target
    local_generation: int


class StagePredictor(Predictor):
    """Hierarchical exec-time predictor for one instance.

    Parameters
    ----------
    instance:
        The cluster this predictor serves (provides the system features
        the global model consumes).
    global_model:
        The shared fleet-trained model, or ``None`` to run cache+local
        only (the configuration currently deployed in Redshift, per
        Section 5.2).
    config:
        Thresholds and sub-model settings.
    """

    name = "stage"

    def __init__(
        self,
        instance: InstanceProfile,
        global_model: Optional[GlobalModel] = None,
        config: StageConfig | None = None,
        random_state: int = 0,
    ):
        self.config = config or StageConfig()
        self.instance = instance
        forecast_config = self.config.forecast
        self.cache = ExecTimeCache(
            capacity=self.config.cache.capacity,
            alpha=self.config.cache.alpha,
            archive_capacity=(
                forecast_config.archive_capacity if forecast_config is not None else 0
            ),
        )
        # workload forecasting (default-off): state accumulates from the
        # sequenced op stream's arrival times and cache keys in observe,
        # so everything it drives — pre-warms, retrain deferrals, the
        # rebalancer's load signal — is bit-identical on every backend
        if forecast_config is not None:
            self.forecast: Optional[WorkloadForecast] = WorkloadForecast(
                forecast_config, seed=derive_seed(instance.seed, "forecast")
            )
        else:
            self.forecast = None
        #: hold warm local retrains for forecast troughs
        self.defer_retrains = bool(
            forecast_config is not None and forecast_config.defer_retrains
        )
        self._forecast_bin: Optional[int] = None
        #: absolute bin a held retrain first became due in (bounds the
        #: deferral: ``max_retrain_defer_bins`` later it runs regardless)
        self._retrain_due_bin: Optional[int] = None
        self.n_prewarm_touches = 0
        self.n_prewarm_restores = 0
        self.n_retrain_deferrals = 0
        self.n_trough_retrains = 0
        self.local = LocalModel(
            config=self.config.local,
            pool_config=self.config.pool,
            random_state=random_state,
        )
        self.global_model = global_model
        self._default = RunningMedian()
        #: reusable single-query router (lazily built) so the hot
        #: predict path pays no per-call router construction
        self._inline_router = None
        self.source_counts = {
            PredictionSource.CACHE: 0,
            PredictionSource.LOCAL: 0,
            PredictionSource.GLOBAL: 0,
            PredictionSource.DEFAULT: 0,
        }
        #: fixed-bin histogram of routed interval widths (seconds); the
        #: integer counts merge across shards by elementwise addition,
        #: so fleet-level width percentiles are reduction-order-free
        self.interval_width_bins = new_width_bins()

    def _count_routed(self, prediction: Prediction) -> None:
        """Account one routed answer: source counter + width histogram.

        The single accounting choke point — every route (inline, batched,
        served) lands here exactly once per routed prediction.
        """
        self.source_counts[prediction.source] += 1
        self.interval_width_bins[width_bin_index(prediction.interval_width)] += 1

    # ------------------------------------------------------------------
    def predict(self, record: QueryRecord) -> Prediction:
        return self.predict_with_components(record).prediction

    def predict_with_components(self, record: QueryRecord) -> RoutedComponents:
        """Route ``record`` and expose every component answer seen.

        The degenerate (batch size 1) case of :class:`BatchRouter` — the
        one routing implementation, shared with the replay harness and
        the online serving layer so the paths cannot drift.  Counter
        semantics are guaranteed: exactly one counted cache lookup per
        call, and the local ensemble runs at most once (only on cache
        misses once it is ready) — component collection must *not* add
        lookups or inferences on top.
        """
        router = self._inline_router
        if router is None:
            router = self._inline_router = BatchRouter(self)
        slot = router.route(record)
        router.flush()
        return slot.components

    # ------------------------------------------------------------------
    def observe(self, record: QueryRecord) -> None:
        key = self.cache.key_for(record.features)
        was_hit = key in self.cache
        deferring = False
        if self.forecast is not None:
            self._forecast_step(record.arrival_time, key)
            deferring = self.defer_retrains and self.local.is_ready
        # dedup rule (Section 4.3): only cache misses enter the pool
        self.local.add_example(
            record.features,
            record.exec_time,
            cache_hit=was_hit,
            allow_retrain=not deferring,
        )
        if deferring:
            self._maybe_release_retrain(record.arrival_time)
        self.cache.observe(key, record.exec_time)
        self._default.update(record.exec_time)

    def _forecast_step(self, time_s: float, key: str) -> None:
        """Advance forecast state by one arrival; pre-warm on a new bin.

        Pre-warming runs *before* the current arrival enters history, so
        the hot-key set is a function of strictly-prior observations —
        identical whether ops arrive one at a time or in serving
        batches.  Observes execute in arrival order on every backend, so
        every pre-warm lands at the same op-stream position fleet-wide.
        """
        forecast = self.forecast
        bin_index = forecast.bin_index(time_s)
        crossed = self._forecast_bin is not None and bin_index > self._forecast_bin
        if self._forecast_bin is None or bin_index > self._forecast_bin:
            self._forecast_bin = bin_index
        if crossed:
            for hot in forecast.hot_keys(time_s):
                if self.cache.touch(hot):
                    self.n_prewarm_touches += 1
                elif self.cache.restore(hot):
                    self.n_prewarm_restores += 1
        forecast.observe(time_s, key)

    def _maybe_release_retrain(self, time_s: float) -> None:
        """Run a held warm retrain in a forecast trough (or when the
        deferral bound expires)."""
        if not self.local.retrain_due:
            self._retrain_due_bin = None
            return
        bin_index = self.forecast.bin_index(time_s)
        if self._retrain_due_bin is None:
            self._retrain_due_bin = bin_index
        overdue = (
            bin_index - self._retrain_due_bin
            >= self.config.forecast.max_retrain_defer_bins
        )
        if overdue or self.forecast.is_trough(time_s):
            self.local.retrain()
            self.n_trough_retrains += 1
            self._retrain_due_bin = None
        else:
            self.n_retrain_deferrals += 1

    def forecast_load(self) -> float:
        """The forecast near-term load signal (0.0 with forecasting off
        or a cold forecaster) — what ``ControlConfig.load_source=
        "forecast"`` balances the fleet on."""
        if self.forecast is None:
            return 0.0
        return self.forecast.forecast_load()

    # ------------------------------------------------------------------
    @property
    def global_use_fraction(self) -> float:
        """Fraction of predictions served by the global model."""
        total = sum(self.source_counts.values())
        if total == 0:
            return 0.0
        return self.source_counts[PredictionSource.GLOBAL] / total

    def byte_size(self) -> int:
        """Footprint of cache + local model.

        The global model is excluded, as in the paper's Figure 9: it is
        shared fleet-wide (deployed as a serverless function), not held
        per instance.
        """
        return self.cache.byte_size() + self.local.byte_size()

    def stats(self) -> dict:
        """The replay/serving accounting summary for this predictor.

        One definition shared by the replay harness and every serving
        tier, so the parity suites can compare the dicts key-for-key.
        """
        return {
            "cache_hit_rate": self.cache.hit_rate,
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "source_counts": dict(self.source_counts),
            "global_use_fraction": self.global_use_fraction,
            "n_local_retrains": self.local.n_retrains,
            "byte_size": self.byte_size(),
            # integer width-histogram counts (mergeable across shards by
            # elementwise addition) plus the derived width percentiles
            "interval_width_bins": tuple(self.interval_width_bins),
            "interval_width_p50": width_percentile_from_bins(self.interval_width_bins, 0.5),
            "interval_width_p90": width_percentile_from_bins(self.interval_width_bins, 0.9),
            # workload-forecasting accounting (all zeros with forecasting
            # off, so dict shapes stay identical across configurations);
            # forecast_load is the rebalancer's per-instance signal when
            # ControlConfig.load_source="forecast"
            "forecast_load": self.forecast_load(),
            "n_prewarm_touches": self.n_prewarm_touches,
            "n_prewarm_restores": self.n_prewarm_restores,
            "n_retrain_deferrals": self.n_retrain_deferrals,
            "n_trough_retrains": self.n_trough_retrains,
        }


class RoutedSlot:
    """Placeholder for one routed prediction.

    ``components`` is set once, complete: at route time for cache hits
    and cold-start routes, or at the router's next
    :meth:`BatchRouter.flush` for routes that consult the local ensemble
    (and, with component collection on, for cache hits, whose local
    answer rides the window).  :attr:`ready` is the only readiness test.
    """

    __slots__ = ("components",)

    def __init__(self, components: Optional[RoutedComponents] = None):
        self.components = components

    @property
    def ready(self) -> bool:
        return self.components is not None


@dataclass
class _PendingEntry:
    """One deferred local-ensemble inference inside the open window."""

    slot: RoutedSlot
    record: QueryRecord
    #: the cache's answer for a component-collection entry (a cache hit,
    #: already routed and counted); ``None`` for an entry the flush routes
    cache: Optional[Prediction] = None


class BatchRouter:
    """Incremental batch routing over one :class:`StagePredictor`.

    The single routing implementation shared by the replay harness
    (every replay mode) and the online
    :class:`~repro.service.PredictionService` — both consume this class,
    so the offline and serving paths cannot drift.

    Contract: interleaving :meth:`route_batch` and :meth:`observe` calls
    in arrival order produces, after the final :meth:`flush`, results
    **bit-identical** to routing and observing one query at a time with
    a flush after every route — for any window sizes and flush points.
    This holds because the only work the router defers is local-ensemble
    inference, and the ensemble is frozen between retrains:

    - cache lookups, observes (and the retrains they trigger) and the
      cold-start routes run inline, in arrival order, with identical
      counter accounting;
    - a query routed while the local model is ready joins the *pending
      window* — the deferred inferences against one frozen ensemble
      generation.  The window is answered by one batched ensemble call
      (bit-identical per row to per-query calls) at the next flush, which
      happens no later than the next generation change;
    - the "short or certain" rule and the global-model fallback complete
      at flush time; the global model is frozen, and its batched forward
      (:meth:`~repro.global_model.GlobalModel.predict_many`, built on the
      order-stable :meth:`~repro.ml.gcn.DirectedGCN.predict_graphs`, the
      GCN's one inference path) is bit-identical to per-query
      evaluation, so deferral — and the window's batch boundaries —
      change no arithmetic there either.
    """

    def __init__(self, stage: StagePredictor, collect_cache_hit_local: bool = False):
        self.stage = stage
        #: also run the (frozen) local ensemble on cache hits, completing
        #: their slots at flush time with ``components.local`` filled —
        #: used by replay component collection; never affects routing or
        #: accounting
        self.collect_cache_hit_local = collect_cache_hit_local
        self._frozen = None
        self._pending: List[_PendingEntry] = []

    # ------------------------------------------------------------------
    @property
    def has_pending(self) -> bool:
        return bool(self._pending)

    # ------------------------------------------------------------------
    def route(self, record: QueryRecord) -> RoutedSlot:
        """Route one query: the one-row :meth:`route_batch`."""
        return self.route_batch([record])[0]

    def route_batch(self, records: List[QueryRecord]) -> List[RoutedSlot]:
        """Route a window of queries in one pass; may defer local
        inference to the next :meth:`flush`.

        No observe intervenes inside the window, so the cache, the local
        ensemble's readiness/generation and the running-median default
        are constant across it: state is read once, the cache probe is
        one counted :meth:`~repro.cache.ExecTimeCache.lookup_predictions`
        pass over precomputed answers, and cold-start global routes take
        one batched forward.  Returns one :class:`RoutedSlot` per record,
        ready at once for cache hits and cold-start routes.
        """
        stage = self.stage
        cache = stage.cache
        local_ready = stage.local.is_ready
        local_generation = stage.local.n_retrains
        collect = self.collect_cache_hit_local and local_ready

        def routed(prediction: Prediction, cache_answer: Optional[Prediction] = None):
            stage._count_routed(prediction)
            return RoutedComponents(
                prediction=prediction,
                cache=cache_answer,
                local=None,
                local_ready=local_ready,
                local_generation=local_generation,
            )

        cached = cache.lookup_predictions([cache.key_for(record.features) for record in records])
        slots = [RoutedSlot() for _ in records]
        cold_global: List[int] = []
        for idx, (record, hit) in enumerate(zip(records, cached)):
            if hit is not None:
                if collect:
                    stage._count_routed(hit)
                    self._defer(slots[idx], record, cache=hit)
                else:
                    slots[idx].components = routed(hit, hit)
            elif local_ready:
                self._defer(slots[idx], record)
            elif stage.global_model is not None:
                # cold global route: completed below with one batched
                # order-stable forward over the window's cold misses
                cold_global.append(idx)
            else:
                # cold start with no global model: running-median default
                slots[idx].components = routed(
                    Prediction(
                        exec_time=stage._default.value,
                        source=PredictionSource.DEFAULT,
                    )
                )
        if cold_global:
            predictions = self._global_many([records[i].plan for i in cold_global])
            for idx, prediction in zip(cold_global, predictions):
                slots[idx].components = routed(prediction)
        return slots

    def _global_many(self, plans: List) -> List[Prediction]:
        """Batched global-model fallback, in window order, through the
        model's bit-identical batched forward
        (:meth:`~repro.global_model.GlobalModel.predict_many`)."""
        stage = self.stage
        return stage.global_model.predict_many(plans, stage.instance, n_concurrent=0.0)

    def observe(self, record: QueryRecord) -> None:
        """Apply one execution outcome, in arrival order.

        A retrain triggered here never disturbs the pending window: the
        window holds a frozen snapshot of the pre-retrain ensemble.
        """
        self.stage.observe(record)

    # ------------------------------------------------------------------
    def _defer(
        self, slot: RoutedSlot, record: QueryRecord, cache: Optional[Prediction] = None
    ) -> None:
        generation = self.stage.local.n_retrains
        if self._frozen is not None and self._frozen.generation != generation:
            self.flush()
        if self._frozen is None:
            self._frozen = self.stage.local.frozen()
        self._pending.append(_PendingEntry(slot=slot, record=record, cache=cache))

    def flush(self) -> None:
        """Serve the pending window with one batched ensemble call.

        Completes every deferred slot.  Flushing early (e.g. a serving
        micro-batch boundary) is always safe: the window's ensemble is
        frozen and per-row batched inference is bit-identical to
        per-query inference, so flush points never change results.
        """
        if self._frozen is None:
            return
        stage = self.stage
        cfg = stage.config
        pending, self._pending = self._pending, []
        frozen, self._frozen = self._frozen, None
        features = np.vstack([entry.record.features for entry in pending])
        batch = frozen.predict_batch(features)

        def complete(entry: _PendingEntry, prediction: Prediction, local: Prediction):
            entry.slot.components = RoutedComponents(
                prediction=prediction,
                cache=entry.cache,
                local=local,
                local_ready=True,
                local_generation=frozen.generation,
            )

        #: entries routed to the global model, resolved below with one
        #: batched order-stable forward in window order
        fallback: List[int] = []
        for i, (entry, local_pred) in enumerate(zip(pending, batch)):
            if entry.cache is not None:
                # cache hit: routed (and counted) from the cache already
                complete(entry, entry.cache, local_pred)
                continue
            is_short = local_pred.exec_time < cfg.short_circuit_seconds
            is_certain = local_pred.std < cfg.uncertainty_threshold
            if is_short or is_certain or stage.global_model is None:
                stage._count_routed(local_pred)
                complete(entry, local_pred, local_pred)
            else:
                fallback.append(i)
        if fallback:
            predictions = self._global_many([pending[i].record.plan for i in fallback])
            for i, prediction in zip(fallback, predictions):
                stage._count_routed(prediction)
                complete(pending[i], prediction, batch[i])
