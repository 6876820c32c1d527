"""Parity tests for the batched hot paths.

Every Stage component has one implementation in ``src/``: the batched
entry (``ExecTimeCache.lookup_predictions``, ``BatchRouter.route_batch``,
``GlobalModel.predict_many`` and ``FrozenLocalModel.predict_batch``);
the one-row calls are one-row batches.  This suite holds each batched
entry to an independent per-record reference, bit for bit, in results
*and* cache/counter accounting:

- ``route_batch`` vs :func:`route_per_record`, the per-record routing
  oracle kept here, for every registered scenario's workload (the
  envelope-batched transports are held to the same contract end to end
  by the backend-parity matrix);
- ``lookup_predictions`` (and the precomputed per-entry predictions it
  reads) vs uncounted per-key probes with the counters moved by hand,
  and freshly computed Welford intervals;
- ``predict_many`` vs a one-graph ``DirectedGCN.forward`` per plan with
  the residual-variance interval algebra written out;
- the order-stable batched GCN forward vs one-graph-at-a-time forwards,
  under hypothesis-driven batch-size and order permutations.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ExecTimeCache
from repro.core.config import GlobalModelConfig, StageConfig, fast_profile
from repro.core.interfaces import Prediction, PredictionSource
from repro.core.stage import BatchRouter, RoutedComponents, RoutedSlot, StagePredictor
from repro.global_model import GlobalModelTrainer
from repro.global_model.featurization import record_to_graph
from repro.ml.gcn import DirectedGCN, GraphBatch, PlanGraph, _row_stable_width
from repro.ml.intervals import NOMINAL_CONFIDENCE, welford_interval, z_for
from repro.scenarios import registered_scenarios
from repro.workload import FleetConfig, FleetGenerator

SEED = 13
VOLUME = 0.12
DURATION = 0.8

#: window sizes the batched drivers cycle through — deliberately ragged
#: so batch boundaries land everywhere relative to retrains/evictions
WINDOW_SIZES = (1, 4, 2, 7, 3)


def _windows(records, sizes=WINDOW_SIZES):
    start, i = 0, 0
    while start < len(records):
        size = sizes[i % len(sizes)]
        yield records[start : start + size]
        start += size
        i += 1


def counted_peek(cache, key):
    """One counted cache probe without the batched entry: the uncounted
    ``peek_prediction`` plus the hit or miss it counts."""
    prediction = cache.peek_prediction(key)
    if prediction is None:
        cache.misses += 1
    else:
        cache.hits += 1
    return prediction


def global_per_plan(model, plan, instance):
    """One global answer without any ``predict_*`` entry: a one-graph
    ``DirectedGCN.forward``, then the residual-variance interval (a
    log-space half-width ``z * sqrt(residual_variance)`` mapped through
    the inverse transform, the lower bound clamped at zero)."""
    graph = model._scale_graph(record_to_graph(plan, instance, 0.0))
    log_pred = model.gcn.forward(GraphBatch([graph], aggregation=model.gcn.aggregation))
    model.gcn.release()
    seconds = model.transform.inverse(log_pred)[0]
    low = high = seconds
    if model.residual_variance > 0.0:
        half = z_for(NOMINAL_CONFIDENCE) * float(np.sqrt(model.residual_variance))
        low = max(model.transform.inverse(log_pred - half)[0], 0.0)
        high = model.transform.inverse(log_pred + half)[0]
    return Prediction(
        exec_time=float(seconds),
        variance=model.residual_variance,
        source=PredictionSource.GLOBAL,
        interval_low=float(low),
        interval_high=float(high),
    )


def route_per_record(router, record):
    """The per-record routing oracle: route one query the way
    ``router.route_batch([record])`` must, without calling it.

    The cache is probed with :func:`counted_peek`, a cold start is
    answered by :func:`global_per_plan` (or the running-median default),
    and an ensemble-bound route — or, with component collection on, a
    cache hit — joins the router's window and completes at its flush.
    """
    stage = router.stage
    local_ready = stage.local.is_ready
    local_generation = stage.local.n_retrains

    def routed(prediction, cache=None):
        stage._count_routed(prediction)
        return RoutedSlot(
            RoutedComponents(
                prediction=prediction,
                cache=cache,
                local=None,
                local_ready=local_ready,
                local_generation=local_generation,
            )
        )

    hit = counted_peek(stage.cache, stage.cache.key_for(record.features))
    if hit is not None:
        if not (router.collect_cache_hit_local and local_ready):
            return routed(hit, hit)
        stage._count_routed(hit)
    elif not local_ready:
        if stage.global_model is None:
            return routed(
                Prediction(exec_time=stage._default.value, source=PredictionSource.DEFAULT)
            )
        return routed(global_per_plan(stage.global_model, record.plan, stage.instance))
    slot = RoutedSlot()
    router._defer(slot, record, cache=hit)
    return slot


def _make_stage(trace, global_model=None, config=None):
    return StagePredictor(
        trace.instance,
        global_model=global_model,
        config=config or fast_profile(),
        random_state=0,
    )


def _drive(stage, records, batched: bool, collect: bool = False):
    """Replay predict-window/observe-window rounds through one router.

    Both drivers apply the exact same op stream — a window of predicts,
    a flush, then that window's observes — differing only in whether the
    predicts go through ``route_batch`` or the :func:`route_per_record`
    oracle.  Returns each slot's components and whether the slot was
    ready before the flush (a slot is ready exactly when complete).
    """
    router = BatchRouter(stage, collect_cache_hit_local=collect)
    components, ready = [], []
    for window in _windows(records):
        window = list(window)
        if batched:
            slots = router.route_batch(window)
        else:
            slots = [route_per_record(router, record) for record in window]
        ready.extend(slot.ready for slot in slots)
        router.flush()
        components.extend(slot.components for slot in slots)
        for record in window:
            router.observe(record)
    return components, ready


def _accounting(stage):
    return (
        stage.cache.hits,
        stage.cache.misses,
        stage.cache.evictions,
        len(stage.cache),
        {source: count for source, count in stage.source_counts.items()},
        list(stage.interval_width_bins),
        stage.local.n_retrains,
    )


def _assert_drives_identical(a, b):
    """Two :func:`_drive` outputs: the same components and the same
    slots ready before the flush."""
    _assert_components_identical(a[0], b[0])
    assert a[1] == b[1]


def _assert_components_identical(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.prediction.source == right.prediction.source
        assert left.prediction.exec_time == right.prediction.exec_time
        assert left.prediction.interval_low == right.prediction.interval_low
        assert left.prediction.interval_high == right.prediction.interval_high
        assert (left.cache is None) == (right.cache is None)
        assert (left.local is None) == (right.local is None)
        if left.local is not None:
            assert left.local.exec_time == right.local.exec_time
            assert left.local.interval_low == right.local.interval_low
            assert left.local.interval_high == right.local.interval_high
        assert left.local_ready == right.local_ready
        assert left.local_generation == right.local_generation


# ---------------------------------------------------------------------------
# route_batch vs the per-record oracle, across every registered scenario
# ---------------------------------------------------------------------------
class TestRouteBatchParity:
    @pytest.mark.parametrize(
        "scenario", registered_scenarios(), ids=lambda s: s.name
    )
    def test_bit_identical_for_every_scenario(self, scenario):
        fleet = FleetConfig(seed=SEED, volume_scale=VOLUME, scenario=scenario.config)
        gen = FleetGenerator(fleet)
        trace = gen.generate_trace(gen.sample_instance(0), DURATION)
        records = [trace[i] for i in range(len(trace))]
        stage_a, stage_b = _make_stage(trace), _make_stage(trace)
        per_op = _drive(stage_a, records, batched=False)
        batched = _drive(stage_b, records, batched=True)
        _assert_drives_identical(per_op, batched)
        assert _accounting(stage_a) == _accounting(stage_b)

    def test_collect_cache_hit_local_mode_identical(self):
        """Replay component collection defers extra (uncounted) local
        inference on cache hits — the batched path must defer exactly
        the same work, and leave those slots unready until the flush
        completes them.  Instance 3 trains its ensemble and then hits
        the cache, so collection runs."""
        gen = FleetGenerator(FleetConfig(seed=SEED, volume_scale=VOLUME))
        trace = gen.generate_trace(gen.sample_instance(3), DURATION)
        records = [trace[i] for i in range(len(trace))]
        stage_a, stage_b = _make_stage(trace), _make_stage(trace)
        per_op = _drive(stage_a, records, batched=False, collect=True)
        batched = _drive(stage_b, records, batched=True, collect=True)
        _assert_drives_identical(per_op, batched)
        assert _accounting(stage_a) == _accounting(stage_b)
        components, ready = batched
        collected = [i for i, c in enumerate(components) if c.cache is not None and c.local_ready]
        assert collected, "the trace must hit the cache once the ensemble is ready"
        for i in collected:
            assert not ready[i] and components[i].local is not None


# ---------------------------------------------------------------------------
# with a global model: batched fallbacks and cold routes
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def global_fleet():
    gen = FleetGenerator(FleetConfig(seed=SEED, volume_scale=0.2))
    train = gen.generate_fleet_traces(3, 1.0, start_index=40)
    trace = gen.generate_trace(gen.sample_instance(0), DURATION)
    cfg = GlobalModelConfig(
        hidden_dim=24, n_conv_layers=2, epochs=2, max_queries_per_instance=80
    )
    return GlobalModelTrainer(cfg).train(train), trace


class TestGlobalFallbackParity:
    def test_route_batch_with_global_model_identical(self, global_fleet):
        """Every global route — the cold-start kind and the uncertain-
        local kind — must take the batched forward without moving a bit.
        Thresholds are pinned so escalation actually happens."""
        global_model, trace = global_fleet
        config = fast_profile()
        config = StageConfig(
            cache=config.cache,
            pool=config.pool,
            local=config.local,
            short_circuit_seconds=0.0,
            uncertainty_threshold=0.0,
        )
        records = [trace[i] for i in range(len(trace))]
        stage_a = _make_stage(trace, global_model=global_model, config=config)
        stage_b = _make_stage(trace, global_model=global_model, config=config)
        per_op = _drive(stage_a, records, batched=False)
        batched = _drive(stage_b, records, batched=True)
        _assert_drives_identical(per_op, batched)
        assert _accounting(stage_a) == _accounting(stage_b)
        assert stage_a.source_counts[PredictionSource.GLOBAL] > 0

    def test_predict_many_bitwise_equals_predict_loop(self, global_fleet):
        """``predict_many`` — and ``predict``, its one-plan batch — must
        carry exactly the floats of the per-plan oracle."""
        global_model, trace = global_fleet
        plans = [trace[i].plan for i in range(min(len(trace), 60))]
        many = global_model.predict_many(plans, trace.instance, n_concurrent=0.0)
        for prediction, plan in zip(many, plans):
            want = global_per_plan(global_model, plan, trace.instance)
            one = global_model.predict(plan, trace.instance, n_concurrent=0.0)
            for got in (prediction, one):
                assert got.exec_time == want.exec_time
                assert got.variance == want.variance
                assert got.interval_low == want.interval_low
                assert got.interval_high == want.interval_high
                assert got.source == want.source

    def test_interval_matches_reference_arithmetic(self, global_fleet):
        """Without a residual-variance head, ``predict_many`` must still
        carry exactly the floats of the algebra written out in
        :func:`global_per_plan`, its intervals collapsed onto the points
        the headed model answers (the headed case is the test above)."""
        global_model, trace = global_fleet
        assert global_model.residual_variance > 0.0
        flat = copy.copy(global_model)
        flat.residual_variance = 0.0
        plans = [r.plan for r in list(trace)[:20]]
        headed = global_model.predict_many(plans, trace.instance, n_concurrent=0.0)
        for got, plan, point in zip(flat.predict_many(plans, trace.instance), plans, headed):
            assert got == global_per_plan(flat, plan, trace.instance)
            assert got.exec_time == got.interval_low == got.interval_high == point.exec_time

    def test_predict_many_empty(self, global_fleet):
        global_model, trace = global_fleet
        assert global_model.predict_many([], trace.instance) == []


# ---------------------------------------------------------------------------
# vectorized cache lookups
# ---------------------------------------------------------------------------
class TestVectorizedCacheParity:
    def test_batch_lookup_matches_sequential_counted_lookups(self):
        rng = np.random.default_rng(0)
        a = ExecTimeCache(capacity=24)
        b = ExecTimeCache(capacity=24)
        keys = [f"k{i:02d}" for i in range(40)]
        for _ in range(250):
            for _ in range(int(rng.integers(0, 4))):
                key = keys[int(rng.integers(len(keys)))]
                exec_time = float(rng.exponential(10.0))
                a.observe(key, exec_time)
                b.observe(key, exec_time)
            probe = [
                keys[int(rng.integers(len(keys)))]
                for _ in range(int(rng.integers(1, 9)))
            ]
            want = [counted_peek(a, key) for key in probe]
            got = b.lookup_predictions(probe)
            for w, g in zip(want, got):
                assert (w is None) == (g is None)
                if w is not None:
                    assert w.exec_time == g.exec_time
                    assert w.interval_low == g.interval_low
                    assert w.interval_high == g.interval_high
        assert (a.hits, a.misses, a.evictions, len(a)) == (
            b.hits,
            b.misses,
            b.evictions,
            len(b),
        )

    def test_precomputed_prediction_matches_reference_arithmetic(self):
        """The per-entry answer cached at observe time must carry
        exactly the floats the old compute-on-lookup path produced."""
        cache = ExecTimeCache(capacity=16)
        rng = np.random.default_rng(1)
        for _ in range(200):
            key = f"k{int(rng.integers(12))}"
            cache.observe(key, float(rng.exponential(5.0)))
            stats = cache.stats_for(key)
            prediction = cache.peek_prediction(key)
            point = cache.alpha * stats.mean + (1.0 - cache.alpha) * stats.last
            low, high = welford_interval(
                point, stats.count, stats.sample_variance, NOMINAL_CONFIDENCE
            )
            assert prediction.exec_time == point == cache.peek(key)
            assert prediction.interval_low == low
            assert prediction.interval_high == high

    def test_eviction_drops_precomputed_prediction(self):
        cache = ExecTimeCache(capacity=2)
        for i in range(3):
            cache.observe(f"k{i}", float(i + 1))
        assert cache.peek_prediction("k0") is None
        assert cache.lookup_predictions(["k0", "k1", "k2"])[0] is None
        assert cache.evictions == 1

    def test_clear_drops_precomputed_predictions(self):
        cache = ExecTimeCache(capacity=4)
        cache.observe("k", 1.0)
        cache.clear()
        assert cache.peek_prediction("k") is None


# ---------------------------------------------------------------------------
# order-stable batched GCN forward
# ---------------------------------------------------------------------------
def _random_plan_graph(rng, n_feat=9, n_sys=5):
    n = int(rng.integers(1, 7))
    features = rng.standard_normal((n, n_feat))
    pairs = [(child, int(rng.integers(0, child))) for child in range(1, n)]
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2).T.reshape(2, -1)
    return PlanGraph(
        node_features=features,
        edges=edges,
        root=0,
        sys_features=rng.standard_normal(n_sys),
    )


class TestStableForwardProperty:
    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        hidden=st.sampled_from([7, 10, 16, 24]),
        aggregation=st.sampled_from(["sum", "mean"]),
    )
    def test_batched_equals_per_graph_under_size_and_order(
        self, seed, hidden, aggregation
    ):
        rng = np.random.default_rng(seed)
        gcn = DirectedGCN(
            9,
            5,
            hidden_dim=hidden,
            n_conv_layers=2,
            dropout=0.1,
            aggregation=aggregation,
            random_state=int(seed % 997),
        )
        graphs = [_random_plan_graph(rng) for _ in range(int(rng.integers(1, 16)))]
        solo = np.array(
            [
                gcn.forward(GraphBatch([g], aggregation=aggregation), training=False)[0]
                for g in graphs
            ]
        )
        # whole-batch == solo, bit for bit
        assert (gcn.predict_graphs(graphs) == solo).all()
        # order permutation
        perm = rng.permutation(len(graphs))
        permuted = gcn.predict_graphs([graphs[i] for i in perm])
        assert (permuted == solo[perm]).all()
        # batch-size permutation: any split point gives the same bits
        if len(graphs) > 1:
            cut = int(rng.integers(1, len(graphs)))
            rejoined = np.concatenate(
                [
                    gcn.predict_graphs(graphs[:cut]),
                    gcn.predict_graphs(graphs[cut:]),
                ]
            )
            assert (rejoined == solo).all()

    def test_row_stability_predicate_matches_blas(self):
        """The width predicate the stable forward relies on, measured
        directly against the linked BLAS: stable widths must reproduce
        full-matrix rows from any stacking; for at least one unstable
        width the gemm really does move bits (this catches a BLAS swap
        that breaks the batched forward's premise)."""
        rng = np.random.default_rng(3)

        def block_mismatches(n, trials=40):
            bad = 0
            for _ in range(trials):
                m_rows = int(rng.integers(4, 80))
                k = int(rng.integers(2, 48))
                X = rng.standard_normal((m_rows, k))
                W = rng.standard_normal((k, n))
                full = X @ W
                size = int(rng.integers(2, m_rows + 1))
                start = int(rng.integers(0, m_rows - size + 1))
                if not ((X[start : start + size] @ W) == full[start : start + size]).all():
                    bad += 1
            return bad

        for width in (4, 5, 8, 16, 24, 64):
            assert _row_stable_width(width)
            assert block_mismatches(width) == 0, f"width {width} must be stable"
        for width in (1, 2, 3, 9, 10, 11):
            assert not _row_stable_width(width)
