"""Workload forecasting: determinism, pre-warm, troughs, parity.

The forecaster's contract has two halves.  *Mechanism*: arrival-rate
and template-mix forecasts are exact functions of the observed
``(arrival_time, cache_key)`` stream — seasonal folding, coverage
normalization, the per-template periodicity ("due") model behind
hot-key pre-warming, trough detection, and the bounded retrain
deferral.  *Determinism*: every forecast-driven decision rides each
instance's sequenced op stream, so forecast-on replays are
bit-identical across ``n_jobs``, instance-order permutations, and
every serving tier (direct / service / gateway / socket) — this file
runs inside CI's fork/spawn ``parallel-parity`` job to pin that across
multiprocessing start methods too.
"""

import pickle
from dataclasses import replace

import pytest

# the one replay-parity check every parity suite shares
from replay_parity import assert_replays_identical

from repro.core.config import (
    CacheConfig,
    ForecastConfig,
    GatewayConfig,
    LocalModelConfig,
    ReplayBackend,
    StageConfig,
    fast_profile,
)
from repro.core.stage import StagePredictor
from repro.forecast import WorkloadForecast
from repro.harness import FleetSweeper
from repro.service import PredictionService
from repro.workload import FleetConfig, FleetGenerator
from repro.workload.seeding import derive_seed

SEED = 7
VOLUME = 0.12
DURATION = 1.0
N_INSTANCES = 3

FLEET = FleetConfig(seed=SEED, volume_scale=VOLUME)

#: one forecast bin, in seconds, at the default 30-minute bucket
BIN_S = 1800.0


def forecast_profile(**forecast_overrides) -> StageConfig:
    """The forecast-on test profile: a small cache (so pre-warming has
    eviction pressure to push against) over the fast profile."""
    return replace(
        fast_profile(),
        cache=CacheConfig(capacity=32),
        forecast=ForecastConfig(**forecast_overrides),
    )


def deferral_profile(**forecast_overrides) -> StageConfig:
    """Forecast profile whose local model actually retrains at this
    workload's scale: the dedup rule admits only cache misses to the
    pool, and the test traces are repetition-heavy (a couple dozen
    misses per instance), so the fast profile's 30+150 thresholds would
    never fire a warm retrain here."""
    forecast_overrides.setdefault("defer_retrains", True)
    return replace(
        forecast_profile(**forecast_overrides),
        local=LocalModelConfig(
            n_members=2,
            n_estimators=10,
            max_depth=2,
            min_train_size=8,
            retrain_interval=4,
        ),
    )


def make_sweeper(stage_config, **kwargs):
    return FleetSweeper(
        fleet_config=kwargs.pop("fleet_config", FLEET),
        stage_config=stage_config,
        random_state=0,
        **kwargs,
    )


@pytest.fixture(scope="module")
def traces():
    gen = FleetGenerator(FLEET)
    return [
        gen.generate_trace(gen.sample_instance(i), DURATION) for i in range(N_INSTANCES)
    ]


@pytest.fixture(scope="module")
def forecast_replays(traces):
    """The reference forecast-on replays (sequential, direct tier)."""
    return make_sweeper(forecast_profile()).replay_traces(traces)


# ---------------------------------------------------------------------------
# forecaster mechanism
# ---------------------------------------------------------------------------
class TestArrivalRateForecaster:
    def test_bin_geometry(self):
        forecast = WorkloadForecast(ForecastConfig())
        assert forecast.n_bins == 48  # 24h / 30min
        assert forecast.bin_seconds == BIN_S
        assert forecast.bin_index(BIN_S * 3 + 1.0) == 3
        assert forecast.phase_of(BIN_S * 50) == 2  # folds onto the cycle

    def test_expected_count_uses_exact_coverage(self):
        """A phase seen on every covered day forecasts its per-day mean;
        half-covered cycles must not dilute it."""
        forecast = WorkloadForecast(ForecastConfig())
        # phase 0 gets 2 arrivals on day 0 and 4 on day 1
        for day, n in ((0, 2), (1, 4)):
            for i in range(n):
                forecast.observe(day * 86_400.0 + i)
        # span covers phase 0 twice (both days), phase 1 once
        assert forecast.expected_rate(0.0) == pytest.approx(3.0)
        assert forecast.arrivals.coverage(0) == 2

    def test_trough_detection(self):
        """A flat-vs-quiet cycle: the quiet phase is a trough, the busy
        one is not, and a cold forecaster never reports troughs."""
        config = ForecastConfig(min_history=10, trough_fraction=0.5)
        forecast = WorkloadForecast(config)
        assert not forecast.is_trough(0.0)  # cold
        # bins 0..23 busy (10 arrivals each), bins 24..47 near-silent
        for b in range(48):
            n = 10 if b < 24 else 1
            for i in range(n):
                forecast.observe(b * BIN_S + i)
        assert forecast.warm
        assert not forecast.is_trough(0.0)
        assert forecast.is_trough(30 * BIN_S)

    def test_next_trough_lands_on_a_quiet_bin(self):
        config = ForecastConfig(min_history=10, trough_fraction=0.5)
        forecast = WorkloadForecast(config)
        for b in range(48):
            for i in range(10 if b < 24 else 1):
                forecast.observe(b * BIN_S + i)
        start = forecast.next_trough(0.0)
        assert start is not None
        assert forecast.is_trough(start)
        assert start > 0.0
        assert forecast.next_trough(0.0, search_bins=1) is None  # bin 1 is busy

    def test_forecast_load_cold_is_zero(self):
        forecast = WorkloadForecast(ForecastConfig(min_history=100))
        forecast.observe(0.0)
        assert forecast.forecast_load() == 0.0


class TestDueModel:
    """The per-template periodicity model behind hot-key pre-warming."""

    def observe_every(self, forecast, key, period_s, until_s, start_s=0.0):
        t = start_s
        while t < until_s:
            forecast.observe(t, key)
            t += period_s

    def test_periodic_key_is_due_next_bin(self):
        forecast = WorkloadForecast(ForecastConfig())
        self.observe_every(forecast, "dash", 600.0, 4 * BIN_S)
        assert "dash" in forecast.hot_keys(4 * BIN_S)

    def test_one_shot_keys_never_qualify(self):
        forecast = WorkloadForecast(ForecastConfig())
        forecast.observe(10.0, "adhoc")
        self.observe_every(forecast, "dash", 600.0, 2 * BIN_S)
        assert forecast.hot_keys(2 * BIN_S) == ["dash"]

    def test_retired_keys_age_out(self):
        """A key idle far beyond its mean gap stops forecasting — a
        rotated dashboard variant must not be pre-warmed forever."""
        forecast = WorkloadForecast(ForecastConfig())
        self.observe_every(forecast, "old", 600.0, BIN_S)
        # alive window is 4 * gap + one bin ~= 4200s past last arrival
        assert "old" in forecast.hot_keys(BIN_S)
        assert "old" not in forecast.hot_keys(4 * BIN_S)

    def test_slow_periodic_key_waits_for_its_bin(self):
        """A 3-hour-periodic key is hot only when its arrival is within
        the due lookahead — not in every intervening bin."""
        forecast = WorkloadForecast(ForecastConfig())
        self.observe_every(forecast, "hourly3", 6 * BIN_S, 24 * BIN_S + 1)
        # last arrival at t=24 bins; next expected at t=30 bins
        assert "hourly3" not in forecast.hot_keys(26 * BIN_S)
        assert "hourly3" in forecast.hot_keys(29 * BIN_S)

    def test_soonest_due_first_with_key_tiebreak(self):
        forecast = WorkloadForecast(ForecastConfig())
        self.observe_every(forecast, "b", 500.0, 2 * BIN_S)
        self.observe_every(forecast, "a", 500.0, 2 * BIN_S)
        self.observe_every(forecast, "late", 2000.0, 2 * BIN_S)
        hot = forecast.hot_keys(2 * BIN_S)
        # a and b are both overdue (clamped to the bin start): key order;
        # late's next arrival is genuinely later
        assert hot == ["a", "b", "late"]

    def test_top_templates_budget(self):
        forecast = WorkloadForecast(ForecastConfig(top_templates=2))
        for i in range(8):
            self.observe_every(forecast, f"k{i}", 600.0, 2 * BIN_S)
        assert len(forecast.hot_keys(2 * BIN_S)) == 2

    def test_prune_bounds_tracked_keys(self):
        config = ForecastConfig(max_keys_tracked=16)
        forecast = WorkloadForecast(config)
        for i in range(100):
            forecast.observe(float(i), f"k{i}")
        assert len(forecast.mix.key_stats) <= 16
        # recurring keys survive the prune over one-shot churn
        recurring = WorkloadForecast(config)
        for i in range(100):
            recurring.observe(float(i), "keeper" if i % 2 else f"churn{i}")
        assert "keeper" in recurring.mix.key_stats


class TestOfflineFit:
    def test_fit_matches_online_observes(self):
        events = [(i * 100.0, f"k{i % 5}") for i in range(200)]
        online = WorkloadForecast(ForecastConfig(), seed=3)
        for t, key in events:
            online.observe(t, key)
        fitted = WorkloadForecast(ForecastConfig(), seed=3).fit(events)
        assert pickle.dumps(online) == pickle.dumps(fitted)

    def test_oversized_fit_subsamples_deterministically(self):
        events = [(i * 10.0, f"k{i % 7}") for i in range(500)]
        config = ForecastConfig(max_fit_events=100)
        a = WorkloadForecast(config, seed=5).fit(events)
        b = WorkloadForecast(config, seed=5).fit(events)
        assert a.n_observed == b.n_observed == 100
        assert pickle.dumps(a) == pickle.dumps(b)
        # a different seed keeps a different subsample
        c = WorkloadForecast(config, seed=6).fit(events)
        assert pickle.dumps(a) != pickle.dumps(c)

    def test_fit_trace_keys_like_the_cache(self, traces):
        forecast = WorkloadForecast(ForecastConfig(), seed=1).fit_trace(traces[0])
        assert forecast.n_observed == len(traces[0])
        assert forecast.mix.key_stats  # real keys tracked


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"period_days": -1},
            {"top_templates": -1},
            {"archive_capacity": -1},
            {"trough_fraction": 1.5},
            {"max_retrain_defer_bins": 0},
            {"min_history": -1},
            {"max_fit_events": 0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ForecastConfig(**kwargs)


# ---------------------------------------------------------------------------
# determinism: the heart of satellite 4 (also runs under fork + spawn in
# CI's parallel-parity job)
# ---------------------------------------------------------------------------
class TestForecastDeterminism:
    def test_same_prefix_bit_identical_forecasts(self, traces):
        """Two forecasters fed the same trace prefix agree on every
        byte of state — and therefore on every forecast they emit."""
        seed = derive_seed(traces[0].instance.seed, "forecast")
        a = WorkloadForecast(ForecastConfig(), seed=seed).fit_trace(traces[0])
        b = WorkloadForecast(ForecastConfig(), seed=seed).fit_trace(traces[0])
        assert pickle.dumps(a) == pickle.dumps(b)
        t = traces[0][-1].arrival_time
        assert a.hot_keys(t) == b.hot_keys(t)
        assert a.forecast_load() == b.forecast_load()

    def test_forecast_on_replay_is_reproducible(self, traces, forecast_replays):
        again = make_sweeper(forecast_profile()).replay_traces(traces)
        for a, b in zip(forecast_replays, again):
            assert_replays_identical(a, b)

    def test_forecast_stats_present_and_live(self, forecast_replays):
        """The forecast keys ride stage_stats on every replay; with the
        forecaster on, pre-warming actually acted on this workload.
        (``forecast_load`` can legitimately be 0.0 per instance — a
        nightly-ETL-only workload forecasts nothing for the bins right
        after its last arrival — but the fleet must report signal.)"""
        total_acts, total_load = 0, 0.0
        for replay in forecast_replays:
            stats = replay.stage_stats
            for key in (
                "forecast_load",
                "n_prewarm_touches",
                "n_prewarm_restores",
                "n_retrain_deferrals",
                "n_trough_retrains",
            ):
                assert key in stats
            assert stats["forecast_load"] >= 0.0
            total_load += stats["forecast_load"]
            total_acts += stats["n_prewarm_touches"] + stats["n_prewarm_restores"]
        assert total_load > 0.0
        assert total_acts > 0

    def test_forecast_off_reports_zeros(self, traces):
        replay = make_sweeper(fast_profile()).replay_traces(traces[:1])[0]
        assert replay.stage_stats["forecast_load"] == 0.0
        assert replay.stage_stats["n_prewarm_touches"] == 0
        assert replay.stage_stats["n_prewarm_restores"] == 0

    def test_parallel_jobs_bit_identical(self, traces, forecast_replays):
        parallel = make_sweeper(forecast_profile(), n_jobs=2).replay_traces(traces)
        for a, b in zip(forecast_replays, parallel):
            assert_replays_identical(a, b)

    def test_instance_order_permutation_bit_identical(self, forecast_replays):
        sweeper = make_sweeper(forecast_profile(), n_jobs=2)
        permuted = sweeper.replay_indices([2, 0, 1], DURATION)
        by_id = {r.instance_id: r for r in permuted}
        for reference in forecast_replays:
            assert_replays_identical(reference, by_id[reference.instance_id])


class TestBackendParity:
    """Forecast-on replays are tier-invariant: the pre-warm, deferral
    and forecast accounting land at identical op-stream positions
    whether ops arrive directly, through the micro-batching service, a
    sharded gateway, or real TCP connections."""

    @pytest.mark.parametrize(
        "backend",
        [
            pytest.param(ReplayBackend(mode="service", clients=2), id="service"),
            pytest.param(
                ReplayBackend(
                    mode="gateway", clients=2, gateway=GatewayConfig(n_shards=2)
                ),
                id="gateway",
            ),
            pytest.param(
                ReplayBackend(
                    mode="socket", clients=2, gateway=GatewayConfig(n_shards=2)
                ),
                id="socket",
            ),
        ],
    )
    def test_tier_matches_direct(self, traces, forecast_replays, backend):
        via = make_sweeper(forecast_profile(), backend=backend).replay_traces(traces)
        for direct, replay in zip(forecast_replays, via):
            assert_replays_identical(direct, replay)


# ---------------------------------------------------------------------------
# trough-scheduled retrains
# ---------------------------------------------------------------------------
class TestRetrainDeferral:
    def test_deferral_accounting(self, traces):
        """With deferral on, warm retrains wait (deferral counter moves)
        and eventually run (trough or bound) — never silently dropped."""
        replays = make_sweeper(deferral_profile()).replay_traces(traces)
        stats = [r.stage_stats for r in replays]
        assert sum(s["n_local_retrains"] for s in stats) > 0
        moved = sum(s["n_retrain_deferrals"] + s["n_trough_retrains"] for s in stats)
        assert moved > 0
        for s in stats:
            # every released trough retrain is also in the retrain total
            assert s["n_trough_retrains"] <= s["n_local_retrains"]

    def test_deferral_bound_is_respected(self, traces):
        """A stage whose forecast never finds a trough still retrains
        within ``max_retrain_defer_bins`` of becoming due."""
        config = deferral_profile(
            trough_fraction=0.0,  # nothing ever counts as a trough
            max_retrain_defer_bins=2,
            min_history=1,
        )
        stage = StagePredictor(traces[0].instance, config=config, random_state=0)
        for record in traces[0]:
            stage.observe(record)
        assert stage.local.n_retrains > 1  # warm retrains did run
        assert stage.n_trough_retrains > 0  # released by the bound
        assert stage.n_retrain_deferrals > 0  # after having been held


# ---------------------------------------------------------------------------
# the maintenance-window recommendation
# ---------------------------------------------------------------------------
class TestMaintenanceWindow:
    def test_cold_service_recommends_nothing(self, traces):
        with PredictionService(
            traces[0].instance, stage_config=forecast_profile()
        ) as service:
            assert service.maintenance_window() is None

    def test_forecast_off_recommends_nothing(self, traces):
        with PredictionService(
            traces[0].instance, stage_config=fast_profile()
        ) as service:
            assert service.maintenance_window() is None

    def test_window_lands_in_a_trough(self, traces):
        trace = traces[0]
        with PredictionService(
            trace.instance,
            stage_config=forecast_profile(min_history=1),
        ) as service:
            for i, record in enumerate(trace):
                service.observe(record)
                if i % 200 == 0:
                    service.drain()
            service.drain()
            window = service.maintenance_window()
            stage = service.stage
        if window is not None:
            assert window["bin_seconds"] == BIN_S
            assert stage.forecast.is_trough(window["start_s"])
            assert window["start_s"] > trace[-1].arrival_time - BIN_S
