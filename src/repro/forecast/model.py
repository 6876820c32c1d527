"""Per-instance workload forecasters: arrival rate and template mix.

The forecaster is the proactive half of the serving story (ROADMAP
track "Workload forecasting and proactive control").  It folds an
instance's arrival stream onto a seasonal cycle of fixed-width time
bins and keeps two views of history:

- :class:`ArrivalRateForecaster` — how many queries each phase bin of
  the cycle has seen, normalized by how often the observation span has
  covered that bin.  Answers "how busy will the next half hour be?"
  (:meth:`~WorkloadForecast.forecast_load`) and "is now a trough?"
  (:meth:`~WorkloadForecast.is_trough`).
- :class:`TemplateMixForecaster` — which cache keys recur and when
  each is *due* to recur next (a per-template periodicity model over
  observed inter-arrival gaps).  Answers "which templates are worth
  keeping warm right now?" (:meth:`~WorkloadForecast.hot_keys`).

Determinism contract: forecast state is a pure function of the
observed ``(arrival_time, cache_key)`` stream — arrival times ride the
sequenced op stream, never wall-clock — so every consumer decision
(pre-warm, retrain deferral, rebalance load) is bit-identical across
``n_jobs``, backend tiers and multiprocessing start methods.  The only
random draw is the offline fit's history subsample, seeded with
``derive_seed(seed, "fit-subsample")`` from the instance-derived seed,
like every other stream in the repo.  All state is plain picklable
containers, so forecasters ride service snapshots and shard migrations
bit-for-bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.workload.arrival import SECONDS_PER_DAY
from repro.workload.seeding import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import ForecastConfig

#: width of one forecast time bin (minutes)
BUCKET_MINUTES = 30.0
#: a key must recur at least this often to count as forecast-hot
#: (one-shot ad-hoc queries are never worth pre-warming)
MIN_KEY_COUNT = 2
#: a key is due when its predicted next arrival lands within this many
#: bins of the bin being pre-warmed
DUE_LOOKAHEAD_BINS = 2
#: a key idle longer than this multiple of its mean inter-arrival gap
#: (plus one bin of slack) is retired from the hot-key forecast
ALIVE_GAP_MULTIPLE = 4.0
#: bins of lookahead summed into the rebalancer's forecast load
HORIZON_BINS = 4

__all__ = ["ArrivalRateForecaster", "TemplateMixForecaster", "WorkloadForecast"]


class ArrivalRateForecaster:
    """Seasonal-folded arrival counts over fixed-width time bins.

    ``bin_seconds``-wide bins are folded onto a ``period_days`` cycle:
    absolute bin ``b`` lands in phase ``b % n_bins``.  The expected
    per-bin count of a phase is its observed count divided by how many
    times the observation span has covered that phase — exact coverage,
    not an average, so half-seen cycles do not dilute the estimate.
    """

    def __init__(self, config: "ForecastConfig"):
        self.bin_seconds = BUCKET_MINUTES * 60.0
        self.n_bins = max(
            1, int(round(config.period_days * SECONDS_PER_DAY / self.bin_seconds))
        )
        self.phase_counts: List[int] = [0] * self.n_bins
        self.total = 0
        self.first_bin: Optional[int] = None
        self.last_bin: Optional[int] = None

    # ------------------------------------------------------------------
    def bin_index(self, time_s: float) -> int:
        """Absolute bin index of an arrival time."""
        return int(time_s // self.bin_seconds)

    def phase_of(self, time_s: float) -> int:
        """Phase bin (position in the seasonal cycle) of an arrival."""
        return self.bin_index(time_s) % self.n_bins

    def observe(self, time_s: float) -> None:
        b = self.bin_index(time_s)
        if self.first_bin is None or b < self.first_bin:
            self.first_bin = b
        if self.last_bin is None or b > self.last_bin:
            self.last_bin = b
        self.phase_counts[b % self.n_bins] += 1
        self.total += 1

    # ------------------------------------------------------------------
    @property
    def span_bins(self) -> int:
        """Bins covered by the observation span (0 before any observe)."""
        if self.first_bin is None:
            return 0
        return self.last_bin - self.first_bin + 1

    def coverage(self, phase: int) -> int:
        """How many absolute bins of the span fold onto ``phase``."""
        if self.first_bin is None:
            return 0
        span = self.span_bins
        full, rest = divmod(span, self.n_bins)
        return full + (1 if (phase - self.first_bin) % self.n_bins < rest else 0)

    def expected_count(self, phase: int) -> float:
        """Expected arrivals in one bin of ``phase`` (0.0 when unseen)."""
        coverage = self.coverage(phase)
        if coverage == 0:
            return 0.0
        return self.phase_counts[phase] / coverage

    @property
    def mean_per_bin(self) -> float:
        """Mean arrivals per bin over the observation span."""
        span = self.span_bins
        return self.total / span if span else 0.0


class TemplateMixForecaster:
    """Which cache keys recur, and when each is due to recur next.

    Tracks per key (the hash of a query's flattened feature vector) its
    observation count, first- and last-seen arrival times, plus how the
    mix folds onto phase bins.  The hot-key forecast is a per-template
    periodicity model: a recurring key's mean inter-arrival gap
    predicts its next arrival, so a bin's forecast-hot set is the keys
    *due* in it — not merely the globally frequent ones, which plain
    LRU already retains.  All containers are plain dicts in observation
    order, so pruning and ranking are deterministic.
    """

    def __init__(self, config: "ForecastConfig", n_bins: int):
        self.max_keys_tracked = config.max_keys_tracked
        self.n_bins = n_bins
        #: key -> [count, first_seen_s, last_seen_s]
        self.key_stats: Dict[str, List[float]] = {}
        #: phase bin -> key -> count (the seasonal template mix)
        self.phase_keys: List[Dict[str, int]] = [dict() for _ in range(n_bins)]

    def observe(self, phase: int, time_s: float, key: str) -> None:
        bin_counts = self.phase_keys[phase]
        bin_counts[key] = bin_counts.get(key, 0) + 1
        entry = self.key_stats.get(key)
        if entry is None:
            self.key_stats[key] = [1, time_s, time_s]
            if len(self.key_stats) > self.max_keys_tracked:
                self._prune()
        else:
            entry[0] += 1
            entry[2] = max(entry[2], time_s)

    def _prune(self) -> None:
        """Bound the key universe: drop the rarest, longest-idle keys."""
        target = self.max_keys_tracked // 2
        victims = sorted(
            self.key_stats,
            key=lambda key: (self.key_stats[key][0], self.key_stats[key][2], key),
        )[: len(self.key_stats) - target]
        dropped = set(victims)
        for key in victims:
            del self.key_stats[key]
        for bin_counts in self.phase_keys:
            for key in [k for k in bin_counts if k in dropped]:
                del bin_counts[key]

    def mix(self, phase: int) -> Dict[str, int]:
        """The observed template mix of one phase bin (key -> count)."""
        return dict(self.phase_keys[phase])

    def hot_keys(self, bin_start_s: float, bin_seconds: float, k: int) -> List[str]:
        """The keys due to recur in the bin starting at ``bin_start_s``.

        A key qualifies when it has recurred (``count >=
        MIN_KEY_COUNT``), is still *alive* (idle for less than
        ``ALIVE_GAP_MULTIPLE`` of its mean gap plus one bin — retired
        dashboard variants forecast nothing), and its predicted next
        arrival — last seen plus mean inter-arrival gap, clamped
        forward to the bin start — lands within ``DUE_LOOKAHEAD_BINS``
        bins.  Soonest-due first, ties broken on the key string, so the
        ranking is independent of observation order.
        """
        if k <= 0:
            return []
        due: List[Tuple[float, str]] = []
        for key, (count, first_seen, last_seen) in self.key_stats.items():
            if count < MIN_KEY_COUNT:
                continue
            gap = (last_seen - first_seen) / (count - 1)
            idle = bin_start_s - last_seen
            if idle >= ALIVE_GAP_MULTIPLE * gap + bin_seconds:
                continue
            next_arrival = max(last_seen + gap, bin_start_s)
            if next_arrival < bin_start_s + DUE_LOOKAHEAD_BINS * bin_seconds:
                due.append((next_arrival, key))
        due.sort()
        return [key for _, key in due[:k]]


class WorkloadForecast:
    """One instance's combined arrival-rate + template-mix forecast.

    Parameters
    ----------
    config:
        The shared :class:`~repro.core.config.ForecastConfig`.
    seed:
        The forecaster's seed stream root — pass
        ``derive_seed(instance_seed, "forecast")`` so every instance
        gets an independent, reproducible stream.
    """

    def __init__(self, config: "ForecastConfig", seed: int = 0):
        self.config = config
        self.seed = int(seed)
        self.arrivals = ArrivalRateForecaster(config)
        self.mix = TemplateMixForecaster(config, self.arrivals.n_bins)
        self.n_observed = 0

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def bin_seconds(self) -> float:
        return self.arrivals.bin_seconds

    @property
    def n_bins(self) -> int:
        return self.arrivals.n_bins

    def bin_index(self, time_s: float) -> int:
        return self.arrivals.bin_index(time_s)

    def phase_of(self, time_s: float) -> int:
        return self.arrivals.phase_of(time_s)

    # ------------------------------------------------------------------
    # state updates
    # ------------------------------------------------------------------
    def observe(self, time_s: float, key: Optional[str] = None) -> None:
        """Fold one arrival (and its cache key, if any) into history."""
        phase = self.arrivals.phase_of(time_s)
        self.arrivals.observe(time_s)
        if key is not None:
            self.mix.observe(phase, time_s, key)
        self.n_observed += 1

    def fit(self, events: Iterable[Tuple[float, Optional[str]]]) -> "WorkloadForecast":
        """Offline fit on ``(arrival_time, cache_key)`` history.

        Histories larger than ``max_fit_events`` are subsampled with the
        forecaster's own seeded stream (indices re-sorted, so the kept
        events stay in arrival order); below the cap the fit is exactly
        the online observe loop.
        """
        events = list(events)
        if len(events) > self.config.max_fit_events:
            rng = np.random.default_rng(derive_seed(self.seed, "fit-subsample"))
            keep = np.sort(
                rng.choice(len(events), size=self.config.max_fit_events, replace=False)
            )
            events = [events[i] for i in keep]
        for time_s, key in events:
            self.observe(time_s, key)
        return self

    def fit_trace(self, trace) -> "WorkloadForecast":
        """Fit on a :class:`~repro.workload.trace.Trace` prefix, keying
        each record exactly as the cache would."""
        from repro.cache import ExecTimeCache

        return self.fit(
            (record.arrival_time, ExecTimeCache.key_for(record.features))
            for record in trace
        )

    # ------------------------------------------------------------------
    # forecasts
    # ------------------------------------------------------------------
    @property
    def warm(self) -> bool:
        """Whether enough history exists to trust trough/load calls."""
        return self.n_observed >= self.config.min_history

    def expected_rate(self, time_s: float) -> float:
        """Expected arrivals in the bin containing ``time_s``."""
        return self.arrivals.expected_count(self.phase_of(time_s))

    def is_trough(self, time_s: float) -> bool:
        """Whether the bin containing ``time_s`` is a forecast trough.

        Cold forecasters (< ``min_history`` observations) never report a
        trough — consumers fall back to their bounded-deferral paths.
        """
        if not self.warm:
            return False
        mean = self.arrivals.mean_per_bin
        if mean <= 0.0:
            return False
        return self.expected_rate(time_s) <= self.config.trough_fraction * mean

    def forecast_load(self, time_s: Optional[float] = None) -> float:
        """Expected arrivals over the next ``HORIZON_BINS`` bins.

        The rebalancer's per-instance load signal.  Defaults to the
        horizon after the last observed arrival; cold forecasters report
        0.0 (the planner then falls back to trailing totals).
        """
        if not self.warm:
            return 0.0
        if time_s is None:
            if self.arrivals.last_bin is None:
                return 0.0
            base_bin = self.arrivals.last_bin
        else:
            base_bin = self.bin_index(time_s)
        return float(
            sum(
                self.arrivals.expected_count((base_bin + offset) % self.n_bins)
                for offset in range(1, HORIZON_BINS + 1)
            )
        )

    def hot_keys(self, time_s: float, k: Optional[int] = None) -> List[str]:
        """Cache keys due to recur in the bin containing ``time_s``."""
        if k is None:
            k = self.config.top_templates
        bin_start = self.bin_index(time_s) * self.bin_seconds
        return self.mix.hot_keys(bin_start, self.bin_seconds, k)

    def next_trough(
        self, after_time_s: float, search_bins: Optional[int] = None
    ) -> Optional[float]:
        """Start time (seconds) of the next forecast trough bin strictly
        after ``after_time_s``, or ``None`` within the search window.

        The maintenance-window recommendation: schedule ANALYZE-style
        refreshes (and anything else heavy) at the returned time.
        Searches one full cycle by default.
        """
        if not self.warm:
            return None
        if search_bins is None:
            search_bins = self.n_bins
        base_bin = self.bin_index(after_time_s)
        for offset in range(1, search_bins + 1):
            start = (base_bin + offset) * self.bin_seconds
            if self.is_trough(start):
                return start
        return None
